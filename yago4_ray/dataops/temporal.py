"""Temporal joins: as-of join over a keyed event log.

Ray Data has no native as-of join; the portable pattern (ray_guide
"joins and lookups") is: co-locate both sides by key via one
partitioned shuffle, then `pd.merge_asof` per part with both sides
sorted by the time column. The shuffle is `joins.exchange` with one
declared side per input, keyed on the `by` column, so every key's left
and right rows meet in exactly one part.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
from ray.data import Dataset

from ..joins import exchange


def asof_join(
    left: Dataset,
    right: Dataset,
    by: str,
    on: str,
    left_columns: list[str],
    right_columns: list[str],
    suffix: str = "_right",
    num_parts: int = 32,
) -> Dataset:
    """Backward as-of join: each left row gets the most recent right row
    of the same `by` key with right.on <= left.on (nulls when none).

    `left_columns` / `right_columns` are the payload columns to carry
    from each side (excluding `by` and `on`); right payloads come back
    suffixed. `on` must have the same numeric/timestamp dtype on both
    sides. One exchange with the two inputs as its two sides, keyed on
    `by`; merge_asof is vectorized per part. The exchange pads each
    side's rows with nulls in the other side's payload columns, typed
    from that side's blocks.
    """
    on_right = f"{on}{suffix}"
    left_cols = [by, on] + left_columns
    right_cols = [by, on] + right_columns

    def join_part(tables: list[pa.Table], _keys) -> pa.Table:
        lhs, rhs = (t.to_pandas() for t in tables)
        rhs = rhs.rename(columns={c: f"{c}{suffix}" for c in right_columns})
        rhs.insert(2, on_right, rhs[on])
        out = pd.merge_asof(
            lhs.sort_values(on, kind="mergesort"),
            rhs.sort_values(on, kind="mergesort"),
            on=on, by=by, direction="backward",
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    return exchange(
        [(left, left_cols), (right, right_cols)], [by], join_part, num_parts
    ).materialize()
