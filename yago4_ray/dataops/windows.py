"""Stream-shaped windowing over an ordered, partitioned event log.

Ray Data has no event-time/watermark machinery (SURVEY §2.9: neither
does the reference); windows over a bounded log are expressed as
grouped computations per key (ray_guide "streaming-shaped workloads"),
each over one `joins.exchange`, so every key's events land in one part
and the per-part work is vectorized: the bucketed windows are the
decomposable `joins.aggregate`; sessions need the in-group time order,
so pandas runs that logic in `partitioned_group_apply`.

- tumbling_window: fixed-size buckets (floor(ts / size))
- sliding_window: overlapping buckets (emit one row per covering window)
- session_window: gap-based sessions (new session when the time since
  the previous event exceeds `gap`)
"""

from __future__ import annotations

import pandas as pd
from ray.data import Dataset

from ..joins import aggregate, partitioned_group_apply

US = 1_000_000  # timestamps arrive as int64 microseconds

_WINDOW_AGGS = {
    "n_events": (None, "count"),
    "sum_value_cents": ("value_cents", "sum"),
}


def _to_epoch_us(series: pd.Series) -> pd.Series:
    if series.dtype.kind == "M":
        # normalize the resolution: Arrow timestamp[us] survives as
        # datetime64[us] under pandas 2, but other sources give [ns]
        return series.astype("datetime64[us]").astype("int64")
    return series.astype("int64")


def tumbling_window(
    ds: Dataset,
    key: str,
    ts_col: str,
    value_col: str,
    window_s: int,
) -> Dataset:
    """(key, window_start_s, n_events, sum_value_cents) per fixed bucket."""

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                key: df[key],
                "window_start_s": (_to_epoch_us(df[ts_col]) // (window_s * US))
                * window_s,
                "value_cents": (df[value_col] * 100).round().astype("int64"),
            }
        )
        return out

    return aggregate(
        ds.map_batches(prep, batch_format="pandas"), [key, "window_start_s"],
        _WINDOW_AGGS,
    )


def sliding_window(
    ds: Dataset,
    key: str,
    ts_col: str,
    value_col: str,
    window_s: int,
    slide_s: int,
) -> Dataset:
    """Overlapping windows: each event fans out to every window that
    covers it, then a tumbling-style aggregate per (key, window_start)."""
    n_covers = (window_s + slide_s - 1) // slide_s

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        ts_s = _to_epoch_us(df[ts_col]) // US
        base = pd.DataFrame(
            {
                key: df[key],
                "ts_s": ts_s,
                "value_cents": (df[value_col] * 100).round().astype("int64"),
            }
        )
        outs = []
        for i in range(n_covers):
            w = ((base["ts_s"] // slide_s) - i) * slide_s
            sel = base[(w + window_s > base["ts_s"]) & (w >= 0)]
            outs.append(
                pd.DataFrame(
                    {
                        key: sel[key],
                        "window_start_s": w[sel.index],
                        "value_cents": sel["value_cents"],
                    }
                )
            )
        return pd.concat(outs, ignore_index=True)

    return aggregate(
        ds.map_batches(prep, batch_format="pandas"), [key, "window_start_s"],
        _WINDOW_AGGS,
    )


def session_window(
    ds: Dataset,
    key: str,
    ts_col: str,
    gap_s: int,
) -> Dataset:
    """Gap-based sessions per key: a new session starts when the gap to
    the previous event exceeds `gap_s`. Returns one row per session:
    (key, session_start_us, session_end_us, n_events).

    Ordering assumption: none on input — each key's complete history is
    sorted inside its part (the bounded-log equivalent of per-key event
    ordering)."""

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({key: df[key], "ts_us": _to_epoch_us(df[ts_col])})

    def sessions(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values([key, "ts_us"])
        new_session = (pdf[key] != pdf[key].shift(1)) | (
            pdf["ts_us"] - pdf["ts_us"].shift(1) > gap_s * US
        )
        pdf = pdf.assign(session=new_session.cumsum())
        return pdf.groupby([key, "session"], as_index=False).agg(
            session_start_us=("ts_us", "min"),
            session_end_us=("ts_us", "max"),
            n_events=("ts_us", "size"),
        )[[key, "session_start_us", "session_end_us", "n_events"]]

    return partitioned_group_apply(
        ds.map_batches(prep, batch_format="pandas"), [key], sessions
    )
