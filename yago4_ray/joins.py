"""Distributed join / lookup / dedup building blocks.

Two regimes, chosen explicitly per call site (SURVEY §2.4, ray_guide):

- **Broadcast**: the small side (URI mapping, instance sets, clean-value
  maps — reference state ST2-ST5) is one object-store object, resolved
  once per worker *process* while it stays in a small least-recently-used
  cache, then used as a vectorized lookup per batch. No shuffle.
  At 100 TB these same call sites switch to the dataset path below
  (`BuildState.distributed`).
- **Co-partitioned join**: both sides large → `copartition_join`, one
  task-based hash exchange with an explicit partition count.

Exact dedup of triples hash-partitions on the *full* (s,p,o) key, so hub
subjects (Q5-class entities) spread across partitions by construction —
no salting needed there. Group-bys keyed on subject alone (maxCount)
shuffle per-batch partial counts, not rows (build._apply_max_count), so
a hub subject is one row per batch; `salted_aggregate` spreads the hot
keys of a decomposable aggregate that a `top_hot_keys` pre-pass finds.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data import Dataset

# Per-worker-process cache: a broadcast object is deserialized at most
# once per process while it is among the _BROADCAST_CACHE_SIZE most
# recently used. Older entries are evicted: a cached zero-copy value
# pins its object-store buffers after the driver drops its refs, and a
# worker outlives many builds. One build reads about a dozen broadcasts.
_BROADCAST_CACHE_SIZE = 16
_BROADCAST_CACHE: "OrderedDict[str, Any]" = OrderedDict()
_BROADCAST_LOCK = threading.Lock()


def get_broadcast(ref: "ray.ObjectRef") -> Any:
    key = ref.hex()
    with _BROADCAST_LOCK:
        if key in _BROADCAST_CACHE:
            _BROADCAST_CACHE.move_to_end(key)
            return _BROADCAST_CACHE[key]
    value = ray.get(ref)  # unlocked: one fetch must not stall other hits
    with _BROADCAST_LOCK:
        _BROADCAST_CACHE[key] = value
        while len(_BROADCAST_CACHE) > _BROADCAST_CACHE_SIZE:
            _BROADCAST_CACHE.popitem(last=False)
    return value


# ---------------------------------------------------------------------------
# Dataset ⨝ Dataset
# ---------------------------------------------------------------------------

def default_join_partitions(cap: int | None = 8) -> int:
    """The CPU floor of `partitions_for_nbytes` and
    `sources.read_blocks_for_nbytes`: one part per 2 session CPUs (at
    least 2; 4 CPUs are assumed before `ray.init`), capped at `cap`
    (None: uncapped). Both callers cap the floor in turn by input
    volume, so no part falls under their minimum part size."""
    cpus = int(ray.cluster_resources().get("CPU", 4)) if ray.is_initialized() else 4
    n = max(2, cpus // 2)
    return min(n, cap) if cap else n


def partitions_for_nbytes(
    nbytes: int, target_mb: int = 96, cap: int = 512, min_mb: int = 8
) -> int:
    """Partition count sized to DATA VOLUME with a cluster floor.

    The fixed CPU-derived default is right for small inputs (aggregator
    actor startup dominates), but a partition is one pandas frame in one
    worker's heap — its size must stay bounded as data grows, or an
    8-CPU/4-partition join over tens of millions of rows spills and
    anti-scales (measured: 44 M-row build at 8 CPUs took 4.4× the 22 M
    time before this sizing). `nbytes` is UNCOMPRESSED parquet data
    bytes (`sources.parquet_data_nbytes` — codec-invariant; on-disk
    bytes swing 10–25× with codec and sort order); Arrow heap is
    ~2–2.5× that, so the 96 MB target bounds a partition at ~200–240 MB
    in a worker's heap. The cluster floor is itself capped so no
    partition falls under `min_mb`: an unconditional CPU-derived floor
    makes tiny-volume shuffles pay (blocks × partitions) exchange
    objects proportional to the SESSION size (see
    sources.read_blocks_for_nbytes for the measured sf0.1/32-CPU 2×
    kg_build regression this caused).

    `target_mb` defaults to 96 (re-validated round 4: 48 MB → 33 parts
    at 22 M measured no better at 32 CPUs)."""
    base = min(
        default_join_partitions(cap=None),
        int(nbytes // (min_mb << 20)) + 1,
    )
    by_size = int(nbytes // (target_mb << 20)) + 1
    return max(base, min(by_size, cap))


def copartition_join(
    left: Dataset,
    right: Dataset,
    on: str | tuple[str, ...],
    left_cols: list[str],
    right_cols: list[str],
    how: str = "inner",
    num_parts: int = 32,
    col_types: dict | None = None,
    tag_batch_size: int | None = None,
    hash_keys: bool = False,
    extra_sides: Sequence[tuple[Dataset, list[str]]] = (),
    part_fn=None,
) -> Dataset:
    """Task-based co-partitioned equi-join: tag each side, hash-partition
    the UNION on the join key, merge per part with vectorized pandas.

    N-way form: `extra_sides` adds further (Dataset, cols) sides to the
    SAME exchange, and `part_fn(tables, keys)` replaces the default
    per-part 2-way acero join — it gets one Arrow table per side (left,
    right, then `extra_sides` in order, each holding that side's
    declared columns, plus the `__k1`/`__k2` digests under hash_keys)
    and the column names to join on, and returns the part's output
    table. Every row of a key lands in one part, so per-key work inside
    `part_fn` (semi-joins, exact dedups) is exact.

    Why not `Dataset.join`: Ray's native hash join spawns one
    CPU-reserving AGGREGATOR ACTOR per partition per call (~1 s startup
    each). A DAG with a dozen semi-joins — exactly what the distributed
    state path is — oversubscribes a session's CPUs with idle actors and
    stalls (measured: 28 aggregators deadlocked a 4-CPU session). This
    join is pure tasks on the same groupby shuffle machinery as
    partitioned_group_apply: one exchange, no actors, composes freely.

    `left_cols`/`right_cols` are each side's full column lists (schemas
    are known statically at every call site; asking the Dataset would
    trigger execution). Under the default join, non-key columns must be
    disjoint across the two sides.

    The exchange ships ARROW blocks (same treatment as
    partitioned_group_apply): the key hash is computed on the key
    columns only, pandas schema metadata is stripped so Ray's shuffle
    schema-dedup hashing works (the pandas object-frame version both
    pickled every string and leaked one schema dict per block — the
    `unhashable type: 'dict'` misses in BENCH_r02's tail), and missing
    columns are padded with nulls TYPED via `col_types` (default
    string) so every block of the union carries the IDENTICAL schema —
    per-side schema variants defeat the shuffle's schema dedup and
    trip Ray's union mismatch warning. Callers only need `col_types`
    entries for non-string columns (e.g. int64 money, binary shingle
    payloads).

    `tag_batch_size` bundles adjacent upstream blocks per tag task
    (PERF_NOTES #33 generalized): the sort shuffle behind the groupby
    sizes BOTH its exchange width and its reduce count to the INPUT
    block count, and the upstream read floor scales with session CPUs
    — so without bundling, a 32-CPU session pays a 64×64 exchange
    where an 8-CPU one pays 16×16 on the SAME data (measured on the
    facts join: the whole phase is latency-bound, ~27 s of CPU inside
    a 7–15 s wall). Callers that know their side volume should pass
    rows-per-~32MB so exchange width tracks data volume, not session
    width.

    `hash_keys=True` ships a 128-bit key digest (two independently
    seeded polars `hash_rows` uint64 columns) through the exchange
    INSTEAD of the key strings, and joins on the digest: a side whose
    payload doesn't need the key columns downstream stops shipping
    them at all (e.g. the facts join's object side stops carrying the
    ~65-byte cfg+statement strings per row; the volume-bound exchange
    is the measured scaling limiter — PERF_NOTES #38). The key columns
    appear in the output only if a side lists them in its `*_cols`.
    Collision bound: a wrong match needs two DIFFERENT keys with equal
    128-bit digests; at n distinct keys the expected count is
    n²/2^129 ≈ 3·10⁻¹⁵ even at n = 10¹² — the same content-address
    discipline as git. Both digests were verified decorrelated on the
    statement-id shape (2 M keys → 2 M distinct pairs, zero h1==h2)."""
    keys = [on] if isinstance(on, str) else list(on)
    sides = [(left, left_cols), (right, right_cols), *extra_sides]
    if hash_keys and part_fn is None:
        # under hash_keys the former key columns are plain payload; a
        # column on BOTH sides would collide in the per-part acero join
        shared = set(left_cols) & set(right_cols)
        if shared:
            raise ValueError(f"hash_keys: columns on both sides: {sorted(shared)}")
    all_cols = list(dict.fromkeys(c for _, cols in sides for c in cols))
    types = col_types or {}

    def tag(side: int, cols: list[str]):
        # ship ONLY this side's declared columns: anything else in
        # all_cols is null-filled even when the batch happens to carry
        # it — under hash_keys a semi-join side whose key column is in
        # the OTHER side's cols must not re-ship the key strings it
        # claims to have dropped (the digest replaces them); join_part
        # selects per-side columns anyway, so real values there would be
        # pure exchange bytes
        ship = set(cols)

        def fn(batch: pa.Table) -> pa.Table:
            if batch.schema.metadata:
                batch = batch.replace_schema_metadata(None)
            n = batch.num_rows
            if hash_keys:
                import polars as pl

                # NOTE null keys: the plain path's acero join never
                # matches nulls (SQL semantics, documented in join_part);
                # hash_rows would give all-null rows EQUAL digests on
                # both sides and silently join them — enforce the
                # invariant instead of changing semantics by mode
                for kc in keys:
                    if batch.column(kc).null_count:
                        raise ValueError(
                            f"hash_keys join requires non-null keys; "
                            f"column {kc!r} has nulls"
                        )
                kt = pl.from_arrow(batch.select(keys))
                h1 = kt.hash_rows(seed=42).to_numpy()
                h2 = kt.hash_rows(seed=0x517CC1B7).to_numpy()
                part = pa.array(
                    (h1 % np.uint64(num_parts)).astype("int64"), pa.int64()
                )
            else:
                part = _part_ids(batch, keys, num_parts)
            arrays: list[pa.ChunkedArray | pa.Array] = []
            for c in all_cols:
                if c in ship and c in batch.column_names:
                    col = batch.column(c)
                    # empty upstream blocks surface object columns as
                    # null type — cast to the declared type so empty
                    # and non-empty blocks share one schema; large_string
                    # (concat artifacts, e.g. the remote URI merge) is
                    # normalized to string for the same reason (a
                    # per-side schema variant defeats the shuffle's
                    # schema dedup and trips Ray's union warning)
                    want = types.get(c)
                    if want is None and (
                        pa.types.is_null(col.type)
                        or pa.types.is_large_string(col.type)
                    ):
                        want = pa.string()
                    if want is not None and col.type != want:
                        col = col.cast(want)
                    arrays.append(col)
                else:
                    arrays.append(pa.nulls(n, types.get(c, pa.string())))
            names = list(all_cols)
            if hash_keys:
                arrays.append(pa.array(h1, pa.uint64()))
                arrays.append(pa.array(h2, pa.uint64()))
                names += ["__k1", "__k2"]
            arrays.append(part)
            arrays.append(pa.array(np.full(n, side, dtype="int8")))
            return pa.table(dict(zip(names + ["__part", "__side"], arrays)))

        return fn

    tagged = [
        ds.map_batches(
            tag(i, cols), batch_format="pyarrow", batch_size=tag_batch_size
        )
        for i, (ds, cols) in enumerate(sides)
    ]

    # acero join_type names for the pandas-style `how` values
    _ACERO_HOW = {
        "inner": "inner",
        "left": "left outer",
        "right": "right outer",
        "outer": "full outer",
    }

    def join2(tables: list[pa.Table], join_keys: list[str]) -> pa.Table:
        # acero's C++ hash join: the previous pandas merge materialized
        # every string of both sides as PyObjects per part — the single
        # hottest CPU cost of the facts join at narrow sessions. Row
        # order within a part is not guaranteed by acero; every
        # consumer is set-semantic (dedup shuffles, sinks that sort
        # within part, aggregations).
        # NOTE on null keys: acero (like SQL) never matches null join
        # keys; the pandas merge this replaced matched NaN==NaN. No call
        # site produces null keys (statement ids / custkeys / pair ids),
        # and null-key equality was never intended semantics.
        # use_threads=False: each part runs in a 1-CPU Ray task —
        # acero's default process-wide pool would oversubscribe the node
        # under ~32 concurrent parts (same convention as the dedup
        # group_by kernel below).
        lhs, rhs = tables
        return lhs.join(
            rhs, keys=join_keys, join_type=_ACERO_HOW[how], use_threads=False
        )

    merge = part_fn or join2
    join_keys = ["__k1", "__k2"] if hash_keys else keys

    def join_part(t: pa.Table) -> pa.Table:
        side = t.column("__side")
        tables = [
            t.filter(pc.equal(side, i)).select(
                cols + join_keys if hash_keys else cols
            )
            for i, (_, cols) in enumerate(sides)
        ]
        out = merge(tables, join_keys)
        if hash_keys:
            out = out.drop_columns(
                [c for c in ("__k1", "__k2") if c in out.column_names]
            )
        return (
            out.replace_schema_metadata(None) if out.schema.metadata else out
        )

    return tagged[0].union(*tagged[1:]).groupby("__part").map_groups(
        join_part, batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# Dedup / grouped filters
# ---------------------------------------------------------------------------

def _part_ids(batch: pa.Table, key_columns: list[str], num_parts: int) -> pa.Array:
    """Deterministic row→partition ids from the key columns.

    polars ``hash_rows`` with a fixed seed hashes the rows natively
    (no Python-string materialization) and is deterministic across
    processes — required for stable part-file naming. Measured ~20×
    faster than the string-concat + ``hash_pandas_object`` path it
    replaced at 2 M rows of 4 string columns."""
    import polars as pl

    h = pl.from_arrow(batch.select(key_columns)).hash_rows(seed=42).to_numpy()
    return pa.array((h % np.uint64(num_parts)).astype("int64"), pa.int64())


def _arrow_distinct(t: pa.Table, columns: list[str]) -> pa.Table:
    """Exact distinct on `columns` via Arrow's hash group-by — ~6×
    faster than a pandas round trip + drop_duplicates (no object
    strings are ever materialized). Only valid when `columns` covers
    every payload column (group_by drops the rest)."""
    if t.num_rows == 0:
        return t.select(columns)
    return t.group_by(columns, use_threads=False).aggregate([]).select(columns)


def partitioned_group_apply(
    ds: Dataset,
    key_columns: list[str],
    fn,
    num_parts: int = 32,
    combine=None,
    keep_part_column: bool = False,
) -> Dataset:
    """Grouped computation WITHOUT per-group Python overhead:
    hash-partition rows into `num_parts` coarse parts (every row of a
    key lands in one part), then call `fn` once per PART with a pandas
    DataFrame containing complete groups — `fn` does its own vectorized
    `pdf.groupby(...)`. Ray's `map_groups` calls the UDF once per group,
    which collapses at high key cardinality (~ms of overhead × millions
    of groups); this keeps it to `num_parts` calls.

    The part key hashes ALL key columns, so a skewed single column only
    skews if one exact key dominates — for that case raise num_parts or
    pre-salt (SURVEY §4 skew notes). `combine`, if given, runs per batch
    before the shuffle (combiner-style pre-reduction).

    The exchange itself ships ARROW blocks: `add_part` emits pyarrow
    (pandas `fn`/`combine` run per batch / per part only), because
    Ray's sort shuffle over pandas object frames pickles every Python
    string — measured 2× ingest time at 22M rows."""

    def add_part(batch: pa.Table) -> pa.Table:
        if combine is not None:
            batch = pa.Table.from_pandas(
                combine(batch.to_pandas()), preserve_index=False
            )
        # drop pandas schema metadata (a dict): it defeats Ray's shuffle
        # schema-dedup hashing, which then keeps one schema copy per block
        if batch.schema.metadata:
            batch = batch.replace_schema_metadata(None)
        return batch.append_column(
            "__part", _part_ids(batch, key_columns, num_parts)
        )

    def apply_part(part: pd.DataFrame) -> pd.DataFrame:
        if keep_part_column:
            return fn(part)
        return fn(part.drop(columns=["__part"]))

    return (
        ds.map_batches(add_part, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(apply_part, batch_format="pandas")
    )


def distinct_rows(
    ds: Dataset,
    columns: list[str],
    num_parts: int = 32,
    keep_part_column: bool = False,
) -> Dataset:
    """Exact distinct on `columns` (G6; SURVEY §2.7): per-batch
    combiner pre-dedup, then one partitioned dedup. Keyed on ALL
    columns, so hub values in one column can't skew partitions.
    `keep_part_column` exposes the deterministic partition id (`__part`)
    to downstream sinks for stable part-file naming.

    Arrow end to end: when `columns` covers every payload column (all
    the hot callers — the combined output dedup, facts/annotated
    triple dedup), both the combiner and the per-part dedup run
    Arrow's hash group-by and no pandas object frame is ever built;
    otherwise the per-part step falls back to drop_duplicates to keep
    the non-key columns."""

    def pre(batch: pa.Table) -> pa.Table:
        if batch.schema.metadata:
            batch = batch.replace_schema_metadata(None)
        # empty upstream blocks surface columns as null type — cast to
        # string so every block shares one schema through the shuffle
        for i, c in enumerate(batch.column_names):
            if pa.types.is_null(batch.column(i).type):
                batch = batch.set_column(
                    i, c, batch.column(i).cast(pa.string())
                )
        if all(c in columns for c in batch.column_names):
            batch = _arrow_distinct(batch, columns)
        else:
            batch = pa.Table.from_pandas(
                batch.to_pandas().drop_duplicates(columns),
                preserve_index=False,
            ).replace_schema_metadata(None)
        return batch.append_column(
            "__part", _part_ids(batch, columns, num_parts)
        )

    def per_part(t: pa.Table) -> pa.Table:
        if all(c in columns or c == "__part" for c in t.column_names):
            # __part is a pure function of the key columns, so keying
            # on it too changes nothing and keeps it in the output
            out = _arrow_distinct(t, columns + ["__part"])
        else:
            out = pa.Table.from_pandas(
                t.to_pandas().drop_duplicates(columns),
                preserve_index=False,
            ).replace_schema_metadata(None)
        if not keep_part_column:
            out = out.drop_columns(["__part"])
        return out

    return (
        ds.map_batches(pre, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(per_part, batch_format="pyarrow")
    )


def top_hot_keys(
    ds: Dataset, column: str, threshold: int, num_parts: int = 32
) -> list[str]:
    """Pre-pass hot-key detector: values of `column` whose row count
    exceeds `threshold` (drives salting decisions). Combiner partials
    per batch, partitioned reduce — the detection itself can't skew."""
    partials = ds.map_batches(
        lambda b: b.groupby(column, as_index=False).agg(n=(column, "size")),
        batch_format="pandas",
    )
    counts = partitioned_group_apply(
        partials,
        [column],
        lambda pdf: pdf.groupby(column, as_index=False).agg(n=("n", "sum")),
        num_parts=num_parts,
    ).to_pandas()
    return sorted(counts.loc[counts["n"] > threshold, column])


def salted_aggregate(
    ds: Dataset,
    key: str,
    agg_spec: dict[str, tuple[str, str]],
    hot_keys: list[str] | None = None,
    hot_threshold: int | None = None,
    salt: int = 16,
    num_parts: int = 32,
) -> Dataset:
    """Two-phase aggregate with explicit hot-key salting (SURVEY §4 /
    north_rule: hub entities like Q5 make a naive key-partitioned
    aggregate one-reducer-bound).

    Phase 1 groups on (key, salt) where salt spreads ONLY the hot keys
    (detected by a pre-pass when `hot_keys` is None) across `salt`
    sub-buckets; phase 2 merges the per-salt partials — tiny, because
    each hot key now contributes at most `salt` rows. `agg_spec` maps
    output column → (input column, 'sum'|'min'|'max'|'size') — the
    decomposable aggregates salting is valid for."""
    if hot_keys is None:
        hot_keys = top_hot_keys(ds, key, hot_threshold or 100_000)
    hot_ref = ray.put(set(hot_keys))

    def add_salt(batch: pd.DataFrame) -> pd.DataFrame:
        hot = get_broadcast(hot_ref)
        batch = batch.copy()
        is_hot = batch[key].isin(hot).to_numpy()
        salts = np.arange(len(batch)) % salt  # round-robin within batch
        batch["__salt"] = np.where(is_hot, salts, 0).astype("int64")
        return batch

    spec1 = {
        out: (col, "size" if how == "size" else how)
        for out, (col, how) in agg_spec.items()
    }
    merge_spec = {
        out: (out, "sum" if how == "size" else how)
        for out, (_, how) in agg_spec.items()
    }

    def phase1(pdf: pd.DataFrame) -> pd.DataFrame:
        return pdf.groupby([key, "__salt"], as_index=False).agg(**spec1)

    def phase2(pdf: pd.DataFrame) -> pd.DataFrame:
        return pdf.groupby(key, as_index=False).agg(**merge_spec)

    # shuffle 1 keyed on (key, salt): a hot key spreads over `salt`
    # partitions; shuffle 2 merges its ≤`salt` partial rows per key
    partials = partitioned_group_apply(
        ds.map_batches(add_salt, batch_format="pandas"),
        [key, "__salt"],
        phase1,
        num_parts=num_parts,
    ).drop_columns(["__salt"])
    return partitioned_group_apply(partials, [key], phase2, num_parts=num_parts)

