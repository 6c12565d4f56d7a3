"""Distributed join / lookup / dedup building blocks.

Two regimes, chosen explicitly per call site (SURVEY §2.4, ray_guide):

- **Broadcast**: the small side (URI mapping, instance sets, clean-value
  maps — reference state ST2-ST5) is one object-store object, resolved
  once per worker *process* while it stays in a small least-recently-used
  cache, then used as a vectorized lookup per batch. No shuffle.
  At 100 TB these same call sites switch to the dataset path below
  (`BuildState.distributed`).
- **Hash exchange**: `exchange` is the engine's one shuffle, plain Ray
  tasks with no Ray Data all-to-all operator: map tasks tag each
  side's rows with a part id, normalize the block schema and split the
  rows by reducer (`num_returns`); each reduce task hands a part
  function one table per side, once per part. Joins
  (`copartition_join` and the build's N-way part functions), grouped
  applies (`partitioned_group_apply`), exact dedups (`distinct_rows`),
  connected-component rounds and the statement-store clustering all
  run on it.

Exact dedup of triples hash-partitions on the *full* (s,p,o) key, so hub
subjects (Q5-class entities) spread across partitions by construction —
no salting needed there. Group-bys keyed on subject alone (maxCount)
shuffle per-batch partial counts, not rows (build._apply_max_count), so
a hub subject is one row per batch; `salted_aggregate` spreads the hot
keys of a decomposable aggregate that a `top_hot_keys` pre-pass finds.
Join keys that range over object items (the build's item join) are
skew-prone; ROADMAP item 10 salts them inside `exchange`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data import Dataset
from ray.data.dataset import MaterializedDataset
from ray.data.block import BlockAccessor

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


def _block_groups(ds: Dataset, rows_per_group: int | None) -> list[list]:
    """`ds`'s block refs in order, adjacent blocks grouped up to
    `rows_per_group` rows (None: one block per group). A materialized
    Dataset yields its refs; a lazy one runs once."""
    if isinstance(ds, MaterializedDataset):
        # a from_arrow_refs/from_pandas plan is not marked executed, so
        # iterating it starts a bare Input execution; materialize()
        # marks it without running anything
        ds = ds.materialize()
    groups: list[list] = []
    rows = 0
    for bundle in ds.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            if not groups or rows_per_group is None or rows >= rows_per_group:
                groups.append([])
                rows = 0
            groups[-1].append(ref)
            rows += meta.num_rows or 0
    return groups


def _concat(tables: list[pa.Table]) -> pa.Table:
    """One table of the rows of `tables`. Empty tables, whose columns an
    upstream may have left null-typed, join only when all are empty."""
    full = [t for t in tables if t.num_rows] or tables[:1]
    if len(full) == 1:
        return full[0]
    return pa.concat_tables(full, promote_options="permissive")


_NO_ROWS = pa.table({"__part": pa.array([], pa.int64())})


@ray.remote
def _exchange_map(fns, side: int, num_reducers: int, num_parts: int, *blocks):
    """One map task of `exchange`: tag the rows of adjacent `blocks` of
    one side, sort them by `__part` and return one slice per reducer.
    Reducer r owns the parts p with p * num_reducers // num_parts == r."""
    tag, _ = fns
    tables = [BlockAccessor.for_block(b).to_arrow() for b in blocks]
    # an empty upstream block may hold no column at all
    t = _concat([tag(side, b) for b in tables if b.num_rows] or [_NO_ROWS])
    if num_reducers == 1:
        return t
    parts = t["__part"].to_numpy()
    order = np.argsort(parts, kind="stable")
    t = t.take(order)
    lows = [-(-r * num_parts // num_reducers) for r in range(num_reducers + 1)]
    bounds = np.searchsorted(parts[order], lows)
    return tuple(t.slice(a, b - a) for a, b in zip(bounds, bounds[1:]))


@ray.remote(num_returns=2)
def _exchange_reduce(fns, *slices):
    """One reduce task of `exchange`: concatenate the slices of its part
    range and run the part function once per part present. Returns
    (block, its row count), the count None when no part was present
    (the block then has no column)."""
    _, reduce = fns
    t = _concat(list(slices))
    if not t.num_rows:
        return pa.table({}), None
    parts = t["__part"].to_numpy()
    order = np.argsort(parts, kind="stable")
    t = t.take(order)
    bounds = [0, *(np.flatnonzero(np.diff(parts[order])) + 1), t.num_rows]
    outs = [reduce(t.slice(a, b - a)) for a, b in zip(bounds, bounds[1:])]
    # an empty part output (an empty pandas column is object-typed)
    # must not decide the block's column types
    outs = [o for o in outs if len(o)] or outs[:1]
    if isinstance(outs[0], pd.DataFrame):
        out = BlockAccessor.for_block(pd.concat(outs, ignore_index=True)).to_arrow()
    else:
        out = _concat(outs)
    if out.schema.metadata:
        out = out.replace_schema_metadata(None)
    return out, out.num_rows


def exchange(
    sides: Sequence[tuple[Dataset, list[str] | None]],
    keys: list[str],
    part_fn,
    num_parts: int,
    batch_format: str = "pyarrow",
    col_types: dict | None = None,
    hash_keys: bool = False,
    tag_batch_size: int | None = None,
    part_ids=None,
) -> Dataset:
    """The engine's one hash exchange: tag every row of every side with
    its part id, move each part's rows to one reduce task, and call
    `part_fn(tables, keys)` once per PART with one table per side.
    Every row of a key lands in one part, so per-key work inside
    `part_fn` (joins, semi-joins, exact dedups, group-wise filters) is
    exact, at one Python call per part rather than per group.

    Part ids are polars `hash_rows(seed=42)` of the `keys` columns mod
    `num_parts` (deterministic across processes: part-file naming
    rests on it); `part_ids(batch)` replaces them (the statement
    store's predicate-crc-plus-subject-salt).

    A side is `(Dataset, cols)`. A DECLARED side (`cols` a list) ships
    only those columns: null or large_string columns are cast to their
    `col_types` entry (default string), and on a multi-side exchange
    the columns other sides declare travel as typed nulls, so every
    slice of a part concatenates under one schema. Its part table is
    Arrow and holds `cols`. An UNDECLARED side (`cols` None, one-side
    exchanges only) ships its blocks as they are, and its part table
    (`batch_format`, Arrow or pandas) keeps `__part`. Schema metadata
    (pandas' dict) is stripped from every shipped and returned block.
    The exchange itself always ships Arrow: pandas object frames would
    pickle every string.

    `hash_keys=True` ships a 128-bit key digest (two independently
    seeded polars `hash_rows` uint64 columns, `__k1`/`__k2`) instead
    of the key strings, and `part_fn` gets the digests as its keys: a
    side whose payload doesn't need the key columns stops shipping them
    (the volume-bound exchange is the measured scaling limiter —
    PERF_NOTES #38). Keys must then be non-null (equal digests would
    join null keys). Collision bound: at n distinct keys the expected
    count of equal digest pairs is n²/2^129 ≈ 3·10⁻¹⁵ even at n = 10¹²;
    both digests were verified decorrelated on the statement-id shape
    (2 M keys → 2 M distinct pairs, zero h1==h2).

    The shuffle is plain Ray tasks, no Ray Data all-to-all operator
    (a sort shuffle samples range boundaries and re-sorts to find the
    part ids the tag step already computed). The driver streams each
    side's block refs (`iter_internal_ref_bundles`: a materialized side
    yields its refs, a lazy one runs once; the sides stream
    concurrently, which measured faster than one after the other) and
    groups adjacent blocks up to `tag_batch_size` rows (None: one block
    per group). One `_exchange_map` task per group tags its rows, sorts
    them by `__part` and returns one slice per reducer (`num_returns`).
    There are `min(num_parts, map tasks)` reducers, each owning a
    contiguous range of parts, so the object count is map tasks ×
    reducers and a reducer's block holds many small parts rather than
    one block per part (at benchmark size the statement store writes
    one file per predicate directory). Map tasks start once every side
    has streamed (the reducer count depends on the map count). Each
    `_exchange_reduce` task concatenates its slices and runs `part_fn`
    once per part present. The result is MATERIALIZED (`from_arrow_refs`
    of the reducers that returned rows): the call returns once every
    part is done, and a part without rows yields no block. When no part
    yields rows, one 0-row block carries the part function's columns;
    an exchange with no input row at all returns an empty Dataset
    without a schema.

    Why not `Dataset.join`: Ray's native hash join spawns one
    CPU-reserving aggregator actor per partition per call (~1 s startup
    each); a DAG with a dozen joins oversubscribes a session with idle
    actors and stalls (measured: 28 aggregators deadlocked a 4-CPU
    session). This exchange is pure tasks and composes freely."""
    # the per-part closures see column lists only, never the Datasets
    side_cols = [cols for _, cols in sides]
    multi = len(side_cols) > 1
    declared = list(dict.fromkeys(c for cols in side_cols for c in cols or ()))
    types = col_types or {}
    join_keys = ["__k1", "__k2"] if hash_keys else keys

    def column(batch: pa.Table, c: str, ship: list[str]):
        want = types.get(c, pa.string())
        if c not in ship or c not in batch.column_names:
            return pa.nulls(batch.num_rows, want)
        col = batch.column(c)
        # empty upstream blocks surface object columns as null type;
        # concat artifacts (the remote URI merge) as large_string
        if col.type != want and (
            c in types or pa.types.is_null(col.type)
            or pa.types.is_large_string(col.type)
        ):
            col = col.cast(want)
        return col

    def tag(side: int, batch: pa.Table) -> pa.Table:
        if batch.schema.metadata:
            batch = batch.replace_schema_metadata(None)
        n = batch.num_rows
        digests = {}
        if hash_keys:
            import polars as pl

            # the plain acero join never matches null keys (SQL
            # semantics); hash_rows would give them equal digests
            for kc in keys:
                if batch.column(kc).null_count:
                    raise ValueError(
                        f"hash_keys join requires non-null keys; "
                        f"column {kc!r} has nulls"
                    )
            kt = pl.from_arrow(batch.select(keys))
            h1 = kt.hash_rows(seed=42).to_numpy()
            digests["__k1"] = pa.array(h1, pa.uint64())
            digests["__k2"] = pa.array(
                kt.hash_rows(seed=0x517CC1B7).to_numpy(), pa.uint64()
            )
            part = pa.array((h1 % np.uint64(num_parts)).astype("int64"))
        elif part_ids is not None:
            part = part_ids(batch)
        else:
            part = _part_ids(batch, keys, num_parts)
        cols = side_cols[side]
        if cols is not None:
            # a declared side ships ONLY its own columns: under
            # hash_keys a side whose key column another side declares
            # must not re-ship the key strings the digest replaces
            batch = pa.table({c: column(batch, c, cols) for c in declared})
        for name, arr in digests.items():
            batch = batch.append_column(name, arr)
        batch = batch.append_column("__part", part)
        if multi:
            batch = batch.append_column(
                "__side", pa.array(np.full(n, side, dtype="int8"))
            )
        return batch

    def side_table(t: pa.Table, i: int, cols: list[str] | None):
        if cols is None:
            return t
        if multi:
            t = t.filter(pc.equal(t.column("__side"), i))
        return t.select(cols + join_keys if hash_keys else cols)

    def reduce(t: pa.Table):
        tables = [side_table(t, i, cols) for i, cols in enumerate(side_cols)]
        if batch_format == "pandas":
            tables = [BlockAccessor.for_block(s).to_pandas() for s in tables]
        out = part_fn(tables, join_keys)
        if hash_keys and isinstance(out, pa.Table):
            out = out.drop_columns([c for c in join_keys if c in out.column_names])
        return out

    fns = ray.put((tag, reduce))
    with ThreadPoolExecutor(max_workers=len(sides)) as pool:
        per_side = list(pool.map(
            lambda ds: _block_groups(ds, tag_batch_size), [ds for ds, _ in sides]
        ))
    groups = [(i, refs) for i, side in enumerate(per_side) for refs in side]
    del per_side
    num_reducers = min(num_parts, len(groups))
    splits = [
        _exchange_map.options(num_returns=num_reducers).remote(
            fns, side, num_reducers, num_parts, *refs
        )
        for side, refs in groups
    ]
    # the driver keeps no ref it handed to a task: a lazy side's blocks
    # are freed when their map task ends, a reducer's slices when it ends
    del groups
    if num_reducers == 1:
        splits = [[s] for s in splits]
    outs = [
        _exchange_reduce.remote(fns, *[s[r] for s in splits])
        for r in range(num_reducers)
    ]
    del splits
    rows = ray.get([n for _, n in outs])
    blocks = [block for (block, _), n in zip(outs, rows) if n]
    if not blocks:
        # no part yielded rows: one 0-row block keeps the part
        # function's columns, so the result's schema stays known
        blocks = [block for (block, _), n in zip(outs, rows) if n == 0][:1]
    # from_arrow_refs does not mark its plan executed: materialize() does
    # (no execution), so no consumer's to_arrow_refs starts one
    return ray.data.from_arrow_refs(blocks).materialize()


def copartition_join(
    left: Dataset,
    right: Dataset,
    on: str | tuple[str, ...],
    left_cols: list[str],
    right_cols: list[str],
    num_parts: int = 32,
    col_types: dict | None = None,
    hash_keys: bool = False,
) -> Dataset:
    """Inner equi-join of two Datasets over one `exchange`, joined per
    part by acero's C++ hash join. `left_cols`/`right_cols` are each
    side's full column lists (known statically at every call site;
    asking the Dataset would trigger execution); non-key columns must
    be disjoint across the two sides. Under `hash_keys` the key columns
    reach the output only if a side lists them.

    acero, like SQL, never matches null join keys; no call site produces
    them. Row order within a part is not guaranteed; every consumer is
    set-semantic (dedup exchanges, sinks that sort within part,
    aggregations). `use_threads=False`: each part runs in a 1-CPU Ray
    task, and acero's process-wide pool would oversubscribe the node."""
    keys = [on] if isinstance(on, str) else list(on)
    if hash_keys:
        # the former key columns are plain payload; a column on BOTH
        # sides would collide in the per-part join
        shared = set(left_cols) & set(right_cols)
        if shared:
            raise ValueError(f"hash_keys: columns on both sides: {sorted(shared)}")

    def join2(tables: list[pa.Table], join_keys: list[str]) -> pa.Table:
        lhs, rhs = tables
        return lhs.join(rhs, keys=join_keys, join_type="inner", use_threads=False)

    return exchange(
        [(left, left_cols), (right, right_cols)], keys, join2, num_parts,
        col_types=col_types, hash_keys=hash_keys,
    )


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
    keep_part_column: bool = False,
) -> Dataset:
    """Grouped computation WITHOUT per-group Python overhead: one
    `exchange` on `key_columns`, then `fn` once per PART with a pandas
    DataFrame of complete groups — `fn` does its own vectorized
    `pdf.groupby(...)`. The part key hashes ALL key columns, so a
    skewed single column only skews if one exact key dominates — for
    that case raise num_parts or pre-salt (`salted_aggregate`). A
    combiner (per-batch pre-reduction) is a `map_batches` on `ds`: it
    runs in `ds`'s own execution, which the exchange streams once."""

    def apply_part(tables: list[pd.DataFrame], _keys) -> pd.DataFrame:
        (part,) = tables
        return fn(part if keep_part_column else part.drop(columns=["__part"]))

    return exchange(
        [(ds, None)], key_columns, apply_part, num_parts, batch_format="pandas"
    )


def distinct_rows(
    ds: Dataset,
    columns: list[str],
    num_parts: int = 32,
    keep_part_column: bool = False,
) -> Dataset:
    """Exact distinct on `columns` (G6; SURVEY §2.7): per-batch
    combiner pre-dedup, then one `exchange` keyed on ALL columns, so
    hub values in one column can't skew partitions. `keep_part_column`
    exposes the deterministic partition id (`__part`) to downstream
    sinks for stable part-file naming.

    Arrow end to end when `columns` covers every payload column (all
    the hot callers — the output dedups): both the combiner and the
    per-part dedup run Arrow's hash group-by. Otherwise both fall back
    to drop_duplicates to keep the non-key columns."""

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
            return _arrow_distinct(batch, columns)
        return pa.Table.from_pandas(
            batch.to_pandas().drop_duplicates(columns), preserve_index=False
        ).replace_schema_metadata(None)

    def per_part(tables: list[pa.Table], _keys) -> pa.Table:
        (t,) = tables
        if all(c in columns or c == "__part" for c in t.column_names):
            # __part is a pure function of the key columns, so keying
            # on it too changes nothing and keeps it in the output
            out = _arrow_distinct(t, columns + ["__part"])
        else:
            out = pa.Table.from_pandas(
                t.to_pandas().drop_duplicates(columns),
                preserve_index=False,
            )
        if not keep_part_column:
            out = out.drop_columns(["__part"])
        return out

    return exchange(
        [(ds.map_batches(pre, batch_format="pyarrow"), None)],
        columns, per_part, num_parts,
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

