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
  function one Arrow table per side, once per part. Joins
  (`copartition_join` and the build's N-way part functions),
  decomposable grouped aggregates (`aggregate`: one Arrow `group_by`
  per block, one more per part), exact dedups (`distinct_rows`, the
  aggregate without aggregates), connected-component rounds and the
  statement-store clustering all run on it. `partitioned_group_apply`
  is the one pandas adapter: its part function sees a DataFrame, the
  exchange only Arrow.

Exact dedup of triples hash-partitions on the *full* (s,p,o) key, so hub
subjects (Q5-class entities) spread across partitions by construction —
no salting needed there. maxCount ships the statement join's rows
keyed on the mapped subject alone (build._apply_max_count): a subject's
fact count is bounded, so a hub object cannot skew it.
Join keys that range over object items (the build's item join) are
skew-prone; ROADMAP item 10 salts them inside `exchange`.

Stages hand each other `Blocks`, not Datasets: the block refs of a
result of the engine's own tasks plus, per block, the rows, bytes and
schema the producing task returned beside it (`num_returns`). The
exchange's reduce tasks, `map_blocks`' tasks and the store's read
tasks (`sources.scan_predicate`) are those producers, so reading a
result's sizes or handing it to the next stage starts no task, and no
Ray Data `Dataset` (a stats-actor round trip per construction, a
metadata task per block under `from_arrow_refs`) is built between
stages. `Blocks.materialize()` is the one Dataset edge, for the
queries, the dataops and the ingest's write.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, NamedTuple, Sequence

import numpy as np
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
# The handle build stages hand each other
# ---------------------------------------------------------------------------

class BlockMeta(NamedTuple):
    """What a producing task returns beside its block: the rows, the
    Arrow bytes of the block as the object store holds it (what Ray
    Data reports as the block's size) and the schema. A block without
    columns is an empty reducer's."""

    rows: int
    nbytes: int
    schema: pa.Schema


def block_meta(t: pa.Table) -> BlockMeta:
    """`t`'s `BlockMeta`. Ray's Arrow serializer stores no validity
    bitmap for an array without nulls (a filtered parquet read
    allocates them), so those bitmaps' bytes are not counted."""
    nbytes = t.nbytes
    for col in t.columns:
        for a in col.chunks:
            bitmap, *rest = a.buffers()
            if (
                bitmap is not None and not a.null_count and not a.type.num_fields
                and not pa.types.is_dictionary(a.type)
            ):
                nbytes -= a.nbytes - pa.Array.from_buffers(
                    a.type, len(a), [None, *rest], 0, a.offset
                ).nbytes
    return BlockMeta(t.num_rows, nbytes, t.schema)


class Blocks:
    """A materialized result of the engine's own tasks: Arrow block refs
    in order and, per block, the `BlockMeta` its task returned. Reading
    it starts no task; `materialize()` is the one Dataset edge."""

    def __init__(self, refs: list, meta: list[BlockMeta]):
        self.refs = list(refs)
        self.meta = list(meta)

    @classmethod
    def of(cls, *tables: pa.Table) -> "Blocks":
        """Driver-built tables, each put once."""
        return cls([ray.put(t) for t in tables], [block_meta(t) for t in tables])

    def count(self) -> int:
        return sum(m.rows for m in self.meta)

    def size_bytes(self) -> int:
        return sum(m.nbytes for m in self.meta)

    def schema(self) -> pa.Schema | None:
        """The first block schema with columns; None when none has any."""
        return next((m.schema for m in self.meta if len(m.schema)), None)

    def materialize(self) -> MaterializedDataset:
        """The blocks as a Ray Data Dataset, for a public caller."""
        # from_arrow_refs does not mark its plan executed: materialize()
        # does (no execution), so no consumer's to_arrow_refs starts one
        return ray.data.from_arrow_refs(self.refs).materialize()


def _blocks_of(ds: "Blocks | Dataset"):
    """(ref, rows, schema | None) of every block of `ds` in order. A
    Dataset (a public caller's) streams its bundles: a materialized one
    yields its refs, a lazy one runs once."""
    if isinstance(ds, Blocks):
        yield from ((ref, m.rows, m.schema) for ref, m in zip(ds.refs, ds.meta))
        return
    if isinstance(ds, MaterializedDataset):
        # a from_arrow_refs/from_pandas plan is not marked executed, so
        # iterating it starts a bare Input execution; materialize()
        # marks it without running anything
        ds = ds.materialize()
    for bundle in ds.iter_internal_ref_bundles():
        schema = None if bundle.schema is None else ray.data.Schema(bundle.schema)
        for ref, meta in bundle.blocks:
            yield ref, meta.num_rows or 0, schema


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
    bytes (`sources.StoreInfo` — codec-invariant; on-disk
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


def _block_groups(
    ds: "Blocks | Dataset", rows_per_group: int | None
) -> tuple[list[list], dict]:
    """`ds`'s block refs in order, adjacent blocks grouped up to
    `rows_per_group` rows (None: one block per group), and the first
    non-null Arrow type each column has in the blocks' schemas. A
    `Blocks` is read as it is, with no task and no Dataset."""
    groups: list[list] = []
    types: dict = {}
    rows = 0
    for ref, n, schema in _blocks_of(ds):
        if schema is not None:
            for name, t in zip(schema.names, schema.types):
                if isinstance(t, pa.DataType) and not pa.types.is_null(t):
                    types.setdefault(name, t)
        if not groups or rows_per_group is None or rows >= rows_per_group:
            groups.append([])
            rows = 0
        groups[-1].append(ref)
        rows += n
    return groups, types


def _concat(tables: list[pa.Table]) -> pa.Table:
    """One table of the rows of `tables`. Empty tables, whose columns an
    upstream may have left null-typed, join only when all are empty."""
    full = [t for t in tables if t.num_rows] or tables[:1]
    if len(full) == 1:
        return full[0]
    return pa.concat_tables(full, promote_options="permissive")


_NO_ROWS = pa.table({"__part": pa.array([], pa.int64())})


@ray.remote
def _exchange_map(fns, source: int, num_reducers: int, num_parts: int, *blocks):
    """One map task of `exchange`: map the rows of adjacent `blocks` of
    input `source` by its function, tag them for its side, sort them by
    `__part` and return one slice per reducer. Reducer r owns the parts
    p with p * num_reducers // num_parts == r."""
    tag, _, inputs = fns
    side, fn = inputs[source]
    tables = [BlockAccessor.for_block(b).to_arrow() for b in blocks]
    # an empty upstream block may hold no column at all
    if fn is not None:
        tables = [fn(b) for b in tables if b.num_rows]
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
    (block, its `BlockMeta`); the block has no column when no part was
    present."""
    _, reduce, _ = fns
    t = _concat(list(slices))
    if not t.num_rows:
        out = pa.table({})
        return out, block_meta(out)
    parts = t["__part"].to_numpy()
    order = np.argsort(parts, kind="stable")
    t = t.take(order)
    bounds = [0, *(np.flatnonzero(np.diff(parts[order])) + 1), t.num_rows]
    out = _concat([reduce(t.slice(a, b - a)) for a, b in zip(bounds, bounds[1:])])
    if out.schema.metadata:
        out = out.replace_schema_metadata(None)
    return out, block_meta(out)


def exchange(
    sides: Sequence[tuple[Blocks | Dataset | list[tuple[Any, Any]], list[str] | None]],
    keys: list[str],
    part_fn,
    num_parts: int,
    col_types: dict | None = None,
    hash_keys: bool = False,
    tag_batch_size: int | None = None,
    part_ids=None,
) -> Blocks:
    """The engine's one hash exchange: tag every row of every side with
    its part id, move each part's rows to one reduce task, and call
    `part_fn(tables, keys)` once per PART with one Arrow table per
    side; it returns an Arrow table.
    Every row of a key lands in one part, so per-key work inside
    `part_fn` (joins, semi-joins, exact dedups, group-wise filters) is
    exact, at one Python call per part rather than per group.

    Part ids are polars `hash_rows(seed=42)` of the `keys` columns mod
    `num_parts` (deterministic across processes: part-file naming
    rests on it); `part_ids(batch)` replaces them (the statement
    store's predicate-crc-plus-subject-salt).

    A side is `(source, cols)`, its source an input or a list of
    `(input, fn | None)` pairs; an input is a `Blocks` (a build stage's
    result) or a Dataset (a public caller's). `fn(pa.Table) -> pa.Table`
    runs in the map tasks, on each non-empty block of its input, before
    the tag: a map costs no task round of its own, and a union of legs
    is one side of several inputs, not a Ray Data union. The input
    functions ship once, with the tag and the part closures.

    A DECLARED side (`cols` a list) ships
    only those columns: null or large_string columns are cast to their
    `col_types` entry (default string), and on a multi-side exchange
    the columns other sides declare travel as typed nulls, so every
    slice of a part concatenates under one schema. A padded column
    with no `col_types` entry takes the non-string type its declaring
    input's blocks carry (a `Blocks`' schemas, a Dataset's bundle
    metadata; an input under a map function: string). Its part table is
    Arrow and holds `cols`. An UNDECLARED side (`cols` None, one-side
    exchanges only) ships its blocks as they are, and its part table
    keeps `__part`. Schema metadata (pandas' dict) is stripped from
    every shipped and returned block. Part tables are Arrow, never
    pandas: object frames would pickle every string, and a caller that
    wants a DataFrame converts inside its part function
    (`partitioned_group_apply`).

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
    part ids the tag step already computed). The driver reads each
    input's block refs and rows (a `Blocks` as it is; a Dataset through
    `iter_internal_ref_bundles`, a lazy one running once; the inputs
    stream concurrently, which measured faster than one after the
    other) and groups adjacent blocks up to `tag_batch_size` rows
    (None: one block per group). One `_exchange_map` task per group maps and tags its
    rows, sorts them by `__part` and returns one slice per reducer
    (`num_returns`).
    There are `min(num_parts, map tasks)` reducers, each owning a
    contiguous range of parts, so the object count is map tasks ×
    reducers and a reducer's block holds many small parts rather than
    one block per part (at benchmark size the statement store writes
    one file per predicate directory). Map tasks start once every input
    has streamed (the reducer count depends on the map count). Each
    `_exchange_reduce` task concatenates its slices and runs `part_fn`
    once per part present and returns its block with the block's rows,
    bytes and schema. The result is a `Blocks` of the reducers that
    returned rows: the call returns once every part is done, and a part
    without rows yields no block. When no part yields rows, one 0-row
    block carries the part function's columns; an exchange with no
    input row at all returns no block (and no schema).

    A part function may write: the output writer's
    (`build.write_outputs`) writes its part's files and returns one
    small row per file written, so the rows it reads never come back
    to the object store.

    Why not `Dataset.join`: Ray's native hash join spawns one
    CPU-reserving aggregator actor per partition per call (~1 s startup
    each); a DAG with a dozen joins oversubscribes a session with idle
    actors and stalls (measured: 28 aggregators deadlocked a 4-CPU
    session). This exchange is pure tasks and composes freely."""
    # the per-part closures see column lists only, never the inputs
    side_cols = [cols for _, cols in sides]
    inputs = [
        (i, ds, fn)
        for i, (source, _) in enumerate(sides)
        for ds, fn in (source if isinstance(source, list) else [(source, None)])
    ]
    multi = len(side_cols) > 1
    declared = list(dict.fromkeys(c for cols in side_cols for c in cols or ()))
    types = dict(col_types or {})
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
        out = part_fn(tables, join_keys)
        if hash_keys:
            out = out.drop_columns([c for c in join_keys if c in out.column_names])
        return out

    with ThreadPoolExecutor(max_workers=len(inputs)) as pool:
        per_input = list(pool.map(
            lambda ds: _block_groups(ds, tag_batch_size), [ds for _, ds, _ in inputs]
        ))
    # a column another side pads, with no col_types entry, pads with
    # the type its own blocks' schemas carry unless that is a string (an
    # input under a map function ships blocks whose types are not known
    # here)
    for (side, _, fn), (_, seen) in zip(inputs, per_input):
        for c in side_cols[side] or ():
            t = seen.get(c)
            if (
                fn is None and t is not None and c not in types
                and not (pa.types.is_string(t) or pa.types.is_large_string(t))
                and any(c not in (cols or ()) for cols in side_cols)
            ):
                types[c] = t
    fns = ray.put((tag, reduce, [(side, fn) for side, _, fn in inputs]))
    groups = [(j, refs) for j, (found, _) in enumerate(per_input) for refs in found]
    del per_input
    num_reducers = min(num_parts, len(groups))
    splits = [
        _exchange_map.options(num_returns=num_reducers).remote(
            fns, source, num_reducers, num_parts, *refs
        )
        for source, refs in groups
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
    out = list(zip([block for block, _ in outs], ray.get([m for _, m in outs])))
    kept = [(block, meta) for block, meta in out if meta.rows]
    if not kept:
        # no part yielded rows: one 0-row block keeps the part
        # function's columns, so the result's schema stays known
        kept = [(block, meta) for block, meta in out if len(meta.schema)][:1]
    return Blocks([block for block, _ in kept], [meta for _, meta in kept])


@ray.remote(num_returns=2)
def _map_block(fn, block: pa.Table):
    """One task of `map_blocks`: (the mapped block, its `BlockMeta`)."""
    out = fn(block)
    return out, block_meta(out)


def map_blocks(blocks: Blocks, fn) -> Blocks:
    """`fn` (pa.Table → pa.Table) over every block of `blocks`, one plain
    Ray task per block: the map of an input that no exchange consumes
    (the fused state scan's routing, generate_yago's output scan). It
    returns once every block is mapped."""
    outs = [_map_block.remote(fn, b) for b in blocks.refs]
    return Blocks([b for b, _ in outs], ray.get([m for _, m in outs]))


def copartition_join(
    left: Blocks | Dataset | list,
    right: Blocks | Dataset | list,
    on: str | tuple[str, ...],
    left_cols: list[str],
    right_cols: list[str],
    num_parts: int = 32,
    col_types: dict | None = None,
    hash_keys: bool = False,
) -> Blocks:
    """Inner equi-join of two exchange sources over one `exchange`,
    joined per part by acero's C++ hash join; the join's `Blocks`.
    `left_cols`/`right_cols` are each side's full column lists (known
    statically at every call site; asking a lazy Dataset would trigger
    execution); non-key columns must
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


# the re-reduction of each aggregate over partials of itself
_REFOLD = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}


def fold(
    t: pa.Table, keys: list[str], aggs: dict, refold: bool = False
) -> pa.Table:
    """One Arrow hash group-by of `t` on `keys` (no key: one row).
    `aggs` maps output column -> (input column, fn), fn in sum, min,
    max or count (rows; its input column is unused). With `refold`,
    `t` holds partials of the same spec (earlier folds' outputs,
    concatenated) and each output column re-reduces its own partials:
    sums of sums and of counts, min of mins, max of maxes. A null key
    is a group of its own. Returns the keys, then `aggs`' columns."""
    if refold:
        specs = [(out, _REFOLD[fn]) for out, (_, fn) in aggs.items()]
    else:
        specs = [
            ([], "count_all") if fn == "count" else (col, fn)
            for col, fn in aggs.values()
        ]
    names = [
        "count_all" if not col else f"{col}_{fn}" for col, fn in specs
    ]
    out = t.group_by(keys, use_threads=False).aggregate(specs)
    return out.select(keys + names).rename_columns(keys + list(aggs))


def string_table(columns: list[str], rows) -> pa.Table:
    """A small constant table of string `rows` (tuples over `columns`),
    such as the right side of the build's per-(family, tag) joins."""
    rows = list(rows)
    return pa.table({
        c: pa.array([r[i] for r in rows], pa.string())
        for i, c in enumerate(columns)
    })


def _arrow_distinct(t: pa.Table, columns: list[str]) -> pa.Table:
    """Exact distinct on `columns`: `fold` with no aggregate, Arrow's
    hash group-by — ~6× faster than a pandas round trip +
    drop_duplicates (no object strings are ever materialized). The
    other columns of `t` are dropped."""
    return fold(t, columns, {})


def aggregate(
    ds: Blocks | Dataset,
    keys: list[str],
    aggs: dict,
    num_parts: int = 32,
) -> Dataset:
    """Decomposable grouped aggregate over one `exchange` keyed on
    `keys`: each block is folded (`fold`) in the exchange's map tasks,
    so a block ships one partial row per group, and each part re-folds
    its partials. `aggs` is `fold`'s spec; no aggregate is an exact
    distinct on `keys` (`distinct_rows`). Returns the keys and the
    aggregates as a materialized Dataset (the dataops' and the
    queries' edge). A null-typed key column (an all-null
    pandas column) groups as string. With no input row the result is
    one 0-row block of those columns, typed from `ds`'s schema (null
    types as string)."""

    def combine(t: pa.Table) -> pa.Table:
        for c in keys:
            if pa.types.is_null(t.schema.field(c).type):
                t = t.set_column(
                    t.schema.get_field_index(c), c, t[c].cast(pa.string())
                )
        return fold(t, keys, aggs)

    def per_part(tables: list[pa.Table], _keys) -> pa.Table:
        (t,) = tables
        return fold(t, keys, aggs, refold=True)

    cols = keys + list(aggs)
    out = exchange([([(ds, combine)], cols)], keys, per_part, num_parts)
    if out.count():
        return out.materialize()
    # no input row, so no part ran: fold an empty table of ds's schema
    schema = ds.schema()
    if schema is None:
        return out.materialize()
    used = set(keys) | {c for c, _ in aggs.values()}
    empty = pa.table({
        n: pa.array([], pa.string() if pa.types.is_null(t) else t)
        for n, t in zip(schema.names, schema.types) if n in used
    })
    return ray.data.from_arrow(
        fold(fold(empty, keys, aggs), keys, aggs, refold=True)
    ).materialize()


def distinct_rows(
    ds: Blocks | Dataset,
    columns: list[str],
    num_parts: int = 32,
) -> Dataset:
    """Exact distinct on `columns` (G6; SURVEY §2.7): `aggregate` with
    no aggregate, so the exchange is keyed on ALL columns and hub
    values in one column can't skew partitions. `columns` must cover
    every column of `ds`."""
    return aggregate(ds, columns, {}, num_parts)


def partitioned_group_apply(
    ds: Dataset,
    key_columns: list[str],
    fn,
    num_parts: int = 32,
) -> Dataset:
    """Grouped computation WITHOUT per-group Python overhead: one
    `exchange` on `key_columns`, then `fn` once per PART with a pandas
    DataFrame of complete groups — `fn` does its own vectorized
    `pdf.groupby(...)`. The engine's one pandas adapter: the part
    table reaches `fn` as a DataFrame and `fn`'s DataFrame goes back
    to Arrow before the exchange sees it; a decomposable aggregate is
    `aggregate`, Arrow end to end. The part key hashes ALL key
    columns, so a skewed single column only skews if one exact key
    dominates (raise num_parts). A combiner (per-batch pre-reduction)
    is a `map_batches` on `ds`: it runs in `ds`'s own execution, which
    the exchange streams once. Returns a materialized Dataset."""

    def apply_part(tables: list[pa.Table], _keys) -> pa.Table:
        (part,) = tables
        pdf = BlockAccessor.for_block(part.drop_columns(["__part"])).to_pandas()
        return BlockAccessor.for_block(fn(pdf)).to_arrow()

    return exchange([(ds, None)], key_columns, apply_part, num_parts).materialize()
