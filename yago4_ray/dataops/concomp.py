"""Distributed connected components over an undirected edge list.

Closes the one non-distributed step the near-dup pipeline had: the
final clustering of verified near-dup pairs ran a union-find ON THE
DRIVER, whose memory grew with the duplicate count (at a 20-30 %-dup
web crawl that is O(corpus)). Here the edge set stays a Dataset end to
end; the driver holds only a round counter and one 16-byte
(count, hash-sum) checksum per round.

Algorithm: alternating large-star / small-star rounds (Kiveris,
Lattanzi, Mirrokni, Rastogi, Vassilvitskii — "Connected Components in
MapReduce and Beyond", SoCC'14). Each round is ONE `joins.exchange`
keyed on node `a` (through `partitioned_group_apply`) with a vectorized
pandas kernel over complete node groups; the alternation converges in
O(log n) rounds to a star forest rooted at each component's MINIMUM
node — exactly the min-label clusters the DuckDB recursive-CTE oracle
computes.

Edges are kept canonically oriented (a > b) between rounds; the
per-batch prep and the kernels emit Arrow with EXPLICIT id types, so
empty blocks and partitions can't degrade the shuffle schema.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ray.data import Dataset

from ..joins import partitioned_group_apply, partitions_for_nbytes


def _empty(id_type: pa.DataType) -> pa.Table:
    return pa.table(
        {"a": pa.array([], id_type), "b": pa.array([], id_type)}
    )


def _to_arrow(df: pd.DataFrame, id_type: pa.DataType) -> pa.Table:
    if len(df) == 0:
        return _empty(id_type)
    return pa.table(
        {
            "a": pa.array(df["a"].to_numpy(), id_type, from_pandas=True),
            "b": pa.array(df["b"].to_numpy(), id_type, from_pandas=True),
        }
    )


def _star_round(
    edges: Dataset, large: bool, num_parts: int, id_type: pa.DataType
) -> Dataset:
    """One star operation as one exchange: per-batch prep (symmetrize
    for large-star; small-star inputs are already (a > b)-oriented, so
    groups by `a` see the full "smaller neighbourhood"), hash-partition
    on `a`, then a vectorized per-PART kernel over complete groups."""

    def prep(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _empty(id_type)
        if large:
            # symmetrize: every node sees its full neighbourhood
            a = pa.chunked_array([t["a"], t["b"]]).combine_chunks()
            b = pa.chunked_array([t["b"], t["a"]]).combine_chunks()
            return pa.table({"a": a, "b": b})
        return t.select(["a", "b"])

    def large_kernel(part: pd.DataFrame) -> pa.Table:
        # for each node u (column a): m = min(N(u) ∪ {u});
        # emit (v, m) for every neighbour v > u
        if len(part) == 0:
            return _empty(id_type)
        gmin = part.groupby("a")["b"].transform("min")
        m = gmin.where(gmin < part["a"], part["a"])
        sel = (part["b"] > part["a"]).to_numpy()
        out = pd.DataFrame(
            {"a": part["b"][sel].to_numpy(), "b": m[sel].to_numpy()}
        ).drop_duplicates()
        return _to_arrow(out, id_type)

    def small_kernel(part: pd.DataFrame) -> pa.Table:
        # edges oriented a > b: for each node u (column a) over its
        # smaller neighbours N = {b}: m = min(N); emit (v, m) for
        # v ∈ N ∪ {u}, v ≠ m
        if len(part) == 0:
            return _empty(id_type)
        gmin = part.groupby("a")["b"].transform("min")
        sel = (part["b"] != gmin).to_numpy()
        emit1 = pd.DataFrame(
            {"a": part["b"][sel].to_numpy(), "b": gmin[sel].to_numpy()}
        )
        emit2 = pd.DataFrame({"a": part["a"], "b": gmin}).drop_duplicates(
            "a"
        )
        out = pd.concat([emit1, emit2], ignore_index=True).drop_duplicates()
        return _to_arrow(out, id_type)

    return partitioned_group_apply(
        edges.map_batches(prep, batch_format="pyarrow"), ["a"],
        large_kernel if large else small_kernel, num_parts=num_parts,
    )


def _checksum(edges: Dataset) -> tuple[int, int]:
    """(row count, 64-bit row-hash sum) of the edge multiset — computed
    per block in the cluster; the driver sums num_blocks tiny rows.
    Used only for fixpoint detection: at the star-forest fixpoint each
    round re-emits every edge exactly once, so consecutive unchanged
    checksums ⇔ both star operators fix the set."""

    def cs(t: pa.Table) -> pa.Table:
        import polars as pl

        if t.num_rows == 0:
            h = np.uint64(0)
        else:
            h = (
                pl.from_arrow(t.select(["a", "b"]))
                .hash_rows(seed=7)
                .to_numpy()
                .sum(dtype=np.uint64)
            )
        return pa.table(
            {
                "n": pa.array([t.num_rows], pa.int64()),
                "s": pa.array([h], pa.uint64()),
            }
        )

    rows = edges.map_batches(cs, batch_format="pyarrow").take_all()
    n = sum(r["n"] for r in rows)
    s = sum(int(r["s"]) for r in rows) % (1 << 64)
    return n, s


def _cc_union_find(tbl: pa.Table, id_type: pa.DataType) -> pa.Table:
    """Min-label components of one in-memory oriented edge table,
    vectorized (Shiloach–Vishkin-style hook + pointer-jumping — no
    per-edge Python loop; O(E log V) numpy element ops). numpy
    factorization keeps the work over int indices; np.unique's
    ascending order makes 'minimum node' identical to the star rounds'
    Arrow `<` (both are bytewise for UTF-8 strings)."""
    a = tbl["a"].to_numpy(zero_copy_only=False)
    b = tbl["b"].to_numpy(zero_copy_only=False)
    nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    ea, eb = inv[: len(a)], inv[len(a):]
    parent = np.arange(len(nodes), dtype=np.int64)
    while True:
        prev = parent.copy()
        # hook: each edge pulls the larger endpoint-root toward the
        # smaller (elementwise minima; duplicates fold via minimum.at)
        ra, rb = parent[ea], parent[eb]
        lo = np.minimum(ra, rb)
        hi = np.maximum(ra, rb)
        np.minimum.at(parent, hi, lo)
        # shortcut: pointer-jump until the forest is flat
        while True:
            nxt = parent[parent]
            if np.array_equal(nxt, parent):
                break
            parent = nxt
        if np.array_equal(parent, prev):
            break
    return pa.table(
        {
            "a": pa.array(nodes, id_type, from_pandas=True),
            "b": pa.array(nodes[parent], id_type, from_pandas=True),
        }
    )


def _cc_single_task_impl(id_type_str: str, *blocks):
    import pyarrow as _pa

    id_type = {
        "string": _pa.string(),
        "large_string": _pa.large_string(),
        "int64": _pa.int64(),
        "int32": _pa.int32(),
        "uint64": _pa.uint64(),
    }.get(id_type_str, _pa.string())
    # to_arrow_refs hands blocks through AS STORED: a pipeline whose
    # upstream ever produced a pandas block (Ray may keep empty/
    # fallback blocks in pandas form) delivers DataFrames here —
    # coerce per block (observed intermittently on the minhash
    # verified-pairs input)
    tables = [
        b
        if isinstance(b, _pa.Table)
        else _pa.Table.from_pandas(b, preserve_index=False)
        for b in blocks
    ]
    tables = [
        t.replace_schema_metadata(None) if t.schema.metadata else t
        for t in tables
    ]
    tbl = _pa.concat_tables(
        tables, promote_options="permissive"
    ).combine_chunks()
    return _cc_union_find(tbl, id_type)


def id_type_of(schema, column: str = "a") -> pa.DataType:
    """Arrow id type from a Ray Dataset schema (Arrow or pandas-block),
    defaulting to string for object/unknown dtypes and for no schema
    (an empty Dataset)."""
    if schema is None:
        return pa.string()
    base = getattr(schema, "base_schema", schema)
    if hasattr(base, "field"):  # pyarrow schema
        t = base.field(column).type
        return pa.string() if pa.types.is_null(t) else t
    dtype = dict(zip(base.names, base.types)).get(column)
    try:
        return pa.from_numpy_dtype(dtype)
    except (pa.ArrowNotImplementedError, TypeError):
        return pa.string()


def connected_components_min_label(
    pairs: Dataset,
    max_rounds: int = 64,
    id_type: pa.DataType | None = None,
    small_cap: int = 8 << 20,
) -> Dataset:
    """(node, label) rows — label = the MINIMUM node of the connected
    component — for every node appearing in `pairs` (columns a, b),
    including the component roots themselves. Output columns: a = node,
    b = label. Everything stays distributed; per-round cost is one
    hash exchange over the (shrinking) edge set, sized by the oriented
    edges' volume (`partitions_for_nbytes`).

    `id_type` pins the Arrow id type so all-empty blocks can't degrade
    the shuffle schema; when omitted it is read from the input schema
    (which may trigger partial execution of a lazy input)."""
    if id_type is None:
        id_type = id_type_of(pairs.schema())

    def orient(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if t.schema.metadata:
            t = t.replace_schema_metadata(None)
        if t.num_rows == 0:
            return _empty(id_type)
        a, b = t["a"].combine_chunks(), t["b"].combine_chunks()
        hi = pc.if_else(pc.greater(a, b), a, b)
        lo = pc.if_else(pc.greater(a, b), b, a)
        out = pa.table({"a": hi.cast(id_type), "b": lo.cast(id_type)})
        return out.filter(pc.not_equal(out["a"], out["b"]))

    edges = pairs.map_batches(orient, batch_format="pyarrow").materialize()
    cs = _checksum(edges)
    if cs[0] == 0:
        import ray.data

        return ray.data.from_arrow(_empty(id_type))
    # volume gate (the repo-wide discipline: broadcast/single-task under
    # an explicit constant cap, distributed above — both paths
    # pytest-identical): a small verified edge set closes in ONE remote
    # union-find task, skipping O(log n) exchange+materialize round
    # floors (~0.3-0.5 s each; the whole star loop is floor-bound at
    # bench scale). No edge transits the driver either way — the task
    # reads the oriented blocks from the object store.
    if (edges.size_bytes() or 0) <= small_cap:
        import ray
        import ray.data

        task = ray.remote(num_cpus=1)(_cc_single_task_impl)
        out_ref = task.remote(str(id_type), *edges.to_arrow_refs())
        return ray.data.from_arrow_refs([out_ref])
    num_parts = partitions_for_nbytes(edges.size_bytes() or 0)
    streak = 0
    rounds = 0
    while streak < 2:
        if rounds >= max_rounds:
            raise RuntimeError(
                f"connected components did not converge in {max_rounds} "
                "rounds — pathological input or a kernel bug"
            )
        edges = _star_round(
            edges, large=(rounds % 2 == 0), num_parts=num_parts,
            id_type=id_type,
        ).materialize()
        nxt = _checksum(edges)
        streak = streak + 1 if nxt == cs else 0
        cs = nxt
        rounds += 1
    # fixpoint: edges are (node, root) stars; add (root, root) rows so
    # every member — including each component's minimum — gets a label
    from ..joins import distinct_rows

    roots = distinct_rows(
        edges.map_batches(
            lambda t: pa.table({"a": t["b"], "b": t["b"]}),
            batch_format="pyarrow",
        ),
        ["a", "b"],
        num_parts=num_parts,
    )
    return edges.union(roots)
