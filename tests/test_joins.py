"""The one hash exchange (`joins.exchange`) and the operators on it.

copartition_join's hash-keyed (128-bit digest) form build_dist uses must
be row-set-identical to the plain string-keyed exchange on every shape
that occurs at the call sites (PERF_NOTES #38). The block-schema cases
the exchange normalizes (empty null-typed blocks, large_string columns,
null-padded pandas payloads) are pinned here, as is the part id the
output sinks name their files by."""

import numpy as np
import pandas as pd
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st


def _ray_ds(df):
    import ray.data

    return ray.data.from_pandas(df)


@pytest.fixture(scope="module")
def join_inputs(ray_session):
    rng = np.random.default_rng(7)
    n = 5_000
    cfgs = [f"c{i}_P{i}" for i in range(40)]
    left = pd.DataFrame(
        {
            "cfg": rng.choice(cfgs, n),
            "statement": [
                f"<http://www.wikidata.org/entity/statement/Q{i % 1800}-{i % 7}>"
                for i in range(n)
            ],
            "subject": [f"<http://ex.org/s{i % 900}>" for i in range(n)],
        }
    ).drop_duplicates(["cfg", "statement"])
    # right covers ~60% of left keys plus keys absent from left
    right = left.sample(frac=0.6, random_state=3)[["cfg", "statement"]].copy()
    right["object"] = [f"<http://ex.org/o{i}>" for i in range(len(right))]
    right["extras"] = ""
    extra = pd.DataFrame(
        {
            "cfg": ["c1_P1"] * 50,
            "statement": [f"<http://ex.org/missing{i}>" for i in range(50)],
            "object": "x",
            "extras": "",
        }
    )
    right = pd.concat([right, extra], ignore_index=True)
    return left, right


def _canon(df, cols):
    return set(map(tuple, df[cols].itertuples(index=False)))


def _arrow(ds):
    """One Arrow table of every non-empty output block."""
    import pyarrow as pa
    import ray

    blocks = ray.get(ds.materialize().to_arrow_refs())
    return pa.concat_tables([b for b in blocks if b.num_rows])


def test_hash_keyed_join_matches_plain(join_inputs):
    from yago4_ray.joins import copartition_join

    left, right = join_inputs
    plain = copartition_join(
        _ray_ds(left),
        _ray_ds(right),
        on=("cfg", "statement"),
        left_cols=["cfg", "statement", "subject"],
        right_cols=["cfg", "statement", "object", "extras"],
        num_parts=8,
    ).to_pandas()
    hashed = copartition_join(
        _ray_ds(left),
        _ray_ds(right),
        on=("cfg", "statement"),
        left_cols=["cfg", "statement", "subject"],
        right_cols=["object", "extras"],
        num_parts=8,
        hash_keys=True,
    ).to_pandas()
    cols = ["cfg", "statement", "subject", "object", "extras"]
    assert _canon(hashed, cols) == _canon(plain, cols)
    assert len(hashed) == len(plain)


def test_hash_keyed_semi_join(join_inputs):
    """right_cols=[] — the build_dist semi-join form: output rows are
    exactly the left rows whose key exists on the (unique-keyed) right."""
    from yago4_ray.joins import copartition_join

    left, right = join_inputs
    members = right.drop_duplicates(["cfg", "statement"])
    got = copartition_join(
        _ray_ds(left),
        _ray_ds(members),
        on=("cfg", "statement"),
        left_cols=["cfg", "statement", "subject"],
        right_cols=[],
        num_parts=8,
        hash_keys=True,
    ).to_pandas()
    keys = set(map(tuple, members[["cfg", "statement"]].itertuples(index=False)))
    want = left[
        [t in keys for t in map(tuple, left[["cfg", "statement"]].itertuples(index=False))]
    ]
    cols = ["cfg", "statement", "subject"]
    assert _canon(got, cols) == _canon(want, cols)
    assert len(got) == len(want)


def test_hash_keys_rejects_shared_columns(join_inputs):
    from yago4_ray.joins import copartition_join

    left, right = join_inputs
    with pytest.raises(ValueError, match="both sides"):
        copartition_join(
            _ray_ds(left),
            _ray_ds(right),
            on=("cfg", "statement"),
            left_cols=["cfg", "statement", "subject"],
            right_cols=["cfg", "statement", "object", "extras"],
            hash_keys=True,
        )


def test_hash_keys_rejects_null_keys(ray_session):
    """Digest keys would give null keys equal digests on both sides and
    join them, unlike the plain path's SQL semantics; a null join key
    under hash_keys=True must raise, also under `python -O`."""
    from yago4_ray.joins import copartition_join

    left = pd.DataFrame({"k": ["a", None, "c"], "x": ["1", "2", "3"]})
    right = pd.DataFrame({"k": ["a", None], "y": ["p", "q"]})
    # the ValueError is raised in a worker task; Ray re-raises it in
    # the calling process wrapped, with the worker's traceback in the
    # message
    with pytest.raises(Exception) as err:
        copartition_join(
            _ray_ds(left), _ray_ds(right), "k", ["k", "x"], ["y"], hash_keys=True
        ).materialize()
    assert "ValueError: hash_keys join requires non-null keys" in str(err.value)


def test_hash_keys_rejects_shared_columns_under_optimize():
    """The shared-column invariant is a raise, not an `assert`: it must
    hold under `python -O` too. The check runs before either side is
    touched, so no Ray session is needed."""
    import pathlib
    import subprocess
    import sys

    code = (
        "from yago4_ray.joins import copartition_join\n"
        "try:\n"
        "    copartition_join(None, None, 'k', ['k', 'x'], ['k', 'y'], hash_keys=True)\n"
        "except ValueError as e:\n"
        "    print('raised:', e)\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True,
        timeout=120, cwd=pathlib.Path(__file__).resolve().parent.parent,
    )
    assert "raised: hash_keys: columns on both sides: ['k']" in out.stdout, (
        out.stdout + out.stderr
    )


def test_broadcast_cache_evicts_least_recently_used(ray_session):
    """A worker process outlives many builds, so its broadcast cache must
    stay bounded: past the capacity the least recently used entry goes
    (its pinned object-store buffers with it), and a cached entry that
    is read again is kept."""
    import ray

    from yago4_ray import joins

    joins._BROADCAST_CACHE.clear()
    cap = joins._BROADCAST_CACHE_SIZE
    refs = [ray.put(i) for i in range(cap + 8)]
    try:
        assert joins.get_broadcast(refs[0]) == 0
        for i, ref in enumerate(refs[1:], start=1):
            assert joins.get_broadcast(ref) == i
            joins.get_broadcast(refs[0])  # keep the first one hot
        assert len(joins._BROADCAST_CACHE) == cap
        assert refs[0].hex() in joins._BROADCAST_CACHE
        assert refs[1].hex() not in joins._BROADCAST_CACHE
        assert refs[-1].hex() in joins._BROADCAST_CACHE
        assert joins.get_broadcast(refs[1]) == 1  # evicted: fetched again
    finally:
        joins._BROADCAST_CACHE.clear()


def test_broadcast_cache_bounded_under_concurrent_readers(
    ray_session, run_concurrently
):
    """Threads reading broadcasts at once (each a hit on a shared ref
    and a miss on its own) never leave the cache above its capacity
    and always get each ref's own value."""
    import itertools
    import threading

    import ray

    from yago4_ray import joins

    joins._BROADCAST_CACHE.clear()
    cap = joins._BROADCAST_CACHE_SIZE
    shared = ray.put("shared")
    refs = [ray.put(i) for i in range(4 * cap)]
    counter = itertools.count()
    lock = threading.Lock()

    def read() -> bool:
        ok = True
        for _ in range(cap):
            with lock:
                i = next(counter) % len(refs)
            ok &= joins.get_broadcast(refs[i]) == i
            ok &= joins.get_broadcast(shared) == "shared"
        return ok

    try:
        assert all(run_concurrently(read))
        assert len(joins._BROADCAST_CACHE) <= cap
    finally:
        joins._BROADCAST_CACHE.clear()


def test_one_exchange_implementation():
    """`joins.exchange` is the engine's one shuffle: no module groups on
    `__part` (a Ray Data sort shuffle), no module but joins.py calls
    `_part_ids`, and the exchange's map and reduce remote functions are
    defined once, in joins.py: every grouped, joined and deduplicated
    operator shares its tagging, schema handling and task plan."""
    import pathlib
    import re

    from ray.remote_function import RemoteFunction

    from yago4_ray import joins

    pkg = pathlib.Path(__file__).resolve().parent.parent / "yago4_ray"
    texts = {
        str(path.relative_to(pkg)): path.read_text()
        for path in sorted(pkg.rglob("*.py"))
    }
    groupby = re.compile(r"""groupby\(\s*["']__part["']""")
    assert not [p for p, text in texts.items() if groupby.search(text)]
    assert not [
        p for p, text in texts.items() if p != "joins.py" and "_part_ids" in text
    ]
    for fn in ("_exchange_map", "_exchange_reduce"):
        defined = [
            p for p, text in texts.items()
            for _ in re.finditer(rf"^def {fn}\(", text, re.M)
        ]
        assert defined == ["joins.py"], (fn, defined)
        assert isinstance(getattr(joins, fn), RemoteFunction), fn


def test_empty_null_typed_block_through_one_side_exchanges(ray_session):
    """An empty upstream block surfaces its columns as null type; it
    must not break the dedup or the grouped apply beside string blocks."""
    import pyarrow as pa
    import ray.data

    from yago4_ray.joins import distinct_rows, partitioned_group_apply

    empty = pa.table({"k": pa.nulls(0), "v": pa.nulls(0)})
    rows = pa.table({"k": ["a", "a", "b"], "v": ["1", "1", "2"]})
    ds = ray.data.from_arrow([empty, rows])
    got = distinct_rows(ds, ["k", "v"], num_parts=4).to_pandas()
    assert _canon(got, ["k", "v"]) == {("a", "1"), ("b", "2")}
    assert len(got) == 2
    sizes = partitioned_group_apply(
        ds, ["k"], lambda pdf: pdf.groupby("k", as_index=False).size(),
        num_parts=4,
    ).to_pandas()
    assert dict(zip(sizes["k"], sizes["size"])) == {"a": 2, "b": 1}


def test_copartition_join_empty_side_and_large_string(ray_session):
    """A large_string column (a concat artifact) and an all-empty,
    null-typed side share the exchange with string blocks; the output
    carries plain strings."""
    import pyarrow as pa
    import ray.data

    from yago4_ray.joins import copartition_join

    left = ray.data.from_arrow(pa.table({
        "k": pa.array(["a", "b", "c"], pa.large_string()),
        "x": pa.array(["1", "2", "3"], pa.large_string()),
    }))
    empty = ray.data.from_arrow(pa.table({"k": pa.nulls(0), "y": pa.nulls(0)}))
    right = ray.data.from_arrow([
        pa.table({"k": pa.nulls(0), "y": pa.nulls(0)}),
        pa.table({"k": ["a", "c", "d"], "y": ["p", "q", "r"]}),
    ])
    got = _arrow(copartition_join(
        left, right, "k", ["k", "x"], ["k", "y"], num_parts=4
    ))
    assert got.schema.field("x").type == pa.string()
    assert _canon(got.to_pandas(), ["k", "x", "y"]) == {
        ("a", "1", "p"), ("c", "3", "q")
    }
    assert copartition_join(
        left, empty, "k", ["k", "x"], ["k", "y"], num_parts=4
    ).count() == 0


def test_asof_join_int_payload(ray_session):
    """The left side pads the right payload with pd.NA (a null-typed
    Arrow column beside the right side's int64): the one-side exchange
    must ship both as they are."""
    import ray.data

    from yago4_ray.dataops.temporal import asof_join

    left = ray.data.from_pandas(pd.DataFrame({
        "k": [1, 1, 2, 3], "t": [10, 25, 5, 7], "payload": ["a", "b", "c", "d"],
    }))
    right = ray.data.from_pandas(pd.DataFrame({
        "k": [1, 1, 2], "t": [8, 20, 9], "qty": [5, 7, 9],
    }))
    out = asof_join(
        left, right, by="k", on="t", left_columns=["payload"],
        right_columns=["qty"], num_parts=4,
    ).to_pandas().sort_values(["k", "t"]).reset_index(drop=True)
    assert list(out["payload"]) == ["a", "b", "c", "d"]
    assert list(out["qty_right"].fillna(-1).astype(int)) == [5, 7, -1, -1]


def test_distinct_rows_part_column_is_the_key_hash(ray_session):
    """The output sinks name part files by `__part`: it must be the
    polars key hash of the row's columns, whatever block a row came in."""
    import pyarrow as pa
    import ray.data

    from yago4_ray.joins import _part_ids, distinct_rows

    rows = pd.DataFrame({
        "subject": [f"<s{i % 37}>" for i in range(300)],
        "predicate": [f"<p{i % 5}>" for i in range(300)],
        "object": [f"<o{i % 11}>" for i in range(300)],
    })
    cols = ["subject", "predicate", "object"]
    got = _arrow(distinct_rows(
        ray.data.from_pandas([rows[:150], rows[150:]]), cols, num_parts=8,
        keep_part_column=True,
    ))
    assert got.num_rows == len(rows.drop_duplicates())
    want = _part_ids(got.select(cols), cols, 8)
    assert got.column("__part").combine_chunks().equals(want)


_KEYS = [f"<http://ex.org/k{i}>" for i in range(12)]


@settings(
    max_examples=15, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    rows=st.lists(
        st.tuples(st.sampled_from(_KEYS), st.integers(0, 5)), max_size=60
    ),
    blocks=st.sampled_from([1, 3, 17]),
    num_parts=st.sampled_from([1, 4, 32]),
    tag_batch_size=st.sampled_from([None, 2]),
    pandas_fn=st.booleans(),
    empty_block=st.booleans(),
)
@example(rows=[], blocks=1, num_parts=1, tag_batch_size=None,
         pandas_fn=False, empty_block=True)
@example(rows=[(_KEYS[0], 0)], blocks=17, num_parts=32, tag_batch_size=2,
         pandas_fn=True, empty_block=True)
@example(rows=[(k, i % 3) for i, k in enumerate(_KEYS * 4)], blocks=3,
         num_parts=4, tag_batch_size=None, pandas_fn=False, empty_block=False)
@example(rows=[(k, 1) for k in _KEYS] * 2, blocks=17, num_parts=32,
         tag_batch_size=None, pandas_fn=True, empty_block=False)
@example(rows=[(_KEYS[1], 2), (_KEYS[3], 0)], blocks=3, num_parts=4,
         tag_batch_size=None, pandas_fn=False, empty_block=False)
def test_exchange_rows_per_part_independent_of_blocking(
    ray_session, rows, blocks, num_parts, tag_batch_size, pandas_fn,
    empty_block,
):
    """However its input is blocked and bundled, the exchange calls the
    part function once per part with exactly that part's rows (one side,
    Arrow or pandas), joins two hash-keyed sides per part as pandas
    merges them, and returns no block without the part function's
    columns, also past a null-typed empty block. A 0-row block only
    stands alone: it keeps the columns when no part yields a row."""
    import pyarrow as pa
    import ray
    import ray.data

    from yago4_ray.joins import _part_ids, exchange

    df = pd.DataFrame(rows, columns=["k", "v"]).astype({"k": object, "v": str})
    tables = [
        pa.Table.from_pandas(df.iloc[idx], preserve_index=False).cast(
            pa.schema([("k", pa.string()), ("v", pa.string())])
        )
        for idx in np.array_split(np.arange(len(df)), blocks)
    ]
    if empty_block:
        tables.insert(0, pa.table({"k": pa.nulls(0), "v": pa.nulls(0)}))
    left = ray.data.from_arrow(tables)

    def summary(k, v, part):
        out = pd.DataFrame({"k": k, "v": v, "part": part})
        return out.groupby("k", as_index=False).agg(
            n=("v", "size"), vs=("v", lambda s: ",".join(sorted(s))),
            part=("part", "first"), parts=("part", "nunique"),
        )

    def per_part(tables, _keys):
        (t,) = tables
        if pandas_fn:
            return summary(t["k"], t["v"], t["__part"])
        got = summary(
            t["k"].to_pylist(), t["v"].to_pylist(), t["__part"].to_pylist()
        )
        return pa.Table.from_pandas(got, preserve_index=False)

    def check_blocks(blocks_out, cols):
        assert all(sorted(b.column_names) == sorted(cols) for b in blocks_out)
        assert all(b.num_rows for b in blocks_out) or len(blocks_out) == 1
        if len(df):  # a part function ran, so its columns are known
            assert blocks_out

    cols = ["k", "n", "vs", "part", "parts"]
    one_side = exchange(
        [(left, None)], ["k"], per_part, num_parts,
        batch_format="pandas" if pandas_fn else "pyarrow",
        tag_batch_size=tag_batch_size,
    )
    blocks_out = ray.get(one_side.to_arrow_refs())
    check_blocks(blocks_out, cols)
    got = sorted(
        tuple(r) for b in blocks_out for r in b.to_pandas()[cols].itertuples(index=False)
    )
    want = summary(df["k"], df["v"], 0).drop(columns=["part"])
    want["part"] = (
        _part_ids(pa.table({"k": want["k"].astype(str)}), ["k"], num_parts)
        .to_numpy() if len(want) else []
    )
    want["parts"] = 1
    assert got == sorted(tuple(r) for r in want[cols].itertuples(index=False))

    right_df = pd.DataFrame({"k": _KEYS[::2], "y": [f"y{i}" for i in range(6)]})
    right = ray.data.from_arrow(pa.Table.from_pandas(right_df, preserve_index=False))

    def join(tables, keys):
        lhs, rhs = tables
        return lhs.join(rhs, keys=keys, join_type="inner", use_threads=False)

    joined = exchange(
        [(left, ["k", "v"]), (right, ["y"])], ["k"], join, num_parts,
        hash_keys=True, tag_batch_size=tag_batch_size,
    )
    blocks_out = ray.get(joined.to_arrow_refs())
    check_blocks(blocks_out, ["k", "v", "y"])
    got = sorted(
        tuple(r) for b in blocks_out
        for r in b.to_pandas()[["k", "v", "y"]].itertuples(index=False)
    )
    want = df.merge(right_df, on="k")[["k", "v", "y"]]
    assert got == sorted(tuple(r) for r in want.itertuples(index=False))
