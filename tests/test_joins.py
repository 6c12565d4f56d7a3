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
    ).materialize().to_pandas()
    hashed = copartition_join(
        _ray_ds(left),
        _ray_ds(right),
        on=("cfg", "statement"),
        left_cols=["cfg", "statement", "subject"],
        right_cols=["object", "extras"],
        num_parts=8,
        hash_keys=True,
    ).materialize().to_pandas()
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
    ).materialize().to_pandas()
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


def test_one_aggregate_and_no_ray_data_shuffle_in_source():
    """The build path keeps no pandas part table: build.py,
    build_dist.py, state.py and cleaners.py call no
    `partitioned_group_apply` (their part functions are Arrow, on
    `exchange`). No module imports Ray Data's aggregate functions or
    calls `map_groups`: grouped aggregates are `joins.aggregate` or the
    queries' driver combine."""
    import pathlib
    import re

    pkg = pathlib.Path(__file__).resolve().parent.parent / "yago4_ray"
    texts = {
        str(path.relative_to(pkg)): path.read_text()
        for path in sorted(pkg.rglob("*.py"))
    }
    build_path = ("build.py", "build_dist.py", "state.py", "cleaners.py")
    assert not [
        p for p in build_path if "partitioned_group_apply" in texts[p]
    ]
    agg_import = re.compile(r"ray\.data\.aggregate|from ray\.data import [^\n]*aggregate")
    assert not [p for p, text in texts.items() if agg_import.search(text)]
    assert not [p for p, text in texts.items() if ".map_groups(" in text]


def test_build_path_is_arrow_only_in_source():
    """build.py, build_dist.py and state.py import no pandas and make no
    pandas batch or frame: every map from the store scan to the writer
    is Arrow. The family plan's `_then` has no `batch_format`, and its
    pandas adapter (`_on_pandas`) and accumulator (`_Rows`) are gone."""
    import inspect
    import pathlib
    import re

    from yago4_ray import build_dist

    pkg = pathlib.Path(__file__).resolve().parent.parent / "yago4_ray"
    pandas = re.compile(
        r"^\s*(import pandas|from pandas)|batch_format=\"pandas\"|\.to_pandas\(",
        re.M,
    )
    found = [
        name for name in ("build.py", "build_dist.py", "state.py")
        if pandas.search((pkg / name).read_text())
    ]
    assert not found, found
    assert "batch_format" not in inspect.signature(build_dist._then).parameters
    gone = [name for name in ("_Rows", "_on_pandas") if hasattr(build_dist, name)]
    assert not gone, gone


def test_one_maxcount_implementation():
    """maxCount is one subject-keyed exchange (`build._apply_max_count`):
    no volume cap chooses a second path, and no offender set is
    collected, keyed or probed anywhere in the package."""
    import pathlib

    pkg = pathlib.Path(__file__).resolve().parent.parent / "yago4_ray"
    gone = ("MAXCOUNT_BROADCAST_CAP", "_apply_max_count_exchange",
            "_drop_offenders", "_group_keys")
    found = [
        (str(path.relative_to(pkg)), name)
        for path in sorted(pkg.rglob("*.py"))
        for name in gone if name in path.read_text()
    ]
    assert not found, found


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
    """The two sides are declared sides of one exchange: left rows
    pad the right payload (int64) and right rows the left payload
    (string) with nulls typed from the sides' schemas, so every slice
    of a part concatenates."""
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


def test_written_part_is_the_key_hash(ray_session, tmp_path):
    """The output writer names part files by `__part`: it must be the
    polars hash of the row's output-dedup columns, whatever input and
    block a row came in, and the parts hold each row once."""
    import gzip

    import pyarrow as pa
    import ray.data

    from yago4_ray.build import _OUT_COLS, _output_rows, write_outputs
    from yago4_ray.joins import _part_ids
    from yago4_ray.sources import NTriplesGzWriter

    rows = pd.DataFrame({
        "subject": [f"<s{i % 37}>" for i in range(300)],
        "predicate": [f"<p{i % 5}>" for i in range(300)],
        "object": [f"<o{i % 11}>" for i in range(300)],
    })
    write_outputs(
        [(ray.data.from_pandas([rows[:150], rows[150:]]), _output_rows("out")),
         (ray.data.from_pandas(rows[100:200]), _output_rows("out"))],
        NTriplesGzWriter(str(tmp_path), {"out": "out"}), num_parts=8,
    )
    got = []
    for part in sorted((tmp_path / "out").iterdir()):
        lines = gzip.open(part, "rt").read().splitlines()
        t = pa.table({
            c: pa.array(v, pa.string()) for c, v in zip(
                _OUT_COLS, zip(*[("out", *ln.split("\t")[:3], "", "") for ln in lines])
            )
        })
        part_id = int(part.name.split("-")[1].split(".")[0])
        assert set(_part_ids(t, _OUT_COLS, 8).to_pylist()) == {part_id}
        got += lines
    assert len(got) == len(set(got)) == len(rows.drop_duplicates())


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
    empty_block=st.booleans(),
)
@example(rows=[], blocks=1, num_parts=1, tag_batch_size=None,
         empty_block=True)
@example(rows=[(_KEYS[0], 0)], blocks=17, num_parts=32, tag_batch_size=2,
         empty_block=True)
@example(rows=[(k, i % 3) for i, k in enumerate(_KEYS * 4)], blocks=3,
         num_parts=4, tag_batch_size=None, empty_block=False)
@example(rows=[(k, 1) for k in _KEYS] * 2, blocks=17, num_parts=32,
         tag_batch_size=None, empty_block=False)
@example(rows=[(_KEYS[1], 2), (_KEYS[3], 0)], blocks=3, num_parts=4,
         tag_batch_size=None, empty_block=False)
def test_exchange_rows_per_part_independent_of_blocking(
    ray_session, rows, blocks, num_parts, tag_batch_size, empty_block,
):
    """However its input is blocked and bundled, the exchange calls the
    part function once per part with exactly that part's rows (one
    side, an Arrow table), joins two hash-keyed sides per part as pandas
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
        tag_batch_size=tag_batch_size,
    )
    blocks_out = ray.get(one_side.refs)
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
    blocks_out = ray.get(joined.refs)
    check_blocks(blocks_out, ["k", "v", "y"])
    got = sorted(
        tuple(r) for b in blocks_out
        for r in b.to_pandas()[["k", "v", "y"]].itertuples(index=False)
    )
    want = df.merge(right_df, on="k")[["k", "v", "y"]]
    assert got == sorted(tuple(r) for r in want.itertuples(index=False))


@pytest.mark.parametrize("tag_batch_size", [None, 2])
def test_exchange_inputs_map_like_a_mapped_union(ray_session, tag_batch_size):
    """A side of two inputs, each under its own function (one
    materialized, one lazy), gives every part the rows that mapping
    each Dataset first and exchanging their union gives it."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from yago4_ray.joins import exchange

    df = pd.DataFrame({"k": _KEYS * 3, "v": [str(i) for i in range(36)]})
    first = ray.data.from_pandas([df[:10], df[10:20], df[20:]])
    second = ray.data.from_pandas(df[::2]).map_batches(
        lambda b: b, batch_format="pyarrow"
    )

    def upper(t: pa.Table) -> pa.Table:
        return pa.table({"k": t["k"], "v": pc.utf8_upper(t["k"])})

    def suffixed(t: pa.Table) -> pa.Table:
        return t.set_column(1, "v", pc.binary_join_element_wise(
            t["v"], "x", ""))

    def per_part(tables, _keys):
        (t,) = tables
        parts = t["__part"].to_pylist()
        rows = sorted(zip(t["k"].to_pylist(), t["v"].to_pylist()))
        return pa.table({"part": [parts[0]], "rows": [repr(rows)]})

    def run(sides):
        out = exchange(sides, ["k"], per_part, 8, tag_batch_size=tag_batch_size)
        got = pd.concat(b.to_pandas() for b in ray.get(out.refs))
        return sorted(map(tuple, got.itertuples(index=False)))

    mapped = first.map_batches(upper, batch_format="pyarrow").union(
        second.map_batches(suffixed, batch_format="pyarrow")
    )
    assert run([([(first, upper), (second, suffixed)], None)]) == run(
        [(mapped, None)]
    )


def _ray_sizes(refs):
    """(rows, bytes) Ray Data reports for each block ref on its own."""
    import ray.data

    sizes = []
    for ref in refs:
        ds = ray.data.from_arrow_refs([ref])
        sizes.append((ds.count(), ds.size_bytes()))
    return sizes


def test_block_meta_matches_ray_data(ray_session, statements_root):
    """The rows and bytes a producing task returns beside each block
    equal what `ray.data.from_arrow_refs` reports for the same block: a
    filtered store read sliced into blocks (its arrays carry validity
    bitmaps without nulls), an exchange's blocks, a block map's blocks,
    the no-column block of a reducer that got no part, and an exchange
    with no input row."""
    import pyarrow as pa
    import ray

    from yago4_ray import joins, sources
    from yago4_ray.terms import RDF_TYPE

    store = sources.store_info(statements_root, [RDF_TYPE])
    paths = [path for path, *_ in store.of([RDF_TYPE])]
    *refs, metas = sources._read_files.options(num_returns=4).remote(
        paths, [RDF_TYPE], ["subject", "predicate", "object"], 3
    )
    read = joins.Blocks(refs, ray.get(metas))
    assert read.count() > 3
    mapped = joins.map_blocks(read, lambda t: t.select(["subject"]))

    def first_rows(tables, _keys):
        (t,) = tables
        return t.slice(0, 1).drop_columns(["__part"])

    exchanged = joins.exchange([(read, None)], ["subject"], first_rows, 4)
    for blocks in (read, mapped, exchanged):
        assert [(m.rows, m.nbytes) for m in blocks.meta] == _ray_sizes(blocks.refs)
        assert blocks.materialize().size_bytes() == blocks.size_bytes()

    block, meta = joins._exchange_reduce.remote((None, None, None), joins._NO_ROWS)
    meta = ray.get(meta)
    assert (meta.rows, meta.nbytes, len(meta.schema)) == (0, 0, 0)
    assert [(meta.rows, meta.nbytes)] == _ray_sizes([block])

    empty = joins.exchange(
        [(joins.Blocks.of(pa.table({"k": pa.array([], pa.string())})), None)],
        ["k"], first_rows, 4,
    )
    assert (empty.refs, empty.count(), empty.size_bytes(), empty.schema()) == (
        [], 0, 0, None
    )
    ds = empty.materialize()
    assert (ds.count(), ds.size_bytes()) == (0, 0)


def test_exchange_pads_with_handle_schema_types(ray_session):
    """A column one side declares and the other pads, with no
    `col_types` entry, pads with the non-string type its declaring
    input's blocks carry, read from the handle's schemas (past a
    null-typed empty block), so both sides' rows share a part."""
    import pyarrow as pa

    import ray

    from yago4_ray.joins import Blocks, exchange

    left = Blocks.of(
        pa.table({"k": pa.nulls(0), "n": pa.nulls(0)}),
        pa.table({"k": ["a", "b", "c"], "n": pa.array([1, 2, 3], pa.int64())}),
    )
    right = Blocks.of(pa.table({"k": ["a", "c", "d"], "y": ["p", "q", "r"]}))

    def join(tables, keys):
        lhs, rhs = tables
        return lhs.join(rhs, keys=keys, join_type="inner", use_threads=False)

    out = exchange([(left, ["k", "n"]), (right, ["k", "y"])], ["k"], join, 1)
    out = pa.concat_tables(ray.get(out.refs))
    assert out.schema.field("n").type == pa.int64()
    assert sorted(zip(*out.select(["k", "n", "y"]).to_pydict().values())) == [
        ("a", 1, "p"), ("c", 3, "q")
    ]


def test_blocks_dataset_edge_round_trips(ray_session):
    """`Blocks.materialize()`, the one Dataset edge, is a materialized
    Dataset of the handle's rows, in block order."""
    import pyarrow as pa
    import ray
    from ray.data.dataset import MaterializedDataset

    from yago4_ray.joins import Blocks

    tables = [
        pa.table({"k": ["a", "b"], "v": pa.array([1, 2], pa.int64())}),
        pa.table({"k": ["c"], "v": pa.array([3], pa.int64())}),
    ]
    blocks = Blocks.of(*tables)
    ds = blocks.materialize()
    assert isinstance(ds, MaterializedDataset)
    assert (ds.count(), ds.num_blocks()) == (blocks.count(), 2)
    got = pa.concat_tables(ray.get(ds.to_arrow_refs()))
    assert got.to_pydict() == pa.concat_tables(tables).to_pydict()
    assert blocks.schema() == tables[0].schema


_AGGS = {
    "n": (None, "count"),
    "total": ("v", "sum"),
    "lo": ("v", "min"),
    "hi": ("v", "max"),
}


@settings(
    max_examples=15, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    rows=st.lists(
        st.tuples(st.sampled_from(_KEYS[:6] + [None]), st.integers(-5, 5)),
        max_size=60,
    ),
    blocks=st.sampled_from([1, 3, 17]),
    num_parts=st.sampled_from([1, 4, 32]),
    distinct=st.booleans(),
)
@example(rows=[], blocks=1, num_parts=1, distinct=False)
@example(rows=[], blocks=17, num_parts=32, distinct=True)
@example(rows=[(None, 1), (_KEYS[0], 2), (None, -3), (_KEYS[0], 2)],
         blocks=17, num_parts=32, distinct=False)
@example(rows=[(None, 1), (_KEYS[0], 2), (None, 1), (_KEYS[0], 2)],
         blocks=3, num_parts=4, distinct=True)
@example(rows=[(k, i % 4 - 2) for i, k in enumerate(_KEYS * 3)], blocks=3,
         num_parts=4, distinct=False)
def test_aggregate_matches_pandas(ray_session, rows, blocks, num_parts, distinct):
    """`joins.aggregate` (count, sum, min, max per key; no aggregate is
    `distinct_rows`) equals a pandas groupby however the input is
    blocked and parted: a null key is its own group, and an input
    without rows returns one 0-row block of typed output columns."""
    import pyarrow as pa
    import ray
    import ray.data

    from yago4_ray.joins import aggregate, distinct_rows

    df = pd.DataFrame(rows, columns=["k", "v"]).astype({"k": object, "v": "int64"})
    schema = pa.schema([("k", pa.string()), ("v", pa.int64())])
    ds = ray.data.from_arrow([
        pa.Table.from_pandas(df.iloc[idx], schema=schema, preserve_index=False)
        for idx in np.array_split(np.arange(len(df)), blocks)
    ])
    if distinct:
        out = distinct_rows(ds, ["k", "v"], num_parts=num_parts)
        want = df.drop_duplicates()
        types = [pa.string(), pa.int64()]
    else:
        out = aggregate(ds, ["k"], _AGGS, num_parts=num_parts)
        want = df.groupby("k", as_index=False, dropna=False).agg(
            n=("v", "size"), total=("v", "sum"), lo=("v", "min"), hi=("v", "max"),
        )
        types = [pa.string()] + [pa.int64()] * 4
    blocks_out = ray.get(out.to_arrow_refs())
    assert blocks_out
    assert all(b.num_rows for b in blocks_out) or len(blocks_out) == 1
    got = pa.concat_tables(blocks_out)
    assert got.schema.names == list(want.columns)
    assert got.schema.types == types

    def canon(rows):
        rows = [tuple(None if pd.isna(x) else x for x in r) for r in rows]
        return sorted(rows, key=lambda r: [(x is None, x or 0) for x in r])

    assert canon(zip(*got.to_pydict().values())) == canon(
        want.itertuples(index=False)
    )


# the queries that used Ray Data's groupby, sort, aggregate or union
# before they ran on `joins.exchange` and the driver combine
_GATED_QUERIES = [
    "q4_top_parts_by_quantity", "q5_event_type_users",
    "q6_filtered_lineitems", "q7_hourly_user_activity",
    "q10_embedding_stats", "q11_supplier_region", "q12_language_share",
    "q13_session_windows", "q14_daily_windows", "q15_asof_purchase_click",
    "q16_customer_order_join",
]


def test_queries_run_no_ray_data_shuffle(ray_session, monkeypatch):
    """The grouped, sorted and joined queries run with every Ray Data
    shuffle (groupby, sort, aggregate, unique, join, union) raising,
    and each still equals its DuckDB oracle."""
    import duckdb
    import ray.data

    from tools.check_oracles import TABLES, canon
    from yago4_ray.queries import QUERIES, SQL_ORACLES

    sf_dir = "/root/testdata/sf0.001"
    for name in ("groupby", "sort", "aggregate", "unique", "join", "union"):
        def refuse(*_args, _name=name, **_kwargs):
            raise AssertionError(f"Dataset.{_name} called")

        monkeypatch.setattr(ray.data.Dataset, name, refuse)
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )
    for name in _GATED_QUERIES:
        out = QUERIES[name](sf_dir)
        got = out.to_pandas() if hasattr(out, "to_pandas") else out
        assert canon(got) == canon(con.execute(SQL_ORACLES[name]).df()), name
