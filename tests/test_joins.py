"""copartition_join exchange formats: the hash-keyed (128-bit digest)
form build_dist uses must be row-set-identical to the plain string-keyed
exchange on every shape that occurs at the call sites (PERF_NOTES #38)."""

import numpy as np
import pandas as pd
import pytest


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
