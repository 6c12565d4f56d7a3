"""Distributed connected-components (alternating star rounds) vs a
pure-Python union-find reference — including the shapes that break
naive min-label propagation (long chains need the large-star pointer
jumping; cliques, isolated pairs, string ids)."""

import numpy as np
import pandas as pd
import ray.data

from yago4_ray.dataops.concomp import connected_components_min_label


def _reference(edges):
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = sorted([ra, rb])
            parent[hi] = lo
    return sorted((n, find(n)) for n in parent)


def _run(edges, **kw):
    ds = ray.data.from_pandas(
        pd.DataFrame({"a": [e[0] for e in edges], "b": [e[1] for e in edges]})
    )
    out = connected_components_min_label(ds, **kw).to_pandas()
    return sorted(zip(out["a"], out["b"]))


def test_cc_chain(ray_session):
    # a 40-node path: worst case for plain min-label propagation.
    # small_cap=0 forces the star rounds; the default takes the
    # single-task union-find gate — both must match the reference.
    edges = [(i, i + 1) for i in range(40)]
    assert _run(edges, small_cap=0) == _reference(edges)
    assert _run(edges) == _reference(edges)


def test_cc_cliques_and_pairs(ray_session):
    edges = (
        [(a, b) for a in range(5) for b in range(a + 1, 5)]  # clique 0-4
        + [(10, 11), (12, 13)]  # isolated pairs
        + [(20, 21), (21, 22), (20, 22)]  # triangle
    )
    assert _run(edges) == _reference(edges)


def test_cc_string_ids(ray_session):
    edges = [("doc-b", "doc-a"), ("doc-b", "doc-c"), ("x", "y")]
    assert _run(edges, small_cap=0) == _reference(edges)
    assert _run(edges) == _reference(edges)


def test_cc_random_graphs(ray_session):
    rng = np.random.default_rng(17)
    for trial in range(3):
        n = 60
        m = int(rng.integers(20, 90))
        edges = [
            (int(a), int(b))
            for a, b in rng.integers(0, n, size=(m, 2))
            if a != b
        ]
        if not edges:
            continue
        assert _run(edges, small_cap=0) == _reference(edges)
        assert _run(edges) == _reference(edges)


def test_cc_empty(ray_session):
    out = connected_components_min_label(
        ray.data.from_pandas(pd.DataFrame({"a": [], "b": []}))
    ).to_pandas()
    assert len(out) == 0


def test_cc_star_rounds_run_no_union(ray_session, monkeypatch):
    """The star rounds' result is one Dataset over the materialized
    edges' and roots' blocks: no Ray Data union runs."""

    def no_union(self, *others):
        raise AssertionError("Dataset.union called")

    monkeypatch.setattr(ray.data.Dataset, "union", no_union)
    edges = [(i, i + 1) for i in range(12)] + [(20, 21), (30, 5)]
    assert _run(edges, small_cap=0) == _reference(edges)
