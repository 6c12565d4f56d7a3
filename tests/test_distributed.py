"""Distributed-state path: forcing hash-join state consumption must
produce the identical triple sets as the broadcast path / oracle
(VERDICT r1 item 2: the 10^12-doc scale path, verified bit-identical)."""

import pytest


@pytest.fixture(scope="module")
def distributed_outputs(statements_root):
    from yago4_ray.build import generate_yago

    outputs = generate_yago(statements_root, write=False, distributed=True)
    result = {}
    for name, ds in outputs.items():
        df = ds.to_pandas()
        if "annotation_predicate" in df.columns:
            result[name] = set(
                zip(df["subject"], df["predicate"], df["object"],
                    df["annotation_predicate"], df["annotation_object"])
            )
        else:
            result[name] = set(zip(df["subject"], df["predicate"], df["object"]))
    return result


@pytest.mark.parametrize(
    "name",
    ["class", "simple-types", "full-types", "labels", "facts",
     "annotated-facts", "sameAs"],
)
def test_distributed_matches_broadcast(distributed_outputs, build_outputs, name):
    got = distributed_outputs[name]
    want = build_outputs[name]
    assert got == want, (
        f"{name}: distributed != broadcast "
        f"(got {len(got)}, want {len(want)}) "
        f"missing={list(want - got)[:3]} extra={list(got - want)[:3]}"
    )


def test_distributed_flag_set(statements_root):
    from yago4_ray.state import build_state

    state = build_state(statements_root, distributed=True)
    assert state.distributed
    # the join sides exist
    for key in ("uri_mapping", "shape_instances", "enwiki"):
        assert key in state.datasets
    state2 = build_state(statements_root)
    assert not state2.distributed  # tiny corpus → broadcast auto-choice


def _part_hashes(out_dir) -> dict:
    import hashlib
    import pathlib

    root = pathlib.Path(out_dir)
    parts = [*root.glob("*/*.nt.gz"), *root.glob("*/*.ntx.gz")]
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in parts
    }


def test_written_parts_identical_across_state_paths(statements_root, tmp_path_factory):
    """The write=True path byte for byte: every .nt.gz/.ntx.gz part the
    distributed build writes equals the broadcast build's (the gz sinks
    write mtime=0 headers, so equal content means equal bytes), and so
    does stats.tsv."""
    import pathlib

    from yago4_ray.build import generate_yago

    hashes, stats = {}, {}
    for distributed in (False, True):
        out = str(tmp_path_factory.mktemp(f"written_dist{int(distributed)}"))
        generate_yago(statements_root, out_dir=out, write=True, distributed=distributed)
        hashes[distributed] = _part_hashes(out)
        stats[distributed] = (pathlib.Path(out) / "stats.tsv").read_bytes()
    assert hashes[False], "the broadcast build wrote no parts"
    assert hashes[True] == hashes[False]
    assert stats[True] == stats[False]
