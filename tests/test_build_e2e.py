"""End-to-end golden test: the parts generate_yago writes vs the
independent Python oracle, per output file, as exact sets (FIXTURES.md
F4)."""

import pytest

from conftest import part_digests


@pytest.mark.parametrize(
    "name",
    ["class", "simple-types", "full-types", "labels", "facts",
     "annotated-facts", "sameAs"],
)
def test_output_matches_oracle(build_outputs, oracle_outputs, name):
    """The written parts of each output hold exactly the oracle's rows:
    the fused output scan, the facts and annotated legs, the full-key
    dedups and the gz sink together."""
    got = build_outputs[name]
    want = oracle_outputs[name]
    assert got == want, (
        f"{name}: {len(got)} written vs {len(want)} oracle\n"
        f"missing: {list(want - got)[:5]}\nextra: {list(got - want)[:5]}"
    )


def test_outputs_nonempty(build_outputs, oracle_outputs):
    for name in ("class", "simple-types", "full-types", "labels", "facts",
                 "annotated-facts", "sameAs", "schema", "shapes"):
        assert build_outputs[name], f"{name} is empty"
    # the oracle itself must be exercising every family
    assert oracle_outputs["annotated-facts"]
    assert any(
        p == "<http://schema.org/birthDate>" for _, p, _ in oracle_outputs["facts"]
    )
    assert any(
        p == "<http://schema.org/geo>" for _, p, _ in oracle_outputs["facts"]
    )
    assert any(
        p == "<http://schema.org/duration>" for _, p, _ in oracle_outputs["facts"]
    )
    assert any(
        p == "<http://schema.org/numberOfEmployees>"
        for _, p, _ in oracle_outputs["facts"]
    )
    assert any(
        p == "<http://schema.org/elevation>" for _, p, _ in oracle_outputs["facts"]
    )


@pytest.mark.parametrize(
    "distributed", [False, True], ids=["broadcast", "distributed"]
)
def test_annotation_join_path_matches_stitch(
    build_out_dir, statements_root, tmp_path, monkeypatch, distributed
):
    """The volume-gated annotation stitch (taken by the session build
    under the default cap) and the co-partitioned join path (forced via
    cap=0) write byte-identical annotated-facts parts on both state
    paths — the same both-paths identity gate the minhash verify has."""
    from yago4_ray import build
    from yago4_ray.build import generate_yago

    monkeypatch.setattr(build, "ANN_BROADCAST_CAP", 0)

    out = str(tmp_path / "out")
    generate_yago(statements_root, out_dir=out, distributed=distributed)
    pattern = "yago-wd-annotated-facts/*.ntx.gz"
    want = part_digests(build_out_dir, pattern)
    assert want, "the session build wrote no annotated-facts parts"
    assert part_digests(out, pattern) == want
