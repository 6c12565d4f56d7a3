"""End-to-end golden test: the parts generate_yago writes vs the
independent Python oracle, per output file, as exact sets (FIXTURES.md
F4)."""

import pytest


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
