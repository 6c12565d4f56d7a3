"""End-to-end golden test: Ray build vs the independent Python oracle.

Per-file set comparison with precision/recall gates (FIXTURES.md F4;
target P=R=1.0 on the deterministic fixture, gate ≥0.95 per
BASELINE.json).
"""

import pytest


def _pr(got: set, want: set):
    if not got and not want:
        return 1.0, 1.0
    tp = len(got & want)
    precision = tp / len(got) if got else 0.0
    recall = tp / len(want) if want else 0.0
    return precision, recall


@pytest.mark.parametrize(
    "name",
    ["class", "simple-types", "full-types", "labels", "facts",
     "annotated-facts", "sameAs"],
)
def test_output_matches_oracle(build_outputs, oracle_outputs, name):
    got = build_outputs[name]
    want = oracle_outputs[name]
    precision, recall = _pr(got, want)
    missing = list(want - got)[:5]
    extra = list(got - want)[:5]
    assert precision >= 0.95 and recall >= 0.95, (
        f"{name}: P={precision:.3f} R={recall:.3f} "
        f"(got {len(got)}, want {len(want)})\n"
        f"missing: {missing}\nextra: {extra}"
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


def test_written_outputs_match_oracle(
    statements_root, oracle_outputs, tmp_path_factory
):
    """Content gate for the WRITE path — the fused tagged output scan,
    the facts/annotated in-memory union, the combined full-key dedup,
    and the multi-file gz sink together must reproduce the oracle's
    triple sets exactly (write=False is gated per output by
    test_output_matches_oracle; this drives write=True and re-reads
    every emitted gz file)."""
    import glob
    import gzip
    import os

    from yago4_ray.build import OUTPUT_FILE_NAMES, generate_yago

    out_dir = str(tmp_path_factory.mktemp("written"))
    generate_yago(statements_root, out_dir=out_dir, write=True)
    for name, want in oracle_outputs.items():
        fname = OUTPUT_FILE_NAMES[name]
        got = set()
        for part in sorted(glob.glob(os.path.join(out_dir, fname, "part-*"))):
            with gzip.open(part, "rt", encoding="utf-8") as f:
                for line in f:
                    tok = line.rstrip("\n").split("\t")
                    if tok[0] == "<<":
                        got.add((tok[1], tok[2], tok[3], tok[5], tok[6]))
                    else:
                        got.add(tuple(tok[:3]))
        want = set(want)
        if name == "annotated-facts":
            got = {t if len(t) == 5 else (*t, "", "") for t in got}
            want = {t if len(t) == 5 else (*t, "", "") for t in want}
        assert got == want, f"{name}: {len(got)} written vs {len(want)} oracle"


@pytest.mark.parametrize(
    "distributed", [False, True], ids=["broadcast", "distributed"]
)
def test_annotation_join_path_matches_stitch(
    build_outputs, statements_root, monkeypatch, distributed
):
    """The volume-gated annotation stitch (used by build_outputs under
    the default cap) and the co-partitioned join path (forced via
    cap=0) must produce the identical annotated-facts set on both state
    paths — the same both-paths identity gate the minhash verify has."""
    from yago4_ray import build
    from yago4_ray.build import generate_yago

    monkeypatch.setattr(build, "ANN_BROADCAST_CAP", 0)

    outputs = generate_yago(
        statements_root, write=False, distributed=distributed
    )
    df = outputs["annotated-facts"].to_pandas()
    got = set(
        zip(df["subject"], df["predicate"], df["object"],
            df["annotation_predicate"], df["annotation_object"])
    )
    assert got == build_outputs["annotated-facts"]
