"""Checkpoint manifest + resume semantics."""

import json
import os

import ray.data

from conftest import write_triples
from yago4_ray import checkpoint as cp


def _triples_ds():
    import pandas as pd

    return ray.data.from_pandas(
        pd.DataFrame(
            {
                "subject": ["<http://e/b>", "<http://e/a>"],
                "predicate": ["<http://e/p>", "<http://e/p>"],
                "object": ['"1"', '"2"'],
            }
        )
    )


def test_manifest_roundtrip(ray_session, tmp_path):
    out = str(tmp_path / "out")
    write_triples(_triples_ds(), out, lineage="abc123")
    manifest = cp.read_manifest(out)
    assert manifest is not None
    assert manifest["lineage"] == "abc123"
    assert manifest["num_rows"] == 2
    assert manifest["num_parts"] >= 1
    assert cp.is_complete(out, "abc123")
    # different lineage invalidates
    assert not cp.is_complete(out, "other")
    # missing part invalidates
    part = os.path.join(out, manifest["parts"][0])
    os.rename(part, part + ".gone")
    assert not cp.is_complete(out, "abc123")
    os.rename(part + ".gone", part)
    assert cp.is_complete(out, "abc123")


def test_lineage_sensitivity(tmp_path):
    root = tmp_path / "store" / "pred_key=x"
    root.mkdir(parents=True)
    (root / "f1.parquet").write_bytes(b"aaaa")
    l1 = cp.compute_lineage(str(tmp_path / "store"), ["v1"])
    (root / "f1.parquet").write_bytes(b"aaaabb")  # size change
    l2 = cp.compute_lineage(str(tmp_path / "store"), ["v1"])
    l3 = cp.compute_lineage(str(tmp_path / "store"), ["v2"])  # token change
    assert l1 != l2 and l2 != l3


def test_sorted_deterministic_output(ray_session, tmp_path):
    """Two writes of the same rows give the same part files, each
    sorted within itself (the sink sorts per hash part, no global
    sort)."""
    import glob
    import gzip

    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    write_triples(_triples_ds(), out1)
    write_triples(_triples_ds(), out2)

    def parts(d):
        out = {}
        for f in sorted(glob.glob(d + "/*.nt.gz")):
            with gzip.open(f, "rt") as lines:
                out[os.path.basename(f)] = lines.readlines()
        return out

    a, b = parts(out1), parts(out2)
    assert a == b
    assert sum(len(lines) for lines in a.values()) == 2
    for lines in a.values():
        assert lines == sorted(lines)  # subject-sorted within the part


def test_rewrite_clears_stale_parts(ray_session, tmp_path):
    """A rewrite that produces fewer parts than a previous run must not
    leave stale part files behind (they would corrupt the output)."""
    import glob

    out = str(tmp_path / "stale")
    write_triples(_triples_ds(), out, lineage="L1")
    # plant a fake stale part from an imaginary earlier, wider run
    stale = os.path.join(out, "part-99999.nt.gz")
    import gzip

    with gzip.open(stale, "wt") as f:
        f.write("<http://stale> <http://stale> <http://stale> .\n")
    write_triples(_triples_ds(), out, lineage="L2")
    parts = sorted(os.path.basename(p) for p in glob.glob(out + "/*.nt.gz"))
    assert "part-99999.nt.gz" not in parts
    manifest = cp.read_manifest(out)
    assert manifest["lineage"] == "L2"
    assert set(manifest["parts"]) == set(parts)


# one digest per output directory of generate_yago on the
# session corpus (600 entities, seed 42): sha256 over the sorted
# "<part name>\t<part sha256>\n" lines. A change to output bytes must
# add a new OUTPUT_FORMAT_VERSION with its digests here, so that resume
# never takes parts written by older code for current ones.
GOLDEN_OUTPUT_DIGESTS = {
    "yago4_ray-0.1": {
        "yago-wd-annotated-facts": "a06ab3f74acc3d994bc5de2b0d19637ab738eeaa98feeafdb91f773274f400dd",
        "yago-wd-class": "2828db8ea6d5502bc2108e118fe99b42cfa0f9ca02813d8c4737dddf7556d78f",
        "yago-wd-facts": "66d4bfe9615f1408ab85dd1cac7f6d7f21c74c4e396cbb68909db58fc0b5e516",
        "yago-wd-full-types": "718cf64dc7881ea57e55256d380ffdf33b93a14c4ec90f6862406f2ab86b016e",
        "yago-wd-labels": "570ed629bc049c31ac810a1ec8f09b5800ea0a375419a4bb00e669c4aec34345",
        "yago-wd-sameAs": "e5648cd90211eb362eb245e4c37995eefc49744a3566fb7235ec782dcf61abdc",
        "yago-wd-schema": "dfe788b5b3a18dcc5d9d8ad424e3dd6bf58b7d04e05b92eaed27bd8ecd812649",
        "yago-wd-shapes": "792f099930e7ecc6382edd2fcf5defe30e49cb366a8cb7ed72e6b553dd7f6572",
        "yago-wd-simple-types": "f67381979be6bd7e07310485b1961784d2db0ae6acb0131e36cf78d67e75cbf1",
    },
}


def _output_digests(out_dir: str) -> dict:
    import hashlib
    import pathlib

    digests = {}
    for d in sorted(p for p in pathlib.Path(out_dir).iterdir() if p.is_dir()):
        lines = sorted(
            f"{p.name}\t{hashlib.sha256(p.read_bytes()).hexdigest()}\n"
            for p in d.iterdir()
            if p.name.endswith((".nt.gz", ".ntx.gz"))
        )
        digests[d.name] = hashlib.sha256("".join(lines).encode()).hexdigest()
    return digests


def test_output_format_golden(statements_root, tmp_path):
    """The written parts are the bytes pinned for OUTPUT_FORMAT_VERSION,
    the token every output lineage carries."""
    from yago4_ray.build import OUTPUT_FORMAT_VERSION, generate_yago

    assert OUTPUT_FORMAT_VERSION in GOLDEN_OUTPUT_DIGESTS, (
        f"no pinned digests for {OUTPUT_FORMAT_VERSION}"
    )
    out = str(tmp_path / "out")
    generate_yago(statements_root, out_dir=out)
    assert _output_digests(out) == GOLDEN_OUTPUT_DIGESTS[OUTPUT_FORMAT_VERSION]


def test_manifest_part_rows_match_lines(build_out_dir):
    """Each output's manifest records the rows the writer returned for
    each part file: the lines of that part, decompressed. `num_rows`
    is their sum."""
    import gzip

    from yago4_ray.build import OUTPUT_FILE_NAMES

    for dirname in OUTPUT_FILE_NAMES.values():
        out = os.path.join(build_out_dir, dirname)
        manifest = cp.read_manifest(out)
        part_rows = manifest["part_rows"]
        assert sorted(part_rows) == manifest["parts"], dirname
        for part, rows in part_rows.items():
            with gzip.open(os.path.join(out, part), "rt") as f:
                assert sum(1 for _ in f) == rows, (dirname, part)
        assert manifest["num_rows"] == sum(part_rows.values()), dirname


def test_resume_rewrites_only_incomplete_outputs(
    statements_root, build_out_dir, tmp_path, monkeypatch
):
    """A rerun into a complete output directory starts no exchange and
    changes no file. With one output's manifest deleted, the rerun
    rewrites exactly that output, with the same bytes, and leaves every
    other output's files as they were."""
    import pathlib
    import shutil

    from conftest import part_digests
    from yago4_ray import joins
    from yago4_ray.build import generate_yago
    from yago4_ray.state import build_state

    out = tmp_path / "out"
    shutil.copytree(build_out_dir, out)  # keeps the files' mtimes
    state = build_state(statements_root)
    map_tasks = []
    exchange_map = joins._exchange_map

    class CountingMap:
        def options(self, **kwargs):
            map_tasks.append(kwargs)
            return exchange_map.options(**kwargs)

    monkeypatch.setattr(joins, "_exchange_map", CountingMap())

    def mtimes() -> dict:
        return {
            str(p.relative_to(out)): p.stat().st_mtime_ns
            for p in out.rglob("*") if p.is_file()
        }

    before = mtimes()
    generate_yago(statements_root, out_dir=str(out), state=state)
    assert not map_tasks
    assert mtimes() == before

    labels = out / "yago-wd-labels"
    (labels / cp.MANIFEST_NAME).unlink()
    digests = part_digests(str(out))
    generate_yago(statements_root, out_dir=str(out), state=state)
    assert map_tasks
    assert part_digests(str(out)) == digests
    after = mtimes()
    changed = {p for p in after if after[p] != before.get(p)}
    # every labels file, its new manifest with them
    assert changed - {"stats.tsv"} == {
        str(p.relative_to(out)) for p in labels.iterdir()
    }
