"""Sources/sinks: N-Triples round trip, store scans, size flavors."""

import gzip
import os

import pyarrow.parquet as pq

from yago4_ray import terms as T


def test_ntriples_roundtrip(ray_session, tmp_path):
    """Write .nt.gz via Ray, read it back with the tolerant parser
    (reference roundtrip test, partitioned_statements.rs:305-327)."""
    import ray.data

    from conftest import write_triples
    from yago4_ray.sources import read_ntriples

    nt = tmp_path / "in.nt"
    nt.write_text(
        '<http://www.wikidata.org/entity/Q42> '
        '<http://schema.org/description> "ast\\u00e9risque"@ast .\n'
        "this line is garbage\n"
        "<http://e/a> <http://e/p> <http://e/b> .\n"
    )
    ds = read_ntriples(str(nt))
    rows = ds.to_pandas()
    assert len(rows) == 2  # bad line skipped
    assert '"astérisque"@ast' in set(rows["object"])

    out = str(tmp_path / "out")
    write_triples(ds, out)
    files = [f for f in os.listdir(out) if f.endswith(".nt.gz")]
    lines = [
        line for f in sorted(files) for line in gzip.open(os.path.join(out, f), "rt")
    ]
    reparsed = {T.parse_ntriples_line(line) for line in lines}
    assert reparsed == set(zip(rows["subject"], rows["predicate"], rows["object"]))


def test_parse_ntriples_batch_matches_per_line():
    """The vectorized batch parser (Arrow RE2 fast path + per-line
    fallback) must emit exactly the per-line parser's rows in line
    order, across every shape: IRIs, blank nodes, plain/lang literals,
    escapes, typed-literal canonicalization, comments, garbage,
    missing dots, extra terms."""
    import pyarrow as pa

    from yago4_ray.sources import parse_ntriples_batch

    lines = [
        "<http://e/s> <http://e/p> <http://e/o> .",
        '<http://e/s>\t<http://e/p>\t"plain value" .',
        '<http://e/s> <http://e/p> "hello"@en .',
        '<http://e/s> <http://e/p> "esc\\"aped" .',
        '<http://e/s> <http://e/p> "0005"^^'
        "<http://www.w3.org/2001/XMLSchema#integer> .",
        '<http://e/s> <http://e/p> "x"^^'
        "<http://www.w3.org/2001/XMLSchema#string> .",
        "# comment line",
        "",
        "garbage no terms",
        "_:b0 <http://e/p> _:b1 .",
        '<http://e/s> <http://e/p> "tab\\tseq"@en-GB .',
        "<http://e/s> <http://e/p> <http://e/o>",  # tolerant: no dot
        "<a> <b> <c> <d> .",  # extra term
    ]
    want = [r for r in (T.parse_ntriples_line(l) for l in lines) if r]
    got = parse_ntriples_batch(pa.table({"text": pa.array(lines)}))
    got_rows = list(
        zip(
            got["subject"].to_pylist(),
            got["predicate"].to_pylist(),
            got["object"].to_pylist(),
        )
    )
    assert got_rows == want
    # empty batch keeps the schema
    empty = parse_ntriples_batch(pa.table({"text": pa.array([], pa.string())}))
    assert empty.column_names == ["subject", "predicate", "object"]


def test_scan_predicate_filters_exact(statements_root):
    from yago4_ray.sources import scan_predicate

    ds = scan_predicate(statements_root, f"<{T.WDT}P31>")
    df = ds.materialize().to_pandas()
    assert len(df) > 0
    assert set(df["predicate"]) == {f"<{T.WDT}P31>"}
    # unknown predicate → empty, correct schema
    empty = scan_predicate(statements_root, "<http://nope/x>")
    assert empty.count() == 0


def test_store_is_key_unique(ray_session, tmp_path):
    import pandas as pd
    import ray.data

    from yago4_ray.sources import scan_predicate, write_statement_store

    rows = pd.DataFrame(
        {
            "subject": ["<http://e/a>"] * 3 + ["<http://e/b>"],
            "predicate": ["<http://e/p>"] * 4,
            "object": ['"x"'] * 3 + ['"y"'],
        }
    )
    root = str(tmp_path / "store")
    write_statement_store(ray.data.from_pandas(rows), root)
    out = scan_predicate(root, "<http://e/p>").materialize().to_pandas()
    assert len(out) == 2  # duplicate triples collapsed (RocksDB semantics)


def test_size_flavors(statements_root):
    """full ⊇ all-wikipedias ⊇ en-wikipedia item universes
    (plan.rs:263-279), on the fused input scan build_state runs."""
    from yago4_ray.schema import Schema
    from yago4_ray.state import Stats, collect_input_reductions

    sizes = {}
    for size in ("full", "all-wikipedias", "en-wikipedia"):
        uri_mapping = collect_input_reductions(
            statements_root, Schema.open(), Stats(), size
        )[0]
        sizes[size] = len(uri_mapping)
    assert sizes["full"] >= sizes["all-wikipedias"] >= sizes["en-wikipedia"] > 0


def test_cli_synth_and_partition(ray_session, tmp_path, corpus_dir):
    from yago4_ray.__main__ import main

    main(["synth", "-n", "150", "-s", "7"])
    from yago4_ray.corpus import materialize_corpus

    out = materialize_corpus(150, 7)  # cache hit on what the CLI built
    assert os.path.exists(os.path.join(out, "statements.parquet"))
    store = str(tmp_path / "cli_store")
    main([
        "partition",
        "-f", os.path.join(corpus_dir, "statements.parquet"),
        "-o", store,
    ])
    assert any(d.startswith("pred_key=") for d in os.listdir(store))


def test_lance_documents_roundtrip(ray_session, corpus_dir, tmp_path):
    """input_hint names Lance as the corpus table format: the reader
    must take the Lance branch and preserve the span sequences
    bit-exactly. Runs against the real `lance` package when importable,
    else against lancelite (the from-scratch Lance dataset layout) —
    either way the branch executes; nothing is skipped."""
    try:
        import lance
    except ImportError:
        from yago4_ray import lancelite as lance
    import pyarrow.parquet as pq
    import ray.data

    from yago4_ray.sources import read_documents, span_signature_batch

    table = pq.read_table(os.path.join(corpus_dir, "documents.parquet"))
    target = str(tmp_path / "documents.lance")
    lance.write_dataset(table, target)
    ds = read_documents(target)
    sig_lance = ds.map_batches(
        span_signature_batch, batch_format="pyarrow"
    ).to_pandas()
    sig_pq = (
        ray.data.read_parquet(os.path.join(corpus_dir, "documents.parquet"))
        .map_batches(span_signature_batch, batch_format="pyarrow")
        .to_pandas()
    )
    a = dict(zip(sig_lance["doc_id"], sig_lance["span_sig"]))
    b = dict(zip(sig_pq["doc_id"], sig_pq["span_sig"]))
    assert a == b


def test_read_documents_part_file_directory(ray_session, tmp_path):
    """Above 20,000 documents the corpus writes `documents.parquet` as a
    directory of part files (`corpus.materialize_corpus`): read_documents
    reads every part given that directory, and given the corpus
    directory that holds it."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from yago4_ray.sources import read_documents

    parts = tmp_path / "corpus" / "documents.parquet"
    parts.mkdir(parents=True)
    for i in range(2):
        pq.write_table(
            pa.table({"doc_id": [f"d{i}", f"d{i + 2}"]}),
            parts / f"part-{i:04d}.parquet",
        )
    for path in (parts, parts.parent):
        got = read_documents(str(path)).to_pandas()
        assert sorted(got["doc_id"]) == ["d0", "d1", "d2", "d3"], path


def test_gz_sinks_write_identical_bytes(tmp_path):
    """The N-Triples part writer writes gzip headers without a
    timestamp, so two writes of the same rows give the same .gz bytes
    (sha256 of every output file is a usable identity check), and it
    returns the rows it wrote per (file, part)."""
    import hashlib
    import time

    import pyarrow as pa

    from yago4_ray.sources import NTriplesGzWriter

    tagged = pa.table(
        {
            "subject": [f"<http://e/s{i}>" for i in range(50)],
            "predicate": ["<http://e/p>"] * 50,
            "object": [f'"v{i}"' for i in range(50)],
            "file": ["a", "b"] * 25,
            "__part": [i % 3 for i in range(50)],
        }
    )

    def write(run: str) -> dict[str, str]:
        base = tmp_path / run
        writer = NTriplesGzWriter(str(base), {"a": "out-a", "b": "out-b"})
        writer.start()
        written = writer.write(tagged)
        assert sorted(zip(*written.to_pydict().values())) == sorted(
            (f, p, sum(1 for i in range(50) if "ab"[i % 2] == f and i % 3 == p))
            for f in "ab" for p in range(3)
        )
        return {
            str(p.relative_to(base)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(base.rglob("*.nt.gz"))
        }

    first = write("first")
    time.sleep(1.1)  # a header timestamp would now differ
    second = write("second")
    assert len(first) == 6  # 2 files × 3 parts
    assert first == second


def test_gz_sink_requires_part_column(tmp_path):
    """Part files are named by the rows' `__part`, never by task order:
    rows without it are refused, and an empty, schema-less part table
    writes nothing."""
    import pyarrow as pa
    import pytest

    from yago4_ray.sources import NTriplesGzWriter

    writer = NTriplesGzWriter(str(tmp_path), {"a": "out-a"})
    writer.start()
    rows = pa.table(
        {"file": ["a"], "subject": ["<http://e/s>"], "predicate": ["<http://e/p>"],
         "object": ['"v"']}
    )
    with pytest.raises(ValueError, match="__part"):
        writer.write(rows)
    assert writer.write(pa.table({})).num_rows == 0
    assert not list((tmp_path / "out-a").iterdir())


def test_one_output_writer(tmp_path):
    """The build has one output path: `yago4_ray/` calls the gzip
    module in exactly one place, the part writer every output goes
    through, and defines no Ray Data Datasink; generate_yago
    refuses write=False before it builds anything, and the
    single-output builders carry no dedup switch."""
    import ast
    import inspect
    import pathlib

    import pytest

    from yago4_ray import build, sources

    pkg = pathlib.Path(sources.__file__).parent
    sinks, gzip_writes = [], []
    for path in sorted(pkg.rglob("*.py")):
        tree = ast.parse(path.read_text())
        classes = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
        for node in classes:
            if any(
                getattr(base, "id", getattr(base, "attr", None)) == "Datasink"
                for base in node.bases
            ):
                sinks.append(f"{path.relative_to(pkg)}:{node.name}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and getattr(node.func.value, "id", None) == "gzip"):
                owner = [c.name for c in classes if node in ast.walk(c)]
                gzip_writes.append(f"{path.relative_to(pkg)}:{owner}")
    assert not sinks, sinks
    assert gzip_writes == ["sources.py:['NTriplesGzWriter']"], gzip_writes

    with pytest.raises(ValueError, match="write"):
        build.generate_yago(str(tmp_path / "no-store"), out_dir=str(tmp_path), write=False)
    assert not list(tmp_path.iterdir())
    for fn in (build.build_labels, build.build_full_types, build.build_same_as):
        assert "dedup" not in inspect.signature(fn).parameters, fn.__name__
