"""Size flavors e2e, ingest from N-Triples, replicated reference quirks."""

import gzip
import os

import pyarrow.parquet as pq
import pytest

from oracle import oracle_build
from yago4_ray import terms as T
from yago4_ray.schema import Schema


@pytest.fixture(scope="module")
def corpus_triples(corpus_dir):
    table = pq.read_table(os.path.join(corpus_dir, "statements.parquet"))
    return list(
        zip(
            table["subject"].to_pylist(),
            table["predicate"].to_pylist(),
            table["object"].to_pylist(),
        )
    )


def test_en_wikipedia_flavor_matches_oracle(statements_root, corpus_triples):
    """The --en-wiki flavor restricts the entity universe
    (plan.rs:263-279); facts must match the oracle under the same size."""
    from yago4_ray.build import build_facts
    from yago4_ray.state import build_state

    state = build_state(statements_root, size="en-wikipedia")
    facts, _ = build_facts(statements_root, state)
    df = facts.to_pandas()
    got = set(zip(df["subject"], df["predicate"], df["object"]))
    want = oracle_build(corpus_triples, Schema.open(), size="en-wikipedia")["facts"]
    assert got == want
    # strictly smaller universe than full
    full_want = oracle_build(corpus_triples, Schema.open(), size="full")["facts"]
    assert len(want) < len(full_want)


def test_ingest_from_ntriples_gz(ray_session, tmp_path, corpus_triples):
    """Dump → .nt.gz → CLI partition → scan parity with parquet ingest
    (the reference's `partition -f dump.nt.gz` path)."""
    import ray.data

    from yago4_ray.__main__ import main
    from yago4_ray.sources import scan_predicate

    dump = tmp_path / "dump.nt.gz"
    sample = corpus_triples[:5000]
    with gzip.open(dump, "wt", encoding="utf-8") as f:
        for s, p, o in sample:
            f.write(f"{s} {p} {o} .\n")
        f.write("a malformed line that must be skipped\n")
    store = str(tmp_path / "nt_store")
    main(["partition", "-f", str(dump), "-o", store])
    preds = {p for _, p, _ in sample}
    total = 0
    for pred in list(preds)[:5]:
        df = scan_predicate(store, pred).to_pandas()
        want = {(s, o) for s, p, o in sample if p == pred}
        assert set(zip(df["subject"], df["object"])) == want
        total += len(df)
    assert total > 0


def test_unique_lang_not_enforced(build_outputs):
    """sh:uniqueLang is parsed and re-emitted as shape metadata but never
    enforced on facts (SURVEY §2.5): entities with labels in several
    languages keep them all."""
    labels = build_outputs["labels"]
    by_subject = {}
    for s, p, o in labels:
        if p == T.RDFS_LABEL:
            by_subject.setdefault(s, []).append(o)
    multi = [objs for objs in by_subject.values() if len(objs) > 1]
    assert multi, "fixture should produce multi-language labels"
    # and the shapes output carries the uniqueLang declaration
    shapes = build_outputs["shapes"]
    assert any(p == T.SH_UNIQUE_LANG for _, p, _ in shapes)


def test_maxcount_group_dropped(build_outputs, oracle_outputs):
    """A subject with two best-rank P856 urls loses BOTH (whole-group
    drop, plan.rs:1141-1158): verify at least one such case exists and
    neither url survived."""
    url_pred = "<http://schema.org/url>"
    got_urls = {
        (s, o) for s, p, o in build_outputs["facts"] if p == url_pred
    }
    want_urls = {
        (s, o) for s, p, o in oracle_outputs["facts"] if p == url_pred
    }
    assert got_urls == want_urls
    # subjects appear at most once (maxCount 1 enforced by dropping)
    subjects = [s for s, _ in got_urls]
    assert len(subjects) == len(set(subjects))


def test_user_shape_extension(statements_root):
    """The extension surface is DATA (SURVEY §2.10): a user-supplied
    Turtle doc adding a property shape to an existing NodeShape flows
    straight into the facts pipeline."""
    from yago4_ray.build import build_facts
    from yago4_ray.state import build_state

    extra = """
    @prefix sh: <http://www.w3.org/ns/shacl#> .
    @prefix schema: <http://schema.org/> .
    @prefix wdt: <http://www.wikidata.org/prop/direct/> .
    @prefix ys: <http://yago-knowledge.org/schema#> .
    schema:Person sh:property [
        sh:path schema:knows ;
        sh:node schema:Person ;
        ys:fromProperty wdt:P26 ;
    ] .
    """
    schema = Schema.open(extra_turtle_docs=[extra])
    state = build_state(statements_root, schema=schema)
    facts, _ = build_facts(statements_root, state)
    df = facts.to_pandas()
    knows = df[df["predicate"] == "<http://schema.org/knows>"]
    spouse = df[df["predicate"] == "<http://schema.org/spouse>"]
    # same source data (P26), same filters → identical pairs
    assert len(knows) > 0
    assert set(zip(knows["subject"], knows["object"])) == set(
        zip(spouse["subject"], spouse["object"])
    )


def test_maxcount_broadcast_and_exchange_paths_identical(
    statements_root, monkeypatch
):
    """The maxCount anti-filter is volume-gated (broadcast offenders
    under the cap, full (cfg, subject) exchange above it) — both paths
    must produce the same facts and annotated facts: annotated rows pass
    through both filters, counted out of a group's size and dropped with
    an offending group. The fixture's own maxCount shapes carry no
    qualifiers, so two user shapes read the qualified P26 statements:
    schema:knows with maxCount 1 (no person has two spouses: its
    annotated rows stay) and schema:colleague with maxCount 0 (every
    group offends: its facts and annotated rows go). The fixture's
    offending url groups (test_maxcount_group_dropped) keep the facts
    half from being vacuous."""
    from yago4_ray import build
    from yago4_ray.build import build_facts
    from yago4_ray.state import build_state

    extra = """
    @prefix sh: <http://www.w3.org/ns/shacl#> .
    @prefix schema: <http://schema.org/> .
    @prefix wdt: <http://www.wikidata.org/prop/direct/> .
    @prefix ys: <http://yago-knowledge.org/schema#> .
    schema:Person sh:property [
        sh:path schema:knows ;
        sh:node schema:Person ;
        sh:maxCount 1 ;
        ys:fromProperty wdt:P26 ;
    ] , [
        sh:path schema:colleague ;
        sh:node schema:Person ;
        sh:maxCount 0 ;
        ys:fromProperty wdt:P26 ;
    ] .
    """
    state = build_state(statements_root, schema=Schema.open(extra_turtle_docs=[extra]))

    def run():
        return tuple(
            set(map(tuple, ds.to_pandas().itertuples(index=False)))
            for ds in build_facts(statements_root, state)
        )

    broadcast = run()
    monkeypatch.setattr(build, "MAXCOUNT_BROADCAST_CAP", 0)
    exchange = run()
    assert broadcast == exchange
    facts, annotated = broadcast
    annotated_paths = {p for _, p, _, ap, _ in annotated if ap}
    assert "<http://schema.org/knows>" in annotated_paths
    assert "<http://schema.org/spouse>" in annotated_paths
    colleague = "<http://schema.org/colleague>"
    assert colleague not in annotated_paths
    assert not [p for _, p, _ in facts if p == colleague]
    assert len(facts) > 0


def test_best_rank_collision_rebuilds_from_strings(
    statements_root, monkeypatch
):
    """When the fused scan's BestRank pack reports a 64-bit collision
    (set ref None, flag False), build_facts builds the exact set from
    the statement-id strings in one step — and gives the same facts as
    the hashed set."""
    import ray

    from yago4_ray import build
    from yago4_ray.build import build_facts
    from yago4_ray.state import build_state

    state = build_state(statements_root)

    def run():
        facts, annotated = build_facts(statements_root, state)
        df = facts.to_pandas()
        adf = annotated.to_pandas()
        return (
            set(zip(df["subject"], df["predicate"], df["object"])),
            set(map(tuple, adf.itertuples(index=False))),
        )

    default = run()
    calls = []
    original = build.best_rank_statements

    def counted(root):
        calls.append(root)
        return original(root)

    monkeypatch.setattr(build, "best_rank_statements", counted)
    state.prewarmed["best_rank_ref"] = (ray.put(None), ray.put(False))
    assert run() == default
    assert calls == [statements_root]
    assert len(default[0]) > 0
