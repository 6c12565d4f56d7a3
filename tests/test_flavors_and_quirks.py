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
        df = scan_predicate(store, pred).materialize().to_pandas()
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


def test_maxcount_user_shapes_keep_and_drop_annotated_rows(statements_root):
    """Annotated rows pass through maxCount with their group: counted
    out of a group's size, dropped with an offending group. The
    fixture's own maxCount shapes carry no qualifiers, so two user
    shapes read the qualified P26 statements: schema:knows with
    maxCount 1 (no person has two spouses: its annotated rows stay) and
    schema:colleague with maxCount 0 (every group offends: its facts
    and annotated rows go). The fixture's offending url groups
    (test_maxcount_group_dropped) keep the facts half from being
    vacuous."""
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
    facts, annotated = (
        set(map(tuple, ds.to_pandas().itertuples(index=False)))
        for ds in build_facts(statements_root, state)
    )
    annotated_paths = {p for _, p, _, ap, _ in annotated if ap}
    assert "<http://schema.org/knows>" in annotated_paths
    assert "<http://schema.org/spouse>" in annotated_paths
    colleague = "<http://schema.org/colleague>"
    assert colleague not in annotated_paths
    assert not [p for _, p, _ in facts if p == colleague]
    assert len(facts) > 0


def test_maxcount_without_offenders_drops_nothing(ray_session):
    """With no limited cfg the join comes back as it is. With a limit no
    group exceeds, the rows come back as a set. With one over-limit
    group, exactly that group's rows go, its annotated row included;
    the same subject's rows of an unlimited cfg stay."""
    import pandas as pd
    import ray.data

    from yago4_ray.build import PropConfig, _apply_max_count

    def cfg(cfg_id, max_count):
        return PropConfig(
            cfg_id=cfg_id, path=f"<http://schema.org/{cfg_id}>",
            parent_class=None, pids=("P26",), mode="range",
            datatypes=frozenset(), range_classes=(), pattern=None,
            max_count=max_count,
        )

    rows = pd.DataFrame({
        "cfg": ["knows", "knows", "knows", "knows", "spouse"],
        "statement": ["s1", "s2", "s3", "s1", "s4"],
        "subject": ["<a>", "<a>", "<b>", "<a>", "<a>"],
        "ann_cfg": [None, None, None, "a0_start", None],
        "ann_obj": [None, None, None, '"2001"', None],
    })

    def as_set(ds):
        df = ds.materialize().to_pandas()[list(rows.columns)]
        return set(map(tuple, df.astype(object).where(df.notna(), None).values))

    joined = ray.data.from_pandas(rows).materialize()
    assert _apply_max_count(joined, [cfg("spouse", None)], num_partitions=8) is joined
    configs = [cfg("knows", 2), cfg("spouse", None)]
    assert as_set(_apply_max_count(joined, configs, num_partitions=8)) == as_set(joined)
    over = pd.concat(
        [rows, pd.DataFrame({"cfg": ["knows"], "statement": ["s5"],
                             "subject": ["<a>"]})],
        ignore_index=True,
    )
    got = as_set(_apply_max_count(
        ray.data.from_pandas(over).materialize(), configs, num_partitions=8
    ))
    dropped = over[(over["cfg"] == "knows") & (over["subject"] == "<a>")]
    assert len(dropped) == 4
    assert got == as_set(ray.data.from_pandas(over.drop(dropped.index)))


def test_maxcount_group_spans_items(
    statements_root, build_outputs, oracle_outputs, monkeypatch
):
    """maxCount groups fact rows by the MAPPED YAGO subject
    (plan.rs:1141-1158): two Wikidata items mapped to one YAGO URI, each
    with one fact of a maxCount-1 shape, form one group of two rows, and
    the whole group is dropped, as the oracle drops it. Counted per
    item, neither would offend."""
    from yago4_ray import build
    from yago4_ray.state import build_state

    seen = []
    apply_max_count = build._apply_max_count

    def recording(joined, configs, *args, **kwargs):
        kept = apply_max_count(joined, configs, *args, **kwargs)
        seen.append((
            joined.materialize().to_pandas(), kept.materialize().to_pandas()
        ))
        return kept

    monkeypatch.setattr(build, "_apply_max_count", recording)
    build.build_facts(statements_root, build_state(statements_root))
    (rows, kept), = seen

    configs, _ = build.prop_configs(Schema.open())
    paths = {c.cfg_id: c.path for c in configs}
    limit_one = {c.cfg_id for c in configs if c.max_count == 1}
    facts = rows[rows["ann_cfg"].isna() & rows["cfg"].isin(limit_one)]
    facts = facts.assign(
        item=facts["statement"].str.extract(r"/statement/(Q\d+)-", expand=False)
    )
    assert facts["item"].notna().all()
    per_item = facts.groupby(["cfg", "subject", "item"]).size()
    groups = per_item.groupby(level=["cfg", "subject"]).agg(["size", "max"])
    spanning = groups[(groups["size"] >= 2) & (groups["max"] == 1)].index
    assert len(spanning), "the fixture holds no multi-item maxCount-1 group"

    assert not set(spanning) & set(zip(kept["cfg"], kept["subject"]))
    # (subject, path) pairs another cfg of the same path keeps can't
    # show the drop in the written facts
    kept_paths = set(zip(kept["subject"], kept["cfg"].map(paths)))
    checked = [(s, paths[c]) for c, s in spanning if (s, paths[c]) not in kept_paths]
    assert checked
    for out in (build_outputs["facts"], oracle_outputs["facts"]):
        assert not {(s, p) for s, p, _ in out} & set(checked)


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

    def counted(root, store):
        calls.append(root)
        return original(root, store)

    monkeypatch.setattr(build, "best_rank_statements", counted)
    state.prewarmed["best_rank_ref"] = (ray.put(None), ray.put(False))
    assert run() == default
    assert calls == [statements_root]
    assert len(default[0]) > 0
