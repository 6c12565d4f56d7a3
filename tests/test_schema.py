"""Tests for the Turtle-subset parser and the schema/shape model."""

from yago4_ray import terms as T
from yago4_ray.schema import Schema
from yago4_ray.turtle import parse_turtle


def test_parse_turtle_basics():
    doc = """
    @prefix ex: <http://example.org/> .
    @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
    ex:a ex:p ex:b ; ex:q "v"@en , "plain" , 5 , true , 2.5 .
    ex:b a ex:C .
    """
    triples = set(parse_turtle(doc))
    ex = "http://example.org/"
    assert (f"<{ex}a>", f"<{ex}p>", f"<{ex}b>") in triples
    assert (f"<{ex}a>", f"<{ex}q>", '"v"@en') in triples
    assert (f"<{ex}a>", f"<{ex}q>", '"plain"') in triples
    assert (f"<{ex}a>", f"<{ex}q>", T.integer_literal(5)) in triples
    assert (f"<{ex}a>", f"<{ex}q>", T.typed_literal("true", T.XSD_BOOLEAN)) in triples
    assert (f"<{ex}a>", f"<{ex}q>", T.decimal_literal("2.5")) in triples
    assert (f"<{ex}b>", T.RDF_TYPE, f"<{ex}C>") in triples


def test_parse_turtle_blank_and_collection():
    doc = """
    @prefix ex: <http://example.org/> .
    ex:s ex:p [ ex:inner "x" ; ex:also ex:y ] .
    ex:s ex:list ( ex:a ex:b ) .
    """
    triples = parse_turtle(doc)
    ex = "http://example.org/"
    blanks = [o for s, p, o in triples if p == f"<{ex}p>"]
    assert len(blanks) == 1 and blanks[0].startswith("_:")
    inner = [(p, o) for s, p, o in triples if s == blanks[0]]
    assert (f"<{ex}inner>", '"x"') in inner
    # collection structure walks to both members
    firsts = {o for s, p, o in triples if p == T.RDF_FIRST}
    assert firsts == {f"<{ex}a>", f"<{ex}b>"}


def test_schema_open_and_shapes():
    schema = Schema.open()
    shapes = {s.id: s for s in schema.node_shapes()}
    person = shapes["<http://schema.org/Person>"]
    assert person.target_class == "<http://schema.org/Person>"
    # the vendored full shapes map schema:Person from wd:Q215627 (person);
    # humans (wd:Q5) reach it through the P279 closure (shapes.ttl:1447)
    assert person.from_classes == (T.wd(215627),)

    by_path = {p.path: p for p in person.properties}
    bd = by_path["<http://schema.org/birthDate>"]
    # sh:or datatype list flattened (schema.rs:275-283)
    assert sorted(bd.datatypes) == sorted(
        [T.XSD_DATE_TIME, T.XSD_DATE, T.XSD_G_YEAR_MONTH, T.XSD_G_YEAR]
    )
    assert bd.max_count == 1
    assert bd.from_properties == (f"<{T.WDT}P569>",)
    assert bd.parent_shape == "<http://schema.org/Person>"

    sp = by_path["<http://schema.org/spouse>"]
    assert sp.nodes == ("<http://schema.org/Person>",)
    assert sp.max_count is None

    # sh:or node list
    thing = schema.node_shape("<http://schema.org/CreativeWork>")
    author = {p.path: p for p in thing.properties}["<http://schema.org/author>"]
    assert sorted(author.nodes) == [
        "<http://schema.org/Organization>",
        "<http://schema.org/Person>",
    ]

    # pattern + uniqueLang
    org = shapes["<http://schema.org/Organization>"]
    lei = {p.path: p for p in org.properties}["<http://schema.org/leiCode>"]
    assert lei.pattern == "^[0-9A-Z]{18}[0-9]{2}$"
    label = {p.path: p for p in shapes["<http://schema.org/Thing>"].properties}[
        T.RDFS_LABEL
    ]
    assert label.is_unique_lang


def test_full_rule_set_counts():
    """The packaged rule set is the reference's full public data
    (schema.rs:304-309: schema.ttl + shapes.ttl + bioschemas.ttl +
    shapes-bio.ttl); the parsed shape inventory must match it."""
    schema = Schema.open()
    node_shapes = schema.node_shapes()
    prop_shapes = schema.property_shapes()
    # 262 node shapes in shapes.ttl + 6 in shapes-bio.ttl
    assert len(node_shapes) == 268
    assert len(prop_shapes) == 218
    assert len(schema.annotation_property_shapes()) == 2
    # 238 ys:fromClass in shapes.ttl + 5 in shapes-bio.ttl
    assert sum(len(n.from_classes) for n in node_shapes) == 243
    assert sum(len(p.from_properties) for p in prop_shapes) == 230
    # every sh:node target resolves to a node shape in the set
    ids = {n.id for n in node_shapes}
    for p in prop_shapes:
        for node in p.nodes:
            assert node in ids, node


def test_annotation_shapes():
    schema = Schema.open()
    anns = {a.path: a for a in schema.annotation_property_shapes()}
    assert set(anns) == {
        "<http://schema.org/startDate>",
        "<http://schema.org/endDate>",
    }
    start = anns["<http://schema.org/startDate>"]
    assert start.from_properties == (f"<{T.PQ_PREFIX}P580>",)
    assert T.XSD_G_YEAR in start.datatypes


def test_classes_and_properties():
    schema = Schema.open()
    classes = {c.id: c for c in schema.classes()}
    person = classes["<http://schema.org/Person>"]
    assert person.super_classes == ("<http://schema.org/Thing>",)
    assert "<http://schema.org/Place>" in person.disjoint_classes
    prop = schema.rdf_property("<http://schema.org/birthDate>")
    assert prop.label == '"birthDate"'
    assert schema.rdf_property("<http://example.org/nope>") is None


def test_packaged_rule_set_parsed_once():
    """Schema.open() parses the packaged rule set once per process and
    hands every caller the same Schema; extra shape docs get a fresh
    Schema that leaves the shared one untouched."""
    extra = """
    @prefix sh: <http://www.w3.org/ns/shacl#> .
    @prefix ex: <http://example.org/> .
    ex:Widget a sh:NodeShape ; sh:targetClass ex:Widget .
    """
    widget = "<http://example.org/Widget>"
    shared = Schema.open()
    assert Schema.open() is shared

    extended = Schema.open(extra_turtle_docs=[extra])
    assert extended is not shared
    assert widget in {s.id for s in extended.node_shapes()}
    assert len(extended.graph.triples) > len(shared.graph.triples)

    later = Schema.open()
    assert later is shared
    assert widget not in {s.id for s in later.node_shapes()}


def test_shared_rule_set_not_mutated_by_its_readers():
    """Every build in a process reads the same Schema, so nothing that
    walks it may change the lists its Graph hands out: after every
    reader in the build, extraction and output code has run, the shared
    graph still equals a fresh parse of the packaged rule set."""
    from yago4_ray.build import _yago_schema_rows, _yago_shapes_rows, derive_config
    from yago4_ray.extract import pid_value_kinds
    from yago4_ray.schema import _packaged_docs
    from yago4_ray.state import subclass_of_from_yago_schema

    shared = Schema.open()
    shared.classes()
    for i, shape in enumerate(shared.property_shapes()):
        derive_config(shape, shared, f"c{i}")
    for i, shape in enumerate(shared.annotation_property_shapes()):
        derive_config(shape, shared, f"a{i}")
    pid_value_kinds(shared)
    subclass_of_from_yago_schema(shared)
    _yago_schema_rows(shared)
    _yago_shapes_rows(shared)

    fresh = Schema(_packaged_docs())
    assert shared.graph.triples == fresh.graph.triples
    assert shared.graph._sp == fresh.graph._sp
    assert shared.graph._po == fresh.graph._po


def test_rule_set_parsed_once_under_concurrent_opens(monkeypatch, run_concurrently):
    """Extraction opens the rule set on a thread while build_state opens
    it on the main thread: concurrent first opens still parse once and
    share one Schema."""
    from yago4_ray import schema as S

    parses = []
    packaged_docs = S._packaged_docs

    def counting_docs():
        parses.append(1)
        return packaged_docs()

    monkeypatch.setattr(S, "_PACKAGED", None)
    monkeypatch.setattr(S, "_packaged_docs", counting_docs)
    got = run_concurrently(Schema.open)
    assert all(s is got[0] for s in got)
    assert len(parses) == 1
