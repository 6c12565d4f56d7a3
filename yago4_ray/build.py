"""The YAGO build: shape-driven fact extraction and the 9 output tables.

Re-expresses the reference's 8-thread build plan (plan.rs:103-202) as
Ray Data pipelines over the predicate-partitioned statement store:

- ONE combined pass over the p:/ps:/psv: statement families and the
  pq:/pqv: qualifiers covers every property and annotation shape at
  once (the reference loops shapes and rescans, plan.rs:1069-1199);
  per-shape dispatch is vectorized inside batches.
- Every store-reading output runs the family plan of build_dist: store
  rows routed into families, each key met with its state (a per-batch
  map over packed broadcasts, or with `state.distributed=True` — auto
  above ~50M rdf:type rows — a co-partitioned join against the state
  blocks), then one set of selections to outputs.
- The statement-subject × statement-object join is one task-based
  hash exchange keyed on statement id (`joins.exchange`). The
  qualifier objects ride its object side and meet their facts in the
  same part, so facts and annotated facts are the two row kinds of one
  join (build_dist.facts_part).
- maxCount drops the whole (shape, subject) group, its annotated rows
  with it — never truncates (A2, plan.rs:1141-1158): one exchange of
  the join's rows keyed on the mapped YAGO subject, counted and
  anti-joined in Arrow per part.

Outputs (same logical files as plan.rs:105-196):
  class, simple-types, full-types, labels, facts, annotated-facts,
  sameAs, schema, shapes. generate_yago writes every one of them as rows
  of (subject, predicate, object[, annotation_predicate,
  annotation_object]) through write_outputs: one full-key dedup exchange
  whose inputs are the stages' `joins.Blocks`, each under its row map,
  and whose reduce tasks write the part files (sources.NTriplesGzWriter).
  There is no in-memory output path and no Ray Data write job.
  build_labels/build_full_types/build_same_as serve single-output
  queries (queries.kg_*), each deduplicated.
"""

from __future__ import annotations

import functools
import json
import os
import re
from dataclasses import dataclass
from typing import Callable

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data import Dataset

from . import build_dist as D
from . import cleaners as C
from . import terms as T
from .joins import (
    Blocks,
    _arrow_distinct,
    distinct_rows,
    exchange,
    get_broadcast,
    map_blocks,
    partitions_for_nbytes,
    string_table,
)
from .schema import PropertyShape, Schema
from .sources import scan_predicate
from .state import BuildState, build_state

LABEL_PATHS = [T.RDFS_LABEL, T.RDFS_COMMENT, T.SCHEMA_ALTERNATE_NAME]

_TIME_DTS = frozenset(
    {T.XSD_DATE, T.XSD_DATE_TIME, T.XSD_G_YEAR, T.XSD_G_YEAR_MONTH}
)


def _spo_arrow(subject, predicate, obj) -> pa.Table:
    """(subject, predicate, object) as an Arrow string block from
    driver-built lists (a str is a constant column): Arrow string
    columns size exactly in Ray's estimator and ship zero-copy."""
    n = len(subject)

    def col(v):
        return pa.array([v] * n if isinstance(v, str) else v, pa.string())

    return pa.table(
        {"subject": col(subject), "predicate": col(predicate), "object": col(obj)}
    )


def _empty_triples() -> Dataset:
    return ray.data.from_arrow(_spo_arrow([], "", []))


def _triples_ds(rows: list[tuple[str, str, str]]) -> Dataset:
    if not rows:
        return _empty_triples()
    return ray.data.from_arrow(
        _spo_arrow(
            [r[0] for r in rows],
            [r[1] for r in rows],
            [r[2] for r in rows],
        )
    )


# ---------------------------------------------------------------------------
# Property-shape dispatch configs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PropConfig:
    cfg_id: str
    path: str
    parent_class: str | None
    pids: tuple[str, ...]
    mode: str  # anyuri|time|duration|integer|datatype|geo|quantity|image|range|skip
    datatypes: frozenset[str]
    range_classes: tuple[str, ...]
    pattern: str | None
    max_count: int | None

    @property
    def complex_value(self) -> bool:
        return self.mode in ("time", "duration", "integer", "geo", "quantity")


def derive_config(shape: PropertyShape, schema: Schema, cfg_id: str) -> PropConfig:
    """Value-dispatch rules of map_wikidata_property_value
    (plan.rs:1224-1385)."""
    datatypes = frozenset(shape.datatypes)
    nodes = shape.nodes
    mode = "skip"
    range_classes: tuple[str, ...] = ()
    if datatypes and nodes:
        mode = "skip"  # contradictory shape, ignored with a warning
    elif datatypes:
        if datatypes == {T.XSD_ANY_URI}:
            mode = "anyuri"
        elif datatypes == _TIME_DTS:
            mode = "time"
        elif datatypes == {T.XSD_DURATION}:
            mode = "duration"
        elif datatypes == {T.XSD_INTEGER}:
            mode = "integer"
        else:
            mode = "datatype"
    elif nodes:
        range_classes = tuple(
            schema.target_class(n) for n in nodes
        )
        if range_classes == (T.SCHEMA_GEO_COORDINATES,):
            mode = "geo"
        elif range_classes == (T.SCHEMA_QUANTITATIVE_VALUE,):
            mode = "quantity"
        elif range_classes == (T.SCHEMA_IMAGE_OBJECT,):
            mode = "image"
        else:
            mode = "range"
    pids = tuple(
        pid for p in shape.from_properties if (pid := T.pid_of(p)) is not None
    )
    parent_class = None
    if shape.parent_shape is not None:
        parent_class = schema.target_class(shape.parent_shape)
    return PropConfig(
        cfg_id=cfg_id,
        path=shape.path,
        parent_class=parent_class,
        pids=pids,
        mode=mode,
        datatypes=datatypes,
        range_classes=range_classes,
        pattern=shape.pattern,
        max_count=shape.max_count,
    )


# ---------------------------------------------------------------------------
# Shared broadcastable fact-pipeline state
# ---------------------------------------------------------------------------

# complex-value cfg mode → clean-value family
CLEAN_FAMILY = {
    "time": "time", "duration": "duration", "integer": "integer",
    "geo": "coordinates", "quantity": "quantity",
}


@ray.remote
def _count_families(block) -> dict[str, int]:
    """Rows per clean-value family of one block."""
    counts = pc.value_counts(block["family"])
    return dict(
        zip(counts.field("values").to_pylist(), counts.field("counts").to_pylist())
    )


@ray.remote
def _pack_clean_maps(*blocks) -> dict:
    """Concat the Arrow clean-value blocks, hash their value nodes and
    build the per-family value node → (object, extras) HashIndex OFF the
    driver, so the broadcast object goes worker → object store with no
    driver concat, build, or ray.put serialize (measured 3.7 s of idle-cluster driver
    wait at 22 M statements)."""
    from .broadcast import HashIndex, _hash_series

    tbl = pa.concat_tables(
        list(blocks), promote_options="permissive"
    ).combine_chunks()
    tbl = tbl.append_column(
        "h", pa.array(_hash_series(tbl["value_node"]), pa.uint64())
    )
    out: dict[str, HashIndex] = {}
    for name in CLEAN_FAMILY.values():
        fam = tbl.filter(pc.equal(tbl["family"], name))
        out[name] = HashIndex(
            fam["value_node"], fam["object"], fam["extras"], hashes=fam["h"],
            keep_keys=False,
        )
    return out


def clean_values(root: str, uri_ref, store) -> tuple[Blocks, list]:
    """The clean values (ST4): ONE scan + ONE partitioned groupby into
    (family, value_node, object, extras) Arrow blocks (reference: five
    point-lookup chains in five threads, plan.rs:908-1032), units looked
    up in the URI ref (cleaners.build_value_maps). Returns (the
    exchange's Blocks, one family-count ref per block); the distributed
    path joins the blocks (build_dist.value_join)."""
    blocks = C.build_value_maps(
        scan_predicate(root, C.ALL_VALUE_PREDICATES, store=store), uri_ref
    )
    return blocks, [_count_families.remote(b) for b in blocks.refs]


def clean_maps(root: str, uri_ref, store) -> tuple:
    """The broadcast path's clean values: (ref of the per-family maps
    packed remotely from clean_values' blocks, which are not kept past
    the pack, family-count refs)."""
    blocks, counts = clean_values(root, uri_ref, store)
    return _pack_clean_maps.remote(*blocks.refs), counts


def best_rank_statements(root: str, store) -> pa.ChunkedArray:
    """Statement ids typed wikibase:BestRank (M16/J6) as one Arrow
    column (HashIndex consumes it without a Python set pass; statement
    ids are store-unique) — build_facts' exact fallback when the fused
    scan's 64-bit BestRank hashes collide, filtered out of the store
    scan in plain tasks. The distributed path joins against the
    best-rank ids instead (build_dist.best_rank_sides)."""
    ids = map_blocks(
        scan_predicate(root, T.RDF_TYPE, store=store), D.best_rank_ids
    )
    return pa.chunked_array(
        [t["statement"] for t in ray.get(ids.refs)], pa.string()
    )


# ---------------------------------------------------------------------------
# The combined facts pipeline
# ---------------------------------------------------------------------------

def term_datatypes(obj) -> pa.Array:
    """YagoTerm::datatype over an Arrow column of canonical term strings
    (model.rs:141-155), null for IRIs/blank nodes: a typed literal's
    datatype, else rdf:langString, else xsd:string. `\\n?$` keeps
    Python's `$`, which also matches before a final newline (RE2's
    does not)."""
    is_lit = pc.starts_with(obj, '"')
    typed = pc.struct_field(
        pc.extract_regex(obj, r"\^\^<(?P<dt>[^>]+)>\n?$"), "dt"
    )
    lang = pc.match_substring_regex(obj, r'"@[A-Za-z0-9-]+\n?$')
    none = pa.scalar(None, pa.string())
    untyped = pc.if_else(
        lang, T.RDF_LANG_STRING,
        pc.if_else(pc.ends_with(obj, '"'), T.XSD_STRING, none),
    )
    return pc.if_else(
        is_lit, pc.if_else(pc.is_valid(typed), typed, untyped), none
    )


def matches_pattern(obj, pattern: str) -> pa.Array:
    """sh:pattern mask over an Arrow column of terms: only plain strings
    can pass, their value searched with Python's `re`
    (plan.rs:1388-1397). Not RE2: its `\\d` is ASCII-only, while the
    SHACL patterns (the ISBN one) mean Python's Unicode digits."""
    lit = pc.struct_field(pc.extract_regex(obj, r'^"(?P<v>.*)"$'), "v")
    plain = pc.fill_null(pc.equal(term_datatypes(obj), T.XSD_STRING), False)
    search = re.compile(pattern).search
    return pa.array(
        [
            p and v is not None and search(v) is not None
            for p, v in zip(plain.to_pylist(), lit.to_pylist())
        ],
        pa.bool_(),
    )


def _apply_max_count(
    joined: Blocks, configs: list[PropConfig], num_partitions: int = 32
) -> Blocks:
    """Whole-group drop for shapes with sh:maxCount (plan.rs:1141-1158):
    `joined`, the statement join, minus every (cfg,
    subject) group with more fact rows than its cfg's limit, the
    group's annotated rows with it (annotations attach to the facts
    that pass maxCount). `joined` unchanged when no cfg has a limit.

    One exchange keyed on the mapped YAGO subject: a group's rows come
    from every Wikidata item mapped to that subject, so no part of the
    statement-keyed join holds a whole group. Per part, Arrow counts the
    fact rows per (cfg, subject), meets the counts with the (cfg,
    limit) table and drops the offending groups with one anti-join;
    every other row passes through."""
    limited = [c for c in configs if c.max_count is not None]
    if not limited:
        return joined
    limits = pa.table({
        "cfg": pa.array([c.cfg_id for c in limited], pa.string()),
        "limit": pa.array([c.max_count for c in limited], pa.int64()),
    })

    def drop_offending(tables: list[pa.Table], _keys) -> pa.Table:
        rows = tables[0].drop_columns(["__part"])
        counts = (
            rows.filter(pc.is_null(rows["ann_cfg"]))
            .group_by(["cfg", "subject"], use_threads=False)
            .aggregate([([], "count_all")])
            .join(limits, keys="cfg", join_type="inner", use_threads=False)
        )
        over = counts.filter(pc.greater(counts["count_all"], counts["limit"]))
        if not over.num_rows:
            return rows
        return rows.join(
            over.select(["cfg", "subject"]), keys=["cfg", "subject"],
            join_type="left anti", use_threads=False,
        )

    return exchange([(joined, None)], ["subject"], drop_offending, num_partitions)


@functools.lru_cache(maxsize=8)
def prop_configs(schema: Schema) -> tuple[tuple[PropConfig, ...], tuple[PropConfig, ...]]:
    """(fact configs, annotation configs): every property shape's value
    dispatch, minus skipped shapes and the label paths (built by
    build_labels). build_facts and the family plan (build_dist) share it;
    cached per Schema (never mutated once parsed), as every family-plan
    consumer reads it."""
    configs: list[PropConfig] = []
    seen_ids: set[str] = set()
    for i, shape in enumerate(schema.property_shapes()):
        if shape.path in LABEL_PATHS:
            continue
        cfg_id = f"c{i}_{T.string_name([shape.path])}"
        if cfg_id in seen_ids:
            raise ValueError(f"duplicate property config id {cfg_id}")
        seen_ids.add(cfg_id)
        cfg = derive_config(shape, schema, cfg_id)
        if cfg.mode == "skip" or not cfg.pids:
            continue
        configs.append(cfg)

    ann_configs: list[PropConfig] = []
    for i, shape in enumerate(schema.annotation_property_shapes()):
        cfg = derive_config(shape, schema, f"a{i}_{T.string_name([shape.path])}")
        if cfg.mode == "skip" or not cfg.pids:
            continue
        ann_configs.append(cfg)
    return tuple(configs), tuple(ann_configs)


def _expander(path_ref, annotated: bool):
    """The output rows of one row kind of the statement
    join (`build_dist.facts_part`): per fact row (ann_cfg null) the
    triple (subject, cfg path, object); per annotated row that triple
    plus (annotation path, annotation object). Each row's JSON `extras`
    (its complex value's node triples, plan.rs:1209-1399) follow as
    triples, their annotation columns empty. The base rows are a column
    projection and the paths an Arrow map over the (cfg, path) table
    `path_ref`; only rows with extras take the Python loop."""
    cols = ["subject", "predicate", "object"]
    if annotated:
        cols += ["annotation_predicate", "annotation_object"]
    schema = pa.schema([(c, pa.string()) for c in cols])

    def expand(batch: pa.Table) -> pa.Table:
        kind = pc.is_valid(batch["ann_cfg"])
        rows = batch.filter(kind if annotated else pc.invert(kind))
        paths = get_broadcast(path_ref)

        def path(cfg):
            return D.map_values(rows[cfg], paths["cfg"], paths["path"])

        base = [rows["subject"], path("cfg"), rows["object"]]
        if annotated:
            base += [path("ann_cfg"), rows["ann_obj"]]
        extras = rows["extras"].filter(
            pc.fill_null(pc.not_equal(rows["extras"], ""), False)
        )
        triples = [t for e in extras.to_pylist() for t in json.loads(e)]
        added = [*zip(*triples)] or [(), (), ()]
        added += [[""] * len(triples)] * (len(cols) - 3)
        return pa.concat_tables([
            pa.table(dict(zip(cols, base))).cast(schema),
            pa.table([pa.array(a, pa.string()) for a in added], schema=schema),
        ])

    return expand


@dataclass(frozen=True)
class JoinRows:
    """One row kind of the statement join, as build_facts returns it
    with dedup=False: the maxCount-filtered join's blocks under the
    kind's row map, which generate_yago's output exchanges run in their
    map tasks. `join_bytes`/`join_rows` are the raw join's size (both
    row kinds, before maxCount): an upper bound on the kind's rows,
    which is all shuffle sizing needs. `materialize()` maps the blocks
    in plain tasks and returns the rows as a Dataset."""

    blocks: Blocks
    expand: Callable[[pa.Table], pa.Table]
    join_bytes: int
    join_rows: int

    def materialize(self):
        return map_blocks(self.blocks, self.expand).materialize()


def build_facts(
    root: str,
    state: BuildState,
    dedup: bool = True,
) -> tuple[Dataset, Dataset] | tuple[JoinRows, JoinRows]:
    """The core: (facts, annotated-facts) (plan.rs:896-1202), the two
    row kinds of ONE statement exchange, each deduplicated into a
    Dataset, or with dedup=False as `JoinRows`. See module docstring
    for the dataflow."""
    # size the statement exchange by DATA volume, not CPU count: a
    # fixed count means per-partition size grows without bound as the
    # store grows (the 100-TB killer)
    num_partitions = D.exchange_parts(state)
    configs, ann_configs = prop_configs(state.schema)
    all_configs = configs + ann_configs

    # objects first: on the distributed path it starts the item and
    # value-node exchanges together; the subject rows then select from
    # the item join's blocks. The annotation cfgs' objects (ids a…,
    # disjoint from the facts' c…) ride the same side.
    objects = D.object_rows(
        D.resolved(root, state, D.OBJECT_FAMILIES, all_configs), all_configs
    )
    subjects = D.subject_rows(D.resolved(root, state, {"subject"}, configs), configs)

    # task-based co-partitioned join: ONE Arrow exchange whose map tasks
    # run the subject/object legs' maps over the read scans — the native Dataset.join
    # here spawned num_partitions CPU-reserving aggregator actors (~1 s
    # startup each) and shuffled both sides separately
    # bundle the tag stages to ~32 MB blocks: the exchange width (and
    # its reduce count) follow INPUT block count, and the read floor
    # scales with session CPUs — without this a 32-CPU session pays a
    # 64×64 exchange where an 8-CPU one pays 16×16 on the same data
    # (the join phase is latency-bound, not compute-bound)
    _rows = state.store.num_rows()
    _row_bytes = max(1, state.store.nbytes() // max(1, _rows))
    tag_bs = max(8192, (32 << 20) // _row_bytes)
    # plain string keys: at 22 M / 8 CPUs on single-node plasma the
    # string exchange measured ~1 s FASTER per join than 128-bit digest
    # keys, and dictionary-encoded cfg saved nothing (PERF_NOTES #38)
    # keyed on statement alone: every row of a statement shares a part,
    # so the best-rank semi-join (distributed), the range-row dedup and
    # the annotation join inside D.facts_part are exact
    joined = exchange(
        [(subjects, D.SUBJ_COLS), (objects, D.OBJ_COLS),
         *D.best_rank_sides(root, state)],
        ["statement"],
        D.facts_part(
            {c.cfg_id for c in all_configs if c.mode == "range"},
            {c.cfg_id for c in ann_configs},
        ),
        num_partitions,
        tag_batch_size=tag_bs,
    )

    # maxCount re-keys the join's rows on the mapped subject in one
    # more exchange and drops an offending group's annotated rows with
    # its fact rows.
    kept = _apply_max_count(joined, configs, num_partitions)
    path_ref = ray.put(string_table(
        ["cfg", "path"], ((c.cfg_id, c.path) for c in all_configs)
    ))
    # advisory sizes for generate_yago's shuffle sizing come from the
    # raw join's blocks (its partition count and the facts leg's block
    # bound: an exchange's object count is its map tasks × reducers, so
    # an unbounded union leg makes the dedup quadratic in block count —
    # PERF_NOTES #20/#23)
    facts, annotated = (
        JoinRows(kept, _expander(path_ref, annotated=kind),
                 joined.size_bytes(), joined.count())
        for kind in (False, True)
    )
    if not dedup:
        return facts, annotated
    return (
        distinct_rows(map_blocks(kept, facts.expand),
                      ["subject", "predicate", "object"]),
        distinct_rows(map_blocks(kept, annotated.expand),
                      ["subject", "predicate", "object",
                       "annotation_predicate", "annotation_object"]),
    )


@functools.lru_cache(maxsize=8)
def label_shapes(schema: Schema) -> tuple[tuple[str, frozenset, str, tuple[str, ...]], ...]:
    """(path, datatypes, parent target class, source predicates) of the
    simple label shapes (plan.rs:818-892 dispatch table), cached like
    `prop_configs`."""
    shapes = []
    for shape in (s for s in schema.property_shapes() if s.path in LABEL_PATHS):
        if not shape.datatypes:
            raise NotImplementedError("label path without datatypes")
        if shape.nodes:
            continue
        if shape.max_count is not None or shape.pattern is not None:
            raise NotImplementedError(
                "maxCount/pattern on the simple label path (plan.rs:864-881)"
            )
        parent = schema.target_class(shape.parent_shape)
        shapes.append(
            (shape.path, frozenset(shape.datatypes), parent,
             tuple(shape.from_properties))
        )
    return tuple(shapes)


def _store_output(root: str, state: BuildState, family: str) -> Dataset:
    """Distinct (subject, predicate, object) rows of one output family
    of the family plan (build_dist.output_rows)."""
    rows = D.output_rows(D.resolved(root, state, {family}), state)
    return distinct_rows(
        D.as_blocks(D._then(rows, lambda b: b.drop_columns(["file"]))),
        ["subject", "predicate", "object"],
    )


def build_labels(root: str, state: BuildState) -> Dataset:
    """Label/comment/alternateName triples
    (build_simple_properties_from_schema, plan.rs:818-892) in ONE fused
    scan over every label predicate; the reference scans per shape."""
    return _store_output(root, state, "label")


# ---------------------------------------------------------------------------
# Types / classes (plan.rs:734-814)
# ---------------------------------------------------------------------------

def _simple_type_rows(inst: pa.Table) -> pa.Table:
    """rdf:type triples of a block of the shape-instances blocks (ST3),
    the only source of instance strings: they never transit the driver
    (`BuildState.shape_instances` holds packed hash sets)."""
    return pa.table({
        "subject": inst.column("instance").cast(pa.string()),
        "predicate": pa.repeat(pa.scalar(T.RDF_TYPE, pa.string()), inst.num_rows),
        "object": inst.column("shape").cast(pa.string()),
    })


def build_full_types(root: str, state: BuildState) -> Dataset:
    return _store_output(root, state, "types")


def _classes_static_rows(state: BuildState) -> list:
    """The driver-derived class rows (owl:Class types + subclass edges);
    the store-scan label/comment rows are the family plan's "class"
    family."""
    rows = [(c, T.RDF_TYPE, T.OWL_CLASS) for c in state.yago_classes]
    rows += [
        (sub, T.RDFS_SUB_CLASS_OF, sup)
        for sup, subs in state.yago_super_class_of.items()
        for sub in subs
    ]
    return rows


# ---------------------------------------------------------------------------
# sameAs (plan.rs:1690-1780)
# ---------------------------------------------------------------------------

def build_same_as(root: str, state: BuildState) -> Dataset:
    return _store_output(root, state, "sameAs")


# ---------------------------------------------------------------------------
# Fused output scan (generate_yago's in-memory leg)
# ---------------------------------------------------------------------------

def build_scan_outputs(root: str, state: BuildState) -> Blocks:
    """Every store-reading output row but the facts' — labels, class
    label/comment, full-types, sameAs (freebase, wikipedia, wd and
    dbpedia links) — as (file, subject, predicate, object), for
    generate_yago's in-memory dedup: the output families of the family
    plan, the same selections the per-output builders read. On the
    broadcast path that is ONE tagged pass over the union of their
    predicate partitions (four separate scans would re-read
    overlapping partitions); on the distributed path the item-keyed
    families are selections of the one shared item join. Each leg's
    blocks are mapped in plain tasks (`build_dist.as_blocks`), beside
    generate_yago's facts thread; the `Blocks` answer `materialize()`
    with a Dataset for a caller that wants one."""
    return D.as_blocks(
        D.output_rows(D.resolved(root, state, D.OUTPUT_FAMILIES), state)
    )


# ---------------------------------------------------------------------------
# Ontology + shape emission (driver-side, plan.rs:1783-2202)
# ---------------------------------------------------------------------------

def _add_list_object(
    rows: list, subject: str, predicate: str, objects: list[str]
) -> None:
    """subject predicate (o1 ... on) as rdf:first/rest (plan.rs:2000-2029)."""
    name = f"list-{T.string_name(objects)}-"
    current = T.RDF_NIL
    items = list(objects)
    while items:
        nxt = items.pop()
        node = T.blank_node(f"{name}{len(items) + 1}")
        rows.append((node, T.RDF_REST, current))
        rows.append((node, T.RDF_FIRST, nxt))
        current = node
    rows.append((subject, predicate, current))


def _add_union_of(
    rows: list, subject: str, predicate: str, objects: list[str], cls: str
) -> None:
    objects = sorted(set(objects))
    if len(objects) == 1:
        rows.append((subject, predicate, objects[0]))
        return
    union = T.blank_node(
        f"{T.string_name([subject])}-{T.string_name([predicate])}-owl-unionOf-"
        f"{T.string_name(objects)}"
    )
    rows.append((subject, predicate, union))
    rows.append((union, T.RDF_TYPE, cls))
    _add_list_object(rows, union, T.OWL_UNION_OF, objects)


def build_yago_schema(schema: Schema) -> Dataset:
    return _triples_ds(_yago_schema_rows(schema))


def _yago_schema_rows(schema: Schema) -> list:
    rows: list[tuple[str, str, str]] = []
    domains: dict[str, set[str]] = {}
    object_ranges: dict[str, set[str]] = {}
    datatype_ranges: dict[str, set[str]] = {}

    for shape in schema.node_shapes():
        cls = schema.rdfs_class(shape.target_class)
        if cls is None:
            continue
        rows.append((cls.id, T.RDF_TYPE, T.OWL_CLASS))
        if cls.label:
            rows.append((cls.id, T.RDFS_LABEL, T.term_camel_case_to_regular(cls.label)))
        if cls.comment:
            rows.append((cls.id, T.RDFS_COMMENT, cls.comment))
        for super_class in cls.super_classes:
            if super_class in (T.SCHEMA_INTANGIBLE, T.SCHEMA_ENUMERATION):
                rows.append((cls.id, T.RDFS_SUB_CLASS_OF, T.SCHEMA_THING))
            elif super_class in (T.SCHEMA_MEDICAL_INTANGIBLE, T.SCHEMA_MEDICAL_ENUMERATION):
                rows.append((cls.id, T.RDFS_SUB_CLASS_OF, T.SCHEMA_MEDICAL_ENTITY))
            elif super_class in (T.SCHEMA_STRUCTURED_VALUE, T.SCHEMA_SERIES):
                pass
            else:
                rows.append((cls.id, T.RDFS_SUB_CLASS_OF, super_class))
        for disjoint in cls.disjoint_classes:
            rows.append((cls.id, T.OWL_DISJOINT_WITH, disjoint))

    for shape in schema.property_shapes():
        prop = schema.rdf_property(shape.path)
        if prop is None:
            continue
        if shape.nodes and not shape.datatypes:
            kind = T.OWL_OBJECT_PROPERTY
        elif shape.datatypes and not shape.nodes:
            kind = T.OWL_DATATYPE_PROPERTY
        else:
            kind = T.RDF_PROPERTY
        rows.append((prop.id, T.RDF_TYPE, kind))
        if prop.label:
            rows.append((prop.id, T.RDFS_LABEL, T.term_camel_case_to_regular(prop.label)))
        if prop.comment:
            rows.append((prop.id, T.RDFS_COMMENT, prop.comment))
        for sp in prop.super_properties:
            rows.append((prop.id, T.RDFS_SUB_PROPERTY_OF, sp))
        for inv in prop.inverse:
            rows.append((prop.id, T.OWL_INVERSE_OF, inv))
        if shape.max_count == 1:
            rows.append((prop.id, T.RDF_TYPE, T.OWL_FUNCTIONAL_PROPERTY))
        if shape.parent_shape is not None:
            domains.setdefault(shape.path, set()).add(
                schema.node_shape(shape.parent_shape).target_class
            )
        for node in shape.nodes:
            object_ranges.setdefault(shape.path, set()).add(
                schema.node_shape(node).target_class
            )
        for dt in shape.datatypes:
            datatype_ranges.setdefault(shape.path, set()).add(
                T.iri(T.RDF_PLAIN_LITERAL) if dt == T.RDF_LANG_STRING else T.iri(dt)
            )

    for prop, classes in sorted(domains.items()):
        _add_union_of(rows, prop, T.RDFS_DOMAIN, sorted(classes), T.OWL_CLASS)
    for prop, classes in sorted(object_ranges.items()):
        _add_union_of(rows, prop, T.RDFS_RANGE, sorted(classes), T.OWL_CLASS)
    for prop, dts in sorted(datatype_ranges.items()):
        _add_union_of(rows, prop, T.RDFS_RANGE, sorted(dts), T.RDFS_DATATYPE)

    return sorted(set(rows))


def build_yago_shapes(schema: Schema) -> Dataset:
    return _triples_ds(_yago_shapes_rows(schema))


def _yago_shapes_rows(schema: Schema) -> list:
    rows: list[tuple[str, str, str]] = []
    for node_shape in schema.node_shapes():
        if not node_shape.properties:
            continue
        target = node_shape.target_class
        rows.append((target, T.RDF_TYPE, T.SH_NODE_SHAPE))
        rows.append((target, T.SH_TARGET_CLASS, target))
        for ps in node_shape.properties:
            sid = T.iri(
                f"{T.YAGO_VALUE_PREFIX}shape-prop-"
                f"{T.string_name([target, ps.path])}"
            )
            rows.append((target, T.SH_PROPERTY, sid))
            rows.append((sid, T.RDF_TYPE, T.SH_PROPERTY_SHAPE))
            rows.append((sid, T.SH_PATH, ps.path))
            dts = [T.iri(d) for d in ps.datatypes]
            if len(dts) == 1:
                rows.append((sid, T.SH_DATATYPE, dts[0]))
            elif len(dts) > 1:
                members = []
                for dt in dts:
                    member = T.iri(
                        f"{T.YAGO_VALUE_PREFIX}sh-datatype-{T.string_name([dt])}"
                    )
                    rows.append((member, T.SH_DATATYPE, dt))
                    members.append(member)
                _add_list_object(rows, sid, T.SH_OR, members)
            if len(ps.nodes) == 1:
                rows.append((sid, T.SH_NODE, ps.nodes[0]))
            elif len(ps.nodes) > 1:
                members = []
                for node in ps.nodes:
                    member = T.iri(
                        f"{T.YAGO_VALUE_PREFIX}sh-node-{T.string_name([node])}"
                    )
                    rows.append((member, T.SH_NODE, node))
                    members.append(member)
                _add_list_object(rows, sid, T.SH_OR, members)
            if ps.is_unique_lang:
                rows.append(
                    (sid, T.SH_UNIQUE_LANG, T.typed_literal("true", T.XSD_BOOLEAN))
                )
            if ps.max_count is not None:
                rows.append((sid, T.SH_MAX_COUNT, T.integer_literal(ps.max_count)))
            if ps.pattern is not None:
                rows.append((sid, T.SH_PATTERN, T.string_literal(ps.pattern)))
    return sorted(set(rows))


# ---------------------------------------------------------------------------
# Top-level orchestration (generate_yago, plan.rs:64-203)
# ---------------------------------------------------------------------------

# the engine's token in every output lineage: bump it with any change
# to output bytes, so resume never reuses parts written by older code
# (tests/test_checkpoint.py pins the written parts' digests per version)
OUTPUT_FORMAT_VERSION = "yago4_ray-0.1"


def output_lineage(statements_root: str, state: BuildState) -> str:
    import hashlib

    from .checkpoint import compute_lineage

    shapes_hash = hashlib.blake2b(
        "".join(
            f"{s.id}{s.target_class}{s.from_classes}{[p for p in s.properties]}"
            for s in state.schema.node_shapes()
        ).encode(),
        digest_size=8,
    ).hexdigest()
    return compute_lineage(statements_root, [shapes_hash, OUTPUT_FORMAT_VERSION])


# the columns of every row entering an output dedup; plain triples
# carry empty annotation columns
_OUT_COLS = [
    "file", "subject", "predicate", "object",
    "annotation_predicate", "annotation_object",
]


def _static_rows_table(state: BuildState) -> pa.Table:
    """The driver-built rows (schema, shapes, class types and subclass
    edges; a few thousand) as one (subject, predicate, object, file)
    table: one in-memory block, no Ray job of its own."""
    outputs = {
        "schema": _yago_schema_rows(state.schema),
        "shapes": _yago_shapes_rows(state.schema),
        "class": _classes_static_rows(state),
    }
    rows = [r for out in outputs.values() for r in out]
    files = [name for name, out in outputs.items() for _ in out]
    return _spo_arrow(
        [r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows]
    ).append_column("file", pa.array(files, pa.string()))


def _output_rows(file: str | None, rows=None):
    """The per-block map of one output-exchange input: `rows` (a block
    → output rows function, None: the block's rows as they are), then
    the output-dedup columns (_OUT_COLS, string): the `file` column the
    rows carry, else `file`; absent annotation columns empty. Then a
    per-block distinct, the dedup's combiner."""

    def fn(batch: pa.Table) -> pa.Table:
        if rows is not None:
            batch = rows(batch)

        def col(c):
            if c in batch.column_names:
                a = batch.column(c)
                return a.cast(pa.string()) if pa.types.is_null(a.type) else a
            return pa.repeat(
                pa.scalar(file if c == "file" else "", pa.string()),
                batch.num_rows,
            )

        return _arrow_distinct(pa.table({c: col(c) for c in _OUT_COLS}), _OUT_COLS)

    return fn


def write_outputs(
    inputs: list, writer, num_parts: int, tag_batch_size: int | None = None
) -> None:
    """Deduplicate the rows of `inputs` (`(input, fn)` pairs, an input a
    `joins.Blocks` or a Dataset, whose `fn`, an `_output_rows` map,
    runs in the exchange's map tasks) on
    the full row and write them with `writer` (sources.NTriplesGzWriter)
    in ONE exchange: each part's reduce task dedups the part's rows and
    writes its (file, part) files, and returns only their row counts,
    from which the driver writes the manifests. The deduplicated rows
    never reach the object store; no Ray Data write job runs.

    `tag_batch_size` bundles the inputs' blocks into map tasks: the
    exchange runs one map task per group and up to that many reducers,
    so an input must not pass an upstream's part count through
    (measured under Ray's sort shuffle: 161 input blocks → a 161×161
    exchange and a flat ~10 s dedup at every CPU count, PERF_NOTES
    #20/#23/#33)."""

    def write_part(tables: list[pa.Table], _keys) -> pa.Table:
        (t,) = tables
        # __part is a pure function of the key columns: keying on it
        # too changes nothing and keeps it for the part file's name
        return writer.write(_arrow_distinct(t, _OUT_COLS + ["__part"]))

    writer.start()
    written = exchange(
        [(inputs, None)], _OUT_COLS, write_part, num_parts,
        tag_batch_size=tag_batch_size,
    )
    writer.commit(ray.get(written.refs))


OUTPUT_FILE_NAMES = {
    "class": "yago-wd-class",
    "simple-types": "yago-wd-simple-types",
    "full-types": "yago-wd-full-types",
    "labels": "yago-wd-labels",
    "facts": "yago-wd-facts",
    "annotated-facts": "yago-wd-annotated-facts",
    "sameAs": "yago-wd-sameAs",
    "schema": "yago-wd-schema",
    "shapes": "yago-wd-shapes",
}


def generate_yago(
    statements_root: str,
    out_dir: str,
    size: str = "full",
    schema: Schema | None = None,
    state: BuildState | None = None,
    write: bool = True,
    distributed: bool | None = None,
) -> None:
    """Run the full build (plan.rs:64-203) and write every output under
    `out_dir`: one in-memory plan at every input size. The facts join
    (build_facts) runs in one thread while the fused output scan's rows
    (build_scan_outputs' legs, mapped in plain per-block tasks) are
    computed in another. No Ray Data job runs and no Dataset is built:
    every store scan is a plain-task read, and every stage hands the
    next its `joins.Blocks` (block refs with their rows, bytes and
    schemas). The driver-built rows (schema,
    shapes, class), the simple types, the output scan's rows and the
    facts are then the inputs of ONE full-key dedup exchange
    whose reduce tasks write the parts (write_outputs); the annotated facts
    dedup and write in their own exchange alongside. Every output dir
    holds hash-partitioned .nt.gz parts, each sorted within itself,
    plus a checkpoint manifest; completed outputs (same lineage) are
    skipped on rerun.

    `write` has one legal value, True: the build always writes."""
    if not write:
        raise ValueError("generate_yago always writes: write must be True")
    if state is None:
        state = build_state(
            statements_root, schema=schema, size=size, distributed=distributed
        )

    import concurrent.futures as _cf

    from .checkpoint import is_complete
    from .sources import NTriplesGzWriter, read_blocks_for_nbytes

    os.makedirs(out_dir, exist_ok=True)
    lineage = output_lineage(statements_root, state)
    # partial resume: only outputs without a valid manifest are rewritten
    # (the writer skips rows of files not in its name map)
    triple_names = {
        k: v
        for k, v in OUTPUT_FILE_NAMES.items()
        if not is_complete(os.path.join(out_dir, v), lineage)
    }
    if not triple_names:
        return  # resume: everything already written from this input

    # Every dedup input is a stage's Blocks or a driver table under a
    # map that runs in the exchange's map tasks, so no Ray Data job
    # feeds the dedup: a single union-of-9-pipelines DAG is
    # scheduler-bound and anti-scales (measured 47.6 s vs 28.0 s at 32
    # CPUs on 2.2 M statements). No global sort: hash partitioning is
    # deterministic and the writer sorts within each part file, so
    # reruns are byte-identical.
    with _cf.ThreadPoolExecutor(max_workers=3) as pool:
        # through the module: a caller may wrap build.build_facts
        f_facts = pool.submit(build_facts, statements_root, state, dedup=False)
        # the output scan's rows are computed in this thread, in plain
        # tasks beside the facts thread; on the distributed path it
        # waits on the item join the facts thread shares
        f_scan = pool.submit(build_scan_outputs, statements_root, state)
        static = _static_rows_table(state)
        inst = state.datasets["shape_instances"]
        facts, annotated = f_facts.result()
        scan = f_scan.result()

        # the annotated facts are the join's second row kind; they share
        # nothing else with the main dedup, so they run as their own
        # (small) exchange in a thread, overlapped with the main one.
        ann_name = "annotated-facts"
        facts_bytes = facts.join_bytes

        def ann_job():
            write_outputs(
                [(annotated.blocks, _output_rows(ann_name, annotated.expand))],
                NTriplesGzWriter(
                    out_dir, {ann_name: triple_names[ann_name]},
                    lineage=lineage, extensions={ann_name: ".ntx.gz"},
                ),
                # annotations are a small fraction of the facts join
                num_parts=max(8, partitions_for_nbytes(facts_bytes) // 4),
            )

        f_ann = pool.submit(ann_job) if ann_name in triple_names else None
        main_names = {k: v for k, v in triple_names.items() if k != ann_name}

        if main_names:
            # (input, in-memory bytes, rows); the raw join's size bounds
            # the max-count-filtered facts
            legs = [
                ((Blocks.of(static), _output_rows(None)),
                 static.nbytes, static.num_rows),
                ((inst, _output_rows("simple-types", _simple_type_rows)),
                 inst.size_bytes(), inst.count()),
                ((scan, _output_rows(None)), scan.size_bytes(), scan.count()),
                ((facts.blocks, _output_rows("facts", facts.expand)),
                 facts_bytes, facts.join_rows),
            ]
            nbytes = sum(leg[1] for leg in legs)
            rows = sum(leg[2] for leg in legs)
            write_outputs(
                [leg[0] for leg in legs],
                NTriplesGzWriter(out_dir, main_names, lineage=lineage),
                num_parts=max(32, partitions_for_nbytes(nbytes)),
                # the volume-sized map count of read_blocks_for_nbytes
                tag_batch_size=max(8192, -(-rows // read_blocks_for_nbytes(nbytes))),
            )
        if f_ann is not None:
            f_ann.result()
    state.stats.write(os.path.join(out_dir, "stats.tsv"))
