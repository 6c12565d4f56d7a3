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
  Datasets), then one set of selections to outputs.
- The statement-subject × statement-object join is one task-based
  hash exchange keyed on statement id (`joins.exchange`). The
  qualifier objects ride its object side and meet their facts in the
  same part, so facts and annotated facts are the two row kinds of one
  materialized join (build_dist.facts_part).
- maxCount drops the whole (shape, subject) group, its annotated rows
  with it — never truncates (A2, plan.rs:1141-1158).

Outputs (same logical files as plan.rs:105-196):
  class, simple-types, full-types, labels, facts, annotated-facts,
  sameAs, schema, shapes. generate_yago writes every one of them through
  one gz sink (sources.MultiNTriplesGzDatasink) as rows of
  (subject, predicate, object[, annotation_predicate, annotation_object]);
  there is no in-memory output path. build_labels/build_full_types/
  build_same_as serve single-output queries (queries.kg_*), each
  deduplicated.
"""

from __future__ import annotations

import functools
import json
import os
import warnings
from dataclasses import dataclass

import pandas as pd
import pyarrow as pa
import ray
import ray.data
from ray.data import Dataset

from . import build_dist as D
from . import cleaners as C
from . import terms as T
from .joins import (
    distinct_rows,
    exchange,
    get_broadcast,
    partitioned_group_apply,
    partitions_for_nbytes,
)
from .schema import PropertyShape, Schema
from .sources import scan_predicate
from .state import BuildState, build_state

LABEL_PATHS = [T.RDFS_LABEL, T.RDFS_COMMENT, T.SCHEMA_ALTERNATE_NAME]

# the volume gate, in bytes, of the maxCount offender (cfg, subject) rows:
# at or under the cap they are collected and broadcast, above it the full
# (cfg, subject) exchange runs (both sides are pytest-gated identical)
MAXCOUNT_BROADCAST_CAP = 64 << 20

_TIME_DTS = frozenset(
    {T.XSD_DATE, T.XSD_DATE_TIME, T.XSD_G_YEAR, T.XSD_G_YEAR_MONTH}
)


def _spo_arrow(subject, predicate, obj) -> "object":
    """(subject, predicate, object) as an Arrow string block. Pandas
    object-dtype outputs make Ray's block-size estimator fall back to
    np.vectorize (which errors on empty frames and mis-sizes strings)
    and get pickled through shuffles; Arrow string columns size exactly
    and ship zero-copy."""
    import pyarrow as pa

    n = len(subject)

    def col(v):
        if isinstance(v, str):
            return pa.array([v] * n, pa.string())
        if isinstance(v, pd.Series):
            v = v.to_numpy()
        return pa.array(v, pa.string(), from_pandas=True)

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
    import pyarrow.compute as pc

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
    import pyarrow as pa
    import pyarrow.compute as pc

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


def clean_values(root: str, uri_ref) -> tuple[list, list]:
    """The clean values (ST4): ONE scan + ONE partitioned groupby into
    (family, value_node, object, extras) Arrow blocks (reference: five
    point-lookup chains in five threads, plan.rs:908-1032), units looked
    up in the URI ref (cleaners.build_value_maps). Returns (block refs,
    one family-count ref per block); the distributed path joins the
    blocks (build_dist.value_join)."""
    # an exchange result, so materialized: to_arrow_refs runs nothing
    # (on a lazy Dataset it re-runs the scan for its schema, PERF_NOTES #50)
    blocks = C.build_value_maps(root, scan_predicate, uri_ref).to_arrow_refs()
    return blocks, [_count_families.remote(b) for b in blocks]


def clean_maps(root: str, uri_ref) -> tuple:
    """The broadcast path's clean values: (ref of the per-family maps
    packed remotely from clean_values' blocks, which are not kept past
    the pack, family-count refs)."""
    blocks, counts = clean_values(root, uri_ref)
    return _pack_clean_maps.remote(*blocks), counts


def best_rank_statements(root: str) -> pd.Series:
    """Statement ids typed wikibase:BestRank (M16/J6) as a Series
    (HashIndex consumes it without a Python set pass; statement ids are
    store-unique) — build_facts' exact fallback when the fused scan's
    64-bit BestRank hashes collide. The distributed path joins against
    the best-rank ids instead (build_dist.best_rank_sides)."""
    ds = scan_predicate(root, T.RDF_TYPE)
    df = ds.map_batches(
        lambda b: b[b["object"] == T.WIKIBASE_BEST_RANK][["subject"]],
        batch_format="pandas",
    ).to_pandas()
    return df["subject"]


# ---------------------------------------------------------------------------
# The combined facts pipeline
# ---------------------------------------------------------------------------

def datatype_series(obj: pd.Series) -> pd.Series:
    """Vectorized YagoTerm::datatype over canonical term strings
    (model.rs:141-155): None for IRIs/blank nodes."""
    out = pd.Series([None] * len(obj), index=obj.index, dtype=object)
    if len(obj) == 0:
        return out
    is_lit = obj.str.startswith('"')
    out[is_lit & obj.str.endswith('"')] = T.XSD_STRING
    lang = is_lit & obj.str.contains(r'"@[A-Za-z0-9-]+$', regex=True)
    out[lang] = T.RDF_LANG_STRING
    dt = obj.str.extract(r"\^\^<([^>]+)>$", expand=False)
    typed = is_lit & dt.notna()
    out[typed] = dt[typed]
    return out


def _literal_values(obj: pd.Series) -> pd.Series:
    """Vectorized plain-string literal values (no unescaping; sh:pattern
    targets — identifiers without escapes)."""
    return obj.str.extract(r'^"(.*)"$', expand=False)


def matches_pattern(obj: pd.Series, pattern: str) -> pd.Series:
    """sh:pattern mask: only plain strings can pass (plan.rs:1388-1397)."""
    lit = _literal_values(obj)
    with warnings.catch_warnings():
        # SHACL patterns carry capture groups; contains() only tests
        # for a match, so pandas' groups warning is noise
        warnings.simplefilter("ignore", UserWarning)
        has_pat = lit.str.contains(pattern, regex=True, na=False)
    return (datatype_series(obj) == T.XSD_STRING) & lit.notna() & has_pat


def _apply_max_count_exchange(
    joined: Dataset, max_counts: dict[str, int]
) -> Dataset:
    """Full-exchange maxCount path: hash-partition the limited rows by
    (cfg, subject) and drop the groups with too many fact rows per part,
    annotated rows included. Correct at any offender volume — the
    fallback when the offender set is too big to broadcast (pytest-gated
    identical to the broadcast path)."""
    limits_ref = ray.put(max_counts)
    limited_cfgs = set(max_counts)

    def keep_small(pdf: pd.DataFrame) -> pd.DataFrame:
        limits = get_broadcast(limits_ref)
        facts = pdf["ann_cfg"].isna()
        sizes = facts.groupby([pdf["cfg"], pdf["subject"]]).transform("sum")
        limit = pdf["cfg"].map(limits)
        return pdf[sizes <= limit]

    without_limit = joined.map_batches(
        lambda b: b[~b["cfg"].isin(limited_cfgs)], batch_format="pandas"
    )
    filtered = partitioned_group_apply(
        joined.map_batches(
            lambda b: b[b["cfg"].isin(limited_cfgs)], batch_format="pandas"
        ),
        ["cfg", "subject"],
        keep_small,
    )
    return without_limit.union(filtered)


def _apply_max_count(
    joined: Dataset, configs: list[PropConfig], num_partitions: int = 32
) -> tuple[Dataset, tuple | None]:
    """Whole-group drop for shapes with sh:maxCount (plan.rs:1141-1158).

    A (cfg, subject) group's size counts its fact rows; an offending
    group loses its annotated rows too, as annotations attach to the
    facts that pass maxCount.

    `joined` must be MATERIALIZED. Re-exchanging the entire limited
    payload right after the join exchange measured 143 MB / 0.5 M rows
    at 22 M statements. Group sizes are decomposable, so instead:
    per-batch (cfg, subject) count partials → one SMALL partitioned sum
    (count rows, not payload rows) → the rare offending groups come
    back to the driver as a broadcast HashIndex, which each row kind's
    `_expander` probes with its own rows only. The probe verifies hits
    exactly, so a hash collision cannot silently drop a valid group.
    Above MAXCOUNT_BROADCAST_CAP offender bytes the full-exchange path
    stands (both paths pytest-gated identical).

    Returns (rows, offenders): `offenders` is None (nothing to drop from
    `rows`) or (the limited cfg ids, the ref of the HashIndex of the
    offending groups' `_group_keys`) for `_expander`."""
    max_counts = {c.cfg_id: c.max_count for c in configs if c.max_count is not None}
    if not max_counts:
        return joined, None
    limited_cfgs = set(max_counts)
    limits_ref = ray.put(max_counts)

    _EMPTY_COUNTS = {
        "cfg": pd.Series([], dtype=object),
        "subject": pd.Series([], dtype=object),
        "n": pd.Series([], dtype="int64"),
    }

    def partial_counts(b: pd.DataFrame) -> pd.DataFrame:
        sub = b[b["cfg"].isin(limited_cfgs) & b["ann_cfg"].isna()]
        if sub.empty:
            return pd.DataFrame(_EMPTY_COUNTS)
        return (
            sub.groupby(["cfg", "subject"], as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )

    def sum_offenders(pdf: pd.DataFrame) -> pd.DataFrame:
        limits = get_broadcast(limits_ref)
        tot = pdf.groupby(["cfg", "subject"], as_index=False)["n"].sum()
        lim = tot["cfg"].map(limits)
        return tot.loc[tot["n"] > lim, ["cfg", "subject"]]

    counts = joined.map_batches(partial_counts, batch_format="pandas")
    offenders = partitioned_group_apply(
        counts,
        ["cfg", "subject"],
        sum_offenders,
        num_parts=max(4, num_partitions // 4),
    )
    if (offenders.size_bytes() or 0) > MAXCOUNT_BROADCAST_CAP:
        # materialized: the filtered rows feed both row kinds and must
        # not re-shuffle per consumption
        return _apply_max_count_exchange(joined, max_counts).materialize(), None
    blocks = ray.get(offenders.to_arrow_refs())
    if not any(b.num_rows for b in blocks):  # no offending group
        return joined, None
    from .broadcast import HashIndex

    off = pa.concat_tables(blocks)
    off_ref = ray.put(HashIndex(_group_keys(off)))
    return joined, (pa.array(sorted(limited_cfgs), pa.string()), off_ref)


def _group_keys(rows: pa.Table):
    """maxCount's (cfg, subject) group keys: a NUL occurs in no cfg id
    (c{i}_{name}), so the joined key is injective."""
    import pyarrow.compute as pc

    return pc.binary_join_element_wise(rows["cfg"], rows["subject"], "\x00")


def _drop_offenders(rows: pa.Table, limited: pa.Array, off_ref) -> pa.Table:
    """`rows` minus those of an offending (cfg, subject) group."""
    import pyarrow.compute as pc

    m = pc.is_in(rows["cfg"], value_set=limited).to_numpy(zero_copy_only=False)
    if not m.any():
        return rows
    m[m] = get_broadcast(off_ref).contains(_group_keys(rows.filter(pa.array(m))))
    return rows.filter(pa.array(~m))


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


def _expander(path_ref, annotated: bool, offenders: tuple | None = None):
    """The output rows of one row kind of the materialized statement
    join (`build_dist.facts_part`): per fact row (ann_cfg null) the
    triple (subject, cfg path, object); per annotated row that triple
    plus (annotation path, annotation object). Each row's JSON `extras`
    (its complex value's node triples, plan.rs:1209-1399) follow as
    triples, their annotation columns empty. The base rows are a column
    projection; only rows with extras take the Python loop. maxCount's
    `offenders` (`_apply_max_count`) are dropped from this kind's rows
    only, so each row is probed once across the two kinds."""
    cols = ["subject", "predicate", "object"]
    if annotated:
        cols += ["annotation_predicate", "annotation_object"]

    def expand(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        kind = pc.is_valid(batch["ann_cfg"])
        rows = batch.filter(kind if annotated else pc.invert(kind))
        if offenders is not None:
            rows = _drop_offenders(rows, *offenders)
        rows = rows.to_pandas()
        paths = get_broadcast(path_ref)
        base = [rows["subject"], rows["cfg"].map(paths), rows["object"]]
        if annotated:
            base += [rows["ann_cfg"].map(paths), rows["ann_obj"]]
        extras = rows["extras"].fillna("").to_numpy()
        triples = [t for e in extras[extras != ""] for t in json.loads(e)]
        added = [*zip(*triples)] or [(), (), ()]
        added += [[""] * len(triples)] * (len(cols) - 3)
        return pa.table(
            {
                c: pa.concat_arrays(
                    [pa.array(b.to_numpy(), pa.string(), from_pandas=True),
                     pa.array(a, pa.string())]
                )
                for c, b, a in zip(cols, base, added)
            }
        )

    return expand


def build_facts(
    root: str,
    state: BuildState,
    dedup: bool = True,
) -> tuple[Dataset, Dataset]:
    """The core: (facts, annotated-facts) Datasets (plan.rs:896-1202),
    the two row kinds of ONE statement exchange. See module docstring
    for the dataflow."""
    # size the statement exchange by DATA volume, not CPU count: a
    # fixed count means per-partition size grows without bound as the
    # store grows (the 100-TB killer)
    num_partitions = D.exchange_parts(root)
    configs, ann_configs = prop_configs(state.schema)
    all_configs = configs + ann_configs

    # objects first: on the distributed path it starts the item and
    # value-node exchanges together; the subject rows then select from
    # the materialized item join. The annotation cfgs' objects (ids a…,
    # disjoint from the facts' c…) ride the same side.
    objects = D.object_rows(
        D.resolved(root, state, D.OBJECT_FAMILIES, all_configs), all_configs
    )
    subjects = D.subject_rows(D.resolved(root, state, {"subject"}, configs), configs)

    # task-based co-partitioned join: ONE Arrow exchange fed directly by
    # the (lazy) subject/object scan stages — the native Dataset.join
    # here spawned num_partitions CPU-reserving aggregator actors (~1 s
    # startup each) and shuffled both sides separately
    # bundle the tag stages to ~32 MB blocks: the exchange width (and
    # its reduce count) follow INPUT block count, and the read floor
    # scales with session CPUs — without this a 32-CPU session pays a
    # 64×64 exchange where an 8-CPU one pays 16×16 on the same data
    # (the join phase is latency-bound, not compute-bound)
    from .sources import store_nbytes as _snb, store_num_rows as _snr

    _rows = _snr(root)
    _row_bytes = max(1, _snb(root) // max(1, _rows))
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

    # the exchange result is materialized: the facts file, the annotated
    # facts file and the stats read its blocks without recomputing the
    # pipeline. maxCount runs after it as a counts pass + broadcast
    # anti-filter inside each row kind's map, not as a second full
    # exchange before it; it drops an offending group's annotated rows
    # with its fact rows.
    kept, offenders = _apply_max_count(joined, configs, num_partitions)
    path_ref = ray.put({c.cfg_id: c.path for c in all_configs})
    facts = kept.map_batches(
        _expander(path_ref, annotated=False, offenders=offenders),
        batch_format="pyarrow",
    )
    annotated = kept.map_batches(
        _expander(path_ref, annotated=True, offenders=offenders),
        batch_format="pyarrow",
    )
    if dedup:
        facts = distinct_rows(facts, ["subject", "predicate", "object"])
        annotated = distinct_rows(
            annotated,
            ["subject", "predicate", "object",
             "annotation_predicate", "annotation_object"],
        )
    # advisory size/rows for downstream shuffle sizing (generate_yago
    # sizes the combined dedup's partition count and re-bounds the
    # facts leg's block count from them: an exchange's object count is
    # its map tasks × reducers, so an unbounded union leg makes the
    # dedup quadratic in block count — PERF_NOTES #20/#23)
    # advisory sizes come from the RAW materialized join (free), both
    # row kinds — an upper bound on the max-count-filtered fact rows,
    # which is all shuffle sizing needs
    facts.join_size_bytes = joined.size_bytes()
    facts.join_rows = joined.count()
    return facts, annotated


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
        rows.map_batches(
            lambda b: b.drop_columns(["file"]), batch_format="pyarrow"
        ),
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

def build_simple_types(state: BuildState) -> Dataset:
    """rdf:type triples straight from the shape-instances Dataset (ST3)
    — no driver-side row materialization at any scale."""
    inst = state.datasets.get("shape_instances")
    if inst is None:
        # instance strings never transit the driver (shape_instances
        # holds packed hash sets); the Dataset is the only string source
        raise ValueError(
            "BuildState.datasets['shape_instances'] required for "
            "simple-types (state built by build_state always carries it)"
        )
    return inst.map_batches(
        lambda b: _spo_arrow(b["instance"], T.RDF_TYPE, b["shape"]),
        batch_format="pandas",
    )


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

def build_scan_outputs(root: str, state: BuildState) -> Dataset:
    """Every store-reading output row but the facts' — labels, class
    label/comment, full-types, sameAs (freebase, wikipedia, wd and
    dbpedia links) — as (file, subject, predicate, object), for
    generate_yago's in-memory dedup leg: the output families of the
    family plan, the same selections the per-output builders read. On
    the broadcast path that is ONE tagged pass over the union of their
    predicate partitions (four separate pipelines would re-read
    overlapping partitions and pay four executor startups); on the
    distributed path the item-keyed families are selections of the one
    shared item join."""
    return D.output_rows(D.resolved(root, state, D.OUTPUT_FAMILIES), state)


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


def _dedup_rows(
    ds: Dataset, file: str | None, nbytes: int = 0, rows: int = 0
) -> Dataset:
    """`ds` as output-dedup rows (_OUT_COLS, Arrow): the `file` column
    the rows carry, else `file`; absent annotation columns empty. With
    `rows`, map tasks bundle the input to the volume-sized block count
    of `read_blocks_for_nbytes(nbytes)`: the dedup exchange runs one
    map task per input block and up to that many reducers, so a leg
    must not pass an upstream's part count through (measured under
    Ray's sort shuffle: 161 input blocks → a 161×161 exchange and a
    flat ~10 s dedup at every CPU count, PERF_NOTES #20/#23/#33)."""
    from .sources import read_blocks_for_nbytes

    def fn(batch: pa.Table) -> pa.Table:
        def col(c):
            if c in batch.column_names:
                a = batch.column(c)
                return a.cast(pa.string()) if pa.types.is_null(a.type) else a
            return pa.repeat(
                pa.scalar(file if c == "file" else "", pa.string()),
                batch.num_rows,
            )

        return pa.table({c: col(c) for c in _OUT_COLS})

    batch_size = (
        max(8192, -(-rows // read_blocks_for_nbytes(nbytes)))
        if rows else None
    )
    return ds.map_batches(fn, batch_format="pyarrow", batch_size=batch_size)


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
    (build_facts) runs in one thread while the fused output scan
    (build_scan_outputs) materializes in another. The driver-built rows
    (schema, shapes, class), the simple types, the output scan and the
    facts then union into ONE full-key dedup shuffle feeding one
    partitioned gz write; the annotated facts dedup and write as their
    own job alongside. Every output dir holds hash-partitioned .nt.gz
    parts, each sorted within itself, plus a checkpoint manifest;
    completed outputs (same lineage) are skipped on rerun.

    `write` has one legal value, True: the build always writes."""
    if not write:
        raise ValueError("generate_yago always writes: write must be True")
    if state is None:
        state = build_state(
            statements_root, schema=schema, size=size, distributed=distributed
        )

    import concurrent.futures as _cf

    from .checkpoint import is_complete
    from .sources import MultiNTriplesGzDatasink

    os.makedirs(out_dir, exist_ok=True)
    lineage = output_lineage(statements_root, state)
    # partial resume: only outputs without a valid manifest are rewritten
    # (the sink ignores rows of files not in its name map)
    triple_names = {
        k: v
        for k, v in OUTPUT_FILE_NAMES.items()
        if not is_complete(os.path.join(out_dir, v), lineage)
    }
    if not triple_names:
        return  # resume: everything already written from this input

    # Every dedup leg is a materialized input or a driver table under one
    # map, so the dedup job's operator count stays small: a single
    # union-of-9-pipelines DAG is scheduler-bound and anti-scales
    # (measured 47.6 s vs 28.0 s at 32 CPUs on 2.2 M statements). No
    # global sort: hash partitioning is deterministic and the sink sorts
    # within each part file, so reruns are byte-identical.
    with _cf.ThreadPoolExecutor(max_workers=3) as pool:
        f_facts = pool.submit(build_facts, statements_root, state, dedup=False)
        # on the distributed path the output scan waits on the item join
        # the facts thread shares
        f_scan = pool.submit(
            lambda: build_scan_outputs(statements_root, state).materialize()
        )
        static = _static_rows_table(state)
        simple_types = build_simple_types(state)
        inst = state.datasets["shape_instances"]
        facts, annotated = f_facts.result()
        scan = f_scan.result()

        # the annotated facts are the materialized join's second row
        # kind; they share nothing else with the main dedup, so they run
        # as their own (small) dedup+sink job in a thread, overlapped
        # with the main dedup+write.
        ann_name = "annotated-facts"
        facts_bytes = getattr(facts, "join_size_bytes", 0) or 0

        def ann_job():
            distinct_rows(
                _dedup_rows(annotated, ann_name),
                _OUT_COLS,
                # annotations are a small fraction of the facts join
                num_parts=max(8, partitions_for_nbytes(facts_bytes) // 4),
                keep_part_column=True,
            ).write_datasink(
                MultiNTriplesGzDatasink(
                    out_dir, {ann_name: triple_names[ann_name]},
                    lineage=lineage, extensions={ann_name: ".ntx.gz"},
                )
            )

        f_ann = pool.submit(ann_job) if ann_name in triple_names else None
        main_names = {k: v for k, v in triple_names.items() if k != ann_name}

        if main_names:
            # (rows, file tag, in-memory bytes, row count); the raw
            # join's size bounds the max-count-filtered facts
            legs = [
                (ray.data.from_arrow(static), None, static.nbytes, static.num_rows),
                (simple_types, "simple-types", inst.size_bytes() or 0,
                 inst.count()),
                (scan, None, scan.size_bytes() or 0, scan.count()),
                (facts, "facts", facts_bytes, getattr(facts, "join_rows", 0)),
            ]
            tagged = [_dedup_rows(*leg) for leg in legs]
            distinct_rows(
                tagged[0].union(*tagged[1:]),
                _OUT_COLS,  # full key incl. annotation columns ("")
                num_parts=max(
                    32, partitions_for_nbytes(sum(leg[2] for leg in legs))
                ),
                keep_part_column=True,  # the sink names parts by __part
            ).write_datasink(
                MultiNTriplesGzDatasink(out_dir, main_names, lineage=lineage)
            )
        if f_ann is not None:
            f_ann.result()
    state.stats.write(os.path.join(out_dir, "stats.tsv"))
