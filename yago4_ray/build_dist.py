"""The family plan: the one build plan both state paths share.

The reference answers every state question with an in-RAM point lookup
(URI map, shape instances, clean values, best rank; plan.rs:227-382,
641-731). Every store-reading output here (facts, annotated facts,
labels, full types, sameAs, class labels) is built in three steps, and
only the middle one depends on the state regime:

- Routing (`family_scan`): one map routes store rows into
  (family, tag, key, value) rows. Families and their (tag, key, value):
  - subject: (pid, item, statement) of p: rows
  - range:   (cfg id, item, statement) of the ps:/pq: rows of range cfgs
  - label:   (label shape index, item, object) of datatype-filtered
    label rows
  - types:   ("", item, wd class) of P31 rows
  - sameAs:  (output predicate, item, object) of P646 and schema:about
    rows, plus the enwiki (dbpedia) and URI-mapping (wd) state rows
  - value:   (cfg id, value node, statement) of the psv:/pqv: rows of
    complex-value cfgs
  - object:  (cfg id, object, statement) of the stateless cfgs'
    (anyuri/image/datatype) ps:/pq: rows, already converted
  - class:   (output predicate, class, object) of class label/comment
    rows
- Lookups (`resolved`): each key meets its state, giving
  (family, tag, value, shape, instance, extras) rows. An item keeps one
  row per shape its family admits (a cfg's parent shape or range
  classes, a label's parent shape, schema:Thing); a value node resolves
  to its cleaned (object, extras).
  - Broadcast state: a per-batch map over the packed refs (URI map,
    shape instances, clean-value maps, best-rank set) that runs in the
    consuming exchange's map tasks over the store scan's blocks;
    the best-rank filter runs in that map.
  - Distributed state: the item families in ONE hash-keyed exchange
    against `si_by_item`, the value nodes in ONE (family, value_node)
    exchange against the clean-value blocks, each built once
    per BuildState and shared by every consumer; the best-rank ids are
    a side of the statement exchange (`best_rank_sides`).
  Stateless object rows and the class-graph-scale class labels take
  the per-batch map on both paths.
- Selections (`subject_rows`, `object_rows`, `output_rows`): resolved
  rows to the statement exchange's sides and to output triples.

Every step is an Arrow function (pa.Table → pa.Table) from the store
scan to the writer, with no pandas batch anywhere: a per-(family, tag)
choice is a join against a small constant Arrow table ((family, tag,
shape) admitted shapes, (tag, shape, cfg) subject fan-out, (wd class,
yago class) types) or a `map_values` lookup; only the scalar converters
(freebase ids, anyURIs) and sh:pattern's Python `re` run per value,
over Arrow columns.

build.build_facts runs the one statement exchange with `facts_part`:
the best-rank semi-join (distributed), the exact range-row dedup (an
sh:or range admits an item once per class, and maxCount counts rows),
the (cfg, statement) join giving the fact rows and the statement join
of those with the annotation cfgs' object rows giving the annotated
rows; the annotation objects ride the objects side.

Every join is one `joins.exchange`: task-based hash exchanges, NOT
Ray's actor-based `Dataset.join` (a DAG this join-dense would
oversubscribe a session with CPU-reserving aggregator actors; see
exchange's docstring for the measured stall). Every exchange is sized
to the store's data volume (`partitions_for_nbytes`).

Partitioning note (north_rule): every join hash-partitions on its join
key. A statement key carries a few rows, but the item join's keys are
skew-prone: it keys the range family by object item (Q5, Q30 are the
objects of millions of statements) and the subject family by subject,
so every row of a hub item lands in one part. ROADMAP item 10 salts
hot keys inside `exchange`.

Mode selection lives in state.build_state(distributed=...); both paths
produce identical outputs (tests/test_distributed.py gates set equality
against the broadcast path, which the e2e oracle gates, and the written
part files' sha256 and stats.tsv across the two paths)."""

from __future__ import annotations

import concurrent.futures as _cf
import functools
import threading

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from . import cleaners as C
from . import terms as T
from .joins import (
    Blocks,
    _arrow_distinct,
    copartition_join,
    exchange,
    get_broadcast,
    map_blocks,
    string_table,
)
from .sources import scan_predicate

ROUTED = ["family", "tag", "key", "value"]
RESOLVED = ["family", "tag", "value", "shape", "instance", "extras"]
SUBJ_COLS = ["cfg", "statement", "subject"]
OBJ_COLS = ["cfg", "statement", "object", "extras"]
OUT_COLS = ["file", "subject", "predicate", "object"]

ITEM_FAMILIES = frozenset({"subject", "range", "label", "types", "sameAs"})
# the families whose key is a wd item (or class) the URI map resolves
KEYED = ITEM_FAMILIES | {"class"}
OBJECT_FAMILIES = frozenset({"range", "object", "value"})
# output family → generate_yago output name
OUTPUT_FILES = {
    "label": "labels", "types": "full-types", "sameAs": "sameAs",
    "class": "class",
}
OUTPUT_FAMILIES = frozenset(OUTPUT_FILES)


def exchange_parts(state) -> int:
    """Partition count of every build exchange: the store's data
    volume (from the footer facts build_state read once)."""
    from .joins import partitions_for_nbytes

    return partitions_for_nbytes(state.store.nbytes())


def _table(cols: list[str], *values) -> pa.Table:
    """One Arrow string block of `cols`, each value an aligned Arrow
    column or a str constant: empty and non-empty blocks share one
    schema through the downstream exchanges."""
    n = next(len(v) for v in values if not isinstance(v, str))
    return pa.table({
        c: pa.repeat(pa.scalar(v, pa.string()), n) if isinstance(v, str)
        else v.cast(pa.string())
        for c, v in zip(cols, values)
    })


def _no_rows(cols: list[str]) -> pa.Table:
    return pa.table({c: pa.array([], pa.string()) for c in cols})


def _empty(columns: list[str]) -> Blocks:
    return Blocks.of(_no_rows(columns))


def map_values(values, keys, to):
    """`to` at each value's position in `keys` (distinct), null where
    absent: a small dict map as one Arrow lookup."""
    return to.take(pc.index_in(values, value_set=keys))


# The plan's rows travel as LEGS, a list of (Blocks, fn | None) pairs
# (the inputs of an exchange side, joins.exchange). Every leg's Blocks
# are a finished task result (a store scan, a state relation, a shared
# exchange result), and the maps over it compose into one per-block
# Arrow function that the consuming exchange's map tasks run. So no Ray
# Data job runs to map blocks, and no union of legs runs at all.

def _then(legs: list, fn) -> list:
    """Every leg of `legs` mapped by `fn` (pa.Table → pa.Table)."""
    return [
        (ds, fn if f is None else functools.partial(_compose, f, fn))
        for ds, f in legs
    ]


def _compose(f, g, t: pa.Table) -> pa.Table:
    return g(f(t))


def as_blocks(legs: list) -> Blocks:
    """The rows of `legs` (each under a map) as one `Blocks`, every
    leg's blocks mapped in plain tasks (`joins.map_blocks`): the output
    scan's rows and the single-output queries' form. A build's
    exchanges take the legs themselves."""
    mapped = [map_blocks(blocks, fn) for blocks, fn in legs]
    return Blocks(
        [r for m in mapped for r in m.refs], [x for m in mapped for x in m.meta]
    )


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------

# An emit maps one predicate's rows (a pa.Table) to its (key, value)
# columns; `dtypes()` is the rows' term_datatypes, computed once.

def _subject_keyed(g: pa.Table, dtypes):
    return g["subject"], g["object"]


def _object_keyed(g: pa.Table, dtypes):
    return g["object"], g["subject"]


def _of_datatypes(dtypes, dts) -> pa.Array:
    return pc.is_in(dtypes(), value_set=pa.array(sorted(dts), pa.string()))


def _converted(convert, col) -> pa.Array:
    """A scalar converter (str → str | None) over an Arrow column."""
    return pa.array([convert(v) for v in col.to_pylist()], pa.string())


def _datatyped(dts: frozenset):
    def emit(g: pa.Table, dtypes):
        keep = _of_datatypes(dtypes, dts)
        return g["subject"].filter(keep), g["object"].filter(keep)

    return emit


def _freebase(g: pa.Table, dtypes):
    """P646 rows → owl:sameAs freebase ids (plan.rs:1730-1739)."""
    fb = _converted(C.convert_freebase_id, g["object"])
    keep = pc.is_valid(fb)
    return g["subject"].filter(keep), fb.filter(keep)


def _wikipedia(g: pa.Table, dtypes):
    """schema:about rows with wikipedia subjects → schema:sameAs URL
    literals (plan.rs:1711-1728)."""
    subj = g["subject"]
    keep = pc.and_(
        pc.starts_with(subj, "<"),
        pc.match_substring(subj, ".wikipedia.org/wiki/"),
    )
    urls = pc.utf8_slice_codeunits(subj.filter(keep), 1, -1)
    return g["object"].filter(keep), pc.binary_join_element_wise(
        '"', urls, f'"^^<{T.XSD_ANY_URI}>', ""
    )


def _stateless(cfg):
    """ps:/pq: rows of a stateless cfg → (converted object, statement)
    (plan.rs:1209-1399's anyuri/image/datatype dispatch)."""

    def emit(g: pa.Table, dtypes):
        objs = g["object"]
        if cfg.mode == "anyuri":
            objs = _converted(C.validate_any_uri, objs)
            keep = pc.is_valid(objs)
        elif cfg.mode == "image":
            keep = pc.starts_with(objs, "<" + C.COMMONS_PREFIX)
        else:
            keep = _of_datatypes(dtypes, cfg.datatypes)
        return objs.filter(keep), g["subject"].filter(keep)

    return emit


def _routes(schema, families, cfg_ids=None) -> dict[str, list]:
    """predicate → [(family, tag, emit)] for the rows of `families`,
    restricted to the cfgs in `cfg_ids` (None: every cfg); emit(rows,
    dtypes) → (key, value) columns."""
    from .build import label_shapes, prop_configs

    configs, ann_configs = prop_configs(schema)
    routes: dict[str, list] = {}

    def add(pred, family, tag, emit):
        if family not in families:
            return
        known = routes.setdefault(pred, [])
        if all((f, t) != (family, tag) for f, t, _ in known):
            known.append((family, tag, emit))

    for cfgs, (subject, simple, complex_) in (
        (configs, (T.P_PREFIX, T.PS_PREFIX, T.PSV_PREFIX)),
        (ann_configs, (None, T.PQ_PREFIX, T.PQV_PREFIX)),
    ):
        for cfg in cfgs:
            if cfg_ids is not None and cfg.cfg_id not in cfg_ids:
                continue
            for pid in cfg.pids:
                if subject is not None:
                    add(T.iri(f"{subject}{pid}"), "subject", pid, _subject_keyed)
                if cfg.mode == "range":
                    add(T.iri(f"{simple}{pid}"), "range", cfg.cfg_id, _object_keyed)
                elif cfg.complex_value:
                    add(T.iri(f"{complex_}{pid}"), "value", cfg.cfg_id, _object_keyed)
                else:
                    add(T.iri(f"{simple}{pid}"), "object", cfg.cfg_id, _stateless(cfg))
    for i, (_path, dts, _parent, preds) in enumerate(label_shapes(schema)):
        for pred in preds:
            add(pred, "label", str(i), _datatyped(dts))
    add(f"<{T.WDT}P31>", "types", "", _subject_keyed)
    add(f"<{T.WDT}P646>", "sameAs", T.OWL_SAME_AS, _freebase)
    add(T.SCHEMA_ABOUT, "sameAs", T.SCHEMA_SAME_AS, _wikipedia)
    add(T.SKOS_PREF_LABEL, "class", T.RDFS_LABEL, _subject_keyed)
    add(T.SCHEMA_DESCRIPTION, "class", T.RDFS_COMMENT, _subject_keyed)
    return routes


def family_scan(root: str, schema, families, store, cfg_ids=None) -> list:
    """The leg of the routed (family, tag, key, value) rows of
    `families`: ONE store scan over their predicates under the routing
    map, which the consuming exchange's map tasks run; no leg when no
    predicate feeds them. `store` is the store's footer facts
    (BuildState.store)."""
    from .build import term_datatypes

    routes = _routes(schema, families, cfg_ids)
    if not routes:
        return []

    def route(batch: pa.Table) -> pa.Table:
        out = [_no_rows(ROUTED)]
        preds = batch["predicate"]
        unique = pc.unique(preds).to_pylist()
        for pred in unique:
            group = batch if len(unique) == 1 else batch.filter(
                pc.equal(preds, pred)
            )
            dtypes = functools.cache(
                functools.partial(term_datatypes, group["object"])
            )
            for family, tag, emit in routes.get(pred, ()):
                out.append(_table(ROUTED, family, tag, *emit(group, dtypes)))
        return pa.concat_tables(out)

    return [(scan_predicate(root, sorted(routes), store=store), route)]


def item_scan(root: str, schema, store) -> list:
    """The store leg of `item_join`: every item-keyed family in one
    scan. build_state reads it (state.prewarmed["item_scan"]) while the
    state builds, so the read does not head the facts chain."""
    return family_scan(root, schema, ITEM_FAMILIES, store)


def _same_as_state_rows(state) -> list:
    """The sameAs family's rows from the state blocks, as legs: enwiki →
    dbpedia links and the URI mapping's wd identity links, keyed by
    item."""

    def dbpedia(b: pa.Table) -> pa.Table:
        urls = pc.replace_substring(
            b["url"], C.ENWIKI_PREFIX, C.DBPEDIA_PREFIX
        )
        return _table(ROUTED, "sameAs", T.OWL_SAME_AS, b["item"],
                      pc.binary_join_element_wise("<", urls, ">", ""))

    def wd(b: pa.Table) -> pa.Table:
        return _table(ROUTED, "sameAs", T.OWL_SAME_AS, b["item"], b["item"])

    return [
        *_then([(state.datasets["enwiki"], None)], dbpedia),
        *_then([(state.datasets["uri_mapping"], None)], wd),
    ]


def _admitted(schema) -> pa.Table:
    """(family, tag, shape) rows: the shapes an item of that family must
    be an instance of; the row keeps one resolved row per such shape."""
    from .build import label_shapes, prop_configs

    configs, ann_configs = prop_configs(schema)
    rows = []
    for cfg in configs:
        if cfg.parent_class is None:
            raise ValueError(f"No parent shape for {cfg.path}")
        rows += [("subject", pid, cfg.parent_class) for pid in cfg.pids]
    rows += [
        ("range", cfg.cfg_id, cls)
        for cfg in configs + ann_configs if cfg.mode == "range"
        for cls in cfg.range_classes
    ]
    rows += [
        ("label", str(i), parent)
        for i, (_path, _dts, parent, _preds) in enumerate(label_shapes(schema))
    ]
    rows += [("types", "", T.SCHEMA_THING),
             ("sameAs", T.OWL_SAME_AS, T.SCHEMA_THING),
             ("sameAs", T.SCHEMA_SAME_AS, T.SCHEMA_THING)]
    return string_table(["family", "tag", "shape"], dict.fromkeys(rows))


def _clean_families(schema) -> pa.Table:
    """(tag, clean): each complex-value cfg id's clean-value family."""
    from .build import CLEAN_FAMILY, prop_configs

    configs, ann_configs = prop_configs(schema)
    return string_table(["tag", "clean"], (
        (c.cfg_id, CLEAN_FAMILY[c.mode])
        for c in configs + ann_configs if c.complex_value
    ))


# ---------------------------------------------------------------------------
# Lookups: where a key meets its state
# ---------------------------------------------------------------------------

def resolved(root: str, state, families, configs=None) -> list:
    """The legs of the (family, tag, value, shape, instance, extras)
    rows of `families` (the cfg-fed families for the cfgs in `configs`;
    None: every cfg), each key met with its state. The one place the
    state regime shows: joined from the shared exchange results on the
    distributed path, a per-batch map over the store scan (run in the
    consuming exchange's map tasks) otherwise. The selections filter
    the shared exchanges' rows down to `configs`."""
    cfg_ids = None if configs is None else {c.cfg_id for c in configs}
    # only the families some predicate of these cfgs feeds: a join leg
    # without rows would still read a whole exchange result
    families = frozenset(
        f for routes in _routes(state.schema, families, cfg_ids).values()
        for f, _, _ in routes
    )
    joins = []
    local = families
    if state.distributed:
        joins = [
            fn for fn, fams in ((item_join_cached, ITEM_FAMILIES),
                                (value_join_cached, {"value"}))
            if families & fams
        ]
        local = families - ITEM_FAMILIES - {"value"}
    with _cf.ThreadPoolExecutor(max_workers=2) as pool:
        # the two state exchanges run concurrently and the local scan
        # reads under them
        futures = [pool.submit(fn, root, state) for fn in joins]
        legs = _local_rows(root, state, local, cfg_ids) if local else []
        joined = [f.result() for f in futures]
    fams = pa.array(sorted(families), pa.string())
    legs += _then(
        [(blocks, None) for blocks in joined if blocks is not None],
        lambda b: b.filter(pc.is_in(b["family"], value_set=fams)),
    )
    return legs or [(_empty(RESOLVED), None)]


def _local_rows(root: str, state, families, cfg_ids) -> list:
    """The legs of `families` resolved by a per-batch map over packed
    refs: object rows pass through; value nodes meet their clean-value
    map (one lookup per clean family); keyed rows meet the URI map, a
    class row then the class set, an item row the admitted
    (family, tag, shape) table and one membership probe per shape."""
    legs = family_scan(root, state.schema, families, state.store, cfg_ids)
    if "sameAs" in families:
        legs += _same_as_state_rows(state)
    if not legs:
        return []
    refs: dict = {}
    if families & KEYED:
        refs["uri"] = state.uri_ref
    if families & ITEM_FAMILIES:
        refs["instances"] = state.shape_instances
    if "subject" in families:
        refs["best"] = _best_rank_ref(root, state)
    if "value" in families:
        refs["clean"], _ = state.prewarmed["clean_maps"].result()
    if "class" in families:
        refs["classes"] = state.yago_classes_ref
    admitted = _admitted(state.schema)
    clean_families = _clean_families(state.schema)
    keyed_families = pa.array(sorted(KEYED), pa.string())

    def lookup(b: pa.Table) -> pa.Table:
        if "best" in refs:
            subj = pc.equal(b["family"], "subject").to_numpy(
                zero_copy_only=False
            )
            if subj.any():
                keep = ~subj
                keep[subj] = get_broadcast(refs["best"]).contains(
                    b["value"].filter(subj)
                )
                b = b.filter(keep)
        family = b["family"]
        objs = b.filter(pc.equal(family, "object"))
        out = [_table(RESOLVED, objs["family"], objs["tag"], objs["value"],
                      "", objs["key"], "")]
        values = b.filter(pc.equal(family, "value")).join(
            clean_families, keys="tag", join_type="inner", use_threads=False
        )
        for name in pc.unique(values["clean"]).to_pylist():
            g = values.filter(pc.equal(values["clean"], name))
            obj, extras = get_broadcast(refs["clean"])[name].lookup(g["key"])
            g = g.append_column("object", obj).append_column(
                "extras", pc.fill_null(extras, "")
            ).filter(pc.is_valid(obj))
            out.append(_table(RESOLVED, g["family"], g["tag"], g["value"],
                              "", g["object"], g["extras"]))
        keyed = b.filter(pc.is_in(family, value_set=keyed_families))
        if keyed.num_rows:
            inst = get_broadcast(refs["uri"]).lookup(keyed["key"])
            keyed = keyed.append_column(
                "instance", inst.cast(pa.string())
            ).filter(pc.is_valid(inst))
            is_class = pc.equal(keyed["family"], "class")
            classes = keyed.filter(is_class)
            if classes.num_rows:
                classes = classes.filter(
                    get_broadcast(refs["classes"]).contains(classes["instance"])
                )
            out.append(_table(RESOLVED, classes["family"], classes["tag"],
                              classes["value"], "", classes["instance"], ""))
            items = keyed.filter(pc.invert(is_class)).join(
                admitted, keys=["family", "tag"], join_type="inner",
                use_threads=False,
            )
            shapes = items["shape"]
            keep = np.zeros(items.num_rows, bool)
            for shape in pc.unique(shapes).to_pylist():
                members = get_broadcast(refs["instances"]).get(shape)
                if members is not None:
                    at = pc.equal(shapes, shape).to_numpy(zero_copy_only=False)
                    keep[at] = members.contains(items["instance"].filter(at))
            items = items.filter(keep)
            out.append(_table(RESOLVED, items["family"], items["tag"],
                              items["value"], items["shape"],
                              items["instance"], ""))
        return pa.concat_tables(out)

    return _then(legs, lookup)


def _best_rank_ref(root: str, state) -> "ray.ObjectRef":
    """The broadcast best-rank set: packed remotely out of build_state's
    fused scan; rebuilt exactly from the statement ids when two of them
    share a 64-bit hash."""
    from . import build as B

    set_ref, ok_ref = state.prewarmed["best_rank_ref"]
    if ray.get(ok_ref):  # tiny bool; the pack resolved long ago
        return set_ref
    from .broadcast import HashIndex

    return ray.put(HashIndex(B.best_rank_statements(root, state.store)))


def best_rank_sides(root: str, state) -> list[tuple[list, list[str]]]:
    """The statement exchange's best-rank side: the distributed path
    semi-joins the best-rank ids inside `facts_part`; the broadcast
    lookup has already filtered the subject rows."""
    if not state.distributed:
        return []
    return [(
        [(scan_predicate(root, T.RDF_TYPE, store=state.store), best_rank_ids)],
        ["statement"],
    )]


def best_rank_ids(b: pa.Table) -> pa.Table:
    """The (statement) ids typed wikibase:BestRank of rdf:type rows."""
    return pa.table({"statement": b.filter(
        pc.equal(b["object"], T.WIKIBASE_BEST_RANK)
    )["subject"]})


_LOCKS = {"item_join": threading.Lock(), "value_join": threading.Lock()}


def _cached(state, name: str, build) -> Blocks | None:
    """`build()` (an exchange result) once per BuildState under its own
    lock (the facts thread and the scan-output thread reach it at
    once)."""
    with _LOCKS[name]:
        if name not in state.datasets:
            state.datasets[name] = build()
        return state.datasets[name]


def si_by_item(state) -> Blocks:
    """(key, instance, shape): shape_instances pre-joined with the URI
    mapping, keyed by wd item — the item join then attaches the uri AND
    its shape memberships in a SINGLE item-keyed exchange (PERF_NOTES
    #39: each barrier is a fixed-latency all-to-all); the item join is
    its only consumer. Its `Blocks` answer `materialize()` with a
    Dataset for a caller that wants one."""
    uri_items = _then(
        [(state.datasets["uri_mapping"], None)],
        lambda b: pa.table({"instance": b["uri"], "key": b["item"]}),
    )
    return copartition_join(
        state.datasets["shape_instances"], uri_items, "instance",
        ["shape", "instance"], ["key"],
        num_parts=exchange_parts(state),
        hash_keys=True,
    )


def item_join_cached(root: str, state) -> Blocks:
    return _cached(state, "item_join", lambda: item_join(root, state))


def item_join(root: str, state) -> Blocks:
    """Every item-keyed family resolved in ONE hash-keyed exchange
    against `si_by_item`, keeping each row's admitted shapes only."""
    admitted = _admitted(state.schema)

    def keep_admitted(tables: list[pa.Table], keys: list[str]) -> pa.Table:
        rows, si = tables
        out = rows.join(si, keys=keys, join_type="inner", use_threads=False)
        out = out.join(admitted, keys=["family", "tag", "shape"],
                       join_type="left semi", use_threads=False)
        return out.append_column(
            "extras", pa.repeat(pa.scalar("", pa.string()), out.num_rows)
        ).select(RESOLVED)

    rows = [*state.prewarmed["item_scan"].result(), *_same_as_state_rows(state)]
    return exchange(
        [(rows, ["family", "tag", "value"]),
         (si_by_item(state), ["shape", "instance"])],
        ["key"], keep_admitted, exchange_parts(state), hash_keys=True,
    )


def value_join_cached(root: str, state) -> Blocks | None:
    return _cached(state, "value_join", lambda: value_join(root, state))


def value_join(root: str, state) -> Blocks | None:
    """Every complex value node of the facts (psv:) AND the annotations
    (pqv:) resolved in ONE (family, value_node) exchange against the
    clean-value blocks; None when no cfg has a complex value."""
    scanned = family_scan(root, state.schema, {"value"}, state.store)
    if not scanned:
        return None
    families = _clean_families(state.schema)

    def to_nodes(b: pa.Table) -> pa.Table:
        return pa.table({
            "tag": b["tag"], "value": b["value"],
            "family": map_values(b["tag"], families["tag"], families["clean"]),
            "value_node": b["key"],
        })

    def to_resolved(tables: list[pa.Table], keys: list[str]) -> pa.Table:
        nodes, clean = tables
        b = nodes.join(clean, keys=keys, join_type="inner", use_threads=False)
        n = b.num_rows
        return pa.table(
            {
                "family": pa.repeat(pa.scalar("value", pa.string()), n),
                "tag": b["tag"],
                "value": b["value"],
                "shape": pa.repeat(pa.scalar("", pa.string()), n),
                "instance": b["object"],
                "extras": pc.fill_null(b["extras"], ""),
            }
        )

    clean, _ = state.prewarmed["clean_values"].result()
    return exchange(
        [(_then(scanned, to_nodes), ["tag", "value"]),
         (clean, ["object", "extras"])],
        ["family", "value_node"], to_resolved, exchange_parts(state),
        hash_keys=True,
    )


# ---------------------------------------------------------------------------
# Selections
# ---------------------------------------------------------------------------

def subject_rows(rows: list, configs: list) -> list:
    """(cfg, statement, subject) legs: the subject family of the
    resolved legs `rows` fanned out to every cfg whose parent shape the
    row's admitted shape is (plan.rs:1073-1102)."""
    fan = string_table(["tag", "shape", "cfg"], (
        (pid, cfg.parent_class, cfg.cfg_id)
        for cfg in configs for pid in cfg.pids
    ))

    def select(b: pa.Table) -> pa.Table:
        s = b.filter(pc.equal(b["family"], "subject")).join(
            fan, keys=["tag", "shape"], join_type="inner", use_threads=False
        )
        return _table(SUBJ_COLS, s["cfg"], s["value"], s["instance"])

    return _then(rows, select)


def object_rows(rows: list, configs: list) -> list:
    """(cfg, statement, object, extras) legs of the range, stateless and
    complex-value rows of `configs` in the resolved legs `rows`,
    sh:pattern-filtered (plan.rs:1388-1397). Range rows are NOT yet distinct — `facts_part`
    makes them so."""
    from .build import matches_pattern

    ids = pa.array(sorted(c.cfg_id for c in configs), pa.string())
    fams = pa.array(sorted(OBJECT_FAMILIES), pa.string())
    patterns = {c.cfg_id: c.pattern for c in configs if c.pattern is not None}

    def select(b: pa.Table) -> pa.Table:
        b = b.filter(
            pc.and_(pc.is_in(b["family"], value_set=fams),
                    pc.is_in(b["tag"], value_set=ids))
        )
        out = pa.table(
            {"cfg": b["tag"], "statement": b["value"], "object": b["instance"],
             "extras": b["extras"]}
        )
        if not patterns or not out.num_rows:
            return out
        keep = np.ones(out.num_rows, bool)
        for cfg_id, pattern in patterns.items():
            sel = pc.equal(out["cfg"], cfg_id).to_numpy(zero_copy_only=False)
            if sel.any():
                keep[sel] = matches_pattern(
                    out["object"].filter(sel), pattern
                ).to_numpy(zero_copy_only=False)
        return out.filter(keep)

    return _then(rows, select)


def output_rows(rows: list, state) -> list:
    """(file, subject, predicate, object) legs of the output families —
    labels, full types (the class-graph-scale class mapping fan-out,
    plan.rs:744-770), sameAs and class labels (plan.rs:1741-1781)."""
    from .build import label_shapes

    paths = string_table(["tag", "path"], (
        (str(i), s[0]) for i, s in enumerate(label_shapes(state.schema))
    ))
    files = string_table(["family", "file"], OUTPUT_FILES.items())
    class_ref = ray.put(string_table(["value", "object"], (
        (wd, yc)
        for wd, ycs in state.wd_to_yago_class_mapping.items() for yc in ycs
    )))

    def select(b: pa.Table) -> pa.Table:
        family = b["family"]
        labels = b.filter(pc.equal(family, "label"))
        types = b.filter(pc.equal(family, "types")).join(
            get_broadcast(class_ref), keys="value", join_type="inner",
            use_threads=False,
        )
        links = b.filter(pc.is_in(family, value_set=pa.array(
            ["class", "sameAs"], pa.string()
        )))
        return pa.concat_tables([
            _table(OUT_COLS, OUTPUT_FILES["label"], labels["instance"],
                   map_values(labels["tag"], paths["tag"], paths["path"]),
                   labels["value"]),
            _table(OUT_COLS, OUTPUT_FILES["types"], types["instance"],
                   T.RDF_TYPE, types["object"]),
            _table(OUT_COLS,
                   map_values(links["family"], files["family"], files["file"]),
                   links["instance"], links["tag"], links["value"]),
        ])

    return _then(rows, select)


# ---------------------------------------------------------------------------
# The statement-keyed part function
# ---------------------------------------------------------------------------

def facts_part(range_ids, ann_ids):
    """One part of the statement-keyed exchange, sides (subjects,
    objects[, best-rank ids]), giving both row kinds of the facts in one
    table (plan.rs:1034-1064, 1165-1192):

    - subjects ⋉ best-rank ids;
    - the object rows' range rows made distinct (an sh:or range admits
      an item through each of its classes, and maxCount counts rows);
    - fact rows: subjects ⨝ the fact cfgs' objects on (cfg, statement);
    - annotated rows: fact rows ⨝ the annotation cfgs' objects
      (`ann_ids`) on statement, as (ann_cfg, ann_obj).

    A fact row has null ann_cfg/ann_obj; every row's `extras` are its
    own (a fact's value node, an annotation's). Every row of a statement
    shares the part, so the semi-join, the dedup and both joins are
    exact."""
    range_ids = pa.array(sorted(range_ids), pa.string())
    ann_ids = pa.array(sorted(ann_ids), pa.string())

    def part(tables: list[pa.Table], keys: list[str]) -> pa.Table:
        subjects, objects, *best = tables
        for ids in best:
            subjects = subjects.join(
                ids, keys=keys, join_type="left semi", use_threads=False
            )
        is_range = pc.is_in(objects["cfg"], value_set=range_ids)
        objects = pa.concat_tables(
            [objects.filter(pc.invert(is_range)),
             _arrow_distinct(objects.filter(is_range), OBJ_COLS)]
        )
        is_ann = pc.is_in(objects["cfg"], value_set=ann_ids)
        facts = subjects.join(
            objects.filter(pc.invert(is_ann)), keys=["cfg", "statement"],
            join_type="inner", use_threads=False,
        )
        annotations = objects.filter(is_ann).rename_columns(
            ["ann_cfg", "statement", "ann_obj", "extras"]
        )
        annotated = facts.drop_columns(["extras"]).join(
            annotations, keys="statement", join_type="inner",
            use_threads=False,
        )
        return pa.concat_tables([facts, annotated], promote_options="default")

    return part
