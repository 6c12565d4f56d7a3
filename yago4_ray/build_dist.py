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
    shape instances, clean-value maps, best-rank set) streamed into the
    consumer's own scan job; the best-rank filter runs in that map.
  - Distributed state: the item families in ONE hash-keyed exchange
    against `si_by_item`, the value nodes in ONE (family, value_node)
    exchange against the clean-value Dataset, each materialized once
    per BuildState and shared by every consumer; the best-rank ids are
    a side of the statement exchange (`best_rank_sides`).
  Stateless object rows and the class-graph-scale class labels take
  the per-batch map on both paths.
- Selections (`subject_rows`, `object_rows`, `output_rows`): resolved
  rows to the statement exchange's sides and to output triples.

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
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data import Dataset, from_arrow_refs

from . import cleaners as C
from . import terms as T
from .joins import _arrow_distinct, copartition_join, exchange, get_broadcast
from .sources import scan_predicate

ROUTED = ["family", "tag", "key", "value"]
RESOLVED = ["family", "tag", "value", "shape", "instance", "extras"]
SUBJ_COLS = ["cfg", "statement", "subject"]
OBJ_COLS = ["cfg", "statement", "object", "extras"]
OUT_COLS = ["file", "subject", "predicate", "object"]

ITEM_FAMILIES = frozenset({"subject", "range", "label", "types", "sameAs"})
OBJECT_FAMILIES = frozenset({"range", "object", "value"})
# output family → generate_yago output name
OUTPUT_FILES = {
    "label": "labels", "types": "full-types", "sameAs": "sameAs",
    "class": "class",
}
OUTPUT_FAMILIES = frozenset(OUTPUT_FILES)


def exchange_parts(root: str) -> int:
    """Partition count of every build exchange: the store's data
    volume."""
    from .joins import partitions_for_nbytes
    from .sources import store_nbytes

    return partitions_for_nbytes(store_nbytes(root))


class _Rows:
    """Column-wise accumulator of string rows. `add` takes one aligned
    Series/array or str constant per column; `table` makes one Arrow
    string block, so empty and non-empty blocks share one schema through
    the downstream exchanges."""

    def __init__(self, cols: list[str]):
        self.parts: dict[str, list] = {c: [] for c in cols}

    def add(self, *values) -> None:
        n = next(len(v) for v in values if not isinstance(v, str))
        if not n:
            return
        for part, v in zip(self.parts.values(), values):
            part.append(
                np.full(n, v, dtype=object) if isinstance(v, str)
                else np.asarray(v, dtype=object)
            )

    def table(self) -> pa.Table:
        return pa.table(
            {
                c: pa.array(
                    np.concatenate(p) if p else np.empty(0, dtype=object),
                    pa.string(), from_pandas=True,
                )
                for c, p in self.parts.items()
            }
        )


def _empty(columns: list[str]) -> Dataset:
    return ray.data.from_arrow(
        pa.table({c: pa.array([], pa.string()) for c in columns})
    )


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------

def _subject_keyed(g: pd.DataFrame, dtypes):
    return g["subject"], g["object"]


def _object_keyed(g: pd.DataFrame, dtypes):
    return g["object"], g["subject"]


def _datatyped(dts: frozenset):
    def emit(g: pd.DataFrame, dtypes):
        keep = dtypes().isin(dts)
        return g["subject"][keep], g["object"][keep]

    return emit


def _freebase(g: pd.DataFrame, dtypes):
    """P646 rows → owl:sameAs freebase ids (plan.rs:1730-1739)."""
    fb = g["object"].map(C.convert_freebase_id)
    keep = fb.notna()
    return g["subject"][keep], fb[keep]


def _wikipedia(g: pd.DataFrame, dtypes):
    """schema:about rows with wikipedia subjects → schema:sameAs URL
    literals (plan.rs:1711-1728)."""
    subj = g["subject"]
    keep = subj.str.startswith("<") & subj.str.contains(
        ".wikipedia.org/wiki/", regex=False
    )
    urls = subj[keep].str.slice(1, -1)
    return g["object"][keep], '"' + urls + f'"^^<{T.XSD_ANY_URI}>'


def _stateless(cfg):
    """ps:/pq: rows of a stateless cfg → (converted object, statement)
    (plan.rs:1209-1399's anyuri/image/datatype dispatch)."""

    def emit(g: pd.DataFrame, dtypes):
        objs = g["object"]
        if cfg.mode == "anyuri":
            objs = objs.map(C.validate_any_uri)
            keep = objs.notna()
        elif cfg.mode == "image":
            keep = objs.str.startswith("<" + C.COMMONS_PREFIX)
        else:
            keep = dtypes().isin(cfg.datatypes)
        return objs[keep], g["subject"][keep]

    return emit


def _routes(schema, families, cfg_ids=None) -> dict[str, list]:
    """predicate → [(family, tag, emit)] for the rows of `families`,
    restricted to the cfgs in `cfg_ids` (None: every cfg); emit(group,
    dtypes) → (key, value) Series."""
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


def family_scan(root: str, schema, families, cfg_ids=None) -> Dataset | None:
    """The routed (family, tag, key, value) rows of `families` from ONE
    store scan over their predicates; None when no predicate feeds
    them."""
    from .build import datatype_series

    routes = _routes(schema, families, cfg_ids)
    if not routes:
        return None

    def route(batch: pd.DataFrame) -> pa.Table:
        rows = _Rows(ROUTED)
        for pred, group in batch.groupby("predicate", sort=False):
            dtypes = functools.cache(
                functools.partial(datatype_series, group["object"])
            )
            for family, tag, emit in routes.get(pred, ()):
                key, value = emit(group, dtypes)
                rows.add(family, tag, key, value)
        return rows.table()

    return scan_predicate(root, sorted(routes)).map_batches(
        route, batch_format="pandas"
    )


def item_scan(root: str, schema) -> Dataset:
    """The store leg of `item_join`: every item-keyed family in one
    scan. build_state plans it (state.prewarmed["item_scan"]) while the
    state builds: read_parquet fetches the footers of a scan over more
    than a few dozen files in remote tasks, a wait that would otherwise
    head the facts chain."""
    return family_scan(root, schema, ITEM_FAMILIES)


def _same_as_state_rows(state) -> list[Dataset]:
    """The sameAs family's rows from the state Datasets: enwiki →
    dbpedia links and the URI mapping's wd identity links, keyed by
    item."""

    def rows(values):
        def fn(b: pd.DataFrame) -> pa.Table:
            out = _Rows(ROUTED)
            out.add("sameAs", T.OWL_SAME_AS, b["item"], values(b))
            return out.table()

        return fn

    return [
        state.datasets["enwiki"].map_batches(
            rows(lambda b: "<" + b["url"].map(C.enwiki_to_dbpedia) + ">"),
            batch_format="pandas",
        ),
        state.datasets["uri_mapping"].map_batches(
            rows(lambda b: b["item"]), batch_format="pandas"
        ),
    ]


def _admitted(schema) -> dict[tuple[str, str], tuple[str, ...]]:
    """(family, tag) → the shapes an item of that family must be an
    instance of; the row keeps one resolved row per such shape."""
    from .build import label_shapes, prop_configs

    configs, ann_configs = prop_configs(schema)
    admitted: dict[tuple[str, str], list[str]] = {}
    for cfg in configs:
        if cfg.parent_class is None:
            raise ValueError(f"No parent shape for {cfg.path}")
        for pid in cfg.pids:
            shapes = admitted.setdefault(("subject", pid), [])
            if cfg.parent_class not in shapes:
                shapes.append(cfg.parent_class)
    for cfg in configs + ann_configs:
        if cfg.mode == "range":
            admitted[("range", cfg.cfg_id)] = list(dict.fromkeys(cfg.range_classes))
    for i, (_path, _dts, parent, _preds) in enumerate(label_shapes(schema)):
        admitted[("label", str(i))] = [parent]
    admitted[("types", "")] = [T.SCHEMA_THING]
    admitted[("sameAs", T.OWL_SAME_AS)] = [T.SCHEMA_THING]
    admitted[("sameAs", T.SCHEMA_SAME_AS)] = [T.SCHEMA_THING]
    return {k: tuple(v) for k, v in admitted.items()}


# ---------------------------------------------------------------------------
# Lookups: where a key meets its state
# ---------------------------------------------------------------------------

def resolved(root: str, state, families, configs=None) -> Dataset:
    """(family, tag, value, shape, instance, extras) rows of `families`
    (the cfg-fed families for the cfgs in `configs`; None: every cfg),
    each key met with its state. The one place the state regime shows:
    joined from the shared materialized exchanges on the distributed
    path, a per-batch map over the consumer's own scan otherwise. The
    selections filter the shared exchanges' rows down to `configs`."""
    cfg_ids = None if configs is None else {c.cfg_id for c in configs}
    # only the families some predicate of these cfgs feeds: a join leg
    # without rows would still read a whole materialized exchange
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
        # the two state exchanges materialize concurrently and the local
        # scan plans under them
        futures = [pool.submit(fn, root, state) for fn in joins]
        legs = [_local_rows(root, state, local, cfg_ids)] if local else []
        joined = [f.result() for f in futures]
    fams = pa.array(sorted(families), pa.string())
    legs += [
        ds.map_batches(
            lambda b: b.filter(pc.is_in(b["family"], value_set=fams)),
            batch_format="pyarrow",
        )
        for ds in joined
        if ds is not None
    ]
    legs = [ds for ds in legs if ds is not None]
    if not legs:
        return _empty(RESOLVED)
    return legs[0].union(*legs[1:]) if len(legs) > 1 else legs[0]


def _local_rows(root: str, state, families, cfg_ids) -> Dataset | None:
    """`families` resolved by a per-batch map over packed refs."""
    from .build import CLEAN_FAMILY, prop_configs

    scanned = family_scan(root, state.schema, families, cfg_ids)
    legs = [scanned] if scanned is not None else []
    if "sameAs" in families:
        legs += _same_as_state_rows(state)
    if not legs:
        return None
    refs: dict = {}
    admitted = {}
    if families & (ITEM_FAMILIES | {"class"}):
        refs["uri"] = state.uri_ref
    if families & ITEM_FAMILIES:
        refs["instances"] = state.shape_instances
        admitted = _admitted(state.schema)
    if "subject" in families:
        refs["best"] = _best_rank_ref(root, state)
    clean_family = {}
    if "value" in families:
        refs["clean"], _ = state.prewarmed["clean_maps"].result()
        configs, ann_configs = prop_configs(state.schema)
        clean_family = {
            c.cfg_id: CLEAN_FAMILY[c.mode]
            for c in configs + ann_configs if c.complex_value
        }
    if "class" in families:
        refs["classes"] = state.yago_classes_ref
    keyed = ITEM_FAMILIES | {"class"}

    def lookup(batch: pd.DataFrame) -> pa.Table:
        family = batch["family"]
        if "best" in refs:
            subj = (family == "subject").to_numpy()
            if subj.any():
                keep = ~subj
                keep[subj] = get_broadcast(refs["best"]).contains(
                    batch["value"][subj]
                )
                batch = batch[keep]
                family = batch["family"]
        inst = pd.Series(None, index=batch.index, dtype=object)
        item = family.isin(keyed)
        if item.any():
            inst[item] = get_broadcast(refs["uri"]).lookup(batch["key"][item])
        batch = batch.assign(instance=inst)
        out = _Rows(RESOLVED)
        for (fam, tag), g in batch.groupby(["family", "tag"], sort=False):
            if fam == "object":
                out.add(fam, tag, g["value"], "", g["key"], "")
            elif fam == "value":
                clean = get_broadcast(refs["clean"])[clean_family[tag]]
                objs, extras = clean.lookup(g["key"])
                keep = objs.notna()
                out.add(fam, tag, g["value"][keep], "", objs[keep],
                        extras[keep].fillna(""))
            elif fam == "class":
                found = g["instance"].fillna("")
                keep = g["instance"].notna().to_numpy() & get_broadcast(
                    refs["classes"]
                ).contains(found)
                out.add(fam, tag, g["value"][keep], "", g["instance"][keep], "")
            else:
                instances = get_broadcast(refs["instances"])
                mapped = g["instance"].notna().to_numpy()
                found = g["instance"].fillna("")
                for shape in admitted.get((fam, tag), ()):
                    members = instances.get(shape)
                    if members is None:
                        continue
                    keep = mapped & members.contains(found)
                    out.add(fam, tag, g["value"][keep], shape,
                            g["instance"][keep], "")
        return out.table()

    rows = legs[0].union(*legs[1:]) if len(legs) > 1 else legs[0]
    return rows.map_batches(lookup, batch_format="pandas")


def _best_rank_ref(root: str, state) -> "ray.ObjectRef":
    """The broadcast best-rank set: packed remotely out of build_state's
    fused scan; rebuilt exactly from the statement ids when two of them
    share a 64-bit hash."""
    from . import build as B

    set_ref, ok_ref = state.prewarmed["best_rank_ref"]
    if ray.get(ok_ref):  # tiny bool; the pack resolved long ago
        return set_ref
    from .broadcast import HashIndex

    return ray.put(HashIndex(B.best_rank_statements(root)))


def best_rank_sides(root: str, state) -> list[tuple[Dataset, list[str]]]:
    """The statement exchange's best-rank side: the distributed path
    semi-joins the best-rank ids inside `facts_part`; the broadcast
    lookup has already filtered the subject rows."""
    if not state.distributed:
        return []
    return [(
        scan_predicate(root, T.RDF_TYPE).map_batches(
            lambda b: pa.table(
                {"statement": b.filter(
                    pc.equal(b["object"], T.WIKIBASE_BEST_RANK)
                )["subject"]}
            ),
            batch_format="pyarrow",
        ),
        ["statement"],
    )]


_LOCKS = {"item_join": threading.Lock(), "value_join": threading.Lock()}


def _cached(state, name: str, build) -> Dataset | None:
    """`build()` (an exchange result, so materialized) once per
    BuildState under its own lock (the facts thread and the scan-output
    thread reach it at once)."""
    with _LOCKS[name]:
        if name not in state.datasets:
            state.datasets[name] = build()
        return state.datasets[name]


def si_by_item(state) -> Dataset:
    """(key, instance, shape): shape_instances pre-joined with the URI
    mapping, keyed by wd item — the item join then attaches the uri AND
    its shape memberships in a SINGLE item-keyed exchange. It is the
    item join's only consumer and runs inside the item join's job, so
    its exchange overlaps the item rows' store scan (PERF_NOTES #39:
    each barrier is a fixed-latency all-to-all)."""
    uri_items = state.datasets["uri_mapping"].map_batches(
        lambda b: pd.DataFrame({"instance": b["uri"], "key": b["item"]}),
        batch_format="pandas",
    )
    return copartition_join(
        state.datasets["shape_instances"], uri_items, "instance",
        ["shape", "instance"], ["key"],
        num_parts=exchange_parts(state.statements_root),
        hash_keys=True,
    )


def item_join_cached(root: str, state) -> Dataset:
    return _cached(state, "item_join", lambda: item_join(root, state))


def item_join(root: str, state) -> Dataset:
    """Every item-keyed family resolved in ONE hash-keyed exchange
    against `si_by_item` (planned into the same job), keeping each row's
    admitted shapes only."""
    admitted = pa.array(
        sorted(
            "\x00".join((family, tag, shape))
            for (family, tag), shapes in _admitted(state.schema).items()
            for shape in shapes
        ),
        pa.string(),
    )

    def keep_admitted(tables: list[pa.Table], keys: list[str]) -> pa.Table:
        rows, si = tables
        out = rows.join(si, keys=keys, join_type="inner", use_threads=False)
        key = pc.binary_join_element_wise(
            out["family"], out["tag"], out["shape"], "\x00"
        )
        out = out.filter(pc.is_in(key, value_set=admitted))
        return out.append_column(
            "extras", pa.repeat(pa.scalar("", pa.string()), out.num_rows)
        ).select(RESOLVED)

    rows = [state.prewarmed["item_scan"].result(), *_same_as_state_rows(state)]
    return exchange(
        [(rows[0].union(*rows[1:]), ["family", "tag", "value"]),
         (si_by_item(state), ["shape", "instance"])],
        ["key"], keep_admitted, exchange_parts(root), hash_keys=True,
    )


def value_join_cached(root: str, state) -> Dataset | None:
    return _cached(state, "value_join", lambda: value_join(root, state))


def value_join(root: str, state) -> Dataset | None:
    """Every complex value node of the facts (psv:) AND the annotations
    (pqv:) resolved in ONE (family, value_node) exchange against the
    clean-value Dataset; None when no cfg has a complex value."""
    from .build import CLEAN_FAMILY, prop_configs

    scanned = family_scan(root, state.schema, {"value"})
    if scanned is None:
        return None
    configs, ann_configs = prop_configs(state.schema)
    clean_family = {
        c.cfg_id: CLEAN_FAMILY[c.mode]
        for c in configs + ann_configs if c.complex_value
    }

    def to_nodes(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"tag": b["tag"], "value": b["value"],
             "family": b["tag"].map(clean_family), "value_node": b["key"]}
        )

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

    clean_blocks, _ = state.prewarmed["clean_values"].result()
    return exchange(
        [(scanned.map_batches(to_nodes, batch_format="pandas"), ["tag", "value"]),
         (from_arrow_refs(clean_blocks), ["object", "extras"])],
        ["family", "value_node"], to_resolved, exchange_parts(root),
        hash_keys=True,
    )


# ---------------------------------------------------------------------------
# Selections
# ---------------------------------------------------------------------------

def subject_rows(rows: Dataset, configs: list) -> Dataset:
    """(cfg, statement, subject): the subject family fanned out to every
    cfg whose parent shape the row's admitted shape is
    (plan.rs:1073-1102)."""
    fan: dict[tuple[str, str], list[str]] = {}
    for cfg in configs:
        for pid in cfg.pids:
            fan.setdefault((pid, cfg.parent_class), []).append(cfg.cfg_id)

    def select(b: pd.DataFrame) -> pa.Table:
        out = _Rows(SUBJ_COLS)
        subjects = b[b["family"] == "subject"]
        for key, g in subjects.groupby(["tag", "shape"], sort=False):
            for cfg_id in fan.get(key, ()):
                out.add(cfg_id, g["value"], g["instance"])
        return out.table()

    return rows.map_batches(select, batch_format="pandas")


def object_rows(rows: Dataset, configs: list) -> Dataset:
    """(cfg, statement, object, extras) of the range, stateless and
    complex-value rows of `configs`, sh:pattern-filtered
    (plan.rs:1388-1397). Range rows are NOT yet distinct — `facts_part`
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
        df = out.select(["cfg", "object"]).to_pandas()
        mask = pd.Series(True, index=df.index)
        for cfg_id, pattern in patterns.items():
            sel = df["cfg"] == cfg_id
            if sel.any():
                mask.loc[sel] = matches_pattern(df.loc[sel, "object"], pattern)
        return out.filter(pa.array(mask.to_numpy(dtype=bool)))

    return rows.map_batches(select, batch_format="pyarrow")


def output_rows(rows: Dataset, state) -> Dataset:
    """(file, subject, predicate, object) of the output families —
    labels, full types (the class-graph-scale class mapping fan-out,
    plan.rs:744-770), sameAs and class labels (plan.rs:1741-1781)."""
    from .build import label_shapes

    paths = {str(i): s[0] for i, s in enumerate(label_shapes(state.schema))}
    class_ref = ray.put(state.wd_to_yago_class_mapping)

    def select(b: pd.DataFrame) -> pa.Table:
        out = _Rows(OUT_COLS)
        for family, g in b.groupby("family", sort=False):
            file = OUTPUT_FILES.get(family)
            if file is None:
                continue
            if family == "label":
                out.add(file, g["instance"], g["tag"].map(paths), g["value"])
            elif family == "types":
                class_map = get_broadcast(class_ref)
                for wd_class, t in g.groupby("value", sort=False):
                    for yago_class in class_map.get(wd_class, ()):
                        out.add(file, t["instance"], T.RDF_TYPE, yago_class)
            else:
                out.add(file, g["instance"], g["tag"], g["value"])
        return out.table()

    return rows.map_batches(select, batch_format="pandas")


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
