"""Distributed (join-based) state consumption for the fact pipelines.

The broadcast path in build.py ships the URI mapping / instance sets /
best-rank ids / clean-value maps to every worker (the reference's whole
in-RAM architecture, plan.rs:227-382, 641-731). That is the right call
while the state fits a worker's heap; at 10^12-document scale those
relations are themselves datasets, and every broadcast call site here
flips to a co-partitioned join against the state Datasets kept in
`BuildState.datasets` — ONE exchange per join key:

- item:        one scan over every item-keyed family — p: subject rows,
  ps:/pq: range rows, label rows, P31 (full types), P646 and
  schema:about (sameAs) — plus the enwiki and URI-mapping Datasets
  (dbpedia and wd sameAs), each row tagged with its family, joined
  once against `si_by_item` (uri ⨝ shape_instances: the mapped uri AND
  its shape memberships) and materialized (`item_join_cached`). Each
  row keeps only the shapes its family admits: the cfg's parent shape,
  the range classes, the label's parent shape, schema:Thing. The
  subject side, the range leg and the labels/full-types/sameAs outputs
  are family selections of this one result.
- value node:  the complex psv:/pqv: rows of facts AND annotations ⨝
  the clean-value Dataset on (family, value_node) (`value_join`).
- statement:   subject rows, object rows and best-rank ids in one
  exchange; each part runs the best-rank semi-join, the exact range-row
  dedup and the (cfg, statement) join (`facts_part`, driven by
  build.build_facts).

The class mapping (full types) and the class label rows are
class-graph scale and stay broadcast; stateless object modes
(anyuri/image/datatype/pattern) stay per-batch compute.

All joins are `joins.copartition_join` — task-based co-partitioned
merges, NOT Ray's actor-based `Dataset.join` (a DAG this join-dense
would oversubscribe a session with CPU-reserving aggregator actors; see
copartition_join's docstring for the measured stall). Every exchange is
sized to the store's data volume (`partitions_for_nbytes`).

Partitioning note (north_rule): every join hash-partitions on the join
key; statement ids and item IRIs are unique per row, so no hub-key skew
is possible on these keys (the skew-prone subject-keyed aggregations
stay in joins.partitioned_group_apply / salted paths).

Mode selection lives in state.build_state(distributed=...); both paths
produce identical outputs (tests/test_distributed.py gates set equality
against the broadcast path, which the e2e oracle gates, and the written
part files' sha256 across the two paths)."""

from __future__ import annotations

import threading

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data import Dataset

from . import cleaners as C
from . import terms as T
from .joins import _arrow_distinct, copartition_join, get_broadcast
from .sources import scan_predicate

OBJ_COLS = ["cfg", "statement", "object", "extras"]
_ANN_COLS = ["statement", "ann_pred", "ann_obj", "ann_extras"]
_SPO = ["subject", "predicate", "object"]


def exchange_parts(root: str) -> int:
    """Partition count of every build_dist exchange: the store's data
    volume, as build_facts sizes its own exchanges."""
    from .joins import partitions_for_nbytes
    from .sources import store_nbytes

    return partitions_for_nbytes(store_nbytes(root))


def best_rank_ds(root: str) -> Dataset:
    """Statement ids typed wikibase:BestRank as a Dataset (the semi-join
    side of the facts exchange)."""
    return scan_predicate(root, T.RDF_TYPE).map_batches(
        lambda b: pa.table(
            {"statement": b.filter(
                pc.equal(b["object"], T.WIKIBASE_BEST_RANK)
            )["subject"]}
        ),
        batch_format="pyarrow",
    )


def _empty(columns: list[str]) -> Dataset:
    return ray.data.from_arrow(
        pa.table({c: pa.array([], pa.string()) for c in columns})
    )


_ITEM_LOCK = threading.Lock()


def si_by_item(state) -> Dataset:
    """(item, instance, shape): shape_instances pre-joined with the URI
    mapping, keyed by wd item — the item join then attaches the uri AND
    its shape memberships in a SINGLE item-keyed exchange. It is the
    item join's only consumer and runs inside the item join's job, so
    its exchange overlaps the item rows' store scan (PERF_NOTES #39:
    each barrier is a fixed-latency all-to-all)."""
    uri_items = state.datasets["uri_mapping"].map_batches(
        lambda b: pd.DataFrame({"instance": b["uri"], "item": b["item"]}),
        batch_format="pandas",
    )
    return copartition_join(
        state.datasets["shape_instances"], uri_items, "instance",
        ["shape", "instance"], ["item"],
        num_parts=exchange_parts(state.statements_root),
        hash_keys=True,
    )


# ---------------------------------------------------------------------------
# The item exchange
# ---------------------------------------------------------------------------

def item_join_cached(root: str, state) -> Dataset:
    """Materialized `item_join`, built once per BuildState: build_facts
    (subject side, range legs) and the store-scan outputs (labels,
    full-types, sameAs) all select from it."""
    with _ITEM_LOCK:
        ds = state.datasets.get("item_join")
        if ds is None:
            ds = item_join(root, state).materialize()
            state.datasets["item_join"] = ds
        return ds


def item_scan(root: str, schema) -> tuple[Dataset, pa.Array]:
    """The store-scan leg of `item_join` and the keys it admits: lazy
    (family, tag, item, value) rows of every item-keyed family from ONE
    scan, and the admitted (family, tag, shape) keys, NUL-joined.
    Families and their (tag, value):

    - subject: (pid, statement) of p: rows; admits the parent shape of
      any cfg reading that pid
    - range:   (cfg id, statement) of ps:/pq: rows; admits the cfg's
      range classes (an sh:or range can admit one item twice — the
      statement exchanges dedup those rows exactly)
    - label:   (label shape index, object) of datatype-filtered label
      rows; admits the label shape's parent
    - types:   ("", wd class) of P31 rows; admits schema:Thing
    - sameAs:  (output predicate, object) of P646 / schema:about rows
      (item_join adds the enwiki and URI-mapping rows); admits
      schema:Thing

    build_state plans it (state.prewarmed["item_scan"]) while the state
    builds: read_parquet fetches the footers of a scan over more than a
    few dozen files in remote tasks, a wait that would otherwise head
    the facts chain."""
    from .build import label_shapes, prop_configs

    configs, ann_configs = prop_configs(schema)
    thing = T.SCHEMA_THING
    allowed: set[tuple[str, str, str]] = set()
    subject_preds: dict[str, str] = {}
    for cfg in configs:
        if cfg.parent_class is None:
            raise ValueError(f"No parent shape for {cfg.path}")
        for pid in cfg.pids:
            subject_preds[T.iri(f"{T.P_PREFIX}{pid}")] = pid
            allowed.add(("subject", pid, cfg.parent_class))
    range_preds: dict[str, list[str]] = {}
    for cfgs, prefix in ((configs, T.PS_PREFIX), (ann_configs, T.PQ_PREFIX)):
        for cfg in cfgs:
            if cfg.mode != "range":
                continue
            for pid in cfg.pids:
                range_preds.setdefault(T.iri(f"{prefix}{pid}"), []).append(
                    cfg.cfg_id
                )
            allowed.update(("range", cfg.cfg_id, c) for c in cfg.range_classes)
    label_preds: dict[str, list[tuple[str, frozenset]]] = {}
    for i, (_path, dts, parent, preds) in enumerate(label_shapes(schema)):
        for pred in preds:
            label_preds.setdefault(pred, []).append((str(i), dts))
        allowed.add(("label", str(i), parent))
    p31, p646 = f"<{T.WDT}P31>", f"<{T.WDT}P646>"
    allowed.add(("types", "", thing))
    allowed.add(("sameAs", T.OWL_SAME_AS, thing))
    allowed.add(("sameAs", T.SCHEMA_SAME_AS, thing))
    preds = set(subject_preds) | set(range_preds) | set(label_preds)
    preds |= {p31, p646, T.SCHEMA_ABOUT}

    def route(batch: pd.DataFrame) -> pa.Table:
        from .build import datatype_series

        fams, tags, items, values = [], [], [], []

        def emit(family, tag, item, value):
            if len(item):
                fams.append(pd.Series(family, index=item.index))
                tags.append(pd.Series(tag, index=item.index))
                items.append(item)
                values.append(value)

        for pred, group in batch.groupby("predicate", sort=False):
            if pred in subject_preds:
                emit("subject", subject_preds[pred], group["subject"],
                     group["object"])
            for cfg_id in range_preds.get(pred, ()):
                emit("range", cfg_id, group["object"], group["subject"])
            shapes = label_preds.get(pred)
            if shapes:
                dtypes = datatype_series(group["object"])
                for tag, dts in shapes:
                    sel = group[dtypes.isin(dts)]
                    emit("label", tag, sel["subject"], sel["object"])
            if pred == p31:
                emit("types", "", group["subject"], group["object"])
            elif pred == p646:
                fb = group["object"].map(C.convert_freebase_id)
                keep = fb.notna()
                emit("sameAs", T.OWL_SAME_AS, group["subject"][keep], fb[keep])
            elif pred == T.SCHEMA_ABOUT:
                subj = group["subject"]
                sel = group[
                    subj.str.startswith("<")
                    & subj.str.contains(".wikipedia.org/wiki/", regex=False)
                ]
                urls = sel["subject"].str.slice(1, -1)
                emit("sameAs", T.SCHEMA_SAME_AS, sel["object"],
                     '"' + urls + f'"^^<{T.XSD_ANY_URI}>')
        return _item_rows(fams, tags, items, values)

    scanned = scan_predicate(root, sorted(preds)).map_batches(
        route, batch_format="pandas"
    )
    return scanned, pa.array(sorted("\x00".join(k) for k in allowed), pa.string())


def item_join(root: str, state) -> Dataset:
    """(family, tag, value, shape, instance): every item-keyed row of the
    build — `item_scan`'s store rows plus the enwiki (dbpedia sameAs)
    and URI-mapping (wd sameAs: (owl:sameAs, item)) rows — in ONE
    hash-keyed exchange against `si_by_item` (planned into the same
    job), keeping each row's admitted shapes only."""
    scanned, admitted = state.prewarmed["item_scan"].result()

    def same_as_rows(values):
        def fn(b: pd.DataFrame) -> pa.Table:
            return _item_rows(
                [pd.Series("sameAs", index=b.index)],
                [pd.Series(T.OWL_SAME_AS, index=b.index)],
                [b["item"]],
                [values(b)],
            )

        return fn

    enwiki = state.datasets["enwiki"].map_batches(
        same_as_rows(lambda b: "<" + b["url"].map(C.enwiki_to_dbpedia) + ">"),
        batch_format="pandas",
    )
    wd = state.datasets["uri_mapping"].map_batches(
        same_as_rows(lambda b: b["item"]), batch_format="pandas"
    )

    def keep_admitted(tables: list[pa.Table], keys: list[str]) -> pa.Table:
        rows, si = tables
        out = rows.join(si, keys=keys, join_type="inner", use_threads=False)
        key = pc.binary_join_element_wise(
            out["family"], out["tag"], out["shape"], "\x00"
        )
        return out.filter(pc.is_in(key, value_set=admitted))

    return copartition_join(
        scanned.union(enwiki, wd),
        si_by_item(state),
        "item",
        ["family", "tag", "value"],
        ["shape", "instance"],
        num_parts=exchange_parts(root),
        hash_keys=True,
        part_fn=keep_admitted,
    )


def _item_rows(fams, tags, items, values) -> pa.Table:
    cols = ("family", "tag", "item", "value")
    if not items:
        return pa.table({c: pa.array([], pa.string()) for c in cols})
    return pa.table(
        {
            c: pa.array(pd.concat(parts, ignore_index=True), pa.string())
            for c, parts in zip(cols, (fams, tags, items, values))
        }
    )


def _family(joined: Dataset, family: str, fn) -> Dataset:
    """`fn` (pandas in, pandas out) over the rows of one family of the
    item join; Arrow string blocks out, so empty and non-empty blocks
    share one schema through the downstream exchanges."""

    def select(batch: pa.Table) -> pa.Table:
        sub = batch.filter(pc.equal(batch["family"], family))
        out = fn(sub.drop_columns(["family"]).to_pandas())
        return pa.table(
            {c: pa.array(out[c], pa.string(), from_pandas=True) for c in out}
        )

    return joined.map_batches(select, batch_format="pyarrow")


def subject_rows(joined: Dataset, configs: list) -> Dataset:
    """(cfg, statement, subject): the subject family fanned out to every
    cfg whose parent shape the row's admitted shape is (cf.
    build._subject_side). The best-rank semi-join runs inside the facts
    exchange (`facts_part`)."""
    fan: dict[tuple[str, str], list[str]] = {}
    for cfg in configs:
        for pid in cfg.pids:
            fan.setdefault((pid, cfg.parent_class), []).append(cfg.cfg_id)

    def rows(df: pd.DataFrame) -> pd.DataFrame:
        outs = [
            pd.DataFrame(
                {"cfg": cfg_id, "statement": g["value"], "subject": g["instance"]}
            )
            for key, g in df.groupby(["tag", "shape"], sort=False)
            for cfg_id in fan.get(key, ())
        ]
        if not outs:
            return pd.DataFrame({c: [] for c in ("cfg", "statement", "subject")})
        return pd.concat(outs, ignore_index=True)

    return _family(joined, "subject", rows)


def range_rows(joined: Dataset, configs: list) -> Dataset:
    """(cfg, statement, object, extras) of the range cfgs among
    `configs` (cf. the range mode of build._object_side); rows are NOT
    yet distinct — see `facts_part` / `annotation_part`."""
    ids = {c.cfg_id for c in configs if c.mode == "range"}

    def rows(df: pd.DataFrame) -> pd.DataFrame:
        sel = df[df["tag"].isin(ids)]
        return pd.DataFrame(
            {"cfg": sel["tag"], "statement": sel["value"],
             "object": sel["instance"], "extras": ""}
        )

    return _patterned(
        _family(joined, "range", rows), [c for c in configs if c.mode == "range"]
    )


def output_rows(root: str, state, family: str) -> Dataset:
    """(subject, predicate, object) rows of one item-keyed OUTPUT family
    — "label", "types" (full types) or "sameAs" — selected from the
    item join; the per-output builders and the distributed store-scan
    outputs both read these."""
    from .build import label_shapes

    joined = item_join_cached(root, state)
    if family == "label":
        paths = {str(i): s[0] for i, s in enumerate(label_shapes(state.schema))}

        def rows(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {"subject": df["instance"], "predicate": df["tag"].map(paths),
                 "object": df["value"]}
            )

    elif family == "types":
        class_ref = ray.put(state.wd_to_yago_class_mapping)

        def rows(df: pd.DataFrame) -> pd.DataFrame:
            class_map = get_broadcast(class_ref)
            outs = [
                pd.DataFrame(
                    {"subject": g["instance"], "predicate": T.RDF_TYPE,
                     "object": yago_class}
                )
                for wd_class, g in df.groupby("value", sort=False)
                for yago_class in class_map.get(wd_class, ())
            ]
            if not outs:
                return pd.DataFrame({c: [] for c in _SPO})
            return pd.concat(outs, ignore_index=True)

    elif family == "sameAs":

        def rows(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {"subject": df["instance"], "predicate": df["tag"],
                 "object": df["value"]}
            )

    else:
        raise ValueError(f"not an item-keyed output family: {family!r}")
    return _family(joined, family, rows)


# ---------------------------------------------------------------------------
# The value-node exchange and the statement-keyed part functions
# ---------------------------------------------------------------------------

def value_join(
    root: str, configs: list, ann_configs: list, clean_ds: Dataset
) -> Dataset | None:
    """(cfg, statement, object, extras) for every complex-value cfg of
    the facts (psv:) AND the annotations (pqv:) in ONE (family,
    value_node) exchange against the clean-value Dataset; None when no
    cfg has a complex value."""
    from .build import _CLEAN_FAMILY

    complex_preds: dict[str, list] = {}
    for cfgs, prefix in ((configs, T.PSV_PREFIX), (ann_configs, T.PQV_PREFIX)):
        for cfg in cfgs:
            if cfg.complex_value:
                for pid in cfg.pids:
                    complex_preds.setdefault(T.iri(f"{prefix}{pid}"), []).append(cfg)
    if not complex_preds:
        return None

    def to_nodes(batch: pd.DataFrame) -> pd.DataFrame:
        outs = [
            pd.DataFrame(
                {"cfg": cfg.cfg_id, "statement": group["subject"],
                 "family": _CLEAN_FAMILY[cfg.mode], "value_node": group["object"]}
            )
            for pred, group in batch.groupby("predicate", sort=False)
            for cfg in complex_preds.get(pred, ())
        ]
        if not outs:
            return pd.DataFrame(
                {c: [] for c in ("cfg", "statement", "family", "value_node")}
            ).astype(str)
        return pd.concat(outs, ignore_index=True)

    rows = scan_predicate(root, list(complex_preds)).map_batches(
        to_nodes, batch_format="pandas"
    )
    return copartition_join(
        rows, clean_ds, ("family", "value_node"),
        ["cfg", "statement"], ["object", "extras"],
        num_parts=exchange_parts(root),
        hash_keys=True,
    ).map_batches(
        lambda b: b.set_column(
            b.schema.get_field_index("extras"), "extras",
            pc.fill_null(b["extras"], ""),
        ),
        batch_format="pyarrow",
    )


def object_rows(
    root: str,
    configs: list,
    values: Dataset | None,
    simple_prefix: str,
    complex_prefix: str,
) -> Dataset:
    """(cfg, statement, object, extras) of the non-range cfgs among
    `configs`: stateless modes per batch (build._object_side's own
    dispatch), complex values selected from the value join."""
    from .build import _object_side

    stateless = [c for c in configs if c.mode in ("anyuri", "image", "datatype")]
    ids = {c.cfg_id for c in configs if c.complex_value}
    legs = []
    if stateless:
        legs.append(
            _object_side(root, stateless, None, simple_prefix, complex_prefix)
        )
    if ids and values is not None:
        id_set = pa.array(sorted(ids), pa.string())
        legs.append(
            _patterned(
                values.map_batches(
                    lambda b: b.filter(pc.is_in(b["cfg"], value_set=id_set)),
                    batch_format="pyarrow",
                ),
                [c for c in configs if c.complex_value],
            )
        )
    if not legs:
        return _empty(OBJ_COLS)
    return legs[0].union(*legs[1:]) if len(legs) > 1 else legs[0]


def _patterned(ds: Dataset, configs: list) -> Dataset:
    """sh:pattern filter for joined object rows (the stateless modes
    apply it inside build._object_side's dispatch)."""
    from .build import matches_pattern

    patterns = {c.cfg_id: c.pattern for c in configs if c.pattern is not None}
    if not patterns:
        return ds

    def keep(batch: pa.Table) -> pa.Table:
        df = batch.select(["cfg", "object"]).to_pandas()
        mask = pd.Series(True, index=df.index)
        for cfg_id, pattern in patterns.items():
            sel = df["cfg"] == cfg_id
            if sel.any():
                mask.loc[sel] = matches_pattern(df.loc[sel, "object"], pattern)
        return batch.filter(pa.array(mask.to_numpy(dtype=bool)))

    return ds.map_batches(keep, batch_format="pyarrow")


def facts_part(tables: list[pa.Table], keys: list[str]) -> pa.Table:
    """One part of the statement-keyed facts exchange, sides (subjects,
    objects, range objects, best-rank ids): subjects ⋉ best-rank, then
    ⨝ (objects ∪ distinct range objects) on (cfg, statement). Every row
    of a statement shares the part, so the semi-join and the range
    dedup (an sh:or range admits an item through each class) are exact."""
    subjects, objects, ranges, best = tables
    subjects = subjects.join(
        best, keys=keys, join_type="left semi", use_threads=False
    )
    objects = pa.concat_tables([objects, _arrow_distinct(ranges, OBJ_COLS)])
    return subjects.join(
        objects, keys=["cfg", "statement"], join_type="inner", use_threads=False
    )


def annotation_part(tables: list[pa.Table], keys: list[str]) -> pa.Table:
    """One part of the statement-keyed annotation join, sides (facts,
    annotations, range annotations): the range rows are deduped exactly
    as in `facts_part` before the join."""
    facts, anns, ranges = tables
    anns = pa.concat_tables([anns, _arrow_distinct(ranges, _ANN_COLS)])
    return facts.join(anns, keys=keys, join_type="inner", use_threads=False)
