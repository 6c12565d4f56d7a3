"""Distributed (join-based) state consumption for the fact pipelines.

The broadcast path in build.py ships the URI mapping / instance sets /
best-rank ids / clean-value maps to every worker (the reference's whole
in-RAM architecture, plan.rs:227-382, 641-731). That is the right call
while the state fits a worker's heap; at 10^12-document scale those
relations are themselves datasets, and every broadcast call site here
flips to a co-partitioned join against the state Datasets kept in
`BuildState.datasets`:

- subject side:  p: scan ⨝ best-rank ids ⨝ uri_mapping ⨝ shape_instances
- object side:   ps:/psv: scan; range values ⨝ uri_mapping ⨝
  shape_instances, complex values ⨝ clean-value Dataset; stateless
  modes (anyuri/image/datatype/pattern) stay per-batch compute
- labels:        label-predicate scan ⨝ uri_mapping ⨝ shape_instances
- full types:    P31 scan ⨝ uri_mapping ⨝ Thing instances
  (the class mapping itself is class-graph scale and stays broadcast)
- sameAs:        one union of the item-keyed families ⨝ uri_mapping,
  then ⨝ Thing instances (two exchanges for all four families)

All joins are `joins.copartition_join` — task-based co-partitioned
merges, NOT Ray's actor-based `Dataset.join` (a DAG this join-dense
would oversubscribe a session with CPU-reserving aggregator actors; see
copartition_join's docstring for the measured stall).

Partitioning note (north_rule): every join hash-partitions on the join
key; statement ids and item IRIs are unique per row, so no hub-key skew
is possible on these keys (the skew-prone subject-keyed aggregations
stay in joins.partitioned_group_apply / salted paths).

Mode selection lives in state.build_state(distributed=...); both paths
produce identical triple sets (tests/test_distributed.py gates set
equality against the broadcast path, which the e2e oracle gates)."""

from __future__ import annotations

import threading

import pandas as pd
import ray
from ray.data import Dataset

from . import terms as T
from .joins import copartition_join, distinct_rows, get_broadcast
from .sources import scan_predicate


def best_rank_ds(root: str) -> Dataset:
    """Statement ids typed wikibase:BestRank as a Dataset (the semi-join
    side promised at build.py's best_rank_statements call site)."""
    return scan_predicate(root, T.RDF_TYPE).map_batches(
        lambda b: pd.DataFrame(
            {"statement": b[b["object"] == T.WIKIBASE_BEST_RANK]["subject"]}
        ),
        batch_format="pandas",
    )


def _empty(columns: list[str]) -> Dataset:
    return ray.data.from_pandas(pd.DataFrame({c: [] for c in columns}).astype(str))


_SI_LOCK = threading.Lock()


def si_by_item_cached(state) -> Dataset:
    """Materialized `si_by_item`, built once per BuildState and shared
    by every distributed pipeline (subject/object sides, labels,
    full-types, sameAs). Lock-guarded: generate_yago builds the facts
    chain on a thread while the scan outputs build on the main one."""
    with _SI_LOCK:
        ds = state.datasets.get("si_by_item")
        if ds is None:
            ds = si_by_item(state).materialize()
            state.datasets["si_by_item"] = ds
        return ds


def si_by_item(state) -> Dataset:
    """(item, instance, shape): shape_instances pre-joined with the URI
    mapping ONCE, keyed by wd item — statement paths then attach the
    uri AND its shape memberships in a SINGLE item-keyed exchange
    instead of two (uri join, then (shape, instance) semi-join). One
    state-side exchange replaces one per consumer chain, and it runs
    OFF the facts chain's critical path (build_facts materializes it
    concurrently with the clean-value scan). PERF_NOTES #39's barrier
    arithmetic: each removed barrier is a fixed-latency all-to-all."""
    uri_items = state.datasets["uri_mapping"].map_batches(
        lambda b: pd.DataFrame({"instance": b["uri"], "item": b["item"]}),
        batch_format="pandas",
    )
    return copartition_join(
        state.datasets["shape_instances"], uri_items, "instance",
        ["shape", "instance"], ["item"],
        hash_keys=True,
    )


def subject_side_dist(
    root: str,
    configs: list,
    state,
    num_partitions: int | None = None,
) -> Dataset:
    """(cfg, statement, subject) via TWO co-partitioned joins instead of
    three broadcast lookups (cf. build._subject_side): the best-rank
    semi-join (statement-keyed), then ONE item-keyed join against the
    pre-joined `si_by_item` state — which attaches the mapped uri AND
    its shape memberships together, so the former uri join and
    (shape, instance) semi-join collapse into one barrier. The fan step
    then keeps (cfg, statement, uri) exactly when the uri belongs to
    the cfg's parent shape — the same predicate the semi-join enforced."""
    del num_partitions  # task-based joins size by num_parts default
    pid_to_cfgs: dict[str, list] = {}
    for cfg in configs:
        if cfg.parent_class is None:
            raise ValueError(f"No parent shape for {cfg.path}")
        for pid in cfg.pids:
            pid_to_cfgs.setdefault(pid, []).append(cfg)
    preds = {T.iri(f"{T.P_PREFIX}{pid}"): pid for pid in pid_to_cfgs}
    if not preds:
        return _empty(["cfg", "statement", "subject"])
    ds = scan_predicate(root, list(preds))

    def base(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "pid": batch["predicate"].map(preds),
                "item": batch["subject"],
                "statement": batch["object"],
            }
        )

    rows = ds.map_batches(base, batch_format="pandas")
    # hash_keys everywhere below: each side ships a 16-byte key digest
    # through the exchange instead of the ~40-55 B item/statement/IRI
    # strings (collision bound 2^-128 per copartition_join's docstring;
    # identity vs the broadcast path is pytest-gated). Semi-join sides
    # ship NO payload at all; `item` stops transiting once the state
    # row is attached.
    rows = copartition_join(
        rows, best_rank_ds(root), "statement",
        ["pid", "item", "statement"], [],
        hash_keys=True,
    )
    rows = copartition_join(
        rows, si_by_item_cached(state), "item",
        ["pid", "statement"], ["shape", "instance"],
        hash_keys=True,
    )

    fan_meta = {
        pid: [(c.cfg_id, c.parent_class) for c in cfgs]
        for pid, cfgs in pid_to_cfgs.items()
    }

    def fan(batch: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for (pid, shape), group in batch.groupby(["pid", "shape"], sort=False):
            for cfg_id, parent in fan_meta.get(pid, ()):
                if parent == shape:
                    outs.append(
                        pd.DataFrame(
                            {
                                "cfg": cfg_id,
                                "statement": group["statement"],
                                "subject": group["instance"],
                            }
                        )
                    )
        if not outs:
            return pd.DataFrame(
                {"cfg": [], "statement": [], "subject": []}
            ).astype(str)
        return pd.concat(outs, ignore_index=True)

    return rows.map_batches(fan, batch_format="pandas")


_CLEAN_FAMILY = {
    "time": "time", "duration": "duration", "integer": "integer",
    "geo": "coordinates", "quantity": "quantity",
}

_OBJ_COLS = ["cfg", "statement", "object", "extras"]


def object_side_dist(
    root: str,
    configs: list,
    state,
    clean_ds: Dataset,
    simple_prefix: str,
    complex_prefix: str,
    num_partitions: int | None = None,
) -> Dataset:
    """(cfg, statement, object, extras): stateless modes per-batch,
    range modes via ONE item-keyed join against the pre-joined
    `si_by_item` state (uri + shape membership in one exchange — see
    subject_side_dist), complex-value modes via a join against the
    clean-value Dataset (cf. build._object_side)."""
    del num_partitions
    from .build import _object_side  # stateless dispatch reuse

    stateless = [c for c in configs if c.mode in ("anyuri", "image", "datatype")]
    ranges = [c for c in configs if c.mode == "range"]
    complexes = [c for c in configs if c.complex_value]

    parts: list[Dataset] = []
    if stateless:
        parts.append(
            _object_side(root, stateless, None, simple_prefix, complex_prefix)
        )

    if ranges:
        range_preds: dict[str, list] = {}
        for cfg in ranges:
            for pid in cfg.pids:
                range_preds.setdefault(T.iri(f"{simple_prefix}{pid}"), []).append(cfg)
        ds = scan_predicate(root, list(range_preds))

        def base(batch: pd.DataFrame) -> pd.DataFrame:
            outs = []
            for pred, group in batch.groupby("predicate", sort=False):
                for cfg in range_preds.get(pred, ()):
                    outs.append(
                        pd.DataFrame(
                            {
                                "cfg": cfg.cfg_id,
                                "statement": group["subject"],
                                "item": group["object"],
                            }
                        )
                    )
            if not outs:
                return pd.DataFrame(
                    {"cfg": [], "statement": [], "item": []}
                ).astype(str)
            return pd.concat(outs, ignore_index=True)

        rows = ds.map_batches(base, batch_format="pandas")
        joined = copartition_join(
            rows, si_by_item_cached(state), "item",
            ["cfg", "statement"], ["shape", "instance"],
            hash_keys=True,
        )
        range_meta = {c.cfg_id: frozenset(c.range_classes) for c in ranges}
        rng_ref = ray.put(range_meta)

        def keep_in_range(batch: pd.DataFrame) -> pd.DataFrame:
            meta = get_broadcast(rng_ref)
            outs = []
            for cfg_id, group in batch.groupby("cfg", sort=False):
                sel = group[group["shape"].isin(meta.get(cfg_id, ()))]
                if len(sel):
                    outs.append(
                        pd.DataFrame(
                            {
                                "cfg": cfg_id,
                                "statement": sel["statement"],
                                "object": sel["instance"],
                                "extras": "",
                            }
                        )
                    )
            if not outs:
                return pd.DataFrame(
                    {"cfg": [], "statement": [], "object": [], "extras": []}
                ).astype(str)
            return pd.concat(outs, ignore_index=True)

        out = joined.map_batches(keep_in_range, batch_format="pandas")
        # an sh:or range (Person|Organization) can match through BOTH
        # instance sets → dedup only when any cfg fans to >1 class
        if any(len(v) > 1 for v in range_meta.values()):
            out = distinct_rows(out, ["cfg", "statement", "object"])
        parts.append(out)

    if complexes:
        complex_preds: dict[str, list] = {}
        for cfg in complexes:
            for pid in cfg.pids:
                complex_preds.setdefault(T.iri(f"{complex_prefix}{pid}"), []).append(cfg)
        ds = scan_predicate(root, list(complex_preds))

        def to_nodes(batch: pd.DataFrame) -> pd.DataFrame:
            outs = []
            for pred, group in batch.groupby("predicate", sort=False):
                for cfg in complex_preds.get(pred, ()):
                    outs.append(
                        pd.DataFrame(
                            {
                                "cfg": cfg.cfg_id,
                                "statement": group["subject"],
                                "family": _CLEAN_FAMILY[cfg.mode],
                                "value_node": group["object"],
                            }
                        )
                    )
            if not outs:
                return pd.DataFrame(
                    {"cfg": [], "statement": [], "family": [], "value_node": []}
                ).astype(str)
            return pd.concat(outs, ignore_index=True)

        rows = ds.map_batches(to_nodes, batch_format="pandas")
        joined = copartition_join(
            rows, clean_ds, ("family", "value_node"),
            ["cfg", "statement"], ["object", "extras"],
            hash_keys=True,
        )
        parts.append(
            joined.map_batches(
                lambda b: pd.DataFrame(
                    {
                        "cfg": b["cfg"],
                        "statement": b["statement"],
                        "object": b["object"],
                        "extras": b["extras"].fillna(""),
                    }
                ),
                batch_format="pandas",
            )
        )

    if not parts:
        return _empty(_OBJ_COLS)
    out = parts[0]
    if len(parts) > 1:
        out = out.union(*parts[1:])

    # sh:pattern filters are stateless → applied after the joins
    patterns = {c.cfg_id: c.pattern for c in configs if c.pattern is not None}
    if patterns:
        from .build import _literal_values, datatype_series

        pat_ref = ray.put(patterns)

        def apply_patterns(batch: pd.DataFrame) -> pd.DataFrame:
            pats = get_broadcast(pat_ref)
            mask = pd.Series(True, index=batch.index)
            for cfg_id, pattern in pats.items():
                sel = batch["cfg"] == cfg_id
                if not sel.any():
                    continue
                objs = batch.loc[sel, "object"]
                lit = _literal_values(objs)
                ok = (
                    (datatype_series(objs) == T.XSD_STRING)
                    & lit.notna()
                    & lit.str.contains(pattern, regex=True, na=False)
                )
                mask.loc[sel] = ok
            return batch[mask]

        out = out.map_batches(apply_patterns, batch_format="pandas")
    return out


def labels_dist(
    root: str,
    state,
    shapes_meta: list[tuple[str, frozenset, str, tuple[str, ...]]],
    num_partitions: int | None = None,
) -> Dataset:
    """(subject, path, object) for the label shapes via joins.
    shapes_meta: (path, datatypes, parent_class, from_properties)."""
    del num_partitions
    from .build import datatype_series

    pred_to_shapes: dict[str, list] = {}
    for path, dts, parent, preds in shapes_meta:
        for pred in preds:
            pred_to_shapes.setdefault(pred, []).append((path, dts, parent))
    if not pred_to_shapes:
        return _empty(["subject", "predicate", "object"])
    ds = scan_predicate(root, list(pred_to_shapes))

    def base(batch: pd.DataFrame) -> pd.DataFrame:
        dtypes = datatype_series(batch["object"])
        outs = []
        for pred, group in batch.groupby("predicate", sort=False):
            for path, dts, parent in pred_to_shapes.get(pred, ()):
                keep = dtypes.loc[group.index].isin(dts)
                sel = group[keep]
                if len(sel):
                    outs.append(
                        pd.DataFrame(
                            {
                                "path": path,
                                "parent": parent,
                                "item": sel["subject"],
                                "object": sel["object"],
                            }
                        )
                    )
        if not outs:
            return pd.DataFrame(
                {"path": [], "parent": [], "item": [], "object": []}
            ).astype(str)
        return pd.concat(outs, ignore_index=True)

    # ONE item-keyed join against the pre-joined si_by_item state: the
    # uri and its shape memberships arrive together; keeping rows where
    # the attached shape equals the label's parent shape IS the former
    # (shape, instance) semi-join
    rows = ds.map_batches(base, batch_format="pandas")
    joined = copartition_join(
        rows, si_by_item_cached(state), "item",
        ["path", "parent", "object"], ["shape", "instance"],
        hash_keys=True,
    )

    def keep_parent(b: pd.DataFrame) -> pd.DataFrame:
        sel = b[b["shape"] == b["parent"]]
        return pd.DataFrame(
            {"subject": sel["instance"], "predicate": sel["path"],
             "object": sel["object"]}
        )

    return joined.map_batches(keep_parent, batch_format="pandas")


def full_types_dist(root: str, state) -> Dataset:
    """P31 scan ⨝ si_by_item (ONE item-keyed exchange: uri + shape
    memberships together; keeping shape == schema:Thing IS the former
    Thing-instance semi-join) → class-map fan-out (the class mapping is
    class-graph scale → broadcast)."""
    class_ref = ray.put(state.wd_to_yago_class_mapping)
    thing = T.SCHEMA_THING
    p31 = scan_predicate(root, f"<{T.WDT}P31>")
    rows = p31.map_batches(
        lambda b: pd.DataFrame({"item": b["subject"], "wd_class": b["object"]}),
        batch_format="pandas",
    )
    rows = copartition_join(
        rows, si_by_item_cached(state), "item",
        ["wd_class"], ["shape", "instance"],
        hash_keys=True,
    ).map_batches(
        lambda b: b[b["shape"] == thing][["instance", "wd_class"]],
        batch_format="pandas",
    )

    def fan(batch: pd.DataFrame) -> pd.DataFrame:
        class_map = get_broadcast(class_ref)
        outs = []
        for wd_class, group in batch.groupby("wd_class", sort=False):
            for yago_class in class_map.get(wd_class, ()):
                outs.append(
                    pd.DataFrame(
                        {
                            "subject": group["instance"],
                            "predicate": T.RDF_TYPE,
                            "object": yago_class,
                        }
                    )
                )
        if not outs:
            return pd.DataFrame(
                {"subject": [], "predicate": [], "object": []}
            ).astype(str)
        return pd.concat(outs, ignore_index=True)

    return rows.map_batches(fan, batch_format="pandas")


def same_as_dist(root: str, state) -> Dataset:
    """All four sameAs families in TWO exchanges: union the item-keyed
    families, join uri_mapping once, then join Thing instances once
    (cf. build.build_same_as's four broadcast scans)."""
    from . import cleaners as C

    # family rows keyed by wd item: (item, predicate, object)
    enwiki_rows = state.datasets["enwiki"].map_batches(
        lambda b: pd.DataFrame(
            {
                "item": b["item"],
                "predicate": T.OWL_SAME_AS,
                "object": "<" + b["url"].map(C.enwiki_to_dbpedia) + ">",
            }
        ),
        batch_format="pandas",
    )

    def fb_base(batch: pd.DataFrame) -> pd.DataFrame:
        fb = batch["object"].map(C.convert_freebase_id)
        keep = fb.notna()
        return pd.DataFrame(
            {
                "item": batch["subject"][keep],
                "predicate": T.OWL_SAME_AS,
                "object": fb[keep],
            }
        )

    fb_rows = scan_predicate(root, f"<{T.WDT}P646>").map_batches(
        fb_base, batch_format="pandas"
    )

    def wp_base(batch: pd.DataFrame) -> pd.DataFrame:
        is_wp = batch["subject"].str.startswith("<") & batch["subject"].str.contains(
            ".wikipedia.org/wiki/", regex=False
        )
        sel = batch[is_wp]
        urls = sel["subject"].str.slice(1, -1)
        return pd.DataFrame(
            {
                "item": sel["object"],
                "predicate": T.SCHEMA_SAME_AS,
                "object": '"' + urls + f'"^^<{T.XSD_ANY_URI}>',
            }
        )

    wp_rows = scan_predicate(root, T.SCHEMA_ABOUT).map_batches(
        wp_base, batch_format="pandas"
    )

    # ONE item-keyed exchange against si_by_item replaces the uri join
    # AND the Thing-instance semi-join (keep shape == schema:Thing)
    thing = T.SCHEMA_THING
    si_item = si_by_item_cached(state)
    mapped = copartition_join(
        enwiki_rows.union(fb_rows, wp_rows),
        si_item,
        "item",
        ["predicate", "object"],
        ["shape", "instance"],
        hash_keys=True,
    ).map_batches(
        lambda b: (lambda sel: pd.DataFrame(
            {
                "subject": sel["instance"],
                "predicate": sel["predicate"],
                "object": sel["object"],
            }
        ))(b[b["shape"] == thing]),
        batch_format="pandas",
    )

    # wd identity links come straight off si_by_item's Thing rows —
    # (item, uri) pairs already restricted to Thing instances, so this
    # family needs NO exchange at all (was: uri scan + Thing semi-join)
    wd_rows = si_item.map_batches(
        lambda b: (lambda sel: pd.DataFrame(
            {
                "subject": sel["instance"],
                "predicate": T.OWL_SAME_AS,
                "object": sel["item"],
            }
        ))(b[b["shape"] == thing]),
        batch_format="pandas",
    )

    return wd_rows.union(mapped)
