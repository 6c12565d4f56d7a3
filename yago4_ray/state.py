"""Build-state construction: the shared read-only state of a build.

Mirrors the reference's driver prep (plan.rs:64-101): the
Wikidata→enwiki mapping (ST5), the Wikidata→YAGO URI mapping (ST2, the
4-source priority merge of plan.rs:227-382), the class machinery
(plan.rs:401-638) and the per-shape instance sets (plan.rs:641-731).

Ray-native split of labor:
- *Instance-scale* relations (rdf:type items, sitelinks, labels, P31)
  are read in ONE fused store scan (collect_input_reductions) — the
  URI-mapping priority merge runs over complete item groups in
  hash-range shard tasks instead of three anti-joins (SURVEY J7), and
  shape-instance construction + disjoint-instance removal is ONE
  `groupby(instance)` (SURVEY G5).
- *Class-graph-scale* data (P279 edges, per-class instance counts) is
  collected to the driver and closed with plain Python (SURVEY G1-G4):
  even full Wikidata's class graph is a few M edges.

Each state object is built once and BuildState holds one handle to it:
- ST2, the URI map: packed into a `broadcast.HashIndex` by the remote
  merge task (`_assemble_uri`); that task's ref (`uri_ref`) is the
  map's one object-store copy, and the driver fetches it once
  (`uri_mapping`) for class machinery;
- ST3, the shape instances: per-shape HashIndex sets packed by a remote
  task (`shape_instances` is that task's ref), plus the resolved
  (shape, instance) Dataset;
- ST4, the clean values: materialized Arrow blocks built by
  `build.clean_values` while the state builds; the broadcast path packs
  them into per-family maps and keeps only the pack;
- ST5, the enwiki links: the sitelinked item column (class machinery
  reads it at class scale) and an (item, url) Dataset for the sameAs
  family; no driver-side map.

Fact-pipeline workers read the packed refs (zero-copy, cached per
worker process). With `distributed=True` the family plan (build_dist)
joins the Datasets in `BuildState.datasets` instead.
"""

from __future__ import annotations

import sys
import types
from collections import defaultdict
from dataclasses import dataclass, field
from urllib.parse import unquote

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
from ray.data import Dataset

# fsspec's http module needs aiohttp (absent here). Ray re-imports it on
# every path resolution and catches the ModuleNotFoundError — but when
# several Dataset executions start from threads, the CONCURRENT first
# import surfaces as a partially-initialized-module ImportError instead
# and escapes Ray's except clause. Pre-installing a minimal stub makes
# the import race-free (there is no network in this sandbox anyway).
try:  # pragma: no cover - depends on environment
    import fsspec.implementations.http  # noqa: F401
except ImportError:
    _http_stub = types.ModuleType("fsspec.implementations.http")
    _http_stub.HTTPFileSystem = type("HTTPFileSystem", (), {})
    sys.modules.setdefault("fsspec.implementations.http", _http_stub)

from . import graph as G
from . import terms as T
from .broadcast import _hash_series
from .joins import _arrow_distinct, get_broadcast, partitioned_group_apply
from .schema import Schema
from .sources import scan_predicate

ENWIKI_PREFIX = "https://en.wikipedia.org/wiki/"


class Stats:
    """Build counters, written as stats.tsv (plan.rs:2361-2409)."""

    def __init__(self):
        self._data: dict[str, dict[str, int]] = defaultdict(dict)
        # key → zero-arg callable returning {entry: value}, resolved at
        # write() — lets counters produced by still-running remote tasks
        # (shape-instance pack) register without blocking the build
        self._lazy: dict[str, object] = {}

    def set_global(self, key: str, value: int):
        self.set_local(key, "*", value)

    def set_local(self, key: str, entry: str, value: int):
        self._data[key].setdefault(str(entry), int(value))

    def set_lazy(self, key: str, fn):
        self._lazy[key] = fn

    def write(self, path: str):
        for key, fn in list(self._lazy.items()):
            try:
                for entry, value in fn().items():
                    self.set_local(key, entry, value)
            except Exception as exc:  # a lost/failed remote counter task
                # must not discard stats.tsv and every EAGER counter at
                # the very last step of an otherwise-successful build
                print(
                    f"[stats] lazy counter {key!r} failed: {exc}",
                    flush=True,
                )
        self._lazy.clear()
        with open(path, "w") as f:
            for key in sorted(self._data):
                values = self._data[key]
                if len(values) > 1 and "*" not in values:
                    f.write(f"{key}\t*\t{sum(values.values())}\n")
                for entry in sorted(values):
                    f.write(f"{key}\t{entry}\t{values[entry]}\n")


@dataclass
class BuildState:
    schema: Schema
    stats: Stats
    # wd term → yago term: the driver's copy of the HashIndex the remote
    # URI merge packed (class machinery; its len is a stat)
    uri_mapping: object
    # the ref of that same HashIndex (the merge task's output, its one
    # object-store copy): every worker-side URI lookup reads it
    uri_ref: "ray.ObjectRef"
    yago_classes: set[str]
    wd_to_yago_class_mapping: dict[str, list[str]]
    yago_super_class_of: dict[str, list[str]]
    # ref of the remotely packed {target class → HashIndex} instance
    # membership (64-bit hashes; instance strings never transit the
    # driver, see build_shape_instances)
    shape_instances: "ray.ObjectRef"
    # ref of the one packed HashIndex of `yago_classes` (the P31
    # fan-out's and the class-label family's lookups)
    yago_classes_ref: "ray.ObjectRef"
    # distributed=True → the family plan's lookups join against
    # `datasets` (build_dist) instead of the packed broadcasts above;
    # chosen by build_state from state size or its `distributed=`
    distributed: bool = False
    datasets: dict[str, Dataset] = field(default_factory=dict)
    # state build_facts needs, started EARLY by build_state. The clean
    # values are a Future submitted the moment the URI merge ref exists:
    # "clean_maps" (broadcast path) of build.clean_maps' (packed-maps
    # ref, family-count refs), "clean_values" (distributed path) of
    # build.clean_values' (Arrow block refs, family-count refs);
    # "best_rank_ref" (broadcast path) is (HashIndex ref,
    # collision-free flag ref) from the fused scan;
    # "item_scan" (distributed path) is a Future of build_dist.item_scan's
    # planned store scan
    prewarmed: dict = field(default_factory=dict)
    # the statement store this state was built from (sizes the
    # distributed state-side exchanges)
    statements_root: str = ""


# ---------------------------------------------------------------------------
# ST2/ST5: URI-mapping candidates and enwiki sitelinks (fused-scan kernels)
# ---------------------------------------------------------------------------

def _slow_encode_scatter(values, simple_mask, fast, encode_one):
    """Combine the vectorized fast-path results with the per-row slow
    path: rows failing `simple_mask` (rare — labels/titles with
    percent-escapes or non-ipchar bytes) run `encode_one` in Python and
    scatter into the fast array. Returns a numpy object array."""
    out = np.asarray(fast, dtype=object)
    idx = np.nonzero(~np.asarray(simple_mask, dtype=bool))[0]
    if len(idx):
        vals = np.asarray(values, dtype=object)[idx]
        out[idx] = [encode_one(v) for v in vals]
    return out


def _wiki_candidates_arrow(tbl: "pa.Table") -> pd.DataFrame:
    """Priority-1 URI candidates from a schema:about batch: the enwiki
    title becomes the YAGO IRI (plan.rs:300-320). ONE extract_regex
    pass pulls the title; titles that are pure ipchar with no
    percent-escapes skip the decode/encode round trip, the rest run
    the per-row spec `terms.yago_resource_from_title(unquote(t))`
    (parity-gated against it by tests/test_properties)."""
    import re as _re

    import pyarrow.compute as pc

    ex = pc.extract_regex(
        tbl.column("subject"),
        f"^<{_re.escape(ENWIKI_PREFIX)}(?P<t>(?s:.*))>$",
    )
    keep = pc.is_valid(ex)
    sel = tbl.filter(keep)
    titles = pc.struct_field(ex.filter(keep), "t")
    simple = pc.and_(
        pc.invert(pc.match_substring(titles, "%")),
        pc.match_substring_regex(titles, T.IPCHAR_OR_SPACE_RE),
    )
    fast = pc.binary_join_element_wise(
        pa.scalar("<" + T.YAGO_RESOURCE_PREFIX),
        pc.replace_substring(titles, " ", "_"),
        pa.scalar(">"),
        "",
    )
    uris = _slow_encode_scatter(
        titles.to_pandas().to_numpy(),
        simple.to_numpy(zero_copy_only=False),
        fast.to_pandas().to_numpy(),
        lambda t: T.yago_resource_from_title(unquote(t)),
    )
    items = sel.column("object").to_pandas()
    return pd.DataFrame(
        {"item": items, "priority": 1, "uri": uris, "h": _hash_series(items)}
    )


def _enwiki_pairs_arrow(tbl: "pa.Table") -> pd.DataFrame:
    """(item, url, h) rows for en.wikipedia sitelinks in a schema:about
    batch (ST5, plan.rs:206-223): the url is the subject IRI's value."""
    import re as _re

    import pyarrow.compute as pc

    ex = pc.extract_regex(
        tbl.column("subject"),
        f"^<(?P<u>{_re.escape(ENWIKI_PREFIX)}(?s:.*))>$",
    )
    keep = pc.is_valid(ex)
    items = tbl.filter(keep).column("object").to_pandas()
    urls = pc.struct_field(ex.filter(keep), "u").to_pandas()
    return pd.DataFrame({"item": items, "url": urls, "h": _hash_series(items)})


def _label_candidates_arrow(tbl: "pa.Table") -> pd.DataFrame:
    """Priority-2 URI candidates from a skos:prefLabel batch: English
    label + _Q{id} (plan.rs:322-341). Two extract_regex passes pull the
    qid and the label; labels that are pure ipchar with no escapes skip
    the per-row spec `encode_iri_path(literal_value(...))`."""
    import pyarrow.compute as pc

    qx = pc.extract_regex(
        tbl.column("subject"),
        r"^<http://www\.wikidata\.org/entity/(?P<q>Q[0-9]+)>$",
    )
    vx = pc.extract_regex(tbl.column("object"), '(?s)^"(?P<v>.*)"@en$')
    keep = pc.and_(pc.is_valid(qx), pc.is_valid(vx))
    sub = tbl.filter(keep)
    qids = pc.struct_field(qx.filter(keep), "q")
    values = pc.struct_field(vx.filter(keep), "v")
    simple = pc.and_(
        pc.invert(pc.match_substring(values, "\\")),
        pc.match_substring_regex(values, T.IPCHAR_OR_SPACE_RE),
    )
    fast = pc.replace_substring(values, " ", "_")
    encoded = _slow_encode_scatter(
        values.to_pandas().to_numpy(),
        simple.to_numpy(zero_copy_only=False),
        fast.to_pandas().to_numpy(),
        lambda v: T.encode_iri_path(T.literal_value(f'"{v}"')),
    )
    items = sub.column("subject").to_pandas()
    uris = pc.binary_join_element_wise(
        pa.scalar("<" + T.YAGO_RESOURCE_PREFIX),
        pa.array(encoded, pa.string(), from_pandas=True),
        pa.scalar("_"),
        qids,
        pa.scalar(">"),
        "",
    ).to_pandas()
    return pd.DataFrame(
        {"item": items, "priority": 2, "uri": uris, "h": _hash_series(items)}
    )


def merge_uri_candidates_arrow(tbl: "pa.Table") -> "pa.Table":
    """Vectorized priority merge over complete item groups: per
    priority LEVEL ascending, uncovered items take their min uri.

    Arrow-native: items are DICTIONARY-ENCODED once in C++ (exact
    integer codes — unlike 64-bit hashing there is no collision risk)
    so every membership test is a numpy boolean-array index instead of
    an object-string hashtable probe; item/uri strings stay in Arrow
    buffers end to end (`take` slices them in C++), and the
    min-uri-per-item dedup sorts only the items that actually have >1
    candidate at a level (almost none: one @en label per item is the
    norm). The pandas object-string form this replaces paid 5 s in
    pd.factorize alone at 6.2 M candidate rows; this form runs the
    whole merge in ~1.5 s with identical output content."""
    import pyarrow as pa
    import pyarrow.compute as pc

    # candidate rows carry "h" = _hash_series(item) computed in the scan
    # tasks; it rides through the merge so the HashIndex broadcast needs
    # no driver-side rehash of 2.4 M key strings
    has_h = "h" in tbl.schema.names
    fields = [
        ("item", pa.large_string()),
        ("priority", pa.int64()),
        ("uri", pa.large_string()),
    ] + ([("h", pa.uint64())] if has_h else [])
    tbl = tbl.select([f[0] for f in fields]).cast(pa.schema(fields)).combine_chunks()
    if tbl.num_rows == 0:
        return tbl.drop_columns(["priority"])
    item = tbl.column("item").chunk(0)
    uri = tbl.column("uri").chunk(0)
    pr = tbl.column("priority").to_numpy()
    h_row = tbl.column("h").to_numpy() if has_h else None

    enc = pc.dictionary_encode(item)
    codes = enc.indices.to_numpy().astype(np.int64, copy=False)
    uniq = enc.dictionary
    n_codes = len(uniq)

    def take(arr, idx):
        return arr.take(pa.array(idx, type=pa.int64()))

    p0_idx = np.flatnonzero(pr == 0)
    if len(p0_idx):
        _, first = np.unique(codes[p0_idx], return_index=True)
        p0_idx = p0_idx[np.sort(first)]  # keep-first, input order
    covered = np.zeros(n_codes, dtype=bool)
    covered[codes[p0_idx]] = True
    marked = np.zeros(n_codes, dtype=bool)
    marked[codes[pr == 99]] = True

    sel_rows = [p0_idx]
    cand_mask = (pr > 0) & (pr < 99) & marked[codes]
    for level in np.unique(pr[cand_mask]):
        idx = np.flatnonzero(cand_mask & (pr == level) & ~covered[codes])
        if not len(idx):
            continue
        lvl_codes = codes[idx]
        counts = np.bincount(lvl_codes, minlength=n_codes)
        multi = counts[lvl_codes] > 1
        sel = idx[~multi]
        if multi.any():  # min uri per item, only where it's contested
            sub_idx = idx[multi]
            order = pc.sort_indices(take(uri, sub_idx)).to_numpy()
            sorted_idx = sub_idx[order]
            _, first = np.unique(codes[sorted_idx], return_index=True)
            sel = np.concatenate([sel, sorted_idx[first]])
        sel_rows.append(sel)
        covered[lvl_codes] = True
    all_sel = np.concatenate(sel_rows) if sel_rows else np.empty(0, np.int64)
    out_items = [take(item, all_sel)]
    out_uris = [take(uri, all_sel)]
    rest_codes = np.flatnonzero(marked & ~covered)
    # fallback _Q{id} for still-uncovered kept items, matching
    # ^<http://www.wikidata.org/entity/(Q[0-9]+)>$ (RE2 on the Arrow
    # dictionary — unique items only, not candidate rows)
    rest = take(uniq, rest_codes)
    qid = pc.extract_regex(
        rest, r"^<http://www\.wikidata\.org/entity/(?P<qid>Q[0-9]+)>$"
    )
    ok = pc.is_valid(qid)
    fb_item = pc.filter(rest, ok)
    fb_qid = pc.struct_field(pc.filter(qid, ok), "qid")
    fb_uri = pc.binary_join_element_wise(
        pa.scalar("<" + T.YAGO_RESOURCE_PREFIX + "_"),
        fb_qid.cast(pa.string()),
        pa.scalar(">"),
        "",
    ).cast(pa.large_string())
    out_items.append(fb_item.cast(pa.large_string()))
    out_uris.append(fb_uri)
    cols = {
        "item": pa.chunked_array(out_items).combine_chunks(),
        "uri": pa.chunked_array(out_uris).combine_chunks(),
    }
    if has_h:
        # item hash per dictionary code (any row of the code works: the
        # hash is a function of the item string)
        h_code = np.zeros(n_codes, dtype=np.uint64)
        h_code[codes] = h_row
        ok_np = ok.to_numpy(zero_copy_only=False)
        fb_h = h_code[rest_codes][ok_np] if len(rest_codes) else h_code[:0]
        cols["h"] = pa.array(
            np.concatenate([h_row[all_sel], fb_h]), type=pa.uint64()
        )
    return pa.table(cols)


# hash-range shard count for the remote URI merge: 2**_UM_BITS tasks,
# each owning h >> (64 - _UM_BITS) == shard — complete item groups stay
# together (every candidate row of an item carries the same h), and the
# shards' hash-SORTED outputs concatenate in shard order into one
# globally sorted array, so the final HashIndex pack is a zero-sort
# concat (presorted=True)
_UM_BITS = 3


@ray.remote(num_cpus=1)
def _merge_uri_shard(schema_tbl, mandatory_tbl, shard: int, *blocks):
    """One hash-range shard of the URI priority merge. Independent
    1-CPU tasks ride the scheduler better than one N-thread task under
    this host's CPU-steal weather (the 8-thread num_cpus=4 form this
    replaces measured 2.3 s clean but 11+ s in loaded windows), and the
    range filter (top `_UM_BITS` bits of the worker-computed item hash)
    runs BEFORE the kind routing so each task touches ~1/shards of the
    candidate rows."""
    import pyarrow as pa
    import pyarrow.compute as pc

    shift = np.uint64(64 - _UM_BITS)

    def rng(t: pa.Table) -> pa.Table:
        h = t.column("h")
        if t.num_rows == 0:
            return t
        sel = pc.equal(
            pc.shift_right(h, pa.scalar(int(shift), pa.uint64())),
            pa.scalar(shard, pa.uint64()),
        )
        return t.filter(sel)

    # range-filter each block BEFORE concatenation: concatenating the
    # full candidate set first paid shards× concat memory per task.
    # (Blocks still ship whole to each shard task — zero-copy here; the
    # full multi-node fix is pre-splitting into ranges in the scan
    # tasks, worth it only once the exchange is cross-node.)
    tbl = pa.concat_tables(
        [rng(b) for b in blocks], promote_options="permissive"
    )
    kind_col = tbl.column("kind")

    def part_p(k: int, p: int) -> pa.Table:
        t = tbl.filter(pc.equal(kind_col, k))
        return pa.table(
            {
                "item": t["item"],
                "priority": pa.array(
                    np.full(t.num_rows, p, dtype=np.int64), pa.int64()
                ),
                "uri": t["uri"],
                "h": t["h"],
            }
        )

    cand = pa.concat_tables(
        [
            rng(schema_tbl),
            part_p(_K_WIKI, 1),
            part_p(_K_LABEL, 2),
            part_p(_K_MARKER, 99),
            rng(mandatory_tbl),
        ],
        promote_options="permissive",
    )
    return merge_uri_candidates_arrow(cand).sort_by([("h", "ascending")])


@ray.remote(num_cpus=1)
def _pack_best_rank(*blocks):
    """Pack the BestRank statement-id hashes into a broadcastable
    hash-only HashIndex OFF the driver (same discipline as `_assemble_uri`): the
    unified-scan blocks carry the 8-byte hashes (kind=_K_BESTRANK), so
    the ~n/3-row sort + dedup runs in one task and build_facts consumes
    the ObjectRef straight from the object store. Returns
    (HashIndex | None, collision_free) — callers ray.get only the tiny
    flag; on the (never-observed) 64-bit collision they rebuild from
    the statement strings (build.best_rank_statements)."""
    import pyarrow.compute as pc

    from .broadcast import HashIndex

    hs = []
    for b in blocks:
        sel = b.filter(pc.equal(b.column("kind"), _K_BESTRANK))
        hs.append(sel.column("h").to_numpy(zero_copy_only=False))
    h = np.concatenate(hs) if hs else np.empty(0, np.uint64)
    try:
        return HashIndex.from_hashes(h), True
    except ValueError:  # distinct statement ids sharing a 64-bit hash
        return None, False


@ray.remote(num_cpus=1)
def _driver_rows(*blocks):
    """The fused-scan rows the driver reads (enwiki pairs, P279 edges,
    P31 count partials), filtered OFF the driver: the item markers, URI
    candidates and best-rank hashes — most of the scan's bytes — stay
    with the remote merge and pack."""
    import pyarrow.compute as pc

    tbl = pa.concat_tables(blocks, promote_options="permissive")
    kinds = pa.array([_K_ENWIKI, _K_P279, _K_COUNT], pa.int8())
    return tbl.filter(pc.is_in(tbl.column("kind"), value_set=kinds))


@ray.remote(num_returns=2)
def _assemble_uri(*shard_tbls):
    """Concat the hash-range merge shards (globally h-sorted by
    construction) and pack the HashIndex broadcast without re-sorting.
    Returning (HashIndex, (item, uri) table) straight from a task means
    the broadcast ObjectRef EXISTS the moment the shard tasks are
    submitted — the clean-value scan (whose tasks only ray.get the ref
    lazily) is planned and launched while the merge still runs, and the
    packed map goes worker → object store with no driver serialize."""
    import pyarrow as pa

    from .broadcast import HashIndex

    tbl = pa.concat_tables(list(shard_tbls)).combine_chunks()
    mapping = HashIndex(
        tbl["item"], tbl["uri"], hashes=tbl["h"], presorted=True,
        keep_keys=False,
    )
    return mapping, tbl.select(["item", "uri"])


# ---------------------------------------------------------------------------
# Class machinery (driver-side closures over the class graph)
# ---------------------------------------------------------------------------

def _mapping_subset(mapping, keys) -> dict:
    """Plain-dict projection of the HashIndex `mapping` over `keys` —
    ONE vectorized lookup."""
    ks = pd.Series(sorted(keys), dtype=object)
    return {k: v for k, v in zip(ks, mapping.lookup(ks)) if pd.notna(v)}


def subclass_of_from_yago_schema(schema: Schema) -> list[tuple[str, str]]:
    """Schema-side subclass edges with the Intangible/StructuredValue
    rewrites (plan.rs:2225-2248)."""
    edges = []
    for shape in schema.node_shapes():
        cls = schema.rdfs_class(shape.target_class)
        if cls is None:
            continue
        for super_class in cls.super_classes:
            if super_class in (T.SCHEMA_INTANGIBLE, T.SCHEMA_MEDICAL_INTANGIBLE):
                edges.append((cls.id, T.SCHEMA_THING))
            elif super_class in (T.SCHEMA_STRUCTURED_VALUE, T.SCHEMA_SERIES):
                continue
            else:
                edges.append((cls.id, super_class))
    return edges


# fused-reduction row kinds (routing column of the single-scan job)
(
    _K_MARKER, _K_WIKI, _K_LABEL, _K_ENWIKI, _K_P279, _K_COUNT,
    _K_BESTRANK,
) = range(7)


def collect_input_reductions(
    root: str,
    schema: Schema,
    stats: Stats,
    size: str = "full",
    on_uri_ref=None,
    pack_best_rank: bool = True,
):
    """Every driver-scale input reduction in ONE store scan: URI-mapping
    candidates (markers + wiki + label), enwiki sitelink pairs, P279
    edges and per-class P31 instance counts, routed by predicate inside
    one map_batches and split by a `kind` column (the driver gets only
    the enwiki, P279 and count kinds, see `_driver_rows`).

    Replaces four CONCURRENT Ray jobs (enwiki map, URI mapping, P279
    edges, instance counts) that contended for the same CPUs — the URI
    candidate scan alone measured 7.9 s solo but 15.0 s under the 4-way
    overlap at 22 M statements / 32 CPUs — scans the schema:about
    partition once instead of twice, and turns the P31 count reduce
    into per-batch partials summed on the driver (class-graph scale)
    instead of a shuffle.

    Returns (uri_mapping, uri_ds, enwiki_items, enwiki_ds, p279_edges,
    instance_counts, (best_rank_set_ref, collision_free_ref), uri_ref):
    the driver copy of the packed URI map and the ref it was packed
    into, the sitelinked items as one Arrow column (class machinery
    reads it at class scale) and the (item, url) Dataset of the sameAs
    family.
    """
    import pyarrow.compute as pc

    p279_pred = f"<{T.WDT}P279>"
    p31_pred = f"<{T.WDT}P31>"
    # rdf:type is ALWAYS scanned: it carries the wikibase:Item markers
    # (full size only) AND the BestRank statement ids — folding the
    # best-rank reduction in here removes a second full pass over the
    # store's biggest partition
    preds = [
        T.SCHEMA_ABOUT, T.SKOS_PREF_LABEL, p279_pred, p31_pred, T.RDF_TYPE,
    ]
    needle = ENWIKI_PREFIX if size == "en-wikipedia" else ".wikipedia.org/wiki/"

    _zero_h = np.zeros(0, dtype=np.uint64)

    def _unified(kind: int, item, uri=None, n=None, h=None) -> pa.Table:
        # Arrow out: the routed rows feed a shuffle-free to_arrow_refs
        # collect; pandas object frames mis-size in Ray's estimator
        # (np.vectorize errors on empty frames) and pickle every string
        items = np.asarray(item, dtype=object)
        m = len(items)
        return pa.table(
            {
                "kind": pa.array(np.full(m, kind, dtype=np.int8)),
                "item": pa.array(items, pa.string(), from_pandas=True),
                "uri": pa.array(
                    np.asarray(uri, dtype=object)
                    if uri is not None
                    else np.full(m, "", dtype=object),
                    pa.string(),
                    from_pandas=True,
                ),
                "n": pa.array(
                    np.asarray(n, dtype=np.int64)
                    if n is not None
                    else np.zeros(m, dtype=np.int64)
                ),
                "h": pa.array(
                    np.asarray(h, dtype=np.uint64)
                    if h is not None
                    else np.zeros(m, dtype=np.uint64)
                ),
            }
        )

    def route(batch: pa.Table) -> pa.Table:
        # Arrow in, Arrow routing: the equality filters over rdf:type —
        # the store's biggest partition — and the P31 count partials run
        # as Arrow kernels; ONLY the subsets that feed the pandas
        # siphash / URL-encode kernels convert to pandas (converting the
        # whole 8 M-row frame cost ~2/3 of the scan wall at 32 CPUs —
        # the read alone is 0.57 s, scan+pandas-route was 1.8 s)
        outs: list[pa.Table] = []
        predc = batch.column("predicate")
        t = batch.filter(pc.equal(predc, T.RDF_TYPE))
        if t.num_rows:
            if size == "full":
                items = (
                    t.filter(pc.equal(t.column("object"), T.WIKIBASE_ITEM))
                    .column("subject")
                    .to_pandas()
                )
                outs.append(_unified(_K_MARKER, items, h=_hash_series(items)))
            # BestRank membership travels as 8-byte hashes only
            # (statement ids never reach the driver as strings)
            br = (
                t.filter(pc.equal(t.column("object"), T.WIKIBASE_BEST_RANK))
                .column("subject")
                .to_pandas()
            )
            outs.append(
                _unified(
                    _K_BESTRANK,
                    np.full(len(br), "", dtype=object),
                    h=_hash_series(br),
                )
            )
        ab = batch.filter(pc.equal(predc, T.SCHEMA_ABOUT))
        if ab.num_rows:
            wiki = _wiki_candidates_arrow(ab)
            outs.append(
                _unified(_K_WIKI, wiki["item"], uri=wiki["uri"], h=wiki["h"])
            )
            pairs = _enwiki_pairs_arrow(ab)
            outs.append(
                _unified(
                    _K_ENWIKI, pairs["item"], uri=pairs["url"], h=pairs["h"]
                )
            )
            if size != "full":
                items = ab.filter(
                    pc.match_substring(ab.column("subject"), needle)
                ).column("object").to_pandas()
                outs.append(_unified(_K_MARKER, items, h=_hash_series(items)))
        lb = batch.filter(pc.equal(predc, T.SKOS_PREF_LABEL))
        if lb.num_rows:
            lab = _label_candidates_arrow(lb)
            outs.append(
                _unified(_K_LABEL, lab["item"], uri=lab["uri"], h=lab["h"])
            )
        p279 = batch.filter(pc.equal(predc, p279_pred))
        if p279.num_rows:
            outs.append(
                _unified(
                    _K_P279,
                    p279.column("subject").to_pandas(),
                    uri=p279.column("object").to_pandas(),
                )
            )
        p31 = batch.filter(pc.equal(predc, p31_pred))
        if p31.num_rows:
            # per-batch combiner partials: store rows are globally
            # distinct, so batch-level distinct-count partials sum
            # exactly. Arrow count_distinct is exact-byte (strictly
            # better than pandas nunique's C-string NUL collapse — see
            # broadcast._hash_series)
            agg = pa.TableGroupBy(
                p31.select(["object", "subject"]), "object", use_threads=False
            ).aggregate([("subject", "count_distinct")])
            outs.append(
                _unified(
                    _K_COUNT,
                    agg.column("object").to_pandas(),
                    n=agg.column("subject_count_distinct").to_numpy(),
                )
            )
        if not outs:
            return _unified(_K_MARKER, [])
        return pa.concat_tables(outs)

    # wide=True: this scan feeds to_arrow_refs + the per-range merge
    # tasks (no exchange), so block count should track the SESSION
    # width, not the shuffle-exchange bound. Materialized first: a lazy
    # Dataset's to_arrow_refs fetches its schema through limit(1), which
    # re-runs the scan (PERF_NOTES #50)
    rows = scan_predicate(root, preds, wide=True).map_batches(
        route, batch_format="pyarrow"
    )
    block_refs = rows.materialize().to_arrow_refs()
    # submitted first: the driver's reductions wait on it, not the merge
    driver_rows_ref = _driver_rows.remote(*block_refs)

    # URI candidate prep the remote merge can't derive from the blocks
    # (driver-side, tiny)
    from_schema: dict[str, str] = {}
    for shape in schema.node_shapes():
        for from_class in shape.from_classes:
            from_schema[from_class] = shape.target_class
    schema_tbl = pa.table(
        {
            "item": pa.array(list(from_schema), pa.string()),
            "priority": pa.array([0] * len(from_schema), pa.int64()),
            "uri": pa.array(list(from_schema.values()), pa.string()),
            "h": pa.array(
                _hash_series(list(from_schema)) if from_schema else _zero_h,
                pa.uint64(),
            ),
        }
    )
    mandatory = sorted(T.MANDATORY_WD_ITEMS)
    mandatory_tbl = pa.table(
        {
            "item": pa.array(mandatory, pa.string()),
            "priority": pa.array([99] * len(mandatory), pa.int64()),
            "uri": pa.array([""] * len(mandatory), pa.string()),
            "h": pa.array(_hash_series(mandatory), pa.uint64()),
        }
    )
    # the merge + HashIndex pack runs in a TASK over the scan blocks:
    # uri_ref exists NOW, so the caller can launch the clean-value
    # scan (its tasks get the ref lazily) while the merge still runs
    shard_refs = [
        _merge_uri_shard.remote(schema_tbl, mandatory_tbl, s, *block_refs)
        for s in range(1 << _UM_BITS)
    ]
    uri_ref, uri_tbl_ref = _assemble_uri.remote(*shard_refs)
    if on_uri_ref is not None:
        on_uri_ref(uri_ref)
    # best-rank membership packs REMOTELY too (same discipline as the
    # URI merge): ~n/3 statement-id hashes never sort on the driver and
    # the packed set is consumed by build_facts straight from the object
    # store (the driver used to sort, hold AND re-ray.put them — a flat
    # ~0.5 s at every CPU width). The distributed-state path joins
    # against the best-rank ids (build_dist.best_rank_sides) instead
    # and skips the pack.
    rank_set_ref = rank_ok_ref = None
    if pack_best_rank:
        rank_set_ref, rank_ok_ref = _pack_best_rank.options(
            num_returns=2
        ).remote(*block_refs)

    tbl = ray.get(driver_rows_ref)
    kind_col = tbl.column("kind")

    def part(k: int) -> pa.Table:
        return tbl.filter(pc.equal(kind_col, k))

    # the per-kind reductions below are independent Arrow/numpy work
    # over the immutable collected table — run them in threads (the
    # kernels release the GIL) while the MAIN thread does the URI
    # candidate prep + priority merge, the serial critical path
    import concurrent.futures as _icf

    def _p279():
        ptbl = part(_K_P279)
        return list(zip(ptbl["item"].to_pylist(), ptbl["uri"].to_pylist()))

    def _counts():
        ctbl = part(_K_COUNT)
        csum = pa.TableGroupBy(ctbl.select(["item", "n"]), "item").aggregate(
            [("n", "sum")]
        )
        return dict(zip(csum["item"].to_pylist(), csum["n_sum"].to_pylist()))

    _side_pool = _icf.ThreadPoolExecutor(max_workers=2)
    f_p279 = _side_pool.submit(_p279)
    f_counts = _side_pool.submit(_counts)

    # --- URI mapping: the 4-source priority merge (plan.rs:227-382)
    # runs remotely (hash-range _merge_uri_shard tasks + _assemble_uri,
    # submitted before the collect); here the driver only fetches the
    # packed map for class machinery
    uri_mapping = ray.get(uri_ref)
    uri_ds = ray.data.from_arrow_refs([uri_tbl_ref])
    enwiki = part(_K_ENWIKI)
    enwiki_ds = ray.data.from_arrow(
        enwiki.select(["item", "uri"]).rename_columns(["item", "url"])
    )
    p279_edges = f_p279.result()
    instance_counts = f_counts.result()
    _side_pool.shutdown(wait=False)
    stats.set_global("Total URI mapping size", len(uri_mapping))
    return (
        uri_mapping,
        uri_ds,
        enwiki["item"],
        enwiki_ds,
        p279_edges,
        instance_counts,
        (rank_set_ref, rank_ok_ref),
        uri_ref,
    )


def build_class_machinery(
    root: str,
    schema: Schema,
    stats: Stats,
    uri_mapping,
    enwiki_items: "pa.ChunkedArray",
    all_sub_class_of: list[tuple[str, str]],
    instance_counts: dict[str, int],
) -> tuple[set[str], dict[str, list[str]], dict[str, list[str]]]:
    """The 7-step class algorithm of plan.rs:384-614. P279 edges and
    per-class instance counts come from the fused input scan
    (collect_input_reductions); the closures run on the driver."""
    from_classes = [
        fc for shape in schema.node_shapes() for fc in shape.from_classes
    ]

    stats.set_global("Wikidata sub class of", len(all_sub_class_of))

    # mapped classes keep only schema-side superclasses (plan.rs:433-436)
    sub_class_of = G.edge_map(
        (s, o) for s, o in all_sub_class_of if s not in from_classes
    )
    super_class_of = G.invert(sub_class_of)

    bad_classes = G.transitive_closure(T.WD_BAD_CLASSES, super_class_of)
    stats.set_global("bad classes", len(bad_classes))

    mapped_subclasses = G.transitive_closure(from_classes, super_class_of)
    stats.set_global(
        "Wikidata classes subclass of a mapped class", len(mapped_subclasses)
    )

    # classes below two disjoint mapped trees (plan.rs:478-497)
    subclasses_of_disjoint: set[str] = set()
    for cls in schema.classes():
        shape1 = schema.node_shape(cls.id)
        for other in cls.disjoint_classes:
            shape2 = schema.node_shape(other)
            for wd1 in shape1.from_classes:
                for wd2 in shape2.from_classes:
                    c1 = G.transitive_closure([wd1], super_class_of)
                    c2 = G.transitive_closure([wd2], super_class_of)
                    subclasses_of_disjoint |= c1 & c2
    stats.set_global("Not disjoint classes", len(subclasses_of_disjoint))

    with_min_instances = {
        c
        for c, n in instance_counts.items()
        if n >= T.MIN_NUMBER_OF_INSTANCES
    }
    stats.set_global("classes with at least 10 instances", len(with_min_instances))

    classes_to_keep = {
        c
        for c in mapped_subclasses & with_min_instances
        if c not in bad_classes and c not in subclasses_of_disjoint
    } | set(from_classes)
    stats.set_global(
        "Wikidata classes used for the instance of extraction", len(classes_to_keep)
    )

    # the kept classes with an enwiki sitelink: the instance-scale item
    # column probes a class-scale value set, exactly (string equality)
    import pyarrow.compute as pc

    keep_arr = pa.array(sorted(classes_to_keep), pa.string())
    items = enwiki_items.cast(pa.string())
    sitelinked = items.filter(pc.is_in(items, value_set=keep_arr))
    classes_to_keep_for_yago = set(sitelinked.to_pylist()) | set(from_classes)
    stats.set_global(
        "Wikidata classes kept for Yago", len(classes_to_keep_for_yago)
    )

    # project the HashIndex URI mapping onto the class keys
    # once, vectorized — the loops below probe it O(class-graph) times
    # and a per-probe hash would dominate at real-Wikidata class counts
    uri_mapping = _mapping_subset(
        uri_mapping, classes_to_keep | set(from_classes)
    )

    # YAGO subclass graph: closure up to mapped classes, then URI-mapped
    closure_pairs = G.transitive_closure_pairs(
        (
            (s, o)
            for s, vs in sub_class_of.items()
            if s in classes_to_keep_for_yago
            for o in vs
        ),
        sub_class_of,
    )
    yago_sub_class_of_pairs = [
        (uri_mapping[k], uri_mapping[v])
        for k, vs in closure_pairs.items()
        for v in vs
        if v in from_classes and k in uri_mapping and v in uri_mapping
    ]
    yago_sub_class_of_pairs.extend(subclass_of_from_yago_schema(schema))
    yago_sub_class_of = G.edge_map(yago_sub_class_of_pairs)
    yago_super_class_of_raw = G.invert(yago_sub_class_of)
    yago_super_class_of = G.filter_redundant_parents(
        yago_super_class_of_raw, yago_sub_class_of
    )
    stats.set_global(
        "sub class of relations in Yago",
        sum(len(v) for v in yago_super_class_of.values()),
    )

    # Wikidata class → YAGO class mapping (plan.rs:578-601)
    identity = [(c, c) for c in classes_to_keep_for_yago]
    lifted = G.transitive_closure_pairs(
        ((c, c) for c in classes_to_keep - classes_to_keep_for_yago),
        sub_class_of,
    )
    lifted_pairs = [
        (k, v) for k, vs in lifted.items() for v in vs if v in from_classes
    ]
    mapping_pairs = [
        (k, uri_mapping[v])
        for k, v in identity + lifted_pairs
        if v in uri_mapping
    ]
    wd_to_yago_class_mapping = G.filter_redundant_parents(
        G.edge_map(mapping_pairs), yago_super_class_of
    )

    yago_classes = {
        uri_mapping[c] for c in classes_to_keep_for_yago if c in uri_mapping
    }
    return yago_classes, wd_to_yago_class_mapping, yago_super_class_of


# ---------------------------------------------------------------------------
# ST3: shape instances (one shuffle incl. disjoint-instance removal)
# ---------------------------------------------------------------------------

@ray.remote(num_returns=2)
def _pack_shape_instances(shape_targets, *blocks):
    """Worker-side pack of the resolved (shape, instance) table into
    one hash-only HashIndex per shape: the driver receives only (packs
    ref, tiny per-shape count dict) — instance strings and their hashes
    never transit the driver, and the pack overlaps the facts-plan
    construction that previously waited on the driver-side groupby. The
    task holds the instance strings, so the index tells a (never
    observed) 64-bit collision from a duplicate and answers it exactly."""
    import pyarrow as pa

    from .broadcast import HashIndex, _hash_series

    parts = [t.select(["shape", "instance"]) for t in blocks]
    empty = HashIndex([], keep_keys=False)
    packs = {t: empty for t in shape_targets}
    if parts:
        tbl = pa.concat_tables(parts, promote_options="permissive")
        instances = tbl["instance"].combine_chunks()
        h = _hash_series(instances)
        shapes = tbl["shape"].to_pandas()
        for shape, rows in shapes.groupby(shapes).indices.items():
            packs[shape] = HashIndex(
                instances.take(pa.array(rows)), hashes=h[rows],
                keep_keys=False,
            )
    return packs, {t: len(p) for t, p in packs.items()}


def build_shape_instances(
    root: str,
    schema: Schema,
    stats: Stats,
    wd_to_yago_class_mapping: dict[str, list[str]],
    yago_super_class_of: dict[str, list[str]],
    yago_classes: set[str],
    uri_ref: "ray.ObjectRef",
) -> tuple["ray.ObjectRef", Dataset, "ray.ObjectRef"]:
    """plan.rs:641-731 as: P31 scan → class-map flat join (broadcast the
    class mapping: class-graph scale; the URI map is `uri_ref`, the
    packed map build_state already holds) → shape fan-out → ONE
    exchange on instance doing dedup + disjoint-instance removal.
    Returns (ref of the packed per-shape HashIndex sets, the resolved
    (shape, instance) Dataset, ref of the packed `yago_classes`)."""
    # yago class → shapes whose closure contains it (driver, tiny)
    shape_targets = [s.target_class for s in schema.node_shapes()]
    class_to_shapes: dict[str, list[str]] = defaultdict(list)
    for target in shape_targets:
        for cls in G.transitive_closure([target], yago_super_class_of):
            class_to_shapes[cls].append(target)

    # wd class → shape list via the yago class mapping
    wd_class_to_shapes: dict[str, list[str]] = {}
    for wd_class, yago_cls_list in wd_to_yago_class_mapping.items():
        shapes = []
        for yc in yago_cls_list:
            shapes.extend(class_to_shapes.get(yc, ()))
        if shapes:
            wd_class_to_shapes[wd_class] = sorted(set(shapes))

    # disjoint target-class pairs (both directions)
    disjoint_pairs: set[tuple[str, str]] = set()
    for cls in schema.classes():
        for other in cls.disjoint_classes:
            disjoint_pairs.add((cls.id, other))
            disjoint_pairs.add((other, cls.id))

    from .broadcast import HashIndex

    refs = {
        "wd_class_to_shapes": ray.put(wd_class_to_shapes),  # class-scale
        "uri_mapping": uri_ref,
        "yago_classes": ray.put(HashIndex(yago_classes)),
        "disjoint_pairs": ray.put(disjoint_pairs),
    }

    p31 = scan_predicate(root, f"<{T.WDT}P31>")

    def fan_out(batch: pd.DataFrame) -> pa.Table:
        class_map = get_broadcast(refs["wd_class_to_shapes"])
        uris = get_broadcast(refs["uri_mapping"])
        classes = get_broadcast(refs["yago_classes"])
        instances = uris.lookup(batch["subject"])
        # "we do not want classes" (plan.rs:686)
        keep = instances.notna().to_numpy() & ~classes.contains(
            instances.fillna("")
        )
        base = pd.DataFrame(
            {"wd_class": batch["object"], "instance": instances}
        )[keep]
        shs, insts = [], []
        for wd_class, group in base.groupby("wd_class", sort=False):
            for shape in class_map.get(wd_class, ()):
                shs.append(np.full(len(group), shape, dtype=object))
                insts.append(group["instance"].to_numpy())
        # Arrow out with explicit string types: empty pandas object
        # frames null-type in the exchange and mis-size in the estimator
        if not shs:
            return pa.table(
                {
                    "shape": pa.array([], pa.string()),
                    "instance": pa.array([], pa.string()),
                }
            )
        # combiner: a batch's repeated (shape, instance) pairs never
        # reach the exchange
        return _arrow_distinct(pa.table(
            {
                "shape": pa.array(
                    np.concatenate(shs), pa.string(), from_pandas=True
                ),
                "instance": pa.array(
                    np.concatenate(insts), pa.string(), from_pandas=True
                ),
            }
        ), ["shape", "instance"])

    fanned = p31.map_batches(fan_out, batch_format="pandas")

    def resolve_part(pdf: pd.DataFrame) -> pd.DataFrame:
        """Dedup (shape, instance); drop instances that belong to two
        disjoint shapes (plan.rs:692-730). Vectorized set algebra over
        complete instance groups."""
        pairs = get_broadcast(refs["disjoint_pairs"])
        pdf = pdf.drop_duplicates(["shape", "instance"])
        bad: set = set()
        members = {
            shape: set(pdf.loc[pdf["shape"] == shape, "instance"])
            for shape in {a for a, _ in pairs} | {b for _, b in pairs}
        }
        for a, b in pairs:
            bad |= members.get(a, set()) & members.get(b, set())
        if bad:
            pdf = pdf[~pdf["instance"].isin(bad)]
        return pdf

    # materialized (an exchange result): consumed by simple-types and
    # every distributed join
    resolved = partitioned_group_apply(fanned, ["instance"], resolve_part)

    # pack the per-shape sets in a REMOTE task over the materialized
    # blocks. The driver gets back only the refs: downstream
    # broadcast consumers read packs_ref, stats resolve the count dict
    # lazily (Stats.set_lazy), and the pack overlaps the facts-plan
    # construction instead of serializing build_state.
    packs_ref, counts_ref = _pack_shape_instances.remote(
        shape_targets, *resolved.to_arrow_refs()
    )
    stats.set_lazy("Instances of a shape", lambda: ray.get(counts_ref))
    return packs_ref, resolved, refs["yago_classes"]


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------

# above this many URI-mapping entries the packed broadcasts stop being
# "small state" and every fact-pipeline call site flips to hash joins
# against the state Datasets (build_dist) — a worker-heap bound, not a
# correctness one (both paths are verified identical)
DISTRIBUTED_STATE_THRESHOLD = 50_000_000


def build_state(
    statements_root: str,
    schema: Schema | None = None,
    size: str = "full",
    distributed: bool | None = None,
) -> BuildState:
    import concurrent.futures as _cf

    schema = schema or Schema.open()
    stats = Stats()
    if distributed is None:
        # decide BEFORE building any state: with the decision taken
        # after the URI merge, auto mode would driver-collect the very
        # candidate table it then deems too big. The estimate is the
        # rdf:type partition's footer row count — an upper bound on the
        # kept-item count (markers are its wikibase:Item subset), read
        # from parquet metadata only, which errs toward flipping to
        # the join path early (the safe direction at scale).
        from .sources import store_num_rows

        distributed = (
            store_num_rows(statements_root, [T.RDF_TYPE])
            >= DISTRIBUTED_STATE_THRESHOLD
        )
    # ONE fused scan job over the state-input predicates on BOTH state
    # paths (four concurrent scan jobs measured 14.8 s vs ~4 s fused at
    # 44 M / 32 CPUs, see collect_input_reductions); the paths differ
    # in the statement-path joins only (build_dist).
    from . import build as B  # deferred: build imports state

    # the clean-value scan needs ONLY the URI broadcast REF, which the
    # remote merge task provides the moment the fused scan resolves —
    # submit the scan from the callback so it overlaps the merge
    # itself, class machinery AND shape-instance resolution instead of
    # serializing behind them in build_facts. The broadcast path packs
    # it into per-family maps; the distributed path keeps the blocks to
    # join (and joins the best-rank ids instead of packing the
    # best-rank set).
    _pre_pool = _cf.ThreadPoolExecutor(max_workers=2)
    _pre: dict = {}
    if distributed:
        # the item join's store scan needs only the schema: plan it now,
        # under the state build (see build_dist.item_scan)
        from .build_dist import item_scan

        _pre["item_scan"] = _pre_pool.submit(item_scan, statements_root, schema)

    clean_key, clean_fn = (
        ("clean_values", B.clean_values)
        if distributed
        else ("clean_maps", B.clean_maps)
    )

    def _launch_clean(uri_ref) -> None:
        _pre[clean_key] = _pre_pool.submit(clean_fn, statements_root, uri_ref)

    (
        uri_mapping,
        uri_ds,
        enwiki_items,
        enwiki_ds,
        p279_edges,
        instance_counts,
        best_rank_refs,
        uri_ref,
    ) = collect_input_reductions(
        statements_root, schema, stats, size, on_uri_ref=_launch_clean,
        pack_best_rank=not distributed,
    )
    prewarmed = dict(_pre)

    def _clean_counts() -> dict[str, int]:
        _, count_refs = prewarmed[clean_key].result()
        counts = dict.fromkeys(B.CLEAN_FAMILY.values(), 0)
        for block in ray.get(count_refs):
            for family, n in block.items():
                counts[family] += n
        return counts

    stats.set_lazy("Cleaned complex type", _clean_counts)
    if not distributed:
        # BestRank packed REMOTELY out of the same fused scan:
        # (HashIndex ref, collision-free-flag ref) — build_facts
        # broadcasts the set ref directly, no driver materialization
        prewarmed["best_rank_ref"] = best_rank_refs
    _pre_pool.shutdown(wait=False)
    stats.set_global(
        "Wikidata items mapped to English Wikipedia articles", len(enwiki_items)
    )
    yago_classes, wd_to_yago_class_mapping, yago_super_class_of = (
        build_class_machinery(
            statements_root, schema, stats, uri_mapping, enwiki_items,
            all_sub_class_of=p279_edges, instance_counts=instance_counts,
        )
    )
    shape_instances, inst_ds, yago_classes_ref = build_shape_instances(
        statements_root,
        schema,
        stats,
        wd_to_yago_class_mapping,
        yago_super_class_of,
        yago_classes,
        uri_ref,
    )
    return BuildState(
        schema=schema,
        stats=stats,
        uri_mapping=uri_mapping,
        uri_ref=uri_ref,
        yago_classes=yago_classes,
        wd_to_yago_class_mapping=wd_to_yago_class_mapping,
        yago_super_class_of=yago_super_class_of,
        shape_instances=shape_instances,
        yago_classes_ref=yago_classes_ref,
        distributed=bool(distributed),
        datasets={
            "uri_mapping": uri_ds,
            "shape_instances": inst_ds,
            "enwiki": enwiki_ds,
        },
        prewarmed=prewarmed,
        statements_root=statements_root,
    )
