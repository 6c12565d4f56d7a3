"""Triple extraction from interleaved text+media documents (ST6).

The north-star ingest stage the reference does not have: a stateful
actor-pool `map_batches` over the documents Dataset that
- detects entity mentions in text spans,
- links them against the surface-form → QID dictionary (loaded ONCE per
  actor in __init__, never per batch),
- parses property assertions into canonical (subject, predicate, object)
  statement rows,
- turns media spans into image-candidate rows (decode/feature stages
  live in dataops.multimodal),
while passing the `spans` column through untouched (zero-copy Arrow;
the per-row (kind, text, media_ref, order) sequence is the invariant
every stage must preserve — BASELINE.json input_hint).

Span text micro-format produced by yago4_ray.corpus:
    "<subject surface> | <P-id> | <object surface or literal>"
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data import Dataset

from . import terms as T
from .schema import Schema

# P-id → literal kind for object parsing; derived from the shape rule
# set on the driver (wdt: truthy objects follow the Wikidata dump
# conventions: times are xsd:dateTime, quantities xsd:decimal).
def pid_value_kinds(schema: Schema) -> dict[str, str]:
    # node shapes that are Wikidata *value* nodes, not entities: their
    # truthy (wdt:) objects are literals in the dump conventions
    value_node_kinds = {
        T.SCHEMA_QUANTITATIVE_VALUE: "decimal",
        T.SCHEMA_GEO_COORDINATES: "string",
    }
    kinds: dict[str, str] = {}
    for shape in schema.property_shapes():
        pids = [p for p in (T.pid_of(fp) for fp in shape.from_properties) if p]
        dts = set(shape.datatypes)
        if shape.nodes and not dts:
            targets = {schema.node_shape(n).target_class for n in shape.nodes}
            if len(targets) == 1 and next(iter(targets)) in value_node_kinds:
                kind = value_node_kinds[next(iter(targets))]
            else:
                kind = "entity"
        elif T.XSD_DATE_TIME in dts:
            kind = "datetime"
        elif T.XSD_ANY_URI in dts:
            kind = "anyuri"
        elif dts & {T.XSD_INTEGER, T.XSD_DURATION}:
            kind = "decimal"
        else:
            kind = "string"
        for pid in pids:
            kinds[pid] = kind
    return kinds


def prepare_linker(dictionary: pa.Table) -> pa.Table:
    """Resolve the surface-form dictionary to its first-wins form ONCE
    (driver-side): per surface, the lowest-priority registration wins,
    ties broken by table order (the reference linker semantics). The
    prepared (surface_form, qid, h) table — 64-bit surface hashes,
    hash-SORTED — ships to every extractor actor through the object
    store instead of each actor re-running the multi-million-row
    resolution in __init__ (measured: the per-actor Python sort+loop
    dominated extraction wall time at 1.2 M docs).

    The hash sort matters at scale: `pc.index_in` rebuilds a hash table
    over the ENTIRE value_set on every call, so per-batch linking cost
    grew with dictionary size (51 k → 33.5 k docs/s going from 2.4 M to
    4.8 M entities). The presorted hashes back a HashIndex whose lookup
    is O(batch · log dict) per batch, independent of dictionary size."""
    import numpy as np

    from .broadcast import _hash_series

    df = dictionary.select(["surface_form", "qid", "priority"]).to_pandas()
    df = df.sort_values("priority", kind="stable").drop_duplicates(
        "surface_form", keep="first"
    )
    h = _hash_series(df["surface_form"])
    order = np.argsort(h, kind="stable")
    return pa.table(
        {
            "surface_form": pa.array(
                df["surface_form"].iloc[order], pa.string()
            ),
            "qid": pa.array(df["qid"].iloc[order], pa.string()),
            "h": pa.array(h[order], pa.uint64()),
        }
    )


class MentionExtractor:
    """Actor-pool stage: __init__ once per actor (dictionary load),
    __call__ per Arrow batch (vectorized span scan + linking)."""

    def __init__(
        self,
        dictionary,
        value_kinds: dict[str, str],
        spill_path: str | None = None,
    ):
        # accept a raw (surface, qid, priority) dictionary table, a
        # prepare_linker() table, or an ObjectRef to either — the ref
        # path reads the prepared table ZERO-COPY from the object store
        # (one shared copy per node, not one pickled copy per actor).
        # `spill_path` is the restart-safety net: a ray.put object has
        # no lineage, so an actor RESTARTED after the driver's copy is
        # lost (node failure mid-run — Ray's core_worker warns about
        # exactly this ctor shape) can't re-fetch the ref; with a spill
        # file it rebuilds from durable storage instead of dying.
        if dictionary is None and spill_path is not None:
            import pyarrow.parquet as _pq

            dictionary = _pq.read_table(spill_path)
        elif isinstance(dictionary, ray.ObjectRef):
            try:
                dictionary = ray.get(dictionary)
            except Exception:
                if spill_path is None:
                    raise
                import pyarrow.parquet as _pq

                dictionary = _pq.read_table(spill_path)
        if "priority" in dictionary.column_names:
            dictionary = prepare_linker(dictionary)
        self.value_kinds = value_kinds
        # surface → qid lookups go through a HashIndex over the PREPARED
        # table's presorted 64-bit hashes: per-batch cost is
        # O(batch · log dict) — `pc.index_in` instead re-hashed the
        # whole dictionary per call, so linking slowed down as the
        # dictionary grew (the 100 TB anti-pattern). Arrays arrive
        # zero-copy from the object store; the index keeps the surfaces
        # to verify every hit, and a raw table's duplicate surfaces
        # resolve first-wins (the reference's table-order tie-break)
        from .broadcast import HashIndex

        prepared = "h" in dictionary.column_names
        self._index = HashIndex(
            dictionary["surface_form"],
            dictionary["qid"],
            hashes=dictionary["h"] if prepared else None,
            presorted=prepared,
        )
        self._kind_pids = pa.array(list(value_kinds), pa.string())
        self._kind_vals = pa.array(list(value_kinds.values()), pa.string())
        self._linker: dict[str, str] | None = None

    def _link(self, surface: pa.Array) -> pa.Array:
        """Vectorized surface → qid (null on miss); the index verifies
        every hash hit against the dictionary surface, so a surface
        whose 64-bit hash collides with a key never links to its qid."""
        return self._index.lookup(surface)

    @property
    def linker(self) -> dict[str, str]:
        """surface → qid dict, built lazily (only the row-wise reference
        kernel and unit tests touch it; the Arrow kernel never does)."""
        if self._linker is None:
            index = self._index
            self._linker = {}
            # first wins: a collision build keeps duplicate surfaces
            for k, v in zip(index.keys.to_pylist(), index.values[0].to_pylist()):
                self._linker.setdefault(k, v)
        return self._linker

    # fast-path datetime shapes: naive / Z / +00:00 — everything the
    # canonicalizer maps to "<lexical>+00:00" by pure string ops
    _DT_NAIVE = r"^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}$"
    _DT_Z = r"^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z$"
    _DT_UTC = r"^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}\+00:00$"
    _NEEDS_ESCAPE = r'[\\"\n\r\t]'

    def _object_terms(self, pid: pa.Array, value: pa.Array) -> pa.Array:
        """Vectorized `_object_term` over aligned (pid, value) arrays;
        null marks a dropped row. All common lexical forms stay in
        Arrow C++ kernels (RE2 regex, element-wise joins); only rare
        shapes (escape-needing strings, exotic datetimes) fall back to
        the scalar kernel, per offending row."""
        import numpy as np

        kind_idx = pc.index_in(pid, value_set=self._kind_pids)
        kind = pc.fill_null(pc.take(self._kind_vals, kind_idx), "string")
        out = np.full(len(value), None, dtype=object)

        def scatter(mask: pa.Array, values: pa.Array) -> None:
            idx = np.flatnonzero(mask)
            if len(idx):
                out[idx] = np.asarray(values, dtype=object)

        ent = pc.equal(kind, "entity")
        if pc.any(ent).as_py():
            v = pc.filter(value, ent)
            qid = self._link(v)
            scatter(ent, pc.binary_join_element_wise("<" + T.WD, qid, ">", ""))

        dt = pc.equal(kind, "datetime")
        if pc.any(dt).as_py():
            v = pc.filter(value, dt)
            naive = pc.match_substring_regex(v, self._DT_NAIVE)
            zulu = pc.match_substring_regex(v, self._DT_Z)
            utc = pc.match_substring_regex(v, self._DT_UTC)
            lex = pc.if_else(
                utc,
                v,
                pc.binary_join_element_wise(
                    pc.utf8_rtrim(v, "Z"), "+00:00", ""
                ),
            )
            fast = pc.binary_join_element_wise(
                '"', lex, '"^^<' + T.XSD_DATE_TIME + ">", ""
            )
            anyfast = pc.or_(pc.or_(naive, zulu), utc)
            res = fast.to_numpy(zero_copy_only=False).astype(object)
            slow_idx = np.flatnonzero(pc.invert(anyfast))
            if len(slow_idx):
                vp = v.to_pylist()
                for i in slow_idx:
                    try:
                        res[i] = T.datetime_literal(vp[i])
                    except ValueError:
                        res[i] = None
            scatter(dt, res)

        dec = pc.equal(kind, "decimal")
        if pc.any(dec).as_py():
            v = pc.filter(value, dec)
            scatter(
                dec,
                pc.binary_join_element_wise(
                    '"', v, '"^^<' + T.XSD_DECIMAL + ">", ""
                ),
            )

        for k, fallback in (
            ("anyuri", lambda s: T.typed_literal(s, T.XSD_ANY_URI)),
            ("string", T.string_literal),
        ):
            km = pc.equal(kind, k)
            if not pc.any(km).as_py():
                continue
            v = pc.filter(value, km)
            suffix = '"^^<' + T.XSD_ANY_URI + ">" if k == "anyuri" else '"'
            plain = pc.binary_join_element_wise('"', v, suffix, "")
            needs = pc.match_substring_regex(v, self._NEEDS_ESCAPE)
            res = plain.to_numpy(zero_copy_only=False).astype(object)
            esc_idx = np.flatnonzero(needs)
            if len(esc_idx):
                vp = v.to_pylist()
                for i in esc_idx:
                    res[i] = fallback(vp[i])
            scatter(km, res)
        return pa.array(out, pa.string())

    def _object_term(self, pid: str, text: str) -> str | None:
        kind = self.value_kinds.get(pid, "string")
        if kind == "entity":
            qid = self.linker.get(text)
            return T.wd(qid) if qid else None
        if kind == "datetime":
            try:
                return T.datetime_literal(text)
            except ValueError:
                return None
        if kind == "anyuri":
            return T.typed_literal(text, T.XSD_ANY_URI)
        if kind == "decimal":
            return T.decimal_literal(text)
        return T.string_literal(text)

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Vectorized span scan, pure Arrow C++ kernels end-to-end:
        list-flatten, substring counts, RE2 matches, `index_in`
        hash-lookups against the per-actor dictionary, element-wise
        string joins. Byte-identical output (and row order) to
        `_call_rowwise`, gated by test_extract's parity test. A pandas
        str-ops variant measured 3x SLOWER than the row loop; the Arrow
        kernel beats the loop ~10x (PERF_NOTES)."""
        import numpy as np

        spans = batch["spans"]
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        doc_ids = batch["doc_id"]
        if isinstance(doc_ids, pa.ChunkedArray):
            doc_ids = doc_ids.combine_chunks()
        flat = pc.list_flatten(spans)
        parent = pc.list_parent_indices(spans)
        doc_of_span = pc.take(doc_ids, parent)
        kind = flat.field("kind")
        text = pc.fill_null(flat.field("text"), "")
        media_ref = pc.fill_null(flat.field("media_ref"), "")

        is_media = pc.equal(kind, "media")
        media_keep = pc.and_(is_media, pc.not_equal(media_ref, ""))

        # text spans: exactly two '|' separators -> (surface, pid, value)
        tmask = pc.and_(
            pc.invert(is_media), pc.equal(pc.count_substring(text, "|"), 2)
        )
        t_text = pc.filter(text, tmask)
        t_doc = pc.filter(doc_of_span, tmask)
        if len(t_text):
            parts = pc.split_pattern(t_text, "|")
            surface = pc.utf8_trim_whitespace(pc.list_element(parts, 0))
            pid = pc.utf8_trim_whitespace(pc.list_element(parts, 1))
            value = pc.utf8_trim_whitespace(pc.list_element(parts, 2))
            qid = self._link(surface)
            linked = pc.is_valid(qid)
            pid, value, qid, t_doc = (
                pc.filter(pid, linked),
                pc.filter(value, linked),
                pc.filter(qid, linked),
                pc.filter(t_doc, linked),
            )
            obj = self._object_terms(pid, value)
            ok = pc.is_valid(obj)
            out_doc = pc.filter(t_doc, ok)
            out_subj = pc.binary_join_element_wise(
                "<" + T.WD, pc.filter(qid, ok), ">", ""
            )
            out_pred = pc.binary_join_element_wise(
                "<" + T.WDT, pc.filter(pid, ok), ">", ""
            )
            out_obj = pc.filter(obj, ok)
        else:
            out_doc = out_subj = out_pred = out_obj = pa.array([], pa.string())

        # media candidates ride along in the same output table with an
        # empty predicate marker; split downstream with a cheap filter
        m_doc = pc.filter(doc_of_span, media_keep)
        m_ref = pc.filter(media_ref, media_keep)
        blanks = pa.array([""] * len(m_doc), pa.string())

        def cat(a, b):
            a = a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a
            b = b.combine_chunks() if isinstance(b, pa.ChunkedArray) else b
            return pa.concat_arrays([a.cast(pa.string()), b.cast(pa.string())])

        return pa.table(
            {
                "doc_id": cat(out_doc, m_doc),
                "subject": cat(out_subj, blanks),
                "predicate": cat(out_pred, blanks),
                "object": cat(out_obj, m_ref),
            }
        )

    # exact-output reference kernel (kept for the parity test)
    def _call_rowwise(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch["doc_id"].to_pylist()
        spans_col = batch["spans"].to_pylist()
        out = {"doc_id": [], "subject": [], "predicate": [], "object": []}
        media = {"doc_id": [], "media_ref": []}
        for doc_id, spans in zip(doc_ids, spans_col):
            for span in spans or ():
                if span["kind"] == "media":
                    # every media-kind span stays out of the text path —
                    # one with an empty media_ref is dropped, not parsed
                    # as a statement (matches the vectorized tmask)
                    if span["media_ref"]:
                        media["doc_id"].append(doc_id)
                        media["media_ref"].append(span["media_ref"])
                    continue
                text = span["text"]
                if "|" not in text:
                    continue
                parts = [p.strip() for p in text.split("|")]
                if len(parts) != 3:
                    continue
                surface, pid, value = parts
                subject_qid = self.linker.get(surface)
                if subject_qid is None:
                    continue
                obj = self._object_term(pid, value)
                if obj is None:
                    continue
                out["doc_id"].append(doc_id)
                out["subject"].append(T.wd(subject_qid))
                out["predicate"].append(T.iri(f"{T.WDT}{pid}"))
                out["object"].append(obj)
        n_media = len(media["doc_id"])
        out["doc_id"].extend(media["doc_id"])
        out["subject"].extend([""] * n_media)
        out["predicate"].extend([""] * n_media)
        out["object"].extend(media["media_ref"])
        return pa.table({k: pa.array(v, pa.string()) for k, v in out.items()})


def extract_statements(
    documents: Dataset,
    dictionary: pa.Table,
    schema: Schema | None = None,
    concurrency: int | tuple[int, int] = 4,
    batch_size: int | None = None,
    spill_path: str | None = None,
) -> tuple[Dataset, Dataset]:
    """documents → (statement rows, media-candidate rows).

    The extractor is an actor pool (`concurrency=N`): the dictionary is
    built once per actor. Returns two Datasets sharing one upstream pass.

    batch_size=None (whole input block per batch) is deliberate: the
    Arrow kernel's throughput scales with batch size (35 k docs/s at
    1024 rows → 190 k docs/s at a 16 k-row batch — fixed per-kernel-call
    cost, PERF_NOTES); parallelism comes from the block count, not the
    batch size. Interleaved docs with large media payloads should pass
    an explicit batch_size to bound actor heap instead.

    `spill_path` (opt-in): also persist the prepared linker table as
    parquet at this path, written CONCURRENTLY with the pipeline start
    (a background thread — the hot path still ships the zero-copy
    object-store ref; the file is only read if a restarted actor finds
    the ref gone, e.g. after a node loss on a long multi-node run).
    """
    schema = schema or Schema.open()
    kinds = pid_value_kinds(schema)
    if "priority" in dictionary.column_names:
        dictionary = prepare_linker(dictionary)  # once, driver-side
    dict_ref = ray.put(dictionary)  # actors read it zero-copy
    if spill_path is not None:
        import threading

        import pyarrow.parquet as _pq

        _dict_for_spill = dictionary
        _tmp = spill_path + ".tmp"

        def _spill():
            _pq.write_table(_dict_for_spill, _tmp)
            os.replace(_tmp, spill_path)  # atomic: readers never see partial

        threading.Thread(target=_spill, daemon=True).start()
    extracted = documents.map_batches(
        MentionExtractor,
        fn_constructor_args=(dict_ref, kinds, spill_path),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )
    statements = extracted.map_batches(
        lambda t: t.filter(pc.not_equal(t["predicate"], "")).select(
            ["doc_id", "subject", "predicate", "object"]
        ),
        batch_format="pyarrow",
    )
    media = extracted.map_batches(
        lambda t: t.filter(pc.equal(t["predicate"], "")).select(
            ["doc_id", "object"]
        ).rename_columns(["doc_id", "media_ref"]),
        batch_format="pyarrow",
    )
    return statements, media


def check_span_invariant(before: Dataset, after: Dataset) -> bool:
    """Verify per-doc span-sequence equality (kind, text, media_ref,
    order) across a stage boundary, via stable per-row signatures."""
    from .sources import span_signature_batch

    sig_a = before.map_batches(span_signature_batch, batch_format="pyarrow").to_pandas()
    sig_b = after.map_batches(span_signature_batch, batch_format="pyarrow").to_pandas()
    a = dict(zip(sig_a["doc_id"], sig_a["span_sig"]))
    b = dict(zip(sig_b["doc_id"], sig_b["span_sig"]))
    return a == b
