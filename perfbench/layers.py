"""The four workloads and the per-layer probes of the traced run.

Every function here calls yago4_ray's public functions and times them
from outside. `Ctx` carries one run's inputs, its scratch directories
and the tracer; with `NULL` as tracer the spans cost nothing and no
module function is swapped, which is how the untraced runs measure.
"""

from __future__ import annotations

import concurrent.futures as cf
import contextlib
import itertools
import os
import shutil
import statistics
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

from spans import patched


class _NullTracer:
    @contextlib.contextmanager
    def span(self, name):
        yield None

    def wrap(self, fn, name):
        return fn


NULL = _NullTracer()

@dataclass
class Inputs:
    corpus_dir: str
    n_docs: int
    n_statements: int
    dictionary: pa.Table
    truthy: pa.Table
    reference: dict  # output name → content digest


@dataclass
class Ctx:
    inp: Inputs
    work: str
    tr: object = NULL
    store: str | None = None
    docs: object = None  # materialized (doc_id, text) Dataset
    checks: list = field(default_factory=list)  # (name, ok, detail)
    _n: itertools.count = field(default_factory=itertools.count)

    @property
    def tracing(self) -> bool:
        return self.tr is not NULL

    def fresh(self, kind: str) -> str:
        path = os.path.join(self.work, f"{kind}-{next(self._n)}")
        shutil.rmtree(path, ignore_errors=True)
        return path

    def check(self, name: str, ok: bool, detail=None) -> None:
        self.checks.append((name, bool(ok), detail))


def _path(inp: Inputs, table: str) -> str:
    return os.path.join(inp.corpus_dir, f"{table}.parquet")


# ---------------------------------------------------------------- set-up


def ingest(ctx: Ctx, store: str) -> None:
    from yago4_ray.sources import write_statement_store

    with ctx.tr.span("sources.write_statement_store"):
        write_statement_store(ray.data.read_parquet(_path(ctx.inp, "statements")), store)


def _doc_text(batch: pa.Table) -> pa.Table:
    ids = pc.cast(
        pc.replace_substring_regex(batch["doc_id"], r"^\D*", ""), pa.int64()
    )
    texts = [
        " ".join(s["text"] for s in spans if s["kind"] == "text")
        for spans in batch["spans"].to_pylist()
    ]
    return pa.table({"doc_id": ids, "text": pa.array(texts, pa.string())})


def load_docs(ctx: Ctx, n_docs: int):
    """The first `n_docs` corpus documents by id as (doc_id, text): the
    text is the document's text spans joined by spaces."""
    from yago4_ray.sources import read_documents

    ds = read_documents(_path(ctx.inp, "documents"), columns=["doc_id", "spans"])
    return (
        ds.map_batches(_doc_text, batch_format="pyarrow")
        .sort("doc_id")
        .limit(n_docs)
        .materialize()
    )


# ------------------------------------------------------- KG iterations


def _extract(ctx: Ctx):
    from yago4_ray.extract import extract_statements

    with ctx.tr.span("extract.extract_statements"):
        docs = ray.data.read_parquet(_path(ctx.inp, "documents"))
        statements, _ = extract_statements(docs, ctx.inp.dictionary, concurrency=1)
        return statements.materialize()


def _build(ctx: Ctx, out: str, distributed: bool | None):
    from yago4_ray import build, state
    from yago4_ray.build import generate_yago
    from yago4_ray.state import build_state

    tr = ctx.tr
    swaps = []
    if ctx.tracing:
        # the wrappers only time the call: each returns what the
        # original returns, so generate_yago runs the same plan
        swaps = [
            (state, name, tr.wrap(getattr(state, name), f"state.{name}"))
            for name in (
                "collect_input_reductions",
                "build_class_machinery",
                "build_shape_instances",
            )
        ] + [
            (build, "build_facts", tr.wrap(build.build_facts, "build.generate_yago/build_facts")),
            (build, "build_scan_outputs",
             tr.wrap(build.build_scan_outputs, "build.generate_yago/build_scan_outputs")),
        ]
    with patched(*swaps):
        with tr.span("state.build_state"):
            st = build_state(ctx.store, distributed=distributed)
        with tr.span("build.generate_yago"):
            generate_yago(ctx.store, state=st, out_dir=out, write=True)
    return st


def output_triples(out: str) -> int:
    from yago4_ray.build import OUTPUT_FILE_NAMES
    from yago4_ray.checkpoint import read_manifest

    return sum(
        (read_manifest(os.path.join(out, d)) or {}).get("num_rows", 0)
        for d in OUTPUT_FILE_NAMES.values()
    )


def kg_iteration(ctx: Ctx, workload: str) -> dict:
    """One timed pass of a KG workload; returns what the checks need.

    kg_pipeline ingests a fresh store, then runs extraction concurrently
    with build_state → generate_yago (a thread submits the extraction
    job, as a session shares its CPUs between two Dataset jobs). Traced,
    the same calls run one at a time."""
    out = ctx.fresh("out")
    extracted = None
    distributed = True if workload == "kg_rebuild_dist" else None
    if workload == "kg_pipeline":
        ctx.store = ctx.fresh("store")
        ingest(ctx, ctx.store)
        if ctx.tracing:
            extracted = _extract(ctx)
            st = _build(ctx, out, distributed)
        else:
            with cf.ThreadPoolExecutor(max_workers=1) as pool:
                f_extract = pool.submit(_extract, ctx)
                st = _build(ctx, out, distributed)
                extracted = f_extract.result()
    else:
        st = _build(ctx, out, distributed)
    return {
        "out": out,
        "state": st,
        "extracted": extracted,
        "items": output_triples(out),
    }


def check_kg(ctx: Ctx, it: dict, expect_distributed: bool) -> dict:
    from checks import check_kg_outputs, extract_quality

    record = check_kg_outputs(it["out"], ctx.inp.reference)
    for name, r in record.items():
        ctx.check(f"output:{name}", r["match"], r["lines"])
    ctx.check("state.distributed", it["state"].distributed == expect_distributed)
    if it["extracted"] is not None:
        p, r = extract_quality(it["extracted"], ctx.inp.truthy)
        ctx.check("extract:precision_recall", p >= 0.99 and r >= 0.99, (p, r))
    return record


# ------------------------------------------------------ docs iteration


def docs_iteration(ctx: Ctx) -> dict:
    from yago4_ray.dataops.dedup import minhash_dedup, simhash_dedup_pairs
    from yago4_ray.dataops.textstats import text_stats

    tr, docs = ctx.tr, ctx.docs
    with tr.span("dataops.minhash_dedup"):
        clusters = minhash_dedup(docs, "text", "doc_id").to_pandas()
    with tr.span("dataops.simhash_dedup_pairs"):
        pairs = simhash_dedup_pairs(docs, "text", "doc_id").to_pandas()
    with tr.span("dataops.text_stats"):
        stats = text_stats(docs, "text").to_pandas()
    return {
        "clusters": clusters,
        "pairs": pairs,
        "stats": stats,
        "items": docs.count(),
    }


def check_docs(ctx: Ctx, it: dict, truth: dict) -> None:
    got = sorted(
        zip(it["clusters"]["doc_id"].astype(int), it["clusters"]["cluster"].astype(int))
    )
    ctx.check("minhash:clusters_equal_exact", got == truth["clusters"], len(got))
    pairs = {
        (min(a, b), max(a, b))
        for a, b in zip(it["pairs"]["a"].astype(int), it["pairs"]["b"].astype(int))
    }
    ctx.check(
        "simhash:pairs_subset_of_bruteforce",
        pairs <= truth["simhash"] and len(pairs) == len(it["pairs"]),
        len(pairs),
    )
    ids = sorted(it["stats"]["doc_id"].astype(int))
    ctx.check("text_stats:one_row_per_doc", ids == truth["ids"], len(ids))


def docs_truth(ctx: Ctx) -> dict:
    """Exact references for the docs the workload dedups (untimed)."""
    from checks import brute_simhash_pairs, exact_clusters

    df = ctx.docs.to_pandas()
    return {
        "clusters": exact_clusters(ctx.docs),
        "simhash": brute_simhash_pairs(df["doc_id"].to_numpy(), df["text"]),
        "ids": sorted(int(i) for i in df["doc_id"]),
    }


# ------------------------------------------------------ traced-run probes


def _files(root: str, suffix: str) -> list[str]:
    return sorted(
        os.path.join(d, f)
        for d, _, fs in os.walk(root)
        for f in fs
        if f.endswith(suffix)
    )


def _skew(values) -> float:
    med = statistics.median(values) if values else 0
    return max(values) / med if med else 0.0


def _block_rows(ds) -> list[int]:
    return [
        meta.num_rows
        for bundle in ds.iter_internal_ref_bundles()
        for _, meta in bundle.blocks
    ]


def probe_sources(ctx: Ctx, m: dict, store: str) -> None:
    files = _files(store, ".parquet")
    rows = [pq.read_metadata(p).num_rows for p in files]
    m["sources.write_statement_store_s"] = ctx.tr.total("sources.write_statement_store")
    m["sources.rows_in"] = ctx.inp.n_statements
    m["sources.rows_out"] = sum(rows)
    m["sources.store_bytes"] = sum(os.path.getsize(p) for p in files)
    m["sources.store_files"] = len(rows)
    m["sources.file_rows_skew"] = _skew(rows)


def probe_extract(ctx: Ctx, m: dict, extracted) -> None:
    from checks import extract_quality

    precision, _ = extract_quality(extracted, ctx.inp.truthy)
    m["extract.extract_statements_s"] = ctx.tr.total("extract.extract_statements")
    m["extract.docs_in"] = ctx.inp.n_docs
    m["extract.statements_out"] = extracted.count()
    m["extract.link_ratio"] = precision


def probe_state(ctx: Ctx, m: dict, st) -> None:
    tr = ctx.tr
    m["state.build_state_s"] = tr.total("state.build_state")
    m["state.build_state_self_s"] = tr.self_total("state.build_state")
    for name in ("collect_input_reductions", "build_class_machinery", "build_shape_instances"):
        m[f"state.{name}_s"] = tr.total(f"state.{name}")
    m["state.uri_mapping_entries"] = len(st.uri_mapping)
    m["state.yago_classes"] = len(st.yago_classes)
    m["state.distributed"] = int(st.distributed)


def probe_build_parts(ctx: Ctx, m: dict, st) -> None:
    """build_facts and the fused scan alone, each materialized."""
    from yago4_ray.build import build_facts, build_scan_outputs

    tr = ctx.tr
    with tr.span("build.build_facts"):
        facts, _ = build_facts(ctx.store, st, dedup=False)
        facts = facts.materialize()
    blocks = _block_rows(facts)
    m["build.build_facts_s"] = tr.total("build.build_facts")
    m["build.facts_rows"] = sum(blocks)
    m["build.facts_bytes"] = facts.size_bytes()
    m["build.facts_blocks"] = len(blocks)
    m["build.facts_block_skew"] = _skew(blocks)
    with tr.span("build.build_scan_outputs"):
        scan = build_scan_outputs(ctx.store, st).materialize()
    m["build.build_scan_outputs_s"] = tr.total("build.build_scan_outputs")
    m["build.scan_rows"] = scan.count()


def dedup_rows_in(ctx: Ctx, st) -> int:
    """Rows entering generate_yago's output dedups, counted in a second,
    untimed generate_yago into a scratch directory. With write=True the
    build_* functions run with dedup=False, so the `build.distinct_rows`
    calls are exactly the two output dedups (combined outputs and annotated facts)
    on either state path; build_dist's own range-check dedup is bound to
    its module and not counted. The counting wrapper materializes its
    input, which changes the plan, hence the separate pass."""
    from yago4_ray import build

    original = build.distinct_rows
    seen = [0]

    def counted(ds, *args, **kwargs):
        ds = ds.materialize()
        seen[0] += ds.count()
        return original(ds, *args, **kwargs)

    out = ctx.fresh("dedup-count")
    with patched((build, "distinct_rows", counted)):
        build.generate_yago(ctx.store, state=st, out_dir=out, write=True)
    shutil.rmtree(out, ignore_errors=True)
    return seen[0]


def probe_generate(ctx: Ctx, m: dict, it: dict, record: dict) -> None:
    tr = ctx.tr
    m["build.generate_yago_s"] = tr.total("build.generate_yago")
    m["build.generate_yago_self_s"] = tr.self_total("build.generate_yago")
    m["build.output_triples"] = it["items"]
    m["build.output_gz_bytes"] = sum(r["gz_bytes"] for r in record.values())
    m["build.output_parts"] = sum(r["parts"] for r in record.values())
    m["build.dedup_ratio"] = it["items"] / max(1, dedup_rows_in(ctx, it["state"]))


def probe_checkpoint(ctx: Ctx, m: dict, it: dict, record: dict) -> None:
    """Resubmit generate_yago over a finished output directory."""
    from yago4_ray.build import OUTPUT_FILE_NAMES, generate_yago

    out = it["out"]

    def stamps() -> dict:
        return {
            name: [os.stat(p).st_mtime_ns for p in _files(os.path.join(out, d), "")]
            for name, d in OUTPUT_FILE_NAMES.items()
        }

    before = stamps()
    with ctx.tr.span("checkpoint.resume"):
        generate_yago(ctx.store, state=it["state"], out_dir=out, write=True)
    after = stamps()
    m["checkpoint.resume_s"] = ctx.tr.total("checkpoint.resume")
    m["checkpoint.outputs_skipped"] = sum(before[n] == after[n] for n in before)
    m["checkpoint.manifest_rows_match"] = sum(
        r["manifest_rows"] == r["lines"] for r in record.values()
    ) / len(record)


def probe_build_dist(ctx: Ctx, m: dict, dist_state) -> None:
    from yago4_ray.build_dist import si_by_item

    if dist_state is None:
        from yago4_ray.state import build_state

        with ctx.tr.span("build_dist.build_state"):
            dist_state = build_state(ctx.store, distributed=True)
    with ctx.tr.span("build_dist.si_by_item"):
        si = si_by_item(dist_state).materialize()
    m["build_dist.si_by_item_s"] = ctx.tr.total("build_dist.si_by_item")
    m["build_dist.si_by_item_rows"] = si.count()
    m["build_dist.si_by_item_bytes"] = si.size_bytes()


def probe_dataops(ctx: Ctx, m: dict, it: dict) -> None:
    from yago4_ray.dataops.concomp import connected_components_min_label
    from yago4_ray.dataops.dedup import minhash_lsh_pairs

    tr = ctx.tr
    with tr.span("dataops.minhash_lsh_pairs"):
        pairs = minhash_lsh_pairs(ctx.docs, "text", "doc_id").materialize()
    with tr.span("dataops.connected_components"):
        connected_components_min_label(pairs).materialize()
    m["dataops.minhash_lsh_pairs_s"] = tr.total("dataops.minhash_lsh_pairs")
    m["dataops.candidate_pairs"] = pairs.count()
    m["dataops.connected_components_s"] = tr.total("dataops.connected_components")
    m["dataops.minhash_dedup_s"] = tr.total("dataops.minhash_dedup")
    m["dataops.clusters"] = it["clusters"]["cluster"].nunique()
    m["dataops.docs_clustered"] = len(it["clusters"])
    m["dataops.simhash_dedup_pairs_s"] = tr.total("dataops.simhash_dedup_pairs")
    m["dataops.simhash_pairs"] = len(it["pairs"])
    m["dataops.text_stats_s"] = tr.total("dataops.text_stats")


# spans that make up one traced pass of each workload's own iteration
ITERATION_SPANS = {
    "kg_pipeline": (
        "sources.write_statement_store",
        "extract.extract_statements",
        "state.build_state",
        "build.generate_yago",
    ),
    "kg_rebuild": ("state.build_state", "build.generate_yago"),
    "kg_rebuild_dist": ("state.build_state", "build.generate_yago"),
    "docs_dedup": (
        "dataops.minhash_dedup",
        "dataops.simhash_dedup_pairs",
        "dataops.text_stats",
    ),
}


def traced_pass(ctx: Ctx, workload: str, docs_reference: dict) -> dict:
    """The workload's own iteration with spans, then every other layer
    one call at a time, so a traced run of any workload reports every
    layer. Returns the per-layer metrics."""
    tr = ctx.tr
    m: dict = {}
    docs_it = None
    if workload == "docs_dedup":
        docs_it = docs_iteration(ctx)
        check_docs(ctx, docs_it, docs_reference)
        m["trace.iteration_s"] = sum(tr.total(n) for n in ITERATION_SPANS[workload])
        kg_it = kg_iteration(ctx, "kg_pipeline")
    else:
        kg_it = kg_iteration(ctx, workload)
        m["trace.iteration_s"] = sum(tr.total(n) for n in ITERATION_SPANS[workload])
    record = check_kg(ctx, kg_it, expect_distributed=workload == "kg_rebuild_dist")
    extracted, store = kg_it["extracted"], ctx.store
    if extracted is None:
        # the rebuild workloads build on the set-up store: ingest and
        # extraction are measured on their own here
        store = ctx.fresh("store")
        ingest(ctx, store)
        extracted = _extract(ctx)
    probe_sources(ctx, m, store)
    probe_extract(ctx, m, extracted)
    probe_state(ctx, m, kg_it["state"])
    probe_generate(ctx, m, kg_it, record)
    probe_checkpoint(ctx, m, kg_it, record)
    if kg_it["state"].distributed:
        probe_build_dist(ctx, m, kg_it["state"])
        from yago4_ray.state import build_state

        with tr.span("build.build_state_broadcast"):
            broadcast = build_state(ctx.store, distributed=False)
        probe_build_parts(ctx, m, broadcast)
    else:
        probe_build_parts(ctx, m, kg_it["state"])
        probe_build_dist(ctx, m, None)
    if docs_it is None:
        docs_it = docs_iteration(ctx)
        check_docs(ctx, docs_it, docs_reference)
    probe_dataops(ctx, m, docs_it)
    return m
