import os
import sys

import pytest
import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(__file__))
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture
def run_concurrently():
    """Call fn on n threads released at once, with a 1 us switch
    interval so a lost update between a check and a set shows; returns
    the n results."""
    import threading

    def run(fn, n: int = 8) -> list:
        got = []
        start = threading.Barrier(n)

        def call():
            start.wait()
            got.append(fn())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call) for _ in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(got) == n
        return got

    return run


@pytest.fixture(scope="session")
def ray_session():
    import ray
    from ray.data import DataContext

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    yield
    # drop every cached ObjectRef/Dataset BEFORE shutdown: a ref whose
    # destructor runs after ray.shutdown() makes the core worker abort
    # the interpreter with a bare exit(1) — pytest dies between the
    # last test and its summary (core_worker_process.cc:926; observed
    # whenever test_distributed ran last in a session)
    import gc

    from yago4_ray import joins as _joins
    from yago4_ray import queries as _queries

    _joins._BROADCAST_CACHE.clear()
    _queries._KG_CACHE.clear()
    gc.collect()
    # let the async ReleaseObject RPCs the collect just triggered drain
    # before shutdown: a release in flight when the core worker tears
    # down aborts the interpreter with a bare exit(1) AFTER the test
    # summary (intermittent; join-dense sessions emit many refs)
    import time

    time.sleep(1.0)
    ray.shutdown()


@pytest.fixture(scope="session")
def corpus_dir(ray_session, tmp_path_factory):
    """Small deterministic corpus + its partitioned statement store."""
    from yago4_ray.corpus import materialize_corpus

    return materialize_corpus(n_entities=600, seed=42)


@pytest.fixture(scope="session")
def statements_root(corpus_dir, tmp_path_factory):
    import ray.data

    from yago4_ray.sources import write_statement_store

    root = str(tmp_path_factory.mktemp("store") / "statements")
    ds = ray.data.read_parquet(os.path.join(corpus_dir, "statements.parquet"))
    write_statement_store(ds, root)
    return root


def write_triples(ds, out_dir: str, lineage: str | None = None):
    """Write a (subject, predicate, object) Dataset as the part files of
    one output directory `out_dir`, the way generate_yago writes: one
    input under the output row map (a `file` tag, empty annotation
    columns), the full-key dedup exchange (2 parts) whose reduce tasks
    write the parts with NTriplesGzWriter."""
    from yago4_ray.build import _output_rows, write_outputs
    from yago4_ray.sources import NTriplesGzWriter

    base, name = os.path.split(out_dir)
    write_outputs(
        [(ds, _output_rows("out"))],
        NTriplesGzWriter(base, {"out": name}, lineage=lineage),
        num_parts=2,
    )


def read_written_outputs(out_dir: str) -> dict[str, set]:
    """The rows of every output generate_yago wrote under `out_dir`,
    read back from its .nt.gz/.ntx.gz parts: output name → set of
    (subject, predicate, object) tuples; annotated-facts rows are
    5-tuples, with "" annotation columns on plain triples. Every output
    is deduplicated, so a line written twice fails here."""
    import glob
    import gzip

    from yago4_ray.build import OUTPUT_FILE_NAMES

    result = {}
    for name, dirname in OUTPUT_FILE_NAMES.items():
        rows = set()
        lines = 0
        for part in sorted(glob.glob(os.path.join(out_dir, dirname, "part-*"))):
            with gzip.open(part, "rt", encoding="utf-8") as f:
                for line in f:
                    lines += 1
                    tok = line.rstrip("\n").split("\t")
                    if tok[0] == "<<":  # <<\ts\tp\to\t>>\tap\tao\t.
                        rows.add((tok[1], tok[2], tok[3], tok[5], tok[6]))
                    elif name == "annotated-facts":
                        rows.add((*tok[:3], "", ""))
                    else:
                        rows.add(tuple(tok[:3]))
        assert lines == len(rows), f"{name}: {lines - len(rows)} duplicate lines"
        result[name] = rows
    return result


def part_digests(out_dir: str, pattern: str = "*/*.nt*.gz") -> dict[str, str]:
    """sha256 of every written part under `out_dir` matching `pattern`,
    by path relative to `out_dir` (the gz sink writes mtime=0 headers,
    so equal content means equal bytes)."""
    import hashlib
    import pathlib

    root = pathlib.Path(out_dir)
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.glob(pattern))
    }


@pytest.fixture(scope="session")
def build_out_dir(statements_root, tmp_path_factory):
    """The output directory of one generate_yago run (broadcast state)
    over the session store."""
    from yago4_ray.build import generate_yago

    out_dir = str(tmp_path_factory.mktemp("build_out"))
    generate_yago(statements_root, out_dir=out_dir)
    return out_dir


@pytest.fixture(scope="session")
def build_outputs(build_out_dir):
    return read_written_outputs(build_out_dir)


@pytest.fixture(scope="session")
def oracle_outputs(corpus_dir):
    from oracle import oracle_build

    from yago4_ray.schema import Schema

    table = pq.read_table(os.path.join(corpus_dir, "statements.parquet"))
    triples = list(
        zip(
            table["subject"].to_pylist(),
            table["predicate"].to_pylist(),
            table["object"].to_pylist(),
        )
    )
    return oracle_build(triples, Schema.open())



