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


@pytest.fixture(scope="session")
def build_outputs(statements_root):
    from yago4_ray.build import generate_yago

    outputs = generate_yago(statements_root, write=False)
    result = {}
    for name, ds in outputs.items():
        df = ds.to_pandas()
        if "annotation_predicate" in df.columns:
            result[name] = set(
                zip(df["subject"], df["predicate"], df["object"],
                    df["annotation_predicate"], df["annotation_object"])
            )
        else:
            result[name] = set(
                zip(df["subject"], df["predicate"], df["object"])
            )
    return result


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



