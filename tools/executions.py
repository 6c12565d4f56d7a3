"""Ray Data executions of one warm build on both state paths: build a
seeded corpus's statement store, run `build_state` + `generate_yago`
once to warm the workers, then once more while recording every
`StreamingExecutor.execute` call, and print each execution's operator
chain and the yago4_ray function that started it.

    python tools/executions.py --entities 2000 --seed 7

Per path one line per execution, `<path> <n> <caller> <chain>`, with
`ALL-TO-ALL` before the chain when an operator of it is a Ray Data
all-to-all (sort shuffle, hash shuffle, join or aggregate), then a
summary line per path. The session is 2 CPUs wide, as perfbench's.
The corpus is cached under `--work` (default `.bench_work/executions`);
the store and the outputs are deleted on exit.
"""
from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

PATHS = {"broadcast": False, "distributed": True}
NUM_CPUS = 2


def operators(dag) -> list:
    """Every operator of a physical DAG, sources first."""
    seen: list = []

    def visit(op):
        for dep in op.input_dependencies:
            visit(dep)
        if all(op is not s for s in seen):
            seen.append(op)

    visit(dag)
    return seen


def is_all_to_all(op) -> bool:
    from ray.data._internal.execution.operators.base_physical_operator import (
        AllToAllOperator,
    )
    from ray.data._internal.execution.operators.hash_shuffle import (
        HashShufflingOperatorBase,
    )

    return isinstance(op, (AllToAllOperator, HashShufflingOperatorBase))


def caller() -> str:
    """The innermost yago4_ray function on the stack."""
    frame = sys._getframe(2)
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module.startswith("yago4_ray"):
            return f"{module}.{frame.f_code.co_name}"
        frame = frame.f_back
    return "?"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--entities", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument(
        "--work", default=os.path.join(ROOT, ".bench_work", "executions")
    )
    args = ap.parse_args()

    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    import ray
    import ray.data
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    from yago4_ray.build import generate_yago
    from yago4_ray.corpus import materialize_corpus
    from yago4_ray.sources import write_statement_store
    from yago4_ray.state import build_state

    os.makedirs(args.work, exist_ok=True)
    ray.init(
        address="local", num_cpus=NUM_CPUS, include_dashboard=False,
        logging_level="ERROR", log_to_driver=False,
        object_store_memory=512 << 20,
    )
    ray.data.DataContext.get_current().enable_progress_bars = False
    scratch = tempfile.mkdtemp(dir=args.work)
    execute = StreamingExecutor.execute
    log: list[tuple[str, str, bool]] = []

    def recording_execute(self, dag, *a, **kw):
        ops = operators(dag)
        log.append((
            caller(),
            " -> ".join(op.name for op in ops),
            any(is_all_to_all(op) for op in ops),
        ))
        return execute(self, dag, *a, **kw)

    try:
        corpus = materialize_corpus(
            args.entities, args.seed, cache_root=os.path.join(args.work, "corpus")
        )
        store = os.path.join(scratch, "store")
        write_statement_store(
            ray.data.read_parquet(os.path.join(corpus, "statements.parquet")), store
        )
        for name, distributed in PATHS.items():
            for _ in ("cold", "warm"):  # the warm build's log is kept
                out = tempfile.mkdtemp(dir=scratch)
                log.clear()
                StreamingExecutor.execute = recording_execute
                try:
                    state = build_state(store, distributed=distributed)
                    generate_yago(store, out_dir=out, state=state)
                finally:
                    StreamingExecutor.execute = execute
            for i, (where, chain, a2a) in enumerate(log, 1):
                flag = "ALL-TO-ALL " if a2a else ""
                print(f"{name} {i} {where} {flag}{chain}")
            print(
                f"{name}: {len(log)} executions, "
                f"{sum(a2a for *_, a2a in log)} with an all-to-all operator"
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
