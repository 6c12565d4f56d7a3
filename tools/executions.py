"""Ray Data executions, Dataset constructions and store scans of one
warm build on both state paths: build a seeded corpus's statement
store, run `build_state` + `generate_yago` once to warm the workers,
then once more while recording every `StreamingExecutor.execute` call,
every `ray.data.from_arrow_refs` call, every `Dataset` construction and
every store scan (`sources.scan_predicate`) with its plain read tasks,
and print each with the yago4_ray function that started it.

    python tools/executions.py --entities 2000 --seed 7

Per path one line per execution, `<path> <n> <caller> <chain>`, with
`ALL-TO-ALL` before the chain when an operator of it is a Ray Data
all-to-all (sort shuffle, hash shuffle, join or aggregate); one line
per scan, `<path> scan <n> <caller> <predicates> preds <files> files
<tasks> read tasks <blocks> blocks`; one line per calling function of
`from_arrow_refs` and of `Dataset` constructions, `<path> <what>
<count> <caller>`; then a summary line per path.
The session is 2 CPUs wide, as perfbench's.
The corpus is cached under `--work` (default `.bench_work/executions`);
the store and the outputs are deleted on exit.
"""
from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
import threading

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
    import collections

    import ray
    import ray.data
    from ray.data._internal.execution.streaming_executor import StreamingExecutor
    from ray.data.dataset import Dataset

    from yago4_ray import build, build_dist, sources, state as state_mod
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
    from_arrow_refs = ray.data.from_arrow_refs
    dataset_init = Dataset.__init__
    scan_predicate = sources.scan_predicate
    read_groups = sources._read_groups
    log: list[tuple[str, str, bool]] = []
    # (what, caller) -> count: from_arrow_refs calls, Dataset constructions
    wrapped: collections.Counter = collections.Counter()
    # per scan: [caller, predicates, files, read tasks, blocks]
    scans: list[list] = []
    current = threading.local()  # a scan runs in its caller's thread

    def recording_execute(self, dag, *a, **kw):
        ops = operators(dag)
        log.append((
            caller(),
            " -> ".join(op.name for op in ops),
            any(is_all_to_all(op) for op in ops),
        ))
        return execute(self, dag, *a, **kw)

    def recording_from_arrow_refs(*a, **kw):
        wrapped["from_arrow_refs", caller()] += 1
        return from_arrow_refs(*a, **kw)

    def recording_dataset_init(self, *a, **kw):
        wrapped["Dataset", caller()] += 1
        return dataset_init(self, *a, **kw)

    def recording_scan(root, predicates, *a, **kw):
        preds = [predicates] if isinstance(predicates, str) else predicates
        current.scan = [caller(), len(preds), 0, 0, 0]
        scans.append(current.scan)
        return scan_predicate(root, predicates, *a, **kw)

    def recording_read_groups(files, num_blocks):
        groups = read_groups(files, num_blocks)
        current.scan[2:] = [
            len(files), len(groups), sum(k for _, k in groups)
        ]
        return groups

    # every module that scans imports the function by name
    scanning = (sources, build, build_dist, state_mod)

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
                scans.clear()
                wrapped.clear()
                StreamingExecutor.execute = recording_execute
                ray.data.from_arrow_refs = recording_from_arrow_refs
                Dataset.__init__ = recording_dataset_init
                sources._read_groups = recording_read_groups
                for module in scanning:
                    module.scan_predicate = recording_scan
                try:
                    state = build_state(store, distributed=distributed)
                    generate_yago(store, out_dir=out, state=state)
                finally:
                    StreamingExecutor.execute = execute
                    ray.data.from_arrow_refs = from_arrow_refs
                    Dataset.__init__ = dataset_init
                    sources._read_groups = read_groups
                    for module in scanning:
                        module.scan_predicate = scan_predicate
            for i, (where, chain, a2a) in enumerate(log, 1):
                flag = "ALL-TO-ALL " if a2a else ""
                print(f"{name} {i} {where} {flag}{chain}")
            for i, (where, preds, files, tasks, blocks) in enumerate(scans, 1):
                print(
                    f"{name} scan {i} {where} {preds} preds {files} files "
                    f"{tasks} read tasks {blocks} blocks"
                )
            for (what, where), n in sorted(wrapped.items()):
                print(f"{name} {what} {n} {where}")
            print(
                f"{name}: {len(log)} executions, "
                f"{sum(a2a for *_, a2a in log)} with an all-to-all operator, "
                f"{len(scans)} scan plans, "
                f"{sum(s[3] for s in scans)} plain read tasks, "
                f"{sum(n for (w, _), n in wrapped.items() if w == 'from_arrow_refs')}"
                " from_arrow_refs calls, "
                f"{sum(n for (w, _), n in wrapped.items() if w == 'Dataset')}"
                " Dataset constructions"
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
