"""Driver and object-store growth across warm builds: build a seeded
corpus's statement store, then per state path run `build_state` +
`generate_yago` `--builds` times in one process and print, after each
build, the driver's RSS after `gc.collect()`, the size of Ray Data's
`remote_fn.CACHED_FUNCTIONS` (it never evicts) and the raylet's pinned
object bytes (its `debug_state.txt`).

    python tools/driver_growth.py --entities 2000 --seed 7

One line per build, `<path> <n> rss_mb=<MB> cached_functions=<n>
pinned_mb=<MB>`, then one line per path with the growth from the first
build to the last. There is no threshold: the numbers compare two
commits. The session is 2 CPUs wide, as perfbench's, and the raylet
rewrites `debug_state.txt` every 100 ms; each reading waits for a fresh
dump. The corpus is cached under `--work` (default
`.bench_work/driver_growth`); the store and the outputs are deleted on
exit.
"""
from __future__ import annotations

import argparse
import gc
import os
import re
import shutil
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

PATHS = {"broadcast": False, "distributed": True}
NUM_CPUS = 2
DUMP_PERIOD_MS = 100
_PINNED_RE = re.compile(r"pinned objects size:\s*(\d+)", re.I)


def rss_mb() -> float:
    """This process's resident set, from /proc/self/statm."""
    with open("/proc/self/statm") as f:
        resident = int(f.read().split()[1])
    return resident * os.sysconf("SC_PAGE_SIZE") / 2**20


def pinned_mb(session_dir: str) -> float | None:
    """The raylet's pinned object bytes from a `debug_state.txt` written
    after this call started (None when the dump has no such line)."""
    path = os.path.join(session_dir, "logs", "debug_state.txt")
    asked = time.time()
    deadline = asked + 20 * DUMP_PERIOD_MS / 1000
    while time.time() < deadline:
        # a dump being rewritten reads empty: try the next one
        if os.path.exists(path) and os.path.getmtime(path) > asked:
            with open(path) as f:
                found = _PINNED_RE.search(f.read())
            if found:
                return int(found.group(1)) / 2**20
        time.sleep(DUMP_PERIOD_MS / 4000)
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--entities", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--builds", type=int, default=8)
    ap.add_argument(
        "--work", default=os.path.join(ROOT, ".bench_work", "driver_growth")
    )
    args = ap.parse_args()

    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    import ray
    import ray.data
    from ray.data._internal.remote_fn import CACHED_FUNCTIONS

    from yago4_ray.build import generate_yago
    from yago4_ray.corpus import materialize_corpus
    from yago4_ray.sources import write_statement_store
    from yago4_ray.state import build_state

    os.makedirs(args.work, exist_ok=True)
    ray.init(
        address="local", num_cpus=NUM_CPUS, include_dashboard=False,
        logging_level="ERROR", log_to_driver=False,
        object_store_memory=512 << 20,
        _system_config={"debug_dump_period_milliseconds": DUMP_PERIOD_MS},
    )
    ray.data.DataContext.get_current().enable_progress_bars = False
    session_dir = ray._private.worker._global_node.get_session_dir_path()
    scratch = tempfile.mkdtemp(dir=args.work)
    try:
        corpus = materialize_corpus(
            args.entities, args.seed, cache_root=os.path.join(args.work, "corpus")
        )
        store = os.path.join(scratch, "store")
        write_statement_store(
            ray.data.read_parquet(os.path.join(corpus, "statements.parquet")), store
        )
        for name, distributed in PATHS.items():
            rows = []
            for i in range(1, args.builds + 1):
                out = tempfile.mkdtemp(dir=scratch)
                state = build_state(store, distributed=distributed)
                generate_yago(store, out_dir=out, state=state)
                del state
                shutil.rmtree(out, ignore_errors=True)
                gc.collect()
                row = (rss_mb(), len(CACHED_FUNCTIONS), pinned_mb(session_dir))
                rows.append(row)
                pinned = "?" if row[2] is None else f"{row[2]:.1f}"
                print(
                    f"{name} {i} rss_mb={row[0]:.1f} cached_functions={row[1]} "
                    f"pinned_mb={pinned}",
                    flush=True,
                )
            (rss0, fns0, pin0), (rss1, fns1, pin1) = rows[0], rows[-1]
            growth = (
                "?" if pin0 is None or pin1 is None else f"{pin1 - pin0:+.1f}"
            )
            print(
                f"{name}: builds 1->{len(rows)} rss_mb {rss1 - rss0:+.1f} "
                f"cached_functions {fns1 - fns0:+d} pinned_mb {growth}"
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
