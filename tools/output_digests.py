"""Output digests on both state paths: build a seeded corpus's statement
store, run `generate_yago` once with broadcast state and
once with distributed state, print the sha256 of every written part
(`.nt.gz`/`.ntx.gz`) and of `stats.tsv`, and compare the two paths.

    python tools/output_digests.py --entities 2000 --seed 7

One line per file, `<path> <file> <sha256>`, sorted, then one verdict
line. Run it in two checkouts and diff the outputs to compare commits
(the gz sinks write mtime=0 headers, so equal content means equal
bytes). Exits 1 when the two paths differ. The corpus is cached under
`--work` (default `.bench_work/digests`); the store and the outputs
are deleted on exit.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import pathlib
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

PATHS = {"broadcast": False, "distributed": True}
# the session width sets the part counts; 2 is the width perfbench runs
NUM_CPUS = 2


def digests(out_dir: str) -> dict[str, str]:
    root = pathlib.Path(out_dir)
    files = [*root.glob("*/*.nt.gz"), *root.glob("*/*.ntx.gz"), root / "stats.tsv"]
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in files
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--entities", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--work", default=os.path.join(ROOT, ".bench_work", "digests"))
    args = ap.parse_args()

    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    import ray
    import ray.data

    from yago4_ray.build import generate_yago
    from yago4_ray.corpus import materialize_corpus
    from yago4_ray.sources import write_statement_store

    os.makedirs(args.work, exist_ok=True)
    ray.init(
        address="local", num_cpus=NUM_CPUS, include_dashboard=False,
        logging_level="ERROR", log_to_driver=False,
        object_store_memory=512 << 20,
    )
    ray.data.DataContext.get_current().enable_progress_bars = False
    scratch = tempfile.mkdtemp(dir=args.work)
    try:
        corpus = materialize_corpus(
            args.entities, args.seed, cache_root=os.path.join(args.work, "corpus")
        )
        store = os.path.join(scratch, "store")
        write_statement_store(
            ray.data.read_parquet(os.path.join(corpus, "statements.parquet")), store
        )
        by_path = {}
        for name, distributed in PATHS.items():
            out = os.path.join(scratch, name)
            generate_yago(store, out_dir=out, distributed=distributed)
            by_path[name] = digests(out)
            for file, sha in sorted(by_path[name].items()):
                print(f"{name} {file} {sha}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        ray.shutdown()

    a, b = by_path["broadcast"], by_path["distributed"]
    differ = sorted(f for f in a.keys() | b.keys() if a.get(f) != b.get(f))
    parts = len(a) - 1
    if differ:
        print(f"cross-path: DIFFER in {len(differ)} file(s): {differ[:5]}")
        return 1
    print(f"cross-path: identical ({parts} parts + stats.tsv)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
