"""CLI surface, mirroring the reference's commands (main.rs:27-88):

  python -m yago4_ray partition -f dump.nt.gz [-f ...] -o STORE_DIR
  python -m yago4_ray build -i STORE_DIR -o OUT_DIR [--full|--all-wikis|--en-wiki]
  python -m yago4_ray extract -d DOCS -q QID_DICT -o OUT_DIR
  python -m yago4_ray synth -n 1000 [-s 42]         (deterministic corpus)

Owns its Ray session (scripts only — the library never calls ray.init).
"""

from __future__ import annotations

import argparse
import os
import sys


def _init_ray(num_cpus: int | None) -> bool:
    """Init Ray if not already up; returns True when WE own the session
    (only then may the command shut it down)."""
    import ray

    owned = not ray.is_initialized()
    if owned:
        # RAY_ADDRESS=local (the sandbox default) starts a local session;
        # under `ray job submit` on a real cluster RAY_ADDRESS points at
        # the running cluster and num_cpus must not constrain it
        address = os.environ.get("RAY_ADDRESS", "local")
        ray.init(
            address=address,
            num_cpus=num_cpus if address == "local" else None,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return owned


def cmd_partition(args):
    import ray
    import ray.data

    from .sources import read_ntriples, write_statement_store

    owned = _init_ray(args.num_cpus)
    if all(f.endswith(".parquet") for f in args.file):
        ds = ray.data.read_parquet(args.file)
    else:
        ds = read_ntriples(args.file)
    write_statement_store(ds, args.output)
    print(f"partitioned into {args.output}")
    if owned:
        ray.shutdown()


def cmd_build(args):
    import ray

    from .build import generate_yago

    owned = _init_ray(args.num_cpus)
    size = "full"
    if args.all_wikis:
        size = "all-wikipedias"
    elif args.en_wiki:
        size = "en-wikipedia"
    generate_yago(args.input, out_dir=args.output, size=size)
    print(f"built into {args.output}")
    if owned:
        ray.shutdown()


def cmd_extract(args):
    import pyarrow.parquet as pq
    import ray

    from .extract import extract_statements
    from .sources import read_documents, write_statement_store

    owned = _init_ray(args.num_cpus)
    docs = read_documents(args.documents)
    dictionary = pq.read_table(args.qid_dictionary)
    statements, media = extract_statements(docs, dictionary)
    write_statement_store(
        statements.drop_columns(["doc_id"]), os.path.join(args.output, "statements")
    )
    media.write_parquet(os.path.join(args.output, "media_candidates"))
    print(f"extracted into {args.output}")
    if owned:
        ray.shutdown()


def cmd_synth(args):
    from .corpus import materialize_corpus

    out = materialize_corpus(n_entities=args.n_entities, seed=args.seed)
    print(out)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="yago4_ray")
    parser.add_argument("--num-cpus", type=int, default=None)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("partition", help="ingest N-Triples/parquet into the store")
    p.add_argument("-f", "--file", action="append", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_partition)

    b = sub.add_parser("build", help="run the KG build")
    b.add_argument("-i", "--input", required=True)
    b.add_argument("-o", "--output", required=True)
    flavor = b.add_mutually_exclusive_group()
    flavor.add_argument("--full", action="store_true")
    flavor.add_argument("--all-wikis", action="store_true")
    flavor.add_argument("--en-wiki", action="store_true")
    b.set_defaults(fn=cmd_build)

    e = sub.add_parser("extract", help="extract statements from documents")
    e.add_argument("-d", "--documents", required=True)
    e.add_argument("-q", "--qid-dictionary", required=True)
    e.add_argument("-o", "--output", required=True)
    e.set_defaults(fn=cmd_extract)

    s = sub.add_parser("synth", help="generate the deterministic corpus")
    s.add_argument("-n", "--n-entities", type=int, default=1000)
    s.add_argument("-s", "--seed", type=int, default=42)
    s.set_defaults(fn=cmd_synth)

    args = parser.parse_args(argv)
    args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
