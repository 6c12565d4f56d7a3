"""Output checks against references computed independently of the
timed code path.

KG outputs are compared by content, never by .gz bytes: the N-Triples
sink opens its part files with `gzip.open` and no `mtime=0`, so every
gzip header carries the write time and two builds of one store give
different .gz sha256s with identical content. Each output is reduced
to the sorted set of its parsed rows and hashed (`canonical_digest`);
the decompressed bytes are hashed too, in part order, as the
byte-identity record a run leaves behind.
"""

from __future__ import annotations

import glob
import gzip
import hashlib
import json
import os

import numpy as np


def canonical_digest(rows) -> str:
    h = hashlib.sha256()
    for line in sorted("\t".join(r) for r in rows):
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _normalize(name: str, rows) -> set:
    # the sink writes plain facts and RDF-star annotations into one
    # annotated-facts output; compare both as 5-tuples
    if name == "annotated-facts":
        return {r if len(r) == 5 else (*r, "", "") for r in rows}
    return set(rows)


def read_output(out_dir: str, dir_name: str) -> dict:
    """Parse every part file of one output directory."""
    parts = sorted(glob.glob(os.path.join(out_dir, dir_name, "part-*")))
    rows, lines, gz_bytes = set(), 0, 0
    raw = hashlib.sha256()
    for part in parts:
        gz_bytes += os.path.getsize(part)
        with gzip.open(part, "rb") as f:
            data = f.read()
        raw.update(data)
        for line in data.decode("utf-8").splitlines():
            lines += 1
            tok = line.split("\t")
            if tok[0] == "<<":
                rows.add((tok[1], tok[2], tok[3], tok[5], tok[6]))
            else:
                rows.add(tuple(tok[:3]))
    return {
        "rows": rows,
        "lines": lines,
        "parts": len(parts),
        "gz_bytes": gz_bytes,
        "decompressed_sha256": raw.hexdigest(),
    }


def reference_digests(corpus_dir: str, cache_dir: str) -> dict[str, str]:
    """Per-output digests of the expected KG: the straight-line oracle
    (tests/oracle.py) for the seven data outputs, and the schema's own
    rows for the schema/shapes outputs. Cached per corpus and oracle
    source, since the oracle is the slowest part of a run's set-up."""
    import pyarrow.parquet as pq

    from oracle import __file__ as oracle_path
    from oracle import oracle_build
    from yago4_ray.build import build_yago_schema, build_yago_shapes
    from yago4_ray.schema import Schema

    with open(oracle_path, "rb") as f:
        oracle_sha = hashlib.sha256(f.read()).hexdigest()[:16]
    cache = os.path.join(
        cache_dir, f"{os.path.basename(corpus_dir)}_{oracle_sha}.json"
    )
    if os.path.exists(cache):
        with open(cache) as f:
            return json.load(f)
    table = pq.read_table(os.path.join(corpus_dir, "statements.parquet"))
    triples = zip(
        table["subject"].to_pylist(),
        table["predicate"].to_pylist(),
        table["object"].to_pylist(),
    )
    schema = Schema.open()
    want = oracle_build(list(triples), schema)
    digests = {
        name: canonical_digest(_normalize(name, rows)) for name, rows in want.items()
    }
    for name, ds in (
        ("schema", build_yago_schema(schema)),
        ("shapes", build_yago_shapes(schema)),
    ):
        df = ds.to_pandas()
        digests[name] = canonical_digest(
            set(zip(df["subject"], df["predicate"], df["object"]))
        )
    os.makedirs(cache_dir, exist_ok=True)
    tmp = cache + ".tmp"
    with open(tmp, "w") as f:
        json.dump(digests, f)
    os.replace(tmp, cache)
    return digests


def check_kg_outputs(out_dir: str, want: dict[str, str]) -> dict:
    """Compare every written output with its reference digest."""
    from yago4_ray.build import OUTPUT_FILE_NAMES
    from yago4_ray.checkpoint import read_manifest

    record = {}
    for name, dir_name in OUTPUT_FILE_NAMES.items():
        got = read_output(out_dir, dir_name)
        manifest = read_manifest(os.path.join(out_dir, dir_name)) or {}
        record[name] = {
            "match": canonical_digest(_normalize(name, got["rows"])) == want[name],
            "lines": got["lines"],
            "manifest_rows": manifest.get("num_rows"),
            "parts": got["parts"],
            "gz_bytes": got["gz_bytes"],
            "decompressed_sha256": got["decompressed_sha256"],
        }
    return record


def extract_quality(statements, truthy) -> tuple[float, float]:
    """(precision, recall) of extracted statements against the corpus
    generator's ground truth."""
    df = statements.to_pandas()
    got = set(zip(df["subject"], df["predicate"], df["object"]))
    want = set(
        zip(
            truthy["subject"].to_pylist(),
            truthy["predicate"].to_pylist(),
            truthy["object"].to_pylist(),
        )
    )
    tp = len(got & want)
    return tp / max(1, len(got)), tp / max(1, len(want))


def exact_clusters(docs) -> list[tuple[int, int]]:
    """(doc, min-label cluster) of the connected components of the exact
    char-5-shingle Jaccard ≥ 0.8 graph — the operator minhash
    approximates, so at this threshold its clusters must equal these."""
    from yago4_ray.dataops.dedup import ngram_jaccard_pairs

    exact = ngram_jaccard_pairs(
        docs, "text", "doc_id", n=5, threshold=(4, 5), shingle="char"
    ).to_pandas()
    label: dict = {}

    def find(x):
        while label[x] != x:
            label[x] = label[label[x]]
            x = label[x]
        return x

    for a, b in zip(exact["a"], exact["b"]):
        label.setdefault(a, a)
        label.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = sorted([ra, rb])
            label[hi] = lo
    return sorted((int(d), int(find(d))) for d in label)


def brute_simhash_pairs(ids, texts, max_hamming: int = 3) -> set:
    """Every pair at Hamming distance ≤ max_hamming, all pairs compared."""
    from yago4_ray.dataops.dedup import batch_simhash64

    sims = batch_simhash64(list(texts))
    ids = np.asarray(ids)
    x = sims[:, None] ^ sims[None, :]
    bits = np.unpackbits(x.view(np.uint8).reshape(len(ids), len(ids), 8), axis=2)
    ii, jj = np.nonzero(np.triu(bits.sum(axis=2) <= max_hamming, k=1))
    return {(int(min(a, b)), int(max(a, b))) for a, b in zip(ids[ii], ids[jj])}
