"""Deduplication: exact, MinHash-LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

Shuffle discipline (ray_guide / SURVEY §7.3):
- exact dedup hash-partitions on the *content hash* — uniform by
  construction, hub keys can't skew it;
- MinHash/SimHash explode to (band_id, band_hash) rows and group on the
  band key — band hashes are uniform; candidate verification happens
  inside the band group, clusters close with min-label propagation;
- embedding near-dup buckets by seeded random-hyperplane LSH, pairwise
  cosine only within buckets.

All hashes are process-independent (crc32/blake2, never Python hash()).
"""

from __future__ import annotations

import functools
import hashlib
import re
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

_TOKEN_RE = re.compile(r"\w+", re.UNICODE)


def content_hash(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


# ---------------------------------------------------------------------------
# Exact dedup
# ---------------------------------------------------------------------------

def exact_dedup(
    ds: Dataset, text_col: str, id_col: str
) -> Dataset:
    """One representative row (min id) per distinct text.
    Returns (id_col, n_dupes): one `joins.aggregate` (min id, rows) on
    the 128-bit content hash, its combiner per block."""

    def add_hash(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"__h": batch[text_col].map(content_hash), id_col: batch[id_col]}
        )

    from ..joins import aggregate

    return aggregate(
        ds.map_batches(add_hash, batch_format="pandas"), ["__h"],
        {id_col: (id_col, "min"), "n_dupes": (None, "count")},
    ).drop_columns(["__h"])


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------

_MERSENNE = (1 << 61) - 1


def _minhash_params(num_perm: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.int64)
    b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.int64)
    return a, b


_SHINGLE_BASE = np.uint64(1099511628211)  # FNV-ish odd multiplier


def batch_shingle_hashes(
    texts, k: int = 5
) -> tuple[np.ndarray, np.ndarray]:
    """(doc_idx, hash) for every byte k-shingle of every normalized text
    — ONE numpy pass over the concatenated byte buffer (sliding windows
    + polynomial hash), no per-shingle Python. Hashes wrap mod 2^64;
    deterministic across processes."""
    encoded = []
    for t in texts:
        b = " ".join(str(t).lower().split()).encode("utf-8")
        if len(b) < k:
            b = b.ljust(k)
        encoded.append(b)
    if not encoded:
        return np.empty(0, np.int64), np.empty(0, np.uint64)
    lens = np.fromiter((len(b) for b in encoded), np.int64, count=len(encoded))
    buf = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    doc_of = np.repeat(np.arange(len(encoded), dtype=np.int64), lens)
    windows = np.lib.stride_tricks.sliding_window_view(buf, k)
    pows = _SHINGLE_BASE ** np.arange(k, dtype=np.uint64)
    h = (windows.astype(np.uint64) * pows[None, :]).sum(axis=1, dtype=np.uint64)
    idx = np.arange(len(h))
    valid = doc_of[idx] == doc_of[idx + k - 1]  # windows inside one doc
    return doc_of[idx[valid]], h[valid]


def shingles(text: str, k: int = 5) -> np.ndarray:
    """Distinct k-shingle hashes of one text (batch kernel, n=1)."""
    _, h = batch_shingle_hashes([text], k)
    return np.unique(h)


class MinHasher:
    """Per-batch minhash kernel: hash params built once per process
    (see `_minhash_fn`'s cache); the per-batch work is fully vectorized
    (batch shingling, one distinct-shingle × perms matrix, per-doc min
    via minimum.reduceat — no per-doc Python loop)."""

    def __init__(self, text_col: str, id_col: str, num_perm: int, bands: int,
                 shingle_k: int, seed: int):
        self.text_col = text_col
        self.id_col = id_col
        self.a, self.b = _minhash_params(num_perm, seed)
        self.bands = bands
        self.rows_per_band = num_perm // bands
        self.shingle_k = shingle_k
        self.num_perm = num_perm

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        n_docs = len(batch)
        if n_docs == 0:
            return pd.DataFrame({"band": [], "bh": [], "doc": []})
        doc_idx, sh = batch_shingle_hashes(
            batch[self.text_col].tolist(), self.shingle_k
        )
        # distinct (doc, shingle) only: repeated 5-grams can't change a
        # min, and the dedup shrinks the perm matrix 2-3× on prose
        order = np.lexsort((sh, doc_idx))
        di, hh = doc_idx[order], sh[order]
        keep = np.ones(len(di), bool)
        keep[1:] = (di[1:] != di[:-1]) | (hh[1:] != hh[:-1])
        doc_idx, sh = di[keep], hh[keep]
        # per-doc signature: wrap-mod-2^64 universal hashing, then min
        # per doc via reduceat over the sorted doc boundaries (C-speed;
        # np.minimum.at's unbuffered path was the batch's hotspot)
        vals = (
            self.a.astype(np.uint64)[None, :] * sh[:, None]
            + self.b.astype(np.uint64)[None, :]
        ) % np.uint64(_MERSENNE)  # (n_distinct_shingles, num_perm)
        bounds = np.searchsorted(doc_idx, np.arange(n_docs + 1))
        counts = np.diff(bounds)
        sig = np.full((n_docs, self.num_perm), np.iinfo(np.uint64).max, np.uint64)
        if len(vals):
            red = np.minimum.reduceat(
                vals, np.minimum(bounds[:-1], len(vals) - 1), axis=0
            )
            nonempty = counts > 0
            sig[nonempty] = red[nonempty]
        # per-(doc, band) hash: polynomial fold of the band's rows
        bands = sig.reshape(n_docs, self.bands, self.rows_per_band)
        bh = np.zeros((n_docs, self.bands), np.uint64)
        for r in range(self.rows_per_band):
            bh = bh * _SHINGLE_BASE + bands[:, :, r]
        docs = np.repeat(batch[self.id_col].to_numpy(), self.bands)
        band_ids = np.tile(np.arange(self.bands, dtype=np.int64), n_docs)
        return pd.DataFrame(
            {"band": band_ids, "bh": bh.reshape(-1).astype(np.int64),
             "doc": docs}
        )


_MINHASHER_CACHE: dict = {}


def _minhash_fn(args: tuple):
    """Task form of the MinHasher stage: one MinHasher per (args,
    worker process), built lazily inside the task."""

    def fn(batch):
        mh = _MINHASHER_CACHE.get(args)
        if mh is None:
            mh = _MINHASHER_CACHE.setdefault(args, MinHasher(*args))
        return mh(batch)

    return fn


def minhash_lsh_pairs(
    ds: Dataset,
    text_col: str,
    id_col: str,
    num_perm: int = 64,
    bands: int = 8,
    shingle_k: int = 5,
    seed: int = 42,
    concurrency: int | tuple[int, int] = (2, 16),
    bucket_cap: int = 1000,
    keep_bucket_stats: bool = False,
    dedup_pairs: bool = True,
) -> Dataset:
    """Candidate near-duplicate pairs (a, b) with a < b, deduplicated.
    shingle→minhash→band rows→groupby(band)→within-band pairs.

    Banding is tuned to the verify threshold: b=8, r=8 puts the S-curve
    midpoint at (1/b)^(1/r) ≈ 0.77 — right under the 0.8 default
    Jaccard cut, so moderately-similar template docs stop flooding the
    candidate set (b=16/r=4 had its midpoint at 0.5 and emitted 192 k
    candidates for 477 true near-dups on the sf0.1 corpus) while
    ≥0.9-similar docs still collide with probability ≈ 0.99.

    Buckets above `bucket_cap` docs are STAR-linked through their min
    doc instead of silently dropped (quadratic emission bounded, recall
    preserved through the representative); with
    `keep_bucket_stats=True` each pair carries an `oversized` column
    (the source bucket's size for star edges, 0 otherwise) so callers
    can count what was capped."""
    # plain TASKS, not an actor pool: MinHasher's state is a handful of
    # rng coefficients (microseconds to build, cached per worker
    # process) — the autoscaling pool paid ~1.5 s of actor startup to
    # front a sub-second compute at bench scale, and tasks schedule on
    # every free CPU immediately. (The actor-pool pattern is for HEAVY
    # per-actor state — the mention linker keeps it.)
    args = (text_col, id_col, num_perm, bands, shingle_k, seed)
    banded = ds.map_batches(
        _minhash_fn(args),
        batch_format="pandas",
        # an int concurrency still caps concurrent tasks; the old
        # actor-pool (min, max) tuple maps to "no cap" (tasks scale to
        # free CPUs) — same convention as textstats.text_stats
        concurrency=None if isinstance(concurrency, tuple) else concurrency,
    )

    def pairs_in_part(pdf: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b, out_over = [], [], []
        for _, docs in pdf.groupby(["band", "bh"])["doc"]:
            uniq = sorted(set(docs))
            if len(uniq) < 2:
                continue
            if len(uniq) > bucket_cap:
                # oversized bucket (identical band signatures — template
                # spam or a degenerate band): STAR-link to the min doc
                # instead of silently dropping; the cluster still closes
                # through the representative, and quadratic blowup is
                # avoided. Flagged per pair so callers can count.
                for j in range(1, len(uniq)):
                    out_a.append(uniq[0])
                    out_b.append(uniq[j])
                    out_over.append(len(uniq))
                continue
            for i in range(len(uniq)):
                for j in range(i + 1, len(uniq)):
                    out_a.append(uniq[i])
                    out_b.append(uniq[j])
                    out_over.append(0)
        return pd.DataFrame(
            {"a": out_a, "b": out_b, "oversized": out_over}
        ).drop_duplicates(["a", "b"])

    from ..joins import aggregate, partitioned_group_apply

    pairs = partitioned_group_apply(banded, ["band", "bh"], pairs_in_part)
    # dedupe pairs found in multiple bands (keep the max oversized flag
    # so a star edge is never silently relabelled as a verified-complete
    # pair by a duplicate from a healthy band). `dedup_pairs=False`
    # ELIDES this exchange — one full all-to-all over the candidate
    # pair set — for consumers whose downstream is idempotent per pair
    # (minhash_dedup: verify is per-pair and connected components
    # tolerate duplicate edges); a pair then appears at most once per
    # band (≤ `bands` times total).
    if not dedup_pairs:
        if keep_bucket_stats:
            return pairs
        return pairs.drop_columns(["oversized"])
    deduped = aggregate(pairs, ["a", "b"], {"oversized": ("oversized", "max")})
    if keep_bucket_stats:
        return deduped
    return deduped.drop_columns(["oversized"])


def batch_jaccard(texts_a, texts_b, k: int = 5) -> np.ndarray:
    """n-gram Jaccard for n text PAIRS in one vectorized pass: shingle
    all 2n texts at once, then per-pair set sizes via one lexsort —
    no per-pair Python."""
    texts_a = list(texts_a)
    texts_b = list(texts_b)
    n = len(texts_a)
    if n == 0:
        return np.empty(0, np.float64)
    doc, h = batch_shingle_hashes(texts_a + texts_b, k)
    pair = doc % n
    side = doc // n
    order = np.lexsort((side, h, pair))
    p, hh, s = pair[order], h[order], side[order]
    keep = np.ones(len(p), bool)
    keep[1:] = (p[1:] != p[:-1]) | (hh[1:] != hh[:-1]) | (s[1:] != s[:-1])
    p, hh = p[keep], hh[keep]
    inter_mask = np.zeros(len(p), bool)
    inter_mask[1:] = (p[1:] == p[:-1]) & (hh[1:] == hh[:-1])
    inter = np.bincount(p[inter_mask], minlength=n)
    union = np.bincount(p, minlength=n) - inter
    return inter / np.maximum(union, 1)


def ngram_jaccard(text_a: str, text_b: str, k: int = 5) -> float:
    """Verification kernel for one candidate pair (batch kernel, n=1)."""
    return float(batch_jaccard([text_a], [text_b], k)[0])


import ray as _ray


@_ray.remote(num_cpus=1)
def _collect_endpoints(*blocks):
    """Fold materialized pair blocks into (HashIndex of endpoint ids,
    star-edge count) in ONE task off the driver — the driver holds only
    the returned ObjectRefs. Only dispatched under the broadcast-cap
    volume gate, so the set is bounded by construction."""
    ids: set = set()
    n_star = 0
    for b in blocks:
        b = b.to_pandas()
        ids.update(b["a"])
        ids.update(b["b"])
        n_star += int((b["oversized"] > 0).sum())
    from ..broadcast import HashIndex

    return HashIndex(sorted(ids)), n_star


def minhash_dedup(
    ds: Dataset,
    text_col: str,
    id_col: str,
    threshold: float = 0.8,
    **kwargs,
) -> Dataset:
    """Full near-dup pipeline → (id, cluster) rows for docs in clusters.
    Candidate pairs are verified with true n-gram Jaccard against a
    distributed (id, shingles) dataset. Verify strategy is VOLUME-GATED:
    candidate sets under a 32 MB cap ship as one broadcast object
    (bounded by the cap — a constant, never dup-rate × corpus — and it
    skips two sort shuffles' fixed floors); larger sets take the
    co-partitioned pairs⨝shingles joins on `a` then `b`, where no
    candidate text or shingle ever transits the driver. The final
    min-label clustering is distributed too (alternating star rounds,
    concomp.connected_components_min_label): no pair row ever transits
    the driver — at web-scale dup rates the verified edge list is
    O(duplicates), far beyond one machine."""
    import ray

    from ..joins import copartition_join, get_broadcast

    k = kwargs.get("shingle_k", 5)
    broadcast_cap = kwargs.pop("broadcast_verify_cap", 32 << 20)
    # dedup_pairs=False: the cross-band pair dedup is one full
    # all-to-all over the candidate set, and everything downstream here
    # is idempotent per pair (per-pair verify; connected components
    # tolerate duplicate edges) — a pair just verifies once per
    # colliding band (≤ bands times) instead of once
    pairs = minhash_lsh_pairs(
        ds, text_col, id_col, keep_bucket_stats=True, dedup_pairs=False,
        **kwargs
    ).materialize()
    # the verify state is bounded by the CANDIDATE set, never the corpus,
    # and VOLUME-GATED end to end — nothing is unconditionally pulled to
    # the driver:
    # (1) candidate-ID narrowing: below the cap, ONE remote task folds
    #     the materialized pair blocks into a HashIndex of endpoint ids
    #     (the driver holds only the ObjectRef; workers hold a set
    #     bounded by the cap) and the corpus pass broadcast-filters on
    #     it; ABOVE the cap the ids stay distributed and the corpus is
    #     semi-joined against the distinct pair endpoints with
    #     `copartition_join` — no endpoint set anywhere in one heap,
    # (2) the (one) corpus pass computes each candidate's sorted shingle
    #     array ONCE, kept distributed as a Dataset,
    # (3) two co-partitioned joins attach shingles to each pair side;
    #     verification is per part with np.intersect1d — no corpus text
    #     or shingle ever shuffles through the driver.
    pairs_nbytes, pairs_nblocks = pairs.size_bytes(), pairs.num_blocks()
    pairs_schema = pairs.schema()  # free: pairs is materialized
    pair_refs = pairs.to_arrow_refs()
    pairs_with_over = pairs
    pairs = pairs.drop_columns(["oversized"])
    ids_ref = None
    star_ref = None
    if pairs_nbytes <= broadcast_cap:
        # HashIndex, not a raw set: pandas .isin rebuilds a hash table
        # over the whole candidate set on EVERY batch (PERF_NOTES #36) —
        # at the 32 MB cap that's ~1M ids re-hashed per corpus block.
        # Do NOT block on the fold here: the shingle scan's tasks
        # resolve ids_ref lazily via get_broadcast, so the corpus READ
        # overlaps the endpoint fold; the star counter is fetched after
        # the scan materializes (by then it resolved long ago).
        ids_ref, star_ref = _collect_endpoints.options(
            num_returns=2
        ).remote(*pair_refs)
        n_star = 0
    else:
        # endpoint set exceeds the broadcast cap: count star edges with
        # a distributed per-block partial + tiny sum instead
        import pyarrow.compute as _pc

        n_star = int(
            pairs_with_over.map_batches(
                lambda t: pa.table(
                    {"ns": pa.array(
                        [int(_pc.sum(
                            _pc.greater(t["oversized"], 0)
                        ).as_py() or 0)],
                        pa.int64(),
                    )}
                ),
                batch_format="pyarrow",
            ).sum("ns")
            or 0
        )
    def _report_stars(n: int) -> None:
        if n:
            print(
                f"[minhash_dedup] {n} star-linked pairs from oversized "
                "LSH buckets (bucket_cap exceeded)",
                flush=True,
            )

    if star_ref is None:
        _report_stars(n_star)

    def cand_shingles(b: pd.DataFrame) -> pa.Table:
        if ids_ref is not None:
            sel = b[get_broadcast(ids_ref).contains(pa.array(b[id_col]))]
        else:
            sel = b  # corpus already endpoint-narrowed by the semi-join
        doc_idx, h = batch_shingle_hashes(sel[text_col].tolist(), k)
        order = np.lexsort((h, doc_idx))
        di, hh = doc_idx[order], h[order]
        uniq = np.ones(len(di), bool)
        uniq[1:] = (di[1:] != di[:-1]) | (hh[1:] != hh[:-1])
        di, hh = di[uniq], hh[uniq]
        bounds = np.searchsorted(di, np.arange(len(sel) + 1))
        # Arrow out with EXPLICIT types: most corpus blocks contribute
        # zero candidates, and empty pandas object columns surface as
        # null-typed Arrow — mixed per-block schemas break the join pads
        ids = sel[id_col].to_numpy()
        id_t = pa.string() if ids.dtype == object else None
        return pa.table(
            {
                "id": pa.array(ids, id_t, from_pandas=True),
                "sh": pa.array(
                    [
                        hh[bounds[i]:bounds[i + 1]].tobytes()
                        for i in range(len(sel))
                    ],
                    pa.binary(),
                ),
            }
        )

    if ids_ref is not None:
        sh_src = ds
    else:
        # scale path: narrow the corpus to pair endpoints with a
        # co-partitioned semi-join — the endpoint set never sits in one
        # heap. Endpoints = distinct ids from both pair columns.
        from ..joins import distinct_rows
        from .concomp import id_type_of

        id_type = id_type_of(pairs_schema)
        endpoints = distinct_rows(
            pairs.map_batches(
                lambda t: pa.concat_tables(
                    [
                        t.select(["a"]).rename_columns([id_col]),
                        t.select(["b"]).rename_columns([id_col]),
                    ]
                ),
                batch_format="pyarrow",
            ),
            [id_col],
        )
        try:
            corpus_nbytes = ds.size_bytes() or 0
        except Exception:
            corpus_nbytes = 0
        from ..joins import partitions_for_nbytes

        sh_src = copartition_join(
            ds.map_batches(
                lambda t: t.select([id_col, text_col]),
                batch_format="pyarrow",
            ),
            endpoints,
            id_col,
            [id_col, text_col],
            [id_col],
            num_parts=(
                partitions_for_nbytes(corpus_nbytes) if corpus_nbytes else 32
            ),
            col_types={id_col: id_type, text_col: pa.string()},
        ).materialize()
    sh_ds = sh_src.map_batches(cand_shingles, batch_format="pandas").materialize()
    if star_ref is not None:
        _report_stars(ray.get(star_ref))  # resolved during the scan

    def _pair_keep(sh_as, sh_bs) -> np.ndarray:
        """Exact-Jaccard keep mask for aligned shingle-payload sequences."""
        keep = np.zeros(len(sh_as), bool)
        for i, (sa_raw, sb_raw) in enumerate(zip(sh_as, sh_bs)):
            sa = np.frombuffer(sa_raw or b"", dtype=np.uint64)
            sb = np.frombuffer(sb_raw or b"", dtype=np.uint64)
            union = len(sa) + len(sb)
            if union == 0:
                keep[i] = True
                continue
            inter = len(np.intersect1d(sa, sb, assume_unique=True))
            keep[i] = inter / (union - inter) >= threshold
        return keep

    def _clean(out: pa.Table) -> pa.Table:
        return out.replace_schema_metadata(None) if out.schema.metadata else out

    # Volume-gated verify: below the cap the whole candidate shingle set
    # is ONE bounded broadcast object (constant driver/worker memory by
    # construction — NOT proportional to dup-rate × corpus) and the two
    # join shuffles' fixed floors are skipped; above it, the shingles
    # stay distributed and the pairs⨝shingles co-partitioned joins run.
    # Same verify kernel either way.
    if sh_ds.size_bytes() + pairs_nbytes <= broadcast_cap:
        sh_tbl = pa.concat_tables(ray.get(sh_ds.to_arrow_refs()))
        sh_ref = ray.put(
            dict(zip(sh_tbl["id"].to_pylist(), sh_tbl["sh"].to_pylist()))
        )

        def verify_broadcast(batch: pd.DataFrame) -> pa.Table:
            m = get_broadcast(sh_ref)
            keep = _pair_keep(
                [m.get(a) for a in batch["a"]], [m.get(b) for b in batch["b"]]
            )
            return _clean(
                pa.Table.from_pandas(batch[keep], preserve_index=False)
            )

        verified = pairs.map_batches(verify_broadcast, batch_format="pandas")
    else:
        # bound the blocks FEEDING the join shuffles: the corpus scan
        # leaves one (near-empty) block per input block, and sort-shuffle
        # cost is input blocks × output partitions (measured 10.4 s →
        # 2.8 s at 64 blocks/459 pairs). Volume-sized, so a huge
        # candidate set still gets many blocks; the repartition is a
        # no-sort block coalesce that executes inside the join run.
        from ..sources import read_blocks_for_nbytes

        n_blocks = read_blocks_for_nbytes(sh_ds.size_bytes() + pairs_nbytes)
        n_parts = max(4, n_blocks)
        if sh_ds.num_blocks() > n_blocks:
            sh_ds = sh_ds.repartition(n_blocks)
        if pairs_nblocks > n_blocks:
            pairs = pairs.repartition(n_blocks)
        sh_a = sh_ds.map_batches(
            lambda t: t.rename_columns(["a", "sh_a"]), batch_format="pyarrow"
        )
        sh_b = sh_ds.map_batches(
            lambda t: t.rename_columns(["b", "sh_b"]), batch_format="pyarrow"
        )
        # pad types from the materialized schemas (ids may be int64 or
        # string depending on the corpus; shingle payloads are binary)
        id_type = sh_ds.schema().base_schema.field("id").type
        sh_type = sh_ds.schema().base_schema.field("sh").type
        jtypes = {
            "a": id_type, "b": id_type, "sh_a": sh_type, "sh_b": sh_type
        }
        with_a = copartition_join(
            pairs, sh_a, "a", ["a", "b"], ["a", "sh_a"], num_parts=n_parts,
            col_types=jtypes,
        )
        with_both = copartition_join(
            with_a, sh_b, "b", ["a", "b", "sh_a"], ["b", "sh_b"],
            num_parts=n_parts, col_types=jtypes,
        )

        def verify_joined(batch: pd.DataFrame) -> pa.Table:
            keep = _pair_keep(batch["sh_a"], batch["sh_b"])
            return _clean(
                pa.Table.from_pandas(
                    batch[keep][["a", "b"]], preserve_index=False
                )
            )

        verified = with_both.materialize().map_batches(
            verify_joined, batch_format="pandas"
        )
    # min-label clustering stays DISTRIBUTED: the verified edge set was
    # the last thing this pipeline pulled to the driver (a union-find
    # whose memory grew with the duplicate count — O(corpus) at a
    # 20-30 %-dup web crawl). connected_components_min_label runs
    # alternating star rounds over the edge Dataset; the driver holds
    # only a round counter and a 16-byte checksum per round.
    from .concomp import connected_components_min_label, id_type_of

    cc = connected_components_min_label(
        verified, id_type=id_type_of(pairs_schema)
    )
    return cc.map_batches(
        lambda t: pa.table({id_col: t["a"], "cluster": t["b"]}),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

def batch_simhash64(texts) -> np.ndarray:
    """64-bit SimHash per text, vectorized: tokens hashed as ONE
    pandas siphash column (deterministic across processes), bit
    matrix unpacked and accumulated per doc with np.add.at."""
    tokens: list[str] = []
    counts = np.zeros(len(texts), np.int64)
    for i, t in enumerate(texts):
        tk = _TOKEN_RE.findall(str(t).lower())
        tokens.extend(tk)
        counts[i] = len(tk)
    out = np.zeros(len(texts), np.uint64)
    if not tokens:
        return out
    h = pd.util.hash_pandas_object(pd.Series(tokens), index=False).to_numpy()
    doc_idx = np.repeat(np.arange(len(texts), dtype=np.int64), counts)
    shifts = np.arange(64, dtype=np.uint64)
    bits = ((h[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int64) * 2 - 1
    acc = np.zeros((len(texts), 64), np.int64)
    np.add.at(acc, doc_idx, bits)
    return ((acc > 0).astype(np.uint64) * (np.uint64(1) << shifts)).sum(
        axis=1, dtype=np.uint64
    )


def simhash64(text: str) -> int:
    """64-bit SimHash of one text (batch kernel, n=1)."""
    return int(batch_simhash64([text])[0])


_POPCOUNT_LUT = np.array([bin(i).count("1") for i in range(256)], np.uint8)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Per-element popcount of a uint64 array (byte-LUT, no Python)."""
    return _POPCOUNT_LUT[x.view(np.uint8).reshape(*x.shape, 8)].sum(
        axis=-1, dtype=np.int64
    )


def simhash_dedup_pairs(
    ds: Dataset, text_col: str, id_col: str, max_hamming: int = 3,
    bucket_cap: int = 1000,
) -> Dataset:
    """Near-dup pairs by SimHash: 4×16-bit bands (any pair within
    hamming ≤ 3 shares at least one exact band), verify hamming in-band.

    The in-band check is vectorized (xor matrix + byte-LUT popcount, no
    per-pair Python), and buckets above `bucket_cap` docs fall back to
    an O(n) hamming check against the bucket-min representative — a
    16-bit band over a web corpus puts ~n/65k docs in an AVERAGE bucket,
    so one hot band value must never trigger the all-pairs loop."""

    def add_bands(batch: pd.DataFrame) -> pd.DataFrame:
        n = len(batch)
        if n == 0:
            return pd.DataFrame({"band": [], "doc": [], "sim": []})
        sh = batch_simhash64(batch[text_col].tolist())
        bands = np.arange(4, dtype=np.uint64)
        parts = (sh[:, None] >> (np.uint64(16) * bands[None, :])) & np.uint64(0xFFFF)
        band_keys = (bands[None, :] << np.uint64(16)) | parts  # 4*65536 key space
        return pd.DataFrame(
            {
                "band": band_keys.reshape(-1).astype(np.int64),
                "doc": np.repeat(batch[id_col].to_numpy(), 4),
                "sim": np.repeat(sh.astype(np.int64), 4),
            }
        )

    def pairs_in_part(pdf: pd.DataFrame) -> pd.DataFrame:
        frames = []
        n_capped = 0
        for _, grp in pdf.groupby("band"):
            # sims ride as int64; view back to the uint64 bit pattern.
            # Distinct (doc, sim) rows, doc-ascending so emitted pairs
            # keep a <= b without per-pair compares.
            rows = grp[["doc", "sim"]].drop_duplicates().sort_values(
                ["doc", "sim"], kind="stable"
            )
            docs = rows["doc"].to_numpy()
            sims = rows["sim"].to_numpy(np.int64).view(np.uint64)
            nn = len(docs)
            if nn < 2:
                continue
            if nn > bucket_cap:
                # oversized band bucket (template spam / degenerate
                # band): hamming-check every doc against the bucket-min
                # representative ONLY — O(n) per bucket, not O(n²); the
                # cluster still closes through the representative, and
                # every emitted pair is a TRUE hamming<=max pair (the
                # pairs-subset-of-exact gate survives). Counted + printed
                # like minhash's star-link.
                n_capped += 1
                d = _popcount64(sims ^ sims[0])
                keep = np.nonzero(d[1:] <= max_hamming)[0] + 1
                frames.append(
                    pd.DataFrame({"a": docs[np.zeros(len(keep), np.int64)],
                                  "b": docs[keep]})
                )
                continue
            # vectorized all-pairs hamming: xor matrix + byte-LUT popcount
            x = sims[:, None] ^ sims[None, :]
            dist = _POPCOUNT_LUT[x.view(np.uint8).reshape(nn, nn, 8)].sum(
                axis=2, dtype=np.int64
            )
            ii, jj = np.nonzero(np.triu(dist <= max_hamming, k=1))
            frames.append(pd.DataFrame({"a": docs[ii], "b": docs[jj]}))
        if n_capped:
            print(
                f"[simhash_dedup] {n_capped} oversized band buckets "
                f"(> {bucket_cap} docs) star-checked against the bucket min",
                flush=True,
            )
        if not frames:
            return pd.DataFrame(
                {"a": pd.Series(dtype=pdf["doc"].dtype),
                 "b": pd.Series(dtype=pdf["doc"].dtype)}
            )
        return pd.concat(frames, ignore_index=True).drop_duplicates()

    from ..joins import distinct_rows, partitioned_group_apply

    return distinct_rows(
        partitioned_group_apply(
            ds.map_batches(add_bands, batch_format="pandas"),
            ["band"],
            pairs_in_part,
        ),
        ["a", "b"],
    )


# ---------------------------------------------------------------------------
# Embedding cosine near-dup
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def _lsh_planes(seed: int, dim: int, num_planes: int) -> np.ndarray:
    """The (dim, num_planes) seeded hyperplanes of embedding_dedup_pairs,
    drawn once per worker process and vector width."""
    planes = np.random.default_rng(seed).standard_normal((dim, num_planes))
    planes = planes.astype(np.float32)
    planes.setflags(write=False)  # one cached array serves every batch
    return planes


def embedding_dedup_pairs(
    ds: Dataset,
    vec_col: str,
    id_col: str,
    threshold: float = 0.95,
    num_planes: int = 12,
    seed: int = 42,
    bucket_cap: int = 2000,
) -> Dataset:
    """Near-dup pairs by cosine ≥ threshold. Seeded hyperplane-LSH
    buckets, exact cosine inside buckets (numpy matmul per group).

    Buckets above `bucket_cap` rows are recursively SPLIT with extra
    seeded hyperplanes (depth-derived) until they fit, instead of being
    silently dropped — each split plane loses a ≥threshold pair with
    probability ≈ arccos(threshold)/π (~10% at 0.95), vs 100% for a
    drop. Split events are printed as a counter.

    The input runs once, inside the exchange: each batch draws the
    seeded hyperplanes for its own vector width (_lsh_planes), with no
    probe of the input for its width."""

    def bucket(batch: pd.DataFrame) -> pd.DataFrame:
        mat = np.stack(batch[vec_col].to_numpy()).astype(np.float32)
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        mat = mat / np.maximum(norms, 1e-12)
        bits = (mat @ _lsh_planes(seed, mat.shape[1], num_planes)) > 0
        # pack the sign bits into one int64 key (no per-row Python join;
        # num_planes <= 62 by construction)
        keys = bits.astype(np.int64) @ (
            np.int64(1) << np.arange(bits.shape[1], dtype=np.int64)
        )
        return pd.DataFrame(
            {"bucket": keys, "id": batch[id_col],
             "vec": [v.tobytes() for v in mat]}
        )

    _MAX_SPLIT_DEPTH = 40

    def pairs_in_part(pdf: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b, out_c = [], [], []
        n_splits = 0
        n_stars = 0

        def star_emit(ids: np.ndarray, mat: np.ndarray) -> None:
            # un-splittable oversized bucket ((near-)identical vectors —
            # a hyperplane can never separate them, and all-pairs would
            # emit O(n²) rows of mutual dups): link members to the
            # min-id representative with their EXACT cosine; the cluster
            # closes through the representative, output stays O(n)
            nonlocal n_stars
            n_stars += 1
            rep = min(range(len(ids)), key=lambda i: ids[i])  # id-dtype-safe
            sims = mat @ mat[rep]
            for i in np.nonzero(sims >= threshold)[0]:
                if i == rep or ids[i] == ids[rep]:
                    continue
                a, b = sorted([ids[rep], ids[i]])
                out_a.append(a)
                out_b.append(b)
                out_c.append(float(sims[i]))

        def emit(ids: np.ndarray, mat: np.ndarray, depth: int) -> None:
            nonlocal n_splits
            if len(ids) < 2:
                return
            if len(ids) > bucket_cap:
                if depth >= _MAX_SPLIT_DEPTH:
                    star_emit(ids, mat)
                    return
                # recursive plane split: one extra seeded hyperplane per
                # depth halves the bucket in expectation; ≥threshold
                # pairs stay on one side w.p. 1 - arccos(t)/π
                rng = np.random.default_rng((seed, depth, len(ids)))
                plane = rng.standard_normal(mat.shape[1]).astype(np.float32)
                side = (mat @ plane) > 0
                if side.all() or not side.any():
                    # no progress — identical(-direction) vectors; more
                    # planes can't help and recursing would never bottom
                    star_emit(ids, mat)
                    return
                n_splits += 1
                emit(ids[side], mat[side], depth + 1)
                emit(ids[~side], mat[~side], depth + 1)
                return
            sims = mat @ mat.T
            ii, jj = np.nonzero(np.triu(sims >= threshold, k=1))
            for i, j in zip(ii, jj):
                if ids[i] != ids[j]:
                    a, b = sorted([ids[i], ids[j]])
                    out_a.append(a)
                    out_b.append(b)
                    out_c.append(float(sims[i, j]))

        for _, group in pdf.groupby("bucket"):
            if len(group) < 2:
                continue
            ids = group["id"].to_numpy()
            mat = np.stack(
                [np.frombuffer(v, dtype=np.float32) for v in group["vec"]]
            )
            emit(ids, mat, 0)
        if n_splits:
            print(
                f"[embedding_dedup] split {n_splits} oversized LSH buckets "
                f"(> {bucket_cap} rows)",
                flush=True,
            )
        if n_stars:
            print(
                f"[embedding_dedup] star-linked {n_stars} un-splittable "
                f"oversized buckets through their min-id representative",
                flush=True,
            )
        return pd.DataFrame({"a": out_a, "b": out_b, "cosine": out_c})

    from ..joins import aggregate, partitioned_group_apply

    # a pair found in several buckets keeps its largest cosine
    return aggregate(
        partitioned_group_apply(
            ds.map_batches(bucket, batch_format="pandas"),
            ["bucket"],
            pairs_in_part,
        ),
        ["a", "b"],
        {"cosine": ("cosine", "max")},
    )


# ---------------------------------------------------------------------------
# Exact word-n-gram Jaccard (the exactly-verifiable face of near-dup:
# MinHash/SimHash approximate THIS measure; here it is computed exactly
# via a distributed shingle inverted index, no signatures)
# ---------------------------------------------------------------------------

def batch_word_ngram_hashes(texts, n: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """(doc_idx, hash) for every DISTINCT word n-gram of every text —
    one vectorized pass: normalize (lower + whitespace-split), hash each
    word (pandas siphash, fixed key → stable across processes), then a
    polynomial over word hashes in sliding windows. A doc with fewer
    than n words emits ONE shingle over its whole word list (matching
    `list[i:i+n-1]` slicing semantics in SQL oracles). Only hash
    EQUALITY is consumed (set elements), so cross-length collisions are
    the usual 2^-64 noise."""
    words_per_doc = [str(t).lower().split() or [""] for t in texts]
    lens = np.fromiter(
        (len(w) for w in words_per_doc), np.int64, count=len(words_per_doc)
    )
    flat = [w for ws in words_per_doc for w in ws]
    wh = pd.util.hash_array(np.array(flat, dtype=object))  # uint64
    doc_of = np.repeat(np.arange(len(texts), dtype=np.int64), lens)
    offsets = np.concatenate([[0], np.cumsum(lens)[:-1]])
    pows = _SHINGLE_BASE ** np.arange(n, dtype=np.uint64)
    docs_out, h_out = [], []
    if len(wh) >= n:
        win = np.lib.stride_tricks.sliding_window_view(wh, n)
        h = (win * pows[None, :]).sum(axis=1, dtype=np.uint64)
        idx = np.arange(len(h))
        valid = doc_of[idx] == doc_of[idx + n - 1]  # windows inside one doc
        docs_out.append(doc_of[idx[valid]])
        h_out.append(h[valid])
    for short_len in range(1, n):  # whole-doc shingle for docs with <n words
        sel = np.nonzero(lens == short_len)[0]
        if len(sel):
            starts = offsets[sel]
            cols = starts[:, None] + np.arange(short_len)[None, :]
            h = (wh[cols] * pows[None, :short_len]).sum(axis=1, dtype=np.uint64)
            docs_out.append(sel)
            h_out.append(h)
    if not docs_out:
        return np.empty(0, np.int64), np.empty(0, np.uint64)
    doc = np.concatenate(docs_out)
    h = np.concatenate(h_out)
    order = np.lexsort((h, doc))  # distinct per doc via consecutive mask
    doc, h = doc[order], h[order]
    keep = np.concatenate(
        [[True], (doc[1:] != doc[:-1]) | (h[1:] != h[:-1])]
    )
    return doc[keep], h[keep]


def _distinct_char_shingles(texts, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(doc_idx, hash) of the DISTINCT byte k-shingles per text — the
    MinHash shingle space (batch_shingle_hashes) with the per-doc dedup
    the inverted index requires."""
    doc_idx, h = batch_shingle_hashes(texts, k)
    order = np.lexsort((h, doc_idx))
    di, hh = doc_idx[order], h[order]
    keep = np.ones(len(di), bool)
    keep[1:] = (di[1:] != di[:-1]) | (hh[1:] != hh[:-1])
    return di[keep], hh[keep]


def ngram_jaccard_pairs(
    ds: Dataset,
    text_col: str,
    id_col: str,
    n: int = 3,
    threshold: tuple[int, int] = (1, 2),
    num_parts: int = 32,
    max_doc_freq: int | None = None,
    shingle: str = "word",
) -> Dataset:
    """EXACT all-pairs n-gram Jaccard ≥ threshold, as a distributed
    shingle inverted index — three shuffles, no driver materialization.
    `shingle="word"` uses word n-grams; `shingle="char"` uses the SAME
    byte k-shingles as MinHash (batch_shingle_hashes), which makes this
    operator the exact ground truth MinHash+LSH approximates — the
    correctness gate for minhash/simhash clusters (tests/test_dataops).

    Dataflow:

      docs → (id, shingle-hash, doc-shingle-count) rows
           → groupby(shingle): within-bucket id pairs, partial counts
           → groupby(pair): total common count m; emit when
             m·q ≥ (ca+cb−m)·p  (threshold p/q held as an INTEGER
             fraction: output (a, b, n_common, n_union) is bit-exact,
             no float in sight — SQL-oracle-hashable)

    Pair generation is quadratic per shingle BUCKET (the classic
    inverted-index skew); `max_doc_freq`, when set, drops shingles that
    occur in more docs than that (a standard stop-shingle cutoff — the
    100-TB knob, OFF by default so the result stays exact)."""
    from ..joins import aggregate, partitioned_group_apply

    p_num, p_den = threshold

    hash_fn = (
        batch_word_ngram_hashes if shingle == "word" else _distinct_char_shingles
    )

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        doc_idx, h = hash_fn(df[text_col].tolist(), n)
        cnt = np.bincount(doc_idx, minlength=len(df))
        return pd.DataFrame(
            {
                "id": df[id_col].to_numpy()[doc_idx],
                "s": h.astype("uint64"),
                "c": cnt[doc_idx].astype("int64"),
            }
        )

    def bucket_pairs(pdf: pd.DataFrame) -> pd.DataFrame:
        if max_doc_freq is not None:
            sizes = pdf.groupby("s")["s"].transform("size")
            pdf = pdf[sizes <= max_doc_freq]
        m = pdf.merge(pdf, on="s")
        m = m[m["id_x"] < m["id_y"]]
        if not len(m):
            return pd.DataFrame(
                {"a": pd.Series(dtype=pdf["id"].dtype),
                 "b": pd.Series(dtype=pdf["id"].dtype),
                 "ca": pd.Series(dtype="int64"),
                 "cb": pd.Series(dtype="int64"),
                 "m": pd.Series(dtype="int64")}
            )
        g = (
            m.groupby(["id_x", "id_y", "c_x", "c_y"], as_index=False)
            .size()
            .rename(
                columns={"id_x": "a", "id_y": "b", "c_x": "ca",
                         "c_y": "cb", "size": "m"}
            )
        )
        g["m"] = g["m"].astype("int64")
        return g

    def keep_similar(t: pa.Table) -> pa.Table:
        m = t["m"]
        union = pc.subtract(pc.add(t["ca"], t["cb"]), m)
        keep = pc.greater_equal(
            pc.multiply(m, p_den), pc.multiply(union, p_num)
        )
        return pa.table({
            "a": t["a"], "b": t["b"], "n_common": m, "n_union": union,
        }).filter(keep)

    exploded = ds.map_batches(explode, batch_format="pandas")
    partials = partitioned_group_apply(
        exploded, ["s"], bucket_pairs, num_parts=num_parts
    )
    return aggregate(
        partials, ["a", "b", "ca", "cb"], {"m": ("m", "sum")},
        num_parts=num_parts,
    ).map_batches(keep_similar, batch_format="pyarrow")
