"""Similarity search over an embedding column (list<float>).

- Brute-force cosine top-k: the baseline — query matrix broadcast once
  (`ray.put`), per-batch numpy matmul, per-batch local top-k partials,
  tiny global reduce. Scales linearly; zero shuffle of the corpus.
- IVF top-k: the scale path — seeded k-means centroids fitted on a
  sample, per-batch assignment, probe only the nprobe closest lists.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
from ray.data import Dataset

from ..joins import get_broadcast


def _normalize(mat: np.ndarray) -> np.ndarray:
    return mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)


def _stack(col, dtype=np.float32) -> np.ndarray:
    return np.stack([np.asarray(v, dtype=dtype) for v in col])


def _arrow_mat(col: "pa.ChunkedArray | pa.Array", dtype=np.float32) -> np.ndarray:
    """(n, dim) matrix from an Arrow list<float> column WITHOUT a
    per-row Python loop: flatten the list buffer (offset-aware) and
    reshape — near-zero-copy for non-null fixed-dim embeddings. Ray's
    tensor extension type (what a pandas stage upstream turns the
    column into) already yields an (n, dim) ndarray from to_numpy."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if isinstance(arr, pa.ExtensionArray):
        mat = arr.to_numpy(zero_copy_only=False)
        if mat.dtype == object:  # ragged fallback
            mat = np.stack([np.asarray(v) for v in mat])
        return np.asarray(mat, dtype=dtype)
    flat = arr.flatten().to_numpy(zero_copy_only=False)
    n = len(arr)
    return flat.reshape(n, -1).astype(dtype, copy=False)


def brute_force_topk(
    ds: Dataset,
    queries: np.ndarray,
    k: int = 10,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    dtype=np.float32,
    round_decimals: int | None = None,
    rerank: bool = False,
) -> pd.DataFrame:
    """Exact cosine top-k for each query row.
    Returns (query_idx, id, cosine, rank), deterministic ties by id.

    Two ways to match a double-precision oracle (SQL
    list_cosine_similarity + round):
    - dtype=float64 + round_decimals: every batch matmuls in float64 —
      2× the memory traffic of the float32 scan on 100-TB corpora.
    - rerank=True (+ round_decimals): the SCAN stays float32 and keeps a
      k+margin candidate slate per (query, block); only the tiny
      candidate set is re-scored in float64 on the driver. Exact as long
      as the margin absorbs float32-vs-float64 rank jitter (~1e-7
      relative — margin 8 is orders of magnitude beyond it). Source
      embeddings are float32, so float32→float64 is value-exact.
    """
    if rerank:
        scan_dtype = np.float32
        kk_margin = 8
    else:
        scan_dtype = dtype
        kk_margin = 0
    q = _normalize(np.asarray(queries, dtype=scan_dtype))
    q_ref = ray.put(q)

    def partial_topk(batch: pa.Table) -> pd.DataFrame:
        qm = get_broadcast(q_ref)
        raw = _arrow_mat(batch.column(vec_col), scan_dtype)
        mat = _normalize(raw)
        sims = qm @ mat.T  # (n_queries, batch)
        if round_decimals is not None and not rerank:
            sims = np.round(sims, round_decimals)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        kk = min(k + kk_margin, sims.shape[1])
        # local top-k per query (argpartition = O(n))
        idx = np.argpartition(-sims, kth=kk - 1, axis=1)[:, :kk]
        nq = sims.shape[0]
        flat = idx.ravel()
        out = pd.DataFrame(
            {
                "query_idx": np.repeat(np.arange(nq), kk),
                "id": ids[flat],
                "cosine": sims[np.repeat(np.arange(nq), kk), flat],
            }
        )
        if rerank:
            # carry the candidate vectors (float32 bytes) so the driver
            # can re-score in float64 without a second corpus pass
            out["vec"] = [raw[j].tobytes() for j in flat]
        return out

    partials = ds.map_batches(partial_topk, batch_format="pyarrow").to_pandas()
    if rerank:
        # driver re-rank: n_queries × (k+margin) × n_blocks candidates
        uniq = partials.drop_duplicates("id")
        cand_ids = uniq["id"].to_numpy()
        mat64 = _normalize(
            np.stack(
                [
                    np.frombuffer(b, dtype=np.float32).astype(np.float64)
                    for b in uniq["vec"]
                ]
            )
        )
        q64 = _normalize(np.asarray(queries, dtype=np.float64))
        sims64 = q64 @ mat64.T
        if round_decimals is not None:
            sims64 = np.round(sims64, round_decimals)
        order = np.argsort(cand_ids)
        col = order[np.searchsorted(cand_ids[order], partials["id"].to_numpy())]
        partials = pd.DataFrame(
            {
                "query_idx": partials["query_idx"],
                "id": partials["id"],
                "cosine": sims64[partials["query_idx"].to_numpy(), col],
            }
        ).drop_duplicates(["query_idx", "id"])
    # global reduce: tiny (n_queries × k × n_blocks rows)
    partials = partials.sort_values(
        ["query_idx", "cosine", "id"], ascending=[True, False, True]
    )
    top = partials.groupby("query_idx", as_index=False).head(k).reset_index(drop=True)
    top["rank"] = top.groupby("query_idx").cumcount()
    return top[["query_idx", "id", "cosine", "rank"]]


def brute_force_pairs(
    ds: Dataset,
    threshold: float,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    max_rows: int = 200_000,
) -> Dataset:
    """EXACT all-pairs cosine ≥ threshold (a < b): the full normalized
    matrix is broadcast once (embeddings are narrow), each batch matmuls
    against it — linear passes, zero corpus shuffle, no bucketing recall
    loss. Complements embedding_dedup_pairs (the LSH-bucketed scale
    path) as the verifiable baseline.

    Guarded: the broadcast side is the WHOLE corpus, so this is a
    small-input verification tool by construction. Above `max_rows`
    (raise it explicitly if you mean it) the call refuses with a
    pointer to `embedding_dedup_pairs`, the scale path. The input runs
    once: its row count and the broadcast side both come from one
    materialization."""
    ds = ds.materialize()
    n_rows = ds.count()
    if n_rows > max_rows:
        raise ValueError(
            f"brute_force_pairs broadcasts the full corpus to every "
            f"task — {n_rows} rows exceeds max_rows={max_rows}. Use "
            f"dataops.dedup.embedding_dedup_pairs (LSH-bucketed, "
            f"distributed) for large inputs, or pass max_rows= "
            f"explicitly if the quadratic baseline is intended."
        )
    df = ds.to_pandas()  # id + narrow vectors only — the broadcast side
    ids_all = df[id_col].to_numpy()
    mat_all = _normalize(_stack(df[vec_col], np.float64))
    ref = ray.put((ids_all, mat_all))

    def pairs(batch: pa.Table) -> pa.Table:
        ids_a, mat = get_broadcast(ref)
        bmat = _normalize(_arrow_mat(batch.column(vec_col), np.float64))
        bids = batch.column(id_col).to_numpy(zero_copy_only=False)
        sims = bmat @ mat.T  # (batch, all)
        hit_i, hit_j = np.nonzero(sims >= threshold)
        keep = bids[hit_i] < ids_a[hit_j]  # emit each pair once, a < b
        # Arrow out: an empty block keeps the id type
        return pa.table({"a": bids[hit_i[keep]], "b": ids_a[hit_j[keep]]})

    return ds.map_batches(pairs, batch_format="pyarrow")


def fit_centroids(
    ds: Dataset,
    n_centroids: int = 16,
    vec_col: str = "embedding",
    sample_fraction: float = 0.25,
    iterations: int = 8,
    seed: int = 42,
    max_sample_rows: int = 65_536,
) -> np.ndarray:
    """Seeded mini k-means on a sample (driver-side numpy).

    The sample is capped by ROW COUNT, not only a fraction: a
    fraction-sized sample grows with the corpus (0.25 of 100 TB is
    25 TB on the driver), while `limit` stops the sampled stream after
    `max_sample_rows` rows — constant driver memory at any scale, and a
    no-op below the cap (bench/oracle inputs are unchanged)."""
    sample = (
        ds.random_sample(sample_fraction, seed=seed)
        .limit(max_sample_rows)
        .to_pandas()
    )
    mat = _normalize(_stack(sample[vec_col]))
    rng = np.random.default_rng(seed)
    centroids = mat[rng.choice(len(mat), size=min(n_centroids, len(mat)), replace=False)]
    for _ in range(iterations):
        assign = (mat @ centroids.T).argmax(axis=1)
        for c in range(len(centroids)):
            members = mat[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
        centroids = _normalize(centroids)
    return centroids


def ivf_topk(
    ds: Dataset,
    queries: np.ndarray,
    k: int = 10,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    n_centroids: int = 16,
    nprobe: int = 4,
    seed: int = 42,
    dtype=np.float32,
    round_decimals: int | None = None,
) -> pd.DataFrame:
    """Approximate top-k: only rows whose centroid is among the query's
    nprobe closest lists are scored. Same output schema as brute force.
    nprobe=n_centroids degenerates to exact search (the oracle-gated
    configuration); dtype/round_decimals as in brute_force_topk."""
    centroids = fit_centroids(ds, n_centroids, vec_col, seed=seed)
    q = _normalize(np.asarray(queries, dtype=dtype))
    probe_lists = np.argsort(-(q @ centroids.astype(dtype).T), axis=1)[:, :nprobe]
    state_ref = ray.put((q, centroids, probe_lists))

    def partial(batch: pa.Table) -> pd.DataFrame:
        qm, cents, probes = get_broadcast(state_ref)
        mat = _normalize(_arrow_mat(batch.column(vec_col), dtype=dtype))
        assign = (mat @ cents.astype(dtype).T).argmax(axis=1)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        sims = qm @ mat.T
        if round_decimals is not None:
            sims = np.round(sims, round_decimals)
        qis, cols = [], []
        for qi in range(len(qm)):
            mask = np.isin(assign, probes[qi])
            if not mask.any():
                continue
            cand = np.where(mask)[0]
            kk = min(k, len(cand))
            top = cand[np.argpartition(-sims[qi, cand], kth=kk - 1)[:kk]]
            qis.append(np.full(kk, qi, dtype=np.int64))
            cols.append(top)
        if not qis:
            return pd.DataFrame(
                {"query_idx": pd.Series(dtype="int64"),
                 "id": pd.Series(dtype=pd.Series(ids).dtype),
                 "cosine": pd.Series(dtype="float64")}
            )
        # gather the (query, candidate) hits in one fancy-index pass —
        # no per-candidate Python append
        qv = np.concatenate(qis)
        cv = np.concatenate(cols)
        return pd.DataFrame(
            {"query_idx": qv, "id": ids[cv],
             "cosine": sims[qv, cv].astype(np.float64)}
        )

    partials = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    partials = partials.sort_values(
        ["query_idx", "cosine", "id"], ascending=[True, False, True]
    )
    top = partials.groupby("query_idx", as_index=False).head(k).reset_index(drop=True)
    top["rank"] = top.groupby("query_idx").cumcount()
    return top
