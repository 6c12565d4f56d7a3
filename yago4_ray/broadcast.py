"""Zero-copy broadcast lookup index.

A plain `ray.put(dict)` broadcast must be *unpickled by every worker
process* — at 32 workers × a ~15 MB URI map + ~50 MB of instance sets
that deserialization storm dominates small-task pipelines and gets
WORSE with more CPUs (measured: the combined build write went 34 s @ 8
CPUs → 89 s @ 32 CPUs on 2.2 M statements).

`HashIndex` serializes as numpy arrays + Arrow arrays, which Ray ships
through the object store with zero-copy buffers: `ray.get` in a worker
costs ~nothing regardless of size, and lookups are vectorized
(`np.searchsorted` over ascending 64-bit key hashes). One class serves
every broadcast state question: no value column is a set, one is a
str → str map, two are a str → (str, str) map.

Duplicate keys: the first occurrence in input order wins, on every
construction. Duplicates are told apart from distinct keys sharing a
hash by comparing keys only inside runs of equal hashes; such a
key-vs-key collision (never observed) makes the index answer from an
exact dict instead. A probe-vs-key collision — a probe that is not a
key but whose hash equals a key's — is exact only when keys are kept:

| construction | key-vs-key collision | probe-vs-key collision | call sites |
|---|---|---|---|
| `HashIndex(keys, *values)` | exact dict | rejected: every hash hit is verified by string equality | `yago_classes`, maxCount offenders, minhash endpoints, the linker |
| `HashIndex(keys, *values, keep_keys=False)` | exact dict | answered as that key, probability ≈ n/2**64 per probe over n keys | the URI map, clean-value maps, shape instances |
| `HashIndex.from_hashes(hashes)` | raises `ValueError` | answered as that key, as above | the best-rank set (its caller rebuilds from the statement strings) |

The hash-only forms keep no keys because those never reach the packing
task, or would double an instance-scale object; a one-in-10^12
spurious hit is benign at their call sites.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def _hash_series(values) -> np.ndarray:
    """Vectorized 64-bit string hashing (pandas siphash — C kernel,
    process-independent). A per-string Python blake2b loop here cost
    seconds per million keys at construction AND per-batch lookup.

    categorize=False is load-bearing: the default factorize path runs
    object strings through a C-string hash table where an embedded NUL
    terminates the key, so '\\x00' and '' COLLAPSE — a probe could hash
    differently alone vs inside a batch (hypothesis found it; pinned in
    test_hash_index_matches_dict). The non-categorized kernel hashes the
    full byte payload, produces the IDENTICAL hash values for NUL-free
    strings, and is ~6× faster on mostly-distinct key arrays
    (2.05 → 0.33 s / 2 M unique IRIs) — factorize only pays off on heavy
    repeats, which key/probe arrays are not."""
    if isinstance(values, (pa.Array, pa.ChunkedArray)):
        values = values.to_pandas()
    if not isinstance(values, pd.Series) or values.dtype != object:
        values = pd.Series(values, dtype=object)
    return pd.util.hash_pandas_object(
        values, index=False, categorize=False
    ).to_numpy()


def _column(values) -> pa.Array:
    if isinstance(values, pa.ChunkedArray):
        return values.combine_chunks()
    if isinstance(values, pa.Array):
        return values
    if isinstance(values, pd.Series):
        values = values.to_numpy()
    return pa.array(values, from_pandas=True)


def _uint64(hashes) -> np.ndarray:
    if isinstance(hashes, (pa.Array, pa.ChunkedArray)):
        hashes = hashes.to_numpy()
    return np.asarray(hashes, dtype=np.uint64)


class HashIndex:
    """Broadcastable lookup over string keys: `hashes` ascending, the
    `values` columns (and `keys`, when kept) in the same order."""

    def __init__(
        self, keys, *values, hashes=None, presorted=False, keep_keys=True
    ):
        """`hashes` are `_hash_series(keys)` computed where the keys were
        read; `presorted` promises them ascending (checked, and sorted
        when the promise does not hold)."""
        if not isinstance(keys, (pa.Array, pa.ChunkedArray, pd.Series)):
            keys = list(keys)
        h = _hash_series(keys) if hashes is None else _uint64(hashes)
        keys = _column(keys)
        values = [_column(v) for v in values]
        rows = None  # input row of each stored row; None: the same row
        if not (presorted and (h[1:] >= h[:-1]).all()):
            rows = np.argsort(h, kind="stable")
            h = h[rows]

        def at(i):
            return pa.array(i if rows is None else rows[i])

        self._exact = None
        run = np.flatnonzero(h[1:] == h[:-1]) + 1  # rows repeating a hash
        if len(run):
            same = pc.equal(keys.take(at(run)), keys.take(at(run - 1)))
            if pc.fill_null(same, False).to_numpy(zero_copy_only=False).all():
                keep = np.ones(len(h), dtype=bool)  # duplicates: first wins
                keep[run] = False
                h = h[keep]
                rows = np.flatnonzero(keep) if rows is None else rows[keep]
            else:  # distinct keys share a hash: exact dict, first wins
                ordered = keys if rows is None else keys.take(pa.array(rows))
                self._exact = {}
                for row, key in enumerate(ordered.to_pylist()):
                    self._exact.setdefault(key, row)
        if rows is not None:
            take = pa.array(rows)
            values = [v.take(take) for v in values]
            keys = keys.take(take) if keep_keys else keys
        self.hashes = h
        self.keys = keys if keep_keys else None
        self.values = values

    @classmethod
    def from_hashes(cls, hashes) -> "HashIndex":
        """Membership over hashes computed where the keys live (the keys
        never reach this process). Without keys a duplicate cannot be
        told from a collision, so two equal hashes raise ValueError."""
        self = cls.__new__(cls)
        self.hashes = np.sort(_uint64(hashes))
        if (self.hashes[1:] == self.hashes[:-1]).any():
            raise ValueError("64-bit hash collision in a hash-only index")
        self.keys, self.values, self._exact = None, [], None
        return self

    def __len__(self):
        return len(self.hashes if self._exact is None else self._exact)

    def _probe(self, probe) -> tuple[np.ndarray, np.ndarray]:
        """(stored row, hit) per probe key; the row is 0 on a miss."""
        if self._exact is not None:
            arrow = isinstance(probe, (pa.Array, pa.ChunkedArray))
            ks = probe.to_pylist() if arrow else probe
            rows = np.fromiter(
                (self._exact.get(k, -1) for k in ks), np.int64, len(probe)
            )
            return np.maximum(rows, 0), rows >= 0
        if len(self.hashes) == 0:
            return np.zeros(len(probe), np.int64), np.zeros(len(probe), bool)
        h = _hash_series(probe)
        rows = np.minimum(np.searchsorted(self.hashes, h), len(self.hashes) - 1)
        hit = self.hashes[rows] == h
        if self.keys is not None and hit.any():
            eq = pc.equal(self.keys.take(pa.array(rows)), _column(probe))
            hit &= pc.fill_null(eq, False).to_numpy(zero_copy_only=False)
        return rows, hit

    def contains(self, probe) -> np.ndarray:
        return self._probe(probe)[1]

    def lookup(self, probe):
        """Value columns aligned to `probe` (a Series or an Arrow array),
        missing keys None: index-aligned Series for a Series, Arrow
        arrays for an Arrow array; one column bare, two as a tuple."""
        rows, hit = self._probe(probe)
        rows, mask = pa.array(rows), pa.array(hit)
        cols = []
        for v in self.values:
            col = (
                pc.if_else(mask, v.take(rows), pa.scalar(None, v.type))
                if hit.any()  # an empty index has no row to take
                else pa.nulls(len(probe), v.type)
            )
            if isinstance(probe, pd.Series):
                col = col.to_pandas()
                col.index = probe.index
            cols.append(col)
        return cols[0] if len(cols) == 1 else tuple(cols)

    def get(self, key: str):
        """The key's value (a tuple of two), None when absent."""
        rows, hit = self._probe(pd.Series([key], dtype=object))
        if not hit[0]:
            return None
        row = tuple(v[int(rows[0])].as_py() for v in self.values)
        return row[0] if len(row) == 1 else row
