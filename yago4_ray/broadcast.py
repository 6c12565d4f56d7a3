"""Zero-copy broadcast lookup structures.

A plain `ray.put(dict)` broadcast must be *unpickled by every worker
process* — at 32 workers × a ~15 MB URI map + ~50 MB of instance sets
that deserialization storm dominates small-task pipelines and gets
WORSE with more CPUs (measured: the combined build write went 34 s @ 8
CPUs → 89 s @ 32 CPUs on 2.2 M statements).

These structures serialize as numpy arrays + Arrow string arrays,
which Ray ships through the object store with zero-copy buffers:
`ray.get` in a worker costs ~nothing regardless of size, and lookups
are vectorized (`np.searchsorted` over sorted 64-bit key hashes).

Collision safety: keys are hashed to 64 bits; construction verifies
hash uniqueness and falls back to carrying the key strings for exact
lookup when a key-vs-key collision exists. PROBE-vs-key collisions
differ by structure:
- `HashedSet` built from strings keeps its keys in hash order (Arrow
  arrays — zero-copy to ship) and verifies every hash hit with an exact
  equality compare, so a non-member probe that collides with a member
  hash is never silently accepted.
- `HashedSet.from_prehashed` (the keys deliberately never transit the
  driver), `HashedMap` and `HashedMultiMap` keep no keys: `contains`,
  `lookup` and `get` compare hashes only, so a non-member probe whose
  hash equals a member's is answered as that member, with probability
  ≈ n/2**64 per probe over n keys. Their call sites (best-rank and
  shape-instance membership, URI and clean-value lookups, where a
  one-in-10^12 spurious hit is benign) accept that bound.
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
    differently alone vs inside a batch (hypothesis found it:
    test_prehashed_set_matches_string_set). The non-categorized kernel
    hashes the full byte payload, produces the IDENTICAL hash values
    for NUL-free strings, and is ~6× faster on mostly-distinct key
    arrays (2.05 → 0.33 s / 2 M unique IRIs) — factorize only pays off
    on heavy repeats, which key/probe arrays are not."""
    if not isinstance(values, pd.Series):
        values = pd.Series(values, dtype=object)
    return pd.util.hash_pandas_object(
        values, index=False, categorize=False
    ).to_numpy()


def _hash64(value: str) -> int:
    return int(_hash_series([value])[0])


def _n_distinct(values) -> int:
    """Distinct-key count with exact BYTE semantics (Arrow
    count_distinct). pandas nunique hashes object strings as
    C strings, so keys differing only by an embedded NUL collapse
    (pd.Series(['', '\\x00']).nunique() == 1) — exactly the class
    `_hash_series` also collides on, which made such collisions
    undetectable and the hash index silently wrong for NUL-bearing
    keys. Counting distinct in Arrow restores detection, flipping
    construction to the exact fallback."""
    arr = (
        values
        if isinstance(values, (pa.Array, pa.ChunkedArray))
        else pa.array(
            values.to_numpy() if isinstance(values, pd.Series) else values,
            from_pandas=True,
        )
    )
    return pc.count_distinct(arr).as_py()


class HashedSet:
    """Broadcastable membership set over canonical term strings.

    Keys are kept (hash-ordered, Arrow) so `contains` verifies every
    hash hit with an exact equality compare — a probe NOT in the set
    whose 64-bit hash collides with a member is rejected, not silently
    kept (the probe-vs-key gap a bare hash index has; `from_prehashed`
    is the documented probabilistic exception)."""

    def __init__(self, values):
        series = (
            values
            if isinstance(values, pd.Series)
            else pd.Series(list(values), dtype=object)
        )
        if len(series):
            h = _hash_series(series)
            order = np.argsort(h, kind="stable")
            hs = h[order]
            # uniqueness of hashes over distinct keys (_n_distinct is
            # Arrow's C count — no Python set materialization, and
            # exact byte semantics where pandas nunique is not)
            self._collision_free = len(np.unique(hs)) == _n_distinct(series)
            if self._collision_free:
                keep = np.ones(len(hs), dtype=bool)
                keep[1:] = hs[1:] != hs[:-1]
                self.hashes = hs[keep]
                self._keys = pa.array(
                    series.to_numpy()[order][keep], from_pandas=True
                )
            else:  # distinct keys share a hash: exact frozenset path
                self.hashes = np.unique(hs)
                self._keys = None
        else:
            self.hashes = np.empty(0, np.uint64)
            self._collision_free = True
            self._keys = None
        self._fallback = None if self._collision_free else frozenset(series)

    @classmethod
    def from_prehashed(cls, hashes: np.ndarray, n_distinct_keys: int):
        """Build from `_hash_series` values computed IN the scan tasks
        (the 100 TB form: the driver collects 8-byte hashes, never the
        key strings). Caller supplies the distinct-key count for the
        key-vs-key collision check and falls back to the string
        constructor on the (never-observed) collision. Because the key
        strings never exist on the driver there is nothing to verify
        probe hits against: membership from this form is PROBABILISTIC
        — false-positive probability ≈ n/2**64 per probe — and its call
        sites (best-rank / shape-instance membership) accept that a
        one-in-10^12 spurious keep is benign."""
        self = cls.__new__(cls)
        uniq = np.unique(np.asarray(hashes, dtype=np.uint64))
        if len(uniq) != n_distinct_keys:
            raise ValueError("64-bit hash collision in prehashed set")
        self.hashes = uniq
        self._collision_free = True
        self._keys = None
        self._fallback = None
        return self

    def __len__(self):
        return len(self.hashes)

    def contains(self, series: pd.Series) -> np.ndarray:
        if self._fallback is not None:
            return series.isin(self._fallback).to_numpy()
        if len(self.hashes) == 0 or len(series) == 0:
            return np.zeros(len(series), dtype=bool)
        probe = np.asarray(
            series.to_numpy() if isinstance(series, pd.Series) else series
        )
        h = _hash_series(probe)
        idx = np.searchsorted(self.hashes, h)
        idx = np.minimum(idx, len(self.hashes) - 1)
        hit = self.hashes[idx] == h
        if self._keys is not None and hit.any():
            # exact verify of hash hits against the stored key (keys are
            # in the SAME hash order as self.hashes, so a direct take
            # fetches each probe's matched key) — closes the
            # probe-vs-key collision gap
            matched = self._keys.take(pa.array(idx, type=pa.int64()))
            eq = pc.equal(matched, pa.array(probe, from_pandas=True))
            hit &= pc.fill_null(eq, False).to_numpy(zero_copy_only=False)
        return hit


class HashedMap:
    """Broadcastable str→str mapping (URI maps, clean-value maps)."""

    def __init__(self, mapping: dict[str, str]):
        keys = list(mapping.keys())
        values = [mapping[k] for k in keys]
        if keys:
            hashes = _hash_series(keys)
            order = np.argsort(hashes, kind="stable")
            self.key_hashes = hashes[order]
            self.values = pa.array(
                [values[i] for i in order], type=pa.large_string()
            )
            self._collision_free = len(np.unique(self.key_hashes)) == len(keys)
        else:
            self.key_hashes = np.empty(0, np.uint64)
            self.values = pa.array([], type=pa.large_string())
            self._collision_free = True
        self._fallback = None if self._collision_free else dict(mapping)

    @classmethod
    def from_arrow(cls, keys, values, hashes=None, presorted=False):
        """Build directly from Arrow string arrays (the driver URI-merge
        output): values never transit Python objects — they are taken
        into hash order in C++. With `hashes` (the _hash_series values
        computed IN the candidate-scan tasks and carried through the
        merge; requires distinct keys, which the merge guarantees), the
        keys never transit Python either and construction is pure
        numpy/Arrow (~0.7 s at 2.4 M pairs vs ~7 s for the
        to_pylist → dict → rehash round trip). On the (never-observed)
        64-bit collision the key strings are pulled once for the exact
        dict fallback — never silently wrong."""
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        if isinstance(values, pa.ChunkedArray):
            values = values.combine_chunks()
        self = cls.__new__(cls)
        if len(keys) == 0:
            self.key_hashes = np.empty(0, np.uint64)
            self.values = pa.array([], type=pa.large_string())
            self._collision_free = True
            self._fallback = None
            return self
        if hashes is not None:
            if isinstance(hashes, pa.ChunkedArray):
                hashes = hashes.combine_chunks()
            h = hashes.to_numpy().astype(np.uint64, copy=False)
            n_distinct = len(keys)
            if presorted:
                # caller promises `hashes` ascending (e.g. hash-range
                # shards concatenated in range order): skip the argsort
                # + string gather. The check is STRICTLY ascending —
                # one linear compare verifies sortedness AND
                # collision-freeness; an unsorted or colliding array
                # flips to the exact dict fallback (correct either way,
                # never silently wrong)
                self.key_hashes = h
                self.values = values.cast(pa.large_string())
                self._collision_free = bool(
                    len(h) < 2 or (h[1:] > h[:-1]).all()
                )
                self._fallback = (
                    None
                    if self._collision_free
                    else dict(zip(keys.to_pylist(), values.to_pylist()))
                )
                return self
        else:
            key_s = keys.to_pandas()
            h = _hash_series(key_s)
            n_distinct = _n_distinct(keys)
        order = np.argsort(h, kind="stable")
        self.key_hashes = h[order]
        self.values = values.cast(pa.large_string()).take(
            pa.array(order, type=pa.int64())
        )
        self._collision_free = (
            len(np.unique(self.key_hashes)) == n_distinct
        )
        self._fallback = (
            None
            if self._collision_free
            else dict(zip(keys.to_pylist(), values.to_pylist()))
        )
        return self

    def __len__(self):
        return len(self.key_hashes)

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def __getitem__(self, key: str) -> str:
        value = self.get(key)
        if value is None:
            raise KeyError(key)
        return value

    def lookup(self, series: pd.Series) -> pd.Series:
        """Mapped values aligned to `series`; None where missing."""
        if self._fallback is not None:
            out = series.map(self._fallback)
            # Series.map yields NaN (not None) for misses; normalize so
            # the collision-fallback path keeps the same `is not None`
            # contract as the hash path (values are strings, never NaN)
            return out.where(out.notna(), None)
        n = len(series)
        if n == 0 or len(self.key_hashes) == 0:
            return pd.Series([None] * n, index=series.index, dtype=object)
        h = _hash_series(series.to_numpy())
        idx = np.searchsorted(self.key_hashes, h)
        idx_c = np.minimum(idx, len(self.key_hashes) - 1)
        hit = self.key_hashes[idx_c] == h
        taken = self.values.take(pa.array(idx_c, type=pa.int64())).to_pandas()
        out = taken.where(pd.Series(hit, index=taken.index), None)
        out.index = series.index
        return out

    def get(self, key: str):
        if self._fallback is not None:
            return self._fallback.get(key)
        h = np.uint64(_hash64(key))
        idx = int(np.searchsorted(self.key_hashes, h))
        if idx < len(self.key_hashes) and self.key_hashes[idx] == h:
            return self.values[idx].as_py()
        return None


class HashedMultiMap:
    """Broadcastable str→tuple[str, str] map (clean maps carry
    (object, extras_json)); stored as two aligned Arrow arrays."""

    def __init__(self, mapping: dict[str, tuple[str, str]]):
        keys = list(mapping.keys())
        if keys:
            hashes = _hash_series(keys)
            order = np.argsort(hashes, kind="stable")
            self.key_hashes = hashes[order]
            self.objects = pa.array(
                [mapping[keys[i]][0] for i in order], type=pa.large_string()
            )
            self.extras = pa.array(
                [mapping[keys[i]][1] for i in order], type=pa.large_string()
            )
            self._collision_free = len(np.unique(self.key_hashes)) == len(keys)
        else:
            self.key_hashes = np.empty(0, np.uint64)
            self.objects = pa.array([], type=pa.large_string())
            self.extras = pa.array([], type=pa.large_string())
            self._collision_free = True
        self._fallback = None if self._collision_free else dict(mapping)

    @classmethod
    def from_arrow(cls, keys, objects, extras, hashes=None):
        """Build from Arrow string arrays; with `hashes` (worker-computed
        _hash_series values; keys must be distinct, which the one-row-
        per-(family, value_node) groupby guarantees) no key/value string
        ever materializes as a Python object on the happy path."""
        arrs = []
        for a in (keys, objects, extras, hashes):
            if isinstance(a, pa.ChunkedArray):
                a = a.combine_chunks()
            arrs.append(a)
        keys, objects, extras, hashes = arrs
        self = cls.__new__(cls)
        if len(keys) == 0:
            self.key_hashes = np.empty(0, np.uint64)
            self.objects = pa.array([], type=pa.large_string())
            self.extras = pa.array([], type=pa.large_string())
            self._collision_free = True
            self._fallback = None
            return self
        if hashes is not None:
            h = hashes.to_numpy().astype(np.uint64, copy=False)
            n_distinct = len(keys)
        else:
            key_s = keys.to_pandas()
            h = _hash_series(key_s)
            n_distinct = _n_distinct(keys)
        order = pa.array(np.argsort(h, kind="stable"), type=pa.int64())
        self.key_hashes = np.sort(h, kind="stable")
        self.objects = objects.cast(pa.large_string()).take(order)
        self.extras = extras.cast(pa.large_string()).take(order)
        self._collision_free = (
            len(np.unique(self.key_hashes)) == n_distinct
        )
        self._fallback = (
            None
            if self._collision_free
            else dict(
                zip(
                    keys.to_pylist(),
                    zip(objects.to_pylist(), extras.to_pylist()),
                )
            )
        )
        return self

    def __len__(self):
        return len(self.key_hashes)

    def get(self, key: str):
        if self._fallback is not None:
            return self._fallback.get(key)
        h = np.uint64(_hash64(key))
        idx = int(np.searchsorted(self.key_hashes, h))
        if idx < len(self.key_hashes) and self.key_hashes[idx] == h:
            return (self.objects[idx].as_py(), self.extras[idx].as_py())
        return None

    def lookup(self, series: pd.Series) -> tuple[pd.Series, pd.Series]:
        """(objects, extras) aligned to `series`; None where missing."""
        n = len(series)
        if self._fallback is not None:
            hits = series.map(self._fallback)
            objs = hits.map(lambda v: v[0] if isinstance(v, tuple) else None)
            extras = hits.map(lambda v: v[1] if isinstance(v, tuple) else None)
            return objs, extras
        if n == 0 or len(self.key_hashes) == 0:
            empty = pd.Series([None] * n, index=series.index, dtype=object)
            return empty, empty.copy()
        h = _hash_series(series.to_numpy())
        idx = np.searchsorted(self.key_hashes, h)
        idx_c = np.minimum(idx, len(self.key_hashes) - 1)
        hit = pd.Series(self.key_hashes[idx_c] == h)
        take = pa.array(idx_c, type=pa.int64())
        objs = self.objects.take(take).to_pandas().where(hit, None)
        extras = self.extras.take(take).to_pandas().where(hit, None)
        objs.index = series.index
        extras.index = series.index
        return objs, extras
