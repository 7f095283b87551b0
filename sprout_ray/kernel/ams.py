"""AMS F2 / CountSketch — second-frequency-moment (self-join size) sketch.

Not present in the reference (beyond-reference operator): the engine-facing
skew detector. ``F2 = sum over keys of count^2`` is THE statistic that
predicts whether a groupby/join key needs salting (F2 >> n^2/n_distinct
means a few hot keys dominate the shuffle), and it equals the self-join
output size exactly.

Algorithm: the "fast AMS" / CountSketch refinement (Alon-Matias-Szegedy
1996; Charikar-Chen-Farach-Colton 2002; Cormode-Garofalakis 2005): ``d``
independent rows of ``w`` signed counters. Each occurrence of key x adds
``sign_i(x)`` to ``C[i, h_i(x)]``; row i's F2 estimator is
``sum_j C[i,j]^2`` (unbiased, variance <= 2*F2^2/w), and the sketch reports
the MEDIAN over rows — relative error ~ ``sqrt(8/w)`` with failure
probability ``exp(-Omega(d))``. CountSketch also answers point-frequency
queries: ``median_i sign_i(x) * C[i, h_i(x)]``, unbiased with
``|err| <= sqrt(4*F2/w)`` w.h.p. (unlike count-min it can UNDER-estimate).

Bucket and sign for row i derive from one murmur3-64 value (seed schedule
``97 << (i+1)``, same hash family as bloom.go:111-114 but a disjoint seed
lane from bloom/CMS): bucket = low bits via modulo, sign = bit 63 — nearly
independent since ``w << 2^63``. All d rows hash in ONE traversal of the keys
(``hash_keys``, the CMS convention). Merge =
elementwise signed ADD — exactly associative and commutative over int64,
so distributed partials combine losslessly.
"""

from __future__ import annotations

import numpy as np

from .murmur3 import hash_keys
from .sketch import read_meta, read_sketch, write_sketch


class AMSF2Sketch:
    __slots__ = ("w", "d", "seeds", "counters", "n")

    def __init__(self, w: int = 4096, d: int = 5):
        if w < 1 or d < 1:
            raise ValueError("w and d must be >= 1")
        self.w = int(w)
        self.d = int(d)
        self.seeds = [97 << (i + 1) for i in range(self.d)]
        self.counters = np.zeros((self.d, self.w), dtype=np.int64)
        self.n = 0  # total occurrences absorbed

    def _bucket_sign(self, h: np.ndarray):
        # h: (d, n) hash_keys matrix under self.seeds — one key traversal
        # for all d rows; stays uint64 — int64 astype is the slow
        # checked-cast path on numpy 1.26, views are free
        buckets = h % np.uint64(self.w)
        signs = 1 - 2 * (h >> np.uint64(63)).view(np.int64)
        return buckets, signs

    def update_batch(self, keys, counts=None) -> None:
        buckets, signs = self._bucket_sign(hash_keys(keys, self.seeds))
        n = buckets.shape[1]
        if n == 0:
            return
        if counts is None:
            weights = signs
            self.n += n
        else:
            c = np.asarray(counts, dtype=np.int64)
            weights = signs * c
            self.n += int(c.sum())
        for i in range(self.d):
            np.add.at(self.counters[i], buckets[i], weights[i])

    def merge(self, other: "AMSF2Sketch") -> None:
        if self.w != other.w or self.d != other.d:
            raise ValueError("AMSF2Sketch geometry mismatch")
        self.counters += other.counters
        self.n += other.n

    def estimate(self) -> float:
        """F2 (self-join size) estimate: median of per-row sum-of-squares."""
        c = self.counters.astype(np.float64)
        return float(np.median(np.einsum("ij,ij->i", c, c)))

    def point_estimate(self, keys) -> np.ndarray:
        """Signed-median CountSketch frequency estimate per key (float64;
        unbiased, two-sided error sqrt(4*F2/w) w.h.p.)."""
        buckets, signs = self._bucket_sign(hash_keys(keys, self.seeds))
        if buckets.shape[1] == 0:
            return np.empty(0, dtype=np.float64)
        est = np.stack(
            [signs[i] * self.counters[i][buckets[i]] for i in range(self.d)]
        )
        return np.median(est.astype(np.float64), axis=0)

    def result(self) -> dict:
        return {
            "w": self.w,
            "d": self.d,
            "estimate": self.estimate(),
            "n": int(self.n),
        }

    def to_bytes(self) -> bytes:
        meta = {"kind": "ams", "w": self.w, "d": self.d, "n": self.n, "v": 1}
        return write_sketch(meta, self.counters)

    def merge_bytes(self, buf: bytes) -> None:
        """Merge a serialized partial via a read-only view (no materialize)."""
        meta, payload = read_sketch(buf, "ams")
        if meta["w"] != self.w or meta["d"] != self.d:
            raise ValueError(f"partial spec mismatch: {meta}")
        counters = payload.take(np.int64, self.d * self.w).reshape(self.d, self.w)
        payload.end()
        self.counters += counters
        self.n += meta["n"]

    @classmethod
    def from_bytes(cls, buf: bytes) -> "AMSF2Sketch":
        """A fresh sketch of the serialized geometry with the bytes merged
        in: :meth:`merge_bytes` is the one parse."""
        meta, _ = read_meta(buf, "ams")
        sk = cls(w=meta["w"], d=meta["d"])
        sk.merge_bytes(buf)
        return sk
