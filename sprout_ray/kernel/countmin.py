"""Count-min sketch (Cormode & Muthukrishnan 2005).

Not present in the reference (required by BASELINE.json north_rule).
Geometry from the published bounds: width ``w = ceil(e / eps)``, depth
``d = ceil(ln(1/delta))``; point-query overcount ``<= eps * N`` with
probability ``>= 1 - delta``. Rows use the same seeded-murmur3 kernel as the
Bloom filters (seed schedule ``64 << (i+1)``, mirroring bloom.go:111-114, so
the whole library shares one hash family).

Update: vectorized ``np.add.at`` per row; supports weighted increments.
Merge: elementwise add — associative and commutative. Query: min over rows.
"""

from __future__ import annotations

import math

import numpy as np

from .murmur3 import hash_keys
from .sketch import read_meta, read_sketch, write_sketch


class CountMinSketch:
    __slots__ = ("eps", "delta", "w", "d", "seeds", "table", "total")

    def __init__(self, eps: float = 0.0001, delta: float = 0.01):
        if not (0 < eps < 1) or not (0 < delta < 1):
            raise ValueError("eps and delta must be in (0, 1)")
        self.eps = float(eps)
        self.delta = float(delta)
        self.w = int(math.ceil(math.e / eps))
        self.d = int(math.ceil(math.log(1.0 / delta)))
        self.seeds = [64 << (i + 1) for i in range(self.d)]
        self.table = np.zeros((self.d, self.w), dtype=np.uint64)
        self.total = 0

    def _row_indices(self, h: np.ndarray) -> np.ndarray:
        # h: one key traversal for all d seeded rows (hash_keys under
        # self.seeds), reduced in place; stays uint64 (fancy indexing
        # accepts it; int64 astype is slow on numpy 1.26)
        h %= np.uint64(self.w)
        return h

    def update_batch(self, keys, counts=None) -> None:
        idx = self._row_indices(hash_keys(keys, self.seeds))
        n = idx.shape[1]
        if n == 0:
            return
        if counts is None:
            weights = np.ones(n, dtype=np.uint64)
        else:
            weights = np.asarray(counts, dtype=np.uint64)
        for i in range(self.d):
            np.add.at(self.table[i], idx[i], weights)
        self.total += int(weights.sum())

    def query_batch(self, keys) -> np.ndarray:
        idx = self._row_indices(hash_keys(keys, self.seeds))
        if idx.shape[1] == 0:
            return np.empty(0, dtype=np.uint64)
        est = self.table[0][idx[0]]
        for i in range(1, self.d):
            est = np.minimum(est, self.table[i][idx[i]])
        return est

    def query(self, key) -> int:
        return int(self.query_batch([key])[0])

    def collision_free(self, universe) -> np.ndarray:
        """Per-key exactness certificate over a COMPLETE key universe.

        If ``universe`` contains every distinct key ever fed to
        ``update_batch`` (across all merged partials — the geometry and
        seeds are spec-frozen, so indices agree), then for any key whose
        bucket is unoccupied by every other universe key in at least one
        row, the min-over-rows estimate equals the true count exactly:
        that row's counter only ever received this key's increments.
        Returns one bool per universe key; ``all()`` upgrades the sketch's
        ``<= eps*N`` overcount bound to provable exactness (the degenerate
        regime used by the oracle-checked twin, mirroring Misra-Gries'
        ``err_bound == 0``)."""
        idx = self._row_indices(hash_keys(universe, self.seeds))
        ok = np.zeros(idx.shape[1], dtype=bool)
        if ok.size == 0:
            return ok
        for i in range(self.d):
            _, inv, cnt = np.unique(
                idx[i], return_inverse=True, return_counts=True
            )
            ok |= cnt[inv] == 1
        return ok

    def merge(self, other: "CountMinSketch") -> None:
        if self.w != other.w or self.d != other.d:
            raise ValueError("CountMinSketch geometry mismatch")
        self.table += other.table
        self.total += other.total

    def inner_product(self, other: "CountMinSketch") -> int:
        """Equi-join size estimate (Cormode & Muthukrishnan 2005 §4.2):
        ``min_j sum_i a[j,i] * b[j,i]`` NEVER undercounts the true
        ``sum_k f_a(k) * f_b(k)`` and overshoots by at most
        ``eps * N_a * N_b`` with probability ``1 - delta``. Both sketches
        must share (d, w) — and the seed lanes, which the SketchSpec
        geometry freeze guarantees for same-spec builds."""
        if self.w != other.w or self.d != other.d:
            raise ValueError("CountMinSketch geometry mismatch")
        # object dtype: w * max_count^2 can exceed uint64
        prods = (self.table.astype(object) * other.table.astype(object)).sum(
            axis=1
        )
        return int(min(prods))

    def result(self) -> dict:
        return {"w": self.w, "d": self.d, "total": self.total}

    def to_bytes(self) -> bytes:
        meta = {"kind": "cms", "eps": self.eps, "delta": self.delta,
                "total": self.total}
        return write_sketch(meta, self.table)

    def merge_bytes(self, buf: bytes) -> None:
        """Merge a serialized partial via a read-only view (no materialize)."""
        meta, payload = read_sketch(buf, "cms")
        if meta["eps"] != self.eps or meta["delta"] != self.delta:
            raise ValueError(f"partial spec mismatch: {meta}")
        table = payload.take(np.uint64, self.d * self.w).reshape(self.d, self.w)
        payload.end()
        self.table += table
        self.total += meta["total"]

    @classmethod
    def from_bytes(cls, buf: bytes) -> "CountMinSketch":
        """A fresh sketch of the serialized geometry with the bytes merged
        in: :meth:`merge_bytes` is the one parse."""
        meta, _ = read_meta(buf, "cms")
        c = cls(eps=meta["eps"], delta=meta["delta"])
        c.merge_bytes(buf)
        return c
