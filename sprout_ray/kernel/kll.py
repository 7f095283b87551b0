"""KLL streaming quantile sketch (Karnin, Lang, Liberty 2016).

Not present in the reference (required by BASELINE.json north_rule).
Rank-error flavored: with parameter ``k``, rank error ``eps ~ O(1/k)`` with
constant probability; space ``O((1/eps) * sqrt(log(1/delta)))`` (see
PAPERS.md "KLL±" / "Relative Error Streaming Quantiles").

Level ``h`` stores items with weight ``2^h``; level capacities shrink
geometrically toward the bottom (``c^(H-1-h) * k`` with ``c = 2/3``).
Compaction sorts a full level and promotes every other item (random parity
from a construction-seeded generator — deterministic for a fixed insertion
order) to the level above, discarding the rest.

Merge: concatenate level-wise, then compact — estimates are equivalent within
the published bound (property-tested), though not bitwise identical across
merge orders (inherent to random compaction).
"""

from __future__ import annotations

import math

import numpy as np

from .sketch import read_sketch, write_sketch

_C = 2.0 / 3.0
_MIN_CAP = 8


class KLLSketch:
    __slots__ = ("k", "seed", "levels", "n", "_rng")

    def __init__(self, k: int = 200, seed: int = 0):
        if k < 8:
            raise ValueError("k must be >= 8")
        self.k = int(k)
        self.seed = int(seed)
        self.levels: list[np.ndarray] = [np.empty(0, dtype=np.float64)]
        self.n = 0
        self._rng = np.random.Generator(np.random.PCG64(seed))

    def _cap(self, h: int) -> int:
        height = len(self.levels)
        return max(int(math.ceil(self.k * (_C ** (height - 1 - h)))), _MIN_CAP)

    def update_batch(self, values) -> None:
        v = np.asarray(values, dtype=np.float64)
        v = v[~np.isnan(v)]
        if v.size == 0:
            return
        self.levels[0] = np.concatenate([self.levels[0], v])
        self.n += v.size
        self._compact_all()

    def _compact_all(self) -> None:
        h = 0
        while h < len(self.levels):
            if self.levels[h].size >= max(self._cap(h), 2):
                self._compact(h)
                # capacities depend on height; recheck from the bottom
                h = 0
            else:
                h += 1

    def _compact(self, h: int) -> None:
        lvl = np.sort(self.levels[h])
        offset = int(self._rng.integers(0, 2))
        promoted = lvl[offset::2]
        self.levels[h] = np.empty(0, dtype=np.float64)
        if h + 1 == len(self.levels):
            self.levels.append(np.empty(0, dtype=np.float64))
        self.levels[h + 1] = np.concatenate([self.levels[h + 1], promoted])

    def merge(self, other: "KLLSketch") -> None:
        if self.k != other.k:
            raise ValueError("KLL k mismatch")
        for h, lvl in enumerate(other.levels):
            if h == len(self.levels):
                self.levels.append(np.empty(0, dtype=np.float64))
            self.levels[h] = np.concatenate([self.levels[h], lvl])
        self.n += other.n
        self._compact_all()

    # ---- queries ------------------------------------------------------

    def _weighted_items(self) -> tuple[np.ndarray, np.ndarray]:
        vals = []
        wts = []
        for h, lvl in enumerate(self.levels):
            if lvl.size:
                vals.append(lvl)
                wts.append(np.full(lvl.size, 2.0**h))
        if not vals:
            return np.empty(0), np.empty(0)
        v = np.concatenate(vals)
        w = np.concatenate(wts)
        order = np.argsort(v, kind="mergesort")
        return v[order], w[order]

    def quantile(self, q) -> float | np.ndarray:
        qs = np.atleast_1d(np.asarray(q, dtype=np.float64))
        v, w = self._weighted_items()
        if v.size == 0:
            return np.full(qs.shape, np.nan) if np.ndim(q) else math.nan
        cum = np.cumsum(w)
        total = cum[-1]
        targets = qs * total
        idx = np.searchsorted(cum, targets, side="left")
        idx = np.clip(idx, 0, v.size - 1)
        res = v[idx]
        return res if np.ndim(q) else float(res[0])

    def rank(self, x: float) -> float:
        """Estimated normalized rank of x (fraction of items <= x)."""
        v, w = self._weighted_items()
        if v.size == 0:
            return math.nan
        cum = np.concatenate([[0.0], np.cumsum(w)])
        i = np.searchsorted(v, x, side="right")
        return float(cum[i] / cum[-1])

    def count(self) -> int:
        return self.n

    def result(self) -> dict:
        return {"n": self.n, "levels": len(self.levels), "k": self.k}

    # ---- serialization ------------------------------------------------

    def to_bytes(self) -> bytes:
        meta = {
            "kind": "kll",
            "k": self.k,
            "seed": self.seed,
            "n": self.n,
            "sizes": [int(l.size) for l in self.levels],
        }
        return write_sketch(meta, *self.levels)

    @classmethod
    def from_bytes(cls, buf: bytes) -> "KLLSketch":
        meta, payload = read_sketch(buf, "kll")
        s = cls(k=meta["k"], seed=meta["seed"])
        s.n = meta["n"]
        s.levels = [payload.take(np.float64, size).copy() for size in meta["sizes"]]
        payload.end()
        if not s.levels:
            s.levels = [np.empty(0, dtype=np.float64)]
        return s
