"""t-digest quantile sketch (Dunning & Ertl, "Computing Extremely Accurate
Quantiles Using t-Digests", 2019) — the merging-digest variant.

Not present in the reference (required by BASELINE.json north_rule).
State: centroid (mean, weight) arrays + an unmerged value buffer; compression
uses the k1 scale function ``k(q) = (delta / 2π) · asin(2q − 1)``, which
concentrates centroid resolution at the tails — accuracy ∝ q(1−q).
Merge: concatenate centroid lists and recompress — associative/commutative up
to recompression; estimate-level equivalence is property-tested.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .sketch import read_meta

_BUFFER_FACTOR = 5


class TDigest:
    __slots__ = ("delta", "means", "weights", "_buf", "_min", "_max")

    def __init__(self, delta: float = 200.0):
        if delta < 10:
            raise ValueError("compression delta must be >= 10")
        self.delta = float(delta)
        self.means = np.empty(0, dtype=np.float64)
        self.weights = np.empty(0, dtype=np.float64)
        self._buf: list[np.ndarray] = []
        self._min = math.inf
        self._max = -math.inf

    # ---- scale function ----------------------------------------------

    def _k(self, q: np.ndarray) -> np.ndarray:
        return self.delta / (2 * math.pi) * np.arcsin(2 * q - 1)

    def _k_inv(self, k: float) -> float:
        return 0.5 * (math.sin(k * 2 * math.pi / self.delta) + 1.0)

    # ---- updates ------------------------------------------------------

    def update_batch(self, values) -> None:
        v = np.asarray(values, dtype=np.float64)
        v = v[~np.isnan(v)]
        if v.size == 0:
            return
        self._min = min(self._min, float(v.min()))
        self._max = max(self._max, float(v.max()))
        self._buf.append(v)
        if sum(b.size for b in self._buf) > _BUFFER_FACTOR * self.delta:
            self._compress()

    def merge(self, other: "TDigest") -> None:
        if self.delta != other.delta:
            raise ValueError("TDigest compression mismatch")
        other._compress()
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        # fold other's weighted centroids in during compression
        self._compress(extra=(other.means, other.weights))

    def _compress(self, extra=None) -> None:
        parts_m = [self.means]
        parts_w = [self.weights]
        for b in self._buf:
            parts_m.append(b)
            parts_w.append(np.ones(b.size))
        if extra is not None:
            parts_m.append(extra[0])
            parts_w.append(extra[1])
        self._buf = []
        means = np.concatenate(parts_m)
        weights = np.concatenate(parts_w)
        if means.size == 0:
            return
        order = np.argsort(means, kind="mergesort")
        means = means[order]
        weights = weights[order]
        total = weights.sum()

        out_m: list[float] = []
        out_w: list[float] = []
        cur_m = means[0]
        cur_w = weights[0]
        w_done = 0.0
        q_limit = self._k_inv(self._k(np.array([0.0]))[0] + 1.0)
        for i in range(1, means.size):
            w = weights[i]
            if (w_done + cur_w + w) / total <= q_limit:
                cur_m += (means[i] - cur_m) * w / (cur_w + w)
                cur_w += w
            else:
                out_m.append(cur_m)
                out_w.append(cur_w)
                w_done += cur_w
                q_limit = self._k_inv(self._k(np.array([w_done / total]))[0] + 1.0)
                cur_m = means[i]
                cur_w = w
        out_m.append(cur_m)
        out_w.append(cur_w)
        self.means = np.array(out_m)
        self.weights = np.array(out_w)

    # ---- queries ------------------------------------------------------

    def quantile(self, q) -> float | np.ndarray:
        self._compress()
        qs = np.atleast_1d(np.asarray(q, dtype=np.float64))
        n = self.means.size
        if n == 0:
            return np.full(qs.shape, np.nan) if np.ndim(q) else math.nan
        total = self.weights.sum()
        # centroid centers in cumulative-weight space
        cum = np.cumsum(self.weights) - self.weights / 2.0
        targets = qs * total
        res = np.interp(targets, cum, self.means)
        res = np.where(targets <= cum[0], np.interp(
            targets, np.array([0.0, cum[0]]), np.array([self._min, self.means[0]])
        ), res)
        res = np.where(targets >= cum[-1], np.interp(
            targets, np.array([cum[-1], total]), np.array([self.means[-1], self._max])
        ), res)
        return res if np.ndim(q) else float(res[0])

    def cdf(self, x: float) -> float:
        self._compress()
        if self.means.size == 0:
            return math.nan
        total = self.weights.sum()
        cum = np.cumsum(self.weights) - self.weights / 2.0
        return float(np.interp(x, self.means, cum / total, left=0.0, right=1.0))

    def count(self) -> float:
        self._compress()
        return float(self.weights.sum())

    def result(self) -> dict:
        self._compress()
        return {
            "count": self.count(),
            "min": self._min,
            "max": self._max,
            "centroids": self.means.size,
        }

    # ---- serialization ------------------------------------------------

    def to_bytes(self) -> bytes:
        self._compress()
        meta = json.dumps(
            {
                "kind": "tdigest",
                "delta": self.delta,
                "n": int(self.means.size),
                "min": None if math.isinf(self._min) else self._min,
                "max": None if math.isinf(self._max) else self._max,
            }
        ).encode()
        return (
            len(meta).to_bytes(4, "little")
            + meta
            + self.means.tobytes()
            + self.weights.tobytes()
        )

    @classmethod
    def from_bytes(cls, buf: bytes) -> "TDigest":
        meta, off = read_meta(buf, "tdigest")
        td = cls(delta=meta["delta"])
        n = meta["n"]
        td.means = np.frombuffer(buf[off : off + 8 * n], dtype=np.float64).copy()
        off += 8 * n
        td.weights = np.frombuffer(buf[off : off + 8 * n], dtype=np.float64).copy()
        td._min = meta["min"] if meta["min"] is not None else math.inf
        td._max = meta["max"] if meta["max"] is not None else -math.inf
        return td
