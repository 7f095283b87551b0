"""Misra-Gries / SpaceSaving heavy-hitters summary (mergeable).

Not present in the reference (beyond-reference operator, same role as the
CMS at /root/reference parity level but self-candidating): the count-min
sketch answers "how often did THIS key occur" but cannot enumerate the
heavy hitters without an external candidate set (see
pipelines/analytics.cms_heavy_hitters, which feeds it exact candidates).
The Misra-Gries summary (Misra & Gries 1982) finds the candidates itself
in one pass with ``m`` counters, and is mergeable with additive error
(Agarwal, Cormode, Huang, Phillips, Wei, Yi — "Mergeable Summaries",
PODS 2012): merging two summaries and re-pruning to ``m`` counters keeps
the deterministic bound

    c(k) <= true(k) <= c(k) + err_bound,  err_bound <= N / (m + 1)

where ``err_bound`` is the exact accumulated decrement (tracked, not just
bounded), so results carry per-run tight intervals. Every key with true
frequency > N/(m+1) is guaranteed present.

Update is batch-vectorized: ``np.unique(return_counts=True)`` collapses the
batch to exact distinct counts first (one dict op per DISTINCT key per
batch, never per row), then a single prune finds the (m+1)-th largest
counter with ``np.partition`` and subtracts it everywhere.
"""

from __future__ import annotations

import numpy as np

from .sketch import decode_keys, encode_keys, read_keyed_sketch, write_sketch


class MisraGries:
    __slots__ = ("m", "counts", "total", "err_bound")

    def __init__(self, m: int = 256):
        if m < 1:
            raise ValueError("m must be >= 1")
        self.m = int(m)
        self.counts: dict = {}
        self.total = 0
        self.err_bound = 0

    @staticmethod
    def _as_keys(values) -> np.ndarray:
        """Arrow array / numpy / sequence -> object ndarray of str keys."""
        try:
            import pyarrow as pa

            if isinstance(values, (pa.Array, pa.ChunkedArray)):
                return np.asarray(values.to_numpy(zero_copy_only=False), dtype=object)
        except ImportError:  # pragma: no cover
            pass
        return np.asarray(values, dtype=object)

    def update_batch(self, values, counts=None) -> None:
        keys = self._as_keys(values)
        if keys.size == 0:
            return
        if counts is None:
            uniq, cnt = np.unique(keys, return_counts=True)
        else:
            # pre-weighted input: aggregate duplicate keys first
            w = np.asarray(counts, dtype=np.int64)
            uniq, inv = np.unique(keys, return_inverse=True)
            cnt = np.zeros(len(uniq), dtype=np.int64)
            np.add.at(cnt, inv, w)
        get = self.counts.get
        for k, c in zip(uniq.tolist(), cnt.tolist()):
            self.counts[k] = get(k, 0) + c
        self.total += int(cnt.sum())
        self._prune()

    def _prune(self) -> None:
        n = len(self.counts)
        if n <= self.m:
            return
        vals = np.fromiter(self.counts.values(), dtype=np.int64, count=n)
        # (m+1)-th largest = ascending-order index n-m-1
        d = int(np.partition(vals, n - self.m - 1)[n - self.m - 1])
        self.err_bound += d
        self.counts = {k: c - d for k, c in self.counts.items() if c > d}

    def merge(self, other: "MisraGries") -> None:
        if self.m != other.m:
            raise ValueError("MisraGries geometry mismatch")
        get = self.counts.get
        for k, c in other.counts.items():
            self.counts[k] = get(k, 0) + c
        self.total += other.total
        self.err_bound += other.err_bound
        self._prune()

    def query(self, key) -> tuple:
        """(lower, upper) bound on the true count of ``key``."""
        c = self.counts.get(key, 0)
        return c, c + self.err_bound

    def topk(self, k: int = 10) -> list:
        """[(key, count_lower, count_upper)] sorted by count desc, key asc."""
        items = sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
        return [(key, c, c + self.err_bound) for key, c in items]

    def result(self) -> dict:
        return {
            "m": self.m,
            "total": self.total,
            "err_bound": self.err_bound,
            "n_tracked": len(self.counts),
        }

    def to_bytes(self) -> bytes:
        """A u32 key count, the counts, then the key section
        (:func:`kernel.sketch.encode_keys`: binary keys round-trip as bytes,
        keys of other types are refused)."""
        lengths, flags, data = encode_keys(list(self.counts))
        cnts = np.fromiter(self.counts.values(), dtype=np.int64, count=len(self.counts))
        return write_sketch(
            {
                "kind": "mg",
                "m": self.m,
                "total": self.total,
                "err_bound": self.err_bound,
                "v": 2,
            },
            np.uint32(len(self.counts)),
            lengths,
            cnts,
            flags,
            data,
        )

    @classmethod
    def from_bytes(cls, buf: bytes) -> "MisraGries":
        meta, payload = read_keyed_sketch(buf, "mg")
        sk = cls(m=meta["m"])
        sk.total = meta["total"]
        sk.err_bound = meta["err_bound"]
        n = int(payload.take(np.uint32, 1)[0])
        lengths = payload.take(np.int32, n)
        cnts = payload.take(np.int64, n)
        flags = payload.take(np.uint8, n)
        keys = decode_keys(payload, lengths, flags)
        payload.end()
        sk.counts = dict(zip(keys, cnts.tolist()))
        return sk
