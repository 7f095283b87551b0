"""KMV (bottom-k / k-minimum-values) distinct sketch with key retention.

Not present in the reference (beyond-reference operator): a mergeable
one-pass summary that answers two questions the training-data pipeline
needs at 10^12-row scale —

- **distinct-count estimate**: ``(k-1) / U_(k)`` where ``U_(k)`` is the
  k-th smallest normalized hash (Bar-Yossef et al. 2002; Beyer et al.
  SIGMOD 2007 unbiased estimator), relative error ~ ``1/sqrt(k-2)``;
- **uniform sample OVER DISTINCT keys**: the retained k keys are exactly
  the k minima of a fixed random permutation of the key space (murmur3-64,
  the library-wide hash family, seed schedule as bloom.go:111-114), so
  they are a uniform without-replacement sample of the distinct keys —
  deduplicated sampling for free, deterministic and reproducible.

Merge = union the two minima sets, keep the k smallest — exactly
associative and commutative (the k minima of a union are a function of
the two sets of k minima). Below capacity (fewer than k distinct seen)
the sketch holds EVERY distinct key: the count is exact and the "sample"
is the full distinct set, which makes small-cardinality builds
oracle-checkable against ``SELECT DISTINCT``.

State is two parallel arrays (sorted uint64 hashes + object keys);
update is one vectorized hash pass + ``np.unique`` + a bounded merge.
"""

from __future__ import annotations

import numpy as np

from .sketch import decode_keys, encode_keys, read_keyed_sketch, write_sketch

_TWO64 = float(2**64)


class KMVSketch:
    __slots__ = ("k", "hashes", "keys")

    def __init__(self, k: int = 1024):
        if k < 2:
            raise ValueError("k must be >= 2")
        self.k = int(k)
        self.hashes = np.empty(0, dtype=np.uint64)  # sorted ascending
        self.keys: list = []  # aligned with hashes

    def update_batch(self, values) -> None:
        import pyarrow as pa

        from .murmur3 import canonical_keys, hash_keys

        if not isinstance(values, (pa.Array, pa.ChunkedArray)):
            values = pa.array(values)
        # retain the keys in the form they are hashed (decimal strings for
        # numeric columns, like the build path)
        values = canonical_keys(values)
        if isinstance(values, pa.ChunkedArray):
            values = values.combine_chunks()
        if len(values) == 0:
            return
        h = hash_keys(values, (0,))[0]
        # batch-local minima first: at most k rows survive to the merge
        order = np.argsort(h, kind="stable")
        h = h[order]
        keep = np.ones(len(h), dtype=bool)
        keep[1:] = h[1:] != h[:-1]  # dedupe equal hashes (same key)
        idx = order[keep][: self.k]
        hsel = h[keep][: self.k]
        ksel = values.take(pa.array(idx.view(np.int64))).to_pylist()
        self._absorb(hsel, ksel)

    def _absorb(self, new_h: np.ndarray, new_keys: list) -> None:
        if self.hashes.size:
            # drop incoming hashes already present (set semantics)
            pos = np.searchsorted(self.hashes, new_h)
            pos_c = np.minimum(pos, self.hashes.size - 1)
            fresh = self.hashes[pos_c] != new_h
            new_h, new_keys = new_h[fresh], [k for k, f in zip(new_keys, fresh) if f]
            if new_h.size == 0:
                return
            merged_h = np.concatenate([self.hashes, new_h])
            merged_k = self.keys + list(new_keys)
        else:
            merged_h, merged_k = new_h, list(new_keys)
        order = np.argsort(merged_h, kind="stable")[: self.k]
        self.hashes = merged_h[order]
        self.keys = [merged_k[i] for i in order.tolist()]

    def merge(self, other: "KMVSketch") -> None:
        if self.k != other.k:
            raise ValueError("KMVSketch geometry mismatch")
        self._absorb(other.hashes, other.keys)

    def estimate(self) -> float:
        """Distinct-count estimate (exact while below capacity)."""
        n = self.hashes.size
        if n < self.k:
            return float(n)
        u_k = (float(self.hashes[-1]) + 1.0) / _TWO64
        return (self.k - 1) / u_k

    def sample(self) -> list:
        """Uniform without-replacement sample of the distinct keys."""
        return list(self.keys)

    def is_exact(self) -> bool:
        return self.hashes.size < self.k

    def result(self) -> dict:
        return {
            "k": self.k,
            "estimate": self.estimate(),
            "exact": self.is_exact(),
            "n_retained": int(self.hashes.size),
        }

    def to_bytes(self) -> bytes:
        """A u32 key count, the hashes, then the key section
        (:func:`kernel.sketch.encode_keys`: binary keys round-trip as bytes,
        keys of other types are refused)."""
        lengths, flags, data = encode_keys(self.keys)
        return write_sketch(
            {"kind": "kmv", "k": self.k, "v": 2},
            np.uint32(len(self.keys)),
            self.hashes,
            lengths,
            flags,
            data,
        )

    @classmethod
    def from_bytes(cls, buf: bytes) -> "KMVSketch":
        meta, payload = read_keyed_sketch(buf, "kmv")
        sk = cls(k=meta["k"])
        n = int(payload.take(np.uint32, 1)[0])
        sk.hashes = payload.take(np.uint64, n).copy()
        lengths = payload.take(np.int32, n)
        flags = payload.take(np.uint8, n)
        sk.keys = decode_keys(payload, lengths, flags)
        payload.end()
        return sk
