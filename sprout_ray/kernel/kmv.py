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

import json

import numpy as np

from .sketch import read_meta

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
        """Length-prefixed framing; keys carry a per-key is-str flag so
        binary keys (legal sketch input) round-trip as bytes instead of
        corrupting through an unconditional decode. Non-str/bytes keys are
        rejected explicitly (``bytes(int)`` would silently zero-fill)."""
        meta = json.dumps({"kind": "kmv", "k": self.k, "v": 2}).encode()
        kbytes, flags = _encode_keys(self.keys)
        lengths = np.array([len(b) for b in kbytes], dtype=np.int32)
        return (
            len(meta).to_bytes(4, "little")
            + meta
            + len(kbytes).to_bytes(4, "little")
            + self.hashes.tobytes()
            + lengths.tobytes()
            + flags.tobytes()
            + b"".join(kbytes)
        )

    @classmethod
    def from_bytes(cls, buf: bytes) -> "KMVSketch":
        meta, off = read_meta(buf, "kmv")
        if meta.get("v") != 2:
            raise ValueError(
                f"unsupported KMV wire format v={meta.get('v', 1)} "
                "(v1 blobs predate per-key is-str flags and would "
                "deserialize misaligned; rebuild the checkpoint)"
            )
        sk = cls(k=meta["k"])
        n = int.from_bytes(buf[off : off + 4], "little")
        off += 4
        sk.hashes = np.frombuffer(buf, dtype=np.uint64, count=n, offset=off).copy()
        off += 8 * n
        lengths = np.frombuffer(buf, dtype=np.int32, count=n, offset=off)
        off += 4 * n
        flags = np.frombuffer(buf, dtype=np.uint8, count=n, offset=off)
        off += n
        keys = []
        for ln, fl in zip(lengths.tolist(), flags.tolist()):
            raw = buf[off : off + ln]
            keys.append(raw.decode() if fl else raw)
            off += ln
        sk.keys = keys
        return sk


def _encode_keys(keys) -> tuple:
    """(bytes list, uint8 is-str flags) for a key sequence; rejects key
    types whose bytes round-trip would be lossy."""
    out, flags = [], np.empty(len(keys), dtype=np.uint8)
    for i, k in enumerate(keys):
        if isinstance(k, str):
            out.append(k.encode())
            flags[i] = 1
        elif isinstance(k, (bytes, bytearray)):
            out.append(bytes(k))
            flags[i] = 0
        else:
            raise TypeError(
                f"sketch keys must be str or bytes, got {type(k).__name__}"
            )
    return out, flags
