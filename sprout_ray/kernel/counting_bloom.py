"""Counting Bloom filter — the bloom family member that supports DELETE.

Extends the reference's fixed-size BloomFilter (bloom.go:88-161 geometry,
reused verbatim via :func:`derive_params` and the same murmur3 seed
schedule / partitioned slot layout as kernel/bloom.py) with per-slot
COUNTERS instead of bits (Fan et al., "Summary Cache", ToN 2000).  A key
is present iff all k of its slots are nonzero; deleting decrements the
same slots, so membership reflects the current multiset — the one
operation a plain Bloom filter structurally cannot do (clearing a bit
would create false negatives for colliding keys).

Distributed-merge semantics: updates are +1 (add) / -1 (remove) per
slot and the counters are SIGNED int32, so partials may hold transient
negatives (a partition that processes deletes for keys added in another
partition) and the merged filter is still exact — integer addition is
order-free.  ``contains`` is only meaningful on the fully merged filter;
``validate()`` loudly reports negative slots there, which certify a
delete of a never-added key (delete-side must be a sub-multiset of the
add-side, the classic CBF contract).

Memory: 32x a plain Bloom of the same geometry (int32 per slot vs one
bit).  Use it only when deletion is required; size via the same
err/capacity math.  No false negatives for the surviving multiset; the
false-positive rate matches the underlying Bloom at equal geometry.
"""

from __future__ import annotations

import numpy as np

from .bloom import BloomCapacityError, derive_params
from .murmur3 import hash_keys
from .sketch import read_sketch, write_sketch


class CountingBloomFilter:
    __slots__ = (
        "err_rate", "capacity", "k", "m", "slots", "seeds",
        "counts", "n_added", "n_removed",
    )

    def __init__(self, err_rate: float = 0.001, capacity: int = 10_000):
        k, m_bits, m, seeds = derive_params(err_rate, capacity)
        self.err_rate = err_rate
        self.capacity = capacity
        self.k = k
        self.m = m
        self.slots = m * k
        self.seeds = seeds
        self.counts = np.zeros(self.slots, dtype=np.int32)
        self.n_added = 0
        self.n_removed = 0

    # ---- probe layout (identical to kernel/bloom.py) --------------------
    def _probe_indices(self, h: np.ndarray) -> np.ndarray:
        """(k, B) slot indices, in place over a (k, B) hash_keys matrix."""
        h %= np.uint64(self.m)
        h += (np.uint64(self.m) * np.arange(self.k, dtype=np.uint64))[:, None]
        return h

    # ---- core ops --------------------------------------------------------
    def add_batch(self, keys) -> None:
        h = hash_keys(keys, self.seeds)
        n = h.shape[1]
        if n == 0:
            return
        if self.n_added - self.n_removed + n > self.capacity:
            raise BloomCapacityError(
                f"CountingBloomFilter would exceed capacity {self.capacity}"
            )
        idx = self._probe_indices(h).ravel()
        np.add.at(self.counts, idx, np.int32(1))
        self.n_added += n

    def remove_batch(self, keys) -> None:
        """Decrement the keys' slots. Legal only for keys currently in the
        multiset (checked on the merged filter via validate())."""
        h = hash_keys(keys, self.seeds)
        if h.shape[1] == 0:
            return
        np.subtract.at(self.counts, self._probe_indices(h).ravel(), np.int32(1))
        self.n_removed += h.shape[1]

    def add(self, key) -> None:
        self.add_batch([key])

    def remove(self, key) -> None:
        self.remove_batch([key])

    def contains_batch(self, keys) -> np.ndarray:
        """True = maybe present in the current multiset; never a false
        negative for keys whose adds/removes are all merged in."""
        idx = self._probe_indices(hash_keys(keys, self.seeds))
        return (self.counts[idx] > 0).all(axis=0)

    def contains(self, key) -> bool:
        return bool(self.contains_batch([key])[0])

    def validate(self) -> None:
        """On a fully merged filter: negative slots certify that some
        delete had no matching add (contract violation) — fail loudly."""
        neg = int((self.counts < 0).sum())
        if neg:
            raise ValueError(
                f"counting bloom: {neg} negative slots after merge — a "
                "removed key was never added (delete-side must be a "
                "sub-multiset of the add-side)"
            )

    # ---- merge / protocol --------------------------------------------------
    def merge(self, other: "CountingBloomFilter") -> None:
        if (self.k, self.m, self.capacity) != (other.k, other.m, other.capacity):
            raise ValueError("counting bloom merge: geometry mismatch")
        self.counts += other.counts
        self.n_added += other.n_added
        self.n_removed += other.n_removed

    def update_batch(self, values) -> None:  # Sketch-protocol alias
        self.add_batch(values)

    @property
    def count(self) -> int:
        return self.n_added - self.n_removed

    def result(self) -> dict:
        return {
            "capacity": self.capacity,
            "count": self.count,
            "k": self.k,
            "m": self.m,
            "slots": self.slots,
            "nonzero": int((self.counts != 0).sum()),
            "max_counter": int(self.counts.max(initial=0)),
        }

    def to_bytes(self) -> bytes:
        nz = np.flatnonzero(self.counts)
        sparse = nz.size * 12 < self.slots * 4
        meta = {
            "kind": "cbf",
            "err_rate": self.err_rate,
            "capacity": self.capacity,
            "n_added": self.n_added,
            "n_removed": self.n_removed,
            "sparse": bool(sparse),
        }
        if sparse:
            return write_sketch(meta, nz.astype(np.int64), self.counts[nz])
        return write_sketch(meta, self.counts)

    @classmethod
    def from_bytes(cls, buf: bytes) -> "CountingBloomFilter":
        meta, payload = read_sketch(buf, "cbf")
        sk = cls(err_rate=meta["err_rate"], capacity=meta["capacity"])
        sk.n_added = meta["n_added"]
        sk.n_removed = meta["n_removed"]
        if not meta["sparse"]:
            sk.counts = payload.take(np.int32, sk.slots).copy()
            payload.end()
            return sk
        # the sparse dump carries no entry count: n int64 slots, then their
        # n int32 counts, held to the invariant every add/remove keeps —
        # the counts sum to k * (n_added - n_removed)
        entries = payload.take(np.uint8)
        n, ragged = divmod(entries.size, 12)
        if ragged:
            raise payload.error(f"{entries.size} bytes are not whole entries")
        idx, vals = entries[: 8 * n].view(np.int64), entries[8 * n :].view(np.int32)
        if int(vals.sum(dtype=np.int64)) != sk.k * sk.count or (
            n and not (idx.min() >= 0 and idx.max() < sk.slots)
        ):
            raise payload.error("its entries disagree with n_added - n_removed")
        sk.counts[idx] = vals
        return sk
