"""Partitioned Bloom filter with the reference's exact geometry and semantics.

Reimplements, from scratch on numpy, the semantics of the reference's
``BloomFilter`` (``/root/reference/bloom.go``):

- parameter derivation (bloom.go:100-125):
    ``k = ceil(log2(1/err))``; ``M_bits = int(n * |ln err| / ln2^2)``;
    ``m = M_bits // k`` bits per slice; seeds ``64 << (i+1)``;
    byte width ``M_bits // 8 + 8`` (the reference's byteSize is the pointer
    size 8, accidentally equal to bits-per-byte).
- partitioned probes (bloom.go:297-307): hash function *i* owns the disjoint
  slice ``[i*m, (i+1)*m)``; probe index ``i*m + murmur3_64(key, seed_i) % m``.
- MSB-first bit addressing (bloom.go:283-294): byte ``idx // 8``, mask
  ``128 >> (idx % 8)``.
- ``Add`` errors once ``count >= capacity`` (bloom.go:170-172); ``Contains``
  has no false negatives; ``Merge`` requires identical ``(k, bit_width)``
  and bit-ORs (bloom.go:241-260); ``Clear`` zeroes bits and count
  (bloom.go:364-373); ``Stats`` mirrors bloom.go:375-396.

Unlike the reference (mmap + fslock single-writer), state is a plain numpy
``uint8`` array — Ray owns distribution; persistence goes through
:mod:`sprout_ray.state.checkpoint`, which (deliberately better than the
reference, see bloom.go:130-160 which never restores ``count``) round-trips
the full metadata including ``count``.

All per-batch operations are vectorized: one ``hash_keys`` traversal of the
keys under all k seeds, then a single ``np.bitwise_or.at`` scatter / gather.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .murmur3 import hash_keys
from .sketch import read_meta, read_sketch, write_sketch


class BloomCapacityError(RuntimeError):
    """Raised when adding to a fixed filter that reached full capacity."""


class BloomMergeError(ValueError):
    """Raised when merging filters with mismatched geometry."""


def derive_params(err_rate: float, capacity: int) -> tuple[int, int, int, list[int]]:
    """(k, M_bits, m, seeds) exactly as the reference derives them.

    bloom.go:100 (k), bloom.go:106 (M), bloom.go:109 (m), bloom.go:111-114
    (seed schedule ``64 << (i+1)``).
    """
    if not (0.0 < err_rate < 1.0):
        raise ValueError("Error rate must be between 0 and 1")
    k = int(math.ceil(math.log2(1.0 / err_rate)))
    ln22 = math.log(2) ** 2
    m_bits = int(capacity * abs(math.log(err_rate)) / ln22)
    m = m_bits // k
    seeds = [64 << (i + 1) for i in range(k)]
    return k, m_bits, m, seeds


@dataclass(frozen=True)
class BloomStats:
    """Mirror of the reference's BloomFilterStats (bloom.go:375-384)."""

    capacity: int
    count: int
    size: int
    m: int
    k: int
    prob: float

    def as_dict(self) -> dict:
        return {
            "capacity": self.capacity,
            "count": self.count,
            "size": self.size,
            "m": self.m,
            "k": self.k,
            "prob": self.prob,
        }


# MSB-first bit masks, indexed by (bit_index & 7)
_MASK_LUT = (np.uint8(128) >> np.arange(8, dtype=np.uint8)).copy()


def _u32_to_u64(idx: np.ndarray) -> np.ndarray:
    """uint32 -> uint64 widening without numpy 1.26's checked-cast path."""
    out = np.zeros(idx.size, dtype=np.uint64)
    out.view(np.uint32)[::2] = idx  # little-endian low words
    return out


class BloomFilter:
    """Fixed-capacity partitioned Bloom filter over byte keys.

    The dense bit array is LAZY: adds accumulate raw probe indices in
    ``_pending`` until something needs the dense form (a probe, a merge
    into a dense side, export, or a serialization whose index payload
    would outweigh the bitmap). A per-block partial of a big filter (e.g.
    64 blocks of a 19M-capacity build: ~2.5M set bits of ~276M) therefore
    never allocates its ~34 MB array at all — load-bearing on hosts where
    allocations past the 32 MiB glibc mmap-threshold cap churn the kernel
    (see BASELINE.md "Host-ceiling analysis"), and it makes partial
    serialization a raw index dump instead of zero+scatter+compress."""

    __slots__ = (
        "err_rate", "capacity", "k", "m", "bit_width", "seeds", "count",
        "_bits", "_pending", "_pending_n",
    )

    def __init__(self, err_rate: float = 0.001, capacity: int = 10_000):
        if capacity <= 10:
            raise ValueError("Capacity must be greater than 10")
        self.err_rate = float(err_rate)
        self.capacity = int(capacity)
        self.k, m_bits, self.m, self.seeds = derive_params(err_rate, capacity)
        # bloom.go:124-125: bits -> bytes with 8 bytes of slack
        self.bit_width = m_bits // 8 + 8
        self._bits = None  # dense array, created on first need
        self._pending: list = []  # uint64 probe-index arrays awaiting scatter
        self._pending_n = 0
        self.count = 0

    # ---- lazy dense bits ----------------------------------------------

    @property
    def bits(self) -> np.ndarray:
        """Dense packed bit array (densifies pending indices on access)."""
        self._densify()
        return self._bits

    @bits.setter
    def bits(self, arr: np.ndarray) -> None:
        self._bits = arr
        self._pending = []
        self._pending_n = 0

    def _densify(self) -> None:
        if self._bits is None:
            self._bits = np.zeros(self.bit_width, dtype=np.uint8)
        if self._pending:
            idx = np.concatenate(self._pending)
            byte_idx, masks = self._bit_addr(idx)
            np.bitwise_or.at(self._bits, byte_idx, masks)
            self._pending = []
            self._pending_n = 0

    def is_sparse(self) -> bool:
        return self._bits is None

    # ---- probe layout -------------------------------------------------

    def _probe_indices(self, h: np.ndarray) -> np.ndarray:
        """(k, B) uint64 bit indices; slice i owns [i*m, (i+1)*m).

        ``h`` is a ``hash_keys`` matrix under (a schedule starting with)
        this filter's seeds; its first k rows are turned into the indices
        IN PLACE."""
        h = h[: self.k]
        h %= np.uint64(self.m)
        h += (np.uint64(self.m) * np.arange(self.k, dtype=np.uint64))[:, None]
        return h

    @staticmethod
    def _bit_addr(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """MSB-first byte/mask addressing (bloom.go:283-294).

        byte index stays uint64 (fancy indexing accepts it; the int64 astype
        would cost ~1us/element on numpy 1.26's checked-cast path — the mask
        comes from a LUT gather for the same reason)."""
        byte_idx = idx >> np.uint64(3)
        masks = _MASK_LUT[idx & np.uint64(7)]
        return byte_idx, masks

    # ---- core ops -----------------------------------------------------

    def _set_bits(self, h: np.ndarray) -> None:
        idx = self._probe_indices(h)
        if self._bits is None:
            flat = idx.ravel()
            self._pending.append(flat)
            self._pending_n += flat.size
            # past the break-even point the bitmap is the smaller state
            if self._pending_n * 8 > self.bit_width * 2:
                self._densify()
            return
        byte_idx, masks = self._bit_addr(idx)
        np.bitwise_or.at(self._bits, byte_idx.ravel(), masks.ravel())

    def add_batch(self, keys) -> None:
        """Add keys; mirrors per-row Add semantics: once count reaches
        capacity, remaining keys raise BloomCapacityError (bloom.go:170-172).
        Keys up to the boundary ARE added before the error is raised."""
        h = hash_keys(keys, self.seeds)
        n = h.shape[1]
        room = self.capacity - self.count
        if room <= 0 and n > 0:
            raise BloomCapacityError(
                f"BloomFilter has reached full capacity {self.capacity}"
            )
        take = min(n, room)
        self._set_bits(h[:, :take])
        self.count += take
        if take < n:
            raise BloomCapacityError(
                f"BloomFilter has reached full capacity {self.capacity}"
            )

    def add(self, key) -> None:
        self.add_batch([key])

    def contains_batch(self, keys) -> np.ndarray:
        """Boolean array: True = maybe present (never a false negative)."""
        return self._contains_hashes(hash_keys(keys, self.seeds))

    def _contains_hashes(self, h: np.ndarray) -> np.ndarray:
        byte_idx, masks = self._bit_addr(self._probe_indices(h))
        return ((self.bits[byte_idx] & masks) != 0).all(axis=0)

    def contains(self, key) -> bool:
        return bool(self.contains_batch([key])[0])

    # Sketch-protocol alias (see sprout_ray.kernel.sketch)
    def update_batch(self, values) -> None:
        self.add_batch(values)

    def result(self) -> dict:
        return self.stats().as_dict()

    def merge(self, other: "BloomFilter") -> None:
        """Bit-OR union; geometry must match (bloom.go:241-260).

        Counts add (the reference keeps the left count; adding is strictly
        more useful for distributed partial merging and is documented as a
        deliberate deviation — the union contains count_a + count_b adds)."""
        if self.k != other.k:
            raise BloomMergeError("BloomFilter k values do not match")
        if self.bit_width != other.bit_width:
            raise BloomMergeError("BloomFilter bit_width values do not match")
        if self._bits is None and other._bits is None:
            self._pending.extend(other._pending)
            self._pending_n += other._pending_n
            if self._pending_n * 8 > self.bit_width * 2:
                self._densify()
        else:
            np.bitwise_or(self.bits, other.bits, out=self.bits)
        self.count += other.count

    def clear(self) -> None:
        if self._bits is not None:
            self._bits[:] = 0
        self._pending = []
        self._pending_n = 0
        self.count = 0

    # ---- introspection ------------------------------------------------

    def filter_size(self) -> int:
        return self.bit_width

    def stats(self) -> BloomStats:
        return BloomStats(
            capacity=self.capacity,
            count=self.count,
            size=self.bit_width,
            m=self.m,
            k=self.k,
            prob=self.err_rate,
        )

    def set_bit_count(self) -> int:
        """Number of set bits across the k slices (popcount of the usable
        bit space; the slack bytes past ``k*m`` can never be set)."""
        if self._bits is None and not self._pending:
            return 0
        return int(np.unpackbits(self.bits).sum())

    def approx_cardinality(self) -> float:
        """Distinct-element estimate from the fill ratio (Swamidass & Baldi
        2007, adapted to the partitioned layout): each element sets exactly
        one bit per m-bit slice, so with T total set bits across k slices
        the per-slice MLE is ``n = ln(1 - T/(k*m)) / ln(1 - 1/m)`` using the
        pooled fill. This is what turns a membership filter into an
        analytic sketch: cardinalities of unions (bit-OR of two filters)
        and, by inclusion-exclusion, intersections — without ever
        shuffling raw keys. A saturated filter (every usable bit set)
        has no finite MLE; returns ``inf`` there."""
        t = self.set_bit_count()
        total = self.m * self.k
        if t == 0:
            return 0.0
        if t >= total:
            return float("inf")
        # log1p for accuracy at low fill; both logs are negative
        return math.log1p(-t / total) / math.log1p(-1.0 / self.m)

    # ---- serialization ------------------------------------------------

    def to_bytes(self) -> bytes:
        """Dense bitmap, or — while sparse and smaller — the raw probe-index
        dump (``fmt="sparse"``; uint32 when the bit space fits, else uint64).
        Per-block partials of big filters ship this way: no zeroing, no
        scatter, no compression of a mostly-empty bitmap."""
        meta = {
            "kind": "bloom",
            "err_rate": self.err_rate,
            "capacity": self.capacity,
            "count": self.count,
        }
        use_u4 = self.m * self.k <= 0xFFFFFFFF
        itemsize = 4 if use_u4 else 8
        if self._bits is None and self._pending_n * itemsize < self.bit_width:
            idx = (
                np.concatenate(self._pending)
                if self._pending
                else np.empty(0, dtype=np.uint64)
            )
            if use_u4:
                idx = idx.astype(np.uint32)
            meta.update(fmt="sparse", dtype="u4" if use_u4 else "u8")
            return write_sketch(meta, idx)
        return write_sketch(meta, self.bits)

    @classmethod
    def from_bytes(cls, buf: bytes) -> "BloomFilter":
        """A fresh filter of the serialized geometry with the bytes merged
        in: :meth:`merge_bytes` is the one parse."""
        meta, _ = read_meta(buf, "bloom")
        bf = cls(err_rate=meta["err_rate"], capacity=meta["capacity"])
        bf.merge_bytes(buf)
        return bf

    def merge_bytes(self, buf: bytes) -> None:
        """Merge a serialized partial WITHOUT materializing it: a dense
        partial ORs straight from a read-only buffer view; a sparse partial
        (its ``count * k`` probe indices) scatters its index dump (a 34 MB
        filter otherwise costs a zero alloc + a copy per partial in the
        reduce fan-in)."""
        meta, payload = read_sketch(buf, "bloom")
        if (
            meta["err_rate"] != self.err_rate or meta["capacity"] != self.capacity
        ):
            raise BloomMergeError(f"partial spec mismatch: {meta}")
        sparse = meta.get("fmt") == "sparse"
        if sparse:
            u4 = meta.get("dtype", "u4") == "u4"
            n_idx = meta["count"] * self.k
            part = payload.take(np.uint32 if u4 else np.uint64, n_idx)
        else:
            part = payload.take(np.uint8, self.bit_width)
        payload.end()
        if not sparse:
            np.bitwise_or(self.bits, part, out=self.bits)
        elif part.size:
            flat = _u32_to_u64(part) if u4 else part.copy()
            if self._bits is None:
                self._pending.append(flat)
                self._pending_n += flat.size
                if self._pending_n * 8 > self.bit_width * 2:
                    self._densify()
            else:
                byte_idx, masks = self._bit_addr(flat)
                np.bitwise_or.at(self._bits, byte_idx, masks)
        self.count += meta["count"]

