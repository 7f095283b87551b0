"""Scalable Bloom filter (Almeida et al. 2007) with the reference's growth rules.

Reimplements ``/root/reference/scalable_bloom.go`` semantics on top of
:class:`sprout_ray.kernel.bloom.BloomFilter`:

- tightening ratio ``r = 0.9`` (scalable_bloom.go:65);
- growth rate ``s ∈ {2 (small), 4 (large)}``, default 2 (scalable_bloom.go:30-37, 52-54);
- stage error ``err_i = err0 * r^i`` (scalable_bloom.go:161);
- stage capacity ``cap_i = int(m0 * s^(i-1) * ln 2)`` where ``m0`` is the
  first stage's bits-per-slice (scalable_bloom.go:174-178);
- ``add`` grows when the top filter is at capacity, then inserts into the top
  only — never errors (scalable_bloom.go:81-100);
- ``contains`` ORs probes across all stages, each with its own (k_i, m_i)
  layout (scalable_bloom.go:110-135);
- compound FPR bound ``prob = 1 - Π(1 - err0·r^i)`` (scalable_bloom.go:213-219);
- stats/capacity/count sum across stages (scalable_bloom.go:180-231).

The reference packs all stages into one mmap file at page offsets
(scalable_bloom.go:97,130); here each stage owns an independent numpy array —
same probe semantics, no packing.

**Merge (not in the reference — scalable_bloom.go has no Merge):** because
the stage schedule ``(err_i, cap_i)`` is a deterministic function of
``(err0, cap0, growth_rate)`` and the stage index alone, two partials built
with the same spec have bitwise-identical geometry at every level. Merge
therefore aligns stage lists by level, bit-ORs level-wise, adds counts, and
appends the longer tail. This is commutative and associative by construction
(bitwise OR and + are), which the property tests assert.
"""

from __future__ import annotations

import math

import numpy as np

from .bloom import BloomFilter, BloomMergeError, BloomStats
from .murmur3 import hash_keys
from .sketch import read_sketch, write_sketch

GROWTH_SMALL = 2
GROWTH_LARGE = 4
TIGHTENING_RATIO = 0.9


class ScalableBloomFilter:
    __slots__ = ("err_rate", "initial_capacity", "growth_rate", "ratio", "m0", "filters")

    def __init__(
        self,
        err_rate: float = 0.001,
        initial_capacity: int = 10_000,
        growth_rate: int = GROWTH_SMALL,
    ):
        if not (0.0 < err_rate < 1.0):
            raise ValueError("Error rate must be between 0 and 1")
        if initial_capacity <= 0:
            raise ValueError("Initial capacity must be greater than 0")
        if growth_rate not in (GROWTH_SMALL, GROWTH_LARGE):
            raise ValueError("growth rate must be 2 or 4")
        self.err_rate = float(err_rate)
        self.initial_capacity = int(initial_capacity)
        self.growth_rate = int(growth_rate)
        self.ratio = TIGHTENING_RATIO
        first = BloomFilter(err_rate=err_rate, capacity=initial_capacity)
        self.m0 = first.m
        self.filters: list[BloomFilter] = [first]

    # ---- growth (scalable_bloom.go:153-178) ---------------------------

    def _stage_params(self, i: int) -> tuple[float, int]:
        """(err_i, cap_i) for stage i >= 1; stage 0 is (err0, cap0)."""
        err = self.err_rate * (self.ratio**i)
        cap = int(self.m0 * (self.growth_rate ** (i - 1)) * math.log(2))
        return err, cap

    def _grow(self) -> None:
        i = len(self.filters)
        err, cap = self._stage_params(i)
        self.filters.append(BloomFilter(err_rate=err, capacity=max(cap, 11)))

    @property
    def top(self) -> BloomFilter:
        return self.filters[-1]

    # ---- core ops -----------------------------------------------------

    def add_batch(self, keys) -> None:
        """Vectorized add: fill the top stage to capacity, grow, repeat.

        The stages to fill are planned first, then the keys hash ONCE under
        the widest (top) stage's seeds: stage errors only tighten, so k
        never shrinks, and every stage's seed schedule ``64 << (i+1)`` is a
        prefix of the top's — stage j reads the first k_j rows."""
        plan, pos, n = [], 0, len(keys)
        room = self.top.capacity - self.top.count
        while pos < n:
            if room <= 0:
                self._grow()
                room = self.top.capacity
                continue
            take = min(room, n - pos)
            plan.append((self.top, pos, take))
            room -= take
            pos += take
        if not plan:
            return
        h = hash_keys(keys, self.top.seeds)
        for f, pos, take in plan:
            f._set_bits(h[:, pos : pos + take])
            f.count += take

    def add(self, key) -> None:
        self.add_batch([key])

    def contains_batch(self, keys) -> np.ndarray:
        # one hash pass under the widest stage's seeds (see add_batch)
        h = hash_keys(keys, self.top.seeds)
        res = np.zeros(h.shape[1], dtype=bool)
        for f in self.filters:
            pending = ~res
            if not pending.any():
                break
            res[pending] = f._contains_hashes(h[: f.k, pending])
        return res

    def contains(self, key) -> bool:
        return bool(self.contains_batch([key])[0])

    # Sketch-protocol alias (see sprout_ray.kernel.sketch)
    def update_batch(self, values) -> None:
        self.add_batch(values)

    def result(self) -> dict:
        return self.stats().as_dict()

    def merge(self, other: "ScalableBloomFilter") -> None:
        """Level-aligned bit-OR merge (design note in module docstring)."""
        if (
            self.err_rate != other.err_rate
            or self.initial_capacity != other.initial_capacity
            or self.growth_rate != other.growth_rate
        ):
            raise BloomMergeError(
                "ScalableBloomFilter specs do not match: "
                f"({self.err_rate},{self.initial_capacity},{self.growth_rate}) vs "
                f"({other.err_rate},{other.initial_capacity},{other.growth_rate})"
            )
        for i, of in enumerate(other.filters):
            if i < len(self.filters):
                self.filters[i].merge(of)
            else:
                clone = BloomFilter(err_rate=of.err_rate, capacity=of.capacity)
                clone.bits = of.bits.copy()
                clone.count = of.count
                self.filters.append(clone)

    def clear(self) -> None:
        first = BloomFilter(err_rate=self.err_rate, capacity=self.initial_capacity)
        self.filters = [first]

    # ---- introspection ------------------------------------------------

    def capacity(self) -> int:
        return sum(f.capacity for f in self.filters)

    def count(self) -> int:
        return sum(f.count for f in self.filters)

    def filter_size(self) -> int:
        return self.top.bit_width

    def prob(self) -> float:
        """Compound FPR bound 1 - Π(1 - err0·r^i) (scalable_bloom.go:213-219)."""
        prod = 1.0
        for i in range(len(self.filters)):
            prod *= 1.0 - self.err_rate * (self.ratio**i)
        return 1.0 - prod

    def stats(self) -> BloomStats:
        return BloomStats(
            capacity=self.capacity(),
            count=self.count(),
            size=self.filter_size(),
            m=self.top.m,
            k=self.top.k,
            prob=self.prob(),
        )

    # ---- serialization ------------------------------------------------

    def to_bytes(self) -> bytes:
        meta = {
            "kind": "sbf",
            "err_rate": self.err_rate,
            "initial_capacity": self.initial_capacity,
            "growth_rate": self.growth_rate,
            "counts": [f.count for f in self.filters],
            "stage_widths": [f.bit_width for f in self.filters],
        }
        return write_sketch(meta, *(f.bits for f in self.filters))

    @classmethod
    def from_bytes(cls, buf: bytes) -> "ScalableBloomFilter":
        meta, payload = read_sketch(buf, "sbf")
        sbf = cls(
            err_rate=meta["err_rate"],
            initial_capacity=meta["initial_capacity"],
            growth_rate=meta["growth_rate"],
        )
        while len(sbf.filters) < len(meta["counts"]):
            sbf._grow()
        for f, cnt, width in zip(sbf.filters, meta["counts"], meta["stage_widths"]):
            if f.bit_width != width:
                raise payload.error(f"stage width {width}, expected {f.bit_width}")
            f.bits = payload.take(np.uint8, width).copy()
            f.count = cnt
        payload.end()
        return sbf
