"""HyperLogLog cardinality sketch (Flajolet, Fusy, Gandouet, Meunier 2007).

Not present in the reference (required by BASELINE.json north_rule). Uses a
64-bit murmur3 hash (same kernel as the Bloom filters, seed 0), so the
large-range correction of the original 32-bit paper is unnecessary (the
HyperLogLog++ observation, Heule et al. 2013); the small-range linear-counting
correction is kept.

State: ``2^p`` uint8 registers, SPARSE until populated (the HLL++ sparse
idea, simplified): while the number of touched registers stays under
``m/9`` the sketch holds (index, rank) pairs instead of the dense array,
then densifies irreversibly.  This matters at 100 TB for GROUPED builds:
SketchAgg ships one accumulator per (group x block) through the shuffle,
and a tumbling-window HLL(p=12) partial that saw 40 users is ~0.4 KB
sparse vs 4 KB dense — an order of magnitude off the exchange for
windowed/by-key cardinalities, with zero effect on results (update =
elementwise max either way; ``estimate()`` always evaluates over the
materialized registers so dense and sparse builds are bit-identical).
Global single-sketch builds densify on their first real batch and behave
exactly as before.  Update = elementwise max (vectorized
``np.maximum.at``); merge = elementwise max — associative, commutative,
idempotent. Published bound: relative standard error ``~= 1.04 /
sqrt(2^p)``.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .murmur3 import hash_keys
from .sketch import read_meta

# densify when nnz * 9 > m: in-memory sparse costs ~9 B/register touched
# (uint64 idx + uint8 rank) vs m bytes dense
_SPARSE_BYTES = 9


def _alpha(m: int) -> float:
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


class HyperLogLog:
    __slots__ = ("p", "m", "_dense", "_sp_idx", "_sp_rank")

    def __init__(self, p: int = 14):
        if not (4 <= p <= 18):
            raise ValueError("precision p must be in [4, 18]")
        self.p = int(p)
        self.m = 1 << self.p
        self._dense: np.ndarray | None = None
        self._sp_idx = np.empty(0, dtype=np.uint64)
        self._sp_rank = np.empty(0, dtype=np.uint8)

    # -- representation ---------------------------------------------------

    @property
    def registers(self) -> np.ndarray:
        """Dense register view (materialized on demand for sparse sketches;
        reading does not change the representation)."""
        if self._dense is not None:
            return self._dense
        r = np.zeros(self.m, dtype=np.uint8)
        r[self._sp_idx] = self._sp_rank
        return r

    def _densify(self) -> None:
        if self._dense is None:
            r = np.zeros(self.m, dtype=np.uint8)
            r[self._sp_idx] = self._sp_rank
            self._dense = r
            self._sp_idx = np.empty(0, dtype=np.uint64)
            self._sp_rank = np.empty(0, dtype=np.uint8)

    def _sparse_absorb(self, idx: np.ndarray, rank: np.ndarray) -> None:
        """Max-combine (idx, rank) pairs into the sparse store; densify
        past the byte-parity threshold."""
        ai = np.concatenate([self._sp_idx, idx])
        ar = np.concatenate([self._sp_rank, rank])
        order = np.lexsort((ar, ai))  # by idx, rank ascending
        ai, ar = ai[order], ar[order]
        last = np.empty(ai.size, dtype=bool)
        last[-1:] = True
        if ai.size > 1:
            np.not_equal(ai[1:], ai[:-1], out=last[:-1])
        self._sp_idx, self._sp_rank = ai[last], ar[last]
        if self._sp_idx.size * _SPARSE_BYTES > self.m:
            self._densify()

    # -- updates ----------------------------------------------------------

    def update_batch(self, keys) -> None:
        h = hash_keys(keys, (0,))[0]
        if h.size == 0:
            return
        idx = h >> np.uint64(64 - self.p)  # uint64 indexing; int64 cast is slow
        # rank = leading zeros of the remaining 64-p bits + 1
        w = h & ((np.uint64(1) << np.uint64(64 - self.p)) - np.uint64(1))
        rank = np.empty(len(h), dtype=np.uint8)
        nz = w != 0
        # bit_length via log2 is unsafe near 2^53; use successive shifts
        bl = _bit_length_u64(w[nz])
        rank[nz] = (64 - self.p + 1) - bl
        rank[~nz] = 64 - self.p + 1
        if self._dense is None and (
            (self._sp_idx.size + idx.size) * _SPARSE_BYTES <= self.m
        ):
            self._sparse_absorb(idx, rank)
            return
        self._densify()
        np.maximum.at(self._dense, idx, rank)

    def merge(self, other: "HyperLogLog") -> None:
        if self.p != other.p:
            raise ValueError("HLL precision mismatch")
        if other._dense is not None:
            self._densify()
            np.maximum(self._dense, other._dense, out=self._dense)
        elif self._dense is not None:
            if other._sp_idx.size:
                np.maximum.at(self._dense, other._sp_idx, other._sp_rank)
        else:
            self._sparse_absorb(other._sp_idx, other._sp_rank)

    # -- readout ----------------------------------------------------------

    def estimate(self) -> float:
        # always evaluate over materialized registers so sparse- and
        # dense-built sketches agree bit-for-bit (same float sum order)
        regs = self.registers
        m = self.m
        est = _alpha(m) * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
        if est <= 2.5 * m:
            zeros = int(np.count_nonzero(regs == 0))
            if zeros:
                return m * math.log(m / zeros)
        return float(est)

    def result(self) -> float:
        return self.estimate()

    def rel_std_error(self) -> float:
        return 1.04 / math.sqrt(self.m)

    # -- serialization ----------------------------------------------------

    def to_bytes(self) -> bytes:
        if self._dense is not None:
            # the legacy dense format, unchanged (old checkpoints load)
            meta = json.dumps({"kind": "hll", "p": self.p}).encode()
            return len(meta).to_bytes(4, "little") + meta + self._dense.tobytes()
        meta = json.dumps(
            {"kind": "hll", "p": self.p, "mode": "sparse",
             "nnz": int(self._sp_idx.size)}
        ).encode()
        # idx fits int32 for p <= 18; 5 B/entry on the wire
        return (
            len(meta).to_bytes(4, "little")
            + meta
            + self._sp_idx.astype(np.int32).tobytes()
            + self._sp_rank.tobytes()
        )

    def merge_bytes(self, buf: bytes) -> None:
        """Merge a serialized partial via a read-only view (no materialize
        of a second sketch object)."""
        meta, off = read_meta(buf, "hll")
        if meta["p"] != self.p:
            raise ValueError(f"partial spec mismatch: {meta}")
        if meta.get("mode") == "sparse":
            nnz = meta["nnz"]
            idx = np.frombuffer(buf, dtype=np.int32, count=nnz, offset=off)
            rank = np.frombuffer(
                buf, dtype=np.uint8, count=nnz, offset=off + 4 * nnz
            )
            idx64 = idx.astype(np.int64).view(np.uint64)  # non-negative
            if self._dense is not None:
                if nnz:
                    np.maximum.at(self._dense, idx64, rank)
            else:
                self._sparse_absorb(idx64, rank.copy())
            return
        view = np.frombuffer(buf, dtype=np.uint8, offset=off)
        self._densify()
        np.maximum(self._dense, view, out=self._dense)

    @classmethod
    def from_bytes(cls, buf: bytes) -> "HyperLogLog":
        meta, off = read_meta(buf, "hll")
        h = cls(p=meta["p"])
        if meta.get("mode") == "sparse":
            nnz = meta["nnz"]
            idx = np.frombuffer(buf, dtype=np.int32, count=nnz, offset=off)
            h._sp_idx = idx.astype(np.int64).view(np.uint64)
            h._sp_rank = np.frombuffer(
                buf, dtype=np.uint8, count=nnz, offset=off + 4 * nnz
            ).copy()
            return h
        h._dense = np.frombuffer(buf[off:], dtype=np.uint8).copy()
        return h


def _bit_length_u64(x: np.ndarray) -> np.ndarray:
    """Vectorized bit_length for nonzero uint64 values."""
    out = np.zeros(x.shape, dtype=np.uint8)
    x = x.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        s = np.uint64(shift)
        big = x >= (np.uint64(1) << s)
        out[big] += np.uint8(shift)
        x[big] >>= s
    out += (x != 0).astype(np.uint8)
    return out
