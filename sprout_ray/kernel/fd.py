"""Frequent Directions — a mergeable low-rank matrix (Gram) sketch.

Not present in the reference (beyond-reference operator, linalg family):
the matrix analogue of Misra-Gries.  A sketch ``B`` of ``l`` rows
summarizes a tall matrix ``A`` (rows = embedding vectors) such that

    0  <=  x^T (A^T A - B^T B) x  <=  delta      for every unit x,

where ``delta`` is the total mass shed by the shrink steps — i.e.
``A^T A - B^T B`` is PSD with spectral norm at most ``delta``, and
``delta <= 2 ||A||_F^2 / l`` (Liberty, KDD 2013; Ghashami-Liberty-
Phillips-Woodruff, SIAM J. Comput. 2016).  Crucially the sketch is
MERGEABLE: stacking two sketches and shrinking once preserves the bound
with ``delta = delta_1 + delta_2 + (new shed)`` (GLPW16 §3), so it
distributes exactly like the library's scalar sketches — per-block
partials, associativity-checked tree merge — and a 10^12-row embedding
table reduces to one ``l x d`` matrix plus one float.

The sketch tracks ``delta`` explicitly (not just the 2||A||_F^2 / l
worst case), so accuracy rides in-band: queries report the certified
interval and tests verify ``lambda_1(A^T A) - lambda_1(B^T B) in
[0, delta]`` against numpy on planted data.

Shrink policy: buffer up to ``2l`` rows, then one SVD of the stacked
``<= 2l x d`` buffer; singular values are deflated by ``s_l^2`` (the
l-th largest squared), keeping < l nonzero rows.  Amortizes the SVD to
O(l d) flops per absorbed row.
"""

from __future__ import annotations

import json

import numpy as np

from .sketch import read_meta


def _rows_matrix(values, dtype=np.float64) -> np.ndarray:
    """Accept a 2D numpy array, a sequence of vectors, or an Arrow
    list<float> / fixed_size_list column; return an (n, d) float matrix."""
    try:
        import pyarrow as pa

        if isinstance(values, pa.ChunkedArray):
            values = values.combine_chunks()
        if isinstance(values, pa.Array):
            n = len(values)
            if n == 0:
                return np.empty((0, 0), dtype=dtype)
            # a ragged list column (or one with null slots, which
            # flatten() silently drops) would mis-associate values across
            # rows whenever the total happens to divide by n — require a
            # rectangular, null-free column loudly instead
            if values.null_count:
                raise ValueError(
                    "_rows_matrix: embedding column has null rows — drop "
                    "or impute before sketching"
                )
            if not pa.types.is_fixed_size_list(values.type):
                lens = np.asarray(values.value_lengths())
                if lens.size and (lens != lens[0]).any():
                    raise ValueError(
                        "_rows_matrix: ragged list column (value lengths "
                        f"{int(lens.min())}..{int(lens.max())}) — embeddings "
                        "must be fixed-dimension"
                    )
            flat = np.asarray(values.flatten(), dtype=dtype)
            if len(flat) % n:
                raise ValueError(
                    "_rows_matrix: flattened length not divisible by rows"
                )
            return flat.reshape(n, len(flat) // n)
    except ImportError:  # pragma: no cover - pyarrow is baked in
        pass
    m = np.asarray(values, dtype=dtype)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    return m


class FrequentDirections:
    """FD sketch: l retained directions over d-dimensional rows."""

    __slots__ = ("l", "d", "rows", "delta", "n_rows", "frob2")

    def __init__(self, l: int = 64, d: int | None = None):
        if l < 2:
            raise ValueError("l must be >= 2")
        self.l = int(l)
        self.d = int(d) if d else None
        # `rows` holds the current sketch rows PLUS unshrunk buffered rows,
        # capped at 2l before a shrink fires.
        self.rows = np.empty((0, 0), dtype=np.float64)
        self.delta = 0.0
        self.n_rows = 0
        self.frob2 = 0.0

    # -- core ---------------------------------------------------------------
    def _ensure_dim(self, d: int) -> None:
        if self.d is None:
            self.d = d
            self.rows = np.empty((0, d), dtype=np.float64)
        elif d != self.d:
            raise ValueError(f"dimension mismatch: sketch d={self.d}, rows d={d}")

    def _shrink(self) -> None:
        """One FD deflation: SVD the stacked rows, subtract s_l^2."""
        if len(self.rows) < self.l:
            return
        # full_matrices=False: Vt is (min(n,d), d)
        _, s, vt = np.linalg.svd(self.rows, full_matrices=False)
        if len(s) < self.l:
            self.rows = s[:, None] * vt
            return
        shed = float(s[self.l - 1] ** 2)
        s2 = np.maximum(s[: self.l - 1] ** 2 - shed, 0.0)
        keep = s2 > 0.0
        self.rows = np.sqrt(s2[keep])[:, None] * vt[: self.l - 1][keep]
        self.delta += shed

    def update_batch(self, values) -> None:
        x = _rows_matrix(values)
        if x.size == 0:
            return
        self._ensure_dim(x.shape[1])
        self.n_rows += len(x)
        self.frob2 += float((x * x).sum())
        start = 0
        while start < len(x):
            room = 2 * self.l - len(self.rows)
            take = x[start : start + max(room, 1)]
            self.rows = np.vstack([self.rows, take]) if len(self.rows) else take.copy()
            start += len(take)
            if len(self.rows) >= 2 * self.l:
                self._shrink()

    def merge(self, other: "FrequentDirections") -> None:
        if other.l != self.l:
            raise ValueError(f"geometry mismatch: l={self.l} vs {other.l}")
        if other.d is None or other.n_rows == 0:
            return
        if self.d is None:
            self._ensure_dim(other.d)
        elif other.d != self.d:
            raise ValueError(f"dimension mismatch: d={self.d} vs {other.d}")
        self.delta += other.delta
        self.n_rows += other.n_rows
        self.frob2 += other.frob2
        self.rows = (
            np.vstack([self.rows, other.rows]) if len(self.rows) else other.rows.copy()
        )
        if len(self.rows) >= self.l:
            self._shrink()

    # -- results ------------------------------------------------------------
    def sketch_matrix(self) -> np.ndarray:
        """The certified sketch B: shrink any buffered tail first so the
        FD guarantee applies to what is returned."""
        if len(self.rows) >= self.l:
            self._shrink()
        return self.rows.copy()

    def gram(self) -> np.ndarray:
        b = self.sketch_matrix()
        if not b.size:
            return np.zeros((self.d or 0, self.d or 0))
        return b.T @ b

    def top_eig(self) -> tuple[float, np.ndarray]:
        b = self.sketch_matrix()
        if not b.size:
            return 0.0, np.zeros(self.d or 0)
        _, s, vt = np.linalg.svd(b, full_matrices=False)
        return float(s[0] ** 2), vt[0]

    def result(self) -> dict:
        return {
            "l": self.l,
            "d": self.d,
            "n_rows": self.n_rows,
            "delta": self.delta,
            "frob2": self.frob2,
            "worst_case_bound": (2.0 * self.frob2 / self.l) if self.l else 0.0,
        }

    # -- serialization ------------------------------------------------------
    def to_bytes(self) -> bytes:
        b = np.ascontiguousarray(self.rows, dtype=np.float64)
        meta = json.dumps(
            {
                "kind": "fd",
                "l": self.l,
                "d": self.d,
                "shape": list(b.shape),
                "delta": self.delta,
                "n_rows": self.n_rows,
                "frob2": self.frob2,
            }
        ).encode()
        return len(meta).to_bytes(4, "little") + meta + b.tobytes()

    @classmethod
    def from_bytes(cls, buf: bytes) -> "FrequentDirections":
        meta, off = read_meta(buf, "fd")
        sk = cls(l=meta["l"], d=meta["d"])
        shape = tuple(meta["shape"])
        sk.rows = (
            np.frombuffer(buf[off:], dtype=np.float64).reshape(shape).copy()
            if shape[0] * (shape[1] if len(shape) > 1 else 0)
            else np.empty(shape, dtype=np.float64)
        )
        sk.delta = meta["delta"]
        sk.n_rows = meta["n_rows"]
        sk.frob2 = meta["frob2"]
        return sk
