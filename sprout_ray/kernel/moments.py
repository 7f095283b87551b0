"""Exact integer moments sketch (n, Σc, Σc², Σc³, Σc⁴, min, max).

Not present in the reference (beyond-reference operator): the smallest
useful mergeable summary — every statistic a profiler wants per key
(mean / variance / skewness / kurtosis / range) derives from five power
sums plus min/max, and power sums add, so the merge is EXACTLY
associative and commutative with zero approximation error.  That makes
this the one sketch in the library whose grouped distributed build is
oracle-exact against plain SQL at ANY scale, not just in degenerate
geometry — the sums are integers and integer addition has no order
dependence.

Exactness discipline
--------------------
Values are integers in a caller-chosen unit (cents, bytes, ...) with
``|c| <= 2³¹ − 1`` (loudly guarded — callers with wider ranges pass a
coarser unit).  ``c²`` then fits int64 exactly (≤ 2⁶²); ``c³`` and
``c⁴`` do NOT, so they are never materialized per element.  Instead
``c²`` is split at bit 32 into ``h2·2³² + l2`` and the higher powers
are built as int64-safe partial products::

    c³ = (c·h2)·2³² + c·l2                 (|c·l2| < 2⁶³)
    c⁴ = h2²·2⁶⁴ + (2·h2·l2)·2³² + l2²     (l2² exact in uint64)

Each partial-product column is summed via a further hi/lo bit-32 split
(vectorized, no Python per row), so every int64 intermediate stays
exact for any batch under 2³¹ rows; the reconstructed power sums are
Python ints (unbounded).  The distributed grouped build
(pipelines/analytics.moments_by_type) carries the same partial
products through one Arrow group_by per block, then ships per-group
3-limb base-2³² columns ``a2·2⁶⁴ + a1·2³² + a0`` through the Ray
shuffle — exact while ``Σ|c|⁴ < 2¹²⁷``, which its finisher certifies
post-hoc from the exact ``n``/``min``/``max`` (``n·max(|c|)⁴ < 2¹²⁷``:
~10¹⁴ rows of $10k-magnitude cents, ~10⁹ rows at $1M; only sub-8-row
groups may reach the absolute per-element max — raise loudly beyond,
never silently wrap).

Derived statistics (mean, population variance, skewness, excess
kurtosis) are computed from the exact integer sums with float64
expression trees mirrored op-for-op by the SQL oracle twin, so the
doubles agree bit-for-bit (int→nearest-double conversion and IEEE
+,-,*,/,sqrt are deterministic).
"""

from __future__ import annotations

import json

import numpy as np

from .sketch import read_meta

# |c| <= MAXC keeps c**2 (and every partial product below) int64-exact.
MAXC = 2**31 - 1
_MASK32 = np.int64(0xFFFFFFFF)
_MASK32U = np.uint64(0xFFFFFFFF)


def _check_range(c: np.ndarray) -> None:
    if not c.size:
        return
    # peak via Python-int min/max, NOT np.abs: np.abs(INT64_MIN) wraps
    # negative and fails open (round-5 review finding)
    peak = max(-int(c.min()), int(c.max()))
    if peak > MAXC:
        raise ValueError(
            f"moments sketch: |value| exceeds {MAXC} integer units "
            f"(got {peak}); c**2 would overflow int64 per "
            "element — rescale to a coarser unit before sketching"
        )


def power_parts(c: np.ndarray) -> dict[str, np.ndarray]:
    """Int64-exact partial-product columns for c², c³, c⁴ (|c| ≤ 2³¹−1).

    Returns vectors with ``c² = h2·2³² + l2``,
    ``c³ = p3h·2³² + p3l`` and ``c⁴ = q2·2⁶⁴ + q1·2³² + q0h·2³² + q0l``
    — every column's magnitude < 2⁶³ per element, most < 2³², so
    downstream hi/lo-split sums stay exact for any group under 2³¹
    rows.  uint64 squaring of l2 uses ``.view`` (never ``astype``; see
    CLAUDE.md's checked-cast note)."""
    c2 = c * c  # <= 2^62, exact
    h2 = c2 >> np.int64(32)  # [0, 2^30)
    l2 = c2 & _MASK32  # [0, 2^32)
    l2u = l2.view(np.uint64)
    q0 = l2u * l2u  # l2^2 < 2^64, exact in uint64
    return {
        "h2": h2,
        "l2": l2,
        "p3h": c * h2,  # |.| <= 2^61
        "p3l": c * l2,  # |.| < 2^63
        "q2": h2 * h2,  # <= 2^60
        "q1": (h2 * l2) << np.int64(1),  # 2*h2*l2 < 2^63
        "q0h": (q0 >> np.uint64(32)).view(np.int64),  # < 2^32
        "q0l": (q0 & _MASK32U).view(np.int64),  # < 2^32
    }


def certify_total_range(n: int, mn: int, mx: int) -> None:
    """Post-hoc certificate that 3-limb int64 sums could not have wrapped.

    ``Σ|c|⁴ ≤ n·max(|mn|,|mx|)⁴`` exactly (n/min/max ride the shuffle as
    plain exact aggregates), so if that Python-int bound is < 2¹²⁷ no
    limb column overflowed anywhere in the plan."""
    peak = max(abs(int(mn)), abs(int(mx)))
    if int(n) * peak**4 >= 2**127:
        raise ValueError(
            "moments: n*max(|c|)^4 exceeds the 3-limb 2^127 range; "
            "rescale to a coarser unit"
        )


def _hilo_sum(e: np.ndarray) -> int:
    """Exact Python-int sum of an int64 array via hi/lo bit-32 split.

    hi = e >> 32 (arithmetic, floor) and lo = e - (hi << 32) in [0, 2^32)
    so per-block int64 sums of each part cannot overflow for any block
    under 2^31 rows.
    """
    hi = e >> np.int64(32)
    lo = e & _MASK32
    return (int(hi.sum()) << 32) + int(lo.sum())


def limbs3(v: int) -> tuple[int, int, int]:
    """Carry a Python int into (a2, a1, a0) base-2^32 limbs, each int64-safe.

    v = a2*2^64 + a1*2^32 + a0 with a1, a0 in [0, 2^32); a2 keeps the sign.
    """
    a0 = v & 0xFFFFFFFF
    v >>= 32
    a1 = v & 0xFFFFFFFF
    a2 = v >> 32
    return a2, a1, a0


def unlimbs3(a2: int, a1: int, a0: int) -> int:
    return (int(a2) << 64) + (int(a1) << 32) + int(a0)


def limb_double(v: int) -> float:
    """v as float64 via the 3-limb expression tree the SQL twin mirrors.

    DuckDB's CAST(HUGEINT AS DOUBLE) is NOT correctly rounded (observed
    off-by-one-ulp vs Python's float(int) at ~3.1e19), so both sides
    instead compute ``a2*2^64 + (a1*2^32 + a0)`` in IEEE doubles from the
    exact limbs — deterministic and bit-identical across engines.
    """
    a2, a1, a0 = limbs3(v)
    return float(a2) * 18446744073709551616.0 + (
        float(a1) * 4294967296.0 + float(a0)
    )


def derived_stats(n: int, s1: int, s2: int, s3: int, s4: int) -> dict:
    """Float64 mean/var/skew/kurt from exact integer sums.

    The expression trees here are mirrored TOKEN-FOR-TOKEN by the SQL
    twin in __ray_entry__.oracle_sql()['moments_by_type']; do not
    re-associate without changing both sides.  s2..s4 enter float64 via
    :func:`limb_double` (see there for why not plain float(int)).
    """
    import math

    n_d = float(n)
    s1_d = float(s1)
    s2_d, s3_d, s4_d = limb_double(s2), limb_double(s3), limb_double(s4)
    mean = s1_d / n_d
    m2 = s2_d / n_d - mean * mean
    m3 = s3_d / n_d - 3.0 * mean * (s2_d / n_d) + 2.0 * (mean * mean * mean)
    m4 = (
        s4_d / n_d
        - 4.0 * mean * (s3_d / n_d)
        + 6.0 * (mean * mean) * (s2_d / n_d)
        - 3.0 * (mean * mean) * (mean * mean)
    )
    skew = m3 / math.sqrt(m2 * m2 * m2) if m2 > 0.0 else 0.0
    kurt = m4 / (m2 * m2) - 3.0 if m2 > 0.0 else 0.0
    return {"mean": mean, "var": m2, "skew": skew, "kurt": kurt}


class MomentsSketch:
    """Mergeable exact power sums over integer-unit values."""

    __slots__ = ("n", "s1", "s2", "s3", "s4", "mn", "mx")

    def __init__(self):
        self.n = 0
        self.s1 = 0
        self.s2 = 0
        self.s3 = 0
        self.s4 = 0
        self.mn: int | None = None
        self.mx: int | None = None

    def update_batch(self, values) -> None:
        import pyarrow as pa

        if isinstance(values, (pa.Array, pa.ChunkedArray)):
            if values.null_count:
                values = values.drop_null()  # NaN->int64 wraps to INT64_MIN
            values = values.to_numpy(zero_copy_only=False)
        c = np.asarray(values)
        if c.dtype.kind == "f":
            if c.size and not np.isfinite(c).all():
                raise ValueError(
                    "moments sketch: non-finite values in float input — "
                    "drop or impute before sketching"
                )
            # bound-check BEFORE the int64 cast: a finite 1e30 wraps to
            # INT64_MIN under astype and would corrupt silently
            if c.size and float(np.abs(c).max()) > MAXC:
                raise ValueError(
                    f"moments sketch: |value| exceeds {MAXC} integer units "
                    "— rescale to a coarser unit before sketching"
                )
        elif c.dtype.kind == "u":
            # same pre-cast discipline for unsigned ints: 2^64-5 wraps to
            # -5 under astype(int64) and passes the post-cast guard
            if c.size and int(c.max()) > MAXC:
                raise ValueError(
                    f"moments sketch: value exceeds {MAXC} integer units "
                    "— rescale to a coarser unit before sketching"
                )
        if c.dtype != np.int64:
            c = c.astype(np.int64)
        if c.size == 0:
            return
        _check_range(c)
        p = power_parts(c)
        self.n += int(c.size)
        self.s1 += _hilo_sum(c)
        self.s2 += (_hilo_sum(p["h2"]) << 32) + int(p["l2"].sum())
        self.s3 += (_hilo_sum(p["p3h"]) << 32) + _hilo_sum(p["p3l"])
        self.s4 += (
            (_hilo_sum(p["q2"]) << 64)
            + (_hilo_sum(p["q1"]) << 32)
            + (int(p["q0h"].sum()) << 32)
            + int(p["q0l"].sum())
        )
        bmn, bmx = int(c.min()), int(c.max())
        self.mn = bmn if self.mn is None else min(self.mn, bmn)
        self.mx = bmx if self.mx is None else max(self.mx, bmx)

    def merge(self, other: "MomentsSketch") -> None:
        self.n += other.n
        self.s1 += other.s1
        self.s2 += other.s2
        self.s3 += other.s3
        self.s4 += other.s4
        for attr in ("mn", "mx"):
            a, b = getattr(self, attr), getattr(other, attr)
            if a is None:
                setattr(self, attr, b)
            elif b is not None:
                setattr(self, attr, min(a, b) if attr == "mn" else max(a, b))

    def result(self) -> dict:
        out = {
            "n": self.n,
            "sum": self.s1,
            "sum2": self.s2,
            "sum3": self.s3,
            "sum4": self.s4,
            "min": self.mn,
            "max": self.mx,
        }
        if self.n:
            out.update(derived_stats(self.n, self.s1, self.s2, self.s3, self.s4))
        return out

    def to_bytes(self) -> bytes:
        meta = json.dumps(
            {
                "kind": "moments",
                "n": self.n,
                "s1": self.s1,
                "s2": self.s2,
                "s3": self.s3,
                "s4": self.s4,
                "mn": self.mn,
                "mx": self.mx,
            }
        ).encode()
        return len(meta).to_bytes(4, "little") + meta

    @classmethod
    def from_bytes(cls, buf: bytes) -> "MomentsSketch":
        meta, _ = read_meta(buf, "moments")
        sk = cls()
        sk.n = meta["n"]
        sk.s1, sk.s2, sk.s3, sk.s4 = meta["s1"], meta["s2"], meta["s3"], meta["s4"]
        sk.mn, sk.mx = meta["mn"], meta["mx"]
        return sk
