"""Z-order (Morton) interleave keys — the locality-preserving layout
primitive for multi-dimensional range pruning.

At 100 TB a table range-partitioned on ONE column prunes reads on that
column only; sorting by the Morton interleave of two columns gives every
block a small bounding RECTANGLE in (x, y) space, so min/max block stats
prune range predicates on EITHER dimension (the Delta/Iceberg OPTIMIZE
ZORDER idea). The key itself is pure per-row bit arithmetic — zero
shuffle to compute; one range sort to lay out.

The classic magic-number bit spread (Morton 1966 dilated integers) uses
only &, |, << on non-negative values, so the DuckDB oracle twin evaluates
the IDENTICAL expressions on BIGINT (`zorder_spread_sql`). Inputs are
restricted to 31 bits each (loud guard): the interleave of two 31-bit
values tops out at bit 62, keeping int64 non-negative in BOTH engines.
"""

from __future__ import annotations

import numpy as np

_MASKS = (
    0x0000FFFF0000FFFF,
    0x00FF00FF00FF00FF,
    0x0F0F0F0F0F0F0F0F,
    0x3333333333333333,
    0x5555555555555555,
)
_SHIFTS = (16, 8, 4, 2, 1)

MAX_COORD = (1 << 31) - 1


def _spread(x: np.ndarray) -> np.ndarray:
    """Dilate the low 31 bits of non-negative int64 x into even positions."""
    v = x.view(np.uint64) if x.dtype == np.int64 else x.astype(np.uint64)
    for m, s in zip(_MASKS, _SHIFTS):
        v = (v | (v << np.uint64(s))) & np.uint64(m)
    return v


def morton_key(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Interleave two non-negative <=31-bit int64 arrays into one int64
    Z-order key (x at even bit positions, y at odd). Non-integer dtypes
    are refused: the unsigned cast would truncate them silently."""
    for name, a in (("x", x), ("y", y)):
        if not np.issubdtype(a.dtype, np.integer):
            raise ValueError(
                f"morton_key: {name} has non-integer dtype {a.dtype} — cast "
                "or bucket the coordinate to integers before layout"
            )
        if a.size and (a.min() < 0 or a.max() > MAX_COORD):
            raise ValueError(
                f"morton_key: {name} outside [0, 2^31-1] — rescale or "
                "bucket the coordinate before layout"
            )
    z = _spread(x) | (_spread(y) << np.uint64(1))
    return z.view(np.int64)


def zorder_spread_sql(expr: str) -> str:
    """The DuckDB expression computing ``_spread`` of a non-negative
    31-bit BIGINT expression — identical masks/shifts, so engine and
    oracle agree bit-for-bit."""
    out = f"({expr})"
    for m, s in zip(_MASKS, _SHIFTS):
        out = f"(({out} | ({out} << {s})) & {m})"
    return out


def morton_key_sql(x_expr: str, y_expr: str) -> str:
    """DuckDB expression for ``morton_key`` of two column expressions."""
    return (
        f"({zorder_spread_sql(x_expr)} | "
        f"({zorder_spread_sql(y_expr)} << 1))"
    )
