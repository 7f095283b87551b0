"""Per-group feature normalization — the two-pass "grouped moments ->
broadcast -> vectorized map" pattern every tabular feature pipeline needs.

Scale shape: pass 1 pre-aggregates integer moments (sum, sum-of-squares,
count, max|x|) PER BLOCK with an Arrow group_by, so the global groupby
shuffles one row per (block, group), never the event stream; the O(groups)
stats table is the only driver materialization, broadcast once via
``ray.put``. Pass 2 is one vectorized map. Moments ride as exact int64
(values in fixed-point units) so the grouped sums are addition-order-free;
the float math that follows — mean = s/n, var = (n*q - s*s)/(n*n), std =
sqrt(var), z = (x - mean)/std — is a fixed sequence of IEEE-754 ops both
engines evaluate identically (sqrt is correctly rounded by spec), which
is what makes the result DuckDB-oracle-exact at 6 decimals.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from .agg import grouped_reduce


def zscore_by_group(
    ds,
    key: str,
    val_col: str,
    id_col: str,
    scale: float = 100.0,
    out_col: str = "z",
    ndigits: int = 6,
):
    """Append the per-group z-score of ``round(val * scale)`` fixed-point
    units. Returns (id_col, key, out_col) rows.

    Values are converted to integer units with half-away-from-zero
    rounding (the repo money convention) so the grouped moment sums are
    exact; int64 overflow of the sum-of-squares is excluded by a sound
    ``n * max_unit^2`` bound check that fails loudly (rescale or shard
    the group) instead of wrapping. Zero-variance groups are an error:
    z would be x/0 and engines disagree on inf semantics."""

    def units(t: pa.Table) -> pa.Table:
        c = pc.cast(
            pc.round(
                pc.multiply(t[val_col], scale),
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        )
        return pa.table({id_col: t[id_col], key: t[key], "_c": c})

    u = ds.map_batches(units, batch_format="pyarrow", zero_copy_batch=True)

    def powers(t: pa.Table) -> pa.Table:
        c = t["_c"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                key: t[key],
                "_c": t["_c"],
                "_q": pa.array(c * c, pa.int64()),
                "_a": pa.array(np.abs(c), pa.int64()),
            }
        )

    stats = grouped_reduce(
        u.map_batches(powers, batch_format="pyarrow", zero_copy_batch=True),
        key,
        {"_s": ("_c", "sum"), "_q": ("_q", "sum"), "_a": ("_a", "max"), "_n": ("_c", "count")},
    ).take_all()  # O(groups) rows — the only driver materialization
    gkeys, means, stds = [], [], []
    for r in stats:
        s, q, a, n = r["_s"], r["_q"], r["_a"], r["_n"]
        if n * a * a >= (1 << 62):
            raise ValueError(
                f"zscore_by_group: group {r[key]!r} risks int64 overflow in "
                f"sum-of-squares (n={n}, max|unit|={a}); lower scale= or "
                "shard the group"
            )
        var = (n * float(q) - float(s) * float(s)) / (float(n) * float(n))
        if var <= 0.0:
            raise ValueError(
                f"zscore_by_group: group {r[key]!r} has zero variance"
            )
        gkeys.append(r[key])
        means.append(s / n)
        stds.append(float(np.sqrt(var)))
    lut_ref = ray.put(
        (pa.array(gkeys), np.asarray(means), np.asarray(stds))
    )

    def zmap(t: pa.Table) -> pa.Table:
        karr, means, stds = ray.get(lut_ref)
        idx = pc.index_in(t[key], value_set=karr).to_numpy(
            zero_copy_only=False
        )
        c = t["_c"].to_numpy(zero_copy_only=False).astype(np.float64)
        z = pc.round(
            pa.array((c - means[idx]) / stds[idx], pa.float64()),
            ndigits,
            round_mode="half_towards_infinity",
        )
        return pa.table({id_col: t[id_col], key: t[key], out_col: z})

    return u.map_batches(zmap, batch_format="pyarrow", zero_copy_batch=True)
