"""Data-layout primitives: quantile range partitioning.

The explicit-repartitioning half of the layout family (the Z-order keys
in functions/zorder.py are the multi-dimension half): learn k-1 EXACT
``percentile_disc`` boundaries of a key column from a distributed value
HISTOGRAM (never a sort of the stream), then assign every row its range
bucket with one shuffle-free map.  Buckets have near-equal row counts by
construction (exactly equal up to value ties), so a downstream
``repartition`` / partitioned write / range join gets balanced units no
matter how skewed the raw key distribution is — the "explicit
repartitioning to absorb skew" primitive at 10^12-row scale:

- pass 1 ships per-block (value, count) partials; the exchange and the
  driver reduce are bounded by |distinct values| (loudly guarded, the
  percentile_band_filter convention), corpus-size independent for
  bounded-domain keys (lengths, cents, scores);
- pass 2 is map-only against the broadcast boundary vector.

The bucket rule is a pure function of the value — ``bucket(v) = #{i :
v > b_i}`` — so it is reproducible across runs and engines; the SQL
oracle twin computes the identical rule from ``percentile_disc``
scalars (__ray_entry__.oracle_sql()['events_range_layout']).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import grouped_reduce


def _boundaries_from_hist(vs: np.ndarray, cum: np.ndarray, k: int) -> np.ndarray:
    """percentile_disc(i/k) boundaries from a sorted (value, cumcount)
    histogram: b_i = value at the first cum >= ceil(i*n/k). The ONE copy
    of the quantile semantics both boundary passes share."""
    n = int(cum[-1])
    targets = [-(-i * n // k) for i in range(1, k)]  # ceil(i*n/k)
    pos = np.searchsorted(cum, targets, side="left")
    return vs[np.minimum(pos, len(vs) - 1)].astype(np.int64)


def range_boundaries(
    ds, col: str, k: int, max_hist_rows: int = 2_000_000
) -> np.ndarray:
    """k-1 exact percentile_disc boundaries of integer column ``col``.

    b_i = smallest value whose cumulative count reaches ceil(i*n/k)
    (SQL-standard percentile_disc(i/k) semantics). Computed from a
    distributed (value -> count) histogram; the driver reduce is bounded
    by |distinct values| and fails loudly past ``max_hist_rows``."""
    if k < 2:
        raise ValueError("k must be >= 2")

    values = ds.map_batches(
        lambda t: pa.table({"v": t[col]}).drop_null(),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    grouped = grouped_reduce(values, "v", {"cnt": ("v", "count")})
    try:
        hist = grouped.to_pandas(limit=max_hist_rows)
    except ValueError as e:
        raise ValueError(
            f"range_boundaries: |distinct {col}| exceeds max_hist_rows="
            f"{max_hist_rows}; quantize the key first or raise the budget"
        ) from e
    if not len(hist):
        raise ValueError("range_boundaries: empty input")
    hist = hist.sort_values("v")
    return _boundaries_from_hist(
        hist["v"].to_numpy(), hist["cnt"].cumsum().to_numpy(), k
    )


def assign_range_buckets(ds, col: str, boundaries: np.ndarray, bucket_col="bucket"):
    """Map-only bucket assignment: bucket(v) = #{i : v > b_i} — the count
    of boundaries strictly below v (np.searchsorted side='left')."""
    import ray

    b_ref = ray.put(np.asarray(boundaries, dtype=np.int64))

    def tag(t: pa.Table) -> pa.Table:
        b = ray.get(b_ref)
        v = t[col].to_numpy(zero_copy_only=False)
        return t.append_column(
            bucket_col, pa.array(np.searchsorted(b, v, side="left").astype(np.int64))
        )

    return ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)


def write_range_partitioned(
    input_files: list,
    col: str,
    k: int,
    out_dir: str,
    max_hist_rows: int = 2_000_000,
    files_per_partition: int = 1,
):
    """Balanced resumable layout over parquet shards: learn boundaries
    from one column-pruned histogram pass over ALL shards, then re-layout
    shard group by shard group through the resumable sink (sources/io.py)
    with the bucket tagger as the per-group transform — a failed 100 TB
    re-layout skips finished shard groups on retry, and rows are read and
    written exactly once (the histogram pass ships only (value, count)
    partials, never rows)."""
    import ray.data as rd

    from ..sources.io import resumable_transform_write

    import hashlib

    input_files = list(input_files)
    hist_ds = rd.read_parquet(input_files, columns=[col])
    bounds = range_boundaries(hist_ds, col, k, max_hist_rows=max_hist_rows)
    # the bucket rule is data-derived: tag the manifest with (rule, k,
    # boundary digest) so a re-run with different --buckets or changed
    # input cannot silently mix two layouts in one out_dir
    tag = (
        f"range:{col}:k={k}:"
        f"b={hashlib.sha256(bounds.tobytes()).hexdigest()[:12]}"
    )
    metrics = resumable_transform_write(
        input_files,
        out_dir,
        transform=lambda d: assign_range_buckets(d, col, bounds),
        files_per_partition=files_per_partition,
        partition_by="bucket",
        max_partition_values=max(k, 64),
        layout_tag=tag,
    )
    return bounds, metrics


def range_boundaries_multi(
    ds, cols: list, k: int, max_hist_rows: int = 2_000_000
) -> dict:
    """Exact percentile_disc boundaries for SEVERAL non-negative integer
    columns in ONE distributed histogram pass.

    Each (column, value) pair packs into a single int64 key — column
    index in the top byte, value in the low 56 bits (the skew_stats
    packed-key convention, loudly guarded) — so all histograms ride one
    Ray groupby-sum instead of one exchange per column.  Per-column
    results are bit-identical to :func:`range_boundaries` (asserted in
    tests); callers with negative or >=2^56 values use the per-column
    function instead."""
    import numpy as np
    import pyarrow as pa

    if k < 2:
        raise ValueError("k must be >= 2")
    if len(cols) > 127:
        raise ValueError("too many columns for the packed key space")
    idx = {c: j for j, c in enumerate(cols)}

    def block_hist(t: pa.Table) -> pa.Table:
        keys, cnts = [], []
        for c in cols:
            g = (
                t.select([c]).drop_null().group_by([c]).aggregate([(c, "count")])
            )
            v = g[c].to_numpy(zero_copy_only=False)
            if v.size and (int(v.min()) < 0 or int(v.max()) >= (1 << 56)):
                raise ValueError(
                    f"range_boundaries_multi: {c} values outside [0, 2^56) "
                    "— use range_boundaries per column"
                )
            # normalize to int64 BEFORE packing: a uint64 column would
            # promote the concatenated key array to float64 and silently
            # merge distinct packed keys above 2^53 (round-5 review)
            if v.dtype == np.uint64:
                v = v.view(np.int64)  # values < 2^56, bit-identical
            elif v.dtype != np.int64:
                v = v.astype(np.int64)
            keys.append((np.int64(idx[c]) << np.int64(56)) | v)
            cnts.append(g[f"{c}_count"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "k": pa.array(np.concatenate(keys) if keys else
                              np.empty(0, np.int64)),
                "cnt": pa.array(
                    np.concatenate(cnts).astype(np.int64) if cnts else
                    np.empty(0, np.int64)
                ),
            }
        )

    grouped = (
        ds.map_batches(block_hist, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("k")
        .sum("cnt")
    )
    try:
        hist = grouped.to_pandas(limit=max_hist_rows * len(cols))
    except ValueError as e:
        raise ValueError(
            f"range_boundaries_multi: total distinct values exceed "
            f"{max_hist_rows * len(cols)}; quantize keys or raise the budget"
        ) from e
    if not len(hist):
        raise ValueError("range_boundaries_multi: empty input")
    hist = hist.sort_values("k")
    keys = hist["k"].to_numpy()
    cnt_all = hist["sum(cnt)"].to_numpy()
    out = {}
    for c in cols:
        j = idx[c]
        sel = (keys >> np.int64(56)) == j
        vs = keys[sel] & np.int64((1 << 56) - 1)
        cum = cnt_all[sel].cumsum()
        if not len(vs):
            raise ValueError(f"range_boundaries_multi: no rows for {c}")
        out[c] = _boundaries_from_hist(vs, cum, k)
    return out


def write_zorder_partitioned(
    input_files: list,
    x_col: str,
    y_col: str,
    k: int,
    out_dir: str,
    max_hist_rows: int = 2_000_000,
    files_per_partition: int = 1,
    boundary_bits: int = 20,
):
    """Two-dimensional balanced clustering layout: Morton-interleave
    (x, y) into one Z-order key (functions/zorder.morton_key — the
    multi-dimension half of the layout family), learn k-1 percentile
    boundaries of the KEY, and rewrite shard groups into near-equal
    Z-range buckets through the resumable sink.  Each bucket then holds
    a contiguous Z-range = a compact 2-D region, so a downstream range
    predicate on EITHER column prunes whole buckets (the data-clustering
    layout warehouses call Z-ORDER BY), and bucket populations stay
    balanced no matter how skewed either coordinate is.  Same recovery
    unit and single read/write pass as :func:`write_range_partitioned`.

    Z keys are near-UNIQUE, so an exact-key histogram would ship O(rows)
    — violating the module's |distinct|-bounded premise (round-5
    review).  Boundaries are therefore learned on keys COARSENED to the
    top ``boundary_bits`` bits of the observed key range (one cheap
    native max pre-pass picks the shift), capping the exchange at
    2^boundary_bits cells regardless of corpus size, then scaled back.
    Buckets remain exact contiguous Z-ranges; populations are equal up
    to one quantization cell (~rows/2^boundary_bits expected), which is
    noise for k << 2^boundary_bits."""
    import ray.data as rd

    from ..functions.zorder import morton_key
    from ..sources.io import resumable_transform_write

    zcol = "_zkey"

    def with_z(t: pa.Table) -> pa.Table:
        return t.append_column(
            zcol,
            pa.array(
                morton_key(
                    t[x_col].to_numpy(zero_copy_only=False),
                    t[y_col].to_numpy(zero_copy_only=False),
                )
            ),
        )

    input_files = list(input_files)

    def z_ds():
        return rd.read_parquet(input_files, columns=[x_col, y_col]).map_batches(
            with_z, batch_format="pyarrow", zero_copy_batch=True
        )

    z_max = z_ds().max(zcol)
    if z_max is None:
        raise ValueError("write_zorder_partitioned: empty input")
    shift = max(0, int(z_max).bit_length() - boundary_bits)
    coarse = z_ds().map_batches(
        lambda t: pa.table(
            {zcol: pc.shift_right(t[zcol], pa.scalar(shift, pa.int64()))}
        ),
        batch_format="pyarrow",
    )
    bounds = (
        range_boundaries(coarse, zcol, k, max_hist_rows=max_hist_rows)
        << np.int64(shift)
    )

    def tag(d):
        return assign_range_buckets(
            d.map_batches(with_z, batch_format="pyarrow", zero_copy_batch=True),
            zcol,
            bounds,
        ).map_batches(
            lambda t: t.drop_columns([zcol]), batch_format="pyarrow"
        )

    import hashlib

    ltag = (
        f"zorder:{x_col},{y_col}:k={k}:"
        f"b={hashlib.sha256(bounds.tobytes()).hexdigest()[:12]}"
    )
    metrics = resumable_transform_write(
        input_files,
        out_dir,
        transform=tag,
        files_per_partition=files_per_partition,
        partition_by="bucket",
        max_partition_values=max(k, 64),
        layout_tag=ltag,
    )
    return bounds, metrics
