"""Corpus-composition stages: quota mixing and deterministic splits.

Training-data pipelines compose corpora by *quota* (take N docs per
language/domain, ordered deterministically) and carve *splits*
(train/val/test) that must be stable across reruns and machines. Both are
embarrassingly parallel in Ray Data:

- :func:`take_per_group` — per-block partial top-``quota`` rows per group
  (smallest ``order_col`` first), then one final reduce over the tiny
  partial union. The shuffle-free twin of ``row_number() OVER (PARTITION BY
  key ORDER BY order_col) <= quota``.
- :func:`assign_split` — a pure ``map_batches`` column append: bucket the
  key (seeded murmur3 or integer modulo), map bucket ranges to named
  splits by cumulative fraction. No shuffle, no state, rerun-stable.

No reference twin (dsa0x/sprout is a sketch library); these are the
driver-spec'd training-data operators built on the same hash kernel
(kernel/murmur3.py) as the sketch family.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import murmur_column
from .agg import collect_table


def _take_batch(
    t: pa.Table,
    key: str,
    order_col: str,
    quota_of: Callable,
    columns: list[str],
) -> pa.Table:
    """Keep the ``quota_of(key)`` rows with smallest ``order_col`` per group.

    Stable mergesort + per-group cumcount: O(n log n) pandas C kernels, no
    Python per-row work. Applied per block AND as the final reduce (the
    operation is idempotent on its own output, so partial-then-final is
    exact)."""
    import pandas as pd

    if t.num_rows == 0:
        return t.select(columns)
    df = pd.DataFrame(
        {
            "k": t[key].to_numpy(zero_copy_only=False),
            "o": t[order_col].to_numpy(zero_copy_only=False),
        }
    )
    order = df.sort_values(["k", "o"], kind="mergesort").index
    ranked = df.loc[order]
    rank = ranked.groupby("k", sort=False).cumcount().to_numpy()
    # quota_of is called once per UNIQUE key (strata are bounded), never
    # per row — the per-row map stays a vectorized dict lookup
    qmap = {k: quota_of(k) for k in ranked["k"].unique()}
    quotas = ranked["k"].map(qmap).to_numpy()
    keep = order.to_numpy()[rank < quotas]
    keep.sort()
    return t.take(pa.array(keep)).select(columns)


def take_per_group(ds, key: str, order_col: str, quota, columns=None):
    """Deterministic per-group quota sample: for each value of ``key`` keep
    the ``quota`` rows with the smallest ``order_col``.

    ``quota`` is an int (flat), a dict ``{key_value: n}`` (strata absent
    from the dict get quota 0, i.e. are dropped), or a callable
    ``key_value -> n``. Returns a pyarrow Table sorted by (key, order_col).

    Scale shape: one streaming pass emits per-block partials of at most
    ``quota`` rows per group; the driver reduce sees ``O(blocks x strata x
    quota)`` rows — independent of corpus size. Assumes bounded strata
    cardinality (languages/domains/sources), which is what corpus mixing
    means; for unbounded strata use a groupby path instead."""
    if callable(quota):
        quota_of = quota
    elif isinstance(quota, dict):
        quota_of = lambda k, _d=dict(quota): _d.get(k, 0)  # noqa: E731
    else:
        flat = int(quota)
        quota_of = lambda _k, _n=flat: _n  # noqa: E731

    cols = list(columns) if columns else [key, order_col]
    part = ds.map_batches(
        lambda t: _take_batch(t, key, order_col, quota_of, cols),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()
    # partials are tiny by construction; the materialized partials know
    # their schema from block metadata, so a 0-row result still carries it
    merged = collect_table(part, part.schema().base_schema)
    final = _take_batch(merged, key, order_col, quota_of, cols)
    return final.sort_by([(key, "ascending"), (order_col, "ascending")])


def split_cuts(fractions: list[tuple[str, float]], buckets: int) -> np.ndarray:
    """Right-open integer bucket boundaries for cumulative fractions.

    ``cut[i] = round(cum_i * buckets)``; the last cut is forced to
    ``buckets`` so every bucket lands in a split. Fractions must sum to 1
    (validated to 1e-9) — quantization error per split is < 1/buckets."""
    weights = np.array([w for _, w in fractions], dtype=np.float64)
    if weights.min() < 0 or abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError(f"fractions must be >=0 and sum to 1, got {fractions}")
    cuts = np.floor(np.cumsum(weights) * buckets + 0.5).astype(np.int64)
    cuts[-1] = buckets
    if (np.diff(np.concatenate([[0], cuts])) < 0).any():
        raise ValueError(f"fractions quantize to a non-monotone cut list: {cuts}")
    return cuts


def assign_split(
    ds,
    key_col: str,
    fractions: list[tuple[str, float]],
    method: str = "hash",
    buckets: int = 10_000,
    seed: int = 0,
    out: str = "split",
):
    """Append a deterministic ``split`` column partitioning rows by key.

    ``method="hash"``: bucket = murmur3_64(key, seed) % buckets — stable
    under reshuffles/reruns, independent of row order, any key dtype.
    ``method="mod"``: bucket = key % buckets for integer keys — the
    SQL-expressible twin (oracle-checkable; same code path otherwise).

    Pure per-batch map: no shuffle, no state, each row decided from its own
    key — the 100 TB shape for split assignment."""
    if method not in ("hash", "mod"):
        raise ValueError(f"method must be 'hash' or 'mod', got {method!r}")
    cuts = split_cuts(fractions, buckets)
    names = np.array([n for n, _ in fractions])

    def add_split(t: pa.Table) -> pa.Table:
        if method == "hash":
            # non-string keys hash as their decimal string: dtype-independent
            # and stable across int32/int64 readers of the same data
            b = murmur_column(t[key_col], seed) % np.uint64(buckets)
            b = b.view(np.int64)  # values < buckets: view is exact
        else:
            keys = t[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
            if (keys < 0).any():
                raise ValueError("mod split requires non-negative integer keys")
            b = keys % buckets
        idx = np.searchsorted(cuts, b, side="right")
        return t.append_column(out, pa.array(names[idx], pa.string()))

    return ds.map_batches(add_split, batch_format="pyarrow", zero_copy_batch=True)


def pack_sequences(
    ds,
    capacity: int,
    id_col: str = "doc_id",
    token_col: str = "token_count",
    bin_col: str = "bin",
):
    """Concatenate-and-cut sequence packing: assign each doc to the training
    sequence (bin) its first token lands in.

    The GPT-style pretraining pack — concatenate all docs in ``id_col``
    order into one token stream, cut every ``capacity`` tokens —
    expressed as ``bin = exclusive_prefix_sum(token_col) // capacity``,
    i.e. the SQL window ``sum(tok) OVER (ORDER BY id ROWS BETWEEN
    UNBOUNDED PRECEDING AND 1 PRECEDING)``.

    Scale shape (distributed scan): one range sort by ``id_col``, then a
    two-pass prefix sum — pass 1 emits one ``(block_min_id, block_sum)``
    summary row per sorted block (O(blocks) driver rows, 16 bytes each —
    ~12 MB for 100 TB at 128 MiB blocks); the driver turns them into
    exclusive block offsets, broadcast once; pass 2 adds the local
    exclusive cumsum to the block's offset. Blocks own disjoint id ranges
    after the sort, so a block's min id uniquely keys its offset.

    Returns ``ds`` (sorted by id) with ``bin_col`` appended. Requires
    unique, non-null ``id_col`` and a non-negative ``token_col``.
    """
    import ray

    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    sorted_ds = ds.sort(id_col).materialize()  # consumed twice

    def summary(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"_min_id": pa.array([], pa.int64()),
                 "_sum": pa.array([], pa.int64())}
            )
        if t[token_col].null_count:
            # a null would silently become NaN in to_numpy and poison the
            # whole downstream prefix sum — fail loudly instead
            raise ValueError(f"pack_sequences: {token_col!r} contains nulls")
        ids = t[id_col].to_numpy(zero_copy_only=False)
        tok = t[token_col].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "_min_id": pa.array([int(ids.min())], pa.int64()),
                "_sum": pa.array([int(tok.sum())], pa.int64()),
            }
        )

    parts = (
        sorted_ds.map_batches(
            summary, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
        )
        .sort("_min_id")
        .to_pandas()  # O(blocks) rows — the only driver materialization
    )
    if parts.empty or "_min_id" not in parts:
        # 0-row datasets lose their schema on to_pandas() (CLAUDE.md)
        min_ids = np.empty(0, np.int64)
        offsets = np.empty(0, np.int64)
    else:
        min_ids = parts["_min_id"].to_numpy()
        offsets = np.concatenate(
            [[0], np.cumsum(parts["_sum"].to_numpy())[:-1]]
        )
    scan_ref = ray.put((min_ids, offsets))

    def add_bin(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.append_column(bin_col, pa.array([], pa.int64()))
        mids, offs = ray.get(scan_ref)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        tok = t[token_col].to_numpy(zero_copy_only=False)
        base = offs[np.searchsorted(mids, ids.min(), side="right") - 1]
        before = base + np.concatenate([[0], np.cumsum(tok)[:-1]])
        return t.append_column(bin_col, pa.array(before // capacity, pa.int64()))

    return sorted_ds.map_batches(
        add_bin, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )


# Knuth's multiplicative constant: odd, near golden-ratio * 2^32 — the
# classic integer mix, chosen here because the SQL twin is plain BIGINT
# arithmetic (no engine-specific hash function needed for the oracle)
_KNUTH = 2654435761
_MIX_MOD = 1 << 32


def shuffle_by_hash(ds, id_col: str = "doc_id", seed: int = 0):
    """Deterministic global pseudo-shuffle — the training-data "shuffle
    once, read sequentially" step.

    Orders rows by ``(((id + seed) % 2^31) * 2654435761) % 2^32`` (Knuth
    multiplicative hashing): rerun-stable, machine-independent, and
    exactly reproducible in SQL — pure BIGINT arithmetic whose largest
    intermediate (2^31 * 2654435761 ≈ 5.7e18) stays inside int64, so the
    SQL twin neither overflows (DuckDB errors) nor wraps (numpy is
    silent) and both engines compute the identical key. The seed lands
    INSIDE the multiply (``id + seed`` first): a post-multiply additive
    seed would shift every key by the same constant and leave the order
    unchanged except at the mod-2^32 wraparound. One range
    shuffle (the sort) — the same cost profile as
    ``Dataset.random_shuffle`` but deterministic and resumable. Ties
    (ids congruent mod 2^31 / hash collisions) are broken by the id
    itself so the order is total. Requires non-negative integer ids.
    Appends ``_shuffle_key`` then drops it.
    """

    def key(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ids) and ids.min() < 0:
            raise ValueError("shuffle_by_hash requires non-negative ids")
        h = (((ids + seed) % (1 << 31)) * _KNUTH) % _MIX_MOD
        return t.append_column("_shuffle_key", pa.array(h, pa.int64()))

    return (
        ds.map_batches(key, batch_format="pyarrow", zero_copy_batch=True)
        .sort(["_shuffle_key", id_col])
        .drop_columns(["_shuffle_key"])
    )


def sample_per_group(
    ds,
    key_col: str,
    rates,
    id_col: str = "doc_id",
    method: str = "hash",
    buckets: int = 10_000,
    seed: int = 0,
):
    """Deterministic per-stratum downsampling — the corpus *mixing* step
    (keep fraction ``rates[key]`` of each language/domain, e.g. flattening
    an over-represented crawl slice).

    Each row is kept iff ``bucket(id) < round(rate(key) * buckets)``:
    decided from the row alone (no shuffle, no state, rerun-stable), so
    resumed and fresh runs keep identical rows and the sample composes
    with :func:`assign_split` (different seeds decorrelate them).
    ``rates`` is a float (flat), dict (missing strata default 0.0 —
    dropped), or callable. ``method="hash"`` buckets murmur3(id, seed)
    (production; any id dtype); ``method="mod"`` buckets ``id % buckets``
    for integer ids — the SQL-expressible oracle twin, same code path."""
    if method not in ("hash", "mod"):
        raise ValueError(f"method must be 'hash' or 'mod', got {method!r}")
    if callable(rates):
        rate_of = rates
    elif isinstance(rates, dict):
        rate_of = lambda k, _d=dict(rates): _d.get(k, 0.0)  # noqa: E731
    else:
        flat = float(rates)
        rate_of = lambda _k, _r=flat: _r  # noqa: E731

    def keep(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        if method == "hash":
            b = (murmur_column(t[id_col], seed) % np.uint64(buckets)).view(np.int64)
        else:
            ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
            if len(ids) and ids.min() < 0:
                raise ValueError("mod sampling requires non-negative ids")
            b = ids % buckets
        keys = t[key_col].to_numpy(zero_copy_only=False)
        # rate_of called once per UNIQUE stratum (bounded), not per row
        # half-AWAY-from-zero (matches DuckDB round(); Python round() is
        # half-to-even and diverges on exact .5 — CLAUDE.md convention)
        cut_map = {
            k: int(np.floor(float(rate_of(k)) * buckets + 0.5))
            for k in set(keys.tolist())
        }
        cuts = np.fromiter((cut_map[k] for k in keys.tolist()), np.int64, len(keys))
        return t.filter(pa.array(b < cuts))

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


def percentile_band_filter(
    ds,
    key_col: str,
    value_col: str,
    lo_q: float = 0.05,
    hi_q: float = 0.95,
    max_hist_rows: int = 2_000_000,
):
    """Distribution-based quality gate: keep rows whose ``value_col`` lies
    inside the per-``key_col`` [lo_q, hi_q] percentile band (the classic
    "drop the length outliers per language" curation step).

    Percentiles are EXACT (``percentile_disc`` semantics: smallest value
    whose cumulative count reaches ceil(q*n)) but computed from per-group
    HISTOGRAMS, not per-group value materialization: one map pass emits
    per-block (key, value, count) partials, a native groupby sums them,
    and the driver reduces a table bounded by |keys| x |distinct values| —
    corpus-size independent for bounded-domain values like lengths or
    scores. The band cuts broadcast once; the filter is map-only.

    ``max_hist_rows`` bounds that driver-side reduce LOUDLY (the
    hot_bucket_rows / max_cluster convention): a caller feeding a
    wide-range value column (timestamps, raw hashes) gets a ValueError
    telling them to quantize first, never a silent driver OOM.

    Returns ``(filtered_ds, bands)`` where bands maps key -> (lo, hi)."""
    import ray

    if not (0.0 <= lo_q <= hi_q <= 1.0):
        raise ValueError(f"need 0 <= lo_q <= hi_q <= 1, got {lo_q}, {hi_q}")

    def block_hist(t: pa.Table) -> pa.Table:
        keys = t[key_col].to_numpy(zero_copy_only=False)
        vals = t[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        import pandas as pd

        g = (
            pd.DataFrame({"k": keys, "v": vals})
            .groupby(["k", "v"], sort=False)
            .size()
            .reset_index()
        )
        return pa.table(
            {
                key_col: pa.array(g["k"]),
                value_col: pa.array(g["v"].to_numpy(), pa.int64()),
                "cnt": pa.array(g[0].to_numpy(), pa.int64()),
            }
        )

    # pack (key, value) into one groupby key: multi-column groupby is
    # pathologically slow on Ray Data (CLAUDE.md); strings are bounded here
    def pack(t: pa.Table) -> pa.Table:
        packed = pc.binary_join_element_wise(
            pc.cast(t[key_col], pa.string()),
            pc.cast(t[value_col], pa.string()),
            "\x1f",
        )
        return pa.table({"kv": packed, "cnt": t["cnt"]})

    grouped = (
        ds.map_batches(block_hist, batch_format="pyarrow", zero_copy_batch=True)
        .map_batches(pack, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("kv")
        .sum("cnt")
    )
    try:
        # to_pandas(limit=) raises before materializing past the budget —
        # the guard costs no extra pipeline execution
        hist = grouped.to_pandas(limit=max_hist_rows)
    except ValueError as e:
        raise ValueError(
            f"percentile_band_filter: the (key x distinct {value_col}) "
            f"histogram exceeds max_hist_rows={max_hist_rows}; the value "
            "domain is too wide for the driver-side reduce — quantize/"
            "bucket the value column first or raise max_hist_rows"
        ) from e
    bands = {}
    if len(hist):
        kv = hist["kv"].str.split("\x1f", expand=True)
        hist = hist.assign(k=kv[0], v=kv[1].astype(np.int64))
        for k, grp in hist.groupby("k", sort=False):
            grp = grp.sort_values("v")
            cum = grp["sum(cnt)"].cumsum().to_numpy()
            n = int(cum[-1])
            vs = grp["v"].to_numpy()

            def disc(q):
                target = max(int(np.ceil(q * n)), 1)
                return int(vs[np.searchsorted(cum, target)])

            bands[k] = (disc(lo_q), disc(hi_q))

    bands_ref = ray.put(bands)

    def keep(t: pa.Table) -> pa.Table:
        b = ray.get(bands_ref)
        keys = t[key_col].to_numpy(zero_copy_only=False)
        vals = t[value_col].to_numpy(zero_copy_only=False)
        lo = np.fromiter(
            (b.get(k, (1, 0))[0] for k in keys.tolist()), np.int64, len(keys)
        )
        hi = np.fromiter(
            (b.get(k, (1, 0))[1] for k in keys.tolist()), np.int64, len(keys)
        )
        return t.filter(pa.array((vals >= lo) & (vals <= hi)))

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True), bands


def weighted_sample(
    ds,
    n: int,
    weight_col: str,
    id_col: str = "doc_id",
    seed: int = 0,
    score_col: str = "es_score",
):
    """Weighted sampling WITHOUT replacement (Efraimidis & Spirakis 2006):
    each row gets key u^(1/w) for u ~ U(0,1); the top-n keys are a
    weighted sample. Ranking by ln(u)/w (monotone transform) keeps the
    arithmetic to one glibc ``ln`` + one divide, and u comes from the
    repo's Knuth multiplicative mix (shuffle_by_hash convention) as
    (h+1)/2^32 ∈ (0,1] — pure BIGINT-then-double ops both engines
    reproduce bit-for-bit, so the SELECTION ITSELF is oracle-exact, not
    just its size. Deterministic, rerun-stable, machine-independent.

    Scale shape: per-block vectorized scores + per-block top-n partials
    (O(blocks x n) rows reach the final exchange, never the corpus),
    then one tiny global sort+limit. Requires strictly positive integer
    weights and non-negative ids; ties (astronomically unlikely) break
    by id ASC. Returns (id_col, weight_col, score_col) rows, the sample.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")

    def score(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        w = t[weight_col].to_numpy(zero_copy_only=False)
        if len(w) and (not np.issubdtype(w.dtype, np.integer) or w.min() <= 0):
            raise ValueError(
                "weighted_sample requires strictly positive integer weights"
            )
        if len(ids) and ids.min() < 0:
            raise ValueError("weighted_sample requires non-negative ids")
        h = (((ids + seed) % (1 << 31)) * _KNUTH) % _MIX_MOD
        # ln((h+1)/2^32) / w — operand grouping pinned to the SQL twin
        u = (h + 1.0) / float(_MIX_MOD)
        s = np.log(u) / w.astype(np.float64)
        out = pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                weight_col: t[weight_col],
                score_col: pa.array(s, pa.float64()),
            }
        )
        # block-local top-n partial: only O(n) rows leave each block
        if out.num_rows > n:
            order = pc.sort_indices(
                out,
                sort_keys=[(score_col, "descending"), (id_col, "ascending")],
            )
            out = out.take(order[:n])
        return out

    return (
        ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)
        .sort([score_col, id_col], descending=[True, False])
        .limit(n)
    )
