"""Driver-conformance query battery (`__ray_entry__.queries()`).

Each function takes ``sf_dir`` and returns a Dataset / DataFrame / Table.
Exact queries have DuckDB oracle SQL twins in ``oracles.py`` — computed
columns are named identically on both sides, monetary sums are done in
integer cents so results are bit-deterministic across summation orders.
Sketch queries are approximate by design and take the driver's rows-only
check; their accuracy is separately gated by pytest bound tests.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import add_sha256
from ..kernel.sketch import SketchSpec
from ..stages.agg import collect_table, grouped_reduce, stateful_map
from ..stages.builder import build_grouped, build_sketch, multi_sketch_build
from ..stages.probe import probe_filter


def _read(sf_dir: str, table: str, columns=None):
    """Pruned parquet read with a size-aware block count.

    ``read_parquet`` oversplits small files (~200 blocks regardless of
    size), and every downstream groupby/sort/join pays a fixed
    per-partition cost, so shuffle-tailed queries were overhead-bound at
    bench scale. One block per CPU is the floor; block count grows with
    file size (128 MiB target) so large inputs keep the same granularity
    Ray's size-based splitting would pick. Results are block-count
    independent — this only moves fixed overhead."""
    import os

    import ray
    import ray.data as rd

    path = f"{sf_dir}/{table}.parquet"
    cpus = int(ray.cluster_resources().get("CPU", 8))
    size_blocks = -(-os.path.getsize(path) // (128 << 20))
    return rd.read_parquet(
        path, columns=columns, override_num_blocks=max(cpus, size_blocks)
    )


# --------------------------------------------------------------------------
# Exact queries (DuckDB-oracle checked)
# --------------------------------------------------------------------------


def exact_distinct_source(sf_dir: str):
    """count(DISTINCT source) over documents — the exact twin of HLL."""
    n = _read(sf_dir, "documents", ["source"]).unique("source")
    return pa.table({"n_distinct": pa.array([len(n)], pa.int64())})


def exact_lang_counts(sf_dir: str):
    """Exact per-lang doc counts — the exact twin of CMS(lang)."""
    return grouped_reduce(
        _read(sf_dir, "documents", ["lang"]), "lang", {"n": ("lang", "count")}
    )


def exact_dedup_first(sf_dir: str):
    """First (min doc_id) row per distinct text — exact dedup readout."""
    from ray.data.aggregate import Min

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.groupby("text").aggregate(Min("doc_id", alias_name="doc_id"))


def token_counts(sf_dir: str):
    """Whitespace + BPE-ish token counts per doc (vectorized Arrow kernels)."""
    from ..stages.text import add_bpe_token_count, add_token_count

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        lambda t: add_bpe_token_count(add_token_count(t)), batch_format="pyarrow"
    ).select_columns(["doc_id", "token_count", "bpe_tokens"])


def doc_quality(sf_dir: str):
    """Quality features per doc (stateful stage, deterministic rounding)."""
    from ..stages.text import QualityScorer

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = stateful_map(
        ds, QualityScorer, {}, batch_format="pyarrow", batch_size=256
    )
    return out.select_columns(
        ["doc_id", "token_count", "punct_ratio", "alpha_ratio"]
    )


def nchars_stats_by_lang(sf_dir: str):
    """Distributed min/max/sum/count of n_chars per lang (integer-exact)."""
    return grouped_reduce(
        _read(sf_dir, "documents", ["lang", "n_chars"]),
        "lang",
        {
            "min_chars": ("n_chars", "min"),
            "max_chars": ("n_chars", "max"),
            "sum_chars": ("n_chars", "sum"),
            "n": ("n_chars", "count"),
        },
    )


def _oround(arr, ndigits: int = 0):
    """Oracle-parity rounding: DuckDB round() is half-away-from-zero; Arrow's
    default is half-to-even. Arrow's half_towards_infinity rounds halves away
    from zero for BOTH signs (0.5->1, -0.5->-1), matching DuckDB exactly."""
    return pc.round(arr, ndigits=ndigits, round_mode="half_towards_infinity")


def _rev_cc(t: pa.Table):
    """Discounted lineitem revenue in integer centi-cents: cents(price) *
    (100 - discount percent), both rounded like the oracle. Integer-exact,
    so sums agree with DuckDB in any aggregation order."""
    base_c = pc.cast(_oround(pc.multiply(t["l_extendedprice"], 100.0)), pa.int64())
    disc_pct = pc.cast(_oround(pc.multiply(t["l_discount"], 100.0)), pa.int64())
    return pc.multiply(base_c, pc.subtract(pa.scalar(100, pa.int64()), disc_pct))


def _event_type_vocab(sf_dir: str) -> pa.Array:
    """The sorted distinct event types: each block thins to its own
    distinct set before Ray's ``unique`` pass, so only |types| x blocks
    rows leave the scan."""
    types = (
        _read(sf_dir, "events", ["event_type"])
        .map_batches(
            lambda t: pa.table(
                {"event_type": pa.array(np.unique(
                    t["event_type"].to_numpy(zero_copy_only=False)
                ).tolist(), pa.string())}
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .unique("event_type")
    )
    return pa.array(sorted(types), pa.string())


def _supplier_nations(sf_dir: str):
    """The supplier dimension keyed for a lineitem lookup join,
    (l_suppkey, s_nat int64), and its row count from parquet metadata
    (a sound right_count bound for the size-guarded join)."""
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).map_batches(
        lambda t: pa.table(
            {
                "l_suppkey": t["s_suppkey"],
                "s_nat": pc.cast(t["s_nationkey"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return supp, _read(sf_dir, "supplier", ["s_suppkey"]).count()


def _collect_dict(ds, key: str, value: str) -> dict:
    """``{key: value}`` over a bounded Dataset, collected as one Arrow
    table (no row dicts); ``{}`` when it is empty."""
    t = collect_table(ds)
    if not t.num_rows:
        return {}
    return dict(zip(t[key].to_pylist(), t[value].to_pylist()))


def _dim_map(sf_dir: str, table: str, key: str, value: str) -> dict:
    """``{key: value}`` of a small dimension table (nation, region)."""
    return _collect_dict(_read(sf_dir, table, [key, value]), key, value)


def _ids_keep(id_col: str, *ids):
    """``id_set_filter`` keeping the rows whose ``id_col`` is in the union
    of the BOUNDED int id arrays ``ids`` (winners, candidate pairs)."""
    from ..stages.dedup import id_set_filter

    u = np.unique(np.concatenate([np.asarray(i, np.int64) for i in ids]))
    return id_set_filter(u, id_col, keep=True)


def _rows_by_key(sf_dir: str, table: str, schema: pa.Schema, ids) -> pa.Table:
    """The ``schema`` columns of ``table`` for a few winner ``ids`` of its
    unique int key (``schema``'s first column), in ``ids``' order: one
    scan through ``_ids_keep``, so only the winners' rows reach the driver
    (the dimension is SF-scaled; it is never collected whole)."""
    key = schema.names[0]
    ids = np.asarray(ids, np.int64)
    t = collect_table(_ids_keep(key, ids)(_read(sf_dir, table, schema.names)), schema)
    t = t.sort_by(key)
    return t.take(pa.array(np.searchsorted(t[key].to_numpy(), ids), pa.int64()))


def _partial_sums(ds, cols) -> pa.Table:
    """One row: each int ``cols`` column summed over the per-block partial
    rows of ``ds`` (O(blocks) rows reach the driver). The sums run on
    Python ints, so an int64 overflow raises instead of wrapping."""
    t = collect_table(ds, pa.schema({c: pa.int64() for c in cols}))
    return pa.table({c: pa.array([sum(t[c].to_pylist())], pa.int64()) for c in cols})


def _nation_names(sf_dir: str) -> np.ndarray:
    """n_name by n_nationkey in a 32-slot object array: the 5-bit nation
    pack of the grid queries (a key outside it raises)."""
    names = np.empty(32, dtype=object)
    for k, v in _dim_map(sf_dir, "nation", "n_nationkey", "n_name").items():
        if not 0 <= k < 32:
            raise ValueError("n_nationkey out of 5-bit pack range")
        names[k] = v
    return names


def _region_nations(sf_dir: str, region: str) -> np.ndarray:
    """Sorted int64 n_nationkey of the nations in the region named
    ``region``."""
    regions = _dim_map(sf_dir, "region", "r_regionkey", "r_name")
    regs = {k for k, v in regions.items() if v == region}
    nats = _dim_map(sf_dir, "nation", "n_nationkey", "n_regionkey")
    return np.array(sorted(k for k, r in nats.items() if r in regs), np.int64)


def _top_k(ds, k: int, val: str, tie: str, schema: pa.Schema) -> pa.Table:
    """The ``k`` rows of ``ds`` with the largest ``val`` (smaller ``tie``
    first on equal values), in that order, as a ``schema`` table: each
    block keeps its own top k, so the driver collects O(blocks x k) rows."""

    def top(t: pa.Table) -> pa.Table:
        v = t[val].to_numpy(zero_copy_only=False)
        order = np.lexsort((t[tie].to_numpy(zero_copy_only=False), -v))[:k]
        return t.take(pa.array(order, pa.int64()))

    return top(collect_table(ds.map_batches(top, batch_format="pyarrow"), schema))


def q1_pricing_summary(sf_dir: str):
    """TPC-H Q1-shaped pricing summary; monetary sums in integer cents."""
    ds = _read(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def prep(t: pa.Table) -> pa.Table:
        # integer-cent arithmetic end to end: no float summation, no rounding
        # ambiguity vs the oracle regardless of aggregation order
        return pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "l_linestatus": t["l_linestatus"],
                "qty": pc.cast(_oround(t["l_quantity"]), pa.int64()),
                "base_cents": pc.cast(
                    _oround(pc.multiply(t["l_extendedprice"], 100.0)), pa.int64()
                ),
                "disc_centicents": _rev_cc(t),
            }
        )

    return grouped_reduce(
        ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        ["l_returnflag", "l_linestatus"],
        {
            "sum_qty": ("qty", "sum"),
            "sum_base_cents": ("base_cents", "sum"),
            "sum_disc_centicents": ("disc_centicents", "sum"),
            "count_order": ("qty", "count"),
        },
    )


def _event_type_count_ds(sf_dir: str):
    """Exact per-event-type counts."""
    return grouped_reduce(
        _read(sf_dir, "events", ["event_type"]),
        "event_type",
        {"n": ("event_type", "count")},
    )


def event_type_counts(sf_dir: str):
    """Exact event-type frequencies (heavy-hitter ground truth)."""
    return _event_type_count_ds(sf_dir)


def top_event_types(sf_dir: str):
    """Top-3 event types by exact count (sort + limit readout)."""
    return _event_type_count_ds(sf_dir).sort("n", descending=True).limit(3)


def hll_by_lang_salted(sf_dir: str):
    """Grouped HLL with salted keys (hot-group skew absorption)."""
    from ..stages.builder import build_grouped_salted

    ds = _read(sf_dir, "documents", ["lang", "source"])
    return build_grouped_salted(
        ds,
        SketchSpec.of("hll", 14),
        on="source",
        key="lang",
        salt=4,
        finalizer=lambda s: float(s.estimate()),
        alias="est_sources",
    )


def events_tumbling_hourly(sf_dir: str):
    """Tumbling 1h event-time windows: per (event_type, window) count + sum."""
    from ..stages.windows import tumbling_counts

    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])
    return tumbling_counts(ds, key="event_type", size_s=3600)


def events_hopping_15m(sf_dir: str):
    """Hopping windows: 1h windows advancing every 15 min (4x overlap)."""
    from ..stages.windows import hopping_counts

    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])
    return hopping_counts(ds, key="event_type", size_s=3600, hop_s=900)


def exact_quantiles_by_lang(sf_dir: str):
    """Exact per-lang quartiles of n_chars (percentile_disc semantics:
    sorted[ceil(q*n)-1], p100 = max) — the exact twin of the grouped
    t-digest/KLL build.

    Scale shape (shared with cont_quantiles_by_lang, which see): ONE scan
    emits per-block (lang, n_chars) count partials, the groupby shuffles
    only the |langs| x |distinct n_chars|-bounded histogram, and the driver
    reads order statistics off cumulative counts — no per-group whole-value
    materialization anywhere (the previous map_groups form put an entire
    language's rows in one worker; at corpus scale one dominant language is
    most of the data)."""
    df = _lang_value_histogram(sf_dir)
    out = {"lang": [], "p25": [], "p50": [], "p75": [], "p100": []}
    for lang, grp in df.groupby("k", sort=True):
        grp = grp.sort_values("v")
        vs = grp["v"].to_numpy()
        cum = np.cumsum(grp["cnt"].to_numpy())
        n = int(cum[-1])
        out["lang"].append(lang)
        for q in (0.25, 0.5, 0.75):
            # percentile_disc: 1-based rank ceil(q*n); exact integer rank
            # ceremony (no float q*n — (q_num*n + q_den - 1) // q_den with
            # q = q_num/q_den keeps the rank exact for the quartile grid)
            q_num, q_den = {0.25: (1, 4), 0.5: (2, 4), 0.75: (3, 4)}[q]
            rank = max((q_num * n + q_den - 1) // q_den, 1)
            out[f"p{int(q * 100)}"].append(int(vs[np.searchsorted(cum, rank)]))
        out["p100"].append(int(vs[-1]))
    return pa.table(
        {
            "lang": pa.array(out["lang"], pa.string()),
            "p25": pa.array(out["p25"], pa.int64()),
            "p50": pa.array(out["p50"], pa.int64()),
            "p75": pa.array(out["p75"], pa.int64()),
            "p100": pa.array(out["p100"], pa.int64()),
        }
    )


def hourly_active_users(sf_dir: str):
    """Exact count(DISTINCT user_id) per tumbling hour — the exact twin of a
    grouped HLL build.

    Scale shape: dedupe per block first (in-batch numpy unique over the
    (window, user) pair), THEN one native groupby over the already-thinned
    pair stream, then a tiny per-window count. The pre-dedupe means the
    shuffle carries at most one row per (window, user, block) instead of one
    per event; when even the distinct pair set is too large, swap the tail
    for hll_by_lang's grouped-sketch build (same call shape)."""
    ds = _read(sf_dir, "events", ["ts", "user_id"])

    def pair_dedupe(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        win = us // 3_600_000_000
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((uid, win))
        w, u = win[order], uid[order]
        keep = np.ones(len(w), dtype=bool)
        keep[1:] = (w[1:] != w[:-1]) | (u[1:] != u[:-1])
        return pa.table({"window": pa.array(w[keep]), "user_id": pa.array(u[keep])})

    from ray.data.aggregate import Count

    pairs = ds.map_batches(pair_dedupe, batch_format="pyarrow", zero_copy_batch=True)
    distinct = pairs.groupby(["window", "user_id"]).aggregate(Count(alias_name="_n"))
    out = (
        distinct.select_columns(["window"])
        .groupby("window")
        .aggregate(Count(alias_name="n_users"))
    )
    return out.sort("window")


def hll_hourly_users(sf_dir: str):
    """Approximate distinct users per tumbling hour — the sketch x window
    composition every streaming dashboard runs at scale: one HLL(p=12) per
    window via the grouped mergeable aggregate, so only O(windows x blocks)
    4 KB sketch partials cross the exchange (the exact twin shuffles the
    distinct pair stream — fine here, prohibitive when users x windows is
    large). SELF-EVIDENCE in-band per window (the hll_by_lang convention):
    the exact count (hourly_active_users' pair-dedupe tail), rel_err, and
    a bound check of |est - n| <= max(3 * 1.04/sqrt(2^p) * n, 2): the
    published 3-sigma multiplicative bound plus a 2-user absolute floor —
    at n << 2^p the estimator sits in the DISCRETE linear-counting regime
    where a single register collision moves the estimate by ~1 user, so a
    purely multiplicative per-window bound is vacuously tight and fails on
    the ~1% of windows that draw a collision (observed at sf0.01: max
    rel_err 0.09 on an 11-user window = exactly one collision)."""
    from ..stages.builder import build_grouped

    p = 12
    ds = _read(sf_dir, "events", ["ts", "user_id"])

    def win_col(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "window": pa.array(us // 3_600_000_000, pa.int64()),
                "user_id": t["user_id"],
            }
        )

    est = collect_table(
        build_grouped(
            ds.map_batches(win_col, batch_format="pyarrow", zero_copy_batch=True),
            SketchSpec.of("hll", p),
            on="user_id",
            key="window",
            finalizer=lambda s: float(s.estimate()),
            alias="est_users",
        ),
        pa.schema({"window": pa.int64(), "est_users": pa.float64()}),
    ).sort_by("window")  # bounded: one row per window
    exact = _collect_dict(hourly_active_users(sf_dir), "window", "n_users")
    win = est["window"].to_numpy()
    e = est["est_users"].to_numpy()
    return _hll_window_evidence(win, e, [exact[w] for w in win.tolist()], p)


def _hll_window_evidence(win, est, exact, p: int) -> pa.Table:
    """Per-window HLL evidence table: the estimate (3 dp), the exact count,
    rel_err (6 dp) and |est - n| <= max(3 sigma * n, 2) (the discrete
    linear-counting floor: see hll_hourly_users)."""
    e = np.asarray(est, np.float64)
    x = np.asarray(exact, np.int64)
    rel = np.abs(e - x) / np.maximum(x, 1)
    return pa.table(
        {
            "window": pa.array(win, pa.int64()),
            "est_users": pa.array(np.floor(e * 1e3 + 0.5) / 1e3, pa.float64()),
            "n_users": pa.array(x, pa.int64()),
            "rel_err": pa.array(np.floor(rel * 1e6 + 0.5) / 1e6, pa.float64()),
            "within_bound": pa.array(
                np.abs(e - x) <= np.maximum(3 * 1.04 / math.sqrt(2**p) * x, 2.0),
                pa.bool_(),
            ),
        }
    )


def hll_hopping_users(sf_dir: str):
    """Distinct users per HOPPING hour (1h windows every 15 min) via PANE
    MERGING — the architectural reason mergeable sketches matter for
    overlapping windows: each event updates ONE 15-min pane HLL (no 4x
    fan-out of the stream), and every hop's estimate is the driver-side
    merge of its 4 pane registers (O(hops x 4) 4 KB merges, corpus-size
    independent). The exact twin must fan every event out 4x and shuffle
    the (hop, user) pair stream — the cost the sketch path avoids.

    SELF-EVIDENCE in-band per hop (the hll_hourly_users convention and
    the same discrete-regime bound): exact count, rel_err, and
    |est - n| <= max(3sigma * n, 2)."""
    from ray.data.aggregate import Count

    from ..kernel.hll import HyperLogLog
    from ..stages.builder import build_grouped

    p = 12
    pane_s, span_panes = 900, 4  # 15-min panes (the hop), 1h = 4 panes
    ds = _read(sf_dir, "events", ["ts", "user_id"])

    def pane_col(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "pane": pa.array(us // (pane_s * 1_000_000), pa.int64()),
                "user_id": t["user_id"],
            }
        )

    spec = SketchSpec.of("hll", p)
    panes = {
        q: spec.from_bytes(b)
        for q, b in _collect_dict(
            build_grouped(
                ds.map_batches(pane_col, batch_format="pyarrow", zero_copy_batch=True),
                spec,
                on="user_id",
                key="pane",
                alias="sk",
            ),
            "pane",
            "sk",
        ).items()
    }  # bounded: one row per pane
    est = {}
    # every hop start whose span holds at least one pane
    for start in sorted({q - k for q in panes for k in range(span_panes)}):
        members = [panes[q] for q in range(start, start + span_panes) if q in panes]
        acc = HyperLogLog(p)
        for m in members:
            acc.merge(m)
        est[start] = float(acc.estimate())

    # exact twin: the 4x fan-out the pane path avoids — per-block dedupe
    # of (hop, user) pairs, then the thinned distinct-pair shuffle
    def hop_pairs(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        pane = us // (pane_s * 1_000_000)
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        hops = np.concatenate([pane - k for k in range(span_panes)])
        uids = np.tile(uid, span_panes)
        order = np.lexsort((uids, hops))
        h, u = hops[order], uids[order]
        keep = np.ones(len(h), dtype=bool)
        keep[1:] = (h[1:] != h[:-1]) | (u[1:] != u[:-1])
        return pa.table({"window": pa.array(h[keep]), "user_id": pa.array(u[keep])})

    pairs = ds.map_batches(hop_pairs, batch_format="pyarrow", zero_copy_batch=True)
    distinct = pairs.groupby(["window", "user_id"]).aggregate(Count(alias_name="_n"))
    exact = _collect_dict(
        distinct.select_columns(["window"])
        .groupby("window")
        .aggregate(Count(alias_name="n_users")),
        "window",
        "n_users",
    )
    wins = sorted(set(est) & set(exact))
    return _hll_window_evidence(
        wins, [est[w] for w in wins], [exact[w] for w in wins], p
    )


def tdigest_hourly_value(sf_dir: str):
    """Per-hour value percentiles (p50/p95) via grouped t-digest — the
    latency-dashboard shape: one mergeable digest per tumbling window,
    O(windows x blocks) centroid partials across the exchange, never the
    value stream. SELF-EVIDENCE in-band with the 100 TB-correct check:
    instead of collecting per-window value histograms (O(corpus) rows),
    ONE distributed rank pass broadcasts the 720 estimates and counts
    n_le(est) per window — rank_err = |n_le/n - q| measures the digest's
    published rank accuracy directly. Bound: |rank - q| <= 0.03 + 1.5/n:
    at ~140 rows/window the rank GRANULARITY dominates the digest's own
    error at delta=200, and centroid interpolation between adjacent data
    points can cross one extra point, so the discrete floor is 1.5 rank
    steps (observed: a 13-row window at 1.5/13)."""
    from ..stages.builder import build_grouped

    ds = _read(sf_dir, "events", ["ts", "value"])

    def win_col(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "window": pa.array(us // 3_600_000_000, pa.int64()),
                "value": t["value"],
            }
        )

    wds = ds.map_batches(win_col, batch_format="pyarrow", zero_copy_batch=True)
    spec = SketchSpec.of("tdigest", 200.0)
    sks = _collect_dict(
        build_grouped(wds, spec, on="value", key="window", alias="sk"), "window", "sk"
    )
    wins = np.array(sorted(sks), dtype=np.int64)
    q = np.array(
        [spec.from_bytes(sks[w]).quantile([0.5, 0.95]) for w in wins.tolist()],
        dtype=np.float64,
    ).reshape(-1, 2)
    p50, p95 = q[:, 0], q[:, 1]

    def ranks(t: pa.Table) -> pa.Table:
        w = t["window"].to_numpy(zero_copy_only=False)
        v = t["value"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(wins, w)
        return pa.table(
            {
                "window": t["window"],
                "le50": pa.array((v <= p50[pos]).astype(np.int64), pa.int64()),
                "le95": pa.array((v <= p95[pos]).astype(np.int64), pa.int64()),
            }
        )

    agg = collect_table(
        grouped_reduce(
            wds.map_batches(ranks, batch_format="pyarrow", zero_copy_batch=True),
            "window",
            {"n_le50": ("le50", "sum"), "n_le95": ("le95", "sum"), "n": (None, "count_all")},
        ),
        pa.schema({c: pa.int64() for c in ("window", "n_le50", "n_le95", "n")}),
    ).sort_by("window")  # bounded: one row per window, the windows of wins
    n = agg["n"].to_numpy()
    r50 = agg["n_le50"].to_numpy() / n
    r95 = agg["n_le95"].to_numpy() / n
    tol = 0.03 + 1.5 / n
    ok = (np.abs(r50 - 0.5) <= tol) & (np.abs(r95 - 0.95) <= tol)

    def r6(a):
        return np.floor(np.abs(a) * 1e6 + 0.5) / 1e6 * np.sign(a)

    return pa.table(
        {
            "window": pa.array(wins, pa.int64()),
            "est_p50": pa.array(r6(p50), pa.float64()),
            "est_p95": pa.array(r6(p95), pa.float64()),
            "n": pa.array(n, pa.int64()),
            "rank50": pa.array(r6(r50), pa.float64()),
            "rank95": pa.array(r6(r95), pa.float64()),
            "within_bound": pa.array(ok, pa.bool_()),
        }
    )


def events_window_dedup(sf_dir: str):
    """Window-scoped exact dedup (streaming idempotency dedup): per tumbling
    hour, how many distinct (user_id, event_type) combinations fired vs raw
    event rows — the dedup-before-aggregate step every at-least-once event
    pipeline needs.

    Scale shape (the hourly_active_users pattern widened to a composite
    key): per-block numpy dedupe of (window, user, type) triples, then one
    native groupby over the thinned triple stream; raw counts ride a
    separate per-block count partial. The shuffle carries at most one row
    per (triple, block), never one per event."""
    ds = _read(sf_dir, "events", ["ts", "user_id", "event_type"])

    def triple_dedupe(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        win = us // 3_600_000_000
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        # dictionary-encode event_type so the lexsort stays numeric
        et = t["event_type"].combine_chunks().dictionary_encode()
        code = et.indices.to_numpy(zero_copy_only=False)
        order = np.lexsort((code, uid, win))
        w, u, c = win[order], uid[order], code[order]
        keep = np.ones(len(w), dtype=bool)
        keep[1:] = (w[1:] != w[:-1]) | (u[1:] != u[:-1]) | (c[1:] != c[:-1])
        types = et.dictionary.take(pa.array(c[keep]))
        return pa.table(
            {
                "window": pa.array(w[keep]),
                "user_id": pa.array(u[keep]),
                "event_type": types,
            }
        )

    from ray.data.aggregate import Count, Sum

    pairs = ds.map_batches(triple_dedupe, batch_format="pyarrow", zero_copy_batch=True)
    distinct = pairs.groupby(["window", "user_id", "event_type"]).aggregate(
        Count(alias_name="_n")
    )
    uniq = (
        distinct.select_columns(["window"])
        .groupby("window")
        .aggregate(Count(alias_name="n_unique"))
    )

    def raw_counts(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        win, n = np.unique(us // 3_600_000_000, return_counts=True)
        return pa.table({"window": pa.array(win), "n_part": pa.array(n)})

    raw = (
        ds.map_batches(raw_counts, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("window")
        .aggregate(Sum("n_part", alias_name="n_events"))
    )
    u = _collect_dict(uniq, "window", "n_unique")
    r_ = _collect_dict(raw, "window", "n_events")
    wins = sorted(u)
    return pa.table(
        {
            "window": pa.array(wins, pa.int64()),
            "n_unique": pa.array([u[w] for w in wins], pa.int64()),
            "n_events": pa.array([r_[w] for w in wins], pa.int64()),
        }
    )


def user_sessions(sf_dir: str):
    """Gap-based session windows (30 min) per user over the events log."""
    from ..stages.windows import sessionize

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts"])
    return sessionize(ds, key="user_id", gap_s=1800)


def orders_semi_join(sf_dir: str):
    """Bloom-pruned exact semi-join: lineitems of orders with totalprice>150k.

    The Bloom filter prunes the probe side (no false negatives); an exact
    verification removes false positives, so the result is exactly the SQL
    semi-join while only the pruned survivor stream pays the exact check
    (the reference's Get/cache-guard pattern at dataset scale,
    bloom.go:220-236).

    SIZE GUARD (enforced, not advisory): the exact verify is
    ``id_set_filter`` — up to ``joins.DIM_BROADCAST_MAX`` build-side keys a
    broadcast membership test per block; above that the pruned survivors
    run a distributed hash semi-join against the (unique-key) build side —
    the bloom prune still spares the join the non-qualifying bulk."""
    from ..stages.dedup import id_set_filter

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    hot = orders.map_batches(
        lambda t: t.filter(pc.greater(t["o_totalprice"], 150_000.0)),
        batch_format="pyarrow",
    ).select_columns(["o_orderkey"]).materialize()
    n_hot = hot.count()
    bf = build_sketch(
        hot, SketchSpec.of("bloom", 0.01, max(n_hot, 11)), on="o_orderkey"
    )
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])
    pruned = probe_filter(li, bf, on="l_orderkey", mode="maybe")
    keys = hot.map_batches(
        lambda t: t.rename_columns(["l_orderkey"]), batch_format="pyarrow"
    )
    exact = id_set_filter(keys, "l_orderkey", keep=True, n_ids=n_hot)(pruned)
    from ray.data.aggregate import Count, Sum

    def prep(t: pa.Table) -> pa.Table:
        return t.set_column(
            t.schema.get_field_index("l_quantity"),
            "l_quantity",
            pc.cast(_oround(t["l_quantity"]), pa.int64()),
        )

    out = (
        exact.map_batches(prep, batch_format="pyarrow")
        .groupby("l_orderkey")
        .aggregate(Sum("l_quantity", alias_name="sum_qty"), Count(alias_name="n_items"))
    )
    return out


def lang_sources_matrix(sf_dir: str):
    """Exact distinct sources per lang — twin of grouped HLL.

    Scale shape (mirrors hourly_active_users): dedupe (lang, source) pairs
    per block with one vectorized Arrow group_by, THEN a native distributed
    groupby over the thinned pair stream, then a tiny per-lang count — the
    shuffle carries at most one row per (lang, source, block), and no
    whole-lang group ever lands in one Python call."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "documents", ["lang", "source"])
    pairs = ds.map_batches(
        lambda t: t.group_by(["lang", "source"]).aggregate([]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    distinct = pairs.groupby(["lang", "source"]).aggregate(Count(alias_name="_n"))
    return (
        distinct.select_columns(["lang"])
        .groupby("lang")
        .aggregate(Count(alias_name="n_sources"))
    )


_ID_PAIRS = pa.schema({"left_id": pa.int64(), "right_id": pa.int64()})


def _same_fingerprint(pairs: pa.Table, fp: pa.Table, id_col: str) -> pa.Table:
    """The rows of ``pairs`` whose two ids agree on every fingerprint
    column of ``fp`` (one row per id: ``id_col`` plus the fingerprints)."""
    fp = fp.sort_by(id_col)
    ids = fp[id_col].to_numpy()
    li = np.searchsorted(ids, pairs["left_id"].to_numpy())
    ri = np.searchsorted(ids, pairs["right_id"].to_numpy())
    same = np.ones(pairs.num_rows, dtype=bool)
    for c in fp.column_names:
        if c != id_col:
            v = fp[c].to_numpy()
            same &= v[li] == v[ri]
    return pairs.filter(pa.array(same))


def exact_dup_pairs(sf_dir: str) -> pa.Table:
    """All exact-duplicate doc pairs (SQL twin: text self-join, id<id); a
    schema-bearing table even when empty.

    Scale shape mirrors the LSH tail: docs shuffle as (int64 fingerprint,
    doc_id) only — content never moves. A native count-aggregate finds
    fingerprint buckets with >= 2 docs; pair expansion touches only those.
    Hash collisions (distinct texts, equal murmur3-64) are removed by
    requiring a SECOND independent fingerprint (seed 1) to also agree —
    128 bits of agreement total, fetched only for the candidate ids."""
    from ..kernel.murmur3 import hash_keys
    from ..stages.dedup import lsh_candidate_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def key_rows(t: pa.Table) -> pa.Table:
        h0, h1 = hash_keys(t["text"], (0, 1))
        return pa.table(
            {
                "bucket_key": pa.array(h0.view(np.int64)),
                "h1": pa.array(h1.view(np.int64)),
                "doc_id": t["doc_id"],
            }
        )

    keyed = ds.map_batches(
        key_rows, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()  # 24 B/row; consumed by hot-count, expansion and verify
    # hot-bucket filter is size-guarded inside (broadcast -> semi-join)
    cand = collect_table(lsh_candidate_pairs(keyed, max_bucket=4096), _ID_PAIRS)
    if not cand.num_rows:
        return cand
    # collision verify: the candidates' h1 values only
    h1 = collect_table(
        _ids_keep("doc_id", cand["left_id"], cand["right_id"])(
            keyed.select_columns(["doc_id", "h1"])
        )
    )
    return _same_fingerprint(cand, h1, "doc_id")


def exact_dup_clusters(sf_dir: str):
    """Duplicate-cluster assignment per doc: connected components over the
    exact-dup pair set (min doc_id as representative). Oracle twin:
    min(doc_id) OVER (PARTITION BY text) — identical because exact-dup
    pairs form a clique per distinct text."""
    import ray.data as rd

    from ..stages.dedup import connected_components_distributed

    return connected_components_distributed(
        rd.from_arrow(exact_dup_pairs(sf_dir)),
        nodes_ds=_read(sf_dir, "documents", ["doc_id"]),
    )


# --------------------------------------------------------------------------
# Sketch queries (approximate -> rows-only driver check; bounds in pytest)
# --------------------------------------------------------------------------


def bloom_build_stats(sf_dir: str):
    """Build a Bloom filter over sha256(text); emit its stats row."""
    ds = _read(sf_dir, "documents", ["text"])
    n = ds.count()
    ds = ds.map_batches(
        lambda t: add_sha256(t, column="text"), batch_format="pyarrow"
    )
    bf = build_sketch(
        ds, SketchSpec.of("bloom", 0.001, max(int(n * 1.2), 11)), on="sha256"
    )
    s = bf.stats()
    return pa.table(
        {
            "capacity": pa.array([s.capacity], pa.int64()),
            "count": pa.array([s.count], pa.int64()),
            "size": pa.array([s.size], pa.int64()),
            "m": pa.array([s.m], pa.int64()),
            "k": pa.array([s.k], pa.int64()),
            "prob": pa.array([s.prob], pa.float64()),
        }
    )


def sbf_build_stats(sf_dir: str):
    """Scalable-bloom build over text digests (growth exercised); stats row."""
    ds = _read(sf_dir, "documents", ["text"])
    n = ds.count()
    ds = ds.map_batches(lambda t: add_sha256(t, column="text"), batch_format="pyarrow")
    sbf = build_sketch(
        ds, SketchSpec.of("sbf", 0.001, max(n // 8, 11)), on="sha256"
    )
    s = sbf.stats()
    # in-band self-evidence: growth actually fired (initial capacity is
    # n//8, so a correct build MUST have grown), the compound FPR bound
    # stays near the configured eps (1 - prod(1 - eps*r^i) < eps/(1-r)),
    # and count survived the distributed merge exactly.
    # NOTE: no SQL oracle by design — stage count depends on per-partial
    # row volumes (merge aligns levels), which SQL cannot see.
    return pa.table(
        {
            "capacity": pa.array([s.capacity], pa.int64()),
            "count": pa.array([s.count], pa.int64()),
            "stages": pa.array([len(sbf.filters)], pa.int64()),
            "prob_bound": pa.array([s.prob], pa.float64()),
            "count_exact": pa.array([s.count == n]),
            "grew": pa.array([len(sbf.filters) > 1]),
            "bound_below_compound_limit": pa.array(
                [s.prob < 0.001 / (1.0 - 0.9)]
            ),
        }
    )


def sbf_build_stats_exact(sf_dir: str):
    """ORACLE-EXACT growth-schedule twin of the scalable bloom build —
    one row per stage of the sequential-semantics fill.

    The distributed count (one pruned scan) drives a real
    ScalableBloomFilter through the reference's single-process add loop
    (scalable_bloom.go:81-100): growth triggers on COUNTS alone, never key
    values, so the synthetic fill exercises the genuine grow/derive code.
    Per-stage geometry is the reference schedule — err_i = err0 * 0.9^i
    (scalable_bloom.go:161), cap_i = trunc(m0 * s^(i-1) * ln 2) floored at
    11 (scalable_bloom.go:174-178), and each stage's (k, m_bits, m, size)
    via the fixed-filter derivation (bloom.go:100-114) — every column
    reproduced in SQL as closed-form IEEE-double expressions of count(*)
    (the bloom_build_stats discipline; boundary safety pinned by the
    stage-index sweep test). The DISTRIBUTED-merge build keeps its own
    self-evidence row in sbf_build_stats: its stage count depends on
    per-partial row volumes, which SQL cannot see."""
    from ..kernel.scalable_bloom import ScalableBloomFilter

    ds = _read(sf_dir, "documents", ["doc_id"])
    n = ds.count()
    sbf = ScalableBloomFilter(0.001, max(n // 8, 11))
    pos = 0
    while pos < n:
        take = min(65536, n - pos)
        sbf.add_batch(np.arange(pos, pos + take).astype(np.bytes_))
        pos += take
    sizes = np.array([f.filter_size() for f in sbf.filters], dtype=np.int64)
    return pa.table(
        {
            "stage": pa.array(np.arange(len(sbf.filters), dtype=np.int64)),
            "err_rate": pa.array(
                [f.err_rate for f in sbf.filters], pa.float64()
            ),
            "capacity": pa.array(
                [f.capacity for f in sbf.filters], pa.int64()
            ),
            "k": pa.array([f.k for f in sbf.filters], pa.int64()),
            "m": pa.array([f.m for f in sbf.filters], pa.int64()),
            "size": pa.array(sizes),
            "cum_size": pa.array(np.cumsum(sizes)),
            "n_added": pa.array([f.count for f in sbf.filters], pa.int64()),
        }
    )


def bloom_probe_prune(sf_dir: str):
    """Membership pruning: build on documents' digests, probe digests +
    disjoint keys; report kept counts (no false negatives by construction).

    Single-pass shape: sha256 runs ONCE (the digest-only projection is
    materialized, so the build scan and the probe scan don't each recompute
    it), and members + foreign keys are probed in ONE flagged pass instead
    of two separate probe executions."""
    import ray.data as rd

    ds = _read(sf_dir, "documents", ["text"])
    hashed = (
        ds.map_batches(lambda t: add_sha256(t, column="text"), batch_format="pyarrow")
        .select_columns(["sha256"])
        .materialize()  # digests only (~100 B/row); consumed by build + probe
    )
    n = hashed.count()
    bf = build_sketch(hashed, SketchSpec.of("bloom", 0.001, max(n * 2, 11)), on="sha256")

    def flag(v):
        def inner(t: pa.Table) -> pa.Table:
            return t.append_column(
                "is_member", pa.array(np.full(t.num_rows, v, dtype=np.int64))
            )

        return inner

    foreign = rd.from_arrow(
        pa.table({"sha256": pa.array([f"not-a-digest-{i}" for i in range(10_000)])})
    )
    both = hashed.map_batches(flag(1), batch_format="pyarrow").union(
        foreign.map_batches(flag(0), batch_format="pyarrow")
    )
    by_flag = _collect_dict(
        grouped_reduce(
            probe_filter(both, bf, on="sha256", mode="maybe"),
            "is_member",
            {"n": ("is_member", "count")},
        ),
        "is_member",
        "n",
    )
    # in-band self-evidence: the two reference guarantees the driver's
    # rows-only record should carry — zero false negatives (bloom.go's
    # Contains contract) and measured FPR within the configured epsilon
    # (3-sigma binomial slack on 10k probes)
    fpr = by_flag.get(0, 0) / 10_000
    eps = bf.stats().prob
    return pa.table(
        {
            "members": pa.array([n], pa.int64()),
            "members_kept": pa.array([by_flag.get(1, 0)], pa.int64()),
            "foreign_probes": pa.array([10_000], pa.int64()),
            "foreign_kept": pa.array([by_flag.get(0, 0)], pa.int64()),
            "no_false_negatives": pa.array([by_flag.get(1, 0) == n]),
            "fpr_within_eps": pa.array(
                [fpr <= eps + 3.0 * math.sqrt(eps * (1 - eps) / 10_000)]
            ),
        }
    )


def hll_cardinalities(sf_dir: str):
    """HLL estimates for documents' source/lang/text cardinalities — all
    three sketches built in ONE scan via multi_sketch_build — with
    SELF-EVIDENCE columns: the exact distinct count per column (a
    distributed groupby whose group COUNT is read, never its values),
    relative error, and the 3-sigma 3*1.04/sqrt(2^p) bound check."""
    ds = _read(sf_dir, "documents", ["source", "lang", "text"])
    built = multi_sketch_build(
        ds, {c: (SketchSpec.of("hll", 14), c) for c in ("source", "lang", "text")}
    )
    bound = 3.0 * 1.04 / math.sqrt(2**14)
    rows = []
    for c in ("source", "lang", "text"):
        est = float(built[c].estimate())
        # exact distinct: nulls dropped (the sketch build drops them too),
        # values pre-deduped PER BLOCK with one Arrow group_by so the
        # distributed groupby shuffles at most one row per (value, block)
        # instead of the whole raw column (load-bearing for text)
        thinned = ds.map_batches(
            lambda t, col=c: t.select([col]).drop_null().group_by([col]).aggregate([]),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        exact = thinned.groupby(c).count().count()
        rel = abs(est - exact) / max(exact, 1)
        rows.append(
            {
                "column": c,
                "estimate": est,
                "exact": exact,
                "rel_err": float(np.floor(rel * 1e6 + 0.5) / 1e6),
                "within_bound": rel <= bound,
            }
        )
    return pa.Table.from_pylist(rows)


def hll_by_lang(sf_dir: str):
    """Grouped HLL: distinct sources per lang, with SELF-EVIDENCE columns —
    the exact per-lang distinct count (the distributed pair-dedupe shape of
    lang_sources_matrix), the relative error, and the 3-sigma bound check
    (3 * 1.04 / sqrt(2^p), the published HLL standard error) — so the
    driver's rows-only record carries the accuracy claim in-band."""
    ds = _read(sf_dir, "documents", ["lang", "source"])
    est = collect_table(
        build_grouped(
            ds,
            SketchSpec.of("hll", 14),
            on="source",
            key="lang",
            finalizer=lambda s: float(s.estimate()),
            alias="est_sources",
        ),
        pa.schema({"lang": pa.string(), "est_sources": pa.float64()}),
    ).sort_by("lang")
    exact = _collect_dict(lang_sources_matrix(sf_dir), "lang", "n_sources")
    ex = np.array([exact[l] for l in est["lang"].to_pylist()], dtype=np.int64)
    rel = np.abs(est["est_sources"].to_numpy() - ex) / np.maximum(ex, 1.0)
    bound = 3.0 * 1.04 / math.sqrt(2**14)
    return (
        est.append_column("exact_sources", pa.array(ex))
        .append_column("rel_err", pa.array(np.floor(rel * 1e6 + 0.5) / 1e6))
        .append_column("within_bound", pa.array(rel <= bound))
    )


def cms_heavy_hitters(sf_dir: str):
    """CMS frequency estimates for every event_type, with SELF-EVIDENCE
    columns: the exact count (one native distributed groupby), the
    overcount (CMS never undercounts, so over >= 0 always), and the
    epsilon*N guarantee check — the published count-min bounds, carried
    in-band so the driver's rows-only record shows them holding."""
    ds = _read(sf_dir, "events", ["event_type"])
    cms = build_sketch(ds, SketchSpec.of("cms", 0.001, 0.01), on="event_type")
    exact = collect_table(
        _event_type_count_ds(sf_dir), pa.schema({"event_type": pa.string(), "n": pa.int64()})
    ).sort_by("event_type")
    ex = exact["n"].to_numpy()
    n_total = int(ex.sum())
    types = exact["event_type"].to_pylist()
    est = cms.query_batch([t.encode() for t in types]).astype(np.int64)
    over = est - ex
    return pa.table(
        {
            "event_type": exact["event_type"],
            "est_n": pa.array(est),
            "exact_n": pa.array(ex),
            "overcount": pa.array(over),
            "within_bound": pa.array((over >= 0) & (over <= 0.001 * n_total)),
        }
    )


def mg_heavy_hitters(sf_dir: str):
    """Self-candidating heavy hitters: one-pass distributed Misra-Gries.

    Unlike cms_heavy_hitters (which needs an exact candidate set to probe),
    the MG summary finds its own candidates: per-block partials of m=256
    counters, tree-merged with additive error (kernel/misragries.py), then a
    top-10 readout with per-key tight [lower, upper] count intervals. The
    shuffle carries O(blocks x m) counters — row-count-independent."""
    ds = _read(sf_dir, "events", ["user_id"])
    mg = build_sketch(ds, SketchSpec.of("mg", 256), on="user_id")
    rows = mg.topk(10)
    return pa.table(
        {
            "key": pa.array([k for k, _, _ in rows], pa.string()),
            "count_lower": pa.array([lo for _, lo, _ in rows], pa.int64()),
            "count_upper": pa.array([hi for _, _, hi in rows], pa.int64()),
        }
    )


def mg_event_type_exact(sf_dir: str):
    """MG summary degenerates to EXACT grouped counts when m exceeds the key
    cardinality: no partial ever prunes, merges never prune, err_bound stays
    0 — so this distributed sketch build is oracle-checkable against plain
    GROUP BY counts (the asserts make the exactness claim load-bearing)."""
    ds = _read(sf_dir, "events", ["event_type"])
    mg = build_sketch(ds, SketchSpec.of("mg", 64), on="event_type")
    assert mg.err_bound == 0, "m=64 must exceed event_type cardinality"
    items = sorted(mg.counts.items())
    return pa.table(
        {
            "event_type": pa.array([k for k, _ in items], pa.string()),
            "n": pa.array([c for _, c in items], pa.int64()),
        }
    )


def top_source_per_lang(sf_dir: str):
    """Grouped Misra-Gries readout: per-lang most frequent source.

    A distributed grouped sketch build (one MG partial per (block, lang),
    merged inside the groupby-aggregate — skew notes at
    stages/builder.build_grouped) whose m=64 capacity exceeds the source
    cardinality, so every per-group summary is provably exact and the top-1
    readout is oracle-checkable; MG's (count desc, key asc) tie-break is
    mirrored in the SQL twin's ORDER BY."""

    def top1(sk) -> str:
        assert sk.err_bound == 0, "m=64 must exceed source cardinality"
        return sk.topk(1)[0][0]

    ds = _read(sf_dir, "documents", ["lang", "source"])
    out = build_grouped(
        ds, SketchSpec.of("mg", 64), on="source", key="lang",
        finalizer=top1, alias="top_source",
    )
    return out.sort("lang")


def kmv_user_overlap(sf_dir: str):
    """Distinct-set overlap from two KMV sketches: Jaccard / intersection /
    union of (click users, purchase users) WITHOUT a distinct-join.

    Combined bottom-k estimator (Beyer et al. SIGMOD 2007): take the k
    smallest hashes of the union of the two minima sets; the fraction also
    present in BOTH sketches estimates Jaccard; union size comes from the
    k-th minimum; intersection = J x union. Each side is one streaming
    sketch build — the shuffle carries O(blocks x k) minima, and the two
    sides never co-shuffle (vs an exact distinct-join of the raw streams)."""
    ev = _read(sf_dir, "events", ["user_id", "event_type"])
    a = build_sketch(
        ev.filter(expr="event_type == 'click'"), SketchSpec.of("kmv", 512),
        on="user_id",
    )
    b = build_sketch(
        ev.filter(expr="event_type == 'purchase'"), SketchSpec.of("kmv", 512),
        on="user_id",
    )
    ha, hb = set(a.hashes.tolist()), set(b.hashes.tolist())
    exact = a.is_exact() and b.is_exact()
    if exact:
        # below capacity both sketches hold EVERY distinct key: the readout
        # is the exact overlap (ulp-safe: no estimator round-trip), which
        # makes this query oracle-checkable in the exact regime
        union_est = float(len(ha | hb))
        inter_est = float(len(ha & hb))
        j = inter_est / max(union_est, 1.0)
    else:
        union_minima = np.array(sorted(ha | hb), dtype=np.uint64)[: a.k]
        k_used = int(union_minima.size)
        both = sum(1 for h in union_minima.tolist() if h in ha and h in hb)
        j = both / max(k_used, 1)
        if k_used < a.k:
            union_est = float(k_used)
        else:
            union_est = (a.k - 1) / ((float(union_minima[-1]) + 1.0) / float(2**64))
        inter_est = j * union_est

    # SELF-EVIDENCE: the exact overlap from ONE distributed pass — flag
    # each event, groupby user_id with two max-aggregates, count the flag
    # combinations per block and sum the O(blocks) partial rows. The
    # bottom-k Jaccard estimator's 3-sigma binomial bound is
    # 3*sqrt(J(1-J)/k) (Beyer et al. 2007), checked in-band.
    from ray.data.aggregate import Max

    def flag(t: pa.Table) -> pa.Table:
        et = t["event_type"]
        return pa.table(
            {
                "user_id": t["user_id"],
                "c": pc.cast(pc.equal(et, "click"), pa.int8()),
                "p": pc.cast(pc.equal(et, "purchase"), pa.int8()),
            }
        )

    per_user = (
        ev.map_batches(flag, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Max("c", alias_name="c"), Max("p", alias_name="p"))
    )

    def tally(t: pa.Table) -> pa.Table:
        c = t["c"].to_numpy(zero_copy_only=False).astype(bool)
        p = t["p"].to_numpy(zero_copy_only=False).astype(bool)
        return pa.table(
            {
                "n_union": pa.array([int((c | p).sum())], pa.int64()),
                "n_inter": pa.array([int((c & p).sum())], pa.int64()),
            }
        )

    tot = (
        per_user.map_batches(tally, batch_format="pyarrow")
        .sum(["n_union", "n_inter"])
    )
    exact_union = int(tot["sum(n_union)"])
    exact_inter = int(tot["sum(n_inter)"])
    exact_j = exact_inter / max(exact_union, 1)
    bound = 3.0 * math.sqrt(max(exact_j * (1.0 - exact_j), 1e-6) / a.k)
    return pa.table(
        {
            "jaccard": pa.array([j], pa.float64()),
            "union_est": pa.array([union_est], pa.float64()),
            "inter_est": pa.array([inter_est], pa.float64()),
            "exact": pa.array([exact]),
            "exact_jaccard": pa.array(
                [np.floor(exact_j * 1e6 + 0.5) / 1e6], pa.float64()
            ),
            "j_abs_err": pa.array(
                [np.floor(abs(j - exact_j) * 1e6 + 0.5) / 1e6], pa.float64()
            ),
            "within_bound": pa.array([abs(j - exact_j) <= bound]),
        }
    )


def kmv_sources_by_lang_exact(sf_dir: str):
    """Grouped KMV distinct counts, exact-degenerate: per-lang distinct
    sources via one per-(block, lang) bottom-k partial each, merged inside
    the groupby-aggregate. k=256 exceeds the source cardinality so every
    group readout is provably exact (same oracle pattern as
    mg_event_type_exact); the approximate grouped twin is hll_by_lang."""

    def exact_count(sk) -> int:
        assert sk.is_exact(), "k=256 must exceed per-lang source cardinality"
        return int(sk.estimate())

    ds = _read(sf_dir, "documents", ["lang", "source"])
    out = build_grouped(
        ds, SketchSpec.of("kmv", 256), on="source", key="lang",
        finalizer=exact_count, alias="n_sources",
    )
    return out.sort("lang")


def kmv_distinct_sample(sf_dir: str):
    """Bottom-k distinct sketch over user_id: distinct-count estimate plus a
    uniform without-replacement sample of the DISTINCT keys in one pass
    (kernel/kmv.py). Shuffle traffic is O(blocks x k) retained minima —
    row-count-independent; the sample is deterministic (murmur3 minima), so
    re-runs and resumes agree."""
    ds = _read(sf_dir, "events", ["user_id"])
    sk = build_sketch(ds, SketchSpec.of("kmv", 512), on="user_id")
    r = sk.result()
    return pa.table(
        {
            "estimate": pa.array([float(r["estimate"])], pa.float64()),
            "n_retained": pa.array([r["n_retained"]], pa.int64()),
            "exact": pa.array([bool(r["exact"])]),
        }
    )


def kmv_distinct_langs_exact(sf_dir: str):
    """Below capacity the KMV sketch retains EVERY distinct key, so the
    distributed build returns the exact distinct set — oracle-checkable
    against SELECT DISTINCT (same exact-degenerate pattern as
    mg_event_type_exact)."""
    ds = _read(sf_dir, "documents", ["lang"])
    sk = build_sketch(ds, SketchSpec.of("kmv", 64), on="lang")
    assert sk.is_exact(), "k=64 must exceed lang cardinality"
    return pa.table({"lang": pa.array(sorted(sk.sample()), pa.string())})


def quantile_sketches(sf_dir: str):
    """t-digest + KLL quantiles of documents.n_chars — both built in ONE
    scan via multi_sketch_build (per-block partials updating every sketch)."""
    ds = _read(sf_dir, "documents", ["n_chars"])
    built = multi_sketch_build(
        ds,
        {
            "td": (SketchSpec.of("tdigest", 200.0), "n_chars"),
            "kll": (SketchSpec.of("kll", 200), "n_chars"),
        },
    )
    td, kll = built["td"], built["kll"]
    qs = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
    return pa.table(
        {
            "q": pa.array(qs, pa.float64()),
            "tdigest": pa.array([float(x) for x in td.quantile(qs)], pa.float64()),
            "kll": pa.array([float(x) for x in kll.quantile(qs)], pa.float64()),
        }
    )


def ngram_containment_pairs(sf_dir: str):
    """EXACT char-3-gram CONTAINMENT >= 0.95 pairs (Broder one-sided
    overlap i/min(|A|,|B|)) — the doc-inside-doc detector that Jaccard
    structurally misses: a short doc pasted into a long one has Jaccard
    ~|A|/|B| but containment 1.0. Same AllPairs machinery as
    ngram_jaccard_pairs with metric="containment" (full gram emission —
    containment only constrains the smaller set, see the stage
    docstring); values re-verified on true char sets so they are
    float-identical to the SQL twin's i/least(na, nb)."""
    from ..stages.dedup import ngram_jaccard_pairs_distributed

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = ngram_jaccard_pairs_distributed(ds, n=3, threshold=0.95, metric="containment")
    return collect_table(
        out, _ID_PAIRS.append(pa.field("containment", pa.float64()))
    ).sort_by([("left_id", "ascending"), ("right_id", "ascending")])


def ngram_jaccard_pairs(sf_dir: str):
    """EXACT char-3-gram Jaccard >= 0.8 duplicate pairs (AllPairs prefix
    filter; no LSH) — the n-gram-Jaccard member of the dedup family, with a
    full DuckDB twin (list_distinct 3-grams + list_intersect self-join).
    A schema-bearing Arrow table even when empty."""
    from ..stages.dedup import ngram_jaccard_pairs_distributed

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = ngram_jaccard_pairs_distributed(ds, n=3, threshold=0.8)
    return collect_table(
        out, _ID_PAIRS.append(pa.field("jaccard", pa.float64()))
    ).sort_by([("left_id", "ascending"), ("right_id", "ascending")])


def kll_quantiles_exact(sf_dir: str):
    """KLL in its provably-exact regime: with k > n the level-0 buffer never
    reaches capacity, so no compaction ever fires — a distributed build
    (per-block partials, merge = level-wise concatenation) retains every
    value at weight 1 and ``quantile(q)`` returns the exact lower order
    statistic at rank ceil(q*n). The SQL twin computes that same rank
    explicitly (row_number over ORDER BY n_chars), making the whole
    partial/merge/query path oracle-checked end to end — the same
    degenerate-regime trick as kmv_*_exact / mg_event_type_exact."""
    ds = _read(sf_dir, "documents", ["n_chars"])
    n = ds.count()  # parquet metadata, no scan
    if n >= 4_000_000:
        raise ValueError(
            f"kll_quantiles_exact is a VERIFICATION-scale query: the exact "
            f"regime needs k > n, and k={n + 1} rows of uncompacted driver "
            "state at this corpus size is not a sketch any more — use "
            "quantile_sketches for the approximate answer"
        )
    k = max(65536, n + 1)
    built = multi_sketch_build(ds, {"kll": (SketchSpec.of("kll", k), "n_chars")})
    kll = built["kll"]
    if kll.n >= k:
        raise RuntimeError("exact regime violated: k <= n after build")
    labels = ["p01", "p25", "p50", "p75", "p99"]
    qs = [0.01, 0.25, 0.50, 0.75, 0.99]
    return pa.table(
        {
            "q": pa.array(labels, pa.string()),
            "value": pa.array([float(x) for x in kll.quantile(qs)], pa.float64()),
        }
    )


def _evidence_gate(n_pairs: int, query: str, streaming_api: str,
                   max_pairs: int = 250_000) -> None:
    """The three estimator queries collect their EMITTED pairs to the
    driver for the in-band exact-evidence columns — a verification-scale
    readout. Gate it loudly (the kll_quantiles_exact convention): past
    ``max_pairs`` the self-certifying readout is no longer a readout and
    callers should consume the streaming stage API instead."""
    if n_pairs > max_pairs:
        raise ValueError(
            f"{query} is a verification-scale readout: {n_pairs} emitted "
            f"pairs exceed the {max_pairs} driver evidence gate — consume "
            f"{streaming_api} (fully streaming) for production pruning"
        )


def _gather_column(
    sf_dir: str, table: str, id_col: str, col: str, pairs: pa.Table
) -> dict:
    """``{id: value}`` for the ids of a BOUNDED pair table (O(emitted
    pairs), never the corpus): one column-pruned scan through
    ``id_set_filter``. Shared by all three estimator evidence readouts."""
    if not pairs.num_rows:
        return {}
    keep = _ids_keep(id_col, pairs["left_id"], pairs["right_id"])
    return _collect_dict(keep(_read(sf_dir, table, [id_col, col])), id_col, col)


def _gather_texts(sf_dir: str, pairs: pa.Table) -> dict:
    return _gather_column(sf_dir, "documents", "doc_id", "text", pairs)


def minhash_neardup(sf_dir: str):
    """MinHash-LSH near-duplicate pairs over documents.text, with the
    estimator's accuracy SELF-CERTIFIED in-band per pair (the
    hll_hourly_users convention; the oracle-checked twin is
    minhash_neardup_exact): ``exact_jaccard`` is the true Jaccard over
    the SAME char-5-shingle murmur space the signatures minhash,
    ``abs_err`` = |est − exact|, and ``within_bound`` checks the
    3-sigma binomial band 3·sqrt(J(1−J)/128) plus the 1/128 signature
    granularity floor. The exact recompute is bounded by the EMITTED
    pair set (a broadcast text gather + per-pair set intersection),
    so the certificate costs O(pairs), not a second corpus pass — and
    the pair collection is a VERIFICATION-scale readout, loudly gated
    (the kll_quantiles_exact convention): a dup-heavy corpus whose pair
    stream exceeds the gate should consume
    stages/dedup.minhash_dedup_pairs directly (fully streaming)."""
    from ..stages.dedup import minhash_dedup_pairs, shingle_hashes

    num_perm = 128
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    pairs_ds = (
        minhash_dedup_pairs(ds, threshold=0.8)
        .select_columns(["left_id", "right_id", "est_jaccard"])
        .materialize()
    )
    _evidence_gate(pairs_ds.count(), "minhash_neardup",
                   "stages/dedup.minhash_dedup_pairs")
    pairs = collect_table(
        pairs_ds, _ID_PAIRS.append(pa.field("est_jaccard", pa.float64()))
    )
    texts = _gather_texts(sf_dir, pairs)
    sets = {i: shingle_hashes(texts[i], 5) for i in texts}
    exact, err, ok = [], [], []
    for l, r, est in zip(*(c.to_pylist() for c in pairs.columns)):
        a, b = sets[l], sets[r]
        inter = np.intersect1d(a, b, assume_unique=True).size
        j = inter / max(a.size + b.size - inter, 1)
        e = abs(est - j)
        exact.append(j)
        err.append(e)
        ok.append(e <= 3.0 * math.sqrt(j * (1.0 - j) / num_perm) + 1.0 / num_perm)
    return (
        pairs.append_column("exact_jaccard", pa.array(exact, pa.float64()))
        .append_column("abs_err", pa.array(err, pa.float64()))
        .append_column("within_bound", pa.array(ok, pa.bool_()))
    )


def simhash_neardup(sf_dir: str):
    """SimHash candidate pairs (Hamming <= 3) over documents.text, with
    the sign-random-projection estimate SELF-CERTIFIED in-band per pair:
    ``exact_cos`` is the true cosine of the token-count vectors the
    signature projects (same whitespace tokens, multiset counts),
    ``est_angle_frac`` = hamming/64 estimates arccos(exact_cos)/pi, and
    ``within_bound`` checks the 3-sigma binomial band over 64 bits plus
    a 1/64 granularity floor. Bounded by the emitted pair set."""
    from collections import Counter

    from ..stages.dedup import simhash_candidates

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    pairs_ds = simhash_candidates(ds).materialize()
    _evidence_gate(pairs_ds.count(), "simhash_neardup",
                   "stages/dedup.simhash_candidates")
    pairs = collect_table(pairs_ds, _ID_PAIRS.append(pa.field("hamming", pa.int64())))
    texts = _gather_texts(sf_dir, pairs)
    vecs = {i: Counter(t.split() if t else []) for i, t in texts.items()}
    norms = {i: math.sqrt(sum(v * v for v in c.values())) for i, c in vecs.items()}
    exact, estf, ok = [], [], []
    for l, r, h in zip(*(c.to_pylist() for c in pairs.columns)):
        a, b = vecs[l], vecs[r]
        dot = sum(c * b[t] for t, c in a.items() if t in b)
        cos = dot / max(norms[l] * norms[r], 1e-300)
        p_exact = math.acos(min(max(cos, -1.0), 1.0)) / math.pi
        p_est = h / 64.0
        exact.append(cos)
        estf.append(p_est)
        ok.append(
            abs(p_est - p_exact)
            <= 3.0 * math.sqrt(max(p_exact * (1.0 - p_exact), 0.0) / 64.0)
            + 1.0 / 64.0
        )
    return (
        pairs.append_column("exact_cos", pa.array(exact, pa.float64()))
        .append_column("est_angle_frac", pa.array(estf, pa.float64()))
        .append_column("within_bound", pa.array(ok, pa.bool_()))
    )


def _planted_dup_docs(sf_dir: str, n_plant: int = 100, offset: int = 1_000_000):
    """documents UNION a copy of the lowest ``n_plant`` doc_ids shifted by
    ``offset`` — a deterministic planted-exact-dup corpus, reproduced
    verbatim in the SQL twins (degenerate-regime oracles for the near-dup
    family, the same trick that made MG/KMV oracle-checkable)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    dup = ds.filter(expr=f"doc_id < {n_plant}").map_batches(
        lambda t: pa.table(
            {"doc_id": pc.add(t["doc_id"], pa.scalar(offset, pa.int64())),
             "text": t["text"]}
        ),
        batch_format="pyarrow",
    )
    return ds.union(dup)


def _verify_pairs_exact_text(pairs_ds, corpus_ds, id_col: str = "doc_id"):
    """Keep only candidate pairs whose texts agree on TWO independent
    murmur3-64 fingerprints (128 bits of agreement — the same text-equality
    convention as exact_dup_pairs). Candidate sets here are O(planted dups), so
    they are collected, and only their ids' texts are hashed. Returns a
    (left_id, right_id) table sorted by both ids."""
    from ..kernel.murmur3 import hash_keys

    pairs = collect_table(pairs_ds, _ID_PAIRS)
    if pairs.num_rows:

        def fp_block(t: pa.Table) -> pa.Table:
            h0, h1 = hash_keys(t["text"], (0, 1))
            return pa.table(
                {
                    id_col: t[id_col],
                    "h0": pa.array(h0.view(np.int64)),
                    "h1": pa.array(h1.view(np.int64)),
                }
            )

        # filter FIRST: hashing every corpus row to keep ~hundreds of
        # candidates did two full murmur passes over the whole corpus
        fp = collect_table(
            _ids_keep(id_col, pairs["left_id"], pairs["right_id"])(corpus_ds).map_batches(
                fp_block, batch_format="pyarrow"
            )
        )
        pairs = _same_fingerprint(pairs, fp, id_col)
    return pairs.sort_by([("left_id", "ascending"), ("right_id", "ascending")])


def minhash_neardup_exact(sf_dir: str):
    """Degenerate-regime ORACLE for the MinHash-LSH tail: on the planted-dup
    corpus, threshold=1.0 keeps only pairs whose 128 signature minima ALL
    agree; identical texts always surface (identical signatures collide in
    every band), and a two-fingerprint exact verify removes any
    identical-shingle-set-distinct-text survivors — so the distributed LSH
    pipeline's result equals the SQL text-equality self-join exactly."""
    from ..stages.dedup import minhash_dedup_pairs

    corpus = _planted_dup_docs(sf_dir)
    # EXACTNESS PRECONDITION: max_bucket must exceed the largest dup
    # clique (every member of an exact-dup clique shares every bucket) —
    # the default 64 would silently drop pairs of a >64-way clique that
    # the SQL self-join keeps
    pairs = minhash_dedup_pairs(corpus, threshold=1.0, max_bucket=100_000)
    return _verify_pairs_exact_text(pairs, corpus)


def simhash_neardup_exact(sf_dir: str):
    """Degenerate-regime ORACLE for the SimHash tail: max_hamming=0 on the
    planted-dup corpus keeps only identical 64-bit simhashes (always found —
    all four bands agree); the two-fingerprint verify removes distinct-text
    simhash collisions (e.g. token permutations), so the result equals the
    SQL text-equality self-join exactly."""
    from ..stages.dedup import simhash_candidates

    corpus = _planted_dup_docs(sf_dir)
    # same exactness precondition as minhash_neardup_exact: bucket cap
    # must exceed the largest identical-simhash clique
    pairs = simhash_candidates(
        corpus, max_hamming=0, max_bucket=100_000
    )
    return _verify_pairs_exact_text(pairs, corpus)


def embedding_neardup_planted(sf_dir: str):
    """Degenerate-regime ORACLE for the hyperplane-LSH embedding tail:
    embeddings UNION copies of vec_id<50 shifted by 1e6 plants exact-dup
    vectors (cosine 1.0). At threshold 0.99 only those pairs qualify on
    either engine (the corpus's max non-planted cosine is ~0.6), and
    identical vectors have identical sign bits so every band collides —
    recall is deterministic, making the banded-LSH pipeline
    oracle-checkable against DuckDB's cosine self-join."""
    from ..stages.similarity import embedding_near_dup_pairs

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    dup = ds.filter(expr="vec_id < 50").map_batches(
        lambda t: pa.table(
            {"vec_id": pc.add(t["vec_id"], pa.scalar(1_000_000, pa.int64())),
             "embedding": t["embedding"]}
        ),
        batch_format="pyarrow",
    )
    corpus = ds.union(dup)
    pairs = embedding_near_dup_pairs(corpus, threshold=0.99, id_col="vec_id")
    return collect_table(pairs, _ID_PAIRS).sort_by(
        [("left_id", "ascending"), ("right_id", "ascending")]
    )


def clicks_last_purchase(sf_dir: str):
    """As-of join: each click event + the same user's latest prior purchase.

    Oracle-checked against DuckDB's ASOF LEFT JOIN (inclusive bound; the
    corpus has no (user_id, ts) purchase ties, verified, so the match is
    unambiguous). Payload columns are float64 on BOTH sides so matched and
    unmatched (null) rows share one dtype."""
    from ..stages.joins import asof_join

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type", "value"])
    out = asof_join(
        ev.filter(expr="event_type == 'click'"),
        ev.filter(expr="event_type == 'purchase'"),
        key="user_id",
        ts_col="ts",
        tie_col="event_id",
        right_payload={
            "event_id": "purchase_event_id",
            "ts": "purchase_ts_us",
            "value": "purchase_value",
        },
        left_id_out="event_id",
    )
    return out.sort("event_id")


def clicks_next_purchase(sf_dir: str):
    """FORWARD as-of join: each click event + the same user's next purchase
    at-or-after it (the attribution-window twin of clicks_last_purchase).
    Runs the backward machinery under time reversal
    (stages/joins.asof_join_forward); oracle-checked against DuckDB's
    ASOF LEFT JOIN with l.ts <= r.ts."""
    from ..stages.joins import asof_join_forward

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type", "value"])
    out = asof_join_forward(
        ev.filter(expr="event_type == 'click'"),
        ev.filter(expr="event_type == 'purchase'"),
        key="user_id",
        ts_col="ts",
        tie_col="event_id",
        right_payload={
            "event_id": "purchase_event_id",
            "ts": "purchase_ts_us",
            "value": "purchase_value",
        },
        left_id_out="event_id",
    )
    return out.sort("event_id")


def revenue_by_nation(sf_dir: str):
    """TPC-H Q5-shaped multi-join: lineitem revenue rolled up to nation.

    Scale shape: TWO size-guarded joins between corpus-scaled tables
    (orders x customer on custkey, then lineitem x the nation-tagged orders
    on orderkey) via :func:`stages.joins.broadcast_lookup_join` — the
    standard small-side rule: a key-unique right side at or under the
    broadcast budget ships once via ``ray.put`` and resolves map-side
    (zero shuffle; what this sf actually executes), while a fact-scaled
    side above it takes the distributed hash join with volume-clamped
    partitions (what a 100 TB run executes — customer is millions to
    billions of rows there). Both physical plans are tested equal
    (test_revenue_by_nation_join_paths_agree). The guard counts come from
    parquet metadata / pre-join upper bounds, never an extra execution.
    The 25-row nation dimension is always broadcast, with a membership
    check so a non-FK-clean corpus errors instead of silently attributing
    revenue to the wrong nation. Money in integer centi-cents end to end
    (see q1_pricing_summary)."""
    from ..stages.joins import broadcast_lookup_join

    nat_ref = _dim_lookup(
        _read(sf_dir, "nation", ["n_nationkey", "n_name"]), "n_nationkey", ["n_name"]
    )

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(
        lambda t: t.rename_columns(["o_custkey", "c_nationkey"]),
        batch_format="pyarrow",
    )
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    n_cust = _read(sf_dir, "customer", ["c_custkey"]).count()  # metadata, no scan
    n_orders = orders.count()
    ordersn = broadcast_lookup_join(
        orders, cust, on="o_custkey", right_count=n_cust, left_count=n_orders
    )

    def attach_nation(t: pa.Table) -> pa.Table:
        member, pos, (names,) = _dim_probe(
            nat_ref, t["c_nationkey"].to_numpy(zero_copy_only=False)
        )
        if not member.all():
            raise ValueError("c_nationkey not present in nation table")
        return pa.table(
            {"l_orderkey": t["o_orderkey"], "nation": pa.array(names[pos], pa.string())}
        )

    ordersn = ordersn.map_batches(attach_nation, batch_format="pyarrow")

    li = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"]
    ).map_batches(
        lambda t: pa.table({"l_orderkey": t["l_orderkey"], "rev_cc": _rev_cc(t)}),
        batch_format="pyarrow",
    )
    # ordersn row count <= n_orders (customer is custkey-unique), so the
    # pre-join count is a sound guard bound without executing the pipeline
    n_li = _read(sf_dir, "lineitem", ["l_orderkey"]).count()  # metadata
    joined = broadcast_lookup_join(
        li, ordersn, on="l_orderkey", right_count=n_orders, left_count=n_li
    )

    out = grouped_reduce(
        joined,
        "nation",
        {"revenue_centicents": ("rev_cc", "sum"), "n_items": ("rev_cc", "count")},
    )
    return out.sort("nation")


def purchases_clicks_1h(sf_dir: str):
    """Range join: per purchase, same-user clicks in the trailing hour.

    Oracle-checked against DuckDB's inequality join + GROUP BY; the Ray
    side bucket-blocks the interval predicate (see
    stages/joins.windowed_range_count)."""
    from ..stages.joins import windowed_range_count

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])
    out = windowed_range_count(
        ev.filter(expr="event_type == 'purchase'"),
        ev.filter(expr="event_type == 'click'"),
        key="user_id",
        ts_col="ts",
        anchor_id="event_id",
        window_s=3600,
        out_col="n_clicks",
        num_partitions=4,
    )
    return out.sort("event_id")


def customers_no_orders(sf_dir: str):
    """Bloom-accelerated distributed anti-join: customers with no order
    above 350k total price.

    Inverts the reference's cache-guard (bloom.go:220-236) into an
    anti-join accelerator: a Bloom filter built over the qualifying
    orders' o_custkey PROVES absence (no false negatives,
    bloom.go:200-217), so every customer the filter rejects is an
    anti-join member with no shuffle at all. Only the "maybe" survivors —
    true members plus <=eps false positives — pay the exact distributed
    left-outer join against the distinct qualifying keys. At 100 TB the
    definite-out stream (the bulk when the anti-join is selective) goes
    straight to the sink; the one ``materialize()`` here caches only
    (custkey, name, flag) — O(probe side), never O(orders) — so the two
    consumers don't re-run the probe.
    """
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
        lambda t: t.filter(pc.greater(t["o_totalprice"], 350_000.0)).select(
            ["o_custkey"]
        ),
        batch_format="pyarrow",
    )
    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"])
    # capacity from parquet metadata (upper bound; avoids executing the
    # filter pipeline once just to count survivors)
    cap = _read(sf_dir, "orders", ["o_custkey"]).count()
    bf = build_sketch(orders, SketchSpec.of("bloom", 0.01, max(cap, 11)), on="o_custkey")
    flagged = probe_filter(cust, bf, on="c_custkey", flag_column="maybe").materialize()
    definite = flagged.filter(expr="maybe == False").drop_columns(["maybe"])
    maybe = flagged.filter(expr="maybe == True").drop_columns(["maybe"])

    from ray.data.aggregate import Count

    dkeys = (
        orders.groupby("o_custkey")
        .aggregate(Count(alias_name="_n"))
        .map_batches(
            lambda t: pa.table({"c_custkey": t["o_custkey"], "_n": t["_n"]}),
            batch_format="pyarrow",
        )
    )
    joined = maybe.join(dkeys, join_type="left_outer", num_partitions=2, on=("c_custkey",))
    survivors = joined.map_batches(
        lambda t: t.filter(pc.is_null(t["_n"])).select(["c_custkey", "c_name"]),
        batch_format="pyarrow",
    )
    out = definite.union(survivors).sort("c_custkey")
    # schema-bearing even when empty: a 0-row Dataset may have no columns
    return collect_table(out, pa.schema({"c_custkey": pa.int64(), "c_name": pa.string()}))


def embedding_neardup(sf_dir: str):
    """Embedding-cosine near-dup pairs via banded hyperplane-LSH blocking.

    Threshold 0.5 matches this corpus's similarity regime: the synthetic
    embeddings have no high-cosine pairs at all (max pairwise cosine ~0.6 at
    sf0.1), so a 0.95+ threshold would truthfully-but-uselessly return zero
    rows. At 0.5 the band width auto-derived by band_bits_for keeps recall
    >= 0.9 while still blocking (the planted-dup recall test in
    tests/test_edge_cases.py exercises the 0.95 regime).

    Accuracy SELF-CERTIFIED in-band per pair: the emitted ``cosine``
    comes from the fused float32 in-bucket verify; ``exact_cos64``
    recomputes each emitted pair independently in float64 from the raw
    embeddings, and ``within_bound`` checks agreement to 5e-3 (float32
    normalize+matmul rounding at d<=512). Bounded by the emitted pairs;
    recall is separately evidenced by embedding_neardup_planted."""
    from ..stages.similarity import embedding_near_dup_pairs

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    pairs_ds = embedding_near_dup_pairs(ds, threshold=0.5).materialize()
    _evidence_gate(pairs_ds.count(), "embedding_neardup",
                   "stages/similarity.embedding_near_dup_pairs")
    pairs = collect_table(pairs_ds, _ID_PAIRS.append(pa.field("cosine", pa.float64())))
    raw = _gather_column(sf_dir, "embeddings", "vec_id", "embedding", pairs)
    vecs = {}
    for vid, emb in raw.items():
        v = np.asarray(emb, dtype=np.float64)
        vecs[vid] = v / max(float(np.linalg.norm(v)), 1e-300)
    exact = [
        float(vecs[l] @ vecs[r])
        for l, r in zip(pairs["left_id"].to_pylist(), pairs["right_id"].to_pylist())
    ]
    err = np.abs(pairs["cosine"].to_numpy() - np.array(exact, np.float64))
    return (
        pairs.append_column("exact_cos64", pa.array(exact, pa.float64()))
        .append_column("abs_err", pa.array(err, pa.float64()))
        .append_column("within_bound", pa.array(err <= 5e-3, pa.bool_()))
    )


def embedding_neardup_exact(sf_dir: str):
    """Exact cosine-threshold pair join (the verification tier of near-dup).

    Oracle-checked against DuckDB's double-precision self-join: float64
    matmul, scores rounded half-away-from-zero to 6 decimals, rows ordered
    by (id_a, id_b). Threshold 0.4 yields a few dozen pairs on this corpus
    (max pairwise cosine ~0.5; see embedding_neardup's threshold note)."""
    from ..stages.similarity import exact_cosine_pairs

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    pairs = exact_cosine_pairs(ds, threshold=0.4, dtype="float64")

    def finish(t: pa.Table) -> pa.Table:
        return t.set_column(2, "score", _oround(t["score"], 6))

    # schema-bearing even when empty: a 0-row Dataset may have no columns
    return collect_table(
        pairs.map_batches(finish, batch_format="pyarrow"),
        pa.schema({"id_a": pa.int64(), "id_b": pa.int64(), "score": pa.float64()}),
    ).sort_by([("id_a", "ascending"), ("id_b", "ascending")])


def curation_survivors(sf_dir: str):
    """End-to-end training-data curation readout: exact-dedup winners that
    pass the quality gate — the composed pipeline a 100 TB corpus curation
    run executes before writing shards (dedup -> score -> filter -> join).

    Scale shape: quality features are one vectorized task pass
    (stages/text.QualityScorer); dedup winners shuffle (text, doc_id) via a
    native groupby-min (at 10^12 docs swap text for the 128-bit fingerprint
    pair, see exact_dup_pairs); survivors = hash join of the two id streams —
    no content moves through the join. The quality threshold compares the
    ROUNDED (6dp, half-away) score on both engines so the gate is
    bit-deterministic."""
    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    from ..stages.text import QualityScorer

    feats = (
        stateful_map(ds, QualityScorer, {}, batch_format="pyarrow", batch_size=256)
        .filter(expr="token_count >= 30 and punct_ratio <= 0.3")
        .select_columns(["doc_id", "lang"])
    )
    winners = (
        ds.groupby("text")
        .min("doc_id")
        .map_batches(
            lambda t: pa.table({"doc_id": t["min(doc_id)"]}),
            batch_format="pyarrow",
        )
    )
    surv = feats.join(winners, join_type="inner", num_partitions=2, on=("doc_id",))
    return surv.sort("doc_id")


def token_jaccard_top1(sf_dir: str):
    """Exact token-set-Jaccard nearest neighbor for the first 20 docs —
    the exact verification twin of MinHash similarity (which estimates
    exactly this Jaccard). See stages/similarity.token_jaccard_top1 for
    the broadcast + in-process hash-join + per-batch top-1 shape."""
    from ..stages.similarity import token_jaccard_top1 as tj

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return tj(ds, query_max_id=20)


def ann_brute_topk(sf_dir: str):
    """Brute-force cosine top-10 of the 4 lowest-vec_id embeddings as queries.

    Oracle-checked: runs in float64 so scores agree with DuckDB's
    double-precision ``list_cosine_similarity`` to ~1e-14 (both sides round
    half-away-from-zero to 6 decimals AFTER ranking on the unrounded score;
    ties broken by vec_id ascending). The float32 default of ``ann_topk``
    remains the scale path."""
    from ..stages.similarity import ann_topk

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    qrows = ds.sort("vec_id").take(4)  # 4 globally-lowest ids = SQL's ORDER BY vec_id LIMIT 4
    qids = np.array([r["vec_id"] for r in qrows], dtype=np.int64)
    q = np.stack([np.asarray(r["embedding"], dtype=np.float64) for r in qrows])
    df = ann_topk(ds, q, k=10, dtype="float64")
    df["query_id"] = qids[df["query_id"].to_numpy()]
    s = df["score"].to_numpy()
    df["score"] = np.sign(s) * np.floor(np.abs(s) * 1e6 + 0.5) / 1e6
    return df.sort_values(["query_id", "vec_id"]).reset_index(drop=True)


def ann_ivf_topk(sf_dir: str):
    """IVF-bucketed approximate cosine top-10 (scan only nprobe buckets).

    Self-evidencing (the hll_hourly_users convention): each row carries
    ``recall`` — the measured fraction of that query's IVF top-10 also
    present in the brute-force top-10 on the same float32 path — plus
    ``recall_floor`` and ``within_bound``, so the driver's rows-only record
    carries the accuracy claim in-artifact. IVF has no distribution-free
    published recall bound; the floor is the probed-fraction heuristic
    (nprobe/nlist = half the buckets scanned -> expect at least ~half of
    each true top-k under near-uniform assignment, which this synthetic
    corpus is). The floor + a mean-recall gate are pinned in pytest at
    fixed (nlist=8, nprobe=4, k=10); nprobe=nlist degenerates to exact
    (ann_ivf_exact's oracle)."""
    from ..stages.similarity import ann_topk, ivf_topk

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    qrows = ds.take(4)
    q = np.stack([np.asarray(r["embedding"], dtype=np.float32) for r in qrows])
    ivf = ivf_topk(ds, q, k=10, nlist=8, nprobe=4)
    brute = ann_topk(ds, q, k=10)
    brute_ids = brute.groupby("query_id")["vec_id"].apply(set).to_dict()
    # recall@k divides by the BRUTE top-k size, not the IVF group size —
    # the latter is precision and overstates quality exactly when IVF's
    # probed buckets hold fewer than k vectors
    recall = {
        qi: round(
            len(set(g["vec_id"]) & brute_ids.get(qi, set()))
            / max(len(brute_ids.get(qi, set())), 1),
            4,
        )
        for qi, g in ivf.groupby("query_id")
    }
    ivf = ivf.copy()
    ivf["recall"] = ivf["query_id"].map(recall)
    ivf["recall_floor"] = 0.5  # nprobe/nlist of the buckets are scanned
    ivf["within_bound"] = ivf["recall"] >= ivf["recall_floor"]
    return ivf


def ann_ivf_exact(sf_dir: str):
    """IVF in its degenerate-exact regime: nprobe = nlist probes EVERY
    bucket, so the bucketed scan equals brute force on the same dtype —
    float64 here, giving oracle parity with DuckDB's double-precision
    ``list_cosine_similarity`` (same rounding/tie rules as ann_brute_topk).
    This oracle-checks the whole IVF path (train, assign, probe, per-block
    top-k, merge); the approximation quality of the pruned regime is
    separately evidenced by ann_ivf_topk's recall column."""
    from ..stages.similarity import ivf_topk

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    qrows = ds.sort("vec_id").take(4)
    qids = np.array([r["vec_id"] for r in qrows], dtype=np.int64)
    q = np.stack([np.asarray(r["embedding"], dtype=np.float64) for r in qrows])
    df = ivf_topk(ds, q, k=10, nlist=8, nprobe=8, dtype="float64")
    df["query_id"] = qids[df["query_id"].to_numpy()]
    s = df["score"].to_numpy()
    df["score"] = np.sign(s) * np.floor(np.abs(s) * 1e6 + 0.5) / 1e6
    return df.sort_values(["query_id", "vec_id"]).reset_index(drop=True)


def langid_predictions(sf_dir: str):
    """Heuristic language-ID confusion matrix (corpus lang x predicted lang).

    ORACLE-EXACT despite being a heuristic: both engines run RE2
    (pyarrow count_substring_regex / DuckDB regexp_extract_all), so the
    marker counts, the first-wins argmax and the all-zero 'unknown' are
    reproduced in SQL (see __ray_entry__.oracle_sql)."""
    from ..stages.text import LangId

    ds = _read(sf_dir, "documents", ["lang", "text"])
    out = stateful_map(ds, LangId, {}, batch_format="pyarrow")
    return collect_table(
        grouped_reduce(out, ["lang", "lang_pred"], {"n": ("lang", "count")}),
        pa.schema({"lang": pa.string(), "lang_pred": pa.string(), "n": pa.int64()}),
    ).sort_by([("lang", "ascending"), ("lang_pred", "ascending")])


def doc_fingerprints(sf_dir: str):
    """murmur3-64 content fingerprints (exact-dedup key material)."""
    from ..stages.text import add_fingerprint

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(add_fingerprint, batch_format="pyarrow").select_columns(
        ["doc_id", "fingerprint"]
    )


def fingerprint_distinctness(sf_dir: str):
    """Fingerprint injectivity invariant, oracle-checked: the murmur3-64
    content fingerprint must be deterministic (equal texts -> equal
    fingerprints) and collision-free at corpus scale, i.e.
    count(DISTINCT fingerprint) == count(DISTINCT text). The SQL twin
    computes text-distinctness for both columns, so any collision or
    nondeterminism in the distributed fingerprint stage hash-mismatches."""
    from ..stages.text import add_fingerprint

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    fp = ds.map_batches(add_fingerprint, batch_format="pyarrow").materialize()
    n_docs = fp.count()

    def distinct_count(col: str) -> int:
        # per-block Arrow pre-dedup, then a distributed groupby whose
        # group COUNT is read — no value list ever lands on the driver
        # (Dataset.unique materializes every distinct value driver-side)
        thinned = fp.map_batches(
            lambda t, c=col: t.select([c]).group_by([c]).aggregate([]),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        return thinned.groupby(col).count().count()

    return pa.table(
        {
            "n_docs": pa.array([n_docs], pa.int64()),
            "n_distinct_fingerprints": pa.array(
                [distinct_count("fingerprint")], pa.int64()
            ),
            "n_distinct_texts": pa.array([distinct_count("text")], pa.int64()),
        }
    )


# --------------------------------------------------------------------------
# Corpus composition: quota mixing, deterministic splits, inverted index
# --------------------------------------------------------------------------


def _mix_quota(lang: str) -> int:
    # deterministic per-stratum quota, SQL-expressible for the oracle twin:
    # 30 * (1 + len(lang) % 3)
    return 30 * (1 + len(lang) % 3)


def corpus_mix_quota(sf_dir: str):
    """Weighted corpus mixing: per-language quota of documents, smallest
    doc_id first (the deterministic 'take the first N of each stratum'
    composition step of a training-data mix). Shuffle-free: per-block
    partial quotas + one tiny final reduce (stages/sampling.take_per_group);
    the SQL twin is row_number() OVER (PARTITION BY lang ORDER BY doc_id)."""
    from ..stages.sampling import take_per_group

    ds = _read(sf_dir, "documents", ["lang", "doc_id"])
    return take_per_group(ds, key="lang", order_col="doc_id", quota=_mix_quota)


_SPLIT_FRACTIONS = [("train", 0.8), ("val", 0.1), ("test", 0.1)]


def _split_counts(ds, key_col: str, method: str, buckets: int) -> pa.Table:
    """assign_split -> per-block (split, lang) pre-agg -> native sum,
    sorted by (split, lang)."""
    from ..stages.sampling import assign_split

    tagged = assign_split(
        ds, key_col, _SPLIT_FRACTIONS, method=method, buckets=buckets
    )
    return collect_table(
        grouped_reduce(tagged, ["split", "lang"], {"n": ("lang", "count")}),
        pa.schema({"split": pa.string(), "lang": pa.string(), "n": pa.int64()}),
    ).sort_by([("split", "ascending"), ("lang", "ascending")])


def corpus_split_mod_exact(sf_dir: str):
    """Deterministic train/val/test split, oracle-checked: bucket =
    doc_id % 10 through the same assign_split stage as the hash split
    (method='mod' is the SQL-expressible bucketer). 0.8/0.1/0.1 on 10
    buckets quantizes exactly, so counts match CASE WHEN doc_id % 10 ..."""
    ds = _read(sf_dir, "documents", ["doc_id", "lang"])
    return _split_counts(ds, "doc_id", method="mod", buckets=10)


def corpus_split_hash(sf_dir: str):
    """Murmur-hash train/val/test split (the production bucketer: stable
    under reshuffles, any key dtype) with SELF-EVIDENCE columns: observed
    vs expected fraction per split and a tolerance check (5-sigma binomial
    + 1/buckets quantization slack), so the rows-only driver record
    carries the proportion claim in-band."""
    ds = _read(sf_dir, "documents", ["doc_id", "lang"])
    t = _split_counts(ds, "doc_id", method="hash", buckets=10_000)
    split = t["split"].to_pylist()
    n = t["n"].to_numpy()
    total = int(n.sum())
    # the proportion claim is a per-SPLIT property (summed over langs)
    by_split: dict[str, int] = {}
    for s, k in zip(split, n.tolist()):
        by_split[s] = by_split.get(s, 0) + k
    frac = dict(_SPLIT_FRACTIONS)
    exp = np.array([frac[s] for s in split], np.float64)
    obs = np.array([by_split[s] / total for s in split], np.float64)
    tol = 5.0 * np.sqrt(exp * (1 - exp) / total) + 1e-4
    return (
        t.append_column("expected_frac", pa.array(exp, pa.float64()))
        .append_column("observed_frac", pa.array(np.floor(obs * 1e6 + 0.5) / 1e6))
        .append_column("within_tol", pa.array(np.abs(obs - exp) <= tol, pa.bool_()))
    )


def token_df_top(sf_dir: str):
    """Inverted-index statistics: top-20 tokens by document frequency.

    The index-build shape: per-block explode to (token, df, tf) partials
    (stages/text.token_df_batch — the shuffle carries one row per
    (token, block), never the raw token stream), a native distributed
    groupby-sum over the vocabulary, then sort + limit. Oracle twin:
    unnest(string_split_regex(...)) GROUP BY token in DuckDB."""
    from ..stages.text import token_df_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    parts = ds.map_batches(
        token_df_batch, batch_format="pyarrow", zero_copy_batch=True
    )
    top = (
        parts.groupby("token")
        .sum(["df", "tf"])
        .sort(key=["sum(df)", "token"], descending=[True, False])
        .limit(20)
    )
    return collect_table(
        top, pa.schema({"token": pa.string(), "sum(df)": pa.int64(), "sum(tf)": pa.int64()})
    ).rename_columns(["token", "df", "tf"])


def doc_top_term(sf_dir: str):
    """Keyword extraction, the TF-IDF shape: each doc's RAREST token
    (smallest global document frequency, token as tie-break) — exact and
    oracle-checked, unlike a float tf-idf score whose log() would be a
    cross-engine FP footgun.

    Scale shape: (1) per-block distinct (doc_id, token) explode; (2) global
    df via the token_df_batch partial sum (one row per (token, block)
    crosses the exchange); (3) size-guarded join of the pair stream against
    the df table (broadcast under the dim budget, distributed hash join
    above — stages/joins.broadcast_lookup_join); (4) per-doc argmin WITHOUT
    a per-group Python pass: the (df, token) order is packed into one
    zero-padded sortable string so a NATIVE per-block pre-agg + groupby-min
    computes the argmin (UTF-8 bytewise min == (df, token) lexicographic
    order; DuckDB's binary collation agrees)."""
    from ..stages.joins import broadcast_lookup_join
    from ..stages.similarity import _token_explode

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    # ONE tokenization pass: the distinct-pair stream is materialized and
    # feeds both the df aggregation and the join probe side. Pairs are
    # globally distinct (per-doc dedupe, one doc per input row), so df is
    # simply the pair-row count per token — block-boundary independent.
    pairs = docs.map_batches(
        lambda t: _token_explode(t, "text", "doc_id")
        .select(["doc_id", "tok"])
        .rename_columns(["doc_id", "token"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()
    df_ds = grouped_reduce(
        pairs, "token", {"df": ("doc_id", "count")}
    ).materialize()  # vocabulary-sized; consumed by count + join
    joined = broadcast_lookup_join(pairs, df_ds, on="token", right_count=df_ds.count())

    def pack_rank(t: pa.Table) -> pa.Table:
        # 14 digits covers df up to 10^14-1 docs; equal-width padding makes
        # bytewise string order == numeric order, '\x1f' splits off the
        # token tie-break (never compared against digits: widths are fixed)
        key = pc.binary_join_element_wise(
            pc.utf8_lpad(pc.cast(t["df"], pa.string()), 14, "0"),
            t["token"],
            "\x1f",
        )
        return pa.table({"doc_id": t["doc_id"], "rk": key})

    mins = grouped_reduce(
        joined.map_batches(pack_rank, batch_format="pyarrow"),
        "doc_id",
        {"rk": ("rk", "min")},
    )

    def unpack(t: pa.Table) -> pa.Table:
        rk = t["rk"]
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "rarest_token": pc.utf8_slice_codeunits(rk, 15, 2**30),
                "df": pc.cast(pc.utf8_slice_codeunits(rk, 0, 14), pa.int64()),
            }
        )

    return mins.map_batches(unpack, batch_format="pyarrow").sort("doc_id")


def kll_by_lang_exact(sf_dir: str):
    """GROUPED quantile sketches in the provably-exact regime: one KLL per
    lang via groupby-aggregate (per-(block, lang) partials merged inside
    the exchange — stages/builder.build_grouped), k > n so no compaction
    ever fires and quantile(q) is the exact lower order statistic at rank
    ceil(q * n_lang). The grouped twin of kll_quantiles_exact; the SQL twin
    computes the same rank per lang with a partitioned row_number."""
    from ..kernel.sketch import sketch_from_bytes

    ds = _read(sf_dir, "documents", ["lang", "n_chars"])
    n = ds.count()  # parquet metadata, no scan
    if n >= 4_000_000:
        raise ValueError(
            "kll_by_lang_exact is a VERIFICATION-scale query (k > n state); "
            "use grouped approximate sketches at corpus scale"
        )
    k = max(65536, n + 1)
    est = build_grouped(
        ds, SketchSpec.of("kll", k), on="n_chars", key="lang", alias="kll"
    )
    labels = [("p25", 0.25), ("p50", 0.50), ("p75", 0.75)]
    out = {"lang": [], "q": [], "value": []}
    for lang, blob in sorted(_collect_dict(est, "lang", "kll").items()):
        sk = sketch_from_bytes(blob)
        if sk.n >= k:
            raise RuntimeError("exact regime violated: k <= n_lang after build")
        vals = sk.quantile([q for _, q in labels])
        for (lab, _), v in zip(labels, vals):
            out["lang"].append(lang)
            out["q"].append(lab)
            out["value"].append(float(v))
    return pa.table(
        {
            "lang": pa.array(out["lang"], pa.string()),
            "q": pa.array(out["q"], pa.string()),
            "value": pa.array(out["value"], pa.float64()),
        }
    )


def cms_event_type_exact(sf_dir: str):
    """CMS degenerates to EXACT grouped counts when every key owns an
    uncontended counter in some row: the collision_free certificate
    (kernel/countmin.py) proves it from the key universe alone — no exact
    counts consulted — so this distributed sketch build is oracle-checkable
    against plain GROUP BY counts, mirroring mg_event_type_exact."""
    ds = _read(sf_dir, "events", ["event_type"])
    cms = build_sketch(ds, SketchSpec.of("cms", 0.001, 0.01), on="event_type")
    types = _event_type_vocab(sf_dir).to_pylist()
    cert = cms.collision_free([t.encode() for t in types])
    if not cert.all():
        raise AssertionError(
            f"CMS w={cms.w} not collision-free over {len(types)} keys — "
            "widen eps for the exact-regime query"
        )
    est = cms.query_batch([t.encode() for t in types]).astype(np.int64)
    return pa.table(
        {
            "event_type": pa.array(types, pa.string()),
            "n": pa.array(est),
        }
    )


def media_features(sf_dir: str):
    """Multimodal plumbing: synthetic media table -> stateful fake decode."""
    import ray.data as rd

    from ..stages.multimodal import decode_features, synth_media_table

    ds = rd.from_arrow(synth_media_table(200, seed=42))
    return decode_features(ds, fake=True)


def media_ppm_features(sf_dir: str):
    """REAL image decode end to end: deterministic PPM (P6) payloads ->
    stateful pure-numpy codec (header grammar + pixel reshape, no
    external library) -> pixel-space features (channel means, luminance
    stats). fake=False: this is the non-stub decode path."""
    import ray.data as rd

    from ..stages.multimodal import decode_features, synth_ppm_media_table

    ds = rd.from_arrow(synth_ppm_media_table(200, seed=42))
    return decode_features(ds, fake=False)


def media_wav_features(sf_dir: str):
    """REAL audio decode end to end: deterministic PCM16 WAV payloads ->
    stateful pure-numpy RIFF codec -> signal features (RMS, peak,
    zero crossings, energy split). fake=False: the non-stub audio path."""
    import ray.data as rd

    from ..stages.multimodal import decode_features, synth_wav_media_table

    ds = rd.from_arrow(synth_wav_media_table(200, seed=42))
    return decode_features(ds, fake=False)


def media_spectrogram(sf_dir: str):
    """REAL spectral audio analysis end to end: PCM16 WAV payloads ->
    stateful framing + Hann + np.fft.rfft + HTK mel filterbank ->
    per-row log-mel features (stages/multimodal.SpectrogramStage).

    SELF-EVIDENCE in-band: the synth corpus's row i carries a sine at
    220*(1+i%5) Hz over 256+128*(i%3) samples (synth_wav_media_table's
    contract), so the expected dominant mel band is computable
    analytically — ``expected_mel`` runs the NOISELESS sine of that
    (freq, duration) through the identical DSP (leakage and windowing
    included) and ``band_match`` certifies the measured dominant band
    equals it on every row, i.e. the 24 dB noise floor never flips the
    band."""
    import ray.data as rd

    from ..stages.multimodal import (
        audio_spectral_ds,
        log_mel_features,
        mel_filterbank,
        synth_wav_media_table,
    )

    n_mels, n_fft, rate = 16, 256, 16000
    ds = rd.from_arrow(synth_wav_media_table(200, seed=42, sample_rate=rate))
    out = audio_spectral_ds(
        ds.select_columns(["media_id", "payload"]), n_mels=n_mels, n_fft=n_fft
    ).to_pandas().sort_values("media_id").reset_index(drop=True)
    fb = mel_filterbank(n_mels, n_fft, rate)
    pure = {}
    for i in out["media_id"]:
        freq_k, dur_k = int(i) % 5, int(i) % 3
        if (freq_k, dur_k) not in pure:
            dur = 256 + 128 * dur_k
            t = np.arange(dur, dtype=np.float64)
            wave = np.clip(
                12000 * np.sin(2 * np.pi * 220.0 * (1 + freq_k) * t / rate),
                -32768, 32767,
            ).astype(np.int16)
            pure[(freq_k, dur_k)] = log_mel_features(
                wave, rate, n_mels=n_mels, n_fft=n_fft, fb=fb
            )[2]
    exp = np.array(
        [pure[(int(i) % 5, int(i) % 3)] for i in out["media_id"]], np.int64
    )
    dom = out["dominant_mel"].to_numpy()
    return pa.table(
        {
            "media_id": pa.array(out["media_id"], pa.int64()),
            "n_frames": pa.array(out["n_frames"], pa.int64()),
            "dominant_mel": pa.array(dom, pa.int64()),
            "expected_mel": pa.array(exp),
            "band_match": pa.array(dom == exp),
        }
    )


def media_audio_neardup(sf_dir: str):
    """Audio near-dup via spectral fingerprints — the audio twin of
    media_phash_pairs: planted RE-RECORDED copies (same tone, different
    gain, fresh noise; byte- and sample-distinct, so exact dedup is
    blind) -> centered log-spectrum fingerprints -> exact cosine pair
    join (planted pairs land at cosine ~0.96+, distinct chords < 0.65).

    SELF-EVIDENCE in-band: synth_wav_dup_table's contract says row i is
    a re-render of the latest base row exactly when i % 8 == 7, so each
    emitted pair carries ``is_planted`` — and the result certifies
    perfect retrieval on this corpus: every planted pair recovered
    (``n_planted_found`` = planted count) with zero spurious pairs."""
    import ray.data as rd

    from ..stages.multimodal import audio_neardup_pairs, synth_wav_dup_table

    n, dup_every = 96, 8
    ds = rd.from_arrow(synth_wav_dup_table(n, seed=42, dup_every=dup_every))
    pairs = (
        audio_neardup_pairs(ds, threshold=0.9)
        .to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    if pairs.empty:
        return pa.table(
            {
                "id_a": pa.array([], pa.int64()),
                "id_b": pa.array([], pa.int64()),
                "score": pa.array([], pa.float64()),
                "is_planted": pa.array([], pa.bool_()),
                "n_planted_found": pa.array([], pa.int64()),
                "n_planted_total": pa.array([], pa.int64()),
            }
        )
    # the generator plants (i-1, i) at i % dup_every == dup_every-1
    planted = {
        (i - 1, i) for i in range(n) if i % dup_every == dup_every - 1
    }
    got = list(zip(pairs["id_a"].astype(int), pairs["id_b"].astype(int)))
    is_planted = [p in planted for p in got]
    n_found = sum(1 for p in planted if p in set(got))
    return pa.table(
        {
            "id_a": pa.array(pairs["id_a"], pa.int64()),
            "id_b": pa.array(pairs["id_b"], pa.int64()),
            "score": _oround(pa.array(pairs["score"], pa.float64()), 6),
            "is_planted": pa.array(is_planted, pa.bool_()),
            "n_planted_found": pa.array(
                np.full(len(got), n_found, np.int64)
            ),
            "n_planted_total": pa.array(
                np.full(len(got), len(planted), np.int64)
            ),
        }
    )


def media_phash_pairs(sf_dir: str):
    """Image near-dup via perceptual hashing over REAL decoded pixels:
    dHash-64 per image (stateful pure-numpy PPM decode) feeds the same
    distributed hamming-pair tail as text SimHash. The planted corpus
    carries brightness-shifted copies — byte-distinct (exact dedup is
    blind to them) but dHash-identical (strict comparisons are
    translation-invariant), the regime perceptual dedup exists for."""
    import ray.data as rd

    from ..stages.dedup import simhash_pairs_distributed
    from ..stages.multimodal import phash_signature_ds, synth_ppm_noise_table

    ds = rd.from_arrow(synth_ppm_noise_table(64, seed=42, dup_every=8))
    sig = phash_signature_ds(ds)
    return simhash_pairs_distributed(sig, max_hamming=2, id_col="media_id").sort(
        ["left_id", "right_id"]
    )


def media_resize(sf_dir: str):
    """Multimodal resize stage: nearest-neighbor thumbnail of every image
    row (audio rows pass through), payload dropped after a sha256 so only
    digests + metadata flow downstream. Deterministic end to end."""
    import ray.data as rd

    from ..stages.multimodal import resize_media, synth_media_table

    ds = rd.from_arrow(synth_media_table(200, seed=42))
    out = resize_media(ds, out_w=16, out_h=16)
    return out.map_batches(
        lambda t: add_sha256(t, column="payload", out="payload_sha").drop_columns(
            ["payload"]
        ),
        batch_format="pyarrow",
        batch_size=64,
    ).sort("media_id")


def media_frames(sf_dir: str):
    """Multimodal frame sampling: each synthetic raw video expands to 4
    uniformly-spaced frame rows (media_id, frame_idx, frame_sha) — the
    flat-map ingest shape of video pretraining, with frames digested so
    the binary payloads never cross the final exchange."""
    import ray.data as rd

    from ..stages.multimodal import sample_frames, synth_video_table

    ds = rd.from_arrow(synth_video_table(100, seed=7))
    out = sample_frames(ds, n_sample=4)
    return out.map_batches(
        lambda t: add_sha256(t, column="frame", out="frame_sha").drop_columns(
            ["frame"]
        ),
        batch_format="pyarrow",
        batch_size=128,
    ).sort(["media_id", "frame_idx"])


def media_dedup(sf_dir: str):
    """Exact dedup over binary media payloads (deterministic planted dups:
    rows 10,20,...,190 repeat earlier payloads, so 200 rows -> 181 kept)."""
    import ray.data as rd

    from ..stages.multimodal import media_exact_dedup, synth_media_with_dups

    ds = rd.from_arrow(synth_media_with_dups(200, dup_every=10, seed=42))
    return media_exact_dedup(ds)


# --------------------------------------------------------------------------
# Benchmark decontamination (stages/decontam.py)
# --------------------------------------------------------------------------


def _contamination_sides(sf_dir: str):
    """documents split into a deterministic 5% 'benchmark' (doc_id % 20 == 0)
    and the remaining 'corpus' — the in-repo stand-in for an eval set."""

    def side(want_bench):
        def mask(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].to_numpy(zero_copy_only=False)
            m = (ids % 20 == 0) if want_bench else (ids % 20 != 0)
            return t.filter(pa.array(m))

        return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
            mask, batch_format="pyarrow", zero_copy_batch=True
        )

    return side(False), side(True)


def benchmark_contamination(sf_dir: str):
    """Per-doc count of distinct word-4-grams shared with the benchmark set.

    The reference's Contains-before-store guard (bloom.go:220-236) as a
    corpus-hygiene operator: benchmark grams build one broadcast Bloom
    filter, the corpus gram stream is losslessly pruned by it, survivors
    exact-join the distinct benchmark grams (size-guarded plan). Exact
    despite the sketch tier, so DuckDB-oracle-checked."""
    from ..stages.decontam import contamination_counts

    corpus, bench = _contamination_sides(sf_dir)
    return contamination_counts(corpus, bench, n=4).sort("doc_id")


def decontaminated_ids(sf_dir: str):
    """Clean-corpus ids after dropping every benchmark-contaminated doc
    (>= 1 shared word-4-gram) — the write-side decontamination twin."""
    from ..stages.decontam import decontaminate

    corpus, bench = _contamination_sides(sf_dir)
    return (
        decontaminate(corpus, bench, n=4)
        .select_columns(["doc_id"])
        .sort("doc_id")
    )


def sequence_packing(sf_dir: str):
    """Concatenate-and-cut sequence packing summary: docs are packed into
    512-token training sequences in doc_id order (bin = exclusive token
    prefix-sum // 512, stages/sampling.pack_sequences — a distributed scan
    with O(blocks) driver rows); reports (bin, n_docs, sum_tokens)."""
    from ray.data.aggregate import Count, Sum

    from ..stages.sampling import pack_sequences
    from ..stages.text import add_token_count

    docs = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        lambda t: add_token_count(t).drop_columns(["text"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    packed = pack_sequences(docs, capacity=512)
    return (
        packed.groupby("bin")
        .aggregate(
            Count(alias_name="n_docs"),
            Sum("token_count", alias_name="sum_tokens"),
        )
        .sort("bin")
    )


def repetition_stats(sf_dir: str):
    """Per-doc repetition quality signals (Gopher-style): whitespace token
    total, distinct-token count and most-repeated-token count — exact
    integers (stages/text.add_repetition_stats), oracle-checked."""
    from ..stages.text import add_repetition_stats

    return (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(
            lambda t: add_repetition_stats(t).drop_columns(["text"]),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .sort("doc_id")
    )


def token_entropy(sf_dir: str):
    """Per-doc Shannon token entropy (information-density quality signal
    next to the Gopher repetition stats). Engine-exact vs the DuckDB twin:
    the transcendental ``c·ln(c)`` terms are floored to integer 1e-8 nats
    (order-free sum) using the same glibc ``ln`` both engines call, so
    ``clogc_micro`` hash-matches bit-for-bit and ``entropy`` agrees through
    the final two pinned IEEE ops (stages/text.add_token_entropy)."""
    from ..stages.text import add_token_entropy

    return (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(
            lambda t: add_token_entropy(t).drop_columns(["text"]),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .sort("doc_id")
    )


def embedding_kmeans(sf_dir: str):
    """Distributed k-means over the embeddings table (k=10), with in-band
    self-evidence: Lloyd-monotone inertia flag, iteration count, and the
    total inertia reduction vs the first assignment. (The synthetic
    embeddings are near-uniform unit vectors — the generator's ``label``
    column is NOT geometric, so label purity is not a valid check here;
    exact planted-cluster recovery is pinned in tests/test_cluster.py
    instead.) Centroids train via per-block partial sums
    (stages/cluster.kmeans_fit — vectors never shuffle); cluster sizes
    come from one native groupby-count."""
    from ray.data.aggregate import Count

    from ..stages.cluster import kmeans_assign, kmeans_fit

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"]).materialize()
    # tol=1e-4: on near-uniform vectors Lloyd's improvement decays fast —
    # the looser stop saves ~half the iterations with the same evidence
    cent, hist = kmeans_fit(ds, k=10, iters=25, seed=11, tol=1e-4)
    monotone = all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))
    reduction = round(1.0 - hist[-1] / hist[0], 6) if hist and hist[0] > 0 else 0.0

    sizes = (
        kmeans_assign(ds, cent)
        .select_columns(["cluster"])
        .groupby("cluster")
        .aggregate(Count())
        .to_pandas()
        .sort_values("cluster")
    )
    return pa.table(
        {
            "cluster": pa.array(sizes["cluster"].to_numpy(), pa.int64()),
            "n_vectors": pa.array(sizes["count()"].to_numpy(), pa.int64()),
            "n_iters": pa.array([len(hist)] * len(sizes), pa.int64()),
            "inertia_monotone": pa.array([monotone] * len(sizes)),
            "inertia_reduction": pa.array([reduction] * len(sizes), pa.float64()),
        }
    )


def normalized_docs(sf_dir: str):
    """Curation text normalization (trim + whitespace collapse + lowercase
    + digit-run redaction), pure Arrow RE2 kernels; output is the
    normalized text itself plus its length, oracle-exact vs DuckDB
    regexp_replace (both engines run RE2)."""
    from ..stages.text import add_normalized_text

    def stage(t: pa.Table) -> pa.Table:
        out = add_normalized_text(t).drop_columns(["text"])
        return out.append_column(
            "norm_len", pc.utf8_length(out["norm_text"]).cast(pa.int64())
        )

    return (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(stage, batch_format="pyarrow", zero_copy_batch=True)
        .sort("doc_id")
    )


def canonical_docs(sf_dir: str):
    """Canonical-document selection (C4/RefinedWeb-style): collapse docs
    that are identical AFTER curation normalization (trim + whitespace
    collapse + lowercase + digit-run redaction, the `normalized_docs`
    rules) and keep the BEST original per cluster — longest raw text, ties
    to min doc_id — plus the cluster size. The argmax rides ONE int64
    aggregate: packed = raw_len·2^32 + (2^32−1 − doc_id), so max(packed)
    is (max len, then min id) and the shuffle carries only
    (norm_text, packed) — never the raw content. At 10^12 rows the group
    key would be the two-seed 128-bit fingerprint of norm_text (the
    exact_dup_pairs machinery) instead of the string itself; here the
    string key keeps the query oracle-exact. Assumes doc_id < 2^32 and
    raw_len < 2^31 (documented packing bounds)."""
    from ray.data.aggregate import Count, Max

    from ..stages.text import add_normalized_text

    def prep(t: pa.Table) -> pa.Table:
        norm = add_normalized_text(t)["norm_text"]
        ln = pc.utf8_length(t["text"]).cast(pa.int64())
        did = t["doc_id"].cast(pa.int64())
        packed = pc.add(
            pc.multiply(ln, pa.scalar(1 << 32, pa.int64())),
            pc.subtract(pa.scalar((1 << 32) - 1, pa.int64()), did),
        )
        return pa.table({"norm_text": norm, "packed": packed})

    g = (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("norm_text")
        .aggregate(Max("packed"), Count())
    )

    def unpack(t: pa.Table) -> pa.Table:
        packed = t["max(packed)"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": pa.array(
                    (1 << 32) - 1 - (packed & ((1 << 32) - 1)), pa.int64()
                ),
                "raw_len": pa.array(packed >> 32, pa.int64()),
                "n_variants": t["count()"].cast(pa.int64()),
            }
        )

    return g.map_batches(unpack, batch_format="pyarrow").sort("doc_id")


def neardup_dedup_survivors(sf_dir: str):
    """THE end-to-end near-dup corpus dedup pipeline, composed from its
    already-verified pieces: MinHash signatures -> LSH banding -> hot-bucket
    pair enumeration -> exact-text verify -> distributed connected
    components -> keep each cluster's min-id representative. Run in the
    degenerate regime (threshold=1.0 over the planted-dup corpus) the
    surviving set provably equals the SQL keep-min-per-text twin, so the
    WHOLE composition — not just each stage — is oracle-checked."""
    import ray.data as rd

    from ..stages.dedup import (
        connected_components_distributed,
        minhash_dedup_pairs,
    )

    corpus = _planted_dup_docs(sf_dir)
    pairs = minhash_dedup_pairs(corpus, threshold=1.0, max_bucket=100_000)
    verified = rd.from_arrow(_verify_pairs_exact_text(pairs, corpus))
    clusters = connected_components_distributed(
        verified, nodes_ds=corpus.select_columns(["doc_id"])
    )
    survivors = clusters.map_batches(
        lambda t: t.filter(pc.equal(t["doc_id"], t["cluster"])).select(
            ["doc_id"]
        ),
        batch_format="pyarrow",
    )
    return survivors.sort("doc_id")


def bm25_topk(sf_dir: str):
    """Exact BM25 lexical retrieval (queries = docs with id < 10, top-5
    each): the keyword-search member of the similarity family, next to
    ANN cosine (ann_brute_topk) and token-set Jaccard (token_jaccard_top1).
    Integer micro-unit per-term contributions make the distributed sum
    order-free, so the ranking is DuckDB-oracle-exact."""
    from ..stages.similarity import bm25_topk as _bm25

    return _bm25(
        _read(sf_dir, "documents", ["doc_id", "text"]), query_max_id=10, k=5
    )


def span_dedup_stats(sf_dir: str):
    """C4-style cross-corpus span dedup (keep the globally FIRST occurrence
    of every 10-token window, drop repeats) read out as per-doc stats.
    One native groupby-min on the span text is the only all-to-all; the
    kept occurrences are the winners themselves (no join back). The
    synthetic corpus's small vocabulary makes 10-token windows genuinely
    collide across docs, so the keep-first decision is exercised for real
    (~5% of spans drop at sf0.01)."""
    from ..stages.dedup import span_dedup_stats as _sds

    return _sds(_read(sf_dir, "documents", ["doc_id", "text"]), span_tokens=10)


def pii_redacted(sf_dir: str):
    """PII redaction over a deterministically PII-planted corpus: docs with
    doc_id % 7 == 0 gain a unique planted email, docs with doc_id % 11 == 0
    a phone + IPv4 (the raw corpus contains no PII shapes, so planting is
    what makes the stage observable). Redaction itself is
    stages/text.redact_pii — chained Arrow RE2 replace kernels, the same
    sequential semantics as DuckDB's chained regexp_replace — so clean
    text and per-kind match counts are oracle-exact. The filter-as-guard
    shape mirrors the reference's Contains-before-store pattern
    (/root/reference/bloom.go:220-236): cheap vectorized scan deciding
    per-row what may pass into the stored corpus."""
    from ..stages.text import add_pii_redaction

    def plant_and_redact(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].combine_chunks().to_numpy()
        idstr = ids.astype("U")
        email = np.where(
            ids % 7 == 0,
            np.char.add(
                np.char.add(" contact user", idstr), "@example.com"
            ),
            "",
        )
        phone = np.where(
            ids % 11 == 0, " call 555-867-5309 from 10.0.0.1", ""
        )
        planted = pc.binary_join_element_wise(
            pc.fill_null(t["text"].combine_chunks(), ""),
            pa.array(email, pa.string()),
            pa.array(phone, pa.string()),
            "",
        )
        t = pa.table({"doc_id": t["doc_id"], "text": planted})
        return add_pii_redaction(t).drop_columns(["text"])

    return (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(plant_and_redact, batch_format="pyarrow", zero_copy_batch=True)
        .sort("doc_id")
    )


def corpus_shuffle_head(sf_dir: str):
    """First 100 docs of the deterministic global pseudo-shuffle
    (stages/sampling.shuffle_by_hash — Knuth multiplicative key, one range
    sort). The rank column pins the ORDER itself, so the oracle checks the
    actual shuffle permutation, not just membership."""
    from ..stages.sampling import shuffle_by_hash

    ds = _read(sf_dir, "documents", ["doc_id"])
    rows = shuffle_by_hash(ds, "doc_id").take(100)
    return pa.table(
        {
            "rank": pa.array(np.arange(len(rows)), pa.int64()),
            "doc_id": pa.array([r["doc_id"] for r in rows], pa.int64()),
        }
    )


def corpus_temperature_sample(sf_dir: str):
    """Per-stratum deterministic downsampling (corpus mixing): keep a
    lang-dependent fraction of documents, rate = (1 + len(lang) % 3)/4,
    decided per row from (doc_id % 1000) — the SQL-expressible twin of the
    production murmur-bucket path (stages/sampling.sample_per_group; both
    run the same stage code)."""
    from ..stages.sampling import sample_per_group

    ds = _read(sf_dir, "documents", ["doc_id", "lang"])
    kept = sample_per_group(
        ds,
        "lang",
        rates=lambda lang: (1 + len(lang) % 3) * 0.25,
        id_col="doc_id",
        method="mod",
        buckets=1000,
    )
    return kept.sort("doc_id")


def table_profile(sf_dir: str):
    """ANALYZE-style per-column statistics of documents (stages/profile.py):
    two map-only passes (native-typed min/max partials + one multi-KMV
    scan), no shuffle. The KMV capacity exceeds the column cardinalities
    at conformance scale, so every distinct count is certified exact
    (distinct_exact column) and the whole table is oracle-checkable."""
    from ..stages.profile import profile_columns

    cols = ["doc_id", "text", "lang", "source", "n_chars"]
    out = profile_columns(_read(sf_dir, "documents", cols), cols)
    assert all(out["distinct_exact"].to_pylist()), "raise distinct_k"
    return out


def length_band_survivors(sf_dir: str):
    """Distribution-based quality gate: keep docs inside the per-lang
    [12.5%, 87.5%] n_chars percentile band (drop each language's length
    outliers). Exact percentile_disc cuts computed from per-block
    HISTOGRAM partials (stages/sampling.percentile_band_filter) — the
    reduce is bounded by |langs| x |distinct lengths|, never O(rows).
    Band quantiles are binary-exact fractions so ceil(q*n) can't hit a
    float-representation boundary in either engine."""
    from ..stages.sampling import percentile_band_filter

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    out, _bands = percentile_band_filter(ds, "lang", "n_chars", 0.125, 0.875)
    return out.sort("doc_id")


def incremental_dedup_survivors(sf_dir: str):
    """Day-2 ingest gate (stages/dedup.incremental_dedup): the 'new' shard
    is the doc_id%10==0 slice PLUS planted exact copies of the %10==1
    slice (re-idded +1,000,000) — the copies must be dropped because
    their text already lives in the 'old' corpus (%10!=0), while the
    genuine new docs survive. Bloom prune (no false negatives) + exact
    fingerprint anti-join on the maybes only; oracle-exact."""
    from ..stages.dedup import incremental_dedup

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def side(pred):
        def mask(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].to_numpy(zero_copy_only=False)
            return t.filter(pa.array(pred(ids)))

        return docs.map_batches(mask, batch_format="pyarrow", zero_copy_batch=True)

    old = side(lambda ids: ids % 10 != 0)
    fresh = side(lambda ids: ids % 10 == 0)
    planted = side(lambda ids: ids % 10 == 1).map_batches(
        lambda t: pa.table(
            {
                "doc_id": pc.add(t["doc_id"], pa.scalar(1_000_000, pa.int64())),
                "text": t["text"],
            }
        ),
        batch_format="pyarrow",
    )
    out = incremental_dedup(fresh.union(planted), old)
    return out.select_columns(["doc_id"]).sort("doc_id")


def unigram_quality(sf_dir: str):
    """CCNet-style unigram-LM quality scores per document (Wenzek et al.
    2020): train a top-V unigram model over the whole corpus in one
    distributed pass, then score every doc's token stream against it.
    vocab_size=16 deliberately cuts inside this corpus's 31-token
    vocabulary so BOTH the in-vocab and the OOV (half-count Lidstone
    floor) paths are oracle-exercised. Integer 1e-8 log-prob units make
    the distributed per-doc sum order-free and DuckDB-exact."""
    from ..stages.text import unigram_logprob_scores

    return unigram_logprob_scores(
        _read(sf_dir, "documents", ["doc_id", "text"]), vocab_size=16
    )


# (table, key column) pairs profiled by the skew queries: the fact-table
# keys whose distribution decides salting/partitioning strategy
_SKEW_COLS = [
    ("documents", "lang"),
    ("documents", "source"),
    ("events", "event_type"),
    ("events", "user_id"),
    ("lineitem", "l_orderkey"),
]


_SKEW_PROFILE_CACHE: dict[tuple, pa.Table] = {}


def _skew_cache_key(sf_dir: str):
    """(sf_dir, per-table (mtime, size)) — the cache invalidates itself if
    a test rewrites a parquet under the same path."""
    import os as _os

    sig = []
    for table in sorted({t for t, _ in _SKEW_COLS}):
        p = _os.path.join(sf_dir, f"{table}.parquet")
        try:
            st = _os.stat(p)
            sig.append((table, st.st_mtime_ns, st.st_size))
        except OSError:
            sig.append((table, None, None))
    return (sf_dir, tuple(sig))


def key_skew_profile(sf_dir: str):
    """Exact key-skew profile of the shuffle-deciding fact-table keys:
    occurrence count, distinct count, F2 = sum(c^2) (the self-join size /
    AMS second moment — the statistic that decides whether a groupby or
    join key needs salting), and the hottest key's count.

    ONE scan per TABLE (both profiled columns counted per block into a
    single packed "table.col\\x1fkey" key space — the multi-column-groupby
    workaround, CLAUDE.md), one thinned groupby, then per-block stats
    partials + a 5-row native finishing aggregate. The first cut ran five
    sequential single-column pipelines re-reading each table (12.8 s in
    the bench suite); this shape is one pipeline per table (6.4 s warm).
    The pipeline lives in stages/profile.skew_stats (shared with the
    `skew` CLI subcommand).

    The 5-row result is memoized per (sf_dir, table mtimes): ams_f2_skew
    needs the identical exact-F2 legs, so within one driver/bench process
    the two queries pay the fact-table scans ONCE between them."""
    from ..stages.profile import skew_stats

    ck = _skew_cache_key(sf_dir)
    cached = _SKEW_PROFILE_CACHE.get(ck)
    if cached is not None:
        return cached
    by_table: dict[str, list[str]] = {}
    for table, col in _SKEW_COLS:
        by_table.setdefault(table, []).append(col)
    parts = [
        skew_stats(_read(sf_dir, table, cols), cols, label_prefix=f"{table}.")
        for table, cols in by_table.items()
    ]
    out = pa.concat_tables(parts).sort_by("col")
    if len(_SKEW_PROFILE_CACHE) > 8:  # entries are 5-row tables
        _SKEW_PROFILE_CACHE.clear()
    _SKEW_PROFILE_CACHE[ck] = out
    return out


def ams_f2_skew(sf_dir: str):
    """AMS/CountSketch F2 estimates for the same keys key_skew_profile
    measures exactly, with SELF-EVIDENCE columns (the hll_cardinalities
    convention): exact F2 from the distributed groupby, relative error,
    and the bound check (rel <= 2*sqrt(8/w), twice the published
    median-of-d standard error sqrt(8/w), Charikar et al. 2002 /
    Cormode-Garofalakis 2005). Both table columns build in ONE scan via
    multi_sketch_build; the sketch shuffles O(blocks * d * w) counters,
    never keys. The exact-F2 legs come from key_skew_profile's memoized
    5-row result (identical statistic over identical keys), so the two
    queries pay the fact-table count scans once between them."""
    import math as _math

    w, d = 8192, 5
    bound = 2.0 * _math.sqrt(8.0 / w)
    profile = key_skew_profile(sf_dir)
    exact_f2 = dict(
        zip(profile["col"].to_pylist(), profile["f2"].to_pylist())
    )
    by_table: dict[str, list[str]] = {}
    for table, col in _SKEW_COLS:
        by_table.setdefault(table, []).append(col)
    rows = []
    for table, cols in by_table.items():
        ds = _read(sf_dir, table, cols)
        built = multi_sketch_build(
            ds, {c: (SketchSpec.of("ams", w, d), c) for c in cols}
        )
        for c in cols:
            est = float(built[c].estimate())
            exact = int(exact_f2[f"{table}.{c}"])
            rel = abs(est - exact) / max(exact, 1)
            rows.append(
                {
                    "col": f"{table}.{c}",
                    "estimate": est,
                    "exact_f2": exact,
                    "rel_err": float(np.floor(rel * 1e6 + 0.5) / 1e6),
                    "within_bound": bool(rel <= bound),
                }
            )
    return pa.Table.from_pylist(rows).sort_by("col")


def _pair_counts(ds, a: str, b: str):
    """Per-(a, b) row counts of ``ds`` as a pandas frame with columns k
    (a), v (b in its string form) and cnt.

    ONE corpus scan: per-block count partials on one packed "a\\x1fb"
    string key (a multi-column Ray groupby is slow on pair streams)
    -> grouped_reduce; only the thinned partials shuffle and the collected
    result is dimension-bounded (|a| x |b|)."""

    def packed(t: pa.Table) -> pa.Table:
        return pa.table(
            {"kv": pc.binary_join_element_wise(t[a], pc.cast(t[b], pa.string()), "\x1f")}
        )

    t = collect_table(
        grouped_reduce(
            ds.map_batches(packed, batch_format="pyarrow", zero_copy_batch=True),
            "kv",
            {"cnt": ("kv", "count")},
        ),
        pa.schema({"kv": pa.string(), "cnt": pa.int64()}),
    )
    kv = pc.split_pattern(t["kv"], "\x1f")
    return pa.table(
        {"k": pc.list_element(kv, 0), "v": pc.list_element(kv, 1), "cnt": t["cnt"]}
    ).to_pandas()


def _type_cents_histogram(ev):
    """Per-(event_type, value-cents) count histogram of an events Dataset,
    as a pandas frame with columns k (type), v (cents, int64), cnt —
    dimension-bounded (|types| x |distinct cents|). Shared by
    value_rank_by_type / value_mad_by_type."""
    cents = ev.map_batches(
        lambda t: pa.table(
            {
                "event_type": t["event_type"],
                "cents": pc.cast(_oround(pc.multiply(t["value"], 100.0)), pa.int64()),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    df = _pair_counts(cents, "event_type", "cents")
    return df.assign(v=df["v"].astype(np.int64))


def value_rank_by_type(sf_dir: str):
    """Per-group rank transform (the quantile/percentile-normalization
    primitive): for EVERY event, the number of same-type events with a
    strictly smaller value (n_lt), with an equal value (n_eq), and the
    group size (n_group) — the integer ingredients of rank /
    percent_rank / cume_dist, exact by construction (no float division
    in the contract).

    Shape: one scan builds the per-(type, cents) count histogram
    (_type_cents_histogram — dimension-bounded), the driver turns it
    into per-type cumulative counts, and a second map-only pass looks
    every row up via broadcast searchsorted. No per-row window shuffle:
    the classic SQL `RANK() OVER (PARTITION BY ...)` sort is replaced by
    an O(|types| x |distinct values|) table + O(1) per-row lookups."""
    import ray

    ev = _read(sf_dir, "events", ["event_id", "event_type", "value"])
    df = _type_cents_histogram(ev)
    luts = {}
    for k, grp in df.groupby("k", sort=False):
        grp = grp.sort_values("v")
        vs = grp["v"].to_numpy()
        cs = grp["cnt"].to_numpy()
        cum = np.concatenate([[0], np.cumsum(cs)])  # cum[i] = count < vs[i]
        luts[k] = (vs, cs, cum[:-1], int(cum[-1]))
    lut_ref = ray.put(luts)

    def rank_rows(t: pa.Table) -> pa.Table:
        lu = ray.get(lut_ref)
        cents = (
            pc.cast(_oround(pc.multiply(t["value"], 100.0)), pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        n = len(t)
        n_lt = np.empty(n, np.int64)
        n_eq = np.empty(n, np.int64)
        n_g = np.empty(n, np.int64)
        # group rows by type within the batch so each type is ONE
        # vectorized searchsorted: dictionary-encode to integer codes
        # (vectorized argsort, no per-row Python string compares), then
        # one slice per distinct type in the batch (|types|-bounded).
        enc = pc.dictionary_encode(t["event_type"]).combine_chunks()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        cats = enc.dictionary.to_pylist()
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        cuts = np.flatnonzero(np.diff(sorted_codes)) + 1
        for idx in np.split(order, cuts) if n else []:
            vs, cs, cum_lt, total = lu[cats[codes[idx[0]]]]
            pos = np.searchsorted(vs, cents[idx])
            n_lt[idx] = cum_lt[pos]
            n_eq[idx] = cs[pos]
            n_g[idx] = total
        return pa.table(
            {
                "event_id": t["event_id"].cast(pa.int64()),
                "n_lt": pa.array(n_lt),
                "n_eq": pa.array(n_eq),
                "n_group": pa.array(n_g),
            }
        )

    return ev.map_batches(rank_rows, batch_format="pyarrow").sort("event_id")


def negative_pairs(sf_dir: str):
    """Deterministic contrastive-negative mining over the embedding table:
    each anchor vector gets two negatives at fixed permutation strides
    (partner = (vec_id + n//3) % n and (vec_id + n//2) % n — an addition
    stride is always a bijection, so every vector serves as a negative
    exactly twice and the selection is reproducible with NO RNG state to
    ship), scored by exact float64 cosine (the embedding_neardup_exact
    parity conventions: round half-away to 6). Shape: one map adds the
    partner ids, the partner vectors attach via the size-guarded
    broadcast/hash lookup join — no quadratic pair enumeration."""
    from ..stages.joins import broadcast_lookup_join
    from ..stages.similarity import _emb_matrix

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    n = ds.count()
    if n < 7:
        raise ValueError("negative_pairs needs >= 7 vectors")
    strides = [n // 3, n // 2]

    def expand(t: pa.Table) -> pa.Table:
        vid = t["vec_id"].cast(pa.int64())
        vnp = vid.to_numpy(zero_copy_only=False)
        parts = []
        for s in strides:
            neg = pa.array((vnp + s) % n, pa.int64())
            parts.append(
                pa.table(
                    {
                        "vec_id": vid,
                        "stride": pa.array(
                            np.full(len(vid), s, np.int64)
                        ),
                        "neg_id": neg,
                        "emb_a": t["embedding"],
                    }
                )
            )
        return pa.concat_tables(parts)

    left = ds.map_batches(expand, batch_format="pyarrow", zero_copy_batch=True)
    right = ds.map_batches(
        lambda t: pa.table(
            {"neg_id": t["vec_id"].cast(pa.int64()), "emb_b": t["embedding"]}
        ),
        batch_format="pyarrow",
    )
    joined = broadcast_lookup_join(left, right, on="neg_id", right_count=n)

    def score(t: pa.Table) -> pa.Table:
        a = _emb_matrix(t["emb_a"], dtype=np.float64)
        b = _emb_matrix(t["emb_b"], dtype=np.float64)
        num = np.einsum("ij,ij->i", a, b)
        den = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
        cos = num / np.where(den == 0, 1.0, den)
        return pa.table(
            {
                "vec_id": t["vec_id"],
                "stride": t["stride"],
                "neg_id": t["neg_id"],
                "score": _oround(pa.array(cos, pa.float64()), 6),
            }
        )

    return joined.map_batches(score, batch_format="pyarrow").sort(
        ["vec_id", "stride"]
    )


def winnow_shared(sf_dir: str):
    """Winnowing-fingerprint dup signal (Schleimer et al. 2003 / MOSS):
    per-doc fingerprint count + shared-fingerprint count at char-3-gram,
    window 4 (expected density 2/(w+1) = 0.4 of the gram stream — the
    sub-sampled 100 TB shape of the ExactSubstr-style flagging). Murmur
    fingerprints are not SQL-expressible, so the row is rows-only; the
    selection algorithm is pinned against an independent pure-Python
    reference, the coverage guarantee (shared substring >= w+k-1 chars
    -> shared fingerprint), and the density band in pytest."""
    from ..stages.dedup import winnow_shared_docs

    return winnow_shared_docs(
        _read(sf_dir, "documents", ["doc_id", "text"]), k=3, w=4
    )


def top3_sources_per_lang(sf_dir: str):
    """Grouped top-k (k=3): the three most frequent sources per language,
    (count DESC, source ASC) tie-break. Per-block (lang, source) count
    partials shuffle as ONE packed string key (multi-column groupby is
    pathologically slow on pair streams — CLAUDE.md); the grouped stats
    table is dimension-bounded (|langs| x |sources|), so the final rank
    happens on the driver like the other grouped readouts
    (corpus_split_mod_exact, kll_by_lang_exact)."""
    df = _pair_counts(
        _read(sf_dir, "documents", ["lang", "source"]), "lang", "source"
    ).rename(columns={"k": "lang", "v": "source", "cnt": "n"})
    df = df.sort_values(["lang", "n", "source"], ascending=[True, False, True])
    df["rank"] = df.groupby("lang").cumcount() + 1
    df = df[df["rank"] <= 3]
    return pa.table(
        {
            "lang": pa.array(df["lang"], pa.string()),
            "rank": pa.array(df["rank"].to_numpy(), pa.int64()),
            "source": pa.array(df["source"], pa.string()),
            "n": pa.array(df["n"].to_numpy(), pa.int64()),
        }
    )


def value_mad_by_type(sf_dir: str):
    """Robust per-group outlier statistics: median, MAD (median absolute
    deviation) and the |x - med| > 3*MAD outlier count of event value per
    event_type — the robust twin of value_zscore_by_type (median/MAD shrug
    off the heavy tail that inflates mean/stddev). Money rides as integer
    cents, so every statistic is engine-exact.

    ONE corpus scan (_type_cents_histogram) -> a dimension-bounded
    histogram (|types| x |distinct cents|) on the driver, from which the
    median, the abs-deviation HISTOGRAM (a pure re-key of the value
    histogram — no second scan), the MAD, and the outlier count all
    derive. percentile_disc semantics (smallest value with cumulative
    count >= ceil(q*n)), matching the SQL twin."""
    ev = _read(sf_dir, "events", ["event_type", "value"])
    df = _type_cents_histogram(ev)

    def disc(vs: np.ndarray, cnts: np.ndarray, q: float) -> int:
        order = np.argsort(vs, kind="stable")
        vs, cnts = vs[order], cnts[order]
        cum = np.cumsum(cnts)
        target = max(int(np.ceil(q * cum[-1])), 1)
        return int(vs[np.searchsorted(cum, target)])

    out = []
    for k, grp in df.groupby("k", sort=True):
        vs = grp["v"].to_numpy()
        cnts = grp["cnt"].to_numpy()
        med = disc(vs, cnts, 0.5)
        dev = np.abs(vs - med)
        mad = disc(dev, cnts, 0.5)
        n_out = int(cnts[dev > 3 * mad].sum())
        out.append(
            {
                "event_type": k,
                "med_cents": med,
                "mad_cents": mad,
                "n_outliers": n_out,
            }
        )
    return pa.Table.from_pylist(out)


def leakage_safe_split(sf_dir: str):
    """Leakage-safe train/val/test assignment: split by the DUP-CLUSTER
    representative, not the doc id, so exact duplicates can never straddle
    folds (the eval-contamination failure mode of naive per-doc splits).
    Composition of two verified pieces: distributed connected components
    over the exact-dup pair set (cluster = min doc_id, the
    exact_dup_clusters machinery) -> the shuffle-free assign_split stage
    keyed on the cluster id (mod bucketer, the SQL-expressible twin of the
    production murmur-hash bucketer). Oracle: min(doc_id) OVER (PARTITION
    BY text), then CASE on cluster % 10."""
    from ..stages.sampling import assign_split

    out = assign_split(
        exact_dup_clusters(sf_dir), "cluster", _SPLIT_FRACTIONS, method="mod", buckets=10
    )
    return out.select_columns(["doc_id", "cluster", "split"]).sort("doc_id")


def length_histogram(sf_dir: str):
    """Per-language equi-width length histogram (10 bins over the GLOBAL
    n_chars range) — the corpus-profiling companion of the quantile
    queries. Bin edges via pure integer math, ``(x - mn) * 10 // (mx - mn
    + 1)``, so both engines land every boundary value identically. Two
    passes: one tiny global min/max aggregate, then per-block (lang, bin)
    count partials -> native sum (only the thinned partials shuffle)."""
    from ray.data.aggregate import Max, Min

    ds = _read(sf_dir, "documents", ["lang", "n_chars"])
    mm = ds.aggregate(Min("n_chars"), Max("n_chars"))
    mn, mx = int(mm["min(n_chars)"]), int(mm["max(n_chars)"])
    width_denom = mx - mn + 1

    def binned(t: pa.Table) -> pa.Table:
        x = t["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = (x - mn) * 10 // width_denom
        return pa.table({"lang": t["lang"], "bin": pa.array(b, pa.int64())})

    return grouped_reduce(
        ds.map_batches(binned, batch_format="pyarrow", zero_copy_batch=True),
        ["lang", "bin"],
        {"n": ("bin", "count")},
    ).sort(["lang", "bin"])


def pmi_top_bigrams(sf_dir: str):
    """Top-20 word-bigram collocations by PMI (Church & Hanks 1990) with a
    min_count=5 floor — tokenizer-merge / multi-word-expression mining
    over the corpus. Integer 1e-8 nat PMI from the same three glibc ln
    calls the SQL twin makes, so the (pmi DESC, gram) top-k is
    oracle-exact."""
    from ..stages.text import pmi_collocations

    return pmi_collocations(
        _read(sf_dir, "documents", ["text"]), min_count=5, k=20
    )


def dsir_scores(sf_dir: str):
    """DSIR importance weights (Xie et al. 2023): per-doc log-likelihood
    ratio between a target-domain (lang='en') word-bigram LM and the
    raw-corpus bigram LM — the data-selection score whose resampling
    shifts a pretraining mix toward the target. vocab_size=64 cuts inside
    this corpus's ~900-bigram vocabulary so in-vocab and OOV-floor paths
    are oracle-exercised for BOTH models. Integer 1e-8 nat units keep the
    distributed per-doc sum order-free and DuckDB-exact."""
    from ..stages.text import dsir_importance_scores

    return dsir_importance_scores(
        _read(sf_dir, "documents", ["doc_id", "lang", "text"]),
        target_col="lang",
        target_value="en",
        vocab_size=64,
    ).sort("doc_id")


def user_running_value(sf_dir: str):
    """Per-user running event count + running value total over the full
    event stream — the classic per-key cumulative window (SQL: SUM/COUNT
    OVER (PARTITION BY user ORDER BY ts, id ROWS UNBOUNDED PRECEDING)),
    as stages/windows.cumulative_by_key's two-pass distributed scan.
    Money rides as integer cents (half-away rounding) so the running sum
    is addition-order-free and oracle-exact at every prefix."""
    from ..stages.windows import cumulative_by_key

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])

    def cents(t: pa.Table) -> pa.Table:
        c = pc.cast(_oround(pc.multiply(t["value"], 100.0)), pa.int64())
        return pa.table(
            {
                "user_id": t["user_id"],
                "ts": t["ts"],
                "event_id": t["event_id"],
                "value_cents": c,
            }
        )

    out = cumulative_by_key(
        ev.map_batches(cents, batch_format="pyarrow", zero_copy_batch=True),
        key="user_id",
        order_cols=["ts", "event_id"],
        val_col="value_cents",
        sum_col="cum_cents",
        count_col="cum_n",
    )
    return out.select_columns(["user_id", "event_id", "cum_n", "cum_cents"])


def semdedup_survivors(sf_dir: str):
    """SemDeDup (Abbas et al. 2023) over the embeddings table in its exact
    degenerate regime: k=1 makes the within-cluster compare a single global
    cosine prune, so the greedy keep-min-id rule ("drop a row iff some
    lower-id row is >= threshold") has a SQL NOT EXISTS twin. Threshold
    0.4 sits in the corpus's discriminative band (max pairwise cosine
    ~0.5; see embedding_neardup_exact). k>1 recall is pinned by the
    planted-cluster pytest (tests/test_cluster.py)."""
    from ..stages.cluster import semantic_dedup_survivors

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return semantic_dedup_survivors(emb, threshold=0.4, k=1).sort("vec_id")


def gopher_rules(sf_dir: str):
    """Gopher quality-rule bundle (Rae et al. 2021 Appendix A) per doc —
    the standard pre-training text gate as a rule bitmask. All thresholds
    are integer cross-multiplications (no ratio division), so pass/fail
    decisions are engine-exact; oracle-exact vs the SQL CASE twin. On
    this corpus R0 (>=40 words) and R4 (>=2 stopwords; 'the' is in the
    synthetic vocabulary) genuinely split the docs."""
    from ..stages.text import gopher_quality_flags

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        gopher_quality_flags, batch_format="pyarrow", zero_copy_batch=True
    )


def window_top_event(sf_dir: str):
    """Windowed heavy hitters — sketch x window composition: a Misra-Gries
    summary PER TUMBLING HOUR (grouped sketch build; one MG partial per
    (block, window) crosses the exchange), read out as each window's top
    event type + exact count. m=64 exceeds the 5-type cardinality so every
    per-window summary is provably exact (asserted per group), making the
    readout oracle-checkable; MG's (count desc, key asc) tie-break is
    mirrored in the SQL row_number ORDER BY."""

    def top1(sk) -> str:
        assert sk.err_bound == 0, "m=64 must exceed event_type cardinality"
        k, lo, _hi = sk.topk(1)[0]
        return f"{k}\x1f{lo}"

    ds = _read(sf_dir, "events", ["ts", "event_type"])

    def add_window(t: pa.Table) -> pa.Table:
        w = pc.divide(pc.cast(t["ts"], pa.int64()), 3_600_000_000)
        return pa.table({"window": w, "event_type": t["event_type"]})

    grouped = build_grouped(
        ds.map_batches(add_window, batch_format="pyarrow", zero_copy_batch=True),
        SketchSpec.of("mg", 64),
        on="event_type",
        key="window",
        finalizer=top1,
        alias="_packed",
    )

    def unpack(t: pa.Table) -> pa.Table:
        parts = pc.split_pattern(t["_packed"], "\x1f")
        return pa.table(
            {
                "window": t["window"],
                "event_type": pc.list_element(parts, 0),
                "n": pc.cast(pc.list_element(parts, 1), pa.int64()),
            }
        )

    return grouped.map_batches(
        unpack, batch_format="pyarrow", zero_copy_batch=True
    ).sort("window")


def weighted_doc_sample(sf_dir: str):
    """Efraimidis-Spirakis weighted sample (n=50, weight = n_chars): longer
    docs proportionally likelier, no replacement, fully deterministic (the
    Knuth-mix u makes reruns and engines agree). np.log and DuckDB's glibc
    ln can differ in the last ulp, but scores are compared at 6 decimals
    and adjacent ranks on this corpus are separated by >> 1e-6, so both
    the selection and the emitted scores are oracle-exact."""
    from ..stages.sampling import weighted_sample

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    return weighted_sample(ds, n=50, weight_col="n_chars", id_col="doc_id")


def shared_gram_docs(sf_dir: str):
    """ExactSubstr-style self-dedup signal (Lee et al. 2022): docs whose
    word 6-grams occur in at least one OTHER doc, with the count of their
    distinct shared grams. 6 is the smallest n that isolates genuine
    near-dup structure on this corpus (47 docs) from the dense 31-token
    alphabet background (n=4 would flag 368 of 500). Oracle-exact."""
    from ..stages.decontam import shared_gram_docs as _sgd

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = _sgd(docs, n=6)
    if isinstance(out, pa.Table):  # clean-corpus degenerate (0 rows)
        return out
    return out.sort("doc_id")


def pretrain_gate_ids(sf_dir: str):
    """The full RefinedWeb/FineWeb-style pretraining admission gate,
    end-to-end across BOTH corpus tables: a doc enters the training set
    iff it (a) passes every Gopher quality rule, (b) is its text's exact-
    dedup winner (min doc_id), and (c) survives SemDeDup over its aligned
    embedding (vec_id == doc_id; k=1 exact regime, cosine < 0.4 to every
    lower id). Each leg is the already-oracle-exact operator; the
    composition intersects id STREAMS through the size-guarded
    id_set_filter (no driver materialization above the broadcast budget),
    so the whole gate keeps the 100 TB shape. Oracle-exact vs the
    conjunction of the three SQL twins."""
    from ..stages.cluster import semantic_dedup_survivors
    from ..stages.dedup import id_set_filter
    from ..stages.text import gopher_quality_flags

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def quality_ids(t: pa.Table) -> pa.Table:
        g = gopher_quality_flags(t)
        return pa.table({"doc_id": g["doc_id"].filter(g["passes"])})

    gated = docs.map_batches(
        quality_ids, batch_format="pyarrow", zero_copy_batch=True
    )
    winners = (
        docs.groupby("text")
        .min("doc_id")
        .map_batches(
            lambda t: pa.table({"doc_id": t["min(doc_id)"]}),
            batch_format="pyarrow",
        )
    )
    sem = semantic_dedup_survivors(emb, threshold=0.4, k=1).map_batches(
        lambda t: pa.table({"doc_id": t["vec_id"]}), batch_format="pyarrow"
    )
    out = id_set_filter(winners, "doc_id", keep=True)(gated)
    out = id_set_filter(sem, "doc_id", keep=True)(out)
    return out.sort("doc_id")


def value_zscore_by_type(sf_dir: str):
    """Per-event-type z-score of the event value — the two-pass feature
    normalization every tabular pipeline runs (grouped integer moments ->
    broadcast stats -> vectorized map; stages/normalize.py). Moments are
    exact integer cents, the float tail is a pinned IEEE op sequence
    (sqrt correctly rounded by spec), so z matches DuckDB at 6 decimals."""
    from ..stages.normalize import zscore_by_group

    ev = _read(sf_dir, "events", ["event_id", "event_type", "value"])
    return zscore_by_group(
        ev, key="event_type", val_col="value", id_col="event_id"
    )


def supplier_region_revenue(sf_dir: str):
    """Supply-side revenue rollup to REGION: lineitem x supplier x nation
    x region (the mirror of revenue_by_nation's demand-side chain —
    together they cover both TPC-H join directions and the last two
    untouched tables).

    Scale shape: ONE size-guarded join between corpus-scaled tables
    (lineitem x supplier on suppkey via broadcast_lookup_join — at this
    sf supplier broadcasts once via ray.put; at 100 TB it is a
    volume-clamped distributed hash join, both plans tested equal for
    the sibling query). nation (25) x region (5) compose driver-side
    into ONE nationkey -> region-name lookup shipped once. Money in
    integer centi-cents end to end (q1_pricing_summary conventions)."""
    from ..stages.joins import broadcast_lookup_join

    rmap = _dim_map(sf_dir, "region", "r_regionkey", "r_name")
    lut_ref = _dim_lookup(
        _read(sf_dir, "nation", ["n_nationkey", "n_regionkey"]).map_batches(
            lambda t: pa.table(
                {
                    "n_nationkey": t["n_nationkey"],
                    "region": pa.array(
                        [rmap[k] for k in t["n_regionkey"].to_pylist()], pa.string()
                    ),
                }
            ),
            batch_format="pyarrow",
        ),
        "n_nationkey",
        ["region"],
    )

    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).map_batches(
        lambda t: t.rename_columns(["l_suppkey", "s_nationkey"]),
        batch_format="pyarrow",
    )
    n_supp = _read(sf_dir, "supplier", ["s_suppkey"]).count()  # metadata

    li = _read(
        sf_dir, "lineitem", ["l_suppkey", "l_extendedprice", "l_discount"]
    ).map_batches(
        lambda t: pa.table({"l_suppkey": t["l_suppkey"], "rev_cc": _rev_cc(t)}),
        batch_format="pyarrow",
    )
    n_li = _read(sf_dir, "lineitem", ["l_suppkey"]).count()  # metadata
    joined = broadcast_lookup_join(
        li, supp, on="l_suppkey", right_count=n_supp, left_count=n_li
    )

    def with_region(t: pa.Table) -> pa.Table:
        member, pos, (names,) = _dim_probe(
            lut_ref, t["s_nationkey"].to_numpy(zero_copy_only=False)
        )
        if not member.all():
            raise ValueError("s_nationkey not present in nation table")
        return pa.table(
            {"region": pa.array(names[pos], pa.string()), "rev_cc": t["rev_cc"]}
        )

    out = grouped_reduce(
        joined.map_batches(with_region, batch_format="pyarrow"),
        "region",
        {"revenue_centicents": ("rev_cc", "sum"), "n_items": ("rev_cc", "count")},
    )
    return out.sort("region")


def promo_brand_revenue(sf_dir: str):
    """Conditional revenue split per part brand (TPC-H Q14 flavor, kept
    grouped): for every p_brand, the revenue from PROMO-type parts, the
    total revenue, and the item counts — the CASE-aggregation join shape
    (fact x attribute dimension -> flag -> conditional sums).

    Scale shape: lineitem x part on partkey through the size-guarded
    broadcast/hash join, then per-block (brand, flag) pre-aggregation so
    only |brands|-bounded partials reach the ONE native groupby. Integer
    centi-cents throughout."""
    from ..stages.joins import broadcast_lookup_join

    part = _read(sf_dir, "part", ["p_partkey", "p_brand", "p_type"]).map_batches(
        lambda t: pa.table(
            {
                "l_partkey": t["p_partkey"],
                "p_brand": t["p_brand"],
                "is_promo": pc.equal(t["p_type"], "PROMO"),
            }
        ),
        batch_format="pyarrow",
    )
    n_part = _read(sf_dir, "part", ["p_partkey"]).count()  # metadata

    li = _read(
        sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_discount"]
    ).map_batches(
        lambda t: pa.table({"l_partkey": t["l_partkey"], "rev_cc": _rev_cc(t)}),
        batch_format="pyarrow",
    )
    n_li = _read(sf_dir, "lineitem", ["l_partkey"]).count()  # metadata
    joined = broadcast_lookup_join(
        li, part, on="l_partkey", right_count=n_part, left_count=n_li
    )

    def flags(t: pa.Table) -> pa.Table:
        promo = t["is_promo"].to_numpy(zero_copy_only=False)
        cc = t["rev_cc"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "p_brand": t["p_brand"],
                "promo_cc": pa.array(np.where(promo, cc, 0)),
                "cc": t["rev_cc"],
                "promo_n": pa.array(promo.astype(np.int64)),
            }
        )

    out = grouped_reduce(
        joined.map_batches(flags, batch_format="pyarrow", zero_copy_batch=True),
        "p_brand",
        {
            "promo_centicents": ("promo_cc", "sum"),
            "revenue_centicents": ("cc", "sum"),
            "n_promo_items": ("promo_n", "sum"),
            "n_items": ("cc", "count"),
        },
    )
    return out.sort("p_brand")


def late_shipment_priority(sf_dir: str):
    """Orders whose latest lineitem shipped > 60 days after the order
    date, counted per order priority — the EXISTS-with-predicate
    fact-fact shape, size-gated between two shuffle-light plans:

    - orders map fits the broadcast budget: EXISTS(l.shipdate >
      o.orderdate + 60d) probes a broadcast (orderdate, priority) map
      per lineitem block and emits only DISTINCT late orderkeys — the
      sole shuffle is the distinct groupby over the (usually small) late
      subset; no keyed groupby-max, no join at all.
    - above the budget: max(l.shipdate) > o.orderdate + 60d via ONE
      native groupby-max thinning lineitem to a keyed per-order stream
      before the size-guarded join against orders (never a row-expanding
      fact-fact join)."""
    from ..stages.joins import DIM_BROADCAST_MAX

    n_orders = _read(sf_dir, "orders", ["o_orderkey"]).count()  # metadata
    if n_orders <= DIM_BROADCAST_MAX:
        return _late_orders_broadcast_plan(sf_dir, 60, "n_late")
    return _late_shipment_join_plan(sf_dir, n_orders)


def _late_orders_broadcast_plan(sf_dir: str, grace_days: int, count_col: str):
    import ray

    oschema = pa.schema(
        [
            ("o_orderkey", pa.int64()),
            ("ord_us", pa.int64()),
            ("o_orderpriority", pa.string()),
        ]
    )
    ot = collect_table(
        _read(
            sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_orderpriority"]
        ).map_batches(
            lambda t: pa.table(
                {
                    "o_orderkey": t["o_orderkey"],
                    "ord_us": pc.cast(t["o_orderdate"], pa.int64()),
                    "o_orderpriority": t["o_orderpriority"],
                }
            ),
            batch_format="pyarrow",
        ),
        oschema,
    )
    keys = ot["o_orderkey"].to_numpy(zero_copy_only=False)
    order = np.argsort(keys)
    keys = keys[order]
    ord_us = ot["ord_us"].to_numpy(zero_copy_only=False)[order]
    vocab, pcode = np.unique(
        np.array(ot["o_orderpriority"].to_pylist(), dtype=object), return_inverse=True
    )
    pcode = pcode[order].astype(np.int64)
    ref = ray.put((keys, ord_us, pcode))
    late_us = grace_days * 86_400 * 1_000_000

    def late_keys(t: pa.Table) -> pa.Table:
        k, o, _p = ray.get(ref)
        lk = t["l_orderkey"].to_numpy(zero_copy_only=False)
        ship = pc.cast(t["l_shipdate"], pa.int64()).to_numpy(zero_copy_only=False)
        pos = np.minimum(np.searchsorted(k, lk), len(k) - 1)
        late = (k[pos] == lk) & (ship > o[pos] + late_us)
        return pa.table({"o_orderkey": pa.array(np.unique(lk[late]))})

    def prio_partials(t: pa.Table) -> pa.Table:
        k, _o, p = ray.get(ref)
        lk = t["o_orderkey"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(k, lk)  # members by construction
        codes, counts = np.unique(p[pos], return_counts=True)
        return pa.table(
            {"pcode": pa.array(codes), "n": pa.array(counts.astype(np.int64))}
        )

    t = collect_table(
        _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
        .map_batches(late_keys, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("o_orderkey")
        .count()
        .map_batches(prio_partials, batch_format="pyarrow")
        .groupby("pcode")
        .sum("n", ignore_nulls=True),
        pa.schema({"pcode": pa.int64(), "sum(n)": pa.int64()}),
    ).sort_by("pcode")
    return pa.table(
        {
            "o_orderpriority": pa.array(vocab[t["pcode"].to_numpy()], pa.string()),
            count_col: t["sum(n)"],
        }
    )


def _late_shipment_join_plan(sf_dir: str, n_orders: int):
    from ..stages.joins import broadcast_lookup_join

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"]).map_batches(
        lambda t: pa.table(
            {
                "o_orderkey": t["l_orderkey"],
                "ship_us": pc.cast(t["l_shipdate"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    # the per-block pre-max pays off although orderkeys are near-unique:
    # lineitem is clustered by orderkey, so it thins the shuffle input
    # ~|items-per-order|x
    maxship = grouped_reduce(li, "o_orderkey", {"max_ship_us": ("ship_us", "max")})
    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_orderpriority"]
    ).map_batches(
        lambda t: pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "ord_us": pc.cast(t["o_orderdate"], pa.int64()),
                "o_orderpriority": t["o_orderpriority"],
            }
        ),
        batch_format="pyarrow",
    )
    # maxship is orderkey-unique with <= n_orders rows: sound guard bound
    joined = broadcast_lookup_join(
        orders, maxship, on="o_orderkey", right_count=n_orders,
        left_count=n_orders,
    )
    late_us = 60 * 86_400 * 1_000_000

    def late_only(t: pa.Table) -> pa.Table:
        late = pc.greater(
            t["max_ship_us"], pc.add(t["ord_us"], pa.scalar(late_us, pa.int64()))
        )
        return pa.table({"o_orderpriority": t["o_orderpriority"]}).filter(late)

    out = grouped_reduce(
        joined.map_batches(late_only, batch_format="pyarrow"),
        "o_orderpriority",
        {"n_late": ("o_orderpriority", "count")},
    )
    return out.sort("o_orderpriority")


def user_gap_stats(sf_dir: str):
    """Per-user inter-event gap statistics — the distributed LAG window
    (stages/windows.gap_stats): event count, total and maximum gap in
    integer microseconds, exact and tiebreak-free (gaps depend only on
    the sorted ts multiset). One range shuffle; only O(batches) edge
    partials reach the driver."""
    from ..stages.windows import gap_stats

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id"])
    return gap_stats(
        ev, key="user_id", ts_col="ts", id_col="event_id"
    ).sort("user_id")


def _lang_value_histogram(sf_dir: str):
    """Shared (lang, n_chars) count histogram for the quantile twins
    (``_pair_counts``: only the |langs| x |distinct n_chars|-bounded
    histogram shuffles). Returns a pandas frame with columns k (lang), v
    (n_chars, int64), cnt."""
    df = _pair_counts(_read(sf_dir, "documents", ["lang", "n_chars"]), "lang", "n_chars")
    return df.assign(v=df["v"].astype(np.int64))


def cont_quantiles_by_lang(sf_dir: str):
    """Interpolated (percentile_cont) per-lang quartiles of n_chars —
    completes the quantile family next to the percentile_disc twin
    (exact_quantiles_by_lang) and the sketch builds.

    Count-histogram order statistics (see _lang_value_histogram): only the
    dimension-bounded histogram shuffles. Float tail is the pinned IEEE
    sequence DuckDB uses: p = q*(n-1); v = v_lo + (p - floor(p))*
    (v_hi - v_lo); round 6."""
    df = _lang_value_histogram(sf_dir)

    out = []
    for lang, grp in df.groupby("k", sort=True):
        grp = grp.sort_values("v")
        vs = grp["v"].to_numpy()
        cum = np.cumsum(grp["cnt"].to_numpy())
        n = int(cum[-1])

        def order_stat(i: int) -> float:
            # 0-based i-th smallest via cumulative counts
            return float(vs[np.searchsorted(cum, i + 1)])

        row = {"lang": lang}
        for q in (0.25, 0.5, 0.75):
            p = q * (n - 1)
            lo = int(np.floor(p))
            hi = int(np.ceil(p))
            vlo = order_stat(lo)
            v = vlo + (p - lo) * (order_stat(hi) - vlo)
            row[f"p{int(q * 100)}"] = float(
                np.floor(v * 1e6 + 0.5) / 1e6 if v >= 0 else np.ceil(v * 1e6 - 0.5) / 1e6
            )
        out.append(row)
    return pa.Table.from_pylist(out)


def ann_filtered_topk(sf_dir: str):
    """Filtered vector retrieval — the metadata-predicate + top-k shape
    every production vector store serves (search only label-3 vectors):
    the predicate applies AT THE SCAN (Ray filter pushdown — the pruned
    corpus never enters the top-k stage), queries are the 4 lowest
    vec_ids of the UNFILTERED stream, scores are exact float64 cosine
    with the ann_brute_topk ranking/rounding conventions (rank on the
    unrounded score, vec_id tiebreak, round half-away to 6 after)."""
    from ..stages.similarity import ann_topk

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    qrows = ds.sort("vec_id").take(4)
    qids = np.array([r["vec_id"] for r in qrows], dtype=np.int64)
    q = np.stack([np.asarray(r["embedding"], dtype=np.float64) for r in qrows])
    corpus = ds.filter(expr="label == 3").select_columns(
        ["vec_id", "embedding"]
    )
    df = ann_topk(corpus, q, k=5, dtype="float64")
    df["query_id"] = qids[df["query_id"].to_numpy()]
    s = df["score"].to_numpy()
    df["score"] = np.sign(s) * np.floor(np.abs(s) * 1e6 + 0.5) / 1e6
    return df.sort_values(["query_id", "vec_id"]).reset_index(drop=True)


def hybrid_rrf_topk(sf_dir: str):
    """Hybrid retrieval via Reciprocal-Rank Fusion (Cormack et al. 2009):
    fuse the BM25 lexical top-5 (bm25_topk) with the exact-cosine vector
    top-10 (the ann_brute_topk machinery) for the 4 shared query docs
    (vec_id == doc_id in the corpus), score = sum over lists of
    floor(1e8 / (60 + rank)) — integer units, so the fusion is
    addition-order-free and oracle-exact. Missing from a list = 0
    contribution (the standard RRF convention). Top-5 per query by
    (rrf DESC, doc_id ASC).

    Scale shape: both retrieval legs are the existing distributed ops;
    fusion itself runs on the O(queries x k) HEADS only — the production
    shape (rank fusion always operates on the already-reduced top-k
    lists, never the corpus)."""
    from ..stages.similarity import ann_topk
    from ..stages.similarity import bm25_topk as _bm25

    K = 60

    lex = _bm25(
        _read(sf_dir, "documents", ["doc_id", "text"]), query_max_id=10, k=5
    ).to_pandas()
    lex = lex[lex["query_id"] < 4]

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    qrows = ds.sort("vec_id").take(4)
    qids = np.array([r["vec_id"] for r in qrows], dtype=np.int64)
    q = np.stack([np.asarray(r["embedding"], dtype=np.float64) for r in qrows])
    vec = ann_topk(ds, q, k=10, dtype="float64")
    vec["query_id"] = qids[vec["query_id"].to_numpy()]
    s = vec["score"].to_numpy()
    # rank on the ROUNDED score (the twin's pinned convention), doc asc
    vec["score"] = np.sign(s) * np.floor(np.abs(s) * 1e6 + 0.5) / 1e6

    import pandas as pd

    lex = lex.sort_values(
        ["query_id", "score_micro", "match_id"],
        ascending=[True, False, True],
    )
    lex["rank"] = lex.groupby("query_id").cumcount() + 1
    lex_pts = pd.DataFrame(
        {
            "query_id": lex["query_id"].to_numpy(),
            "doc_id": lex["match_id"].to_numpy(),
            "pts": 10**8 // (K + lex["rank"].to_numpy()),
        }
    )
    vec = vec.sort_values(
        ["query_id", "score", "vec_id"], ascending=[True, False, True]
    )
    vec["rank"] = vec.groupby("query_id").cumcount() + 1
    vec_pts = pd.DataFrame(
        {
            "query_id": vec["query_id"].to_numpy(),
            "doc_id": vec["vec_id"].to_numpy(),
            "pts": 10**8 // (K + vec["rank"].to_numpy()),
        }
    )
    fused = (
        pd.concat([lex_pts, vec_pts])
        .groupby(["query_id", "doc_id"], as_index=False)["pts"]
        .sum()
        .sort_values(["query_id", "pts", "doc_id"], ascending=[True, False, True])
    )
    top = fused.groupby("query_id").head(5)
    return pa.table(
        {
            "query_id": pa.array(top["query_id"].to_numpy(), pa.int64()),
            "doc_id": pa.array(top["doc_id"].to_numpy(), pa.int64()),
            "rrf_units": pa.array(top["pts"].to_numpy(), pa.int64()),
        }
    )


def classifier_scores(sf_dir: str):
    """Linear quality-classifier inference over the embedding column — the
    model-scoring stage of a curation pipeline (RefinedWeb/FineWeb-style:
    score every doc with a trained linear head, keep logit >= threshold).

    The model here is a deterministic fixture both engines can state
    exactly: w_j = (((j*37) % 19) - 9) / 10 over the 64 dims, bias 0 —
    standing in for trained weights, which would ship the same way (one
    ``ray.put``, loaded once per worker process in ``LinearScorer.__init__``).
    Scale shape: no shuffle, one float64 matmul per batch, output is
    (vec_id, logit, accept). Oracle: DuckDB ``list_dot_product`` against
    the same generated weight list; both engines round the logit 6dp
    half-away-from-zero and gate ``accept`` on the ROUNDED value so the
    boundary is bit-deterministic."""
    from ..stages.similarity import linear_scores

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    dim = len(ds.take(1)[0]["embedding"])
    w = (((np.arange(dim, dtype=np.int64) * 37) % 19) - 9) / 10.0
    scored = linear_scores(ds, w)

    def finish(t: pa.Table) -> pa.Table:
        logit = _oround(t["logit"], 6)
        return pa.table(
            {
                "vec_id": t["vec_id"],
                "logit": logit,
                "accept": pc.greater_equal(logit, 0.0),
            }
        )

    return scored.map_batches(finish, batch_format="pyarrow").sort("vec_id")


def type_weighted_value_salted(sf_dir: str):
    """Weighted per-type value rollup routed through the SALTED join plan
    (stages/joins.salted_join) in its true regime: event_type has 5 values
    at ~20% of the stream each — EVERY join key is hot, so an unsalted
    hash join funnels the whole stream through |types| partition slots
    while salt=8 spreads each key across 8. The derived dimension
    (distinct type -> mult = length(type)) stands in for a key-unique
    lookup; the oracle twin proves the salted plan exact (post-join key
    equality makes it collision-exact by construction). Money rides as
    integer micros, half-away rounding, both engines."""
    from ..stages.joins import salted_join

    ev = _read(sf_dir, "events", ["event_type", "value"])
    dim = (
        ev.select_columns(["event_type"])
        .groupby("event_type")
        .count()
        .map_batches(
            lambda t: pa.table(
                {
                    "event_type": t["event_type"],
                    "mult": pc.cast(pc.utf8_length(t["event_type"]), pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )
    joined = salted_join(ev, dim, on="event_type", salt=8)

    def weighted(t: pa.Table) -> pa.Table:
        micro = pc.cast(_oround(pc.multiply(t["value"], pa.scalar(1e6))), pa.int64())
        return pa.table(
            {"event_type": t["event_type"], "w": pc.multiply(micro, t["mult"])}
        )

    out = grouped_reduce(
        joined.map_batches(weighted, batch_format="pyarrow"),
        "event_type",
        {"wsum_micro": ("w", "sum"), "n": ("w", "count")},
    )
    return out.sort("event_type")


def doc_embedding_coverage(sf_dir: str):
    """LEFT OUTER enrichment — the join shape where misses must SURVIVE
    (every doc keeps its row; the payload is NULL when no label-3 vector
    exists for it): per lang, total docs and docs with a label-3 embedding
    (vec_id == doc_id alignment, label predicate pushed to the scan).
    Runs broadcast_lookup_join(how="left") under the same size guard as
    the inner path (broadcast searchsorted + NULL fill below the budget,
    Ray left_outer hash join above). Oracle: LEFT JOIN + count(vec_id)."""
    from ..stages.joins import broadcast_lookup_join

    docs = _read(sf_dir, "documents", ["doc_id", "lang"])
    vecs = (
        _read(sf_dir, "embeddings", ["vec_id", "label"])
        .filter(expr="label == 3")
        .map_batches(
            lambda t: pa.table(
                {
                    "doc_id": t["vec_id"],
                    "m": pa.array(np.ones(t.num_rows, np.int64), pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )
    n_vecs = _read(sf_dir, "embeddings", ["vec_id"]).count()  # metadata bound
    joined = broadcast_lookup_join(
        docs, vecs, on="doc_id", right_count=n_vecs, how="left"
    )

    # m is 1 on a match and NULL on a miss, so count(m) = matched docs
    out = grouped_reduce(
        joined, "lang", {"n_docs": (None, "count_all"), "n_matched": ("m", "count")}
    )
    return out.sort("lang")


def bloom_set_cardinalities(sf_dir: str):
    """Set-operation cardinalities from Bloom filters ALONE (Swamidass &
    Baldi 2007 fill-ratio estimator, kernel/bloom.approx_cardinality):
    distinct click users, purchase users, their union (bit-OR sketch
    merge) and intersection (inclusion-exclusion on the three
    estimates) — no raw keys ever shuffle; ONE scan builds a bloom per
    event_type via the grouped mergeable aggregate (O(blocks x groups)
    sketch partials cross the exchange), and the set algebra runs on
    sketch bytes. This is the reference's membership filter promoted to
    an analytic sketch.

    SELF-EVIDENCE in-band (the hll_by_lang convention): exact counts via
    per-block flag dedupe -> native groupby-max -> count partials, the
    absolute error, and a bound check |err| <= 0.05 * exact_union, so the
    rows-only driver record carries the accuracy claim. The bound is
    generous vs the estimator's actual variance at these fills (pytest
    pins 1%-level accuracy on a 20k/15k planted overlap)."""
    from ray.data.aggregate import Sum

    from ..stages.builder import build_grouped

    ds = _read(sf_dir, "events", ["event_type", "user_id"])
    n_rows = ds.count()
    spec = SketchSpec.of("bloom", 0.01, max(n_rows, 11))
    sk = _collect_dict(
        build_grouped(ds, spec, on="user_id", key="event_type", alias="sk"),
        "event_type",
        "sk",
    )
    a, b = spec.from_bytes(sk["click"]), spec.from_bytes(sk["purchase"])
    est_a, est_b = a.approx_cardinality(), b.approx_cardinality()
    a.merge(b)  # bit-OR union on the sketch bytes
    est_u = a.approx_cardinality()
    est_i = est_a + est_b - est_u

    def flags(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t["event_type"], value_set=pa.array(["click", "purchase"]))
        t = t.filter(keep)
        return pa.table(
            {
                "user_id": t["user_id"],
                "c": pc.equal(t["event_type"], "click").cast(pa.int64()),
                "p": pc.equal(t["event_type"], "purchase").cast(pa.int64()),
            }
        )

    def cnt(t: pa.Table) -> pa.Table:
        c = t["c"].to_numpy(zero_copy_only=False)
        p = t["p"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "nA": pa.array([int(c.sum())], pa.int64()),
                "nB": pa.array([int(p.sum())], pa.int64()),
                "nI": pa.array([int((c & p).sum())], pa.int64()),
            }
        )

    ex = (
        grouped_reduce(
            ds.map_batches(flags, batch_format="pyarrow", zero_copy_batch=True),
            "user_id",
            {"c": ("c", "max"), "p": ("p", "max")},
        )
        .map_batches(cnt, batch_format="pyarrow")
        .aggregate(Sum("nA"), Sum("nB"), Sum("nI"))
    )
    n_a, n_b, n_i = int(ex["sum(nA)"]), int(ex["sum(nB)"]), int(ex["sum(nI)"])
    n_u = n_a + n_b - n_i
    tol = 0.05 * max(n_u, 1)
    rows = [
        ("click_users", est_a, n_a),
        ("purchase_users", est_b, n_b),
        ("union_users", est_u, n_u),
        ("intersection_users", est_i, n_i),
    ]
    return pa.table(
        {
            "measure": pa.array([r[0] for r in rows], pa.string()),
            "estimate": pa.array(
                [float(np.floor(r[1] * 1e3 + 0.5) / 1e3) for r in rows], pa.float64()
            ),
            "exact": pa.array([r[2] for r in rows], pa.int64()),
            "abs_err": pa.array(
                [float(np.floor(abs(r[1] - r[2]) * 1e3 + 0.5) / 1e3) for r in rows],
                pa.float64(),
            ),
            "within_bound": pa.array([abs(r[1] - r[2]) <= tol for r in rows], pa.bool_()),
        }
    )


def lang_source_rollup(sf_dir: str):
    """Multi-level aggregate (SQL ROLLUP): doc count + total chars at
    (lang, source), (lang) and grand-total levels, with NULL as the
    rolled-up marker (the DuckDB ROLLUP convention) and an explicit
    ``level`` column so rolled NULLs can never collide with data values.

    ONE corpus scan: per-block (lang, source) partials -> one
    dimension-bounded groupby; the coarser levels fold from the finest
    level's |langs| x |sources| rows on the driver (pure re-aggregation
    — no second scan, the rollup identity)."""
    import pandas as pd

    fine = collect_table(
        grouped_reduce(
            _read(sf_dir, "documents", ["lang", "source", "n_chars"]),
            ["lang", "source"],
            {"n_docs": ("n_chars", "count"), "sum_chars": ("n_chars", "sum")},
        ),
        pa.schema(
            {"lang": pa.string(), "source": pa.string(),
             "n_docs": pa.int64(), "sum_chars": pa.int64()}
        ),
    ).to_pandas()  # bounded: |langs| x |sources|
    by_lang = (
        fine.groupby("lang", as_index=False)[["n_docs", "sum_chars"]]
        .sum()
        .assign(source=None)
    )
    total = pd.DataFrame(
        {
            "lang": [None],
            "source": [None],
            "n_docs": [int(fine["n_docs"].sum())],
            "sum_chars": [int(fine["sum_chars"].sum())],
        }
    )
    out = pd.concat(
        [fine.assign(level=0), by_lang.assign(level=1), total.assign(level=2)]
    ).sort_values(["level", "lang", "source"], na_position="first")
    return pa.table(
        {
            "lang": pa.array(out["lang"].tolist(), pa.string()),
            "source": pa.array(out["source"].tolist(), pa.string()),
            "n_docs": pa.array(out["n_docs"].to_numpy(), pa.int64()),
            "sum_chars": pa.array(out["sum_chars"].to_numpy(), pa.int64()),
            "level": pa.array(out["level"].to_numpy(), pa.int64()),
        }
    )


def nation_revenue_share(sf_dir: str):
    """Share-of-total window (`SUM() OVER ()` family): each nation's
    revenue as exact parts-per-million of the grand total, floor
    semantics (ppm = rev_cc * 1e6 // total_cc — pure integer math, so
    both engines agree bit-for-bit). The grand total folds from the
    |nations|-bounded rollup on the driver; the corpus is scanned once
    by the underlying revenue_by_nation machinery."""
    t = collect_table(
        revenue_by_nation(sf_dir),
        pa.schema({"nation": pa.string(), "revenue_centicents": pa.int64()}),
    ).sort_by("nation")
    rev = t["revenue_centicents"].to_pylist()  # Python ints: rev * 1e6 overflows int64
    total = sum(rev)
    if total == 0:
        raise ValueError("nation_revenue_share: zero total revenue")
    return t.append_column(
        "share_ppm", pa.array([r * 1_000_000 // total for r in rev], pa.int64())
    )


def snapshot_changes(sf_dir: str):
    """Change-data capture between two corpus snapshots
    (stages/joins.snapshot_diff): old = documents; new = documents with
    deterministic planted churn (doc_id % 13 == 0 dropped; doc_id % 11
    == 0 gets ' v2' appended; ids < 20 duplicated at doc_id + 1000000 as
    additions — the corpus itself has no second snapshot, so churn is
    planted the pii_redacted way). Emits (doc_id, change) for every
    added / removed / changed key, exact (values compare directly, no
    hashing), join-free: the two sides union with a side tag and ONE
    keyed groupby carries presence counts and both values."""
    from ..stages.joins import snapshot_diff

    old = _read(sf_dir, "documents", ["doc_id", "text"])

    def churn(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        keep = ids % 13 != 0
        kept = t.filter(pa.array(keep))
        kids = kept["doc_id"].to_numpy(zero_copy_only=False)
        text = pc.binary_join_element_wise(
            kept["text"],
            pa.array(np.where(kids % 11 == 0, " v2", "").astype(str)),
            "",
        )
        base = pa.table({"doc_id": kept["doc_id"], "text": text})
        add_mask = ids < 20
        added = pa.table(
            {
                "doc_id": pa.array(ids[add_mask] + 1_000_000, pa.int64()),
                "text": t.filter(pa.array(add_mask))["text"],
            }
        )
        return pa.concat_tables([base, added])

    new = old.map_batches(churn, batch_format="pyarrow")
    out = snapshot_diff(old, new, key="doc_id", val_col="text")
    return out.sort("doc_id")


def fuzzy_top1(sf_dir: str):
    """Fuzzy string match: for each query doc (id < 4) the single
    minimum-edit-distance other doc — the Levenshtein member of the
    similarity family next to cosine/BM25/Jaccard. The vectorized DP
    kernel (stages/similarity.levenshtein_batch: slope-1 prefix-min,
    no per-pair Python) scores whole blocks per query; each block emits
    only its per-query best, the driver reduces O(blocks x Q) partials.
    Deterministic: (distance ASC, doc_id ASC)."""
    import ray

    from ..stages.similarity import levenshtein_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    q = collect_table(
        ds.filter(expr="doc_id < 4"), pa.schema({"doc_id": pa.int64(), "text": pa.string()})
    ).sort_by("doc_id")
    qref = ray.put(
        [(i, s or "") for i, s in zip(q["doc_id"].to_pylist(), q["text"].to_pylist())]
    )

    def best_per_block(t: pa.Table) -> pa.Table:
        queries = ray.get(qref)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        texts = t["text"].to_pylist()
        out_q, out_d, out_dist = [], [], []
        for qid, qtext in queries:
            dist = levenshtein_batch(qtext, texts).astype(np.int64)
            mask = ids != qid
            if not mask.any():
                continue
            # min by (dist, doc_id): pack into one key, argmin once
            packed = dist[mask] * (1 << 33) + ids[mask]
            w = int(np.argmin(packed))
            out_q.append(qid)
            out_d.append(int(ids[mask][w]))
            out_dist.append(int(dist[mask][w]))
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "match_id": pa.array(out_d, pa.int64()),
                "distance": pa.array(out_dist, pa.int64()),
            }
        )

    parts = collect_table(
        ds.map_batches(best_per_block, batch_format="pyarrow"),
        pa.schema({"query_id": pa.int64(), "match_id": pa.int64(), "distance": pa.int64()}),
    ).sort_by([("query_id", "ascending"), ("distance", "ascending"), ("match_id", "ascending")])
    qid = parts["query_id"].to_numpy()
    return parts.filter(pa.array(np.r_[True, qid[1:] != qid[:-1]][: len(qid)]))


def value_time_corr(sf_dir: str):
    """Pearson correlation of event value vs event time per event_type —
    the drift-detection statistic (is this metric trending?), and the
    covariance/correlation member of the grouped-statistics family.

    Exact integer moments: value as cents, time as seconds RELATIVE to
    the global min ts (keeps sum(x*y) inside int64 at any corpus age;
    shifting time changes neither covariance nor correlation). Two
    passes: one tiny global min aggregate, then per-block (n, Sx, Sy,
    Sxy, Sxx, Syy) partials -> one |types|-bounded groupby. The float
    tail is ONE pinned expression over exact integer sums, mirrored
    verbatim in the SQL twin (never DuckDB's internal corr()
    accumulator), rounded half-away to 6."""
    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])
    t0 = int(
        _read(sf_dir, "events", ["ts"])
        .map_batches(
            lambda t: pa.table({"us": pc.cast(t["ts"], pa.int64())}),
            batch_format="pyarrow",
        )
        .min("us")
    ) // 1_000_000

    def moments(t: pa.Table) -> pa.Table:
        x = (
            pc.cast(_oround(pc.multiply(t["value"], 100.0)), pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        y = (
            pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
            // 1_000_000
            - t0
        )
        return pa.table(
            {
                "event_type": t["event_type"],
                "x": pa.array(x),
                "y": pa.array(y),
                "xy": pa.array(x * y),
                "xx": pa.array(x * x),
                "yy": pa.array(y * y),
                "ax": pa.array(np.abs(x)),
                "ay": pa.array(np.abs(y)),
            }
        )

    sums = ("n", "sx", "sy", "sxy", "sxx", "syy")
    t = collect_table(
        grouped_reduce(
            ds.map_batches(moments, batch_format="pyarrow", zero_copy_batch=True),
            "event_type",
            {
                "n": (None, "count_all"),
                **{f"s{c}": (c, "sum") for c in ("x", "y", "xy", "xx", "yy")},
                "mx": ("ax", "max"),
                "my": ("ay", "max"),
            },
        ),
        pa.schema({"event_type": pa.string(), **{c: pa.int64() for c in sums + ("mx", "my")}}),
    ).sort_by("event_type")  # |types|-bounded
    for n, mx, my in zip(*(t[c].to_pylist() for c in ("n", "mx", "my"))):
        if n * mx * my >= (1 << 62):
            raise ValueError(
                "value_time_corr: sum(x*y) risks int64 overflow "
                f"(n={n}, max|x|={mx}, max|y|={my}); "
                "rescale units or shard the group"
            )
    n, sx, sy, sxy, sxx, syy = (t[c].to_numpy().astype(np.float64) for c in sums)
    corr = (n * sxy - sx * sy) / np.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))
    corr = np.where(
        corr >= 0, np.floor(corr * 1e6 + 0.5) / 1e6, np.ceil(corr * 1e6 - 0.5) / 1e6
    )
    return pa.table(
        {"event_type": t["event_type"], "n": t["n"], "corr": pa.array(corr, pa.float64())}
    )


def props_key_stats(sf_dir: str):
    """Semi-structured extraction — pull the integer ``k`` out of the
    JSON ``props`` column and aggregate it per event_type (n, n_missing,
    sum/min/max). The extraction is ONE vectorized RE2 kernel
    (pc.extract_regex — the pii-redaction engine family), never
    json.loads per row; rows without a parseable k count as missing and
    are excluded from the numeric aggregates, exactly like the twin's
    json_extract -> NULL. Per-block partials -> |types|-bounded groupby."""

    def extract_k(t: pa.Table) -> pa.Table:
        ex = pc.extract_regex(
            t["props"], r'"k"\s*:\s*(?P<k>-?\d+)'
        )
        k = pc.cast(pc.struct_field(ex, "k"), pa.int64())
        return pa.table(
            {
                "event_type": t["event_type"],
                "missing": pc.cast(pc.is_null(k), pa.int64()),
                "k": k,
            }
        )

    out = grouped_reduce(
        _read(sf_dir, "events", ["event_type", "props"]).map_batches(
            extract_k, batch_format="pyarrow", zero_copy_batch=True
        ),
        "event_type",
        {
            "n": (None, "count_all"),
            "n_missing": ("missing", "sum"),
            "sum_k": ("k", "sum"),
            "min_k": ("k", "min"),
            "max_k": ("k", "max"),
        },
    )
    return out.sort("event_type")


def user_moving_value(sf_dir: str):
    """Bounded window frame — per-user moving sum + count of value cents
    over ``ROWS BETWEEN 3 PRECEDING AND CURRENT ROW`` (ordered by ts,
    event_id), one row out per event (stages/windows.moving_sum_by_key:
    one range sort, vectorized prefix-sum windows, O(blocks x frame)
    edge rows fixed on the driver). The bounded-frame sibling of
    user_running_value's unbounded scan."""
    from ..stages.windows import moving_sum_by_key

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"]).map_batches(
        lambda t: pa.table(
            {
                "event_id": t["event_id"],
                "ts": t["ts"],
                "user_id": t["user_id"],
                "cents": pc.cast(
                    _oround(pc.multiply(t["value"], 100.0)), pa.int64()
                ),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    out = moving_sum_by_key(
        ev, key="user_id", ts_col="ts", id_col="event_id",
        val_col="cents", frame=3,
    )
    return out.sort("event_id")


def user_trailing_hour_value(sf_dir: str):
    """TIME-RANGE window frame — per-user moving sum + count of value
    cents over ``RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT
    ROW`` (ordered by ts), one row out per event: the trailing-window
    feature every real-time feature store serves
    (stages/windows.moving_time_sum_by_key — one range sort, per-block
    searchsorted windows over a segment-offset time axis, O(blocks x
    rows-in-span) edge rows fixed on the driver; duplicate (user, ts)
    pairs rejected loudly, none exist in this corpus). The time-range
    sibling of user_moving_value's ROWS frame."""
    from ..stages.windows import moving_time_sum_by_key

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"]).map_batches(
        lambda t: pa.table(
            {
                "event_id": t["event_id"],
                "ts": t["ts"],
                "user_id": t["user_id"],
                "cents": pc.cast(
                    _oround(pc.multiply(t["value"], 100.0)), pa.int64()
                ),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    out = moving_time_sum_by_key(
        ev, key="user_id", ts_col="ts", id_col="event_id",
        val_col="cents", span_us=3_600_000_000,
    )
    return out.sort("event_id")


def user_time_weighted_value(sf_dir: str):
    """Time-weighted per-user value aggregate (the telemetry/billing
    primitive — each reading is held until the next one): integer cents
    x whole-second gaps, exact end to end
    (stages/windows.time_weighted_sum; one range shuffle, O(batches)
    edge partials carrying the previous block's last value)."""
    from ..stages.windows import time_weighted_sum

    ev = _read(
        sf_dir, "events", ["event_id", "ts", "user_id", "value"]
    ).map_batches(
        lambda t: pa.table(
            {
                "event_id": t["event_id"],
                "ts": t["ts"],
                "user_id": t["user_id"],
                "cents": pc.cast(
                    _oround(pc.multiply(t["value"], 100.0)), pa.int64()
                ),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return time_weighted_sum(
        ev, key="user_id", ts_col="ts", id_col="event_id", val_col="cents"
    ).sort("user_id")


def label_centroids(sf_dir: str):
    """Per-LABEL embedding centroid in exact integer micros — the grouped
    vector mean (the k-means E-step as an exact, oracle-checkable op, and
    the class-prototype computation of prototypical retrieval). Same
    no-explode shape as embedding_dim_stats widened to a (label, dim)
    key: each block reduces its per-label (rows x dim) submatrices along
    axis 0 and emits |labels| x |dim| partial rows; the groupby shuffles
    only partials. The centroid is sum_micro // n (floor division both
    engines, exact in integers; DuckDB's ``//`` truncates toward zero,
    so the Ray side computes sign(s) * (|s| // n) — NOT numpy's floor
    division, which rounds toward -inf on negative sums)."""
    from ray.data.aggregate import Sum

    from ..stages.similarity import _emb_matrix

    def part(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "label": pa.array([], pa.int64()),
                    "dim": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "sum_micro": pa.array([], pa.int64()),
                }
            )
        m = _emb_matrix(t["embedding"], dtype=np.float64)
        micro = np.floor(np.abs(m) * 1e6 + 0.5).astype(np.int64) * np.where(
            m >= 0, 1, -1
        )
        labels = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = micro.shape[1]
        uniq = np.unique(labels)
        outs = {"label": [], "dim": [], "n": [], "sum_micro": []}
        for lb in uniq:
            sel = micro[labels == lb]
            outs["label"].append(np.full(d, lb, np.int64))
            outs["dim"].append(np.arange(d, dtype=np.int64))
            outs["n"].append(np.full(d, sel.shape[0], np.int64))
            outs["sum_micro"].append(sel.sum(axis=0))
        return pa.table({k: pa.array(np.concatenate(v)) for k, v in outs.items()})

    agg = (
        _read(sf_dir, "embeddings", ["embedding", "label"])
        .map_batches(part, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["label", "dim"])
        .aggregate(Sum("n", alias_name="n"), Sum("sum_micro", alias_name="sum_micro"))
    )

    def fin(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        s = t["sum_micro"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "label": t["label"],
                "dim": t["dim"],
                "n": pa.array(n),
                "centroid_micro": pa.array(
                    np.sign(s) * (np.abs(s) // n)
                ),
            }
        )

    return agg.map_batches(fin, batch_format="pyarrow").sort(["label", "dim"])


def embedding_dim_stats(sf_dir: str):
    """Per-DIMENSION statistics of the embedding column (n, sum, min,
    max in exact integer micro-units) — the feature-normalization scan
    every embedding pipeline runs before whitening, and the
    unnest-with-ordinality family member. NO per-row explode: each
    block reduces its (rows x dim) matrix along axis 0 in one numpy
    pass and emits |dim| partial rows; the groupby shuffles only
    |dim| x blocks rows."""
    from ..stages.similarity import _emb_matrix

    def part(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "dim": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "sum_micro": pa.array([], pa.int64()),
                    "min_micro": pa.array([], pa.int64()),
                    "max_micro": pa.array([], pa.int64()),
                }
            )
        m = _emb_matrix(t["embedding"], dtype=np.float64)
        micro = np.floor(np.abs(m) * 1e6 + 0.5).astype(np.int64) * np.where(
            m >= 0, 1, -1
        )
        d = micro.shape[1]
        return pa.table(
            {
                "dim": pa.array(np.arange(d, dtype=np.int64)),
                "n": pa.array(np.full(d, micro.shape[0], np.int64)),
                "sum_micro": pa.array(micro.sum(axis=0)),
                "min_micro": pa.array(micro.min(axis=0)),
                "max_micro": pa.array(micro.max(axis=0)),
            }
        )

    from ray.data.aggregate import Max, Min, Sum

    out = (
        _read(sf_dir, "embeddings", ["embedding"])
        .map_batches(part, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("dim")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("sum_micro", alias_name="sum_micro"),
            Min("min_micro", alias_name="min_micro"),
            Max("max_micro", alias_name="max_micro"),
        )
    )
    return out.sort("dim")


def lang_sources_concat(sf_dir: str):
    """String aggregation (the string_agg/group_concat family): per
    lang, the comma-joined ASC-sorted list of DISTINCT sources. The
    distinct pair set reduces engine-side (per-block dedup partials ->
    one groupby over |langs| x |sources| rows); the join to one string
    per lang folds on the driver over that bounded set."""

    t = collect_table(
        grouped_reduce(
            _read(sf_dir, "documents", ["lang", "source"]),
            ["lang", "source"],
            {"n": (None, "count_all")},
        ),
        pa.schema({"lang": pa.string(), "source": pa.string()}),
    ).sort_by([("lang", "ascending"), ("source", "ascending")])  # |langs| x |sources|
    out = {}
    for lang, src in zip(t["lang"].to_pylist(), t["source"].to_pylist()):
        out.setdefault(lang, []).append(src)
    langs = sorted(out)
    return pa.table(
        {
            "lang": pa.array(langs, pa.string()),
            "sources": pa.array(
                [",".join(out[lang]) for lang in langs], pa.string()
            ),
            "n_sources": pa.array(
                [len(out[lang]) for lang in langs], pa.int64()
            ),
        }
    )


def latest_user_event(sf_dir: str):
    """Latest-state snapshot (the CDC-compaction readout): each user's
    most recent event — ORDER BY ts DESC, event_id DESC per user. The
    winner rides ONE native groupby-max over a packed int64 key
    (rel_ts_us * 2^20 + event_id: the canonical_docs argmax trick;
    min-shifted timestamps keep the pack in range, asserted loudly),
    then the winning rows attach via the size-guarded broadcast/hash
    join on the packed key — no row ever carries more than (user,
    packed) into the shuffle."""
    from ray.data.aggregate import Max

    from ..stages.joins import broadcast_lookup_join

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])
    t0 = int(
        _read(sf_dir, "events", ["ts"])
        .map_batches(
            lambda t: pa.table({"us": pc.cast(t["ts"], pa.int64())}),
            batch_format="pyarrow",
        )
        .min("us")
    )

    def pack(t: pa.Table) -> pa.Table:
        rel = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False) - t0
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        if rel.max(initial=0) >= (1 << 43) or eid.max(initial=0) >= (1 << 20):
            raise ValueError(
                "latest_user_event: packed key out of range "
                "(ts span >= 2^43 us or event_id >= 2^20)"
            )
        return pa.table(
            {
                "user_id": t["user_id"],
                "packed": pa.array(rel * (1 << 20) + eid),
            }
        )

    packed = ev.map_batches(pack, batch_format="pyarrow", zero_copy_batch=True)
    winners = packed.groupby("user_id").aggregate(Max("packed", alias_name="packed"))
    n_users = winners.count()
    rows = ev.map_batches(
        lambda t: pack(t).append_column("event_id", t["event_id"]).append_column(
            "event_type", t["event_type"]
        ).append_column("ts", t["ts"]),
        batch_format="pyarrow",
    )
    joined = broadcast_lookup_join(
        rows.map_batches(
            lambda t: t.select(["packed", "event_id", "event_type", "ts"]),
            batch_format="pyarrow",
        ),
        winners.map_batches(
            lambda t: t.select(["packed", "user_id"]), batch_format="pyarrow"
        ),
        on="packed",
        right_count=n_users,
    )
    return joined.map_batches(
        lambda t: pa.table(
            {
                "user_id": t["user_id"],
                "event_id": t["event_id"],
                "event_type": t["event_type"],
                "ts_us": pc.cast(t["ts"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
    ).sort("user_id")


def user_retention_cohorts(sf_dir: str):
    """Cohort retention triangle: users bucketed by first active day,
    counted at each later day offset they return (the product-analytics
    staple). Distinct (user, day) pairs thin per block before the only
    wide shuffle; the cohort join is size-guarded (stages/journeys.py)."""
    from ..stages.journeys import retention_cohorts

    ev = _read(sf_dir, "events", ["ts", "user_id"])
    return retention_cohorts(ev)


def event_transitions(sf_dir: str):
    """First-order Markov transition counts over each user's time-ordered
    event stream — the distributed LAG(event_type) window folded to a
    |types|^2 matrix. One range sort; per-block bincount partials; O(blocks)
    boundary rows stitch on the driver (stages/journeys.py)."""
    from ..stages.journeys import transition_counts

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])
    return transition_counts(ev)


def funnel_stage_counts(sf_dir: str):
    """Ordered view->click->purchase funnel: per user, how many stages were
    completed in strict time order, each stage greedily taking its earliest
    legal event. Sorted-block chain times via masked reduceat passes;
    boundary users fold from bounded k x k summaries (stages/journeys.py)."""
    from ..stages.journeys import funnel_stages

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])
    return funnel_stages(ev, stages=("view", "click", "purchase"))


def weighted_median_price(sf_dir: str):
    """Per-returnflag QUANTITY-WEIGHTED median of l_extendedprice (integer
    cents) — the robust-statistics selection over a fact table: smallest
    price whose cumulative quantity reaches half the flag's total. The
    distinct (flag, price) stream is what shuffles (per-block pyarrow
    pre-agg); the cumulative weight rides the two-pass distributed scan
    (stages/windows.grouped_weighted_median)."""
    from ..stages.windows import grouped_weighted_median

    li = _read(
        sf_dir, "lineitem", ["l_returnflag", "l_extendedprice", "l_quantity"]
    )

    def to_units(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "price_cents": pc.cast(
                    _oround(pc.multiply(t["l_extendedprice"], 100.0)), pa.int64()
                ),
                "qty": pc.cast(_oround(t["l_quantity"]), pa.int64()),
            }
        )

    return grouped_weighted_median(
        li.map_batches(to_units, batch_format="pyarrow", zero_copy_batch=True),
        key="l_returnflag",
        val_col="price_cents",
        weight_col="qty",
        out_col="wmedian_cents",
    )


def peak_concurrent_sessions(sf_dir: str):
    """Interval sweep-line over the 30-min session windows: the maximum
    number of simultaneously-open sessions corpus-wide, and the first
    instant it is reached. Session [start, end] bounds become +1/-1
    deltas; starts order before ends at equal ts (touching sessions count
    as concurrent); the running occupancy is the constant-key degenerate
    of cumulative_by_key's distributed scan — O(blocks) carry rows, no
    driver materialization of the delta stream."""
    from ..stages.windows import cumulative_by_key, sessionize

    ev = _read(sf_dir, "events", ["user_id", "event_id", "ts"])
    sess = sessionize(ev, key="user_id", gap_s=1800)

    def deltas(t: pa.Table) -> pa.Table:
        s = t["start_us"].to_numpy(zero_copy_only=False)
        e = t["end_us"].to_numpy(zero_copy_only=False)
        n = len(s)
        return pa.table(
            {
                "_k": pa.array(np.zeros(2 * n, np.int64)),
                "ts_us": pa.array(np.concatenate([s, e])),
                "o": pa.array(
                    np.concatenate(
                        [np.zeros(n, np.int64), np.ones(n, np.int64)]
                    )
                ),
                "delta": pa.array(
                    np.concatenate(
                        [np.ones(n, np.int64), -np.ones(n, np.int64)]
                    )
                ),
            }
        )

    d = sess.map_batches(deltas, batch_format="pyarrow", zero_copy_batch=True)
    cum = cumulative_by_key(
        d, key="_k", order_cols=["ts_us", "o"], val_col="delta",
        sum_col="occ", count_col="_cn",
    ).materialize()  # consumed twice: peak + first-instant scans
    from ray.data.aggregate import Max

    from ray.data.aggregate import Min

    peak = int(cum.aggregate(Max("occ"))["max(occ)"])
    first = cum.filter(expr=f"occ == {peak}").aggregate(Min("ts_us"))
    return pa.table(
        {
            "peak_sessions": pa.array([peak], pa.int64()),
            "first_peak_us": pa.array([int(first["min(ts_us)"])], pa.int64()),
        }
    )


def value_quartile_rollup(sf_dir: str):
    """NTILE(4) quartile assignment per event type (ORDER BY value,
    event_id — SQL's equal-fill tile semantics with the remainder to the
    front), rolled up to per-(type, tile) counts and cent sums.

    Shape: the exact row rank is the constant-increment degenerate of
    cumulative_by_key's two-pass distributed scan over the (type, cents,
    id)-sorted stream; group sizes are a tiny broadcast; the tile formula
    is vectorized per row and the rollup pre-aggregates per block to a
    (type, tile)-keyed groupby (<= |types| x 4 rows)."""
    import ray

    from ..stages.windows import cumulative_by_key

    ev = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def cents(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": t["event_type"],
                "cents": pc.cast(_oround(pc.multiply(t["value"], 100.0)), pa.int64()),
                "event_id": t["event_id"],
                "_one": pa.array(np.ones(t.num_rows, np.int64)),
            }
        )

    ranked = cumulative_by_key(
        ev.map_batches(cents, batch_format="pyarrow", zero_copy_batch=True),
        key="event_type",
        order_cols=["cents", "event_id"],
        val_col="_one",
        sum_col="_rank",  # 1-based row rank within the type
        count_col="_cn",
    )
    sizes = collect_table(
        ranked.groupby("event_type").max("_rank"),
        pa.schema({"event_type": pa.string(), "max(_rank)": pa.int64()}),
    )
    ref = ray.put((sizes["event_type"].combine_chunks(), sizes["max(_rank)"].to_numpy()))

    def assign(t: pa.Table) -> pa.Table:
        keys_arr, n_arr = ray.get(ref)
        idx = pc.index_in(t["event_type"], value_set=keys_arr).to_numpy(
            zero_copy_only=False
        )
        n = n_arr[idx]
        r0 = t["_rank"].to_numpy(zero_copy_only=False) - 1
        size, rem = n // 4, n % 4
        cut = rem * (size + 1)
        small = size == 0  # n < 4: every row its own (1-based r0+1) tile
        tile = np.where(
            small,
            r0,
            np.where(
                r0 < cut,
                r0 // np.maximum(size + 1, 1),
                rem + (r0 - cut) // np.maximum(size, 1),
            ),
        ) + 1
        return pa.table(
            {
                "event_type": t["event_type"],
                "tile": pa.array(tile.astype(np.int64)),
                "cents": t["cents"],
            }
        )

    return grouped_reduce(
        ranked.map_batches(assign, batch_format="pyarrow"),
        ["event_type", "tile"],
        {"n_events": ("cents", "count"), "sum_cents": ("cents", "sum")},
    ).sort(["event_type", "tile"])


def nation_account_coverage(sf_dir: str):
    """FULL OUTER join coverage report: per nation, how many HIGH-BALANCE
    (acctbal > 9000) customers vs suppliers — the filtered sides leave
    nations present on only one side, so the outer fill is exercised for
    real. Both inputs pre-aggregate to <= |nations| rows per block before
    the join; the join itself is a single-partition full_outer (clamped to
    the 25-row volume, the size-guarded-join convention)."""
    cust = _read(sf_dir, "customer", ["c_nationkey", "c_acctbal"])
    supp = _read(sf_dir, "supplier", ["s_nationkey", "s_acctbal"])

    def side(ds, k: str, bal: str, out: str):
        rich = ds.map_batches(
            lambda t: pa.table(
                {"nationkey": t.filter(pc.greater(t[bal], 9000.0))[k]}
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        return grouped_reduce(rich, "nationkey", {out: ("nationkey", "count")})

    c = side(cust, "c_nationkey", "c_acctbal", "n_cust").materialize()
    s = side(supp, "s_nationkey", "s_acctbal", "n_supp").materialize()
    if c.count() == 0 or s.count() == 0:
        # a 0-row Dataset loses its schema (CLAUDE.md) and the hash join
        # can't resolve the key: the outer result IS the nonempty side
        side, have, miss = (
            (s, "n_supp", "n_cust") if c.count() == 0 else (c, "n_cust", "n_supp")
        )
        t = collect_table(
            side, pa.schema({"nationkey": pa.int64(), have: pa.int64()})
        ).sort_by("nationkey")
        return t.append_column(miss, pa.array(np.zeros(t.num_rows, np.int64))).select(
            ["nationkey", "n_cust", "n_supp"]
        )
    j = c.join(
        s,
        join_type="full_outer",
        num_partitions=1,  # <= |nations| rows per side
        on=("nationkey",),
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "nationkey": t["nationkey"],
                "n_cust": pc.coalesce(
                    pc.cast(t["n_cust"], pa.int64()), pa.scalar(0, pa.int64())
                ),
                "n_supp": pc.coalesce(
                    pc.cast(t["n_supp"], pa.int64()), pa.scalar(0, pa.int64())
                ),
            }
        )

    return j.map_batches(finish, batch_format="pyarrow").sort("nationkey")


def q3_shipping_priority(sf_dir: str):
    """TPC-H Q3-shaped unshipped-revenue ranking: top-10 orders by
    outstanding revenue for the BUILDING segment, orders placed before the
    cutoff with line items shipping after it.

    Shape: lineitem pre-aggregates revenue per (orderkey) per block before
    its groupby (only order-level partials shuffle); the
    segment-filtered customer and date-filtered orders ride the
    size-guarded join (broadcast at this sf, hash join above the budget);
    top-10 folds from per-block partials — O(blocks x 10) driver rows.
    Money in integer centi-cents; ties pinned by (revenue DESC, orderkey)."""
    import datetime as _dt

    from ..stages.joins import broadcast_lookup_join

    # naive parquet timestamps are UTC-epoch both here and in DuckDB
    cut_us = int(
        _dt.datetime(1998, 6, 1, tzinfo=_dt.timezone.utc).timestamp() * 1_000_000
    )

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).map_batches(
        lambda t: pa.table(
            {
                "o_custkey": t["c_custkey"].filter(
                    pc.equal(t["c_mktsegment"], "BUILDING")
                )
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(
        lambda t: t.filter(
            pc.less(pc.cast(t["o_orderdate"], pa.int64()), cut_us)
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    n_cust = _read(sf_dir, "customer", ["c_custkey"]).count()  # upper bound
    qual = broadcast_lookup_join(
        orders, cust.groupby("o_custkey").count().map_batches(
            lambda t: t.select(["o_custkey"]), batch_format="pyarrow"
        ),
        on="o_custkey",
        right_count=n_cust,
    ).map_batches(
        lambda t: pa.table(
            {
                "l_orderkey": t["o_orderkey"],
                "orderdate_us": pc.cast(t["o_orderdate"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
    ).materialize()  # qualifying orders: joined + counted
    n_qual = qual.count()

    li = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def shipped_late(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(pc.cast(t["l_shipdate"], pa.int64()), cut_us))
        return pa.table({"l_orderkey": t["l_orderkey"], "rev": _rev_cc(t)})

    per_order = grouped_reduce(
        li.map_batches(shipped_late, batch_format="pyarrow", zero_copy_batch=True),
        "l_orderkey",
        {"revenue_cc": ("rev", "sum")},
    )
    enriched = broadcast_lookup_join(
        per_order,
        qual,
        on="l_orderkey",
        right_count=n_qual,
    )

    return _top_k(
        enriched,
        10,
        "revenue_cc",
        "l_orderkey",
        pa.schema({c: pa.int64() for c in ("l_orderkey", "revenue_cc", "orderdate_us")}),
    )


def fk_integrity_report(sf_dir: str):
    """Referential-integrity audit: per FK edge of the star schema, the
    number of child ROWS whose foreign key has no parent — the data-quality
    gate a warehouse runs after every load.

    The plan is chosen from the parents' row counts (parquet metadata)
    before any key is collected. Up to ``joins.DIM_BROADCAST_MAX`` parent
    keys in total: each parent key set is collected, sorted and broadcast
    once; EVERY child table is scanned exactly once, each block emits one
    (eid, n) row per FK edge counting the keys its searchsorted probe
    misses, and one groupby-sum over the edge id folds them. Above it:
    per edge, the child's per-key row counts run one size-guarded
    ``id_set_filter`` anti-join against the parent keys (same result,
    distributed join; no parent key set reaches the driver)."""
    import ray

    from ray.data.aggregate import Sum

    from ..stages.dedup import id_set_filter
    from ..stages.joins import DIM_BROADCAST_MAX, JOIN_PARTITION_ROWS

    # (edge_id, label, child, fk, parent, pk)
    edges = [
        (0, "orders.o_custkey->customer", "orders", "o_custkey", "customer", "c_custkey"),
        (1, "lineitem.l_orderkey->orders", "lineitem", "l_orderkey", "orders", "o_orderkey"),
        (2, "lineitem.l_partkey->part", "lineitem", "l_partkey", "part", "p_partkey"),
        (3, "lineitem.l_suppkey->supplier", "lineitem", "l_suppkey", "supplier", "s_suppkey"),
    ]
    n_par = {eid: _read(sf_dir, parent, [pk]).count() for eid, *_, parent, pk in edges}
    if sum(n_par.values()) > DIM_BROADCAST_MAX:
        counts = []
        for eid, _, child, fk, parent, pk in edges:
            ch = _read(sf_dir, child, [fk]).map_batches(
                lambda t, fk=fk: pa.table({"k": t[fk]}),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
            keyed = grouped_reduce(ch, "k", {"n": ("k", "count")})
            par = _read(sf_dir, parent, [pk]).map_batches(
                lambda t, pk=pk: pa.table({"k": t[pk]}), batch_format="pyarrow"
            )
            # partitions clamped to the parent's volume: a multi-partition
            # hash join of a tiny side can fail in HashShuffleAggregator
            orphans = id_set_filter(
                par, "k", keep=False, n_ids=n_par[eid],
                num_partitions=max(1, n_par[eid] // JOIN_PARTITION_ROWS),
            )(keyed)
            agg = orphans.aggregate(Sum("n", ignore_nulls=True))
            counts.append(int((agg or {}).get("sum(n)") or 0))
        return pa.table(
            {
                "fk_edge": pa.array([e[1] for e in edges], pa.string()),
                "n_orphan_rows": pa.array(counts, pa.int64()),
            }
        )

    par_ref = ray.put(
        {
            eid: np.sort(
                collect_table(
                    _read(sf_dir, parent, [pk]), pa.schema({pk: pa.int64()})
                )[pk].to_numpy()
            )
            for eid, *_, parent, pk in edges
        }
    )
    by_child: dict = {}
    for eid, label, child, fk, _, _ in edges:
        by_child.setdefault(child, []).append((eid, fk))

    def orphan_partials(child_edges):
        def fn(t: pa.Table) -> pa.Table:
            pars = ray.get(par_ref)
            eids, ns = [], []
            for eid, fk in child_edges:
                k = t[fk].to_numpy(zero_copy_only=False)
                if k.size and (k.min() < 0):
                    raise ValueError("fk_integrity_report: negative key")
                arr = pars[eid]
                pos = np.searchsorted(arr, k)
                pos_c = np.minimum(pos, len(arr) - 1) if len(arr) else pos
                miss = (
                    np.ones(len(k), bool)
                    if not len(arr)
                    else arr[pos_c] != k
                )
                eids.append(eid)
                ns.append(int(miss.sum()))
            return pa.table(
                {
                    "eid": pa.array(eids, pa.int64()),
                    "n": pa.array(ns, pa.int64()),
                }
            )

        return fn

    partials = []
    for child, ce in by_child.items():
        cols = [fk for _, fk in ce]
        partials.append(
            _read(sf_dir, child, cols).map_batches(
                orphan_partials(ce), batch_format="pyarrow", zero_copy_batch=True
            )
        )
    merged = partials[0]
    for p in partials[1:]:
        merged = merged.union(p)
    got = _collect_dict(merged.groupby("eid").sum("n"), "eid", "sum(n)")  # <= |edges| rows
    return pa.table(
        {
            "fk_edge": pa.array([e[1] for e in edges], pa.string()),
            "n_orphan_rows": pa.array(
                [got.get(e[0], 0) for e in edges], pa.int64()
            ),
        }
    )


def ohlc_hourly(sf_dir: str):
    """Per-(event_type, hour) OHLC bars — open/high/low/close in integer
    cents with (ts, event_id) pinning the open/close winners: the
    financial-rollup shape whose open/close are ORDER-dependent aggregates
    a plain min/max groupby cannot express.

    Shape: a tiny distinct pass fixes the global type vocabulary (per-block
    thinned, broadcast once); one scan pre-aggregates per block to
    (gkey, min_ord, max_ord, low, high, n) via lexsort + reduceat — ord
    packs the in-hour relative ts with the event id, loudly range-checked
    — and a native single-key groupby merges the partials; the winning
    (gkey, ord) pairs — O(types x hours), a time-span bound independent of
    row count — broadcast back and a second map pass extracts the open and
    close values. No row ever shuffles with more than the packed pair."""
    import ray

    from ray.data.aggregate import Max, Min, Sum

    HOUR_US = 3_600_000_000
    ev = _read(sf_dir, "events", ["event_id", "ts", "event_type", "value"])

    vocab_pa = _event_type_vocab(sf_dir)
    vocab = vocab_pa.to_numpy(zero_copy_only=False)
    nv = len(vocab)

    def keys_of(t: pa.Table):
        us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        hour = us // HOUR_US
        rel = us - hour * HOUR_US
        if t.num_rows and (eid.max() >= (1 << 20) or hour.max() >= (1 << 24)):
            raise ValueError("ohlc_hourly: ord pack out of range")
        ord_ = (rel << 20) | eid
        code = pc.index_in(t["event_type"], value_set=vocab_pa).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        gkey = (code << 24) | hour
        cents = pc.cast(
            _oround(pc.multiply(t["value"], 100.0)), pa.int64()
        ).to_numpy(zero_copy_only=False)
        return gkey, ord_, cents

    def block_parts(t: pa.Table) -> pa.Table:
        gkey, ord_, cents = keys_of(t)
        order = np.lexsort((ord_, gkey))
        g, o, c = gkey[order], ord_[order], cents[order]
        change = np.concatenate([[True], g[1:] != g[:-1]])
        starts = np.flatnonzero(change)
        ends = np.append(starts[1:], len(g))
        return pa.table(
            {
                "g": pa.array(g[starts]),
                "min_ord": pa.array(o[starts]),
                "max_ord": pa.array(o[ends - 1]),
                "low": pa.array(np.minimum.reduceat(c, starts)),
                "high": pa.array(np.maximum.reduceat(c, starts)),
                "n": pa.array((ends - starts).astype(np.int64)),
            }
        )

    parts = ("min(min_ord)", "max(max_ord)", "min(low)", "max(high)", "sum(n)")
    merged = collect_table(
        ev.map_batches(block_parts, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("g")
        .aggregate(Min("min_ord"), Max("max_ord"), Min("low"), Max("high"), Sum("n")),
        pa.schema({c: pa.int64() for c in ("g",) + parts}),
    ).sort_by("g")  # O(types x hours) — time-span bound, not data bound
    gk = merged["g"].to_numpy()
    ref = ray.put((gk, merged["min(min_ord)"].to_numpy(), merged["max(max_ord)"].to_numpy()))

    def winners(t: pa.Table) -> pa.Table:
        gkeys, wmin, wmax = ray.get(ref)
        gkey, ord_, cents = keys_of(t)
        pos = np.searchsorted(gkeys, gkey)
        is_open = ord_ == wmin[pos]
        is_close = ord_ == wmax[pos]
        # a single-event hour is both open and close: emit both roles
        g2 = np.concatenate([gkey[is_open], gkey[is_close]])
        r2 = np.concatenate(
            [np.ones(int(is_open.sum()), bool), np.zeros(int(is_close.sum()), bool)]
        )
        c2 = np.concatenate([cents[is_open], cents[is_close]])
        return pa.table(
            {
                "g": pa.array(g2),
                "is_open": pa.array(r2),
                "cents": pa.array(c2),
            }
        )

    # exactly one open and one close row per g ((ts, event_id) is unique)
    oc = collect_table(
        ev.map_batches(winners, batch_format="pyarrow", zero_copy_batch=True),
        pa.schema({"g": pa.int64(), "is_open": pa.bool_(), "cents": pa.int64()}),
    )
    opens = oc.filter(oc["is_open"]).sort_by("g")
    closes = oc.filter(pc.invert(oc["is_open"])).sort_by("g")
    return pa.table(
        {
            "event_type": pa.array(vocab[gk >> 24], pa.string()),
            "hour": pa.array(gk & ((1 << 24) - 1), pa.int64()),
            "open_cents": opens["cents"],
            "high_cents": merged["max(high)"],
            "low_cents": merged["min(low)"],
            "close_cents": closes["cents"],
            "n_events": merged["sum(n)"],
        }
    )


def lang_stats_unpivot(sf_dir: str):
    """Wide-to-long UNPIVOT (melt): the per-lang n_chars min/max/sum stats
    emitted as (lang, stat, value) rows — the relational unpivot operator
    over a grouped rollup. Per-block partials shuffle (the q1 pre-agg
    shape); the melt is a constant-fanout map over the tiny wide table."""
    wide = grouped_reduce(
        _read(sf_dir, "documents", ["lang", "n_chars"]),
        "lang",
        {
            "n_min": ("n_chars", "min"),
            "n_max": ("n_chars", "max"),
            "n_sum": ("n_chars", "sum"),
        },
    )

    def melt(t: pa.Table) -> pa.Table:
        langs = t["lang"].to_pylist()
        out_l, out_s, out_v = [], [], []
        for name in ("n_min", "n_max", "n_sum"):  # 3 stats, not per-row work
            out_l.extend(langs)
            out_s.extend([name] * len(langs))
            out_v.extend(t[name].to_pylist())
        return pa.table(
            {
                "lang": pa.array(out_l, pa.string()),
                "stat": pa.array(out_s, pa.string()),
                "value": pa.array(out_v, pa.int64()),
            }
        )

    return wide.map_batches(melt, batch_format="pyarrow").sort(["lang", "stat"])


def type_cooccurrence(sf_dir: str):
    """Market-basket co-occurrence: for every ORDERED pair of distinct
    event types (a < b), how many users did both — the association-mining
    support table behind "users who X also Y".

    Shape: events thin to distinct (user, type-code) pairs per block
    against a broadcast global vocabulary; ONE packed-key groupby
    deduplicates globally; a per-user native SUM of distinct powers of two
    rebuilds each user's type BITMASK (each (user, code) is unique after
    the dedup, so sum == bitwise OR — no batch-contiguity assumption);
    pair supports then count per block with one vectorized test per type
    PAIR (<= |types|^2/2 iterations, never per row) and fold through a
    final single-key groupby. Only packed ints ever shuffle."""
    ev = _read(sf_dir, "events", ["user_id", "event_type"])
    vocab_pa = _event_type_vocab(sf_dir)
    vocab = vocab_pa.to_numpy(zero_copy_only=False)
    nv = len(vocab)
    if nv >= 63:
        raise ValueError(
            "type_cooccurrence: vocabulary too wide for the int64 bitmask"
        )

    def thin(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        code = pc.index_in(t["event_type"], value_set=vocab_pa).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        pk = (uid << 10) | code
        return pa.table({"pk": pa.array(np.unique(pk))})

    distinct = (
        ev.map_batches(thin, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("pk")
        .count()
    )

    def to_bits(t: pa.Table) -> pa.Table:
        pk = t["pk"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "uid": pa.array(pk >> 10),
                "bit": pa.array(np.int64(1) << (pk & ((1 << 10) - 1))),
            }
        )

    # each (user, code) pk is globally unique after the groupby, so the
    # per-user SUM of distinct powers of two IS the bitwise OR — a native
    # aggregate stands in for the bit_or Ray lacks
    masks = distinct.map_batches(to_bits, batch_format="pyarrow").groupby(
        "uid"
    ).sum("bit")

    pair_list = [(i, j) for i in range(nv) for j in range(i + 1, nv)]

    def pair_partials(t: pa.Table) -> pa.Table:
        m = t["sum(bit)"].to_numpy(zero_copy_only=False)
        pairs, ns = [], []
        for i, j in pair_list:  # <= |types|^2/2 iterations, not per-row
            both = int((((m & (1 << i)) != 0) & ((m & (1 << j)) != 0)).sum())
            if both:
                pairs.append((i << 10) | j)
                ns.append(both)
        return pa.table(
            {
                "pair": pa.array(pairs, pa.int64()),
                "n": pa.array(ns, pa.int64()),
            }
        )

    counts = collect_table(
        masks.map_batches(pair_partials, batch_format="pyarrow").groupby("pair").sum("n"),
        pa.schema({"pair": pa.int64(), "sum(n)": pa.int64()}),
    ).sort_by("pair")  # <= |types|^2 / 2 rows
    pair = counts["pair"].to_numpy()
    return pa.table(
        {
            "type_a": pa.array(vocab[pair >> 10], pa.string()),
            "type_b": pa.array(vocab[pair & 1023], pa.string()),
            "n_users": counts["sum(n)"],
        }
    )


def event_session_assignment(sf_dir: str):
    """Per-EVENT session enrichment: every event tagged with the
    session_id of the 30-min gap session it belongs to — the row-level
    point-in-interval assignment (the session table's `s` CTE), expressed
    as sessionize -> backward as-of join of events onto their user's
    session STARTS (the latest start <= ts IS the covering session, since
    sessions partition each user's timeline). Inclusive bound covers the
    session-opening event; every event matches, asserted loudly."""
    from ..stages.joins import asof_join
    from ..stages.windows import sessionize

    ev = _read(sf_dir, "events", ["user_id", "event_id", "ts"])
    sess = sessionize(ev, key="user_id", gap_s=1800)

    def as_right(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": t["user_id"],
                "ts": t["start_us"],  # int64 us — asof_join casts
                "event_id": t["session_id"],  # right tie slot (unique: one
                # session per (user, start) — sessions are gap-separated)
                "session_id": pc.cast(t["session_id"], pa.float64()),
            }
        )

    right = sess.map_batches(as_right, batch_format="pyarrow")
    out = asof_join(
        ev,
        right,
        key="user_id",
        ts_col="ts",
        tie_col="event_id",
        right_payload={"session_id": "session_id"},
        left_id_out="event_id",
    )

    def finish(t: pa.Table) -> pa.Table:
        sid = t["session_id"]
        if sid.null_count:
            raise ValueError(
                "event_session_assignment: event with no covering session"
            )
        return pa.table(
            {
                "user_id": t["user_id"],
                "event_id": t["event_id"],
                "ts_us": t["ts_us"],
                "session_id": pc.cast(sid, pa.int64()),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow").sort(
        ["user_id", "event_id"]
    )


def user_lifespan_histogram(sf_dir: str):
    """User-lifetime distribution: days between each user's first and last
    event, folded to a (lifespan_days, n_users) histogram — the retention
    analyst's lifetime curve. Per-block (user, min-day, max-day) partials
    thin before the only groupby; the histogram domain is time-span
    bounded, not data bounded."""
    from ray.data.aggregate import Count, Max, Min

    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def pre(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        day = us // 86_400_000_000
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        order = np.argsort(uid, kind="stable")
        u, d = uid[order], day[order]
        change = np.concatenate([[True], u[1:] != u[:-1]])
        starts = np.flatnonzero(change)
        return pa.table(
            {
                "user_id": pa.array(u[starts]),
                "dmin": pa.array(np.minimum.reduceat(d, starts)),
                "dmax": pa.array(np.maximum.reduceat(d, starts)),
            }
        )

    spans = (
        ev.map_batches(pre, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("user_id")
        .aggregate(Min("dmin"), Max("dmax"))
    )

    def lifespan(t: pa.Table) -> pa.Table:
        lo = t["min(dmin)"].to_numpy(zero_copy_only=False)
        hi = t["max(dmax)"].to_numpy(zero_copy_only=False)
        return pa.table({"lifespan_days": pa.array(hi - lo)})

    return (
        spans.map_batches(lifespan, batch_format="pyarrow")
        .groupby("lifespan_days")
        .aggregate(Count(alias_name="n_users"))
        .sort("lifespan_days")
    )


def phrase_occurrences(sf_dir: str, phrase: str = "table value"):
    """Exact phrase search: documents containing the phrase, with the
    occurrence count — the inverted-index probe expressed as a pruned scan
    (pc.count_substring is the vectorized Arrow kernel; at index scale the
    same query routes through the bm25 postings)."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def find(t: pa.Table) -> pa.Table:
        n = pc.count_substring(t["text"], phrase)
        m = pc.greater(n, 0)
        return pa.table(
            {
                "doc_id": t["doc_id"].filter(m),
                "n_occurrences": pc.cast(n.filter(m), pa.int64()),
            }
        )

    return collect_table(
        docs.map_batches(find, batch_format="pyarrow", zero_copy_batch=True),
        pa.schema({"doc_id": pa.int64(), "n_occurrences": pa.int64()}),
    ).sort_by("doc_id")


def anomalous_days(sf_dir: str):
    """Volume anomaly detection: days whose event count deviates from the
    corpus mean daily count by more than 2 population standard deviations.
    The daily rollup is per-block pre-aggregated (time-span bounded); the
    2-sigma test runs in exact integer arithmetic — (n*c - sum)^2 compared
    against 4 * M2 with M2 = n*sumsq - sum^2 (M2 is n^2 * variance, and
    (n*c - sum)^2 is n^2 * (c - mean)^2, so the n^2 factors cancel) — so no float rounding can
    flip a boundary day."""
    ev = _read(sf_dir, "events", ["ts"])

    def pre(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        day = us // 86_400_000_000
        u, c = np.unique(day, return_counts=True)
        return pa.table({"day": pa.array(u), "n": pa.array(c.astype(np.int64))})

    daily = collect_table(
        ev.map_batches(pre, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("day")
        .sum("n"),
        pa.schema({"day": pa.int64(), "sum(n)": pa.int64()}),
    )  # time-span bounded
    days = daily["day"].to_numpy()
    cnt = daily["sum(n)"].to_numpy()
    n = len(cnt)
    s, ss = int(cnt.sum()), int((cnt.astype(object) ** 2).sum())
    m2 = n * ss - s * s  # n^2 * variance (population)
    # |c - mean| > 2*sigma  <=>  (n*c - s)^2 > 4 * m2  (exact ints;
    # both sides carry the same n^2 factor)
    lhs = (n * cnt.astype(object) - s) ** 2
    mask = np.array([int(v) > 4 * m2 for v in lhs], dtype=bool)
    order = np.argsort(days[mask])
    return pa.table(
        {
            "day": pa.array(days[mask][order], pa.int64()),
            "n_events": pa.array(cnt[mask][order], pa.int64()),
        }
    )


def longest_daily_streak(sf_dir: str):
    """Gaps-and-islands, distributed: each user's LONGEST run of
    consecutive active days, folded to a (streak_days, n_users) histogram.

    Shape: distinct (user, day-offset) pairs thin per block and pack into
    one int64; each user's active-day BITMASK rebuilds through a native
    SUM of distinct powers of two (unique after dedup => sum == OR; span
    loudly checked <= 62 bits); the longest consecutive run then costs
    one `x &= x << 1` loop over BITS — 62 iterations over the whole
    column, never per row. The oracle is the classic SQL islands trick
    (day - dense row number is constant within an island)."""
    from ray.data.aggregate import Sum

    ev = _read(sf_dir, "events", ["user_id", "ts"])
    t0 = int(
        _read(sf_dir, "events", ["ts"])
        .map_batches(
            lambda t: pa.table({"d": pa.array(
                pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
                // 86_400_000_000
            )}),
            batch_format="pyarrow",
        )
        .min("d")
    )

    def thin(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        off = us // 86_400_000_000 - t0
        if off.size and off.max() >= 62:
            raise ValueError(
                "longest_daily_streak: day span exceeds the 62-bit mask "
                "(chunk the span or use the sorted-run path)"
            )
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        pk = np.unique((uid << 6) | off)
        return pa.table({"pk": pa.array(pk)})

    # global dedup FIRST: the per-block unique is only a thinning pass, and
    # a (user, day) seen in two blocks would double its bit in the sum
    distinct = (
        ev.map_batches(thin, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("pk")
        .count()
    )

    def to_bits(t: pa.Table) -> pa.Table:
        pk = t["pk"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "uid": pa.array(pk >> 6),
                "bit": pa.array(np.int64(1) << (pk & 63)),
            }
        )

    masks = (
        distinct.map_batches(to_bits, batch_format="pyarrow")
        .groupby("uid")
        .sum("bit")
    )

    def streaks(t: pa.Table) -> pa.Table:
        x = t["sum(bit)"].to_numpy(zero_copy_only=False).copy()
        streak = np.zeros(len(x), dtype=np.int64)
        k = 0
        while x.any():
            k += 1
            streak[x != 0] = k
            x &= x << 1
        u, c = np.unique(streak, return_counts=True)
        return pa.table(
            {"streak_days": pa.array(u), "n": pa.array(c.astype(np.int64))}
        )

    return (
        masks.map_batches(streaks, batch_format="pyarrow")
        .groupby("streak_days")
        .aggregate(Sum("n", alias_name="n_users"))
        .sort("streak_days")
    )


def cms_join_size(sf_dir: str):
    """Join-cardinality estimation WITHOUT executing the join: the
    Count-Min inner product (Cormode & Muthukrishnan 2005) over two
    same-geometry sketches — one over events.user_id, one over
    orders.o_custkey — estimates |events JOIN orders ON user_id =
    o_custkey|. The optimizer primitive behind join planning at 100 TB:
    two O(blocks x sketch) builds replace an actual shuffle.

    Self-evidence in band (the ams_f2_skew convention): the exact join
    size rides along — per-key counts of BOTH sides (per-block thinned)
    meet in a size-guarded join and sum their products — plus the
    eps*N1*N2 overshoot bound and the never-undercounts flag."""
    from ray.data.aggregate import Sum

    from ..stages.joins import broadcast_lookup_join

    spec = SketchSpec.of("cms", 0.0001, 0.01)
    ev = _read(sf_dir, "events", ["user_id"])
    od = _read(sf_dir, "orders", ["o_custkey"])
    a = build_sketch(ev, spec, on="user_id")
    b = build_sketch(od, spec, on="o_custkey")
    est = a.inner_product(b)

    def counts_of(ds, col, out):
        keys = ds.map_batches(
            lambda t: pa.table({"k": t[col]}), batch_format="pyarrow", zero_copy_batch=True
        )
        return grouped_reduce(keys, "k", {out: ("k", "count")}).materialize()

    ca, cb = counts_of(ev, "user_id", "n"), counts_of(od, "o_custkey", "n_b")
    joined = broadcast_lookup_join(ca, cb, on="k", right_count=cb.count())
    prod = joined.map_batches(
        lambda t: pa.table(
            {
                "p": pc.multiply(t["n"], t["n_b"]),
            }
        ),
        batch_format="pyarrow",
    ).aggregate(Sum("p"))
    exact = int(prod["sum(p)"] or 0)
    n1 = int(a.total)
    n2 = int(b.total)
    bound = est - exact <= spec.params[0] * n1 * n2
    return pa.table(
        {
            "est_join_size": pa.array([est], pa.int64()),
            "exact_join_size": pa.array([exact], pa.int64()),
            "never_undercounts": pa.array([est >= exact]),
            "within_eps_bound": pa.array([bool(bound)]),
        }
    )


def user_type_entropy(sf_dir: str):
    """Behavioral-diversity signal: Shannon entropy of each user's
    event-type distribution — engine-exact vs DuckDB via the token_entropy
    discipline: the transcendental c*ln(c) terms floor to integer 1e-8
    nats (order-free integer sums through the shuffle), and the final
    entropy is two pinned IEEE ops + half-away rounding at 6 dp.

    Shape: (user, type) packs into one int64 (loud range check on
    user_id vs the code width) for the only fat groupby; the per-user
    fold is a second native integer-sum groupby over the thinned count
    stream."""
    ev = _read(sf_dir, "events", ["user_id", "event_type"])
    vocab_pa = _event_type_vocab(sf_dir)
    bits = max(int(np.ceil(np.log2(max(len(vocab_pa), 2)))), 1)

    def pre(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        if uid.size and (uid.min() < 0 or uid.max() >= (1 << (63 - bits))):
            raise ValueError(
                f"user_id out of pack range for {bits}-bit type codes; "
                "widen the pack key to two columns"
            )
        code = pc.index_in(t["event_type"], value_set=vocab_pa).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        pk, c = np.unique((uid << bits) | code, return_counts=True)
        return pa.table(
            {"pk": pa.array(pk), "c": pa.array(c.astype(np.int64))}
        )

    counts = (
        ev.map_batches(pre, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("pk")
        .sum("c")
    )

    def terms(t: pa.Table) -> pa.Table:
        pk = t["pk"].to_numpy(zero_copy_only=False)
        c = t["sum(c)"].to_numpy(zero_copy_only=False).astype(np.float64)
        s = np.floor(np.log(c) * c * 1e8).astype(np.int64)
        return pa.table(
            {
                "user_id": pa.array(pk >> bits),
                "n": pa.array(c.astype(np.int64)),
                "s": pa.array(s),
            }
        )

    from ray.data.aggregate import Sum

    agg = (
        counts.map_batches(terms, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Sum("n"), Sum("s"))
    )

    def entropy(t: pa.Table) -> pa.Table:
        n = t["sum(n)"].to_numpy(zero_copy_only=False).astype(np.float64)
        s = t["sum(s)"].to_numpy(zero_copy_only=False).astype(np.float64)
        h = np.log(n) - s / (n * 1e8)
        return pa.table(
            {
                "user_id": t["user_id"],
                "entropy": _oround(pa.array(h), 6),
            }
        )

    return agg.map_batches(entropy, batch_format="pyarrow").sort("user_id")


def large_volume_customers(sf_dir: str, min_qty: int = 300):
    """TPC-H Q18-shaped large-volume customers: top-100 orders (by total
    price) whose line items sum to more than ``min_qty`` units, with the
    owning customer's nation.

    Shape: lineitem pre-aggregates integer quantity per order per block
    (only order-level partials shuffle); the HAVING filter thins to the
    winner set BEFORE any join, so the two lookups (orders, then
    customer) carry only winner rows on the left. Both ride the
    size-guarded join (broadcast at this sf, distributed hash join above
    the budget). Top-100 folds from per-block partials — O(blocks x 100)
    driver rows. Quantities are doubles: half-away _oround -> int64
    matches DuckDB's round() exactly (np.rint's half-to-even would
    diverge on .5); money in integer cents."""
    from ..stages.joins import broadcast_lookup_join

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])

    per_order = grouped_reduce(
        li.map_batches(
            lambda t: pa.table(
                {
                    "o_orderkey": t["l_orderkey"],
                    "q": pc.cast(_oround(t["l_quantity"]), pa.int64()),
                }
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ),
        "o_orderkey",
        {"sum_qty": ("q", "sum")},
    )
    winners = per_order.map_batches(
        lambda t: t.filter(pc.greater(t["sum_qty"], min_qty)), batch_format="pyarrow"
    ).materialize()
    n_win = winners.count()

    orders = _read(
        sf_dir, "orders",
        ["o_orderkey", "o_custkey", "o_totalprice", "o_orderdate"],
    ).map_batches(
        lambda t: pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "o_custkey": t["o_custkey"],
                "total_c": pc.cast(
                    _oround(pc.multiply(t["o_totalprice"], 100.0)), pa.int64()
                ),
                "orderdate_us": pc.cast(t["o_orderdate"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    # winners (tiny, key-unique) broadcast against the orders stream:
    # non-winner orders drop map-side, zero shuffle
    enriched = broadcast_lookup_join(
        orders, winners, on="o_orderkey", right_count=n_win
    )

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(
        lambda t: pa.table(
            {
                "o_custkey": t["c_custkey"],
                "c_nationkey": pc.cast(t["c_nationkey"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    n_cust = _read(sf_dir, "customer", ["c_custkey"]).count()
    full = broadcast_lookup_join(
        enriched, cust, on="o_custkey", right_count=n_cust, left_count=n_win
    )

    cols = ["o_custkey", "c_nationkey", "o_orderkey", "orderdate_us", "total_c", "sum_qty"]
    top = _top_k(
        full, 100, "total_c", "o_orderkey", pa.schema({c: pa.int64() for c in cols})
    )
    return top.rename_columns(["c_custkey"] + cols[1:])


def orders_above_cust_avg(sf_dir: str):
    """Correlated-aggregate shape: per order priority, how many orders
    are STRICTLY above their own customer's average order value (the SQL
    window twin: AVG OVER (PARTITION BY o_custkey)).

    Exact in integers: instead of comparing against the float average
    s/n, compare total_cents * n > sum_cents — one integer multiply, no
    division, no float tie ambiguity. Shape: one pass builds per-customer
    (sum, count) via per-block pa group_by partials + a native groupby
    (only customer-level partials shuffle); a second pass probes the
    per-customer table through the size-guarded join and folds per-block
    priority counts."""
    from ..stages.joins import broadcast_lookup_join

    orders = _read(
        sf_dir, "orders", ["o_custkey", "o_totalprice", "o_orderpriority"]
    )
    probe = orders.map_batches(
        lambda t: pa.table(
            {
                "o_custkey": t["o_custkey"],
                "tc": pc.cast(
                    _oround(pc.multiply(t["o_totalprice"], 100.0)), pa.int64()
                ),
                "o_orderpriority": t["o_orderpriority"],
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    percust = grouped_reduce(
        probe, "o_custkey", {"s": ("tc", "sum"), "n": ("tc", "count")}
    )
    n_cust = _read(sf_dir, "customer", ["c_custkey"]).count()  # upper bound
    joined = broadcast_lookup_join(
        probe, percust, on="o_custkey", right_count=n_cust
    )

    def above(t: pa.Table) -> pa.Table:
        tc = t["tc"].to_numpy(zero_copy_only=False)
        s = t["s"].to_numpy(zero_copy_only=False)
        n = t["n"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(tc * n > s)).select(["o_orderpriority"])

    return grouped_reduce(
        joined.map_batches(above, batch_format="pyarrow"),
        "o_orderpriority",
        {"n_above": (None, "count_all")},
    ).sort("o_orderpriority")


def daily_activity_union(sf_dir: str):
    """Cross-table UNION ALL rollup: one (day, source) activity count
    stream harmonized from two differently-shaped tables (events.ts,
    orders.o_orderdate) via Dataset.union.

    Shape: each side thins to per-block (day, count) partials BEFORE the
    union (only O(days) rows per block cross), the day packs with a
    1-bit source tag into one int64 so the single shuffle is a native
    one-column groupby-sum."""
    day_us = 86_400_000_000

    def thin(col: str, src: int):
        def _t(t: pa.Table) -> pa.Table:
            us = pc.cast(t[col], pa.int64()).to_numpy(zero_copy_only=False)
            day, n = np.unique(us // day_us, return_counts=True)
            return pa.table(
                {
                    "pk": pa.array(day * 2 + src),
                    "n": pa.array(n.astype(np.int64)),
                }
            )

        return _t

    parts = (
        _read(sf_dir, "events", ["ts"])
        .map_batches(thin("ts", 0), batch_format="pyarrow", zero_copy_batch=True)
        .union(
            _read(sf_dir, "orders", ["o_orderdate"]).map_batches(
                thin("o_orderdate", 1),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
        )
    )

    def unpack(t: pa.Table) -> pa.Table:
        pk = t["pk"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "day": pa.array(pk >> 1),
                "source": pa.array(
                    np.where(pk & 1, "orders", "events").tolist(), pa.string()
                ),
                "n_rows": t["sum(n)"],
            }
        )

    return (
        parts.groupby("pk")
        .sum("n")
        .map_batches(unpack, batch_format="pyarrow")
        .sort(["day", "source"])
    )


def user_setops(sf_dir: str):
    """Relational INTERSECT / EXCEPT over distinct-key subqueries: how
    many users both clicked and purchased, clicked only, purchased only.

    Shape: one scan; irrelevant event types drop map-side, then each
    block pre-aggregates (user_id, click-flag, purchase-flag) via a
    native ``pa.Table.group_by`` max (presence is monotone, so per-block
    max partials compose with the one native groupby-max shuffle); the
    final per-block combination tally ships O(blocks) 3-column rows.
    No distinct-join and no driver-side id set ever materializes."""
    ev = _read(sf_dir, "events", ["user_id", "event_type"])

    def flags(t: pa.Table) -> pa.Table:
        c = pc.cast(pc.equal(t["event_type"], "click"), pa.int8())
        p = pc.cast(pc.equal(t["event_type"], "purchase"), pa.int8())
        return pa.table({"user_id": t["user_id"], "c": c, "p": p}).filter(
            pc.or_(pc.equal(c, 1), pc.equal(p, 1))
        )

    per_user = grouped_reduce(
        ev.map_batches(flags, batch_format="pyarrow", zero_copy_batch=True),
        "user_id",
        {"c": ("c", "max"), "p": ("p", "max")},
    )

    def tally(t: pa.Table) -> pa.Table:
        c = t["c"].to_numpy(zero_copy_only=False).astype(bool)
        p = t["p"].to_numpy(zero_copy_only=False).astype(bool)
        return pa.table(
            {
                "n_both": pa.array([int((c & p).sum())], pa.int64()),
                "n_click_only": pa.array([int((c & ~p).sum())], pa.int64()),
                "n_purchase_only": pa.array([int((~c & p).sum())], pa.int64()),
            }
        )

    tot = per_user.map_batches(tally, batch_format="pyarrow").sum(
        ["n_both", "n_click_only", "n_purchase_only"]
    )
    return pa.table(
        {
            "n_both": pa.array([int(tot["sum(n_both)"])], pa.int64()),
            "n_click_only": pa.array([int(tot["sum(n_click_only)"])], pa.int64()),
            "n_purchase_only": pa.array(
                [int(tot["sum(n_purchase_only)"])], pa.int64()
            ),
        }
    )


def cube_type_weekday(sf_dir: str):
    """GROUP BY CUBE(event_type, weekday): counts and integer-cent value
    sums at all four grouping levels, with the SQL GROUPING() bitmask
    (bit1 = event_type aggregated, bit0 = weekday aggregated).

    Shape: map-side grouping-set expansion — each block reduces to its
    finest (type x dow) grid with a native ``pa.Table.group_by``, then
    replicates those <= |types| x 7 partials into all four grouping sets
    BEFORE the shuffle, packing (gid, type_code, dow) into one int64 so
    the single native groupby-sum carries <= 4x grid rows per block.
    Unlike the ROLLUP twin (driver fold), CUBE stays fully distributed:
    no driver-side fold at any cardinality."""
    day_us = 86_400_000_000

    vocab_pa = _event_type_vocab(sf_dir)
    vocab = vocab_pa.to_numpy(zero_copy_only=False)
    nt = len(vocab)
    code_all, dow_all = nt, 7  # sentinels for the aggregated axes
    span = (nt + 1) * 8  # pk = gid*span + code*8 + dow

    def pre(t: pa.Table) -> pa.Table:
        code = (
            pc.index_in(t["event_type"], value_set=vocab_pa)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        dow = (us // day_us + 4) % 7  # epoch day 0 (1970-01-01) = Thursday
        vc = pc.cast(_oround(pc.multiply(t["value"], 100.0)), pa.int64())
        g = (
            pa.table({"b": pa.array(code * 8 + dow), "v": vc})
            .group_by("b")
            .aggregate([("v", "sum"), ("v", "count")])
        )
        b = g["b"].to_numpy(zero_copy_only=False)
        s = g["v_sum"].to_numpy(zero_copy_only=False)
        n = g["v_count"].to_numpy(zero_copy_only=False).astype(np.int64)
        gcode, gdow = b >> 3, b & 7
        pks, sums, cnts = [], [], []
        for gid, (kc, kd) in enumerate(
            [(gcode, gdow), (gcode, None), (None, gdow), (None, None)]
        ):
            key = (kc if kc is not None else np.full_like(b, code_all)) * 8 + (
                kd if kd is not None else np.full_like(b, dow_all)
            )
            u, inv = np.unique(key, return_inverse=True)
            pks.append(gid * span + u)
            # exact integer accumulation (grid-sized, so np.add.at is cheap)
            su = np.zeros(len(u), dtype=np.int64)
            np.add.at(su, inv, s)
            cu = np.zeros(len(u), dtype=np.int64)
            np.add.at(cu, inv, n)
            sums.append(su)
            cnts.append(cu)
        return pa.table(
            {
                "pk": pa.array(np.concatenate(pks)),
                "s": pa.array(np.concatenate(sums)),
                "n": pa.array(np.concatenate(cnts)),
            }
        )

    agg = (
        _read(sf_dir, "events", ["ts", "event_type", "value"])
        .map_batches(pre, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("pk")
        .sum(["s", "n"])
    )

    names = np.concatenate([vocab, np.array(["(all)"], dtype=object)])

    def unpack(t: pa.Table) -> pa.Table:
        pk = t["pk"].to_numpy(zero_copy_only=False)
        gid, rem = pk // span, pk % span
        code, dow = rem >> 3, rem & 7
        return pa.table(
            {
                "event_type": pa.array(names[code].tolist(), pa.string()),
                "dow": pa.array(np.where(dow == dow_all, -1, dow)),
                "gid": pa.array(gid),
                "n_events": t["sum(n)"],
                "value_c": t["sum(s)"],
            }
        )

    return (
        agg.map_batches(unpack, batch_format="pyarrow")
        .sort(["gid", "event_type", "dow"])
    )


def nations_volume_shipping(sf_dir: str):
    """TPC-H Q7-shaped volume shipping: revenue between every
    (supplier nation, customer nation) pair per ship year.

    Shape: the lineitem stream rides two size-guarded lookup joins —
    supplier (suppkey -> nationkey), then the customer-enriched orders
    dimension (orderkey -> customer nationkey), each broadcast at this
    sf and a distributed hash join above the budget. Per-block partials
    pack (year, supp_nat, cust_nat) into one int64 so the single native
    groupby-sum carries only grid-bounded rows; the 25-row nation name
    table attaches AFTER aggregation on the tiny result grid. Revenue in
    integer centi-cents (round(ext*100) * (100 - round(disc*100)))."""
    from ..stages.joins import broadcast_lookup_join

    nname = _nation_names(sf_dir)

    supp, n_supp = _supplier_nations(sf_dir)

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(
        lambda t: pa.table(
            {
                "o_custkey": t["c_custkey"],
                "c_nat": pc.cast(t["c_nationkey"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    n_cust = _read(sf_dir, "customer", ["c_custkey"]).count()
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    n_orders = _read(sf_dir, "orders", ["o_orderkey"]).count()
    ord_enriched = broadcast_lookup_join(
        orders, cust, on="o_custkey", right_count=n_cust, left_count=n_orders
    ).map_batches(
        lambda t: t.select(["o_orderkey", "c_nat"]), batch_format="pyarrow"
    )

    def prep_li(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_suppkey": t["l_suppkey"],
                "o_orderkey": t["l_orderkey"],
                "year": pc.cast(pc.year(t["l_shipdate"]), pa.int64()),
                "rev_cc": _rev_cc(t),
            }
        )

    li = _read(
        sf_dir,
        "lineitem",
        ["l_suppkey", "l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    ).map_batches(prep_li, batch_format="pyarrow", zero_copy_batch=True)
    n_li = _read(sf_dir, "lineitem", ["l_orderkey"]).count()
    li = broadcast_lookup_join(
        li, supp, on="l_suppkey", right_count=n_supp, left_count=n_li
    )
    li = broadcast_lookup_join(
        li, ord_enriched, on="o_orderkey", right_count=n_orders, left_count=n_li
    )

    def grid_key(t: pa.Table) -> pa.Table:
        year = t["year"].to_numpy(zero_copy_only=False)
        sn = t["s_nat"].to_numpy(zero_copy_only=False)
        cn = t["c_nat"].to_numpy(zero_copy_only=False)
        pk = (year << 10) | (sn << 5) | cn
        return pa.table({"pk": pa.array(pk), "rev_cc": t["rev_cc"]})

    agg = grouped_reduce(
        li.map_batches(grid_key, batch_format="pyarrow"),
        "pk",
        {"revenue_cc": ("rev_cc", "sum"), "n_items": ("rev_cc", "count")},
    )

    def unpack(t: pa.Table) -> pa.Table:
        pk = t["pk"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "supp_nation": pa.array(
                    nname[(pk >> 5) & 31].tolist(), pa.string()
                ),
                "cust_nation": pa.array(nname[pk & 31].tolist(), pa.string()),
                "year": pa.array(pk >> 10),
                "revenue_cc": t["revenue_cc"],
                "n_items": t["n_items"],
            }
        )

    return (
        agg.map_batches(unpack, batch_format="pyarrow")
        .sort(["supp_nation", "cust_nation", "year"])
    )


def kmv_overlap_exact(sf_dir: str, k: int = 1 << 17):
    """Degenerate-exact KMV overlap twin of ``kmv_user_overlap``: with k
    above both distinct counts each sketch retains EVERY distinct key
    hash, so union / intersection / Jaccard read out exactly and the
    query takes the full rows+schema+hash oracle gate (the same
    exact-degenerate discipline as the MG / KMV distinct twins).

    Jaccard reports in integer ppm via floor division — operands are
    non-negative, where numpy/Python ``//`` and DuckDB ``//`` agree."""
    ev = _read(sf_dir, "events", ["user_id", "event_type"])
    a = build_sketch(
        ev.filter(expr="event_type == 'click'"),
        SketchSpec.of("kmv", k),
        on="user_id",
    )
    b = build_sketch(
        ev.filter(expr="event_type == 'purchase'"),
        SketchSpec.of("kmv", k),
        on="user_id",
    )
    if not (a.is_exact() and b.is_exact()):
        raise ValueError(
            "kmv_overlap_exact requires k above both distinct counts; raise k"
        )
    ha, hb = set(a.hashes.tolist()), set(b.hashes.tolist())
    n_union, n_inter = len(ha | hb), len(ha & hb)
    return pa.table(
        {
            "n_union": pa.array([n_union], pa.int64()),
            "n_inter": pa.array([n_inter], pa.int64()),
            "jaccard_ppm": pa.array(
                [(n_inter * 1_000_000) // max(n_union, 1)], pa.int64()
            ),
        }
    )


def parts_pareto(sf_dir: str):
    """Pareto frontier (2-D skyline) over part (size, price): parts not
    dominated by any other part on (p_size <=, price <=) with at least
    one strict inequality. Duplicate (size, price) points are mutually
    non-dominating, so whole tie classes survive together.

    Skyline is distributive: each block keeps its LOCAL skyline (sort
    unique pairs by size, running strict-min price — vectorized), the
    union of local skylines provably contains the global frontier, and
    one final pass over that small candidate set (repartition(1): a 2-D
    skyline of n random points is O(log n) sized, and the block pass
    bounds what crosses) finishes exactly. No driver-side loop."""

    def local_skyline(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        size = t["p_size"].to_numpy(zero_copy_only=False)
        price = t["price_c"].to_numpy(zero_copy_only=False)
        pairs = np.stack([size, price], axis=1)
        uniq, inv = np.unique(pairs, axis=0, return_inverse=True)
        us, up = uniq[:, 0], uniq[:, 1]
        # np.unique sorts by (size, price): the first row of each size
        # group is that size's min price — the only candidate there (any
        # higher price is dominated by it via strict price)
        first_of_size = np.concatenate([[True], us[1:] != us[:-1]])
        mins_per_size = up[first_of_size]
        # a size's min survives iff STRICTLY below every smaller size's
        # min (equal price at a smaller size dominates via strict size)
        best_before = np.concatenate(
            [[np.iinfo(np.int64).max],
             np.minimum.accumulate(mins_per_size)[:-1]]
        )
        pair_ok = np.zeros(len(uniq), dtype=bool)
        pair_ok[np.flatnonzero(first_of_size)] = mins_per_size < best_before
        return t.filter(pa.array(pair_ok[inv]))

    prep = _read(
        sf_dir, "part", ["p_partkey", "p_size", "p_retailprice"]
    ).map_batches(
        lambda t: pa.table(
            {
                "p_partkey": t["p_partkey"],
                "p_size": pc.cast(t["p_size"], pa.int64()),
                "price_c": pc.cast(
                    _oround(pc.multiply(t["p_retailprice"], 100.0)), pa.int64()
                ),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return (
        prep.map_batches(local_skyline, batch_format="pyarrow")
        .repartition(1)
        .map_batches(local_skyline, batch_format="pyarrow")
        .sort("p_partkey")
    )


def daily_counts_dense(sf_dir: str):
    """Calendar densification (gap filling): one row per day from the
    first to the last event day INCLUSIVE, zero-count days preserved —
    the generate_series LEFT JOIN shape reports rely on.

    Shape: the day bounds come from one cheap min/max aggregate; the
    dense axis is ``ray.data.range`` (generated, never materialized on
    the driver); per-day counts pre-aggregate per block before their one
    native groupby; the dense axis LEFT-joins the tiny count table via
    the size-guarded lookup join (day count is bounded by the time span,
    not the row count) and misses fill with 0."""
    import ray.data as rd

    from ..stages.joins import broadcast_lookup_join

    day_us = 86_400_000_000
    ev = _read(sf_dir, "events", ["ts"])

    def day_partials(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        day, n = np.unique(us // day_us, return_counts=True)
        return pa.table(
            {"day": pa.array(day), "n": pa.array(n.astype(np.int64))}
        )

    from ray.data.aggregate import Max, Min, Sum

    counts = (
        ev.map_batches(day_partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("day")
        .aggregate(Sum("n", alias_name="n"))
        # consumed twice (bounds aggregate + join right): pin so the
        # day groupby runs once (day-bounded rows)
        .materialize()
    )

    bounds = counts.aggregate(Min("day"), Max("day"))
    if bounds is None or bounds.get("min(day)") is None:
        # empty input: hand back a schema-bearing table (a 0-row Dataset
        # loses its schema on to_pandas — CLAUDE.md)
        return pa.table(
            {"day": pa.array([], pa.int64()), "n_events": pa.array([], pa.int64())}
        )
    lo, hi = int(bounds["min(day)"]), int(bounds["max(day)"])
    n_days = hi - lo + 1

    dense = rd.range(n_days).map_batches(
        lambda t: pa.table({"day": pa.array(t["id"].to_numpy() + lo)}),
        batch_format="pyarrow",
    )
    joined = broadcast_lookup_join(
        dense, counts, on="day", right_count=n_days, how="left"
    )
    return joined.map_batches(
        lambda t: pa.table(
            {
                "day": t["day"],
                "n_events": pc.coalesce(t["n"], pa.scalar(0, pa.int64())),
            }
        ),
        batch_format="pyarrow",
    ).sort("day")


def orders_late_exists(sf_dir: str, grace_days: int = 30):
    """TPC-H Q4-shaped EXISTS with an inequality: per order priority,
    how many ORDERS have at least one line item shipped more than
    ``grace_days`` after the order date.

    Shape: EXISTS(ship > date + g) over an order's items is equivalent
    to max(shipdate) > date + g — and the orderkey equi-join resolves
    INSIDE the same groupby: both sides union into one keyed stream
    (lineitem thins to per-block orderkey max partials; orders carry
    their threshold + priority code with nulls on the other side's
    columns) and a single null-skipping groupby-max yields
    (max_ship, thresh, pcode) per order. No broadcast, no driver
    collect, ONE shuffle — the sort-merge-join-as-aggregate shape.
    Orders with no line items come out null-shipped and drop (EXISTS
    false). Comparison in integer epoch-us on both sides.

    When the orders map fits the broadcast budget the query instead takes
    ``_late_orders_broadcast_plan`` (the late_shipment_priority shape):
    probe a broadcast (orderdate, priority) map per lineitem block, emit
    only DISTINCT late orderkeys, one small distinct groupby — no union,
    no keyed max shuffle."""
    from ..stages.joins import DIM_BROADCAST_MAX

    n_orders = _read(sf_dir, "orders", ["o_orderkey"]).count()  # metadata
    if n_orders <= DIM_BROADCAST_MAX:
        return _late_orders_broadcast_plan(sf_dir, grace_days, "n_late_orders")
    return _orders_late_union_plan(sf_dir, grace_days)


def _orders_late_union_plan(sf_dir: str, grace_days: int):
    from ray.data.aggregate import Max

    day_us = 86_400_000_000
    prio = sorted(
        _read(sf_dir, "orders", ["o_orderpriority"]).unique("o_orderpriority")
    )
    prio_pa = pa.array(prio, pa.string())

    def li_side(t: pa.Table) -> pa.Table:
        g = (
            pa.table(
                {
                    "o_orderkey": t["l_orderkey"],
                    "ship_us": pc.cast(t["l_shipdate"], pa.int64()),
                }
            )
            .group_by("o_orderkey")
            .aggregate([("ship_us", "max")])
        )
        n = g.num_rows
        return pa.table(
            {
                "o_orderkey": g["o_orderkey"],
                "ship_us": g["ship_us_max"],
                "thresh_us": pa.nulls(n, pa.int64()),
                "pcode": pa.nulls(n, pa.int64()),
            }
        )

    def ord_side(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "ship_us": pa.nulls(t.num_rows, pa.int64()),
                "thresh_us": pc.add(
                    pc.cast(t["o_orderdate"], pa.int64()),
                    pa.scalar(grace_days * day_us, pa.int64()),
                ),
                "pcode": pc.cast(
                    pc.index_in(t["o_orderpriority"], value_set=prio_pa),
                    pa.int64(),
                ),
            }
        )

    keyed = (
        _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
        .map_batches(li_side, batch_format="pyarrow", zero_copy_batch=True)
        .union(
            _read(
                sf_dir, "orders",
                ["o_orderkey", "o_orderdate", "o_orderpriority"],
            ).map_batches(ord_side, batch_format="pyarrow", zero_copy_batch=True)
        )
    )
    per_order = keyed.groupby("o_orderkey").aggregate(
        Max("ship_us", alias_name="ship_us"),
        Max("thresh_us", alias_name="thresh_us"),
        Max("pcode", alias_name="pcode"),
    )

    def late_only(t: pa.Table) -> pa.Table:
        # null ship (no line items) and null-threshold guards both drop
        # via the null-propagating comparison
        late = pc.greater(t["ship_us"], t["thresh_us"])
        return pa.table({"pcode": t["pcode"]}).filter(pc.fill_null(late, False))

    def unpack(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderpriority": pc.take(prio_pa, t["pcode"]),
                "n_late_orders": t["n_late_orders"],
            }
        )

    return (
        grouped_reduce(
            per_order.map_batches(late_only, batch_format="pyarrow"),
            "pcode",
            {"n_late_orders": (None, "count_all")},
        )
        .map_batches(unpack, batch_format="pyarrow")
        .sort("o_orderpriority")
    )


def daily_delta(sf_dir: str):
    """Window-over-aggregate: the dense daily event series with each
    day's count delta vs the previous day (LAG on an aggregated axis —
    gap days count 0, so deltas cross gaps exactly like the SQL twin).

    Shape: reuses the densified series (generated day axis LEFT JOIN
    per-day count partials); the diff runs vectorized in ONE block —
    legal because the series is bounded by the time span in days, not
    by the event volume."""
    dense = daily_counts_dense(sf_dir)
    if isinstance(dense, pa.Table):  # empty-input guard returned a Table
        return dense.append_column("delta", pa.array([], pa.int64()))

    def diff(t: pa.Table) -> pa.Table:
        n = t["n_events"].to_numpy(zero_copy_only=False)
        day = t["day"].to_numpy(zero_copy_only=False)
        order = np.argsort(day)
        day, n = day[order], n[order]
        delta = np.concatenate([[0], np.diff(n)])
        first = np.zeros(len(n), dtype=bool)
        if len(first):
            first[0] = True
        return pa.table(
            {
                "day": pa.array(day),
                "n_events": pa.array(n),
                # SQL LAG yields NULL on the first row; mirror it
                "delta": pa.array(delta, pa.int64(), mask=first),
            }
        )

    return dense.repartition(1).map_batches(
        diff, batch_format="pyarrow"
    ).sort("day")


def docs_grouping_sets(sf_dir: str):
    """Custom GROUPING SETS ((lang), (source)) over documents — the
    third grouping-sets variant next to the ROLLUP (driver fold) and
    CUBE (map-side expansion) twins: counts and n_chars sums per lang
    and per source in ONE scan, tagged with the GROUPING() bitmask.

    Shape: each block pre-aggregates both sets natively and unions the
    partials (|langs| + |sources| rows per block); one native groupby
    over the composite string key finishes. No second scan, no driver
    fold."""
    ds = _read(sf_dir, "documents", ["lang", "source", "n_chars"])

    def pre(t: pa.Table) -> pa.Table:
        out = []
        # gid per DuckDB GROUPING(lang, source): bit1 = lang aggregated,
        # bit0 = source aggregated. Set (lang) -> gid 1; (source) -> 2.
        for col, gid in (("lang", 1), ("source", 2)):
            g = (
                pa.table({col: t[col], "n_chars": t["n_chars"]})
                .group_by(col)
                .aggregate([("n_chars", "sum"), ("n_chars", "count")])
            )
            key = pc.binary_join_element_wise(
                pa.scalar(str(gid)), g[col], "|"
            )
            out.append(
                pa.table(
                    {
                        "k": key,
                        "s": g["n_chars_sum"],
                        "n": pc.cast(g["n_chars_count"], pa.int64()),
                    }
                )
            )
        return pa.concat_tables(out)

    agg = (
        ds.map_batches(pre, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("k")
        .sum(["s", "n"])
    )

    def unpack(t: pa.Table) -> pa.Table:
        k = t["k"].to_pylist()
        gids = np.array([int(x.split("|", 1)[0]) for x in k], dtype=np.int64)
        vals = [x.split("|", 1)[1] for x in k]
        lang = [v if g == 1 else "(all)" for v, g in zip(vals, gids)]
        src = [v if g == 2 else "(all)" for v, g in zip(vals, gids)]
        return pa.table(
            {
                "lang": pa.array(lang, pa.string()),
                "source": pa.array(src, pa.string()),
                "gid": pa.array(gids),
                "n_docs": t["sum(n)"],
                "sum_chars": t["sum(s)"],
            }
        )

    return (
        agg.map_batches(unpack, batch_format="pyarrow")
        .sort(["gid", "lang", "source"])
    )


def user_growth_accounting(sf_dir: str):
    """Growth accounting: per day, active users split into NEW (first
    day ever seen) and RETURNING — the DAU decomposition every growth
    report starts from.

    Shape: ONE distinct (user, day) pair stream (per-block packed-key
    dedupe, one native groupby) feeds both legs: actives = per-block day
    counts over the pair stream; news = per-user min(day) (the pair
    stream is already user-thin) folded to per-day first-seen counts.
    Both legs end day-bounded; the final alignment joins two tiny tables
    via the size-guarded lookup join."""
    from ray.data.aggregate import Min

    from ..stages.joins import broadcast_lookup_join

    day_us = 86_400_000_000
    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def pair_partials(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        day = us // day_us
        if uid.size and (uid.min() < 0 or uid.max() >= (1 << 43)):
            raise ValueError("user_id out of pack range for 20-bit days")
        if day.size and (day.min() < 0 or day.max() >= (1 << 20)):
            raise ValueError("day out of 20-bit pack range")
        pk = np.unique((uid << 20) | day)
        return pa.table({"pk": pa.array(pk)})

    pairs = (
        ev.map_batches(pair_partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("pk")
        .count()
        .map_batches(
            lambda t: pa.table(
                {
                    "user_id": pa.array(
                        t["pk"].to_numpy(zero_copy_only=False) >> 20
                    ),
                    "day": pa.array(
                        t["pk"].to_numpy(zero_copy_only=False) & ((1 << 20) - 1)
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        # both legs consume this stream: pin it so the dedup shuffle
        # runs once (16 B/row, user x day bounded)
        .materialize()
    )

    actives = grouped_reduce(pairs, "day", {"n_active": (None, "count_all")})
    firsts = grouped_reduce(
        pairs.groupby("user_id").aggregate(Min("day", alias_name="day")),
        "day",
        {"n_new": (None, "count_all")},
    )
    n_days = firsts.count()  # day-bounded
    joined = broadcast_lookup_join(
        actives, firsts, on="day", right_count=n_days, how="left"
    )
    return joined.map_batches(
        lambda t: pa.table(
            {
                "day": t["day"],
                "n_active": t["n_active"],
                "n_new": pc.coalesce(t["n_new"], pa.scalar(0, pa.int64())),
                "n_returning": pc.subtract(
                    t["n_active"],
                    pc.coalesce(t["n_new"], pa.scalar(0, pa.int64())),
                ),
            }
        ),
        batch_format="pyarrow",
    ).sort("day")


def revenue_concentration(sf_dir: str, top_n: int = 100):
    """Revenue concentration: what share (ppm) of all order revenue the
    top ``top_n`` customers carry — the skew summary a partitioning
    planner reads before choosing salting.

    Shape: per-customer revenue via per-block pa group_by partials + one
    native groupby-sum; the global top-N folds from per-block
    (N-truncated) partials — O(blocks x N) driver rows; the grand total
    is a native sum. Ties at the cut resolve by custkey ASC, matching
    the SQL row_number twin. Integer cents end to end; ppm by
    non-negative floor division."""
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
        lambda t: pa.table(
            {
                "o_custkey": t["o_custkey"],
                "tc": pc.cast(
                    _oround(pc.multiply(t["o_totalprice"], 100.0)), pa.int64()
                ),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    # consumed three times (top fold, total, count): pin so the
    # customer groupby runs once (16 B/row, customer-bounded)
    per_cust = grouped_reduce(
        orders, "o_custkey", {"rev_c": ("tc", "sum")}
    ).materialize()

    top = _top_k(
        per_cust, top_n, "rev_c", "o_custkey",
        pa.schema({"o_custkey": pa.int64(), "rev_c": pa.int64()}),
    )
    top_cc = int(top["rev_c"].to_numpy().sum())

    total_cc = int(per_cust.sum("rev_c"))
    n_cust = per_cust.count()
    return pa.table(
        {
            "n_customers": pa.array([n_cust], pa.int64()),
            "total_c": pa.array([total_cc], pa.int64()),
            "top_c": pa.array([top_cc], pa.int64()),
            "top_ppm": pa.array(
                [(top_cc * 1_000_000) // max(total_cc, 1)], pa.int64()
            ),
        }
    )


def doc_chunks(sf_dir: str, chunk: int = 128, overlap: int = 32):
    """Context-window chunking with overlap — the row-expansion step a
    pretraining tokenizer pipeline runs before packing: each doc yields
    ceil((n - chunk)/stride) + 1 windows of up to ``chunk`` whitespace
    tokens with ``overlap`` tokens shared between neighbors (token
    counting matches `token_counts`' whitespace twin exactly).

    Shape: a pure vectorized flat-map — np.repeat for the fan-out,
    one arange minus segment offsets for the within-doc chunk ids, no
    Python loop; chunk geometry is integer arithmetic so the SQL
    generate_series twin agrees bit-for-bit."""
    from ..stages.text import add_token_count

    stride = chunk - overlap
    if stride <= 0:
        raise ValueError("overlap must be smaller than chunk")

    def explode(t: pa.Table) -> pa.Table:
        t = add_token_count(t)
        n = t["token_count"].to_numpy(zero_copy_only=False).astype(np.int64)
        doc = t["doc_id"].to_numpy(zero_copy_only=False)
        k = np.where(
            n <= chunk, 1, (np.maximum(n - chunk, 0) + stride - 1) // stride + 1
        )
        tot = int(k.sum())
        rep_doc = np.repeat(doc, k)
        rep_n = np.repeat(n, k)
        seg0 = np.repeat(np.cumsum(k) - k, k)
        cid = np.arange(tot, dtype=np.int64) - seg0
        st = cid * stride
        en = np.minimum(st + chunk, rep_n)
        return pa.table(
            {
                "doc_id": pa.array(rep_doc),
                "chunk_id": pa.array(cid),
                "start_tok": pa.array(st),
                "end_tok": pa.array(en),
                "n_tokens": pa.array(en - st),
            }
        )

    return (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
        .sort(["doc_id", "chunk_id"])
    )


def type_decay_scores(sf_dir: str, horizon_days: int = 30):
    """Time-decayed frequency per event type: each event contributes
    weight 2^(horizon - age_days) (day-granular exponential decay,
    halflife = 1 day, zero beyond the horizon) — recency-weighted
    popularity in EXACT integers: powers of two up to 2^horizon are
    exact in int64 and in DuckDB's power(), and the per-type sums are
    order-free, so the twin hash-matches without any float discipline.

    Shape: one cheap max-day aggregate, then per-block (type, weight)
    partials (|types|-bounded) into the one native groupby-sum."""
    day_us = 86_400_000_000
    ev = _read(sf_dir, "events", ["ts", "event_type"])
    max_day = int(ev.map_batches(
        lambda t: pa.table(
            {
                "d": pa.array(
                    [
                        int(
                            pc.cast(t["ts"], pa.int64()).to_numpy(
                                zero_copy_only=False
                            ).max() // day_us
                        )
                    ]
                    if t.num_rows
                    else [],
                    pa.int64(),
                )
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).max("d"))

    def weights(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        age = max_day - us // day_us
        # clamp BEFORE shifting: a negative shift amount (age beyond the
        # horizon) is undefined even on the branch np.where discards
        shift = np.clip(horizon_days - age, 0, horizon_days)
        w = np.where(age <= horizon_days, 1 << shift, 0).astype(np.int64)
        return pa.table({"event_type": t["event_type"], "w": pa.array(w)})

    return grouped_reduce(
        ev.map_batches(weights, batch_format="pyarrow", zero_copy_batch=True),
        "event_type",
        {"decayed_score": ("w", "sum")},
    ).sort("event_type")


def user_value_intervals(sf_dir: str):
    """SCD2-style validity intervals from an event stream: every event
    becomes (valid_from, valid_to) where valid_to is the same user's
    next event STRICTLY after it (NULL on the open last interval) — the
    LEAD/min-following window twin.

    Shape: a forward self as-of join; strictness comes from joining on
    ts+1 µs (integer time: right.ts >= left.ts + 1 IS right.ts >
    left.ts), so the inclusive machinery is reused untouched. Same-(user,
    ts) right ties are harmless here — only the tied TS is emitted, and
    ties agree on it."""
    from ..stages.joins import asof_join_forward

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id"])

    left = ev.map_batches(
        lambda t: pa.table(
            {
                "event_id": t["event_id"],
                "user_id": t["user_id"],
                "ts": pc.add(pc.cast(t["ts"], pa.int64()), pa.scalar(1, pa.int64())),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    right = ev.map_batches(
        lambda t: pa.table(
            {
                "event_id": t["event_id"],
                "user_id": t["user_id"],
                "ts": pc.cast(t["ts"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    out = asof_join_forward(
        left,
        right,
        key="user_id",
        ts_col="ts",
        tie_col="event_id",
        right_payload={"ts": "valid_to_us"},
        left_id_out="event_id",
    )
    return out.map_batches(
        lambda t: pa.table(
            {
                "event_id": t["event_id"],
                "valid_from_us": pc.subtract(
                    t["ts_us"], pa.scalar(1, pa.int64())
                ),
                "valid_to_us": t["valid_to_us"],
            }
        ),
        batch_format="pyarrow",
    ).sort("event_id")


def type_jaccard_pairs(sf_dir: str):
    """User-set Jaccard between event types: for every co-occurring type
    pair, |users doing both| / |users doing either| in integer ppm — the
    similarity readout on top of the co-occurrence supports.

    Shape: the type_cooccurrence bitmask machinery (distinct packed
    (user, code) stream -> per-user SUM of distinct powers of two); the
    per-type user counts fall out of the same mask stream per block, so
    ONE extra |types|-bounded fold buys the denominators. Both folded
    grids are type-bounded; division is non-negative floor (DuckDB //
    parity)."""
    ev = _read(sf_dir, "events", ["user_id", "event_type"])
    vocab_pa = _event_type_vocab(sf_dir)
    vocab = vocab_pa.to_numpy(zero_copy_only=False)
    nv = len(vocab)
    if nv >= 63:
        raise ValueError("type_jaccard_pairs: vocabulary too wide for int64")

    def thin(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        code = pc.index_in(t["event_type"], value_set=vocab_pa).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        return pa.table({"pk": pa.array(np.unique((uid << 10) | code))})

    masks = (
        ev.map_batches(thin, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("pk")
        .count()
        .map_batches(
            lambda t: pa.table(
                {
                    "uid": pa.array(t["pk"].to_numpy(zero_copy_only=False) >> 10),
                    "bit": pa.array(
                        np.int64(1)
                        << (t["pk"].to_numpy(zero_copy_only=False) & 1023)
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        .groupby("uid")
        .sum("bit")
    )

    pair_list = [(i, j) for i in range(nv) for j in range(i + 1, nv)]

    def fold(t: pa.Table) -> pa.Table:
        m = t["sum(bit)"].to_numpy(zero_copy_only=False)
        keys, ns = [], []
        for i in range(nv):  # per-type user counts: key = (i << 10) | i
            ni = int(((m & (1 << i)) != 0).sum())
            if ni:
                keys.append((i << 10) | i)
                ns.append(ni)
        for i, j in pair_list:  # pair supports: key = (i << 10) | j
            both = int((((m & (1 << i)) != 0) & ((m & (1 << j)) != 0)).sum())
            if both:
                keys.append((i << 10) | j)
                ns.append(both)
        return pa.table(
            {"k": pa.array(keys, pa.int64()), "n": pa.array(ns, pa.int64())}
        )

    rows = collect_table(
        masks.map_batches(fold, batch_format="pyarrow").groupby("k").sum("n"),
        pa.schema({"k": pa.int64(), "sum(n)": pa.int64()}),
    )  # <= |types|^2 rows
    a, b = rows["k"].to_numpy() >> 10, rows["k"].to_numpy() & 1023
    n = rows["sum(n)"].to_numpy()
    per_type = dict(zip(a[a == b].tolist(), n[a == b].tolist()))
    pairs = sorted(zip(a[a != b].tolist(), b[a != b].tolist(), n[a != b].tolist()))
    return pa.table(
        {
            "type_a": pa.array([str(vocab[i]) for i, _, _ in pairs], pa.string()),
            "type_b": pa.array([str(vocab[j]) for _, j, _ in pairs], pa.string()),
            "n_both": pa.array([b for _, _, b in pairs], pa.int64()),
            "n_a": pa.array([per_type[i] for i, _, _ in pairs], pa.int64()),
            "n_b": pa.array([per_type[j] for _, j, _ in pairs], pa.int64()),
            "jaccard_ppm": pa.array(
                [
                    (b * 1_000_000) // (per_type[i] + per_type[j] - b)
                    for i, j, b in pairs
                ],
                pa.int64(),
            ),
        }
    )


def trimmed_value_sums(sf_dir: str, k: int = 5):
    """Rank-trimmed robust aggregate: per event type, the value sum with
    the ``k`` smallest and ``k`` largest observations dropped (trimmed-
    mean ingredients, integer cents; groups with <= 2k rows trim to
    empty, matching the SQL window twin).

    Tie safety: row_number over tied values is arbitrary in SQL, but the
    SUM of the kept multiset is tie-invariant (dropping the k smallest
    VALUES is order-free), so the twin hash-matches with no tie clause.

    Shape: ONE scan emits a tagged per-block partial stream — bottom-k /
    top-k candidate rows plus (sum, count) partials, O(blocks x types x
    (2k+2)) rows total, type-bounded — folded on the driver; block
    bottom-k provably contains the global bottom-k."""
    ev = _read(sf_dir, "events", ["event_type", "value"])

    def partials(t: pa.Table) -> pa.Table:
        et = t["event_type"].to_numpy(zero_copy_only=False)
        vc = pc.cast(_oround(pc.multiply(t["value"], 100.0)), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        order = np.lexsort((vc, et))
        et, vc = et[order], vc[order]
        types, starts = np.unique(et, return_index=True)
        ends = np.append(starts[1:], len(et))
        rows_t, rows_v, rows_tag = [], [], []
        for ty, s, e in zip(types, starts, ends):
            seg = vc[s:e]
            for v in seg[:k]:                      # tag 0: bottom candidates
                rows_t.append(ty); rows_v.append(int(v)); rows_tag.append(0)
            for v in seg[max(e - s - k, 0):]:      # tag 1: top candidates
                rows_t.append(ty); rows_v.append(int(v)); rows_tag.append(1)
            rows_t.append(ty); rows_v.append(int(seg.sum())); rows_tag.append(2)
            rows_t.append(ty); rows_v.append(int(e - s)); rows_tag.append(3)
        return pa.table(
            {
                "event_type": pa.array(rows_t, pa.string()),
                "v": pa.array(rows_v, pa.int64()),
                "tag": pa.array(rows_tag, pa.int64()),
            }
        )

    rows = collect_table(
        ev.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True),
        pa.schema({"event_type": pa.string(), "v": pa.int64(), "tag": pa.int64()}),
    )  # O(blocks x types x (2k+2)), type-bounded

    lo: dict = {}; hi: dict = {}; total: dict = {}; n: dict = {}
    for ty, v, tag in zip(*(c.to_pylist() for c in rows.columns)):
        if tag == 0:
            lo.setdefault(ty, []).append(v)
        elif tag == 1:
            hi.setdefault(ty, []).append(v)
        elif tag == 2:
            total[ty] = total.get(ty, 0) + v
        else:
            n[ty] = n.get(ty, 0) + v
    out_t, out_sum, out_n = [], [], []
    for ty in sorted(total):
        if n[ty] <= 2 * k:
            out_t.append(ty); out_sum.append(0); out_n.append(0)
            continue
        drop = sum(sorted(lo[ty])[:k]) + sum(sorted(hi[ty], reverse=True)[:k])
        out_t.append(ty)
        out_sum.append(total[ty] - drop)
        out_n.append(n[ty] - 2 * k)
    return pa.table(
        {
            "event_type": pa.array(out_t, pa.string()),
            "trimmed_c": pa.array(out_sum, pa.int64()),
            "n_kept": pa.array(out_n, pa.int64()),
        }
    )


def q13_customer_distribution(sf_dir: str):
    """TPC-H Q13 shape: distribution of customers by order count,
    INCLUDING the zero-order bucket (the left-join-then-histogram shape).

    Two dimension-bounded reductions, no join: (1) orders scan -> per-block
    o_custkey count partials -> one groupby-sum = orders per customer
    (rows bounded by |customers|); (2) a per-block histogram of those
    counts -> one tiny groupby (bounded by the max orders-per-customer).
    The zero bucket is arithmetic: |customer| (parquet metadata count)
    minus customers-with-orders — the LEFT JOIN's only contribution,
    computed without shipping the customer table anywhere."""
    n_cust = _read(sf_dir, "customer", ["c_custkey"]).count()  # metadata

    per_cust = grouped_reduce(
        _read(sf_dir, "orders", ["o_custkey"]),
        "o_custkey",
        {"c_orders": ("o_custkey", "count")},
    )
    buckets = _collect_dict(
        grouped_reduce(per_cust, "c_orders", {"n": ("c_orders", "count")}),
        "c_orders",
        "n",
    )  # bounded: max orders-per-customer buckets
    zero = n_cust - sum(buckets.values())
    if zero > 0:  # the LEFT JOIN contributes a 0 bucket only when nonempty
        buckets[0] = zero
    ks = sorted(buckets)
    return pa.table(
        {
            "c_orders": pa.array(ks, pa.int64()),
            "n_custs": pa.array([buckets[k] for k in ks], pa.int64()),
        }
    )


def q17_small_quantity_revenue(sf_dir: str):
    """TPC-H Q17 shape: revenue locked in small-quantity lineitems of one
    brand — lines with l_quantity < 0.2 * avg(l_quantity) for their part.

    The correlated AVG is decided in INTEGERS (5*qty*cnt < sum_qty — no
    float division, no tie ambiguity; quantities are whole numbers) from a
    per-part (sum, count) reduction over the brand-filtered projection,
    which is materialized ONCE (O(brand lines), partkeys ride a broadcast
    id set) and feeds both the stats pass and the final filter; the
    per-part thresholds broadcast back (bounded by |parts in brand|).
    Money in integer cents."""
    from ..stages.dedup import id_set_filter

    part_t = _read(sf_dir, "part", ["p_partkey", "p_brand"]).map_batches(
        lambda t: t.filter(pc.equal(t["p_brand"], "Brand#1")).select(
            ["p_partkey"]
        ),
        batch_format="pyarrow",
    )
    n_parts = _read(sf_dir, "part", ["p_partkey"]).count()  # upper bound
    keep = id_set_filter(
        part_t.map_batches(
            lambda t: t.rename_columns(["l_partkey"]), batch_format="pyarrow"
        ),
        "l_partkey",
        keep=True,
        n_ids=n_parts,
    )

    def project(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_partkey": t["l_partkey"],
                "q": pc.cast(t["l_quantity"], pa.int64()),
                "cents": pc.cast(
                    _oround(pc.multiply(t["l_extendedprice"], 100.0)),
                    pa.int64(),
                ),
            }
        )

    bl = (
        keep(_read(sf_dir, "lineitem", ["l_partkey", "l_quantity", "l_extendedprice"]))
        .map_batches(project, batch_format="pyarrow")
        .materialize()  # O(brand lines); consumed by stats + filter
    )

    ref = _dim_lookup(
        grouped_reduce(bl, "l_partkey", {"s": ("q", "sum"), "c": (None, "count_all")}),
        "l_partkey",
        ["s", "c"],
    )  # bounded: |parts in brand|

    def small_part(t: pa.Table) -> pa.Table:
        # every brand line's part is in the lookup by construction
        _, pos, (s, c) = _dim_probe(ref, t["l_partkey"].to_numpy(zero_copy_only=False))
        q = t["q"].to_numpy(zero_copy_only=False)
        cents = t["cents"].to_numpy(zero_copy_only=False)
        keep_m = 5 * q * c[pos] < s[pos]
        return pa.table(
            {
                "revenue_cents": pa.array(
                    [int(cents[keep_m].sum())], pa.int64()
                ),
                "n_lines": pa.array([int(keep_m.sum())], pa.int64()),
            }
        )

    return _partial_sums(
        bl.map_batches(small_part, batch_format="pyarrow"), ["revenue_cents", "n_lines"]
    )


def _q21_finish(cnt, sf_dir: str) -> pa.Table:
    """Shared q21 tail: attach supplier names, order by (numwait DESC,
    name), top-10 — identical for both tiers. Only suppliers at or above
    the 10th-largest count can place (names break the ties), so only their
    names are fetched: the supplier dimension is SF-scaled."""
    if len(cnt) > 10:
        cnt = cnt[cnt["numwait"] >= cnt["numwait"].nlargest(10).iloc[-1]]
    names = _rows_by_key(
        sf_dir,
        "supplier",
        pa.schema({"s_suppkey": pa.int64(), "s_name": pa.string()}),
        cnt["s_suppkey"].to_numpy(),
    ).to_pandas()
    out = cnt.merge(names, on="s_suppkey", how="inner")
    out = out.sort_values(
        ["numwait", "s_name"], ascending=[False, True]
    ).head(10)
    return pa.table(
        {
            "s_name": pa.array(out["s_name"].tolist(), pa.string()),
            "numwait": pa.array(out["numwait"].tolist(), pa.int64()),
        }
    )


# Up to this many lineitem rows Q21 folds its collected per-block partials
# on the driver: the Ray groupby exchange costs ~5 s fixed on the ~600k-row
# sf0.1 pair stream, the driver fold ~0.5 s.
Q21_DRIVER_TIER_MAX_ROWS = 20_000_000


def q21_waiting_suppliers(sf_dir: str):
    """TPC-H Q21 shape: suppliers who were the ONLY late shipper in a
    multi-supplier order (late = latest line ships > 60 days after the
    order date, the late_shipment_priority convention), top-10 by count.

    The multi-EXISTS is rewritten as two keyed reductions over ONE thinned
    pair stream: lineitem pre-aggregates per block into (orderkey, suppkey)
    max-shipdate partials on a PACKED int64 key (range-checked loudly, the
    canonical_docs convention) -> one native groupby-max -> the order date
    attaches via the size-guarded lookup join -> per-order (n_suppliers,
    n_late) fold decides the Q21 predicate (EXISTS other supplier AND NOT
    EXISTS other late supplier == n_supp >= 2 AND n_late == 1) -> winning
    orders' late pairs count per supplier (|suppliers|-bounded) and the
    25-to-10k-row supplier name table broadcasts last.

    Below ``Q21_DRIVER_TIER_MAX_ROWS`` lineitem rows (parquet metadata, no
    scan) the two global reductions run as ONE pyarrow group_by over the
    collected per-block partials instead — the leakage_safe_split /
    connected-components size-gated driver-tier convention.  The Ray
    sort-shuffle groupby pays ~5 s of fixed exchange cost on a ~600k-row
    nearly-all-unique pair stream where the driver fold is ~0.5 s
    (measured at sf0.1: 8.5 -> 2.4 s); outputs are identical (pytest
    pins both tiers against each other and the oracle)."""
    from ..stages.dedup import id_set_filter
    from ..stages.joins import broadcast_lookup_join

    SUPP_BITS = 20

    def pair_premax(t: pa.Table) -> pa.Table:
        ok = t["l_orderkey"].to_numpy(zero_copy_only=False)
        sk = t["l_suppkey"].to_numpy(zero_copy_only=False)
        if len(ok) and (
            sk.min() < 0
            or sk.max() >= (1 << SUPP_BITS)
            or ok.min() < 0
            or ok.max() >= (1 << (63 - SUPP_BITS))
        ):
            raise ValueError("q21: key out of packed (orderkey, suppkey) range")
        g = (
            pa.table(
                {
                    "pk": pa.array((ok << SUPP_BITS) | sk),
                    "ship_us": pc.cast(t["l_shipdate"], pa.int64()),
                }
            )
            .group_by(["pk"])
            .aggregate([("ship_us", "max")])
        )
        return g.rename_columns(["pk", "ship_us"])

    late_us = 60 * 86_400 * 1_000_000
    n_lineitem = _read(sf_dir, "lineitem", ["l_orderkey"]).count()  # metadata
    if n_lineitem <= Q21_DRIVER_TIER_MAX_ROWS:
        part = collect_table(
            _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_shipdate"])
            .map_batches(pair_premax, batch_format="pyarrow", zero_copy_batch=True),
            pa.schema({"pk": pa.int64(), "ship_us": pa.int64()}),
        )
        g = part.group_by(["pk"]).aggregate([("ship_us", "max")])
        pk = g["pk"].to_numpy(zero_copy_only=False)
        max_ship = g["ship_us_max"].to_numpy(zero_copy_only=False)
        ot = collect_table(
            _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"]),
            pa.schema({"o_orderkey": pa.int64(), "o_orderdate": pa.timestamp("us")}),
        )
        okeys = ot["o_orderkey"].to_numpy(zero_copy_only=False)
        ous = pc.cast(ot["o_orderdate"], pa.int64()).to_numpy(
            zero_copy_only=False
        )
        order = np.argsort(okeys)
        okeys_s, ous_s = okeys[order], ous[order]
        ok_col = pk >> SUPP_BITS
        sk_col = pk & ((1 << SUPP_BITS) - 1)
        pos = np.searchsorted(okeys_s, ok_col)
        if len(ok_col) and (
            (pos >= len(okeys_s)).any() or (okeys_s[pos] != ok_col).any()
        ):
            raise ValueError("q21: lineitem order key missing from orders")
        late = max_ship > (ous_s[pos] + late_us)
        f = pa.table(
            {
                "o": pa.array(ok_col),
                "one": pa.array(np.ones(len(ok_col), np.int64)),
                "late": pa.array(late.astype(np.int64)),
            }
        )
        po = f.group_by(["o"]).aggregate([("one", "sum"), ("late", "sum")])
        o_k = po["o"].to_numpy(zero_copy_only=False)
        n_supp = po["one_sum"].to_numpy(zero_copy_only=False)
        n_late = po["late_sum"].to_numpy(zero_copy_only=False)
        winners = np.sort(o_k[(n_supp >= 2) & (n_late == 1)])
        wpos = np.searchsorted(winners, ok_col)
        in_w = (wpos < len(winners)) & (
            winners[np.minimum(wpos, max(len(winners) - 1, 0))] == ok_col
        ) if len(winners) else np.zeros(len(ok_col), bool)
        uk, uc = np.unique(sk_col[late & in_w], return_counts=True)
        import pandas as pd

        return _q21_finish(
            pd.DataFrame(
                {
                    "s_suppkey": uk.astype(np.int64),
                    "numwait": uc.astype(np.int64),
                }
            ),
            sf_dir,
        )

    pairs = (
        _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_shipdate"])
        .map_batches(pair_premax, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("pk")
        .max("ship_us", ignore_nulls=True)
        .map_batches(
            lambda t: pa.table(
                {
                    "o_orderkey": pc.shift_right(t["pk"], SUPP_BITS),
                    "suppkey": pc.bit_wise_and(
                        t["pk"], pa.scalar((1 << SUPP_BITS) - 1, pa.int64())
                    ),
                    "max_ship_us": t["max(ship_us)"],
                }
            ),
            batch_format="pyarrow",
        )
    )
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"]).map_batches(
        lambda t: pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "ord_us": pc.cast(t["o_orderdate"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    n_orders = _read(sf_dir, "orders", ["o_orderkey"]).count()  # metadata
    flagged = broadcast_lookup_join(
        pairs, orders, on="o_orderkey", right_count=n_orders
    ).map_batches(
        lambda t: pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "suppkey": t["suppkey"],
                "late": pc.cast(
                    pc.greater(
                        t["max_ship_us"],
                        pc.add(t["ord_us"], pa.scalar(late_us, pa.int64())),
                    ),
                    pa.int64(),
                ),
            }
        ),
        batch_format="pyarrow",
    ).materialize()  # O(order x supplier pairs); consumed twice below

    per_order = grouped_reduce(
        flagged,
        "o_orderkey",
        {"n_supp": (None, "count_all"), "n_late": ("late", "sum")},
    )
    winners = per_order.map_batches(
        lambda t: t.filter(
            pc.and_(
                pc.greater_equal(t["n_supp"], 2),
                pc.equal(t["n_late"], 1),
            )
        ).select(["o_orderkey"]),
        batch_format="pyarrow",
    )
    keep = id_set_filter(winners, "o_orderkey", keep=True, n_ids=n_orders)

    cnt = collect_table(
        grouped_reduce(
            keep(flagged).map_batches(
                lambda t: t.filter(pc.equal(t["late"], 1)), batch_format="pyarrow"
            ),
            "suppkey",
            {"n": ("suppkey", "count")},
        ),
        pa.schema({"suppkey": pa.int64(), "n": pa.int64()}),
    )  # bounded: |suppliers|
    return _q21_finish(cnt.rename_columns(["s_suppkey", "numwait"]).to_pandas(), sf_dir)


def q22_idle_balance(sf_dir: str):
    """TPC-H Q22 shape: acquisition targets — customers whose account
    balance is strictly above the average POSITIVE balance but who have
    never ordered, counted + summed per market segment (the phone-prefix
    grouping of real Q22 mapped onto the mktsegment column this corpus
    has). Money in integer cents; the above-average predicate is decided
    in integers (cents * n_pos > sum_pos — no float division).

    Shape: one customer scan materializes the 3-column projection (spills
    to the object store, never the driver); the global (sum, n) of
    positive balances folds from per-block partials; the NOT-EXISTS side
    pre-dedupes o_custkey per block and routes through the size-guarded
    id anti-join (bounded by |customers|); the segment rollup shuffles
    |segments|-bounded partials."""
    from ..stages.dedup import id_set_filter

    cust = (
        _read(sf_dir, "customer", ["c_custkey", "c_acctbal", "c_mktsegment"])
        .map_batches(
            lambda t: pa.table(
                {
                    "c_custkey": t["c_custkey"],
                    "cents": pc.cast(
                        _oround(pc.multiply(t["c_acctbal"], 100.0)), pa.int64()
                    ),
                    "c_mktsegment": t["c_mktsegment"],
                }
            ),
            batch_format="pyarrow",
        )
        .materialize()  # 3 thin columns; consumed by stats + filter
    )

    def pos_part(t: pa.Table) -> pa.Table:
        pos = t.filter(pc.greater(t["cents"], 0))
        return pa.table(
            {
                "s": pa.array([pc.sum(pos["cents"]).as_py() or 0], pa.int64()),
                "n": pa.array([pos.num_rows], pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    agg = cust.map_batches(pos_part, batch_format="pyarrow").aggregate(
        Sum("s"), Sum("n")
    )
    s_pos, n_pos = int(agg["sum(s)"] or 0), int(agg["sum(n)"] or 0)

    eligible = cust.map_batches(
        lambda t: t.filter(
            pc.greater(pc.multiply(t["cents"], pa.scalar(n_pos, pa.int64())), s_pos)
        ),
        batch_format="pyarrow",
    )

    def cust_dedupe(t: pa.Table) -> pa.Table:
        g = t.select(["o_custkey"]).group_by(["o_custkey"]).aggregate([])
        return g.rename_columns(["c_custkey"])

    buyers = (
        _read(sf_dir, "orders", ["o_custkey"])
        .map_batches(cust_dedupe, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("c_custkey")
        .count()
        .select_columns(["c_custkey"])
    )
    n_cust = _read(sf_dir, "customer", ["c_custkey"]).count()  # bound
    drop = id_set_filter(buyers, "c_custkey", keep=False, n_ids=n_cust)

    # 0-row Datasets lose their schema (CLAUDE.md): always hand back a
    # schema-bearing table — the driver testdata's every-customer-ordered
    # regime hits this; the idle regime is pinned by a planted pytest
    return collect_table(
        grouped_reduce(
            drop(eligible),
            "c_mktsegment",
            {"n_custs": (None, "count_all"), "balance_cents": ("cents", "sum")},
        ),
        pa.schema(
            {"c_mktsegment": pa.string(), "n_custs": pa.int64(), "balance_cents": pa.int64()}
        ),
    ).sort_by("c_mktsegment")


# --------------------------------------------------------------------------
# TPC-H completion sweep (round 4): the remaining Q* shapes, adapted to the
# driver schema (no partsupp table; no shipmode/commitdate/container/phone
# columns — each docstring names its stand-in predicate). All oracle-exact.
# --------------------------------------------------------------------------


def _dim_lookup(ds, key_col: str, attr_cols, budget: int = 4_000_000):
    """Collect a KEY-UNIQUE bounded dimension slice and broadcast it as
    (sorted keys, attr arrays) for map-side searchsorted membership FLAGS /
    enrichment — the flag-sibling of ``dedup.id_set_filter`` (which only
    filters rows). Loud failure above ``budget``: at 100 TB a caller must
    pre-thin the slice (brand/type predicates) under the budget or restate
    the query as a distributed join. Returns a ``ray.put`` ref of
    ``(int64 keys_sorted, [attr arrays in attr_cols order])``; each attr
    array keeps its column's Arrow type (strings as object arrays)."""
    import ray

    t = collect_table(ds)
    if t.num_rows > budget:
        raise ValueError(
            f"_dim_lookup: {t.num_rows} rows exceed the {budget} broadcast "
            "budget — pre-thin the dimension slice or use a distributed join"
        )
    if not t.num_rows:  # a 0-row Dataset may carry no columns at all
        return ray.put((np.empty(0, np.int64), [np.empty(0, np.int64) for _ in attr_cols]))
    keys = pc.cast(t[key_col], pa.int64()).to_numpy()
    order = np.argsort(keys)
    keys = keys[order]
    if len(keys) > 1 and (keys[1:] == keys[:-1]).any():
        raise ValueError(f"_dim_lookup: {key_col} is not unique")
    attrs = [
        t[c].to_numpy(zero_copy_only=False)[order] for c in attr_cols
    ]
    return ray.put((keys, attrs))


def _dim_probe(ref, key_arr):
    """searchsorted probe of a ``_dim_lookup`` broadcast: returns
    (member_mask, positions) — positions only valid where member_mask."""
    import ray

    keys, attrs = ray.get(ref)
    if len(keys) == 0:
        return np.zeros(len(key_arr), dtype=bool), np.zeros(len(key_arr), np.int64), attrs
    pos = np.minimum(np.searchsorted(keys, key_arr), len(keys) - 1)
    return keys[pos] == key_arr, pos, attrs


def q6_forecast_revenue(sf_dir: str):
    """TPC-H Q6: forecast revenue — sum(extendedprice * discount) over one
    ship year, a discount band and a quantity cap. The canonical
    filter-aggregate: ONE pruned scan, per-block 1-row partials, zero
    shuffle. Discount decided in integer percent (round(disc*100) in
    [5, 7]), money in integer centi-cents (cents x pct) so the sum is
    bit-deterministic at any block count."""

    def partial(t: pa.Table) -> pa.Table:
        base_c = pc.cast(_oround(pc.multiply(t["l_extendedprice"], 100.0)), pa.int64())
        disc_pct = pc.cast(_oround(pc.multiply(t["l_discount"], 100.0)), pa.int64())
        yr = pc.year(t["l_shipdate"])
        qty = t["l_quantity"].to_numpy(zero_copy_only=False)
        keep = (
            (yr.to_numpy(zero_copy_only=False) == 1996)
            & (qty < 24)
        )
        dp = disc_pct.to_numpy(zero_copy_only=False)
        keep &= (dp >= 5) & (dp <= 7)
        rev = base_c.to_numpy(zero_copy_only=False)[keep] * dp[keep]
        return pa.table(
            {
                "revenue_centicents": pa.array([int(rev.sum())], pa.int64()),
                "n_lines": pa.array([int(keep.sum())], pa.int64()),
            }
        )

    return _partial_sums(
        _read(
            sf_dir,
            "lineitem",
            ["l_extendedprice", "l_discount", "l_shipdate", "l_quantity"],
        ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["revenue_centicents", "n_lines"],
    )


def q14_promo_effect(sf_dir: str):
    """TPC-H Q14: promotion effect — PROMO-typed parts' share of one ship
    month's revenue, in integer ppm ((promo * 1e6) // total; both operands
    non-negative so DuckDB trunc == numpy floor).

    The promo part-key set rides a `_dim_lookup` broadcast (bounded:
    the PROMO slice of the part dimension, loud over budget) and every
    lineitem batch flags map-side — no part join ships the fact stream.
    Money in integer centi-cents."""

    ref = _dim_lookup(
        _read(sf_dir, "part", ["p_partkey", "p_type"]).map_batches(
            lambda t: t.filter(pc.equal(t["p_type"], "PROMO")).select(
                ["p_partkey"]
            ),
            batch_format="pyarrow",
        ),
        "p_partkey",
        [],
    )

    def partial(t: pa.Table) -> pa.Table:
        yr = pc.year(t["l_shipdate"]).to_numpy(zero_copy_only=False)
        mo = pc.month(t["l_shipdate"]).to_numpy(zero_copy_only=False)
        keep = (yr == 1996) & (mo == 3)
        cc = _rev_cc(t).to_numpy(zero_copy_only=False)[keep]
        pk = t["l_partkey"].to_numpy(zero_copy_only=False)[keep]
        member, _, _ = _dim_probe(ref, pk)
        return pa.table(
            {
                "promo_cc": pa.array([int(cc[member].sum())], pa.int64()),
                "total_cc": pa.array([int(cc.sum())], pa.int64()),
                "n": pa.array([int(keep.sum())], pa.int64()),
            }
        )

    s = _partial_sums(
        _read(
            sf_dir,
            "lineitem",
            ["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"],
        ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["promo_cc", "total_cc", "n"],
    )
    promo, total = s["promo_cc"][0].as_py(), s["total_cc"][0].as_py()
    return pa.table(
        {
            "promo_centicents": s["promo_cc"],
            "total_centicents": s["total_cc"],
            "promo_share_ppm": pa.array(
                [(promo * 1_000_000) // total if total > 0 else 0], pa.int64()
            ),
            "n_lines": s["n"],
        }
    )


def q19_discount_revenue(sf_dir: str):
    """TPC-H Q19: discounted revenue under a DISJUNCTION of three
    (brand, size-range, quantity-range) conjunctions (p_size stands in
    for the absent p_container), discount band [5, 7] integer percent.

    The three brands' (partkey -> brand class, size) slice broadcasts via
    `_dim_lookup`; each lineitem batch resolves the whole disjunction
    vectorized map-side. ONE fact scan, zero shuffle, money in integer
    centi-cents."""

    brands = ["Brand#3", "Brand#5", "Brand#7"]

    def prep_part(t: pa.Table) -> pa.Table:
        b = t["p_brand"].to_numpy(zero_copy_only=False)
        cls = np.full(len(b), -1, np.int64)
        for i, name in enumerate(brands):
            cls[b == name] = i
        keep = cls >= 0
        return pa.table(
            {
                "p_partkey": pc.cast(t["p_partkey"], pa.int64()).filter(
                    pa.array(keep)
                ),
                "cls": pa.array(cls[keep]),
                "size": pc.cast(t["p_size"], pa.int64()).filter(pa.array(keep)),
            }
        )

    ref = _dim_lookup(
        _read(sf_dir, "part", ["p_partkey", "p_brand", "p_size"]).map_batches(
            prep_part, batch_format="pyarrow"
        ),
        "p_partkey",
        ["cls", "size"],
    )
    qty_lo = np.array([1, 10, 20], np.int64)
    qty_hi = np.array([11, 20, 30], np.int64)
    size_hi = np.array([5, 10, 15], np.int64)

    def partial(t: pa.Table) -> pa.Table:
        pk = t["l_partkey"].to_numpy(zero_copy_only=False)
        member, pos, attrs = _dim_probe(ref, pk)
        cls = np.where(member, attrs[0][pos], 0)
        size = np.where(member, attrs[1][pos], 0)
        qty = pc.cast(_oround(t["l_quantity"]), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        disc_pct = pc.cast(
            _oround(pc.multiply(t["l_discount"], 100.0)), pa.int64()
        ).to_numpy(zero_copy_only=False)
        keep = (
            member
            & (disc_pct >= 5)
            & (disc_pct <= 7)
            & (qty >= qty_lo[cls])
            & (qty <= qty_hi[cls])
            & (size >= 1)
            & (size <= size_hi[cls])
        )
        base_c = pc.cast(
            _oround(pc.multiply(t["l_extendedprice"], 100.0)), pa.int64()
        ).to_numpy(zero_copy_only=False)
        cc = (base_c * (100 - disc_pct))[keep]
        return pa.table(
            {
                "revenue_centicents": pa.array([int(cc.sum())], pa.int64()),
                "n_lines": pa.array([int(keep.sum())], pa.int64()),
            }
        )

    return _partial_sums(
        _read(
            sf_dir,
            "lineitem",
            ["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
        ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["revenue_centicents", "n_lines"],
    )


def q10_returned_items(sf_dir: str):
    """TPC-H Q10: top-20 customers by revenue lost to returned items
    (l_returnflag = 'R') for orders placed in one quarter.

    Shape: the return-flagged fact stream rides ONE size-guarded lookup
    join against the quarter-filtered orders slice (orderkey -> custkey;
    broadcast at this sf, distributed hash join above the budget), then
    per-block (custkey -> cc) partials feed a single native groupby-sum —
    only |returning customers| rows ever shuffle. Names attach AFTER
    aggregation on the bounded result (customer lookup join + 25-row
    nation broadcast). Money in integer centi-cents; ties broken by
    c_custkey so the top-20 is deterministic."""
    from ..stages.joins import broadcast_lookup_join

    q_lo = np.datetime64("1996-01-01")
    q_hi = np.datetime64("1996-04-01")

    def prep_orders(t: pa.Table) -> pa.Table:
        od = t["o_orderdate"].to_numpy(zero_copy_only=False)
        keep = (od >= q_lo) & (od < q_hi)
        return pa.table(
            {
                "l_orderkey": t["o_orderkey"].filter(pa.array(keep)),
                "o_custkey": t["o_custkey"].filter(pa.array(keep)),
            }
        )

    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(prep_orders, batch_format="pyarrow", zero_copy_batch=True)
    n_orders = _read(sf_dir, "orders", ["o_orderkey"]).count()  # upper bound

    def prep_li(t: pa.Table) -> pa.Table:
        keep = pc.equal(t["l_returnflag"], "R")
        return pa.table(
            {"l_orderkey": t["l_orderkey"], "cc": _rev_cc(t)}
        ).filter(keep)

    li = _read(
        sf_dir,
        "lineitem",
        ["l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"],
    ).map_batches(prep_li, batch_format="pyarrow", zero_copy_batch=True)
    n_li = _read(sf_dir, "lineitem", ["l_orderkey"]).count()
    joined = broadcast_lookup_join(
        li, orders, on="l_orderkey", right_count=n_orders, left_count=n_li
    )

    per_cust = grouped_reduce(joined, "o_custkey", {"cc": ("cc", "sum")})

    # block-local top-20 partials over the per-customer aggregate (the
    # aggregate is |returning customers| — fact-scaled at 100 TB, so only
    # O(blocks x 20) rows may reach the final exchange, weighted_sample
    # convention), then one tiny global sort+limit; dimension attributes
    # attach to the <=20 winners only via an id-set-filtered scan.
    def top_partial(t: pa.Table) -> pa.Table:
        if t.num_rows > 20:
            order = pc.sort_indices(
                t,
                sort_keys=[("cc", "descending"), ("o_custkey", "ascending")],
            )
            t = t.take(order[:20])
        return t

    top = collect_table(
        per_cust.map_batches(top_partial, batch_format="pyarrow")
        .sort(["cc", "o_custkey"], descending=[True, False])
        .limit(20),
        pa.schema({"o_custkey": pa.int64(), "cc": pa.int64()}),
    ).sort_by([("cc", "descending"), ("o_custkey", "ascending")])
    c = _rows_by_key(
        sf_dir,
        "customer",
        pa.schema(
            {"c_custkey": pa.int64(), "c_name": pa.string(),
             "c_acctbal": pa.float64(), "c_nationkey": pa.int64()}
        ),
        top["o_custkey"],
    )  # <= 20 rows
    nname = _dim_map(sf_dir, "nation", "n_nationkey", "n_name")
    return pa.table(
        {
            "c_custkey": top["o_custkey"],
            "c_name": c["c_name"],
            "revenue_centicents": top["cc"],
            "acctbal_cents": pc.cast(_oround(pc.multiply(c["c_acctbal"], 100.0)), pa.int64()),
            "n_name": pa.array([nname[k] for k in c["c_nationkey"].to_pylist()], pa.string()),
        }
    )


def q12_priority_classes(sf_dir: str):
    """TPC-H Q12 shape: lines that shipped LATE (> 30 days after the order
    date — the repo's late convention, standing in for the absent
    commit/receipt dates) in one ship year, counted per l_returnflag
    (standing in for the absent l_shipmode) and split into high-priority
    ('1-URGENT'/'2-HIGH') vs low-priority orders.

    Shape: one size-guarded lookup join (orderkey -> orderdate+priority),
    per-block (flag -> high, low) partials, a 3-row groupby-sum."""
    from ..stages.joins import broadcast_lookup_join

    def prep_orders(t: pa.Table) -> pa.Table:
        pr = t["o_orderpriority"].to_numpy(zero_copy_only=False)
        high = ((pr == "1-URGENT") | (pr == "2-HIGH")).astype(np.int64)
        return pa.table(
            {
                "l_orderkey": t["o_orderkey"],
                "odate": t["o_orderdate"],
                "high": pa.array(high),
            }
        )

    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_orderpriority"]
    ).map_batches(prep_orders, batch_format="pyarrow", zero_copy_batch=True)
    n_orders = _read(sf_dir, "orders", ["o_orderkey"]).count()

    def prep_li(t: pa.Table) -> pa.Table:
        sd = t["l_shipdate"].to_numpy(zero_copy_only=False)
        keep = (sd >= np.datetime64("1996-01-01")) & (
            sd < np.datetime64("1997-01-01")
        )
        return pa.table(
            {
                "l_orderkey": t["l_orderkey"].filter(pa.array(keep)),
                "l_returnflag": t["l_returnflag"].filter(pa.array(keep)),
                "sdate": t["l_shipdate"].filter(pa.array(keep)),
            }
        )

    li = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_returnflag", "l_shipdate"]
    ).map_batches(prep_li, batch_format="pyarrow", zero_copy_batch=True)
    n_li = _read(sf_dir, "lineitem", ["l_orderkey"]).count()
    joined = broadcast_lookup_join(
        li, orders, on="l_orderkey", right_count=n_orders, left_count=n_li
    )

    def late_lines(t: pa.Table) -> pa.Table:
        sd = t["sdate"].to_numpy(zero_copy_only=False)
        od = t["odate"].to_numpy(zero_copy_only=False)
        late = sd > od + np.timedelta64(30, "D")
        high = t["high"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "l_returnflag": t["l_returnflag"].filter(pa.array(late)),
                "high": pa.array(high[late]),
                "low": pa.array(1 - high[late]),
            }
        )

    return collect_table(
        grouped_reduce(
            joined.map_batches(late_lines, batch_format="pyarrow"),
            "l_returnflag",
            {"high_line_count": ("high", "sum"), "low_line_count": ("low", "sum")},
        ),
        pa.schema(
            {"l_returnflag": pa.string(),
             "high_line_count": pa.int64(), "low_line_count": pa.int64()}
        ),
    ).sort_by("l_returnflag")


def q15_top_supplier(sf_dir: str):
    """TPC-H Q15: the supplier(s) with MAX revenue over one ship quarter
    (the revenue view is the per-supplier aggregate; the correlated
    max-subquery resolves as a global scalar over the bounded aggregate).

    Shape: per-block (suppkey -> cc) partials -> |suppliers|-bounded
    groupby-sum -> driver-side max + equality filter (ties all returned,
    as in the spec) -> names via the supplier dimension. Money in integer
    centi-cents."""
    q_lo = np.datetime64("1996-01-01")
    q_hi = np.datetime64("1996-04-01")

    def prep_li(t: pa.Table) -> pa.Table:
        sd = t["l_shipdate"].to_numpy(zero_copy_only=False)
        keep = (sd >= q_lo) & (sd < q_hi)
        return pa.table({"l_suppkey": t["l_suppkey"], "cc": _rev_cc(t)}).filter(
            pa.array(keep)
        )

    per_supp = grouped_reduce(
        _read(
            sf_dir,
            "lineitem",
            ["l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
        ).map_batches(prep_li, batch_format="pyarrow", zero_copy_batch=True),
        "l_suppkey",
        {"cc": ("cc", "sum")},
    ).materialize()  # supplier-scaled aggregate, consumed twice below
    if per_supp.count() == 0:
        return pa.table(
            {
                "s_suppkey": pa.array([], pa.int64()),
                "s_name": pa.array([], pa.string()),
                "total_revenue_centicents": pa.array([], pa.int64()),
            }
        )
    # the correlated max-subquery: a native scalar max over the aggregate,
    # then a map-side equality filter — only the winner rows reach the
    # driver (the per-supplier aggregate itself never does; at 100 TB the
    # supplier dimension is SF-scaled)
    best = int(per_supp.max("cc"))
    winners = np.sort(
        collect_table(
            per_supp.map_batches(
                lambda t: t.filter(pc.equal(t["cc"], best)), batch_format="pyarrow"
            ),
            pa.schema({"l_suppkey": pa.int64()}),
        )["l_suppkey"].to_numpy()
    )
    # names attach to the (tiny) winner set only
    t = _rows_by_key(
        sf_dir, "supplier", pa.schema({"s_suppkey": pa.int64(), "s_name": pa.string()}), winners
    )
    return t.append_column(
        "total_revenue_centicents", pa.array([best] * t.num_rows, pa.int64())
    )


def q8_market_share(sf_dir: str):
    """TPC-H Q8: one nation's market share (integer ppm) of ASIA-region
    customers' STANDARD-part order volume, per order year (1996/1997).

    Shape: the STANDARD part-key set prunes the fact stream through the
    size-guarded ``id_set_filter`` semi-join (broadcast here, distributed
    join over budget — the q17 convention); supplier nation and the
    ASIA-filtered year-tagged orders dimension attach via two size-guarded
    lookup joins (the Q7 plan). Per-block (year -> nation_cc, total_cc)
    partials mean only |years| rows reach the driver. Money in integer
    centi-cents; share = (num * 1e6) // den, both non-negative so DuckDB
    trunc == numpy floor."""
    import ray

    from ..stages.dedup import id_set_filter
    from ..stages.joins import broadcast_lookup_join

    asia_ref = ray.put(_region_nations(sf_dir, "ASIA"))
    target_nat = [
        k for k, v in _dim_map(sf_dir, "nation", "n_nationkey", "n_name").items()
        if v == "NATION_5"
    ][0]

    # ASIA-customer, year-tagged orders dimension (o_orderkey -> year)
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(
        lambda t: pa.table(
            {
                "o_custkey": t["c_custkey"],
                "c_nat": pc.cast(t["c_nationkey"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    n_cust = _read(sf_dir, "customer", ["c_custkey"]).count()
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])
    n_orders = _read(sf_dir, "orders", ["o_orderkey"]).count()

    def filter_orders(t: pa.Table) -> pa.Table:
        yr = pc.year(t["o_orderdate"]).to_numpy(zero_copy_only=False)
        cn = t["c_nat"].to_numpy(zero_copy_only=False)
        nats = ray.get(asia_ref)
        pos = np.minimum(np.searchsorted(nats, cn), len(nats) - 1)
        keep = (nats[pos] == cn) & ((yr == 1996) | (yr == 1997))
        return pa.table(
            {
                "o_orderkey": t["o_orderkey"].filter(pa.array(keep)),
                "o_year": pa.array(yr[keep].astype(np.int64)),
            }
        )

    ords = broadcast_lookup_join(
        orders, cust, on="o_custkey", right_count=n_cust, left_count=n_orders
    ).map_batches(filter_orders, batch_format="pyarrow")

    # STANDARD-part prune of the fact stream (q17 semi-join convention)
    std_parts = _read(sf_dir, "part", ["p_partkey", "p_type"]).map_batches(
        lambda t: t.filter(pc.equal(t["p_type"], "STANDARD"))
        .select(["p_partkey"])
        .rename_columns(["l_partkey"]),
        batch_format="pyarrow",
    )
    n_parts = _read(sf_dir, "part", ["p_partkey"]).count()
    keep_std = id_set_filter(std_parts, "l_partkey", keep=True, n_ids=n_parts)

    def prep_li(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_partkey": t["l_partkey"],
                "l_suppkey": t["l_suppkey"],
                "o_orderkey": t["l_orderkey"],
                "cc": _rev_cc(t),
            }
        )

    li = keep_std(
        _read(
            sf_dir,
            "lineitem",
            ["l_partkey", "l_suppkey", "l_orderkey", "l_extendedprice", "l_discount"],
        )
    ).map_batches(prep_li, batch_format="pyarrow")
    n_li = _read(sf_dir, "lineitem", ["l_orderkey"]).count()

    supp, n_supp = _supplier_nations(sf_dir)
    li = broadcast_lookup_join(
        li, supp, on="l_suppkey", right_count=n_supp, left_count=n_li
    )
    li = broadcast_lookup_join(
        li, ords, on="o_orderkey", right_count=n_orders, left_count=n_li
    )

    def year_partials(t: pa.Table) -> pa.Table:
        yr = t["o_year"].to_numpy(zero_copy_only=False)
        cc = t["cc"].to_numpy(zero_copy_only=False)
        sn = t["s_nat"].to_numpy(zero_copy_only=False)
        num = np.where(sn == target_nat, cc, 0)
        g = (
            pa.table({"o_year": pa.array(yr), "num": pa.array(num), "cc": pa.array(cc)})
            .group_by(["o_year"])
            .aggregate([("num", "sum"), ("cc", "sum")])
        )
        return g.rename_columns(["o_year", "num", "cc"])

    rows = collect_table(
        li.map_batches(year_partials, batch_format="pyarrow"),
        pa.schema({"o_year": pa.int64(), "num": pa.int64(), "cc": pa.int64()}),
    )  # O(blocks x years)
    acc: dict[int, list[int]] = {}
    for y, num, cc in zip(*(c.to_pylist() for c in rows.columns)):
        a = acc.setdefault(y, [0, 0])
        a[0] += num
        a[1] += cc
    years = sorted(acc)
    return pa.table(
        {
            "o_year": pa.array(years, pa.int64()),
            "nation_centicents": pa.array([acc[y][0] for y in years], pa.int64()),
            "total_centicents": pa.array([acc[y][1] for y in years], pa.int64()),
            "mkt_share_ppm": pa.array(
                [
                    (acc[y][0] * 1_000_000) // acc[y][1] if acc[y][1] > 0 else 0
                    for y in years
                ],
                pa.int64(),
            ),
        }
    )


def q9_product_profit(sf_dir: str):
    """TPC-H Q9: profit on 'red'-prefixed parts (p_name LIKE 'red %'
    stands in for the spec's '%green%'; no partsupp table, so profit is
    the discounted revenue), grouped by supplier nation x order year.

    Shape: the red-part prune rides ``id_set_filter``; supplier nation and
    order year attach via two size-guarded lookup joins; per-block
    partials pack (year, s_nat) into one int64 (the Q7 grid convention)
    so the single native groupby-sum carries only grid-bounded rows; the
    25-row nation name table attaches after aggregation."""
    from ..stages.dedup import id_set_filter
    from ..stages.joins import broadcast_lookup_join

    nname = _nation_names(sf_dir)

    red_parts = _read(sf_dir, "part", ["p_partkey", "p_name"]).map_batches(
        lambda t: t.filter(pc.starts_with(t["p_name"], "red "))
        .select(["p_partkey"])
        .rename_columns(["l_partkey"]),
        batch_format="pyarrow",
    )
    n_parts = _read(sf_dir, "part", ["p_partkey"]).count()
    keep_red = id_set_filter(red_parts, "l_partkey", keep=True, n_ids=n_parts)

    def prep_li(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_partkey": t["l_partkey"],
                "l_suppkey": t["l_suppkey"],
                "o_orderkey": t["l_orderkey"],
                "cc": _rev_cc(t),
            }
        )

    li = keep_red(
        _read(
            sf_dir,
            "lineitem",
            ["l_partkey", "l_suppkey", "l_orderkey", "l_extendedprice", "l_discount"],
        )
    ).map_batches(prep_li, batch_format="pyarrow")
    n_li = _read(sf_dir, "lineitem", ["l_orderkey"]).count()

    supp, n_supp = _supplier_nations(sf_dir)
    ords = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"]).map_batches(
        lambda t: pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "o_year": pc.cast(pc.year(t["o_orderdate"]), pa.int64()),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    n_orders = _read(sf_dir, "orders", ["o_orderkey"]).count()
    li = broadcast_lookup_join(
        li, supp, on="l_suppkey", right_count=n_supp, left_count=n_li
    )
    li = broadcast_lookup_join(
        li, ords, on="o_orderkey", right_count=n_orders, left_count=n_li
    )

    def grid_key(t: pa.Table) -> pa.Table:
        yr = t["o_year"].to_numpy(zero_copy_only=False)
        sn = t["s_nat"].to_numpy(zero_copy_only=False)
        return pa.table({"pk": pa.array((yr << 5) | sn), "cc": t["cc"]})

    t = collect_table(
        grouped_reduce(
            li.map_batches(grid_key, batch_format="pyarrow"),
            "pk",
            {"cc": ("cc", "sum"), "n": ("cc", "count")},
        ),
        pa.schema({"pk": pa.int64(), "cc": pa.int64(), "n": pa.int64()}),
    )  # grid-bounded: |nations| x |years|
    pk = t["pk"].to_numpy()
    return pa.table(
        {
            "nation": pa.array(nname[pk & 31], pa.string()),
            "o_year": pa.array(pk >> 5, pa.int64()),
            "profit_centicents": t["cc"],
            "n_lines": t["n"],
        }
    ).sort_by([("nation", "ascending"), ("o_year", "descending")])


def q2_min_balance_supplier(sf_dir: str):
    """TPC-H Q2 shape: for each size-15 part, the EUROPE supplier(s) that
    shipped it with MIN account balance (s_acctbal stands in for the
    absent partsupp.ps_supplycost; "shipped it" — a distinct
    (part, supplier) pair from lineitem — stands in for partsupp rows).
    Top-100 by balance DESC, nation, supplier, part.

    Shape: size-15 partkeys prune the fact stream (``id_set_filter``);
    supplier balance+nation attach via the size-guarded lookup join;
    per-block multi-col distinct collapses each block to unique pairs,
    then ONE native groupby on the packed (partkey << 31 | suppkey) key
    (multi-col Ray groupby is pathological — CLAUDE.md) dedupes globally.
    The per-part min broadcasts back over the bounded pair aggregate
    (`_dim_lookup` budget guard), and names attach to winners only."""
    import ray

    from ..stages.dedup import id_set_filter
    from ..stages.joins import broadcast_lookup_join

    eu_ref = ray.put(_region_nations(sf_dir, "EUROPE"))

    parts15 = _read(sf_dir, "part", ["p_partkey", "p_size"]).map_batches(
        lambda t: t.filter(pc.equal(t["p_size"], 15))
        .select(["p_partkey"])
        .rename_columns(["l_partkey"]),
        batch_format="pyarrow",
    )
    n_parts = _read(sf_dir, "part", ["p_partkey"]).count()
    keep15 = id_set_filter(parts15, "l_partkey", keep=True, n_ids=n_parts)

    li = keep15(
        _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"])
    )
    n_li = _read(sf_dir, "lineitem", ["l_orderkey"]).count()
    supp = _read(
        sf_dir, "supplier", ["s_suppkey", "s_nationkey", "s_acctbal"]
    ).map_batches(
        lambda t: pa.table(
            {
                "l_suppkey": t["s_suppkey"],
                "s_nat": pc.cast(t["s_nationkey"], pa.int64()),
                "cents": pc.cast(
                    _oround(pc.multiply(t["s_acctbal"], 100.0)), pa.int64()
                ),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    n_supp = _read(sf_dir, "supplier", ["s_suppkey"]).count()
    li = broadcast_lookup_join(
        li, supp, on="l_suppkey", right_count=n_supp, left_count=n_li
    )

    def eu_pairs(t: pa.Table) -> pa.Table:
        sn = t["s_nat"].to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(np.isin(sn, ray.get(eu_ref))))
        pk_arr = t["l_partkey"].to_numpy(zero_copy_only=False)
        sk = t["l_suppkey"].to_numpy(zero_copy_only=False)
        if len(sk) and (sk.max() >= (1 << 31) or pk_arr.max() >= (1 << 31)):
            raise ValueError("q2: key exceeds the 31-bit pack range")
        packed = (pk_arr.astype(np.int64) << 31) | sk.astype(np.int64)
        return pa.table({"pk": pa.array(packed), "cents": t["cents"]})

    pairs = grouped_reduce(
        li.map_batches(eu_pairs, batch_format="pyarrow"),
        "pk",
        {"cents": ("cents", "min")},
    ).materialize()  # bounded: |size-15 parts| x |EU suppliers shipped|

    per_part_min = grouped_reduce(
        pairs.map_batches(
            lambda t: pa.table(
                {
                    "p_partkey": pa.array(
                        t["pk"].to_numpy(zero_copy_only=False) >> 31
                    ),
                    "cents": t["cents"],
                }
            ),
            batch_format="pyarrow",
        ),
        "p_partkey",
        {"min_cents": ("cents", "min")},
    )
    min_ref = _dim_lookup(per_part_min, "p_partkey", ["min_cents"])

    def winners_only(t: pa.Table) -> pa.Table:
        pk = t["pk"].to_numpy(zero_copy_only=False)
        cents = t["cents"].to_numpy(zero_copy_only=False)
        part = pk >> 31
        member, pos, attrs = _dim_probe(min_ref, part)
        if not member.all():
            raise ValueError("q2: pair part missing from min map")
        keep = cents == attrs[0][pos]
        return pa.table(
            {
                "p_partkey": pa.array(part[keep]),
                "s_suppkey": pa.array(pk[keep] & ((1 << 31) - 1)),
                "cents": pa.array(cents[keep]),
            }
        )

    win = collect_table(
        pairs.map_batches(winners_only, batch_format="pyarrow"),
        pa.schema({"p_partkey": pa.int64(), "s_suppkey": pa.int64(), "cents": pa.int64()}),
    )  # output-sized: per-part winners only
    part = _rows_by_key(
        sf_dir, "part", pa.schema({"p_partkey": pa.int64(), "p_name": pa.string()}),
        win["p_partkey"],
    )
    supp = _rows_by_key(
        sf_dir,
        "supplier",
        pa.schema({"s_suppkey": pa.int64(), "s_name": pa.string(), "s_nationkey": pa.int64()}),
        win["s_suppkey"],
    )
    nname = _dim_map(sf_dir, "nation", "n_nationkey", "n_name")
    out = pa.table(
        {
            "acctbal_cents": win["cents"],
            "s_name": supp["s_name"],
            "n_name": pa.array(
                [nname[k] for k in supp["s_nationkey"].to_pylist()], pa.string()
            ),
            "p_partkey": win["p_partkey"],
            "p_name": part["p_name"],
        }
    )
    return out.sort_by(
        [("acctbal_cents", "descending"), ("n_name", "ascending"),
         ("s_name", "ascending"), ("p_partkey", "ascending")]
    ).slice(0, 100)


def q11_important_parts(sf_dir: str):
    """TPC-H Q11 shape: parts whose EUROPE-supplied line value exceeds
    0.1% of the total (value * 1000 > total — integers, no float
    fraction; sum(cc) stands in for the absent ps_supplycost *
    ps_availqty).

    Shape: supplier nation attaches via the size-guarded lookup join;
    per-block (partkey -> cc) partials feed one native part-scaled
    groupby-sum which stays DISTRIBUTED — the global total is a native
    scalar sum over it and the share filter runs map-side, so only the
    <= 999 above-threshold parts (share > 1/1000 caps the winner count)
    reach the driver."""
    import ray

    from ..stages.joins import broadcast_lookup_join

    eu_ref = ray.put(_region_nations(sf_dir, "EUROPE"))

    supp, n_supp = _supplier_nations(sf_dir)
    li = _read(
        sf_dir, "lineitem", ["l_partkey", "l_suppkey", "l_extendedprice", "l_discount"]
    )
    n_li = _read(sf_dir, "lineitem", ["l_partkey"]).count()
    li = broadcast_lookup_join(
        li, supp, on="l_suppkey", right_count=n_supp, left_count=n_li
    )

    def eu_lines(t: pa.Table) -> pa.Table:
        sn = t["s_nat"].to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(np.isin(sn, ray.get(eu_ref))))
        return pa.table({"l_partkey": t["l_partkey"], "cc": _rev_cc(t)})

    per_part = grouped_reduce(
        li.map_batches(eu_lines, batch_format="pyarrow"),
        "l_partkey",
        {"cc": ("cc", "sum")},
    ).materialize()  # part-scaled, consumed twice (total + filter)
    total = int(per_part.sum("cc") or 0)
    win = collect_table(
        per_part.map_batches(
            lambda t: t.filter(
                pc.greater(pc.multiply(t["cc"], pa.scalar(1000, pa.int64())), total)
            ),
            batch_format="pyarrow",
        ),
        pa.schema({"l_partkey": pa.int64(), "cc": pa.int64()}),
    )  # <= 999 rows by construction
    return win.rename_columns(["p_partkey", "value_centicents"]).sort_by(
        [("value_centicents", "descending"), ("p_partkey", "ascending")]
    )


def q16_supplier_part_counts(sf_dir: str):
    """TPC-H Q16 shape: DISTINCT shipping suppliers per (brand, type,
    size) over a size whitelist, excluding one brand, the PROMO type and
    negative-balance suppliers (the complaint stand-in; no partsupp, so
    "supplies" = "shipped at least one line of").

    Shape: the filtered part attributes broadcast via `_dim_lookup`;
    supplier balance attaches via the size-guarded lookup join; per-block
    multi-col distinct collapses blocks, then the global distinct runs on
    ONE packed int64 (grp << 31 | suppkey — CLAUDE.md multi-col groupby
    rule) and a grid-bounded groupby-sum counts suppliers per group."""
    from ray.data.aggregate import Count

    from ..stages.joins import broadcast_lookup_join

    sizes = np.array([1, 5, 9, 14, 19, 23, 36, 45], np.int64)

    # brand/type dictionaries come from the part slice itself (bounded)
    def prep_part(t: pa.Table) -> pa.Table:
        b = t["p_brand"].to_numpy(zero_copy_only=False)
        ty = t["p_type"].to_numpy(zero_copy_only=False)
        sz = pc.cast(t["p_size"], pa.int64()).to_numpy(zero_copy_only=False)
        keep = (b != "Brand#1") & (ty != "PROMO") & np.isin(sz, sizes)
        return pa.table(
            {
                "p_partkey": pc.cast(t["p_partkey"], pa.int64()).filter(
                    pa.array(keep)
                ),
                "p_brand": pa.array(b[keep]),
                "p_type": pa.array(ty[keep]),
                "p_size": pa.array(sz[keep]),
            }
        )

    part_slice = collect_table(
        _read(sf_dir, "part", ["p_partkey", "p_brand", "p_type", "p_size"]).map_batches(
            prep_part, batch_format="pyarrow"
        ),
        pa.schema(
            [
                ("p_partkey", pa.int64()),
                ("p_brand", pa.string()),
                ("p_type", pa.string()),
                ("p_size", pa.int64()),
            ]
        ),
    )
    bvocab = np.array(sorted(set(part_slice["p_brand"].to_pylist())), dtype=object)
    tvocab = np.array(sorted(set(part_slice["p_type"].to_pylist())), dtype=object)
    if len(bvocab) > 64 or len(tvocab) > 16:
        raise ValueError("q16: brand/type dictionary exceeds pack range")
    grp = (
        (np.searchsorted(bvocab, part_slice["p_brand"].to_numpy(zero_copy_only=False)) << 10)
        | (np.searchsorted(tvocab, part_slice["p_type"].to_numpy(zero_copy_only=False)) << 6)
        | part_slice["p_size"].to_numpy()
    )
    import ray.data as rd

    attr_ref = _dim_lookup(
        rd.from_arrow(
            pa.table({"p_partkey": part_slice["p_partkey"], "grp": pa.array(grp, pa.int64())})
        ),
        "p_partkey",
        ["grp"],
    )

    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_acctbal"]).map_batches(
        lambda t: pa.table(
            {
                "l_suppkey": t["s_suppkey"],
                "s_cents": pc.cast(
                    _oround(pc.multiply(t["s_acctbal"], 100.0)), pa.int64()
                ),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    n_supp = _read(sf_dir, "supplier", ["s_suppkey"]).count()
    li = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"])
    n_li = _read(sf_dir, "lineitem", ["l_partkey"]).count()
    li = broadcast_lookup_join(
        li, supp, on="l_suppkey", right_count=n_supp, left_count=n_li
    )

    def pair_partials(t: pa.Table) -> pa.Table:
        member, pos, attrs = _dim_probe(attr_ref, t["l_partkey"].to_numpy(zero_copy_only=False))
        ok = member & (t["s_cents"].to_numpy(zero_copy_only=False) >= 0)
        grp = attrs[0][pos][ok]
        sk = t["l_suppkey"].to_numpy(zero_copy_only=False)[ok]
        if len(sk) and sk.max() >= (1 << 31):
            raise ValueError("q16: suppkey exceeds the 31-bit pack range")
        packed = (grp << 31) | sk.astype(np.int64)
        g = pa.table({"pk": pa.array(np.unique(packed))})
        return g

    distinct_pairs = (
        li.map_batches(pair_partials, batch_format="pyarrow")
        .groupby("pk")
        .aggregate(Count())  # global distinct on the packed key
    )

    t = collect_table(
        grouped_reduce(
            distinct_pairs.map_batches(
                lambda t: pa.table(
                    {"grp": pa.array(t["pk"].to_numpy(zero_copy_only=False) >> 31)}
                ),
                batch_format="pyarrow",
            ),
            "grp",
            {"n": (None, "count_all")},
        ),
        pa.schema({"grp": pa.int64(), "n": pa.int64()}),
    )  # grid-bounded: |brands| x |types| x |sizes|
    g = t["grp"].to_numpy()
    return pa.table(
        {
            "p_brand": pa.array(bvocab[g >> 10], pa.string()),
            "p_type": pa.array(tvocab[(g >> 6) & 15], pa.string()),
            "p_size": pa.array(g & 63, pa.int64()),
            "supplier_cnt": t["n"],
        }
    ).sort_by(
        [("supplier_cnt", "descending"), ("p_brand", "ascending"),
         ("p_type", "ascending"), ("p_size", "ascending")]
    )


def q20_volume_share_suppliers(sf_dir: str):
    """TPC-H Q20 shape: NATION_3 suppliers who shipped MORE THAN 20% of
    some blue-prefixed part's total 1996 quantity (5 * supp_qty >
    part_qty in integers; the nested-IN over partsupp restated as the
    per-(part, supplier) share of the fact stream).

    Shape: blue partkeys prune the fact stream (``id_set_filter``); the
    thinned (part, supp, qty) projection materializes ONCE and feeds both
    the packed-key pair aggregate and the per-part totals; totals
    broadcast back over the pair aggregate (`_dim_lookup` budget guard);
    winner supplier ids are output-sized and names attach to them only."""
    from ..stages.dedup import id_set_filter

    blue = _read(sf_dir, "part", ["p_partkey", "p_name"]).map_batches(
        lambda t: t.filter(pc.starts_with(t["p_name"], "blue "))
        .select(["p_partkey"])
        .rename_columns(["l_partkey"]),
        batch_format="pyarrow",
    )
    n_parts = _read(sf_dir, "part", ["p_partkey"]).count()
    keep_blue = id_set_filter(blue, "l_partkey", keep=True, n_ids=n_parts)

    def project(t: pa.Table) -> pa.Table:
        sd = t["l_shipdate"].to_numpy(zero_copy_only=False)
        keep = (sd >= np.datetime64("1996-01-01")) & (
            sd < np.datetime64("1997-01-01")
        )
        t = t.filter(pa.array(keep))
        return pa.table(
            {
                "l_partkey": t["l_partkey"],
                "l_suppkey": t["l_suppkey"],
                "q": pc.cast(_oround(t["l_quantity"]), pa.int64()),
            }
        )

    bl = (
        keep_blue(
            _read(
                sf_dir, "lineitem", ["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"]
            )
        )
        .map_batches(project, batch_format="pyarrow")
        .materialize()  # O(blue 1996 lines); feeds pairs + totals
    )

    def pack_pair(t: pa.Table) -> pa.Table:
        pk_arr = t["l_partkey"].to_numpy(zero_copy_only=False)
        sk = t["l_suppkey"].to_numpy(zero_copy_only=False)
        if len(sk) and (sk.max() >= (1 << 31) or pk_arr.max() >= (1 << 31)):
            raise ValueError("q20: key exceeds the 31-bit pack range")
        packed = (pk_arr.astype(np.int64) << 31) | sk.astype(np.int64)
        return pa.table({"pk": pa.array(packed), "q": t["q"]})

    pairs = grouped_reduce(
        bl.map_batches(pack_pair, batch_format="pyarrow"), "pk", {"q": ("q", "sum")}
    )
    totals = grouped_reduce(bl, "l_partkey", {"tq": ("q", "sum")})
    tot_ref = _dim_lookup(totals, "l_partkey", ["tq"])

    def winners(t: pa.Table) -> pa.Table:
        pk = t["pk"].to_numpy(zero_copy_only=False)
        sq = t["q"].to_numpy(zero_copy_only=False)
        part = pk >> 31
        member, pos, attrs = _dim_probe(tot_ref, part)
        if not member.all():
            raise ValueError("q20: pair part missing from totals map")
        keep = 5 * sq > attrs[0][pos]
        return pa.table(
            {"s_suppkey": pa.array(np.unique(pk[keep] & ((1 << 31) - 1)))}
        )

    wsupp = np.unique(
        collect_table(
            pairs.map_batches(winners, batch_format="pyarrow"),
            pa.schema({"s_suppkey": pa.int64()}),
        )["s_suppkey"].to_numpy()
    )  # output-sized
    target = [
        k for k, v in _dim_map(sf_dir, "nation", "n_nationkey", "n_name").items()
        if v == "NATION_3"
    ]
    s = _rows_by_key(
        sf_dir,
        "supplier",
        pa.schema({"s_suppkey": pa.int64(), "s_name": pa.string(), "s_nationkey": pa.int64()}),
        wsupp,
    )
    return s.filter(pa.array(np.isin(s["s_nationkey"].to_numpy(), target))).select(
        ["s_suppkey", "s_name"]
    )


# --------------------------------------------------------------------------
# Graph centrality (stages/graph.py) — iterative PageRank family
# --------------------------------------------------------------------------


def pagerank_user_types(sf_dir: str):
    """3-iteration PageRank over the user <-> event-type bipartite graph
    (an undirected edge per DISTINCT (user_id, event_type) pair), integer
    10^12-unit scores with truncating non-negative divisions so the
    unrolled-SQL DuckDB twin hash-matches exactly. Output: every type
    node (node_id = -(vocab rank)) plus the top-20 user nodes by
    (score desc, user_id asc).

    Scale shape (stages/graph.bipartite_pagerank): ONE packed-key distinct
    groupby builds per-user adjacency bitmasks over the <=63-type
    vocabulary; every iteration is then two shuffle-free map passes — a
    k-vector partial reduce to the driver and a broadcast-vector map —
    so user scores never leave the object store. The top-20 finish uses
    block-local top-k partials (O(blocks x 20) exchange rows)."""
    from ..stages.graph import bipartite_pagerank

    ev = _read(sf_dir, "events", ["user_id", "event_type"])
    state, type_scores, vocab, _deg, _n = bipartite_pagerank(
        ev, "user_id", "event_type", iterations=3
    )

    def top_partial(t: pa.Table) -> pa.Table:
        if t.num_rows > 20:
            order = pc.sort_indices(
                t, sort_keys=[("s", "descending"), ("uid", "ascending")]
            )
            t = t.take(order[:20])
        return t.select(["uid", "s"])

    top = collect_table(
        state.map_batches(top_partial, batch_format="pyarrow")
        .sort(["s", "uid"], descending=[True, False])
        .limit(20),
        pa.schema({"uid": pa.int64(), "s": pa.int64()}),
    )
    node_ids = [-(j + 1) for j in range(len(vocab))] + top["uid"].to_pylist()
    units = [int(x) for x in type_scores] + top["s"].to_pylist()
    out = pa.table(
        {
            "node_id": pa.array(node_ids, pa.int64()),
            "pagerank_units": pa.array(units, pa.int64()),
        }
    )
    return out.take(
        pc.sort_indices(
            out,
            sort_keys=[("pagerank_units", "descending"), ("node_id", "ascending")],
        )
    )


def user_type_degree_histogram(sf_dir: str):
    """Degree distribution of the bipartite interaction graph: how many
    users touch exactly d distinct event types. One packed-key distinct
    groupby (the pagerank build's first stage) then two thin native
    count-groupbys — the degree stream is |users| rows, the result <=
    |types| rows."""
    ev = _read(sf_dir, "events", ["user_id", "event_type"])
    vocab_pa = _event_type_vocab(sf_dir)
    bits = max(int(np.ceil(np.log2(max(len(vocab_pa), 2)))), 1)

    def pre(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        if uid.size and (uid.min() < 0 or uid.max() >= (1 << (63 - bits))):
            raise ValueError("user_id out of pack range")
        code = (
            pc.index_in(t["event_type"], value_set=vocab_pa)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        return pa.table({"pk": pa.array(np.unique((uid << bits) | code))})

    pairs = (
        ev.map_batches(pre, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("pk")
        .count()
    )

    def uid_only(t: pa.Table) -> pa.Table:
        pk = t["pk"].to_numpy(zero_copy_only=False)
        return pa.table({"uid": pa.array(pk >> bits)})

    deg = pairs.map_batches(uid_only, batch_format="pyarrow").groupby("uid").count()

    def deg_only(t: pa.Table) -> pa.Table:
        return pa.table({"degree": t["count()"]})

    hist = (
        deg.map_batches(deg_only, batch_format="pyarrow")
        .groupby("degree")
        .count()
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({"degree": t["degree"], "n_users": t["count()"]})

    return hist.map_batches(finish, batch_format="pyarrow").sort("degree")


def events_zorder_head(sf_dir: str):
    """Z-order layout keys over events: the Morton interleave of
    (user_id, event minute) — the locality-preserving sort key that gives
    every block a bounding rectangle in (user, time) space so min/max
    block stats prune range predicates on EITHER dimension at 100 TB
    (functions/zorder.py). Key computation is per-row bit arithmetic
    (zero shuffle); this query surfaces the first 20 rows of the layout
    via block-local top-k partials + one tiny global sort — the oracle
    evaluates the IDENTICAL mask/shift expressions on BIGINT."""
    from ..functions.zorder import morton_key

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def keys(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        minute = (
            pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
            // 60_000_000
        )
        out = pa.table(
            {
                "event_id": t["event_id"],
                "zkey": pa.array(morton_key(uid, minute)),
            }
        )
        if out.num_rows > 20:
            order = pc.sort_indices(
                out, sort_keys=[("zkey", "ascending"), ("event_id", "ascending")]
            )
            out = out.take(order[:20])
        return out

    return (
        ev.map_batches(keys, batch_format="pyarrow", zero_copy_batch=True)
        .sort(["zkey", "event_id"])
        .limit(20)
    )


def embedding_top_component(sf_dir: str):
    """Top principal component of the embeddings table by distributed
    power iteration (stages/linalg.py): per-iteration exchange is
    O(blocks x d) float partials — covariance never materializes. No SQL
    oracle exists for an eigenvector, so accuracy rides in-band (the
    hll_hourly_users convention): `rayleigh_monotone` asserts the power-
    iteration invariant over the run's Rayleigh history, `residual_ratio`
    = ||Cv - lambda*v|| / lambda from one extra verification pass, and
    `within_bound` gates it at 1e-6; pytest pins the loadings against
    numpy.linalg.eigh on the same rows."""
    from ..stages.linalg import covariance_apply, top_principal_component

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    ds = ds.materialize()
    v, eigval, mean, n_rows, hist = top_principal_component(ds)
    w = covariance_apply(ds, mean, v, float(n_rows), "embedding")
    lam = float(v @ w)
    residual = float(np.linalg.norm(w - lam * v)) / max(abs(lam), 1e-300)
    monotone = all(
        b >= a - 1e-9 * max(abs(b), 1.0) for a, b in zip(hist, hist[1:])
    )
    d = len(v)
    return pa.table(
        {
            "dim": pa.array(np.arange(d, dtype=np.int64)),
            "loading": pa.array(np.round(v, 9)),
            "eigval": pa.array(np.full(d, round(eigval, 9))),
            "residual_ratio": pa.array(np.full(d, round(residual, 9))),
            "rayleigh_monotone": pa.array([monotone] * d),
            "within_bound": pa.array([residual <= 1e-6] * d),
            "n_rows": pa.array(np.full(d, n_rows, dtype=np.int64)),
        }
    )


def moments_by_type(sf_dir: str):
    """Grouped exact-moments profile of events.value (integer cents).

    The moments sketch's distributed build, inlined as the library's
    standard per-block pre-agg plan: each block builds int64-exact
    partial-product columns for c²/c³/c⁴ (kernel/moments.power_parts —
    c³ and c⁴ are never materialized per element, so the per-element
    range is the full |cents| ≤ 2³¹−1, ~$21M), sums them per type with
    one Arrow group_by, and ships per-group (a2, a1, a0) base-2^32 limb
    columns through one |types|-bounded Ray groupby-sum.  The finisher
    reconstructs exact Python-int sums, CERTIFIES the 3-limb 2^127
    range post-hoc from the exact n/min/max (certify_total_range — a
    wrap is impossible below n·max|c|⁴ = 2^127: ~10¹⁴ rows at $10k
    magnitude, ~10⁹ at $1M), and derives mean / population variance /
    excess kurtosis with the float64 expression trees the SQL twin
    mirrors token-for-token."""
    from ..kernel.moments import (
        certify_total_range,
        derived_stats,
        limb_double,
        limbs3,
        power_parts,
        unlimbs3,
    )

    ds = _read(sf_dir, "events", ["event_type", "value"])

    def prep(t: pa.Table) -> pa.Table:
        c = pc.cast(_oround(pc.multiply(t["value"], 100.0)), pa.int64())
        cn = c.to_numpy(zero_copy_only=False)
        # min/max form, not np.abs: abs(INT64_MIN) wraps (kernel convention)
        if cn.size and max(-int(cn.min()), int(cn.max())) > 2**31 - 1:
            raise ValueError("moments_by_type: |cents| >= 2^31; rescale unit")
        m32 = np.int64(0xFFFFFFFF)
        p = power_parts(cn)
        # re-split EVERY partial product that can exceed 2^32 per element
        # (p3h/p3l signed <2^63, q1 <2^63, q2 <=2^60) so every Arrow group
        # sum below is int64-exact for any block under 2^31 rows — a q1 of
        # ~9.2e18 per element wraps a 2-row Arrow sum silently (round-5
        # review finding, regression-tested with near-2^31 cents)
        cols = {"event_type": t["event_type"], "c": c}
        for k in ("h2", "l2", "q0h", "q0l"):
            cols[k] = pa.array(p[k])
        for k in ("p3h", "p3l", "q1", "q2"):
            cols[k + "h"] = pa.array(p[k] >> np.int64(32))
            cols[k + "l"] = pa.array(p[k] & m32)
        part_cols = [k for k in cols if k not in ("event_type", "c")]
        g = (
            pa.table(cols)
            .group_by(["event_type"])
            .aggregate(
                [("c", "count"), ("c", "sum"), ("c", "min"), ("c", "max")]
                + [(k, "sum") for k in part_cols]
            )
        )
        g = g.rename_columns(["event_type", "n", "s1", "mn", "mx"] + part_cols)
        v = {k: g[k].to_numpy(zero_copy_only=False) for k in part_cols}
        out = {"event_type": g["event_type"], "n": g["n"],
               "mn": g["mn"], "mx": g["mx"]}
        n_grp = len(g)

        def _join(hi_col, lo_col, i):
            return (int(v[hi_col][i]) << 32) + int(v[lo_col][i])

        # s1 rides the cross-block shuffle as 3-limb columns too: a plain
        # int64 Sum can wrap inside the certified envelope (10^14 rows of
        # 10^6-cent values -> Σc = 10^20 > 2^63; round-5 review finding).
        # The certificate covers it: n·peak ≤ n·peak⁴ < 2^127 for peak ≥ 1.
        sums = {
            "s1": [int(g["s1"][i].as_py()) for i in range(n_grp)],
            "s2": [
                (int(v["h2"][i]) << 32) + int(v["l2"][i]) for i in range(n_grp)
            ],
            "s3": [
                (_join("p3hh", "p3hl", i) << 32) + _join("p3lh", "p3ll", i)
                for i in range(n_grp)
            ],
            "s4": [
                (_join("q2h", "q2l", i) << 64) + (_join("q1h", "q1l", i) << 32)
                + (int(v["q0h"][i]) << 32) + int(v["q0l"][i])
                for i in range(n_grp)
            ],
        }
        try:
            for name, vals in sums.items():
                trips = [limbs3(s) for s in vals]
                for j, part in enumerate(("a2", "a1", "a0")):
                    out[f"{name}_{part}"] = pa.array(
                        np.array([tr[j] for tr in trips], dtype=np.int64)
                    )
        except OverflowError:
            raise ValueError(
                "moments_by_type: per-block power sum exceeds the 3-limb "
                "2^127 range; rescale to a coarser unit"
            ) from None
        return pa.table(out)

    from ray.data.aggregate import Max, Min, Sum

    limb_cols = [
        f"{s}_{p}" for s in ("s1", "s2", "s3", "s4") for p in ("a2", "a1", "a0")
    ]
    agg = (
        ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("event_type")
        .aggregate(
            Sum("n", alias_name="n"),
            Min("mn", alias_name="mn"),
            Max("mx", alias_name="mx"),
            *[Sum(c, alias_name=c) for c in limb_cols],
        )
    )

    def finish(t: pa.Table) -> pa.Table:
        rows = t.to_pylist()
        out = {k: [] for k in (
            "event_type", "n", "sum_c", "min_c", "max_c",
            "sum_c2_d", "sum_c3_d", "sum_c4_d", "mean_c", "var_c", "skew", "kurt",
        )}
        for r in rows:
            certify_total_range(r["n"], r["mn"], r["mx"])
            s1 = unlimbs3(r["s1_a2"], r["s1_a1"], r["s1_a0"])
            if not (-(2**63) <= s1 < 2**63):
                # the OUTPUT column contract is BIGINT (mirrors the SQL
                # twin, whose CAST(sum(c) AS BIGINT) also refuses here);
                # the limbed shuffle computed s1 exactly — it is only the
                # readout column that cannot carry it
                raise ValueError(
                    "moments_by_type: exact sum_c exceeds the BIGINT "
                    "output-column contract; rescale to a coarser unit"
                )
            s2 = unlimbs3(r["s2_a2"], r["s2_a1"], r["s2_a0"])
            s3 = unlimbs3(r["s3_a2"], r["s3_a1"], r["s3_a0"])
            s4 = unlimbs3(r["s4_a2"], r["s4_a1"], r["s4_a0"])
            st = derived_stats(r["n"], s1, s2, s3, s4)
            out["event_type"].append(r["event_type"])
            out["n"].append(r["n"])
            out["sum_c"].append(s1)
            out["min_c"].append(r["mn"])
            out["max_c"].append(r["mx"])
            out["sum_c2_d"].append(limb_double(s2))
            out["sum_c3_d"].append(limb_double(s3))
            out["sum_c4_d"].append(limb_double(s4))
            out["mean_c"].append(st["mean"])
            out["var_c"].append(st["var"])
            out["skew"].append(st["skew"])
            out["kurt"].append(st["kurt"])
        t2 = pa.table(
            {
                "event_type": pa.array(out["event_type"], pa.string()),
                "n": pa.array(out["n"], pa.int64()),
                "sum_c": pa.array(out["sum_c"], pa.int64()),
                "min_c": pa.array(out["min_c"], pa.int64()),
                "max_c": pa.array(out["max_c"], pa.int64()),
                "sum_c2_d": pa.array(out["sum_c2_d"], pa.float64()),
                "sum_c3_d": pa.array(out["sum_c3_d"], pa.float64()),
                "sum_c4_d": pa.array(out["sum_c4_d"], pa.float64()),
                "mean_c": _oround(pa.array(out["mean_c"], pa.float64()), 6),
                "var_c": _oround(pa.array(out["var_c"], pa.float64()), 6),
                "skew": _oround(pa.array(out["skew"], pa.float64()), 6),
                "kurt": _oround(pa.array(out["kurt"], pa.float64()), 6),
            }
        )
        return t2

    return agg.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def fd_spectral_head(sf_dir: str, l: int = 48, max_exact_dim: int = 512):
    """Frequent-Directions Gram sketch over embeddings with its FD
    guarantee VERIFIED in-band.

    One distributed FD aggregate (each block ships one <= l x d sketch)
    plus one exact-Gram pass (d <= 512 gate, d^2 partials per block, the
    embedding_top_component convention). The output certifies, per run:
    ``psd_ok`` = A^T A - B^T B is PSD (min eig >= -tol*scale) and
    ``within_bound`` = its spectral norm <= the sketch's tracked shed
    mass delta (kernel/fd.py) — i.e. the GLPW16 deterministic guarantee,
    checked against the exact Gram rather than assumed. At d > 512 the
    exact pass is skipped and the worst-case 2||A||_F^2/l bound is
    reported with psd_ok/within_bound null."""
    from ..stages.linalg import exact_gram, fd_build

    ds = _read(sf_dir, "embeddings", ["embedding"]).materialize()
    sk = fd_build(ds, l=l)
    lam_fd, v = sk.top_eig()
    d = sk.d or 0
    # deterministic sign: largest-|loading| dim positive
    pivot = int(np.argmax(np.abs(v))) if d else 0
    if d and v[pivot] < 0:
        v = -v
    if d and d <= max_exact_dim:
        G, n_rows = exact_gram(ds)
        B = sk.sketch_matrix()
        diff = G - B.T @ B
        ev = np.linalg.eigvalsh((diff + diff.T) / 2.0)
        scale = max(float(np.abs(G).max()), 1.0)
        psd_ok = bool(ev.min() >= -1e-9 * scale)
        within = bool(ev.max() <= sk.delta + 1e-9 * scale)
        lam_exact = float(np.linalg.eigvalsh((G + G.T) / 2.0)[-1])
        gap = lam_exact - lam_fd
    else:  # pragma: no cover - testdata d=64
        n_rows, psd_ok, within, lam_exact, gap = sk.n_rows, None, None, None, None
    return pa.table(
        {
            "dim": pa.array(np.arange(d, dtype=np.int64)),
            "fd_loading": pa.array(np.round(v, 9)),
            "fd_eig": pa.array(np.full(d, round(lam_fd, 6))),
            "exact_eig": pa.array(
                np.full(d, round(lam_exact, 6)) if lam_exact is not None
                else np.full(d, np.nan)
            ),
            "eig_gap": pa.array(
                np.full(d, round(gap, 6)) if gap is not None else np.full(d, np.nan)
            ),
            "delta_bound": pa.array(np.full(d, round(sk.delta, 6))),
            "psd_ok": pa.array([psd_ok] * d),
            "within_bound": pa.array([within] * d),
            "n_rows": pa.array(np.full(d, n_rows, dtype=np.int64)),
        }
    )


def cbf_open_orders_lineitems(sf_dir: str):
    """Counting-Bloom DELETE demo, oracle-exact: lineitems of orders that
    are NOT finalized (o_orderstatus <> 'F'), grouped by linestatus.

    The one membership shape a plain Bloom cannot express: the filter is
    built over ALL order keys, then the finalized orders are REMOVED
    (kernel/counting_bloom.py decrements), so the probe prunes lineitem
    against the post-delete multiset. Each orders block emits ONE signed
    partial (adds + removes together — int32 counters make the merge
    order-free even when a block's removes outnumber its adds);
    ``validate()`` on the merged filter certifies the delete contract.
    Pruned survivors are exact-verified against the open-order key set
    (``id_set_filter``, the orders_semi_join discipline), so the result is
    exactly the SQL anti-status semi-join."""
    from ..stages.builder import pack_partial, tree_reduce
    from ..stages.dedup import id_set_filter
    from ..stages.probe import probe_filter

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderstatus"])
    n_orders = orders.count()
    spec = SketchSpec.of("cbf", 0.01, max(n_orders, 11))

    def cbf_partial(t: pa.Table) -> pa.Table:
        sk = spec.make()
        sk.add_batch(t["o_orderkey"])  # hashed as decimal strings
        fin = pc.equal(t["o_orderstatus"], "F")
        sk.remove_batch(t.filter(fin)["o_orderkey"])
        return pa.table(
            {
                "cbf": pa.array([pack_partial(sk.to_bytes())], pa.large_binary()),
                "rows": pa.array([t.num_rows], pa.int64()),
            }
        )

    parts = orders.map_batches(
        cbf_partial, batch_format="pyarrow", zero_copy_batch=True
    )
    cbf = tree_reduce(parts, {"cbf": spec})["cbf"]
    cbf.validate()

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_linestatus", "l_quantity"])
    pruned = probe_filter(li, cbf, on="l_orderkey", mode="maybe")

    open_keys = orders.map_batches(
        lambda t: t.filter(pc.not_equal(t["o_orderstatus"], "F"))
        .select(["o_orderkey"])
        .rename_columns(["l_orderkey"]),
        batch_format="pyarrow",
    ).materialize()
    exact = id_set_filter(open_keys, "l_orderkey", keep=True)(pruned)

    qty = exact.map_batches(
        lambda t: pa.table(
            {
                "l_linestatus": t["l_linestatus"],
                "qty": pc.cast(_oround(t["l_quantity"]), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    return grouped_reduce(
        qty, "l_linestatus", {"sum_qty": ("qty", "sum"), "n_lines": ("qty", "count")}
    )


def events_range_layout(sf_dir: str, k: int = 8):
    """Quantile range-layout profile of events.value cents (k buckets).

    The stages/layout.py primitive as an oracle-checked query: learn k-1
    exact percentile_disc boundaries from a distributed (value, count)
    histogram (never a sort of the stream), tag every row with
    ``bucket(v) = #{i : v > b_i}`` map-only against the broadcast
    boundary vector, and report per-bucket row count and value range.
    Bucket populations are near-equal by construction (exactly equal up
    to value ties) — the explicit-repartitioning primitive that absorbs
    key skew before a partitioned write or range join.  The SQL twin
    computes the identical rule from percentile_disc scalars (k must
    keep i/k binary-exact: 2/4/8/16...)."""
    from ..stages.layout import assign_range_buckets, range_boundaries

    if k & (k - 1):
        raise ValueError("events_range_layout: k must be a power of two")

    def to_cents(t: pa.Table) -> pa.Table:
        return pa.table(
            {"c": pc.cast(_oround(pc.multiply(t["value"], 100.0)), pa.int64())}
        )

    def cents_ds():
        return _read(sf_dir, "events", ["value"]).map_batches(
            to_cents, batch_format="pyarrow", zero_copy_batch=True
        )

    bounds = range_boundaries(cents_ds(), "c", k)
    tagged = assign_range_buckets(cents_ds(), "c", bounds)

    agg = grouped_reduce(
        tagged,
        "bucket",
        {"n": ("c", "count"), "min_c": ("c", "min"), "max_c": ("c", "max")},
    )
    return agg.map_batches(
        lambda t: t.sort_by("bucket"), batch_format="pyarrow"
    )


def customer_rfm_segments(sf_dir: str, k: int = 4):
    """RFM segmentation (recency / frequency / monetary), the classic
    warehouse cohort op, oracle-exact end to end.

    Per customer: days since last order (vs the corpus max order date),
    order count, and lifetime spend in integer cents — one per-block
    pre-agg + one |customers|-bounded groupby.  Each metric is then cut
    into k quartile segments with the SQL-standard percentile_disc
    bucket rule ``seg(v) = 1 + #{i : v > b_i}`` (stages/layout.
    range_boundaries over the bounded per-customer aggregate — the
    events_range_layout rule, so NTILE-style tie ambiguity never
    arises), and the output is the (r_seg, f_seg, m_seg) segment grid
    with exact customer counts and spend sums.  k must keep i/k
    binary-exact (2/4/8...) so both engines pick identical boundary
    rows."""
    from ..stages.layout import range_boundaries_multi

    if k & (k - 1):
        raise ValueError("customer_rfm_segments: k must be a power of two")
    orders = _read(
        sf_dir, "orders", ["o_custkey", "o_orderdate", "o_totalprice"]
    )

    def pre(t: pa.Table) -> pa.Table:
        cents = pc.cast(_oround(pc.multiply(t["o_totalprice"], 100.0)), pa.int64())
        # integer µs // µs-per-day (non-negative, so truncation == floor;
        # float division risks an off-by-one at exact-midnight boundaries)
        day = pc.divide(
            pc.cast(t["o_orderdate"], pa.int64()),
            pa.scalar(86_400_000_000, pa.int64()),
        )
        return pa.table({"c": t["o_custkey"], "day": day, "cents": cents})

    # frequency is count(*), like the SQL twin: an order with a NULL
    # price still counts
    agg = grouped_reduce(
        orders.map_batches(pre, batch_format="pyarrow", zero_copy_batch=True),
        "c",
        {
            "last_day": ("day", "max"),
            "n": (None, "count_all"),
            "cents": ("cents", "sum"),
        },
    ).materialize()  # |customers|-bounded; reused by the fused
    # boundary pass, the native max, and the segment-tagging pass
    max_day = agg.max("last_day")

    def metrics(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "recency": pc.subtract(pa.scalar(max_day, pa.int64()), t["last_day"]),
                "freq": t["n"],
                "monetary": t["cents"],
            }
        )

    mds = agg.map_batches(metrics, batch_format="pyarrow").materialize()
    # one fused histogram exchange for all three metrics (packed-key
    # space; metrics are non-negative by construction) instead of three
    # sequential groupbys — bit-identical boundaries, pytest-pinned
    bounds = range_boundaries_multi(
        mds, ["recency", "freq", "monetary"], k
    )

    def seg(t: pa.Table) -> pa.Table:
        out = {}
        for col in ("recency", "freq", "monetary"):
            v = t[col].to_numpy(zero_copy_only=False)
            out[col[0] + "_seg"] = pa.array(
                1 + np.searchsorted(bounds[col], v, side="left").astype(np.int64)
            )
        out["monetary"] = t["monetary"]
        return pa.table(out)

    grid = grouped_reduce(
        mds.map_batches(seg, batch_format="pyarrow"),
        ["r_seg", "f_seg", "m_seg"],
        {"n_customers": (None, "count_all"), "sum_cents": ("monetary", "sum")},
    )
    return grid.map_batches(
        lambda t: t.sort_by(
            [("r_seg", "ascending"), ("f_seg", "ascending"), ("m_seg", "ascending")]
        ),
        batch_format="pyarrow",
    )
