"""User-journey analytics over event streams: retention cohorts, event
transition (Markov) counts, and ordered funnel stages.

These are the classic product/event-warehouse operators a training-data or
analytics pipeline runs over an append-only event log. All three follow the
repo's established distributed-scan shapes; the last two run on the ordered
window family's one plan, ``windows.sorted_blocks``:

- ``retention_cohorts``: per-block pair dedupe -> one packed-key groupby
  (the ``hourly_active_users`` thinning shape) -> size-guarded cohort join.
- ``transition_counts``: ONE range sort, per-block vectorized adjacency
  counts pre-aggregated to <= |types|^2 rows per block, native single-key
  groupby; only O(blocks) boundary rows reach the driver.
- ``funnel_stages``: ONE range sort, per-segment chain times via masked
  ``np.minimum.reduceat`` passes (k passes over the block, never per-row
  Python); boundary user segments carry a BOUNDED per-entry-stage summary
  (k x k conditional completion times) and fold on the driver — O(blocks)
  driver rows regardless of how many events a hot user has.

Reference parity: the reference engine has no journey operators — these
extend the §2.5 aggregation/window surface (SURVEY.md) with the same
oracle-exact discipline as sessionize (/root/reference/readme.md:1-30 has
no equivalent; semantics are pinned by the DuckDB twins in
__ray_entry__.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .windows import edge_kind, key_change, sorted_blocks

_BIG = np.iinfo(np.int64).max
_DAY_US = 86_400_000_000


def retention_cohorts(
    ds,
    key: str = "user_id",
    ts_col: str = "ts",
):
    """Cohort retention: users grouped by their first active DAY (the
    cohort), counted at each later day offset they return.

    Returns ``(cohort_day, offset_days, n_users)`` — day indices are
    ``epoch_us // 86_400_000_000`` so the oracle twin is pure integer math.

    Scale shape: events thin to distinct (user, day) pairs per block
    BEFORE any shuffle; the global distinct + per-user min-day ride the
    packed-int64 single-key groupby (``dedupe_pair_stream``); the cohort
    lookup goes through the size-guarded broadcast/hash join so a corpus
    with more users than ``joins.DIM_BROADCAST_MAX`` automatically takes
    the distributed plan. The final rollup is over (cohort, offset) pairs —
    bounded by days^2, not data size.
    """
    from .dedup import dedupe_pair_stream
    from .joins import broadcast_lookup_join

    def pair_thin(t: pa.Table) -> pa.Table:
        us = pc.cast(t[ts_col], pa.int64()).to_numpy(zero_copy_only=False)
        day = us // _DAY_US
        uid = t[key].to_numpy(zero_copy_only=False)
        order = np.lexsort((day, uid))
        u, d = uid[order], day[order]
        keep = np.ones(len(u), dtype=bool)
        keep[1:] = (u[1:] != u[:-1]) | (d[1:] != d[:-1])
        return pa.table(
            {"left_id": pa.array(u[keep]), "right_id": pa.array(d[keep])}
        )

    pairs = dedupe_pair_stream(
        ds.map_batches(pair_thin, batch_format="pyarrow", zero_copy_batch=True)
    ).materialize()  # consumed twice: cohort min + the join probe
    n_pairs = pairs.count()

    cohorts = pairs.groupby("left_id").min("right_id")

    def tidy_cohort(t: pa.Table) -> pa.Table:
        return pa.table(
            {"left_id": t["left_id"], "cohort_day": t["min(right_id)"]}
        )

    cohorts = cohorts.map_batches(tidy_cohort, batch_format="pyarrow")
    # cohort side is <= n_pairs rows (exactly one per user)
    joined = broadcast_lookup_join(
        pairs, cohorts, on="left_id", right_count=n_pairs
    )

    def to_offsets(t: pa.Table) -> pa.Table:
        day = t["right_id"].to_numpy(zero_copy_only=False)
        cday = t["cohort_day"].to_numpy(zero_copy_only=False)
        # days are non-negative and < 2^20 for any timestamp this side of
        # year ~4840, so (cohort << 21 | offset) is collision-free
        if day.size and (day.min() < 0 or day.max() >= (1 << 20)):
            raise ValueError("retention_cohorts: day index out of pack range")
        pk = (cday << 21) | (day - cday)
        return pa.table({"pk": pa.array(pk)})

    rolled = (
        joined.map_batches(to_offsets, batch_format="pyarrow")
        .groupby("pk")
        .count()
    )

    def unpack(t: pa.Table) -> pa.Table:
        pk = t["pk"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "cohort_day": pa.array(pk >> 21),
                "offset_days": pa.array(pk & ((1 << 21) - 1)),
                "n_users": t["count()"],
            }
        )

    return rolled.map_batches(unpack, batch_format="pyarrow").sort(
        ["cohort_day", "offset_days"]
    )


def transition_counts(
    ds,
    key: str = "user_id",
    ts_col: str = "ts",
    type_col: str = "event_type",
    id_col: str = "event_id",
):
    """Event-transition (first-order Markov) counts: for each user's
    time-ordered stream, count every adjacent ``prev_type -> next_type``
    pair, aggregated corpus-wide. The DuckDB twin is the LAG window
    ``lag(event_type) OVER (PARTITION BY key ORDER BY ts, id)``.

    Scale shape: ONE range sort by (key, ts, id); each sorted block folds
    its adjacencies to at most |types|^2 partial rows via a local
    dictionary encode + ``np.bincount`` (no per-row Python), keyed by a
    single concatenated string so the global combine is a native
    single-column groupby (multi-column string groupby is the measured
    pathological case — CLAUDE.md). Exactly one O(1) boundary row per
    block reaches the driver, where consecutive same-key block edges add
    their one crossing transition each.
    """
    import ray.data as rd

    sep = "\x1f"

    def block_parts(t: pa.Table) -> pa.Table:
        n = t.num_rows
        keys = t[key].to_numpy(zero_copy_only=False)
        types = t[type_col].to_numpy(zero_copy_only=False)
        vocab, codes = np.unique(types, return_inverse=True)
        v = len(vocab)
        valid = keys[1:] == keys[:-1]
        packed = codes[:-1][valid] * v + codes[1:][valid]
        counts = np.bincount(packed, minlength=v * v)
        nz = np.flatnonzero(counts)
        # <= |local types|^2 pairs -> Python string build is off the hot path
        pair = [f"{vocab[i // v]}{sep}{vocab[i % v]}" for i in nz.tolist()]
        count_rows = pa.table(
            {
                "pair": pa.array(pair, pa.string()),
                "n": counts[nz],
                "_kind": np.zeros(len(nz), np.int8),
            }
        )
        # the block's one edge row: its first (key, ts, id, type) and its
        # last (key, type), in the input's own Arrow types
        edge_row = pa.table(
            {
                "_kind": pa.array([1], pa.int8()),
                "_fk": t[key].slice(0, 1),
                "_fts": t[ts_col].slice(0, 1),
                "_fid": t[id_col].slice(0, 1),
                "_ft": t[type_col].slice(0, 1),
                "_lk": t[key].slice(n - 1, 1),
                "_lt": t[type_col].slice(n - 1, 1),
            }
        )
        return pa.concat_tables([count_rows, edge_row], promote_options="default")

    done, edges = sorted_blocks(
        ds, [key, ts_col, id_col], block_parts, "transition_counts"
    )
    counts = (
        done.select_columns(["pair", "n"])
        .groupby("pair")
        .sum("n")
        .take_all()  # <= |types|^2 rows
    )
    agg = {r["pair"]: int(r["sum(n)"]) for r in counts}
    if edges is not None:
        # blocks own disjoint (key, ts, id) ranges -> first-row tuple orders them
        e = edges.sort_by(
            [("_fk", "ascending"), ("_fts", "ascending"), ("_fid", "ascending")]
        ).to_pylist()
        for a, b in zip(e, e[1:]):
            if a["_lk"] == b["_fk"]:
                k = f"{a['_lt']}{sep}{b['_ft']}"
                agg[k] = agg.get(k, 0) + 1
    prev_next = sorted(agg)
    out = pa.table(
        {
            "prev_type": pa.array([p.split(sep)[0] for p in prev_next], pa.string()),
            "next_type": pa.array([p.split(sep)[1] for p in prev_next], pa.string()),
            "n": pa.array([agg[p] for p in prev_next], pa.int64()),
        }
    )
    return rd.from_arrow(out)


def funnel_stages(
    ds,
    stages: tuple = ("view", "click", "purchase"),
    key: str = "user_id",
    ts_col: str = "ts",
    type_col: str = "event_type",
    id_col: str = "event_id",
):
    """Ordered funnel: per user, the number of funnel stages completed in
    strict time order — stage j counts only if an event of type
    ``stages[j]`` happens at a STRICTLY LATER ``ts`` than the chosen
    stage j-1 event, with each stage greedily taking its earliest legal
    event (greedy-earliest is optimal for chain completion by the standard
    exchange argument). Returns ``(key, funnel_stage)`` for every user who
    completed stage 1.

    Scale shape: ONE range sort by (key, ts, id); every block computes
    per-segment chain times for ALL k entry states with k masked
    ``np.minimum.reduceat`` passes (vectorized over the whole block).
    Interior segments (user fully inside one block) finalize in-block;
    boundary segments ship only their bounded (2 x k x k) conditional-time
    summary — O(blocks) driver rows however hot the user. Cross-block
    exact-``ts`` ties against a previously completed stage are resolved
    exactly: the entry time is <= every ts in the later segment, so a tie
    can only sit at the segment's FIRST ts, and each entry state carries a
    second chain variant whose first stage is forced strictly past it.
    """
    import ray.data as rd

    k = len(stages)
    if k < 2:
        raise ValueError("funnel needs at least 2 stages")
    stage_arr = np.array(stages)

    def block_parts(t: pa.Table) -> pa.Table:
        keys = t[key].to_numpy(zero_copy_only=False)
        ts_us = pc.cast(t[ts_col], pa.int64()).to_numpy(zero_copy_only=False)
        types = t[type_col].to_numpy(zero_copy_only=False)
        order = np.argsort(stage_arr, kind="stable")
        sorted_stages = stage_arr[order]
        pos = np.searchsorted(sorted_stages, types)
        if not (sorted_stages[np.clip(pos, 0, k - 1)] == types).all():
            raise ValueError("funnel_stages: non-stage event type in block")
        code = order[pos]  # stage index per row (position in `stages`)
        change = key_change(keys)
        starts = np.flatnonzero(change)
        seg_id = np.cumsum(change) - 1
        # chain[i][j]: earliest completion time of stage j entering the
        # segment with stages < i already done strictly earlier (-inf
        # entry time); _BIG == not reached. strict[i][j] is the same but
        # stage i must land STRICTLY AFTER the segment's first ts — the
        # fold switches to it when the entry time ties the segment start
        # (the only place a cross-block tie can occur, because the entry
        # time is <= every ts in this later-sorted segment)
        first_ts = ts_us[starts]
        chain, strict = {}, {}
        for i in range(k):
            prev = prev_s = None
            for j in range(i, k):
                m = code == j
                if prev is not None:
                    m = m & (ts_us > prev[seg_id])
                    ms = (code == j) & (ts_us > prev_s[seg_id])
                else:
                    ms = m & (ts_us > first_ts[seg_id])
                tj = np.minimum.reduceat(np.where(m, ts_us, _BIG), starts)
                tjs = np.minimum.reduceat(np.where(ms, ts_us, _BIG), starts)
                chain[(i, j)] = tj
                strict[(i, j)] = tjs
                prev, prev_s = tj, tjs
        out = {
            key: t[key].take(starts),
            "_first_us": first_ts,
            "_first_id": t[id_col].take(starts),
            "_kind": edge_kind(keys[starts], keys),
        }
        for i in range(k):
            for j in range(i, k):
                out[f"_c{i}_{j}"] = chain[(i, j)]
                out[f"_s{i}_{j}"] = strict[(i, j)]
        return pa.table(out)

    stage_set = pa.array(list(stages), pa.string())
    filtered = ds.map_batches(
        lambda t: t.filter(pc.is_in(t[type_col], value_set=stage_set)),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    done, edges = sorted_blocks(
        filtered, [key, ts_col, id_col], block_parts, "funnel_stages"
    )

    def finalize_interior(t: pa.Table) -> pa.Table:
        stage = np.zeros(t.num_rows, dtype=np.int64)
        for j in range(k):
            reached = t[f"_c0_{j}"].to_numpy(zero_copy_only=False) != _BIG
            stage = np.where(reached, j + 1, stage)
        m = stage >= 1
        return pa.table(
            {
                key: t[key].filter(pa.array(m)),
                "funnel_stage": pa.array(stage[m]),
            }
        )

    interior = done.map_batches(finalize_interior, batch_format="pyarrow")
    if edges is None:
        return interior.sort(key)
    # within a user, global (ts, id) sort order makes each block-segment's
    # first row lexicographically ordered -> (first_us, first_id) orders
    # the user's segments even across exact-ts boundaries
    key_type = edges.schema.field(key).type
    edges = edges.sort_by(
        [(key, "ascending"), ("_first_us", "ascending"), ("_first_id", "ascending")]
    ).to_pylist()  # O(blocks)
    rows_k, rows_s = [], []
    cur, s, tdone = None, 0, None

    def flush():
        if cur is not None and s >= 1:
            rows_k.append(cur)
            rows_s.append(s)

    for r in edges:
        if r[key] != cur:
            flush()
            cur, s, tdone = r[key], 0, None
        if s >= k:
            continue
        if s == 0:
            for j in range(k):
                tj = r[f"_c0_{j}"]
                if tj == _BIG:
                    break
                s, tdone = j + 1, tj
        else:
            # entering mid-chain: segment times assume -inf entry; all
            # segment ts >= tdone by the sort, so only an EXACT tie with
            # the segment's first ts can violate strictness — the strict
            # variant (stage s forced past the first ts) resolves it
            entry = s
            var = "c"
            if r[f"_c{entry}_{entry}"] == tdone:
                var = "s"
            for j in range(entry, k):
                tj = r[f"_{var}{entry}_{j}"]
                if tj == _BIG:
                    break
                assert tj > tdone, "funnel fold: non-monotonic chain time"
                s, tdone = j + 1, tj
    flush()
    edge_tbl = pa.table(
        {
            key: pa.array(rows_k, key_type),
            "funnel_stage": pa.array(rows_s, pa.int64()),
        }
    )
    return interior.union(rd.from_arrow(edge_tbl)).sort(key)
