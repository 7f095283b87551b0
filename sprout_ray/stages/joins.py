"""Ordered joins Ray Data lacks natively — as-of join (backward) and a
bucket-blocked range (interval) join.

An as-of join attaches, to every left row (key, t), the right row with the
largest right.ts <= t for the same key (SQL: ``ASOF LEFT JOIN ... ON
l.key = r.key AND l.ts >= r.ts``). Ray Data has no ordered-join operator
(absent in the reference too — its engine is a sketch library), so this is
expressed with the same machinery as ``windows.sessionize``:

1. both sides are projected onto one unified schema (side tag 0=right,
   1=left so a right row at the same timestamp sorts first and is eligible,
   matching the inclusive ASOF bound) and unioned;
2. ONE global ``sort([key, ts, side, tie])`` — the only shuffle;
3. a fully vectorized per-block pass does last-observation-carried-forward
   of right-row indices with numpy (segment-reset maximum.accumulate), so
   every left row whose match lives in the same sorted block resolves
   worker-side with zero Python loops;
4. only a block's FIRST key run can need a match from an earlier block (a
   key spanning two sorted blocks is necessarily last of one and first of
   the next), so pass A emits one tiny summary row per block (first-row
   identity + last right payload of the block's last key), the driver folds
   the O(blocks) summaries into a per-block carry-in, and pass B joins with
   the broadcast carry dict. Driver traffic is O(blocks), never O(rows).

Partitioning assumption: none beyond the sort — skewed keys cost what the
range shuffle costs. The carry chain handles a key spanning any number of
consecutive blocks.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def asof_join(
    left_ds,
    right_ds,
    key: str,
    ts_col: str,
    tie_col: str,
    right_payload: dict[str, str],
    left_id_out: str = "left_id",
    ts_out: str = "ts_us",
):
    """Backward as-of join; one output row per left row.

    Output columns: ``key``, ``left_id_out`` (the left row's ``tie_col``),
    ``ts_out`` (left timestamp, int64 epoch-us), then one float64 column per
    ``right_payload`` entry (right column -> output name; right's ``ts_col``
    may be listed to emit the matched timestamp). Payload is uniformly
    float64 so matched and unmatched (null) rows share one type; wider left
    payloads re-join on ``left_id_out`` afterwards. ``key``/``tie_col`` must
    be integer-typed; ``ts_col`` may be timestamp or integer.
    """
    import ray

    pay_out = list(right_payload.values())

    def as_i64(col) -> pa.ChunkedArray:
        return pc.cast(col, pa.int64())

    def prep_left(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table(
            {
                key: as_i64(t[key]),
                "_ts_us": as_i64(t[ts_col]),
                "_side": pa.array(np.ones(n, np.int8)),
                "_tie": as_i64(t[tie_col]),
                **{name: pa.nulls(n, pa.float64()) for name in pay_out},
            }
        )

    def prep_right(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table(
            {
                key: as_i64(t[key]),
                "_ts_us": as_i64(t[ts_col]),
                "_side": pa.array(np.zeros(n, np.int8)),
                "_tie": as_i64(t[tie_col]),
                **{
                    name: pc.cast(
                        as_i64(t[src])
                        if pa.types.is_timestamp(t[src].type)
                        else t[src],
                        pa.float64(),
                    )
                    for src, name in right_payload.items()
                },
            }
        )

    lp = left_ds.map_batches(prep_left, batch_format="pyarrow")
    rp = right_ds.map_batches(prep_right, batch_format="pyarrow")
    merged = lp.union(rp).sort([key, "_ts_us", "_side", "_tie"]).materialize()

    # ---- pass A: one summary row per sorted block -------------------------
    def block_summary(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "f_key": pa.array([], pa.int64()),
                    "f_ts": pa.array([], pa.int64()),
                    "f_side": pa.array([], pa.int8()),
                    "f_tie": pa.array([], pa.int64()),
                    "last_key": pa.array([], pa.int64()),
                    "has_right": pa.array([], pa.bool_()),
                    **{n: pa.array([], pa.float64()) for n in pay_out},
                }
            )
        keys = t[key].to_numpy(zero_copy_only=False)
        side = t["_side"].to_numpy(zero_copy_only=False)
        last_key = keys[-1]
        right_in_last = np.flatnonzero((keys == last_key) & (side == 0))
        has_right = right_in_last.size > 0
        idx = int(right_in_last[-1]) if has_right else 0
        return pa.table(
            {
                "f_key": pa.array([int(keys[0])], pa.int64()),
                "f_ts": pa.array([t["_ts_us"][0].as_py()], pa.int64()),
                "f_side": pa.array([int(side[0])], pa.int8()),
                "f_tie": pa.array([t["_tie"][0].as_py()], pa.int64()),
                "last_key": pa.array([int(last_key)], pa.int64()),
                "has_right": pa.array([has_right]),
                **{
                    n: pa.array(
                        [t[n][idx].as_py() if has_right else None], pa.float64()
                    )
                    for n in pay_out
                },
            }
        )

    summaries = merged.map_batches(
        block_summary, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    ).take_all()
    summaries.sort(key=lambda s: (s["f_key"], s["f_ts"], s["f_side"], s["f_tie"]))

    carry_in: dict = {}
    carry_key, carry_pay = None, None
    for s in summaries:
        ident = (s["f_key"], s["f_ts"], int(s["f_side"]), s["f_tie"])
        carry_in[ident] = carry_pay if s["f_key"] == carry_key else None
        if s["has_right"]:
            carry_key = s["last_key"]
            carry_pay = {n: s[n] for n in pay_out}
        elif not (s["f_key"] == s["last_key"] == carry_key):
            carry_key, carry_pay = s["last_key"], None
    carry_ref = ray.put(carry_in)

    # ---- pass B: vectorized LOCF + carry for the first key run ------------
    def resolve(t: pa.Table) -> pa.Table:
        def empty() -> pa.Table:
            return pa.table(
                {
                    key: pa.array([], pa.int64()),
                    left_id_out: pa.array([], pa.int64()),
                    ts_out: pa.array([], pa.int64()),
                    **{n: pa.array([], pa.float64()) for n in pay_out},
                }
            )

        n = t.num_rows
        if n == 0:
            return empty()
        keys = t[key].to_numpy(zero_copy_only=False)
        side = t["_side"].to_numpy(zero_copy_only=False)
        idx = np.arange(n, dtype=np.int64)
        key_change = np.concatenate([[True], keys[1:] != keys[:-1]])
        seg_first = np.maximum.accumulate(np.where(key_change, idx, 0))
        locf = np.maximum.accumulate(np.where(side == 0, idx, -1))
        valid = locf >= seg_first
        taken = t.take(np.where(valid, locf, 0))
        carry = ray.get(carry_ref).get(
            (int(keys[0]), t["_ts_us"][0].as_py(), int(side[0]), t["_tie"][0].as_py())
        )
        use_carry = (keys == keys[0]) & ~valid
        vmask = pa.array(valid)
        cols = {key: t[key], left_id_out: t["_tie"], ts_out: t["_ts_us"]}
        for name in pay_out:
            col = pc.if_else(vmask, taken[name], pa.scalar(None, pa.float64()))
            if carry is not None and use_carry.any():
                col = pc.if_else(
                    pa.array(use_carry), pa.scalar(carry[name], pa.float64()), col
                )
            cols[name] = col
        out = pa.table(cols).filter(pa.array(side == 1))
        return out if out.num_rows else empty()

    return merged.map_batches(
        resolve, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )


def asof_join_forward(
    left_ds,
    right_ds,
    key: str,
    ts_col: str,
    tie_col: str,
    right_payload: dict[str, str],
    left_id_out: str = "left_id",
    ts_out: str = "ts_us",
):
    """Forward as-of join: each left row gets the right row with the
    SMALLEST right.ts >= left.ts for the same key (SQL: ``ASOF LEFT JOIN
    ... ON l.key = r.key AND l.ts <= r.ts``).

    Time-reversal reduction onto :func:`asof_join`: negate int64 timestamps
    on both sides, run the backward join, negate back. The inclusive bound
    is preserved under negation (largest -ts <= -t <=> smallest ts >= t),
    so all the backward machinery — one sort, block-local LOCF, O(blocks)
    carry chain — is reused untouched. Among several right rows at the same
    eligible timestamp the largest ``tie_col`` wins (the backward join's
    tie rule under reversal); like the backward join, callers needing a
    deterministic oracle twin should have no (key, ts) right-side ties."""

    def negate_ts(t: pa.Table) -> pa.Table:
        i = t.schema.get_field_index(ts_col)
        return t.set_column(
            i, ts_col, pc.negate_checked(pc.cast(t[ts_col], pa.int64()))
        )

    out = asof_join(
        left_ds.map_batches(negate_ts, batch_format="pyarrow"),
        right_ds.map_batches(negate_ts, batch_format="pyarrow"),
        key=key,
        ts_col=ts_col,
        tie_col=tie_col,
        right_payload=right_payload,
        left_id_out=left_id_out,
        ts_out=ts_out,
    )
    ts_payloads = [name for src, name in right_payload.items() if src == ts_col]

    def unnegate(t: pa.Table) -> pa.Table:
        i = t.schema.get_field_index(ts_out)
        t = t.set_column(i, ts_out, pc.negate_checked(t[ts_out]))
        for name in ts_payloads:
            j = t.schema.get_field_index(name)
            t = t.set_column(j, name, pc.negate_checked(t[name]))
        return t

    return out.map_batches(unnegate, batch_format="pyarrow")


def windowed_range_count(
    anchor_ds,
    event_ds,
    key: str,
    ts_col: str,
    anchor_id: str,
    window_s: int,
    out_col: str = "n_events",
    num_partitions: int = 8,
):
    """Range join: per anchor row, count same-key events with
    ``ts in (anchor.ts - window_s, anchor.ts]``.

    Ray Data's hash join cannot express the inequality predicate, so the
    interval is bucket-blocked: events get ``bucket = ts // window``; each
    anchor probes its own bucket and the previous one (a window of width W
    aligned anywhere overlaps at most two W-wide buckets), the equi-join on
    (key, bucket) lands every candidate pair exactly once (an event has ONE
    bucket; the anchor's two probe rows have distinct buckets), and the
    exact predicate filters vectorized after the join. Scale shape: shuffle
    keyed by (key, bucket) so a hot key spreads over its time range; join
    fan-in is events-per-(key, window) — bounded by data density, not
    corpus size. Anchors with zero events are restored by a left join
    against the count table (count coalesced to 0).
    """
    from ray.data.aggregate import Count

    w_us = window_s * 1_000_000

    def prep_events(t: pa.Table) -> pa.Table:
        ts = pc.cast(t[ts_col], pa.int64())
        return pa.table(
            {
                key: pc.cast(t[key], pa.int64()),
                "bucket": pc.divide(ts, pa.scalar(w_us, pa.int64())),
                "ev_ts": ts,
            }
        )

    def prep_anchors(t: pa.Table) -> pa.Table:
        ts = pc.cast(t[ts_col], pa.int64())
        base = pa.table(
            {
                key: pc.cast(t[key], pa.int64()),
                "bucket": pc.divide(ts, pa.scalar(w_us, pa.int64())),
                anchor_id: pc.cast(t[anchor_id], pa.int64()),
                "a_ts": ts,
            }
        )
        prev = base.set_column(
            1,
            "bucket",
            pc.subtract(base["bucket"], pa.scalar(1, pa.int64())),
        )
        return pa.concat_tables([base, prev])

    events = event_ds.map_batches(prep_events, batch_format="pyarrow")
    anchors = anchor_ds.map_batches(prep_anchors, batch_format="pyarrow")
    joined = anchors.join(
        events,
        join_type="inner",
        num_partitions=num_partitions,
        on=(key, "bucket"),
    )

    def in_window(t: pa.Table) -> pa.Table:
        lo = pc.subtract(t["a_ts"], pa.scalar(w_us, pa.int64()))
        keep = pc.and_(
            pc.greater(t["ev_ts"], lo), pc.less_equal(t["ev_ts"], t["a_ts"])
        )
        return t.filter(keep)

    counts = (
        joined.map_batches(in_window, batch_format="pyarrow")
        .groupby(anchor_id)
        .aggregate(Count(alias_name=out_col))
    )
    ids = anchor_ds.map_batches(
        lambda t: pa.table({anchor_id: pc.cast(t[anchor_id], pa.int64())}),
        batch_format="pyarrow",
    )
    out = ids.join(
        counts,
        join_type="left_outer",
        num_partitions=num_partitions,
        on=(anchor_id,),
    )

    def coalesce(t: pa.Table) -> pa.Table:
        n = pc.coalesce(pc.cast(t[out_col], pa.int64()), pa.scalar(0, pa.int64()))
        return pa.table({anchor_id: t[anchor_id], out_col: n})

    return out.map_batches(coalesce, batch_format="pyarrow")


# The one broadcast budget (rows) for every plan that ships a sorted key
# set or a dimension table to the workers: this join, ``id_set_filter``,
# the hot-bucket and winnow fingerprint sets, the connected-components
# driver tier and the analytics verifies all read it, at call time, as
# ``joins.DIM_BROADCAST_MAX`` (tests force the other plan with
# monkeypatch). A 4M-row int64-keyed dimension with a few narrow payload
# columns is ~100-200 MB in the object store, a bare 4M int64 key set
# 32 MB — comfortably a broadcast on any worker; beyond it the join must
# shuffle. The standard small-side rule (Spark's broadcast-hash-join
# threshold, here in rows because callers know row counts from parquet
# metadata without a scan).
DIM_BROADCAST_MAX = 4_000_000

# Rows per hash-join partition when a plan shuffles: ``Dataset.join``
# pays ~0.5-1 s fixed per partition actor, so partition counts follow the
# data volume rather than the cluster size.
JOIN_PARTITION_ROWS = 2_000_000


def broadcast_lookup_join(
    left,
    right,
    on: str,
    right_count: int | None = None,
    left_count: int | None = None,
    how: str = "inner",
):
    """Equi-join against a KEY-UNIQUE right side (dimension/lookup),
    with size-guarded physical plan selection.

    Up to ``DIM_BROADCAST_MAX`` right rows (``right_count`` lets callers
    pass a parquet-metadata count or a cheap upper bound — e.g. the
    pre-join row count of a previously joined side — so the guard never
    forces an extra execution), the right table is fetched once,
    key-sorted, ``ray.put`` once, and every left batch resolves map-side
    via ``np.searchsorted`` + ``pa.Table.take`` — zero shuffle.
    ``how="inner"`` drops unmatched left rows; ``how="left"`` keeps them
    with NULL payloads (the enrichment shape — misses survive). Above the
    budget it is a distributed hash join (inner / left_outer) with
    partition count clamped to row volume (``Dataset.join`` costs ~0.5-1 s
    FIXED per partition actor — CLAUDE.md).

    The right side MUST be unique on ``on`` (asserted on the broadcast
    path); duplicate right keys would need the hash join's row expansion,
    which searchsorted cannot express."""
    import ray

    if how not in ("inner", "left"):
        raise ValueError(f"how must be 'inner' or 'left', got {how!r}")
    if right_count is None:
        right_count = right.count()
    if right_count <= DIM_BROADCAST_MAX:
        from .agg import collect_table

        tbl = collect_table(right, right.schema().base_schema)
        keys = tbl[on].to_numpy(zero_copy_only=False)
        order = np.argsort(keys, kind="stable")
        if keys.size > 1 and not (keys[order][1:] > keys[order][:-1]).all():
            raise ValueError(f"broadcast_lookup_join: right side not unique on {on!r}")
        tbl_ref = ray.put(tbl.take(pa.array(order)).combine_chunks())
        payload_cols = [c for c in tbl.column_names if c != on]

        def lookup(batch: pa.Table) -> pa.Table:
            rt = ray.get(tbl_ref)
            rkeys = rt[on].to_numpy(zero_copy_only=False)
            lk = batch[on].to_numpy(zero_copy_only=False)
            pos = np.searchsorted(rkeys, lk)
            posc = np.minimum(pos, max(rkeys.size - 1, 0))
            ok = (pos < rkeys.size) & (rkeys[posc] == lk) if rkeys.size else np.zeros(len(lk), bool)
            if how == "left":
                if not rkeys.size:  # empty right: every payload is NULL
                    cols = {c: batch[c] for c in batch.column_names}
                    for c in payload_cols:
                        cols[c] = pa.nulls(batch.num_rows, rt[c].type)
                    return pa.table(cols)
                taken = rt.take(pa.array(posc))
                cols = {c: batch[c] for c in batch.column_names}
                mask = pa.array(~ok)
                for c in payload_cols:
                    # NULL payload where the key missed (left-outer fill)
                    cols[c] = pc.if_else(mask, pa.scalar(None, taken[c].type), taken[c].combine_chunks())
                return pa.table(cols)
            kept = batch.filter(pa.array(ok))
            taken = rt.take(pa.array(posc[ok]))
            cols = {c: kept[c] for c in batch.column_names}
            for c in payload_cols:
                cols[c] = taken[c]
            return pa.table(cols)

        return left.map_batches(lookup, batch_format="pyarrow")

    # partitions sized to the LARGER side: the probe stream's volume, not
    # just the build side's, determines per-partition-actor memory
    vol = max(int(right_count), int(left_count or 0))
    parts = max(2, vol // JOIN_PARTITION_ROWS)
    jt = "left_outer" if how == "left" else "inner"
    return left.join(right, join_type=jt, num_partitions=parts, on=(on,))


def salted_join(
    left,
    right,
    on: str,
    salt: int = 8,
    right_count: int | None = None,
    left_count: int | None = None,
):
    """Inner equi-join with HOT-KEY SALTING — the skew-absorbing plan for a
    fact stream whose join key is dominated by a few hot values (the regime
    ``stages/profile.skew_stats``' ratio flags) against a KEY-UNIQUE right
    side too big to broadcast.

    Plan: every left row scatters over ``salt`` sub-keys (its position
    within the batch mod salt — deterministic, no RNG); the right side
    replicates each row ``salt`` ways, once per sub-key; the distributed
    hash join runs on one packed int64 ``murmur64(key) * salt + sub`` — so
    a hot key's rows spread across ``salt`` hash partitions instead of
    pinning one partition actor (Ray's hash join has no skew handling of
    its own). Cost: right ships ``salt``x (choose salt ~ the skew ratio,
    not the partition count); left volume is unchanged.

    Collision-safe: the ORIGINAL key columns ride both sides and a
    post-join equality filter removes any murmur3-64 collision, so the
    result is exactly the plain inner join's (asserted in pytest on
    planted 90%-hot-key skew, int and string keys). Right-side uniqueness
    on ``on`` is the caller's contract (same as broadcast_lookup_join);
    payload column names must not collide with left's."""
    from ..functions.hashing import murmur_column

    if salt < 1:
        raise ValueError("salt must be >= 1")
    overlap = (set(left.schema().base_schema.names) - {on}) & (
        set(right.schema().base_schema.names) - {on}
    )
    if overlap:
        raise ValueError(f"salted_join: column collision {sorted(overlap)}")
    s64 = np.int64(salt)
    r_on = f"_sj_{on}_r"

    def prep_left(t: pa.Table) -> pa.Table:
        h = murmur_column(t[on], 0).view(np.int64)
        sub = np.arange(t.num_rows, dtype=np.int64) % s64
        return t.append_column("_sj_key", pa.array(h * s64 + sub, pa.int64()))

    def prep_right(t: pa.Table) -> pa.Table:
        h = murmur_column(t[on], 0).view(np.int64)
        parts = []
        for i in range(salt):
            parts.append(
                t.append_column(
                    "_sj_key", pa.array(h * s64 + np.int64(i), pa.int64())
                )
            )
        out = pa.concat_tables(parts)
        idx = out.schema.get_field_index(on)
        return out.set_column(idx, r_on, out.column(on))

    lt = left.map_batches(prep_left, batch_format="pyarrow", zero_copy_batch=True)
    rt = right.map_batches(prep_right, batch_format="pyarrow", zero_copy_batch=True)
    if right_count is None:
        right_count = right.count()
    vol = max(int(right_count) * salt, int(left_count or 0))
    parts = max(2, vol // JOIN_PARTITION_ROWS)
    joined = lt.join(rt, join_type="inner", num_partitions=parts, on=("_sj_key",))

    def finish(t: pa.Table) -> pa.Table:
        keep = pc.equal(t[on], t[r_on])  # murmur-collision guard
        return t.filter(keep).drop_columns(["_sj_key", r_on])

    return joined.map_batches(finish, batch_format="pyarrow")


def snapshot_diff(old_ds, new_ds, key: str, val_col: str):
    """Change-data capture between two keyed snapshots: emit (key, change)
    with change in {'added', 'removed', 'changed'} (unchanged rows are
    dropped). Both sides must be key-unique (each key's single value is
    recovered with a max-aggregate; duplicates would silently pick one,
    so presence counts are checked and raise).

    Scale shape: NO join — the two sides union with a side tag and ONE
    native groupby aggregates per key (n_old, n_new, the old value, the
    new value) in a single shuffle; the comparison is a vectorized
    map over the aggregate rows. Exact: values compare directly (string
    max over a singleton), never through a hash."""
    from ray.data.aggregate import Max, Sum

    def tag(side: int):
        def _t(t: pa.Table) -> pa.Table:
            n = t.num_rows
            val = t[val_col]
            null = pa.nulls(n, t.schema.field(val_col).type)
            return pa.table(
                {
                    key: t[key],
                    "_n_old": pa.array(
                        np.full(n, 1 - side, dtype=np.int64)
                    ),
                    "_n_new": pa.array(np.full(n, side, dtype=np.int64)),
                    "_v_old": val if side == 0 else null,
                    "_v_new": val if side == 1 else null,
                }
            )

        return _t

    both = old_ds.map_batches(tag(0), batch_format="pyarrow").union(
        new_ds.map_batches(tag(1), batch_format="pyarrow")
    )
    agg = both.groupby(key).aggregate(
        Sum("_n_old", alias_name="n_old"),
        Sum("_n_new", alias_name="n_new"),
        Max("_v_old", alias_name="v_old"),
        Max("_v_new", alias_name="v_new"),
    )

    def classify(t: pa.Table) -> pa.Table:
        n_old = t["n_old"].to_numpy(zero_copy_only=False)
        n_new = t["n_new"].to_numpy(zero_copy_only=False)
        if (n_old > 1).any() or (n_new > 1).any():
            raise ValueError("snapshot_diff: sides must be key-unique")
        vo, vn = t["v_old"], t["v_new"]
        added = n_old == 0
        removed = n_new == 0
        # pc.equal is null when either side is null; those rows are
        # added/removed and never consult eq, so fill arbitrarily
        eq = (
            pc.fill_null(pc.equal(vo, vn), False)
            .to_numpy(zero_copy_only=False)
            .astype(bool)
        )
        changed = (~added) & (~removed) & (~eq)
        status = np.where(
            added, "added", np.where(removed, "removed", "changed")
        )
        keep = added | removed | changed
        return pa.table(
            {
                key: t[key],
                "change": pa.array(status.astype(str)),
            }
        ).filter(pa.array(keep))

    return agg.map_batches(classify, batch_format="pyarrow")
