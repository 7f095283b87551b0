"""Event-time windowing over an ordered, partitioned log (stream-shaped ops).

Ray Data is a batch engine with no native event-time windows/watermarks
(absent in the reference too — SURVEY.md §2.5); windows are expressed as:

- tumbling windows: a vectorized window-id column (epoch // size) + a plain
  groupby — embarrassingly parallel, one shuffle;
- session windows: one global ``sort([key, ts, id])`` (range shuffle), then
  a fully vectorized ``map_batches`` that finds gap boundaries with numpy
  inside each sorted batch; sessions that could straddle a batch edge (only
  those of each batch's FIRST and LAST key — everything between is provably
  complete, because a key spanning two sorted blocks must be last of one and
  first of the next) are stitched in one small driver pass. No per-group
  Python: the engine's cost is one sort plus O(rows) numpy, and the driver
  only ever sees O(batches x sessions-per-edge-key) stitch rows.

Both are DuckDB-oracle-checkable (GROUP BY floor(epoch/size); window
functions with lag + cumulative sum).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .agg import grouped_reduce

_US = 1_000_000


def add_tumbling_window(batch: pa.Table, ts_col: str = "ts", size_s: int = 3600, out: str = "window") -> pa.Table:
    """Append window id = floor(epoch_seconds / size) as int64 (vectorized)."""
    epoch_us = batch[ts_col].cast(pa.int64())
    win = pc.divide(epoch_us, pa.scalar(size_s * _US, pa.int64()))
    # floor for non-negative timestamps; integer division truncates toward 0
    return batch.append_column(out, win)


def tumbling_counts(ds, key: str = "event_type", ts_col: str = "ts", size_s: int = 3600):
    """Per-(key, window) count + value sum in integer micro-units."""

    def prep(t: pa.Table) -> pa.Table:
        t = add_tumbling_window(t, ts_col=ts_col, size_s=size_s)
        # DuckDB-oracle parity: Arrow's half_towards_infinity rounds halves
        # away from zero for both signs, matching DuckDB's round()
        vmicro = pc.cast(
            pc.round(
                pc.multiply(t["value"], 1_000_000.0),
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        )
        return pa.table(
            {key: t[key], "window": t["window"], "value_micro": vmicro}
        )

    return grouped_reduce(
        ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        [key, "window"],
        {"n": ("value_micro", "count"), "sum_value_micro": ("value_micro", "sum")},
    )


def sessionize(ds, key: str = "user_id", ts_col: str = "ts", id_col: str = "event_id", gap_s: int = 1800):
    """Gap-based session windows per key — sort + vectorized boundaries.

    Events are globally sorted by (key, ts, id) — the deterministic tiebreak
    mirrored in the oracle SQL — and a new session starts when the key
    changes or the gap to the previous event exceeds ``gap_s``. Emits one
    row per session: (key, session_id, n_events, start_us, end_us);
    ``session_id`` is the 0-based session index within the key.

    Scale shape: ONE range shuffle (the sort), then numpy-only batch work.
    Each sorted batch computes its sessions vectorized; only sessions
    belonging to a batch's first or last key can be split across batches —
    a key with events in two sorted blocks is necessarily the last key of
    one and the first key of the next — so interior keys finalize (with
    their session ids) inside the batch, and the tiny edge set
    (O(batches) keys) is stitched + ranked on the driver."""
    import ray.data as rd

    gap_us = gap_s * _US

    def block_sessions(t: pa.Table) -> pa.Table:
        n = t.num_rows
        key_type = t.schema.field(key).type
        if n == 0:
            return _empty_sessions(key, key_type)
        keys = t[key].to_numpy(zero_copy_only=False)
        ts_us = pc.cast(t[ts_col], pa.int64()).to_numpy(zero_copy_only=False)
        key_change = np.concatenate([[True], keys[1:] != keys[:-1]])
        gap_break = np.concatenate([[True], (ts_us[1:] - ts_us[:-1]) > gap_us])
        starts = np.flatnonzero(key_change | gap_break)
        ends = np.append(starts[1:], n)
        s_key = keys[starts]
        # 0-based session index within key (sessions of a key are contiguous)
        sess_idx = np.arange(len(starts), dtype=np.int64)
        key_first = np.concatenate([[True], s_key[1:] != s_key[:-1]])
        session_id = sess_idx - np.maximum.accumulate(
            np.where(key_first, sess_idx, 0)
        )
        edge = (s_key == keys[0]) | (s_key == keys[-1])
        return pa.table(
            {
                key: pa.array(s_key, key_type),
                "session_id": pa.array(session_id),
                "n_events": pa.array((ends - starts).astype(np.int64)),
                "start_us": pa.array(ts_us[starts]),
                "end_us": pa.array(ts_us[ends - 1]),
                "_edge": pa.array(edge),
            }
        )

    sessions = (
        ds.sort([key, ts_col, id_col])
        .map_batches(
            block_sessions,
            batch_format="pyarrow",
            batch_size=None,  # whole sorted blocks -> fewest edge rows
            zero_copy_batch=True,
        )
        .materialize()  # consumed twice (interior filter + edge collect)
    )
    interior = sessions.filter(
        expr="_edge == False"
    ).drop_columns(["_edge"])
    edge_rows = sessions.filter(expr="_edge == True").drop_columns(["_edge"]).take_all()
    if not edge_rows:
        return interior
    e = pd.DataFrame(edge_rows).sort_values([key, "start_us"], kind="stable")
    k = e[key].to_numpy()
    st = e["start_us"].to_numpy()
    en = e["end_us"].to_numpy()
    # chain-merge adjacent same-key partials whose gap closed across a block
    # edge (intervals per key are disjoint + ordered, so row-to-row suffices)
    joined = np.concatenate(
        [[False], (k[1:] == k[:-1]) & (st[1:] - en[:-1] <= gap_us)]
    )
    grp = np.cumsum(~joined) - 1
    e = e.assign(_grp=grp)
    stitched = (
        e.groupby("_grp", sort=True)
        .agg(
            **{
                key: (key, "first"),
                "n_events": ("n_events", "sum"),
                "start_us": ("start_us", "min"),
                "end_us": ("end_us", "max"),
            }
        )
        .reset_index(drop=True)
    )
    stitched["session_id"] = stitched.groupby(key, sort=False).cumcount()
    # rebuild the key column with the ORIGINAL dtype (block_sessions
    # preserved it; inferring here would make e.g. an int32/dictionary key
    # mismatch the interior schema and break the union)
    key_type = sessions.schema().base_schema.field(key).type
    out_tbl = pa.table(
        {
            key: pa.array(stitched[key].to_numpy(), type=key_type),
            "session_id": pa.array(stitched["session_id"].to_numpy(), pa.int64()),
            "n_events": pa.array(stitched["n_events"].to_numpy(), pa.int64()),
            "start_us": pa.array(stitched["start_us"].to_numpy(), pa.int64()),
            "end_us": pa.array(stitched["end_us"].to_numpy(), pa.int64()),
        }
    )
    return interior.union(rd.from_arrow(out_tbl))


def _empty_sessions(key: str, key_type) -> pa.Table:
    return pa.table(
        {
            key: pa.array([], key_type),
            "session_id": pa.array([], pa.int64()),
            "n_events": pa.array([], pa.int64()),
            "start_us": pa.array([], pa.int64()),
            "end_us": pa.array([], pa.int64()),
            "_edge": pa.array([], pa.bool_()),
        }
    )


def hopping_counts(
    ds,
    key: str = "event_type",
    ts_col: str = "ts",
    size_s: int = 3600,
    hop_s: int = 900,
):
    """Per-(key, window) count + value sum for HOPPING (sliding) windows:
    window w covers [w*hop, w*hop + size), so each event belongs to
    ~size/hop overlapping windows. The explode is fully vectorized
    (repeat + cumsum-offset arange, no Python per row); the groupby is the
    only shuffle. Output fan-out is size/hop x input rows — callers pick
    hop accordingly (exactly the tradeoff any streaming engine documents;
    the per-block pre-agg folds it back down before the shuffle).
    """
    size_us = size_s * _US
    hop_us = hop_s * _US

    def explode(t: pa.Table) -> pa.Table:
        us = t[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        # w*hop <= us < w*hop+size  =>  (us-size)//hop + 1 <= w <= us//hop
        lo = (us - size_us) // hop_us + 1
        hi = us // hop_us
        counts = hi - lo + 1
        idx = np.repeat(np.arange(len(us)), counts)
        pos = np.arange(int(counts.sum())) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        windows = lo[idx] + pos
        vmicro = pc.cast(
            pc.round(
                pc.multiply(t["value"], 1_000_000.0),
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                key: t[key].take(pa.array(idx, pa.int64())),
                "window": pa.array(windows, pa.int64()),
                "value_micro": pa.array(vmicro[idx], pa.int64()),
            }
        )

    # the per-block partial folds the size/hop fan-out right back down for
    # time-clustered blocks before the shuffle
    return grouped_reduce(
        ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True),
        [key, "window"],
        {"n": ("value_micro", "count"), "sum_value_micro": ("value_micro", "sum")},
    )


def cumulative_by_key(
    ds,
    key: str,
    order_cols: list,
    val_col: str,
    sum_col: str = "cum_val",
    count_col: str = "cum_n",
):
    """Per-key running (cumulative) sum + count — the SQL window
    ``sum(val) OVER (PARTITION BY key ORDER BY order_cols ROWS UNBOUNDED
    PRECEDING)``, emitted for EVERY input row (unlike sessionize, the
    output stays row-per-row and never funnels through the driver).

    Scale shape (two-pass distributed scan, the pack_sequences pattern):
    one range sort by (key, *order_cols), then pass 1 emits ONE summary
    row per sorted block — the block's first/last key-run partial sums
    plus the block's first-row sort tuple (O(blocks) driver rows). Only a
    block's FIRST key run can have history in earlier blocks (keys are
    contiguous after the sort), so the driver's carry loop produces one
    (base_sum, base_count) per block, broadcast as an exact-match dict
    keyed by the first-row tuple; pass 2 adds the base to the first run
    and a vectorized segment-local cumsum to everything else. Both passes
    run ``batch_size=None`` over the SAME materialized sorted dataset, so
    batches == stored blocks (the invariant pack_sequences already
    relies on); an unrecognized first-row tuple fails loudly rather than
    silently dropping a carry. Temporal sort columns are canonicalized to
    epoch int64 so dict keys hash identically in both passes.

    ``val_col`` must be an integer column (the repo's integer-unit
    convention: float money is converted to cents/micros upstream so the
    running sum is addition-order-free and DuckDB-oracle-exact).
    Returns the sorted ds with ``sum_col``/``count_col`` appended.
    """
    import ray

    if not pa.types.is_integer(ds.schema().base_schema.field(val_col).type):
        raise ValueError(
            f"cumulative_by_key: {val_col!r} must be integer "
            "(convert float units to cents/micros upstream)"
        )
    sort_keys = [key] + list(order_cols)
    sorted_ds = ds.sort(sort_keys).materialize()  # consumed twice

    def _first_tuple(t: pa.Table) -> tuple:
        out = []
        for c in sort_keys:
            col = t[c]
            if pa.types.is_temporal(col.type):
                col = pc.cast(col, pa.int64())
            out.append(col[0].as_py())
        return tuple(out)

    def summary(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"_n": pa.array([], pa.int64())})
        keys = t[key].to_numpy(zero_copy_only=False)
        if t[val_col].null_count:
            raise ValueError(f"cumulative_by_key: {val_col!r} contains nulls")
        vals = t[val_col].to_numpy(zero_copy_only=False).astype(np.int64)
        brk = np.flatnonzero(keys[1:] != keys[:-1])
        f_end = int(brk[0]) + 1 if brk.size else t.num_rows
        l_start = int(brk[-1]) + 1 if brk.size else 0
        cols = {"_n": pa.array([t.num_rows], pa.int64())}
        for i, v in enumerate(_first_tuple(t)):
            cols[f"_b{i}"] = pa.array([v])
        cols["_single"] = pa.array([not brk.size])
        cols["_fsum"] = pa.array([int(vals[:f_end].sum())], pa.int64())
        cols["_fcnt"] = pa.array([f_end], pa.int64())
        lk = t[key].slice(t.num_rows - 1, 1)
        if pa.types.is_temporal(lk.type):
            # canonicalize like _first_tuple so the carry-key comparison
            # (_lk vs next block's _b0) is type-consistent
            lk = pc.cast(lk, pa.int64())
        cols["_lk"] = lk
        cols["_lsum"] = pa.array([int(vals[l_start:].sum())], pa.int64())
        cols["_lcnt"] = pa.array([t.num_rows - l_start], pa.int64())
        return pa.table(cols)

    parts = sorted_ds.map_batches(
        summary, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    ).take_all()  # O(blocks) rows — the only driver materialization
    nb = len(sort_keys)
    parts = [p for p in parts if "_fsum" in p and p["_fsum"] is not None]
    # blocks own disjoint ranges of the sort tuple -> the first-row tuple
    # orders them (canonicalized: temporal already int64)
    parts.sort(key=lambda p: tuple(p[f"_b{i}"] for i in range(nb)))
    bases = {}
    carry_key, carry_sum, carry_cnt = object(), 0, 0
    for p in parts:
        blk = tuple(p[f"_b{i}"] for i in range(nb))
        fk, lk = p["_b0"], p["_lk"]
        if fk == carry_key:
            base_s, base_c = carry_sum, carry_cnt
        else:
            base_s, base_c = 0, 0
        bases[blk] = (base_s, base_c)
        if p["_single"]:
            # whole block is one key run: extend the open carry
            carry_key, carry_sum, carry_cnt = (
                lk, base_s + p["_lsum"], base_c + p["_lcnt"],
            )
        else:
            carry_key, carry_sum, carry_cnt = lk, p["_lsum"], p["_lcnt"]
    bases_ref = ray.put(bases)

    def add_cum(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            t = t.append_column(sum_col, pa.array([], pa.int64()))
            return t.append_column(count_col, pa.array([], pa.int64()))
        base = ray.get(bases_ref).get(_first_tuple(t))
        if base is None:
            raise RuntimeError(
                "cumulative_by_key: pass-2 batch does not align with a "
                "pass-1 block (batch/block invariant violated)"
            )
        keys = t[key].to_numpy(zero_copy_only=False)
        vals = t[val_col].to_numpy(zero_copy_only=False).astype(np.int64)
        cs = np.cumsum(vals)
        cn = np.arange(1, t.num_rows + 1, dtype=np.int64)
        change = np.concatenate([[True], keys[1:] != keys[:-1]])
        seg_id = np.cumsum(change) - 1
        seg_start = np.flatnonzero(change)
        prior_s = np.where(seg_start > 0, cs[seg_start - 1], 0)
        prior_n = np.where(seg_start > 0, cn[seg_start - 1], 0)
        out_s = cs - prior_s[seg_id]
        out_n = cn - prior_n[seg_id]
        first = seg_id == 0
        out_s[first] += base[0]
        out_n[first] += base[1]
        t = t.append_column(sum_col, pa.array(out_s, pa.int64()))
        return t.append_column(count_col, pa.array(out_n, pa.int64()))

    return sorted_ds.map_batches(
        add_cum, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )


def gap_stats(ds, key: str = "user_id", ts_col: str = "ts", id_col: str = "event_id"):
    """Per-key inter-event gap statistics — the distributed LAG window:
    ``date_diff(lag(ts) OVER (PARTITION BY key ORDER BY ts, id), ts)``
    folded to per-key (n_events, sum_gap_us, max_gap_us). Keys with a
    single event emit 0/0 (the oracle's coalesce pin); gaps depend only
    on the sorted ts sequence, so ties are tiebreak-free.

    Scale shape (the sessionize pattern): ONE range shuffle (sort by
    key, ts, id), then per-block numpy segment reductions via
    ``reduceat`` — per-key partials with first/last timestamps. Interior
    keys (not a block's first or last) finalize in-block; only the
    O(batches) edge partials reach the driver, where same-key runs
    chain-merge with their block-boundary gaps folded into sum and max.
    """
    import ray.data as rd

    cols = [key, "n_events", "sum_gap_us", "max_gap_us"]

    def _empty() -> pa.Table:
        kt = ds.schema().base_schema.field(key).type
        return pa.table(
            {
                key: pa.array([], kt),
                "n_events": pa.array([], pa.int64()),
                "sum_gap_us": pa.array([], pa.int64()),
                "max_gap_us": pa.array([], pa.int64()),
                "first_us": pa.array([], pa.int64()),
                "last_us": pa.array([], pa.int64()),
                "_edge": pa.array([], pa.bool_()),
            }
        )

    def block_parts(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return _empty()
        key_type = t.schema.field(key).type
        keys = t[key].to_numpy(zero_copy_only=False)
        ts_us = pc.cast(t[ts_col], pa.int64()).to_numpy(zero_copy_only=False)
        key_change = np.concatenate([[True], keys[1:] != keys[:-1]])
        starts = np.flatnonzero(key_change)
        ends = np.append(starts[1:], n)
        gaps = np.diff(ts_us)  # slot i = gap between row i and i+1
        valid = keys[1:] == keys[:-1]  # cross-key slots masked out
        # pad one trailing neutral slot so reduceat segments
        # [starts[i], starts[i+1]) cover every key's gap run in bounds
        gsum = np.concatenate([np.where(valid, gaps, 0), [0]])
        gmax = np.concatenate([np.where(valid, gaps, -1), [-1]])
        sum_gap = np.add.reduceat(gsum, starts)
        max_gap = np.maximum.reduceat(gmax, starts)  # -1 == "no gap yet"
        s_key = keys[starts]
        edge = (s_key == keys[0]) | (s_key == keys[-1])
        return pa.table(
            {
                key: pa.array(s_key, key_type),
                "n_events": pa.array((ends - starts).astype(np.int64)),
                "sum_gap_us": pa.array(sum_gap.astype(np.int64)),
                "max_gap_us": pa.array(max_gap.astype(np.int64)),
                "first_us": pa.array(ts_us[starts]),
                "last_us": pa.array(ts_us[ends - 1]),
                "_edge": pa.array(edge),
            }
        )

    parts = (
        ds.sort([key, ts_col, id_col])
        .map_batches(
            block_parts,
            batch_format="pyarrow",
            batch_size=None,  # whole sorted blocks -> fewest edge rows
            zero_copy_batch=True,
        )
        .materialize()  # consumed twice (interior filter + edge collect)
    )

    def finalize_interior(t: pa.Table) -> pa.Table:
        mg = t["max_gap_us"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                key: t[key],
                "n_events": t["n_events"],
                "sum_gap_us": t["sum_gap_us"],
                "max_gap_us": pa.array(np.maximum(mg, 0)),
            }
        )

    interior = (
        parts.filter(expr="_edge == False")
        .map_batches(finalize_interior, batch_format="pyarrow")
    )
    edge_rows = parts.filter(expr="_edge == True").take_all()
    if not edge_rows:
        return interior
    e = pd.DataFrame(edge_rows).sort_values(
        [key, "first_us"], kind="stable"
    )
    k = e[key].to_numpy()
    same = np.concatenate([[False], k[1:] == k[:-1]])
    bgap = np.concatenate(
        [[0], e["first_us"].to_numpy()[1:] - e["last_us"].to_numpy()[:-1]]
    )
    e = e.assign(
        _bg=np.where(same, bgap, 0), _bgm=np.where(same, bgap, -1)
    )
    g = (
        e.groupby(key, sort=True)
        .agg(
            n_events=("n_events", "sum"),
            _sg=("sum_gap_us", "sum"),
            _bgs=("_bg", "sum"),
            _m1=("max_gap_us", "max"),
            _m2=("_bgm", "max"),
        )
        .reset_index()
    )
    key_type = parts.schema().base_schema.field(key).type
    out_tbl = pa.table(
        {
            key: pa.array(g[key].to_numpy(), type=key_type),
            "n_events": pa.array(g["n_events"].to_numpy(), pa.int64()),
            "sum_gap_us": pa.array(
                (g["_sg"] + g["_bgs"]).to_numpy(), pa.int64()
            ),
            "max_gap_us": pa.array(
                np.maximum(np.maximum(g["_m1"], g["_m2"]), 0).to_numpy(),
                pa.int64(),
            ),
        }
    )
    return interior.union(rd.from_arrow(out_tbl)).select_columns(cols)


def moving_sum_by_key(
    ds,
    key: str,
    ts_col: str,
    id_col: str,
    val_col: str,
    frame: int = 3,
):
    """Bounded window frame: per-key moving sum over ``ROWS BETWEEN
    <frame> PRECEDING AND CURRENT ROW`` (ordered by ts, id), emitted for
    every row. ``val_col`` must be integer (the repo's integer-unit
    convention) so the sum is exact.

    Scale shape: ONE range sort, then per-block vectorized prefix-sum
    windows (mov[i] = cs[i] - cs[max(seg_start, i-frame) - 1]). Only
    rows whose window could cross a block edge leave the block: the
    first ``frame`` rows of each block's FIRST key segment (needy) and
    the last ``frame`` rows of its LAST segment (carry). Sorted blocks
    guarantee every true predecessor of a needy row is itself needy or
    in some block's carry, so the driver fixes the O(blocks x frame)
    needy set from the collected union and unions it back."""
    import ray.data as rd

    if not pa.types.is_integer(ds.schema().base_schema.field(val_col).type):
        raise ValueError(
            f"moving_sum_by_key: {val_col!r} must be integer "
            "(convert units upstream)"
        )

    out_cols = [key, id_col, "mov_sum", "mov_n"]

    def block_windows(t: pa.Table) -> pa.Table:
        n = t.num_rows
        key_type = t.schema.field(key).type
        id_type = t.schema.field(id_col).type
        if n == 0:
            return pa.table(
                {
                    key: pa.array([], key_type),
                    id_col: pa.array([], id_type),
                    "_ts": pa.array([], pa.int64()),
                    "_c": pa.array([], pa.int64()),
                    "mov_sum": pa.array([], pa.int64()),
                    "mov_n": pa.array([], pa.int64()),
                    "_kind": pa.array([], pa.int8()),  # 0 ok, 1 needy, 2 carry
                }
            )
        keys = t[key].to_numpy(zero_copy_only=False)
        c = t[val_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ts_us = pc.cast(t[ts_col], pa.int64()).to_numpy(zero_copy_only=False)
        idx = np.arange(n)
        key_change = np.concatenate([[True], keys[1:] != keys[:-1]])
        seg_start = np.maximum.accumulate(np.where(key_change, idx, 0))
        cs = np.concatenate([[0], np.cumsum(c)])  # cs[i+1] = sum c[0..i]
        win_start = np.maximum(seg_start, idx - frame)
        mov = cs[idx + 1] - cs[win_start]
        mov_n = idx - win_start + 1
        pos_in_seg = idx - seg_start
        needy = (keys == keys[0]) & (pos_in_seg < frame)
        # last <= frame rows of the block's LAST key segment: the only
        # rows a later block's needy head can reach back to
        carry = idx >= max(int(seg_start[-1]), n - frame)
        kind = np.zeros(n, np.int8)
        kind[needy] = 1
        kind[carry & ~needy] = 2  # a row can be both in tiny blocks: needy wins
        return pa.table(
            {
                key: pa.array(keys, key_type),
                id_col: t[id_col],
                "_ts": pa.array(ts_us),
                "_c": pa.array(c),
                "mov_sum": pa.array(mov),
                "mov_n": pa.array(mov_n.astype(np.int64)),
                "_kind": pa.array(kind),
            }
        )

    parts = (
        ds.sort([key, ts_col, id_col])
        .map_batches(
            block_windows,
            batch_format="pyarrow",
            batch_size=None,
            zero_copy_batch=True,
        )
        .materialize()
    )
    done = parts.filter(expr="_kind != 1").map_batches(
        lambda t: t.select(out_cols), batch_format="pyarrow"
    )
    # needy heads + every carry row (carries also already emitted above as
    # complete rows — they serve only as predecessor context here)
    edge = parts.filter(expr="_kind != 0").take_all()
    if not edge:
        return done
    import pandas as pd

    e = pd.DataFrame(edge).sort_values(
        [key, "_ts", id_col], kind="stable"
    ).reset_index(drop=True)
    k = e[key].to_numpy()
    cvals = e["_c"].to_numpy()
    kinds = e["_kind"].to_numpy()
    seg = np.concatenate([[True], k[1:] != k[:-1]])
    idx = np.arange(len(e))
    seg_start = np.maximum.accumulate(np.where(seg, idx, 0))
    cs = np.concatenate([[0], np.cumsum(cvals)])
    win_start = np.maximum(seg_start, idx - frame)
    mov = cs[idx + 1] - cs[win_start]
    mov_n = (idx - win_start + 1).astype(np.int64)
    needy_mask = kinds == 1
    key_type = parts.schema().base_schema.field(key).type
    id_type = parts.schema().base_schema.field(id_col).type
    fixed = pa.table(
        {
            key: pa.array(e[key].to_numpy()[needy_mask], key_type),
            id_col: pa.array(e[id_col].to_numpy()[needy_mask], id_type),
            "mov_sum": pa.array(mov[needy_mask]),
            "mov_n": pa.array(mov_n[needy_mask]),
        }
    )
    return done.union(rd.from_arrow(fixed)).select_columns(out_cols)


def moving_time_sum_by_key(
    ds,
    key: str,
    ts_col: str,
    id_col: str,
    val_col: str,
    span_us: int = 3_600_000_000,
):
    """TIME-RANGE window frame: per-key moving sum/count over ``RANGE
    BETWEEN <span> PRECEDING AND CURRENT ROW`` (ordered by ts) — the
    trailing-window feature primitive (value in the last hour per user,
    evaluated at every event). ``val_col`` must be integer (exact sums).

    Ordering-uniqueness precondition: duplicate ``(key, ts)`` pairs are
    REJECTED loudly. SQL RANGE frames include forward PEERS (equal order
    values), which would break block-local computation whenever a tie
    straddles a block split; with unique (key, ts) the frame is purely
    backward. Sorted blocks put duplicates adjacent — the in-block check
    catches same-block ties and the driver's edge-union pass catches
    block-straddling ones.

    Scale shape (the moving_sum_by_key skeleton on a time axis): ONE
    range sort; per block each window resolves with one vectorized
    searchsorted over a segment-offset time axis + a prefix-sum gather.
    Only rows whose lookback crosses the block head (needy — first key
    segment, ``ts - span < block first ts``; every in-block window member
    of a needy row is itself needy, so the driver recompute is closed)
    and the final-span rows of the block's last segment (carry — a
    predecessor p of a later needy r satisfies ``ts_p >= ts_r - span >=
    (p's block's last key ts) - span``, so the carry set provably
    contains every cross-block predecessor; key runs spanning 3+ blocks
    chain through carries) leave the block. The partitioning assumption
    — events per key per span is bounded — is the one every range-window
    engine makes; the driver fix is O(blocks x rows-in-span)."""
    import ray.data as rd

    if not pa.types.is_integer(ds.schema().base_schema.field(val_col).type):
        raise ValueError(
            f"moving_time_sum_by_key: {val_col!r} must be integer "
            "(convert units upstream)"
        )
    span = np.int64(span_us)
    out_cols = [key, id_col, "mov_sum", "mov_n"]

    def _reject_ties(keys, ts_us, where: str) -> None:
        if len(ts_us) > 1:
            same = (keys[1:] == keys[:-1]) & (ts_us[1:] == ts_us[:-1])
            if same.any():
                raise ValueError(
                    f"moving_time_sum_by_key: duplicate (key, ts) pair "
                    f"({where}) — RANGE peer semantics need a unique "
                    "(key, ts) ordering; dedupe or add a tiebreaker "
                    "upstream"
                )

    def _windows(keys, ts_us, c):
        """(mov, n) over a (key, ts)-sorted span via one searchsorted."""
        n = len(keys)
        idx = np.arange(n)
        key_change = np.concatenate([[True], keys[1:] != keys[:-1]])
        seg_id = np.cumsum(key_change) - 1
        # ts is sorted only WITHIN segments — the offset stride must clear
        # the block's full ts range plus the span on both sides
        big = np.int64(
            (int(ts_us.max()) - int(ts_us.min())) + 2 * int(span) + 1
        ) if n else np.int64(1)
        tglob = ts_us + seg_id.astype(np.int64) * big
        lo = np.searchsorted(tglob, tglob - span, side="left")
        cs = np.concatenate([[0], np.cumsum(c)])
        return cs[idx + 1] - cs[lo], (idx - lo + 1).astype(np.int64)

    def block_windows(t: pa.Table) -> pa.Table:
        n = t.num_rows
        key_type = t.schema.field(key).type
        id_type = t.schema.field(id_col).type
        if n == 0:
            return pa.table(
                {
                    key: pa.array([], key_type),
                    id_col: pa.array([], id_type),
                    "_ts": pa.array([], pa.int64()),
                    "_c": pa.array([], pa.int64()),
                    "mov_sum": pa.array([], pa.int64()),
                    "mov_n": pa.array([], pa.int64()),
                    "_kind": pa.array([], pa.int8()),  # 0 ok, 1 needy, 2 carry
                }
            )
        keys = t[key].to_numpy(zero_copy_only=False)
        c = t[val_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ts_us = pc.cast(t[ts_col], pa.int64()).to_numpy(zero_copy_only=False)
        _reject_ties(keys, ts_us, "within a block")
        mov, mov_n = _windows(keys, ts_us, c)
        idx = np.arange(n)
        key_change = np.concatenate([[True], keys[1:] != keys[:-1]])
        seg_start = np.maximum.accumulate(np.where(key_change, idx, 0))
        needy = (keys == keys[0]) & (ts_us - span < ts_us[0])
        carry = (idx >= int(seg_start[-1])) & (ts_us >= ts_us[-1] - span)
        kind = np.zeros(n, np.int8)
        kind[needy] = 1
        kind[carry & ~needy] = 2
        return pa.table(
            {
                key: pa.array(keys, key_type),
                id_col: t[id_col],
                "_ts": pa.array(ts_us),
                "_c": pa.array(c),
                "mov_sum": pa.array(mov),
                "mov_n": pa.array(mov_n),
                "_kind": pa.array(kind),
            }
        )

    parts = (
        ds.sort([key, ts_col, id_col])
        .map_batches(
            block_windows,
            batch_format="pyarrow",
            batch_size=None,
            zero_copy_batch=True,
        )
        .materialize()
    )
    done = parts.filter(expr="_kind != 1").map_batches(
        lambda t: t.select(out_cols), batch_format="pyarrow"
    )
    edge = parts.filter(expr="_kind != 0").take_all()
    if not edge:
        return done
    import pandas as pd

    e = pd.DataFrame(edge).sort_values(
        [key, "_ts", id_col], kind="stable"
    ).reset_index(drop=True)
    k = e[key].to_numpy()
    ts_us = e["_ts"].to_numpy()
    _reject_ties(k, ts_us, "straddling a block edge")
    mov, mov_n = _windows(k, ts_us, e["_c"].to_numpy())
    needy_mask = e["_kind"].to_numpy() == 1
    key_type = parts.schema().base_schema.field(key).type
    id_type = parts.schema().base_schema.field(id_col).type
    fixed = pa.table(
        {
            key: pa.array(e[key].to_numpy()[needy_mask], key_type),
            id_col: pa.array(e[id_col].to_numpy()[needy_mask], id_type),
            "mov_sum": pa.array(mov[needy_mask]),
            "mov_n": pa.array(mov_n[needy_mask]),
        }
    )
    return done.union(rd.from_arrow(fixed)).select_columns(out_cols)


def time_weighted_sum(
    ds, key: str, ts_col: str, id_col: str, val_col: str
):
    """Per-key TIME-WEIGHTED value aggregate (the telemetry/billing
    primitive): each event's integer value is held until the key's next
    event and weighted by the gap in whole seconds —
    ``sum(val * ((next_ts - ts) // 1s))`` plus the matching
    ``sum(gap_s)`` denominator and the event count. The last event of a
    key (no successor) contributes nothing, singletons pin 0/0 (the
    oracle's coalesce). ``val_col`` must be integer; equal-timestamp
    ties are pinned by the (ts, id) sort in BOTH engines (a zero gap's
    position changes which value absorbs the next span).

    Scale shape (the gap_stats pattern): ONE range shuffle, per-block
    reduceat partials carrying (first_us, last_us, last value); only
    O(batches) edge partials reach the driver, where same-key runs
    chain-merge — each block boundary contributes the PREVIOUS
    partial's last value times the boundary gap."""
    import ray.data as rd

    if not pa.types.is_integer(ds.schema().base_schema.field(val_col).type):
        raise ValueError(
            f"time_weighted_sum: {val_col!r} must be integer"
        )
    cols = [key, "n_events", "sum_gap_s", "weighted_val_s"]

    def _empty() -> pa.Table:
        kt = ds.schema().base_schema.field(key).type
        return pa.table(
            {
                key: pa.array([], kt),
                "n_events": pa.array([], pa.int64()),
                "sum_gap_s": pa.array([], pa.int64()),
                "weighted_val_s": pa.array([], pa.int64()),
                "first_us": pa.array([], pa.int64()),
                "last_us": pa.array([], pa.int64()),
                "last_c": pa.array([], pa.int64()),
                "_edge": pa.array([], pa.bool_()),
            }
        )

    def block_parts(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return _empty()
        key_type = t.schema.field(key).type
        keys = t[key].to_numpy(zero_copy_only=False)
        ts_us = pc.cast(t[ts_col], pa.int64()).to_numpy(zero_copy_only=False)
        c = t[val_col].to_numpy(zero_copy_only=False).astype(np.int64)
        key_change = np.concatenate([[True], keys[1:] != keys[:-1]])
        starts = np.flatnonzero(key_change)
        ends = np.append(starts[1:], n)
        valid = keys[1:] == keys[:-1]
        gaps_s = np.where(valid, np.diff(ts_us) // _US, 0)
        contrib = c[:-1] * gaps_s
        gpad = np.concatenate([gaps_s, [0]])
        wpad = np.concatenate([contrib, [0]])
        sum_gap = np.add.reduceat(gpad, starts)
        wsum = np.add.reduceat(wpad, starts)
        s_key = keys[starts]
        edge = (s_key == keys[0]) | (s_key == keys[-1])
        return pa.table(
            {
                key: pa.array(s_key, key_type),
                "n_events": pa.array((ends - starts).astype(np.int64)),
                "sum_gap_s": pa.array(sum_gap.astype(np.int64)),
                "weighted_val_s": pa.array(wsum.astype(np.int64)),
                "first_us": pa.array(ts_us[starts]),
                "last_us": pa.array(ts_us[ends - 1]),
                "last_c": pa.array(c[ends - 1]),
                "_edge": pa.array(edge),
            }
        )

    parts = (
        ds.sort([key, ts_col, id_col])
        .map_batches(
            block_parts,
            batch_format="pyarrow",
            batch_size=None,
            zero_copy_batch=True,
        )
        .materialize()
    )
    interior = parts.filter(expr="_edge == False").map_batches(
        lambda t: t.select(cols), batch_format="pyarrow"
    )
    edge_rows = parts.filter(expr="_edge == True").take_all()
    if not edge_rows:
        return interior
    e = pd.DataFrame(edge_rows).sort_values(
        [key, "first_us"], kind="stable"
    )
    k = e[key].to_numpy()
    same = np.concatenate([[False], k[1:] == k[:-1]])
    fu = e["first_us"].to_numpy()
    lu = e["last_us"].to_numpy()
    lc = e["last_c"].to_numpy()
    bg = np.concatenate([[0], (fu[1:] - lu[:-1]) // _US])
    bw = np.concatenate([[0], lc[:-1] * bg[1:]])
    e = e.assign(
        _bg=np.where(same, bg, 0), _bw=np.where(same, bw, 0)
    )
    g = (
        e.groupby(key, sort=True)
        .agg(
            n_events=("n_events", "sum"),
            _sg=("sum_gap_s", "sum"),
            _bgs=("_bg", "sum"),
            _w=("weighted_val_s", "sum"),
            _bws=("_bw", "sum"),
        )
        .reset_index()
    )
    key_type = parts.schema().base_schema.field(key).type
    out_tbl = pa.table(
        {
            key: pa.array(g[key].to_numpy(), type=key_type),
            "n_events": pa.array(g["n_events"].to_numpy(), pa.int64()),
            "sum_gap_s": pa.array((g["_sg"] + g["_bgs"]).to_numpy(), pa.int64()),
            "weighted_val_s": pa.array(
                (g["_w"] + g["_bws"]).to_numpy(), pa.int64()
            ),
        }
    )
    return interior.union(rd.from_arrow(out_tbl)).select_columns(cols)


def grouped_weighted_median(
    ds,
    key: str,
    val_col: str,
    weight_col: str,
    out_col: str = "wmedian",
):
    """Lower weighted median per group: the smallest value v such that the
    cumulative weight of all values <= v reaches half the group's total
    weight (the classic robust-statistics selection; with unit weights it
    degenerates to percentile_disc(0.5)).

    Scale shape: the (key, value) stream pre-aggregates weights per block
    (pyarrow group_by — the distinct-value stream is what shuffles, not the
    rows), the cumulative weight rides ``cumulative_by_key``'s two-pass
    distributed scan over the value-sorted stream, group totals are a tiny
    broadcast, and the selection is a filter + groupby-min. Values and
    weights must already be integers (the repo's integer-unit convention).
    """
    import ray
    from ray.data.aggregate import Min

    for c in (val_col, weight_col):
        if not pa.types.is_integer(ds.schema().base_schema.field(c).type):
            raise ValueError(
                f"grouped_weighted_median: {c!r} must be integer "
                "(convert units upstream)"
            )

    def pre_agg(t: pa.Table) -> pa.Table:
        g = t.group_by([key, val_col]).aggregate([(weight_col, "sum")])
        # pyarrow emits key columns first, then aggregates in call order
        return g.rename_columns([key, val_col, "w"])

    agged = ds.map_batches(
        pre_agg, batch_format="pyarrow", zero_copy_batch=True
    )
    cum = cumulative_by_key(
        agged,
        key=key,
        order_cols=[val_col],
        val_col="w",
        sum_col="_cw",
        count_col="_cn",
    ).materialize()  # consumed twice: totals + selection
    tot_rows = cum.groupby(key).sum("w").take_all()  # one row per group
    key_type = ds.schema().base_schema.field(key).type
    tot_keys = pa.array([r[key] for r in tot_rows], key_type)
    tot_w = np.array([int(r["sum(w)"]) for r in tot_rows], dtype=np.int64)
    tot_ref = ray.put((tot_keys, tot_w))

    def select(t: pa.Table) -> pa.Table:
        keys_arr, w_arr = ray.get(tot_ref)
        idx = pc.index_in(t[key], value_set=keys_arr).to_numpy(
            zero_copy_only=False
        )
        cw = t["_cw"].to_numpy(zero_copy_only=False)
        m = pa.array(2 * cw >= w_arr[idx])
        return pa.table({key: t[key].filter(m), val_col: t[val_col].filter(m)})

    hits = cum.map_batches(select, batch_format="pyarrow")
    return (
        hits.groupby(key).aggregate(Min(val_col, alias_name=out_col)).sort(key)
    )
