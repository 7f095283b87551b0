"""Event-time windowing over an ordered, partitioned log (stream-shaped ops).

Ray Data is a batch engine with no native event-time windows/watermarks
(absent in the reference too — SURVEY.md §2.5); windows are expressed as:

- tumbling and hopping windows: a vectorized window-id column
  (epoch // size) + one pre-aggregated groupby — embarrassingly parallel,
  one shuffle;
- ordered windows (sessions, LAG gaps, moving and time-weighted sums, and
  the journey operators in ``journeys.py``): ONE physical plan,
  :func:`sorted_blocks`. One global ``sort([key, ts, id])`` (range
  shuffle), then one vectorized pass over each WHOLE sorted block, then a
  small driver stitch of only the rows whose key can straddle a block edge.
  Everything between a block's first and last key is provably complete,
  because a key spanning two sorted blocks must be last of one and first
  of the next. No per-group Python: the engine's cost is one sort plus
  O(rows) numpy, and the driver only ever sees O(blocks) stitch rows.

A block function tags every row it emits with an int8 ``_kind``:

- 0 — final: the row is part of the answer as it stands;
- 1 — edge: the driver recomputes it from the collected edge rows;
- 2 — final AND driver context: complete itself, but a later block's edge
  rows reach back to it (the moving sums' carry rows).

``cumulative_by_key`` is the two-pass variant (a per-block summary, then a
carry-applying pass) for running sums emitted row-per-row.

All are DuckDB-oracle-checkable (GROUP BY floor(epoch/size); window
functions with lag + cumulative sum).
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import collect_table, grouped_reduce

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


def sorted_blocks(ds, sort_keys: list, block_fn, caller: str):
    """The one physical plan of the ordered-window family -> ``(done, edges)``.

    Runs ONE range sort by ``sort_keys``, then ``block_fn`` over each whole
    sorted block (``batch_size=None``: whole blocks give the fewest edge
    rows, O(blocks) in all), materialized once because the parts are read
    twice. ``block_fn`` tags every row with the module's ``_kind``
    convention. Returns the lazy Dataset of the ``_kind`` 0 and 2 rows
    (``_kind`` dropped) and the ``_kind`` 1 and 2 rows collected as one
    typed ``pa.Table`` — its columns keep the block function's Arrow types,
    so no stitch rebuilds a key type — or None when no block emitted one.

    Ray never hands ``map_batches`` an empty block, so a block function
    needs no 0-row branch; a 0-row input runs it never and gives a
    schema-less ``done`` and ``edges=None``.

    NULL sort keys are refused by name: a NULL would become NaN in an
    integer key's ``to_numpy`` and split into its own run under ``keys[1:]
    != keys[:-1]``. The check runs inside each block task, because a map
    stage ahead of the sort does not fuse with a split read
    (``read_parquet(override_num_blocks=...)``) and costs a stage per
    query. The one NULL no block function sees — a string key with more
    than one block, on which Ray's sort partitioning raises ``TypeError``
    comparing None — is named by a scan that only that failure pays for.
    """

    def refuse_nulls(t: pa.Table) -> pa.Table:
        for c in sort_keys:
            if t[c].null_count:
                raise ValueError(f"{caller}: sort key {c!r} contains NULLs")
        return t

    @functools.wraps(block_fn)  # plans and stats keep the kernel's name
    def checked_block(t: pa.Table) -> pa.Table:
        return block_fn(refuse_nulls(t))

    whole = dict(batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
    try:
        parts = (
            ds.sort(sort_keys)
            .map_batches(checked_block, **whole)
            .materialize()  # consumed twice (final rows + edge collect)
        )
    except TypeError:
        ds.map_batches(refuse_nulls, **whole).materialize()
        raise
    done = parts.filter(expr="_kind != 1").drop_columns(["_kind"])
    edges = collect_table(parts.filter(expr="_kind != 0"))
    return done, edges if edges.num_rows else None


def key_change(keys: np.ndarray) -> np.ndarray:
    """True where a sorted key column starts a new run."""
    return np.concatenate([[True], keys[1:] != keys[:-1]])


def rank_in_key(keys: np.ndarray) -> np.ndarray:
    """0-based position of each row within its run of equal sorted keys."""
    idx = np.arange(len(keys), dtype=np.int64)
    return idx - np.maximum.accumulate(np.where(key_change(keys), idx, 0))


def edge_kind(run_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``_kind`` of per-key-run rows: 1 for the block's first and last key
    (the only ones that can continue in a neighbouring block), else 0."""
    return ((run_keys == keys[0]) | (run_keys == keys[-1])).astype(np.int8)


def _epoch_us(t: pa.Table, col: str) -> np.ndarray:
    return pc.cast(t[col], pa.int64()).to_numpy(zero_copy_only=False)


def _require_integer(ds, col: str, caller: str) -> None:
    if not pa.types.is_integer(ds.schema().base_schema.field(col).type):
        raise ValueError(
            f"{caller}: {col!r} must be integer (convert float units to "
            "cents/micros upstream)"
        )


def sessionize(ds, key: str = "user_id", ts_col: str = "ts", id_col: str = "event_id", gap_s: int = 1800):
    """Gap-based session windows per key — sort + vectorized boundaries.

    Events are globally sorted by (key, ts, id) — the deterministic tiebreak
    mirrored in the oracle SQL — and a new session starts when the key
    changes or the gap to the previous event exceeds ``gap_s``. Emits one
    row per session: (key, session_id, n_events, start_us, end_us);
    ``session_id`` is the 0-based session index within the key.

    Scale shape (:func:`sorted_blocks`): each sorted block computes its
    sessions vectorized; only sessions of a block's first or last key can
    be split across blocks, so interior keys finalize (with their session
    ids) inside the block, and the tiny edge set (O(blocks) keys) is
    stitched + ranked on the driver."""
    import ray.data as rd

    gap_us = gap_s * _US

    def block_sessions(t: pa.Table) -> pa.Table:
        keys = t[key].to_numpy(zero_copy_only=False)
        ts_us = _epoch_us(t, ts_col)
        gap_break = np.concatenate([[True], (ts_us[1:] - ts_us[:-1]) > gap_us])
        starts = np.flatnonzero(key_change(keys) | gap_break)
        ends = np.append(starts[1:], t.num_rows)
        return pa.table(
            {
                key: t[key].take(starts),
                # sessions of a key are contiguous
                "session_id": rank_in_key(keys[starts]),
                "n_events": ends - starts,
                "start_us": ts_us[starts],
                "end_us": ts_us[ends - 1],
                "_kind": edge_kind(keys[starts], keys),
            }
        )

    done, e = sorted_blocks(ds, [key, ts_col, id_col], block_sessions, "sessionize")
    if e is None:
        return done
    e = e.sort_by([(key, "ascending"), ("start_us", "ascending")])
    k = e[key].to_numpy(zero_copy_only=False)
    st = e["start_us"].to_numpy()
    en = e["end_us"].to_numpy()
    # chain-merge adjacent same-key partials whose gap closed across a block
    # edge (intervals per key are disjoint + ordered, so row-to-row suffices)
    joined = (k[1:] == k[:-1]) & (st[1:] - en[:-1] <= gap_us)
    heads = np.flatnonzero(np.concatenate([[True], ~joined]))
    stitched = pa.table(
        {
            key: e[key].take(heads),
            "session_id": rank_in_key(k[heads]),
            "n_events": np.add.reduceat(e["n_events"].to_numpy(), heads),
            "start_us": st[heads],
            "end_us": np.maximum.reduceat(en, heads),
        }
    )
    return done.union(rd.from_arrow(stitched))


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
    row per sorted block — the block's last key-run partial sum and count
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

    _require_integer(ds, val_col, "cumulative_by_key")
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
        keys = t[key].to_numpy(zero_copy_only=False)
        if t[val_col].null_count:
            raise ValueError(f"cumulative_by_key: {val_col!r} contains nulls")
        vals = t[val_col].to_numpy(zero_copy_only=False).astype(np.int64)
        brk = np.flatnonzero(keys[1:] != keys[:-1])
        l_start = int(brk[-1]) + 1 if brk.size else 0
        cols = {f"_b{i}": pa.array([v]) for i, v in enumerate(_first_tuple(t))}
        cols["_single"] = pa.array([not brk.size])
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

    Scale shape: :func:`_pair_fold` — per-block ``reduceat`` partials with
    first/last timestamps; only the O(blocks) edge partials reach the
    driver, where same-key runs chain-merge with their block-boundary gaps
    folded into sum and max.
    """
    return _pair_fold(
        ds, key, ts_col, id_col, None, "gap_stats",
        lambda gap_us, _: {
            "sum_gap_us": (gap_us, np.add),
            "max_gap_us": (gap_us, np.maximum),
        },
    )


def _pair_fold(ds, key, ts_col, id_col, val_col, caller, terms):
    """Per-key fold over the adjacent event pairs of each key's (ts, id)
    stream plus the event count — the body of ``gap_stats`` and
    ``time_weighted_sum``.

    ``terms(gap_us, prev_c)`` maps each output column to ``(values, op)``
    for pairs with gaps ``gap_us`` whose EARLIER event holds ``prev_c``
    (``val_col``'s value; 0 without one); ``op`` is ``np.add`` or
    ``np.maximum``, and 0 is neutral for both because gaps within a
    (key, ts)-sorted stream are >= 0. Each sorted block folds its in-block
    pairs per key with one ``reduceat`` and carries the key's (first_us,
    last_us, last value); the driver chain-merges the same-key edge
    partials, folding in each block boundary's pair — whose earlier event
    is the PREVIOUS partial's last.
    """
    import ray.data as rd

    def block_parts(t: pa.Table) -> pa.Table:
        n = t.num_rows
        keys = t[key].to_numpy(zero_copy_only=False)
        ts_us = _epoch_us(t, ts_col)
        c = (
            t[val_col].to_numpy(zero_copy_only=False).astype(np.int64)
            if val_col else np.zeros(n, np.int64)
        )
        starts = np.flatnonzero(key_change(keys))
        ends = np.append(starts[1:], n)
        valid = keys[1:] == keys[:-1]  # cross-key slots masked out
        out = {key: t[key].take(starts), "n_events": ends - starts}
        for name, (x, op) in terms(np.diff(ts_us), c[:-1]).items():
            # pad one trailing neutral slot so reduceat segments
            # [starts[i], starts[i+1]) cover every key's pair run in bounds
            out[name] = op.reduceat(np.append(np.where(valid, x, 0), 0), starts)
        out.update(
            first_us=ts_us[starts],
            last_us=ts_us[ends - 1],
            last_c=c[ends - 1],
            _kind=edge_kind(keys[starts], keys),
        )
        return pa.table(out)

    done, e = sorted_blocks(ds, [key, ts_col, id_col], block_parts, caller)
    done = done.drop_columns(["first_us", "last_us", "last_c"])
    if e is None:
        return done
    e = e.sort_by([(key, "ascending"), ("first_us", "ascending")])
    k = e[key].to_numpy(zero_copy_only=False)
    same = k[1:] == k[:-1]
    heads = np.flatnonzero(key_change(k))
    boundary = terms(
        e["first_us"].to_numpy()[1:] - e["last_us"].to_numpy()[:-1],
        e["last_c"].to_numpy()[:-1],
    )
    out = {
        key: e[key].take(heads),
        "n_events": np.add.reduceat(e["n_events"].to_numpy(), heads),
    }
    for name, (b, op) in boundary.items():
        # each partial folds in the boundary pair that joins it to the
        # previous same-key partial, then the key's partials fold together
        rows = op(e[name].to_numpy(), np.append(0, np.where(same, b, 0)))
        out[name] = op.reduceat(rows, heads)
    return done.union(rd.from_arrow(pa.table(out)))


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

    def rows_frame(keys, ts_us, c, where):
        n = len(keys)
        idx = np.arange(n)
        back = np.minimum(rank_in_key(keys), frame)  # window rows before i
        cs = np.concatenate([[0], np.cumsum(c)])  # cs[i+1] = sum c[0..i]
        needy = (keys == keys[0]) & (idx < frame)
        # last <= frame rows of the block's LAST key segment: the only
        # rows a later block's needy head can reach back to
        carry = (keys == keys[-1]) & (idx >= n - frame)
        return cs[idx + 1] - cs[idx - back], back + 1, needy, carry

    return _moving_sum(
        ds, key, ts_col, id_col, val_col, "moving_sum_by_key", rows_frame
    )


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
    span = np.int64(span_us)

    def time_frame(keys, ts_us, c, where):
        if ((keys[1:] == keys[:-1]) & (ts_us[1:] == ts_us[:-1])).any():
            raise ValueError(
                f"moving_time_sum_by_key: duplicate (key, ts) pair "
                f"({where}) — RANGE peer semantics need a unique "
                "(key, ts) ordering; dedupe or add a tiebreaker "
                "upstream"
            )
        idx = np.arange(len(keys))
        seg_id = np.cumsum(key_change(keys)) - 1
        # ts is sorted only WITHIN segments — the offset stride must clear
        # the block's full ts range plus the span on both sides
        big = np.int64(int(ts_us.max()) - int(ts_us.min()) + 2 * int(span) + 1)
        tglob = ts_us + seg_id.astype(np.int64) * big
        lo = np.searchsorted(tglob, tglob - span, side="left")
        cs = np.concatenate([[0], np.cumsum(c)])
        needy = (keys == keys[0]) & (ts_us - span < ts_us[0])
        carry = (keys == keys[-1]) & (ts_us >= ts_us[-1] - span)
        return cs[idx + 1] - cs[lo], (idx - lo + 1).astype(np.int64), needy, carry

    return _moving_sum(
        ds, key, ts_col, id_col, val_col, "moving_time_sum_by_key", time_frame
    )


def _moving_sum(ds, key, ts_col, id_col, val_col, caller, frame_fn):
    """Body of the two moving sums. ``frame_fn(keys, ts_us, c, where)``
    returns ``(mov_sum, mov_n, needy, carry)`` over a (key, ts, id)-sorted
    span (``where`` names the span in error messages). Each block emits
    every row; needy rows (``_kind`` 1) are recomputed by the driver with
    the same ``frame_fn`` over the sorted union of every block's needy and
    carry (``_kind`` 2) rows, and carries also stay final as they are."""
    import ray.data as rd

    _require_integer(ds, val_col, caller)

    def block_windows(t: pa.Table) -> pa.Table:
        keys = t[key].to_numpy(zero_copy_only=False)
        c = t[val_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ts_us = _epoch_us(t, ts_col)
        mov, mov_n, needy, carry = frame_fn(keys, ts_us, c, "within a block")
        # a row can be both in tiny blocks: needy wins
        kind = np.where(needy, 1, np.where(carry, 2, 0)).astype(np.int8)
        return pa.table(
            {
                key: t[key],
                id_col: t[id_col],
                "_ts": ts_us,
                "_c": c,
                "mov_sum": mov,
                "mov_n": mov_n,
                "_kind": kind,
            }
        )

    done, e = sorted_blocks(ds, [key, ts_col, id_col], block_windows, caller)
    done = done.drop_columns(["_ts", "_c"])
    if e is None:
        return done
    e = e.sort_by([(key, "ascending"), ("_ts", "ascending"), (id_col, "ascending")])
    mov, mov_n, _, _ = frame_fn(
        e[key].to_numpy(zero_copy_only=False),
        e["_ts"].to_numpy(),
        e["_c"].to_numpy(),
        "straddling a block edge",
    )
    needy = e["_kind"].to_numpy() == 1
    fixed = pa.table(
        {
            key: e[key].filter(needy),
            id_col: e[id_col].filter(needy),
            "mov_sum": mov[needy],
            "mov_n": mov_n[needy],
        }
    )
    return done.union(rd.from_arrow(fixed))


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

    Scale shape (the gap_stats body, :func:`_pair_fold`): per-block
    reduceat partials carrying (first_us, last_us, last value); only
    O(blocks) edge partials reach the driver, where same-key runs
    chain-merge — each block boundary contributes the PREVIOUS
    partial's last value times the boundary gap."""
    _require_integer(ds, val_col, "time_weighted_sum")

    def terms(gap_us, prev_c):
        gap_s = gap_us // _US
        return {"sum_gap_s": (gap_s, np.add), "weighted_val_s": (prev_c * gap_s, np.add)}

    return _pair_fold(ds, key, ts_col, id_col, val_col, "time_weighted_sum", terms)


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
        _require_integer(ds, c, "grouped_weighted_median")

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
