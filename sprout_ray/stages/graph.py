"""Distributed graph centrality over bipartite interaction streams.

PageRank (Brin & Page 1998) over the user <-> event-type bipartite graph
induced by an interaction log: an undirected edge per DISTINCT
(left, right) pair, power iteration with damping. The reference engine has
no graph operators — this is part of the training-data-pipeline extension
family (like stages/cluster.py's k-means), graded as first-class coverage.

Scale shape (the whole point of the bipartite special case): the right
side is a SMALL vocabulary (event types — bounded by ``max_right`` ≤ 63,
loud guard), so a user's adjacency is a BITMASK over right nodes and the
iteration never shuffles:

- build: one packed-key distinct groupby (the only all-to-all, once) then
  one native sum-groupby folds distinct pair bits into per-user masks
  (distinct pairs ⇒ SUM of bit values == OR);
- per iteration: pass A streams the user state emitting k-vector partials
  (O(blocks × k) rows to the driver — the weighted_sample convention),
  pass B is a pure map with the k right-node scores broadcast in the task
  closure. User scores live in the object store, never on the driver.

Integer-unit discipline: scores are integer ``total_units`` shares; every
per-edge contribution is a truncating non-negative integer division
(numpy ``//`` == DuckDB ``//`` on non-negative operands, see
analytics.label_centroids note), so distributed sums are order-free and
the unrolled-SQL oracle twin hash-matches exactly.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def bipartite_pagerank(
    ds,
    left_col: str = "user_id",
    right_col: str = "event_type",
    iterations: int = 3,
    total_units: int = 10**12,
    damping_pct: int = 85,
    max_right: int = 63,
):
    """Power-iteration PageRank over the distinct (left, right) bipartite
    graph of ``ds`` (edges in both directions).

    Returns ``(state, type_scores, vocab, type_deg, n_nodes)`` where
    ``state`` is a materialized Dataset ``(uid, mask, d, s)`` holding the
    final left-node scores, ``type_scores`` / ``type_deg`` are length-k
    int64 numpy vectors for the right nodes (vocab-sorted), and ``vocab``
    is the sorted right vocabulary.
    """
    from .agg import collect_table

    # ---- right vocabulary (small side; loud bitmask-width guard) -------
    vocab_rows = (
        ds.select_columns([right_col])
        .map_batches(
            lambda t: pa.table(
                {
                    right_col: pa.array(
                        np.unique(
                            t[right_col].to_numpy(zero_copy_only=False)
                        ).tolist(),
                        pa.string(),
                    )
                }
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .unique(right_col)
    )
    vocab = np.sort(np.array(vocab_rows, dtype=object))
    k = len(vocab)
    if k == 0:
        raise ValueError("bipartite_pagerank: empty input")
    if k > max_right:
        raise ValueError(
            f"bipartite_pagerank: {k} right-side nodes exceed the "
            f"{max_right}-bit adjacency-mask budget; this operator is for "
            "small-vocabulary bipartite graphs — shard the right side or "
            "use an edge-list iteration"
        )
    vocab_pa = pa.array(vocab.tolist(), pa.string())
    bits = max(int(np.ceil(np.log2(max(k, 2)))), 1)

    # ---- distinct (left, right) pairs via ONE packed-key groupby -------
    def pre(t: pa.Table) -> pa.Table:
        uid = t[left_col].to_numpy(zero_copy_only=False)
        if uid.size and (uid.min() < 0 or uid.max() >= (1 << (63 - bits))):
            raise ValueError(
                f"{left_col} out of pack range for {bits}-bit right codes"
            )
        code = (
            pc.index_in(t[right_col], value_set=vocab_pa)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        pk = np.unique((uid << bits) | code)
        return pa.table({"pk": pa.array(pk)})

    pairs = (
        ds.map_batches(pre, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("pk")
        .count()
    )

    # ---- per-user adjacency mask: distinct pairs ⇒ sum(bit) == OR ------
    def to_bits(t: pa.Table) -> pa.Table:
        pk = t["pk"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "uid": pa.array(pk >> bits),
                "bit": pa.array(
                    np.left_shift(np.int64(1), (pk & ((1 << bits) - 1))).astype(
                        np.int64
                    )
                ),
            }
        )

    masks = (
        pairs.map_batches(to_bits, batch_format="pyarrow")
        .groupby("uid")
        .sum("bit")
    )

    def add_deg(t: pa.Table) -> pa.Table:
        m = t["sum(bit)"].to_numpy(zero_copy_only=False)
        d = np.zeros(len(m), dtype=np.int64)
        for j in range(k):
            d += (m >> j) & 1
        return pa.table(
            {"uid": t["uid"], "mask": t["sum(bit)"], "d": pa.array(d)}
        )

    state = masks.map_batches(add_deg, batch_format="pyarrow").materialize()
    n_left = state.count()

    # ---- right-node degrees: k-vector partials, driver-reduced ---------
    part_schema = pa.schema([("tid", pa.int64()), ("part", pa.int64())])

    def deg_partial(t: pa.Table) -> pa.Table:
        m = t["mask"].to_numpy(zero_copy_only=False)
        parts = np.array([int(((m >> j) & 1).sum()) for j in range(k)])
        return pa.table(
            {"tid": pa.array(np.arange(k)), "part": pa.array(parts)}
        ).cast(part_schema)

    dt_rows = collect_table(
        state.map_batches(deg_partial, batch_format="pyarrow"), part_schema
    )
    type_deg = np.zeros(k, dtype=np.int64)
    np.add.at(
        type_deg,
        dt_rows["tid"].to_numpy(zero_copy_only=False),
        dt_rows["part"].to_numpy(zero_copy_only=False),
    )

    n_nodes = n_left + k
    base = total_units // n_nodes
    tele = (100 - damping_pct) * base // 100

    def with_score(s0: int):
        def fn(t: pa.Table) -> pa.Table:
            return t.append_column(
                "s", pa.array(np.full(t.num_rows, s0, dtype=np.int64))
            )

        return fn

    state = state.map_batches(with_score(base), batch_format="pyarrow").materialize()
    type_scores = np.full(k, base, dtype=np.int64)

    for _ in range(iterations):
        # pass A: right-node inflow from OLD left scores (k-vector partials)
        def agg_partial(t: pa.Table) -> pa.Table:
            m = t["mask"].to_numpy(zero_copy_only=False)
            contrib = t["s"].to_numpy(zero_copy_only=False) // t["d"].to_numpy(
                zero_copy_only=False
            )
            parts = np.array(
                [int((contrib * ((m >> j) & 1)).sum()) for j in range(k)]
            )
            return pa.table(
                {"tid": pa.array(np.arange(k)), "part": pa.array(parts)}
            ).cast(part_schema)

        rows = collect_table(
            state.map_batches(agg_partial, batch_format="pyarrow"), part_schema
        )
        agg = np.zeros(k, dtype=np.int64)
        np.add.at(
            agg,
            rows["tid"].to_numpy(zero_copy_only=False),
            rows["part"].to_numpy(zero_copy_only=False),
        )
        new_type_scores = tele + damping_pct * agg // 100

        # pass B: left-node inflow from OLD right scores (broadcast k-vector)
        contrib_t = type_scores // type_deg  # non-negative // non-zero

        def update(t: pa.Table, _c=contrib_t) -> pa.Table:
            m = t["mask"].to_numpy(zero_copy_only=False)
            acc = np.zeros(len(m), dtype=np.int64)
            for j in range(k):
                acc += ((m >> j) & 1) * _c[j]
            s_new = tele + damping_pct * acc // 100
            return pa.table(
                {
                    "uid": t["uid"],
                    "mask": t["mask"],
                    "d": t["d"],
                    "s": pa.array(s_new),
                }
            )

        state = state.map_batches(update, batch_format="pyarrow").materialize()
        type_scores = new_type_scores

    return state, type_scores, vocab, type_deg, n_nodes
