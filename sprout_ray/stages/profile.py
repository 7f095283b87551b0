"""Table profiling (ANALYZE-style per-column statistics).

The catalog-statistics pass every engine runs before planning, in the
scale shape this repo uses everywhere:

- count / null-count / min / max: ONE streaming pass emitting a single
  partial row per block with NATIVE-typed per-column min/max (string
  mins compare as strings, ints as ints — stringification happens only
  in the final output), reduced on the driver from O(blocks) rows;
- distinct counts: one `multi_sketch_build` scan building a KMV per
  column (pipelines/flagship.py — one pass for all columns, streaming
  tree reduce). Below capacity the KMV retains every distinct key, so
  `is_exact()` certifies the count is exact (the repo's exact-degenerate
  oracle pattern); above capacity it is a (1 +/- 1/sqrt(k)) estimate and
  the row says so.

No shuffle anywhere: both passes are map-only with sketch-sized or
block-count-sized reductions.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .agg import collect_table


def profile_columns(ds, columns: list[str], distinct_k: int = 65536):
    """Per-column stats table: (column, n, n_null, n_distinct,
    distinct_exact, min_value, max_value) — min/max cast to string in the
    output only (comparisons run on the native type, nulls skipped;
    all-null columns yield null min/max)."""
    from ..kernel.sketch import SketchSpec
    from .builder import multi_sketch_build

    def per_block(t: pa.Table) -> pa.Table:
        row = {"n": pa.array([t.num_rows], pa.int64())}
        for c in columns:
            col = t[c]
            row[f"null_{c}"] = pa.array([col.null_count], pa.int64())
            if t.num_rows - col.null_count > 0:
                mm = pc.min_max(col)
                mn, mx = mm["min"], mm["max"]
            else:
                mn = mx = pa.scalar(None, col.type)
            row[f"min_{c}"] = pa.array([mn.as_py()], col.type)
            row[f"max_{c}"] = pa.array([mx.as_py()], col.type)
        return pa.table(row)

    parts = collect_table(
        ds.map_batches(
            per_block, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
        )
    )
    kmvs = multi_sketch_build(
        ds, {c: (SketchSpec.of("kmv", distinct_k), c) for c in columns}
    )

    n = int(pc.sum(parts["n"]).as_py() or 0)
    rows = []
    for c in sorted(columns):
        sk = kmvs[c]
        mn = pc.min(parts[f"min_{c}"]).as_py()
        mx = pc.max(parts[f"max_{c}"]).as_py()
        rows.append(
            {
                "column": c,
                "n": n,
                "n_null": int(pc.sum(parts[f"null_{c}"]).as_py() or 0),
                "n_distinct": int(round(sk.estimate())),
                "distinct_exact": bool(sk.is_exact()),
                "min_value": None if mn is None else str(mn),
                "max_value": None if mx is None else str(mx),
            }
        )
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [
                ("column", pa.string()),
                ("n", pa.int64()),
                ("n_null", pa.int64()),
                ("n_distinct", pa.int64()),
                ("distinct_exact", pa.bool_()),
                ("min_value", pa.string()),
                ("max_value", pa.string()),
            ]
        ),
    )


def skew_stats(ds, columns: list[str], label_prefix: str = ""):
    """Exact key-skew statistics for ``columns`` of one Dataset in ONE
    scan: occurrence count, distinct count, F2 = sum(count^2) (the
    self-join size / AMS second moment — the statistic that decides
    whether a groupby/join key needs salting) and the hottest key's
    count.

    Integer key columns ride a PACKED int64 key space (column index in
    the top byte, key value in the low 56 bits — loudly guarded): the
    shuffle-groupby then sorts machine ints, not built-up
    "label\\x1fkey" strings, which is the same multi-column-groupby
    discipline as stages/dedup.dedupe_pair_stream (347 s -> 10.8 s
    precedent) plus zero string materialization on the fat fact-table
    legs. String key columns (tiny cardinality in every profiled table)
    keep the kv string space. Per-block stats partials + a
    |columns|-row native finishing aggregate close each leg out.
    Returns a pa.Table (col, n, n_distinct, f2, max_count) sorted by
    col."""
    from ray.data.aggregate import Max, Sum

    schema = ds.schema()
    types = dict(zip(schema.names, schema.types))
    int_cols = [c for c in columns if pa.types.is_integer(types[c])]
    str_cols = [c for c in columns if c not in int_cols]
    idx_of = {c: i for i, c in enumerate(int_cols)}
    _LIM = 1 << 56

    def part_int(t: pa.Table) -> pa.Table:
        outs = []
        for c in int_cols:
            g = (
                t.select([c])
                .drop_null()
                .group_by([c])
                .aggregate([(c, "count")])
            )
            k = g[c].cast(pa.int64()).to_numpy(zero_copy_only=False)
            if k.size and (int(k.min()) < 0 or int(k.max()) >= _LIM):
                raise ValueError(
                    f"skew_stats: {c} values outside [0, 2^56) — the packed"
                    " int key space cannot hold them; profile it as a"
                    " string column instead"
                )
            packed = (np.int64(idx_of[c]) << np.int64(56)) | k
            outs.append(
                pa.table(
                    {
                        "kv": pa.array(packed),
                        "c": g[f"{c}_count"].cast(pa.int64()),
                    }
                )
            )
        return pa.concat_tables(outs)

    def part_str(t: pa.Table) -> pa.Table:
        outs = []
        for c in str_cols:
            g = (
                t.select([c])
                .drop_null()
                .group_by([c])
                .aggregate([(c, "count")])
            )
            label = pa.array(
                [f"{label_prefix}{c}"] * g.num_rows, pa.string()
            )
            kv = pc.binary_join_element_wise(
                label, pc.cast(g[c], pa.string()), "\x1f"
            )
            outs.append(
                pa.table({"kv": kv, "c": g[f"{c}_count"].cast(pa.int64())})
            )
        return pa.concat_tables(outs)

    def _stats(col_arr, c) -> pa.Table:
        g = (
            pa.table(
                {
                    "col": col_arr,
                    "n": c,
                    "one": pa.array(np.ones(len(c), np.int64)),
                    "c2": pc.multiply(c, c),
                    "mx": c,
                }
            )
            .group_by(["col"])
            .aggregate(
                [("n", "sum"), ("one", "sum"), ("c2", "sum"), ("mx", "max")]
            )
        )
        return g.rename_columns(["col", "n", "one", "c2", "mx"])

    def stats_part_int(t: pa.Table) -> pa.Table:
        kv = t["kv"].to_numpy(zero_copy_only=False)
        names = pa.array(
            np.array(
                [f"{label_prefix}{c}" for c in int_cols], dtype=object
            )[kv >> np.int64(56)],
            pa.string(),
        )
        return _stats(names, t["sum(c)"])

    def stats_part_str(t: pa.Table) -> pa.Table:
        col = pc.list_element(pc.split_pattern(t["kv"], "\x1f"), 0)
        return _stats(col, t["sum(c)"])

    if int_cols and str_cols:
        ds = ds.materialize()  # both legs read the same in-memory blocks
    legs = []
    if int_cols:
        legs.append(
            ds.map_batches(part_int, batch_format="pyarrow", zero_copy_batch=True)
            .groupby("kv")
            .sum("c", ignore_nulls=True)
            .map_batches(
                stats_part_int, batch_format="pyarrow", zero_copy_batch=True
            )
        )
    if str_cols:
        legs.append(
            ds.map_batches(part_str, batch_format="pyarrow", zero_copy_batch=True)
            .groupby("kv")
            .sum("c", ignore_nulls=True)
            .map_batches(
                stats_part_str, batch_format="pyarrow", zero_copy_batch=True
            )
        )
    merged = legs[0].union(*legs[1:]) if len(legs) > 1 else legs[0]
    agg = (
        merged.groupby("col")
        .aggregate(Sum("n"), Sum("one"), Sum("c2"), Max("mx"))
        .take_all()  # one row per profiled column
    )
    rows = [
        {
            "col": r["col"],
            "n": int(r["sum(n)"]),
            "n_distinct": int(r["sum(one)"]),
            "f2": int(r["sum(c2)"]),
            "max_count": int(r["max(mx)"]),
        }
        for r in agg
    ]
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [
                ("col", pa.string()),
                ("n", pa.int64()),
                ("n_distinct", pa.int64()),
                ("f2", pa.int64()),
                ("max_count", pa.int64()),
            ]
        ),
    ).sort_by("col")
