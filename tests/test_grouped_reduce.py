"""stages.agg.grouped_reduce (per-block pyarrow partial + one Ray groupby
merge) against a whole-table pyarrow group_by, plus the planted cases the
testdata cannot hit: a NULL order price in customer_rfm_segments and the
layout guards; and stages.agg.collect_table, the one driver collect."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from sprout_ray.stages.agg import collect_table, grouped_reduce


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    return ray_session


# four blocks: null aggregated values, an all-null (k, g) group, a null key,
# and an empty block
_BLOCKS = [
    pa.table(
        {
            "k": ["a", "b", "b"],
            "g": pa.array([1, 1, None], pa.int64()),
            "v": pa.array([1, None, 3], pa.int32()),
        }
    ),
    pa.table(
        {
            "k": pa.array([], pa.string()),
            "g": pa.array([], pa.int64()),
            "v": pa.array([], pa.int32()),
        }
    ),
    pa.table(
        {
            "k": ["a", "b", "c", "c"],
            "g": pa.array([1, None, 2, 2], pa.int64()),
            "v": pa.array([None, 5, None, None], pa.int32()),
        }
    ),
    pa.table(
        {
            "k": ["a", "a"],
            "g": pa.array([2, 1], pa.int64()),
            "v": pa.array([7, -2], pa.int32()),
        }
    ),
]


def _rows(t: pa.Table, names):
    return sorted(
        zip(*(t[n].to_pylist() for n in names)),
        key=lambda r: tuple((x is None, x) for x in r),
    )


@pytest.mark.parametrize("op", ["sum", "count", "count_all", "min", "max"])
def test_grouped_reduce_matches_whole_table_group_by(op):
    import ray
    import ray.data as rd

    ds = rd.from_arrow(_BLOCKS)
    aggs = {"x": ("v", op), "n": (None, "count_all")}
    out = grouped_reduce(ds, ["k", "g"], aggs)
    got = pa.concat_tables(
        t for t in ray.get(out.to_arrow_refs()) if t.num_columns
    )
    # key columns first, then aggs in order; counts and integer sums int64
    assert got.column_names == ["k", "g", "x", "n"]
    assert got.schema.field("n").type == pa.int64()
    if op in ("sum", "count", "count_all"):
        assert got.schema.field("x").type == pa.int64()
    whole = (
        pa.concat_tables(_BLOCKS)
        .group_by(["k", "g"])
        .aggregate([([], "count_all") if op == "count_all" else ("v", op),
                    ([], "count_all")])
        .rename_columns(["k", "g", "x", "n"])
    )
    assert _rows(got, ["k", "g", "x", "n"]) == _rows(whole, ["k", "g", "x", "n"])


def test_grouped_reduce_single_key_name():
    import ray.data as rd

    ds = rd.from_arrow(_BLOCKS[:1] + _BLOCKS[3:])
    rows = grouped_reduce(ds, "k", {"s": ("v", "sum")}).take_all()
    assert sorted((r["k"], r["s"]) for r in rows) == [("a", 6), ("b", 3)]


def test_rfm_frequency_counts_null_price_orders(tmp_path):
    """customer_rfm_segments' frequency is count(*): an order with a NULL
    o_totalprice still counts, as in the SQL twin. Customers 1-8 place
    1-8 orders; one of customer 3's three orders has no price, so its
    frequency must stay 3 (freq segment 2, not 1)."""
    import duckdb

    import __ray_entry__ as E
    import sprout_ray.pipelines.analytics as A

    cust, price, day = [], [], []
    for c in range(1, 9):
        for i in range(c):
            cust.append(c)
            price.append(None if (c, i) == (3, 0) else 10.0 * c + i)
            day.append(np.datetime64("1996-01-01", "us") + np.timedelta64(c + i, "D"))
    orders = pa.table(
        {
            "o_custkey": pa.array(cust, pa.int64()),
            "o_orderdate": pa.array(day, pa.timestamp("us")),
            "o_totalprice": pa.array(price, pa.float64()),
        }
    )
    pq.write_table(orders, tmp_path / "orders.parquet")

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW orders AS SELECT * FROM "
        f"read_parquet('{tmp_path / 'orders.parquet'}')"
    )
    cols = ["r_seg", "f_seg", "m_seg", "n_customers", "sum_cents"]
    want = con.execute(E.oracle_sql()["customer_rfm_segments"]).df()[cols]
    got = A.customer_rfm_segments(str(tmp_path)).to_pandas()[cols]
    assert sorted(map(tuple, got.astype("int64").values.tolist())) == sorted(
        map(tuple, want.astype("int64").values.tolist())
    )


def test_write_zorder_partitioned_empty_input(tmp_path):
    from sprout_ray.stages.layout import write_zorder_partitioned

    f = tmp_path / "empty.parquet"
    pq.write_table(
        pa.table({"x": pa.array([], pa.int64()), "y": pa.array([], pa.int64())}), f
    )
    with pytest.raises(ValueError, match="write_zorder_partitioned: empty input"):
        write_zorder_partitioned([str(f)], "x", "y", 4, str(tmp_path / "out"))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_morton_key_refuses_non_integer(dtype):
    from sprout_ray.functions.zorder import morton_key

    ok = np.array([1, 2], np.int64)
    bad = np.array([1.5, 2.0], dtype)
    with pytest.raises(ValueError, match="morton_key: x has non-integer dtype"):
        morton_key(bad, ok)
    with pytest.raises(ValueError, match="morton_key: y has non-integer dtype"):
        morton_key(ok, bad)


def test_grouped_reduce_names_null_string_key():
    """A NULL in a string key over two blocks used to die inside Ray's sort
    with a bare TypeError ('<' between NoneType and str); the per-block
    partial now names the key."""
    import ray.data as rd

    a = pa.table({"k": ["x", None], "v": pa.array([1, 2], pa.int64())})
    b = pa.table({"k": ["y", "x"], "v": pa.array([3, 4], pa.int64())})
    # Ray Data re-wraps the ValueError as RayTaskError(UserCodeException)
    with pytest.raises(Exception, match="group key 'k' contains NULLs"):
        grouped_reduce(rd.from_arrow([a, b]), "k", {"s": ("v", "sum")}).take_all()


def test_grouped_reduce_null_integer_key_groups():
    """A NULL integer key still works: it forms its own group."""
    import ray.data as rd

    a = pa.table({"k": pa.array([1, None], pa.int64()), "v": pa.array([1, 2], pa.int64())})
    b = pa.table({"k": pa.array([None, 1], pa.int64()), "v": pa.array([3, 4], pa.int64())})
    rows = grouped_reduce(rd.from_arrow([a, b]), "k", {"s": ("v", "sum")}).take_all()
    assert sorted((r["k"] is None, r["k"], r["s"]) for r in rows) == [
        (False, 1, 5),
        (True, None, 5),
    ]


def test_collect_table_schemaless_empty():
    """A 0-row input runs no UDF, so the Dataset has no schema at all:
    without ``schema`` the collect is column-less, with it the empty table
    carries the schema (what a query that may be empty hands back)."""
    import ray.data as rd

    ds = rd.from_arrow(_BLOCKS[1]).map_batches(lambda t: t, batch_format="pyarrow")
    bare = collect_table(ds)
    assert bare.num_rows == 0 and bare.num_columns == 0
    schema = pa.schema({"k": pa.string(), "v": pa.int64()})
    typed = collect_table(ds, schema)
    assert typed.num_rows == 0 and typed.schema == schema


def test_collect_table_skips_empty_blocks():
    """from_arrow over non-empty and 0-row blocks: the rows of every
    non-empty block, in block order."""
    import ray.data as rd

    got = collect_table(rd.from_arrow(_BLOCKS))
    assert got.equals(pa.concat_tables(_BLOCKS))
    assert collect_table(rd.from_arrow(_BLOCKS[1])).num_rows == 0


def test_collect_table_casts_to_a_wider_schema():
    """With ``schema`` every block is selected (column order and subset
    from the schema) and cast: int32 widens to int64."""
    import ray.data as rd

    schema = pa.schema({"v": pa.int64(), "k": pa.string()})
    got = collect_table(rd.from_arrow(_BLOCKS), schema)
    assert got.schema == schema
    assert got["v"].to_pylist() == pa.concat_tables(_BLOCKS)["v"].to_pylist()
