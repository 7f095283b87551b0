"""Round-4 TPC-H completion: guard behavior of the `_dim_lookup`
broadcast machinery and the planted regimes the sf testdata cannot hit
(empty quarter, over-budget dimension slice, non-unique keys)."""

import numpy as np
import pyarrow as pa
import pytest

import sprout_ray.pipelines.analytics as A

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    return ray_session


def _ds(tbl: pa.Table):
    import ray.data as rd

    return rd.from_arrow(tbl)


def test_dim_lookup_budget_guard():
    t = pa.table({"k": pa.array(np.arange(10, dtype=np.int64))})
    with pytest.raises(ValueError, match="broadcast budget"):
        A._dim_lookup(_ds(t), "k", [], budget=5)


def test_dim_lookup_unique_guard():
    t = pa.table({"k": pa.array([1, 2, 2, 3], pa.int64())})
    with pytest.raises(ValueError, match="not unique"):
        A._dim_lookup(_ds(t), "k", [])


def test_dim_probe_roundtrip_and_miss():
    t = pa.table(
        {
            "k": pa.array([10, 3, 7], pa.int64()),
            "v": pa.array([100, 30, 70], pa.int64()),
        }
    )
    ref = A._dim_lookup(_ds(t), "k", ["v"])
    member, pos, attrs = A._dim_probe(
        ref, np.array([3, 5, 10, 99], np.int64)
    )
    assert member.tolist() == [True, False, True, False]
    assert attrs[0][pos[member]].tolist() == [30, 100]


def test_dim_lookup_keeps_string_attributes():
    """Attributes keep their Arrow type: a string attribute comes back as
    the names themselves (revenue_by_nation's nation names), an int32 key
    still probes as int64."""
    t = pa.table(
        {
            "k": pa.array([2, 0, 1], pa.int32()),
            "name": pa.array(["b", "z", "a"], pa.string()),
            "v": pa.array([20, 0, 10], pa.int64()),
        }
    )
    ref = A._dim_lookup(_ds(t), "k", ["name", "v"])
    member, pos, (names, v) = A._dim_probe(ref, np.array([1, 2, 7], np.int64))
    assert member.tolist() == [True, True, False]
    assert names[pos[member]].tolist() == ["a", "b"]
    assert v[pos[member]].tolist() == [10, 20]


def test_dim_lookup_unique_guard_string_attribute():
    t = pa.table({"k": pa.array([1, 1], pa.int64()), "name": ["x", "y"]})
    with pytest.raises(ValueError, match="not unique"):
        A._dim_lookup(_ds(t), "k", ["name"])


def test_dim_probe_empty_set():
    ref = A._dim_lookup(
        _ds(pa.table({"k": pa.array([], pa.int64())})), "k", []
    )
    member, _, _ = A._dim_probe(ref, np.array([1, 2], np.int64))
    assert not member.any()


def test_q15_empty_quarter(tmp_path):
    """No lineitem rows inside the quarter: a schema-bearing empty table
    must come back (0-row Datasets lose their schema — CLAUDE.md)."""
    import pyarrow.parquet as pq

    li = pa.table(
        {
            "l_orderkey": pa.array([1], pa.int64()),
            "l_suppkey": pa.array([1], pa.int64()),
            "l_extendedprice": pa.array([10.0], pa.float64()),
            "l_discount": pa.array([0.05], pa.float64()),
            "l_shipdate": pa.array(
                [np.datetime64("1999-06-01", "us")], pa.timestamp("us")
            ),
        }
    )
    sup = pa.table(
        {
            "s_suppkey": pa.array([1], pa.int64()),
            "s_name": pa.array(["Supplier#1"], pa.string()),
        }
    )
    pq.write_table(li, tmp_path / "lineitem.parquet")
    pq.write_table(sup, tmp_path / "supplier.parquet")
    out = A.q15_top_supplier(str(tmp_path))
    assert out.num_rows == 0
    assert out.column_names == [
        "s_suppkey",
        "s_name",
        "total_revenue_centicents",
    ]


def test_q15_tie_returns_all_winners(tmp_path):
    """Two suppliers at the max: the spec returns BOTH (the correlated
    max-subquery equality), ordered by suppkey."""
    import pyarrow.parquet as pq

    li = pa.table(
        {
            "l_orderkey": pa.array([1, 2, 3], pa.int64()),
            "l_suppkey": pa.array([7, 9, 9], pa.int64()),
            "l_extendedprice": pa.array([200.0, 100.0, 100.0], pa.float64()),
            "l_discount": pa.array([0.0, 0.0, 0.0], pa.float64()),
            "l_shipdate": pa.array(
                [np.datetime64("1996-02-01", "us")] * 3, pa.timestamp("us")
            ),
        }
    )
    sup = pa.table(
        {
            "s_suppkey": pa.array([7, 9], pa.int64()),
            "s_name": pa.array(["Supplier#7", "Supplier#9"], pa.string()),
        }
    )
    pq.write_table(li, tmp_path / "lineitem.parquet")
    pq.write_table(sup, tmp_path / "supplier.parquet")
    out = A.q15_top_supplier(str(tmp_path)).to_pandas()
    assert out["s_suppkey"].tolist() == [7, 9]
    assert (out["total_revenue_centicents"] == 2_000_000).all()


def test_q2_matches_oracle_at_sf0001():
    import duckdb

    con = duckdb.connect()
    for t in ["region", "nation", "supplier", "part", "lineitem"]:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('{SF}/{t}.parquet')"
        )
    import __ray_entry__ as E

    want = (
        con.execute(E.oracle_sql()["q2_min_balance_supplier"])
        .df()
        .sort_values(["acctbal_cents", "p_partkey"])
        .reset_index(drop=True)
    )
    got = (
        A.q2_min_balance_supplier(SF)
        .to_pandas()
        .sort_values(["acctbal_cents", "p_partkey"])
        .reset_index(drop=True)
    )
    assert got["acctbal_cents"].astype("int64").tolist() == want[
        "acctbal_cents"
    ].astype("int64").tolist()
    assert got["p_partkey"].astype("int64").tolist() == want[
        "p_partkey"
    ].astype("int64").tolist()


def test_q21_driver_tier_matches_distributed(monkeypatch):
    """Round-5 perf: the size-gated driver tier (pyarrow fold over
    collected per-block partials) must be row-identical to the
    distributed sort-shuffle plan at both testdata scales."""
    d = A.q21_waiting_suppliers(SF).to_pandas()
    monkeypatch.setattr(A, "Q21_DRIVER_TIER_MAX_ROWS", 0)
    x = A.q21_waiting_suppliers(SF).to_pandas()
    assert d.equals(x)
    assert len(d) > 0
