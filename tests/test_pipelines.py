"""End-to-end pipeline tests over the driver testdata (sf0.001) + sketch
accuracy vs exact answers, dedup/similarity behavior, driver contract."""

import numpy as np
import pandas as pd
import pytest

import sprout_ray.pipelines.analytics as A

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    return ray_session


def _pd(res):
    import pyarrow as pa
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def test_entry_contract():
    import __ray_entry__ as E

    out = _pd(E.entry())
    assert len(out) >= 1
    assert set(["sketch", "kind", "summary", "rows_seen"]) <= set(out.columns)
    qs = E.queries()
    os_ = E.oracle_sql()
    assert set(os_) <= set(qs)


def test_orders_semi_join_guard_paths_agree(monkeypatch):
    """The enforced size guard: broadcast verify (default) and distributed
    hash semi-join (DIM_BROADCAST_MAX=0) produce the identical exact
    result."""
    import sprout_ray.stages.joins as J

    a = (
        _pd(A.orders_semi_join(SF))
        .sort_values("l_orderkey")
        .reset_index(drop=True)
    )
    monkeypatch.setattr(J, "DIM_BROADCAST_MAX", 0)  # force the hash verify
    b = (
        _pd(A.orders_semi_join(SF))[a.columns]
        .sort_values("l_orderkey")
        .reset_index(drop=True)
    )
    assert len(a) > 0
    assert a.equals(b)


def test_hll_vs_exact_sources():
    import duckdb

    est = _pd(A.hll_cardinalities(SF))
    exact_src = duckdb.sql(
        f"SELECT count(DISTINCT source) FROM read_parquet('{SF}/documents.parquet')"
    ).fetchone()[0]
    row = est[est["column"] == "source"].iloc[0]
    assert abs(row["estimate"] - exact_src) / max(exact_src, 1) < 0.05


def test_cms_vs_exact_counts():
    import duckdb

    est = _pd(A.cms_heavy_hitters(SF)).set_index("event_type")["est_n"]
    exact = duckdb.sql(
        f"SELECT event_type, count(*) n FROM read_parquet('{SF}/events.parquet') GROUP BY event_type"
    ).df().set_index("event_type")["n"]
    n = exact.sum()
    for t in exact.index:
        assert est[t] >= exact[t]  # CMS never undercounts
        assert est[t] - exact[t] <= 0.001 * n + 1


def test_quantile_sketches_vs_exact():
    import duckdb

    out = _pd(A.quantile_sketches(SF)).set_index("q")
    data = duckdb.sql(
        f"SELECT n_chars FROM read_parquet('{SF}/documents.parquet')"
    ).df()["n_chars"].to_numpy()
    sorted_d = np.sort(data)
    for q in (0.25, 0.5, 0.75):
        for col in ("tdigest", "kll"):
            est = out.loc[q, col]
            rank = np.searchsorted(sorted_d, est) / len(sorted_d)
            assert abs(rank - q) < 0.05, (col, q, rank)


def test_minhash_finds_duplicates():
    """documents at sf0.001 contain exact duplicate texts; LSH must find
    every identical pair (jaccard 1.0 collides in all bands)."""
    import duckdb

    dup_pairs = duckdb.sql(
        f"""
        SELECT a.doc_id l, b.doc_id r FROM read_parquet('{SF}/documents.parquet') a
        JOIN read_parquet('{SF}/documents.parquet') b
        ON a.text = b.text AND a.doc_id < b.doc_id
        """
    ).df()
    found = _pd(A.minhash_neardup(SF))
    got = set(zip(found["left_id"], found["right_id"]))
    expected = set(zip(dup_pairs["l"], dup_pairs["r"]))
    assert expected <= got, f"missed exact dups: {expected - got}"
    perfect = found[found["est_jaccard"] >= 0.999]
    assert expected <= set(zip(perfect["left_id"], perfect["right_id"]))


def test_simhash_finds_identical_docs():
    import duckdb

    dup_pairs = duckdb.sql(
        f"""
        SELECT a.doc_id l, b.doc_id r FROM read_parquet('{SF}/documents.parquet') a
        JOIN read_parquet('{SF}/documents.parquet') b
        ON a.text = b.text AND a.doc_id < b.doc_id
        """
    ).df()
    found = _pd(A.simhash_neardup(SF))
    got = set(zip(found["left_id"], found["right_id"]))
    assert set(zip(dup_pairs["l"], dup_pairs["r"])) <= got


def test_ann_topk_self_hit():
    """Each query's own vector must be its top cosine hit (score ~1)."""
    out = _pd(A.ann_brute_topk(SF))
    for qid, grp in out.groupby("query_id"):
        best = grp.sort_values("score", ascending=False).iloc[0]
        assert best["score"] >= 0.999


def test_embedding_neardup_matches_brute_force():
    """The banded-LSH query must agree with the brute-force ground truth at
    its own threshold (recall is probabilistic but >= 0.9 by construction;
    with this corpus + seed it is exact)."""
    import pyarrow.parquet as pq

    out = _pd(A.embedding_neardup(SF))
    t = pq.read_table(f"{SF}/embeddings.parquet")
    emb = np.asarray(t["embedding"].combine_chunks().flatten()).reshape(
        t.num_rows, -1
    )
    n = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    s = n @ n.T
    li, ri = np.triu_indices(t.num_rows, k=1)
    keep = s[li, ri] >= 0.5
    ids = t["vec_id"].to_numpy()
    truth = {
        (min(ids[a], ids[b]), max(ids[a], ids[b]))
        for a, b in zip(li[keep], ri[keep])
    }
    got = set(zip(out["left_id"], out["right_id"])) if len(out) else set()
    assert got <= truth  # verify stage guarantees no false pairs
    assert len(got) >= int(0.9 * len(truth))


def test_exact_dedup_first_removes_dups():
    import duckdb

    out = _pd(A.exact_dedup_first(SF))
    n_distinct = duckdb.sql(
        f"SELECT count(DISTINCT text) FROM read_parquet('{SF}/documents.parquet')"
    ).fetchone()[0]
    assert len(out) == n_distinct
    assert out["doc_id"].is_unique


def test_media_features_deterministic():
    a = _pd(A.media_features(SF)).sort_values("media_id").reset_index(drop=True)
    b = _pd(A.media_features(SF)).sort_values("media_id").reset_index(drop=True)
    fa = np.stack(a["features"].to_numpy())
    fb = np.stack(b["features"].to_numpy())
    assert np.array_equal(fa, fb)
    assert "payload" not in a.columns  # payloads dropped before downstream


def test_media_decode_stub_raises_without_fake():
    from sprout_ray.stages.multimodal import DecodeStage

    with pytest.raises(NotImplementedError):
        DecodeStage(fake=False)._decode(b"xx", "image/png")


def test_langid_returns_counts():
    out = _pd(A.langid_predictions(SF))
    assert out["n"].sum() == 500


def test_customers_no_orders_anti_join():
    """Bloom-accelerated anti-join == DuckDB NOT-IN semantics at sf0.001."""
    import duckdb

    out = _pd(A.customers_no_orders(SF)).reset_index(drop=True)
    con = duckdb.connect()
    want = con.execute(
        f"SELECT CAST(c_custkey AS BIGINT) AS c_custkey, c_name "
        f"FROM '{SF}/customer.parquet' WHERE c_custkey NOT IN "
        f"(SELECT o_custkey FROM '{SF}/orders.parquet' "
        f"WHERE o_totalprice > 350000) ORDER BY c_custkey"
    ).df()
    con.close()
    assert list(out.columns) == ["c_custkey", "c_name"]
    pd.testing.assert_frame_equal(
        out.astype({"c_custkey": "int64"}), want.reset_index(drop=True)
    )


def test_hourly_active_users_exact():
    """Pre-deduped distinct-per-window == DuckDB count(DISTINCT)."""
    import duckdb

    out = _pd(A.hourly_active_users(SF)).reset_index(drop=True)
    con = duckdb.connect()
    want = con.execute(
        f"SELECT CAST(epoch_us(ts) // 3600000000 AS BIGINT) AS window, "
        f"CAST(count(DISTINCT user_id) AS BIGINT) AS n_users "
        f'FROM \'{SF}/events.parquet\' GROUP BY "window" ORDER BY "window"'
    ).df()
    con.close()
    pd.testing.assert_frame_equal(out, want.reset_index(drop=True))


def test_exact_quantiles_by_lang():
    """percentile_disc parity: sorted[ceil(q*n)-1] per lang."""
    import duckdb

    out = (
        _pd(A.exact_quantiles_by_lang(SF))
        .sort_values("lang")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    want = con.execute(
        f"SELECT lang, "
        f"CAST(percentile_disc(0.25) WITHIN GROUP (ORDER BY n_chars) AS BIGINT) AS p25, "
        f"CAST(percentile_disc(0.5) WITHIN GROUP (ORDER BY n_chars) AS BIGINT) AS p50, "
        f"CAST(percentile_disc(0.75) WITHIN GROUP (ORDER BY n_chars) AS BIGINT) AS p75, "
        f"CAST(max(n_chars) AS BIGINT) AS p100 "
        f"FROM '{SF}/documents.parquet' GROUP BY lang ORDER BY lang"
    ).df()
    con.close()
    pd.testing.assert_frame_equal(out, want.reset_index(drop=True))


def test_mg_heavy_hitters_bounds_and_exact_twin():
    """Distributed MG build: top-k bounds bracket exact counts; the
    below-capacity build is hash-exact vs GROUP BY."""
    import duckdb

    hh = _pd(A.mg_heavy_hitters(SF))
    assert len(hh) == 10
    con = duckdb.connect()
    exact = (
        con.execute(
            f"SELECT CAST(user_id AS VARCHAR) k, count(*) n "
            f"FROM '{SF}/events.parquet' GROUP BY 1"
        )
        .df()
        .set_index("k")["n"]
    )
    for r in hh.itertuples():
        assert r.count_lower <= exact[r.key] <= r.count_upper

    ex = _pd(A.mg_event_type_exact(SF)).reset_index(drop=True)
    want = con.execute(
        f"SELECT event_type, CAST(count(*) AS BIGINT) AS n "
        f"FROM '{SF}/events.parquet' GROUP BY event_type ORDER BY event_type"
    ).df()
    con.close()
    pd.testing.assert_frame_equal(ex, want.reset_index(drop=True))


def test_kmv_distinct_pipeline():
    """Distributed KMV build: estimate brackets exact distinct count; the
    below-capacity build returns the exact distinct set."""
    import duckdb

    est = _pd(A.kmv_distinct_sample(SF))
    con = duckdb.connect()
    true = con.execute(
        f"SELECT count(DISTINCT user_id) FROM '{SF}/events.parquet'"
    ).fetchone()[0]
    e = est["estimate"].iloc[0]
    if est["exact"].iloc[0]:
        assert e == true
    else:
        assert abs(e - true) / true < 0.2

    langs = _pd(A.kmv_distinct_langs_exact(SF))["lang"].tolist()
    want = [
        r[0]
        for r in con.execute(
            f"SELECT DISTINCT lang FROM '{SF}/documents.parquet' ORDER BY lang"
        ).fetchall()
    ]
    con.close()
    assert langs == want


def test_top_source_per_lang_grouped_mg():
    """Grouped MG (exact-degenerate) top-1 == SQL window-function answer."""
    import duckdb

    out = _pd(A.top_source_per_lang(SF)).reset_index(drop=True)
    con = duckdb.connect()
    want = con.execute(
        f"SELECT lang, source AS top_source FROM ("
        f"SELECT lang, source, row_number() OVER "
        f"(PARTITION BY lang ORDER BY count(*) DESC, source) AS rn "
        f"FROM '{SF}/documents.parquet' GROUP BY lang, source) "
        f"WHERE rn = 1 ORDER BY lang"
    ).df()
    con.close()
    pd.testing.assert_frame_equal(out, want.reset_index(drop=True))


def test_kmv_user_overlap_bounds():
    """KMV Jaccard/intersection estimates bracket the exact overlap."""
    import duckdb

    out = _pd(A.kmv_user_overlap(SF)).iloc[0]
    con = duckdb.connect()
    na, nb, ni, nu = con.execute(
        f"WITH a AS (SELECT DISTINCT user_id FROM '{SF}/events.parquet' "
        f"WHERE event_type='click'), "
        f"b AS (SELECT DISTINCT user_id FROM '{SF}/events.parquet' "
        f"WHERE event_type='purchase') "
        f"SELECT (SELECT count(*) FROM a), (SELECT count(*) FROM b), "
        f"(SELECT count(*) FROM a JOIN b USING (user_id)), "
        f"(SELECT count(*) FROM (SELECT * FROM a UNION SELECT * FROM b))"
    ).fetchone()
    con.close()
    true_j = ni / nu
    if out["exact"]:
        assert out["jaccard"] == pytest.approx(true_j)
        assert out["union_est"] == nu and out["inter_est"] == pytest.approx(ni)
    else:
        assert abs(out["jaccard"] - true_j) < 0.15
        assert abs(out["union_est"] - nu) / nu < 0.2


def test_token_jaccard_top1_exact():
    """Distributed token-set-Jaccard NN == SQL set-algebra answer, and the
    top match for a planted exact duplicate is jaccard 1.0."""
    import duckdb

    out = _pd(A.token_jaccard_top1(SF)).reset_index(drop=True)
    assert len(out) == 20
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    import __ray_entry__ as E

    want = con.execute(E.oracle_sql()["token_jaccard_top1"]).df()
    con.close()
    pd.testing.assert_frame_equal(out, want.reset_index(drop=True))


def test_curation_survivors_pipeline():
    """Composed dedup + quality-gate pipeline == SQL set algebra."""
    import duckdb

    out = _pd(A.curation_survivors(SF)).reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    import __ray_entry__ as E

    want = con.execute(E.oracle_sql()["curation_survivors"]).df()
    con.close()
    assert len(out) > 0
    pd.testing.assert_frame_equal(out.astype({"doc_id": "int64"}), want)


def test_kmv_sources_by_lang_exact():
    """Grouped bottom-k (exact-degenerate) == count(DISTINCT) per lang."""
    import duckdb

    out = _pd(A.kmv_sources_by_lang_exact(SF)).reset_index(drop=True)
    con = duckdb.connect()
    want = con.execute(
        f"SELECT lang, CAST(count(DISTINCT source) AS BIGINT) AS n_sources "
        f"FROM '{SF}/documents.parquet' GROUP BY lang ORDER BY lang"
    ).df()
    con.close()
    pd.testing.assert_frame_equal(out.astype({"n_sources": "int64"}), want)


def test_ngram_jaccard_pairs_vs_duckdb():
    """AllPairs prefix-filter set-similarity join == DuckDB 3-gram twin."""
    import duckdb

    import __ray_entry__ as E

    out = _pd(A.ngram_jaccard_pairs(SF)).reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    want = con.execute(E.oracle_sql()["ngram_jaccard_pairs"]).df()
    con.close()
    assert out.shape == want.shape
    if len(out):
        pd.testing.assert_frame_equal(
            out.astype({"left_id": "int64", "right_id": "int64"}), want
        )


def test_ngram_jaccard_verify_paths_agree(monkeypatch):
    """Broadcast and distributed-join verify tiers return identical pairs,
    including planted exact dups (J=1.0 must always survive the prefix
    filter)."""
    import ray.data as rd
    import pyarrow as pa

    import sprout_ray.stages.dedup as D
    from sprout_ray.stages.dedup import ngram_jaccard_pairs_distributed

    base = _pd(rd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"]))
    planted = base.head(5).copy()
    planted["doc_id"] = planted["doc_id"] + 1_000_000
    corpus = rd.from_arrow(pa.Table.from_pandas(pd.concat([base, planted]), preserve_index=False))
    a = (
        _pd(ngram_jaccard_pairs_distributed(corpus, n=3, threshold=0.8))
        .sort_values(["left_id", "right_id"])
        .reset_index(drop=True)
    )
    monkeypatch.setattr(D, "TEXT_BROADCAST_MAX_DOCS", 0)  # join the texts
    b = (
        _pd(ngram_jaccard_pairs_distributed(corpus, n=3, threshold=0.8))[a.columns]
        .sort_values(["left_id", "right_id"])
        .reset_index(drop=True)
    )
    planted_pairs = set(zip(planted["doc_id"] - 1_000_000, planted["doc_id"]))
    got = set(zip(a["left_id"], a["right_id"]))
    assert planted_pairs <= got
    pd.testing.assert_frame_equal(a, b)


def test_kll_exact_regime_is_order_statistic():
    """k > n: distributed KLL build == exact lower quantile at rank ceil(q*n)."""
    import duckdb

    import __ray_entry__ as E

    out = _pd(A.kll_quantiles_exact(SF)).reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    want = con.execute(E.oracle_sql()["kll_quantiles_exact"]).df()
    con.close()
    pd.testing.assert_frame_equal(out, want)


def test_ann_ivf_exact_equals_brute():
    """nprobe=nlist IVF == brute-force top-k (same float64 path + rounding)."""
    ivf = _pd(A.ann_ivf_exact(SF)).reset_index(drop=True)
    brute = _pd(A.ann_brute_topk(SF)).reset_index(drop=True)
    pd.testing.assert_frame_equal(ivf, brute)


def test_fingerprint_distinctness_invariant():
    out = _pd(A.fingerprint_distinctness(SF))
    assert out["n_distinct_fingerprints"][0] == out["n_distinct_texts"][0]
    assert out["n_docs"][0] >= out["n_distinct_texts"][0]


def test_revenue_by_nation_join_paths_agree(monkeypatch):
    """Broadcast-lookup and distributed-hash physical plans of the Q5-shaped
    multi-join return identical revenue rollups (the size guard only picks
    the plan, never the answer)."""
    import sprout_ray.stages.joins as J

    a = _pd(A.revenue_by_nation(SF)).reset_index(drop=True)
    monkeypatch.setattr(J, "DIM_BROADCAST_MAX", 0)  # force hash joins
    b = _pd(A.revenue_by_nation(SF)).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    assert len(a) >= 1 and {"nation", "revenue_centicents", "n_items"} <= set(a.columns)


def test_broadcast_lookup_join_rejects_dup_keys():
    import pyarrow as pa
    import ray.data as rd

    from sprout_ray.stages.joins import broadcast_lookup_join

    left = rd.from_arrow(pa.table({"k": pa.array([1, 2], pa.int64())}))
    right = rd.from_arrow(
        pa.table({"k": pa.array([1, 1], pa.int64()), "v": pa.array([3, 4], pa.int64())})
    )
    with pytest.raises(Exception, match="not unique"):
        broadcast_lookup_join(left, right, on="k").materialize()


def test_bloom_build_stats_vs_oracle():
    """Distributed bloom build's stats row == SQL deriving the reference's
    parameter formulas (bloom.go:100-114) from count(*)."""
    import duckdb

    import __ray_entry__ as E

    out = _pd(A.bloom_build_stats(SF)).reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    want = con.execute(E.oracle_sql()["bloom_build_stats"]).df()
    con.close()
    pd.testing.assert_frame_equal(
        out[sorted(out.columns)], want[sorted(want.columns)], check_dtype=False
    )


def test_ann_ivf_topk_recall_gate():
    """ann_ivf_topk's in-band accuracy claim holds at fixed
    (nlist=8, nprobe=4, k=10): every query's measured recall clears the
    probed-fraction floor (0.5) and the mean clears 0.6 on this corpus."""
    out = A.ann_ivf_topk(SF)
    assert {"recall", "recall_floor", "within_bound"} <= set(out.columns)
    per_query = out.groupby("query_id")["recall"].first()
    assert bool(out["within_bound"].all())
    assert (per_query >= 0.5).all()
    assert per_query.mean() >= 0.6
    # recall is against the brute top-k on the same dtype: bounded [0, 1]
    assert ((per_query >= 0.0) & (per_query <= 1.0)).all()


def test_sbf_schedule_oracle_boundary_sweep():
    """The sbf_build_stats_exact closed forms (err_i = 0.001*0.9^i, cap_i =
    trunc(m0*2^(i-1)*ln2) floored at 11, k_i = ceil(log2(1/err_i)), m_bits_i
    = trunc(cap_i*|ln err_i|/ln2^2)) never straddle an ulp between Python's
    build arithmetic and DuckDB's, across a wide (m0, stage) grid — the
    bloom_build_stats 5k-point-sweep discipline for the growth schedule."""
    import math

    import duckdb

    rng = np.random.default_rng(7)
    m0s = np.unique(
        np.concatenate(
            [
                rng.integers(10, 10_000_000, 400),
                np.array([10, 11, 12, 887, 888, 889, 1000, 9_999_999]),
            ]
        )
    )
    stages = np.arange(1, 31)
    grid_m0 = np.repeat(m0s, stages.size)
    grid_i = np.tile(stages, m0s.size)
    # Python side (the engine's _stage_params + derive_params arithmetic)
    ln2 = math.log(2)
    py = []
    for m0, i in zip(grid_m0.tolist(), grid_i.tolist()):
        err = 0.001 * (0.9**i)
        cap = max(int((m0 * (2 ** (i - 1))) * ln2), 11)
        k = int(math.ceil(math.log2(1.0 / err)))
        m_bits = int(cap * abs(math.log(err)) / (ln2**2))
        py.append((cap, k, m_bits))
    py = np.array(py, dtype=np.int64)

    con = duckdb.connect()
    con.execute("CREATE TABLE grid (m0 BIGINT, i BIGINT)")
    con.executemany(
        "INSERT INTO grid VALUES (?, ?)",
        list(zip(grid_m0.tolist(), grid_i.tolist())),
    )
    sql = con.execute(
        "SELECT GREATEST(CAST(trunc((CAST(m0 AS DOUBLE) * "
        "power(CAST(2.0 AS DOUBLE), i - 1)) * ln(CAST(2.0 AS DOUBLE))) "
        "AS BIGINT), 11) AS cap, "
        "CAST(ceil(log2(1.0 / (CAST(0.001 AS DOUBLE) * "
        "power(CAST(0.9 AS DOUBLE), i)))) AS BIGINT) AS k, "
        "CAST(trunc(GREATEST(CAST(trunc((CAST(m0 AS DOUBLE) * "
        "power(CAST(2.0 AS DOUBLE), i - 1)) * ln(CAST(2.0 AS DOUBLE))) "
        "AS BIGINT), 11) * abs(ln(CAST(0.001 AS DOUBLE) * "
        "power(CAST(0.9 AS DOUBLE), i))) / "
        "(ln(CAST(2.0 AS DOUBLE)) * ln(CAST(2.0 AS DOUBLE)))) AS BIGINT) "
        "AS m_bits FROM grid ORDER BY rowid"
    ).fetchnumpy()
    con.close()
    assert (sql["cap"] == py[:, 0]).all()
    assert (sql["k"] == py[:, 1]).all()
    assert (sql["m_bits"] == py[:, 2]).all()


def test_sbf_build_stats_exact_schedule_consistency():
    """The emitted schedule is internally consistent and matches a pure
    in-process sequential build (growth really fired at sf0.001 since
    cap0 = n//8)."""
    out = _pd(A.sbf_build_stats_exact(SF)).reset_index(drop=True)
    assert (out["stage"].to_numpy() == np.arange(len(out))).all()
    assert len(out) > 1  # cap0 = n//8 forces growth
    assert int(out["n_added"].sum()) == int(out["n_added"].sum())  # ints
    # every stage but the last fills exactly to capacity
    assert (
        out["n_added"].to_numpy()[:-1] == out["capacity"].to_numpy()[:-1]
    ).all()
    assert out["n_added"].to_numpy()[-1] <= out["capacity"].to_numpy()[-1]
    assert (np.diff(out["cum_size"].to_numpy()) == out["size"].to_numpy()[1:]).all()


def test_sketch_self_evidence_columns():
    """hll_by_lang / cms_heavy_hitters carry in-band accuracy evidence."""
    hll = _pd(A.hll_by_lang(SF))
    assert {"est_sources", "exact_sources", "rel_err", "within_bound"} <= set(hll.columns)
    assert hll["within_bound"].all()
    cms = _pd(A.cms_heavy_hitters(SF))
    assert {"est_n", "exact_n", "overcount", "within_bound"} <= set(cms.columns)
    assert (cms["overcount"] >= 0).all() and cms["within_bound"].all()


def test_windowed_hll_and_bloom_setops_self_evidence():
    """hll_hourly_users / bloom_set_cardinalities carry in-band accuracy
    evidence; the bloom inclusion-exclusion identity holds on estimates."""
    wh = _pd(A.hll_hourly_users(SF))
    assert {"window", "est_users", "n_users", "rel_err", "within_bound"} <= set(
        wh.columns
    )
    assert wh["within_bound"].all()
    assert len(wh) == wh["window"].nunique()
    hop = _pd(A.hll_hopping_users(SF))
    assert hop["within_bound"].all()
    # a hop covers 4 panes: its distinct count is >= each member hour's
    assert len(hop) > 0 and (hop["n_users"] >= 1).all()
    td = _pd(A.tdigest_hourly_value(SF))
    assert {"window", "est_p50", "est_p95", "n", "rank50", "rank95",
            "within_bound"} <= set(td.columns)
    assert td["within_bound"].all()
    assert (td["est_p50"] <= td["est_p95"]).all()  # quantile monotonicity
    bs = _pd(A.bloom_set_cardinalities(SF)).set_index("measure")
    assert bs["within_bound"].all()
    # inclusion-exclusion is exact BY CONSTRUCTION on the estimates
    est = bs["estimate"]
    assert abs(
        est["click_users"] + est["purchase_users"]
        - est["union_users"] - est["intersection_users"]
    ) <= 2e-3  # rounding of the four 3dp readouts
    assert (bs["exact"] >= 0).all()


def test_overlap_and_cardinality_self_evidence():
    """kmv_user_overlap / hll_cardinalities carry in-band exactness
    evidence from distributed passes."""
    ov = _pd(A.kmv_user_overlap(SF))
    assert {"exact_jaccard", "j_abs_err", "within_bound"} <= set(ov.columns)
    assert bool(ov["within_bound"][0])
    if bool(ov["exact"][0]):  # exact regime: readout IS the exact overlap
        assert float(ov["j_abs_err"][0]) == 0.0
    hc = _pd(A.hll_cardinalities(SF)).set_index("column")
    assert hc["within_bound"].all()
    import duckdb
    exact_lang = duckdb.sql(
        f"SELECT count(DISTINCT lang) FROM read_parquet('{SF}/documents.parquet')"
    ).fetchone()[0]
    assert int(hc.loc["lang", "exact"]) == exact_lang


def test_ngram_jaccard_planted_edges_vs_duckdb(tmp_path, monkeypatch):
    """Planted edge cases — empty-empty clique (SQL's two-empties CASE gives
    J=1.0 but empties emit no prefix rows), len<n singleton sets, near-dups
    — match the DuckDB twin through BOTH verify tiers."""
    import duckdb
    import pyarrow.parquet as pq
    import ray.data as rd

    import __ray_entry__ as E
    import sprout_ray.stages.dedup as D
    from sprout_ray.stages.dedup import ngram_jaccard_pairs_distributed

    rows = pd.DataFrame(
        {
            "doc_id": range(12),
            "text": [
                "", "", "", "ab", "ab", "x",
                "hello world hello", "hello world hello",
                "hello world hellp", "completely different text",
                "abcabcabc", "abcabcabcd",
            ],
        }
    )
    import pyarrow as pa

    path = str(tmp_path / "docs.parquet")
    pq.write_table(pa.Table.from_pandas(rows, preserve_index=False), path)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{path}'")
    want = con.execute(E.oracle_sql()["ngram_jaccard_pairs"]).df()
    con.close()
    assert len(want) == 7  # 3 empty-clique + short-dup + 3 near-dup rows
    ds = rd.read_parquet(path)
    for bmax in (500_000, 0):
        monkeypatch.setattr(D, "TEXT_BROADCAST_MAX_DOCS", bmax)
        got = (
            ngram_jaccard_pairs_distributed(ds, n=3, threshold=0.8)
            .to_pandas()[["left_id", "right_id", "jaccard"]]
            .sort_values(["left_id", "right_id"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got.astype(want.dtypes.to_dict()), want)


def test_ngram_fused_and_allpairs_paths_agree(monkeypatch):
    """The fused matmul bucket-verify (dense regime) and the AllPairs
    per-pair expansion return identical oracle-exact results."""
    import pyarrow as pa
    import ray.data as rd

    import sprout_ray.stages.dedup as D
    from sprout_ray.stages.dedup import ngram_jaccard_pairs_distributed

    ds = rd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    cols = ["left_id", "right_id", "jaccard"]
    a = (
        _pd(ngram_jaccard_pairs_distributed(ds, n=3, threshold=0.8))[cols]
        .sort_values(cols[:2])
        .reset_index(drop=True)
    )
    monkeypatch.setattr(D, "GRAM_BROADCAST_INCIDENCE_MAX", 0)  # AllPairs path
    b = (
        _pd(ngram_jaccard_pairs_distributed(ds, n=3, threshold=0.8))[cols]
        .sort_values(cols[:2])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)


def test_doc_top_term_planted(tmp_path, ray_session):
    """Planted corpus with hand-computable rarest tokens, incl. the
    lexicographic tie-break when several tokens share the minimum df."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    "xray common",      # df: xray=1, common=3 -> xray
                    "yankee common",    # -> yankee
                    "common common",    # only common -> common
                    "bb aa",            # both df=1 -> tie-break: aa
                ]
            ),
        }
    )
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = _pd(A.doc_top_term(str(tmp_path)))
    assert out["rarest_token"].tolist() == ["xray", "yankee", "common", "aa"]
    assert out["df"].tolist() == [1, 1, 3, 1]


def test_doc_top_term_join_paths_agree(monkeypatch):
    import sprout_ray.stages.joins as J

    a = _pd(A.doc_top_term(SF)).reset_index(drop=True)
    monkeypatch.setattr(J, "DIM_BROADCAST_MAX", 0)  # force the hash join
    b = _pd(A.doc_top_term(SF)).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    assert len(a) >= 1


def test_kll_by_lang_exact_vs_sql():
    import duckdb

    got = _pd(A.kll_by_lang_exact(SF))
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'"
    )
    want = con.sql(
        "WITH s AS (SELECT lang, n_chars, "
        "row_number() OVER (PARTITION BY lang ORDER BY n_chars) AS rn, "
        "count(*) OVER (PARTITION BY lang) AS n FROM documents) "
        "SELECT s.lang, t.label AS q, CAST(s.n_chars AS DOUBLE) AS value "
        "FROM (VALUES ('p25', 0.25), ('p50', 0.50), ('p75', 0.75)) AS t(label, qq) "
        "JOIN s ON s.rn = GREATEST(1, CAST(ceil(t.qq * s.n) AS BIGINT)) "
        "ORDER BY lang, q"
    ).df()
    con.close()
    pd.testing.assert_frame_equal(got.reset_index(drop=True), want)


def test_asof_join_forward_planted(ray_session):
    """Forward as-of: inclusive equal-ts match, no-future-match -> null,
    and key isolation — hand-checkable planted frame."""
    import pyarrow as pa
    import ray.data as rd

    from sprout_ray.stages.joins import asof_join_forward

    left = rd.from_arrow(
        pa.table(
            {
                "k": pa.array([1, 1, 1, 2], pa.int64()),
                "ts": pa.array([10, 20, 31, 10], pa.int64()),
                "eid": pa.array([100, 101, 102, 103], pa.int64()),
            }
        )
    )
    right = rd.from_arrow(
        pa.table(
            {
                "k": pa.array([1, 1, 2], pa.int64()),
                "ts": pa.array([20, 30, 5], pa.int64()),
                "eid": pa.array([200, 201, 202], pa.int64()),
                "v": pa.array([1.5, 2.5, 3.5], pa.float64()),
            }
        )
    )
    out = (
        asof_join_forward(
            left, right, key="k", ts_col="ts", tie_col="eid",
            right_payload={"eid": "m_eid", "ts": "m_ts", "v": "m_v"},
            left_id_out="eid",
        )
        .to_pandas()
        .sort_values("eid")
        .reset_index(drop=True)
    )
    assert out["eid"].tolist() == [100, 101, 102, 103]
    # ts=10 -> next right at 20; ts=20 -> INCLUSIVE match at 20;
    # ts=31 -> nothing after 30 -> null; key 2: right at 5 < 10 -> null
    assert out["m_eid"].tolist()[:2] == [200.0, 200.0]
    assert out["m_ts"].tolist()[:2] == [20.0, 20.0]
    assert out["m_v"].tolist()[:2] == [1.5, 1.5]
    assert out["m_eid"].isna().tolist() == [False, False, True, True]
    assert out["ts_us"].tolist() == [10, 20, 31, 10]  # un-negated left ts


def test_events_window_dedup_planted(tmp_path, ray_session):
    """In-window duplicate (user, type) collapses to one; the same pair in
    the next hour counts again; raw counts are untouched."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    H = 3_600_000_000
    t = pa.table(
        {
            "ts": pa.array([0, 1, 2, H, H + 5], pa.timestamp("us")),
            "user_id": pa.array([7, 7, 7, 7, 9], pa.int64()),
            "event_type": pa.array(["click", "click", "view", "click", "click"]),
        }
    )
    pq.write_table(t, str(tmp_path / "events.parquet"))
    out = _pd(A.events_window_dedup(str(tmp_path)))
    assert out["window"].tolist() == [0, 1]
    assert out["n_unique"].tolist() == [2, 2]  # (7,click),(7,view) | (7,click),(9,click)
    assert out["n_events"].tolist() == [3, 2]


def test_resize_stage_nearest_neighbor_exact():
    """Hand-checkable 4x4 -> 2x2 nearest-neighbor grid; audio passthrough."""
    import pyarrow as pa

    from sprout_ray.stages.multimodal import ResizeStage

    img = np.arange(16, dtype=np.uint8).tobytes()
    batch = pa.table(
        {
            "media_id": pa.array([0, 1], pa.int64()),
            "media_type": pa.array(["image/png", "audio/wav"]),
            "payload": pa.array([img, b"\x01\x02\x03"], pa.large_binary()),
            "width": pa.array([4, 0], pa.int32()),
            "height": pa.array([4, 0], pa.int32()),
            "sample_rate": pa.array([0, 16000], pa.int32()),
        }
    )
    out = ResizeStage(out_w=2, out_h=2)(batch)
    got = np.frombuffer(out["payload"][0].as_py(), dtype=np.uint8)
    # rows sampled at (j*4)//2 = [0, 2]; cols likewise -> values 0,2,8,10
    assert got.tolist() == [0, 2, 8, 10]
    assert out["width"][0].as_py() == 2 and out["height"][0].as_py() == 2
    assert out["payload"][1].as_py() == b"\x01\x02\x03"  # audio untouched
    assert out["width"][1].as_py() == 0


def test_frame_sample_uniform_grid():
    import pyarrow as pa

    from sprout_ray.stages.multimodal import FrameSampleStage, synth_video_table

    t = synth_video_table(3, seed=1, frame_bytes=16)
    out = FrameSampleStage(n_sample=4)(t)
    nf = t["n_frames"].to_pylist()
    p = t["payload"].to_pylist()
    rows = out.to_pylist()
    for mid in range(3):
        mine = [r for r in rows if r["media_id"] == mid]
        want_idx = sorted(set((np.arange(4) * nf[mid]) // 4))
        assert [r["frame_idx"] for r in mine] == [int(i) for i in want_idx]
        for r in mine:
            j = r["frame_idx"]
            assert r["frame"] == p[mid][j * 16 : (j + 1) * 16]


def test_media_resize_and_frames_queries(ray_session):
    a = _pd(A.media_resize(SF))
    assert len(a) == 200 and "payload" not in a.columns
    imgs = a[a["media_type"] == "image/png"]
    assert (imgs["width"] == 16).all() and (imgs["height"] == 16).all()
    b = _pd(A.media_frames(SF))
    assert set(b.columns) == {"media_id", "frame_idx", "frame_sha"}
    assert b["media_id"].nunique() == 100 and len(b) == 400
    # determinism across runs
    b2 = _pd(A.media_frames(SF))
    assert b.equals(b2)


def test_canonical_docs_planted_vs_duckdb(tmp_path, ray_session):
    """Keep-best per normalized-text cluster: longest raw text wins, ties
    to min doc_id; n_variants is the cluster size. Hand-checkable planted
    corpus (the sf corpora have no normalized dups, so the keep-best path
    only exercises here), cross-checked against the DuckDB window twin."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as E

    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3, 4, 5], pa.int64()),
            "text": pa.array(
                [
                    "Hello   World 12345",       # len 19 - norm "hello world <NUM>"
                    "  hello world 99999   ",    # len 22 - longest raw -> winner
                    "hello world 00000",         # len 17
                    "unique text",               # singleton cluster
                    "TIE abc 11111",             # len 13 - tie on raw_len ->
                    "tie ABC 22222",             # len 13 -   min doc_id (4) wins
                ]
            ),
        }
    )
    path = str(tmp_path / "documents.parquet")
    pq.write_table(t, path)
    out = _pd(A.canonical_docs(str(tmp_path)))
    assert out["doc_id"].tolist() == [1, 3, 4]
    assert out["raw_len"].tolist() == [22, 11, 13]
    assert out["n_variants"].tolist() == [3, 1, 2]

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{path}'")
    want = con.execute(E.oracle_sql()["canonical_docs"]).df()
    con.close()
    pd.testing.assert_frame_equal(
        out.reset_index(drop=True).astype(want.dtypes.to_dict()), want
    )


def test_dsir_scores_planted_vs_duckdb(tmp_path, ray_session):
    """DSIR planted corpus: target-lang docs must outscore off-target docs
    sharing no target bigrams; docs with <2 tokens emit no row; exact
    match with the DuckDB twin in a regime where both vocab cutoffs and
    both OOV floors are exercised (vocab_size=64 > the planted gram
    count, so the floor only fires for cross-model misses)."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as E

    t = pa.table(
        {
            "doc_id": pa.array(list(range(6)), pa.int64()),
            "lang": pa.array(["en", "en", "fr", "fr", "en", "de"]),
            "text": pa.array(
                [
                    "the cat sat on the mat",
                    "the cat ran",
                    "le chat noir dort",
                    "le chat gris",
                    "one",              # single token -> no bigram, no row
                    "",                 # empty -> no row
                ]
            ),
        }
    )
    path = str(tmp_path / "documents.parquet")
    pq.write_table(t, path)
    out = _pd(A.dsir_scores(str(tmp_path)))
    assert out["doc_id"].tolist() == [0, 1, 2, 3]
    assert out["n_grams"].tolist() == [5, 2, 3, 2]
    w = dict(zip(out["doc_id"], out["weight_micro"]))
    assert w[0] > 0 and w[1] > 0          # target docs: more en-like
    assert w[2] < 0 and w[3] < 0          # french docs: OOV under target LM

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{path}'")
    want = con.execute(E.oracle_sql()["dsir_scores"]).df()
    con.close()
    pd.testing.assert_frame_equal(
        out.reset_index(drop=True).astype(want.dtypes.to_dict()), want
    )


def test_dsir_empty_target_raises(tmp_path, ray_session):
    import pyarrow as pa
    import pyarrow.parquet as pq

    t = pa.table(
        {
            "doc_id": pa.array([0], pa.int64()),
            "lang": pa.array(["fr"]),
            "text": pa.array(["le chat noir"]),
        }
    )
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    with pytest.raises(ValueError, match="target slice"):
        _pd(A.dsir_scores(str(tmp_path)))


def test_ngram_containment_planted_vs_duckdb(tmp_path, ray_session, monkeypatch):
    """The defining containment case: a short doc whose grams all appear
    inside a much longer doc (Jaccard ~ |A|/|B|, containment 1.0) must
    qualify; through BOTH verify tiers; exact match with the DuckDB twin
    (incl. empty-pair and short-text conventions)."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    import __ray_entry__ as E
    import sprout_ray.stages.dedup as D
    from sprout_ray.stages.dedup import ngram_jaccard_pairs_distributed

    inner = "the quick brown fox jumps over the lazy dog"
    outer = ("PREFIX blah blah unrelated content here " * 5) + inner + (
        " MORE trailing filler that shares nothing with it " * 5
    )
    rows = pd.DataFrame(
        {
            "doc_id": range(6),
            "text": [
                inner,                  # 0: contained in 1 -> containment 1.0
                outer,                  # 1
                "", "",                # 2,3: two-empties clique -> 1.0
                "xy",                   # 4: len<3 -> grams=[text], no partner
                "completely disjoint",  # 5
            ],
        }
    )
    path = str(tmp_path / "documents.parquet")
    pq.write_table(pa.Table.from_pandas(rows, preserve_index=False), path)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{path}'")
    want = con.execute(E.oracle_sql()["ngram_containment_pairs"]).df()
    con.close()
    assert [tuple(r) for r in want[["left_id", "right_id"]].values] == [
        (0, 1),
        (2, 3),
    ]
    ds = rd.read_parquet(path)
    for bmax in (500_000, 0):  # broadcast verify, then distributed-join verify
        monkeypatch.setattr(D, "TEXT_BROADCAST_MAX_DOCS", bmax)
        got = (
            ngram_jaccard_pairs_distributed(
                ds, n=3, threshold=0.95, metric="containment"
            )
            .to_pandas()[["left_id", "right_id", "containment"]]
            .sort_values(["left_id", "right_id"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got.astype(want.dtypes.to_dict()), want)


def test_pmi_top_bigrams_planted(tmp_path, ray_session):
    """Hand-computable PMI: a bigram whose tokens only co-occur scores
    above one whose tokens also appear apart; the min_count floor drops
    rare pairs; DuckDB twin agrees on the planted corpus."""
    import duckdb
    import math
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as E

    rows = ["tight pair"] * 6 + ["loose mix"] * 5 + ["loose solo", "mix alone"] * 3 + ["rare gem"]
    t = pa.table(
        {
            "doc_id": pa.array(range(len(rows)), pa.int64()),
            "text": pa.array(rows),
        }
    )
    path = str(tmp_path / "documents.parquet")
    pq.write_table(t, path)
    out = _pd(A.pmi_top_bigrams(str(tmp_path)))
    # "rare gem" (tf 1) is floored out; "tight pair" is the purest pair
    assert "rare gem" not in out["gram"].tolist()
    assert out.iloc[0]["gram"] == "tight pair"
    # hand-check the winner's PMI: tfb=6, nb=18, tf(tight)=6, tf(pair)=6, nu=36
    want_top = math.floor(
        (math.log(6 / 18) - math.log(6 / 36) - math.log(6 / 36)) * 1e8 + 0.5
    )
    assert int(out.iloc[0]["pmi_micro"]) == want_top

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{path}'")
    want = con.execute(E.oracle_sql()["pmi_top_bigrams"]).df()
    con.close()
    pd.testing.assert_frame_equal(
        out.reset_index(drop=True).astype(want.dtypes.to_dict()), want
    )


def test_leakage_safe_split_planted(tmp_path, ray_session):
    """The defining guarantee: exact duplicates whose doc_ids fall in
    DIFFERENT mod-10 classes still land in the SAME fold, because the
    cluster representative decides; DuckDB twin agrees."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as E

    # ids 3 (train-class), 18 (val-class), 29 (test-class) share one text:
    # all must follow cluster rep 3 -> 'train'
    ids = [3, 18, 29, 8, 9, 10]
    texts = ["dup"] * 3 + ["solo-val", "solo-test", "solo-train"]
    t = pa.table(
        {"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)}
    )
    path = str(tmp_path / "documents.parquet")
    pq.write_table(t, path)
    out = _pd(A.leakage_safe_split(str(tmp_path))).set_index("doc_id")
    assert out.loc[[3, 18, 29], "split"].tolist() == ["train"] * 3
    assert out.loc[[3, 18, 29], "cluster"].tolist() == [3] * 3
    assert out.loc[8, "split"] == "val" and out.loc[9, "split"] == "test"

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{path}'")
    want = con.execute(E.oracle_sql()["leakage_safe_split"]).df()
    con.close()
    got = _pd(A.leakage_safe_split(str(tmp_path))).reset_index(drop=True)
    pd.testing.assert_frame_equal(got.astype(want.dtypes.to_dict()), want)


def test_value_mad_by_type_planted(tmp_path, ray_session):
    """Hand-computable median/MAD/outliers, incl. percentile_disc's
    even-count behavior (ceil(n/2) -> lower middle) and a heavy-tail
    point that mean/stddev would smear but MAD isolates."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as E

    # type 'a': cents 100,200,300,400,10000 -> med=300 (ceil(2.5)=3rd),
    # dev 200,100,0,100,9700 -> sorted 0,100,100,200,9700 -> mad=100,
    # outliers: dev>300 -> just the 10000 point -> 1
    # type 'b': even count; cents 100,200,300,400 -> med=200 (ceil(2)=2nd),
    # dev 100,0,100,200 -> mad=100 (2nd of 0,100,100,200), outliers 0
    vals = [1.0, 2.0, 3.0, 4.0, 100.0, 1.0, 2.0, 3.0, 4.0]
    types = ["a"] * 5 + ["b"] * 4
    t = pa.table(
        {
            "event_id": pa.array(range(9), pa.int64()),
            "event_type": pa.array(types),
            "value": pa.array(vals, pa.float64()),
        }
    )
    path = str(tmp_path / "events.parquet")
    pq.write_table(t, path)
    out = _pd(A.value_mad_by_type(str(tmp_path))).set_index("event_type")
    assert out.loc["a"].tolist() == [300, 100, 1]
    assert out.loc["b"].tolist() == [200, 100, 0]

    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{path}'")
    want = con.execute(E.oracle_sql()["value_mad_by_type"]).df()
    con.close()
    got = _pd(A.value_mad_by_type(str(tmp_path))).reset_index(drop=True)
    pd.testing.assert_frame_equal(got.astype(want.dtypes.to_dict()), want)


def test_top3_sources_per_lang_ties(ray_session):
    """Rank, count-desc ordering and the source-asc tie-break match the
    row_number twin on the real corpus."""
    import duckdb

    import __ray_entry__ as E

    got = _pd(A.top3_sources_per_lang(SF)).reset_index(drop=True)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'"
    )
    want = con.execute(E.oracle_sql()["top3_sources_per_lang"]).df()
    con.close()
    pd.testing.assert_frame_equal(got.astype(want.dtypes.to_dict()), want)
    assert (got.groupby("lang")["rank"].max() <= 3).all()


def _winnow_reference(text: str, k: int, w: int) -> set:
    """Independent pure-Python winnowing (Schleimer et al. 2003, Fig. 5
    semantics: rightmost minimal hash per window, distinct selections)."""
    from sprout_ray.kernel.murmur3 import murmur3_64

    if len(text) == 0:
        return set()
    grams = (
        [text] if len(text) < k
        else [text[i : i + k] for i in range(len(text) - k + 1)]
    )
    hs = [murmur3_64(g.encode("utf-32-le"), 0) for g in grams]
    sel = set()
    if len(hs) < w:
        m = min(hs)
        sel.add(max(i for i, h in enumerate(hs) if h == m))
    else:
        for s in range(len(hs) - w + 1):
            win = hs[s : s + w]
            m = min(win)
            sel.add(s + max(i for i, h in enumerate(win) if h == m))
    return {hs[i] for i in sel}


def test_winnow_selection_matches_reference(ray_session):
    """Vectorized winnow selection == the pure-Python paper algorithm on
    random strings incl. short-doc and repeated-gram cases."""
    import numpy as np

    from sprout_ray.stages.dedup import _doc_gram_hashes, winnow_select

    rng = np.random.default_rng(5)
    texts = ["ab", "", "abcabcabcabc"] + [
        "".join(rng.choice(list("abcdefg"), size=int(n)))
        for n in rng.integers(1, 60, size=30)
    ]
    k, w = 3, 4
    h, d = _doc_gram_hashes(texts, k, distinct=False)
    sel = winnow_select(h, d, w)
    got = {}
    for p in sel:
        got.setdefault(int(d[p]), set()).add(int(h[p]))
    for i, t in enumerate(texts):
        assert got.get(i, set()) == _winnow_reference(t, k, w), (i, t)


def test_winnow_shared_coverage_and_density(tmp_path, ray_session):
    """Coverage: two docs sharing a substring >= w+k-1 chars must BOTH
    report a shared fingerprint; disjoint-alphabet docs report none;
    density lands near 2/(w+1); every non-empty doc has >= 1 fp."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(11)
    core = "THESHAREDSEGMENT"  # 16 chars >= w+k-1 = 6
    a = "".join(rng.choice(list("abcdefgh"), 50)) + core + "".join(
        rng.choice(list("abcdefgh"), 50)
    )
    b = "".join(rng.choice(list("ijklmnop"), 50)) + core + "".join(
        rng.choice(list("ijklmnop"), 50)
    )
    c = "".join(rng.choice(list("qrstuvwx"), 120))
    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array([a, b, c]),
        }
    )
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = _pd(A.winnow_shared(str(tmp_path))).set_index("doc_id")
    assert out.loc[0, "n_shared"] >= 1 and out.loc[1, "n_shared"] >= 1
    assert out.loc[2, "n_shared"] == 0
    assert (out["n_fps"] >= 1).all()
    # density: fingerprints per gram ~ 2/(w+1) = 0.4 (loose band)
    grams = sum(len(s) - 3 + 1 for s in (a, b, c))
    density = out["n_fps"].sum() / grams
    assert 0.2 <= density <= 0.6


def test_winnow_shared_join_paths_agree(tmp_path, ray_session, monkeypatch):
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from sprout_ray.stages.dedup import winnow_shared_docs

    t = pa.table(
        {
            "doc_id": pa.array(range(8), pa.int64()),
            "text": pa.array(
                ["shared prefix %d" % (i % 2) + "x" * i for i in range(8)]
            ),
        }
    )
    path = str(tmp_path / "documents.parquet")
    pq.write_table(t, path)
    ds = rd.read_parquet(path)
    a = winnow_shared_docs(ds, k=3, w=4).to_pandas()
    import sprout_ray.stages.joins as J

    monkeypatch.setattr(J, "DIM_BROADCAST_MAX", 0)  # force the hash join
    b = winnow_shared_docs(ds, k=3, w=4).to_pandas()
    pd.testing.assert_frame_equal(a, b)


def test_negative_pairs_bijection(ray_session):
    """Each vector anchors exactly twice (two strides) and serves as a
    negative exactly twice (stride addition is a bijection); no self-pairs;
    guard rejects tiny inputs."""
    out = _pd(A.negative_pairs(SF))
    n = out["vec_id"].nunique()
    assert len(out) == 2 * n
    counts = out.groupby("neg_id").size()
    assert (counts == 2).all() and len(counts) == n
    assert (out["vec_id"] != out["neg_id"]).all()
    assert set(out["stride"]) == {n // 3, n // 2}

    import pyarrow as pa
    import pyarrow.parquet as pq
    import tempfile, os

    with tempfile.TemporaryDirectory() as d:
        pq.write_table(
            pa.table(
                {
                    "vec_id": pa.array(range(3), pa.int64()),
                    "embedding": pa.array([[1.0, 0.0]] * 3, pa.list_(pa.float32())),
                }
            ),
            os.path.join(d, "embeddings.parquet"),
        )
        with pytest.raises(ValueError, match=">= 7 vectors"):
            _pd(A.negative_pairs(d))


def test_value_rank_by_type_planted(tmp_path, ray_session):
    """Rank-transform integers incl. tie handling: rank()-1 = strictly
    smaller count, n_eq = tie class size; DuckDB window twin agrees."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as E

    t = pa.table(
        {
            "event_id": pa.array(range(6), pa.int64()),
            "event_type": pa.array(["a", "a", "a", "a", "b", "b"]),
            "value": pa.array([1.0, 2.0, 2.0, 3.0, 5.0, 5.0], pa.float64()),
        }
    )
    path = str(tmp_path / "events.parquet")
    pq.write_table(t, path)
    out = _pd(A.value_rank_by_type(str(tmp_path)))
    assert out["n_lt"].tolist() == [0, 1, 1, 3, 0, 0]
    assert out["n_eq"].tolist() == [1, 2, 2, 1, 2, 2]
    assert out["n_group"].tolist() == [4, 4, 4, 4, 2, 2]

    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{path}'")
    want = con.execute(E.oracle_sql()["value_rank_by_type"]).df()
    con.close()
    pd.testing.assert_frame_equal(
        out.reset_index(drop=True).astype(want.dtypes.to_dict()), want
    )


def test_supplier_region_revenue_paths_and_oracle(monkeypatch):
    """Supply-side region rollup: broadcast and hash plans agree, and the
    result matches the 4-way DuckDB join at sf0.001."""
    import duckdb

    import __ray_entry__ as E
    import sprout_ray.stages.joins as J

    a = _pd(A.supplier_region_revenue(SF)).reset_index(drop=True)
    monkeypatch.setattr(J, "DIM_BROADCAST_MAX", 0)  # force hash join
    b = _pd(A.supplier_region_revenue(SF)).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)

    con = duckdb.connect()
    for t in ("lineitem", "supplier", "nation", "region"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    want = con.execute(E.oracle_sql()["supplier_region_revenue"]).df()
    pd.testing.assert_frame_equal(
        a[sorted(a.columns)], want[sorted(want.columns)], check_dtype=False
    )


def test_promo_brand_revenue_invariants():
    """Promo split: promo <= total per brand, and the global totals equal
    the unconditional lineitem revenue (every item lands in one brand)."""
    import duckdb

    out = _pd(A.promo_brand_revenue(SF))
    assert (out["promo_centicents"] <= out["revenue_centicents"]).all()
    assert (out["n_promo_items"] <= out["n_items"]).all()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW lineitem AS SELECT * FROM '{SF}/lineitem.parquet'")
    tot = con.execute(
        "SELECT CAST(sum(CAST(round(l_extendedprice*100) AS BIGINT)"
        "*(100 - CAST(round(l_discount*100) AS BIGINT))) AS BIGINT), "
        "count(*) FROM lineitem"
    ).fetchone()
    assert int(out["revenue_centicents"].sum()) == int(tot[0])
    assert int(out["n_items"].sum()) == int(tot[1])


def test_late_shipment_priority_planted(tmp_path, ray_session):
    """Planted regime: the >60d boundary is strict, orders without
    lineitems drop (inner semantics), priorities aggregate."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    us = 86_400 * 1_000_000  # one day
    t0 = 1_600_000_000_000_000
    orders = pa.table(
        {
            "o_orderkey": pa.array([1, 2, 3, 4], pa.int64()),
            "o_orderdate": pa.array([t0] * 4, pa.timestamp("us")),
            "o_orderpriority": pa.array(["HI", "HI", "LO", "LO"]),
        }
    )
    # order 1: ship at exactly +60d (NOT late, strict >); order 2: +61d
    # (late); order 3: two items, max +90d (late); order 4: no lineitems
    li = pa.table(
        {
            "l_orderkey": pa.array([1, 2, 3, 3], pa.int64()),
            "l_shipdate": pa.array(
                [t0 + 60 * us, t0 + 61 * us, t0 + 10 * us, t0 + 90 * us],
                pa.timestamp("us"),
            ),
        }
    )
    pq.write_table(orders, str(tmp_path / "orders.parquet"))
    pq.write_table(li, str(tmp_path / "lineitem.parquet"))
    out = _pd(A.late_shipment_priority(str(tmp_path)))
    assert out["o_orderpriority"].tolist() == ["HI", "LO"]
    assert out["n_late"].tolist() == [1, 1]
    # the above-budget join fallback plan must agree row-for-row
    fb = _pd(A._late_shipment_join_plan(str(tmp_path), 4)).sort_values(
        "o_orderpriority"
    )
    assert fb["o_orderpriority"].tolist() == ["HI", "LO"]
    assert fb["n_late"].tolist() == [1, 1]


def test_cont_quantiles_planted(tmp_path, ray_session):
    """Interpolation actually fires (even-count group: p50 halfway between
    the two middle values) and the DuckDB percentile_cont twin agrees."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as E

    t = pa.table(
        {
            "lang": pa.array(["a"] * 4 + ["b"] * 3),
            "n_chars": pa.array([10, 20, 30, 41, 5, 6, 100], pa.int64()),
        }
    )
    path = str(tmp_path / "documents.parquet")
    pq.write_table(t, path)
    out = _pd(A.cont_quantiles_by_lang(str(tmp_path)))
    # lang a: sorted [10,20,30,41]; p25 at 0.75 -> 17.5; p50 -> 25.0;
    # p75 at 2.25 -> 30 + 0.25*11 = 32.75. lang b: [5,6,100] exact stats.
    a_row = out[out["lang"] == "a"].iloc[0]
    assert (a_row["p25"], a_row["p50"], a_row["p75"]) == (17.5, 25.0, 32.75)
    b_row = out[out["lang"] == "b"].iloc[0]
    assert (b_row["p25"], b_row["p50"], b_row["p75"]) == (5.5, 6.0, 53.0)

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{path}'")
    want = con.execute(E.oracle_sql()["cont_quantiles_by_lang"]).df()
    pd.testing.assert_frame_equal(
        out.reset_index(drop=True), want, check_dtype=False
    )


def test_ann_filtered_topk_respects_predicate(ray_session):
    """Every returned neighbor satisfies the label predicate, and the
    filter genuinely changes the result vs the unfiltered brute top-k."""
    import pyarrow.parquet as pq_mod

    out = _pd(A.ann_filtered_topk(SF))
    lab = pq_mod.read_table(
        f"{SF}/embeddings.parquet", columns=["vec_id", "label"]
    ).to_pandas()
    labels = dict(zip(lab["vec_id"], lab["label"]))
    assert all(labels[v] == 3 for v in out["vec_id"])
    assert len(out) == 4 * 5
    brute = _pd(A.ann_brute_topk(SF))
    # the unfiltered top-10 contains non-label-3 neighbors the filtered
    # search must exclude
    assert any(labels[v] != 3 for v in brute["vec_id"])


def test_hybrid_rrf_fuses_both_lists(ray_session):
    """RRF output: a doc on BOTH heads carries both contributions
    (rrf_units > max single-list points), rank-1 vector hit is the query
    doc itself (cos=1), and all units are exact integer 1e8//(60+r)."""
    out = _pd(A.hybrid_rrf_topk(SF))
    assert len(out) == 20  # 4 queries x top-5
    valid_single = {10**8 // (60 + r) for r in range(1, 11)}
    valid = valid_single | {
        a + b for a in valid_single for b in valid_single
    }
    assert set(out["rrf_units"]) <= valid
    # the query doc itself ranks 1 on the vector side (cosine 1.0):
    # its fused score includes the max vector contribution 1e8//61
    for q in (0, 1, 2, 3):
        self_row = out[(out["query_id"] == q) & (out["doc_id"] == q)]
        assert len(self_row) == 1
        assert self_row["rrf_units"].iloc[0] >= 10**8 // 61
    # at least one doc fused from both lists (score above any single max)
    assert (out["rrf_units"] > 10**8 // 61).any()


def test_lang_source_rollup_identity(ray_session):
    """Rollup identity: each level re-aggregates the finer one exactly."""
    out = _pd(A.lang_source_rollup(SF))
    fine = out[out["level"] == 0]
    mid = out[out["level"] == 1]
    top = out[out["level"] == 2]
    assert len(top) == 1
    for col in ("n_docs", "sum_chars"):
        assert int(fine[col].sum()) == int(top[col].iloc[0])
        assert int(mid[col].sum()) == int(top[col].iloc[0])
    got_mid = fine.groupby("lang")["n_docs"].sum().to_dict()
    assert got_mid == dict(zip(mid["lang"], mid["n_docs"]))
    assert mid["source"].isna().all() and top["lang"].isna().all()


def test_value_time_corr_planted_signs(tmp_path, ray_session):
    """Perfect positive/negative trends give corr = +/-1.0; the twin
    agrees on the pinned formula."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as E

    n = 50
    base = 1_600_000_000_000_000
    ts = pa.array([base + i * 60_000_000 for i in range(n)] * 2, pa.timestamp("us"))
    t = pa.table(
        {
            "event_type": pa.array(["up"] * n + ["down"] * n),
            "ts": ts,
            "value": pa.array(
                [float(i) for i in range(n)] + [float(n - i) for i in range(n)],
                pa.float64(),
            ),
        }
    )
    path = str(tmp_path / "events.parquet")
    pq.write_table(t, path)
    out = _pd(A.value_time_corr(str(tmp_path)))
    got = dict(zip(out["event_type"], out["corr"]))
    assert got == {"up": 1.0, "down": -1.0}
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{path}'")
    want = con.execute(E.oracle_sql()["value_time_corr"]).df()
    pd.testing.assert_frame_equal(
        out.reset_index(drop=True), want, check_dtype=False
    )


def test_props_key_stats_missing_keys(tmp_path, ray_session):
    """Rows whose props lack a parseable k count as missing and stay out
    of the numeric aggregates; the json_extract twin agrees."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as E

    t = pa.table(
        {
            "event_type": pa.array(["a", "a", "a", "b"]),
            "props": pa.array(
                ['{"k": 5}', '{"other": 1}', '{"k": -3}', "not json"]
            ),
        }
    )
    path = str(tmp_path / "events.parquet")
    pq.write_table(t, path)
    out = _pd(A.props_key_stats(str(tmp_path)))
    a = out[out["event_type"] == "a"].iloc[0]
    assert (a["n"], a["n_missing"], a["sum_k"], a["min_k"], a["max_k"]) == (
        3, 1, 2, -3, 5,
    )
    b = out[out["event_type"] == "b"].iloc[0]
    assert b["n_missing"] == 1 and pd.isna(b["sum_k"])

    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{path}'")
    want = con.execute(E.oracle_sql()["props_key_stats"]).df()
    pd.testing.assert_frame_equal(
        out.reset_index(drop=True), want, check_dtype=False
    )


def test_user_setops_planted(tmp_path, ray_session):
    """INTERSECT/EXCEPT combination counts on a planted user universe:
    both / click-only / purchase-only partition correctly, other event
    types never leak a user in."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    t = pa.table(
        {
            "user_id": pa.array([1, 1, 2, 3, 3, 4, 5, 5], pa.int64()),
            "event_type": pa.array(
                ["click", "purchase", "purchase", "click", "click",
                 "view", "click", "view"]
            ),
        }
    )
    pq.write_table(t, str(tmp_path / "events.parquet"))
    out = _pd(A.user_setops(str(tmp_path)))
    assert out["n_both"].tolist() == [1]        # user 1
    assert out["n_click_only"].tolist() == [2]  # users 3, 5
    assert out["n_purchase_only"].tolist() == [1]  # user 2


def test_cube_type_weekday_planted(tmp_path, ray_session):
    """CUBE invariants on a planted grid: every grouping level sums to
    the same grand total, the gid=3 row IS the grand total, and the
    DuckDB GROUP BY CUBE twin agrees bit-for-bit (incl. a planted
    exact-.5 half-away rounding case, positive and negative)."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as E

    day_us = 86_400_000_000
    t = pa.table(
        {
            "ts": pa.array(
                [0, day_us, 2 * day_us, 2 * day_us + 1, 3 * day_us],
                pa.timestamp("us"),
            ),
            "event_type": pa.array(["a", "a", "b", "b", "a"]),
            "value": pa.array([0.125, -0.125, 1.0, 2.0, 3.0], pa.float64()),
        }
    )
    path = str(tmp_path / "events.parquet")
    pq.write_table(t, path)
    out = _pd(A.cube_type_weekday(str(tmp_path)))
    grand = out[out["gid"] == 3]
    assert grand["n_events"].tolist() == [5]
    for gid in (0, 1, 2):
        lvl = out[out["gid"] == gid]
        assert lvl["n_events"].sum() == 5
        assert lvl["value_c"].sum() == grand["value_c"].iloc[0]
    # exact-.5 half-away: 0.125 -> 13, -0.125 -> -13 (not banker's 12)
    assert grand["value_c"].tolist() == [13 - 13 + 100 + 200 + 300]

    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{path}'")
    want = con.execute(E.oracle_sql()["cube_type_weekday"]).df()
    con.close()
    got = out.sort_values(list(out.columns)).reset_index(drop=True)
    want = want.sort_values(list(want.columns)).reset_index(drop=True)
    pd.testing.assert_frame_equal(got.astype(want.dtypes.to_dict()), want)


def test_nations_volume_shipping_planted(tmp_path, ray_session):
    """Q7 join chain on a planted 5-table micro-warehouse: revenue lands
    on the right (supp_nation, cust_nation, year) cell; DuckDB twin
    agrees."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as E

    pq.write_table(
        pa.table(
            {
                "n_nationkey": pa.array([0, 1], pa.int32()),
                "n_name": pa.array(["ALPHA", "BETA"]),
            }
        ),
        str(tmp_path / "nation.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "s_suppkey": pa.array([10, 11], pa.int64()),
                "s_nationkey": pa.array([0, 1], pa.int32()),
            }
        ),
        str(tmp_path / "supplier.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "c_custkey": pa.array([20, 21], pa.int64()),
                "c_nationkey": pa.array([1, 0], pa.int32()),
            }
        ),
        str(tmp_path / "customer.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "o_orderkey": pa.array([30, 31], pa.int64()),
                "o_custkey": pa.array([20, 21], pa.int64()),
            }
        ),
        str(tmp_path / "orders.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "l_orderkey": pa.array([30, 30, 31], pa.int64()),
                "l_suppkey": pa.array([10, 11, 10], pa.int64()),
                "l_extendedprice": pa.array([100.0, 200.0, 50.0], pa.float64()),
                "l_discount": pa.array([0.1, 0.0, 0.05], pa.float64()),
                "l_shipdate": pa.array(
                    [86_400_000_000 * 9000, 86_400_000_000 * 9000,
                     86_400_000_000 * 9500],
                    pa.timestamp("us"),
                ),
            }
        ),
        str(tmp_path / "lineitem.parquet"),
    )
    out = _pd(A.nations_volume_shipping(str(tmp_path)))
    # line 1: supp ALPHA -> cust BETA, 10000c * 90 = 900000 centi-cents
    row = out[(out["supp_nation"] == "ALPHA") & (out["cust_nation"] == "BETA")]
    assert row["revenue_cc"].tolist() == [900000]

    con = duckdb.connect()
    for tbl in ("nation", "supplier", "customer", "orders", "lineitem"):
        con.execute(f"CREATE VIEW {tbl} AS SELECT * FROM '{tmp_path}/{tbl}.parquet'")
    want = con.execute(E.oracle_sql()["nations_volume_shipping"]).df()
    con.close()
    got = out.sort_values(list(out.columns)).reset_index(drop=True)
    want = want.sort_values(list(want.columns)).reset_index(drop=True)
    pd.testing.assert_frame_equal(got.astype(want.dtypes.to_dict()), want)


def test_kmv_overlap_exact_guard(tmp_path, ray_session):
    """Below-capacity requirement is loud: a k smaller than the distinct
    count must raise, never silently fall back to the estimator."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    t = pa.table(
        {
            "user_id": pa.array(list(range(64)), pa.int64()),
            "event_type": pa.array(["click"] * 64),
        }
    )
    pq.write_table(t, str(tmp_path / "events.parquet"))
    with pytest.raises(ValueError, match="raise k"):
        A.kmv_overlap_exact(str(tmp_path), k=16)


def test_parts_pareto_planted(tmp_path, ray_session):
    """Skyline edge cases: duplicate-point tie classes survive together,
    equal price at a smaller size dominates (strict size), equal size
    higher price is dominated (strict price)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    t = pa.table(
        {
            "p_partkey": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
            "p_size": pa.array([1, 1, 2, 2, 3, 3], pa.int32()),
            # (1,5.0) (1,5.0) dup tie-class; (2,5.0) dominated by size 1
            # same price; (2,3.0) survives; (3,3.0) dominated by (2,3.0);
            # (3,1.0) survives
            "p_retailprice": pa.array(
                [5.0, 5.0, 5.0, 3.0, 3.0, 1.0], pa.float64()
            ),
        }
    )
    pq.write_table(t, str(tmp_path / "part.parquet"))
    out = _pd(A.parts_pareto(str(tmp_path)))
    assert out["p_partkey"].tolist() == [1, 2, 4, 6]


def test_daily_counts_dense_gap(tmp_path, ray_session):
    """Zero-activity days INSIDE the span materialize with n_events=0 —
    the regime the driver testdata (no gaps) never exercises."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    day_us = 86_400_000_000
    t = pa.table(
        {
            "ts": pa.array(
                [10 * day_us, 10 * day_us + 1, 13 * day_us],
                pa.timestamp("us"),
            )
        }
    )
    pq.write_table(t, str(tmp_path / "events.parquet"))
    out = _pd(A.daily_counts_dense(str(tmp_path)))
    assert out["day"].tolist() == [10, 11, 12, 13]
    assert out["n_events"].tolist() == [2, 0, 0, 1]


def test_orders_late_exists_boundary(tmp_path, ray_session):
    """EXISTS inequality is STRICT: a ship exactly grace_days after the
    order date is not late; one item past the line makes the whole
    order late exactly once."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    day_us = 86_400_000_000
    pq.write_table(
        pa.table(
            {
                "o_orderkey": pa.array([1, 2, 3], pa.int64()),
                "o_orderdate": pa.array(
                    [0, 0, 0], pa.timestamp("us")
                ),
                "o_orderpriority": pa.array(["1-URGENT"] * 3),
            }
        ),
        str(tmp_path / "orders.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "l_orderkey": pa.array([1, 2, 3, 3], pa.int64()),
                # order 1: exactly 30d -> NOT late; order 2: 30d+1us ->
                # late; order 3: two late items -> counted once
                "l_shipdate": pa.array(
                    [30 * day_us, 30 * day_us + 1, 31 * day_us, 40 * day_us],
                    pa.timestamp("us"),
                ),
            }
        ),
        str(tmp_path / "lineitem.parquet"),
    )
    out = _pd(A.orders_late_exists(str(tmp_path)))
    assert out["n_late_orders"].tolist() == [2]
    # the above-budget union-groupby fallback plan must agree
    fb = _pd(A._orders_late_union_plan(str(tmp_path), 30))
    assert fb["n_late_orders"].tolist() == [2]


def test_daily_delta_gap_and_null(tmp_path, ray_session):
    """Delta crosses zero-filled gap days; the first row's delta is NULL
    (SQL LAG parity)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    day_us = 86_400_000_000
    pq.write_table(
        pa.table(
            {
                "ts": pa.array(
                    [5 * day_us, 5 * day_us + 1, 8 * day_us],
                    pa.timestamp("us"),
                )
            }
        ),
        str(tmp_path / "events.parquet"),
    )
    out = _pd(A.daily_delta(str(tmp_path)))
    assert out["day"].tolist() == [5, 6, 7, 8]
    assert out["n_events"].tolist() == [2, 0, 0, 1]
    assert pd.isna(out["delta"].iloc[0])
    assert out["delta"].tolist()[1:] == [-2, 0, 1]


def test_user_growth_accounting_planted(tmp_path, ray_session):
    """New vs returning split: first-ever day counts as new, later days
    returning; multiple same-day events dedupe to one active."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    day_us = 86_400_000_000
    pq.write_table(
        pa.table(
            {
                "user_id": pa.array([1, 1, 1, 2, 2], pa.int64()),
                # u1 active d0 (twice) and d1; u2 first seen d1
                "ts": pa.array(
                    [0, 1, day_us, day_us, day_us + 5], pa.timestamp("us")
                ),
            }
        ),
        str(tmp_path / "events.parquet"),
    )
    out = _pd(A.user_growth_accounting(str(tmp_path)))
    assert out["day"].tolist() == [0, 1]
    assert out["n_active"].tolist() == [1, 2]
    assert out["n_new"].tolist() == [1, 1]
    assert out["n_returning"].tolist() == [0, 1]


def test_revenue_concentration_tie_at_cut(tmp_path, ray_session):
    """Ties at the top-N boundary resolve by custkey ASC, matching the
    SQL row_number twin; ppm is floor division."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    pq.write_table(
        pa.table(
            {
                # cust 1: 10.00, cust 2: 5.00, cust 3: 5.00 -> top-2 is
                # {1, 2} (tie broken toward the smaller custkey)
                "o_custkey": pa.array([1, 2, 3], pa.int64()),
                "o_totalprice": pa.array([10.0, 5.0, 5.0], pa.float64()),
            }
        ),
        str(tmp_path / "orders.parquet"),
    )
    out = _pd(A.revenue_concentration(str(tmp_path), top_n=2))
    assert out["n_customers"].tolist() == [3]
    assert out["total_c"].tolist() == [2000]
    assert out["top_c"].tolist() == [1500]
    assert out["top_ppm"].tolist() == [750000]


def test_doc_chunks_fanout(tmp_path, ray_session):
    """Multi-chunk fan-out regime (the driver testdata docs are all
    single-chunk): stride/overlap geometry, the short final chunk, and
    the n == chunk boundary (exactly one chunk)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "text": pa.array(
                    [
                        " ".join(["w"] * 300),  # 3 chunks: 0-128,96-224,192-300
                        " ".join(["w"] * 128),  # exactly one chunk
                        "",                      # empty: one 0-token chunk
                    ]
                ),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    out = _pd(A.doc_chunks(str(tmp_path)))
    d1 = out[out["doc_id"] == 1]
    assert d1["start_tok"].tolist() == [0, 96, 192]
    assert d1["end_tok"].tolist() == [128, 224, 300]
    assert d1["n_tokens"].tolist() == [128, 128, 108]
    assert out[out["doc_id"] == 2]["n_tokens"].tolist() == [128]
    assert out[out["doc_id"] == 3]["n_tokens"].tolist() == [0]


def test_type_decay_scores_horizon(tmp_path, ray_session):
    """Weight 2^(30-age) with a hard zero beyond the horizon: an event
    31 days older than the newest contributes nothing."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    day_us = 86_400_000_000
    pq.write_table(
        pa.table(
            {
                "ts": pa.array(
                    [40 * day_us, 39 * day_us, 9 * day_us], pa.timestamp("us")
                ),
                "event_type": pa.array(["a", "a", "a"]),
            }
        ),
        str(tmp_path / "events.parquet"),
    )
    out = _pd(A.type_decay_scores(str(tmp_path)))
    # newest: 2^30; 1 day old: 2^29; 31 days old: 0
    assert out["decayed_score"].tolist() == [(1 << 30) + (1 << 29)]


def test_user_value_intervals_strict_ties(tmp_path, ray_session):
    """Strictness under (user, ts) ties: two events at the same instant
    both get the NEXT strictly-later timestamp as valid_to (never each
    other's equal ts); the last interval stays open (NULL)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    pq.write_table(
        pa.table(
            {
                "event_id": pa.array([1, 2, 3, 4], pa.int64()),
                "ts": pa.array([100, 100, 250, 400], pa.timestamp("us")),
                "user_id": pa.array([7, 7, 7, 7], pa.int64()),
            }
        ),
        str(tmp_path / "events.parquet"),
    )
    out = _pd(A.user_value_intervals(str(tmp_path)))
    assert out["valid_from_us"].tolist() == [100, 100, 250, 400]
    assert out["valid_to_us"].tolist()[:3] == [250, 250, 400]
    assert pd.isna(out["valid_to_us"].iloc[3])


def test_type_jaccard_pairs_planted(tmp_path, ray_session):
    """Jaccard ppm on a planted overlap: |A|=3, |B|=2, both=1 ->
    1e6 // 4; disjoint pairs never emit a row."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    pq.write_table(
        pa.table(
            {
                # A: users 1,2,3; B: users 3,4; C: user 9 (disjoint)
                "user_id": pa.array([1, 2, 3, 3, 4, 9], pa.int64()),
                "event_type": pa.array(["a", "a", "a", "b", "b", "c"]),
            }
        ),
        str(tmp_path / "events.parquet"),
    )
    out = _pd(A.type_jaccard_pairs(str(tmp_path)))
    assert out["type_a"].tolist() == ["a"]
    assert out["type_b"].tolist() == ["b"]
    assert out["n_both"].tolist() == [1]
    assert out["n_a"].tolist() == [3]
    assert out["n_b"].tolist() == [2]
    assert out["jaccard_ppm"].tolist() == [250000]


def test_trimmed_value_sums_planted(tmp_path, ray_session):
    """Trim boundary cases: ties straddling the cut are dropped by VALUE
    multiset (matching any row_number tie order); groups with <= 2k rows
    trim to empty; k=1 keeps the middle."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    pq.write_table(
        pa.table(
            {
                # type a: values 1,2,2,2,9 -> k=1 drops one 1 and one 9,
                # kept sum = 6; type b: 2 rows <= 2k -> empty trim
                "event_type": pa.array(["a"] * 5 + ["b"] * 2),
                "value": pa.array(
                    [0.01, 0.02, 0.02, 0.02, 0.09, 1.0, 2.0], pa.float64()
                ),
            }
        ),
        str(tmp_path / "events.parquet"),
    )
    out = _pd(A.trimmed_value_sums(str(tmp_path), k=1))
    assert out["event_type"].tolist() == ["a", "b"]
    assert out["trimmed_c"].tolist() == [6, 0]
    assert out["n_kept"].tolist() == [3, 0]


def test_tpch_q13_q17_q21_q22_planted(tmp_path, ray_session):
    """Planted regimes the driver testdata misses: a zero-order bucket
    (q13), qualifying small-quantity lines (q17), a solo-late supplier in
    a multi-supplier order with both an all-late and a single-supplier
    decoy order (q21), and above-average-balance customers with no orders
    (q22) — each compared against its own oracle SQL on the planted
    tables."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as E

    DAY = 86_400_000_000
    T0 = DAY * 19_000  # some epoch day

    pq.write_table(
        pa.table(
            {
                "c_custkey": pa.array(list(range(8)), pa.int64()),
                "c_name": pa.array([f"C{i}" for i in range(8)]),
                "c_nationkey": pa.array([0] * 8, pa.int64()),
                "c_acctbal": pa.array(
                    [1000.0, 2000.0, 3000.0, -50.0, 500.0, 4000.0, 10.0, 2500.0],
                    pa.float64(),
                ),
                "c_mktsegment": pa.array(["A", "B"] * 4),
            }
        ),
        str(tmp_path / "customer.parquet"),
    )
    # customers 4..7 never order (q13 zero bucket = 4; q22 idle pool);
    # avg positive balance = 13010/7 ~ 1858.57 -> idle & above-avg:
    # cust5 (4000.00, seg B) and cust7 (2500.00, seg B)
    pq.write_table(
        pa.table(
            {
                "o_orderkey": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
                "o_custkey": pa.array([0, 0, 1, 2, 3, 3], pa.int64()),
                "o_orderstatus": pa.array(["F"] * 6),
                "o_totalprice": pa.array([100.0] * 6, pa.float64()),
                "o_orderdate": pa.array([T0] * 6, pa.timestamp("us")),
                "o_orderpriority": pa.array(["1-URGENT"] * 6),
            }
        ),
        str(tmp_path / "orders.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "s_suppkey": pa.array([1, 2, 3], pa.int64()),
                "s_name": pa.array(["S1", "S2", "S3"]),
                "s_nationkey": pa.array([0, 0, 0], pa.int64()),
                "s_acctbal": pa.array([0.0, 0.0, 0.0], pa.float64()),
            }
        ),
        str(tmp_path / "supplier.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "p_partkey": pa.array([100, 101], pa.int64()),
                "p_name": pa.array(["pa", "pb"]),
                "p_brand": pa.array(["Brand#1", "Brand#2"]),
                "p_type": pa.array(["t", "t"]),
                "p_size": pa.array([1, 1], pa.int64()),
                "p_retailprice": pa.array([1.0, 1.0], pa.float64()),
            }
        ),
        str(tmp_path / "lineitem_unused.parquet"),
    )
    import os

    os.rename(
        str(tmp_path / "lineitem_unused.parquet"), str(tmp_path / "part.parquet")
    )
    # order 1: supp 1 late, supp 2 on time  -> S1 counted
    # order 2: supp 1 late, supp 2 late     -> excluded (two late)
    # order 3: supp 1 late alone            -> excluded (single supplier)
    # order 4: supp 2 on time, supp 3 late  -> S3 counted
    # q17: part 100 (Brand#1) quantities [1,10,10,10,10]: sum=41, cnt=5,
    # qty 1 qualifies (5*1*5=25 < 41); part 101 is the other brand
    lk = [1, 1, 2, 2, 3, 4, 4, 5, 5, 5]
    sk = [1, 2, 1, 2, 1, 2, 3, 1, 1, 1]
    late = [1, 0, 1, 1, 1, 0, 1, 0, 0, 0]
    qty = [1.0, 10.0, 10.0, 10.0, 10.0, 5.0, 5.0, 5.0, 5.0, 5.0]
    pkey = [100, 100, 100, 100, 100, 101, 101, 101, 101, 101]
    pq.write_table(
        pa.table(
            {
                "l_orderkey": pa.array(lk, pa.int64()),
                "l_partkey": pa.array(pkey, pa.int64()),
                "l_suppkey": pa.array(sk, pa.int64()),
                "l_linenumber": pa.array(list(range(1, 11)), pa.int64()),
                "l_quantity": pa.array(qty, pa.float64()),
                "l_extendedprice": pa.array([10.0 * q for q in qty], pa.float64()),
                "l_discount": pa.array([0.0] * 10, pa.float64()),
                "l_tax": pa.array([0.0] * 10, pa.float64()),
                "l_returnflag": pa.array(["N"] * 10),
                "l_linestatus": pa.array(["O"] * 10),
                "l_shipdate": pa.array(
                    [T0 + (61 if is_late else 10) * DAY for is_late in late],
                    pa.timestamp("us"),
                ),
            }
        ),
        str(tmp_path / "lineitem.parquet"),
    )
    # NOTE order 5 belongs to no planted late scenario (single supplier,
    # all on time) and carries the Brand#2 decoy lines for q17

    con = duckdb.connect()
    for tbl in ("customer", "orders", "supplier", "part", "lineitem"):
        con.execute(f"CREATE VIEW {tbl} AS SELECT * FROM '{tmp_path}/{tbl}.parquet'")
    sqls = E.oracle_sql()
    for name, fn in [
        ("q13_customer_distribution", A.q13_customer_distribution),
        ("q17_small_quantity_revenue", A.q17_small_quantity_revenue),
        ("q21_waiting_suppliers", A.q21_waiting_suppliers),
        ("q22_idle_balance", A.q22_idle_balance),
    ]:
        got = _pd(fn(str(tmp_path)))
        want = con.execute(sqls[name]).df()
        got = got[sorted(got.columns)].sort_values(sorted(got.columns)).reset_index(drop=True)
        want = want[sorted(want.columns)].sort_values(sorted(want.columns)).reset_index(drop=True)
        pd.testing.assert_frame_equal(got.astype(want.dtypes.to_dict()), want), name
    con.close()
    # the planted regimes actually fired
    q13 = _pd(A.q13_customer_distribution(str(tmp_path)))
    assert 0 in q13["c_orders"].tolist()
    assert q13.loc[q13["c_orders"] == 0, "n_custs"].tolist() == [4]
    q17 = _pd(A.q17_small_quantity_revenue(str(tmp_path)))
    assert q17["n_lines"].tolist() == [1] and q17["revenue_cents"].tolist() == [1000]
    q21 = _pd(A.q21_waiting_suppliers(str(tmp_path)))
    assert sorted(zip(q21["s_name"], q21["numwait"])) == [("S1", 1), ("S3", 1)]
    q22 = _pd(A.q22_idle_balance(str(tmp_path)))
    assert q22["c_mktsegment"].tolist() == ["B"]
    assert q22["n_custs"].tolist() == [2]
    assert q22["balance_cents"].tolist() == [650000]
