"""Edge cases: nulls, empty inputs, planted similarity duplicates."""

import numpy as np
import pyarrow as pa
import pytest


class TestNulls:
    def test_sketch_agg_drops_nulls(self, ray_session):
        import ray.data as rd

        from sprout_ray.kernel import SketchSpec
        from sprout_ray.stages.agg import SketchAgg

        t = pa.table({"k": ["a", None, "b", None, "a"]})
        res = rd.from_arrow(t).aggregate(
            SketchAgg(SketchSpec.of("hll", 12), on="k", alias_name="est",
                      finalizer=lambda s: float(s.estimate()))
        )
        assert res["est"] == pytest.approx(2.0, rel=0.05)

    def test_build_sketch_null_column(self, ray_session):
        import ray.data as rd

        from sprout_ray.kernel import SketchSpec
        from sprout_ray.stages.builder import build_sketch

        t = pa.table({"k": pa.array([None, None], pa.string())})
        bf = build_sketch(rd.from_arrow(t), SketchSpec.of("bloom", 0.01, 100), on="k")
        assert bf.count == 0

    def test_sha256_null_passthrough(self):
        from sprout_ray.functions.hashing import sha256_column

        out = sha256_column(pa.array(["x", None]))
        assert out[1].as_py() is None
        assert len(out[0].as_py()) == 64


class TestEmpty:
    def test_empty_dataset_build(self, ray_session):
        import ray.data as rd

        from sprout_ray.kernel import SketchSpec
        from sprout_ray.stages.builder import build_sketch

        t = pa.table({"k": pa.array([], pa.string())})
        bf = build_sketch(rd.from_arrow(t), SketchSpec.of("bloom", 0.01, 100), on="k")
        assert bf.count == 0
        assert not bf.contains(b"anything")

    def test_empty_minhash(self, ray_session):
        import ray.data as rd

        from sprout_ray.stages.dedup import minhash_dedup_pairs

        t = pa.table({"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())})
        out = minhash_dedup_pairs(rd.from_arrow(t))
        assert out.count() == 0

    def test_empty_key_hashing(self):
        from sprout_ray.kernel import BloomFilter

        bf = BloomFilter(0.01, 100)
        bf.add(b"")
        assert bf.contains(b"")
        assert bf.count == 1


class TestPlantedSimilarity:
    def test_embedding_near_dup_finds_planted(self, ray_session, monkeypatch):
        import ray.data as rd

        from sprout_ray.stages.similarity import embedding_near_dup_pairs

        rng = np.random.default_rng(1)
        vecs = rng.standard_normal((100, 16)).astype(np.float32)
        vecs[50] = vecs[10] * 2.0  # same direction -> cosine 1.0
        vecs[51] = vecs[20] + rng.standard_normal(16).astype(np.float32) * 0.01
        t = pa.table(
            {
                "vec_id": list(range(100)),
                "embedding": pa.FixedSizeListArray.from_arrays(
                    pa.array(vecs.reshape(-1)), 16
                ),
            }
        )
        out = embedding_near_dup_pairs(
            rd.from_arrow(t), threshold=0.95
        ).to_pandas()
        got = set(zip(out["left_id"], out["right_id"]))
        assert (10, 50) in got and (20, 51) in got
        assert len(got) < 10  # random vectors don't flood the result
        # DIM_BROADCAST_MAX=0 forces the distributed semi-join hot filter:
        # same pairs
        import sprout_ray.stages.joins as J

        monkeypatch.setattr(J, "DIM_BROADCAST_MAX", 0)
        out2 = embedding_near_dup_pairs(
            rd.from_arrow(t), threshold=0.95
        ).to_pandas()
        assert set(zip(out2["left_id"], out2["right_id"])) == got

    def test_ivf_full_probe_equals_exact(self, ray_session):
        import ray.data as rd

        from sprout_ray.stages.similarity import ann_topk, ivf_topk

        rng = np.random.default_rng(2)
        vecs = rng.standard_normal((800, 32)).astype(np.float32)
        t = pa.table(
            {
                "vec_id": list(range(800)),
                "embedding": pa.FixedSizeListArray.from_arrays(
                    pa.array(vecs.reshape(-1)), 32
                ),
            }
        )
        ds = rd.from_arrow(t)
        q = vecs[:2]
        exact = ann_topk(ds, q, k=8)
        # nprobe == nlist scans everything -> must equal brute force
        full = ivf_topk(ds, q, k=8, nlist=8, nprobe=8)
        for qi in range(2):
            e = set(exact[exact["query_id"] == qi]["vec_id"])
            a = set(full[full["query_id"] == qi]["vec_id"])
            assert e == a
        # partial probing keeps reasonable recall on the self-query
        part = ivf_topk(ds, q, k=8, nlist=8, nprobe=3)
        for qi in range(2):
            assert qi in set(part[part["query_id"] == qi]["vec_id"])

    def test_ann_recall_vs_exact(self, ray_session):
        import ray.data as rd

        from sprout_ray.stages.similarity import ann_topk, _normalize

        rng = np.random.default_rng(3)
        vecs = rng.standard_normal((300, 24)).astype(np.float32)
        q = vecs[:2]
        t = pa.table(
            {
                "vec_id": list(range(300)),
                "embedding": pa.FixedSizeListArray.from_arrays(
                    pa.array(vecs.reshape(-1)), 24
                ),
            }
        )
        out = ann_topk(rd.from_arrow(t), q, k=5)
        n = _normalize(vecs)
        for qi in range(2):
            exact = set(np.argsort(-(n @ n[qi]))[:5].tolist())
            got = set(out[out["query_id"] == qi]["vec_id"].tolist())
            assert got == exact


class TestLongKeys:
    def test_bloom_over_long_variable_keys(self):
        from sprout_ray.kernel import BloomFilter

        rng = np.random.default_rng(9)
        keys = [bytes(rng.integers(0, 256, int(n))) for n in rng.integers(1, 5000, 200)]
        bf = BloomFilter(0.01, 1000)
        bf.add_batch(keys)
        assert bf.contains_batch(keys).all()


class TestExactCosinePairs:
    def _table(self, vecs):
        return pa.table(
            {
                "vec_id": list(range(len(vecs))),
                "embedding": pa.FixedSizeListArray.from_arrays(
                    pa.array(vecs.reshape(-1)), vecs.shape[1]
                ),
            }
        )

    def test_matches_numpy_all_pairs(self, ray_session):
        import ray.data as rd

        from sprout_ray.stages.similarity import _normalize, exact_cosine_pairs

        rng = np.random.default_rng(11)
        vecs = rng.standard_normal((120, 16)).astype(np.float32)
        vecs[60] = vecs[5] * 3.0  # planted exact-direction dup
        vecs[61] = vecs[6] + rng.standard_normal(16).astype(np.float32) * 0.01
        ds = rd.from_arrow(self._table(vecs))
        out = exact_cosine_pairs(ds, threshold=0.4).to_pandas()
        got = set(zip(out["id_a"], out["id_b"]))
        n = _normalize(vecs.astype(np.float64))
        s = n @ n.T
        iu = np.triu_indices(len(vecs), 1)
        want = {
            (int(a), int(b))
            for a, b in zip(iu[0], iu[1])
            if s[a, b] >= 0.4
        }
        assert got == want  # exact tier: every pair once, none missed
        assert (5, 60) in got and (6, 61) in got
        # scores agree with the float64 reference
        for _, r in out.iterrows():
            assert abs(r["score"] - s[int(r["id_a"]), int(r["id_b"])]) < 1e-9

    def test_empty_and_guard(self, ray_session):
        import ray.data as rd

        from sprout_ray.stages.similarity import exact_cosine_pairs

        rng = np.random.default_rng(12)
        vecs = rng.standard_normal((10, 8)).astype(np.float32)
        ds = rd.from_arrow(self._table(vecs))
        # impossible threshold -> zero rows (the query wrapper
        # embedding_neardup_exact substitutes a schema-bearing empty table;
        # a 0-row Dataset itself drops schema on to_pandas)
        out = exact_cosine_pairs(ds, threshold=1.5).to_pandas()
        assert len(out) == 0
        # broadcast guard trips when the corpus matrix exceeds the budget
        with pytest.raises(ValueError, match="max_broadcast_bytes"):
            exact_cosine_pairs(ds, threshold=0.5, max_broadcast_bytes=16)


class TestAsofJoin:
    def test_matches_pandas_merge_asof_across_blocks(self, ray_session):
        import pandas as pd
        import ray.data as rd

        from sprout_ray.stages.joins import asof_join

        rng = np.random.default_rng(21)
        n_left, n_right = 3000, 800
        # user 7 dominates (spans many sorted blocks) and its only purchases
        # are at the very start -> the carry must chain across blocks; user
        # 999 has clicks but no purchases at all -> all-null payload.
        l_user = np.where(rng.random(n_left) < 0.5, 7, rng.integers(0, 40, n_left))
        l_user[:10] = 999
        r_user = rng.integers(0, 40, n_right)
        r_user[:50] = 7
        l_ts = rng.integers(0, 10_000_000, n_left)
        r_ts = np.concatenate(
            [rng.integers(0, 1000, 50), rng.integers(0, 10_000_000, n_right - 50)]
        )
        left = pa.table(
            {
                "event_id": np.arange(n_left, dtype=np.int64),
                "user_id": l_user.astype(np.int64),
                "ts": l_ts.astype(np.int64),
            }
        )
        right = pa.table(
            {
                "event_id": np.arange(10_000, 10_000 + n_right, dtype=np.int64),
                "user_id": r_user.astype(np.int64),
                "ts": r_ts.astype(np.int64),
                "value": rng.random(n_right),
            }
        )
        out = (
            asof_join(
                rd.from_arrow(left).repartition(16),
                rd.from_arrow(right).repartition(8),
                key="user_id",
                ts_col="ts",
                tie_col="event_id",
                right_payload={"event_id": "r_id", "ts": "r_ts", "value": "r_value"},
                left_id_out="event_id",
            )
            .to_pandas()
            .sort_values("event_id")
            .reset_index(drop=True)
        )
        ldf = left.to_pandas().sort_values(["ts", "event_id"]).reset_index(drop=True)
        # corpus has no (user, ts) right duplicates by construction of the
        # check below; merge_asof is the reference (backward, inclusive)
        rdf = (
            right.to_pandas()
            .sort_values(["ts", "event_id"])
            .drop_duplicates(["user_id", "ts"], keep="last")
        )
        want = pd.merge_asof(
            ldf,
            rdf.rename(
                columns={"event_id": "r_id", "ts": "r_ts", "value": "r_value"}
            ),
            left_on="ts",
            right_on="r_ts",
            by="user_id",
            direction="backward",
            allow_exact_matches=True,
        ).sort_values("event_id").reset_index(drop=True)
        assert len(out) == n_left
        assert (out["event_id"].to_numpy() == want["event_id"].to_numpy()).all()
        got_id = out["r_id"].to_numpy()
        want_id = want["r_id"].to_numpy(dtype=float, na_value=np.nan)
        assert ((got_id == want_id) | (np.isnan(got_id) & np.isnan(want_id))).all()
        gv, wv = out["r_value"].to_numpy(), want["r_value"].to_numpy()
        assert ((gv == wv) | (np.isnan(gv) & np.isnan(wv))).all()
        # user 999 really exercises the no-right-rows path
        assert out[out["user_id"] == 999]["r_id"].isna().all()


class TestRangeJoin:
    def test_windowed_count_matches_brute_force(self, ray_session):
        import ray.data as rd

        from sprout_ray.stages.joins import windowed_range_count

        rng = np.random.default_rng(31)
        n_a, n_e, w = 400, 2000, 100
        a = pa.table(
            {
                "id": np.arange(n_a, dtype=np.int64),
                "k": rng.integers(0, 12, n_a).astype(np.int64),
                "ts": rng.integers(0, 5000, n_a).astype(np.int64) * 1_000_000,
            }
        )
        e = pa.table(
            {
                "id": np.arange(n_e, dtype=np.int64),
                "k": rng.integers(0, 12, n_e).astype(np.int64),
                "ts": rng.integers(0, 5000, n_e).astype(np.int64) * 1_000_000,
            }
        )
        out = (
            windowed_range_count(
                rd.from_arrow(a).repartition(4),
                rd.from_arrow(e).repartition(4),
                key="k",
                ts_col="ts",
                anchor_id="id",
                window_s=w,
                out_col="n",
                num_partitions=2,
            )
            .to_pandas()
            .sort_values("id")
            .reset_index(drop=True)
        )
        ak, ats = a["k"].to_numpy(), a["ts"].to_numpy()
        ek, ets = e["k"].to_numpy(), e["ts"].to_numpy()
        w_us = w * 1_000_000
        want = np.array(
            [
                int(((ek == ak[i]) & (ets > ats[i] - w_us) & (ets <= ats[i])).sum())
                for i in range(n_a)
            ]
        )
        assert len(out) == n_a
        assert (out["n"].to_numpy() == want).all()
        assert (want == 0).any()  # zero-count anchors are exercised
