"""Distributed k-means (stages/cluster.py): planted-cluster recovery,
Lloyd monotonicity, spherical mode, and IVF distributed-training parity."""

import numpy as np
import pyarrow as pa
import pytest

from sprout_ray.stages.cluster import kmeans_assign, kmeans_fit


@pytest.fixture(scope="module")
def planted(ray_session):
    """600 points in 3 well-separated gaussians, shuffled across 4 blocks."""
    import ray.data as rd

    rng = np.random.default_rng(0)
    centers = rng.standard_normal((3, 16)) * 10
    pts = np.concatenate([c + rng.standard_normal((200, 16)) for c in centers])
    labels = np.repeat([0, 1, 2], 200)
    perm = rng.permutation(600)
    ds = (
        rd.from_arrow(
            pa.table(
                {
                    "vec_id": pa.array(np.arange(600)[perm], pa.int64()),
                    "embedding": pa.array([list(map(float, p)) for p in pts[perm]]),
                    "truth": pa.array(labels[perm], pa.int64()),
                }
            )
        )
        .repartition(4)
        .materialize()
    )
    return ds, pts, labels, perm


class TestKMeans:
    @pytest.mark.parametrize("seed", [5, 11, 42])
    def test_planted_recovery_exact(self, planted, seed):
        ds, _, _, _ = planted
        cent, hist = kmeans_fit(ds, k=3, iters=20, seed=seed)
        out = kmeans_assign(ds, cent).to_pandas()
        per_cluster = out.groupby("cluster")["truth"].nunique()
        assert len(per_cluster) == 3 and (per_cluster == 1).all()
        assert sorted(out.groupby("cluster").size()) == [200, 200, 200]

    def test_inertia_monotone_and_matches_numpy(self, planted):
        ds, pts, _, _ = planted
        cent, hist = kmeans_fit(ds, k=3, iters=20, seed=5)
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))
        # final inertia == numpy inertia of the final assignment
        d2 = ((pts[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
        assign = d2.argmin(axis=1)
        ref = d2[np.arange(len(pts)), assign].sum()
        # centroid update after the last recorded assignment can only
        # improve, so history[-1] is within one Lloyd step of ref
        assert ref <= hist[-1] + 1e-6
        assert abs(ref - hist[-1]) / ref < 0.01

    def test_spherical_mode_monotone_unit_centroids(self, planted):
        ds, _, _, _ = planted
        cent, hist = kmeans_fit(ds, k=3, mode="spherical", iters=10, seed=5)
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))
        np.testing.assert_allclose(np.linalg.norm(cent, axis=1), 1.0, atol=1e-5)

    def test_empty_cluster_keeps_centroid(self, ray_session):
        import ray.data as rd

        # 3 identical points, k=2: one cluster must stay empty, no NaNs
        ds = rd.from_arrow(
            pa.table(
                {"embedding": pa.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])}
            )
        )
        cent, hist = kmeans_fit(ds, k=2, iters=3, seed=1, init_sample=3)
        assert np.isfinite(cent).all()

    def test_k_exceeds_sample_raises(self, ray_session):
        import ray.data as rd

        ds = rd.from_arrow(pa.table({"embedding": pa.array([[0.0, 1.0]])}))
        with pytest.raises(ValueError):
            kmeans_fit(ds, k=5, iters=1, init_sample=1)

    def test_bad_mode_raises(self, planted):
        ds, _, _, _ = planted
        with pytest.raises(ValueError):
            kmeans_fit(ds, k=2, mode="manhattan")


class TestIVFDistributedTraining:
    def test_nprobe_full_equals_brute(self, ray_session, sf_dir):
        """The existing IVF exactness invariant must hold under
        distributed centroid training too."""
        import ray.data as rd

        from sprout_ray.stages.similarity import ann_topk, ivf_topk

        ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet").materialize()
        first = ds.take(3)
        q = np.stack([np.asarray(r["embedding"]) for r in first])
        brute = ann_topk(ds, q, k=5, dtype="float64")
        ivf = ivf_topk(
            ds, q, k=5, nlist=4, nprobe=4, dtype="float64",
            train_mode="distributed",
        )
        assert brute[["query_id", "vec_id"]].values.tolist() == (
            ivf[["query_id", "vec_id"]].values.tolist()
        )


class TestLinearScorer:
    def test_matches_direct_matmul_and_broadcast_once(self, ray_session):
        """Actor-pool inference == the in-process float64 matmul, exactly;
        weights ship via one ray.put handle."""
        import ray.data as rd

        from sprout_ray.stages.similarity import linear_scores

        rng = np.random.default_rng(11)
        emb = rng.standard_normal((137, 8)).astype(np.float32)
        w = rng.standard_normal(8)
        t = pa.table(
            {
                "vec_id": pa.array(np.arange(137), pa.int64()),
                "embedding": pa.array(list(emb), pa.list_(pa.float32())),
            }
        )
        out = (
            linear_scores(rd.from_arrow(t), w, bias=0.25)
            .sort("vec_id")
            .to_pandas()
        )
        expect = emb.astype(np.float64) @ w + 0.25
        assert out["vec_id"].tolist() == list(range(137))
        np.testing.assert_array_equal(out["logit"].to_numpy(), expect)

    def test_empty_input_keeps_schema(self, ray_session):
        import ray.data as rd

        from sprout_ray.stages.similarity import linear_scores

        t = pa.table(
            {
                "vec_id": pa.array([], pa.int64()),
                "embedding": pa.array([], pa.list_(pa.float32())),
            }
        )
        out = linear_scores(rd.from_arrow(t), np.ones(4))
        tbl = out.take_batch(1, batch_format="pyarrow") if out.count() else None
        assert out.count() == 0
        assert tbl is None


class TestSemanticDedup:
    def _naive_survivors(self, ids, mat, thr):
        """Global greedy keep-min-id over exact cosines."""
        order = np.argsort(ids)
        ids, mat = ids[order], mat[order]
        mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        s = mat @ mat.T
        keep = [
            i for i in range(len(ids))
            if not (s[i, :i] >= thr).any()
        ]
        return set(ids[keep].tolist())

    def _corpus(self):
        """3 well-separated unit-vector clusters with planted near-dups:
        every near-dup pair lives INSIDE a cluster, so clustered SemDeDup
        must equal the global compare."""
        rng = np.random.default_rng(3)
        base = rng.standard_normal((3, 32)) * 8
        pts, ids = [], []
        nid = 0
        for c in base:
            members = c + rng.standard_normal((40, 32)) * 0.5
            for m in members:
                pts.append(m)
                ids.append(nid)
                nid += 1
            # plant 5 near-copies of the cluster's first member
            for j in range(5):
                pts.append(members[0] + rng.standard_normal(32) * 1e-3)
                ids.append(nid)
                nid += 1
        return np.array(ids, np.int64), np.stack(pts)

    def test_clustered_equals_global_on_planted(self, ray_session):
        import ray.data as rd

        from sprout_ray.stages.cluster import semantic_dedup_survivors

        ids, mat = self._corpus()
        ds = rd.from_arrow(
            pa.table(
                {
                    "vec_id": pa.array(ids, pa.int64()),
                    "embedding": pa.array(
                        [r.astype(np.float32) for r in mat],
                        pa.list_(pa.float32()),
                    ),
                }
            )
        ).repartition(4)
        thr = 0.999
        want = self._naive_survivors(ids, mat.astype(np.float64), thr)
        for k in (1, 3):
            got = set(
                semantic_dedup_survivors(ds, threshold=thr, k=k, seed=5)
                .to_pandas()["vec_id"]
                .tolist()
            )
            assert got == want, f"k={k}"
        # the 15 planted near-copies (5 per cluster) must all be dropped
        assert len(want) == len(ids) - 15

    def test_chunking_invariance(self, ray_session):
        import ray.data as rd

        from sprout_ray.stages.cluster import semantic_dedup_survivors

        ids, mat = self._corpus()
        ds = rd.from_arrow(
            pa.table(
                {
                    "vec_id": pa.array(ids, pa.int64()),
                    "embedding": pa.array(
                        [r.astype(np.float32) for r in mat],
                        pa.list_(pa.float32()),
                    ),
                }
            )
        )
        a = semantic_dedup_survivors(ds, 0.999, k=1, chunk_rows=7)
        b = semantic_dedup_survivors(ds, 0.999, k=1, chunk_rows=10_000)
        assert sorted(a.to_pandas()["vec_id"]) == sorted(b.to_pandas()["vec_id"])

    def test_max_cluster_guard(self, ray_session):
        import pytest as _pt
        import ray.data as rd

        from sprout_ray.stages.cluster import semantic_dedup_survivors

        ids, mat = self._corpus()
        ds = rd.from_arrow(
            pa.table(
                {
                    "vec_id": pa.array(ids, pa.int64()),
                    "embedding": pa.array(
                        [r.astype(np.float32) for r in mat],
                        pa.list_(pa.float32()),
                    ),
                }
            )
        )
        with _pt.raises(Exception, match="max_cluster"):
            semantic_dedup_survivors(
                ds, 0.9, k=1, max_cluster=10
            ).materialize()
