"""Extra stage tests: CLI round-trips, distributed LSH twins, text stages,
exact dedup, similarity kernels."""

import json
import os
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestCLI:
    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        from sprout_ray.sources.synth import ensure_corpus

        d = tmp_path_factory.mktemp("clicorpus")
        return ensure_corpus(str(d / "c"), 3000, n_files=3, seed=42)

    def _run(self, *args):
        out = subprocess.run(
            [sys.executable, "-m", "sprout_ray.cli", *args],
            capture_output=True,
            text=True,
            cwd=REPO,
            env=dict(os.environ, RAY_GRAFT_CPUS="2"),
        )
        assert out.returncode == 0, out.stderr[-2000:]
        return json.loads(out.stdout.strip().splitlines()[-1])

    def test_build_probe_stats_resume(self, corpus, tmp_path):
        ck = str(tmp_path / "ck")
        r = self._run(
            "build", "--input", corpus, "--on", "content", "--sketch", "bloom",
            "--capacity", "5000", "--ckpt", ck, "--num-cpus", "2",
        )
        assert r["metrics"]["rows"] == 3000 and r["metrics"]["built"] == 3
        # resume: nothing rebuilt
        r2 = self._run(
            "resume", "--input", corpus, "--on", "content", "--sketch", "bloom",
            "--capacity", "5000", "--ckpt", ck, "--num-cpus", "2",
        )
        assert r2["metrics"]["built"] == 0 and r2["metrics"]["resumed"] == 3
        st = self._run("stats", "--ckpt", ck)
        assert st["count"] == 3000
        pr = self._run("probe", "--ckpt", ck, "--keys", "definitely-not-there-xyz")
        assert pr["definitely-not-there-xyz"] is False

    def test_ref_file_incremental_set_reset(self, tmp_path):
        """Reference-CLI parity loop (cli/bloom.go:57-112): membership of a
        reference-layout file grows across separate set-ref invocations and
        clears on reset-ref."""
        f = str(tmp_path / "ref.bloom")
        geo = ["--err-rate", "0.001", "--capacity", "1000"]
        self._run("new-ref", "--file", f, *geo)
        self._run("set-ref", "--file", f, "--keys", "alpha", *geo)
        p1 = self._run("probe-ref", "--file", f, "--keys", "alpha", "beta", *geo)
        assert p1["alpha"] is True and p1["beta"] is False
        # second invocation: reopen -> add -> close, earlier keys survive
        self._run("set-ref", "--file", f, "--keys", "beta", *geo)
        p2 = self._run("probe-ref", "--file", f, "--keys", "alpha", "beta", *geo)
        assert p2["alpha"] is True and p2["beta"] is True
        self._run("reset-ref", "--file", f, *geo)
        p3 = self._run("probe-ref", "--file", f, "--keys", "alpha", "beta", *geo)
        assert p3["alpha"] is False and p3["beta"] is False


class TestMinHasherBatchVectorized:
    """signatures_batch (one windowed hash pass + minimum.reduceat) must be
    bit-identical to the per-doc signature() path for every doc shape."""

    def test_bit_identical_edge_shapes(self):
        from sprout_ray.stages.dedup import MinHasher

        mh = MinHasher(num_perm=64)
        texts = [
            "hello world this is a test doc",
            "",            # empty -> all-max signature
            "abc",         # shorter than k -> whole-text shingle
            "x" * 40,      # single repeated shingle
            "the quick brown fox " * 50,
            None,          # null text
            "w" * 20000,   # crosses the 8k-row chunk boundary alone
        ]
        got = mh.signatures_batch(texts)
        exp = np.stack([mh.signature(t or "") for t in texts])
        assert (got == exp).all()

    def test_chunk_boundary_independence(self):
        """Docs split across internal row chunks combine minima correctly."""
        from sprout_ray.stages import dedup
        from sprout_ray.stages.dedup import MinHasher

        mh = MinHasher(num_perm=32)
        rng = np.random.default_rng(7)
        docs = [
            "".join(chr(97 + c) for c in rng.integers(0, 26, int(ln)))
            for ln in rng.integers(1, 800, 64)
        ]
        exp = np.stack([mh.signature(d) for d in docs])
        assert (mh.signatures_batch(docs) == exp).all()


class TestDistributedLSHTwins:
    """The distributed banding path (bucket_key explode -> count-aggregate
    hot buckets -> bounded pairs) must find the same identical-doc pairs as
    the vectorized driver path used by minhash_dedup_pairs."""

    def test_bands_hot_buckets_pairs(self, ray_session):
        import ray.data as rd

        from sprout_ray.stages.dedup import (
            MinHasher,
            lsh_candidate_pairs,
            minhash_bands,
        )

        texts = [f"document number {i} with some shared text body" for i in range(50)]
        texts += [texts[3], texts[7]]  # ids 50, 51 duplicate 3 and 7
        ds = rd.from_arrow(
            pa.table({"doc_id": list(range(len(texts))), "text": texts})
        )
        sig_ds = ds.map_batches(
            MinHasher, fn_constructor_kwargs={"num_perm": 64},
            batch_format="pyarrow", concurrency=1,
        )
        band_ds = minhash_bands(sig_ds, bands=8)
        pairs = lsh_candidate_pairs(band_ds).to_pandas()
        got = set(zip(pairs["left_id"], pairs["right_id"]))
        assert (3, 50) in got and (7, 51) in got

    def test_empty_input(self, ray_session):
        import ray.data as rd

        from sprout_ray.stages.dedup import lsh_candidate_pairs, minhash_bands, MinHasher

        ds = rd.from_arrow(pa.table({"doc_id": [1], "text": ["only one doc"]}))
        sig = ds.map_batches(
            MinHasher, fn_constructor_kwargs={"num_perm": 64},
            batch_format="pyarrow", concurrency=1,
        )
        pairs = lsh_candidate_pairs(minhash_bands(sig, bands=8))
        assert pairs.count() == 0

    def test_distributed_tail_matches_driver_tail(self, ray_session, monkeypatch):
        """The distributed minhash/simhash tails must produce the exact pair
        sets of the single-node numpy reference tails, through both plans
        of the hot-bucket filter (broadcast, and the semi-join forced by
        DIM_BROADCAST_MAX=0)."""
        import ray.data as rd

        import sprout_ray.stages.joins as J
        from sprout_ray.stages.dedup import (
            MinHasher,
            _minhash_pairs_numpy,
            _simhash_pairs_numpy,
            minhash_dedup_pairs,
            simhash_candidates,
            simhash_signature_ds,
        )

        base = "shared corpus sentence about sketches and streams "
        texts = [base + f"unique tail {i} {'x' * (i % 7)}" for i in range(40)]
        texts += [texts[2], texts[2] + " tiny edit", texts[9]]  # ids 40..42
        ds = rd.from_arrow(
            pa.table({"doc_id": list(range(len(texts))), "text": texts})
        )
        mh = ds.map_batches(MinHasher, batch_format="pyarrow", concurrency=1).to_pandas()
        sh = simhash_signature_ds(ds).to_pandas()
        refs = {
            minhash_dedup_pairs: _minhash_pairs_numpy(
                mh["doc_id"].to_numpy(np.int64),
                np.stack(mh["signature"]).astype(np.uint64),
            ),
            simhash_candidates: _simhash_pairs_numpy(
                sh["doc_id"].to_numpy(np.int64), sh["simhash"].to_numpy(np.uint64)
            ),
        }
        budget = J.DIM_BROADCAST_MAX

        def ordered(df):
            return df.sort_values(["left_id", "right_id"]).reset_index(drop=True)

        for fn, ref in refs.items():
            drv = ordered(ref.to_pandas())
            for bmax in (budget, 0):
                monkeypatch.setattr(J, "DIM_BROADCAST_MAX", bmax)
                dist = ordered(fn(ds).to_pandas())
                assert dist.shape == drv.shape, (fn.__name__, bmax)
                assert (dist.values == drv.values).all(), (fn.__name__, bmax)
            got = set(zip(drv["left_id"], drv["right_id"]))
            assert (2, 40) in got and (9, 42) in got, fn.__name__


class TestTextStages:
    def test_quality_scorer_direct(self):
        from sprout_ray.stages.text import QualityScorer

        t = pa.table({"text": ["The quick brown fox, and the dog!", "", "   "]})
        out = QualityScorer()(t)
        assert out["token_count"].to_pylist() == [7, 0, 0]
        assert 0 < out["punct_ratio"][0].as_py() < 0.2
        assert out["quality"][0].as_py() > 0.3

    def test_langid_direct(self):
        from sprout_ray.stages.text import LangId

        t = pa.table(
            {
                "text": [
                    "the cat and the dog is in the house that was for",
                    "el perro y el gato en la casa que un dia",
                    "zzz qqq xxx",
                ]
            }
        )
        out = LangId()(t)
        assert out["lang_pred"].to_pylist() == ["en", "es", "unknown"]

    def test_fingerprint_matches_scalar_murmur(self):
        from sprout_ray.kernel.murmur3 import murmur3_64
        from sprout_ray.stages.text import add_fingerprint

        t = pa.table({"text": ["abc", "xyz"]})
        out = add_fingerprint(t)
        exp = [murmur3_64(b"abc", 0), murmur3_64(b"xyz", 0)]
        got = [v % (1 << 64) for v in out["fingerprint"].to_pylist()]
        assert got == exp

    def test_simhash_similar_docs_close(self):
        from sprout_ray.stages.dedup import simhash_signatures

        a = "the quick brown fox jumps over the lazy dog " * 5
        b = a.replace("lazy", "sleepy")
        c = "completely different words entirely unrelated content here"
        sa, sb, sc = simhash_signatures([a, b, c])
        ham = lambda x, y: bin(int(x) ^ int(y)).count("1")
        assert ham(sa, sb) < ham(sa, sc)

    def test_shingle_hashes_match_batch(self):
        from sprout_ray.kernel.murmur3 import murmur3_64
        from sprout_ray.stages.dedup import char_shingles, shingle_hashes

        for text in ("hello world this is a test", "abc", "x"):
            exp = np.unique(
                np.array(
                    [murmur3_64(s.encode(), 0) for s in char_shingles(text, 5)],
                    dtype=np.uint64,
                )
            )
            got = shingle_hashes(text, 5)
            assert np.array_equal(exp, got)
        assert shingle_hashes("", 5).size == 0

    @pytest.mark.parametrize("k", [0, -1, 16, 20])
    def test_shingle_hashes_rejects_k_out_of_range(self, k):
        from sprout_ray.stages.dedup import shingle_hashes

        with pytest.raises(ValueError, match=r"k must be in \[1, 15\]"):
            shingle_hashes("a" * 40, k)


class TestExactDedup:
    def test_first_per_key(self, ray_session):
        import ray.data as rd

        from sprout_ray.stages.dedup import exact_dedup

        t = pa.table(
            {
                "doc_id": [5, 1, 2, 3, 4],
                "h": ["a", "a", "b", "b", "c"],
            }
        )
        out = exact_dedup(rd.from_arrow(t), key_col="h", id_col="doc_id").to_pandas()
        m = dict(zip(out["h"], out["doc_id"]))
        assert m == {"a": 1, "b": 2, "c": 4}

    def test_keep_full_rows(self, ray_session):
        import ray.data as rd

        from sprout_ray.stages.dedup import exact_dedup

        t = pa.table(
            {
                "doc_id": [5, 1, 2],
                "h": ["a", "a", "b"],
                "payload": ["x", "y", "z"],
            }
        )
        out = exact_dedup(
            rd.from_arrow(t), key_col="h", id_col="doc_id", keep_cols=True
        ).to_pandas()
        assert sorted(out["doc_id"]) == [1, 2]
        assert set(out.columns) == {"doc_id", "h", "payload"}


class TestSimilarityKernels:
    def test_hyperplane_lsh_similar_collide(self):
        from sprout_ray.stages.similarity import HyperplaneLSH, _normalize

        rng = np.random.default_rng(5)
        base = rng.standard_normal((1, 16)).astype(np.float32)
        near = base + rng.standard_normal((1, 16)).astype(np.float32) * 0.01
        far = -base
        lsh = HyperplaneLSH(dim=16, n_planes=8)
        m = _normalize(np.concatenate([base, near, far]))
        b = lsh.bucket(m)
        assert b[0] == b[1]
        assert b[0] != b[2]

    def test_ngram_jaccard(self):
        from sprout_ray.stages.dedup import ngram_jaccard

        assert ngram_jaccard("hello world", "hello world") == 1.0
        assert ngram_jaccard("", "") == 1.0
        assert ngram_jaccard("abcdef", "") == 0.0
        assert 0 < ngram_jaccard("hello world", "hello there") < 1

    def test_connected_components(self, ray_session):
        import ray.data as rd

        from sprout_ray.stages.dedup import connected_components

        pairs = rd.from_arrow(
            pa.table({"left_id": [1, 2, 10], "right_id": [2, 3, 11]})
        )
        out = connected_components(pairs, ds_ids=[1, 2, 3, 10, 11, 99])
        lab = dict(zip(out["doc_id"], out["cluster"]))
        assert lab[1] == lab[2] == lab[3]
        assert lab[10] == lab[11] != lab[1]
        assert lab[99] == 99

    def test_connected_components_adverse_edge_order(self, ray_session):
        # long chain fed in reverse order: the old capped label-propagation
        # loop failed this; real union-find converges regardless of order
        import ray.data as rd

        from sprout_ray.stages.dedup import connected_components

        n = 200
        pairs = rd.from_arrow(
            pa.table(
                {
                    "left_id": list(range(n - 1, 0, -1)),
                    "right_id": list(range(n, 1, -1)),
                }
            )
        )
        out = connected_components(pairs, ds_ids=list(range(1, n + 1)))
        assert set(out["cluster"]) == {1}

    def test_connected_components_distributed(self, ray_session):
        # one call covering a 20-deep chain (exercises pointer jumping),
        # a star, and isolated nodes; matches the driver union-find exactly
        import ray.data as rd

        from sprout_ray.stages.dedup import (
            connected_components,
            connected_components_distributed,
        )

        edges = [(i, i + 1) for i in range(100, 120)]  # chain 100..120
        edges += [(200, x) for x in (201, 202, 203)]  # star at 200
        ids = list(range(100, 121)) + [200, 201, 202, 203, 999]
        pairs = rd.from_arrow(
            pa.table(
                {
                    "left_id": pa.array([a for a, _ in edges], pa.int64()),
                    "right_id": pa.array([b for _, b in edges], pa.int64()),
                }
            )
        )
        nodes = rd.from_arrow(pa.table({"doc_id": pa.array(ids, pa.int64())}))
        got = (
            connected_components_distributed(pairs, nodes_ds=nodes)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        exp = (
            connected_components(pairs, ids)
            .sort_values("doc_id")
            .reset_index(drop=True)
            .astype({"doc_id": "int64", "cluster": "int64"})
        )
        assert got.equals(exp)

    def test_connected_components_distributed_join_tier(
        self, ray_session, monkeypatch
    ):
        # force the above-budget hash-join loop and require byte parity
        # with the driver tier on the same chain+star+isolated graph
        import ray.data as rd

        import sprout_ray.stages.dedup as D

        edges = [(i, i + 1) for i in range(100, 120)]
        edges += [(200, x) for x in (201, 202, 203)]
        ids = list(range(100, 121)) + [200, 201, 202, 203, 999]
        pairs = rd.from_arrow(
            pa.table(
                {
                    "left_id": pa.array([a for a, _ in edges], pa.int64()),
                    "right_id": pa.array([b for _, b in edges], pa.int64()),
                }
            )
        )
        nodes = rd.from_arrow(pa.table({"doc_id": pa.array(ids, pa.int64())}))
        a = (
            D.connected_components_distributed(pairs, nodes_ds=nodes)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        import sprout_ray.stages.joins as J

        monkeypatch.setattr(J, "DIM_BROADCAST_MAX", 0)
        b = (
            D.connected_components_distributed(pairs, nodes_ds=nodes)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert a.equals(b)

    def test_connected_components_distributed_no_edges(self, ray_session):
        import ray.data as rd

        from sprout_ray.stages.dedup import connected_components_distributed

        empty = rd.from_arrow(
            pa.table(
                {
                    "left_id": pa.array([], pa.int64()),
                    "right_id": pa.array([], pa.int64()),
                }
            )
        )
        nodes = rd.from_arrow(pa.table({"doc_id": pa.array([5, 7, 9], pa.int64())}))
        got = connected_components_distributed(empty, nodes_ds=nodes).to_pandas()
        assert sorted(got["doc_id"]) == [5, 7, 9]
        assert list(got["doc_id"]) == list(got["cluster"])


class TestExactDedupKeepCols:
    def _mk(self):
        import ray.data as rd

        t = pa.table(
            {
                "doc_id": pa.array(list(range(10)), pa.int64()),
                "text": pa.array(["a", "b", "a", "c", "b", "d", "a", "e", "c", "f"]),
                "extra": pa.array([f"x{i}" for i in range(10)]),
            }
        )
        return rd.from_arrow(t).repartition(3)

    def test_broadcast_and_join_paths_agree(self, ray_session, monkeypatch):
        import sprout_ray.stages.joins as J
        from sprout_ray.stages.dedup import exact_dedup

        ds = self._mk()
        expect = {0, 1, 3, 5, 7, 9}  # min doc_id per text
        bc = exact_dedup(ds, "text", "doc_id", keep_cols=["extra"]).to_pandas()
        monkeypatch.setattr(J, "DIM_BROADCAST_MAX", 0)  # force the semi-join
        jn = exact_dedup(ds, "text", "doc_id", keep_cols=["extra"]).to_pandas()
        assert set(bc["doc_id"]) == expect
        assert set(jn["doc_id"]) == expect
        # full surviving rows (not just ids) come back on both paths
        assert set(bc.columns) >= {"doc_id", "text", "extra"}
        assert set(jn.columns) >= {"doc_id", "text", "extra"}
        assert (
            bc.sort_values("doc_id")["extra"].tolist()
            == jn.sort_values("doc_id")["extra"].tolist()
        )


class TestMediaDedup:
    def test_planted_dups_removed(self, ray_session):
        import ray.data as rd

        from sprout_ray.stages.multimodal import (
            media_exact_dedup,
            synth_media_with_dups,
        )

        ds = rd.from_arrow(synth_media_with_dups(200, dup_every=10, seed=42))
        kept = media_exact_dedup(ds).to_pandas()
        # rows 10,20,...,190 repeat rows 0,10,...,180 -> 19 dropped
        assert len(kept) == 181
        assert set(kept.columns) == {"payload_sha", "media_id"}
        # survivors are the FIRST occurrence of each payload
        assert 0 in set(kept["media_id"]) and 10 not in set(kept["media_id"])


class TestHoppingWindows:
    def test_boundary_membership_and_sum(self, ray_session):
        import ray.data as rd

        from sprout_ray.stages.windows import hopping_counts

        # size=4s, hop=1s: every event belongs to exactly 4 windows;
        # an event AT a hop boundary (t=10s) covers windows 7..10
        ts = pa.array([10_000_000, 10_500_000], pa.timestamp("us"))
        t = pa.table({"event_type": ["a", "a"], "ts": ts, "value": [1.0, 2.0]})
        out = (
            hopping_counts(rd.from_arrow(t), size_s=4, hop_s=1)
            .to_pandas()
            .sort_values("window")
            .reset_index(drop=True)
        )
        assert out["window"].tolist() == [7, 8, 9, 10]
        assert out["n"].tolist() == [2, 2, 2, 2]
        assert out["sum_value_micro"].tolist() == [3_000_000] * 4


class TestCLITopk:
    def test_topk_readout(self, tmp_path):
        import json as _json
        import subprocess
        import sys

        ck = str(tmp_path / "ckmg")
        subprocess.run(
            [sys.executable, "-m", "sprout_ray.cli", "build",
             "--input", "/root/testdata/sf0.001/documents.parquet",
             "--on", "lang", "--sketch", "mg", "--m", "64",
             "--ckpt", ck, "--num-cpus", "2"],
            capture_output=True, text=True, check=True, cwd="/root/repo",
        )
        out = subprocess.run(
            [sys.executable, "-m", "sprout_ray.cli", "topk",
             "--ckpt", ck, "--top", "2"],
            capture_output=True, text=True, check=True, cwd="/root/repo",
        ).stdout
        rec = _json.loads(out.strip().splitlines()[-1])
        assert rec["kind"] == "mg" and len(rec["topk"]) == 2
        assert rec["err_bound"] == 0  # below capacity -> exact intervals
        assert rec["topk"][0]["lower"] == rec["topk"][0]["upper"]


class TestBroadcastLookupJoin:
    """broadcast_lookup_join == pandas inner merge on randomized inputs,
    through BOTH physical plans."""

    def test_randomized_vs_pandas(self, ray_session, monkeypatch):
        import pandas as pd
        import ray.data as rd

        import sprout_ray.stages.joins as J
        from sprout_ray.stages.joins import broadcast_lookup_join

        rng = np.random.default_rng(7)
        for trial in range(3):
            left = pd.DataFrame(
                {
                    "k": rng.integers(0, 50, 200),
                    "lv": rng.integers(0, 1000, 200),
                }
            )
            rkeys = rng.choice(60, size=40, replace=False)  # unique, some miss
            right = pd.DataFrame({"k": rkeys, "rv": rng.integers(0, 1000, 40)})
            want = (
                left.merge(right, on="k", how="inner")
                .sort_values(["k", "lv", "rv"])
                .reset_index(drop=True)
            )
            lds = rd.from_arrow(pa.Table.from_pandas(left, preserve_index=False))
            rds = rd.from_arrow(pa.Table.from_pandas(right, preserve_index=False))
            for bmax in (10_000, 0):  # broadcast tier / hash-join tier
                monkeypatch.setattr(J, "DIM_BROADCAST_MAX", bmax)
                got = (
                    broadcast_lookup_join(lds, rds, on="k")
                    .to_pandas()[["k", "lv", "rv"]]
                    .sort_values(["k", "lv", "rv"])
                    .reset_index(drop=True)
                )
                pd.testing.assert_frame_equal(
                    got.astype(want.dtypes.to_dict()), want
                )
            # left-outer: misses survive with NULL payload, both tiers
            want_l = (
                left.merge(right, on="k", how="left")
                .sort_values(["k", "lv"])
                .reset_index(drop=True)
            )
            for bmax in (10_000, 0):
                monkeypatch.setattr(J, "DIM_BROADCAST_MAX", bmax)
                got_l = (
                    broadcast_lookup_join(lds, rds, on="k", how="left")
                    .to_pandas()[["k", "lv", "rv"]]
                    .sort_values(["k", "lv"])
                    .reset_index(drop=True)
                )
                pd.testing.assert_frame_equal(
                    got_l.astype({"k": want_l.k.dtype, "lv": want_l.lv.dtype,
                                  "rv": "float64"}),
                    want_l.astype({"rv": "float64"}),
                )


class TestSaltedJoin:
    """salted_join == plain inner join on PLANTED 90%-hot-key skew (the
    regime it exists for), int and string keys, salt 1 and 8."""

    def test_planted_skew_vs_pandas(self, ray_session):
        import pandas as pd
        import ray.data as rd

        from sprout_ray.stages.joins import salted_join

        rng = np.random.default_rng(13)
        n = 5_000
        hot = np.full(int(n * 0.9), 7)
        cold = rng.integers(0, 200, n - hot.size)
        keys = np.concatenate([hot, cold])
        rng.shuffle(keys)
        left = pd.DataFrame({"k": keys, "lv": np.arange(n)})
        rk = np.concatenate([[7], np.arange(0, 220, 2)])  # hot key PRESENT,
        # other odd keys miss (anti-match path covered too)
        right = pd.DataFrame({"k": rk, "rv": rk * 10})
        for as_str in (False, True):
            lf, rf = left.copy(), right.copy()
            if as_str:
                lf["k"] = lf["k"].astype(str)
                rf["k"] = rf["k"].astype(str)
            want = (
                lf.merge(rf, on="k", how="inner")
                .sort_values(["k", "lv"])
                .reset_index(drop=True)
            )
            lds = rd.from_arrow(pa.Table.from_pandas(lf, preserve_index=False))
            rds = rd.from_arrow(pa.Table.from_pandas(rf, preserve_index=False))
            for salt in (1, 8):
                got = (
                    salted_join(lds, rds, on="k", salt=salt)
                    .to_pandas()[["k", "lv", "rv"]]
                    .sort_values(["k", "lv"])
                    .reset_index(drop=True)
                )
                pd.testing.assert_frame_equal(
                    got.astype(want.dtypes.to_dict()), want
                )

    def test_guards(self, ray_session):
        import ray.data as rd

        from sprout_ray.stages.joins import salted_join

        t = pa.table({"k": pa.array([1, 2], pa.int64()), "v": pa.array([1, 2], pa.int64())})
        ds = rd.from_arrow(t)
        with pytest.raises(ValueError, match="salt"):
            salted_join(ds, ds, on="k", salt=0)
        with pytest.raises(ValueError, match="collision"):
            salted_join(ds, ds, on="k")  # payload column 'v' on both sides


class TestPairStreamAndGramLut:
    def test_dedupe_pair_stream_packed_equals_fallback(self, ray_session):
        """Packed-int64-key dedup == 2-column-groupby fallback, with and
        without a value column (fallback forced via ids >= 2^31)."""
        import pandas as pd
        import ray.data as rd

        from sprout_ray.stages.dedup import dedupe_pair_stream

        rng = np.random.default_rng(3)
        left = rng.integers(0, 40, 500)
        right = rng.integers(0, 40, 500) + 100
        val = rng.random(500)
        # same pair must carry the same value for the agg to be a pure dedup
        val = pd.Series(val).groupby([left, right]).transform("max").to_numpy()
        big = np.int64(1) << 32  # pushes ids past the packable bound

        def run(shift):
            ds = rd.from_arrow(
                pa.table(
                    {
                        "left_id": pa.array(left + shift),
                        "right_id": pa.array(right + shift),
                        "v": pa.array(val),
                    }
                )
            )
            out = (
                dedupe_pair_stream(ds, "v", "max")
                .to_pandas()
                .sort_values(["left_id", "right_id"])
                .reset_index(drop=True)
            )
            out["left_id"] -= shift
            out["right_id"] -= shift
            return out

        packed, fallback = run(np.int64(0)), run(big)
        pd.testing.assert_frame_equal(
            packed, fallback.astype(packed.dtypes.to_dict())
        )
        want = (
            pd.DataFrame({"left_id": left, "right_id": right, "v": val})
            .groupby(["left_id", "right_id"], as_index=False)["v"]
            .max()
        )
        pd.testing.assert_frame_equal(
            packed.astype(want.dtypes.to_dict()), want
        )

    def test_doc_gram_payload_matches_per_doc_hashes(self, ray_session):
        """The broadcast (ids, offsets, flat) LUT reproduces each doc's
        distinct gram-hash set exactly, across multiple blocks."""
        import ray
        import ray.data as rd

        from sprout_ray.stages.dedup import _doc_gram_hashes, _doc_gram_payload_ref

        texts = ["", "a", "ab", "abcabc", "hello world", "xyzxyzxyz", "abc"] * 3
        ids = np.arange(len(texts), dtype=np.int64)[::-1].copy()  # unsorted ids
        ds = rd.from_arrow(
            pa.table({"doc_id": pa.array(ids), "text": pa.array(texts)})
        ).repartition(4)
        lut_ids, offs, flat = ray.get(
            _doc_gram_payload_ref(ds, "text", "doc_id", 3)
        )
        assert (lut_ids[1:] > lut_ids[:-1]).all()
        got = {
            int(lut_ids[i]): flat[offs[i] : offs[i + 1]]
            for i in range(lut_ids.size)
        }
        for i, t in zip(ids.tolist(), texts):
            h, d = _doc_gram_hashes([t], 3)
            np.testing.assert_array_equal(got[i], h)


class TestCurateCLI:
    def test_curate_cli_with_splits(self, tmp_path):
        import json as j
        import subprocess as sp

        out = str(tmp_path / "curated")
        r = sp.run(
            [
                sys.executable, "-m", "sprout_ray.cli", "curate",
                "--input", "/root/testdata/sf0.001/documents.parquet",
                "--out", out, "--splits", "train=0.9,val=0.1",
                "--num-cpus", "2",
            ],
            capture_output=True, text=True, cwd=REPO,
        )
        assert r.returncode == 0, r.stderr[-2000:]
        m = j.loads(r.stdout.strip().splitlines()[-1])
        assert m["metrics"]["written"] == 1 and m["metrics"]["winners"] > 0

        import glob as g

        import pyarrow.parquet as pq

        t = pq.read_table(sorted(g.glob(f"{out}/part=*/**/*.parquet", recursive=True)))
        assert set(t["split"].to_pylist()) <= {"train", "val"}
        # rerun resumes
        r2 = sp.run(
            [
                sys.executable, "-m", "sprout_ray.cli", "curate",
                "--input", "/root/testdata/sf0.001/documents.parquet",
                "--out", out, "--splits", "train=0.9,val=0.1",
                "--num-cpus", "2",
            ],
            capture_output=True, text=True, cwd=REPO,
        )
        m2 = j.loads(r2.stdout.strip().splitlines()[-1])
        assert m2["metrics"]["resumed"] == 1 and m2["metrics"]["written"] == 0


class TestRepetitionStats:
    def test_exact_counts_and_blanks(self):
        from sprout_ray.stages.text import add_repetition_stats

        t = pa.table(
            {
                "doc_id": [1, 2, 3, 4, 5],
                "text": ["a b a b a", "x y z", "", "  ", None],
            }
        )
        out = add_repetition_stats(t)
        assert out["n_tokens"].to_pylist() == [5, 3, 0, 0, 0]
        assert out["distinct_tokens"].to_pylist() == [2, 3, 0, 0, 0]
        assert out["top_token_count"].to_pylist() == [3, 1, 0, 0, 0]

    def test_matches_python_counter(self):
        import collections
        import random

        from sprout_ray.stages.text import add_repetition_stats

        rng = random.Random(3)
        texts = [
            " ".join(rng.choices("aa bb cc dd ee".split(), k=rng.randint(1, 40)))
            for _ in range(200)
        ]
        out = add_repetition_stats(pa.table({"text": texts}))
        for i, txt in enumerate(texts):
            c = collections.Counter(txt.split())
            assert out["n_tokens"][i].as_py() == sum(c.values())
            assert out["distinct_tokens"][i].as_py() == len(c)
            assert out["top_token_count"][i].as_py() == max(c.values())


class TestTokenEntropy:
    def test_exact_vs_python(self):
        import collections
        import math
        import random

        from sprout_ray.stages.text import add_token_entropy

        rng = random.Random(7)
        texts = [
            " ".join(rng.choices("aa bb cc dd ee ff".split(), k=rng.randint(1, 60)))
            for _ in range(300)
        ] + ["", "  ", None, "solo"]
        out = add_token_entropy(pa.table({"text": texts}))
        for i, txt in enumerate(texts):
            c = collections.Counter((txt or "").split())
            n = sum(c.values())
            S = sum(
                math.floor(v * math.log(v) * 1e8 + 0.5) for v in c.values()
            )
            assert out["n_tokens"][i].as_py() == n
            assert out["clogc_micro"][i].as_py() == S
            if n == 0:
                assert out["entropy"][i].as_py() == 0.0
            else:
                assert out["entropy"][i].as_py() == pytest.approx(
                    math.log(n) - (S / 1e8) / n, abs=1e-6
                )

    def test_entropy_bounds_and_extremes(self):
        from sprout_ray.stages.text import add_token_entropy

        # all-same tokens -> H=0; all-distinct -> H=ln(n)
        import math

        out = add_token_entropy(
            pa.table({"text": ["x x x x x x", "a b c d e f"]})
        )
        assert out["entropy"][0].as_py() == 0.0
        assert out["entropy"][1].as_py() == pytest.approx(math.log(6), abs=1e-6)


class TestNormalizeText:
    def test_normalization_rules(self):
        from sprout_ray.stages.text import normalize_text_column

        got = normalize_text_column(
            pa.array(
                ["  Foo   BAR  baz ", "nums 12345 and 123", "a\tb\nc", ""]
            )
        ).to_pylist()
        assert got == ["foo bar baz", "nums <NUM> and 123", "a b c", ""]

    def test_flags_off(self):
        from sprout_ray.stages.text import normalize_text_column

        got = normalize_text_column(
            pa.array([" A  B 12345 "]),
            collapse_ws=False,
            lowercase=False,
            redact_digit_runs=None,
        ).to_pylist()
        assert got == ["A  B 12345"]  # only trimmed


class TestBM25:
    def test_matches_naive_reference(self, ray_session):
        import collections
        import math

        import ray.data as rd

        from sprout_ray.stages.similarity import bm25_topk

        import random

        rng = random.Random(11)
        vocab = "alpha beta gamma delta epsilon zeta eta theta".split()
        texts = [
            " ".join(rng.choices(vocab, k=rng.randint(3, 25)))
            for _ in range(60)
        ]
        ids = list(range(60))
        out = bm25_topk(
            rd.from_arrow(
                pa.table(
                    {
                        "doc_id": pa.array(ids, pa.int64()),
                        "text": texts,
                    }
                )
            ).repartition(5),
            query_max_id=3,
            k=4,
        ).to_pandas()

        # naive reference
        toks = [t.split() for t in texts]
        dls = [len(t) for t in toks]
        N, avgdl = 60, sum(dls) / 60
        k1, b = 1.5, 0.75
        expected = {}
        for qid in range(3):
            qset = set(toks[qid])
            scores = {}
            for d in range(60):
                if d == qid:
                    continue
                cnt = collections.Counter(toks[d])
                s = 0
                for t in qset & set(toks[d]):
                    df = sum(1 for dd in toks if t in dd)
                    idf = math.log((N - df + 0.5) / (df + 0.5) + 1.0)
                    c = float(cnt[t])
                    tff = (c * (k1 + 1.0)) / (
                        c + k1 * ((1.0 - b) + b * (dls[d] / avgdl))
                    )
                    s += int(math.floor((idf * tff) * 1e8 + 0.5))
                if s:
                    scores[d] = s
            top = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:4]
            expected[qid] = sorted((d, s) for d, s in top)
        got = {
            q: sorted(
                (int(r.match_id), int(r.score_micro))
                for r in g.itertuples()
            )
            for q, g in out.groupby("query_id")
        }
        assert got == expected


class TestSpanDedup:
    def test_keep_first_semantics(self, ray_session):
        import ray.data as rd

        from sprout_ray.stages.dedup import span_dedup_stats

        # spans of 3 tokens; doc 1 repeats doc 0's first span (dropped),
        # doc 2 repeats its OWN span (second occurrence dropped) and has a
        # short tail span; doc 3 is all-fresh
        docs = pa.table(
            {
                "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
                "text": [
                    "a b c d e f",          # spans: "a b c", "d e f"
                    "a b c x y z",          # "a b c" dup of doc0 -> dropped
                    "p q r p q r tail",     # 2nd "p q r" dropped, "tail" kept
                    "fresh words only",
                ],
            }
        )
        out = span_dedup_stats(
            rd.from_arrow(docs), span_tokens=3
        ).to_pandas()
        got = {
            int(r.doc_id): (int(r.n_spans), int(r.n_kept), int(r.n_dropped))
            for r in out.itertuples()
        }
        assert got == {
            0: (2, 2, 0),
            1: (2, 1, 1),
            2: (3, 2, 1),
            3: (1, 1, 0),
        }

    def test_span_explode_edges(self):
        from sprout_ray.stages.dedup import span_explode

        t = pa.table(
            {
                "doc_id": pa.array([7, 8], pa.int64()),
                "text": ["", None],  # both become one empty span
            }
        )
        out = span_explode(t, span_tokens=4)
        assert out["span"].to_pylist() == ["", ""]
        assert out["pack"].to_pylist() == [7 << 20, 8 << 20]


class TestPIIRedaction:
    def test_redaction_rules(self):
        from sprout_ray.stages.text import redact_pii

        out, counts = redact_pii(
            pa.array(
                [
                    "mail a.b+c@foo-bar.example.org now",
                    "call 555-867-5309 or 555.123.4567",
                    "host 192.168.0.1 and 10.0.0.255",
                    "clean text with no pii",
                    None,
                    "x@y.io and 1.2.3.4 and 111-222-3333",
                ]
            )
        )
        assert out.to_pylist() == [
            "mail <EMAIL> now",
            "call <PHONE> or <PHONE>",
            "host <IP> and <IP>",
            "clean text with no pii",
            "",
            "<EMAIL> and <IP> and <PHONE>",
        ]
        assert counts["email"].to_pylist() == [1, 0, 0, 0, 0, 1]
        assert counts["ip"].to_pylist() == [0, 0, 2, 0, 0, 1]
        assert counts["phone"].to_pylist() == [0, 2, 0, 0, 0, 1]

    def test_sequential_semantics(self):
        # the IP inside an email is consumed by the email pass first;
        # the phone count runs on the already-IP-redacted string
        from sprout_ray.stages.text import redact_pii

        out, counts = redact_pii(pa.array(["u@1.2.3.4.example.com 10.0.0.1"]))
        assert out.to_pylist() == ["<EMAIL> <IP>"]
        assert counts["email"].to_pylist() == [1]
        assert counts["ip"].to_pylist() == [1]
        assert counts["phone"].to_pylist() == [0]


class TestTableProfile:
    def test_profile_with_nulls_and_types(self, ray_session):
        import ray.data as rd

        from sprout_ray.stages.profile import profile_columns

        t = pa.table(
            {
                "i": pa.array([3, None, 1, 9, None], pa.int64()),
                "s": pa.array(["b", "a", None, "a", "c"]),
                "all_null": pa.array([None] * 5, pa.int64()),
            }
        )
        out = profile_columns(
            rd.from_arrow(t).repartition(3), ["i", "s", "all_null"]
        ).to_pylist()
        by = {r["column"]: r for r in out}
        assert by["i"] == {
            "column": "i", "n": 5, "n_null": 2, "n_distinct": 3,
            "distinct_exact": True, "min_value": "1", "max_value": "9",
        }
        assert by["s"]["n_distinct"] == 3
        assert by["s"]["min_value"] == "a" and by["s"]["max_value"] == "c"
        assert by["all_null"]["n_null"] == 5
        assert by["all_null"]["min_value"] is None
        assert by["all_null"]["n_distinct"] == 0


class TestProfileCLI:
    def test_profile_cli(self):
        import json as j
        import subprocess as sp

        r = sp.run(
            [
                sys.executable, "-m", "sprout_ray.cli", "profile",
                "--input", "/root/testdata/sf0.001/documents.parquet",
                "--columns", "doc_id", "lang", "--num-cpus", "2",
            ],
            capture_output=True, text=True, cwd=REPO,
        )
        assert r.returncode == 0, r.stderr[-2000:]
        rows = j.loads(r.stdout.strip().splitlines()[-1])["profile"]
        by = {x["column"]: x for x in rows}
        assert by["doc_id"]["n_distinct"] == 500 and by["doc_id"]["distinct_exact"]
        assert by["lang"]["n_distinct"] == 5

    def test_query_cli(self, tmp_path):
        """query subcommand: --list enumerates the registry, --name runs a
        pipeline and writes parquet, unknown names suggest near matches."""
        import json as j
        import subprocess as sp

        r = sp.run(
            [sys.executable, "-m", "sprout_ray.cli", "query", "--list"],
            capture_output=True, text=True, cwd=REPO,
        )
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        assert len(lines) >= 130 and any("oracle-exact" in ln for ln in lines)
        out = str(tmp_path / "q.parquet")
        r2 = sp.run(
            [
                sys.executable, "-m", "sprout_ray.cli", "query",
                "--name", "exact_lang_counts",
                "--sf", "/root/testdata/sf0.001",
                "--out", out, "--num-cpus", "2",
            ],
            capture_output=True, text=True, cwd=REPO,
        )
        assert r2.returncode == 0, r2.stderr[-2000:]
        assert j.loads(r2.stdout.strip().splitlines()[-1])["rows"] == 5
        import pyarrow.parquet as pq

        assert pq.read_table(out).num_rows == 5
        bad = sp.run(
            [sys.executable, "-m", "sprout_ray.cli", "query",
             "--name", "exact_lang_countz"],
            capture_output=True, text=True, cwd=REPO,
        )
        assert bad.returncode != 0 and "did you mean" in bad.stderr

    def test_query_cli_executes_a_dataset_once(self, ray_session, tmp_path, monkeypatch):
        """A Dataset result is collected in ONE execution: a count() pass
        before the collect ran the whole pipeline twice."""
        import argparse
        import importlib

        import pyarrow.parquet as pq
        import ray.data as rd

        from sprout_ray import cli

        calls = tmp_path / "calls"

        def mark(t):
            with open(calls, "a") as f:
                f.write("x")
            return t

        def stub(sf):
            return rd.from_arrow(pa.table({"a": [1, 2, 3]})).map_batches(
                mark, batch_format="pyarrow"
            )

        E = importlib.import_module("__ray_entry__")
        monkeypatch.setattr(E, "queries", lambda: {"stub": stub})
        out = tmp_path / "q.parquet"
        cli.cmd_query(
            argparse.Namespace(list=False, name="stub", sf=str(tmp_path), out=str(out), num_cpus=2)
        )
        assert calls.read_text() == "x"
        assert pq.read_table(out).num_rows == 3

    def test_setops_cli(self):
        """setops subcommand: bloom set-op cardinality estimates vs exact
        DuckDB counts (1%-level at these fills; unknown --a errors loudly)."""
        import json as j
        import subprocess as sp

        r = sp.run(
            [
                sys.executable, "-m", "sprout_ray.cli", "setops",
                "--input", "/root/testdata/sf0.001/events.parquet",
                "--key", "user_id", "--by", "event_type",
                "--a", "click", "--b", "purchase", "--num-cpus", "2",
            ],
            capture_output=True, text=True, cwd=REPO,
        )
        assert r.returncode == 0, r.stderr[-2000:]
        out = j.loads(r.stdout.strip().splitlines()[-1])
        import duckdb

        na, nb, ni = duckdb.sql(
            "SELECT count(DISTINCT CASE WHEN event_type='click' THEN user_id END), "
            "count(DISTINCT CASE WHEN event_type='purchase' THEN user_id END), "
            "count(DISTINCT CASE WHEN user_id IN "
            "(SELECT user_id FROM read_parquet('/root/testdata/sf0.001/events.parquet') "
            "WHERE event_type='click') AND event_type='purchase' THEN user_id END) "
            "FROM read_parquet('/root/testdata/sf0.001/events.parquet')"
        ).fetchone()
        assert abs(out["n_click"] - na) <= max(0.02 * na, 2)
        assert abs(out["n_purchase"] - nb) <= max(0.02 * nb, 2)
        assert abs(out["n_intersection"] - ni) <= max(0.05 * max(na + nb - ni, 1), 2)
        bad = sp.run(
            [
                sys.executable, "-m", "sprout_ray.cli", "setops",
                "--input", "/root/testdata/sf0.001/events.parquet",
                "--key", "user_id", "--by", "event_type",
                "--a", "no_such_type", "--b", "purchase", "--num-cpus", "2",
            ],
            capture_output=True, text=True, cwd=REPO,
        )
        assert bad.returncode != 0 and "no_such_type" in bad.stderr

    def test_skew_cli(self):
        """skew subcommand: exact n/distinct/F2/max + the salting-decision
        ratio over a parquet input, cross-checked against hand counts."""
        import json as j
        import subprocess as sp

        r = sp.run(
            [
                sys.executable, "-m", "sprout_ray.cli", "skew",
                "--input", "/root/testdata/sf0.001/documents.parquet",
                "--columns", "lang", "--num-cpus", "2",
            ],
            capture_output=True, text=True, cwd=REPO,
        )
        assert r.returncode == 0, r.stderr[-2000:]
        rows = j.loads(r.stdout.strip().splitlines()[-1])["skew"]
        assert len(rows) == 1 and rows[0]["col"] == "lang"
        import duckdb

        want = duckdb.sql(
            "SELECT count(*) n, count(DISTINCT lang) d, max(c) mx, sum(c*c) f2 "
            "FROM (SELECT lang, count(*) c FROM "
            "'/root/testdata/sf0.001/documents.parquet' GROUP BY lang), "
            "(SELECT 1)"
        ).fetchone()
        got = rows[0]
        assert got["f2"] == int(want[3]) and got["max_count"] == int(want[2])
        assert got["n"] == 500 and got["n_distinct"] == int(want[1]) == 5


class TestUnigramLM:
    def test_matches_naive_reference(self, ray_session):
        import collections
        import math
        import random

        import ray.data as rd

        from sprout_ray.stages.text import unigram_logprob_scores

        rng = random.Random(7)
        vocab = "alpha beta gamma delta epsilon zeta eta theta rare1 rare2".split()
        weights = [30, 25, 20, 15, 10, 5, 4, 3, 1, 1]
        texts = [
            " ".join(rng.choices(vocab, weights=weights, k=rng.randint(2, 30)))
            for _ in range(80)
        ]
        texts += ["", "   "]  # token-free docs: no output row
        ids = list(range(len(texts)))
        V = 6  # cuts inside the 10-word vocabulary -> OOV path exercised
        out = unigram_logprob_scores(
            rd.from_arrow(
                pa.table(
                    {"doc_id": pa.array(ids, pa.int64()), "text": texts}
                )
            ),
            vocab_size=V,
        ).to_pandas()

        tf = collections.Counter(w for t in texts for w in t.split())
        n_total = sum(tf.values())
        top = sorted(tf.items(), key=lambda kv: (-kv[1], kv[0]))[:V]
        lp = {
            w: math.floor(math.log(c / n_total) * 1e8 + 0.5) for w, c in top
        }
        oov = math.floor(math.log(0.5 / n_total) * 1e8 + 0.5)

        got = {
            int(r.doc_id): (int(r.n_tokens), int(r.logprob_micro))
            for r in out.itertuples()
        }
        for i, t in enumerate(texts):
            toks = t.split()
            if not toks:
                assert i not in got
                continue
            want = (len(toks), sum(lp.get(w, oov) for w in toks))
            assert got[i] == want, (i, got[i], want)
        assert len(got) == 80

    def test_empty_corpus(self, ray_session):
        import ray.data as rd

        from sprout_ray.stages.text import unigram_logprob_scores

        out = unigram_logprob_scores(
            rd.from_arrow(
                pa.table(
                    {
                        "doc_id": pa.array([], pa.int64()),
                        "text": pa.array([], pa.string()),
                    }
                )
            )
        )
        # degenerate branch hands back a schema-bearing pa.Table (a 0-row
        # Dataset would drop its schema on to_pandas)
        assert isinstance(out, pa.Table)
        assert out.column_names == ["doc_id", "n_tokens", "logprob_micro"]
        assert out.num_rows == 0


class TestCumulativeByKey:
    def _naive(self, df):
        df = df.sort_values(["k", "o"], kind="stable").reset_index(drop=True)
        df["cum_val"] = df.groupby("k")["v"].cumsum()
        df["cum_n"] = df.groupby("k").cumcount() + 1
        return df

    def test_matches_pandas_across_many_blocks(self, ray_session):
        import random

        import ray.data as rd

        from sprout_ray.stages.windows import cumulative_by_key

        rng = random.Random(5)
        # key 7 dominates: it will occupy several WHOLE sorted blocks,
        # exercising the chained single-run carry; other keys span
        # boundaries incidentally
        rows = [(7, i, rng.randint(-50, 50)) for i in range(400)]
        rows += [
            (rng.randint(0, 6), 1000 + i, rng.randint(-50, 50))
            for i in range(200)
        ]
        rng.shuffle(rows)
        import pandas as pd

        df = pd.DataFrame(rows, columns=["k", "o", "v"])
        ds = rd.from_arrow(
            pa.table(
                {
                    "k": pa.array(df.k, pa.int64()),
                    "o": pa.array(df.o, pa.int64()),
                    "v": pa.array(df.v, pa.int64()),
                }
            )
        ).repartition(12)  # force many small sorted blocks
        got = (
            cumulative_by_key(ds, "k", ["o"], "v")
            .to_pandas()
            .sort_values(["k", "o"])
            .reset_index(drop=True)
        )
        want = self._naive(df)
        assert (got["cum_val"].to_numpy() == want["cum_val"].to_numpy()).all()
        assert (got["cum_n"].to_numpy() == want["cum_n"].to_numpy()).all()
        assert len(got) == len(want)

    def test_rejects_float_and_nulls(self, ray_session):
        import pytest as _pt
        import ray.data as rd

        from sprout_ray.stages.windows import cumulative_by_key

        fds = rd.from_arrow(
            pa.table({"k": pa.array([1], pa.int64()), "o": pa.array([1], pa.int64()),
                      "v": pa.array([1.0], pa.float64())})
        )
        with _pt.raises(ValueError, match="must be integer"):
            cumulative_by_key(fds, "k", ["o"], "v")
        nds = rd.from_arrow(
            pa.table({"k": pa.array([1, 1], pa.int64()),
                      "o": pa.array([1, 2], pa.int64()),
                      "v": pa.array([1, None], pa.int64())})
        )
        with _pt.raises(Exception, match="contains nulls"):
            cumulative_by_key(nds, "k", ["o"], "v").materialize()


class TestGopherRules:
    def test_planted_rule_boundaries(self):
        from sprout_ray.stages.text import gopher_quality_flags

        good = ("the " * 2 + "alpha beta gamma delta " + "word " * 40).strip()
        docs = {
            0: good,                              # passes everything
            1: "",                                # token-free: fails R0 only
            2: "   ",                             # ditto (trim -> empty)
            3: ("ab " * 50).strip(),              # mean len 2 < 3: fails R1
            4: ("abcdefghijk " * 50).strip(),     # mean len 11 > 10: fails R1
            5: ("aaa " * 50).strip(),             # mean len EXACTLY 3: passes R1
            6: ("abcdefghij " * 50).strip(),      # mean len EXACTLY 10: passes R1
            7: good + " # # # # # # # # # #",     # 10 symbols, 52 words: fails R2
            8: ("123 " * 50).strip(),             # 0% alpha: fails R3
            9: "the " + ("word " * 50).strip(),   # 1 stopword: fails R4
        }
        t = pa.table(
            {
                "doc_id": pa.array(sorted(docs), pa.int64()),
                "text": pa.array([docs[i] for i in sorted(docs)], pa.string()),
            }
        )
        out = gopher_quality_flags(t)
        bits = dict(zip(out["doc_id"].to_pylist(), out["rule_bits"].to_pylist()))
        passes = dict(zip(out["doc_id"].to_pylist(), out["passes"].to_pylist()))
        ALL = 0b11111
        assert bits[0] == ALL and passes[0]
        # token-free: R0 fails, ratio rules pass vacuously, R4 fails
        assert bits[1] == bits[2] == ALL & ~0b1 & ~0b10000
        assert not bits[3] & 0b10 and not bits[4] & 0b10
        assert bits[5] & 0b10 and bits[6] & 0b10
        assert not bits[7] & 0b100 and bits[0] & 0b100
        assert not bits[8] & 0b1000
        assert not bits[9] & 0b10000
        assert not passes[9]


class TestSampleSemdedupCLI:
    def _run(self, *args):
        r = subprocess.run(
            [sys.executable, "-m", "sprout_ray.cli", *args, "--num-cpus", "2"],
            capture_output=True, text=True, cwd=REPO,
        )
        assert r.returncode == 0, r.stderr[-2000:]
        return json.loads(r.stdout.strip().splitlines()[-1])

    def test_sample_deterministic(self):
        a = self._run(
            "sample", "--input", "/root/testdata/sf0.001/documents.parquet",
            "--n", "5", "--weight-col", "n_chars",
        )
        b = self._run(
            "sample", "--input", "/root/testdata/sf0.001/documents.parquet",
            "--n", "5", "--weight-col", "n_chars",
        )
        assert a == b and a["n"] == 5 and len(set(a["ids"])) == 5

    def test_semdedup_counts(self):
        r = self._run(
            "semdedup", "--input",
            "/root/testdata/sf0.001/embeddings.parquet",
            "--threshold", "0.4",
        )
        assert r["total"] == 500 and r["kept"] + r["dropped"] == 500
        assert r["dropped"] > 0  # threshold 0.4 bites on this corpus


class TestZscoreByGroup:
    def test_matches_naive(self, ray_session):
        import ray.data as rd

        from sprout_ray.stages.normalize import zscore_by_group

        rng = np.random.default_rng(4)
        n = 400
        keys = np.array(["a", "b", "c"])[rng.integers(0, 3, n)]
        vals = rng.normal(50, 20, n).round(2)
        ds = rd.from_arrow(
            pa.table(
                {
                    "id": pa.array(np.arange(n, dtype=np.int64)),
                    "k": pa.array(keys.tolist(), pa.string()),
                    "v": pa.array(vals, pa.float64()),
                }
            )
        ).repartition(4)
        got = (
            zscore_by_group(ds, key="k", val_col="v", id_col="id")
            .to_pandas()
            .sort_values("id")
            .reset_index(drop=True)
        )
        import math

        c = np.array([math.floor(abs(v) * 100 + 0.5) * (1 if v >= 0 else -1) for v in vals], dtype=np.int64)
        want = np.empty(n)
        for k in "abc":
            m = keys == k
            s, q, cnt = int(c[m].sum()), int((c[m] * c[m]).sum()), int(m.sum())
            mean = s / cnt
            var = (cnt * float(q) - float(s) * float(s)) / (float(cnt) * float(cnt))
            want[m] = (c[m].astype(np.float64) - mean) / np.sqrt(var)
        assert np.allclose(got["z"].to_numpy(), np.round(want, 6), atol=1e-9)
        # per-group mean of z ~ 0, std ~ 1
        for k in "abc":
            zz = got[got.k == k]["z"]
            assert abs(zz.mean()) < 1e-6 and abs(zz.std(ddof=0) - 1) < 1e-3

    def test_zero_variance_raises(self, ray_session):
        import pytest as _pt
        import ray.data as rd

        from sprout_ray.stages.normalize import zscore_by_group

        ds = rd.from_arrow(
            pa.table(
                {
                    "id": pa.array([0, 1], pa.int64()),
                    "k": pa.array(["x", "x"], pa.string()),
                    "v": pa.array([5.0, 5.0], pa.float64()),
                }
            )
        )
        with _pt.raises(ValueError, match="zero variance"):
            zscore_by_group(ds, key="k", val_col="v", id_col="id")

    def test_overflow_guard(self, ray_session):
        import pytest as _pt
        import ray.data as rd

        from sprout_ray.stages.normalize import zscore_by_group

        ds = rd.from_arrow(
            pa.table(
                {
                    "id": pa.array([0, 1], pa.int64()),
                    "k": pa.array(["x", "x"], pa.string()),
                    "v": pa.array([3.0e16, 1.0e16], pa.float64()),
                }
            )
        )
        with _pt.raises(ValueError, match="overflow"):
            zscore_by_group(ds, key="k", val_col="v", id_col="id")


class TestGapStats:
    def _reference(self, df):
        import pandas as pd

        rows = []
        for u, grp in df.sort_values(["user_id", "ts", "event_id"]).groupby(
            "user_id"
        ):
            ts = grp["ts"].to_numpy()
            gaps = np.diff(ts)
            rows.append(
                {
                    "user_id": u,
                    "n_events": len(ts),
                    "sum_gap_us": int(gaps.sum()) if len(gaps) else 0,
                    "max_gap_us": int(gaps.max()) if len(gaps) else 0,
                }
            )
        return pd.DataFrame(rows).sort_values("user_id").reset_index(drop=True)

    def test_randomized_multiblock_vs_pandas(self, ray_session):
        """Few hot keys over MANY sorted blocks: keys straddle block edges,
        so the driver stitch (boundary gaps folded into sum/max) is the
        path under test; asserted multi-block so the claim is honest."""
        import pandas as pd
        import pyarrow as pa
        import ray.data as rd

        from sprout_ray.stages.windows import gap_stats

        rng = np.random.default_rng(42)
        n = 40_000
        df = pd.DataFrame(
            {
                "event_id": np.arange(n, dtype=np.int64),
                "user_id": rng.integers(0, 5, n).astype(np.int64),
                "ts": rng.integers(0, 10**9, n).astype(np.int64),
            }
        )
        tables = [
            pa.Table.from_pandas(df.iloc[i : i + 5000]) for i in range(0, n, 5000)
        ]
        ds = rd.from_arrow(tables)
        sorted_blocks = (
            ds.sort(["user_id", "ts", "event_id"]).materialize().num_blocks()
        )
        assert sorted_blocks > 1, "stitch path not exercised"
        out = (
            gap_stats(ds, key="user_id", ts_col="ts", id_col="event_id")
            .to_pandas()
            .sort_values("user_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(out, self._reference(df), check_dtype=False)

    def test_singletons_and_ties(self, ray_session):
        """Single-event users pin 0/0; duplicate timestamps give 0 gaps."""
        import pandas as pd
        import pyarrow as pa
        import ray.data as rd

        from sprout_ray.stages.windows import gap_stats

        df = pd.DataFrame(
            {
                "event_id": np.arange(6, dtype=np.int64),
                "user_id": np.array([1, 2, 2, 3, 3, 3], np.int64),
                "ts": np.array([10, 5, 5, 7, 7, 9], np.int64),
            }
        )
        out = (
            gap_stats(
                rd.from_arrow(pa.Table.from_pandas(df)),
                key="user_id",
                ts_col="ts",
                id_col="event_id",
            )
            .to_pandas()
            .sort_values("user_id")
            .reset_index(drop=True)
        )
        assert out["n_events"].tolist() == [1, 2, 3]
        assert out["sum_gap_us"].tolist() == [0, 0, 2]
        assert out["max_gap_us"].tolist() == [0, 0, 2]


class TestSessionize:
    GAP_US = 1800 * 1_000_000
    COLS = ["user_id", "session_id", "n_events", "start_us", "end_us"]

    @classmethod
    def _reference(cls, df):
        import pandas as pd

        s = df.sort_values(["user_id", "ts", "event_id"], kind="stable")
        k = s["user_id"].to_numpy()
        ts = s["ts"].to_numpy()
        new = np.concatenate(
            [[True], (k[1:] != k[:-1]) | (np.diff(ts) > cls.GAP_US)]
        )
        g = (
            s.assign(_s=np.cumsum(new))
            .groupby("_s", sort=True)
            .agg(
                user_id=("user_id", "first"),
                n_events=("ts", "size"),
                start_us=("ts", "min"),
                end_us=("ts", "max"),
            )
            .reset_index(drop=True)
        )
        g["session_id"] = g.groupby("user_id").cumcount()
        return pd.DataFrame(g[cls.COLS]).reset_index(drop=True)

    @staticmethod
    def _table(df):
        """``df`` with int64 epoch-us ``ts`` as an events table (timestamp ts)."""
        return pa.table(
            {
                "event_id": pa.array(df["event_id"], pa.int64()),
                "user_id": pa.array(df["user_id"]),
                "ts": pa.array(df["ts"], pa.int64()).cast(pa.timestamp("us")),
            }
        )

    def _check(self, ds, df):
        import pandas as pd

        from sprout_ray.stages.windows import sessionize

        out = sessionize(ds).to_pandas()
        assert list(out.columns) == self.COLS
        out = out.sort_values(["user_id", "session_id"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(out, self._reference(df), check_dtype=False)

    @pytest.mark.parametrize("key_type", ["int64", "string"])
    def test_randomized_multiblock_vs_pandas(self, ray_session, key_type):
        """One hot user over at least 3 sorted blocks plus light users:
        sessions straddle block edges, so the driver stitch (gap closed
        across an edge, session ids re-ranked) is the path under test."""
        import pandas as pd
        import ray
        import ray.data as rd

        rng = np.random.default_rng(17)
        hot = 12_000  # user 0: mean gap 1e9 us, ~16 % of gaps break
        cold = 2_000  # users 1..4: mean gap 2.5e9 us, ~half break
        df = pd.DataFrame(
            {
                "event_id": np.arange(hot + 4 * cold, dtype=np.int64),
                "user_id": np.concatenate(
                    [np.zeros(hot, np.int64), rng.integers(1, 5, 4 * cold)]
                ),
                "ts": np.concatenate(
                    [
                        rng.integers(0, hot * 10**9, hot),
                        rng.integers(0, cold * 25 * 10**8, 4 * cold),
                    ]
                ).astype(np.int64),
            }
        ).sample(frac=1.0, random_state=3).reset_index(drop=True)
        if key_type == "string":
            df["user_id"] = df["user_id"].map(lambda u: f"u{u:02d}")
        t = self._table(df)
        ds = rd.from_arrow([t.slice(i, 2_500) for i in range(0, len(df), 2_500)])
        sorted_ds = ds.sort(["user_id", "ts", "event_id"]).materialize()
        hot_key = t["user_id"].sort()[0]
        hot_blocks = sum(
            bool(pa.compute.any(pa.compute.equal(b["user_id"], hot_key)).as_py())
            for b in ray.get(sorted_ds.to_arrow_refs())
            if b.num_rows
        )
        assert hot_blocks >= 3, "hot key must span at least 3 sorted blocks"
        self._check(ds, df)

    def test_more_partitions_than_rows(self, ray_session):
        """16 sort partitions over 7 rows leave empty sorted blocks."""
        import pandas as pd
        import ray.data as rd

        df = pd.DataFrame(
            {
                "event_id": np.arange(7, dtype=np.int64),
                "user_id": np.array([1, 1, 1, 2, 2, 3, 1], np.int64),
                "ts": np.array([0, 10**9, 10**10, 5, 6, 7, 10**10 + 1], np.int64),
            }
        )
        ds = rd.from_arrow(self._table(df)).repartition(16)
        sorted_ds = ds.sort(["user_id", "ts", "event_id"]).materialize()
        assert sorted_ds.num_blocks() > len(df)
        self._check(ds, df)


# name -> (stages module, extra kwargs) for the sorted-block window family
_WINDOW_FAMILY = {
    "sessionize": ("windows", {}),
    "gap_stats": ("windows", {}),
    "moving_sum_by_key": ("windows", {"val_col": "cents"}),
    "moving_time_sum_by_key": ("windows", {"val_col": "cents"}),
    "time_weighted_sum": ("windows", {"val_col": "cents"}),
    "transition_counts": ("journeys", {}),
    "funnel_stages": ("journeys", {}),
}


def _run_family(name, ds):
    import importlib

    module, extra = _WINDOW_FAMILY[name]
    fn = getattr(importlib.import_module(f"sprout_ray.stages.{module}"), name)
    return fn(ds, key="user_id", ts_col="ts", id_col="event_id", **extra)


def _events_table(user_ids, key_type=pa.int64()):
    n = len(user_ids)
    return pa.table(
        {
            "event_id": pa.array(np.arange(n), pa.int64()),
            "user_id": pa.array(user_ids, key_type),
            "ts": pa.array(np.arange(n) * 10**6, pa.int64()).cast(
                pa.timestamp("us")
            ),
            "cents": pa.array(np.ones(n, np.int64)),
            "event_type": pa.array(["view", "click"] * (n // 2) + ["view"] * (n % 2)),
        }
    )


class TestSortedBlockFamily:
    @pytest.mark.parametrize("name", _WINDOW_FAMILY)
    def test_zero_row_input(self, ray_session, name):
        """Ray never hands ``map_batches`` an empty block, so a 0-row input
        runs no block function and yields an empty result."""
        import ray.data as rd

        out = _run_family(name, rd.from_arrow(_events_table([]))).materialize()
        assert out.count() == 0
        if name == "transition_counts":  # assembled on the driver, typed
            assert out.schema().names == ["prev_type", "next_type", "n"]
        else:
            assert out.schema() is None

    @pytest.mark.parametrize("key_type", [pa.int64(), pa.string()])
    def test_null_sort_key_refused(self, ray_session, key_type):
        """A NULL sort key is refused by name before the sort, for integer
        keys (which would die casting NaN in a block) and string keys (which
        would die in Ray's sort partitioning with more than one block)."""
        import ray.data as rd

        from sprout_ray.stages.windows import sessionize

        a = ["1", "2", None, "3"] if key_type == pa.string() else [1, 2, None, 3]
        b = ["4", None, "5"] if key_type == pa.string() else [4, None, 5]
        ds = rd.from_arrow([_events_table(a, key_type), _events_table(b, key_type)])
        with pytest.raises(Exception, match="sessionize: sort key 'user_id' contains NULLs"):
            sessionize(ds).materialize()


class TestSnapshotDiff:
    def test_all_change_kinds(self, ray_session):
        import pandas as pd
        import pyarrow as pa
        import ray.data as rd

        from sprout_ray.stages.joins import snapshot_diff

        old = rd.from_arrow(
            pa.table(
                {
                    "k": pa.array([1, 2, 3, 4], pa.int64()),
                    "v": pa.array(["a", "b", "c", "d"]),
                }
            )
        )
        new = rd.from_arrow(
            pa.table(
                {
                    "k": pa.array([2, 3, 4, 5], pa.int64()),
                    "v": pa.array(["b", "C", "d", "e"]),
                }
            )
        )
        out = (
            snapshot_diff(old, new, key="k", val_col="v")
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        # 1 removed, 2 unchanged (absent), 3 changed, 5 added
        assert out["k"].tolist() == [1, 3, 5]
        assert out["change"].tolist() == ["removed", "changed", "added"]

    def test_rejects_duplicate_keys(self, ray_session):
        import pyarrow as pa
        import pytest
        import ray.data as rd

        from sprout_ray.stages.joins import snapshot_diff

        old = rd.from_arrow(
            pa.table({"k": pa.array([1, 1], pa.int64()), "v": pa.array(["a", "b"])})
        )
        new = rd.from_arrow(
            pa.table({"k": pa.array([1], pa.int64()), "v": pa.array(["a"])})
        )
        with pytest.raises(Exception, match="key-unique"):
            snapshot_diff(old, new, key="k", val_col="v").materialize()


class TestLevenshteinBatch:
    def test_matches_pure_python_dp(self, ray_session):
        import random

        from sprout_ray.stages.similarity import levenshtein_batch

        def ref(a, b):
            m, n = len(a), len(b)
            D = list(range(n + 1))
            for i in range(1, m + 1):
                prev, D[0] = D[0], i
                for j in range(1, n + 1):
                    prev, D[j] = D[j], min(
                        D[j] + 1, D[j - 1] + 1, prev + (a[i - 1] != b[j - 1])
                    )
            return D[n]

        random.seed(7)
        for _ in range(50):
            q = "".join(random.choices("abcd", k=random.randint(0, 12)))
            docs = [
                "".join(random.choices("abcde", k=random.randint(0, 15)))
                for _ in range(9)
            ] + ["", "kitten", "sitting"]
            got = levenshtein_batch(q, docs).tolist()
            assert got == [ref(q, d) for d in docs]

    def test_unicode_codepoints(self, ray_session):
        from sprout_ray.stages.similarity import levenshtein_batch

        # one substitution in CODEPOINT space, regardless of byte width
        assert levenshtein_batch("naïve", ["naive", "naïve", ""]).tolist() == [1, 0, 5]


class TestMovingSum:
    def test_randomized_multiblock_vs_pandas(self, ray_session):
        """Hot keys over many sorted blocks: block-edge windows (needy
        heads reaching into earlier blocks' carries, keys spanning 3+
        blocks) are the path under test; asserted multi-block."""
        import pandas as pd
        import pyarrow as pa
        import ray.data as rd

        from sprout_ray.stages.windows import moving_sum_by_key

        rng = np.random.default_rng(3)
        n = 30_000
        df = pd.DataFrame(
            {
                "event_id": np.arange(n, dtype=np.int64),
                "user_id": rng.integers(0, 4, n).astype(np.int64),
                "ts": rng.integers(0, 10**9, n).astype(np.int64),
                "cents": rng.integers(-500, 500, n).astype(np.int64),
            }
        )
        tables = [
            pa.Table.from_pandas(df.iloc[i : i + 3000]) for i in range(0, n, 3000)
        ]
        ds = rd.from_arrow(tables)
        assert (
            ds.sort(["user_id", "ts", "event_id"]).materialize().num_blocks() > 1
        )
        out = (
            moving_sum_by_key(
                ds, key="user_id", ts_col="ts", id_col="event_id",
                val_col="cents", frame=3,
            )
            .to_pandas()
            .sort_values("event_id")
            .reset_index(drop=True)
        )
        s = df.sort_values(["user_id", "ts", "event_id"])
        g = s.groupby("user_id")["cents"]
        want = s.assign(
            mov_sum=g.rolling(4, min_periods=1).sum().reset_index(0, drop=True),
            mov_n=g.rolling(4, min_periods=1).count().reset_index(0, drop=True),
        ).sort_values("event_id").reset_index(drop=True)
        assert out["mov_sum"].tolist() == want["mov_sum"].astype(int).tolist()
        assert out["mov_n"].tolist() == want["mov_n"].astype(int).tolist()
        assert out["event_id"].tolist() == want["event_id"].tolist()


class TestMovingTimeSum:
    def test_randomized_multiblock_vs_reference(self, ray_session):
        """Hot keys over many sorted blocks: needy heads whose trailing
        time-span reaches into earlier blocks' carries (incl. keys
        spanning 3+ blocks) vs a per-key searchsorted reference."""
        import pandas as pd
        import pyarrow as pa
        import ray.data as rd

        from sprout_ray.stages.windows import moving_time_sum_by_key

        rng = np.random.default_rng(5)
        n = 30_000
        span = 10**10
        df = pd.DataFrame(
            {
                "event_id": np.arange(n, dtype=np.int64),
                "user_id": rng.integers(0, 4, n).astype(np.int64),
                # globally unique ts -> no (key, ts) ties by construction
                "ts": rng.choice(10**12, size=n, replace=False).astype(np.int64),
                "cents": rng.integers(-500, 500, n).astype(np.int64),
            }
        )
        tables = [
            pa.Table.from_pandas(df.iloc[i : i + 3000]) for i in range(0, n, 3000)
        ]
        ds = rd.from_arrow(tables)
        assert (
            ds.sort(["user_id", "ts", "event_id"]).materialize().num_blocks() > 1
        )
        out = (
            moving_time_sum_by_key(
                ds, key="user_id", ts_col="ts", id_col="event_id",
                val_col="cents", span_us=span,
            )
            .to_pandas()
            .sort_values("event_id")
            .reset_index(drop=True)
        )
        want_sum = np.empty(n, np.int64)
        want_n = np.empty(n, np.int64)
        for u in range(4):
            m = df["user_id"].to_numpy() == u
            ts = df["ts"].to_numpy()[m]
            c = df["cents"].to_numpy()[m]
            order = np.argsort(ts)
            ts_s, c_s = ts[order], c[order]
            lo = np.searchsorted(ts_s, ts_s - span, side="left")
            cs = np.concatenate([[0], np.cumsum(c_s)])
            idx = np.arange(len(ts_s))
            mv = cs[idx + 1] - cs[lo]
            nn = idx - lo + 1
            ids = df["event_id"].to_numpy()[m][order]
            want_sum[ids] = mv
            want_n[ids] = nn
        assert out["mov_sum"].to_numpy().tolist() == want_sum.tolist()
        assert out["mov_n"].to_numpy().tolist() == want_n.tolist()

    def test_rejects_key_ts_ties(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from sprout_ray.stages.windows import moving_time_sum_by_key

        t = pa.table(
            {
                "event_id": pa.array([1, 2], pa.int64()),
                "user_id": pa.array([7, 7], pa.int64()),
                "ts": pa.array([100, 100], pa.int64()),
                "cents": pa.array([5, 6], pa.int64()),
            }
        )
        with pytest.raises(Exception, match="RANGE peer semantics"):
            moving_time_sum_by_key(
                rd.from_arrow(t), key="user_id", ts_col="ts",
                id_col="event_id", val_col="cents", span_us=10,
            ).materialize()


class TestTimeWeightedSum:
    def test_randomized_multiblock_vs_pandas(self, ray_session):
        """Keys spanning blocks: the boundary gap must be weighted by the
        PREVIOUS partial's last value (the carried last_c)."""
        import pandas as pd
        import pyarrow as pa
        import ray.data as rd

        from sprout_ray.stages.windows import time_weighted_sum

        rng = np.random.default_rng(11)
        n = 24_000
        df = pd.DataFrame(
            {
                "event_id": np.arange(n, dtype=np.int64),
                "user_id": rng.integers(0, 4, n).astype(np.int64),
                "ts": rng.integers(0, 10**15, n).astype(np.int64),
                "cents": rng.integers(-100, 100, n).astype(np.int64),
            }
        )
        tables = [
            pa.Table.from_pandas(df.iloc[i : i + 3000]) for i in range(0, n, 3000)
        ]
        ds = rd.from_arrow(tables)
        assert (
            ds.sort(["user_id", "ts", "event_id"]).materialize().num_blocks() > 1
        )
        out = (
            time_weighted_sum(
                ds, key="user_id", ts_col="ts", id_col="event_id",
                val_col="cents",
            )
            .to_pandas()
            .sort_values("user_id")
            .reset_index(drop=True)
        )
        rows = []
        for u, grp in df.sort_values(["user_id", "ts", "event_id"]).groupby(
            "user_id"
        ):
            gaps = np.diff(grp["ts"].to_numpy()) // 1_000_000
            c = grp["cents"].to_numpy()[:-1]
            rows.append(
                {
                    "user_id": u,
                    "n_events": len(grp),
                    "sum_gap_s": int(gaps.sum()),
                    "weighted_val_s": int((c * gaps).sum()),
                }
            )
        want = pd.DataFrame(rows)
        pd.testing.assert_frame_equal(out, want, check_dtype=False)


class TestGroupedWeightedMedian:
    def test_randomized_vs_numpy(self, ray_session):
        import pandas as pd
        import pyarrow as pa
        import ray.data as rd

        from sprout_ray.stages.windows import grouped_weighted_median

        rng = np.random.default_rng(3)
        n = 20_000
        df = pd.DataFrame(
            {
                "g": rng.choice(np.array(["a", "b", "c"]), n),
                "v": rng.integers(0, 500, n).astype(np.int64),
                "w": rng.integers(1, 9, n).astype(np.int64),
            }
        )
        tables = [
            pa.Table.from_pandas(df.iloc[i : i + 4000]) for i in range(0, n, 4000)
        ]
        out = (
            grouped_weighted_median(
                rd.from_arrow(tables), key="g", val_col="v", weight_col="w"
            )
            .to_pandas()
            .set_index("g")["wmedian"]
        )

        for g, sub in df.groupby("g"):
            s = sub.groupby("v")["w"].sum().sort_index()
            cw = s.cumsum()
            expect = s.index[(2 * cw >= s.sum()).values][0]
            assert out[g] == expect, g

    def test_unit_weights_equal_percentile_disc(self, ray_session):
        """With all-1 weights the lower weighted median IS
        percentile_disc(0.5) — the degenerate pin."""
        import pandas as pd
        import pyarrow as pa
        import ray.data as rd

        from sprout_ray.stages.windows import grouped_weighted_median

        rng = np.random.default_rng(4)
        df = pd.DataFrame(
            {
                "g": rng.choice(np.array(["x", "y"]), 5001),
                "v": rng.integers(0, 100, 5001).astype(np.int64),
            }
        )
        df["w"] = np.ones(len(df), np.int64)
        out = (
            grouped_weighted_median(
                rd.from_arrow(pa.Table.from_pandas(df)),
                key="g",
                val_col="v",
                weight_col="w",
            )
            .to_pandas()
            .set_index("g")["wmedian"]
        )
        for g, sub in df.groupby("g"):
            v = np.sort(sub["v"].to_numpy())
            # lower median: first position whose cumulative count reaches n/2
            cw = np.arange(1, len(v) + 1)
            assert out[g] == v[np.argmax(2 * cw >= len(v))]

    def test_rejects_float_columns(self, ray_session):
        import pandas as pd
        import pyarrow as pa
        import pytest as _pytest
        import ray.data as rd

        from sprout_ray.stages.windows import grouped_weighted_median

        df = pd.DataFrame({"g": ["a"], "v": [1.5], "w": [1]})
        with _pytest.raises(ValueError, match="must be integer"):
            grouped_weighted_median(
                rd.from_arrow(pa.Table.from_pandas(df)),
                key="g",
                val_col="v",
                weight_col="w",
            )


class TestPeakConcurrency:
    def test_hand_computed_intervals(self, ray_session):
        """Three users, overlapping 30-min sessions with a touching
        boundary: start-at-end counts as concurrent (starts order first)."""
        import pandas as pd

        from sprout_ray.pipelines.analytics import peak_concurrent_sessions
        import pyarrow.parquet as pq
        import pyarrow as pa
        import tempfile, os

        US = 1_000_000
        rows = []  # (event_id, user, ts_us)
        # u1: session [0, 600s]; u2: [300s, 900s]; u3: [600s, 600s]
        rows += [(0, 1, 0), (1, 1, 600 * US)]
        rows += [(2, 2, 300 * US), (3, 2, 900 * US)]
        rows += [(4, 3, 600 * US)]
        df = pd.DataFrame(rows, columns=["event_id", "user_id", "ts_us"])
        t = pa.table(
            {
                "event_id": pa.array(df.event_id, pa.int64()),
                "ts": pa.array(df.ts_us, pa.int64()).cast(pa.timestamp("us")),
                "user_id": pa.array(df.user_id, pa.int64()),
            }
        )
        with tempfile.TemporaryDirectory() as d:
            pq.write_table(t, os.path.join(d, "events.parquet"))
            out = peak_concurrent_sessions(d).to_pandas()
        # at t=600s: u1 still open (closes at 600), u2 open, u3 opens -> 3
        assert out["peak_sessions"].tolist() == [3]
        assert out["first_peak_us"].tolist() == [600 * US]


class TestQuartileAndOuterJoin:
    def test_ntile_small_groups_vs_duckdb(self, ray_session):
        """Groups with n < 4 (one tile per row) and n % 4 != 0 (remainder
        to the front) against DuckDB's NTILE on the same planted table."""
        import os
        import tempfile

        import duckdb
        import pandas as pd
        import pyarrow as pa
        import pyarrow.parquet as pq

        from sprout_ray.pipelines.analytics import value_quartile_rollup

        rng = np.random.default_rng(9)
        frames = []
        eid = 0
        for typ, n in [("a", 2), ("b", 3), ("c", 7), ("d", 13), ("e", 40)]:
            v = np.round(rng.uniform(0, 50, n), 2)
            frames.append(
                pd.DataFrame(
                    {
                        "event_id": np.arange(eid, eid + n, dtype=np.int64),
                        "event_type": typ,
                        "value": v,
                    }
                )
            )
            eid += n
        df = pd.concat(frames, ignore_index=True)
        t = pa.table(
            {
                "event_id": pa.array(df.event_id, pa.int64()),
                "ts": pa.array(
                    np.arange(len(df), dtype=np.int64), pa.int64()
                ).cast(pa.timestamp("us")),
                "user_id": pa.array(np.zeros(len(df), np.int64)),
                "event_type": pa.array(df.event_type, pa.string()),
                "value": pa.array(df.value, pa.float64()),
            }
        )
        with tempfile.TemporaryDirectory() as d:
            pq.write_table(t, os.path.join(d, "events.parquet"))
            out = value_quartile_rollup(d).to_pandas()
            ref = duckdb.connect().execute(
                "WITH r AS (SELECT event_type, event_id, "
                "CAST(round(value*100) AS BIGINT) AS cents, "
                "NTILE(4) OVER (PARTITION BY event_type "
                "ORDER BY value, event_id) AS tile "
                f"FROM read_parquet('{d}/events.parquet')) "
                "SELECT event_type, CAST(tile AS BIGINT) AS tile, "
                "CAST(COUNT(*) AS BIGINT) AS n_events, "
                "CAST(SUM(cents) AS BIGINT) AS sum_cents "
                "FROM r GROUP BY 1,2 ORDER BY 1,2"
            ).fetchdf()
        pd.testing.assert_frame_equal(
            out.reset_index(drop=True), ref, check_dtype=False
        )

    def test_full_outer_fills_both_sides(self, ray_session):
        """Nations with only customers AND nations with only suppliers both
        survive the full outer with zero fill."""
        import os
        import tempfile

        import pandas as pd
        import pyarrow as pa
        import pyarrow.parquet as pq

        from sprout_ray.pipelines.analytics import nation_account_coverage

        cust = pa.table(
            {
                "c_custkey": pa.array([1, 2, 3], pa.int64()),
                "c_name": pa.array(["x", "y", "z"]),
                "c_nationkey": pa.array([10, 10, 20], pa.int64()),
                "c_acctbal": pa.array([9500.0, 9600.0, 9700.0]),
                "c_mktsegment": pa.array(["m"] * 3),
            }
        )
        supp = pa.table(
            {
                "s_suppkey": pa.array([1, 2], pa.int64()),
                "s_name": pa.array(["p", "q"]),
                "s_nationkey": pa.array([20, 30], pa.int64()),
                "s_acctbal": pa.array([9900.0, 9950.0]),
            }
        )
        with tempfile.TemporaryDirectory() as d:
            pq.write_table(cust, os.path.join(d, "customer.parquet"))
            pq.write_table(supp, os.path.join(d, "supplier.parquet"))
            out = nation_account_coverage(d).to_pandas()
        assert out.values.tolist() == [[10, 2, 0], [20, 1, 1], [30, 0, 1]]


class TestFkIntegrityReport:
    @pytest.mark.parametrize("plan", ["broadcast", "distributed"])
    def test_planted_orphans_counted_per_row(self, ray_session, monkeypatch, plan):
        """Orphan FK values count ROWS (not distinct keys); clean edges
        report zero. Both plans agree, and the distributed one
        (DIM_BROADCAST_MAX=0) collects no parent key set to the driver:
        the gate reads parquet row counts before anything is collected."""
        import os
        import tempfile

        import pyarrow as pa
        import pyarrow.parquet as pq
        import ray.data

        import sprout_ray.pipelines.analytics as A
        import sprout_ray.stages.joins as J
        from sprout_ray.pipelines.analytics import fk_integrity_report

        collected = []

        def spy(fn):
            def collect(ds, *a, **kw):
                collected.append(ds)
                return fn(ds, *a, **kw)

            return collect

        # the package's driver collect, and the Ray call it replaced
        monkeypatch.setattr(A, "collect_table", spy(A.collect_table))
        monkeypatch.setattr(ray.data.Dataset, "to_arrow_refs", spy(ray.data.Dataset.to_arrow_refs))
        if plan == "distributed":
            monkeypatch.setattr(J, "DIM_BROADCAST_MAX", 0)

        with tempfile.TemporaryDirectory() as d:
            pq.write_table(
                pa.table({"c_custkey": pa.array([1, 2], pa.int64())}),
                os.path.join(d, "customer.parquet"),
            )
            pq.write_table(
                pa.table(
                    {
                        # custkey 9 is orphaned twice -> 2 orphan ROWS
                        "o_orderkey": pa.array([100, 101, 102], pa.int64()),
                        "o_custkey": pa.array([1, 9, 9], pa.int64()),
                    }
                ),
                os.path.join(d, "orders.parquet"),
            )
            pq.write_table(
                pa.table(
                    {
                        "l_orderkey": pa.array([100, 777], pa.int64()),
                        "l_partkey": pa.array([5, 5], pa.int64()),
                        "l_suppkey": pa.array([7, 8], pa.int64()),
                    }
                ),
                os.path.join(d, "lineitem.parquet"),
            )
            pq.write_table(
                pa.table({"p_partkey": pa.array([5], pa.int64())}),
                os.path.join(d, "part.parquet"),
            )
            pq.write_table(
                pa.table({"s_suppkey": pa.array([7], pa.int64())}),
                os.path.join(d, "supplier.parquet"),
            )
            out = fk_integrity_report(d).to_pandas().set_index("fk_edge")
        assert out.loc["orders.o_custkey->customer", "n_orphan_rows"] == 2
        assert out.loc["lineitem.l_orderkey->orders", "n_orphan_rows"] == 1
        assert out.loc["lineitem.l_partkey->part", "n_orphan_rows"] == 0
        assert out.loc["lineitem.l_suppkey->supplier", "n_orphan_rows"] == 1
        # the broadcast plan collects the parent key sets; the distributed
        # one collects nothing at all
        assert bool(collected) == (plan == "broadcast")


class TestAnomalyAndStreak:
    def test_planted_anomalous_day(self, ray_session):
        """A spike day flags; uniform days don't; the exact-integer 2-sigma
        comparison is checked against DuckDB on the same planted table."""
        import os
        import tempfile

        import duckdb
        import pandas as pd
        import pyarrow as pa
        import pyarrow.parquet as pq

        from sprout_ray.pipelines.analytics import anomalous_days

        DAY = 86_400_000_000
        counts = [100] * 9 + [500]  # day 9 is the spike
        ts = np.concatenate(
            [np.full(c, d * DAY + 5, np.int64) + np.arange(c) for d, c in enumerate(counts)]
        )
        t = pa.table(
            {
                "event_id": pa.array(np.arange(len(ts), dtype=np.int64)),
                "ts": pa.array(ts).cast(pa.timestamp("us")),
                "user_id": pa.array(np.zeros(len(ts), np.int64)),
                "event_type": pa.array(["view"] * len(ts)),
                "value": pa.array(np.zeros(len(ts))),
                "props": pa.array(["{}"] * len(ts)),
            }
        )
        with tempfile.TemporaryDirectory() as d:
            pq.write_table(t, os.path.join(d, "events.parquet"))
            out = anomalous_days(d).to_pandas()
            ref = duckdb.connect().execute(
                "WITH d AS (SELECT CAST(epoch_us(ts)//86400000000 AS BIGINT) AS day, "
                "CAST(COUNT(*) AS BIGINT) AS n_events FROM "
                f"read_parquet('{d}/events.parquet') GROUP BY 1), "
                "s AS (SELECT CAST(COUNT(*) AS BIGINT) AS n, SUM(n_events) AS sm, "
                "SUM(n_events*n_events) AS ss FROM d) "
                "SELECT day, n_events FROM d, s "
                "WHERE (n*n_events - sm)*(n*n_events - sm) > 4*(n*ss - sm*sm) "
                "ORDER BY day"
            ).fetchdf()
        assert out["day"].tolist() == [9]
        pd.testing.assert_frame_equal(out, ref, check_dtype=False)

    def test_streak_bitmask_vs_islands(self, ray_session):
        """Randomized multiblock (user, day) activity: the bitmask streak
        equals the SQL gaps-and-islands reference computed in pandas."""
        import pandas as pd
        import pyarrow as pa
        import ray.data as rd

        from sprout_ray.pipelines.analytics import longest_daily_streak
        import os
        import tempfile
        import pyarrow.parquet as pq

        DAY = 86_400_000_000
        rng = np.random.default_rng(5)
        n = 20_000
        df = pd.DataFrame(
            {
                "user_id": rng.integers(0, 40, n).astype(np.int64),
                "day": rng.integers(0, 30, n).astype(np.int64),
            }
        )
        # pandas reference: longest consecutive run per user
        expect = {}
        for uid, g in df.drop_duplicates().groupby("user_id"):
            ds_ = np.sort(g["day"].unique())
            runs = np.split(ds_, np.flatnonzero(np.diff(ds_) != 1) + 1)
            expect[uid] = max(len(r) for r in runs)
        ref = (
            pd.Series(expect).value_counts().sort_index().rename_axis(
                "streak_days"
            ).rename("n_users").reset_index()
        )
        t = pa.table(
            {
                "event_id": pa.array(np.arange(n, dtype=np.int64)),
                "ts": pa.array(df["day"].to_numpy() * DAY + 7).cast(
                    pa.timestamp("us")
                ),
                "user_id": pa.array(df["user_id"].to_numpy()),
                "event_type": pa.array(["view"] * n),
                "value": pa.array(np.zeros(n)),
                "props": pa.array(["{}"] * n),
            }
        )
        with tempfile.TemporaryDirectory() as d:
            pq.write_table(t, os.path.join(d, "events.parquet"))
            out = longest_daily_streak(d).to_pandas()
        pd.testing.assert_frame_equal(out, ref, check_dtype=False)


class TestRelationalEndgame2:
    """Planted-table probes for the Q18 / correlated-avg / union family."""

    @staticmethod
    def _write(d, name, table):
        import os

        import pyarrow.parquet as pq

        pq.write_table(table, os.path.join(d, f"{name}.parquet"))

    def test_large_volume_winner_set_and_ties(self, ray_session):
        """HAVING boundary is strict (> min_qty), half-quantities round to
        nearest, and the top-100 tie order is (total DESC, orderkey)."""
        import tempfile

        import duckdb
        import pandas as pd
        import pyarrow as pa

        from sprout_ray.pipelines.analytics import large_volume_customers

        li = pa.table(
            {
                # order 1: qty 6+5=11 (winner at min_qty=10); order 2: exactly
                # 10 (excluded, strict >); order 3: 10.5 rounds to 11 in one
                # line (winner)
                "l_orderkey": pa.array([1, 1, 2, 3], pa.int64()),
                "l_quantity": pa.array([6.0, 5.0, 10.0, 10.5]),
            }
        )
        od = pa.table(
            {
                "o_orderkey": pa.array([1, 2, 3], pa.int64()),
                "o_custkey": pa.array([7, 7, 8], pa.int64()),
                # orders 1 and 3 tie on total price -> orderkey breaks it
                "o_totalprice": pa.array([55.5, 1.0, 55.5]),
                "o_orderdate": pa.array([86_400_000_000 * d for d in [1, 2, 3]], pa.int64()).cast(pa.timestamp("us")),
            }
        )
        cu = pa.table(
            {
                "c_custkey": pa.array([7, 8], pa.int64()),
                "c_nationkey": pa.array([3, 4], pa.int32()),
            }
        )
        with tempfile.TemporaryDirectory() as d:
            self._write(d, "lineitem", li)
            self._write(d, "orders", od)
            self._write(d, "customer", cu)
            out = large_volume_customers(d, min_qty=10).to_pandas()
            ref = duckdb.connect().execute(
                "WITH w AS (SELECT l_orderkey, CAST(SUM(CAST(round(l_quantity) "
                "AS BIGINT)) AS BIGINT) AS sum_qty FROM "
                f"read_parquet('{d}/lineitem.parquet') GROUP BY 1 "
                "HAVING SUM(CAST(round(l_quantity) AS BIGINT)) > 10) "
                "SELECT c_custkey, CAST(c_nationkey AS BIGINT) AS c_nationkey, "
                "o_orderkey, CAST(epoch_us(o_orderdate) AS BIGINT) AS orderdate_us, "
                "CAST(round(o_totalprice * 100) AS BIGINT) AS total_c, w.sum_qty "
                f"FROM w, read_parquet('{d}/orders.parquet') AS o, "
                f"read_parquet('{d}/customer.parquet') AS c "
                "WHERE o_orderkey = w.l_orderkey AND c_custkey = o_custkey "
                "ORDER BY total_c DESC, o_orderkey LIMIT 100"
            ).fetchdf()
        assert out["o_orderkey"].tolist() == [1, 3]  # tie broken by orderkey
        pd.testing.assert_frame_equal(out, ref, check_dtype=False)

    def test_above_avg_strict_and_tied(self, ray_session):
        """[100,200,300] -> only 300 beats its average; an all-equal
        customer contributes nothing (strict >, integer-exact)."""
        import tempfile

        import duckdb
        import pandas as pd
        import pyarrow as pa

        from sprout_ray.pipelines.analytics import orders_above_cust_avg

        od = pa.table(
            {
                "o_custkey": pa.array([1, 1, 1, 2, 2], pa.int64()),
                "o_totalprice": pa.array([100.0, 200.0, 300.0, 50.0, 50.0]),
                "o_orderpriority": pa.array(["1-URGENT"] * 3 + ["2-HIGH"] * 2),
            }
        )
        cu = pa.table({"c_custkey": pa.array([1, 2], pa.int64())})
        with tempfile.TemporaryDirectory() as d:
            self._write(d, "orders", od)
            self._write(d, "customer", cu)
            out = orders_above_cust_avg(d).to_pandas()
            ref = duckdb.connect().execute(
                "WITH c AS (SELECT o_orderpriority, o_custkey, "
                "CAST(round(o_totalprice * 100) AS BIGINT) AS tc FROM "
                f"read_parquet('{d}/orders.parquet')), "
                "w AS (SELECT o_orderpriority, tc, "
                "SUM(tc) OVER (PARTITION BY o_custkey) AS s, "
                "COUNT(*) OVER (PARTITION BY o_custkey) AS n FROM c) "
                "SELECT o_orderpriority, CAST(COUNT(*) AS BIGINT) AS n_above "
                "FROM w WHERE tc * n > s GROUP BY 1 ORDER BY 1"
            ).fetchdf()
        assert out.values.tolist() == [["1-URGENT", 1]]
        pd.testing.assert_frame_equal(out, ref, check_dtype=False)

    def test_union_rollup_disjoint_and_shared_days(self, ray_session):
        """Days present in one source only appear once; shared days appear
        under both tags; counts sum across blocks."""
        import tempfile

        import duckdb
        import pandas as pd
        import pyarrow as pa

        from sprout_ray.pipelines.analytics import daily_activity_union

        DAY = 86_400_000_000
        ev_ts = np.concatenate(
            [np.full(4, 0 * DAY + 9), np.full(2, 1 * DAY + 9)]
        ).astype(np.int64)
        ev = pa.table(
            {"ts": pa.array(ev_ts).cast(pa.timestamp("us"))}
        )
        od = pa.table(
            {
                "o_orderdate": pa.array(
                    np.array([1 * DAY, 1 * DAY, 2 * DAY], np.int64)
                ).cast(pa.timestamp("us"))
            }
        )
        with tempfile.TemporaryDirectory() as d:
            self._write(d, "events", ev)
            self._write(d, "orders", od)
            out = daily_activity_union(d).to_pandas()
            ref = duckdb.connect().execute(
                "WITH u AS (SELECT CAST(epoch_us(ts) // 86400000000 AS BIGINT) "
                f"AS day, 'events' AS source FROM read_parquet('{d}/events.parquet') "
                "UNION ALL SELECT CAST(epoch_us(o_orderdate) // 86400000000 "
                f"AS BIGINT), 'orders' FROM read_parquet('{d}/orders.parquet')) "
                "SELECT day, source, CAST(COUNT(*) AS BIGINT) AS n_rows "
                "FROM u GROUP BY 1, 2 ORDER BY 1, 2"
            ).fetchdf()
        assert out.values.tolist() == [
            [0, "events", 4],
            [1, "events", 2],
            [1, "orders", 2],
            [2, "orders", 1],
        ]
        pd.testing.assert_frame_equal(out, ref, check_dtype=False)


def test_ppm_roundtrip_and_header_grammar():
    """encode_ppm/decode_ppm round-trip byte-exactly; the decoder handles
    comments and arbitrary whitespace runs in the header."""
    import numpy as np

    from sprout_ray.stages.multimodal import decode_ppm, encode_ppm

    rng = np.random.default_rng(7)
    img = rng.integers(0, 256, (5, 9, 3), dtype=np.uint8)
    buf = encode_ppm(img)
    out = decode_ppm(buf)
    assert out.shape == (5, 9, 3)
    assert (out == img).all()
    # hand-built header with comments + mixed whitespace
    pix = img.tobytes()
    fancy = b"P6 # magic\n# a comment line\n  9\t5 # dims\n255\n" + pix
    out2 = decode_ppm(fancy)
    assert (out2 == img).all()
    # zero-copy buffer input (the DecodeStage path): memoryview decode is
    # identical, including a header whose comment run straddles the 256-B
    # initial header copy (the grow-and-reparse branch)
    out3 = decode_ppm(memoryview(fancy))
    assert (out3 == img).all()
    long_comment = b"P6\n# " + b"x" * 600 + b"\n9 5\n255\n" + pix
    out4 = decode_ppm(memoryview(long_comment))
    assert (out4 == img).all()
    assert (decode_ppm(long_comment) == img).all()


def test_ppm_real_decode_stage(ray_session):
    """DecodeStage fake=False decodes PPM payloads FOR REAL: features are
    pixel-space (height/width match the image), deterministic across
    runs, and non-PPM types still raise loudly."""
    import numpy as np
    import pytest
    import ray.data as rd

    from sprout_ray.stages.multimodal import (
        DecodeStage,
        decode_features,
        synth_media_table,
        synth_ppm_media_table,
    )

    t = synth_ppm_media_table(12, seed=42)
    out = decode_features(rd.from_arrow(t), fake=False).to_pandas()
    assert len(out) == 12
    feats = np.stack(out.sort_values("media_id")["features"].to_numpy())
    hs = t["height"].to_numpy()
    ws = t["width"].to_numpy()
    assert (feats[:, 0] == hs).all()
    assert (feats[:, 1] == ws).all()
    # gradient construction: red channel mean ~127.5 for every size
    assert np.allclose(feats[:, 2], 127.5, atol=8)
    # determinism
    out2 = decode_features(rd.from_arrow(t), fake=False).to_pandas()
    feats2 = np.stack(out2.sort_values("media_id")["features"].to_numpy())
    assert (feats == feats2).all()
    # non-PPM without fake: loud
    stage = DecodeStage(fake=False)
    with pytest.raises(NotImplementedError):
        stage(synth_media_table(2, seed=1))


def test_wav_roundtrip_and_chunk_walk():
    """encode_wav/decode_wav round-trip sample-exact; the decoder walks
    past extra RIFF chunks (e.g. LIST) before data."""
    import numpy as np

    from sprout_ray.stages.multimodal import decode_wav, encode_wav

    rng = np.random.default_rng(3)
    samples = rng.integers(-32768, 32767, 777, dtype=np.int16)
    buf = encode_wav(samples, 8000)
    out, rate = decode_wav(buf)
    assert rate == 8000
    assert (out == samples).all()
    # splice a LIST chunk between fmt and data (odd size -> pad byte)
    fmt_end = 12 + 8 + 16
    extra = b"LIST" + (3).to_bytes(4, "little") + b"abc" + b"\x00"
    spliced = buf[:fmt_end] + extra + buf[fmt_end:]
    out2, rate2 = decode_wav(spliced)
    assert rate2 == 8000
    assert (out2 == samples).all()


def test_wav_real_decode_stage(ray_session):
    """DecodeStage fake=False decodes WAV payloads for real: n_samples
    and rate land in the features, deterministic across runs."""
    import numpy as np
    import ray.data as rd

    from sprout_ray.stages.multimodal import decode_features, synth_wav_media_table

    t = synth_wav_media_table(9, seed=42)
    out = decode_features(rd.from_arrow(t), fake=False).to_pandas()
    feats = np.stack(out.sort_values("media_id")["features"].to_numpy())
    # n_samples cycles 256/384/512; rate constant 16000
    assert feats[:, 0].tolist() == [256.0, 384.0, 512.0] * 3
    assert (feats[:, 1] == 16000.0).all()
    # sine + small noise: RMS close to 12000/sqrt(2)
    assert np.allclose(feats[:, 2], 12000 / np.sqrt(2), rtol=0.15)
    out2 = decode_features(rd.from_arrow(t), fake=False).to_pandas()
    feats2 = np.stack(out2.sort_values("media_id")["features"].to_numpy())
    assert (feats == feats2).all()


def test_media_phash_pairs_planted(ray_session):
    """Perceptual image dedup end to end: brightness-shifted copies are
    byte-DISTINCT (sha256 differs — exact dedup misses them) yet pair at
    hamming 0 through the distributed tail; unrelated noise images never
    pair at max_hamming=2."""
    import hashlib

    import sprout_ray.pipelines.analytics as A
    from sprout_ray.stages.multimodal import synth_ppm_noise_table

    t = synth_ppm_noise_table(64, seed=42, dup_every=8)
    payloads = t["payload"].to_pylist()
    # the planted copies are byte-distinct from their base
    for i in range(7, 64, 8):
        assert hashlib.sha256(payloads[i]).hexdigest() != hashlib.sha256(
            payloads[i - 1]
        ).hexdigest()

    out = A.media_phash_pairs("unused").to_pandas()
    got = sorted(zip(out["left_id"], out["right_id"]))
    want = [(i - 1, i) for i in range(7, 64, 8)]
    assert got == want
    assert (out["hamming"] == 0).all()


class TestSkewStatsPackedKeys:
    """stages/profile.skew_stats — packed-int64 vs string key legs."""

    def test_mixed_types_match_brute_force(self, ray_session):
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from sprout_ray.stages.profile import skew_stats

        rng = np.random.default_rng(4)
        ids = rng.integers(0, 500, size=20_000).astype(np.int64)
        tags = np.array(["a", "b", "c"])[rng.integers(0, 3, size=20_000)]
        t = pa.table({"id": pa.array(ids), "tag": pa.array(tags.tolist())})
        out = skew_stats(
            rd.from_arrow(t).repartition(5), ["id", "tag"]
        ).to_pydict()
        got = {c: row for c, *row in zip(out["col"], out["n"], out["n_distinct"], out["f2"], out["max_count"])}
        for col, vals in (("id", ids), ("tag", tags)):
            _, counts = np.unique(vals, return_counts=True)
            assert got[col] == [
                len(vals),
                len(counts),
                int((counts.astype(object) ** 2).sum()),
                int(counts.max()),
            ]

    def test_out_of_range_int_guard_is_loud(self, ray_session):
        import numpy as np
        import pyarrow as pa
        import pytest
        import ray.data as rd

        from sprout_ray.stages.profile import skew_stats

        t = pa.table({"id": pa.array([1, 2, 1 << 60], pa.int64())})
        with pytest.raises(Exception, match="2\\^56"):
            skew_stats(rd.from_arrow(t), ["id"]).to_pydict()


class TestSpectralAudio:
    """Round-5 multimodal addition: real numpy DSP (framing + Hann +
    rfft + HTK mel filterbank) over the PCM16 path."""

    def test_stft_parseval_sanity(self):
        import numpy as np

        from sprout_ray.stages.multimodal import hann_window, stft_magnitude

        rng = np.random.default_rng(1)
        x = rng.normal(0, 1000, 1024)
        n_fft = 256
        mag = stft_magnitude(x, n_fft=n_fft, hop=n_fft)  # disjoint frames
        # Parseval per frame: sum|X|^2 (two-sided) == n * sum|xw|^2
        w = hann_window(n_fft)
        for f in range(mag.shape[0]):
            xw = x[f * n_fft : (f + 1) * n_fft] * w
            two_sided = mag[f, 0] ** 2 + 2 * (mag[f, 1:-1] ** 2).sum() + mag[f, -1] ** 2
            assert abs(two_sided - n_fft * (xw**2).sum()) < 1e-4 * n_fft * (xw**2).sum()

    def test_dominant_band_monotone_in_frequency(self):
        import numpy as np

        from sprout_ray.stages.multimodal import log_mel_features

        rate, doms = 16000, []
        t = np.arange(4096, dtype=np.float64)
        for freq in (200, 500, 1000, 2500, 6000):
            wave = (10000 * np.sin(2 * np.pi * freq * t / rate)).astype(np.int16)
            doms.append(log_mel_features(wave, rate, n_mels=16)[2])
        assert doms == sorted(doms) and len(set(doms)) >= 4

    def test_filterbank_geometry(self):
        import numpy as np

        from sprout_ray.stages.multimodal import mel_filterbank

        fb = mel_filterbank(16, 256, 16000)
        assert fb.shape == (16, 129)
        assert (fb >= 0).all() and fb.max() <= 1.0
        assert (fb.sum(axis=1) > 0).all()  # no empty filter at this geometry

    def test_stage_end_to_end_deterministic(self, ray_session):
        import numpy as np

        import ray.data as rd
        from sprout_ray.stages.multimodal import (
            audio_spectral_ds,
            synth_wav_media_table,
        )

        ds = rd.from_arrow(synth_wav_media_table(24, seed=7))
        a = (
            audio_spectral_ds(ds.select_columns(["media_id", "payload"]))
            .to_pandas()
            .sort_values("media_id")
        )
        b = (
            audio_spectral_ds(ds.select_columns(["media_id", "payload"]))
            .to_pandas()
            .sort_values("media_id")
        )
        assert len(a) == 24 and (a["n_frames"] >= 1).all()
        for x, y in zip(a["features"], b["features"]):
            assert np.array_equal(np.asarray(x), np.asarray(y))

    def test_media_spectrogram_query_self_certifies(self, ray_session):
        import sprout_ray.pipelines.analytics as A

        t = A.media_spectrogram("unused").to_pandas()
        assert len(t) == 200
        assert t["band_match"].all()

    def test_audio_neardup_perfect_retrieval(self, ray_session):
        """Planted re-recorded chords (different gain, fresh noise) are
        the ONLY pairs at the 0.9 fingerprint-cosine threshold."""
        import ray.data as rd
        from sprout_ray.stages.multimodal import (
            audio_neardup_pairs,
            synth_wav_dup_table,
        )

        n, dup_every = 64, 8
        ds = rd.from_arrow(synth_wav_dup_table(n, seed=11, dup_every=dup_every))
        pairs = audio_neardup_pairs(ds).to_pandas()
        got = {(int(a), int(b)) for a, b in zip(pairs["id_a"], pairs["id_b"])}
        want = {(i - 1, i) for i in range(n) if i % dup_every == dup_every - 1}
        assert got == want
        assert (pairs["score"] > 0.9).all()

    def test_media_audio_neardup_query_certificate(self, ray_session):
        import sprout_ray.pipelines.analytics as A

        t = A.media_audio_neardup("unused").to_pandas()
        assert len(t) == 12 and t["is_planted"].all()
        assert (t["n_planted_found"] == t["n_planted_total"]).all()
