"""Benchmark decontamination (stages/decontam.py): planted-overlap
correctness, plan equivalence (broadcast vs distributed join), and the
gram-fingerprint kernel's boundary behavior."""

import collections

import numpy as np
import pyarrow as pa
import pytest

from sprout_ray.stages.decontam import (
    contamination_counts,
    decontaminate,
    word_gram_fingerprints,
)


def _gram_sets(texts, n):
    """Python-set reference: distinct word-n-gram tuples per doc."""
    out = []
    for t in texts:
        toks = (t or "").split(" ")
        out.append(
            {tuple(toks[i : i + n]) for i in range(len(toks) - n + 1)}
        )
    return out


class TestWordGramFingerprints:
    def test_counts_match_set_reference(self):
        texts = [
            "the quick brown fox jumps over the lazy dog",
            "pack my box with five dozen liquor jugs",
            "a a a a a",  # one distinct 3-gram
            "x y",  # too short
            "",
            None,
        ]
        d, g1, g2 = word_gram_fingerprints(pa.array(texts), 3)
        want = {i: len(s) for i, s in enumerate(_gram_sets(texts, 3)) if s}
        assert dict(collections.Counter(d.tolist())) == want

    def test_equal_sequences_equal_fingerprints(self):
        d, g1, g2 = word_gram_fingerprints(
            pa.array(["m n o p", "z z m n o p"]), 4
        )
        s0 = set(zip(g1[d == 0].tolist(), g2[d == 0].tolist()))
        s1 = set(zip(g1[d == 1].tolist(), g2[d == 1].tolist()))
        assert s0 < s1 and len(s0) == 1 and len(s1) == 3

    def test_no_cross_doc_windows(self):
        # "c d | e f" must not produce gram (d, e)
        d, g1, g2 = word_gram_fingerprints(pa.array(["c d", "e f", "d e"]), 2)
        cross = set(zip(g1[d == 2].tolist(), g2[d == 2].tolist()))
        others = set(zip(g1[d != 2].tolist(), g2[d != 2].tolist()))
        assert not (cross & others)

    def test_all_docs_too_short(self):
        d, g1, g2 = word_gram_fingerprints(pa.array(["a", "b"]), 5)
        assert d.size == 0 and g1.size == 0


@pytest.fixture(scope="module")
def planted(ray_session):
    """10 corpus docs, 2 bench docs; docs 0/3/7 share known grams."""
    import ray.data as rd

    bench_texts = [
        "alpha beta gamma delta epsilon zeta",
        "one two three four five six seven",
    ]
    corpus_texts = [
        "xx alpha beta gamma delta yy",  # shares 3 4-grams w/ bench0? no: 1
        "nothing in common here at all",
        "unrelated words flow through this doc",
        "one two three four qq five six seven",  # 1 + 1 grams
        "totally clean document body text",
        "another clean body of words",
        "clean as a whistle entirely",
        "alpha beta gamma delta epsilon zeta",  # full overlap: 3 grams
        "no overlap to be found",
        "still nothing shared anywhere",
    ]
    corpus = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(10), pa.int64()),
                "text": pa.array(corpus_texts),
            }
        )
    )
    bench = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([100, 101], pa.int64()),
                "text": pa.array(bench_texts),
            }
        )
    )
    # reference answer from python sets
    bgrams = set().union(*_gram_sets(bench_texts, 4))
    want = {
        i: len(s & bgrams)
        for i, s in enumerate(_gram_sets(corpus_texts, 4))
        if s & bgrams
    }
    return corpus, bench, want


class TestContamination:
    def test_counts_match_reference(self, planted):
        corpus, bench, want = planted
        got = contamination_counts(corpus, bench, n=4).to_pandas()
        assert dict(zip(got["doc_id"], got["shared_grams"])) == want
        assert got["doc_id"].is_monotonic_increasing

    def test_both_join_plans_identical(self, planted, monkeypatch):
        import sprout_ray.stages.joins as J

        corpus, bench, want = planted
        a = contamination_counts(corpus, bench, n=4).to_pandas()
        monkeypatch.setattr(J, "DIM_BROADCAST_MAX", 0)  # force the hash join
        b = contamination_counts(corpus, bench, n=4).to_pandas()
        assert a.values.tolist() == b.values.tolist()

    def test_decontaminate_both_paths(self, planted, monkeypatch):
        import sprout_ray.stages.joins as J

        corpus, bench, want = planted
        clean = decontaminate(corpus, bench, n=4).to_pandas()
        assert sorted(clean["doc_id"]) == [
            i for i in range(10) if i not in want
        ]
        monkeypatch.setattr(J, "DIM_BROADCAST_MAX", 0)  # force the joins
        clean2 = decontaminate(corpus, bench, n=4).to_pandas()
        assert sorted(clean2["doc_id"].tolist()) == sorted(
            clean["doc_id"].tolist()
        )
        assert set(clean2.columns) == {"doc_id", "text"}

    def test_min_shared_threshold(self, planted):
        corpus, bench, want = planted
        hi = max(want.values())
        clean = decontaminate(corpus, bench, n=4, min_shared=hi + 1)
        assert clean.count() == 10  # nothing reaches the bar

    def test_empty_benchmark(self, planted):
        import ray.data as rd

        corpus, _, _ = planted
        bench = rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "text": pa.array([], pa.string()),
                }
            )
        )
        got = contamination_counts(corpus, bench, n=4)
        assert got.count() == 0
        assert [f.name for f in got.schema().base_schema] == [
            "doc_id",
            "shared_grams",
        ]


class TestIncrementalDedup:
    @pytest.fixture(scope="class")
    def shards(self, ray_session):
        import ray.data as rd

        old_texts = [f"old document body number {i}" for i in range(40)]
        new_texts = [f"genuinely new doc {i}" for i in range(10)]
        dup_texts = [old_texts[i] for i in (3, 7, 21)]  # must be dropped
        old = rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(range(40), pa.int64()),
                    "text": pa.array(old_texts),
                }
            )
        ).repartition(3)
        new = rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(range(100, 113), pa.int64()),
                    "text": pa.array(new_texts + dup_texts),
                }
            )
        ).repartition(2)
        return old, new

    def test_drops_seen_keeps_new_both_plans(self, shards, monkeypatch):
        import sprout_ray.stages.joins as J
        from sprout_ray.stages.dedup import incremental_dedup

        old, new = shards
        a = incremental_dedup(new, old).to_pandas()
        assert sorted(a["doc_id"]) == list(range(100, 110))
        assert set(a.columns) == {"doc_id", "text"}
        monkeypatch.setattr(J, "DIM_BROADCAST_MAX", 0)  # force the anti-join
        b = incremental_dedup(new, old).to_pandas()
        assert sorted(b["doc_id"]) == sorted(a["doc_id"].tolist())

    def test_empty_old_passes_everything(self, shards, ray_session):
        import ray.data as rd

        from sprout_ray.stages.dedup import incremental_dedup

        _, new = shards
        empty_old = rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "text": pa.array([], pa.string()),
                }
            )
        )
        out = incremental_dedup(new, empty_old)
        assert out.count() == 13

    def test_all_dup_new_shard_drops_everything(self, shards):
        from sprout_ray.stages.dedup import incremental_dedup

        old, _ = shards
        out = incremental_dedup(old, old)
        assert out.count() == 0

    def test_cross_block_dup_fps_and_actor_pool_gate(self, ray_session):
        """The old corpus carries the SAME text duplicated across many
        blocks (cross-block dup fps — the case the removed global distinct
        shuffle used to normalize); the Bloom probe gate (one task plan for
        every filter size) must drop the seen copies and keep the genuinely
        new docs."""
        import ray.data as rd

        import sprout_ray.stages.dedup as D

        old = rd.from_items(
            [{"doc_id": i, "text": f"shared text {i % 5}"} for i in range(200)]
        ).repartition(16)
        new = rd.from_items(
            [
                {"doc_id": 1000, "text": "genuinely new A"},
                {"doc_id": 1001, "text": "genuinely new B"},
                {"doc_id": 1002, "text": "shared text 0"},
                {"doc_id": 1003, "text": "shared text 4"},
            ]
        )
        kept = sorted(r["doc_id"] for r in D.incremental_dedup(new, old).take_all())
        assert kept == [1000, 1001]


class TestSharedGramDocs:
    def test_planted_pair_flagged(self, ray_session):
        import ray.data as rd

        from sprout_ray.stages.decontam import shared_gram_docs

        uniq = [
            f"u{i}a u{i}b u{i}c u{i}d u{i}e u{i}f u{i}g u{i}h" for i in range(20)
        ]
        dup = "alpha beta gamma delta epsilon zeta eta theta"
        texts = uniq + [dup, dup, "short doc", ""]
        ds = rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts, pa.string()),
                }
            )
        ).repartition(3)
        out = shared_gram_docs(ds, n=6).to_pandas().sort_values("doc_id")
        # only the planted pair is flagged; 8 tokens -> 3 distinct 6-grams
        assert out["doc_id"].tolist() == [20, 21]
        assert out["n_shared"].tolist() == [3, 3]

    def test_clean_corpus_empty_with_schema(self, ray_session):
        import ray.data as rd

        from sprout_ray.stages.decontam import shared_gram_docs

        ds = rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([0, 1], pa.int64()),
                    "text": pa.array(
                        ["one two three four five six", "a b c d e f"],
                        pa.string(),
                    ),
                }
            )
        )
        out = shared_gram_docs(ds, n=6)
        df = out.to_pandas()
        assert len(df) == 0 and list(df.columns) == ["doc_id", "n_shared"]
