"""BloomFilter reference-semantics tests (FIXTURES.md F2/F3).

Mirrors /root/reference/bloom_test.go behaviors: add/count (34-74), capacity
breach (76-98), merge geometry + union (126-198), clear (326-372); parameter
derivation per bloom.go:100-109.
"""

import math
import random

import numpy as np
import pytest

from sprout_ray.kernel import (
    BloomCapacityError,
    BloomFilter,
    BloomMergeError,
    derive_params,
)


def test_params_match_reference_formulas():
    # bloom.go:100: k = ceil(log2(1/err)); bloom.go:106: M = n*|ln e|/ln2^2
    k, M, m, seeds = derive_params(0.001, 2_000_000)
    assert k == 10
    assert M == int(2_000_000 * abs(math.log(0.001)) / math.log(2) ** 2)
    assert m == M // 10
    assert seeds == [64 << (i + 1) for i in range(10)]
    k7, _, _, _ = derive_params(0.01, 1000)
    assert k7 == 7


def test_storage_size_anchor():
    # readme.md:15: 2M-capacity / 0.001 filter ~3.4 MB
    bf = BloomFilter(err_rate=0.001, capacity=2_000_000)
    assert 3.3e6 < bf.bit_width < 3.7e6


def test_basic_add_contains_count():
    bf = BloomFilter(err_rate=0.01, capacity=1000)
    bf.add(b"foo")
    assert bf.contains(b"foo")
    assert bf.count == 1


def test_count_100k():
    bf = BloomFilter(err_rate=0.01, capacity=110_000)
    keys = [i.to_bytes(4, "little") for i in range(100_000)]
    bf.add_batch(keys)
    assert bf.count == 100_000
    assert bf.contains_batch(keys[:1000]).all()


def test_capacity_breach_raises():
    bf = BloomFilter(err_rate=0.01, capacity=1000)
    bf.add_batch([str(i).encode() for i in range(1000)])
    with pytest.raises(BloomCapacityError):
        bf.add(b"one-more")
    # keys up to the boundary in a crossing batch ARE added first
    bf2 = BloomFilter(err_rate=0.01, capacity=1000)
    with pytest.raises(BloomCapacityError):
        bf2.add_batch([str(i).encode() for i in range(1500)])
    assert bf2.count == 1000
    assert bf2.contains(b"999")


def test_merge_geometry_mismatch_raises():
    a = BloomFilter(err_rate=0.01, capacity=1000)
    b = BloomFilter(err_rate=0.01, capacity=10_000)
    with pytest.raises(BloomMergeError):
        a.merge(b)


def test_merge_union_membership():
    a = BloomFilter(err_rate=0.01, capacity=1000)
    b = BloomFilter(err_rate=0.01, capacity=1000)
    b.add(b"foo")
    a.add(b"bar")
    a.merge(b)
    assert a.contains(b"foo") and a.contains(b"bar")


def test_merge_associative_commutative_bitwise():
    rng = random.Random(7)
    sets = [
        [bytes(rng.randrange(256) for _ in range(12)) for _ in range(200)]
        for _ in range(3)
    ]

    def build(keysets):
        acc = BloomFilter(err_rate=0.01, capacity=1000)
        for ks in keysets:
            p = BloomFilter(err_rate=0.01, capacity=1000)
            p.add_batch(ks)
            acc.merge(p)
        return acc

    ab_c = build([sets[0], sets[1], sets[2]])
    ba_c = build([sets[1], sets[0], sets[2]])
    c_ab = build([sets[2], sets[0], sets[1]])
    assert (ab_c.bits == ba_c.bits).all()
    assert (ab_c.bits == c_ab.bits).all()
    assert ab_c.count == 600


def test_clear():
    bf = BloomFilter(err_rate=0.01, capacity=1000)
    bf.add_batch([b"foo", b"baz", b"bar"])
    bf.clear()
    assert bf.count == 0
    assert not bf.contains(b"foo")
    bf.add(b"foo")
    assert bf.contains(b"foo")


def test_no_false_negatives():
    rng = random.Random(7)
    keys = list({bytes(rng.randrange(256) for _ in range(16)) for _ in range(10_000)})
    bf = BloomFilter(err_rate=0.01, capacity=11_000)
    bf.add_batch(keys)
    assert bf.contains_batch(keys).all()


@pytest.mark.parametrize("eps", [0.01, 0.001])
def test_empirical_fpr(eps):
    rng = random.Random(11)
    n_build, n_probe = 10_000, 100_000
    build = [f"in-{i}".encode() for i in range(n_build)]
    probe = [f"out-{i}".encode() for i in range(n_probe)]
    bf = BloomFilter(err_rate=eps, capacity=n_build)
    bf.add_batch(build)
    fp = int(bf.contains_batch(probe).sum())
    fpr = fp / n_probe
    slack = 3 * math.sqrt(eps / n_probe)
    assert fpr <= eps + slack, (fpr, eps)


def test_serialize_roundtrip():
    bf = BloomFilter(err_rate=0.01, capacity=1000)
    bf.add_batch([b"foo", b"bar"])
    clone = BloomFilter.from_bytes(bf.to_bytes())
    assert clone.count == 2
    assert clone.contains(b"foo") and clone.contains(b"bar")
    assert (clone.bits == bf.bits).all()
    # unlike the reference (bloom.go:130-160 never restores count), count
    # round-trips — required for resume correctness
    assert clone.stats() == bf.stats()


def test_sparse_partial_format_and_equivalence():
    """Per-block partials of big filters serialize as a sparse index dump
    (no dense bitmap ever allocated); merging sparse partials yields bits
    identical to one dense build over the same keys."""
    cap = 2_000_000  # big enough that a small add stays under break-even
    keys_a = [f"a-{i}".encode() for i in range(5_000)]
    keys_b = [f"b-{i}".encode() for i in range(5_000)]

    pa_ = BloomFilter(err_rate=0.001, capacity=cap)
    pa_.add_batch(keys_a)
    assert pa_.is_sparse()  # no dense array at the leaf
    blob = pa_.to_bytes()
    assert len(blob) < pa_.bit_width // 2  # index dump, not a bitmap

    pb = BloomFilter(err_rate=0.001, capacity=cap)
    pb.add_batch(keys_b)

    merged = BloomFilter.from_bytes(blob)
    merged.merge(BloomFilter.from_bytes(pb.to_bytes()))
    assert merged.count == 10_000

    dense = BloomFilter(err_rate=0.001, capacity=cap)
    dense.add_batch(keys_a)
    dense.add_batch(keys_b)
    assert (merged.bits == dense.bits).all()  # .bits densifies both
    assert merged.contains_batch(keys_a + keys_b).all()

    # probing densifies in place; a later to_bytes is the dense format
    clone = BloomFilter.from_bytes(merged.to_bytes())
    assert (clone.bits == dense.bits).all()


def test_sparse_densifies_past_break_even():
    bf = BloomFilter(err_rate=0.01, capacity=100)  # tiny bitmap
    bf.add_batch([f"k{i}".encode() for i in range(90)])
    assert not bf.is_sparse()  # index dump would outweigh the bitmap
    assert bf.contains(b"k0")


def test_stats():
    bf = BloomFilter(err_rate=0.01, capacity=1000)
    bf.add(b"x")
    s = bf.stats()
    assert s.capacity == 1000 and s.count == 1 and s.k == 7
    assert s.size == bf.bit_width and s.prob == 0.01


def test_validation():
    with pytest.raises(ValueError):
        BloomFilter(err_rate=0.0, capacity=100)
    with pytest.raises(ValueError):
        BloomFilter(err_rate=1.5, capacity=100)
    with pytest.raises(ValueError):
        BloomFilter(err_rate=0.01, capacity=10)


def test_arrow_input():
    import pyarrow as pa

    bf = BloomFilter(err_rate=0.01, capacity=1000)
    bf.add_batch(pa.array(["a", "b", "c"]))
    res = bf.contains_batch(pa.array(["a", "zzz"]))
    assert res[0]
    assert bf.count == 3


def test_approx_cardinality_counts_distinct():
    """Fill-ratio estimate (Swamidass-Baldi) counts DISTINCT adds: dups set
    the same bits. 1%-level accuracy at moderate fill."""
    bf = BloomFilter(err_rate=0.01, capacity=50_000)
    bf.add_batch([f"user-{i}" for i in range(20_000)] * 2)  # 40k adds, 20k distinct
    est = bf.approx_cardinality()
    assert abs(est - 20_000) / 20_000 < 0.01
    assert bf.count == 40_000  # add-count semantics untouched


def test_approx_cardinality_set_algebra():
    """Union via bit-OR merge; intersection via inclusion-exclusion.
    Planted 20k/15k sets with 5k overlap -> union 30k, intersection 5k."""
    a = BloomFilter(err_rate=0.01, capacity=50_000)
    b = BloomFilter(err_rate=0.01, capacity=50_000)
    a.add_batch([f"user-{i}" for i in range(20_000)])
    b.add_batch([f"user-{i}" for i in range(15_000, 30_000)])
    ea, eb = a.approx_cardinality(), b.approx_cardinality()
    a.merge(b)
    eu = a.approx_cardinality()
    ei = ea + eb - eu
    assert abs(eu - 30_000) / 30_000 < 0.01
    assert abs(ei - 5_000) <= 0.02 * 30_000  # abs err vs union scale


def test_approx_cardinality_edges():
    bf = BloomFilter(err_rate=0.01, capacity=1000)
    assert bf.approx_cardinality() == 0.0
    bf.bits = np.full(bf.bit_width, 0xFF, dtype=np.uint8)  # saturate
    assert bf.approx_cardinality() == float("inf")


class TestCountingBloomFilter:
    """kernel/counting_bloom.py — the delete-capable bloom family member."""

    def test_no_false_negatives_and_exact_delete(self):
        import numpy as np

        from sprout_ray.kernel.counting_bloom import CountingBloomFilter

        keys = [f"k{i}".encode() for i in range(8000)]
        cbf = CountingBloomFilter(0.001, 20_000)
        cbf.add_batch(keys)
        assert cbf.contains_batch(keys).all()  # never a false negative
        cbf.remove_batch(keys[:3000])
        cbf.validate()
        assert cbf.contains_batch(keys[3000:]).all()  # survivors stay in
        # removed keys may keep colliding slots warm, but the FP rate is
        # bounded by the bloom geometry — at this load it is tiny
        assert cbf.contains_batch(keys[:3000]).mean() < 0.05
        assert cbf.count == 5000

    def test_signed_partial_merge_is_order_free(self):
        import numpy as np

        from sprout_ray.kernel.counting_bloom import CountingBloomFilter

        keys = [f"u{i}".encode() for i in range(1000)]
        # partition A holds only deletes for keys added in partition B
        a = CountingBloomFilter(0.01, 5000)
        b = CountingBloomFilter(0.01, 5000)
        a.remove_batch(keys[:400])
        b.add_batch(keys)
        for first, second in ((a, b), (b, a)):
            m = CountingBloomFilter.from_bytes(first.to_bytes())
            m.merge(CountingBloomFilter.from_bytes(second.to_bytes()))
            m.validate()
            assert m.count == 600
            assert m.contains_batch(keys[400:]).all()

    def test_validate_certifies_contract_violation(self):
        import pytest

        from sprout_ray.kernel.counting_bloom import CountingBloomFilter

        cbf = CountingBloomFilter(0.01, 100)
        cbf.add_batch([b"present"])
        cbf.remove_batch([b"never-added"])
        with pytest.raises(ValueError, match="never added"):
            cbf.validate()

    def test_capacity_guard_and_geometry_match(self):
        import pytest

        from sprout_ray.kernel.bloom import BloomCapacityError, derive_params
        from sprout_ray.kernel.counting_bloom import CountingBloomFilter

        cbf = CountingBloomFilter(0.001, 10)
        with pytest.raises(BloomCapacityError):
            cbf.add_batch([str(i).encode() for i in range(11)])
        k, _, m, seeds = derive_params(0.001, 10)
        assert (cbf.k, cbf.m, cbf.seeds) == (k, m, seeds)
        other = CountingBloomFilter(0.001, 99)
        with pytest.raises(ValueError, match="geometry"):
            cbf.merge(other)

    def test_roundtrip_sparse_and_dense(self):
        import numpy as np

        from sprout_ray.kernel.counting_bloom import CountingBloomFilter

        sparse = CountingBloomFilter(0.001, 100_000)
        sparse.add_batch([b"a", b"b"])
        rt = CountingBloomFilter.from_bytes(sparse.to_bytes())
        assert (rt.counts == sparse.counts).all() and rt.count == 2
        dense = CountingBloomFilter(0.01, 2000)
        dense.add_batch([str(i).encode() for i in range(2000)])
        rt2 = CountingBloomFilter.from_bytes(dense.to_bytes())
        assert (rt2.counts == dense.counts).all() and rt2.count == 2000


def test_int_keys_hash_as_decimal_strings():
    """An int key is its decimal string (the build path's convention), not
    int-many zero bytes; a Python int item and an int64 Arrow column agree."""
    import pyarrow as pa

    a, b, c = (BloomFilter(err_rate=0.01, capacity=100) for _ in range(3))
    a.add(5)
    b.add("5")
    c.add_batch(pa.array([5]))
    assert a.to_bytes() == b.to_bytes() == c.to_bytes()
    assert a.contains("5") and a.contains(b"5") and a.contains(5)
    assert not a.contains(b"\x00" * 5)
    with pytest.raises(TypeError, match="float"):
        a.add(1.5)
    assert a.count == 1
