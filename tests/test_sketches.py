"""Extension-sketch bound tests (FIXTURES.md F3): HLL / CMS / t-digest / KLL
estimates within published error bounds vs exact answers, and merge algebra."""

import math
import random

import numpy as np
import pytest

from sprout_ray.kernel import (
    CountMinSketch,
    HyperLogLog,
    KLLSketch,
    SketchSpec,
    TDigest,
)


def _rand_keys(n, seed, card):
    rng = random.Random(seed)
    return [f"key-{rng.randrange(card)}".encode() for _ in range(n)]


class TestHLL:
    def test_estimate_within_bound(self):
        for card in (100, 5_000, 50_000):
            h = HyperLogLog(p=14)
            keys = [f"k-{i}".encode() for i in range(card)]
            h.update_batch(keys)
            rel = abs(h.estimate() - card) / card
            assert rel <= 3 * h.rel_std_error(), (card, h.estimate())

    def test_merge_equals_single_build(self):
        a, b, c = HyperLogLog(12), HyperLogLog(12), HyperLogLog(12)
        whole = HyperLogLog(12)
        k1 = [f"a-{i}".encode() for i in range(3000)]
        k2 = [f"b-{i}".encode() for i in range(2000)]
        k3 = [f"c-{i}".encode() for i in range(1000)]
        a.update_batch(k1)
        b.update_batch(k2)
        c.update_batch(k3)
        whole.update_batch(k1 + k2 + k3)
        # (a+b)+c vs a+(b+c): max is associative => identical registers
        ab_c = HyperLogLog.from_bytes(a.to_bytes())
        ab_c.merge(b)
        ab_c.merge(c)
        bc = HyperLogLog.from_bytes(b.to_bytes())
        bc.merge(c)
        a_bc = HyperLogLog.from_bytes(a.to_bytes())
        a_bc.merge(bc)
        assert (ab_c.registers == a_bc.registers).all()
        assert (ab_c.registers == whole.registers).all()

    def test_duplicates_idempotent(self):
        h = HyperLogLog(p=12)
        keys = [f"k-{i}".encode() for i in range(1000)]
        for _ in range(5):
            h.update_batch(keys)
        rel = abs(h.estimate() - 1000) / 1000
        assert rel <= 3 * h.rel_std_error()

    def test_roundtrip(self):
        h = HyperLogLog(p=10)
        h.update_batch([b"x", b"y"])
        h2 = HyperLogLog.from_bytes(h.to_bytes())
        assert (h.registers == h2.registers).all()
        assert h2.estimate() == h.estimate()


class TestCMS:
    def test_overcount_bound(self):
        eps, delta = 0.001, 0.01
        cms = CountMinSketch(eps=eps, delta=delta)
        rng = random.Random(5)
        # zipf-ish frequencies
        from collections import Counter

        keys = [f"tok-{min(int(rng.paretovariate(1.2)), 500)}" for _ in range(50_000)]
        exact = Counter(keys)
        cms.update_batch([k.encode() for k in keys])
        n = cms.total
        assert n == 50_000
        probes = list(exact.keys())
        est = cms.query_batch([p.encode() for p in probes])
        true = np.array([exact[p] for p in probes])
        # no undercount, ever
        assert (est >= true).all()
        # overcount <= eps*N for >= (1-delta) of probes
        over_ok = (est - true) <= eps * n
        assert over_ok.mean() >= 1 - delta

    def test_weighted_updates(self):
        cms = CountMinSketch(eps=0.01, delta=0.01)
        cms.update_batch([b"a", b"b"], counts=[10, 5])
        assert cms.query(b"a") >= 10
        assert cms.total == 15

    def test_merge_equals_single_build(self):
        a = CountMinSketch(eps=0.01, delta=0.01)
        b = CountMinSketch(eps=0.01, delta=0.01)
        whole = CountMinSketch(eps=0.01, delta=0.01)
        k1 = [f"x-{i % 50}".encode() for i in range(2000)]
        k2 = [f"y-{i % 30}".encode() for i in range(1000)]
        a.update_batch(k1)
        b.update_batch(k2)
        whole.update_batch(k1 + k2)
        a.merge(b)
        assert (a.table == whole.table).all()
        assert a.total == whole.total

    def test_geometry_mismatch(self):
        with pytest.raises(ValueError):
            CountMinSketch(eps=0.01).merge(CountMinSketch(eps=0.001))

    def test_roundtrip(self):
        c = CountMinSketch(eps=0.01, delta=0.05)
        c.update_batch([b"q"] * 7)
        c2 = CountMinSketch.from_bytes(c.to_bytes())
        assert c2.query(b"q") >= 7 and c2.total == 7


class TestTDigest:
    def test_quantiles_lognormal(self):
        rng = np.random.default_rng(42)
        data = rng.lognormal(3.0, 1.0, 100_000)
        td = TDigest(delta=200)
        for chunk in np.array_split(data, 20):
            td.update_batch(chunk)
        exact = np.quantile(data, [0.01, 0.25, 0.5, 0.75, 0.99])
        est = td.quantile([0.01, 0.25, 0.5, 0.75, 0.99])
        # rank-space tolerance: re-rank the estimate in the exact data
        sorted_d = np.sort(data)
        for q, e in zip([0.01, 0.25, 0.5, 0.75, 0.99], est):
            rank = np.searchsorted(sorted_d, e) / len(data)
            assert abs(rank - q) < 0.01, (q, rank)
        assert td.count() == pytest.approx(100_000)

    def test_extremes(self):
        td = TDigest(delta=100)
        td.update_batch(np.arange(1000, dtype=float))
        assert td.quantile(0.0) == pytest.approx(0.0, abs=1.0)
        assert td.quantile(1.0) == pytest.approx(999.0, abs=1.0)

    def test_merge_close_to_single_build(self):
        rng = np.random.default_rng(1)
        d1, d2 = rng.normal(0, 1, 50_000), rng.normal(5, 2, 50_000)
        a, b, whole = TDigest(), TDigest(), TDigest()
        a.update_batch(d1)
        b.update_batch(d2)
        whole.update_batch(np.concatenate([d1, d2]))
        a.merge(b)
        alldata = np.sort(np.concatenate([d1, d2]))
        for q in (0.1, 0.5, 0.9):
            rank = np.searchsorted(alldata, a.quantile(q)) / len(alldata)
            assert abs(rank - q) < 0.01

    def test_roundtrip(self):
        td = TDigest()
        td.update_batch(np.arange(100.0))
        td2 = TDigest.from_bytes(td.to_bytes())
        assert td2.quantile(0.5) == pytest.approx(td.quantile(0.5))


class TestKLL:
    def test_rank_error_bound(self):
        rng = np.random.default_rng(9)
        data = rng.uniform(0, 1000, 200_000)
        s = KLLSketch(k=200, seed=0)
        for chunk in np.array_split(data, 40):
            s.update_batch(chunk)
        assert s.count() == 200_000
        sorted_d = np.sort(data)
        for q in (0.01, 0.1, 0.5, 0.9, 0.99):
            est = s.quantile(q)
            rank = np.searchsorted(sorted_d, est) / len(data)
            assert abs(rank - q) < 0.02, (q, rank)

    def test_merge_within_bound(self):
        rng = np.random.default_rng(2)
        parts = [rng.normal(i, 1, 30_000) for i in range(4)]
        sketches = []
        for i, p in enumerate(parts):
            s = KLLSketch(k=200, seed=i)
            s.update_batch(p)
            sketches.append(s)
        acc = sketches[0]
        for s in sketches[1:]:
            acc.merge(s)
        alldata = np.sort(np.concatenate(parts))
        assert acc.count() == 120_000
        for q in (0.1, 0.5, 0.9):
            rank = np.searchsorted(alldata, acc.quantile(q)) / len(alldata)
            assert abs(rank - q) < 0.025, (q, rank)

    def test_rank_query(self):
        s = KLLSketch(k=200)
        s.update_batch(np.arange(10_000, dtype=float))
        assert abs(s.rank(5000.0) - 0.5) < 0.02

    def test_roundtrip(self):
        s = KLLSketch(k=64, seed=3)
        s.update_batch(np.arange(5000.0))
        s2 = KLLSketch.from_bytes(s.to_bytes())
        assert s2.n == s.n
        assert s2.quantile(0.5) == s.quantile(0.5)


class TestSketchSpec:
    def test_make_and_roundtrip(self):
        for spec, probe in [
            (SketchSpec.of("bloom", 0.01, 1000), b"x"),
            (SketchSpec.of("sbf", 0.01, 100), b"x"),
            (SketchSpec.of("hll", 12), b"x"),
            (SketchSpec.of("cms", 0.01, 0.01), b"x"),
        ]:
            s = spec.make()
            s.update_batch([probe])
            clone = spec.from_bytes(s.to_bytes())
            assert type(clone) is type(s)
        for spec in [SketchSpec.of("tdigest", 100.0), SketchSpec.of("kll", 128)]:
            s = spec.make()
            s.update_batch(np.arange(50.0))
            clone = spec.from_bytes(s.to_bytes())
            assert type(clone) is type(s)

    def test_spec_hashable_and_stable(self):
        a = SketchSpec.of("bloom", 0.01, 1000)
        b = SketchSpec.of("bloom", 0.01, 1000)
        assert a == b and hash(a) == hash(b)


class TestMisraGries:
    """Heavy-hitters summary: deterministic bounds, mergeability, exactness
    below capacity (kernel/misragries.py)."""

    def test_bounds_and_guarantee_zipf(self):
        import numpy as np
        from collections import Counter

        from sprout_ray.kernel.misragries import MisraGries

        rng = np.random.default_rng(7)
        keys = rng.zipf(1.4, 100_000).astype(str)
        true = Counter(keys.tolist())
        mg = MisraGries(m=64)
        for off in range(0, len(keys), 8192):
            mg.update_batch(keys[off : off + 8192])
        assert mg.total == len(keys)
        assert mg.err_bound <= len(keys) // 65 + 1
        for k, lo, hi in mg.topk(20):
            assert lo <= true[k] <= hi
        thr = len(keys) / 65
        for k, c in true.items():
            if c > thr:
                assert k in mg.counts

    def test_merge_matches_bounds_and_is_order_insensitive(self):
        import numpy as np
        from collections import Counter

        from sprout_ray.kernel.misragries import MisraGries

        rng = np.random.default_rng(11)
        keys = rng.zipf(1.3, 60_000).astype(str)
        true = Counter(keys.tolist())
        parts = []
        for off in range(0, len(keys), 10_000):
            p = MisraGries(m=48)
            p.update_batch(keys[off : off + 10_000])
            parts.append(p.to_bytes())
        from sprout_ray.kernel.misragries import MisraGries as MG

        fwd = MG.from_bytes(parts[0])
        for b in parts[1:]:
            fwd.merge(MG.from_bytes(b))
        rev = MG.from_bytes(parts[-1])
        for b in reversed(parts[:-1]):
            rev.merge(MG.from_bytes(b))
        assert fwd.total == rev.total == len(keys)
        for acc in (fwd, rev):
            assert acc.err_bound <= len(keys) // 49 + 1
            for k, lo, hi in acc.topk(10):
                assert lo <= true[k] <= hi

    def test_exact_below_capacity_and_roundtrip(self):
        from sprout_ray.kernel.misragries import MisraGries

        mg = MisraGries(m=16)
        mg.update_batch(["a", "b", "a", "c", "a", "b"])
        assert mg.err_bound == 0
        assert mg.counts == {"a": 3, "b": 2, "c": 1}
        rt = MisraGries.from_bytes(mg.to_bytes())
        assert rt.counts == mg.counts and rt.total == mg.total
        assert rt.query("a") == (3, 3)

    def test_geometry_mismatch_raises(self):
        import pytest as _pytest

        from sprout_ray.kernel.misragries import MisraGries

        a, b = MisraGries(m=8), MisraGries(m=16)
        with _pytest.raises(ValueError):
            a.merge(b)


class TestKMV:
    """Bottom-k distinct sketch: estimate bounds, deterministic merge,
    exact-below-capacity (kernel/kmv.py)."""

    def test_estimate_within_bound(self):
        import numpy as np
        import pyarrow as pa

        from sprout_ray.kernel.kmv import KMVSketch

        rng = np.random.default_rng(3)
        keys = [f"key-{i}" for i in rng.integers(0, 50000, 150_000)]
        true = len(set(keys))
        sk = KMVSketch(k=512)
        for off in range(0, len(keys), 32768):
            sk.update_batch(pa.array(keys[off : off + 32768]))
        assert abs(sk.estimate() - true) / true < 0.15  # ~3/sqrt(k)

    def test_merge_deterministic_and_order_insensitive(self):
        import numpy as np
        import pyarrow as pa

        from sprout_ray.kernel.kmv import KMVSketch

        rng = np.random.default_rng(5)
        keys = [f"k{i}" for i in rng.integers(0, 9000, 40_000)]
        single = KMVSketch(k=256)
        single.update_batch(pa.array(keys))
        parts = []
        for off in range(0, len(keys), 9000):
            p = KMVSketch(k=256)
            p.update_batch(pa.array(keys[off : off + 9000]))
            parts.append(p.to_bytes())
        fwd = KMVSketch.from_bytes(parts[0])
        for b in parts[1:]:
            fwd.merge(KMVSketch.from_bytes(b))
        rev = KMVSketch.from_bytes(parts[-1])
        for b in reversed(parts[:-1]):
            rev.merge(KMVSketch.from_bytes(b))
        assert np.array_equal(fwd.hashes, rev.hashes)
        assert np.array_equal(fwd.hashes, single.hashes)
        assert fwd.keys == single.keys
        assert set(fwd.sample()) <= set(keys)

    def test_exact_below_capacity_roundtrip(self):
        import pyarrow as pa

        from sprout_ray.kernel.kmv import KMVSketch

        sk = KMVSketch(k=64)
        sk.update_batch(pa.array(["x", "y", "x", "z"]))
        assert sk.is_exact() and sk.estimate() == 3.0
        rt = KMVSketch.from_bytes(sk.to_bytes())
        assert sorted(rt.sample()) == ["x", "y", "z"]

    def test_geometry_mismatch_raises(self):
        import pytest as _pytest

        from sprout_ray.kernel.kmv import KMVSketch

        with _pytest.raises(ValueError):
            KMVSketch(k=8).merge(KMVSketch(k=16))

    def test_binary_keys_roundtrip(self):
        """Binary key columns (legal sketch input) must survive
        serialization as bytes — not crash on decode or corrupt (ADVICE)."""
        import pyarrow as pa
        import pytest as _pytest

        from sprout_ray.kernel.kmv import KMVSketch
        from sprout_ray.kernel.misragries import MisraGries

        raw = [b"\xff\xfe-not-utf8", b"\x00binary", b"plain"]
        sk = KMVSketch(k=16)
        sk.update_batch(pa.array(raw, pa.binary()))
        rt = KMVSketch.from_bytes(sk.to_bytes())
        assert sorted(rt.sample()) == sorted(raw)

        mg = MisraGries(m=8)
        mg.counts = {b"\xff\xfe": 3, "text": 2}
        mg.total = 5
        mgr = MisraGries.from_bytes(mg.to_bytes())
        assert mgr.counts == mg.counts

        mg_bad = MisraGries(m=8)
        mg_bad.counts = {42: 1}
        with _pytest.raises(TypeError):
            mg_bad.to_bytes()


class TestAMSF2:
    def _corpus(self, seed=7, n=100_000):
        import numpy as np

        rng = np.random.default_rng(seed)
        return [f"k{int(v)}" for v in rng.zipf(1.5, n)]

    def test_estimate_within_bound_zipf(self):
        """Median-of-d F2 estimate lands within 2*sqrt(8/w) of exact on a
        zipf-skewed corpus (the published CountSketch variance bound with
        a 2x margin)."""
        import math
        from collections import Counter

        import pyarrow as pa

        from sprout_ray.kernel.ams import AMSF2Sketch

        keys = self._corpus()
        exact = sum(c * c for c in Counter(keys).values())
        sk = AMSF2Sketch(w=8192, d=7)
        sk.update_batch(pa.array(keys))
        rel = abs(sk.estimate() - exact) / exact
        assert rel <= 2.0 * math.sqrt(8.0 / 8192)
        assert sk.n == len(keys)

    def test_merge_exact_and_order_insensitive(self):
        """Partials merge to the SAME counters as a single-pass build
        (integer add is exactly associative+commutative), in any order,
        via both merge() and merge_bytes()."""
        import numpy as np
        import pyarrow as pa

        from sprout_ray.kernel.ams import AMSF2Sketch

        keys = pa.array(self._corpus(seed=11, n=40_000))
        one = AMSF2Sketch(w=1024, d=5)
        one.update_batch(keys)
        parts = []
        for i in range(4):
            p = AMSF2Sketch(w=1024, d=5)
            p.update_batch(keys.slice(i * 10_000, 10_000))
            parts.append(p)
        for order in ([0, 1, 2, 3], [3, 1, 0, 2]):
            m = AMSF2Sketch(w=1024, d=5)
            for i in order:
                m.merge(parts[i])
            assert np.array_equal(m.counters, one.counters) and m.n == one.n
        mb = AMSF2Sketch(w=1024, d=5)
        for p in parts:
            mb.merge_bytes(p.to_bytes())
        assert np.array_equal(mb.counters, one.counters) and mb.n == one.n

    def test_point_estimates_hot_keys(self):
        """CountSketch point queries recover hot-key counts within the
        sqrt(4*F2/w) additive band."""
        import math
        from collections import Counter

        import pyarrow as pa

        from sprout_ray.kernel.ams import AMSF2Sketch

        keys = self._corpus(seed=3)
        cnt = Counter(keys)
        f2 = sum(c * c for c in cnt.values())
        sk = AMSF2Sketch(w=8192, d=7)
        sk.update_batch(pa.array(keys))
        hot = [k for k, _ in cnt.most_common(10)]
        est = sk.point_estimate(pa.array(hot))
        band = math.sqrt(4.0 * f2 / 8192)
        for k, e in zip(hot, est):
            assert abs(e - cnt[k]) <= band

    def test_weighted_update_and_roundtrip(self):
        import numpy as np
        import pyarrow as pa
        import pytest as _pytest

        from sprout_ray.kernel.ams import AMSF2Sketch
        from sprout_ray.kernel.sketch import SketchSpec, sketch_from_bytes

        w = AMSF2Sketch(w=64, d=3)
        w.update_batch(pa.array(["a", "b"]), counts=[3, 2])
        r = AMSF2Sketch(w=64, d=3)
        r.update_batch(pa.array(["a"] * 3 + ["b"] * 2))
        assert np.array_equal(w.counters, r.counters) and w.n == r.n == 5

        rt = sketch_from_bytes(w.to_bytes())
        assert np.array_equal(rt.counters, w.counters) and rt.n == w.n
        assert SketchSpec.of("ams", 64, 3).make().w == 64

        with _pytest.raises(ValueError):
            AMSF2Sketch(w=64, d=3).merge(AMSF2Sketch(w=128, d=3))
        with _pytest.raises(ValueError):
            AMSF2Sketch(w=64, d=3).merge_bytes(AMSF2Sketch(w=64, d=4).to_bytes())


class TestCmsInnerProduct:
    def test_never_undercounts_and_bounded(self):
        from sprout_ray.kernel.sketch import SketchSpec

        rng = np.random.default_rng(11)
        spec = SketchSpec.of("cms", 0.001, 0.01)
        a, b = spec.make(), spec.make()
        ka = rng.zipf(1.3, 20_000) % 500
        kb = rng.zipf(1.3, 30_000) % 500
        a.update_batch(ka.astype(np.int64))
        b.update_batch(kb.astype(np.int64))
        fa = np.bincount(ka, minlength=500).astype(object)
        fb = np.bincount(kb, minlength=500).astype(object)
        exact = int((fa * fb).sum())
        est = a.inner_product(b)
        assert est >= exact
        assert est - exact <= 0.001 * len(ka) * len(kb)

    def test_exact_in_collision_free_regime(self):
        """Few distinct keys vs a wide table: every counter is exact, so
        the inner product is the exact join size."""
        from sprout_ray.kernel.sketch import SketchSpec

        spec = SketchSpec.of("cms", 0.0001, 0.01)
        a, b = spec.make(), spec.make()
        a.update_batch(np.array([1, 1, 2, 3], np.int64))
        b.update_batch(np.array([1, 2, 2, 2, 9], np.int64))
        # exact: f_a(1)*f_b(1) + f_a(2)*f_b(2) = 2*1 + 1*3 = 5
        assert a.inner_product(b) == 5

    def test_geometry_mismatch_rejected(self):
        from sprout_ray.kernel.sketch import SketchSpec

        a = SketchSpec.of("cms", 0.001, 0.01).make()
        b = SketchSpec.of("cms", 0.01, 0.01).make()
        with pytest.raises(ValueError, match="geometry"):
            a.inner_product(b)


class TestMomentsSketch:
    """kernel/moments.py — exact mergeable power sums."""

    def _brute(self, vals):
        n = len(vals)
        return (
            n,
            sum(int(v) for v in vals),
            sum(int(v) ** 2 for v in vals),
            sum(int(v) ** 3 for v in vals),
            sum(int(v) ** 4 for v in vals),
        )

    def test_exact_vs_bignum_brute_force(self):
        import numpy as np

        from sprout_ray.kernel.moments import MAXC, MomentsSketch

        rng = np.random.default_rng(7)
        vals = rng.integers(-MAXC, MAXC + 1, size=20000, dtype=np.int64)
        sk = MomentsSketch()
        sk.update_batch(vals)
        n, s1, s2, s3, s4 = self._brute(vals)
        assert (sk.n, sk.s1, sk.s2, sk.s3, sk.s4) == (n, s1, s2, s3, s4)
        assert sk.mn == int(vals.min()) and sk.mx == int(vals.max())

    def test_merge_associative_and_roundtrip(self):
        import numpy as np

        from sprout_ray.kernel.moments import MomentsSketch

        rng = np.random.default_rng(11)
        parts = [
            rng.integers(-55108, 55109, size=rng.integers(1, 5000), dtype=np.int64)
            for _ in range(7)
        ]
        whole = MomentsSketch()
        whole.update_batch(np.concatenate(parts))
        # arbitrary merge tree over per-part sketches
        sks = []
        for p in parts:
            s = MomentsSketch()
            s.update_batch(p)
            sks.append(s)
        left = sks[0]
        for s in sks[1:4]:
            left.merge(s)
        right = sks[4]
        for s in sks[5:]:
            right.merge(s)
        left.merge(right)
        assert left.result() == whole.result()
        # serialization round-trip preserves bignum sums exactly
        from sprout_ray.kernel.moments import MomentsSketch as M

        back = M.from_bytes(left.to_bytes())
        assert back.result() == whole.result()

    def test_range_guard_is_loud(self):
        import numpy as np
        import pytest

        from sprout_ray.kernel.moments import MAXC, MomentsSketch

        sk = MomentsSketch()
        with pytest.raises(ValueError, match="rescale"):
            sk.update_batch(np.array([MAXC + 1], dtype=np.int64))

    def test_limb_double_matches_correct_rounding_here(self):
        """limb_double equals float(int) whenever the limb tree's partial
        sums are exactly representable (always true for v < 2^53 * 2^64
        in one addition chain from exact doubles of limbs <= 2^32)."""
        from sprout_ray.kernel.moments import limb_double, limbs3, unlimbs3

        for v in (0, 1, 2**31, 2**64 + 12345, 55108**4 * 10**6, -(2**70 + 3)):
            assert unlimbs3(*limbs3(v)) == v
        assert limb_double(2**40) == float(2**40)

    def test_derived_stats_match_numpy(self):
        import numpy as np

        from sprout_ray.kernel.moments import MomentsSketch

        rng = np.random.default_rng(3)
        vals = rng.integers(1, 50000, size=4096, dtype=np.int64)
        sk = MomentsSketch()
        sk.update_batch(vals)
        r = sk.result()
        x = vals.astype(np.float64)
        m = x.mean()
        m2 = ((x - m) ** 2).mean()
        m3 = ((x - m) ** 3).mean()
        m4 = ((x - m) ** 4).mean()
        assert abs(r["mean"] - m) < 1e-6 * abs(m)
        assert abs(r["var"] - m2) < 1e-6 * m2
        assert abs(r["skew"] - m3 / m2**1.5) < 1e-6
        assert abs(r["kurt"] - (m4 / m2**2 - 3.0)) < 1e-6


class TestHLLSparseMode:
    """Round-5: sparse-until-dense HLL partials (HLL++ sparse idea).

    Grouped SketchAgg ships one accumulator per (group x block); a
    windowed partial that saw 40 users is ~0.3 KB sparse vs 4 KB dense.
    The contract: registers and estimates are BIT-IDENTICAL to a dense
    build in every mode combination, and the legacy dense wire format
    still loads."""

    def _dense(self, p, keys):
        from sprout_ray.kernel.hll import HyperLogLog

        h = HyperLogLog(p)
        h._densify()
        if keys:
            h.update_batch(keys)
        return h

    def test_sparse_build_matches_dense_exactly(self):
        import numpy as np

        from sprout_ray.kernel.hll import HyperLogLog

        rng = np.random.default_rng(5)
        for p in (4, 12, 14):
            for n in (1, 5, 50, 2000, 40000):
                keys = [f"k{i}" for i in rng.integers(0, n * 3, size=n)]
                a = HyperLogLog(p)
                a.update_batch(keys)
                b = self._dense(p, keys)
                assert (a.registers == b.registers).all(), (p, n)
                assert a.estimate() == b.estimate(), (p, n)

    def test_merge_matrix_and_wire_roundtrip(self):
        import numpy as np

        from sprout_ray.kernel.hll import HyperLogLog

        rng = np.random.default_rng(7)
        parts = [
            [f"u{i}" for i in rng.integers(0, 400, size=30)] for _ in range(6)
        ]
        whole = HyperLogLog(12)
        for pt in parts:
            whole.update_batch(pt)
        acc = HyperLogLog(12)
        for pt in parts:  # sparse x sparse merges
            s = HyperLogLog(12)
            s.update_batch(pt)
            acc.merge(s)
        assert (acc.registers == whole.registers).all()
        big = HyperLogLog(12)  # force-dense side
        big.update_batch([f"x{i}" for i in range(50000)])
        acc.merge(big)
        whole.merge(big)
        assert (acc.registers == whole.registers).all()
        # wire round-trips in both modes + merge_bytes into both modes
        small = HyperLogLog(12)
        small.update_batch([f"u{i}" for i in range(40)])
        assert len(small.to_bytes()) < 400 < 4000 < len(big.to_bytes())
        for src in (small, big):
            back = HyperLogLog.from_bytes(src.to_bytes())
            assert (back.registers == src.registers).all()
            for seed_dense in (False, True):
                tgt = HyperLogLog(12)
                if seed_dense:
                    tgt._densify()
                tgt.merge_bytes(src.to_bytes())
                assert (tgt.registers == src.registers).all()

    def test_grouped_windowed_partials_stay_sparse(self, ray_session):
        """The motivating case: per-window grouped build produces sparse
        accumulators (small pickled payloads) and the same estimates as a
        per-window dense brute force."""
        import numpy as np
        import pyarrow as pa

        import ray.data as rd
        from sprout_ray.kernel.sketch import SketchSpec
        from sprout_ray.stages.builder import build_grouped

        rng = np.random.default_rng(3)
        win = np.repeat(np.arange(50, dtype=np.int64), 40)
        users = np.array(
            [f"u{rng.integers(0, 25)}" for _ in range(len(win))]
        )
        ds = rd.from_arrow(
            pa.table({"w": pa.array(win), "u": pa.array(users)})
        )
        rows = build_grouped(
            ds, SketchSpec.of("hll", 12), on="u", key="w",
            finalizer=lambda s: (float(s.estimate()), s._dense is None),
            alias="r",
        ).take_all()
        assert len(rows) == 50
        for r in rows:
            est, was_sparse = r["r"]
            assert was_sparse  # 25 users << 4096/9 registers
            mask = win == r["w"]
            brute = self._dense(12, list(users[mask]))
            assert est == brute.estimate()


_KINDS = ["ams", "bloom", "cbf", "cms", "fd", "hll", "kll", "kmv", "mg", "moments", "sbf", "tdigest"]


class TestSketchBytesFormat:
    @pytest.mark.parametrize("kind", _KINDS)
    def test_foreign_and_garbled_bytes_refused_by_name(self, kind):
        from sprout_ray.kernel.sketch import SketchFormatError, SketchSpec, sketch_from_bytes

        spec = SketchSpec.of(kind)
        own = spec.make()
        blob = own.to_bytes()
        assert sketch_from_bytes(blob).to_bytes() == blob
        assert spec.from_bytes(blob).to_bytes() == blob
        other = "bloom" if kind == "hll" else "hll"
        foreign = SketchSpec.of(other).make().to_bytes()
        garbled = (7).to_bytes(4, "little") + b"garbage"
        loaders = [spec.from_bytes]
        if hasattr(own, "merge_bytes"):
            loaders.append(own.merge_bytes)
        for load in loaders:
            with pytest.raises(
                SketchFormatError, match=f"expected a serialized '{kind}' sketch, found kind '{other}'"
            ):
                load(foreign)
            with pytest.raises(SketchFormatError, match=f"'{kind}' sketch, found an unreadable header"):
                load(garbled)
        with pytest.raises(SketchFormatError, match="unreadable header"):
            sketch_from_bytes(garbled)
