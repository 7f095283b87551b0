"""Murmur3 x64-128 (h1) parity tests — FIXTURES.md F2 hash vectors.

The reference hash is /root/reference/pkg/murmur/murmur3.go:10-139 (a direct
port of Appleby's MurmurHash3 x64-128 returning h1, with little-endian block
reads). Parity is established two ways:

1. the widely published mmh3 test vector for ("foo", seed 0);
2. frozen vectors for the reference's seed schedule (64 << (i+1)) generated
   once from the scalar port and reviewed against the Go control flow.

Scalar and vectorized implementations are cross-checked exhaustively.
"""

import random

import numpy as np
import pyarrow as pa
import pytest

import sprout_ray.kernel.murmur3 as m3
from sprout_ray.kernel.murmur3 import (
    arrow_to_key_matrix,
    hash_keys,
    murmur3_64,
    murmur3_64_padded,
)

# the reference seed schedule 64 << (i+1), ten seeds wide
SEEDS10 = [64 << (i + 1) for i in range(10)]
# lengths around every block/tail boundary of the 16-byte murmur block
EDGE_LENGTHS = [0, 1, 8, 9, 15, 16, 17, 31, 32, 33]


def scalar(keys, seeds) -> np.ndarray:
    """(len(seeds), n) oracle from the scalar port; None is the empty key."""
    return np.array(
        [[murmur3_64(k or b"", s) for k in keys] for s in seeds], dtype=np.uint64
    )


# mmh3.hash64('foo') == (-2129773440516405919, ...) -> unsigned h1 below
MMH3_FOO_SEED0 = (-2129773440516405919) % (1 << 64)

# frozen from the scalar port; seeds are the reference schedule 64 << (i+1)
FROZEN = {
    (b"", 128): 1243211803749079541,
    (b"foo", 128): 13131447304554272063,
    (b"0", 128): 1996975785572215129,
    (b"a" * 15, 128): 17445658667957033231,
    (b"b" * 16, 128): 16426891803539890761,
    (b"c" * 17, 128): 18426897732682045582,
    (bytes(range(100)), 128): 17714171215657400919,
    (b"", 256): 15712303659086695821,
    (b"foo", 256): 905675755595854813,
    (b"0", 256): 15934592254913241707,
    (b"a" * 15, 256): 15835269885310918732,
    (b"b" * 16, 256): 1967792344793792895,
    (b"c" * 17, 256): 18181463764085085777,
    (bytes(range(100)), 256): 7587445207987261189,
    (b"", 512): 11066669786067540394,
    (b"foo", 512): 14163820847813309487,
    (b"0", 512): 15226837770211201744,
    (b"a" * 15, 512): 258357234988150029,
    (b"b" * 16, 512): 708659160274861853,
    (b"c" * 17, 512): 11986211948907591290,
    (bytes(range(100)), 512): 8185516560976595488,
}


def test_public_vector_foo_seed0():
    assert murmur3_64(b"foo", 0) == MMH3_FOO_SEED0


def test_frozen_vectors_scalar():
    for (key, seed), expect in FROZEN.items():
        assert murmur3_64(key, seed) == expect, (key, seed)


def test_frozen_vectors_vectorized():
    keys = [k for (k, s) in FROZEN if s == 128]
    out = hash_keys(keys, (128, 256, 512))
    for row, seed in zip(out, (128, 256, 512)):
        expect = np.array([FROZEN[(k, seed)] for k in keys], dtype=np.uint64)
        assert (row == expect).all()
        assert (hash_keys(keys, [seed])[0] == expect).all()


@pytest.mark.parametrize("seed", [0, 1, 128, 256, 512, 2**31])
def test_scalar_vs_vectorized_random(seed):
    rng = random.Random(7)
    keys = [bytes(rng.randrange(256) for _ in range(rng.randrange(0, 130))) for _ in range(300)]
    keys += [b"", b"x"]
    vec = hash_keys(keys, [seed])
    assert vec.shape == (1, len(keys))
    assert (vec == scalar(keys, [seed])).all()
    # the multi-seed traversal agrees row by row
    assert (hash_keys(keys, [seed] + SEEDS10) == scalar(keys, [seed] + SEEDS10)).all()


@pytest.mark.parametrize(
    "arr_type",
    [
        pa.string(),
        pa.large_string(),
        pa.binary(),
        pa.large_binary(),
        pa.dictionary(pa.int32(), pa.string()),
    ],
)
def test_arrow_zero_copy_path(arr_type):
    vals = ["", "foo", "0", "a" * 15, "b" * 16, "c" * 17, "zed" * 40]
    vals += ["k" * n for n in EDGE_LENGTHS] + [None]
    if "binary" in str(arr_type):
        arr = pa.array([v and v.encode() for v in vals], type=arr_type)
    elif pa.types.is_dictionary(arr_type):
        arr = pa.array(vals, pa.string()).dictionary_encode()
    else:
        arr = pa.array(vals, type=arr_type)
    keys = [v and v.encode() for v in vals]
    mat, lengths = arrow_to_key_matrix(arr)
    out = murmur3_64_padded(mat, lengths, 128)
    assert (out == scalar(keys, [128])[0]).all()
    assert (hash_keys(arr, [128]) == scalar(keys, [128])).all()
    assert (hash_keys(arr, SEEDS10) == scalar(keys, SEEDS10)).all()


def test_arrow_sliced_and_chunked():
    arr = pa.chunked_array([["aa", "bb"], ["cc", "dd" * 9]])
    mat, lengths = arrow_to_key_matrix(arr)
    out = murmur3_64_padded(mat, lengths, 256)
    expect = np.array(
        [murmur3_64(s.encode(), 256) for s in ["aa", "bb", "cc", "dd" * 9]],
        dtype=np.uint64,
    )
    assert (out == expect).all()
    sliced = pa.array(["xx", "yy", "zz"]).slice(1, 2)
    mat, lengths = arrow_to_key_matrix(sliced)
    out = murmur3_64_padded(mat, lengths, 512)
    expect = np.array([murmur3_64(s, 512) for s in [b"yy", b"zz"]], dtype=np.uint64)
    assert (out == expect).all()
    # hash_keys over chunked and offset-sliced arrays (nulls included)
    vals = ["k" * n for n in EDGE_LENGTHS] + [None, "tail"]
    keys = [v and v.encode() for v in vals]
    chunked = pa.chunked_array([vals[:4], vals[4:9], [], vals[9:]])
    assert (hash_keys(chunked, SEEDS10) == scalar(keys, SEEDS10)).all()
    whole = pa.array(["pre", None] + vals, pa.large_string())
    assert (hash_keys(whole.slice(2), SEEDS10) == scalar(keys, SEEDS10)).all()
    assert (hash_keys(whole.slice(5, 4), [7]) == scalar(keys[3:7], [7])).all()
    assert hash_keys(whole.slice(0, 0), SEEDS10).shape == (10, 0)


def test_hash_keys_int_and_sequence_items():
    """Non-string Arrow types and Python ints hash as their decimal string;
    str and bytes-like items as their bytes; other items raise."""
    ints = [0, 5, -12, 10**15, None]
    want = scalar([None if v is None else str(v).encode() for v in ints], SEEDS10)
    assert (hash_keys(pa.array(ints, pa.int64()), SEEDS10) == want).all()
    assert (hash_keys(pa.chunked_array([ints[:2], ints[2:]]), SEEDS10) == want).all()
    seq = [5, np.int64(-12), "5", b"5", bytearray(b"ab"), memoryview(b"cd")]
    want = scalar([b"5", b"-12", b"5", b"5", b"ab", b"cd"], SEEDS10)
    assert (hash_keys(seq, SEEDS10) == want).all()
    assert hash_keys([], SEEDS10).shape == (10, 0)
    for bad in (1.5, None, ("a",)):
        with pytest.raises(TypeError, match=type(bad).__name__):
            hash_keys(["ok", bad], [0])


def test_hash_keys_multi_mb_key():
    """A 2 MB key among edge-length keys: one span under the default
    budget, and split into its own span under a shrunk one."""
    rng = random.Random(11)
    big = rng.randbytes(2 * 1024 * 1024)
    keys = [b"k" * n for n in EDGE_LENGTHS]
    keys = keys[:5] + [big] + keys[5:]
    want = scalar(keys, [0, 128])
    assert (hash_keys(keys, [0, 128]) == want).all()
    old = m3.MAX_MATRIX_BYTES
    try:
        m3.MAX_MATRIX_BYTES = 1 << 20
        assert len(m3.length_bucketed_spans(m3.byte_lengths(pa.array(keys)))) == 3
        assert (hash_keys(pa.array(keys, pa.binary()), [0, 128]) == want).all()
    finally:
        m3.MAX_MATRIX_BYTES = old


def test_length_bucketed_spans_budget_and_order():
    import numpy as np

    from sprout_ray.kernel.murmur3 import length_bucketed_spans

    # one 8 MB outlier among 10k small keys: it must get (nearly) its own span
    lengths = np.full(10_001, 20, dtype=np.int64)
    lengths[5_000] = 8 * 1024 * 1024
    old = m3.MAX_MATRIX_BYTES
    try:
        m3.MAX_MATRIX_BYTES = 64 * 1024 * 1024
        spans = length_bucketed_spans(lengths)
    finally:
        m3.MAX_MATRIX_BYTES = old
    # spans are order-preserving and partition the index range
    assert spans[0][0] == 0 and spans[-1][1] == 10_001
    for (a, b), (c, d) in zip(spans, spans[1:]):
        assert b == c
    # every span's padded matrix respects the budget (single-key spans may
    # equal the key's own padded width)
    for a, b in spans:
        w = int((lengths[a:b].max() // 16 + 1) * 16)
        assert (b - a) * w <= 64 * 1024 * 1024 or b - a == 1
    # the outlier does NOT share a span with thousands of small keys
    for a, b in spans:
        if a <= 5_000 < b:
            assert b - a <= 8


def test_length_bucketed_hashing_matches_direct():
    import numpy as np
    import pyarrow as pa

    from sprout_ray.functions.hashing import murmur_column
    from sprout_ray.kernel.murmur3 import (
        arrow_to_key_matrix,
        murmur3_64_padded,
    )

    rng = np.random.default_rng(3)
    keys = ["x" * int(n) for n in rng.integers(0, 3000, 500)]
    keys[123] = "y" * 500_000  # forces a span split under a tiny budget
    arr = pa.array(keys)
    direct = murmur3_64_padded(*arrow_to_key_matrix(arr), 0)
    import sprout_ray.kernel.murmur3 as m3

    old = m3.MAX_MATRIX_BYTES
    try:
        m3.MAX_MATRIX_BYTES = 1 << 20
        spanned = murmur_column(arr, 0)
    finally:
        m3.MAX_MATRIX_BYTES = old
    assert np.array_equal(direct, spanned)


def _budget_cases():
    from sprout_ray.kernel import (
        BloomFilter,
        CountMinSketch,
        HyperLogLog,
        KMVSketch,
        ScalableBloomFilter,
        SketchSpec,
    )
    from sprout_ray.kernel.ams import AMSF2Sketch
    from sprout_ray.kernel.counting_bloom import CountingBloomFilter
    from sprout_ray.stages.agg import SketchAgg

    def built(sk):
        sk.update_batch([f"key-{i}" for i in range(0, 4_000, 2)])
        return sk

    def agg(spec):
        return lambda arr: SketchAgg(spec, on="k").aggregate_block(
            pa.table({"k": arr})
        ).to_bytes()

    def updated(make):
        def run(arr):
            sk = make()
            sk.update_batch(arr)
            return sk.to_bytes()

        return run

    return {
        "bloom_add": updated(lambda: BloomFilter(0.01, 4_000)),
        "bloom_contains": lambda arr: built(BloomFilter(0.01, 4_000)).contains_batch(arr),
        "sbf_add": updated(lambda: ScalableBloomFilter(0.01, 500)),
        "sbf_contains": lambda arr: built(ScalableBloomFilter(0.01, 500)).contains_batch(arr),
        "cbf_add": updated(lambda: CountingBloomFilter(0.01, 4_000)),
        "cbf_contains": lambda arr: built(CountingBloomFilter(0.01, 4_000)).contains_batch(arr),
        "hll": updated(lambda: HyperLogLog(12)),
        "cms_update": updated(lambda: CountMinSketch(0.001, 0.01)),
        "cms_query": lambda arr: built(CountMinSketch(0.001, 0.01)).query_batch(arr),
        "cms_collision_free": lambda arr: CountMinSketch(0.01, 0.01).collision_free(arr),
        "ams": updated(lambda: AMSF2Sketch(256, 5)),
        "kmv": updated(lambda: KMVSketch(64)),
        "sketchagg_hll": agg(SketchSpec.of("hll", 12)),
        "sketchagg_bloom": agg(SketchSpec.of("bloom", 0.01, 4_000)),
        "sketchagg_cms": agg(SketchSpec.of("cms", 0.001, 0.01)),
    }


@pytest.mark.parametrize("case", sorted(_budget_cases()))
def test_hashing_respects_matrix_budget(monkeypatch, case):
    """Every public hashing method — and SketchAgg's per-block update —
    hashes through hash_keys, so one ~100 kB key among 2k short ones never
    widens a padded key matrix (2k x 100 kB = 200 MB) past the byte budget,
    and the result equals an unbudgeted build. In-process, no Ray workers."""
    run = _budget_cases()[case]
    keys = [f"key-{i}" for i in range(2_000)]
    keys[1_000] = "x" * 100_000
    arr = pa.array(keys)
    with monkeypatch.context() as unbudgeted:
        unbudgeted.setattr(m3, "MAX_MATRIX_BYTES", 1 << 40)
        want = run(arr)  # the whole batch in one 200 MB matrix

    budget = 1 << 20
    widths = []
    orig = m3.arrow_to_key_matrix

    def recording(a):
        mat, lengths = orig(a)
        widths.append(mat.nbytes)
        return mat, lengths

    monkeypatch.setattr(m3, "arrow_to_key_matrix", recording)
    monkeypatch.setattr(m3, "MAX_MATRIX_BYTES", budget)
    got = run(arr)
    assert widths and max(widths) <= budget
    assert len(widths) >= 3  # the long key hashed in a span of its own
    if isinstance(want, bytes):
        assert got == want
    else:
        assert np.array_equal(got, want)
