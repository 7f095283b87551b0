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

from sprout_ray.kernel.murmur3 import (
    arrow_to_key_matrix,
    murmur3_64,
    murmur3_64_batch,
    murmur3_64_padded,
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
    for seed in (128, 256, 512):
        keys = [k for (k, s) in FROZEN if s == seed]
        out = murmur3_64_batch(keys, seed)
        expect = np.array([FROZEN[(k, seed)] for k in keys], dtype=np.uint64)
        assert (out == expect).all()


@pytest.mark.parametrize("seed", [0, 1, 128, 256, 512, 2**31])
def test_scalar_vs_vectorized_random(seed):
    rng = random.Random(7)
    keys = [bytes(rng.randrange(256) for _ in range(rng.randrange(0, 130))) for _ in range(300)]
    keys += [b"", b"x"]
    vec = murmur3_64_batch(keys, seed)
    sca = np.array([murmur3_64(k, seed) for k in keys], dtype=np.uint64)
    assert (vec == sca).all()


@pytest.mark.parametrize(
    "arr_type", [pa.string(), pa.large_string(), pa.binary(), pa.large_binary()]
)
def test_arrow_zero_copy_path(arr_type):
    vals = ["", "foo", "0", "a" * 15, "b" * 16, "c" * 17, "zed" * 40]
    if "binary" in str(arr_type):
        arr = pa.array([v.encode() for v in vals], type=arr_type)
    else:
        arr = pa.array(vals, type=arr_type)
    mat, lengths = arrow_to_key_matrix(arr)
    out = murmur3_64_padded(mat, lengths, 128)
    expect = np.array([murmur3_64(v.encode(), 128) for v in vals], dtype=np.uint64)
    assert (out == expect).all()


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


def test_length_bucketed_spans_budget_and_order():
    import numpy as np

    from sprout_ray.kernel.murmur3 import length_bucketed_spans

    # one 8 MB outlier among 10k small keys: it must get (nearly) its own span
    lengths = np.full(10_001, 20, dtype=np.int64)
    lengths[5_000] = 8 * 1024 * 1024
    spans = length_bucketed_spans(lengths, budget=64 * 1024 * 1024)
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


@pytest.mark.parametrize("kind", ["hll", "bloom", "cms"])
def test_sketchagg_block_respects_matrix_budget(monkeypatch, kind):
    """SketchAgg's per-block update is the build leaf's update_chunked: one
    ~100 kB key among 2k short ones must not widen the whole block's padded
    key matrix (2k x 100 kB = 190 MB) past the byte budget. In-process, no
    Ray workers."""
    import sprout_ray.kernel.bloom as bloom_mod
    import sprout_ray.kernel.murmur3 as m3
    from sprout_ray.kernel import SketchSpec
    from sprout_ray.stages.agg import SketchAgg
    from sprout_ray.stages.builder import update_chunked

    budget = 1 << 20
    spec = {
        "hll": SketchSpec.of("hll", 12),
        "bloom": SketchSpec.of("bloom", 0.01, 4_000),
        "cms": SketchSpec.of("cms", 0.001, 0.01),
    }[kind]
    keys = [f"key-{i}" for i in range(2_000)]
    keys[1_000] = "x" * 100_000
    table = pa.table({"k": keys})

    widths = []
    orig = bloom_mod.arrow_to_key_matrix

    def recording(arr):
        mat, lengths = orig(arr)
        widths.append(mat.nbytes)
        return mat, lengths

    monkeypatch.setattr(bloom_mod, "arrow_to_key_matrix", recording)
    monkeypatch.setattr(m3, "MAX_MATRIX_BYTES", budget)
    got = SketchAgg(spec, on="k").aggregate_block(table)
    assert widths and max(widths) <= budget
    want = spec.make()
    update_chunked(want, spec.kind, table["k"])
    assert got.to_bytes() == want.to_bytes()
