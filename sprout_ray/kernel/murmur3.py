"""MurmurHash3 x64-128 (h1 half), matching the reference's hash exactly.

The reference (``/root/reference/pkg/murmur/murmur3.go:10-139``) reimplements
Austin Appleby's public-domain MurmurHash3 x64-128 and returns only ``h1``.
Probe layout parity with the reference requires bit-exact agreement, including
its little-endian 16-byte block reads (murmur3.go:24, an unsafe cast on a
little-endian platform).

Two implementations are provided:

- :func:`murmur3_64` — scalar, pure-Python-int port. The readable reference
  and the test oracle.
- :func:`murmur3_64_padded_multi` — the one vectorized kernel: numpy passes
  over a zero-padded key matrix, every seed in one traversal of the keys.

:func:`hash_keys` is the only way the package hashes keys: it canonicalizes
the input (Arrow arrays zero-copy from their data+offsets buffers, or a
Python sequence), splits it into spans whose padded matrix stays under
``MAX_MATRIX_BYTES`` and runs the vectorized kernel on each span. Both
implementations are cross-checked against each other and against frozen
fixture vectors in ``tests/test_murmur3.py``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_M64 = (1 << 64) - 1

_C1 = 0x87C37B91114253D5
_C2 = 0x4CF5AD432745937F

_NC1 = np.uint64(_C1)
_NC2 = np.uint64(_C2)
_N5 = np.uint64(5)
_NA1 = np.uint64(0x52DCE729)
_NA2 = np.uint64(0x38495AB5)
_FM1 = np.uint64(0xFF51AFD7ED558CCD)
_FM2 = np.uint64(0xC4CEB9FE1A85EC53)
_N33 = np.uint64(33)


def _rotl64(x: int, r: int) -> int:
    return ((x << r) | (x >> (64 - r))) & _M64


def _fmix64(k: int) -> int:
    k ^= k >> 33
    k = (k * 0xFF51AFD7ED558CCD) & _M64
    k ^= k >> 33
    k = (k * 0xC4CEB9FE1A85EC53) & _M64
    k ^= k >> 33
    return k


def murmur3_64(key: bytes, seed: int) -> int:
    """Scalar MurmurHash3 x64-128, h1 half, as an unsigned 64-bit int."""
    length = len(key)
    nblocks = length // 16

    h1 = seed & _M64
    h2 = seed & _M64

    for i in range(nblocks):
        k1 = int.from_bytes(key[i * 16 : i * 16 + 8], "little")
        k2 = int.from_bytes(key[i * 16 + 8 : i * 16 + 16], "little")

        k1 = (k1 * _C1) & _M64
        k1 = _rotl64(k1, 31)
        k1 = (k1 * _C2) & _M64
        h1 ^= k1

        h1 = _rotl64(h1, 27)
        h1 = (h1 + h2) & _M64
        h1 = (h1 * 5 + 0x52DCE729) & _M64

        k2 = (k2 * _C2) & _M64
        k2 = _rotl64(k2, 33)
        k2 = (k2 * _C1) & _M64
        h2 ^= k2

        h2 = _rotl64(h2, 31)
        h2 = (h2 + h1) & _M64
        h2 = (h2 * 5 + 0x38495AB5) & _M64

    tail = key[nblocks * 16 :]
    tlen = len(tail)

    k1 = 0
    k2 = 0
    # bytes 8..14 feed k2 (only applied when tlen >= 9); bytes 0..7 feed k1.
    for j in range(min(tlen, 15) - 1, 7, -1):
        k2 |= tail[j] << (8 * (j - 8))
    if tlen >= 9:
        k2 = (k2 * _C2) & _M64
        k2 = _rotl64(k2, 33)
        k2 = (k2 * _C1) & _M64
        h2 ^= k2
    for j in range(min(tlen, 8) - 1, -1, -1):
        k1 |= tail[j] << (8 * j)
    if tlen >= 1:
        k1 = (k1 * _C1) & _M64
        k1 = _rotl64(k1, 31)
        k1 = (k1 * _C2) & _M64
        h1 ^= k1

    h1 ^= length
    h2 ^= length
    h1 = (h1 + h2) & _M64
    h2 = (h2 + h1) & _M64
    h1 = _fmix64(h1)
    h2 = _fmix64(h2)
    h1 = (h1 + h2) & _M64
    return h1


def _rotl(x: np.ndarray, r: int) -> np.ndarray:
    """64-bit rotate-left, in place (``x`` must be a fresh temporary)."""
    hi = x >> np.uint64(64 - r)
    x <<= np.uint64(r)
    x |= hi
    return x


def _nfmix(k: np.ndarray) -> np.ndarray:
    k = k ^ (k >> _N33)
    k *= _FM1
    k ^= k >> _N33
    k *= _FM2
    k ^= k >> _N33
    return k


def pad_keys(data: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Pack concatenated key bytes into a zero-padded (n, width) uint8 matrix.

    ``width`` is always a multiple of 16 with at least one full zero block
    past the longest key, so 16-byte block reads and 15-byte tail gathers
    never go out of bounds.
    """
    n = len(lengths)
    maxlen = int(lengths.max()) if n else 0
    width = (maxlen // 16 + 1) * 16
    mat = np.zeros((n, width), dtype=np.uint8)
    if n:
        mask = np.arange(width)[None, :] < lengths[:, None]
        mat[mask] = data
    return mat


def murmur3_64_padded_multi(
    mat: np.ndarray, lengths: np.ndarray, seeds
) -> np.ndarray:
    """Vectorized murmur3 h1 for MANY seeds in one traversal -> (n_seeds, n).

    ``mat`` is a (n, width) uint8 key matrix, zero past each key's end,
    with room for every key's tail block (a :func:`pad_keys` matrix, or a
    16-wide matrix of keys shorter than 16 bytes). The per-block k1/k2
    mixing (multiply/rotate/multiply) does not depend on the seed — only
    the h1/h2 chains do — so hashing a key under k seeds shares one pass
    over the key bytes (reference seed schedule 64 << (i+1),
    bloom.go:111-114).
    """
    n = mat.shape[0]
    h1 = np.repeat(np.asarray(seeds, dtype=np.uint64)[:, None], n, axis=1)
    if n == 0:
        return h1
    with np.errstate(over="ignore"):
        blocks = np.ascontiguousarray(mat).view("<u8")
        h2 = h1.copy()
        nblocks = lengths // 16
        full = int(nblocks.min())  # blocks that every key fills
        for i in range(int(nblocks.max())):
            # seed-independent key mixing, once per block
            k1 = _rotl(blocks[:, 2 * i] * _NC1, 31)
            k1 *= _NC2
            k2 = _rotl(blocks[:, 2 * i + 1] * _NC2, 33)
            k2 *= _NC1
            # seed-dependent chains, broadcast over seeds
            nh1 = _rotl(h1 ^ k1, 27)
            nh1 += h2
            nh1 *= _N5
            nh1 += _NA1
            nh2 = _rotl(h2 ^ k2, 31)
            nh2 += nh1
            nh2 *= _N5
            nh2 += _NA2
            if i < full:
                h1, h2 = nh1, nh2
            else:
                active = nblocks > i
                h1 = np.where(active, nh1, h1)
                h2 = np.where(active, nh2, h2)

        # Tail: the bytes past each key's end are zero, so the 16-byte block
        # at the tail offset IS the scalar port's k1 (bytes 0..7) / k2 (bytes
        # 8..14) gather, and a lane the tail does not reach is 0, which mixes
        # to 0 and leaves h unchanged — no length mask needed.
        rows = np.arange(n)
        k1 = _rotl(blocks[rows, 2 * nblocks] * _NC1, 31)
        k1 *= _NC2
        k2 = _rotl(blocks[rows, 2 * nblocks + 1] * _NC2, 33)
        k2 *= _NC1
        h1 ^= k1
        h2 ^= k2

        # NOTE: int64<->uint64 astype is pathologically slow in numpy 1.26
        # (~1us/element, checked-cast path); lengths are non-negative so a
        # zero-copy view is equivalent.
        ln = np.ascontiguousarray(lengths).view(np.uint64)
        h1 ^= ln
        h2 ^= ln
        h1 += h2
        h2 += h1
        h1 = _nfmix(h1)
        h1 += _nfmix(h2)
    return h1


def murmur3_64_padded(
    mat: np.ndarray, lengths: np.ndarray, seed: int
) -> np.ndarray:
    """Single-seed view of :func:`murmur3_64_padded_multi` -> (n,)."""
    return murmur3_64_padded_multi(mat, lengths, (seed,))[0]


def _key_array(arr) -> pa.Array:
    """Arrow keys -> null-free large_binary array of the bytes to hash."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    arr = canonical_keys(arr)
    if not pa.types.is_large_binary(arr.type):
        arr = arr.cast(pa.large_binary())
    if arr.null_count:
        arr = arr.fill_null(b"")
    return arr


def _offsets(arr: pa.Array) -> np.ndarray:
    """int64 offsets of a large_binary array (slice-aware)."""
    return np.frombuffer(arr.buffers()[1], dtype=np.int64)[
        arr.offset : arr.offset + len(arr) + 1
    ]


def canonical_keys(arr):
    """Arrow keys as they are hashed: (large_)string and (large_)binary
    values as they are; any other type cast to string — the build path's
    decimal-string convention (reference cmd/main.go:40 Sprintf("%d"))."""
    t = arr.type
    if (
        pa.types.is_string(t)
        or pa.types.is_large_string(t)
        or pa.types.is_binary(t)
        or pa.types.is_large_binary(t)
    ):
        return arr
    return arr.cast(pa.string())


def arrow_to_key_matrix(arr) -> tuple[np.ndarray, np.ndarray]:
    """Zero-copy extract (padded matrix, lengths) from an Arrow array.

    Accepts ``pyarrow.Array`` / ``ChunkedArray`` under the
    :func:`hash_keys` rules; null entries are empty keys."""
    arr = _key_array(arr)
    offsets = _offsets(arr)
    data = (
        np.frombuffer(arr.buffers()[2], dtype=np.uint8)
        if arr.buffers()[2] is not None
        else np.empty(0, dtype=np.uint8)
    )
    lengths = np.diff(offsets)
    return pad_keys(data[offsets[0] : offsets[-1]], lengths), lengths


def _key_bytes(key) -> bytes:
    if isinstance(key, str):
        return key.encode()
    if isinstance(key, (bytes, bytearray, memoryview)):
        return bytes(key)
    if isinstance(key, (int, np.integer)):
        return b"%d" % key
    raise TypeError(
        f"cannot hash a key of type {type(key).__name__}: keys are str, "
        "bytes-like or int"
    )


def keys_to_matrix(keys) -> tuple[np.ndarray, np.ndarray]:
    """Build (padded matrix, lengths) from a Python sequence of keys
    (:func:`hash_keys` item rules)."""
    bs = [_key_bytes(k) for k in keys]
    lengths = np.array([len(b) for b in bs], dtype=np.int64)
    flat = (
        np.frombuffer(b"".join(bs), dtype=np.uint8)
        if bs
        else np.empty(0, dtype=np.uint8)
    )
    return pad_keys(flat, lengths), lengths


# Cap on any one padded key matrix (rows x padded max key length). pad_keys
# densifies to the LONGEST key in the span, so one multi-MB document inside a
# 32k-row chunk would otherwise allocate tens of GB. 64 MiB keeps temporaries
# well under worker heaps while leaving full-width chunks for uniform keys.
MAX_MATRIX_BYTES = 64 * 1024 * 1024


def byte_lengths(arr) -> np.ndarray:
    """Per-row byte lengths of Arrow keys as :func:`hash_keys` hashes them."""
    return np.diff(_offsets(_key_array(arr)))


def length_bucketed_spans(lengths: np.ndarray) -> list:
    """Order-preserving [start, end) spans whose padded matrices each stay
    under MAX_MATRIX_BYTES (rows x running padded max width; read at call
    time so tests can shrink it). A single key longer than the budget gets
    a span of its own — the matrix is then just that key's padded width."""
    budget = MAX_MATRIX_BYTES
    n = len(lengths)
    if n == 0:
        return []
    widths = (np.asarray(lengths, dtype=np.int64) // 16 + 1) * 16
    # fast path (the overwhelmingly common case: uniform short keys): if the
    # whole chunk padded to the GLOBAL max width fits the budget, it is one
    # span — no per-row Python walk in the hash hot path
    if n * int(widths.max()) <= budget:
        return [(0, n)]
    spans = []
    i = 0
    while i < n:
        cur_w = int(widths[i])
        j = i + 1
        while j < n:
            w = max(cur_w, int(widths[j]))
            if (j - i + 1) * w > budget:
                break
            cur_w = w
            j += 1
        spans.append((i, j))
        i = j
    return spans


def hash_keys(keys, seeds) -> np.ndarray:
    """murmur3 h1 of every key under every seed -> (len(seeds), n) uint64.

    The one way the package hashes keys. ``keys`` is either
    - a ``pyarrow`` Array / ChunkedArray (sliced is fine): (large_)string
      and (large_)binary values are hashed as their bytes, a null as the
      empty key, and any other type as its string cast
      (:func:`canonical_keys`); or
    - a Python sequence whose items are ``str`` (UTF-8), bytes-like, or
      ``int``/``np.integer`` (hashed as the decimal string); any other item
      type raises ``TypeError``.

    Keys are hashed in order-preserving :func:`length_bucketed_spans`: the
    padded matrix densifies to the longest key in a span, so one multi-MB
    key must not share a span with thousands of short ones."""
    if isinstance(keys, (pa.Array, pa.ChunkedArray)):
        arr = _key_array(keys)
        lengths = byte_lengths(arr)

        def key_matrix(a, b):
            return arrow_to_key_matrix(arr.slice(a, b - a))
    else:
        bs = [_key_bytes(k) for k in keys]
        lengths = np.array([len(b) for b in bs], dtype=np.int64)

        def key_matrix(a, b):
            return keys_to_matrix(bs[a:b])
    spans = length_bucketed_spans(lengths)
    if len(spans) == 1:
        return murmur3_64_padded_multi(*key_matrix(0, len(lengths)), seeds)
    out = np.empty((len(seeds), len(lengths)), dtype=np.uint64)
    for a, b in spans:
        out[:, a:b] = murmur3_64_padded_multi(*key_matrix(a, b), seeds)
    return out
