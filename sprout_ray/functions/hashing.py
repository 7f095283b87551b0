"""Scalar/column functions: sha256 invariant column, key extraction, tokens.

The per-row ``sha256(content)`` invariant column is required by
BASELINE.json:input_hint ("per-row invariant vs the reference: content sha256
equality"): the multiset of sha256 digests out of any transform must equal the
multiset in. sha256 has no vectorized Arrow kernel; ``hashlib`` runs C code
per value, so the list comprehension below is dominated by digest compute,
not Python overhead.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..kernel.murmur3 import hash_keys


def sha256_column(arr: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Hex sha256 digest of each string/binary value (nulls -> null)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    out = [
        None if v is None else hashlib.sha256(v).hexdigest()
        for v in arr.cast(pa.large_binary()).to_pylist()
    ]
    return pa.array(out, type=pa.string())


def add_sha256(batch: pa.Table, column: str = "content", out: str = "sha256") -> pa.Table:
    """map_batches stage: append the sha256 invariant column."""
    return batch.append_column(out, sha256_column(batch[column]))


def murmur_column(arr, seed: int = 0) -> np.ndarray:
    """Vectorized murmur3-64 of an Arrow column under one seed (uint64;
    key rules and matrix budget as in ``kernel.murmur3.hash_keys``)."""
    return hash_keys(arr, (seed,))[0]


def token_count_column(arr, pattern: str = r"\s+") -> pa.Array:
    """Whitespace token count per string (empty/blank strings -> 0).

    Matches DuckDB ``array_length(string_split_regex(trim(s), '\\s+'))``
    EXACTLY: the trim strips spaces only, because DuckDB ``trim()`` does —
    ``utf8_trim_whitespace`` would diverge on leading tabs/newlines. The
    blank-string special case is handled identically in the oracle SQL.
    """
    trimmed = pc.utf8_trim(arr, " ")
    counts = pc.list_value_length(pc.split_pattern_regex(trimmed, pattern))
    blank = pc.equal(trimmed, "")
    return pc.if_else(blank, pa.scalar(0, pa.int64()), counts.cast(pa.int64()))
