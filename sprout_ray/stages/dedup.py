"""Deduplication stages: exact, MinHash+LSH, SimHash, n-gram Jaccard.

Scale shapes (driver spec):

- exact: hash-partition on a content hash, keep first (min id) per group —
  one shuffle of (hash, id) pairs, never content;
- MinHash+LSH: shingle -> minhash signature per doc (stride-trick windows, a
  single vectorized murmur pass per doc) -> explode to (band_id, band_hash,
  doc_id) rows -> NATIVE count-aggregate to find buckets with >= 2 members
  (no per-group Python for the singleton sea) -> pairs only inside hot
  buckets -> signature-estimated Jaccard filter -> connected components by
  min-label propagation;
- SimHash: 64-bit signature (one murmur pass over all tokens of a batch +
  segment reduce), 16-bit band blocking, Hamming verification;
- n-gram Jaccard: the exact verifier used on candidate pairs.

The hot-bucket prefilter is the load-bearing scale decision: in a 10^12-row
corpus almost every (band, hash) bucket is a singleton; finding the non-
singletons is a vectorized count-aggregate, after which the Python pairwise
work touches only true candidate groups.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..kernel.murmur3 import hash_keys, murmur3_64_padded_multi
from . import joins
from .agg import collect_table, stateful_map

_MERSENNE = (1 << 61) - 1
_MIX = np.uint64(0x9E3779B97F4A7C15)


def exact_dedup(ds, key_col: str, id_col: str, keep_cols=None):
    """Keep the first row (min id) per key. One groupby shuffle.

    At scale: only (key, id) pairs cross the exchange when key_col is a
    digest column; content stays columnar in place.

    With ``keep_cols``, surviving rows are materialized through
    :func:`id_set_filter` against the survivor ids: broadcast while they
    fit the broadcast budget — every block filters locally, no second
    shuffle of content — and a distributed hash SEMI-JOIN above it (ids
    alone at 10^12 rows dwarf any single node's memory, so the broadcast
    path cannot be the only one)."""
    from ray.data.aggregate import Min

    keep = ds.groupby(key_col).aggregate(Min(id_col, alias_name=id_col))
    if keep_cols is None:
        return keep
    survivors = keep.select_columns([id_col]).materialize()
    id_type = survivors.schema().base_schema.field(id_col).type
    return id_set_filter(survivors, id_col, keep=True, key_type=id_type)(ds)


def char_shingles(text: str, k: int = 5) -> list:
    if len(text) < k:
        return [text] if text else []
    return [text[i : i + k] for i in range(len(text) - k + 1)]


_COLS16 = np.arange(16)[None, :]


def _window_hashes(win16: np.ndarray, starts: np.ndarray, rlen: np.ndarray):
    """murmur3-64 (seed 0) of sliding-window keys: key i is the first
    ``rlen[i]`` bytes of ``win16[starts[i]]``, a 16-wide window view. The
    raw rows carry no zero block past the key (unlike ``hash_keys``'
    padded matrix), so every key must stay < 16 bytes."""
    mat = win16[starts]  # fancy index -> contiguous copy
    mat[_COLS16 >= rlen[:, None]] = 0  # zero past each key's end
    return murmur3_64_padded_multi(mat, rlen, (0,))[0]


def _check_shingle_k(k: int) -> None:
    # a shingle must fit one murmur tail block of the 16-wide window matrix
    if not 1 <= k <= 15:
        raise ValueError("k must be in [1, 15] (single murmur tail block)")


def shingle_hashes(text: str, k: int = 5) -> np.ndarray:
    """Unique murmur3-64 hashes of all byte-k-shingles (k <= 15), or of the
    whole text when it is shorter than k — one sliding-window matrix, one
    hash pass."""
    _check_shingle_k(k)
    b = text.encode()
    if not b:
        return np.empty(0, dtype=np.uint64)
    nwin = max(len(b) - k + 1, 1)
    buf = np.frombuffer(b + b"\0" * 16, dtype=np.uint8)
    win16 = np.lib.stride_tricks.sliding_window_view(buf, 16)
    rlen = np.full(nwin, min(len(b), k), dtype=np.int64)
    return np.unique(_window_hashes(win16, np.arange(nwin), rlen))


class MinHasher:
    """Stateful stage: per-doc minhash signature over char-k-shingles.

    Permutations are ``((a*h mod 2^64) + b) mod p`` over the murmur3 shingle
    hashes — the multiply wraps mod 2^64 BEFORE the Mersenne modulo, so this
    is wrapped-multiply mixing, not the textbook universal-hash family (whose
    min-wise independence guarantee therefore doesn't formally apply; the
    murmur3 base hashes are already well-mixed and estimates remain
    self-consistent across partitions, which is what LSH banding needs).
    One broadcasted numpy op per doc. Emits ``doc_id`` + fixed-size
    ``signature`` (list<uint64>)."""

    def __init__(self, num_perm: int = 128, k: int = 5, seed: int = 1, text_col: str = "text", id_col: str = "doc_id"):
        _check_shingle_k(k)
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, _MERSENNE, num_perm, dtype=np.int64).astype(np.uint64)
        self.b = rng.integers(0, _MERSENNE, num_perm, dtype=np.int64).astype(np.uint64)
        self.num_perm = num_perm
        self.k = k
        self.text_col = text_col
        self.id_col = id_col

    def signature(self, text: str) -> np.ndarray:
        base = shingle_hashes(text, self.k)
        if base.size == 0:
            return np.full(self.num_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
        with np.errstate(over="ignore"):
            perms = (self.a[:, None] * base[None, :] + self.b[:, None]) % np.uint64(
                _MERSENNE
            )
        return perms.min(axis=1)

    def signatures_batch(self, texts) -> np.ndarray:
        """(n_docs, num_perm) signatures in ONE vectorized pass over the
        whole batch: every shingle window of every doc becomes one row of a
        single 16-wide key matrix (one murmur3 pass), then each permutation's
        per-doc minimum is a ``np.minimum.reduceat`` over doc segments.

        Bit-identical to :meth:`signature` per doc (duplicate shingle hashes
        don't move a minimum, so the per-doc ``np.unique`` is unnecessary;
        the Mersenne fold below equals ``% (2^61-1)`` exactly since
        2^61 = 1 mod p); asserted in tests. Rows are chunked at ~8k windows
        so the (num_perm x chunk) working set stays cache-resident — the
        32 MB-temp variant of this loop measured 10x slower on this host —
        and scratch buffers live on the stage object, reused across batches."""
        maxu = np.iinfo(np.uint64).max
        n = len(texts)
        out = np.full((n, self.num_perm), maxu, dtype=np.uint64)
        if n == 0:
            return out
        bs = [(t or "").encode() for t in texts]
        lengths = np.array([len(b) for b in bs], dtype=np.int64)
        # windows per doc: l-k+1 full shingles, or 1 whole-text row when
        # 0 < l < k (matching shingle_hashes), or 0 for empty docs
        wc = np.where(lengths == 0, 0, np.maximum(lengths - self.k + 1, 1))
        total = int(wc.sum())
        if total == 0:
            return out
        offs = np.concatenate([[0], np.cumsum(lengths)])[:-1]
        rowstarts = np.concatenate([[0], np.cumsum(wc)])[:-1]
        buf = np.frombuffer(b"".join(bs) + b"\0" * 16, dtype=np.uint8)
        win16 = np.lib.stride_tricks.sliding_window_view(buf, 16)
        mersenne = np.uint64(_MERSENNE)
        s61 = np.uint64(61)
        rc = 8192
        scratch = getattr(self, "_scratch", None)
        if scratch is None or scratch[0].shape != (self.num_perm, rc):
            scratch = (
                np.empty((self.num_perm, rc), dtype=np.uint64),
                np.empty((self.num_perm, rc), dtype=np.uint64),
            )
            self._scratch = scratch
        tbuf, fbuf = scratch
        a2, b2 = self.a[:, None], self.b[:, None]
        with np.errstate(over="ignore"):
            for r0 in range(0, total, rc):
                r1 = min(r0 + rc, total)
                rows = np.arange(r0, r1)
                di = np.searchsorted(rowstarts, rows, side="right") - 1
                starts = offs[di] + (rows - rowstarts[di])
                rlen = np.minimum(lengths[di], self.k)
                hashes = _window_hashes(win16, starts, rlen)
                nn = r1 - r0
                tt, ff = tbuf[:, :nn], fbuf[:, :nn]
                np.multiply(a2, hashes[None, :], out=tt)
                tt += b2
                np.right_shift(tt, s61, out=ff)
                tt &= mersenne
                tt += ff  # hi + lo, < 2p: one conditional subtract folds
                tt[tt >= mersenne] -= mersenne
                udocs, bounds = np.unique(di, return_index=True)
                mins = np.minimum.reduceat(tt, bounds, axis=1)
                out[udocs, :] = np.minimum(out[udocs, :], mins.T)
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col].to_pylist()
        sigs = self.signatures_batch(texts)
        return pa.table(
            {
                self.id_col: batch[self.id_col],
                "signature": pa.FixedSizeListArray.from_arrays(
                    pa.array(sigs.reshape(-1), pa.uint64()), self.num_perm
                ),
            }
        )


def _band_hashes(sigs: np.ndarray, bands: int) -> np.ndarray:
    """(n_docs, bands) FNV-combined hash of each band's signature slice."""
    n, num_perm = sigs.shape
    r = num_perm // bands
    out = np.empty((n, bands), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for b in range(bands):
            chunk = sigs[:, b * r : (b + 1) * r]
            acc = np.full(n, 1469598103934665603, dtype=np.uint64)
            for j in range(r):
                acc = (acc ^ chunk[:, j]) * np.uint64(1099511628211)
            out[:, b] = acc
    return out


def minhash_bands(sig_ds, bands: int = 16, id_col: str = "doc_id", include_signature: bool = False):
    """Explode signatures into (bucket_key, doc_id[, signature]) rows.

    ``bucket_key`` folds (band index, band hash) into ONE int64 so every
    downstream shuffle keys on a single fixed-width column.
    ``include_signature=True`` carries the signature through the explode so
    the in-bucket verify stage can estimate Jaccard without a join or a
    driver-side signature table (costs bands x sig_size per doc on the one
    shuffle that only hot rows survive). The carried signature is packed as
    ``large_binary`` (uint64 little-endian) — Arrow's hash join rejects
    fixed_size_list payloads, and the semi-join hot filter must be able to
    carry these rows."""

    def explode(batch: pa.Table) -> pa.Table:
        sig_arr = batch["signature"].combine_chunks()
        sigs = np.asarray(sig_arr.flatten()).reshape(batch.num_rows, -1)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        bh = _band_hashes(sigs, bands)  # (n, bands) uint64
        band_id = np.repeat(np.arange(bands, dtype=np.uint64), batch.num_rows)
        key = _combined_key(band_id, bh.T.reshape(-1))
        cols = {
            "bucket_key": pa.array(key.view(np.int64)),
            id_col: pa.array(np.tile(ids, bands)),
        }
        if include_signature:
            cols["signature"] = pack_rows(np.tile(sigs, (bands, 1)))
        return pa.table(cols)

    return sig_ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)


def _combined_key(band_id: np.ndarray, band_hash: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return (band_hash.astype(np.uint64) * _MIX) ^ band_id.astype(np.uint64)


def pack_rows(mat: np.ndarray):
    """Pack a contiguous (n, w) fixed-width matrix as an Arrow large_binary
    array (one row per entry, zero-copy buffers). Arrow's hash join rejects
    fixed_size_list payload columns, so row payloads that must survive the
    semi-join hot filter (minhash signatures, embeddings) ride as bytes."""
    mat = np.ascontiguousarray(mat)
    n = mat.shape[0]
    offs = np.arange(n + 1, dtype=np.int64) * (mat.shape[1] * mat.itemsize)
    return pa.Array.from_buffers(
        pa.large_binary(), n, [None, pa.py_buffer(offs), pa.py_buffer(mat)]
    )


def unpack_rows(col, n_rows: int, dtype=np.uint64) -> np.ndarray:
    """(n_rows, w) matrix of ``dtype`` from a packed large_binary column
    (vectorized gather — rows may be non-contiguous after a shuffle/join)."""
    arr = col.combine_chunks()
    if n_rows == 0:
        return np.empty((0, 0), dtype=dtype)
    offsets = np.frombuffer(arr.buffers()[1], dtype=np.int64)[
        arr.offset : arr.offset + n_rows + 1
    ]
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
    row_b = int(offsets[1] - offsets[0])
    idx = offsets[:-1, None] + np.arange(row_b)[None, :]
    return np.ascontiguousarray(data[idx]).view(dtype)


def hot_bucket_rows(rows_ds, count_ds=None):
    """Filter ``rows_ds`` to rows whose ``bucket_key`` holds >= 2 members.

    Returns ``(filtered_ds_or_None, n_hot)`` (None when no bucket is hot).
    Counting runs over ``count_ds`` (a cheaper bucket_key-only projection)
    when given. The hot keys filter the rows through :func:`id_set_filter`:
    the non-singleton bucket count grows with the duplicate count, which
    is unbounded at corpus scale, so above the broadcast budget the band
    rows semi-join the hot-key Dataset instead of broadcasting it."""
    src = count_ds if count_ds is not None else rows_ds.select_columns(["bucket_key"])
    hot_ds = (
        src.groupby("bucket_key")
        .count()
        .map_batches(
            lambda t: t.filter(pc.greater(t["count()"], 1)).select(["bucket_key"]),
            batch_format="pyarrow",
        )
        .materialize()
    )
    n = hot_ds.count()
    if n == 0:
        return None, 0
    return id_set_filter(hot_ds, "bucket_key", keep=True, n_ids=n)(rows_ds), n


def id_set_filter(
    ids_ds,
    id_col: str,
    keep: bool,
    n_ids: int | None = None,
    key_type: pa.DataType | None = None,
    num_partitions: int | None = None,
):
    """Size-guarded semi-/anti-join against a UNIQUE id set: returns
    ``fn(ds) -> ds`` keeping (``keep=True``) or dropping (``keep=False``)
    rows whose ``id_col`` appears in ``ids_ds`` — a Dataset, or a numpy
    array of ids already on the driver (no collect pass then).

    Up to ``joins.DIM_BROADCAST_MAX`` ids: the sorted id array is
    ``ray.put`` once and every batch resolves map-side via searchsorted —
    zero shuffle. Above it: a distributed hash join (inner for keep — ids
    are unique so no row expansion; left_outer + null-filter for drop),
    partition count clamped to id volume (``Dataset.join`` costs ~0.5-1 s
    FIXED per partition actor — CLAUDE.md). The single home for this
    machinery: exact_dedup's survivor filter, the hot-bucket filter, the
    curation winner and decontamination filters, ``decontam.decontaminate``,
    ``incremental_dedup`` and the analytics exact verifies all route
    through it. ``key_type`` defaults to int64; binary/string key sets
    work too (numpy object-array sort/searchsorted on the broadcast
    path)."""
    import ray
    import ray.data as rd

    if key_type is None:
        key_type = pa.int64()
    on_driver = isinstance(ids_ds, np.ndarray)
    if n_ids is None:
        n_ids = ids_ds.size if on_driver else ids_ds.count()

    if n_ids <= joins.DIM_BROADCAST_MAX:
        arr = ids_ds if on_driver else collect_table(
            ids_ds, pa.schema([(id_col, key_type)])
        )[id_col].to_numpy(zero_copy_only=False)
        ref = ray.put(np.sort(arr))

        def mask_batch(t: pa.Table) -> pa.Table:
            ids = t[id_col].to_numpy(zero_copy_only=False)
            a = ray.get(ref)
            if not a.size:
                member = np.zeros(len(ids), bool)
            else:
                pos = np.minimum(np.searchsorted(a, ids), a.size - 1)
                member = a[pos] == ids
            return t.filter(pa.array(member if keep else ~member))

        def apply(ds):
            return ds.map_batches(mask_batch, batch_format="pyarrow")

        return apply

    # callers with a tiny probe side should pass num_partitions (observed:
    # multi-partition hash joins can fail in HashShuffleAggregator when one
    # side's rows all land in one partition — a single partition is also
    # simply faster there)
    parts = num_partitions or max(2, n_ids // 4_000_000)
    if on_driver:
        ids_ds = rd.from_arrow(pa.table({id_col: pa.array(ids_ds, key_type)}))
    if keep:

        def apply(ds):
            return ds.join(
                ids_ds, join_type="inner", num_partitions=parts, on=(id_col,)
            )

        return apply

    flagged = ids_ds.map_batches(
        lambda t: t.append_column(
            "__in_set", pa.array(np.ones(len(t), bool))
        ),
        batch_format="pyarrow",
    ).materialize()

    def apply(ds):
        joined = ds.join(
            flagged, join_type="left_outer", num_partitions=parts, on=(id_col,)
        )
        return joined.map_batches(
            lambda t: t.filter(pc.is_null(t["__in_set"])).drop_columns(
                ["__in_set"]
            ),
            batch_format="pyarrow",
        )

    return apply


def dedupe_pair_stream(pairs, value_col: str | None = None, agg: str = "max"):
    """One row per (left_id, right_id) from a bucket-expanded pair stream.

    Ray Data's MULTI-column groupby is pathologically slow on exactly this
    shape (measured 347 s vs 10.8 s for the same 508k-row pair dedup on 4
    CPUs): when both ids fit in 31 bits — checked with a cheap native
    min/max on the already-materialized stream — the pair packs into ONE
    collision-free int64 key (left << 31 | right), grouped natively and
    unpacked after; wider ids fall back to the 2-column groupby (correct,
    slower, and unreachable for any corpus whose ids fit an int32).
    ``value_col`` survives via ``agg`` (min/max — every colliding bucket
    computes the same pair value, so either is "keep one")."""
    pairs = pairs.materialize()
    if pairs.count() == 0:
        return pairs.map_batches(
            lambda t: t.select(["left_id", "right_id"] + ([value_col] if value_col else [])),
            batch_format="pyarrow",
        )
    from ray.data.aggregate import Max, Min

    # ONE aggregate job for all four bounds (separate min()/max() calls
    # each pay a full pass + per-partition actor setup over the stream)
    ext = pairs.aggregate(
        Min("left_id"), Min("right_id"), Max("left_id"), Max("right_id")
    )
    packable = (
        min(ext["min(left_id)"], ext["min(right_id)"]) >= 0
        and max(ext["max(left_id)"], ext["max(right_id)"]) < (1 << 31)
    )
    if not packable:
        g = pairs.groupby(["left_id", "right_id"])
        out = getattr(g, agg)(value_col) if value_col else g.count()
        keep_cols = ["left_id", "right_id"] + ([value_col] if value_col else [])

        def tidy(t: pa.Table) -> pa.Table:
            return t.select(t.column_names[: len(keep_cols)]).rename_columns(keep_cols)

        return out.map_batches(tidy, batch_format="pyarrow")

    mask = (1 << 31) - 1

    def pack(t: pa.Table) -> pa.Table:
        pk = (t["left_id"].to_numpy() << 31) | t["right_id"].to_numpy()
        cols = {"pk": pa.array(pk)}
        if value_col:
            cols[value_col] = t[value_col]
        return pa.table(cols)

    g = pairs.map_batches(pack, batch_format="pyarrow").groupby("pk")
    out = getattr(g, agg)(value_col) if value_col else g.count()
    vname = f"{agg}({value_col})" if value_col else None

    def unpack(t: pa.Table) -> pa.Table:
        pk = t["pk"].to_numpy()
        cols = {
            "left_id": pa.array(pk >> 31),
            "right_id": pa.array(pk & mask),
        }
        if value_col:
            cols[value_col] = t[vname]
        return pa.table(cols)

    return out.map_batches(unpack, batch_format="pyarrow")


def lsh_candidate_pairs(
    band_ds,
    id_col: str = "doc_id",
    max_bucket: int = 64,
):
    """Candidate (left_id, right_id) pairs from LSH buckets with >= 2 docs.

    Flow: hot-bucket filter (:func:`hot_bucket_rows` — broadcast under the
    size budget, distributed semi-join above it) -> per-bucket pairwise
    expansion ONLY on hot buckets (bounded by ``max_bucket`` against
    degenerate bands) -> pair dedup.

    The expansion group fn is pyarrow+numpy end to end (the fused n-gram
    bucket-verify shape) — no pandas conversion in the hot path."""
    import ray

    empty = pa.table(
        {
            "left_id": pa.array([], pa.int64()),
            "right_id": pa.array([], pa.int64()),
        }
    )
    hot_rows, n_hot = hot_bucket_rows(band_ds)
    if hot_rows is None:
        return ray.data.from_arrow(empty)

    def pairs(group: pa.Table) -> pa.Table:
        ids = np.unique(
            group[id_col].to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
        )[:max_bucket]
        n = ids.size
        if n < 2:
            return empty
        iu = np.triu_indices(n, k=1)
        return pa.table(
            {"left_id": pa.array(ids[iu[0]]), "right_id": pa.array(ids[iu[1]])}
        )

    cand = hot_rows.groupby("bucket_key").map_groups(pairs, batch_format="pyarrow")
    return dedupe_pair_stream(cand)


def estimate_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
    return float((sig_a == sig_b).mean())


def ngram_jaccard(a: str, b: str, k: int = 5) -> float:
    """Exact character-k-gram Jaccard — the verifier for candidate pairs."""
    sa, sb = set(char_shingles(a, k)), set(char_shingles(b, k))
    if not sa and not sb:
        return 1.0
    if not sa or not sb:
        return 0.0
    return len(sa & sb) / len(sa | sb)


def _doc_gram_hashes(texts, n: int, distinct: bool = True):
    """Char-n-gram hashes per doc, vectorized over the whole batch.

    Grams are hashed over UTF-32 codepoint windows (CHARACTER semantics,
    matching ``char_shingles``/DuckDB substr, not bytes). Returns
    ``(h, d)``: uint64 gram hashes and their doc indices — deduplicated
    per doc and sorted by (doc, hash) by default, or POSITIONAL
    (document order, duplicates kept) with ``distinct=False`` (the
    winnowing consumer needs gram positions)."""
    if not 1 <= n <= 3:
        # the raw sliding-window matrix (_window_hashes) is exactly 16
        # bytes wide with NO extra zero block, so keys must stay < 16
        # bytes: 4n <= 12. n=4 is exactly one full block and the tail
        # read indexes past the matrix (reproduced).
        raise ValueError("n must be in [1, 3] (4n bytes < one murmur block)")
    bs = [(t or "").encode("utf-32-le") for t in texts]
    lengths = np.array([len(b) // 4 for b in bs], dtype=np.int64)  # chars
    wc = np.where(lengths == 0, 0, np.maximum(lengths - n + 1, 1))
    total = int(wc.sum())
    if total == 0:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    offs = np.concatenate([[0], np.cumsum(lengths)])[:-1]
    rowstarts = np.concatenate([[0], np.cumsum(wc)])[:-1]
    buf = np.frombuffer(b"".join(bs) + b"\0" * 16, dtype=np.uint8)
    win16 = np.lib.stride_tricks.sliding_window_view(buf, 16)
    hashes = np.empty(total, dtype=np.uint64)
    di = np.empty(total, dtype=np.int64)
    for r0 in range(0, total, 65536):  # bound the (chunk, 16) key matrix
        r1 = min(r0 + 65536, total)
        rows = np.arange(r0, r1)
        d = np.searchsorted(rowstarts, rows, side="right") - 1
        starts = offs[d] + (rows - rowstarts[d])
        rlen = 4 * np.minimum(lengths[d], n)  # bytes; whole text when len<n
        hashes[r0:r1] = _window_hashes(win16, 4 * starts, rlen)
        di[r0:r1] = d
    if not distinct:
        return hashes, di  # positional: document order, duplicates kept
    # distinct per doc, ascending hash inside each doc run
    order = np.lexsort((hashes, di))
    h, d = hashes[order], di[order]
    keep = np.empty(h.size, dtype=bool)
    keep[0] = True
    keep[1:] = (h[1:] != h[:-1]) | (d[1:] != d[:-1])
    return h[keep], d[keep]


# Above this many distinct grams the document-frequency rank table is not
# broadcast and prefix ordering falls back to hash order. Char-n-gram
# alphabets are intrinsically bounded (|charset|^n; real text at n<=4 stays
# in the low millions), so the fallback exists for adversarial inputs only.
GRAM_RANK_MAX = 4_000_000


def _gram_df_ranks(ds, text_col: str, n: int, max_grams: int = GRAM_RANK_MAX):
    """Global document-frequency rank table for the AllPairs prefix order.

    One count-aggregate pass: each doc's DISTINCT gram hashes count once,
    so count == document frequency. Returns ``(lut_hashes, lut_ranks,
    total_incidence)`` (hash-sorted uint64, each hash's position under the
    (df asc, hash asc) total order, and sum(df) — the corpus's total
    (doc, distinct-gram) incidence count, which sizes the fused dense-path
    broadcast) or ``None`` above ``max_grams``. Ordering prefixes
    rarest-first is the published AllPairs/PPJoin heuristic: the filter is
    exact under ANY common total order, but rare-gram prefixes collide far
    less (measured 4.5x fewer candidate pairs on the test corpus, orders of
    magnitude on natural text)."""

    def distinct(t: pa.Table) -> pa.Table:
        h, _d = _doc_gram_hashes(t[text_col].to_pylist(), n)
        return pa.table({"gram": pa.array(h.view(np.int64))})

    counts = (
        ds.map_batches(distinct, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("gram")
        .count()
        .materialize()
    )
    if counts.count() > max_grams:
        return None
    tbl = collect_table(
        counts,
        pa.schema([("gram", pa.int64()), ("count()", pa.int64())]),
    )
    if tbl.num_rows == 0:
        return None
    hashes = tbl["gram"].to_numpy(zero_copy_only=False).view(np.uint64)
    df = tbl["count()"].to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
    rank_order = np.lexsort((hashes, df))  # (df asc, hash asc)
    ranks = np.empty(hashes.size, dtype=np.int64)
    ranks[rank_order] = np.arange(hashes.size)
    hash_order = np.argsort(hashes)
    return hashes[hash_order], ranks[hash_order], int(df.sum())


# The fused dense-regime path broadcasts every doc's distinct gram-hash set
# (8 bytes per (doc, gram) incidence). 32M incidences = 256 MB — a
# comfortable single broadcast; natural corpora at scale blow past this and
# take the AllPairs prefix path instead.
GRAM_BROADCAST_INCIDENCE_MAX = 32_000_000

# The exact n-gram verify broadcasts its candidate docs' texts as one
# id -> text dict, unpickled whole once per verify worker process; above
# this many candidate docs the texts hash-join onto the pairs instead.
TEXT_BROADCAST_MAX_DOCS = 500_000


def _doc_gram_payload_ref(ds, text_col: str, id_col: str, n: int):
    """Broadcast the whole corpus's per-doc distinct gram-hash sets as THREE
    flat arrays ``(ids_sorted, offsets, flat_hashes)`` — not a dict: every
    ``ray.get`` of a dict re-unpickles O(n_docs) Python objects per call
    (and map_groups calls the consumer once PER BUCKET), while bare numpy
    arrays come back zero-copy from the object store every time. One
    map_batches pass (per-doc byte-packing into a large_binary column, no
    per-gram Python), one Arrow-native collect, one vectorized ragged
    gather into id order. Caller gates on total incidence; doc-count
    blow-up (empty docs contribute rows but no grams) is pre-bounded by
    the empty-clique guard upstream."""
    import ray

    def gram_rows(t: pa.Table) -> pa.Table:
        h, d = _doc_gram_hashes(t[text_col].to_pylist(), n)
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
        sizes = np.bincount(d, minlength=len(ids)) if h.size else np.zeros(len(ids), np.int64)
        ends = np.cumsum(sizes)
        starts = ends - sizes
        payload = [h[s:e].tobytes() for s, e in zip(starts, ends)]
        return pa.table(
            {"id": pa.array(ids), "grams": pa.array(payload, pa.large_binary())}
        )

    tbl = collect_table(
        ds.map_batches(gram_rows, batch_format="pyarrow", zero_copy_batch=True),
        pa.schema([("id", pa.int64()), ("grams", pa.large_binary())]),
    )
    ids = tbl["id"].to_numpy(zero_copy_only=False)
    col = tbl["grams"].combine_chunks()
    # large_binary layout: buffers()[1] = int64 offsets, buffers()[2] = data
    raw_offs = np.frombuffer(col.buffers()[1], dtype=np.int64)[
        col.offset : col.offset + len(col) + 1
    ]
    data_buf = col.buffers()[2]
    flat_all = (
        np.frombuffer(data_buf, dtype=np.uint64)
        if data_buf is not None and len(data_buf)
        else np.empty(0, dtype=np.uint64)
    )
    lens = (raw_offs[1:] - raw_offs[:-1]) // 8
    starts = raw_offs[:-1] // 8
    order = np.argsort(ids, kind="stable")
    out_lens = lens[order]
    out_offs = np.concatenate([[0], np.cumsum(out_lens)])
    total = int(out_offs[-1])
    if total:
        # vectorized ragged gather: flat indices for each doc's run
        gidx = (
            np.repeat(starts[order] - out_offs[:-1], out_lens)
            + np.arange(total)
        )
        flat_sorted = flat_all[gidx]
    else:
        flat_sorted = np.empty(0, dtype=np.uint64)
    return ray.put((ids[order], out_offs, flat_sorted))


def _matmul_bucket_pairs(
    keyed,
    gram_ref,
    threshold: float,
    max_bucket: int,
    id_col: str = "doc_id",
    mat_budget: int = 64 << 20,
    metric: str = "jaccard",
):
    """Fused in-bucket candidate pruning for DENSE corpora: instead of
    materializing every in-bucket pair (a tiny gram alphabet makes the
    AllPairs prefix filter non-selective — measured 28M raw pair rows for
    256 final ones on the synthetic corpus), each hot bucket computes ALL
    pairwise intersection counts at once via a column-chunked ``M @ M.T``
    over the bucket-local gram incidence matrix (float32 counts are exact
    below 2^24) and emits only pairs whose HASH-set Jaccard clears the
    threshold. Decision quality matches the blocking tier's documented
    64-bit-collision risk class (~1e-13); survivors are re-verified on true
    text grams downstream, so emitted values stay oracle-exact. The chunk
    width bounds peak memory at ``mat_budget`` regardless of how many
    distinct grams a bucket holds; the b^2 accumulator is capped by
    ``max_bucket`` (4096 -> 64 MB)."""
    import ray

    hot_rows, _n_hot = hot_bucket_rows(keyed)
    empty = pa.table(
        {"left_id": pa.array([], pa.int64()), "right_id": pa.array([], pa.int64())}
    )
    if hot_rows is None:
        return ray.data.from_arrow(empty)

    def fused(group: pa.Table) -> pa.Table:
        ids = np.unique(
            group[id_col].to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
        )[:max_bucket]
        b = ids.size
        if b < 2:
            return empty
        lut_ids, lut_offs, lut_flat = ray.get(gram_ref)  # zero-copy arrays
        pos = np.searchsorted(lut_ids, ids)
        if not (lut_ids[np.minimum(pos, lut_ids.size - 1)] == ids).all():
            raise KeyError("bucket doc_id missing from gram payload")
        lens = lut_offs[pos + 1] - lut_offs[pos]
        total = int(lens.sum())
        gidx = (
            np.repeat(lut_offs[pos] - np.concatenate([[0], np.cumsum(lens)])[:-1], lens)
            + np.arange(total)
        )
        concat = lut_flat[gidx]
        g_local, cols = np.unique(concat, return_inverse=True)
        rows = np.repeat(np.arange(b), lens)
        order = np.argsort(cols, kind="stable")
        cs, rs = cols[order], rows[order]
        inter_acc = np.zeros((b, b), dtype=np.float32)
        chunk = max(1, int(mat_budget // (4 * b)))
        for c0 in range(0, int(g_local.size), chunk):
            c1 = min(c0 + chunk, int(g_local.size))
            lo, hi = np.searchsorted(cs, [c0, c1])
            if lo == hi:
                continue
            m = np.zeros((b, c1 - c0), dtype=np.float32)
            m[rs[lo:hi], cs[lo:hi] - c0] = 1.0
            inter_acc += m @ m.T
        iu = np.triu_indices(b, k=1)
        inter = inter_acc[iu].astype(np.int64)
        if metric == "containment":
            denom = np.minimum(lens[iu[0]], lens[iu[1]])
        else:
            denom = lens[iu[0]] + lens[iu[1]] - inter
        j = inter / np.maximum(denom, 1)  # denom>0: gram-less docs never bucket
        keep = j >= threshold
        return pa.table(
            {
                "left_id": pa.array(ids[iu[0]][keep]),
                "right_id": pa.array(ids[iu[1]][keep]),
            }
        )

    pairs = hot_rows.groupby("bucket_key").map_groups(fused, batch_format="pyarrow")
    return dedupe_pair_stream(pairs)


def _char_gram_prefix_rows(
    texts, ids, n: int, threshold: float, rank_lut=None
) -> pa.Table:
    """Vectorized AllPairs prefix rows for one batch.

    Per-doc distinct gram hashes (:func:`_doc_gram_hashes`) are ordered by
    the global df-rank when ``rank_lut`` is given (rarest first), else by
    hash value — ANY total order common to all docs keeps the filter exact
    — and the first ``|S| - ceil(t*|S|) + 1`` grams of each doc become
    (bucket_key, doc_id) rows: two sets with Jaccard >= t MUST share a
    prefix token under a common order (Chaudhuri/Bayardo AllPairs).
    ``ceil`` is computed on ``t*s - 1e-9``: float error inflating ceil
    would SHORTEN the prefix and silently drop candidates; the epsilon
    biases toward a longer prefix, which only adds verify work."""
    empty = pa.table(
        {"bucket_key": pa.array([], pa.int64()), "doc_id": pa.array([], pa.int64())}
    )
    h, d = _doc_gram_hashes(texts, n)
    if h.size == 0:
        return empty
    if rank_lut is not None:
        lut_hashes, lut_ranks = rank_lut
        pos_lut = np.minimum(
            np.searchsorted(lut_hashes, h), lut_hashes.size - 1
        )
        # unseen hashes (rank table built on a different corpus snapshot)
        # sort by their own value past the known ranks — still a total order
        key = np.where(
            lut_hashes[pos_lut] == h,
            lut_ranks[pos_lut],
            lut_hashes.size + h.view(np.int64) % (1 << 62),
        )
        order = np.lexsort((key, d))
        h, d = h[order], d[order]
    sizes = np.bincount(d, minlength=len(texts))
    starts_u = np.concatenate([[0], np.cumsum(sizes)])[:-1]
    # d is sorted; position within each doc's run
    pos = np.arange(h.size) - starts_u[d]
    prefix_len = sizes - np.ceil(threshold * sizes - 1e-9).astype(np.int64) + 1
    sel = pos < prefix_len[d]
    ids = np.asarray(ids, dtype=np.int64)
    return pa.table(
        {
            "bucket_key": pa.array(h[sel].view(np.int64)),
            "doc_id": pa.array(ids[d[sel]]),
        }
    )


def _pair_metric(inter: int, na: int, nb: int, metric: str) -> float:
    """Set-similarity value for a verified pair. Jaccard: i/(na+nb-i),
    two-empties = 1.0. Containment (Broder): i/min(na, nb) — catches
    doc-inside-doc subset dups Jaccard dilutes away; two-empties = 1.0,
    exactly-one-empty = 0.0 (an empty gram set shares nothing)."""
    if metric == "containment":
        m = min(na, nb)
        if m == 0:
            return 1.0 if na + nb == 0 else 0.0
        return inter / m
    union = na + nb - inter
    return inter / union if union else 1.0


class _NgramVerifier:
    """Stateful exact set-similarity verify (jaccard or containment):
    candidate texts are fetched ONCE per worker process and shingled into true
    char-n-gram sets ONCE per doc in ``__init__`` — the naive per-pair
    re-shingle was the dominant cost of the whole join (each doc appears
    in many candidate pairs)."""

    def __init__(self, text_ref, n: int, threshold: float, metric: str = "jaccard"):
        import ray

        self.n = n
        self.threshold = threshold
        self.metric = metric
        self.sets = {
            i: set(char_shingles(t, n)) for i, t in ray.get(text_ref).items()
        }

    def __call__(self, t: pa.Table) -> pa.Table:
        left = t["left_id"].to_pylist()
        right = t["right_id"].to_pylist()
        sets = self.sets
        out = np.empty(len(left), dtype=np.float64)
        for i, (a, b) in enumerate(zip(left, right)):
            sa, sb = sets[a], sets[b]
            inter = len(sa & sb)
            out[i] = _pair_metric(inter, len(sa), len(sb), self.metric)
        keep = out >= self.threshold
        jr = np.floor(out * 1e6 + 0.5) / 1e6
        return pa.table(
            {
                "left_id": pa.array(np.asarray(left, np.int64)[keep]),
                "right_id": pa.array(np.asarray(right, np.int64)[keep]),
                self.metric: pa.array(jr[keep], pa.float64()),
            }
        )


def ngram_jaccard_pairs_distributed(
    ds,
    n: int = 3,
    threshold: float = 0.8,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_bucket: int = 4096,
    freq_order: bool = True,
    metric: str = "jaccard",
):
    """EXACT all-pairs char-n-gram set-similarity >= threshold — AllPairs
    join, no LSH approximation. ``metric="jaccard"`` (default) or
    ``"containment"`` (Broder one-sided overlap ``i/min(|A|,|B|)``, the
    doc-inside-doc detector — a 200-char doc pasted into a 20k-char doc
    has tiny Jaccard but containment 1.0).

    Containment blocking note: a qualifying pair only constrains the
    SMALLER set (``i >= t*min``), so the larger side must index ALL its
    grams for the bucket collision to exist — prefix filtering is
    disabled (full gram emission) and candidate pruning relies on the
    fused matmul tier / ``max_bucket``. That is inherent to containment
    joins without a partner-size floor, not an implementation shortcut;
    at corpus scale, pre-filter the small side (length band) or use the
    MinHash tail first.

    Flow: a document-frequency count pass builds the global rarest-first
    gram order (:func:`_gram_df_ranks`, broadcast once, size-guarded with
    a hash-order fallback) -> one map_batches pass emits each doc's prefix
    grams as (bucket_key, doc_id) rows -> the shared hot-bucket machinery
    (:func:`hot_bucket_rows`, size-guarded broadcast/semi-join) finds grams
    held by >= 2 docs -> pair expansion only there -> pair dedup -> exact
    verify on the candidate pairs' TEXTS (true char sets built once per
    doc per worker process, no hashes, so the qualifying decision is
    float-identical to a SQL twin computing i/(|A|+|B|-i)). Only prefix
    rows shuffle; texts are fetched for the surviving candidate ids alone
    — broadcast up to ``TEXT_BROADCAST_MAX_DOCS``, distributed hash joins
    above. The fused matmul verify runs while the corpus's gram incidence
    fits ``GRAM_BROADCAST_INCIDENCE_MAX``.

    The 64-bit gram hash is used only for candidate BLOCKING; a collision
    could merge two grams and shorten a prefix (P ~ g^2/2^65 per doc,
    ~1e-13 at 2k grams) — any such miss would surface as an oracle
    mismatch rather than pass silently. ``max_bucket`` caps degenerate
    buckets like the other pair enumerators (exactness requires it to
    exceed the hottest prefix bucket; rarest-first ordering keeps real
    buckets far below it)."""
    import ray
    import ray.data as rd

    if metric not in ("jaccard", "containment"):
        raise ValueError(f"unknown set-similarity metric {metric!r}")
    # containment: i >= t*min(|A|,|B|) bounds only the smaller set, so
    # blocking must index every gram (see docstring); jaccard keeps the
    # AllPairs prefix
    block_t = threshold if metric == "jaccard" else 0.0
    empty = pa.table(
        {
            "left_id": pa.array([], pa.int64()),
            "right_id": pa.array([], pa.int64()),
            metric: pa.array([], pa.float64()),
        }
    )

    # Two EMPTY gram sets have Jaccard 1.0 (the SQL twin's "two empties"
    # CASE), but empty-text docs emit no prefix rows and can never collide
    # in a bucket — their clique is added explicitly. Non-null empty
    # strings only (SQL: len(NULL) is NULL, so null texts never qualify
    # there either). A corpus where empties are numerous makes the clique
    # quadratic by DEFINITION of the join — error out rather than emit
    # billions of rows.
    def empty_ids_block(t: pa.Table) -> pa.Table:
        is_empty = pc.equal(pc.utf8_length(t[text_col]), 0)
        return pa.table(
            {"id": pc.cast(t[id_col].filter(is_empty), pa.int64())}
        )

    empty_ids = np.sort(
        collect_table(
            ds.map_batches(empty_ids_block, batch_format="pyarrow"),
            pa.schema([("id", pa.int64())]),
        )["id"].to_numpy(zero_copy_only=False)
    )
    # 10k empties -> ~50M clique pairs (~1.2 GB of output rows) is the most
    # any caller plausibly wants materialized; beyond that the clique IS
    # the quadratic blow-up this guard exists to refuse
    if empty_ids.size > 10_000:
        raise ValueError(
            f"{empty_ids.size} empty-text docs form a quadratic J=1.0 "
            "clique; run exact_dedup on the empties first"
        )
    clique = None
    if empty_ids.size >= 2 and threshold <= 1.0:
        iu = np.triu_indices(empty_ids.size, k=1)
        clique = pa.table(
            {
                "left_id": pa.array(empty_ids[iu[0]]),
                "right_id": pa.array(empty_ids[iu[1]]),
                metric: pa.array(
                    np.ones(iu[0].size, dtype=np.float64), pa.float64()
                ),
            }
        )

    def with_clique(out_ds):
        return out_ds.union(rd.from_arrow(clique)) if clique is not None else out_ds

    rank_ref = None
    total_incidence = None
    if freq_order:
        lut = _gram_df_ranks(ds, text_col, n)
        if lut is not None:
            rank_ref = ray.put(lut[:2])
            total_incidence = lut[2]

    def prefix_stage(t: pa.Table) -> pa.Table:
        return _char_gram_prefix_rows(
            t[text_col].to_pylist(),
            t[id_col].to_numpy(zero_copy_only=False),
            n,
            block_t,
            rank_lut=ray.get(rank_ref) if rank_ref is not None else None,
        )

    keyed = ds.map_batches(prefix_stage, batch_format="pyarrow", zero_copy_batch=True)
    if total_incidence is not None and total_incidence <= GRAM_BROADCAST_INCIDENCE_MAX:
        # fused dense path: when every doc's gram-hash set fits ONE
        # broadcast, each hot bucket prunes candidates with a vectorized
        # intersection matmul instead of materializing its pair explosion
        # (28M raw pair rows -> ~the true survivors on the synthetic
        # corpus). Above the budget — real corpora at scale — the
        # AllPairs per-pair expansion path runs instead.
        gram_ref = _doc_gram_payload_ref(ds, text_col, id_col, n)
        cand = _matmul_bucket_pairs(
            keyed, gram_ref, threshold, max_bucket, id_col=id_col, metric=metric
        ).materialize()
    else:
        cand = lsh_candidate_pairs(keyed, max_bucket=max_bucket).materialize()
    if cand.count() == 0:
        return with_clique(rd.from_arrow(empty))

    # distinct candidate ids, Arrow-native end to end: per-block unique
    # inside map_batches (the pair stream can be millions of rows — row
    # dicts on the driver were 17 s where this is <1 s), then a driver
    # unique over the thinned per-block results
    def block_ids(t: pa.Table) -> pa.Table:
        u = np.unique(
            np.concatenate(
                [
                    t["left_id"].to_numpy(zero_copy_only=False),
                    t["right_id"].to_numpy(zero_copy_only=False),
                ]
            )
        ).astype(np.int64, copy=False)
        return pa.table({"id": pa.array(u)})

    id_tbl = collect_table(
        cand.map_batches(block_ids, batch_format="pyarrow"),
        pa.schema([("id", pa.int64())]),
    )
    cand_ids = np.unique(id_tbl["id"].to_numpy(zero_copy_only=False)).tolist()
    if len(cand_ids) <= TEXT_BROADCAST_MAX_DOCS:
        keep_cands = id_set_filter(np.asarray(cand_ids, np.int64), id_col, keep=True)
        text_tbl = collect_table(
            keep_cands(ds.select_columns([id_col, text_col])),
            pa.schema([(id_col, pa.int64()), (text_col, pa.large_string())]),
        )
        text_ref = ray.put(
            dict(zip(text_tbl[id_col].to_pylist(), text_tbl[text_col].to_pylist()))
        )
        return with_clique(
            stateful_map(
                cand,
                _NgramVerifier,
                {
                    "text_ref": text_ref,
                    "n": n,
                    "threshold": threshold,
                    "metric": metric,
                },
                batch_format="pyarrow",
                batch_size=65536,
            )
        )

    # distributed verify: hash-join the texts onto the pairs, one side at
    # a time (both joins key on a single int64; pairs are the tiny stream).
    # Partitions clamp to the candidate volume — 1 when the pair side is a
    # handful of rows (Dataset.join's HashShuffleAggregator ArrowInvalid on
    # hash-skewed tiny sides, see CLAUDE.md), growing for real volumes.
    parts = max(1, len(cand_ids) // joins.JOIN_PARTITION_ROWS)
    docs = ds.select_columns([id_col, text_col])
    left = cand.select_columns(["left_id", "right_id"]).join(
        docs.map_batches(
            lambda t: t.rename_columns(["left_id", "text_a"]), batch_format="pyarrow"
        ),
        join_type="inner",
        num_partitions=parts,
        on=("left_id",),
    )
    both = left.join(
        docs.map_batches(
            lambda t: t.rename_columns(["right_id", "text_b"]), batch_format="pyarrow"
        ),
        join_type="inner",
        num_partitions=parts,
        on=("right_id",),
    )

    def verify_joined(t: pa.Table) -> pa.Table:
        # gram sets cached per doc id within the batch (the join key
        # co-locates a doc's pairs, so reuse is high)
        cache: dict = {}

        def gs(i, txt):
            s = cache.get(i)
            if s is None:
                s = set(char_shingles(txt, n))
                cache[i] = s
            return s

        left = t["left_id"].to_pylist()
        right = t["right_id"].to_pylist()
        j = np.empty(len(left), dtype=np.float64)
        for i, (a, b, ta, tb) in enumerate(
            zip(left, right, t["text_a"].to_pylist(), t["text_b"].to_pylist())
        ):
            sa, sb = gs(a, ta), gs(b, tb)
            j[i] = _pair_metric(len(sa & sb), len(sa), len(sb), metric)
        keep = j >= threshold
        jr = np.floor(j * 1e6 + 0.5) / 1e6
        return pa.table(
            {
                "left_id": t["left_id"].filter(pa.array(keep)),
                "right_id": t["right_id"].filter(pa.array(keep)),
                metric: pa.array(jr[keep], pa.float64()),
            }
        )

    return with_clique(both.map_batches(verify_joined, batch_format="pyarrow"))


def minhash_pairs_distributed(
    sig_ds,
    bands: int = 16,
    threshold: float = 0.8,
    id_col: str = "doc_id",
    max_bucket: int = 64,
):
    """Distributed LSH tail: bands -> hot buckets -> fused in-bucket
    pair-expansion + signature-Jaccard verify -> per-pair max.

    Scale shape: signatures NEVER land on the driver. The only rows that
    reach the Python per-group verify are members of buckets holding >= 2
    docs (the hot-bucket prefilter is a native count-aggregate over a
    bucket_key-only projection, and the hot-key broadcast is size-guarded —
    above the broadcast budget the band rows semi-join instead, see
    :func:`hot_bucket_rows`); everything else is vectorized map_batches
    or native groupby. Per-pair traffic is O(hot rows x bands x sig_size).

    Verification is fused into the bucket group (signatures ride the
    explode) so no join or broadcast signature table is needed — the
    estimate for a pair is identical in every bucket that produces it, and
    the final groupby(left,right).max() dedups across bands."""
    import ray

    # two consumers (hot-key count + hot-row verify): materialize the small
    # (id, signature) dataset in the OBJECT STORE (spills fine), not driver
    sig_m = sig_ds.materialize()
    key_ds = minhash_bands(sig_m, bands=bands, id_col=id_col)
    hot_rows, n_hot = hot_bucket_rows(
        minhash_bands(sig_m, bands=bands, id_col=id_col, include_signature=True),
        count_ds=key_ds.select_columns(["bucket_key"]),
    )
    if hot_rows is None:
        return ray.data.from_arrow(_empty_pairs_table())

    def verify_bucket(group: pa.Table) -> pa.Table:
        ids = group[id_col].to_numpy(zero_copy_only=False)
        sigs = unpack_rows(group["signature"], len(ids))
        order = np.argsort(ids, kind="stable")[:max_bucket]
        ids, sigs = ids[order], sigs[order]
        n = len(ids)
        if n < 2:
            return _empty_pairs_table()
        est = (sigs[:, None, :] == sigs[None, :, :]).mean(axis=2)
        li, ri = np.triu_indices(n, k=1)
        keep = est[li, ri] >= threshold
        return pa.table(
            {
                "left_id": pa.array(ids[li[keep]], pa.int64()),
                "right_id": pa.array(ids[ri[keep]], pa.int64()),
                "est_jaccard": pa.array(est[li, ri][keep], pa.float64()),
            }
        )

    pairs = hot_rows.groupby("bucket_key").map_groups(
        verify_bucket, batch_format="pyarrow"
    )
    return dedupe_pair_stream(pairs, "est_jaccard", "max")


def minhash_dedup_pairs(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 128,
    bands: int = 16,
    threshold: float = 0.8,
    max_bucket: int = 64,
):
    """Full near-dup pipeline: signatures (distributed tasks) -> bands
    -> hot buckets -> in-bucket signature-Jaccard verify >= threshold.
    Returns a Dataset of (left_id, right_id, est_jaccard).

    The tail is fully distributed (:func:`minhash_pairs_distributed`) —
    signatures never materialize on the driver, so the pipeline keeps its
    shape at 10^12 docs. It produces the pair set of the single-node numpy
    reference :func:`_minhash_pairs_numpy` for buckets under
    ``max_bucket`` (asserted in tests)."""
    sig_ds = stateful_map(
        ds,
        MinHasher,
        {"num_perm": num_perm, "text_col": text_col, "id_col": id_col},
        batch_format="pyarrow",
        batch_size=512,
    )
    return minhash_pairs_distributed(
        sig_ds,
        bands=bands,
        threshold=threshold,
        id_col=id_col,
        max_bucket=max_bucket,
    )


def _empty_pairs_table() -> pa.Table:
    return pa.table(
        {
            "left_id": pa.array([], pa.int64()),
            "right_id": pa.array([], pa.int64()),
            "est_jaccard": pa.array([], pa.float64()),
        }
    )


def _band_run_pairs(band_vals: np.ndarray, max_bucket: int):
    """Deduped candidate row-index pairs ``(li, ri)``, ``li < ri``, of rows
    that share a value in any column of the (n, bands) ``band_vals``
    (vectorized: sort each band, expand only runs of length >= 2, the
    first ``max_bucket`` members of a run by row)."""
    n = band_vals.shape[0]
    left: list = []
    right: list = []
    for b in range(band_vals.shape[1]):
        order = np.argsort(band_vals[:, b], kind="stable")
        vals = band_vals[order, b]
        run_starts = np.flatnonzero(np.concatenate([[True], vals[1:] != vals[:-1]]))
        run_ends = np.concatenate([run_starts[1:], [n]])
        for s, e in zip(run_starts, run_ends):
            if e - s < 2:
                continue
            members = np.sort(order[s:e])[:max_bucket]
            iu = np.triu_indices(len(members), k=1)
            left.append(members[iu[0]])
            right.append(members[iu[1]])
    if not left:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    li = np.concatenate(left)
    ri = np.concatenate(right)
    combined = li.astype(np.uint64) << np.uint64(32) | ri.astype(np.uint64)
    uniq = np.unique(combined)
    return (uniq >> np.uint64(32)).astype(np.int64), (
        uniq & np.uint64(0xFFFFFFFF)
    ).astype(np.int64)


def _id_pair_table(ids, li, ri, value_col: str, values) -> pa.Table:
    """(left_id, right_id, value_col) with each pair's ids in ascending order."""
    l_ids, r_ids = ids[li], ids[ri]
    swap = l_ids > r_ids
    l_ids[swap], r_ids[swap] = r_ids[swap], l_ids[swap]
    return pa.table(
        {
            "left_id": pa.array(l_ids, pa.int64()),
            "right_id": pa.array(r_ids, pa.int64()),
            value_col: pa.array(values),
        }
    )


def _minhash_pairs_numpy(
    ids: np.ndarray, sigs: np.ndarray, bands: int = 16, threshold: float = 0.8,
    max_bucket: int = 64,
) -> pa.Table:
    """Single-node reference for :func:`minhash_pairs_distributed`: every
    doc's (id, signature) row in driver memory, one vectorized pass."""
    li, ri = _band_run_pairs(_band_hashes(sigs, bands), max_bucket)
    est = (sigs[li] == sigs[ri]).mean(axis=1)
    keep = est >= threshold
    return _id_pair_table(
        ids, li[keep], ri[keep], "est_jaccard", pa.array(est[keep], pa.float64())
    )


def connected_components(pairs_ds, ds_ids, id_col: str = "doc_id"):
    """Union-find over verified near-dup pairs -> cluster representative
    (min node id) per doc. Proper union-find — union at the ROOTS with path
    compression, keeping the smaller root as parent — so convergence is
    exact regardless of edge order and needs no round cap. Driver-side:
    right when the verified edge set fits one node (near-dup edges are tiny
    relative to the corpus); use :func:`connected_components_distributed`
    when it doesn't."""
    import pandas as pd

    edges = pairs_ds.select_columns(["left_id", "right_id"]).to_pandas()
    parent = {i: i for i in ds_ids}

    def find(x):
        r = x
        while parent[r] != r:
            r = parent[r]
        while parent[x] != r:  # path compression
            parent[x], x = r, parent[x]
        return r

    for a, b in edges.itertuples(index=False):
        ra, rb = find(a), find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra  # smaller root wins -> representative = min id

    return pd.DataFrame(
        {id_col: list(parent), "cluster": [find(i) for i in parent]}
    )


def connected_components_distributed(
    pairs_ds,
    nodes_ds=None,
    id_col: str = "doc_id",
    num_partitions: int = 16,
    max_rounds: int = 50,
):
    """Distributed min-label propagation over the verified pair set.

    Each round: every edge forwards its endpoints' current labels both ways
    (hash join edges x labels), each node takes the min over incoming labels
    and its own (union + native groupby-min), then one pointer-jumping step
    (label := label-of-label, a labels self-join) halves remaining chain
    depth — so convergence needs O(log diameter) rounds, not O(diameter).

    Per-node labels are monotone non-increasing (min with own label; pointer
    jump follows labels that are themselves <= the node id), so the global
    label SUM strictly decreases until the fixpoint — convergence is detected
    by one cheap distributed sum per round instead of a third hash join.
    No labels ever materialize on the driver. Returns a Dataset
    (id_col, cluster).

    ``nodes_ds`` optionally supplies isolated nodes (single-column id_col
    dataset); otherwise only nodes appearing in edges are labeled.
    ``num_partitions`` is an upper bound: Ray's hash-join operator pays
    ~0.5-1 s fixed cost per partition actor, so small edge sets are
    auto-clamped to a couple of partitions.
    """
    import ray
    from ray.data.aggregate import Min

    def both_dirs(t: pa.Table) -> pa.Table:
        left = t["left_id"].to_numpy(zero_copy_only=False)
        right = t["right_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "src": pa.array(np.concatenate([left, right]), pa.int64()),
                "dst": pa.array(np.concatenate([right, left]), pa.int64()),
            }
        )

    edges = (
        pairs_ds.select_columns(["left_id", "right_id"])
        .map_batches(both_dirs, batch_format="pyarrow", zero_copy_batch=True)
        .materialize()
    )

    def own_cluster(t: pa.Table) -> pa.Table:
        return pa.table({id_col: t.column(0), "cluster": t.column(0)})

    if edges.count() == 0:
        # no edges: every supplied node is its own cluster (an empty edge
        # dataset has no schema, which would break the hash joins below)
        if nodes_ds is None:
            return ray.data.from_arrow(
                pa.table(
                    {id_col: pa.array([], pa.int64()), "cluster": pa.array([], pa.int64())}
                )
            )
        return (
            nodes_ds.select_columns([id_col])
            .groupby(id_col)
            .min(id_col, ignore_nulls=True)
            .map_batches(own_cluster, batch_format="pyarrow")
        )
    n_edges = edges.count()
    if n_edges <= joins.DIM_BROADCAST_MAX:
        # small edge set (the usual dedup regime: pairs are rare): the
        # repo's broadcast-small-side convention — min-label iterate the
        # edge list in numpy on the driver (O(E log n) total, no joins;
        # two int64 endpoint arrays, ~64 MB at the budget), then ONE
        # shuffle-free map labels every node. The join loop below
        # costs ~1-2 s of fixed hash-join actor time PER ROUND regardless
        # of volume; above the budget it remains the scale path.
        et = collect_table(
            edges, pa.schema([("src", pa.int64()), ("dst", pa.int64())])
        )
        src = et["src"].to_numpy(zero_copy_only=False)
        dst = et["dst"].to_numpy(zero_copy_only=False)
        ids = np.unique(src)  # edges carry both directions: src covers all
        si = np.searchsorted(ids, src)
        di = np.searchsorted(ids, dst)
        lab = ids.copy()
        for _ in range(max_rounds):
            before = lab.sum()
            np.minimum.at(lab, di, lab[si])  # edge-forwarded min labels
            lab = lab[np.searchsorted(ids, lab)]  # pointer jump
            if lab.sum() == before:
                break
        else:
            raise RuntimeError(
                "connected_components_distributed: driver tier found no "
                f"fixpoint after {max_rounds} rounds"
            )
        lab_ref = ray.put((ids, lab))
        edge_labels = ray.data.from_arrow(
            pa.table({id_col: pa.array(ids), "cluster": pa.array(lab)})
        )
        if nodes_ds is None:
            return edge_labels

        def isolated(t: pa.Table) -> pa.Table:
            # nodes_ds rows NOT in the edge set keep their own id as the
            # cluster; edge nodes are emitted by edge_labels above
            # (nodes_ds is assumed id-unique, as every in-repo caller's is)
            k, _v = ray.get(lab_ref)
            x = t.column(0).to_numpy(zero_copy_only=False)
            pos = np.minimum(np.searchsorted(k, x), len(k) - 1)
            iso = t.filter(pa.array(k[pos] != x))
            return pa.table(
                {id_col: iso.column(0), "cluster": iso.column(0)}
            )

        return edge_labels.union(
            nodes_ds.select_columns([id_col]).map_batches(
                isolated, batch_format="pyarrow"
            )
        )
    # join fixed overhead scales with partition count -> clamp to edge volume
    # (~1M edge-endpoints per partition) while honoring the caller's ceiling.
    # Floor is ONE partition: num_partitions >= 2 with a handful of edge rows
    # hits Dataset.join's HashShuffleAggregator ArrowInvalid on hash-skewed
    # tiny sides (CLAUDE.md gotcha).
    num_partitions = max(1, min(num_partitions, n_edges // 1_000_000 + 1))

    node_sets = [edges.map_batches(
        lambda t: pa.table({id_col: t["src"]}), batch_format="pyarrow"
    )]
    if nodes_ds is not None:
        node_sets.append(nodes_ds.select_columns([id_col]))
    nodes = node_sets[0] if len(node_sets) == 1 else node_sets[0].union(node_sets[1])
    labels = (
        nodes.groupby(id_col)
        .min(id_col, ignore_nulls=True)
        .map_batches(own_cluster, batch_format="pyarrow")
        .materialize()
    )
    prev_sum = labels.sum("cluster")
    converged = False
    for _ in range(max_rounds):
        msgs = edges.join(
            labels,
            join_type="inner",
            num_partitions=num_partitions,
            on=("src",),
            right_on=(id_col,),
        ).map_batches(
            lambda t: pa.table({id_col: t["dst"], "cluster": t["cluster"]}),
            batch_format="pyarrow",
        )
        propagated = (
            labels.union(msgs)
            .groupby(id_col)
            .aggregate(Min("cluster", alias_name="cluster"))
            .materialize()  # consumed twice by the self-join below
        )
        # pointer jump: cluster := cluster-of-cluster (labels are node ids
        # inside the same component, so the lookup always hits)
        labels = (
            propagated.join(
                propagated,
                join_type="inner",
                num_partitions=num_partitions,
                on=("cluster",),
                right_on=(id_col,),
                right_suffix="_r",
            )
            .map_batches(
                lambda t: pa.table({id_col: t[id_col], "cluster": t["cluster_r"]}),
                batch_format="pyarrow",
            )
            .materialize()
        )
        cur_sum = labels.sum("cluster")
        if cur_sum == prev_sum:
            converged = True
            break
        prev_sum = cur_sum
    if not converged:
        # silently-unconverged labels would fail downstream oracles with no
        # diagnostic pointing here; pointer jumping needs O(log diameter)
        # rounds, so exhaustion means a pathological graph or too-small cap
        raise RuntimeError(
            f"connected_components_distributed: no fixpoint after "
            f"{max_rounds} rounds; raise max_rounds"
        )
    return labels


def simhash_signatures(texts, seed: int = 0) -> np.ndarray:
    """Vectorized 64-bit SimHash for a batch: one murmur pass over ALL tokens
    of the batch + a segment-reduce per document."""
    tokens: list = []
    counts = np.empty(len(texts), dtype=np.int64)
    for i, t in enumerate(texts):
        toks = t.split() if t else []
        counts[i] = len(toks)
        tokens.extend(toks)
    out = np.zeros(len(texts), dtype=np.uint64)
    if not tokens:
        return out
    hs = hash_keys(tokens, (seed,))[0]
    bits = ((hs[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(np.int32)
    contrib = 2 * bits - 1  # (T, 64) in {-1, +1}
    nonempty = np.nonzero(counts > 0)[0]
    bounds = np.concatenate([[0], np.cumsum(counts[nonempty])])[:-1]
    sums = np.add.reduceat(contrib, bounds, axis=0)  # (n_nonempty, 64)
    sig_bits = (sums > 0).astype(np.uint64)
    weights = np.uint64(1) << np.arange(64, dtype=np.uint64)
    out[nonempty] = sig_bits @ weights
    return out


def _empty_hamming_table() -> pa.Table:
    return pa.table(
        {
            "left_id": pa.array([], pa.int64()),
            "right_id": pa.array([], pa.int64()),
            "hamming": pa.array([], pa.int64()),
        }
    )


def _hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row Hamming distance (int64) between two uint64 arrays."""
    x = a ^ b
    return (
        np.unpackbits(x.view(np.uint8).reshape(len(x), 8), axis=1)
        .sum(axis=1)
        .astype(np.int64)
    )


def simhash_pairs_distributed(
    sig_ds,
    max_hamming: int = 3,
    id_col: str = "doc_id",
    max_bucket: int = 256,
):
    """Distributed SimHash tail on the same bucket_key machinery as MinHash:
    4x16-bit band keys -> native hot-bucket count (size-guarded broadcast /
    semi-join, see :func:`hot_bucket_rows`) -> fused in-bucket Hamming
    verify -> per-pair dedup. Simhashes (8 B/doc) ride the explode, so the
    verify needs no join and no driver-side signature table."""
    import ray

    def explode(batch: pa.Table) -> pa.Table:
        sigs = batch["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        n = len(ids)
        band_id = np.repeat(np.arange(4, dtype=np.uint64), n)
        band_val = np.concatenate(
            [(sigs >> np.uint64(16 * b)) & np.uint64(0xFFFF) for b in range(4)]
        )
        key = _combined_key(band_id, band_val)
        return pa.table(
            {
                "bucket_key": pa.array(key.view(np.int64)),
                id_col: pa.array(np.tile(ids, 4)),
                "simhash": pa.array(np.tile(sigs, 4)),
            }
        )

    sig_m = sig_ds.materialize()
    band_ds = sig_m.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
    hot_rows, n_hot = hot_bucket_rows(
        band_ds, count_ds=band_ds.select_columns(["bucket_key"])
    )
    if hot_rows is None:
        return ray.data.from_arrow(_empty_hamming_table())

    def verify_bucket(group: pa.Table) -> pa.Table:
        ids = group[id_col].to_numpy(zero_copy_only=False)
        sigs = group["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        order = np.argsort(ids, kind="stable")[:max_bucket]
        ids, sigs = ids[order], sigs[order]
        n = len(ids)
        if n < 2:
            return _empty_hamming_table()
        li, ri = np.triu_indices(n, k=1)
        ham = _hamming64(sigs[li], sigs[ri])
        keep = ham <= max_hamming
        return pa.table(
            {
                "left_id": pa.array(ids[li[keep]], pa.int64()),
                "right_id": pa.array(ids[ri[keep]], pa.int64()),
                "hamming": pa.array(ham[keep]),
            }
        )

    pairs = hot_rows.groupby("bucket_key").map_groups(
        verify_bucket, batch_format="pyarrow"
    )
    # the same pair carries the same hamming in every colliding band; min()
    # is just the dedup that keeps one row per pair
    return dedupe_pair_stream(pairs, "hamming", "min")


def simhash_signature_ds(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Distributed (doc_id, simhash:uint64) signature dataset."""

    def sig_stage(batch: pa.Table) -> pa.Table:
        sigs = simhash_signatures(batch[text_col].to_pylist())
        return pa.table({id_col: batch[id_col], "simhash": pa.array(sigs)})

    return ds.map_batches(sig_stage, batch_format="pyarrow")


def simhash_candidates(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_hamming: int = 3,
    max_bucket: int = 256,
):
    """SimHash near-dup: signature -> 4x16-bit band blocking -> Hamming verify.

    Two docs within Hamming distance 3 share at least one of the four 16-bit
    bands (pigeonhole), so band-equality blocking is lossless for
    max_hamming <= 3. The tail is fully distributed
    (:func:`simhash_pairs_distributed` — hot-bucket prefilter + in-bucket
    verify; signatures never land on the driver); the single-node numpy
    reference :func:`_simhash_pairs_numpy` gives the same pair set.
    Returns (left_id, right_id, hamming) pairs."""
    sig_ds = simhash_signature_ds(ds, text_col=text_col, id_col=id_col)
    return simhash_pairs_distributed(
        sig_ds, max_hamming=max_hamming, id_col=id_col, max_bucket=max_bucket
    )


def _simhash_pairs_numpy(
    ids: np.ndarray, sigs: np.ndarray, max_hamming: int = 3, max_bucket: int = 256
) -> pa.Table:
    """Single-node reference for :func:`simhash_pairs_distributed`: every
    doc's (id, simhash) in driver memory, one vectorized pass."""
    bands = np.column_stack(
        [(sigs >> np.uint64(16 * b)) & np.uint64(0xFFFF) for b in range(4)]
    )
    li, ri = _band_run_pairs(bands, max_bucket)
    ham = _hamming64(sigs[li], sigs[ri])
    keep = ham <= max_hamming
    return _id_pair_table(ids, li[keep], ri[keep], "hamming", ham[keep])


_INC_SEED1, _INC_SEED2 = 0x5EED0001, 0x5EED0002


def _doc_fp_column(col) -> pa.Array:
    """Whole-doc 128-bit two-seed fingerprint as 16-byte large_binary
    (one hash_keys traversal under both seeds; the repo's exactness
    convention)."""
    h1, h2 = hash_keys(col, (_INC_SEED1, _INC_SEED2))
    return pack_rows(np.column_stack([h1, h2]))


def incremental_dedup(
    new_ds,
    old_ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    err_rate: float = 1e-3,
):
    """Day-2 dedup: keep only the rows of ``new_ds`` whose ``text_col``
    does NOT already appear in ``old_ds`` — the reference's
    Contains-before-store guard (bloom.go:220-236) as the incremental
    corpus-ingest gate.

    Scale shape: the OLD corpus is distilled once into (a) a per-block-
    distinct whole-doc fingerprint Dataset and (b) a Bloom filter over
    those fingerprints, broadcast once. There is deliberately NO global
    distinct shuffle over the old corpus: bloom add is idempotent and the
    verify tier unions per-block seen-sets, so cross-block duplicate fps
    are harmless — the filter is merely sized on the (upper-bound)
    per-block-distinct count, which oversizes it in the safe direction.
    Each new batch fingerprints its docs and probes the filter in the
    same pass; provably-unseen rows stream straight through (no false
    negatives), and only the maybe rows — a tiny superset of the true
    duplicates — pay the exact size-guarded anti-join against the old
    fingerprint set (``id_set_filter``). The maybe split is materialized
    once (delta-shard-sized, not corpus-sized)."""
    import ray

    from ..kernel.sketch import SketchSpec
    from .builder import build_sketch
    from .probe import probe_filter

    def old_fp_block(t: pa.Table) -> pa.Table:
        fp = _doc_fp_column(t[text_col])
        # distinct within the block only — see docstring for why a global
        # distinct groupby would be a wasted all-to-all here
        arr = fp.to_numpy(zero_copy_only=False)
        _, idx = np.unique(arr, return_index=True)
        return pa.table(
            {"fp": fp.take(pa.array(np.sort(idx))).cast(pa.large_binary())}
        )

    old_fp = old_ds.map_batches(
        old_fp_block, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    n_old = old_fp.count()
    if n_old == 0:
        return new_ds

    bf = build_sketch(old_fp, SketchSpec.of("bloom", err_rate, max(n_old, 11)), on="fp")

    def add_fp(t: pa.Table) -> pa.Table:
        return t.append_column("fp", _doc_fp_column(t[text_col]))

    flagged = probe_filter(
        new_ds.map_batches(add_fp, batch_format="pyarrow", zero_copy_batch=True),
        bf,
        on="fp",
        flag_column="__maybe",
    ).materialize()  # consumed twice (definite pass-through + maybe verify)

    def strip(t: pa.Table) -> pa.Table:
        return t.drop_columns(["fp", "__maybe"])

    definite_new = flagged.filter(expr="__maybe == False").map_batches(
        strip, batch_format="pyarrow"
    )
    maybes = flagged.filter(expr="__maybe == True").materialize()
    n_maybe = maybes.count()
    if n_maybe == 0:
        return definite_new

    fp_schema = pa.schema([("fp", pa.large_binary())])
    if n_maybe <= joins.DIM_BROADCAST_MAX:
        # probe the BIG side with the SMALL side broadcast (no shuffle at
        # all): stream old_fp once against the sorted maybe-fp array to
        # find which maybe fps are truly seen, then drop those rows
        mfp = np.unique(
            collect_table(maybes.select_columns(["fp"]), fp_schema)[
                "fp"
            ].to_numpy(zero_copy_only=False)
        )
        mref = ray.put(mfp)

        def old_hits(t: pa.Table) -> pa.Table:
            m = ray.get(mref)
            a = t["fp"].to_numpy(zero_copy_only=False)
            pos = np.minimum(np.searchsorted(m, a), m.size - 1)
            return pa.table(
                {"fp": t["fp"].filter(pa.array(m[pos] == a))}
            ).cast(fp_schema)

        seen = np.unique(
            collect_table(
                old_fp.map_batches(old_hits, batch_format="pyarrow"),
                fp_schema,
            )["fp"].to_numpy(zero_copy_only=False)
        )
        seen_ref = ray.put(seen)

        def drop_seen_rows(t: pa.Table) -> pa.Table:
            s = ray.get(seen_ref)
            a = t["fp"].to_numpy(zero_copy_only=False)
            if not s.size:
                return strip(t)
            pos = np.minimum(np.searchsorted(s, a), s.size - 1)
            return strip(t.filter(pa.array(s[pos] != a)))

        verified_new = maybes.map_batches(drop_seen_rows, batch_format="pyarrow")
    else:
        drop_seen = id_set_filter(
            old_fp,
            "fp",
            keep=False,
            n_ids=n_old,
            key_type=pa.large_binary(),
            num_partitions=max(1, n_maybe // 4_000_000),
        )
        verified_new = drop_seen(maybes).map_batches(strip, batch_format="pyarrow")
    return definite_new.union(verified_new)


# --------------------------------------------------------------------------
# Cross-corpus span dedup (C4/MassiveText-style line dedup at token-window
# granularity)
# --------------------------------------------------------------------------

_SPAN_PACK_BITS = 20  # span_no < 2^20 (a 10M-token doc); doc_id < 2^43


def span_explode(
    t: pa.Table,
    span_tokens: int = 10,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> pa.Table:
    """Rows -> (span, pack) rows: non-overlapping ``span_tokens``-token
    windows of the single-space token stream, fully vectorized (one split,
    one ListArray rebuild at span boundaries, one binary_join — no Python
    per row). ``pack = doc_id << 20 | span_no`` so a native int64 min is
    the lexicographic first occurrence (the dedupe_pair_stream packing
    convention). Tokenization contract shared with the DuckDB twin:
    ``string_split(text, ' ')`` — literal single space, no trim, empty
    text yields one empty token (one empty span) on both engines."""
    texts = t[text_col]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    texts = pc.fill_null(texts, "")
    toks = pc.split_pattern(texts, " ")
    offsets = np.asarray(toks.offsets, dtype=np.int64)
    offsets = offsets - offsets[0]
    counts = np.diff(offsets)
    n_flat = int(offsets[-1])
    if n_flat == 0:
        return pa.table(
            {"span": pa.array([], pa.string()), "pack": pa.array([], pa.int64())}
        )
    pos = np.arange(n_flat, dtype=np.int64) - np.repeat(offsets[:-1], counts)
    span_starts = np.flatnonzero(pos % span_tokens == 0)
    span_offsets = np.append(span_starts, n_flat)
    spans_list = pa.ListArray.from_arrays(
        pa.array(span_offsets, pa.int32()), toks.flatten()
    )
    span_str = pc.binary_join(spans_list, " ")
    doc_of = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    ids = t[id_col].combine_chunks().to_numpy(zero_copy_only=False)
    span_doc = ids[doc_of[span_starts]]
    span_no = pos[span_starts] // span_tokens
    if span_no.size and (
        int(span_no.max()) >= (1 << _SPAN_PACK_BITS)
        or int(span_doc.max()) >= (1 << (62 - _SPAN_PACK_BITS))
        or int(span_doc.min()) < 0
    ):
        raise ValueError(
            "span pack overflow: need doc_id < 2^42 and < 2^20 spans/doc"
        )
    pack = (span_doc << _SPAN_PACK_BITS) | span_no
    return pa.table(
        {"span": span_str, "pack": pa.array(pack, pa.int64())}
    )


def span_dedup_stats(
    ds,
    span_tokens: int = 10,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """Cross-corpus exact span dedup, keep-first semantics — the C4-style
    "remove duplicated lines/spans across documents" hygiene op over
    fixed ``span_tokens``-token windows. Returns one row per doc:
    (doc_id, n_spans, n_kept, n_dropped) where a span occurrence is KEPT
    iff it is the globally first occurrence of that span text (min
    (doc_id, span_no), via the int64 pack).

    Scale shape: the only all-to-all is ONE groupby on the span text
    (native min-aggregate — winners come straight out of the shuffle, no
    join back to the exploded stream, because the kept occurrences ARE
    the winners). Winner rows pre-aggregate per block to (doc_id, count)
    before the tiny doc-cardinality groupby; per-doc span totals ride a
    separate cheap scan and merge via a marker-column union instead of a
    join (one doc-cardinality shuffle, zero join actors)."""
    from ray.data.aggregate import Sum

    def explode(t: pa.Table) -> pa.Table:
        # per-block combiner: local min-pack per span shrinks the exchange
        # to one row per (block, distinct span) before the global groupby
        e = span_explode(t, span_tokens, text_col, id_col)
        agg = e.group_by(["span"]).aggregate([("pack", "min")])
        return agg.rename_columns(["span", "pack"])

    winners = ds.map_batches(explode, batch_format="pyarrow").groupby(
        "span"
    ).min("pack")

    def winner_counts(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "n_spans": pa.array([], pa.int64()),
                    "n_kept": pa.array([], pa.int64()),
                }
            )
        doc = pc.shift_right(t["min(pack)"], _SPAN_PACK_BITS)
        agg = (
            pa.table({id_col: doc})
            .group_by([id_col])
            .aggregate([([], "count_all")])
        )
        n = agg.column("count_all").cast(pa.int64())
        return pa.table(
            {
                id_col: agg.column(id_col),
                "n_spans": pa.nulls(len(agg), pa.int64()).fill_null(0),
                "n_kept": n,
            }
        )

    kept = winners.map_batches(winner_counts, batch_format="pyarrow")

    def total_counts(t: pa.Table) -> pa.Table:
        texts = t[text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        texts = pc.fill_null(texts, "")
        n_tok = pc.add(
            pc.count_substring(texts, " ").cast(pa.int64()), 1
        )
        n_spans = pc.add(
            pc.divide(pc.subtract(n_tok, 1), span_tokens), 1
        )  # ceil(n_tok / span_tokens) for n_tok >= 1
        return pa.table(
            {
                id_col: t[id_col],
                "n_spans": n_spans,
                "n_kept": pa.nulls(t.num_rows, pa.int64()).fill_null(0),
            }
        )

    totals = ds.map_batches(total_counts, batch_format="pyarrow")

    merged = (
        totals.union(kept)
        .groupby(id_col)
        .aggregate(Sum("n_spans", alias_name="n_spans"), Sum("n_kept", alias_name="n_kept"))
    )

    def finish(t: pa.Table) -> pa.Table:
        return t.append_column(
            "n_dropped", pc.subtract(t["n_spans"], t["n_kept"])
        )

    return merged.map_batches(finish, batch_format="pyarrow").sort(id_col)


def winnow_select(h: np.ndarray, d: np.ndarray, w: int):
    """Winnowing fingerprint selection (Schleimer-Wilkerson-Aiken 2003,
    the MOSS algorithm): over each doc's POSITIONAL gram-hash sequence,
    every window of ``w`` consecutive hashes contributes its RIGHTMOST
    minimal hash; the distinct selected positions are the fingerprints.

    Guarantees (the paper's): any substring match long enough to span a
    full window (>= w + k - 1 chars for char-k-grams) yields at least one
    SHARED fingerprint (coverage), and the expected density is 2/(w+1) —
    the sub-sampling knob that makes fingerprint-based dedup linear in
    corpus size instead of gram count. Docs with fewer than ``w`` grams
    contribute their single rightmost-minimal hash, so every non-empty
    doc has >= 1 fingerprint.

    Fully vectorized: one ``sliding_window_view`` over the concatenated
    hash stream with a doc-boundary mask; rightmost-min via argmin on the
    reversed window axis. Returns selected positions into ``h``."""
    if w < 1:
        raise ValueError("w must be >= 1")
    if h.size == 0:
        return np.empty(0, np.int64)
    sizes = np.bincount(d, minlength=int(d.max()) + 1)
    sel_long = np.empty(0, np.int64)
    if h.size >= w:
        wins = np.lib.stride_tricks.sliding_window_view(h, w)
        valid = d[: h.size - w + 1] == d[w - 1 :]
        if valid.any():
            rev_am = wins[valid][:, ::-1].argmin(axis=1)
            pos = np.flatnonzero(valid) + (w - 1 - rev_am)
            sel_long = np.unique(pos)
    short_docs = (sizes > 0) & (sizes < w)
    sel_short = np.empty(0, np.int64)
    if short_docs.any():
        sub = np.flatnonzero(short_docs[d])
        hs, ds_ = h[sub], d[sub]
        order = np.lexsort((-sub, hs, ds_))  # per doc: min hash, max pos
        dd = ds_[order]
        first = np.ones(order.size, bool)
        first[1:] = dd[1:] != dd[:-1]
        sel_short = sub[order][first]
    return np.union1d(sel_long, sel_short)


def winnow_fingerprint_rows(ds, k: int = 3, w: int = 4,
                            text_col: str = "text", id_col: str = "doc_id"):
    """Per-doc DISTINCT winnow fingerprints as a (id_col, fp) Dataset —
    the sub-sampled alternative to the full gram stream (expected
    2/(w+1) of the grams shuffle instead of all of them)."""

    def block(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        h, d = _doc_gram_hashes(t[text_col].to_pylist(), k, distinct=False)
        sel = winnow_select(h, d, w)
        fp, dd = h[sel], d[sel]
        order = np.lexsort((fp, dd))  # distinct (doc, fp)
        fp, dd = fp[order], dd[order]
        if fp.size:
            keep = np.ones(fp.size, bool)
            keep[1:] = (fp[1:] != fp[:-1]) | (dd[1:] != dd[:-1])
            fp, dd = fp[keep], dd[keep]
        return pa.table(
            {
                id_col: pa.array(ids[dd], pa.int64()),
                "fp": pa.array(fp.view(np.int64)),
            }
        )

    return ds.select_columns([id_col, text_col]).map_batches(
        block, batch_format="pyarrow", zero_copy_batch=True
    )


def winnow_shared_docs(ds, k: int = 3, w: int = 4, min_docs: int = 2,
                       text_col: str = "text", id_col: str = "doc_id"):
    """Winnowed self-dedup signal: per doc, total fingerprints and how
    many are shared with >= ``min_docs - 1`` other docs — the
    ExactSubstr-style flagging tail over the 2/(w+1)-density winnow
    fingerprint stream (the 100 TB shape for substring-dup detection:
    neither the text nor the full gram stream ever shuffles).

    One fingerprint groupby finds shared fps; the shared SET rides back
    size-guarded (broadcast searchsorted up to ``joins.DIM_BROADCAST_MAX``
    fps, distributed left join with partitions clamped above); then ONE
    per-doc aggregate emits (id_col, n_fps, n_shared) for every doc with >= 1
    fingerprint."""
    import ray

    fps = winnow_fingerprint_rows(
        ds, k=k, w=w, text_col=text_col, id_col=id_col
    ).materialize()  # consumed by the fp-count pass and the mark pass
    out_schema = pa.schema(
        [(id_col, pa.int64()), ("n_fps", pa.int64()), ("n_shared", pa.int64())]
    )
    if fps.count() == 0:
        return out_schema.empty_table()
    counts = fps.groupby("fp").count()

    def keep_shared(t: pa.Table) -> pa.Table:
        m = pc.greater_equal(t["count()"], pa.scalar(min_docs, pa.int64()))
        return pa.table({"fp": t["fp"].filter(m)})

    shared = counts.map_batches(
        keep_shared, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    ns = shared.count()
    if ns <= joins.DIM_BROADCAST_MAX:
        arr = np.sort(
            collect_table(shared, pa.schema([("fp", pa.int64())]))[
                "fp"
            ].to_numpy(zero_copy_only=False)
        )
        shared_ref = ray.put(arr)

        def mark(t: pa.Table) -> pa.Table:
            sh = ray.get(shared_ref)
            f = t["fp"].to_numpy(zero_copy_only=False)
            if sh.size:
                pos = np.minimum(np.searchsorted(sh, f), sh.size - 1)
                hit = (sh[pos] == f).astype(np.int64)
            else:
                hit = np.zeros(len(f), np.int64)
            return pa.table(
                {
                    id_col: t[id_col],
                    "one": pa.array(np.ones(len(f), np.int64)),
                    "hit": pa.array(hit),
                }
            )

        marked = fps.map_batches(mark, batch_format="pyarrow")
    else:
        def flag(t: pa.Table) -> pa.Table:
            return t.append_column("hit", pa.array(np.ones(t.num_rows, np.int64)))

        parts = max(1, ns // joins.JOIN_PARTITION_ROWS)
        joined = fps.join(
            shared.map_batches(flag, batch_format="pyarrow"),
            join_type="left_outer",
            num_partitions=parts,
            on=("fp",),
        )
        marked = joined.map_batches(
            lambda t: pa.table(
                {
                    id_col: t[id_col],
                    "one": pa.array(np.ones(t.num_rows, np.int64)),
                    "hit": pc.fill_null(t["hit"], 0).cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    agg = marked.groupby(id_col).sum(["one", "hit"], ignore_nulls=True)
    return agg.map_batches(
        lambda t: pa.table(
            {
                id_col: t[id_col],
                "n_fps": t["sum(one)"].cast(pa.int64()),
                "n_shared": t["sum(hit)"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    ).sort(id_col)
