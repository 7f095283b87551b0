"""Benchmark decontamination: flag corpus docs sharing word n-grams with a
held-out benchmark set.

The standard LLM training-data hygiene pass (GPT-3 appendix-C style
13-gram decontamination): any training document that shares a word n-gram
with an evaluation benchmark is flagged (and usually dropped). At 100 TB
the corpus side must stream while the benchmark side is small (millions of
grams), which makes this the signature workload of this engine — the
reference's Contains-before-store guard (/root/reference/bloom.go:220-236)
applied as a distributed semi-join accelerator:

1. benchmark grams -> one DISTINCT pass -> a Bloom filter built with the
   distributed tree merge, broadcast ONCE (``ray.put``);
2. the corpus gram stream is pruned per batch by the broadcast filter
   (no false negatives, so pruning is lossless);
3. survivors — a tiny superset of the true hits — go through an EXACT
   size-guarded join against the distinct benchmark-gram set
   (``broadcast_lookup_join``: map-side searchsorted up to the budget,
   distributed hash join above it);
4. one ``groupby(doc_id).count()`` yields shared-distinct-gram counts.

Gram identity is a 128-bit two-seed murmur fingerprint of the token
sequence (the repo-wide exact-dedup convention, stages/dedup.py): sequence
equality implies fingerprint equality, and a 128-bit collision is
negligible at any realistic gram count, so the counts are exact and
DuckDB-oracle-checkable (word n-grams are SQL-expressible via
``string_split`` + list slicing).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..kernel.murmur3 import _nfmix, hash_keys
from .dedup import pack_rows

# independent token-hash seeds + odd polynomial multipliers (splitmix64 /
# golden-ratio constants) for the two fingerprint lanes
_SEED1, _SEED2 = 0x51ED270B, 0x2545F491
_P1 = np.uint64(0x9E3779B97F4A7C15)
_P2 = np.uint64(0xC2B2AE3D27D4EB4F)


def word_gram_fingerprints(texts, n: int):
    """DISTINCT word-n-gram fingerprints per doc, vectorized over the batch.

    Tokenization is a plain single-space split (the twin of SQL
    ``string_split(text, ' ')``). Returns ``(doc_idx, g1, g2)``: int64 row
    indices into ``texts`` and the two uint64 fingerprint lanes, one row
    per (doc, distinct gram). Docs with fewer than ``n`` tokens contribute
    nothing. One two-seed murmur pass over the flattened token array, a
    sliding polynomial combine (no per-row Python), then a lexsort dedup.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    toks = pc.split_pattern(pc.fill_null(texts, ""), " ")
    offsets = np.asarray(toks.offsets).astype(np.int64)
    offsets = offsets - offsets[0]
    flat = toks.flatten()

    empty = (
        np.empty(0, np.int64),
        np.empty(0, np.uint64),
        np.empty(0, np.uint64),
    )
    total = len(flat)
    nw = total - n + 1
    if nw <= 0:
        return empty

    th1, th2 = hash_keys(flat, (_SEED1, _SEED2))
    counts = np.diff(offsets)
    doc_of = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    # a window starting at s is a real gram iff it ends inside the same doc
    valid = doc_of[:nw] == doc_of[n - 1 :]
    if not valid.any():
        return empty
    g1 = np.zeros(nw, np.uint64)
    g2 = np.zeros(nw, np.uint64)
    with np.errstate(over="ignore"):
        for j in range(n):
            g1 = g1 * _P1 + th1[j : j + nw]
            g2 = g2 * _P2 + th2[j : j + nw]
    g1, g2 = _nfmix(g1), _nfmix(g2)

    d, g1, g2 = doc_of[:nw][valid], g1[valid], g2[valid]
    order = np.lexsort((g2, g1, d))
    d, g1, g2 = d[order], g1[order], g2[order]
    keep = np.ones(d.size, bool)
    keep[1:] = (d[1:] != d[:-1]) | (g1[1:] != g1[:-1]) | (g2[1:] != g2[:-1])
    return d[keep], g1[keep], g2[keep]


def _fp_column(g1: np.ndarray, g2: np.ndarray) -> pa.Array:
    """16-byte large_binary fingerprints (hash-join-safe payload packing)."""
    return pack_rows(np.column_stack([g1, g2]))


def gram_stream(ds, text_col: str, id_col: str, n: int):
    """(id, gram) stream: one row per (doc, distinct word-n-gram)."""

    def to_grams(batch: pa.Table) -> pa.Table:
        d, g1, g2 = word_gram_fingerprints(batch[text_col], n)
        ids = batch[id_col].combine_chunks().take(pa.array(d, pa.int64()))
        return pa.table({id_col: ids, "gram": _fp_column(g1, g2)})

    return ds.map_batches(to_grams, batch_format="pyarrow", zero_copy_batch=True)


def distinct_grams(ds, text_col: str, n: int):
    """DISTINCT word-n-gram fingerprints of a corpus (the benchmark side).

    Per-block distinct first (each batch's grams are deduped in numpy), so
    the global groupby shuffles one row per (block, distinct gram), not per
    occurrence."""

    def block_grams(batch: pa.Table) -> pa.Table:
        _, g1, g2 = word_gram_fingerprints(batch[text_col], n)
        order = np.lexsort((g2, g1))
        g1, g2 = g1[order], g2[order]
        keep = np.ones(g1.size, bool)
        keep[1:] = (g1[1:] != g1[:-1]) | (g2[1:] != g2[:-1])
        return pa.table({"gram": _fp_column(g1[keep], g2[keep])})

    return (
        ds.map_batches(block_grams, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("gram")
        .count()
        # Ray's hash aggregate narrows large_binary keys to binary; cast
        # back so the exact-tier join keys type-match the gram stream
        .map_batches(
            lambda t: pa.table({"gram": t["gram"].cast(pa.large_binary())}),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    )


def contamination_counts(
    corpus_ds,
    bench_ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    n: int = 8,
    err_rate: float = 1e-3,
):
    """Per-doc count of DISTINCT word-n-grams shared with the benchmark.

    Returns a Dataset of ``(id_col, shared_grams)`` for contaminated docs
    only (inner-join semantics), sorted by id. The corpus side streams;
    the benchmark side is materialized once as a distinct-gram Dataset
    plus one broadcast Bloom filter."""
    from ..kernel.sketch import SketchSpec
    from .builder import build_sketch
    from .joins import broadcast_lookup_join
    from .probe import probe_filter

    out_schema = pa.schema([(id_col, pa.int64()), ("shared_grams", pa.int64())])
    bench = distinct_grams(bench_ds, text_col, n).materialize()
    nb = bench.count()
    if nb == 0:
        import ray.data as rd

        return rd.from_arrow(out_schema.empty_table())

    bf = build_sketch(bench, SketchSpec.of("bloom", err_rate, max(nb, 11)), on="gram")
    pruned = probe_filter(
        gram_stream(corpus_ds, text_col, id_col, n), bf, on="gram", mode="maybe"
    )
    hits = broadcast_lookup_join(pruned, bench, on="gram", right_count=nb)
    # UNSORTED by design: most consumers (decontaminate, the curation
    # write path) use the counts as an id set — the oracle-facing query
    # sorts at its own edge
    return hits.groupby(id_col).count().map_batches(
        lambda t: pa.table(
            {id_col: t[id_col], "shared_grams": t["count()"]}
        ).cast(out_schema),
        batch_format="pyarrow",
    )


def decontaminate(
    corpus_ds,
    bench_ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    n: int = 8,
    min_shared: int = 1,
    err_rate: float = 1e-3,
):
    """Drop corpus docs sharing >= ``min_shared`` distinct n-grams with the
    benchmark; returns the clean corpus Dataset (all input columns).

    The contaminated-id set is usually tiny (it is bounded by the benchmark
    overlap, not the corpus), so up to ``joins.DIM_BROADCAST_MAX`` ids it
    is broadcast and each batch drops locally; above that the corpus
    left-outer-joins the id set and keeps the null (unmatched) rows
    (stages/dedup.id_set_filter — the shared size-guarded machinery)."""
    from .dedup import id_set_filter

    counts = contamination_counts(
        corpus_ds, bench_ds, text_col, id_col, n, err_rate
    )
    if min_shared > 1:
        counts = counts.filter(expr=f"shared_grams >= {min_shared}")
    bad_ids_ds = counts.select_columns([id_col]).materialize()
    return id_set_filter(bad_ids_ds, id_col, keep=False)(corpus_ds)


def shared_gram_docs(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    n: int = 6,
    min_docs: int = 2,
):
    """Self-corpus shared-n-gram flagging — the ExactSubstr dedup signal
    (Lee et al. 2022, "Deduplicating Training Data Makes Language Models
    Better"): a doc is flagged when any of its word n-grams also occurs in
    at least ``min_docs - 1`` OTHER docs.

    Returns ``(id_col, n_shared)``: per flagged doc, the count of its
    DISTINCT grams that are shared. Scale shape: the (doc, distinct-gram)
    fingerprint stream shuffles ONCE into a gram-count aggregate (per-doc
    distinctness makes count() == doc frequency); the shared-gram set —
    small by construction in a mostly-clean corpus — comes back through
    the size-guarded broadcast/hash join; a second small groupby yields
    per-doc counts. The corpus text never shuffles, only 16-byte
    fingerprints."""
    from .joins import broadcast_lookup_join

    gs = gram_stream(ds, text_col, id_col, n)
    counts = gs.groupby("gram").count()

    def keep_shared(t: pa.Table) -> pa.Table:
        m = pc.greater_equal(t["count()"], pa.scalar(min_docs, pa.int64()))
        # Ray's hash aggregate narrows large_binary keys to binary; cast
        # back so the join keys type-match the gram stream
        return pa.table({"gram": t["gram"].filter(m).cast(pa.large_binary())})

    shared = counts.map_batches(
        keep_shared, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    ns = shared.count()
    out_schema = pa.schema([(id_col, pa.int64()), ("n_shared", pa.int64())])
    if ns == 0:
        # schema-bearing pa.Table, not a Dataset: a 0-row Dataset drops
        # its schema on to_pandas() (exact_dup_pairs precedent)
        return out_schema.empty_table()
    hits = broadcast_lookup_join(gs, shared, on="gram", right_count=ns)
    return hits.groupby(id_col).count().map_batches(
        lambda t: pa.table(
            {id_col: t[id_col], "n_shared": t["count()"]}
        ).cast(out_schema),
        batch_format="pyarrow",
    )
