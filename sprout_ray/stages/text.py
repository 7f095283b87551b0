"""Text-analysis stages for training-data pipelines (driver spec: language-ID,
quality scoring, token counting, document fingerprinting).

All stages are vectorized ``map_batches`` bodies; the ones that hold compiled
state (regexes, stopword tables) are callable CLASSES run through
``stages/agg.stateful_map`` — setup in ``__init__`` once per worker process,
per-batch work in ``__call__``.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import token_count_column
from .agg import grouped_reduce


def _round6(x):
    # DuckDB round() is half-away-from-zero; ratios are non-negative so
    # half_towards_infinity reproduces it exactly (oracle parity)
    return pc.round(x, 6, round_mode="half_towards_infinity")

# tiny per-language stopword lists for the n-gram/stopword language heuristic
_LANG_MARKERS = {
    "en": {"the", "and", "of", "to", "in", "is", "that", "for", "with", "was"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "mit", "sich", "auf"},
    "fr": {"le", "la", "les", "et", "des", "est", "dans", "pour", "que", "une"},
    "es": {"el", "la", "los", "de", "que", "y", "en", "un", "por", "con"},
}


def add_token_count(batch: pa.Table, col: str = "text", out: str = "token_count") -> pa.Table:
    """Whitespace token count (vectorized Arrow kernels)."""
    return batch.append_column(out, token_count_column(batch[col]))


BPE_ISH_PATTERN = r"\w+|[^\w\s]+"


def add_bpe_token_count(batch: pa.Table, col: str = "text", out: str = "bpe_tokens") -> pa.Table:
    """BPE-ish token count: word runs + punctuation runs as separate tokens
    (a cheap deterministic proxy for subword tokenizer counts)."""
    n = pc.count_substring_regex(batch[col], BPE_ISH_PATTERN).cast(pa.int64())
    return batch.append_column(out, n)


class QualityScorer:
    """Stateful stage: length/punctuation/stopword quality features.

    Emits deterministic float features rounded to 6 decimals so the DuckDB
    oracle can reproduce them bit-for-bit where expressible.
    """

    def __init__(self, col: str = "text"):
        self.col = col
        self.word_re = re.compile(r"[A-Za-z]+")
        self.stop = _LANG_MARKERS["en"]

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = batch[self.col]
        n_chars = pc.utf8_length(text).cast(pa.int64())
        tokens = token_count_column(text)
        # punctuation ratio via vectorized char-class count
        punct = pc.count_substring_regex(text, r"[^\w\s]").cast(pa.int64())
        alpha = pc.count_substring_regex(text, r"[A-Za-z]").cast(pa.int64())
        safe_len = pc.max_element_wise(n_chars, pa.scalar(1, pa.int64()))
        punct_ratio = _round6(
            pc.divide(punct.cast(pa.float64()), safe_len.cast(pa.float64()))
        )
        alpha_ratio = _round6(
            pc.divide(alpha.cast(pa.float64()), safe_len.cast(pa.float64()))
        )
        # stopword ratio needs tokenization; pandas-free python-per-doc over
        # token LISTS is avoided: use count_substring_regex per stopword.
        stop_hits = None
        for w in sorted(self.stop):
            c = pc.count_substring_regex(text, rf"(?i)\b{w}\b").cast(pa.int64())
            stop_hits = c if stop_hits is None else pc.add(stop_hits, c)
        safe_tok = pc.max_element_wise(tokens, pa.scalar(1, pa.int64()))
        stop_ratio = _round6(
            pc.divide(stop_hits.cast(pa.float64()), safe_tok.cast(pa.float64()))
        )
        quality = _round6(
            pc.add(
                pc.multiply(alpha_ratio, 0.6),
                pc.add(
                    pc.multiply(pc.min_element_wise(stop_ratio, 1.0), 0.3),
                    pc.multiply(
                        pc.subtract(1.0, pc.min_element_wise(punct_ratio, 1.0)), 0.1
                    ),
                ),
            )
        )
        for name, col in [
            ("token_count", tokens),
            ("punct_ratio", punct_ratio),
            ("alpha_ratio", alpha_ratio),
            ("stop_ratio", stop_ratio),
            ("quality", quality),
        ]:
            batch = batch.append_column(name, col)
        return batch


class LangId:
    """Stateful stage: stopword-marker language heuristic over text.

    Scores each doc against small per-language marker sets (vectorized regex
    count per marker) and emits the argmax language + its hit count.
    A deliberately simple, deterministic heuristic — the scale-path shape
    (per-process compiled patterns, vectorized batch scoring) is the point.
    """

    def __init__(self, col: str = "text"):
        self.col = col
        self.patterns = {
            lang: rf"(?i)\b({'|'.join(sorted(words))})\b"
            for lang, words in _LANG_MARKERS.items()
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = batch[self.col]
        scores = []
        langs = list(self.patterns)
        for lang in langs:
            scores.append(
                pc.count_substring_regex(text, self.patterns[lang])
                .cast(pa.int64())
                .to_numpy(zero_copy_only=False)
            )
        mat = np.stack(scores, axis=1)
        best = mat.argmax(axis=1)
        hits = mat.max(axis=1)
        pred = np.where(hits > 0, np.array(langs)[best], "unknown")
        batch = batch.append_column("lang_pred", pa.array(pred.tolist(), pa.string()))
        batch = batch.append_column("lang_hits", pa.array(hits, type=pa.int64()))
        return batch


def add_fingerprint(batch: pa.Table, col: str = "text", out: str = "fingerprint") -> pa.Table:
    """64-bit murmur3 document fingerprint (content-addressed identity).
    Length-bucketed hashing via murmur_column (outlier-doc memory guard)."""
    from ..functions.hashing import murmur_column

    h = murmur_column(batch[col], 0)
    return batch.append_column(out, pa.array(h.view(np.int64)))


def token_df_batch(t: pa.Table, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """Per-block inverted-index statistics partial: (token, df, tf).

    Tokenization contract shared with the DuckDB oracle
    (``string_split_regex(lower(trim(text)), '\\s+')``, empty tokens
    dropped). ``tf`` counts every occurrence; ``df`` counts distinct docs.
    Each document is exactly one input row, so it lives wholly inside one
    block — per-block df partials SUM to the global document frequency
    (a doc contributes at most once per token per block, and appears in
    exactly one block). The downstream ``groupby(token).sum`` shuffles one
    row per (token, block), never the exploded token stream."""
    import pandas as pd

    texts = pc.utf8_lower(pc.utf8_trim(t[text_col], " "))
    toks = pc.split_pattern_regex(texts, pattern=r"\s+")
    flat = pc.list_flatten(toks)
    parents = pc.list_parent_indices(toks)
    pairs = pa.table({"token": flat, "parent": parents}).filter(
        pc.not_equal(flat, "")
    )
    tf = pairs.group_by(["token"]).aggregate([("parent", "count")])
    dd = pairs.group_by(["token", "parent"]).aggregate([])
    df_ = dd.group_by(["token"]).aggregate([("parent", "count")])
    merged = pd.merge(
        tf.rename_columns(["token", "tf"]).to_pandas(),
        df_.rename_columns(["token", "df"]).to_pandas(),
        on="token",
        how="inner",
    )
    return pa.table(
        {
            "token": pa.array(merged["token"], pa.string()),
            "df": pa.array(merged["df"].to_numpy(), pa.int64()),
            "tf": pa.array(merged["tf"].to_numpy(), pa.int64()),
        }
    )


# SimHash lives in stages.dedup (simhash_signatures), vectorized over whole
# batches with a single murmur pass + segment reduce.


def add_repetition_stats(batch: pa.Table, col: str = "text") -> pa.Table:
    """Within-doc repetition statistics — the Gopher-style quality signals
    (distinct-token ratio, most-repeated-token mass) as exact integers:
    ``n_tokens``, ``distinct_tokens``, ``top_token_count`` per doc.

    Tokenization matches :func:`token_count_column` (whitespace split of
    the trimmed text; blank docs -> all zeros). Token identity is the
    repo's 128-bit two-seed murmur fingerprint (collision odds negligible,
    the stages/dedup.py exactness convention), so distinct counts are
    DuckDB-oracle-checkable. One murmur pass per seed over the flattened
    token array + a lexsort — no per-row Python."""
    import numpy as np

    from ..kernel.murmur3 import hash_keys

    texts = batch[col]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    trimmed = pc.utf8_trim(pc.fill_null(texts, ""), " ")
    toks = pc.split_pattern_regex(trimmed, r"\s+")
    offsets = np.asarray(toks.offsets).astype(np.int64)
    offsets = offsets - offsets[0]
    counts = np.diff(offsets)
    blank = np.asarray(pc.equal(trimmed, "")) | np.asarray(pc.is_null(trimmed))
    n_docs = len(counts)

    n_tokens = np.where(blank, 0, counts)
    distinct = np.zeros(n_docs, np.int64)
    top = np.zeros(n_docs, np.int64)
    flat = toks.flatten()
    if len(flat):
        h1, h2 = hash_keys(flat, (0x7A3D, 0x1C95))
        doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), counts)
        order = np.lexsort((h2, h1, doc_of))
        d, a, b = doc_of[order], h1[order], h2[order]
        new_run = np.ones(d.size, bool)
        new_run[1:] = (d[1:] != d[:-1]) | (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        run_starts = np.flatnonzero(new_run)
        run_lens = np.diff(np.append(run_starts, d.size))
        run_doc = d[run_starts]
        distinct = np.bincount(run_doc, minlength=n_docs).astype(np.int64)
        doc_starts = np.flatnonzero(
            np.concatenate([[True], run_doc[1:] != run_doc[:-1]])
        )
        per_doc_top = np.maximum.reduceat(run_lens, doc_starts)
        top[run_doc[doc_starts]] = per_doc_top
        distinct[blank] = 0
        top[blank] = 0

    return (
        batch.append_column("n_tokens", pa.array(n_tokens, pa.int64()))
        .append_column("distinct_tokens", pa.array(distinct, pa.int64()))
        .append_column("top_token_count", pa.array(top, pa.int64()))
    )


def normalize_text_column(
    arr,
    collapse_ws: bool = True,
    lowercase: bool = True,
    redact_digit_runs: int | None = 4,
) -> pa.Array:
    """Curation text normalization, all Arrow RE2 kernels (no Python rows):
    trim + collapse whitespace runs to one space, lowercase, and redact
    digit runs of >= ``redact_digit_runs`` to ``<NUM>`` (a cheap PII-shape
    scrub). Exactly mirrors DuckDB ``regexp_replace(..., 'g')`` (both
    engines run RE2), so normalization output is oracle-checkable."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    out = pc.utf8_trim(arr, " ")
    if collapse_ws:
        out = pc.replace_substring_regex(out, r"\s+", " ")
    if lowercase:
        out = pc.utf8_lower(out)
    if redact_digit_runs:
        out = pc.replace_substring_regex(
            out, r"\d{%d,}" % redact_digit_runs, "<NUM>"
        )
    return out


def add_normalized_text(
    batch: pa.Table, col: str = "text", out: str = "norm_text", **kw
) -> pa.Table:
    return batch.append_column(out, normalize_text_column(batch[col], **kw))


# PII redaction patterns, applied IN ORDER (sequential pipeline semantics:
# each count is taken on the string after all PRIOR replacements). All RE2
# (no backreferences/lookaround) so Arrow and DuckDB agree byte-for-byte.
PII_PATTERNS: list[tuple[str, str, str]] = [
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    ("ip", r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
    ("phone", r"\b\d{3}[-. ]\d{3}[-. ]\d{4}\b", "<PHONE>"),
]


def redact_pii(arr, patterns=None) -> tuple[pa.Array, dict[str, pa.Array]]:
    """Corpus-hygiene PII scrub: replace email / IPv4 / phone shapes with
    typed placeholder tokens, entirely in Arrow RE2 kernels (no Python
    rows). Returns (redacted_column, {kind: per-row match counts}).

    Counts are non-overlapping match counts taken on the string as it
    stands when that pattern runs (email first, then IP, then phone), the
    exact semantics of chained ``regexp_replace(..., 'g')`` — so the whole
    stage is DuckDB-oracle-checkable (see ``pii_redacted``)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    out = pc.fill_null(arr, "")
    counts: dict[str, pa.Array] = {}
    for name, pat, token in patterns or PII_PATTERNS:
        counts[name] = pc.count_substring_regex(out, pat).cast(pa.int64())
        out = pc.replace_substring_regex(out, pat, token)
    return out, counts


def add_pii_redaction(batch: pa.Table, col: str = "text") -> pa.Table:
    """map_batches body: append clean_text + n_emails/n_ips/n_phones."""
    clean, counts = redact_pii(batch[col])
    batch = batch.append_column("clean_text", clean)
    for name, c in counts.items():
        batch = batch.append_column(f"n_{name}s", c)
    return batch


def unigram_logprob_scores(
    ds,
    vocab_size: int = 1000,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """CCNet-style unigram language-model quality scoring (Wenzek et al.
    2020 score documents by LM perplexity and keep the fluent band; the
    unigram model is the exactly-reproducible member of that family).

    Two streaming passes, no exploded-token shuffle:

    1. **Train**: per-block (token, tf) partials (each doc lives wholly in
       one block) -> native ``groupby(token).sum`` over the thinned
       per-(token, block) stream -> distributed sort by (tf DESC, token
       ASC) -> the top-``vocab_size`` rows and the global token count are
       the ONLY driver materialization (O(V), corpus-size independent).
    2. **Score**: the vocabulary rides once via ``ray.put`` as two-seed
       murmur hash lanes (the bm25 probe convention); each block maps its
       token stream in one vectorized pass and emits per-doc
       (n_tokens, logprob_micro) — integer 1e-8 log-prob units, so the
       distributed sum is order-free and DuckDB-oracle-exact.

    Token log-probs are ``floor(ln(tf / N) * 1e8 + 0.5)``; out-of-vocabulary
    tokens get the half-count floor ``ln(0.5 / N)`` (Lidstone-style). Both
    use scalar ``math.log`` — the same glibc ``ln`` DuckDB calls — with the
    identical operand grouping as the SQL twin. Docs whose trimmed text has
    no tokens produce no row (matching the SQL GROUP BY over the token
    stream). Returns a Dataset (id_col, n_tokens, logprob_micro); a
    token-free corpus returns a schema-bearing 0-row pa.Table instead."""
    import math

    import ray

    from ..stages.similarity import _BM25_S1, _BM25_S2, _bm25_tokenize
    from ..kernel.murmur3 import hash_keys

    tokens = ds.select_columns([text_col]).map_batches(
        lambda t: pa.table({"token": _bm25_tokenize(t, text_col)[0]}),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    # O(distinct tokens) — corpus-size-independent; materializing here
    # keeps the sum + sort consumers from re-running the corpus scan.
    grouped = grouped_reduce(tokens, "token", {"tf": ("token", "count")}).materialize()
    n_total = int(grouped.sum("tf", ignore_nulls=True) or 0)
    if n_total == 0:
        # schema-bearing pa.Table, not a Dataset: a 0-row Dataset drops
        # its schema on to_pandas() (exact_dup_pairs precedent).
        return pa.table(
            {
                id_col: pa.array([], pa.int64()),
                "n_tokens": pa.array([], pa.int64()),
                "logprob_micro": pa.array([], pa.int64()),
            }
        )
    top = grouped.sort(["tf", "token"], descending=[True, False]).limit(
        vocab_size
    )
    vrows = top.take_all()
    vocab = pa.array([r["token"] for r in vrows], pa.string())
    lp = np.array(
        [
            math.floor(math.log(r["tf"] / n_total) * 1e8 + 0.5)
            for r in vrows
        ],
        dtype=np.int64,
    )
    oov = int(math.floor(math.log(0.5 / n_total) * 1e8 + 0.5))
    vh1, vh2 = hash_keys(vocab, (_BM25_S1, _BM25_S2))
    if len(np.unique(vh1)) != len(vocab):  # pragma: no cover - 2^-64 event
        raise ValueError("unigram: 64-bit hash collision in vocabulary")
    order = np.argsort(vh1, kind="stable")
    model_ref = ray.put((vh1[order], vh2[order], lp[order]))

    def score_block(t: pa.Table) -> pa.Table:
        flat, parents = _bm25_tokenize(t, text_col)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        if len(flat) == 0:
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "n_tokens": pa.array([], pa.int64()),
                    "logprob_micro": pa.array([], pa.int64()),
                }
            )
        vh1s, vh2s, lps = ray.get(model_ref)
        h1, h2 = hash_keys(flat, (_BM25_S1, _BM25_S2))
        pos_c = np.minimum(np.searchsorted(vh1s, h1), len(vh1s) - 1)
        ok = (vh1s[pos_c] == h1) & (vh2s[pos_c] == h2)
        occ_lp = np.where(ok, lps[pos_c], oov)
        # parents is nondecreasing (list_parent_indices order)
        bounds = np.concatenate(
            [[0], np.flatnonzero(np.diff(parents)) + 1]
        )
        doc_idx = parents[bounds].astype(np.int64)
        sums = np.add.reduceat(occ_lp, bounds)
        counts = np.diff(np.append(bounds, len(parents)))
        return pa.table(
            {
                id_col: pa.array(ids[doc_idx], pa.int64()),
                "n_tokens": pa.array(counts.astype(np.int64), pa.int64()),
                "logprob_micro": pa.array(sums.astype(np.int64), pa.int64()),
            }
        )

    return ds.select_columns([id_col, text_col]).map_batches(
        score_block, batch_format="pyarrow", zero_copy_batch=True
    )


# Gopher rule thresholds (Rae et al. 2021, Appendix A), expressed
# division-free so both engines compare exact integers:
#   R0 word count in [GOPHER_MIN_WORDS, GOPHER_MAX_WORDS]
#   R1 mean word length in [3, 10]    -> 3*n <= chars <= 10*n
#   R2 symbol-to-word ratio <= 0.1    -> 10*symbols <= n
#   R3 >= 80% words alphabetic        -> 5*alpha >= 4*n
#   R4 >= 2 stop words
GOPHER_MIN_WORDS = 40
GOPHER_MAX_WORDS = 100_000
GOPHER_STOPWORDS = ("the", "be", "to", "of", "and", "that", "have", "with")


def gopher_quality_flags(
    batch: pa.Table, col: str = "text", id_col: str = "doc_id"
) -> pa.Table:
    """Gopher-style quality rule bundle (Rae et al. 2021 Appendix A) as a
    per-doc bitmask — the standard pre-training text gate, in the subset
    whose decisions are exactly reproducible across engines (integer
    cross-multiplication instead of ratio thresholds, RE2 counts on both
    sides).

    Emits ``n_words``, ``rule_bits`` (bit i set = rule i PASSED) and
    ``passes`` (all rules). Tokenization is the repo contract: whitespace
    split of ``trim(text, ' ')``, empty tokens dropped; a token-free doc
    fails R0 and the word-ratio rules pass vacuously (0 <= 0), exactly as
    the SQL twin's COALESCE'd LEFT JOIN computes them."""
    texts = batch[col]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    trimmed = pc.utf8_trim(pc.fill_null(texts, ""), " ")
    toks = pc.split_pattern_regex(trimmed, r"\s+")
    flat = pc.list_flatten(toks)
    parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    keep = pc.not_equal(flat, "")
    keep_np = keep.to_numpy(zero_copy_only=False)
    flat = flat.filter(keep)
    parents = parents[keep_np]
    n_docs = batch.num_rows

    n_words = np.bincount(parents, minlength=n_docs).astype(np.int64)
    wlen = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
    sum_chars = np.bincount(
        parents, weights=wlen.astype(np.float64), minlength=n_docs
    ).astype(np.int64)
    is_alpha = pc.match_substring_regex(flat, r"[A-Za-z]").to_numpy(
        zero_copy_only=False
    )
    alpha_words = np.bincount(
        parents, weights=is_alpha.astype(np.float64), minlength=n_docs
    ).astype(np.int64)
    is_stop = pc.is_in(
        pc.utf8_lower(flat), value_set=pa.array(GOPHER_STOPWORDS)
    ).to_numpy(zero_copy_only=False)
    stop_hits = np.bincount(
        parents, weights=is_stop.astype(np.float64), minlength=n_docs
    ).astype(np.int64)
    symbols = (
        pc.count_substring_regex(trimmed, r"#|\.\.\.")
        .cast(pa.int64())
        .to_numpy(zero_copy_only=False)
    )

    r0 = (n_words >= GOPHER_MIN_WORDS) & (n_words <= GOPHER_MAX_WORDS)
    r1 = (3 * n_words <= sum_chars) & (sum_chars <= 10 * n_words)
    r2 = 10 * symbols <= n_words
    r3 = 5 * alpha_words >= 4 * n_words
    r4 = stop_hits >= 2
    bits = (
        r0.astype(np.int64)
        | (r1.astype(np.int64) << 1)
        | (r2.astype(np.int64) << 2)
        | (r3.astype(np.int64) << 3)
        | (r4.astype(np.int64) << 4)
    )
    return pa.table(
        {
            id_col: batch[id_col],
            "n_words": pa.array(n_words, pa.int64()),
            "rule_bits": pa.array(bits, pa.int64()),
            "passes": pa.array(bits == 0b11111),
        }
    )


def add_token_entropy(batch: pa.Table, col: str = "text") -> pa.Table:
    """Per-doc Shannon token entropy H = ln(n) - (1/n)·Σ c·ln(c) — the
    information-density quality signal next to the Gopher repetition
    stats, engine-exact by construction:

    every c (a token's in-doc count) and n (doc token count) is a small
    integer, so the transcendental terms come from driver-free integer
    LOOKUP TABLES built with scalar ``math.log`` (glibc — the identical
    ``ln`` DuckDB calls on the same integers); per-term contributions are
    floored to integer 1e-8 nats (order-free sum), and only the final
    two pinned IEEE ops (divide, subtract) run in floats. Emits
    ``n_tokens``, ``clogc_micro`` (Σ floor(c·ln(c)·1e8 + 0.5)) and
    ``entropy`` (rounded to 6, half-away). Token identity is the
    two-seed murmur fingerprint (repetition-stats convention);
    token-free docs get n_tokens=0, clogc_micro=0, entropy=0."""
    import math

    from ..kernel.murmur3 import hash_keys

    texts = batch[col]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    trimmed = pc.utf8_trim(pc.fill_null(texts, ""), " ")
    toks = pc.split_pattern_regex(trimmed, r"\s+")
    offsets = np.asarray(toks.offsets).astype(np.int64)
    offsets = offsets - offsets[0]
    counts = np.diff(offsets)
    blank = np.asarray(pc.equal(trimmed, "")) | np.asarray(pc.is_null(trimmed))
    n_docs = len(counts)
    n_tokens = np.where(blank, 0, counts)

    S = np.zeros(n_docs, np.int64)
    flat = toks.flatten()
    if len(flat):
        h1, h2 = hash_keys(flat, (0x7A3D, 0x1C95))
        doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), counts)
        order = np.lexsort((h2, h1, doc_of))
        d, a, b = doc_of[order], h1[order], h2[order]
        new_run = np.ones(d.size, bool)
        new_run[1:] = (d[1:] != d[:-1]) | (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        run_starts = np.flatnonzero(new_run)
        run_lens = np.diff(np.append(run_starts, d.size))
        run_doc = d[run_starts]
        cmax = int(run_lens.max())
        # glibc ln on exact small integers — identical to the SQL twin's
        # floor(c*ln(c)*1e8 + 0.5) term by term
        clogc = np.array(
            [0, 0]
            + [
                math.floor(c * math.log(c) * 1e8 + 0.5)
                for c in range(2, cmax + 1)
            ],
            dtype=np.int64,
        )
        S = np.bincount(
            run_doc, weights=clogc[run_lens].astype(np.float64),
            minlength=n_docs,
        ).astype(np.int64)
        S[blank] = 0

    nmax = int(n_tokens.max()) if n_docs else 0
    lnn = np.array(
        [0.0] + [math.log(v) for v in range(1, nmax + 1)], dtype=np.float64
    )
    safe_n = np.maximum(n_tokens, 1)
    ent = lnn[n_tokens] - (S / 1e8) / safe_n
    ent[n_tokens == 0] = 0.0
    ent_r = pc.round(
        pa.array(ent, pa.float64()), 6, round_mode="half_towards_infinity"
    )
    return (
        batch.append_column("n_tokens", pa.array(n_tokens, pa.int64()))
        .append_column("clogc_micro", pa.array(S, pa.int64()))
        .append_column("entropy", ent_r)
    )


def _bigrams_from_tokens(flat: pa.Array, parents: np.ndarray):
    """(flat bigram strings, parent doc indices) from a pre-tokenized
    (token, parent) stream: consecutive same-doc token pairs joined as
    ``tok_i || ' ' || tok_{i+1}`` — the word-bigram contract shared with
    the DuckDB twins. Tokens are whitespace-split so they never contain
    a space, which keeps the unigram and bigram key spaces disjoint."""
    if len(flat) < 2:
        return pa.array([], pa.string()), np.empty(0, np.int64)
    same_doc = parents[1:] == parents[:-1]
    grams = pc.binary_join_element_wise(
        flat.slice(0, len(flat) - 1), flat.slice(1), " "
    )
    idx = np.flatnonzero(same_doc)
    return grams.take(pa.array(idx, pa.int64())), parents[idx].astype(np.int64)


def _word_bigrams(t: pa.Table, text_col: str):
    """Batch -> (flat bigram strings, parent doc indices); see
    :func:`_bigrams_from_tokens` for the contract."""
    from ..stages.similarity import _bm25_tokenize

    flat, parents = _bm25_tokenize(t, text_col)
    return _bigrams_from_tokens(flat, parents)


def dsir_importance_scores(
    ds,
    target_col: str = "lang",
    target_value: str = "en",
    vocab_size: int = 256,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """DSIR importance weights (Xie et al. 2023, "Data Selection for
    Language Models via Importance Resampling"): score every document by
    the log-likelihood ratio between a TARGET-distribution n-gram LM and
    the RAW-corpus n-gram LM, so resampling by weight shifts the corpus
    mix toward the target domain. Features are word bigrams (the paper's
    hashed-ngram features, unhashed here so the score is oracle-exact);
    both LMs are top-``vocab_size`` truncations with the repo's Lidstone
    half-count OOV floor, in integer 1e-8 nat units (order-free sums,
    DuckDB-exact — the unigram_quality conventions).

    One training scan fits BOTH models (per-block (gram, tf_raw,
    tf_target) partials -> one native groupby), the O(distinct-gram)
    model is the only driver materialization, and scoring is a second
    streaming pass probing the union vocabulary via two-seed murmur
    lanes shipped once with ``ray.put``. Docs with no bigram produce no
    row (SQL GROUP BY over the gram stream).

    Returns a Dataset (id_col, n_grams, weight_micro); weight_micro > 0
    means "more target-like than raw-corpus-like"."""
    import math

    import ray

    from ..kernel.murmur3 import hash_keys
    from ..stages.similarity import _BM25_S1, _BM25_S2

    def gram_hits(t: pa.Table) -> pa.Table:
        grams, gparents = _word_bigrams(t, text_col)
        if len(grams) == 0:
            return pa.table(
                {"gram": pa.array([], pa.string()), "hit": pa.array([], pa.int64())}
            )
        is_t = pc.equal(
            pc.fill_null(t[target_col], ""), target_value
        ).to_numpy(zero_copy_only=False)
        return pa.table(
            {"gram": grams, "hit": pa.array(is_t[gparents].astype(np.int64))}
        )

    grouped = grouped_reduce(
        ds.select_columns([target_col, text_col]).map_batches(
            gram_hits, batch_format="pyarrow", zero_copy_batch=True
        ),
        "gram",
        {"tf": (None, "count_all"), "tf_t": ("hit", "sum")},
    ).materialize()  # O(distinct grams), read by 2 sorts + 2 sums
    n_raw = int(grouped.sum("tf", ignore_nulls=True) or 0)
    n_tgt = int(grouped.sum("tf_t", ignore_nulls=True) or 0)
    empty = pa.table(
        {
            id_col: pa.array([], pa.int64()),
            "n_grams": pa.array([], pa.int64()),
            "weight_micro": pa.array([], pa.int64()),
        }
    )
    if n_raw == 0:
        return empty
    if n_tgt == 0:
        raise ValueError(
            f"dsir: target slice {target_col}={target_value!r} has no bigrams"
        )

    def top_lp(tf_col: str, n_total: int) -> dict[str, int]:
        rows = (
            grouped.filter(expr=f"{tf_col} > 0")
            .sort([tf_col, "gram"], descending=[True, False])
            .limit(vocab_size)
            .take_all()
        )
        return {
            r["gram"]: math.floor(math.log(r[tf_col] / n_total) * 1e8 + 0.5)
            for r in rows
        }

    lp_t = top_lp("tf_t", n_tgt)
    lp_q = top_lp("tf", n_raw)
    oov_t = math.floor(math.log(0.5 / n_tgt) * 1e8 + 0.5)
    oov_q = math.floor(math.log(0.5 / n_raw) * 1e8 + 0.5)
    union = sorted(set(lp_t) | set(lp_q))
    deltas = np.array(
        [lp_t.get(g, oov_t) - lp_q.get(g, oov_q) for g in union], np.int64
    )
    uh1, uh2 = hash_keys(union, (_BM25_S1, _BM25_S2))
    if len(np.unique(uh1)) != len(union):  # pragma: no cover - 2^-64 event
        raise ValueError("dsir: 64-bit hash collision in union vocabulary")
    order = np.argsort(uh1, kind="stable")
    model_ref = ray.put((uh1[order], uh2[order], deltas[order]))
    delta_oov = oov_t - oov_q

    def score_block(t: pa.Table) -> pa.Table:
        grams, gparents = _word_bigrams(t, text_col)
        if len(grams) == 0:
            return empty
        ids = t[id_col].to_numpy(zero_copy_only=False)
        uh1s, uh2s, ds_ = ray.get(model_ref)
        h1, h2 = hash_keys(grams, (_BM25_S1, _BM25_S2))
        pos = np.minimum(np.searchsorted(uh1s, h1), len(uh1s) - 1)
        ok = (uh1s[pos] == h1) & (uh2s[pos] == h2)
        occ = np.where(ok, ds_[pos], delta_oov)
        bounds = np.concatenate([[0], np.flatnonzero(np.diff(gparents)) + 1])
        doc_idx = gparents[bounds]
        sums = np.add.reduceat(occ, bounds)
        counts = np.diff(np.append(bounds, len(gparents)))
        return pa.table(
            {
                id_col: pa.array(ids[doc_idx], pa.int64()),
                "n_grams": pa.array(counts.astype(np.int64), pa.int64()),
                "weight_micro": pa.array(sums.astype(np.int64), pa.int64()),
            }
        )

    return ds.select_columns([id_col, text_col]).map_batches(
        score_block, batch_format="pyarrow", zero_copy_batch=True
    )


def pmi_collocations(
    ds,
    min_count: int = 5,
    k: int = 20,
    text_col: str = "text",
):
    """Top-k word-bigram collocations by pointwise mutual information
    (Church & Hanks 1990) — the corpus-analysis operator behind tokenizer
    merge candidates and multi-word-expression mining:

        PMI(a b) = ln(P(ab)) - ln(P(a)) - ln(P(b)),
        P(ab) = tf_ab / N_bigrams,  P(x) = tf_x / N_tokens,

    with a ``min_count`` occurrence floor (rare pairs otherwise dominate
    PMI by definition). One corpus scan counts unigrams AND bigrams in a
    single disjoint key space (tokens are whitespace-split so they never
    contain the bigram separator space); the O(distinct-gram) grouped
    table is the only wide state. Component-token frequencies attach via
    the size-guarded :func:`~sprout_ray.stages.joins.broadcast_lookup_join`
    (vocabulary << corpus; distributed hash join above the budget).

    PMI rides as integer 1e-8 nats from three scalar ``math.log`` calls
    combined in a fixed order — bit-identical to the DuckDB twin's
    ``ln(tfb/nb) - ln(tfa/nu) - ln(tfc/nu)`` — so (pmi_micro DESC, gram)
    is a deterministic total order and the top-k is oracle-exact.
    Returns a schema-bearing Arrow table when no bigram clears the floor."""
    import math

    from ..stages.joins import broadcast_lookup_join
    from ..stages.similarity import _bm25_tokenize

    def part(t: pa.Table) -> pa.Table:
        flat, parents = _bm25_tokenize(t, text_col)
        grams, _g = _bigrams_from_tokens(flat, parents)
        keys = pa.concat_arrays(
            [flat.combine_chunks() if isinstance(flat, pa.ChunkedArray) else flat, grams]
        )
        if len(keys) == 0:
            return pa.table({"gram": pa.array([], pa.string())})
        return pa.table({"gram": keys})

    grouped = grouped_reduce(
        ds.select_columns([text_col]).map_batches(
            part, batch_format="pyarrow", zero_copy_batch=True
        ),
        "gram",
        {"tf": ("gram", "count")},
    ).materialize()  # O(distinct grams); read by totals + both join sides

    def split_kind(t: pa.Table, want_bigrams: bool) -> pa.Table:
        isb = pc.match_substring(t["gram"], " ")
        return t.filter(isb if want_bigrams else pc.invert(isb))

    empty = pa.table(
        {
            "gram": pa.array([], pa.string()),
            "tf": pa.array([], pa.int64()),
            "pmi_micro": pa.array([], pa.int64()),
        }
    )
    uni = grouped.map_batches(
        lambda t: split_kind(t, False), batch_format="pyarrow"
    )
    bi = grouped.map_batches(
        lambda t: split_kind(t, True), batch_format="pyarrow"
    )
    n_u = int(uni.sum("tf", ignore_nulls=True) or 0)
    n_b = int(bi.sum("tf", ignore_nulls=True) or 0)
    if n_b == 0:
        return empty

    def add_toks(t: pa.Table) -> pa.Table:
        parts_ = pc.split_pattern(t["gram"], " ")
        return pa.table(
            {
                "gram": t["gram"],
                "tf": t["tf"],
                "left_tok": pc.list_element(parts_, 0),
                "right_tok": pc.list_element(parts_, 1),
            }
        )

    cand = bi.filter(expr=f"tf >= {int(min_count)}").map_batches(
        add_toks, batch_format="pyarrow"
    )
    vocab_count = uni.count()
    left = broadcast_lookup_join(
        cand,
        uni.map_batches(
            lambda t: t.rename_columns(["left_tok", "tf_a"]),
            batch_format="pyarrow",
        ),
        on="left_tok",
        right_count=vocab_count,
    )
    both = broadcast_lookup_join(
        left,
        uni.map_batches(
            lambda t: t.rename_columns(["right_tok", "tf_c"]),
            batch_format="pyarrow",
        ),
        on="right_tok",
        right_count=vocab_count,
    )

    def score(t: pa.Table) -> pa.Table:
        tfb = t["tf"].to_pylist()
        tfa = t["tf_a"].to_pylist()
        tfc = t["tf_c"].to_pylist()
        # scalar math.log (glibc ln, the DuckDB function) in the twin's
        # exact operand grouping; candidates are the thinned >=min_count
        # stream, so the per-row loop is off the hot path
        pmi = [
            math.floor(
                (
                    math.log(b / n_b)
                    - math.log(a / n_u)
                    - math.log(c / n_u)
                )
                * 1e8
                + 0.5
            )
            for b, a, c in zip(tfb, tfa, tfc)
        ]
        return pa.table(
            {
                "gram": t["gram"],
                "tf": t["tf"],
                "pmi_micro": pa.array(pmi, pa.int64()),
            }
        )

    scored = both.map_batches(score, batch_format="pyarrow")
    out = scored.sort(["pmi_micro", "gram"], descending=[True, False]).limit(k)
    return out if out.count() else empty
