"""Similarity search over an embedding column (list<float>).

- Brute-force cosine top-k: the query matrix is broadcast once (``ray.put``)
  and every batch does one numpy matmul; per-block top-k partials are merged
  on the driver (a k-row reduce, not a data shuffle).
- LSH-bucketed variant (random hyperplanes): each row gets a bucket id;
  probing only scans matching buckets — the scale path when the corpus is
  large and queries are many.
- Embedding near-duplicate detection: cosine >= threshold pairs via the same
  bucket blocking.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from .agg import collect_table, stateful_map


def _emb_matrix(col: pa.ChunkedArray, dtype=np.float32) -> np.ndarray:
    arr = col.combine_chunks()
    if isinstance(arr, pa.ChunkedArray):  # empty chunked edge
        return np.empty((0, 0), dtype=dtype)
    flat = np.asarray(arr.flatten(), dtype=dtype)
    if len(arr) == 0:
        return flat.reshape(0, 0)
    dim = len(flat) // len(arr)
    return flat.reshape(len(arr), dim)


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


class CosineTopK:
    """Stateful stage: per-block top-k cosine scores against broadcast queries.

    Emits (query_id, doc id, score) partial top-k rows per block; merge with
    ``_merge_topk`` on the driver."""

    def __init__(self, queries_ref, k: int, emb_col: str = "embedding", id_col: str = "vec_id", dtype: str = "float32"):
        q = ray.get(queries_ref)
        # float32 is the scale path; float64 exists for oracle parity with
        # DuckDB's double-precision list_cosine_similarity.
        self.dtype = np.dtype(dtype)
        self.q = _normalize(np.asarray(q, dtype=self.dtype))
        self.k = k
        self.emb_col = emb_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        emb = _normalize(_emb_matrix(batch[self.emb_col], dtype=self.dtype))
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        scores = emb @ self.q.T  # (B, Q)
        k = min(self.k, scores.shape[0])
        out_q, out_id, out_s = [], [], []
        for qi in range(scores.shape[1]):
            top = np.argpartition(-scores[:, qi], k - 1)[:k] if k else np.empty(0, int)
            for t in top:
                out_q.append(qi)
                out_id.append(int(ids[t]))
                out_s.append(float(scores[t, qi]))
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                self.id_col: pa.array(out_id, pa.int64()),
                "score": pa.array(out_s, pa.float64()),
            }
        )


def _merge_topk(partials, k: int, id_col: str):
    """Driver merge of per-block top-k rows: per query the ``k`` best
    scores, ties to the smaller id."""
    import pandas as pd

    df = pd.DataFrame(partials)
    if df.empty:
        return df
    return (
        df.sort_values(["query_id", "score", id_col], ascending=[True, False, True])
        .groupby("query_id")
        .head(k)
        .reset_index(drop=True)
    )


def ann_topk(ds, queries: np.ndarray, k: int = 10, emb_col: str = "embedding", id_col: str = "vec_id", dtype: str = "float32"):
    """Brute-force exact cosine top-k (the correctness baseline for ANN)."""
    ref = ray.put(np.asarray(queries, dtype=np.dtype(dtype)))
    partials = stateful_map(
        ds,
        CosineTopK,
        {
            "queries_ref": ref,
            "k": k,
            "emb_col": emb_col,
            "id_col": id_col,
            "dtype": dtype,
        },
        batch_format="pyarrow",
    ).take_all()
    return _merge_topk(partials, k, id_col)


class LinearScorer:
    """Linear-model inference over an embedding column — the shape of the
    quality-classifier scoring stage every curation pipeline runs (fasttext /
    logistic-regression doc scoring: score every row, gate on the logit).

    The stateful-stage contract (``stateful_map``): model "load"
    (materializing the weight vector; in production, reading a model
    artifact from storage) happens ONCE per worker process in ``__init__``;
    ``__call__`` is one float64 matmul per batch — no per-row Python,
    weights ride the stage object, never the batches. At 100 TB the stage
    is embarrassingly parallel: no shuffle, output is (id, logit).

    ``weights_ref`` is a ``ray.put`` handle so a real-sized model ships to
    each worker process once via the object store (zero-copy for numpy),
    not pickled into every task."""

    def __init__(
        self,
        weights_ref,
        bias: float = 0.0,
        emb_col: str = "embedding",
        id_col: str = "vec_id",
        out_col: str = "logit",
    ):
        w = ray.get(weights_ref) if not isinstance(weights_ref, np.ndarray) else weights_ref
        self.w = np.asarray(w, dtype=np.float64)
        self.b = float(bias)
        self.emb_col = emb_col
        self.id_col = id_col
        self.out_col = out_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        emb = _emb_matrix(batch[self.emb_col], dtype=np.float64)
        logit = (emb @ self.w + self.b) if emb.size else np.empty(0, np.float64)
        return pa.table(
            {
                self.id_col: batch[self.id_col],
                self.out_col: pa.array(logit, pa.float64()),
            }
        )


def linear_scores(
    ds,
    weights: np.ndarray,
    bias: float = 0.0,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
):
    """Score every row's embedding with a broadcast linear model; returns a
    Dataset of (id_col, logit). The streaming map stage — chain a filter or
    join on the logit downstream."""
    ref = ray.put(np.asarray(weights, dtype=np.float64))
    return stateful_map(
        ds,
        LinearScorer,
        {"weights_ref": ref, "bias": bias, "emb_col": emb_col, "id_col": id_col},
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


class HyperplaneLSH:
    """Random-hyperplane signatures: bucket id = sign-bit pattern of n_planes
    projections. Cosine-similar vectors collide with high probability."""

    def __init__(self, dim: int, n_planes: int = 16, seed: int = 7):
        rng = np.random.default_rng(seed)
        self.planes = rng.standard_normal((n_planes, dim)).astype(np.float32)

    def bucket(self, m: np.ndarray) -> np.ndarray:
        bits = (m @ self.planes.T) > 0
        weights = 1 << np.arange(bits.shape[1], dtype=np.int64)
        return bits @ weights


class IVFIndex:
    """Inverted-file coarse quantizer for ANN (the scale path beside LSH).

    ``nlist`` centroids are trained with a few Lloyd iterations on a seeded
    sample (driver side — centroids are tiny); every vector is assigned to
    its nearest centroid's bucket inside ``map_batches``; a query scans only
    its ``nprobe`` nearest buckets. Bucket assignment is the partitioning
    key at scale: co-locating a bucket's vectors turns top-k into a
    per-bucket local matmul + a k-row merge.
    """

    def __init__(self, centroids: np.ndarray):
        self.centroids = _normalize(np.asarray(centroids, dtype=np.float32))

    @classmethod
    def train(cls, sample: np.ndarray, nlist: int = 16, iters: int = 10, seed: int = 11) -> "IVFIndex":
        rng = np.random.default_rng(seed)
        x = _normalize(np.asarray(sample, dtype=np.float32))
        cent = x[rng.choice(len(x), size=min(nlist, len(x)), replace=False)]
        for _ in range(iters):
            assign = (x @ cent.T).argmax(axis=1)
            for c in range(len(cent)):
                members = x[assign == c]
                if len(members):
                    cent[c] = members.mean(axis=0)
            cent = _normalize(cent)
        return cls(cent)

    @classmethod
    def train_distributed(
        cls, ds, nlist: int = 16, iters: int = 10, seed: int = 11, emb_col: str = "embedding"
    ) -> "IVFIndex":
        """Spherical k-means over the FULL corpus (stages/cluster.kmeans_fit):
        per-block partial sums, O(blocks x nlist x dim) driver bytes per
        iteration — the 100 TB trainer; ``train`` stays as the cheap
        sample-based path."""
        from .cluster import kmeans_fit

        cent, _ = kmeans_fit(
            ds, k=nlist, emb_col=emb_col, mode="spherical", iters=iters, seed=seed
        )
        return cls(cent)

    def assign(self, m: np.ndarray) -> np.ndarray:
        return (_normalize(m) @ self.centroids.T).argmax(axis=1)

    def probe_lists(self, queries: np.ndarray, nprobe: int) -> np.ndarray:
        scores = _normalize(queries) @ self.centroids.T
        return np.argsort(-scores, axis=1)[:, :nprobe]


def add_ivf_bucket(ds, index: IVFIndex, emb_col: str = "embedding"):
    """Append the IVF bucket id column (broadcast centroids, one matmul/batch)."""
    idx_ref = ray.put(index)

    def stage(batch: pa.Table) -> pa.Table:
        ivf = ray.get(idx_ref)
        emb = _emb_matrix(batch[emb_col])
        return batch.append_column(
            "ivf_bucket", pa.array(ivf.assign(emb).astype(np.int64))
        )

    return ds.map_batches(stage, batch_format="pyarrow", zero_copy_batch=True)


def ivf_topk(
    ds,
    queries: np.ndarray,
    k: int = 10,
    nlist: int = 16,
    nprobe: int = 4,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    train_sample: int = 2048,
    dtype: str = "float32",
    train_mode: str = "sample",
):
    """Approximate cosine top-k scanning only ``nprobe`` IVF buckets per query.

    Recall < 1.0 by design (vectors in unprobed buckets are missed); raise
    ``nprobe`` toward ``nlist`` to trade speed for exactness (at
    nprobe=nlist every bucket is probed, so the result EQUALS brute force
    on the same ``dtype`` — float64 there gives DuckDB-oracle parity).
    ``train_mode="distributed"`` trains the centroids with full-corpus
    spherical k-means (:meth:`IVFIndex.train_distributed`) instead of the
    driver-side sample. Returns the same (query_id, id, score) frame as
    :func:`ann_topk`."""
    if train_mode == "distributed":
        index = IVFIndex.train_distributed(ds, nlist=nlist, emb_col=emb_col)
    elif train_mode == "sample":
        sample_rows = ds.limit(train_sample).take_all()
        sample = np.stack(
            [np.asarray(r[emb_col], dtype=np.float32) for r in sample_rows]
        )
        index = IVFIndex.train(sample, nlist=nlist)
    else:
        raise ValueError(f"unknown train_mode {train_mode!r}")
    q = np.asarray(queries, dtype=np.dtype(dtype))
    probe = index.probe_lists(q, nprobe)  # (Q, nprobe)
    wanted = np.unique(probe)
    bucketed = add_ivf_bucket(ds, index, emb_col=emb_col)
    pruned = bucketed.map_batches(
        lambda t: t.filter(
            pa.compute.is_in(t["ivf_bucket"], value_set=pa.array(wanted))
        ),
        batch_format="pyarrow",
    )
    qref = ray.put(q)
    probe_ref = ray.put(probe)
    partials = stateful_map(
        pruned,
        _IVFTopK,
        {
            "queries_ref": qref,
            "probe_ref": probe_ref,
            "k": k,
            "emb_col": emb_col,
            "id_col": id_col,
            "dtype": dtype,
        },
        batch_format="pyarrow",
    ).take_all()
    return _merge_topk(partials, k, id_col)


class _IVFTopK:
    """Per-block top-k where each query only scores rows in ITS probed
    buckets (the per-query mask rides with the stage, not the driver)."""

    def __init__(self, queries_ref, probe_ref, k, emb_col, id_col, dtype="float32"):
        self.dtype = np.dtype(dtype)
        self.q = _normalize(np.asarray(ray.get(queries_ref), dtype=self.dtype))
        self.probe = [set(row.tolist()) for row in ray.get(probe_ref)]
        self.k = k
        self.emb_col = emb_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        emb = _normalize(_emb_matrix(batch[self.emb_col], dtype=self.dtype))
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        buckets = batch["ivf_bucket"].to_numpy(zero_copy_only=False)
        out_q, out_id, out_s = [], [], []
        for qi in range(self.q.shape[0]):
            mask = np.isin(buckets, list(self.probe[qi]))
            if not mask.any():
                continue
            scores = emb[mask] @ self.q[qi]
            kk = min(self.k, scores.shape[0])
            top = np.argpartition(-scores, kk - 1)[:kk]
            sel_ids = ids[mask]
            for t in top:
                out_q.append(qi)
                out_id.append(int(sel_ids[t]))
                out_s.append(float(scores[t]))
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                self.id_col: pa.array(out_id, pa.int64()),
                "score": pa.array(out_s, pa.float64()),
            }
        )


def band_bits_for(threshold: float, n_bands: int, target_recall: float = 0.9, max_bits: int = 24) -> int:
    """Widest band (in hyperplane sign bits) that still meets the recall goal.

    Random-hyperplane LSH: P(one bit agrees) = 1 - acos(cos_sim)/pi
    (Charikar 2002). A pair at ``threshold`` survives blocking if ANY of the
    ``n_bands`` bands matches: miss = (1 - p_bit^b)^n_bands. The largest b
    keeping miss <= 1-target_recall maximizes selectivity (buckets per band
    = 2^b) at the required recall — so bucket granularity scales with the
    threshold instead of being frozen at one plane count."""
    p_bit = 1.0 - np.arccos(np.clip(threshold, -1.0, 1.0)) / np.pi
    if p_bit >= 1.0:
        return max_bits
    need = 1.0 - (1.0 - target_recall) ** (1.0 / n_bands)
    b = int(np.floor(np.log(need) / np.log(p_bit)))
    return int(np.clip(b, 2, max_bits))


def embedding_near_dup_pairs(
    ds,
    threshold: float = 0.95,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    n_bands: int = 16,
    band_bits: int | None = None,
    target_recall: float = 0.9,
    max_bucket: int = 256,
    seed: int = 7,
    dim: int | None = None,
):
    """Cosine >= threshold pairs via banded hyperplane-LSH blocking + a fused
    vectorized in-bucket verify (same distributed shape as the MinHash tail:
    explode to single-int64 bucket keys -> native hot-bucket count over a
    key-only projection -> verify only inside buckets holding >= 2 vectors).

    ``band_bits`` defaults to the recall-optimal width for (threshold,
    n_bands) via :func:`band_bits_for`; every vector probes ``n_bands``
    buckets, so a true pair is missed only if all bands disagree. The verify
    is one matmul + an upper-triangle threshold mask per hot bucket — no
    per-row Python — and ``max_bucket`` caps degenerate buckets. The hot
    filter is size-guarded (broadcast under the broadcast budget,
    distributed semi-join above — see dedup.hot_bucket_rows), so the
    embedding payload rides as packed large_binary, the one type Arrow's
    join carries."""
    from .dedup import _combined_key, hot_bucket_rows, pack_rows, unpack_rows

    if dim is None:
        first = ds.take(1)
        if not first:
            return ray.data.from_arrow(_empty_cosine_table())
        dim = len(first[0][emb_col])
    if band_bits is None:
        band_bits = band_bits_for(threshold, n_bands, target_recall)
    rng = np.random.default_rng(seed)
    planes_ref = ray.put(
        rng.standard_normal((n_bands * band_bits, dim)).astype(np.float32)
    )
    weights = (np.uint64(1) << np.arange(band_bits, dtype=np.uint64)).astype(
        np.float64
    )

    def explode(batch: pa.Table, with_emb: bool) -> pa.Table:
        emb = _normalize(_emb_matrix(batch[emb_col]))
        n = emb.shape[0]
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        bits = (emb @ ray.get(planes_ref).T) > 0  # (n, n_bands*band_bits)
        vals = (
            bits.reshape(n, n_bands, band_bits).astype(np.float64) @ weights
        ).astype(np.uint64)  # (n, n_bands)
        band_id = np.repeat(np.arange(n_bands, dtype=np.uint64), n)
        key = _combined_key(band_id, vals.T.reshape(-1))
        cols = {
            "bucket_key": pa.array(key.view(np.int64)),
            id_col: pa.array(np.tile(ids, n_bands)),
        }
        if with_emb:
            cols["emb"] = pack_rows(np.tile(emb, (n_bands, 1)))
        return pa.table(cols)

    ds_m = ds.materialize()  # two consumers: key-only count + hot verify
    keys_only = ds_m.map_batches(
        lambda t: explode(t, with_emb=False),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    hot_rows, n_hot = hot_bucket_rows(
        ds_m.map_batches(
            lambda t: explode(t, with_emb=True),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ),
        count_ds=keys_only,
    )
    if hot_rows is None:
        return ray.data.from_arrow(_empty_cosine_table())

    def verify_bucket(group: pa.Table) -> pa.Table:
        ids = group[id_col].to_numpy(zero_copy_only=False)
        emb = unpack_rows(group["emb"], len(ids), dtype=np.float32)
        order = np.argsort(ids, kind="stable")[:max_bucket]
        ids, emb = ids[order], emb[order]
        n = len(ids)
        if n < 2:
            return _empty_cosine_table()
        s = emb @ emb.T
        li, ri = np.triu_indices(n, k=1)
        keep = s[li, ri] >= threshold
        return pa.table(
            {
                "left_id": pa.array(ids[li[keep]], pa.int64()),
                "right_id": pa.array(ids[ri[keep]], pa.int64()),
                "cosine": pa.array(
                    np.round(s[li, ri][keep].astype(np.float64), 6)
                ),
            }
        )

    pairs = hot_rows.groupby("bucket_key").map_groups(
        verify_bucket, batch_format="pyarrow"
    )
    from .dedup import dedupe_pair_stream

    return dedupe_pair_stream(pairs, "cosine", "max")


def _empty_cosine_table() -> pa.Table:
    return pa.table(
        {
            "left_id": pa.array([], pa.int64()),
            "right_id": pa.array([], pa.int64()),
            "cosine": pa.array([], pa.float64()),
        }
    )


class _BlockVsAllPairs:
    """Stateful stage: one (block x corpus) matmul per batch, emitting
    (id_a < id_b, score) pairs above the threshold. The normalized corpus
    matrix is broadcast once via ``ray.put`` and shared zero-copy by every
    worker process on a node."""

    def __init__(self, corpus_ref, threshold: float, emb_col: str, id_col: str, dtype: str):
        ids, mat = ray.get(corpus_ref)
        self.ids = ids
        self.mat = mat
        self.threshold = threshold
        self.emb_col = emb_col
        self.id_col = id_col
        self.dtype = np.dtype(dtype)

    def __call__(self, batch: pa.Table) -> pa.Table:
        emb = _normalize(_emb_matrix(batch[self.emb_col], dtype=self.dtype))
        bids = batch[self.id_col].to_numpy(zero_copy_only=False)
        if emb.size == 0:
            return pa.table(
                {
                    "id_a": pa.array([], pa.int64()),
                    "id_b": pa.array([], pa.int64()),
                    "score": pa.array([], pa.float64()),
                }
            )
        s = emb @ self.mat.T  # (B, N)
        mask = (s >= self.threshold) & (bids[:, None] < self.ids[None, :])
        bi, cj = np.nonzero(mask)
        return pa.table(
            {
                "id_a": pa.array(bids[bi], type=pa.int64()),
                "id_b": pa.array(self.ids[cj], type=pa.int64()),
                "score": pa.array(s[bi, cj].astype(np.float64), type=pa.float64()),
            }
        )


def exact_cosine_pairs(
    ds,
    threshold: float,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    dtype: str = "float64",
    max_broadcast_bytes: int = 2 << 30,
):
    """Exact all-pairs cosine-threshold self-join — the verification tier.

    The corpus matrix is broadcast once (``ray.put``), each block does one
    vectorized (block x corpus) matmul, so compute is the full O(n^2) spread
    O(n^2 / p) per worker with zero shuffle. Use this on bounded corpora or
    post-LSH candidate subsets; the broadcast side must fit in the object
    store (guarded by ``max_broadcast_bytes``). For unbounded corpora use
    ``embedding_near_dup_pairs`` (banded LSH) — same output contract,
    approximate recall.

    Returns (id_a, id_b, score) with id_a < id_b, every pair exactly once
    (the id-ordering mask makes block overlap with the broadcast side safe).
    """
    # Arrow-native collect (no row dicts of float lists): concat blocks,
    # then one vectorized list-column -> matrix conversion per chunk
    tbl = collect_table(ds.select_columns([id_col, emb_col]))
    if not tbl.num_rows:
        ids = np.empty(0, dtype=np.int64)
        mat = np.empty((0, 0), dtype=np.dtype(dtype))
    else:
        ids = tbl[id_col].to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
        mat = _normalize(_emb_matrix(tbl[emb_col], dtype=np.dtype(dtype)))
    if mat.nbytes > max_broadcast_bytes:
        raise ValueError(
            f"corpus matrix {mat.nbytes}B exceeds max_broadcast_bytes="
            f"{max_broadcast_bytes}; use embedding_near_dup_pairs (LSH) for "
            "unbounded corpora"
        )
    ref = ray.put((ids, mat))
    return stateful_map(
        ds,
        _BlockVsAllPairs,
        {
            "corpus_ref": ref,
            "threshold": threshold,
            "emb_col": emb_col,
            "id_col": id_col,
            "dtype": dtype,
        },
        batch_format="pyarrow",
    )


def _token_explode(t: pa.Table, text_col: str, id_col: str) -> "pa.Table":
    """Rows -> distinct (doc_id, tok, n_tok) token rows, vectorized.

    Tokenization contract shared with the DuckDB oracle twin
    (string_split_regex(lower(trim(text)), '\\s+'), empty docs dropped):
    lowercase, whitespace-split, per-doc dedupe. Each input doc is ONE row,
    so its exploded tokens stay inside this batch — per-batch dedupe and
    per-doc token counts are final, never partial."""
    import pandas as pd
    import pyarrow.compute as pc

    texts = pc.utf8_lower(pc.utf8_trim_whitespace(t[text_col]))
    toks = pc.split_pattern_regex(texts, pattern=r"\s+")
    flat = pc.list_flatten(toks)
    parents = pc.list_parent_indices(toks)
    ids = t[id_col].combine_chunks().take(parents)
    df = pd.DataFrame(
        {
            "doc_id": ids.to_numpy(zero_copy_only=False),
            "tok": flat.to_pandas(),
        }
    )
    df = df[df["tok"] != ""].drop_duplicates()
    if len(df) == 0:
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "tok": pa.array([], pa.string()),
                "n_tok": pa.array([], pa.int64()),
            }
        )
    df["n_tok"] = df.groupby("doc_id")["tok"].transform("size").astype("int64")
    return pa.Table.from_pandas(df, preserve_index=False)


def token_jaccard_top1(
    ds,
    query_max_id: int,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """Exact token-set-Jaccard nearest neighbor for each query doc.

    The EXACT twin of MinHash (which estimates exactly this Jaccard,
    stages/dedup.py): queries = docs with id < ``query_max_id``. Scale
    shape: the query token table is tiny and broadcast once (``ray.put``);
    each batch explodes its docs to distinct tokens, hash-joins them
    against the query tokens in-process (pandas C merge — no cluster
    shuffle), computes |A∩B| / (|A|+|B|-|A∩B|) for the docs it holds, and
    emits only its per-query best row. The driver reduces Q-row partials.
    Corpus tokens never co-shuffle; traffic is O(batches x Q).

    Returns pa.Table (query_id, match_id, jaccard rounded to 6) — ranked on
    the unrounded score, ties broken by smaller match_id.
    """
    exploded_q = ds.filter(expr=f"{id_col} < {query_max_id}").map_batches(
        lambda t: _token_explode(t, text_col, id_col), batch_format="pyarrow"
    )
    qdf = exploded_q.to_pandas().rename(
        columns={"doc_id": "qid", "n_tok": "q_n"}
    )
    if len(qdf) == 0:
        return pa.table(
            {
                "query_id": pa.array([], pa.int64()),
                "match_id": pa.array([], pa.int64()),
                "jaccard": pa.array([], pa.float64()),
            }
        )
    q_ref = ray.put(qdf)

    def best_per_query(t: pa.Table) -> pa.Table:
        tok = _token_explode(t, text_col, id_col).to_pandas()
        q = ray.get(q_ref)
        m = tok.merge(q, on="tok")
        m = m[m["doc_id"] != m["qid"]]
        if len(m) == 0:
            return pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    "match_id": pa.array([], pa.int64()),
                    "jaccard": pa.array([], pa.float64()),
                }
            )
        g = (
            m.groupby(["qid", "doc_id"])
            .agg(i=("tok", "size"), n_tok=("n_tok", "first"), q_n=("q_n", "first"))
            .reset_index()
        )
        g["jaccard"] = g["i"] / (g["q_n"] + g["n_tok"] - g["i"])
        # per-batch partial reduce: keep only each query's best candidate
        g = g.sort_values(["qid", "jaccard", "doc_id"], ascending=[True, False, True])
        g = g.drop_duplicates("qid", keep="first")
        return pa.table(
            {
                "query_id": pa.array(g["qid"].to_numpy(), pa.int64()),
                "match_id": pa.array(g["doc_id"].to_numpy(), pa.int64()),
                "jaccard": pa.array(g["jaccard"].to_numpy(), pa.float64()),
            }
        )

    partials = ds.map_batches(best_per_query, batch_format="pyarrow").to_pandas()
    if len(partials) == 0:
        return pa.table(
            {
                "query_id": pa.array([], pa.int64()),
                "match_id": pa.array([], pa.int64()),
                "jaccard": pa.array([], pa.float64()),
            }
        )
    out = partials.sort_values(
        ["query_id", "jaccard", "match_id"], ascending=[True, False, True]
    ).drop_duplicates("query_id", keep="first")
    return pa.table(
        {
            "query_id": pa.array(out["query_id"].to_numpy(), pa.int64()),
            "match_id": pa.array(out["match_id"].to_numpy(), pa.int64()),
            "jaccard": pa.array(np.round(out["jaccard"].to_numpy(), 6), pa.float64()),
        }
    )


# --------------------------------------------------------------------------
# BM25 lexical retrieval (the keyword-side member of the similarity-search
# family, next to ANN cosine and token-set Jaccard)
# --------------------------------------------------------------------------

_BM25_S1, _BM25_S2 = 0x5A1AD, 0x2B7E1


def _bm25_tokenize(t: pa.Table, text_col: str):
    """(non-empty flat tokens, parent doc indices) — tokenization contract
    shared with the DuckDB twin: ``string_split_regex(lower(trim(text,
    ' ')), '\\s+')`` with empty tokens dropped."""
    import pyarrow.compute as pc

    texts = t[text_col]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    texts = pc.utf8_lower(pc.utf8_trim(pc.fill_null(texts, ""), " "))
    toks = pc.split_pattern_regex(texts, pattern=r"\s+")
    flat = pc.list_flatten(toks)
    parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    keep = pc.not_equal(flat, "")
    keep_np = keep.to_numpy(zero_copy_only=False)
    return flat.filter(keep), parents[keep_np]


def _bm25_match(flat, vh1s, vh2s, sorted_to_vocab):
    """Map token occurrences to vocabulary indices via two-seed 64-bit
    murmur (the repo's exactness convention; h1 uniqueness over the tiny
    query vocabulary is asserted at build time, h2 guards the probe)."""
    from ..kernel.murmur3 import hash_keys

    if len(flat) == 0:
        return np.empty(0, np.int64), np.empty(0, bool)
    h1, h2 = hash_keys(flat, (_BM25_S1, _BM25_S2))
    pos = np.searchsorted(vh1s, h1)
    pos_c = np.minimum(pos, len(vh1s) - 1)
    ok = (vh1s[pos_c] == h1) & (vh2s[pos_c] == h2)
    return sorted_to_vocab[pos_c], ok


def bm25_topk(
    ds,
    query_max_id: int,
    k: int = 5,
    k1: float = 1.5,
    b: float = 0.75,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """Exact distributed BM25 top-k retrieval: queries are the DISTINCT
    tokens of docs with id < ``query_max_id``; every other doc is scored
    sum_t idf(t) * tf*(k1+1)/(tf + k1*(1-b+b*dl/avgdl)) over shared terms
    (Robertson/Sparck Jones idf: ln((N-df+0.5)/(df+0.5)+1)).

    Scale shape: two streaming passes. Pass 1 computes df for QUERY tokens
    only (per-block distinct-membership partials -> driver sum; the block
    partials sum exactly because each doc lives wholly in one block) plus
    N/avgdl in the same scan via a summary row per block. Pass 2 scores:
    the (vocab hashes, idf, token->query CSR) bundle is broadcast once via
    ``ray.put``; each block matches its token stream against it (one
    vectorized murmur pass + searchsorted), aggregates integer
    micro-scores per (query, doc) locally, and emits only its per-query
    top-k — the driver reduces O(blocks x Q x k) rows. Corpus tokens never
    shuffle.

    Determinism/oracle parity: per-term contributions are rounded to
    integer 1e-8 units before summing (integer sums are order-free, so
    distributed accumulation is exact); idf uses scalar ``math.log``
    (glibc — the same libm DuckDB's ``ln`` calls); the tf factor is
    evaluated with the identical operand grouping as the SQL twin.
    Returns pa.Table (query_id, match_id, score_micro)."""
    import math

    import pandas as pd
    import ray

    from ..kernel.murmur3 import hash_keys

    empty = pa.table(
        {
            "query_id": pa.array([], pa.int64()),
            "match_id": pa.array([], pa.int64()),
            "score_micro": pa.array([], pa.int64()),
        }
    )

    # --- query vocabulary (Q docs -> tiny distinct (qid, token) table) ---
    qdocs = (
        ds.filter(expr=f"{id_col} < {query_max_id}")
        .select_columns([id_col, text_col])
        .to_pandas()
    )
    if len(qdocs) == 0:
        return empty
    qtab = pa.table(
        {
            id_col: pa.array(qdocs[id_col].to_numpy(), pa.int64()),
            text_col: pa.array(qdocs[text_col].astype(str), pa.string()),
        }
    )
    qflat, qparents = _bm25_tokenize(qtab, text_col)
    if len(qflat) == 0:
        return empty
    qid_of_occ = qdocs[id_col].to_numpy()[qparents]
    qpairs = pd.DataFrame(
        {"qid": qid_of_occ, "tok": qflat.to_pandas()}
    ).drop_duplicates()
    vocab = np.sort(qpairs["tok"].unique())
    V = len(vocab)
    vh1, vh2 = hash_keys(pa.array(vocab, pa.string()), (_BM25_S1, _BM25_S2))
    if len(np.unique(vh1)) != V:  # pragma: no cover - 2^-64-scale event
        raise ValueError("bm25: 64-bit hash collision in query vocabulary")
    h1_order = np.argsort(vh1, kind="stable")
    vh1s, vh2s = vh1[h1_order], vh2[h1_order]
    sorted_to_vocab = h1_order.astype(np.int64)
    # CSR token idx -> qids containing it
    tok_idx = np.searchsorted(vocab, qpairs["tok"].to_numpy())
    csr_order = np.lexsort((qpairs["qid"].to_numpy(), tok_idx))
    qt_qids = qpairs["qid"].to_numpy()[csr_order].astype(np.int64)
    qt_counts = np.bincount(tok_idx, minlength=V).astype(np.int64)
    qt_offsets = np.concatenate([[0], np.cumsum(qt_counts)]).astype(np.int64)
    match_ref = ray.put((vh1s, vh2s, sorted_to_vocab))

    # --- pass 1: df over query tokens + N + total token count ---
    def stats_partial(t: pa.Table) -> pa.Table:
        flat, parents = _bm25_tokenize(t, text_col)
        vidx, ok = _bm25_match(flat, *ray.get(match_ref))
        rows_idx = np.empty(0, np.int64)
        rows_df = np.empty(0, np.int64)
        if ok.any():
            upairs = np.unique(parents[ok].astype(np.int64) * V + vidx[ok])
            df_part = np.bincount(upairs % V, minlength=V)
            rows_idx = np.flatnonzero(df_part).astype(np.int64)
            rows_df = df_part[rows_idx]
        return pa.table(
            {
                "tok_idx": pa.array(np.append(rows_idx, -1), pa.int64()),
                "df": pa.array(np.append(rows_df, 0), pa.int64()),
                "n_docs": pa.array(
                    np.append(np.zeros_like(rows_idx), t.num_rows), pa.int64()
                ),
                "n_tokens": pa.array(
                    np.append(np.zeros_like(rows_idx), len(flat)), pa.int64()
                ),
            }
        )

    stats = ds.map_batches(stats_partial, batch_format="pyarrow").to_pandas()
    n_corpus = int(stats["n_docs"].sum())
    total_tokens = int(stats["n_tokens"].sum())
    if n_corpus == 0 or total_tokens == 0:
        return empty
    avgdl = total_tokens / n_corpus
    df_by_idx = np.zeros(V, np.int64)
    tok_rows = stats[stats["tok_idx"] >= 0]
    np.add.at(df_by_idx, tok_rows["tok_idx"].to_numpy(), tok_rows["df"].to_numpy())
    # scalar glibc log per unique df value (numpy's vectorized log is not
    # guaranteed bit-equal to libm; DuckDB's ln is libm)
    idf_of_df = {int(d): math.log((n_corpus - int(d) + 0.5) / (int(d) + 0.5) + 1.0)
                 for d in np.unique(df_by_idx)}
    idf = np.array([idf_of_df[int(d)] for d in df_by_idx], np.float64)
    score_ref = ray.put(
        (vh1s, vh2s, sorted_to_vocab, idf, qt_offsets, qt_qids, avgdl)
    )

    # --- pass 2: score + per-block top-k partials ---
    def score_partial(t: pa.Table) -> pa.Table:
        (mh1, mh2, s2v, idf_a, offs, qids_a, avg) = ray.get(score_ref)
        flat, parents = _bm25_tokenize(t, text_col)
        ids = t[id_col].combine_chunks().to_numpy(zero_copy_only=False)
        n_docs = t.num_rows
        vidx, ok = _bm25_match(flat, mh1, mh2, s2v)
        if not ok.any():
            return empty
        dl = np.bincount(parents, minlength=n_docs).astype(np.int64)
        upack, c = np.unique(
            parents[ok].astype(np.int64) * V + vidx[ok], return_counts=True
        )
        pdoc = upack // V
        pidx = upack % V
        cf = c.astype(np.float64)
        dlf = dl[pdoc].astype(np.float64)
        # EXACT oracle-parity grouping: (c*(k1+1)) / (c + k1*((1-b) + b*(dl/avg)))
        tffac = (cf * (k1 + 1.0)) / (cf + k1 * ((1.0 - b) + b * (dlf / avg)))
        contrib = np.floor((idf_a[pidx] * tffac) * 1e8 + 0.5).astype(np.int64)
        reps = offs[pidx + 1] - offs[pidx]
        total = int(reps.sum())
        if total == 0:
            return empty
        starts = np.repeat(offs[pidx], reps)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.concatenate([[0], np.cumsum(reps)[:-1]]).astype(np.int64), reps
        )
        qrep = qids_a[starts + within]
        docrep = np.repeat(pdoc, reps)
        crep = np.repeat(contrib, reps)
        keep = ids[docrep] != qrep
        if not keep.any():
            return empty
        qrep, docrep, crep = qrep[keep], docrep[keep], crep[keep]
        uq = np.unique(qids_a)
        qlocal = np.searchsorted(uq, qrep)
        pairpack = qlocal * n_docs + docrep
        uniqp, inv = np.unique(pairpack, return_inverse=True)
        sums = np.bincount(inv, weights=crep.astype(np.float64)).astype(np.int64)
        q_l = uniqp // n_docs
        d_l = uniqp % n_docs
        order = np.lexsort((ids[d_l], -sums, q_l))
        q_s = q_l[order]
        first = np.concatenate([[0], np.cumsum(np.bincount(q_s))[:-1]])
        rank = np.arange(q_s.size) - first[q_s]
        top = order[rank < k]
        return pa.table(
            {
                "query_id": pa.array(uq[q_l[top]], pa.int64()),
                "match_id": pa.array(ids[d_l[top]], pa.int64()),
                "score_micro": pa.array(sums[top], pa.int64()),
            }
        )

    partials = ds.map_batches(score_partial, batch_format="pyarrow").to_pandas()
    if len(partials) == 0:
        return empty
    out = partials.sort_values(
        ["query_id", "score_micro", "match_id"], ascending=[True, False, True]
    ).groupby("query_id", sort=True).head(k).sort_values(["query_id", "match_id"])
    return pa.table(
        {
            "query_id": pa.array(out["query_id"].to_numpy(), pa.int64()),
            "match_id": pa.array(out["match_id"].to_numpy(), pa.int64()),
            "score_micro": pa.array(out["score_micro"].to_numpy(), pa.int64()),
        }
    )


def levenshtein_batch(query: str, texts, max_len: int = 100_000) -> np.ndarray:
    """Exact Levenshtein distance of ``query`` against EVERY string in
    ``texts`` at once — fully vectorized over the batch axis.

    The classic DP's inner column loop (cur[j] depends on cur[j-1]) is
    replaced by the slope-1 prefix-min identity
    ``cur[j] = min_{i<=j}(tent[i] + (j-i)) = accumulate-min(tent - j) + j``
    (insertions form a +1-per-step chain), so each of the |query| DP
    steps is O(1) numpy calls over the whole (batch x max_doc_len)
    matrix — no Python per pair, no per-column loop. Unit costs,
    codepoint semantics (matches DuckDB's levenshtein on this corpus).
    Memory: one int32 (batch, L+1) pair; length-bucket upstream if a
    batch's longest doc would blow the budget."""
    q = np.frombuffer(query.encode("utf-32-le"), dtype=np.uint32)
    m = len(q)
    enc = [(t or "").encode("utf-32-le") for t in texts]
    lens = np.array([len(b) // 4 for b in enc], dtype=np.int64)
    k = len(enc)
    if k == 0:
        return np.empty(0, np.int32)
    L = int(lens.max()) if k else 0
    if L > max_len:
        raise ValueError(f"levenshtein_batch: doc of {L} chars > {max_len}")
    docs = np.zeros((k, L), dtype=np.uint32)
    for i, b in enumerate(enc):
        if b:
            docs[i, : lens[i]] = np.frombuffer(b, dtype=np.uint32)
    if m == 0:
        return lens.astype(np.int32)
    idx = np.arange(L + 1, dtype=np.int32)
    prev = np.broadcast_to(idx, (k, L + 1)).copy()  # D[0][j] = j
    tent = np.empty_like(prev)
    for i in range(1, m + 1):
        cost = (docs != q[i - 1]).astype(np.int32)  # (k, L)
        tent[:, 0] = i
        np.minimum(prev[:, 1:] + 1, prev[:, :-1] + cost, out=tent[:, 1:])
        # slope-1 prefix-min folds the cur[j-1]+1 insertion chain
        prev = np.minimum.accumulate(tent - idx, axis=1) + idx
    return prev[np.arange(k), lens].astype(np.int32)
