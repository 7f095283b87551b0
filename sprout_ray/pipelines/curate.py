"""Corpus curation pipeline: dedup + quality gate + resumable shard writes.

The write-side twin of ``analytics.curation_survivors`` — what a 100 TB
training-data run actually executes: compute the global exact-dedup winner
set once (only (text-key, doc_id) shuffles; at 10^12 docs substitute the
128-bit fingerprint pair of analytics.exact_dup_pairs for raw text), then
stream every input shard through the vectorized quality gate + winner
membership filter and write one output directory per shard via
``sources.io.resumable_transform_write`` — a killed run resumes, skipping
finished shards entirely.

The winner membership filter is SIZE-GUARDED
(``stages.dedup.id_set_filter``, as in ``exact_dedup``): up to
``stages.joins.DIM_BROADCAST_MAX`` winners the sorted id array is broadcast
once (``ray.put``, read per task) and every block filters locally; above
that the winner ids stay a materialized Dataset in the object store and each
shard runs a distributed hash SEMI-JOIN against them — the winner set is
~the distinct-document count, i.e. O(corpus), so an unconditional driver
materialization could never survive 100 TB. Both paths sort each shard's
survivors by id before writing, so output content is identical regardless of
which path ran (asserted in tests/test_io.py).
"""

from __future__ import annotations

import pyarrow as pa


def curate_corpus(
    input_files: list,
    out_dir: str,
    text_col: str = "text",
    id_col: str = "doc_id",
    min_tokens: int = 30,
    max_punct: float = 0.3,
    files_per_partition: int = 1,
    split_fractions: list | None = None,
    benchmark_files: list | None = None,
    decontam_n: int = 8,
    decontam_min_shared: int = 1,
    output_format: str = "parquet",
    partition_by: str | None = None,
) -> dict:
    """Write the curated corpus under ``out_dir`` (resumable); returns the
    sink metrics plus the number of winner ids.

    ``split_fractions`` (e.g. ``[("train", .8), ("val", .1), ("test", .1)]``)
    appends a deterministic seeded-murmur ``split`` column per surviving doc
    (stages/sampling.assign_split — shuffle-free, rerun-stable, so resumed
    and fresh runs assign identically).

    ``benchmark_files`` switches on benchmark decontamination
    (stages/decontam.py): docs sharing >= ``decontam_min_shared`` distinct
    word-``decontam_n``-grams with the benchmark corpus are dropped. The
    contaminated-id set is computed ONCE over the full input (broadcast
    Bloom prune + exact verify) and applied per shard with the same
    broadcast/semi-join size guard as the winner filter. Completes the
    end-to-end training-data flow: dedup -> decontaminate -> quality gate
    -> split -> partitioned shards."""
    import ray.data as rd

    from ..sources.io import resumable_transform_write
    from ..stages.agg import stateful_map
    from ..stages.text import QualityScorer

    ds = rd.read_parquet(input_files, columns=[id_col, text_col])
    winners_ds = (
        ds.groupby(text_col)
        .min(id_col)
        .map_batches(
            lambda t: pa.table({id_col: t[f"min({id_col})"]}),
            batch_format="pyarrow",
        )
        .materialize()  # ids only — object store (spills fine), reused per shard
    )
    n_winners = winners_ds.count()

    from ..stages.dedup import id_set_filter

    # size-guarded semi-join of each shard against the winner ids (ids are
    # unique, so inner join == semi-join on the distributed path)
    winner_filter = id_set_filter(winners_ds, id_col, keep=True, n_ids=n_winners)

    n_bad = 0
    contam_filter = None
    if benchmark_files is not None:
        from ..stages.decontam import contamination_counts

        bench_ds = rd.read_parquet(benchmark_files, columns=[text_col])
        counts = contamination_counts(
            ds, bench_ds, text_col=text_col, id_col=id_col, n=decontam_n
        )
        if decontam_min_shared > 1:
            counts = counts.filter(
                expr=f"shared_grams >= {decontam_min_shared}"
            )
        bad_ds = counts.select_columns([id_col]).materialize()
        n_bad = bad_ds.count()
        if n_bad:
            contam_filter = id_set_filter(bad_ds, id_col, keep=False, n_ids=n_bad)

    def transform(shard_ds):
        kept = winner_filter(
            stateful_map(
                shard_ds, QualityScorer, {}, batch_format="pyarrow", batch_size=256
            ).filter(
                expr=f"token_count >= {min_tokens} and punct_ratio <= {max_punct}"
            )
        )
        if contam_filter is not None:
            kept = contam_filter(kept)
        if split_fractions is not None:
            from ..stages.sampling import assign_split

            kept = assign_split(kept, id_col, split_fractions)
        return kept.sort(id_col)  # deterministic shard content on either path

    metrics = resumable_transform_write(
        input_files, out_dir, transform=transform,
        files_per_partition=files_per_partition,
        output_format=output_format,
        partition_by=partition_by,
    )
    metrics["winners"] = int(n_winners)
    if benchmark_files is not None:
        metrics["contaminated"] = int(n_bad)
    return metrics
