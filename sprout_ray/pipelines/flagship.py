"""Flagship pipeline — the Ray-Data re-expression of the reference demo.

The reference demo (/root/reference/cmd/main.go:24-47) builds a bloom filter
over 20M formatted-int keys, probes it, and prints Stats + elapsed. Here the
equivalent job is: read the source-code Parquet corpus -> append the
``sha256(content)`` invariant column -> build the full sketch battery in one
streaming pass -> probe membership -> emit stats.

Everything streams: the only driver-materialized data are serialized partial
sketches (one per block) and the final stats rows. The one-pass battery
build is ``stages.builder.multi_sketch_build``; it is imported here, so
``from sprout_ray.pipelines.flagship import multi_sketch_build`` keeps
working.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import add_sha256
from ..kernel.sketch import SketchSpec
from ..stages.builder import multi_sketch_build


def with_invariant(ds, content_col: str = "content"):
    """Append the per-row sha256 invariant column (BASELINE.json:input_hint)."""
    return ds.map_batches(
        lambda t: add_sha256(t, column=content_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def flagship_over_documents(sf_dir: str) -> pa.Table:
    """Flagship sketch battery over the driver's ``documents`` table.

    Maps the table onto the north-rule corpus shape
    (text -> content, source -> repo; BASELINE.json:input_hint mapping noted
    in FIXTURES.md F4), appends the sha256 invariant, and builds the whole
    battery in one streaming pass. Returns one stats row per sketch.
    """
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text", "lang", "source", "n_chars"],
    )
    n = ds.count()
    cap = max(int(n * 1.2), 11)

    def remap(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "repo": t["source"].cast(pa.string()),
                "path": pc.binary_join_element_wise(
                    pa.array(["doc"] * t.num_rows),
                    t["doc_id"].cast(pa.string()),
                    "-",
                ),
                "lang": t["lang"],
                "content": t["text"].cast(pa.large_string()),
                "content_len": t["n_chars"].cast(pa.int64()),
            }
        )

    ds = ds.map_batches(remap, batch_format="pyarrow", zero_copy_batch=True)
    ds = with_invariant(ds)
    built = multi_sketch_build(
        ds,
        {
            "bloom_sha": (SketchSpec.of("bloom", 0.001, cap), "sha256"),
            "sbf_sha": (SketchSpec.of("sbf", 0.001, max(cap // 10, 11)), "sha256"),
            "hll_repo": (SketchSpec.of("hll", 14), "repo"),
            "hll_sha": (SketchSpec.of("hll", 14), "sha256"),
            "cms_path": (SketchSpec.of("cms", 0.0001, 0.01), "path"),
            "cms_lang": (SketchSpec.of("cms", 0.0001, 0.01), "lang"),
            "tdigest_len": (SketchSpec.of("tdigest", 200.0), "content_len"),
            "kll_len": (SketchSpec.of("kll", 200), "content_len"),
            "mg_lang": (SketchSpec.of("mg", 256), "lang"),
            "kmv_repo": (SketchSpec.of("kmv", 512), "repo"),
        },
    )
    rows = []
    for name, sk in built.items():
        if name == "_rows":
            continue
        rows.append(
            {
                "sketch": name,
                "kind": type(sk).__name__,
                "summary": str(sk.result())[:200],
                "rows_seen": built["_rows"],
            }
        )
    return pa.Table.from_pylist(rows)
