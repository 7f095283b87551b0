"""sprout_ray — a Ray-Data-native distributed sketch / approximate-aggregation
engine, built from scratch with the capabilities of the reference library
(dsa0x/sprout: Bloom + scalable Bloom filters) extended to the full
north-rule battery (HLL, count-min, t-digest, KLL) plus the training-data
operations a 100 TB corpus pipeline needs (dedup, similarity search, text
analysis, multimodal plumbing).

Layers:

- ``kernel``    — pure numpy sketch kernels (no Ray): murmur3, bloom, sbf,
                  hll, cms, tdigest, kll; the ``Sketch`` protocol + specs.
- ``stages``    — Ray Data stages: the sketch build (per-block leaf +
                  streaming tree reduce), SketchAgg for grouped builds,
                  broadcast bloom probes, dedup
                  (exact / minhash-LSH / simhash), similarity (ANN,
                  hyperplane LSH), text analysis, multimodal stubs.
- ``sources``   — deterministic synthetic source-code corpus + readers.
- ``functions`` — column functions (sha256 invariant, murmur, tokens).
- ``pipelines`` — flagship sketch battery + the analytics query set.
- ``state``     — per-partition sketch checkpoints with lineage + resume.
- ``cli``       — build/probe/stats/merge/resume entry points.

Nothing in the library calls ``ray.init``; sessions are owned by bench.py,
the CLI, and the test fixture.
"""

from .tuning import quiet_cosmetic_ray_warnings

# Installed at import so WORKER processes (which import this package when
# deserializing stage functions) also drop the two known-cosmetic Ray Data
# warnings; a pure logging filter — no Ray session or global state touched.
quiet_cosmetic_ray_warnings()

from .kernel import (  # noqa: E402
    BloomCapacityError,
    BloomFilter,
    BloomMergeError,
    CountMinSketch,
    HyperLogLog,
    KLLSketch,
    ScalableBloomFilter,
    SketchSpec,
    TDigest,
)

__all__ = [
    "BloomCapacityError",
    "BloomFilter",
    "BloomMergeError",
    "CountMinSketch",
    "HyperLogLog",
    "KLLSketch",
    "ScalableBloomFilter",
    "SketchSpec",
    "TDigest",
]

__version__ = "0.1.0"
