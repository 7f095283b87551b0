"""Pure numpy sketch kernels (no Ray dependency).

Reference-semantics layer: BloomFilter / ScalableBloomFilter mirror
/root/reference/bloom.go and scalable_bloom.go; HLL / CMS / t-digest / KLL are
the north-rule extension sketches. All share the murmur3 hash kernel and the
``Sketch`` protocol (update_batch / merge / result / to_bytes).
"""

from .bloom import BloomCapacityError, BloomFilter, BloomMergeError, BloomStats, derive_params
from .countmin import CountMinSketch
from .hll import HyperLogLog
from .kll import KLLSketch
from .kmv import KMVSketch
from .misragries import MisraGries
from .murmur3 import hash_keys, murmur3_64
from .scalable_bloom import GROWTH_LARGE, GROWTH_SMALL, ScalableBloomFilter
from .sketch import Sketch, SketchFormatError, SketchSpec, _bootstrap, register_sketch
from .tdigest import TDigest

__all__ = [
    "BloomCapacityError",
    "BloomFilter",
    "BloomMergeError",
    "BloomStats",
    "CountMinSketch",
    "GROWTH_LARGE",
    "GROWTH_SMALL",
    "HyperLogLog",
    "KLLSketch",
    "KMVSketch",
    "MisraGries",
    "ScalableBloomFilter",
    "Sketch",
    "SketchFormatError",
    "SketchSpec",
    "TDigest",
    "derive_params",
    "hash_keys",
    "murmur3_64",
    "register_sketch",
]

_bootstrap()  # register the built-in kinds (see sketch._REGISTRY)
