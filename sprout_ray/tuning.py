"""Process/allocator tuning for memory-traffic-heavy numpy stages.

On this class of VM, 32 concurrent workers allocating/freeing multi-MB numpy
temporaries spend >90% of CPU in the KERNEL (mmap/munmap page churn: glibc's
default mmap threshold sends every >128 KiB allocation through mmap, and
each free munmaps it). Raising the threshold to glibc's hard cap (32 MiB —
values above the cap are silently ignored) makes large temporaries reuse
heap pages: measured 63s -> 11s wall for a 32-way sketch-battery run.

Must be applied BEFORE ``ray.init`` so raylet (and therefore every worker
process) inherits the environment.
"""

import os

GLIBC_MALLOC_ENV = {
    # glibc caps MALLOC_MMAP_THRESHOLD_ at 32 MiB; larger values are ignored
    "MALLOC_MMAP_THRESHOLD_": "33554432",
    "MALLOC_TRIM_THRESHOLD_": "268435456",
    # Arrow buffers through malloc too (jemalloc purges pages aggressively,
    # re-faulting them; measured ~2x under 32-way load)
    "ARROW_DEFAULT_MEMORY_POOL": "system",
}


def apply_malloc_tuning() -> None:
    """Set glibc malloc env vars (call before ray.init)."""
    os.environ.update(GLIBC_MALLOC_ENV)


class _CosmeticWarningFilter:
    """Drops two known-cosmetic Ray Data warnings that read as errors in
    driver logs: the schema-hash-for-deduplication failure on FixedSizeList
    metadata (transform_pyarrow.py) and the RefBundle schema-change notice
    that rename-after-aggregate stages legitimately trigger
    (streaming_executor_state.py). Both are informational in Ray 2.49."""

    _NEEDLES = (
        "Failed to hash the schemas (for deduplication)",
        "with a different schema",
        # AggregateFnV2 intermediate accumulators are sketch OBJECTS; Ray
        # ships them pickled by design (sketch-sized, not row-sized). The
        # per-block fallback notice + traceback reads as an error.
        "falling back to serialize as pickled python objects",
    )

    def filter(self, record) -> bool:
        msg = record.getMessage()
        return not any(n in msg for n in self._NEEDLES)


def quiet_cosmetic_ray_warnings() -> None:
    """Attach the cosmetic-warning filter to the Ray Data loggers that emit
    them (idempotent; call any time, incl. before ray.init)."""
    import logging

    for name in (
        "ray.data._internal.arrow_ops.transform_pyarrow",
        "ray.data._internal.execution.streaming_executor_state",
        "ray.air.util.tensor_extensions.arrow",
    ):
        lg = logging.getLogger(name)
        if not any(isinstance(f, _CosmeticWarningFilter) for f in lg.filters):
            lg.addFilter(_CosmeticWarningFilter())
