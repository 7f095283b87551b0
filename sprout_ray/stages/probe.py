"""Membership probing / Bloom-guarded lookups as Ray Data stages.

Generalizes the reference's filter-as-cache-guard pattern
(``BloomFilter.Get``, /root/reference/bloom.go:220-236: Contains first, hit
the store only on maybe) to datasets: the built filter is broadcast ONCE via
``ray.put`` and deserialized once per worker process (the state cache of
``stages/agg.stateful_map``) — never re-shipped per batch — then used to
prune the probe side of a join/lookup before any shuffle (classic Bloom
semi-join pruning).

No false negatives (bloom.go:200-217): ``mode="maybe"`` keeps a superset of
true matches; ``mode="definitely-not"`` keeps only rows provably absent.
"""

from __future__ import annotations

from typing import Optional

import pyarrow as pa
import ray

from ..kernel.sketch import sketch_from_bytes
from .agg import stateful_map


def broadcast_sketch(sketch) -> "ray.ObjectRef":
    """Put a serialized sketch in the object store once (driver side)."""
    return ray.put(sketch.to_bytes())


class BloomProbe:
    """Stateful stage: annotate or filter by membership.

    The filter is deserialized once per worker process in ``__init__``
    (``stateful_map``); ``__call__`` is a vectorized probe per Arrow batch.
    """

    def __init__(
        self,
        sketch_ref: "ray.ObjectRef",
        on: str,
        mode: str = "maybe",
        flag_column: Optional[str] = None,
    ):
        self.filter = sketch_from_bytes(ray.get(sketch_ref))
        self.on = on
        if mode not in ("maybe", "definitely-not"):
            raise ValueError(f"unknown probe mode {mode!r}")
        self.mode = mode
        self.flag_column = flag_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        maybe = self.filter.contains_batch(batch.column(self.on))
        if self.flag_column is not None:
            return batch.append_column(self.flag_column, pa.array(maybe))
        mask = maybe if self.mode == "maybe" else ~maybe
        return batch.filter(pa.array(mask))


def probe_filter(
    ds,
    sketch,
    on: str,
    mode: str = "maybe",
    flag_column: Optional[str] = None,
):
    """Filter/annotate ``ds`` by membership in ``sketch`` (broadcast once,
    probed by plain tasks)."""
    return stateful_map(
        ds,
        BloomProbe,
        {
            "sketch_ref": broadcast_sketch(sketch),
            "on": on,
            "mode": mode,
            "flag_column": flag_column,
        },
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
