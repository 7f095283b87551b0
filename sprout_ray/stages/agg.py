"""Generic Ray Data aggregation adapter for any ``Sketch``.

One ``AggregateFnV2`` subclass wraps every sketch kind (the reference's
implicit filter duck-type made explicit — SURVEY.md §2.5): Ray's aggregate
machinery executes the partial-per-block build and the hierarchical
``combine`` inside the shuffle, which is exactly the reference's
``BloomFilter.Merge`` (bloom.go:241-260) generalized to all sketches.
Its per-block update is the build leaf's ``update_chunked``
(stages/builder.py), so a block's padded key matrices stay under the
murmur3 byte budget here too.

Global builds go through ``stages.builder.build_sketch`` (the streaming
tree reduce); ``SketchAgg`` is the grouped-build path, where the groupby
exchange does the reduce. A global ``ds.aggregate(SketchAgg(...))`` gives
the same sketch.

Geometry preconditions (bloom.go:242-247) are enforced structurally: every
partial is constructed from the same plan-time-frozen :class:`SketchSpec`, so
``merge`` never sees mismatched (k, bit_width).

Usage::

    from sprout_ray.kernel import SketchSpec
    per_lang = ds.groupby("lang").aggregate(
        SketchAgg(SketchSpec.of("hll", 14), on="repo",
                  finalizer=lambda s: s.estimate(),
                  alias_name="repo_card"))                     # grouped
"""

from __future__ import annotations

from typing import Callable, Optional

from ray.data.aggregate import AggregateFnV2
from ray.data.block import Block, BlockAccessor

from ..kernel.sketch import SketchSpec
from .builder import update_chunked


class SketchAgg(AggregateFnV2):
    """Build any registered sketch as a distributed mergeable aggregation."""

    def __init__(
        self,
        spec: SketchSpec,
        on: str,
        alias_name: Optional[str] = None,
        finalizer: Optional[Callable] = None,
    ):
        self._spec = spec
        self._finalizer = finalizer
        super().__init__(
            alias_name or f"{spec.kind}({on})",
            zero_factory=spec.make,
            on=on,
            ignore_nulls=True,
        )

    def aggregate_block(self, block: Block):
        t = BlockAccessor.for_block(block).to_arrow()
        sk = self._spec.make()
        update_chunked(sk, self._spec.kind, t.column(self._target_col_name))
        return sk

    def combine(self, current_accumulator, new):
        current_accumulator.merge(new)
        return current_accumulator

    def finalize(self, accumulator):
        if self._finalizer is not None:
            return self._finalizer(accumulator)
        return accumulator.to_bytes()
