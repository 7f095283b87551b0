"""The ``Sketch`` protocol — the user-extension surface of the engine.

The reference's implicit duck type (BloomFilter / ScalableBloomFilter sharing
Add/Contains/Stats/..., /root/reference/bloom.go vs scalable_bloom.go) is made
explicit here: every sketch is a mergeable accumulator with

- ``update_batch(values)`` — absorb a batch (numpy array, Arrow array, or
  python sequence; column semantics are sketch-specific);
- ``merge(other)`` — in-place associative+commutative combine of two partials
  built from the same spec;
- ``result()`` — the finalized estimate (sketch-specific shape);
- ``to_bytes()/from_bytes()`` — stable serialization for checkpoints and
  cross-task transport.

A :class:`SketchSpec` freezes the constructor parameters at plan time so every
partial in a distributed build has identical geometry and merges are legal
(mirrors the reference's Merge preconditions, bloom.go:242-247).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, runtime_checkable


@runtime_checkable
class Sketch(Protocol):
    def update_batch(self, values) -> None: ...

    def merge(self, other) -> None: ...

    def to_bytes(self) -> bytes: ...


@dataclass(frozen=True)
class SketchSpec:
    """Plan-time frozen sketch constructor: ``make()`` on any worker yields a
    geometry-identical zero sketch, so tree merges are always legal."""

    kind: str
    params: tuple = ()
    kwargs: tuple = ()  # sorted (key, value) pairs

    @classmethod
    def of(cls, kind: str, *params, **kwargs) -> "SketchSpec":
        return cls(kind=kind, params=params, kwargs=tuple(sorted(kwargs.items())))

    def make(self):
        return _REGISTRY[self.kind][0](*self.params, **dict(self.kwargs))

    def from_bytes(self, buf: bytes):
        return _REGISTRY[self.kind][1](buf)


# kind -> (constructor, deserializer); the kernel package's __init__ fills it
# once every kernel module (each importing read_meta from here) has loaded
_REGISTRY: dict[str, tuple[Callable, Callable]] = {}


class SketchFormatError(ValueError):
    """Serialized sketch bytes that are garbled or of another kind."""


def read_meta(buf: bytes, kind: str | None = None) -> tuple[dict, int]:
    """Parse a serialized sketch's header — a little-endian u32 length, then
    that many bytes of JSON metadata carrying ``"kind"`` — into ``(meta,
    payload_offset)``. Raises :class:`SketchFormatError` when the header is
    unreadable or, given ``kind``, names another kind."""
    try:
        mlen = int.from_bytes(buf[:4], "little")
        meta = json.loads(buf[4 : 4 + mlen].decode())
        found = meta["kind"]
    except (ValueError, TypeError, KeyError, IndexError) as e:
        what = f"{kind!r} sketch" if kind else "sketch"
        raise SketchFormatError(
            f"expected a serialized {what}, found an unreadable header "
            f"({type(e).__name__}: {e})"
        ) from None
    if kind is not None and found != kind:
        raise SketchFormatError(
            f"expected a serialized {kind!r} sketch, found kind {found!r}"
        )
    return meta, 4 + mlen


def sketch_from_bytes(buf: bytes):
    """Deserialize any registered sketch by the kind tag in its header."""
    kind = read_meta(buf)[0]["kind"]
    if kind not in _REGISTRY:
        raise SketchFormatError(f"unknown sketch kind {kind!r}")
    return _REGISTRY[kind][1](buf)


def register_sketch(kind: str, ctor: Callable, deser: Callable) -> None:
    _REGISTRY[kind] = (ctor, deser)


def _bootstrap() -> None:
    from .bloom import BloomFilter
    from .countmin import CountMinSketch
    from .ams import AMSF2Sketch
    from .hll import HyperLogLog
    from .kll import KLLSketch
    from .kmv import KMVSketch
    from .counting_bloom import CountingBloomFilter
    from .fd import FrequentDirections
    from .misragries import MisraGries
    from .moments import MomentsSketch
    from .scalable_bloom import ScalableBloomFilter
    from .tdigest import TDigest

    register_sketch("bloom", BloomFilter, BloomFilter.from_bytes)
    register_sketch("sbf", ScalableBloomFilter, ScalableBloomFilter.from_bytes)
    register_sketch("hll", HyperLogLog, HyperLogLog.from_bytes)
    register_sketch("cms", CountMinSketch, CountMinSketch.from_bytes)
    register_sketch("tdigest", TDigest, TDigest.from_bytes)
    register_sketch("kll", KLLSketch, KLLSketch.from_bytes)
    register_sketch("mg", MisraGries, MisraGries.from_bytes)
    register_sketch("kmv", KMVSketch, KMVSketch.from_bytes)
    register_sketch("ams", AMSF2Sketch, AMSF2Sketch.from_bytes)
    register_sketch("moments", MomentsSketch, MomentsSketch.from_bytes)
    register_sketch("fd", FrequentDirections, FrequentDirections.from_bytes)
    register_sketch("cbf", CountingBloomFilter, CountingBloomFilter.from_bytes)

