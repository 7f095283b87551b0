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
from dataclasses import dataclass
from typing import Callable, Protocol, runtime_checkable

import numpy as np


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
# once every kernel module (each importing its codec from here) has loaded
_REGISTRY: dict[str, tuple[Callable, Callable]] = {}


class SketchFormatError(ValueError):
    """Serialized sketch bytes that are garbled, truncated, over-long or of
    another kind."""


# ---- the one sketch byte codec --------------------------------------------
#
# A serialized sketch is a little-endian u32 header length, that many bytes
# of JSON metadata carrying ``"kind"``, then the kind's payload sections
# back to back. write_sketch is the only writer of that frame; read_sketch
# and its Payload cursor are the only reader.


def write_sketch(meta: dict, *parts) -> bytes:
    """Frame ``meta`` (its ``"kind"`` first) as the header and append
    ``parts`` — bytes or C-contiguous numpy arrays, which go in as their
    raw buffers (no ``tobytes()`` copy) — in one join."""
    meta = json.dumps(meta).encode()
    return b"".join((len(meta).to_bytes(4, "little"), meta, *parts))


def read_meta(buf, kind: str | None = None) -> tuple[dict, int]:
    """Parse a serialized sketch's header into ``(meta, payload_offset)``.
    Raises :class:`SketchFormatError` when the header is unreadable or,
    given ``kind``, names another kind."""
    try:
        mlen = int.from_bytes(buf[:4], "little")
        meta = json.loads(bytes(buf[4 : 4 + mlen]))
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


def read_sketch(buf, kind: str) -> tuple[dict, Payload]:
    """``(meta, payload cursor)`` of a serialized ``kind`` sketch."""
    meta, off = read_meta(buf, kind)
    return meta, Payload(buf, off, kind)


class Payload:
    """Cursor over a serialized sketch's payload. :meth:`take` hands out
    the sections in order as read-only zero-copy numpy views of ``buf``
    (copy what must outlive or mutate it); short, ragged or leftover bytes
    raise :class:`SketchFormatError`."""

    __slots__ = ("_buf", "_off", "_kind")

    def __init__(self, buf, off: int, kind: str):
        self._buf, self._off, self._kind = buf, off, kind

    def error(self, what: str) -> SketchFormatError:
        """The error to raise for a payload that breaks its layout."""
        return SketchFormatError(f"malformed {self._kind!r} sketch payload: {what}")

    def take(self, dtype, count: int | None = None) -> np.ndarray:
        """The next ``count`` items of ``dtype``; ``None`` takes every
        remaining byte, which must be a whole number of items."""
        dt = np.dtype(dtype)
        left = len(self._buf) - self._off
        if count is None:
            count, ragged = divmod(left, dt.itemsize)
            if ragged:
                raise self.error(f"{left} trailing bytes are not whole {dt} items")
        elif not 0 <= count * dt.itemsize <= left:
            raise self.error(
                f"a {count}-item {dt} section needs {count * dt.itemsize} "
                f"bytes, {left} remain"
            )
        arr = np.frombuffer(self._buf, dtype=dt, count=count, offset=self._off)
        self._off += count * dt.itemsize
        return arr

    def end(self) -> None:
        """Check that every payload byte was taken."""
        left = len(self._buf) - self._off
        if left:
            raise self.error(f"{left} bytes past the last section")


def read_keyed_sketch(buf, kind: str) -> tuple[dict, Payload]:
    """:func:`read_sketch` for the kinds with a key section (mg, kmv),
    whose header carries ``"v": 2``: the layout with per-key is-str flags.
    Older blobs would deserialize misaligned and are refused."""
    meta, payload = read_sketch(buf, kind)
    if meta.get("v") != 2:
        raise SketchFormatError(
            f"unsupported {kind.upper()} wire format v={meta.get('v', 1)} "
            "(v1 blobs predate per-key is-str flags and would "
            "deserialize misaligned; rebuild the checkpoint)"
        )
    return meta, payload


def encode_keys(keys) -> tuple[np.ndarray, np.ndarray, bytes]:
    """The key section of the sketches that retain keys (mg, kmv): int32
    byte lengths, uint8 is-str flags and the concatenated key bytes, so
    binary keys round-trip as bytes. Keys of any other type are refused
    (``bytes(int)`` would silently zero-fill)."""
    raw, flags = [], np.empty(len(keys), dtype=np.uint8)
    for i, k in enumerate(keys):
        if isinstance(k, str):
            raw.append(k.encode())
            flags[i] = 1
        elif isinstance(k, (bytes, bytearray)):
            raw.append(bytes(k))
            flags[i] = 0
        else:
            raise TypeError(
                f"sketch keys must be str or bytes, got {type(k).__name__}"
            )
    lengths = np.fromiter(map(len, raw), dtype=np.int32, count=len(raw))
    return lengths, flags, b"".join(raw)


def decode_keys(payload: Payload, lengths: np.ndarray, flags: np.ndarray) -> list:
    """Take the concatenated key bytes that :func:`encode_keys` wrote for
    ``lengths``/``flags`` from ``payload``; returns the keys."""
    if lengths.size and int(lengths.min()) < 0:
        raise payload.error("negative key length")
    data = payload.take(np.uint8, int(lengths.sum(dtype=np.int64))).tobytes()
    ends = np.cumsum(lengths, dtype=np.int64).tolist()
    starts = [0] + ends[:-1]
    return [
        data[a:b].decode() if fl else data[a:b]
        for a, b, fl in zip(starts, ends, flags.tolist())
    ]


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

