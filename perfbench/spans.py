"""Span recorder for the traced run.

Spans (name, start, end, parent, op id) are kept in memory and written out
when the run ends. They are recorded from outside the program: while a
:meth:`Tracer.patched` block is active, the public functions and sketch
methods listed in ``TARGETS`` are replaced by timing wrappers in every
``sprout_ray`` module that binds them, so calls made inside the program
(a sketch update calling the murmur3 kernel, a resume calling the
checkpoint scan) nest as child spans. Only the driver process is patched;
leaf work that runs inside Ray workers is measured by replaying it
in-process on one shard.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


def _count_hash(args, kwargs, out):
    # keys x seeds: out is (n_seeds, n) for the multi-seed kernel, (n,) else
    return {"kernel.murmur3.hashes": int(out.size)}


def _count_sha(args, kwargs, out):
    return {"functions.hashing.sha256_rows": len(args[0])}


def _count_pack(args, kwargs, out):
    return {"stages.builder.partials": 1,
            "stages.builder.partial_bytes_raw": len(args[0]),
            "stages.builder.partial_bytes_packed": len(out)}


def _count_ckpt_write(args, kwargs, out):
    return {"state.checkpoint.bytes_written": os.path.getsize(out)}


# (module, attribute, span name, counter); a dotted attribute names a method
TARGETS = [
    ("sprout_ray.kernel.murmur3", "arrow_to_key_matrix", "kernel.murmur3.key_matrix", None),
    ("sprout_ray.kernel.murmur3", "keys_to_matrix", "kernel.murmur3.key_matrix", None),
    ("sprout_ray.kernel.murmur3", "murmur3_64_padded_multi", "kernel.murmur3.hash", _count_hash),
    ("sprout_ray.kernel.murmur3", "murmur3_64_padded", "kernel.murmur3.hash", _count_hash),
    ("sprout_ray.functions.hashing", "sha256_column", "functions.hashing.sha256", _count_sha),
    ("sprout_ray.kernel.bloom", "BloomFilter.add_batch", "kernel.bloom.update", None),
    ("sprout_ray.kernel.bloom", "BloomFilter.contains_batch", "kernel.bloom.contains", None),
    ("sprout_ray.kernel.bloom", "BloomFilter.merge", "kernel.bloom.merge", None),
    ("sprout_ray.kernel.bloom", "BloomFilter.merge_bytes", "kernel.bloom.merge", None),
    ("sprout_ray.kernel.hll", "HyperLogLog.update_batch", "kernel.hll.update", None),
    ("sprout_ray.kernel.countmin", "CountMinSketch.update_batch", "kernel.cms.update", None),
    ("sprout_ray.kernel.tdigest", "TDigest.update_batch", "kernel.tdigest.update", None),
    ("sprout_ray.kernel.kll", "KLLSketch.update_batch", "kernel.kll.update", None),
    ("sprout_ray.kernel.bloom", "BloomFilter.to_bytes", "kernel.to_bytes", None),
    ("sprout_ray.kernel.hll", "HyperLogLog.to_bytes", "kernel.to_bytes", None),
    ("sprout_ray.kernel.countmin", "CountMinSketch.to_bytes", "kernel.to_bytes", None),
    ("sprout_ray.kernel.tdigest", "TDigest.to_bytes", "kernel.to_bytes", None),
    ("sprout_ray.kernel.kll", "KLLSketch.to_bytes", "kernel.to_bytes", None),
    ("sprout_ray.kernel.sketch", "sketch_from_bytes", "kernel.from_bytes", None),
    ("sprout_ray.kernel.sketch", "SketchSpec.from_bytes", "kernel.from_bytes", None),
    ("sprout_ray.stages.builder", "pack_partial", "stages.builder.pack", _count_pack),
    ("sprout_ray.stages.builder", "merge_partials", "stages.builder.merge_partials", None),
    ("sprout_ray.state.checkpoint", "completed_partitions", "state.checkpoint.scan", None),
    ("sprout_ray.state.checkpoint", "write_partition_checkpoint", "state.checkpoint.write",
     _count_ckpt_write),
]


class Tracer:
    """In-memory spans and counters; parent links follow a per-thread stack."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(float)  # (op id, name) -> total
        self.op_id = None
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            idx = len(self.spans)
            self.spans.append(None)
        parent = stack[-1] if stack else None
        op = self.op_id
        stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans[idx] = (name, t0, t1, parent, op)

    @contextmanager
    def phase(self, op_id):
        """Attribute the spans and counts recorded inside to ``op_id``."""
        prev, self.op_id = self.op_id, op_id
        try:
            yield
        finally:
            self.op_id = prev

    def count(self, name: str, n: float) -> None:
        with self._lock:
            self.counts[(self.op_id, name)] += n

    def self_times(self, op_ids) -> dict:
        """name -> summed self time (duration minus direct children) of the
        spans recorded under ``op_ids``."""
        child = defaultdict(float)
        for s in self.spans:
            if s is not None and s[3] is not None:
                child[s[3]] += s[2] - s[1]
        out = defaultdict(float)
        for i, s in enumerate(self.spans):
            if s is None or s[4] not in op_ids:
                continue
            out[s[0]] += (s[2] - s[1]) - child[i]
        return out

    def _wrap(self, fn, name, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                out = fn(*args, **kwargs)
            if counter is not None:
                for k, v in counter(args, kwargs, out).items():
                    tracer.count(k, v)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def patched(self):
        """Swap every TARGETS function for a span-recording wrapper."""
        import importlib

        undo = []
        for mod_name, attr, name, counter in TARGETS:
            mod = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name, counter))
                else:
                    new = self._wrap(raw, name, counter)
                setattr(cls, meth, new)
                undo.append((cls, meth, raw))
                continue
            orig = getattr(mod, attr)
            new = self._wrap(orig, name, counter)
            for m in list(sys.modules.values()):
                if getattr(m, "__name__", "").startswith("sprout_ray") and \
                        getattr(m, attr, None) is orig:
                    setattr(m, attr, new)
                    undo.append((m, attr, orig))
        try:
            yield
        finally:
            for obj, attr, orig in reversed(undo):
                setattr(obj, attr, orig)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                if s is not None:
                    name, t0, t1, parent, op = s
                    f.write(json.dumps({"name": name, "start": t0, "end": t1,
                                        "parent": parent, "op": op}) + "\n")
