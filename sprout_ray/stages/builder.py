"""Sketch builds over a Ray Dataset: one leaf, one streaming tree reduce.

Every sketch merge is commutative and associative (SURVEY.md §4.3.5), so
every build is "one partial per block, then merge", and there is exactly
one physical plan for it:

- the **leaf** (:func:`update_block`): per block and per spec, drop the
  column's nulls and feed it to the sketch through :func:`update_chunked`
  in fixed row chunks (every key hash goes through ``murmur3.hash_keys``,
  which keeps each padded key matrix under the byte budget);
  :func:`multi_sketch_build` packs each block's
  sketches into ONE row of serialized partials (:func:`pack_partial`), so
  partial count == block count, not row count;
- the **reduce** (:func:`tree_reduce`): a streaming fan-in tree of Ray tasks
  over the leaf stage's block refs, each node an in-node
  :func:`merge_partials`. At 256 nodes it moves ``num_blocks x sketch_size``
  bytes, never row data.

:func:`build_sketch` is :func:`multi_sketch_build` with one spec. The
checkpointed builds (``state.checkpoint``) run the same leaf per partition
and the same in-node merge. ``SketchAgg`` (``stages.agg``) remains only for
grouped builds, where Ray's groupby exchange does the reduce; its
per-block update is the same :func:`update_chunked`.
"""

from __future__ import annotations

import zlib
from concurrent.futures import ThreadPoolExecutor
from functools import reduce

import pyarrow as pa
import ray

from ..kernel.murmur3 import canonical_keys, hash_keys
from ..kernel.sketch import SketchSpec, sketch_from_bytes

_NUMERIC_KINDS = {"tdigest", "kll"}
# sketches whose update_batch consumes the Arrow column as-is (vector /
# integer-native inputs) — no string canonicalization
_RAW_KINDS = {"fd", "moments"}


def _update_input(kind: str, col: pa.ChunkedArray):
    """Column -> sketch update input.

    Key sketches take the keys as ``murmur3.hash_keys`` hashes them:
    numeric columns via their decimal string form, matching the reference
    demo's Sprintf("%d", i) keys (reference cmd/main.go:40), so the sketches
    that retain keys (mg, kmv) retain that form too. Quantile sketches take
    float64.
    """
    if kind in _NUMERIC_KINDS:
        return col.cast(pa.float64()).to_numpy(zero_copy_only=False)
    if kind in _RAW_KINDS:
        return col
    return canonical_keys(col)


def pack_partial(buf: bytes) -> bytes:
    """Wire format for serialized partials: low-fill bitmaps/registers are
    mostly zeros, so cheap zlib-1 cuts partial shipping severalfold. A
    256 KB probe skips compression for high-entropy payloads (sparse bloom
    index dumps are near-random integers — zlib would burn CPU for ~0%)."""
    if len(buf) > 262_144:
        probe = zlib.compress(buf[:262_144], 1)
        # sparse index dumps probe ~0.75 (only the top byte is sparse);
        # dense low-fill bitmaps/registers probe <= ~0.3 — the 0.7 cut keeps
        # zlib for the latter and skips its CPU for the former
        if len(probe) > 0.7 * 262_144:
            return b"R0" + buf
    return b"Z1" + zlib.compress(buf, 1)


def unpack_partial(buf: bytes) -> bytes:
    if buf[:2] == b"Z1":
        return zlib.decompress(buf[2:])
    if buf[:2] == b"R0":
        return bytes(buf[2:])
    return bytes(buf)


# Update chunk: temporaries for a 32k-row hash pass stay ~2-3 MB — under the
# 32 MiB glibc mmap threshold, so heap pages are REUSED across chunks instead
# of mmap/munmap-churning (this VM class spends >90% CPU in the kernel when
# 32 workers fault fresh multi-10MB buffers concurrently).
UPDATE_CHUNK = 32_768


def update_chunked(sk, kind: str, col) -> None:
    """Feed an Arrow column's non-null values to a sketch in
    allocator-friendly row chunks (the padded-matrix byte budget of key
    sketches is ``murmur3.hash_keys``' own)."""
    if col.null_count:
        col = col.drop_null()
    for off in range(0, len(col), UPDATE_CHUNK):
        sk.update_batch(_update_input(kind, col.slice(off, UPDATE_CHUNK)))


def update_block(sketches: dict, specs: dict, block: pa.Table) -> dict:
    """The leaf: feed one block to every sketch.

    ``specs``: name -> (SketchSpec, column); ``sketches``: name -> sketch
    built from that spec (fresh per block in :func:`multi_sketch_build`,
    accumulated across a partition's row groups in the checkpointed
    build). Returns ``sketches``."""
    for name, (spec, on) in specs.items():
        update_chunked(sketches[name], spec.kind, block.column(on))
    return sketches


def merge_partials(partial_blobs, spec: SketchSpec):
    """Merge serialized partials into one sketch on this node (associative;
    the node of :func:`tree_reduce`). Empty input -> a fresh sketch."""
    blobs = iter(partial_blobs)
    first = next(blobs, None)
    if first is None:
        return spec.make()
    acc = sketch_from_bytes(unpack_partial(first))
    if hasattr(acc, "merge_bytes"):
        # stream-OR the raw buffers: no per-partial materialization
        for b in blobs:
            acc.merge_bytes(unpack_partial(b))
        return acc
    return reduce(_merged, (sketch_from_bytes(unpack_partial(b)) for b in blobs), acc)


def _merged(a, b):
    a.merge(b)
    return a


# Tree geometry: every FAN_IN leaf partials launch a merge task; levels
# above the leaves fire at TOP_MULT * FAN_IN (see tree_reduce), and at most
# DRIVER_MAX merged partials are fetched by the driver.
FAN_IN = 8
TOP_MULT = 2
DRIVER_MAX = 8


@ray.remote(num_cpus=1)
def _merge_partial_tables(spec_items: list, *tables: pa.Table) -> pa.Table:
    """Merge FAN_IN one-row partial tables into one (a tree-reduce node).

    Output partials ship raw ("R0"): they cross the object store exactly
    once, and zlib on increasingly dense upper-level bitmaps costs more CPU
    than the memcpy it saves."""
    batch = pa.concat_tables(tables)
    cols = {}
    for name, spec in spec_items:
        sk = merge_partials(batch[name].to_pylist(), spec)
        cols[name] = pa.array([b"R0" + sk.to_bytes()], pa.large_binary())
    cols["rows"] = pa.array([sum(batch["rows"].to_pylist())], pa.int64())
    return pa.table(cols)


def tree_reduce(leaf_ds, specs: dict) -> dict:
    """Streaming tree reduce of a leaf Dataset whose blocks are one-row
    tables of packed partials (one large_binary column per name in
    ``specs``: name -> SketchSpec) plus an int64 ``rows`` column.
    Returns name -> merged sketch, plus ``"_rows"``.

    The reduce runs as plain Ray tasks over the leaf stage's block refs
    (``iter_internal_ref_bundles`` — refs only, no partial bytes touch the
    driver): every FAN_IN leaf partials launch a merge task the moment they
    exist, cascading level by level, so the reduce OVERLAPS the scan and at
    most DRIVER_MAX merged partials are ever fetched. Levels above the
    leaves fire at TOP_MULT x the fan-in so a geometry that would funnel
    everything through ONE top-level task (64 leaves -> 8 -> 1: every kind
    ORed serially, post-scan, cluster-size independent) instead leaves
    <= DRIVER_MAX partials for the driver's threaded per-kind merge (numpy
    ORs release the GIL, one thread per kind, fetched zero-copy from the
    object store).

    Why raw tasks instead of map_batches(merge, batch_size=FAN_IN) stages:
    (a) chained merge stages FUSE into the leaf operator (observed via
    ds.stats(): all MapBatches in one fused operator, 64 tasks -> 64
    one-row blocks — each "merge" repacks a single partial and reduces
    nothing); (b) with fusion blocked via distinct remote args, the
    streaming executor's per-operator resource reservation starves the scan
    at small CPU counts (measured 45% scan utilization at 4 CPUs — a
    cluster-size-dependent penalty that corrupts scaling). An associative
    sketch reduce is exactly the "Dataset API can't express it efficiently"
    case; the partitioning assumption is only that partials are
    sketch-sized (row-count-independent).
    """
    spec_items = list(specs.items())
    payload = ray.put(spec_items)  # shipped once, not per merge task

    # cascade: levels[i] accumulates refs awaiting the i-th merge level
    levels: list[list] = []

    def push(ref, lvl: int) -> None:
        while len(levels) <= lvl:
            levels.append([])
        levels[lvl].append(ref)
        if len(levels[lvl]) == (FAN_IN if lvl == 0 else TOP_MULT * FAN_IN):
            refs, levels[lvl] = levels[lvl], []
            push(_merge_partial_tables.remote(payload, *refs), lvl + 1)

    for bundle in leaf_ds.iter_internal_ref_bundles():
        for block_ref in bundle.block_refs:
            push(block_ref, 0)
    # flush the ragged tail bottom-up, then cascade until <= DRIVER_MAX
    tail = [r for lvl_refs in levels for r in lvl_refs]
    while len(tail) > DRIVER_MAX:
        nxt = []
        for i in range(0, len(tail), FAN_IN):
            chunk = tail[i : i + FAN_IN]
            nxt.append(
                _merge_partial_tables.remote(payload, *chunk)
                if len(chunk) > 1
                else chunk[0]
            )
        tail = nxt
    partial_rows = []
    for tbl in ray.get(tail):
        partial_rows.extend(tbl.to_pylist())
    # merge the kinds concurrently: zlib decompress + numpy merges release
    # the GIL, so threads parallelize the (small) driver-side reduce (empty
    # input: merge_partials returns a fresh sketch per kind). One kind has
    # nothing to overlap: merge it inline rather than start a pool thread.
    if len(spec_items) == 1:
        (name, spec), = spec_items
        built = {name: merge_partials([r[name] for r in partial_rows], spec)}
    else:
        with ThreadPoolExecutor(max_workers=min(len(spec_items), 8)) as pool:
            futures = {
                name: pool.submit(merge_partials, [r[name] for r in partial_rows], spec)
                for name, spec in spec_items
            }
            built = {name: fut.result() for name, fut in futures.items()}
    built["_rows"] = sum(r["rows"] for r in partial_rows)
    return built


def multi_sketch_build(ds, specs: dict) -> dict:
    """Build several sketches in ONE pass over the data.

    ``specs``: name -> (SketchSpec, column). A single map_batches stage runs
    the leaf (:func:`update_block`) per block and emits one row of packed
    partials per block; :func:`tree_reduce` merges them. One scan, N
    sketches — at 100 TB this halves-or-better the IO vs building each
    sketch separately. Returns name -> sketch, plus ``"_rows"`` (input
    rows, nulls included)."""

    def leaf(block: pa.Table) -> pa.Table:
        sks = update_block(
            {name: spec.make() for name, (spec, _on) in specs.items()}, specs, block
        )
        cols = {
            name: pa.array([pack_partial(sk.to_bytes())], pa.large_binary())
            for name, sk in sks.items()
        }
        cols["rows"] = pa.array([block.num_rows], pa.int64())
        return pa.table(cols)

    leaf_ds = ds.map_batches(
        leaf, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )
    return tree_reduce(leaf_ds, {name: spec for name, (spec, _on) in specs.items()})


def build_sketch(ds, spec: SketchSpec, on: str):
    """Build one global sketch over ``ds[on]``; returns the sketch object."""
    return multi_sketch_build(ds, {"sketch": (spec, on)})["sketch"]


def build_grouped_salted(
    ds,
    spec: SketchSpec,
    on: str,
    key: str,
    salt: int = 8,
    finalizer=None,
    alias: str = "sketch",
):
    """Per-group sketches with key salting for hot groups (SURVEY.md §4.3.1).

    A heavy group (one lang dominating, a giant repo) funnels all its partials
    through ONE reducer in a plain groupby. Salting splits each group into
    ``salt`` shards (deterministic row-hash), aggregates per (key, shard) so
    reducers parallelize, then bit-OR-merges the shards per key — legal
    because every sketch merge is associative/commutative.
    """
    import numpy as np

    from .agg import SketchAgg

    def add_salt(batch: pa.Table) -> pa.Table:
        h = hash_keys(batch.column(on), (7,))[0]
        return batch.append_column(
            "_salt", pa.array((h % np.uint64(salt)).view(np.int64))
        )

    salted = ds.map_batches(add_salt, batch_format="pyarrow", zero_copy_batch=True)
    per_shard = salted.groupby([key, "_salt"]).aggregate(
        SketchAgg(spec, on=on, alias_name=alias)
    )
    rows = per_shard.take_all()  # one small serialized sketch per (key, shard)
    merged: dict = {}
    for r in rows:
        sk = sketch_from_bytes(r[alias])
        if r[key] in merged:
            merged[r[key]].merge(sk)
        else:
            merged[r[key]] = sk
    out = {
        key: list(merged.keys()),
        alias: [
            (finalizer(s) if finalizer else s.to_bytes()) for s in merged.values()
        ],
    }
    return pa.table(out)


def build_grouped(ds, spec: SketchSpec, on: str, key: str, finalizer=None, alias: str = "sketch"):
    """Per-group sketches via groupby-aggregate (this is a shuffle).

    Skew note (SURVEY.md §4.3.1): heavy groups (few langs / giant repos) are
    absorbed by the partial-per-block pre-aggregation that AggregateFnV2
    already performs — only one partial per (block, group) crosses the
    exchange, so hot keys ship O(num_blocks) sketches, not O(rows)."""
    from .agg import SketchAgg

    return ds.groupby(key).aggregate(
        SketchAgg(spec, on=on, alias_name=alias, finalizer=finalizer)
    )
