"""Per-partition sketch checkpoints with lineage + metrics (SURVEY.md §4.3.4).

Replaces the reference's persistence layer (mmap filter file + bolt/badger
stores, reference bloom.go:410-443, storage.go) with one Parquet file
per partition, ``part-{partition_id:05d}.parquet``, holding one row per
sketch name:

    partition_id:int64, name:string, sketch_kind:string, spec:string(json),
    state:large_binary, rows:int64, lineage:string(json)

``lineage`` records the partition's input files, its row count and every
name's spec and sketched column. Deliberately better than the reference,
which never persists ``count`` (reopening a filter file keeps bits but
resets count — bloom.go:130-160 has no deserialization path): our
``state`` blob round-trips full metadata, so a resumed build has correct
capacity accounting.

Resume contract (:func:`build_multi_with_checkpoints`, the one resumable
build; :func:`build_with_checkpoints` is it with one spec): every
``files_per_partition`` input files are one partition. A rerun scans the
directory (:func:`completed_partitions`) and reuses a partition's
checkpoint only when it covers every requested sketch name with the
requested spec and column AND its lineage lists exactly the partition's
current input files. Every other partition is rebuilt by one streaming
scan of its files and checkpointed the moment it finishes; a checkpoint
that was present but stale (by spec, column, lineage, or an older file
format) is counted in ``metrics['invalidated']``, as is each checkpoint
past the current partition count, which the rerun deletes. A crash mid-run loses at most the in-flight
partitions.

Reading a directory back as ONE sketch (the CLI's probe/stats/merge) goes
through :func:`read_checkpoint_dir`, which refuses a directory that mixes
specs, sketch names, or partitionings (:class:`CheckpointDirError`).
"""

from __future__ import annotations

import glob
import json
import os

import pyarrow as pa
import pyarrow.parquet as pq

from ..kernel.sketch import SketchSpec, sketch_from_bytes
from ..stages.builder import merge_partials, update_block


# pending partition tasks in flight at once, so a long file list doesn't
# flood the cluster
_MAX_IN_FLIGHT = 16


class CheckpointDirError(ValueError):
    """A checkpoint directory that cannot be read back as one sketch."""


def _spec_json(spec: SketchSpec) -> str:
    return json.dumps(
        {"kind": spec.kind, "params": list(spec.params), "kwargs": list(spec.kwargs)}
    )


def write_partition_checkpoint(
    ckpt_dir: str,
    partition_id: int,
    specs: dict,
    states: dict,
    rows: int,
    input_files: list,
) -> str:
    """Write one partition's checkpoint atomically (tmp + rename): one row
    per name in ``specs`` (name -> (SketchSpec, column)), ``states`` holding
    each name's serialized sketch. Returns the written path."""
    os.makedirs(ckpt_dir, exist_ok=True)
    names = sorted(specs)
    spec_json = {n: _spec_json(specs[n][0]) for n in names}
    lineage = json.dumps(
        {"input_files": list(input_files), "rows": rows, "specs": spec_json,
         "columns": {n: specs[n][1] for n in names}}
    )
    tbl = pa.table(
        {
            "partition_id": pa.array([partition_id] * len(names), pa.int64()),
            "name": pa.array(names, pa.string()),
            "sketch_kind": pa.array([specs[n][0].kind for n in names], pa.string()),
            "spec": pa.array([spec_json[n] for n in names], pa.string()),
            "state": pa.array([states[n] for n in names], pa.large_binary()),
            "rows": pa.array([rows] * len(names), pa.int64()),
            "lineage": pa.array([lineage] * len(names), pa.string()),
        }
    )
    final = os.path.join(ckpt_dir, f"part-{partition_id:05d}.parquet")
    tmp = final + ".tmp"
    pq.write_table(tbl, tmp)
    os.replace(tmp, final)
    return final


def completed_partitions(ckpt_dir: str, specs: dict) -> dict:
    """partition_id -> {name: checkpoint row} for every ``part-`` file in
    ``ckpt_dir`` that covers each name in ``specs`` (name -> (SketchSpec,
    column)) with that spec and column. A file present but not covering them
    (another geometry or column, a missing name, or a file from before
    checkpoints carried a ``name`` column) maps to None: stale. Input-file
    lineage is the caller's check."""
    done = {}
    want = {name: (_spec_json(spec), on) for name, (spec, on) in specs.items()}
    for path in sorted(glob.glob(os.path.join(ckpt_dir, "part-*.parquet"))):
        t = pq.read_table(path)
        by_name = (
            {r["name"]: r for r in t.to_pylist()} if "name" in t.column_names else {}
        )
        pid = int(os.path.basename(path)[5:-8])
        ok = all(
            name in by_name
            and by_name[name]["spec"] == s
            and json.loads(by_name[name]["lineage"]).get("columns", {}).get(name) == on
            for name, (s, on) in want.items()
        )
        done[pid] = {name: by_name[name] for name in want} if ok else None
    return done


def _build_partition(files: list, specs: dict, derive=None) -> tuple:
    """One streaming scan of a partition's files feeds every sketch (the
    build leaf, once per row-group batch); runs inside a Ray task, so its
    memory is one batch + the sketches.

    ``derive`` (optional) maps each Arrow batch-table before column
    extraction, so sketches can target derived columns (sha256 invariant,
    content_len) without materializing them anywhere."""
    sks = {name: spec.make() for name, (spec, _on) in specs.items()}
    # derive may reference any input column -> read all; otherwise prune the
    # scan to exactly the sketched columns
    raw_cols = None if derive else sorted({on for _spec, on in specs.values()})
    rows = 0
    for path in files:
        for batch in pq.ParquetFile(path).iter_batches(columns=raw_cols):
            t = pa.Table.from_batches([batch])
            if derive is not None:
                t = derive(t)
            update_block(sks, specs, t)
            rows += batch.num_rows
    return {name: sk.to_bytes() for name, sk in sks.items()}, rows


def build_multi_with_checkpoints(
    input_files: list,
    specs: dict,
    ckpt_dir: str,
    files_per_partition: int = 1,
    derive=None,
):
    """Resumable multi-sketch build: ``specs`` = name -> (SketchSpec, on).

    One partition per ``files_per_partition`` input files; each pending
    partition is one Ray task that streams its files' row groups ONCE and
    updates every sketch (same single-scan economics as
    ``stages.builder.multi_sketch_build``, plus checkpoints). A partition
    resumes only when its checkpoint covers every requested sketch with
    matching spec, column and lineage; otherwise the whole partition rebuilds (the
    scan is shared, so per-sketch resume would re-read the files anyway).
    Pending partitions build concurrently, at most ``_MAX_IN_FLIGHT`` in
    flight. Checkpoints whose partition id is at or past the current
    partition count (left by a run with a smaller ``files_per_partition``)
    are deleted and counted as invalidated, so the finished directory reads
    back with :func:`read_checkpoint_dir`. Returns ({name: sketch}, metrics), metrics holding
    ``partitions``, ``built``, ``resumed``, ``invalidated`` and ``rows``."""
    import ray

    parts = [
        (i, input_files[i * files_per_partition : (i + 1) * files_per_partition])
        for i in range(
            (len(input_files) + files_per_partition - 1) // files_per_partition
        )
    ]
    done = completed_partitions(ckpt_dir, specs)
    metrics = {"partitions": len(parts), "built": 0, "resumed": 0,
               "invalidated": 0, "rows": 0}
    for pid in sorted(p for p in done if p >= len(parts)):
        os.remove(os.path.join(ckpt_dir, f"part-{pid:05d}.parquet"))
        metrics["invalidated"] += 1
    task = ray.remote(_build_partition)

    states: dict = {}  # pid -> {name: serialized sketch}
    pending: dict = {}  # ObjectRef -> (pid, files)

    def drain_one():
        ready, _ = ray.wait(list(pending), num_returns=1)
        pid, files = pending.pop(ready[0])
        blobs, nrows = ray.get(ready[0])
        write_partition_checkpoint(ckpt_dir, pid, specs, blobs, nrows, files)
        states[pid] = blobs
        metrics["built"] += 1
        metrics["rows"] += nrows

    for pid, files in parts:
        rows_by_name = done.get(pid)
        if rows_by_name is not None:
            first = next(iter(rows_by_name.values()))
            if json.loads(first["lineage"]).get("input_files") == list(files):
                states[pid] = {name: r["state"] for name, r in rows_by_name.items()}
                metrics["resumed"] += 1
                metrics["rows"] += first["rows"]
                continue
        if pid in done:
            metrics["invalidated"] += 1  # stale spec/column/lineage/format -> rebuild
        pending[task.options(num_cpus=1).remote(files, specs, derive)] = (pid, files)
        while len(pending) >= _MAX_IN_FLIGHT:
            drain_one()
    while pending:
        drain_one()

    # states are raw to_bytes() blobs: "R0" marks them for merge_partials;
    # merging in partition order keeps the result independent of which
    # partitions resumed and which task finished first
    order = sorted(states)
    built = {
        name: merge_partials((b"R0" + states[pid][name] for pid in order), spec)
        for name, (spec, _on) in specs.items()
    }
    return built, metrics


def build_with_checkpoints(
    input_files: list,
    spec: SketchSpec,
    on: str,
    ckpt_dir: str,
    files_per_partition: int = 1,
):
    """Resumable single-sketch build: :func:`build_multi_with_checkpoints`
    with one spec, named ``"{kind}({on})"``. Returns (sketch, metrics)."""
    name = f"{spec.kind}({on})"
    built, metrics = build_multi_with_checkpoints(
        input_files, {name: (spec, on)}, ckpt_dir, files_per_partition
    )
    return built[name], metrics


def read_checkpoint_dir(ckpt_dir: str):
    """Merge every partition checkpoint in ``ckpt_dir`` into one sketch.

    Raises :class:`CheckpointDirError` when the directory is empty, holds a
    file without a ``name`` column (an older checkpoint format), holds more
    than one sketch name, its rows disagree on spec, or one input file
    appears in the lineage of two partitions (stale checkpoints left by a
    rebuild with another ``files_per_partition``) — merging any of those
    would count rows twice or mix geometries."""
    rows = []
    for path in sorted(glob.glob(os.path.join(ckpt_dir, "part-*.parquet"))):
        t = pq.read_table(path)
        if "name" not in t.column_names:
            raise CheckpointDirError(
                f"{path}: older checkpoint format (no 'name' column); "
                "rebuild the directory"
            )
        rows.extend(t.to_pylist())
    if not rows:
        raise CheckpointDirError(f"no checkpoints under {ckpt_dir}")
    names = sorted({r["name"] for r in rows})
    if len(names) > 1:
        raise CheckpointDirError(
            f"{ckpt_dir} holds {len(names)} sketches {names}; expected one"
        )
    specs = sorted({r["spec"] for r in rows})
    if len(specs) > 1:
        raise CheckpointDirError(f"{ckpt_dir}: checkpoints disagree on spec: {specs}")
    owner: dict = {}
    for r in rows:
        for f in json.loads(r["lineage"]).get("input_files", []):
            prev = owner.setdefault(f, r["partition_id"])
            if prev != r["partition_id"]:
                raise CheckpointDirError(
                    f"{ckpt_dir}: input file {f} is in the lineage of partitions "
                    f"{prev} and {r['partition_id']} (stale checkpoints from "
                    "another partitioning); rebuild the directory"
                )
    acc = sketch_from_bytes(rows[0]["state"])
    for r in rows[1:]:
        acc.merge(sketch_from_bytes(r["state"]))
    return acc
