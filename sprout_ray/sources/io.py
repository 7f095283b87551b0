"""Sources/sinks: resumable partitioned Parquet output for row transforms.

Complements ``state.checkpoint`` (which checkpoints SKETCH state): this is
the resumable layout for pipelines whose output is row data (filtered /
transformed corpora). One output directory per input shard, written
atomically (tmp + rename), plus a manifest of completed shards, itself
replaced atomically — a rerun skips finished partitions entirely, never
re-reading their input.
"""

from __future__ import annotations

import json
import os
import re
import shutil


def resumable_transform_write(
    input_files: list,
    out_dir: str,
    transform=None,
    columns=None,
    files_per_partition: int = 1,
    output_format: str = "parquet",
    partition_by: str | None = None,
    max_partition_values: int = 64,
    layout_tag: str | None = None,
) -> dict:
    """Apply ``transform(Dataset) -> Dataset`` per input-shard group and write
    each group's result under ``out_dir/part=<i>/``; skip completed groups.

    ``output_format``: "parquet" (default) or "jsonl" (newline-delimited
    JSON via ``Dataset.write_json`` — the shard format most training
    loaders consume; round-trips through ``sources.formats.read_any``).

    ``partition_by``: optional BOUNDED-CARDINALITY column (lang, split,
    source — guarded by ``max_partition_values``); each shard group then
    writes hive-style value dirs ``part=<i>/<col>=<value>/``, the layout
    training loaders use to select a language/split without listing the
    corpus. The atomic unit stays the shard group (all value dirs appear
    under one rename), so resume semantics are unchanged.

    Returns metrics {partitions, written, resumed, invalidated}. The unit
    of recovery is the input shard group: output for a partition appears
    only after its rename, and a partition resumes only when the manifest
    lists it with the group's current input files. A partition dir the
    manifest does not list (a run killed between the rename and the
    manifest write) or lists with other input files is removed and
    rebuilt, and a dir past the current partition count is removed; each
    is counted in ``invalidated``.
    """
    if output_format not in ("parquet", "jsonl"):
        raise ValueError(f"unsupported output_format {output_format!r}")
    import ray.data as rd

    os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, "_MANIFEST.json")
    done = {}
    if os.path.exists(manifest_path):
        with open(manifest_path) as f:
            done = json.load(f)

    groups = [
        (i, input_files[i * files_per_partition : (i + 1) * files_per_partition])
        for i in range(
            (len(input_files) + files_per_partition - 1) // files_per_partition
        )
    ]
    metrics = {"partitions": len(groups), "written": 0, "resumed": 0,
               "invalidated": 0}

    def save_manifest():
        with open(manifest_path + ".tmp", "w") as f:
            json.dump(done, f)
        os.replace(manifest_path + ".tmp", manifest_path)

    # partitions past the current group count (a run over more input
    # files) would be read back with this run's output: remove them
    for name in os.listdir(out_dir):
        m = re.fullmatch(r"part=(\d+)", name)
        if m and int(m.group(1)) >= len(groups):
            shutil.rmtree(os.path.join(out_dir, name))
            metrics["invalidated"] += 1
    if any(int(k) >= len(groups) for k in done):
        done = {k: v for k, v in done.items() if int(k) < len(groups)}
        save_manifest()
    for pid, files in groups:
        key = str(pid)
        part_dir = os.path.join(out_dir, f"part={pid:05d}")
        if key in done and os.path.isdir(part_dir):
            prev_fmt = done[key].get("format", "parquet")
            if prev_fmt != output_format:
                raise ValueError(
                    f"resume format mismatch in {out_dir}: partition {pid} "
                    f"was written as {prev_fmt!r}, run requests "
                    f"{output_format!r} — use a fresh out_dir"
                )
            prev_pb = done[key].get("partition_by")
            if prev_pb != partition_by:
                raise ValueError(
                    f"resume layout mismatch in {out_dir}: partition {pid} "
                    f"was written with partition_by={prev_pb!r}, run "
                    f"requests {partition_by!r} — use a fresh out_dir"
                )
            # callers that derive the partition rule from data (bucket
            # boundaries, bucket counts) pass a layout_tag so a re-run
            # with different parameters cannot silently mix layouts
            # (legacy manifests without the key resume freely)
            prev_tag = done[key].get("layout_tag")
            if (layout_tag is not None and prev_tag is not None
                    and prev_tag != layout_tag):
                raise ValueError(
                    f"resume layout-tag mismatch in {out_dir}: partition "
                    f"{pid} was written under {prev_tag!r}, run requests "
                    f"{layout_tag!r} — use a fresh out_dir"
                )
            if done[key].get("input_files") == files:
                metrics["resumed"] += 1
                continue
        if os.path.isdir(part_dir):
            # committed output this run cannot reuse: not in the manifest,
            # or built from other input files
            shutil.rmtree(part_dir)
            metrics["invalidated"] += 1
        ds = rd.read_parquet(files, columns=columns)
        if transform is not None:
            ds = transform(ds)
        tmp_dir = part_dir + ".tmp"
        if os.path.isdir(tmp_dir):
            shutil.rmtree(tmp_dir)

        def _write(d, path):
            if output_format == "jsonl":
                d.write_json(path)
            else:
                d.write_parquet(path)

        values = None
        if partition_by is None:
            _write(ds, tmp_dir)
        else:
            ds = ds.materialize()  # one execution shared by the value scans
            vals = sorted(
                {
                    r[partition_by]
                    for r in ds.groupby(partition_by).count().take_all()
                    if r[partition_by] is not None
                }
            )
            if len(vals) > max_partition_values:
                raise ValueError(
                    f"partition_by={partition_by!r} has {len(vals)} distinct "
                    f"values in shard group {pid} (> {max_partition_values}) "
                    "— partition_by needs a bounded-cardinality column"
                )
            for v in vals:
                lit = f"{v!r}" if isinstance(v, str) else str(v)
                sub = ds.filter(expr=f"{partition_by} == {lit}")
                _write(sub, os.path.join(tmp_dir, f"{partition_by}={v}"))
            values = [str(v) for v in vals]
        os.replace(tmp_dir, part_dir)
        done[key] = {"input_files": files, "format": output_format}
        if layout_tag is not None:
            done[key]["layout_tag"] = layout_tag
        if partition_by is not None:
            done[key]["partition_by"] = partition_by
            done[key]["values"] = values
        save_manifest()
        metrics["written"] += 1
    return metrics
