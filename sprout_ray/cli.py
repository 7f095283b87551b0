"""CLI — the Ray-Data re-expression of the reference CLI (cli/bloom.go:57-102).

The reference dispatches ``new|set|get|reset|stats`` against a single mmap
file with hardcoded geometry (cli/bloom.go:104-112: capacity 100, err 0.001).
Here the unit of persistence is a checkpoint DIRECTORY of per-partition
sketch Parquet rows (sprout_ray.state.checkpoint), geometry comes from flags,
and jobs are `ray job submit`-able scripts:

    python -m sprout_ray.cli build  --input DIR --on sha256 --sketch bloom \
        --err-rate 0.001 --capacity 1000000 --ckpt /tmp/ck
    python -m sprout_ray.cli probe  --ckpt /tmp/ck --keys foo bar
    python -m sprout_ray.cli stats  --ckpt /tmp/ck
    python -m sprout_ray.cli merge  --ckpt A --ckpt B --out merged.bin
    python -m sprout_ray.cli resume --input DIR ...   (same as build: done
        partitions are skipped via the checkpoint manifest)

Owns its Ray session (guarded init) — library code never calls ray.init.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

from .tuning import apply_malloc_tuning


def _spec_from_args(args):
    from .kernel.sketch import SketchSpec

    kind = args.sketch
    if kind == "bloom":
        return SketchSpec.of("bloom", args.err_rate, args.capacity)
    if kind == "sbf":
        return SketchSpec.of("sbf", args.err_rate, args.capacity, args.growth_rate)
    if kind == "hll":
        return SketchSpec.of("hll", args.precision)
    if kind == "cms":
        return SketchSpec.of("cms", args.eps, args.delta)
    if kind == "tdigest":
        return SketchSpec.of("tdigest", args.compression)
    if kind == "kll":
        return SketchSpec.of("kll", args.k)
    if kind == "mg":
        return SketchSpec.of("mg", args.m)
    if kind == "kmv":
        return SketchSpec.of("kmv", args.k)
    if kind == "moments":
        # geometry-free: exact integer power sums (kernel/moments.py) over
        # an int64 column in a caller-chosen unit
        return SketchSpec.of("moments")
    raise SystemExit(f"unknown sketch kind {kind!r}")


def _init_ray(num_cpus):
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def _input_files(path):
    if os.path.isdir(path):
        return sorted(glob.glob(os.path.join(path, "*.parquet")))
    return sorted(glob.glob(path))


def cmd_build(args) -> int:
    _init_ray(args.num_cpus)
    from .state.checkpoint import build_with_checkpoints

    spec = _spec_from_args(args)
    files = _input_files(args.input)
    if not files:
        raise SystemExit(f"no parquet files under {args.input}")
    sketch, metrics = build_with_checkpoints(
        files, spec, on=args.on, ckpt_dir=args.ckpt,
        files_per_partition=args.files_per_partition,
    )
    print(json.dumps({"result": sketch.result(), "metrics": metrics}))
    return 0


def _load_ckpt(ckpt):
    from .state.checkpoint import read_checkpoint_dir

    return read_checkpoint_dir(ckpt)


def cmd_probe(args) -> int:
    sk = _load_ckpt(args.ckpt[0])
    res = sk.contains_batch([k.encode() for k in args.keys])
    print(json.dumps({k: bool(v) for k, v in zip(args.keys, res)}))
    return 0


def cmd_stats(args) -> int:
    sk = _load_ckpt(args.ckpt[0])
    print(json.dumps(sk.result()))
    return 0


def cmd_topk(args) -> int:
    """Heavy-hitter / distinct-sample readout of a merged checkpoint:
    MG -> top-k items with [lower, upper] count intervals; KMV -> distinct
    estimate + retained key sample. Other kinds print result()."""
    from .kernel.kmv import KMVSketch
    from .kernel.misragries import MisraGries

    sk = _load_ckpt(args.ckpt[0])
    if isinstance(sk, MisraGries):
        print(json.dumps({
            "kind": "mg",
            "topk": [
                {"key": k, "lower": lo, "upper": hi}
                for k, lo, hi in sk.topk(args.top)
            ],
            **sk.result(),
        }))
    elif isinstance(sk, KMVSketch):
        print(json.dumps({
            "kind": "kmv",
            "sample": sk.sample()[: args.top],
            **sk.result(),
        }))
    else:
        print(json.dumps(sk.result()))
    return 0


def cmd_merge(args) -> int:
    accs = [_load_ckpt(c) for c in args.ckpt]
    acc = accs[0]
    for other in accs[1:]:
        acc.merge(other)
    with open(args.out, "wb") as f:
        f.write(acc.to_bytes())
    print(json.dumps({"out": args.out, "result": acc.result()}))
    return 0


def cmd_export_ref(args) -> int:
    """Merge checkpoint dir(s) -> ONE filter in the reference's packed mmap
    file layout (bloom.go:120-129/398-425), readable by the reference."""
    from .state.refformat import export_filter_file

    from .kernel.bloom import BloomFilter
    from .kernel.scalable_bloom import ScalableBloomFilter

    accs = [_load_ckpt(c) for c in args.ckpt]
    acc = accs[0]
    for other in accs[1:]:
        acc.merge(other)
    if not isinstance(acc, (BloomFilter, ScalableBloomFilter)):
        raise SystemExit(
            "export-ref only applies to bloom/sbf (the reference file format "
            f"holds packed filter bits); checkpoint holds {type(acc).__name__}"
        )
    written = export_filter_file(acc, args.out)
    print(json.dumps({"out": args.out, "bytes": written, "result": acc.result()}))
    return 0


def cmd_probe_ref(args) -> int:
    """Probe keys against a reference-layout filter file (no checkpoint)."""
    from .state.refformat import import_bloom_file, import_sbf_file

    if args.sketch == "sbf":
        sk = import_sbf_file(
            args.file, err_rate=args.err_rate,
            initial_capacity=args.capacity, growth_rate=args.growth_rate,
        )
    else:
        sk = import_bloom_file(args.file, err_rate=args.err_rate, capacity=args.capacity)
    res = sk.contains_batch([k.encode() for k in args.keys])
    print(json.dumps({k: bool(v) for k, v in zip(args.keys, res)}))
    return 0


def cmd_new_ref(args) -> int:
    """Create an empty filter file in the reference layout (cli/bloom.go
    'new': geometry from flags, file zeroed)."""
    from .kernel.bloom import BloomFilter
    from .state.refformat import export_filter_file

    bf = BloomFilter(err_rate=args.err_rate, capacity=args.capacity)
    n = export_filter_file(bf, args.file)
    print(json.dumps({"file": args.file, "bytes": n, "k": bf.k, "m": bf.m}))
    return 0


def cmd_set_ref(args) -> int:
    """Incremental maintenance parity with the reference CLI's workhorse
    loop (cli/bloom.go:57-112: reopen file -> Add key -> close): import the
    reference-layout file, add keys, re-export in place. Faithful caveat:
    the file stores no count (refformat.py), so — exactly like a reopened
    reference filter — the capacity check restarts from 0 on each open."""
    from .state.refformat import export_filter_file, import_bloom_file

    bf = import_bloom_file(args.file, err_rate=args.err_rate, capacity=args.capacity)
    bf.add_batch([k.encode() for k in args.keys])
    export_filter_file(bf, args.file)
    print(json.dumps({"file": args.file, "added": len(args.keys)}))
    return 0


def cmd_reset_ref(args) -> int:
    """Clear a reference-layout filter file in place (cli/bloom.go 'reset')."""
    from .state.refformat import export_filter_file, import_bloom_file

    bf = import_bloom_file(args.file, err_rate=args.err_rate, capacity=args.capacity)
    bf.clear()
    export_filter_file(bf, args.file)
    print(json.dumps({"file": args.file, "reset": True}))
    return 0


def cmd_kv_build(args) -> int:
    """Build a bloom-guarded hash-bucketed KV (the reference's Put path)."""
    _init_ray(args.num_cpus)
    import ray.data as rd

    from .state.kv import KVStore

    files = _input_files(args.input)
    if not files:
        raise SystemExit(f"no parquet files under {args.input}")
    ds = rd.read_parquet(files, columns=[args.key, args.value])
    store = KVStore.build(
        ds, key_col=args.key, value_col=args.value, path=args.store,
        n_buckets=args.buckets, err_rate=args.err_rate,
    )
    total = sum(b["rows"] for b in store.manifest["buckets"].values())
    print(json.dumps({"store": args.store, "buckets": store.n_buckets, "rows": total}))
    return 0


def cmd_kv_get(args) -> int:
    """Filter-guarded point lookups (the reference's Get path): definite
    misses cost zero IO; values come back for present keys only."""
    from .state.kv import KVStore

    store = KVStore.open(args.store)
    res = store.get(args.keys)
    io = store.io_stats(args.keys)
    print(json.dumps({"values": {k: res.get(k) for k in args.keys}, "io": io}))
    return 0


def cmd_profile(args) -> int:
    """ANALYZE-style per-column statistics (stages/profile.py): count,
    nulls, KMV distinct (exactness-certified below capacity), min/max."""
    _init_ray(args.num_cpus)
    import ray.data as rd

    from .stages.profile import profile_columns

    files = _input_files(args.input)
    if not files:
        raise SystemExit(f"no parquet files under {args.input}")
    ds = rd.read_parquet(files, columns=args.columns or None)
    cols = args.columns or [f.name for f in ds.schema().base_schema]
    out = profile_columns(ds, cols, distinct_k=args.distinct_k)
    print(json.dumps({"profile": out.to_pylist()}))
    return 0


def cmd_skew(args) -> int:
    """Exact key-skew profile (stages/profile.skew_stats): occurrence
    count, distinct count, F2 = sum(c^2) (self-join size — the salting
    decision statistic) and the hottest key's count, one scan for all
    requested columns. A skew ratio f2 * n_distinct / n^2 >> 1 means a
    few hot keys dominate any shuffle on this column."""
    _init_ray(args.num_cpus)
    import ray.data as rd

    from .stages.profile import skew_stats

    files = _input_files(args.input)
    if not files:
        raise SystemExit(f"no parquet files under {args.input}")
    # size-aware block count (one per CPU floor, 128 MiB target) — the
    # default ~200-way split pays ~200 per-block group_bys here
    import os

    import ray

    cpus = int(ray.cluster_resources().get("CPU", 8))
    size_blocks = -(-sum(os.path.getsize(f) for f in files) // (128 << 20))
    ds = rd.read_parquet(
        files, columns=args.columns,
        override_num_blocks=max(cpus, size_blocks),
    )
    out = skew_stats(ds, args.columns)
    rows = out.to_pylist()
    for r in rows:
        r["skew_ratio"] = round(r["f2"] * r["n_distinct"] / max(r["n"], 1) ** 2, 3)
    print(json.dumps({"skew": rows}))
    return 0


def cmd_setops(args) -> int:
    """Set-operation cardinalities from Bloom filters (Swamidass-Baldi
    fill-ratio MLE, kernel/bloom.approx_cardinality): distinct keys in the
    --a and --b partitions of --by, their union (bit-OR merge) and
    intersection (inclusion-exclusion). ONE scan builds a bloom per
    partition via the grouped mergeable aggregate; raw keys never shuffle."""
    _init_ray(args.num_cpus)
    import ray.data as rd

    from .kernel.sketch import SketchSpec
    from .stages.builder import build_grouped

    files = _input_files(args.input)
    if not files:
        raise SystemExit(f"no parquet files under {args.input}")
    ds = rd.read_parquet(files, columns=[args.by, args.key])
    n_rows = ds.count()
    spec = SketchSpec.of("bloom", args.err, max(n_rows, 11))
    rows = build_grouped(ds, spec, on=args.key, key=args.by, alias="sk").take_all()
    sk = {r[args.by]: spec.from_bytes(r["sk"]) for r in rows}
    missing = [v for v in (args.a, args.b) if v not in sk]
    if missing:
        raise SystemExit(
            f"--by {args.by} has no value(s) {missing}; present: {sorted(sk)}"
        )
    a, b = sk[args.a], sk[args.b]
    ea, eb = a.approx_cardinality(), b.approx_cardinality()
    a.merge(b)
    eu = a.approx_cardinality()
    print(
        json.dumps(
            {
                "key": args.key,
                "by": args.by,
                "err": args.err,
                f"n_{args.a}": round(ea, 3),
                f"n_{args.b}": round(eb, 3),
                "n_union": round(eu, 3),
                "n_intersection": round(ea + eb - eu, 3),
            }
        )
    )
    return 0


def cmd_curate(args) -> int:
    """End-to-end curation write path: exact dedup -> quality gate ->
    optional train/val/test split -> resumable partitioned shards
    (pipelines/curate.curate_corpus)."""
    _init_ray(args.num_cpus)
    from .pipelines.curate import curate_corpus

    files = _input_files(args.input)
    if not files:
        raise SystemExit(f"no parquet files under {args.input}")
    fractions = None
    if args.splits:
        fractions = []
        for part in args.splits.split(","):
            name, frac = part.split("=")
            fractions.append((name, float(frac)))
    bench_files = None
    if args.benchmark:
        bench_files = _input_files(args.benchmark)
        if not bench_files:
            raise SystemExit(f"no parquet files under {args.benchmark}")
    metrics = curate_corpus(
        files,
        args.out,
        text_col=args.text_col,
        id_col=args.id_col,
        min_tokens=args.min_tokens,
        max_punct=args.max_punct,
        files_per_partition=args.files_per_partition,
        split_fractions=fractions,
        benchmark_files=bench_files,
        decontam_n=args.decontam_n,
        output_format=args.output_format,
        partition_by=args.partition_by,
    )
    print(json.dumps({"out": args.out, "metrics": metrics}))
    return 0


def cmd_sample(args) -> int:
    """Deterministic weighted sample without replacement (stages/sampling.
    weighted_sample, Efraimidis-Spirakis): emits the selected rows as
    JSON. Rerun-stable — the same seed always picks the same rows."""
    _init_ray(args.num_cpus)
    import ray.data as rd

    from .stages.sampling import weighted_sample

    files = _input_files(args.input)
    if not files:
        raise SystemExit(f"no parquet files under {args.input}")
    ds = rd.read_parquet(files, columns=[args.id_col, args.weight_col])
    out = weighted_sample(
        ds, args.n, weight_col=args.weight_col, id_col=args.id_col,
        seed=args.seed,
    )
    rows = out.to_pandas()
    print(
        json.dumps(
            {
                "n": int(len(rows)),
                "ids": [int(x) for x in rows[args.id_col]],
            }
        )
    )
    return 0


def cmd_semdedup(args) -> int:
    """SemDeDup over an embedding parquet (stages/cluster.
    semantic_dedup_survivors): spherical k-means + within-cluster cosine
    keep-min-id; prints survivor count + dropped ids."""
    _init_ray(args.num_cpus)
    import ray.data as rd

    from .stages.cluster import semantic_dedup_survivors

    files = _input_files(args.input)
    if not files:
        raise SystemExit(f"no parquet files under {args.input}")
    ds = rd.read_parquet(files, columns=[args.id_col, args.emb_col])
    total = ds.count()
    out = semantic_dedup_survivors(
        ds, threshold=args.threshold, k=args.nlist,
        emb_col=args.emb_col, id_col=args.id_col, seed=args.seed,
    )
    kept = sorted(int(x) for x in out.to_pandas()[args.id_col])
    print(
        json.dumps(
            {"total": int(total), "kept": len(kept), "dropped": total - len(kept)}
        )
    )
    return 0


def cmd_layout(args) -> int:
    """Resumable balanced re-layout (stages/layout.write_range_partitioned):
    learn k-1 percentile_disc boundaries of --col from one column-pruned
    histogram pass, then rewrite each input shard group under
    out/part=NNNNN/bucket=B/ — a killed run skips finished groups on retry."""
    _init_ray(args.num_cpus)
    from .stages.layout import write_range_partitioned, write_zorder_partitioned

    files = _input_files(args.input)
    if not files:
        raise SystemExit(f"no parquet files under {args.input}")
    if args.zorder_y:
        bounds, metrics = write_zorder_partitioned(
            files, args.col, args.zorder_y, args.buckets, args.out,
            files_per_partition=args.files_per_partition,
        )
    else:
        bounds, metrics = write_range_partitioned(
            files, args.col, args.buckets, args.out,
            files_per_partition=args.files_per_partition,
        )
    print(json.dumps({"boundaries": [int(b) for b in bounds], **metrics}))
    return 0


def cmd_query(args) -> int:
    """Run any registered pipeline (``__ray_entry__.queries()`` name) over
    an sf-style directory of the ten standard tables; print the row count
    and optionally write the result as parquet. ``--list`` enumerates the
    full registry without starting Ray."""
    import importlib

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    E = importlib.import_module("__ray_entry__")
    qs = E.queries()
    if args.list:
        has_oracle = set(E.oracle_sql())
        try:
            for name in sorted(qs):
                tag = "oracle-exact" if name in has_oracle else "rows+self-evidence"
                print(f"{name}\t{tag}")
        except BrokenPipeError:  # | head closed the pipe — not an error
            pass
        return 0
    if args.name not in qs:
        import difflib

        near = difflib.get_close_matches(args.name, qs, n=3)
        raise SystemExit(
            f"unknown query {args.name!r}" + (f"; did you mean {near}?" if near else "")
        )
    _init_ray(args.num_cpus)
    import pandas as pd
    import pyarrow as pa

    import ray.data

    from .stages.agg import collect_table

    res = qs[args.name](args.sf)
    if isinstance(res, ray.data.Dataset):
        tbl = collect_table(res)  # one execution: no count() pass first
    elif isinstance(res, pd.DataFrame):
        tbl = pa.Table.from_pandas(res, preserve_index=False)
    else:
        tbl = res
    if args.out and tbl.num_columns:
        import pyarrow.parquet as pq

        pq.write_table(tbl, args.out)
    print(json.dumps({"query": args.name, "rows": tbl.num_rows, "out": args.out}))
    return 0


def main(argv=None) -> int:
    apply_malloc_tuning()
    from .tuning import quiet_cosmetic_ray_warnings

    quiet_cosmetic_ray_warnings()
    p = argparse.ArgumentParser(prog="sprout_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--sketch", default="bloom",
                        choices=["bloom", "sbf", "hll", "cms", "tdigest", "kll",
                                 "mg", "kmv", "moments"])
        sp.add_argument("--err-rate", type=float, default=0.001)
        sp.add_argument("--capacity", type=int, default=10_000)
        sp.add_argument("--growth-rate", type=int, default=2)
        sp.add_argument("--precision", type=int, default=14)
        sp.add_argument("--eps", type=float, default=0.0001)
        sp.add_argument("--delta", type=float, default=0.01)
        sp.add_argument("--compression", type=float, default=200.0)
        sp.add_argument("--k", type=int, default=200)
        sp.add_argument("--m", type=int, default=256, help="mg counter capacity")
        sp.add_argument("--num-cpus", type=int,
                        default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))

    b = sub.add_parser("build", help="build a sketch over parquet input (resumable)")
    b.add_argument("--input", required=True)
    b.add_argument("--on", required=True, help="column to sketch")
    b.add_argument("--ckpt", required=True, help="checkpoint directory")
    b.add_argument("--files-per-partition", type=int, default=1)
    common(b)
    b.set_defaults(fn=cmd_build)

    r = sub.add_parser("resume", help="alias of build: completed partitions are skipped")
    r.add_argument("--input", required=True)
    r.add_argument("--on", required=True)
    r.add_argument("--ckpt", required=True)
    r.add_argument("--files-per-partition", type=int, default=1)
    common(r)
    r.set_defaults(fn=cmd_build)

    pr = sub.add_parser("probe", help="membership-probe keys against a built filter")
    pr.add_argument("--ckpt", action="append", required=True)
    pr.add_argument("--keys", nargs="+", required=True)
    common(pr)
    pr.set_defaults(fn=cmd_probe)

    st = sub.add_parser("stats", help="merged stats of a checkpoint directory")
    st.add_argument("--ckpt", action="append", required=True)
    common(st)
    st.set_defaults(fn=cmd_stats)

    tk = sub.add_parser("topk", help="top-k / sample readout of a checkpoint (mg/kmv)")
    tk.add_argument("--ckpt", action="append", required=True)
    tk.add_argument("--top", type=int, default=10)
    common(tk)
    tk.set_defaults(fn=cmd_topk)

    mg = sub.add_parser("merge", help="merge checkpoint dirs into one sketch file")
    mg.add_argument("--ckpt", action="append", required=True)
    mg.add_argument("--out", required=True)
    common(mg)
    mg.set_defaults(fn=cmd_merge)

    xr = sub.add_parser(
        "export-ref", help="write merged filter in the reference's mmap file layout"
    )
    xr.add_argument("--ckpt", action="append", required=True)
    xr.add_argument("--out", required=True)
    common(xr)
    xr.set_defaults(fn=cmd_export_ref)

    prf = sub.add_parser(
        "probe-ref", help="probe keys against a reference-layout filter file"
    )
    prf.add_argument("--file", required=True)
    prf.add_argument("--keys", nargs="+", required=True)
    common(prf)
    prf.set_defaults(fn=cmd_probe_ref)

    nr = sub.add_parser("new-ref", help="create an empty reference-layout filter file")
    nr.add_argument("--file", required=True)
    common(nr)
    nr.set_defaults(fn=cmd_new_ref)

    sr = sub.add_parser(
        "set-ref", help="add keys into an existing reference-layout filter file"
    )
    sr.add_argument("--file", required=True)
    sr.add_argument("--keys", nargs="+", required=True)
    common(sr)
    sr.set_defaults(fn=cmd_set_ref)

    rr = sub.add_parser("reset-ref", help="clear a reference-layout filter file")
    rr.add_argument("--file", required=True)
    common(rr)
    rr.set_defaults(fn=cmd_reset_ref)

    kb = sub.add_parser(
        "kv-build", help="build a bloom-guarded hash-bucketed parquet KV"
    )
    kb.add_argument("--input", required=True)
    kb.add_argument("--key", required=True)
    kb.add_argument("--value", required=True)
    kb.add_argument("--store", required=True, help="KV store directory")
    kb.add_argument("--buckets", type=int, default=0,
                    help="0 = auto-scale (~1M rows/bucket, capped 4096)")
    common(kb)
    kb.set_defaults(fn=cmd_kv_build)

    kg = sub.add_parser("kv-get", help="filter-guarded point lookups")
    kg.add_argument("--store", required=True)
    kg.add_argument("--keys", nargs="+", required=True)
    common(kg)
    kg.set_defaults(fn=cmd_kv_get)

    pr = sub.add_parser(
        "profile",
        help="per-column stats: count/nulls/distinct(KMV)/min/max",
    )
    pr.add_argument("--input", required=True, help="parquet file/dir/glob")
    pr.add_argument("--columns", nargs="*", default=None)
    pr.add_argument("--distinct-k", type=int, default=65536)
    common(pr)
    pr.set_defaults(fn=cmd_profile)

    sk = sub.add_parser(
        "skew",
        help="exact key-skew profile: n/distinct/F2/max per key column",
    )
    sk.add_argument("--input", required=True, help="parquet file/dir/glob")
    sk.add_argument("--columns", nargs="+", required=True)
    common(sk)
    sk.set_defaults(fn=cmd_skew)

    so = sub.add_parser(
        "setops",
        help="bloom set-op cardinalities: |A|, |B|, |A∪B|, |A∩B| of a key "
        "column split by two partition values (no key shuffle)",
    )
    so.add_argument("--input", required=True, help="parquet file/dir/glob")
    so.add_argument("--key", required=True, help="key column")
    so.add_argument("--by", required=True, help="partition column")
    so.add_argument("--a", required=True, help="partition value for set A")
    so.add_argument("--b", required=True, help="partition value for set B")
    so.add_argument("--err", type=float, default=0.01)
    common(so)
    so.set_defaults(fn=cmd_setops)

    qy = sub.add_parser(
        "query",
        help="run any registered pipeline by queries() name over an "
        "sf-style table dir; --list enumerates",
    )
    qy.add_argument("--name", default=None)
    qy.add_argument("--sf", default="/root/testdata/sf0.01")
    qy.add_argument("--out", default=None, help="optional parquet output path")
    qy.add_argument("--list", action="store_true")
    common(qy)
    qy.set_defaults(fn=cmd_query)

    cu = sub.add_parser(
        "curate",
        help="dedup + quality gate + optional split -> resumable shards",
    )
    cu.add_argument("--input", required=True, help="parquet file/dir/glob")
    cu.add_argument("--out", required=True)
    cu.add_argument("--text-col", default="text")
    cu.add_argument("--id-col", default="doc_id")
    cu.add_argument("--min-tokens", type=int, default=30)
    cu.add_argument("--max-punct", type=float, default=0.3)
    cu.add_argument("--files-per-partition", type=int, default=1)
    cu.add_argument(
        "--output-format",
        choices=["parquet", "jsonl"],
        default="parquet",
        help="shard format (jsonl = newline-delimited JSON via write_json)",
    )
    cu.add_argument(
        "--partition-by",
        default=None,
        help="bounded-cardinality column (lang, split): hive-style "
        "part=<i>/<col>=<value>/ shard layout",
    )
    cu.add_argument(
        "--splits",
        default=None,
        help="comma list name=frac, e.g. train=0.9,val=0.1 (must sum to 1)",
    )
    cu.add_argument(
        "--benchmark",
        default=None,
        help="parquet file/dir/glob of benchmark docs: drop corpus docs "
        "sharing word n-grams with them (bloom-pruned, exact-verified)",
    )
    cu.add_argument("--decontam-n", type=int, default=8)
    common(cu)
    cu.set_defaults(fn=cmd_curate)

    sa = sub.add_parser(
        "sample",
        help="deterministic weighted sample (Efraimidis-Spirakis)",
    )
    sa.add_argument("--input", required=True, help="parquet file/dir/glob")
    sa.add_argument("--n", type=int, required=True)
    sa.add_argument("--weight-col", required=True)
    sa.add_argument("--id-col", default="doc_id")
    sa.add_argument("--seed", type=int, default=0)
    common(sa)
    sa.set_defaults(fn=cmd_sample)

    sd = sub.add_parser(
        "semdedup",
        help="semantic dedup over embeddings (k-means + cosine keep-min-id)",
    )
    sd.add_argument("--input", required=True, help="parquet file/dir/glob")
    sd.add_argument("--threshold", type=float, required=True)
    # --k is taken by the shared sketch-geometry flags; IVF naming here
    sd.add_argument("--nlist", type=int, default=1)
    sd.add_argument("--emb-col", default="embedding")
    sd.add_argument("--id-col", default="vec_id")
    sd.add_argument("--seed", type=int, default=11)
    common(sd)
    sd.set_defaults(fn=cmd_semdedup)

    ly = sub.add_parser(
        "layout",
        help="resumable range-partitioned re-layout (quantile buckets of --col)",
    )
    ly.add_argument("--input", required=True, help="parquet file/dir/glob")
    ly.add_argument("--col", required=True, help="integer column to bucket by")
    ly.add_argument("--buckets", type=int, default=8)
    ly.add_argument(
        "--zorder-y",
        default=None,
        help="second coordinate column: cluster by Z-order(col, zorder_y) "
        "quantile ranges instead of 1-D buckets",
    )
    ly.add_argument("--out", required=True)
    ly.add_argument("--files-per-partition", type=int, default=1)
    common(ly)
    ly.set_defaults(fn=cmd_layout)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
