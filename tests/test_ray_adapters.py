"""Ray-layer tests: aggregation adapters, probes, checkpoints, pipelines.

Uses the session-scoped ray fixture (tests/conftest.py) and a small
deterministic corpus generated in /tmp.
"""

import os

import numpy as np
import pyarrow as pa
import pytest

from sprout_ray.kernel import SketchSpec
from sprout_ray.kernel.sketch import sketch_from_bytes

CORPUS_DIR = "/tmp/sprout_test_corpus"
N_ROWS = 8_000


@pytest.fixture(scope="session")
def corpus(ray_session):
    from sprout_ray.sources.synth import ensure_corpus

    return ensure_corpus(CORPUS_DIR, N_ROWS, n_files=4, seed=42)


@pytest.fixture(scope="session")
def corpus_ds(corpus):
    from sprout_ray.sources.synth import read_corpus

    return read_corpus(corpus)


def test_corpus_determinism(corpus):
    from sprout_ray.sources.synth import generate_repo_table

    a = generate_repo_table(500, seed=42, offset=100, total_rows=1000)
    b = generate_repo_table(500, seed=42, offset=100, total_rows=1000)
    assert a.equals(b)


def _corpus_files(corpus):
    return sorted(
        os.path.join(corpus, p) for p in os.listdir(corpus) if p.endswith(".parquet")
    )


@pytest.mark.parametrize("kind", ["bloom", "hll", "cms"])
def test_build_plans_agree(corpus, corpus_ds, tmp_path, kind):
    """Every build entry point gives the same bytes as the grouped path's
    SketchAgg (order-insensitivity of the merge): build_sketch,
    multi_sketch_build and the checkpointed build all run the one leaf and
    the one merge."""
    from sprout_ray.pipelines.flagship import multi_sketch_build
    from sprout_ray.stages.agg import SketchAgg
    from sprout_ray.stages.builder import build_sketch
    from sprout_ray.state.checkpoint import build_with_checkpoints

    spec, col = {
        "bloom": (SketchSpec.of("bloom", 0.001, N_ROWS * 2), "content"),
        "hll": (SketchSpec.of("hll", 12), "repo"),
        "cms": (SketchSpec.of("cms", 0.001, 0.01), "path"),
    }[kind]
    files = _corpus_files(corpus)
    assert len(files) == 4
    ref = corpus_ds.aggregate(SketchAgg(spec, on=col, alias_name="s"))["s"]
    plans = {
        "build_sketch": build_sketch(corpus_ds, spec, on=col),
        "multi_sketch_build": multi_sketch_build(corpus_ds, {kind: (spec, col)})[kind],
        "build_with_checkpoints": build_with_checkpoints(
            files, spec, on=col, ckpt_dir=str(tmp_path / "ck")
        )[0],
    }
    for plan, sk in plans.items():
        assert sk.to_bytes() == ref, plan


def test_two_parallelism_levels_equal_sketch(corpus):
    """Same input at different block layouts -> identical final sketch
    (the in-sandbox stand-in for cluster-size invariance)."""
    from sprout_ray.sources.synth import read_corpus
    from sprout_ray.pipelines.flagship import with_invariant
    from sprout_ray.stages.builder import build_sketch

    spec = SketchSpec.of("hll", 12)
    outs = []
    for parallelism in (2, 8):
        ds = read_corpus(corpus).repartition(parallelism)
        ds = with_invariant(ds)
        outs.append(build_sketch(ds, spec, on="sha256"))
    assert (outs[0].registers == outs[1].registers).all()


def test_no_false_negatives_distributed(corpus_ds):
    from sprout_ray.pipelines.flagship import with_invariant
    from sprout_ray.stages.builder import build_sketch
    from sprout_ray.stages.probe import probe_filter

    ds = with_invariant(corpus_ds)
    bf = build_sketch(ds, SketchSpec.of("bloom", 0.001, N_ROWS * 2), on="sha256")
    kept = probe_filter(ds, bf, on="sha256", mode="maybe").count()
    assert kept == N_ROWS  # every member retained: no false negatives


def test_probe_fpr_within_epsilon(corpus_ds):
    import ray.data as rd

    from sprout_ray.pipelines.flagship import with_invariant
    from sprout_ray.stages.builder import build_sketch
    from sprout_ray.stages.probe import probe_filter

    eps = 0.001
    ds = with_invariant(corpus_ds)
    bf = build_sketch(ds, SketchSpec.of("bloom", eps, N_ROWS * 2), on="sha256")
    n_probe = 50_000
    foreign = rd.from_arrow(
        pa.table({"sha256": [f"foreign-{i}" for i in range(n_probe)]})
    )
    fp = probe_filter(foreign, bf, on="sha256", mode="maybe").count()
    assert fp / n_probe <= eps + 3 * (eps / n_probe) ** 0.5


def _planted_keys():
    """8 blocks of string keys, members k0..k1999 and foreign f0..f1999."""
    import ray.data as rd

    keys = [f"k{i}" for i in range(2000)] + [f"f{i}" for i in range(2000)]
    return rd.from_arrow(pa.table({"key": keys})).repartition(8)


def _probe_flags(ds):
    """(key, maybe) of a probed Dataset in key order."""
    from sprout_ray.stages.agg import collect_table

    t = collect_table(ds).sort_by("key")
    return t["key"].to_pylist(), t["maybe"].to_pylist()


def _bloom_of(keys):
    import ray.data as rd

    from sprout_ray.stages.builder import build_sketch

    ds = rd.from_arrow(pa.table({"key": keys}))
    return build_sketch(ds, SketchSpec.of("bloom", 0.05, len(keys)), on="key")


def test_probe_filter_flags_equal_in_process_probe(ray_session):
    """The task plan's flags equal BloomProbe's called in this process on
    the same planted keys (no false negatives, identical maybes)."""
    import ray

    from sprout_ray.stages.probe import BloomProbe, probe_filter

    ds = _planted_keys()
    bf = _bloom_of([f"k{i}" for i in range(2000)])
    keys, flags = _probe_flags(probe_filter(ds, bf, on="key", flag_column="maybe"))
    t = pa.table({"key": keys})
    local = BloomProbe(ray.put(bf.to_bytes()), on="key", flag_column="maybe")(t)
    assert local["maybe"].to_pylist() == flags
    assert all(f for k, f in zip(keys, flags) if k.startswith("k"))
    assert not all(f for k, f in zip(keys, flags) if k.startswith("f"))


def test_probe_filter_second_filter_not_stale(ray_session):
    """A second probe_filter with another filter over the same input gives
    the second filter's flags, not the first's cached state."""
    import ray

    from sprout_ray.stages.probe import BloomProbe, probe_filter

    ds = _planted_keys().materialize()
    first = _bloom_of([f"k{i}" for i in range(2000)])
    second = _bloom_of([f"f{i}" for i in range(2000)])
    _probe_flags(probe_filter(ds, first, on="key", flag_column="maybe"))
    keys, flags = _probe_flags(probe_filter(ds, second, on="key", flag_column="maybe"))
    local = BloomProbe(ray.put(second.to_bytes()), on="key", flag_column="maybe")(
        pa.table({"key": keys})
    )
    assert local["maybe"].to_pylist() == flags
    assert all(f for k, f in zip(keys, flags) if k.startswith("f"))


def _counting_stage(log_path: str, tag: str):
    """A stage class that appends "<tag> <pid>" to ``log_path`` per build
    (defined in a function so it pickles by value into the workers)."""

    class Stage:
        def __init__(self, bump: int):
            with open(log_path, "a") as f:
                f.write(f"{tag} {os.getpid()}\n")
            self.bump = bump

        def __call__(self, t: pa.Table) -> pa.Table:
            return t.set_column(0, "x", pa.compute.add(t["x"], self.bump))

    return Stage


def _builds(log_path):
    with open(log_path) as f:
        return [tuple(line.split()) for line in f]


def test_stateful_map_builds_once_per_process(ray_session, tmp_path):
    """Over 8 blocks x 8 batches the state is built at most once per worker
    process (so at most CPU-count times), never once per batch."""
    import ray
    import ray.data as rd

    from sprout_ray.stages.agg import collect_table, stateful_map

    log = str(tmp_path / "builds")
    ds = rd.from_arrow(pa.table({"x": np.arange(6400, dtype=np.int64)})).repartition(8)
    out = stateful_map(
        ds, _counting_stage(log, "a"), {"bump": 1},
        batch_format="pyarrow", batch_size=100,
    )
    got = collect_table(out)["x"].to_numpy()
    assert np.array_equal(np.sort(got), np.arange(1, 6401))
    builds = _builds(log)
    assert 1 <= len(builds) <= int(ray.cluster_resources()["CPU"])
    assert len(set(builds)) == len(builds)


def test_stateful_map_two_stages_in_one_dag(ray_session, tmp_path):
    """Two stateful stages chained in one DAG interleave in the same worker
    processes; each is still built at most once per process (the state
    cache holds both)."""
    import ray.data as rd

    from sprout_ray.stages.agg import collect_table, stateful_map

    log = str(tmp_path / "builds")
    ds = rd.from_arrow(pa.table({"x": np.arange(6400, dtype=np.int64)})).repartition(8)
    kw = {"batch_format": "pyarrow", "batch_size": 100}
    out = stateful_map(
        stateful_map(ds, _counting_stage(log, "a"), {"bump": 1}, **kw),
        _counting_stage(log, "b"), {"bump": 10}, **kw,
    )
    got = collect_table(out)["x"].to_numpy()
    assert np.array_equal(np.sort(got), np.arange(11, 6411))
    builds = _builds(log)
    assert {tag for tag, _ in builds} == {"a", "b"}
    assert len(set(builds)) == len(builds)


def test_sha256_invariant_preserved(corpus_ds):
    """The multiset of sha256(content) out of a transform equals the multiset
    in (BASELINE.json:input_hint per-row invariant)."""
    import hashlib

    from sprout_ray.pipelines.flagship import with_invariant

    ds = with_invariant(corpus_ds)
    shas_in = sorted(
        hashlib.sha256(r["content"].encode()).hexdigest()
        for r in corpus_ds.select_columns(["content"]).take_all()
    )
    # a shuffle-heavy transform: repartition + filter-noop
    out = ds.repartition(7).map_batches(lambda t: t, batch_format="pyarrow")
    shas_out = sorted(r["sha256"] for r in out.select_columns(["sha256"]).take_all())
    assert shas_in == shas_out


def test_grouped_hll_matches_exact(corpus_ds):
    import duckdb

    from sprout_ray.stages.builder import build_grouped

    out = build_grouped(
        corpus_ds,
        SketchSpec.of("hll", 12),
        on="repo",
        key="lang",
        finalizer=lambda s: float(s.estimate()),
        alias="est",
    ).to_pandas()
    exact = duckdb.sql(
        f"SELECT lang, count(DISTINCT repo) c FROM read_parquet('{CORPUS_DIR}/part-*.parquet') GROUP BY lang"
    ).df()
    m = out.merge(exact, on="lang")
    rel = (m["est"] - m["c"]).abs() / m["c"]
    assert (rel <= 3 * 1.04 / np.sqrt(2**12) + 0.01).all()


@pytest.mark.parametrize("kind", ["hll", "cms"])
def test_grouped_salted_int_key(ray_session, kind):
    """Salting hashes the sketched column through hash_keys, so an int64
    ``on`` column (decimal-string keys) works and every group's sketch
    equals the unsalted grouped build's bytes."""
    import ray.data as rd

    from sprout_ray.stages.builder import build_grouped, build_grouped_salted

    spec = {"hll": SketchSpec.of("hll", 10), "cms": SketchSpec.of("cms", 0.01, 0.01)}[kind]
    rng = np.random.default_rng(9)
    tables = [
        pa.table(
            {
                "g": pa.array(rng.integers(0, 3, 500), pa.int64()),
                "v": pa.array(rng.integers(0, 200, 500), pa.int64()),
            }
        )
        for _ in range(3)
    ]
    salted = build_grouped_salted(rd.from_arrow(tables), spec, on="v", key="g", salt=4)
    plain = build_grouped(rd.from_arrow(tables), spec, on="v", key="g").take_all()
    got = dict(zip(salted["g"].to_pylist(), salted["sketch"].to_pylist()))
    want = {r["g"]: r["sketch"] for r in plain}
    assert sorted(got) == [0, 1, 2] and got == want


def test_multi_sketch_single_pass(corpus_ds):
    from sprout_ray.pipelines.flagship import multi_sketch_build, with_invariant

    ds = with_invariant(corpus_ds)
    built = multi_sketch_build(
        ds,
        {
            "bloom": (SketchSpec.of("bloom", 0.01, N_ROWS * 2), "sha256"),
            "hll": (SketchSpec.of("hll", 12), "repo"),
            "cms": (SketchSpec.of("cms", 0.001, 0.01), "lang"),
        },
    )
    assert built["_rows"] == N_ROWS
    assert built["bloom"].count == N_ROWS
    assert built["hll"].estimate() > 10
    assert built["cms"].total == N_ROWS


def test_checkpoint_resume(corpus, tmp_path):
    from sprout_ray.state.checkpoint import build_with_checkpoints, completed_partitions

    files = sorted(
        os.path.join(corpus, p) for p in os.listdir(corpus) if p.endswith(".parquet")
    )
    spec = SketchSpec.of("hll", 12)
    ck = str(tmp_path / "ckpt")
    full, m1 = build_with_checkpoints(files, spec, on="repo", ckpt_dir=ck)
    assert m1["built"] == len(files) and m1["resumed"] == 0
    assert m1["rows"] == N_ROWS
    # rerun: everything resumes from checkpoints, nothing rebuilt
    again, m2 = build_with_checkpoints(files, spec, on="repo", ckpt_dir=ck)
    assert m2["built"] == 0 and m2["resumed"] == len(files)
    assert (full.registers == again.registers).all()
    # partial resume: drop one checkpoint, only that partition rebuilds
    done = completed_partitions(ck, {"hll(repo)": (spec, "repo")})
    assert sorted(done) == list(range(len(files)))
    assert all(v is not None for v in done.values())
    victim = sorted(done)[0]
    os.remove(os.path.join(ck, f"part-{victim:05d}.parquet"))
    third, m3 = build_with_checkpoints(files, spec, on="repo", ckpt_dir=ck)
    assert m3["built"] == 1 and m3["resumed"] == len(files) - 1
    assert (full.registers == third.registers).all()


def test_checkpoint_lineage_mismatch_rebuilds(corpus, tmp_path):
    # same partition ids, but partitioning changed (2 files/partition vs 1):
    # recorded lineage no longer matches -> stale checkpoints must NOT merge
    from sprout_ray.state.checkpoint import build_with_checkpoints

    files = sorted(
        os.path.join(corpus, p) for p in os.listdir(corpus) if p.endswith(".parquet")
    )
    assert len(files) >= 2
    spec = SketchSpec.of("hll", 12)
    ck = str(tmp_path / "ckpt_lin")
    build_with_checkpoints(files[:2], spec, on="repo", ckpt_dir=ck)
    full, m = build_with_checkpoints(
        files, spec, on="repo", ckpt_dir=ck, files_per_partition=2
    )
    assert m["invalidated"] >= 1 and m["resumed"] == 0
    # result equals a clean build over all files
    clean, _ = build_with_checkpoints(
        files, spec, on="repo", ckpt_dir=str(tmp_path / "ckpt_clean"),
        files_per_partition=2,
    )
    assert (full.registers == clean.registers).all()


def test_checkpoint_spec_mismatch_not_resumed(corpus, tmp_path):
    from sprout_ray.state.checkpoint import build_with_checkpoints

    files = sorted(
        os.path.join(corpus, p) for p in os.listdir(corpus) if p.endswith(".parquet")
    )[:2]
    ck = str(tmp_path / "ckpt2")
    build_with_checkpoints(files, SketchSpec.of("hll", 12), on="repo", ckpt_dir=ck)
    # different geometry -> stale checkpoints ignored, fresh build
    _, m = build_with_checkpoints(files, SketchSpec.of("hll", 10), on="repo", ckpt_dir=ck)
    assert m["resumed"] == 0


def test_sbf_distributed_growth(corpus_ds):
    from sprout_ray.pipelines.flagship import with_invariant
    from sprout_ray.stages.builder import build_sketch

    ds = with_invariant(corpus_ds)
    sbf = build_sketch(ds, SketchSpec.of("sbf", 0.001, N_ROWS // 16), on="sha256")
    assert sbf.count() == N_ROWS
    assert len(sbf.filters) > 1  # growth actually happened across partials
    assert sbf.prob() <= 0.001 / (1 - 0.9)


def test_serialized_roundtrip_through_object_store(corpus_ds):
    import ray

    from sprout_ray.stages.builder import build_sketch

    h = build_sketch(corpus_ds, SketchSpec.of("hll", 12), on="repo")
    ref = ray.put(h.to_bytes())
    back = sketch_from_bytes(ray.get(ref))
    assert (back.registers == h.registers).all()


def test_multi_checkpoint_resume(corpus, tmp_path):
    """One-scan multi-sketch build resumes as a unit; results match the
    single-sketch checkpointed builds."""
    from sprout_ray.state.checkpoint import (
        build_multi_with_checkpoints,
        build_with_checkpoints,
    )

    files = sorted(
        os.path.join(corpus, p) for p in os.listdir(corpus) if p.endswith(".parquet")
    )
    specs = {
        "hll_repo": (SketchSpec.of("hll", 12), "repo"),
        "cms_lang": (SketchSpec.of("cms", 0.001, 0.01), "lang"),
        "mg_lang": (SketchSpec.of("mg", 64), "lang"),
    }
    ck = str(tmp_path / "mck")
    built, m1 = build_multi_with_checkpoints(files, specs, ckpt_dir=ck)
    assert m1["built"] == len(files) and m1["resumed"] == 0
    assert m1["rows"] == N_ROWS
    single, _ = build_with_checkpoints(
        files, specs["hll_repo"][0], on="repo", ckpt_dir=str(tmp_path / "sck")
    )
    assert (built["hll_repo"].registers == single.registers).all()
    assert built["mg_lang"].total == N_ROWS and built["mg_lang"].err_bound == 0

    # full resume: nothing rebuilt, identical states
    again, m2 = build_multi_with_checkpoints(files, specs, ckpt_dir=ck)
    assert m2["built"] == 0 and m2["resumed"] == len(files)
    assert (again["hll_repo"].registers == built["hll_repo"].registers).all()
    assert again["mg_lang"].counts == built["mg_lang"].counts

    # partial resume: drop one partition's manifest -> only it rebuilds
    os.remove(os.path.join(ck, "part-00000.parquet"))
    third, m3 = build_multi_with_checkpoints(files, specs, ckpt_dir=ck)
    assert m3["built"] == 1 and m3["resumed"] == len(files) - 1
    assert (third["hll_repo"].registers == built["hll_repo"].registers).all()

    # spec change for ONE sketch invalidates the unit (shared scan)
    specs2 = dict(specs)
    specs2["hll_repo"] = (SketchSpec.of("hll", 10), "repo")
    _, m4 = build_multi_with_checkpoints(files, specs2, ckpt_dir=ck)
    assert m4["built"] == len(files) and m4["resumed"] == 0

    # same name and spec over another column is stale too: resuming it
    # would return the old column's sketch
    specs3 = dict(specs2)
    specs3["hll_repo"] = (SketchSpec.of("hll", 10), "path")
    moved, m5 = build_multi_with_checkpoints(files, specs3, ckpt_dir=ck)
    assert m5["built"] == len(files) and m5["invalidated"] == len(files)
    clean, _ = build_multi_with_checkpoints(
        files, specs3, ckpt_dir=str(tmp_path / "mck_clean")
    )
    assert moved["hll_repo"].to_bytes() == clean["hll_repo"].to_bytes()


def test_multi_checkpoint_derive_column(corpus, tmp_path):
    """Sketches over derived columns (sha256 invariant) checkpoint too."""
    from sprout_ray.functions.hashing import add_sha256
    from sprout_ray.state.checkpoint import build_multi_with_checkpoints

    files = sorted(
        os.path.join(corpus, p) for p in os.listdir(corpus) if p.endswith(".parquet")
    )[:2]
    specs = {
        "bloom_sha": (SketchSpec.of("bloom", 0.01, 20_000), "sha256"),
        "hll_sha": (SketchSpec.of("hll", 12), "sha256"),
    }
    built, m = build_multi_with_checkpoints(
        files, specs, ckpt_dir=str(tmp_path / "dck"),
        derive=lambda t: add_sha256(t, column="content"),
    )
    assert m["built"] == 2
    assert built["bloom_sha"].count == m["rows"]
    resumed, m2 = build_multi_with_checkpoints(
        files, specs, ckpt_dir=str(tmp_path / "dck"),
        derive=lambda t: add_sha256(t, column="content"),
    )
    assert m2["resumed"] == 2 and m2["built"] == 0
    assert resumed["bloom_sha"].count == built["bloom_sha"].count


def test_checkpoint_resume_new_sketch_kinds(corpus, tmp_path):
    """The round-4 sketches (cbf / moments / fd) ride the same per-partition
    checkpoint + lineage machinery as the originals: registration in
    kernel/sketch.py is the only integration point."""
    from sprout_ray.state.checkpoint import build_with_checkpoints

    files = sorted(
        os.path.join(corpus, p) for p in os.listdir(corpus) if p.endswith(".parquet")
    )
    spec = SketchSpec.of("cbf", 0.01, N_ROWS + 11)
    ck = str(tmp_path / "ckpt_cbf")
    full, m1 = build_with_checkpoints(files, spec, on="repo", ckpt_dir=ck)
    assert m1["built"] == len(files) and m1["resumed"] == 0
    again, m2 = build_with_checkpoints(files, spec, on="repo", ckpt_dir=ck)
    assert m2["built"] == 0 and m2["resumed"] == len(files)
    assert full.count == N_ROWS and again.count == N_ROWS
    assert (full.counts == again.counts).all()
    full.validate()


def test_cli_refuses_stale_partitioning(corpus, tmp_path):
    """A rebuild with a larger --files-per-partition deletes the old
    partitions past the new count, so the directory it completed reads
    back. A stale partition file left beside the new ones (merging it
    would count files 2-3 twice) makes the reader refuse the directory."""
    from sprout_ray import cli
    from sprout_ray.state.checkpoint import (
        CheckpointDirError,
        build_with_checkpoints,
        read_checkpoint_dir,
        write_partition_checkpoint,
    )

    files = _corpus_files(corpus)
    spec = SketchSpec.of("cms", 0.001, 0.01)
    ck = str(tmp_path / "ck_cms")
    build_with_checkpoints(files, spec, on="lang", ckpt_dir=ck)
    assert read_checkpoint_dir(ck).total == N_ROWS
    _, m = build_with_checkpoints(
        files, spec, on="lang", ckpt_dir=ck, files_per_partition=2
    )
    # partitions 0-1 rebuilt over new lineage, 2-3 deleted
    assert m["partitions"] == 2 and m["invalidated"] == 4 and m["rows"] == N_ROWS
    assert read_checkpoint_dir(ck).total == N_ROWS
    name = "cms(lang)"
    write_partition_checkpoint(
        ck, 2, {name: (spec, "lang")}, {name: spec.make().to_bytes()}, 0, files[2:3]
    )
    with pytest.raises(CheckpointDirError, match="lineage of partitions"):
        read_checkpoint_dir(ck)
    with pytest.raises(CheckpointDirError, match="lineage of partitions"):
        cli.main(["stats", "--ckpt", ck])


def test_read_checkpoint_dir_refuses_mixed_dirs(tmp_path):
    from sprout_ray.state.checkpoint import (
        CheckpointDirError,
        read_checkpoint_dir,
        write_partition_checkpoint,
    )

    def write(ck, pid, name, spec):
        write_partition_checkpoint(
            ck, pid, {name: (spec, "k")}, {name: spec.make().to_bytes()}, 0,
            [f"f{pid}"],
        )

    ck = str(tmp_path / "specs")
    write(ck, 0, "h", SketchSpec.of("hll", 12))
    write(ck, 1, "h", SketchSpec.of("hll", 10))
    with pytest.raises(CheckpointDirError, match="disagree on spec"):
        read_checkpoint_dir(ck)
    ck = str(tmp_path / "names")
    write(ck, 0, "a", SketchSpec.of("hll", 12))
    write(ck, 1, "b", SketchSpec.of("hll", 12))
    with pytest.raises(CheckpointDirError, match="expected one"):
        read_checkpoint_dir(ck)
    with pytest.raises(CheckpointDirError, match="no checkpoints"):
        read_checkpoint_dir(str(tmp_path / "empty"))


def test_checkpoint_older_format_rebuilds(corpus, tmp_path):
    """A part- file in the earlier single-row format (no ``name`` column)
    is stale: the build rebuilds and counts it, the reader refuses it."""
    import json

    import pyarrow.parquet as pq

    from sprout_ray.state.checkpoint import (
        CheckpointDirError,
        build_with_checkpoints,
        read_checkpoint_dir,
    )

    files = _corpus_files(corpus)
    spec = SketchSpec.of("hll", 12)
    ck = str(tmp_path / "ck_old")
    clean, _ = build_with_checkpoints(files, spec, on="repo", ckpt_dir=ck)
    # the earlier format: same spec, state and lineage, no name column
    path = os.path.join(ck, "part-00001.parquet")
    row = pq.read_table(path).to_pylist()[0]
    old = pa.table(
        {
            "partition_id": pa.array([1], pa.int64()),
            "sketch_kind": pa.array(["hll"], pa.string()),
            "spec": pa.array([row["spec"]], pa.string()),
            "state": pa.array([row["state"]], pa.large_binary()),
            "rows": pa.array([row["rows"]], pa.int64()),
            "lineage": pa.array(
                [json.dumps({"input_files": [files[1]], "spec": row["spec"],
                             "rows": row["rows"]})],
                pa.string(),
            ),
        }
    )
    pq.write_table(old, path)
    with pytest.raises(CheckpointDirError, match="part-00001.parquet"):
        read_checkpoint_dir(ck)
    again, m = build_with_checkpoints(files, spec, on="repo", ckpt_dir=ck)
    assert m == {"partitions": 4, "built": 1, "resumed": 3, "invalidated": 1,
                 "rows": N_ROWS}
    assert again.to_bytes() == clean.to_bytes()
    assert read_checkpoint_dir(ck).to_bytes() == clean.to_bytes()
