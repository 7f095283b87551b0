"""stages/layout.py — quantile range partitioning (round-5 ADVICE fix:
write_range_partitioned previously passed a Dataset where the resumable
sink needs a shard list and raised on every call; now it is shard-driven
and resumable, exercised end-to-end here)."""

import glob

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray.data as rd
from sprout_ray.stages.layout import (
    assign_range_buckets,
    range_boundaries,
    write_range_partitioned,
)


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    return ray_session


def _skewed(n=20_000, seed=3):
    rng = np.random.default_rng(seed)
    # heavy-tailed: most mass near 0, long positive tail
    return np.concatenate(
        [
            rng.integers(-5, 5, size=n // 2),
            (rng.pareto(1.5, size=n // 2) * 100).astype(np.int64),
        ]
    ).astype(np.int64)


def test_boundaries_match_percentile_disc():
    v = _skewed()
    ds = rd.from_arrow(pa.table({"v": pa.array(v)}))
    for k in (2, 4, 8):
        got = range_boundaries(ds, "v", k)
        con = duckdb.connect()
        con.register("t", pa.table({"v": pa.array(v)}))
        want = [
            con.execute(
                f"SELECT percentile_disc({i}.0/{k}) WITHIN GROUP (ORDER BY v) FROM t"
            ).fetchone()[0]
            for i in range(1, k)
        ]
        assert got.tolist() == want, k


def test_bucket_populations_near_equal():
    v = _skewed()
    ds = rd.from_arrow(pa.table({"v": pa.array(v)}))
    bounds = range_boundaries(ds, "v", 8)
    tagged = assign_range_buckets(ds, "v", bounds).to_pandas()
    counts = tagged.groupby("bucket").size()
    # ties can distort individual buckets (the -5..5 mass), but no bucket
    # may exceed 2x the ideal share and the rule must be a pure fn of v
    assert counts.max() <= 2 * len(v) / 8 + np.unique(v, return_counts=True)[1].max()
    m = tagged.groupby("v")["bucket"].nunique()
    assert (m == 1).all()


def test_write_range_partitioned_end_to_end(tmp_path):
    v = _skewed(8_000)
    files = []
    for i in range(4):
        f = tmp_path / f"shard{i}.parquet"
        pq.write_table(
            pa.table({"v": pa.array(v[i * 2000 : (i + 1) * 2000])}), f
        )
        files.append(str(f))
    out = tmp_path / "layout"
    bounds, metrics = write_range_partitioned(files, "v", 4, str(out))
    assert len(bounds) == 3
    assert metrics == {"partitions": 4, "written": 4, "resumed": 0, "invalidated": 0}
    part_files = glob.glob(str(out / "part=*" / "bucket=*" / "*.parquet"))
    assert part_files
    back = pa.concat_tables(pq.read_table(f) for f in part_files)
    assert sorted(back["v"].to_pylist()) == sorted(v.tolist())
    # every bucket dir holds only rows in that bucket's value range
    bl = bounds.tolist()
    for f in part_files:
        b = int(f.split("bucket=")[1].split("/")[0])
        vals = pq.read_table(f)["v"].to_numpy()
        lo = -np.inf if b == 0 else bl[b - 1]
        hi = np.inf if b == len(bl) else bl[b]
        assert ((vals > lo) & (vals <= hi)).all() or b == len(bl)
    # resume: second call skips every finished shard group
    _, metrics2 = write_range_partitioned(files, "v", 4, str(out))
    assert metrics2 == {"partitions": 4, "written": 0, "resumed": 4, "invalidated": 0}


def test_layout_cli_end_to_end(tmp_path):
    import json
    import subprocess as sp
    import sys

    src = tmp_path / "src"
    src.mkdir()
    v = _skewed(4000)
    for i in range(2):
        pq.write_table(
            pa.table({"v": pa.array(v[i * 2000 : (i + 1) * 2000])}),
            src / f"s{i}.parquet",
        )
    out = tmp_path / "laidout"
    cmd = [
        sys.executable, "-m", "sprout_ray.cli", "layout",
        "--input", str(src), "--col", "v", "--buckets", "4",
        "--out", str(out), "--num-cpus", "2",
    ]
    r = sp.run(cmd, capture_output=True, text=True, cwd="/root/repo")
    assert r.returncode == 0, r.stderr[-2000:]
    rec = json.loads(r.stdout.strip().splitlines()[-1])
    assert len(rec["boundaries"]) == 3
    assert rec["written"] == 2 and rec["resumed"] == 0
    back = pa.concat_tables(
        pq.read_table(f)
        for f in glob.glob(str(out / "part=*" / "bucket=*" / "*.parquet"))
    )
    assert sorted(back["v"].to_pylist()) == sorted(v.tolist())
    r2 = sp.run(cmd, capture_output=True, text=True, cwd="/root/repo")
    rec2 = json.loads(r2.stdout.strip().splitlines()[-1])
    assert rec2["written"] == 0 and rec2["resumed"] == 2


def test_range_boundaries_multi_bit_identical():
    from sprout_ray.stages.layout import range_boundaries, range_boundaries_multi

    rng = np.random.default_rng(9)
    t = pa.table(
        {
            "a": pa.array(rng.integers(0, 40, 5000).astype(np.int64)),
            "b": pa.array((rng.pareto(1.3, 5000) * 50).astype(np.int64)),
            "c": pa.array(np.full(5000, 7, np.int64)),  # constant column
        }
    )
    ds = rd.from_arrow(t)
    for k in (2, 4, 8):
        multi = range_boundaries_multi(ds, ["a", "b", "c"], k)
        for col in ("a", "b", "c"):
            single = range_boundaries(ds, col, k)
            assert multi[col].tolist() == single.tolist(), (col, k)


def test_range_boundaries_multi_rejects_negative():
    from sprout_ray.stages.layout import range_boundaries_multi

    ds = rd.from_arrow(pa.table({"a": pa.array([-1, 2, 3], pa.int64())}))
    with pytest.raises(Exception, match="0, 2\\^56"):
        range_boundaries_multi(ds, ["a"], 4)


def test_write_zorder_partitioned_end_to_end(tmp_path):
    """2-D clustering layout: balanced Z-range buckets, lossless rewrite,
    and the clustering property — each bucket's rows span a compact
    region so per-bucket coordinate ranges are far narrower than the
    global range."""
    from sprout_ray.functions.zorder import morton_key
    from sprout_ray.stages.layout import write_zorder_partitioned

    rng = np.random.default_rng(5)
    n = 8000
    x = rng.integers(0, 1 << 16, n).astype(np.int64)
    y = rng.integers(0, 1 << 16, n).astype(np.int64)
    files = []
    for i in range(4):
        f = tmp_path / f"s{i}.parquet"
        sl = slice(i * 2000, (i + 1) * 2000)
        pq.write_table(
            pa.table({"x": pa.array(x[sl]), "y": pa.array(y[sl])}), f
        )
        files.append(str(f))
    out = tmp_path / "zlayout"
    bounds, metrics = write_zorder_partitioned(files, "x", "y", 8, str(out))
    assert len(bounds) == 7 and metrics["written"] == 4
    part_files = glob.glob(str(out / "part=*" / "bucket=*" / "*.parquet"))
    back = pa.concat_tables(pq.read_table(f) for f in part_files)
    assert back.num_rows == n
    assert "_zkey" not in back.column_names  # internal key dropped
    assert sorted(zip(back["x"].to_pylist(), back["y"].to_pylist())) == sorted(
        zip(x.tolist(), y.tolist())
    )
    # bucket populations near-equal (Z keys are ~unique: exact up to ties)
    sizes, zspans = {}, {}
    for f in part_files:
        b = int(f.split("bucket=")[1].split("/")[0])
        t = pq.read_table(f)
        sizes[b] = sizes.get(b, 0) + t.num_rows
        z = morton_key(
            t["x"].to_numpy(zero_copy_only=False),
            t["y"].to_numpy(zero_copy_only=False),
        )
        lo, hi = zspans.get(b, (z.min(), z.max()))
        zspans[b] = (min(lo, z.min()), max(hi, z.max()))
    assert max(sizes.values()) <= n // 8 + 2
    # buckets are DISJOINT contiguous Z ranges (the clustering property)
    ordered = [zspans[b] for b in sorted(zspans)]
    for (_, hi), (lo2, _) in zip(ordered, ordered[1:]):
        assert hi <= lo2
    # resume
    _, m2 = write_zorder_partitioned(files, "x", "y", 8, str(out))
    assert m2 == {"partitions": 4, "written": 0, "resumed": 4, "invalidated": 0}


def test_layout_cli_zorder(tmp_path):
    import json
    import subprocess as sp
    import sys

    rng = np.random.default_rng(2)
    f = tmp_path / "t.parquet"
    pq.write_table(
        pa.table(
            {
                "x": pa.array(rng.integers(0, 1000, 1000).astype(np.int64)),
                "y": pa.array(rng.integers(0, 1000, 1000).astype(np.int64)),
            }
        ),
        f,
    )
    out = tmp_path / "z"
    r = sp.run(
        [
            sys.executable, "-m", "sprout_ray.cli", "layout",
            "--input", str(f), "--col", "x", "--zorder-y", "y",
            "--buckets", "4", "--out", str(out), "--num-cpus", "2",
        ],
        capture_output=True, text=True, cwd="/root/repo",
    )
    assert r.returncode == 0, r.stderr[-2000:]
    rec = json.loads(r.stdout.strip().splitlines()[-1])
    assert len(rec["boundaries"]) == 3 and rec["written"] == 1


def test_resume_with_different_buckets_refuses(tmp_path):
    """Round-5 review: a killed layout re-run with different --buckets must
    not silently mix two bucket rules in one out_dir."""
    from sprout_ray.stages.layout import write_range_partitioned

    v = _skewed(2000)
    f = tmp_path / "s.parquet"
    pq.write_table(pa.table({"v": pa.array(v)}), f)
    out = tmp_path / "lay"
    write_range_partitioned([str(f)], "v", 4, str(out))
    with pytest.raises(ValueError, match="layout-tag mismatch"):
        write_range_partitioned([str(f)], "v", 8, str(out))
    # same parameters resume cleanly
    _, m = write_range_partitioned([str(f)], "v", 4, str(out))
    assert m["resumed"] == 1


def test_zorder_layout_degenerate_inputs(tmp_path):
    """Coarsening edge cases: constant coordinates (z_max=0 -> shift=0,
    all rows one bucket value) and a single-row table must lay out
    losslessly rather than raise."""
    from sprout_ray.stages.layout import write_zorder_partitioned

    f1 = tmp_path / "const.parquet"
    pq.write_table(
        pa.table(
            {
                "x": pa.array(np.full(100, 7, np.int64)),
                "y": pa.array(np.full(100, 3, np.int64)),
            }
        ),
        f1,
    )
    bounds, m = write_zorder_partitioned(
        [str(f1)], "x", "y", 4, str(tmp_path / "o1")
    )
    assert m["written"] == 1
    back = pa.concat_tables(
        pq.read_table(p)
        for p in glob.glob(str(tmp_path / "o1" / "part=*" / "bucket=*" / "*.parquet"))
    )
    assert back.num_rows == 100  # all ties -> one bucket, nothing lost

    f2 = tmp_path / "one.parquet"
    pq.write_table(
        pa.table({"x": pa.array([5], pa.int64()), "y": pa.array([9], pa.int64())}),
        f2,
    )
    _, m2 = write_zorder_partitioned([str(f2)], "x", "y", 2, str(tmp_path / "o2"))
    assert m2["written"] == 1
