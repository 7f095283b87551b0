"""Self-test of the benchmark: every workload at smoke size, in both modes,
checked against the output contract and the metric names BENCHMARK.json
declares.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# counts that must repeat exactly between two traced runs of one seed
EXACT_COUNTS = {
    "functions.hashing.sha256_rows", "kernel.murmur3.hashes",
    "stages.builder.partials", "stages.builder.partial_bytes_raw",
    "stages.builder.partial_bytes_packed", "stages.agg.accumulator_bytes",
    "state.checkpoint.bytes_read", "state.checkpoint.bytes_written",
    "state.checkpoint.resumed", "state.checkpoint.built", "sources.read_mb",
    "kernel.bloom.fill_ratio", "stages.probe.maybe_ratio", "stages.probe.useful_ratio",
}


def run(workload: str, trace: int, seed: int = 3, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )


def record(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(rec) == {"correct", "attempted", "failed", "metrics"}
    return rec


def test_benchmark_json_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= len(SPEC["paths"]) <= 16 and 2 <= len(WORKLOADS) <= 8
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.match(n) for n in names)
    assert len(set(WORKLOADS)) == len(WORKLOADS)
    metric_names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(set(metric_names)) == len(metric_names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_record_matches_contract(workload, trace):
    rec = record(run(workload, trace))
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert rec["correct"] is True
    assert rec["failed"] == 0 and rec["attempted"] >= 1
    assert set(rec["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = rec["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        v = got["value"]
        assert isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
        if not trace:
            assert v > 0, m["name"]


@pytest.mark.parametrize("workload", ["battery_build", "checkpoint_resume"])
def test_traced_counts_repeat(workload):
    a = record(run(workload, 1, seed=5))["metrics"]
    b = record(run(workload, 1, seed=5))["metrics"]
    for name in EXACT_COUNTS:
        assert a[name]["value"] == b[name]["value"], name


def test_refuses_without_the_program():
    with tempfile.TemporaryDirectory() as d:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
        shutil.copytree(HERE, os.path.join(d, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        proc = run(WORKLOADS[0], 0, cwd=d)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
