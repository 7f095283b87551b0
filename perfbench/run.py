"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. One process drives one closed loop: each
operation starts when the previous one returns. The run generates (or
reuses) its seeded fixtures, starts Ray with a fixed logical CPU count,
sets the workload up, runs whole passes until ``--seconds`` have elapsed,
checks every result, and prints one JSON record as its last stdout line.
A workload may split ``--seconds`` over several Ray sessions, each started
afresh, set up, warmed and measured, and reports the median over sessions.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced passes, replays the leaf work
in-process, and reports the per-layer metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor, wait

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Fixed logical CPU count, whatever the host: below 2 an actor-pool probe
# over read_parquet deadlocks (see workloads.InsufficientCpusError).
RAY_CPUS = 2
OBJECT_STORE_BYTES = 512 << 20
# With Ray's defaults a 2-CPU session prestarts workers for every task
# backlog and kills idle ones after 1 s, so every other op paid for spawning
# and importing two workers (measured 1.2 s / 2.4 s alternating battery
# ops). Keeping idle workers for the whole run makes the pool steady; the
# program's own actor and task behaviour is unchanged.
RAY_SYSTEM_CONFIG = {"idle_worker_killing_time_threshold_ms": 600_000,
                     "enable_worker_prestart": False}
# set-ups per run, spread evenly over its sessions
SETUP_REPS = 3
OP_TIMEOUT_S = 60.0
# every guarded call ends before this many seconds into the run, so a stuck
# op still leaves time to print the record and stop Ray
HARD_CAP_S = 150.0


class Stuck(RuntimeError):
    """An operation outlived its watchdog."""


_op_thread = None
_on_op_thread = threading.local()


def guarded(fn, deadline: float):
    """Run ``fn`` on the op thread; raise Stuck if it is still running at
    ``min(now + OP_TIMEOUT_S, deadline)``. Every call runs on the same
    long-lived thread, so per-op memory is served from one malloc arena
    instead of whichever arena a fresh thread lands on; a stuck call's
    thread is abandoned and the next call gets a new one."""
    global _op_thread
    if getattr(_on_op_thread, "active", False):
        return fn()  # nested: the enclosing call's watchdog covers it

    def call():
        _on_op_thread.active = True
        return fn()

    if _op_thread is None:
        _op_thread = ThreadPoolExecutor(1, thread_name_prefix="op")
    fut = _op_thread.submit(call)
    wait([fut], timeout=max(0.0, min(OP_TIMEOUT_S, deadline - time.monotonic())))
    if not fut.done():
        _op_thread.shutdown(wait=False)
        _op_thread = None
        raise Stuck(f"{getattr(fn, '__name__', 'op')} did not return in time")
    return fut.result()


def timed(fn, deadline: float):
    t0 = time.perf_counter()
    out = guarded(fn, deadline)
    return time.perf_counter() - t0, out


def descendants() -> list:
    """PIDs of every live process below this one (read from /proc)."""
    children = defaultdict(list)
    for p in os.listdir("/proc"):
        if not p.isdigit():
            continue
        try:
            with open(f"/proc/{p}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if fields[0] != "Z":
            children[int(fields[1])].append(int(p))
    out, todo = [], [os.getpid()]
    while todo:
        kids = children.get(todo.pop(), [])
        out.extend(kids)
        todo.extend(kids)
    return out


def workers_rss_mb() -> float:
    """Summed peak RSS (VmHWM) of the live Ray worker processes."""
    total_kb = 0
    for pid in descendants():
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmd = f.read()
            if not (cmd.startswith(b"ray::") or b"default_worker.py" in cmd):
                continue
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS counter (VmHWM), so fixture
    generation before the run does not count toward ``driver_rss_mb``."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def stop_children(grace_s: float = 15.0) -> None:
    """Wait for every child process to end, killing stragglers."""
    end = time.monotonic() + grace_s
    while descendants() and time.monotonic() < end:
        time.sleep(0.2)
    for sig in (signal.SIGTERM, signal.SIGKILL):
        left = descendants()
        if not left:
            return
        for pid in left:
            try:
                os.kill(pid, sig)
            except OSError:
                pass
        end = time.monotonic() + 5
        while descendants() and time.monotonic() < end:
            time.sleep(0.1)


def stop_ray() -> None:
    import ray

    stopper = threading.Thread(target=ray.shutdown, daemon=True)
    stopper.start()
    stopper.join(30)
    stop_children()


def start_ray(temp: str) -> None:
    import ray
    from ray.data import DataContext

    # workers import the program and the benchmark's modules from the checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT, HERE] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    kwargs = {}
    # Ray's session sockets (<temp>/session_<time>_<pid>/sockets/plasma_store)
    # must fit AF_UNIX's 107 bytes; a longer checkout path keeps Ray's default
    if len(temp) <= 43:
        kwargs["_temp_dir"] = temp
    ray.init(address="local", num_cpus=RAY_CPUS, object_store_memory=OBJECT_STORE_BYTES,
             include_dashboard=False, logging_level="ERROR", log_to_driver=False,
             _system_config=RAY_SYSTEM_CONFIG, **kwargs)
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


class Run:
    """One benchmark process: a workload, its timings and its verdict."""

    def __init__(self, workload, seconds: float, trace: bool):
        from spans import Tracer

        self.w = workload
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        self.deadline = time.monotonic() + HARD_CAP_S
        self.times = defaultdict(list)  # (traced, label, session) -> op seconds
        self.digests = defaultdict(set)
        self.loose_digests = defaultdict(set)
        self.errors: list = []
        self.attempted = self.failed = 0
        self.passes = {False: 0, True: 0}
        self.session = 0

    def one_op(self, label, fn, traced: bool, record: bool) -> None:
        tr = self.tracer if traced else None
        self.w.before_op(label)
        call = fn
        if tr is not None:
            def call(fn=fn, span=self.w.op_span(label)):
                with tr.span(span):
                    return fn()
        if record:
            self.attempted += 1
        try:
            with contextlib.ExitStack() as stack:
                if tr is not None:
                    stack.enter_context(tr.phase("ops"))
                    if self.w.patch_ops:
                        stack.enter_context(tr.patched())
                dt, res = timed(call, self.deadline)
            digest, errs, loose = self.w.check(label, res)
        except Stuck:
            raise
        except Exception as e:  # noqa: BLE001 — a failed op is recorded, not fatal
            digest, errs, loose = None, [f"{label}: {type(e).__name__}: {e}"[:300]], None
        if digest is not None:
            self.digests[label].add(digest)
        if loose is not None:
            self.loose_digests[label].add(loose)
        if errs:
            self.errors.extend(errs)
            if record:
                self.failed += 1
        elif record:
            self.times[(traced, label, self.session)].append(dt)

    def one_pass(self, traced: bool, record: bool = True) -> None:
        for label, fn in self.w.ops():
            self.one_op(label, fn, traced, record)
        if record:
            self.passes[traced] += 1

    def measured(self, traced: bool, label: str) -> list:
        """Per-session op times of one label, sessions without any left out."""
        return [self.times[(traced, label, i)] for i in range(self.session + 1)
                if self.times[(traced, label, i)]]

    def op_s(self, traced: bool) -> float:
        """Pass time: the sum over the pass's labels of each label's median
        over sessions of its median within a session."""
        return sum(statistics.median(statistics.median(t) for t in self.measured(traced, label))
                   for label, _ in self.w.ops())

    def start_session(self, ray_temp: str) -> float:
        """Start Ray, set the workload up and warm it; returns the set-up
        time: Ray start + warm-up + the median of this session's set-ups."""
        w = self.w
        t0 = time.perf_counter()
        start_ray(ray_temp)  # main thread: Ray installs signal handlers
        init_s = time.perf_counter() - t0
        setup_times = [timed(w.setup, self.deadline)[0]]
        warm_s = 0.0
        for _ in range(w.warm_passes):
            warm_s += timed(lambda: self.one_pass(False, record=False), self.deadline)[0]
        for _ in range(-(-SETUP_REPS // w.sessions) - 1):
            setup_times.append(timed(w.setup, self.deadline)[0])
        return init_s + warm_s + statistics.median(setup_times)

    def measure(self) -> None:
        """Run this session's share of the measured seconds."""
        end = time.monotonic() + self.seconds / self.w.sessions
        while True:
            traced = self.tracer is not None and self.passes[False] > self.passes[True]
            self.one_pass(traced)
            done = time.monotonic() >= end
            if done and (self.tracer is None or self.passes[True] > 0):
                break


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def record_line(correct, attempted, failed, metrics, declared) -> str:
    out = {}
    for m in declared:
        v = metrics.get(m["name"])
        out[m["name"]] = {"value": float(v) if v is not None else None, "unit": m["unit"]}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": out})


def per_layer(run: Run, scales: dict, untraced_s: float, traced_s: float) -> dict:
    tr, w = run.tracer, run.w
    n_traced = run.passes[True]
    vals = defaultdict(float)
    for name, v in tr.self_times({"ops"}).items():
        vals[f"{name}_s"] += v / n_traced
    leaf_cpu_s = 0.0
    for phase, scale in scales.items():
        for name, v in tr.self_times({phase}).items():
            vals[f"{name}_s"] += v * scale
            if phase == "leaf":
                leaf_cpu_s += v * scale
    for (phase, name), v in tr.counts.items():
        vals[name] += v / n_traced if phase == "ops" else v * scales.get(phase, 0)
    vals.update(w.values)
    w.derive(vals, leaf_cpu_s / RAY_CPUS)
    vals["trace.overhead_ratio"] = traced_s / untraced_s
    return vals


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the self-test")
    ap.add_argument("--prepare-only", action="store_true",
                    help="only generate the fixtures (run in a child process)")
    args = ap.parse_args(argv)

    spec = load_spec()
    sys.path.insert(1, ROOT)
    try:
        import sprout_ray
    except ImportError as e:
        print(f"perfbench: cannot import the program from {ROOT}: {e}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.abspath(sprout_ray.__file__)) != os.path.join(ROOT, "sprout_ray"):
        print(f"perfbench: sprout_ray resolves outside {ROOT}", file=sys.stderr)
        return 2
    from sprout_ray.tuning import apply_malloc_tuning, quiet_cosmetic_ray_warnings
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    apply_malloc_tuning()  # before ray.init, so workers inherit it
    quiet_cosmetic_ray_warnings()

    cache = os.path.join(ROOT, ".bench_cache")
    scratch = os.path.join(cache, f"run-{os.getpid()}")
    ray_temp = os.path.join(ROOT, ".bench_ray")
    w = WORKLOADS[args.workload](args.seed, cache, scratch, args.smoke)
    if args.prepare_only:
        w.prepare()
        return 0
    run = Run(w, args.seconds, bool(args.trace))
    affinity = len(os.sched_getaffinity(0))
    info = {"workload": w.name, "seed": args.seed,
            # what `nproc` prints: it honours OMP_NUM_THREADS
            "nproc": int(os.environ.get("OMP_NUM_THREADS") or affinity),
            "affinity_cpus": affinity, "ray_cpus": RAY_CPUS}
    # Fixtures are generated in a child process: memory the generator leaves
    # resident would otherwise make driver_rss_mb depend on the cache state.
    t0 = time.perf_counter()
    argv = sys.argv[1:] if argv is None else argv
    subprocess.run([sys.executable, os.path.abspath(__file__), *argv, "--prepare-only"],
                   check=True)
    info["fixture"] = w.prepare()
    info["fixture_s"] = round(time.perf_counter() - t0, 3)
    os.makedirs(scratch, exist_ok=True)

    line, code = None, 1
    try:
        reset_peak_rss()
        line = finish(run, spec, info, ray_temp, cache, args.seed)
        code = 0
    except Exception as e:  # noqa: BLE001 — no record without a set-up
        import traceback

        traceback.print_exc()
        print(f"perfbench: run failed: {type(e).__name__}: {e}", file=sys.stderr)
    finally:
        stop_ray()
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.rmtree(ray_temp, ignore_errors=True)
    print(json.dumps({"info": info}), flush=True)
    if line is not None:
        print(line, flush=True)
    # a stuck op may still hold a thread inside Ray: do not wait for it
    os._exit(code)


def finish(run: Run, spec: dict, info: dict, ray_temp: str, cache: str, seed: int) -> str:
    """Set up, measure, check and assemble the record. A failed set-up
    raises (no record); a stuck op ends the measurement, counts as failed,
    and the record is still printed."""
    w = run.w

    def attempt(fn, default=None):
        try:
            return guarded(fn, run.deadline)
        except Stuck as e:
            run.errors.append(f"watchdog: {e}")
            return default

    setups, session_rss, stuck = [], [], False
    t0 = time.perf_counter()
    try:
        for i in range(w.sessions):
            if i:
                stop_ray()
                run.session = i
            setups.append(run.start_session(ray_temp))
            run.measure()
            session_rss.append(round(peak_rss_mb(), 1))
    except Stuck as e:
        if not setups:
            raise
        run.failed += 1
        run.errors.append(f"watchdog: {e}")
        stuck = True
    # read before the untimed checks, whose own memory is not the workload's
    setup_s = statistics.median(setups)
    metrics = {"setup_s": setup_s, "driver_rss_mb": peak_rss_mb()}
    if not stuck:
        run.errors.extend(attempt(w.run_checks, []))
    t1 = time.perf_counter()
    if all(run.measured(False, label) for label, _ in w.ops()):
        metrics["op_s"] = run.op_s(False)
        metrics["rows_per_s"] = w.input_rows / metrics["op_s"]
        metrics["fpr"] = attempt(w.fpr)
        run.errors.extend(w.errors)
    declared = spec["end_to_end"]
    if run.tracer is not None and run.passes[True] and "op_s" in metrics:
        tr = run.tracer
        with tr.patched():
            scales = attempt(lambda: w.replay(tr), {})
        metrics = per_layer(run, scales, metrics["op_s"], run.op_s(True))
        metrics["ray.workers_rss_mb"] = workers_rss_mb()
        metrics["bench.passes"] = sum(run.passes.values())
        metrics["host.affinity_cpus"] = info["affinity_cpus"]
        metrics["ray.cpus"] = RAY_CPUS
        metrics["fixture.mb"] = info["fixture"]["mb"]
        metrics["fixture.rows"] = info["fixture"]["rows"]
        tr.write(os.path.join(cache, f"spans-{w.name}-s{seed}.jsonl"))
        declared = spec["per_layer"]
        for m in declared:  # a layer this workload does not reach is idle
            metrics.setdefault(m["name"], 0.0)
    run.errors.extend(check_digests(w, run.digests))
    missing = [m["name"] for m in declared if metrics.get(m["name"]) is None]
    if missing:
        run.errors.append(f"metrics not measured: {missing}")
    info.update(setup_s=round(setup_s, 4), passes=dict(run.passes), errors=run.errors[:20],
                measure_s=round(t1 - t0, 2), after_s=round(time.perf_counter() - t1, 2),
                order_dependent_digests={k: len(v) for k, v in run.loose_digests.items()},
                session_setup_s=[round(t, 3) for t in setups], session_peak_rss_mb=session_rss,
                op_times={f"{label}{'/traced' if traced else ''}#{i}": [round(t, 4) for t in v]
                          for (traced, label, i), v in run.times.items()})
    correct = not run.errors and run.failed == 0
    return record_line(correct, run.attempted, run.failed, metrics, declared)


def check_digests(w, digests: dict) -> list:
    """Every op of a label must give the same digest, and so must every run
    of the same seed and code (kept next to the fixture)."""
    errs = [f"{label}: {len(d)} distinct result digests" for label, d in digests.items()
            if len(d) != 1]
    path = os.path.join(w.fx["dir"], f"_DIGESTS-{w.name}.json")
    mine = {label: next(iter(d)) for label, d in digests.items() if len(d) == 1}
    if os.path.exists(path):
        with open(path) as f:
            seen = json.load(f)
        errs += [f"{label}: digest differs from an earlier run of this seed"
                 for label, d in mine.items() if seen.get(label, d) != d]
    elif not errs:
        with open(path + f".tmp{os.getpid()}", "w") as f:
            json.dump(mine, f)
        os.replace(path + f".tmp{os.getpid()}", path)
    return errs


if __name__ == "__main__":
    sys.exit(main())
