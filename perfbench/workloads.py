"""The four workloads: what one pass runs, how its results are checked, and
how its leaf work is replayed for the traced run.

A pass is a list of ``(label, fn)`` operations. Single-operation workloads
have one label; ``sketch_queries`` has one label per query. Each workload
sees only the generated inputs; ground truth stays on the benchmark side.
"""

from __future__ import annotations

import math
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import fixtures as fx

CORPUS_COLS = ["repo", "path", "commit", "lang", "content"]


class InsufficientCpusError(RuntimeError):
    """Raised instead of starting a probe below two Ray CPUs: an actor-pool
    ``map_batches`` over ``read_parquet`` deadlocks the streaming executor
    when the pool can take every CPU."""


def battery_specs(rows: int) -> dict:
    """The 8-spec battery that ``bench.py``'s headline builds."""
    from sprout_ray.kernel import SketchSpec

    cap = int(rows * 1.2)
    return {
        "bloom_sha": (SketchSpec.of("bloom", 0.001, cap), "sha256"),
        "bloom_commit": (SketchSpec.of("bloom", 0.001, cap), "commit"),
        "hll_repo": (SketchSpec.of("hll", 14), "repo"),
        "hll_sha": (SketchSpec.of("hll", 14), "sha256"),
        "cms_path": (SketchSpec.of("cms", 0.0001, 0.01), "path"),
        "cms_repo": (SketchSpec.of("cms", 0.0001, 0.01), "repo"),
        "tdigest_len": (SketchSpec.of("tdigest", 200.0), "content_len"),
        "kll_len": (SketchSpec.of("kll", 200), "content_len"),
    }


ORDER_DEPENDENT = ("kll_len", "tdigest_len")


def with_content_len(t: pa.Table) -> pa.Table:
    return t.append_column("content_len", pc.utf8_length(t["content"]).cast("int64"))


def foreign_keys(seed: int, n: int) -> pa.Array:
    """Keys disjoint from every fixture key (they carry a prefix no
    generated key has), for measuring false-positive rates."""
    ids = pc.cast(pa.array(np.arange(n, dtype=np.int64)), pa.string())
    return pc.binary_join_element_wise(f"foreign-{seed}", ids, "-")


def fp_rate(bloom, keys: pa.Array) -> float:
    from sprout_ray.kernel.murmur3 import byte_lengths, length_bucketed_spans

    hits = 0
    for start, end in length_bucketed_spans(byte_lengths(keys)):
        hits += int(bloom.contains_batch(keys.slice(start, end - start)).sum())
    return hits / len(keys)


def rank_ok(sorted_vals: np.ndarray, q: float, est: float, tol: float) -> bool:
    """True when the rank interval of ``est`` (ties included) is within
    ``tol`` of ``q``."""
    n = sorted_vals.size
    lo = np.searchsorted(sorted_vals, est, side="left") / n
    hi = np.searchsorted(sorted_vals, est, side="right") / n
    return lo - tol <= q <= hi + tol


def collect(ds) -> pa.Table:
    import ray

    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


class Workload:
    name = ""
    # also record spans inside the program's driver-side calls during traced
    # ops; only safe where no patched function is shipped to a worker
    patch_ops = False
    # untimed passes before measuring: until every Ray worker has run the
    # pass once, its first call still pays lazy imports
    warm_passes = 1
    # Ray sessions a run is split into, each with fresh processes and an
    # equal share of the measured seconds. Host speed drifts by a tenth or
    # more over tens of seconds, so a run whose op is sensitive to it spreads
    # its samples over more wall time and reports the median over sessions.
    sessions = 1

    def __init__(self, seed: int, cache: str, scratch: str, smoke: bool):
        self.seed, self.cache, self.scratch, self.smoke = seed, cache, scratch, smoke
        self.values: dict = {}  # per-layer values read off results
        self.errors: list = []  # failed untimed checks outside check()

    def prepare(self) -> dict:
        """Generate or load the cached fixtures; returns their sizes."""
        raise NotImplementedError

    def setup(self) -> None:
        """The program set-up the timed ops rely on (repeated, timed)."""

    def before_op(self, label: str) -> None:
        """Untimed preparation for the next op."""

    def ops(self) -> list:
        raise NotImplementedError

    def check(self, label: str, result) -> tuple:
        """(digest, errors, loose digest) for one op's result. The digest
        must repeat across ops and runs of a seed; the loose digest covers
        results that legitimately depend on merge order (None if none)."""
        raise NotImplementedError

    def run_checks(self) -> list:
        """Once-per-run untimed checks; returns errors."""
        return []

    def fpr(self) -> float:
        """False-positive rate on foreign keys, measured after the loop."""
        raise NotImplementedError

    def op_span(self, label: str) -> str:
        """The span that wraps one operation in a traced run."""
        raise NotImplementedError

    def replay(self, tracer) -> dict:
        """Replay leaf work in-process under ``tracer``; returns
        ``{phase: scale}`` where scale turns the phase into per-pass work."""
        return {}

    def derive(self, vals: dict, leaf_wall_s: float) -> None:
        """Add per-layer values computed from others; ``leaf_wall_s`` is the
        replayed leaf self time spread over the Ray CPUs."""


class BatteryBuild(Workload):
    """read_corpus -> with_invariant -> multi_sketch_build(8-spec battery)."""

    name = "battery_build"
    warm_passes = 2

    def prepare(self):
        self.rows, n_files, self.blocks = (
            (8_000, 8, 4) if self.smoke else (64_000, 32, 8)
        )
        self.fx = fx.corpus(self.cache, self.seed, self.rows, n_files)
        self.specs = battery_specs(self.rows)
        self.input_rows = self.rows
        return {"rows": self.rows, "files": n_files, "mb": self.fx["mb"]}

    def build(self):
        from sprout_ray.pipelines.flagship import multi_sketch_build, with_invariant
        from sprout_ray.sources.synth import read_corpus

        ds = read_corpus(self.fx["dir"], columns=CORPUS_COLS,
                         override_num_blocks=self.blocks)
        ds = with_invariant(ds).map_batches(
            with_content_len, batch_format="pyarrow", zero_copy_batch=True
        )
        return multi_sketch_build(ds, self.specs)

    def ops(self):
        return [("battery", self.build)]

    def op_span(self, label):
        return "pipelines.flagship.build"

    def derive(self, vals, leaf_wall_s):
        vals["pipelines.flagship.engine_overhead_s"] = (
            vals["pipelines.flagship.build_s"] - leaf_wall_s
        )

    def check(self, label, built):
        # Bloom/HLL/CMS merges are order-free, so their bytes must repeat.
        # t-digest/KLL partials merge in block completion order, which
        # varies between runs: their bytes are reported, not required to
        # repeat; their counts must repeat and their accuracy is checked.
        # (Digest first: a quantile readout compresses a t-digest in place.)
        exact = [n for n in sorted(self.specs) if n not in ORDER_DEPENDENT]
        d = fx.digest(*(built[n].to_bytes() for n in exact),
                      *(built[n].count() for n in ORDER_DEPENDENT))
        loose = fx.digest(*(built[n].to_bytes() for n in ORDER_DEPENDENT))
        truth, errs = self.fx["truth"], []
        if built["_rows"] != self.rows:
            errs.append(f"rows {built['_rows']} != {self.rows}")
        for n in ("bloom_sha", "bloom_commit"):
            if built[n].count != self.rows:
                errs.append(f"{n}.count {built[n].count} != {self.rows}")
        sigma3 = 3 * 1.04 / math.sqrt(2**14)
        for n, exact in (("hll_repo", truth["distinct_repo"]),
                         ("hll_sha", truth["distinct_sha256"])):
            est = built[n].estimate()
            if abs(est - exact) > sigma3 * exact:
                errs.append(f"{n} estimate {est:.1f} vs exact {exact}")
        for n, col in (("cms_path", "path"), ("cms_repo", "repo")):
            keys, counts = zip(*truth["sample"][col])
            est = built[n].query_batch(list(keys))
            if (est < np.array(counts)).any():
                errs.append(f"{n} undercounts a sampled key")
        lens = truth["content_len"]
        for n, tol in (("tdigest_len", 0.02), ("kll_len", 0.03)):
            for q in (0.1, 0.5, 0.9, 0.99):
                est = float(built[n].quantile(q))
                if not rank_ok(lens, q, est, tol):
                    errs.append(f"{n} q{q} estimate {est} off rank")
        self.last = built
        bf = built["bloom_sha"]
        self.values["kernel.bloom.fill_ratio"] = bf.set_bit_count() / (bf.k * bf.m)
        return d, errs, loose

    def fpr(self):
        # probes both battery filters so the false-positive count stays
        # large at eps = 0.001
        keys = foreign_keys(self.seed, 200_000 if self.smoke else 1_000_000)
        rate = (fp_rate(self.last["bloom_sha"], keys)
                + fp_rate(self.last["bloom_commit"], keys)) / 2
        eps = self.specs["bloom_sha"][0].params[0]
        if rate > eps + 3 * math.sqrt(eps / (2 * len(keys))):
            self.errors.append(f"battery bloom FPR {rate} above eps {eps}")
        return rate

    def replay(self, tracer):
        from sprout_ray.functions.hashing import add_sha256
        from sprout_ray.stages.builder import merge_partials, pack_partial, update_chunked

        files = self.fx["files"]
        per_block = len(files) // self.blocks
        with tracer.phase("leaf"):
            with tracer.span("sources.read"):
                t = pq.read_table(files[:per_block], columns=CORPUS_COLS)
            tracer.count("sources.read_mb", t.nbytes / 1e6)
            t = with_content_len(add_sha256(t))
            blobs = {}
            for name, (spec, col) in self.specs.items():
                sk = spec.make()
                update_chunked(sk, spec.kind, t[col])
                blobs[name] = pack_partial(sk.to_bytes())
        with tracer.phase("reduce"):
            for name, (spec, _col) in self.specs.items():
                merge_partials([blobs[name]] * self.blocks, spec)
        return {"leaf": self.blocks, "reduce": 1}


class BloomProbe(Workload):
    """A prebuilt Bloom filter guards a Parquet key stream (probe_filter)."""

    name = "bloom_probe"
    EPS = 0.01

    def prepare(self):
        members, probes, self.n_files = (
            (5_000, 8_000, 4) if self.smoke else (250_000, 1_000_000, 8)
        )
        self.fx = fx.probe_keys(self.cache, self.seed, members, probes,
                                self.n_files, member_share=0.5)
        self.member_set = pq.read_table(self.fx["members"])["key"]
        self.input_rows = probes
        return {"rows": probes, "members": members, "files": self.n_files,
                "mb": self.fx["mb"]}

    def setup(self):
        import ray
        import ray.data as rd
        from sprout_ray.kernel import SketchSpec
        from sprout_ray.stages.builder import build_sketch

        if int(ray.cluster_resources().get("CPU", 0)) < 2:
            raise InsufficientCpusError(
                "bloom_probe needs at least 2 Ray CPUs (probe_filter's actor "
                "pool would take every CPU and starve read_parquet)"
            )
        members = self.fx["truth"]["members"]
        ds = rd.read_parquet(self.fx["members"])
        self.filter = build_sketch(ds, SketchSpec.of("bloom", self.EPS, members), on="key")
        self.filter_digest = fx.digest(self.filter.to_bytes())

    def probe(self):
        import ray.data as rd
        from sprout_ray.stages.probe import probe_filter

        ds = rd.read_parquet(self.fx["probe_files"], override_num_blocks=self.n_files)
        return collect(probe_filter(ds, self.filter, on="key", flag_column="maybe"))

    def ops(self):
        return [("probe", self.probe)]

    def op_span(self, label):
        return "stages.probe.probe_filter"

    def check(self, label, t):
        truth, errs = self.fx["truth"], []
        member = pc.is_in(t["key"], value_set=self.member_set)
        maybe = t["maybe"]
        n_member = pc.sum(member.cast(pa.int64())).as_py() or 0
        n_maybe = pc.sum(maybe.cast(pa.int64())).as_py() or 0
        n_fn = pc.sum(pc.and_(member, pc.invert(maybe)).cast(pa.int64())).as_py() or 0
        self.n_fp = n_maybe - n_member + n_fn
        if t.num_rows != truth["probes"]:
            errs.append(f"rows {t.num_rows} != {truth['probes']}")
        if n_member != truth["member_probes"]:
            errs.append(f"member probes {n_member} != {truth['member_probes']}")
        if n_fn:
            errs.append(f"{n_fn} false negatives")
        self.values["stages.probe.maybe_ratio"] = n_maybe / t.num_rows
        self.values["stages.probe.useful_ratio"] = (n_member / n_maybe) if n_maybe else 0.0
        self.values["kernel.bloom.fill_ratio"] = (
            self.filter.set_bit_count() / (self.filter.k * self.filter.m)
        )
        return fx.digest(self.filter_digest, n_maybe, self.n_fp), errs, None

    def fpr(self):
        return self.n_fp / self.fx["truth"]["foreign_probes"]

    def replay(self, tracer):
        import ray
        from sprout_ray.stages.probe import BloomProbe as Probe

        stage = Probe(ray.put(self.filter.to_bytes()), on="key", flag_column="maybe")
        with tracer.phase("leaf"):
            with tracer.span("sources.read"):
                t = pq.read_table(self.fx["probe_files"][0])
            tracer.count("sources.read_mb", t.nbytes / 1e6)
            with tracer.span("stages.probe.batch"):
                stage(t)
        return {"leaf": self.n_files}


class CheckpointResume(Workload):
    """build_with_checkpoints resuming after a seeded subset of partition
    checkpoints is deleted (the ``cli build``/``resume`` path)."""

    name = "checkpoint_resume"
    sessions = 3
    patch_ops = True
    ON = "key"

    def prepare(self):
        from sprout_ray.kernel import SketchSpec

        self.rows, n_files, self.n_delete = (
            (8_000, 8, 2) if self.smoke else (2_000_000, 16, 4)
        )
        self.fx = fx.key_shards(self.cache, self.seed, self.rows, n_files)
        self.spec = SketchSpec.of("bloom", 0.01, self.rows)
        self.ckpt = os.path.join(self.scratch, "ckpt")
        self.input_rows = self.rows
        # the same seeded subset every op, so every op does the same work
        rng = np.random.default_rng([self.seed, 4])
        self.gone = rng.choice(n_files, self.n_delete, replace=False)
        return {"rows": self.rows, "files": n_files, "mb": self.fx["mb"]}

    def build(self):
        from sprout_ray.state.checkpoint import build_with_checkpoints

        return build_with_checkpoints(self.fx["files"], self.spec, on=self.ON,
                                      ckpt_dir=self.ckpt)

    def setup(self):
        shutil.rmtree(self.ckpt, ignore_errors=True)
        sk, m = self.build()
        if m["built"] != len(self.fx["files"]):
            raise RuntimeError(f"initial checkpoint build: {m}")
        self.full = sk
        self.full_digest = fx.digest(sk.to_bytes())

    def before_op(self, label):
        for pid in self.gone:
            os.remove(os.path.join(self.ckpt, f"part-{pid:05d}.parquet"))
        self.values["state.checkpoint.bytes_read"] = sum(
            os.path.getsize(os.path.join(self.ckpt, p)) for p in os.listdir(self.ckpt)
        )

    def ops(self):
        return [("resume", self.build)]

    def op_span(self, label):
        return "state.checkpoint.build_with_checkpoints"

    def check(self, label, result):
        sk, m = result
        d, errs = fx.digest(sk.to_bytes()), []
        want = {"partitions": len(self.fx["files"]), "built": self.n_delete,
                "resumed": len(self.fx["files"]) - self.n_delete,
                "invalidated": 0, "rows": self.rows}
        if m != want:
            errs.append(f"resume metrics {m} != {want}")
        if d != self.full_digest:
            errs.append("resumed filter differs from the uninterrupted build")
        self.last = sk
        self.values["state.checkpoint.resumed"] = m["resumed"]
        self.values["state.checkpoint.built"] = m["built"]
        self.values["kernel.bloom.fill_ratio"] = sk.set_bit_count() / (sk.k * sk.m)
        return d, errs, None

    def fpr(self):
        return fp_rate(self.last, foreign_keys(self.seed, 20_000 if self.smoke else 200_000))

    def replay(self, tracer):
        from sprout_ray.stages.builder import update_chunked

        with tracer.phase("leaf"):
            with tracer.span("sources.read"):
                t = pq.read_table(self.fx["files"][0], columns=[self.ON])
            tracer.count("sources.read_mb", t.nbytes / 1e6)
            sk = self.spec.make()
            update_chunked(sk, self.spec.kind, t[self.ON])
            sk.to_bytes()
        return {"leaf": self.n_delete}


QUERIES = [
    "hll_hourly_users",
    "tdigest_hourly_value",
    "cms_join_size",
    "bloom_set_cardinalities",
    "hll_by_lang",
    "mg_heavy_hitters",
    "kmv_overlap_exact",
    "quantile_sketches",
]

# queries whose estimates come from t-digest/KLL merges (merge-order
# dependent) -> the columns that must still repeat exactly
ORDER_DEPENDENT_QUERIES = {
    "tdigest_hourly_value": ["n", "window", "within_bound"],
    "quantile_sketches": ["q"],
}


def as_table(res) -> pa.Table:
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return collect(res)
    if isinstance(res, pa.Table):
        return res
    return pa.Table.from_pandas(res, preserve_index=False)


def canonical(t: pa.Table) -> pa.Table:
    """Columns by name, rows by every column: the order-free form results
    are compared in."""
    t = t.select(sorted(t.column_names))
    return t.sort_by([(c, "ascending") for c in t.column_names])


class SketchQueries(Workload):
    """One pass over registered sketch queries of ``pipelines.analytics``."""

    name = "sketch_queries"

    def prepare(self):
        events = 2_000 if self.smoke else 10_000
        self.fx = fx.tables(self.cache, self.seed, events)
        truth = self.fx["truth"]
        self.input_rows = truth["events"] + truth["documents"] + truth["orders"]
        ev = pq.read_table(os.path.join(self.fx["dir"], "events.parquet"),
                           columns=["user_id"])
        vc = pc.value_counts(ev["user_id"]).flatten()
        self.user_counts = dict(zip(vc[0].to_pylist(), vc[1].to_pylist()))
        return {"rows": self.input_rows, "mb": self.fx["mb"]}

    def ops(self):
        import sprout_ray.pipelines.analytics as A

        def run(q):
            return lambda: as_table(getattr(A, q)(self.fx["dir"]))

        return [(q, run(q)) for q in QUERIES]

    def op_span(self, label):
        return f"pipelines.analytics.{label}"

    def check(self, label, t):
        errs = []
        for c in t.column_names:
            if (c.startswith("within_") or c.startswith("never_")) and \
                    not pc.all(t[c]).as_py():
                errs.append(f"{label}.{c} is false")
        if t.num_rows == 0:
            errs.append(f"{label} returned no rows")
        if label == "mg_heavy_hitters":
            for k, lo, hi in zip(*(t[c].to_pylist() for c in
                                   ("key", "count_lower", "count_upper"))):
                if not lo <= self.user_counts.get(int(k), 0) <= hi:
                    errs.append(f"mg count of {k} outside [{lo}, {hi}]")
        if label == "quantile_sketches":
            lens = np.array(self.fx["truth"]["n_chars"])
            for q, td, kll in zip(*(t[c].to_pylist() for c in ("q", "tdigest", "kll"))):
                # 1.5 rank steps of discreteness on top of the sketch error
                tol = 0.03 + 1.5 / lens.size
                if not (rank_ok(lens, q, td, tol) and rank_ok(lens, q, kll, tol)):
                    errs.append(f"quantile_sketches q{q} off rank")
        c = canonical(t)
        loose = None
        if label in ORDER_DEPENDENT_QUERIES:
            loose = fx.digest(*(col.to_pylist() for col in c.columns))
            c = c.select(ORDER_DEPENDENT_QUERIES[label])
        return fx.digest(*(col.to_pylist() for col in c.columns)), errs, loose

    def run_checks(self):
        """DuckDB oracle compare for every pass query that has an oracle."""
        import duckdb
        import sprout_ray.pipelines.analytics as A
        from __ray_entry__ import oracle_sql

        oracles = oracle_sql()
        errs = []
        with duckdb.connect() as con:
            for tbl in ("events", "documents", "orders"):
                p = os.path.join(self.fx["dir"], f"{tbl}.parquet")
                con.execute(f"CREATE VIEW {tbl} AS SELECT * FROM read_parquet('{p}')")
            for q in QUERIES:
                if q not in oracles:
                    continue
                want = canonical(con.execute(oracles[q]).arrow())
                got = canonical(as_table(getattr(A, q)(self.fx["dir"])))
                if got.to_pylist() != want.to_pylist():
                    errs.append(f"{q} differs from its DuckDB oracle")
        return errs

    def fpr(self):
        """FPR of a full-load Bloom built over the unique events.event_id by
        ``stages.builder.build_sketch``, the build path these queries share
        (the queries' own filters run far below capacity)."""
        import ray.data as rd
        from sprout_ray.kernel import SketchSpec
        from sprout_ray.stages.builder import build_sketch

        n = self.fx["truth"]["events"]
        ds = rd.read_parquet(os.path.join(self.fx["dir"], "events.parquet"),
                             columns=["event_id"])
        bf = build_sketch(ds, SketchSpec.of("bloom", 0.01, n), on="event_id")
        ids = np.arange(n, n + (20_000 if self.smoke else 200_000))
        return fp_rate(bf, pc.cast(pa.array(ids), pa.string()))

    def replay(self, tracer):
        from sprout_ray.kernel import SketchSpec
        from sprout_ray.stages.agg import SketchAgg

        d = self.fx["dir"]
        grouped = [  # (table, key, on, spec) as the grouped queries build them
            ("events", "window", "user_id", SketchSpec.of("hll", 12)),
            ("events", "window", "value", SketchSpec.of("tdigest", 200.0)),
            ("events", "event_type", "user_id",
             SketchSpec.of("bloom", 0.01, max(self.fx["truth"]["events"], 11))),
            ("documents", "lang", "source", SketchSpec.of("hll", 14)),
        ]
        with tracer.phase("leaf"):
            tables = {}
            for tbl in ("events", "documents", "orders"):
                with tracer.span("sources.read"):
                    tables[tbl] = pq.read_table(os.path.join(d, f"{tbl}.parquet"))
                tracer.count("sources.read_mb", tables[tbl].nbytes / 1e6)
            ev = tables["events"]
            us = ev["ts"].cast(pa.int64()).to_numpy()
            tables["events"] = ev.append_column(
                "window", pa.array(us // 3_600_000_000, pa.int64()))
            for tbl, key, on, spec in grouped:
                t = tables[tbl]
                agg = SketchAgg(spec, on=on)
                for k in pc.unique(t[key]).to_pylist():
                    part = t.filter(pc.equal(t[key], k))
                    with tracer.span("stages.agg.aggregate_block"):
                        acc = agg.aggregate_block(part)
                    tracer.count("stages.agg.accumulator_bytes", len(acc.to_bytes()))
        return {"leaf": 1}


WORKLOADS = {w.name: w for w in (BatteryBuild, BloomProbe, SketchQueries, CheckpointResume)}
