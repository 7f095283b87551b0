"""Seeded benchmark inputs, cached inside the checkout.

Every fixture is a pure function of ``(seed, size, GEN)``. It is written
once under ``.bench_cache/`` and reused by later runs with the same key, so
a cold cache costs wall time before the set-up clock starts and never shows
up in ``setup_s``. Ground truth that the correctness checks need (exact
distinct counts, exact key counts, sorted values) is computed here from the
generated data, never from the program under test.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

# bump when a generator below changes, so stale caches are rebuilt
GEN = 1


def _write_once(path: str, build) -> str:
    """Build a fixture directory atomically: ``build(tmp_dir)`` then rename."""
    if os.path.isdir(path):
        return path
    tmp = f"{path}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    build(tmp)
    try:
        os.rename(tmp, path)
    except OSError:  # another run finished the same fixture first
        shutil.rmtree(tmp, ignore_errors=True)
    return path


def _load_json(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def _dump_json(path: str, obj) -> None:
    with open(path, "w") as f:
        json.dump(obj, f)


def parquet_files(d: str) -> list:
    return sorted(
        os.path.join(d, p) for p in os.listdir(d) if p.endswith(".parquet")
    )


def dir_mb(d: str) -> float:
    return sum(os.path.getsize(os.path.join(d, p)) for p in os.listdir(d)) / 1e6


def corpus(cache: str, seed: int, rows: int, n_files: int) -> dict:
    """The repo corpus (``sources.synth``) plus its exact ground truth.

    Generation reuses ``sources.synth.ensure_corpus`` and its manifest, so
    the corpus files are the program's own fixture format."""
    from sprout_ray.functions.hashing import sha256_column
    from sprout_ray.sources.synth import ensure_corpus

    path = os.path.join(cache, f"corpus-s{seed}-r{rows}-f{n_files}-g{GEN}")
    ensure_corpus(path, rows, n_files=n_files, seed=seed)
    truth_path = os.path.join(path, "_TRUTH.json")
    if not os.path.exists(truth_path):
        t = pq.read_table(parquet_files(path), columns=["repo", "path", "content"])
        rng = np.random.default_rng([seed, 1])
        sample = {}
        for col in ("repo", "path"):
            vc = pc.value_counts(t[col]).flatten()
            keys = vc[0].to_pylist()
            counts = vc[1].to_pylist()
            pick = rng.choice(len(keys), size=min(256, len(keys)), replace=False)
            sample[col] = [[keys[i], counts[i]] for i in sorted(pick)]
        lens = np.sort(pc.utf8_length(t["content"]).to_numpy().astype(np.int64))
        np.save(os.path.join(path, "_content_len.npy"), lens)
        truth = {
            "rows": t.num_rows,
            "distinct_repo": pc.count_distinct(t["repo"]).as_py(),
            "distinct_sha256": pc.count_distinct(sha256_column(t["content"])).as_py(),
            "sample": sample,
        }
        _dump_json(truth_path + ".tmp", truth)
        os.replace(truth_path + ".tmp", truth_path)
    truth = _load_json(truth_path)
    truth["content_len"] = np.load(os.path.join(path, "_content_len.npy"))
    return {"dir": path, "files": parquet_files(path), "truth": truth,
            "mb": dir_mb(path)}


def _hex_keys(values: np.ndarray) -> list:
    return [f"{v:016x}" for v in values.tolist()]


def probe_keys(cache: str, seed: int, members: int, probes: int, n_files: int,
               member_share: float) -> dict:
    """Member keys for the filter and a Parquet probe stream.

    A fixed share of the probe rows are members (drawn with replacement);
    the rest are foreign keys, disjoint from the member set by
    construction."""
    path = os.path.join(
        cache, f"keys-s{seed}-m{members}-p{probes}-f{n_files}-g{GEN}"
    )

    def build(tmp):
        rng = np.random.default_rng([seed, 2])
        n_member_probes = int(round(probes * member_share))
        n_foreign = probes - n_member_probes
        ids = np.unique(rng.integers(0, 1 << 63, members + n_foreign + 1024))
        ids = rng.permutation(ids)[: members + n_foreign]
        mem = pa.array(_hex_keys(ids[:members]), pa.string())
        pq.write_table(pa.table({"key": mem}), os.path.join(tmp, "members.parquet"))
        stream = np.concatenate(
            [rng.integers(0, members, n_member_probes),
             np.arange(members, members + n_foreign)]
        )
        stream = rng.permutation(stream)
        keys = pa.array(_hex_keys(ids[stream]), pa.string())
        probe_dir = os.path.join(tmp, "probe")
        os.makedirs(probe_dir)
        per = probes // n_files
        for i in range(n_files):
            hi = probes if i == n_files - 1 else (i + 1) * per
            pq.write_table(
                pa.table({"key": keys.slice(i * per, hi - i * per)}),
                os.path.join(probe_dir, f"part-{i:05d}.parquet"),
            )
        _dump_json(os.path.join(tmp, "_TRUTH.json"),
                   {"members": members, "probes": probes,
                    "member_probes": n_member_probes, "foreign_probes": n_foreign})

    _write_once(path, build)
    probe_dir = os.path.join(path, "probe")
    return {
        "dir": path,
        "members": os.path.join(path, "members.parquet"),
        "probe_dir": probe_dir,
        "probe_files": parquet_files(probe_dir),
        "truth": _load_json(os.path.join(path, "_TRUTH.json")),
        "mb": dir_mb(probe_dir),
    }


def key_shards(cache: str, seed: int, rows: int, n_files: int) -> dict:
    """Distinct 40-hex-digit keys (the shape of a commit id), split into
    ``n_files`` equal Parquet shards of one ``key`` column."""
    path = os.path.join(cache, f"shards-s{seed}-r{rows}-f{n_files}-g{GEN}")

    def build(tmp):
        rng = np.random.default_rng([seed, 5])
        hi = np.unique(rng.integers(0, 1 << 63, rows + 1024))
        hi = rng.permutation(hi)[:rows]
        lo = rng.integers(0, 1 << 63, (rows, 2))
        keys = pa.array([f"{a:016x}{b:012x}{c:012x}" for a, b, c in
                         zip(hi.tolist(), (lo[:, 0] >> 15).tolist(),
                             (lo[:, 1] >> 15).tolist())], pa.string())
        per = rows // n_files
        for i in range(n_files):
            pq.write_table(pa.table({"key": keys.slice(i * per, per)}),
                           os.path.join(tmp, f"part-{i:05d}.parquet"))
        _dump_json(os.path.join(tmp, "_TRUTH.json"), {"rows": per * n_files})

    _write_once(path, build)
    return {"dir": path, "files": parquet_files(path),
            "truth": _load_json(os.path.join(path, "_TRUTH.json")), "mb": dir_mb(path)}


EVENT_TYPES = ["view", "click", "purchase", "signup", "error"]
LANGS = ["en", "zh", "es", "de", "fr"]
WORDS = (
    "the a key agg row scan slow fast table value part hash window sort "
    "merge batch spark line join shuffle block sketch filter bloom count"
).split()


def tables(cache: str, seed: int, events: int) -> dict:
    """``events`` / ``documents`` / ``orders`` tables in the schema the
    ``pipelines.analytics`` queries read (one Parquet file per table, as in
    an ``sf`` directory). Sizes scale with ``events`` the way the sf
    directories do: orders = 1.5 x events, documents = events / 20."""
    path = os.path.join(cache, f"tables-s{seed}-e{events}-g{GEN}")

    def build(tmp):
        rng = np.random.default_rng([seed, 3])
        n_users = max(events // 60, 50)
        t0 = np.datetime64("2024-01-01T00:00:00", "us").astype(np.int64)
        span_us = 30 * 24 * 3600 * 1_000_000
        ts = np.sort(rng.integers(0, span_us, events)) + t0
        ev = pa.table({
            "event_id": pa.array(np.arange(events, dtype=np.int64)),
            "ts": pa.array(ts, pa.timestamp("us")),
            "user_id": pa.array(rng.integers(0, n_users, events), pa.int64()),
            "event_type": pa.array(
                [EVENT_TYPES[i] for i in rng.integers(0, 5, events)], pa.string()),
            "value": pa.array(
                np.round(rng.lognormal(3.5, 1.0, events), 2), pa.float64()),
            "props": pa.array(
                [f'{{"k": {k}}}' for k in rng.integers(0, 100, events)], pa.string()),
        })
        pq.write_table(ev, os.path.join(tmp, "events.parquet"))

        n_docs = max(events // 20, 100)
        n_words = np.maximum(rng.lognormal(3.0, 0.6, n_docs).astype(np.int64), 1)
        texts = [" ".join(WORDS[j] for j in rng.integers(0, len(WORDS), k))
                 for k in n_words]
        p = 1.0 / np.arange(1, len(LANGS) + 1)
        docs = pa.table({
            "doc_id": pa.array(np.arange(n_docs, dtype=np.int64)),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(
                [LANGS[i] for i in rng.choice(len(LANGS), n_docs, p=p / p.sum())],
                pa.string()),
            "source": pa.array(
                [f"src{i}" for i in rng.integers(0, 20, n_docs)], pa.string()),
            "n_chars": pa.array([len(s) for s in texts], pa.int64()),
        })
        pq.write_table(docs, os.path.join(tmp, "documents.parquet"))

        n_orders = events * 3 // 2
        od = pa.table({
            "o_orderkey": pa.array(np.arange(n_orders, dtype=np.int64)),
            "o_custkey": pa.array(rng.integers(0, n_users * 10, n_orders), pa.int64()),
            "o_orderstatus": pa.array(
                [("O", "F", "P")[i] for i in rng.integers(0, 3, n_orders)], pa.string()),
            "o_totalprice": pa.array(
                np.round(rng.uniform(1e3, 4e5, n_orders), 2), pa.float64()),
        })
        pq.write_table(od, os.path.join(tmp, "orders.parquet"))
        _dump_json(os.path.join(tmp, "_TRUTH.json"), {
            "events": events, "documents": n_docs, "orders": n_orders,
            "users": int(np.unique(ev["user_id"].to_numpy()).size),
            "n_chars": sorted(int(x) for x in docs["n_chars"].to_numpy()),
        })

    _write_once(path, build)
    return {"dir": path, "truth": _load_json(os.path.join(path, "_TRUTH.json")),
            "mb": dir_mb(path)}


def digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()
