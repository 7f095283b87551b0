"""Resumable partitioned-output sink tests."""

import os

import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest


def _transform(ds):
    return ds.map_batches(
        lambda t: t.filter(pc.equal(t["lang"], "python")),
        batch_format="pyarrow",
    )


def test_resumable_transform_write(ray_session, tmp_path):
    from sprout_ray.sources.io import resumable_transform_write
    from sprout_ray.sources.synth import ensure_corpus

    corpus = ensure_corpus(str(tmp_path / "c"), 4000, n_files=4, seed=42)
    files = sorted(
        os.path.join(corpus, p) for p in os.listdir(corpus) if p.endswith(".parquet")
    )
    out = str(tmp_path / "out")
    m1 = resumable_transform_write(files, out, transform=_transform)
    assert m1 == {"partitions": 4, "written": 4, "resumed": 0}
    # full rerun: everything resumes
    m2 = resumable_transform_write(files, out, transform=_transform)
    assert m2 == {"partitions": 4, "written": 0, "resumed": 4}
    # output equals a direct one-shot transform
    import duckdb

    n_out = duckdb.sql(
        f"SELECT count(*) FROM read_parquet('{out}/part=*/*.parquet')"
    ).fetchone()[0]
    n_expect = duckdb.sql(
        f"SELECT count(*) FROM read_parquet('{corpus}/part-*.parquet') WHERE lang='python'"
    ).fetchone()[0]
    assert n_out == n_expect > 0
    # damage one partition: only it is rewritten
    import shutil

    victim = os.path.join(out, "part=00002")
    shutil.rmtree(victim)
    m3 = resumable_transform_write(files, out, transform=_transform)
    assert m3["written"] == 1 and m3["resumed"] == 3
    assert os.path.isdir(victim)


def test_read_any_formats_build_identical_sketch(ray_session, tmp_path):
    """Parquet / CSV / JSONL ingest of the same rows feed bit-identical
    sketch builds (sources/formats.py)."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from sprout_ray.kernel import SketchSpec
    from sprout_ray.sources.formats import detect_format, read_any
    from sprout_ray.stages.builder import build_sketch

    t = pa.table(
        {
            "repo": [f"r{i % 7}" for i in range(200)],
            "content": [f"doc body {i}" for i in range(200)],
        }
    )
    pq_path = str(tmp_path / "d.parquet")
    csv_path = str(tmp_path / "d.csv")
    json_path = str(tmp_path / "d.jsonl")
    pq.write_table(t, pq_path)
    con = duckdb.connect()
    con.execute(f"COPY (SELECT * FROM '{pq_path}') TO '{csv_path}' (HEADER)")
    con.execute(
        f"COPY (SELECT * FROM '{pq_path}') TO '{json_path}' (FORMAT JSON)"
    )
    con.close()

    assert detect_format(pq_path) == "parquet"
    assert detect_format(csv_path) == "csv"
    assert detect_format(json_path) == "json"

    spec = SketchSpec.of("hll", 12)
    built = {
        p: build_sketch(read_any(p, columns=["repo"]), spec, on="repo")
        for p in (pq_path, csv_path, json_path)
    }
    ref = built[pq_path]
    assert ref.estimate() > 0
    for p, sk in built.items():
        assert (sk.registers == ref.registers).all(), p


def test_curate_corpus_resumable_write(ray_session, tmp_path, monkeypatch):
    """Write-side curation: output rows == the oracle-checked survivor set;
    a rerun resumes without rewriting."""
    import duckdb
    import pyarrow.parquet as pq_mod

    from sprout_ray.pipelines.curate import curate_corpus

    src = "/root/testdata/sf0.001/documents.parquet"
    out = str(tmp_path / "curated")
    m1 = curate_corpus([src], out)
    assert m1["written"] == 1 and m1["resumed"] == 0
    m2 = curate_corpus([src], out)
    assert m2["written"] == 0 and m2["resumed"] == 1

    import glob as g

    got = pq_mod.read_table(
        sorted(g.glob(f"{out}/part=*/**/*.parquet", recursive=True))
    )
    con = duckdb.connect()
    want = con.execute(
        "WITH winners AS (SELECT min(doc_id) AS doc_id FROM "
        f"'{src}' GROUP BY text), "
        "feat AS (SELECT doc_id, "
        "CAST(CASE WHEN trim(text, ' ') = '' THEN 0 "
        "ELSE len(string_split_regex(trim(text, ' '), '\\s+')) END AS BIGINT) "
        "AS token_count, "
        "round((len(text) - len(regexp_replace(text, '[^\\w\\s]', '', 'g'))) "
        f"/ greatest(len(text), 1), 6) AS punct_ratio FROM '{src}') "
        "SELECT f.doc_id FROM feat f JOIN winners w USING (doc_id) "
        "WHERE f.token_count >= 30 AND f.punct_ratio <= 0.3 ORDER BY f.doc_id"
    ).df()
    con.close()
    got_ids = sorted(got["doc_id"].to_pylist())
    assert got_ids == want["doc_id"].tolist()

    # force the distributed semi-join winner path (DIM_BROADCAST_MAX=0):
    # output content must be identical to the broadcast path's
    import sprout_ray.stages.joins as J

    out2 = str(tmp_path / "curated_join")
    with monkeypatch.context() as m:
        m.setattr(J, "DIM_BROADCAST_MAX", 0)
        m3 = curate_corpus([src], out2)
    assert m3["written"] == 1 and m3["winners"] == m1["winners"]
    got2 = pq_mod.read_table(
        sorted(g.glob(f"{out2}/part=*/**/*.parquet", recursive=True))
    )
    a = got.to_pandas().sort_values("doc_id").reset_index(drop=True)
    b = got2.to_pandas()[a.columns].sort_values("doc_id").reset_index(drop=True)
    assert a.equals(b)


def test_curate_corpus_with_splits(ray_session, tmp_path):
    """End-to-end training-data flow: dedup + quality gate + deterministic
    split column. Split assignment must be identical between a fresh run
    and a rerun (hash of doc_id, not row position), and survivors must be
    the same set as the split-less run."""
    import glob as g

    import pyarrow.parquet as pq_mod

    from sprout_ray.pipelines.curate import curate_corpus

    src = "/root/testdata/sf0.001/documents.parquet"
    fr = [("train", 0.8), ("val", 0.1), ("test", 0.1)]
    out = str(tmp_path / "curated_split")
    m = curate_corpus([src], out, split_fractions=fr)
    assert m["written"] == 1

    got = pq_mod.read_table(
        sorted(g.glob(f"{out}/part=*/**/*.parquet", recursive=True))
    ).to_pandas()
    assert set(got["split"]) <= {"train", "val", "test"}
    assert (got.groupby("doc_id")["split"].nunique() == 1).all()

    # identical doc -> split mapping on an independent second run
    out2 = str(tmp_path / "curated_split2")
    curate_corpus([src], out2, split_fractions=fr)
    got2 = pq_mod.read_table(
        sorted(g.glob(f"{out2}/part=*/**/*.parquet", recursive=True))
    ).to_pandas()
    a = got.sort_values("doc_id").reset_index(drop=True)
    b = got2[got.columns].sort_values("doc_id").reset_index(drop=True)
    assert a.equals(b)

    # same survivor ids as the split-less pipeline
    out3 = str(tmp_path / "curated_nosplit")
    curate_corpus([src], out3)
    got3 = pq_mod.read_table(
        sorted(g.glob(f"{out3}/part=*/**/*.parquet", recursive=True))
    )
    assert sorted(got3["doc_id"].to_pylist()) == sorted(got["doc_id"].tolist())


def test_curate_corpus_with_decontamination(ray_session, tmp_path, monkeypatch):
    """Benchmark decontamination inside the write path: a planted
    benchmark-overlapping doc is dropped, identically via both id-filter
    plans, and the decontaminated run still resumes."""
    import glob

    import pyarrow as pa
    import pyarrow.parquet as pq_mod

    from sprout_ray.pipelines.curate import curate_corpus

    src_tbl = pq_mod.read_table(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
    )
    # benchmark = the exact text of one surviving doc (guaranteed overlap)
    bench_text = src_tbl["text"][7].as_py()
    bench_path = str(tmp_path / "bench.parquet")
    pq_mod.write_table(pa.table({"text": [bench_text]}), bench_path)
    src = "/root/testdata/sf0.001/documents.parquet"

    out_plain = str(tmp_path / "plain")
    m0 = curate_corpus([src], out_plain)

    def read_ids(out):
        files = sorted(
            glob.glob(f"{out}/part=*/**/*.parquet", recursive=True)
        )
        return set(pq_mod.read_table(files)["doc_id"].to_pylist())

    out_dec = str(tmp_path / "dec")
    m1 = curate_corpus([src], out_dec, benchmark_files=[bench_path],
                       decontam_n=4)
    assert m1["contaminated"] >= 1
    plain_ids, dec_ids = read_ids(out_plain), read_ids(out_dec)
    dropped = plain_ids - dec_ids
    assert src_tbl["doc_id"][7].as_py() in dropped
    # everything else is identical: only contaminated docs were removed
    assert dec_ids < plain_ids and len(dropped) <= m1["contaminated"]

    # both id-filter plans agree
    import sprout_ray.stages.joins as J

    out_join = str(tmp_path / "dec_join")
    with monkeypatch.context() as m:
        m.setattr(J, "DIM_BROADCAST_MAX", 0)
        m2 = curate_corpus(
            [src], out_join, benchmark_files=[bench_path], decontam_n=4
        )
    assert read_ids(out_join) == dec_ids

    # resume still works with decontamination on
    m3 = curate_corpus([src], out_dec, benchmark_files=[bench_path],
                       decontam_n=4)
    assert m3["resumed"] == 1 and m3["written"] == 0


def test_curate_corpus_jsonl_output(ray_session, tmp_path):
    """JSONL shards: same survivor rows as the parquet path, and the shards
    round-trip through read_any (the multi-format reader)."""
    import glob as g

    import pyarrow.parquet as pq_mod

    from sprout_ray.pipelines.curate import curate_corpus
    from sprout_ray.sources.formats import read_any

    src = "/root/testdata/sf0.001/documents.parquet"
    out_pq = str(tmp_path / "pq")
    out_jl = str(tmp_path / "jl")
    curate_corpus([src], out_pq)
    m = curate_corpus([src], out_jl, output_format="jsonl")
    assert m["written"] == 1

    jl_files = sorted(g.glob(f"{out_jl}/part=*/**/*.json*", recursive=True))
    assert jl_files, "no jsonl shards written"
    a = (
        read_any(jl_files)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    b = (
        pq_mod.read_table(
            sorted(g.glob(f"{out_pq}/part=*/**/*.parquet", recursive=True))
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # 'part' is the path-derived hive column — readers surface it with
    # different dtypes ('00000' str vs categorical int); not data
    cols = sorted(c for c in a.columns if c != "part")
    assert a[cols].equals(b[cols])

    # a resume requesting a different shard format must fail loudly,
    # not silently skip
    with pytest.raises(ValueError, match="format mismatch"):
        curate_corpus([src], out_jl, output_format="parquet")


def test_partitioned_by_value_write(ray_session, tmp_path):
    """Hive-layout partition_by: per-value dirs under each shard group,
    content-complete, resumable, and layout-mismatch-guarded."""
    from sprout_ray.sources.io import resumable_transform_write
    from sprout_ray.sources.synth import ensure_corpus

    corpus = ensure_corpus(str(tmp_path / "c"), 3000, n_files=3, seed=42)
    files = sorted(
        os.path.join(corpus, p) for p in os.listdir(corpus) if p.endswith(".parquet")
    )
    out = str(tmp_path / "out_pb")
    m1 = resumable_transform_write(files, out, partition_by="lang")
    assert m1 == {"partitions": 3, "written": 3, "resumed": 0}
    import duckdb

    # every (part, lang) dir holds exactly that lang's rows; totals match
    n_out = duckdb.sql(
        f"SELECT count(*) FROM read_parquet('{out}/part=*/lang=*/*.parquet')"
    ).fetchone()[0]
    n_in = duckdb.sql(
        f"SELECT count(*) FROM read_parquet('{corpus}/part-*.parquet')"
    ).fetchone()[0]
    assert n_out == n_in > 0
    langs = duckdb.sql(
        f"SELECT DISTINCT lang FROM read_parquet('{out}/part=00000/lang=python/*.parquet')"
    ).fetchall()
    assert langs == [("python",)]
    # resume skips; layout mismatch errors loudly
    m2 = resumable_transform_write(files, out, partition_by="lang")
    assert m2["resumed"] == 3 and m2["written"] == 0
    with pytest.raises(ValueError, match="layout mismatch"):
        resumable_transform_write(files, out)
    # cardinality guard
    with pytest.raises(ValueError, match="bounded-cardinality"):
        resumable_transform_write(
            files, str(tmp_path / "out_bad"), partition_by="path",
            max_partition_values=4,
        )
