"""Harness plumbing and table builders (small-scale smoke versions of the
jobs/ entrypoints — the real numbers come from benchmark scale)."""
import time

from repro import harness, tables
from repro.workloads import all_queries

from .conftest import SCALES

QUERIES = all_queries()


def test_tables_for_caches(quiet_spark, bench_tables):
    t1 = bench_tables("tpch")
    t2 = bench_tables("tpch")
    assert t1 is t2


def test_prepare_acyclic_identity(bench_tables):
    wl = QUERIES["tpch-q3"]
    prep = harness.prepare(wl, bench_tables("tpch"))
    assert prep.via == "none" and prep.cq is wl.cq


def test_prepare_cycle_elim(bench_tables):
    prep = harness.prepare(QUERIES["tpch-q5"], bench_tables("tpch"))
    assert prep.via == "cycle-elim"
    assert prep.cq.eq_filters


def test_prepare_ghd_registers_bags(bench_tables):
    prep = harness.prepare(QUERIES["sgpb-q2b"], bench_tables("sgpb"))
    assert prep.via == "ghd"
    assert any(k.startswith("__bag") for k in prep.tables)


def test_time_mode_reports_fields(quiet_spark, bench_tables):
    wl = QUERIES["tpch-q19"]
    r = harness.time_mode(wl, bench_tables("tpch"), "yannakakis+")
    assert r["seconds"] > 0 and r["opt_time"] >= 0 and r["tree_root"]


def test_time_mode_times_prepare(bench_tables, monkeypatch):
    """The timed run starts at the CQ: ``prepare`` is inside it."""
    prepare = harness.prepare

    def slow_prepare(wl, tables):
        time.sleep(1.0)
        return prepare(wl, tables)

    monkeypatch.setattr(harness, "prepare", slow_prepare)
    r = harness.time_mode(QUERIES["tpch-q19"], bench_tables("tpch"), "yannakakis+")
    assert r["seconds"] >= 1.0


def test_time_mode_releases_ghd_bags(quiet_spark):
    """time_mode unpersists the GHD bags it caches: Spark's storage is left
    as it was found (tables at a scale no other test uses, so no bag of
    theirs is cached already)."""
    tables_ = harness.tables_for(quiet_spark, "sgpb", scale=0.02)
    jsc = quiet_spark.sparkContext._jsc.sc()

    def cached_rdds():
        return sorted(i.id() for i in jsc.getRDDStorageInfo())

    before = cached_rdds()
    harness.time_mode(QUERIES["sgpb-q2b"], tables_, "yannakakis+")
    assert cached_rdds() == before


def test_native_mode_has_no_choice(quiet_spark, bench_tables):
    wl = QUERIES["tpch-q19"]
    df, choice = harness.build(wl, bench_tables("tpch"), "native")
    assert choice is None
    assert df.count() >= 0


# ----------------------------------------------------------- table6 vs paper
def test_table6_matches_paper_classification():
    rows = {r["query"].removeprefix("sgpb-"): r for r in tables.table6()}
    for q, (shape, qtype, preds, fc) in tables.PAPER_TABLE6.items():
        if q == "q1c" or q == "q3c":
            pass  # projection attrs differ slightly from the (unpublished) originals
        got = rows[q]
        assert got["shape"] == shape
        assert got["predicates"] == preds
        assert got["free_connex"] == fc, q
        assert got["type"].replace("-", " ").lower() == qtype.lower()


def test_table6_dumbbell_classified_after_ghd():
    rows = {r["query"]: r for r in tables.table6()}
    assert "GHD" in rows["sgpb-q2a"]["class"]
    assert rows["sgpb-q2a"]["free_connex"]


# ------------------------------------------------- table builders (smoke)
def test_table3_variants_complete(quiet_spark, monkeypatch):
    monkeypatch.setattr(tables, "BENCH_SCALE", SCALES)
    rows = tables.table3(quiet_spark, queries=("job-1a",))
    (row,) = rows
    assert set(row) == {"query", "base", "primitive", "pkfk", "annot", "both"}
    assert all(v > 0 for k, v in row.items() if k != "query")


def test_table4_scenarios_complete(quiet_spark, monkeypatch):
    monkeypatch.setattr(tables, "BENCH_SCALE", SCALES)
    rows = tables.table4(quiet_spark, queries=("job-2b",))
    (row,) = rows
    assert set(row) == {"query", "native", "accurate", "estimated", "worst"}


def test_table5_fields(quiet_spark, monkeypatch):
    monkeypatch.setattr(tables, "BENCH_SCALE", SCALES)
    rows = tables.table5(quiet_spark, queries=("tpch-q19",))
    (row,) = rows
    assert row["n_tables"] == 2 and row["n_attrs"] == 1
    assert row["opt_time"] > 0 and row["spark_plan_time"] > 0


def test_render_formats():
    out = tables.render([{"a": 1.23456, "b": "x"}])
    assert "1.235" in out and "b" in out
