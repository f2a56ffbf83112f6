"""Builders for the paper's evaluation tables (§7). Each function returns
plain row dicts; ``jobs/*.py`` render them. Every runtime comes from
``harness.time_mode``, end to end from CQ to result. The
``PAPER_*`` constants hold the published numbers (SparkSQL rows where the
table is per-engine) so EXPERIMENTS.md can show paper-vs-measured side by
side."""
from __future__ import annotations

import statistics
import time

from pyspark.sql import SparkSession

from . import harness
from .core._emit import Rules
from .core.join_tree import classify
from .optimizer.cardinality import ACCURATE, ESTIMATED, WORST_CASE
from .workloads import all_queries

#: benchmark → loader params at benchmark scale (≈100 MB total; tests use
#: the tiny scales in tests/conftest.py instead)
BENCH_SCALE = {
    "sgpb": dict(scale=1.0),
    "tpch": dict(sf=0.1),
    "job": dict(sf=1.0, dup=3),
    "lsqb": dict(sf=1.0),
}

# ------------------------------------------------------- paper reference
#: Table 2, SparkSQL rows (seconds)
PAPER_TABLE2_SPARKSQL = {
    "native": dict(max=539.37, mean=268.37, median=201.71, std=159.64),
    "yannakakis": dict(max=1145.17, mean=544.72, median=430.47, std=328.92),
    "yannakakis+": dict(max=521.33, mean=207.56, median=170.81, std=156.95),
}
#: Table 3 (DuckDB/PostgreSQL; the paper has no SparkSQL rows here)
PAPER_TABLE3 = {
    "job-1a": {"DuckDB": dict(base=4.36, primitive=29.68, pkfk=4.51, annot=27.97, both=3.59),
               "PostgreSQL": dict(base=7.55, primitive=29.18, pkfk=9.56, annot=14.60, both=6.95)},
    "job-4a": {"DuckDB": dict(base=12.76, primitive=32.31, pkfk=4.28, annot=31.25),
               "PostgreSQL": dict(base=None, primitive=None, pkfk=None, annot=None)},
}
#: Table 4 (DuckDB rows, seconds)
PAPER_TABLE4_DUCKDB = {
    "job-2b": dict(native=5.14, accurate=4.28, estimated=5.10, worst=22.13),
    "job-8b": dict(native=23.60, accurate=22.74, estimated=23.38, worst=38.00),
    "job-11d": dict(native=58.58, accurate=5.42, estimated=7.77, worst=228.21),
    "job-17c": dict(native=39.20, accurate=16.24, estimated=20.46, worst=35.90),
    "job-27b": dict(native=41.49, accurate=40.46, estimated=41.40, worst=53.81),
}
#: Table 5 (opt time seconds + DuckDB native/Y+ runtimes, #tables/#attrs)
PAPER_TABLE5 = {
    "sgpb-q1a": dict(native=15.10, yplus=8.19, tables=3, attrs=6, opt=0.134),
    "sgpb-q6": dict(native=8.12, yplus=2.29, tables=3, attrs=6, opt=0.236),
    "lsqb-q1": dict(native=6.27, yplus=0.97, tables=10, attrs=None, opt=0.066),
    "lsqb-q5": dict(native=10.37, yplus=7.47, tables=3, attrs=4, opt=None),
    "tpch-q3": dict(native=5.32, yplus=5.07, tables=3, attrs=None, opt=0.072),
    "tpch-q10": dict(native=12.36, yplus=9.32, tables=4, attrs=13, opt=0.086),
    "tpch-q19": dict(native=5.72, yplus=5.68, tables=2, attrs=9, opt=0.074),
    "job-1a": dict(native=3.66, yplus=3.21, tables=5, attrs=8, opt=0.076),
    "job-10c": dict(native=23.59, yplus=23.49, tables=7, attrs=10, opt=0.172),
    "job-21a": dict(native=40.93, yplus=40.01, tables=9, attrs=13, opt=0.081),
    "job-27c": dict(native=41.10, yplus=40.76, tables=12, attrs=17, opt=0.086),
    "job-27b": dict(native=61.14, yplus=35.86, tables=14, attrs=21, opt=0.097),
}
#: Table 6: the paper's SGPB classification (name → (shape, type, preds, FC))
PAPER_TABLE6 = {
    "q1a": ("line-3", "Full Enumerate", 1, True),
    "q1b": ("line-3", "Aggregation", 0, True),
    "q1c": ("line-3", "Projection", 0, True),
    "q2a": ("dumbbell", "Full Enumerate", 1, True),
    "q2b": ("dumbbell", "Aggregation", 0, True),
    "q3a": ("line-3", "Full Enumerate", 1, True),
    "q3b": ("line-3", "Aggregation", 0, True),
    "q3c": ("line-3", "Projection", 0, True),
    "q4a": ("line-5", "Projection", 0, True),
    "q4b": ("line-5", "Aggregation", 0, True),
    "q5a": ("line-5", "Projection", 0, True),
    "q5b": ("line-5", "Aggregation", 0, True),
    "q6": ("line-3", "Projection", 0, False),
    "q7": ("line-4", "Aggregation", 0, False),
    "q8": ("line-4", "Aggregation", 0, False),
    "q9": ("line-4", "Aggregation", 0, False),
}

_JOB_POOL = sorted(n for n in all_queries() if n.startswith("job-"))
TABLE4_QUERIES = ("job-2b", "job-8b", "job-11d", "job-17c", "job-27b")
TABLE5_QUERIES = (
    "sgpb-q1a", "sgpb-q6", "lsqb-q1", "lsqb-q5", "tpch-q3", "tpch-q10",
    "tpch-q19", "job-1a", "job-10c", "job-21a", "job-27c", "job-27b",
)


def _run_query_modes(spark, name):
    wl = all_queries()[name]
    tables = harness.tables_for(spark, wl.benchmark, **BENCH_SCALE[wl.benchmark])
    out = {}
    for mode in harness.MODES:
        r = harness.time_mode(wl, tables, mode)
        out[mode] = r["seconds"]
        out.setdefault("opt_time", {})[mode] = r["opt_time"]
    return out


# ---------------------------------------------------------------- Table 2
def table2(spark: SparkSession, queries=None) -> dict:
    """JOB running-time statistics per mode (paper Table 2)."""
    queries = list(queries or _JOB_POOL)
    per_query = {}
    for name in queries:
        per_query[name] = _run_query_modes(spark, name)
    rows = []
    for mode in harness.MODES:
        xs = [per_query[q][mode] for q in queries]
        rows.append(
            {
                "mode": mode,
                "max": max(xs),
                "mean": statistics.mean(xs),
                "median": statistics.median(xs),
                "std": statistics.pstdev(xs),
            }
        )
    return {"rows": rows, "per_query": per_query, "queries": queries}


# ---------------------------------------------------------------- Table 3
TABLE3_VARIANTS = {
    "base": None,  # native plan
    "primitive": Rules(pk_fk=False, annot=False),
    "pkfk": Rules(pk_fk=True, annot=False),
    "annot": Rules(pk_fk=False, annot=True),
    "both": Rules(pk_fk=True, annot=True),
}


def table3(spark: SparkSession, queries=("job-1a", "job-4a")):
    """Rule-based optimization ablation (paper Table 3)."""
    rows = []
    for name in queries:
        wl = all_queries()[name]
        tables = harness.tables_for(spark, wl.benchmark, **BENCH_SCALE[wl.benchmark])
        row = {"query": name}
        for variant, rules in TABLE3_VARIANTS.items():
            if rules is None:
                row[variant] = harness.time_mode(wl, tables, "native")["seconds"]
            else:
                row[variant] = harness.time_mode(
                    wl, tables, "yannakakis+", rules=rules
                )["seconds"]
        rows.append(row)
    return rows


# ---------------------------------------------------------------- Table 4
def table4(spark: SparkSession, queries=TABLE4_QUERIES):
    """Runtime under the three cardinality-estimation scenarios (Table 4)."""
    rows = []
    for name in queries:
        wl = all_queries()[name]
        tables = harness.tables_for(spark, wl.benchmark, **BENCH_SCALE[wl.benchmark])
        row = {"query": name}
        row["native"] = harness.time_mode(wl, tables, "native")["seconds"]
        for label, mode in (("accurate", ACCURATE), ("estimated", ESTIMATED),
                            ("worst", WORST_CASE)):
            row[label] = harness.time_mode(
                wl, tables, "yannakakis+", ce_mode=mode
            )["seconds"]
        rows.append(row)
    return rows


# ---------------------------------------------------------------- Table 5
def spark_plan_time(df) -> float:
    """Time Spark's own planning of a DataFrame (analysis → physical plan),
    the analogue of the paper's "DuckDB Opt-Time" column."""
    t0 = time.perf_counter()
    df._jdf.queryExecution().executedPlan()
    return time.perf_counter() - t0


def table5(spark: SparkSession, queries=TABLE5_QUERIES):
    """Optimization time vs query size (paper Table 5). ``opt_time`` is the
    timed run's planner time; ``time_mode``'s warm-up has filled the
    statistics, as the paper's system reads them from the DBMS catalog."""
    rows = []
    for name in queries:
        wl = all_queries()[name]
        tables = harness.tables_for(spark, wl.benchmark, **BENCH_SCALE[wl.benchmark])
        native = harness.time_mode(wl, tables, "native")
        yplus = harness.time_mode(wl, tables, "yannakakis+")
        rows.append(
            {
                "query": name,
                "native_s": native["seconds"],
                "yplus_s": yplus["seconds"],
                "n_tables": len(wl.cq.relations),
                "n_attrs": len(wl.cq.attrs),
                "opt_time": yplus["opt_time"],
                "spark_plan_time": spark_plan_time(harness.native_df(wl.cq, tables)),
            }
        )
    return rows


# ---------------------------------------------------------------- Table 6
def table6():
    """SGPB query characteristics, with free-connex recomputed by our own
    detector (paper Table 6). Dumbbell (cyclic) rows are classified on the
    GHD-decomposed query, as the paper evaluates them."""
    from .core.ghd import decompose
    from .core.hypergraph import is_acyclic

    rows = []
    qs = all_queries()
    for name in sorted(n for n in qs if n.startswith("sgpb-")):
        wl = qs[name]
        cq = wl.cq
        via = ""
        if not is_acyclic(cq):
            cq, _ = decompose(cq, bags=[list(b) for b in wl.bags] if wl.bags else None)
            via = " (GHD)"
        cls = classify(cq)
        rows.append(
            {
                "query": name,
                "shape": wl.meta["shape"],
                "type": wl.meta["type"],
                "predicates": wl.meta["predicates"],
                "free_connex": cls in ("free-connex", "relation-dominated"),
                "class": cls + via,
            }
        )
    return rows


# ----------------------------------------------------- speedup summary
def speedup_summary(spark: SparkSession, queries=None):
    """§7.2.1 headline: per-query native/Yannakakis/Yannakakis+ runtimes and
    speedups, plus per-benchmark aggregates."""
    qs = all_queries()
    queries = list(queries or sorted(qs))
    rows = []
    for name in queries:
        res = _run_query_modes(spark, name)
        rows.append(
            {
                "query": name,
                "benchmark": qs[name].benchmark,
                "native": res["native"],
                "yannakakis": res["yannakakis"],
                "yannakakis+": res["yannakakis+"],
                "speedup_vs_native": res["native"] / max(res["yannakakis+"], 1e-9),
                "speedup_vs_yannakakis": res["yannakakis"] / max(res["yannakakis+"], 1e-9),
            }
        )
    return rows


def render(rows, columns=None, *, floatfmt="{:.3f}") -> str:
    """Plain-text table rendering for jobs and EXPERIMENTS.md."""
    if not rows:
        return "(no rows)"
    columns = columns or list(rows[0])
    def fmt(v):
        if isinstance(v, float):
            return floatfmt.format(v)
        return str(v)
    widths = [
        max(len(c), *(len(fmt(r.get(c, ""))) for r in rows)) for c in columns
    ]
    head = "  ".join(c.ljust(w) for c, w in zip(columns, widths))
    lines = [head, "-" * len(head)]
    for r in rows:
        lines.append(
            "  ".join(fmt(r.get(c, "")).ljust(w) for c, w in zip(columns, widths))
        )
    return "\n".join(lines)
