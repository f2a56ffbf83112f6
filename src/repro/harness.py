"""Measurement harness: build/run a workload query under one of the three
evaluation modes and time it.

Modes (the three bars of the paper's Figure 9 / Table 2):

* ``native``       — the engine's own plan for the single SQL statement;
* ``yannakakis``   — the classic Yannakakis algorithm (§2.3);
* ``yannakakis+``  — this paper's algorithm with its optimizer (§3, §5).

Cyclic queries are handled as the paper's system does: first the PK-FK
cycle-elimination rewrite (§5.1), else a GHD decomposition with natively
materialised bags (§4.1); the native baseline always runs the original
query.

``time_mode`` is the one timing path of the paper tables: it times a
(query, mode) end to end, GHD bags and planning included. Statistics are
the exception — the paper's system reads them from the DBMS catalog — so an
untimed warm-up memoises them first.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from pyspark.sql import DataFrame, SparkSession

from .core._emit import Rules
from .core.executor import execute, native_df
from .core.ghd import decompose, materialize_bags
from .core.hypergraph import is_acyclic
from .optimizer.cardinality import ESTIMATED
from .optimizer.enumerate import Choice, choose_plan
from .optimizer.rules import eliminate_cycles
from .workloads import Workload

MODES = ("native", "yannakakis", "yannakakis+")

_TABLES: dict[tuple, dict[str, DataFrame]] = {}


def tables_for(spark: SparkSession, benchmark: str, **params) -> dict[str, DataFrame]:
    """Load (and cache + materialise) the tables of one benchmark."""
    key = (benchmark, tuple(sorted(params.items())))
    if key not in _TABLES:
        from .workloads import job, lsqb, sgpb, tpch

        loader = {"sgpb": sgpb, "tpch": tpch, "job": job, "lsqb": lsqb}[benchmark]
        t = loader.load_tables(spark, **params)
        for df in t.values():
            df.cache().count()
        _TABLES[key] = t
    return _TABLES[key]


@dataclass
class Prepared:
    """A workload made acyclic: the CQ the Yannakakis planners run on, the
    table dict including materialised GHD bags, and how the cycle was broken
    (``none`` / ``cycle-elim`` / ``ghd``)."""

    cq: object
    tables: dict[str, DataFrame]
    via: str


def prepare(wl: Workload, tables: dict[str, DataFrame]) -> Prepared:
    cq = wl.cq
    if is_acyclic(cq):
        return Prepared(cq, tables, "none")
    rewritten = eliminate_cycles(cq)
    if rewritten is not None:
        return Prepared(rewritten, tables, "cycle-elim")
    bags = [list(b) for b in wl.bags] if wl.bags else None
    acyclic_cq, bag_defs = decompose(cq, bags=bags)
    t2 = materialize_bags(bag_defs, tables)
    for src in bag_defs:
        t2[src].count()
    return Prepared(acyclic_cq, t2, "ghd")


def build(
    wl: Workload,
    tables: dict[str, DataFrame],
    mode: str,
    *,
    rules: Rules = Rules(),
    ce_mode: str = ESTIMATED,
    prepared: Prepared | None = None,
) -> tuple[DataFrame, Choice | None]:
    """Build the (lazy) result DataFrame for one mode; returns the optimizer
    Choice for the rewritten modes (None for native). The classic baseline
    runs on the same optimizer-chosen tree (``plan_yannakakis`` ignores
    ``rules``)."""
    if mode == "native":
        return native_df(wl.cq, tables), None
    prep = prepared or prepare(wl, tables)
    choice = choose_plan(
        prep.cq, prep.tables, mode=ce_mode, algorithm=mode, rules=rules
    )
    return execute(choice.plan, prep.tables), choice


def _release(prep: Prepared, tables: dict[str, DataFrame]) -> None:
    """Unpersist the GHD bags ``prepare`` added to ``tables``."""
    for name, df in prep.tables.items():
        if name not in tables:
            df.unpersist(blocking=True)


def time_mode(
    wl: Workload,
    tables: dict[str, DataFrame],
    mode: str,
    *,
    rules: Rules = Rules(),
    ce_mode: str = ESTIMATED,
) -> dict:
    """Time one (query, mode) end to end, plus the optimizer's own time.

    Warm-up (untimed, Yannakakis modes only): ``prepare`` and ``choose_plan``
    once, so the statistics (catalog work) are memoised; its bags are
    released. Timed: one run from CQ to noop-sink result (no driver
    collection) — ``prepare``, ``build``, then the write. Clean-up
    (untimed): release the bags."""
    if mode != "native":
        prep = prepare(wl, tables)
        try:
            choose_plan(prep.cq, prep.tables, mode=ce_mode, algorithm=mode,
                        rules=rules)
        finally:
            _release(prep, tables)
    t0 = time.perf_counter()
    prep = prepare(wl, tables) if mode != "native" else None
    try:
        df, choice = build(wl, tables, mode, rules=rules, ce_mode=ce_mode,
                           prepared=prep)
        df.write.format("noop").mode("overwrite").save()
        seconds = time.perf_counter() - t0
    finally:
        if prep is not None:
            _release(prep, tables)
    return {
        "query": wl.name,
        "mode": mode,
        "seconds": seconds,
        "opt_time": choice.opt_time if choice else 0.0,
        "tree_root": choice.tree.root if choice else None,
    }
