"""The benchmark's workloads: which queries each one runs, and the seeded
tables it runs them on.

Tables come straight from the ``repro.datagen`` generators with a seed
derived from the benchmark's ``--seed``; the program under test receives
only the generated Spark tables.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame, SparkSession


@dataclass(frozen=True)
class Spec:
    name: str
    queries: tuple[str, ...]
    #: benchmark -> loader parameters of a measured run
    scale: dict
    why: str


# Each run must fit, with set-up, the correctness gate, the catalog and its
# passes, in about a minute on 4 cores. Spark in local mode costs about 0.4 s
# per query and mode however small the data, so each workload runs the few
# queries that best cover its mechanisms, at a fraction of
# ``repro.tables.BENCH_SCALE``.
WORKLOADS = {
    "graph": Spec(
        "graph",
        ("sgpb-q8", "lsqb-q1", "sgpb-q2b", "lsqb-q4"),
        {"sgpb": dict(scale=0.1), "lsqb": dict(sf=0.1)},
        "skewed many-to-many graph joins, acyclic and cyclic; GHD bags are "
        "rebuilt and cached every pass, so emitter, pruning and bag changes show",
    ),
    "job": Spec(
        "job",
        ("job-1a", "job-11d", "job-27c"),
        {"job": dict(sf=0.1, dup=2)},
        "5-9-way PK-FK joins bound by per-query overhead; catalog, optimizer, "
        "lowering and plan-size changes show",
    ),
}

#: loader parameters of the self-check
TINY = {"sgpb": dict(scale=0.01), "job": dict(sf=0.02, dup=2), "lsqb": dict(sf=0.01)}


def params(spec: Spec, scale: str) -> dict:
    """Loader parameters of the benchmarks the workload uses."""
    used = set(sources(spec).values())
    table = spec.scale if scale == "bench" else TINY
    return {b: table[b] for b in sorted(used)}


#: fixed offsets that turn the run's seed into one seed per generator, so
#: the three SGPB graphs are not drawn from the same stream
_SEED_OFFSET = {"bitcoin_lite": 1, "epinions_lite": 2, "dblp_lite": 3,
                "job": 4, "lsqb": 5}


def _sub_seed(seed: int, name: str) -> int:
    return seed * 16 + _SEED_OFFSET[name]


def sources(spec: Spec) -> dict[str, str]:
    """Source table name -> benchmark, for every table the queries scan."""
    from repro.workloads import all_queries

    qs = all_queries()
    return {
        r.source: qs[q].benchmark for q in spec.queries for r in qs[q].cq.relations
    }


def generate(
    spark: SparkSession, spec: Spec, scale: str, seed: int
) -> dict[str, DataFrame]:
    """Generate (lazily, not cached) every table the workload's queries scan."""
    from repro.datagen import graph, imdb, lsqb

    p = params(spec, scale)
    need = sources(spec)
    out: dict[str, DataFrame] = {}
    if "job" in p:
        out.update(imdb.tables(spark, **p["job"], seed=_sub_seed(seed, "job")))
    if "lsqb" in p:
        out.update(lsqb.tables(spark, **p["lsqb"], seed=_sub_seed(seed, "lsqb")))
    for src, bench in need.items():
        if bench == "sgpb":
            out[src] = graph.dataset(
                spark, src, **p["sgpb"], seed=_sub_seed(seed, src)
            )
    return {src: out[src] for src in sorted(need)}
