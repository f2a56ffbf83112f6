"""End-to-end Yannakakis+ benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload job --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload

One run is one process: it starts Spark, generates the workload's tables
from ``--seed`` and caches them (set-up), checks every (query, mode) result
against DuckDB once (correctness gate), collects cold optimizer statistics
(catalog, ``CATALOG_REPS`` times), then makes timed passes over the workload
for ``--seconds``, and last repeats the set-up in fresh SparkSessions, for
``SETUP_REPS`` in all. A pass times every query from CQ to finished result
(noop sink) in ``native`` and ``yannakakis+`` mode. The Yannakakis+ time
includes ``harness.prepare`` (GHD bags materialised and counted); bags are
released after each query, outside the timed region.

``--trace 1`` interleaves untraced and traced passes and reports the
per-layer breakdown of the traced passes (see ``trace.py``), with the
traced-minus-untraced Yannakakis+ time as the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the run's full
record (environment, per-pass samples, spans) is written under
``.bench_build/perfbench/``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
MODES = ("native", "yplus")
CORES = min(4, len(os.sched_getaffinity(0)))
DRIVER_MEMORY = "2g"
SPARK_CONF = {
    "spark.sql.shuffle.partitions": "16",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.ui.enabled": "false",
    "spark.ui.showConsoleProgress": "false",
    "spark.driver.host": "127.0.0.1",
}
SETUP_REPS = 3
CATALOG_REPS = 3
#: timed passes a run makes at least; the correctness gate before them
#: doubles as the JVM's warm-up
MIN_PASSES = 3


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def _aggregates(plan) -> int:
    from repro.core.plan import Finalize, Project

    return sum(
        1 for s in plan.steps
        if (isinstance(s, Project) and s.dedup)
        or (isinstance(s, Finalize) and s.dedup and s.mode != "full")
    )


# ------------------------------------------------------------- environment
def _launch_env() -> None:
    """Point every temporary file at the checkout and fix the JVM's launch
    arguments; must run before the first SparkSession."""
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    os.environ["SPARK_LOCAL_DIRS"] = tmp
    # every JVM of the launch, spark-submit's launcher too: no perf-data
    # file in the system temporary directory
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{CORES}] --driver-memory {DRIVER_MEMORY} "
        f"--conf spark.local.dir={tmp} pyspark-shell"
    )


def _session():
    from pyspark.sql import SparkSession

    b = SparkSession.builder.appName("perfbench")
    for k, v in SPARK_CONF.items():
        b = b.config(k, v)
    s = b.getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    return s


def _shutdown(spark) -> None:
    """Stop Spark and wait for the JVM process to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
        gateway.proc.stdin.close()  # the JVM exits on EOF
        gateway.proc.wait(timeout=60)


def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    """sha256 over the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "repro")
    for dirpath, dirnames, files in sorted(os.walk(src)):
        dirnames.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                p = os.path.join(dirpath, f)
                h.update(os.path.relpath(p, src).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment(args, spec) -> dict:
    import duckdb
    import pyspark

    from workloads import params

    return {
        "workload": spec.name,
        "queries": list(spec.queries),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": params(spec, args.scale),
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "spark_master": f"local[{CORES}]",
        "spark_conf": SPARK_CONF,
        "driver_memory": DRIVER_MEMORY,
        "spark_submit_args": os.environ["PYSPARK_SUBMIT_ARGS"],
        "java_tool_options": os.environ["JAVA_TOOL_OPTIONS"],
        "pyspark": pyspark.__version__,
        "duckdb": duckdb.__version__,
        "python": sys.version.split()[0],
    }


# -------------------------------------------------------------------- run
class Bench:
    def __init__(self, args, spec):
        from repro.workloads import all_queries
        from trace import Tracer

        self.args = args
        self.spec = spec
        self.queries = [all_queries()[q] for q in spec.queries]
        self.tracer = Tracer()
        self.spark = None
        self.tables = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[dict] = []
        self.cached_mb = 0.0

    # set-up ---------------------------------------------------------------
    def set_up(self) -> dict:
        """SparkSession start to cached, counted tables, in a fresh session
        (the first call also launches the JVM)."""
        from workloads import generate

        if self.spark is not None:
            self.spark.stop()
        t0 = time.perf_counter()
        self.spark = _session()
        t1 = time.perf_counter()
        self.tables = generate(self.spark, self.spec, self.args.scale, self.args.seed)
        t2 = time.perf_counter()
        rows = sum(df.cache().count() for df in self.tables.values())
        t3 = time.perf_counter()
        return dict(session_s=t1 - t0, datagen_s=t2 - t1, cache_s=t3 - t2,
                    setup_s=t3 - t0, rows=rows)

    def catalog(self) -> list[float]:
        """Cold estimated statistics for every relation occurrence, collected
        ``CATALOG_REPS`` times from an emptied statistics cache."""
        from repro.optimizer import stats

        reps = []
        for _ in range(CATALOG_REPS):
            stats.clear_cache()
            t0 = time.perf_counter()
            for wl in self.queries:
                for rel in wl.cq.relations:
                    stats.rel_stats(self.tables, rel, exact=False)
            reps.append(time.perf_counter() - t0)
        return reps

    # evaluation -----------------------------------------------------------
    def build(self, wl, mode):
        """The lazy result DataFrame of one (query, mode), the optimizer's
        choice (Yannakakis+ only) and the tables including bags."""
        from repro import harness

        if mode == "native":
            df, _ = harness.build(wl, self.tables, "native")
            return df, None, self.tables
        with self.tracer.span("ghd"):
            prep = harness.prepare(wl, self.tables)
        df, choice = harness.build(wl, self.tables, "yannakakis+", prepared=prep)
        return df, choice, prep.tables

    def release(self, tables) -> None:
        """Unpersist the GHD bags ``harness.prepare`` cached for one query."""
        for name, df in tables.items():
            if name not in self.tables:
                df.unpersist(blocking=True)

    def storage_mb(self) -> float:
        infos = self.spark.sparkContext._jsc.sc().getRDDStorageInfo()
        return sum(i.memSize() for i in infos) / 2**20

    def gate(self) -> list[dict]:
        """Check every (query, mode) result against DuckDB, once."""
        from gate import Oracle, mismatch, spark_fingerprint

        oracle = Oracle(self.tables, CORES, os.path.join(WORK, "tmp"))
        out = []
        try:
            for wl in self.queries:
                want = oracle.fingerprint(wl.cq.to_sql())
                for mode in MODES:
                    self.attempted += 1
                    t0 = time.perf_counter()
                    try:
                        df, _, tables = self.build(wl, mode)
                        got = spark_fingerprint(df, want[0])
                        self.release(tables)
                        err = mismatch(got, want)
                    except Exception as e:  # counted as a failed evaluation
                        err = f"{type(e).__name__}: {e}"
                    out.append(dict(query=wl.name, mode=mode, error=err,
                                    seconds=time.perf_counter() - t0))
                    if err:
                        self.failed += 1
                        self.errors.append(out[-1])
        finally:
            oracle.close()
        return out

    def timed(self, wl, mode, metrics, npass: int) -> float | None:
        """One end-to-end evaluation; returns seconds, or None if it raised."""
        from repro import tables as repro_tables

        tracer = self.tracer
        sc = self.spark.sparkContext
        group = f"{wl.name}|{mode}|{npass}"
        tracer.query, tracer.mode = wl.name, mode
        if tracer.enabled:
            tracer.group = group + "|pre"
            sc.setJobGroup(tracer.group, "")
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            with tracer.span(mode) as root:
                df, choice, tables = self.build(wl, mode)
                if tracer.enabled:
                    with tracer.span("catalyst"):
                        repro_tables.spark_plan_time(df)
                    sc.setJobGroup(group + "|exec", "")
                with tracer.span("exec"):
                    df.write.format("noop").mode("overwrite").save()
            seconds = time.perf_counter() - t0
        except Exception as e:  # counted as a failed evaluation
            self.failed += 1
            self.errors.append(dict(query=wl.name, mode=mode, pass_=npass,
                                    error=f"{type(e).__name__}: {e}"))
            return None
        self.cached_mb = max(self.cached_mb, self.storage_mb())
        if tracer.enabled:
            from trace import exchanges

            root.counts["pass"] = npass
            root.counts["exchanges"] = exchanges(df)
            root.counts.update(metrics.read(group + "|exec"))
            bags = [t for n, t in tables.items() if n not in self.tables]
            root.counts["bags"] = len(bags)
            root.counts["bag_rows"] = sum(t.count() for t in bags)
            if choice is not None:
                plan = choice.plan
                root.counts.update(
                    steps=len(plan.steps), joins=plan.n_joins(),
                    semijoins=plan.n_semijoins(), aggregates=_aggregates(plan),
                )
            sc.setJobGroup("", "")
        self.release(tables)
        return seconds

    def one_pass(self, metrics, npass: int, traced: bool) -> dict:
        per_query = {m: {} for m in MODES}
        with (self.tracer.on() if traced else contextlib.nullcontext()):
            for i, wl in enumerate(self.queries):
                order = MODES if (i + npass) % 2 == 0 else MODES[::-1]
                for mode in order:
                    per_query[mode][wl.name] = self.timed(wl, mode, metrics, npass)
        return dict(traced=traced, per_query=per_query)

    def passes(self, metrics) -> list[dict]:
        """Timed passes until ``--seconds`` have gone by and at least
        ``MIN_PASSES`` were made. With ``--trace 1`` one more is made, and
        untraced and traced passes go in ABBA order, so that the JVM still
        warming up favours neither kind."""
        out = []
        deadline = time.perf_counter() + self.args.seconds
        while len(out) < MIN_PASSES + self.args.trace or time.perf_counter() < deadline:
            npass = len(out)
            out.append(self.one_pass(metrics, npass,
                                     traced=bool(self.args.trace and npass % 4 in (1, 2))))
        return out


def install_tracing(tracer, metrics) -> None:
    """Wrap the public functions of each layer where their callers look
    them up."""
    from repro import harness
    from repro.optimizer import cardinality
    from repro.optimizer import enumerate as enum

    tracer.wrap(harness, "choose_plan", "opt",
                count=lambda sp, a, kw, out: sp.counts.update(candidates=out.n_candidates))
    tracer.wrap(enum, "candidate_trees", "enumerate")
    tracer.wrap(enum, "plan_yannakakis_plus", "emit")
    tracer.wrap(enum, "prune_semijoins", "prune",
                count=lambda sp, a, kw, out: sp.counts.update(
                    emitted=a[0].n_semijoins(), kept=out.n_semijoins()))
    tracer.wrap(enum, "cost_plan", "cost")
    tracer.wrap(cardinality, "rel_stats", "stats",
                probe=("jobs", lambda: len(metrics.jobs(tracer.group))))
    tracer.wrap(harness, "execute", "lower")
    tracer.wrap(harness, "native_df", "lower")


# ---------------------------------------------------------------- metrics
def pass_totals(passes: list[dict], traced: bool) -> dict[str, list[float]]:
    """Mode -> summed per-query seconds of each complete pass."""
    out = {m: [] for m in MODES}
    for p in passes:
        if p["traced"] != traced:
            continue
        for m in MODES:
            xs = list(p["per_query"][m].values())
            if None not in xs:
                out[m].append(sum(xs))
    return out


def end_to_end(passes, setup, catalog_s, cached_mb) -> dict:
    totals = pass_totals(passes, traced=False)
    if not all(totals.values()):
        raise RuntimeError("every pass had a failed evaluation")
    return {
        "yplus_s": (statistics.median(totals["yplus"]), "s"),
        "native_s": (statistics.median(totals["native"]), "s"),
        "catalog_s": (catalog_s, "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in setup), "s"),
        "cached_mb": (cached_mb, "MB"),
    }


def per_layer(tracer, passes, setup) -> dict:
    """Per-layer metrics: each is summed over the queries of one traced pass
    and the median over traced passes is reported; ratios pool all traced
    passes. ``*.s`` metrics are self times, except ``opt.s``, which covers
    all of ``choose_plan``."""
    from trace import self_times, subtree

    spans = tracer.spans
    self_s = self_times(spans)
    # one bucket per traced pass, of the evaluations that completed
    by_pass: dict[int, list] = {}
    for sp in spans:
        if sp.parent is None and "pass" in sp.counts:
            by_pass.setdefault(sp.counts["pass"], []).append(sp)

    samples: dict[str, list[float]] = {}
    pooled = dict(stats_calls=0, stats_hits=0, emitted=0, kept=0)

    def add(name, value):
        samples.setdefault(name, []).append(value)

    for _, rs in sorted(by_pass.items()):
        acc: dict[str, float] = {}

        def put(name, v):
            acc[name] = acc.get(name, 0.0) + v

        for root in rs:
            m = root.mode
            put(f"trace.{m}_s", root.seconds)
            put(f"{m}.unattributed_s", self_s[root.id])
            for sp in subtree(spans, root)[1:]:
                layer = sp.name
                if layer in ("lower", "catalyst", "exec"):
                    put(f"{m}.{layer}.s", self_s[sp.id])
                elif layer == "opt":
                    put("opt.s", sp.seconds)
                    put("opt.candidates", sp.counts["candidates"])
                else:
                    put(f"{layer}.s", self_s[sp.id])
                if layer == "stats":
                    put("stats.calls", 1)
                    put("stats.jobs", sp.counts["jobs"])
                    pooled["stats_calls"] += 1
                    pooled["stats_hits"] += sp.counts["jobs"] == 0
                elif layer == "prune":
                    pooled["emitted"] += sp.counts["emitted"]
                    pooled["kept"] += sp.counts["kept"]
            c = root.counts
            put(f"{m}.catalyst.exchanges", c["exchanges"])
            put(f"{m}.exec.stages", c.get("stages", 0))
            put(f"{m}.exec.tasks", c.get("tasks", 0))
            put(f"{m}.exec.busy_s", c.get("busy_s", 0.0))
            put(f"{m}.exec.shuffle_mb", c.get("shuffle_mb", 0.0))
            if m == "yplus":
                put("ghd.bags", c["bags"])
                put("ghd.bag_rows", c["bag_rows"])
                for k in ("steps", "joins", "semijoins", "aggregates"):
                    put(f"plan.{k}", c[k])
        for m in MODES:
            wall = acc.get(f"{m}.exec.s", 0.0)
            acc[f"{m}.exec.slot_util"] = (
                acc.get(f"{m}.exec.busy_s", 0.0) / (wall * CORES) if wall else 0.0
            )
        for name, v in acc.items():
            add(name, v)

    med = {name: statistics.median(xs) for name, xs in samples.items()}
    untraced = pass_totals(passes, traced=False)["yplus"]
    out = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name == "datagen.s":
            v = statistics.median(r["datagen_s"] for r in setup)
        elif name == "datagen.rows":
            v = setup[-1]["rows"]
        elif name == "tables.cache_s":
            v = statistics.median(r["cache_s"] for r in setup)
        elif name == "stats.hit_ratio":
            v = pooled["stats_hits"] / max(1, pooled["stats_calls"])
        elif name == "prune.keep_ratio":
            v = pooled["kept"] / pooled["emitted"] if pooled["emitted"] else 1.0
        elif name == "trace.overhead_s":
            v = med["trace.yplus_s"] - statistics.median(untraced)
        else:
            v = med.get(name, 0.0)
        out[name] = (v, unit)
    return out


def _per_layer_units() -> dict[str, str]:
    units = {
        "datagen.s": "s", "datagen.rows": "count", "tables.cache_s": "s",
        "stats.s": "s", "stats.calls": "count", "stats.jobs": "count",
        "stats.hit_ratio": "ratio",
        "ghd.s": "s", "ghd.bags": "count", "ghd.bag_rows": "count",
        "opt.s": "s", "opt.candidates": "count", "enumerate.s": "s",
        "emit.s": "s", "prune.s": "s", "cost.s": "s",
        "prune.keep_ratio": "ratio", "plan.steps": "count",
        "plan.joins": "count", "plan.semijoins": "count",
        "plan.aggregates": "count",
    }
    for m in MODES:
        units.update({
            f"{m}.lower.s": "s", f"{m}.catalyst.s": "s",
            f"{m}.catalyst.exchanges": "count", f"{m}.exec.s": "s",
            f"{m}.exec.stages": "count", f"{m}.exec.tasks": "count",
            f"{m}.exec.slot_util": "ratio", f"{m}.exec.busy_s": "s",
            f"{m}.exec.shuffle_mb": "MB", f"{m}.unattributed_s": "s",
            f"trace.{m}_s": "s",
        })
    units.update({"trace.s": "s", "trace.overhead_s": "s"})
    return units


PER_LAYER_UNITS = _per_layer_units()


# ------------------------------------------------------------------ report
def _print_report(bench, passes, e2e, record) -> None:
    spec = bench.spec
    print(f"workload {spec.name}: {len(spec.queries)} queries, seed {bench.args.seed}, "
          f"{len(passes)} passes ({sum(p['traced'] for p in passes)} traced)")
    untraced = [p for p in passes if not p["traced"]]
    print(f"{'query':<10} {'native_s':>9} {'yplus_s':>9} {'speedup':>8}")
    for q in spec.queries:
        med = {}
        for m in MODES:
            xs = [p["per_query"][m][q] for p in untraced if p["per_query"][m][q] is not None]
            med[m] = statistics.median(xs) if xs else float("nan")
        print(f"{q:<10} {med['native']:>9.3f} {med['yplus']:>9.3f} "
              f"{med['native'] / med['yplus']:>8.2f}")
    totals = pass_totals(passes, traced=False)
    for m in MODES:
        xs = totals[m]
        q1, q2, q3 = _quartiles(xs)
        print(f"{m}_s: median {q2:.3f} s, quartiles {q1:.3f}..{q3:.3f} s, n={len(xs)}")
    print(f"speedup native_s / yplus_s: {e2e['native_s'][0] / e2e['yplus_s'][0]:.2f}")
    print(f"failed_frac: {bench.failed}/{bench.attempted} = "
          f"{bench.failed / bench.attempted:.4f} ratio")
    for e in bench.errors:
        print(f"FAILED {e}")
    print("phases: " + ", ".join(f"{k} {v:.1f} s" for k, v in record["phase_s"].items()))
    print("env: " + json.dumps(record["env"], sort_keys=True))


def bench_main(args) -> int:
    from trace import StageMetrics
    from workloads import WORKLOADS

    spec = WORKLOADS[args.workload]
    record = {"env": environment(args, spec)}
    bench = Bench(args, spec)
    try:
        phases = record["phase_s"] = {}
        t = time.perf_counter()
        setup = record["setup"] = [bench.set_up()]
        phases["setup"] = time.perf_counter() - t
        t = time.perf_counter()
        record["gate"] = bench.gate()
        phases["gate"] = time.perf_counter() - t
        record["catalog"] = catalog = bench.catalog()
        catalog_s = statistics.median(catalog)
        phases["catalog"] = sum(catalog)
        metrics = StageMetrics(bench.spark)
        if args.trace:
            install_tracing(bench.tracer, metrics)
        t = time.perf_counter()
        record["passes"] = passes = bench.passes(metrics)
        phases["passes"] = time.perf_counter() - t
        # the other set-up repetitions, in the warm JVM
        t = time.perf_counter()
        setup += [bench.set_up() for _ in range(SETUP_REPS - 1)]
        phases["setup"] += time.perf_counter() - t
    finally:
        if bench.spark is not None:
            _shutdown(bench.spark)
    e2e = end_to_end(passes, setup, catalog_s, bench.cached_mb)
    metrics_out = per_layer(bench.tracer, passes, setup) if args.trace else e2e
    record["metrics"] = {k: v for k, (v, _) in metrics_out.items()}
    record["spans"] = [vars(sp) for sp in bench.tracer.spans]
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"{spec.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)
    _print_report(bench, passes, e2e, record)
    ok = bench.failed == 0
    print(json.dumps({
        "correct": ok,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics_out.items()},
    }))
    return 0 if ok else 1


def all_main(args) -> int:
    """Run every workload, each in its own process, and print each
    end-to-end (or, traced, per-layer) metric by name with its unit."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})\n{proc.stderr[-2000:]}")
            status = 1
            continue
        frac = result["failed"] / result["attempted"]
        print(f"== {name}: correct={result['correct']} failed_frac={frac:.4f} ratio")
        for k, m in result["metrics"].items():
            print(f"  {k:<28} {m['value']:>12.4f} {m['unit']}")
        if proc.returncode != 0 or not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("bench", "tiny"), default="bench",
                    help="table sizes; tiny is for the self-check")
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return all_main(args)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    _launch_env()
    return bench_main(args)


if __name__ == "__main__":
    sys.exit(main())
