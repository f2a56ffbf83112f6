"""Self-check of the benchmark at tiny scale. Run from the repository root:

    python3 perfbench/smoke.py

It checks that

1. the correctness gate passes correct results and flags corrupted ones
   (every Yannakakis+ result is corrupted by one duplicated row);
2. every workload runs untraced and traced, with correct results, and
   prints exactly the metrics ``BENCHMARK.json`` names;
3. on ``graph``, the traced ``ghd`` spans are non-empty and lie inside the
   Yannakakis+ query spans, and the layers' self times add up to the traced
   Yannakakis+ time;
4. a directory holding only ``BENCHMARK.json`` and the benchmark's files
   makes the benchmark exit non-zero without printing a result.

It exits non-zero on the first failed check. Its file name keeps plain
``pytest`` from collecting it.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)

import run  # noqa: E402


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        sys.exit(1)


def gate_catches_corruption() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    run._launch_env()
    from repro import harness
    from workloads import WORKLOADS

    args = run.argparse.Namespace(workload="graph", seed=1, seconds=1, trace=0, scale="tiny")
    bench = run.Bench(args, WORKLOADS["graph"])
    bench.set_up()
    try:
        bench.gate()
        check(bench.failed == 0, f"gate passes correct results ({bench.attempted} evaluations)")
        original = harness.execute

        def corrupted(plan, tables):
            df = original(plan, tables)
            return df.unionAll(df.limit(1))

        harness.execute = corrupted
        try:
            bench.failed = 0
            bench.errors = []
            bench.gate()
        finally:
            harness.execute = original
        flagged = {(e["query"], e["mode"]) for e in bench.errors}
        want = {(q, "yplus") for q in WORKLOADS["graph"].queries}
        check(flagged == want, f"gate flags every corrupted result ({len(flagged)}/{len(want)})")
    finally:
        run._shutdown(bench.spark)


def run_workload(name: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", name,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def workloads_run() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run_workload(w, trace)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            try:
                result = json.loads(last)
            except json.JSONDecodeError:
                result = None
            ok = proc.returncode == 0 and result is not None and result["correct"]
            check(ok, f"{w} trace={trace} runs and is correct"
                  + ("" if ok else "\n" + proc.stdout[-2000:] + proc.stderr[-3000:]))
            check(list(result["metrics"]) == names[trace],
                  f"{w} trace={trace} prints the BENCHMARK.json metrics")
    traced_graph()


def traced_graph() -> None:
    path = os.path.join(ROOT, ".bench_build", "perfbench", "graph-seed1-trace1.json")
    with open(path) as fh:
        record = json.load(fh)
    spans = {sp["id"]: sp for sp in record["spans"]}
    ghd = [sp for sp in spans.values() if sp["name"] == "ghd"]
    inside = all(
        spans[sp["parent"]]["name"] == "yplus"
        and spans[sp["parent"]]["start"] <= sp["start"] <= sp["end"] <= spans[sp["parent"]]["end"]
        for sp in ghd
    )
    m = record["metrics"]
    check(m["ghd.s"] > 0 and inside, "graph: ghd spans are non-empty and inside Y+ query spans")
    # ghd, opt, lower, catalyst and exec cover the traced Y+ time but for
    # the root spans' own remainder, which must stay within the overhead
    check(m["yplus.unattributed_s"] <= max(abs(m["trace.overhead_s"]), 0.01 * m["trace.yplus_s"]),
          f"graph: layer self times sum to the traced Y+ time (unattributed "
          f"{m['yplus.unattributed_s']:.4f} s, overhead {m['trace.overhead_s']:.4f} s)")


def bare_directory_fails() -> None:
    bare = os.path.join(ROOT, ".bench_build", "perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_workload("job", 0, cwd=bare)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    check(proc.returncode != 0 and '"correct"' not in last,
          f"bare directory: exit {proc.returncode}, no result printed")
    shutil.rmtree(bare)


if __name__ == "__main__":
    gate_catches_corruption()
    bare_directory_fails()
    workloads_run()
    print("smoke: all checks passed")
