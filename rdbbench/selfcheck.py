"""Tiny-scale self-check of the benchmark itself (about a minute).

    python3 rdbbench/selfcheck.py

Runs every workload at TPC-H SF 0.005 for 2 s, timed and traced, through
run.py, and asserts that:
  - BENCHMARK.json and metrics.py name the same workloads and metrics;
  - every named metric is printed with its unit, and a per-layer metric that
    does not apply to the workload is marked absent in the report's table
    (and every one that applies is measured);
  - spans nest inside their parents and no self time is negative;
  - counters are consistent: pool hits <= monitored instructions, plan
    compiles <= plan lookups, plan hits <= plan lookups;
  - every run is correct, with no failed statement.
Exits non-zero on the first failed assertion.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the benchmark directory read-only
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics as catalogue  # noqa: E402
import run  # noqa: E402


def check(cond, msg):
    if not cond:
        print(f"selfcheck FAILED: {msg}", file=sys.stderr)
        sys.exit(1)


def check_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check([w["name"] for w in bench["workloads"]] == list(catalogue.WORKLOADS),
          "BENCHMARK.json workloads differ from metrics.py")
    check([(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]
          == list(catalogue.END_TO_END),
          "BENCHMARK.json end_to_end differs from metrics.py")
    check([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
          == [m[:3] for m in catalogue.PER_LAYER],
          "BENCHMARK.json per_layer differs from metrics.py")


def run_once(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "2", "--trace", str(trace),
           "--sf", "0.005"]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                       timeout=300)
    check(r.returncode == 0, f"{workload} trace={trace}: exit {r.returncode}")
    result = json.loads(r.stdout.strip().splitlines()[-1])
    tag = f"{workload}-seed7-trace{trace}"
    with open(os.path.join(run.build_dir(), "runs", f"report-{tag}.json")) as f:
        report = json.load(f)
    return result, report


def check_result(workload, trace, result, expected):
    where = f"{workload} trace={trace}"
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{where}: result keys {sorted(result)}")
    check(result["correct"] is True, f"{where}: not correct")
    check(result["failed"] == 0 and result["attempted"] >= 1,
          f"{where}: attempted {result['attempted']} failed {result['failed']}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == expected, f"{where}: metrics/units {got} != {expected}")
    for k, v in result["metrics"].items():
        check(isinstance(v["value"], (int, float)), f"{where}: {k} not a number")


def check_traced(workload, report):
    for name, m in report["per_layer"].items():
        applies = catalogue.applies(name, workload)
        check((m["value"] is None) == (not applies),
              f"{workload}: {name} is {m['value']} but applies={applies}")
    problems = report["spans"]["problems"]
    check(all(v == 0 for v in problems.values()),
          f"{workload}: span problems {problems}")
    check(report["spans"]["by_name"], f"{workload}: no spans recorded")
    c = report["metrics"]
    check(c["count.pool_hits"] <= c["count.pool_monitored"],
          f"{workload}: pool hits exceed monitored instructions")
    check(c["count.plan_compiles"] <= c["count.plan_lookups"],
          f"{workload}: plan compiles exceed lookups")
    check(c["count.plan_hits"] <= c["count.plan_lookups"],
          f"{workload}: plan hits exceed lookups")


def main():
    check_benchmark_json()
    e2e = {name: unit for name, unit, _ in catalogue.END_TO_END}
    layers = {m[0]: m[1] for m in catalogue.PER_LAYER}
    for workload in catalogue.WORKLOADS:
        result, _ = run_once(workload, 0)
        check_result(workload, 0, result, e2e)
        result, report = run_once(workload, 1)
        check_result(workload, 1, result, layers)
        check_traced(workload, report)
        print(f"selfcheck: {workload} ok", flush=True)
    print("selfcheck: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
