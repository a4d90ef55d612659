"""Runs one RecycleDB benchmark workload and prints its metrics.

    python3 rdbbench/run.py --workload reuse_hot --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call builds the driver (a Release
build of the engine sources plus rdbbench/*.cc) under .bench_build/rdbbench,
or under $CARGO_TARGET_DIR/rdbbench when that is set. --trace 0 measures the
end-to-end metrics with tracing off; --trace 1 makes the traced run and
reports the per-layer metrics. Build output and progress go to stderr; stdout
ends with one JSON line {"correct", "attempted", "failed", "metrics"}. The
full report and the driver's stderr of each run, and the span dump of a
traced run, are kept under <build dir>/runs/. The exit code is non-zero
when the engine sources are missing, the build fails, or the run is not
correct: a statement fails unexpectedly, a sampled answer is missing or
differs from the recycler-free reference, or no answer was sampled.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the benchmark directory read-only
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics as catalogue  # noqa: E402
import summarise  # noqa: E402

DRIVER_TIMEOUT_S = 170


def fail(msg):
    print(f"rdbbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "rdbbench")


def build(out):
    """Configures once and builds the driver; a no-op when up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "server", "query_service.h")):
        fail(f"engine sources not found under {ROOT}/src")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(out, ignore_errors=True)
                fail("cmake configure failed")
        jobs = str(os.cpu_count() or 2)
        cmd = ["cmake", "--build", out, "--target", "rdbbench_driver", "-j", jobs]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed")
    return os.path.join(out, "rdbbench_driver")


def commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except OSError:
        pass
    return "unknown"


def run_driver(binary, args, spans_path, stderr_path):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--sf", str(args.sf)]
    if args.trace:
        cmd += ["--spans", spans_path]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    # Kept beside the report: an answer mismatch prints both answers here.
    sys.stderr.write(r.stderr)
    with open(stderr_path, "w") as f:
        f.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if not lines:
        fail(f"driver printed no result (exit code {r.returncode})")
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("driver result is not JSON")
    return report, r.returncode


def per_layer(report, spans_path, workload):
    """Merges counter metrics (from the driver) with span times (from the
    dump) into the per-layer table; metrics that do not apply are None."""
    by_name, problems = summarise.summarise(summarise.load(spans_path))
    measured = dict(report["metrics"])
    measured.update({k: v for k, v in summarise.layer_times(by_name).items()
                     if v is not None})
    table = {}
    for name, unit, _, _ in catalogue.PER_LAYER:
        value = measured.get(name)
        if not catalogue.applies(name, workload):
            value = None
        elif value is None:
            fail(f"per-layer metric {name} was not measured")
        table[name] = {"value": value, "unit": unit}
    return table, by_name, problems


def print_table(title, table):
    print(title)
    for name, m in table.items():
        shown = "absent" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:<32} {shown:>14} {m['unit']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=catalogue.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--sf", type=float, default=0.05,
                    help="TPC-H scale factor (the self-check uses a tiny one)")
    args = ap.parse_args()

    out = build_dir()
    binary = build(out)
    runs = os.path.join(out, "runs")
    os.makedirs(runs, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = os.path.join(runs, f"spans-{tag}.tsv")
    report, code = run_driver(binary, args, spans_path,
                              os.path.join(runs, f"stderr-{tag}.txt"))
    report["info"]["stamp"]["commit"] = commit()

    if args.trace:
        table, by_name, problems = per_layer(report, spans_path, args.workload)
        report["per_layer"] = table
        report["spans"] = {"path": spans_path, "by_name": by_name,
                           "problems": problems}
        result_metrics = {k: {"value": v["value"] or 0, "unit": v["unit"]}
                          for k, v in table.items()}
        print_table(f"per-layer metrics ({args.workload}, seed {args.seed}):",
                    table)
    else:
        result_metrics = {name: {"value": report["metrics"][name], "unit": unit}
                          for name, unit, _ in catalogue.END_TO_END}
        shown = dict(result_metrics)
        if args.workload == "mixed_rw":
            for name in ("write_p50_ms", "write_p95_ms"):
                shown[name] = {"value": report["metrics"][name], "unit": "ms"}
        shown["error_frac"] = {"value": report["metrics"]["error_frac"],
                               "unit": "fraction"}
        print_table(f"end-to-end metrics ({args.workload}, seed {args.seed}):",
                    shown)
    print("run info:", json.dumps(report["info"]))

    with open(os.path.join(runs, f"report-{tag}.json"), "w") as f:
        json.dump(report, f, indent=1)
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": result_metrics}))
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
