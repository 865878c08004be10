#!/usr/bin/env python3
"""The repository benchmark's one command (stdlib only).

Builds bench_e2e from source into .bench_build/e2e, then either

  * runs one workload once and prints its JSON result as the last stdout
    line (when --workload is given):

      python3 bench/e2e/run.py --workload steady-n1000 --seed 42 \
          --seconds 12 --trace 0

  * or runs the whole suite: R untraced passes over every workload, each
    run a fresh process and each pass in a rotated workload order, then one
    traced pass. It stamps the machine, writes one results JSON with the
    median, quartiles and N per (metric, workload), prints every metric by
    name with unit and clock, and exits 1 if any run failed a guard:

      python3 bench/e2e/run.py [--runs 5] [--seconds 12] [--seed 42]
                               [--out PATH] [--smoke]

--seconds defaults to BENCHMARK.json's run_seconds.

Compare two results files with bench/e2e/compare.py.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build" / "e2e"
BINARY = BUILD / "bench_e2e"
RESULTS = ROOT / ".bench_build" / "e2e-results"

CLOCKS = {"ops_per_s": "wall", "setup_s": "wall", "peak_rss_mb": "wall",
          "sim_ms": "sim"}


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures (once) and builds bench_e2e; compiler output goes to
    stderr so stdout carries only results."""
    env = dict(os.environ, TMPDIR=str(ROOT / ".bench_build" / "tmp"))
    Path(env["TMPDIR"]).mkdir(parents=True, exist_ok=True)
    steps = []
    if not any((BUILD / f).exists() for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j",
                  str(os.cpu_count() or 1)])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("error: build failed: " + " ".join(cmd))


def run_once(workload, seed, seconds, trace, scale=1.0, spans=None):
    """Runs one bench_e2e process; returns (exit code, stdout, result).
    The process gets twice its measuring time plus a minute for set-up."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--scale", str(scale)]
    if spans:
        cmd += ["--spans", str(spans)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=2 * seconds + 60)
    except subprocess.TimeoutExpired:
        return 1, "", None
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, done.stdout, result


def check_metric_names(result, trace, bench):
    """The result must carry exactly the metrics BENCHMARK.json names."""
    want = {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = set(result["metrics"])
    if got != want:
        return ("metric set differs from BENCHMARK.json: missing %s, "
                "extra %s" % (sorted(want - got), sorted(got - want)))
    return None


def single(args, bench):
    code, out, result = run_once(args.workload, args.seed, args.seconds,
                                 args.trace)
    if result is None:
        sys.stderr.write(out)
        sys.exit("error: bench_e2e produced no result (exit %d)" % code)
    problem = check_metric_names(result, args.trace, bench)
    if problem:
        sys.stderr.write(out)
        sys.exit("error: " + problem)
    sys.stdout.write(out)
    sys.exit(code)


def stamp():
    cache = {}
    try:
        for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.split("=", 1)
                cache[key.split(":")[0]] = value
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=30).stdout.splitlines()
        compiler = version[0] if version else compiler
    except (OSError, subprocess.SubprocessError):
        pass
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": compiler,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
            "git_rev": rev,
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
                timespec="seconds")}


def summarize(values):
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def suite(args, bench):
    workloads = [w["name"] for w in bench["workloads"]]
    runs, seconds, scale = args.runs, args.seconds, 1.0
    if args.smoke:
        runs, seconds, scale = 1, 0.5, 0.05
    out_path = Path(args.out) if args.out else RESULTS / "results.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(parents=True, exist_ok=True)

    samples = {}  # (kind, metric, workload) -> (unit, [values])
    failures = []

    def record(kind, workload, code, out, result):
        if result is None or code != 0 or not result.get("correct", False):
            failures.append(workload)
            sys.stdout.write(out)
            return
        for name, m in result["metrics"].items():
            key = (kind, name, workload)
            samples.setdefault(key, (m["unit"], []))[1].append(m["value"])

    for p in range(runs):
        order = workloads[p % len(workloads):] + workloads[:p % len(workloads)]
        for w in order:
            code, out, result = run_once(w, args.seed, seconds, False, scale)
            print("pass %d/%d %-14s exit %d" % (p + 1, runs, w, code))
            record("end_to_end", w, code, out, result)
    for w in workloads:
        spans = RESULTS / ("spans-%s.jsonl" % w)
        code, out, result = run_once(w, args.seed, seconds, True, scale, spans)
        print("traced      %-14s exit %d" % (w, code))
        record("per_layer", w, code, out, result)

    rows = []
    for (kind, name, workload), (unit, values) in samples.items():
        row = {"kind": kind, "metric": name, "workload": workload,
               "unit": unit, "clock": CLOCKS.get(name, "traced"),
               "values": values}
        row.update(summarize(values))
        rows.append(row)
    results = {"stamp": stamp(),
               "config": {"runs": runs, "seconds": seconds, "seed": args.seed,
                          "scale": scale},
               "failed_workloads": sorted(set(failures)),
               "metrics": rows}
    out_path.write_text(json.dumps(results, indent=1) + "\n")

    print("\n%-38s %-14s %14s %14s %14s %3s %-8s %s" % (
        "metric", "workload", "median", "q1", "q3", "N", "unit", "clock"))
    for row in rows:
        print("%-38s %-14s %14.6g %14.6g %14.6g %3d %-8s %s" % (
            row["metric"], row["workload"], row["median"], row["q1"],
            row["q3"], row["n"], row["unit"], row["clock"]))
    print("\nwrote %s" % out_path)
    if failures:
        print("FAIL: runs failed on %s" % ", ".join(sorted(set(failures))))
        sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload once")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=5,
                        help="untraced passes in suite mode")
    parser.add_argument("--out", help="suite results JSON path")
    parser.add_argument("--smoke", action="store_true",
                        help="suite at ~5%% size: one short pass + traced pass")
    args = parser.parse_args()
    bench = load_benchmark()
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    build()
    if args.workload:
        single(args, bench)
    else:
        suite(args, bench)


if __name__ == "__main__":
    main()
