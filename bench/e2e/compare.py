#!/usr/bin/env python3
"""Compares two bench/e2e/run.py results files (stdlib only).

    python3 bench/e2e/compare.py BASE.json NEW.json

For every end-to-end (metric, workload) pair it prints the base and new
medians, the ratio new/base with its base, and a verdict under the bound
BENCHMARK.json fixes for the metric:

  worse       the new median is worse than the base by more than the bound
  better      the new median is better than the base by more than the bound
  same        within the bound either way
  unresolved  the run-to-run spread (q3 - q1) / median of either side
              exceeds the bound, so the medians cannot be told apart —
              unless every new run reads better than every base run

Simulated-clock metrics are also marked "identical" when both sides agree
bit for bit. Exits 1 if any pair is worse.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_rows(path):
    with open(path) as f:
        data = json.load(f)
    return {(r["metric"], r["workload"]): r for r in data["metrics"]
            if r["kind"] == "end_to_end"}


def spread(row):
    return (row["q3"] - row["q1"]) / row["median"] if row["median"] else 0.0


def verdict(base, new, bound, higher_better):
    def worse_by(b, n):
        # Relative worsening of n against b; negative means n is better.
        return (b - n) / b if higher_better else (n - b) / b

    def all_better():
        if higher_better:
            return min(new["values"]) > max(base["values"])
        return max(new["values"]) < min(base["values"])

    if max(spread(base), spread(new)) > bound:
        return "better" if all_better() else "unresolved"
    change = worse_by(base["median"], new["median"])
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def main():
    if len(sys.argv) != 3:
        sys.exit("usage: compare.py BASE.json NEW.json")
    with open(ROOT / "BENCHMARK.json") as f:
        metrics = {m["name"]: m for m in json.load(f)["end_to_end"]}
    base_rows, new_rows = load_rows(sys.argv[1]), load_rows(sys.argv[2])
    worse = 0
    print("%-12s %-14s %14s %14s %20s %5s  %s" % (
        "metric", "workload", "base", "new", "new/base", "bound", "verdict"))
    for key in sorted(set(base_rows) | set(new_rows)):
        name, workload = key
        if name not in metrics:
            continue
        base, new = base_rows.get(key), new_rows.get(key)
        if base is None or new is None:
            print("%-12s %-14s missing on the %s side" % (
                name, workload, "base" if base is None else "new"))
            worse += 1
            continue
        m = metrics[name]
        v = verdict(base, new, m["bound"], m["better"] == "higher")
        if base["clock"] == "sim" and len(set(base["values"] +
                                                new["values"])) == 1:
            v += " (identical)"
        worse += v == "worse"
        ratio = (new["median"] / base["median"] if base["median"]
                 else float("nan"))
        print("%-12s %-14s %14.6g %14.6g %8.4fx of %-9.4g %5.2f  %s" % (
            name, workload, base["median"], new["median"], ratio,
            base["median"], m["bound"], v))
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
