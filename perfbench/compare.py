#!/usr/bin/env python3
"""Compares two result sets of the benchmark, metric by metric.

    python3 perfbench/compare.py collect --workload W --seeds 1-10 --out F
        Runs perfbench/run.py once per seed in this checkout and appends one
        JSON line per run to F: {"workload", "seed", "trace", "result"}.

    python3 perfbench/compare.py diff PARENT CHANGE
        Prints a verdict per (workload, metric): improved, no change, worse
        or unresolved, and compares the failed-op share. Exits 1 when a
        verdict is worse or a run of CHANGE was not correct.

To alternate which side runs first, as the rule below asks, collect one
seed at a time in each checkout. Runs are paired by seed.

The rule (choosing-metrics, section 8):
  * improved: the change wins at least 9 of every 10 pairs (ties count for
    neither side) and the medians differ by more than the parent's IQR;
  * worse: the change's median is worse than the parent's by more than the
    metric's bound (a share of the parent's median); a metric without a
    bound is worse when it loses by the mirror of the improved rule;
  * unresolved: the parent's own spread (IQR / median) is wider than the
    bound, unless every change run reads better than every parent run;
  * otherwise no change.
A gain does not count when the change fails a larger share of its
operations than the parent: its improved verdicts become unresolved.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_spec(path=HERE.parent / "BENCHMARK.json"):
    """Metric name -> (better, bound or None) from BENCHMARK.json."""
    spec = json.loads(Path(path).read_text())
    metrics = {}
    for entry in spec["end_to_end"]:
        metrics[entry["name"]] = (entry["better"], entry["bound"])
    for entry in spec["per_layer"]:
        metrics[entry["name"]] = (entry["better"], None)
    return metrics


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent, change, better, bound):
    """Verdict for one metric; parent[i] and change[i] form a pair."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    base = statistics.median(parent)
    gain = sign * (statistics.median(change) - base)
    q1, q3 = quartiles(parent)
    iqr = q3 - q1
    if pairs and wins >= 0.9 * len(pairs) and gain > iqr:
        return "improved"
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and -gain > iqr:
            return "worse"
        return "no change"
    if -gain > bound * abs(base):
        return "worse"
    spread = iqr / abs(base) if base else float("inf")
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not all_better:
        return "unresolved"
    return "no change"


def failed_share(records):
    attempted = sum(r["result"]["attempted"] for r in records)
    failed = sum(r["result"]["failed"] for r in records)
    return failed / attempted if attempted else 0.0


def read_set(path):
    records = [json.loads(line) for line in Path(path).read_text().splitlines()
               if line.strip()]
    by_workload = {}
    for r in records:
        by_workload.setdefault(r["workload"], []).append(r)
    for runs in by_workload.values():
        runs.sort(key=lambda r: (r["trace"], r["seed"]))
    return by_workload


def diff(parent_path, change_path, spec):
    parent, change = read_set(parent_path), read_set(change_path)
    rows, bad = [], False
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        if any(not r["result"]["correct"] for r in c_runs):
            print(f"{workload}: a change run was not correct")
            bad = True
        p_fail, c_fail = failed_share(p_runs), failed_share(c_runs)
        more_failures = c_fail > p_fail
        workload_rows = []
        for name, (better, bound) in spec.items():
            p_vals = [r["result"]["metrics"][name]["value"] for r in p_runs
                      if name in r["result"]["metrics"]]
            c_vals = [r["result"]["metrics"][name]["value"] for r in c_runs
                      if name in r["result"]["metrics"]]
            if not p_vals or not c_vals:
                continue
            n = min(len(p_vals), len(c_vals))
            v = verdict(p_vals[:n], c_vals[:n], better, bound)
            if v == "improved" and more_failures:
                v = "unresolved"
            workload_rows.append((workload, name, statistics.median(p_vals),
                                  statistics.median(c_vals), n, v))
        workload_rows.append((workload, "failed_share", p_fail, c_fail,
                              len(c_runs),
                              "worse" if more_failures else
                              "improved" if c_fail < p_fail else "no change"))
        rows.extend(workload_rows)
    print(f"{'workload':16s} {'metric':32s} {'parent':>14s} {'change':>14s}"
          f" {'pairs':>5s}  verdict")
    for workload, name, p_med, c_med, n, v in rows:
        print(f"{workload:16s} {name:32s} {p_med:14.6g} {c_med:14.6g}"
              f" {n:5d}  {v}")
        bad |= v == "worse"
    return 1 if bad else 0


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(args):
    with open(args.out, "a") as out:
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 args.workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if not lines:
                print(f"seed {seed}: no result (exit {proc.returncode})",
                      file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            out.write(json.dumps({"workload": args.workload, "seed": seed,
                                  "trace": args.trace, "result": result})
                      + "\n")
            out.flush()
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="Compare two benchmark result sets.")
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect", help="run the benchmark over seeds")
    c.add_argument("--workload", required=True)
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--seconds", type=float,
                   default=json.loads((HERE.parent / "BENCHMARK.json")
                                      .read_text())["run_seconds"])
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    c.add_argument("--out", required=True)
    d = sub.add_parser("diff", help="verdicts for PARENT -> CHANGE")
    d.add_argument("parent")
    d.add_argument("change")
    args = parser.parse_args()
    if args.command == "collect":
        return collect(args)
    return diff(args.parent, args.change, load_spec())


if __name__ == "__main__":
    sys.exit(main())
