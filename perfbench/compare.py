#!/usr/bin/env python3
"""Compares the benchmark on two commits (choosing-metrics guide, section 8).

    python3 perfbench/compare.py run --parent DIR --change DIR \
        [--pairs 10] [--first-seed 1000] [--workloads monitor serve ingest] \
        [--out .bench_build/compare_runs.json]
    python3 perfbench/compare.py report runs.json

DIR is the root of a source checkout of each commit (each holds its own
BENCHMARK.json, perfbench/ and src/). "run" makes --pairs pairs of runs per
workload; pair i runs both commits on seed first-seed + i, and the side
that runs first alternates from pair to pair. It writes every result to
--out and then prints the report.

"report" prints, per workload and end-to-end metric, each side's median
and quartiles, the pairs the change won (ties count for neither side) and
a verdict:
  better      the change won at least 9/10 of the pairs and the medians
              differ by more than the parent's own quartile distance;
  worse       the change's median is worse than the parent's by more
              than the metric's bound;
  unresolved  the parent's spread (quartile distance over median) exceeds
              the bound, unless every change run beats, or loses to,
              every parent run; or the change would be "better" but fails
              a larger share of its operations (failed/attempted) than the
              parent;
  same        none of the above: no worse than the bound;
  invalid     some run of the workload, on either side, failed its output
              checks: the workload's numbers are not compared.
With fewer than ten pairs every verdict is "unresolved": the method asks
for at least ten.
"""

MIN_PAIRS = 10

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_one(root, spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s: %s failed (exit %d)" %
                           (root, " ".join(cmd), proc.returncode))
    return json.loads(lines[-1])


def cmd_run(args):
    parent_spec = load_spec(args.parent)
    change_spec = load_spec(args.change)
    if parent_spec != change_spec:
        print("warning: BENCHMARK.json differs between the two commits",
              file=sys.stderr)
    runs = {"spec": parent_spec, "runs": []}
    sides = [("parent", args.parent, parent_spec),
             ("change", args.change, change_spec)]
    for workload in args.workloads:
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = sides if i % 2 == 0 else sides[::-1]
            for side, root, spec in order:
                result = run_one(root, spec, workload, seed)
                runs["runs"].append({"workload": workload, "pair": i,
                                     "seed": seed, "side": side,
                                     "result": result})
                print("%s pair %d %s: correct=%s" %
                      (workload, i, side, result["correct"]),
                      file=sys.stderr, flush=True)
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(runs, f, indent=1)
    report(runs)
    return 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def verdict(parent, change, wins, pairs, bound, lower_is_better,
            fails_more):
    if pairs < MIN_PAIRS:
        return "unresolved"
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    sign = -1 if lower_is_better else 1
    gain = sign * (cm - pm) / pm if pm else 0.0
    if lower_is_better:
        all_better = max(change) < min(parent)
        all_worse = min(change) > max(parent)
    else:
        all_better = min(change) > max(parent)
        all_worse = max(change) < min(parent)
    spread = (p3 - p1) / pm if pm else 0.0
    if wins >= 0.9 * pairs and gain > 0 and abs(cm - pm) > (p3 - p1):
        return "unresolved" if fails_more else "better"
    if spread > bound and not (all_better or all_worse):
        return "unresolved"
    if gain < -bound:
        return "worse"
    return "same"


def report(runs):
    spec = runs["spec"]
    metrics = spec["end_to_end"]
    by_key = {}
    for run in runs["runs"]:
        key = (run["workload"], run["pair"])
        by_key.setdefault(key, {})[run["side"]] = run["result"]
    workloads = sorted({k[0] for k in by_key})
    print("%-8s %-20s %-26s %-26s %6s  %s" %
          ("workload", "metric", "parent q1/median/q3",
           "change q1/median/q3", "won", "verdict"))
    for workload in workloads:
        pairs = [v for k, v in sorted(by_key.items())
                 if k[0] == workload and "parent" in v and "change" in v]
        incorrect = sum(1 for p in pairs for s in p.values()
                        if not s["correct"])
        share = {}
        for side in ("parent", "change"):
            failed = sum(p[side]["failed"] for p in pairs)
            attempted = sum(p[side]["attempted"] for p in pairs)
            share[side] = failed / attempted if attempted else 0.0
            print("%-8s %-6s failed %d of %d operations" %
                  (workload, side, failed, attempted))
        fails_more = share["change"] > share["parent"]
        for m in metrics:
            name = m["name"]
            lower = m["better"] == "lower"
            try:
                parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
                change = [p["change"]["metrics"][name]["value"] for p in pairs]
            except KeyError:
                continue
            wins = sum(1 for a, b in zip(parent, change)
                       if (b < a if lower else b > a))
            p1, pm, p3 = quartiles(parent)
            c1, cm, c3 = quartiles(change)
            if incorrect:
                outcome = "invalid"
            else:
                outcome = verdict(parent, change, wins, len(pairs),
                                  m["bound"], lower, fails_more)
            print("%-8s %-20s %8.4g/%8.4g/%8.4g %8.4g/%8.4g/%8.4g %3d/%-3d %s" %
                  (workload, name, p1, pm, p3, c1, cm, c3, wins, len(pairs),
                   outcome))
        if incorrect:
            print("%-8s %d run(s) failed their output checks: invalid" %
                  (workload, incorrect))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--parent", required=True)
    run.add_argument("--change", required=True)
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=1000)
    run.add_argument("--workloads", nargs="+",
                     default=["monitor", "serve", "ingest"])
    run.add_argument("--out", default=os.path.join(".bench_build",
                                                   "compare_runs.json"))
    rep = sub.add_parser("report")
    rep.add_argument("file")
    args = parser.parse_args()
    if args.command == "run":
        return cmd_run(args)
    with open(args.file) as f:
        report(json.load(f))
    return 0


if __name__ == "__main__":
    sys.exit(main())
