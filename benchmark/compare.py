#!/usr/bin/env python3
"""Compare two sets of benchmark results, workload by workload.

  compare.py PARENT CHANGE
      PARENT and CHANGE are result sets: JSON-lines files written by --run
      (one {"workload", "seed", "result"} object per run) or a baseline
      file such as benchmark/baseline/seed.json.

  compare.py --run PARENT_DIR CHANGE_DIR [--pairs 10] [--workload W|all]
             [--trace] [--quick] [--out DIR]
      Runs benchmark/run.sh in both checkouts, alternating which side runs
      first, pair i using seed i + 1 on both sides; writes
      parent.jsonl and change.jsonl to --out (default build-bench/compare)
      and compares them. --quick
      measures 2 s per workload (a smoke check, not evidence).

Verdict per workload and metric (the rule of the choosing-metrics guide,
section 8, with the bounds of BENCHMARK.json):
  better      the change wins at least 9/10 of the pairs (ties count for
              neither side) and the medians differ in its favour by more
              than the parent's interquartile range;
  worse       the change's median is worse than the parent's by more than
              the metric's bound (per-layer metrics, which have no bound:
              the mirror image of "better");
  unresolved  neither, and the parent's own spread (IQR / median) is wider
              than the bound, unless every change run beats every parent
              run;
  unchanged   otherwise.
Exit status 1 when any end-to-end metric is worse. Standard library only.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["steady", "hot", "burst", "churn"]


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = dict(m, kind="end_to_end")
    for m in spec["per_layer"]:
        metrics[m["name"]] = dict(m, kind="per_layer", bound=None)
    return metrics


def load_results(path):
    """{workload: [metrics dict per run, in run order]}"""
    runs = {}
    with open(path) as f:
        text = f.read()
    try:
        doc = json.loads(text)
    except ValueError:
        doc = None
    if isinstance(doc, dict) and "workloads" in doc:  # a baseline file
        for w, body in doc["workloads"].items():
            for mode in ("end_to_end", "per_layer"):
                per_metric = body.get(mode, {})
                n = max((len(m["values"]) for m in per_metric.values()), default=0)
                rows = runs.setdefault(w, [])
                while len(rows) < n:
                    rows.append({})
                for name, m in per_metric.items():
                    for i, v in enumerate(m["values"]):
                        rows[i][name] = v
        return runs
    for line in text.splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        res = rec.get("result") or {}
        if not res.get("correct") or res.get("failed", 1) != 0:
            print(f"warning: {rec['workload']} seed {rec.get('seed')}: run "
                  f"incorrect or failed; excluded", file=sys.stderr)
            continue
        runs.setdefault(rec["workload"], []).append(
            {k: v["value"] for k, v in res["metrics"].items()})
    return runs


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def verdict(parent, change, better_dir, bound):
    lower = better_dir == "lower"
    gain = lambda p, c: (p - c) if lower else (c - p)  # > 0: change better
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if gain(p, c) > 0)
    losses = sum(1 for p, c in pairs if gain(p, c) < 0)
    pq1, pmed, pq3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    iqr = pq3 - pq1
    delta = gain(pmed, cmed)
    n = len(pairs)
    if n and wins >= 0.9 * n and delta > iqr:
        v = "better"
    elif bound is None:
        v = "worse" if n and losses >= 0.9 * n and -delta > iqr else "unchanged"
    elif -delta > bound * abs(pmed):
        v = "worse"
    elif pmed and iqr / abs(pmed) > bound and not (
            min(gain(p, c) for p in parent for c in change) > 0):
        v = "unresolved"
    else:
        v = "unchanged"
    return v, wins, losses, n, (pq1, pmed, pq3), quartiles(change)


def compare(parent_runs, change_runs, spec):
    worse = False
    print(f"{'workload':8s} {'metric':32s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'won/lost/n':>11s}  verdict")
    for w in [w for w in WORKLOADS if w in parent_runs and w in change_runs]:
        p_rows, c_rows = parent_runs[w], change_runs[w]
        names = [m for m in spec if all(m in r for r in p_rows + c_rows)]
        for name in names:
            m = spec[name]
            p = [r[name] for r in p_rows]
            c = [r[name] for r in c_rows]
            n = min(len(p), len(c))
            if n == 0:
                continue
            v, wins, losses, n, pq, cq = verdict(p[:n], c[:n], m["better"],
                                                 m["bound"])
            worse |= v == "worse" and m["kind"] == "end_to_end"
            fmt = lambda q: f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
            print(f"{w:8s} {name:32s} {fmt(pq):>34s} {fmt(cq):>34s} "
                  f"{f'{wins}/{losses}/{n}':>11s}  {v}")
    return 1 if worse else 0


def run_side(checkout, workload, seed, seconds, trace):
    cmd = ["bash", "benchmark/run.sh", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    p = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if p.returncode != 0:
        print(f"warning: {checkout} {workload} seed {seed}: exit "
              f"{p.returncode}", file=sys.stderr)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("sides", nargs=2, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--run", action="store_true",
                    help="PARENT/CHANGE are checkouts to run, not result sets")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", default="all")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--out",
                    default=os.path.join(HERE, "..", "build-bench", "compare"))
    args = ap.parse_args()
    spec = load_spec()
    if not args.run:
        sys.exit(compare(load_results(args.sides[0]),
                         load_results(args.sides[1]), spec))

    seconds = 2 if args.quick else json.load(
        open(os.path.join(HERE, "..", "BENCHMARK.json")))["run_seconds"]
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    os.makedirs(args.out, exist_ok=True)
    paths = [os.path.join(args.out, n) for n in ("parent.jsonl", "change.jsonl")]
    files = [open(p, "w") for p in paths]
    for i in range(args.pairs):
        seed = 1 + i
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for w in workloads:
            for side in order:
                result = run_side(args.sides[side], w, seed, seconds, args.trace)
                files[side].write(json.dumps(
                    {"workload": w, "seed": seed, "pair": i, "result": result})
                    + "\n")
                files[side].flush()
    for f in files:
        f.close()
    sys.exit(compare(load_results(paths[0]), load_results(paths[1]), spec))


if __name__ == "__main__":
    main()
