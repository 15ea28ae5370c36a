#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly, each run in a process
of its own with another seed, and report every end-to-end metric's median,
quartiles and spread against the bound in BENCHMARK.json.

Usage, from the root of the repository:

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--first-seed 1]
        [--seconds S] [--trace] [--save sets/a.json] [--compare sets/b.json]

The spread is the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median. A metric is
steady when its spread stays under a third of its bound (setup_s is
reported but not held to it). --save writes the medians and failure
shares of this set; --compare checks them against a set saved in another
session: no median may be worse than the earlier one by more than the
metric's bound, and the share of failed operations must be the same.
--trace also makes a traced run per seed and reports the tracing overhead:
how much lower each throughput median reads under tracing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace, out_dir):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", out_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def worse_by(metric, earlier, later):
    """Relative worsening of `later` against `earlier` (negative: better)."""
    change = (later - earlier) / earlier
    return -change if metric["better"] == "higher" else change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out", default=".bench_out")
    p.add_argument("--save")
    p.add_argument("--compare")
    args = p.parse_args()

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    earlier = None
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)
    saved = {}
    ok = True
    for workload in args.workloads.split(","):
        seeds = range(args.first_seed, args.first_seed + args.runs)
        results = [run_once(workload, s, args.seconds, False, args.out) for s in seeds]
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"\n{workload}: {args.runs} runs, seeds {seeds.start}..{seeds.stop - 1}, "
              f"failed share {shares}, correct {all(r['correct'] for r in results)}")
        print(f"  {'metric':16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        saved[workload] = {"failed_share": shares, "medians": {}}
        for name, m in metrics.items():
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, s = spread(values)
            saved[workload]["medians"][name] = med
            if name == "setup_s":
                verdict = "setup (no spread limit)"
            elif s <= m["bound"] / 3:
                verdict = "steady"
            elif s <= m["bound"]:
                verdict = "within bound, above a third of it"
            else:
                verdict, ok = "UNSTEADY", False
            if earlier:
                before = earlier[workload]["medians"][name]
                w = worse_by(m, before, med)
                verdict += f"; {w:+.1%} worse than saved {before:.6g}"
                if w > m["bound"]:
                    verdict, ok = verdict + " WORSE THAN BOUND", False
            print(f"  {name:16} {med:12.6g} {q1:12.6g} {q3:12.6g} {s:8.2%} {m['bound']:6.2f}  {verdict}")
        if earlier and earlier[workload]["failed_share"] != shares:
            print(f"  failed share differs from the saved set: {earlier[workload]['failed_share']}")
            ok = False
        if args.trace:
            for s in seeds:
                run_once(workload, s, args.seconds, True, args.out)
            traced = []
            for s in seeds:
                with open(os.path.join(args.out, f"{workload}-{s}.layers.json")) as f:
                    traced.append(json.load(f)["traced_end_to_end"])
            for name in ("compress_mbps", "decompress_mbps"):
                plain = statistics.median(r["metrics"][name]["value"] for r in results)
                under = statistics.median(t[name]["value"] for t in traced)
                print(f"  tracing overhead on {name}: {(plain - under) / plain:+.2%} "
                      f"({plain:.4g} untraced, {under:.4g} traced)")
    if args.save:
        os.makedirs(os.path.dirname(os.path.abspath(args.save)), exist_ok=True)
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
