#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarises each metric.

    python3 perfbench/sweep.py --workloads paper-index search-ch serve-open \
        --seeds 1 2 3 4 5 6 7 8 9 10 --trace 0 --out perfbench/baseline/untraced-1.json

For each workload and metric it reports the median of the runs and the
spread: the distance between the first and third quartile (as
`statistics.quantiles(values, n=4)` gives them) as a share of the median.
Each spread is compared with a third of the metric's bound from
`BENCHMARK.json`. Every run's full result is kept in the output file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="write the runs and the summary here")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    runs = []
    for workload in args.workloads:
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            start = time.time()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            wall = time.time() - start
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            lines = proc.stdout.strip().split("\n")
            result = json.loads(lines[-1])
            meta = next((l for l in lines if l.startswith("run: ")), "")
            runs.append({"workload": workload, "seed": seed, "wall_s": round(wall, 2),
                         "meta": meta, "result": result})
            print(f"{workload} seed {seed}: {wall:.1f} s, correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)

    summary = {}
    for workload in args.workloads:
        mine = [r["result"] for r in runs if r["workload"] == workload]
        walls = [r["wall_s"] for r in runs if r["workload"] == workload]
        rows = {}
        for name in mine[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in mine]
            med = statistics.median(values)
            row = {"median": med, "unit": mine[0]["metrics"][name]["unit"]}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                row["spread"] = (q3 - q1) / med if med else None
            bound = bounds.get(name)
            if bound is not None and row.get("spread") is not None:
                row["bound"] = bound
                row["steady"] = row["spread"] < bound / 3
            rows[name] = row
        summary[workload] = {"max_wall_s": max(walls), "metrics": rows}
        print(f"\n{workload} (max wall {max(walls):.1f} s)")
        for name, row in rows.items():
            spread = row.get("spread")
            flag = "" if row.get("steady", True) else "  <-- spread above bound/3"
            spread_txt = "-" if spread is None else f"{spread:.3f}"
            print(f"  {name:34s} {row['median']:14.4f} {row['unit']:6s} spread {spread_txt}"
                  f"{'' if 'bound' not in row else ' bound ' + str(row['bound'])}{flag}")

    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump({"seconds": seconds, "trace": args.trace, "seeds": args.seeds,
                       "summary": summary, "runs": runs}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
