#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports, per workload and
end-to-end metric, the median and the quartile spread (Q3 - Q1) / median.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1,2,3] [--seconds S]
                                [--bin PATH] [--trace] [--save FILE]

Run from the repository root. Without --bin the benchmark is run through the
command in BENCHMARK.json; --bin runs an already built binary instead.
With --trace, also runs each seed traced and reports the tracing overhead
(traced run_s minus untraced run_s) as median and quartiles. With --save,
also writes every end-to-end value per workload and metric to FILE as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--bin")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--save")
    opts = parser.parse_args()
    command = [opts.bin] if opts.bin else bench["command"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = [int(s) for s in opts.seeds.split(",")]
    saved = {}
    for workload in opts.workloads.split(","):
        results = [run_once(command, workload, s, opts.seconds, False) for s in seeds]
        bad = [r for r in results if not r["correct"] or r["failed"]]
        print(f"{workload}: {len(results)} runs, {len(bad)} incorrect or with failures")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            saved.setdefault(workload, {})[name] = values
            s = spread(values)
            flag = "ok" if s <= bound / 3 else ("within bound" if s <= bound else "TOO WIDE")
            print(f"  {name:<14} median {statistics.median(values):<14.6g} "
                  f"spread {s:.4f} (bound {bound}) {flag}")
            print("    " + " ".join(f"{v:.6g}" for v in values))
        if opts.trace:
            overhead = []
            for seed, plain in zip(seeds, results):
                traced = run_once(command, workload, seed, opts.seconds, True)
                overhead.append(traced["metrics"]["trace.run_s"]["value"]
                                - plain["metrics"]["run_s"]["value"])
            q1, med, q3 = statistics.quantiles(overhead, n=4)
            print(f"  tracing overhead run_s: median {med:+.4f} s (quartiles {q1:+.4f}, {q3:+.4f})")
        sys.stdout.flush()
    if opts.save:
        with open(opts.save, "w") as f:
            json.dump(saved, f, indent=1)


if __name__ == "__main__":
    main()
