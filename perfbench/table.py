#!/usr/bin/env python3
"""Runs every workload of the benchmark, untraced and traced, and prints
every metric by name with its unit as one Markdown table.

Usage, from the repository root:

    python3 perfbench/table.py [--seed 2018] [--seconds 40]

Each workload runs in its own process (one per workload and trace mode),
so one workload's peak memory never masks another's.
"""

import argparse
import json
import subprocess
import sys

WORKLOADS = ["accum-tw", "config-sweep", "dynamic-lj"]
COMMAND = ["cargo", "run", "--release", "--quiet", "--offline",
           "--manifest-path", "perfbench/Cargo.toml", "--"]


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        COMMAND + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, check=True, text=True)
    lines = out.stdout.strip().splitlines()
    digest = next((l.split()[1] for l in lines if l.startswith("sim_digest ")), "?")
    return json.loads(lines[-1]), digest


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=2018)
    ap.add_argument("--seconds", type=int, default=40)
    args = ap.parse_args()

    results = {}
    for w in WORKLOADS:
        for trace in (0, 1):
            print(f"running {w} --trace {trace} ...", file=sys.stderr)
            results[w, trace] = run(w, args.seed, args.seconds, trace)

    print(f"seed {args.seed}, {args.seconds} s per run\n")
    print("| metric | unit | " + " | ".join(WORKLOADS) + " |")
    print("|---|---|" + "---|" * len(WORKLOADS))
    for trace in (0, 1):
        names = results[WORKLOADS[0], trace][0]["metrics"]
        for name, m in names.items():
            cells = [f"{results[w, trace][0]['metrics'][name]['value']:.6g}" for w in WORKLOADS]
            print(f"| {name} | {m['unit']} | " + " | ".join(cells) + " |")
    for label, key in (("jobs_attempted", "attempted"), ("jobs_failed", "failed")):
        cells = [str(results[w, 0][0][key]) for w in WORKLOADS]
        print(f"| {label} | count | " + " | ".join(cells) + " |")
    cells = [results[w, 0][1] + ("" if results[w, 0][1] == results[w, 1][1] else " (traced differs!)")
             for w in WORKLOADS]
    print("| sim_digest | hex | " + " | ".join(cells) + " |")
    ok = all(results[k][0]["correct"] for k in results) and all(
        results[w, 0][1] == results[w, 1][1] for w in WORKLOADS)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
