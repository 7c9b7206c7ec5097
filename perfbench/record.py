#!/usr/bin/env python3
"""Runs the benchmark over several seeds, prints each metric's median and
spread, and appends every run to RECORD.json.

    python3 perfbench/record.py --workload farm --seeds 1,2,3,4,5 [--trace 1]

Run from the repository root. The spread is the distance between the first
and third quartile (statistics.quantiles, n=4) as a share of the median;
an end-to-end metric is steady when its spread stays under a third of its
bound in BENCHMARK.json. Each recorded run carries the commit, nproc and
`rustc -V` it ran on.
"""

import argparse
import json
import os
import statistics
import subprocess
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RECORD = os.path.join(HERE, "RECORD.json")


def output(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True).stdout.strip()
    except OSError:
        return ""


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="comma-separated seeds")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()

    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    machine = {
        "commit": output(["git", "describe", "--always", "--dirty"]) or "unknown",
        "nproc": os.cpu_count(),
        "rustc": output(["rustc", "-V"]),
    }
    rows, values = [], {}
    for seed in (int(s) for s in args.seeds.split(",")):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        started = time.time()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        result = json.loads(lines[-1])
        print(f"seed {seed}: {time.time() - started:.1f} s, correct {result['correct']}, "
              f"{result['failed']}/{result['attempted']} failed", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        rows.append({"workload": args.workload, "seed": seed, "trace": int(args.trace),
                     **machine, **result})

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("nan")
        verdict = ""
        if name in bounds:
            bound = bounds[name]
            verdict = "steady" if spread < bound / 3 else ("within bound" if spread <= bound else "OVER BOUND")
        print(f"{name:32s} median {med:<14.6g} spread {spread:.4f} {verdict}")

    record = json.load(open(RECORD))
    record["runs"].extend(rows)
    for w in record["workloads"]:
        w["seeds"] = sorted({r["seed"] for r in record["runs"] if r["workload"] == w["name"]})
    write_record(record)


def write_record(record):
    """Writes RECORD.json with one line per run, so new runs show as
    appended lines in a diff."""
    head = {k: v for k, v in record.items() if k != "runs"}
    text = json.dumps(head, indent=1)[:-2]
    runs = ",\n".join("  " + json.dumps(r) for r in record["runs"])
    with open(RECORD, "w") as f:
        f.write(f"{text},\n \"runs\": [\n{runs}\n ]\n}}\n")


if __name__ == "__main__":
    main()
