#!/usr/bin/env python3
"""Run one workload of the benchmark once per seed and print, for every
end-to-end metric, the median, the quartiles and the spread (Q3 - Q1) / median
over the runs, next to the metric's bound in BENCHMARK.json.

    python3 benchmark/spread.py --workload adaptive_sweep_direct --seeds 21-30

Run it from the repository root. `--json <file>` also writes the numbers.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="21-30", type=seed_list)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--json", default=None)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    runs = []
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect run\n{out.stdout}")
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.append({"seed": seed, "metrics": values})
        print(f"seed {seed}: " + ", ".join(f"{k} {v:.4g}" for k, v in values.items()),
              flush=True)

    summary = {}
    for name, metric in bounds.items():
        values = [r["metrics"][name] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        summary[name] = {"unit": metric["unit"], "median": median, "q1": q1,
                         "q3": q3, "spread": spread, "bound": metric["bound"]}
        print(f"{name:<14} median {median:10.4f} {metric['unit']:<4} "
              f"spread {spread:.3f} (bound {metric['bound']})")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seconds": seconds,
                       "runs": runs, "end_to_end": summary}, f, indent=2)


if __name__ == "__main__":
    main()
