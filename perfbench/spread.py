"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py --workload pair_scans [--out FILE]

Runs the benchmark command of ``BENCHMARK.json`` once for each of the
seeds 1 to 10, one run at a time, and prints for every end-to-end metric
the median and the distance between the first and third quartile
(``statistics.quantiles(n=4)``) as a share of the median, next to a third
of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

SEEDS = range(1, 11)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--out", help="append the summary as one JSON line here")
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    values: dict = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in SEEDS:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        if not doc["correct"]:
            print(f"seed {seed}: {doc['failed']} failed checks", file=sys.stderr)
            return 1
        for name in values:
            values[name].append(doc["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={doc['metrics'][k]['value']:.5g}" for k in values), flush=True)
    summary = {"workload": args.workload, "metrics": {}}
    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        summary["metrics"][m["name"]] = {"median": med, "spread": spread}
        print(f"{m['name']:>14}: median {med:.5g} {m['unit']}, spread {spread:.4f} "
              f"(a third of the bound: {m['bound'] / 3:.4f})")
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
