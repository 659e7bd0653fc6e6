"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the checkout root.  It checks that

* a dense orbit of S steps records exactly S ``apply_rule`` calls, both
  through ``shift_core.orbit`` and through ``cli.main(["ab-run", ...])``,
  whose module took ``apply_rule`` with ``from ... import``; and that
  uninstalling the tracer restores every patched name;
* two traced runs of one seed give identical counts on every workload
  (``apply_rule.calls``/``cells``, ``walker.steps``, ``encode.calls``,
  ``program_word.calls``, ``pair_steps`` and every other count);
* every run prints each metric of ``BENCHMARK.json`` by name with its
  declared unit, and nothing else in its JSON line.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import load_library  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Context, run_cli  # noqa: E402

COUNT_UNITS = ("count", "bytes")
SEED = 3


def dense_orbit_calls(steps: int) -> list:
    problems = []
    lib = load_library()
    original = lib.cli.apply_rule
    system = lib.ab.build_rule(2)
    start = lib.sc.Padded(
        system.alphabet,
        (lib.ab.ARROW_RIGHT, lib.ab.BLANK) + lib.ab.make_block(3, 2).word,
        lib.ab.BLANK,
        anchor=-2,
    )
    for label, call in (
        ("shift_core.orbit", lambda: lib.sc.orbit(system.rule, start, steps)),
        ("cli ab-run", lambda: run_cli(
            lib, ["ab-run", "--n", "2", "--level", "3", "--steps", str(steps)],
            Context())),
    ):
        tracer = Tracer()
        tracer.install(lib)
        try:
            call()
        finally:
            tracer.uninstall()
        got = layer_metrics(tracer, 0.0, 1.0)["shift_core.apply_rule.calls"][0]
        if got != steps:
            problems.append(f"{label}: {steps}-step orbit recorded {got} apply_rule calls")
    if lib.cli.apply_rule is not original:
        problems.append("uninstall left cli.apply_rule wrapped")
    return problems


def run_bench(bench, workload: str, seed: int, trace: int, seconds: str):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", seconds, "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def printed_metrics(declared, lines, doc, label) -> list:
    problems = []
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in doc["metrics"].items()}
    if got != want:
        problems.append(f"{label}: JSON metrics/units {got} differ from {want}")
    shown = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 3:
            shown[parts[0]] = parts[2]
    for name, unit in want.items():
        if shown.get(name) != unit:
            problems.append(f"{label}: {name} not printed with unit {unit}")
    if not doc["correct"] or doc["failed"]:
        problems.append(f"{label}: {doc['failed']} failed checks")
    return problems


def main() -> int:
    sys.path.insert(0, os.path.abspath("src"))
    warnings.simplefilter("ignore")
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)

    problems = dense_orbit_calls(37)
    for name in sorted(WORKLOADS):
        lines, doc = run_bench(bench, name, SEED, 0, "0")
        problems += printed_metrics(bench["end_to_end"], lines, doc, f"{name} untraced")
        runs = [run_bench(bench, name, SEED, 1, "0") for _ in range(2)]
        for lines, doc in runs:
            problems += printed_metrics(bench["per_layer"], lines, doc, f"{name} traced")
        first, second = (doc["metrics"] for _, doc in runs)
        for metric, entry in first.items():
            if entry["unit"] in COUNT_UNITS and entry["value"] != second[metric]["value"]:
                problems.append(
                    f"{name}: {metric} {entry['value']} then {second[metric]['value']}")
        print(f"{name}: checked", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
