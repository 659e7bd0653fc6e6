"""Benchmark of expansive_lab: one workload, one seed, one process.

    python3 perfbench/run.py --workload arrow_orbits --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Each workload is a closed loop: a single client issues the seed's fixed
stream of at least 100 queries (library calls and in-process
``cli.main(argv)`` invocations) one after another, checks every output,
and repeats the stream until ``--seconds`` have passed.  No threads and no
other processes are started, except that ``--workload all`` runs each
workload in a fresh child process in turn.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: import, rule tables, landscapes, families, simulation
  parameters and schedules; the median of nine set-ups or more, repeated
  until they took 2 s, each starting from a fresh import of the package
  and a collected heap.  Every import reads bytecode from
  ``.perfbench/pycache``, written by one untimed import before them, so
  that neither compiling nor the state of ``src/``'s ``__pycache__`` is
  timed;
* ``wall_s``: the time to all verdicts of one pass of the stream, as the
  sum over its queries of each query's median (over the passes) time to
  its verdict;
* ``query_p50_ms`` and ``query_p90_ms``: percentiles over the stream's
  queries of each query's median latency over the passes (every stream
  has more than 100 queries, so at least ten lie beyond the p90);
* ``peak_rss_mib``: ``ru_maxrss`` of this process;
* ``error_rate``: failed checks over queries attempted.  A query that
  raises counts as failed and the run goes on.  It is printed but kept out
  of the JSON metrics, because it is 0 on a correct program.

``--trace 1`` runs untraced passes for half of ``--seconds``, then wraps
the public functions of the six modules (see ``tracer.py``), sets up again
and runs one traced pass.  It reports the per-layer metrics and
``trace.overhead_ratio``, and writes the spans to ``.perfbench/``.

Every time is calibrated (see `CalibratedClock`): it is scaled to the
speed at which a fixed reference loop takes 5 ms, so that a shared core
slowing down for a while does not read as a slower program.  The process
re-executes itself once with ``PYTHONHASHSEED=0`` so that every run lays
out its dicts alike.

Every metric is printed as ``name value unit`` and the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import types
import warnings

TRACE_DIR = ".perfbench"
# the benchmark's own bytecode cache, written whatever PYTHONDONTWRITEBYTECODE says
sys.dont_write_bytecode = False
sys.pycache_prefix = os.path.abspath(os.path.join(TRACE_DIR, "pycache"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PACKAGE = "expansive_lab"
MODULES = ("shift_core", "arrow_bracket", "cycle_machine", "dynamics_analysis",
           "slope_engine", "cli")
SHORT = {"shift_core": "sc", "arrow_bracket": "ab", "cycle_machine": "cm",
         "dynamics_analysis": "da", "slope_engine": "se", "cli": "cli"}
SETUP_REPEATS = 9
# set-ups of a few tens of ms repeat until this much time has gone into
# them, because a median of nine of those spread by 10% from run to run
SETUP_MIN_NS = 2_000_000_000
HASH_SEED = "0"
REF_ITERATIONS = 20_000
REF_NOMINAL_NS = 5_000_000  # the reference loop on an undisturbed core
REF_EVERY_NS = 100_000_000


def load_library():
    """Import the package afresh and return its six modules."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
    lib = types.SimpleNamespace(modules=modules)
    for m, mod in modules.items():
        setattr(lib, SHORT[m], mod)
    return lib


def reference_loop() -> int:
    """Fixed pure-Python work (dict and tuple traffic, like the library's)
    whose duration tracks how fast this core runs right now."""
    d: dict = {}
    t = 0
    for i in range(REF_ITERATIONS):
        k = (i & 255, i % 7)
        d[k] = d.get(k, 0) + 1
        t += len(k)
    return t


class CalibratedClock:
    """Timing scaled to a nominal core speed.

    A core shared with other tenants changes speed, by up to 1.7x for
    seconds at a time on a 2-core shared host, and it does so alike for the
    reference loop and for the library.  So the reference loop is timed
    before and after every interval of about REF_EVERY_NS, and the
    interval's times are scaled by REF_NOMINAL_NS over the mean of those two
    reference times.
    """

    def __init__(self):
        self.ref = self._time_reference()

    @staticmethod
    def _time_reference() -> int:
        t0 = time.perf_counter_ns()
        reference_loop()
        return time.perf_counter_ns() - t0

    def close_interval(self) -> float:
        """Time the reference again; the scale factor of the interval since
        the previous call."""
        ref = self._time_reference()
        factor = 2 * REF_NOMINAL_NS / (self.ref + ref)
        self.ref = ref
        return factor


def run_pass(queries, cal: CalibratedClock, tracer=None, problems=None):
    """One pass of the stream: (calibrated wall ns, raw wall ns, calibrated
    per-query latencies ns, calibrated per-query times to the verdict ns,
    failures).  A query's latency times its call; its time to the verdict
    adds the check of its output."""
    latencies: list = []
    verdicts: list = []
    wall = 0.0
    raw = 0
    failed = 0
    clock = time.perf_counter_ns
    cal.close_interval()
    begin = clock()
    pending: list = []
    for qid, q in enumerate(queries):
        if tracer is not None:
            tracer.query_id = qid
        problem = None
        t0 = clock()
        try:
            result = q.run()
        except Exception as exc:  # a raising query is a failed query
            problem = f"{q.kind} raised {exc!r}"
        latency = clock() - t0
        if problem is None:
            try:
                problem = q.check(result)
            except Exception as exc:
                problem = f"{q.kind} check raised {exc!r}"
        result = None
        pending.append((latency, clock() - t0))
        if problem is not None:
            failed += 1
            if problems is not None and len(problems) < 10:
                problems.append(problem)
        now = clock()
        if now - begin >= REF_EVERY_NS or qid == len(queries) - 1:
            factor = cal.close_interval()
            wall += (now - begin) * factor
            raw += now - begin
            latencies += [lat * factor for lat, _ in pending]
            verdicts += [v * factor for _, v in pending]
            pending = []
            begin = clock()
    if tracer is not None:
        tracer.query_id = -1
    return wall, raw, latencies, verdicts, failed


def percentile(sorted_values, q: float):
    """Nearest-rank percentile."""
    k = max(0, min(len(sorted_values) - 1, -(-len(sorted_values) * q // 1) - 1))
    return sorted_values[int(k)]


def measure(queries, cal, seconds: float, problems, min_passes: int = 1):
    """Passes until `seconds` are up: (pass walls, per-query latencies, time
    to all verdicts, failures, queries attempted).  A query's latency and
    its time to the verdict are its medians over the passes, which keeps a
    pass whose calibration missed a change of core speed from moving them;
    the time to all verdicts sums the latter over the stream."""
    walls, latencies, verdicts, failed, attempted = [], [], [], 0, 0
    deadline = time.perf_counter() + seconds
    while True:
        wall, _, lat, ver, bad = run_pass(queries, cal, problems=problems)
        walls.append(wall)
        latencies.append(lat)
        verdicts.append(ver)
        failed += bad
        attempted += len(queries)
        if time.perf_counter() >= deadline and len(walls) >= min_passes:
            per_query = [statistics.median(times) for times in zip(*latencies)]
            total = sum(statistics.median(times) for times in zip(*verdicts))
            return walls, per_query, total, failed, attempted


def emit(metrics: dict, correct: bool, attempted: int, failed: int, extra: dict):
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name} {value} {unit}")
    doc = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(doc))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    wl = WORKLOADS[name]
    plan = wl.plan(random.Random(seed))
    cal = CalibratedClock()
    load_library()  # writes the bytecode that the timed imports read
    setups = []
    spent = 0
    while len(setups) < SETUP_REPEATS or spent < SETUP_MIN_NS:
        gc.collect()  # the garbage of the set-up before is not this one's
        cal.close_interval()
        t0 = time.perf_counter_ns()
        lib = load_library()
        ctx = wl.setup(lib, plan)
        raw = time.perf_counter_ns() - t0
        spent += raw
        setups.append(raw * cal.close_interval() / 1e9)
    queries = wl.queries(lib, ctx, plan)
    problems: list = []
    if not trace:
        walls, latencies, total, failed, attempted = measure(
            queries, cal, seconds, problems)
        latencies.sort()
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (total / 1e9, "s"),
            "query_p50_ms": (statistics.median(latencies) / 1e6, "ms"),
            "query_p90_ms": (percentile(latencies, 0.9) / 1e6, "ms"),
            "peak_rss_mib": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        extra = {
            "error_rate": (failed / attempted, "ratio"),
            "passes": (len(walls), "count"),
            "queries_per_pass": (len(queries), "count"),
        }
    else:
        # the untraced baseline of trace.overhead_ratio: three passes at least,
        # so that its median is not the first, colder pass
        walls, _, _, failed, attempted = measure(queries, cal, seconds / 2, problems, 3)
        tracer = Tracer()
        tracer.install(lib)
        try:
            ctx = wl.setup(lib, plan)
            ctx.tracer = tracer
            traced = wl.queries(lib, ctx, plan)
            wall, raw, _, _, bad = run_pass(traced, cal, tracer, problems)
        finally:
            tracer.uninstall()
        failed += bad
        attempted += len(traced)
        overhead = wall / statistics.median(walls) - 1
        metrics = layer_metrics(tracer, overhead, wall / raw)
        tracer.write(os.path.join(TRACE_DIR, f"spans-{name}-seed{seed}.bin"))
        extra = {}
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    emit(metrics, failed == 0, attempted, failed, extra)
    return 0


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # string hashing seeds dict layouts; a random seed per process
        # moved wall_s by about 5% from run to run
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", PACKAGE, "__init__.py")):
        print(f"error: run from a checkout root holding src/{PACKAGE}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            whys = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}
        rc = 0
        for name in sorted(WORKLOADS):
            print(f"# {name}: {whys[name]}", flush=True)
            child = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                check=False,
            )
            rc = rc or child.returncode
        return rc
    sys.path.insert(0, os.path.abspath("src"))
    warnings.simplefilter("ignore")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
