"""In-memory span tracer for the benchmark's traced runs.

`Tracer.install` wraps every public function of the six library modules
and puts the wrapper into every module namespace that holds the function,
so a name taken with ``from ... import`` (``apply_rule`` in `cli`,
`arrow_bracket`, `cycle_machine` and `dynamics_analysis`) is wrapped as
well.  Wrapping only ``shift_core.apply_rule`` would miss every such call.
`HierarchicalArrangement.configuration` is wrapped as the landscape
boundary, and the constructors of `Periodic` and `Padded` are counted
without a span.  `ArrowWalk.step` is deliberately not wrapped: walker steps
are read from the results the walking functions return.

Each span is kept in memory as (name, query id, parent span, start, end)
in ``perf_counter_ns`` units.  `write` dumps the spans at the end of the
run; `derive` computes inclusive and self time from them.  A span's self
time is its duration minus the durations of its direct children, which
never overlap because the library is single-threaded.
"""

from __future__ import annotations

import array
import collections
import functools
import inspect
import json
import os
import time

# per-symbol helpers called once per cell; a span each would swamp the
# run without telling anything the callers' spans do not
SKIP = frozenset(
    {"is_arrow", "is_bracket", "bracket_info", "open_bracket",
     "close_bracket", "mirror_symbol"}
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.query = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.stack = [-1]
        self.query_id = -1
        self.counts: collections.Counter = collections.Counter()
        self.program_keys: set = set()
        # time spent in counting hooks, charged to the span that was open
        # when the hook ran so that it stays out of every self time
        self.hook_ns: collections.Counter = collections.Counter()
        self._patched: list = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, hook=None):
        tracer = self
        nid = self.name_id(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.name)
            tracer.name.append(nid)
            tracer.query.append(tracer.query_id)
            tracer.parent.append(tracer.stack[-1])
            tracer.end.append(0)
            tracer.stack.append(idx)
            result = exc = None
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                tracer.end[idx] = clock()
                tracer.stack.pop()
                if hook is not None:
                    t0 = clock()
                    hook(tracer, idx, args, kwargs, result, exc)
                    tracer.hook_ns[tracer.stack[-1]] += clock() - t0

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, lib) -> None:
        """Wrap the public functions of `lib` (see `bench.load_library`)."""
        wrappers = {}
        for short, mod in lib.modules.items():
            for attr, obj in vars(mod).items():
                if (
                    attr.startswith("_")
                    or attr in SKIP
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(obj)
                    or (short == "cli" and attr != "main")
                ):
                    continue
                name = f"{short}.{attr}"
                wrappers[obj] = self.wrap(name, obj, HOOKS.get(name))
        for mod in lib.modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        landscape = lib.ab.HierarchicalArrangement
        self._patch(
            landscape,
            "configuration",
            self.wrap(
                "arrow_bracket.HierarchicalArrangement.configuration",
                landscape.configuration,
                _landscape_hook,
            ),
        )
        for cls in (lib.sc.Periodic, lib.sc.Padded):
            self._patch(cls, "__init__", self._counting_init(cls.__init__))

    def _counting_init(self, init):
        counts = self.counts

        @functools.wraps(init)
        def wrapper(*args, **kwargs):
            counts["config_inits"] += 1
            init(*args, **kwargs)

        return wrapper

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    def derive(self):
        """Per span name: (calls, inclusive ns, self ns)."""
        n = len(self.name)
        start, end, parent = self.start, self.end, self.parent
        child = [0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        incl = [0] * len(self.names)
        own = [0] * len(self.names)
        hook_ns = self.hook_ns
        for i, nid in enumerate(self.name):
            d = end[i] - start[i]
            calls[nid] += 1
            incl[nid] += d
            own[nid] += d - child[i] - hook_ns.get(i, 0)
        return {
            name: (calls[k], incl[k], own[k]) for k, name in enumerate(self.names)
        }

    def write(self, path: str) -> None:
        """Dump the spans: a JSON header line, then the five int64 columns."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.name),
            "columns": ["name", "query", "parent", "start_ns", "end_ns"],
            "counts": dict(self.counts),
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for col in (self.name, self.query, self.parent):
                array.array("q", col).tofile(fh)
            self.start.tofile(fh)
            self.end.tofile(fh)


# ---------------------------------------------------------------------------
# counters recorded at the span boundaries


def _apply_rule_hook(tr, idx, args, kwargs, result, exc):
    if exc is not None:
        return
    rule, cfg = args[0], args[1]
    kind = type(cfg).__name__
    if kind == "Periodic":
        cells = len(cfg.word)
        same = result.word == cfg.word
    else:
        cells = len(cfg.word) + 2 * rule.radius if cfg.word else 0
        same = result.word == cfg.word and result.anchor == cfg.anchor
    tr.name[idx] = tr.name_id(f"shift_core.apply_rule:{kind}")
    tr.counts[f"apply_rule.cells:{kind}"] += cells
    tr.counts["apply_rule.unchanged"] += same


def _arrow_trace_hook(tr, idx, args, kwargs, result, exc):
    if exc is None and not result.no_arrow:
        tr.counts["walker.steps"] += len(result.pairs) - 1
        tr.counts["walker.stuck_events"] += result.stuck_at is not None


def _front_hook(tr, idx, args, kwargs, result, exc):
    if exc is None:
        tr.counts["walker.steps"] += len(result[0]) - 1


def _crossing_hook(tr, idx, args, kwargs, result, exc):
    if exc is None:
        tr.counts["walker.steps"] += result.steps


def _landscape_hook(tr, idx, args, kwargs, result, exc):
    lo, hi = args[1], args[2]
    tr.counts["landscape.cells"] += hi - lo + 1


def _scan_hook(tr, idx, args, kwargs, result, exc):
    if exc is None:
        tr.counts["scan.points"] += result.points


def _render_hook(tr, idx, args, kwargs, result, exc):
    rows, lo, hi = args[0], args[1], args[2]
    tr.counts["render.cells"] += len(rows) * (hi - lo + 1)


def _decode_hook(tr, idx, args, kwargs, result, exc):
    if exc is not None and type(exc).__name__ == "MalformedConfiguration":
        tr.counts["decode.rejected"] += 1


def _program_word_hook(tr, idx, args, kwargs, result, exc):
    p = args[0]
    tr.program_keys.add((id(p.phi), id(p.phi_inv), p.B, p.W, p.D))


def _distinct_pairs(family) -> int:
    return sum(
        family[a] != family[b]
        for a in range(len(family))
        for b in range(a + 1, len(family))
    )


def _blocking_hook(tr, idx, args, kwargs, result, exc):
    pairs = _distinct_pairs(args[1])
    tr.counts["pairs"] += pairs
    tr.counts["pair_steps:blocking"] += pairs * (args[3] + 1)


def _lyapunov_hook(tr, idx, args, kwargs, result, exc):
    pairs = _distinct_pairs(args[1])
    tr.counts["pairs"] += pairs
    tr.counts["pair_steps:lyapunov"] += pairs * (args[2] + 1)


def _region_hook(tr, idx, args, kwargs, result, exc):
    family, n, (t_lo, t_hi), (i_lo, i_hi) = args[1], args[2], args[3], args[4]
    window = range(-n, n + 1)
    pairs = sum(
        all(family[a][i] == family[b][i] for i in window)
        for a in range(len(family))
        for b in range(a + 1, len(family))
    )
    tr.counts["pairs"] += pairs
    tr.counts["region.pair_cells"] += pairs * (t_hi - t_lo + 1) * (i_hi - i_lo + 1)


def _realize_hook(tr, idx, args, kwargs, result, exc):
    if exc is None:
        tr.counts["realize.levels"] += len(result.levels)


HOOKS = {
    "shift_core.apply_rule": _apply_rule_hook,
    "arrow_bracket.arrow_trace": _arrow_trace_hook,
    "arrow_bracket.perturbation_front": _front_hook,
    "arrow_bracket.run_crossing": _crossing_hook,
    "arrow_bracket.scan_periodic_injectivity": _scan_hook,
    "arrow_bracket.render_text": _render_hook,
    "arrow_bracket.render_pgm": _render_hook,
    "cycle_machine.decode": _decode_hook,
    "cycle_machine.program_word": _program_word_hook,
    "dynamics_analysis.blocking_word_search": _blocking_hook,
    "dynamics_analysis.lyapunov_profile": _lyapunov_hook,
    "dynamics_analysis.determined_region": _region_hook,
    "slope_engine.realize_slope": _realize_hook,
}


# ---------------------------------------------------------------------------
# per-layer metrics


def _ratio(num, den, scale=1.0) -> float:
    # a layer the workload never reaches reports 0
    return num * scale / den if den else 0.0


def layer_metrics(tracer: Tracer, overhead_ratio: float, scale: float) -> dict:
    """Every per-layer metric as name -> (value, unit); span times are
    multiplied by `scale`, the calibration factor of the traced pass."""
    spans = tracer.derive()
    c = tracer.counts

    def calls(name):
        return spans.get(name, (0, 0, 0))[0]

    def incl(name):
        return spans.get(name, (0, 0, 0))[1] * scale

    def own(name):
        return spans.get(name, (0, 0, 0))[2] * scale

    padded, periodic = "shift_core.apply_rule:Padded", "shift_core.apply_rule:Periodic"
    apply_calls = calls(padded) + calls(periodic)
    cells_padded = c["apply_rule.cells:Padded"]
    cells_periodic = c["apply_rule.cells:Periodic"]
    walker_own = sum(
        own(f"arrow_bracket.{f}")
        for f in ("arrow_trace", "perturbation_front", "run_crossing")
    )
    render_incl = incl("arrow_bracket.render_text") + incl("arrow_bracket.render_pgm")
    pw_calls = calls("cycle_machine.program_word")
    pair_steps = c["pair_steps:blocking"] + c["pair_steps:lyapunov"]
    m = {
        "shift_core.apply_rule.calls": (apply_calls, "count"),
        "shift_core.apply_rule.cells": (cells_padded + cells_periodic, "count"),
        "shift_core.apply_rule.self_s": ((own(padded) + own(periodic)) / 1e9, "s"),
        "shift_core.apply_rule.padded_ns_per_cell": (
            _ratio(own(padded), cells_padded), "ns/cell"),
        "shift_core.apply_rule.periodic_ns_per_cell": (
            _ratio(own(periodic), cells_periodic), "ns/cell"),
        "shift_core.apply_rule.unchanged_ratio": (
            _ratio(c["apply_rule.unchanged"], apply_calls), "ratio"),
        "shift_core.config_inits": (c["config_inits"], "count"),
        "arrow_bracket.walker.steps": (c["walker.steps"], "count"),
        "arrow_bracket.walker.stuck_events": (c["walker.stuck_events"], "count"),
        "arrow_bracket.walker.ns_per_step": (
            _ratio(walker_own, c["walker.steps"]), "ns/step"),
        "arrow_bracket.run_crossing.calls": (
            calls("arrow_bracket.run_crossing"), "count"),
        "arrow_bracket.run_crossing.self_s": (
            own("arrow_bracket.run_crossing") / 1e9, "s"),
        "arrow_bracket.landscape.cells": (c["landscape.cells"], "count"),
        "arrow_bracket.landscape.ns_per_cell": (
            _ratio(incl("arrow_bracket.HierarchicalArrangement.configuration"),
                   c["landscape.cells"]), "ns/cell"),
        "arrow_bracket.build_rule.self_s": (own("arrow_bracket.build_rule") / 1e9, "s"),
        "arrow_bracket.scan_periodic_injectivity.us_per_point": (
            _ratio(incl("arrow_bracket.scan_periodic_injectivity"),
                   c["scan.points"], 1e-3), "us/point"),
        "arrow_bracket.render.ns_per_cell": (
            _ratio(render_incl, c["render.cells"]), "ns/cell"),
        "cycle_machine.encode.calls": (calls("cycle_machine.encode"), "count"),
        "cycle_machine.encode.us_per_state": (
            _ratio(incl("cycle_machine.encode"), calls("cycle_machine.encode"), 1e-3),
            "us/state"),
        "cycle_machine.decode.us_per_state": (
            _ratio(incl("cycle_machine.decode"), calls("cycle_machine.decode"), 1e-3),
            "us/state"),
        "cycle_machine.decode.rejected": (c["decode.rejected"], "count"),
        "cycle_machine.program_word.calls": (pw_calls, "count"),
        "cycle_machine.program_word.distinct_ratio": (
            _ratio(len(tracer.program_keys), pw_calls), "ratio"),
        "cycle_machine.step_suspension.ns_per_call": (
            _ratio(incl("cycle_machine.step_suspension"),
                   calls("cycle_machine.step_suspension")), "ns/call"),
        "cycle_machine.pi_on_encoded.us_per_call": (
            _ratio(incl("cycle_machine.pi_on_encoded"),
                   calls("cycle_machine.pi_on_encoded"), 1e-3), "us/call"),
        "cycle_machine.tower.us_per_call": (
            _ratio(incl("cycle_machine.tower"), calls("cycle_machine.tower"), 1e-3),
            "us/call"),
        "dynamics_analysis.pairs": (c["pairs"], "count"),
        "dynamics_analysis.pair_steps": (pair_steps, "count"),
        "dynamics_analysis.blocking_word_search.ns_per_pair_step": (
            _ratio(incl("dynamics_analysis.blocking_word_search"),
                   c["pair_steps:blocking"]), "ns/pair-step"),
        "dynamics_analysis.lyapunov_profile.ns_per_pair_step": (
            _ratio(incl("dynamics_analysis.lyapunov_profile"),
                   c["pair_steps:lyapunov"]), "ns/pair-step"),
        "dynamics_analysis.determined_region.ns_per_pair_cell": (
            _ratio(incl("dynamics_analysis.determined_region"),
                   c["region.pair_cells"]), "ns/pair-cell"),
        "slope_engine.realize_slope.us_per_level": (
            _ratio(incl("slope_engine.realize_slope"), c["realize.levels"], 1e-3),
            "us/level"),
        "slope_engine.lambda_eval.us_per_call": (
            _ratio(incl("slope_engine.lambda_eval"),
                   calls("slope_engine.lambda_eval"), 1e-3), "us/call"),
        "slope_engine.delta_polygon.us_per_call": (
            _ratio(incl("slope_engine.delta_polygon"),
                   calls("slope_engine.delta_polygon"), 1e-3), "us/call"),
        "cli.main.calls": (calls("cli.main"), "count"),
        "cli.main.self_us_per_call": (
            _ratio(own("cli.main"), calls("cli.main"), 1e-3),
            "us/call"),
        "cli.output_bytes": (c["cli.output_bytes"], "bytes"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
    return m
