"""The three workloads of the benchmark.

Each workload has three parts:

* ``plan(rng)`` draws every input from the seed, without touching the
  library;
* ``setup(lib, plan)`` builds the library objects the queries share (rule
  tables, landscapes, families, simulation parameters and schedules); it is
  what ``setup_s`` times;
* ``queries(lib, ctx, plan)`` returns the query stream.  A query's ``run``
  looks every library function up through its module at call time, so the
  traced run sees its wrappers, and its ``check`` compares the result with
  an expectation that does not come from the code being timed: a closed
  form, a frozen gate constant, an independent oracle or a recorded digest
  of CLI output.  ``check`` returns None or a description of the failure.

Slots with a seed-drawn variant keep the cost of a stream close to the
same for every seed: the seed picks which word, landscape, state or target
a slot uses, never how many slots of each kind there are nor their order.
Every stream is shuffled by the same fixed seed, `ORDER_SEED`: which
query runs after which moves cache and allocator state, and a per-seed
order alone moved ``wall_s`` of suspension_codec by 5%.

Inputs that crash the program today (``region --trange 3..1``,
``blocking --word 2``, ``ab-run --n 20`` and the out-of-memory
``lyapunov --level 40``) are left out of every stream on purpose: they
belong to the input-validation and fuzzing work, not to this benchmark.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
import math
import os
import random
from fractions import Fraction
from typing import Callable, NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")


ORDER_SEED = 0


class Query(NamedTuple):
    kind: str
    run: Callable
    check: Callable


# ---------------------------------------------------------------------------
# CLI queries


def run_cli(lib, argv, ctx):
    """In-process ``cli.main(argv)``: (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = lib.cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
    text = out.getvalue()
    if ctx.tracer is not None:
        ctx.tracer.counts["cli.output_bytes"] += len(text.encode())
    return rc, text


def digest_key(argv) -> str:
    return " ".join(argv)


def output_digest(rc, text: str) -> list:
    return [rc, hashlib.sha256(text.encode()).hexdigest()]


@functools.cache
def recorded_digests() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def cli_query(lib, ctx, argv) -> Query:
    expected = recorded_digests()[digest_key(argv)]

    def check(result):
        rc, text = result
        got = output_digest(rc, text)
        if got != expected:
            return f"{digest_key(argv)}: rc/digest {got} != recorded {expected}"
        return None

    return Query("cli." + argv[0], lambda: run_cli(lib, argv, ctx), check)


class Context:
    """Library objects built by a workload's set-up."""

    def __init__(self, **kwargs):
        self.tracer = None
        self.__dict__.update(kwargs)


def _binary_words(length: int) -> list:
    return ["".join(w) for w in itertools.product("01", repeat=length)]


# ---------------------------------------------------------------------------
# arrow_orbits


GATE_LANDSCAPE = dict(depth=6, n=2, seed=0, lo=5000, hi=15200, start=8190)
GATE_EXTREMES_T = 10**6
GATE_EXTREMES = (13821, 8190)  # gate 03: arrow extremes within 10^6 steps
GATE_FRONTS_T = 10**5
GATE_FRONTS = (1536, 0)  # gate 04: Lambda+ and Lambda- at t = 10^5
LANDSCAPE_HALF_WIDTH = 5000
# (depth, n) of the seed-drawn landscapes
LANDSCAPE_SLOTS = ((6, 2), (6, 3), (7, 2), (7, 3), (8, 2), (8, 3), (7, 2), (8, 3))
# walk lengths of about equal cost for the two walking functions
WALK_STEPS = {"arrow_trace": 75_000, "perturbation_front": 48_000}
DENSE_COMBOS = [(n, level) for n in (1, 2, 3) for level in (3, 4)]
# a level-4 step costs twice a level-3 step, so every dense query costs
# about the same and they form one cluster of latencies
DENSE_STEPS = {3: 40, 4: 20}
DENSE_REPEATS = 7
AB_CROSS_MENU = [
    ["ab-cross", "--n", "1..3", "--level", "0..2"],
    ["ab-cross", "--n", "1..4", "--level", "0..1"],
    ["ab-cross", "--n", "2", "--level", "0..2", "--csv"],
    ["ab-cross", "--n", "1", "--level", "0..3"],
    ["ab-cross", "--n", "1..2", "--level", "2", "--csv"],
    ["ab-cross", "--n", "3..4", "--level", "0..1", "--csv"],
]


# n = 1 diagrams of equal cost: level-3 blocks 91 cells wide for 40 steps,
# level-4 blocks 187 cells wide for 20 steps
AB_RUN_MENU = [
    ["ab-run", "--n", "1", "--level", str(level), "--steps", str(steps),
     "--format", fmt]
    for level, steps in ((3, 40), (4, 20))
    for fmt in ("txt", "pgm")
]
AB_RUN_SLOTS = 12


def crossing_steps(k: int, n: int) -> int:
    """Closed form of the crossing time of block(k, n), the solution of
    a_0 = 6n+4, a_(k+1) = (4n+2) a_k + 6n+4: level 1 takes 24n^2+34n+12
    steps, and n = 2 gives 16, 176, 1776, 17776, 177776."""
    return (6 * n + 4) * sum((4 * n + 2) ** j for j in range(k + 1))


def plan_arrow(rng) -> dict:
    landscapes = [
        dict(depth=depth, n=n, seed=rng.randrange(1, 2**31), facing=rng.choice((1, -1)))
        for depth, n in LANDSCAPE_SLOTS
    ]
    ab_run = [rng.choice(AB_RUN_MENU) for _ in range(AB_RUN_SLOTS)]
    return dict(landscapes=landscapes, cli=ab_run + AB_CROSS_MENU * 2)


def setup_arrow(lib, plan) -> Context:
    ab, sc = lib.ab, lib.sc
    systems = {n: ab.build_rule(n) for n in (1, 2, 3)}
    inverses = {n: ab.build_inverse_rule(n) for n in (1, 2, 3)}
    g = GATE_LANDSCAPE
    gate = ab.hierarchical_arrangement(g["depth"], g["n"], seed=g["seed"])
    gate_cfg = gate.configuration(g["lo"], g["hi"], arrow_at=g["start"], facing=1)
    walks = []
    for spec in plan["landscapes"]:
        arr = ab.hierarchical_arrangement(spec["depth"], spec["n"], seed=spec["seed"])
        start = 2 * arr.free_cell
        cfg = arr.configuration(
            start - LANDSCAPE_HALF_WIDTH, start + LANDSCAPE_HALF_WIDTH,
            arrow_at=start, facing=spec["facing"],
        )
        walks.append((spec, start, cfg))
    blocks = {
        (n, level): sc.Padded(
            systems[n].alphabet,
            (ab.ARROW_RIGHT, ab.BLANK) + ab.make_block(level, n).word,
            ab.BLANK,
            anchor=-2,
        )
        for n, level in DENSE_COMBOS
    }
    return Context(systems=systems, inverses=inverses, gate_cfg=gate_cfg,
                   walks=walks, blocks=blocks)


def _displacement_problem(positions, start: int) -> str | None:
    """Displacement <= 300*log2(t+2), checked on doubling chunks of time:
    the largest displacement for t in [lo, 2*lo) against the bound at lo,
    the smallest bound of the chunk."""
    t, lo = 1, 0
    while lo < len(positions):
        hi = min(len(positions), 2 * t)
        chunk = positions[lo:hi]
        disp = max(max(chunk) - start, start - min(chunk))
        if disp > 300 * math.log2(lo + 2):
            return f"displacement {disp} by t={hi - 1} exceeds 300*log2(t+2)"
        lo, t = hi, hi
    return None


def queries_arrow(lib, ctx, plan) -> list:
    out = []
    for k in range(5):
        for n in range(1, 5):
            def check(rep, k=k, n=n):
                want = crossing_steps(k, n)
                if not rep.restored or rep.steps != want:
                    return f"crossing k={k} n={n}: {rep.steps} steps, want {want}"
                return None
            out.append(Query("run_crossing",
                             lambda k=k, n=n: lib.ab.run_crossing(k, n), check))

    g = GATE_LANDSCAPE

    def gate_extremes(tr):
        ps = tr.positions
        got = (max(ps), min(ps))
        if tr.stuck_at is not None or len(ps) != GATE_EXTREMES_T + 1:
            return "gate landscape walk stopped early"
        if got != GATE_EXTREMES:
            return f"gate extremes {got} != {GATE_EXTREMES}"
        return None

    out.append(Query(
        "arrow_trace.gate",
        lambda: lib.ab.arrow_trace(ctx.gate_cfg, ctx.systems[2], GATE_EXTREMES_T),
        gate_extremes,
    ))

    def gate_fronts(fronts):
        right, left = fronts
        got = (right[-1] - g["start"], g["start"] - left[-1])
        return None if got == GATE_FRONTS else f"gate fronts {got} != {GATE_FRONTS}"

    out.append(Query(
        "perturbation_front.gate",
        lambda: lib.ab.perturbation_front(ctx.gate_cfg, g["n"], GATE_FRONTS_T),
        gate_fronts,
    ))

    def trace_check(tr, start, t):
        ps = tr.positions
        if tr.stuck_at is not None or len(ps) != t + 1:
            return f"walk of {t} steps stopped at {len(ps) - 1}"
        if max(abs(min(ps) - start), abs(max(ps) - start)) > LANDSCAPE_HALF_WIDTH - 300:
            return "walk came within 300 cells of the materialized edge"
        return _displacement_problem(ps, start)

    def front_check(fronts, start, t):
        right, left = fronts
        if len(right) != t + 1 or right != sorted(right) or left != sorted(left, reverse=True):
            return "fronts are not monotone over the whole horizon"
        extent = max(right[-1] - start, start - left[-1])
        if extent > 300 * math.log2(t + 2) or extent > 0.05 * t:
            return f"front extent {extent} at t={t} is not logarithmic"
        return None

    for spec, start, cfg in ctx.walks:
        n = spec["n"]
        t = WALK_STEPS["arrow_trace"]
        out.append(Query(
            "arrow_trace",
            lambda cfg=cfg, n=n, t=t: lib.ab.arrow_trace(cfg, ctx.systems[n], t),
            functools.partial(trace_check, start=start, t=t),
        ))
        t = WALK_STEPS["perturbation_front"]
        out.append(Query(
            "perturbation_front",
            lambda cfg=cfg, n=n, t=t: lib.ab.perturbation_front(cfg, n, t),
            functools.partial(front_check, start=start, t=t),
        ))

    for n, level in DENSE_COMBOS:
        # the sparse walker is the oracle of the dense cell map
        steps = DENSE_STEPS[level]
        walk = lib.ab.walk_from_configuration(ctx.blocks[n, level], n)
        for _ in range(steps):
            walk.step()
        want = lib.ab.walk_to_configuration(walk, ctx.systems[n].alphabet)

        def dense_check(final, n=n, level=level, want=want):
            if final != want:
                return f"dense orbit n={n} level={level} differs from the walker"
            return None

        dense = Query(
            "orbit.dense",
            lambda n=n, level=level, steps=steps: lib.sc.orbit(
                ctx.systems[n].rule, ctx.blocks[n, level], steps)[-1],
            dense_check,
        )
        out += [dense] * DENSE_REPEATS

        def there_and_back(n=n, level=level, steps=steps):
            cfg = lib.sc.orbit(ctx.systems[n].rule, ctx.blocks[n, level], steps)[-1]
            return lib.sc.orbit(ctx.inverses[n], cfg, steps)[-1]

        out.append(Query(
            "orbit.reversal",
            there_and_back,
            lambda back, n=n, level=level: None if back == ctx.blocks[n, level]
            else f"the inverse rule does not undo the n={n} level={level} orbit",
        ))

    out += [cli_query(lib, ctx, argv) for argv in plan["cli"]]
    random.Random(ORDER_SEED).shuffle(out)
    return out


def cli_menu_arrow() -> list:
    return AB_RUN_MENU + AB_CROSS_MENU


# ---------------------------------------------------------------------------
# pair_scans


SHIFTS = (1, -1, 2, -2)
INJECTIVITY_SCANS = ((1, range(1, 6)), (2, range(1, 5)))
REGION_FAMILY_CMAX = 20
REGION_EXTENT = (4, 12)  # |t| <= 4, |i| <= 12, as in gate 05
LYAPUNOV_FAMILY_CMAX = 2
# a range-2 step costs about 1.5 range-1 steps: equal-cost horizons
LYAPUNOV_T = {1: 150, 2: 100}
LYAPUNOV_REPEATS = 4
SHIFT_PAIRS = 84


def _partner(word: str) -> str:
    """The word of length 7 - len(word) that a CLI query checks next to
    `word`, so that every two-word query costs the same."""
    return (word[::-1] * 7)[: 7 - len(word)]


def blocking_cli_menu() -> list:
    menu = []
    for length in (1, 2, 3):
        for w in _binary_words(length):
            pair = ["--word", w, "--word", _partner(w)]
            menu.append(["blocking", "--rule", "identity", *pair, "--tmax", "200"])
            for d in (1, -1):
                menu.append(["blocking", "--rule", "shift", "--d", str(d), *pair,
                             "--tmax", "20"])
    return menu


LYAPUNOV_SHIFT_MENU = [
    ["lyapunov", "--system", "shift", "--d", str(d), "--tmax", "100"] for d in SHIFTS
] + [["lyapunov", "--system", "identity", "--tmax", "100"]]
REGION_MENU = [
    ["region", "--rule", "shift", "--d", str(d), "--n", str(n)]
    for d in (0, 1, 2)
    for n in range(1, 5)
]


def _word(rng, length: int, padded_end: bool = False) -> str:
    """A seed-drawn binary word whose cost depends on its slot only.

    A framed word starts and ends with the non-pad symbol 1 and keeps its
    length inside a padded configuration.  A word with a padded end has the
    pad symbol 0 at one seed-chosen end and a framed core one cell shorter,
    to which the padded configuration trims it.  A free draw could trim to
    any core length, and a shorter core scans up to a third faster."""
    if padded_end:
        core = _word(rng, length - 1) if length > 1 else ""
        return "0" + core if rng.random() < 0.5 else core + "0"
    inner = "".join(rng.choice("01") for _ in range(length - 2))
    return "1" if length == 1 else "1" + inner + "1"


def plan_pairs(rng) -> dict:
    # words travel in pairs of lengths L and 7 - L, so every pair costs the
    # same; the identity pairs use two words of each length 1..6.  Half the
    # identity pairs have padded ends, and so do half the shift pairs of
    # lengths 2..5: those cost less than the framed pairs of lengths 1 and 6,
    # the most expensive shift pairs, among which the p50 falls
    ident_pairs = [
        (_word(rng, L, j >= 3), _word(rng, 7 - L, j >= 3))
        for j, L in enumerate((1, 2, 3) * 2)
    ]
    shift_pairs = [
        (_word(rng, L, padded), _word(rng, 7 - L, padded))
        for j in range(SHIFT_PAIRS)
        for L in [j % 6 + 1]
        for padded in [L not in (1, 6) and j // 6 % 2 == 1]
    ]
    cli = []
    for L in (1, 2, 3):
        w = rng.choice(_binary_words(L))
        cli.append(["blocking", "--rule", "identity", "--word", w, "--word",
                    _partner(w), "--tmax", "200"])
        w = rng.choice(_binary_words(L))
        cli.append(["blocking", "--rule", "shift", "--d", str(rng.choice((1, -1))),
                    "--word", w, "--word", _partner(w), "--tmax", "20"])
    cli += [rng.choice(LYAPUNOV_SHIFT_MENU[:4]) for _ in range(6)]
    cli += [LYAPUNOV_SHIFT_MENU[4]] * 2 + REGION_MENU
    return dict(
        ident_pairs=ident_pairs,
        shift_pairs=shift_pairs,
        region_extra=[tuple(_word(rng, 5)) for _ in range(2)],
        lyapunov_extra=[tuple(_word(rng, 3))],
        cli=cli,
    )


def setup_pairs(lib, plan) -> Context:
    sc, da = lib.sc, lib.da
    binary = sc.Alphabet(("0", "1"))
    identity = sc.identity_rule(binary)
    shifts = {d: sc.shift_rule(binary, d) for d in (-2, -1, 0, 1, 2)}
    words = {w for pair in plan["ident_pairs"] + plan["shift_pairs"] for w in pair}
    families = {
        w: da.embedded_word_family(binary, [tuple(w)], "0") for w in sorted(words)
    }
    return Context(
        identity=identity,
        shifts=shifts,
        families=families,
        region_family=da.padded_scale_family(
            binary, REGION_FAMILY_CMAX, "0", plan["region_extra"]),
        lyapunov_family=da.padded_scale_family(
            binary, LYAPUNOV_FAMILY_CMAX, "0", plan["lyapunov_extra"]),
    )


def queries_pairs(lib, ctx, plan) -> list:
    out = []
    def verdicts(rule, pair, t_max):
        return [
            lib.da.blocking_word_search(rule, ctx.families[w], len(w), t_max, [tuple(w)])
            for w in pair
        ]

    def blocks(reports):
        for (rep,) in reports:
            v = rep.verdict
            if type(v).__name__ != "BlockingUpTo" or v.t_max != 1000:
                return f"identity fails to block {rep.word} up to t=1000: {v}"
        return None

    def refuted(reports):
        for (rep,) in reports:
            v = rep.verdict
            if type(v).__name__ != "RefutedAt" or v.t > 7:
                return f"shift not refuted on {rep.word} by t=7: {v}"
        return None

    for pair in plan["ident_pairs"]:
        out.append(Query(
            "blocking_word_search.identity",
            lambda pair=pair: verdicts(ctx.identity, pair, 1000),
            blocks,
        ))
    for pair in plan["shift_pairs"]:
        out.append(Query(
            "blocking_word_search.shift",
            lambda pair=pair: verdicts(ctx.shifts[1], pair, 7),
            refuted,
        ))
    for d in SHIFTS * LYAPUNOV_REPEATS:
        t_max = LYAPUNOV_T[abs(d)]

        def exponents(est, d=d, t_max=t_max):
            # the d-fold shift carries every difference |d| cells per step
            plus = tuple(max(0, -d) * t for t in range(t_max + 1))
            minus = tuple(max(0, d) * t for t in range(t_max + 1))
            if est.truncated or est.lambda_plus != plus or est.lambda_minus != minus:
                return f"shift d={d} exponents are not (|d| t, 0) up to t={t_max}"
            return None

        out.append(Query(
            "lyapunov_profile",
            lambda d=d, t_max=t_max: lib.da.lyapunov_profile(
                ctx.shifts[d], ctx.lyapunov_family, t_max),
            exponents,
        ))
    te, ie = REGION_EXTENT
    for d, n in itertools.product((0, 1, 2), range(1, 5)):

        def band(region, d=d, n=n):
            want = {
                (i, t)
                for t in range(-te, te + 1)
                for i in range(-ie, ie + 1)
                if abs(i + d * t) <= n
            }
            if region.cells != want:
                return f"shift d={d} n={n} region is not the band |i+dt| <= n"
            return None

        out.append(Query(
            "determined_region",
            lambda d=d, n=n: lib.da.determined_region(
                ctx.shifts[d], ctx.region_family, n, (-te, te), (-ie, ie),
                ctx.shifts[-d]),
            band,
        ))
    for n, periods in INJECTIVITY_SCANS:
        def injective(rep, n=n):
            if rep.points == 0 or rep.collisions_with_only_mobile_members():
                return f"n={n} scan has a collision among mobile points"
            return None

        out.append(Query(
            "scan_periodic_injectivity",
            lambda n=n, periods=periods: lib.ab.scan_periodic_injectivity(n, periods),
            injective,
        ))
    out += [cli_query(lib, ctx, argv) for argv in plan["cli"]]
    random.Random(ORDER_SEED).shuffle(out)
    return out


def cli_menu_pairs() -> list:
    return blocking_cli_menu() + LYAPUNOV_SHIFT_MENU + REGION_MENU


# ---------------------------------------------------------------------------
# suspension_codec


# (simulated map, W, D); each schedule uses the smallest block that holds
# its program layer
SIMULATIONS = (
    ("identity", 1, 0),
    ("identity", 2, 1),
    ("identity", 1, -1),
    ("flip", 1, 0),
    ("flip", 2, -1),
    ("shift", 1, 1),
)
ROUND_TRIPS = 72
ORBITS = 20
TOWERS = 24
TAMPERS = 2
# each target is realized at two depths that add up to 60, which keeps
# every realize query above the round-trip cluster whatever the target
REALIZE_DEPTHS = (20, 25, 30)
ORBIT_STEPS = 8
REALIZE_MENU = [
    ["realize", f"--theta={theta}", "--depth", str(depth)]
    for theta in ("1/3", "-2/7", "2071/5000", "0", "13/17", "-5/9", "1/2",
                  "-1/3", "3/10", "-7/11", "99/100", "-41/43")
    for depth in (20, 30)
]
TOWER_MENU = [
    ["tower", "--levels", levels]
    for levels in (
        "64,2,1;32,2,1;8,2,1",
        "128,1,-1;48,2,0;8,1,1",
        "96,3,2;40,1,-2;12,2,0",
        "160,2,0;64,2,1",
        "72,1,1;28,1,1;6,1,0",
        "24,2,-1;6,2,1",
    )
]


def _word_map(kind: str, word: tuple) -> tuple:
    """The simulated maps as word functions, written out independently of
    the rule tables: identity, bit flip, and the left shift x[i] -> x[i+1]."""
    if kind == "identity":
        return word
    if kind == "flip":
        return tuple("1" if s == "0" else "0" for s in word)
    return word[1:] + word[:1]


def _rotate(word: tuple, k: int) -> tuple:
    k %= len(word)
    return word[k:] + word[:k]


def tower_cycle_length(n: int, b: int, w: int, d: int, entries: int = 0):
    """Cycle length T = (B + C)(1 + W + |D|) of a tower level over an
    n-symbol alphabet, or None when B cannot hold the program layer and two
    data words."""
    bits = max(1, (n - 1).bit_length())
    if b < entries * (5 * bits + 1) + w + abs(d) + 2 or b < 2 * bits:
        return None
    overhead = 3 * (2 * bits + 2) + entries * (6 * bits + 2) + 2 + 2
    return (b + overhead) * (1 + w + abs(d))


def tower_oracle(levels, n: int, points: int):
    """(cycle lengths outermost first, state count |points| * prod(B*T))."""
    lengths = []
    count = points
    for b, w, d in reversed(levels):
        t = tower_cycle_length(n, b, w, d)
        if t is None:
            return None
        lengths.append(t)
        count *= b * t
        n *= b * t
    return lengths[::-1], count


TOWER_BASE_POINTS = 5  # the CLI default base: binary points of period <= 2


def plan_suspension(rng) -> dict:
    def state(k, period):
        return (k, period, rng.random(), rng.random(), rng.random())

    # every query covers every simulation with two states whose periods add
    # up to 7, so all queries of a kind cost the same
    round_trips = [
        [state(k, p) for k in range(len(SIMULATIONS)) for p in (1 + j % 6, 6 - j % 6)]
        for j in range(ROUND_TRIPS)
    ]
    orbits = [
        [state(k, p) + (rng.randrange(1, ORBIT_STEPS + 1),)
         for k in range(len(SIMULATIONS)) for p in (3, 4)]
        for _ in range(ORBITS)
    ]
    tampers = [[state(k, 4) for k in range(len(SIMULATIONS))] for _ in range(TAMPERS)]
    targets = []
    for depth in REALIZE_DEPTHS * 4:
        den = rng.randrange(2, 200)
        targets.append((Fraction(rng.randrange(-den + 1, den), den), depth))
    towers = []
    while len(towers) < TOWERS:
        levels = [
            (rng.randrange(96, 161), rng.randrange(1, 4), rng.randrange(-2, 3)),
            (rng.randrange(32, 65), rng.randrange(1, 4), rng.randrange(-2, 3)),
            (rng.randrange(4, 17), rng.randrange(1, 4), rng.randrange(-2, 3)),
        ]
        if tower_oracle(levels, 2, TOWER_BASE_POINTS) is not None:
            towers.append(levels)
    cli = [rng.choice(REALIZE_MENU[depth::2]) for depth in (0, 1) * 6]
    cli += [rng.choice(TOWER_MENU) for _ in range(6)]
    return dict(round_trips=round_trips, orbits=orbits, tampers=tampers,
                targets=targets, towers=towers, cli=cli)


def setup_suspension(lib, plan) -> Context:
    sc, da, cm = lib.sc, lib.da, lib.cm
    binary = sc.Alphabet(("0", "1"))
    identity = sc.identity_rule(binary)
    flip = sc.LocalRule(binary, 0, {("0",): "1", ("1",): "0"}, "total")
    maps = {
        "identity": (identity, identity),
        "flip": (flip, flip),
        "shift": (sc.shift_rule(binary, 1), sc.shift_rule(binary, -1)),
    }
    points = da.periodic_family(binary, 6)
    sims = []
    for kind, w, d in SIMULATIONS:
        phi, phi_inv = maps[kind]
        entries = len(set(phi.table) | set(phi_inv.table))
        b = cm.min_block_length(len(binary), entries, w, d)
        p = cm.SimParams(phi, phi_inv, points, b, w, d)
        sched = cm.build_schedule(p)
        cm.encoding_alphabet(p, sched)
        sims.append((kind, p, sched))
    by_period = {}
    for y in points:
        by_period.setdefault(y.period, []).append(y)
    base = cm.SimParams(identity, identity, da.periodic_family(binary, 2), 4, 1, 0)
    return Context(sims=sims, by_period=by_period, tower_base=base)


def _pick(seq, u: float):
    return seq[int(u * len(seq))]


def queries_suspension(lib, ctx, plan) -> list:
    def states(specs):
        out = []
        for k, period, u, ub, ut, *rest in specs:
            kind, p, sched = ctx.sims[k]
            y = _pick(ctx.by_period[period], u)
            out.append((kind, p, sched, y, int(ub * p.B), int(ut * sched.T), *rest))
        return out

    out = []
    for specs in plan["round_trips"]:
        cases = [(p, sched, lib.cm.SuspensionState(y, b, t))
                 for kind, p, sched, y, b, t in states(specs)]

        def round_trip(cases=cases):
            cm = lib.cm
            rows = []
            for p, sched, s in cases:
                back = cm.decode(cm.encode(s, p, sched), p, sched)
                one = cm.step_suspension(s, "sigma", p, sched)
                two = cm.step_suspension(s, "phi", p, sched)
                rows.append((
                    back,
                    cm.step_suspension(one, "phi", p, sched),
                    cm.step_suspension(two, "sigma", p, sched),
                    cm.step_suspension(one, "sigma_inv", p, sched),
                    cm.step_suspension(two, "phi_inv", p, sched),
                ))
            return rows

        def laws(rows, cases=cases):
            for (_, _, s), (back, sp, ps, s_back, p_back) in zip(cases, rows):
                if back != s:
                    return f"decode(encode(s)) != s at {s}"
                if sp != ps:
                    return f"sigma and phi do not commute at {s}"
                if s_back != s or p_back != s:
                    return f"an inverse generator fails at {s}"
            return None

        out.append(Query("encode_decode", round_trip, laws))

    for specs in plan["orbits"]:
        # start close enough to the end of the cycle that the wrap fires
        cases = [(kind, p, sched, lib.cm.SuspensionState(y, b, sched.T - back))
                 for kind, p, sched, y, b, _, back in states(specs)]

        def orbit(cases=cases):
            cm = lib.cm
            ends = []
            for _, p, sched, start in cases:
                c = cm.encode(start, p, sched)
                for _ in range(ORBIT_STEPS):
                    c = cm.pi_on_encoded(c, p, sched)
                ends.append(cm.decode(c, p, sched))
            return ends

        def cycle_law(ends, cases=cases):
            for (kind, p, sched, start), s in zip(cases, ends):
                word = start.y.word
                for j in range(ORBIT_STEPS):
                    if (start.t + j) % sched.T == 0:
                        word = _rotate(_word_map(kind, word), p.D)
                want = (word, start.b, (start.t + ORBIT_STEPS) % sched.T)
                if (s.y.word, s.b, s.t) != want:
                    return f"pi orbit of {kind} lands on {(s.y.word, s.b, s.t)}, want {want}"
            return None

        out.append(Query("pi_on_encoded", orbit, cycle_law))

    for specs in plan["tampers"]:
        cases = [(p, sched, lib.cm.SuspensionState(y, b, t))
                 for kind, p, sched, y, b, t in states(specs)]

        def tampered(cases=cases):
            cm = lib.cm
            verdicts = []
            for p, sched, s in cases:
                c = cm.encode(s, p, sched)
                cells = list(c.word)
                # flip the first bit of the previous word of the block at 0
                i = (p.word_bits - s.b) % p.B
                blk, prog, data, token = cells[i]
                cells[i] = (blk, prog, "1" if data == "0" else "0", token)
                try:
                    cm.decode(lib.sc.Periodic(c.alphabet, cells), p, sched)
                    verdicts.append("accepted")
                except cm.MalformedConfiguration:
                    verdicts.append("rejected")
            return verdicts

        out.append(Query(
            "decode.tampered", tampered,
            lambda verdicts: None if set(verdicts) == {"rejected"}
            else "decode accepted a corrupted previous word",
        ))

    for theta, depth in plan["targets"]:
        depths = (depth, 60 - depth)

        def realize(theta=theta, depths=depths):
            se = lib.se
            results = []
            for depth in depths:
                prog = se.realize_slope(theta, depth)
                lam, bound = se.lambda_eval(prog)
                results.append((lam, bound, se.delta_polygon(prog, depth)))
            return results

        def converges(results, theta=theta, depths=depths):
            for depth, (lam, bound, poly) in zip(depths, results):
                if bound > Fraction(1, 2**depth) or abs(lam - theta) > bound:
                    return f"theta={theta} depth={depth}: |lambda-theta| <= bound <= 2^-depth fails"
                x, y = poly.vertices[1]
                if y < 2**depth or x != lam * y:
                    return f"theta={theta} depth={depth}: polygon apex off the slope line"
            return None

        out.append(Query("realize_slope", realize, converges))

    for levels in plan["towers"]:
        want_lengths, want_count = tower_oracle(levels, 2, TOWER_BASE_POINTS)

        def counted(rep, levels=levels, want=(want_lengths, want_count)):
            got = ([s.T for s in rep.schedules], rep.state_count)
            if got != want:
                return f"tower {levels}: (T, states) {got} != {want}"
            return None

        out.append(Query(
            "tower",
            lambda levels=levels: lib.cm.tower(
                [lib.cm.TowerLevel(*lv) for lv in levels], ctx.tower_base),
            counted,
        ))

    out += [cli_query(lib, ctx, argv) for argv in plan["cli"]]
    random.Random(ORDER_SEED).shuffle(out)
    return out


def cli_menu_suspension() -> list:
    return REALIZE_MENU + TOWER_MENU


# ---------------------------------------------------------------------------


class Workload(NamedTuple):
    name: str
    plan: Callable
    setup: Callable
    queries: Callable
    cli_menu: Callable


# why each workload was chosen is in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("arrow_orbits", plan_arrow, setup_arrow, queries_arrow,
                 cli_menu_arrow),
        Workload("pair_scans", plan_pairs, setup_pairs, queries_pairs,
                 cli_menu_pairs),
        Workload("suspension_codec", plan_suspension, setup_suspension,
                 queries_suspension, cli_menu_suspension),
    )
}
