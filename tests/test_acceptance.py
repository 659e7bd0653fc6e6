"""End-to-end gates for the whole package.

Each test covers one headline property, prints exactly one verdict line
(criterion NN: PASS/FAIL with a short summary) and fails on any violation.
The frozen constants are regression teeth: every one of them was measured
from this code base and double-checked against the closed forms or
independent brute-force oracles in the per-module test files.
"""

import itertools
import math
from fractions import Fraction

import pytest

from expansive_lab.arrow_bracket import (
    BLANK,
    ArrowWalk,
    build_inverse_rule,
    build_rule,
    canonical_point,
    enumerate_L,
    hierarchical_arrangement,
    is_arrow,
    is_bracket,
    level_alphabet,
    make_block,
    perturbation_front,
    run_crossing,
    scan_periodic_injectivity,
)
from expansive_lab.cycle_machine import (
    SimParams,
    SuspensionState,
    TowerLevel,
    build_schedule,
    decode,
    encode,
    idealized_schedule,
    pi_inv_on_encoded,
    pi_on_encoded,
    shape_transform,
    step_suspension,
    tower,
)
from expansive_lab.dynamics_analysis import (
    BlockingUpTo,
    RefutedAt,
    blocking_word_search,
    determined_region,
    embedded_word_family,
    padded_scale_family,
    periodic_family,
    profile_from_fronts,
)
from expansive_lab.shift_core import (
    Alphabet,
    Periodic,
    agree_on,
    apply_rule,
    identity_rule,
    shift_rule,
)
from expansive_lab.slope_engine import delta_polygon, lambda_eval, realize_slope

BINARY = Alphabet(("0", "1"))


def _verdict(num: int, problems: list, summary: str):
    status = "FAIL" if problems else "PASS"
    detail = "; ".join(problems) if problems else summary
    print(f"criterion {num:02d}: {status} ({detail})")
    assert not problems, f"criterion {num:02d}: {detail}"


def test_criterion_01_crossing_time_laws():
    problems = []
    level0 = {n: run_crossing(0, n).steps for n in range(1, 9)}
    c0 = level0[1] - 6
    if any(level0[n] != 6 * n + c0 for n in level0):
        problems.append(f"level-0 steps not affine in n: {level0}")
    if abs(c0) > 6:
        problems.append(f"level-0 constant {c0} out of range")

    level1 = {n: run_crossing(1, n).steps for n in range(1, 12)}
    coarse = {n: 2 * n * (5 + 12 * n) for n in level1}
    surplus = {n: level1[n] - coarse[n] for n in level1}
    slope = surplus[2] - surplus[1]
    base = surplus[1] - slope
    if any(surplus[n] != slope * n + base for n in surplus):
        problems.append(f"level-1 surplus not linear in n: {surplus}")
    ratios = [level1[n] / coarse[n] for n in sorted(level1)]
    if any(a <= b for a, b in zip(ratios, ratios[1:])):
        problems.append("level-1 ratio to the back-and-forth count not decreasing")
    if ratios[-1] > 1.1:
        problems.append(f"ratio still {ratios[-1]:.3f} at n=11")
    _verdict(
        1,
        problems,
        f"level-0 steps = 6n+{c0}; level-1 surplus over 2n(5+12n) is "
        f"{slope}n+{base}, ratio {ratios[3]:.3f} at n=4 falling to "
        f"{ratios[-1]:.3f} at n=11",
    )


def test_criterion_02_restoration_and_reversibility():
    problems = []
    for n in range(1, 5):
        for k in range(4):
            if not run_crossing(k, n).restored:
                problems.append(f"crossing k={k} n={n} did not restore")

    # exhaustive periodic scan at small periods: the one collision mode is a
    # mobile point stepping onto a stuck fixed point
    for n, max_p in ((1, 7), (2, 6)):
        report = scan_periodic_injectivity(n, range(1, max_p + 1))
        if report.points < 4000:
            problems.append(f"n={n} scan unexpectedly small: {report.points}")
        if report.collisions_with_only_mobile_members():
            problems.append(f"n={n} has a collision among mobile points")

    # structured period-24 sweep: crossing snapshots of levels 0 and 1 padded
    # to one period, plus every single-bracket variant, with an inverse
    # certificate on each mobile point
    for n in (1, 2):
        system = build_rule(n)
        inverse = build_inverse_rule(n)
        brackets = [s for s in level_alphabet(n) if is_bracket(s)]
        words = set()
        for k in (0, 1):
            for w in enumerate_L(k, n).words:
                base = w + (BLANK,) * (24 - len(w))
                words.add(canonical_point(base))
                for i, s in enumerate(base):
                    if is_bracket(s):
                        words.update(
                            canonical_point(base[:i] + (alt,) + base[i + 1 :])
                            for alt in brackets
                            if alt != s
                        )
        images: dict = {}
        mobile = 0
        for w in sorted(words):
            y = apply_rule(system.rule, Periodic(system.alphabet, w))
            if sum(map(is_arrow, y.word)) != sum(map(is_arrow, w)):
                problems.append(f"n={n} arrow count changed on {w}")
            stuck = y.word == w
            if not stuck:
                mobile += 1
                if apply_rule(inverse, y).word != w:
                    problems.append(f"n={n} inverse fails on {w}")
            images.setdefault(canonical_point(y.word), []).append(stuck)
        if mobile < 4000:
            problems.append(f"n={n} period-24 sweep too small: {mobile}")
        for group in images.values():
            if len(group) > 1 and not any(group):
                problems.append(f"n={n} period-24 collision among mobile points")
                break
    _verdict(
        2,
        problems,
        "crossings restore for k<=3 n<=4; every image collision over "
        "periods <=6/7 and the structured period-24 family involves a stuck "
        "point, and the inverse rule undoes each mobile point",
    )


def _landscape():
    arr = hierarchical_arrangement(6, 2, seed=0)
    plain_lo, plain_hi = 2500, 7600
    return arr, 2 * plain_lo, 2 * plain_hi, 2 * arr.free_cell


def test_criterion_03_logarithmic_propagation():
    problems = []
    arr, lo, hi_edge, start = _landscape()
    brackets = {
        i: s
        for i in range(lo, hi_edge + 1)
        if (s := arr.lifted_symbol(i)) != BLANK
    }
    walk = ArrowWalk(2, brackets, start, +1)
    hi = lo_pos = start
    fitted = 0.0
    for t in range(1, 10**6 + 1):
        if not walk.step():
            problems.append(f"arrow stuck at t={t}")
            break
        hi = max(hi, walk.pos)
        lo_pos = min(lo_pos, walk.pos)
        disp = max(hi - start, start - lo_pos)
        fitted = max(fitted, disp / math.log2(t + 2))
    if (hi, lo_pos) != (13821, 8190):
        problems.append(f"travel extremes changed: {(hi, lo_pos)}")
    if hi > hi_edge - 300 or lo_pos < lo + 300:
        problems.append("orbit ran within 300 cells of the materialized edge")
    disp = max(hi - start, start - lo_pos)
    if disp < 200:
        problems.append(f"displacement {disp} below 200")
    for k in range(1, 5):
        if disp <= make_block(k, 2).width:
            problems.append(f"displacement never cleared a level-{k} block")
    if fitted > 300:
        problems.append(f"fitted log coefficient {fitted:.2f} above 300")
    _verdict(
        3,
        problems,
        f"10^6 steps stay within {disp} cells of the start, past every "
        f"block width up to level 4, with displacement <= C*log2(t+2) "
        f"for C = {fitted:.2f}",
    )


def test_criterion_04_propagation_exponents_vanish():
    problems = []
    arr, lo, hi, start = _landscape()
    cfg = arr.configuration(lo, hi, arrow_at=start, facing=1)
    t_max = 10**5
    right, left = perturbation_front(cfg, 2, t_max)
    est = profile_from_fronts(right, left, horizon=10**6)
    if any(a > b for a, b in zip(est.lambda_plus, est.lambda_plus[1:])):
        problems.append("Lambda_plus not nondecreasing")
    if any(a > b for a, b in zip(est.lambda_minus, est.lambda_minus[1:])):
        problems.append("Lambda_minus not nondecreasing")
    if (est.lambda_plus[t_max], est.lambda_minus[t_max]) != (1536, 0):
        problems.append(
            f"front extents changed: {est.lambda_plus[t_max]}, "
            f"{est.lambda_minus[t_max]}"
        )
    if est.ratio_plus(t_max) > 0.05 or est.ratio_minus(t_max) > 0.05:
        problems.append("a front ratio exceeds 0.05 at t = 10^5")
    _verdict(
        4,
        problems,
        f"Lambda+/t = {est.ratio_plus(t_max):.5f} and Lambda-/t = "
        f"{est.ratio_minus(t_max):.5f} at t = 10^5, both fronts monotone",
    )


def test_criterion_05_determined_region_bands():
    problems = []
    family = padded_scale_family(BINARY, 20, "0")
    for d in (0, 1, 2):
        rule = shift_rule(BINARY, d)
        inverse = shift_rule(BINARY, -d)
        for n in range(1, 5):
            region = determined_region(
                rule, family, n, (-4, 4), (-12, 12), inverse=inverse
            )
            band = {
                (i, t)
                for t in range(-4, 5)
                for i in range(-12, 13)
                if abs(i + d * t) <= n
            }
            if region.cells != band:
                problems.append(f"d={d} n={n} region is not the band")
    _verdict(
        5,
        problems,
        "for the d-fold shift the forced cells are exactly |i+dt| <= n "
        "over d <= 2, n <= 4, |t| <= 4",
    )


def test_criterion_06_range_one_diamond():
    problems = []
    family = padded_scale_family(BINARY, 20, "0")
    n = 6
    region = determined_region(
        shift_rule(BINARY, 1),
        family,
        n,
        (-6, 6),
        (-12, 12),
        inverse=shift_rule(BINARY, -1),
    )
    diamond = {
        (i, t)
        for t in range(-6, 7)
        for i in range(-12, 13)
        if abs(i) + abs(t) <= n
    }
    missing = diamond - region.cells
    if missing:
        problems.append(f"diamond cells missing from the region: {sorted(missing)[:5]}")
    _verdict(
        6,
        problems,
        "every cell of the full diamond |i|+|t| <= 6 is forced for an "
        "invertible range-1 rule, so the scaled hull contains the diamond "
        "with vertices (+-1,0) and slope +-1 sides",
    )


def _suspension_instances():
    ident = identity_rule(BINARY)
    points = periodic_family(BINARY, 6)
    real, ideal = [], []
    for b in range(1, 13):
        for w in (1, 2):
            for d in (-1, 0, 1):
                try:
                    p = SimParams(ident, ident, points, b, w, d)
                    sched = build_schedule(p)
                except Exception:
                    continue
                if sched.T <= 60:
                    real.append((p, sched))
    for b, w, d in ((1, 1, 0), (5, 4, 3), (12, 2, -2), (12, 1, 0), (7, 3, 1)):
        sched = idealized_schedule(b, w, d)
        if sched.T <= 60:
            ideal.append((SimParams(ident, ident, points, b, w, d), sched))
    return real, ideal


def test_criterion_07_suspension_laws_and_encoding():
    problems = []
    real, ideal = _suspension_instances()
    if len(real) < 10 or len(ideal) < 4:
        problems.append(f"instance grid too small: {len(real)} real, {len(ideal)} idealized")
    checked = 0
    for p, sched in real + ideal:
        for y in p.points:
            for b in range(p.B):
                for t in range(sched.T):
                    s = SuspensionState(y, b, t)
                    one = step_suspension(s, "sigma", p, sched)
                    two = step_suspension(s, "phi", p, sched)
                    if step_suspension(one, "phi", p, sched) != step_suspension(
                        two, "sigma", p, sched
                    ):
                        problems.append(f"maps do not commute at {s}")
                    if step_suspension(one, "sigma_inv", p, sched) != s:
                        problems.append(f"sigma_inv fails at {s}")
                    if step_suspension(two, "phi_inv", p, sched) != s:
                        problems.append(f"phi_inv fails at {s}")
                    checked += 1
                s = SuspensionState(y, b, 0)
                for _ in range(sched.T):
                    s = step_suspension(s, "phi", p, sched)
                expect = apply_rule(p.phi, y).shifted(p.D)
                if s != SuspensionState(expect, b, 0):
                    problems.append(f"T-fold cycle wrong at {(y, b)}")
        if problems:
            break
    for p, sched in real:
        for y in p.points:
            for b in range(p.B):
                for t in range(sched.T):
                    s = SuspensionState(y, b, t)
                    if decode(encode(s, p, sched), p, sched) != s:
                        problems.append(f"decode(encode) fails at {s}")
        if problems:
            break
    _verdict(
        7,
        problems,
        f"commutation, inverses and the T-fold cycle law hold on {checked} "
        f"states across {len(real)} concrete and {len(ideal)} idealized "
        "schedules; decode inverts encode on every concrete state",
    )


def test_criterion_08_encoded_region_contains_transformed_shape():
    problems = []
    ident = identity_rule(BINARY)
    family_y = periodic_family(BINARY, 8)
    p = SimParams(ident, ident, family_y, 4, 1, 0)
    sched = build_schedule(p)
    transform = shape_transform(sched)
    encoded = [encode(SuspensionState(y, 0, 0), p, sched) for y in family_y]

    m = 2 * sched.B
    t_hi, i_hi = 64, 20
    orbits = []
    for c in encoded:
        table = {0: c}
        cur = c
        for t in range(1, t_hi + 1):
            cur = pi_on_encoded(cur, p, sched)
            table[t] = cur
        cur = c
        for t in range(-1, -t_hi - 1, -1):
            cur = pi_inv_on_encoded(cur, p, sched)
            table[t] = cur
        orbits.append(table)
    pairs = [
        (a, b)
        for a in range(len(encoded))
        for b in range(a + 1, len(encoded))
        if agree_on(encoded[a], encoded[b], -m, m)
    ]
    if len(pairs) < 100:
        problems.append(f"only {len(pairs)} pairs agree on the window")
    region = {
        (i, t)
        for t in range(-t_hi, t_hi + 1)
        for i in range(-i_hi, i_hi + 1)
        if all(orbits[a][t][i] == orbits[b][t][i] for a, b in pairs)
    }
    if len(region) == (2 * t_hi + 1) * (2 * i_hi + 1):
        problems.append("region fills the whole query box (no teeth)")

    def in_target(i, t):
        y = Fraction(t, m) / transform[1][1]
        x = Fraction(i, m) - transform[0][1] * y
        return abs(x) + abs(y) <= Fraction(8, 10)

    missing = [
        (i, t)
        for t in range(-t_hi, t_hi + 1)
        for i in range(-i_hi, i_hi + 1)
        if in_target(i, t) and (i, t) not in region
    ]
    if missing:
        problems.append(f"transformed-shape cells not forced: {missing[:5]}")
    _verdict(
        8,
        problems,
        f"the brute-force region of the encoded system (T/B = "
        f"{transform[1][1]}) contains every cell of n*A(0.8*diamond) "
        f"over {2 * t_hi + 1} time steps while remaining a proper subset "
        "of the query box",
    )


TARGETS = (
    Fraction(0),
    Fraction(1, 4),
    Fraction(1, 3),
    Fraction(4142, 10000),
    Fraction(-2, 5),
)


@pytest.mark.filterwarnings("ignore::expansive_lab.slope_engine.BoundaryCase")
def test_criterion_09_slope_realization_converges():
    problems = []
    for theta in TARGETS:
        prog = realize_slope(theta, 20)
        lam, bound = lambda_eval(prog)
        if bound > Fraction(1, 2**20):
            problems.append(f"theta={theta}: bound {bound} above 2^-20")
        if abs(lam - theta) > bound:
            problems.append(f"theta={theta}: |lambda - theta| exceeds the bound")
    _verdict(
        9,
        problems,
        "depth-20 realizations put lambda within Prod(beta) <= 2^-20 of "
        "every target, in exact rational arithmetic",
    )


@pytest.mark.filterwarnings("ignore::expansive_lab.slope_engine.BoundaryCase")
def test_criterion_10_polygon_geometry():
    problems = []
    for theta in TARGETS:
        prog = realize_slope(theta, 20)
        prev_spread = None
        for depth in range(1, 21):
            poly = delta_polygon(prog, depth)
            if (1, 0) not in poly.vertices or (-1, 0) not in poly.vertices:
                problems.append(f"theta={theta} depth={depth}: (+-1,0) missing")
            (x, y) = max(poly.vertices, key=lambda v: v[1])
            if y < 2**depth:
                problems.append(f"theta={theta} depth={depth}: y = {y} < 2^{depth}")
            lam, _ = lambda_eval(prog, depth)
            if x != lam * y:
                problems.append(f"theta={theta} depth={depth}: apex off the slope line")
            if abs(x) > 1:
                slopes = sorted((y / (x - 1), y / (x + 1)))
                if not slopes[0] < y / x < slopes[1]:
                    problems.append(
                        f"theta={theta} depth={depth}: sides fail to bracket"
                    )
            spread = Fraction(2, y)
            if prev_spread is not None and spread >= prev_spread:
                problems.append(
                    f"theta={theta} depth={depth}: side-direction spread grew"
                )
            prev_spread = spread
    _verdict(
        10,
        problems,
        "every difference polygon keeps (+-1,0), grows its apex past 2^m, "
        "pins the apex to the realized slope, brackets it by the side "
        "slopes, and narrows the side directions monotonically",
    )


def test_criterion_11_tower_counting():
    problems = []
    ident = identity_rule(BINARY)
    base = SimParams(
        ident,
        ident,
        (
            Periodic(BINARY, ("0",)),
            Periodic(BINARY, ("1",)),
            Periodic(BINARY, ("0", "1")),
            Periodic(BINARY, ("0", "0", "1")),
        ),
        4,
        1,
        0,
    )
    report = tower(
        [TowerLevel(64, 2, 1), TowerLevel(32, 2, 1), TowerLevel(8, 2, 1)], base
    )
    floor = math.prod(s.T * s.B for s in report.schedules)
    if report.state_count != 2435246456832:
        problems.append(f"state count changed: {report.state_count}")
    if report.state_count < floor:
        problems.append(f"count {report.state_count} below Prod(T_i B_i) = {floor}")
    if floor < 2**3:
        problems.append("product floor degenerate")
    _verdict(
        11,
        problems,
        f"depth-3 tower tracks {report.state_count} states, at least the "
        f"Prod(T_i B_i) = {floor} floor",
    )


def test_criterion_12_blocking_word_calibration():
    problems = []
    words = [
        w
        for length in range(1, 7)
        for w in itertools.product(BINARY, repeat=length)
    ]
    ident = identity_rule(BINARY)
    sigma = shift_rule(BINARY, 1)
    worst = 0
    for w in words:
        fam = embedded_word_family(BINARY, [w], "0")
        (rep,) = blocking_word_search(ident, fam, len(w), 1000, [w])
        if rep.verdict != BlockingUpTo(1000):
            problems.append(f"identity fails to block {''.join(w)}")
        (rep,) = blocking_word_search(sigma, fam, len(w), 7, [w])
        if not isinstance(rep.verdict, RefutedAt):
            problems.append(f"shift not refuted on {''.join(w)}")
        else:
            worst = max(worst, rep.verdict.t)
    if worst > 7:
        problems.append(f"a shift refutation needed t = {worst} > 7")
    _verdict(
        12,
        problems,
        f"all {len(words)} binary words block for the identity out to "
        f"t = 1000 and are refuted for the shift by t = {worst}",
    )
