"""Slope realization tests: the nested lambda formula, polygon shapes,
and the greedy parameter search, checked against the per-level Fraction
references below."""

import json
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from expansive_lab.cycle_machine import (
    SimParams,
    TowerLevel,
    idealized_schedule,
    min_block_length,
    schedule_from_counts,
    shape_transform,
    tower,
)
from expansive_lab.dynamics_analysis import periodic_family
from expansive_lab.shift_core import Alphabet, identity_rule
from expansive_lab.slope_engine import (
    BoundaryCase,
    InvalidLevel,
    LevelParams,
    SlopeProgram,
    Unrealizable,
    delta_polygon,
    direction_of,
    lambda_eval,
    program_from_json,
    program_to_json,
    realize_slope,
)

QUARTER = LevelParams(10, 2, 1, 40)  # alpha = beta = 1/4, idealized


# ---------------------------------------------------------------------------
# references: one Fraction per level, as the formulas read


@dataclass(frozen=True)
class AlphaBeta:
    """The level's contribution alpha = D*B/T, scale beta = B/T, and the
    measured deviation epsilon of T from the idealized B*(1+W+|D|)."""

    alpha: F
    beta: F
    epsilon: F


def alpha_beta(p) -> AlphaBeta:
    return AlphaBeta(
        alpha=F(p.D * p.B, p.T),
        beta=F(p.B, p.T),
        epsilon=F(p.T, p.B * (1 + p.W + abs(p.D))) - 1,
    )


def reference_lambda_eval(prog, depth=None):
    """lambda_m = alpha_1 + beta_1*(alpha_2 + ...) folded from the inside,
    and the product of the betas."""
    levels = prog.levels if depth is None else prog.levels[:depth]
    if depth is not None and not 0 <= depth <= len(prog.levels):
        raise ValueError(f"depth {depth} outside 0..{len(prog.levels)}")
    abs_ = [alpha_beta(p) for p in levels]
    for p, ab in zip(levels, abs_):
        if ab.beta > F(1, 2):
            raise InvalidLevel(
                f"level {p} has beta = {ab.beta} > 1/2 (needs T/B >= 2)"
            )
    lam = F(0)
    for ab in reversed(abs_):
        lam = ab.alpha + ab.beta * lam
    return lam, math.prod((ab.beta for ab in abs_), start=F(1))


def reference_shape_transform(levels):
    """The dense 2x2 product of the levels' one-level `shape_transform`
    matrices."""
    m = ((F(1), F(0)), (F(0), F(1)))
    for a in map(shape_transform, levels):
        m = tuple(
            tuple(m[i][0] * a[0][j] + m[i][1] * a[1][j] for j in (0, 1))
            for i in (0, 1)
        )
    return m


def _ceil(x: F) -> int:
    return -((-x.numerator) // x.denominator)


def _reference_bracket(t: F, concrete: bool):
    n = max(3, math.floor(2 / (1 - t)) + 1) if t >= 0 else max(3, _ceil(3 / (1 + t)))
    while True:
        d = math.floor(t * n)
        if abs(d) <= n - 3:
            hit = t == F(d, n)
            if not (hit and d < 0 and concrete):
                return n - 1 - abs(d), d, n, hit
        n += 1


def reference_realize_slope(theta, depth, *,
                            idealized=False, alphabet_size=2, table_entries=0):
    """The greedy nesting with a reduced Fraction target and each level's
    schedule built; the argument checks are left to `realize_slope`."""
    t = F(theta)
    overhead = 0
    if not idealized:
        probe_b = min_block_length(alphabet_size, table_entries, 2, 0)
        overhead = schedule_from_counts(alphabet_size, table_entries, probe_b, 2, 0).overhead
    levels, warned, cur = [], False, t
    for k in range(depth):
        w, d, n, hit = _reference_bracket(cur, overhead > 0)
        if hit and not warned:
            warnings.warn(BoundaryCase(
                f"target {cur} is the closed lower endpoint of the level-{k + 1} "
                f"bracket [{F(d, n)}, {F(d + 1, n)})"))
            warned = True
        b = 1
        if not idealized:
            b = min_block_length(alphabet_size, table_entries, w, d)
            if cur > 0:
                b = max(b, _ceil(2 * cur * n * overhead / ((d + 1) - cur * n)))
            elif cur < 0:
                ratio = cur * n / d
                b = max(b, _ceil(ratio * overhead / (1 - ratio)))
        if idealized:
            sched = idealized_schedule(b, w, d)
        else:
            sched = schedule_from_counts(alphabet_size, table_entries, b, w, d)
        alpha, beta = F(d * b, sched.T), F(b, sched.T)
        if not alpha <= cur < alpha + beta:
            raise ValueError(
                f"block length {b} broke the level-{k + 1} bracket: {cur} "
                f"outside [{alpha}, {alpha + beta})")
        levels.append(LevelParams(b, w, d, sched.T))
        cur = (cur - alpha) / beta
    return SlopeProgram(tuple(levels), t)


def test_alpha_beta_examples():
    ab = alpha_beta(LevelParams(10, 3, 0, 40))
    assert (ab.alpha, ab.beta, ab.epsilon) == (0, F(1, 4), 0)
    ab = alpha_beta(QUARTER)
    assert (ab.alpha, ab.beta) == (F(1, 4), F(1, 4))
    ab = alpha_beta(LevelParams(10, 3, -1, 50))
    assert (ab.alpha, ab.beta) == (F(-1, 5), F(1, 5))


def test_alpha_beta_reports_schedule_overhead():
    # concrete schedules run longer than B(1+W+|D|); epsilon measures it
    ab = alpha_beta(LevelParams(64, 2, 0, 240))
    assert ab.epsilon == F(240, 192) - 1 == F(1, 4)


def test_level_params_validation():
    with pytest.raises(ValueError):
        LevelParams(0, 2, 0, 4)
    with pytest.raises(ValueError):
        LevelParams(4, 0, 0, 4)
    with pytest.raises(ValueError):
        LevelParams(4, 2, 0, 0)


def test_lambda_eval_zero_displacements():
    prog = SlopeProgram((LevelParams(10, 3, 0, 40),) * 5)
    for m in range(6):
        assert lambda_eval(prog, m)[0] == 0


def test_lambda_eval_nested_quarter():
    prog = SlopeProgram((QUARTER, QUARTER))
    assert lambda_eval(prog, 2) == (F(5, 16), F(1, 16))
    assert lambda_eval(prog, 1) == (F(1, 4), F(1, 4))


def test_lambda_eval_bound_shrinks_geometrically():
    prog = SlopeProgram((QUARTER,) * 20)
    bounds = [lambda_eval(prog, m)[1] for m in range(1, 21)]
    assert bounds[-1] <= F(1, 2**20)
    assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))


def test_lambda_eval_rejects_wide_beta():
    prog = SlopeProgram((LevelParams(10, 2, 0, 15),))  # beta = 2/3
    with pytest.raises(InvalidLevel) as exc:
        lambda_eval(prog)
    assert str(exc.value) == (
        "level LevelParams(B=10, W=2, D=0, T=15) has beta = 2/3 > 1/2 "
        "(needs T/B >= 2)"
    )


def test_shape_transform_fixed_points():
    a = shape_transform(LevelParams(10, 2, 1, 40))
    assert a == ((1, 1), (0, 4))
    x, y = F(1), F(0)
    assert (a[0][0] * x + a[0][1] * y, a[1][0] * x + a[1][1] * y) == (1, 0)
    a = shape_transform(LevelParams(10, 3, 0, 20))
    assert a == ((1, 0), (0, 2))


def test_delta_polygon_unit_ball():
    poly = delta_polygon(SlopeProgram(()), 0)
    assert poly.vertices == ((1, 0), (0, 1), (-1, 0), (0, -1))
    x, y = poly.vertices[1]
    assert (y / (x - 1), y / (x + 1)) == (-1, 1)


def test_delta_polygon_one_level():
    poly = delta_polygon(SlopeProgram((QUARTER,)), 1)
    assert poly.vertices == ((1, 0), (1, 4), (-1, 0), (-1, -4))
    x, y = poly.vertices[1]
    assert y / (x + 1) == 2  # the right side, x = 1, is vertical


def test_delta_polygon_two_levels_brackets_inverse_slope():
    poly = delta_polygon(SlopeProgram((QUARTER, QUARTER)), 2)
    x, y = poly.vertices[1]
    assert (x, y) == (5, 16)
    # the sides from the apex to (1,0) and (-1,0), as gate 10 computes them
    lo, hi = sorted((y / (x - 1), y / (x + 1)))
    assert lo < y / x < hi
    # the diagonal slope is the reciprocal of the nested sum
    assert y / x == 1 / F(5, 16)


def test_delta_polygon_height_doubles_per_level():
    prog = realize_slope(F(1, 3), 8, idealized=True)
    for m in range(9):
        poly = delta_polygon(prog, m)
        assert poly.vertices[1][1] >= 2**m
        assert poly.vertices[3][1] <= -(2**m)
    for m in (-1, 9):
        with pytest.raises(ValueError) as exc:
            delta_polygon(prog, m)
        assert exc.value.args == (f"depth {m} outside 0..8",)


def test_direction_of():
    assert direction_of(F(0)).vertical
    assert direction_of(F(1, 4)).slope == 4
    assert direction_of(F(-1, 5)).slope == -5
    with pytest.raises(ValueError):
        direction_of(F(3, 2))


# ---------------------------------------------------------------------------
# realize_slope


def test_realize_zero_is_exact():
    with pytest.warns(BoundaryCase):
        prog = realize_slope(0, 5)
    assert all(p.D == 0 for p in prog.levels)
    assert lambda_eval(prog)[0] == 0
    assert prog.theta == 0


def test_realize_third_idealized_repeats_one_bracket():
    prog = realize_slope(F(1, 3), 6, idealized=True)
    assert [(p.B, p.W, p.D, p.T) for p in prog.levels[:2]] == [
        (1, 2, 1, 4), (1, 2, 1, 4),
    ]
    assert lambda_eval(prog, 2) == (F(5, 16), F(1, 16))
    lam, bound = lambda_eval(prog)
    assert abs(lam - F(1, 3)) <= bound


def test_realize_third_concrete_levels():
    prog = realize_slope(F(1, 3), 4)
    assert [(p.B, p.W, p.D, p.T) for p in prog.levels] == [
        (64, 2, 1, 320),
        (448, 2, 4, 3248),
        (2080, 2, 10, 27248),
        (8800, 2, 22, 220400),
    ]
    lam, bound = lambda_eval(prog)
    assert abs(lam - F(1, 3)) <= bound


@pytest.mark.filterwarnings("ignore::expansive_lab.slope_engine.BoundaryCase")
def test_realize_respects_error_bound_at_depth_twenty():
    for theta in (F(1, 4), F(1, 3), F(4142, 10000), F(-2, 5)):
        prog = realize_slope(theta, 20)
        lam, bound = lambda_eval(prog)
        assert abs(lam - theta) <= bound
        assert bound <= F(1, 2**20)
        assert all(F(p.B, p.T) <= F(1, 2) for p in prog.levels)


@pytest.mark.filterwarnings("ignore::expansive_lab.slope_engine.BoundaryCase")
def test_realize_negative_target_skips_unreachable_endpoint():
    # -2/5 is the closed lower endpoint of the (W,D) = (2,-2) bracket,
    # which no concrete block length can reach; the next bracket is taken
    # and its alpha happens to equal the target exactly
    prog = realize_slope(F(-2, 5), 6)
    assert (prog.levels[0].W, prog.levels[0].D) == (2, -3)
    assert lambda_eval(prog)[0] == F(-2, 5)


def test_realize_negative_target_idealized_keeps_endpoint():
    with pytest.warns(BoundaryCase):
        prog = realize_slope(F(-2, 5), 6, idealized=True)
    assert (prog.levels[0].W, prog.levels[0].D) == (2, -2)
    lam, bound = lambda_eval(prog)
    assert abs(lam + F(2, 5)) <= bound


def test_realize_accepts_decimal_strings():
    a = realize_slope("0.4142", 8)
    b = realize_slope(F(4142, 10000), 8)
    assert a.levels == b.levels
    assert a.theta == F(2071, 5000)


def test_realize_rejects_floats_and_unit_targets():
    with pytest.raises(TypeError):
        realize_slope(0.4142, 8)
    for theta in (1, -1, F(3, 2)):
        with pytest.raises(Unrealizable):
            realize_slope(theta, 8)
    with pytest.raises(ValueError):
        realize_slope(F(1, 3), 0)


def test_realize_concrete_tracks_table_size():
    # a larger simulated alphabet inflates the schedule overhead, which
    # shows up in epsilon but not in the error bound's validity
    prog = realize_slope(F(1, 3), 3, alphabet_size=5, table_entries=25)
    lam, bound = lambda_eval(prog)
    assert abs(lam - F(1, 3)) <= bound
    assert alpha_beta(prog.levels[0]).epsilon > 0


def test_program_json_roundtrip():
    prog = realize_slope(F(1, 3), 5)
    text = program_to_json(prog)
    assert program_from_json(text) == prog
    assert text.endswith("\n")


def test_program_json_rejects_tampered_lambda():
    doc = json.loads(program_to_json(realize_slope(F(1, 3), 3)))
    doc["lambda"]["num"] += 1
    with pytest.raises(ValueError):
        program_from_json(json.dumps(doc))
    doc = json.loads(program_to_json(realize_slope(F(1, 3), 3)))
    doc["bound"] = {"num": 1, "den": 3}
    with pytest.raises(ValueError):
        program_from_json(json.dumps(doc))


def test_program_json_rejects_a_theta_its_levels_do_not_realize():
    doc = json.loads(program_to_json(realize_slope(F(1, 3), 4)))
    doc["theta"] = "9/10"
    with pytest.raises(ValueError) as exc:
        program_from_json(json.dumps(doc))
    assert exc.value.args == (
        "stored theta is not within the bound of the levels' lambda",)
    doc["theta"] = "1/3"
    assert program_from_json(json.dumps(doc)).theta == F(1, 3)


@pytest.mark.parametrize(
    "text, message",
    [('{"theta": null}', "missing key 'levels'"),
     ("[]", "expected a JSON object, got an array"),
     ('{"theta": [1]}', "key 'theta': expected a string or null, got an array"),
     ('{"theta": 0.1}', "key 'theta': expected a string or null, got a number"),
     ('{"theta": "1/0", "levels": []}', "target '1/0' has a zero denominator"),
     ('{"theta": "nan", "levels": []}', "target 'nan' is not a rational number")],
)
def test_program_json_malformed_raises_value_error(text, message):
    with pytest.raises(ValueError) as exc:
        program_from_json(text)
    assert exc.value.args == (message,)


def test_program_json_without_target():
    prog = SlopeProgram((QUARTER, QUARTER))
    parsed = program_from_json(program_to_json(prog))
    assert parsed.theta is None
    assert lambda_eval(parsed) == (F(5, 16), F(1, 16))


# ---------------------------------------------------------------------------
# the integer level composition against the references


def _outcome(call):
    """What a call returns, or the type and message of what it raises,
    with the warnings it gives on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = ("returns", call())
        except ValueError as exc:
            result = ("raises", type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


targets = st.one_of(
    st.just(F(0)),
    # exact lower endpoints D/n of the brackets the first level can take
    st.integers(3, 60).flatmap(
        lambda n: st.integers(3 - n, n - 3).map(lambda d: F(d, n))),
    st.integers(2, 10**6).flatmap(
        lambda den: st.integers(1 - den, den - 1).map(lambda num: F(num, den))),
)


@st.composite
def slope_programs(draw):
    kw = {"idealized": draw(st.booleans())}
    if not kw["idealized"]:
        kw["alphabet_size"] = draw(st.sampled_from((2, 3, 5)))
        kw["table_entries"] = draw(st.sampled_from((0, 4, 25)))
    return draw(targets), draw(st.integers(1, 60)), kw


@settings(max_examples=60, deadline=None)
@given(slope_programs())
@example((F(0), 60, {"idealized": False}))
@example((F(-2, 5), 12, {"idealized": False}))
@example((F(-2, 5), 12, {"idealized": True}))
@example((F(1, 3), 60, {"idealized": False}))
def test_integer_composition_equals_fraction_references(case):
    theta, depth, kw = case
    got = _outcome(lambda: realize_slope(theta, depth, **kw))
    assert got == _outcome(lambda: reference_realize_slope(theta, depth, **kw))
    prog = got[0][1]
    for m in range(depth + 1):
        assert lambda_eval(prog, m) == reference_lambda_eval(prog, m)
        dense = reference_shape_transform(prog.levels[:m])
        assert shape_transform(*prog.levels[:m]) == dense
        (x, y) = dense[0][1], dense[1][1]
        assert delta_polygon(prog, m).vertices == ((1, 0), (x, y), (-1, 0), (-x, -y))


@st.composite
def level_stacks(draw):
    """Any levels, a beta above 1/2 included."""
    levels = []
    for _ in range(draw(st.integers(0, 10))):
        b = draw(st.integers(1, 500))
        levels.append(LevelParams(b, draw(st.integers(1, 4)), draw(st.integers(-6, 6)),
                                  draw(st.integers(max(1, b - 3), 5 * b))))
    return SlopeProgram(tuple(levels))


@settings(max_examples=150, deadline=None)
@given(level_stacks())
def test_any_level_stack_evaluates_as_the_references(prog):
    for m in (None, *range(-1, len(prog.levels) + 2)):
        assert _outcome(lambda: lambda_eval(prog, m)) == _outcome(
            lambda: reference_lambda_eval(prog, m))
    assert shape_transform(*prog.levels) == reference_shape_transform(prog.levels)


BINARY = Alphabet(("0", "1"))
BASE = SimParams(identity_rule(BINARY), identity_rule(BINARY),
                 periodic_family(BINARY, 2), 4, 1, 0)


@st.composite
def tower_levels(draw):
    """1-3 tower levels over BASE's binary alphabet, each block at most 40
    cells longer than the least that holds its program layer."""
    n, levels = 2, []
    for _ in range(draw(st.integers(1, 3))):
        w, d = draw(st.integers(1, 3)), draw(st.integers(-2, 2))
        b = min_block_length(n, 0, w, d) + draw(st.integers(0, 40))
        n *= b * schedule_from_counts(n, 0, b, w, d).T
        levels.insert(0, TowerLevel(b, w, d))
    return levels


@settings(max_examples=40, deadline=None)
@given(tower_levels())
def test_tower_transform_equals_the_dense_product(levels):
    rep = tower(levels, BASE)
    assert rep.transform == reference_shape_transform(rep.schedules)

