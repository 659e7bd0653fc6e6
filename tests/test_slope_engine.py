"""Slope realization tests: the nested lambda formula, polygon shapes,
and the greedy parameter search."""

import json
from fractions import Fraction as F

import pytest

from expansive_lab.slope_engine import (
    BoundaryCase,
    InvalidLevel,
    LevelParams,
    SlopeProgram,
    Unrealizable,
    alpha_beta,
    delta_polygon,
    direction_of,
    lambda_eval,
    program_from_json,
    program_to_json,
    realize_slope,
    shape_transform,
)

QUARTER = LevelParams(10, 2, 1, 40)  # alpha = beta = 1/4, idealized


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
    with pytest.raises(InvalidLevel):
        lambda_eval(prog)


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


def test_realize_pow2_policy():
    prog = realize_slope(F(1, 3), 4, b_policy="pow2")
    assert all(p.B & (p.B - 1) == 0 for p in prog.levels)
    lam, bound = lambda_eval(prog)
    assert abs(lam - F(1, 3)) <= bound


def test_realize_custom_policy_is_validated():
    # a policy is one of the two names
    with pytest.raises(ValueError, match="unknown block policy 'fibonacci'"):
        realize_slope(F(1, 3), 3, b_policy="fibonacci")


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


@pytest.mark.parametrize(
    "text, message",
    [('{"theta": null}', "missing key 'levels'"),
     ("[]", "expected a JSON object, got an array")],
)
def test_program_json_malformed_raises_value_error(text, message):
    with pytest.raises(ValueError) as exc:
        program_from_json(text)
    assert exc.value.args == (message,)


def test_program_json_without_target():
    prog = SlopeProgram((QUARTER, QUARTER))
    parsed = program_from_json(program_to_json(prog))
    assert parsed.theta is None
    assert parsed.lam == F(5, 16)
    assert parsed.bound == F(1, 16)
