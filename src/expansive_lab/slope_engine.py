"""Exact rational slope realization for nested suspension levels.

A nesting level with block length B, wait count W, displacement D and
cycle length T contributes alpha = D*B/T and beta = B/T.  Stacking levels
gives

    lambda = alpha_1 + beta_1 * (alpha_2 + beta_2 * (alpha_3 + ...)),

and the depth-m truncation lambda_m is within prod(beta_k) of the limit.
`realize_slope` inverts the formula: given a target theta it picks level
parameters by greedy interval nesting so that the truncation bound holds
with exact integer arithmetic, either against the concrete cycle lengths
of `cycle_machine` or in an idealized mode with T = B*(1+W+|D|).
"""

from __future__ import annotations

import json
import re
import sys
import warnings
from fractions import Fraction
from typing import Optional, Union

from .cycle_machine import (
    _check_level,
    compose_levels,
    fixed_stages,
    min_block_length,
    shape_transform,
)
from .dynamics_analysis import Direction
from .shift_core import Record, json_object


class InvalidLevel(ValueError):
    """A level with beta = B/T above 1/2 cannot enter the nested formula."""


class Unrealizable(ValueError):
    """No parameter choice reaches the requested slope target."""


class BoundaryCase(UserWarning):
    """The target sits exactly on a bracket endpoint; the closed lower
    endpoint convention applies."""


Rational = Union[int, str, Fraction]


def _as_fraction(value: Rational) -> Fraction:
    if isinstance(value, float):
        raise TypeError(
            "float targets are inexact; pass a Fraction, an int, or a "
            "decimal string"
        )
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"target {value!r} has a zero denominator") from None
    except ValueError:
        # int() refuses a numeral longer than the interpreter's digit limit
        # (Python 3.11 on), and its message names a setting, not the target
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and max(map(len, re.findall(r"\d+", str(value))), default=0) > limit:
            raise ValueError(f"target has a number of more than {limit} digits") from None
        raise ValueError(f"target {value!r} is not a rational number") from None


# ---------------------------------------------------------------------------
# level algebra


class LevelParams(Record):
    """One nesting level; T is the exact cycle length of its schedule."""

    B: int
    W: int
    D: int
    T: int

    def __post_init__(self):
        _check_level(self.B, self.W)
        if self.T < 1:
            raise ValueError("cycle length T must be >= 1")


class SlopeProgram(Record):
    """A stack of levels, outermost first, with an optional target."""

    levels: tuple
    theta: Optional[Fraction] = None

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))


def lambda_eval(prog: SlopeProgram, depth: Optional[int] = None):
    """Partial sum and error bound of the nested formula.

    Returns (lambda_m, prod(beta_k) for k <= m) where m = depth, both as
    exact rationals.  Raises InvalidLevel when some beta exceeds 1/2.
    Both are read off the composed level transform [[1, x/p], [0, y/p]]:
    lambda_m = x/y and the bound is p/y.
    """
    if depth is not None and not 0 <= depth <= len(prog.levels):
        raise ValueError(f"depth {depth} outside 0..{len(prog.levels)}")
    levels = prog.levels[:depth]
    for p in levels:
        if 2 * p.B > p.T:
            raise InvalidLevel(
                f"level {p} has beta = {Fraction(p.B, p.T)} > 1/2 "
                "(needs T/B >= 2)"
            )
    x, y, p = compose_levels(levels)
    return Fraction(x, y), Fraction(p, y)


def direction_of(lam: Fraction) -> Direction:
    """Non-expansive direction for a realized lambda: vertical at zero,
    slope 1/lambda otherwise."""
    lam = _as_fraction(lam)
    if abs(lam) >= 1:
        raise ValueError("realized slopes satisfy |lambda| < 1")
    if lam == 0:
        return Direction(1)
    return Direction(1, slope=Fraction(1) / lam)


# ---------------------------------------------------------------------------
# the delta polygon


class ShapePolygon(Record):
    """Image of the l1 unit ball under the composed level transforms.

    Always a quadrilateral with (1,0) and (-1,0) as vertices, one vertex
    strictly above the axis and its negation strictly below.
    """

    vertices: tuple


def delta_polygon(prog: SlopeProgram, depth: int) -> ShapePolygon:
    """Vertices of the depth-fold product shape, outermost level applied
    last.  depth=0 gives the unit ball itself."""
    if not 0 <= depth <= len(prog.levels):
        raise ValueError(f"depth {depth} outside 0..{len(prog.levels)}")
    (_, x), (_, y) = shape_transform(*prog.levels[:depth])
    one, zero = Fraction(1), Fraction(0)
    return ShapePolygon(((one, zero), (x, y), (-one, zero), (-x, -y)))


# ---------------------------------------------------------------------------
# realizing a target


def _bracket_level(u: int, v: int, concrete: bool):
    """Least-denominator bracket [D/n, (D+1)/n) containing t = u/v, v > 0,
    n = 1+W+|D|.

    Returns (W, D, n, endpoint_hit).  W >= 2 always; the smallest feasible
    n is unique, and within it D = floor(t*n) is the only candidate, so
    the (W, D) choice minimizes W + |D| outright.  Under a concrete
    schedule a negative-D bracket whose closed lower endpoint equals t is
    skipped: alpha = q*D/n > D/n for every finite block length, so no B
    reaches that endpoint.
    """
    # the first n with |D| <= n-3 possible: floor(2/(1-t)) + 1 for t >= 0
    # and ceil(3/(1+t)) below, both at least 3
    if u >= 0:
        n = 2 * v // (v - u) + 1
    else:
        n = -(-3 * v // (v + u))
    while True:
        d = u * n // v
        if abs(d) <= n - 3:
            hit = u * n == d * v
            if not (hit and d < 0 and concrete):
                return n - 1 - abs(d), d, n, hit
        n += 1


def realize_slope(
    theta: Rational,
    depth: int,
    *,
    idealized: bool = False,
    alphabet_size: int = 2,
    table_entries: int = 0,
) -> SlopeProgram:
    """Greedy interval nesting toward theta, |theta| < 1.

    Each level takes the least (W, D) whose bracket [D/n, (D+1)/n),
    n = 1+W+|D|, contains the current target ("lies between" read with a
    closed lower endpoint, so zero and exact endpoints recurse cleanly),
    then a block length B large enough that the target sits in
    [alpha, alpha + beta) for the exact cycle length, and recurses on
    (target - alpha)/beta.  It takes the least such B, which also keeps
    the rescaled target's gap to 1 from shrinking by more than half per
    level, so block lengths stay finite at every depth.  The result
    satisfies |lambda_eval(prog, depth)[0] - theta| <= prod(beta_k).
    """
    t = _as_fraction(theta)
    if abs(t) >= 1:
        raise Unrealizable(
            f"|theta| = {abs(t)} >= 1; reparametrize the acting group to "
            "bring the target inside the unit interval"
        )
    if depth < 1:
        raise ValueError("depth must be >= 1")
    # every schedule's cycle length is T = (B + C)(1+W+|D|), with C the sum
    # of its fixed stages, the same at every (B, W, D): 0 when idealized
    overhead = 0 if idealized else sum(fixed_stages(alphabet_size, table_entries))
    levels = []
    warned = False
    # the current target, u/v with v > 0, is never reduced: every test on
    # it is an integer comparison
    u, v = t.numerator, t.denominator
    for k in range(depth):
        w, d, n, hit = _bracket_level(u, v, overhead > 0)
        if hit and not warned:
            warnings.warn(
                BoundaryCase(
                    f"target {Fraction(u, v)} is the closed lower endpoint of the "
                    f"level-{k + 1} bracket [{Fraction(d, n)}, "
                    f"{Fraction(d + 1, n)})"
                )
            )
            warned = True
        b = 1
        if not idealized:
            b = min_block_length(alphabet_size, table_entries, w, d)
            # the ceilings of 2*t*n*overhead / (d + 1 - t*n) for t > 0 and
            # of r*overhead / (1 - r), r = t*n/d, for t < 0
            un = u * n
            if u > 0:
                b = max(b, -(-2 * un * overhead // ((d + 1) * v - un)))
            elif u < 0:
                b = max(b, -(-un * overhead // (d * v - un)))
        T = (b + overhead) * n
        # alpha <= t < alpha + beta, with alpha = d*b/T and beta = b/T
        if not d * b * v <= u * T < (d + 1) * b * v:
            alpha, beta = Fraction(d * b, T), Fraction(b, T)
            raise ValueError(
                f"block length {b} broke the level-{k + 1} bracket: {Fraction(u, v)} "
                f"outside [{alpha}, {alpha + beta})"
            )
        levels.append(LevelParams(b, w, d, T))
        # the next target, (t - alpha) / beta
        u, v = u * T - d * b * v, b * v
    return SlopeProgram(tuple(levels), t)


# ---------------------------------------------------------------------------
# program files


def program_to_json(prog: SlopeProgram) -> str:
    lam, bound = lambda_eval(prog)
    doc = {
        "theta": None if prog.theta is None else str(prog.theta),
        "levels": [
            {"B": p.B, "W": p.W, "D": p.D, "T": p.T} for p in prog.levels
        ],
        "lambda": {"num": lam.numerator, "den": lam.denominator},
        "bound": {"num": bound.numerator, "den": bound.denominator},
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def program_from_json(text: str) -> SlopeProgram:
    """Parse a program file, checking the stored evaluation against a
    fresh one, and a stored target against its bound, so stale files fail
    loudly."""
    fraction = {"num": int, "den": int}
    doc = json_object(text, {
        "levels": [{"B": int, "W": int, "D": int, "T": int}],
        "lambda": fraction, "bound": fraction, "theta": (str, type(None)),
    })
    levels = tuple(
        LevelParams(lv["B"], lv["W"], lv["D"], lv["T"])
        for lv in doc["levels"]
    )
    theta = None if doc["theta"] is None else _as_fraction(doc["theta"])
    prog = SlopeProgram(levels, theta)
    lam, bound = lambda_eval(prog)
    if lam != Fraction(doc["lambda"]["num"], doc["lambda"]["den"]):
        raise ValueError("stored lambda does not match the levels")
    if bound != Fraction(doc["bound"]["num"], doc["bound"]["den"]):
        raise ValueError("stored bound does not match the levels")
    if theta is not None and abs(lam - theta) > bound:
        raise ValueError(
            "stored theta is not within the bound of the levels' lambda"
        )
    return prog
