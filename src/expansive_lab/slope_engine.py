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
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

from .cycle_machine import (
    _mat_mul,
    idealized_schedule,
    min_block_length,
    schedule_from_counts,
    shape_transform,
)
from .dynamics_analysis import Direction


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
    return Fraction(value)


def _ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


# ---------------------------------------------------------------------------
# level algebra


@dataclass(frozen=True)
class LevelParams:
    """One nesting level; T is the exact cycle length of its schedule."""

    B: int
    W: int
    D: int
    T: int

    def __post_init__(self):
        if self.B < 1:
            raise ValueError("block length B must be >= 1")
        if self.W < 1:
            raise ValueError("wait count W must be >= 1")
        if self.T < 1:
            raise ValueError("cycle length T must be >= 1")


@dataclass(frozen=True)
class AlphaBeta:
    """The level's contribution alpha = D*B/T, scale beta = B/T, and the
    measured deviation epsilon of T from the idealized B*(1+W+|D|)."""

    alpha: Fraction
    beta: Fraction
    epsilon: Fraction


def alpha_beta(p: LevelParams) -> AlphaBeta:
    return AlphaBeta(
        alpha=Fraction(p.D * p.B, p.T),
        beta=Fraction(p.B, p.T),
        epsilon=Fraction(p.T, p.B * (1 + p.W + abs(p.D))) - 1,
    )


@dataclass(frozen=True)
class SlopeProgram:
    """A stack of levels, outermost first, with an optional target."""

    levels: tuple
    theta: Optional[Fraction] = None

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))

    @property
    def lam(self) -> Fraction:
        return lambda_eval(self)[0]

    @property
    def bound(self) -> Fraction:
        return lambda_eval(self)[1]


def lambda_eval(prog: SlopeProgram, depth: Optional[int] = None):
    """Partial sum and error bound of the nested formula.

    Returns (lambda_m, prod(beta_k) for k <= m) where m = depth, both as
    exact rationals.  Raises InvalidLevel when some beta exceeds 1/2.
    """
    levels = prog.levels if depth is None else prog.levels[:depth]
    if depth is not None and not 0 <= depth <= len(prog.levels):
        raise ValueError(f"depth {depth} outside 0..{len(prog.levels)}")
    abs_ = [alpha_beta(p) for p in levels]
    for p, ab in zip(levels, abs_):
        if ab.beta > Fraction(1, 2):
            raise InvalidLevel(
                f"level {p} has beta = {ab.beta} > 1/2 (needs T/B >= 2)"
            )
    lam = Fraction(0)
    for ab in reversed(abs_):
        lam = ab.alpha + ab.beta * lam
    bound = math.prod((ab.beta for ab in abs_), start=Fraction(1))
    return lam, bound


def direction_of(lam: Fraction, thickness: int = 1) -> Direction:
    """Non-expansive direction for a realized lambda: vertical at zero,
    slope 1/lambda otherwise."""
    lam = _as_fraction(lam)
    if abs(lam) >= 1:
        raise ValueError("realized slopes satisfy |lambda| < 1")
    if lam == 0:
        return Direction(thickness, vertical=True)
    return Direction(thickness, slope=Fraction(1) / lam)


# ---------------------------------------------------------------------------
# prediction polygons


@dataclass(frozen=True)
class ShapePolygon:
    """Image of the l1 unit ball under the composed level transforms.

    Always a quadrilateral with (1,0) and (-1,0) as vertices, one vertex
    strictly above the axis and its negation strictly below.
    """

    vertices: tuple

    @property
    def upper(self) -> tuple:
        return self.vertices[1]

    @property
    def lower(self) -> tuple:
        return self.vertices[3]

    def _sides(self, vertex):
        x, y = vertex
        toward_right = None if x == 1 else y / (x - 1)
        toward_left = None if x == -1 else y / (x + 1)
        return (toward_right, toward_left)

    @property
    def upper_slopes(self) -> tuple:
        """Slopes of the sides joining the upper vertex to (1,0) and to
        (-1,0); None for a vertical side."""
        return self._sides(self.upper)

    @property
    def lower_slopes(self) -> tuple:
        return self._sides(self.lower)


def delta_polygon(prog: SlopeProgram, depth: int) -> ShapePolygon:
    """Vertices of the depth-fold product shape, outermost level applied
    last.  depth=0 gives the unit ball itself."""
    if not 0 <= depth <= len(prog.levels):
        raise ValueError(f"depth {depth} outside 0..{len(prog.levels)}")
    m = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    for p in prog.levels[:depth]:
        m = _mat_mul(m, shape_transform(p))
    x, y = m[0][1], m[1][1]
    one, zero = Fraction(1), Fraction(0)
    return ShapePolygon(((one, zero), (x, y), (-one, zero), (-x, -y)))


def shape_polygon_lines(poly: ShapePolygon) -> str:
    lines = [
        f"{x.numerator}/{x.denominator},{y.numerator}/{y.denominator}"
        for x, y in poly.vertices
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# realizing a target


def _bracket_level(t: Fraction, concrete: bool):
    """Least-denominator bracket [D/n, (D+1)/n) containing t, n = 1+W+|D|.

    Returns (W, D, n, endpoint_hit).  W >= 2 always; the smallest feasible
    n is unique, and within it D = floor(t*n) is the only candidate, so
    the (W, D) choice minimizes W + |D| outright.  Under a concrete
    schedule a negative-D bracket whose closed lower endpoint equals t is
    skipped: alpha = q*D/n > D/n for every finite block length, so no B
    reaches that endpoint.
    """
    if t >= 0:
        n = max(3, math.floor(2 / (1 - t)) + 1)
    else:
        n = max(3, _ceil(3 / (1 + t)))
    while True:
        d = math.floor(t * n)
        if abs(d) <= n - 3:
            hit = t == Fraction(d, n)
            if not (hit and d < 0 and concrete):
                return n - 1 - abs(d), d, n, hit
        n += 1


def _policy(spec) -> Callable[[int, int], int]:
    if spec == "minimal":
        return lambda b_min, k: b_min
    if spec == "pow2":
        return lambda b_min, k: 1 << max(0, b_min - 1).bit_length()
    if callable(spec):
        return spec
    raise ValueError(f"unknown block policy {spec!r}")


def realize_slope(
    theta: Rational,
    depth: int,
    b_policy="minimal",
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
    (target - alpha)/beta.  The minimal B additionally keeps the rescaled
    target's gap to 1 from shrinking by more than half per level, so
    block lengths stay finite at every depth.  b_policy ("minimal",
    "pow2", or a callable (b_min, level) -> B >= b_min) may pick larger
    blocks.  The result satisfies |lambda_eval(prog, depth)[0] - theta|
    <= prod(beta_k).
    """
    t = _as_fraction(theta)
    if abs(t) >= 1:
        raise Unrealizable(
            f"|theta| = {abs(t)} >= 1; reparametrize the acting group to "
            "bring the target inside the unit interval"
        )
    if depth < 1:
        raise ValueError("depth must be >= 1")
    policy = _policy(b_policy)
    if idealized:
        overhead = 0
    else:
        probe_b = min_block_length(alphabet_size, table_entries, 2, 0)
        overhead = schedule_from_counts(
            alphabet_size, table_entries, probe_b, 2, 0
        ).c5
    levels = []
    warned = False
    cur = t
    for k in range(depth):
        w, d, n, hit = _bracket_level(cur, overhead > 0)
        if hit and not warned:
            warnings.warn(
                BoundaryCase(
                    f"target {cur} is the closed lower endpoint of the "
                    f"level-{k + 1} bracket [{Fraction(d, n)}, "
                    f"{Fraction(d + 1, n)})"
                )
            )
            warned = True
        if idealized:
            b_min = 1
        else:
            b_min = min_block_length(alphabet_size, table_entries, w, d)
            if cur > 0:
                gap = (d + 1) - cur * n
                b_min = max(b_min, _ceil(2 * cur * n * overhead / gap))
            elif cur < 0:
                ratio = cur * n / d
                b_min = max(b_min, _ceil(ratio * overhead / (1 - ratio)))
        b = policy(b_min, k)
        if not isinstance(b, int) or b < b_min:
            raise ValueError(
                f"block policy returned {b!r}; level {k + 1} needs B >= {b_min}"
            )
        if idealized:
            sched = idealized_schedule(b, w, d)
        else:
            sched = schedule_from_counts(alphabet_size, table_entries, b, w, d)
        alpha = Fraction(d * b, sched.T)
        beta = Fraction(b, sched.T)
        if not alpha <= cur < alpha + beta:
            raise ValueError(
                f"block policy broke the level-{k + 1} bracket: {cur} "
                f"outside [{alpha}, {alpha + beta})"
            )
        levels.append(LevelParams(b, w, d, sched.T))
        cur = (cur - alpha) / beta
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
    fresh one so stale files fail loudly."""
    doc = json.loads(text)
    levels = tuple(
        LevelParams(lv["B"], lv["W"], lv["D"], lv["T"])
        for lv in doc["levels"]
    )
    theta = None if doc["theta"] is None else Fraction(doc["theta"])
    prog = SlopeProgram(levels, theta)
    lam, bound = lambda_eval(prog)
    if lam != Fraction(doc["lambda"]["num"], doc["lambda"]["den"]):
        raise ValueError("stored lambda does not match the levels")
    if bound != Fraction(doc["bound"]["num"], doc["bound"]["den"]):
        raise ValueError("stored bound does not match the levels")
    return prog
