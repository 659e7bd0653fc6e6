"""Finite-scale probes of how information moves under a cell map.

Everything here replaces a quantifier over an infinite configuration space
with a finite family of configurations, so each verdict is one-sided:
determined regions are supersets of the truth (fewer pairs means fewer
refutations), propagation exponents are lower bounds, and blocking verdicts
hold only up to the stated horizon.  The docstrings of the individual
functions say which side they err on.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from fractions import Fraction
from itertools import chain, islice, repeat
from operator import itemgetter

from . import shift_core
from .shift_core import (
    _COMPOSE_LIMIT,
    Alphabet,
    Configuration,
    LocalRule,
    Padded,
    Periodic,
    Record,
    _iterate_on,
    necklaces,
)


class InverseRequired(ValueError):
    """Negative times were requested but no inverse rule was supplied."""


class TruncationWarning(UserWarning):
    """A half-line check hit the truncation horizon; the reported value is
    only a lower bound."""


# ---------------------------------------------------------------------------
# configuration families


def padded_scale_family(
    alphabet: Alphabet,
    c_max: int,
    pad,
    extra_words: Sequence[tuple] = (),
) -> tuple:
    """The all-pad configuration, every single-site deviation within
    [-c_max, c_max], and optional extra padded words anchored at 0.

    Single-site deviations are what make brute-force regions sharp: for any
    spacetime cell whose input window pokes outside the agreed interval,
    some deviation pair witnesses the disagreement.
    """
    if c_max < 0:
        raise ValueError("c_max must be >= 0")
    others = [s for s in alphabet if s != pad]
    family = [Padded(alphabet, (), pad)]
    for c in range(-c_max, c_max + 1):
        for s in others:
            family.append(Padded(alphabet, (s,), pad, anchor=c))
    for word in extra_words:
        family.append(Padded(alphabet, word, pad, anchor=0))
    return tuple(family)


def periodic_family(alphabet: Alphabet, max_period: int) -> tuple:
    """One periodic point per rotation class of the words of each length
    p <= max_period, so a point recurs at each multiple of its least period
    (all "0"s as both ("0",) and ("0", "0")): the reversal of the class's
    least word in the alphabet's index order (`necklaces`), by p and then
    by that word.  The sum over p of the |alphabet|^p words, not the
    classes, must be at most _COMPOSE_LIMIT; else ValueError."""
    n = len(alphabet)
    # periods past 64 need no summing: two symbols give 2^64 words there
    words = max_period if n == 1 else sum(n**p for p in range(1, min(max_period, 64) + 1))
    if words > _COMPOSE_LIMIT:
        raise ValueError(f"periodic family up to period {max_period} over {n} symbols "
                         "is too large")
    return tuple(Periodic._of(alphabet, word[::-1]) for p in range(1, max_period + 1)
                 for word in necklaces(alphabet.symbols, p))


# ---------------------------------------------------------------------------
# orbits of a family


def _lockstep(rule, family):
    """Yield (orbit, drift, since) at t = 0, 1, ..., lists changed in place:
    orbit[k] is family[k] after since[k] steps, and since[k] is t until a
    step leaves the member's word unchanged.  That step shifted it by
    drift[k] (0 if periodic; None before), and as the rule commutes with
    the shift so does every later one: the member is held from then on,
    and `_at` reads it.  A padded member that is a shift of an earlier one
    follows that lead's orbit, shifted.  Cost: a lead takes step 1 with
    `apply_rule`; one whose word it changed draws `iterate`'s later steps
    until it translates; a step visits only members still changing."""
    orbit, drift, since = list(family), [None] * len(family), [0] * len(family)
    leads: dict = {}  # padded members with one alphabet object, pad and word
    lead = [leads.setdefault((id(y.alphabet), y.pad, y.word) if isinstance(y, Padded) else k, k)
            for k, y in enumerate(family)]
    yield orbit, drift, since
    steps, first, busy = {}, shift_core.apply_rule, range(len(family))
    for t in itertools.count(1):
        for k in busy:
            j = lead[k]
            if j < k:  # held at its last step, like its lead, once that translates
                drift[k] = drift[j]
                if drift[k] is not None:
                    continue
                orbit[k] = orbit[j].shifted(family[j].anchor - family[k].anchor)
            else:
                y, orbit[k] = orbit[k], next(steps[k]) if t > 1 else first(rule, orbit[k])
                if orbit[k].word == y.word:
                    drift[k] = y.anchor - orbit[k].anchor if isinstance(y, Padded) else 0
                    steps.pop(k, None)
                elif t == 1:
                    steps[k] = _iterate_on(rule, y, orbit[k])
            since[k] = t
        busy = [k for k in busy if drift[k] is None]
        yield orbit, drift, since


def _at(state, k, t):
    """Member k of a `_lockstep` state at time t, its last step or later."""
    orbit, drift, since = state
    d = drift[k]
    return orbit[k].shifted(d * (t - since[k])) if d and t != since[k] else orbit[k]


def _common_drift(orbit, drift, a, b):
    """The drift by which members a and b of a `_lockstep` orbit both
    translate from now on, an all-pad member matching any; else None."""
    d = drift[a] if orbit[a].word else drift[b]
    return d if not orbit[b].word or drift[b] == d else None


def _pair_scan(rule, family, pairs, times, window, reach):
    """The one scan of `pairs` of family members along the orbit of `rule`.

    Yields (t, state, batch) at t = 0, 1, ... below times.stop, state the
    `_lockstep` state and batch one (a, b, D, d) per pair (a, b) read:
    - d is None: the pair steps on, and D is its difference set on
      `window` at t; given only for t in times;
    - d is an int: both members translate by d from t on, so D moves by -d
      a step, and the pair leaves the scan.  D is the set on the window
      for d == 0, else the whole set, which must be finite and inside
      `reach` (else the pair steps on).
    Step 1, which makes every check of `apply_rule`, is taken whenever
    times.stop > 1; the scan ends once no pair steps.  Cost: that of
    `_lockstep`, plus one difference per pair and step read.  Members
    padded over one pad differ only inside their words, so their pair
    reads its whole set and carries it on; leaving, it reads nothing.
    """
    lo, hi = window
    live = [(a, b, None) for a, b in pairs]
    for t, state in zip(range(times.stop), _lockstep(rule, family)):
        orbit, drift, _ = state
        read, batch, stepping = t in times, [], []
        for a, b, cells in live:
            d = _common_drift(orbit, drift, a, b)
            whole = cells is not None  # the whole set one step ago
            if whole and None not in (d, drift[a], drift[b]):  # both translated
                cells = [p - d for p in cells] if d else cells
            elif d is None and not read and (t or times.stop < 2):  # read step 0 for 1
                stepping.append((a, b, None))
                continue
            else:  # padded members over one pad differ at finitely many cells
                x, y = _at(state, a, t), _at(state, b, t)
                whole = isinstance(x, Padded) and isinstance(y, Padded) and x.pad == y.pad
                cells = _difference(x, y, *((-math.inf, math.inf) if whole else window))
            if d and not (whole and (not cells or reach[0] <= cells[0] and cells[-1] <= reach[1])):
                d = None
            if d is None:
                stepping.append((a, b, cells if whole else None))
                if not read:
                    continue
            if not d and whole and cells and (cells[0] < lo or cells[-1] > hi):
                cells = [i for i in cells if lo <= i <= hi]
            batch.append((a, b, cells, d))
        yield t, state, batch
        if not (live := stepping) and t:
            break


def _sweep(rule, inverse, family, pairs, t_range, window):
    """Runs of the cells at which `pairs` differ on `window` at the times
    of t_range, by `_pair_scan` forward under `rule` and backward under
    `inverse` (InverseRequired if negative times have none).

    Yields (a, b, sign, u, cells, v, s0, s1): pair (a, b) differs at each
    c + v*s, c in cells, at time sign*(u + s) for s0 <= s <= s1, clipped
    (`_run`) to the window and to the times asked for.  A batch's stationary
    cells (d None or 0) form one run, with v == 0; each point of a moving
    set is a run of its own, with v == -d."""
    (t_lo, t_hi), (lo, hi) = t_range, window
    if t_lo < 0 and inverse is None:
        raise InverseRequired("negative times need an inverse rule")
    for step, sign, times in ((rule, 1, range(max(t_lo, 0), t_hi + 1)),
                              (inverse, -1, range(max(-t_hi, 1), -t_lo + 1))):
        for u, _, batch in _pair_scan(step, family, pairs, times, window, (-math.inf, math.inf)):
            for a, b, cells, d in batch:  # cells of the window, at step u or from step u on
                s0, s1 = (0, 0) if d is None else (max(0, times.start - u), times.stop - 1 - u)
                if not d:
                    if cells and s0 <= s1:
                        yield a, b, sign, u, cells, 0, s0, s1
                    continue
                for p in cells:  # p - d*s, at step u + s
                    r0, r1 = _run(s0, s1, 2 * p - lo - hi, -2 * d, hi - lo)
                    if r0 <= r1:
                        yield a, b, sign, u, (p,), -d, r0, r1


# ---------------------------------------------------------------------------
# determined regions


class DeterminedRegion(Record):
    """Spacetime cells forced by agreement on [-n, n] at time zero.

    `cells` is relative to the family: with more configurations the region
    can only shrink, so a finite family yields an over-approximation of the
    family-closure's true region.
    """

    cells: frozenset
    t_range: tuple
    i_range: tuple


def determined_region(
    rule: LocalRule,
    family: Sequence[Configuration],
    n: int,
    t_range: tuple,
    i_range: tuple,
    inverse: LocalRule | None = None,
) -> DeterminedRegion:
    """Brute-force determined region over all family pairs.

    A cell (i, t) is included iff every pair of family members that agrees
    on [-n, n] at time 0 also agrees at position i after t steps (negative t
    uses the supplied inverse).

    Cost: agreeing on [-n, n] is having equal windows there, so a cell is
    determined iff every member agrees there with the first member of its
    class.  These links go through `_sweep`, whose runs of differing cells
    are listed, so stepping stops once every link has left: under a shift,
    at step 1, whatever the times asked for.
    """
    if not family:
        raise ValueError("family must be nonempty")
    (t_lo, t_hi), (i_lo, i_hi) = t_range, i_range
    classes: dict = {}
    for m, y in enumerate(family):
        classes.setdefault(y.window(-n, n), []).append(m)
    links = [(c[0], m) for c in classes.values() for m in c[1:]]
    differ: set = set()
    for _, _, sign, u, cells, v, s0, s1 in _sweep(rule, inverse, family, links, t_range, i_range):
        times = range(sign * (u + s0), sign * (u + s1 + 1), sign)
        if v:  # one point, moving by v a step
            (p,) = cells
            differ.update(zip(range(p + v * s0, p + v * (s1 + 1), v), times))
        else:
            differ.update(itertools.product(cells, times))
    box = itertools.product(range(i_lo, i_hi + 1), range(t_lo, t_hi + 1))
    return DeterminedRegion(frozenset(box) - differ, t_range, i_range)


def _difference(x: Configuration, y: Configuration, lo, hi) -> list:
    """The cells of [lo, hi] at which x and y differ.  Padded x and y over
    one pad differ only inside their words, which bounds an infinite lo or
    hi, and where one is all-pad, only at the other's non-pad cells."""
    if isinstance(x, Padded) and isinstance(y, Padded) and x.pad == y.pad:
        if not (x.word and y.word):
            z = x if x.word else y
            cells = range(z.anchor, z.anchor + len(z.word))
            return [i for i, v in zip(cells, z.word) if v != z.pad and lo <= i <= hi]
        lo = max(lo, min(x.anchor, y.anchor))
        hi = min(hi, max(x.anchor + len(x.word), y.anchor + len(y.word)) - 1)
    rx, ry = x.window(lo, hi), y.window(lo, hi)
    return [] if rx == ry else [i for i, v, w in zip(range(lo, hi + 1), rx, ry) if v != w]


def region_to_lines(region: DeterminedRegion) -> str:
    """Sorted "(i,t)" pairs, one per line.  The i-range by t-range box is
    walked in that order, with no sort, when it holds every cell and at
    most twice as many cells as the region (a box cell costs about half
    what a sorted one does)."""
    (t_lo, t_hi), (i_lo, i_hi) = region.t_range, region.i_range
    cells = []
    if max(0, i_hi - i_lo + 1) * max(0, t_hi - t_lo + 1) <= 2 * len(region.cells):
        box = itertools.product(range(i_lo, i_hi + 1), range(t_lo, t_hi + 1))
        cells = [*filter(region.cells.__contains__, box)]
    if len(cells) != len(region.cells):
        cells = sorted(region.cells)
    return "\n".join(f"({i},{t})" for i, t in cells) + "\n"


# ---------------------------------------------------------------------------
# pair difference fronts


_TIME = itemgetter(0)  # of a breakpoint


def _push(breaks, t, v, s):
    """Append the breakpoint (t, v, s) unless it continues the last piece."""
    if breaks:
        pt, pv, ps = breaks[-1]
        if ps == s and (pv + ps * (t - pt) if ps else pv) == v:
            return
    breaks.append((t, v, s))


class Front(Sequence):
    """A monotone front f(0), ..., f(n-1), held as breakpoints (t, v, s):
    from time t to the next breakpoint, f is v + s*(t' - t).  A value of
    None (slope 0) stands for no front yet.  `t_max` is n - 1, the last
    time, which `len` cannot return from n = 2**63 on.

    It reads as the tuple of its values: len, indexing, slicing, iteration
    and equality with a list or tuple (and, like a list, it is unhashable).
    The methods and equality of two fronts work on the breakpoints, so a
    front with k of them costs O(k) to clip or merge, O(k log k) to compare
    and O(log k) to search, whatever its length; a slice costs O(log k)
    plus the span it covers.
    """

    __slots__ = ("_n", "_b")

    def __init__(self, n: int, breaks: list):
        # the times of `breaks` start at 0 and increase, all below n
        self._n = n
        self._b = breaks

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        return self._values(0)

    def _values(self, a: int):
        """f(a), f(a + 1), ..., f(n - 1), lazily, from the piece holding a."""
        k = max(bisect_right(self._b, a, key=_TIME) - 1, 0)
        ends = chain(map(_TIME, islice(self._b, k + 1, None)), (self._n,))
        return chain.from_iterable(
            range(v + s * (max(t, a) - t), v + s * (end - t), s) if s
            else repeat(v, end - max(t, a))
            for (t, v, s), end in zip(islice(self._b, k, None), ends)
        )

    def __getitem__(self, t):
        if isinstance(t, slice):  # read from the slice's first time on
            r = range(self._n)[t]
            up = r if r.step > 0 else r[::-1]
            got = list(islice(self._values(up.start), 0, len(up) * up.step, up.step))
            return got if r.step > 0 else got[::-1]
        t = range(self._n)[t]
        bt, v, s = self._b[bisect_right(self._b, t, key=_TIME) - 1]
        return v + s * (t - bt) if s else v

    def __eq__(self, other):
        if not isinstance(other, (Front, list, tuple)):
            return NotImplemented
        if self.t_max != (other.t_max if isinstance(other, Front) else len(other) - 1):
            return False
        if not isinstance(other, Front):
            return list(self) == (other if isinstance(other, list) else list(other))
        # between the union of their breakpoint times both are lines, each
        # fixed by its first two values
        times = sorted({b[0] for b in self._b + other._b})
        return all(self[t] == other[t] and (e - t < 2 or self[t + 1] == other[t + 1])
                   for t, e in zip(times, [*times[1:], self._n]))

    def __repr__(self) -> str:
        return f"Front({self._n}, {self._b!r})"

    @property
    def start(self):
        """f(0)."""
        return self._b[0][1]

    @property
    def t_max(self) -> int:
        return self._n - 1

    def advance(self) -> Front:
        """|f(t) - f(0)|: how far the front has come from its start."""
        v0 = self.start
        c = -1 if self[-1] < v0 else 1
        return Front(self._n, [(t, c * (v - v0), c * s) for t, v, s in self._b])

    def clip(self, h) -> Front:
        """Every value v as min(max(v, -h), h)."""
        floor, ceiling = Front(self._n, [(0, -h, 0)]), Front(self._n, [(0, h, 0)])
        return Front.envelope([Front.envelope([self, floor]), ceiling], -1)

    def reach(self, x) -> int:
        """The first t >= 1 at which the front has come as far as x from
        f(0), going the way x lies; t_max + 1 if it never does."""
        b, v0 = self._b, self._b[0][1]
        if x == v0:
            return 1
        c = 1 if x > v0 else -1
        k = bisect_left(b, c * x, key=lambda p: c * p[1])
        first = b[k][0] if k < len(b) else self._n
        if k:  # the piece before may climb to x on its way
            t, v, s = b[k - 1]
            if c * s > 0:
                first = min(first, t + (c * (x - v) - 1) // (c * s) + 1)
        return max(1, first)

    @staticmethod
    def envelope(fronts, outward: int = 1) -> Front:
        """The outermost of equally long fronts at each t: their maximum for
        outward = 1, their minimum for -1.  Merges the breakpoints two
        fronts at a time: between breakpoints both are lines, and the
        steeper one overtakes the other at most once."""
        unique = {tuple(f._b): f for f in fronts}.values()
        return functools.reduce(functools.partial(_outer, c=outward), unique)


def _outer(f: Front, g: Front, c: int) -> Front:
    n, fb, gb, out = f._n, f._b, g._b, []
    i = j = a = 0
    while a < n:
        (ft, fv, fs), (gt, gv, gs) = fb[i], gb[j]
        fe = fb[i + 1][0] if i + 1 < len(fb) else n
        ge = gb[j + 1][0] if j + 1 < len(gb) else n
        # (value at a, slope), going outward; the leader last
        (ov, os), (lv, ls) = sorted(((c * (fv + fs * (a - ft)), c * fs),
                                     (c * (gv + gs * (a - gt)), c * gs)))
        _push(out, a, c * lv, c * ls)
        end = min(fe, ge)
        if os > ls:
            k = (lv - ov - 1) // (os - ls) + 1  # steps until it draws level
            if a + k < end:
                _push(out, a + k, c * (ov + os * k), c * os)
        i += fe == end
        j += ge == end
        a = end
    return Front(n, out)


def _drifting(front, diff, step, m, horizon) -> list:
    """Breakpoints over s = 0..m-1 of a cumulative front, now at `front`,
    toward which a difference set `diff` moves `step` cells per step.  Each
    residue class of diff mod |step| walks on its own lattice, so its
    outermost member gives one ramp, held at its last cell inside the
    horizon; the front is their envelope with its value now."""
    c = 1 if step > 0 else -1
    tops: dict = {}  # residue -> outermost member, times c
    for p in reversed(diff) if c > 0 else diff:
        tops.setdefault(p % step, c * p)
        if len(tops) == c * step:  # every class has its outermost member
            break
    # the front's value now, unless a ramp starts there and outruns it
    ramps = [] if c * front in tops.values() else [[(0, front, 0)]]
    for w in tops.values():
        # k: the steps the ramp climbs
        k = (horizon - w) // (c * step) if w + c * step * (m - 1) > horizon else m
        ramps.append([(0, c * w, step if k else 0)])
        if 0 < k < m:
            ramps[-1].append((k, c * w + step * k, 0))
    if len(ramps) == 1:
        return ramps[0]
    return Front.envelope([Front(m, b) for b in ramps], c)._b


def _pair_fronts(rule, family, t_max, horizon):
    """Cumulative difference fronts of every pair of distinct members.

    Returns ({(a, b): (right, left)}, clipped), with right and left two
    `Front`s.  right[t] and left[t] are the rightmost and leftmost
    positions in [-horizon, horizon] at which the orbits of family[a] and
    family[b] differed at some time <= t (None while they differed nowhere
    there); clipped tells whether a support ever reached past the horizon.

    The pairs go through `_pair_scan`, clipped at the horizon.  A pair
    that leaves it with drift d has the difference set D_t - d*s at time
    t+s, so its fronts follow in closed form (`_drifting`, which clips
    too); with d != 0, only once D_t lies inside the horizon.  Cost: that
    of `_pair_scan`, then O(1 + |d|) breakpoints per front.
    """
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    for y in family:
        if not isinstance(y, Padded):
            raise TypeError("pair scans need padded configurations")
        if y.pad != family[0].pad:
            raise ValueError("family members must share one pad symbol")
    n = t_max + 1
    breaks = {(a, b): ([], []) for a, b in itertools.combinations(range(len(family)), 2)
              if family[a] != family[b]}
    if not breaks:
        return breaks, False

    def past(state, t):  # whether a support reaches past the horizon at time t
        return horizon < math.inf and any(
            not -horizon <= y.anchor - (d or 0) * (t - s) <= horizon + 1 - len(y.word)
            for y, d, s in zip(*state) if y.word)

    clipped, window = False, (-horizon, horizon)
    for t, state, batch in _pair_scan(rule, family, breaks, range(n), window, window):
        clipped = clipped or past(state, t)
        for a, b, diff, d in batch:
            right, left = breaks[a, b]
            r, l = (right[-1][1], left[-1][1]) if t else (None, None)
            if diff:
                r = diff[-1] if r is None else max(r, diff[-1])
                l = diff[0] if l is None else min(l, diff[0])
            if not t or r != right[-1][1]:
                right.append((t, r, 0))
            if not t or l != left[-1][1]:
                left.append((t, l, 0))
            if diff and d:  # the front on the side D_t moves to
                side, v = (right, r) if d < 0 else (left, l)
                if side[-1][0] == t:
                    side.pop()
                for s, w, z in _drifting(v, diff, -d, n - t, horizon):
                    _push(side, t + s, w, z)
    # after the scan's last step each support only moves: check it at t_max
    clipped = clipped or past(state, t_max)
    fronts = {pair: (Front(n, r), Front(n, l)) for pair, (r, l) in breaks.items()}
    return fronts, clipped


# ---------------------------------------------------------------------------
# propagation exponents


class LyapunovEstimate(Record):
    """Cumulative propagation fronts and their per-step ratios.

    lambda_plus[t] bounds how far right-half information must reach left
    (the paper-style I^+ maximized over the family and over shifts);
    lambda_minus is the mirror.  Values are exact for padded families;
    `truncated` marks runs where the horizon clipped a front, making the
    estimate a lower bound only.  Both fronts run from time 0 to `t_max`.
    """

    lambda_plus: Front
    lambda_minus: Front
    truncated: bool = False

    @property
    def t_max(self) -> int:
        return self.lambda_plus.t_max

    def ratio_plus(self, t: int) -> float:
        return self.lambda_plus[t] / t if t else 0.0

    def ratio_minus(self, t: int) -> float:
        return self.lambda_minus[t] / t if t else 0.0


def _estimate(fronts, t_max, truncated) -> LyapunovEstimate:
    # the advance of each cumulative (right, left) front from its start,
    # maximized over the fronts and 0; a pair with every difference beyond
    # the horizon has no fronts, and a front that ends where it starts
    # never advanced
    zero = Front(t_max + 1, [(0, 0, 0)])
    seen = [pair for pair in fronts if pair[0].start is not None]
    plus = Front.envelope([zero, *(r.advance() for r, _ in seen if r[-1] != r[0])])
    minus = Front.envelope([zero, *(l.advance() for _, l in seen if l[-1] != l[0])])
    if truncated:
        warnings.warn(  # stacklevel 3 names the caller of the public function
            "difference front reached the horizon; exponents are lower bounds",
            TruncationWarning,
            stacklevel=3,
        )
    return LyapunovEstimate(plus, minus, truncated)


def lyapunov_profile(
    rule: LocalRule,
    family: Sequence[Padded],
    t_max: int,
    horizon: int = 10**6,
) -> LyapunovEstimate:
    """Propagation exponents of a padded family.

    For each ordered pair the premise "agree on a half-line" fails exactly
    beyond the pair's extreme initial difference, and the conclusion "stay
    equal on the complementary half-line up to time t" fails exactly when
    the cumulative difference front has crossed the cut.  Maximizing the
    front advance over pairs therefore evaluates the quantifier definition
    without enumerating cuts; the equivalence with the direct evaluation is
    covered by tests.  Families with a periodic member are rejected: two
    distinct periodic points never agree on a half-line, which makes the
    premise vacuous and the profile identically zero.

    Cost: that of `_pair_fronts`, plus one merge of breakpoints per
    pair for the envelope of the advances: O(breakpoints), not O(t_max).
    """
    fronts, truncated = _pair_fronts(rule, family, t_max, horizon)
    return _estimate(fronts.values(), t_max, truncated)


def profile_from_fronts(right, left, horizon: int) -> LyapunovEstimate:
    """Wrap precomputed cumulative fronts of a single perturbation (a
    configuration versus itself without the perturbing symbol) as an
    estimate up to their `t_max`; the perturbation site is their start,
    the initial difference right[0] == left[0].  As in
    `lyapunov_profile`, the fronts are clipped to [-horizon, horizon], and
    one that passed it makes the estimate a lower bound and warns.

    Cost: O(breakpoints) of the two `Front`s, one per move of the walker's
    front, whatever the number of steps.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    return _estimate(
        [(right.clip(horizon), left.clip(horizon))] if abs(right.start) <= horizon else [],
        right.t_max, right[-1] > horizon or left[-1] < -horizon,
    )


def lyapunov_csv(estimate: LyapunovEstimate) -> str:
    lines = ["t,Lambda_plus,Lambda_minus,ratio_plus,ratio_minus"]
    rows = zip(itertools.count(), estimate.lambda_plus, estimate.lambda_minus)
    for t, plus, minus in islice(rows, 1, None):
        lines.append(f"{t},{plus},{minus},{plus / t:.6f},{minus / t:.6f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# blocking words


class BlockingUpTo(Record):
    t_max: int


class RefutedAt(Record):
    t: int


class BlockingReport(Record):
    word: tuple
    verdict: BlockingUpTo | RefutedAt


def embedded_word_family(
    alphabet: Alphabet, words: Sequence[tuple], pad
) -> tuple:
    """For each word: the word embedded at [1, len], plus variants carrying
    one extra symbol, the alphabet's first non-pad one, two cells right of
    the word and two cells left of it.  The variant pairs give every
    embedded word both one-sided shielding tests something to shield
    against."""
    mark = next(s for s in alphabet if s != pad)
    family = []
    for w in words:
        w = tuple(w)
        family.append(Padded(alphabet, w, pad, anchor=1))
        family.append(
            Padded(alphabet, w + (pad, mark), pad, anchor=1)
        )
        family.append(
            Padded(alphabet, (mark, pad, pad) + w, pad, anchor=-2)
        )
    return tuple(family)


def blocking_word_search(
    rule: LocalRule,
    family: Sequence[Padded],
    max_len: int,
    t_max: int,
    words: Sequence[tuple] | None = None,
) -> list[BlockingReport]:
    """Test words for the two-sided shielding property: pairs sharing the
    word followed (resp. preceded) by an identical half-line must keep that
    half-line identical under iteration, out to t_max.

    A pair refutes a word from the right at time t when its difference
    front, initially strictly left of an occurrence, has crossed into the
    occurrence's half-line; mirrored on the left.  The verdict takes the
    earliest refutation over pairs, occurrences, and sides.  By default
    every word of length <= max_len occurring in the family is reported;
    pass `words` to report those instead, each at its own length, which
    max_len does not bound.

    Cost: that of `_pair_fronts` (no step at all for a pair once it only
    translates), one `Front.reach` (a bisection over breakpoints) per pair,
    word and side, and an occurrence index holding only the word lengths
    reported.
    """
    fronts, _ = _pair_fronts(rule, family, t_max, math.inf)
    lengths = range(1, max_len + 1)
    if words is not None:
        words = [tuple(w) for w in words]
        lengths = {len(w) for w in words}
    # the span holds every support with the longest word and 2 cells to spare
    spare = max(lengths, default=0) + 2
    lo = min((y.support[0] if len(y.support) else 0) for y in family) - spare
    hi = max((y.support[-1] if len(y.support) else 0) for y in family) + spare
    occurrences: list[dict] = []
    for y in family:
        row = y.window(lo, hi)
        index: dict = {}
        for length in lengths:
            for c in range(lo, hi - length + 2):
                index.setdefault(row[c - lo : c - lo + length], []).append(c)
        occurrences.append(index)
    if words is None:
        words = sorted(set().union(*occurrences))
    reports = []
    for word in words:
        hits = []
        for (a, _), (right, left) in fronts.items():
            spots = occurrences[a].get(word, ())
            r, l = right.start, left.start
            # right side: earliest occurrence strictly beyond the initial
            # difference front refutes soonest, when the front reaches it
            c = next((c for c in spots if c > r), None)
            if c is not None:
                hits.append(right.reach(c))
            # left side: latest occurrence ending before the leftmost
            # initial difference
            end = next(
                (c + len(word) - 1 for c in reversed(spots) if c + len(word) - 1 < l),
                None,
            )
            if end is not None:
                hits.append(left.reach(end))
        refuted = min(hits, default=t_max + 1)
        verdict = BlockingUpTo(t_max) if refuted > t_max else RefutedAt(refuted)
        reports.append(BlockingReport(word, verdict))
    return reports


# ---------------------------------------------------------------------------
# directional probes


class Direction(Record):
    """A line through the spacetime origin with a thickness.

    Either the time axis (no slope: `vertical`) or the graph t = slope * i
    with slope given as time over space.  Thickness is measured as the
    horizontal band |i| <= r in the vertical case and
    |t - slope*i| <= r * (1 + |slope|) otherwise, which is exact in
    rational arithmetic and within a constant factor of Euclidean distance.
    """

    thickness: Fraction
    slope: Fraction | None = None

    def __post_init__(self):
        if self.thickness <= 0:
            raise ValueError("thickness must be positive")

    @property
    def vertical(self) -> bool:
        return self.slope is None

    def contains(self, i: int, t: int) -> bool:
        s = self.slope
        if s is None:
            return abs(i) <= self.thickness
        return abs(t - s * i) <= self.thickness * (1 + abs(s))


class ExpansiveAtScale(Record):
    pairs_checked: int


class NotDeterminedAtScale(Record):
    witness_pair: tuple
    witness_cell: tuple


def direction_probe(
    rule: LocalRule,
    inverse: LocalRule | None,
    family: Sequence[Configuration],
    direction: Direction,
    extent: tuple,
):
    """Does the thickened line determine the surrounding window?

    Data cells are the band intersected with [-E, E] x [-T, T]; the query
    box is the half-scale window, which keeps the question meaningful (a
    bounded band can never pin down cells whose input cones leave it).
    Returns ExpansiveAtScale, or NotDeterminedAtScale with the first pair
    (in lexicographic order) agreeing on the band yet differing inside the
    query box, and their first differing cell (time-major).

    Cost: that of `_sweep` over every pair.  Each run of a pair's
    differences lies in the band, and in the query box, along one run of
    steps (`_run`), so no band, box or row is listed.
    """
    e_extent, t_extent = extent
    s, r = direction.slope, direction.thickness  # the band: |x*i + y*t| <= z
    x, y, z = (1, 0, r) if s is None else (-s, 1, r * (1 + abs(s)))
    pairs = list(itertools.combinations(range(len(family)), 2))
    seen, first = set(), {}  # pairs differing on the band; first query cells
    for m, k, sign, u, cells, v, s0, s1 in _sweep(rule, inverse, family, pairs,
                                                  (-t_extent, t_extent), (-e_extent, e_extent)):
        for p in cells:  # cell p + v*s at time sign*(u + s)
            b0, b1 = _run(s0, s1, x * p + y * sign * u, x * v + y * sign, z)
            if b0 <= b1:
                seen.add((m, k))
            q0, q1 = _run(s0, min(s1, t_extent // 2 - u), p, v, e_extent // 2)
            if q0 <= q1:
                q = q0 if sign > 0 else q1  # the earliest time
                cell = (sign * (u + q), p + v * q)
                first[m, k] = min(first.get((m, k), cell), cell)
    agree = [pair for pair in pairs if pair not in seen]
    for pair in agree:
        if pair in first:
            return NotDeterminedAtScale(pair, first[pair][::-1])
    return ExpansiveAtScale(len(agree))


def _run(lo, hi, a, b, c) -> tuple:
    """(first, last) of the steps s in [lo, hi] with |a + b*s| <= c; none if first > last."""
    if b < 0:
        a, b = -a, -b
    if not b:
        return (lo, hi) if abs(a) <= c else (1, 0)
    return max(lo, -((c + a) // b)), min(hi, (c - a) // b)
