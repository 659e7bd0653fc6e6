"""Tests for the finite-scale dynamics probes.

The expensive claims (region shapes, propagation exponents) are checked
against independent brute-force evaluations of their defining quantifiers,
not against the module's own bookkeeping.
"""

import bisect
import functools
import itertools
import operator
import time
import tracemalloc
import warnings
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from expansive_lab import dynamics_analysis, shift_core
from expansive_lab.arrow_bracket import (
    ARROW_LEFT,
    ARROW_RIGHT,
    BLANK,
    build_inverse_rule,
    build_rule,
    enumerate_L,
    level_alphabet,
    make_block,
    perturbation_front,
)
from expansive_lab.dynamics_analysis import (
    BlockingUpTo,
    DeterminedRegion,
    Direction,
    ExpansiveAtScale,
    InverseRequired,
    NotDeterminedAtScale,
    RefutedAt,
    TruncationWarning,
    _pair_fronts,
    blocking_word_search,
    determined_region,
    direction_probe,
    embedded_word_family,
    lyapunov_csv,
    lyapunov_profile,
    padded_scale_family,
    periodic_family,
    profile_from_fronts,
    region_to_lines,
)
from expansive_lab.shift_core import (
    Alphabet,
    AlphabetMismatch,
    LocalRule,
    Padded,
    Periodic,
    apply_rule,
    compose_rules,
    identity_rule,
    min_rotation,
    orbit,
    shift_rule,
)

BIN = Alphabet(("0", "1"))


def bin_family(c_max):
    return padded_scale_family(BIN, c_max, "0")


# ---------------------------------------------------------------------------
# configuration families


def test_padded_scale_family_contents():
    fam = bin_family(2)
    assert len(fam) == 6
    assert fam[0].word == ()
    assert {y.anchor for y in fam[1:]} == {-2, -1, 0, 1, 2}
    assert all(y.word == ("1",) for y in fam[1:])


def test_padded_scale_family_extra_words():
    fam = padded_scale_family(BIN, 1, "0", extra_words=[("1", "1")])
    assert len(fam) == 5
    assert fam[-1].word == ("1", "1") and fam[-1].anchor == 0


def _reference_periodic_family(alphabet, max_period):
    """`periodic_family` by brute force: every word of each period, keyed
    by its least rotation, keeping the first in an order where word[0]
    varies fastest; the reference of the necklace enumeration."""
    reps = {}
    for p in range(1, max_period + 1):
        for rev in itertools.product(alphabet.symbols, repeat=p):
            reps.setdefault(min_rotation(rev[::-1]), rev[::-1])
    return tuple(Periodic(alphabet, word) for word in reps.values())


def test_periodic_family_rotation_classes():
    fam = periodic_family(BIN, 3)
    canon = {
        min(y.word[i:] + y.word[:i] for i in range(len(y.word))) for y in fam
    }
    assert len(fam) == 9
    assert canon == {
        ("0",),
        ("1",),
        ("0", "0"),
        ("0", "1"),
        ("1", "1"),
        ("0", "0", "0"),
        ("0", "0", "1"),
        ("0", "1", "1"),
        ("1", "1", "1"),
    }
    # the brute-force reference, order included, over sizes 1-4 and an
    # alphabet whose index order is not its string order
    for symbols, max_period in (("x", 6), ("01", 12), ("abc", 7), ("za", 10), ("abcd", 6)):
        alphabet = Alphabet(tuple(symbols))
        assert periodic_family(alphabet, max_period) == _reference_periodic_family(
            alphabet, max_period
        ), symbols
    assert periodic_family(BIN, 0) == periodic_family(BIN, -2) == ()
    with pytest.raises(ValueError) as exc:
        periodic_family(BIN, 30)
    assert exc.value.args == ("periodic family up to period 30 over 2 symbols is too large",)


def crossing_family(k, n, shifts=(0,)):
    """Every intermediate pattern of a block crossing, padded with blanks,
    at each requested anchor shift."""
    alphabet = level_alphabet(n)
    words = sorted(enumerate_L(k, n).words)
    return tuple(Padded(alphabet, w, BLANK, anchor=s) for s in shifts for w in words)


def test_crossing_family_counts_and_anchors():
    fam = crossing_family(0, 1, shifts=(0, 5))
    # each direction of the level-0 crossing visits 10 configurations plus
    # its start, and the two word sets are disjoint
    assert len(fam) == 44
    assert all(y.pad == BLANK for y in fam)
    assert {y.anchor for y in fam} == {0, 5}


# ---------------------------------------------------------------------------
# determined regions


def test_identity_region_is_the_agreement_band():
    region = determined_region(
        identity_rule(BIN), bin_family(4), 2, (0, 3), (-4, 4)
    )
    assert region.cells == frozenset(
        (i, t) for i in range(-2, 3) for t in range(4)
    )


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [1, 2])
def test_shift_region_is_the_sloped_band(d, n):
    """Under the d-shift, cell (i, t) copies the initial cell i + d*t, so
    the determined region is exactly the band |i + d*t| <= n."""
    fam = bin_family(14)
    region = determined_region(
        shift_rule(BIN, d),
        fam,
        n,
        (-2, 2),
        (-8, 8),
        inverse=shift_rule(BIN, -d),
    )
    expected = {
        (i, t)
        for i in range(-8, 9)
        for t in range(-2, 3)
        if abs(i + d * t) <= n
    }
    assert region.cells == frozenset(expected)


def test_region_contains_the_observed_interval():
    region = determined_region(shift_rule(BIN), bin_family(8), 3, (0, 2), (-6, 6))
    assert all((i, 0) in region.cells for i in range(-3, 4))


def test_region_negative_times_need_inverse():
    with pytest.raises(InverseRequired):
        determined_region(shift_rule(BIN), bin_family(4), 1, (-1, 1), (-3, 3))


def test_region_empty_family_rejected():
    with pytest.raises(ValueError):
        determined_region(shift_rule(BIN), (), 1, (0, 1), (-2, 2))


def test_region_grows_with_observation_width():
    fam = bin_family(10)
    rule, inv = shift_rule(BIN), shift_rule(BIN, -1)
    small = determined_region(rule, fam, 1, (-2, 2), (-6, 6), inverse=inv)
    large = determined_region(rule, fam, 2, (-2, 2), (-6, 6), inverse=inv)
    assert small.cells < large.cells


def test_region_shrinks_with_richer_family():
    # every member of the sparse family appears in the rich one, so the rich
    # region has at least as many refuting pairs
    sparse, rich = bin_family(4), bin_family(8)
    assert set(sparse) <= set(rich)
    r_sparse = determined_region(shift_rule(BIN), sparse, 1, (0, 2), (-6, 6))
    r_rich = determined_region(shift_rule(BIN), rich, 1, (0, 2), (-6, 6))
    assert r_rich.cells <= r_sparse.cells


@settings(max_examples=150, deadline=None)
@given(
    number=st.integers(0, 127).map(lambda k: 2 * k),  # 000 -> 0
    members=st.lists(
        st.tuples(st.text("01", max_size=5), st.integers(-4, 4)),
        min_size=1,
        max_size=7,
    ),
    n=st.integers(-1, 3),
    t_hi=st.integers(0, 6),
    i_lo=st.integers(-8, 1),
    width=st.integers(-1, 12),
)
def test_region_matches_per_pair_oracle(number, members, n, t_hi, i_lo, width):
    """Every cell of every agreeing pair compared one by one."""
    rule = elementary_rule(number)
    family = tuple(Padded(BIN, tuple(w), "0", anchor=c) for w, c in members)
    i_hi = i_lo + width - 1
    orbits = [orbit(rule, y, t_hi) for y in family]
    pairs = [
        (a, b)
        for a, b in itertools.combinations(range(len(family)), 2)
        if all(family[a][i] == family[b][i] for i in range(-n, n + 1))
    ]
    want = {
        (i, t)
        for t in range(t_hi + 1)
        for i in range(i_lo, i_hi + 1)
        if all(orbits[a][t][i] == orbits[b][t][i] for a, b in pairs)
    }
    region = determined_region(rule, family, n, (0, t_hi), (i_lo, i_hi))
    assert region.cells == frozenset(want)


def test_region_to_lines_golden():
    region = determined_region(
        identity_rule(BIN), bin_family(2), 1, (0, 1), (-2, 2)
    )
    assert region_to_lines(region) == (
        "(-1,0)\n(-1,1)\n(0,0)\n(0,1)\n(1,0)\n(1,1)\n"
    )
    # hand-built regions with a cell outside the box, or a box far larger
    # than the region, print sorted too
    outside = DeterminedRegion(region.cells | {(-5, 3), (9, -1)}, (0, 1), (-2, 2))
    assert region_to_lines(outside) == (
        "(-5,3)\n(-1,0)\n(-1,1)\n(0,0)\n(0,1)\n(1,0)\n(1,1)\n(9,-1)\n"
    )
    huge = DeterminedRegion(frozenset({(3, 7), (-2, 10**30)}), (0, 10**30), (-2, 10**30))
    assert region_to_lines(huge) == f"(-2,{10**30})\n(3,7)\n"


# ---------------------------------------------------------------------------
# propagation exponents


def _direct_exponents(rule, family, t_max, window):
    """Evaluate the half-line propagation quantifiers literally.

    For every ordered pair and every cut c where the premise (agreement on
    the half-line toward the window edge) holds, find the least shift m such
    that the orbits agree beyond c + m at all times up to t.  The window
    stands in for infinity, so it must exceed every support plus the maximal
    drift.
    """
    orbits = []
    for y in family:
        row, cur = [y], y
        for _ in range(t_max):
            cur = apply_rule(rule, cur)
            row.append(cur)
        orbits.append(row)
    plus = [0] * (t_max + 1)
    minus = [0] * (t_max + 1)
    for a in range(len(family)):
        for b in range(a + 1, len(family)):
            if family[a] == family[b]:
                continue
            for c in range(-window, window + 1):
                if all(
                    family[a][i] == family[b][i] for i in range(c, window + 1)
                ):
                    m = 0
                    for t in range(1, t_max + 1):
                        while any(
                            orbits[a][s][i] != orbits[b][s][i]
                            for s in range(t + 1)
                            for i in range(c + m, window + 1)
                        ):
                            m += 1
                        plus[t] = max(plus[t], m)
                if all(
                    family[a][i] == family[b][i] for i in range(-window, c + 1)
                ):
                    m = 0
                    for t in range(1, t_max + 1):
                        while any(
                            orbits[a][s][i] != orbits[b][s][i]
                            for s in range(t + 1)
                            for i in range(-window, c - m + 1)
                        ):
                            m += 1
                        minus[t] = max(minus[t], m)
    return tuple(plus), tuple(minus)


def _arrow_probe_family():
    alpha = level_alphabet(1)
    block = make_block(0, 1).word
    bg = Padded(alpha, block, BLANK, anchor=2)
    from_left = Padded(alpha, (ARROW_RIGHT, BLANK) + block, BLANK, anchor=0)
    from_right = Padded(alpha, block + (BLANK, ARROW_LEFT), BLANK, anchor=2)
    return bg, from_left, from_right


@pytest.mark.parametrize(
    "make_rule,family,t_max,window",
    [
        (lambda: shift_rule(BIN), bin_family(2), 4, 10),
        (lambda: shift_rule(BIN, -1), bin_family(2), 4, 10),
        (lambda: identity_rule(BIN), bin_family(2), 4, 10),
        (lambda: build_rule(1).rule, _arrow_probe_family(), 5, 15),
    ],
    ids=["shift-left", "shift-right", "identity", "arrows"],
)
def test_profile_matches_direct_quantifier(make_rule, family, t_max, window):
    rule = make_rule()
    est = lyapunov_profile(rule, family, t_max)
    plus, minus = _direct_exponents(rule, family, t_max, window)
    assert est.lambda_plus == plus
    assert est.lambda_minus == minus


def test_shift_profile_closed_forms():
    est = lyapunov_profile(shift_rule(BIN), bin_family(3), 6)
    assert est.lambda_plus == (0,) * 7
    assert est.lambda_minus == tuple(range(7))
    assert est.ratio_minus(6) == 1.0 and est.ratio_plus(6) == 0.0
    est2 = lyapunov_profile(shift_rule(BIN, 2), bin_family(3), 5)
    assert est2.lambda_minus == tuple(2 * t for t in range(6))


def test_identity_profile_is_flat():
    est = lyapunov_profile(identity_rule(BIN), bin_family(3), 5)
    assert est.lambda_plus == (0,) * 6
    assert est.lambda_minus == (0,) * 6
    assert not est.truncated
    assert est.ratio_plus(0) == 0.0


def test_profile_is_nondecreasing():
    rule = build_rule(1).rule
    est = lyapunov_profile(rule, _arrow_probe_family(), 30)
    assert all(a <= b for a, b in zip(est.lambda_plus, est.lambda_plus[1:]))
    assert all(a <= b for a, b in zip(est.lambda_minus, est.lambda_minus[1:]))


def test_profile_from_walker_fronts_matches_pair_profile():
    alpha = level_alphabet(1)
    block = make_block(0, 1).word
    cfg = Padded(alpha, (ARROW_RIGHT, BLANK) + block, BLANK, anchor=0)
    bg = Padded(alpha, block, BLANK, anchor=2)
    direct = lyapunov_profile(build_rule(1).rule, (bg, cfg), 30)
    right, left = perturbation_front(cfg, 1, 30)
    fast = profile_from_fronts(right, left, horizon=10**6)
    assert fast.lambda_plus == direct.lambda_plus
    assert fast.lambda_minus == direct.lambda_minus
    assert fast.t_max == 30


def test_profile_reads_t_max_past_the_index_range():
    """An arrow facing a marked bracket is stuck, so its fronts hold one
    breakpoint at any t_max; from 2**63 on, `len` cannot give their length
    but `t_max` can."""
    cfg = Padded(level_alphabet(1), (ARROW_RIGHT, "[*0"), BLANK)
    right, left = perturbation_front(cfg, 1, 2**63)
    est = profile_from_fronts(right, left, 10**6)
    assert est.t_max == right.t_max == left.t_max == 2**63
    assert (est.lambda_plus[2**63], est.lambda_minus[-1], est.truncated) == (0, 0, False)
    assert right != dynamics_analysis.Front(2**64, [(0, 0, 0)])


class _UnlistedFront(dynamics_analysis.Front):
    """A front whose values cannot be listed."""

    __slots__ = ()

    def __iter__(self):
        raise AssertionError("the front's values were listed")


@pytest.mark.parametrize("t_max", [2**62, 2**63])
def test_fronts_compare_without_listing_their_values(t_max):
    """Two fronts compare piece by piece, so the stuck arrow's fronts,
    one breakpoint each, compare at any t_max."""
    n = t_max + 1
    front = functools.partial(_UnlistedFront, n)
    assert front([(0, 0, 0)]) == front([(0, 0, 0), (t_max, 0, 0)])
    assert front([(0, 0, 1)]) == front([(0, 0, 1), (2**40, 2**40, 1)])
    assert front([(0, 0, 1)]) != front([(0, 0, 1), (t_max, n, 0)])
    assert front([(0, 0, 1)]) != front([(0, 0, 2)])
    cfg = Padded(level_alphabet(1), (ARROW_RIGHT, "[*0"), BLANK)
    right, left = perturbation_front(cfg, 1, t_max)
    assert right == left


def test_front_leaves_other_comparisons_to_python():
    front = dynamics_analysis.Front(3, [(0, 0, 1)])
    assert front.__eq__(5) is NotImplemented and front != 5
    assert repr(front) == "Front(3, [(0, 0, 1)])"


def test_profiles_refuse_a_negative_horizon():
    right = dynamics_analysis.Front(3, [(0, 0, 1)])
    left = dynamics_analysis.Front(3, [(0, 0, -1)])
    for call in (lambda: lyapunov_profile(identity_rule(BIN), bin_family(1), 2, -1),
                 lambda: profile_from_fronts(right, left, -1)):
        with pytest.raises(ValueError) as exc:
            call()
        assert exc.value.args == ("horizon must be >= 0",)


def _rebroken(breaks, cuts):
    """The same front's breakpoints with one at each time in `cuts` too."""
    out = []
    for t in sorted({b[0] for b in breaks} | cuts):
        bt, v, s = max(b for b in breaks if b[0] <= t)
        out.append((t, v + s * (t - bt), s))
    return out


@st.composite
def short_breaks(draw, n):
    times = draw(st.sets(st.integers(1, n - 1), max_size=3)) if n > 1 else set()
    return [(t, draw(st.integers(-2, 2)), draw(st.integers(-1, 1)))
            for t in sorted({0} | times)]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 8))
def test_front_equality_matches_its_values(data, n):
    f = data.draw(short_breaks(n))
    if data.draw(st.booleans()):
        g = data.draw(short_breaks(n))
    else:  # f broken at more times, one piece maybe moved
        g = _rebroken(f, data.draw(st.sets(st.integers(0, n - 1), max_size=3)))
        if data.draw(st.booleans()):
            k = data.draw(st.integers(0, len(g) - 1))
            t, v, s = g[k]
            g[k] = (t, v + data.draw(st.integers(-1, 1)), s + data.draw(st.integers(-1, 1)))
    f, g = dynamics_analysis.Front(n, f), dynamics_analysis.Front(n, g)
    assert (f == g) == (list(f) == list(g)) == (not f != g)


def test_profile_truncation_clamps_and_warns():
    with pytest.warns(TruncationWarning):
        est = lyapunov_profile(shift_rule(BIN), bin_family(2), 8, horizon=3)
    assert est.truncated
    assert est.lambda_minus == (0, 1, 2, 3, 4, 5, 5, 5, 5)


@functools.cache
def _arrow_rule(n):
    return build_rule(n).rule


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 2),
    level=st.integers(0, 1),
    site=st.integers(-4, 2),
    t_max=st.integers(0, 200),
    horizon=st.sampled_from((0, 1, 3, 10, 10**6)),
)
@example(n=1, level=1, site=-2, t_max=200, horizon=3)
@example(n=1, level=0, site=-2, t_max=0, horizon=0)
def test_walker_profile_clips_like_the_pair_profile(n, level, site, t_max,
                                                     horizon):
    """The walker's fronts of one arrow, clipped to the horizon, give the
    pair profile of the configuration and itself without its arrow; the
    warning comes iff a front passed the horizon, which a support then did
    too."""
    alpha = level_alphabet(n)
    block = make_block(level, n).word
    cfg = Padded(alpha, (ARROW_RIGHT, BLANK) + block, BLANK, anchor=site)
    bare = Padded(alpha, block, BLANK, anchor=site + 2)
    right, left = perturbation_front(cfg, n, t_max)
    assert right[0] == left[0] == site
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        est = profile_from_fronts(right, left, horizon)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = lyapunov_profile(_arrow_rule(n), (cfg, bare), t_max, horizon)
    assert est.t_max == t_max
    assert (est.lambda_plus, est.lambda_minus) == (
        want.lambda_plus, want.lambda_minus
    )
    assert est.truncated == (right[-1] > horizon or left[-1] < -horizon)
    assert est.truncated <= want.truncated
    assert est.truncated == any(
        issubclass(w.category, TruncationWarning) for w in caught
    )


def test_profile_rejects_periodic_members():
    with pytest.raises(TypeError):
        lyapunov_profile(identity_rule(BIN), (Periodic(BIN, ("0", "1")),), 3)


def test_profile_rejects_mixed_pads():
    fam = (Padded(BIN, ("1",), "0"), Padded(BIN, ("0",), "1"))
    with pytest.raises(ValueError):
        lyapunov_profile(identity_rule(BIN), fam, 3)


def test_lyapunov_csv_golden():
    est = lyapunov_profile(shift_rule(BIN), bin_family(1), 3)
    assert lyapunov_csv(est) == (
        "t,Lambda_plus,Lambda_minus,ratio_plus,ratio_minus\n"
        "1,0,1,0.000000,1.000000\n"
        "2,0,2,0.000000,1.000000\n"
        "3,0,3,0.000000,1.000000\n"
    )


# ---------------------------------------------------------------------------
# blocking words


def test_identity_words_all_block():
    fam = bin_family(2)
    reports = blocking_word_search(identity_rule(BIN), fam, 3, 60)
    assert {r.word for r in reports} == {
        ("0",),
        ("1",),
        ("0", "0"),
        ("0", "1"),
        ("1", "0"),
        ("0", "0", "0"),
        ("0", "0", "1"),
        ("0", "1", "0"),
        ("1", "0", "0"),
    }
    assert all(r.verdict == BlockingUpTo(60) for r in reports)


def test_shift_refutes_every_short_word():
    sigma = shift_rule(BIN)
    for length in range(1, 5):
        for idx in range(2**length):
            word = tuple("01"[(idx >> j) & 1] for j in range(length))
            fam = embedded_word_family(BIN, [word], "0")
            (report,) = blocking_word_search(sigma, fam, length, 8, words=[word])
            assert isinstance(report.verdict, RefutedAt), word
            assert report.verdict.t <= 2


def test_blocking_words_filter():
    fam = bin_family(2)
    reports = blocking_word_search(
        identity_rule(BIN), fam, 2, 10, words=[("0", "1")]
    )
    assert len(reports) == 1 and reports[0].word == ("0", "1")


def test_blocking_checks_a_word_longer_than_max_len():
    # max_len bounds only the default word list: a word asked for is
    # indexed at its own length and refuted as at a max_len that holds it
    fam = embedded_word_family(BIN, [("1", "0", "1")], "0")
    for max_len in (1, 2, 3):
        (report,) = blocking_word_search(shift_rule(BIN), fam, max_len, 8, [("1", "0", "1")])
        assert report.verdict == RefutedAt(2)


def test_blocking_vacuous_for_absent_word():
    # a word that occurs nowhere in the family has nothing to refute it
    (report,) = blocking_word_search(
        identity_rule(BIN), bin_family(1), 3, 10, words=[("1", "1", "1")]
    )
    assert report.verdict == BlockingUpTo(10)


def _walled_pair(k):
    """A free arrow separated from an arrow-bearing target pattern by a
    level-k bracket wall, and the same configuration without the free arrow.
    The pair differs only at the free arrow, so the target occurrence is
    shielded until the wall has been fully crossed."""
    alpha = level_alphabet(1)
    wall = make_block(k, 1).word
    target = (ARROW_RIGHT, BLANK) + make_block(0, 1).word
    tail = wall + (BLANK, BLANK) + target
    anchor = -(len(wall) + 4)
    y = Padded(alpha, (ARROW_RIGHT, BLANK) + tail, BLANK, anchor=anchor)
    z = Padded(alpha, (BLANK, BLANK) + tail, BLANK, anchor=anchor)
    return y, z, target


def test_wall_delays_refutation_by_crossing_time():
    rule = build_rule(1).rule
    times = {}
    for k in (0, 1):
        y, z, target = _walled_pair(k)
        (report,) = blocking_word_search(rule, (y, z), 7, 120, words=[target])
        assert isinstance(report.verdict, RefutedAt)
        times[k] = report.verdict.t
    # level-0 walls take ~10 steps to cross, level-1 walls ~70
    assert 8 <= times[0] <= 30
    assert 60 <= times[1] <= 110
    assert times[1] - times[0] >= 40


def test_wall_blocks_within_short_horizons():
    rule = build_rule(1).rule
    y, z, target = _walled_pair(1)
    (report,) = blocking_word_search(rule, (y, z), 7, 40, words=[target])
    assert report.verdict == BlockingUpTo(40)


def _occurring_words(family, max_len):
    """Every word of length <= max_len read cell by cell around each
    member's support: the reference for the default word list of
    `blocking_word_search`."""
    words = set()
    for y in family:
        sup = y.support
        lo = (sup[0] if len(sup) else 0) - max_len
        hi = (sup[-1] if len(sup) else 0) + max_len
        for length in range(1, max_len + 1):
            for c in range(lo, hi - length + 2):
                words.add(tuple(y[c + j] for j in range(length)))
    return sorted(words)


def test_default_blocking_words_are_the_occurring_words():
    arrow = build_rule(1)
    cases = [
        (identity_rule(BIN), bin_family(2)),
        (identity_rule(BIN), (Padded(BIN, (), "0"),)),
        (identity_rule(BIN), (Padded(BIN, "0110", "1", -30), Padded(BIN, "0", "1", 9))),
        (shift_rule(BIN), embedded_word_family(BIN, [("1", "0", "1")], "0")),
        (arrow.rule, crossing_family(0, 1, shifts=(0, 3))),
    ]
    for rule, family in cases:
        for max_len in range(5):
            reports = blocking_word_search(rule, family, max_len, 2)
            assert [r.word for r in reports] == _occurring_words(family, max_len)


def test_blocking_rejects_mixed_pads():
    fam = (Padded(BIN, ("1",), "0"), Padded(BIN, ("0",), "1"))
    with pytest.raises(ValueError):
        blocking_word_search(identity_rule(BIN), fam, 2, 5)


def test_embedded_word_family_shape():
    fam = embedded_word_family(BIN, [("0", "1")], "0")
    assert len(fam) == 3
    base, right_mark, left_mark = fam
    assert right_mark[4] == "1"
    assert left_mark[-2] == "1"
    assert base[4] == "0" and base[-2] == "0"
    # all three agree on the embedded word itself
    assert {y[1] for y in fam} == {"0"}
    assert {y[2] for y in fam} == {"1"}


# ---------------------------------------------------------------------------
# pair scans against a per-pair, cell-by-cell oracle


def elementary_rule(number):
    """The range-1 binary rule with Wolfram number `number`."""
    return LocalRule(
        BIN,
        1,
        {
            w: "01"[number >> (4 * int(w[0]) + 2 * int(w[1]) + int(w[2])) & 1]
            for w in itertools.product("01", repeat=3)
        },
        "total",
    )


def _span(y):
    return (y.support[0], y.support[-1]) if len(y.support) else (0, 0)


def _oracle_extremes(rule, y, z, t_max, margin, horizon):
    """Leftmost and rightmost difference of two separately computed orbits
    at each time, cell by cell over both supports plus a margin, clipped to
    the horizon; and whether the clip ever bit."""
    out, clipped = [], False
    for cy, cz in zip(orbit(rule, y, t_max), orbit(rule, z, t_max)):
        a = min(_span(cy)[0], _span(cz)[0]) - margin
        b = max(_span(cy)[1], _span(cz)[1]) + margin
        if a < -horizon or b > horizon:
            clipped = True
            a, b = max(a, -horizon), min(b, horizon)
        diff = [i for i in range(a, b + 1) if cy[i] != cz[i]]
        out.append((diff[0], diff[-1]) if diff else (None, None))
    return out, clipped


def _distinct_pairs(family):
    return [
        (a, b)
        for a in range(len(family))
        for b in range(a + 1, len(family))
        if family[a] != family[b]
    ]


def _oracle_profile(rule, family, t_max, horizon):
    plus, minus = [0] * (t_max + 1), [0] * (t_max + 1)
    truncated = False
    for a, b in _distinct_pairs(family):
        ext, clipped = _oracle_extremes(
            rule, family[a], family[b], t_max, margin=0, horizon=horizon
        )
        truncated = truncated or clipped
        (l0, r0), hi, lo = ext[0], None, None
        for t, (l, r) in enumerate(ext):
            if r is not None:
                hi = r if hi is None else max(hi, r)
                lo = l if lo is None else min(lo, l)
            if r0 is not None:
                plus[t] = max(plus[t], hi - r0)
                minus[t] = max(minus[t], l0 - lo)
    return tuple(plus), tuple(minus), truncated


def _oracle_blocking(rule, family, max_len, t_max, words=None):
    spans = [_span(y) for y in family]
    if words is None:
        words = sorted(
            {
                tuple(y[c + j] for j in range(n))
                for y, (lo, hi) in zip(family, spans)
                for n in range(1, max_len + 1)
                for c in range(lo - max_len, hi + max_len - n + 2)
            }
        )
    longest = max(map(len, words), default=0)
    lo = min(s[0] for s in spans) - longest - 2
    hi = max(s[1] for s in spans) + longest + 2
    # unclipped, with the margin of one rule radius plus one cell
    pairs = [
        (a, _oracle_extremes(
            rule, family[a], family[b], t_max, margin=2, horizon=10**9
        )[0])
        for a, b in _distinct_pairs(family)
    ]
    verdicts = []
    for w in words:
        hits = []
        for a, ext in pairs:
            spots = [
                c for c in range(lo, hi - len(w) + 2)
                if all(family[a][c + j] == w[j] for j in range(len(w)))
            ]
            (l0, r0) = ext[0]
            c = next((c for c in spots if c > r0), None)
            if c is not None:
                hits += [t for t in range(1, t_max + 1)
                         if ext[t][1] is not None and ext[t][1] >= c][:1]
            end = next((c + len(w) - 1 for c in reversed(spots)
                        if c + len(w) - 1 < l0), None)
            if end is not None:
                hits += [t for t in range(1, t_max + 1)
                         if ext[t][0] is not None and ext[t][0] <= end][:1]
        verdicts.append(
            (w, RefutedAt(min(hits)) if hits else BlockingUpTo(t_max))
        )
    return verdicts


def _translation_start(rule, y, t_max):
    """First t with rule^(t+1)(y) a translate of rule^t(y), or None."""
    ys = orbit(rule, y, t_max + 1)
    return next(
        (t for t in range(t_max + 1) if ys[t + 1].word == ys[t].word), None
    )


def test_oracle_examples_cover_every_kind_of_orbit():
    one, three = Padded(BIN, ("1",), "0"), Padded(BIN, ("1",) * 3, "0")
    traffic = elementary_rule(184)
    assert _translation_start(traffic, three, 40) == 2  # after a transient
    assert _translation_start(elementary_rule(90), one, 40) is None
    # the empty configuration is fixed while a lone 1 moves right
    assert apply_rule(traffic, one) == one.shifted(-1)
    assert _translation_start(traffic, Padded(BIN, (), "0"), 0) == 0


@settings(max_examples=100, deadline=None)
@given(
    number=st.integers(0, 127).map(lambda k: 2 * k),  # 000 -> 0
    members=st.lists(
        st.tuples(st.text("01", max_size=5), st.integers(-3, 3)),
        min_size=1,
        max_size=4,
    ),
    t_max=st.integers(0, 40),
    horizon=st.sampled_from((0, 2, 5, 10**6)),
    max_len=st.integers(1, 3),
)
@example(number=184, members=[("111", 0), ("1101", -2)], t_max=40,
         horizon=10**6, max_len=3)
@example(number=90, members=[("1", 0), ("11", 1), ("", 0)], t_max=40,
         horizon=10**6, max_len=2)
@example(number=184, members=[("", 0), ("1", 0), ("11", 2)], t_max=30,
         horizon=4, max_len=2)
def test_pair_scans_match_per_pair_oracle(number, members, t_max, horizon,
                                          max_len):
    rule = elementary_rule(number)
    family = tuple(Padded(BIN, tuple(w), "0", anchor=c) for w, c in members)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        est = lyapunov_profile(rule, family, t_max, horizon)
    plus, minus, truncated = _oracle_profile(rule, family, t_max, horizon)
    assert (est.lambda_plus, est.lambda_minus, est.truncated) == (
        plus, minus, truncated
    )
    assert truncated == any(
        issubclass(w.category, TruncationWarning) for w in caught
    )
    reports = blocking_word_search(rule, family, max_len, t_max)
    expected = _oracle_blocking(rule, family, max_len, t_max)
    assert [(r.word, r.verdict) for r in reports] == expected
    # a restricted report checks each word at its own length, max_len or not
    asked = [w for w, _ in expected[::2]] + [("1",) * (max_len + 1)]
    reports = blocking_word_search(rule, family, max_len, t_max, asked)
    assert [(r.word, r.verdict) for r in reports] == _oracle_blocking(
        rule, family, max_len, t_max, asked
    )


def _oracle_fronts(rule, family, t_max, horizon):
    """The raw output of `_pair_fronts`, pair by pair from the oracle's
    extremes: cumulative fronts, and whether any pair's span was clipped."""
    fronts, clipped = {}, False
    for a, b in _distinct_pairs(family):
        ext, bit = _oracle_extremes(
            rule, family[a], family[b], t_max, margin=0, horizon=horizon
        )
        clipped = clipped or bit
        right, left, r, l = [], [], None, None
        for lo, hi in ext:
            if hi is not None:
                r = hi if r is None else max(r, hi)
                l = lo if l is None else min(l, lo)
            right.append(r)
            left.append(l)
        fronts[a, b] = (right, left)
    return fronts, clipped


def glider_rule():
    """Range 2: a lone 1 steps one cell right and every other cell keeps
    its symbol, so a lone 1 drifts by -1 while 11 is fixed."""
    table = {}
    for w in itertools.product("01", repeat=5):
        if w[1:4] == ("0", "1", "0"):
            table[w] = "0"
        elif w[:3] == ("0", "1", "0"):
            table[w] = "1"
    return LocalRule(BIN, 2, table, "identity")


SHIFTS = [shift_rule(BIN, d) for d in range(-2, 3)]


@settings(max_examples=150, deadline=None)
@given(
    rule=st.sampled_from(SHIFTS),
    members=st.lists(
        st.tuples(st.text("01", max_size=5), st.integers(-4, 4)),
        min_size=1,
        max_size=5,
    ),
    t_max=st.integers(0, 30),
    horizon=st.sampled_from((0, 1, 3, 10**6)),
)
# an empty member matches the drift of the other
@example(rule=SHIFTS[3], members=[("", 0), ("101", -1), ("1", 2)], t_max=12,
         horizon=10**6)
# a lone 1 drifts, 11 stays: that pair stays on the step loop
@example(rule=glider_rule(), members=[("1", 0), ("11", 3), ("", 0)], t_max=12,
         horizon=10**6)
# the shared 1s leave the horizon at t = 4 and the difference never does,
# so the pair is in closed form from t = 1 and the late check must see it
@example(rule=SHIFTS[1], members=[("111", 0), ("101", 0)], t_max=4,
         horizon=5)
# rule 132 erases 11 and trims 111 to 1, then the pair drifts 2 cells a step
# from behind its front, which holds until the difference passes it
@example(rule=compose_rules(shift_rule(BIN, -2), elementary_rule(132)),
         members=[("11", 4), ("111", -3)], t_max=5, horizon=10**6)
def test_translating_pairs_match_per_pair_oracle(rule, members, t_max,
                                                 horizon):
    family = tuple(Padded(BIN, tuple(w), "0", anchor=c) for w, c in members)
    expected = _oracle_fronts(rule, family, t_max, horizon)
    assert _pair_fronts(rule, family, t_max, horizon) == expected
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        lyapunov_profile(rule, family, t_max, horizon)
    assert expected[1] == any(
        issubclass(w.category, TruncationWarning) for w in caught
    )


def test_translating_examples_reach_the_cases_they_name():
    glider = glider_rule()
    lone, block = Padded(BIN, ("1",), "0"), Padded(BIN, ("1", "1"), "0")
    assert apply_rule(glider, lone) == lone.shifted(-1)
    assert apply_rule(glider, block) == block
    # at t = 1 the difference set is {0}, 5 cells (not a multiple of the
    # drift) behind the right front
    trim = compose_rules(shift_rule(BIN, -2), elementary_rule(132))
    family = (Padded(BIN, ("1",) * 2, "0", 4), Padded(BIN, ("1",) * 3, "0", -3))
    fronts, _ = _oracle_fronts(trim, family, 5, 10**6)
    assert fronts[0, 1][0] == [5, 5, 5, 5, 6, 8]
    # the late crossing: clipped only at t_max, with the difference inside
    family = (Padded(BIN, ("1",) * 3, "0"), Padded(BIN, tuple("101"), "0"))
    assert _oracle_fronts(SHIFTS[1], family, 3, 5)[1] is False
    fronts, clipped = _oracle_fronts(SHIFTS[1], family, 4, 5)
    assert clipped and fronts[0, 1] == ([1, 2, 3, 4, 5], [1, 1, 1, 1, 1])


def test_drifting_fronts_hold_each_residue_class_at_the_horizon():
    # D = {0, 3} moves right 2 cells a step and is in closed form from t = 1;
    # within the horizon 8, 3 gets to 7 only, while 0 walks on to 8 at t = 4
    family = (Padded(BIN, (), "0"), Padded(BIN, tuple("1001"), "0"))
    got = _pair_fronts(SHIFTS[0], family, 8, 8)
    assert got == _oracle_fronts(SHIFTS[0], family, 8, 8)
    assert got[0][0, 1][0] == [3, 5, 7, 7, 8, 8, 8, 8, 8]


def test_pair_fronts_of_a_long_scan_stay_small():
    """Each pair of a shifted family is a ramp clipped at the horizon: a
    few breakpoints per front, however long the scan."""
    fronts, clipped = _pair_fronts(shift_rule(BIN, 1), bin_family(2), 10**6, 10**6)
    assert clipped
    assert all(len(f._b) <= 3 for pair in fronts.values() for f in pair)
    right, left = fronts[0, 1]
    assert (len(left), left[10**6 - 2], left[-1]) == (10**6 + 1, -10**6, -10**6)


def test_profile_costs_little_beside_the_walk():
    """profile_from_fronts works on the walker's breakpoints, so it takes a
    small part of the walk that makes them, at 10^6 steps as at any."""
    cfg = Padded(level_alphabet(2), (ARROW_RIGHT, BLANK) + make_block(16, 2).word,
                 BLANK, anchor=-2)
    start = time.perf_counter()
    right, left = perturbation_front(cfg, 2, 10**6)
    walk = time.perf_counter() - start
    start = time.perf_counter()
    profile_from_fronts(right, left, 10**6)
    assert time.perf_counter() - start < walk / 4


@st.composite
def monotone_fronts(draw, n, sign):
    """A random front of length n, nondecreasing for sign 1 and
    nonincreasing for -1, with its values as a list."""
    times = sorted(draw(st.sets(st.integers(1, n - 1), max_size=5))) if n > 1 else []
    v, breaks = draw(st.integers(-12, 12)), []
    for t, end in zip([0, *times], [*times, n]):
        s = draw(st.integers(0, 3))
        breaks.append((t, sign * v, sign * s))
        v += s * (end - 1 - t) + draw(st.integers(0, 2))
    values = []
    for t in range(n):
        b, v, s = max(p for p in breaks if p[0] <= t)
        values.append(v + s * (t - b))
    return dynamics_analysis.Front(n, breaks), values


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 25), sign=st.sampled_from((1, -1)),
       h=st.integers(0, 20), k=st.integers(1, 4))
def test_front_methods_match_per_time_lists(data, n, sign, h, k):
    drawn = [data.draw(monotone_fronts(n, sign)) for _ in range(k)]
    front, values = drawn[0]
    # a sequence view of its values
    assert list(front) == values and front == values and front == tuple(values)
    assert [front[t] for t in range(-n, n)] == values * 2
    assert front[1:] == values[1:] and front[::-2] == values[::-2]
    assert front != values[:-1] and front != values + [0]
    with pytest.raises(TypeError):
        hash(front)
    assert front.advance() == [abs(v - values[0]) for v in values]
    assert front.clip(h) == [min(max(v, -h), h) for v in values]
    outer = max if sign > 0 else min
    assert dynamics_analysis.Front.envelope([f for f, _ in drawn], sign) == [
        outer(col) for col in zip(*(vs for _, vs in drawn))
    ]
    x = values[0] + sign * data.draw(st.integers(0, 40))
    key = None if sign > 0 else operator.neg
    assert front.reach(x) == bisect.bisect_left(values, sign * x, 1, key=key)


def test_front_slice_costs_what_it_holds():
    """A slice reads the values it holds, from the piece where it starts,
    not the whole front."""
    front = dynamics_analysis.Front(10**6, [(0, 0, 1), (10, 10, 0), (999_990, 11, 2)])
    tracemalloc.start()
    try:
        head = front[:3]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert head == [0, 1, 2]
    assert peak < 64 * 1024
    assert front[-3:] == [25, 27, 29] and front[-1:-4:-1] == [29, 27, 25]
    assert front[8:13] == [8, 9, 10, 10, 10] and front[999_989:999_992:2] == [10, 13]
    assert front[5:5] == [] and front[7:3] == [] and front[3:7:-1] == []


# ---------------------------------------------------------------------------
# directional probes


def test_direction_validation():
    with pytest.raises(ValueError):
        Direction(Fraction(0))


def test_direction_membership():
    vertical = Direction(Fraction(2))
    assert vertical.contains(2, 99)
    assert not vertical.contains(3, 0)
    sloped = Direction(Fraction(1), slope=Fraction(1, 2))
    assert vertical.vertical and not sloped.vertical
    assert sloped.contains(2, 1)
    assert not sloped.contains(0, 2)


def test_shift_is_blind_along_its_flow_line():
    """Agreement along the spacetime line the shift translates along says
    nothing about nearby cells, because every deviation travels parallel to
    it."""
    sigma, inv = shift_rule(BIN), shift_rule(BIN, -1)
    probe = direction_probe(
        sigma,
        inv,
        bin_family(8),
        Direction(Fraction(1), slope=Fraction(-1)),
        (8, 4),
    )
    assert isinstance(probe, NotDeterminedAtScale)
    i, t = probe.witness_cell
    assert abs(i) <= 4 and abs(t) <= 2


def test_shift_is_expansive_across_its_flow():
    sigma, inv = shift_rule(BIN), shift_rule(BIN, -1)
    probe = direction_probe(
        sigma,
        inv,
        bin_family(12),
        Direction(Fraction(1), slope=Fraction(0)),
        (8, 2),
    )
    assert isinstance(probe, ExpansiveAtScale)
    assert probe.pairs_checked > 0


def test_identity_is_blind_along_the_time_axis():
    ident = identity_rule(BIN)
    probe = direction_probe(
        ident,
        ident,
        bin_family(6),
        Direction(Fraction(2)),
        (8, 2),
    )
    assert isinstance(probe, NotDeterminedAtScale)


def test_identity_is_expansive_along_the_space_axis():
    ident = identity_rule(BIN)
    probe = direction_probe(
        ident,
        ident,
        bin_family(12),
        Direction(Fraction(1), slope=Fraction(0)),
        (8, 2),
    )
    assert isinstance(probe, ExpansiveAtScale)


def test_probe_without_inverse():
    sigma = shift_rule(BIN)
    with pytest.raises(InverseRequired):
        direction_probe(
            sigma, None, bin_family(4), Direction(Fraction(1), slope=Fraction(0)), (4, 1)
        )
    probe = direction_probe(
        sigma, None, bin_family(8), Direction(Fraction(1), slope=Fraction(0)), (6, 0)
    )
    assert isinstance(probe, ExpansiveAtScale)


# ---------------------------------------------------------------------------
# family scans against per-member orbits


def orbit_table(rule, inverse, cfg, t_lo, t_hi):
    """{t: cfg after t steps} for t_lo <= t <= t_hi and t = 0, every member
    stepped on its own with `orbit`, backward with the inverse: the family
    scans before the lockstep orbit, kept as their reference."""
    table = dict(enumerate(orbit(rule, cfg, max(t_hi, 0))))
    if t_lo < 0:
        table.update((-s, x) for s, x in enumerate(orbit(inverse, cfg, -t_lo)))
    return table


def region_oracle(rule, inverse, family, n, t_range, i_range):
    """Every cell of every pair agreeing on [-n, n], compared one by one."""
    (t_lo, t_hi), (i_lo, i_hi) = t_range, i_range
    tables = [orbit_table(rule, inverse, y, t_lo, t_hi) for y in family]
    pairs = [
        (a, b)
        for a, b in itertools.combinations(range(len(family)), 2)
        if family[a].window(-n, n) == family[b].window(-n, n)
    ]
    return frozenset(
        (i, t)
        for t in range(t_lo, t_hi + 1)
        for i in range(i_lo, i_hi + 1)
        if all(tables[a][t][i] == tables[b][t][i] for a, b in pairs)
    )


def probe_oracle(rule, inverse, family, direction, extent):
    """The probe pair by pair, in lexicographic order: (verdict type,
    witness pair, witness cell, pairs checked)."""
    e_extent, t_extent = extent
    tables = [orbit_table(rule, inverse, y, -t_extent, t_extent) for y in family]
    band = [
        (i, t)
        for t in range(-t_extent, t_extent + 1)
        for i in range(-e_extent, e_extent + 1)
        if direction.contains(i, t)
    ]
    query = [
        (i, t)
        for t in range(-(t_extent // 2), t_extent // 2 + 1)
        for i in range(-(e_extent // 2), e_extent // 2 + 1)
    ]
    checked = 0
    for a, b in itertools.combinations(range(len(family)), 2):
        ta, tb = tables[a], tables[b]
        if any(ta[t][i] != tb[t][i] for i, t in band):
            continue
        checked += 1
        for i, t in query:
            if ta[t][i] != tb[t][i]:
                return NotDeterminedAtScale, (a, b), (i, t), None
    return ExpansiveAtScale, None, None, checked


# shifts run both ways; rules without an inverse run forward only: 184
# (a lone 1 translates at once, 11 after a transient), 90 (a lone 1 never
# translates), 132 and the glider (a lone 1 drifts, 11 is fixed)
RULE_CASES = [(shift_rule(BIN, d), shift_rule(BIN, -d)) for d in range(-2, 3)] + [
    (elementary_rule(k), None) for k in (184, 90, 132)
] + [(glider_rule(), None)]
_members = st.one_of(
    st.builds(
        lambda w, c: Padded(BIN, tuple(w), "0", anchor=c),
        st.text("01", max_size=4),
        st.integers(-4, 4),
    ),
    st.builds(lambda w: Periodic(BIN, tuple(w)), st.text("01", min_size=1, max_size=3)),
)
_directions = st.one_of(
    st.builds(
        lambda r: Direction(r),
        st.sampled_from((Fraction(1, 2), Fraction(1), Fraction(2))),
    ),
    st.builds(
        lambda r, s: Direction(r, slope=s),
        st.sampled_from((Fraction(1, 2), Fraction(1))),
        st.sampled_from([Fraction(k, 2) for k in range(-4, 5)]),
    ),
)


@settings(max_examples=200, deadline=None)
@given(
    case=st.sampled_from(RULE_CASES),
    family=st.lists(_members, min_size=1, max_size=7).map(tuple),
    n=st.integers(-1, 3),
    t_range=st.tuples(st.integers(-4, 2), st.integers(-2, 4)),
    i_lo=st.integers(-8, 1),
    width=st.integers(0, 12),
    direction=_directions,
    extent=st.tuples(st.integers(0, 6), st.integers(0, 3)),
)
# 184: the empty member, a lone 1 and its translate, 11 with a transient
# and two periodic members
@example(
    case=RULE_CASES[5],
    family=(Padded(BIN, (), "0"), Padded(BIN, ("1",), "0"), Padded(BIN, ("1",), "0", 3),
            Padded(BIN, ("1", "1"), "0", -3), Periodic(BIN, ("0", "1")),
            Periodic(BIN, ("0", "1", "1"))),
    n=1, t_range=(0, 5), i_lo=-8, width=14,
    direction=Direction(Fraction(1), slope=Fraction(1)), extent=(4, 0),
)
# 90: a lone 1 and 11 never translate
@example(
    case=RULE_CASES[6],
    family=(Padded(BIN, ("1",), "0"), Padded(BIN, ("1", "1"), "0", 1), Padded(BIN, (), "0")),
    n=0, t_range=(0, 4), i_lo=-6, width=12,
    direction=Direction(Fraction(1)), extent=(5, 0),
)
# the 2-shift both ways over single-site deviations and two longer words
@example(
    case=RULE_CASES[4],
    family=padded_scale_family(BIN, 3, "0", [("1", "0", "1"), ("1", "1")]),
    n=2, t_range=(-3, 3), i_lo=-8, width=17,
    direction=Direction(Fraction(1), slope=Fraction(-1, 2)), extent=(6, 2),
)
# the same shift and family with a member that rotates, so its pairs step
# at every time, read well past the drawn extents
@example(
    case=RULE_CASES[4],
    family=padded_scale_family(BIN, 3, "0", [("1", "0", "1")]) + (Periodic(BIN, ("0", "1")),),
    n=1, t_range=(-3, 3), i_lo=-8, width=17,
    direction=Direction(Fraction(1), slope=Fraction(-1, 2)), extent=(24, 16),
)
# 90 at a wider extent: the probe reads time 0 only, as 90 has no inverse
@example(
    case=RULE_CASES[6],
    family=(Padded(BIN, ("1",), "0"), Padded(BIN, ("1", "1"), "0", 1), Padded(BIN, (), "0"),
            Padded(BIN, ("1", "0", "1"), "0", -5)),
    n=0, t_range=(0, 4), i_lo=-6, width=12,
    direction=Direction(Fraction(1), slope=Fraction(1)), extent=(12, 0),
)
def test_family_scans_match_per_member_orbits(case, family, n, t_range, i_lo,
                                              width, direction, extent):
    rule, inverse = case
    if inverse is None:  # forward-only ranges
        t_range, extent = (max(t_range[0], 0), t_range[1]), (extent[0], 0)
    i_range = (i_lo, i_lo + width - 1)
    region = determined_region(rule, family, n, t_range, i_range, inverse)
    assert region.cells == region_oracle(rule, inverse, family, n, t_range, i_range)
    probe = direction_probe(rule, inverse, family, direction, extent)
    kind, pair, cell, checked = probe_oracle(rule, inverse, family, direction, extent)
    assert type(probe) is kind
    if kind is ExpansiveAtScale:
        assert probe.pairs_checked == checked
    else:
        assert (probe.witness_pair, probe.witness_cell) == (pair, cell)


def _stepped_orbit(rule, cfg, steps):
    """One `apply_rule` per step: the reference of every faster orbit."""
    out = [cfg]
    for _ in range(steps):
        out.append(apply_rule(rule, out[-1]))
    return out


# rules under which members change without translating: 90 (a lone 1
# grows both ways for ever), 184 (11 translates after a transient) and the
# glider (a lone 1 drifts until it joins 11: 10011 changes twice, then stays)
ACTIVE_RULES = [elementary_rule(90), elementary_rule(184), glider_rule()]


@settings(max_examples=25, deadline=None)
@given(
    rule=st.sampled_from(ACTIVE_RULES),
    family=st.lists(_members, min_size=1, max_size=5).map(tuple),
    t_max=st.integers(200, 230),
)
@example(
    rule=ACTIVE_RULES[0],
    family=(Padded(BIN, ("1",), "0"), Padded(BIN, ("1", "1"), "0", 1),
            Padded(BIN, ("1",), "0", 4), Periodic(BIN, ("0", "0", "1"))),
    t_max=200,
)
@example(
    rule=ACTIVE_RULES[1],
    family=(Padded(BIN, ("1", "1", "0", "1"), "0", -3), Padded(BIN, (), "0"),
            Periodic(BIN, ("0", "1", "1"))),
    t_max=200,
)
@example(
    rule=ACTIVE_RULES[2],
    family=(Padded(BIN, tuple("10011"), "0"), Padded(BIN, tuple("100011"), "0", 2),
            Padded(BIN, ("1", "0", "1"), "0", -4)),
    t_max=200,
)
def test_lockstep_matches_stepped_orbits_on_active_rules(rule, family, t_max):
    """The lockstep orbit, the family scans on it and their per-member
    references agree member by member on rules that keep members busy."""
    want = [_stepped_orbit(rule, y, t_max) for y in family]
    # a member that translates is held at the step it did, and read at t by `_at`
    for t, state in zip(range(t_max + 1), dynamics_analysis._lockstep(rule, family)):
        got = [dynamics_analysis._at(state, k, t) for k in range(len(family))]
        assert got == [w[t] for w in want]
    assert [orbit(rule, y, t_max) for y in family] == want
    i_range = (-12, 12)
    region = determined_region(rule, family, 1, (0, t_max), i_range)
    assert region.cells == region_oracle(rule, None, family, 1, (0, t_max), i_range)


def test_lockstep_applies_the_rule_once_per_lead(monkeypatch):
    """An arrow configuration never translates: `_lockstep` draws each
    lead's steps from `iterate`, which applies the rule once, for step 1;
    a translate of a lead follows it and is never stepped."""
    calls = []

    def counted(rule, cfg):
        calls.append(cfg)
        return apply_rule(rule, cfg)

    system = build_rule(1)
    rule = system.rule
    family = tuple(
        Padded(system.alphabet, (ARROW_RIGHT, BLANK) + make_block(k, 1).word, BLANK, c)
        for k in (0, 1) for c in (-2, 5)
    )
    t_max = 300
    want = [orbit(rule, y, t_max) for y in family]
    monkeypatch.setattr(shift_core, "apply_rule", counted)
    for t, (got, drift, _) in zip(range(t_max + 1), dynamics_analysis._lockstep(rule, family)):
        assert got == [w[t] for w in want]
    assert drift == [None] * 4
    assert len(calls) == 2


def test_region_steps_each_member_at_most_once_per_direction(monkeypatch):
    """Under a shift every member translates from step 1, so the region
    costs at most one rule application per member and time direction."""
    calls = []

    def counted(rule, cfg):
        calls.append(cfg)
        return apply_rule(rule, cfg)

    monkeypatch.setattr(shift_core, "apply_rule", counted)
    family = padded_scale_family(BIN, 12, "0", [("1", "1", "0", "1")])
    region = determined_region(
        shift_rule(BIN, 2), family, 2, (-3, 3), (-6, 6), shift_rule(BIN, -2)
    )
    assert region.cells == {
        (i, t) for t in range(-3, 4) for i in range(-6, 7) if abs(i + 2 * t) <= 2
    }
    assert 0 < len(calls) <= 2 * len(family)


def test_region_shifts_only_the_members_a_stepping_link_reads(monkeypatch):
    """A member that rotates keeps its link on the step loop at every time,
    while the padded members translate from step 1 and their links leave:
    those members are not shifted again at each later step."""
    shifts = []
    shifted = Padded.shifted

    def counted(cfg, k):
        shifts.append(k)
        return shifted(cfg, k)

    monkeypatch.setattr(Padded, "shifted", counted)
    family = bin_family(14) + (Periodic(BIN, ("0", "1")),)
    region = determined_region(shift_rule(BIN, 1), family, -1, (0, 20000), (0, 0))
    # cell 0 reads cell t of time 0: the rotating member differs from the
    # all-pad one at odd t, and the deviation at t differs up to t = 14
    assert region.cells == {(0, t) for t in range(16, 20001, 2)}
    assert len(shifts) <= len(family)


def test_probe_reads_each_pair_not_each_time(monkeypatch):
    """Along the shift's flow line, 42 members at extent (400, 400): each
    pair reads its difference at most twice, as every member translates
    from step 1, rather than every member's 801 cells at each of 801
    times."""
    reads = []
    window = Padded.window

    def counted(cfg, lo, hi):
        reads.append(hi - lo + 1)
        return window(cfg, lo, hi)

    monkeypatch.setattr(Padded, "window", counted)
    family = bin_family(20)
    probe = direction_probe(shift_rule(BIN, 1), shift_rule(BIN, -1), family,
                            Direction(Fraction(1), slope=Fraction(-1)), (400, 400))
    assert probe == NotDeterminedAtScale((0, 1), (180, -200))
    pairs = len(family) * (len(family) - 1) // 2
    assert len(reads) <= 4 * (pairs + len(family))


def test_family_scans_keep_members_over_other_pads_apart():
    """One word over two pads makes two configurations that are not shifts
    of each other, so neither may follow the other's orbit; over two
    alphabets, the rule still meets each member."""
    abc = Alphabet("012")
    rule, inverse = shift_rule(abc, 1), shift_rule(abc, -1)
    family = (
        Padded(abc, ("2",), "0"),
        Padded(abc, ("2",), "1", anchor=2),
        Padded(abc, (), "1"),
    )
    region = determined_region(rule, family, 0, (-2, 2), (-5, 5), inverse)
    assert region.cells == region_oracle(rule, inverse, family, 0, (-2, 2), (-5, 5))
    direction = Direction(Fraction(1), slope=Fraction(0))
    probe = direction_probe(rule, inverse, family, direction, (4, 2))
    kind, pair, cell, checked = probe_oracle(rule, inverse, family, direction, (4, 2))
    assert type(probe) is kind
    if kind is ExpansiveAtScale:
        assert probe.pairs_checked == checked
    else:
        assert (probe.witness_pair, probe.witness_cell) == (pair, cell)
    mixed = (Padded(BIN, ("1",), "0"), Padded(abc, ("1",), "0", anchor=1))
    with pytest.raises(AlphabetMismatch):
        determined_region(shift_rule(BIN), mixed, 0, (0, 1), (-2, 2))


# ---------------------------------------------------------------------------
# determined regions against the per-time reference


def reference_region(rule, family, n, t_range, i_range, inverse=None):
    """The determined region read off per-time rows: every member stepped
    on its own (`orbit_table`) and read on the i-range at every time, each
    link compared cell by cell.  The closed form for translating links
    must give exactly these cells."""
    if not family:
        raise ValueError("family must be nonempty")
    (t_lo, t_hi), (i_lo, i_hi) = t_range, i_range
    if t_lo < 0 and inverse is None:
        raise InverseRequired("negative times need an inverse rule")
    classes: dict = {}
    for m, y in enumerate(family):
        classes.setdefault(y.window(-n, n), []).append(m)
    links = [(c[0], m) for c in classes.values() for m in c[1:]]
    tables = [orbit_table(rule, inverse, y, t_lo, t_hi) for y in family]
    cells = set()
    for t in range(t_lo, t_hi + 1):
        rows = [table[t].window(i_lo, i_hi) for table in tables]
        differ = {
            k for a, b in links if rows[a] != rows[b]
            for k, (p, q) in enumerate(zip(rows[a], rows[b])) if p != q
        }
        cells.update((i_lo + k, t) for k in range(i_hi - i_lo + 1) if k not in differ)
    return frozenset(cells)


def _same_region(rule, family, n, t_range, i_range, inverse=None):
    region = determined_region(rule, family, n, t_range, i_range, inverse)
    assert region.cells == reference_region(rule, family, n, t_range, i_range, inverse)


@pytest.mark.parametrize("d", range(-2, 3))
@pytest.mark.parametrize(
    "t_range", [(-6, -1), (2, 7), (-3, 4), (-5, -3), (0, 0), (4, 2)],
    ids=["negative", "positive", "straddling", "missing-0", "only-0", "empty"],
)
def test_shift_regions_match_the_per_time_reference(d, t_range):
    """The d-shift translates every member from step 1 (d = 0 is the
    identity); the i-ranges cover the supports, or miss every support at
    every time asked for."""
    family = padded_scale_family(BIN, 6, "0", [("1", "0", "1"), ("1", "1")])
    for n in (-1, 0, 2):
        for i_range in ((-12, 12), (30, 40), (-40, -30), (3, 1)):
            _same_region(shift_rule(BIN, d), family, n, t_range, i_range, shift_rule(BIN, -d))


def test_arrow_crossing_regions_match_the_per_time_reference():
    """Crossing patterns of the arrow rule at two anchor shifts: links
    whose members do not translate stay on the step loop."""
    rule, inverse = build_rule(1).rule, build_inverse_rule(1)
    family = crossing_family(0, 1, shifts=(0, 4))
    for n, t_range in ((0, (-4, 6)), (1, (0, 8)), (3, (-5, -1))):
        _same_region(rule, family, n, t_range, (-6, 14), inverse)


def test_periodic_member_regions_match_the_per_time_reference():
    """Periodic members: under a shift most rotate and stay on the step
    loop, while the constant ones and the identity's members are fixed."""
    family = bin_family(4) + periodic_family(BIN, 3)
    for d in range(-2, 3):
        for n, t_range in ((0, (-3, 4)), (2, (1, 5))):
            _same_region(shift_rule(BIN, d), family, n, t_range, (-8, 8), shift_rule(BIN, -d))


@settings(max_examples=100, deadline=None)
@given(
    case=st.sampled_from(RULE_CASES),
    c_max=st.integers(0, 5),
    extra=st.lists(st.text("01", max_size=5).map(tuple), max_size=3),
    n=st.integers(-1, 3),
    t_range=st.tuples(st.integers(-6, 3), st.integers(-3, 6)),
    i_lo=st.integers(-12, 4),
    width=st.integers(0, 16),
)
def test_padded_regions_match_the_per_time_reference(case, c_max, extra, n, t_range,
                                                     i_lo, width):
    rule, inverse = case
    if inverse is None:  # forward-only ranges
        t_range = (max(t_range[0], 0), t_range[1])
    family = padded_scale_family(BIN, c_max, "0", extra)
    _same_region(rule, family, n, t_range, (i_lo, i_lo + width - 1), inverse)


def test_region_errors_match_the_per_time_reference():
    """No inverse for negative times, an empty family and a member over
    another alphabet raise as the reference does: the last at step 1, with
    or without links, and even when no time is asked for."""
    abc = Alphabet("012")
    mixed = (Padded(BIN, ("1",), "0"), Padded(abc, ("1",), "0", anchor=1))
    cases = [
        (InverseRequired, (shift_rule(BIN), bin_family(4), 1, (-1, 1), (-3, 3))),
        (ValueError, (shift_rule(BIN), (), 1, (0, 1), (-2, 2))),
        (AlphabetMismatch, (shift_rule(BIN), mixed, 0, (0, 1), (-2, 2))),
        (AlphabetMismatch, (shift_rule(BIN), mixed, -1, (0, 1), (-2, 2))),
        (AlphabetMismatch, (shift_rule(BIN), mixed, -1, (3, 1), (-2, 2))),
    ]
    for error, args in cases:
        messages = []
        for region in (determined_region, reference_region):
            with pytest.raises(error) as info:
                region(*args)
            messages.append(str(info.value))
        assert messages[0] == messages[1]


@pytest.mark.parametrize("d", [-1, 1, 2])
def test_far_time_regions_take_no_step_past_the_translation(d):
    """Times near 10^9 under the d-shift: every link translates from step 1,
    so the band |i + d*t| <= n comes out without stepping to those times."""
    n, t0 = 2, 10**9
    t_range, i_range = (t0, t0 + 2), (-d * t0 - 3, -d * t0 + 3)
    region = determined_region(shift_rule(BIN, d), bin_family(8), n, t_range, i_range)
    assert region.cells == {
        (i, t)
        for t in range(t_range[0], t_range[1] + 1)
        for i in range(i_range[0], i_range[1] + 1)
        if abs(i + d * t) <= n
    }
