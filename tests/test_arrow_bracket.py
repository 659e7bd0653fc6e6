"""Tests for the bracket-and-arrow automaton.

Expected step counts below were obtained by running the sparse walker to
completion and cross-checking small cases against the range-2 cell map; they
are frozen here as regression oracles.
"""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from expansive_lab.arrow_bracket import (
    ARROW_LEFT,
    ARROW_RIGHT,
    BLANK,
    ArrowWalk,
    Timeout,
    admissible,
    admissible_periodic_words,
    arrow_trace,
    ascii_legend,
    bracket_info,
    build_inverse_rule,
    build_rule,
    canonical_point,
    close_bracket,
    conflict_report,
    crossing_steps,
    diagram_lines,
    enumerate_L,
    hierarchical_arrangement,
    hierarchical_choices,
    is_arrow,
    is_bracket,
    level_alphabet,
    make_block,
    make_preblock,
    mirror_transition,
    open_bracket,
    periodic_points,
    perturbation_front,
    pgm_lines,
    run_crossing,
    scan_periodic_injectivity,
    transitions,
    walk_from_configuration,
    walk_to_configuration,
)
from expansive_lab.arrow_bracket import _NodeTable, _macro_steps, _walk_and_table
from expansive_lab.shift_core import Padded, Periodic, apply_rule, orbit

# Measured crossing times, frozen.  Level 0 is 6n + 4 for every n tried;
# level 1 grows quadratically in the counter bound.
LEVEL0_STEPS = {1: 10, 2: 16, 3: 22, 4: 28, 5: 34, 6: 40, 7: 46, 8: 52}
LEVEL1_STEPS = {1: 70, 2: 176, 3: 330}
N2_STEPS_BY_LEVEL = {0: 16, 1: 176, 2: 1776, 3: 17776, 4: 177776}


# ---------------------------------------------------------------------------
# symbols and transition table


def test_alphabet_size_and_order():
    a1 = level_alphabet(1)
    assert len(a1) == 9
    assert a1.symbols[:3] == (BLANK, ARROW_RIGHT, ARROW_LEFT)
    assert len(level_alphabet(2)) == 13
    assert len(level_alphabet(3)) == 17


def test_bracket_info_roundtrip():
    for k in range(3):
        for marked in (False, True):
            assert bracket_info(open_bracket(k, marked)) == ("[", marked, k)
            assert bracket_info(close_bracket(k, marked)) == ("]", marked, k)
    assert bracket_info(BLANK) is None
    assert bracket_info(ARROW_LEFT) is None


@pytest.mark.parametrize("n", [1, 2, 3])
def test_transition_count(n):
    pats = transitions(n)
    assert len(pats) == 4 * n + 6
    # every left- and right-hand side carries exactly one arrow
    for _name, lhs, rhs in pats:
        assert sum(map(is_arrow, lhs)) == 1
        assert sum(map(is_arrow, rhs)) == 1


def test_mirror_of_reset_close():
    """The mirror construction must reproduce the left-moving reset rule:
    a left arrow facing an open bracket with counter 0 resets it to n and
    passes through."""
    n = 1
    by_name = {name: (lhs, rhs) for name, lhs, rhs in transitions(n)}
    lhs, rhs = by_name["reset-close"]
    assert (lhs, rhs) == ((ARROW_RIGHT, "]0", BLANK), (BLANK, "]1", ARROW_RIGHT))
    assert mirror_transition(lhs, rhs) == (
        (BLANK, "[0", ARROW_LEFT),
        (ARROW_LEFT, "[1", BLANK),
    )
    assert by_name["reset-close-mirror"] == mirror_transition(lhs, rhs)


@pytest.mark.parametrize("n", [1, 2])
def test_no_conflicting_transitions(n):
    assert conflict_report(n) == []
    build_rule(n)  # must not raise


def _string_parsed_table(n, rewrite_pairs):
    """The window table built with every symbol of every candidate window
    parsed through `is_bracket`: the reference of `build_rule` and
    `build_inverse_rule`, which test adjacency against a bracket set."""
    non_arrow = [s for s in level_alphabet(n) if not is_arrow(s)]
    table = {}
    for _, lhs, rhs in rewrite_pairs:
        length = len(lhs)
        for o in range(max(0, 3 - length), min(2, 5 - length) + 1):
            fill_at = [i for i in range(5) if not o <= i < o + length]
            for fill in itertools.product(non_arrow, repeat=len(fill_at)):
                w = [None] * 5
                w[o : o + length] = lhs
                for i, sym in zip(fill_at, fill):
                    w[i] = sym
                if any(is_bracket(w[i]) and is_bracket(w[i + 1]) for i in range(4)):
                    continue
                table.setdefault(tuple(w), rhs[2 - o])
    return table


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rule_tables_match_string_parsing_reference(n):
    forward = _string_parsed_table(n, transitions(n))
    assert list(build_rule(n).rule.table.items()) == list(forward.items())
    reverse = [(name, rhs, lhs) for name, lhs, rhs in transitions(n)]
    inverse = _string_parsed_table(n, reverse)
    assert list(build_inverse_rule(n).table.items()) == list(inverse.items())


def test_build_rule_shares_one_system_per_bound():
    assert build_rule(2) is build_rule(2)
    assert build_rule(1) is not build_rule(2)
    for _ in range(2):  # a refusal is not cached: every call raises
        with pytest.raises(ValueError, match="counter bound 16 is above the limit 15"):
            build_rule(16)


def test_blank_quiescence():
    system = build_rule(1)
    quiet = (BLANK,) * 5
    assert system.rule.evaluate(quiet) == BLANK


# ---------------------------------------------------------------------------
# blocks


def test_preblock_words():
    assert make_preblock(0) == "[-]"
    assert make_preblock(1) == "[[-]-[-]]"
    assert make_preblock(2) == "[[[-]-[-]]-[[-]-[-]]]"
    for k in range(6):
        assert len(make_preblock(k)) == 6 * 2**k - 3


def test_block_words():
    b0 = make_block(0, 2)
    assert b0.word == ("[2", "-", "-", "-", "]2")
    b1 = make_block(1, 1)
    assert b1.word == (
        "[1", "-", "[1", "-", "-", "-", "]1", "-",
        "-", "-", "[1", "-", "-", "-", "]1", "-", "]1",
    )
    for k in range(5):
        assert make_block(k, 1).width == 12 * 2**k - 7


def test_block_is_admissible_and_fixed():
    system = build_rule(2)
    cfg = Padded(system.alphabet, make_block(2, 2).word, BLANK)
    assert admissible(cfg, 2)
    assert apply_rule(system.rule, cfg) == cfg


# ---------------------------------------------------------------------------
# crossings


@pytest.mark.parametrize("n,steps", sorted(LEVEL0_STEPS.items()))
def test_level0_crossing_steps(n, steps):
    report = run_crossing(0, n)
    assert report.steps == steps
    assert report.restored


@pytest.mark.parametrize("n,steps", sorted(LEVEL1_STEPS.items()))
def test_level1_crossing_steps(n, steps):
    assert run_crossing(1, n).steps == steps


@pytest.mark.parametrize("k,steps", sorted(N2_STEPS_BY_LEVEL.items()))
def test_n2_crossings_by_level(k, steps):
    assert run_crossing(k, 2).steps == steps


def test_left_crossing_is_symmetric():
    # the stepped left crossing takes the block's one S, as the right does
    for k, n in [(0, 1), (0, 3), (1, 2), (2, 1)]:
        assert _stepped_crossing(k, n, -1) == run_crossing(k, n).steps
        assert _stepped_crossing(k, n, 1) == run_crossing(k, n).steps


def test_crossing_growth_rate():
    # each extra level multiplies the crossing time by at least 2n
    for n in (1, 2, 3):
        prev = run_crossing(0, n).steps
        for k in (1, 2):
            cur = run_crossing(k, n).steps
            assert cur >= 2 * n * prev
            prev = cur


def test_crossing_timeout():
    with pytest.raises(Timeout) as err:
        run_crossing(1, 2, max_steps=10)
    assert err.value.limit == 10
    with pytest.raises(Timeout) as err:
        run_crossing(0, 1, max_steps=0)
    assert err.value.limit == 0


def test_negative_step_budget_rejected():
    with pytest.raises(ValueError, match="max_steps must be >= 0"):
        run_crossing(0, 1, max_steps=-3)


def test_default_budget_covers_measured_crossings():
    # the default budget is the crossing law a_k = (6n+4) sum_(j<=k) (4n+2)^j,
    # which is run_crossing's S: one step less is refused
    assert [crossing_steps(k, 2) for k in N2_STEPS_BY_LEVEL] == list(N2_STEPS_BY_LEVEL.values())
    for k in range(7):
        for n in range(1, 6):
            s = crossing_steps(k, n)
            assert run_crossing(k, n).steps == s
            with pytest.raises(Timeout) as err:
                run_crossing(k, n, max_steps=s - 1)
            assert err.value.limit == s - 1


# ---------------------------------------------------------------------------
# crossing language


def test_enumerate_L_sizes():
    lang = enumerate_L(0, 1)
    assert len(lang.right) == LEVEL0_STEPS[1] + 1
    assert len(lang.left) == LEVEL0_STEPS[1] + 1
    lang = enumerate_L(1, 1)
    assert len(lang.right) == LEVEL1_STEPS[1] + 1


def test_enumerate_L_endpoints():
    lang = enumerate_L(0, 1)
    block = make_block(0, 1).word
    assert lang.right[0] == (ARROW_RIGHT,) + block
    assert lang.right[-1] == block + (ARROW_RIGHT,)
    assert lang.left[0] == block + (ARROW_LEFT,)
    assert lang.left[-1] == (ARROW_LEFT,) + block


def test_enumerate_L_members_have_one_arrow():
    lang = enumerate_L(1, 2)
    for word in lang.words:
        assert sum(map(is_arrow, word)) == 1
        assert word[0] != BLANK and word[-1] != BLANK


def _snapshot(walk):
    """The walker's cells from its leftmost to its rightmost non-blank one."""
    cells = set(walk.brackets) | {walk.pos}
    arrow = ARROW_RIGHT if walk.facing > 0 else ARROW_LEFT
    return tuple(arrow if i == walk.pos else walk.brackets.get(i, BLANK)
                 for i in range(min(cells), max(cells) + 1))


def _stepped_language(k, n, facing):
    """Every word of one crossing of block(k, n), by ArrowWalk.step alone,
    until arrow and block first stand restored on the far side: the
    reference of `enumerate_L`."""
    word = make_block(k, n).word
    start, goal = (-1, len(word)) if facing > 0 else (len(word), -1)
    walk = ArrowWalk(n, {i: s for i, s in enumerate(word) if s != BLANK},
                     start, facing)
    original = dict(walk.brackets)
    seen = [_snapshot(walk)]
    while walk.step():
        seen.append(_snapshot(walk))
        if walk.pos == goal and walk.brackets == original:
            return tuple(seen)
    raise AssertionError(f"arrow stuck in block({k}, {n})")


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_enumerate_L_matches_step_walker(k, n):
    lang = enumerate_L(k, n)
    assert lang.right == _stepped_language(k, n, 1)
    assert lang.left == _stepped_language(k, n, -1)


# ---------------------------------------------------------------------------
# walker against the cell map


def _padded_from_word(word, n, anchor=0):
    return Padded(level_alphabet(n), word, BLANK, anchor)


@pytest.mark.parametrize("k,n", [(0, 1), (0, 2), (1, 1)])
def test_walker_matches_cell_map_on_crossings(k, n):
    """The sparse walker and the range-2 cell map must generate the same
    orbit from the canonical crossing start."""
    system = build_rule(n)
    cfg = _padded_from_word((ARROW_RIGHT,) + make_block(k, n).word, n, anchor=-1)
    walk = walk_from_configuration(cfg, n)
    cur = cfg
    for _ in range(LEVEL1_STEPS.get(n, 200) if k else LEVEL0_STEPS[n]):
        cur = apply_rule(system.rule, cur)
        assert walk.step()
        assert walk_to_configuration(walk, system.alphabet) == cur


def test_walker_matches_cell_map_on_random_configs():
    rng = random.Random(0xAB)
    n = 2
    system = build_rule(n)
    for _ in range(25):
        length = rng.randrange(8, 30, 2)
        word = [BLANK] * length
        for i in range(0, length, 2):
            if rng.random() < 0.5:
                marked = rng.random() < 0.3
                k = rng.randrange(n) if marked else rng.randrange(n + 1)
                maker = open_bracket if rng.random() < 0.5 else close_bracket
                word[i] = maker(k, marked)
        arrow_at = rng.randrange(1, length, 2)
        word[arrow_at] = ARROW_RIGHT if rng.random() < 0.5 else ARROW_LEFT
        cfg = _padded_from_word(tuple(word), n)
        assert admissible(cfg, n)
        walk = walk_from_configuration(cfg, n)
        cur = cfg
        for _ in range(40):
            nxt = apply_rule(system.rule, cur)
            if not walk.step():
                # stuck walker must coincide with a cell-map fixed point
                assert nxt == cur
                break
            cur = nxt
            assert walk_to_configuration(walk, system.alphabet) == cur


def test_walk_roundtrip():
    n = 1
    cfg = _padded_from_word((ARROW_LEFT, BLANK, "[1", BLANK, "]1"), n, anchor=3)
    walk = walk_from_configuration(cfg, n)
    assert walk.pos == 3 and walk.facing == -1
    assert walk_to_configuration(walk, level_alphabet(n)) == cfg


def _scanned_walk(cfg, n):
    """The walker of `cfg` by one scan of its cells: the reference of
    `walk_from_configuration`."""
    if cfg.pad != BLANK:
        raise ValueError("walker expects blank padding")
    brackets, arrows = {}, []
    for i, s in enumerate(cfg.word, cfg.anchor):
        if is_arrow(s):
            arrows.append((i, s))
        elif s != BLANK:
            brackets[i] = s
    if len(arrows) != 1:
        raise ValueError(f"expected exactly one arrow, found {len(arrows)}")
    (pos, a), = arrows
    return ArrowWalk(n, brackets, pos, 1 if a == ARROW_RIGHT else -1)


@pytest.mark.parametrize("word,pad", [
    (("[1", BLANK, "]1"), BLANK),
    ((ARROW_RIGHT, "[1", BLANK, ARROW_LEFT), BLANK),
    ((ARROW_RIGHT, BLANK), "]1"),
])
def test_walker_start_refuses_what_the_cell_scan_refuses(word, pad):
    cfg = Padded(level_alphabet(1), word, pad)
    with pytest.raises(ValueError) as want:
        _scanned_walk(cfg, 1)
    with pytest.raises(ValueError) as got:
        walk_from_configuration(cfg, 1)
    assert str(got.value) == str(want.value)


def test_walkers_share_one_dispatch_table_per_bound():
    walk = ArrowWalk(2, {}, 0, 1)
    assert walk_from_configuration(_padded_from_word((ARROW_LEFT,), 2), 2)._face is walk._face
    assert ArrowWalk(1, {}, 0, 1)._face is not walk._face
    with pytest.raises(TypeError):
        ArrowWalk(2, {}, 0, 1, _face={})


# ---------------------------------------------------------------------------
# traces, conservation, locality


def test_trace_of_free_arrow():
    n = 1
    system = build_rule(n)
    cfg = _padded_from_word((ARROW_RIGHT,), n)
    trace = arrow_trace(cfg, system, 25)
    assert trace.positions == list(range(26))
    assert trace.positions is trace.positions  # the trace holds one list
    assert trace.stuck_at is None and not trace.no_arrow


def test_trace_without_arrow():
    system = build_rule(1)
    cfg = _padded_from_word(make_block(0, 1).word, 1)
    trace = arrow_trace(cfg, system, 10)
    assert trace.no_arrow and trace.pairs == ()


def test_negative_t_max_rejected():
    system = build_rule(1)
    cfg = _padded_from_word((ARROW_RIGHT,), 1)
    for call in (
        lambda: arrow_trace(cfg, system, -1),
        lambda: perturbation_front(cfg, 1, -1),
    ):
        with pytest.raises(ValueError, match="t_max must be >= 0"):
            call()


def test_trace_stuck_on_orphaned_marked_bracket():
    # a right arrow facing a marked open bracket has no applicable rule
    system = build_rule(1)
    cfg = _padded_from_word((ARROW_RIGHT, "[*0"), 1)
    trace = arrow_trace(cfg, system, 10)
    assert trace.stuck_at == 0
    assert trace.positions == [0]
    assert apply_rule(system.rule, cfg) == cfg


def test_arrow_conservation_and_locality():
    n = 1
    system = build_rule(n)
    rng = random.Random(7)
    words = rng.sample(sorted(enumerate_L(1, n).words), 12)
    for word in words:
        cfg = _padded_from_word(word, n)
        cur = cfg
        for _ in range(30):
            pos = next(i for i in cur.support if is_arrow(cur[i]))
            nxt = apply_rule(system.rule, cur)
            arrows = [i for i in range(nxt.support[0], nxt.support[-1] + 1)
                      if is_arrow(nxt[i])]
            assert len(arrows) == 1
            lo, hi = min(cur.support[0], nxt.support[0]), max(cur.support[-1], nxt.support[-1])
            changed = [i for i in range(lo, hi + 1) if cur[i] != nxt[i]]
            assert all(abs(i - pos) <= 2 for i in changed)
            cur = nxt


def test_arrowless_admissible_configs_are_fixed():
    n = 2
    system = build_rule(n)
    for w in admissible_periodic_words(n, 4):
        cfg = Periodic(system.alphabet, w)
        assert apply_rule(system.rule, cfg) == cfg
    # every window the table rewrites holds exactly one arrow, so at every
    # period an arrowless configuration hits only the identity default
    for n in range(1, 5):
        assert all(sum(map(is_arrow, window)) == 1 for window in build_rule(n).rule.table)


# ---------------------------------------------------------------------------
# admissibility


def test_admissible_examples():
    n = 2
    assert admissible(_padded_from_word(make_block(1, n).word, n), n)
    # adjacent brackets
    assert not admissible(_padded_from_word(("[2", "]2"), n), n)
    # two arrows
    assert not admissible(_padded_from_word((ARROW_RIGHT, BLANK, ARROW_LEFT), n), n)
    # marked counter must stay below n: build in a wider alphabet, judge at n
    assert not admissible(_padded_from_word(("[*2",), 3), n)
    assert admissible(_padded_from_word(("[*1",), n), n)
    # unmarked counter can equal n but not exceed it
    assert admissible(_padded_from_word(("]2",), n), n)
    assert not admissible(_padded_from_word(("]3",), 3), n)


def test_admissible_periodic_wrap():
    n = 1
    alpha = level_alphabet(n)
    assert not admissible(Periodic(alpha, ("[1", "-", "-", "]1")), n)  # wrap adjacency
    assert admissible(Periodic(alpha, ("[1", "-", "]1", "-")), n)
    # a periodic arrow repeats; below period 5 the repeats crowd one window
    assert not admissible(Periodic(alpha, (ARROW_RIGHT, "-", "-", "-")), n)
    assert admissible(Periodic(alpha, (ARROW_RIGHT, "-", "-", "-", "-")), n)


def _linear_word_count(p, b):
    # words over {blank} + b brackets with no two adjacent brackets
    prev2, prev1 = 1, 1 + b
    if p == 0:
        return prev2
    for _ in range(p - 1):
        prev2, prev1 = prev1, prev1 + b * prev2
    return prev1


def test_enumeration_matches_transfer_matrix_count():
    """Cyclic admissible word counts have a closed form: trace of the
    adjacency transfer matrix, plus arrow placements times a path count."""
    for n in (1, 2):
        b = 4 * n + 2
        # trace(M^p) for M = [[1, b], [1, 0]] via the recurrence on traces
        tr = {1: 1, 2: 1 + 2 * b}
        for p in range(3, 8):
            tr[p] = tr[p - 1] + b * tr[p - 2]
        for p in range(1, 8):
            expected = tr[p]
            if p >= 5:
                expected += 2 * p * _linear_word_count(p - 1, b)
            got = sum(1 for _ in admissible_periodic_words(n, p))
            assert got == expected, (n, p)


# ---------------------------------------------------------------------------
# reversibility


def test_known_collision_pair():
    """One genuine failure of injectivity on the full admissible set: a
    mobile configuration steps onto a stuck one.  Both map to the stuck
    fixed point."""
    n = 1
    system = build_rule(n)
    stuck = Periodic(system.alphabet, (ARROW_RIGHT, "[*0", "-", "-", "-"))
    mobile = Periodic(system.alphabet, ("-", "[*0", "-", "-", ARROW_RIGHT))
    assert admissible(stuck, n) and admissible(mobile, n)
    assert apply_rule(system.rule, stuck) == stuck
    assert apply_rule(system.rule, mobile).word == stuck.word


@pytest.mark.parametrize("n,max_p", [(1, 7), (2, 6)])
def test_collisions_always_involve_a_stuck_point(n, max_p):
    report = scan_periodic_injectivity(n, range(1, max_p + 1))
    assert report.points > 0
    assert report.collisions_with_only_mobile_members() == []


@pytest.mark.parametrize("n", [1, 2])
def test_inverse_rule_undoes_mobile_points(n, max_p=5):
    system = build_rule(n)
    inverse = build_inverse_rule(n)
    checked = 0
    for p in range(5, max_p + 1):
        for w in periodic_points(n, p):
            x = Periodic(system.alphabet, w)
            y = apply_rule(system.rule, x)
            if y.word == w:
                continue
            assert apply_rule(inverse, y).word == w
            checked += 1
    assert checked > 100


def test_inverse_rule_on_crossing_orbit():
    n = 2
    system = build_rule(n)
    inverse = build_inverse_rule(n)
    cfg = _padded_from_word((ARROW_RIGHT,) + make_block(1, n).word, n, anchor=-1)
    path = orbit(system.rule, cfg, 60)
    for before, after in zip(path, path[1:]):
        assert apply_rule(inverse, after) == before


def _filtered_points(n, p):
    """The points of least period p as the filtered word enumeration finds
    them: the reference of `periodic_points`.  A canonical word starts with
    its least symbol, which spares most words the `canonical_point` call."""
    return sorted(w for w in admissible_periodic_words(n, p)
                  if w[0] == min(w) and canonical_point(w) == w)


def _reference_scan(n, points):
    """`scan_periodic_injectivity` over the given points, with the rule
    applied to every point, arrowless ones included."""
    system = build_rule(n)
    images = {}
    stuck_points = 0
    for w in points:
        y = apply_rule(system.rule, Periodic(system.alphabet, w))
        stuck = any(map(is_arrow, w)) and y.word == w
        stuck_points += stuck
        images.setdefault(canonical_point(y.word), []).append((w, stuck))
    groups = {frozenset(g) for g in images.values() if len(g) > 1}
    return len(points), stuck_points, groups


@pytest.mark.parametrize("n", [1, 2, 3])
def test_periodic_points_equal_the_filtered_words(n):
    """The pruned Lyndon generator yields, in increasing order, exactly the
    admissible words that are their own canonical point, up to period 7;
    the scan over its points reports what a scan applying the rule to each
    of them does, over gate 02's periods."""
    found = {}
    for p in range(1, 8):
        got = list(periodic_points(n, p))
        assert all(a < b for a, b in zip(got, got[1:])), (n, p)
        assert got == _filtered_points(n, p), (n, p)
        found[p] = got
    scan_p = {1: 7, 2: 6}.get(n)
    if scan_p:
        report = scan_periodic_injectivity(n, range(1, scan_p + 1))
        want = _reference_scan(n, [w for p in range(1, scan_p + 1) for w in found[p]])
        assert (report.points, report.stuck_points,
                {frozenset(g) for g in report.collisions}) == want


def test_canonical_point_examples():
    assert canonical_point(("-", "-")) == ("-",)
    assert canonical_point(("]1", "-", "]1", "-")) == ("-", "]1")
    assert canonical_point((">", "-", "-")) == ("-", "-", ">")


# ---------------------------------------------------------------------------
# perturbation fronts


def test_perturbation_front_matches_brute_force():
    n = 1
    system = build_rule(n)
    word = make_block(1, n).word
    cfg = _padded_from_word((ARROW_RIGHT,) + word, n, anchor=-1)
    base = _padded_from_word(word, n)
    right, left = perturbation_front(cfg, n, 150)
    cur = cfg
    hi, lo = -(10**9), 10**9
    for t in range(151):
        a = min(cur.support[0], base.support[0]) - 1
        z = max(cur.support[-1], base.support[-1]) + 1
        for i in range(a, z + 1):
            if cur[i] != base[i]:
                hi, lo = max(hi, i), min(lo, i)
        assert (right[t], left[t]) == (hi, lo)
        cur = apply_rule(system.rule, cur)


def test_perturbation_front_is_monotone():
    n = 2
    cfg = _padded_from_word((ARROW_RIGHT,) + make_block(2, n).word, n, anchor=-1)
    right, left = perturbation_front(cfg, n, 2000)
    assert len(right) == 2001
    assert all(b >= a for a, b in zip(right, right[1:]))
    assert all(b <= a for a, b in zip(left, left[1:]))


# ---------------------------------------------------------------------------
# hierarchical arrangements


def test_choices_seed_zero_and_determinism():
    assert hierarchical_choices(4, 0) == ((0, 0),) * 4
    assert hierarchical_choices(5, 9) == hierarchical_choices(5, 9)
    for phi, psi in hierarchical_choices(6, 123):
        assert phi in (0, 1) and psi in (0, 1)


def plain_symbol(arr, x):
    """'[' or ']' if some stage of `arr` holds a bracket at plain cell x,
    else None, by asking each stage in turn: the per-cell reference of the
    arrangement's progressions."""
    for k in range(arr.depth):
        q, r = divmod(x - arr.offsets[k], 4**k)
        if r:
            continue
        phi, psi = arr.choices[k]
        if q % 2 != phi:
            continue
        j = (q - phi) // 2
        return "[" if j % 2 == psi else "]"
    return None


def reference_lifted_symbol(arr, i):
    plain = None if i % 2 else plain_symbol(arr, i // 2)
    if plain is None:
        return BLANK
    return open_bracket(arr.n) if plain == "[" else close_bracket(arr.n)


def test_arrangement_offsets_seed_zero():
    arr = hierarchical_arrangement(6, 2, 0)
    assert arr.offsets == (0, 3, 15, 63, 255, 1023, 4095)
    assert arr.free_cell == 4095
    assert plain_symbol(arr, arr.free_cell) is None


def test_arrangement_progressions_match_the_stage_search():
    # windows: wide with negative lo, narrower than a period, one cell,
    # empty, and around each stage's offset, as is and one common period
    # (of every stage) to the left
    for depth in range(9):
        for n in (1, 2, 3):
            for seed in (0, 5, 2024):
                arr = hierarchical_arrangement(depth, n, seed)
                period = 8 * 4**depth
                windows = [(-1501, 1503), (-11, -2), (5, 9), (40, 40), (7, 6), (3, -20)]
                windows += [(2 * c + shift - 9, 2 * c + shift + 9)
                            for c in arr.offsets for shift in (0, -period)]
                # first cells and steps are even, so every odd cell is blank:
                # lifted_symbol answers odd cells before the progressions
                assert all(first % 2 == 0 == step % 2 for first, step, _ in arr.progressions)
                for lo, hi in windows:
                    want = [reference_lifted_symbol(arr, i) for i in range(lo, hi + 1)]
                    assert [arr.lifted_symbol(i) for i in range(lo, hi + 1)] == want
                    cfg = arr.configuration(lo, hi)
                    assert cfg == Padded(level_alphabet(n), want, BLANK, lo)


def test_stage2_pair_lifts_to_level1_block():
    """The seed-0 stage-2 bracket pair at plain cells 3..11, lifted to
    automaton cells 6..22, is exactly the level-1 block word."""
    arr = hierarchical_arrangement(3, 2, 0)
    got = tuple(arr.lifted_symbol(i) for i in range(6, 23))
    assert got == make_block(1, 2).word


def test_arrangement_nesting_is_balanced():
    arr = hierarchical_arrangement(6, 2, 0)
    depth = 0
    for x in range(4096):
        s = plain_symbol(arr, x)
        if s == "[":
            depth += 1
        elif s == "]":
            depth -= 1
            assert depth >= 0
    assert depth == 0


def test_arrangement_has_no_adjacent_lifted_brackets():
    arr = hierarchical_arrangement(5, 1, 3)
    cfg = arr.configuration(0, 400)
    assert admissible(cfg, 1)


def test_arrangement_configuration_arrow_placement():
    arr = hierarchical_arrangement(3, 2, 0)
    cfg = arr.configuration(0, 40, arrow_at=2 * arr.free_cell % 40 + 1, facing=-1)
    assert sum(1 for i in cfg.support if is_arrow(cfg[i])) == 1
    with pytest.raises(ValueError):
        arr.configuration(0, 40, arrow_at=100)
    with pytest.raises(ValueError):
        arr.configuration(6, 23, arrow_at=6)  # bracket cell of the stage-2 block


def test_bad_choices_length_rejected():
    from expansive_lab.arrow_bracket import HierarchicalArrangement

    with pytest.raises(ValueError):
        HierarchicalArrangement(3, 1, ((0, 0),))


def test_arrangement_offsets_are_derived_not_passed():
    from expansive_lab.arrow_bracket import HierarchicalArrangement

    with pytest.raises(TypeError):
        HierarchicalArrangement(1, 1, ((0, 0),), offsets=(0, 5))


# ---------------------------------------------------------------------------
# rendering


def test_render_text_crossing_start():
    n = 1
    system = build_rule(n)
    cfg = _padded_from_word((ARROW_RIGHT,) + make_block(0, n).word, n, anchor=-1)
    rows = orbit(system.rule, cfg, 1)
    txt = "".join(diagram_lines(rows, -1, 5, ascii_legend(n), ""))
    assert txt == ">[---]-\n-C>--]-\n"


def test_ascii_legend_is_injective():
    for n in (1, 2, 4):
        legend = ascii_legend(n)
        assert len(set(legend.values())) == len(legend)
        assert legend[open_bracket(n)] == "["
        assert legend[close_bracket(n)] == "]"


def test_render_pgm_golden():
    n = 1
    system = build_rule(n)
    cfg = _padded_from_word((ARROW_RIGHT,) + make_block(0, n).word, n, anchor=-1)
    rows = orbit(system.rule, cfg, 1)
    pgm = "".join(pgm_lines(rows, -1, 5, len(rows), system.alphabet))
    assert pgm == "P2\n7 2\n8\n1 4 0 0 0 6 0\n0 7 1 0 0 6 0\n"


def test_render_of_no_rows():
    # a PGM diagram of no rows is its header
    system = build_rule(1)
    assert "".join(pgm_lines([], -1, 5, 0, system.alphabet)) == "P2\n7 0\n8\n"


def test_render_pgm_shape():
    n = 2
    system = build_rule(n)
    cfg = _padded_from_word((ARROW_RIGHT,) + make_block(0, n).word, n, anchor=-1)
    rows = orbit(system.rule, cfg, 16)
    pgm = "".join(pgm_lines(rows, -2, 6, len(rows), system.alphabet))
    lines = pgm.splitlines()
    assert lines[0] == "P2" and lines[1] == "9 17" and lines[2] == "12"
    assert len(lines) == 3 + 17
    for line in lines[3:]:
        values = [int(v) for v in line.split()]
        assert len(values) == 9
        assert all(0 <= v <= 12 for v in values)


# ---------------------------------------------------------------------------
# macro-stepping against the step walker

def _stepped_crossing(k, n, facing):
    """Steps until arrow and block first stand restored on the far side,
    by ArrowWalk.step alone."""
    word = make_block(k, n).word
    start, goal = (-1, len(word)) if facing > 0 else (len(word), -1)
    walk = ArrowWalk(n, {i: s for i, s in enumerate(word) if s != BLANK},
                     start, facing)
    original = dict(walk.brackets)
    while walk.step():
        if walk.pos == goal and walk.brackets == original:
            return walk.steps
    raise AssertionError(f"arrow stuck in block({k}, {n})")


def _stepped_orbit(cfg, n, t_max):
    """Arrow positions, stuck time and perturbation fronts by
    ArrowWalk.step alone, one step at a time."""
    walk = walk_from_configuration(cfg, n)
    base = dict(walk.brackets)
    path = [walk.pos]
    hi = lo = walk.pos
    right, left = [hi], [lo]
    for _ in range(t_max):
        before = walk.pos
        faced = before + walk.facing
        if walk.step():
            path.append(walk.pos)
            for cell in (before, faced, walk.pos):
                if cell == walk.pos or walk.brackets.get(cell) != base.get(cell):
                    hi, lo = max(hi, cell), min(lo, cell)
        right.append(hi)
        left.append(lo)
    return path, (len(path) - 1 if walk.stuck else None), right, left


def _assert_macro_matches_steps(cfg, n, t_max):
    path, stuck_at, right, left = _stepped_orbit(cfg, n, t_max)
    trace = arrow_trace(cfg, build_rule(n), t_max)
    assert trace.positions == path
    assert trace.pairs == tuple(enumerate(path))
    assert trace.stuck_at == stuck_at
    assert perturbation_front(cfg, n, t_max) == (right, left)


@pytest.mark.parametrize("facing", [1, -1])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_crossing_steps_match_step_walker(n, facing):
    # run_crossing has one S for both directions; the stepped walk checks
    # it against each
    for k in range(5):
        steps = _stepped_crossing(k, n, facing)
        assert run_crossing(k, n).steps == steps
        with pytest.raises(Timeout) as err:
            run_crossing(k, n, max_steps=steps - 1)
        assert err.value.limit == steps - 1
        assert run_crossing(k, n, max_steps=steps).steps == steps


@pytest.mark.parametrize("n", [1, 2, 3])
def test_node_moves_replay_the_step_walker(n):
    """Every shape met in crossing block(k, n), k <= 4, both ways: its
    moves, summed from the cell before the outer bracket, are the
    positions of ArrowWalk.step on that node alone."""
    for k in range(5):
        table = _NodeTable(n, make_block(k, n).word, 0)
        assert table.node(0, 1, crossing_steps(k, n)) is not None
        cells = {shape: a for a, (_, shape) in table.opens.items()}
        assert sorted(cells) == list(range(len(table.steps)))
        for shape, a in cells.items():
            width = table._keys[shape][0]
            brackets = {}
            table.copy_brackets(brackets, a, a + width)
            for facing in (1, -1):
                moves = table.moves(shape, facing)
                assert len(moves) == table.steps[shape]
                assert set(moves) <= {-2, -1, 0, 1, 2}
                assert moves[0] == moves[-1] == 2 * facing
                assert sum(moves) == (width + 2) * facing
                start = a - 1 if facing > 0 else a + width + 1
                walk = ArrowWalk(n, dict(brackets), start, facing)
                stepped = []
                while len(stepped) < len(moves) and walk.step():
                    stepped.append(walk.pos)
                assert list(itertools.accumulate(moves, initial=start))[1:] == stepped
                assert walk.brackets == brackets


def test_macro_walk_matches_step_walker_on_gate_landscape():
    """The gate-03/04 landscape to 10^6 steps: every position and both
    fronts at every time."""
    arr = hierarchical_arrangement(6, 2, seed=0)
    start = 2 * arr.free_cell
    cfg = arr.configuration(5000, 15200, arrow_at=start, facing=1)
    _assert_macro_matches_steps(cfg, 2, 10**6)


@st.composite
def _arrow_words(draw):
    """Nested resting nodes, then a few cells overwritten by any bracket
    or a blank (non-resting, orphan and adjacent brackets), and one arrow
    on a blank cell, inside a node or not, facing either way."""
    n = draw(st.integers(1, 3))

    def node(depth):
        word = [open_bracket(n), BLANK]
        for _ in range(draw(st.integers(0, 2)) if depth else 0):
            word += node(depth - 1) + [BLANK] * draw(st.integers(1, 2))
        return word + [BLANK] * draw(st.integers(0, 2)) + [close_bracket(n)]

    word = []
    for _ in range(draw(st.integers(1, 3))):
        word += [BLANK] * draw(st.integers(1, 2)) + node(draw(st.integers(0, 2)))
    symbols = [s for s in level_alphabet(n) if not is_arrow(s)]
    for _ in range(draw(st.integers(0, 3))):
        word[draw(st.integers(0, len(word) - 1))] = draw(st.sampled_from(symbols))
    word.append(BLANK)
    at = draw(st.sampled_from([i for i, s in enumerate(word) if s == BLANK]))
    word[at] = draw(st.sampled_from((ARROW_RIGHT, ARROW_LEFT)))
    return n, tuple(word), draw(st.integers(0, 3000))


@settings(max_examples=200, deadline=None)
@given(_arrow_words(), st.integers(-5, 5))
def test_walker_start_matches_cell_scan(case, anchor):
    n, word, _ = case
    cfg = _padded_from_word(word, n, anchor)
    assert walk_from_configuration(cfg, n) == _scanned_walk(cfg, n)


@settings(max_examples=200, deadline=None)
@given(_arrow_words())
@example((1, (ARROW_RIGHT, "[*0", BLANK, "[1", BLANK, "]1"), 50))  # stuck
@example((2, ("[2", BLANK, "[2", BLANK, "]2", BLANK, ARROW_LEFT, BLANK, "]2"),
          400))  # starts inside a node
@example((1, (BLANK, "[1", BLANK, "]1", "[1", BLANK, "]1", ARROW_LEFT), 200))
@example((1, (ARROW_RIGHT, "[1", BLANK, "[1", BLANK, "]1", "[1", BLANK, "]1",
              BLANK, "]1", BLANK), 500))  # adjacent children
@example((1, (ARROW_RIGHT, "[1", BLANK, "[1", BLANK, "[*0", BLANK, "]1", BLANK,
              "]1", BLANK), 500))  # a child that is no node
def test_macro_walk_matches_step_walker_on_random_words(case):
    n, word, t_max = case
    _assert_macro_matches_steps(_padded_from_word(word, n, anchor=-3), n, t_max)


@settings(max_examples=40, deadline=None)
@given(
    depth=st.integers(1, 8),
    n=st.integers(1, 3),
    seed=st.integers(0, 2**31 - 1),
    facing=st.sampled_from((1, -1)),
    t_max=st.integers(0, 20000),
)
def test_macro_walk_matches_step_walker_on_arrangements(depth, n, seed, facing,
                                                        t_max):
    arr = hierarchical_arrangement(depth, n, seed)
    start = 2 * arr.free_cell
    cfg = arr.configuration(start - 2000, start + 2000, arrow_at=start,
                            facing=facing)
    _assert_macro_matches_steps(cfg, n, t_max)


# ---------------------------------------------------------------------------
# nodes found on demand against a scan of every bracket


def _eager_nodes(n, brackets):
    """The node table of `brackets` (cell -> symbol) by one scan of them
    all, in cell order: outer cell -> (other outer cell, S, width, child
    offsets), for both ends of every node.  The reference of
    `_NodeTable.node`."""
    opn, cls = open_bracket(n), close_bracket(n)
    nodes = {}
    stack = []  # [open cell, children as (open, close, S), still a node]
    prev = None
    for x in sorted(brackets):
        sym = brackets[x]
        if stack and (x - 1 == prev or sym not in (opn, cls)):
            stack[-1][2] = False
        prev = x
        if sym == opn:
            stack.append([x, [], True])
        elif sym == cls and stack:
            a, children, ok = stack.pop()
            if ok:
                r = x - a - 2 + sum(s - (c - o) - 2 for o, c, s in children)
                steps = (2 * n + 1) * r + 2 * n + 2
                offsets = tuple(o - a for o, _, _ in children)
                nodes[a], nodes[x] = (x, steps, x - a, offsets), (a, steps, x - a, offsets)
                if stack:
                    stack[-1][1].append((a, x, steps))
            elif stack:
                stack[-1][2] = False
    return nodes


def _brackets_of(cfg):
    return {x: s for x, s in enumerate(cfg.word, cfg.anchor)
            if s != BLANK and not is_arrow(s)}


def _wanted(eager, x, facing, budget):
    want = eager.get(x)
    if want is None or (want[0] - x) * facing < 0 or want[1] > budget:
        return None
    return want


def _reported(table, got):
    if got is None:
        return None
    other, shape = got
    width, children = table._keys[shape]
    return other, table.steps[shape], width, tuple(off for off, _ in children)


def _assert_nodes_match_eager(cfg, n, budgets):
    """Asked at each budget in turn, one table reports for every bracket
    and facing the node of the eager scan, when its S fits; and fresh
    tables find each node at budget S and refuse it at S - 1."""
    brackets = _brackets_of(cfg)
    eager = _eager_nodes(n, brackets)
    table = _NodeTable(n, cfg.word, cfg.anchor)
    for budget in budgets:
        for x in brackets:
            for facing in (1, -1):
                got = table.node(x, facing, budget)
                assert _reported(table, got) == _wanted(eager, x, facing, budget)
    for x, want in eager.items():
        other, steps = want[:2]
        facing = 1 if other > x else -1
        assert _NodeTable(n, cfg.word, cfg.anchor).node(x, facing, steps - 1) is None
        fresh = _NodeTable(n, cfg.word, cfg.anchor)
        assert _reported(fresh, fresh.node(x, facing, steps)) == want


def _assert_walk_table_matches_eager(cfg, n, t_max):
    """After a macro walk, its walker holds the brackets of the step
    walker over a span of cells, every node its table holds is an eager
    node, every refusal is a cell with no node or a node whose S exceeds
    the recorded budget, and the walk kept to t_max."""
    eager = _eager_nodes(n, _brackets_of(cfg))
    walk, table = _walk_and_table(cfg, n)
    for _ in _macro_steps(walk, table, t_max):
        pass
    assert walk.steps <= t_max
    stepped = walk_from_configuration(cfg, n)
    while stepped.steps < walk.steps and stepped.step():
        pass
    held = walk.brackets
    lo, hi = min(held, default=0), max(held, default=-1)
    assert held == {x: s for x, s in stepped.brackets.items() if lo <= x <= hi}
    for x, node in {**table.opens, **table.closes}.items():
        assert eager[x] == _reported(table, node)
    for x, budget in table.refused.items():
        assert x not in eager or eager[x][1] > budget


_BUDGETS = st.lists(st.integers(0, 3000) | st.just(10**30), min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(_arrow_words(), _BUDGETS)
@example((1, (BLANK, "[1", BLANK, "[1", ARROW_LEFT, "]1") + (BLANK, "[1") * 2
          + (BLANK, "]1") * 2 + (BLANK,) * 4 + ("]1", BLANK), 64),
         [10**30])  # walks off the word's left end, past a changed bracket
def test_lazy_nodes_match_eager_scan_on_random_words(case, budgets):
    n, word, t_max = case
    cfg = _padded_from_word(word, n, anchor=-3)
    _assert_nodes_match_eager(cfg, n, budgets)
    _assert_walk_table_matches_eager(cfg, n, t_max)


@settings(max_examples=20, deadline=None)
@given(
    depth=st.integers(1, 8),
    n=st.integers(1, 3),
    seed=st.integers(0, 2**31 - 1),
    facing=st.sampled_from((1, -1)),
    t_max=st.integers(0, 20000),
    budgets=_BUDGETS,
)
def test_lazy_nodes_match_eager_scan_on_arrangements(depth, n, seed, facing,
                                                     t_max, budgets):
    arr = hierarchical_arrangement(depth, n, seed)
    start = 2 * arr.free_cell
    cfg = arr.configuration(start - 600, start + 600, arrow_at=start,
                            facing=facing)
    _assert_nodes_match_eager(cfg, n, budgets)
    _assert_walk_table_matches_eager(cfg, n, t_max)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lazy_nodes_match_eager_scan_on_blocks(n):
    for k in range(5):
        cfg = _padded_from_word(make_block(k, n).word, n)
        _assert_nodes_match_eager(cfg, n, [10**40, 1000, 17, 0])


@pytest.mark.parametrize("t_max", [3, 4, 5])
def test_node_longer_than_the_steps_left_is_not_jumped(t_max):
    # `[1 - ]1` takes S = 2n + 2 = 4 steps at n = 1
    cfg = _padded_from_word((ARROW_RIGHT, "[1", BLANK, "]1"), 1)
    walk, table = _walk_and_table(cfg, 1)
    jumps = [s for _, s in _macro_steps(walk, table, t_max) if s is not None]
    assert [table.steps[s] for s in jumps] == ([4] if t_max >= 4 else [])
    assert walk.steps == t_max
    _assert_macro_matches_steps(cfg, 1, t_max)


def test_wide_node_with_a_bracket_beyond_is_stepped():
    # the cell beyond the far bracket lies outside the cells the walker
    # holds when the arrow first faces the node
    word = (ARROW_RIGHT, "[1") + (BLANK,) * 40 + ("]1", "[1", BLANK, "]1", BLANK)
    _assert_macro_matches_steps(_padded_from_word(word, 1), 1, 600)


def test_walk_reads_only_the_cells_it_reaches():
    """A 10^6-step walk into the level-16 block (786,427 cells) reaches
    about 400 of them.  Its table then holds only nodes inside the reached
    span, nodes it gave up on lie there too, and the walker holds the
    brackets of about that span: the walk's work is counted in nodes and
    cells, not timed."""
    cfg = _padded_from_word((ARROW_RIGHT, BLANK) + make_block(16, 2).word, 2,
                            anchor=-2)
    walk, table = _walk_and_table(cfg, 2)
    lo = hi = walk.pos
    for cell, shape in _macro_steps(walk, table, 10**6):
        if shape is None:
            lo, hi = min(lo, walk.pos), max(hi, walk.pos)
        else:  # a jump reaches the cells either side of the node
            lo, hi = min(lo, cell - 1), max(hi, table.opens[cell][0] + 1)
    assert walk.steps == 10**6 and hi - lo < 1000
    inside = _eager_nodes(2, {x: s for x, s in _brackets_of(cfg).items()
                              if lo <= x <= hi})
    for x, node in {**table.opens, **table.closes}.items():
        assert inside[x] == _reported(table, node)
    assert all(lo <= x <= hi for x in table.refused)
    assert len(table.refused) < 40  # 22: a few per level of nesting
    assert all(lo - (hi - lo) - 18 <= x <= hi + (hi - lo) + 18
               for x in walk.brackets)


def test_block_size_budget_allocates_nothing():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="level 40"):
            make_block(40, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
