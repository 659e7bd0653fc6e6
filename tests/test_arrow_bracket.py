"""Tests for the bracket-and-arrow automaton.

Expected step counts below were obtained by running the sparse walker to
completion and cross-checking small cases against the range-2 cell map; they
are frozen here as regression oracles.
"""

import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from expansive_lab.arrow_bracket import (
    ARROW_LEFT,
    ARROW_RIGHT,
    BLANK,
    ArrowWalk,
    ConflictingTransitions,
    Timeout,
    _adjacent_brackets,
    _build_table,
    admissible,
    arrow_trace,
    ascii_legend,
    bracket_info,
    build_inverse_rule,
    build_rule,
    canonical_point,
    close_bracket,
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
from expansive_lab import arrow_bracket, cli
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
    assert bracket_info("[x") is None


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


def conflict_report(n: int) -> list[str]:
    """Exhaustive consistency check of overlapping transition instances.

    Every instance contains the unique arrow of an admissible configuration,
    so two instances that overlap anywhere both lie inside the 5-window
    centered on the arrow; checking all admissible fillings of that window
    (for both arrow directions) therefore covers every overlap that a larger
    admissible window could exhibit.  Returns human-readable descriptions of
    conflicts; an empty list certifies conflict-freeness.
    """
    alphabet = level_alphabet(n)
    non_arrow = [s for s in alphabet if not is_arrow(s)]
    brackets = frozenset(filter(is_bracket, alphabet))
    pats = transitions(n)
    problems = []
    for arrow in (ARROW_RIGHT, ARROW_LEFT):
        for fill in itertools.product(non_arrow, repeat=4):
            window = fill[:2] + (arrow,) + fill[2:]
            if _adjacent_brackets(window, brackets):
                continue
            wanted: dict[int, tuple[str, str]] = {}
            for name, lhs, rhs in pats:
                a = lhs.index(ARROW_RIGHT if ARROW_RIGHT in lhs else ARROW_LEFT)
                o = 2 - a
                if o < 0 or o + len(lhs) > 5:
                    continue
                if tuple(window[o : o + len(lhs)]) != lhs:
                    continue
                for i, out in enumerate(rhs):
                    cell = o + i
                    prev = wanted.get(cell)
                    if prev is not None and prev[1] != out:
                        problems.append(
                            f"window {window}: cell {cell} wants {prev[1]!r} "
                            f"({prev[0]}) and {out!r} ({name})"
                        )
                    else:
                        wanted[cell] = (name, out)
    return problems


@pytest.mark.parametrize("n", [1, 2])
def test_no_conflicting_transitions(n):
    assert conflict_report(n) == []
    build_rule(n)  # must not raise


def _string_parsed_table(n, rewrite_pairs):
    """The window table built with every symbol of every candidate window
    parsed through `is_bracket`: the reference of `build_rule` and
    `build_inverse_rule`, which test adjacency against a bracket set.
    Returns the table and its first conflict, (window, output, pattern,
    clashing output, clashing pattern), or None."""
    non_arrow = [s for s in level_alphabet(n) if not is_arrow(s)]
    table, origin, conflict = {}, {}, None
    for name, lhs, rhs in rewrite_pairs:
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
                w, out = tuple(w), rhs[2 - o]
                origin.setdefault(w, name)
                if table.setdefault(w, out) != out and conflict is None:
                    conflict = (w, table[w], origin[w], out, name)
    return table, conflict


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_rule_tables_match_string_parsing_reference(n):
    forward, conflict = _string_parsed_table(n, transitions(n))
    assert conflict is None
    assert list(build_rule(n).rule.table.items()) == list(forward.items())
    reverse = [(name, rhs, lhs) for name, lhs, rhs in transitions(n)]
    inverse, conflict = _string_parsed_table(n, reverse)
    assert conflict is None
    assert list(build_inverse_rule(n).table.items()) == list(inverse.items())


@pytest.mark.parametrize(
    "clash, first",
    [
        (("clash", (ARROW_RIGHT, BLANK), (BLANK, ARROW_LEFT)), "advance"),
        (("clash", (BLANK, ARROW_LEFT), (ARROW_RIGHT, BLANK)), "advance-mirror"),
    ],
)
def test_conflicting_patterns_raise_the_reference_conflict(clash, first):
    pairs = transitions(2) + [clash]
    _, conflict = _string_parsed_table(2, pairs)
    window, prev, origin, out, name = conflict
    assert (origin, name) == (first, "clash")
    with pytest.raises(ConflictingTransitions) as exc:
        _build_table(pairs, level_alphabet(2))
    assert exc.value.args == (
        f"window {window} gets {prev!r} from {origin} but {out!r} from {name}",
    )


def test_build_rule_shares_one_system_per_bound():
    assert build_rule(2) is build_rule(2)
    assert build_rule(1) is not build_rule(2)
    for _ in range(2):  # a refusal is not cached: every call raises
        with pytest.raises(ValueError, match="counter bound 16 is above the limit 15"):
            build_rule(16)


def test_both_builders_refuse_past_the_bound_before_building(monkeypatch):
    def build(*args):
        raise AssertionError("built part of a rule past the bound")

    for name in ("level_alphabet", "transitions", "_build_table"):
        monkeypatch.setattr(arrow_bracket, name, build)
    for builder in (build_rule, build_inverse_rule):
        with pytest.raises(ValueError) as exc:
            builder(16)
        assert exc.value.args == (
            "counter bound 16 is above the limit 15 (the window table holds 964, "
            "2,880, 6,268, 58,728 and 301,516 entries at n = 1, 2, 3, 8 and 15)",
        )


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
    with pytest.raises(ValueError, match="^level must be >= 0$"):
        make_preblock(-1)


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


# bounds on Lambda^+ / t^alpha at the block crossings of n <= 3, k <= 40,
# frozen: the ratio climbs with k from 2.46 (n = 1, k = 0) to 5.23 (n = 3,
# k = 40)
BLOCK_POWER_LAW = (2.4, 5.3)


def test_block_crossings_follow_a_power_law():
    """From `cli._arrow_block_start(n, k)`, the right front has moved
    exactly 12*2^k - 6 cells, the block's width plus one, and the left
    front not at all, at t = crossing_steps(k, n).  A level doubles
    Lambda^+ and multiplies t by about 4n+2, so Lambda^+ grows like t^alpha
    with alpha = log 2 / log(4n+2) and Lambda^+/t -> 0: checked on the
    walker up to level 14, and from the closed forms, in exact integers,
    up to level 40, past 10^20 steps."""
    c_lo, c_hi = BLOCK_POWER_LAW
    for n in (1, 2, 3):
        for k in range(15):
            t = crossing_steps(k, n)
            right, left = perturbation_front(cli._arrow_block_start(n, k), n, t)
            assert (right[t] - right[0], left[t]) == (12 * 2**k - 6, left[0])
        alpha = math.log(2) / math.log(4 * n + 2)
        for k in range(41):
            t = crossing_steps(k, n)
            ratio = math.exp(math.log(12 * 2**k - 6) - alpha * math.log(t))
            assert c_lo <= ratio <= c_hi, (n, k, ratio)
        assert t > 10**20


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


def test_walk_starts_refuse_what_arrow_trace_refuses():
    """Every walk start takes a padded configuration only: a periodic one
    with an arrow is refused by one ValueError, anything that is no
    configuration by one TypeError, and admissible refuses the latter."""
    n = 1
    system = build_rule(n)
    periodic = Periodic(level_alphabet(n), (ARROW_RIGHT,) + (BLANK,) * 4)
    starts = (
        lambda cfg: walk_from_configuration(cfg, n),
        lambda cfg: perturbation_front(cfg, n, 10),
        lambda cfg: arrow_trace(cfg, system, 10),
    )
    for start in starts:
        with pytest.raises(ValueError) as exc:
            start(periodic)
        assert exc.value.args == ("the walker needs a padded configuration with one arrow",)
    for start in (*starts, lambda cfg: admissible(cfg, n)):
        with pytest.raises(TypeError) as exc:
            start((ARROW_RIGHT,))
        assert exc.value.args == ("unsupported configuration type <class 'tuple'>",)


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


def admissible_periodic_words(n: int, period: int):
    """Generate every admissible period word of the given length: cyclic
    adjacency respected, at most one arrow per period, and no arrow at all
    below period 5 (shorter periods put repeated arrows in one rule window,
    which admissibility rules out)."""
    alphabet = level_alphabet(n)
    non_arrow = [s for s in alphabet if not is_arrow(s)]
    brackets = frozenset(filter(is_bracket, alphabet))
    arrow_ok = period >= 5
    word: list = [None] * period

    def extend(i: int, used_arrow: bool):
        if i == period:
            # wrap-around adjacency; at period 1 a bracket neighbors itself
            if word[-1] in brackets and word[0] in brackets:
                return
            yield tuple(word)
            return
        if used_arrow or not arrow_ok:
            choices = non_arrow
        else:
            choices = non_arrow + [ARROW_RIGHT, ARROW_LEFT]
        for s in choices:
            if i > 0 and s in brackets and word[i - 1] in brackets:
                continue
            word[i] = s
            yield from extend(i + 1, used_arrow or is_arrow(s))
        word[i] = None

    yield from extend(0, False)


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


def test_periodic_points_refuse_a_period_below_one():
    for period in (0, -3):
        with pytest.raises(ValueError, match=f"period must be >= 1, not {period}"):
            periodic_points(1, period)
    with pytest.raises(ValueError, match="period must be >= 1, not 0"):
        scan_periodic_injectivity(1, [0, 2])


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


def test_arrangement_offsets_are_derived_not_passed():
    from expansive_lab.arrow_bracket import HierarchicalArrangement

    with pytest.raises(TypeError):
        HierarchicalArrangement(1, ((0, 0),), offsets=(0, 5))


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
    """Every shape met in crossing block(k, n), k <= 4, both ways: the
    cells of its crossing (`_NodeTable.cross`, one memo per table, so
    children come built, copied reversed or from the memo) are the
    positions of ArrowWalk.step on that node alone, and the crossing the
    other way is the same cells backwards."""
    for k in range(5):
        table = _NodeTable(n, make_block(k, n).word, 0)
        assert table.node(0, 1, crossing_steps(k, n)) is not None
        cells = {shape: a for a, (_, shape) in table.opens.items()}
        assert sorted(cells) == list(range(len(table.steps)))
        memo = {}
        for shape, a in cells.items():
            width = table._keys[shape][0]
            brackets = {x: s for x in range(a, a + width + 1)
                        if (s := table.original(x)) != BLANK}
            crossed = {}
            for facing in (1, -1):
                start = a - 1 if facing > 0 else a + width + 1
                path = crossed[facing] = []
                table.cross(path, memo, start, shape, facing)
                moves = [q - p for p, q in zip([start] + path, path)]
                assert len(path) == table.steps[shape]
                assert set(moves) <= {-2, -1, 0, 1, 2}
                assert moves[0] == moves[-1] == 2 * facing
                assert sum(moves) == (width + 2) * facing
                walk = ArrowWalk(n, dict(brackets), start, facing)
                stepped = []
                while len(stepped) < len(path) and walk.step():
                    stepped.append(walk.pos)
                assert path == stepped
                assert walk.brackets == brackets
            assert crossed[-1] == crossed[1][-2::-1] + [a - 1]


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
# traces from crossings whose cells are shared within one call


@st.composite
def _inner_starts(draw):
    """(n, word, t_max): nested resting nodes, each but the innermost
    with a child, and the arrow on a blank inside the outermost, facing
    either way, one cell perhaps overwritten by any bracket.  Every
    traversal of the outer node crosses its children again from the same
    cells, and the trace takes their children's crossings from its memo."""
    n = draw(st.integers(1, 3))

    def node(depth):
        word = [open_bracket(n), BLANK]
        for _ in range(draw(st.integers(1, 2)) if depth else 0):
            word += node(depth - 1) + [BLANK] * draw(st.integers(1, 2))
        return word + [BLANK] * draw(st.integers(0, 2)) + [close_bracket(n)]

    word = [BLANK] + node(draw(st.integers(2, 3))) + [BLANK]
    if draw(st.booleans()):
        symbols = [s for s in level_alphabet(n) if not is_arrow(s)]
        word[draw(st.integers(0, len(word) - 1))] = draw(st.sampled_from(symbols))
    at = draw(st.sampled_from([i for i in range(2, len(word) - 2) if word[i] == BLANK]))
    word[at] = draw(st.sampled_from((ARROW_RIGHT, ARROW_LEFT)))
    return n, tuple(word), draw(st.integers(0, 3000))


# the arrow inside an outer node crosses its child, which holds a node,
# from cell 1010 on each traversal to the left
_RECROSSED = (BLANK, "[1", BLANK, "[1", BLANK, "[1", BLANK, "]1", BLANK, "]1", BLANK,
              ARROW_LEFT, BLANK, "]1", BLANK)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_arrow_words(), _inner_starts()), st.data())
@example((1, (ARROW_RIGHT, "[*0", BLANK, "[1", BLANK, "]1"), 50), None)  # stuck
@example((1, _RECROSSED, 2000), None)
@example((1, (BLANK, "[1", BLANK, "[1", BLANK, "[1", BLANK, "]1", BLANK, "[1", BLANK, "]1",
              BLANK, "]1", BLANK, ARROW_LEFT, BLANK, "]1", BLANK), 2000),
         None)  # twin nodes one blank apart, each crossed both ways from that blank
@example((2, (BLANK, ARROW_LEFT) + make_block(2, 2).word[::-1] + (BLANK,), 3000), None)
def test_trace_matches_step_walker_at_every_horizon(case, data):
    """`arrow_trace` against ArrowWalk.step alone, at the drawn horizon,
    one drawn below it and one step short of the end of each of the first
    two jumps (so the walk ends inside the node it did not jump)."""
    n, word, t_max = case
    cfg = _padded_from_word(word, n, anchor=1000)
    path, stuck_at, _, _ = _stepped_orbit(cfg, n, t_max)
    walk, table = _walk_and_table(cfg, n)
    ends = [walk.steps for _, shape in _macro_steps(walk, table, t_max) if shape is not None]
    horizons = {t_max, *(t - 1 for t in ends[:2])}
    if data is not None:
        horizons.add(data.draw(st.integers(0, t_max)))
    for t in horizons:
        trace = arrow_trace(cfg, build_rule(n), t)
        assert trace.positions == path[:t + 1]
        assert trace.stuck_at == (stuck_at if stuck_at is not None and stuck_at < t else None)


def test_a_trace_crosses_a_node_again_from_the_same_cell():
    """The premise of the `_RECROSSED` example: its walk jumps one node
    from one cell more than once, the node holding a child whose crossing
    the trace takes from its memo the second time."""
    cfg = _padded_from_word(_RECROSSED, 1, anchor=1000)
    walk, table = _walk_and_table(cfg, 1)
    jumps = [(cell, shape, walk.facing)
             for cell, shape in _macro_steps(walk, table, 2000) if shape is not None]
    assert [j for j in jumps if jumps.count(j) > 1] == [(1003, 1, -1)] * 2
    assert table._keys[1][1]  # the node jumped has a child
    assert arrow_trace(cfg, build_rule(1), 2000).positions == _stepped_orbit(cfg, 1, 2000)[0]


def test_gate_trace_memory_follows_the_cells_not_the_steps(monkeypatch):
    """The gate-03 trace of 10^6 steps on a kept table: at most 12 MiB
    held after the call (the list itself is 7.6 MiB) and 16 MiB at its
    peak, where an int per step held 38 MiB."""
    monkeypatch.setattr(arrow_bracket, "_kept", {})
    arr = hierarchical_arrangement(6, 2, seed=0)
    cfg = arr.configuration(5000, 15200, arrow_at=2 * arr.free_cell, facing=1)
    system = build_rule(2)
    arrow_trace(cfg, system, 10**6)  # keeps the table
    tracemalloc.start()
    try:
        trace = arrow_trace(cfg, system, 10**6)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace.positions) == 10**6 + 1
    assert held <= 12 * 2**20 and peak <= 16 * 2**20, (held, peak)
    assert len(set(map(id, trace.positions))) < 10**5


def test_traces_share_no_positions_across_calls():
    """Two traces of one configuration on its kept table are equal lists
    of distinct int objects (the start cell apart, which the store
    holds), and a trace sets nothing on the table: no cache of positions
    outlives a call."""
    cfg = _padded_from_word((ARROW_RIGHT, BLANK) + make_block(3, 2).word, 2, anchor=1000)
    system = build_rule(2)
    arrow_trace(cfg, system, 20000)
    _, table = _walk_and_table(cfg, 2)
    state = {k: v.copy() for k, v in vars(table).items() if hasattr(v, "copy")}
    names = set(vars(table))
    first, second = (arrow_trace(cfg, system, 20000).positions for _ in range(2))
    assert first == second and first is not second
    assert not any(p is q for p, q in zip(first[1:], second[1:]))
    assert set(vars(table)) == names
    assert {k: v for k, v in vars(table).items() if k in state} == state


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
    """After a macro walk, its walker holds exactly the step walker's
    brackets that differ from the word, every node its table holds is an
    eager node, every refusal is a cell with no node or a node whose S
    exceeds the recorded budget, and the walk kept to t_max."""
    eager = _eager_nodes(n, _brackets_of(cfg))
    walk, table = _walk_and_table(cfg, n)
    assert table.opens == table.closes == table.refused == {}
    for _ in _macro_steps(walk, table, t_max):
        pass
    assert walk.steps <= t_max
    stepped = walk_from_configuration(cfg, n)
    while stepped.steps < walk.steps and stepped.step():
        pass
    assert dict(walk.brackets) == {x: s for x, s in stepped.brackets.items()
                                   if s != table.original(x)}
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
    span, nodes it gave up on lie there too, and the walker holds only
    the brackets it changed, all inside that span: the walk's work is
    counted in nodes and cells, not timed."""
    cfg = _padded_from_word((ARROW_RIGHT, BLANK) + make_block(16, 2).word, 2,
                            anchor=-2)
    walk, table = _walk_and_table(cfg, 2)
    assert table.opens == table.closes == table.refused == {}
    lo = hi = walk.pos
    for cell, shape in _macro_steps(walk, table, 10**6):
        if shape is None:  # a tick reaches the arrow's cell and the faced one
            lo, hi = min(lo, walk.pos, cell), max(hi, walk.pos, cell)
        else:  # a jump reaches the cells either side of the node
            lo, hi = min(lo, cell - 1), max(hi, table.opens[cell][0] + 1)
    assert walk.steps == 10**6 and hi - lo < 1000
    inside = _eager_nodes(2, {x: s for x, s in _brackets_of(cfg).items()
                              if lo <= x <= hi})
    for x, node in {**table.opens, **table.closes}.items():
        assert inside[x] == _reported(table, node)
    assert all(lo <= x <= hi for x in table.refused)
    assert len(table.refused) < 40  # 22: a few per level of nesting
    assert all(lo <= x <= hi and s != table.original(x)
               for x, s in walk.brackets.items())


def test_long_walk_holds_only_the_cells_it_changed():
    """10^7 steps into the depth-7 landscape reach thousands of brackets,
    but the walker holds only the few the arrow left changed."""
    arr = hierarchical_arrangement(7, 2, seed=0)
    start = 2 * arr.free_cell
    cfg = arr.configuration(start - 60000, start + 60000, arrow_at=start, facing=1)
    walk, table = _walk_and_table(cfg, 2)
    assert table.opens == table.closes == table.refused == {}
    for _ in _macro_steps(walk, table, 10**7):
        pass
    assert walk.steps == 10**7
    assert len(walk.brackets) <= 16


# ---------------------------------------------------------------------------
# node tables kept across walks


def _twin(cfg):
    """An equal configuration whose word is an object of its own."""
    twin = Padded(cfg.alphabet, list(cfg.word), cfg.pad, cfg.anchor)
    assert twin == cfg and twin.word is not cfg.word
    return twin


def _walked(cfg, n, calls):
    """`arrow_trace` ("trace") or `perturbation_front` ("front") of cfg
    for each (function, t_max) of `calls`, in turn."""
    return [arrow_trace(cfg, build_rule(n), t) if f == "trace"
            else perturbation_front(cfg, n, t) for f, t in calls]


def _assert_kept_walks_match_fresh(cfg, n, calls):
    """Walked in turn on one configuration, all on one kept table, each
    call gives what it gives on a fresh twin, the twin's table built for
    that call alone."""
    _, table = _walk_and_table(cfg, n)
    assert table.opens == table.closes == table.refused == {}
    kept = _walked(cfg, n, calls)
    assert _walk_and_table(cfg, n)[1] is table
    for call, got in zip(calls, kept):
        assert got == _walked(_twin(cfg), n, [call])[0]


@st.composite
def _kept_cases(draw):
    """(n, configuration) of a hierarchical arrangement with the arrow at
    its free cell, or of a block with the arrow before it facing in or
    after it facing out."""
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        arr = hierarchical_arrangement(draw(st.integers(1, 7)), n,
                                       draw(st.integers(0, 2**31 - 1)))
        start = 2 * arr.free_cell
        return n, arr.configuration(start - 600, start + 600, arrow_at=start,
                                    facing=draw(st.sampled_from((1, -1))))
    block = make_block(draw(st.integers(0, 4)), n).word
    arrow = (draw(st.sampled_from((ARROW_RIGHT, ARROW_LEFT))), BLANK)
    word = arrow + block if draw(st.booleans()) else block + arrow[::-1]
    return n, _padded_from_word(word, n, draw(st.integers(-5, 5)))


_CALLS = st.lists(st.tuples(st.sampled_from(("trace", "front")),
                            st.integers(0, 30000)), min_size=2, max_size=5)


@settings(max_examples=60, deadline=None)
@given(_kept_cases(), _CALLS)
@example((2, _padded_from_word((ARROW_RIGHT, BLANK) + make_block(3, 2).word, 2)),
         [("trace", 20000), ("front", 300), ("front", 20000), ("trace", 5)])
@example((1, _padded_from_word(make_block(2, 1).word + (BLANK, ARROW_LEFT), 1)),
         [("front", 100), ("trace", 100), ("trace", 3000), ("front", 0)])
def test_kept_table_walks_match_fresh_walks(case, calls):
    n, cfg = case
    _assert_kept_walks_match_fresh(_twin(cfg), n, calls)


def test_kept_table_walks_match_fresh_walks_on_gate_landscape():
    """Gates 03 and 04 on one configuration, each twice, in both orders:
    10^6 steps of the trace and 10^5 of the fronts."""
    arr = hierarchical_arrangement(6, 2, seed=0)
    cfg = arr.configuration(5000, 15200, arrow_at=2 * arr.free_cell, facing=1)
    calls = [("front", 10**5), ("trace", 10**6), ("front", 10**5), ("trace", 10**6)]
    _assert_kept_walks_match_fresh(cfg, 2, calls)
    trace = arrow_trace(cfg, build_rule(2), 10**6)
    assert (max(trace.positions), min(trace.positions)) == (13821, 8190)


def test_equal_but_distinct_words_get_tables_of_their_own():
    """A table is kept for one word object, counter bound and anchor; a
    configuration sharing the word object gets no table it should not."""
    cfg = _padded_from_word((ARROW_RIGHT, BLANK) + make_block(2, 1).word, 1)
    _, table = _walk_and_table(cfg, 1)
    assert _walk_and_table(cfg, 1)[1] is table
    assert _walk_and_table(Padded(cfg.alphabet, cfg.word, BLANK, 0), 1)[1] is table
    assert _walk_and_table(_twin(cfg), 1)[1] is not table
    assert _walk_and_table(cfg, 2)[1] is not table
    shifted = cfg.shifted(3)
    assert shifted.word is cfg.word
    walk, other = _walk_and_table(shifted, 1)
    assert other is not table and walk.pos == -3
    padded = Padded(cfg.alphabet, cfg.word, "[1")
    periodic = Periodic(cfg.alphabet, cfg.word)
    assert padded.word is cfg.word and periodic.word is cfg.word
    with pytest.raises(ValueError, match="walker expects blank padding"):
        perturbation_front(padded, 1, 10)
    with pytest.raises(ValueError, match="the walker needs a padded configuration"):
        arrow_trace(periodic, build_rule(1), 10)


def test_a_dropped_word_leaves_its_table_to_no_new_word():
    """Words of one length, each walked and dropped before the next is
    made, so the next may take its memory: each gets a table of its own."""
    system = build_rule(1)
    for at in range(24):
        word = ["[1", BLANK, "]1"] + [BLANK] * 24 + ["[1", BLANK, "]1"]
        word[3 + at] = ARROW_RIGHT  # no cell trimmed: every word is 30 long
        cfg = _padded_from_word(tuple(word), 1)
        assert arrow_trace(cfg, system, 40).positions == _stepped_orbit(cfg, 1, 40)[0]
        assert _walk_and_table(cfg, 1)[1].word == cfg.word
        del cfg


def test_the_store_keeps_the_last_sixteen_words(monkeypatch):
    monkeypatch.setattr(arrow_bracket, "_kept", {})
    cfgs = [_padded_from_word((ARROW_RIGHT,) + (BLANK,) * k + ("[1", BLANK, "]1"), 1)
            for k in range(40)]
    tables = []
    for cfg in cfgs:
        assert perturbation_front(cfg, 1, 100)
        tables.append(_walk_and_table(cfg, 1)[1])
        assert len(arrow_bracket._kept) <= arrow_bracket._KEEP == 16
    assert len(arrow_bracket._kept) == 16
    assert _walk_and_table(cfgs[24], 1)[1] is tables[24]  # the least recent
    arrow_trace(cfgs[0], build_rule(1), 10)  # evicts the least recent: 25
    assert _walk_and_table(cfgs[24], 1)[1] is tables[24]
    assert _walk_and_table(cfgs[39], 1)[1] is tables[39]
    assert _walk_and_table(cfgs[23], 1)[1] is not tables[23]
    assert _walk_and_table(cfgs[25], 1)[1] is not tables[25]
    assert len(arrow_bracket._kept) == 16


def test_the_store_keeps_words_within_its_cell_budget(monkeypatch):
    """Past `_KEEP_CELLS` cells of kept words, the least recently walked
    tables go first; a word longer than the budget is walked but not
    kept, and drops no other table."""
    kept = {}
    monkeypatch.setattr(arrow_bracket, "_kept", kept)
    monkeypatch.setattr(arrow_bracket, "_KEEP_CELLS", 30)
    a, b, c, d, e, f = (
        _padded_from_word((ARROW_RIGHT,) + (BLANK,) * k + ("[1", BLANK, "]1"), 1)
        for k in (6, 6, 6, 6, 26, 27))  # words of 10, 10, 10, 10, 30 and 31 cells
    words = lambda: [word for word, *_ in kept.values()]  # least recent first
    for cfg in (a, b, c):
        perturbation_front(cfg, 1, 20)
    assert words() == [a.word, b.word, c.word]  # 30 cells: all kept
    arrow_trace(a, build_rule(1), 20)  # a is now the most recent
    perturbation_front(d, 1, 20)  # 40 cells: b, the least recent, goes
    assert words() == [c.word, a.word, d.word]
    perturbation_front(e, 1, 20)  # 60 cells: c, a and d go
    assert words() == [e.word]
    trace = arrow_trace(f, build_rule(1), 40)
    assert trace.positions == _stepped_orbit(f, 1, 40)[0]
    assert words() == [e.word]


def test_refused_and_arrowless_starts_keep_nothing(monkeypatch):
    kept = {}
    monkeypatch.setattr(arrow_bracket, "_kept", kept)
    a = level_alphabet(1)
    system = build_rule(1)
    refused = [
        (Padded(a, (ARROW_RIGHT, "[1", BLANK, ARROW_LEFT), BLANK), "found 2"),
        (Periodic(a, (ARROW_RIGHT,) + (BLANK,) * 4), "a padded configuration"),
        (Padded(a, (ARROW_RIGHT, BLANK), "]1"), "blank padding"),
    ]
    for cfg, message in refused:
        for start in (lambda: perturbation_front(cfg, 1, 10),
                      lambda: arrow_trace(cfg, system, 10),
                      lambda: walk_from_configuration(cfg, 1)):
            with pytest.raises(ValueError, match=message):
                start()
    for cfg in (Periodic(a, ("[1", BLANK)), Padded(a, ("[1", BLANK), "]1"),
                _padded_from_word(make_block(1, 1).word, 1)):
        assert arrow_trace(cfg, system, 10).no_arrow
    assert walk_from_configuration(_padded_from_word((ARROW_LEFT, "[1"), 1), 1)
    assert kept == {}


@pytest.mark.parametrize("pad", [ARROW_RIGHT, ARROW_LEFT])
def test_an_arrow_pad_is_refused_not_read_as_no_arrow(pad, monkeypatch):
    """Every cell outside the word holds an arrow, so the configuration is
    not arrowless: the trace refuses it as the front does."""
    kept = {}
    monkeypatch.setattr(arrow_bracket, "_kept", kept)
    for word in ((BLANK, "[1", BLANK), ()):
        cfg = Padded(level_alphabet(1), word, pad)
        for start in (lambda: arrow_trace(cfg, build_rule(1), 5),
                      lambda: perturbation_front(cfg, 1, 5)):
            with pytest.raises(ValueError, match="walker expects blank padding"):
                start()
    assert kept == {}


class _Scans(tuple):
    """A word that records each scan of it for an arrow."""

    scans: list

    def count(self, x):
        self.scans.append(x)
        return tuple.count(self, x)

    def index(self, x, *args):
        self.scans.append(x)
        return tuple.index(self, x, *args)

    def __contains__(self, x):
        self.scans.append(x)
        return tuple.__contains__(self, x)


def test_a_repeated_walk_matches_no_node_and_scans_no_cell(monkeypatch):
    found = []
    original = _NodeTable._found

    def counting(self, *args):
        found.append(args[:2])
        return original(self, *args)

    monkeypatch.setattr(_NodeTable, "_found", counting)
    cfg = _padded_from_word((ARROW_RIGHT, BLANK) + make_block(4, 2).word, 2)
    cfg.word = _Scans(cfg.word)
    cfg.word.scans = []
    first = perturbation_front(cfg, 2, 48000)
    assert found and cfg.word.scans
    found.clear()
    cfg.word.scans.clear()
    assert perturbation_front(cfg, 2, 48000) == first
    arrow_trace(cfg, build_rule(2), 48000)
    assert found == [] and cfg.word.scans == []


def test_block_size_budget_allocates_nothing():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="level 40"):
            make_block(40, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


# ---------------------------------------------------------------------------
# time reversal: F^-1 = J F J, an exact oracle at any t


def _reversal(n):
    """The symbol involution J at counter bound n: it flips the arrows,
    keeps the blank and the resting brackets, and for k < n swaps `[k`
    with `[*(n-1-k)` and `]k` with `]*(n-1-k)`."""
    j = {ARROW_RIGHT: ARROW_LEFT, ARROW_LEFT: ARROW_RIGHT, BLANK: BLANK,
         open_bracket(n): open_bracket(n), close_bracket(n): close_bracket(n)}
    for k in range(n):
        for bracket in (open_bracket, close_bracket):
            j[bracket(k)], j[bracket(n - 1 - k, True)] = bracket(n - 1 - k, True), bracket(k)
    return j


def _reversed_cfg(cfg, j):
    return Padded(cfg.alphabet, [j[s] for s in cfg.word], j[cfg.pad], cfg.anchor)


def test_reversed_patterns_are_the_forward_patterns():
    for n in range(1, 16):
        j = _reversal(n)
        assert sorted(j) == sorted(level_alphabet(n)) and all(j[j[s]] == s for s in j)
        forward = {(lhs, rhs) for _, lhs, rhs in transitions(n)}
        assert {(tuple(map(j.get, rhs)), tuple(map(j.get, lhs)))
                for lhs, rhs in forward} == forward


@pytest.mark.parametrize("n", [1, 2, 3])
def test_inverse_table_is_the_relabeled_forward_table(n):
    j = _reversal(n)
    relabeled = {tuple(map(j.get, w)): j[s] for w, s in build_rule(n).rule.table.items()}
    assert build_inverse_rule(n).table == relabeled


def test_inverse_rule_is_the_conjugated_rule_on_crossing_orbits():
    """Sampled configurations of both crossings of block(k, n), k <= 2,
    n <= 3, out to 30 steps past the crossing."""
    for n in (1, 2, 3):
        j, rule, inverse = _reversal(n), build_rule(n).rule, build_inverse_rule(n)
        for k in (0, 1, 2):
            word = make_block(k, n).word
            for start in ((ARROW_RIGHT,) + word, word + (ARROW_LEFT,)):
                rows = orbit(rule, _padded_from_word(start, n), crossing_steps(k, n) + 30)
                for cfg in rows[::max(1, len(rows) // 40)]:
                    assert apply_rule(inverse, cfg) == _reversed_cfg(
                        apply_rule(rule, _reversed_cfg(cfg, j)), j)


def _walked_for(walk, table, steps):
    """`walk` after `steps` more macro steps, none of them stuck, the arrow
    never more than 64 cells outside the table's word (out there a walk
    only ticks, so a wrong one fails at once, not after 10^8 ticks)."""
    end, lo, hi = walk.steps + steps, table.anchor - 64, table.anchor + len(table.word) + 64
    for _ in _macro_steps(walk, table, steps):
        assert lo <= walk.pos <= hi
    assert walk.steps == end and not walk.stuck
    return walk


def _reverse_in_place(walk, j):
    """J on a macro walk over a word J fixes: flip the facing and relabel
    the brackets the walk changed."""
    walk.facing = -walk.facing
    for x, s in list(walk.brackets.items()):
        walk.brackets[x] = j[s]


def _state(walk):
    return walk.pos, walk.facing, dict(walk.brackets)


def _assert_reversal_checks(cfg, n, a, b):
    """The round trip (a steps, J, a steps, J lands on the start) and the
    split (a steps, J, b steps, J lands where a - b steps do)."""
    j = _reversal(n)
    assert all(j[s] == s for s in cfg.word if s not in (ARROW_RIGHT, ARROW_LEFT))
    for back in (a, b):
        walk, table = _walk_and_table(cfg, n)
        _reverse_in_place(_walked_for(walk, table, a), j)
        _reverse_in_place(_walked_for(walk, table, back), j)
        fresh, _ = _walk_and_table(cfg, n)  # no step at all for the round trip
        assert _state(walk) == _state(_walked_for(fresh, table, a - back))


@pytest.mark.parametrize("k, n", [(12, 1), (10, 2), (8, 3), (4, 2), (0, 1)])
def test_time_reversal_on_blocks(k, n):
    """From arrow·block and block·arrow, stopped mid-crossing and past
    it; at k = 10, n = 2 the crossing takes 1.8*10^11 steps."""
    s, word = crossing_steps(k, n), make_block(k, n).word
    for start in ((ARROW_RIGHT,) + word, word + (ARROW_LEFT,)):
        cfg = _padded_from_word(start, n, anchor=-1)
        for a, b in ((s // 3 + 7, s // 5 + 3), (s - 1, s // 2), (s + 50, s - 1)):
            _assert_reversal_checks(cfg, n, a, b)


@pytest.mark.parametrize("depth, n, seed, t", [(9, 2, 0, 10**8), (9, 1, 3, 10**6),
                                                (8, 3, 1, 10**8), (6, 2, 0, 10**6)])
def test_time_reversal_on_landscapes(depth, n, seed, t):
    """Both facings from the free cell; by t the arrow has reached at most
    58,879 cells from it, inside the materialized word."""
    arr = hierarchical_arrangement(depth, n, seed)
    start = 2 * arr.free_cell
    for facing in (1, -1):
        cfg = arr.configuration(start - 70000, start + 70000, arrow_at=start, facing=facing)
        _assert_reversal_checks(cfg, n, t, t // 3 + 11)
