"""The bracket-and-arrow automaton.

A single arrow walks over a landscape of bracket pairs.  Brackets carry
counters up to a bound n; an arrow entering a bracket pair is forced back and
forth between the two brackets while the counters run down, so nested bracket
blocks slow the arrow exponentially with nesting depth.  That is the engine
behind the logarithmic information propagation measured elsewhere in this
package.

The cell map is a range-2 sliding block code assembled from six 3-cell (or
2-cell) rewrite patterns and their left-right mirrors.  Every pattern contains
exactly one arrow, which pins where a pattern instance can sit relative to any
cell it rewrites; that is what makes the assembled table conflict-free.  Cells
covered by no instance keep their symbol, so arrowless configurations are
fixed points.

Symbols are plain strings: ``-`` (blank), ``>`` and ``<`` (arrows), ``[k`` and
``]k`` (brackets with counter k), ``[*k`` and ``]*k`` (marked brackets, whose
counters stay below n).
"""

from __future__ import annotations

import itertools
import operator
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field

from .shift_core import (
    Alphabet,
    Configuration,
    LocalRule,
    Padded,
    Periodic,
    apply_rule,
)

BLANK = "-"
ARROW_RIGHT = ">"
ARROW_LEFT = "<"


class ConflictingTransitions(ValueError):
    """Two transition instances prescribe different values for one cell."""


class Timeout(RuntimeError):
    """An orbit search exceeded its step budget."""

    def __init__(self, limit: int, message: str = ""):
        self.limit = limit
        super().__init__(message or f"no crossing within {limit} steps")


def open_bracket(k: int, marked: bool = False) -> str:
    return f"[*{k}" if marked else f"[{k}"


def close_bracket(k: int, marked: bool = False) -> str:
    return f"]*{k}" if marked else f"]{k}"


def bracket_info(sym: str):
    'Return (orientation, marked, counter) for a bracket symbol, else None.'
    if not sym or sym[0] not in "[]":
        return None
    body = sym[1:]
    marked = body.startswith("*")
    if marked:
        body = body[1:]
    if not body.isdigit():
        return None
    return sym[0], marked, int(body)


def is_arrow(sym: str) -> bool:
    return sym == ARROW_RIGHT or sym == ARROW_LEFT


def is_bracket(sym: str) -> bool:
    return bracket_info(sym) is not None


def level_alphabet(n: int) -> Alphabet:
    """All symbols legal at counter bound n, in a fixed display order."""
    if n < 1:
        raise ValueError("counter bound n must be >= 1")
    syms = [BLANK, ARROW_RIGHT, ARROW_LEFT]
    syms += [open_bracket(k) for k in range(n + 1)]
    syms += [close_bracket(k) for k in range(n + 1)]
    syms += [open_bracket(k, True) for k in range(n)]
    syms += [close_bracket(k, True) for k in range(n)]
    return Alphabet(syms)


def mirror_symbol(sym: str) -> str:
    """Left-right mirror: swap arrow directions and bracket orientations,
    keep marks and counters."""
    if sym == ARROW_RIGHT:
        return ARROW_LEFT
    if sym == ARROW_LEFT:
        return ARROW_RIGHT
    info = bracket_info(sym)
    if info is None:
        return sym
    orient, marked, k = info
    if orient == "[":
        return close_bracket(k, marked)
    return open_bracket(k, marked)


def mirror_transition(lhs: tuple, rhs: tuple) -> tuple:
    flip = lambda pat: tuple(mirror_symbol(s) for s in reversed(pat))
    return flip(lhs), flip(rhs)


def transitions(n: int) -> list[tuple[str, tuple, tuple]]:
    """The rewrite patterns of the automaton at counter bound n.

    Six canonical patterns (arrow moving right, or bouncing inside marked
    open brackets) plus the mechanical mirror of each.  Every left-hand side
    contains exactly one arrow.
    """
    R, L, B = ARROW_RIGHT, ARROW_LEFT, BLANK
    opn, cls = open_bracket, close_bracket
    base: list[tuple[str, tuple, tuple]] = [
        ("advance", (R, B), (B, R)),
        ("mark-open", (R, opn(n), B), (B, opn(n - 1, True), R)),
    ]
    for k in range(1, n + 1):
        base.append((f"bounce-close-{k}", (R, cls(k), B), (L, cls(k - 1), B)))
    base.append(("reset-close", (R, cls(0), B), (B, cls(n), R)))
    for k in range(1, n):
        base.append(
            (f"bounce-marked-open-{k}", (B, opn(k, True), L), (B, opn(k - 1, True), R))
        )
    base.append(("unmark-open", (B, opn(0, True), L), (B, opn(n), R)))
    mirrored = [
        (name + "-mirror", *mirror_transition(lhs, rhs)) for name, lhs, rhs in base
    ]
    return base + mirrored


def _adjacent_brackets(word) -> bool:
    return any(
        is_bracket(word[i]) and is_bracket(word[i + 1]) for i in range(len(word) - 1)
    )


def _instance_offsets(length: int):
    # offsets at which a pattern of this length covers the center of a 5-window
    return range(max(0, 3 - length), min(2, 5 - length) + 1)


@dataclass(frozen=True)
class ABSystem:
    """A counter bound together with its derived range-2 cell map."""

    n: int
    alphabet: Alphabet
    rule: LocalRule

    def step(self, cfg: Configuration) -> Configuration:
        return apply_rule(self.rule, cfg)


def _build_table(n: int, rewrite_pairs, alphabet: Alphabet) -> dict:
    """Range-2 window table from 2/3-cell patterns placed at every offset
    covering the window center.  Windows that an admissible configuration can
    never exhibit (adjacent brackets, second arrow) are left to the identity
    default.  Raises ConflictingTransitions on inconsistent prescriptions."""
    non_arrow = [s for s in alphabet if not is_arrow(s)]
    table: dict = {}
    origin: dict = {}
    for name, lhs, rhs in rewrite_pairs:
        length = len(lhs)
        for o in _instance_offsets(length):
            fill_at = [i for i in range(5) if not o <= i < o + length]
            for fill in itertools.product(non_arrow, repeat=len(fill_at)):
                w: list = [None] * 5
                w[o : o + length] = lhs
                for i, s in zip(fill_at, fill):
                    w[i] = s
                window = tuple(w)
                if _adjacent_brackets(window):
                    continue
                out = rhs[2 - o]
                prev = table.get(window)
                if prev is None:
                    table[window] = out
                    origin[window] = name
                elif prev != out:
                    raise ConflictingTransitions(
                        f"window {window} gets {prev!r} from {origin[window]} "
                        f"but {out!r} from {name}"
                    )
    return table


# size budget of build_rule: its window table grows like (4n+5)^4 entries;
# 15 is also the largest bound `ascii_legend` has glyphs for
MAX_COUNTER_BOUND = 15


def build_rule(n: int) -> ABSystem:
    """Assemble the automaton at counter bound n.

    The returned system's rule is a partial range-2 table with identity
    default; quiescence of the blank and conflict-freeness are structural
    (and re-checked exhaustively by `conflict_report`).  Raises ValueError
    for n above `MAX_COUNTER_BOUND` before building anything.
    """
    if n > MAX_COUNTER_BOUND:
        raise ValueError(
            f"counter bound {n} is above the limit {MAX_COUNTER_BOUND} "
            f"(the window table grows like (4n+5)^4)"
        )
    alphabet = level_alphabet(n)
    table = _build_table(n, transitions(n), alphabet)
    return ABSystem(n, alphabet, LocalRule(alphabet, 2, table, "identity"))


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
    pats = transitions(n)
    problems = []
    for arrow in (ARROW_RIGHT, ARROW_LEFT):
        for fill in itertools.product(non_arrow, repeat=4):
            window = fill[:2] + (arrow,) + fill[2:]
            if _adjacent_brackets(window):
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


# ---------------------------------------------------------------------------
# sparse one-arrow simulation


@dataclass
class ArrowWalk:
    """Mutable sparse automaton state: bracket cells plus one arrow.

    Blank cells are implicit.  Equivalent to applying the full cell map (the
    equivalence is exercised in the test suite); `step` advances one tick in
    O(1) and is the oracle of the macro-stepping in `arrow_trace`,
    `perturbation_front` and `run_crossing`, which cross a whole resting
    bracket node in one jump (see `_NodeTable`) and so pay per tick only
    outside the nodes they can jump, plus O(1) per step replayed.
    """

    n: int
    brackets: dict[int, str]
    pos: int
    facing: int
    stuck: bool = False
    steps: int = 0
    _face: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self._face:
            self._face = _face_maps(self.n)

    def step(self) -> bool:
        """Advance one tick.  Returns False (and flags stuck) on an
        encounter no transition covers; the configuration is then fixed."""
        if self.stuck:
            return False
        ahead = self.pos + self.facing
        sym = self.brackets.get(ahead)
        if sym is None:
            self.pos = ahead
            self.steps += 1
            return True
        entry = self._face[self.facing].get(sym)
        if entry is None or (self.pos + 2 * self.facing) in self.brackets:
            self.stuck = True
            return False
        new_sym, action = entry
        self.brackets[ahead] = new_sym
        if action == "pass":
            self.pos += 2 * self.facing
        else:
            self.facing = -self.facing
        self.steps += 1
        return True

    def snapshot_word(self) -> tuple:
        """Current content from leftmost to rightmost non-blank cell."""
        cells = set(self.brackets)
        cells.add(self.pos)
        lo, hi = min(cells), max(cells)
        arrow = ARROW_RIGHT if self.facing > 0 else ARROW_LEFT
        return tuple(
            arrow if i == self.pos else self.brackets.get(i, BLANK)
            for i in range(lo, hi + 1)
        )


def _face_maps(n: int) -> dict[int, dict[str, tuple[str, str]]]:
    """Per-direction dispatch: faced bracket symbol -> (new symbol, action).

    Extracted from the same transition list the cell map is built from, so
    the sparse walker cannot drift from the rule table.
    """
    maps: dict[int, dict] = {1: {}, -1: {}}
    for _name, lhs, rhs in transitions(n):
        if len(lhs) != 3:
            continue
        if lhs[0] == ARROW_RIGHT:
            facing, faced = 1, lhs[1]
            action = "pass" if rhs[2] == ARROW_RIGHT else "turn"
        elif lhs[2] == ARROW_LEFT:
            facing, faced = -1, lhs[1]
            action = "pass" if rhs[0] == ARROW_LEFT else "turn"
        else:
            raise AssertionError(f"unexpected pattern shape {lhs}")
        maps[facing][faced] = (rhs[1], action)
    return maps


def walk_from_configuration(cfg: Padded, n: int) -> ArrowWalk:
    """Sparse walker for a padded configuration with exactly one arrow."""
    if cfg.pad != BLANK:
        raise ValueError("walker expects blank padding")
    brackets: dict[int, str] = {}
    arrows = []
    for i, s in enumerate(cfg.word, cfg.anchor):
        if is_arrow(s):
            arrows.append((i, s))
        elif s != BLANK:
            brackets[i] = s
    if len(arrows) != 1:
        raise ValueError(f"expected exactly one arrow, found {len(arrows)}")
    (pos, a), = arrows
    return ArrowWalk(n, brackets, pos, 1 if a == ARROW_RIGHT else -1)


def walk_to_configuration(walk: ArrowWalk, alphabet: Alphabet) -> Padded:
    cells = dict(walk.brackets)
    cells[walk.pos] = ARROW_RIGHT if walk.facing > 0 else ARROW_LEFT
    if not cells:
        return Padded(alphabet, [], BLANK)
    lo, hi = min(cells), max(cells)
    word = [cells.get(i, BLANK) for i in range(lo, hi + 1)]
    return Padded(alphabet, word, BLANK, lo)


# ---------------------------------------------------------------------------
# macro-stepping over resting bracket nodes


class _NodeTable:
    """The resting bracket nodes of one landscape and the cost of crossing
    each, after HashLife (Gosper, Physica D 10, 1984).

    A node is a matched pair of resting brackets `[n` ... `]n` whose
    interior holds only nodes, with no two brackets adjacent.  An arrow
    facing a node's outer bracket, with no bracket beyond the far one,
    crosses it without reading anything else and leaves it restored: it
    enters, traverses the interior 2n+1 times with a bounce between
    traversals and leaves by the far bracket.  That takes
    S = (2n+1)R + 2n+2 steps, where R (blank cells walked plus the S of
    every child) is one traversal; for make_block this is
    a_0 = 6n+4, a_(k+1) = (4n+2)a_k + 6n+4.

    Nodes are numbered by shape, (width, ((child offset, child shape),
    ...)).  The crossing blocks of a shape, relative to its open bracket,
    are built from its children's on first use: the arrow position after
    each step, and the running front on the side the arrow travels to
    (the farthest cell that the arrow or a changed bracket has reached).
    """

    def __init__(self, n: int, brackets: dict):
        self.n = n
        self.opens: dict = {}  # open cell -> (close cell, shape)
        self.closes: dict = {}  # close cell -> (open cell, shape)
        self.steps: list = []  # shape -> S
        self._keys: list = []  # shape -> (width, children)
        self._shapes: dict = {}
        self._blocks: dict = {}
        opn, cls = open_bracket(n), close_bracket(n)
        stack = []  # [open cell, children, still a node]
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
                    shape = self._shape(x - a, tuple((c - a, s) for c, s in children))
                    self.opens[a] = (x, shape)
                    self.closes[x] = (a, shape)
                    if stack:
                        stack[-1][1].append((a, shape))
                elif stack:
                    stack[-1][2] = False

    def _shape(self, width: int, children: tuple) -> int:
        key = (width, children)
        shape = self._shapes.get(key)
        if shape is None:
            blanks = width - 2 - sum(self._keys[s][0] + 2 for _, s in children)
            r = blanks + sum(self.steps[s] for _, s in children)
            shape = self._shapes[key] = len(self._keys)
            self._keys.append(key)
            self.steps.append((2 * self.n + 1) * r + 2 * self.n + 2)
        return shape

    def _traversal(self, shape: int, facing: int, child_block) -> array:
        """One interior traversal from the cell after the entered bracket
        to the cell before the far one, with child_block(child, facing)
        replayed for each child."""
        width, children = self._keys[shape]
        out = array("q")
        if facing > 0:
            cur = 1
            for off, s in children:
                out.extend(range(cur + 1, off))
                out.extend(map(off.__add__, child_block(s, 1)))
                cur = off + self._keys[s][0] + 1
            out.extend(range(cur + 1, width))
        else:
            cur = width - 1
            for off, s in reversed(children):
                out.extend(range(cur - 1, off + self._keys[s][0], -1))
                out.extend(map(off.__add__, child_block(s, -1)))
                cur = off - 1
            out.extend(range(cur - 1, 0, -1))
        return out

    def positions(self, shape: int, facing: int) -> array:
        """Arrow position after each step of a crossing."""
        key = ("positions", shape, facing)
        blk = self._blocks.get(key)
        if blk is None:
            w = self._keys[shape][0]
            near, far = (1, w - 1) if facing > 0 else (w - 1, 1)
            there = self._traversal(shape, facing, self.positions)
            back = self._traversal(shape, -facing, self.positions)
            round_trip = there + array("q", (far,)) + back + array("q", (near,))
            exit_cell = w + 1 if facing > 0 else -1
            blk = array("q", (near,)) + round_trip * self.n + there + array("q", (exit_cell,))
            self._blocks[key] = blk
        return blk

    def front(self, shape: int, facing: int) -> array:
        """Running front on the exit side after each step of a crossing:
        nondecreasing going right, nonincreasing going left.  It reaches
        the far bracket at the first bounce and stays there until the
        arrow leaves."""
        key = ("front", shape, facing)
        blk = self._blocks.get(key)
        if blk is None:
            w = self._keys[shape][0]
            near, far, exit_cell = (1, w, w + 1) if facing > 0 else (w - 1, 0, -1)
            there = self._traversal(shape, facing, self.front)
            rest = self.steps[shape] - 2 - len(there)
            blk = array("q", (near,)) + there + array("q", (far,)) * rest
            blk.append(exit_cell)
            self._blocks[key] = blk
        return blk


def _macro_steps(walk: ArrowWalk, table: _NodeTable, t_max: int):
    """Advance `walk` by up to t_max steps, jumping whole nodes of `table`.

    Yields (faced cell, None) after each single tick and (open cell,
    shape) after each jump, in the direction the walk faces.  A node is
    jumped when the arrow faces its outer bracket, no bracket lies beyond
    the far one (the walker's stuck check reads that cell at every
    bounce), none of its brackets differs from when the table was built,
    and its S fits in the steps left; the walk then ends exactly as S
    calls of `walk.step` would leave it.  Stops early if the arrow gets
    stuck.
    """
    brackets = walk.brackets
    original = dict(brackets)
    changed: set = set()  # cells whose bracket differs from `original`
    end = walk.steps + t_max
    while walk.steps < end:
        ahead = walk.pos + walk.facing
        if ahead in brackets:
            node = (table.opens if walk.facing > 0 else table.closes).get(ahead)
            if node is not None:
                other, shape = node
                a, b = sorted((ahead, other))
                s = table.steps[shape]
                if (
                    s <= end - walk.steps
                    and other + walk.facing not in brackets
                    and not (changed and any(a <= c <= b for c in changed))
                ):
                    walk.pos = other + walk.facing
                    walk.steps += s
                    yield a, shape
                    continue
            if not walk.step():
                return
            if brackets[ahead] == original[ahead]:
                changed.discard(ahead)
            else:
                changed.add(ahead)
        elif not walk.step():
            return
        yield ahead, None


# ---------------------------------------------------------------------------
# blocks and crossings


def make_preblock(k: int) -> str:
    'Level-0 pre-block is "[-]"; each level wraps two copies in brackets.'
    if k < 0:
        raise ValueError("level must be >= 0")
    word = "[-]"
    for _ in range(k):
        word = "[" + word + "-" + word + "]"
    assert len(word) == 6 * 2**k - 3
    return word


# size budget of make_block: level 18 is 12*2^18 - 7 = 3,145,721 cells,
# under 2^22
MAX_BLOCK_LEVEL = 18


@dataclass(frozen=True)
class BlockSpec:
    level: int
    n: int
    word: tuple

    @property
    def width(self) -> int:
        return len(self.word)


def make_block(k: int, n: int) -> BlockSpec:
    """Blow a pre-block up into automaton symbols.

    One blank goes between every adjacent pre-block symbol pair (brackets are
    never allowed to touch) and all brackets start unmarked at counter n.
    """
    if n < 1:
        raise ValueError("counter bound n must be >= 1")
    if k > MAX_BLOCK_LEVEL:
        raise ValueError(
            f"block level {k} is above the limit {MAX_BLOCK_LEVEL} "
            f"(a level-k block has 12*2^k - 7 cells)"
        )
    pre = make_preblock(k)
    spaced = "-".join(pre)
    lut = {"[": open_bracket(n), "]": close_bracket(n), "-": BLANK}
    word = tuple(lut[c] for c in spaced)
    assert len(word) == 12 * 2**k - 7
    return BlockSpec(k, n, word)


@dataclass(frozen=True)
class CrossingReport:
    level: int
    n: int
    steps: int
    restored: bool
    trace_length: int


def default_step_budget(k: int, n: int) -> int:
    # measured crossings grow like (4n+4)^k * (6n+4); leave a 4x margin
    return 4 * (6 * n + 4) * (4 * n + 4) ** k + 100


def run_crossing(
    k: int, n: int, direction: str = "right", max_steps: int | None = None
) -> CrossingReport:
    """Send the arrow through block(k, n) and count the steps.

    The right crossing starts from arrow·block (arrow immediately left of the
    block, facing it) and ends the first time the configuration is exactly
    block·arrow with the block restored; the left crossing is the mirror.
    The block is one resting node, so that time is its node S (see
    `_NodeTable`), the same both ways.  Raises Timeout if S exceeds the
    budget.
    """
    block = make_block(k, n)
    if direction not in ("right", "left"):
        raise ValueError("direction must be 'right' or 'left'")
    table = _NodeTable(n, {i: s for i, s in enumerate(block.word) if s != BLANK})
    steps = table.steps[table.opens[0][1]]
    budget = default_step_budget(k, n) if max_steps is None else max_steps
    if steps > budget:
        raise Timeout(budget)
    return CrossingReport(k, n, steps, True, steps + 1)


@dataclass(frozen=True)
class CrossingLanguage:
    """The intermediate patterns of both crossing directions of a block."""

    level: int
    n: int
    right: tuple
    left: tuple

    @property
    def words(self) -> frozenset:
        return frozenset(self.right) | frozenset(self.left)


def enumerate_L(k: int, n: int, max_steps: int | None = None) -> CrossingLanguage:
    """Every configuration the crossing orbit passes through, in both
    directions, trimmed to the non-blank extent."""
    block = make_block(k, n)
    width = block.width
    budget = default_step_budget(k, n) if max_steps is None else max_steps
    snapshots = []
    for facing, start, goal in ((1, -1, width), (-1, width, -1)):
        walk = ArrowWalk(n, {i: s for i, s in enumerate(block.word) if s != BLANK},
                         start, facing)
        original = dict(walk.brackets)
        seen = [walk.snapshot_word()]
        while True:
            if walk.steps >= budget or not walk.step():
                raise Timeout(budget)
            seen.append(walk.snapshot_word())
            if walk.pos == goal and walk.brackets == original:
                break
        snapshots.append(tuple(seen))
    return CrossingLanguage(k, n, snapshots[0], snapshots[1])


# ---------------------------------------------------------------------------
# traces and admissibility


@dataclass(frozen=True)
class ArrowTrace:
    path: tuple = ()  # arrow position at t = 0, 1, ...
    no_arrow: bool = False
    stuck_at: int | None = None

    @property
    def pairs(self) -> tuple:
        return tuple(enumerate(self.path))

    @property
    def positions(self) -> list[int]:
        return list(self.path)


def arrow_trace(cfg: Configuration, system: ABSystem, t_max: int) -> ArrowTrace:
    """(t, arrow position) for 0 <= t <= t_max.

    Arrowless configurations are fixed points; they yield an empty trace with
    the no_arrow flag set.  If the arrow gets stuck the trace is truncated at
    that time and stuck_at records it (the configuration no longer changes).
    Node crossings are replayed from their position blocks.
    """
    if not isinstance(cfg, (Padded, Periodic)):
        raise TypeError("unsupported configuration type")
    count = sum(map(is_arrow, cfg.word))
    if count == 0:
        return ArrowTrace((), no_arrow=True)
    if count > 1 or not isinstance(cfg, Padded):
        raise ValueError("arrow_trace needs a padded configuration with one arrow")
    walk = walk_from_configuration(cfg, system.n)
    table = _NodeTable(walk.n, walk.brackets)
    path = [walk.pos]
    for cell, shape in _macro_steps(walk, table, t_max):
        if shape is None:
            path.append(walk.pos)
        else:
            path += map(cell.__add__, table.positions(shape, walk.facing))
    return ArrowTrace(tuple(path), stuck_at=walk.steps if walk.stuck else None)


def admissible(cfg: Configuration, n: int) -> bool:
    """At most one arrow, no two adjacent brackets, counters within range,
    marked counters strictly below n.  Periodic configurations are judged on
    one period (with the wrap-around adjacency included); an arrow in the
    period word repeats every period, so the period must be at least 5 for
    every rule window to see a single arrow."""
    if isinstance(cfg, Padded):
        if cfg.pad != BLANK:
            return False
        word = cfg.word
        wrap = False
    elif isinstance(cfg, Periodic):
        word = cfg.word
        wrap = True
    else:
        raise TypeError("unsupported configuration type")
    arrows = 0
    for s in word:
        if is_arrow(s):
            arrows += 1
        elif s != BLANK:
            info = bracket_info(s)
            if info is None:
                return False
            _, marked, k = info
            if marked and not 0 <= k < n:
                return False
            if not marked and not 0 <= k <= n:
                return False
    if arrows > 1:
        return False
    if arrows and wrap and len(word) < 5:
        return False
    pairs = range(len(word) - 1) if not wrap else range(len(word))
    for i in pairs:
        if is_bracket(word[i]) and is_bracket(word[(i + 1) % len(word)]):
            return False
    return True


# ---------------------------------------------------------------------------
# hierarchical bracket arrangements


def hierarchical_choices(depth: int, seed: int = 0) -> tuple:
    """Per-level (half-coset, orientation) bits.  Seed 0 is the
    lexicographically least sequence; other seeds give reproducible
    alternatives."""
    if seed == 0:
        return ((0, 0),) * depth
    import random

    rng = random.Random(seed)
    return tuple((rng.randint(0, 1), rng.randint(0, 1)) for _ in range(depth))


@dataclass(frozen=True)
class HierarchicalArrangement:
    """Finite-depth nested bracket landscape.

    Stage k >= 1 works inside the arithmetic progression c_k + M_k Z with
    M_k = 4^(k-1), places brackets on one of its two half-progressions
    (chosen by the first bit), alternating orientations (phase chosen by the
    second bit).  Of the remaining half, the midpoints interior to a bracket
    pair stay blank forever and the exterior midpoints form the next stage's
    progression.  Lifting by doubling (brackets on even cells, blanks between)
    turns the landscape into automaton symbols with no adjacent brackets.
    Stage-1 and stage-2 pairs lift to exactly the level-0 and level-1 words of
    make_block; pairs of higher stages additionally enclose interleaved blocks
    of all lower stages, which only deepens the nesting the arrow must cross.
    """

    depth: int
    n: int
    choices: tuple
    offsets: tuple = ()

    def __post_init__(self):
        if len(self.choices) != self.depth:
            raise ValueError("need one (phi, psi) choice pair per level")
        c, cs = 0, [0]
        for k, (phi, psi) in enumerate(self.choices):
            c += 4**k * (phi + 1 + 2 * (1 - psi))
            cs.append(c)
        object.__setattr__(self, "offsets", tuple(cs))

    def plain_symbol(self, x: int) -> str | None:
        """'[' or ']' if some stage holds a bracket at integer x, else None."""
        for k in range(self.depth):
            m = 4**k
            q, r = divmod(x - self.offsets[k], m)
            if r:
                continue
            phi, psi = self.choices[k]
            if q % 2 != phi:
                continue
            j = (q - phi) // 2
            return "[" if j % 2 == psi else "]"
        return None

    @property
    def free_cell(self) -> int:
        """A plain coordinate no stage will ever claim (the next stage's
        progression representative)."""
        return self.offsets[self.depth]

    def lifted_symbol(self, i: int) -> str:
        if i % 2:
            return BLANK
        plain = self.plain_symbol(i // 2)
        if plain is None:
            return BLANK
        return open_bracket(self.n) if plain == "[" else close_bracket(self.n)

    def configuration(
        self,
        lo: int,
        hi: int,
        arrow_at: int | None = None,
        facing: int = 1,
    ) -> Padded:
        """Materialize lifted cells lo..hi as a padded configuration,
        optionally dropping an arrow onto a blank cell."""
        word = [self.lifted_symbol(i) for i in range(lo, hi + 1)]
        if arrow_at is not None:
            j = arrow_at - lo
            if not 0 <= j < len(word):
                raise ValueError("arrow outside the materialized window")
            if word[j] != BLANK:
                raise ValueError("arrow must sit on a blank cell")
            word[j] = ARROW_RIGHT if facing > 0 else ARROW_LEFT
        return Padded(level_alphabet(self.n), word, BLANK, lo)


def hierarchical_arrangement(depth: int, n: int, seed: int = 0) -> HierarchicalArrangement:
    return HierarchicalArrangement(depth, n, hierarchical_choices(depth, seed))


# ---------------------------------------------------------------------------
# reversibility


def build_inverse_rule(n: int) -> LocalRule:
    """Cell map undoing one automaton step.

    Assembled from the reversed rewrite patterns; every right-hand side also
    contains exactly one arrow, so the same pinning argument applies.  It is a
    two-sided inverse on configurations where the forward map actually fires.
    On stuck configurations (which the forward map fixes) the pair genuinely
    fails to invert; reversibility of the automaton lives on the reachable
    configurations, and the tests spell out exactly where the boundary is.
    """
    alphabet = level_alphabet(n)
    rev = [(name + "-rev", rhs, lhs) for name, lhs, rhs in transitions(n)]
    return LocalRule(alphabet, 2, _build_table(n, rev, alphabet), "identity")


def admissible_periodic_words(n: int, period: int):
    """Generate every admissible period word of the given length: cyclic
    adjacency respected, at most one arrow per period, and no arrow at all
    below period 5 (shorter periods put repeated arrows in one rule window,
    which admissibility rules out)."""
    alphabet = level_alphabet(n)
    non_arrow = [s for s in alphabet if not is_arrow(s)]
    arrow_ok = period >= 5
    word: list = [None] * period

    def extend(i: int, used_arrow: bool):
        if i == period:
            # wrap-around adjacency; at period 1 a bracket neighbors itself
            if is_bracket(word[-1]) and is_bracket(word[0]):
                return
            yield tuple(word)
            return
        if used_arrow or not arrow_ok:
            choices = non_arrow
        else:
            choices = non_arrow + [ARROW_RIGHT, ARROW_LEFT]
        for s in choices:
            if i > 0 and is_bracket(s) and is_bracket(word[i - 1]):
                continue
            word[i] = s
            yield from extend(i + 1, used_arrow or is_arrow(s))
        word[i] = None

    yield from extend(0, False)


def _min_rotation(word: tuple) -> tuple:
    return min(word[i:] + word[:i] for i in range(len(word)))


def canonical_point(word: tuple) -> tuple:
    """Primitive root of the period word, minimal rotation: a canonical name
    for the shift-periodic point the word describes."""
    p = len(word)
    for d in range(1, p + 1):
        if p % d == 0 and word == word[:d] * (p // d):
            return _min_rotation(word[:d])
    return _min_rotation(word)


@dataclass(frozen=True)
class InjectivityReport:
    n: int
    periods: tuple
    points: int
    collisions: tuple
    stuck_points: int

    @property
    def injective(self) -> bool:
        return not self.collisions

    def collisions_with_only_mobile_members(self) -> list:
        """Collision groups not explained by a stuck member; empty means the
        map is injective away from stuck configurations."""
        bad = []
        for group in self.collisions:
            if not any(stuck for _, stuck in group):
                bad.append(group)
        return bad


def scan_periodic_injectivity(n: int, periods) -> InjectivityReport:
    """Image-collision scan of the cell map over all admissible periodic
    points with period in `periods`.

    Points are canonicalized (primitive root, minimal rotation) so rotations
    and repetitions are counted once.  Each preimage is recorded together
    with a stuck flag (arrow present but no transition fired); the known
    failure mode of injectivity on the full admissible set is a mobile
    configuration mapping onto a stuck fixed point.
    """
    system = build_rule(n)
    images: dict = {}
    points = 0
    stuck_points = 0
    seen = set()
    for p in sorted(periods):
        for w in admissible_periodic_words(n, p):
            if canonical_point(w) != w or w in seen:
                continue
            seen.add(w)
            points += 1
            x = Periodic(system.alphabet, w)
            y = apply_rule(system.rule, x)
            has_arrow = any(is_arrow(s) for s in w)
            stuck = has_arrow and y.word == w
            if stuck:
                stuck_points += 1
            images.setdefault(canonical_point(y.word), []).append((w, stuck))
    collisions = tuple(
        tuple(group) for group in images.values() if len(group) > 1
    )
    return InjectivityReport(n, tuple(sorted(periods)), points, collisions, stuck_points)


# ---------------------------------------------------------------------------
# perturbation fronts


def perturbation_front(cfg: Padded, n: int, t_max: int):
    """Historical left/right extent of the difference between the orbit of
    ``cfg`` (one arrow) and the fixed point obtained by deleting its arrow.

    Only cells the arrow touches can ever differ from the arrowless
    background.  A single tick moves the fronts in O(1); a node crossing
    (see `_NodeTable`) moves only the front on its exit side, which is
    replayed from the node's front block, O(1) per step with no per-step
    Python code.  Returns two lists indexed by time: right[t] / left[t] are
    the extreme coordinates that have differed at any time <= t.
    """
    walk = walk_from_configuration(cfg, n)
    table = _NodeTable(n, walk.brackets)
    brackets, base = walk.brackets, dict(walk.brackets)
    right = [walk.pos]
    left = [walk.pos]
    hi = lo = walk.pos
    for cell, shape in _macro_steps(walk, table, t_max):
        if shape is None:
            pos = walk.pos
            if brackets.get(cell) != base.get(cell):
                hi, lo = max(hi, cell), min(lo, cell)
            if pos > hi:
                hi = pos
            elif pos < lo:
                lo = pos
            right.append(hi)
            left.append(lo)
        # a jump over the node opening at `cell`: its front block is
        # monotone, so it takes over from hi (or lo) at its first entry
        # beyond it, and the front on the other side stays put
        elif walk.facing > 0:
            f = table.front(shape, 1)
            k = bisect_right(f, hi - cell)
            right += [hi] * k
            right += map(cell.__add__, f[k:])
            left += [lo] * len(f)
            hi = max(hi, cell + f[-1])
        else:
            f = table.front(shape, -1)
            k = bisect_right(f, cell - lo, key=operator.neg)
            left += [lo] * k
            left += map(cell.__add__, f[k:])
            right += [hi] * len(f)
            lo = min(lo, cell + f[-1])
    remaining = t_max + 1 - len(right)
    right += [hi] * remaining
    left += [lo] * remaining
    return right, left


# ---------------------------------------------------------------------------
# rendering


def ascii_legend(n: int) -> dict[str, str]:
    """One display character per symbol.

    Blank and arrows render as themselves, resting brackets (unmarked,
    counter n) as plain square brackets, and every other symbol gets a letter
    or digit from a fixed pool in alphabet order.  Lossless for n <= 15;
    raises ValueError above.
    """
    import string

    legend = {
        BLANK: "-",
        ARROW_RIGHT: ">",
        ARROW_LEFT: "<",
        open_bracket(n): "[",
        close_bracket(n): "]",
    }
    pool = string.ascii_uppercase + string.ascii_lowercase + string.digits
    rest = [sym for sym in level_alphabet(n) if sym not in legend]
    if len(rest) > len(pool):
        raise ValueError(f"the text legend has glyphs for n <= 15 only, not n = {n}")
    legend.update(zip(rest, pool))
    return legend


def render_text(rows, lo: int, hi: int, legend: dict | None = None) -> str:
    """One line per configuration, one legend character per cell."""
    out = []
    for cfg in rows:
        if legend is None:
            line = "".join(str(cfg[i])[0] for i in range(lo, hi + 1))
        else:
            line = "".join(legend[cfg[i]] for i in range(lo, hi + 1))
        out.append(line)
    return "\n".join(out) + "\n"


def render_pgm(rows, lo: int, hi: int, alphabet: Alphabet) -> str:
    """Plain (ASCII) PGM space-time diagram, one image row per time step
    starting at t = 0, pixel value = alphabet index of the symbol."""
    width = hi - lo + 1
    height = len(rows)
    maxval = max(1, len(alphabet) - 1)
    lines = [f"P2\n{width} {height}\n{maxval}"]
    for cfg in rows:
        lines.append(" ".join(str(alphabet.index(cfg[i])) for i in range(lo, hi + 1)))
    return "\n".join(lines) + "\n"
