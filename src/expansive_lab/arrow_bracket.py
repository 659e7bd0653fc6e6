"""The bracket-and-arrow automaton.

A single arrow walks over a landscape of bracket pairs.  Brackets carry
counters up to a bound n; an arrow entering a bracket pair is forced back and
forth between the two brackets while the counters run down, so nested bracket
blocks slow the arrow exponentially with nesting depth.  That is the engine
behind the sublinear information propagation measured elsewhere in this
package: Λ⁺(t) ≍ t^α, with α = log 4 / log(4n+2) on hierarchical landscapes
and α = log 2 / log(4n+2) on blocks.

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

import functools
import itertools
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter

from .dynamics_analysis import Front
from .shift_core import (
    Alphabet,
    Configuration,
    LocalRule,
    Padded,
    Periodic,
    apply_rule,
    iterate,
    min_rotation,
)

BLANK = "-"
ARROW_RIGHT = ">"
ARROW_LEFT = "<"
_ARROWS = (ARROW_RIGHT, ARROW_LEFT)


class ConflictingTransitions(ValueError):
    """Two transition instances prescribe different values for one cell."""


class Timeout(RuntimeError):
    """An orbit search exceeded its step budget."""

    def __init__(self, limit: int):
        self.limit = limit
        super().__init__(f"no crossing within {limit} steps")


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


def _adjacent_brackets(word, brackets: frozenset) -> bool:
    """Whether two cells in a row hold symbols of the bracket set `brackets`."""
    prev = False
    for s in word:
        cur = s in brackets
        if cur and prev:
            return True
        prev = cur
    return False


@dataclass(frozen=True)
class ABSystem:
    """A counter bound together with its derived range-2 cell map."""

    n: int
    alphabet: Alphabet
    rule: LocalRule


def _build_table(rewrite_pairs, alphabet: Alphabet) -> dict:
    """Range-2 window table from 2/3-cell patterns placed at every offset
    covering the window center.  Windows that an admissible configuration can
    never exhibit (adjacent brackets, second arrow) are left to the identity
    default.  Raises ConflictingTransitions on inconsistent prescriptions."""
    non_arrow = [s for s in alphabet if not is_arrow(s)]
    brackets = frozenset(filter(is_bracket, alphabet))
    table: dict = {}
    origin: dict = {}
    for name, lhs, rhs in rewrite_pairs:
        length = len(lhs)
        # offsets at which the pattern covers the center of a 5-window
        for o in range(max(0, 3 - length), min(2, 5 - length) + 1):
            fill_at = [i for i in range(5) if not o <= i < o + length]
            for fill in itertools.product(non_arrow, repeat=len(fill_at)):
                w: list = [None] * 5
                w[o : o + length] = lhs
                for i, s in zip(fill_at, fill):
                    w[i] = s
                window = tuple(w)
                if _adjacent_brackets(window, brackets):
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


@functools.lru_cache(maxsize=4)
def build_rule(n: int) -> ABSystem:
    """Assemble the automaton at counter bound n.

    The returned system's rule is a partial range-2 table with identity
    default; quiescence of the blank and conflict-freeness are structural
    (and re-checked exhaustively by `conflict_report`).  Raises ValueError
    for n above `MAX_COUNTER_BOUND` before building anything, on every call.
    The systems of the last four bounds are cached and shared: the system
    is frozen, and mutating its rule's table is unsupported.
    """
    if n > MAX_COUNTER_BOUND:
        raise ValueError(
            f"counter bound {n} is above the limit {MAX_COUNTER_BOUND} "
            f"(the window table grows like (4n+5)^4)"
        )
    alphabet = level_alphabet(n)
    table = _build_table(transitions(n), alphabet)
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
    outside the nodes they can jump; `arrow_trace` adds one C-level sum
    per step replayed from the node's move block.  Their walker holds
    only the brackets of the cells the arrow has neared, and they find
    nodes only where it faces one (see `_macro_steps`); what is left of
    their set-up over the whole word is counting its arrows in C.
    """

    n: int
    brackets: dict[int, str]
    pos: int
    facing: int
    stuck: bool = False
    steps: int = 0
    _face: dict = field(init=False, repr=False)

    def __post_init__(self):
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


@functools.cache
def _face_maps(n: int) -> dict[int, dict[str, tuple[str, str]]]:
    """Per-direction dispatch: faced bracket symbol -> (new symbol, action).

    Extracted from the same transition list the cell map is built from, so
    the sparse walker cannot drift from the rule table.  Built once per
    bound and shared by every walker at that bound, which only reads it.
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
    """Sparse walker for a padded configuration with exactly one arrow,
    holding every bracket of its word; raises as `_walk_and_table`."""
    walk, table = _walk_and_table(cfg, n)
    table.copy_brackets(walk.brackets, cfg.anchor, cfg.anchor + len(cfg.word) - 1)
    return walk


def walk_to_configuration(walk: ArrowWalk, alphabet: Alphabet) -> Padded:
    """The configuration `walk` stands for."""
    cells = walk.brackets.keys() | {walk.pos}
    lo, hi = min(cells), max(cells)
    arrow = ARROW_RIGHT if walk.facing > 0 else ARROW_LEFT
    word = (arrow if i == walk.pos else walk.brackets.get(i, BLANK)
            for i in range(lo, hi + 1))
    return Padded(alphabet, word, BLANK, lo)


def _walk_and_table(cfg: Padded, n: int):
    """A walker at the one arrow of `cfg`, holding no brackets yet, and the
    node table of its word, for `_macro_steps`.  Raises ValueError unless
    the padding is blank and the word has exactly one arrow, counted in C."""
    if cfg.pad != BLANK:
        raise ValueError("walker expects blank padding")
    word = cfg.word
    right = word.count(ARROW_RIGHT)
    count = right + word.count(ARROW_LEFT)
    if count != 1:
        raise ValueError(f"expected exactly one arrow, found {count}")
    pos = cfg.anchor + word.index(ARROW_RIGHT if right else ARROW_LEFT)
    return ArrowWalk(n, {}, pos, 1 if right else -1), _NodeTable(n, word, cfg.anchor)


# ---------------------------------------------------------------------------
# macro-stepping over resting bracket nodes


class _NodeTable:
    """The resting bracket nodes of one configuration and the cost of
    crossing each, after HashLife (Gosper, Physica D 10, 1984).

    A node is a matched pair of resting brackets `[n` ... `]n` whose
    interior holds only nodes, with no two brackets adjacent.  An arrow
    facing a node's outer bracket, with no bracket beyond the far one,
    crosses it without reading anything else and leaves it restored: it
    enters, traverses the interior 2n+1 times with a bounce between
    traversals and leaves by the far bracket.  That takes
    S = (2n+1)R + 2n+2 steps, where R (blank cells walked plus the S of
    every child) is one traversal; for make_block this is `crossing_steps`.

    Nodes are found on demand (`node`), read from the configuration's
    word as it was before the walk, the arrow's cell read as blank.
    Nodes are numbered by shape, (width, ((child offset, child shape),
    ...)).  What a crossing of a shape does, relative to its open bracket,
    is built from its children's on first use: the arrow's move at each
    step (`moves`, one byte a step, joined from the children's blocks in
    C), and the moves of the running front on the side the arrow travels
    to (the farthest cell that the arrow or a changed bracket has
    reached).
    """

    def __init__(self, n: int, word: tuple, anchor: int):
        self.n = n
        self.word = word  # cell x holds word[x - anchor]; blank beyond
        self.anchor = anchor
        self.opens: dict = {}  # open cell -> (close cell, shape)
        self.closes: dict = {}  # close cell -> (open cell, shape)
        self.refused: dict = {}  # outer cell -> a budget its node's S exceeds
        self._resting = (open_bracket(n), close_bracket(n))
        self.steps: list = []  # shape -> S
        self._keys: list = []  # shape -> (width, children)
        self._shapes: dict = {}
        self._blocks: dict = {}

    def original(self, x: int) -> str:
        """The symbol of cell x before the walk, the arrow's read as blank."""
        j = x - self.anchor
        s = self.word[j] if 0 <= j < len(self.word) else BLANK
        return BLANK if s in _ARROWS else s

    def copy_brackets(self, brackets: dict, lo: int, hi: int) -> None:
        """Put the brackets of cells lo..hi, as they were before the walk,
        into `brackets`."""
        a, b = max(lo - self.anchor, 0), max(hi - self.anchor + 1, 0)
        brackets.update(
            (x, s)
            for x, s in enumerate(self.word[a:b], self.anchor + a)
            if s != BLANK and s not in _ARROWS
        )

    def node(self, x: int, facing: int, budget: int):
        """(far cell, shape) of the node whose outer bracket, for an arrow
        facing `facing`, is cell x, if there is one and its S is at most
        `budget`; else None.

        Cost: the cells of the node read so far.  The word is read from x
        on, each child matched in turn, until the far bracket or until the
        S of what has been read already exceeds the budget; each child is
        given what is left of it.  Every verdict is kept: a node, a cell
        that is no node's outer bracket (budget infinite) or the budget
        its node was seen to exceed, so a later call with no larger budget,
        as in a walk whose steps left only shrink, reads nothing again.
        """
        found = (self.opens if facing > 0 else self.closes).get(x)
        if found is not None:
            return found if self.steps[found[1]] <= budget else None
        if self.refused.get(x, -1) >= budget:
            return None
        word, size, anchor, n = self.word, len(self.word), self.anchor, self.n
        near, far = self._resting if facing > 0 else self._resting[::-1]
        j = x - anchor
        if not 0 <= j < size or word[j] != near:
            return None
        limit = (budget - 2 * n - 2) // (2 * n + 1)  # the largest R whose S fits
        # r: the steps of one traversal of what is read so far, from the
        # first interior cell: one per blank and S per child, less one
        r, children, after_bracket = -1, [], True
        verdict = budget
        while r <= limit:
            j += facing
            s = word[j] if 0 <= j < size else None
            if s == BLANK or s in _ARROWS:
                r += 1
                after_bracket = False
            elif after_bracket or (s != near and s != far):
                verdict = math.inf  # adjacent, not resting or never closed
                break
            elif s == far:
                return self._found(x, j + anchor, children)
            else:
                child = self.node(j + anchor, facing, limit - r)
                if child is None:
                    if self.refused.get(j + anchor) == math.inf:
                        verdict = math.inf
                    break
                other, shape = child
                children.append((min(j + anchor, other), shape))
                r += self.steps[shape] - 1
                j = other - anchor
                after_bracket = True
        self.refused[x] = verdict
        return None

    def _found(self, near: int, far: int, children: list):
        """Record the node with outer cells `near` and `far`, whose
        children, (open cell, shape), were read from near to far; return
        (far, shape)."""
        a, b = (near, far) if near < far else (far, near)
        if near > far:
            children.reverse()
        shape = self._shape(b - a, tuple((c - a, s) for c, s in children))
        self.opens[a] = (b, shape)
        self.closes[b] = (a, shape)
        return far, shape

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

    def _traversal(self, shape: int, facing: int) -> array:
        """Arrow moves over one interior traversal, from the cell after the
        entered bracket to the cell before the far one: one tick per blank
        stepped onto and each child's crossing moves, joined in C."""
        width, children = self._keys[shape]
        tick, out = array("b", (facing,)), array("b")
        # the arrow's cell as the traversal starts, and the far bracket's
        cur, far = (1, width) if facing > 0 else (width - 1, 0)
        for off, s in children if facing > 0 else reversed(children):
            w = self._keys[s][0]
            near = off if facing > 0 else off + w
            out += tick * ((near - cur) * facing - 1)
            out += self.moves(s, facing)
            cur = near + (w + 1) * facing  # the cell after the child's far bracket
        return out + tick * ((far - cur) * facing - 1)

    def moves(self, shape: int, facing: int) -> array:
        """The arrow's move at each step of a crossing, -2..2, from the
        cell before the outer bracket: 2·facing to enter and to leave, 0 at
        each bounce, ±1 per blank.  Moves do not depend on where the node
        lies, so a parent block is its children's joined by array
        concatenation, one byte a step."""
        key = ("moves", shape, facing)
        blk = self._blocks.get(key)
        if blk is None:
            enter, turn = array("b", (2 * facing,)), array("b", (0,))
            there = self._traversal(shape, facing)
            back = self._traversal(shape, -facing)
            blk = enter + (there + turn + back + turn) * self.n + there + enter
            self._blocks[key] = blk
        return blk

    def front(self, shape: int, facing: int) -> list:
        """Moves of the running front on the exit side during a crossing:
        (step, cell) whenever it moves, the cells increasing going right
        and decreasing going left.  It takes each cell of the first
        traversal in turn, reaches the far bracket at the first bounce and
        stays there until the arrow leaves, at step S."""
        key = ("front", shape, facing)
        moves = self._blocks.get(key)
        if moves is None:
            w, children = self._keys[shape]
            far = w if facing > 0 else 0
            cur = 1 if facing > 0 else w - 1  # the arrow after step 1
            t, moves = 1, [(1, cur)]
            for off, s in children if facing > 0 else reversed(children):
                blanks = range(cur + facing, off if facing > 0 else off + self._keys[s][0], facing)
                moves += zip(range(t + 1, t + 1 + len(blanks)), blanks)
                t += len(blanks)
                moves += ((t + k, off + x) for k, x in self.front(s, facing))
                t += self.steps[s]
                cur = moves[-1][1]
            blanks = range(cur + facing, far, facing)
            moves += zip(range(t + 1, t + 1 + len(blanks)), blanks)
            moves += [(t + len(blanks) + 1, far), (self.steps[shape], far + facing)]
            self._blocks[key] = moves
        return moves


def _macro_steps(walk: ArrowWalk, table: _NodeTable, t_max: int):
    """Advance `walk` by up to t_max steps, jumping whole nodes of `table`.

    Yields (faced cell, None) after each single tick and (open cell,
    shape) after each jump, in the direction the walk faces.  A node is
    jumped when the arrow faces its outer bracket, no bracket lies beyond
    the far one (the walker's stuck check reads that cell at every
    bounce), none of its brackets differs from the table's word, and its
    S fits in the steps left; the walk then ends exactly as S calls of
    `walk.step` would leave it.  Stops early if the arrow gets stuck.

    The walk starts with no brackets: they are copied from the table's
    word over a span of cells that grows, by at least its own width, when
    the arrow comes within two cells of either end or jumps past it.  So
    the cost is that of the cells the arrow reaches, not of the word.
    """
    brackets = walk.brackets
    changed: set = set()  # cells whose bracket differs from the table's word
    end = walk.steps + t_max
    lo = hi = walk.pos  # `brackets` holds the brackets of cells lo..hi

    def cover(x):
        nonlocal lo, hi
        grow = max(hi - lo, 16)
        if x - 2 < lo:
            lo, old = min(x - 2, lo - grow), lo
            table.copy_brackets(brackets, lo, old - 1)
        if x + 2 > hi:
            hi, old = max(x + 2, hi + grow), hi
            table.copy_brackets(brackets, old + 1, hi)

    while walk.steps < end:
        if not lo + 2 <= walk.pos <= hi - 2:
            cover(walk.pos)
        ahead = walk.pos + walk.facing
        if ahead in brackets:
            node = table.node(ahead, walk.facing, end - walk.steps)
            if node is not None:
                other, shape = node
                a, b = (ahead, other) if walk.facing > 0 else (other, ahead)
                cover(other)
                if other + walk.facing not in brackets and not (
                    changed and any(a <= c <= b for c in changed)
                ):
                    walk.pos = other + walk.facing
                    walk.steps += table.steps[shape]
                    yield a, shape
                    continue
            if not walk.step():
                return
            if brackets[ahead] == table.original(ahead):
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


def check_block(k: int, n: int, max_steps: int | None = None) -> None:
    """Raise ValueError, before anything is built, as `run_crossing(k, n,
    max_steps)` would: a negative budget, then n < 1, then a level above
    `MAX_BLOCK_LEVEL` or below 0.  `make_block` checks the same, without
    a budget."""
    if max_steps is not None and max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    if n < 1:
        raise ValueError("counter bound n must be >= 1")
    if k > MAX_BLOCK_LEVEL:
        raise ValueError(
            f"block level {k} is above the limit {MAX_BLOCK_LEVEL} "
            f"(a level-k block has 12*2^k - 7 cells)"
        )
    if k < 0:
        raise ValueError("level must be >= 0")


def make_block(k: int, n: int) -> BlockSpec:
    """Blow a pre-block up into automaton symbols.

    One blank goes between every adjacent pre-block symbol pair (brackets are
    never allowed to touch) and all brackets start unmarked at counter n.
    Raises ValueError as `check_block`.
    """
    check_block(k, n)
    pre = make_preblock(k)
    spaced = "-".join(pre)
    lut = {"[": open_bracket(n), "]": close_bracket(n), "-": BLANK}
    word = tuple(map(lut.__getitem__, spaced))
    assert len(word) == 12 * 2**k - 7
    return BlockSpec(k, n, word)


@dataclass(frozen=True)
class CrossingReport:
    level: int
    n: int
    steps: int
    restored: bool


def crossing_steps(k: int, n: int) -> int:
    """The node S of block(k, n) (see `_NodeTable`), in closed form: the
    solution of a_0 = 6n+4, a_(k+1) = (4n+2) a_k + 6n+4."""
    return (6 * n + 4) * sum((4 * n + 2) ** j for j in range(k + 1))


def run_crossing(k: int, n: int, max_steps: int | None = None) -> CrossingReport:
    """Send the arrow through block(k, n) and count the steps.

    The right crossing starts from arrow·block (arrow immediately left of the
    block, facing it) and ends the first time the configuration is exactly
    block·arrow with the block restored; the left crossing is the mirror.
    The block is one resting node, so that time is its node S (see
    `_NodeTable`), the same both ways.  The default budget is
    `crossing_steps(k, n)`, which S meets exactly.  Raises Timeout if S
    exceeds the budget, and ValueError as `check_block`.  Cost: the cells
    the node match reads, the whole block when S fits and a few cells per
    level when the budget is small.
    """
    check_block(k, n, max_steps)
    budget = crossing_steps(k, n) if max_steps is None else max_steps
    table = _NodeTable(n, make_block(k, n).word, 0)
    node = table.node(0, 1, budget)
    if node is None:
        raise Timeout(budget)
    return CrossingReport(k, n, table.steps[node[1]], True)


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


def enumerate_L(k: int, n: int) -> CrossingLanguage:
    """Every configuration the crossing orbit passes through, in both
    directions, trimmed to the non-blank extent: the first S + 1 rows of
    the cell map's orbits of arrow·block and block·arrow, S the block's
    crossing time `crossing_steps(k, n)`."""
    word = make_block(k, n).word
    system = build_rule(n)
    rows = crossing_steps(k, n) + 1
    right, left = (
        tuple(cfg.word for cfg in itertools.islice(iterate(system.rule, start), rows))
        for start in (Padded(system.alphabet, (ARROW_RIGHT,) + word, BLANK),
                      Padded(system.alphabet, word + (ARROW_LEFT,), BLANK))
    )
    return CrossingLanguage(k, n, right, left)


# ---------------------------------------------------------------------------
# traces and admissibility


@dataclass(frozen=True)
class ArrowTrace:
    positions: list = field(default_factory=list)  # arrow position at t = 0, 1, ...
    no_arrow: bool = False
    stuck_at: int | None = None

    @property
    def pairs(self) -> tuple:
        return tuple(enumerate(self.positions))


def arrow_trace(cfg: Configuration, system: ABSystem, t_max: int) -> ArrowTrace:
    """(t, arrow position) for 0 <= t <= t_max.

    Arrowless configurations are fixed points; they yield an empty trace with
    the no_arrow flag set.  If the arrow gets stuck the trace is truncated at
    that time and stuck_at records it (the configuration no longer changes).
    Node crossings are replayed from their move blocks (see
    `_NodeTable.moves`), summed from the arrow's cell by
    `itertools.accumulate`.  Cost: one C-level add per position, plus the
    cells the arrow reaches (see `_macro_steps`); the arrows are counted
    in C.
    """
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    if not isinstance(cfg, (Padded, Periodic)):
        raise TypeError("unsupported configuration type")
    if ARROW_RIGHT not in cfg.word and ARROW_LEFT not in cfg.word:
        return ArrowTrace(no_arrow=True)
    if not isinstance(cfg, Padded):
        raise ValueError("arrow_trace needs a padded configuration with one arrow")
    walk, table = _walk_and_table(cfg, system.n)
    path = [walk.pos]
    for cell, shape in _macro_steps(walk, table, t_max):
        if shape is None:
            path.append(walk.pos)
        else:
            # the jump's moves summed from the arrow's cell, which is popped
            # because accumulate yields its initial value first
            path += itertools.accumulate(table.moves(shape, walk.facing), initial=path.pop())
    return ArrowTrace(path, stuck_at=walk.steps if walk.stuck else None)


def admissible(cfg: Configuration, n: int) -> bool:
    """At most one arrow, no two adjacent brackets, counters within range,
    marked counters strictly below n.  Periodic configurations are judged on
    one period (with the wrap-around adjacency included); an arrow in the
    period word repeats every period, so the period must be at least 5 for
    every rule window to see a single arrow."""
    if not isinstance(cfg, (Padded, Periodic)):
        raise TypeError("unsupported configuration type")
    word = cfg.word
    arrows = sum(map(is_arrow, word))
    if arrows > 1 or isinstance(cfg, Padded) and cfg.pad != BLANK:
        return False
    if isinstance(cfg, Periodic):
        if arrows and len(word) < 5:
            return False
        word += word[:1]  # the wrap-around pair; at period 1 a bracket meets itself
    alphabet = level_alphabet(n)
    brackets = frozenset(filter(is_bracket, alphabet))
    return all(s in alphabet for s in word) and not _adjacent_brackets(word, brackets)


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
    offsets: tuple = field(init=False)  # c_1, ..., c_(depth+1), from the choices
    # (first lifted cell, period, symbol) of each stage's opens and closes,
    # shallowest stage first; the stages claim disjoint cells
    progressions: tuple = field(init=False)

    def __post_init__(self):
        if len(self.choices) != self.depth:
            raise ValueError("need one (phi, psi) choice pair per level")
        opn, cls = open_bracket(self.n), close_bracket(self.n)
        c, cs, progs = 0, [0], []
        for k, (phi, psi) in enumerate(self.choices):
            # stage k+1 puts brackets on plain cells c + 4^k (2j + phi),
            # opening where j = psi mod 2: each kind repeats every 4^(k+1)
            # plain cells, every 8*4^k lifted ones
            m = 4**k
            progs += ((2 * (c + m * (phi + 2 * j)) % (8 * m), 8 * m, sym)
                      for j, sym in ((psi, opn), (1 - psi, cls)))
            c += m * (phi + 1 + 2 * (1 - psi))
            cs.append(c)
        object.__setattr__(self, "offsets", tuple(cs))
        object.__setattr__(self, "progressions", tuple(progs))

    @property
    def free_cell(self) -> int:
        """A plain coordinate no stage will ever claim (the next stage's
        progression representative)."""
        return self.offsets[self.depth]

    def lifted_symbol(self, i: int) -> str:
        if i % 2:  # every progression's first cell and period are even
            return BLANK
        for first, period, sym in self.progressions:
            if (i - first) % period == 0:
                return sym
        return BLANK

    def configuration(
        self,
        lo: int,
        hi: int,
        arrow_at: int | None = None,
        facing: int = 1,
    ) -> Padded:
        """Materialize lifted cells lo..hi as a padded configuration,
        optionally dropping an arrow onto a blank cell.  Cost: one slice
        assignment per progression."""
        size = hi - lo + 1
        word = [BLANK] * size
        for first, period, sym in self.progressions:
            a = (first - lo) % period
            word[a::period] = [sym] * len(range(a, size, period))
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
    return LocalRule(alphabet, 2, _build_table(rev, alphabet), "identity")


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


def periodic_points(n: int, period: int):
    """Generate each admissible point of least period `period` once, as its
    canonical word (`canonical_point`), in increasing order.

    A canonical word of least period p is a Lyndon word of length p in
    `min_rotation`'s order, which compares symbols as strings.  The
    recursive Fredricksen-Kessler-Maiorana scheme (Ruskey, Savage & Wang,
    "Generating necklaces", J. Algorithms 13 (1992)) extends prenecklaces,
    tracking the length of their longest Lyndon prefix, and keeps the
    words where that is the whole word.  Admissibility is rotation
    invariant and, but for the wrap pair, prefix closed, so a prefix with
    two adjacent brackets or a second arrow is pruned, and the wrap pair is
    checked once on each full word."""
    syms = sorted(s for s in level_alphabet(n) if period >= 5 or not is_arrow(s))
    bracket = [is_bracket(s) for s in syms]
    arrow = [is_arrow(s) for s in syms]
    word = [0] * period

    def extend(t: int, p: int, used_arrow: bool):
        if t == period:
            if p == period and not (bracket[word[-1]] and bracket[word[0]]):
                yield tuple(map(syms.__getitem__, word))
            return
        after_bracket, a = bracket[word[t - 1]], word[t - p]
        for j in range(a, len(syms)):
            if after_bracket and bracket[j] or used_arrow and arrow[j]:
                continue
            word[t] = j
            yield from extend(t + 1, p if j == a else t + 1, used_arrow or arrow[j])

    for j in range(len(syms)):
        word[0] = j
        yield from extend(1, 1, arrow[j])


def canonical_point(word: tuple) -> tuple:
    """Primitive root of the period word, minimal rotation: a canonical name
    for the shift-periodic point the word describes."""
    p = len(word)
    for d in range(1, p + 1):
        if p % d == 0 and word == word[:d] * (p // d):
            return min_rotation(word[:d])
    return min_rotation(word)


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
        return [g for g in self.collisions if not any(stuck for _, stuck in g)]


def scan_periodic_injectivity(n: int, periods) -> InjectivityReport:
    """Image-collision scan of the cell map over all admissible periodic
    points with period in `periods`.

    Points are canonicalized (primitive root, minimal rotation) so rotations
    and repetitions are counted once.  Each preimage is recorded together
    with a stuck flag (arrow present but no transition fired); the known
    failure mode of injectivity on the full admissible set is a mobile
    configuration mapping onto a stuck fixed point.  Arrowless points are
    counted but not recorded: every window of the rule's table holds one
    arrow, so they are fixed, and the rule conserves arrows, so nothing else
    maps onto one.

    Cost: one pass over the points (`periodic_points`), not over the
    admissible words, and one rule application per point with an arrow.
    """
    system = build_rule(n)
    images: dict = {}
    points = 0
    stuck_points = 0
    for p in sorted(set(periods)):
        for w in periodic_points(n, p):
            points += 1
            if ARROW_RIGHT not in w and ARROW_LEFT not in w:
                continue
            y = apply_rule(system.rule, Periodic(system.alphabet, w))
            stuck = y.word == w
            stuck_points += stuck
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
    background.  Returns two `Front`s of length t_max + 1: right[t] /
    left[t] are the extreme coordinates that have differed at any time
    <= t.

    Cost: a single tick moves the fronts in O(1), and a node crossing (see
    `_NodeTable`) moves only the front on its exit side, taken from the
    node's front moves by one bisection.  Each front holds one breakpoint
    per move, O(Lambda) in all, not one entry per step.  Past counting
    its arrows in C, nothing is read of the configuration but the cells
    the arrow reaches and the nodes it faces (see `_macro_steps`).
    """
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    walk, table = _walk_and_table(cfg, n)
    hi = lo = walk.pos
    right, left = [(0, hi, 0)], [(0, lo, 0)]
    for cell, shape in _macro_steps(walk, table, t_max):
        if shape is None:
            # the arrow and the faced cell: every transition rewrites the
            # faced bracket to another symbol, so it differs from the
            # background now or did at an earlier tick
            pos = walk.pos
            top, bottom = (cell, pos) if cell > pos else (pos, cell)
            # a tick moves the arrow and its faced cell one way only
            if top > hi:
                hi = top
                right.append((walk.steps, hi, 0))
            elif bottom < lo:
                lo = bottom
                left.append((walk.steps, lo, 0))
            continue
        # a jump over the node opening at `cell`: its front moves take over
        # from hi (or lo) at the first one beyond it, and the front on the
        # other side stays put
        t = walk.steps - table.steps[shape]
        moves = table.front(shape, walk.facing)
        if walk.facing > 0:
            k = bisect_right(moves, hi - cell, key=itemgetter(1))
            right += [(t + s, cell + x, 0) for s, x in moves[k:]]
            hi = max(hi, cell + moves[-1][1])
        else:
            k = bisect_right(moves, cell - lo, key=lambda m: -m[1])
            left += [(t + s, cell + x, 0) for s, x in moves[k:]]
            lo = min(lo, cell + moves[-1][1])
    return Front(t_max + 1, right), Front(t_max + 1, left)


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


def diagram_lines(rows, lo: int, hi: int, glyphs: dict, sep: str):
    """Yield one line per configuration of `rows`, newline included: the
    glyphs of its cells lo..hi, joined by sep.  Cost: one table lookup per
    cell; it holds one row at a time, so `rows` may be a lazy orbit."""
    glyph = glyphs.__getitem__
    for cfg in rows:
        yield sep.join(map(glyph, cfg.window(lo, hi))) + "\n"


def pgm_lines(rows, lo: int, hi: int, height: int, alphabet: Alphabet):
    """Yield a plain (ASCII) PGM space-time diagram of the `height`
    configurations of `rows`: the header, then one image row per time step
    starting at t = 0, pixel value = alphabet index of the symbol.  Cost:
    that of `diagram_lines`."""
    yield f"P2\n{hi - lo + 1} {height}\n{max(1, len(alphabet) - 1)}\n"
    yield from diagram_lines(rows, lo, hi, {s: str(i) for i, s in enumerate(alphabet)}, " ")
