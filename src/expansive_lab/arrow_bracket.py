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
from bisect import bisect_right
from typing import ClassVar

from .dynamics_analysis import Front
from .shift_core import (
    Alphabet,
    Configuration,
    LocalRule,
    Padded,
    Periodic,
    Record,
    apply_rule,
    field,
    iterate,
    min_rotation,
    necklaces,
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


class ABSystem(Record):
    """A counter bound together with its derived range-2 cell map."""

    n: int
    rule: LocalRule

    @property
    def alphabet(self) -> Alphabet:
        return self.rule.alphabet


def _build_table(rewrite_pairs, alphabet: Alphabet) -> dict:
    """Range-2 window table from 2/3-cell patterns placed at every offset
    covering the window center.  Windows that an admissible configuration can
    never exhibit (adjacent brackets, second arrow) are left to the identity
    default.  Raises ConflictingTransitions on inconsistent prescriptions.

    Cost: only the admissible windows are visited.  Each placement grows
    its windows one cell at a time, left to right, its pattern's cells
    fixed and every other cell a non-arrow symbol in alphabet order, and
    drops a prefix whose last two cells are brackets; so the windows come
    in the order of an exhaustive fill, and the work is about the table's
    size (6,268 entries at n = 3, 301,516 at n = 15)."""
    non_arrow = [s for s in alphabet if not is_arrow(s)]
    brackets = frozenset(filter(is_bracket, alphabet))

    def placements():  # each pattern at each offset covering the center
        for name, lhs, rhs in rewrite_pairs:
            for o in range(max(0, 3 - len(lhs)), min(2, 5 - len(lhs)) + 1):
                yield name, lhs, rhs, o

    def windows(lhs, o):
        grown = [()]
        for i in range(5):
            cells = (lhs[i - o],) if o <= i < o + len(lhs) else non_arrow
            grown = [w + (s,) for w in grown for s in cells
                     if not (s in brackets and w and w[-1] in brackets)]
        return grown

    table: dict = {}
    for name, lhs, rhs, o in placements():
        out = rhs[2 - o]
        for window in windows(lhs, o):
            prev = table.setdefault(window, out)
            if prev != out:
                first = next(m for m, l, _, p in placements() if window in windows(l, p))
                raise ConflictingTransitions(
                    f"window {window} gets {prev!r} from {first} "
                    f"but {out!r} from {name}"
                )
    return table


# size budget of build_rule and build_inverse_rule, whose table sizes the
# refusal states; 15 is also the largest bound `ascii_legend` has glyphs for
MAX_COUNTER_BOUND = 15


def _check_bound(n: int) -> None:
    if n > MAX_COUNTER_BOUND:
        raise ValueError(
            f"counter bound {n} is above the limit {MAX_COUNTER_BOUND} (the window table holds "
            f"964, 2,880, 6,268, 58,728 and 301,516 entries at n = 1, 2, 3, 8 and 15)"
        )


@functools.lru_cache(maxsize=4)
def build_rule(n: int) -> ABSystem:
    """Assemble the automaton at counter bound n.

    The returned system's rule is a partial range-2 table with identity
    default; quiescence of the blank and conflict-freeness are structural
    (and re-checked exhaustively by the tests).  Raises ValueError
    for n above `MAX_COUNTER_BOUND` before building anything, on every call.
    The systems of the last four bounds are cached and shared: the system
    is frozen, and mutating its rule's table is unsupported.

    Cost: `_build_table` visits only the table's own windows, each once,
    and `LocalRule` checks them in one pass: per uncached bound, about 7 ms
    at n = 3 and 0.4 s at n = 15 on a 2-core x86 box.
    """
    _check_bound(n)
    alphabet = level_alphabet(n)
    table = _build_table(transitions(n), alphabet)
    return ABSystem(n, LocalRule(alphabet, 2, table, "identity"))


# ---------------------------------------------------------------------------
# sparse one-arrow simulation


class ArrowWalk(Record, frozen=False):
    """Mutable sparse automaton state: bracket cells plus one arrow.

    Blank cells are implicit.  Equivalent to applying the full cell map (the
    equivalence is exercised in the test suite); `step` advances one tick in
    O(1) and is the oracle of the macro-stepping in `arrow_trace`,
    `perturbation_front` and `run_crossing`, which cross a whole resting
    bracket node in one jump (see `_NodeTable`) and so pay per tick only
    outside the nodes they can jump; `arrow_trace` adds one pointer per
    step, copied in C from the crossing's cells (`_NodeTable.cross`).
    Their walker holds only the brackets the walk has changed and reads
    every other cell from the word (see `_Changes`), and they find nodes
    only where it faces one (see `_macro_steps`); what is left of their
    set-up over the whole word is counting its arrows in C, once while it
    is kept.
    """

    n: int
    brackets: dict[int, str]
    pos: int
    facing: int
    stuck: bool = False
    steps: int = 0

    def __post_init__(self):
        self._face = _face_maps(self.n)  # not a field: no repr, no comparison

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
    holding every bracket of its word; raises as `_arrow`, keeps no table."""
    pos, facing = _arrow(cfg)
    brackets = {x: s for x, s in enumerate(cfg.word, cfg.anchor)
                if s != BLANK and s not in _ARROWS}
    return ArrowWalk(n, brackets, pos, facing)


def walk_to_configuration(walk: ArrowWalk, alphabet: Alphabet) -> Padded:
    """The configuration `walk` stands for."""
    cells = walk.brackets.keys() | {walk.pos}
    lo, hi = min(cells), max(cells)
    arrow = ARROW_RIGHT if walk.facing > 0 else ARROW_LEFT
    word = (arrow if i == walk.pos else walk.brackets.get(i, BLANK)
            for i in range(lo, hi + 1))
    return Padded(alphabet, word, BLANK, lo)


def _arrow(cfg: Padded, arrowless: bool = False):
    """(cell, facing) of the one arrow of `cfg`, the arrows counted in C,
    or None for none if `arrowless` (an arrow pad is not none).  Raises
    TypeError unless `cfg` is a configuration, and ValueError unless it is
    padded, with blank padding and exactly one arrow."""
    if not isinstance(cfg, Configuration):
        raise TypeError(f"unsupported configuration type {type(cfg)!r}")
    word = cfg.word
    right = word.count(ARROW_RIGHT)
    count = right + word.count(ARROW_LEFT)
    if arrowless and not count and not (isinstance(cfg, Padded) and cfg.pad in _ARROWS):
        return None
    if isinstance(cfg, Periodic):
        raise ValueError("the walker needs a padded configuration with one arrow")
    if cfg.pad != BLANK:
        raise ValueError("walker expects blank padding")
    if count != 1:
        raise ValueError(f"expected exactly one arrow, found {count}")
    return cfg.anchor + word.index(ARROW_RIGHT if right else ARROW_LEFT), 1 if right else -1


_KEEP = 16  # node tables kept, the least recently walked evicted first
_KEEP_CELLS = 2**22  # and the cells of their words, at most: one level-18 block
_kept: dict = {}  # (id(word), n, anchor) -> (word, table, arrow cell, facing)


def _walk_and_table(cfg: Padded, n: int, arrowless: bool = False):
    """A walker at the one arrow of `cfg` whose brackets read through to
    the word (`_Changes`), and the word's node table, kept by n, anchor
    and the word's identity (the word held, so its id stays unique): a
    table depends on nothing else, and a repeated walk scans no cell and
    matches no node again.  The least recently walked tables are dropped
    while more than `_KEEP` are kept or their words hold more than
    `_KEEP_CELLS` cells; a longer word is not kept.  None or a raise,
    keeping nothing, as `_arrow`."""
    key = isinstance(cfg, Padded) and cfg.pad == BLANK and (id(cfg.word), n, cfg.anchor)
    kept = _kept.pop(key, None)
    if kept is None:
        start = _arrow(cfg, arrowless)
        if start is None:
            return None
        kept = (cfg.word, _NodeTable(n, cfg.word, cfg.anchor), *start)
    if len(cfg.word) <= _KEEP_CELLS:
        _kept[key] = kept
        while len(_kept) > _KEEP or sum(len(w) for w, *_ in _kept.values()) > _KEEP_CELLS:
            del _kept[next(iter(_kept))]
    _, table, pos, facing = kept
    return ArrowWalk(n, _Changes(table.original), pos, facing), table


class _Changes(dict):
    """A walk's brackets over a word: its own entries are the cells whose
    bracket the walk has changed, and `get` and `in` read every other cell
    through `original` (cell -> its symbol in the word, blank for none).
    A cell set back to its symbol in the word leaves the store."""

    def __init__(self, original):
        super().__init__()
        self.original = original

    def get(self, x, default=None):
        s = dict.get(self, x) or self.original(x)
        return default if s == BLANK else s

    def __contains__(self, x):
        return dict.__contains__(self, x) or self.original(x) != BLANK

    def __setitem__(self, x, s):
        if s == self.original(x):
            self.pop(x, None)
        else:
            dict.__setitem__(self, x, s)


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
    word as it was before the walk, the arrow's cell read as blank: no
    walk changes a table, so every walk of its word can share it.
    Nodes are numbered by shape, (width, ((child offset, child shape),
    ...)).  The moves of the running front on the side the arrow travels
    to (the farthest cell that the arrow or a changed bracket has
    reached), relative to the open bracket, are built from the children's
    on first use and kept (`front`).  The arrow's cells over a crossing
    depend on where the node lies, so a walk builds them from the
    children's into a memo of its own (`cross`), and the table keeps none.
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
        self._fronts: dict = {}  # (shape, facing) -> front moves

    def original(self, x: int) -> str:
        """The symbol of cell x before the walk, the arrow's read as blank."""
        j = x - self.anchor
        s = self.word[j] if 0 <= j < len(self.word) else BLANK
        return BLANK if s in _ARROWS else s

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

    def _walk(self, shape: int, facing: int):
        """One interior traversal in travel order: for each child, the blank
        cells the arrow steps onto before it, its open cell and its shape;
        then the blanks before the far bracket, with None for both."""
        width, children = self._keys[shape]
        cur = 1 if facing > 0 else width - 1  # the arrow's cell
        for off, s in children if facing > 0 else reversed(children):
            w = self._keys[s][0]
            near = off if facing > 0 else off + w
            yield range(cur + facing, near, facing), off, s
            cur = near + (w + 1) * facing  # the cell after the child's far bracket
        yield range(cur + facing, width if facing > 0 else 0, facing), None, None

    def front(self, shape: int, facing: int) -> list:
        """Moves of the running front on the exit side during a crossing:
        (step, cell) whenever it moves, the cells increasing going right
        and decreasing going left.  It takes each cell of the first
        traversal in turn, reaches the far bracket at the first bounce and
        stays there until the arrow leaves, at step S."""
        moves = self._fronts.get((shape, facing))
        if moves is None:
            w = self._keys[shape][0]
            far = w if facing > 0 else 0
            t, moves = 1, [(1, 1 if facing > 0 else w - 1)]  # the arrow after step 1
            for blanks, off, s in self._walk(shape, facing):
                moves += zip(range(t + 1, t + 1 + len(blanks)), blanks)
                t += len(blanks)
                if s is not None:
                    moves += ((t + k, off + x) for k, x in self.front(s, facing))
                    t += self.steps[s]
            moves += [(t + 1, far), (self.steps[shape], far + facing)]
            self._fronts[shape, facing] = moves
        return moves

    def cross(self, out: list, memo: dict, x: int, shape: int, facing: int) -> None:
        """Append to `out` the arrow's cell after each of the S steps of a
        crossing of `shape` from cell x, the cell before its near bracket:
        the first interior cell, then n times one traversal there, the
        bounce, one back and the bounce, then one more there and the cell
        past the far bracket.  The traversal there is `_walk`'s blanks and
        each child's crossing from `memo`, (cell, shape, facing) -> its
        cells, built on first use.  Run backwards, a crossing is the
        crossing the other way, cell for cell, so the way back is the way
        there reversed, and a child crossed the other way before is copied
        reversed.  A cell met again is the same int object, so a trace of
        t steps costs t pointers and an int per cell of each crossing
        built, and a crossing built costs one Python pass over its
        children, its cells copied in C."""
        width = self._keys[shape][0]
        a = x + 1 if facing > 0 else x - width - 1  # the open cell
        first = x + 2 * facing
        there: list = []
        for blanks, _, s in self._walk(shape, facing):
            there += range(a + blanks.start, a + blanks.stop, facing)
            if s is not None:
                y = a + blanks.stop - facing
                key = (y, s, facing)
                child = memo.get(key)
                if child is None:
                    z = y + (self._keys[s][0] + 2) * facing
                    back = memo.get((z, s, -facing))
                    if back is None:
                        child = memo[key] = []
                        self.cross(child, memo, y, s, facing)
                    else:
                        child = memo[key] = back[-2::-1]
                        child.append(z)
                there += child
        bounce = there + there[::-1]
        bounce += (first, first)
        out.append(first)
        for _ in range(self.n):
            out += bounce
        out += there
        out.append(x + (width + 2) * facing)


def _macro_steps(walk: ArrowWalk, table: _NodeTable, t_max: int):
    """Advance `walk` by up to t_max steps, jumping whole nodes of `table`.

    Yields (faced cell, None) after each single tick and (open cell,
    shape) after each jump, in the direction the walk faces.  A node is
    jumped when the arrow faces its outer bracket, no bracket lies beyond
    the far one (the walker's stuck check reads that cell at every
    bounce), none of its brackets differs from the table's word, and its
    S fits in the steps left; the walk then ends exactly as S calls of
    `walk.step` would leave it.  Stops early if the arrow gets stuck.

    The walk's brackets come from `_walk_and_table`: they hold only the
    cells the walk has changed and read every other one from the table's
    word, so the cost is that of the cells the arrow reaches, not of the
    word, and a jump's test for a changed bracket reads only the changes.
    """
    brackets = walk.brackets
    end = walk.steps + t_max
    while walk.steps < end:
        ahead = walk.pos + walk.facing
        if ahead in brackets:
            node = table.node(ahead, walk.facing, end - walk.steps)
            if node is not None:
                other, shape = node
                a, b = (ahead, other) if walk.facing > 0 else (other, ahead)
                if other + walk.facing not in brackets and not any(
                    a <= c <= b for c in brackets.keys()
                ):
                    walk.pos = other + walk.facing
                    walk.steps += table.steps[shape]
                    yield a, shape
                    continue
        if not walk.step():
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


class BlockSpec(Record):
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
    return BlockSpec(word)


class CrossingReport(Record):
    steps: int
    # a crossing that does not restore its block raises Timeout instead
    restored: ClassVar[bool] = True


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
    return CrossingReport(table.steps[node[1]])


class CrossingLanguage(Record):
    """The intermediate patterns of both crossing directions of a block."""

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
    return CrossingLanguage(right, left)


# ---------------------------------------------------------------------------
# traces and admissibility


class ArrowTrace(Record):
    positions: list = field(default_factory=list)  # arrow position at t = 0, 1, ...
    stuck_at: int | None = None

    @property
    def no_arrow(self) -> bool:
        return not self.positions

    @property
    def pairs(self) -> tuple:
        return tuple(enumerate(self.positions))


def arrow_trace(cfg: Configuration, system: ABSystem, t_max: int) -> ArrowTrace:
    """(t, arrow position) for 0 <= t <= t_max.

    Arrowless configurations are fixed points; they yield an empty trace,
    which reads as no_arrow.  If the arrow gets stuck the trace is truncated at
    that time and stuck_at records it (the configuration no longer changes).
    Each jump writes its crossing's cells into the trace
    (`_NodeTable.cross`), its children's crossings built once per call
    into a memo dropped on return.  A cell met again is the same int
    object, so the trace holds one pointer per step and one int per cell
    of each crossing built, not one int per step.  Cost: one pointer
    copied in C per position, one Python pass over the children of each
    distinct crossing (cell, shape, facing) the walk makes, and the cells
    the arrow reaches (see `_macro_steps`); the arrows are counted in C,
    once for a kept word (see `_walk_and_table`).
    """
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    start = _walk_and_table(cfg, system.n, arrowless=True)
    if start is None:
        return ArrowTrace()
    walk, table = start
    path, memo = [walk.pos], {}
    for cell, shape in _macro_steps(walk, table, t_max):
        if shape is None:
            path.append(walk.pos)
        else:
            table.cross(path, memo, path[-1], shape, walk.facing)
    return ArrowTrace(path, stuck_at=walk.steps if walk.stuck else None)


def admissible(cfg: Configuration, n: int) -> bool:
    """At most one arrow, no two adjacent brackets, counters within range,
    marked counters strictly below n.  Periodic configurations are judged on
    one period (with the wrap-around adjacency included); an arrow in the
    period word repeats every period, so the period must be at least 5 for
    every rule window to see a single arrow."""
    if not isinstance(cfg, Configuration):
        raise TypeError(f"unsupported configuration type {type(cfg)!r}")
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


class HierarchicalArrangement(Record):
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

    n: int
    choices: tuple  # one (phi, psi) pair per stage: the depth is its length
    offsets: tuple = field(init=False)  # c_1, ..., c_(depth+1), from the choices
    # (first lifted cell, period, symbol) of each stage's opens and closes,
    # shallowest stage first; the stages claim disjoint cells
    progressions: tuple = field(init=False)

    def __post_init__(self):
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
    def depth(self) -> int:
        return len(self.choices)

    @property
    def free_cell(self) -> int:
        """A plain coordinate no stage will ever claim (the next stage's
        progression representative)."""
        return self.offsets[-1]

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
    return HierarchicalArrangement(n, hierarchical_choices(depth, seed))


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
    Raises ValueError for n above `MAX_COUNTER_BOUND` before building
    anything, as `build_rule` does.
    """
    _check_bound(n)
    alphabet = level_alphabet(n)
    rev = [(name + "-rev", rhs, lhs) for name, lhs, rhs in transitions(n)]
    return LocalRule(alphabet, 2, _build_table(rev, alphabet), "identity")


@functools.lru_cache(maxsize=8)
def _point_symbols(n: int, arrows: bool) -> tuple:
    """`periodic_points`' symbols, arrows or not, and `necklaces` filters."""
    syms = tuple(sorted(s for s in level_alphabet(n) if arrows or not is_arrow(s)))
    bracket = [is_bracket(s) for s in syms]
    follow = tuple(tuple(j for j, b in enumerate(bracket) if not (a and b)) for a in bracket)
    return syms, follow, frozenset(j for j, s in enumerate(syms) if is_arrow(s))


def periodic_points(n: int, period: int) -> list:
    """The admissible points of least period `period`, each once as its
    canonical word (`canonical_point`), in increasing order: the Lyndon
    words in `min_rotation`'s (string) order with no two adjacent brackets
    and at most one arrow, none below period 5 (`admissible`)."""
    syms, follow, once = _point_symbols(n, period >= 5)
    return necklaces(syms, period, True, follow, once)


def canonical_point(word: tuple) -> tuple:
    """Primitive root of the period word, minimal rotation: a canonical name
    for the shift-periodic point the word describes."""
    p = len(word)
    d = next(d for d in range(1, p + 1) if p % d == 0 and word == word[:d] * (p // d))
    return min_rotation(word[:d])


class InjectivityReport(Record):
    points: int
    collisions: tuple
    stuck_points: int

    def collisions_with_only_mobile_members(self) -> list:
        """Collision groups not explained by a stuck member; empty means the
        map is injective away from stuck configurations."""
        return [g for g in self.collisions if not any(stuck for _, stuck in g)]


def scan_periodic_injectivity(n: int, periods) -> InjectivityReport:
    """Image-collision scan of the cell map over the admissible periodic
    points of least period in `periods`, each once (`periodic_points`).

    Each preimage is recorded together with a stuck flag (arrow present but
    no transition fired); the known failure mode of injectivity on the full
    admissible set is a mobile configuration mapping onto a stuck fixed
    point.  Arrowless points are counted but not recorded: every window of
    the rule's table holds one arrow, so they are fixed, and the rule
    conserves arrows, so nothing else maps onto one.  Cost: one rule
    application per point with an arrow.
    """
    system = build_rule(n)
    images: dict = {}
    points = stuck_points = 0
    for p in sorted(set(periods)):
        found = periodic_points(n, p)
        points += len(found)
        for w in found:
            if ARROW_RIGHT not in w and ARROW_LEFT not in w:
                continue
            y = apply_rule(system.rule, Periodic._of(system.alphabet, w))
            stuck = y.word == w
            stuck_points += stuck
            images.setdefault(canonical_point(y.word), []).append((w, stuck))
    collisions = tuple(tuple(group) for group in images.values() if len(group) > 1)
    return InjectivityReport(points, collisions, stuck_points)


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
    the arrow reaches and the nodes it faces (see `_macro_steps`), none
    of them again for a word kept (see `_walk_and_table`).
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
        # a jump over the node opening at `cell`: its front moves, along
        # which f·x grows for facing f, take over from that side's front at
        # the first one beyond it, and the other side's front stays put
        f = walk.facing
        side = right if f > 0 else left
        moves = table.front(shape, f)
        k = bisect_right(moves, f * (side[-1][1] - cell), key=lambda m: f * m[1])
        t = walk.steps - table.steps[shape]
        side += [(t + s, cell + x, 0) for s, x in moves[k:]]
        hi, lo = right[-1][1], left[-1][1]
    return Front(t_max + 1, right), Front(t_max + 1, left)


# ---------------------------------------------------------------------------
# rendering


def ascii_legend(n: int) -> dict[str, str]:
    """One display character per symbol.

    Blank and arrows render as themselves, resting brackets (unmarked,
    counter n) as plain square brackets, and every other symbol gets a letter
    or digit from a fixed pool in alphabet order.  Lossless for n <= 15;
    raises ValueError above, before building the alphabet.
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
    if 4 * n > len(pool):  # the 4n symbols of level_alphabet(n) left, not listed
        raise ValueError(f"the text legend has glyphs for n <= 15 only, not n = {n}")
    legend.update(zip((sym for sym in level_alphabet(n) if sym not in legend), pool))
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
