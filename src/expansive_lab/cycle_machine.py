"""Suspension systems over a simulated invertible cell map.

A simulated system is a finite-alphabet shift Y together with a range-1
invertible map phi.  The machinery here builds, for block length B, wait
count W and displacement D:

* an explicit cycle schedule whose total length satisfies
  T = (B + C) * (1 + W + |D|) exactly, with the constant C published as
  part of the schedule;
* the two commuting suspension generators sigma_B and phi_T acting on
  states (y, b, t);
* a four-layer block encoding of suspension states as periodic
  configurations, with a decoder that rejects malformed layers;
* the conjugated action of the cycle map on encoded configurations; and
* finite towers of nested suspensions with their composed spacetime
  transforms.

The per-cycle data movements (transmission, comparison, write-back) are
abstracted into a per-block state token: the schedule accounts for their
durations, while the encoding keeps the data layer equal to the state's
current and previous words throughout the cycle.  Conjugation through the
encode/decode isomorphism therefore reproduces the cycle map exactly
without a micro-step interpreter.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence

from .shift_core import (
    Alphabet,
    LocalRule,
    Periodic,
    apply_rule,
    rule_from_json,
    rule_to_json,
)


class BlockTooSmall(ValueError):
    """The block length cannot hold the program layer or the data words."""


class MalformedConfiguration(ValueError):
    """An encoded configuration violates the layer invariants."""


# layer fill symbols
_BLANK = "."
_SEP = ";"
_WAIT = "w"
_RIGHT = ">"
_LEFT = "<"
_END = "#"

_PROGRAM_SYMBOLS = ("0", "1", _SEP, _WAIT, _RIGHT, _LEFT, _END, _BLANK)
_DATA_SYMBOLS = ("0", "1", _BLANK)


def _word_bits(n: int) -> int:
    """Bits per data word; at least one so every alphabet has cells to copy."""
    return max(1, (n - 1).bit_length())


# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class SimParams:
    """A simulated map with its represented points and block parameters.

    `points` are the periodic configurations every exhaustive check runs
    over; `phi` and `phi_inv` must be range-1 rules that undo each other on
    all of them.
    """

    phi: LocalRule
    phi_inv: LocalRule
    points: tuple
    B: int
    W: int
    D: int

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        if self.phi.radius > 1 or self.phi_inv.radius > 1:
            raise ValueError("simulated maps must have range 1")
        if self.phi.alphabet != self.phi_inv.alphabet:
            raise ValueError("phi and phi_inv use different alphabets")
        if self.B < 1:
            raise ValueError("block length B must be >= 1")
        if self.W < 1:
            raise ValueError("wait count W must be >= 1")
        for y in self.points:
            if not isinstance(y, Periodic):
                raise TypeError("represented points must be periodic")
            if y.alphabet != self.phi.alphabet:
                raise ValueError("represented point over the wrong alphabet")
            if apply_rule(self.phi_inv, apply_rule(self.phi, y)) != y:
                raise ValueError(f"phi_inv does not undo phi on {y!r}")
            if apply_rule(self.phi, apply_rule(self.phi_inv, y)) != y:
                raise ValueError(f"phi does not undo phi_inv on {y!r}")

    @property
    def N(self) -> int:
        return len(self.phi.alphabet)

    @property
    def word_bits(self) -> int:
        return _word_bits(self.N)

    @property
    def table_entries(self) -> int:
        """Distinct stored windows across the two tables; the identity
        default costs no program rows."""
        return len(set(self.phi.table) | set(self.phi_inv.table))

    def program_length(self) -> int:
        return _program_length(
            self.word_bits, self.table_entries, self.W, self.D
        )

    @cached_property
    def codec(self) -> "_Codec":
        """The encoding tables of these parameters, built on first use."""
        return _Codec(self)


def _program_length(bits: int, entries: int, w: int, d: int) -> int:
    # one 5-word row plus separator per entry, then W and D in unary with
    # one terminator each
    return entries * (5 * bits + 1) + w + abs(d) + 2


# ---------------------------------------------------------------------------
# the cycle schedule


@dataclass(frozen=True)
class CycleSchedule:
    """Stage durations of one simulation cycle.

    The constants c1..c6 are concrete functions of the simulated map's
    alphabet size and table; c5 is defined as c1+c2+c3+c4+c6 so that the
    total is exactly (B + C) * (1 + W + |D|) with C = c5.
    """

    B: int
    W: int
    D: int
    word_bits: int
    table_entries: int
    c1: int
    c2: int
    c3: int
    c4: int
    c5: int
    c6: int
    T: int

    @property
    def transmit(self) -> int:
        return self.B + self.c1

    @property
    def copy(self) -> int:
        return self.c2

    @property
    def lookup(self) -> int:
        return self.c3

    @property
    def writeback(self) -> int:
        return self.c4

    @property
    def round_length(self) -> int:
        """Duration of one shift round and of one wait round, B + C."""
        return self.B + self.c5

    @property
    def resync(self) -> int:
        return self.c6

    @property
    def overhead(self) -> int:
        """The constant C in T = (B + C)(1 + W + |D|)."""
        return self.c5

    @property
    def synchronized_token(self) -> tuple:
        return ("transmit", 0, 0)


def min_block_length(n: int, entries: int, w: int, d: int) -> int:
    """Smallest B that can hold the program layer and both data words."""
    bits = _word_bits(n)
    return max(1, _program_length(bits, entries, w, d), 2 * bits)


def schedule_from_counts(
    n: int, entries: int, b: int, w: int, d: int
) -> CycleSchedule:
    """Concrete schedule for an alphabet of n symbols and a table of
    `entries` stored windows, without materializing the map itself."""
    bits = _word_bits(n)
    if b < _program_length(bits, entries, w, d):
        raise BlockTooSmall(
            f"B={b} is shorter than the program layer "
            f"({_program_length(bits, entries, w, d)} cells)"
        )
    if b < 2 * bits:
        raise BlockTooSmall(f"B={b} cannot hold two {bits}-bit data words")
    c1 = 2 * bits + 2  # launch and halt the transmission head
    c2 = 2 * bits + 2  # copy the received word next to the stored one
    c3 = entries * (6 * bits + 2) + 2  # uniform-cost comparison per row
    c4 = 2 * bits + 2  # write the looked-up words back
    c6 = 2  # resynchronize
    c5 = c1 + c2 + c3 + c4 + c6
    t = (b + c5) * (1 + w + abs(d))
    sched = CycleSchedule(b, w, d, bits, entries, c1, c2, c3, c4, c5, c6, t)
    assert sched.T == (
        sched.transmit
        + sched.copy
        + sched.lookup
        + sched.writeback
        + (abs(d) + w) * sched.round_length
        + sched.resync
    )
    return sched


def build_schedule(p: SimParams) -> CycleSchedule:
    """Concrete cycle schedule for the given parameters.

    Raises BlockTooSmall when B cannot hold the program layer.
    """
    return schedule_from_counts(p.N, p.table_entries, p.B, p.W, p.D)


def idealized_schedule(b: int, w: int, d: int) -> CycleSchedule:
    """Zero-overhead schedule with T = B(1+W+|D|) exactly.

    No encoding is possible through it (the word width is zero); it exists
    for closed-form slope computations.
    """
    t = b * (1 + w + abs(d))
    return CycleSchedule(b, w, d, 0, 0, 0, 0, 0, 0, 0, 0, t)


def stage_segments(sched: CycleSchedule) -> tuple:
    """(name, repetition, duration) triples in cycle order."""
    segs = [
        ("transmit", 0, sched.transmit),
        ("copy", 0, sched.copy),
        ("lookup", 0, sched.lookup),
        ("writeback", 0, sched.writeback),
    ]
    for r in range(abs(sched.D)):
        segs.append(("shift", r, sched.round_length))
    for r in range(sched.W):
        segs.append(("wait", r, sched.round_length))
    segs.append(("resync", 0, sched.resync))
    return tuple(segs)


def token_for_t(sched: CycleSchedule, t: int) -> tuple:
    """The (stage, repetition, phase) token shown by every block at time t."""
    if not 0 <= t < sched.T:
        raise ValueError(f"t={t} outside the cycle")
    acc = 0
    for name, rep, dur in stage_segments(sched):
        if t < acc + dur:
            return (name, rep, t - acc)
        acc += dur
    raise AssertionError("stage durations do not tile the cycle")


def t_for_token(sched: CycleSchedule, token: tuple) -> int:
    acc = 0
    for name, rep, dur in stage_segments(sched):
        if (name, rep) == tuple(token[:2]):
            phase = token[2]
            if 0 <= phase < dur:
                return acc + phase
            break
        acc += dur
    raise MalformedConfiguration(f"no cycle time shows token {token!r}")


def schedule_report(sched: CycleSchedule) -> dict:
    """JSON-ready summary with every stage duration and the exact total."""
    return {
        "B": sched.B,
        "W": sched.W,
        "D": sched.D,
        "word_bits": sched.word_bits,
        "table_entries": sched.table_entries,
        "constants": {f"c{i}": getattr(sched, f"c{i}") for i in range(1, 7)},
        "stages": {
            "transmit": sched.transmit,
            "copy": sched.copy,
            "lookup": sched.lookup,
            "writeback": sched.writeback,
            "shift_per_block": sched.round_length,
            "shift_repeats": abs(sched.D),
            "wait_per_round": sched.round_length,
            "wait_repeats": sched.W,
            "resync": sched.resync,
        },
        "T": sched.T,
    }


# ---------------------------------------------------------------------------
# the suspension


@dataclass(frozen=True)
class SuspensionState:
    """A point (y, b, t) of the suspension: block phase b, cycle time t."""

    y: Periodic
    b: int
    t: int


def _check_schedule_match(p: SimParams, sched: CycleSchedule):
    if (sched.B, sched.W, sched.D) != (p.B, p.W, p.D) or (
        sched.word_bits != p.word_bits
    ):
        raise ValueError(
            "schedule was built for different parameters (idealized "
            "schedules cannot drive the encoding)"
        )


def _check_state(s: SuspensionState, p: SimParams, sched: CycleSchedule):
    if s.y.alphabet != p.phi.alphabet:
        raise ValueError("state over the wrong alphabet")
    if not 0 <= s.b < p.B:
        raise ValueError(f"block phase {s.b} outside 0..{p.B - 1}")
    if not 0 <= s.t < sched.T:
        raise ValueError(f"cycle time {s.t} outside 0..{sched.T - 1}")


def _cycle_map(p: SimParams, y: Periodic) -> Periodic:
    # sigma^D after phi
    return apply_rule(p.phi, y).shifted(p.D)


def _cycle_map_inv(p: SimParams, y: Periodic) -> Periodic:
    return apply_rule(p.phi_inv, y.shifted(-p.D))


def step_suspension(
    s: SuspensionState, generator: str, p: SimParams, sched: CycleSchedule
) -> SuspensionState:
    """One application of a suspension generator.

    "sigma" advances y by the shift exactly when the block phase wraps;
    "phi" applies sigma^D phi to y exactly when the cycle time wraps.  The
    inverse generators "sigma_inv" and "phi_inv" undo them.
    """
    _check_state(s, p, sched)
    B, T = p.B, sched.T
    if generator == "sigma":
        y = s.y.shifted(1) if s.b == 0 else s.y
        return SuspensionState(y, (s.b + 1) % B, s.t)
    if generator == "sigma_inv":
        fires = (s.b - 1) % B == 0
        y = s.y.shifted(-1) if fires else s.y
        return SuspensionState(y, (s.b - 1) % B, s.t)
    if generator == "phi":
        y = _cycle_map(p, s.y) if s.t == 0 else s.y
        return SuspensionState(y, s.b, (s.t + 1) % T)
    if generator == "phi_inv":
        fires = (s.t - 1) % T == 0
        y = _cycle_map_inv(p, s.y) if fires else s.y
        return SuspensionState(y, s.b, (s.t - 1) % T)
    raise ValueError(f"unknown generator {generator!r}")


# ---------------------------------------------------------------------------
# the layered encoding


def program_word(p: SimParams) -> tuple:
    """Program layer content: one row of five words per stored window
    (window symbols, phi output, phi_inv output), then W and D in unary."""
    return p.codec.program[: p.program_length()]


def _program_layer(p: SimParams, bits: dict) -> tuple:
    # `program_word` padded with blanks to B cells
    index = p.phi.alphabet.index

    def widen(window):
        # radius-0 tables store 1-tuples; present them as centered windows
        return window if len(window) == 3 else (window[0],) * 3

    windows = sorted(
        set(p.phi.table) | set(p.phi_inv.table),
        key=lambda w: tuple(index(s) for s in w),
    )
    cells: list = []
    for w in windows:
        centre = w[len(w) // 2]
        row = list(widen(w))
        row.append(p.phi.table.get(w, centre))
        row.append(p.phi_inv.table.get(w, centre))
        for sym in row:
            cells.extend(bits[sym])
        cells.append(_SEP)
    cells.extend([_WAIT] * p.W)
    cells.append(_END)
    cells.extend([_RIGHT if p.D > 0 else _LEFT] * abs(p.D))
    cells.append(_END)
    assert len(cells) == p.program_length()
    cells.extend([_BLANK] * (p.B - len(cells)))
    return tuple(cells)


class _Codec:
    """The encoding tables of one SimParams (see `SimParams.codec`).

    `bits` maps each simulated symbol to the `word_bits` cells of its data
    word and `program` is the program layer padded to B cells.  A block
    storing the words (cur, prev) is a head cell, which alone carries the
    state token, and `tail(cur, prev)`, its other B-1 cells.  Tails are built
    on first use, so the tables grow with the symbol pairs met rather than
    like N^2 * B; `blocks` maps each built block, its head cell without the
    token followed by its tail, back to (cur, prev).
    """

    def __init__(self, p: SimParams):
        bits = p.word_bits
        self.bits = {
            sym: tuple("01"[(v >> (bits - 1 - k)) & 1] for k in range(bits))
            for v, sym in enumerate(p.phi.alphabet)
        }
        self.program = _program_layer(p, self.bits)
        self.tails: dict = {}
        self.blocks: dict = {}

    def tail(self, cur, prev) -> tuple:
        tail = self.tails.get((cur, prev))
        if tail is None:
            data = self.bits[cur] + self.bits[prev]
            data += (_BLANK,) * (len(self.program) - len(data))
            tail = tuple(
                (0, ps, ds, _BLANK) for ps, ds in zip(self.program[1:], data[1:])
            )
            self.tails[cur, prev] = tail
            self.blocks[(1, self.program[0], data[0]) + tail] = (cur, prev)
        return tail


class _ScheduleTables(NamedTuple):
    alphabet: Alphabet  # the product alphabet of the four layers
    tokens: tuple  # tokens[t] is the token of cycle time t
    times: dict  # token -> cycle time


@lru_cache(maxsize=32)
def _schedule_tables(sched: CycleSchedule) -> _ScheduleTables:
    tokens = tuple(token_for_t(sched, t) for t in range(sched.T))
    symbols = itertools.product(
        (0, 1), _PROGRAM_SYMBOLS, _DATA_SYMBOLS, (_BLANK,) + tokens
    )
    return _ScheduleTables(
        Alphabet(sorted(symbols, key=repr)),
        tokens,
        {token: t for t, token in enumerate(tokens)},
    )


def encoding_alphabet(p: SimParams, sched: CycleSchedule) -> Alphabet:
    """Product alphabet of the four layers (block, program, data, state)."""
    _check_schedule_match(p, sched)
    return _schedule_tables(sched).alphabet


def encode(
    s: SuspensionState, p: SimParams, sched: CycleSchedule
) -> Periodic:
    """Layered periodic configuration of a suspension state.

    Block j (starting at coordinate -b + j*B) carries the program, the
    current word y_j, the previous word (phi^-1 y)_j, and the state token
    for t at its first cell.

    Cost for a state of period P: one application of phi_inv to y, one new
    head cell and one dict lookup of a prebuilt tail per block (a tail is
    built once per (y_j, (phi^-1 y)_j) pair and parameter set, in O(B)),
    then the P*B cells are joined, rotated by b and checked against the
    encoding alphabet, one hash per cell.
    """
    _check_schedule_match(p, sched)
    _check_state(s, p, sched)
    codec = p.codec
    tables = _schedule_tables(sched)
    token = tables.tokens[s.t]
    head = codec.program[0]
    cells: list = []
    for cur, prev in zip(s.y.word, apply_rule(p.phi_inv, s.y).word):
        cells.append((1, head, codec.bits[cur][0], token))
        cells += codec.tail(cur, prev)
    return Periodic(tables.alphabet, cells[s.b :] + cells[: s.b])


def decode(
    c: Periodic, p: SimParams, sched: CycleSchedule
) -> SuspensionState:
    """Invert `encode`, checking every layer invariant.

    Raises MalformedConfiguration on a bad block layer, inconsistent or
    unknown state tokens, a program layer that differs from the parameters'
    program, out-of-range data words, or a previous word that is not the
    phi-preimage of the current one.

    Cost for a period of P*B cells: finding b reads at most B cells; then
    each block is one dict lookup keyed by its cells (one hash per cell),
    the tokens are compared and looked up once, and phi_inv is applied to
    the decoded word once.  A configuration with a block that `encode` has
    not built for these parameters, or one that fails any check, is
    decoded again by the per-cell scan `_decode_cells`, which gives the
    verdict and the message.
    """
    _check_schedule_match(p, sched)
    state = _decode_blocks(c, p, sched)
    return state if state is not None else _decode_cells(c, p, sched)


def _decode_blocks(c, p: SimParams, sched: CycleSchedule):
    """The table path of `decode`: the state, or None wherever the per-cell
    scan has to decide."""
    B = p.B
    if not isinstance(c, Periodic) or c.period % B:
        return None
    word = c.word
    b = next((k for k in range(B) if word[-k][0] == 1), None)
    if b is None:
        return None
    word = word[-b:] + word[:-b]
    heads = word[::B]
    # other head shapes (a 5-tuple, a tuple subclass) are the scan's to judge
    if not all(type(h) is tuple and len(h) == 4 for h in heads):
        return None
    token = heads[0][3]
    t = _schedule_tables(sched).times.get(token)
    if t is None or any(h[3] != token for h in heads):
        return None
    blocks = p.codec.blocks
    pairs = [
        blocks.get(h[:3] + word[j + 1 : j + B])
        for j, h in zip(range(0, len(word), B), heads)
    ]
    if None in pairs:
        return None
    cur, prev = zip(*pairs)
    y = Periodic(p.phi.alphabet, cur)
    if apply_rule(p.phi_inv, y).word != prev:
        return None
    return SuspensionState(y, b, t)


def _decode_cells(
    c: Periodic, p: SimParams, sched: CycleSchedule
) -> SuspensionState:
    """`decode` by a scan of every cell of every layer; the reference the
    table path is tested against, and the source of every rejection."""
    _check_schedule_match(p, sched)
    if not isinstance(c, Periodic):
        raise MalformedConfiguration("encoded configurations are periodic")
    B, bits = p.B, p.word_bits
    if c.period % B:
        raise MalformedConfiguration(
            f"period {c.period} is not a multiple of B={B}"
        )
    starts = [k for k in range(B) if c[-k][0] == 1]
    if not starts:
        raise MalformedConfiguration("no block beginning near the origin")
    b = min(starts)
    blocks = c.period // B
    prog = program_word(p) + (_BLANK,) * (B - p.program_length())
    tokens = set()
    words, prevs = [], []
    for j in range(blocks):
        start = -b + j * B
        cur_bits, prev_bits = [], []
        for o in range(B):
            bb, ps, ds, ss = c[start + o]
            if bb != (1 if o == 0 else 0):
                raise MalformedConfiguration("block layer is not 1 0^{B-1}")
            if ps != prog[o]:
                raise MalformedConfiguration(
                    f"program layer mismatch at offset {o}"
                )
            if o == 0:
                tokens.add(ss)
            elif ss != _BLANK:
                raise MalformedConfiguration("stray state token inside a block")
            if o < bits:
                cur_bits.append(ds)
            elif o < 2 * bits:
                prev_bits.append(ds)
            elif ds != _BLANK:
                raise MalformedConfiguration("stray data outside the words")
        words.append(_bits_to_symbol(cur_bits, p.phi.alphabet))
        prevs.append(_bits_to_symbol(prev_bits, p.phi.alphabet))
    if len(tokens) != 1:
        raise MalformedConfiguration(f"blocks disagree on the token: {tokens}")
    t = t_for_token(sched, tokens.pop())
    y = Periodic(p.phi.alphabet, words)
    if list(apply_rule(p.phi_inv, y)[j] for j in range(blocks)) != prevs:
        raise MalformedConfiguration(
            "previous words are not the phi-preimage of the current ones"
        )
    return SuspensionState(y, b, t)


def _bits_to_symbol(bits_seq, alphabet: Alphabet):
    v = 0
    for ch in bits_seq:
        if ch not in ("0", "1"):
            raise MalformedConfiguration(f"non-bit {ch!r} in a data word")
        v = 2 * v + (ch == "1")
    if v >= len(alphabet):
        raise MalformedConfiguration(f"data word {v} outside the alphabet")
    return alphabet.symbols[v]


def pi_on_encoded(
    c: Periodic, p: SimParams, sched: CycleSchedule
) -> Periodic:
    """The cycle map conjugated through the encoding."""
    return encode(step_suspension(decode(c, p, sched), "phi", p, sched), p, sched)


def pi_inv_on_encoded(
    c: Periodic, p: SimParams, sched: CycleSchedule
) -> Periodic:
    return encode(
        step_suspension(decode(c, p, sched), "phi_inv", p, sched), p, sched
    )


# ---------------------------------------------------------------------------
# spacetime transforms and towers


def shape_transform(level) -> tuple:
    """The 2x2 matrix [[1, D], [0, T/B]] sending input spacetime shapes to
    suspension spacetime shapes (columns act on (space, time)): it fixes
    (1, 0) and sends (0, 1) to (D, T/B).  `level` is anything with B, T and
    D attributes, a CycleSchedule or a slope_engine.LevelParams."""
    return (
        (Fraction(1), Fraction(level.D)),
        (Fraction(0), Fraction(level.T, level.B)),
    )


def _mat_mul(a: tuple, b: tuple) -> tuple:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


@dataclass(frozen=True)
class TowerLevel:
    """Block parameters of one nesting level; `table_entries` sizes the
    lookup stage when the induced map's table is not materialized."""

    B: int
    W: int
    D: int
    table_entries: int = 0

    def __post_init__(self):
        if self.B < 1:
            raise ValueError("block length B must be >= 1")
        if self.W < 1:
            raise ValueError("wait count W must be >= 1")
        if self.table_entries < 0:
            raise ValueError("table_entries must be >= 0")


@dataclass(frozen=True)
class TowerReport:
    alphabet_sizes: tuple
    schedules: tuple
    state_count: int
    transform: tuple

    @property
    def depth(self) -> int:
        return len(self.schedules)


def tower(levels: Sequence[TowerLevel], base: SimParams) -> TowerReport:
    """Nested suspensions, outermost level first.

    Level k's simulated alphabet is the finite state set of level k+1's
    suspension (the innermost level simulates `base`), so the alphabet
    sizes grow as N * prod(B_i * T_i) going outward.  Each level's B must
    hold its own program layer; the composed transform is the product of
    the per-level matrices in the given order.
    """
    if not levels:
        raise ValueError("need at least one level")
    if not base.points:
        raise ValueError("base must represent at least one point")
    sizes: list = []
    scheds: list = []
    n = base.N
    count = len(base.points)
    for depth_in, lv in enumerate(reversed(levels)):
        try:
            sched = schedule_from_counts(n, lv.table_entries, lv.B, lv.W, lv.D)
        except BlockTooSmall as exc:
            raise BlockTooSmall(
                f"level {len(levels) - 1 - depth_in}: {exc}"
            ) from None
        sizes.append(n)
        scheds.append(sched)
        count *= lv.B * sched.T
        n *= lv.B * sched.T
    sizes.reverse()
    scheds.reverse()
    transform = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    for sched in scheds:
        transform = _mat_mul(transform, shape_transform(sched))
    return TowerReport(tuple(sizes), tuple(scheds), count, transform)


# ---------------------------------------------------------------------------
# parameter files


def sim_params_to_json(p: SimParams) -> str:
    doc = {
        "N": p.N,
        "Y": {
            "kind": "periodic_points",
            "data": [list(y.word) for y in p.points],
        },
        "phi": json.loads(rule_to_json(p.phi)),
        "phi_inv": json.loads(rule_to_json(p.phi_inv)),
        "B": p.B,
        "W": p.W,
        "D": p.D,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def sim_params_from_json(text: str) -> SimParams:
    """Parse a parameter file.

    Y may be given as explicit periodic words ("periodic_points") or as
    {"kind": "full", "max_period": m}, which expands to one representative
    per rotation class of period up to m.
    """
    doc = json.loads(text)
    phi = rule_from_json(json.dumps(doc["phi"]))
    phi_inv = rule_from_json(json.dumps(doc["phi_inv"]))
    spec = doc["Y"]
    if spec["kind"] == "periodic_points":
        points = tuple(Periodic(phi.alphabet, w) for w in spec["data"])
    elif spec["kind"] == "full":
        from .dynamics_analysis import periodic_family

        points = periodic_family(phi.alphabet, spec["max_period"])
    else:
        raise ValueError(f"unknown Y kind {spec['kind']!r}")
    return SimParams(phi, phi_inv, points, doc["B"], doc["W"], doc["D"])
