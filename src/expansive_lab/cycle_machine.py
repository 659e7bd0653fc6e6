"""Suspension systems over a simulated invertible cell map.

A simulated system is a finite-alphabet shift Y together with a range-1
invertible map phi.  The machinery here builds, for block length B, wait
count W and displacement D:

* an explicit cycle schedule whose total length satisfies
  T = (B + C) * (1 + W + |D|) exactly, with the constant C the sum of the
  five fixed-stage durations of `fixed_stages`;
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
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence

from .dynamics_analysis import periodic_family
from .shift_core import (
    _SYMBOL,
    Alphabet,
    LocalRule,
    Periodic,
    Record,
    apply_rule,
    field,
    json_object,
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
_NOT_A_CELL = "a cell is not a (block, program, data, state) 4-tuple"


def _word_bits(n: int) -> int:
    """Bits per data word; at least one so every alphabet has cells to copy."""
    return max(1, (n - 1).bit_length())


# ---------------------------------------------------------------------------
# parameters


def _check_level(b: int, w: int) -> None:
    """The checks every level's block length and wait count share."""
    if b < 1:
        raise ValueError("block length B must be >= 1")
    if w < 1:
        raise ValueError("wait count W must be >= 1")


class SimParams(Record):
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
        _check_level(self.B, self.W)
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

    @cached_property
    def word_bits(self) -> int:
        return _word_bits(self.N)

    @cached_property
    def table_entries(self) -> int:
        """Distinct stored windows across the two tables; the identity
        default costs no program rows."""
        return len(set(self.phi.table) | set(self.phi_inv.table))

    @cached_property
    def stages(self) -> tuple:
        """The fixed stages of every schedule built for these parameters."""
        return fixed_stages(self.N, self.table_entries)

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


def fixed_stages(n: int, entries: int) -> tuple:
    """The durations of the five stages whose length does not grow with B,
    for an alphabet of n symbols and a table of `entries` stored windows:
    transmit (beyond its B cells), copy, lookup, write-back and resync.
    Their sum is the constant C in T = (B + C)(1 + W + |D|)."""
    if n < 1:
        raise ValueError("alphabet size must be >= 1")
    if entries < 0:
        raise ValueError("table_entries must be >= 0")
    bits = _word_bits(n)
    return (
        2 * bits + 2,  # launch and halt the transmission head
        2 * bits + 2,  # copy the received word next to the stored one
        entries * (6 * bits + 2) + 2,  # uniform-cost comparison per row
        2 * bits + 2,  # write the looked-up words back
        2,  # resynchronize
    )


class CycleSchedule(Record):
    """Stage durations of one simulation cycle.

    A cycle transmits (B cells plus the first fixed stage), copies, looks
    up and writes back, then runs |D| shift rounds and W wait rounds of
    B + C cells each and resynchronizes.  `stages` holds the five fixed
    durations, from `fixed_stages` (all zero for an idealized schedule);
    C = `overhead` is their sum, so T = (B + C)(1 + W + |D|) exactly.
    """

    B: int
    W: int
    D: int
    stages: tuple
    T: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self, "T", (self.B + self.overhead) * (1 + self.W + abs(self.D))
        )

    @property
    def overhead(self) -> int:
        """The constant C in T = (B + C)(1 + W + |D|)."""
        return sum(self.stages)

    @cached_property
    def _tokens(self) -> tuple:
        """_tokens[t] is the token of cycle time t, read off the stages in
        one pass; this and the other encoding tables below are built on
        first use."""
        return tuple(
            (name, rep, phase)
            for name, rep, dur in stage_segments(self)
            for phase in range(dur)
        )

    @cached_property
    def _times(self) -> dict:
        return {token: t for t, token in enumerate(self._tokens)}

    @cached_property
    def _alphabet(self) -> Alphabet:
        """The product alphabet of the four layers."""
        layers = (0, 1), _PROGRAM_SYMBOLS, _DATA_SYMBOLS, (_BLANK,) + self._tokens
        return Alphabet(itertools.product(*layers))


def min_block_length(n: int, entries: int, w: int, d: int) -> int:
    """Smallest B that can hold the program layer and both data words."""
    bits = _word_bits(n)
    return max(1, _program_length(bits, entries, w, d), 2 * bits)


def schedule_from_counts(
    n: int, entries: int, b: int, w: int, d: int
) -> CycleSchedule:
    """Concrete schedule for an alphabet of n symbols and a table of
    `entries` stored windows, without materializing the map itself."""
    stages = fixed_stages(n, entries)
    bits = _word_bits(n)
    if b < _program_length(bits, entries, w, d):
        raise BlockTooSmall(
            f"B={b} is shorter than the program layer "
            f"({_program_length(bits, entries, w, d)} cells)"
        )
    if b < 2 * bits:
        raise BlockTooSmall(f"B={b} cannot hold two {bits}-bit data words")
    return CycleSchedule(b, w, d, stages)


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
    return CycleSchedule(b, w, d, (0,) * 5)


def stage_segments(sched: CycleSchedule) -> tuple:
    """(name, repetition, duration) triples in cycle order."""
    transmit, copy, lookup, writeback, resync = sched.stages
    round_length = sched.B + sched.overhead
    return (
        ("transmit", 0, sched.B + transmit),
        ("copy", 0, copy),
        ("lookup", 0, lookup),
        ("writeback", 0, writeback),
        *(("shift", r, round_length) for r in range(abs(sched.D))),
        *(("wait", r, round_length) for r in range(sched.W)),
        ("resync", 0, resync),
    )


def token_for_t(sched: CycleSchedule, t: int) -> tuple:
    """The (stage, repetition, phase) token shown by every block at time t."""
    if not 0 <= t < sched.T:
        raise ValueError(f"t={t} outside the cycle")
    return sched._tokens[t]


def t_for_token(sched: CycleSchedule, token: tuple) -> int:
    """The cycle time whose token equals `token`."""
    t = sched._times.get(token)
    if t is None:
        raise MalformedConfiguration(f"no cycle time shows token {token!r}")
    return t


# ---------------------------------------------------------------------------
# the suspension


class SuspensionState(NamedTuple):
    """A point (y, b, t) of the suspension: block phase b, cycle time t."""

    y: Periodic
    b: int
    t: int


def _check_schedule_match(p: SimParams, sched: CycleSchedule):
    # the stages fix the word width and the table size
    if (sched.B, sched.W, sched.D, sched.stages) != (p.B, p.W, p.D, p.stages):
        raise ValueError(
            "schedule was built for different parameters (idealized "
            "schedules cannot drive the encoding)"
        )


def _check_state(s: SuspensionState, p: SimParams, sched: CycleSchedule):
    y, b, t = s
    # equal alphabets are nearly always one object; `is` spares the __eq__ call
    if y.alphabet is not p.phi.alphabet and y.alphabet != p.phi.alphabet:
        raise ValueError("state over the wrong alphabet")
    if not 0 <= b < p.B:
        raise ValueError(f"block phase {b} outside 0..{p.B - 1}")
    if not 0 <= t < sched.T:
        raise ValueError(f"cycle time {t} outside 0..{sched.T - 1}")


def step_suspension(
    s: SuspensionState, generator: str, p: SimParams, sched: CycleSchedule
) -> SuspensionState:
    """One application of a suspension generator.

    "sigma" advances y by the shift exactly when the block phase wraps;
    "phi" applies the cycle map sigma^D phi to y exactly when the cycle time
    wraps.  The inverse generators "sigma_inv" and "phi_inv" undo them.
    """
    _check_state(s, p, sched)
    y, b, t = s
    if generator == "sigma":
        return SuspensionState(y.shifted(1) if b == 0 else y, (b + 1) % p.B, t)
    if generator == "sigma_inv":
        b = (b - 1) % p.B
        return SuspensionState(y.shifted(-1) if b == 0 else y, b, t)
    if generator == "phi":
        y = apply_rule(p.phi, y).shifted(p.D) if t == 0 else y
        return SuspensionState(y, b, (t + 1) % sched.T)
    if generator == "phi_inv":
        t = (t - 1) % sched.T
        y = apply_rule(p.phi_inv, y.shifted(-p.D)) if t == 0 else y
        return SuspensionState(y, b, t)
    raise ValueError(f"unknown generator {generator!r}")


# ---------------------------------------------------------------------------
# the layered encoding


def program_word(p: SimParams) -> tuple:
    """Program layer content: one row of five words per stored window
    (window symbols, phi output, phi_inv output), then W and D in unary."""
    return p.codec.program[: _program_length(p.word_bits, p.table_entries, p.W, p.D)]


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
    assert len(cells) == _program_length(p.word_bits, p.table_entries, p.W, p.D)
    cells.extend([_BLANK] * (p.B - len(cells)))
    return tuple(cells)


class _Codec:
    """The encoding tables of one SimParams (see `SimParams.codec`).

    `bits` maps each simulated symbol to the `word_bits` cells of its data
    word and `program` is the program layer padded to B cells.  A block
    storing the words (cur, prev) is a head cell, `heads[cur]` followed by
    the state token it alone carries, and `tail(cur, prev)`, its other B-1
    cells.  Tails are built on first use, so the tables grow with the symbol
    pairs met rather than like N^2 * B; `blocks` maps each built block, its
    head cell without the token followed by its tail, back to (cur, prev).
    `last` is None or the entry (out, out.word, sched, state) of the latest
    conjugated cycle-map step, so that the next step can take the state
    `out` encodes in place of decoding `out` (see `pi_on_encoded`).
    """

    def __init__(self, p: SimParams):
        bits = p.word_bits
        self.bits = {
            sym: tuple("01"[(v >> (bits - 1 - k)) & 1] for k in range(bits))
            for v, sym in enumerate(p.phi.alphabet)
        }
        self.program = _program_layer(p, self.bits)
        self.heads = {s: (1, self.program[0], w[0]) for s, w in self.bits.items()}
        self.tails: dict = {}
        self.blocks: dict = {}
        self.last = None

    def tail(self, cur, prev) -> tuple:
        tail = self.tails.get((cur, prev))
        if tail is None:
            data = self.bits[cur] + self.bits[prev]
            data += (_BLANK,) * (len(self.program) - len(data))
            tail = tuple(
                (0, ps, ds, _BLANK) for ps, ds in zip(self.program[1:], data[1:])
            )
            self.tails[cur, prev] = tail
            self.blocks[self.heads[cur] + tail] = (cur, prev)
        return tail


def encoding_alphabet(p: SimParams, sched: CycleSchedule) -> Alphabet:
    """Product alphabet of the four layers (block, program, data, state)."""
    _check_schedule_match(p, sched)
    return sched._alphabet


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
    then the P*B cells are joined and rotated by b.  They are not checked
    against the encoding alphabet: the schedule and the codec made them.
    """
    _check_schedule_match(p, sched)
    _check_state(s, p, sched)
    codec = p.codec
    state = (sched._tokens[s.t],)  # the state layer of every head
    cells: list = []
    for cur, prev in zip(s.y.word, apply_rule(p.phi_inv, s.y).word):
        cells.append(codec.heads[cur] + state)
        cells += codec.tail(cur, prev)
    return Periodic._of(sched._alphabet, tuple(cells[s.b :] + cells[: s.b]))


def decode(
    c: Periodic, p: SimParams, sched: CycleSchedule
) -> SuspensionState:
    """Invert `encode`, checking every layer invariant.

    Raises MalformedConfiguration on a cell that is not a 4-tuple, a bad
    block layer, inconsistent or unknown state tokens, a program layer that
    differs from the parameters' program, out-of-range data words, or a
    previous word that is not the phi-preimage of the current one.  The
    checks run block by block and cell by cell, then on the tokens, then on
    the preimage, so the first violation found in that order gives the
    message.

    Cost for a period of P*B cells: finding b reads B cells; then each
    block is one dict lookup keyed by its cells (one hash per cell), the
    tokens are compared and looked up once, and phi_inv is applied to the
    decoded word once.  A block `encode` has not built for these
    parameters is read cell by cell instead, by `_decode_block`.
    """
    _check_schedule_match(p, sched)
    if not isinstance(c, Periodic):
        raise MalformedConfiguration("encoded configurations are periodic")
    B = p.B
    if c.period % B:
        raise MalformedConfiguration(
            f"period {c.period} is not a multiple of B={B}"
        )
    word = c.word
    # all B candidates are read, so a cell without a block layer there
    # fails here whatever b is, before any block is checked
    try:
        starts = [k for k in range(B) if word[-k][0] == 1]
    except (TypeError, IndexError):
        raise MalformedConfiguration(_NOT_A_CELL) from None
    if not starts:
        raise MalformedConfiguration("no block beginning near the origin")
    b = starts[0]
    word = word[-b:] + word[:-b]
    heads = word[::B]
    blocks = p.codec.blocks
    pairs = []
    for j, h in zip(range(0, len(word), B), heads):
        # the token is no part of the key; other head shapes are read
        # cell by cell
        pair = None
        if type(h) is tuple and len(h) == 4:
            pair = blocks.get(h[:3] + word[j + 1 : j + B])
        pairs.append(pair or _decode_block(word[j : j + B], p))
    tokens = {h[3] for h in heads}
    if len(tokens) != 1:
        raise MalformedConfiguration(f"blocks disagree on the token: {tokens}")
    t = t_for_token(sched, tokens.pop())
    cur, prev = zip(*pairs)
    y = Periodic._of(p.phi.alphabet, cur)
    if apply_rule(p.phi_inv, y).word != prev:
        raise MalformedConfiguration(
            "previous words are not the phi-preimage of the current ones"
        )
    return SuspensionState(y, b, t)


def _decode_block(cells: tuple, p: SimParams) -> tuple:
    """(cur, prev) of one block, read cell by cell; raises at the first
    cell that breaks a layer invariant.  The head's token is left to
    `decode`."""
    bits, prog = p.word_bits, p.codec.program
    data = []
    for o, cell in enumerate(cells):
        try:
            bb, ps, ds, ss = cell
        except (TypeError, ValueError):
            raise MalformedConfiguration(_NOT_A_CELL) from None
        if bb != (1 if o == 0 else 0):
            raise MalformedConfiguration("block layer is not 1 0^{B-1}")
        if ps != prog[o]:
            raise MalformedConfiguration(f"program layer mismatch at offset {o}")
        if o and ss != _BLANK:
            raise MalformedConfiguration("stray state token inside a block")
        if o < 2 * bits:
            data.append(ds)
        elif ds != _BLANK:
            raise MalformedConfiguration("stray data outside the words")
    alphabet = p.phi.alphabet
    return (
        _bits_to_symbol(data[:bits], alphabet),
        _bits_to_symbol(data[bits:], alphabet),
    )


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
    """The cycle map conjugated through the encoding.

    Cost for a period of P*B cells: one `decode`, then a copy of the cells
    with the P head cells given the next token off the wrap (t != 0), or
    one `encode` at it.  A configuration this map (or its inverse) has just
    returned is not decoded again when it is passed straight back with the
    same `p` and `sched` objects, so an orbit decodes only its start."""
    return _conjugated_step(c, "phi", p, sched)


def pi_inv_on_encoded(
    c: Periodic, p: SimParams, sched: CycleSchedule
) -> Periodic:
    """The inverse cycle map conjugated through the encoding, at the cost
    of `pi_on_encoded`; its wrap is at t = 1."""
    return _conjugated_step(c, "phi_inv", p, sched)


def _conjugated_step(
    c: Periodic, generator: str, p: SimParams, sched: CycleSchedule
) -> Periodic:
    # encode(step_suspension(decode(c))): off the wrap the step hands back
    # the very y that decode checked, so only the heads' token changes.
    # The word is compared too: a tuple cannot change, so a `word`
    # reassigned since this map returned `c` is decoded again.
    codec = p.codec
    kept = codec.last
    if kept and c is kept[0] and c.word is kept[1] and sched is kept[2]:
        s = kept[3]
    else:
        s = decode(c, p, sched)
    new = step_suspension(s, generator, p, sched)
    if new.y is not s.y:
        out = encode(new, p, sched)
    else:
        cells, state = list(c.word), (sched._tokens[new.t],)
        for j, cur in enumerate(new.y.word):
            cells[(j * p.B - new.b) % len(cells)] = codec.heads[cur] + state
        out = Periodic._of(sched._alphabet, tuple(cells))
    codec.last = (out, out.word, sched, new)
    return out


# ---------------------------------------------------------------------------
# spacetime transforms and towers


def shape_transform(*levels) -> tuple:
    """The product, in order, of the levels' 2x2 matrices [[1, D], [0, T/B]],
    each sending input spacetime shapes to suspension spacetime shapes
    (columns act on (space, time)): it fixes (1, 0) and sends (0, 1) to
    (D, T/B).  A level is anything with B, T and D attributes, a
    CycleSchedule or a slope_engine.LevelParams; no level gives the
    identity."""
    x, y, p = compose_levels(levels)
    return (Fraction(1), Fraction(x, p)), (Fraction(0), Fraction(y, p))


def compose_levels(levels) -> tuple:
    """`shape_transform(*levels)` as integers (x, y, p) with the product
    [[1, x/p], [0, y/p]]: every factor [[1, D], [0, T/B]] keeps that shape,
    so a level costs a few integer products and no gcd.  y is the product
    of the T and p of the B."""
    x, y, p = 0, 1, 1
    for lv in levels:
        x, y, p = lv.D * lv.B * p + x * lv.T, y * lv.T, p * lv.B
    return x, y, p


class TowerLevel(Record):
    """Block parameters of one nesting level; `table_entries` sizes the
    lookup stage when the induced map's table is not materialized (`tower`
    checks it, through `fixed_stages`)."""

    B: int
    W: int
    D: int
    table_entries: int = 0

    def __post_init__(self):
        _check_level(self.B, self.W)


class TowerReport(Record):
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
    for depth_in, lv in enumerate(reversed(levels)):
        try:
            sched = schedule_from_counts(n, lv.table_entries, lv.B, lv.W, lv.D)
        except BlockTooSmall as exc:
            raise BlockTooSmall(
                f"level {len(levels) - 1 - depth_in}: {exc}"
            ) from None
        sizes.append(n)
        scheds.append(sched)
        n *= lv.B * sched.T
    sizes.reverse()
    scheds.reverse()
    state_count = len(base.points) * (n // base.N)
    return TowerReport(tuple(sizes), tuple(scheds), state_count, shape_transform(*scheds))


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
    doc = json_object(text, {
        "phi": {}, "phi_inv": {}, "B": int, "W": int, "D": int,
        "Y": {"kind": str, "data": [[_SYMBOL]], "max_period": int},
    })
    phi = rule_from_json(json.dumps(doc["phi"]))
    phi_inv = rule_from_json(json.dumps(doc["phi_inv"]))
    spec = doc["Y"]
    if spec["kind"] == "periodic_points":
        points = tuple(Periodic(phi.alphabet, w) for w in spec["data"])
    elif spec["kind"] == "full":
        points = periodic_family(phi.alphabet, spec["max_period"])
    else:
        raise ValueError(f"unknown Y kind {spec['kind']!r}")
    return SimParams(phi, phi_inv, points, doc["B"], doc["W"], doc["D"])
