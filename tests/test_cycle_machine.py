"""Tests for the suspension machinery: schedules, generators, encoding,
conjugated cycle map, and towers."""

import json
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from expansive_lab import cycle_machine
from expansive_lab.cycle_machine import (
    _DATA_SYMBOLS,
    _PROGRAM_SYMBOLS,
    BlockTooSmall,
    MalformedConfiguration,
    SimParams,
    SuspensionState,
    TowerLevel,
    build_schedule,
    decode,
    encode,
    encoding_alphabet,
    idealized_schedule,
    min_block_length,
    pi_inv_on_encoded,
    pi_on_encoded,
    program_word,
    schedule_from_counts,
    shape_transform,
    sim_params_from_json,
    sim_params_to_json,
    stage_segments,
    step_suspension,
    t_for_token,
    token_for_t,
    tower,
)
from expansive_lab.dynamics_analysis import periodic_family
from expansive_lab.shift_core import (
    Alphabet,
    LocalRule,
    Padded,
    Periodic,
    apply_rule,
    identity_rule,
    shift_rule,
)
from expansive_lab.slope_engine import LevelParams

AB = Alphabet(("a", "b"))
IDENT = identity_rule(AB)
SWAP = LocalRule(AB, 0, {("a",): "b", ("b",): "a"}, "identity")
POINTS = (
    Periodic(AB, ("a",)),
    Periodic(AB, ("b",)),
    Periodic(AB, ("a", "b")),
    Periodic(AB, ("a", "a", "b")),
)


def ident_params(b, w, d):
    return SimParams(IDENT, IDENT, POINTS, b, w, d)


# ---------------------------------------------------------------------------
# parameters and schedule


def test_params_reject_wide_rules():
    wide = shift_rule(AB, 2)
    with pytest.raises(ValueError):
        SimParams(wide, wide, POINTS, 8, 1, 0)


def test_params_reject_non_inverse_pair():
    sigma = shift_rule(AB, 1)
    with pytest.raises(ValueError):
        SimParams(sigma, sigma, POINTS, 64, 1, 0)


def test_params_reject_nonperiodic_points():
    with pytest.raises(TypeError):
        SimParams(IDENT, IDENT, ("ab",), 8, 1, 0)


def test_params_reject_zero_wait():
    with pytest.raises(ValueError):
        ident_params(8, 0, 0)


BIN = Alphabet(("0", "1"))


@pytest.mark.parametrize(
    "phi, phi_inv, points, message",
    [
        (IDENT, identity_rule(BIN), POINTS, "phi and phi_inv use different alphabets"),
        (IDENT, IDENT, (Periodic(BIN, "0"),), "represented point over the wrong alphabet"),
        # phi_inv undoes phi on 1^inf, but phi does not undo phi_inv there
        (LocalRule(BIN, 0, {("0",): "0", ("1",): "0"}),
         LocalRule(BIN, 0, {("0",): "1", ("1",): "1"}),
         (Periodic(BIN, "1"),), "phi does not undo phi_inv on Periodic(['1'])"),
    ],
    ids=["rule-alphabets", "point-alphabet", "phi-after-phi-inv"],
)
def test_params_refusals_name_their_cause(phi, phi_inv, points, message):
    with pytest.raises(ValueError) as exc:
        SimParams(phi, phi_inv, points, 8, 1, 0)
    assert exc.value.args == (message,)


def test_step_refuses_a_state_over_another_alphabet():
    p = ident_params(8, 1, 0)
    with pytest.raises(ValueError) as exc:
        step_suspension(SuspensionState(Periodic(BIN, "0"), 0, 0), "phi", p,
                        build_schedule(p))
    assert exc.value.args == ("state over the wrong alphabet",)


def test_schedule_worked_example():
    sched = build_schedule(ident_params(64, 2, 0))
    assert sched.overhead == 16
    assert sched.T == (64 + 16) * 3 == 240


def test_schedule_linear_in_block_length():
    t1 = build_schedule(ident_params(64, 2, 0)).T
    t2 = build_schedule(ident_params(128, 2, 0)).T
    assert t2 - t1 == 64 * (1 + 2 + 0)


def test_schedule_depends_on_w_plus_d():
    assert (
        build_schedule(ident_params(64, 2, 1)).T
        == build_schedule(ident_params(64, 3, 0)).T
    )


def test_schedule_product_form_on_a_grid():
    for b in (32, 64, 128):
        for w in (1, 2, 3, 4):
            for d in (-3, -1, 0, 2):
                sched = build_schedule(ident_params(b, w, d))
                assert sched.T == (b + sched.overhead) * (1 + w + abs(d))
                ratio = Fraction(sched.T, b * (1 + w + abs(d)))
                assert 1 <= ratio <= 1 + Fraction(sched.overhead, b)
                if w >= 2:
                    assert sched.T >= 2 * b


def test_schedule_stages_tile_the_cycle():
    sched = build_schedule(ident_params(16, 3, 2))
    assert sum(dur for _, _, dur in stage_segments(sched)) == sched.T
    names = [name for name, _, _ in stage_segments(sched)]
    assert names == [
        "transmit", "copy", "lookup", "writeback",
        "shift", "shift", "wait", "wait", "wait", "resync",
    ]


def token_by_walk(sched, t):
    """The token of cycle time t by a walk over the stages; the reference
    for the schedule's token table."""
    for name, rep, dur in stage_segments(sched):
        if t < dur:
            return (name, rep, t)
        t -= dur
    raise AssertionError("stage durations do not tile the cycle")


def test_tokens_are_bijective_with_cycle_times():
    for w, d in ((2, 1), (3, -2)):
        sched = build_schedule(ident_params(16, w, d))
        seen = set()
        for t in range(sched.T):
            token = token_for_t(sched, t)
            assert token == token_by_walk(sched, t)
            assert t_for_token(sched, token) == t
            seen.add(token)
        assert len(seen) == sched.T
        assert token_for_t(sched, 0) == ("transmit", 0, 0)


def test_token_lookup_rejects_junk():
    sched = build_schedule(ident_params(8, 1, 0))
    with pytest.raises(MalformedConfiguration):
        t_for_token(sched, ("transmit", 0, stage_segments(sched)[0][2]))
    # a token matches only in full, not on its first three fields
    with pytest.raises(MalformedConfiguration, match="no cycle time shows"):
        t_for_token(sched, ("transmit", 0, 0, "x"))
    for t in (sched.T, -1):
        with pytest.raises(ValueError):
            token_for_t(sched, t)


def test_block_too_small_for_program():
    sigma, sigma_inv = shift_rule(AB, 1), shift_rule(AB, -1)
    p = SimParams(sigma, sigma_inv, POINTS, 51, 1, 1)
    assert len(program_word(p)) == 52
    with pytest.raises(BlockTooSmall):
        build_schedule(p)
    build_schedule(SimParams(sigma, sigma_inv, POINTS, 52, 1, 1))


def test_block_too_small_for_data_words():
    # five symbols need three bits, so two words need six cells
    a5 = Alphabet(tuple("abcde"))
    p = SimParams(identity_rule(a5), identity_rule(a5),
                  (Periodic(a5, ("a",)),), 5, 1, 0)
    with pytest.raises(BlockTooSmall):
        build_schedule(p)


def test_idealized_schedule_has_no_overhead():
    sched = idealized_schedule(10, 2, 1)
    assert sched.T == 10 * 4
    assert sched.overhead == 0


def test_schedule_follows_the_closed_form_law():
    # C = 3(2b+2) + e(6b+2) + 4 with b = max(1, bit_length(n-1)), written
    # out here rather than read from the schedule code
    for n in range(1, 65):
        b = max(1, (n - 1).bit_length())
        for e in range(6):
            c = 3 * (2 * b + 2) + e * (6 * b + 2) + 4
            stages = {"transmit": 2 * b + 2, "copy": 2 * b + 2,
                      "lookup": e * (6 * b + 2) + 2, "writeback": 2 * b + 2,
                      "resync": 2}
            for w in (1, 2, 3):
                for d in (-2, 0, 1, 3):
                    bl = min_block_length(n, e, w, d)
                    for B in (bl, bl + 1, 3 * bl):
                        sched = schedule_from_counts(n, e, B, w, d)
                        assert sched.overhead == c
                        assert sched.T == (B + c) * (1 + w + abs(d))
                        for name, _, dur in stage_segments(sched):
                            if name in ("shift", "wait"):
                                assert dur == B + c
                            elif name == "transmit":
                                assert dur == B + stages[name]
                            else:
                                assert dur == stages[name]
    for B, w, d in ((1, 1, 0), (10, 2, 1), (7, 3, -2)):
        sched = idealized_schedule(B, w, d)
        assert (sched.overhead, sched.T) == (0, B * (1 + w + abs(d)))
        assert [dur for _, _, dur in stage_segments(sched)] == (
            [B, 0, 0, 0] + [B] * (abs(d) + w) + [0]
        )


# ---------------------------------------------------------------------------
# suspension generators


def test_sigma_advances_y_only_at_phase_zero():
    p = ident_params(6, 1, 0)
    sched = build_schedule(p)
    y = POINTS[3]
    hit = step_suspension(SuspensionState(y, 0, 5), "sigma", p, sched)
    assert hit == SuspensionState(y.shifted(1), 1, 5)
    miss = step_suspension(SuspensionState(y, 3, 5), "sigma", p, sched)
    assert miss == SuspensionState(y, 4, 5)


def test_phi_advances_y_only_at_time_zero():
    sigma, sigma_inv = shift_rule(AB, 1), shift_rule(AB, -1)
    p = SimParams(sigma, sigma_inv, POINTS, 52, 1, 1)
    sched = build_schedule(p)
    y = POINTS[3]
    hit = step_suspension(SuspensionState(y, 2, 0), "phi", p, sched)
    assert hit == SuspensionState(apply_rule(sigma, y).shifted(1), 2, 1)
    miss = step_suspension(SuspensionState(y, 2, 9), "phi", p, sched)
    assert miss == SuspensionState(y, 2, 10)


def test_full_cycles_apply_each_map_once():
    p = ident_params(6, 1, 2)
    sched = build_schedule(p)
    state = SuspensionState(POINTS[3], 4, 3)
    cur = state
    for _ in range(p.B):
        cur = step_suspension(cur, "sigma", p, sched)
    assert cur == SuspensionState(state.y.shifted(1), 4, 3)
    cur = SuspensionState(POINTS[3], 4, 0)
    for _ in range(sched.T):
        cur = step_suspension(cur, "phi", p, sched)
    assert cur == SuspensionState(POINTS[3].shifted(2), 4, 0)


def test_generators_commute_and_invert_exhaustively():
    """sigma_B and phi_T generate a Z^2 action: they commute on every state
    of a small instance, and each inverse generator undoes its partner."""
    p = ident_params(6, 1, 0)
    sched = build_schedule(p)
    assert sched.T <= 60
    for y in POINTS:
        for b in range(p.B):
            for t in range(sched.T):
                s = SuspensionState(y, b, t)
                sp = step_suspension(s, "sigma", p, sched)
                fp = step_suspension(s, "phi", p, sched)
                assert (
                    step_suspension(sp, "phi", p, sched)
                    == step_suspension(fp, "sigma", p, sched)
                )
                assert step_suspension(sp, "sigma_inv", p, sched) == s
                assert step_suspension(fp, "phi_inv", p, sched) == s
                assert (
                    step_suspension(
                        step_suspension(s, "sigma_inv", p, sched),
                        "sigma", p, sched,
                    )
                    == s
                )
                assert (
                    step_suspension(
                        step_suspension(s, "phi_inv", p, sched),
                        "phi", p, sched,
                    )
                    == s
                )


def test_step_rejects_bad_input():
    p = ident_params(6, 1, 0)
    sched = build_schedule(p)
    with pytest.raises(ValueError):
        step_suspension(SuspensionState(POINTS[0], 6, 0), "sigma", p, sched)
    with pytest.raises(ValueError):
        step_suspension(SuspensionState(POINTS[0], 0, sched.T), "phi", p, sched)
    with pytest.raises(ValueError):
        step_suspension(SuspensionState(POINTS[0], 0, 0), "tau", p, sched)


# ---------------------------------------------------------------------------
# encoding


def test_program_word_identity():
    assert program_word(ident_params(4, 1, 0)) == ("w", "#", "#")


def test_program_word_swap_rule():
    p = SimParams(SWAP, SWAP, POINTS, 16, 1, 0)
    assert program_word(p) == (
        "0", "0", "0", "1", "1", ";",
        "1", "1", "1", "0", "0", ";",
        "w", "#", "#",
    )


def test_program_word_displacement_arrows():
    left = program_word(ident_params(8, 1, -2))
    assert left[-3:] == ("<", "<", "#")
    right = program_word(ident_params(8, 2, 1))
    assert right[-5:] == ("w", "w", "#", ">", "#")


def test_encode_layer_structure():
    p = SimParams(SWAP, SWAP, POINTS, 16, 1, 0)
    sched = build_schedule(p)
    y = Periodic(AB, ("a", "b"))
    enc = encode(SuspensionState(y, 3, 0), p, sched)
    assert enc.period == 2 * p.B
    # block layer: exactly one start per block, at -b modulo B
    starts = [i for i in range(enc.period) if enc[i][0] == 1]
    assert starts == [(p.B - 3), (2 * p.B - 3)]
    # data layer at t=0 holds (y_j, (phi^-1 y)_j); swap is its own inverse
    first = -3
    assert enc[first][2] == "0" and enc[first + 1][2] == "1"  # y_0, prev=b
    second = -3 + p.B
    assert enc[second][2] == "1" and enc[second + 1][2] == "0"
    # state tokens only at block starts, synchronized at t=0
    for i in range(enc.period):
        token = enc[i][3]
        if enc[i][0] == 1:
            assert token == token_for_t(sched, 0)
        else:
            assert token == "."


def test_decode_inverts_encode_exhaustively():
    p = ident_params(4, 1, 0)
    sched = build_schedule(p)
    for y in POINTS:
        for b in range(p.B):
            for t in range(sched.T):
                s = SuspensionState(y, b, t)
                assert decode(encode(s, p, sched), p, sched) == s


def test_encode_is_injective_on_a_small_instance():
    p = ident_params(4, 1, 0)
    sched = build_schedule(p)
    seen = {}
    for y in POINTS[:3]:
        for b in range(p.B):
            for t in range(sched.T):
                enc = encode(SuspensionState(y, b, t), p, sched)
                key = (enc.word, enc.period)
                assert key not in seen
                seen[key] = True


def test_decode_rejects_malformed_layers():
    p = ident_params(4, 1, 0)
    sched = build_schedule(p)
    good = encode(SuspensionState(POINTS[2], 0, 0), p, sched)
    alpha = good.alphabet

    def mutate(i, layer, value):
        cells = list(good.word)
        cell = list(cells[i])
        cell[layer] = value
        cells[i] = tuple(cell)
        return Periodic(alpha, cells)

    with pytest.raises(MalformedConfiguration):
        decode(mutate(1, 0, 1), p, sched)  # second block start
    with pytest.raises(MalformedConfiguration):
        decode(mutate(1, 1, "w"), p, sched)  # program damage
    with pytest.raises(MalformedConfiguration):
        decode(mutate(2, 2, "1"), p, sched)  # data outside the words
    with pytest.raises(MalformedConfiguration):
        decode(
            mutate(1, 3, token_for_t(sched, 0)), p, sched
        )  # stray token
    with pytest.raises(MalformedConfiguration):
        decode(
            mutate(4, 3, token_for_t(sched, 1)), p, sched
        )  # blocks disagree on t
    with pytest.raises(MalformedConfiguration):
        decode(Periodic(alpha, good.word[:6]), p, sched)  # period not k*B
    with pytest.raises(MalformedConfiguration, match="^encoded configurations are periodic$"):
        decode(Padded(alpha, good.word, good.word[-1]), p, sched)
    with pytest.raises(MalformedConfiguration):
        # previous word no longer the phi-preimage
        broken = mutate(1, 2, "1")
        decode(broken, p, sched)


def test_rejected_preimage_applies_phi_inv_once(monkeypatch):
    p = ident_params(4, 1, 0)
    sched = build_schedule(p)
    c = encode(SuspensionState(Periodic(AB, "abaab"), 0, 0), p, sched)
    cells = list(c.word)
    cells[1] = cells[1][:2] + ("1",) + cells[1][3:]  # block 0's previous word
    calls = []

    def counting(rule, cfg):
        calls.append(rule)
        return apply_rule(rule, cfg)

    monkeypatch.setattr(cycle_machine, "apply_rule", counting)
    with pytest.raises(MalformedConfiguration, match="phi-preimage"):
        decode(Periodic(c.alphabet, cells), p, sched)
    # the damaged block is unknown to the codec and is read cell by cell;
    # phi_inv is applied to the five decoded words once, on the one path
    assert calls == [p.phi_inv]


def test_decode_rejects_unknown_tokens():
    p = ident_params(4, 1, 0)
    sched = build_schedule(p)
    good = encode(SuspensionState(POINTS[2], 0, 0), p, sched)
    token = ("transmit", 0, 0, "x")
    cells = [
        cell[:3] + (token,) if cell[0] == 1 else cell for cell in good.word
    ]
    bad = Periodic(Alphabet(dict.fromkeys(cells)), cells)
    with pytest.raises(MalformedConfiguration) as err:
        decode(bad, p, sched)
    assert str(err.value) == f"no cycle time shows token {token!r}"
    assert decode_outcome(decode_by_cell_scan, bad, p, sched) == (
        MalformedConfiguration, str(err.value)
    )


def test_decode_rejects_a_data_word_past_the_alphabet():
    # three symbols take two bits, so the word 11 names no symbol
    abc = Alphabet("abc")
    p = SimParams(identity_rule(abc), identity_rule(abc), (Periodic(abc, "abc"),), 4, 1, 0)
    sched = build_schedule(p)
    good = encode(SuspensionState(p.points[0], 0, 0), p, sched)
    cells = [cell[:2] + ("1",) + cell[3:] if i < 2 else cell
             for i, cell in enumerate(good.word)]
    with pytest.raises(MalformedConfiguration) as exc:
        decode(Periodic(good.alphabet, cells), p, sched)
    assert exc.value.args == ("data word 3 outside the alphabet",)


def test_decode_rejects_all_zero_block_layer():
    p = ident_params(4, 1, 0)
    sched = build_schedule(p)
    good = encode(SuspensionState(POINTS[0], 0, 0), p, sched)
    cells = [(0,) + cell[1:] for cell in good.word]
    with pytest.raises(MalformedConfiguration):
        decode(Periodic(good.alphabet, cells), p, sched)


CODEC_MAPS = {
    "identity": (IDENT, IDENT),
    "flip": (SWAP, SWAP),
    "shift": (shift_rule(AB, 1), shift_rule(AB, -1)),
}


@lru_cache(maxsize=None)
def codec_instance(kind, w, d):
    phi, phi_inv = CODEC_MAPS[kind]
    entries = len(set(phi.table) | set(phi_inv.table))
    p = SimParams(phi, phi_inv, POINTS, min_block_length(2, entries, w, d), w, d)
    return p, build_schedule(p)


NOT_A_CELL = "a cell is not a (block, program, data, state) 4-tuple"


def decode_by_cell_scan(c, p, sched):
    """`decode` by a scan of every cell of every layer of the whole
    configuration, with the cycle time found by its own walk over the
    stages; the reference the one-pass decoder is tested against."""
    if not isinstance(c, Periodic):
        raise MalformedConfiguration("encoded configurations are periodic")
    B, bits = p.B, p.word_bits
    if c.period % B:
        raise MalformedConfiguration(
            f"period {c.period} is not a multiple of B={B}"
        )
    try:
        starts = [k for k in range(B) if c[-k][0] == 1]
    except (TypeError, IndexError):
        raise MalformedConfiguration(NOT_A_CELL) from None
    if not starts:
        raise MalformedConfiguration("no block beginning near the origin")
    b = min(starts)
    prog = program_word(p)
    prog += (".",) * (B - len(prog))

    def symbol(bits_seq):
        v = 0
        for ch in bits_seq:
            if ch not in ("0", "1"):
                raise MalformedConfiguration(f"non-bit {ch!r} in a data word")
            v = 2 * v + (ch == "1")
        if v >= len(p.phi.alphabet):
            raise MalformedConfiguration(f"data word {v} outside the alphabet")
        return p.phi.alphabet.symbols[v]

    tokens = set()
    words, prevs = [], []
    for j in range(c.period // B):
        start = -b + j * B
        cur_bits, prev_bits = [], []
        for o in range(B):
            try:
                bb, ps, ds, ss = c[start + o]
            except (TypeError, ValueError):
                raise MalformedConfiguration(NOT_A_CELL) from None
            if bb != (1 if o == 0 else 0):
                raise MalformedConfiguration("block layer is not 1 0^{B-1}")
            if ps != prog[o]:
                raise MalformedConfiguration(
                    f"program layer mismatch at offset {o}"
                )
            if o == 0:
                tokens.add(ss)
            elif ss != ".":
                raise MalformedConfiguration("stray state token inside a block")
            if o < bits:
                cur_bits.append(ds)
            elif o < 2 * bits:
                prev_bits.append(ds)
            elif ds != ".":
                raise MalformedConfiguration("stray data outside the words")
        words.append(symbol(cur_bits))
        prevs.append(symbol(prev_bits))
    if len(tokens) != 1:
        raise MalformedConfiguration(f"blocks disagree on the token: {tokens}")
    token = tokens.pop()
    t = next((u for u in range(sched.T) if token_by_walk(sched, u) == token), None)
    if t is None:
        raise MalformedConfiguration(f"no cycle time shows token {token!r}")
    y = Periodic(p.phi.alphabet, words)
    if list(apply_rule(p.phi_inv, y).word) != prevs:
        raise MalformedConfiguration(
            "previous words are not the phi-preimage of the current ones"
        )
    return SuspensionState(y, b, t)


def decode_outcome(decoder, c, p, sched):
    try:
        return decoder(c, p, sched)
    except Exception as exc:  # the oracle compares every verdict and message
        return type(exc), str(exc)


_ANY = st.integers(0, 10**6)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(sorted(CODEC_MAPS)),
    w=st.integers(1, 2),
    d=st.integers(-1, 2),
    word=st.text("ab", min_size=1, max_size=4),
    b=_ANY,
    t=_ANY,
    change=st.none() | st.tuples(_ANY, st.just(0) | _ANY, st.integers(0, 4), _ANY),
    fresh=st.booleans(),
)
# the head of block 1 loses its block bit, or shows another token
@example(kind="identity", w=1, d=0, word="ab", b=0, t=0, change=(1, 0, 0, 0), fresh=False)
@example(kind="identity", w=1, d=0, word="ab", b=0, t=0, change=(1, 0, 3, 2), fresh=False)
# an int cell where b is sought, a short head, a short tail cell
@example(kind="flip", w=1, d=0, word="ab", b=0, t=0, change=(0, 0, 4, 0), fresh=False)
@example(kind="flip", w=1, d=0, word="ab", b=0, t=0, change=(1, 0, 4, 2), fresh=False)
@example(kind="flip", w=1, d=0, word="ab", b=0, t=0, change=(1, 3, 4, 3), fresh=False)
def test_decode_matches_cell_scan(kind, w, d, word, b, t, change, fresh):
    """`decode` gives the whole-configuration scan's state, or its
    exception and message, on encoded states with at most one cell changed
    in one layer (layer 4: the cell loses its four layers); `fresh`
    decodes with equal parameters whose tables are still empty."""
    p, sched = codec_instance(kind, w, d)
    y = Periodic(AB, word)
    s = SuspensionState(y, b % p.B, t % sched.T)
    c = encode(s, p, sched)
    # encode builds its result unchecked; the validating constructor agrees
    assert Periodic(c.alphabet, c.word) == c and type(c.word) is tuple
    if change is not None:
        j, o, layer, k = change
        i = ((j % y.period) * p.B + o % p.B - s.b) % c.period
        cells = list(c.word)
        if layer == 4:
            cells[i] = (7, (), cells[i][:2], cells[i][:3], cells[i] + ("x",))[k % 5]
            c = Periodic(Alphabet(dict.fromkeys(cells)), cells)
        else:
            tokens = tuple(token_by_walk(sched, u) for u in range(sched.T))
            values = ((0, 1), _PROGRAM_SYMBOLS, _DATA_SYMBOLS, (".",) + tokens)[layer]
            cell = list(cells[i])
            cell[layer] = values[k % len(values)]
            cells[i] = tuple(cell)
            c = Periodic(c.alphabet, cells)
    if fresh:
        p = SimParams(p.phi, p.phi_inv, p.points, p.B, p.W, p.D)
    want = decode_outcome(decode_by_cell_scan, c, p, sched)
    assert decode_outcome(decode, c, p, sched) == want
    if change is None:
        assert want == s


def test_decode_leaves_odd_head_cells_to_the_scan():
    p, sched = codec_instance("identity", 1, 0)
    c = encode(SuspensionState(POINTS[2], 0, 0), p, sched)
    cells = list(c.word)
    cells[p.B] += ("x",)  # the head of block 1 gains a fifth field
    odd = Periodic(Alphabet(dict.fromkeys(cells)), cells)
    want = decode_outcome(decode_by_cell_scan, odd, p, sched)
    assert want == (MalformedConfiguration, NOT_A_CELL)
    assert decode_outcome(decode, odd, p, sched) == want


def test_codec_builds_blocks_only_for_pairs_met():
    a64 = Alphabet(tuple(f"s{v}" for v in range(64)))
    swap = LocalRule(a64, 0, {("s0",): "s1", ("s1",): "s0"}, "identity")
    y = Periodic(a64, ("s0", "s5", "s63", "s5"))
    p = SimParams(swap, swap, (y,), min_block_length(64, 2, 1, 0), 1, 0)
    sched = build_schedule(p)
    for s in (SuspensionState(y, 3, 7), SuspensionState(y.shifted(1), 0, 0)):
        assert decode(encode(s, p, sched), p, sched) == s
    # previous words are swap(y): the blocks store (s0, s1), (s5, s5) and
    # (s63, s63) of the 64 * 64 possible pairs
    met = {("s0", "s1"), ("s5", "s5"), ("s63", "s63")}
    assert set(p.codec.tails) == met
    assert sorted(p.codec.blocks.values()) == sorted(met)


def test_encoding_alphabet_rejects_foreign_schedule():
    p = ident_params(4, 1, 0)
    with pytest.raises(ValueError):
        encoding_alphabet(p, idealized_schedule(4, 1, 0))
    # the alphabet every encoding of the schedule is over: the product of
    # the four layers, the state layer a blank or one token per cycle time
    sched = build_schedule(p)
    alphabet = encoding_alphabet(p, sched)
    assert encode(SuspensionState(POINTS[2], 1, 3), p, sched).alphabet is alphabet
    assert len(alphabet) == 2 * len(_PROGRAM_SYMBOLS) * len(_DATA_SYMBOLS) * (sched.T + 1)


def test_codec_rejects_schedule_of_another_table():
    # the same B, W, D and word width, but no table entries against two
    flip = SimParams(SWAP, SWAP, POINTS, 15, 1, 0)
    own, other = build_schedule(flip), build_schedule(ident_params(15, 1, 0))
    assert (own.T, other.T) == (94, 62)
    s = SuspensionState(POINTS[2], 0, 0)
    good = encode(s, flip, own)
    for call in (lambda: encode(s, flip, other),
                 lambda: decode(good, flip, other)):
        with pytest.raises(ValueError, match="different parameters"):
            call()


# ---------------------------------------------------------------------------
# the conjugated cycle map


def test_pi_off_sync_changes_only_tokens():
    p = ident_params(4, 1, 0)
    sched = build_schedule(p)
    enc = encode(SuspensionState(POINTS[2], 1, 3), p, sched)
    nxt = pi_on_encoded(enc, p, sched)
    diff = [i for i in range(enc.period) if enc[i] != nxt[i]]
    assert diff  # the token layer did move
    assert all(enc[i][:3] == nxt[i][:3] for i in diff)
    assert decode(nxt, p, sched).t == 4


@pytest.mark.parametrize("kind", sorted(CODEC_MAPS))
@pytest.mark.parametrize("w, d", [(1, 0), (2, 1), (1, -1)])
def test_pi_matches_encode_of_the_stepped_state(kind, w, d, monkeypatch):
    """Both conjugated maps equal `encode(step_suspension(decode(c)))` on
    every point of period <= 4, every block phase and the cycle times next
    to the wraps; off its wrap a map calls no `encode`."""
    p, sched = codec_instance(kind, w, d)
    encoded = []

    def counting(s, p, sched):
        encoded.append(s)
        return encode(s, p, sched)

    monkeypatch.setattr(cycle_machine, "encode", counting)
    maps = (("phi", pi_on_encoded, 0), ("phi_inv", pi_inv_on_encoded, 1))
    for y in periodic_family(AB, 4):
        for b in range(p.B):
            for t in {0, 1, 2, sched.T - 2, sched.T - 1}:
                c = encode(SuspensionState(y, b, t), p, sched)
                for generator, pi, wrap in maps:
                    s = step_suspension(decode(c, p, sched), generator, p, sched)
                    want = encode(s, p, sched)
                    got = pi(c, p, sched)
                    assert got.word == want.word and type(got.word) is tuple
                    assert got.alphabet is want.alphabet
                    assert encoded == ([s] if t == wrap else [])
                    encoded.clear()


def tampered_encodings(p, sched, t):
    """Encodings of a state at cycle time t, each broken in one way that
    `decode` rejects, by name."""
    B = p.B
    good = encode(SuspensionState(POINTS[3], 0, t), p, sched)

    def with_cells(changes):
        cells = list(good.word)
        for i, cell in changes.items():
            cells[i] = cell
        return Periodic(Alphabet(dict.fromkeys(cells)), cells)

    prev = good.word[p.word_bits]  # block 0's first previous-word bit
    flipped = prev[:2] + ("1" if prev[2] == "0" else "0",) + prev[3:]
    later = good.word[B][:3] + (token_for_t(sched, (t + 1) % sched.T),)
    unknown = ("transmit", 0, 0, "x")
    return {
        "previous word": with_cells({p.word_bits: flipped}),
        "tokens disagree": with_cells({B: later}),
        "period": Periodic(good.alphabet, good.word[: B + 1]),
        "foreign alphabet": with_cells({
            j: good.word[j][:3] + (unknown,) for j in range(0, good.period, B)
        }),
        "int cell": with_cells({0: 7}),
        "short head": with_cells({B: good.word[B][:2]}),
        "short tail cell": with_cells({B + 3: good.word[B + 3][:3]}),
    }


@pytest.mark.parametrize("t", [0, 1, 5])
def test_pi_validates_like_decode(t):
    # t = 0 is the wrap of pi, t = 1 that of its inverse, t = 5 neither's
    p, sched = codec_instance("flip", 1, 0)
    for name, c in tampered_encodings(p, sched, t).items():
        want = decode_outcome(decode, c, p, sched)
        assert want[0] is MalformedConfiguration, name
        assert want == decode_outcome(decode_by_cell_scan, c, p, sched), name
        for pi in (pi_on_encoded, pi_inv_on_encoded):
            assert decode_outcome(pi, c, p, sched) == want, name


# generator sequences of chained orbits, each with the cycle time it starts
# at so that its steps cross the wrap of each map it uses
CHAINED_ORBITS = {
    "pi": (("phi",) * 6, -3),
    "pi_inv": (("phi_inv",) * 6, 3),
    "alternating": (("phi", "phi_inv") * 3, 0),
}
CONJUGATED = {"phi": pi_on_encoded, "phi_inv": pi_inv_on_encoded}


def counting_decodes(monkeypatch) -> list:
    """Make `cycle_machine.decode` record each configuration it is given."""
    decoded = []

    def counting(c, p, sched):
        decoded.append(c)
        return decode(c, p, sched)

    monkeypatch.setattr(cycle_machine, "decode", counting)
    return decoded


@pytest.mark.parametrize("orbit", sorted(CHAINED_ORBITS))
@pytest.mark.parametrize("kind", sorted(CODEC_MAPS))
@pytest.mark.parametrize("w, d", [(1, 0), (2, 1), (1, -1)])
def test_chained_pi_matches_encode_of_the_stepped_state(orbit, kind, w, d):
    """Each step of an orbit that passes every returned configuration
    straight back equals `encode(step_suspension(decode(c)))`."""
    p, sched = codec_instance(kind, w, d)
    generators, start = CHAINED_ORBITS[orbit]
    for y in periodic_family(AB, 4):
        for b in {0, 1, p.B - 1}:
            c = encode(SuspensionState(y, b, start % sched.T), p, sched)
            for generator in generators:
                s = step_suspension(decode(c, p, sched), generator, p, sched)
                c = CONJUGATED[generator](c, p, sched)
                assert c.word == encode(s, p, sched).word


@pytest.mark.parametrize("kind", sorted(CODEC_MAPS))
def test_chained_pi_decodes_only_the_start(kind, monkeypatch):
    """An orbit from a fresh `encode`, across the wraps of both maps, calls
    `decode` once: each later step is handed back the configuration the
    step before returned."""
    p, sched = codec_instance(kind, 1, 0)
    c = encode(SuspensionState(POINTS[3], 1, sched.T - 3), p, sched)
    decoded = counting_decodes(monkeypatch)
    for generator in ("phi",) * 8 + ("phi_inv",) * 8:
        c = CONJUGATED[generator](c, p, sched)
    assert len(decoded) == 1
    assert decode(c, p, sched) == SuspensionState(POINTS[3], 1, sched.T - 3)


@pytest.mark.parametrize("pi, t", [(pi_on_encoded, 4), (pi_inv_on_encoded, 6)])
def test_pi_decodes_a_returned_configuration_given_a_new_word(pi, t):
    # `Periodic` attributes can be assigned; a tampered word is decoded
    p, sched = codec_instance("flip", 1, 0)
    c = pi(encode(SuspensionState(POINTS[3], 0, t), p, sched), p, sched)
    assert c.word == encode(SuspensionState(POINTS[3], 0, 5), p, sched).word
    c.word = tampered_encodings(p, sched, 5)["previous word"].word
    want = (MalformedConfiguration,
            "previous words are not the phi-preimage of the current ones")
    assert decode_outcome(decode, c, p, sched) == want
    assert decode_outcome(pi, c, p, sched) == want


def test_pi_decodes_a_returned_configuration_under_other_arguments(monkeypatch):
    """Passed back with an equal but distinct schedule or parameters, a
    returned configuration is decoded; with mismatched parameters it is
    refused as `decode` refuses it."""
    p, sched = codec_instance("shift", 1, 0)
    c = pi_on_encoded(encode(SuspensionState(POINTS[2], 1, 5), p, sched), p, sched)
    want = encode(SuspensionState(POINTS[2], 1, 7), p, sched).word
    decoded = counting_decodes(monkeypatch)
    same_sched = build_schedule(p)
    same_p = SimParams(p.phi, p.phi_inv, p.points, p.B, p.W, p.D)
    assert (same_sched, same_p) == (sched, p)
    assert same_sched is not sched and same_p is not p
    for args in ((p, same_sched), (same_p, sched)):
        decoded.clear()
        assert pi_on_encoded(c, *args).word == want
        assert decoded == [c]
    c = pi_on_encoded(c, p, sched)
    flip, _ = codec_instance("flip", 1, 0)
    with pytest.raises(ValueError, match="different parameters"):
        pi_on_encoded(c, flip, sched)


def test_pi_then_inverse_is_identity():
    p = ident_params(4, 1, 0)
    sched = build_schedule(p)
    for t in (0, 1, sched.T - 1):
        enc = encode(SuspensionState(POINTS[3], 2, t), p, sched)
        assert pi_inv_on_encoded(pi_on_encoded(enc, p, sched), p, sched) == enc
        assert pi_on_encoded(pi_inv_on_encoded(enc, p, sched), p, sched) == enc


def test_synchronized_cycle_shifts_data_one_block():
    p = ident_params(5, 1, 1)
    sched = build_schedule(p)
    enc = encode(SuspensionState(POINTS[3], 2, 0), p, sched)
    for _ in range(sched.T):
        enc = pi_on_encoded(enc, p, sched)
    out = decode(enc, p, sched)
    assert out == SuspensionState(POINTS[3].shifted(1), 2, 0)


def test_cycle_drift_runs_against_the_shear_sign():
    # One synchronized cycle with D != 0 moves the datum stored in block
    # x to block x - D, while shape_transform reports +D in its shear
    # slot.  The signs are mirror images: shifted(k) pulls content in
    # from the right, so a +D shift drags the stored words leftward.
    y = POINTS[3]
    for d in (1, -1):
        p = ident_params(5, 1, d)
        sched = build_schedule(p)
        enc = encode(SuspensionState(y, 0, 0), p, sched)
        for _ in range(sched.T):
            enc = pi_on_encoded(enc, p, sched)
        out = decode(enc, p, sched)
        assert (out.b, out.t) == (0, 0)
        for j in range(y.period):
            assert out.y[j] == y[j + d]
        assert shape_transform(sched)[0][1] == d


# ---------------------------------------------------------------------------
# transforms and towers


def test_shape_transform_idealized_matrix():
    a = shape_transform(idealized_schedule(4, 2, 1))
    assert a == ((1, 1), (0, 4))


def test_shape_transform_of_no_level_is_the_identity():
    assert shape_transform() == ((1, 0), (0, 1))


def test_tower_composes_transforms():
    base = ident_params(8, 2, 1)
    levels = [TowerLevel(32, 2, 1), TowerLevel(8, 2, 1)]
    # compare against the hand product of the two level matrices,
    # outermost on the left
    rep = tower(levels, base)
    a1, a2 = (shape_transform(s) for s in rep.schedules)
    expect = (
        (
            a1[0][0] * a2[0][0] + a1[0][1] * a2[1][0],
            a1[0][0] * a2[0][1] + a1[0][1] * a2[1][1],
        ),
        (
            a1[1][0] * a2[0][0] + a1[1][1] * a2[1][0],
            a1[1][0] * a2[0][1] + a1[1][1] * a2[1][1],
        ),
    )
    assert rep.transform == expect


def test_tower_depth_one_count():
    base = ident_params(8, 2, 1)
    rep = tower([TowerLevel(16, 1, 0)], base)
    assert rep.depth == 1
    assert rep.state_count == len(POINTS) * 16 * rep.schedules[0].T


def test_tower_depth_three_count_bound():
    base = ident_params(8, 2, 1)
    rep = tower(
        [TowerLevel(64, 2, 1), TowerLevel(32, 2, 1), TowerLevel(8, 2, 1)],
        base,
    )
    prod = 1
    for lv, sched in zip((64, 32, 8), rep.schedules):
        prod *= lv * sched.T
    assert rep.state_count >= prod >= 2**3
    # each level simulates the full state set of the next one in
    assert rep.alphabet_sizes == (21233664, 1536, 2)
    assert rep.state_count == 2435246456832
    assert rep.transform == ((1, 175), (0, 2268))


def test_tower_rejects_small_blocks_with_level_context():
    base = ident_params(8, 2, 1)
    with pytest.raises(BlockTooSmall) as err:
        tower([TowerLevel(64, 2, 1), TowerLevel(2, 1, 0)], base)
    assert "level 1" in str(err.value)


def test_tower_rejects_degenerate_input():
    base = ident_params(8, 2, 1)
    with pytest.raises(ValueError):
        tower([], base)
    with pytest.raises(ValueError):
        tower([TowerLevel(8, 1, 0)], SimParams(IDENT, IDENT, (), 8, 1, 0))


@pytest.mark.parametrize("fields", [(0, 1, 0), (4, 0, 0)])
def test_tower_level_validates_fields(fields):
    with pytest.raises(ValueError):
        TowerLevel(*fields)


def test_tower_checks_the_table_entries_of_a_level():
    with pytest.raises(ValueError, match="^table_entries must be >= 0$"):
        tower([TowerLevel(4, 1, 0, -1)], ident_params(8, 2, 1))


@pytest.mark.parametrize("make", [
    lambda b, w: SimParams(IDENT, IDENT, POINTS, b, w, 0),
    lambda b, w: TowerLevel(b, w, 0),
    lambda b, w: LevelParams(b, w, 0, 4),
], ids=["SimParams", "TowerLevel", "LevelParams"])
@pytest.mark.parametrize("b, w, message", [
    (0, 1, "block length B must be >= 1"),
    (4, 0, "wait count W must be >= 1"),
    (0, 0, "block length B must be >= 1"),
])
def test_level_checks_share_their_messages(make, b, w, message):
    """Every level's block length and wait count are checked alike, B
    first."""
    with pytest.raises(ValueError) as exc:
        make(b, w)
    assert exc.value.args == (message,)


# ---------------------------------------------------------------------------
# parameter files


def test_sim_params_json_roundtrip():
    sigma, sigma_inv = shift_rule(AB, 1), shift_rule(AB, -1)
    p = SimParams(sigma, sigma_inv, POINTS, 52, 1, 1)
    assert sim_params_from_json(sim_params_to_json(p)) == p


def test_sim_params_hash():
    sigma, sigma_inv = shift_rule(AB, 1), shift_rule(AB, -1)
    p = SimParams(sigma, sigma_inv, POINTS, 52, 1, 1)
    back = sim_params_from_json(sim_params_to_json(p))
    assert hash(back) == hash(p)
    assert {p, back, ident_params(52, 1, 1)} == {p, ident_params(52, 1, 1)}


def test_sim_params_json_full_kind():
    doc = json.loads(sim_params_to_json(ident_params(8, 1, 0)))
    doc["Y"] = {"kind": "full", "max_period": 2}
    p = sim_params_from_json(json.dumps(doc))
    assert {y.word for y in p.points} == {
        ("a",), ("b",), ("a", "a"), ("b", "a"), ("b", "b"),
    }


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc["Y"]["data"].append(["z"]), "symbol 'z' not in alphabet"),
        (
            lambda doc: doc["phi"]["entries"].append([["a"], "z"]),
            "output 'z' not in alphabet",
        ),
    ],
    ids=["point", "rule-output"],
)
def test_sim_params_json_rejects_foreign_symbols(edit, message):
    doc = json.loads(sim_params_to_json(ident_params(8, 1, 0)))
    edit(doc)
    with pytest.raises(KeyError) as exc:
        sim_params_from_json(json.dumps(doc))
    assert exc.value.args == (message,)


def test_sim_params_json_unknown_kind():
    doc = json.loads(sim_params_to_json(ident_params(8, 1, 0)))
    doc["Y"] = {"kind": "sofic", "data": []}
    with pytest.raises(ValueError):
        sim_params_from_json(json.dumps(doc))
