"""Tests for the suspension machinery: schedules, generators, encoding,
conjugated cycle map, and towers."""

import json
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from expansive_lab.cycle_machine import (
    _DATA_SYMBOLS,
    _PROGRAM_SYMBOLS,
    BlockTooSmall,
    MalformedConfiguration,
    SimParams,
    SuspensionState,
    TowerLevel,
    _decode_cells,
    build_schedule,
    decode,
    encode,
    encoding_alphabet,
    idealized_schedule,
    min_block_length,
    pi_inv_on_encoded,
    pi_on_encoded,
    program_word,
    schedule_report,
    shape_transform,
    sim_params_from_json,
    sim_params_to_json,
    stage_segments,
    step_suspension,
    t_for_token,
    token_for_t,
    tower,
)
from expansive_lab.shift_core import (
    Alphabet,
    LocalRule,
    Periodic,
    apply_rule,
    identity_rule,
    shift_rule,
)

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


def test_tokens_are_bijective_with_cycle_times():
    sched = build_schedule(ident_params(16, 2, 1))
    seen = set()
    for t in range(sched.T):
        token = token_for_t(sched, t)
        assert t_for_token(sched, token) == t
        seen.add(token)
    assert len(seen) == sched.T
    assert token_for_t(sched, 0) == sched.synchronized_token


def test_token_lookup_rejects_junk():
    sched = build_schedule(ident_params(8, 1, 0))
    with pytest.raises(MalformedConfiguration):
        t_for_token(sched, ("transmit", 0, sched.transmit))
    with pytest.raises(ValueError):
        token_for_t(sched, sched.T)


def test_block_too_small_for_program():
    sigma, sigma_inv = shift_rule(AB, 1), shift_rule(AB, -1)
    p = SimParams(sigma, sigma_inv, POINTS, 51, 1, 1)
    assert p.program_length() == 52
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


def test_schedule_report_is_complete():
    sched = build_schedule(ident_params(16, 2, 1))
    rep = schedule_report(sched)
    assert rep["T"] == sched.T
    stages = rep["stages"]
    assert (
        stages["transmit"] + stages["copy"] + stages["lookup"]
        + stages["writeback"]
        + stages["shift_repeats"] * stages["shift_per_block"]
        + stages["wait_repeats"] * stages["wait_per_round"]
        + stages["resync"]
    ) == sched.T
    json.dumps(rep)  # must be serializable as handed out


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
            assert token == sched.synchronized_token
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
            mutate(1, 3, sched.synchronized_token), p, sched
        )  # stray token
    with pytest.raises(MalformedConfiguration):
        decode(
            mutate(4, 3, token_for_t(sched, 1)), p, sched
        )  # blocks disagree on t
    with pytest.raises(MalformedConfiguration):
        decode(Periodic(alpha, good.word[:6]), p, sched)  # period not k*B
    with pytest.raises(MalformedConfiguration):
        # previous word no longer the phi-preimage
        broken = mutate(1, 2, "1")
        decode(broken, p, sched)


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
    change=st.none() | st.tuples(_ANY, st.just(0) | _ANY, st.integers(0, 3), _ANY),
    fresh=st.booleans(),
)
# the head of block 1 loses its block bit, or shows another token
@example(kind="identity", w=1, d=0, word="ab", b=0, t=0, change=(1, 0, 0, 0), fresh=False)
@example(kind="identity", w=1, d=0, word="ab", b=0, t=0, change=(1, 0, 3, 2), fresh=False)
def test_decode_matches_cell_scan(kind, w, d, word, b, t, change, fresh):
    """The table path of `decode` gives the per-cell scan's state, or its
    exception and message, on encoded states with at most one cell changed
    in one layer; `fresh` decodes with equal parameters whose tables are
    still empty."""
    p, sched = codec_instance(kind, w, d)
    y = Periodic(AB, word)
    s = SuspensionState(y, b % p.B, t % sched.T)
    c = encode(s, p, sched)
    if change is not None:
        j, o, layer, k = change
        i = ((j % y.period) * p.B + o % p.B - s.b) % c.period
        tokens = tuple(token_for_t(sched, u) for u in range(sched.T))
        values = ((0, 1), _PROGRAM_SYMBOLS, _DATA_SYMBOLS, (".",) + tokens)[layer]
        cell = list(c.word[i])
        cell[layer] = values[k % len(values)]
        cells = list(c.word)
        cells[i] = tuple(cell)
        c = Periodic(c.alphabet, cells)
    if fresh:
        p = SimParams(p.phi, p.phi_inv, p.points, p.B, p.W, p.D)
    want = decode_outcome(_decode_cells, c, p, sched)
    assert decode_outcome(decode, c, p, sched) == want
    if change is None:
        assert want == s


def test_decode_leaves_odd_head_cells_to_the_scan():
    p, sched = codec_instance("identity", 1, 0)
    c = encode(SuspensionState(POINTS[2], 0, 0), p, sched)
    cells = list(c.word)
    cells[p.B] += ("x",)  # the head of block 1 gains a fifth field
    odd = Periodic(Alphabet(dict.fromkeys(cells)), cells)
    want = decode_outcome(_decode_cells, odd, p, sched)
    assert want[0] is ValueError  # too many values to unpack
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


@pytest.mark.parametrize("fields", [(0, 1, 0), (4, 0, 0), (4, 1, 0, -1)])
def test_tower_level_validates_fields(fields):
    with pytest.raises(ValueError):
        TowerLevel(*fields)


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


def test_sim_params_json_unknown_kind():
    doc = json.loads(sim_params_to_json(ident_params(8, 1, 0)))
    doc["Y"] = {"kind": "sofic", "data": []}
    with pytest.raises(ValueError):
        sim_params_from_json(json.dumps(doc))
