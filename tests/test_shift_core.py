import itertools
import random

import pytest

from expansive_lab.shift_core import (
    Alphabet,
    AlphabetMismatch,
    LocalRule,
    MissingWindow,
    Padded,
    Periodic,
    QuiescenceViolation,
    agree_on,
    apply_rule,
    compose_rules,
    identity_rule,
    orbit,
    rule_from_json,
    rule_to_json,
    rules_equal,
    shift_rule,
)


@pytest.fixture
def ab():
    return Alphabet(["a", "b"])


@pytest.fixture
def abc():
    return Alphabet(["a", "b", "c"])


def random_rule(alphabet, radius, rng):
    'A total rule with uniformly random outputs.'
    table = {
        w: rng.choice(alphabet.symbols)
        for w in itertools.product(alphabet.symbols, repeat=2 * radius + 1)
    }
    return LocalRule(alphabet, radius, table, "total")


class TestAlphabet:
    def test_index_roundtrip(self, abc):
        for i, s in enumerate(abc):
            assert abc.index(s) == i
        assert len(abc) == 3
        assert "b" in abc and "z" not in abc

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Alphabet(["a", "a"])

    def test_unknown_symbol(self, abc):
        with pytest.raises(KeyError):
            abc.index("z")


class TestConfigurations:
    def test_periodic_total_access(self, ab):
        x = Periodic(ab, "ab")
        assert [x[i] for i in range(-3, 4)] == list("babababa"[:7])

    def test_periodic_shift_convention(self, ab):
        x = Periodic(ab, "abb")
        y = x.shifted(2)
        for i in range(-5, 6):
            assert y[i] == x[i + 2]

    def test_padded_trim_and_anchor(self, ab):
        x = Padded(ab, "aabaa", pad="a", anchor=10)
        assert x.word == ("b",)
        assert x.anchor == 12
        assert x[12] == "b"
        assert x[11] == "a" and x[1000] == "a"

    def test_padded_all_pad_is_canonical(self, ab):
        assert Padded(ab, "aaa", pad="a", anchor=5) == Padded(ab, "", pad="a")

    def test_padded_shift_convention(self, ab):
        x = Padded(ab, "bab", pad="a", anchor=-1)
        y = x.shifted(-3)
        for i in range(-8, 8):
            assert y[i] == x[i - 3]

    def test_window(self, ab):
        x = Padded(ab, "bb", pad="a", anchor=0)
        assert x.window(-1, 2) == ("a", "b", "b", "a")


class TestApplyRule:
    def test_identity_fixes_everything(self, abc):
        rule = identity_rule(abc)
        x = Periodic(abc, "abcab")
        assert apply_rule(rule, x) == x

    def test_shift_rule_matches_shifted(self, abc):
        for d in (-2, -1, 0, 1, 2):
            rule = shift_rule(abc, d)
            x = Periodic(abc, "abcacb")
            assert apply_rule(rule, x) == x.shifted(d)
            y = Padded(abc, "bcb", pad="a", anchor=2)
            assert apply_rule(rule, y) == y.shifted(d)

    def test_padded_support_grows_at_most_radius(self, ab):
        # b's spread into a's under this majority-flavored rule
        table = {w: ("b" if "b" in w else "a") for w in itertools.product("ab", repeat=3)}
        rule = LocalRule(ab, 1, table, "total")
        x = Padded(ab, "b", pad="a", anchor=0)
        y = apply_rule(rule, x)
        assert isinstance(y, Padded)
        assert y.support == range(-1, 2)

    def test_quiescence_violation(self, ab):
        table = {w: "b" for w in itertools.product("ab", repeat=3)}
        rule = LocalRule(ab, 1, table, "total")
        with pytest.raises(QuiescenceViolation):
            apply_rule(rule, Padded(ab, "b", pad="a"))
        # periodic configurations have no background, so they are fine
        assert apply_rule(rule, Periodic(ab, "ab")) == Periodic(ab, "bb")

    def test_alphabet_mismatch(self, ab, abc):
        with pytest.raises(AlphabetMismatch):
            apply_rule(identity_rule(ab), Periodic(abc, "abc"))

    def test_total_rule_missing_window(self, ab):
        rule = LocalRule(ab, 1, {("a", "a", "a"): "a"}, "total")
        with pytest.raises(MissingWindow):
            apply_rule(rule, Periodic(ab, "ab"))

    def test_shift_equivariance_random_rules(self, abc):
        rng = random.Random(20260815)
        for radius in (0, 1, 2):
            rule = random_rule(abc, radius, rng)
            word = [rng.choice(abc.symbols) for _ in range(7)]
            x = Periodic(abc, word)
            for k in (-3, 1, 5):
                assert apply_rule(rule, x.shifted(k)) == apply_rule(rule, x).shifted(k)

    def test_padded_periodic_consistency(self, ab):
        """A padded configuration and a large-period one that agree on a wide
        window keep agreeing on the shrunken window after one application."""
        rng = random.Random(7)
        rule = random_rule(ab, 1, rng)
        if rule.evaluate(("a", "a", "a")) != "a":
            rule = LocalRule(ab, 1, {**rule.table, ("a", "a", "a"): "a"}, "total")
        inner = [rng.choice("ab") for _ in range(5)]
        pad_cfg = Padded(ab, inner, pad="a", anchor=0)
        per_cfg = Periodic(ab, inner + ["a"] * 40)
        x, y = apply_rule(rule, pad_cfg), apply_rule(rule, per_cfg)
        assert agree_on(x, y, -10, 15)


class TestComposition:
    def test_compose_matches_sequential_application(self, ab):
        rng = random.Random(99)
        for _ in range(8):
            f = random_rule(ab, 1, rng)
            g = random_rule(ab, 1, rng)
            fg = compose_rules(f, g)
            assert fg.radius == 2
            for p in range(1, 7):
                for word in itertools.product("ab", repeat=p):
                    x = Periodic(ab, word)
                    assert apply_rule(fg, x) == apply_rule(f, apply_rule(g, x))

    def test_shift_composition_is_additive(self, abc):
        f = compose_rules(shift_rule(abc, 1), shift_rule(abc, 1))
        assert rules_equal(f, shift_rule(abc, 2))

    def test_identity_is_neutral(self, ab):
        rng = random.Random(3)
        f = random_rule(ab, 1, rng)
        assert rules_equal(compose_rules(f, identity_rule(ab)), f)
        assert rules_equal(compose_rules(identity_rule(ab), f), f)

    def test_oversized_composition_rejected(self):
        big = Alphabet(list(range(40)))
        f = shift_rule(big, 1)
        with pytest.raises(ValueError):
            compose_rules(f, f)


class TestOrbitAndAgreement:
    def test_orbit_length_and_content(self, abc):
        rule = shift_rule(abc, 1)
        x = Periodic(abc, "abc")
        o = orbit(rule, x, 3)
        assert len(o) == 4
        assert o[0] == x and o[3] == x  # period 3 word returns after 3 shifts
        assert o[1] == x.shifted(1)

    def test_agree_on(self, ab):
        x = Padded(ab, "bb", pad="a", anchor=0)
        y = Padded(ab, "b", pad="a", anchor=0)
        assert agree_on(x, y, -5, 0)
        assert not agree_on(x, y, 0, 1)


class TestSerialization:
    def test_roundtrip_preserves_behavior(self, abc):
        rng = random.Random(12)
        rule = random_rule(abc, 1, rng)
        back = rule_from_json(rule_to_json(rule))
        assert rules_equal(rule, back)
        assert back.default == "total" and back.radius == 1

    def test_serialization_is_canonical(self, ab):
        rng = random.Random(5)
        rule = random_rule(ab, 1, rng)
        # same mapping inserted in a different order serializes identically
        shuffled = dict(reversed(list(rule.table.items())))
        other = LocalRule(ab, 1, shuffled, "total")
        assert rule_to_json(rule) == rule_to_json(other)

    def test_equal_rules_hash_equal(self, ab):
        rng = random.Random(5)
        rule = random_rule(ab, 1, rng)
        shuffled = LocalRule(ab, 1, dict(reversed(list(rule.table.items()))), "total")
        back = rule_from_json(rule_to_json(rule))
        assert rule == shuffled == back
        assert hash(rule) == hash(shuffled) == hash(back)
        assert len({rule, shuffled, back, identity_rule(ab)}) == 2

    def test_integer_symbols_roundtrip(self):
        a = Alphabet([0, 1])
        rule = shift_rule(a, 1)
        back = rule_from_json(rule_to_json(rule))
        assert rules_equal(rule, back)


class TestValidation:
    def test_bad_window_width(self, ab):
        with pytest.raises(ValueError):
            LocalRule(ab, 1, {("a",): "a"})

    def test_unknown_output(self, ab):
        with pytest.raises(KeyError):
            LocalRule(ab, 0, {("a",): "z"})

    def test_bad_default(self, ab):
        with pytest.raises(ValueError):
            LocalRule(ab, 0, {}, "wild")
