import itertools
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from expansive_lab.shift_core import (
    Alphabet,
    AlphabetMismatch,
    Configuration,
    LocalRule,
    MissingWindow,
    Padded,
    Periodic,
    QuiescenceViolation,
    agree_on,
    apply_rule,
    compose_rules,
    identity_rule,
    necklaces,
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


def apply_rule_per_cell(rule: LocalRule, cfg: Configuration) -> Configuration:
    """The cell map with every window read cell by cell through ``cfg[j]``:
    the reference `apply_rule` is tested against."""
    if cfg.alphabet != rule.alphabet:
        raise AlphabetMismatch(
            f"rule alphabet {rule.alphabet!r} != configuration alphabet {cfg.alphabet!r}"
        )
    r = rule.radius
    if isinstance(cfg, Periodic):
        p = cfg.period
        new = tuple(
            rule.evaluate(tuple(cfg[j] for j in range(i - r, i + r + 1)))
            for i in range(p)
        )
        return Periodic(cfg.alphabet, new)
    if isinstance(cfg, Padded):
        quiet = rule.evaluate((cfg.pad,) * (2 * r + 1))
        if quiet != cfg.pad:
            raise QuiescenceViolation(
                f"pad symbol {cfg.pad!r} maps to {quiet!r} under the rule"
            )
        if not cfg.word:
            return cfg
        lo = cfg.anchor - r
        hi = cfg.anchor + len(cfg.word) + r
        new = [
            rule.evaluate(tuple(cfg[j] for j in range(i - r, i + r + 1)))
            for i in range(lo, hi)
        ]
        return Padded(cfg.alphabet, new, cfg.pad, lo)
    raise TypeError(f"unsupported configuration type {type(cfg)!r}")


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

    def test_periodic_window_edge_cases(self, abc):
        x = Periodic(abc, "abc")
        assert x.window(-4, 5) == tuple("cabcabcabc")  # longer than the period
        assert x.window(-2, -1) == ("b", "c")  # negative lo
        assert x.window(7, 8) == ("b", "c")
        assert x.window(1, 0) == () and x.window(5, -5) == ()  # lo > hi
        assert Periodic(abc, "b").window(-3, 2) == ("b",) * 6
        for lo in range(-8, 8):
            for hi in range(lo - 3, lo + 11):
                assert x.window(lo, hi) == tuple(x[i] for i in range(lo, hi + 1))

    def test_padded_window_edge_cases(self, ab):
        x = Padded(ab, "bab", pad="a", anchor=2)  # support 2..4
        assert x.window(-3, 1) == ("a",) * 5  # left of the support
        assert x.window(5, 7) == ("a",) * 3  # right of it
        assert x.window(1, 5) == tuple("ababa")  # straddling it
        assert x.window(3, 3) == ("a",) and x.window(4, 8) == tuple("baaaa")
        assert x.window(4, 3) == () and x.window(9, -9) == ()
        empty = Padded(ab, "", pad="a")
        assert empty.window(-2, 1) == ("a",) * 4 and empty.window(1, 0) == ()
        for y in (x, empty, Padded(ab, "b", pad="a", anchor=-5)):
            for lo in range(-8, 8):
                for hi in range(lo - 3, lo + 11):
                    assert y.window(lo, hi) == tuple(y[i] for i in range(lo, hi + 1))


class TestApplyRule:
    def test_identity_fixes_everything(self, abc):
        rule = identity_rule(abc)
        x = Periodic(abc, "abcab")
        assert apply_rule(rule, x) == x

    def test_identity_rule_returns_its_input(self, ab, abc):
        wide = LocalRule(abc, 2, {}, "identity")
        for x in (
            Periodic(abc, "abcab"),
            Padded(abc, "bcb", pad="a", anchor=-2),
            Padded(abc, "", pad="c"),
        ):
            assert apply_rule(identity_rule(abc), x) is x
            assert apply_rule(wide, x) is x
            with pytest.raises(AlphabetMismatch):
                apply_rule(identity_rule(ab), x)

        class Other:
            alphabet = abc

        with pytest.raises(TypeError) as exc:
            apply_rule(identity_rule(abc), Other())
        assert exc.value.args == (f"unsupported configuration type {Other!r}",)

    def test_shift_rule_size_budget(self, ab, abc):
        # 2**23 and 3**15 windows exceed the budget, checked before building
        for alphabet, d in ((ab, 11), (ab, -11), (ab, 40), (abc, 7)):
            with pytest.raises(ValueError, match="too large"):
                shift_rule(alphabet, d)

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


@st.composite
def _rule_and_configuration(draw):
    """A rule of radius 0-2, total or identity-default, with a table that
    may miss windows, and a periodic (period 1-7) or padded configuration
    whose pad may or may not be quiescent."""
    alphabet = Alphabet("abc"[: draw(st.integers(2, 3))])
    symbols = st.sampled_from(alphabet.symbols)
    radius = draw(st.integers(0, 2))
    windows = list(itertools.product(alphabet.symbols, repeat=2 * radius + 1))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    keep = draw(st.sampled_from((0.0, 0.5, 0.95, 1.0)))
    table = {w: rng.choice(alphabet.symbols) for w in windows if rng.random() < keep}
    if draw(st.booleans()):
        word = draw(st.lists(symbols, min_size=1, max_size=7))
        cfg = Periodic(alphabet, word)
    else:
        pad = draw(symbols)
        if draw(st.booleans()):
            table[(pad,) * (2 * radius + 1)] = pad
        word = draw(st.lists(symbols, max_size=7))
        cfg = Padded(alphabet, word, pad, draw(st.integers(-9, 9)))
    default = draw(st.sampled_from(("identity", "total")))
    return LocalRule(alphabet, radius, table, default), cfg


def _outcome(kernel, rule, cfg):
    try:
        return kernel(rule, cfg)
    except (MissingWindow, QuiescenceViolation) as exc:
        return type(exc), exc.args


_AB = Alphabet("ab")


@settings(max_examples=400, deadline=None)
@given(_rule_and_configuration())
@example((shift_rule(_AB, 2), Periodic(_AB, "b")))  # radius above the period
@example((shift_rule(_AB, -2), Periodic(_AB, "ab")))
@example((shift_rule(_AB, 1), Padded(_AB, "bab", "a", -4)))
@example((LocalRule(_AB, 1, {("a", "b", "a"): "b"}, "total"), Padded(_AB, "b", "a")))
def test_apply_rule_matches_per_cell_reference(case):
    rule, cfg = case
    assert _outcome(apply_rule, rule, cfg) == _outcome(apply_rule_per_cell, rule, cfg)


def _stepped_orbit(rule, cfg, steps):
    """`orbit` as one `apply_rule` per step: the reference of the orbit
    that re-evaluates only the cells next to the last step's changes."""
    out = [cfg]
    for _ in range(steps):
        out.append(apply_rule(rule, out[-1]))
    return out


# on a quiescent "a" background a "b" spreads one cell each way per step
_SPREAD = LocalRule(_AB, 1, {("a", "a", "b"): "b", ("b", "a", "a"): "b"}, "identity")


@settings(max_examples=400, deadline=None)
@given(_rule_and_configuration(), st.integers(0, 8))
@example((shift_rule(_AB, 2), Periodic(_AB, "ab")), 5)  # radius above the period
@example((shift_rule(_AB, -1), Periodic(_AB, "aab")), 6)
@example((_SPREAD, Padded(_AB, "b", "a", 3)), 5)  # support grows at both ends
@example((LocalRule(_AB, 1, {("a", "a", "b"): "b", ("a", "b", "a"): "b",
                             ("b", "a", "a"): "a", ("a", "a", "a"): "a"}, "total"),
          Padded(_AB, "b", "a")), 3)  # MissingWindow at step 2
def test_orbit_matches_stepped_apply_rule(case, steps):
    rule, cfg = case

    def fields(kernel):
        got = _outcome(lambda rule, cfg: kernel(rule, cfg, steps), rule, cfg)
        return [_fields(x) for x in got] if isinstance(got, list) else got

    assert fields(orbit) == fields(_stepped_orbit)


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

    def test_rules_differ_on_each_branch(self, ab, abc):
        # other alphabets; another output on one window; a window that a
        # total rule lacks
        assert not rules_equal(identity_rule(ab), identity_rule(abc))
        assert not rules_equal(shift_rule(ab, 1), identity_rule(ab))
        partial = LocalRule(ab, 0, {("a",): "a"}, "total")
        assert not rules_equal(partial, identity_rule(ab))
        assert not rules_equal(identity_rule(ab), partial)

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


def _moebius(d):
    """The Moebius function, by trial division."""
    sign, q = 1, 2
    while d > 1:
        if d % q == 0:
            d //= q
            if d % q == 0:
                return 0
            sign = -sign
        q += 1
    return sign


def _totient(d):
    return sum(math.gcd(i, d) == 1 for i in range(1, d + 1))


def _divisor_count(weight, k, p):
    """(1/p) * sum over d | p of weight(d) * k^(p/d)."""
    total = sum(weight(d) * k ** (p // d) for d in range(1, p + 1) if p % d == 0)
    assert total % p == 0
    return total // p


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_necklace_counts_match_the_closed_forms(k):
    """Moreau's count of necklaces and the count of Lyndon words, an oracle
    that enumerates nothing, up to length 10; the necklaces of one length
    come in increasing index order, each its own least rotation."""
    symbols = tuple(range(k))
    for p in range(1, 11):
        words = necklaces(symbols, p)
        assert len(words) == _divisor_count(_totient, k, p), (k, p)
        assert len(necklaces(symbols, p, lyndon=True)) == _divisor_count(_moebius, k, p)
        assert all(a < b for a, b in zip(words, words[1:]))
        assert all(w == min(w[i:] + w[:i] for i in range(p)) for w in words[::97])


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

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: Alphabet(()), ValueError, "alphabet must be non-empty"),
            (lambda: Periodic(_AB, ()), ValueError, "period word must be non-empty"),
            (lambda: LocalRule(_AB, -1, {}), ValueError, "radius must be >= 0"),
            (lambda: orbit(identity_rule(_AB), Periodic(_AB, "a"), -1), ValueError,
             "steps must be >= 0"),
            (lambda: compose_rules(identity_rule(_AB), identity_rule(Alphabet("ba"))),
             AlphabetMismatch, "cannot compose rules over different alphabets"),
        ],
        ids=["empty-alphabet", "empty-period", "negative-radius", "negative-steps",
             "compose-alphabets"],
    )
    def test_refusals_name_their_cause(self, build, error, message):
        with pytest.raises(error) as exc:
            build()
        assert exc.value.args == (message,)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Periodic(_AB, "abz"), "symbol 'z' not in alphabet"),
            (lambda: Padded(_AB, "ab", "z"), "pad symbol 'z' not in alphabet"),
            (lambda: Padded(_AB, "azb", "a"), "symbol 'z' not in alphabet"),
            (lambda: LocalRule(_AB, 0, {("z",): "a"}), "symbol 'z' not in alphabet"),
            (lambda: LocalRule(_AB, 0, {("a",): "z"}), "output 'z' not in alphabet"),
            (
                lambda: rule_from_json(
                    '{"default":"identity","entries":[[["a"],"z"]],'
                    '"radius":0,"symbols":["a","b"]}'
                ),
                "output 'z' not in alphabet",
            ),
        ],
        ids=["periodic", "pad", "padded", "window", "output", "rule-json"],
    )
    def test_foreign_symbols_raise_key_error(self, build, message):
        with pytest.raises(KeyError) as exc:
            build()
        assert exc.value.args == (message,)

    @pytest.mark.parametrize(
        "first, later, error, message",
        [
            ((("a", "b"), "a"), (("b",), "a"), ValueError,
             "window ('a', 'b') has wrong width"),
            ((("a", "z", "b"), "a"), (("y", "a", "a"), "a"), KeyError,
             "symbol 'z' not in alphabet"),
            ((("b", "b", "b"), "z"), (("b", "b", "a"), "y"), KeyError,
             "output 'z' not in alphabet"),
        ],
        ids=["width", "window-symbol", "output"],
    )
    def test_first_bad_entry_named_in_a_large_table(self, first, later, error, message):
        # two entries are bad in one way, the first mid-table; the good
        # entries are every other window
        items = [(w, "a") for w in itertools.product("ab", repeat=3)]
        items = [item for item in items if item[0] not in (first[0], later[0])]
        items.insert(len(items) // 2, first)
        table = {**dict(items), later[0]: later[1]}
        with pytest.raises(error) as exc:
            LocalRule(_AB, 1, table)
        assert exc.value.args == (message,)


def _fields(x):
    return type(x), tuple(getattr(x, name) for name in type(x).__slots__)


def _revalidated(x):
    """`x` rebuilt through its kind's validating constructor."""
    if isinstance(x, Periodic):
        return Periodic(x.alphabet, x.word)
    return Padded(x.alphabet, x.word, x.pad, x.anchor)


@settings(max_examples=300, deadline=None)
@given(_rule_and_configuration(), st.integers(-9, 9), st.integers(1, 4))
def test_unchecked_results_pass_the_validating_constructor(case, k, steps):
    """`apply_rule`, `orbit` (its first step is `apply_rule`, later steps
    its own) and `shifted` build their results without the symbol checks;
    the validating constructor accepts each of them and returns it
    unchanged, trimmed word and anchor included."""
    rule, cfg = case
    built = [cfg.shifted(k)]
    try:
        built += orbit(rule, cfg, steps)[1:]
    except (MissingWindow, QuiescenceViolation):
        pass
    for x in built + [y.shifted(k) for y in built]:
        assert _fields(_revalidated(x)) == _fields(x)
