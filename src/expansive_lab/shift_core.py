"""Bi-infinite symbolic configurations and sliding block codes.

A configuration is a total map from the integers to a finite alphabet.  Two
finite descriptions are supported: a repeating word (`Periodic`) and a finite
word sitting on an infinite quiescent background (`Padded`).  A `LocalRule` of
range r prescribes the new symbol of a cell as a function of its (2r+1)-cell
window; `apply_rule` gives the usual cellular-automaton / sliding-block-code
semantics on either kind of configuration.

Conventions used throughout the package:

* coordinates grow to the right and ``shift(x, k)[i] == x[i + k]``, so the
  elementary left shift ``shift_rule(A, 1)`` moves content one cell to the
  left as a map on configurations;
* applying a rule to a `Periodic` configuration preserves the period word
  length; applying it to a `Padded` one grows the support by at most the rule
  range on each side and the result is re-trimmed, so supports stay minimal.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Sequence

Symbol = Hashable


class AlphabetMismatch(ValueError):
    """A rule was applied to a configuration over a different alphabet."""


class QuiescenceViolation(ValueError):
    """The padding symbol of a padded configuration is not quiescent
    under the rule being applied, so the infinite background would change."""


class MissingWindow(KeyError):
    """A rule declared total does not cover some window."""


class Alphabet:
    """An ordered finite set of symbols with a fixed index bijection."""

    __slots__ = ("symbols", "_index")

    def __init__(self, symbols: Iterable[Symbol]):
        self.symbols = tuple(symbols)
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("duplicate symbols in alphabet")
        if not self.symbols:
            raise ValueError("alphabet must be non-empty")
        self._index = {s: i for i, s in enumerate(self.symbols)}

    def index(self, symbol: Symbol) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise KeyError(f"symbol {symbol!r} not in alphabet") from None

    def __contains__(self, symbol: Symbol) -> bool:
        return symbol in self._index

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self.symbols)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        return f"Alphabet({list(self.symbols)!r})"


class Configuration:
    """Common interface of the two configuration kinds.

    Subclasses provide total coordinate access via ``cfg[i]`` for every
    integer i, and `shifted`, satisfying ``cfg.shifted(k)[i] == cfg[i + k]``.
    """

    alphabet: Alphabet

    def __getitem__(self, i: int) -> Symbol:
        raise NotImplementedError

    def shifted(self, k: int) -> "Configuration":
        raise NotImplementedError

    def window(self, lo: int, hi: int) -> tuple[Symbol, ...]:
        """The word cfg[lo], ..., cfg[hi] (inclusive ends)."""
        return tuple(self[i] for i in range(lo, hi + 1))


class Periodic(Configuration):
    """A configuration repeating a fixed word, ``cfg[i] == word[i mod p]``.

    The word is kept verbatim; ``Periodic(A, "ab" * 2)`` and
    ``Periodic(A, "ab")`` describe the same point of the shift but are
    distinct objects with distinct periods, which is what the finite-torus
    enumeration code wants.
    """

    __slots__ = ("alphabet", "word")

    def __init__(self, alphabet: Alphabet, word: Sequence[Symbol]):
        self.alphabet = alphabet
        self.word = tuple(word)
        if not self.word:
            raise ValueError("period word must be non-empty")
        for s in self.word:
            if s not in alphabet:
                raise KeyError(f"symbol {s!r} not in alphabet")

    @property
    def period(self) -> int:
        return len(self.word)

    def __getitem__(self, i: int) -> Symbol:
        return self.word[i % len(self.word)]

    def shifted(self, k: int) -> "Periodic":
        p = len(self.word)
        k %= p
        return Periodic(self.alphabet, self.word[k:] + self.word[:k])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Periodic)
            and self.alphabet == other.alphabet
            and self.word == other.word
        )

    def __hash__(self) -> int:
        return hash(("periodic", self.word))

    def __repr__(self) -> str:
        return f"Periodic({list(self.word)!r})"


class Padded(Configuration):
    """A finite word over an infinite constant background.

    ``cfg[i] == word[i - anchor]`` for ``anchor <= i < anchor + len(word)``
    and the padding symbol elsewhere.  The word is trimmed on construction so
    that it never starts or ends with the padding symbol; equality of two
    padded configurations is therefore equality as maps on Z.
    """

    __slots__ = ("alphabet", "word", "pad", "anchor")

    def __init__(
        self,
        alphabet: Alphabet,
        word: Sequence[Symbol],
        pad: Symbol,
        anchor: int = 0,
    ):
        self.alphabet = alphabet
        if pad not in alphabet:
            raise KeyError(f"pad symbol {pad!r} not in alphabet")
        w = list(word)
        for s in w:
            if s not in alphabet:
                raise KeyError(f"symbol {s!r} not in alphabet")
        lo = 0
        hi = len(w)
        while lo < hi and w[lo] == pad:
            lo += 1
        while hi > lo and w[hi - 1] == pad:
            hi -= 1
        self.word = tuple(w[lo:hi])
        self.pad = pad
        self.anchor = anchor + lo if self.word else 0

    @property
    def support(self) -> range:
        """Coordinates that may hold a non-pad symbol."""
        return range(self.anchor, self.anchor + len(self.word))

    def __getitem__(self, i: int) -> Symbol:
        j = i - self.anchor
        if 0 <= j < len(self.word):
            return self.word[j]
        return self.pad

    def shifted(self, k: int) -> "Padded":
        return Padded(self.alphabet, self.word, self.pad, self.anchor - k)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Padded)
            and self.alphabet == other.alphabet
            and self.pad == other.pad
            and self.word == other.word
            and (not self.word or self.anchor == other.anchor)
        )

    def __hash__(self) -> int:
        return hash(("padded", self.word, self.pad, self.anchor if self.word else 0))

    def __repr__(self) -> str:
        return f"Padded({list(self.word)!r}, pad={self.pad!r}, anchor={self.anchor})"


@dataclass(frozen=True)
class LocalRule:
    """A sliding block code of range ``radius`` given by a window table.

    ``table`` maps (2*radius+1)-tuples of symbols to output symbols.  Windows
    absent from the table fall back to the ``default`` policy:

    * ``"identity"``: the cell keeps its center symbol (partial tables are the
      normal case for rules that only act near some marker);
    * ``"total"``: every window must be present; a missing one raises
      `MissingWindow` when evaluated.
    """

    alphabet: Alphabet
    radius: int
    table: dict
    default: str = "identity"

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("radius must be >= 0")
        if self.default not in ("identity", "total"):
            raise ValueError(f"unknown default policy {self.default!r}")
        width = 2 * self.radius + 1
        for window, out in self.table.items():
            if len(window) != width:
                raise ValueError(f"window {window!r} has wrong width")
            for s in window:
                if s not in self.alphabet:
                    raise KeyError(f"symbol {s!r} not in alphabet")
            if out not in self.alphabet:
                raise KeyError(f"output {out!r} not in alphabet")

    def __hash__(self) -> int:
        # the generated hash would hash the table dict; this one agrees
        # with the generated __eq__, which compares the table by its items
        return hash(
            (self.alphabet, self.radius, self.default, frozenset(self.table.items()))
        )

    def evaluate(self, window: tuple) -> Symbol:
        out = self.table.get(window)
        if out is not None:
            return out
        if self.default == "identity":
            return window[self.radius]
        raise MissingWindow(window)

    def __call__(self, window: tuple) -> Symbol:
        return self.evaluate(window)


def identity_rule(alphabet: Alphabet) -> LocalRule:
    return LocalRule(alphabet, 0, {}, "identity")


def shift_rule(alphabet: Alphabet, d: int = 1) -> LocalRule:
    """The d-fold shift as an explicit total rule of range |d|.

    The output of a cell is the symbol d places to its right (to its left for
    negative d).  The table is materialized, so this is only meant for small
    alphabets and |d| <= 2 or so.
    """
    r = abs(d)
    if r == 0:
        return identity_rule(alphabet)
    table = {
        w: w[r + d]
        for w in itertools.product(alphabet.symbols, repeat=2 * r + 1)
    }
    return LocalRule(alphabet, r, table, "total")


def apply_rule(rule: LocalRule, cfg: Configuration) -> Configuration:
    """One synchronous application of ``rule`` to ``cfg``."""
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


def orbit(rule: LocalRule, cfg: Configuration, steps: int) -> list[Configuration]:
    """[cfg, rule(cfg), ..., rule^steps(cfg)] (length steps+1)."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    out = [cfg]
    for _ in range(steps):
        cfg = apply_rule(rule, cfg)
        out.append(cfg)
    return out


def agree_on(x: Configuration, y: Configuration, lo: int, hi: int) -> bool:
    """Whether x[i] == y[i] for all lo <= i <= hi (inclusive)."""
    return all(x[i] == y[i] for i in range(lo, hi + 1))


_COMPOSE_LIMIT = 4_000_000


def compose_rules(outer: LocalRule, inner: LocalRule) -> LocalRule:
    """The rule computing outer-after-inner, with range equal to the sum.

    ``apply_rule(compose_rules(f, g), x) == apply_rule(f, apply_rule(g, x))``
    for every configuration x.  The composite table is materialized over the
    full alphabet, which is only feasible for small alphabets and ranges; a
    ValueError is raised rather than attempting an astronomically large table.
    """
    if outer.alphabet != inner.alphabet:
        raise AlphabetMismatch("cannot compose rules over different alphabets")
    a = outer.alphabet
    r = outer.radius + inner.radius
    width = 2 * r + 1
    if len(a) ** width > _COMPOSE_LIMIT:
        raise ValueError(
            f"composite table over {len(a)} symbols at range {r} is too large"
        )
    iw = 2 * inner.radius + 1
    table = {}
    for w in itertools.product(a.symbols, repeat=width):
        mid = tuple(
            inner.evaluate(w[k : k + iw]) for k in range(2 * outer.radius + 1)
        )
        table[w] = outer.evaluate(mid)
    return LocalRule(a, r, table, "total")


def rules_equal(f: LocalRule, g: LocalRule) -> bool:
    """Extensional equality: same output on every window of the larger range."""
    if f.alphabet != g.alphabet:
        return False
    r = max(f.radius, g.radius)
    a = f.alphabet
    if len(a) ** (2 * r + 1) > _COMPOSE_LIMIT:
        raise ValueError("alphabet too large for extensional comparison")
    for w in itertools.product(a.symbols, repeat=2 * r + 1):
        fw = w[r - f.radius : r + f.radius + 1]
        gw = w[r - g.radius : r + g.radius + 1]
        try:
            if f.evaluate(fw) != g.evaluate(gw):
                return False
        except MissingWindow:
            return False
    return True


def rule_to_json(rule: LocalRule) -> str:
    """Canonical JSON text for a rule; byte-identical across runs.

    Entries are sorted by the index tuple of the window symbols, keys are
    sorted and separators fixed, so equal rules serialize to equal bytes.
    """
    idx = rule.alphabet.index
    entries = sorted(
        ([list(w), out] for w, out in rule.table.items()),
        key=lambda e: tuple(idx(s) for s in e[0]),
    )
    doc = {
        "symbols": list(rule.alphabet.symbols),
        "radius": rule.radius,
        "default": rule.default,
        "entries": entries,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def rule_from_json(text: str) -> LocalRule:
    doc = json.loads(text)
    alphabet = Alphabet(doc["symbols"])
    table = {tuple(w): out for w, out in doc["entries"]}
    return LocalRule(alphabet, doc["radius"], table, doc["default"])
