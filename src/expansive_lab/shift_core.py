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

Symbols are checked at the boundary and trusted inside: the public
constructors (`Periodic`, `Padded`, `LocalRule`, so `rule_from_json` too)
raise KeyError through `Alphabet.check` for a symbol outside the alphabet.
`Periodic._of` and `Padded._of` skip that check, and serve only symbols the
library produced from checked ones: shifted words, `apply_rule` and `iterate`
outputs (window centres, or table outputs `LocalRule` checked) and encoded
suspension states.
"""

from __future__ import annotations

import itertools
import json
from operator import attrgetter
from typing import Hashable, Iterable, Iterator, Sequence

Symbol = Hashable


class AlphabetMismatch(ValueError):
    """A rule was applied to a configuration over a different alphabet."""


class QuiescenceViolation(ValueError):
    """The padding symbol of a padded configuration is not quiescent
    under the rule being applied, so the infinite background would change."""


class MissingWindow(KeyError):
    """A rule declared total does not cover some window."""


class field(dict):
    """A record field's options, in place of its default: ``init=False`` leaves
    it to ``__post_init__``, and ``default_factory`` makes each instance's."""


class Record:
    """Base of the package's records: a subclass's own annotations but a
    ``ClassVar`` are its fields, each with its default or `field`.  From
    closures, not generated code, it gets what methods of a frozen data class
    (``frozen=False`` as a class keyword: a mutable one) its body lacks."""

    def __init_subclass__(cls, frozen=True):
        own, specs = vars(cls), {}
        for name, hint in own.get("__annotations__", {}).items():
            if str(hint).startswith(("ClassVar", "typing.ClassVar")):
                continue
            specs[name] = opts = own.get(name, field())
            if not isinstance(opts, field):  # a plain default
                specs[name] = field(default_factory=lambda value=opts: value)
            elif name in own:
                delattr(cls, name)
        init = [k for k, opts in specs.items() if opts.get("init", True)]
        makers = {k: o["default_factory"] for k, o in specs.items() if "default_factory" in o}
        n, slots, post = len(init), tuple(enumerate(init)), getattr(cls, "__post_init__", None)
        setobj, get, one = object.__setattr__, attrgetter(*specs), len(specs) == 1

        def bind(args, kw):  # the init fields' values from any arguments
            got = dict(**dict(zip(init, args)), **kw)  # TypeError on a field given twice
            if len(args) > n or not got.keys() | makers.keys() >= set(init) >= got.keys():
                raise TypeError(f"{cls.__qualname__}() takes {init}, not {args}, {kw}")
            return [got[k] if k in got else makers[k]() for k in init]

        def __init__(self, *args, **kw):  # its closure is kept small: each call copies it
            if kw or len(args) != n:
                args = bind(args, kw)
            for i, k in slots:
                setobj(self, k, args[i])
            if post is not None:
                post(self)

        def __eq__(self, other):  # of one name, attrgetter gives no tuple
            if other.__class__ is not self.__class__:
                return NotImplemented
            return (get(self),) == (get(other),) if one else get(self) == get(other)

        def __repr__(self):
            values = ", ".join(f"{k}={getattr(self, k)!r}" for k in specs)
            return f"{type(self).__qualname__}({values})"

        def refuse(self, name, *value):  # __setattr__, and with no value __delattr__
            raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

        methods = dict(__init__=__init__, __repr__=__repr__, __eq__=__eq__, __hash__=None)
        if frozen:
            methods.update(__setattr__=refuse, __delattr__=refuse,
                           __hash__=lambda self: hash((get(self),) if one else get(self)))
        for name, method in methods.items():
            if name not in own:
                setattr(cls, name, method)


class Alphabet:
    """An ordered finite set of symbols with a fixed index bijection."""

    __slots__ = ("symbols", "_index")

    def __init__(self, symbols: Iterable[Symbol]):
        self.symbols = tuple(symbols)
        self._index = {s: i for i, s in enumerate(self.symbols)}
        if len(self._index) != len(self.symbols):
            raise ValueError("duplicate symbols in alphabet")
        if not self.symbols:
            raise ValueError("alphabet must be non-empty")

    def index(self, symbol: Symbol) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise KeyError(f"symbol {symbol!r} not in alphabet") from None

    def __contains__(self, symbol: Symbol) -> bool:
        return symbol in self._index

    def check(self, symbols: Iterable[Symbol], what: str = "symbol") -> None:
        """Raise KeyError naming the first of `symbols` outside the alphabet;
        `what` names the role of the symbols in the message."""
        for s in symbols:
            if s not in self._index:
                raise KeyError(f"{what} {s!r} not in alphabet")

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self.symbols)

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Alphabet) and self.symbols == other.symbols
        )

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        return f"Alphabet({list(self.symbols)!r})"


class Periodic:
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
        alphabet.check(self.word)

    @classmethod
    def _of(cls, alphabet: Alphabet, word: tuple) -> "Periodic":
        """`Periodic(alphabet, word)` without the checks, for a non-empty
        tuple of symbols the library produced."""
        self = object.__new__(cls)
        self.alphabet, self.word = alphabet, word
        return self

    @property
    def period(self) -> int:
        return len(self.word)

    def __getitem__(self, i: int) -> Symbol:
        return self.word[i % len(self.word)]

    def window(self, lo: int, hi: int) -> tuple[Symbol, ...]:
        # just enough back-to-back copies of the word; () when lo > hi
        n, p = hi - lo + 1, len(self.word)
        k = lo % p
        return (self.word * -(-(k + n) // p))[k : k + n]

    def shifted(self, k: int) -> "Periodic":
        k %= len(self.word)
        return Periodic._of(self.alphabet, self.word[k:] + self.word[:k])

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


class Padded:
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
        alphabet.check((pad,), "pad symbol")
        word = tuple(word)
        alphabet.check(word)
        self._set_trimmed(alphabet, word, pad, anchor)

    @classmethod
    def _of(cls, alphabet: Alphabet, word: tuple, pad, anchor: int) -> "Padded":
        """`Padded(alphabet, word, pad, anchor)` without the checks, for a
        tuple of symbols the library produced; the word is still trimmed."""
        self = object.__new__(cls)
        self._set_trimmed(alphabet, word, pad, anchor)
        return self

    def _set_trimmed(self, alphabet: Alphabet, word: tuple, pad, anchor: int):
        lo, hi = 0, len(word)
        while lo < hi and word[lo] == pad:
            lo += 1
        while hi > lo and word[hi - 1] == pad:
            hi -= 1
        self.alphabet = alphabet
        self.word = word[lo:hi]
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

    def window(self, lo: int, hi: int) -> tuple[Symbol, ...]:
        # pads, the part of the word in the span, pads; () when lo > hi
        n, a = hi - lo + 1, self.anchor - lo
        i, j = min(max(a, 0), n), min(max(a + len(self.word), 0), n)
        return (self.pad,) * i + self.word[i - a : j - a] + (self.pad,) * (n - j)

    def shifted(self, k: int) -> "Padded":
        return Padded._of(self.alphabet, self.word, self.pad, self.anchor - k)

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


# the one test of a configuration's kind; both kinds give cfg[i] for every
# integer i, cfg.shifted(k)[i] == cfg[i + k] and cfg.window(lo, hi), the
# cells lo..hi sliced from the word: the one reader of a run of cells
Configuration = Periodic | Padded


class LocalRule(Record):
    """A sliding block code of range ``radius`` given by a window table.

    ``table`` maps (2*radius+1)-tuples of symbols to output symbols.  Windows
    absent from the table fall back to the ``default`` policy:

    * ``"identity"``: the cell keeps its center symbol (partial tables are the
      normal case for rules that only act near some marker);
    * ``"total"``: every window must be present; a missing one raises
      `MissingWindow` when evaluated.

    The table is checked once, here, and `apply_rule` trusts its outputs
    from then on: mutating ``table`` after construction is unsupported.
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
        known = self.alphabet._index.keys()
        try:  # one C-level pass; the loop below only names the first bad entry
            clean = (set(map(len, self.table)) <= {width}
                     and known >= set(itertools.chain.from_iterable(self.table))
                     and known >= set(self.table.values()))
        except TypeError:  # an unsized window or an unhashable symbol
            clean = False
        if not clean:
            for window, out in self.table.items():
                if len(window) != width:
                    raise ValueError(f"window {window!r} has wrong width")
                self.alphabet.check(window)
                self.alphabet.check((out,), "output")

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
        raise MissingWindow(f"total rule has no entry for window {window!r}")


# the most windows a materialized rule table may hold
_COMPOSE_LIMIT = 4_000_000


def _windows(alphabet: Alphabet, r: int, what: str):
    """Every window of 2r+1 symbols of `alphabet`, after checking there
    are at most _COMPOSE_LIMIT of them; else ValueError, naming `what`."""
    if len(alphabet) ** (2 * r + 1) > _COMPOSE_LIMIT:
        raise ValueError(f"{what} over {len(alphabet)} symbols at range {r} is too large")
    return itertools.product(alphabet.symbols, repeat=2 * r + 1)


def identity_rule(alphabet: Alphabet) -> LocalRule:
    return LocalRule(alphabet, 0, {}, "identity")


def shift_rule(alphabet: Alphabet, d: int = 1) -> LocalRule:
    """The d-fold shift as an explicit total rule of range |d|.

    The output of a cell is the symbol d places to its right (to its left for
    negative d).  The table is materialized, so this is only meant for small
    alphabets and |d| <= 2 or so; a ValueError is raised before building a
    table of more than _COMPOSE_LIMIT windows.
    """
    r = abs(d)
    if r == 0:
        return identity_rule(alphabet)
    table = {w: w[r + d] for w in _windows(alphabet, r, "shift table")}
    return LocalRule(alphabet, r, table, "total")


def apply_rule(rule: LocalRule, cfg: Configuration) -> Configuration:
    """One synchronous application of ``rule`` to ``cfg``; each output
    cell lo..hi-1 evaluates its slice of one window of ``cfg``."""
    if cfg.alphabet != rule.alphabet:
        raise AlphabetMismatch(
            f"rule alphabet {rule.alphabet!r} != configuration alphabet {cfg.alphabet!r}"
        )
    if not isinstance(cfg, Configuration):
        raise TypeError(f"unsupported configuration type {type(cfg)!r}")
    if not rule.table and rule.default == "identity":
        return cfg  # every cell keeps its symbol, the pad included
    r = rule.radius
    if isinstance(cfg, Periodic):
        lo, hi = 0, cfg.period
    else:
        quiet = rule.evaluate((cfg.pad,) * (2 * r + 1))
        if quiet != cfg.pad:
            raise QuiescenceViolation(
                f"pad symbol {cfg.pad!r} maps to {quiet!r} under the rule"
            )
        if not cfg.word:
            return cfg
        lo, hi = cfg.anchor - r, cfg.anchor + len(cfg.word) + r
    row = cfg.window(lo - r, hi - 1 + r)
    evaluate, width = rule.evaluate, 2 * r + 1
    new = tuple([evaluate(row[i : i + width]) for i in range(hi - lo)])
    if isinstance(cfg, Periodic):
        return Periodic._of(cfg.alphabet, new)
    return Padded._of(cfg.alphabet, new, cfg.pad, lo)


def iterate(rule: LocalRule, cfg: Configuration):
    """Yield cfg, rule(cfg), rule^2(cfg), ... lazily, equal to stepping
    `apply_rule` and raising its exceptions when the step that meets them
    is asked for.

    Step 1 is a full `apply_rule`, which makes every check.  After it a
    cell whose window did not change keeps its output, so each later step
    evaluates, left to right, only the cells within the rule range of the
    last step's changes (coordinates for `Padded`, indices mod p for
    `Periodic`) and copies the rest; once a step changes nothing, every
    later item is the same object.  Cost: nothing until an item is asked
    for; one `apply_rule` for the first step, then per step at most 2r+1
    window evaluations per cell the last step changed, plus one C-level
    copy of the word.  It holds cfg and the current configuration.
    """
    yield cfg
    y = apply_rule(rule, cfg)
    yield y
    yield from _iterate_on(rule, cfg, y)


def _iterate_on(rule: LocalRule, cfg: Configuration, y: Configuration):
    """`iterate`'s steps 2, 3, ... given its step 1, y = rule(cfg)."""
    r, evaluate = rule.radius, rule.evaluate
    width = 2 * r + 1
    p = cfg.period if isinstance(cfg, Periodic) else None
    # every cell step 1 could change: the period, or the support and r more each side
    lo, hi = (0, p - 1) if p else (cfg.anchor - r, cfg.anchor + len(cfg.word) - 1 + r)
    changed = [
        i for i, a, b in zip(range(lo, hi + 1), cfg.window(lo, hi), y.window(lo, hi))
        if a != b
    ]
    while changed:
        near = {c + d for c in changed for d in range(-r, r + 1)}
        dirty = sorted({i % p for i in near} if p else near)
        if not p:
            lo, hi = dirty[0], dirty[-1]
            if y.word:
                lo, hi = min(lo, y.anchor), max(hi, y.anchor + len(y.word) - 1)
        # cell i's window is window[i - lo : i - lo + width]
        window = y.window(lo - r, hi + r)
        new = [evaluate(window[i - lo : i - lo + width]) for i in dirty]
        changed = [i for i, s in zip(dirty, new) if window[i - lo + r] != s]
        if not changed:
            break
        row = list(window[r : len(window) - r])
        for i, s in zip(dirty, new):
            row[i - lo] = s
        y = (
            Periodic._of(y.alphabet, tuple(row)) if p
            else Padded._of(y.alphabet, tuple(row), y.pad, lo)
        )
        yield y
    yield from itertools.repeat(y)


def orbit(rule: LocalRule, cfg: Configuration, steps: int) -> list[Configuration]:
    """[cfg, rule(cfg), ..., rule^steps(cfg)] (length steps+1): the first
    steps+1 items of `iterate`, with its exceptions.  Cost: that of
    `iterate`, and the list holds every row."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    return list(itertools.islice(iterate(rule, cfg), steps + 1))


def agree_on(x: Configuration, y: Configuration, lo: int, hi: int) -> bool:
    """Whether x[i] == y[i] for all lo <= i <= hi (inclusive)."""
    return x.window(lo, hi) == y.window(lo, hi)


def min_rotation(word: tuple) -> tuple:
    """The least rotation of a period word, one name per rotation class."""
    return min(word[i:] + word[:i] for i in range(len(word)))


def necklaces(symbols: Sequence, length: int, lyndon: bool = False,
              may_follow: Sequence | None = None, once: frozenset = frozenset()) -> list:
    """The necklaces of `length` over `symbols` (only the Lyndon words if
    `lyndon`), each as its least rotation in index order, in increasing
    order, by the recursive Fredricksen-Kessler-Maiorana scheme (Ruskey,
    Savage & Wang, "Generating necklaces", J. Algorithms 13 (1992)).  It
    prunes a prenecklace once symbols[j] follows symbols[i] for a j not in
    the ascending `may_follow[i]`, or a second cell holds a symbol indexed
    in `once`, and checks the wrap pair (last, first) on each full word."""
    if length < 1:
        raise ValueError(f"period must be >= 1, not {length}")
    word, found = [0] * length, []
    follow = may_follow or [range(len(symbols))] * len(symbols)

    def extend(t: int, p: int, used: bool) -> None:
        # p is the length of the longest Lyndon prefix of word[:t]
        if t == length:
            if (p == length if lyndon else length % p == 0) and word[0] in follow[word[-1]]:
                found.append(tuple(map(symbols.__getitem__, word)))
            return
        a = word[t - p]  # at t = 0, word[-1] is still 0
        for j in follow[word[t - 1]] if t else range(len(symbols)):
            if j >= a and not (used and j in once):
                word[t] = j
                extend(t + 1, p if j == a else t + 1, used or j in once)

    extend(0, 1, False)
    return found


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
    iw = 2 * inner.radius + 1
    table = {}
    for w in _windows(a, r, "composite table"):
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
    for w in _windows(f.alphabet, r, "extensional comparison"):
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


class JsonObject(dict):
    """A JSON object as the file readers parse it (``object_hook``): reading
    a key it lacks raises ValueError naming the key, like any other
    malformed input."""

    def __missing__(self, key):
        raise ValueError(f"missing key {key!r}")


_JSON_KINDS = {list: "an array", str: "a string", int: "a number",
               float: "a number", bool: "a boolean", type(None): "null",
               JsonObject: "an object"}


def _check_json(value, spec, key) -> None:
    """ValueError naming `key` unless value has the shape `spec`: a type or
    a tuple of types, [spec] for an array of such items, [spec, spec, ...]
    for an array of exactly those items, or {key: spec} for an object whose
    keys, where present, hold those shapes (a missing key is reported when
    it is read).  No spec asks for a boolean, so true and false match none,
    not even int, of which bool is a subclass."""
    kind = JsonObject if isinstance(spec, dict) else list if isinstance(spec, list) else spec
    if not isinstance(value, kind) or isinstance(value, bool):
        kinds = kind if isinstance(kind, tuple) else (kind,)
        want = " or ".join("an integer" if k is int else _JSON_KINDS[k] for k in kinds)
        raise ValueError(f"key {key!r}: expected {want}, got {_JSON_KINDS[type(value)]}")
    if isinstance(spec, dict):
        for k, item in spec.items():
            if k in value:
                _check_json(value[k], item, k)
    elif isinstance(spec, list) and len(spec) == 1:
        for item in value:
            _check_json(item, spec[0], key)
    elif isinstance(spec, list):
        if len(value) != len(spec):
            raise ValueError(
                f"key {key!r}: expected an array of {len(spec)} items, got {len(value)}"
            )
        for item, item_spec in zip(value, spec):
            _check_json(item, item_spec, key)


def json_object(text: str, fields: dict) -> JsonObject:
    """Parse a rule, parameter or program file: ValueError unless the text
    is a JSON object whose keys hold the shapes of `fields` (see
    `_check_json`), and on reading a key the object lacks."""
    doc = json.loads(text, object_hook=JsonObject)
    if not isinstance(doc, JsonObject):
        raise ValueError(f"expected a JSON object, got {_JSON_KINDS[type(doc)]}")
    _check_json(doc, fields, None)
    return doc


_SYMBOL = (str, int)
_RULE_FIELDS = {"symbols": [_SYMBOL], "radius": int, "default": str,
                "entries": [[[_SYMBOL], _SYMBOL]]}


def rule_from_json(text: str) -> LocalRule:
    doc = json_object(text, _RULE_FIELDS)
    alphabet = Alphabet(doc["symbols"])
    table = {tuple(w): out for w, out in doc["entries"]}
    return LocalRule(alphabet, doc["radius"], table, doc["default"])
