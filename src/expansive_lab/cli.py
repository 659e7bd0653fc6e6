"""Command line front end.

Subcommands cover the arrow automaton (space-time diagrams, crossing
tables), the brute-force analyses (determined regions, propagation
exponents, blocking words), the slope realization pipeline, and nested
suspension towers.  Every command is deterministic: the same invocation
produces byte-identical output.  Exit codes: 0 on success, 2 on a usage
or domain error, 3 on an I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import re
import sys
import warnings

from . import arrow_bracket as ab
from .cycle_machine import (
    SimParams,
    TowerLevel,
    sim_params_from_json,
    tower,
)
from .dynamics_analysis import (
    blocking_word_search,
    BlockingUpTo,
    determined_region,
    embedded_word_family,
    lyapunov_csv,
    lyapunov_profile,
    padded_scale_family,
    periodic_family,
    profile_from_fronts,
    region_to_lines,
)
from .shift_core import (
    Alphabet,
    Padded,
    identity_rule,
    iterate,
    rule_from_json,
    shift_rule,
)
from .slope_engine import (
    direction_of,
    lambda_eval,
    program_to_json,
    realize_slope,
)

BINARY = Alphabet(("0", "1"))


def _span(text: str) -> range:
    """Inclusive integer span: "2" or "-3..3"."""
    if ".." in text:
        a, b = text.split("..", 1)
        span = range(int(a), int(b) + 1)
        if not span:
            raise ValueError(f"empty span {text!r}")
        return span
    v = int(text)
    return range(v, v + 1)


def _write(text, path: str | None) -> None:
    """Write text, or text chunks as they come, to stdout or to path."""
    chunks = (text,) if isinstance(text, str) else text
    if path is None:
        sys.stdout.writelines(chunks)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)


def _binary_rule(args):
    """Rule and inverse from --params (a rule file) or --rule/--d."""
    if getattr(args, "params", None):
        with open(args.params, encoding="utf-8") as fh:
            return rule_from_json(fh.read()), None
    if args.rule == "identity":
        rule = identity_rule(BINARY)
        return rule, rule
    if args.rule == "shift":
        return shift_rule(BINARY, args.d), shift_rule(BINARY, -args.d)
    raise ValueError(f"unknown rule {args.rule!r}")


# ---------------------------------------------------------------------------
# arrow automaton commands


def _arrow_block_start(n: int, level: int) -> Padded:
    """Arrow, blank, then block(level, n) with its first cell at 0."""
    block = ab.make_block(level, n)
    return Padded(
        ab.level_alphabet(n),
        (ab.ARROW_RIGHT, ab.BLANK) + block.word,
        ab.BLANK,
        anchor=-2,
    )


# the most cells an ab-run diagram may hold: 2^30 cells are 1-2 GiB of text
MAX_RENDER_CELLS = 2**30


def cmd_ab_run(args) -> int:
    legend = ab.ascii_legend(args.n) if args.format == "txt" else None
    if args.steps < 0:
        raise ValueError("steps must be nonnegative")
    cfg = _arrow_block_start(args.n, args.level)
    system = ab.build_rule(args.n)
    height = args.steps + 1
    # the arrow crosses the block in S steps from cell -1 and then runs
    # free, one cell a step: the diagram spans the start's cells and one
    # more cell for each step past S, so it first breaks the budget at the
    # width below
    start = len(cfg.word)
    width = start + max(0, args.steps - ab.crossing_steps(args.level, args.n))
    if height * width > MAX_RENDER_CELLS:
        raise ValueError(
            f"a diagram of {height} rows {max(start, MAX_RENDER_CELLS // height + 1)} "
            f"cells wide exceeds MAX_RENDER_CELLS = {MAX_RENDER_CELLS} cells"
        )
    lo, hi = cfg.anchor, cfg.anchor + width - 1
    rows = itertools.islice(iterate(system.rule, cfg), height)
    if legend is not None:
        _write(ab.diagram_lines(rows, lo, hi, legend, ""), args.out)
    else:
        _write(ab.pgm_lines(rows, lo, hi, height, system.alphabet), args.out)
    return 0


def cmd_ab_cross(args) -> int:
    levels, ns = _span(args.level), _span(args.n)
    for level in levels:  # refuse the first bad pair before crossing any
        for n in ns:
            ab.check_block(level, n, args.max_steps)
    rows = []
    for level in levels:
        for n in ns:
            try:
                rep = ab.run_crossing(level, n, max_steps=args.max_steps)
                rows.append((level, n, rep.steps, "true"))
            except ab.Timeout as exc:
                rows.append((level, n, exc.limit, "false"))
    if args.csv:
        lines = ["level,n,steps,restored"]
        lines += [f"{k},{n},{s},{r}" for k, n, s, r in rows]
    else:
        lines = [f"{'level':>5} {'n':>3} {'steps':>10} restored"]
        lines += [f"{k:>5} {n:>3} {s:>10} {r}" for k, n, s, r in rows]
    _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_render(args) -> int:
    if args.n < 1:
        raise ValueError("need n >= 1 counters")
    alphabet = ab.level_alphabet(args.n)
    legend = ab.ascii_legend(args.n)
    lines = ["symbol glyph gray"]
    for sym in alphabet:
        lines.append(f"{sym} {legend[sym]} {alphabet.index(sym)}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# report commands


MAX_REGION_CELLS = 2**22  # cells a region's family members may be read on
MAX_BLOCKING_MAXLEN = 15  # 2^16 - 2 words to report


def cmd_region(args) -> int:
    # the library reads n = -1 as an empty agreement window; the CLI's
    # agreement radius starts at 0
    if args.n < 0:
        raise ValueError("n must be >= 0")
    rule, inverse = _binary_rule(args)
    t_range = _span(args.trange)
    i_range = _span(args.irange)
    # each of padded_scale_family's members is read on [-n, n], then on the
    # i-range at every time its orbit passes, from 0 out to both ends
    times = max(t_range[-1] + 1, 0) + max(-t_range.start, 0)
    cells = (2 * max(args.cmax, 0) + 2) * (2 * args.n + 1 + times * len(i_range))
    if cells > MAX_REGION_CELLS:
        raise ValueError(f"the region would read {cells} cells, above MAX_REGION_CELLS = "
                         f"{MAX_REGION_CELLS}; narrow --n, --trange or --irange")
    family = padded_scale_family(BINARY, args.cmax, "0")
    region = determined_region(
        rule,
        family,
        args.n,
        (t_range.start, t_range[-1]),
        (i_range.start, i_range[-1]),
        inverse=inverse,
    )
    _write(region_to_lines(region), args.out)
    return 0


def cmd_lyapunov(args) -> int:
    # before the walk or the scan, which take time in t_max
    if args.tmax < 0:
        raise ValueError("t_max must be >= 0")
    if args.horizon < 0:
        raise ValueError("horizon must be >= 0")
    if args.system == "ab":
        cfg = _arrow_block_start(args.n, args.level)
        right, left = ab.perturbation_front(cfg, args.n, args.tmax)
        est = profile_from_fronts(right, left, right[0], args.horizon)
    else:
        if args.system == "identity":
            rule = identity_rule(BINARY)
        else:
            rule = shift_rule(BINARY, args.d)
        family = padded_scale_family(BINARY, args.cmax, "0")
        est = lyapunov_profile(rule, family, args.tmax, args.horizon)
    if args.csv:
        _write(lyapunov_csv(est), args.out)
    else:
        t = est.t_max
        text = (
            f"t_max {t}\n"
            f"lambda_plus {est.lambda_plus[t]} ratio {est.ratio_plus(t):.6f}\n"
            f"lambda_minus {est.lambda_minus[t]} ratio {est.ratio_minus(t):.6f}\n"
        )
        _write(text, args.out)
    return 0


def cmd_blocking(args) -> int:
    rule, _ = _binary_rule(args)
    if args.word:
        words = [tuple(w) for w in args.word]
        if any(s not in BINARY for w in words for s in w):
            raise ValueError("words must be over the symbols 0 and 1")
        if not all(words):
            raise ValueError("words must be nonempty")
    elif args.maxlen > MAX_BLOCKING_MAXLEN:
        raise ValueError(f"--maxlen {args.maxlen} is above the limit {MAX_BLOCKING_MAXLEN}: "
                         "the report tests every binary word up to that length")
    else:
        words = [
            w
            for length in range(1, args.maxlen + 1)
            for w in itertools.product(BINARY, repeat=length)
        ]
    reports = []
    for w in words:
        # each word gets its own family with marks to shield against;
        # deviation-only families would leave most words vacuously blocking
        family = embedded_word_family(BINARY, [w], "0")
        reports += blocking_word_search(rule, family, len(w), args.tmax, [w])
    lines = ["word,verdict,t"]
    for rep in sorted(reports, key=lambda r: ("".join(r.word))):
        if isinstance(rep.verdict, BlockingUpTo):
            lines.append(f"{''.join(rep.word)},blocking_up_to,{rep.verdict.t_max}")
        else:
            lines.append(f"{''.join(rep.word)},refuted_at,{rep.verdict.t}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# realization and towers


def cmd_realize(args) -> int:
    prog = realize_slope(
        args.theta,
        args.depth,
        b_policy=args.policy,
        idealized=args.idealized,
        alphabet_size=args.alphabet_size,
        table_entries=args.table_entries,
    )
    lam, bound = lambda_eval(prog)
    direction = direction_of(lam)
    try:  # str() refuses an int of more than sys.get_int_max_str_digits()
        text = (f"lambda_{args.depth} = {lam}\nbound = {bound}\ndirection: "
                + ("vertical" if direction.vertical else f"slope {direction.slope}"))
    except ValueError:
        raise ValueError(f"lambda_{args.depth} or its bound has too many digits "
                         "to print; lower --depth") from None
    sys.stdout.write(text + "\n")
    if args.out:
        _write(program_to_json(prog), args.out)
    return 0


def _parse_levels(text: str):
    levels = []
    for part in text.split(";"):
        nums = [int(x) for x in part.split(",")]
        if len(nums) not in (3, 4):
            raise ValueError(
                f"level {part!r} is not B,W,D or B,W,D,table_entries"
            )
        levels.append(TowerLevel(*nums))
    return levels


def _default_base() -> SimParams:
    ident = identity_rule(BINARY)
    return SimParams(ident, ident, periodic_family(BINARY, 2), 4, 1, 0)


def cmd_tower(args) -> int:
    if args.params:
        with open(args.params, encoding="utf-8") as fh:
            base = sim_params_from_json(fh.read())
    else:
        base = _default_base()
    rep = tower(_parse_levels(args.levels), base)
    doc = {
        "alphabet_sizes": list(rep.alphabet_sizes),
        "cycle_lengths": [s.T for s in rep.schedules],
        "depth": rep.depth,
        "state_count": rep.state_count,
        "transform": [[str(x) for x in row] for row in rep.transform],
    }
    _write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# wiring


@functools.cache  # parse_args leaves a parser unchanged, so one serves all calls
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expansive-lab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ab-run", help="space-time diagram of one arrow orbit")
    p.add_argument("--n", type=int, default=1, help="number of counters")
    p.add_argument("--level", type=int, default=0, help="block level to cross")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--format", choices=("txt", "pgm"), default="txt")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_ab_run)

    p = sub.add_parser("ab-cross", help="crossing time table over levels and n")
    p.add_argument("--n", default="1..3", help="span, e.g. 1..4")
    p.add_argument("--level", default="0..1", help="span, e.g. 0..2")
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_ab_cross)

    p = sub.add_parser("render", help="symbol legend and PGM gray mapping")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("region", help="brute-force determined region")
    p.add_argument("--rule", choices=("identity", "shift"), default="shift")
    p.add_argument("--d", type=int, default=1, help="shift displacement")
    p.add_argument("--params", help="rule file overriding --rule (no inverse)")
    p.add_argument("--n", type=int, required=True, help="agreement radius")
    p.add_argument("--trange", default="-3..3")
    p.add_argument("--irange", default="-8..8")
    p.add_argument("--cmax", type=int, default=14, help="family deviation span")
    p.add_argument("--out")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("lyapunov", help="propagation exponent profile")
    p.add_argument("--system", choices=("ab", "shift", "identity"), default="ab")
    p.add_argument("--n", type=int, default=1, help="counters (ab systems)")
    p.add_argument("--level", type=int, default=0, help="block level (ab)")
    p.add_argument("--d", type=int, default=1, help="shift displacement")
    p.add_argument("--tmax", type=int, default=1000)
    p.add_argument("--horizon", type=int, default=10**6)
    p.add_argument("--cmax", type=int, default=2, help="family deviation span")
    p.add_argument("--csv", action="store_true", help="full per-step table")
    p.add_argument("--out")
    p.set_defaults(func=cmd_lyapunov)

    p = sub.add_parser("blocking", help="blocking word report")
    p.add_argument("--rule", choices=("identity", "shift"), default="identity")
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--params", help="rule file overriding --rule")
    p.add_argument("--maxlen", type=int, default=3)
    p.add_argument("--tmax", type=int, default=100)
    p.add_argument(
        "--word", action="append", default=[],
        help="restrict to this word (repeatable), e.g. --word 01",
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_blocking)

    p = sub.add_parser("realize", help="realize a slope target")
    p.add_argument("--theta", required=True, help="rational or decimal string")
    p.add_argument("--depth", type=int, default=20)
    p.add_argument("--policy", choices=("minimal", "pow2"), default="minimal")
    p.add_argument("--idealized", action="store_true")
    p.add_argument("--alphabet-size", type=int, default=2)
    p.add_argument("--table-entries", type=int, default=0)
    p.add_argument("--out", help="write the program file here")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("tower", help="nested suspension tower report")
    p.add_argument(
        "--levels", required=True,
        help="outermost first: B,W,D[,entries];B,W,D...",
    )
    p.add_argument("--params", help="simulated-system file for the base")
    p.add_argument("--out")
    p.set_defaults(func=cmd_tower)

    return parser


# the flags whose values may begin with "-", each with the shape of such a
# value: a span like "-3..3", or a number like "-1/3" that Fraction reads
_SPAN_VALUE = re.compile(r"-\d+\.\.-?\d+$")
_NEGATIVE_VALUES = {
    "--trange": _SPAN_VALUE,
    "--irange": _SPAN_VALUE,
    "--theta": re.compile(r"-[\d.]"),
}


def _absorb_negative_values(argv):
    """Glue negative values onto their flag so argparse does not read them
    as options."""
    out: list = []
    for tok in argv:
        shape = _NEGATIVE_VALUES.get(out[-1]) if out else None
        if shape and shape.match(tok):
            out[-1] += f"={tok}"
        else:
            out.append(tok)
    return out


def _show_warning(message, *_):
    # one line, like the error messages, without Python's source location
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_absorb_negative_values(argv))
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        except (ValueError, TypeError, KeyError, ab.Timeout) as exc:
            # str() of a KeyError is the repr of its message
            message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
            print(f"error: {message}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
