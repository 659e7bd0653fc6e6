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
import itertools
import json
import re
import sys

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
    apply_rule,
    identity_rule,
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


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


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


def _arrow_block_orbit(n: int, level: int, steps: int):
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    cfg = _arrow_block_start(n, level)
    system = ab.build_rule(n)
    rows = [cfg]
    for _ in range(steps):
        cfg = apply_rule(system.rule, cfg)
        rows.append(cfg)
    lo = min(r.support[0] for r in rows)
    hi = max(r.support[-1] for r in rows)
    return system, rows, lo, hi


def cmd_ab_run(args) -> int:
    legend = ab.ascii_legend(args.n) if args.format == "txt" else None
    system, rows, lo, hi = _arrow_block_orbit(args.n, args.level, args.steps)
    if legend is not None:
        text = ab.render_text(rows, lo, hi, legend)
    else:
        text = ab.render_pgm(rows, lo, hi, system.alphabet)
    _write(text, args.out)
    return 0


def cmd_ab_cross(args) -> int:
    rows = []
    for level in _span(args.level):
        for n in _span(args.n):
            try:
                rep = ab.run_crossing(level, n, max_steps=args.max_steps)
                rows.append((level, n, rep.steps, "true"))
            except ab.Timeout:
                rows.append((level, n, args.max_steps or -1, "false"))
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


def cmd_region(args) -> int:
    rule, inverse = _binary_rule(args)
    t_range = _span(args.trange)
    i_range = _span(args.irange)
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
    out = [f"lambda_{args.depth} = {lam}", f"bound = {bound}"]
    direction = direction_of(lam)
    if direction.vertical:
        out.append("direction: vertical")
    else:
        out.append(f"direction: slope {direction.slope}")
    sys.stdout.write("\n".join(out) + "\n")
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


_SPAN_VALUE = re.compile(r"-\d+\.\.-?\d+$")
_SPAN_FLAGS = ("--trange", "--irange")


def _absorb_negative_spans(argv):
    """Glue values like "-3..3" onto their flag so argparse does not read
    them as options."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if tok in _SPAN_FLAGS and nxt is not None and _SPAN_VALUE.match(nxt):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_absorb_negative_spans(argv))
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, ab.Timeout) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
