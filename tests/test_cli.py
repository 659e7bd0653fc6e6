"""Command line behavior: formats, golden outputs, exit codes."""

import itertools
import json
import math
import os
import pathlib
import resource
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from expansive_lab import arrow_bracket, cli
from expansive_lab.cli import main
from expansive_lab.shift_core import Alphabet, Padded, iterate, orbit, rule_to_json, shift_rule
from expansive_lab.slope_engine import program_from_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ab_run_text_rows(capsys):
    code, out, _ = run(capsys, "ab-run", "--n", "1", "--level", "0",
                       "--steps", "10", "--format", "txt")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 11
    assert lines[0].startswith(">-[")


def test_ab_run_is_deterministic(capsys):
    args = ("ab-run", "--n", "1", "--level", "1", "--steps", "80")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_ab_run_pgm_header_and_file_output(capsys, tmp_path):
    target = tmp_path / "d.pgm"
    code, out, _ = run(capsys, "ab-run", "--n", "2", "--level", "1",
                       "--steps", "500", "--format", "pgm",
                       "--out", str(target))
    assert code == 0 and out == ""
    lines = target.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "343 501"  # width grows with the orbit, height = steps+1
    assert lines[2] == "12"  # 13 symbols at n=2, grays run 0..12
    assert len(lines) == 3 + 501


def test_ab_run_rejects_bad_params(capsys):
    assert run(capsys, "ab-run", "--n", "0")[0] == 2
    assert run(capsys, "ab-run", "--steps", "-4")[0] == 2


def test_ab_run_reports_io_failure(capsys, tmp_path):
    code, _, err = run(capsys, "ab-run", "--steps", "2",
                       "--out", str(tmp_path / "missing" / "x.txt"))
    assert code == 3
    assert "error" in err


def test_ab_run_refuses_a_diagram_over_the_cell_budget(capsys, tmp_path):
    # 3*10^8 + 1 rows of the 7-cell start are over 2^30 cells at t = 0
    target = tmp_path / "d.txt"
    code, out, err = run(capsys, "ab-run", "--level", "0", "--steps", "300000000",
                         "--out", str(target))
    assert code == 2 and out == ""
    assert err == (
        "error: a diagram of 300000001 rows 7 cells wide exceeds "
        f"MAX_RENDER_CELLS = {2**30} cells\n"
    )
    assert not target.exists()


def test_ab_run_checks_the_budget_as_the_diagram_widens(capsys, tmp_path, monkeypatch):
    # the level-0 start is 7 cells wide, and the span first widens at t = 11
    # once the arrow has crossed: 101 rows fit the budget at 7 cells, not at 8
    monkeypatch.setattr(cli, "MAX_RENDER_CELLS", 101 * 7)
    target = tmp_path / "d.pgm"
    code, _, err = run(capsys, "ab-run", "--level", "0", "--steps", "100",
                       "--format", "pgm", "--out", str(target))
    assert code == 2
    assert err == "error: a diagram of 101 rows 8 cells wide exceeds MAX_RENDER_CELLS = 707 cells\n"
    assert not target.exists()


def _span_events(rows):
    """(t, first cell, last cell) of row 0 of `rows`, each a (first cell,
    last cell) pair, and of every later row that widens the span of the
    rows before it: the only rows at which `_reference_span` acts."""
    lo, hi = math.inf, -math.inf
    for t, (a, b) in enumerate(rows):
        if a < lo or b > hi:
            lo, hi = min(lo, a), max(hi, b)
            yield t, a, b


def _reference_span(events, height, budget):
    """The span loop `ab-run` ran over its orbit before drawing it, over the
    `_span_events` of its rows: (lo, hi) of the first `height` rows, checked
    against `budget` at t = 0 and each time the span widens; the refusal at
    the first check that fails."""
    lo, hi = math.inf, -math.inf
    for t, a, b in events:
        if t >= height:
            break
        lo, hi = min(lo, a), max(hi, b)
        if height * (hi - lo + 1) > budget:
            return (f"error: a diagram of {height} rows {hi - lo + 1} cells wide "
                    f"exceeds MAX_RENDER_CELLS = {budget} cells\n")
    return lo, hi


def _dense_spans(n, level, height):
    system = arrow_bracket.build_rule(n)
    rows = iterate(system.rule, cli._arrow_block_start(n, level))
    return [(y.anchor, y.anchor + len(y.word) - 1) for y in itertools.islice(rows, height)]


def _walker_spans(n, level, height):
    """The spans of `_dense_spans` from the sparse walker: a row holds the
    block's end brackets, which stay brackets, and the arrow."""
    last = len(arrow_bracket.make_block(level, n).word) - 1
    start = cli._arrow_block_start(n, level)
    positions = arrow_bracket.arrow_trace(start, arrow_bracket.build_rule(n), height - 1).positions
    return itertools.chain([(-2, last)], ((min(p, 0), max(p, last)) for p in positions[1:]))


def test_walker_spans_match_the_cell_map():
    for n, level in ((1, 3), (2, 2), (3, 1), (4, 2)):
        height = arrow_bracket.crossing_steps(level, n) + 38
        assert list(_walker_spans(n, level, height)) == _dense_spans(n, level, height)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ab_run_sizes_its_diagram_as_the_span_loop(capsys, monkeypatch, n):
    # around the crossing time S, where the diagram starts to widen: the
    # real budget, budgets just under and just over the diagram, one that
    # it breaks halfway through its widening and one its start breaks; the
    # orbit comes from the cell map while that is cheap
    monkeypatch.setattr(arrow_bracket, "pgm_lines",
                        lambda rows, lo, hi, height, alphabet: [f"{lo} {hi} {height}"])
    real = cli.MAX_RENDER_CELLS
    for level in range(5):
        s = arrow_bracket.crossing_steps(level, n)
        spans = (_dense_spans if s < 20_000 else _walker_spans)(n, level, s + 38)
        events = list(_span_events(spans))
        first = events[0][2] - events[0][1] + 1
        for steps in (0, 1, s - 1, s, s + 1, s + 37):
            height = steps + 1
            lo, hi = _reference_span(events, height, math.inf)
            width = hi - lo + 1
            for budget in (real, height * width - 1, height * width,
                           height * (first + (width - first) // 2), height * first // 2):
                monkeypatch.setattr(cli, "MAX_RENDER_CELLS", budget)
                code, out, err = run(capsys, "ab-run", "--n", str(n), "--level", str(level),
                                     "--steps", str(steps), "--format", "pgm")
                want = _reference_span(events, height, budget)
                if isinstance(want, str):
                    assert (code, out, err) == (2, "", want)
                else:
                    assert (code, out, err) == (0, f"{want[0]} {want[1]} {height}", "")


def _no_rows(*_):
    raise AssertionError("a row of the orbit was computed")


def test_ab_run_refuses_a_long_run_before_drawing(capsys, monkeypatch):
    # the budget is checked on the closed-form extent, before any row
    monkeypatch.setattr(cli, "iterate", _no_rows)
    code, out, err = run(capsys, "ab-run", "--n", "2", "--level", "4",
                         "--steps", "400000", "--format", "pgm")
    assert (code, out) == (2, "")
    assert err == ("error: a diagram of 400001 rows 2685 cells wide exceeds "
                   f"MAX_RENDER_CELLS = {2**30} cells\n")


def test_ab_run_memory_does_not_grow_with_steps(tmp_path):
    # level 3 at n = 1 crosses in 2590 steps, so the diagram stays 91 cells
    # wide; the run streams its rows instead of holding them
    system = arrow_bracket.build_rule(1)
    main(["ab-run", "--steps", "1", "--format", "pgm", "--out", str(tmp_path / "warm")])
    peaks = {}
    for steps in (250, 2500):
        target = tmp_path / f"{steps}.pgm"
        tracemalloc.start()
        try:
            assert main(["ab-run", "--n", "1", "--level", "3", "--steps", str(steps),
                         "--format", "pgm", "--out", str(target)]) == 0
            _, peaks[steps] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert abs(peaks[2500] - peaks[250]) <= 256 * 1024
    start = Padded(system.alphabet,
                   (arrow_bracket.ARROW_RIGHT, arrow_bracket.BLANK)
                   + arrow_bracket.make_block(3, 1).word,
                   arrow_bracket.BLANK, anchor=-2)
    rows = orbit(system.rule, start, 2500)
    lo = min(r.anchor for r in rows)
    hi = max(r.anchor + len(r.word) - 1 for r in rows)
    assert hi - lo + 1 == 91
    assert target.read_text() == "".join(
        arrow_bracket.pgm_lines(rows, lo, hi, len(rows), system.alphabet))


def test_ab_cross_csv_matches_crossing_laws(capsys):
    code, out, _ = run(capsys, "ab-cross", "--n", "1..2",
                       "--level", "0..1", "--csv")
    assert code == 0
    assert out.splitlines() == [
        "level,n,steps,restored",
        "0,1,10,true",   # 6n+4
        "0,2,16,true",
        "1,1,70,true",   # 24n^2+34n+12
        "1,2,176,true",
    ]


def test_ab_cross_plain_table(capsys):
    code, out, _ = run(capsys, "ab-cross", "--n", "1", "--level", "0")
    assert code == 0
    assert "restored" in out.splitlines()[0]
    assert out.splitlines()[1].split() == ["0", "1", "10", "true"]


def test_render_legend_golden(capsys):
    code, out, _ = run(capsys, "render", "--n", "1")
    assert code == 0
    assert out == (
        "symbol glyph gray\n"
        "- - 0\n"
        "> > 1\n"
        "< < 2\n"
        "[0 A 3\n"
        "[1 [ 4\n"
        "]0 B 5\n"
        "]1 ] 6\n"
        "[*0 C 7\n"
        "]*0 D 8\n"
    )


def test_region_shift_band(capsys):
    code, out, _ = run(capsys, "region", "--rule", "shift", "--n", "3",
                       "--trange", "-3..3", "--irange", "-8..8")
    assert code == 0
    cells = sorted(
        (i, t)
        for t in range(-3, 4)
        for i in range(-8, 9)
        if abs(i + t) <= 3
    )
    assert out == "".join(f"({i},{t})\n" for i, t in cells)


def test_region_from_rule_file(capsys, tmp_path):
    path = tmp_path / "rule.json"
    path.write_text(rule_to_json(shift_rule(Alphabet(("0", "1")), 1)))
    code, out, _ = run(capsys, "region", "--params", str(path), "--n", "2",
                       "--trange", "0..2", "--irange", "-6..6")
    assert code == 0
    cells = sorted(
        (i, t) for t in range(3) for i in range(-6, 7) if abs(i + t) <= 2
    )
    assert out == "".join(f"({i},{t})\n" for i, t in cells)
    # no inverse available for file rules, so negative times must fail
    code, _, err = run(capsys, "region", "--params", str(path), "--n", "2",
                       "--trange", "-2..2", "--irange", "-6..6")
    assert code == 2 and "inverse" in err.lower()


def test_lyapunov_shift_csv(capsys):
    code, out, _ = run(capsys, "lyapunov", "--system", "shift",
                       "--tmax", "3", "--csv")
    assert code == 0
    assert out.splitlines() == [
        "t,Lambda_plus,Lambda_minus,ratio_plus,ratio_minus",
        "1,0,1,0.000000,1.000000",
        "2,0,2,0.000000,1.000000",
        "3,0,3,0.000000,1.000000",
    ]


def test_lyapunov_ab_summary(capsys):
    code, out, _ = run(capsys, "lyapunov", "--system", "ab", "--n", "1",
                       "--tmax", "1000")
    assert code == 0
    assert out == (
        "t_max 1000\n"
        "lambda_plus 996 ratio 0.996000\n"
        "lambda_minus 0 ratio 0.000000\n"
    )


def test_lyapunov_identity_flat(capsys):
    code, out, _ = run(capsys, "lyapunov", "--system", "identity",
                       "--tmax", "5")
    assert code == 0
    assert "lambda_plus 0 ratio 0.000000" in out
    assert "lambda_minus 0 ratio 0.000000" in out


def test_blocking_identity_words_all_block(capsys):
    code, out, _ = run(capsys, "blocking", "--maxlen", "2", "--tmax", "40")
    assert code == 0
    rows = out.splitlines()
    assert rows[0] == "word,verdict,t"
    assert len(rows) == 1 + 2 + 4
    assert all(row.endswith(",blocking_up_to,40") for row in rows[1:])


def test_blocking_shift_refutes_everything(capsys):
    code, out, _ = run(capsys, "blocking", "--rule", "shift",
                       "--maxlen", "2", "--tmax", "40")
    assert code == 0
    for row in out.splitlines()[1:]:
        word, verdict, t = row.split(",")
        assert verdict == "refuted_at"
        assert int(t) <= 2


def test_blocking_word_filter(capsys):
    code, out, _ = run(capsys, "blocking", "--rule", "shift",
                       "--word", "01", "--tmax", "9")
    assert code == 0
    assert out == "word,verdict,t\n01,refuted_at,2\n"


def test_realize_prints_bound_and_writes_program(capsys, tmp_path):
    target = tmp_path / "prog.json"
    code, out, _ = run(capsys, "realize", "--theta", "1/3", "--depth", "20",
                       "--out", str(target))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("lambda_20 = ")
    bound = Fraction(lines[1].removeprefix("bound = "))
    assert bound <= Fraction(1, 2**20)
    lam = Fraction(lines[0].removeprefix("lambda_20 = "))
    assert abs(lam - Fraction(1, 3)) <= bound
    prog = program_from_json(target.read_text())
    assert prog.theta == Fraction(1, 3)
    assert len(prog.levels) == 20


def test_program_file_rejects_a_boolean(capsys, tmp_path):
    target = tmp_path / "prog.json"
    assert run(capsys, "realize", "--theta", "1/3", "--depth", "3",
               "--out", str(target))[0] == 0
    doc = json.loads(target.read_text())
    doc["levels"][0]["B"] = True
    with pytest.raises(ValueError, match="^key 'B': expected an integer, got a boolean$"):
        program_from_json(json.dumps(doc))


@pytest.mark.filterwarnings("ignore::expansive_lab.slope_engine.BoundaryCase")
def test_realize_zero_target(capsys):
    code, out, _ = run(capsys, "realize", "--theta", "0", "--depth", "5")
    assert code == 0
    assert out.splitlines()[0] == "lambda_5 = 0"
    assert out.splitlines()[2] == "direction: vertical"


def test_realize_rejects_out_of_range_target(capsys):
    code, _, err = run(capsys, "realize", "--theta", "1.5")
    assert code == 2
    assert "reparametrize" in err


@pytest.mark.parametrize("theta", ["-1/3", "-2/7", "-0.5", "-.5", "-1e-3"])
def test_realize_reads_a_negative_theta_after_its_flag(capsys, theta):
    spaced = run(capsys, "realize", "--theta", theta, "--depth", "20")
    glued = run(capsys, "realize", f"--theta={theta}", "--depth", "20")
    assert spaced == glued
    assert spaced[0] == 0 and spaced[1].startswith("lambda_20 = -")


def test_tower_report_golden(capsys):
    code, out, _ = run(capsys, "tower", "--levels", "64,2,1;32,2,1;8,2,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["alphabet_sizes"] == [21233664, 1536, 2]
    assert doc["cycle_lengths"] == [896, 432, 96]
    assert doc["depth"] == 3
    assert doc["state_count"] == 3044058071040  # five base points
    assert doc["transform"] == [["1", "175"], ["0", "2268"]]


def test_tower_rejects_bad_levels(capsys):
    assert run(capsys, "tower", "--levels", "8,2")[0] == 2
    code, _, err = run(capsys, "tower", "--levels", "2,1,0")
    assert code == 2
    assert "level" in err


BAD_FLAG_ERR = """\
usage: expansive-lab [-h]
                     {ab-run,ab-cross,render,region,lyapunov,blocking,realize,tower}
                     ...
expansive-lab: error: unrecognized arguments: --bogus 1
"""


def test_unknown_flag_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    for _ in range(2):  # the parser is built once and reused
        with pytest.raises(SystemExit) as exc:
            main(["ab-run", "--bogus", "1"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == BAD_FLAG_ERR


def test_append_option_does_not_leak_between_calls(capsys):
    _, first, _ = run(capsys, "blocking", "--word", "01", "--tmax", "5")
    _, second, _ = run(capsys, "blocking", "--word", "1", "--tmax", "5")
    assert first == "word,verdict,t\n01,blocking_up_to,5\n"
    assert second == "word,verdict,t\n1,blocking_up_to,5\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("lyapunov", "--system", "shift", "--tmax", "50", "--horizon", "3"),
        ("realize", "--theta", "0"),
    ],
    ids=["truncation", "boundary-case"],
)
def test_warnings_print_as_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and out
    assert err.count("\n") == 1 and err.startswith("warning: ")
    assert ".py" not in err and "warnings.warn" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("region", "--n", "1", "--trange", "3..1"),
        ("lyapunov", "--system", "shift", "--tmax", "-1"),
        ("blocking", "--word", "1", "--tmax", "-1"),
        ("blocking", "--word", "2"),
        ("region", "--n", "1", "--cmax", "-1"),
        ("lyapunov", "--system", "shift", "--horizon", "-1"),
        ("blocking", "--word", ""),
        ("lyapunov", "--system", "shift", "--d", "40", "--tmax", "10"),
        ("region", "--rule", "shift", "--d", "40", "--n", "1"),
        ("blocking", "--rule", "shift", "--d", "-11", "--word", "1"),
        ("region", "--n", "-1"),
    ],
    ids=["empty-span", "lyapunov-tmax", "blocking-tmax", "symbol", "cmax",
         "horizon", "empty-word", "lyapunov-shift-size", "region-shift-size",
         "blocking-shift-size", "region-n"],
)
def test_bad_pair_scan_inputs_exit_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("ab-run", "--n", "20"),
        ("ab-run", "--n", "20", "--format", "pgm"),
        ("lyapunov", "--system", "ab", "--n", "2", "--level", "40"),
        ("lyapunov", "--system", "ab", "--horizon", "-1"),
        ("ab-cross", "--n", "1", "--level", "19"),
        ("tower", "--levels", "4,0,0"),
        ("lyapunov", "--system", "ab", "--tmax", "-1"),
        ("ab-cross", "--n", "1", "--level", "0", "--max-steps", "-3"),
    ],
    ids=["legend", "rule-size", "block-size", "ab-horizon", "crossing-size",
         "tower-w", "ab-tmax", "crossing-budget"],
)
def test_bad_arrow_and_tower_inputs_exit_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def _run_capped(*argv):
    """The CLI in a child process whose address space is capped at 1 GiB,
    so that an input it tries to materialize fails there, not here."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "expansive_lab.cli", *argv],
        preexec_fn=cap, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )


@pytest.mark.parametrize(
    "argv, option",
    [
        (("blocking", "--rule", "identity", "--maxlen", "30", "--tmax", "10"),
         "--maxlen"),
        (("region", "--rule", "shift", "--d", "1", "--n", "100000000",
          "--trange", "-4..4", "--irange", "-8..8"), "--n"),
        (("region", "--rule", "shift", "--d", "1", "--n", "2",
          "--trange", "-4..4", "--irange", "-100000000..100000000"), "--irange"),
    ],
    ids=["blocking-maxlen-budget", "region-n-budget", "region-irange-budget"],
)
def test_size_budgets_refuse_before_building(argv, option):
    proc = _run_capped(*argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    assert option in proc.stderr


def _shift_params_file(path, y):
    """A parameter file simulating the binary shift over the points `y`."""
    inverse = json.loads(rule_to_json(shift_rule(Alphabet(("0", "1")), -1)))
    path.write_text(json.dumps(_params_doc(phi_inv=inverse, Y=y)))
    return str(path)


def test_tower_full_family_matches_its_points_written_out(capsys, tmp_path):
    for m in range(1, 7):
        # one word per rotation class of every length up to m, by brute force
        words = {min(w[i:] + w[:i] for i in range(len(w)))
                 for p in range(1, m + 1) for w in itertools.product("01", repeat=p)}
        outs = [
            run(capsys, "tower", "--levels", "64,2,1", "--params",
                _shift_params_file(tmp_path / "p.json", y))
            for y in ({"kind": "full", "max_period": m},
                      {"kind": "periodic_points", "data": sorted(words)})
        ]
        assert outs[0] == outs[1] and outs[0][0] == 0


def test_tower_refuses_a_full_family_past_the_budget(tmp_path):
    target = _shift_params_file(tmp_path / "p.json", {"kind": "full", "max_period": 30})
    start = time.perf_counter()
    proc = _run_capped("tower", "--levels", "64,2,1", "--params", target)
    assert time.perf_counter() - start < 10
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: periodic family up to period 30 over 2 symbols is too large\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--n", "1..3", "--level", "0..200"),
         "block level 19 is above the limit 18 (a level-k block has 12*2^k - 7 cells)"),
        (("--n", "0", "--level", "0..19"), "counter bound n must be >= 1"),
        (("--n", "1", "--level", "19", "--max-steps", "-1"), "max_steps must be >= 0"),
    ],
    ids=["level", "n-before-level", "budget-before-level"],
)
def test_ab_cross_checks_its_grid_before_crossing(argv, message):
    # levels 0..18 alone take several seconds to cross; the first bad pair
    # of the grid, in its order, is named before any of them is built
    start = time.perf_counter()
    proc = _run_capped("ab-cross", *argv)
    assert time.perf_counter() - start < 2
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


def test_realize_with_too_many_digits_names_depth(capsys):
    code, out, err = run(capsys, "realize", "--theta", "1/3", "--depth", "120")
    assert code == 2 and out == ""
    assert err == (
        "error: lambda_120 or its bound has too many digits to print; "
        "lower --depth\n"
    )


def test_crossing_timeout_prints_the_budget(capsys):
    code, out, _ = run(capsys, "ab-cross", "--n", "1", "--level", "0..1",
                       "--max-steps", "0", "--csv")
    assert code == 0
    assert out == "level,n,steps,restored\n0,1,0,false\n1,1,0,false\n"


def test_stdout_and_file_output_agree(capsys, tmp_path):
    args = ("lyapunov", "--system", "shift", "--tmax", "4", "--csv")
    _, out, _ = run(capsys, *args)
    target = tmp_path / "table.csv"
    assert main([*args, "--out", str(target)]) == 0
    assert target.read_text() == out


# the longest numeral int() reads; Python 3.10 builds may have no limit
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _rule_doc(**edits):
    doc = json.loads(rule_to_json(shift_rule(Alphabet(("0", "1")), 1)))
    doc.update(edits)
    return doc


def _params_doc(**edits):
    doc = {"phi": _rule_doc(), "phi_inv": _rule_doc(), "B": 4, "W": 1, "D": 0,
           "Y": {"kind": "periodic_points", "data": [["0"], ["1"]]}}
    doc.update(edits)
    return doc


@pytest.mark.parametrize(
    "files, argv, message",
    [
        (
            {"rule.json": {k: v for k, v in _rule_doc().items() if k != "entries"}},
            ("region", "--params", "rule.json", "--n", "1", "--trange", "0..1"),
            "missing key 'entries'",
        ),
        (
            {"params.json": {"B": 4, "W": 1, "D": 0}},
            ("tower", "--levels", "8,1,0", "--params", "params.json"),
            "missing key 'phi'",
        ),
        (
            {"rule.json": _rule_doc(entries=[[["0", "0", "0"], "2"]])},
            ("blocking", "--params", "rule.json", "--word", "1"),
            "output '2' not in alphabet",
        ),
        (
            {"rule.json": _rule_doc(entries=[[["0", "0", "0"], "0"]])},
            ("blocking", "--params", "rule.json", "--word", "1", "--tmax", "3"),
            "total rule has no entry for window ('0', '0', '1')",
        ),
        ({}, ("realize", "--theta", "1/0"), "target '1/0' has a zero denominator"),
        pytest.param(
            {},
            ("realize", "--theta", "1/" + "3" * (_DIGIT_LIMIT + 1)),
            f"target has a number of more than {_DIGIT_LIMIT} digits",
            marks=pytest.mark.skipif(not _DIGIT_LIMIT, reason="no int digit limit"),
        ),
        (
            {},
            ("realize", "--theta", "1/3", "--depth", "3", "--alphabet-size", "0"),
            "alphabet size must be >= 1",
        ),
        (
            {},
            ("realize", "--theta", "1/3", "--depth", "3", "--alphabet-size", "-5"),
            "alphabet size must be >= 1",
        ),
        (
            {},
            ("realize", "--theta", "1/3", "--depth", "3", "--table-entries", "-1"),
            "table_entries must be >= 0",
        ),
        (
            {},
            ("realize", "--theta", "1/3", "--depth", "3", "--table-entries", "-100"),
            "table_entries must be >= 0",
        ),
        (
            {"rule.json": []},
            ("region", "--params", "rule.json", "--n", "1", "--trange", "0..1"),
            "expected a JSON object, got an array",
        ),
        (
            {"rule.json": []},
            ("blocking", "--params", "rule.json", "--word", "1"),
            "expected a JSON object, got an array",
        ),
        (
            {"params.json": "B"},
            ("tower", "--levels", "8,1,0", "--params", "params.json"),
            "expected a JSON object, got a string",
        ),
        (
            {"rule.json": _rule_doc(entries=5)},
            ("blocking", "--params", "rule.json", "--word", "1"),
            "key 'entries': expected an array, got a number",
        ),
        (
            {"rule.json": _rule_doc(entries=[5])},
            ("blocking", "--params", "rule.json", "--word", "1"),
            "key 'entries': expected an array, got a number",
        ),
        (
            {"rule.json": _rule_doc(entries=[[5, "0"]])},
            ("blocking", "--params", "rule.json", "--word", "1"),
            "key 'entries': expected an array, got a number",
        ),
        (
            {"rule.json": _rule_doc(entries=[[["0", "0", "0"]]])},
            ("blocking", "--params", "rule.json", "--word", "1"),
            "key 'entries': expected an array of 2 items, got 1",
        ),
        (
            {"rule.json": _rule_doc(entries=[[["0", "0", "0"], "0", "1"]])},
            ("blocking", "--params", "rule.json", "--word", "1"),
            "key 'entries': expected an array of 2 items, got 3",
        ),
        (
            {"rule.json": _rule_doc(symbols=["0", ["1"]])},
            ("blocking", "--params", "rule.json", "--word", "1"),
            "key 'symbols': expected a string or an integer, got an array",
        ),
        (
            {"params.json": {"Y": []}},
            ("tower", "--levels", "8,1,0", "--params", "params.json"),
            "key 'Y': expected an object, got an array",
        ),
        (
            {"params.json": {"B": "4"}},
            ("tower", "--levels", "8,1,0", "--params", "params.json"),
            "key 'B': expected an integer, got a string",
        ),
        (
            {"rule.json": _rule_doc(radius=True)},
            ("blocking", "--params", "rule.json", "--word", "1"),
            "key 'radius': expected an integer, got a boolean",
        ),
        (
            {"params.json": _params_doc(phi=_rule_doc(radius=True))},
            ("tower", "--levels", "64,2,1", "--params", "params.json"),
            "key 'radius': expected an integer, got a boolean",
        ),
        (
            {"params.json": _params_doc(Y={"kind": "periodic_points",
                                          "data": [[["0"]]]})},
            ("tower", "--levels", "64,2,1", "--params", "params.json"),
            "key 'data': expected a string or an integer, got an array",
        ),
    ],
    ids=["rule-key", "params-key", "rule-symbol", "missing-window", "theta-zero",
         "theta-too-many-digits",
         "realize-alphabet-0", "realize-alphabet-negative", "realize-entries-1",
         "realize-entries-100",
         "region-rule-array", "blocking-rule-array", "params-string",
         "entries-number", "entry-number", "window-number", "entry-short",
         "entry-long", "symbol-array", "params-y-array",
         "params-b-string", "rule-radius-boolean", "params-radius-boolean",
         "params-data-array"],
)
def test_malformed_inputs_print_their_message(capsys, tmp_path, monkeypatch,
                                              files, argv, message):
    monkeypatch.chdir(tmp_path)
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def _walk_starts(*_):
    raise AssertionError("the walk started")


@pytest.mark.parametrize("flag, name", [("--horizon", "horizon"), ("--tmax", "t_max")])
def test_lyapunov_checks_its_bounds_before_the_walk(capsys, monkeypatch, flag, name):
    monkeypatch.setattr("expansive_lab.arrow_bracket._walk_and_table", _walk_starts)
    code, out, err = run(capsys, "lyapunov", "--system", "ab", "--tmax", "3000000",
                         flag, "-1")
    assert (code, out, err) == (2, "", f"error: {name} must be >= 0\n")


def test_lyapunov_walk_goes_through_the_patched_start(capsys, monkeypatch):
    # the positive control of the test above: the patch trips on a valid run
    monkeypatch.setattr("expansive_lab.arrow_bracket._walk_and_table", _walk_starts)
    with pytest.raises(AssertionError, match="the walk started"):
        run(capsys, "lyapunov", "--system", "ab", "--tmax", "10")


@pytest.mark.parametrize(
    "horizon, plus, warned",
    [("1000000", 1948, False), ("3", 5, True), ("0", 0, True)],
)
def test_lyapunov_ab_clips_to_the_horizon(capsys, horizon, plus, warned):
    code, out, err = run(capsys, "lyapunov", "--system", "ab", "--n", "1",
                         "--level", "1", "--tmax", "2000", "--horizon", horizon)
    assert code == 0
    assert out.splitlines()[1].split()[:2] == ["lambda_plus", str(plus)]
    assert err == (
        "warning: difference front reached the horizon; exponents are lower "
        "bounds\n" if warned else ""
    )
