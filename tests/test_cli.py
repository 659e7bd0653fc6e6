"""Command line behavior: formats, golden outputs, exit codes."""

import json
from fractions import Fraction

import pytest

from expansive_lab.cli import main
from expansive_lab.shift_core import Alphabet, rule_to_json, shift_rule
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


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["ab-run", "--bogus", "1"])
    assert exc.value.code == 2


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
    ],
    ids=["empty-span", "lyapunov-tmax", "blocking-tmax", "symbol", "cmax",
         "horizon", "empty-word"],
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
    ],
    ids=["legend", "rule-size", "block-size", "ab-horizon", "crossing-size",
         "tower-w"],
)
def test_bad_arrow_and_tower_inputs_exit_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_stdout_and_file_output_agree(capsys, tmp_path):
    args = ("lyapunov", "--system", "shift", "--tmax", "4", "--csv")
    _, out, _ = run(capsys, *args)
    target = tmp_path / "table.csv"
    assert main([*args, "--out", str(target)]) == 0
    assert target.read_text() == out
