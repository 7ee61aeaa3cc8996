"""End-to-end tests of the command-line frontend.

Everything runs in-process through cli.main so exit codes and the exact
stdout/stderr payloads are observable without spawning subprocesses; the
one exception checks which modules a fresh process ends up importing.
"""

import contextlib
import csv
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slet
from slet import cli, engine, potentials
from slet.errors import SletError


def run_cli(capsys, *args):
    rc = cli.main(list(args))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def read_csv(text):
    """Split CSV output into (comment header or None, column names, rows)."""
    comment = None
    if text.startswith("#"):
        comment, _, text = text.partition("\r\n")
    rows = list(csv.reader(io.StringIO(text)))
    return comment, rows[0], rows[1:]


def table_value(out, label):
    for line in out.splitlines():
        if line.startswith(label + " "):
            return line[len(label):].strip()
    raise AssertionError(f"no {label!r} line in output:\n{out}")


# -- solve --------------------------------------------------------------------


def test_solve_coulomb_table(capsys):
    rc, out, err = run_cli(capsys, "solve", "--dim", "3",
                           "--potential", "coulomb", "--l", "0", "--nr", "0")
    assert rc == 0 and err == ""
    assert out.startswith("# generated ")
    assert float(table_value(out, "E_total")) == pytest.approx(-1.0, abs=1e-9)
    assert float(table_value(out, "r0")) == pytest.approx(1.0, rel=1e-10)
    assert float(table_value(out, "E1")) == 0.0
    for label in ("dim", "potential", "l", "nr", "w", "beta", "lbar", "Q",
                  "E0", "E2 term", "E3 term", "alpha1", "alpha2",
                  "eps", "dlt", "e", "d", "candidates"):
        table_value(out, label)


def test_solve_coulomb_json(capsys):
    argv = ["solve", "--dim", "3", "--potential", "coulomb",
            "--l", "0", "--nr", "0", "--format", "json", "--no-header"]
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0 and err == ""
    payload = json.loads(out)
    assert set(payload) == {"command", "problem", "breakdown", "oracle"}
    assert payload["command"] == argv
    assert payload["problem"]["dim"] == 3
    assert payload["problem"]["potential"] == "coulomb"
    assert payload["problem"]["terms"] == 3
    assert payload["oracle"] is None
    bd = payload["breakdown"]
    assert isinstance(bd["E_total"], float)
    assert bd["E_total"] == pytest.approx(-1.0, abs=1e-9)
    assert bd["lbar"] == pytest.approx(1.0, rel=1e-12)
    assert all(len(c) == 2 for c in bd["candidates"])


def test_solve_csv_row(capsys):
    rc, out, err = run_cli(capsys, "solve", "--dim", "3",
                           "--potential", "coulomb", "--l", "1", "--nr", "2",
                           "--format", "csv", "--no-header")
    assert rc == 0 and err == ""
    assert out.count("\n") == out.count("\r\n")
    comment, columns, rows = read_csv(out)
    assert comment is None
    assert columns == ["l", "nr", "r0", "w", "beta", "lbar",
                       "E0", "E2term", "E3term", "E_total"]
    (row,) = rows
    assert row[0] == "1" and row[1] == "2"
    assert float(row[-1]) == pytest.approx(-1.0 / 16.0, abs=1e-9)
    for cell in row:
        float(cell)


def test_solve_expression_potential(capsys):
    # V = r, the standard linear-confinement benchmark.
    rc, out, err = run_cli(capsys, "solve", "--dim", "3", "--potential", "r",
                           "--l", "0", "--nr", "0",
                           "--format", "json", "--no-header")
    assert rc == 0 and err == ""
    bd = json.loads(out)["breakdown"]
    assert bd["E_total"] == pytest.approx(2.3386520443879255, rel=1e-12)


def test_solve_builtin_with_params(capsys):
    rc, out, err = run_cli(capsys, "solve", "--dim", "3",
                           "--potential", "power",
                           "--param", "A=1", "--param", "nu=2",
                           "--l", "0", "--nr", "0",
                           "--format", "json", "--no-header")
    assert rc == 0
    payload = json.loads(out)
    assert payload["problem"]["params"] == {"A": 1.0, "nu": 2.0}
    assert payload["breakdown"]["E_total"] == pytest.approx(3.0, abs=1e-9)


def test_solve_terms_gating(capsys):
    def breakdown(terms):
        rc, out, _ = run_cli(capsys, "solve", "--dim", "3",
                             "--potential", "r", "--l", "0", "--nr", "0",
                             "--terms", terms, "--format", "json",
                             "--no-header")
        assert rc == 0
        return json.loads(out)["breakdown"]

    b0, b2, b3 = breakdown("0"), breakdown("2"), breakdown("3")
    # Gating changes the sum, not the reported per-order terms.
    assert b0["E_total"] == b0["E0"]
    assert b2["E_total"] == b2["E0"] + b2["E2_over_lbar2"]
    assert b3["E_total"] == b3["E0"] + b3["E2_over_lbar2"] + b3["E3_over_lbar3"]
    assert b0["E2_over_lbar2"] == b3["E2_over_lbar2"]
    assert b0["E3_over_lbar3"] == b3["E3_over_lbar3"]
    assert b3["E_total"] > b2["E_total"] > b0["E_total"]


def test_solve_negative_l_rejected(capsys):
    rc, out, err = run_cli(capsys, "solve", "--dim", "3",
                           "--potential", "coulomb", "--l", "-1", "--nr", "0")
    assert rc == 2
    assert out == ""
    assert err == "error: l must be a non-negative integer\n"


def test_solve_negative_nr_rejected(capsys):
    rc, _, err = run_cli(capsys, "solve", "--dim", "3",
                         "--potential", "coulomb", "--l", "0", "--nr", "-3")
    assert rc == 2
    assert err == "error: nr must be a non-negative integer\n"


def test_solve_bad_param_syntax(capsys):
    rc, _, err = run_cli(capsys, "solve", "--dim", "3", "--potential", "power",
                         "--param", "A", "--l", "0", "--nr", "0")
    assert rc == 2
    assert "--param expects NAME=VALUE" in err

    rc, _, err = run_cli(capsys, "solve", "--dim", "3", "--potential", "power",
                         "--param", "A=fast", "--l", "0", "--nr", "0")
    assert rc == 2
    assert "not a number" in err


def test_solve_wrong_builtin_params(capsys):
    rc, _, err = run_cli(capsys, "solve", "--dim", "3",
                         "--potential", "coulomb", "--param", "Z=2",
                         "--l", "0", "--nr", "0")
    assert rc == 2
    assert err.startswith("error: ")
    assert "Z" in err


def test_solve_bad_expression(capsys):
    rc, _, err = run_cli(capsys, "solve", "--dim", "3", "--potential", "2 +",
                         "--l", "0", "--nr", "0")
    assert rc == 2
    assert err.startswith("error: ")


def test_solve_donor_requires_matching_l(capsys):
    rc, _, err = run_cli(capsys, "solve", "--dim", "2", "--potential", "donor",
                         "--param", "gamma=1", "--param", "m=-1",
                         "--l", "0", "--nr", "0")
    assert rc == 2
    assert "2D donor requires l = |m|" in err


@pytest.mark.parametrize("argv", [
    ("solve", "--l", "0", "--nr", "0"),
    ("spectrum", "--l-range", "0..1", "--nr-range", "0..1"),
    ("validate", "--l", "0", "--nr", "0", "--oracle-N", "200"),
])
@pytest.mark.parametrize("expr", ["r^1e308", "r^1e309", "r^-1e309"])
def test_huge_and_infinite_exponents_end_cleanly(capsys, expr, argv):
    # an integer exponent costs about 2 log2|p| jet products, and an
    # infinite one takes the exp(p ln r) path; neither may raise
    start = time.perf_counter()
    rc, _, _ = run_cli(capsys, *argv, "--dim", "3", "--potential", expr)
    assert time.perf_counter() - start < 2.0
    assert rc in (0, 3)


@pytest.mark.parametrize("src", [
    "(" * 1200 + "r" + ")" * 1200, "-" * 3000 + "r", "r" + "^1" * 3000,
    "+".join(["r"] * 5000),
], ids=["parens", "negations", "powers", "sums"])
def test_deeply_nested_expression_exits_2(capsys, src):
    rc, out, err = run_cli(capsys, "solve", "--dim", "3", f"--potential={src}",
                           "--l", "0", "--nr", "0")
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_validate_constant_division_by_zero_is_a_failure(capsys):
    # the oracle evaluates V by value, where 1/0 is a constant; it must
    # end as the oracle's reported failure, not a ZeroDivisionError
    rc, out, err = run_cli(capsys, "validate", "--dim", "3",
                           "--potential", "1/0 + r", "--l", "0", "--nr", "0",
                           "--oracle-N", "200")
    assert rc == 3 and err == ""
    assert "SLET failed" in out and "oracle failed" in out


@pytest.mark.parametrize("src,message", [
    ("ln(-1) + r", "ln of non-positive value -1.0"),
    ("sqrt(-4) + r", "sqrt of non-positive value -4.0"),
    ("r + (-8)^0.5", "pow of non-positive value -8.0"),
])
def test_constant_domain_error_names_its_cause(capsys, src, message):
    rc, out, err = run_cli(capsys, "solve", "--dim", "3", f"--potential={src}",
                           "--l", "0", "--nr", "0")
    assert (rc, out, err) == (3, "", f"error: {message}\n")
    rc, out, err = run_cli(capsys, "validate", "--dim", "3",
                           f"--potential={src}", "--l", "0", "--nr", "0",
                           "--oracle-N", "200", "--format", "csv")
    assert rc == 3 and err == ""
    _, columns, rows = read_csv(out)
    assert rows[0][columns.index("error")] == f"{message}; {message}"


@pytest.mark.parametrize("src", ["1e400 + r", "1e300*1e300 + r", "1/0 + r"])
def test_non_finite_energy_is_an_error(capsys, src):
    # a constant that overflows is folded to inf; the energy it gives is
    # an error (exit 3, an error row), never a printed inf
    rc, out, err = run_cli(capsys, "solve", "--dim", "3", f"--potential={src}",
                           "--l", "0", "--nr", "0")
    assert rc == 3 and out == ""
    assert err.startswith("error: E0 = inf at r0 = ")
    rc, out, err = run_cli(capsys, "spectrum", "--dim", "3",
                           f"--potential={src}", "--l-range", "0..1",
                           "--nr-range", "0..1", "--format", "csv")
    assert rc == 0 and err == ""
    _, columns, rows = read_csv(out)
    assert len(rows) == 4
    for row in rows:
        assert "the energy is not finite" in row[columns.index("error")]
        assert row[columns.index("E_total")] == ""


@pytest.mark.parametrize("tol", ["1e-18", "1e-20"])
def test_validate_tolerance_below_float_resolution_returns(tmp_path, tol):
    # the larger box's window, seeded at the N-point energy with a
    # half-width below its ulp, once closed to a point and looped there
    src = pathlib.Path(slet.__file__).resolve().parents[1]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               [str(src)] + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
    done = subprocess.run(
        [sys.executable, "-m", "slet.cli", "validate", "--dim", "3",
         "--potential", "coulomb", "--l", "0", "--nr", "0",
         "--oracle-N", "200", "--oracle-tol", tol, "--no-header"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=20)
    assert done.returncode == 0 and done.stderr == ""
    assert "oracle converged     False" in done.stdout


def test_scan_of_an_overflowing_potential_warns_nothing(capsys):
    # inf * 0 in the scan's jet is masked as nan; it may not also print a
    # numpy RuntimeWarning next to the error line
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_cli(capsys, "solve", "--dim", "3",
                               "--potential", "1e400*r", "--l", "0", "--nr", "0")
    assert rc == 3 and out == ""
    assert err == ("error: V' is nowhere positive on the bracket window; "
                   "the potential admits no expansion point\n")


def test_spectrum_rejects_too_many_levels(capsys):
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "spectrum", "--dim", "3",
                           "--potential", "coulomb",
                           "--l-range", "0..9999", "--nr-range", "0..1")
    assert time.perf_counter() - start < 0.5
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and "more than 10000 levels" in err


_FUZZ_POTENTIALS = (
    ("--potential", "coulomb"), ("--potential", "harmonic", "--param", "B=2"),
    ("--potential", "power", "--param", "A=1", "--param", "nu=1.5"),
    ("--potential", "log", "--param", "A=1", "--param", "b=2"),
    ("--potential", "donor", "--param", "gamma=0.5", "--param", "m=1"),
    ("--potential=-2/r + A*r", "--param", "A=0.1"), ("--potential", "1/0 + r"),
    ("--potential", "ln(r - 20)"), ("--potential", "harmonic"),
    ("--potential", "r +"),
)


def _mostly(good, bad):
    """Each good value four times as likely as each bad one."""
    return st.sampled_from(tuple(good) * 4 + tuple(bad))


@st.composite
def _fuzz_argv(draw):
    """Argv of one subcommand: small quantum numbers and ranges, oracle
    grids of at most 2000 points, gamma grids of at most 20 rows, every
    format, and now and then a value the CLI must reject."""
    cmd = draw(st.sampled_from(("solve", "spectrum", "sweep", "validate")))
    dims = ("2",) if cmd == "sweep" else ("2", "3")
    argv = [cmd, "--dim", draw(_mostly(dims, ("3", "4"))),
            "--format", draw(st.sampled_from(("table", "csv", "json"))),
            "--terms", draw(st.sampled_from(("0", "2", "3")))]
    if draw(st.booleans()):
        argv.append("--no-header")
    small = _mostly(("0", "1", "2", "3"), ("-1",))
    if cmd == "sweep":
        lo = draw(st.sampled_from((0.0, 0.5, 2.0)))
        step = draw(st.sampled_from((0.25, 0.5, 1.0)))
        hi = lo + step * draw(st.integers(-1, 19))
        return argv + [
            "--potential", draw(_mostly(("donor",), ("r",))),
            "--m", draw(st.sampled_from(("-2", "-1", "0", "1"))),
            "--nr", draw(small),
            "--gamma", draw(_mostly((f"{lo}:{hi}:{step}",), ("0:1:0", "nan:1:1")))]
    argv += draw(st.sampled_from(_FUZZ_POTENTIALS))
    if cmd == "spectrum":
        return argv + ["--l-range", f"{draw(small)}..{draw(small)}",
                       "--nr-range", f"{draw(small)}..{draw(small)}"]
    argv += ["--l", draw(small), "--nr", draw(small)]
    if cmd == "validate":
        argv += ["--oracle-N", draw(st.sampled_from(("100", "500", "2000"))),
                 "--oracle-R", draw(_mostly(("10", "40"), ("-1",))),
                 "--oracle-tol", draw(_mostly(("1e-5", "1e-3"), ("1",)))]
    return argv


@settings(derandomize=True, deadline=None, max_examples=120)
@given(argv=_fuzz_argv())
def test_arbitrary_argv_exits_0_2_or_3(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    assert rc in (0, 2, 3)


def test_argparse_errors_exit_2(capsys):
    rc, _, _ = run_cli(capsys, "solve", "--dim", "3",
                       "--potential", "coulomb", "--nr", "0")  # --l missing
    assert rc == 2
    rc, _, _ = run_cli(capsys, "solve", "--dim", "4",
                       "--potential", "coulomb", "--l", "0", "--nr", "0")
    assert rc == 2
    rc, _, _ = run_cli(capsys, "frobnicate")
    assert rc == 2


# -- spectrum -------------------------------------------------------------------


def test_spectrum_coulomb_grid(capsys):
    rc, out, err = run_cli(capsys, "spectrum", "--dim", "3",
                           "--potential", "coulomb",
                           "--l-range", "0..2", "--nr-range", "0..2",
                           "--format", "csv", "--no-header")
    assert rc == 0 and err == ""
    _, columns, rows = read_csv(out)
    assert columns == ["l", "nr", "r0", "w", "beta", "lbar",
                       "E0", "E2term", "E3term", "E_total", "error"]
    assert len(rows) == 9
    for row in rows:
        l, nr = int(row[0]), int(row[1])
        exact = -1.0 / (nr + l + 1) ** 2
        assert float(row[9]) == pytest.approx(exact, abs=1e-9)
        assert row[10] == ""


def test_spectrum_empty_range(capsys):
    rc, out, err = run_cli(capsys, "spectrum", "--dim", "3",
                           "--potential", "coulomb",
                           "--l-range", "2..1", "--nr-range", "0..0",
                           "--format", "csv", "--no-header")
    assert rc == 0 and err == ""
    _, columns, rows = read_csv(out)
    assert columns[0] == "l" and rows == []


def test_spectrum_range_syntax_errors(capsys):
    rc, _, err = run_cli(capsys, "spectrum", "--dim", "3",
                         "--potential", "coulomb",
                         "--l-range", "0-2", "--nr-range", "0..0")
    assert rc == 2
    assert "--l-range expects A..B" in err

    rc, _, err = run_cli(capsys, "spectrum", "--dim", "3",
                         "--potential", "coulomb",
                         "--l-range=-1..2", "--nr-range", "0..0")
    assert rc == 2
    assert "start must be non-negative" in err


def test_spectrum_records_per_row_failures(capsys, tmp_path):
    # A bracket that tops out at the l=0 root: higher l has no root inside,
    # so those rows must carry the error while the run keeps going.
    cfg = tmp_path / "narrow.cfg"
    cfg.write_text("bracket_hi = 1.0\n")
    rc, out, err = run_cli(capsys, "spectrum", "--dim", "3",
                           "--potential", "coulomb",
                           "--l-range", "0..2", "--nr-range", "0..0",
                           "--config", str(cfg),
                           "--format", "csv", "--no-header")
    assert rc == 0 and err == ""
    _, columns, rows = read_csv(out)
    assert len(rows) == 3
    ok, bad = rows[0], rows[1:]
    assert ok[columns.index("error")] == ""
    assert float(ok[columns.index("E_total")]) == pytest.approx(-1.0, abs=1e-9)
    for row in bad:
        assert row[columns.index("error")] != ""
        assert row[columns.index("E_total")] == ""


def test_spectrum_rows_rejected_by_the_problem(capsys):
    # a 2D donor needs l = |m|: the other rows carry SletProblem's error,
    # with empty csv cells and null json cells, and the run goes on
    argv = ("spectrum", "--dim", "2", "--potential", "donor",
            "--param", "gamma=1", "--param", "m=-1", "--l-range", "0..2",
            "--nr-range", "0..0", "--no-header")
    want = engine.solve(engine.SletProblem(2, 1, 0, potentials.donor(1.0, -1)))
    rc, out, err = run_cli(capsys, *argv, "--format", "csv")
    assert rc == 0 and err == ""
    _, columns, rows = read_csv(out)
    assert columns == [*cli._SOLVE_COLS, "error"]
    for l, row in zip((0, 2), (rows[0], rows[2])):
        assert row == [str(l), "0"] + [""] * 8 + [
            f"2D donor requires l = |m|; got l={l}, m=-1"]
    assert rows[1][-1] == ""
    assert float(rows[1][columns.index("E_total")]) == pytest.approx(
        want.E_total, rel=1e-13)
    rc, out, err = run_cli(capsys, *argv, "--format", "json")
    assert rc == 0 and err == ""
    payload = json.loads(out)["rows"]
    for l, row in zip((0, 2), (payload[0], payload[2])):
        assert row == {"l": l, "nr": 0, **dict.fromkeys(cli._SOLVE_COLS[2:]),
                       "error": f"2D donor requires l = |m|; got l={l}, m=-1"}
    assert payload[1]["error"] == ""
    assert payload[1]["E_total"] == pytest.approx(want.E_total, rel=1e-13)


def test_spectrum_does_not_import_numpy_ma(tmp_path):
    # numpy.ma is imported lazily, by np.unique among others, and costs
    # about 1.7 MB of peak RSS on its own
    script = (
        "import sys\n"
        "from slet import cli\n"
        "rc = cli.main(['spectrum', '--dim', '3', '--potential', 'power',\n"
        "              '--param', 'A=1.3', '--param', 'nu=1.7',\n"
        "              '--l-range', '0..9', '--nr-range', '0..9',\n"
        "              '--format', 'csv', '--out', 'out.csv'])\n"
        "assert rc == 0, rc\n"
        "print('numpy.ma' in sys.modules)\n")
    src = pathlib.Path(slet.__file__).resolve().parents[1]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               [str(src)] + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
    assert len((tmp_path / "out.csv").read_text().splitlines()) == 102


def test_validate_does_not_import_scipy(tmp_path):
    # scipy.linalg alone doubles a process's peak RSS
    script = (
        "import sys\n"
        "from slet import cli\n"
        "rc = cli.main(['validate', '--dim', '2', '--potential', 'donor',\n"
        "              '--param', 'gamma=0', '--param', 'm=1', '--l', '1',\n"
        "              '--nr', '0', '--oracle-R', '21', '--oracle-N', '600',\n"
        "              '--out', 'out.txt'])\n"
        "assert rc == 0, rc\n"
        "print('scipy' in sys.modules)\n")
    src = pathlib.Path(slet.__file__).resolve().parents[1]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               [str(src)] + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_spectrum_json_rows(capsys):
    rc, out, _ = run_cli(capsys, "spectrum", "--dim", "3",
                         "--potential", "coulomb",
                         "--l-range", "0..1", "--nr-range", "0..0",
                         "--format", "json", "--no-header")
    assert rc == 0
    payload = json.loads(out)
    assert set(payload) == {"command", "rows"}
    assert [r["l"] for r in payload["rows"]] == [0, 1]
    for row in payload["rows"]:
        assert isinstance(row["E_total"], float)
        assert row["error"] == ""


def test_spectrum_table_format(capsys):
    rc, out, _ = run_cli(capsys, "spectrum", "--dim", "3",
                         "--potential", "coulomb",
                         "--l-range", "0..0", "--nr-range", "0..1",
                         "--no-header")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].split()[:2] == ["l", "nr"]
    assert "E_total" in lines[0]
    assert len(lines) == 3


# -- sweep ----------------------------------------------------------------------


def test_sweep_donor_ground_state(capsys):
    rc, out, err = run_cli(capsys, "sweep", "--dim", "2",
                           "--potential", "donor", "--m", "0", "--nr", "0",
                           "--gamma", "0:200:50",
                           "--format", "csv", "--no-header")
    assert rc == 0 and err == ""
    _, columns, rows = read_csv(out)
    assert columns == ["gamma", "E_total", "E0", "E2term", "E3term", "error"]
    assert [float(r[0]) for r in rows] == [0.0, 50.0, 100.0, 150.0, 200.0]
    energies = [float(r[1]) for r in rows]
    assert energies[0] == pytest.approx(-4.0, abs=1e-8)
    assert energies[1] == pytest.approx(31.70780473168524, rel=1e-9)
    assert energies[2] == pytest.approx(74.848454510975813, rel=1e-9)
    assert energies[4] == pytest.approx(165.09516715676077, rel=1e-9)
    assert energies == sorted(energies)
    assert all(r[5] == "" for r in rows)


def test_sweep_negative_m_zero_field(capsys):
    rc, out, _ = run_cli(capsys, "sweep", "--dim", "2", "--potential", "donor",
                         "--m", "-1", "--nr", "0", "--gamma", "0:0:1",
                         "--format", "csv", "--no-header")
    assert rc == 0
    _, _, rows = read_csv(out)
    (row,) = rows
    assert float(row[1]) == pytest.approx(-4.0 / 9.0, abs=1e-9)


def test_sweep_gamma_grid_errors(capsys):
    base = ("sweep", "--dim", "2", "--potential", "donor",
            "--m", "0", "--nr", "0")
    rc, _, err = run_cli(capsys, *base, "--gamma", "0:10:0")
    assert rc == 2 and "STEP must be positive" in err

    rc, _, err = run_cli(capsys, *base, "--gamma", "0:10")
    assert rc == 2 and "expects LO:HI:STEP" in err

    rc, _, err = run_cli(capsys, *base, "--gamma=-1:10:1")
    assert rc == 2 and "LO must be non-negative" in err


@pytest.mark.parametrize("grid", ["nan:1:0.1", "0:inf:1", "0:1:inf", "0:nan:1"])
def test_sweep_gamma_grid_not_finite(capsys, grid):
    rc, out, err = run_cli(capsys, "sweep", "--dim", "2", "--potential", "donor",
                           "--m", "0", "--nr", "0", "--gamma", grid)
    assert rc == 2 and out == ""
    assert err.startswith("error: --gamma")


@pytest.mark.parametrize("grid", ["0:1e300:1e-10", "0:1e12:1e-6"])
def test_sweep_gamma_grid_too_large(capsys, grid):
    # the first overflows the row count, the second would list 1e18 floats
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "sweep", "--dim", "2", "--potential", "donor",
                           "--m", "0", "--nr", "0", "--gamma", grid)
    assert time.perf_counter() - start < 0.5
    assert rc == 2 and out == ""
    assert err.startswith("error: --gamma")
    assert "rows" in err


def test_sweep_empty_grid(capsys):
    rc, out, err = run_cli(capsys, "sweep", "--dim", "2",
                           "--potential", "donor", "--m", "0", "--nr", "0",
                           "--gamma", "5:1:1", "--format", "csv",
                           "--no-header")
    assert rc == 0 and err == ""
    _, _, rows = read_csv(out)
    assert rows == []


def test_sweep_requires_2d_donor(capsys):
    rc, _, err = run_cli(capsys, "sweep", "--dim", "3", "--potential", "donor",
                         "--m", "0", "--nr", "0", "--gamma", "0:1:1")
    assert rc == 2
    assert err == "error: sweep is 2D only; pass --dim 2\n"

    rc, _, err = run_cli(capsys, "sweep", "--dim", "2",
                         "--potential", "coulomb",
                         "--m", "0", "--nr", "0", "--gamma", "0:1:1")
    assert rc == 2
    assert err == "error: sweep requires --potential donor\n"


def _sweep_argv(grid, *extra):
    return ("sweep", "--dim", "2", "--potential", "donor", "--m", "-1",
            "--nr", "0", "--gamma", grid, "--no-header", *extra)


@pytest.mark.parametrize("grid,narrow", [
    ("0:10:0.5", False), ("3:3:1", False), ("5:1:1", False),
    ("0:20:2.5", True),
], ids=["rows", "one-row", "empty", "narrow-window"])
def test_sweep_rows_match_scalar_solve(capsys, tmp_path, grid, narrow):
    # the batch's rows against engine.solve of each row's own donor: the
    # energies within the batch tolerance, a failed row in the scalar text
    extra, solver = (), engine.SolverSettings()
    if narrow:  # bracket_hi = 1 holds the strong-field rows' roots only
        cfg = tmp_path / "narrow.cfg"
        cfg.write_text("bracket_hi = 1.0\n")
        extra, solver = ("--config", str(cfg)), engine.SolverSettings(
            bracket_hi=1.0)
    rc, out, err = run_cli(capsys,
                           *_sweep_argv(grid, "--format", "csv", *extra))
    assert rc == 0 and err == ""
    _, _, rows = read_csv(out)
    gammas = cli._parse_gamma_grid(grid)
    assert [float(row[0]) for row in rows] == gammas
    failed = 0
    for row, g in zip(rows, gammas):
        try:
            want = engine.solve(engine.SletProblem(
                2, 1, 0, potentials.donor(g, -1), solver))
        except SletError as exc:
            assert row[1:] == ["", "", "", "", str(exc)]
            failed += 1
            continue
        assert float(row[2]) == pytest.approx(want.E0, rel=1e-14, abs=0.0)
        scale = 1e-13 * max(abs(want.E_total), 1.0)
        for k, value in ((1, want.E_total), (3, want.E2_over_lbar2),
                         (4, want.E3_over_lbar3)):
            assert abs(float(row[k]) - value) <= scale
        assert row[5] == ""
    assert 0 < failed < len(rows) if narrow else failed == 0


def test_sweep_settles_its_rows_in_the_batch(capsys, monkeypatch):
    monkeypatch.setattr(engine, "solve", lambda p: pytest.fail("scalar path"))
    rc, out, err = run_cli(capsys, *_sweep_argv("0:200:2", "--format", "csv"))
    assert rc == 0 and err == ""
    _, _, rows = read_csv(out)
    assert len(rows) == 101 and all(row[5] == "" for row in rows)


def _assert_blocks_give_the_bytes_of_one_block(capsys, monkeypatch, argv):
    # 20 levels: one batch of 20, then blocks of 7, 7 and 6 with the same
    # bytes in every format
    sizes = []
    solve_batch = engine._solve_batch

    def spy(dim, potential, settings, levels):
        sizes.append(len(levels))
        return solve_batch(dim, potential, settings, levels)

    monkeypatch.setattr(engine, "_solve_batch", spy)
    block = engine._BLOCK_LEVELS
    for fmt in ("table", "csv", "json"):
        whole = run_cli(capsys, *argv, "--format", fmt)
        assert whole[0] == 0
        monkeypatch.setattr(engine, "_BLOCK_LEVELS", 7)
        assert run_cli(capsys, *argv, "--format", fmt) == whole
        monkeypatch.setattr(engine, "_BLOCK_LEVELS", block)
    assert sizes == [20, 7, 7, 6] * 3


def test_sweep_blocks_give_the_bytes_of_one_block(capsys, monkeypatch):
    _assert_blocks_give_the_bytes_of_one_block(capsys, monkeypatch,
                                               _sweep_argv("0:19:1"))


def test_spectrum_blocks_give_the_bytes_of_one_block(capsys, monkeypatch):
    _assert_blocks_give_the_bytes_of_one_block(
        capsys, monkeypatch,
        ("spectrum", "--dim", "3", "--potential", "power", "--param", "A=1.3",
         "--param", "nu=1.7", "--l-range", "0..4", "--nr-range", "0..3",
         "--no-header"))


_NO_RISE = ("V' is nowhere positive on the bracket window; the potential "
            "admits no expansion point")


def test_builtin_parameter_that_overflows_fails_as_its_spelling(capsys):
    # B^2 overflows to inf in the harmonic jet, as in the spelled expression
    level = ("--dim", "3", "--l", "0", "--nr", "0", "--no-header")
    rc, out, err = run_cli(capsys, "solve", "--potential", "harmonic",
                           "--param", "B=1e200", *level)
    assert (rc, out, err) == (3, "", f"error: {_NO_RISE}\n")
    for potential in ("harmonic", "B^2*r^2/4"):
        rc, out, err = run_cli(capsys, "validate", "--potential", potential,
                               "--param", "B=1e200", *level)
        assert rc == 3 and err == ""
        assert out.splitlines() == [
            f"SLET failed          {_NO_RISE}",
            "oracle failed        effective potential not finite on the grid"]
        rc, out, err = run_cli(capsys, "spectrum", "--dim", "3",
                               "--potential", potential, "--param", "B=1e200",
                               "--l-range", "0..1", "--nr-range", "0..1",
                               "--format", "csv", "--no-header")
        _, _, rows = read_csv(out)
        assert rc == 0 and err == "" and len(rows) == 4
        assert all(row[-1] == _NO_RISE for row in rows)


@pytest.mark.parametrize("cmd", ["solve", "validate"])
@pytest.mark.parametrize("m", ["inf", "-inf", "nan"])
def test_donor_m_that_is_no_finite_integer_exits_2(capsys, cmd, m):
    rc, out, err = run_cli(capsys, cmd, "--dim", "2", "--potential", "donor",
                           "--param", "gamma=1", "--param", f"m={m}",
                           "--l", "0", "--nr", "0")
    assert (rc, out) == (2, "")
    assert err == f"error: m must be a finite integer, got {float(m)}\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-1e400"])
def test_non_finite_expression_parameter_exits_2(capsys, value):
    # json output would otherwise carry a bare NaN no strict parser reads
    rc, out, err = run_cli(capsys, "validate", "--dim", "3", "--potential",
                           "r", "--param", f"Z={value}", "--l", "0",
                           "--nr", "0", "--format", "json", "--no-header")
    assert (rc, out) == (2, "")
    assert err == f"error: Z must be finite, got {float(value)}\n"


_HUGE = "1" + "0" * 400


@pytest.mark.parametrize("argv,err", [
    (["solve", "--dim", "3", "--potential", "coulomb", "--l", _HUGE,
      "--nr", "0"], "l is beyond the float range"),
    (["solve", "--dim", "3", "--potential", "coulomb", "--l", "0",
      "--nr", _HUGE], "nr is beyond the float range"),
    (["validate", "--dim", "3", "--potential", "coulomb", "--l", _HUGE,
      "--nr", "0", "--oracle-N", "200"], "l is beyond the float range"),
    (["spectrum", "--dim", "3", "--potential", "coulomb",
      "--l-range", f"{_HUGE}..{_HUGE}", "--nr-range", "0..0"],
     "--l-range start is beyond the float range"),
    (["sweep", "--dim", "2", "--potential", "donor", "--m", "0",
      "--nr", _HUGE, "--gamma", "0:1:1"], "nr is beyond the float range"),
    # more digits than Python's int() takes from a string
    (["spectrum", "--dim", "3", "--potential", "coulomb",
      "--l-range", "0..0", "--nr-range", "0.." + "1" * 5001],
     "--nr-range bound has too many digits"),
], ids=["solve-l", "solve-nr", "validate-l", "spectrum-l", "sweep-nr",
        "spectrum-digits"])
def test_quantum_number_beyond_the_float_range_exits_2(capsys, argv, err):
    rc, out, got = run_cli(capsys, *argv)
    assert (rc, out) == (2, "")
    assert got == f"error: {err}\n"


def test_sweep_m_beyond_the_float_range_exits_2(capsys):
    m = 10**400
    rc, out, err = run_cli(capsys, "sweep", "--dim", "2", "--potential",
                           "donor", "--m", str(m), "--nr", "0",
                           "--gamma", "0:1:1")
    assert (rc, out) == (2, "")
    assert err == f"error: m must be a finite integer, got {m}\n"


# -- validate ---------------------------------------------------------------------


def test_validate_linear_potential(capsys):
    rc, out, err = run_cli(capsys, "validate", "--dim", "3", "--potential", "r",
                           "--l", "0", "--nr", "0",
                           "--oracle-R", "30", "--oracle-N", "6000",
                           "--format", "json", "--no-header")
    assert rc == 0 and err == ""
    payload = json.loads(out)
    assert payload["errors"] == {"slet": None, "oracle": None}
    assert payload["oracle"]["converged"] is True
    # lowest eigenvalue of the N = 6000, R = 30 matrix (LAPACK dstebz), which
    # the oracle locates to within eig_tol/4
    assert payload["oracle"]["energy"] == pytest.approx(2.338105133415424,
                                                        abs=2.5e-6)
    rel = payload["comparison"]["rel_diff"]
    assert 1.5e-4 < rel < 3.5e-4


def test_validate_reports_unconverged_box(capsys):
    # Box too small for the n=1 hydrogen state; the tool still exits 0 and
    # says so in the convergence flag.
    rc, out, err = run_cli(capsys, "validate", "--dim", "3",
                           "--potential", "coulomb", "--l", "0", "--nr", "1",
                           "--oracle-R", "6", "--oracle-N", "1000",
                           "--format", "json", "--no-header")
    assert rc == 0 and err == ""
    payload = json.loads(out)
    assert payload["oracle"]["converged"] is False
    assert abs(payload["oracle"]["box_shift"]) > 1e-5
    assert payload["comparison"] is not None


def test_validate_csv_schema(capsys):
    rc, out, err = run_cli(capsys, "validate", "--dim", "3",
                           "--potential", "coulomb", "--l", "0", "--nr", "0",
                           "--oracle-R", "20", "--oracle-N", "1500",
                           "--format", "csv", "--no-header")
    assert rc == 0 and err == ""
    _, columns, rows = read_csv(out)
    assert columns == ["E_slet", "E_oracle", "E_oracle_refined",
                       "E_oracle_extrapolated", "box_shift", "converged",
                       "abs_diff", "rel_diff", "error"]
    (row,) = rows
    assert float(row[0]) == pytest.approx(-1.0, abs=1e-9)
    assert row[5] in ("true", "false")
    assert row[8] == ""


def test_validate_oracle_failure_exits_3(capsys):
    # ln(r - 20) is not finite over the grid, so the oracle leg must fail;
    # a partial report still comes out, with exit code 3.
    rc, out, _ = run_cli(capsys, "validate", "--dim", "3",
                         "--potential", "ln(r - 20)", "--l", "0", "--nr", "0",
                         "--oracle-R", "30", "--oracle-N", "1000",
                         "--format", "json", "--no-header")
    assert rc == 3
    payload = json.loads(out)
    errors = payload["errors"]
    assert errors["oracle"] is not None or errors["slet"] is not None
    assert payload["comparison"] is None


def test_validate_table_output(capsys):
    rc, out, _ = run_cli(capsys, "validate", "--dim", "3",
                         "--potential", "coulomb", "--l", "0", "--nr", "0",
                         "--oracle-R", "20", "--oracle-N", "1500",
                         "--no-header")
    assert rc == 0
    assert "SLET E_total" in out
    assert "oracle energy" in out
    assert "rel diff" in out


@pytest.mark.parametrize("flag,value", [
    ("--oracle-tol", "inf"), ("--oracle-tol", "nan"),
    ("--oracle-tol", "1e300"), ("--oracle-tol", "1"),
    ("--oracle-R", "inf"), ("--oracle-R", "nan"),
    ("--oracle-R", "1e300"), ("--oracle-R", "1e-300"),
])
def test_validate_rejects_extreme_oracle_inputs(capsys, flag, value):
    # each ends as a rejected flag (2) or a reported oracle failure (3),
    # never as an energy and never as a traceback
    rc, out, err = run_cli(capsys, "validate", "--dim", "3",
                           "--potential", "coulomb", "--l", "0", "--nr", "0",
                           "--oracle-N", "500", flag, value)
    if rc == 2:
        assert out == "" and err.startswith("error: ")
    else:
        assert rc == 3 and err == ""
        assert "oracle failed" in out and "oracle energy" not in out


@pytest.mark.parametrize("dim,n,radius,h", [(3, "100", "1e-300", "9.90099e-303"),
                                            (2, "400", "1e80", "2.5e+77")])
def test_spacing_out_of_range_names_the_grid_points_given(capsys, dim, n,
                                                          radius, h):
    # the coarse grids fail first and the larger box after them; the
    # message names the --oracle-N grid
    rc, out, err = run_cli(capsys, "validate", "--dim", str(dim),
                           "--potential", "coulomb", "--l", "0", "--nr", "0",
                           "--oracle-N", n, "--oracle-R", radius,
                           "--no-header")
    assert rc == 3 and err == ""
    assert out.splitlines()[1] == (
        f"oracle failed        grid spacing {h} of {n} points is out of range")


def test_validate_rejects_huge_oracle_grid(capsys):
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "validate", "--dim", "3",
                           "--potential", "coulomb", "--l", "0", "--nr", "0",
                           "--oracle-N", "1000000000")
    assert time.perf_counter() - start < 0.5
    assert rc == 2 and out == ""
    assert err == "error: grid_points must be at most 1000000\n"


# -- output plumbing -----------------------------------------------------------


def test_csv_cells_match_json_floats(capsys):
    args = ("solve", "--dim", "3", "--potential", "coulomb",
            "--l", "1", "--nr", "0", "--no-header")
    rc, csv_out, _ = run_cli(capsys, *args, "--format", "csv")
    assert rc == 0
    rc, json_out, _ = run_cli(capsys, *args, "--format", "json")
    assert rc == 0

    _, columns, (row,) = read_csv(csv_out)
    bd = json.loads(json_out)["breakdown"]
    # 17 significant digits round-trip double precision exactly.
    for col, key in (("r0", "r0"), ("w", "w"), ("beta", "beta"),
                     ("lbar", "lbar"), ("E0", "E0"),
                     ("E2term", "E2_over_lbar2"),
                     ("E3term", "E3_over_lbar3"), ("E_total", "E_total")):
        assert float(row[columns.index(col)]) == bd[key]


def test_no_header_output_is_deterministic(capsys):
    args = ("spectrum", "--dim", "3", "--potential", "coulomb",
            "--l-range", "0..1", "--nr-range", "0..1",
            "--format", "csv", "--no-header")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second

    args = ("solve", "--dim", "3", "--potential", "coulomb",
            "--l", "0", "--nr", "0", "--format", "json", "--no-header")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_header_line_shape(capsys):
    rc, out, _ = run_cli(capsys, "solve", "--dim", "3",
                         "--potential", "coulomb", "--l", "0", "--nr", "0",
                         "--format", "csv")
    assert rc == 0
    header = out.split("\r\n", 1)[0]
    parts = header.split()
    assert parts[0] == "#" and parts[1] == "generated"
    assert parts[3] == "slet"

    rc, out, _ = run_cli(capsys, "solve", "--dim", "3",
                         "--potential", "coulomb", "--l", "0", "--nr", "0",
                         "--format", "json")
    payload = json.loads(out)
    assert "timestamp" in payload["generated"]
    assert "version" in payload["generated"]


def test_out_writes_file_instead_of_stdout(capsys, tmp_path):
    args = ("solve", "--dim", "3", "--potential", "coulomb",
            "--l", "0", "--nr", "0", "--format", "csv", "--no-header")
    rc, stdout_text, _ = run_cli(capsys, *args)
    assert rc == 0

    path = tmp_path / "run.csv"
    rc, out, _ = run_cli(capsys, *args, "--out", str(path))
    assert rc == 0
    assert out == ""
    with open(path, encoding="utf-8", newline="") as fh:
        assert fh.read() == stdout_text


@pytest.mark.parametrize("argv", [
    ("solve", "--dim", "3", "--potential", "coulomb", "--l", "0", "--nr", "0"),
    ("spectrum", "--dim", "3", "--potential", "coulomb",
     "--l-range", "0..0", "--nr-range", "0..0"),
])
def test_out_unwritable_exits_2(capsys, tmp_path, argv):
    rc, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "no" / "x"))
    assert rc == 2 and out == ""
    assert err.startswith("error: cannot write output file: ")


def test_parser_state_does_not_leak_between_calls(capsys):
    rc, out, _ = run_cli(capsys, "solve", "--dim", "3", "--potential", "power",
                         "--param", "A=1", "--param", "nu=2",
                         "--l", "0", "--nr", "0", "--format", "json",
                         "--no-header")
    assert rc == 0
    assert json.loads(out)["problem"]["params"] == {"A": 1.0, "nu": 2.0}

    rc, out, _ = run_cli(capsys, "solve", "--dim", "3", "--potential", "power",
                         "--param", "A=3", "--l", "0", "--nr", "0",
                         "--terms", "0", "--format", "csv")
    assert rc == 2  # nu missing: only A=3 may reach the potential

    rc, out, _ = run_cli(capsys, "solve", "--dim", "3", "--potential", "coulomb",
                         "--l", "0", "--nr", "0", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert "generated" in payload
    assert payload["problem"]["params"] == {}
    assert payload["problem"]["terms"] == 3


# -- byte-golden output ----------------------------------------------------------

# Exact --no-header stdout, stderr and exit code of each subcommand in each
# format, including the two partial paths: per-row errors in a spectrum and a
# validate whose legs both fail. The floats are pinned to the last digit, so
# a platform whose libm rounds differently may need the file regenerated:
#   PYTHONPATH=src python tests/test_cli.py
GOLDEN_PATH = pathlib.Path(__file__).resolve().with_name("cli_golden.json")
GOLDEN_CASES = {
    "solve-power": ("solve", "--dim", "3", "--potential", "power",
                    "--param", "A=1", "--param", "nu=2", "--l", "1", "--nr", "0"),
    "solve-expr": ("solve", "--dim", "3", "--potential", "r",
                   "--l", "0", "--nr", "0"),
    "spectrum": ("spectrum", "--dim", "3", "--potential", "coulomb",
                 "--l-range", "0..1", "--nr-range", "0..1"),
    "spectrum-row-errors": ("spectrum", "--dim", "3", "--potential", "coulomb",
                            "--l-range", "0..2", "--nr-range", "0..0",
                            "--config", "narrow.cfg"),
    "sweep": ("sweep", "--dim", "2", "--potential", "donor",
              "--m", "-1", "--nr", "0", "--gamma", "0:2:1"),
    "validate": ("validate", "--dim", "3", "--potential", "coulomb",
                 "--l", "0", "--nr", "0", "--oracle-R", "20", "--oracle-N", "1500"),
    "validate-fails": ("validate", "--dim", "3", "--potential", "ln(r - 20)",
                       "--l", "0", "--nr", "0",
                       "--oracle-R", "20", "--oracle-N", "1500"),
}
GOLDEN_FORMATS = ("table", "csv", "json")


def _golden_argv(name, fmt, header):
    return [*GOLDEN_CASES[name], "--format", fmt] + ([] if header else ["--no-header"])


def _golden_run(name, fmt, header):
    """(rc, stdout, stderr) of one golden case, run in the current directory."""
    pathlib.Path("narrow.cfg").write_text("bracket_hi = 1.0\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(_golden_argv(name, fmt, header))
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("fmt", GOLDEN_FORMATS)
@pytest.mark.parametrize("name", GOLDEN_CASES)
def test_golden_no_header(golden, tmp_path, monkeypatch, name, fmt):
    monkeypatch.chdir(tmp_path)
    want = golden[f"{name}.{fmt}"]
    assert _golden_run(name, fmt, False) == (want["rc"], want["stdout"],
                                             want["stderr"])


@pytest.mark.parametrize("fmt", GOLDEN_FORMATS)
@pytest.mark.parametrize("name", GOLDEN_CASES)
def test_golden_with_header(golden, tmp_path, monkeypatch, name, fmt):
    monkeypatch.chdir(tmp_path)
    want = golden[f"{name}.{fmt}"]
    rc, out, err = _golden_run(name, fmt, True)
    assert (rc, err) == (want["rc"], want["stderr"])
    stamp = r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d(\.\d+)?\+00:00"
    if fmt == "json":
        doc = json.loads(out)
        assert list(doc)[0] == "generated"
        generated = doc.pop("generated")
        assert re.fullmatch(stamp, generated["timestamp"])
        assert generated["version"] == slet.__version__
        assert doc["command"] == _golden_argv(name, fmt, True)
        doc["command"] = _golden_argv(name, fmt, False)
        assert json.dumps(doc, indent=2) + "\n" == want["stdout"]
    else:
        first, _, rest = out.partition("\r\n" if fmt == "csv" else "\n")
        assert re.fullmatch(rf"# generated {stamp} slet {re.escape(slet.__version__)}",
                            first)
        assert rest == want["stdout"]


# -- config files ----------------------------------------------------------------


def test_config_overrides_solver_settings(capsys, tmp_path):
    cfg = tmp_path / "solver.cfg"
    cfg.write_text("# wider scan\n\nscan_points = 400\nbracket_hi = 80\n")
    rc, out, err = run_cli(capsys, "solve", "--dim", "3",
                           "--potential", "coulomb", "--l", "0", "--nr", "0",
                           "--config", str(cfg),
                           "--format", "json", "--no-header")
    assert rc == 0 and err == ""
    payload = json.loads(out)
    assert payload["problem"]["solver"]["scan_points"] == 400
    assert payload["problem"]["solver"]["bracket_hi"] == 80.0
    assert payload["breakdown"]["E_total"] == pytest.approx(-1.0, abs=1e-9)


def test_config_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate = 1\n")
    rc, _, err = run_cli(capsys, "solve", "--dim", "3",
                         "--potential", "coulomb", "--l", "0", "--nr", "0",
                         "--config", str(cfg))
    assert rc == 2
    assert f"{cfg}:1: unknown config key 'frobnicate'" in err


def test_config_malformed_line(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bracket_hi 30\n")
    rc, _, err = run_cli(capsys, "solve", "--dim", "3",
                         "--potential", "coulomb", "--l", "0", "--nr", "0",
                         "--config", str(cfg))
    assert rc == 2
    assert f"{cfg}:1: expected key=value" in err


def test_config_bad_value(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bracket_hi = wide\n")
    rc, _, err = run_cli(capsys, "solve", "--dim", "3",
                         "--potential", "coulomb", "--l", "0", "--nr", "0",
                         "--config", str(cfg))
    assert rc == 2
    assert "bad value for bracket_hi" in err


def test_config_rejects_out_of_range_setting(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("root_tol = 1e-3\n")
    rc, _, err = run_cli(capsys, "solve", "--dim", "3",
                         "--potential", "coulomb", "--l", "0", "--nr", "0",
                         "--config", str(cfg))
    assert rc == 2
    assert "root_tol" in err


@pytest.mark.parametrize("line,message", [
    ("bracket_hi = inf", "need 0 < bracket_lo < bracket_hi < inf"),
    ("scan_points = 10001", "scan_points must lie in [16, 10000]"),
])
def test_config_rejects_unbounded_scan(capsys, tmp_path, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    for cmd in (["solve", "--l", "0", "--nr", "0"],
                ["spectrum", "--l-range", "0..1", "--nr-range", "0..1"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run_cli(capsys, *cmd, "--dim", "3", "--potential",
                                   "coulomb", "--config", str(cfg))
        assert (rc, out, err) == (2, "", f"error: {message}\n")


def test_config_missing_file(capsys, tmp_path):
    rc, _, err = run_cli(capsys, "solve", "--dim", "3",
                         "--potential", "coulomb", "--l", "0", "--nr", "0",
                         "--config", str(tmp_path / "nope.cfg"))
    assert rc == 2
    assert "cannot read config file" in err


if __name__ == "__main__":
    # Rewrite the golden file from the program as it stands; review the diff.
    import os
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        cases = {f"{name}.{fmt}": dict(zip(("rc", "stdout", "stderr"),
                                           _golden_run(name, fmt, False)))
                 for name in GOLDEN_CASES for fmt in GOLDEN_FORMATS}
    GOLDEN_PATH.write_text(json.dumps(cases, indent=2) + "\n", encoding="utf-8")
