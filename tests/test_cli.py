import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from topext import cli, coulomb, fem, interval
from topext.numerics import DomainError
from topext.verify import Report, run

PI2 = math.pi ** 2


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def record_of(out):
    lines = [l for l in out.strip().splitlines() if l]
    assert len(lines) == 1
    return json.loads(lines[0])


class TestIntervalCommands:
    def test_classify_table(self, capsys):
        code, out, _ = run_cli(capsys, "interval", "classify", "--b", "0.5")
        assert code == 0
        assert "Top" in out and "NotTop" not in out

    def test_classify_records(self, capsys):
        code, out, _ = run_cli(capsys, "interval", "classify", "--b", "-1",
                               "--format", "records")
        assert code == 0
        rec = record_of(out)
        assert rec["classification"] == "NotTop"
        assert rec["t"] == 9.0
        assert rec["bottom"] < PI2

    def test_spectrum_records_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "interval", "spectrum", "--t", "12",
                               "--cutoff", "100", "--format", "records")
        assert code == 0
        rec = record_of(out)
        # full-precision round trip of the bottom through JSON
        assert rec["bottom"] == interval.spectrum(12.0, cutoff=100.0).bottom

    def test_tq(self, capsys):
        code, out, _ = run_cli(capsys, "interval", "tq", "--terms", "2000",
                               "--format", "records")
        assert code == 0
        rec = record_of(out)
        assert abs(rec["t_q"] - 12.0) < 1e-4
        assert abs(rec["q_value"] - 4.0) < 1e-4

    def test_secular_csv(self, capsys, tmp_path):
        path = tmp_path / "secular.csv"
        code, out, _ = run_cli(capsys, "interval", "secular", "--min", "-10",
                               "--max", "60", "--samples", "50",
                               "--out", str(path))
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "lambda,F,interval"
        for line in lines[1:]:
            lam, F, idx = line.split(",")
            value = interval.secular_F(float(lam))
            # 15 significant digits in the CSV
            assert abs(float(F) - value) < 1e-12 * max(1.0, abs(value))
            assert int(idx) >= 0

    def test_secular_skips_singularities(self, capsys):
        lo, hi = 4.0 * PI2 - 1e-9, 4.0 * PI2 + 1e-9
        code, out, _ = run_cli(capsys, "interval", "secular",
                               "--min", str(lo), "--max", str(hi),
                               "--samples", "5")
        assert code == 0
        assert out.strip().splitlines() == ["lambda,F,interval"]

    def test_secular_skips_relative_pole_window(self, capsys):
        # near pole k = 1000 the 1e-13 relative window of secular_F is wider
        # than the 1e-6 absolute skip: the first sample lies between the two
        code, out, err = run_cli(capsys, "interval", "secular",
                                 "--min", "39478417.604359426", "--max", "39478418.6",
                                 "--samples", "2")
        assert (code, err) == (0, "")
        header, *rows = out.strip().splitlines()
        assert header == "lambda,F,interval"
        assert [r.split(",")[0] for r in rows] == ["39478418.6"]

    def test_secular_bad_range(self, capsys):
        code, _, err = run_cli(capsys, "interval", "secular", "--min", "10",
                               "--max", "5")
        assert code == 2

    def test_secular_unwritable_out_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, "interval", "secular", "--min", "0",
                                 "--max", "1", "--samples", "2", "--out", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and str(path) in err
        assert "Traceback" not in err


class TestPointCommands:
    def test_classify(self, capsys):
        code, out, _ = run_cli(capsys, "point", "classify", "--alpha", "-0.5",
                               "--format", "records")
        assert code == 0
        rec = record_of(out)
        assert rec["classification"] == "NotTop"
        assert rec["bottom"] == -(4.0 * math.pi * 0.5) ** 2

    def test_classify_friedrichs(self, capsys):
        code, out, _ = run_cli(capsys, "point", "classify", "--alpha", "inf",
                               "--format", "records")
        assert code == 0
        assert record_of(out)["classification"] == "Friedrichs"

    def test_spectrum_none(self, capsys):
        code, out, _ = run_cli(capsys, "point", "spectrum", "--alpha", "1",
                               "--format", "records")
        assert code == 0
        rec = record_of(out)
        assert rec["eigenvalue"] == "none"
        assert rec["bottom"] == 0.0

    def test_tq_exit_codes(self, capsys):
        code, out, _ = run_cli(capsys, "point", "tq", "--format", "records")
        assert code == 0
        rec = record_of(out)
        assert abs(rec["t_q"] - 2.0) < 1e-6
        code, _, _ = run_cli(capsys, "point", "tq", "--quad-tol", "1e-15")
        assert code == 1

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_tq_rejects_a_tolerance_that_is_not_finite_and_positive(self, capsys, tol):
        code, out, err = run_cli(capsys, "point", "tq", f"--quad-tol={tol}",
                                 "--format", "records")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: quad_tol = {float(tol)!r}; "), err


class TestCoulombCommands:
    def test_threshold(self, capsys):
        code, out, _ = run_cli(capsys, "coulomb", "threshold", "--nu", "1",
                               "--format", "records")
        assert code == 0
        assert record_of(out)["alpha_threshold"] == coulomb.alpha_threshold(1.0)

    def test_eigenvalue(self, capsys):
        code, out, _ = run_cli(capsys, "coulomb", "eigenvalue", "--nu", "1",
                               "--alpha", "-1", "--format", "records")
        assert code == 0
        rec = record_of(out)
        assert rec["eigenvalue"] < 0.0
        assert rec["residual"] <= 1e-10

    def test_eigenvalue_above_threshold(self, capsys):
        code, out, _ = run_cli(capsys, "coulomb", "eigenvalue", "--nu", "1",
                               "--alpha", "5", "--format", "records")
        assert code == 0
        assert record_of(out)["eigenvalue"] == "none"

    def test_classify_error_path(self, capsys):
        code, _, err = run_cli(capsys, "coulomb", "classify", "--nu", "-1",
                               "--alpha", "0")
        assert code == 1
        assert "error:" in err


class TestVerifyCommand:
    def test_records_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--grid", "200",
                               "--only", "point", "--format", "records")
        assert code == 0
        for line in out.strip().splitlines():
            rep = Report.from_record(line)
            assert rep == Report.from_record(rep.to_record())
            assert rep.passed

    def test_table_pass_lines(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--grid", "200",
                               "--only", "coulomb")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines and all(l.startswith("PASS") for l in lines)

    def test_only_selects_before_running(self, capsys, monkeypatch):
        # the FEM oracle serves only interval cases: with --only coulomb, or
        # an --only that matches nothing, no interval case may run
        def no_fem(*args, **kwargs):
            raise AssertionError("fem.assemble called")
        monkeypatch.setattr(fem, "assemble", no_fem)
        code, out, _ = run_cli(capsys, "verify", "--only", "coulomb",
                               "--format", "records")
        assert code == 0
        assert {Report.from_record(l).example for l in out.splitlines()} == {"coulomb"}
        code, out, _ = run_cli(capsys, "verify", "--only", "nothing")
        assert code == 2

    @pytest.mark.parametrize("grid", [0, 8, 9, 15, 2000.0, math.nan])
    def test_grid_below_16_is_a_domain_error(self, capsys, monkeypatch, grid):
        # the Richardson checks solve at grid // 2, which fem.assemble needs >= 8;
        # the grid is rejected before any case runs, and so is one that is not
        # an integer
        def no_fem(*args, **kwargs):
            raise AssertionError("fem.assemble called")
        monkeypatch.setattr(fem, "assemble", no_fem)
        need = "grid >= 16" if isinstance(grid, int) else "an integer"
        message = f"grid = {grid}: need {need}"
        with pytest.raises(DomainError, match=f"^{message}"):
            run(grid=grid)
        if isinstance(grid, int):  # the CLI parses --grid as an integer
            code, out, err = run_cli(capsys, "verify", "--grid", str(grid))
            assert (code, out) == (1, "")
            assert err.startswith(f"error: {message}")

    def test_only_matches_nothing(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--grid", "200",
                                 "--only", "nothing")
        assert code == 2
        assert out == ""
        assert "--only 'nothing'" in err


# the last option on each line holds the bad value; the error names it
@pytest.mark.parametrize("argv", [
    ("interval", "classify", "--b", "nan"),
    ("interval", "spectrum", "--t", "nan"),
    ("point", "classify", "--alpha", "nan"),
    ("point", "spectrum", "--alpha", "nan"),
    ("coulomb", "classify", "--nu", "1", "--alpha", "nan"),
    ("coulomb", "classify", "--alpha", "0", "--nu", "nan"),
    ("coulomb", "eigenvalue", "--nu", "1", "--alpha", "nan"),
    ("point", "classify", "--alpha=-inf"),
    ("point", "spectrum", "--alpha=-inf"),
    ("point", "spectrum", "--alpha=-1e200"),
    ("point", "spectrum", "--alpha=-1.7e308"),
    ("coulomb", "classify", "--nu", "1", "--alpha=-inf"),
    ("coulomb", "eigenvalue", "--nu", "1", "--alpha=-inf"),
    ("coulomb", "threshold", "--nu", "inf"),
    ("coulomb", "threshold", "--nu", "1e308"),
    ("interval", "classify", "--b", "1e308"),
    ("interval", "classify", "--b", "inf"),
    ("interval", "classify", "--b=-inf"),
    ("interval", "spectrum", "--t", "inf"),
    ("interval", "spectrum", "--t=-inf"),
    ("interval", "spectrum", "--t=-1e300"),
    ("interval", "spectrum", "--t", "12", "--cutoff", "1e20"),
    ("interval", "tq", "--terms", "0"),
    ("interval", "secular", "--min", "0", "--max", "inf"),
    ("interval", "secular", "--min=-1e308", "--max", "1e308"),
    ("interval", "secular", "--samples", "3", "--min=-1e308", "--max", "1e307"),
    ("interval", "classify", "--b=-1e200"),
    ("interval", "tq", "--terms", "10"),
    ("interval", "tq", "--terms", "2000000"),
    ("coulomb", "eigenvalue", "--nu=1e-300", "--alpha=-1e-200"),
    ("coulomb", "classify", "--nu=1e-320", "--alpha=-1e-300"),
])
def test_nan_input_is_a_domain_error(capsys, argv):
    name = [a for a in argv if a.startswith("--")][-1][2:].split("=")[0]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {name} ")


# argparse's default negative-number pattern has no exponent
@pytest.mark.parametrize("argv", [
    ("interval", "classify", "--b", "-1e6"),
    ("interval", "spectrum", "--t", "-1e9"),
    ("point", "classify", "--alpha", "-1e-3"),
    ("coulomb", "classify", "--nu", "1", "--alpha", "-1E+2"),
])
def test_negative_exponent_is_a_value(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    joined = (*argv[:-2], f"{argv[-2]}={argv[-1]}")
    assert run_cli(capsys, *joined) == (0, out, "")


def test_import_loads_no_scipy():
    # only verify solves with the FEM oracle, and it imports scipy when run
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import topext.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out == "[]\n"


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["interval"])
        assert exc.value.code == 2

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bogus"])
        assert exc.value.code == 2
