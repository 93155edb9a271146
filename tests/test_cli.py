import json
import subprocess
import sys

import numpy as np
import pytest

from cavres import cli
from cavres.entanglement import (closed_form_pt_eigenvalues, gghz_negativity_closed,
                                 negativity_from_spectrum)


def run_cli(args):
    try:
        return cli.main(args)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


class TestSurface:
    def test_row_count_and_first_row(self, tmp_path):
        out = tmp_path / "surf.csv"
        rc = run_cli(["surface", "--family", "mixed", "--param-steps", "11",
                      "--kt-steps", "31", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "param,kt,negativity"
        assert len(lines) == 1 + 11 * 31
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 0.0
        assert abs(float(first[2]) - 2.0 * np.sqrt(2.0) / 3.0) < 1e-9

    def test_param_major_ordering(self, tmp_path):
        out = tmp_path / "surf.csv"
        run_cli(["surface", "--family", "mixed", "--param-steps", "3",
                 "--kt-steps", "4", "--out", str(out)])
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        params = [float(r[0]) for r in rows]
        assert params == sorted(params)
        kts = [float(r[1]) for r in rows[:4]]
        assert kts == sorted(kts)

    def test_gghz_product_column_is_zero(self, tmp_path):
        out = tmp_path / "gghz.csv"
        rc = run_cli(["surface", "--family", "gghz", "--param-min", "1.0",
                      "--param-max", "1.0", "--param-steps", "2",
                      "--kt-steps", "5", "--out", str(out)])
        # param-min == param-max is a usage error; use a full column instead
        assert rc == 2
        rc = run_cli(["surface", "--family", "gghz", "--param-min", "0.0",
                      "--param-max", "1.0", "--param-steps", "3",
                      "--kt-steps", "5", "--out", str(out)])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        last_column = [float(r[2]) for r in rows if float(r[0]) == 1.0]
        assert len(last_column) == 5
        assert all(v == 0.0 for v in last_column)

    def test_determinism(self, tmp_path):
        args = ["surface", "--family", "mixed", "--param-steps", "5",
                "--kt-steps", "7"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("family", ["mixed", "gghz"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_cells_match_scalar_closed_forms(self, tmp_path, family, fmt):
        out = tmp_path / f"surf.{fmt}"
        rc = run_cli(["surface", "--family", family, "--param-steps", "9",
                      "--kt-min", "0", "--kt-max", "3.7", "--kt-steps", "23",
                      "--format", fmt, "--out", str(out)])
        assert rc == 0
        if fmt == "csv":
            rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        else:
            rows = json.loads(out.read_text())["rows"]
        params, kts = np.linspace(0.0, 1.0, 9), np.linspace(0.0, 3.7, 23)
        assert len(rows) == 9 * 23
        for (param, kt, n), (p_ref, kt_ref) in zip(
                rows, [(p, kt) for p in params for kt in kts]):
            if family == "mixed":
                ref = negativity_from_spectrum(closed_form_pt_eigenvalues(p_ref, kt_ref))
            else:
                ref = gghz_negativity_closed(p_ref, kt_ref)
            if fmt == "csv":
                assert (param, kt) == (cli._fmt(p_ref), cli._fmt(kt_ref))
                # 12 significant digits: half a unit in the last one
                assert abs(float(n) - ref) <= 1e-15 + 5e-12 * abs(ref)
            else:
                assert (param, kt) == (p_ref, kt_ref)
                assert abs(n - ref) <= 1e-15

    def test_workers_option_is_gone(self, tmp_path):
        rc = run_cli(["surface", "--family", "mixed", "--param-steps", "3",
                      "--kt-steps", "3", "--out", str(tmp_path / "x.csv"),
                      "--workers", "1"])
        assert rc == 2

    @pytest.mark.parametrize("flag, value", [("--kt-max", "inf"), ("--kt-min", "nan"),
                                             ("--param-max", "nan")])
    def test_non_finite_range_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x.csv"
        rc = run_cli(["surface", "--family", "mixed", "--param-steps", "3",
                      "--kt-steps", "3", flag, value, "--out", str(out)])
        assert rc == 2
        assert "range bounds must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_json_format_carries_conventions(self, tmp_path):
        out = tmp_path / "surf.json"
        rc = run_cli(["surface", "--family", "mixed", "--param-steps", "3",
                      "--kt-steps", "3", "--format", "json", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["family"] == "mixed"
        assert "amplitudes" in doc["meta"]["conventions"]
        assert len(doc["rows"]) == 9

    def test_oracle_agrees(self, tmp_path):
        out = tmp_path / "surf.csv"
        rc = run_cli(["surface", "--family", "mixed", "--param-steps", "4",
                      "--kt-steps", "4", "--out", str(out), "--oracle"])
        assert rc == 0

    def test_gghz_oracle_agrees(self, tmp_path, capsys):
        out = tmp_path / "surf.csv"
        rc = run_cli(["surface", "--family", "gghz", "--param-steps", "4",
                      "--kt-steps", "4", "--out", str(out), "--oracle"])
        assert rc == 0
        assert "oracle check: max |closed form - numeric|" in capsys.readouterr().out

    def test_oracle_mismatch_exit_code(self, tmp_path):
        # an impossible tolerance forces the mismatch path
        out = tmp_path / "surf.csv"
        rc = run_cli(["surface", "--family", "mixed", "--param-steps", "3",
                      "--kt-steps", "3", "--out", str(out), "--oracle",
                      "--tolerance", "1e-30"])
        assert rc == 1

    def test_invalid_steps_usage_error(self, tmp_path):
        rc = run_cli(["surface", "--family", "mixed", "--param-steps", "1",
                      "--kt-steps", "5", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_unknown_flag_usage_error(self, tmp_path):
        rc = run_cli(["surface", "--family", "mixed", "--bogus", "1",
                      "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_unknown_family_usage_error(self, tmp_path):
        rc = run_cli(["surface", "--family", "qubitz",
                      "--out", str(tmp_path / "x.csv")])
        assert rc == 2


class TestBoundary:
    def test_lambda5_starts_near_zero(self, tmp_path):
        out = tmp_path / "b.csv"
        rc = run_cli(["boundary", "lambda5", "--kt-min", "1e-4",
                      "--kt-max", "2.0", "--kt-steps", "10", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "kt,param"
        assert float(lines[1].split(",")[1]) < 1e-3

    def test_gghz_approaches_its_limit(self, tmp_path):
        out = tmp_path / "b.csv"
        rc = run_cli(["boundary", "gghz", "--kt-min", "1.0", "--kt-max", "20.0",
                      "--kt-steps", "5", "--out", str(out)])
        assert rc == 0
        last = out.read_text().splitlines()[-1].split(",")
        assert abs(float(last[1]) - np.sqrt(0.5)) < 1e-4

    def test_lambda7_row_matches_bisection(self, tmp_path):
        from scipy.optimize import bisect
        from cavres.entanglement import closed_form_pt_eigenvalues
        out = tmp_path / "b.csv"
        rc = run_cli(["boundary", "lambda7", "--kt-min", "1.0", "--kt-max", "2.0",
                      "--kt-steps", "2", "--out", str(out)])
        assert rc == 0
        kt, p = map(float, out.read_text().splitlines()[1].split(","))
        root = bisect(lambda q: closed_form_pt_eigenvalues(q, kt).lambda7,
                      0.0, 1.0, xtol=1e-12)
        assert abs(p - root) < 1e-8

    def test_lambda7_at_long_times(self, tmp_path):
        out = tmp_path / "b.csv"
        rc = run_cli(["boundary", "lambda7", "--kt-max", "200", "--out", str(out)])
        assert rc == 0
        values = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
        assert len(values) == 40 and all(0.25 <= v <= 1.0 for v in values)
        assert values[-1] == 0.25

    @pytest.mark.parametrize("flag, value", [("--kt-max", "inf"), ("--kt-min", "nan")])
    def test_non_finite_range_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "b.csv"
        rc = run_cli(["boundary", "lambda5", flag, value, "--out", str(out)])
        assert rc == 2
        assert "boundary needs finite" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_range_usage_error(self, tmp_path):
        rc = run_cli(["boundary", "lambda5", "--kt-min", "0.0",
                      "--kt-max", "2.0", "--out", str(tmp_path / "b.csv")])
        assert rc == 2


class TestVerify:
    @pytest.mark.parametrize("suite", ["closedform", "swap", "regions"])
    def test_suites_pass(self, suite, capsys):
        assert run_cli(["verify", suite]) == 0
        assert "[PASS]" in capsys.readouterr().out

    def test_monogamy_passes(self, capsys):
        assert run_cli(["verify", "monogamy"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 3

    def test_esb_passes(self):
        assert run_cli(["verify", "esb"]) == 0

    def test_forced_failure_with_absurd_tolerance(self, capsys):
        assert run_cli(["verify", "monogamy", "--tolerance", "1e-30"]) == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_unknown_suite_usage_error(self):
        assert run_cli(["verify", "bogus"]) == 2


class TestLandmarks:
    def test_report_and_exit_code(self, capsys):
        rc = run_cli(["landmarks"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out.count("[PASS]") == 8
        assert "[FAIL]" not in captured.out
        assert captured.err == ""

    def test_unreachable_reference_fails(self, capsys, monkeypatch):
        # 0.319 would need an initial negativity no mixture has
        monkeypatch.setitem(cli.LANDMARKS, "equal_entanglement_a_low", (0.319, 0.003))
        rc = run_cli(["landmarks"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out.count("[PASS]") == 7
        fails = [line for line in captured.out.splitlines() if line.startswith("[FAIL]")]
        assert len(fails) == 1 and "equal_entanglement_a_low" in fails[0]
        assert "conventions" in captured.err


class TestPointQueries:
    def test_esd_time_mixed(self, capsys):
        assert run_cli(["esd-time", "--p", "0.385"]) == 0
        assert "1.0912" in capsys.readouterr().out

    def test_esd_time_asymptotic(self, capsys):
        assert run_cli(["esd-time", "--p", "0.1"]) == 0
        assert "asymptotic" in capsys.readouterr().out

    def test_esd_time_gghz(self, capsys):
        assert run_cli(["esd-time", "--a", "0.5"]) == 0
        assert "death at kt" in capsys.readouterr().out

    def test_esd_time_needs_exactly_one_parameter(self):
        assert run_cli(["esd-time"]) == 2
        assert run_cli(["esd-time", "--p", "0.5", "--a", "0.5"]) == 2

    def test_esd_time_domain_error(self):
        assert run_cli(["esd-time", "--p", "1.5"]) == 2

    def test_esd_time_near_one(self, capsys):
        assert run_cli(["esd-time", "--p", "0.99999"]) == 0
        assert "death at kt = 13.01699286" in capsys.readouterr().out

    def test_numerical_failure_is_not_a_usage_error(self, capsys, monkeypatch):
        def fail(p):
            raise RuntimeError("no root found")
        monkeypatch.setattr(cli, "esd_time", fail)
        assert run_cli(["esd-time", "--p", "0.5"]) == 1
        assert "error: no root found" in capsys.readouterr().err

    def test_monogamy_point(self, capsys):
        assert run_cli(["monogamy", "--p", "0.5", "--kt", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "c_pair_sq" in out and "tail slack" in out


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "surf.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "cavres", "surface", "--family", "mixed",
             "--param-steps", "3", "--kt-steps", "3", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert out.exists()

    def test_cli_import_leaves_scipy_out(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, cavres.cli; print('scipy' in sys.modules)"],
            capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout.strip() == "False"

    def test_version_flag(self):
        proc = subprocess.run([sys.executable, "-m", "cavres", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
