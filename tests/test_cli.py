import inspect
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavres import (cli, equal_entanglement_range, esb_time_numeric, esd_threshold_probability,
                    linalg, min_esd_point, min_initial_negativity)
from cavres.entanglement import (ZERO_ENTANGLEMENT, closed_form_pt_eigenvalues,
                                 gghz_negativity_closed, negativity_from_spectrum)
from cavres.states import amplitudes


def run_cli(args):
    try:
        return cli.main(args)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


# a configuration of each table the CLI writes: both surface families at two
# grid sizes, and every boundary kind
CSV_HEADERS = {"surface": cli.CSV_HEADER, "boundary": "kt,param"}
TABLES = {
    "mixed-2x2": ["surface", "--family", "mixed", "--param-steps", "2", "--kt-steps", "2"],
    "gghz-2x2": ["surface", "--family", "gghz", "--param-steps", "2", "--kt-steps", "2"],
    "mixed-9x23": ["surface", "--family", "mixed", "--param-steps", "9", "--kt-max", "3.7",
                   "--kt-steps", "23"],
    "gghz-9x23": ["surface", "--family", "gghz", "--param-steps", "9", "--kt-max", "3.7",
                  "--kt-steps", "23"],
    "lambda5": ["boundary", "lambda5", "--kt-min", "1e-4", "--kt-steps", "13"],
    "lambda7": ["boundary", "lambda7", "--kt-max", "200"],
    "gghz": ["boundary", "gghz", "--kt-max", "20", "--kt-steps", "9"],
}


def _table(tmp_path, name, fmt):
    out = tmp_path / f"{name}.{fmt}"
    assert run_cli(TABLES[name] + ["--format", fmt, "--out", str(out)]) == 0
    return out.read_text()


def _same_twice(tmp_path, names):
    for name in names:
        for fmt in ("csv", "json"):
            first = _table(tmp_path, name, fmt)
            assert _table(tmp_path, name, fmt) == first, (name, fmt)


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
        _same_twice(tmp_path, ["mixed-9x23", "gghz-9x23"])

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

    @pytest.mark.parametrize("flags, message", [
        (["--param-max", "1.5"], "parameter range must lie inside [0, 1]"),
        (["--param-min", "-0.5"], "parameter range must lie inside [0, 1]"),
        (["--kt-min", "2", "--kt-max", "1"], "min must be strictly below max"),
        (["--param-min", "0.5", "--param-max", "0.5"], "min must be strictly below max"),
        (["--param-steps", "1"], "steps must be at least 2"),
        (["--kt-steps", "1"], "steps must be at least 2"),
        (["--kt-min", "-1"], "kt range must be nonnegative"),
    ], ids=["param-above-1", "param-below-0", "kt-reversed", "param-empty",
            "param-steps", "kt-steps", "negative-kt"])
    def test_bad_range_usage_error(self, tmp_path, capsys, flags, message):
        out = tmp_path / "x.csv"
        rc = run_cli(["surface", "--family", "mixed", "--param-steps", "3",
                      "--kt-steps", "3", *flags, "--out", str(out)])
        assert rc == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_json_format_carries_conventions(self, tmp_path):
        out = tmp_path / "surf.json"
        rc = run_cli(["surface", "--family", "mixed", "--param-steps", "3",
                      "--kt-steps", "3", "--format", "json", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["family"] == "mixed"
        assert doc["meta"]["conventions"] == cli.CONVENTIONS
        assert len(doc["rows"]) == 9

    def test_conventions_name_what_is_computed(self):
        # the stated amplitude formulas, evaluated as written, give the program's bits
        conventions = cli.CONVENTIONS
        assert conventions["amplitudes"] == "xi = exp(-kt/2), chi = sqrt(-expm1(-kt))"
        for kt in (1e-13, 0.3, 5.0):
            assert amplitudes(kt) == (np.exp(-kt / 2), np.sqrt(-np.expm1(-kt)))
        assert conventions["negativity_zero_threshold"] is ZERO_ENTANGLEMENT

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

    @pytest.mark.parametrize("family, count", [("mixed", 1554), ("gghz", 1533)])
    def test_non_finite_cells_are_refused(self, tmp_path, capsys, family, count):
        # exp(kt) overflows in the closed forms from kt ~ 177, with a warning
        out = tmp_path / "long.csv"
        with pytest.warns(RuntimeWarning):
            rc = run_cli(["surface", "--family", family, "--param-steps", "21",
                          "--kt-max", "250", "--kt-steps", "251", "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {count} cells are not finite; the smallest kt "
                                f"among them is {177 if family == 'mixed' else 178}\n")
        assert not out.exists()

    @pytest.mark.parametrize("family, closed_form",
                             [("mixed", "negativity_from_spectrum"),
                              ("gghz", "gghz_negativity_closed")])
    def test_a_nan_cell_is_refused(self, tmp_path, capsys, monkeypatch, family, closed_form):
        # one nan cell at kt = 1.5, made without any overflow
        def one_nan(*args):
            grid = np.array(real(*args))
            grid[1, 3] = np.nan
            return grid

        real = getattr(cli, closed_form)
        monkeypatch.setattr(cli, closed_form, one_nan)
        out = tmp_path / "nan.csv"
        rc = run_cli(["surface", "--family", family, "--param-steps", "3", "--kt-max", "2",
                      "--kt-steps", "5", "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 1 cells are not finite; the smallest kt among them is 1.5\n"
        assert not out.exists()

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
    def test_determinism(self, tmp_path):
        _same_twice(tmp_path, ["lambda5", "lambda7", "gghz"])

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

    def test_bad_computed_value_is_a_numerical_failure(self, tmp_path, capsys,
                                                       monkeypatch):
        # a boundary value outside [0, 1] on valid input exits 1, not 2
        monkeypatch.setattr(cli, "lambda5_boundary", lambda kts: np.full_like(kts, 1.5))
        out = tmp_path / "b.csv"
        assert run_cli(["boundary", "lambda5", "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("error: boundary parameter values "
                                           "must lie in [0, 1]\n")
        assert not out.exists()

    def test_degenerate_grid_usage_error(self, tmp_path, capsys):
        # 10 steps across 2 ulp: linspace repeats values
        out = tmp_path / "b.csv"
        rc = run_cli(["boundary", "lambda5", "--kt-min", "1", "--kt-max", "1.0000000000000004",
                      "--kt-steps", "10", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: kt samples must be strictly increasing\n"
        assert not out.exists()

    def test_unknown_kind_usage_error(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        assert run_cli(["boundary", "bogus", "--out", str(out)]) == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_range_usage_error(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        rc = run_cli(["boundary", "lambda5", "--kt-min", "0.0",
                      "--kt-max", "2.0", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == ("error: boundary needs finite 0 < kt-min < kt-max "
                                           "and steps >= 2\n")
        assert not out.exists()


class TestTableBytes:
    """The table writer lays its text out byte for byte as json.dumps and a
    %.12g row template do."""

    @pytest.mark.parametrize("name", list(TABLES))
    def test_json_is_the_json_module_layout(self, tmp_path, name):
        text = _table(tmp_path, name, "json")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("name", list(TABLES))
    def test_csv_renders_the_json_rows(self, tmp_path, name):
        doc = json.loads(_table(tmp_path, name, "json"))
        rows = doc["rows"] if "rows" in doc else doc["samples"]
        header = CSV_HEADERS[TABLES[name][0]]
        line = ",".join(["%.12g"] * (header.count(",") + 1)) + "\n"
        assert _table(tmp_path, name, "csv") == header + "\n" + "".join(
            line % tuple(row) for row in rows)


# any finite float, with subnormals, -0.0, the largest magnitudes and
# large integral values such as 1e22 drawn often
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                                    1.7976931348623157e308, 1e22, 2.0 ** 53, 1e16]))
# a % in the meta shows that the head stays outside the cell template
META = {"note": "100% of cells %r"}


@st.composite
def tables(draw, mismatch=False):
    """(axes, cells): one or two axes and one cell per point of their
    product, or, with mismatch, any other number of cells."""
    axes = draw(st.lists(st.lists(FINITE, min_size=1, max_size=5), min_size=1, max_size=2))
    size = math.prod(map(len, axes))
    if mismatch:
        size = draw(st.integers(0, size + 3).filter(lambda n: n != size))
    return axes, draw(st.lists(FINITE, min_size=size, max_size=size))


def _write(directory, fmt, axes, cells):
    out = directory / f"t.{fmt}"
    out.unlink(missing_ok=True)
    header = ",".join(f"x{i}" for i in range(len(axes))) + ",cell"
    cli._write_table(out, fmt, header, axes, cells, META, "rows")
    return out


class TestTableProperties:
    """The writer's bytes on arbitrary finite tables of one and two axes."""

    @given(tables())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_json_is_the_json_module_text(self, tmp_path_factory, table):
        axes, cells = table
        text = _write(tmp_path_factory.getbasetemp(), "json", axes, cells).read_text()
        rows = [[*point, c] for point, c in zip(itertools.product(*axes), cells)]
        assert text == json.dumps({"meta": META, "rows": rows}, indent=2, sort_keys=True) + "\n"
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    @given(tables())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_csv_is_the_row_layout(self, tmp_path_factory, table):
        axes, cells = table
        text = _write(tmp_path_factory.getbasetemp(), "csv", axes, cells).read_text()
        line = ",".join(["%.12g"] * (len(axes) + 1)) + "\n"
        head, rows = text.split("\n", 1)
        assert head == ",".join(f"x{i}" for i in range(len(axes))) + ",cell"
        assert rows == "".join(line % (*point, c)
                               for point, c in zip(itertools.product(*axes), cells))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @given(table=tables(mismatch=True))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_cell_count_mismatch_writes_nothing(self, tmp_path_factory, fmt, table):
        with pytest.raises(TypeError):
            _write(tmp_path_factory.getbasetemp(), fmt, *table)
        assert not (tmp_path_factory.getbasetemp() / f"t.{fmt}").exists()


_NUM = r"[-+0-9.eE]+|nan|inf"
VERIFY_LINE = re.compile(rf"^\[(PASS|FAIL)\] (\w+): (.*): value ({_NUM}) vs ({_NUM})$")

# each suite's documented default grid: (p axis, kt axis)
DEFAULT_GRIDS = {
    "closedform": (np.linspace(0.0, 1.0, 25), np.linspace(0.0, 3.0, 25)),
    "monogamy": (np.linspace(0.0, 1.0, 25), np.linspace(0.0, 3.0, 25)),
    "swap": (np.linspace(0.0, 1.0, 20), np.linspace(0.0, 3.0, 20)),
    "esb": (np.linspace(0.30, 0.95, 10), ()),
    "regions": (np.linspace(0.0, 1.0, 40), np.linspace(0.0, 3.0, 40)),
}


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

    @pytest.mark.parametrize("audit", cli.SUITES.values(), ids=list(cli.SUITES))
    def test_audits_take_only_a_tolerance(self, audit):
        # each grid is fixed, and pinned by DEFAULT_GRIDS and TestVerifyPinned
        assert list(inspect.signature(audit).parameters) == ["tolerance"]

    def test_birth_bisection_takes_only_p(self):
        assert list(inspect.signature(esb_time_numeric).parameters) == ["p"]

    def test_unknown_suite_usage_error(self):
        assert run_cli(["verify", "bogus"]) == 2

    def test_regions_tolerance_sets_the_threshold(self, capsys):
        # the dense negativity inside region IV is exactly 0, so any positive
        # threshold holds there; 1e-3 lies above the smallest N outside IV
        assert run_cli(["verify", "regions", "--tolerance", "1e-30"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("[PASS] regions:") and out.endswith("vs 1.000e-30\n")
        assert run_cli(["verify", "regions", "--tolerance", "1e-3"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("[FAIL] regions:") and out.endswith("vs 1.000e-03\n")

    def test_regions_zero_tolerance_passes(self, capsys):
        # inside region IV the verdict is value <= threshold, as in every suite
        assert run_cli(["verify", "regions", "--tolerance", "0"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("[PASS] regions:")
        assert out.endswith("violations = 0: value 0.000e+00 vs 0.000e+00\n")

    @pytest.mark.parametrize("argv", [
        ["verify", "swap", "--tolerance", "nan"],
        ["verify", "swap", "--tolerance", "-1"],
        ["verify", "swap", "--tolerance", "inf"],
        ["surface", "--family", "mixed", "--oracle", "--tolerance", "nan"],
        ["surface", "--family", "mixed", "--tolerance", "1e-30"],
    ], ids=["nan", "negative", "inf", "surface-nan", "surface-without-oracle"])
    def test_bad_tolerance_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "surf.csv"
        if argv[0] == "surface":
            argv = argv + ["--out", str(out)]
        assert run_cli(argv) == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()

    @pytest.mark.parametrize("suite", list(DEFAULT_GRIDS))
    def test_report_format(self, suite, capsys):
        assert run_cli(["verify", suite]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == (3 if suite == "monogamy" else 1)
        ps, kts = ({format(x, ".4g") for x in axis} for axis in DEFAULT_GRIDS[suite])
        for line in lines:
            m = VERIFY_LINE.match(line)
            assert m and m[1] == "PASS" and m[2] == suite, line
            points = re.findall(r"worst at \(p=([^,]+), kt=([^)]+)\)$", m[3])
            if suite == "esb":
                points = [(p, None) for p in re.findall(r"worst at p=(\S+)$", m[3])]
            assert len(points) == (0 if suite == "regions" else 1), line
            assert all(p in ps and (kt is None or kt in kts) for p, kt in points), line


# `verify` stdout at the default tolerances, as the per-point oracle printed
# it before the dense path was stacked
PINNED_VERIFY = {
    "closedform": "[PASS] closedform: spectrum vs eigensolver, worst at (p=0.9167, kt=0): "
                  "value 6.106e-16 vs 1.000e-10",
    "regions": "[PASS] regions: region soundness: min N outside IV = 5.363e-06, max N inside "
               "IV = 4.441e-16, violations = 0: value 4.441e-16 vs 1.000e-10",
    "swap": "[PASS] swap: cavity/reservoir swap, worst at (p=0.2105, kt=0): value 4.441e-16 vs "
            "1.000e-12",
    "esb": "[PASS] esb: birth-time formula vs bisection, worst at p=0.95: value 7.174e-07 vs "
           "2.000e-06",
    "monogamy": "[PASS] monogamy: pair-equality deviation, worst at (p=0, kt=2.625): value "
                "8.882e-16 vs 1.000e-10\n"
                "[PASS] monogamy: pair bound slack, worst at (p=0.2083, kt=2.125): value "
                "-2.554e-15 vs -1.000e-10\n"
                "[PASS] monogamy: negativity tail slack, worst at (p=1, kt=0): value "
                "-1.110e-15 vs -1.000e-10",
}
REPORT = re.compile(rf"^(.*?)(, worst at [^:]*)?: value ({_NUM}) vs ({_NUM})$")
NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?(?:e[-+]\d+)?")


def _tiny(*numbers):
    return all(abs(float(x)) < 1e-14 for x in numbers)


def _alike_but_tiny(got, want):
    """The same text, where a number may differ only if it is below 1e-14
    in both."""
    pairs = list(zip(NUMBER.findall(got), NUMBER.findall(want)))
    return (NUMBER.sub("#", got) == NUMBER.sub("#", want)
            and all(a == b or _tiny(a, b) for a, b in pairs))


class TestVerifyPinned:
    """Each suite prints the pinned text, or differs from it only in values
    below 1e-14 (rounding noise) and in the worst point of such a value."""

    @pytest.mark.parametrize("suite", list(PINNED_VERIFY))
    def test_output_matches_the_pinned_text(self, suite, capsys):
        assert run_cli(["verify", suite]) == 0
        got = capsys.readouterr().out.splitlines()
        want = PINNED_VERIFY[suite].splitlines()
        assert len(got) == len(want)
        for line, pinned in zip(got, want):
            if line == pinned:
                continue
            (head, at, value, thr), (p_head, p_at, p_value, p_thr) = (
                REPORT.match(text).groups() for text in (line, pinned))
            assert thr == p_thr and _alike_but_tiny(head, p_head), (line, pinned)
            assert value == p_value or _tiny(value, p_value), (line, pinned)
            assert at == p_at or _tiny(value, p_value), (line, pinned)

    def test_comparison_rule(self):
        assert _alike_but_tiny("max N = 4.441e-16, n = 0", "max N = 2.2e-16, n = 0")
        assert not _alike_but_tiny("min N = 5.363e-06", "min N = 5.364e-06")
        assert not _alike_but_tiny("violations = 1", "violations = 0")


# the `surface --oracle` check line on a 21x31 grid, as printed before the
# oracle shared the generalized-GHZ audit's check
PINNED_ORACLE = {
    "mixed": "oracle check: max |closed form - numeric| = 8.882e-16 at (param=0.05, kt=0.2)",
    "gghz": "oracle check: max |closed form - numeric| = 7.772e-16 at (param=0.5, kt=0.2)",
}
ORACLE_LINE = re.compile(rf"^(oracle check: .* = )({_NUM})( at .*)$")


class TestSurfaceOraclePinned:
    """The oracle check prints the pinned line, or differs from it only in a
    deviation below 1e-14 and in the point where such a deviation lies."""

    @pytest.mark.parametrize("family", list(PINNED_ORACLE))
    def test_oracle_line_matches_the_pinned_text(self, tmp_path, capsys, family):
        out = tmp_path / "surf.csv"
        assert run_cli(["surface", "--family", family, "--param-steps", "21",
                        "--kt-steps", "31", "--oracle", "--out", str(out)]) == 0
        wrote, line = capsys.readouterr().out.splitlines()
        assert wrote == f"wrote 651 rows to {out}"
        (head, value, at), (p_head, p_value, p_at) = (
            ORACLE_LINE.match(text).groups() for text in (line, PINNED_ORACLE[family]))
        assert head == p_head and _alike_but_tiny(value, p_value), line
        assert at == p_at or _tiny(value, p_value), line


# every run whose printed values the dense oracle decides
DENSE_RUNS = {**{suite: ["verify", suite] for suite in cli.SUITES},
              **{f"surface-{family}": ["surface", "--family", family, "--param-steps", "21",
                                       "--kt-steps", "31", "--oracle"]
                 for family in ("mixed", "gghz")}}
# the block sizes each run solves: swap only compares marginals
BLOCK_SIZES = {"swap": set(), "surface-gghz": {1, 2}}
LOCATION = re.compile(r" at (\([^)]*\)|p=[^:]*)")


class TestClosedFormBlocksAgainstEigvalsh:
    """Each run prints the same values, to 1e-15, when `_block_spectrum` sends
    blocks of every size, 1x1 and 2x2 ones too, to eigvalsh; a worst point
    may move between near ties, and the surface file keeps its bytes."""

    @pytest.mark.parametrize("run", list(DENSE_RUNS))
    def test_printed_values_agree(self, monkeypatch, tmp_path, capsys, run):
        out = tmp_path / "surf.csv"
        argv = DENSE_RUNS[run] + (["--out", str(out)] if run.startswith("surface") else [])
        assert run_cli(argv) == 0
        fast, fast_file = capsys.readouterr().out, out.exists() and out.read_bytes()
        sizes = set()

        def lapack(sub):
            sizes.add(sub.shape[-1])
            return np.linalg.eigvalsh(sub)
        monkeypatch.setattr(linalg, "_eigvalsh_of_size", lapack)
        assert run_cli(argv) == 0
        slow, slow_file = capsys.readouterr().out, out.exists() and out.read_bytes()
        assert sizes == BLOCK_SIZES.get(run, {1, 2, 3}) and fast_file == slow_file
        fast, slow = LOCATION.sub("", fast), LOCATION.sub("", slow)
        assert NUMBER.sub("#", fast) == NUMBER.sub("#", slow), (fast, slow)
        for a, b in zip(NUMBER.findall(fast), NUMBER.findall(slow)):
            assert abs(float(a) - float(b)) <= 1e-15, (fast, slow)


class TestLandmarks:
    def test_report_and_exit_code(self, capsys):
        rc = run_cli(["landmarks"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out.count("[PASS]") == 8
        assert "[FAIL]" not in captured.out
        assert captured.err == ""

    def test_each_name_prints_its_own_value(self, capsys):
        # cmd_landmarks pairs names and values by position; tie each name to
        # the function that defines it
        (p_min, kt_min), (p_n, n_min) = min_esd_point(), min_initial_negativity()
        a_low, a_high, max_kt = equal_entanglement_range()
        want = {"esd_onset_probability": esd_threshold_probability(),
                "min_esd_point_p": p_min, "min_esd_point_kt": kt_min,
                "min_initial_negativity_p": p_n, "min_initial_negativity_n": n_min,
                "equal_entanglement_a_low": a_low, "equal_entanglement_a_high": a_high,
                "max_gghz_esd_kt": max_kt}
        assert run_cli(["landmarks"]) == 0
        out = capsys.readouterr().out
        printed = re.findall(r"^\[PASS\] (\w+): computed ([\d.]+),", out, re.M)
        assert printed == [(name, f"{want[name]:.6f}") for name in cli.LANDMARKS]

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

    def test_onset_follows_the_lambda7_boundary(self, capsys, monkeypatch):
        monkeypatch.setattr("cavres.esd.lambda7_boundary", lambda kt: 0.3)
        rc = run_cli(["landmarks"])
        fails = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("[FAIL]")]
        assert rc == 1
        assert len(fails) == 1 and "esd_onset_probability" in fails[0]


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

    def test_esd_time_needs_exactly_one_parameter(self, capsys):
        assert run_cli(["esd-time"]) == 2
        assert "one of the arguments --p --a is required" in capsys.readouterr().err
        assert run_cli(["esd-time", "--p", "0.5", "--a", "0.5"]) == 2
        assert "not allowed with argument" in capsys.readouterr().err

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

    def test_nan_time_is_a_usage_error(self, capsys):
        assert run_cli(["monogamy", "--p", "0.5", "--kt", "nan"]) == 2
        assert capsys.readouterr().err == ("error: dimensionless time kt=nan must be "
                                           "a number at least 0\n")

    def test_monogamy_point(self, capsys):
        assert run_cli(["monogamy", "--p", "0.5", "--kt", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "c_pair_sq" in out and "tail slack" in out


def _run_python(args):
    # a fresh interpreter that finds the checkout's package, installed or not
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "surf.csv"
        proc = _run_python(["-m", "cavres", "surface", "--family", "mixed",
                            "--param-steps", "3", "--kt-steps", "3", "--out", str(out)])
        assert proc.returncode == 0
        assert out.exists()

    def test_cli_import_leaves_scipy_out(self):
        proc = _run_python(["-c", "import sys, cavres.cli; print('scipy' in sys.modules)"])
        assert proc.returncode == 0 and proc.stdout.strip() == "False"

    def test_version_flag(self):
        proc = _run_python(["-m", "cavres", "--version"])
        assert proc.returncode == 0
