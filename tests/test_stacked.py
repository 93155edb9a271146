"""The stacked dense path against the scalar one.

A state or density matrix with leading axes goes through the same code as a
single one; these tests hold the two to 1e-15 on small grids that include
p = 0, p = 1 and kt = 0, check that a stack with one bad member is refused
with the scalar message, and count the LAPACK calls each grid audit makes
on its fixed grid: one stack per parameter row, not one per grid point.
No dense path re-validates a marginal that `reduce` derives.
"""

import copy

import numpy as np
import pytest

from cavres import (DensityMatrix, PureState, amplitudes, esb_time_numeric,
                    gghz_output_state, global_output_state, monogamy_chain,
                    reduce, reorder, swap_check, wootters_concurrence)
from cavres import cli
from cavres.entanglement import (closed_form_grid_deviation, gghz_grid_deviation,
                                 marginal_negativity, monogamy_grid_audit)
from cavres.esd import (_bisect, esb_grid_deviation, region_grid_audit,
                        reservoir_negativity, swap_grid_deviation)
from cavres.states import CAVITY_LAYOUT, GLOBAL_LAYOUT, RESERVOIR_LAYOUT

PS = np.array([0.0, 0.3, 0.62, 1.0])
KTS = np.array([0.0, 0.35, 1.1, 2.9])
KEEPS = (CAVITY_LAYOUT.labels, RESERVOIR_LAYOUT.labels, ("c1", "r1"),
         ("r1", "c2", "r2", "c3", "r3", "z"))
MEMBERS = ("c_init_sq", "c_pair_sq", "c_c1_sq", "c_r1_sq", "n_cav_sq", "n_res_sq")
TOL = 1e-15


def _points():
    return [(i, j, float(p), float(kt)) for i, p in enumerate(PS) for j, kt in enumerate(KTS)]


class TestStackedAgainstScalar:
    def test_states_and_amplitudes(self):
        xi, chi = amplitudes(KTS)
        assert [amplitudes(float(kt)) for kt in KTS] == list(zip(xi.tolist(), chi.tolist()))
        mixed = global_output_state(PS[:, None], KTS)
        gghz = gghz_output_state(PS[:, None], KTS)
        assert mixed.amplitudes.shape == (4, 4, 128) and gghz.amplitudes.shape == (4, 4, 64)
        for i, j, p, kt in _points():
            np.testing.assert_allclose(mixed.amplitudes[i, j],
                                       global_output_state(p, kt).amplitudes, rtol=0, atol=TOL)
            np.testing.assert_allclose(gghz.amplitudes[i, j],
                                       gghz_output_state(p, kt).amplitudes, rtol=0, atol=TOL)

    @pytest.mark.parametrize("keep", KEEPS, ids=lambda k: "-".join(k))
    def test_marginals(self, keep):
        stack = reduce(global_output_state(PS[:, None], KTS), keep)
        assert stack.data.shape[:2] == (4, 4)
        for i, j, p, kt in _points():
            want = reduce(global_output_state(p, kt), keep)
            assert stack.layout == want.layout
            np.testing.assert_allclose(stack.data[i, j], want.data, rtol=0, atol=TOL)

    def test_reorder(self):
        order = ("z", "c3", "r1", "c1", "r3", "c2", "r2")
        stack = reorder(global_output_state(PS[:, None], KTS), order)
        for i, j, p, kt in _points():
            want = reorder(global_output_state(p, kt), order).amplitudes
            assert np.array_equal(stack.amplitudes[i, j], want)

    def test_negativities(self):
        for state in (global_output_state, gghz_output_state):
            stacked = state(PS[:, None], KTS)
            for qubits in (CAVITY_LAYOUT.labels, RESERVOIR_LAYOUT.labels):
                grid = marginal_negativity(stacked, qubits)
                assert grid.shape == (4, 4)
                for i, j, p, kt in _points():
                    assert abs(grid[i, j] - marginal_negativity(state(p, kt), qubits)) <= TOL
        row = reservoir_negativity(0.62, KTS)
        assert np.all(np.abs(row - [reservoir_negativity(0.62, kt) for kt in KTS]) <= TOL)

    @pytest.mark.parametrize("grid", ["rows", "full"])
    def test_monogamy_chain_members(self, grid):
        recs = ([monogamy_chain(p, KTS) for p in PS] if grid == "rows"
                else monogamy_chain(PS[:, None], KTS))
        for i, j, p, kt in _points():
            rec, at = (recs[i], j) if grid == "rows" else (recs, (i, j))
            scalar = monogamy_chain(p, kt)
            for name in MEMBERS:
                got = np.broadcast_to(getattr(rec, name), KTS.shape if grid == "rows" else (4, 4))
                assert abs(got[at] - getattr(scalar, name)) <= TOL, name

    def test_wootters_stack(self):
        pairs = reduce(global_output_state(PS[:, None], KTS), ("c1", "r1"))
        conc = wootters_concurrence(pairs)
        for i, j, p, kt in _points():
            assert abs(conc[i, j] - wootters_concurrence(
                reduce(global_output_state(p, kt), ("c1", "r1")))) <= TOL

    def test_swap_deviations(self):
        ok, dev = swap_check(PS[:, None], KTS)
        assert ok.shape == dev.shape == (4, 4) and ok.all()
        for i, j, p, kt in _points():
            assert abs(dev[i, j] - swap_check(p, kt)[1]) <= TOL

    def test_lockstep_birth_times(self):
        ps = np.linspace(0.30, 0.95, 4)
        births = esb_time_numeric(ps)
        assert births.shape == (4,)
        for p, birth in zip(ps, births):
            assert abs(birth - esb_time_numeric(float(p))) <= TOL

    def test_lockstep_bisection_keeps_each_members_steps(self):
        # brackets of different widths stop at different steps; each member
        # still takes the midpoints and the count of its own scalar call
        targets, his = np.array([2.0, 3.0, 0.5]), np.array([2.0, 8.0, 1.0])
        roots, iterations = _bisect(lambda x: x * x - targets, 0.0, his, 1e-12)
        assert len(set(iterations.tolist())) == 3
        for target, hi, root, count in zip(targets, his, roots, iterations):
            want, want_count = _bisect(lambda x: x * x - target, 0.0, float(hi), 1e-12)
            assert type(want) is float and type(want_count) is int
            assert root == want and count == want_count

    def test_scalar_calls_keep_their_types(self):
        assert all(type(x) is float for x in amplitudes(0.4))
        rec = monogamy_chain(0.4, 1.0)
        assert all(type(getattr(rec, name)) is float for name in MEMBERS)
        ok, dev = swap_check(0.4, 1.0)
        assert type(dev) is float and ok
        assert type(esb_time_numeric(0.6)) is float


def _one_bad(stack, index, member):
    bad = np.array(stack)
    bad[index] = member
    return bad


class TestStackValidation:
    """A stack with exactly one bad member is refused with the message a
    scalar construction of that member gives."""

    @staticmethod
    def _message(cls, layout, data):
        with pytest.raises(ValueError) as err:
            cls(layout, data)
        return str(err.value)

    def test_good_stack_is_accepted(self):
        rho = reduce(global_output_state(0.4, KTS), CAVITY_LAYOUT.labels)
        assert DensityMatrix(CAVITY_LAYOUT, rho.data).data.shape == (4, 8, 8)

    def test_pure_state_norm(self):
        amps = global_output_state(PS[:, None], KTS).amplitudes
        member = amps[2, 1] * 1.1
        stacked = self._message(PureState, GLOBAL_LAYOUT, _one_bad(amps, (2, 1), member))
        assert stacked == self._message(PureState, GLOBAL_LAYOUT, member)
        assert stacked.startswith("state norm ")

    @pytest.mark.parametrize("fault, start", [
        ("hermitian", "matrix deviates from Hermitian by "),
        ("trace", "trace "),
        ("negative", "matrix has negative eigenvalue "),
    ])
    def test_density_matrix(self, fault, start):
        stack = reduce(global_output_state(0.62, KTS), CAVITY_LAYOUT.labels).data
        member = np.array(stack[2])
        if fault == "hermitian":
            member[0, 1] += 1e-6
        elif fault == "trace":
            member *= 1.01
        else:
            member = np.diag([1.5, -0.5, 0, 0, 0, 0, 0, 0]).astype(complex)
        stacked = self._message(DensityMatrix, CAVITY_LAYOUT, _one_bad(stack, 2, member))
        assert stacked == self._message(DensityMatrix, CAVITY_LAYOUT, member)
        assert stacked.startswith(start)


def _record_lapack(monkeypatch):
    shapes = {"eigvalsh": [], "eigh": [], "svd": []}

    def recording(name, fn):
        def wrapper(a, *args, **kwargs):
            shapes[name].append(np.shape(a))
            return fn(a, *args, **kwargs)
        return wrapper

    for name in shapes:
        monkeypatch.setattr(np.linalg, name, recording(name, getattr(np.linalg, name)))
    return shapes


def _lapack_calls(monkeypatch, run):
    shapes = _record_lapack(monkeypatch)
    run()
    monkeypatch.undo()
    every = [s for calls in shapes.values() for s in calls]
    assert all(s[-2] <= 8 for s in every), every
    assert all(s[-2:] == (4, 32) for s in shapes["svd"]), shapes["svd"]
    return len(every)


# each audit on its fixed grid: (audit, LAPACK calls per parameter row, rows).
# A marginal from `reduce` is not checked again, so a row costs only the
# measures' own calls: monogamy makes 3 (one eigh for both blocks and the
# partial-transpose eigvalsh of each negativity; the pure-cut concurrences
# need none), swap compares marginals and makes none, the others make one
# partial-transpose eigvalsh.  One call per grid point would make at least
# as many calls as the grid has points, 625 for the 25x25 grids.
AUDITS = {
    "closedform": (closed_form_grid_deviation, 1, 25),
    "monogamy": (monogamy_grid_audit, 3, 25),
    "swap": (swap_grid_deviation, 0, 20),
    "regions": (region_grid_audit, 1, 40),
    "gghz": (gghz_grid_deviation, 1, 25),
}


class TestLapackCallsPerRow:
    @pytest.mark.parametrize("audit", list(AUDITS))
    def test_grid_audits(self, monkeypatch, audit):
        run, per_row, rows = AUDITS[audit]
        assert _lapack_calls(monkeypatch, run) <= per_row * rows

    def test_esb_bisects_in_lockstep(self, monkeypatch):
        # one negativity eigvalsh per bisection step, plus the two bracket
        # ends: 20 + 2, however many p values
        few = _lapack_calls(monkeypatch, lambda: esb_time_numeric(np.array([0.3, 0.6])))
        many = _lapack_calls(monkeypatch, esb_grid_deviation)
        assert few == many == 22

    @pytest.mark.parametrize("family", ["mixed", "gghz"])
    def test_surface_oracle(self, monkeypatch, tmp_path, capsys, family):
        def run(kt_steps):
            argv = ["surface", "--family", family, "--param-steps", "3", "--kt-steps",
                    str(kt_steps), "--oracle", "--out", str(tmp_path / "s.csv")]
            assert cli.main(argv) == 0

        few = _lapack_calls(monkeypatch, lambda: run(4))
        many = _lapack_calls(monkeypatch, lambda: run(40))
        assert few == many <= 3
        assert "oracle check" in capsys.readouterr().out


def _count_checks(monkeypatch):
    """Count the runs of the checking DensityMatrix constructor."""
    runs = []
    check = DensityMatrix.__post_init__

    def counting(self):
        runs.append(np.shape(self.data))
        check(self)
    monkeypatch.setattr(DensityMatrix, "__post_init__", counting)
    return runs


class TestValidatedOnce:
    """A marginal that `reduce` derives from a validated PureState is a
    density matrix by construction; only data from outside, copies and
    pickles go through the checks."""

    @pytest.mark.parametrize("run", [
        *(audit for audit, _, _ in AUDITS.values()),
        esb_grid_deviation,
        lambda: monogamy_chain(PS[:, None], KTS),
        lambda: esb_time_numeric(np.array([0.3, 0.6])),
    ], ids=[*AUDITS, "esb", "monogamy_chain", "esb_time_numeric"])
    def test_dense_paths_run_no_checks(self, monkeypatch, run):
        runs = _count_checks(monkeypatch)
        run()
        assert runs == []

    @pytest.mark.parametrize("family", ["mixed", "gghz"])
    def test_surface_oracle_runs_no_checks(self, monkeypatch, tmp_path, capsys, family):
        runs = _count_checks(monkeypatch)
        argv = ["surface", "--family", family, "--param-steps", "3", "--kt-steps", "4",
                "--oracle", "--out", str(tmp_path / "s.csv")]
        assert cli.main(argv) == 0 and runs == []

    @pytest.mark.parametrize("keep", KEEPS, ids=lambda k: "-".join(k))
    def test_marginals_hold_the_invariants(self, monkeypatch, keep):
        runs = _count_checks(monkeypatch)
        r = reduce(global_output_state(PS[:, None], KTS), keep)
        assert runs == [] and not r.data.flags.writeable
        checked = DensityMatrix(r.layout, r.data)
        assert np.array_equal(checked.data, r.data) and checked.layout == r.layout
        assert len(runs) == 1
        dup = copy.deepcopy(r)
        assert len(runs) == 2 and not dup.data.flags.writeable
        assert np.array_equal(dup.data, r.data)
