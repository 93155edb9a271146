"""The stacked dense path against the scalar one.

A state or density matrix with leading axes goes through the same code as a
single one; these tests hold the two to 1e-15 on small grids that include
p = 0, p = 1 and kt = 0, check that a stack with one bad member is refused
with the scalar message, hold each audit's blocks of whole parameter rows
bit for bit to the per-row evaluation (a marginal sums its terms in a fixed
plan order, and a term that is zero in one member adds exactly 0), and
count the LAPACK calls each grid audit makes on its fixed grid: one stack
per block of at most STACK_POINTS points, not one per row or per grid
point, and in it one eigvalsh per size, above 2, of the blocks a partial
transpose splits into.  The birth search takes two levels of its bisection per
stack of states, with the roots of a one-level bisection bit for bit.  No
dense path re-validates a state that a builder or `reorder` writes or a
marginal that `reduce` derives.
"""

import copy
import os
import sys
import tempfile

import numpy as np
import pytest

from cavres import (DensityMatrix, PureState, amplitudes, esb_time_numeric,
                    gghz_output_state, ghz, global_output_state, mixed_ghz_w,
                    monogamy_chain, purified_initial, reduce, reorder, swap_check, w)
from cavres import cli, entanglement, linalg
from cavres.cli import (STACK_POINTS, _row_blocks, closed_form_grid_deviation,
                        dense_cavity_negativity, esb_grid_deviation, monogamy_grid_audit,
                        region_grid_audit, swap_grid_deviation)
from cavres.entanglement import ZERO_ENTANGLEMENT, marginal_negativity, wootters_concurrence
from cavres.esd import _bisect, reservoir_negativity
from cavres.linalg import partial_trace
from cavres.states import CAVITY_LAYOUT, GLOBAL_LAYOUT, RESERVOIR_LAYOUT

PS = np.array([0.0, 0.3, 0.62, 1.0])
KTS = np.array([0.0, 0.35, 1.1, 2.9])
KEEPS = (CAVITY_LAYOUT.labels, RESERVOIR_LAYOUT.labels, ("c1", "r1"),
         ("r1", "c2", "r2", "c3", "r3", "z"))
ORDER = ("z", "c3", "r1", "c1", "r3", "c2", "r2")
MEMBERS = ("c_init_sq", "c_pair_sq", "c_c1_sq", "c_r1_sq", "n_cav_sq", "n_res_sq")
TOL = 1e-15


def _points():
    return [(i, j, float(p), float(kt)) for i, p in enumerate(PS) for j, kt in enumerate(KTS)]


def _moveaxis_reorder(state, labels):
    # the reference permutation: every qubit axis moved to its place at once
    n = state.layout.n_qubits
    perm = [state.layout.position(lab) - n for lab in labels]
    lead = state.amplitudes.shape[:-1]
    amps = np.moveaxis(state.amplitudes.reshape(lead + (2,) * n), perm, range(-n, 0))
    return amps.reshape(lead + (-1,))


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
        state = global_output_state(PS[:, None], KTS)
        stack = reorder(state, ORDER)
        assert np.array_equal(stack.amplitudes, _moveaxis_reorder(state, ORDER))
        for i, j, p, kt in _points():
            want = reorder(global_output_state(p, kt), ORDER).amplitudes
            assert np.array_equal(stack.amplitudes[i, j], want)

    def test_initial_states(self):
        rho, psi = mixed_ghz_w(PS[:, None]), purified_initial(PS[:, None])
        assert rho.data.shape == (4, 1, 8, 8) and psi.amplitudes.shape == (4, 1, 128)
        for i, p in enumerate(PS):
            assert np.array_equal(rho.data[i, 0], mixed_ghz_w(float(p)).data)
            assert np.array_equal(psi.amplitudes[i, 0], purified_initial(float(p)).amplitudes)

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


def _one_level_bisect(f, lo, hi, xtol):
    # the reference: one level per call of f, lo and f(lo) first, then f(hi)
    f_lo = f(lo)
    if np.any(f_lo * f(hi) > 0.0):
        raise RuntimeError(f"no sign change on [{lo}, {hi}]")
    lo, hi, f_lo = (np.array(x) for x in np.broadcast_arrays(lo, hi, f_lo))
    iterations = np.zeros(lo.shape, dtype=int)
    while (active := hi - lo > xtol).any():
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        up = active & (f_mid * f_lo > 0.0)
        lo, f_lo = np.where(up, mid, lo), np.where(up, f_mid, f_lo)
        hi = np.where(active & ~up, mid, hi)
        iterations += active
    return 0.5 * (lo + hi), iterations


def _birth(p):
    return lambda kt: reservoir_negativity(p, kt) - ZERO_ENTANGLEMENT


class TestTwoLevelBisection:
    """`_bisect` evaluates two levels per call of f, and each member still
    takes the midpoints, the root and the step count of a one-level
    bisection, bit for bit."""

    @pytest.mark.parametrize("n", [10, 37])
    def test_birth_times_are_the_one_level_roots(self, n):
        ps = np.linspace(0.30, 0.95, n)
        want, steps = _one_level_bisect(_birth(ps), 1e-8, 1.0, 1e-6)
        assert (steps == 20).all()
        assert np.array_equal(esb_time_numeric(ps), want)
        for p, root in zip(ps.tolist(), want.tolist()):
            assert esb_time_numeric(p) == root == _one_level_bisect(_birth(p), 1e-8, 1.0, 1e-6)[0]

    def test_members_stop_at_their_own_steps(self):
        # 41, 43 and 40 steps: an odd count stops a member halfway through a call
        targets, his = np.array([2.0, 3.0, 0.5]), np.array([2.0, 8.0, 1.0])
        f = lambda x: x * x - targets
        (root, steps), (want, want_steps) = (bisect(f, 0.0, his, 1e-12)
                                             for bisect in (_bisect, _one_level_bisect))
        assert steps.tolist() == want_steps.tolist() == [41, 43, 40]
        assert np.array_equal(root, want)

    def test_three_points_per_call(self):
        shapes = []
        root, steps = _bisect(lambda x: shapes.append(np.shape(x)) or x * x - 2.0, 0.0, 2.0, 1e-12)
        assert steps == 41 and shapes == [(2,)] + [(3,)] * 21
        assert root == _one_level_bisect(lambda x: x * x - 2.0, 0.0, 2.0, 1e-12)[0]

    def test_a_bracket_without_a_sign_change_is_refused(self):
        # the birth at p = 0.6 is near kt = 0.16, so [0.5, 1] holds no sign change
        with pytest.raises(RuntimeError, match=r"no sign change on \[0\.5, 1\.0\]"):
            _bisect(_birth(0.6), 0.5, 1.0, 1e-6)
        with pytest.raises(RuntimeError, match=r"no sign change on \[0\.5, 1\.0\]"):
            _bisect(_birth(np.array([0.3, 0.6])), np.array([1e-8, 0.5]), 1.0, 1e-6)


def _one_bad(stack, index, member):
    # the model's stacks are real; a complex member makes the copy complex
    bad = np.array(stack, dtype=np.result_type(stack, member))
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
    """Record the input shape of each eigvalsh, eigh and svd call, and the
    grid points it holds.  A call from `_eigvalsh_of_size` stacks its blocks
    on an axis of their own, (..., blocks, size, size), so its points are
    the axes before that one; any other call's are all but the matrix axes."""
    shapes, points = {"eigvalsh": [], "eigh": [], "svd": []}, []

    def recording(name, fn):
        def wrapper(a, *args, **kwargs):
            grouped = sys._getframe(1).f_code is linalg._eigvalsh_of_size.__code__
            shapes[name].append(np.shape(a))
            points.append(int(np.prod(np.shape(a)[:-3 if grouped else -2])))
            return fn(a, *args, **kwargs)
        return wrapper

    for name in shapes:
        monkeypatch.setattr(np.linalg, name, recording(name, getattr(np.linalg, name)))
    return shapes, points


def _lapack_calls(monkeypatch, run):
    shapes, points = _record_lapack(monkeypatch)
    run()
    monkeypatch.undo()
    every = [s for calls in shapes.values() for s in calls]
    assert all(s[-2] <= 8 for s in every), every
    assert all(n <= STACK_POINTS for n in points), (every, points)
    assert not shapes["svd"], shapes["svd"]
    return len(every)


def _count_dense(monkeypatch):
    """Record the shape of each stack `negativity` solves."""
    stacks = []

    def counting(h):
        stacks.append(h.shape)
        return linalg._block_spectrum(h)
    monkeypatch.setattr(entanglement, "_block_spectrum", counting)
    return stacks


def _gghz_oracle():
    """`surface --family gghz --oracle` on the 25x25 (a, kt) audit square."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["surface", "--family", "gghz", "--oracle", "--param-steps", "25",
                "--kt-steps", "25", "--out", os.path.join(tmp, "s.csv")]
        assert cli.main(argv) == 0


# each audit on its fixed grid: (audit, LAPACK calls per block, blocks).
# A block holds as many whole rows as fit in STACK_POINTS = 512 points: 20
# rows of 25 kts, so 2 blocks for a 25x25 grid; 12 rows of 40, so 4 for the
# 40x40 regions grid; the whole 20x20 swap grid in 1.  A marginal from
# `reduce` is not checked again, so a block costs only the measures' own
# calls.  A partial transpose of the mixture splits into blocks of 3, 2, 2
# and 1 rows, one of the generalized GHZ into a block of 2 and six of 1, and
# `_block_spectrum` makes one eigvalsh per size above 2 (1x1 and 2x2 blocks
# are solved in closed form): 1 call for the mixture and none for the
# generalized GHZ.  So monogamy makes 3 (one eigh for both pair blocks and 1
# for each negativity; the pure-cut concurrences need none), swap compares
# marginals and gghz solves only 2x2 and 1x1 blocks, so both make none, and
# closedform and regions make 1.  With eigvalsh on the 2x2 blocks too they
# made 4, 10, 0, 8 and 2 calls in all; with one 8x8 eigvalsh per partial
# transpose 2, 6, 0, 4 and 2; with one stack per row 25, 75, 0, 40 and 25.
AUDITS = {
    "closedform": (closed_form_grid_deviation, 1, 2),
    "monogamy": (monogamy_grid_audit, 3, 2),
    "swap": (swap_grid_deviation, 0, 1),
    "regions": (region_grid_audit, 1, 4),
    "gghz": (_gghz_oracle, 0, 2),
}
# eigvalsh calls per partial transpose of each family's marginals
EIGVALSH_PER_PT = {"mixed": 1, "gghz": 0}


class TestLapackCallsPerRow:
    """The calls per block of whole parameter rows, exactly, and no stack
    larger than STACK_POINTS."""

    @pytest.mark.parametrize("audit", list(AUDITS))
    def test_grid_audits(self, monkeypatch, audit):
        run, per_block, blocks = AUDITS[audit]
        assert _lapack_calls(monkeypatch, run) == per_block * blocks

    def test_esb_bisects_in_lockstep(self, monkeypatch):
        # 11 dense negativities however many p values: the two bracket ends
        # in one, then the midpoint and both quarter points for each two of
        # the 20 steps; each makes 1 eigvalsh call, for its blocks of 3, so 11
        for run in (lambda: esb_time_numeric(np.array([0.3, 0.6])), esb_grid_deviation):
            stacks = _count_dense(monkeypatch)
            assert _lapack_calls(monkeypatch, run) == 11
            assert len(stacks) == 11 and stacks[0][0] == 2
            assert all(shape[0] == 3 for shape in stacks[1:])

    @pytest.mark.parametrize("family", ["mixed", "gghz"])
    def test_surface_oracle(self, monkeypatch, tmp_path, capsys, family):
        def run(kt_steps):
            argv = ["surface", "--family", family, "--param-steps", "3", "--kt-steps",
                    str(kt_steps), "--oracle", "--out", str(tmp_path / "s.csv")]
            assert cli.main(argv) == 0

        few = _lapack_calls(monkeypatch, lambda: run(4))
        many = _lapack_calls(monkeypatch, lambda: run(40))
        # 3 rows of 4 or of 40 kts: one block
        assert few == many == EIGVALSH_PER_PT[family]
        assert "oracle check" in capsys.readouterr().out


def _recording_blocks(monkeypatch):
    """Record each grid's (f, params, kts, grid) as `_row_blocks` makes it."""
    grids = []

    def recording(f, params, kts):
        grids.append((f, params, kts, _row_blocks(f, params, kts)))
        return grids[-1][-1]
    monkeypatch.setattr(cli, "_row_blocks", recording)
    return grids


def _per_row(f, params, kts):
    # the evaluation the blocks replaced: one stack per parameter row
    return np.array([f(p, kts) for p in params])


FAMILIES = {"mixed": global_output_state, "gghz": gghz_output_state}


class TestRowBlocks:
    """Blocks of whole parameter rows give each grid point the bits of the
    per-row evaluation: the eigensolves run member by member, and `reduce`
    sums each marginal entry in a fixed plan order, whatever the stack."""

    @pytest.mark.parametrize("audit", list(AUDITS))
    def test_audit_grids(self, monkeypatch, audit):
        grids = _recording_blocks(monkeypatch)
        AUDITS[audit][0]()
        (f, params, kts, grid), = grids
        assert np.array_equal(grid, _per_row(f, params, kts))

    @pytest.mark.parametrize("family", list(FAMILIES))
    @pytest.mark.parametrize("params, n_kts, rows", [
        (np.linspace(0.0, 1.0, 37), 25, [20, 17]),  # rows split unevenly
        (np.array([0.0, 1.0]), 600, [1, 1]),  # a row longer than STACK_POINTS
        (np.array([0.62]), 25, [1]),
    ], ids=["37x25", "2x600", "1x25"])
    def test_blocks_of_whole_rows(self, family, params, n_kts, rows):
        state, kts = FAMILIES[family], np.linspace(0.0, 3.0, n_kts)
        f = lambda p, kt: marginal_negativity(state(p, kt), CAVITY_LAYOUT.labels)
        shapes = []
        grid = _row_blocks(lambda p, kt: shapes.append(p.shape) or f(p, kt), params, kts)
        assert shapes == [(r, 1) for r in rows] and grid.shape == (len(params), n_kts)
        assert np.array_equal(grid, _per_row(f, params, kts))
        assert np.array_equal(dense_cavity_negativity(state, params, kts), grid)

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_surface_oracle_past_the_bound(self, monkeypatch, tmp_path, capsys, family):
        grids = _recording_blocks(monkeypatch)
        shapes, _ = _record_lapack(monkeypatch)
        argv = ["surface", "--family", family, "--param-steps", "2", "--kt-steps", "600",
                "--oracle", "--out", str(tmp_path / "s.csv")]
        assert cli.main(argv) == 0 and "oracle check" in capsys.readouterr().out
        # each block one row, split as its own partial transposes are: W (p = 0)
        # into blocks of 3, 2, 1, 1 and 1 rows, GHZ (p = 1) into one of 2 and six
        # of 1; the generalized GHZ at a = 0 and 1 is a product, all 1x1 blocks.
        # Only W's block of 3 goes to eigvalsh
        assert shapes["eigvalsh"] == {"mixed": [(1, 600, 1, 3, 3)], "gghz": []}[family]
        (f, params, kts, grid), = grids
        assert np.array_equal(grid, _per_row(f, params, kts))


def _count_checks(monkeypatch):
    """Count the runs of the checking PureState and DensityMatrix
    constructors."""
    runs = []
    for cls in (PureState, DensityMatrix):
        def counting(self, check=cls.__post_init__):
            runs.append(type(self).__name__)
            check(self)
        monkeypatch.setattr(cls, "__post_init__", counting)
    return runs


class TestValidatedOnce:
    """A state that a builder writes from checked parameters is unit-norm, a
    permutation of checked amplitudes is too, and a marginal that `reduce`
    derives from either, or `partial_trace` from a checked density matrix, is
    a density matrix, by construction; only data from outside, copies and
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

    @pytest.mark.parametrize("build", [
        ghz, w, lambda: mixed_ghz_w(0.3), lambda: mixed_ghz_w(PS[:, None]),
        lambda: purified_initial(0.3), lambda: purified_initial(PS[:, None]),
        lambda: reorder(global_output_state(PS[:, None], KTS), ORDER),
        lambda: gghz_output_state(PS[:, None], KTS),
        lambda: partial_trace(mixed_ghz_w(PS[:, None]), ["c1", "c3"]),
    ], ids=["ghz", "w", "mixed_ghz_w", "mixed_ghz_w-stack", "purified_initial",
            "purified_initial-stack", "reorder", "gghz_output_state-stack", "partial_trace"])
    def test_builders_run_no_checks(self, monkeypatch, build):
        runs = _count_checks(monkeypatch)
        out = build()
        assert runs == []
        field = "data" if isinstance(out, DensityMatrix) else "amplitudes"
        assert not getattr(out, field).flags.writeable
        checked = type(out)(out.layout, getattr(out, field))  # the checks pass it
        assert runs == [type(out).__name__]
        assert np.array_equal(getattr(checked, field), getattr(out, field))

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
