import itertools
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cavres import (DensityMatrix, PureState, SystemLayout, closed_form_pt_eigenvalues,
                    gghz_negativity_closed, gghz_output_state,
                    global_output_state, mixed_ghz_w, monogamy_chain,
                    negativity, negativity_from_spectrum,
                    pure_bipartite_concurrence_sq, reduce, w)
from cavres import cli, linalg
from cavres.cli import grid_worst
from cavres.entanglement import (PtSpectrum, _marginal_pt_spectrum, _pair_block_concurrences_sq,
                                 marginal_negativity, wootters_concurrence)
from cavres.esd import reservoir_negativity, swap_check
from cavres.linalg import QUBIT_LABELS, _pt_slots, partial_trace, partial_transpose
from cavres.states import (CAVITY_LAYOUT, GLOBAL_LAYOUT, RESERVOIR_LAYOUT, _pair_sums, ghz,
                           purified_initial)

from conftest import dense_block_spectrum, random_density_stack, random_unitary

W_NEGATIVITY = 2.0 * np.sqrt(2.0) / 3.0


def bell_dm():
    amps = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    return DensityMatrix(SystemLayout(("c1", "c2")), np.outer(amps, amps))


def werner_dm(weight):
    amps = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    rho = weight * np.outer(amps, amps) + (1.0 - weight) * np.eye(4) / 4.0
    return DensityMatrix(SystemLayout(("c1", "c2")), rho)


class TestNegativity:
    def test_w_state(self):
        assert abs(negativity(mixed_ghz_w(0.0), ["c1"]) - W_NEGATIVITY) < 1e-12

    def test_ghz_state(self):
        assert abs(negativity(mixed_ghz_w(1.0), ["c1"]) - 1.0) < 1e-12

    def test_product_state(self):
        rho = DensityMatrix(SystemLayout(("c1", "c2")), np.diag([1.0, 0, 0, 0]))
        assert negativity(rho, ["c1"]) == 0.0

    def test_trace_within_tolerance_gives_no_bias(self):
        # both pass the trace check; ||rho^T||_1 - 1 would refuse the first
        # and report the second's excess trace as negativity
        layout = SystemLayout(("c1", "c2"))
        product = DensityMatrix(layout, np.diag([1.0 - 5e-11, 0, 0, 0]))
        assert negativity(product, ["c1"]) == 0.0
        mixed = DensityMatrix(layout, np.eye(4) * (1.0 + 8e-11) / 4.0)
        assert negativity(mixed, ["c1"]) == 0.0

    def test_complementary_cuts_agree(self):
        rho = mixed_ghz_w(0.37)
        assert abs(negativity(rho, ["c1"]) - negativity(rho, ["c2", "c3"])) < 1e-12

    def test_local_unitary_invariance(self, rng):
        rho = reduce(global_output_state(0.6, 0.8), ["c1", "c2", "c3"])
        expected = negativity(rho, ["c1"])
        for _ in range(20):
            u = np.kron(np.kron(random_unitary(rng, 2), random_unitary(rng, 2)),
                        random_unitary(rng, 2))
            rotated = DensityMatrix(rho.layout, u @ rho.data @ u.conj().T)
            assert abs(negativity(rotated, ["c1"]) - expected) < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_outside_stacks_match_the_dense_transpose(self, rng, n, dtype):
        # negativity gathers its blocks from rho's entries, partial_transpose
        # not called; a projected copy with zero rows splits them into blocks
        full = random_density_stack(rng, QUBIT_LABELS[:n], dtype, (3,))
        cut = full.data.copy()
        cut[..., 1::3, :] = cut[..., :, 1::3] = 0.0
        cut /= np.trace(cut, axis1=-2, axis2=-1)[..., None, None]
        for rho in (full, DensityMatrix(full.layout, cut)):
            for size in range(1, n):
                for sub in itertools.combinations(rho.layout.labels, size):
                    spectrum = dense_block_spectrum(partial_transpose(rho, sub))
                    want = np.sum(np.abs(spectrum) - spectrum, axis=-1)
                    assert _same_bits(negativity(rho, sub), want)

    def test_marginal_negativity_is_first_qubit_of_the_marginal(self):
        state = global_output_state(0.6, 0.8)
        for qubits in (("c1", "c2", "c3"), ("r1", "r2", "r3"), ("c2", "c3", "c1")):
            want = negativity(reduce(state, qubits), [qubits[0]])
            assert marginal_negativity(state, qubits) == want


# 0 and 1e-300 start the damping; from kt ~ 250 some products underflow to exact zeros
STACK_KTS = np.array([0.0, 1e-300, 0.3, 1.0, 40.0, 700.0, 1000.0, np.inf])
MARGINAL_KEEPS = [CAVITY_LAYOUT.labels, RESERVOIR_LAYOUT.labels, ("c2", "c1", "c3"),
                  ("r3", "r1"), ("c1", "r1", "c2", "r2")]


def _same_bits(a, b):
    x, y = np.asarray(a), np.asarray(b)
    return (type(a) is type(b) and x.dtype == y.dtype and x.shape == y.shape
            and x.tobytes() == y.tobytes())


class TestMarginalNegativityFromSums:
    """`marginal_negativity` and `_marginal_pt_spectrum` gather the partial
    transpose's blocks from `reduce`'s sums; the dense route, `negativity` and
    `_block_spectrum` of `partial_transpose(reduce(...))` through identity slots,
    is their referee, bit for bit, the first kept qubit transposed wherever it
    sits in the layout."""

    @staticmethod
    def _check(state, qubits):
        rho = reduce(state, qubits)
        assert _same_bits(marginal_negativity(state, qubits), negativity(rho, qubits[:1]))
        want = dense_block_spectrum(partial_transpose(rho, qubits[:1]))
        assert _same_bits(_marginal_pt_spectrum(state, qubits), want)

    @pytest.mark.parametrize("qubits", MARGINAL_KEEPS)
    def test_mixture_stack_with_kt_zero_members(self, qubits):
        self._check(global_output_state(np.linspace(0.0, 1.0, 5)[:, None], STACK_KTS), qubits)

    @pytest.mark.parametrize("qubits", [q for q in MARGINAL_KEEPS if "z" not in q])
    def test_generalized_ghz_stack_with_kt_zero_members(self, qubits):
        self._check(gghz_output_state(np.linspace(0.0, 1.0, 5)[:, None], STACK_KTS), qubits)

    @pytest.mark.parametrize("kt", STACK_KTS)
    @pytest.mark.parametrize("qubits", MARGINAL_KEEPS[:3])
    def test_single_points(self, qubits, kt):
        for state in (global_output_state(0.6, kt), gghz_output_state(0.4, kt)):
            self._check(state, qubits)

    @pytest.mark.parametrize("qubits", MARGINAL_KEEPS + [("z", "c3", "r2")])
    def test_complex_pure_state(self, rng, qubits):
        amps = rng.normal(size=(4, 128)) + 1j * rng.normal(size=(4, 128))
        stack = PureState(GLOBAL_LAYOUT, amps / np.linalg.norm(amps, axis=-1, keepdims=True))
        self._check(stack, qubits)
        self._check(PureState(GLOBAL_LAYOUT, stack.amplitudes[1]), qubits)

    def test_the_plan_is_built_once_per_pattern(self):
        linalg._blocks.cache_clear()
        kts = np.linspace(0.1, 3.0, 7)
        for p in (0.2, 0.5, 0.9):  # one amplitude pattern, one pattern of nonzero sums
            marginal_negativity(global_output_state(p, kts), CAVITY_LAYOUT.labels)
            marginal_negativity(global_output_state(p, 1.5), CAVITY_LAYOUT.labels)
        assert linalg._blocks.cache_info()[:2] == (5, 1)  # (hits, misses)
        # the reservoir's marginal has the cavity's slot map and nonzero sums, so
        # its blocks are a hit; all leaked, the cavity's sums are a new pattern
        marginal_negativity(global_output_state(0.5, kts), RESERVOIR_LAYOUT.labels)
        assert linalg._blocks.cache_info()[:2] == (6, 1)
        marginal_negativity(global_output_state(0.5, np.inf), CAVITY_LAYOUT.labels)
        assert linalg._blocks.cache_info()[:2] == (6, 2)

    def test_the_cached_blocks_are_read_only(self):
        (*_, src), sums = _pair_sums(global_output_state(0.4, 0.8), CAVITY_LAYOUT.labels)
        transposed = _pt_slots(3, (0,))
        live = (sums != 0).tobytes()
        groups = linalg._blocks(src.ravel()[transposed].tobytes(), live)
        assert [g.shape[1:] for g in groups] == [(1, 1), (2, 2), (3, 3)]  # 1, 2, 2 and 3 rows
        for x in (*groups, transposed):
            assert not x.flags.writeable
            with pytest.raises(ValueError):
                x[0] = 0


PHYSICAL = settings(max_examples=60, deadline=None, derandomize=True)
UNIT = st.floats(0.0, 1.0)
TIMES = st.floats(0.0, 1e3) | st.just(np.inf)
CHAIN_MEMBERS = [f.name for f in fields(monogamy_chain(0.5, 1.0))]


class TestPhysicalRanges:
    """ROADMAP item 13's ranges for the dense measures: 0 <= N <= 1 for the
    cavity and reservoir negativities and 0 <= C^2 <= 1 for every chain member.
    The lower bounds hold term by term.  The upper bounds fail by an ulp or two
    at p = 1, and near it, until item 13 mends them; nothing is clamped."""

    @PHYSICAL
    @given(UNIT, TIMES)
    def test_lower_bounds(self, p, kt):
        state, rec = global_output_state(p, kt), monogamy_chain(p, kt)
        assert marginal_negativity(state, CAVITY_LAYOUT.labels) >= 0.0
        assert marginal_negativity(state, RESERVOIR_LAYOUT.labels) >= 0.0
        assert all(getattr(rec, name) >= 0.0 for name in CHAIN_MEMBERS)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 13")
    @PHYSICAL
    @given(UNIT, TIMES)
    @example(1.0, 0.0)  # the GHZ point: N = 1.0000000000000002
    def test_cavity_negativity_at_most_one(self, p, kt):
        assert marginal_negativity(global_output_state(p, kt), CAVITY_LAYOUT.labels) <= 1.0

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 13")
    @PHYSICAL
    @given(UNIT, TIMES)
    @example(1.0, np.inf)  # all leaked: N = 1.0000000000000002, and from kt = 40 on
    def test_reservoir_negativity_at_most_one(self, p, kt):
        assert marginal_negativity(global_output_state(p, kt), RESERVOIR_LAYOUT.labels) <= 1.0

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 13")
    @PHYSICAL
    @given(UNIT, TIMES)
    @example(1.0, 0.0)  # c_c1_sq = n_cav_sq = 1.0000000000000004
    def test_chain_members_at_most_one(self, p, kt):
        rec = monogamy_chain(p, kt)
        assert all(getattr(rec, name) <= 1.0 for name in CHAIN_MEMBERS)


class TestClosedFormSpectrum:
    def test_ghz_endpoint(self):
        spec = closed_form_pt_eigenvalues(1.0, 0.0)
        assert abs(spec.lambda5 + 0.5) < 1e-14
        assert abs(spec.lambda7) < 1e-14
        assert abs(spec.lambdas[0] - 0.5) < 1e-14

    def test_w_endpoint(self):
        spec = closed_form_pt_eigenvalues(0.0, 0.0)
        assert abs(spec.lambda7 + np.sqrt(2.0) / 3.0) < 1e-14
        assert abs(spec.lambda5) < 1e-14

    def test_fully_decayed_limit(self):
        spec = closed_form_pt_eigenvalues(0.5, 40.0)
        assert negativity_from_spectrum(spec) == 0.0
        # vacuum on the cavities: one unit eigenvalue, the rest negligible
        assert abs(max(spec.lambdas) - 1.0) < 1e-12

    def test_matches_eigensolver_on_grid(self):
        for p in np.linspace(0.0, 1.0, 9):
            for kt in np.linspace(0.0, 3.0, 9):
                lam = np.sort(np.asarray(closed_form_pt_eigenvalues(p, kt).lambdas))
                cav = reduce(global_output_state(p, kt), ["c1", "c2", "c3"])
                num = np.linalg.eigvalsh(partial_transpose(cav, ["c1"]))
                np.testing.assert_allclose(lam, num, atol=1e-12)

    def test_six_entries_stay_nonnegative(self):
        stable = [0, 1, 2, 3, 5, 7]
        for p in np.linspace(0.0, 1.0, 25):
            for kt in np.linspace(0.0, 3.0, 25):
                lam = closed_form_pt_eigenvalues(p, kt).lambdas
                assert all(lam[i] >= -1e-12 for i in stable)
                assert abs(sum(lam) - 1.0) < 1e-10

    def test_domain(self):
        with pytest.raises(ValueError):
            closed_form_pt_eigenvalues(1.2, 0.0)
        with pytest.raises(ValueError):
            closed_form_pt_eigenvalues(0.5, -0.5)


class TestArrayValuedClosedForms:
    P = np.linspace(0.0, 1.0, 11)
    KT = np.concatenate([np.linspace(0.0, 4.0, 41), [10.0, 30.0, 100.0]])

    def test_mixed_cells_are_the_scalar_calls(self):
        spec = closed_form_pt_eigenvalues(self.P[:, None], self.KT)
        grid = negativity_from_spectrum(spec)
        assert grid.shape == (len(self.P), len(self.KT))
        assert all(lam.shape == grid.shape for lam in spec.lambdas)
        for i, p in enumerate(self.P):
            for j, kt in enumerate(self.KT):
                scalar = closed_form_pt_eigenvalues(float(p), float(kt))
                # the same bits, not merely close: the powers go through the
                # scalar pow, and the negativity rounds once
                assert [lam[i, j] for lam in spec.lambdas] == list(scalar.lambdas)
                assert grid[i, j] == negativity_from_spectrum(scalar)

    def test_gghz_cells_are_the_scalar_calls(self):
        grid = gghz_negativity_closed(self.P[:, None], self.KT)
        assert grid.shape == (len(self.P), len(self.KT))
        for i, a in enumerate(self.P):
            for j, kt in enumerate(self.KT):
                assert grid[i, j] == gghz_negativity_closed(float(a), float(kt))

    def test_one_array_argument_broadcasts(self):
        n_kt = negativity_from_spectrum(closed_form_pt_eigenvalues(0.5, self.KT))
        n_p = negativity_from_spectrum(closed_form_pt_eigenvalues(self.P, 1.0))
        assert n_kt.shape == self.KT.shape and n_p.shape == self.P.shape
        assert n_p[5] == negativity_from_spectrum(closed_form_pt_eigenvalues(0.5, 1.0))
        assert gghz_negativity_closed(0.5, self.KT).shape == self.KT.shape
        assert gghz_negativity_closed(self.P, 1.0).shape == self.P.shape

    @pytest.mark.parametrize("p, kt", [(0.5, 1.0), (np.float64(0.3), np.float64(2.0)),
                                       (1, 0), (0.0, 40.0)])
    def test_scalar_calls_keep_their_types(self, p, kt):
        spec = closed_form_pt_eigenvalues(p, kt)
        assert isinstance(spec, PtSpectrum)
        assert all(isinstance(lam, float) for lam in spec.lambdas)
        assert type(negativity_from_spectrum(spec)) is float
        assert type(gghz_negativity_closed(p, kt)) is float

    def test_array_domain_names_the_offender(self):
        with pytest.raises(ValueError, match="p=1.5 outside"):
            closed_form_pt_eigenvalues(np.array([0.5, 1.5]), 1.0)
        with pytest.raises(ValueError, match="kt=-1.0 must"):
            closed_form_pt_eigenvalues(0.5, np.array([[0.0], [-1.0]]))
        with pytest.raises(ValueError, match="a=nan outside"):
            gghz_negativity_closed(np.array([0.2, np.nan]), 1.0)
        with pytest.raises(ValueError, match="kt=nan must"):
            gghz_negativity_closed(0.5, np.array([1.0, np.nan]))

    def test_twice_the_negative_part_per_cell(self):
        l5 = np.array([-0.1, 0.0, 0.3, -0.0, -3e-17, np.nan, -np.inf])
        l7 = np.array([-0.2, 0.5, 0.0, 0.125, 0.0, 0.1, 0.1])
        twice_negative = -2.0 * (np.minimum(l5, 0.0) + np.minimum(l7, 0.0))
        for trace_part in (0.25, 7.0):  # the trace does not enter
            spec = PtSpectrum(lambdas=(0.5, 0, 0, trace_part, l5, 0.125, l7, 0.25))
            got = negativity_from_spectrum(spec)
            assert got[:5].tolist() == twice_negative[:5].tolist()
            assert got[1:4].tolist() == [0.0, 0.0, 0.0]  # no negative eigenvalue
            # a non-finite eigenvalue makes a non-finite cell, for surface to refuse
            assert not np.isfinite(got[5:]).any()


class TestGridWorst:
    PARAMS, KTS = np.array([0.0, 0.5, 1.0]), np.array([0.0, 3.0])

    def test_first_grid_point_wins_a_tie(self):
        values = np.array([[0.0, 2.0], [2.0, -1.0], [-1.0, 0.0]])
        assert grid_worst(values, self.PARAMS, self.KTS) == (2.0, (0.0, 3.0))
        assert grid_worst(values, self.PARAMS, self.KTS, np.argmin) == (-1.0, (0.5, 3.0))
        assert grid_worst(np.zeros((3, 2)), self.PARAMS, self.KTS) == (0.0, (0.0, 0.0))

    def test_nan_is_the_worst_point(self):
        values = np.array([[0.0, 2.0], [2.0, np.nan], [-1.0, 0.0]])
        value, at = grid_worst(values, self.PARAMS, self.KTS)
        assert np.isnan(value) and at == (0.5, 3.0)
        value, at = grid_worst(values, self.PARAMS, self.KTS, np.argmin)
        assert np.isnan(value) and at == (0.5, 3.0)

    def test_types(self):
        value, at = grid_worst(np.ones((3, 2)), self.PARAMS, self.KTS)
        assert type(value) is float and all(type(x) is float for x in at)

    def test_one_dimensional_grid(self):
        values = np.array([1.0, 3.0, 3.0])
        assert grid_worst(values, self.PARAMS) == (3.0, (0.5,))
        assert grid_worst(values, self.PARAMS, pick=np.argmin) == (1.0, (0.0,))

    def test_check_verdict_is_value_against_threshold(self):
        # the generalized GHZ closed form against the dense oracle on the
        # 25x25 (a, kt) audit square, as `surface --oracle` compares them
        a_s, kts = cli._square_grid(25)
        dev = np.abs(cli.dense_cavity_negativity(gghz_output_state, a_s, kts)
                     - gghz_negativity_closed(a_s[:, None], kts))
        c = cli._verdict("generalized GHZ vs eigensolver", 1e-10, False, dev, a_s, kts)
        assert c.ok and c.value <= c.threshold == 1e-10 and len(c.at) == 2
        c = cli._verdict("generalized GHZ vs eigensolver", 0.0, False, dev, a_s, kts)
        assert c.ok is (c.value <= 0.0)


class TestNegativityFromSpectrum:
    def test_ghz(self):
        spec = closed_form_pt_eigenvalues(1.0, 0.0)
        assert abs(negativity_from_spectrum(spec) - 1.0) < 1e-12

    def test_w(self):
        spec = closed_form_pt_eigenvalues(0.0, 0.0)
        assert abs(negativity_from_spectrum(spec) - W_NEGATIVITY) < 1e-12

    def test_all_nonnegative_gives_zero(self):
        spec = PtSpectrum(lambdas=(0.5, 0.25, 0.25, 0.0, 0.0, 0.0, 0.0, 0.0))
        assert negativity_from_spectrum(spec) == 0.0

    def test_counts_negative_part_twice(self):
        spec = PtSpectrum(lambdas=(0.6, 0.5, 0.0, 0.0, -0.1, 0.0, 0.0, 0.0))
        assert abs(negativity_from_spectrum(spec) - 0.2) < 1e-15

    def test_only_lambda5_and_lambda7_reach_the_bits(self):
        # each nonnegative l adds |l| - l = 0 exactly, so the six nonnegative
        # entries may change form without moving a byte of a surface grid
        p, kt = np.linspace(0.0, 1.0, 101)[:, None], np.linspace(0.0, 3.0, 301)
        lambdas = closed_form_pt_eigenvalues(p, kt).lambdas
        want = negativity_from_spectrum(PtSpectrum(lambdas)).tobytes()
        rng = np.random.default_rng(5)
        for fill in (np.zeros, lambda shape: np.ldexp(rng.random(shape),
                                                      rng.integers(-1070, 1000, shape))):
            swapped = tuple(lam if i in (4, 6) else fill(lam.shape)
                            for i, lam in enumerate(lambdas))
            assert negativity_from_spectrum(PtSpectrum(swapped)).tobytes() == want


class TestPureConcurrence:
    def test_ghz_cut(self):
        assert abs(pure_bipartite_concurrence_sq(ghz(), ["c1"]) - 1.0) < 1e-14

    def test_w_cut(self):
        got = pure_bipartite_concurrence_sq(w(), ["c1"])
        assert abs(got - 8.0 / 9.0) < 1e-14

    def test_product_cut(self):
        state = purified_initial(1.0)
        assert pure_bipartite_concurrence_sq(state, ["r1"]) < 1e-14

    def test_single_qubit_matches_determinant(self):
        state = global_output_state(0.45, 0.9)
        got = pure_bipartite_concurrence_sq(state, ["c1"])
        rho_a = reduce(state, ["c1"]).data
        assert abs(got - 4.0 * np.linalg.det(rho_a).real) < 1e-12


class TestWoottersConcurrence:
    def test_bell(self):
        assert abs(wootters_concurrence(bell_dm()) - 1.0) < 1e-12

    def test_maximally_mixed(self):
        rho = DensityMatrix(SystemLayout(("c1", "c2")), np.eye(4) / 4.0)
        assert wootters_concurrence(rho) == 0.0

    def test_werner_against_brute_force(self):
        # independent oracle: general (non-Hermitian) eigensolve of the
        # spin-flipped product matrix
        rho = werner_dm(0.5).data
        sy = np.array([[0, -1j], [1j, 0]])
        yy = np.kron(sy, sy)
        r = rho @ yy @ rho.conj() @ yy
        ev = np.sqrt(np.abs(np.sort(np.linalg.eigvals(r).real)[::-1]))
        brute = max(0.0, ev[0] - ev[1] - ev[2] - ev[3])
        assert abs(brute - 0.25) < 1e-12
        assert abs(wootters_concurrence(werner_dm(0.5)) - 0.25) < 1e-12

    @pytest.mark.parametrize("w", [3.9e-7, 1e-9, 1e-5, 0.5])
    def test_nearly_pure_werner(self, w):
        # (1 - w)|Bell><Bell| + w I/4 has concurrence 1 - 3w/2; its small
        # Wootters values w/4 square to below 1e-14 at the first two weights
        amps = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        rho = (1.0 - w) * np.outer(amps, amps) + w * np.eye(4) / 4.0
        got = wootters_concurrence(DensityMatrix(SystemLayout(("c1", "c2")), rho))
        assert abs(got - (1.0 - 1.5 * w)) < 1e-15

    def test_complex_pure_state(self):
        # (|01> + i|10>)/sqrt(2) is maximally entangled; its tau is complex
        amps = np.array([0.0, 1.0, 1.0j, 0.0]) / np.sqrt(2.0)
        rho = DensityMatrix(SystemLayout(("c1", "c2")), np.outer(amps, amps.conj()))
        assert rho.data.dtype == np.complex128
        assert abs(wootters_concurrence(rho) - 1.0) < 1e-14

    def test_werner_threshold(self):
        # entanglement appears above weight 1/3
        assert wootters_concurrence(werner_dm(1.0 / 3.0)) < 1e-8
        assert wootters_concurrence(werner_dm(0.34)) >= 0.0

    def test_matches_pure_state_formula(self, rng):
        layout = SystemLayout(("c1", "c2"))
        for _ in range(20):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            v /= np.linalg.norm(v)
            rho = DensityMatrix(layout, np.outer(v, v.conj()))
            rho_a = np.trace(rho.data.reshape(2, 2, 2, 2), axis1=1, axis2=3)
            expected = np.sqrt(max(0.0, 4.0 * np.linalg.det(rho_a).real))
            assert abs(wootters_concurrence(rho) - expected) < 1e-10

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError):
            wootters_concurrence(mixed_ghz_w(0.5))


class TestGghzClosedForm:
    def test_initial_value(self):
        for a in np.linspace(0.0, 1.0, 21):
            b = np.sqrt(1.0 - a * a)
            assert abs(gghz_negativity_closed(a, 0.0) - 2.0 * a * b) < 1e-14

    def test_product_family_stays_zero(self):
        for kt in np.linspace(0.0, 3.0, 10):
            assert gghz_negativity_closed(1.0, kt) == 0.0

    def test_sample_point_against_eigensolver(self):
        cav = reduce(gghz_output_state(0.5, 0.5), ["c1", "c2", "c3"])
        assert abs(gghz_negativity_closed(0.5, 0.5) - negativity(cav, ["c1"])) < 1e-12

    def test_matches_eigensolver_on_grid(self):
        for a in np.linspace(0.0, 1.0, 9):
            for kt in np.linspace(0.0, 3.0, 9):
                cav = reduce(gghz_output_state(a, kt), ["c1", "c2", "c3"])
                num = negativity(cav, ["c1"])
                assert abs(gghz_negativity_closed(a, kt) - num) < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            gghz_negativity_closed(-0.2, 1.0)
        with pytest.raises(ValueError):
            gghz_negativity_closed(0.5, -1.0)


class TestMonogamyChain:
    def test_records_hold_only_computed_values(self):
        assert [f.name for f in fields(PtSpectrum)] == ["lambdas"]
        assert [f.name for f in fields(monogamy_chain(0.5, 1.0))] == [
            "c_init_sq", "c_pair_sq", "c_c1_sq", "c_r1_sq", "n_cav_sq", "n_res_sq"]

    def test_ghz_endpoint(self):
        rec = monogamy_chain(1.0, 0.0)
        assert abs(rec.c_init_sq - 1.0) < 1e-12
        assert abs(rec.n_cav_sq - 1.0) < 1e-12
        assert rec.n_res_sq < 1e-12

    def test_equality_at_zero_time(self):
        for p in (0.0, 0.3, 0.7, 1.0):
            rec = monogamy_chain(p, 0.0)
            assert rec.equality_deviation < 1e-14

    def test_chain_inequalities_at_sample(self):
        rec = monogamy_chain(0.5, 1.0)
        assert rec.equality_deviation < 1e-10
        assert rec.pair_slack >= -1e-10
        assert rec.tail_slack >= -1e-10

    def test_pair_concurrence_is_conserved(self):
        rec0 = monogamy_chain(0.6, 0.0)
        rec1 = monogamy_chain(0.6, 1.7)
        assert abs(rec0.c_pair_sq - rec1.c_pair_sq) < 1e-12

    def test_block_concurrences_swap_roles(self):
        # at the self-dual time the cavity-side and reservoir-side block
        # concurrences coincide
        rec = monogamy_chain(0.8, np.log(2.0))
        assert abs(rec.c_c1_sq - rec.c_r1_sq) < 1e-10

    def test_ghz_family_block_values(self):
        # for the pure GHZ branch the two block concurrences split the pair
        # concurrence exactly as the surviving and leaked weights
        kt = 0.9
        xi_sq = np.exp(-kt)
        rec = monogamy_chain(1.0, kt)
        assert abs(rec.c_c1_sq - xi_sq) < 1e-10
        assert abs(rec.c_r1_sq - (1.0 - xi_sq)) < 1e-10

    @pytest.mark.parametrize("kt", [1e-17, 1e-13, 1e-10, 1e-6])
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_leaked_block_at_small_times(self, p, kt):
        # c_r1_sq = o C0^2 with o = 1 - exp(-kt) the leaked weight; a chi
        # taken as sqrt(1 - exp(-kt)) would cancel here, 3e-4 off at kt = 1e-13
        c0_sq = 4.0 * (p / 2 + 2 * (1 - p) / 3) * (p / 2 + (1 - p) / 3)
        o_c0_sq = -np.expm1(-kt) * c0_sq
        assert abs(monogamy_chain(p, kt).c_r1_sq - o_c0_sq) <= 1e-14 * o_c0_sq


def _dense_block_concurrence_sq(state, qubit, partner):
    # the route the pair-marginal eigh replaces: trace |psi><psi| down to the
    # qubit and the block, take the block support from its eigenvectors,
    # and compress onto it
    psi = state.amplitudes
    full = DensityMatrix(state.layout, np.outer(psi, psi.conj()))
    keep = [lab for lab in state.layout if lab != partner]
    rho = partial_trace(full, keep)
    assert rho.layout.position(qubit) == 0
    block = [lab for lab in keep if lab != qubit]
    weights, vecs = np.linalg.eigh(partial_trace(rho, block).data)
    weights, vecs = weights[::-1], vecs[:, ::-1]
    if weights[1] < 1e-13:
        return 0.0
    iso = np.kron(np.eye(2), vecs[:, :2])
    compressed = DensityMatrix((qubit, partner), iso.conj().T @ rho.data @ iso)
    conc = wootters_concurrence(compressed)
    return conc * conc


def _block_pair(state, qubit, partner):
    # the block route on the pair's marginal, results in argument order
    return _pair_block_concurrences_sq(reduce(state, [qubit, partner]), qubit)


GRID_9x9 = [(p, kt) for p in np.linspace(0.0, 1.0, 9) for kt in np.linspace(0.0, 3.0, 9)]


class TestBlockConcurrenceFastPath:
    def test_matches_dense_route_on_grid(self):
        worst = 0.0
        for p, kt in GRID_9x9:
            state = global_output_state(p, kt)
            got = _block_pair(state, "c1", "r1")
            want = (_dense_block_concurrence_sq(state, "c1", "r1"),
                    _dense_block_concurrence_sq(state, "r1", "c1"))
            worst = max(worst, *np.abs(np.subtract(got, want)))
        assert worst < 1e-14

    def test_qubit_need_not_come_first(self):
        # the block route takes any pair; c2 and r2 against the block of the rest
        state = global_output_state(0.6, 0.8)
        got = _block_pair(state, "c2", "r2")
        want = _block_pair(state, "c1", "r1")
        assert np.max(np.abs(np.subtract(got, want))) < 1e-14

    def test_the_pair_may_come_in_either_order(self):
        # the marginal from reduce is in layout order, the results in argument order
        state = global_output_state(0.6, 0.8)
        c1, r1 = _block_pair(state, "c1", "r1")
        assert c1 != r1
        assert _block_pair(state, "r1", "c1") == (r1, c1)

    def test_chain_members_match_closed_forms(self):
        # e = exp(-kt); C0^2 = 4 (p/2 + 2(1-p)/3) (p/2 + (1-p)/3)
        for p, kt in GRID_9x9:
            e = np.exp(-kt)
            c0_sq = 4.0 * (p / 2.0 + 2.0 * (1.0 - p) / 3.0) * (p / 2.0 + (1.0 - p) / 3.0)
            rec = monogamy_chain(p, kt)
            assert abs(rec.c_pair_sq - c0_sq) < 1e-14
            assert abs(rec.c_c1_sq - e * c0_sq) < 1e-14
            assert abs(rec.c_r1_sq - (1.0 - e) * c0_sq) < 1e-14


class TestComplexStates:
    """The model's states are real, so the complex path is kept covered by a
    local phase diag(1, e^{i phi}) on each cavity qubit: it changes no
    entanglement measure."""

    PHASES = {"c1": 0.3, "c2": 1.1, "c3": 2.5}

    def _phased(self, state):
        lead = state.amplitudes.shape[:-1]
        amps = state.amplitudes.reshape(lead + (2,) * 7).astype(complex)
        for label, phi in self.PHASES.items():
            pos = state.layout.position(label)
            amps[(Ellipsis,) + (slice(None),) * pos + (1,)] *= np.exp(1j * phi)
        return PureState(state.layout, amps.reshape(lead + (128,)))

    def test_measures_match_the_real_state(self):
        real = global_output_state(np.linspace(0.0, 1.0, 7)[:, None], np.linspace(0.0, 3.0, 25))
        phased = self._phased(real)
        assert real.amplitudes.dtype == np.float64
        assert phased.amplitudes.dtype == np.complex128
        for qubits in (CAVITY_LAYOUT.labels, RESERVOIR_LAYOUT.labels):
            want = marginal_negativity(real, qubits)
            got = marginal_negativity(phased, qubits)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
        for want, got in zip(_block_pair(real, "c1", "r1"),
                             _block_pair(phased, "c1", "r1")):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


class TestLapackSizes:
    """The dense oracle must never eigensolve or factor a matrix with more
    than 8 rows: a 128x128 or 64x64 intermediate coming back fails here."""

    def test_no_large_lapack_inputs(self, monkeypatch):
        shapes = []

        def recording(fn):
            def wrapper(a, *args, **kwargs):
                shapes.append(np.shape(a))
                return fn(a, *args, **kwargs)
            return wrapper

        for name in ("eigvalsh", "eigh", "svd"):
            monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
        monogamy_chain(0.5, 1.0)
        swap_check(0.5, 1.0)
        reservoir_negativity(0.5, 1.0)
        negativity(reduce(global_output_state(0.5, 1.0), ["c1", "c2", "c3"]), ["c1"])
        assert shapes, "no LAPACK call was recorded"
        # the rows of each matrix, whatever leading axes a call stacks them on
        assert max(shape[-2] for shape in shapes) <= 8, shapes

    def test_no_svd_on_the_negativity_path(self, monkeypatch):
        # the partial transpose is Hermitian: its trace norm comes from
        # eigvalsh, and monogamy_chain's blocks come from eigh of a 4x4 marginal
        shapes = []
        svd = np.linalg.svd

        def recording(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        state = global_output_state(0.5, 1.0)
        negativity(reduce(state, ["c1", "c2", "c3"]), ["c1"])
        marginal_negativity(state, ("c1", "c2", "c3"))
        reservoir_negativity(0.5, 1.0)
        assert shapes == []
        monogamy_chain(0.5, 1.0)
        assert shapes == []
