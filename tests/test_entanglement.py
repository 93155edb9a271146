from dataclasses import fields

import numpy as np
import pytest

from cavres import (DensityMatrix, SystemLayout, closed_form_pt_eigenvalues,
                    gghz_negativity_closed, gghz_output_state,
                    global_output_state, mixed_ghz_w, monogamy_chain,
                    negativity, negativity_from_spectrum,
                    pure_bipartite_concurrence_sq, reduce, w,
                    wootters_concurrence)
from cavres.entanglement import (PtSpectrum, _pair_block_concurrences_sq,
                                 gghz_grid_deviation, grid_worst, marginal_negativity)
from cavres.esd import reservoir_negativity, swap_check
from cavres.linalg import hermitian_eigenvalues, partial_trace, partial_transpose
from cavres.states import ghz, purified_initial

from conftest import random_unitary

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

    def test_marginal_negativity_is_first_qubit_of_the_marginal(self):
        state = global_output_state(0.6, 0.8)
        for qubits in (("c1", "c2", "c3"), ("r1", "r2", "r3"), ("c2", "c3", "c1")):
            want = negativity(reduce(state, qubits), [qubits[0]])
            assert marginal_negativity(state, qubits) == want


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
                num = np.sort(hermitian_eigenvalues(partial_transpose(cav, ["c1"])))
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
                # scalar pow and the sum keeps np.sum's pairwise order
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

    def test_noise_clamp_applies_per_cell(self):
        small = np.array([0.0, -5e-13, 0.25])
        spec = PtSpectrum(lambdas=(1.0 + small, 0, 0, 0, 0, 0, 0, 0))
        assert negativity_from_spectrum(spec).tolist() == [0.0, 0.0, 0.25]
        spec = PtSpectrum(lambdas=(np.array([1.0, 0.5]), 0, 0, 0, 0, 0, 0, 0))
        with pytest.raises(ValueError, match="below the noise clamp"):
            negativity_from_spectrum(spec)


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
        (c,) = gghz_grid_deviation(1e-10)
        assert c.ok and c.value <= c.threshold == 1e-10 and len(c.at) == 2
        (c,) = gghz_grid_deviation(0.0)
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


def _dense_block_concurrence_sq(state, qubit, partner):
    # the route the amplitude SVD replaces: trace |psi><psi| down to the
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


GRID_9x9 = [(p, kt) for p in np.linspace(0.0, 1.0, 9) for kt in np.linspace(0.0, 3.0, 9)]


class TestBlockConcurrenceFastPath:
    def test_matches_dense_route_on_grid(self):
        worst = 0.0
        for p, kt in GRID_9x9:
            state = global_output_state(p, kt)
            got = _pair_block_concurrences_sq(state, "c1", "r1")
            want = (_dense_block_concurrence_sq(state, "c1", "r1"),
                    _dense_block_concurrence_sq(state, "r1", "c1"))
            worst = max(worst, *np.abs(np.subtract(got, want)))
        assert worst < 1e-14

    def test_qubit_need_not_come_first(self):
        # the SVD route takes any pair; c2 and r2 against the block of the rest
        state = global_output_state(0.6, 0.8)
        got = _pair_block_concurrences_sq(state, "c2", "r2")
        want = _pair_block_concurrences_sq(state, "c1", "r1")
        assert np.max(np.abs(np.subtract(got, want))) < 1e-14

    def test_chain_members_match_closed_forms(self):
        # e = exp(-kt); C0^2 = 4 (p/2 + 2(1-p)/3) (p/2 + (1-p)/3)
        for p, kt in GRID_9x9:
            e = np.exp(-kt)
            c0_sq = 4.0 * (p / 2.0 + 2.0 * (1.0 - p) / 3.0) * (p / 2.0 + (1.0 - p) / 3.0)
            rec = monogamy_chain(p, kt)
            assert abs(rec.c_pair_sq - c0_sq) < 1e-14
            assert abs(rec.c_c1_sq - e * c0_sq) < 1e-14
            assert abs(rec.c_r1_sq - (1.0 - e) * c0_sq) < 1e-14


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
        assert max(shape[0] for shape in shapes) <= 8, shapes

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
