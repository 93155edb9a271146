import itertools

import mpmath as mp
import numpy as np
import pytest

from cavres import (DensityMatrix, PureState, amplitudes, states, gghz_output_state, ghz,
                    global_output_state, global_output_state_from_amplitudes,
                    mixed_ghz_w, purified_initial, reduce, reorder, w)
from cavres.linalg import partial_trace
from cavres.states import GLOBAL_LAYOUT, PAIR_LAYOUT

from conftest import generalized_ghz, random_pure_state


def basis_index(bits):
    idx = 0
    for b in bits:
        idx = idx * 2 + b
    return idx


class TestNamedStates:
    def test_ghz_amplitudes(self):
        amps = ghz().amplitudes
        assert abs(amps[0b000] - 1 / np.sqrt(2)) < 1e-15
        assert abs(amps[0b111] - 1 / np.sqrt(2)) < 1e-15
        assert np.count_nonzero(amps) == 2

    def test_w_amplitudes(self):
        amps = w().amplitudes
        for idx in (0b001, 0b010, 0b100):
            assert abs(amps[idx] - 1 / np.sqrt(3)) < 1e-15
        assert np.count_nonzero(amps) == 3

    def test_generalized_ghz_endpoint(self):
        amps = generalized_ghz(1.0).amplitudes
        np.testing.assert_array_equal(amps, np.eye(8, dtype=complex)[0])

    def test_generalized_ghz_weights(self):
        amps = generalized_ghz(0.6).amplitudes
        assert abs(amps[0b000] - 0.6) < 1e-15
        assert abs(amps[0b111] - 0.8) < 1e-15

    def test_generalized_ghz_domain(self):
        with pytest.raises(ValueError):
            generalized_ghz(1.2)
        with pytest.raises(ValueError):
            generalized_ghz(-0.1)


class TestMixture:
    def test_pure_endpoints(self):
        g = ghz().amplitudes
        np.testing.assert_allclose(mixed_ghz_w(1.0).data, np.outer(g, g.conj()))
        v = w().amplitudes
        np.testing.assert_allclose(mixed_ghz_w(0.0).data, np.outer(v, v.conj()))

    def test_half_mixture_spectrum(self):
        ev = np.linalg.eigvalsh(mixed_ghz_w(0.5).data)[::-1]
        assert abs(mixed_ghz_w(0.5).data.trace() - 1.0) < 1e-14
        np.testing.assert_allclose(ev[:2], [0.5, 0.5], atol=1e-14)
        np.testing.assert_allclose(ev[2:], 0.0, atol=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            mixed_ghz_w(-0.01)
        with pytest.raises(ValueError):
            mixed_ghz_w(1.01)


class TestAmplitudes:
    def test_no_decay(self):
        assert amplitudes(0.0) == (1.0, 0.0)

    def test_full_decay(self):
        xi, chi = amplitudes(np.inf)
        assert xi == 0.0 and chi == 1.0

    def test_self_dual_point(self):
        xi, chi = amplitudes(np.log(2.0))
        assert abs(xi - 1 / np.sqrt(2)) < 1e-15
        assert abs(chi - 1 / np.sqrt(2)) < 1e-15

    def test_normalization(self):
        for kt in np.linspace(0.0, 8.0, 50):
            xi, chi = amplitudes(kt)
            assert abs(xi * xi + chi * chi - 1.0) < 1e-14

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            amplitudes(-0.1)

    @pytest.mark.parametrize("kt", [1e-300, 1e-17, 1e-13, 1e-10, 1e-5, 0.5, 5.0, 40.0])
    def test_leaked_amplitude_against_mpmath(self, kt):
        # sqrt(1 - exp(-kt)) would cancel at small kt, and be exactly 0 at 1e-17
        with mp.workdps(50):
            want = mp.sqrt(-mp.expm1(-mp.mpf(kt)))
            assert abs(amplitudes(kt)[1] - want) <= 2.3e-16 * want


class TestPurifiedInitial:
    def test_ghz_branch(self):
        amps = purified_initial(1.0).amplitudes
        # layout (c1 c2 c3 z r1 r2 r3): GHZ on cavities, z=0, reservoirs vacuum
        assert abs(amps[basis_index([0, 0, 0, 0, 0, 0, 0])] - 1 / np.sqrt(2)) < 1e-15
        assert abs(amps[basis_index([1, 1, 1, 0, 0, 0, 0])] - 1 / np.sqrt(2)) < 1e-15
        assert np.count_nonzero(amps) == 2

    def test_w_branch(self):
        amps = purified_initial(0.0).amplitudes
        assert abs(amps[basis_index([0, 0, 1, 1, 0, 0, 0])] - 1 / np.sqrt(3)) < 1e-15
        assert np.count_nonzero(amps) == 3

    def test_purification_identity(self):
        for p in np.linspace(0.0, 1.0, 11):
            got = reduce(purified_initial(p), ["c1", "c2", "c3"])
            np.testing.assert_allclose(got.data, mixed_ghz_w(p).data, atol=1e-14)


class TestGlobalOutputState:
    def test_layout(self):
        assert global_output_state(0.3, 0.7).layout == GLOBAL_LAYOUT

    def test_zero_time_matches_purification(self):
        for p in (0.0, 0.3, 1.0):
            evolved = global_output_state(p, 0.0)
            expected = reorder(purified_initial(p), GLOBAL_LAYOUT)
            np.testing.assert_allclose(evolved.amplitudes, expected.amplitudes,
                                       atol=1e-14)

    def test_ghz_branch_structure(self):
        # p=1: equal superposition of the joint vacuum and three shared
        # excitations, ancilla stuck at |0>
        xi, chi = amplitudes(0.9)
        amps = global_output_state(1.0, 0.9).amplitudes
        assert abs(amps[0] - 1 / np.sqrt(2)) < 1e-14
        idx = basis_index([1, 0, 1, 0, 1, 0, 0])  # all excitations still in cavities
        assert abs(amps[idx] - xi ** 3 / np.sqrt(2)) < 1e-14
        idx = basis_index([0, 1, 0, 1, 0, 1, 0])  # all leaked to reservoirs
        assert abs(amps[idx] - chi ** 3 / np.sqrt(2)) < 1e-14

    def test_unit_norm_on_grid(self):
        for p in np.linspace(0.0, 1.0, 50):
            for kt in np.linspace(0.0, 3.0, 50):
                amps = global_output_state(p, kt).amplitudes
                assert abs(np.linalg.norm(amps) - 1.0) < 1e-12

    def test_reduces_to_mixture_at_zero_time(self):
        for p in (0.0, 0.25, 0.8):
            got = reduce(global_output_state(p, 0.0), ["c1", "c2", "c3"])
            np.testing.assert_allclose(got.data, mixed_ghz_w(p).data, atol=1e-14)

    def test_pair_exchange_symmetry(self):
        for p, kt in [(0.4, 0.8), (0.9, 2.0)]:
            state = global_output_state(p, kt)
            pairs = [reduce(state, [c, r]).data
                     for c, r in (("c1", "r1"), ("c2", "r2"), ("c3", "r3"))]
            np.testing.assert_allclose(pairs[0], pairs[1], atol=1e-14)
            np.testing.assert_allclose(pairs[0], pairs[2], atol=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            global_output_state(1.5, 1.0)
        with pytest.raises(ValueError):
            global_output_state(0.5, -1.0)


class TestGghzOutputState:
    def test_product_endpoint(self):
        amps = gghz_output_state(1.0, 1.3).amplitudes
        np.testing.assert_array_equal(amps, np.eye(64, dtype=complex)[0])

    def test_zero_time_structure(self):
        amps = gghz_output_state(0.6, 0.0).amplitudes
        assert abs(amps[0] - 0.6) < 1e-15
        assert abs(amps[basis_index([1, 0, 1, 0, 1, 0])] - 0.8) < 1e-15
        assert np.count_nonzero(amps) == 2

    def test_pair_exchange_symmetry(self):
        state = gghz_output_state(0.45, 1.1)
        pairs = [reduce(state, [c, r]).data
                 for c, r in (("c1", "r1"), ("c2", "r2"), ("c3", "r3"))]
        np.testing.assert_allclose(pairs[0], pairs[1], atol=1e-14)
        np.testing.assert_allclose(pairs[0], pairs[2], atol=1e-14)


class TestReorder:
    def test_roundtrip(self):
        state = purified_initial(0.4)
        back = reorder(reorder(state, GLOBAL_LAYOUT), state.layout)
        np.testing.assert_allclose(back.amplitudes, state.amplitudes)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            reorder(ghz(), ["c1", "c2", "r1"])


def _kron_pair(xi, chi):
    return np.array([0.0, chi, xi, 0.0], dtype=complex)


def _kron_global(p, xi, chi):
    # the explicit Kronecker chain the broadcasting construction replaces
    ph = _kron_pair(xi, chi)
    vac2 = np.eye(4, dtype=complex)[0]
    vac6 = np.eye(64, dtype=complex)[0]
    z0, z1 = np.eye(2, dtype=complex)
    ghz_branch = np.kron(vac6 + np.kron(np.kron(ph, ph), ph), z0)
    w_branch = np.kron(np.kron(np.kron(vac2, vac2), ph)
                       + np.kron(np.kron(vac2, ph), vac2)
                       + np.kron(np.kron(ph, vac2), vac2), z1)
    return np.sqrt(p / 2.0) * ghz_branch + np.sqrt((1.0 - p) / 3.0) * w_branch


def _kron_gghz(a, xi, chi):
    ph = _kron_pair(xi, chi)
    b = np.sqrt(1.0 - a * a)
    return a * np.eye(64, dtype=complex)[0] + b * np.kron(np.kron(ph, ph), ph)


class TestOutputStatesAgainstKronChain:
    """The one-pass builders write exactly the Kronecker chain's entries."""

    GRID = [(x, kt) for x in np.linspace(0.0, 1.0, 9) for kt in np.linspace(0.0, 3.0, 9)]

    def test_global_output_state(self):
        for p, kt in self.GRID:
            xi, chi = amplitudes(kt)
            got = global_output_state_from_amplitudes(p, xi, chi)
            assert got.layout == GLOBAL_LAYOUT
            np.testing.assert_array_equal(got.amplitudes, _kron_global(p, xi, chi))

    def test_gghz_output_state(self):
        for a, kt in self.GRID:
            xi, chi = amplitudes(kt)
            got = states._gghz_state(a, xi, chi)
            assert got.layout == PAIR_LAYOUT
            np.testing.assert_array_equal(got.amplitudes, _kron_gghz(a, xi, chi))

    def test_swapped_amplitudes(self):
        # the swap check feeds (chi, xi); that order must build the same way
        xi, chi = amplitudes(0.7)
        np.testing.assert_array_equal(
            global_output_state_from_amplitudes(0.4, chi, xi).amplitudes,
            _kron_global(0.4, chi, xi))

    def test_stacked_global_output_state(self):
        # a p column against a kt row: each member is its own chain
        ps = np.linspace(0.0, 1.0, 7)
        xi, chi = amplitudes(np.linspace(0.0, 3.0, 25))
        got = global_output_state_from_amplitudes(ps[:, None], xi, chi).amplitudes
        assert got.shape == (7, 25, 128)
        for i, p in enumerate(ps):
            for j in range(25):
                np.testing.assert_array_equal(got[i, j], _kron_global(p, xi[j], chi[j]))


class TestBuilderAmplitudes:
    """The explicit-amplitude builder checks xi^2 + chi^2 = 1 in each member
    where the amplitudes enter, then writes the state without checking it again."""

    BUILDERS = [global_output_state_from_amplitudes]

    @pytest.mark.parametrize("build", BUILDERS)
    def test_one_member_off_the_unit_circle_is_refused(self, build):
        xi, chi = amplitudes(np.linspace(0.0, 3.0, 5))
        xi[3] = np.sqrt(1.0 + 1e-9 - chi[3] ** 2)
        with pytest.raises(ValueError, match=r"^xi\^2 \+ chi\^2 = 1\.00000000\d* "
                                             r"deviates from 1 beyond 1e-12$"):
            build(0.4, xi, chi)
        xi[3] = np.nan
        with pytest.raises(ValueError, match=r"^xi\^2 \+ chi\^2 = nan "):
            build(0.4, xi, chi)

    @pytest.mark.parametrize("build", BUILDERS)
    def test_output_is_read_only_and_unit_norm(self, build):
        state = build(np.linspace(0.0, 1.0, 7)[:, None], *amplitudes(np.linspace(0.0, 3.0, 25)))
        assert not state.amplitudes.flags.writeable
        norm = np.linalg.norm(state.amplitudes, axis=-1)
        assert norm.shape == (7, 25) and np.all(np.abs(norm - 1.0) <= 1e-15)


class TestReduceAgainstDenseTrace:
    """reduce contracts the amplitudes; the referee traces |psi><psi|."""

    SEVEN = ("c1", "r1", "c2", "r2", "c3", "r3", "z")
    SIX = ("c1", "r1", "c2", "r2", "c3", "r3")
    KEEPS = (["c2"], ["c1", "r3"], ["r1", "c2", "z"], ["c1", "c2", "c3"],
             ["c1", "r1", "c2", "r2", "c3"], ["r1", "c2", "r2", "c3", "r3", "z"],
             ["r2", "c1"], ["z", "c3", "r1"], ["r3", "r2", "r1"])

    @staticmethod
    def _referee(state, keep):
        rho = DensityMatrix(state.layout,
                            np.outer(state.amplitudes, state.amplitudes.conj()))
        return partial_trace(rho, keep)

    def _check(self, state, keep):
        got = reduce(state, keep)
        want = self._referee(state, keep)
        assert got.layout == want.layout
        np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-15)

    def test_random_seven_qubit_states(self, rng):
        for _ in range(4):
            state = random_pure_state(rng, self.SEVEN)
            for keep in self.KEEPS:
                self._check(state, keep)

    def test_random_six_qubit_states(self, rng):
        for _ in range(4):
            state = random_pure_state(rng, self.SIX)
            for keep in self.KEEPS:
                keep = [lab for lab in keep if lab != "z"] or ["c1"]
                self._check(state, keep)

    def test_evolved_states(self):
        for p, kt in [(0.0, 0.0), (0.4, 0.8), (1.0, 2.5)]:
            for keep in self.KEEPS:
                self._check(global_output_state(p, kt), keep)

    def test_unsorted_keep_follows_layout_order(self):
        state = global_output_state(0.3, 0.9)
        assert reduce(state, ["r2", "c1"]).layout.labels == ("c1", "r2")

    def test_errors(self):
        state = global_output_state(0.3, 0.9)
        with pytest.raises(ValueError, match="keep set must be nonempty"):
            reduce(state, [])
        with pytest.raises(ValueError, match="not in layout"):
            reduce(state, ["c1", "q9"])
        with pytest.raises(ValueError, match="not in layout"):
            reduce(gghz_output_state(0.5, 1.0), ["z"])


def _gram(state, keep):
    # the reference M M^dagger: the kept qubits as rows, in layout order
    n, lead = state.layout.n_qubits, state.amplitudes.shape[:-1]
    pos = state.layout.positions(keep)
    m = np.moveaxis(state.amplitudes.reshape(lead + (2,) * n),
                    [i - n for i in pos], range(-n, len(pos) - n))
    m = m.reshape(lead + (2 ** len(pos), -1))
    return m @ np.swapaxes(m.conj(), -1, -2)


def _every_keep(labels):
    return [keep for k in range(1, len(labels) + 1)
            for keep in itertools.combinations(labels, k)]


def _random_stack(rng, labels, dtype):
    shape = (3, 2 ** len(labels))
    v = rng.normal(size=shape) + (1j * rng.normal(size=shape) if dtype is complex else 0.0)
    return PureState(labels, v / np.linalg.norm(v, axis=-1, keepdims=True))


class TestReducePlan:
    """reduce sums each marginal entry over the pairs of amplitudes nonzero
    in any member that share their column, in a fixed plan order."""

    GRID = (np.array([0.0, 0.6, 1.0])[:, None], np.array([0.0, 0.8, 2.5]))

    @pytest.mark.parametrize("build, labels", [
        (global_output_state, GLOBAL_LAYOUT.labels), (gghz_output_state, PAIR_LAYOUT.labels),
    ], ids=["mixture", "gghz"])
    def test_every_keep_of_the_model_states(self, build, labels):
        state = build(*self.GRID)
        for keep in _every_keep(labels):
            got = reduce(state, keep).data
            assert got.dtype == np.float64  # a real state's marginal stays real
            np.testing.assert_allclose(got, _gram(state, keep), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_every_keep_of_dense_states(self, rng, dtype):
        state = _random_stack(rng, GLOBAL_LAYOUT.labels, dtype)
        for keep in _every_keep(GLOBAL_LAYOUT.labels):
            got = reduce(state, keep).data
            assert got.dtype == np.dtype(dtype)
            np.testing.assert_allclose(got, _gram(state, keep), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("build, params", [
        (global_output_state, [0.0, 0.6, 1.0]),  # W, a mixture and GHZ
        (gghz_output_state, [0.0, 0.6, 1.0]),  # a = 0 is a product
    ], ids=["mixture", "gghz"])
    def test_each_member_keeps_the_bits_of_its_own_call(self, build, params):
        kts = np.array([0.0, 0.8])
        stack = build(np.array(params)[:, None], kts)
        for keep in (("c1", "c2", "c3"), ("r1", "r2", "r3"), ("c1", "r1"), ("c1", "r2", "c3")):
            got = reduce(stack, keep).data
            for i, param in enumerate(params):
                for j, kt in enumerate(kts):
                    want = reduce(build(param, kt), keep).data
                    assert got[i, j].tobytes() == want.tobytes()

    def test_a_skipped_entry_keeps_its_positive_zero(self):
        # in the stack, entry (0, 1) of the second member sums 0 * -0.8 and
        # -0.6 * 0, two negative zeros; its own call plans no such entry
        stack = PureState(("c1", "r1"), [[0.5, 0.5, 0.5, 0.5], [0.0, -0.6, -0.8, 0.0]])
        got = reduce(stack, ["c1"]).data[1]
        want = reduce(PureState(("c1", "r1"), [0.0, -0.6, -0.8, 0.0]), ["c1"]).data
        assert got.tobytes() == want.tobytes() and not np.signbit(got).any()

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_marginals_are_exactly_hermitian(self, rng, dtype):
        for state in (_random_stack(rng, GLOBAL_LAYOUT.labels, dtype),
                      global_output_state(*self.GRID)):
            for keep in _every_keep(GLOBAL_LAYOUT.labels[:4]):
                rho = reduce(state, keep).data
                assert np.array_equal(rho, np.swapaxes(rho.conj(), -1, -2))
                assert not np.iscomplexobj(rho) or not rho.diagonal(0, -2, -1).imag.any()

    def test_the_plan_holds_its_pairs_not_pairs_times_dim_squared(self):
        # a dense 7-qubit state reduced to 6 qubits
        sub, left, right, rounds, upper, lower = states._plan(
            np.ones(128, dtype=bool).tobytes(), GLOBAL_LAYOUT, GLOBAL_LAYOUT.labels[:6])
        pairs = 2 * (64 * 65 // 2)  # two columns, each pairing its 64 rows
        assert left.size == right.size == pairs and upper.size == lower.size == pairs // 2
        assert len(rounds) == 1 and sub.dim == 64

    def test_the_cached_arrays_are_read_only(self):
        amps = global_output_state(0.4, 0.8).amplitudes
        plan = states._plan((amps != 0).tobytes(), GLOBAL_LAYOUT, ("c1", "c2", "c3"))
        arrays = [x for x in plan if isinstance(x, np.ndarray)]
        assert len(arrays) == 4
        for x in arrays:
            assert not x.flags.writeable
            with pytest.raises(ValueError):
                x[0] = 0
