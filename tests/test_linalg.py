import numpy as np
import pytest

from cavres import (DensityMatrix, PureState, SystemLayout,
                    hermitian_eigenvalues, partial_trace, partial_transpose,
                    psd_sqrt, trace_norm)
from cavres.states import ghz, purified_initial, mixed_ghz_w, reduce

from conftest import (random_density_matrix, random_pure_state,
                      random_separable_density_matrix, tensor_product)


def bell_pair():
    amps = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    return DensityMatrix(SystemLayout(("c1", "c2")), np.outer(amps, amps))


class TestSystemLayout:
    def test_rejects_unknown_label(self):
        with pytest.raises(ValueError):
            SystemLayout(("c1", "q9"))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            SystemLayout(("c1", "c1"))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SystemLayout(())

    def test_dimension_and_positions(self):
        layout = SystemLayout(("c1", "r1", "z"))
        assert layout.dim == 8
        assert layout.position("z") == 2
        assert layout.positions(["z", "c1"]) == [0, 2]

    def test_restrict_preserves_order(self):
        layout = SystemLayout(("c1", "r1", "c2", "r2"))
        assert layout.restrict(["r2", "c1"]).labels == ("c1", "r2")

    def test_immutable(self):
        layout = SystemLayout(("c1",))
        with pytest.raises(AttributeError):
            layout.labels = ("c2",)

    def test_equal_layouts_share_a_dict_entry(self):
        a, b = SystemLayout(("c1", "r1")), SystemLayout(["c1", "r1"])
        assert a == b and hash(a) == hash(b)
        assert len({a: 0, b: 1}) == 1
        assert a != SystemLayout(("r1", "c1"))


class TestTensorProduct:
    def test_basis_kets(self):
        zero = np.array([1.0, 0.0])
        np.testing.assert_array_equal(tensor_product(zero, zero),
                                      np.array([1, 0, 0, 0], dtype=complex))

    def test_identity_matrices(self):
        eye2 = np.eye(2)
        np.testing.assert_array_equal(tensor_product(eye2, eye2), np.eye(4))

    def test_zero_one_ordering(self):
        zero = np.array([1.0, 0.0])
        one = np.array([0.0, 1.0])
        np.testing.assert_array_equal(tensor_product(zero, one),
                                      np.array([0, 1, 0, 0], dtype=complex))

    def test_pure_states_concatenate_layouts(self):
        a = PureState(SystemLayout(("c1",)), [1.0, 0.0])
        b = PureState(SystemLayout(("r1",)), [0.0, 1.0])
        out = tensor_product(a, b)
        assert out.layout.labels == ("c1", "r1")
        np.testing.assert_array_equal(out.amplitudes, [0, 1, 0, 0])

    def test_mixed_kinds_rejected(self):
        a = PureState(SystemLayout(("c1",)), [1.0, 0.0])
        with pytest.raises(TypeError):
            tensor_product(a, np.eye(2))
        with pytest.raises(TypeError):
            tensor_product(mixed_ghz_w(0.5), a)

    def test_vector_matrix_mismatch_rejected(self):
        with pytest.raises(TypeError):
            tensor_product(np.array([1.0, 0.0]), np.eye(2))


class TestPartialTrace:
    def test_product_state(self):
        rho = DensityMatrix(SystemLayout(("c1", "c2")), np.diag([1.0, 0, 0, 0]))
        out = partial_trace(rho, ["c1"])
        np.testing.assert_allclose(out.data, np.diag([1.0, 0.0]))

    def test_ghz_single_qubit_is_maximally_mixed(self):
        out = reduce(ghz(), ["c1"])
        np.testing.assert_allclose(out.data, np.eye(2) / 2, atol=1e-14)

    def test_purification_recovers_mixture(self):
        # tracing the ancilla and reservoirs out of the purified initial
        # state must reproduce the bare mixture entrywise
        for p in np.linspace(0.0, 1.0, 11):
            got = reduce(purified_initial(p), ["c1", "c2", "c3"])
            np.testing.assert_allclose(got.data, mixed_ghz_w(p).data, atol=1e-14)

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(bell_pair(), [])

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(bell_pair(), ["r3"])

    def test_preserves_trace_and_hermiticity(self, rng):
        for _ in range(5):
            rho = random_density_matrix(rng, ("c1", "r1", "c2"))
            out = partial_trace(rho, ["c1", "c2"])
            assert abs(out.data.trace() - rho.data.trace()) < 1e-12
            assert np.max(np.abs(out.data - out.data.conj().T)) < 1e-12


class TestPartialTranspose:
    def test_diagonal_product_state_unchanged(self):
        rho = DensityMatrix(SystemLayout(("c1", "c2")), np.diag([1.0, 0, 0, 0]))
        np.testing.assert_array_equal(partial_transpose(rho, ["c1"]), rho.data)

    def test_bell_state_minimum_eigenvalue(self):
        pt = partial_transpose(bell_pair(), ["c1"])
        assert abs(hermitian_eigenvalues(pt)[-1] + 0.5) < 1e-14

    def test_involution(self, rng):
        # a separable state's partial transpose is again a state, so the
        # map can be applied to its own output
        rho = random_separable_density_matrix(rng, ("c1", "r1", "c2"))
        pt = partial_transpose(rho, ["r1"])
        twice = partial_transpose(DensityMatrix(rho.layout, pt), ["r1"])
        np.testing.assert_allclose(twice, rho.data, atol=1e-15)

    @pytest.mark.parametrize("subsystem, positions", [(["c2"], [1]),
                                                      (["c1", "c3"], [0, 2])])
    def test_matches_index_loop_definition(self, rng, subsystem, positions):
        # (rho^T_A)[i, j] = rho[i', j'], where i' and j' swap the bits of
        # the qubits in A between the row and the column index
        rho = random_density_matrix(rng, ("c1", "c2", "c3"))
        mask = sum(1 << (2 - q) for q in positions)
        want = np.empty_like(rho.data)
        for i in range(8):
            for j in range(8):
                want[i, j] = rho.data[(i & ~mask) | (j & mask), (j & ~mask) | (i & mask)]
        np.testing.assert_array_equal(partial_transpose(rho, subsystem), want)

    def test_preserves_trace_exactly(self, rng):
        rho = random_density_matrix(rng, ("c1", "c2", "c3"))
        assert partial_transpose(rho, ["c2"]).trace() == rho.data.trace()

    def test_full_subsystem_rejected(self):
        with pytest.raises(ValueError):
            partial_transpose(bell_pair(), ["c1", "c2"])

    def test_empty_subsystem_rejected(self):
        with pytest.raises(ValueError):
            partial_transpose(bell_pair(), [])


class TestHermitianEigenvalues:
    def test_identity(self):
        np.testing.assert_array_equal(hermitian_eigenvalues(np.eye(2)), [1.0, 1.0])

    def test_diagonal_descending(self):
        got = hermitian_eigenvalues(np.diag([1.0 / 3.0, 2.0 / 3.0]))
        np.testing.assert_allclose(got, [2.0 / 3.0, 1.0 / 3.0])

    def test_sum_matches_trace(self, rng):
        rho = random_density_matrix(rng, ("c1", "r1", "c2", "r2"))
        ev = hermitian_eigenvalues(rho.data)
        assert abs(ev.sum() - rho.data.trace().real) < 1e-10
        assert all(a >= b for a, b in zip(ev, ev[1:]))

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestTraceNorm:
    def test_density_matrix_is_one(self, rng):
        rho = random_density_matrix(rng, ("c1", "c2"))
        assert abs(trace_norm(rho.data) - 1.0) < 1e-12

    def test_signed_diagonal(self):
        assert abs(trace_norm(np.diag([1.0, -1.0])) - 2.0) < 1e-14

    def test_bell_partial_transpose(self):
        pt = partial_transpose(bell_pair(), ["c1"])
        assert abs(trace_norm(pt) - 2.0) < 1e-12


class TestPsdSqrt:
    def test_identity(self):
        np.testing.assert_allclose(psd_sqrt(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(psd_sqrt(np.diag([4.0, 9.0])),
                                   np.diag([2.0, 3.0]), atol=1e-14)

    def test_square_recovers_input(self, rng):
        rho = random_density_matrix(rng, ("c1", "r1", "c2")).data
        root = psd_sqrt(rho)
        np.testing.assert_allclose(root @ root, rho, atol=1e-10)
        assert np.linalg.eigvalsh(root)[0] > -1e-12

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            psd_sqrt(np.diag([1.0, -1.0]))


class TestStateTypes:
    def test_pure_state_norm_enforced(self):
        with pytest.raises(ValueError):
            PureState(SystemLayout(("c1",)), [1.0, 1.0])

    def test_density_matrix_checks(self):
        layout = SystemLayout(("c1",))
        with pytest.raises(ValueError):
            DensityMatrix(layout, np.array([[1.0, 1.0], [0.0, 0.0]]))  # not Hermitian
        with pytest.raises(ValueError):
            DensityMatrix(layout, np.eye(2))  # trace 2
        with pytest.raises(ValueError):
            DensityMatrix(layout, np.diag([1.5, -0.5]))  # negative eigenvalue

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            PureState(SystemLayout(("c1",)), [np.nan, 0.0])

    def test_values_are_immutable(self):
        state = ghz()
        with pytest.raises(AttributeError):
            state.amplitudes = np.zeros(8)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1.0  # read-only buffer
        rho = mixed_ghz_w(0.5)
        with pytest.raises(AttributeError):
            rho.data = np.eye(8) / 8.0
        with pytest.raises(AttributeError):
            rho.layout = SystemLayout(("r1", "r2", "r3"))
        with pytest.raises(ValueError):
            rho.data[0, 0] = 1.0

    def test_short_reprs(self):
        assert repr(ghz()) == "PureState(layout=('c1', 'c2', 'c3'), dim=8)"
        assert repr(mixed_ghz_w(0.5)) == "DensityMatrix(layout=('c1', 'c2', 'c3'), dim=8)"

    def test_states_compare_by_identity(self):
        rho = mixed_ghz_w(0.5)
        assert rho == rho and rho != DensityMatrix(rho.layout, rho.data)
        state = ghz()
        assert state != PureState(state.layout, state.amplitudes)

    def test_schmidt_symmetry(self, rng):
        # both sides of a pure-state cut share their nonzero spectrum
        state = random_pure_state(rng, ("c1", "r1", "c2", "r2", "c3"))
        left = hermitian_eigenvalues(reduce(state, ["c1", "r1"]).data)
        right = hermitian_eigenvalues(reduce(state, ["c2", "r2", "c3"]).data)
        np.testing.assert_allclose(right[:4], left, atol=1e-10)
        np.testing.assert_allclose(right[4:], 0.0, atol=1e-10)


def _strided(m):
    """m as a view whose last axis is strided."""
    wide = np.zeros(m.shape[:-1] + (2 * m.shape[-1],), dtype=complex)
    wide[..., ::2] = m
    return wide[..., ::2]


class TestStridedInput:
    """A transposed or strided array is taken as its contiguous copy is."""

    def test_density_matrix(self, rng):
        rho = random_density_matrix(rng, ("c1", "r1", "c2"))
        for view in (rho.data.conj().T, _strided(rho.data)):
            assert not view.flags.c_contiguous
            got = DensityMatrix(rho.layout, view)
            assert np.array_equal(got.data, np.ascontiguousarray(view))

    def test_pure_state(self, rng):
        amps = random_pure_state(rng, ("c1", "r1")).amplitudes
        got = PureState(SystemLayout(("c1", "r1")), _strided(amps))
        assert np.array_equal(got.amplitudes, amps)

    @pytest.mark.parametrize("fn", [hermitian_eigenvalues, psd_sqrt, trace_norm])
    def test_matrix_helpers(self, rng, fn):
        m = random_density_matrix(rng, ("c1", "r1", "c2")).data
        for view in (m.T, _strided(m)):
            np.testing.assert_array_equal(fn(view), fn(np.ascontiguousarray(view)))

    @pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.nan),
                                     complex(np.inf, 0.0), complex(0.0, -np.inf)])
    def test_non_finite_part_refused(self, bad):
        m = np.eye(2, dtype=complex) / 2.0
        m[0, 1] = bad
        for fn in (hermitian_eigenvalues, psd_sqrt, trace_norm,
                   lambda x: DensityMatrix(("c1",), x)):
            for view in (m, m.T):
                with pytest.raises(ValueError, match="entries must be finite"):
                    fn(view)
        with pytest.raises(ValueError, match="entries must be finite"):
            PureState(("c1",), _strided(np.array([bad, 1.0])))
