import copy
import pickle
import warnings

import mpmath as mp
import numpy as np
import pytest

from cavres import DensityMatrix, PureState, SystemLayout, partial_transpose
from cavres.linalg import (_block_spectrum, _eigvalsh_of_size, hermitian_eigenvalues,
                           partial_trace, psd_sqrt, trace_norm)
from cavres.states import (CAVITY_LAYOUT, RESERVOIR_LAYOUT, ghz, gghz_output_state,
                           global_output_state, purified_initial, mixed_ghz_w, reduce)

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
        assert layout.positions(iter(["z", "c1", "z"])) == [0, 2]  # one pass; repeats collapse

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
        assert abs(np.linalg.eigvalsh(pt)[0] + 0.5) < 1e-14

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


def _hermitian(rng, shape, dtype=float):
    g = rng.normal(size=shape) + (1j * rng.normal(size=shape) if dtype is complex else 0.0)
    return g + np.swapaxes(g.conj(), -1, -2)


def _permuted_blocks(rng, sizes, dtype=float):
    """A random Hermitian matrix that is the direct sum of random blocks of
    the given sizes, rows and columns then permuted at random: (matrix,
    blocks, each block's rows in the matrix, ascending)."""
    blocks = [_hermitian(rng, (s, s), dtype) for s in sizes]
    n = sum(sizes)
    h = np.zeros((n, n), dtype=dtype)
    starts = np.cumsum([0, *sizes])
    for b, at in zip(blocks, starts):
        h[at:at + len(b), at:at + len(b)] = b
    order = rng.permutation(n)
    where = np.argsort(order)  # row r of h sits at where[r] after the permutation
    rows = [np.sort(where[at:at + len(b)]) for b, at in zip(blocks, starts)]
    return h[np.ix_(order, order)], blocks, rows


def _sorted_spectrum(h):
    """The block-by-block spectrum, sorted ascending as eigvalsh sorts it."""
    return np.sort(_block_spectrum(h), axis=-1)


class TestBlockEigvalsh:
    """The block-by-block spectrum of `_block_spectrum` against eigvalsh: a
    block of 3 or more rows gets eigvalsh's bits, and a 2x2 block, solved in
    closed form, is certified in TestTwoByTwoBlocks."""

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_a_dense_stack_gets_eigvalshs_bits(self, rng, dtype):
        h = _hermitian(rng, (6, 8, 8), dtype)
        assert np.array_equal(_sorted_spectrum(h), np.linalg.eigvalsh(h))
        assert np.array_equal(_sorted_spectrum(h[2]), np.linalg.eigvalsh(h[2]))

    @pytest.mark.parametrize("sizes, dtype", [
        ([3, 1, 2, 2], float), ([1, 1, 5, 1], float), ([4, 3, 1], complex), ([2] * 4, complex),
    ], ids=["3-1-2-2", "1-1-5-1", "4-3-1-complex", "2-2-2-2-complex"])
    def test_permuted_blocks_give_the_union_of_their_spectra(self, rng, sizes, dtype):
        for _ in range(5):
            h, blocks, rows = _permuted_blocks(rng, sizes, dtype)
            got = _sorted_spectrum(h)
            want = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
            # each block of 3 or more rows solved by eigvalsh as it sits in h
            for r in rows:
                if len(r) > 2:
                    assert np.isin(np.linalg.eigvalsh(h[np.ix_(r, r)]), got).all()
            assert got.dtype == np.float64

    def test_members_with_finer_patterns_keep_their_solo_bits(self, rng):
        # the second member has the first's 3-2-2-1 pattern with both blocks of 2
        # cut into 1x1 ones; in the stack they are solved as blocks of 2
        h, _, rows = _permuted_blocks(rng, [3, 2, 2, 1])
        finer = h.copy()
        for r in rows[1:3]:
            finer[r[0], r[1]] = finer[r[1], r[0]] = 0.0
        stack = _sorted_spectrum(np.stack([h, finer]))
        assert np.array_equal(stack[0], _sorted_spectrum(h))
        assert np.array_equal(stack[1], _sorted_spectrum(finer))

    @pytest.mark.parametrize("state, layout", [
        (global_output_state, CAVITY_LAYOUT), (global_output_state, RESERVOIR_LAYOUT),
        (gghz_output_state, CAVITY_LAYOUT),
    ], ids=["mixed-cavity", "mixed-reservoir", "gghz-cavity"])
    def test_model_partial_transposes(self, state, layout):
        # p (or a) in {0, 1} and kt = 0 included; the rows of p = 0 and p = 1
        # split finer than the others, and keep the bits of their own calls
        params, kts = np.linspace(0.0, 1.0, 6), np.linspace(0.0, 3.0, 7)
        pt = partial_transpose(reduce(state(params[:, None], kts), layout.labels),
                               layout.labels[:1])
        got = _sorted_spectrum(pt)
        assert np.max(np.abs(got - np.linalg.eigvalsh(pt))) <= 1e-15
        # at most two eigenvalues are negative, so the negativity's sum over
        # the unsorted spectrum has the bits of the sum over the sorted one
        spectrum = _block_spectrum(pt)
        assert np.array_equal(np.sum(np.abs(spectrum) - spectrum, axis=-1),
                              np.sum(np.abs(got) - got, axis=-1))
        for i in range(len(params)):
            assert np.array_equal(got[i], _sorted_spectrum(pt[i]))
            for j in range(len(kts)):
                assert np.array_equal(got[i, j], _sorted_spectrum(pt[i, j]))


def _two_by_two(rng, n, dtype, scale):
    """n random Hermitian 2x2 blocks with entries of the given scale, the
    second quarter degenerate (a == c) and the third diagonal (b == 0)."""
    h = _hermitian(rng, (n, 2, 2), dtype) * scale
    h[n // 4:n // 2, 1, 1] = h[n // 4:n // 2, 0, 0]
    h[n // 2:3 * n // 4, 0, 1] = h[n // 2:3 * n // 4, 1, 0] = 0.0
    return h


def _mp_error(block, got):
    """The largest error of got against the block's eigenvalues to 50
    digits, in units of eps times its largest entry."""
    with mp.workdps(50):
        a, c, b = mp.mpf(block[0, 0].real), mp.mpf(block[1, 1].real), complex(block[0, 1])
        mean = (a + c) / 2
        r = mp.sqrt(((a - c) / 2) ** 2 + mp.mpf(b.real) ** 2 + mp.mpf(b.imag) ** 2)
        err = max(abs(mp.mpf(g) - w) for g, w in zip(got, (mean - r, mean + r)))
        return float(err / (np.max(np.abs(block)) * np.finfo(float).eps))


class TestTwoByTwoBlocks:
    """A 2x2 block's closed form against 50-digit eigenvalues: within 2 eps
    of its largest entry from 1e-200 to 1e200, exact on a diagonal block,
    and no floating-point warning anywhere."""

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_against_mpmath(self, rng, dtype):
        worst = 0.0
        for scale in 10.0 ** np.arange(-200, 201, 50):
            h = _two_by_two(rng, 40, dtype, scale)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _sorted_spectrum(h)
            worst = max(worst, *(_mp_error(block, vals) for block, vals in zip(h, got)))
        assert worst <= 2.0

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_entries_of_unlike_scales(self, rng, dtype):
        # |b|^2 would underflow or overflow here; |b| (|b| / ...) does not
        h = _two_by_two(rng, 200, dtype, 1.0)
        h *= 10.0 ** rng.uniform(-200, 200, size=(200, 2, 2))
        h[:, 1, 0] = h[:, 0, 1].conj()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _sorted_spectrum(h)
        assert max(_mp_error(block, vals) for block, vals in zip(h, got)) <= 2.0

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_a_diagonal_block_gives_its_diagonal_exactly(self, rng, dtype):
        diag = np.concatenate([rng.normal(size=(30, 2)) * 10.0 ** rng.uniform(-200, 200, (30, 2)),
                               [[0.0, 0.0], [-0.0, 0.0], [2.5, 2.5], [-1.0, 3.0], [5e-324, 0.0]]])
        h = np.zeros((len(diag), 1, 2, 2), dtype=dtype)  # one block per member
        h[:, 0, 0, 0], h[:, 0, 1, 1] = diag.T
        with warnings.catch_warnings(), np.errstate(divide="raise", invalid="raise",
                                                     over="raise"):
            warnings.simplefilter("error")
            got = _eigvalsh_of_size(h)
        assert np.array_equal(got, np.sort(diag, axis=-1))
        assert got.dtype == np.float64


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

    @pytest.mark.parametrize("copier", [
        copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_copies_are_validated_and_read_only(self, copier):
        stack = global_output_state(np.array([[0.2], [0.7]]), np.array([0.0, 0.5, 2.0]))
        for obj, field in ((stack, "amplitudes"), (mixed_ghz_w(0.3), "data")):
            dup = copier(obj)
            got, want = getattr(dup, field), getattr(obj, field)
            assert type(dup) is type(obj) and dup.layout == obj.layout
            assert not got.flags.writeable
            assert got.shape == want.shape and np.array_equal(got, want)

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
        left = np.linalg.eigvalsh(reduce(state, ["c1", "r1"]).data)[::-1]
        right = np.linalg.eigvalsh(reduce(state, ["c2", "r2", "c3"]).data)[::-1]
        np.testing.assert_allclose(right[:4], left, atol=1e-10)
        np.testing.assert_allclose(right[4:], 0.0, atol=1e-10)


class TestDtypeRule:
    """Real or integer data is held as float64, complex data as complex128,
    and every step on it keeps that dtype."""

    @pytest.mark.parametrize("data, dtype", [
        ([1, 0, 0, 0], np.float64),
        (np.array([0.0, 0.0, 0.0, 1.0], dtype=np.float32), np.float64),
        (np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0), np.float64),
        (np.array([1.0, 0.0, 0.0, 1.0j]) / np.sqrt(2.0), np.complex128),
        (np.array([0.0, 1.0j, 0.0, 0.0], dtype=np.complex64), np.complex128),
    ])
    def test_kept_through_reduce_and_partial_transpose(self, data, dtype):
        state = PureState(("c1", "r1"), data)
        assert state.amplitudes.dtype == dtype
        rho = reduce(state, ["c1", "r1"])
        assert rho.data.dtype == dtype
        assert partial_transpose(rho, ["c1"]).dtype == dtype
        assert DensityMatrix(rho.layout, rho.data).data.dtype == dtype

    def test_model_states_are_real(self):
        state = global_output_state(np.array([[0.2], [0.7]]), np.array([0.0, 0.5, 2.0]))
        assert state.amplitudes.dtype == np.float64
        assert reduce(state, ["c1", "c2", "c3"]).data.dtype == np.float64
        assert mixed_ghz_w(0.4).data.dtype == np.float64

    def test_object_array_of_complex_numbers(self):
        amps = np.array([1.0, 1.0j], dtype=object) / np.sqrt(2.0)
        assert PureState(("c1",), amps).amplitudes.dtype == np.complex128

    @pytest.mark.parametrize("data", ["ab", ["a", "b"], np.array(["1", "x"])])
    def test_strings_refused(self, data):
        with pytest.raises(ValueError):
            PureState(("c1",), data)
        with pytest.raises(ValueError):
            hermitian_eigenvalues(data)


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
