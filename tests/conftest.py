import itertools
import warnings

import numpy as np
import pytest

from cavres import DensityMatrix, PureState, SystemLayout
from cavres.linalg import _block_spectrum
from cavres.states import CAVITY_LAYOUT, _partner_amplitude


def dense_block_spectrum(h):
    """`_block_spectrum` of a dense Hermitian matrix, or of each member of a
    stack: its flat entries through the identity slots."""
    n = h.shape[-1]
    return _block_spectrum(h.reshape(h.shape[:-2] + (-1,)), np.arange(n * n).reshape(n, n))


def random_unitary(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density_matrix(rng, labels):
    layout = SystemLayout(labels)
    g = rng.normal(size=(layout.dim, layout.dim)) + 1j * rng.normal(size=(layout.dim, layout.dim))
    rho = g @ g.conj().T
    return DensityMatrix(layout, rho / rho.trace())


def random_density_stack(rng, labels, dtype, lead):
    """Random density matrices over the labels, float64 or complex128, stacked
    along the lead axes."""
    layout = SystemLayout(labels)
    g = rng.normal(size=lead + (layout.dim, layout.dim))
    if dtype is complex:
        g = g + 1j * rng.normal(size=g.shape)
    rho = g @ np.swapaxes(g.conj(), -1, -2)
    return DensityMatrix(layout, rho / np.trace(rho, axis1=-2, axis2=-1)[..., None, None])


def random_separable_density_matrix(rng, labels, terms=3):
    """A mixture of products of random one-qubit states; its partial
    transpose on any qubits is again a density matrix."""
    rho = 0.0
    for weight in rng.dirichlet(np.ones(terms)):
        term = np.ones((1, 1))
        for lab in labels:
            term = np.kron(term, random_density_matrix(rng, (lab,)).data)
        rho = rho + weight * term
    return DensityMatrix(SystemLayout(labels), rho)


def tensor_product(a, b):
    """Kronecker product of two states or two matrices of the same kind.

    PureState x PureState and DensityMatrix x DensityMatrix concatenate their
    layouts in argument order; plain arrays must both be vectors or both be
    square matrices. Mixing kinds is rejected.
    """
    if isinstance(a, PureState) and isinstance(b, PureState):
        return PureState(SystemLayout(a.layout.labels + b.layout.labels),
                         np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        return DensityMatrix(SystemLayout(a.layout.labels + b.layout.labels),
                             np.kron(a.data, b.data))
    if isinstance(a, (PureState, DensityMatrix)) or isinstance(b, (PureState, DensityMatrix)):
        raise TypeError(f"cannot tensor {type(a).__name__} with {type(b).__name__}")
    am, bm = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if am.ndim != bm.ndim or am.ndim not in (1, 2):
        raise TypeError("operands must both be vectors or both be matrices")
    return np.kron(am, bm)


def generalized_ghz(a):
    """a|000> + b|111> with b = sqrt(1 - a^2), for a in [0, 1]."""
    amps = np.zeros(8, dtype=complex)
    amps[0b000], amps[0b111] = a, _partner_amplitude(a)
    return PureState(CAVITY_LAYOUT, amps)


def random_pure_state(rng, labels):
    layout = SystemLayout(labels)
    v = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    return PureState(layout, v / np.linalg.norm(v))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


class SympyDamping:
    """The damping model in sympy, written once for the certificates that
    derive the closed forms from it (Lopez et al., PRL 101, 080503, 2008).

    e = exp(-kt), the mixture weight p and the eigenvalue lambda are
    positive symbols.  One pair's Stinespring isometry V, in (c, r) order,
    sends |0> to |00> and |1> to sqrt(e)|10> + sqrt(1 - e)|01>.  Its rows
    with the reservoir fixed are the cavity's Kraus pair K0 = diag(1,
    sqrt(e)), K1 = [[0, sqrt(1 - e)], [0, 0]]; its rows with the cavity
    fixed are the reservoir's, so summing over them traces the cavity out.
    """

    def __init__(self):
        import sympy as sp  # only the certificates pay for the import
        self._sp = sp
        self.e, self.p, self.lam = sp.symbols("e p lambda", positive=True)
        self.isometry = sp.Matrix([[1, 0], [0, sp.sqrt(1 - self.e)],
                                   [0, sp.sqrt(self.e)], [0, 0]])
        ghz = sp.Matrix([1, 0, 0, 0, 0, 0, 0, 1]) / sp.sqrt(2)
        w = sp.Matrix([0, 1, 1, 0, 1, 0, 0, 0]) / sp.sqrt(3)
        self.mixture = self.p * ghz * ghz.T + (1 - self.p) * w * w.T

    def damp(self, rho, keep="cavity"):
        """A real three-qubit cavity state rho after each qubit's damping,
        on the cavities or, with keep="reservoir", on the reservoirs:
        sum of K rho K^T over the triples of one side's Kraus operators."""
        rows = {"cavity": [[0, 2], [1, 3]], "reservoir": [[0, 1], [2, 3]]}[keep]
        ops = [self.isometry.extract(r, [0, 1]) for r in rows]
        out = self._sp.zeros(8, 8)
        for triple in itertools.product(ops, repeat=3):
            k = self._sp.kronecker_product(*triple)
            out += k * rho * k.T
        return out.applyfunc(self._sp.expand)

    def pt_charpoly_factors(self, rho):
        """The characteristic polynomial of the partial transpose of rho on
        c1 (the most significant bit), factored over the rationals in its
        symbols: {degree: [factors as Polys in lambda, leading coefficient
        first, each repeated by its multiplicity]}.  Berkowitz's determinant
        avoids a failing factor sort in Matrix.charpoly."""
        sp = self._sp
        pt = sp.Matrix(8, 8, lambda i, j: rho[(j & 4) | (i & 3), (i & 4) | (j & 3)])
        charpoly = sp.expand((self.lam * sp.eye(8) - pt).det(method="berkowitz"))
        factors = {}
        for factor, mult in sp.factor_list(charpoly, self.lam)[1]:
            poly = sp.Poly(factor, self.lam)
            factors.setdefault(poly.degree(), []).extend([poly] * mult)
        return factors


@pytest.fixture(scope="session")
def damping():
    return SympyDamping()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport():
    # When a @given test fails, hypothesis's report hook imports libcst to
    # write a patch, and that import trips mypy_extensions' TypedDict
    # DeprecationWarning; under the error filter the run would end in
    # INTERNALERROR and drop the falsifying example.  Only the report step
    # is covered: a warning from the test itself is still an error.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "mypy_extensions.TypedDict", DeprecationWarning)
        yield
