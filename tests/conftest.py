import numpy as np
import pytest

from cavres import DensityMatrix, PureState, SystemLayout


def random_unitary(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density_matrix(rng, labels):
    layout = SystemLayout(labels)
    g = rng.normal(size=(layout.dim, layout.dim)) + 1j * rng.normal(size=(layout.dim, layout.dim))
    rho = g @ g.conj().T
    return DensityMatrix(layout, rho / rho.trace())


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


def random_pure_state(rng, labels):
    layout = SystemLayout(labels)
    v = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    return PureState(layout, v / np.linalg.norm(v))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
