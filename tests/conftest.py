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


def random_pure_state(rng, labels):
    layout = SystemLayout(labels)
    v = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    return PureState(layout, v / np.linalg.norm(v))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
