"""Entanglement measures and the closed-form results for the evolved states.

Includes the exact eight-eigenvalue spectrum of the partially transposed
cavity state of the evolving GHZ/W mixture, the closed-form negativity of
the evolved generalized GHZ state, Wootters concurrence, and the monogamy
chain that constrains how entanglement distributes between cavities and
reservoirs during dissipation.  The dense measures act on stacks, and a
partial transpose is eigensolved block by block; the grid audits of the
closed forms are the verify suites in cavres.cli.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import _block_spectrum, _item, partial_transpose
from .states import (CAVITY_LAYOUT, RESERVOIR_LAYOUT, _check_probability, _chi_sq,
                     _partner_amplitude, global_output_state, reduce)

ZERO_ENTANGLEMENT = 1e-10  # decision threshold for "no entanglement"

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y).real  # exactly real, so real states stay real


def _floor(value):
    """max(value, 0) elementwise, keeping nan; a scalar comes back a float."""
    return _item(np.where(value < 0.0, 0.0, value))


def negativity(rho, part_a):
    """Negativity across the bipartition part_a | rest: ||rho^T_A||_1 - 1.

    The partial transpose has trace Tr rho, so that is sum(|l| - l) over its
    eigenvalues l: nonnegative term by term, and blind to trace rounding.
    The model's 8x8 ones split into blocks of 3, 2, 2 and 1 rows, or finer.
    """
    spectrum = _block_spectrum(partial_transpose(rho, part_a))
    return _item(np.sum(np.abs(spectrum) - spectrum, axis=-1))


def marginal_negativity(state, qubits):
    """Dense negativity of the first of the given qubits against the others,
    in the marginal of a pure state on them."""
    return negativity(reduce(state, qubits), qubits[:1])


@dataclass(frozen=True)
class PtSpectrum:
    """Eight partial-transpose eigenvalues of the evolved cavity mixture.

    The order matches the closed-form labelling: entries 5 and 7 (1-based)
    are the only ones that can go negative.  The other six are sums and products
    of nonnegative terms at every (p, kt), entries 1 to 6 of e = exp(-kt) and
    o = -expm1(-kt) alone, so each |l| - l is exactly 0 and the negativity is
    -2 lambda5 - 2 lambda7 over the negative ones, rounded once.
    """

    lambdas: tuple

    def __post_init__(self):
        if len(self.lambdas) != 8:
            raise ValueError("spectrum must have exactly 8 eigenvalues")

    @property
    def lambda5(self):
        return self.lambdas[4]

    @property
    def lambda7(self):
        return self.lambdas[6]


def _q5_eo(p, e, o):
    """Q5 (esd._q5) in e and o = 1 - e, with no cancellation as kt -> 0: a
    positive part less a positive part.  lambda5 lambda6 = -e^3 p Q5 / 12."""
    return 3.0 * p * e * (1.0 + o + o * o) - 2.0 * (1.0 - p) * o


def closed_form_pt_eigenvalues(p, kt):
    """Exact eigenvalues of the partial transpose of the evolved cavity state.

    Evaluates the closed forms for the mixture weight p and dimensionless
    time kt, which may be numpy arrays that broadcast against each other;
    each eigenvalue then has the broadcast shape.  Cross-validated against
    the dense eigensolver of the traced seven-qubit state.  lambda1 to lambda6
    are in e and o: lambda6 = e S_a / 12 and, from their product, lambda5 = -e^2
    p Q5 / S_a, S_a = 2 - 2p + 3op + sqrt(D_a) > 0; only lambda7 and lambda8 use u.
    """
    _check_probability(p)
    o = _chi_sq(kt)
    # not **: numpy's array ** rounds unlike libm's pow, and the u-form amplifies it to 1.8e-15
    u, em = np.exp(kt), np.exp(-kt)
    u2, u3, u4 = np.float_power(u, 2), np.float_power(u, 3), np.float_power(u, 4)
    em2, em3, p2 = np.float_power(em, 2), np.float_power(em, 3), np.float_power(p, 2)
    l1 = 0.5 * em3 * p
    l2 = 0.5 * em2 * o * p
    l3 = 0.5 * em * o * o * p
    l4 = em * (4.0 - 4.0 * p + 3.0 * o * o * p) / 6.0
    d_a = ((((36.0 * p2 * em - 108.0 * p2) * em + 93.0 * p2 + 24.0 * p) * em
            + 18.0 * p2 - 36.0 * p) * em + (p + 2.0) * (p + 2.0))
    s_a = 2.0 - 2.0 * p + 3.0 * o * p + np.sqrt(d_a)
    lin_b = 3.0 * (p + np.float_power(1.0 - em, 3) * p
                   + (1.0 - em) * (2.0 - 2.0 * p + em2 * p))
    disc_b = (36.0 * (u4 + p2 - u3 * (p + 2.0) - u * p * (p + 2.0))
              + u2 * (68.0 + 44.0 * p + 41.0 * p2))
    rad_b = em2 * np.sqrt(disc_b)
    l5 = -em2 * p * _q5_eo(p, em, o) / s_a
    l6 = em * s_a / 12.0
    l7 = (lin_b - rad_b) / 12.0
    l8 = (lin_b + rad_b) / 12.0
    return PtSpectrum(lambdas=(l1, l2, l3, l4, l5, l6, l7, l8))


def negativity_from_spectrum(spectrum):
    """Negativity from a partial-transpose spectrum, sum(|l| - l) as in
    negativity, elementwise over an array-valued spectrum: twice the negative
    part, exactly 0 where no eigenvalue is negative, blind to the trace."""
    return _item(sum(abs(lam) - lam for lam in spectrum.lambdas))


def pure_bipartite_concurrence_sq(state, part_a):
    """Squared concurrence of a pure state across part_a | rest.

    Computed as 2(1 - Tr rho_A^2), which equals 4 det(rho_A) when part_a is
    a single qubit.
    """
    return _marginal_concurrence_sq(reduce(state, part_a).data)


def _marginal_concurrence_sq(rho_a):  # of a pure state, from its marginal's array
    purity = np.trace(rho_a @ rho_a, axis1=-2, axis2=-1).real
    return _floor(2.0 * (1.0 - purity))


def _spin_flip_overlap(factor):
    """tau = A^T (sy x sy) A for a factor A A^dagger = rho of two qubits: its
    singular values are Wootters' lambda (Uhlmann, PRA 62, 032307, 2000)."""
    return np.swapaxes(factor, -2, -1) @ _YY @ factor


def wootters_concurrence(rho):
    """Concurrence of a two-qubit DensityMatrix, or of each member of a stack:
    max(0, l1 - l2 - l3 - l4) over the singular values of tau for the factor
    V sqrt(w) of rho = V diag(w) V^dagger, with w below 1e-12 of the largest
    set to 0 as rounding noise.  rho was validated when it was built."""
    mat = rho.data
    if mat.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 two-qubit density matrix, got {mat.shape}")
    w, v = np.linalg.eigh(mat)
    w = np.where(w < 1e-12 * w[..., -1:], 0.0, w)
    lam = np.linalg.svd(_spin_flip_overlap(v * np.sqrt(w)[..., None, :]), compute_uv=False)
    return _floor(lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])


def gghz_negativity_closed(a, kt):
    """Closed-form cavity negativity of the evolved generalized GHZ state.

    The radicand combines the surviving coherence with the diagonal weight
    of the opposite-parity populations; its square root exactly reproduces
    the dense partial-transpose computation.  Zero marks sudden death.
    a and kt may be numpy arrays that broadcast against each other.
    """
    b = _partner_amplitude(a)
    _chi_sq(kt)  # refuses kt below 0, nan included
    u = np.exp(kt)
    radicand = (4.0 * a * a * np.float_power(u, 3)
                + b * b * np.float_power(2.0 - 3.0 * u + u * u, 2))
    value = b * np.exp(-3.0 * kt) * (np.sqrt(radicand) - b * u * (u - 1.0))
    return _floor(value)


@dataclass(frozen=True)
class MonogamyChainRecord:
    """Computable members of the entanglement-distribution chain at (p, kt).

    c_init_sq   squared concurrence of c1 vs (c2 c3 z) at kt = 0
    c_pair_sq   squared concurrence of (c1 r1) vs the rest at kt
    c_c1_sq     squared concurrence of c1 vs the block (c2 r2 c3 r3 z)
    c_r1_sq     squared concurrence of r1 vs the same block
    n_cav_sq    squared negativity of c1 vs (c2 c3) in the cavity state
    n_res_sq    squared negativity of r1 vs (r2 r3) in the reservoir state

    The chain demands c_init_sq = c_pair_sq, c_pair_sq >= c_c1_sq + c_r1_sq,
    and c_c1_sq + c_r1_sq >= n_cav_sq + n_res_sq.  The intermediate link
    through mixed three-qubit concurrences needs a minimization over state
    decompositions and is deliberately not evaluated.
    """

    c_init_sq: float
    c_pair_sq: float
    c_c1_sq: float
    c_r1_sq: float
    n_cav_sq: float
    n_res_sq: float

    @property
    def equality_deviation(self):
        return abs(self.c_init_sq - self.c_pair_sq)

    @property
    def pair_slack(self):
        return self.c_pair_sq - self.c_c1_sq - self.c_r1_sq

    @property
    def tail_slack(self):
        return self.c_c1_sq + self.c_r1_sq - self.n_cav_sq - self.n_res_sq


def _pair_block_concurrences_sq(rho, qubit):
    """(C^2 of qubit | block, C^2 of its partner | block), the block being
    every other qubit, from one eigh of the pair's marginal rho from `reduce`,
    M M^dagger = V diag(w) V^dagger, M the amplitudes with rows the pair in layout order.
    It has rank two at most, so V sqrt(w) over the two largest w, indexed
    (first, second, support), is a factor A A^dagger = rho of the (first,
    support) state, A with rows (first, support) and columns the second; the
    second's side swaps the first two axes.  C^2 = (l1 - l2)^2 over tau's
    values: ||tau||_F^2 - 2 |det tau|."""
    w, v = np.linalg.eigh(rho.data)
    amps = (v[..., 2:] * np.sqrt(_floor(w[..., None, 2:]))).reshape(w.shape[:-1] + (2, 2, 2))
    squares = []
    for side in (amps, np.swapaxes(amps, -3, -2)):
        a = np.swapaxes(side, -2, -1).reshape(w.shape[:-1] + (4, 2))
        tau = _spin_flip_overlap(a)
        det = tau[..., 0, 0] * tau[..., 1, 1] - tau[..., 0, 1] * tau[..., 1, 0]
        squares.append(_floor(np.sum(np.abs(tau) ** 2, axis=(-2, -1)) - 2.0 * np.abs(det)))
    return tuple(squares if rho.layout.labels[0] == qubit else squares[::-1])


def monogamy_chain(p, kt):
    """Evaluate the computable chain members on the evolved global state;
    arrays of p and kt give arrays of members."""
    state0 = global_output_state(p, 0.0)
    state = global_output_state(p, kt)
    c_init = pure_bipartite_concurrence_sq(state0, ["c1"])
    pair = reduce(state, ["c1", "r1"])
    c_pair = _marginal_concurrence_sq(pair.data)
    c_c1, c_r1 = _pair_block_concurrences_sq(pair, "c1")
    n_cav = marginal_negativity(state, CAVITY_LAYOUT.labels)
    n_res = marginal_negativity(state, RESERVOIR_LAYOUT.labels)
    return MonogamyChainRecord(c_init_sq=c_init, c_pair_sq=c_pair, c_c1_sq=c_c1,
                               c_r1_sq=c_r1, n_cav_sq=n_cav * n_cav, n_res_sq=n_res * n_res)
