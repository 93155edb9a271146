"""Entanglement measures and the closed-form results for the evolved states.

Includes the exact eight-eigenvalue spectrum of the partially transposed
cavity state of the evolving GHZ/W mixture, the closed-form negativity of
the evolved generalized GHZ state, Wootters concurrence, and the monogamy
chain that constrains how entanglement distributes between cavities and
reservoirs during dissipation.  The dense measures act on stacks; a grid
audit stacks blocks of whole parameter rows, at most STACK_POINTS points.
"""

from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .linalg import _item, partial_transpose
from .states import (CAVITY_LAYOUT, RESERVOIR_LAYOUT, _amplitude_matrix,
                     _check_probability, _check_time, _partner_amplitude,
                     gghz_output_state, global_output_state, reduce)

ZERO_ENTANGLEMENT = 1e-10  # decision threshold for "no entanglement"
STACK_POINTS = 512  # grid points per dense stack, at most: it bounds peak memory

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y).real  # exactly real, so real states stay real


def _floor(value):
    """max(value, 0) elementwise, keeping nan; a scalar comes back a float."""
    return _item(np.where(value < 0.0, 0.0, value))


def negativity(rho, part_a):
    """Negativity across the bipartition part_a | rest: ||rho^T_A||_1 - 1.

    The partial transpose has trace Tr rho, so that is sum(|l| - l) over its
    eigenvalues l: nonnegative term by term, and blind to trace rounding.
    """
    spectrum = np.linalg.eigvalsh(partial_transpose(rho, part_a))
    return _item(np.sum(np.abs(spectrum) - spectrum, axis=-1))


def marginal_negativity(state, qubits):
    """Dense negativity of the first of the given qubits against the others,
    in the marginal of a pure state on them."""
    return negativity(reduce(state, qubits), qubits[:1])


@dataclass(frozen=True)
class PtSpectrum:
    """Eight partial-transpose eigenvalues of the evolved cavity mixture.

    The order matches the closed-form labelling: entries 5 and 7 (1-based)
    are the only ones that can go negative; the remaining six are sums and
    products of nonnegative terms for every (p, kt), so each of their
    |l| - l is exactly 0 and the negativity is -2 lambda5 - 2 lambda7 over
    the negative ones, rounded once.
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


def closed_form_pt_eigenvalues(p, kt):
    """Exact eigenvalues of the partial transpose of the evolved cavity state.

    Evaluates the closed forms for the mixture weight p and dimensionless
    time kt, which may be numpy arrays that broadcast against each other;
    each eigenvalue then has the broadcast shape.  Cross-validated against
    the dense eigensolver of the traced seven-qubit state; the two
    negative-capable entries drive the sudden-death analysis.
    """
    _check_probability(p)
    _check_time(kt)
    # not **: numpy's array ** rounds unlike libm's pow, and the u-form amplifies it to 1.8e-15
    u = np.exp(kt)
    em = np.exp(-kt)
    u2, u3, u4 = np.float_power(u, 2), np.float_power(u, 3), np.float_power(u, 4)
    em2, em3, p2 = np.float_power(em, 2), np.float_power(em, 3), np.float_power(p, 2)
    l1 = 0.5 * em3 * p
    l2 = 0.5 * em3 * (u - 1.0) * p
    l3 = 0.5 * em3 * np.float_power(u - 1.0, 2) * p
    l4 = em * (4.0 - 4.0 * p + 3.0 * np.float_power(1.0 - em, 2) * p) / 6.0
    lin_a = em * (2.0 - 2.0 * p + 3.0 * (1.0 - em) * p)
    disc_a = (18.0 * u3 * p * (p - 2.0) + 36.0 * p2 - 108.0 * u * p2
              + u4 * np.float_power(p + 2.0, 2) + 3.0 * u2 * p * (8.0 + 31.0 * p))
    lin_b = 3.0 * (p + np.float_power(1.0 - em, 3) * p
                   + (1.0 - em) * (2.0 - 2.0 * p + em2 * p))
    disc_b = (36.0 * (u4 + p2 - u3 * (p + 2.0) - u * p * (p + 2.0))
              + u2 * (68.0 + 44.0 * p + 41.0 * p2))
    rad_a = em3 * np.sqrt(disc_a)
    rad_b = em2 * np.sqrt(disc_b)
    l5 = (lin_a - rad_a) / 12.0
    l6 = (lin_a + rad_a) / 12.0
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
    rho_a = reduce(state, part_a).data
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
    _check_time(kt)
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


def _pair_block_concurrences_sq(state, qubit, partner):
    """(C^2 of qubit | block, C^2 of partner | block), the block being every
    other qubit, from one eigh of the (qubit, partner) marginal M M^dagger =
    V diag(w) V^dagger, M the amplitudes with rows (qubit, partner).  It has
    rank two at most, so V sqrt(w) over the two largest w, indexed (qubit,
    partner, support), is a factor A A^dagger = rho of the (qubit, support)
    state, A with rows (qubit, support) and columns the partner; the partner's
    side swaps the first two axes.  C^2 = (l1 - l2)^2 over tau's values:
    ||tau||_F^2 - 2 |det tau|."""
    m = _amplitude_matrix(state, list(map(state.layout.position, (qubit, partner))))
    w, v = np.linalg.eigh(m @ np.swapaxes(m.conj(), -1, -2))
    amps = (v[..., 2:] * np.sqrt(_floor(w[..., None, 2:]))).reshape(m.shape[:-2] + (2, 2, 2))
    squares = []
    for side in (amps, np.swapaxes(amps, -3, -2)):
        a = np.swapaxes(side, -2, -1).reshape(m.shape[:-2] + (4, 2))
        tau = _spin_flip_overlap(a)
        det = tau[..., 0, 0] * tau[..., 1, 1] - tau[..., 0, 1] * tau[..., 1, 0]
        squares.append(_floor(np.sum(np.abs(tau) ** 2, axis=(-2, -1)) - 2.0 * np.abs(det)))
    return tuple(squares)


def monogamy_chain(p, kt):
    """Evaluate the computable chain members on the evolved global state;
    arrays of p and kt give arrays of members."""
    state0 = global_output_state(p, 0.0)
    state = global_output_state(p, kt)
    c_init = pure_bipartite_concurrence_sq(state0, ["c1"])
    c_pair = pure_bipartite_concurrence_sq(state, ["c1", "r1"])
    c_c1, c_r1 = _pair_block_concurrences_sq(state, "c1", "r1")
    n_cav = marginal_negativity(state, CAVITY_LAYOUT.labels)
    n_res = marginal_negativity(state, RESERVOIR_LAYOUT.labels)
    return MonogamyChainRecord(c_init_sq=c_init, c_pair_sq=c_pair, c_c1_sq=c_c1,
                               c_r1_sq=c_r1, n_cav_sq=n_cav * n_cav, n_res_sq=n_res * n_res)


@dataclass(frozen=True)
class Check:
    """One audit verdict: value against threshold, with the grid point
    where the value was found: (p, kt), (p,) or () when it has none."""

    label: str
    value: float
    threshold: float
    ok: bool
    at: tuple = ()


def grid_worst(values, params, kts=(), pick=np.argmax):
    """The extreme of a param-major grid of values and its (param, kt)
    point, or its (param,) point on a 1-D grid.  pick is np.argmax or
    np.argmin: the first grid point wins a tie, and a nan wins over any
    number."""
    idx = np.unravel_index(pick(values), np.shape(values))
    return float(values[idx]), tuple(float(ax[i]) for ax, i in zip((params, kts), idx))


def _square_grid(steps):
    """The audit axes: steps values of p (or a) in [0, 1] and of kt in [0, 3]."""
    return np.linspace(0.0, 1.0, steps), np.linspace(0.0, 3.0, steps)


def _at_most(label, tolerance, values, ps, kts):
    value, at = grid_worst(values, ps, kts)
    return Check(label, value, tolerance, value <= tolerance, at)  # a nan fails


def _row_blocks(f, params, kts):
    """f(params[i:i + rows, None], kts) over blocks of whole rows, each at most
    STACK_POINTS points or one row, joined along the row axis: a param-major grid."""
    rows = max(1, STACK_POINTS // len(kts))
    return np.concatenate([f(params[i:i + rows, None], kts)
                           for i in range(0, len(params), rows)])


def dense_cavity_negativity(state, params, kts):
    """The dense cavity negativity of state(param, kt) on the params x kts grid."""
    return _row_blocks(lambda p, kt: marginal_negativity(state(p, kt), CAVITY_LAYOUT.labels),
                       params, kts)


def cavity_negativity_check(label, tolerance, closed, state, params, kts):
    """A param-major grid of closed-form cavity negativities against the
    dense negativity of state(param, kt): one Check of the worst deviation."""
    dense = dense_cavity_negativity(state, params, kts)
    return _at_most(label, tolerance, np.abs(dense - closed), params, kts)


def closed_form_grid_deviation(tolerance=1e-10):
    """The closed-form spectrum against the dense eigensolver over a 25x25
    (p, kt) grid: one Check of the worst entrywise deviation."""
    ps, kts = _square_grid(25)
    spec = closed_form_pt_eigenvalues(ps[:, None], kts)
    lam = np.sort(np.stack(spec.lambdas, axis=-1), axis=-1)
    num = _row_blocks(lambda p, kt: np.linalg.eigvalsh(partial_transpose(
        reduce(global_output_state(p, kt), CAVITY_LAYOUT.labels), ["c1"])), ps, kts)
    return [_at_most("spectrum vs eigensolver", tolerance,
                     np.max(np.abs(lam - num), axis=-1), ps, kts)]


def monogamy_grid_audit(tolerance=1e-10):
    """The monogamy chain over a 25x25 (p, kt) grid: the pair equality
    holds to tolerance, and the pair and tail slacks are at least
    -tolerance."""
    ps, kts = _square_grid(25)
    slacks = attrgetter("equality_deviation", "pair_slack", "tail_slack")
    grid = _row_blocks(lambda p, kt: np.stack(slacks(monogamy_chain(p, kt)), axis=-1), ps, kts)
    eq, pair, tail = np.moveaxis(grid, -1, 0)
    checks = [_at_most("pair-equality deviation", tolerance, eq, ps, kts)]
    for label, slack in (("pair bound slack", pair), ("negativity tail slack", tail)):
        value, at = grid_worst(slack, ps, kts, np.argmin)
        checks.append(Check(label, value, -tolerance, value >= -tolerance, at))
    return checks


def gghz_grid_deviation(tolerance=1e-10):
    """The generalized-GHZ closed form against the dense computation over
    a 25x25 (a, kt) grid: one Check of the worst deviation."""
    a_s, kts = _square_grid(25)
    return [cavity_negativity_check("generalized GHZ vs eigensolver", tolerance,
                                    gghz_negativity_closed(a_s[:, None], kts),
                                    gghz_output_state, a_s, kts)]
