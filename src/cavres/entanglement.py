"""Entanglement measures and the closed-form results for the evolved states.

Includes the exact eight-eigenvalue spectrum of the partially transposed
cavity state of the evolving GHZ/W mixture, the closed-form negativity of
the evolved generalized GHZ state, Wootters concurrence, and the monogamy
chain that constrains how entanglement distributes between cavities and
reservoirs during dissipation.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import (DensityMatrix, hermitian_eigenvalues, partial_transpose,
                     psd_sqrt, trace_norm)
from .states import (_amplitude_matrix, _check_probability, _check_time,
                     _partner_amplitude, gghz_output_state, global_output_state,
                     reduce)

NEGATIVITY_CLAMP = 1e-12   # float noise below this reports as exactly 0
ZERO_ENTANGLEMENT = 1e-10  # decision threshold for "no entanglement"

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


def _pow(x, n):
    """x ** n by the scalar pow at every entry, so that an array cell
    carries the same bits as a scalar call: numpy's vectorised pow rounds
    differently, and the closed forms in u amplify that to 1.8e-15."""
    if isinstance(x, np.ndarray):
        return np.array([v ** n for v in x.flat]).reshape(x.shape)
    return x ** n


def _floor(value):
    """max(value, 0) elementwise, keeping nan; a scalar comes back a float."""
    value = np.where(value < 0.0, 0.0, value)
    return value if value.ndim else float(value)


def _clamp(value):
    low = value < -NEGATIVITY_CLAMP
    if low.any() if isinstance(low, np.ndarray) else low:
        raise ValueError(f"negativity {np.min(value)} below the noise clamp")
    return _floor(value)


def negativity(rho, part_a):
    """Negativity across the bipartition part_a | rest: ||rho^T_A||_1 - 1."""
    return _clamp(trace_norm(partial_transpose(rho, part_a)) - 1.0)


@dataclass(frozen=True)
class PtSpectrum:
    """Eight partial-transpose eigenvalues of the evolved cavity mixture.

    The order matches the closed-form labelling: entries 5 and 7 (1-based)
    are the only ones that can go negative; the remaining six stay
    nonnegative for every (p, kt).
    """

    lambdas: tuple
    p: float
    kt: float

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
    u = np.exp(kt)
    em = np.exp(-kt)
    l1 = 0.5 * _pow(em, 3) * p
    l2 = 0.5 * _pow(em, 3) * (u - 1.0) * p
    l3 = 0.5 * _pow(em, 3) * _pow(u - 1.0, 2) * p
    l4 = em * (4.0 - 4.0 * p + 3.0 * _pow(1.0 - em, 2) * p) / 6.0
    lin_a = em * (2.0 - 2.0 * p + 3.0 * (1.0 - em) * p)
    disc_a = (18.0 * _pow(u, 3) * p * (p - 2.0) + 36.0 * _pow(p, 2)
              - 108.0 * u * _pow(p, 2) + _pow(u, 4) * _pow(p + 2.0, 2)
              + 3.0 * _pow(u, 2) * p * (8.0 + 31.0 * p))
    lin_b = 3.0 * (p + _pow(1.0 - em, 3) * p
                   + (1.0 - em) * (2.0 - 2.0 * p + _pow(em, 2) * p))
    disc_b = (36.0 * (_pow(u, 4) + _pow(p, 2) - _pow(u, 3) * (p + 2.0) - u * p * (p + 2.0))
              + _pow(u, 2) * (68.0 + 44.0 * p + 41.0 * _pow(p, 2)))
    rad_a = _pow(em, 3) * np.sqrt(np.maximum(disc_a, 0.0))
    rad_b = _pow(em, 2) * np.sqrt(np.maximum(disc_b, 0.0))
    l5 = (lin_a - rad_a) / 12.0
    l6 = (lin_a + rad_a) / 12.0
    l7 = (lin_b - rad_b) / 12.0
    l8 = (lin_b + rad_b) / 12.0
    return PtSpectrum(lambdas=(l1, l2, l3, l4, l5, l6, l7, l8), p=p, kt=kt)


def negativity_from_spectrum(spectrum):
    """Negativity from a partial-transpose spectrum: sum |lambda_i| - 1,
    elementwise over an array-valued spectrum."""
    m = [abs(lam) for lam in spectrum.lambdas]  # summed pairwise, as np.sum does
    return _clamp(((m[0] + m[1]) + (m[2] + m[3])) + ((m[4] + m[5]) + (m[6] + m[7])) - 1.0)


def pure_bipartite_concurrence_sq(state, part_a):
    """Squared concurrence of a pure state across part_a | rest.

    Computed as 2(1 - Tr rho_A^2), which equals 4 det(rho_A) when part_a is
    a single qubit.
    """
    rho_a = reduce(state, part_a).data
    purity = float(np.trace(rho_a @ rho_a).real)
    return max(0.0, 2.0 * (1.0 - purity))


def wootters_concurrence(rho):
    """Concurrence of a two-qubit density matrix.

    Uses max(0, sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4)) with l_i the
    descending eigenvalues of rho (sy x sy) rho* (sy x sy), obtained from
    the Hermitian product sqrt(rho) rho~ sqrt(rho) which shares them.
    """
    mat = rho.data if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    if mat.shape != (4, 4):
        raise ValueError(f"expected a 4x4 two-qubit density matrix, got {mat.shape}")
    flipped = _YY @ mat.conj() @ _YY
    root = psd_sqrt(mat)
    ev = hermitian_eigenvalues(root @ flipped @ root)
    # eigenvalues of the product are >= 0 up to rounding; drop the noise so
    # it cannot leak into the square roots
    ev = np.where(ev < 1e-14, 0.0, ev)
    r = np.sqrt(ev)
    return max(0.0, float(r[0] - r[1] - r[2] - r[3]))


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
    radicand = 4.0 * a * a * _pow(u, 3) + b * b * _pow(2.0 - 3.0 * u + u * u, 2)
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

    p: float
    kt: float
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


def _qubit_block_concurrence_sq(state, qubit, partner):
    """Squared concurrence between one qubit and the block of every qubit
    but it and its partner.

    The global state is supported on a 2x2 product of subspaces across the
    (qubit, partner) | block cut, so the block marginal has rank at most
    two.  The amplitudes, arranged as a matrix M with rows (qubit, partner)
    and columns the block, give that support by SVD: M = U S V^dagger, and
    the top two right singular vectors span it.  Compressing the block onto
    them (M V = U S) and tracing out the partner leaves an honest two-qubit
    state whose Wootters concurrence is exact; no decomposition search is
    needed.
    """
    m = _amplitude_matrix(state, [state.layout.position(qubit),
                                  state.layout.position(partner)])
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    if s[1] ** 2 < 1e-13:
        return 0.0  # block effectively pure: product across the cut
    amps = (u[:, :2] * s[:2]).reshape(2, 2, 2)  # (qubit, partner, support)
    compressed = np.einsum("apj,bpk->ajbk", amps, amps.conj()).reshape(4, 4)
    # the support qubit carries the partner's label
    conc = wootters_concurrence(DensityMatrix((qubit, partner), compressed))
    return conc * conc


def monogamy_chain(p, kt):
    """Evaluate the computable chain members on the evolved global state."""
    _check_probability(p)
    _check_time(kt)
    state0 = global_output_state(p, 0.0)
    state = global_output_state(p, kt)
    c_init = pure_bipartite_concurrence_sq(state0, ["c1"])
    c_pair = pure_bipartite_concurrence_sq(state, ["c1", "r1"])
    c_c1 = _qubit_block_concurrence_sq(state, "c1", "r1")
    c_r1 = _qubit_block_concurrence_sq(state, "r1", "c1")
    cav = reduce(state, ["c1", "c2", "c3"])
    res = reduce(state, ["r1", "r2", "r3"])
    n_cav = negativity(cav, ["c1"])
    n_res = negativity(res, ["r1"])
    return MonogamyChainRecord(p=p, kt=kt,
                               c_init_sq=c_init, c_pair_sq=c_pair,
                               c_c1_sq=c_c1, c_r1_sq=c_r1,
                               n_cav_sq=n_cav * n_cav, n_res_sq=n_res * n_res)


def grid_worst(values, params, kts, pick=np.argmax):
    """The extreme of a param-major grid of values and its (param, kt)
    point.  pick is np.argmax or np.argmin: the first grid point wins a
    tie, and a nan wins over any number."""
    i, j = np.unravel_index(pick(values), np.shape(values))
    return float(values[i, j]), (float(params[i]), float(kts[j]))


def _grid_axes(p_steps, kt_steps, kt_max):
    return np.linspace(0.0, 1.0, p_steps), np.linspace(0.0, kt_max, kt_steps)


def cavity_negativity(state):
    """Dense negativity of c1 versus (c2 c3) in the cavity marginal."""
    return negativity(reduce(state, ["c1", "c2", "c3"]), ["c1"])


def closed_form_grid_deviation(p_steps=25, kt_steps=25, kt_max=3.0):
    """Worst disagreement between the closed-form spectrum and the dense
    eigensolver over a (p, kt) grid; returns (max deviation, worst point)."""
    ps, kts = _grid_axes(p_steps, kt_steps, kt_max)
    spec = closed_form_pt_eigenvalues(ps[:, None], kts)
    lam = np.sort(np.stack(spec.lambdas, axis=-1), axis=-1)
    num = np.array([[np.sort(hermitian_eigenvalues(partial_transpose(
        reduce(global_output_state(p, kt), ["c1", "c2", "c3"]), ["c1"])))
        for kt in kts] for p in ps])
    return grid_worst(np.max(np.abs(lam - num), axis=-1), ps, kts)


def monogamy_grid_audit(p_steps=25, kt_steps=25, kt_max=3.0):
    """Chain statistics over a grid: (max equality deviation, min pair slack,
    min tail slack, worst points for each)."""
    ps, kts = _grid_axes(p_steps, kt_steps, kt_max)
    recs = [[monogamy_chain(p, kt) for kt in kts] for p in ps]

    def worst(member, pick):
        values = np.array([[getattr(rec, member) for rec in row] for row in recs])
        return grid_worst(values, ps, kts, pick)

    return {"max_equality_deviation": worst("equality_deviation", np.argmax),
            "min_pair_slack": worst("pair_slack", np.argmin),
            "min_tail_slack": worst("tail_slack", np.argmin)}


def gghz_grid_deviation(a_steps=25, kt_steps=25, kt_max=3.0):
    """Worst disagreement between the generalized-GHZ closed form and the
    dense computation over an (a, kt) grid."""
    a_s, kts = _grid_axes(a_steps, kt_steps, kt_max)
    num = np.array([[cavity_negativity(gghz_output_state(a, kt)) for kt in kts]
                    for a in a_s])
    return grid_worst(np.abs(num - gghz_negativity_closed(a_s[:, None], kts)), a_s, kts)
