"""Dense reference for the benchmark's correctness checks, built apart from cavres.

Only numpy is used.  The cavity state of the three damped qubits comes from
explicit GHZ and W vectors and the amplitude-damping Kraus operators
K0 = diag(1, xi), K1 = [[0, chi], [0, 0]] applied to every qubit, with
xi = exp(-kt/2) and chi = sqrt(1 - exp(-kt)).  The reservoir state is the
same map with xi and chi interchanged.  The monogamy quantities use the
seven-qubit Stinespring dilation of the same map, ordered
(c1, r1, c2, r2, c3, r3, z) with big-endian basis indices.

The eigensolvers are bound here at import, before a traced run wraps
``numpy.linalg``, so the reference never counts as program work.
"""

from itertools import product

import numpy as np
from numpy.linalg import eigh, eigvals, eigvalsh

ZERO_ENTANGLEMENT = 1e-10


def _ket(n, index):
    v = np.zeros(2 ** n)
    v[index] = 1.0
    return v


GHZ = (_ket(3, 0b000) + _ket(3, 0b111)) / np.sqrt(2.0)
W = (_ket(3, 0b001) + _ket(3, 0b010) + _ket(3, 0b100)) / np.sqrt(3.0)


def damping_amplitudes(kt):
    return float(np.exp(-kt / 2.0)), float(np.sqrt(1.0 - np.exp(-kt)))


def mixture(p):
    return p * np.outer(GHZ, GHZ) + (1.0 - p) * np.outer(W, W)


def gghz(a):
    v = a * _ket(3, 0b000) + np.sqrt(1.0 - a * a) * _ket(3, 0b111)
    return np.outer(v, v)


def damp(rho0, kt, reservoir=False):
    """Three-qubit state after amplitude damping every qubit up to time kt."""
    xi, chi = damping_amplitudes(kt)
    if reservoir:
        xi, chi = chi, xi
    kraus = (np.array([[1.0, 0.0], [0.0, xi]]), np.array([[0.0, chi], [0.0, 0.0]]))
    out = np.zeros((8, 8))
    for k1, k2, k3 in product(kraus, repeat=3):
        k = np.kron(np.kron(k1, k2), k3)
        out += k @ rho0 @ k.T
    return out


def pt_first(rho):
    """Partial transpose of a three-qubit matrix on its first qubit."""
    return rho.reshape(2, 4, 2, 4).transpose(2, 1, 0, 3).reshape(8, 8)


def pt_spectrum(rho):
    return np.sort(eigvalsh(pt_first(rho)))


def negativity(rho):
    """||rho^T_1||_1 - 1, the convention of the closed forms."""
    return float(np.sum(np.abs(eigvalsh(pt_first(rho)))) - 1.0)


def mixed_negativity(p, kt, reservoir=False):
    return negativity(damp(mixture(p), kt, reservoir))


def gghz_negativity(a, kt):
    return negativity(damp(gghz(a), kt))


def _bisect(f, lo, hi, xtol=1e-12):
    flo = f(lo)
    if flo * f(hi) > 0.0:
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid * flo > 0.0:
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reservoir_birth_time(p):
    """First kt at which the reservoir negativity exceeds the zero threshold."""
    f = lambda kt: mixed_negativity(p, kt, reservoir=True) - ZERO_ENTANGLEMENT
    hi = 0.5
    while f(hi) <= 0.0:
        hi *= 2.0
    return _bisect(f, 1e-8, hi)


# --- seven-qubit dilation for the monogamy chain --------------------------

def global_state(p, kt):
    """Pure state of (c1, r1, c2, r2, c3, r3, z) as a rank-7 tensor."""
    xi, chi = damping_amplitudes(kt)
    iso = np.zeros((4, 2))
    iso[0b00, 0] = 1.0                      # |0>_c       -> |0_c 0_r>
    iso[0b10, 1], iso[0b01, 1] = xi, chi    # |1>_c       -> xi|1 0> + chi|0 1>
    psi0 = (np.sqrt(p) * np.kron(GHZ, _ket(1, 0))
            + np.sqrt(1.0 - p) * np.kron(W, _ket(1, 1))).reshape(2, 2, 2, 2)
    psi = np.einsum("ai,bj,ck,ijkz->abcz", iso, iso, iso, psi0)
    return psi.reshape((2,) * 7)


LABELS = ("c1", "r1", "c2", "r2", "c3", "r3", "z")


def marginal(psi, keep):
    """Reduced density matrix on `keep`, in the order given."""
    axes = [LABELS.index(lab) for lab in keep]
    rest = [i for i in range(7) if i not in axes]
    m = psi.transpose(axes + rest).reshape(2 ** len(axes), -1)
    return m @ m.T


def _purity_concurrence_sq(rho):
    return max(0.0, 2.0 * (1.0 - float(np.trace(rho @ rho))))


_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y).real


def _wootters(rho4):
    """Two-qubit concurrence from the non-Hermitian product rho (yy) rho* (yy).

    Its eigenvalues are nonnegative; rounding leaves ~1e-17 where they vanish,
    which the square root would lift to ~1e-8, so those count as zero.
    """
    ev = np.sort(eigvals(rho4 @ _YY @ rho4.conj() @ _YY).real)[::-1]
    r = np.sqrt(np.where(ev < 1e-14, 0.0, ev))
    return max(0.0, float(r[0] - r[1] - r[2] - r[3]))


def _qubit_block_concurrence_sq(psi, qubit, partner):
    block = [lab for lab in LABELS if lab not in (qubit, partner)]
    rho = marginal(psi, [qubit] + block)
    weights, vecs = eigh(marginal(psi, block))
    if weights[-2] < 1e-13:
        return 0.0
    iso = np.kron(np.eye(2), vecs[:, -2:])
    c = _wootters(iso.T @ rho @ iso)
    return c * c


def monogamy(p, kt):
    """(equality deviation, pair slack, tail slack) of the chain at (p, kt)."""
    psi = global_state(p, kt)
    c_init = _purity_concurrence_sq(marginal(global_state(p, 0.0), ["c1"]))
    c_pair = _purity_concurrence_sq(marginal(psi, ["c1", "r1"]))
    c_c1 = _qubit_block_concurrence_sq(psi, "c1", "r1")
    c_r1 = _qubit_block_concurrence_sq(psi, "r1", "c1")
    n_cav = max(mixed_negativity(p, kt), 0.0)
    n_res = max(mixed_negativity(p, kt, reservoir=True), 0.0)
    return (abs(c_init - c_pair), c_pair - c_c1 - c_r1,
            c_c1 + c_r1 - n_cav ** 2 - n_res ** 2)
