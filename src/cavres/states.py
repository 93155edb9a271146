"""Construction of the three-qubit states and their dissipative evolution.

Three cavity qubits (c1, c2, c3) each leak a single excitation into an
independent reservoir qubit (r1, r2, r3).  The elementary damping map sends
|1>_c|0>_r to xi(t)|10> + chi(t)|01> with xi = exp(-kt/2) and
chi = sqrt(1 - exp(-kt)), where kt is the dimensionless time (decay rate
times time).  An ancilla qubit z purifies GHZ/W mixtures so every evolved
state can be handled as a global pure state.  The evolved states take
arrays of kt and of p (or a) that broadcast, and then come back stacked.
"""

import numpy as np

from .linalg import DensityMatrix, PureState, SystemLayout, _item, _require

CAVITY_LAYOUT = SystemLayout(("c1", "c2", "c3"))
RESERVOIR_LAYOUT = SystemLayout(("r1", "r2", "r3"))
INITIAL_LAYOUT = SystemLayout(("c1", "c2", "c3", "z", "r1", "r2", "r3"))
GLOBAL_LAYOUT = SystemLayout(("c1", "r1", "c2", "r2", "c3", "r3", "z"))
PAIR_LAYOUT = SystemLayout(("c1", "r1", "c2", "r2", "c3", "r3"))


def _basis(n, index):
    v = np.zeros(2 ** n, dtype=complex)
    v[index] = 1.0
    return v


def ghz():
    """(|000> + |111>)/sqrt(2) on the cavity register."""
    amps = (_basis(3, 0b000) + _basis(3, 0b111)) / np.sqrt(2.0)
    return PureState(CAVITY_LAYOUT, amps)


def w():
    """(|001> + |010> + |100>)/sqrt(3) on the cavity register."""
    amps = (_basis(3, 0b001) + _basis(3, 0b010) + _basis(3, 0b100)) / np.sqrt(3.0)
    return PureState(CAVITY_LAYOUT, amps)


def _partner_amplitude(a):
    _require((a >= 0.0) & (a <= 1.0), a, "amplitude a={} outside [0, 1]")
    return np.sqrt(1.0 - a * a)


def _check_probability(p):
    _require((p >= 0.0) & (p <= 1.0), p, "mix probability p={} outside [0, 1]")


def _check_time(kt):
    _require(kt >= 0.0, kt, "dimensionless time kt={} must be a number at least 0")


def mixed_ghz_w(p):
    """The rank-2 cavity mixture p|GHZ><GHZ| + (1-p)|W><W|."""
    _check_probability(p)
    g = ghz().amplitudes
    v = w().amplitudes
    rho = p * np.outer(g, g.conj()) + (1.0 - p) * np.outer(v, v.conj())
    return DensityMatrix(CAVITY_LAYOUT, rho)


def amplitudes(kt):
    """Damping amplitudes (xi, chi) at dimensionless time kt.

    xi = exp(-kt/2) is the surviving-excitation amplitude, chi the leaked
    one; xi^2 + chi^2 = 1 for every kt >= 0.  An array of kt gives arrays.
    """
    _check_time(kt)
    return _item(np.exp(-kt / 2.0)), _item(np.sqrt(1.0 - np.exp(-kt)))


def purified_initial(p):
    """Purification of mixed_ghz_w(p) by the ancilla z, reservoirs in vacuum.

    Layout (c1, c2, c3, z, r1, r2, r3).  Tracing out z and the reservoirs
    recovers mixed_ghz_w(p).
    """
    _check_probability(p)
    g = np.kron(ghz().amplitudes, _basis(1, 0))
    v = np.kron(w().amplitudes, _basis(1, 1))
    amps = np.kron(np.sqrt(p) * g + np.sqrt(1.0 - p) * v, _basis(3, 0))
    return PureState(INITIAL_LAYOUT, amps)


def _pair_state(xi, chi):
    # one cavity-reservoir pair carrying a shared single excitation, per member
    return np.multiply.outer(xi, _basis(2, 0b10)) + np.multiply.outer(chi, _basis(2, 0b01))


def _triple(a, b, c):
    # Kronecker product of three pair vectors per member, by broadcasting
    prod = a[..., :, None, None] * b[..., None, :, None] * c[..., None, None, :]
    return prod.reshape(prod.shape[:-3] + (-1,))


def global_output_state_from_amplitudes(p, xi, chi):
    """Evolved 7-qubit pure state at explicit damping amplitudes (xi, chi).

    Layout (c1, r1, c2, r2, c3, r3, z).  The GHZ branch is tagged by z=0 and
    the W branch by z=1, so tracing out z recovers the evolved mixture.
    """
    _check_probability(p)
    p = np.asarray(p, dtype=float)[..., None]
    ph = _pair_state(xi, chi)
    vac = _basis(2, 0)
    ghz_branch = _basis(6, 0) + _triple(ph, ph, ph)
    w_branch = _triple(vac, vac, ph) + _triple(vac, ph, vac) + _triple(ph, vac, vac)
    # z is the last, least significant qubit: interleave the two branches
    amps = np.stack([np.sqrt(p / 2.0) * ghz_branch,
                     np.sqrt((1.0 - p) / 3.0) * w_branch], axis=-1)
    return PureState(GLOBAL_LAYOUT, amps.reshape(amps.shape[:-2] + (-1,)))


def global_output_state(p, kt):
    """Evolved 7-qubit pure state of the GHZ/W mixture at time kt."""
    xi, chi = amplitudes(kt)
    return global_output_state_from_amplitudes(p, xi, chi)


def gghz_output_state_from_amplitudes(a, xi, chi):
    """Evolved 6-qubit generalized-GHZ state at explicit amplitudes."""
    a = np.asarray(a, dtype=float)[..., None]
    b = _partner_amplitude(a)
    ph = _pair_state(xi, chi)
    amps = a * _basis(6, 0) + b * _triple(ph, ph, ph)
    return PureState(PAIR_LAYOUT, amps)


def gghz_output_state(a, kt):
    """Evolved 6-qubit pure state of a|000000> + b|phi phi phi> at time kt."""
    xi, chi = amplitudes(kt)
    return gghz_output_state_from_amplitudes(a, xi, chi)


def _amplitude_matrix(state, pos):
    # psi as a matrix per member: rows the qubits at positions `pos`, in
    # that order; columns the other qubits, in layout order
    n = state.layout.n_qubits
    lead = state.amplitudes.shape[:-1]
    arr = np.moveaxis(state.amplitudes.reshape(lead + (2,) * n),
                      [i - n for i in pos], range(-n, len(pos) - n))
    return arr.reshape(lead + (2 ** len(pos), -1))


def reduce(state, keep):
    """Reduced density matrix of a pure state on the kept qubits.

    Contracts the amplitudes directly: with the kept qubits as rows (in
    layout order) and the others as columns, psi is a matrix M and the
    marginal is M M^dagger, member by member for a stacked state; no
    full-size |psi><psi| is formed.  The state was validated when it was
    built, so its Gram marginal is returned read-only and not checked again.
    """
    keep = list(keep)
    if not keep:
        raise ValueError("keep set must be nonempty")
    sub = state.layout.restrict(keep)
    m = _amplitude_matrix(state, state.layout.positions(keep))
    return DensityMatrix._derived(sub, m @ np.swapaxes(m.conj(), -1, -2))


def reorder(state, new_layout):
    """Permute tensor factors of a pure state into a new label order."""
    if not isinstance(new_layout, SystemLayout):
        new_layout = SystemLayout(new_layout)
    if set(new_layout.labels) != set(state.layout.labels):
        raise ValueError(f"new layout {new_layout.labels} is not a permutation "
                         f"of {state.layout.labels}")
    n = state.layout.n_qubits
    perm = [state.layout.position(lab) - n for lab in new_layout.labels]
    lead = state.amplitudes.shape[:-1]
    amps = np.moveaxis(state.amplitudes.reshape(lead + (2,) * n), perm, range(-n, 0))
    return PureState(new_layout, amps.reshape(lead + (-1,)))
