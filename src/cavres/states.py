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

from .linalg import NORM_TOL, DensityMatrix, PureState, SystemLayout, _derived, _item, _require

CAVITY_LAYOUT = SystemLayout(("c1", "c2", "c3"))
RESERVOIR_LAYOUT = SystemLayout(("r1", "r2", "r3"))
INITIAL_LAYOUT = SystemLayout(("c1", "c2", "c3", "z", "r1", "r2", "r3"))
GLOBAL_LAYOUT = SystemLayout(("c1", "r1", "c2", "r2", "c3", "r3", "z"))
PAIR_LAYOUT = SystemLayout(("c1", "r1", "c2", "r2", "c3", "r3"))


def _basis(n, index):
    v = np.zeros(2 ** n)
    v[index] = 1.0
    return v


def ghz():
    """(|000> + |111>)/sqrt(2) on the cavity register."""
    amps = (_basis(3, 0b000) + _basis(3, 0b111)) / np.sqrt(2.0)
    return _derived(PureState, CAVITY_LAYOUT, amps)


def w():
    """(|001> + |010> + |100>)/sqrt(3) on the cavity register."""
    amps = (_basis(3, 0b001) + _basis(3, 0b010) + _basis(3, 0b100)) / np.sqrt(3.0)
    return _derived(PureState, CAVITY_LAYOUT, amps)


def _partner_amplitude(a):
    _require((a >= 0.0) & (a <= 1.0), a, "amplitude a={} outside [0, 1]")
    return np.sqrt(1.0 - a * a)


def _check_probability(p):
    _require((p >= 0.0) & (p <= 1.0), p, "mix probability p={} outside [0, 1]")


def _check_time(kt):
    _require(kt >= 0.0, kt, "dimensionless time kt={} must be a number at least 0")


def mixed_ghz_w(p):
    """The rank-2 cavity mixture p|GHZ><GHZ| + (1-p)|W><W|, stacked over an array of p."""
    _check_probability(p)
    g = ghz().amplitudes
    v = w().amplitudes
    p = np.asarray(p, dtype=float)[..., None, None]
    rho = p * np.outer(g, g.conj()) + (1.0 - p) * np.outer(v, v.conj())
    return _derived(DensityMatrix, CAVITY_LAYOUT, rho)


def amplitudes(kt):
    """Damping amplitudes (xi, chi) at dimensionless time kt.

    xi = exp(-kt/2) is the surviving amplitude and chi = sqrt(-expm1(-kt)),
    exact as kt -> 0, the leaked one; xi^2 + chi^2 = 1.  Arrays give arrays.
    """
    _check_time(kt)
    return _item(np.exp(-kt / 2.0)), _item(np.sqrt(-np.expm1(-kt)))


def purified_initial(p):
    """Purification of mixed_ghz_w(p) by the ancilla z, reservoirs in vacuum.

    Layout (c1, c2, c3, z, r1, r2, r3).  Tracing out z and the reservoirs
    recovers mixed_ghz_w(p), member by member for an array of p.
    """
    _check_probability(p)
    p = np.asarray(p, dtype=float)[..., None]
    g = np.kron(ghz().amplitudes, _basis(1, 0))
    v = np.kron(w().amplitudes, _basis(1, 1))
    amps = np.kron(np.sqrt(p) * g + np.sqrt(1.0 - p) * v, _basis(3, 0))
    return _derived(PureState, INITIAL_LAYOUT, amps)


def _pair_amplitudes(xi, chi):
    """A damped pair's amplitudes at |01> and |10>, the only nonzero ones of
    its shared single excitation, and their Kronecker cube over three pairs,
    indexed (c1 r1, c2 r2, c3 r3), per member.  Refused unless xi^2 + chi^2
    = 1 in every member, which makes the states built from them unit-norm."""
    q = np.stack(np.broadcast_arrays(chi, xi), axis=-1)
    norm = np.sum(q * q, axis=-1)
    _require(abs(norm - 1.0) <= NORM_TOL, norm,
             f"xi^2 + chi^2 = {{}} deviates from 1 beyond {NORM_TOL}")
    return q, q[..., :, None, None] * q[..., None, :, None] * q[..., None, None, :]


def global_output_state_from_amplitudes(p, xi, chi):
    """Evolved 7-qubit pure state at explicit damping amplitudes (xi, chi).

    Layout (c1, r1, c2, r2, c3, r3, z).  The GHZ branch is tagged by z=0 and
    the W branch by z=1, so tracing out z recovers the evolved mixture.
    """
    _check_probability(p)
    p = np.asarray(p, dtype=float)[..., None]
    q, cube = _pair_amplitudes(xi, chi)
    # written in one pass, indexed (c1 r1, c2 r2, c3 r3, z): z=0 holds
    # sqrt(p/2)(|000000> + ph ph ph), z=1 holds sqrt((1-p)/3) ph in each
    # single-pair slot, ph the pair state chi|01> + xi|10>
    amps = np.zeros(np.broadcast_shapes(p.shape, q.shape)[:-1] + (4, 4, 4, 2))
    g = np.sqrt(p / 2.0)
    amps[..., 0, 0, 0, 0] = g[..., 0]
    amps[..., 1:3, 1:3, 1:3, 0] = g[..., None, None] * cube
    w = np.sqrt((1.0 - p) / 3.0) * q
    amps[..., 0, 0, 1:3, 1] = w
    amps[..., 0, 1:3, 0, 1] = w
    amps[..., 1:3, 0, 0, 1] = w
    return _derived(PureState, GLOBAL_LAYOUT, amps.reshape(amps.shape[:-4] + (-1,)))


def global_output_state(p, kt):
    """Evolved 7-qubit pure state of the GHZ/W mixture at time kt."""
    xi, chi = amplitudes(kt)
    return global_output_state_from_amplitudes(p, xi, chi)


def gghz_output_state_from_amplitudes(a, xi, chi):
    """Evolved 6-qubit generalized-GHZ state at explicit amplitudes."""
    a = np.asarray(a, dtype=float)[..., None, None, None]
    b = _partner_amplitude(a)
    cube = _pair_amplitudes(xi, chi)[1]
    # a|000000> + b ph ph ph in one pass, indexed as in the global state
    amps = np.zeros(np.broadcast_shapes(a.shape, cube.shape)[:-3] + (4, 4, 4))
    amps[..., 0, 0, 0] = a[..., 0, 0, 0]
    amps[..., 1:3, 1:3, 1:3] = b * cube
    return _derived(PureState, PAIR_LAYOUT, amps.reshape(amps.shape[:-3] + (-1,)))


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
    return _derived(DensityMatrix, sub, m @ np.swapaxes(m.conj(), -1, -2))


def reorder(state, new_layout):
    """Permute tensor factors of a pure state into a new label order, unchecked."""
    if not isinstance(new_layout, SystemLayout):
        new_layout = SystemLayout(new_layout)
    if set(new_layout.labels) != set(state.layout.labels):
        raise ValueError(f"new layout {new_layout.labels} is not a permutation "
                         f"of {state.layout.labels}")
    m = _amplitude_matrix(state, [state.layout.position(lab) for lab in new_layout.labels])
    return _derived(PureState, new_layout, m.reshape(m.shape[:-2] + (-1,)))
