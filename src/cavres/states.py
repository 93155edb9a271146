"""Construction of the three-qubit states and their dissipative evolution.

Three cavity qubits (c1, c2, c3) each leak a single excitation into an
independent reservoir qubit (r1, r2, r3).  The elementary damping map sends
|1>_c|0>_r to xi(t)|10> + chi(t)|01> with xi = exp(-kt/2) and
chi = sqrt(-expm1(-kt)), where kt is the dimensionless time (decay rate
times time).  An ancilla qubit z purifies GHZ/W mixtures so every evolved
state is a global pure state; arrays of kt and of p (or a) broadcast into
stacks of them, whose marginals sum nonzero amplitudes in a cached plan.
"""

from functools import lru_cache
from itertools import accumulate, combinations_with_replacement, compress, zip_longest

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
    indexed (c1 r1, c2 r2, c3 r3), per member."""
    q = np.stack(np.broadcast_arrays(chi, xi), axis=-1)
    return q, q[..., :, None, None] * q[..., None, :, None] * q[..., None, None, :]


def _global_state(p, xi, chi):
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


def global_output_state_from_amplitudes(p, xi, chi):
    """Evolved 7-qubit pure state at explicit damping amplitudes (xi, chi).

    Layout (c1, r1, c2, r2, c3, r3, z).  The GHZ branch is tagged by z=0 and
    the W branch by z=1, so tracing out z recovers the evolved mixture.
    The amplitudes come from outside: each member must have xi^2 + chi^2 = 1,
    which makes the state unit-norm.
    """
    sq = chi * chi + xi * xi
    _require(abs(sq - 1) <= NORM_TOL, sq, f"xi^2 + chi^2 = {{}} deviates from 1 beyond {NORM_TOL}")
    return _global_state(p, xi, chi)


def global_output_state(p, kt):
    """Evolved 7-qubit pure state of the GHZ/W mixture at time kt (unit amplitudes, unchecked)."""
    return _global_state(p, *amplitudes(kt))


def _gghz_state(a, xi, chi):
    a = np.asarray(a, dtype=float)[..., None, None, None]
    b = _partner_amplitude(a)
    cube = _pair_amplitudes(xi, chi)[1]
    # a|000000> + b ph ph ph in one pass, indexed as in the global state
    amps = np.zeros(np.broadcast_shapes(a.shape, cube.shape)[:-3] + (4, 4, 4))
    amps[..., 0, 0, 0] = a[..., 0, 0, 0]
    amps[..., 1:3, 1:3, 1:3] = b * cube
    return _derived(PureState, PAIR_LAYOUT, amps.reshape(amps.shape[:-3] + (-1,)))


def gghz_output_state(a, kt):
    """Evolved 6-qubit pure state of a|000000> + b|phi phi phi> at time kt, unchecked."""
    return _gghz_state(a, *amplitudes(kt))


def reduce(state, keep):
    """Reduced density matrix of a pure state on the kept qubits.

    With the kept qubits as rows (in layout order), psi is a matrix M and the
    marginal M M^dagger.  Each entry on or above the diagonal sums, in
    `_plan`'s order, the products of the amplitudes nonzero in any member
    that share their column; a product with an exact zero is exactly 0, so
    every member gets the bits of its own call.  The state was validated
    when it was built, so the marginal is read-only and not checked again.
    """
    keep = tuple(keep)
    amps = state.amplitudes
    sub, left, right, rounds, upper, lower = _plan(
        amps.reshape(-1, amps.shape[-1]).any(axis=0).tobytes(), state.layout, keep)
    terms = amps[..., left] * amps[..., right].conj()
    acc = 0.0 + terms[..., :upper.size]  # sums start at +0.0, as a skipped entry's zero
    for entries, pairs in rounds:
        acc[..., entries] += terms[..., pairs]
    out = np.zeros(amps.shape[:-1] + (sub.dim * sub.dim,), dtype=acc.dtype)
    out[..., lower] = acc.conj()
    out[..., upper] = acc
    out[..., ::sub.dim + 1] = out[..., ::sub.dim + 1].real  # a * conj(a) keeps an FMA residue
    return _derived(DensityMatrix, sub, out.reshape(out.shape[:-1] + (sub.dim, sub.dim)))


@lru_cache
def _plan(pattern, layout, keep):
    """`reduce`'s plan for the nonzero amplitudes of a pattern, as bytes: the
    kept sub-layout; the pairs (left, right) of amplitude indices, round k the
    k-th term, by column, of each entry, entries with more terms first; each
    later round's slices of entries and pairs; the entries' and mirrors' flat indices."""
    sub, n, pos = layout.restrict(keep), layout.n_qubits, layout.positions(keep)
    grid = np.moveaxis(np.arange(2 ** n).reshape((2,) * n), pos, range(len(pos)))
    grid = grid.reshape(sub.dim, -1)  # M's amplitude indices
    terms = {}  # (row, row') -> its pairs, column by column
    for col, live in zip(grid.T.tolist(), np.frombuffer(pattern, dtype=bool)[grid].T.tolist()):
        for i, j in combinations_with_replacement(compress(range(sub.dim), live), 2):
            terms.setdefault((i, j), []).append((col[i], col[j]))
    entries = sorted(terms, key=lambda e: (-len(terms[e]), e))
    rounds = [[t for t in r if t is not None] for r in zip_longest(*(terms[e] for e in entries))]
    ends = list(accumulate(map(len, rounds)))
    e = np.array(entries)
    plan = (*np.array([t for r in rounds for t in r]).T, e @ [sub.dim, 1], e @ [1, sub.dim])
    for x in plan:
        x.setflags(write=False)  # the cache hands these to every call
    slices = tuple((slice(0, b - a), slice(a, b)) for a, b in zip(ends, ends[1:]))
    return sub, *plan[:2], slices, *plan[2:]


def reorder(state, new_layout):
    """Permute tensor factors of a pure state into a new label order, unchecked."""
    new_layout = SystemLayout(new_layout)
    if set(new_layout.labels) != set(state.layout.labels):
        raise ValueError(f"new layout {new_layout.labels} is not a permutation "
                         f"of {state.layout.labels}")
    order = [state.layout.position(lab) for lab in new_layout.labels]
    perm = np.arange(new_layout.dim).reshape((2,) * len(order)).transpose(order).ravel()
    return _derived(PureState, new_layout, state.amplitudes[..., perm])
