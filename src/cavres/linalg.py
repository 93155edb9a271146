"""Dense linear algebra for small qubit registers (dimension <= 128).

Real data stays real: real or integer input is held as float64, so the
model's real states, their marginals and their eigensolves run in real
arithmetic, and complex input is held as complex128.

Qubit ordering is big-endian: the first label in a layout is the most
significant bit of the computational-basis index.  A state or density
matrix may be a stack, `(..., dim)` or `(..., dim, dim)`, one member per
point, validated in one pass; every function on it keeps the leading
axes.  A partial transpose is one cached slot map, `_pt_slots`, and
`_block_spectrum` gathers a Hermitian matrix's blocks from any flat array
through slots, skipping exact zeros, 2x2 blocks in closed form: a density
matrix's entries, or the sums of nonzero amplitudes of `states.reduce`.

`PureState` and `DensityMatrix` are the one checked entry for outside data,
since checks on outside input are safety code; the program's own states are
valid by construction and skip the checks through `_derived`.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

QUBIT_LABELS = ("c1", "c2", "c3", "r1", "r2", "r3", "z")

HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-10
TRACE_TOL = 1e-10
NORM_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class SystemLayout:
    """Ordered register of named qubits defining the tensor-factor order."""

    labels: tuple

    def __post_init__(self):
        labels = tuple(self.labels)
        if not labels:
            raise ValueError("layout needs at least one qubit")
        for lab in labels:
            if lab not in QUBIT_LABELS:
                raise ValueError(f"unknown qubit label {lab!r}")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate qubit labels in {labels}")
        object.__setattr__(self, "labels", labels)

    @property
    def n_qubits(self):
        return len(self.labels)

    @property
    def dim(self):
        return 2 ** len(self.labels)

    def position(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"label {label!r} not in layout {self.labels}") from None

    def positions(self, labels):
        """Positions of the given labels, sorted in layout order; the first
        unknown label, in the order given, is the one refused."""
        return sorted({self.position(lab) for lab in labels})

    def restrict(self, keep):
        """Sub-layout of the kept labels, preserving this layout's order."""
        pos = self.positions(keep)
        if not pos:
            raise ValueError("keep set must be nonempty")
        return SystemLayout(self.labels[i] for i in pos)

    def __iter__(self):
        return iter(self.labels)


def _require(ok, value, message):
    """Refuse value unless the comparison ok holds at every entry; a nan
    compares false.  The message names the first entry that fails."""
    if ok.all() if isinstance(ok, np.ndarray) else ok:
        return
    bad = np.broadcast_to(value, np.shape(ok))[np.logical_not(ok)]
    raise ValueError(message.format(bad.flat[0]))


def _item(value):
    """A 0-d result as a float; a stacked one as it is."""
    return value if np.ndim(value) else float(value)


def _as_array(data, ndim, stack=False):
    # float64 for real or integer data, complex128 for complex data; stack
    # allows leading axes in front of the ndim core axes
    arr = np.asarray(data)
    try:
        arr = arr.astype(complex if arr.dtype.kind == "c" else float, copy=False)
    except TypeError:  # an object array holding complex numbers
        arr = arr.astype(complex)
    if arr.ndim < ndim or arr.ndim > ndim and not stack:
        raise ValueError(f"expected a {ndim}-d array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("entries must be finite")
    return arr


def _check_hermitian(mat):
    dev = np.max(np.abs(mat - np.swapaxes(mat.conj(), -1, -2)))
    if dev > HERMITICITY_TOL:
        raise ValueError(f"matrix deviates from Hermitian by {dev}")


@dataclass(frozen=True, slots=True, eq=False)
class PureState:
    """Unit-norm amplitude vector over a SystemLayout, or a stack of them
    along leading axes: float64 for real input, complex128 for complex.
    Input, copies and pickles are checked; the state builders' output is not."""

    layout: SystemLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        layout = SystemLayout(self.layout)
        amps = _as_array(self.amplitudes, 1, stack=True)
        if amps.shape[-1] != layout.dim:
            raise ValueError(f"amplitude vector of length {amps.shape[-1]} does not "
                             f"match layout dimension {layout.dim}")
        norm = np.linalg.norm(amps, axis=-1)
        _require(abs(norm - 1.0) <= NORM_TOL, norm,
                 f"state norm {{}} deviates from 1 beyond {NORM_TOL}")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "amplitudes", amps)

    def __reduce__(self):
        # a copy or an unpickled state is rebuilt, so validated and read-only
        return PureState, (self.layout, self.amplitudes)

    def __repr__(self):
        return f"PureState(layout={self.layout.labels}, dim={self.layout.dim})"


@dataclass(frozen=True, slots=True, eq=False)
class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace matrix over a
    SystemLayout, or a stack of them along leading axes: float64 for real
    input, complex128 for complex.  Data from outside, copies and pickles
    are checked; `reduce`'s marginals and `mixed_ghz_w` are not."""

    layout: SystemLayout
    data: np.ndarray

    def __post_init__(self):
        layout = SystemLayout(self.layout)
        mat = _as_array(self.data, 2, stack=True)
        if mat.shape[-2:] != (layout.dim, layout.dim):
            raise ValueError(f"matrix shape {mat.shape} does not match layout "
                             f"dimension {layout.dim}")
        _check_hermitian(mat)
        tr = np.trace(mat, axis1=-2, axis2=-1).real
        _require(abs(tr - 1.0) <= TRACE_TOL, tr,
                 f"trace {{}} deviates from 1 beyond {TRACE_TOL}")
        lo = np.linalg.eigvalsh(mat)[..., 0]
        _require(lo >= -PSD_TOL, lo, "matrix has negative eigenvalue {}")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "data", mat)

    def __reduce__(self):
        return DensityMatrix, (self.layout, self.data)

    def __repr__(self):
        return f"DensityMatrix(layout={self.layout.labels}, dim={self.layout.dim})"


def _derived(cls, layout, array):
    # a PureState or DensityMatrix over an array valid by construction: read-only
    obj = object.__new__(cls)
    array.setflags(write=False)
    object.__setattr__(obj, "layout", layout)
    object.__setattr__(obj, cls.__slots__[1], array)  # amplitudes or data
    return obj


def partial_trace(rho, keep):
    """Trace out every qubit not listed in `keep`.

    The result keeps the input layout's ordering restricted to `keep`; a
    marginal of a checked DensityMatrix is one by construction, so it is
    built unchecked, as `reduce`'s are.
    """
    sub = rho.layout.restrict(keep)
    pos = rho.layout.positions(sub)
    n = rho.layout.n_qubits
    traced = [i for i in range(n) if i not in pos]
    lead = rho.data.shape[:-2]
    arr = rho.data.reshape(lead + (2,) * (2 * n))
    m = n  # qubits left; their row and column axes are the last 2m
    for i in sorted(traced, reverse=True):
        arr = np.trace(arr, axis1=i - 2 * m, axis2=i - m)
        m -= 1
    return _derived(DensityMatrix, sub, arr.reshape(lead + (sub.dim, sub.dim)))


def partial_transpose(rho, subsystem):
    """Swap the row and column bits of the chosen qubits: `rho.data`'s flat entries
    gathered through `_pt_slots`, a new, writable array shaped like it, Hermitian but
    generally not positive, so a plain array rather than a DensityMatrix."""
    slots = _pt_slots(rho.layout.n_qubits, tuple(rho.layout.positions(subsystem)))
    return rho.data.reshape(rho.data.shape[:-2] + (-1,))[..., slots]


@lru_cache
def _pt_slots(n, pos):
    """The partial transpose on the qubits at pos of an n-qubit matrix, as each entry's
    flat index in that matrix: a read-only (2^n, 2^n) array, the row and column axes of
    pos swapped in the flat indices' 2n qubit axes."""
    if not 0 < len(pos) < n:
        raise ValueError("subsystem must be a nonempty proper subset of the layout")
    axes = [(i + n) % (2 * n) if i % n in pos else i for i in range(2 * n)]
    slots = np.arange(4 ** n).reshape((2,) * 2 * n).transpose(axes).reshape(2 ** n, 2 ** n)
    slots.setflags(write=False)  # the cache hands it to every call
    return slots


def _block_spectrum(flat, slots):
    """Eigenvalues of the Hermitian `flat[..., slots]`, or of each member of a stack, as
    (..., n): the union of the spectra of the connected blocks of the entries nonzero in
    any member (LAPACK's balancing), one `_eigvalsh_of_size` call per size of `_blocks`,
    so one block of 3 or more rows, as a dense matrix, gets eigvalsh's bits."""
    live = (flat.reshape(-1, flat.shape[-1]) != 0).any(axis=0).tobytes()
    parts = [_eigvalsh_of_size(flat[..., g]) for g in _blocks(slots.tobytes(), live)]
    return np.concatenate([v.reshape(flat.shape[:-1] + (-1,)) for v in parts], axis=-1)


def _eigvalsh_of_size(sub):
    """Eigenvalues of a (..., blocks, size, size) stack of Hermitian blocks,
    each member's along its trailing axes.  A 1x1 block is its diagonal, and
    [[a, b], [b*, c]] has min(a, c) - t and max(a, c) + t, t = |b| (|b| /
    (hypot(d, |b|) + d)), d = |a - c| / 2, a form like LAPACK's dlae2: exact
    at b = 0, with no cancellation and no |b|^2.  Larger blocks go to eigvalsh."""
    if sub.shape[-1] > 2:
        return np.linalg.eigvalsh(sub)
    a, c = sub[..., 0, 0].real, sub[..., -1, -1].real
    if sub.shape[-1] == 1:
        return a
    b, d = np.abs(sub[..., 0, 1]), np.abs(a - c) / 2.0
    # the least positive double: the divisor is 0 only where b = 0, and t = 0 there
    t = b * (b / np.maximum(np.hypot(d, b) + d, 5e-324))
    return np.concatenate((np.minimum(a, c) - t, np.maximum(a, c) + t), axis=-1)


@lru_cache
def _blocks(slots, live):
    """The blocks of an n x n slot map linked by the flat entries nonzero in any member,
    both as bytes: one read-only (blocks, size, size) array of slots per size, ascending."""
    slots = np.frombuffer(slots, dtype=int)
    n = round(slots.size ** 0.5)
    slots = slots.reshape(n, n)
    linked = np.frombuffer(live, dtype=bool)[slots]
    reach = np.linalg.matrix_power(linked | linked.T | np.eye(n, dtype=bool), n)
    first = reach.argmax(axis=0).tolist()  # each index's block, named by its least index
    blocks = [[i for i in range(n) if first[i] == b] for b in sorted(set(first))]
    groups = [np.array([b for b in blocks if len(b) == s]) for s in sorted(set(map(len, blocks)))]
    groups = tuple(slots[g[:, :, None], g[:, None, :]] for g in groups)
    for g in groups:
        g.setflags(write=False)  # the cache hands these to every call
    return groups


def hermitian_eigenvalues(h):
    """Real eigenvalues of a Hermitian matrix, sorted descending."""
    mat = _as_array(h, 2)
    _check_hermitian(mat)
    return np.sort(np.linalg.eigvalsh(mat))[::-1]


def trace_norm(m):
    """Trace norm (sum of singular values); sum of |eigenvalues| when Hermitian."""
    mat = _as_array(m, 2)
    return float(np.sum(np.linalg.svd(mat, compute_uv=False)))


def psd_sqrt(m):
    """Positive-semidefinite square root of a PSD Hermitian matrix."""
    mat = _as_array(m, 2)
    _check_hermitian(mat)
    w, v = np.linalg.eigh(mat)
    if w[0] < -PSD_TOL:
        raise ValueError(f"matrix has negative eigenvalue {w[0]}")
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    return (root + root.conj().T) / 2.0
