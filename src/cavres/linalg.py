"""Dense complex linear algebra for small qubit registers (dimension <= 128).

Qubit ordering is big-endian: the first label in a layout is the most
significant bit of the computational-basis index.  A state or density
matrix may be a stack, `(..., dim)` or `(..., dim, dim)`, one member per
point: it is validated member by member in one pass, and every function
on it keeps the leading axes.
"""

from dataclasses import dataclass

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
        """Positions of the given labels, sorted in layout order."""
        return sorted(self.position(lab) for lab in set(labels))

    def restrict(self, keep):
        """Sub-layout of the kept labels, preserving this layout's order."""
        keep = set(keep)
        missing = keep - set(self.labels)
        if missing:
            raise ValueError(f"labels {sorted(missing)} not in layout {self.labels}")
        return SystemLayout(lab for lab in self.labels if lab in keep)

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


def _as_complex_array(data, ndim, stack=False):
    # stack allows leading axes in front of the ndim core axes
    arr = np.asarray(data, dtype=complex)
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
    """Unit-norm complex amplitude vector over a SystemLayout, or a stack
    of them along leading axes."""

    layout: SystemLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        layout = self.layout
        if not isinstance(layout, SystemLayout):
            layout = SystemLayout(layout)
        amps = _as_complex_array(self.amplitudes, 1, stack=True)
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

    def __repr__(self):
        return f"PureState(layout={self.layout.labels}, dim={self.layout.dim})"


@dataclass(frozen=True, slots=True, eq=False)
class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace matrix over a
    SystemLayout, or a stack of them along leading axes."""

    layout: SystemLayout
    data: np.ndarray

    def __post_init__(self):
        layout = self.layout
        if not isinstance(layout, SystemLayout):
            layout = SystemLayout(layout)
        mat = _as_complex_array(self.data, 2, stack=True)
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

    def __repr__(self):
        return f"DensityMatrix(layout={self.layout.labels}, dim={self.layout.dim})"


def partial_trace(rho, keep):
    """Trace out every qubit not listed in `keep`.

    The result keeps the input layout's ordering restricted to `keep`.
    """
    keep = list(keep)
    if not keep:
        raise ValueError("keep set must be nonempty")
    sub = rho.layout.restrict(keep)
    pos = rho.layout.positions(keep)
    n = rho.layout.n_qubits
    traced = [i for i in range(n) if i not in pos]
    lead = rho.data.shape[:-2]
    arr = rho.data.reshape(lead + (2,) * (2 * n))
    m = n  # qubits left; their row and column axes are the last 2m
    for i in sorted(traced, reverse=True):
        arr = np.trace(arr, axis1=i - 2 * m, axis2=i - m)
        m -= 1
    return DensityMatrix(sub, arr.reshape(lead + (sub.dim, sub.dim)))


def partial_transpose(rho, subsystem):
    """Transpose the indices of the chosen qubits; returns a plain array.

    The result is Hermitian but generally not positive, so it is returned as
    a raw array rather than a DensityMatrix.
    """
    subsystem = list(subsystem)
    if not subsystem:
        raise ValueError("subsystem must be nonempty")
    pos = rho.layout.positions(subsystem)
    n = rho.layout.n_qubits
    if len(pos) == n:
        raise ValueError("subsystem must be a proper subset of the layout")
    arr = rho.data.reshape(rho.data.shape[:-2] + (2,) * (2 * n))
    for i in pos:
        arr = np.swapaxes(arr, i - 2 * n, i - n)
    return arr.reshape(rho.data.shape)


def hermitian_eigenvalues(h):
    """Real eigenvalues of a Hermitian matrix, sorted descending."""
    mat = _as_complex_array(h, 2)
    _check_hermitian(mat)
    return np.sort(np.linalg.eigvalsh(mat))[::-1]


def trace_norm(m):
    """Trace norm (sum of singular values); sum of |eigenvalues| when Hermitian."""
    mat = _as_complex_array(m, 2)
    return float(np.sum(np.linalg.svd(mat, compute_uv=False)))


def psd_sqrt(m):
    """Positive-semidefinite square root of a PSD Hermitian matrix."""
    mat = _as_complex_array(m, 2)
    _check_hermitian(mat)
    w, v = np.linalg.eigh(mat)
    if w[0] < -PSD_TOL:
        raise ValueError(f"matrix has negative eigenvalue {w[0]}")
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    return (root + root.conj().T) / 2.0
