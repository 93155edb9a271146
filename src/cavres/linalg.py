"""Dense complex linear algebra for small qubit registers (dimension <= 128).

Qubit ordering is big-endian: the first label in a layout is the most
significant bit of the computational-basis index.
"""

import numpy as np

QUBIT_LABELS = ("c1", "c2", "c3", "r1", "r2", "r3", "z")

HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-10
TRACE_TOL = 1e-10
NORM_TOL = 1e-12


class SystemLayout:
    """Ordered register of named qubits defining the tensor-factor order."""

    __slots__ = ("labels",)

    def __init__(self, labels):
        labels = tuple(labels)
        if not labels:
            raise ValueError("layout needs at least one qubit")
        for lab in labels:
            if lab not in QUBIT_LABELS:
                raise ValueError(f"unknown qubit label {lab!r}")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate qubit labels in {labels}")
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, name, value):
        raise AttributeError("SystemLayout is immutable")

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

    def __add__(self, other):
        return SystemLayout(self.labels + other.labels)

    def __len__(self):
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __contains__(self, label):
        return label in self.labels

    def __eq__(self, other):
        return isinstance(other, SystemLayout) and self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return f"SystemLayout({self.labels!r})"


def _as_complex_array(data, ndim):
    arr = np.asarray(data, dtype=complex)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(float))):
        raise ValueError("entries must be finite")
    return arr


def _check_hermitian(mat):
    dev = np.max(np.abs(mat - mat.conj().T))
    if dev > HERMITICITY_TOL:
        raise ValueError(f"matrix deviates from Hermitian by {dev}")


class PureState:
    """Unit-norm complex amplitude vector over a SystemLayout."""

    __slots__ = ("layout", "amplitudes")

    def __init__(self, layout, amplitudes):
        if not isinstance(layout, SystemLayout):
            layout = SystemLayout(layout)
        amps = _as_complex_array(amplitudes, 1)
        if amps.shape[0] != layout.dim:
            raise ValueError(f"amplitude vector of length {amps.shape[0]} does not "
                             f"match layout dimension {layout.dim}")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "amplitudes", amps)

    def __setattr__(self, name, value):
        raise AttributeError("PureState is immutable")

    @property
    def dim(self):
        return self.layout.dim

    def __repr__(self):
        return f"PureState(layout={self.layout.labels}, dim={self.dim})"


class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace matrix over a SystemLayout."""

    __slots__ = ("layout", "data")

    def __init__(self, layout, data):
        if not isinstance(layout, SystemLayout):
            layout = SystemLayout(layout)
        mat = _as_complex_array(data, 2)
        if mat.shape != (layout.dim, layout.dim):
            raise ValueError(f"matrix shape {mat.shape} does not match layout "
                             f"dimension {layout.dim}")
        _check_hermitian(mat)
        tr = mat.trace().real
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr} deviates from 1 beyond {TRACE_TOL}")
        lo = np.linalg.eigvalsh(mat)[0]
        if lo < -PSD_TOL:
            raise ValueError(f"matrix has negative eigenvalue {lo}")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "data", mat)

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    @property
    def dim(self):
        return self.layout.dim

    def __repr__(self):
        return f"DensityMatrix(layout={self.layout.labels}, dim={self.dim})"


def tensor_product(a, b):
    """Kronecker product of two states or two matrices of the same kind.

    PureState x PureState and DensityMatrix x DensityMatrix concatenate their
    layouts in argument order; plain arrays must both be vectors or both be
    square matrices. Mixing kinds is rejected.
    """
    if isinstance(a, PureState) and isinstance(b, PureState):
        return PureState(a.layout + b.layout, np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        return DensityMatrix(a.layout + b.layout, np.kron(a.data, b.data))
    if isinstance(a, (PureState, DensityMatrix)) or isinstance(b, (PureState, DensityMatrix)):
        raise TypeError(f"cannot tensor {type(a).__name__} with {type(b).__name__}")
    am = _as_complex_array(a, np.asarray(a).ndim)
    bm = _as_complex_array(b, np.asarray(b).ndim)
    if am.ndim != bm.ndim or am.ndim not in (1, 2):
        raise TypeError("operands must both be vectors or both be matrices")
    return np.kron(am, bm)


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
    arr = rho.data.reshape((2,) * (2 * n))
    m = n
    for i in sorted(traced, reverse=True):
        arr = np.trace(arr, axis1=i, axis2=i + m)
        m -= 1
    return DensityMatrix(sub, arr.reshape(sub.dim, sub.dim))


def partial_transpose(rho, subsystem):
    """Transpose the indices of the chosen qubits; returns a plain matrix.

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
    arr = rho.data.reshape((2,) * (2 * n))
    for i in pos:
        arr = np.swapaxes(arr, i, n + i)
    return arr.reshape(rho.dim, rho.dim)


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
