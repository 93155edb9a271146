"""Per-layer tracing of cavres from outside the program.

`Tracer.install()` replaces each traced function with a wrapper that records
a span (function, start, end, parent, request) in memory.  A function is
replaced on the module that defines it and on every cavres module that
imported it by name; `DensityMatrix.__init__` is replaced on the class, so
`isinstance` still holds.  Three counters need no span: the boundary-curve
evaluations of the root finders, and the numpy `eigvalsh`/`eigh`/`svd`
calls with the sum of n^3 over them.

Pool workers forked by `cavres surface` inherit the wrappers.  Each worker
starts an empty buffer and writes it to `<spill_dir>/worker-<pid>.npz` when
it exits; `collect()` folds those files in after every request.
"""

import functools
import multiprocessing.util
import os
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

# (metric prefix, module, attribute); the metric is <prefix>.calls / .self_ms
SPANS = (
    ("cli.main", "cavres.cli", "main"),
    ("entanglement.closed_form_pt_eigenvalues", "cavres.entanglement", "closed_form_pt_eigenvalues"),
    ("entanglement.negativity_from_spectrum", "cavres.entanglement", "negativity_from_spectrum"),
    ("entanglement.gghz_negativity_closed", "cavres.entanglement", "gghz_negativity_closed"),
    ("entanglement.negativity", "cavres.entanglement", "negativity"),
    ("entanglement.monogamy_chain", "cavres.entanglement", "monogamy_chain"),
    ("entanglement.wootters_concurrence", "cavres.entanglement", "wootters_concurrence"),
    ("entanglement.pure_bipartite_concurrence_sq", "cavres.entanglement", "pure_bipartite_concurrence_sq"),
    ("states.global_output_state", "cavres.states", "global_output_state"),
    ("states.global_output_state_from_amplitudes", "cavres.states", "global_output_state_from_amplitudes"),
    ("states.reduce", "cavres.states", "reduce"),
    ("linalg.DensityMatrix", "cavres.linalg", "DensityMatrix.__init__"),
    ("linalg.partial_trace", "cavres.linalg", "partial_trace"),
    ("linalg.partial_transpose", "cavres.linalg", "partial_transpose"),
    ("linalg.trace_norm", "cavres.linalg", "trace_norm"),
    ("linalg.hermitian_eigenvalues", "cavres.linalg", "hermitian_eigenvalues"),
    ("linalg.psd_sqrt", "cavres.linalg", "psd_sqrt"),
    ("esd.esd_time", "cavres.esd", "esd_time"),
    ("esd.gghz_esd_time", "cavres.esd", "gghz_esd_time"),
    ("esd.min_esd_point", "cavres.esd", "min_esd_point"),
    ("esd.min_initial_negativity", "cavres.esd", "min_initial_negativity"),
    ("esd.equal_entanglement_range", "cavres.esd", "equal_entanglement_range"),
    ("esd.classify_region", "cavres.esd", "classify_region"),
    ("esd.swap_check", "cavres.esd", "swap_check"),
    ("esd.esb_time_numeric", "cavres.esd", "esb_time_numeric"),
    ("esd.reservoir_negativity", "cavres.esd", "reservoir_negativity"),
)
BOUNDARIES = ("lambda5_boundary", "lambda7_boundary", "gghz_esd_boundary")
LAPACK = ("eigvalsh", "eigh", "svd")
COUNTERS = ("esd.boundary.calls", "linalg.lapack.calls", "linalg.lapack.n3")


class Tracer:
    def __init__(self, spill_dir):
        self.spill_dir = Path(spill_dir)
        self.request = -1
        self._patches = []      # (owner, attribute, original, wrapper)
        self.installed = False
        self._reset_buffer()
        self.calls = np.zeros(len(SPANS), dtype=np.int64)
        self.self_s = np.zeros(len(SPANS))
        self.counted = dict.fromkeys(COUNTERS, 0)
        self.kept = []          # raw spans of the requests chosen by keep()
        self._keep = False
        multiprocessing.util.register_after_fork(self, Tracer._in_worker)

    def _reset_buffer(self):
        self.fids, self.parents, self.starts, self.ends = [], [], [], []
        self.stack = []
        self.counters = dict.fromkeys(COUNTERS, 0)

    # --- wrappers ---------------------------------------------------------

    def _span(self, fid, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, starts = self.stack, self.starts
            idx = len(starts)
            self.fids.append(fid)
            self.parents.append(stack[-1] if stack else -1)
            self.ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[idx] = perf_counter()
                stack.pop()
        return wrapper

    def _boundary(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters["esd.boundary.calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _lapack(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            self.counters["linalg.lapack.calls"] += 1
            self.counters["linalg.lapack.n3"] += int(np.shape(a)[-1]) ** 3
            return fn(a, *args, **kwargs)
        return wrapper

    def _patch_everywhere(self, original, wrapper):
        """Replace `original` on every cavres module that holds it by name."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "cavres" or name.startswith("cavres.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original, wrapper))

    def prepare(self):
        """Build every wrapper once; install() and uninstall() swap them in."""
        for fid, (_, module_name, attr) in enumerate(SPANS):
            module = sys.modules[module_name]
            if attr == "DensityMatrix.__init__":
                cls = module.DensityMatrix
                self._patches.append((cls, "__init__", cls.__init__,
                                      self._span(fid, cls.__init__)))
            else:
                original = getattr(module, attr)
                self._patch_everywhere(original, self._span(fid, original))
        esd = sys.modules["cavres.esd"]
        for attr in BOUNDARIES:
            original = getattr(esd, attr)
            self._patch_everywhere(original, self._boundary(original))
        for attr in LAPACK:
            original = getattr(np.linalg, attr)
            self._patches.append((np.linalg, attr, original, self._lapack(original)))

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self.installed = True

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self.installed = False

    # --- worker processes -------------------------------------------------

    def _in_worker(self):
        if not self.installed:
            return
        self._reset_buffer()
        self.kept = []
        multiprocessing.util.Finalize(None, self._spill, exitpriority=100)

    def _spill(self):
        np.savez(self.spill_dir / f"worker-{os.getpid()}.npz", **self._buffer_arrays(),
                 counters=np.array([self.counters[c] for c in COUNTERS], dtype=np.int64))

    def _buffer_arrays(self):
        return {"fid": np.array(self.fids, dtype=np.int16),
                "parent": np.array(self.parents, dtype=np.int64),
                "start": np.array(self.starts), "end": np.array(self.ends)}

    # --- aggregation ------------------------------------------------------

    def begin(self, request, keep):
        """Start recording one request; `keep` retains its raw spans."""
        self.request, self._keep = request, keep

    def collect(self):
        """Fold the parent's buffer and every worker spill into the totals."""
        buffers = [(os.getpid(), self._buffer_arrays(), self.counters)]
        for path in sorted(self.spill_dir.glob("worker-*.npz")):
            with np.load(path) as data:
                buffers.append((int(path.stem.split("-")[1]),
                                {k: data[k] for k in ("fid", "parent", "start", "end")},
                                dict(zip(COUNTERS, data["counters"].tolist()))))
            path.unlink()
        for pid, buf, counters in buffers:
            self._fold(pid, buf)
            for name, value in counters.items():
                self.counted[name] += value
        self._reset_buffer()

    def _fold(self, pid, buf):
        fid, parent = buf["fid"].astype(np.int64), buf["parent"]
        if fid.size == 0:
            return
        dur = buf["end"] - buf["start"]
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=fid.size)
        self_time = dur - covered
        self.calls += np.bincount(fid, minlength=len(SPANS))
        self.self_s += np.bincount(fid, weights=self_time, minlength=len(SPANS))
        if self._keep:
            self.kept.append({"request": self.request, "pid": pid, **buf,
                              "self": self_time})

    def write(self, path):
        """Write the kept raw spans, one row per span; `names[fid]` names each."""
        kept = self.kept or [{"request": -1, "pid": -1, "self": np.zeros(0),
                              **self._buffer_arrays()}]
        cols = {k: np.concatenate([r[k] for r in kept])
                for k in ("fid", "parent", "start", "end", "self")}
        for k in ("request", "pid"):
            cols[k] = np.concatenate([np.full(r["fid"].size, r[k]) for r in kept])
        np.savez_compressed(path, names=np.array([s[0] for s in SPANS]), **cols)
