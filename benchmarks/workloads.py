"""The benchmark's three workloads: their seeded requests and output checks.

A request is one `cavres` command line.  Each check raises `CheckFailed`
when an output is wrong; expected values come from `reference`, never from
cavres.  Where a check needs the program's own value at a printed point
(the closed-form spectrum, a region label, a death time), cavres provides
the value under test and the reference the value it must match.  Those
functions are bound at import, before a traced run wraps them, so checks
never count as program work.
"""

import hashlib
import io
import json
import math
import re
from dataclasses import dataclass, field

import numpy as np
from cavres.entanglement import closed_form_pt_eigenvalues
from cavres.esd import RegionClass, classify_region, esd_time
from cavres.states import global_output_state_from_amplitudes, reduce

import reference as ref

ZERO = ref.ZERO_ENTANGLEMENT


class CheckFailed(Exception):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


@dataclass
class Request:
    kind: str
    argv: list
    units: int
    check: object                 # check(request, result) -> None or raises
    known_fault: str = None       # fails every time until this fault is mended
    params: dict = field(default_factory=dict)

    @property
    def key(self):
        return " ".join(self.argv)


@dataclass
class Result:
    rc: int
    stdout: str
    stderr: str
    payload: bytes = None         # the file a surface request wrote

    def digest(self):
        h = hashlib.sha256(f"{self.rc}\0{self.stdout}\0{self.stderr}\0".encode())
        if self.payload is not None:
            h.update(self.payload)
        return h.hexdigest()


def require_success(result):
    require(result.rc == 0, f"exit code {result.rc}: {result.stderr.strip()[:200]}")


def _close(value, expected, rel=2e-3, abs_tol=1e-12):
    return abs(value - expected) <= abs_tol + rel * abs(expected)


def _snap(value, grid, what):
    """Grid point the printed (4 significant digits) coordinate stands for."""
    i = int(np.argmin(np.abs(grid - value)))
    require(abs(grid[i] - value) <= 5e-4 * max(1.0, abs(value)),
            f"{what}={value} is not a point of the suite's grid")
    return float(grid[i])


# --- surface ----------------------------------------------------------------

SURFACE_STEPS = {"mixed": (101, 301), "gghz": (101, 301)}
LONG_TIME = ("--param-steps", "21", "--kt-min", "0", "--kt-max", "250", "--kt-steps", "251")
LONG_TIME_FAULT = ("u = exp(kt) overflows in the closed forms from kt ~ 177: "
                   "cells are written as inf and nan and the command exits 0")
SAMPLES_PER_SURFACE = 24
MONOTONE_SLACK = 1e-12   # the program's negativity noise clamp


def surface_requests(rng, out_dir):
    reqs = []
    for family in ("mixed", "gghz"):
        n_param, n_kt = SURFACE_STEPS[family]
        for fmt in ("csv", "json"):
            kt_max = round(float(rng.uniform(2.5, 4.0)), 4)
            argv = ["surface", "--family", family, "--param-steps", str(n_param),
                    "--kt-min", "0", "--kt-max", repr(kt_max), "--kt-steps", str(n_kt),
                    "--format", fmt, "--out", f"{out_dir}/{family}.{fmt}"]
            reqs.append(Request(f"surface-{family}-{fmt}", argv, n_param * n_kt,
                                check_surface, params={
                                    "family": family, "format": fmt, "kt_max": kt_max,
                                    "shape": (n_param, n_kt),
                                    "sample_seed": int(rng.integers(2 ** 31))}))
        argv = ["surface", "--family", family, *LONG_TIME, "--out", f"{out_dir}/{family}-long.csv"]
        reqs.append(Request(f"surface-{family}-long", argv, 21 * 251, check_surface,
                            known_fault=LONG_TIME_FAULT, params={
                                "family": family, "format": "csv", "kt_max": 250.0,
                                "shape": (21, 251), "sample_seed": 0}))
    return reqs


def parse_surface(req, payload):
    require(payload is not None, "no output file was written")
    try:
        return _parse_surface(req, payload.decode())
    except (ValueError, KeyError, TypeError) as exc:   # malformed CSV or JSON
        raise CheckFailed(f"unreadable output file: {exc}") from None


def _parse_surface(req, text):
    n_param, n_kt = req.params["shape"]
    if req.params["format"] == "csv":
        header, _, body = text.partition("\n")
        require(header == "param,kt,negativity", f"bad CSV header {header!r}")
        rows = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    else:
        doc = json.loads(text)
        meta = doc["meta"]
        require(meta["family"] == req.params["family"], "JSON meta names another family")
        require(meta["param_range"] == [0.0, 1.0, n_param]
                and meta["kt_range"] == [0.0, req.params["kt_max"], n_kt],
                "JSON meta ranges differ from the request")
        rows = np.array(doc["rows"], dtype=float).reshape(-1, 3)
    require(rows.shape == (n_param * n_kt, 3), f"{rows.shape[0]} rows, expected {n_param * n_kt}")
    return rows


def check_surface(req, result, rows=None):
    """Grid, finiteness, monotone decay in kt, and a seeded dense sample."""
    require_success(result)
    n_param, n_kt = req.params["shape"]
    require(result.stdout.strip().startswith(f"wrote {n_param * n_kt} rows"),
            f"unexpected report {result.stdout.strip()[:80]!r}")
    if rows is None:
        rows = parse_surface(req, result.payload)
    params = np.linspace(0.0, 1.0, n_param)
    kts = np.linspace(0.0, req.params["kt_max"], n_kt)
    grid = rows.reshape(n_param, n_kt, 3)
    require(np.allclose(grid[:, :, 0], params[:, None], rtol=1e-11, atol=1e-12)
            and np.allclose(grid[:, :, 1], kts[None, :], rtol=1e-11, atol=1e-12),
            "cells are not on the requested (param, kt) grid")
    neg = grid[:, :, 2]
    bad = ~np.isfinite(neg)
    if bad.any():
        raise CheckFailed(f"{int(bad.sum())} cells are not finite, "
                          f"the first at kt={grid[:, :, 1][bad].min():g}")
    require(neg.min() >= 0.0, f"negative cell {neg.min():.3e}")
    rise = np.diff(neg, axis=1)
    require(rise.max() <= MONOTONE_SLACK,
            f"negativity rises by {rise.max():.3e} along kt: local damping cannot raise it")
    pick = np.random.default_rng(req.params["sample_seed"])
    dense = ref.mixed_negativity if req.params["family"] == "mixed" else ref.gghz_negativity
    for flat in pick.choice(neg.size, size=SAMPLES_PER_SURFACE, replace=False):
        param, kt, value = rows[flat]
        expected = dense(param, kt)
        require(abs(value - expected) <= 1e-10,
                f"cell (param={param:g}, kt={kt:g}) = {value!r}, dense reference {expected!r}")


# --- oracle -----------------------------------------------------------------

# suite -> oracle grid points; the grids are the suites' documented defaults
ORACLE_SUITES = {"closedform": 25 * 25, "regions": 40 * 40, "swap": 20 * 20,
                 "esb": 10, "monogamy": 25 * 25}
TOLERANCES = {"closedform": 1e-10, "monogamy": 1e-10, "swap": 1e-12, "esb": 1e-3,
              "regions": 1e-10}
CHECK_LINES = {"closedform": 1, "regions": 1, "swap": 1, "esb": 1, "monogamy": 3}

_NUM = r"[-+0-9.eE]+|nan|inf"
_LINE = re.compile(rf"^\[(PASS|FAIL)\] (\w+): (.*): value ({_NUM}) vs ({_NUM})$")
_POINT = re.compile(rf"worst at \(p=({_NUM}), kt=({_NUM})\)")


def oracle_requests(rng):
    order = list(ORACLE_SUITES)
    rng.shuffle(order)
    return [Request(f"verify-{s}", ["verify", s], ORACLE_SUITES[s], check_verify,
                    params={"suite": s}) for s in order]


def parse_verify(stdout):
    checks = []
    for line in stdout.splitlines():
        m = _LINE.match(line)
        if m:
            checks.append({"status": m[1], "suite": m[2], "desc": m[3],
                           "value": float(m[4]), "threshold": float(m[5])})
    return checks


def check_verify(req, result):
    """Every suite passes, and each printed worst value is recomputed densely."""
    suite = req.params["suite"]
    require_success(result)
    checks = parse_verify(result.stdout)
    require(len(checks) == CHECK_LINES[suite],
            f"{len(checks)} check lines, expected {CHECK_LINES[suite]}")
    for c in checks:
        require(c["status"] == "PASS" and c["suite"] == suite, f"check not passed: {c}")
    RECOMPUTE[suite](checks)


def _worst_point(desc, p_grid, kt_grid):
    m = _POINT.search(desc)
    require(m is not None, f"no worst point in {desc!r}")
    return _snap(float(m[1]), p_grid, "p"), _snap(float(m[2]), kt_grid, "kt")


def _recompute_closedform(checks):
    (c,) = checks
    p, kt = _worst_point(c["desc"], np.linspace(0, 1, 25), np.linspace(0, 3, 25))
    program = np.sort(closed_form_pt_eigenvalues(p, kt).lambdas)
    dev = float(np.max(np.abs(program - ref.pt_spectrum(ref.damp(ref.mixture(p), kt)))))
    require(dev <= TOLERANCES["closedform"] and abs(dev - c["value"]) <= 1e-12,
            f"closed form vs dense reference at (p={p}, kt={kt}) is {dev:.3e}, "
            f"printed {c['value']:.3e}")


def _recompute_swap(checks):
    (c,) = checks
    p, kt = _worst_point(c["desc"], np.linspace(0, 1, 20), np.linspace(0, 3, 20))
    xi, chi = ref.damping_amplitudes(kt)
    expected = ref.damp(ref.mixture(p), kt, reservoir=True)
    res = reduce(global_output_state_from_amplitudes(p, xi, chi), ["r1", "r2", "r3"]).data
    cav = reduce(global_output_state_from_amplitudes(p, chi, xi), ["c1", "c2", "c3"]).data
    dev = max(float(np.max(np.abs(res - expected))), float(np.max(np.abs(cav - expected))))
    require(dev <= TOLERANCES["swap"] and c["value"] <= TOLERANCES["swap"],
            f"reservoir state at (p={p}, kt={kt}) is {dev:.3e} from the dense reference")


def _recompute_esb(checks):
    (c,) = checks
    m = re.search(rf"worst at p=({_NUM})", c["desc"])
    require(m is not None, f"no worst point in {c['desc']!r}")
    p = _snap(float(m[1]), np.linspace(0.30, 0.95, 10), "p")
    formula = -math.log(1.0 - math.exp(-esd_time(p)))
    gap = abs(formula - ref.reservoir_birth_time(p))
    require(gap <= TOLERANCES["esb"] and abs(gap - c["value"]) <= 5e-6,
            f"birth-time gap at p={p} is {gap:.3e} against the dense reference, "
            f"printed {c['value']:.3e}")


def _recompute_monogamy(checks):
    grid = np.linspace(0, 1, 25), np.linspace(0, 3, 25)
    for index, c in enumerate(checks):
        p, kt = _worst_point(c["desc"], *grid)
        value = ref.monogamy(p, kt)[index]
        require(_close(value, c["value"]),
                f"{c['desc'].split(',')[0]} at (p={p}, kt={kt}) is {value:.3e} "
                f"by the dense reference, printed {c['value']:.3e}")
        tol = TOLERANCES["monogamy"]
        require(value <= tol if index == 0 else value >= -tol,
                f"monogamy chain broken at (p={p}, kt={kt}): {value:.3e}")


_REGIONS = re.compile(rf"min N outside IV = ({_NUM}), max N inside IV = ({_NUM}), "
                      rf"violations = (\d+)")


def _recompute_regions(checks):
    (c,) = checks
    m = _REGIONS.search(c["desc"])
    require(m is not None, f"unexpected regions report {c['desc']!r}")
    require(int(m[3]) == 0, f"{m[3]} region violations")
    inside, outside = [0.0], []
    for p in np.linspace(0.0, 1.0, 40):
        for kt in np.linspace(0.0, 3.0, 40):
            n = ref.mixed_negativity(p, kt)
            (inside if classify_region(p, kt) is RegionClass.IV else outside).append(n)
    min_out, max_in = min(outside), max(inside)
    require(min_out > ZERO and max_in < ZERO,
            f"regions unsound by the dense reference: min N outside IV {min_out:.3e}, "
            f"max N inside IV {max_in:.3e}")
    require(_close(min_out, float(m[1])) and _close(max_in, float(m[2])),
            f"dense reference gives min N outside IV {min_out:.3e} and max N inside "
            f"IV {max_in:.3e}; printed {m[1]} and {m[2]}")


RECOMPUTE = {"closedform": _recompute_closedform, "swap": _recompute_swap,
             "esb": _recompute_esb, "monogamy": _recompute_monogamy,
             "regions": _recompute_regions}


# --- queries ----------------------------------------------------------------

QUERY_MIX = {"p_finite": 32, "p_asymptotic": 3, "a_finite": 6, "a_asymptotic": 2}
NEAR_ONE_P = ("0.99998", "0.99999")
NEAR_ONE_FAULT = ("the lambda7 bracket starts at kt = 1e-9, where the boundary is "
                  "already below p: exit 2, 'failed to bracket a sign change'")
BEFORE_DEATH = 1e-3      # kt step back from a death time; N there is > 1e-9
PROBE_KT = 6.0           # later than every finite death time of p <= 0.97


def query_requests(rng):
    draws = {"p_finite": (0.27, 0.97), "p_asymptotic": (0.0, 0.24),
             "a_finite": (0.01, 0.70), "a_asymptotic": (0.72, 0.98)}
    reqs = []
    for kind, count in QUERY_MIX.items():
        flag = "--" + kind[0]
        for value in rng.uniform(*draws[kind], size=count):
            text = f"{value:.6f}"
            reqs.append(Request(f"esd-time-{kind}", ["esd-time", flag, text], 1,
                                check_esd_time, params={"flag": flag, "value": float(text)}))
    reqs.append(Request("esd-time-p_asymptotic", ["esd-time", "--p", "1.0"], 1,
                        check_esd_time, params={"flag": "--p", "value": 1.0}))
    for text in NEAR_ONE_P:
        reqs.append(Request("esd-time-p_near_one", ["esd-time", "--p", text], 1,
                            check_esd_time, known_fault=NEAR_ONE_FAULT,
                            params={"flag": "--p", "value": float(text)}))
    reqs.append(Request("landmarks", ["landmarks"], 1, check_landmarks))
    order = rng.permutation(len(reqs))
    return [reqs[i] for i in order]


_DEATH = re.compile(r"death at kt = (\S+)$")


def check_esd_time(req, result):
    require_success(result)
    flag, x = req.params["flag"], req.params["value"]
    out = result.stdout.strip()
    m = _DEATH.search(out)
    if flag == "--a":
        b_sq = 1.0 - x * x
        if x * x >= b_sq:
            require("no finite death time" in out, f"a={x}: expected no finite death, got {out!r}")
            require(ref.gghz_negativity(x, PROBE_KT) > ZERO,
                    f"a={x}: dense negativity at kt={PROBE_KT} is zero")
            return
        require(m is not None, f"a={x}: expected a death time, got {out!r}")
        expected = -math.log(1.0 - (x * x / b_sq) ** (1.0 / 3.0))
        require(_close(float(m[1]), expected, rel=1e-10),
                f"a={x}: death at {m[1]}, formula gives {expected!r}")
        return
    if m is None:
        require("no finite death time" in out, f"p={x}: unexpected output {out!r}")
        require(ref.mixed_negativity(x, PROBE_KT) > ZERO,
                f"p={x}: reported no finite death, but the dense negativity at "
                f"kt={PROBE_KT} is zero")
        return
    t = float(m[1])
    before = ref.mixed_negativity(x, t - BEFORE_DEATH)
    after = ref.mixed_negativity(x, t + 1e-9)
    require(before > ZERO and after <= ZERO,
            f"p={x}: death at kt={t} does not bracket the dense zero "
            f"(N before {before:.3e}, after {after:.3e})")


def check_landmarks(req, result):
    require_success(result)
    lines = result.stdout.strip().splitlines()
    require(len(lines) == 8 and all(line.startswith("[PASS] ") for line in lines),
            f"expected eight [PASS] lines, got {lines}")


# An oracle round lasts about 20 s; three of them give each suite three
# repeats to take its time from.
MIN_ROUNDS = {"surface": 2, "oracle": 3, "queries": 2}

# How a request's repeats in a run reduce to its time.  A queries request
# lasts about a millisecond and repeats hundreds of times, so its least time
# lands on the machine's fast phase in nearly every run.  A surface request
# runs two pool workers on both CPUs and repeats about ten times; there the
# least time hangs on one lucky repeat and the mean is steadier.  Over ten
# seeds the units_per_s spread was 0.07 (least) against 0.18 (mean) on
# queries, 0.11 and 0.20 against 0.06 and 0.14 on surface in two sets, and
# 0.13 against 0.14 on oracle.
REQUEST_TIME = {"surface": "mean", "oracle": "least", "queries": "least"}

WORKLOADS = {
    "surface": surface_requests,
    "oracle": lambda rng, out_dir: oracle_requests(rng),
    "queries": lambda rng, out_dir: query_requests(rng),
}
