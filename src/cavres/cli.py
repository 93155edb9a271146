"""Command-line front end: grid sweeps, boundary extraction, verification
suites, landmark reproduction, and point queries.

Each verify suite audits one of the paper's claims against the dense oracle
on a fixed grid, evaluated in blocks of whole parameter rows of at most
STACK_POINTS points, and returns its verdicts as Check records.

Exit codes: 0 on success, 1 when a verification or landmark check fails
or a computation fails on valid input, 2 on usage errors.  Identical
configurations give byte-identical files.
"""

import argparse
import itertools
import json
import math
import sys
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from . import __version__
from .entanglement import (ZERO_ENTANGLEMENT, closed_form_pt_eigenvalues,
                           gghz_negativity_closed, marginal_negativity, monogamy_chain,
                           negativity_from_spectrum)
from .esd import (RegionClass, _death_time, classify_region, esb_time, esb_time_numeric,
                  esd_threshold_probability, esd_time, equal_entanglement_range,
                  gghz_esd_boundary, gghz_esd_time, lambda5_boundary, lambda7_boundary,
                  min_esd_point, min_initial_negativity, swap_check)
from .linalg import _block_spectrum, partial_transpose
from .states import CAVITY_LAYOUT, gghz_output_state, global_output_state, reduce

CSV_HEADER = "param,kt,negativity"

CONVENTIONS = {
    "amplitudes": "xi = exp(-kt/2), chi = sqrt(-expm1(-kt))",
    "mixture_weights": "p * |GHZ><GHZ| + (1 - p) * |W><W|",
    "qubit_order": "big-endian, global layout (c1, r1, c2, r2, c3, r3, z)",
    "negativity_zero_threshold": ZERO_ENTANGLEMENT,
}

# reference landmark values and acceptance tolerances, in cmd_landmarks' order
LANDMARKS = {
    "esd_onset_probability": (0.25, 0.005),
    "min_esd_point_p": (0.385, 0.005),
    "min_esd_point_kt": (1.091, 0.005),
    "min_initial_negativity_p": (0.465, 0.005),
    "min_initial_negativity_n": (0.643, 0.002),
    # 2ab = 0.643 (the weakest initial negativity above) solved for a <=
    # sqrt(2)/2: a = sqrt((1 - sqrt(1 - 0.643^2)) / 2) = 0.3422.  The paper's
    # 0.319 needs 2ab = 0.6047, below every mixture's initial negativity.
    "equal_entanglement_a_low": (0.342, 0.003),
    "equal_entanglement_a_high": (0.363, 0.003),
    "max_gghz_esd_kt": (0.763, 0.005),
}

STACK_POINTS = 512  # grid points per dense stack, at most: it bounds peak memory


@dataclass(frozen=True)
class Check:
    """One audit verdict: value against threshold, with the grid point
    where the value was found: (p, kt), (p,) or () when it has none."""

    label: str
    value: float
    threshold: float
    ok: bool
    at: tuple = ()


def grid_worst(values, params, kts=(), pick=np.argmax):
    """The extreme of a param-major grid of values and its (param, kt)
    point, or its (param,) point on a 1-D grid.  pick is np.argmax or
    np.argmin: the first grid point wins a tie, and a nan wins over any
    number."""
    idx = np.unravel_index(pick(values), np.shape(values))
    return float(values[idx]), tuple(float(ax[i]) for ax, i in zip((params, kts), idx))


def _square_grid(steps):
    """The audit axes: steps values of p (or a) in [0, 1] and of kt in [0, 3]."""
    return np.linspace(0.0, 1.0, steps), np.linspace(0.0, 3.0, steps)


def _at_most(label, tolerance, values, ps, kts):
    value, at = grid_worst(values, ps, kts)
    return Check(label, value, tolerance, value <= tolerance, at)  # a nan fails


def _row_blocks(f, params, kts):
    """f(params[i:i + rows, None], kts) over blocks of whole rows, each at most
    STACK_POINTS points or one row, joined along the row axis: a param-major grid."""
    rows = max(1, STACK_POINTS // len(kts))
    return np.concatenate([f(params[i:i + rows, None], kts)
                           for i in range(0, len(params), rows)])


def dense_cavity_negativity(state, params, kts):
    """The dense cavity negativity of state(param, kt) on the params x kts grid."""
    return _row_blocks(lambda p, kt: marginal_negativity(state(p, kt), CAVITY_LAYOUT.labels),
                       params, kts)


def closed_form_grid_deviation(tolerance=1e-10):
    """The closed-form spectrum against the dense eigensolver over a 25x25
    (p, kt) grid: one Check of the worst entrywise deviation."""
    ps, kts = _square_grid(25)
    spec = closed_form_pt_eigenvalues(ps[:, None], kts)
    lam = np.sort(np.stack(spec.lambdas, axis=-1), axis=-1)
    num = _row_blocks(lambda p, kt: np.sort(_block_spectrum(partial_transpose(
        reduce(global_output_state(p, kt), CAVITY_LAYOUT.labels), ["c1"])), axis=-1), ps, kts)
    return [_at_most("spectrum vs eigensolver", tolerance,
                     np.max(np.abs(lam - num), axis=-1), ps, kts)]


def monogamy_grid_audit(tolerance=1e-10):
    """The monogamy chain over a 25x25 (p, kt) grid: the pair equality
    holds to tolerance, and the pair and tail slacks are at least
    -tolerance."""
    ps, kts = _square_grid(25)
    slacks = attrgetter("equality_deviation", "pair_slack", "tail_slack")
    grid = _row_blocks(lambda p, kt: np.stack(slacks(monogamy_chain(p, kt)), axis=-1), ps, kts)
    eq, pair, tail = np.moveaxis(grid, -1, 0)
    checks = [_at_most("pair-equality deviation", tolerance, eq, ps, kts)]
    for label, slack in (("pair bound slack", pair), ("negativity tail slack", tail)):
        value, at = grid_worst(slack, ps, kts, np.argmin)
        checks.append(Check(label, value, -tolerance, value >= -tolerance, at))
    return checks


def swap_grid_deviation(tolerance=1e-12):
    """The swap relation over a 20x20 (p, kt) grid: one Check of the worst
    entrywise deviation."""
    ps, kts = _square_grid(20)
    devs = _row_blocks(lambda p, kt: swap_check(p, kt)[1], ps, kts)
    return [_at_most("cavity/reservoir swap", tolerance, devs, ps, kts)]


def esb_grid_deviation(tolerance=2e-6):
    """The closed-form birth time against the bisection-located one over ten
    probabilities in [0.30, 0.95], each with a finite death time: one Check
    of the worst gap."""
    # the bisection's resolution: 20 halvings of [1e-8, 1] leave a bracket of at most 9.5e-7,
    # so its midpoint is within 4.8e-7 of the N = 1e-10 crossing, which trails the birth by
    # 1e-10 / N'(birth), at most 2.6e-7 (p = 0.95, slope 3.9e-4): a gap of at most 7.3e-7
    p_values = np.linspace(0.30, 0.95, 10)
    gaps = np.abs(esb_time(_death_time(p_values)) - esb_time_numeric(p_values))
    return [_at_most("birth-time formula vs bisection", tolerance, gaps, p_values, ())]


def region_grid_audit(tolerance=ZERO_ENTANGLEMENT):
    """Check that region IV means numeric negativity at most tolerance and
    regions I-III mean negativity above it, over a 40x40 (p, kt) grid.

    One Check: its value is the largest negativity inside IV, and its
    verdict needs both sides to hold.  A failure points at the extreme of
    a failing side, inside IV first.
    """
    ps, kts = _square_grid(40)
    n = dense_cavity_negativity(global_output_state, ps, kts)
    sep = classify_region(ps[:, None], kts) == RegionClass.IV
    sound = np.where(sep, n <= tolerance, n > tolerance)  # a nan fails
    max_sep, at_sep = grid_worst(np.where(sep, n, -np.inf), ps, kts)
    min_ent, at_ent = grid_worst(np.where(sep, np.inf, n), ps, kts, np.argmin)
    max_sep = max(max_sep, 0.0)
    label = (f"region soundness: min N outside IV = {min_ent:.3e}, "
             f"max N inside IV = {max_sep:.3e}, violations = {np.count_nonzero(~sound)}")
    ok = bool(sound.all())
    at = () if ok else at_sep if (sep & ~sound).any() else at_ent
    return [Check(label, max_sep, tolerance, ok, at)]


# each audit takes only its tolerance, and defaults it
SUITES = {
    "closedform": closed_form_grid_deviation,
    "monogamy": monogamy_grid_audit,
    "swap": swap_grid_deviation,
    "esb": esb_grid_deviation,
    "regions": region_grid_audit,
}


def _fmt(x):
    return format(float(x), ".12g")


def _tolerance(text):
    """argparse type of --tolerance: a finite number of at least 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value < math.inf:  # nan fails too
        raise argparse.ArgumentTypeError(f"must be finite and at least 0, got {text!r}")
    return value


def _write_table(path, fmt, header, axes, cells, meta, key):
    """One row per point of the product of axes, the first outermost, then its
    cell: CSV under header, or json.dumps({"meta": meta, key: rows}, indent=2,
    sort_keys=True) for a key after "meta", whose finite floats print as %r.
    One % fills the whole body (no axis text holds a %) before the file opens."""
    if fmt == "csv":
        head, item, cell, sep, tail = header + "\n", "%.12g,", "%.12g\n", "", ""
    else:  # sep closes a row and opens the next
        head = json.dumps({"meta": meta, key: []}, indent=2, sort_keys=True)[:-3] + "\n    ["
        item, cell, sep, tail = "\n      %r,", "\n      %r", "\n    ],\n    [", "\n    ]\n  ]\n}\n"
    *outer, inner = ([item % v for v in axis] for axis in axes)
    prefixes = map("".join, itertools.product(*outer))
    body = sep.join(p + (cell + sep + p).join(inner) + cell for p in prefixes) % tuple(cells)
    with open(path, "w", newline="") as fh:
        fh.writelines((head, body, tail))


def cmd_surface(args):
    # main reports each ValueError as a usage error (exit 2)
    if args.tolerance is not None and not args.oracle:
        raise ValueError("--tolerance needs --oracle")
    bounds = (args.param_min, args.param_max, args.kt_min, args.kt_max)
    if not all(map(math.isfinite, bounds)):
        raise ValueError("range bounds must be finite")
    if not (args.param_min < args.param_max and args.kt_min < args.kt_max):
        raise ValueError("min must be strictly below max")
    if args.param_steps < 2 or args.kt_steps < 2:
        raise ValueError("steps must be at least 2")
    if not (0.0 <= args.param_min and args.param_max <= 1.0):
        raise ValueError("parameter range must lie inside [0, 1]")
    if args.kt_min < 0.0:
        raise ValueError("kt range must be nonnegative")
    params = np.linspace(args.param_min, args.param_max, args.param_steps)
    kts = np.linspace(args.kt_min, args.kt_max, args.kt_steps)
    mixed = args.family == "mixed"
    if mixed:
        grid = negativity_from_spectrum(closed_form_pt_eigenvalues(params[:, None], kts))
    else:
        grid = gghz_negativity_closed(params[:, None], kts)
    bad = ~np.isfinite(grid)
    if bad.any():  # refused before any file is written
        raise RuntimeError(f"{np.count_nonzero(bad)} cells are not finite; the smallest kt "
                           f"among them is {_fmt(np.broadcast_to(kts, grid.shape)[bad].min())}")
    meta = {"family": args.family,
            "param_range": [args.param_min, args.param_max, args.param_steps],
            "kt_range": [args.kt_min, args.kt_max, args.kt_steps],
            "conventions": CONVENTIONS}
    _write_table(args.out, args.format, CSV_HEADER, [params.tolist(), kts.tolist()],
                 grid.ravel().tolist(), meta, "rows")
    print(f"wrote {grid.size} rows to {args.out}")
    if args.oracle:
        tolerance = args.tolerance if args.tolerance is not None else 1e-10
        dense = dense_cavity_negativity(global_output_state if mixed else gghz_output_state,
                                        params, kts)
        value, at = grid_worst(np.abs(dense - grid), params, kts)
        print(f"oracle check: max |closed form - numeric| = {value:.3e} "
              f"at (param={at[0]:.6g}, kt={at[1]:.6g})")
        if not value <= tolerance:  # a nan fails
            print(f"oracle mismatch beyond tolerance {tolerance:.3e}", file=sys.stderr)
            return 1
    return 0


def cmd_boundary(args):
    if not 0.0 < args.kt_min < args.kt_max < math.inf or args.kt_steps < 2:
        raise ValueError("boundary needs finite 0 < kt-min < kt-max and steps >= 2")
    kts = np.linspace(args.kt_min, args.kt_max, args.kt_steps)
    if (np.diff(kts) <= 0.0).any():  # a range too narrow for kt-steps doubles
        raise ValueError("kt samples must be strictly increasing")
    # looked up per call, so a replaced curve is the one evaluated
    curve = {"lambda5": lambda5_boundary, "lambda7": lambda7_boundary,
             "gghz": gghz_esd_boundary}[args.kind]
    values = curve(kts)
    if not ((values >= 0.0) & (values <= 1.0)).all():  # a numerical failure; nan fails
        raise RuntimeError("boundary parameter values must lie in [0, 1]")
    _write_table(args.out, args.format, "kt,param", [kts.tolist()], values.tolist(),
                 {"kind": args.kind, "conventions": CONVENTIONS}, "samples")
    print(f"wrote {kts.size} samples to {args.out}")
    return 0


def _worst_at(at):
    if len(at) == 2:
        return f", worst at (p={at[0]:.4g}, kt={at[1]:.4g})"
    return f", worst at p={at[0]:.4g}" if at else ""


def cmd_verify(args):
    audit = SUITES[args.suite]
    checks = audit() if args.tolerance is None else audit(args.tolerance)
    for c in checks:
        print(f"[{'PASS' if c.ok else 'FAIL'}] {args.suite}: {c.label}{_worst_at(c.at)}: "
              f"value {c.value:.3e} vs {c.threshold:.3e}")
    return 0 if all(c.ok for c in checks) else 1


def cmd_landmarks(_args):
    computed = (esd_threshold_probability(), *min_esd_point(), *min_initial_negativity(),
                *equal_entanglement_range())  # in LANDMARKS order
    failed = False
    for (name, (ref, tol)), value in zip(LANDMARKS.items(), computed, strict=True):
        ok = abs(value - ref) <= tol
        failed = failed or not ok
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name}: computed {value:.6f}, reference {ref} +/- {tol}")
    if failed:
        print("conventions in effect:", file=sys.stderr)
        for key, val in CONVENTIONS.items():
            print(f"  {key}: {val}", file=sys.stderr)
    return 1 if failed else 0


def cmd_esd_time(args):
    if args.p is not None:
        t = esd_time(args.p)
        label = f"mixed family, p = {_fmt(args.p)}"
    else:
        t = gghz_esd_time(args.a)
        label = f"generalized-GHZ family, a = {_fmt(args.a)}"
    if t is None:
        print(f"{label}: no finite death time (asymptotic decay)")
    else:
        print(f"{label}: death at kt = {_fmt(t)}")
    return 0


def cmd_monogamy(args):
    rec = monogamy_chain(args.p, args.kt)
    print(f"monogamy chain at p = {_fmt(args.p)}, kt = {_fmt(args.kt)}")
    for field in ("c_init_sq", "c_pair_sq", "c_c1_sq", "c_r1_sq",
                  "n_cav_sq", "n_res_sq"):
        print(f"  {field:10s} = {_fmt(getattr(rec, field))}")
    print(f"  equality deviation = {rec.equality_deviation:.3e}")
    print(f"  pair slack         = {rec.pair_slack:+.3e}")
    print(f"  tail slack         = {rec.tail_slack:+.3e}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cavres",
        description="Entanglement dynamics of three dissipating cavity qubits",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    surface = sub.add_parser("surface", help="negativity over a (param, kt) grid")
    surface.add_argument("--family", choices=("mixed", "gghz"), required=True)
    surface.add_argument("--param-min", type=float, default=0.0)
    surface.add_argument("--param-max", type=float, default=1.0)
    surface.add_argument("--param-steps", type=int, default=11)
    surface.add_argument("--kt-min", type=float, default=0.0)
    surface.add_argument("--kt-max", type=float, default=3.0)
    surface.add_argument("--kt-steps", type=int, default=31)
    surface.add_argument("--format", choices=("csv", "json"), default="csv")
    surface.add_argument("--out", required=True)
    surface.add_argument("--oracle", action="store_true",
                         help="recompute every cell numerically and compare")
    surface.add_argument("--tolerance", type=_tolerance, default=None)
    surface.set_defaults(func=cmd_surface)

    boundary = sub.add_parser("boundary", help="sample one boundary curve")
    boundary.add_argument("kind", choices=("lambda5", "lambda7", "gghz"))
    boundary.add_argument("--kt-min", type=float, default=0.05)
    boundary.add_argument("--kt-max", type=float, default=4.0)
    boundary.add_argument("--kt-steps", type=int, default=40)
    boundary.add_argument("--format", choices=("csv", "json"), default="csv")
    boundary.add_argument("--out", required=True)
    boundary.set_defaults(func=cmd_boundary)

    verify = sub.add_parser("verify", help="run one verification suite")
    verify.add_argument("suite", choices=tuple(SUITES))
    verify.add_argument("--tolerance", type=_tolerance, default=None)
    verify.set_defaults(func=cmd_verify)

    landmarks = sub.add_parser("landmarks",
                               help="reproduce the reference landmark values")
    landmarks.set_defaults(func=cmd_landmarks)

    esd = sub.add_parser("esd-time", help="death time for one family member")
    family = esd.add_mutually_exclusive_group(required=True)
    family.add_argument("--p", type=float, help="mixture probability")
    family.add_argument("--a", type=float, help="generalized-GHZ amplitude")
    esd.set_defaults(func=cmd_esd_time)

    mono = sub.add_parser("monogamy", help="monogamy chain at one (p, kt) point")
    mono.add_argument("--p", type=float, required=True)
    mono.add_argument("--kt", type=float, required=True)
    mono.set_defaults(func=cmd_monogamy)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a RuntimeError is a numerical failure on valid input, not misuse
        return 2 if isinstance(exc, ValueError) else 1


if __name__ == "__main__":
    raise SystemExit(main())
