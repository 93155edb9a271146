"""Command-line front end: grid sweeps, boundary extraction, verification
suites, landmark reproduction, and point queries.

Each verify suite audits one of the paper's claims against the dense oracle
on a fixed grid and returns its verdicts as Check records.  A (p, kt) grid
is evaluated in blocks of whole parameter rows of at most STACK_POINTS
points; esb's ten p values are bisected in lockstep, all at once.

Exit codes: 0 on success, 1 when a verification or landmark check fails
or a computation fails on valid input, 2 on usage errors and on an --out
that cannot be written.  Identical configurations give byte-identical files.
"""

import argparse
import itertools
import json
import math
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import __version__
from .entanglement import (ZERO_ENTANGLEMENT, _marginal_pt_spectrum, closed_form_pt_eigenvalues,
                           gghz_negativity_closed, marginal_negativity, monogamy_chain,
                           negativity_from_spectrum)
from .esd import (RegionClass, _death_time, classify_region, esb_time, esb_time_numeric,
                  esd_threshold_probability, esd_time, equal_entanglement_range,
                  gghz_esd_boundary, gghz_esd_time, lambda5_boundary, lambda7_boundary,
                  min_esd_point, min_initial_negativity, swap_check)
from .states import CAVITY_LAYOUT, gghz_output_state, global_output_state

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


def _verdict(label, threshold, floor, values, params, kts=()):
    """The Check of values against a floor (value >= threshold at the least
    value) or a ceiling (value <= threshold at the greatest): a nan fails."""
    value, at = grid_worst(values, params, kts, np.argmin if floor else np.argmax)
    return Check(label, value, threshold, value >= threshold if floor else value <= threshold, at)


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


def _spectrum_deviation(p, kt):
    lam = np.sort(np.stack(closed_form_pt_eigenvalues(p, kt).lambdas, axis=-1), axis=-1)
    num = np.sort(_marginal_pt_spectrum(global_output_state(p, kt), CAVITY_LAYOUT.labels), axis=-1)
    return np.max(np.abs(lam - num), axis=-1, keepdims=True)


def _monogamy_slacks(p, kt):
    rec = monogamy_chain(p, kt)
    return np.stack((rec.equality_deviation, rec.pair_slack, rec.tail_slack), axis=-1)


def _birth_gap(p):
    return np.abs(esb_time(_death_time(p)) - esb_time_numeric(p))[:, None]


# suite -> (axes, f, a (label, threshold, floor) per quantity): f on the axes
# stacks the quantities on a last axis, each checked at its stated threshold
AUDITS = {
    "closedform": (_square_grid(25), _spectrum_deviation,
                   [("spectrum vs eigensolver", 1e-10, False)]),
    "monogamy": (_square_grid(25), _monogamy_slacks,
                 [("pair-equality deviation", 1e-10, False), ("pair bound slack", -1e-10, True),
                  ("negativity tail slack", -1e-10, True)]),
    "swap": (_square_grid(20), lambda p, kt: swap_check(p, kt)[1][..., None],
             [("cavity/reservoir swap", 1e-12, False)]),
    # ten probabilities in [0.30, 0.95], each with a finite death time.  The bisection's
    # resolution: 20 halvings of [1e-8, 1] leave a bracket of at most 9.5e-7, so its midpoint
    # is within 4.8e-7 of the N = 1e-10 crossing, which trails the birth by 1e-10 / N'(birth),
    # at most 2.6e-7 (p = 0.95, slope 3.9e-4): a gap of at most 7.3e-7
    "esb": ((np.linspace(0.30, 0.95, 10),), _birth_gap,
            [("birth-time formula vs bisection", 2e-6, False)]),
}


def grid_audit(suite):
    """The Checks of one AUDITS suite: its f over blocks of whole rows of a
    (p, kt) grid, or at once on a 1-D p axis, each quantity at its worst."""
    axes, f, quantities = AUDITS[suite]
    grid = _row_blocks(f, *axes) if len(axes) == 2 else f(*axes)
    return [_verdict(*quantity, values, *axes)
            for quantity, values in zip(quantities, np.moveaxis(grid, -1, 0), strict=True)]


def region_grid_audit():
    """Check that region IV means numeric negativity at most
    ZERO_ENTANGLEMENT and regions I-III mean negativity above it, over a
    40x40 (p, kt) grid.

    One Check: its value is the largest negativity inside IV, and its
    verdict needs both sides to hold.  A failure points at the extreme of
    a failing side, inside IV first.
    """
    ps, kts = _square_grid(40)
    n = dense_cavity_negativity(global_output_state, ps, kts)
    sep = classify_region(ps[:, None], kts) == RegionClass.IV
    sound = np.where(sep, n <= ZERO_ENTANGLEMENT, n > ZERO_ENTANGLEMENT)  # a nan fails
    max_sep, at_sep = grid_worst(np.where(sep, n, -np.inf), ps, kts)
    min_ent, at_ent = grid_worst(np.where(sep, np.inf, n), ps, kts, np.argmin)
    max_sep = max(max_sep, 0.0)
    label = (f"region soundness: min N outside IV = {min_ent:.3e}, "
             f"max N inside IV = {max_sep:.3e}, violations = {np.count_nonzero(~sound)}")
    ok = bool(sound.all())
    at = () if ok else at_sep if (sep & ~sound).any() else at_ent
    return [Check(label, max_sep, ZERO_ENTANGLEMENT, ok, at)]


# each audit takes no arguments and checks at its stated threshold
SUITES = {**{suite: partial(grid_audit, suite) for suite in AUDITS},
          "regions": region_grid_audit}


def _fmt(x):
    return format(float(x), ".12g")


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


def _samples(axis, lo, hi, steps):
    """np.linspace(lo, hi, steps), refused where too narrow a range repeats a double."""
    if (np.diff(x := np.linspace(lo, hi, steps)) <= 0.0).any():
        raise ValueError(f"{axis} samples must be strictly increasing")
    return x


def cmd_surface(args):
    # main reports each ValueError as a usage error (exit 2)
    if not (0.0 <= args.param_min < args.param_max <= 1.0
            and 0.0 <= args.kt_min < args.kt_max < math.inf
            and min(args.param_steps, args.kt_steps) >= 2):  # nan fails too
        raise ValueError("surface needs 0 <= param-min < param-max <= 1, "
                         "finite 0 <= kt-min < kt-max and steps >= 2")
    params = _samples("param", args.param_min, args.param_max, args.param_steps)
    kts = _samples("kt", args.kt_min, args.kt_max, args.kt_steps)
    mixed = args.family == "mixed"
    with np.errstate(over="ignore", invalid="ignore"):  # the refusal below reports each cell
        grid = (negativity_from_spectrum(closed_form_pt_eigenvalues(params[:, None], kts)) if mixed
                else gghz_negativity_closed(params[:, None], kts))
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
        dense = dense_cavity_negativity(global_output_state if mixed else gghz_output_state,
                                        params, kts)
        c = _verdict("closed form vs numeric", 1e-10, False, np.abs(dense - grid), params, kts)
        print(f"oracle check: max |closed form - numeric| = {c.value:.3e} "
              f"at (param={c.at[0]:.6g}, kt={c.at[1]:.6g})")
        if not c.ok:
            print(f"oracle mismatch beyond tolerance {c.threshold:.3e}", file=sys.stderr)
            return 1
    return 0


def cmd_boundary(args):
    if not 0.0 <= args.kt_min < args.kt_max < math.inf or args.kt_steps < 2:
        raise ValueError("boundary needs finite 0 <= kt-min < kt-max and steps >= 2")
    kts = _samples("kt", args.kt_min, args.kt_max, args.kt_steps)
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
    checks = SUITES[args.suite]()
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
        label = f"mixed family, p = {args.p!r}"
    else:
        t = gghz_esd_time(args.a)
        label = f"generalized-GHZ family, a = {args.a!r}"
    if t is None:
        print(f"{label}: no finite death time (asymptotic decay)")
    else:
        print(f"{label}: death at kt = {_fmt(t)}")
    return 0


def cmd_monogamy(args):
    rec = monogamy_chain(args.p, args.kt)
    print(f"monogamy chain at p = {args.p!r}, kt = {args.kt!r}")
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
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a RuntimeError is a numerical failure on valid input, not misuse
        return 1 if isinstance(exc, RuntimeError) else 2


if __name__ == "__main__":
    raise SystemExit(main())
