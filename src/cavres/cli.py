"""Command-line front end: grid sweeps, boundary extraction, verification
suites, landmark reproduction, and point queries.

Exit codes: 0 on success, 1 when a verification or landmark check fails
or a computation fails on valid input, 2 on usage errors.  Identical
configurations give byte-identical files.
"""

import argparse
import itertools
import json
import math
import sys

import numpy as np

from . import __version__
from .entanglement import (cavity_negativity_check, closed_form_grid_deviation,
                           closed_form_pt_eigenvalues, gghz_negativity_closed,
                           monogamy_chain, monogamy_grid_audit, negativity_from_spectrum)
from .esd import (esb_grid_deviation, esd_threshold_probability, esd_time,
                  equal_entanglement_range, gghz_esd_time,
                  min_esd_point, min_initial_negativity, region_grid_audit,
                  sample_boundary, swap_grid_deviation)
from .states import gghz_output_state, global_output_state

CSV_HEADER = "param,kt,negativity"

CONVENTIONS = {
    "amplitudes": "xi = exp(-kt/2), chi = sqrt(1 - exp(-kt))",
    "mixture_weights": "p * |GHZ><GHZ| + (1 - p) * |W><W|",
    "qubit_order": "big-endian, global layout (c1, r1, c2, r2, c3, r3, z)",
    "negativity_zero_threshold": 1e-10,
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
        c = cavity_negativity_check("closed form vs numeric", tolerance, grid,
                                    global_output_state if mixed else gghz_output_state,
                                    params, kts)
        print(f"oracle check: max |closed form - numeric| = {c.value:.3e} "
              f"at (param={c.at[0]:.6g}, kt={c.at[1]:.6g})")
        if not c.ok:
            print(f"oracle mismatch beyond tolerance {tolerance:.3e}", file=sys.stderr)
            return 1
    return 0


def cmd_boundary(args):
    if not 0.0 < args.kt_min < args.kt_max < math.inf or args.kt_steps < 2:
        raise ValueError("boundary needs finite 0 < kt-min < kt-max and steps >= 2")
    kts = np.linspace(args.kt_min, args.kt_max, args.kt_steps)
    samples = sample_boundary(args.kind, kts)
    _write_table(args.out, args.format, "kt,param", [kts.tolist()], [v for _, v in samples],
                 {"kind": args.kind, "conventions": CONVENTIONS}, "samples")
    print(f"wrote {len(samples)} samples to {args.out}")
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
