"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with `pytest -s` or in the
captured output of a failing run) and then asserts.  Criterion 3's
amplitude-window lower edge is checked against 0.342, the amplitude that
the matching equation 2ab = N(p, 0) gives for the weakest initial
negativity 0.643 of criterion 2.  The paper prints 0.319 there, which no
mixture reaches (N(p, 0) >= 0.6426 forces a >= 0.3419); that value is kept
in the report as a recorded discrepancy and is not asserted.
"""

import time

import numpy as np

from cavres import (DensityMatrix, SystemLayout, esb_time, esd_time,
                    esd_threshold_probability, equal_entanglement_range,
                    gghz_esd_boundary, mixed_ghz_w, min_esd_point,
                    min_initial_negativity, negativity, reduce)
from cavres.cli import (CONVENTIONS, _square_grid, closed_form_grid_deviation,
                        dense_cavity_negativity, esb_grid_deviation, grid_worst,
                        monogamy_grid_audit, region_grid_audit, swap_grid_deviation)
from cavres.entanglement import (closed_form_pt_eigenvalues, gghz_negativity_closed,
                                 wootters_concurrence)
from cavres.esd import ANOMALOUS_WINDOW, _bisect, lambda7_boundary
from cavres.linalg import partial_trace, partial_transpose
from cavres.states import gghz_output_state, global_output_state

from conftest import (random_density_matrix, random_separable_density_matrix,
                      random_unitary)


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    return ok


def test_criterion_1_closed_form_spectrum_equivalence():
    start = time.perf_counter()
    (c,) = closed_form_grid_deviation(1e-10)
    elapsed = time.perf_counter() - start
    ok = c.value <= 1e-10 and elapsed < 10.0
    detail = (f"spectrum vs eigensolver on 25x25 grid: max dev {c.value:.3e} "
              f"(tol 1e-10) at {c.at}, runtime {elapsed:.2f}s (< 10s)")
    assert report(1, ok, detail), detail


def test_criterion_2_landmark_reproduction():
    checks = []
    threshold = esd_threshold_probability()
    checks.append(("ESD onset probability", threshold, 0.25, 5e-3))
    p_star, kt_star = min_esd_point()
    checks.append(("earliest-death p", p_star, 0.385, 5e-3))
    checks.append(("earliest-death kt", kt_star, 1.091, 5e-3))
    p_min, n_min = min_initial_negativity()
    checks.append(("weakest initial-negativity p", p_min, 0.465, 5e-3))
    checks.append(("weakest initial negativity", n_min, 0.643, 2e-3))
    checks.append(("W-state negativity", negativity(mixed_ghz_w(0.0), ["c1"]),
                   2.0 * np.sqrt(2.0) / 3.0, 1e-12))
    checks.append(("GHZ-state negativity", negativity(mixed_ghz_w(1.0), ["c1"]),
                   1.0, 1e-12))
    failures = [f"{name}: computed {value:.9f}, expected {ref} +/- {tol}"
                for name, value, ref, tol in checks if abs(value - ref) > tol]
    ok = not failures
    detail = "all seven landmark values reproduced"
    if failures:
        detail = ("landmark misses under conventions "
                  f"{CONVENTIONS}: " + "; ".join(failures))
    assert report(2, ok, detail), detail


def test_criterion_3_generalized_ghz_branch():
    parts = []
    a_s, kts = _square_grid(25)
    dev, at = grid_worst(np.abs(dense_cavity_negativity(gghz_output_state, a_s, kts)
                                - gghz_negativity_closed(a_s[:, None], kts)), a_s, kts)
    parts.append((dev <= 1e-10, f"closed form vs eigensolver 25x25: max dev {dev:.3e} at {at}"))
    boundary_gap = abs(gghz_esd_boundary(20.0) - np.sqrt(0.5))
    parts.append((boundary_gap <= 1e-4,
                  f"boundary limit at kt=20: |a - sqrt(2)/2| = {boundary_gap:.3e}"))
    a_low, a_high, max_kt = equal_entanglement_range()
    # the lower edge matches the weakest initial negativity, 0.643 in criterion 2
    a_ref = np.sqrt((1.0 - np.sqrt(1.0 - 0.643 ** 2)) / 2.0)
    parts.append((abs(a_low - a_ref) <= 3e-3,
                  f"amplitude-window lower edge: computed {a_low:.6f} vs {a_ref:.3f} "
                  f"+/- 0.003 (2ab = 0.643); DISCREPANCY RECORD: the paper prints "
                  f"0.319, which 2ab = N(p, 0) cannot give since N(p, 0) >= 0.6426"))
    p_window = np.linspace(*ANOMALOUS_WINDOW, 4001)
    n_floor = min(negativity(mixed_ghz_w(p), ["c1"]) for p in p_window)
    match_gap = abs(2.0 * a_low * np.sqrt(1.0 - a_low ** 2) - n_floor)
    parts.append((match_gap <= 1e-8,
                  f"lower edge vs eigensolver minimum of N over the window "
                  f"(4001 points): |2ab - N_min| = {match_gap:.3e} (tol 1e-8)"))
    parts.append((abs(a_high - 0.363) <= 3e-3,
                  f"amplitude-window upper edge: computed {a_high:.6f} vs 0.363 +/- 0.003"))
    parts.append((max_kt is not None and abs(max_kt - 0.763) <= 5e-3,
                  f"largest death time on the window: computed {max_kt:.6f} vs 0.763 +/- 0.005"))
    ok = all(flag for flag, _ in parts)
    detail = "; ".join(("ok: " if flag else "MISS: ") + text for flag, text in parts)
    assert report(3, ok, detail), detail


def test_criterion_4_monogamy_suite():
    eq, pair, tail = monogamy_grid_audit(1e-10)
    ok = eq.value <= 1e-10 and pair.value >= -1e-10 and tail.value >= -1e-10
    detail = (f"25x25 grid: pair equality dev {eq.value:.3e} at {eq.at}, "
              f"pair-bound slack {pair.value:.3e} at {pair.at}, "
              f"negativity-tail slack {tail.value:.3e} at {tail.at} (tol 1e-10)")
    assert report(4, ok, detail), detail


def test_criterion_5_swap_and_birth_times():
    (swap,) = swap_grid_deviation(1e-12)
    (esb,) = esb_grid_deviation(1e-3)
    ok = swap.value < 1e-12 and esb.value < 1e-3
    detail = (f"swap identity on 20x20 grid: max entrywise dev {swap.value:.3e} "
              f"(tol 1e-12) at {swap.at}; birth-time formula vs bisection over 10 "
              f"probabilities: max gap {esb.value:.3e} (tol 1e-3) at p={esb.at[0]}")
    assert report(5, ok, detail), detail


def test_criterion_6_region_soundness():
    # the zero-entanglement threshold 1e-10 on both sides of the IV boundary
    (c,) = region_grid_audit(1e-10)
    ok = c.ok
    detail = f"40x40 grid: {c.label}"
    assert report(6, ok, detail), detail


def test_criterion_7_property_suite():
    rng = np.random.default_rng(7)
    failures = []

    # density-matrix invariants survive partial tracing
    for _ in range(5):
        rho = random_density_matrix(rng, ("c1", "r1", "c2", "r2"))
        for keep in (["c1"], ["c1", "r1"], ["c1", "r1", "c2"]):
            out = partial_trace(rho, keep)
            herm = np.max(np.abs(out.data - out.data.conj().T))
            tr = abs(out.data.trace().real - 1.0)
            lo = np.linalg.eigvalsh(out.data)[0]
            if herm > 1e-12 or tr > 1e-12 or lo < -1e-10:
                failures.append(f"partial-trace invariants broken: {herm}, {tr}, {lo}")

    # partial transpose is an involution and preserves the trace; a
    # separable state's partial transpose is a state, so it can be transposed back
    for _ in range(5):
        rho = random_separable_density_matrix(rng, ("c1", "c2", "c3"))
        pt = partial_transpose(rho, ["c2"])
        back = partial_transpose(DensityMatrix(rho.layout, pt), ["c2"])
        if np.max(np.abs(back - rho.data)) > 1e-14:
            failures.append("partial transpose is not an involution")
        if pt.trace() != rho.data.trace():
            failures.append("partial transpose changed the trace")

    # negativity is invariant under local unitaries
    base = reduce(global_output_state(0.55, 0.6), ["c1", "c2", "c3"])
    expected = negativity(base, ["c1"])
    for _ in range(20):
        u = np.kron(np.kron(random_unitary(rng, 2), random_unitary(rng, 2)),
                    random_unitary(rng, 2))
        rotated = DensityMatrix(base.layout, u @ base.data @ u.conj().T)
        if abs(negativity(rotated, ["c1"]) - expected) > 1e-10:
            failures.append("negativity changed under a local unitary")

    # the spectral concurrence agrees with the pure-state formula
    layout = SystemLayout(("c1", "c2"))
    for _ in range(20):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        rho = DensityMatrix(layout, np.outer(v, v.conj()))
        rho_a = np.trace(rho.data.reshape(2, 2, 2, 2), axis1=1, axis2=3)
        pure_form = np.sqrt(max(0.0, 4.0 * np.linalg.det(rho_a).real))
        if abs(wootters_concurrence(rho) - pure_form) > 1e-10:
            failures.append("spectral vs pure-state concurrence mismatch")

    ok = not failures
    detail = "density-matrix, involution, local-unitary, concurrence checks all hold"
    if failures:
        detail = "; ".join(sorted(set(failures)))
    assert report(7, ok, detail), detail


def lambda7_formula_audit(kt_values):
    """The printed lambda7 boundary expression against an independent
    bisection on the eigenvalue's sign change in p: (max |formula -
    bisection|, one (kt, formula_p, bisection_p) triple per grid point)."""
    samples = []
    for kt in kt_values:
        root, _ = _bisect(lambda p: closed_form_pt_eigenvalues(p, kt).lambda7,
                          0.0, 1.0, xtol=1e-12)
        samples.append((float(kt), lambda7_boundary(kt), root))
    return max(abs(f - r) for _, f, r in samples), samples


def test_criterion_8_lambda7_boundary_audit():
    worst, samples = lambda7_formula_audit(np.linspace(0.1, 4.0, 30))
    agreement = worst <= 1e-8
    if agreement:
        detail = (f"boundary expression vs bisection on 30 samples: "
                  f"max |formula - root| = {worst:.3e} (tol 1e-8); no "
                  f"discrepancy to record")
        ok = True
    else:
        # the bisection roots stay the ground truth; the criterion is still
        # met if they are sound and the discrepancy is reported here
        rows = "; ".join(f"kt={kt:.3f}: formula {f:.9f} vs root {r:.9f}"
                         for kt, f, r in samples if abs(f - r) > 1e-8)
        roots_sound = all(abs(closed_form_pt_eigenvalues(r, kt).lambda7) < 1e-10
                          for kt, _, r in samples)
        detail = ("DISCREPANCY RECORD: boundary expression disagrees with the "
                  f"bisection ground truth beyond 1e-8 ({rows}); bisection "
                  f"roots sound: {roots_sound}")
        ok = roots_sound
    assert report(8, ok, detail), detail
