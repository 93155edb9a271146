"""Sudden-death and sudden-birth analysis of the dissipating register.

The two sign-changing partial-transpose eigenvalues carve the (kt, p) plane
into four regions.  Where both are positive the cavity photons are
separable, so entanglement dies at a finite time; the boundary curves, the
death times they induce, the generalized-GHZ counterpart, and the exact
cavity/reservoir swap relation all live here.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.optimize import bisect

from .entanglement import (ZERO_ENTANGLEMENT, closed_form_pt_eigenvalues,
                           gghz_negativity_closed, negativity,
                           negativity_from_spectrum)
from .states import (_check_probability, amplitudes, global_output_state,
                     global_output_state_from_amplitudes, reduce)

BOUNDARY_TIE_TOL = 1e-12
BISECT_XTOL = 1e-10
BISECT_MAXITER = 200
GOLDEN_TOL = 1e-4
# tight enough that N at the located minimum is exact to rounding
WINDOW_GOLDEN_TOL = 1e-7

# Large-time limit of the lambda7 boundary curve: below this mix probability
# the eigenvalue never turns positive and the decay stays asymptotic.
ESD_ONSET_PROBABILITY = 0.25


class RegionClass(Enum):
    """Sign regions of the two negative-capable eigenvalues (lambda5, lambda7)."""

    I = "I"      # lambda5 < 0, lambda7 < 0
    II = "II"    # lambda5 < 0, lambda7 >= 0
    III = "III"  # lambda5 >= 0, lambda7 < 0
    IV = "IV"    # both nonnegative: cavity photons separable


@dataclass(frozen=True)
class BoundaryCurve:
    """Sampled boundary: ordered (kt, parameter) pairs for one curve kind."""

    kind: str
    samples: tuple

    def __post_init__(self):
        if self.kind not in ("lambda5", "lambda7", "gghz"):
            raise ValueError(f"unknown boundary kind {self.kind!r}")
        kts = [kt for kt, _ in self.samples]
        if any(b <= a for a, b in zip(kts, kts[1:])):
            raise ValueError("kt samples must be strictly increasing")
        if any(not 0.0 <= v <= 1.0 for _, v in self.samples):
            raise ValueError("boundary parameter values must lie in [0, 1]")


def _check_positive_time(kt):
    if kt <= 0.0:
        raise ValueError(f"boundary curves need kt > 0, got {kt}")


def _as_unit_interval(value, what):
    if -1e-12 <= value < 0.0:
        return 0.0
    if 1.0 < value <= 1.0 + 1e-12:
        return 1.0
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{what} = {value} falls outside [0, 1]")
    return float(value)


def lambda5_boundary(kt):
    """Mix probability where the lambda5 eigenvalue crosses zero at time kt.

    Increases from 0 toward 1 with kt.
    """
    _check_positive_time(kt)
    u = np.exp(kt)
    p = 2.0 * u ** 2 * (u - 1.0) / (3.0 - 9.0 * u + 7.0 * u ** 2 + 2.0 * u ** 3)
    return _as_unit_interval(p, "lambda5 boundary probability")


def lambda7_boundary(kt):
    """Mix probability where the lambda7 eigenvalue crosses zero at time kt.

    Decreases from 1 toward 1/4 with kt.
    """
    _check_positive_time(kt)
    u = np.exp(kt)
    d = 17.0 - 68.0 * u + 102.0 * u ** 2 - 76.0 * u ** 3 + 25.0 * u ** 4
    num = 9.0 - 18.0 * u + 17.0 * u ** 2 - 3.0 * np.sqrt(max(d, 0.0))
    den = 8.0 * u ** 2 - 9.0 * u ** -2 * (1.0 - 4.0 * u + 4.0 * u ** 2 - u ** 3)
    return _as_unit_interval(num / den, "lambda7 boundary probability")


def gghz_esd_boundary(kt):
    """Generalized-GHZ amplitude whose negativity dies exactly at time kt.

    Increases from 0 toward sqrt(2)/2 with kt.
    """
    _check_positive_time(kt)
    g = (np.exp(kt) - 1.0) ** 3
    return _as_unit_interval(np.sqrt(g / (g + np.exp(3.0 * kt))),
                             "generalized-GHZ boundary amplitude")


def sample_boundary(kind, kt_values):
    """Evaluate one boundary curve on an increasing kt grid."""
    fn = {"lambda5": lambda5_boundary,
          "lambda7": lambda7_boundary,
          "gghz": gghz_esd_boundary}.get(kind)
    if fn is None:
        raise ValueError(f"unknown boundary kind {kind!r}")
    return BoundaryCurve(kind=kind,
                         samples=tuple((float(kt), fn(kt)) for kt in kt_values))


def classify_region(p, kt):
    """Assign (p, kt) to a sign region of (lambda5, lambda7).

    Eigenvalues within the tie tolerance of zero count as nonnegative, so
    separability (region IV) is only declared when neither eigenvalue is
    clearly negative.
    """
    spec = closed_form_pt_eigenvalues(p, kt)
    neg5 = spec.lambda5 < -BOUNDARY_TIE_TOL
    neg7 = spec.lambda7 < -BOUNDARY_TIE_TOL
    if neg5 and neg7:
        return RegionClass.I
    if neg5:
        return RegionClass.II
    if neg7:
        return RegionClass.III
    return RegionClass.IV


def _expand_bracket(f, lo, hi, hi_cap=120.0):
    flo = f(lo)
    while f(hi) * flo > 0.0:
        hi *= 2.0
        if hi > hi_cap:
            raise RuntimeError("failed to bracket a sign change")
    return lo, hi


def _solve_boundary_time(boundary, p):
    f = lambda kt: boundary(kt) - p
    lo, hi = _expand_bracket(f, 1e-9, 1.0)
    return bisect(f, lo, hi, xtol=BISECT_XTOL, maxiter=BISECT_MAXITER)


def esd_time(p):
    """Time after which the cavity negativity stays zero, or None.

    The death time is the later of the two eigenvalue zero crossings,
    located by inverting the monotone boundary curves.  Families without a
    finite death (p <= 1/4, where lambda7 stays negative, and p = 1, where
    lambda5 does) return None.  The result is confirmed by two probes of
    the closed-form negativity past the crossing.
    """
    _check_probability(p)
    if p <= ESD_ONSET_PROBABILITY or p >= 1.0:
        return None
    t5 = _solve_boundary_time(lambda5_boundary, p)
    t7 = _solve_boundary_time(lambda7_boundary, p)
    t = max(t5, t7)
    for probe in (t + 0.01, t + 1.0):
        n = negativity_from_spectrum(closed_form_pt_eigenvalues(p, probe))
        if n > ZERO_ENTANGLEMENT:
            raise RuntimeError(f"negativity {n} at kt={probe} contradicts the "
                               f"death time {t} for p={p}")
    return float(t)


def _golden_min(f, lo, hi, tol=GOLDEN_TOL):
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def min_esd_point():
    """The (p, kt) point of earliest possible sudden death.

    Golden-section search over the open interval where death is finite;
    the death time is V-shaped there (one boundary time falls while the
    other rises), so the minimum is unique.
    """
    p = _golden_min(esd_time, ESD_ONSET_PROBABILITY + 1e-4, 1.0 - 1e-4)
    return float(p), float(esd_time(p))


def initial_negativity(p):
    """Cavity negativity of the mixture before any decay."""
    return negativity_from_spectrum(closed_form_pt_eigenvalues(p, 0.0))


def min_initial_negativity():
    """The (p, negativity) minimum of the undamped mixture's entanglement."""
    p = _golden_min(initial_negativity, 0.0, 1.0)
    return float(p), float(initial_negativity(p))


def esd_threshold_probability():
    """Mix probability below which the decay is asymptotic.

    Evaluates the lambda7 boundary deep in the decayed regime, where the
    curve has converged to its large-time limit.
    """
    return lambda7_boundary(40.0)


def gghz_esd_time(a):
    """Death time of the generalized-GHZ family at amplitude a, or None.

    Inverts the death boundary: finite only for a below sqrt(2)/2.
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"amplitude a={a} outside [0, 1]")
    b_sq = 1.0 - a * a
    if a * a >= b_sq:  # at and above sqrt(2)/2 the decay is asymptotic
        return None
    if a == 0.0:
        return 0.0
    return float(-np.log(1.0 - (a * a / b_sq) ** (1.0 / 3.0)))


def equal_entanglement_range():
    """Amplitude window where the generalized GHZ matches the mixture's
    initial entanglement across its anomalous mixing window.

    The anomalous window p in [7 - sqrt(45), 4 * 2^(1/3) / (3 + 4 * 2^(1/3))]
    ~ [0.2918, 0.6269] is where the mixture is entangled although both the
    pairwise concurrences and the three-tangle vanish (Lohmayer et al.,
    PRL 97, 260502, 2006).  Each p on it is matched by the amplitude
    solving 2ab = N(p, kt=0).  N is not monotone there: it falls from the
    lower edge to its minimum 0.6426 at p ~ 0.4647 and rises again, so the
    window's lower amplitude comes from that interior minimum and the
    upper one from the larger edge negativity.
    Returns (a_low, a_high, largest generalized-GHZ death time on the
    window) ~ (0.3419, 0.3632, 0.7628).
    """
    p_lo = 7.0 - np.sqrt(45.0)
    p_hi = 4.0 * 2.0 ** (1.0 / 3.0) / (3.0 + 4.0 * 2.0 ** (1.0 / 3.0))
    n_low = initial_negativity(_golden_min(initial_negativity, p_lo, p_hi,
                                           tol=WINDOW_GOLDEN_TOL))
    n_high = max(initial_negativity(p_lo), initial_negativity(p_hi))
    a_low, a_high = (float(np.sqrt((1.0 - np.sqrt(1.0 - n * n)) / 2.0))
                     for n in (n_low, n_high))
    return a_low, a_high, gghz_esd_time(a_high)


def swap_check(p, kt):
    """Verify that the reservoir state equals the cavity state with the
    damping amplitudes interchanged; returns (ok, max entrywise deviation)."""
    _check_probability(p)
    xi, chi = amplitudes(kt)
    res = reduce(global_output_state_from_amplitudes(p, xi, chi),
                 ["r1", "r2", "r3"])
    cav_swapped = reduce(global_output_state_from_amplitudes(p, chi, xi),
                         ["c1", "c2", "c3"])
    dev = float(np.max(np.abs(res.data - cav_swapped.data)))
    return dev < 1e-12, dev


def esb_time(t_esd):
    """Reservoir entanglement birth time implied by a cavity death time.

    The amplitude swap pairs the two events: the reservoirs ignite when
    the leaked amplitude reaches the value the surviving amplitude had at
    death, giving kt_birth = -ln(1 - exp(-kt_death)).
    """
    if t_esd <= 0.0:
        raise ValueError(f"death time must be positive, got {t_esd}")
    # -ln(1 - e^-t), in the branch of log1mexp that keeps full precision
    if t_esd < np.log(2.0):
        return float(-np.log(-np.expm1(-t_esd)))
    return float(-np.log1p(-np.exp(-t_esd)))


def reservoir_negativity(p, kt):
    """Negativity of r1 versus r2 r3 in the evolved reservoir state."""
    xi, chi = amplitudes(kt)
    res = reduce(global_output_state_from_amplitudes(p, xi, chi),
                 ["r1", "r2", "r3"])
    return negativity(res, ["r1"])


def esb_time_numeric(p, xtol=1e-6):
    """Locate the reservoir entanglement birth by bisection on the
    reservoir negativity; independent of the closed-form relation."""
    f = lambda kt: reservoir_negativity(p, kt) - ZERO_ENTANGLEMENT
    lo, hi = _expand_bracket(f, 1e-8, 0.5, hi_cap=60.0)
    return float(bisect(f, lo, hi, xtol=xtol, maxiter=BISECT_MAXITER))


def lambda7_formula_audit(kt_values=None):
    """Compare the printed lambda7 boundary expression against an
    independent bisection on the eigenvalue's sign change in p.

    Returns (max |formula - bisection|, samples) with one
    (kt, formula_p, bisection_p) triple per grid point.
    """
    if kt_values is None:
        kt_values = np.linspace(0.1, 4.0, 30)
    samples = []
    worst = 0.0
    for kt in kt_values:
        f = lambda p: closed_form_pt_eigenvalues(p, kt).lambda7
        root = bisect(f, 0.0, 1.0, xtol=1e-12, maxiter=BISECT_MAXITER)
        formula = lambda7_boundary(kt)
        samples.append((float(kt), formula, float(root)))
        worst = max(worst, abs(formula - root))
    return worst, samples


def swap_grid_deviation(p_steps=20, kt_steps=20, kt_max=3.0):
    """Worst entrywise swap-relation deviation over a (p, kt) grid."""
    worst, worst_point = 0.0, (0.0, 0.0)
    for p in np.linspace(0.0, 1.0, p_steps):
        for kt in np.linspace(0.0, kt_max, kt_steps):
            _, dev = swap_check(p, kt)
            if dev > worst:
                worst, worst_point = dev, (float(p), float(kt))
    return worst, worst_point


def esb_grid_deviation(p_values=None):
    """Worst gap between the closed-form birth time and the bisection-located
    one over probabilities with a finite death time."""
    if p_values is None:
        p_values = np.linspace(0.30, 0.95, 10)
    worst, worst_p = 0.0, None
    for p in p_values:
        t_death = esd_time(p)
        if t_death is None:
            raise ValueError(f"p={p} has no finite death time")
        gap = abs(esb_time(t_death) - esb_time_numeric(p))
        if gap > worst:
            worst, worst_p = gap, float(p)
    return worst, worst_p


def region_grid_audit(p_steps=40, kt_steps=40, kt_max=3.0):
    """Check region IV means zero numeric negativity and regions I-III mean
    nonzero, over a (p, kt) grid.

    Returns (violations, smallest negativity seen outside IV, largest
    negativity seen inside IV).
    """
    violations = []
    min_entangled, max_separable = np.inf, 0.0
    for p in np.linspace(0.0, 1.0, p_steps):
        for kt in np.linspace(0.0, kt_max, kt_steps):
            cav = reduce(global_output_state(p, kt), ["c1", "c2", "c3"])
            n = negativity(cav, ["c1"])
            region = classify_region(p, kt)
            if region is RegionClass.IV:
                max_separable = max(max_separable, n)
                if n >= ZERO_ENTANGLEMENT:
                    violations.append((float(p), float(kt), region.value, n))
            else:
                min_entangled = min(min_entangled, n)
                if n <= ZERO_ENTANGLEMENT:
                    violations.append((float(p), float(kt), region.value, n))
    return violations, float(min_entangled), float(max_separable)
