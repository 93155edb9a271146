"""Sudden-death and sudden-birth analysis of the dissipating register.

The two sign-changing partial-transpose eigenvalues carve the (kt, p) plane
into four regions.  Where both are positive the cavity photons are
separable, so entanglement dies at a finite time; the boundary curves, the
death times they induce, the generalized-GHZ counterpart, and the exact
cavity/reservoir swap relation all live here.
"""

from enum import Enum

import numpy as np

from .entanglement import (ZERO_ENTANGLEMENT, Check, _at_most, _row_blocks, _square_grid,
                           closed_form_pt_eigenvalues, dense_cavity_negativity, grid_worst,
                           marginal_negativity, negativity_from_spectrum)
from .linalg import _item
from .states import (RESERVOIR_LAYOUT, _check_probability, _check_time, _partner_amplitude,
                     amplitudes, global_output_state, global_output_state_from_amplitudes,
                     reduce)

# Large-time limit of the lambda7 boundary curve: below this mix probability
# the eigenvalue never turns positive and the decay stays asymptotic.
ESD_ONSET_PROBABILITY = 0.25

# 6 dN(p, 0)/dp = 0 with both square roots cleared by squaring twice
# (sympy), highest power first.  Squaring adds a spurious root near 0.3214.
INITIAL_NEGATIVITY_STATIONARY = (-26896000, 94726400, -145141600, 121730912, -58629376,
                                 23685632, -3447040, -2560000, 730112)


class RegionClass(Enum):
    """Sign regions of the two negative-capable eigenvalues (lambda5, lambda7)."""

    I = "I"      # lambda5 < 0, lambda7 < 0
    II = "II"    # lambda5 < 0, lambda7 >= 0
    III = "III"  # lambda5 >= 0, lambda7 < 0
    IV = "IV"    # both nonnegative: cavity photons separable


# The sign changes as polynomials in e = exp(-kt), highest power first:
# lambda5 = 0 on Q5 = 3p e^3 - 9p e^2 + (7p + 2) e + 2p - 2, and lambda7 = 0
# on Q7 = 9p^2 e^4 - 36p^2 e^3 + (36p^2 + 18p) e^2 - (9p^2 + 36p) e
# - 8p^2 + 34p - 8.  Q5 is linear and Q7 quadratic in p.
def _q5(p):
    return (3.0 * p, -9.0 * p, 7.0 * p + 2.0, 2.0 * p - 2.0)


def _q7(p):
    # the constant term, factored, keeps its digits near the onset p = 1/4
    return (9.0 * p * p, -36.0 * p * p, 36.0 * p * p + 18.0 * p,
            -(9.0 * p * p + 36.0 * p), 2.0 * (4.0 * p - 1.0) * (4.0 - p))


def _chi_sq(kt):
    """The leaked weight chi^2 = 1 - e, exact as kt -> 0 and as kt -> inf."""
    if not kt > 0.0:  # nan fails too
        raise ValueError(f"boundary curves need kt > 0, got {kt}")
    return -np.expm1(-kt)


def lambda5_boundary(kt):
    """Mix probability where the lambda5 eigenvalue crosses zero at time kt.

    The root of Q5 in p: 2(1 - e) / (3e^3 - 9e^2 + 7e + 2).  Increases from
    0 toward 1 with kt.
    """
    om = _chi_sq(kt)
    e = 1.0 - om
    return float(2.0 * om / (((3.0 * e - 9.0) * e + 7.0) * e + 2.0))


def lambda7_boundary(kt):
    """Mix probability where the lambda7 eigenvalue crosses zero at time kt.

    The root in [0, 1] of Q7 as a quadratic A p^2 + B p - 8 in p, taken as
    16 / (B + sqrt(B^2 + 32A)).  In o = 1 - e, B = 18o^2 + 16 and
    B^2 + 32A = 36o(17o^3 + 8), which does not cancel as kt -> 0.
    Decreases from 1 toward 1/4 with kt.
    """
    om = _chi_sq(kt)
    return float(16.0 / (18.0 * om * om + 16.0
                         + 6.0 * np.sqrt(om * (17.0 * om ** 3 + 8.0))))


def gghz_esd_boundary(kt):
    """Generalized-GHZ amplitude whose negativity dies exactly at time kt.

    a^2 = (1 - e)^3 / ((1 - e)^3 + 1).  Increases from 0 toward sqrt(2)/2
    with kt.
    """
    g = _chi_sq(kt) ** 3
    return float(np.sqrt(g / (g + 1.0)))


def sample_boundary(kind, kt_values):
    """Evaluate one boundary curve on an increasing kt grid.

    Returns the (kt, parameter) pairs in grid order.
    """
    fn = {"lambda5": lambda5_boundary,
          "lambda7": lambda7_boundary,
          "gghz": gghz_esd_boundary}.get(kind)
    if fn is None:
        raise ValueError(f"unknown boundary kind {kind!r}")
    kts = [float(kt) for kt in kt_values]
    if any(b <= a for a, b in zip(kts, kts[1:])):
        raise ValueError("kt samples must be strictly increasing")
    samples = tuple((kt, fn(kt)) for kt in kts)
    if any(not 0.0 <= v <= 1.0 for _, v in samples):  # a numerical failure
        raise RuntimeError("boundary parameter values must lie in [0, 1]")
    return samples


# indexed by (lambda5 negative, lambda7 negative)
_REGIONS = np.array([[RegionClass.IV, RegionClass.III],
                     [RegionClass.II, RegionClass.I]], dtype=object)


def classify_region(p, kt):
    """Assign (p, kt) to a sign region of (lambda5, lambda7), elementwise
    for arrays; a scalar call returns the RegionClass member itself.

    The signs come from Q5 and Q7, with no tie tolerance: lambda5 lambda6
    = -e^3 p Q5 / 12 and lambda7 lambda8 = e^2 Q7 / 36, where lambda6 and
    lambda8 are positive.  Both stay bounded in e, so the result is exact
    on [0, inf).  Where e underflows (kt > ~745), the smallest positive e
    keeps the sign of the lowest nonzero term, so the GHZ row (p = 1)
    stays in region II.
    """
    _check_probability(p)
    _check_time(kt)
    e = np.maximum(np.exp(-kt), np.finfo(float).smallest_subnormal)
    q5, q7 = np.polyval(_q5(p), e), np.polyval(_q7(p), e)
    return _REGIONS[np.greater(p * q5, 0.0).astype(int), np.less(q7, 0.0).astype(int)]


def _decay_root(coeffs, what):
    """The one root e in (0, 1] of a polynomial; a root within rounding
    above 1 is a crossing at kt = 0."""
    r = np.roots(coeffs)
    r = r.real[(np.abs(r.imag) <= 1e-9) & (r.real > 0.0) & (r.real <= 1.0 + 1e-9)]
    if r.size != 1:
        raise RuntimeError(f"{what}: expected one root in (0, 1], got {r.size}")
    return min(float(r[0]), 1.0)


def esd_time(p):
    """Time after which the cavity negativity stays zero, or None.

    The death time is the later of the two eigenvalue zero crossings, -ln
    of the smaller of the roots of Q5 and Q7 in e, and nothing re-checks
    it: past that root both polynomials keep the separable sign.  Families
    without a finite death (p <= 1/4, where lambda7 stays negative, and
    p = 1, where lambda5 does) return None.
    """
    _check_probability(p)
    if p <= ESD_ONSET_PROBABILITY or p >= 1.0:
        return None
    return float(-np.log(min(_decay_root(_q5(p), "lambda5 crossing"),
                             _decay_root(_q7(p), "lambda7 crossing"))))


def min_esd_point():
    """The (p, kt) point of earliest possible sudden death.

    The death time is V-shaped in p (one crossing time falls while the
    other rises), so its minimum is where both eigenvalues vanish at once.
    The resultant of Q5 and Q7 in p is -72 (2e^2 (e^2 - 3e + 3)^2 - 1),
    whose root in (0, 1) has (1 - e)^3 = 1 - sqrt(2)/2.
    """
    kt = float(-np.log1p(-(1.0 - np.sqrt(0.5)) ** (1.0 / 3.0)))
    return lambda5_boundary(kt), kt


def initial_negativity(p):
    """Cavity negativity of the mixture before any decay."""
    return negativity_from_spectrum(closed_form_pt_eigenvalues(p, 0.0))


def min_initial_negativity(lo=0.0, hi=1.0):
    """The (p, negativity) minimum of the undamped mixture's entanglement
    over [lo, hi]: at an edge or at a real root of its stationary
    polynomial.  Comparing N also discards the spurious root."""
    roots = np.roots(INITIAL_NEGATIVITY_STATIONARY)
    stationary = roots.real[(np.abs(roots.imag) <= 1e-9)
                            & (roots.real >= lo) & (roots.real <= hi)]
    p = min([lo, hi, *stationary], key=initial_negativity)
    return float(p), float(initial_negativity(p))


def esd_threshold_probability():
    """Mix probability below which the decay is asymptotic: lambda7's
    boundary at kt = inf, where e = 0 and Q7 is 2(4p - 1)(4 - p), so 1/4."""
    return lambda7_boundary(np.inf)


def gghz_esd_time(a):
    """Death time of the generalized-GHZ family at amplitude a, or None.

    Inverts the death boundary, (1 - e)^3 = a^2 / b^2: finite only for a
    below sqrt(2)/2.  The cube roots come first, so a tiny a neither
    underflows in a * a nor loses digits in a power."""
    _partner_amplitude(a)  # refuses a outside [0, 1], nan included
    b_sq = 1.0 - a * a
    if a * a >= b_sq:  # at and above sqrt(2)/2 the decay is asymptotic
        return None
    return float(-np.log1p(-np.cbrt(a) ** 2 / np.cbrt(b_sq)))


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
    n_low = min_initial_negativity(p_lo, p_hi)[1]
    n_high = max(initial_negativity(p_lo), initial_negativity(p_hi))
    a_low, a_high = (float(np.sqrt((1.0 - np.sqrt(1.0 - n * n)) / 2.0))
                     for n in (n_low, n_high))
    return a_low, a_high, gghz_esd_time(a_high)


def swap_check(p, kt):
    """Verify that the reservoir state equals the cavity state with the
    damping amplitudes interchanged; returns (ok, max entrywise deviation),
    elementwise for arrays of p and kt."""
    xi, chi = amplitudes(kt)
    res = reduce(global_output_state_from_amplitudes(p, xi, chi),
                 ["r1", "r2", "r3"])
    cav_swapped = reduce(global_output_state_from_amplitudes(p, chi, xi),
                         ["c1", "c2", "c3"])
    dev = _item(np.max(np.abs(res.data - cav_swapped.data), axis=(-2, -1)))
    return dev < 1e-12, dev


def esb_time(t_esd):
    """Reservoir entanglement birth time implied by a cavity death time.

    The amplitude swap pairs the two events: the reservoirs ignite when
    the leaked amplitude reaches the value the surviving amplitude had at
    death, giving kt_birth = -ln(1 - exp(-kt_death)).
    """
    if not t_esd > 0.0:  # nan fails too
        raise ValueError(f"death time must be positive, got {t_esd}")
    # -ln(1 - e^-t), in the branch of log1mexp that keeps full precision
    if t_esd < np.log(2.0):
        return float(-np.log(-np.expm1(-t_esd)))
    return float(-np.log1p(-np.exp(-t_esd)))


def reservoir_negativity(p, kt):
    """Negativity of r1 versus r2 r3 in the evolved reservoir state."""
    return marginal_negativity(global_output_state(p, kt), RESERVOIR_LAYOUT.labels)


def _bisect(f, lo, hi, xtol):
    """Sign change of f on [lo, hi]; returns (root, iterations).

    An array-valued f bisects each of its members in lockstep: a member
    stops once its own interval is within xtol, so it takes the midpoints
    and the iteration count a scalar call on it would.
    """
    f_lo = f(lo)
    if np.any(f_lo * f(hi) > 0.0):
        raise RuntimeError(f"no sign change on [{lo}, {hi}]")
    lo, hi, f_lo = (np.array(x) for x in np.broadcast_arrays(lo, hi, f_lo))
    iterations = np.zeros(lo.shape, dtype=int)
    while (active := hi - lo > xtol).any():
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        up = active & (f_mid * f_lo > 0.0)
        lo, f_lo = np.where(up, mid, lo), np.where(up, f_mid, f_lo)
        hi = np.where(active & ~up, mid, hi)
        iterations += active
    return _item(0.5 * (lo + hi)), iterations if iterations.ndim else int(iterations)


def esb_time_numeric(p):
    """Locate the reservoir entanglement birth, to 1e-6 in kt, by bisection
    on the reservoir negativity; independent of the closed-form relation.
    An array of p bisects in lockstep, one stack of states per step.

    Every birth comes before esb_time of the earliest death, kt ~ 0.41, so
    [1e-8, 1] brackets it unless the death is later than kt ~ 18.
    """
    f = lambda kt: reservoir_negativity(p, kt) - ZERO_ENTANGLEMENT
    return _bisect(f, 1e-8, 1.0, 1e-6)[0]


def swap_grid_deviation(tolerance=1e-12):
    """The swap relation over a 20x20 (p, kt) grid: one Check of the worst
    entrywise deviation."""
    ps, kts = _square_grid(20)
    devs = _row_blocks(lambda p, kt: swap_check(p, kt)[1], ps, kts)
    return [_at_most("cavity/reservoir swap", tolerance, devs, ps, kts)]


def esb_grid_deviation(tolerance=1e-3):
    """The closed-form birth time against the bisection-located one over ten
    probabilities in [0.30, 0.95], each with a finite death time: one Check
    of the worst gap."""
    p_values = np.linspace(0.30, 0.95, 10)
    births = [esb_time(esd_time(p)) for p in p_values]
    gaps = np.abs(np.array(births) - esb_time_numeric(p_values))
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
