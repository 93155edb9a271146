"""Sudden-death and sudden-birth analysis of the dissipating register.

The two sign-changing partial-transpose eigenvalues carve the (kt, p) plane
into four regions.  Where both are positive the cavity photons are
separable, so entanglement dies at a finite time; the boundary curves, the
death times they induce, the generalized-GHZ counterpart, and the exact
cavity/reservoir swap relation all live here; the grid audits of them are
the verify suites in cavres.cli.
"""

from enum import Enum

import numpy as np

from .entanglement import (ZERO_ENTANGLEMENT, _q5_eo, closed_form_pt_eigenvalues,
                           marginal_negativity, negativity_from_spectrum)
from .linalg import _item, _require
from .states import (RESERVOIR_LAYOUT, _check_probability, _chi_sq, _global_state,
                     _partner_amplitude, amplitudes, ghz, global_output_state, reduce, w)

# Large-time limit of the lambda7 boundary curve: below this mix probability
# the eigenvalue never turns positive and the decay stays asymptotic.
ESD_ONSET_PROBABILITY = 0.25

# The mixture's anomalous window ~ [0.2918, 0.6269], where it is entangled
# although the pairwise concurrences and the three-tangle vanish (Lohmayer et
# al., PRL 97, 260502, 2006): the roots in (0, 1) of p^2 - 14p + 4 and of
# 27p^3 - 128(1 - p)^3.  The first, 7 - sqrt(45), is taken as 4 / (7 +
# sqrt(45)), which does not cancel: the difference is 6 ulp off.
ANOMALOUS_WINDOW = (4.0 / (7.0 + np.sqrt(45.0)),
                    4.0 * 2.0 ** (1.0 / 3.0) / (3.0 + 4.0 * 2.0 ** (1.0 / 3.0)))

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


def lambda5_boundary(kt):
    """Mix probability where the lambda5 eigenvalue crosses zero at time kt.

    The root of Q5 in p: 2(1 - e) / (3e^3 - 9e^2 + 7e + 2).  Increases from
    0 toward 1 with kt.  Like the other two curves, elementwise for arrays.
    """
    om = _chi_sq(kt)
    e = 1.0 - om
    return _item(2.0 * om / (((3.0 * e - 9.0) * e + 7.0) * e + 2.0))


def lambda7_boundary(kt):
    """Mix probability where the lambda7 eigenvalue crosses zero at time kt.

    The root in [0, 1] of Q7 as a quadratic A p^2 + B p - 8 in p, taken as
    16 / (B + sqrt(B^2 + 32A)).  In o = 1 - e, B = 18o^2 + 16 and
    B^2 + 32A = 36o(17o^3 + 8), which does not cancel as kt -> 0.
    Decreases from 1 toward 1/4 with kt.
    """
    om = _chi_sq(kt)
    return _item(16.0 / (18.0 * om * om + 16.0
                         + 6.0 * np.sqrt(om * (17.0 * np.float_power(om, 3) + 8.0))))


def gghz_esd_boundary(kt):
    """Generalized-GHZ amplitude whose negativity dies exactly at time kt.

    a^2 = o^3 / (o^3 + 1) with o = 1 - e, taken as o sqrt(o / (o^3 + 1)),
    which stays normal where o^3 underflows (kt below ~1e-108) down to kt
    ~ 1e-205.  Increases from 0 toward sqrt(2)/2 with kt.
    """
    om = _chi_sq(kt)
    return _item(om * np.sqrt(om / (np.float_power(om, 3) + 1.0)))


# indexed by (lambda5 negative, lambda7 negative)
_REGIONS = np.array([[RegionClass.IV, RegionClass.III],
                     [RegionClass.II, RegionClass.I]], dtype=object)


def classify_region(p, kt):
    """Assign (p, kt) to a sign region of (lambda5, lambda7), elementwise
    for arrays; a scalar call returns the RegionClass member itself.

    The signs come from Q5 and Q7, with no tie tolerance: lambda5 lambda6
    = -e^3 p Q5 / 12 and lambda7 lambda8 = e^2 Q7 / 36, where lambda6 and
    lambda8 are positive; p and Q5 are tested apart, as p Q5 can underflow.
    Q5 is entanglement._q5_eo, lambda5's own.  Q7's e-form cancels as kt -> 0,
    so where e > 1/2 it is 9p^2 o^4 + 18p(1 - p) o^2 + 9p^2 o - 8(1 - p)^2 in
    o = 1 - e, each part to a few ulp; that cancels near p = 1/4 as e -> 0, where
    the e-form is kept.  Where e underflows (kt > ~745), the smallest positive e
    keeps the sign of the lowest nonzero term, so the GHZ row stays in region II.
    """
    _check_probability(p)
    o, r = _chi_sq(kt), 1.0 - p
    e = np.maximum(np.exp(-kt), np.finfo(float).smallest_subnormal)
    q5 = _q5_eo(p, e, o)
    q7_o = ((9.0 * p * p * o * o + 18.0 * p * r) * o + 9.0 * p * p) * o - 8.0 * r * r
    q7 = np.where(e > 0.5, q7_o, np.polyval(_q7(p), e))
    return _REGIONS[((p > 0.0) & (q5 > 0.0)).astype(int), np.less(q7, 0.0).astype(int)]


def _death_time(p):
    """-ln of the smaller of the one root e in (0, 1] of Q5 and of Q7, per p in
    (1/4, 1), a root within rounding above 1 being a crossing at kt = 0.  One
    eigvals call per polynomial solves np.roots' companion matrices, stacked."""
    crossings = []
    for coeffs, what in ((_q5(p), "lambda5 crossing"), (_q7(p), "lambda7 crossing")):
        k = len(coeffs) - 1
        companion = np.zeros(np.shape(p) + (k * k,))  # flat: the first row, ones below the diagonal
        companion[..., k::k + 1] = 1.0
        for i, c in enumerate(coeffs[1:]):
            companion[..., i] = -c / coeffs[0]
        r = np.linalg.eigvals(companion.reshape(np.shape(p) + (k, k)))
        ok = (np.abs(r.imag) <= 1e-9) & (r.real > 0.0) & (r.real <= 1.0 + 1e-9)
        if (bad := (count := ok.sum(axis=-1)) != 1).any():
            raise RuntimeError(f"{what}: expected one root in (0, 1], got {count[bad].flat[0]}")
        crossings.append(r.real[ok])  # one per p, in order
    return -np.log(np.minimum(np.minimum(*crossings), 1.0)).reshape(np.shape(p))


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
    return float(_death_time(p))


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
    if not lo <= hi:  # nan fails too
        raise ValueError(f"the interval needs lo <= hi, got [{lo}, {hi}]")
    roots = np.roots(INITIAL_NEGATIVITY_STATIONARY)
    real = roots.real[np.abs(roots.imag) <= 1e-9].tolist()
    p = np.array([lo, hi, *(r for r in real if lo <= r <= hi)])
    n = initial_negativity(p)
    return float(p[np.argmin(n)]), float(np.min(n))  # argmin: the first minimum wins


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

    Each p on ANOMALOUS_WINDOW is matched by the amplitude solving
    2ab = N(p, kt=0).  N is not monotone there: it falls from the
    lower edge to its minimum 0.6426 at p ~ 0.4647 and rises again, so the
    window's lower amplitude comes from that interior minimum and the
    upper one from the larger edge negativity.
    Returns (a_low, a_high, largest generalized-GHZ death time on the
    window) ~ (0.3419, 0.3632, 0.7628).
    """
    p_lo, p_hi = ANOMALOUS_WINDOW
    n_low = min_initial_negativity(p_lo, p_hi)[1]
    n_high = float(np.max(initial_negativity(np.array([p_lo, p_hi]))))
    a_low, a_high = (float(np.sqrt((1.0 - np.sqrt(1.0 - n * n)) / 2.0))
                     for n in (n_low, n_high))
    return a_low, a_high, gghz_esd_time(a_high)


def swap_check(p, kt):
    """Verify that the reservoir state is the initial mixture damped with
    the amplitudes interchanged, each qubit through the Kraus pair
    K0 = diag(1, chi), K1 = [[0, xi], [0, 0]]; returns (ok, max entrywise
    deviation), elementwise for arrays of p and kt."""
    xi, chi = amplitudes(kt)  # unit by construction, so the unchecked builder
    res = reduce(_global_state(p, xi, chi), RESERVOIR_LAYOUT.labels)
    pair = np.zeros(np.shape(kt) + (2, 2, 2))  # (..., Kraus index, row, column)
    pair[..., 0, 0, 0], pair[..., 0, 1, 1], pair[..., 1, 0, 1] = 1.0, chi, xi
    kraus = np.einsum("...aij,...bkl,...cmn->...abcikmjln", pair, pair, pair)
    # sum K rho K^T is linear in rho: damp GHZ and W, then mix them as mixed_ghz_w does
    kv = [kraus.reshape(np.shape(kt) + (8, 8, 8)) @ v for v in (ghz().amplitudes, w().amplitudes)]
    weight = np.asarray(p, dtype=float)[..., None, None]
    damped = sum(c * (np.swapaxes(k, -1, -2) @ k) for c, k in zip((weight, 1.0 - weight), kv))
    dev = _item(np.max(np.abs(res.data - damped), axis=(-2, -1)))
    return dev < 1e-12, dev


def esb_time(t_esd):
    """Reservoir entanglement birth time implied by a cavity death time.

    The amplitude swap pairs the two events: the reservoirs ignite when
    the leaked amplitude reaches the value the surviving amplitude had at
    death, giving kt_birth = -ln(1 - exp(-kt_death)).  Elementwise for
    an array of death times.
    """
    _require(t_esd > 0.0, t_esd, "death time must be positive, got {}")  # nan fails too
    # -ln(1 - e^-t), in the branch of log1mexp that keeps full precision; the
    # long branch is evaluated at t >= ln 2 only, so log1p never meets -1
    ln2 = np.log(2.0)
    return _item(np.where(t_esd < ln2, -np.log(-np.expm1(-t_esd)),
                          -np.log1p(-np.exp(-np.maximum(t_esd, ln2)))))


def reservoir_negativity(p, kt):
    """Negativity of r1 versus r2 r3 in the evolved reservoir state."""
    return marginal_negativity(global_output_state(p, kt), RESERVOIR_LAYOUT.labels)


def _bisect(f, lo, hi, xtol):
    """Sign change of f on [lo, hi]; returns (root, iterations).

    f takes its points stacked on a new leading axis: both ends in one call,
    then two levels per call, the midpoint and both quarter points.  An
    array-valued f bisects its members in lockstep, lo and hi having as many
    axes as they do: a member stops once its own interval is within xtol, so
    it takes the midpoints and the iteration count of a one-level scalar call.
    """
    lo, hi, f_lo, f_hi = np.broadcast_arrays(lo, hi, *f(np.stack(np.broadcast_arrays(lo, hi))))
    if (same_sign := f_lo * f_hi > 0.0).any():
        raise RuntimeError(f"no sign change on [{lo[same_sign][0]}, {hi[same_sign][0]}]")
    iterations = np.zeros(lo.shape, dtype=int)
    while (hi - lo > xtol).any():
        mid = 0.5 * (lo + hi)
        f_q1, f_mid, f_q3 = f(np.stack([0.5 * (lo + mid), mid, 0.5 * (mid + hi)]))
        for _ in range(2):
            active = hi - lo > xtol
            up = active & (f_mid * f_lo > 0.0)
            lo, f_lo = np.where(up, mid, lo), np.where(up, f_mid, f_lo)
            hi = np.where(active & ~up, mid, hi)
            iterations += active
            mid, f_mid = 0.5 * (lo + hi), np.where(up, f_q3, f_q1)
    return _item(0.5 * (lo + hi)), iterations if iterations.ndim else int(iterations)


def esb_time_numeric(p):
    """Locate the reservoir entanglement birth, to 1e-6 in kt, by bisection
    on the reservoir negativity; independent of the closed-form relation.
    An array of p bisects in lockstep, in 11 stacks of states: the bracket's
    two ends, then the midpoint and both quarter points for each 2 of 20 steps.

    Every birth comes before esb_time of the earliest death, kt ~ 0.41, so
    [1e-8, 1] brackets it unless the death is later than kt ~ 18.
    """
    _require((p > ESD_ONSET_PROBABILITY) & (p < 1.0), p, "birth time needs 1/4 < p < 1, got {}")
    f = lambda kt: reservoir_negativity(p, kt) - ZERO_ENTANGLEMENT
    return _bisect(f, np.full(np.shape(p), 1e-8), 1.0, 1e-6)[0]
