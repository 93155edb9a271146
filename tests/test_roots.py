"""The death times and landmarks as exact polynomial roots.

The polynomials and the closed-form eigenvalues are checked against a
sympy certificate derived from the model (the factored characteristic
polynomial of the damped mixture's partial transpose), and so is the
algebra the landmarks rest on: the stationary polynomial of N(p, 0), the
resultant behind the earliest death and lambda7_boundary's form in o = 1 - e.
The closed forms' radicands are proved positive by interval arithmetic,
and the roots are checked against scipy's bisection on the closed forms
(where double precision resolves their sign change) and against a
60-digit mpmath bisection (over the whole domain).
"""

import mpmath as mp
import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import bisect

from cavres import (RegionClass, classify_region, esd_threshold_probability, esd_time,
                    min_esd_point)
from cavres.entanglement import (closed_form_pt_eigenvalues, gghz_negativity_closed,
                                 negativity_from_spectrum)
from cavres.esd import (ESD_ONSET_PROBABILITY, INITIAL_NEGATIVITY_STATIONARY, _bisect,
                        _q5, _q7, gghz_esd_boundary, initial_negativity, lambda5_boundary,
                        lambda7_boundary, min_initial_negativity)

E, P, LAM = sp.symbols("e p lambda", positive=True)  # the damping model's symbols
O = sp.Symbol("o", positive=True)  # o = 1 - e
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
P_STAR, KT_STAR = 0.3850407, 1.0909553   # the earliest death, to 1e-7


@pytest.fixture(scope="module")
def certificate(damping):
    """The characteristic polynomial of the c1 partial transpose of the
    damped cavity mixture, derived from the model (tests/conftest.py) and
    factored over Q(p, e), e = exp(-kt): {degree: [factors as Polys in
    lambda, leading coefficient first]}."""
    return damping.pt_charpoly_factors(damping.damp(damping.mixture))


def _quadratics(certificate):
    """The quadratic factors, lambda5 and lambda6's first: its constant term
    vanishes at p = 0."""
    return sorted(certificate[2], key=lambda quad: quad.nth(0).subs(P, 0) != 0)


def _certified_q5_q7(certificate):
    """Q5 and Q7 from the quadratic factors' constant terms over their
    leading ones: lambda5 lambda6 = -e^3 p Q5 / 12 and lambda7 lambda8 =
    e^2 Q7 / 36."""
    a, b = (sp.cancel(quad.nth(0) / quad.LC()) for quad in _quadratics(certificate))
    return sp.Poly(sp.cancel(-12 * a / (E ** 3 * P)), E), sp.Poly(sp.cancel(36 * b / E ** 2), E)


def _radicands(p, e):
    """D_a and D_b, the closed forms' radicands in e: lambda5 and lambda6 take
    sqrt(D_a), and lambda7 and lambda8 that of disc_b = u^4 D_b, u = 1/e.  Only
    +, - and * on p and e, so they may be sympy symbols or mpmath intervals."""
    d_a = ((((36 * p * p * e - 108 * p * p) * e + 93 * p * p + 24 * p) * e
            + 18 * p * p - 36 * p) * e + (p + 2) * (p + 2))
    d_b = ((((36 * p * p * e - 36 * p * (p + 2)) * e + 41 * p * p + 44 * p + 68) * e
            - 36 * (p + 2)) * e + 36)
    return d_a, d_b


def _proved_above(f, floor, depth=12):
    """Whether f(p, e) > floor on all of [0, 1]^2, by interval arithmetic.

    A box whose enclosure does not clear floor is split in four, down to a
    side of 2^-depth.  mpmath's intervals round outward, so a box that
    clears floor proves it at every point of the box.
    """
    boxes = [(mp.mpf(0), mp.mpf(1), mp.mpf(0), mp.mpf(1))]
    while boxes:
        p0, p1, e0, e1 = boxes.pop()
        if f(mp.iv.mpf([p0, p1]), mp.iv.mpf([e0, e1])).a > floor:
            continue
        if p1 - p0 <= 2.0 ** -depth:
            return False
        pm, em = (p0 + p1) / 2, (e0 + e1) / 2
        boxes += [(p0, pm, e0, em), (pm, p1, e0, em), (p0, pm, em, e1), (pm, p1, em, e1)]
    return True


def _exact(coeffs):
    """The program's polynomial coefficients, taken at the symbol P, as
    exact rationals in P."""
    return [sp.expand(sp.nsimplify(c, rational=True)) for c in coeffs]


def _in_e(poly):
    """The program's polynomial _q5 or _q7 as an exact expression in E and P."""
    return sum(c * E ** k for k, c in enumerate(reversed(_exact(poly(P)))))


class TestCertificate:
    def test_factors_into_four_lines_and_two_quadratics(self, certificate):
        assert sorted(certificate) == [1, 2]
        assert len(certificate[1]) == 4 and len(certificate[2]) == 2

    def test_q5_and_q7_are_exactly_the_programs(self, certificate):
        q5, q7 = _certified_q5_q7(certificate)
        assert [sp.expand(c) for c in q5.all_coeffs()] == _exact(_q5(P))
        assert [sp.expand(c) for c in q7.all_coeffs()] == _exact(_q7(P))

    @pytest.mark.parametrize("kt", [0.0, 0.35, 1.1, 2.9])
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.62, 1.0])
    def test_closed_forms_are_the_roots_of_their_factors(self, certificate, p, kt):
        lam = closed_form_pt_eigenvalues(p, kt).lambdas
        point = {P: p, E: np.exp(-kt)}
        linear = [[float(c.subs(point)) for c in line.all_coeffs()] for line in certificate[1]]
        np.testing.assert_allclose(sorted(lam[:4]), sorted(-b / a for a, b in linear),
                                   rtol=0, atol=1e-15)
        for quad, pair in zip(_quadratics(certificate), (lam[4:6], lam[6:])):
            roots = np.roots([float(c.subs(point)) for c in quad.all_coeffs()])
            np.testing.assert_allclose(np.sort(pair), np.sort(roots), rtol=0, atol=1e-15)


class TestRadicands:
    """The closed forms take np.sqrt of D_a and disc_b = u^4 D_b unclamped:
    D_a and D_b are polynomials in (p, e) that stay above 2 on the whole
    domain."""

    def test_discriminants_are_the_radicands(self, certificate):
        # (lambda6 - lambda5)^2 = e^2 D_a / 36 and (lambda8 - lambda7)^2 = D_b / 36
        d_a, d_b = _radicands(P, E)
        for quad, gap_sq in zip(_quadratics(certificate), (E ** 2 * d_a / 36, d_b / 36)):
            assert sp.expand(sp.cancel(sp.discriminant(quad) / quad.LC() ** 2) - gap_sq) == 0

    @pytest.mark.parametrize("which", [0, 1], ids=["D_a", "D_b"])
    def test_above_two_on_the_whole_square(self, which):
        assert _proved_above(lambda p, e: _radicands(p, e)[which], 2)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 170.0))
    def test_closed_form_never_warns(self, p, kt):
        # a negative float radicand would warn in np.sqrt; u^4 overflows from kt ~ 177
        spectrum = closed_form_pt_eigenvalues(p, kt)
        assert np.isfinite(spectrum.lambdas).all()


class TestPolynomials:
    @pytest.mark.parametrize("p", [0.26, 0.385, 0.5, 0.9, 0.99999])
    def test_q5_and_q7_expand_the_closed_forms(self, certificate, p):
        q5, q7 = _certified_q5_q7(certificate)
        for poly, coeffs in ((q5, _q5(p)), (q7, _q7(p))):
            expected = [float(c.subs(P, p)) for c in poly.all_coeffs()]
            np.testing.assert_allclose(coeffs, expected, rtol=1e-14, atol=1e-14)

    def test_stationary_polynomial_of_the_initial_negativity(self, certificate):
        # at e = 1 both quadratic factors a lambda^2 + b lambda + c have the
        # radicand f = 36 disc / a^2 (D_a and D_b of the closed forms) and the
        # lower root (-b / a - sqrt(f) / 6) / 2; lambda5 and lambda7 are at most
        # 0 there, so N = -2 (lambda5 + lambda7) reads
        # 6 N(p, 0) = sqrt(f1) + sqrt(f2) + 6 (b1 / a1 + b2 / a2)
        quads = _quadratics(certificate)
        assert all(quad.LC().is_positive for quad in quads)
        f1, f2 = (sp.expand(sp.cancel(36 * sp.discriminant(quad) / quad.LC() ** 2).subs(E, 1))
                  for quad in quads)
        assert sp.expand(6 * sum(quad.nth(1) / quad.LC() for quad in quads).subs(E, 1)) == -2 - P
        # so 6 N' = 0 reads f1' / sqrt(f1) + f2' / sqrt(f2) = 2; clear both roots by squaring
        h1, h2 = sp.diff(f1, P), sp.diff(f2, P)
        poly = sp.Poly(sp.expand((4 * f1 * f2 + h2 ** 2 * f1 - h1 ** 2 * f2) ** 2
                                 - 16 * h2 ** 2 * f1 ** 2 * f2), P)
        assert poly.all_coeffs() == [256 * c for c in INITIAL_NEGATIVITY_STATIONARY]

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.4647, 0.8, 1.0])
    def test_initial_negativity_closed_form(self, p):
        expected = (np.sqrt(40 * p * p - 8 * p + 4) + np.sqrt(41 * p * p - 64 * p + 32)
                    - 2.0 - p) / 6.0
        assert abs(initial_negativity(p) - expected) < 1e-15

    def test_spurious_root_is_discarded(self):
        roots = np.roots(INITIAL_NEGATIVITY_STATIONARY)
        real = sorted(r.real for r in roots
                      if abs(r.imag) <= 1e-9 and 0.0 <= r.real <= 1.0)
        assert len(real) == 2 and abs(real[0] - 0.3214) < 1e-4
        p, n = min_initial_negativity()
        assert abs(p - real[1]) < 1e-15
        assert n < initial_negativity(real[0])


def _bisect_death(p):
    """Death time by scipy's bisection on the closed-form eigenvalues."""
    crossing = lambda which: bisect(
        lambda kt: getattr(closed_form_pt_eigenvalues(p, kt), which),
        0.0, 12.0, xtol=1e-13, maxiter=500)
    return max(crossing("lambda5"), crossing("lambda7"))


def _mp_lambda5_lambda7(p, kt):
    """12 lambda5 and 12 lambda7, the closed forms in the caller's mpmath
    precision: the only eigenvalues that can be negative."""
    e = mp.exp(-kt)
    u = 1 / e
    lin_a = e * (2 - 2 * p + 3 * (1 - e) * p)
    disc_a = (18 * u ** 3 * p * (p - 2) + 36 * p ** 2 - 108 * u * p ** 2
              + u ** 4 * (p + 2) ** 2 + 3 * u ** 2 * p * (8 + 31 * p))
    lin_b = 3 * (p + (1 - e) ** 3 * p + (1 - e) * (2 - 2 * p + e ** 2 * p))
    disc_b = (36 * (u ** 4 + p ** 2 - u ** 3 * (p + 2) - u * p * (p + 2))
              + u ** 2 * (68 + 44 * p + 41 * p ** 2))
    return lin_a - e ** 3 * mp.sqrt(disc_a), lin_b - e ** 2 * mp.sqrt(disc_b)


def _mp_death(p):
    """Death time by 60-digit bisection on the closed-form eigenvalues."""
    with mp.workdps(60):
        p = mp.mpf(p)
        crossings = []
        for index in (0, 1):
            lo, hi = mp.mpf(0), mp.mpf(40)
            for _ in range(80):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if _mp_lambda5_lambda7(p, mid)[index] < 0 else (lo, mid)
            crossings.append((lo + hi) / 2)
        return float(max(crossings))


class TestEsdTime:
    @SETTINGS
    @given(st.floats(0.26, 0.99))
    def test_agrees_with_bisection(self, p):
        # past these edges the double-precision closed form no longer
        # resolves the sign change to 1e-9 (the 60-digit test below does)
        t = esd_time(p)
        assert np.isfinite(t) and t > 0.0
        assert abs(t - _bisect_death(p)) <= 1e-9

    @pytest.mark.parametrize("p", [0.25 + 1e-12, 0.2500001, 0.25011, 0.2502,
                                   0.385, 0.9999, 0.99999, 1.0 - 1e-12])
    def test_exact_to_rounding_over_the_whole_domain(self, p):
        t = esd_time(p)
        assert abs(t - _mp_death(p)) <= 1e-13 * t

    @SETTINGS
    @given(st.floats(0.25, 1.0, exclude_min=True, exclude_max=True))
    def test_finite_and_past_both_crossings(self, p):
        t = esd_time(p)
        assert t is not None and np.isfinite(t) and t >= min_esd_point()[1] - 1e-12
        # 144 lambda5 lambda6 = -12 e^3 p Q5 and 144 lambda7 lambda8 = 4 e^2 Q7
        e = np.exp(-t)
        assert max(np.polyval(_q5(p), e), -np.polyval(_q7(p), e)) < 1e-12

    @SETTINGS
    @given(st.floats(0.25, 1.0, exclude_min=True, exclude_max=True),
           st.floats(0.25, 1.0, exclude_min=True, exclude_max=True))
    def test_monotone_on_each_side_of_the_minimum(self, p1, p2):
        p1, p2 = sorted((p1, p2))
        t1, t2 = esd_time(p1), esd_time(p2)
        p_star = min_esd_point()[0]
        if p2 <= p_star:
            assert t1 >= t2 - 1e-12
        elif p1 >= p_star:
            assert t1 <= t2 + 1e-12

    @SETTINGS
    @given(st.floats(0.0, 0.25))
    def test_no_death_up_to_the_onset(self, p):
        assert esd_time(p) is None


class TestLandmarks:
    def test_min_esd_point(self):
        p, kt = min_esd_point()
        assert abs(p - P_STAR) < 1e-7 and abs(kt - KT_STAR) < 1e-7
        # the earliest death sits where both eigenvalues vanish together
        assert abs(esd_time(p) - kt) < 1e-7

    def test_resultant_of_q5_and_q7(self):
        # both eigenvalues vanish together where the resultant in p vanishes;
        # e (e^2 - 3e + 3) = 1 - o^3, o = 1 - e, gives min_esd_point's closed form
        resultant = sp.resultant(_in_e(_q5), _in_e(_q7), P)
        assert sp.expand(resultant + 72 * (2 * E ** 2 * (E ** 2 - 3 * E + 3) ** 2 - 1)) == 0
        assert sp.expand(resultant.subs(E, 1 - O) + 72 * (2 * (1 - O ** 3) ** 2 - 1)) == 0
        kt = min_esd_point()[1]
        assert abs((-np.expm1(-kt)) ** 3 - (1.0 - np.sqrt(0.5))) < 1e-15

    def test_lambda7_boundary_identity(self):
        # Q7 = A p^2 + B p - 8 with B = 18o^2 + 16 and B^2 + 32A = 36o(17o^3 + 8)
        a, b, c = sp.Poly(sp.expand(_in_e(_q7).subs(E, 1 - O)), P).all_coeffs()
        assert c == -8 and sp.expand(b - (18 * O ** 2 + 16)) == 0
        assert sp.expand(b ** 2 + 32 * a - 36 * O * (17 * O ** 3 + 8)) == 0

    def test_onset_is_exactly_a_quarter(self):
        assert esd_threshold_probability() == 0.25
        assert esd_threshold_probability() == ESD_ONSET_PROBABILITY


class TestBisect:
    def test_reports_its_iterations(self):
        root, iterations = _bisect(lambda x: x * x - 2.0, 0.0, 2.0, 1e-12)
        assert abs(root - np.sqrt(2.0)) < 1e-12
        assert iterations == int(np.ceil(np.log2(2.0 / 1e-12)))

    def test_needs_a_sign_change(self):
        with pytest.raises(RuntimeError, match="no sign change"):
            _bisect(lambda x: x + 1.0, 0.0, 1.0, 1e-6)


LONG_TIMES = [200.0, 700.0, 1e300, np.inf]
OPEN_DEFECT = pytest.mark.xfail(strict=True, reason="ROADMAP item 1")


def _mp_gghz_negativity(a, kt):
    """gghz_negativity_closed's formula in 50-digit mpmath, at the same doubles."""
    with mp.workdps(50):
        a, kt = mp.mpf(a), mp.mpf(kt)
        b, u = mp.sqrt(1 - a * a), mp.exp(kt)
        radicand = 4 * a * a * u ** 3 + b * b * (2 - 3 * u + u * u) ** 2
        return b * mp.exp(-3 * kt) * (mp.sqrt(radicand) - b * u * (u - 1))


class TestWholeDomain:
    """The closed forms on the documented domain kt in [0, inf): finite and
    non-negative at long times, and right to rounding at short ones and just
    before a death.  lambda1 to lambda6 are in e = exp(-kt) and o = -expm1(-kt),
    lambda5 from its product with lambda6, so it is finite, right relative to
    its size and has the sign of classify_region's Q5 on the whole domain.
    lambda7, lambda8 and the generalized GHZ keep the u = exp(kt) form, which
    overflows past kt ~ 177 and cancels in lin - rad as lambda7 -> 0, so each
    xfail case fails until the bounded (e, o) kernel lands."""

    @OPEN_DEFECT
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kt", LONG_TIMES)
    @pytest.mark.parametrize("p", [0.0, 0.25, 0.6, 1.0])
    def test_mixture_negativity_at_long_times(self, p, kt):
        n = negativity_from_spectrum(closed_form_pt_eigenvalues(p, kt))
        assert np.isfinite(n) and n >= 0.0

    @OPEN_DEFECT
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kt", LONG_TIMES)
    @pytest.mark.parametrize("a", [0.0, 0.3, 0.8, 1.0])
    def test_gghz_negativity_at_long_times(self, a, kt):
        n = gghz_negativity_closed(a, kt)
        assert np.isfinite(n) and n >= 0.0

    @SETTINGS
    @given(st.floats(0.0, 1.0))
    @example(1.0 - 2.0 ** -53)  # the u-form's lambda5 gave N = 1.0000000000000002 here
    def test_initial_negativity_at_most_one(self, p):
        assert 0.0 <= initial_negativity(p) <= 1.0

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 13")
    def test_gghz_negativity_at_most_one(self):
        # at kt = 0 the closed form is 2ab, which rounds to 1.0000000000000002 at 225
        # of the 4001 doubles within 2000 ulp of sqrt(1/2), this one among them
        assert gghz_negativity_closed(0.7071067811863262, 0.0) <= 1.0

    @OPEN_DEFECT
    @pytest.mark.parametrize("kt", [1e-6, 1e-9])
    def test_gghz_negativity_near_its_boundary_at_short_times(self, kt):
        a = 2.0 * gghz_esd_boundary(kt)
        want = _mp_gghz_negativity(a, kt)
        assert abs(gghz_negativity_closed(a, kt) - want) <= 1e-12 * want

    @pytest.mark.parametrize("kt", [1e-12, 1e-100])
    @pytest.mark.parametrize("index, p", [(1, 0.5), (2, 0.5), (3, 1.0)], ids=["l2", "l3", "l4"])
    def test_leaked_eigenvalues_at_short_times(self, index, p, kt):
        # e = exp(-kt), o = 1 - e; l4 = e (4 - 4p + 3 o^2 p) / 6 is e o^2 / 2 at p = 1
        with mp.workdps(50):
            e, o = mp.exp(-mp.mpf(kt)), -mp.expm1(-mp.mpf(kt))
            want = (e * e * o * p / 2, e * o * o * p / 2,
                    e * (4 - 4 * p + 3 * o * o * p) / 6)[index - 1]
        got = closed_form_pt_eigenvalues(p, kt).lambdas[index]
        assert abs(got - want) <= 1e-15 * want

    @SETTINGS
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1e300) | st.just(np.inf))
    def test_first_six_eigenvalues_on_the_whole_domain(self, p, kt):
        # lambda7 and lambda8 still overflow in u = exp(kt) from kt ~ 177; lambda1 to
        # lambda6 are in e and o, which stay in [0, 1], and lambda5 alone can go negative
        with np.errstate(over="ignore", invalid="ignore"):
            lambdas = np.array(closed_form_pt_eigenvalues(p, kt).lambdas[:6])
        assert np.isfinite(lambdas).all() and (np.delete(lambdas, 4) >= 0.0).all()

    @SETTINGS
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1e300) | st.just(np.inf))
    @example(0.3, 100.0)  # the u-form gave lambda5 = -1.66e-60 here, in region IV
    def test_lambda5_sign_is_the_regions(self, p, kt):
        with np.errstate(over="ignore", invalid="ignore"):
            lambda5 = closed_form_pt_eigenvalues(p, kt).lambda5
        if lambda5 != 0.0:
            assert (lambda5 < 0.0) == (classify_region(p, kt) in (RegionClass.I, RegionClass.II))

    @OPEN_DEFECT
    def test_lambda7_sign_is_the_regions(self):
        # lin - rad cancels to lambda7 = -1.48e-16 here, so N = 2.96e-16 in region IV
        p, kt = 0.3, 100.0
        lambda7 = closed_form_pt_eigenvalues(p, kt).lambda7
        assert classify_region(p, kt) is RegionClass.IV and lambda7 >= 0.0

    @pytest.mark.parametrize("kt", [50.0, 100.0, 170.0])
    @pytest.mark.parametrize("p", [0.3, 0.6, 0.9])
    def test_lambda5_at_long_times(self, p, kt):
        # lambda5 ~ e^2 while the u-form's lin ~ e, so the referee's lin - rad
        # cancels about 0.43 kt digits
        with mp.workdps(int(40 + 1.4 * kt)):
            want = _mp_lambda5_lambda7(mp.mpf(p), mp.mpf(kt))[0] / 12
        got = closed_form_pt_eigenvalues(p, kt).lambda5
        assert abs(got - want) <= 1e-13 * abs(want)

    @SETTINGS
    @given(st.floats(0.0, 1e300) | st.just(np.inf))
    @pytest.mark.parametrize("curve", [lambda5_boundary, lambda7_boundary, gghz_esd_boundary],
                             ids=lambda fn: fn.__name__)
    def test_boundary_curves_on_the_whole_domain(self, curve, kt):
        # RuntimeWarnings are errors here, so a curve may not overflow on the way
        value = curve(kt)
        assert type(value) is float and 0.0 <= value <= 1.0

    @pytest.mark.parametrize("p, rel", [pytest.param(0.27, 1e-6, marks=OPEN_DEFECT),
                                        pytest.param(0.27, 1e-8, marks=OPEN_DEFECT),
                                        (0.9, 1e-8)])
    def test_mixture_negativity_just_before_its_death(self, p, rel):
        # N = -2 lambda over the negative ones; N ~ esd_time - kt here, so rounding
        # exp(-kt) alone costs at most 1.1e-16 / (rel esd_time) relative: 5e-9 here.
        # At p = 0.9 lambda5 dies last; at 0.27 lambda7 does, in the u-form
        kt = esd_time(p) * (1.0 - rel)
        with mp.workdps(60):
            want = float(sum(-x for x in _mp_lambda5_lambda7(mp.mpf(p), mp.mpf(kt)) if x < 0) / 6)
        got = negativity_from_spectrum(closed_form_pt_eigenvalues(p, kt))
        assert abs(got - want) <= 1e-7 * want
