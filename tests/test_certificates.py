"""Closed forms and identities derived from the damping model in sympy.

Each certificate starts from the model in tests/conftest.py, one pair's
Stinespring isometry and the Kraus pair it carries, so the generalized-GHZ
negativity, the cavity/reservoir swap and the conserved chain members are
checked against derivations, not against the dense code they replace.
The landmarks are checked to 1e-12 against 50-digit mpmath roots of the
undamped mixture's and the damped generalized GHZ's characteristic
polynomials, and of Q5 and Q7, not against the program's closed forms.
"""

import mpmath as mp
import numpy as np
import pytest
import sympy as sp

from cavres import (equal_entanglement_range, gghz_negativity_closed, min_esd_point,
                    min_initial_negativity, monogamy_chain)
from cavres.esd import _q5, _q7
from cavres.states import CAVITY_LAYOUT, RESERVOIR_LAYOUT, global_output_state, reduce

A, B = sp.symbols("a b", positive=True)
E, P = sp.symbols("e p", positive=True)  # the damping model's symbols
GRID = pytest.mark.parametrize("kt", [0.0, 0.35, 1.1, 2.9])
DIGITS = 50  # working precision of the landmark references


def _c0_sq(p):
    """C0^2, the squared concurrence of c1 against the rest before any decay."""
    return 4 * (p / 2 + 2 * (1 - p) / 3) * (p / 2 + (1 - p) / 3)


@pytest.fixture(scope="module")
def gghz_certificate(damping):
    """The factored characteristic polynomial of the c1 partial transpose of
    the damped a|000> + b|111>, with a and b independent symbols."""
    psi = sp.Matrix([A, 0, 0, 0, 0, 0, 0, B])
    return damping.pt_charpoly_factors(damping.damp(psi * psi.T))


@pytest.fixture(scope="module")
def initial_negativity_mp(damping):
    """N(p, 0) for an mpmath p: sum(|l| - l) over the roots of the factored
    characteristic polynomial of the undamped mixture's partial transpose."""
    factors = damping.pt_charpoly_factors(damping.mixture)
    coeffs = [sp.lambdify(P, f.all_coeffs(), "mpmath") for fs in factors.values() for f in fs]
    return lambda p: sum(abs(lam) - lam for c in coeffs for lam in _mp_roots(c(p)))


def _mp_roots(coeffs):
    """The roots of a line or of a quadratic with real roots, leading coefficient first."""
    if len(coeffs) == 2:
        return [-coeffs[1] / coeffs[0]]
    a, b, c = coeffs
    rad = mp.sqrt(b * b - 4 * a * c)
    return [(-b - rad) / (2 * a), (-b + rad) / (2 * a)]


def _mp_weakest(n):
    """The p in (0, 1) where N(p, 0) is stationary, near the landmark 0.4647."""
    return mp.findroot(lambda p: mp.diff(n, p), mp.mpf("0.4647"))


@pytest.fixture(scope="module")
def damped_sides(damping):
    """The damped mixture on the cavities and on the reservoirs."""
    return damping.damp(damping.mixture), damping.damp(damping.mixture, keep="reservoir")


class TestGeneralizedGhz:
    def test_factors_into_six_lines_and_one_quadratic(self, gghz_certificate):
        assert sorted(gghz_certificate) == [1, 2]
        assert len(gghz_certificate[1]) == 6 and len(gghz_certificate[2]) == 1

    @GRID
    @pytest.mark.parametrize("a", [0.0, 0.3, 0.62, 1.0])
    def test_closed_form_is_the_certified_negativity(self, gghz_certificate, a, kt):
        point = {A: a, B: np.sqrt(1.0 - a * a), E: np.exp(-kt)}
        lam = np.concatenate([np.roots([float(c.subs(point)) for c in f.all_coeffs()])
                              for factors in gghz_certificate.values() for f in factors])
        assert np.isreal(lam).all()
        lam = lam.real
        assert abs(gghz_negativity_closed(a, kt) - np.sum(np.abs(lam) - lam)) <= 1e-15


class TestSwap:
    def test_reservoirs_are_the_cavities_at_one_minus_e(self, damped_sides):
        cavity, reservoir = damped_sides
        assert (reservoir - cavity.subs(E, 1 - E)).applyfunc(sp.expand).is_zero_matrix

    @GRID
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.62, 1.0])
    def test_the_builders_marginals_are_the_models(self, damped_sides, p, kt):
        state = global_output_state(p, kt)
        point = {P: p, E: np.exp(-kt)}
        for side, layout in zip(damped_sides, (CAVITY_LAYOUT, RESERVOIR_LAYOUT)):
            want = np.array(side.subs(point).evalf(), dtype=float)
            assert np.max(np.abs(reduce(state, layout.labels).data - want)) <= 1e-15


class TestChainPurities:
    def test_both_pure_members_are_c0_squared(self, damping):
        rho = damping.mixture
        rho_c1 = sp.Matrix(2, 2, lambda i, j: sum(rho[4 * i + k, 4 * j + k] for k in range(4)))
        # the (c1, r1) marginal of the evolved pure state: V acts on c1, and
        # the other pairs' isometries trace out
        pair = damping.isometry * rho_c1 * damping.isometry.T
        for marginal in (rho_c1, pair):
            assert sp.expand(2 * (1 - (marginal * marginal).trace()) - _c0_sq(P)) == 0

    def test_monogamy_chain_keeps_c0_squared(self):
        ps, kts = np.linspace(0.0, 1.0, 21)[:, None], np.linspace(0.0, 3.0, 25)
        chain, c0_sq = monogamy_chain(ps, kts), _c0_sq(ps)
        for member in (chain.c_init_sq, chain.c_pair_sq):
            assert np.max(np.abs(member - c0_sq)) <= 2e-15


class TestLandmarks:
    """Each landmark to 1e-12 of its 50-digit value from the model, or from
    Q5 and Q7, which tests/test_roots.py derives from the model."""

    def test_min_initial_negativity(self, initial_negativity_mp):
        n = initial_negativity_mp
        with mp.workdps(DIGITS):
            p = _mp_weakest(n)
            # the stationary point is the minimum over [0, 1]: no grid point is lower
            assert n(p) < min(n(mp.mpf(i) / 200) for i in range(201))
            want = (p, n(p))
        got = min_initial_negativity()
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12
        assert abs(got[0] - 0.46466) < 5e-6 and abs(got[1] - 0.642599) < 5e-7

    def test_min_esd_point(self):
        # both eigenvalues vanish at once: Q5 = Q7 = 0 jointly in (p, e)
        with mp.workdps(DIGITS):
            p, e = mp.findroot([lambda p, e: mp.polyval(list(_q5(p)), e),
                                lambda p, e: mp.polyval(list(_q7(p)), e)],
                               (mp.mpf("0.385"), mp.exp(-1.091)))
            assert 0.25 < p < 1 and 0 < e < 1
            want = (p, -mp.log(e))
        got = min_esd_point()
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12
        assert abs(got[0] - 0.385041) < 5e-7 and abs(got[1] - 1.090955) < 5e-7

    def test_equal_entanglement_range(self, initial_negativity_mp, gghz_certificate):
        n = initial_negativity_mp
        # generalized GHZ death: the quadratic factor's constant term, over e^3,
        # vanishes at one e in (0, 1)
        (quad,) = gghz_certificate[2]
        death_poly = sp.lambdify((A, B), sp.Poly(sp.cancel(quad.nth(0) / E ** 3), E).all_coeffs(),
                                 "mpmath")

        def death_time(a):
            roots = mp.polyroots(death_poly(a, mp.sqrt(1 - a * a)), extraprec=100)
            (e,) = [r.real for r in roots if abs(mp.im(r)) < 1e-40 and 0 < mp.re(r) < 1]
            return -mp.log(e)

        with mp.workdps(DIGITS):
            # the anomalous window (Lohmayer et al., PRL 97, 260502, 2006)
            p_lo, p_hi = 7 - mp.sqrt(45), 4 * mp.cbrt(2) / (3 + 4 * mp.cbrt(2))
            p_min = _mp_weakest(n)
            assert p_lo < p_min < p_hi
            edges = (n(p_lo), n(p_hi))
            # the amplitude a below sqrt(2)/2 whose state starts at 2ab = N
            a_low, a_high = (mp.findroot(lambda a: 2 * a * mp.sqrt(1 - a * a) - target,
                                         mp.mpf("0.35"))
                             for target in (min(*edges, n(p_min)), max(edges)))
            # the death time grows with a, so a_high's is the window's largest
            assert death_time(a_low) < death_time(a_high)
            want = (a_low, a_high, death_time(a_high))
        got = equal_entanglement_range()
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12
        assert [round(g, 4) for g in got] == [0.3419, 0.3632, 0.7628]
