"""Closed forms and identities derived from the damping model in sympy.

Each certificate starts from the model in tests/conftest.py, one pair's
Stinespring isometry and the Kraus pair it carries, so the generalized-GHZ
negativity, the cavity/reservoir swap and the conserved chain members are
checked against derivations, not against the dense code they replace.
"""

import numpy as np
import pytest
import sympy as sp

from cavres import gghz_negativity_closed, monogamy_chain
from cavres.states import CAVITY_LAYOUT, RESERVOIR_LAYOUT, global_output_state, reduce

A, B = sp.symbols("a b", positive=True)
E, P = sp.symbols("e p", positive=True)  # the damping model's symbols
GRID = pytest.mark.parametrize("kt", [0.0, 0.35, 1.1, 2.9])


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
