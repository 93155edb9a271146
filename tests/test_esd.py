import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import bisect, minimize_scalar

from cavres import (RegionClass, classify_region, equal_entanglement_range,
                    monogamy_chain,
                    esb_time, esb_time_numeric, esd_threshold_probability,
                    esd_time, gghz_esd_boundary, gghz_esd_time,
                    gghz_negativity_closed, initial_negativity,
                    lambda5_boundary, lambda7_boundary, min_esd_point,
                    min_initial_negativity, reservoir_negativity, swap_check)
from cavres.entanglement import closed_form_pt_eigenvalues, negativity_from_spectrum
from cavres import cli, esd, states
from cavres.esd import ANOMALOUS_WINDOW
from cavres.cli import region_grid_audit
from cavres.states import amplitudes, global_output_state, reduce
from cavres.entanglement import negativity

W_NEGATIVITY = 2.0 * np.sqrt(2.0) / 3.0


class TestLambda5Boundary:
    def test_small_time_limit(self):
        assert lambda5_boundary(1e-6) < 1e-5

    def test_large_time_limit(self):
        assert abs(lambda5_boundary(40.0) - 1.0) < 1e-12

    def test_zeroes_the_eigenvalue(self):
        for kt in np.linspace(0.05, 4.0, 30):
            p = lambda5_boundary(kt)
            assert abs(closed_form_pt_eigenvalues(p, kt).lambda5) < 1e-10

    def test_against_bisection(self):
        # sign change of the eigenvalue in p at fixed kt
        f = lambda p: closed_form_pt_eigenvalues(p, 1.0).lambda5
        root = bisect(f, 1e-9, 1.0, xtol=1e-12)
        assert abs(lambda5_boundary(1.0) - root) < 1e-10

    def test_domain(self):
        with pytest.raises(ValueError):
            lambda5_boundary(0.0)
        with pytest.raises(ValueError):
            lambda5_boundary(-1.0)


class TestLambda7Boundary:
    @pytest.mark.parametrize("kt", [1.0, 2.0])
    def test_against_bisection(self, kt):
        f = lambda p: closed_form_pt_eigenvalues(p, kt).lambda7
        root = bisect(f, 0.0, 1.0, xtol=1e-12)
        assert abs(lambda7_boundary(kt) - root) < 1e-10

    def test_zeroes_the_eigenvalue(self):
        for kt in np.linspace(0.05, 4.0, 30):
            p = lambda7_boundary(kt)
            assert abs(closed_form_pt_eigenvalues(p, kt).lambda7) < 1e-8

    def test_large_time_limit(self):
        # the curve converges to the death-onset probability 1/4; bisection
        # on the raw eigenvalue stays resolvable up to kt ~ 6 and agrees
        f = lambda p: closed_form_pt_eigenvalues(p, 6.0).lambda7
        root = bisect(f, 0.0, 1.0, xtol=1e-13)
        assert abs(lambda7_boundary(6.0) - root) < 1e-10
        assert abs(lambda7_boundary(20.0) - 0.25) < 1e-8
        assert lambda7_boundary(40.0) < lambda7_boundary(20.0)

    def test_monotone_decreasing(self):
        kts = np.linspace(0.05, 6.0, 40)
        vals = [lambda7_boundary(kt) for kt in kts]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            lambda7_boundary(0.0)


class TestBoundariesAtLongTimes:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kt", [1e-12, 1e-6, 177.0, 200.0, 237.0, 400.0, 1000.0])
    def test_finite_and_inside_the_unit_interval(self, kt):
        for fn in (lambda5_boundary, lambda7_boundary, gghz_esd_boundary):
            value = fn(kt)
            assert np.isfinite(value) and 0.0 <= value <= 1.0

    def test_limits(self):
        assert lambda5_boundary(1000.0) == 1.0
        assert lambda7_boundary(1000.0) == 0.25
        assert abs(gghz_esd_boundary(1000.0) - np.sqrt(0.5)) < 1e-15

    def test_small_time_slopes(self):
        # lambda5 ~ 2kt/3, 1 - lambda7 ~ (3 sqrt(2) / 4) sqrt(kt), gghz ~ kt^(3/2)
        kt = 1e-12
        assert abs(lambda5_boundary(kt) / kt - 2.0 / 3.0) < 1e-10
        assert abs((1.0 - lambda7_boundary(kt)) / np.sqrt(kt) - 0.75 * np.sqrt(2.0)) < 1e-5
        assert abs(gghz_esd_boundary(kt) / kt ** 1.5 - 1.0) < 1e-10


NAN = float("nan")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [
    lambda: closed_form_pt_eigenvalues(0.5, NAN),
    lambda: closed_form_pt_eigenvalues(NAN, 1.0),
    lambda: gghz_negativity_closed(0.5, NAN),
    lambda: gghz_negativity_closed(NAN, 1.0),
    lambda: classify_region(0.5, NAN),
    lambda: amplitudes(NAN),
    lambda: esb_time(NAN),
    lambda: esd_time(NAN),
    lambda: gghz_esd_time(NAN),
    lambda: lambda5_boundary(NAN),
    lambda: lambda7_boundary(NAN),
    lambda: gghz_esd_boundary(NAN),
    lambda: global_output_state(0.5, NAN),
    # these check nothing themselves: the state builders refuse for them
    lambda: monogamy_chain(NAN, 1.0),
    lambda: monogamy_chain(0.5, NAN),
    lambda: swap_check(NAN, 1.0),
    lambda: reservoir_negativity(NAN, 1.0),
], ids=["spectrum-kt", "spectrum-p", "gghz-kt", "gghz-a", "region", "amplitudes",
        "esb", "esd", "gghz-esd", "lambda5", "lambda7", "gghz-boundary", "state",
        "monogamy-p", "monogamy-kt", "swap-p", "reservoir-p"])
def test_nan_arguments_are_refused(call):
    with pytest.raises(ValueError):
        call()


class TestRegionClassification:
    def test_ghz_start_has_negative_lambda5(self):
        spec = closed_form_pt_eigenvalues(1.0, 0.0)
        assert spec.lambda5 < -1e-12 and spec.lambda7 >= -1e-12
        assert classify_region(1.0, 0.0) is RegionClass.II

    def test_w_start_has_negative_lambda7(self):
        spec = closed_form_pt_eigenvalues(0.0, 0.0)
        assert spec.lambda7 < -1e-12 and spec.lambda5 >= -1e-12
        assert classify_region(0.0, 0.0) is RegionClass.III

    def test_both_negative_region(self):
        spec = closed_form_pt_eigenvalues(0.5, 0.1)
        assert spec.lambda5 < -1e-12 and spec.lambda7 < -1e-12
        assert classify_region(0.5, 0.1) is RegionClass.I

    def test_array_call_is_the_scalar_calls(self):
        # demo 03's region map
        ps, kts = np.linspace(1.0, 0.0, 26), np.linspace(0.02, 3.0, 60)
        grid = classify_region(ps[:, None], kts)
        assert grid.shape == (26, 60)
        want = [[classify_region(p, kt) for kt in kts] for p in ps]
        assert grid.tolist() == want
        assert {r.value for row in want for r in row} == {"I", "II", "III", "IV"}

    def test_decayed_region_is_separable(self):
        assert classify_region(0.5, 3.0) is RegionClass.IV
        cav = reduce(global_output_state(0.5, 3.0), ["c1", "c2", "c3"])
        assert negativity(cav, ["c1"]) < 1e-10

    @pytest.mark.filterwarnings("error")
    def test_long_time_is_separable(self):
        assert classify_region(0.9, 200) is RegionClass.IV

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p, kt, region", [
        (0.2, 30.0, RegionClass.III),   # lambda7 = -3.7e-28, below the spectrum's rounding
        (1.0, 800.0, RegionClass.II),   # past the underflow of exp(-kt)
        (0.1, 1e300, RegionClass.III),
    ])
    def test_long_times(self, p, kt, region):
        assert classify_region(p, kt) is region

    @pytest.mark.filterwarnings("error")
    def test_edge_rows_past_underflow(self):
        # exp(-kt) is 0 from kt ~ 745; the GHZ row keeps its negative
        # lambda5 at every finite kt, and the onset row its negative lambda7
        kts = np.array([0.0, 1.0, 40.0, 700.0, 745.0, 746.0, 800.0, 1e4, 1e300])
        assert set(classify_region(1.0, kts)) == {RegionClass.II}
        assert set(classify_region(0.25, kts[2:])) == {RegionClass.III}

    @given(st.floats(0.0, 1.0),
           st.one_of(st.floats(0.0, 40.0), st.floats(0.0, 1e300)))
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_separable_exactly_after_the_death_time(self, p, kt):
        t = esd_time(p)
        assume(t is None or abs(kt - t) > 1e-9 * t)
        dead = t is not None and kt >= t
        assert (classify_region(p, kt) is RegionClass.IV) == dead

    def test_negativity_is_zero_exactly_in_region_iv(self):
        # a figure grid as the benchmark sweeps it: no rounding residue in IV
        ps, kts = np.linspace(0.0, 1.0, 101), np.linspace(0.0, 3.2, 301)
        n = negativity_from_spectrum(closed_form_pt_eigenvalues(ps[:, None], kts))
        iv = classify_region(ps[:, None], kts) == RegionClass.IV
        assert iv.sum() == 6740
        np.testing.assert_array_equal(n == 0.0, iv)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 100.0))
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_zero_negativity_is_region_iv(self, p, kt):
        # where the spectrum resolves the signs of lambda5 and lambda7
        spec = closed_form_pt_eigenvalues(p, kt)
        assume(min(abs(spec.lambda5), abs(spec.lambda7)) > 1e-13)
        n = negativity_from_spectrum(spec)
        assert (n == 0.0) == (classify_region(p, kt) is RegionClass.IV)

    def test_signs_match_the_spectrum(self, rng):
        # the spectrum referees where it neither overflows nor nears a tie
        p = rng.uniform(0.0, 1.0, 20000)
        kt = 100.0 * rng.uniform(0.0, 1.0, 20000) ** 3
        spec = closed_form_pt_eigenvalues(p, kt)
        clear = (np.abs(spec.lambda5) > 1e-13) & (np.abs(spec.lambda7) > 1e-13)
        assert clear.sum() > 10000
        region = classify_region(p[clear], kt[clear])
        l5_neg = np.isin(region, [RegionClass.I, RegionClass.II])
        l7_neg = np.isin(region, [RegionClass.I, RegionClass.III])
        np.testing.assert_array_equal(l5_neg, spec.lambda5[clear] < 0.0)
        np.testing.assert_array_equal(l7_neg, spec.lambda7[clear] < 0.0)


def _exact_boundaries(kt):
    # the root of Q5 in p, and lambda7's certified form in o (tests/test_roots.py)
    o = -mp.expm1(-mp.mpf(kt))
    e = 1 - o
    return (2 * o / (((3 * e - 9) * e + 7) * e + 2),
            16 / (18 * o * o + 16 + 6 * mp.sqrt(o * (17 * o ** 3 + 8))))


class TestRegionSignsNearTheBoundaries:
    """classify_region against 60-digit signs of Q5 and Q7 at the exact
    exp(-kt), with p placed a relative 4e-16 to 1e-7 off a boundary and kt
    log-uniform in [1e-12, 30], where the e-forms of Q5 and Q7 cancel.  A
    sign may differ only within BAND_ULPS ulp of p from the exact boundary;
    100 000 points within 3e-15 of a boundary gave at most 3.4."""

    BAND_ULPS = 5

    def test_signs_in_a_band_around_both_boundaries(self):
        rng = np.random.default_rng(7)
        kt = np.exp(rng.uniform(np.log(1e-12), np.log(30.0), 3000))
        off = np.exp(rng.uniform(np.log(4e-16), np.log(1e-7), kt.size)) * rng.choice([-1, 1], kt.size)
        near5 = rng.integers(0, 2, kt.size) == 0
        p = np.where(near5, lambda5_boundary(kt), lambda7_boundary(kt)) * (1.0 + off)
        p, kt = p[p <= 1.0], kt[p <= 1.0]
        region = classify_region(p, kt)
        negative = (np.isin(region, [RegionClass.I, RegionClass.II]),
                    np.isin(region, [RegionClass.I, RegionClass.III]))
        wrong = []
        with mp.workdps(60):
            for i, (pi, kti) in enumerate(zip(p.tolist(), kt.tolist())):
                pm, e = mp.mpf(pi), mp.exp(-mp.mpf(kti))
                exact = (pm * mp.polyval(esd._q5(pm), e) > 0, mp.polyval(esd._q7(pm), e) < 0)
                for got, want, edge in zip((negative[0][i], negative[1][i]), exact,
                                           _exact_boundaries(kti)):
                    if got != want and abs(pm - edge) > self.BAND_ULPS * np.spacing(pi):
                        wrong.append((pi, kti))
        assert wrong == []

    @pytest.mark.parametrize("kt", [1e-300, 1e-250, 1e-200, 1e-160])
    def test_lambda5_sign_where_p_q5_underflows(self, kt):
        # p Q5 is below the smallest subnormal here, so p and Q5 are tested apart
        p = lambda5_boundary(kt)
        assert classify_region(p * (1.0 + 1e-6), kt) is RegionClass.I
        assert classify_region(p * (1.0 - 1e-6), kt) is RegionClass.III


class TestRegionGridAudit:
    def test_default_threshold_passes(self):
        (c,) = region_grid_audit()
        assert c.ok and c.threshold == 1e-10 and c.at == ()
        assert c.label.endswith("violations = 0")
        assert c.value == 0.0  # the dense negativity inside region IV is exactly 0

    def test_threshold_binds_inside_region_iv(self, monkeypatch):
        # lifted by 1e-9, every IV point is above the default 1e-10
        dense = cli.dense_cavity_negativity
        monkeypatch.setattr(cli, "dense_cavity_negativity",
                            lambda *args: dense(*args) + 1e-9)
        (c,) = region_grid_audit()
        assert not c.ok and c.value > c.threshold == 1e-10
        assert classify_region(*c.at) is RegionClass.IV

    def test_threshold_binds_outside_region_iv(self, monkeypatch):
        # scaled by 1e-12, no negativity exceeds 1e-10, so every entangled point violates
        dense = cli.dense_cavity_negativity
        monkeypatch.setattr(cli, "dense_cavity_negativity",
                            lambda *args: dense(*args) * 1e-12)
        (c,) = region_grid_audit()
        assert not c.ok and c.value <= c.threshold == 1e-10
        assert classify_region(*c.at) is not RegionClass.IV


class TestEsdTime:
    def test_asymptotic_families(self):
        assert esd_time(0.1) is None
        assert esd_time(0.25) is None
        assert esd_time(1.0) is None
        assert esd_time(0.0) is None

    def test_reference_point(self):
        assert abs(esd_time(0.385) - 1.091) < 5e-3

    def test_death_is_larger_crossing(self):
        p = 0.5
        t = esd_time(p)
        spec_before = closed_form_pt_eigenvalues(p, t - 0.01)
        assert min(spec_before.lambda5, spec_before.lambda7) < -1e-12
        spec_after = closed_form_pt_eigenvalues(p, t + 0.01)
        assert spec_after.lambda5 > -1e-12 and spec_after.lambda7 > -1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            esd_time(1.5)


class TestMinEsdPoint:
    def test_matches_reference(self):
        p, kt = min_esd_point()
        assert abs(p - 0.385) < 5e-3
        assert abs(kt - 1.091) < 5e-3

    def test_death_time_is_v_shaped(self):
        p_star, kt_star = min_esd_point()
        left = [esd_time(p) for p in np.linspace(0.26, p_star - 1e-3, 20)]
        assert all(a > b for a, b in zip(left, left[1:]))
        right = [esd_time(p) for p in np.linspace(p_star + 1e-3, 0.995, 20)]
        assert all(a < b for a, b in zip(right, right[1:]))
        assert min(left + right) >= kt_star - 1e-4


class TestMinInitialNegativity:
    def test_matches_reference(self):
        p, n = min_initial_negativity()
        assert abs(p - 0.465) < 5e-3
        assert abs(n - 0.643) < 2e-3

    def test_endpoints(self):
        assert abs(initial_negativity(0.0) - W_NEGATIVITY) < 1e-12
        assert abs(initial_negativity(1.0) - 1.0) < 1e-12

    def test_threshold_probability(self):
        assert abs(esd_threshold_probability() - 0.25) < 5e-3

    def test_inverted_interval_is_refused(self):
        with pytest.raises(ValueError) as info:
            min_initial_negativity(0.9, 0.1)
        assert str(info.value) == "the interval needs lo <= hi, got [0.9, 0.1]"

    def test_a_point_interval_is_its_point(self):
        assert min_initial_negativity(0.5, 0.5) == (0.5, initial_negativity(0.5))


class TestGghzBoundary:
    def test_small_time_limit(self):
        assert gghz_esd_boundary(1e-6) < 1e-5

    def test_large_time_limit(self):
        assert abs(gghz_esd_boundary(20.0) - np.sqrt(0.5)) < 1e-4

    def test_against_bisection(self):
        f = lambda a: gghz_negativity_closed(a, 1.0) - 1e-300
        # negativity hits zero exactly at the boundary amplitude; bracket
        # the sign change of a shifted indicator instead
        a_star = gghz_esd_boundary(1.0)
        assert gghz_negativity_closed(a_star, 1.0) < 1e-10
        lo = bisect(lambda a: 1.0 if gghz_negativity_closed(a, 1.0) > 0 else -1.0,
                    1e-6, np.sqrt(0.5), xtol=1e-8)
        assert abs(a_star - lo) < 1e-6

    def test_zeroes_the_negativity(self):
        for kt in np.linspace(0.05, 4.0, 30):
            assert gghz_negativity_closed(gghz_esd_boundary(kt), kt) < 1e-10

    def test_monotone_increasing(self):
        kts = np.linspace(0.05, 6.0, 30)
        vals = [gghz_esd_boundary(kt) for kt in kts]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_death_time_inverts_boundary(self):
        for kt in (0.3, 0.7632, 1.5):
            assert abs(gghz_esd_time(gghz_esd_boundary(kt)) - kt) < 1e-10

    def test_death_time_domains(self):
        assert gghz_esd_time(0.0) == 0.0
        assert gghz_esd_time(np.sqrt(0.5)) is None
        assert gghz_esd_time(0.9) is None
        with pytest.raises(ValueError):
            gghz_esd_time(1.2)

    @pytest.mark.filterwarnings("error")
    def test_against_mpmath_down_to_1e_300(self):
        # o^3 underflows below kt ~ 1e-108, while the curve o^1.5 stays normal
        # to kt ~ 1e-205; the subnormal ulp covers the values below that
        kts = np.concatenate([np.geomspace(1e-300, 700.0, 2001), [1e300, np.inf]])
        got = gghz_esd_boundary(kts)
        with mp.workdps(50):
            for kt, value in zip(kts.tolist(), got.tolist()):
                o = -mp.expm1(-mp.mpf(kt))
                want = o * mp.sqrt(o / (o ** 3 + 1))
                assert abs(value - want) <= 4e-16 * want + np.finfo(float).smallest_subnormal

    @pytest.mark.parametrize("a", [1e-300, 1e-200, 1e-160, 1e-150, 1e-9, 1e-6, 1e-3])
    def test_death_time_at_small_amplitude_against_mpmath(self, a):
        # -log(1 - y) would cancel at small y: 2.9e-11 off at a = 1e-9; and
        # a * a underflows below a ~ 1.5e-154
        with mp.workdps(50):
            y = mp.cbrt(mp.mpf(a) ** 2 / (1 - mp.mpf(a) ** 2))
            want = -mp.log1p(-y)
            assert abs(gghz_esd_time(a) - want) <= 2e-15 * want

    def test_death_time_finite_up_to_the_edge(self):
        # the last doubles below sqrt(2)/2 die late, but at a finite time
        edge = np.sqrt(0.5)
        below = edge - np.spacing(edge) * np.arange(1, 65)
        assert all(np.isfinite(gghz_esd_time(a)) for a in below)
        assert gghz_esd_time(edge) is None


class TestEqualEntanglementRange:
    def test_window_edges(self):
        p_lo, p_hi = ANOMALOUS_WINDOW
        assert abs(p_lo - 0.292) < 1e-3
        assert abs(p_hi - 0.627) < 1e-3

    def test_amplitudes_solve_the_matching_equation(self):
        a_low, a_high, _ = equal_entanglement_range()
        p_lo, p_hi = ANOMALOUS_WINDOW
        # N(p, 0) dips inside the window, so its minimum is interior
        assert p_lo < min_initial_negativity()[0] < p_hi
        n_floor = minimize_scalar(initial_negativity, bounds=(p_lo, p_hi),
                                  method="bounded", options={"xatol": 1e-10}).fun
        n_edge = max(initial_negativity(p_lo), initial_negativity(p_hi))
        for a, n in ((a_low, n_floor), (a_high, n_edge)):
            assert abs(2.0 * a * np.sqrt(1.0 - a * a) - n) < 1e-12
            assert a < np.sqrt(0.5)

    def test_max_death_time_sits_at_upper_edge(self):
        a_low, a_high, max_kt = equal_entanglement_range()
        assert a_low <= a_high
        assert abs(max_kt - gghz_esd_time(a_high)) < 1e-12
        assert gghz_negativity_closed(a_high, max_kt) < 1e-10
        assert abs(max_kt - 0.763) < 5e-3


def _matching_amplitude(p):
    """The generalized-GHZ amplitude a <= sqrt(2)/2 with 2ab = N(p, 0)."""
    n = initial_negativity(p)
    return float(np.sqrt((1.0 - np.sqrt(1.0 - n * n)) / 2.0))


class TestMixtureOutlivesItsPartner:
    """The abstract's headline claim: a mixture dies later than the
    generalized GHZ with the same initial entanglement, or not at all."""

    def test_death_comes_later(self):
        ps = np.linspace(0.2501, 0.9999, 2000)
        margin = np.array([esd_time(p) - gghz_esd_time(_matching_amplitude(p)) for p in ps])
        assert margin.min() > 0.36
        # the narrowest margin sits at the mixture's earliest death
        assert abs(ps[np.argmin(margin)] - min_esd_point()[0]) < 0.01

    def test_narrowest_margin_at_the_earliest_death(self):
        # the margin has a kink at p*, with one-sided slopes -5.87 and +3.98,
        # so a step of h to either side raises it by about 5.9h and 4.0h
        def margin(p):
            return esd_time(p) - gghz_esd_time(_matching_amplitude(p))

        p_star, h = min_esd_point()[0], 1e-6
        at = margin(p_star)
        assert abs(at - 0.368377) < 1e-6
        assert abs((margin(p_star - h) - at) / h - 5.87) < 0.01
        assert abs((margin(p_star + h) - at) / h - 3.98) < 0.01

    def test_no_death_below_the_onset(self):
        for p in np.linspace(0.0, 0.25, 26):
            assert esd_time(p) is None
            assert np.isfinite(gghz_esd_time(_matching_amplitude(p)))


class TestSwapRelation:
    def test_self_dual_point(self):
        ok, dev = swap_check(0.5, np.log(2.0))
        assert ok and dev < 1e-14
        state = global_output_state(0.5, np.log(2.0))
        cav = reduce(state, ["c1", "c2", "c3"]).data
        res = reduce(state, ["r1", "r2", "r3"]).data
        np.testing.assert_allclose(cav, res, atol=1e-14)

    def test_zero_time(self):
        ok, dev = swap_check(0.3, 0.0)
        assert ok and dev < 1e-14

    def test_sample_point(self):
        ok, dev = swap_check(0.5, 0.7)
        assert ok and dev < 1e-12

    def test_a_builder_with_swapped_amplitudes_fails(self, monkeypatch, capsys):
        # the reference is the initial mixture under the Kraus pair, not the
        # builder's own state relabelled, so a builder that keeps chi and
        # leaks xi is caught everywhere but at the self-dual time kt = ln 2
        build = states._pair_amplitudes
        monkeypatch.setattr(states, "_pair_amplitudes", lambda xi, chi: build(chi, xi))
        ok, dev = swap_check(0.5, 1.5)
        assert not ok and dev > 0.1
        assert swap_check(0.5, np.log(2.0))[0]
        assert cli.main(["verify", "swap"]) == 1
        assert capsys.readouterr().out.startswith("[FAIL] swap: cavity/reservoir swap, worst at")

    def test_full_transfer_limit(self):
        # deep in the decay the reservoirs hold the initial cavity state
        state = global_output_state(0.5, 35.0)
        res = reduce(state, ["r1", "r2", "r3"])
        from cavres import mixed_ghz_w
        np.testing.assert_allclose(res.data, mixed_ghz_w(0.5).data, atol=1e-7)


class TestEsbTime:
    def test_self_dual_fixed_point(self):
        assert abs(esb_time(np.log(2.0)) - np.log(2.0)) < 1e-14

    def test_reference_death_time(self):
        expected = -np.log(1.0 - np.exp(-1.091))
        assert abs(esb_time(1.091) - expected) < 1e-14

    def test_instant_birth_limit(self):
        assert esb_time(35.0) < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            esb_time(0.0)
        with pytest.raises(ValueError):
            esb_time(-1.0)

    @pytest.mark.filterwarnings("error")
    def test_small_death_times_stay_finite(self):
        # -ln(1 - e^-t) = -ln(t) + t/2 - t^2/24 + ...; log1p(-exp(-t))
        # loses it to cancellation and returns inf below t ~ 1e-16
        for t in (1e-300, 1e-20, 1e-9):
            value = esb_time(t)
            assert np.isfinite(value) and value > 0.0
            expected = -np.log(t) + t / 2.0
            assert abs(value - expected) <= 1e-12 * expected

    def test_against_reservoir_bisection(self):
        for p in (0.385, 0.6, 0.9):
            t_death = esd_time(p)
            assert abs(esb_time(t_death) - esb_time_numeric(p)) < 1e-3

    def test_reservoir_negativity_is_born_then_grows(self):
        p = 0.5
        birth = esb_time_numeric(p)
        assert reservoir_negativity(p, birth / 2.0) < 1e-10
        assert reservoir_negativity(p, birth * 2.0) > 1e-6


class TestArrayCalls:
    # 5e-324 to 1e300 and inf: where e underflows, where it rounds to 1, and
    # both sides of esb_time's branch point ln 2
    KTS = np.concatenate([[5e-324, 1e-300, np.nextafter(np.log(2.0), 0.0), np.log(2.0)],
                          np.geomspace(1e-20, 1e300, 997), [np.inf]])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fn", [lambda5_boundary, lambda7_boundary, gghz_esd_boundary,
                                    esb_time], ids=lambda fn: fn.__name__)
    def test_array_call_is_the_scalar_calls_bit_for_bit(self, fn):
        grid = self.KTS.reshape(2, -1)
        values = fn(grid)
        assert type(values) is np.ndarray and values.shape == grid.shape
        scalars = [fn(float(kt)) for kt in grid.flat]
        assert all(type(v) is float for v in scalars)
        assert values.ravel().tobytes() == np.array(scalars).tobytes()

    @pytest.mark.parametrize("fn, message", [
        (lambda5_boundary, "boundary curves need kt > 0, got {}"),
        (lambda7_boundary, "boundary curves need kt > 0, got {}"),
        (gghz_esd_boundary, "boundary curves need kt > 0, got {}"),
        (esb_time, "death time must be positive, got {}"),
    ], ids=["lambda5", "lambda7", "gghz", "esb"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, NAN])
    def test_array_names_its_first_bad_entry(self, fn, message, bad):
        for arg in (bad, np.array([1.0, bad, -2.0])):
            with pytest.raises(ValueError) as info:
                fn(arg)
            assert str(info.value) == message.format(bad)


def _np_roots_death_time(p):
    # the reference: np.roots per polynomial, its one root in (0, 1]
    def crossing(coeffs):
        r = np.roots(coeffs)
        r = r.real[(np.abs(r.imag) <= 1e-9) & (r.real > 0.0) & (r.real <= 1.0 + 1e-9)]
        assert r.size == 1
        return min(float(r[0]), 1.0)
    return float(-np.log(min(crossing(esd._q5(p)), crossing(esd._q7(p)))))


class TestStackedDeathTimes:
    """Death times come from one eigvals call per polynomial on the stack of
    the companion matrices that np.roots builds."""

    def test_the_stack_has_the_bits_of_np_roots(self):
        ps = np.linspace(0.25, 1.0, 2003)[1:-1]
        want = np.array([_np_roots_death_time(float(p)) for p in ps])
        assert esd._death_time(ps).tobytes() == want.tobytes()
        assert [esd_time(float(p)) for p in ps[::100]] == want[::100].tolist()

    @pytest.mark.parametrize("p", [0.0, 0.1, 0.25, 1.0])
    def test_no_finite_death_is_none(self, p):
        assert esd_time(p) is None

    @pytest.mark.parametrize("p", [0.2500001, 0.6, np.float64(0.9), 0.99999])
    def test_a_finite_death_is_a_float(self, p):
        t = esd_time(p)
        assert type(t) is float and np.isfinite(t) and t > 0.0

    def test_two_roots_in_the_unit_interval_are_refused(self, monkeypatch):
        # (e - 0.3)(e - 0.6)(e - 2): two roots in (0, 1]
        monkeypatch.setattr(esd, "_q5", lambda p: (1.0, -2.9, 1.98, -0.36))
        with pytest.raises(RuntimeError, match=r"^lambda5 crossing: expected one root "
                                               r"in \(0, 1\], got 2$"):
            esd_time(0.6)
        with pytest.raises(RuntimeError, match="got 2"):
            esd._death_time(np.array([0.4, 0.6]))

    def test_the_birth_audit_makes_one_eigvals_call_per_polynomial(self, monkeypatch):
        shapes = []
        eigvals = np.linalg.eigvals

        def counting(a):
            shapes.append(a.shape)
            return eigvals(a)
        monkeypatch.setattr(np.linalg, "eigvals", counting)
        (check,) = cli.SUITES["esb"]()
        assert check.ok and shapes == [(10, 3, 3), (10, 4, 4)]
