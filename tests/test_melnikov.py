import math

import numpy as np
import pytest

from arnolddiff import kernels, melnikov
from arnolddiff.errors import NoConvergence, NotHorizontal
from arnolddiff.model import ModelParams

TWO_PI = 2.0 * math.pi

# 2*pi/sinh(pi/2) evaluated at 50 digits, rounded to double
A_AT_UNIT_FREQ = 2.7302778013234311


class TestAlpha:
    def test_unit_value(self):
        assert melnikov.alpha(1.0) == pytest.approx(1.0, abs=0.0)

    def test_zero_limit(self):
        assert melnikov.alpha(0.0) == 0.0
        # linear behavior near zero with slope 2 sinh(pi/2)/pi
        slope = 2.0 * kernels.SINH_HALF_PI / math.pi
        assert melnikov.alpha(1e-8) == pytest.approx(1e-8 * slope, rel=1e-10)

    def test_odd(self, rng):
        for w in rng.uniform(0.01, 10.0, 30):
            assert melnikov.alpha(-w) == pytest.approx(-melnikov.alpha(float(w)), rel=1e-14)

    def test_series_branch_continuity(self):
        lo = melnikov.alpha(0.063661)  # just below the series cutoff
        hi = melnikov.alpha(0.063663)
        assert abs(hi - lo) < 1e-5

    def test_certified_suprema(self):
        sup_a, sup_wa = melnikov.scan_alpha_bounds(span=20.0, step=1e-3)
        # values at the analytic maximizers, refined at 50 digits
        assert sup_a == pytest.approx(1.0302891133302545, rel=1e-9)
        assert sup_wa == pytest.approx(1.6003614855435876, rel=1e-9)
        assert sup_a <= kernels.ALPHA_SUP
        assert sup_wa <= kernels.OMEGA_ALPHA_SUP

    def test_vector_matches_scalar(self, rng):
        w = rng.uniform(-15, 15, 200)
        v = melnikov.alpha(w)
        for wi, vi in zip(w[:40], v[:40]):
            assert vi == melnikov.alpha(float(wi))
        assert melnikov.alpha(w.reshape(20, 10)).tolist() == v.reshape(20, 10).tolist()

    def test_array_is_the_scalar_kernel(self):
        # the c02 scan grid: every point has kernels.alpha's bits, so the
        # dense scans (window constant C, certified suprema) do not depend
        # on the SIMD level numpy dispatches to
        w = np.arange(-20.0, 20.0 + 1e-4, 1e-4)
        assert melnikov.alpha(w).tolist() == [kernels.alpha(x) for x in w.tolist()]


class TestCoeffs:
    def test_zero_frequency(self, params):
        c = melnikov.melnikov_coeffs(0.0, 5.0, params)
        assert c.A1 == 4.0 * params.a1

    def test_unit_frequency_extended_precision(self):
        p = ModelParams(1.0, 1.0, 1.0)
        c = melnikov.melnikov_coeffs(1.0, 0.0, p)
        assert c.A1 == pytest.approx(A_AT_UNIT_FREQ, rel=1e-15)
        assert c.A3 == pytest.approx(A_AT_UNIT_FREQ, rel=1e-15)

    def test_even_in_frequency(self, params, rng):
        for w in rng.uniform(0.01, 6.0, 20):
            cp = melnikov.melnikov_coeffs(w, 0.0, params)
            cm = melnikov.melnikov_coeffs(-w, 0.0, params)
            assert cm.A1 == pytest.approx(cp.A1, rel=1e-14)


class TestPotential:
    def test_global_max(self, params):
        v = melnikov.melnikov_potential(1.0, 1.0, 0.0, 0.0, 0.0, params)
        c = melnikov.melnikov_coeffs(1.0, 1.0, params)
        assert v == pytest.approx(c.A1 + c.A2 + c.A3, rel=1e-15)

    def test_global_min(self, params):
        v = melnikov.melnikov_potential(1.0, 1.0, math.pi, math.pi, math.pi, params)
        c = melnikov.melnikov_coeffs(1.0, 1.0, params)
        assert v == pytest.approx(-(c.A1 + c.A2 + c.A3), rel=1e-15)

    def test_quadrature_oracle(self, params, rng):
        # closed form vs direct separatrix quadrature at 20 random points
        for _ in range(20):
            i1, i2 = rng.uniform(-3, 3, 2)
            p1, p2, s = rng.uniform(0, TWO_PI, 3)
            closed = melnikov.melnikov_potential(i1, i2, p1, p2, s, params)
            integral = melnikov.melnikov_potential_quadrature(i1, i2, p1, p2, s, params)
            assert abs(closed - integral) < 1e-8


class TestClassification:
    @pytest.mark.parametrize(
        "mu1,mu2,kind,comp",
        [
            (0.4, 0.4, melnikov.HORIZONTAL, None),
            (1.7, 0.4, melnikov.VERTICAL, 1),
            (0.8, 0.4, melnikov.UNSEPARATED, None),
            (0.4, 1.7, melnikov.VERTICAL, 2),
        ],
    )
    def test_reference_cases(self, mu1, mu2, kind, comp):
        p = ModelParams(mu1, mu2, 1.0)
        info = melnikov.classify_crest(1.0, 1.0, p, check_tangency=False)
        assert info.kind == kind
        assert info.vertical_component == comp

    def test_sufficient_condition_everywhere(self, rng):
        # |mu1| + |mu2| < 1/sup|alpha| forces a horizontal crest at every I
        p = ModelParams(0.55, 0.38, 1.0)  # sum 0.93 < 1/1.0303 = 0.9706
        for _ in range(40):
            i1, i2 = rng.uniform(-12, 12, 2)
            info = melnikov.classify_crest(i1, i2, p, check_tangency=False)
            assert info.kind == melnikov.HORIZONTAL

    def test_boundary_flip(self):
        # crossing |mu1|+|mu2| = 1/1.03 with both ratios small flips
        # horizontal <-> unseparated at the worst-case frequencies
        w_star = 1.2191319876982279  # argmax of |alpha|
        below = ModelParams(0.484, 0.484, 1.0)
        above = ModelParams(0.487, 0.487, 1.0)
        lo = melnikov.classify_crest(w_star, w_star, below, check_tangency=False)
        hi = melnikov.classify_crest(w_star, w_star, above, check_tangency=False)
        assert lo.kind == melnikov.HORIZONTAL
        assert hi.kind == melnikov.UNSEPARATED

    def test_vertical_parametrization_residual(self):
        p = ModelParams(1.7, 0.4, 1.0)
        info = melnikov.classify_crest(1.0, 1.0, p, check_tangency=False)
        b1 = p.mu1 * melnikov.alpha(1.0)
        b2 = p.mu2 * melnikov.alpha(1.0)
        for br in (0, 1):
            for (pj, s) in ((0.3, 1.1), (2.0, 4.5), (5.9, 0.2)):
                ph1 = info.eta(br, pj, s)
                res = b1 * math.sin(ph1) + b2 * math.sin(pj) + math.sin(s)
                assert abs(res) < 1e-13


class TestBranches:
    def test_base_points(self, params):
        assert melnikov.crest_branch(0, 1.0, 1.0, 0.0, 0.0, params) == 0.0
        assert melnikov.crest_branch(1, 1.0, 1.0, 0.0, 0.0, params) == pytest.approx(math.pi)

    def test_quarter_angle_value(self):
        # mu = (0.2, 0.3), unit frequencies, phi = (pi/2, pi/2): -asin(0.5)
        p = ModelParams(0.2, 0.3, 1.0)
        s = melnikov.crest_branch(0, 1.0, 1.0, math.pi / 2, math.pi / 2, p)
        assert s == pytest.approx(-0.52359877559829887, rel=1e-14)

    def test_defining_identity(self, params, rng):
        for _ in range(30):
            i1, i2 = rng.uniform(-5, 5, 2)
            p1, p2 = rng.uniform(0, TWO_PI, 2)
            j = int(rng.integers(-2, 3))
            s = melnikov.crest_branch(j, i1, i2, p1, p2, params)
            w1, w2 = params.frequencies(i1, i2)
            res = (
                melnikov.alpha(w1) * params.mu1 * math.sin(p1)
                + melnikov.alpha(w2) * params.mu2 * math.sin(p2)
                + math.sin(s)
            )
            assert abs(res) < 1e-14

    def test_not_horizontal_raises(self):
        p = ModelParams(1.7, 0.4, 1.0)
        with pytest.raises(NotHorizontal):
            melnikov.crest_branch(0, 1.0, 1.0, math.pi / 2, 0.0, p)


class TestTangency:
    def test_margin_positive_in_safe_regime(self, rng):
        p = ModelParams(0.3, 0.2, 1.0)  # sum 0.5 < 0.625
        for _ in range(12):
            i1, i2 = rng.uniform(-10, 10, 2)
            assert melnikov.tangency_margin(i1, i2, p, grid=64) > 0.0

    def test_zero_ratios(self):
        p = ModelParams(0.0, 0.0, 1.0)
        assert melnikov.tangency_margin(1.0, 1.0, p, grid=16) == pytest.approx(1.0)

    def test_tangency_reachable_above_bound(self):
        # sum 0.8 with each ratio small: some I admits f_I > 1
        p = ModelParams(0.4, 0.4, 1.0)
        found = False
        for i1 in np.linspace(0.5, 4.0, 8):
            for i2 in np.linspace(0.5, 4.0, 8):
                if melnikov.tangency_margin(i1, i2, p, grid=64) < 0.0:
                    found = True
                    break
            if found:
                break
        assert found


def _bisect_tau(j, state, params, tol=1e-14):
    """Independent plain-bisection oracle for the crossing time."""
    i1, i2, t1, t2 = state
    w1, w2 = params.frequencies(i1, i2)
    b1 = params.mu1 * melnikov.alpha(w1)
    b2 = params.mu2 * melnikov.alpha(w2)
    kap = math.asin(abs(b1) + abs(b2)) if (b1 or b2) else 0.0
    sgn = -1.0 if j % 2 == 0 else 1.0

    def g(tau):
        x = b1 * math.sin(t1 - tau * w1) + b2 * math.sin(t2 - tau * w2)
        return tau + math.pi * j + sgn * math.asin(max(-1.0, min(1.0, x)))

    lo, hi = -math.pi * j - kap - 1e-9, -math.pi * j + kap + 1e-9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (g(mid) < 0) == (g(lo) < 0):
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


class TestTauStar:
    def test_zero_frequency_branches(self, params):
        r0 = melnikov.solve_tau_star(0, (0.0, 0.0, 1.0, 2.0), params)
        r1 = melnikov.solve_tau_star(1, (0.0, 0.0, 1.0, 2.0), params)
        assert r0.value == pytest.approx(0.0, abs=1e-14)
        assert r1.value == pytest.approx(-math.pi, abs=1e-13)

    def test_nan_angle_is_no_convergence(self):
        # g is NaN at every iterate: no root, not a NaN residual returned as one
        with pytest.raises(NoConvergence):
            melnikov.solve_tau_star(0, (1, 1, math.nan, 0), ModelParams(0.3, 0.1, 1, eps=1e-3))

    def test_no_time_harmonic_is_not_horizontal(self):
        # a3 = 0: the kernels used to divide by it (ZeroDivisionError)
        p = ModelParams(0.3, 0.1, 0.0)
        for fn in (melnikov.reduced_poincare, melnikov.reduced_poincare_grad):
            with pytest.raises(NotHorizontal, match="a3 = 0"):
                fn(0, (1.0, 1.0, 0.5, 2.0), p)

    def test_against_bisection_oracle(self):
        p = ModelParams(0.2, 0.3, 1.0)
        state = (1.0, 1.0, 5 * math.pi / 4, 5 * math.pi / 4)
        ref = _bisect_tau(0, state, p)
        got = melnikov.solve_tau_star(0, state, p)
        assert got.value == pytest.approx(ref, abs=1e-12)
        # frozen regression value from the bisection oracle
        assert got.value == pytest.approx(-0.5004740367753859, abs=1e-12)

    def test_critical_point_residual(self, params, rng):
        # d/dtau of the potential along the line vanishes at tau*
        for _ in range(50):
            z = np.array([*rng.uniform(-5, 5, 2), *rng.uniform(0, TWO_PI, 2)])
            r = melnikov.solve_tau_star(0, z, params)
            w1, w2 = params.frequencies(z[0], z[1])
            c = melnikov.melnikov_coeffs(z[0], z[1], params)
            res = (
                w1 * c.A1 * math.sin(z[2] - w1 * r.value)
                + w2 * c.A2 * math.sin(z[3] - w2 * r.value)
                + c.A3 * math.sin(-r.value)
            )
            assert abs(res) < 1e-10

    def test_branch_ordering(self, params, rng):
        musum = abs(params.mu1) + abs(params.mu2)
        kap = math.asin(kernels.ALPHA_SUP * musum)
        for _ in range(30):
            z = np.array([*rng.uniform(-5, 5, 2), *rng.uniform(0, TWO_PI, 2)])
            taus = [melnikov.solve_tau_star(j, z, params).value for j in (-1, 0, 1, 2)]
            for a, b in zip(taus[:-1], taus[1:]):
                assert math.pi - 2 * kap < abs(b - a) < math.pi + 2 * kap
                assert b < a  # crossing times decrease with the branch index


class TestReducedFunction:
    def test_level_at_origin_quarter(self, params):
        # L*_0(0, 0, pi/2, pi/2) equals the time-harmonic coefficient A3
        v = melnikov.reduced_poincare(0, (0.0, 0.0, math.pi / 2, math.pi / 2), params)
        assert v == pytest.approx(A_AT_UNIT_FREQ * params.a3, rel=1e-14)

    def test_value_at_origin(self, params):
        # at I = 0 the rotor coefficients hit 4a, the time one stays A3
        v = melnikov.reduced_poincare(0, (0.0, 0.0, 0.0, 0.0), params)
        expect = 4 * params.a1 + 4 * params.a2 + A_AT_UNIT_FREQ * params.a3
        assert v == pytest.approx(expect, rel=1e-14)

    def test_gradients_vs_central_differences(self, params, rng):
        worst = 0.0
        for _ in range(50):
            z = np.array([*rng.uniform(-4, 4, 2), *rng.uniform(0, TWO_PI, 2)])
            _v, _tau, dI, dTH = melnikov.reduced_poincare_grad(0, z, params)
            h = 1e-6
            for k, an in enumerate((dI[0], dI[1], dTH[0], dTH[1])):
                zp, zm = z.copy(), z.copy()
                zp[k] += h
                zm[k] -= h
                fd = (
                    melnikov.reduced_poincare(0, zp, params)
                    - melnikov.reduced_poincare(0, zm, params)
                ) / (2 * h)
                worst = max(worst, abs(an - fd) / max(1.0, abs(an)))
        assert worst < 1e-6

    def test_envelope_form_of_theta_gradient(self, params, rng):
        # no dtau/dtheta term survives: dL/dtheta_i = -A_i sin(theta_i - w_i tau)
        for _ in range(20):
            z = np.array([*rng.uniform(-4, 4, 2), *rng.uniform(0, TWO_PI, 2)])
            _v, tau, _dI, dTH = melnikov.reduced_poincare_grad(0, z, params)
            w1, w2 = params.frequencies(z[0], z[1])
            c = melnikov.melnikov_coeffs(z[0], z[1], params)
            assert dTH[0] == pytest.approx(-c.A1 * math.sin(z[2] - w1 * tau), rel=1e-12, abs=1e-14)
            assert dTH[1] == pytest.approx(-c.A2 * math.sin(z[3] - w2 * tau), rel=1e-12, abs=1e-14)

    def test_psi_inverse_roundtrip(self, params, rng):
        for _ in range(30):
            z = np.array([*rng.uniform(-4, 4, 2), *rng.uniform(0, TWO_PI, 2)])
            ps, _ts = melnikov.psi(0, z, params)
            th = melnikov.psi_inverse(0, z[0], z[1], ps[0], ps[1], params)
            d = np.abs(np.mod(th - z[2:] + math.pi, TWO_PI) - math.pi).max()
            assert d < 1e-10

    def test_smooth_in_actions(self, params):
        # tau* solved implicitly: L* continuous through the zero-frequency line
        vals = [
            melnikov.reduced_poincare(0, (i1, 0.7, 1.0, 2.0), params)
            for i1 in np.linspace(-0.01, 0.01, 9)
        ]
        assert np.max(np.abs(np.diff(vals))) < 1e-3


def test_vertical_needs_large_ratio(rng):
    # a vertical crest at any I forces the graph component's amplitude ratio
    # above the reciprocal of the certified weight bound
    for _ in range(60):
        m1, m2 = rng.uniform(0.0, 2.5, 2)
        i1, i2 = rng.uniform(-4, 4, 2)
        p = ModelParams(m1, m2, 1.0)
        info = melnikov.classify_crest(i1, i2, p, check_tangency=False)
        if info.kind == melnikov.VERTICAL:
            mu = abs(p.mu1) if info.vertical_component == 1 else abs(p.mu2)
            assert mu > 1.0 / kernels.ALPHA_SUP
