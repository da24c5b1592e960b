import math
import warnings

import numpy as np
import pytest

from arnolddiff import highway, melnikov, ode, scattering
from arnolddiff.errors import AsymptoticsUnreliable, LevelDrift
from arnolddiff.model import ModelParams
from arnolddiff.ode import Section, integrate_to_event

TWO_PI = 2.0 * math.pi


@pytest.fixture
def params_sym():
    return ModelParams(0.1, 0.1, 1.0, 1.0, 1.0, eps=1e-3)


class TestSeeds:
    def test_far_field_residual(self, params):
        st, res = highway.highway_seed(7.0, 7.0, params)
        assert res < 1e-6
        # corrections to (3pi/2, 3pi/2) are exponentially small
        assert abs(st[2] - 1.5 * math.pi) < 2e-2
        assert abs(st[3] - 1.5 * math.pi) < 2e-2

    def test_residual_decays_with_actions(self, params):
        _s4, r4 = highway.highway_seed(4.0, 4.0, params)
        _s8, r8 = highway.highway_seed(8.0, 8.0, params)
        assert r4 > r8

    def test_sign_branches_reflect(self, params):
        up, _ = highway.highway_seed(7.0, 7.0, params, signs=(1, 1))
        dn, _ = highway.highway_seed(7.0, 7.0, params, signs=(-1, -1))
        assert dn[2] == pytest.approx(TWO_PI - up[2], rel=1e-12)
        assert dn[3] == pytest.approx(TWO_PI - up[3], rel=1e-12)

    def test_mixed_signs_on_level(self, params):
        st, res = highway.highway_seed(7.0, -7.0, params, signs=(1, -1))
        assert res < 1e-8

    def test_too_close_to_resonance(self, params):
        with pytest.raises(AsymptoticsUnreliable):
            highway.highway_seed(1.0, 1.0, params)

    def test_zero_coefficient(self, params):
        # the correction divides by A1, A2 and A3: |pi*w/2| > 700 cuts A1 and
        # A2 to 0 at I = (1e3, -1e3), a3 = 0 zeroes A3 and a2 = 0 zeroes A2
        # (numpy actions included)
        with pytest.raises(AsymptoticsUnreliable, match="A1 = 0.0 and A2 = 0.0"):
            highway.highway_seed(1e3, -1e3, params)
        with pytest.raises(AsymptoticsUnreliable, match="A3 = 0.0"):
            highway.highway_seed(7.0, -7.0, ModelParams(0.3, 0.1, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AsymptoticsUnreliable):
                highway.highway_seed(np.float64(7.0), np.float64(7.0), ModelParams(0.3, 0.0, 1.0))


class TestSymmetricClosedForm:
    def test_resonance_point_angles(self, params_sym):
        assert highway.symmetric_highway_theta(0.0, "h", params_sym) == pytest.approx(
            math.pi / 2
        )
        assert highway.symmetric_highway_theta(0.0, "H", params_sym) == pytest.approx(
            3 * math.pi / 2
        )

    @pytest.mark.parametrize("ibar", [-5.0, -2.5, -1.0, -0.3, 0.4, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("branch", ["h", "H"])
    def test_defining_equations(self, params_sym, ibar, branch):
        th = highway.symmetric_highway_theta(ibar, branch, params_sym)
        z = np.array([ibar, ibar, th, th])
        # level equation
        lvl = melnikov.reduced_poincare(0, z, params_sym)
        assert abs(lvl - highway.level_value(params_sym)) < 1e-9
        # crest equation at the solved crossing time
        ts = melnikov.solve_tau_star(0, z, params_sym)
        w = params_sym.Omega1 * ibar
        c = melnikov.melnikov_coeffs(ibar, ibar, params_sym)
        res = 2 * w * c.A1 * math.sin(th - w * ts.value) + c.A3 * math.sin(-ts.value)
        assert abs(res) < 1e-9

    def test_even_in_action(self, params_sym):
        for ib in (0.7, 1.0, 3.3):
            a = highway.symmetric_highway_theta(ib, "h", params_sym)
            b = highway.symmetric_highway_theta(-ib, "h", params_sym)
            assert a == pytest.approx(b, rel=1e-13)

    def test_unit_frequency_consistent_with_neighbors(self, params_sym):
        # the degenerate-quadratic value interpolates the generic branch
        vals = [
            highway.symmetric_highway_theta(ib, "H", params_sym)
            for ib in (0.999, 1.0, 1.001)
        ]
        assert abs(vals[1] - 0.5 * (vals[0] + vals[2])) < 1e-5

    def test_requires_symmetry(self, params):
        with pytest.raises(ValueError):
            highway.symmetric_highway_theta(1.0, "h", params)

    def test_matches_direct_level_solve(self, params_sym):
        # independent oracle: 1D level-set solve in the symmetric subspace
        from scipy.optimize import brentq

        A3 = highway.level_value(params_sym)
        for ib in (-3.0, 0.5, 2.0):
            th_ref = brentq(
                lambda th: melnikov.reduced_poincare(0, (ib, ib, th, th), params_sym) - A3,
                3 * math.pi / 2 - 1.2,
                3 * math.pi / 2 + 1.2,
                xtol=1e-14,
            )
            th = highway.symmetric_highway_theta(ib, "H", params_sym)
            assert th == pytest.approx(th_ref, abs=1e-11)


class TestTrace:
    def test_level_held_and_monotone(self, params):
        st, _ = highway.highway_seed(7.0, -7.0, params)
        orb = highway.highway_trace(st, params, stop=(1, 0.0, +1))
        assert orb.level_error < 1e-9
        assert np.all(np.diff(np.asarray(orb.states)[:, 1]) > -1e-12)
        assert orb.branch_label == highway.BRANCH_UP

    def test_one_integration_per_trace(self, params, monkeypatch):
        # the stop crossing is landed inside the single recorded pass
        calls = []

        def counting(fn):
            def wrapped(*args, **kwargs):
                calls.append(args[2])
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(highway, "integrate", counting(highway.integrate))
        monkeypatch.setattr(ode, "integrate", counting(ode.integrate))
        st, _ = highway.highway_seed(7.0, -7.0, params)
        orb = highway.highway_trace(st, params, stop=(1, 0.0, +1))
        assert len(calls) == 1
        states = np.asarray(orb.states)
        assert states[-1, 1] == 0.0
        assert states[-2, 1] < 0.0 and orb.t[-2] < orb.t[-1]

    def test_forward_backward_glue(self, params):
        # forward to the matching section, then backward to the seed section:
        # the round trip reproduces the seed
        st, _ = highway.highway_seed(7.0, -7.0, params)
        f = scattering.flow_rhs(0, params)
        cfg = highway.TRACE_INTEGRATOR
        ev0 = Section(1, 0.0, direction=+1)
        y_mid, t_mid = integrate_to_event(f, st, ev0, cfg, t_span=(0.0, 1e9))
        ev_back = Section(1, -7.0, direction=-1)
        y_back, _ = integrate_to_event(f, y_mid, ev_back, cfg, t_span=(0.0, -1e9))
        assert np.abs(np.asarray(y_back) - np.asarray(st)).max() < 1e-6

    def test_level_drift_guard(self, params):
        st, _ = highway.highway_seed(7.0, -7.0, params)
        st = st + np.array([0.0, 0.0, 0.05, 0.0])  # push off the level set
        with pytest.raises(LevelDrift):
            highway.highway_trace(st, params, stop=(1, -6.9, +1), drift_tol=1e-7)

    def test_unbounded_growth(self, params):
        # no Highway orbit stays in a compact action region
        st, _ = highway.highway_seed(10.0, 9.0, params)
        orb = highway.highway_trace(st, params, stop=(0, 10.5, +1), drift_tol=1e-6)
        states = np.asarray(orb.states)
        assert np.hypot(states[-1, 0], states[-1, 1]) > 10.0

    def test_equilibria_not_on_level(self, params):
        A3 = highway.level_value(params)
        for th1 in (0.0, math.pi):
            for th2 in (0.0, math.pi):
                v = melnikov.reduced_poincare(0, (0.0, 0.0, th1, th2), params)
                assert abs(v - A3) > 0.1


class TestAsymptote:
    def test_reference_values(self, params):
        slope, off_far, off_near = highway.highway_asymptote(params)
        assert slope == 1.0
        assert off_far == pytest.approx(-(2 / math.pi) * math.log(3.0), rel=1e-14)
        assert off_near == -off_far

    def test_equal_amplitudes_diagonal(self):
        p = ModelParams(0.2, 0.2, 1.0)
        _s, off_far, off_near = highway.highway_asymptote(p)
        assert off_far == 0.0 and off_near == 0.0

    def test_gradient_surface_cross_partials(self, params_sym):
        # on the equal-amplitude family the angle graph is a gradient:
        # dTheta1/dI2 = dTheta2/dI1, exactly so at symmetric points
        h = 1e-4

        def theta(i1_, i2_):
            st, _ = highway.highway_seed(i1_, i2_, params_sym)
            return st[2:]

        i1 = i2 = 7.5
        d1_2 = (theta(i1, i2 + h)[0] - theta(i1, i2 - h)[0]) / (2 * h)
        d2_1 = (theta(i1 + h, i2)[1] - theta(i1 - h, i2)[1]) / (2 * h)
        assert d1_2 == pytest.approx(d2_1, abs=1e-9)
        # near the diagonal the defect stays a small fraction of the partials
        i1, i2 = 7.4, 7.7
        d1_2 = (theta(i1, i2 + h)[0] - theta(i1, i2 - h)[0]) / (2 * h)
        d2_1 = (theta(i1 + h, i2)[1] - theta(i1 - h, i2)[1]) / (2 * h)
        assert abs(d1_2 - d2_1) < 0.5 * max(abs(d1_2), abs(d2_1))

    def test_transit_family_smooth_and_clustered(self, params):
        fam = highway.trace_family_between_sections([7.0, 8.0, 9.0], -7.0, 7.0, params)
        times = np.array([T for _, T in fam])
        assert np.ptp(times) < 0.01 * times.mean()
        for orb, _T in fam:
            assert orb.level_error < 1e-7
