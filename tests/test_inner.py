import math

import numpy as np
import pytest

from arnolddiff import inner, melnikov
from arnolddiff.errors import UseScatteringDetour, WindowUnreachable
from arnolddiff.model import ModelParams
from arnolddiff.ode import IntegratorConfig

TWO_PI = 2.0 * math.pi


class TestFlow:
    def test_unperturbed_rotation(self):
        p = ModelParams(0.3, 0.1, 1.0, eps=0.0)
        x0 = np.array([0.8, -0.4, 1.0, 2.0, 0.0])
        xt = inner.inner_flow(x0, 12.5, p)
        assert xt[0] == pytest.approx(0.8, abs=1e-14)
        assert xt[1] == pytest.approx(-0.4, abs=1e-14)
        assert xt[2] == pytest.approx(1.0 + 12.5 * 0.8, rel=1e-12)
        assert xt[3] == pytest.approx(2.0 - 12.5 * 0.4, rel=1e-12)
        assert xt[4] == pytest.approx(12.5, rel=1e-13)

    def test_action_rate_sign(self):
        # near the resonance circle the action moves with eps*a*sin(phi)
        p = ModelParams(0.3, 0.1, 1.0, eps=1e-3)
        f = inner.inner_rhs(p)
        d = f(0.0, np.array([0.05, 0.0, 1.0, 0.0, 0.0]))
        assert d[0] == pytest.approx(p.eps * p.a1 * math.sin(1.0), rel=1e-15)
        assert d[0] > 0

    def test_first_integrals_conserved_long(self, rng):
        p = ModelParams(0.3, 0.1, 1.0, eps=1e-3)
        x0 = np.array([*rng.uniform(-2, 2, 2), *rng.uniform(0, TWO_PI, 2), 0.0])
        f0 = inner.first_integrals(x0, p)
        cfg = IntegratorConfig(abs_tol=1e-13, rel_tol=1e-13, h_max=2.0)
        xt = inner.inner_flow(x0, 1000.0, p, cfg=cfg)
        ft = inner.first_integrals(xt, p)
        assert abs(ft[0] - f0[0]) < 1e-10
        assert abs(ft[1] - f0[1]) < 1e-10


class TestFirstIntegrals:
    def test_zero_state(self, params):
        assert inner.first_integrals(np.zeros(5), params) == (0.0, 0.0)

    def test_unperturbed_values(self):
        p = ModelParams(0.3, 0.1, 1.0, Omega1=1.4, Omega2=0.6, eps=0.0)
        f1, f2 = inner.first_integrals(np.array([1.0, 1.0, math.pi, math.pi, 0.0]), p)
        assert f1 == pytest.approx(0.7)
        assert f2 == pytest.approx(0.3)


class TestErgodize:
    def test_already_inside(self, params):
        th = melnikov.psi_inverse(0, 1.0, 1.4, 4.0, 4.5, params)
        res = inner.ergodize(np.array([1.0, 1.4, th[0], th[1]]), params=params)
        assert res.t_star == 0.0

    def test_irrational_ratio_finds_window(self, params):
        st = np.array([1.0, math.sqrt(2.0), 0.3, 0.7])
        res = inner.ergodize(st, params=params)
        bound = TWO_PI * params.eps ** (-0.25)  # 2*pi*eps^(-2a), a = 1/8
        assert 0.0 < res.t_star <= bound
        for v in res.psi:
            assert math.pi < v % TWO_PI < TWO_PI
        # actions untouched by the rotation wait
        assert res.state[0] == st[0] and res.state[1] == st[1]

    def test_rational_ratio_finds_window(self, params):
        st = np.array([1.0, 0.5, 0.3, 0.8])  # ratio 1/2
        res = inner.ergodize(st, params=params)
        for v in res.psi:
            assert math.pi < v % TWO_PI < TWO_PI

    def test_degenerate_diagonal_signals_detour(self, params):
        st = np.array([1.0, 1.0, 0.3, 0.3 + math.pi])
        with pytest.raises(UseScatteringDetour):
            inner.ergodize(st, params=params)

    def test_budget_exhaustion(self, params):
        st = np.array([1.0, 1.0 + 1e-13, 0.3, 0.3 + math.pi - 1e-4])
        with pytest.raises((WindowUnreachable, UseScatteringDetour)):
            inner.ergodize(st, params=params, t_bound=50.0, degenerate_tol=(1e-16, 1e-9))

    def test_exact_flow_action_excursion_bounded(self, params):
        # along the true rotor dynamics the wait changes actions at most by
        # the separatrix half-width of the rotor integrals
        st = np.array([1.0, math.sqrt(2.0), 0.3, 0.7])
        res = inner.ergodize(st, params=params)
        x0 = np.array([st[0], st[1], st[2], st[3], 0.0])
        traj = inner.inner_flow(x0, max(res.t_star, 1.0), params, record=True)
        bound1 = 2.0 * math.sqrt(2.0 * params.eps * abs(params.a1) / params.Omega1)
        bound2 = 2.0 * math.sqrt(2.0 * params.eps * abs(params.a2) / params.Omega2)
        assert np.abs(traj.y[:, 0] - st[0]).max() <= bound1
        assert np.abs(traj.y[:, 1] - st[1]).max() <= bound2

    def test_linear_approximation_accuracy(self, params):
        # angle error of the frozen-action rotation stays below delta/10
        # over one ergodization wait at the reference parameters
        st = np.array([1.0, math.sqrt(2.0), 0.3, 0.7])
        res = inner.ergodize(st, params=params)
        x0 = np.array([st[0], st[1], st[2], st[3], 0.0])
        exact = inner.inner_flow(x0, res.t_star, params)
        lin = inner.inner_flow_linear(st, res.t_star, params)
        err = max(abs(exact[2] - lin[2]), abs(exact[3] - lin[3]))
        assert err < 0.1 / 10.0
