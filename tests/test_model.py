import math

import numpy as np
import pytest

from arnolddiff.model import (
    ModelParams,
    hamiltonian,
    rhs,
    separatrix,
)
from arnolddiff.ode import IntegratorConfig, integrate

TWO_PI = 2.0 * math.pi


class TestParams:
    def test_derived_ratios(self):
        p = ModelParams(0.3, 0.1, 1.0)
        assert p.mu1 == 0.3 and p.mu2 == 0.1
        assert p.horizontal_safe

    def test_safe_flag_boundary(self):
        assert not ModelParams(0.5, 0.2, 1.0).horizontal_safe  # sum 0.7
        assert ModelParams(0.5, 0.1, 1.0).horizontal_safe      # sum 0.6
        assert not ModelParams(0.625, 0.0, 1.0).horizontal_safe  # closed boundary

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(0.3, 0.1, 1.0, Omega1=0.0)
        with pytest.raises(ValueError):
            ModelParams(0.3, 0.1, 1.0, eps=-1.0)
        with pytest.raises(ValueError):
            ModelParams(0.3, 0.1, 1.0, pendulum_sign=2)
        # non-finite fields, NaN included, are rejected at construction
        for kw in (dict(Omega1=math.nan), dict(eps=math.nan), dict(a1=math.inf)):
            with pytest.raises(ValueError, match="non-finite"):
                ModelParams(**{"a1": 0.3, "a2": 0.1, "a3": 1.0, **kw})

    def test_diffusion_regime_guard(self):
        ModelParams(0.3, 0.1, 1.0).require_diffusion_regime()
        with pytest.raises(ValueError):
            ModelParams(0.0, 0.1, 1.0).require_diffusion_regime()
        with pytest.raises(ValueError):
            ModelParams(0.5, 0.3, 1.0).require_diffusion_regime()


class TestHamiltonian:
    def test_origin_value(self):
        p = ModelParams(0.3, 0.1, 1.0, eps=1e-3)
        assert hamiltonian([0, 0, 0, 0, 0, 0, 0], p) == pytest.approx(
            p.eps * (0.3 + 0.1 + 1.0), abs=0.0
        )

    def test_separatrix_energy_zero(self):
        p = ModelParams(0.3, 0.1, 1.0, eps=0.0)
        assert hamiltonian([2.0, math.pi, 0, 0, 0, 0, 0], p) == 0.0

    def test_rotor_energy(self):
        p = ModelParams(0.3, 0.1, 1.0, Omega1=1.3, Omega2=0.7, eps=0.0)
        h = hamiltonian([0, 0, 2.0, -1.0, 0.4, 1.1, 2.2], p)
        assert h == pytest.approx(0.5 * 1.3 * 4.0 + 0.5 * 0.7 * 1.0, rel=1e-15)


class TestVectorField:
    def test_invariant_set(self, rng):
        # p = q = 0 stays invariant for every eps: sin(0) kills both rates
        p = ModelParams(0.3, 0.1, 1.0, eps=0.37)
        for _ in range(25):
            x = np.array([0.0, 0.0, *rng.uniform(-3, 3, 2), *rng.uniform(0, TWO_PI, 3)])
            d = rhs(p)(0.0, x)
            assert d[0] == 0.0 and d[1] == 0.0

    def test_unperturbed_pendulum_rates(self):
        p = ModelParams(0.3, 0.1, 1.0, eps=0.0)
        d = rhs(p)(0.0, [1.0, math.pi / 2, 0, 0, 0, 0, 0])
        assert d[0] == pytest.approx(1.0) and d[1] == pytest.approx(1.0)

    def test_action_rates(self):
        p = ModelParams(0.3, 0.1, 1.0, eps=2e-3)
        x = [0.5, 1.0, 0.2, -0.4, 0.7, 2.0, 0.3]
        d = rhs(p)(0.0, x)
        assert d[2] == pytest.approx(p.eps * 0.3 * math.sin(0.7) * math.cos(1.0), rel=1e-14)
        assert d[3] == pytest.approx(p.eps * 0.1 * math.sin(2.0) * math.cos(1.0), rel=1e-14)
        assert d[4] == pytest.approx(0.2) and d[5] == pytest.approx(-0.4)
        assert d[6] == 1.0

    def test_energy_drift_unperturbed(self):
        p = ModelParams(0.3, 0.1, 1.0, eps=0.0)
        x0 = np.array([0.3, 2.0, 0.8, -0.5, 0.1, 0.2, 0.0])
        h0 = hamiltonian(x0, p)
        traj = integrate(rhs(p), x0, (0.0, 100.0), IntegratorConfig())
        drift = max(abs(hamiltonian(y, p) - h0) for y in traj.y[:: max(1, len(traj.y) // 50)])
        assert drift < 1e-10

    def test_extended_energy_drift_perturbed(self):
        # H is time-dependent through s; H + E with E' = -dH/ds is conserved
        p = ModelParams(0.3, 0.1, 1.0, eps=5e-3)
        base = rhs(p)

        def f(t, y):
            d = base(t, y[:7])
            dE = -p.eps * math.cos(y[1]) * p.a3 * (-math.sin(y[6]))
            return np.append(d, dE)

        x0 = np.array([0.3, 2.0, 0.8, -0.5, 0.1, 0.2, 0.0, 0.0])
        h0 = hamiltonian(x0[:7], p)
        traj = integrate(f, x0, (0.0, 100.0), IntegratorConfig())
        worst = max(
            abs(hamiltonian(y[:7], p) + y[7] - h0)
            for y in traj.y[:: max(1, len(traj.y) // 50)]
        )
        assert worst < 1e-10


class TestSeparatrix:
    def test_apex(self):
        p0, q0 = separatrix(0.0)
        assert p0 == 2.0 and q0 == pytest.approx(math.pi, rel=1e-15)

    def test_asymptotics(self):
        p0, q0 = separatrix(40.0)
        assert abs(p0) < 1e-16
        assert q0 == pytest.approx(TWO_PI, abs=1e-15)
        pm, qm = separatrix(40.0, branch=-1)
        assert qm == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("tau", [-5.0, -1.0, 0.0, 1.0, 5.0])
    @pytest.mark.parametrize("branch", [1, -1])
    def test_zero_energy(self, tau, branch):
        p0, q0 = separatrix(tau, branch)
        assert abs(0.5 * p0 * p0 + math.cos(q0) - 1.0) < 1e-14

    def test_reversibility(self):
        for tau in (0.3, 1.7, 4.0):
            pp, qp = separatrix(tau)
            pm, qm = separatrix(-tau)
            assert pm == pytest.approx(pp, rel=1e-15)
            assert qm == pytest.approx(TWO_PI - qp, rel=1e-14)
