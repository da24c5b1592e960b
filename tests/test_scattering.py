import math

import numpy as np
import pytest

from arnolddiff import melnikov, numerics, ode, scattering
from arnolddiff.errors import EventNotFound, NotHorizontal
from arnolddiff.model import ModelParams
from arnolddiff.ode import integrate
from equilibria import find_equilibria

TWO_PI = 2.0 * math.pi


class TestMap:
    def test_fixed_at_sine_zeros(self, params):
        # psi = (pi, pi) kills both action jumps
        th = melnikov.psi_inverse(0, 1.2, -0.8, math.pi, math.pi, params)
        step = scattering.scattering_map(0, (1.2, -0.8, th[0], th[1]), params)
        assert np.abs(step.jump).max() < 1e-14

    def test_jump_at_origin_quarter(self, params):
        eps = 1e-3
        step = scattering.scattering_map(
            0, (0.0, 0.0, math.pi / 2, math.pi / 2), params, eps=eps
        )
        assert step.jump[0] == pytest.approx(-4 * params.a1 * eps, rel=1e-13)
        assert step.jump[1] == pytest.approx(-4 * params.a2 * eps, rel=1e-13)

    def test_iterates_follow_flow(self, params, rng):
        # 1000 jumps stay O(eps)-close to the flow for time 1000*eps
        eps = 1e-3
        z = np.array([1.3, 0.6, 2.2, 5.1])
        zmap = z.copy()
        for _ in range(1000):
            zmap = scattering.scattering_map(0, zmap, params, eps=eps).after
        traj = integrate(scattering.flow_rhs(0, params), z, (0.0, 1000 * eps))
        gap = np.abs(np.asarray(zmap) - np.asarray(traj.final)).max()
        assert gap < 10 * eps

    def test_level_change_quadratic(self, params):
        K = scattering.calibrate_remainder(0, params, eps=1e-3, box=4.0, n=4)
        assert 0.0 < K < 100.0
        step = scattering.scattering_map(0, (1.7, -2.3, 0.9, 4.0), params, eps=1e-3)
        assert abs(step.level_change) <= 1.5 * K * 1e-6

    def test_jacobian_symplectic_to_first_order(self, params):
        # DS = Id + eps J Hess(L*) + O(eps^2), via finite differences
        eps = 1e-4
        z0 = np.array([1.1, -0.7, 2.0, 4.8])
        h = 1e-5

        def smap(z):
            return scattering.scattering_map(0, z, params, eps=eps).after

        DS = np.empty((4, 4))
        for k in range(4):
            zp, zm = z0.copy(), z0.copy()
            zp[k] += h
            zm[k] -= h
            DS[:, k] = (np.array(smap(zp)) - np.array(smap(zm))) / (2 * h)

        def grad(z):
            _v, _t, dI, dTH = melnikov.reduced_poincare_grad(0, z, params)
            return np.concatenate([dI, dTH])

        H = np.empty((4, 4))
        for k in range(4):
            zp, zm = z0.copy(), z0.copy()
            zp[k] += h
            zm[k] -= h
            H[:, k] = (grad(zp) - grad(zm)) / (2 * h)
        J = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
        expect = np.eye(4) + eps * (J @ H)
        assert np.abs(DS - expect).max() < 50 * eps**2 + 1e-6


class TestFlow:
    def test_four_equilibria_values(self, params):
        for th1 in (0.0, math.pi):
            for th2 in (0.0, math.pi):
                f = scattering.flow_rhs(0, params)(0.0, (0.0, 0.0, th1, th2))
                assert np.abs(f).max() < 1e-15

    def test_field_is_hamiltonian_gradient(self, params, rng):
        # field = (dL/dth, -dL/dI), cross-checked by finite differences of L*
        worst = 0.0
        for _ in range(50):
            z = np.array([*rng.uniform(-4, 4, 2), *rng.uniform(0, TWO_PI, 2)])
            f = np.array(scattering.flow_rhs(0, params)(0.0, z))
            h = 1e-6
            fd = np.empty(4)
            for k in range(4):
                zp, zm = z.copy(), z.copy()
                zp[k] += h
                zm[k] -= h
                fd[k] = (
                    melnikov.reduced_poincare(0, zp, params)
                    - melnikov.reduced_poincare(0, zm, params)
                ) / (2 * h)
            expect = np.array([fd[2], fd[3], -fd[0], -fd[1]])
            worst = max(worst, np.abs(f - expect).max() / max(1.0, np.abs(f).max()))
        assert worst < 1e-6

    @pytest.mark.parametrize(
        "p",
        [
            ModelParams(0.3, 0.1, 1.0, 1.0, 1.0),
            ModelParams(0.2, 0.25, 1.0, 1.3, 0.7),
            ModelParams(-0.3, 0.1, 1.0, 1.0, 1.0),
        ],
        ids=["ref", "unequal-omega", "negative-a1"],
    )
    def test_certified_zero_scan(self, p):
        eq = find_equilibria(0, p)
        got = [tuple(float(v) for v in z) for z in eq]
        pi = math.pi
        assert got == [
            (0.0, 0.0, 0.0, 0.0),
            (0.0, 0.0, 0.0, pi),
            (0.0, 0.0, pi, 0.0),
            (0.0, 0.0, pi, pi),
        ]

    def test_zero_scan_off_horizontal_regime(self):
        # |mu1| + |mu2| = 1.2: alpha(1.25) ~ 1.03 puts the crest off the
        # horizontal regime at grid actions I1 = I2 = 1.25
        with pytest.raises(NotHorizontal):
            find_equilibria(0, ModelParams(0.7, 0.5, 1.0))

    def test_level_conservation(self, params, rng):
        f = scattering.flow_rhs(0, params)
        z0 = np.array([*rng.uniform(-2, 2, 2), *rng.uniform(0, TWO_PI, 2)])
        L0 = melnikov.reduced_poincare(0, z0, params)
        traj = integrate(f, z0, (0.0, 1000.0), scattering.SECTION_INTEGRATOR)
        drift = max(
            abs(melnikov.reduced_poincare(0, y, params) - L0)
            for y in traj.y[:: max(1, len(traj.y) // 40)]
        )
        assert drift < 1e-9


class TestSection:
    def level(self, params):
        return melnikov.reduced_poincare(
            0, (0.0, 0.0, 5 * math.pi / 4, 5 * math.pi / 4), params
        )

    def test_crossings_on_level(self, params_fig5):
        lvl = self.level(params_fig5)
        seeds = [(0.0, 0.0, 5 * math.pi / 4, 5 * math.pi / 4 + d) for d in (-0.1, 0.1)]
        pts = scattering.poincare_section(
            0, lvl, 0.0, seeds, t_max=120.0, params=params_fig5, max_crossings=10
        )
        assert len(pts) >= 10
        for p in pts:
            assert abs(p.state[0]) < 1e-9  # on the section
            got = melnikov.reduced_poincare(0, p.state, params_fig5)
            assert abs(got - lvl) < 1e-8  # on the level

    def test_one_integration_per_orbit(self, params_fig5, monkeypatch):
        calls = []
        real = ode.integrate

        def counting(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(ode, "integrate", counting)
        lvl = self.level(params_fig5)
        seeds = [(0.0, 0.0, 5 * math.pi / 4, 5 * math.pi / 4 + d) for d in (-0.1, 0.0, 0.1)]
        pts = scattering.poincare_section(
            0, lvl, 0.0, seeds, t_max=120.0, params=params_fig5, max_crossings=4
        )
        assert calls == [(0.0, 120.0)] * len(seeds)
        assert [sum(p.orbit == k for p in pts) for k in range(len(seeds))] == [4] * len(seeds)
        assert all(p.state[0] == 0.0 for p in pts)  # landed exactly on I1 = 0

    def test_equilibrium_seed_never_returns(self, params):
        with pytest.raises(EventNotFound, match="never crossed"):
            scattering.poincare_section(
                0,
                melnikov.reduced_poincare(0, (0.0, 0.0, math.pi, math.pi), params),
                0.5,
                [(0.0, 0.0, math.pi, math.pi)],
                t_max=30.0,
                params=params,
            )

    def test_time_reversal_same_invariant_set(self, params_fig5):
        lvl = self.level(params_fig5)
        seeds = [(0.0, 0.0, 5 * math.pi / 4, 5 * math.pi / 4 + 0.15)]
        fwd = scattering.poincare_section(
            0, lvl, 0.0, seeds, t_max=150.0, params=params_fig5, max_crossings=12
        )
        bwd = scattering.poincare_section(
            0, lvl, 0.0, seeds, t_max=150.0, params=params_fig5, max_crossings=12,
            direction=-1,
        )
        # both runs sample the same level-set orbit: values stay on the level
        for p in fwd + bwd:
            assert abs(melnikov.reduced_poincare(0, p.state, params_fig5) - lvl) < 1e-8
        hi = max(p.i2 for p in fwd)
        lo = min(p.i2 for p in fwd)
        for p in bwd:
            assert lo - 0.5 <= p.i2 <= hi + 0.5


    def test_seed_root_matches_the_array_scan(self, params_fig5):
        # the golden poincare run's seeds, then guesses whose scan windows
        # hold several sign changes, so the nearest bracket decides
        lp = (0.0, 0.0, 3.9269908169872414, 3.9269908169872414)
        level = melnikov.reduced_poincare(0, lp, params_fig5)
        seeds = [(0.0, 0.0, lp[2], t2) for t2 in np.linspace(3.85, 3.95, 3).tolist()]
        seeds += [(0.1, -0.2, g, 3.9) for g in np.linspace(2.0, 5.4, 18).tolist()]
        for seed in seeds:
            got = scattering.adjust_seed_to_level(0, *seed, level, params_fig5)
            assert repr(got) == repr(_adjust_seed_array(0, *seed, level, params_fig5))


def _adjust_seed_array(j, i1, i2, theta1_guess, theta2, level, params):
    """The numpy seed solve that the list scan replaces, as the oracle."""

    def f(th1):
        return melnikov.reduced_poincare(j, (i1, i2, th1, theta2), params) - level

    grid = np.linspace(theta1_guess - 1.5, theta1_guess + 1.5, 81)
    vals = np.array([f(t) for t in grid])
    sign_change = np.nonzero(vals[:-1] * vals[1:] <= 0.0)[0]
    mids = 0.5 * (grid[sign_change] + grid[sign_change + 1])
    k = sign_change[np.argmin(np.abs(mids - theta1_guess))]
    th1 = numerics.brentq(f, grid[k], grid[k + 1], xtol=1e-14)
    return float(i1), float(i2), float(th1), float(theta2)


class TestTransversality:
    def test_nonvanishing_away_from_origin(self, params, rng):
        p = ModelParams(0.3, 0.1, 1.0, eps=1e-3)
        for _ in range(10):
            th = rng.uniform(0, TWO_PI, 2)
            z = (2.0, -1.5, th[0], th[1])
            b1, b2 = scattering.transversality_certificate(0, z, p)
            ps, _ = melnikov.psi(0, np.asarray(z), p)
            if min(abs(math.sin(v)) for v in ps) > 1e-2:
                assert abs(b1) > 1e-4 and abs(b2) > 1e-4

    def test_dominant_term(self, params):
        # at a state with sin(psi) = 0 both brackets collapse to the eps term
        th = melnikov.psi_inverse(0, 2.0, 1.5, math.pi, math.pi, params)
        b1, b2 = scattering.transversality_certificate(0, (2.0, 1.5, th[0], th[1]), params)
        assert abs(b1) < 5 * params.eps and abs(b2) < 5 * params.eps

    def test_zero_at_equilibrium(self, params):
        b1, b2 = scattering.transversality_certificate(0, (0.0, 0.0, 0.0, 0.0), params)
        assert b1 == 0.0 and b2 == 0.0


def test_jump_magnitude_bounded_by_coefficients(params, rng):
    # |dI| <= eps * (|A1| + |A2|) componentwise-summed, for any state
    eps = 1e-3
    for _ in range(25):
        z = np.array([*rng.uniform(-4, 4, 2), *rng.uniform(0, TWO_PI, 2)])
        step = scattering.scattering_map(0, z, params, eps=eps)
        c = melnikov.melnikov_coeffs(z[0], z[1], params)
        assert np.linalg.norm(step.jump) <= eps * (abs(c.A1) + abs(c.A2)) + 1e-15
