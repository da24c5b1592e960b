import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from arnolddiff.errors import EventNotFound, MaxStepsExceeded, StepSizeUnderflow
from arnolddiff.model import ModelParams, rhs, separatrix
from arnolddiff.scattering import flow_rhs as scattering_flow_rhs
from arnolddiff import ode
from arnolddiff.ode import (
    IntegratorConfig,
    Section,
    integrate,
    integrate_to_event,
    rkf78_step,
)


def _numpy_henon_step(f, k, value, t, y, cfg):
    """The former numpy body of ode._henon_step: its landing system divides ndarrays."""

    def g(s, z):
        dy = np.asarray(f(z[-1], z[:-1]))
        out = np.empty(len(z))
        out[:-1] = dy / dy[k]
        out[-1] = 1.0 / dy[k]
        return out

    z = [*y, t]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        try:
            z_hit, err = rkf78_step(g, y[k], z, value - y[k])
            if not ode._error_norm(err, z, z_hit, cfg) <= 1.0:
                z_hit = ode._integrate(g, z, y[k], value, cfg, False, None, 1).final
        except (StepSizeUnderflow, ValueError, ArithmeticError):
            return None
    if not np.all(np.isfinite(z_hit)):
        return None
    y_hit = np.array(z_hit[:-1])
    y_hit[k] = value
    return float(z_hit[-1]), tuple(y_hit.tolist())


def fixed_step_integrate(f, y0, t0, t1, n_steps):
    """Fixed-step 8th-order propagation: the order oracle for rkf78_step."""
    h = (t1 - t0) / n_steps
    y = list(map(float, y0))
    t = t0
    for _ in range(n_steps):
        y, _err = rkf78_step(f, t, y, h)
        t += h
    return np.array(y)


def harmonic(t, y):
    return np.array([y[1], -y[0]])


def projectile(t, y):
    return np.array([y[1], -1.0])


class TestIntegrate:
    def test_harmonic_period(self):
        traj = integrate(harmonic, [1.0, 0.0], (0.0, 2 * math.pi))
        assert np.abs(np.asarray(traj.final) - [1.0, 0.0]).max() < 1e-10

    def test_separatrix_closed_form(self):
        p = ModelParams(0.3, 0.1, 1.0, eps=0.0)
        p0, q0 = separatrix(-3.0)
        traj = integrate(rhs(p), [p0, q0, 0, 0, 0, 0, 0], (0.0, 6.0))
        pe, qe = separatrix(3.0)
        assert abs(traj.final[0] - pe) < 1e-9
        assert abs(traj.final[1] - qe) < 1e-9

    def test_backward(self):
        traj = integrate(harmonic, [1.0, 0.0], (0.0, -math.pi / 2))
        assert np.abs(np.asarray(traj.final) - [0.0, 1.0]).max() < 1e-10

    def test_time_reversal_roundtrip(self):
        cfg = IntegratorConfig()
        y0 = np.array([0.3, -0.9])
        fwd = integrate(harmonic, y0, (0.0, 7.3), cfg)
        back = integrate(harmonic, fwd.final, (7.3, 0.0), cfg)
        tol = 10 * (cfg.abs_tol + cfg.rel_tol)
        assert np.abs(back.final - y0).max() < 10 * tol

    def test_order_eight_fixed_steps(self):
        # global error on one oscillator period shrinks ~ h^8
        errs = []
        for n in (16, 32, 64):
            y = fixed_step_integrate(harmonic, [1.0, 0.0], 0.0, 2 * math.pi, n)
            errs.append(np.abs(y - [1.0, 0.0]).max())
        rate1 = math.log(errs[0] / errs[1], 2.0)
        rate2 = math.log(errs[1] / errs[2], 2.0)
        assert 7.5 < rate1 < 8.6
        assert 7.5 < rate2 < 8.6

    def test_step_size_underflow(self):
        def blowup(t, y):
            return np.array([1.0 / (1.0 - y[0])])

        with pytest.raises((StepSizeUnderflow, MaxStepsExceeded)):
            integrate(blowup, [0.0], (0.0, 1.0), IntegratorConfig(h_min=1e-12, max_steps=20000))

    def test_max_steps(self):
        with pytest.raises(MaxStepsExceeded):
            integrate(harmonic, [1.0, 0.0], (0.0, 1e9), IntegratorConfig(max_steps=50))

    def test_rejected_steps_counted(self):
        traj = integrate(harmonic, [1.0, 0.0], (0.0, 10.0), IntegratorConfig(h_init=1e-2))
        assert traj.n_accepted == len(traj.t) - 1


class TestEvents:
    def test_harmonic_quarter_period(self):
        ev = Section(0, 0.0, direction=-1)
        y, t = integrate_to_event(harmonic, [1.0, 0.0], ev, t_span=(0.0, 10.0))
        assert abs(t - math.pi / 2) < 1e-9
        assert abs(y[0]) < 1e-12

    def test_direction_filter(self):
        # x crosses zero upward only at t = 3pi/2
        ev = Section(0, 0.0, direction=+1)
        _y, t = integrate_to_event(harmonic, [1.0, 0.0], ev, t_span=(0.0, 10.0))
        assert abs(t - 3 * math.pi / 2) < 1e-9

    def test_no_crossing(self):
        ev = Section(0, 2.0)  # beyond the unit amplitude
        with pytest.raises(EventNotFound):
            integrate_to_event(harmonic, [1.0, 0.0], ev, t_span=(0.0, 5.0))

    def test_skip_initial_section(self):
        # starting exactly on the section must not retrigger immediately
        ev = Section(0, 0.0, direction=0)
        _y, t = integrate_to_event(harmonic, [0.0, 1.0], ev, t_span=(0.0, 10.0))
        assert abs(t - math.pi) < 1e-9

    @pytest.mark.parametrize("t_end, t_cross", [(10.0, math.pi / 2), (-10.0, -math.pi / 2)])
    def test_landing_exact_on_section(self, t_end, t_cross):
        # Henon landing: the crossing state lies on the hyperplane exactly
        y, t = integrate_to_event(harmonic, [1.0, 0.0], Section(0, 0.0), t_span=(0.0, t_end))
        assert y[0] == 0.0
        assert abs(t - t_cross) < 1e-12
        assert abs(abs(y[1]) - 1.0) < 1e-12

    def test_landings_collected_in_one_pass(self, monkeypatch):
        # every landing costs one RKF78 step beyond the accepted and rejected ones
        calls = []
        step = ode.rkf78_step

        def counting(f, t, y, h):
            calls.append(h)
            return step(f, t, y, h)

        monkeypatch.setattr(ode, "rkf78_step", counting)
        traj = integrate(
            harmonic, [1.0, 0.0], (0.0, 20.0), section=Section(0, 1e-5), max_crossings=5
        )
        assert len(calls) == traj.n_accepted + traj.n_rejected + len(traj.crossings)
        times = [t for t, _y in traj.crossings]
        c = math.acos(1e-5)
        expect = [c, 2 * math.pi - c, 2 * math.pi + c, 4 * math.pi - c, 4 * math.pi + c]
        assert np.abs(np.array(times) - expect).max() < 1e-11
        # exact even where y_k + (value - y_k) would round off value
        assert all(y[0] == 1e-5 for _t, y in traj.crossings)
        # integration stops at the last landing, which is the final row
        assert traj.t[-1] == times[-1]
        assert traj.final[0] == 1e-5

    @pytest.mark.parametrize(
        "f, y0, t_span, value, t_cross",
        [
            # x = sin t rises through 0.9999, peaks at pi/2, ends above it
            (harmonic, [math.sin(1.45), math.cos(1.45)], (1.45, 1.58), 0.9999,
             math.asin(0.9999)),
            # x = t - t^2/2 rises through 0.4, peaks at t = 1, ends above it
            (projectile, [0.0, 1.0], (0.0, 1.3), 0.4, 1.0 - math.sqrt(0.2)),
        ],
    )
    def test_turn_after_crossing_lands_inside_step(
        self, monkeypatch, f, y0, t_span, value, t_cross
    ):
        # one step spans crossing and turn; its end is nearer the section but
        # y[k] moves away from it there, so the landing starts from the step start
        starts = []
        step = ode.rkf78_step

        def recording(g, s, z, h):
            starts.append(z[-1])   # the landing system carries t last
            return step(g, s, z, h)

        monkeypatch.setattr(ode, "rkf78_step", recording)
        cfg = IntegratorConfig(h_init=t_span[1] - t_span[0])
        traj = integrate(f, y0, t_span, cfg, section=Section(0, value, +1))
        assert traj.n_accepted == 1 and traj.n_rejected == 0
        assert starts[1] == t_span[0]
        t, y = traj.crossings[0]
        assert t_span[0] < t < t_span[1]
        assert abs(t - t_cross) < 1e-10
        assert y[0] == value

    def test_turn_at_both_ends_halves_step(self):
        # x = -(t^3/3 - 2 t^2 + 3 t) falls, rises through -0.5 on (1, 3) and
        # falls again: at both ends of the step (0.5, 3.5) x moves away from
        # the upward crossing, so the step is halved before landing
        def cubic(t, y):
            return np.array([-(t - 1.0) * (t - 3.0)])

        def x(t):
            return -(t**3 / 3 - 2 * t**2 + 3 * t)

        t_cross = 2.0
        for _ in range(50):
            t_cross -= (x(t_cross) + 0.5) / cubic(t_cross, None)[0]
        traj = integrate(
            cubic, [x(0.5)], (0.5, 3.5), IntegratorConfig(h_init=3.0), section=Section(0, -0.5, +1)
        )
        assert traj.n_accepted == 1
        t, y = traj.crossings[0]
        assert abs(t - t_cross) < 1e-11
        assert y[0] == -0.5

    def test_landing_outside_step_refused(self, monkeypatch):
        # a landing time outside the accepted step is never returned
        henon = ode._henon_step
        bad = []

        def outside_once(f, k, value, t, y, cfg):
            hit = henon(f, k, value, t, y, cfg)
            if not bad:
                bad.append(hit)
                return hit[0] + 100.0, hit[1]
            return hit

        monkeypatch.setattr(ode, "_henon_step", outside_once)
        y, t = integrate_to_event(harmonic, [1.0, 0.0], Section(0, 0.0, -1), t_span=(0.0, 10.0))
        assert bad
        assert y[0] == 0.0
        assert abs(t - math.pi / 2) < 1e-12

    @pytest.mark.parametrize("exc", [ValueError, ArithmeticError])
    def test_landing_refused_when_rhs_raises(self, monkeypatch, exc):
        # f raising on the landing's stages (math.sin(inf) on the non-finite
        # states after a vanishing f_k) is no landing; halving lands instead
        henon = ode._henon_step
        refused = []

        def raising(t, y):
            raise exc("math domain error")

        def raising_once(f, k, value, t, y, cfg):
            if refused:
                return henon(f, k, value, t, y, cfg)
            refused.append(henon(raising, k, value, t, y, cfg))
            return refused[-1]

        monkeypatch.setattr(ode, "_henon_step", raising_once)
        traj = integrate(harmonic, [1.0, 0.0], (0.0, 10.0), section=Section(0, 0.0, -1))
        assert refused == [None]
        t, y = traj.crossings[0]
        assert y[0] == 0.0
        assert abs(t - math.pi / 2) < 1e-12

    def test_adaptive_landing_fallback(self, monkeypatch):
        # fail the first error check of a landing step (the landing system
        # carries t, so its state has one more component): the same system
        # is then integrated adaptively in s, outside the orbit's step counts
        norm = ode._error_norm
        failed = []

        def failing_once(err, y0, y1, cfg):
            if len(err) == 3 and not failed:
                failed.append(True)
                return math.inf
            return norm(err, y0, y1, cfg)

        calls = []
        step = ode.rkf78_step

        def counting(f, t, y, h):
            calls.append(h)
            return step(f, t, y, h)

        monkeypatch.setattr(ode, "_error_norm", failing_once)
        monkeypatch.setattr(ode, "rkf78_step", counting)
        traj = integrate(harmonic, [1.0, 0.0], (0.0, 10.0), section=Section(0, 0.0, -1))
        assert failed
        t, y = traj.crossings[0]
        assert y[0] == 0.0
        assert abs(t - math.pi / 2) < 1e-12
        # the failed landing step plus at least one adaptive step in s
        assert len(calls) >= traj.n_accepted + traj.n_rejected + 2

    def test_henon_step_divides_floats(self, params):
        # the landing system hands the right-hand side Python floats, so the
        # compiled kernel leaves keep their fast path, and lands as a float tuple
        f = scattering_flow_rhs(0, params)
        seen = []

        def recording(t, y):
            seen.extend((t, *y))
            return f(t, y)

        t, y = ode._henon_step(recording, 0, 0.0, 0.0, (0.01, 0.2, 3.9, 3.85), IntegratorConfig())
        assert seen and all(type(v) is float for v in seen)
        assert type(t) is float
        assert type(y) is tuple and len(y) == 4 and all(type(v) is float for v in y)
        assert y[0] == 0.0

    @pytest.mark.parametrize("y, zero_at, zero", [
        ((0.5, -0.8), 0, 0.0),       # at the first stage: the adaptive steps land
        ((0.5, -0.8), 3, -0.0),
        ((0.5, -0.8), 20, -0.0),     # inside the adaptive steps
        ((1.0, 0.0), None, 0.0),     # f_k = y[1] vanishes at the start: no landing
    ])
    def test_henon_step_with_vanishing_fk(self, y, zero_at, zero):
        # f_k exactly 0 at a stage gives the former numpy division's outcome,
        # with no exception or warning
        def rotation():
            calls = []

            def f(t, z):
                calls.append(t)
                return (zero if len(calls) - 1 == zero_at else z[1], -z[0])

            return f

        cfg = IntegratorConfig()
        want = _numpy_henon_step(rotation(), 0, 0.0, 0.0, y, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ode._henon_step(rotation(), 0, 0.0, 0.0, y, cfg)
        assert repr(got) == repr(want)
        assert (got is None) == (zero_at is None)


def test_span_end_without_tail_step():
    # t0 + (t1 - t0) rounds one ulp short of t1: the clipped step must end
    # on t1 itself, with no sub-ulp tail step tripping h_min
    t0, t1 = 0.03369556214824249, 0.09783874819338946
    traj = integrate(harmonic, [1.0, 0.0], (t0, t1), IntegratorConfig(h_init=t1 - t0))
    assert traj.t[-1] == t1
    assert traj.n_accepted == 1
    dt = t1 - t0
    assert np.abs(np.asarray(traj.final) - [math.cos(dt), -math.sin(dt)]).max() < 1e-15


def test_non_finite_span_rejected():
    with pytest.raises(ValueError):
        integrate(harmonic, [1.0, 0.0], (0.0, math.nan))


def test_single_step_error_estimate():
    y8, err = rkf78_step(harmonic, 0.0, np.array([1.0, 0.0]), 0.3)
    exact = np.array([math.cos(0.3), -math.sin(0.3)])
    assert np.abs(y8 - exact).max() < 1e-10
    assert np.abs(err).max() < 1e-9


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(h_min=1.0, h_init=0.1)
    with pytest.raises(ValueError):
        IntegratorConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(abs_tol=math.nan)
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=math.nan)
    with pytest.raises(ValueError, match="abs_tol must be finite, not inf"):
        IntegratorConfig(abs_tol=math.inf)
    for name in ("rel_tol", "h_init", "h_min", "h_max"):
        with pytest.raises(ValueError):
            IntegratorConfig(**{name: math.inf})
    with pytest.raises(ValueError, match="h_init must be finite, not inf"):
        IntegratorConfig(h_init=math.inf, h_max=math.inf)


def _bits(values):
    return [float(v).hex() for v in values]


def reference_step(f, t, y, h):
    """RKF78 from the tableau arrays, every stage summed left to right."""

    def combo(coeffs, k, c):
        s = float(coeffs[0]) * k[0][c]
        for r in range(1, len(k)):
            s = s + float(coeffs[r]) * k[r][c]
        return s

    k = [f(t, y)]
    for i in range(1, 13):
        stage = [y[c] + h * combo(ode._A[i], k, c) for c in range(len(y))]
        k.append(f(t + float(ode._C[i]) * h, stage))
    y8 = [y[c] + h * combo(ode._B8, k, c) for c in range(len(y))]
    he = h * ode._ERRW
    err = [he * (k[0][c] + k[10][c] - k[11][c] - k[12][c]) for c in range(len(y))]
    return y8, err


def test_step_bits_equal_left_to_right_reference(params, rng):
    f = scattering_flow_rhs(0, params)
    cases = [(harmonic, [1.0, 0.0], 0.3), (harmonic, [0.3, -0.9], -1.7)]
    for _ in range(40):
        z = [*rng.uniform(-3, 3, 2), *rng.uniform(0, 2 * math.pi, 2)]
        cases.append((f, [float(v) for v in z], float(rng.uniform(-2.0, 2.0))))
    for g, y, h in cases:
        y8, err = rkf78_step(g, 0.25, y, h)
        r8, rerr = reference_step(g, 0.25, y, h)
        assert _bits(y8) == _bits(r8)
        assert _bits(err) == _bits(rerr)


def test_step_keeps_zero_coefficient_products():
    # k1 = inf: stages whose row has a1 = 0 must see 0 * inf = NaN, as the
    # matrix-vector product gives, instead of dropping the term
    states = []

    def f(t, y):
        states.append(list(y))
        return (math.inf,) if len(states) == 2 else (1.0,)

    y8, err = rkf78_step(f, 0.0, [0.5], 0.1)
    zero_a1 = [i for i in range(2, 13) if ode._A[i][1] == 0.0]
    assert zero_a1 == [3, 4, 5, 6, 7, 8, 9, 10, 11, 12]
    for i in zero_a1:
        assert math.isnan(states[i][0])
    assert math.isinf(states[2][0])       # a_21 = 1/12
    assert ode._B8[1] == 0.0 and math.isnan(y8[0])
    assert err == [0.0]                   # k1 is not in the error estimate
    assert math.isnan(ode._error_norm(err, [0.5], y8, IntegratorConfig()))


@pytest.mark.parametrize("where", ["err", "y0", "y1"])
@pytest.mark.parametrize("component", [0, 1, 2])
def test_error_norm_nan_in_any_component(where, component):
    cfg = IntegratorConfig()
    args = {"err": [1e-20, 5e-13, 1e-30], "y0": [1.0, 2.0, 3.0], "y1": [1.0, 2.0, 3.0]}
    assert ode._error_norm(args["err"], args["y0"], args["y1"], cfg) == 5e-13 / (1e-12 + 2e-12)
    args[where][component] = math.nan
    assert math.isnan(ode._error_norm(args["err"], args["y0"], args["y1"], cfg))


_SECTION_SCRIPT = """
from arnolddiff import melnikov
from arnolddiff.model import ModelParams
from arnolddiff.scattering import poincare_section
p = ModelParams(0.2, 0.3, 1.0, 1.0, 1.0, eps=1e-3)
c = 3.9269908169872414
level = melnikov.reduced_poincare(0, (0.0, 0.0, c, c), p)
seeds = [(0.0, 0.0, c, 3.8), (0.0, 0.0, c, 4.0)]
for pt in poincare_section(0, level, 0.0, seeds, 50.0, p, max_crossings=2):
    print(pt.orbit, pt.t.hex(), *(float(v).hex() for v in pt.state))
"""


def test_section_bits_independent_of_blas_core():
    # numpy's BLAS kernel is chosen per CPU; no integration result may depend on it
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    outs = []
    for core in ("Haswell", "Sandybridge"):
        env = dict(os.environ, OPENBLAS_CORETYPE=core)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        res = subprocess.run(
            [sys.executable, "-c", _SECTION_SCRIPT],
            env=env, capture_output=True, check=True, timeout=300,
        )
        outs.append(res.stdout)
    assert outs[0] and outs[0] == outs[1]


def test_against_independent_integrator():
    # same scattering-flow orbit through scipy's DOP853 as an external oracle
    from scipy.integrate import solve_ivp

    from arnolddiff import scattering
    from arnolddiff.model import ModelParams

    p = ModelParams(0.3, 0.1, 1.0, 1.0, 1.0, eps=1e-3)
    f = scattering.flow_rhs(0, p)
    z0 = np.array([1.3, 0.6, 2.2, 5.1])
    mine = integrate(f, z0, (0.0, 50.0), scattering.SECTION_INTEGRATOR)
    ref = solve_ivp(f, (0.0, 50.0), z0, method="DOP853", rtol=1e-12, atol=1e-12)
    assert np.abs(mine.final - ref.y[:, -1]).max() < 1e-8
