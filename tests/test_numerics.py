"""Bit parity of arnolddiff.numerics with the scipy routines it ports.

scipy is the reference here and is imported by no other module on the CLI's
path.  Each comparison is on the repr of the result (so NaN compares), the
number of calls to f, the warnings issued and the type of any exception.
"""

import math
import random
import warnings

import numpy as np
import pytest
from scipy import integrate, optimize
from scipy.interpolate import CubicSpline

from arnolddiff import diffusion, highway, melnikov, numerics, scattering
from arnolddiff.model import ModelParams


def _outcome(solver, f, *args, **kwargs):
    """(repr of the result or the exception type, calls to f, warning messages)."""
    calls = 0

    def counted(x):
        nonlocal calls
        calls += 1
        return f(x)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = repr(solver(counted, *args, **kwargs))
        except (ValueError, RuntimeError) as exc:
            out = type(exc).__name__
    return out, calls, [str(w.message) for w in caught]


def _same_quad(f, a, b, **kwargs):
    got = _outcome(numerics.quad, f, a, b, **kwargs)
    assert got == _outcome(integrate.quad, f, a, b, **kwargs)
    return got


def _same_brentq(f, a, b, **kwargs):
    got = _outcome(numerics.brentq, f, a, b, **kwargs)
    assert got == _outcome(optimize.brentq, f, a, b, **kwargs)
    return got


def _recording(solver, log):
    """solver with its outcome for each call appended to log."""

    def run(f, *args, **kwargs):
        log.append(_outcome(solver, f, *args, **kwargs))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return solver(f, *args, **kwargs)

    return run


def _production_parity(monkeypatch, module, name, reference, call):
    """call() with module.name recorded, once as shipped and once with reference."""
    ported = getattr(module, name)
    got, ref = [], []
    monkeypatch.setattr(module, name, _recording(ported, got))
    out_got = call()
    monkeypatch.setattr(module, name, _recording(reference, ref))
    out_ref = call()
    assert got and got == ref
    return out_got, out_ref


class TestQuadProductionIntegrands:
    @pytest.mark.parametrize("om, lo, hi", [
        (1.0, -0.7, 1.3),     # crosses w = 0, where the integrand jumps
        (1.0, 1.3, -0.7),     # the same with b < a
        (1.3, -2.0, -0.25),
        (0.8, 1.5, -1.1),
        (1.0, 1.0, 1.8),
        (1.0, 3.0, 2.0),
    ])
    def test_step_accounting_integrand(self, om, lo, hi):
        pref = 1.0 / (2.0 * math.pi * 0.3 * om * 0.61)
        _same_quad(lambda w: pref * math.sinh(0.5 * math.pi * w) / abs(w), om * lo, om * hi,
                   limit=200)

    def test_step_accounting(self, monkeypatch, params):
        path = diffusion.ActionPath(np.array([[1.0, 1.0], [1.3, 1.0], [1.3, 1.2]]), 0.1)
        orb = diffusion.build_pseudo_orbit(path, np.array([1.0, 1.0, 2.0, 4.4]), params)
        got, ref = _production_parity(monkeypatch, diffusion, "quad", integrate.quad,
                                      lambda: diffusion.step_accounting(orb, params))
        assert repr(got) == repr(ref)

    @pytest.mark.parametrize("w0, wf", [(7.05, 8.2), (8.2, 7.05), (7.5, 7.6)])
    def test_time_estimate_integrand(self, w0, wf):
        w = np.linspace(7.0, 8.3, 40)
        th = CubicSpline(w, 0.3 + 0.05 * np.sin(3.0 * w))
        ta = CubicSpline(w, -1.2 + 0.01 * w)
        pref = 1.0 / (2.0 * math.pi * 0.3)

        def integrand(x):
            s = math.sin(th(x) - x * ta(x))
            return -pref * math.sinh(0.5 * math.pi * x) / (x * s)

        _same_quad(integrand, w0, wf, limit=400)

    def test_time_estimate(self, monkeypatch):
        p = ModelParams(0.3, 0.1, 1.0, 1.0, 1.0, eps=1e-3)
        st, _ = highway.highway_seed(7.0, -7.0, p)
        orb = highway.highway_trace(st, p, stop=(0, 8.3, +1), drift_tol=1e-6)
        got, ref = _production_parity(
            monkeypatch, diffusion, "quad", integrate.quad,
            lambda: diffusion.time_estimate((7.05, 8.2), orb, 1e-3, p))
        assert repr(got.T_s) == repr(ref.T_s) and repr(got.T_d) == repr(ref.T_d)

    @pytest.mark.parametrize("state", [
        (1.0, 1.0, 0.3, 2.1, 0.7),
        (0.0, 0.0, 3.9, 3.9, 0.0),
        (2.5, -1.5, 5.0, 1.0, 4.0),
    ])
    def test_melnikov_potential_quadrature(self, monkeypatch, params, state):
        got, ref = _production_parity(
            monkeypatch, melnikov, "quad", integrate.quad,
            lambda: melnikov.melnikov_potential_quadrature(*state, params))
        assert repr(got) == repr(ref)


class TestQuadHardIntegrals:
    # QUADPACK's ier 1 to 5, each reached by the port and by scipy alike
    @pytest.mark.parametrize("f, a, b, kwargs, message", [
        (lambda x: math.sin(50.0 * x) * math.exp(x), 0.0, 3.0, {"limit": 5},
         "The maximum number of subdivisions (5)"),
        (lambda x: math.cos(100.0 * x) * math.exp(-x), 0.0, 3.0,
         {"epsabs": 0.0, "epsrel": 1e-13, "limit": 400}, "The occurrence of roundoff"),
        (lambda x: 1.0 / math.sqrt(abs(x - 0.123456)), 0.0, 1.0, {"limit": 400},
         "Extremely bad integrand behavior"),
        (lambda x: 1.0 / math.sqrt(abs(x - 0.5)) if x != 0.5 else 0.0, 0.0, 1.0,
         {"epsabs": 1e-14, "epsrel": 1e-14, "limit": 400}, "The algorithm does not converge"),
        (lambda x: 1.0 / x if x else 0.0, -1.0, 2.0, {}, "The integral is probably divergent"),
    ])
    def test_every_warning(self, f, a, b, kwargs, message):
        _out, _calls, messages = _same_quad(f, a, b, **kwargs)
        assert len(messages) == 1 and messages[0].startswith(message)

    def test_warning_category(self):
        with pytest.warns(numerics.IntegrationWarning):
            numerics.quad(lambda x: 1.0 / x if x else 0.0, -1.0, 2.0)

    def test_nan_and_inf_values(self):
        _same_quad(lambda x: math.nan if x > 0.3 else 1.0, 0.0, 1.0)
        _same_quad(lambda x: math.inf if abs(x - 0.4) < 1e-3 else x, 0.0, 1.0)

    @pytest.mark.parametrize("kwargs", [
        {"epsabs": 0.0, "epsrel": 1e-20},
        {"limit": 0},
    ])
    def test_invalid_input(self, kwargs):
        out, calls, _ = _same_quad(math.exp, 0.0, 1.0, **kwargs)
        assert out == "ValueError" and calls == 0

    def test_empty_interval(self):
        assert _same_quad(math.exp, 0.5, 0.5)[:2] == ("(0.0, 0.0)", 0)

    def test_random_integrands(self):
        rng = random.Random(20251018)
        families = [
            lambda c: lambda x: math.sin(c * x),
            lambda c: lambda x: math.exp(-c * x * x),
            lambda c: lambda x: abs(x - c) ** 0.3,
            lambda c: lambda x: math.log(abs(x - c)) if x != c else 0.0,
            lambda c: lambda x: 1.0 / (x - c) ** 2 if x != c else 0.0,
        ]
        for _ in range(150):
            kwargs = {"limit": rng.choice([1, 2, 5, 50, 400])}
            if rng.random() < 0.5:
                kwargs["epsabs"] = rng.choice([0.0, 1e-14, 1e-6])
                kwargs["epsrel"] = rng.choice([1e-13, 1e-8, 1e-3])
            f = rng.choice(families)(rng.uniform(-2.0, 2.0))
            _same_quad(f, rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0), **kwargs)


class TestBrentq:
    def test_level_brackets(self, params_fig5):
        # the brackets adjust_seed_to_level hands to brentq
        rng = random.Random(7)
        j, level = 0, melnikov.reduced_poincare(0, (0.0, 0.0, 3.93, 3.93), params_fig5)
        tried = 0
        for _ in range(12):
            i2, th2 = rng.uniform(-0.5, 0.5), rng.uniform(3.8, 4.0)
            guess = rng.uniform(3.0, 4.8)

            def f(th1):
                return melnikov.reduced_poincare(j, (0.0, i2, th1, th2), params_fig5) - level

            grid = np.linspace(guess - 1.5, guess + 1.5, 81)
            vals = np.array([f(t) for t in grid])
            for k in np.nonzero(vals[:-1] * vals[1:] <= 0.0)[0]:
                _same_brentq(f, grid[k], grid[k + 1], xtol=1e-14)
                tried += 1
        assert tried >= 12

    def test_adjust_seed_to_level(self, monkeypatch, params_fig5):
        level = melnikov.reduced_poincare(0, (0.0, 0.0, 3.93, 3.93), params_fig5)
        got, ref = _production_parity(
            monkeypatch, scattering, "brentq", optimize.brentq,
            lambda: scattering.adjust_seed_to_level(0, 0.0, 0.2, 3.9, 3.85, level, params_fig5))
        assert repr(np.asarray(got).tolist()) == repr(np.asarray(ref).tolist())

    @pytest.mark.parametrize("f, a, b, xtol, error", [
        (lambda x: x * x + 1.0, -1.0, 2.0, 1e-12, "ValueError"),      # same sign
        (lambda x: 1e-200, -1.0, 2.0, 1e-12, "ValueError"),           # f(a)*f(b) underflows
        (lambda x: math.nan if x > 1.0 else x - 0.3, -1.0, 2.0, 1e-12, "ValueError"),
        (lambda x: x - 0.3, -1.0, 2.0, 0.0, "ValueError"),            # xtol <= 0
        (lambda x: 1.0 if x > 0 else -1.0, -1.0, 2.0, 1e-300, "RuntimeError"),
        (lambda x: x ** 3, -1.0, 2.0, 1e-300, "RuntimeError"),
    ])
    def test_errors(self, f, a, b, xtol, error):
        assert _same_brentq(f, a, b, xtol=xtol)[0] == error

    @pytest.mark.parametrize("c, a, b", [
        (-0.3110153107322036, -1.6030277250318197, 1.6143905844802466),
        (0.1403513103778733, -1.9745775715461331, 2.916327894686793),
    ])
    def test_loose_tolerance(self, c, a, b):
        # a bracket only a few xtol wide, where the step-acceptance test's
        # "- delta" decides between an interpolated and a bisection step
        _same_brentq(lambda x: x ** 3 - c, a, b, xtol=0.1)

    def test_random_functions(self):
        rng = random.Random(11)
        families = [
            lambda c: lambda x: math.sin(x) - c,
            lambda c: lambda x: x ** 3 - c,
            lambda c: lambda x: (x - c) ** 5,
            lambda c: lambda x: math.atan(1e6 * (x - c)),
            lambda c: lambda x: -0.0 if x < c else 1.0,
        ]
        for _ in range(300):
            f = rng.choice(families)(rng.uniform(-1.0, 1.0))
            a, b = rng.uniform(-3.0, 0.0), rng.uniform(0.0, 3.0)
            if rng.random() < 0.5:
                a, b = b, a
            _same_brentq(f, a, b, xtol=rng.choice([1e-14, 2e-12, 1e-6]))
