"""Reduced states, angle pairs and gradient pairs are tuples of Python floats.

Between the scalar kernels and the pseudo-orbit builder no layer boxes a
state into an ndarray: every result below is a tuple whose elements are
exactly ``float`` (not ``np.float64``), whatever sequence went in.
"""

import math

import numpy as np
import pytest

from arnolddiff import diffusion, inner, kernels, melnikov, scattering

STATES = [
    (1.2, -0.8, 0.4, 2.9),
    np.array([1.7, -2.3, 0.9, 4.0]),
    [np.float64(1.0), 1, 0.3, np.float64(0.7)],
]


def _floats(x, n):
    return type(x) is tuple and len(x) == n and all(type(v) is float for v in x)


@pytest.mark.parametrize("state", STATES)
def test_melnikov_returns_float_pairs(params, state):
    val, tau, dI, dTH = melnikov.reduced_poincare_grad(0, state, params)
    assert type(val) is float and type(tau) is float
    assert _floats(dI, 2) and _floats(dTH, 2)
    ps, ts = melnikov.psi(0, state, params)
    assert _floats(ps, 2) and type(ts.value) is float
    assert _floats(melnikov.psi_inverse(0, state[0], state[1], *ps, params), 2)


@pytest.mark.parametrize("state", STATES)
def test_scattering_map_returns_float_tuples(params, state):
    step = scattering.scattering_map(0, state, params)
    assert _floats(step.before, 4) and _floats(step.after, 4) and _floats(step.jump, 2)


@pytest.mark.parametrize("state", STATES)
def test_scattering_map_is_the_hand_written_sum(params, state):
    i1, i2, t1, t2 = map(float, state)
    _val, _tau, di1, di2, dt1, dt2 = kernels.lstar_grad(
        0, params.a1, params.a2, params.a3, params.Omega1, params.Omega2, i1, i2, t1, t2
    )
    eps = params.eps
    after = scattering.scattering_map(0, state, params).after
    assert after == (i1 + eps * dt1, i2 + eps * dt2, t1 - eps * di1, t2 - eps * di2)


@pytest.mark.parametrize("state", STATES)
def test_inner_waits_return_float_tuples(params, state):
    res = inner.ergodize(state, params=params)
    assert _floats(res.state, 4) and _floats(res.psi, 2)
    t, z = inner.rotate_to_psi1(state, 0.0, params=params)
    assert type(t) is float and _floats(z, 4)


def test_pseudo_orbit_steps_hold_float_tuples(params):
    # the resonant start forces detour jumps as well as rotation waits
    path = diffusion.ActionPath(np.array([[1.0, 1.08], [1.45, 1.08]]), 0.1)
    orb = diffusion.build_pseudo_orbit(path, np.array([1.0, 1.0, 0.3, 0.3 + math.pi]), params)
    assert {"S", "I", "D"} <= {s.kind for s in orb.steps}
    for s in orb.steps:
        assert _floats(s.state, 4)
        assert _floats(s.psi, 2) if s.kind == "S" else s.psi is None
