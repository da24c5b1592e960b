"""Integrable dynamics on the invariant cylinder set {p = q = 0}.

Exact equations: I_i' = eps a_i sin(phi_i), phi_i' = Omega_i I_i, s' = 1,
with the separated integrals F_i = Omega_i I_i^2/2 + eps a_i (cos phi_i - 1).
Pseudo-orbit construction uses the eps = 0 approximation (actions frozen,
angles rotating), plus `ergodize`: wait until the pulled-back angles enter a
prescribed window.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import melnikov
from .errors import UseScatteringDetour, WindowUnreachable
from .model import TWO_PI
from .ode import IntegratorConfig, integrate


def inner_rhs(params):
    """Exact inner vector field on [I1, I2, phi1, phi2, s]."""
    a1, a2 = params.a1, params.a2
    om1, om2, eps = params.Omega1, params.Omega2, params.eps

    def f(t, y):
        return (
            eps * a1 * math.sin(y[2]),
            eps * a2 * math.sin(y[3]),
            om1 * y[0],
            om2 * y[1],
            1.0,
        )

    return f


def inner_flow(x, t, params, cfg=None, record=False):
    """Integrate the exact inner equations for time t (t may be negative)."""
    cfg = cfg or IntegratorConfig()
    traj = integrate(inner_rhs(params), np.asarray(x, float), (0.0, t), cfg, record=record)
    return traj if record else traj.final


def inner_flow_linear(state, t, params):
    """First-order inner step on a reduced state: actions frozen, angles rotate."""
    i1, i2, t1, t2 = state
    w1, w2 = params.frequencies(i1, i2)
    return np.array([i1, i2, t1 + t * w1, t2 + t * w2])


def first_integrals(x, params):
    """(F1, F2) of an inner state [I1, I2, phi1, phi2, (s)]."""
    f1 = 0.5 * params.Omega1 * x[0] ** 2 + params.eps * params.a1 * (math.cos(x[2]) - 1.0)
    f2 = 0.5 * params.Omega2 * x[1] ** 2 + params.eps * params.a2 * (math.cos(x[3]) - 1.0)
    return f1, f2


def first_integrals_theta(state, params):
    """Slow-angle form: F_i = Omega_i I_i^2/2 + eps a_i cos theta_i."""
    f1 = 0.5 * params.Omega1 * state[0] ** 2 + params.eps * params.a1 * math.cos(state[2])
    f2 = 0.5 * params.Omega2 * state[1] ** 2 + params.eps * params.a2 * math.cos(state[3])
    return f1, f2


def _lift_into(x, lo):
    """Shift x by multiples of 2pi into [lo, lo + 2pi)."""
    return lo + (x - lo) % TWO_PI


def _in_interval(x, interval):
    if interval is None:
        return True
    lo, hi = interval
    return lo < _lift_into(x, lo) < hi


DEFAULT_WINDOW = ((math.pi, TWO_PI), (math.pi, TWO_PI))


@dataclass
class ErgodizeResult:
    t_star: float
    state: np.ndarray
    psi: np.ndarray
    probes: int


def _psi_of(j, state, params, guess=None):
    ps, ts = melnikov.psi(j, state, params, guess=guess)
    return ps, ts.value


def ergodize(
    state,
    window=DEFAULT_WINDOW,
    j=0,
    params=None,
    t_bound=None,
    degenerate_tol=(1e-9, 1e-6),
):
    """Rotate the angles until psi_j lands in the window (actions frozen).

    ``window`` gives one (lo, hi) interval per component, or None for a
    component that is unconstrained.  The sweep step is bounded by the
    worst-case angular speed of psi, so the window cannot be skipped.

    Raises UseScatteringDetour on the exactly resonant line (equal
    frequencies with the pulled-back offset at pi, which never meets the
    default window), WindowUnreachable when the budget t_bound runs out.
    """
    params.require_diffusion_regime()
    state = np.asarray(state, dtype=float)
    i1, i2 = state[0], state[1]
    w1, w2 = params.frequencies(i1, i2)
    win1, win2 = window

    ps, tau = _psi_of(j, state, params)
    if _in_interval(ps[0], win1) and _in_interval(ps[1], win2):
        return ErgodizeResult(0.0, state.copy(), ps, 0)

    # degenerate resonant line: psi2 - psi1 is constant when w1 == w2
    rtol, otol = degenerate_tol
    if w1 != 0.0 and abs(w2 / w1 - 1.0) < rtol:
        offset = (ps[1] - ps[0] - math.pi) % TWO_PI
        if min(offset, TWO_PI - offset) < otol and win1 is not None and win2 is not None:
            raise UseScatteringDetour(
                "equal frequencies with angle offset pi: rotation cannot reach the window"
            )

    wmax = max(abs(w1), abs(w2))
    if wmax == 0.0:
        raise WindowUnreachable("zero frequency vector: angles are frozen")
    musum = abs(params.mu1) + abs(params.mu2)
    fbar = min(0.995, (melnikov.OMEGA_ALPHA_SUP * musum) ** 2)
    psi_rate = wmax / (1.0 - math.sqrt(fbar))
    dt = 0.08 / psi_rate
    if t_bound is None:
        t_bound = 400.0 * TWO_PI / min(
            abs(w1) if w1 != 0.0 else wmax, abs(w2) if w2 != 0.0 else wmax
        )

    t = 0.0
    probes = 0
    guess = tau
    while t < t_bound:
        t += dt
        cand = np.array([i1, i2, state[2] + t * w1, state[3] + t * w2])
        ps, guess = _psi_of(j, cand, params, guess=guess)
        probes += 1
        if _in_interval(ps[0], win1) and _in_interval(ps[1], win2):
            return ErgodizeResult(t, cand, ps, probes)
    raise WindowUnreachable(f"no window entry within t_bound={t_bound:.3g}")


def rotate_to_psi1(state, target, j=0, params=None, tol=1e-10):
    """Inner-rotate until psi_1 = target (mod 2pi); used by the detour step.

    Returns (t, new_state).  Assumes omega_1 != 0.
    """
    state = np.asarray(state, dtype=float)
    i1, i2 = state[0], state[1]
    w1, w2 = params.frequencies(i1, i2)
    if w1 == 0.0:
        raise WindowUnreachable("psi1 frozen: omega1 = 0")
    drift = 1.0 if w1 > 0.0 else -1.0

    _ps0, tau = _psi_of(j, state, params)

    def gap(t, guess):
        # signed phase still to travel, folded to [0, 2pi); decreasing in t
        cand = np.array([i1, i2, state[2] + t * w1, state[3] + t * w2])
        ps, g = _psi_of(j, cand, params, guess=guess)
        d = (drift * (target - ps[0])) % TWO_PI
        return d, cand, g

    musum = abs(params.mu1) + abs(params.mu2)
    fbar = min(0.995, (melnikov.OMEGA_ALPHA_SUP * musum) ** 2)
    rate = abs(w1) / (1.0 - math.sqrt(fbar))
    dt = 0.05 / rate
    t = 0.0
    d_prev, cand, guess = gap(0.0, tau)
    if d_prev < tol:
        return 0.0, cand
    for _ in range(int(40.0 * TWO_PI / (abs(w1) * dt)) + 10):
        t_next = t + dt
        d, cand, guess = gap(t_next, guess)
        if d > d_prev:  # wrapped through zero inside (t, t_next]: bisect there
            lo, hi = t, t_next
            best = None
            for _ in range(90):
                mid = 0.5 * (lo + hi)
                dm, cand, guess = gap(mid, guess)
                if dm < math.pi:  # still before the target
                    lo = mid
                    best = (mid, cand)
                    if dm < tol:
                        return mid, cand
                else:
                    hi = mid
                if hi - lo < 1e-16 * max(1.0, abs(hi)):
                    break
            if best is not None:
                return best
            dm, cand, guess = gap(lo, guess)
            return lo, cand
        t, d_prev = t_next, d
    raise WindowUnreachable("psi1 target not reached")
