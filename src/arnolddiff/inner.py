"""Integrable dynamics on the invariant cylinder set {p = q = 0}.

Exact equations: I_i' = eps a_i sin(phi_i), phi_i' = Omega_i I_i, s' = 1,
with the separated integrals F_i = Omega_i I_i^2/2 + eps a_i (cos phi_i - 1).
Pseudo-orbit construction uses the eps = 0 approximation (actions frozen,
angles rotating), plus `ergodize`: wait until the pulled-back angles enter a
prescribed window.
"""

import math
from dataclasses import dataclass

from . import kernels, melnikov
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


def inner_flow(x, t, params, cfg=IntegratorConfig()):
    """Integrate the exact inner equations for time t (t may be negative)."""
    return integrate(inner_rhs(params), x, (0.0, t), cfg, record=False).final


def first_integrals(x, params):
    """(F1, F2) of an inner state [I1, I2, phi1, phi2, (s)]."""
    f1 = 0.5 * params.Omega1 * x[0] ** 2 + params.eps * params.a1 * (math.cos(x[2]) - 1.0)
    f2 = 0.5 * params.Omega2 * x[1] ** 2 + params.eps * params.a2 * (math.cos(x[3]) - 1.0)
    return f1, f2


def in_window(ps, window):
    """Whether each angle of ps lies in its window (lo, hi) mod 2pi.

    ``window`` holds one interval per angle, or None for an angle that is
    unconstrained.  Each angle is shifted by multiples of 2pi into
    [lo, lo + 2pi) before the test.
    """
    for x, interval in zip(ps, window):
        if interval is not None:
            lo, hi = interval
            if not lo < lo + (x - lo) % TWO_PI < hi:
                return False
    return True


def resonant_gap(ps):
    """Distance on the circle of the line offset psi2 - psi1 from pi.

    On the resonant line (equal frequencies) rotation leaves the offset
    fixed, and at gap 0 it never meets the default window.
    """
    off = (ps[1] - ps[0] - math.pi) % TWO_PI
    return min(off, TWO_PI - off)


def _psi_speed_denom(params):
    """1 - sqrt(fbar): under rotation psi_i turns at most |w_i| / this fast."""
    musum = abs(params.mu1) + abs(params.mu2)
    fbar = min(0.995, (kernels.OMEGA_ALPHA_SUP * musum) ** 2)
    return 1.0 - math.sqrt(fbar)


DEFAULT_WINDOW = ((math.pi, TWO_PI), (math.pi, TWO_PI))


@dataclass
class ErgodizeResult:
    t_star: float
    state: tuple      # (I1, I2, theta1, theta2) at window entry, floats
    psi: tuple        # (psi1, psi2) there
    probes: int


def ergodize(
    state,
    window=DEFAULT_WINDOW,
    j=0,
    *,
    params,
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
    state = i1, i2, th1, th2 = tuple(map(float, state))
    w1, w2 = params.frequencies(i1, i2)

    ps, ts = melnikov.psi(j, state, params)
    if in_window(ps, window):
        return ErgodizeResult(0.0, state, ps, 0)

    # degenerate resonant line: psi2 - psi1 is constant when w1 == w2
    rtol, otol = degenerate_tol
    if w1 != 0.0 and abs(w2 / w1 - 1.0) < rtol:
        if resonant_gap(ps) < otol and None not in window:
            raise UseScatteringDetour(
                "equal frequencies with angle offset pi: rotation cannot reach the window"
            )

    wmax = max(abs(w1), abs(w2))
    if wmax == 0.0:
        raise WindowUnreachable("zero frequency vector: angles are frozen")
    psi_rate = wmax / _psi_speed_denom(params)
    dt = 0.08 / psi_rate
    if t_bound is None:
        t_bound = 400.0 * TWO_PI / min(
            abs(w1) if w1 != 0.0 else wmax, abs(w2) if w2 != 0.0 else wmax
        )

    # the sweep below in C, line for line, where the compiled leaves loaded:
    # the entry's fields, False at t_bound, None where the sweep must run here
    sweep = kernels.probe_sweep
    found = None if sweep is None else sweep(j, w1, w2, params.mu1, params.mu2, state,
                                             ts.value, dt, t_bound, window)
    if found:
        return ErgodizeResult(*found)
    if found is None:
        t = 0.0
        probes = 0
        while t < t_bound:
            t += dt
            cand = (i1, i2, th1 + t * w1, th2 + t * w2)
            ps, ts = melnikov.psi(j, cand, params, guess=ts.value)
            probes += 1
            if in_window(ps, window):
                return ErgodizeResult(t, cand, ps, probes)
    raise WindowUnreachable(f"no window entry within t_bound={t_bound:.3g}")


def rotate_to_psi1(state, target, j=0, *, params):
    """Inner-rotate until psi_1 = target (mod 2pi); used by the detour step.

    Returns (t, new_state), the state a tuple of floats.  Assumes
    omega_1 != 0.
    """
    state = i1, i2, th1, th2 = tuple(map(float, state))
    w1, w2 = params.frequencies(i1, i2)
    if w1 == 0.0:
        raise WindowUnreachable("psi1 frozen: omega1 = 0")
    drift = 1.0 if w1 > 0.0 else -1.0

    def gap(t, guess):
        # signed phase still to travel, folded to [0, 2pi); decreasing in t
        cand = (i1, i2, th1 + t * w1, th2 + t * w2)
        ps, ts = melnikov.psi(j, cand, params, guess=guess)
        d = (drift * (target - ps[0])) % TWO_PI
        return d, cand, ts.value

    rate = abs(w1) / _psi_speed_denom(params)
    dt = 0.05 / rate
    t = 0.0
    tol = 1e-10
    d_prev, cand, guess = gap(0.0, None)
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
