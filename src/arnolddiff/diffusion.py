"""Pseudo-orbit construction along action paths, drift-time estimates, and
the full-system oracle for the first-order jump.

The constructor alternates branch-map jumps with rotation (ergodization)
waits: cover the path with sup-norm balls of radius delta, and before each
jump require the pulled-back angles psi to sit in the quadrant window that
makes every needed action component move toward the next ball center.  On
the exactly resonant diagonal (equal frequencies, offset pi) the window is
unreachable by rotation alone and a detour jump at psi = (0, pi) shifts the
offset instead; the builder repeats it until the window opens up.
"""

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional

from . import inner, kernels, melnikov
from .kernels import pure
from .errors import (
    DegenerateDirection,
    EpsilonTooLarge,
    ExcursionTooShort,
    RangeNotCovered,
    Stuck,
    UseScatteringDetour,
    WindowUnreachable,
)
from .model import TWO_PI, separatrix
from .numerics import cubic_spline, linspace, quad
from .ode import IntegratorConfig, integrate
from .scattering import calibrate_remainder, scattering_map

GUARD_EXPONENT = 0.5          # keep paths (eps^0.5)-clear of the origin, at least delta
WINDOW_MARGIN = 0.3           # angular margin inside the (pi, 2pi) windows
STEP_BUDGET = 2_000_000       # jumps and waits the pseudo-orbit builder may take
DEADBAND_FACTOR = 0.25        # cross-track slack (times delta) before constraining
# ergodization-time exponents of the drift-time estimate; b = -c - 2a
ERGODIZE_A = 0.125
ERGODIZE_C = -0.25
# step control of the full-system excursion (`arnolddiff melnikov-verify`)
EXCURSION_INTEGRATOR = IntegratorConfig(h_max=0.5)


@dataclass(frozen=True, eq=False)
class ActionPath:
    """Piecewise-linear target curve in the action plane.

    Immutable: ``waypoints`` is a tuple of (I1, I2) float pairs copied from
    the input, and the segment table that ``distance_to`` scans is built
    from it once.  Equality and hashing are by identity.
    """

    waypoints: tuple
    delta: float
    stairstepped: bool = False
    _segments: tuple = field(init=False, repr=False)
    _scale: float = field(init=False, repr=False)

    def __post_init__(self):
        wp = tuple((float(x), float(y)) for x, y in self.waypoints)
        if len(wp) < 2:
            raise ValueError("a path needs at least two waypoints")
        if not all(math.isfinite(x) and math.isfinite(y) for x, y in wp):
            raise ValueError("waypoints must be finite")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must be in (0, 1)")
        segments = []
        for (a0, a1), (b0, b1) in zip(wp, wp[1:]):
            d0, d1 = b0 - a0, b1 - a1
            segments.append((a0, a1, d0, d1, d0 * d0 + d1 * d1,
                             min(a0, b0), max(a0, b0), min(a1, b1), max(a1, b1)))
        object.__setattr__(self, "waypoints", wp)
        object.__setattr__(self, "_segments", tuple(segments))
        object.__setattr__(self, "_scale", max(max(abs(x), abs(y)) for x, y in wp))

    @property
    def start(self):
        return self.waypoints[0]

    @property
    def end(self):
        return self.waypoints[-1]

    def distance_to(self, point):
        """Sup-norm distance from a point to the polyline.

        The least sup-norm residual over the segments, NaN if any residual
        is NaN: ``kernels.pure.path_distance`` on the segment table, looked
        up at call time so that the compiled leaf and the Python one it
        translates (the specification) are both reached through here.
        """
        p0, p1 = map(float, point)
        return pure.path_distance(self._segments, self._scale, p0, p1)


def stairstep(path, resolution=None):
    """Axis-aligned approximation of a path, rerouted around the origin.

    Every oblique segment is replaced by alternating horizontal/vertical
    steps no longer than ``resolution`` (default delta/2), so the Hausdorff
    distance to the original polyline stays below the resolution.  Segments
    that would cut through the guard box around I = (0, 0) are routed around
    its boundary with clearance >= delta/2.  Axis-aligned inputs clear of
    the guard box are returned unchanged.
    """
    res = resolution if resolution is not None else 0.5 * path.delta
    pts = [path.waypoints[0]]
    for b in path.waypoints[1:]:
        a = pts[-1]
        d0, d1 = b[0] - a[0], b[1] - a[1]
        if d0 != 0.0 and d1 != 0.0:
            n = max(1, int(math.ceil(max(abs(d0), abs(d1)) / res)))
            for k in range(1, n + 1):
                frac = k / n
                x = a[0] + frac * d0
                _append(pts, (x, pts[-1][1]))
                _append(pts, (x, a[1] + frac * d1))
        else:
            _append(pts, b)
    pts = _reroute_guard(pts, path.delta)
    return ActionPath(pts, path.delta, stairstepped=True)


def _append(pts, p):
    q = pts[-1]
    if not (abs(q[0] - p[0]) <= 1e-15 and abs(q[1] - p[1]) <= 1e-15):
        pts.append(p)


def _reroute_guard(pts, delta):
    """Detour axis-aligned segments around the sup-norm guard box at the origin."""
    g = delta  # guard half-width; rerouted pieces keep clearance g >= delta/2
    out = [pts[0]]
    if abs(pts[0][0]) < g and abs(pts[0][1]) < g:
        raise ValueError("path starts inside the origin guard box")
    for b in pts[1:]:
        a = out[-1]
        if abs(b[0]) < g and abs(b[1]) < g:
            raise ValueError("path waypoint inside the origin guard box")
        axis = 0 if b[1] - a[1] == 0.0 else 1
        other = 1 - axis
        lo, hi = sorted((a[axis], b[axis]))
        crosses = abs(a[other]) < g and not (hi <= -g or lo >= g)
        if crosses:
            side = math.copysign(g, a[other]) if a[other] != 0.0 else g
            s = math.copysign(g, b[axis] - a[axis])
            # the guard box's corners, as (moving axis, other axis)
            for u, v in ((-s, a[other]), (-s, side), (s, side), (s, a[other])):
                _append(out, (u, v) if axis == 0 else (v, u))
        _append(out, b)
    return out


@dataclass
class PseudoStep:
    kind: str                  # 'S' jump, 'I' rotation wait, 'D' detour jump
    state: tuple               # (I1, I2, theta1, theta2) after the step, floats
    dt: float                  # rotation time (0 for jumps)
    psi: Optional[tuple]       # pulled-back angles (psi1, psi2) used for a jump
    dist: float                # sup-norm distance to the target path


@dataclass
class PseudoOrbit:
    steps: List[PseudoStep]
    path: ActionPath
    eps: float
    n_scatter: int = 0
    n_inner: int = 0
    n_detour: int = 0
    inner_time: float = 0.0
    meta: dict = field(default_factory=dict)

    @property
    def max_deviation(self):
        return max(s.dist for s in self.steps)


def _window_for(u, delta, params):
    """Per-component psi windows pushing the action jump toward u.

    The jump component is -eps*A_c*sin(psi_c) and A_c carries the sign of
    the amplitude a_c, so the window flips for negative amplitudes.
    """
    dead = DEADBAND_FACTOR * delta
    win = []
    for uc, amp in zip(u, (params.a1, params.a2)):
        if abs(uc) <= dead:
            win.append(None)
        elif (uc > 0.0) == (amp > 0.0):
            win.append((math.pi + WINDOW_MARGIN, TWO_PI - WINDOW_MARGIN))
        else:
            win.append((WINDOW_MARGIN, math.pi - WINDOW_MARGIN))
    return tuple(win)


def build_pseudo_orbit(path, start, params, j=0, eps=None, on_event=None):
    """Track an action path with branch-map jumps and rotation waits.

    ``path`` should be axis-aligned (run stairstep() first; oblique segments
    are stairstepped here as a convenience).  ``start`` supplies the initial
    angles; it must be finite (else ValueError) and its actions must lie
    within delta of the path start.  Every intermediate action stays within
    delta (sup-norm) of the path, and the orbit terminates within delta of
    the final waypoint.

    Each jump costs one tau* solve: the L* gradient taken before the window
    test also supplies the pulled-back angles psi, and it is recomputed only
    when a rotation wait has moved the angles.
    """
    params.require_diffusion_regime()
    eps = params.eps if eps is None else eps
    if eps <= 0.0:
        raise EpsilonTooLarge("eps must be positive to move the actions")
    # the state z is a tuple of four Python floats, as every step records it
    z = tuple(map(float, start))
    if not all(map(math.isfinite, z)):
        raise ValueError(f"start must be finite, got {z}")
    if not path.stairstepped:
        path = stairstep(path)
    delta = path.delta

    if max(abs(z[0] - path.start[0]), abs(z[1] - path.start[1])) > delta:
        raise ValueError("start actions are not within delta of the path start")

    centers = _ball_centers(path)
    steps: List[PseudoStep] = [
        PseudoStep("I", z, 0.0, None, path.distance_to(z[:2]))
    ]
    orbit = PseudoOrbit(steps, path, eps)

    end = path.end
    k = 0
    target = centers[k]
    guard = max(delta, params.eps**GUARD_EXPONENT)
    for _ in range(STEP_BUDGET):
        if max(abs(z[0] - end[0]), abs(z[1] - end[1])) <= delta and k == len(centers) - 1:
            break  # inside the final ball
        u = (target[0] - z[0], target[1] - z[1])
        if max(abs(u[0]), abs(u[1])) <= 0.5 * delta and k < len(centers) - 1:
            k += 1
            target = centers[k]
            continue
        if max(abs(z[0]), abs(z[1])) < guard:
            raise Stuck(f"entered the origin guard region at state {z}")
        window = _window_for(u, delta, params)
        ps, dI, dTH = _jump_data(j, z, params)
        if not inner.in_window(ps, window):
            try:
                res = inner.ergodize(z, window, j=j, params=params)
            except UseScatteringDetour:
                z = _detour(z, j, params, eps, orbit, steps, path, on_event)
                continue
            except WindowUnreachable as exc:
                if _near_resonant_block(z, j, params):
                    z = _detour(z, j, params, eps, orbit, steps, path, on_event)
                    continue
                res = _wait_for_major_window(z, window, u, j, params, exc)
            z = res.state
            orbit.n_inner += 1
            orbit.inner_time += res.t_star
            d = path.distance_to(z[:2])
            steps.append(PseudoStep("I", z, res.t_star, None, d))
            if on_event:
                on_event("inner", z, res.t_star)
            ps, dI, dTH = _jump_data(j, z, params)
        z = (z[0] + eps * dTH[0], z[1] + eps * dTH[1], z[2] - eps * dI[0], z[3] - eps * dI[1])
        orbit.n_scatter += 1
        d = path.distance_to(z[:2])
        steps.append(PseudoStep("S", z, 0.0, ps, d))
        if not d <= delta:
            raise Stuck(
                f"tracking contract violated: deviation {d!r} > delta={delta} "
                f"at {z}"
            )
    else:
        raise Stuck(f"step budget exhausted before reaching {path.end}")
    orbit.meta.update(
        n_balls=len(centers),
        final_gap=max(abs(z[0] - end[0]), abs(z[1] - end[1])),
        margin=WINDOW_MARGIN,
    )
    return orbit


def _jump_data(j, z, params):
    """Pulled-back angles psi and the L* gradient (dL/dI, dL/dtheta) at z.

    z is a tuple of four floats; the three results are pairs of floats.
    """
    _val, tau, dI, dTH = melnikov.reduced_poincare_grad(j, z, params)
    w1, w2 = params.frequencies(z[0], z[1])
    return (z[2] - tau * w1, z[3] - tau * w2), dI, dTH


def _wait_for_major_window(z, window, u, j, params, exc):
    """Ergodize into the window of the larger |u| component alone.

    Used when both components are constrained, their sweep found no entry
    and the line is not the pi-blocked resonant diagonal.  With windows on
    opposite halves of the circle (one component just past the deadband)
    and near-equal frequencies, the line's offset psi2 - psi1 can sit near
    0, where rotation never meets their box.  The minor component, just
    past the deadband, is then left free as if it were inside it; every
    jump still checks the tracking contract.  Raises Stuck when this sweep
    fails too.
    """
    if None in window:
        raise Stuck(f"window unreachable off the resonant line at {z}: {exc}")
    major = (window[0], None) if abs(u[0]) >= abs(u[1]) else (None, window[1])
    try:
        return inner.ergodize(z, major, j=j, params=params)
    except WindowUnreachable as again:
        raise Stuck(f"window unreachable off the resonant line at {z}: {again}") from exc


def _near_resonant_block(z, j, params):
    """Near-equal frequencies with the line offset too close to pi.

    In this geometry the natural offset drift |w2 - w1| is too slow to open
    the window within a sweep budget, so detour jumps are used instead.
    """
    w1, w2 = params.frequencies(z[0], z[1])
    if w1 == 0.0 or abs(w2 / w1 - 1.0) > 1e-3:
        return False
    ps, _ = melnikov.psi(j, z, params)
    return inner.resonant_gap(ps) <= 2.0 * WINDOW_MARGIN + 0.3


def _detour(z, j, params, eps, orbit, steps, path, on_event):
    """Resonant-diagonal escape: jump at psi = (0, pi) until the offset clears.

    Each jump there leaves the actions fixed (both jump components vanish)
    but shifts the line offset by O(eps); repeat until the offset is far
    enough from pi that the margin-shrunk window intersects the line.
    Returns the final state as a tuple of floats.
    """
    exit_gap = 2.0 * WINDOW_MARGIN + 0.35
    for _ in range(200_000):
        t_rot, z = inner.rotate_to_psi1(z, 0.0, j=j, params=params)
        orbit.inner_time += t_rot
        z = scattering_map(j, z, params, eps=eps).after
        orbit.n_detour += 1
        d = path.distance_to(z[:2])
        steps.append(PseudoStep("D", z, t_rot, None, d))
        if on_event:
            on_event("detour", z, t_rot)
        ps, _ = melnikov.psi(j, z, params)
        if inner.resonant_gap(ps) > exit_gap:
            return z
    raise Stuck("resonant detour failed to clear the blocked window")


def _ball_centers(path):
    """Centers gamma(t_i) spaced delta apart along the stairstepped path."""
    centers = []
    wp = path.waypoints
    for (a0, a1), (b0, b1) in zip(wp, wp[1:]):
        s0, s1 = b0 - a0, b1 - a1
        n = max(1, int(math.ceil((abs(s0) + abs(s1)) / path.delta)))
        for kk in range(1, n + 1):
            frac = kk / n
            centers.append((a0 + s0 * frac, a1 + s1 * frac))
    out = [centers[0]]
    for c in centers[1:]:
        if abs(c[0] - out[-1][0]) > 1e-12 or abs(c[1] - out[-1][1]) > 1e-12:
            out.append(c)
    return out


def epsilon_threshold(path, delta, R, params, remainder_const=None):
    """Tracking threshold eps0 = min(m/(2M), 2*delta/m) for a stairstepped path.

    m is the worst guaranteed jump speed along the path directions (the
    coupling coefficient of the moving action times the window margin sine);
    M is the calibrated quadratic-remainder constant of the branch-0 map.
    Raises DegenerateDirection when a needed amplitude vanishes (m = 0).
    """
    if not path.stairstepped:
        path = stairstep(path)
    m = math.inf
    wp = path.waypoints
    for a, b in zip(wp, wp[1:]):
        comp = 0 if abs(b[0] - a[0]) > abs(b[1] - a[1]) else 1
        amp = params.a1 if comp == 0 else params.a2
        om = params.Omega1 if comp == 0 else params.Omega2
        if amp == 0.0:
            raise DegenerateDirection(f"zero amplitude for action component {comp + 1}")
        for k in range(9):   # the fractions k/8 of np.linspace(0, 1, 9)
            p = a[comp] + (k / 8) * (b[comp] - a[comp])
            if abs(p) > R:
                continue
            w = om * p
            m = min(m, abs(kernels.coeff(w, amp)) * math.sin(WINDOW_MARGIN))
    if not math.isfinite(m) or m == 0.0:
        raise DegenerateDirection("no usable jump speed found along the path")
    if remainder_const is None:
        remainder_const = calibrate_remainder(0, params, eps=1e-3, box=R, n=5)
    eps0 = min(m / (2.0 * remainder_const), 2.0 * delta / m)
    return eps0, {"m": m, "M": remainder_const, "branch_m_over_2M": m / (2.0 * remainder_const), "branch_2delta_over_m": 2.0 * delta / m}


def step_accounting(orbit, params):
    """Jump-count consistency: N_s*eps against the segment quadrature.

    For each stairstep segment, integrates sinh(pi w/2)/(2 pi a Omega w sbar)
    over the segment's frequency range, with sbar the mean |sin psi| of the
    segment-aligned jumps; the total is the flow time the jumps emulate, so
    N_s*eps should land within a factor ~2 of it.  sinh(pi w/2)/w is even
    and positive (pi/2 at w = 0), so a segment may cross w = 0.
    """
    import numpy as np  # the masked pairwise means: array work

    # (I1, I2, |sin psi1|, |sin psi2|) at every jump
    rec = np.array([
        (s.state[0], s.state[1], abs(math.sin(s.psi[0])), abs(math.sin(s.psi[1])))
        for s in orbit.steps if s.kind == "S"
    ])
    if len(rec) == 0:
        return 0.0, 0.0
    total = 0.0
    amps = (params.a1, params.a2)
    oms = (params.Omega1, params.Omega2)
    wp = orbit.path.waypoints
    states = rec[:, :2]
    for a, b in zip(wp, wp[1:]):
        comp = 0 if abs(b[0] - a[0]) >= abs(b[1] - a[1]) else 1
        other = 1 - comp
        lo, hi = sorted((a[comp], b[comp]))
        near = (
            (states[:, comp] >= lo - orbit.path.delta)
            & (states[:, comp] <= hi + orbit.path.delta)
            & (np.abs(states[:, other] - a[other]) <= orbit.path.delta)
        )
        if not np.any(near):
            continue
        sbar = float(np.mean(rec[near, 2 + comp]))
        if sbar <= 0.0:
            continue
        om, amp = oms[comp], amps[comp]
        pref = 1.0 / (2.0 * math.pi * abs(amp) * om * sbar)
        val, _ = quad(
            lambda w: pref * math.sinh(0.5 * math.pi * w) / w if w else pref * (0.5 * math.pi),
            om * lo, om * hi, limit=200,
        )
        total += abs(val)
    return orbit.n_scatter * orbit.eps, total


@dataclass
class TimeEstimate:
    T_s: float
    T_h: float
    C: float
    T_d: float
    eps: float
    b_exponent: float = 0.0
    meta: dict = field(default_factory=dict)


def _bigM(w_lo, w_hi):
    """max over [w_lo, w_hi] of |w - alpha(w)| by dense scan."""
    return max(abs(w - kernels.alpha(w))
               for w in linspace(min(w_lo, w_hi), max(w_lo, w_hi), 4001))


def time_estimate(omega_range, orbit, eps, params):
    """Drift-time assembly T_d = (T_s/eps) * 2 log(C/eps) along a Highway orbit.

    T_s comes from the quadrature
        (1/(2 pi a1 Omega1)) * int -sinh(pi w1/2) / (w1 sin(theta1 - w1 tau*)) dw1
    over the orbit's stored (theta1, tau*) samples, each interpolated in w1
    by a not-a-knot cubic spline; C is the explicit homoclinic-window
    constant built from the amplitude ratios and M(w) = max |w - alpha(w)|
    over the swept range.  Raises RangeNotCovered when the orbit's w1 does
    not span omega_range or takes fewer than 4 distinct values, and
    ValueError when omega_range is not increasing.  The samples
    are sorted by w1 (stably: of tied samples the first in orbit order
    leads), and one closer than 1e-12 to its sorted predecessor is dropped.
    """
    w0, wf = omega_range
    if not w0 < wf:
        raise ValueError(f"omega_range must be increasing, got [{w0}, {wf}]")
    states = orbit.states
    w1 = [params.Omega1 * row[0] for row in states]
    lo, hi = min(w1), max(w1)
    if min(w0, wf) < lo - 1e-9 or max(w0, wf) > hi + 1e-9:
        raise RangeNotCovered(
            f"orbit covers omega1 in [{lo:.4g}, {hi:.4g}], requested [{w0}, {wf}]"
        )
    order = sorted(range(len(w1)), key=w1.__getitem__)
    keep = order[:1] + [k for p, k in zip(order, order[1:]) if w1[k] - w1[p] > 1e-12]
    w_s = [w1[k] for k in keep]
    th_s = [states[k][2] for k in keep]
    ta_s = [orbit.tau[k] for k in keep]
    if len(w_s) < 4:
        raise RangeNotCovered(
            f"orbit has {len(w_s)} distinct omega1 samples; the spline needs at least 4"
        )
    th_spl = cubic_spline(w_s, th_s)
    ta_spl = cubic_spline(w_s, ta_s)

    pref = 1.0 / (2.0 * math.pi * params.a1 * params.Omega1)

    def integrand(w):
        s = math.sin(th_spl(w) - w * ta_spl(w))
        return -pref * math.sinh(0.5 * math.pi * w) / (w * s)

    T_s, _err = quad(integrand, w0, wf, limit=400)

    mu1, mu2 = abs(params.mu1), abs(params.mu2)
    den = math.pi * (1.0 - 1.466 * (mu1 + mu2))
    if den <= 0.0:
        raise ValueError("amplitude ratios too large for the window constant")
    sh = kernels.SINH_HALF_PI
    Mw1 = _bigM(w0, wf)
    i2s = [row[1] for row in states]
    Mw2 = _bigM(params.Omega2 * min(i2s), params.Omega2 * max(i2s))
    C = 16.0 * (
        abs(params.a1)
        + (2.0 * abs(params.a3 * params.mu1) * sh * mu1 / den) * Mw1
        + (2.0 * abs(params.a3 * params.mu2) * sh * mu1 / den) * Mw2
    )
    T_h = 2.0 * math.log(C / eps)
    T_d = (T_s / eps) * T_h
    return TimeEstimate(
        T_s, T_h, C, T_d, eps, -ERGODIZE_C - 2.0 * ERGODIZE_A,
        meta={"M_w1": Mw1, "M_w2": Mw2, "ergodize_a": ERGODIZE_A, "ergodize_c": ERGODIZE_C},
    )


@dataclass
class JumpCheck:
    measured: tuple           # (dI1, dI2) pairs of floats
    predicted: tuple
    discrepancy: float
    raw_delta: tuple
    excursion_time: float


def default_excursion_time(eps):
    """Balanced excursion half-time ~ (1/2) log(16/eps).

    The seed sits on the unperturbed homoclinic loop, so its transverse
    error grows like eps*e^t while the tail of the jump integrand decays
    like e^{-2t}; this choice keeps both contributions at O(eps^2) and puts
    the endpoints O(sqrt(eps)) from the invariant set.
    """
    return 0.5 * math.log(16.0 / eps)


def verify_scattering_jump(state, j, eps, params, cfg=EXCURSION_INTEGRATOR):
    """Full-system oracle for one homoclinic excursion's action jump.

    Starts at the unperturbed homoclinic point (separatrix at tau*, angles
    phi = theta at s = 0), integrates the genuine 3.5-dof system over
    [-T, T] (T = default_excursion_time(eps), 10 at eps = 0) with
    eps-coupling switched on, and accumulates the
    inner-compensated jump J_i = int eps a_i sin(phi_i) (cos q - 1) dt,
    whose limit is the first-order prediction eps dL*/dtheta.  Also returns
    the raw I(T) - I(-T) (which includes the plain rotor drift).
    """
    if not 0.0 <= eps <= 1e-2:
        raise EpsilonTooLarge(f"oracle calibrated for 0 <= eps <= 1e-2, got {eps:g}")
    T = default_excursion_time(eps) if eps > 0.0 else 10.0
    p2 = replace(params, eps=eps)
    i1, i2, t1, t2 = state
    ts = melnikov.solve_tau_star(j, state, params)
    p0, q0 = separatrix(ts.value, branch=1)
    y_mid = (p0, q0, i1, i2, t1, t2, 0.0, 0.0, 0.0)

    f = _augmented_rhs(p2)
    back = integrate(f, y_mid, (0.0, -T), cfg, record=False)
    fwd = integrate(f, y_mid, (0.0, T), cfg, record=False)
    yb, yf = back.final, fwd.final
    d_end = max(_nhim_distance(yb), _nhim_distance(yf))
    # O(sqrt(eps)) is the closest approach reachable from the unperturbed
    # homoclinic point: e^{-T} shrinks but the eps-transverse error grows e^T.
    if eps > 0.0 and d_end > 20.0 * math.sqrt(eps):
        raise ExcursionTooShort(
            f"endpoint distance to the invariant set {d_end:.3e} "
            f"> 20*sqrt(eps) = {20.0 * math.sqrt(eps):.3e}"
        )
    measured = (yf[7] - yb[7], yf[8] - yb[8])
    raw = (yf[2] - yb[2], yf[3] - yb[3])
    _val, _tau, _dI, dTH = melnikov.reduced_poincare_grad(j, state, params)
    predicted = (eps * dTH[0], eps * dTH[1])
    # written out: np.linalg.norm is a BLAS dot whose rounding depends on the CPU kernel
    d0, d1 = measured[0] - predicted[0], measured[1] - predicted[1]
    disc = math.sqrt(d0 * d0 + d1 * d1)
    return JumpCheck(measured, predicted, disc, raw, T)


def _augmented_rhs(params):
    """Full field plus quadrature variables for the compensated jump."""
    sign = params.pendulum_sign
    a1, a2, a3 = params.a1, params.a2, params.a3
    om1, om2, eps = params.Omega1, params.Omega2, params.eps
    frhs = kernels.full_rhs

    def f(t, y):
        d = frhs(sign, a1, a2, a3, om1, om2, eps, y[0], y[1], y[2], y[3], y[4], y[5], y[6])
        cqm1 = math.cos(y[1]) - 1.0
        return d + (eps * a1 * math.sin(y[4]) * cqm1, eps * a2 * math.sin(y[5]) * cqm1)

    return f


def _nhim_distance(y):
    q = y[1] % TWO_PI
    dq = min(q, TWO_PI - q)
    return math.hypot(y[0], dq)
