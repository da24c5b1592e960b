"""Highways: globally drifting invariant surfaces of the scattering flow.

A Highway is the invariant Lagrangian surface {(I, Theta(I))} of the branch-0
scattering flow inside the level set L*_0 = A3 (the far-field value of L*_0,
also attained at (0, 0, ±pi/2, ±pi/2)).  Seeds come from the far-field
gradient expansion; orbits are then traced with the adaptive integrator, for
which the level is a conserved quantity.
"""

import math
from dataclasses import dataclass

from . import kernels, melnikov
from .errors import AsymptoticsUnreliable, EventNotFound, LevelDrift
from .model import wrap_angle
# integrate_to_event is unused here but stays a module attribute: the span
# tracer in perfbench/spans.py rebinds it by name
from .ode import IntegratorConfig, Section, integrate, integrate_to_event  # noqa: F401
from .scattering import flow_rhs

BRANCH_DOWN = "h"   # theta near (pi/2, pi/2): actions decrease along the flow
BRANCH_UP = "H"     # theta near (3pi/2, 3pi/2): actions increase

# step control of Highway traces (`arnolddiff highway` and `time-estimate`):
# transits are long, so steps may be large and many
TRACE_INTEGRATOR = IntegratorConfig(h_max=5e4, max_steps=4_000_000)

# largest |L*_0 - A3| a far-field seed may have
SEED_RESIDUAL_TOL = 1e-4


def level_value(params):
    """The Highway level: A3 = 2*pi*a3/sinh(pi/2)."""
    return kernels.coeff(1.0, params.a3)


def highway_seed(i1, i2, params, signs=(1, 1)):
    """Far-field Highway point (I, Theta(I)) from the gradient expansion.

    ``signs`` picks the quadrant: +1 puts that component of Theta near 3pi/2
    (action increasing), -1 near pi/2 (action decreasing).  The correction
    solves the leading level balance including the frequency cross term, so
    the residual decays like the cube of the coefficient scale.

    Returns (state, residual), the state a tuple of floats.  Raises
    AsymptoticsUnreliable if A1, A2 or A3 is exactly 0 (a zero amplitude, or
    |Omega_i*I_i| past the coefficient cut |pi*w/2| > 700), since the
    correction divides by all three, or if the residual of the defining
    level exceeds SEED_RESIDUAL_TOL (actions too small).
    """
    s1, s2 = signs
    if s1 not in (1, -1) or s2 not in (1, -1):
        raise ValueError("signs must be +-1")
    i1, i2 = float(i1), float(i2)
    w1, w2 = params.frequencies(i1, i2)
    A1 = kernels.coeff(w1, params.a1)
    A2 = kernels.coeff(w2, params.a2)
    A3 = level_value(params)
    if A1 == 0.0 or A2 == 0.0 or A3 == 0.0:
        raise AsymptoticsUnreliable(
            f"far-field seed divides by A3 = {A3}, A1 = {A1} and A2 = {A2}")
    t1 = s1 * w1 * A1 / A3
    t2 = s2 * w2 * A2 / A3
    tsum = t1 + t2
    c1 = -s1 * A3 * t1 * tsum / (2.0 * A1)
    c2 = -s2 * A3 * t2 * tsum / (2.0 * A2)
    th1 = wrap_angle(s1 * 1.5 * math.pi + c1)
    th2 = wrap_angle(s2 * 1.5 * math.pi + c2)
    state = (i1, i2, th1, th2)
    residual = abs(melnikov.reduced_poincare(0, state, params) - A3)
    if residual > SEED_RESIDUAL_TOL:
        raise AsymptoticsUnreliable(
            f"far-field seed residual {residual:.3e} > {SEED_RESIDUAL_TOL:.1e} at I=({i1}, {i2})"
        )
    return state, residual


def _f_of(wb, A, A3):
    """cos(tau*) on the symmetric Highway; quadratic-root form.

    At wb = +-1 the quadratic degenerates and the root is 1 - A^2/(2 A3^2).
    """
    d = wb * wb - 1.0
    if abs(d) < 1e-9:
        return 1.0 - A * A / (2.0 * A3 * A3)
    disc = A3 * A3 + d * wb * wb * A * A
    if disc < 0.0:
        raise ValueError("negative discriminant in the symmetric Highway root")
    return (wb * wb * A3 - math.sqrt(disc)) / (d * A3)


def symmetric_highway_theta(ibar, branch, params):
    """Explicit symmetric Highway angle theta_bar(I_bar) for a1 = a2, O1 = O2.

    The two branches are mirror images: 'h' passes through pi/2 at I = 0 and
    'H' through 3pi/2.  The returned angle satisfies both defining equations
    (branch-0 crest and L*_0 = A3); the selection among the four sign
    combinations of the arccos pair was fixed by minimizing those residuals,
    and collapses to theta_h = arccos((1 - f) A3 / A) + |wb| arccos(f) for
    either sign of I_bar.
    """
    if params.a1 != params.a2 or params.Omega1 != params.Omega2:
        raise ValueError("symmetric form needs a1 == a2 and Omega1 == Omega2")
    if abs(2.0 * params.mu1) >= 0.625:
        raise ValueError("needs 2|a/a3| < 0.625")
    wb = params.Omega1 * ibar
    A = 2.0 * kernels.coeff(wb, params.a1)
    A3 = level_value(params)
    f = _f_of(wb, A, A3)
    if abs(f) > 1.0:
        raise ValueError(f"cos(tau*) = {f:.6g} outside [-1, 1]")
    u = (1.0 - f) * A3 / A
    if abs(u) > 1.0:
        raise ValueError(f"arccos argument {u:.6g} outside [-1, 1]")
    th = math.acos(u) + abs(wb) * math.acos(f)
    if branch == BRANCH_DOWN:
        return wrap_angle(th)
    if branch == BRANCH_UP:
        return wrap_angle(-th)
    raise ValueError("branch must be 'h' or 'H'")


@dataclass
class HighwayOrbit:
    t: list                     # floats
    states: list                # rows I1, I2, theta1, theta2 (angles on lift)
    tau: list                   # floats
    lstar: list                 # floats
    branch_label: str
    level: float

    @property
    def level_error(self):
        return max(abs(v - self.level) for v in self.lstar)


def highway_trace(seed, params, stop, cfg=TRACE_INTEGRATOR, drift_tol=1e-7):
    """Trace a Highway orbit from a seed state with the scattering flow.

    The orbit is integrated once, until it crosses the section
    ``stop=(component_index, value, direction)`` (component 0 or 1, i.e. I1
    or I2); its last row is the crossing, landed on the section exactly.
    The level L*_0 is recorded along the orbit; LevelDrift is raised if it
    departs from the seed's nominal level A3 by more than drift_tol.
    """
    section = Section(*stop)
    t_end = 1e12
    traj = integrate(flow_rhs(0, params), seed, (0.0, t_end), cfg, record=True, section=section)
    if not traj.crossings:
        raise EventNotFound(f"no crossing of {section} within t = {t_end:g}")
    tau = []
    ls = []
    guess = None
    for i1, i2, t1, t2 in traj.y:
        val, guess = kernels.lstar(
            0, params.a1, params.a2, params.a3, params.Omega1, params.Omega2,
            i1, i2, t1, t2, guess,
        )
        tau.append(guess)
        ls.append(val)
    mid = wrap_angle(seed[2])
    label = BRANCH_UP if abs(mid - 1.5 * math.pi) < 0.5 * math.pi else BRANCH_DOWN
    orbit = HighwayOrbit(traj.t, traj.y, tau, ls, label, level_value(params))
    if orbit.level_error > drift_tol:
        raise LevelDrift(
            f"|L* - A3| reached {orbit.level_error:.3e} (tol {drift_tol:.1e})"
        )
    return orbit


def highway_asymptote(params):
    """Far-field straight line of up-Highway orbits in the action plane.

    Returns (slope, offset_far, offset_near) for I >> 1 and I << -1:
    I2 = slope*I1 + offset with slope = Omega1/Omega2 and offset
    -+(2/(pi*Omega2)) * log(Omega1 a1 / (Omega2 a2)).
    """
    if params.a1 * params.a2 == 0.0:
        raise ValueError("needs a1*a2 != 0")
    slope = params.Omega1 / params.Omega2
    off = (2.0 / (math.pi * params.Omega2)) * math.log(
        abs(params.Omega1 * params.a1 / (params.Omega2 * params.a2))
    )
    return slope, -off, off


def trace_family_between_sections(i1_seeds, i2_from, i2_to, params, cfg=TRACE_INTEGRATOR,
                                  drift_tol=1e-7):
    """Fig-7-style family: seeds along I2 = i2_from traced to I2 = i2_to.

    Returns a list of (orbit, transit_time) with transit_time the flow time
    from the seed section to the target section.
    """
    out = []
    for i1 in i1_seeds:
        state, _res = highway_seed(i1, i2_from, params)
        direction = 1 if i2_to > i2_from else -1
        orbit = highway_trace(
            state, params, stop=(1, i2_to, direction), cfg=cfg, drift_tol=drift_tol
        )
        out.append((orbit, orbit.t[-1]))
    return out
