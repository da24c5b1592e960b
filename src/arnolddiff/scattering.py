"""First-order branch maps, the scattering flow, sections and transversality.

Branch map j in reduced variables z = (I, theta):

    S_j(z) = z + eps * (dL*_j/dtheta, -dL*_j/dI),

i.e. one eps-step of the Hamiltonian flow of L*_j (Lemma: the jump follows
that flow up to O(eps^2)).  Only j = 0 and j = 1 are used in practice.
"""

import math
from dataclasses import dataclass

from . import kernels, melnikov, ode
from .errors import EventNotFound
from .model import TWO_PI, wrap_angle
from .numerics import brentq, linspace
# integrate_to_event is unused here but stays a module attribute: the span
# tracer in perfbench/spans.py rebinds it by name
from .ode import IntegratorConfig, Section, integrate_to_event  # noqa: F401

# step control of section portraits (poincare_section, `arnolddiff poincare`)
SECTION_INTEGRATOR = IntegratorConfig(h_max=10.0)


@dataclass
class ScatteringStep:
    before: tuple             # (I1, I2, theta1, theta2), floats
    after: tuple              # S_j(before)
    jump: tuple               # eps * dL*/dtheta, the action change
    tau: float
    lstar_before: float
    lstar_after: float

    @property
    def level_change(self):
        return self.lstar_after - self.lstar_before


def scattering_map(j, state, params, eps=None):
    """Apply the first-order branch map S_j once."""
    eps = params.eps if eps is None else eps
    val, tau, dI, dTH = melnikov.reduced_poincare_grad(j, state, params)
    i1, i2, t1, t2 = before = tuple(map(float, state))
    jump = (eps * dTH[0], eps * dTH[1])
    after = (i1 + jump[0], i2 + jump[1], t1 - eps * dI[0], t2 - eps * dI[1])
    val_after = melnikov.reduced_poincare(j, after, params, guess=tau)
    return ScatteringStep(before, after, jump, tau, val, val_after)


def flow_rhs(j, params):
    """Scattering flow as f(t, y) for the integrator."""
    a1, a2, a3 = params.a1, params.a2, params.a3
    om1, om2 = params.Omega1, params.Omega2
    frhs = kernels.flow_rhs

    def f(t, y):
        return frhs(j, a1, a2, a3, om1, om2, y[0], y[1], y[2], y[3])[:4]

    return f


@dataclass
class SectionPoint:
    orbit: int
    t: float
    i2: float
    theta2: float
    state: list               # (I1, I2, theta1, theta2) floats; perfbench edits a .copy()


def adjust_seed_to_level(j, i1, i2, theta1_guess, theta2, level, params):
    """Root-solve in theta1 so the seed sits on the prescribed L*_j level.

    The interval [guess - 1.5, guess + 1.5] is scanned at 81 points for
    sign changes, and the root whose bracket midpoint is nearest the guess
    (the first of equals) is polished with Brent's method
    (``numerics.brentq``, the same bits as scipy's).  Returns the seed
    (I1, I2, theta1, theta2) as floats.
    """

    def f(th1):
        return melnikov.reduced_poincare(j, (i1, i2, th1, theta2), params) - level

    width = 1.5
    grid = linspace(theta1_guess - width, theta1_guess + width, 81)
    vals = [f(t) for t in grid]
    sign_change = [i for i in range(80) if vals[i] * vals[i + 1] <= 0.0]
    if not sign_change:
        raise EventNotFound(f"no crossing of L*_{j} = {level!r} for theta1 in "
                            f"{theta1_guess:g} +- {width:g}")
    k = min(sign_change, key=lambda i: abs(0.5 * (grid[i] + grid[i + 1]) - theta1_guess))
    th1 = brentq(f, grid[k], grid[k + 1], xtol=1e-14)
    return float(i1), float(i2), float(th1), float(theta2)


def poincare_section(
    j,
    level,
    section_i1,
    seeds,
    t_max,
    params,
    direction=1,
    max_crossings=200,
    cfg=SECTION_INTEGRATOR,
):
    """Crossings of the hyperplane I1 = section_i1 for scattering-flow orbits.

    ``seeds`` is a list of (i1, i2, theta1_guess, theta2); each seed is first
    moved onto the L*_j = level set by a 1D root solve in theta1, then
    integrated once over (0, t_max), collecting up to ``max_crossings``
    landings on the section.  Returns a list of SectionPoint records ordered
    by orbit then time.  Raises EventNotFound if an orbit never crosses
    (e.g. a seed at an equilibrium).
    """
    f = flow_rhs(j, params)
    section = Section(0, section_i1, direction)
    out = []
    for orbit_id, (i1, i2, th1g, th2) in enumerate(seeds):
        y = adjust_seed_to_level(j, i1, i2, th1g, th2, level, params)
        # ode.integrate is looked up on the module, so rebinding it reaches here
        traj = ode.integrate(
            f, y, (0.0, t_max), cfg, record=False, section=section,
            max_crossings=max_crossings,
        )
        if not traj.crossings:
            raise EventNotFound(f"orbit {orbit_id} never crossed I1={section_i1}")
        for te, ye in traj.crossings:
            out.append(SectionPoint(orbit_id, te, ye[1], wrap_angle(ye[3]), list(ye)))
    return out


def transversality_certificate(j, state, params):
    """Poisson brackets of the rotor integrals with -L*_j at a reduced state.

    {F_i, -L*_j} = eps a_i Omega_i sin(theta_i) (A_i' cos psi_i + tau* A_i sin psi_i)
                   - omega_i A_i sin(psi_i);
    nonvanishing along an orbit certifies the inner and scattering flows
    share no trajectory there.
    """
    eps = params.eps
    i1, i2, t1, t2 = state
    w1, w2 = params.frequencies(i1, i2)
    ts = melnikov.solve_tau_star(j, state, params)
    tau = ts.value
    out = []
    for (w, a, om, th) in ((w1, params.a1, params.Omega1, t1), (w2, params.a2, params.Omega2, t2)):
        psi = th - w * tau
        A = kernels.coeff(w, a)
        dA = kernels.coeff_deriv(w, a)
        inner_part = eps * a * om * math.sin(th) * (dA * math.cos(psi) + tau * A * math.sin(psi))
        out.append(inner_part - w * A * math.sin(psi))
    return tuple(out)


def calibrate_remainder(j, params, eps, box=5.0, n=6):
    """Empirical constant K with |L*_j(S_j z) - L*_j(z)| <= K eps^2 on a grid."""
    worst = 0.0
    iv = linspace(-box, box, n)
    tv = linspace(0.1, TWO_PI, n, endpoint=False)
    for i1 in iv:
        for i2 in iv:
            for t1 in tv:
                for t2 in tv:
                    step = scattering_map(j, (i1, i2, t1, t2), params, eps=eps)
                    worst = max(worst, abs(step.level_change) / eps**2)
    return worst
