"""First-order branch maps, the scattering flow, sections and transversality.

Branch map j in reduced variables z = (I, theta):

    S_j(z) = z + eps * (dL*_j/dtheta, -dL*_j/dI),

i.e. one eps-step of the Hamiltonian flow of L*_j (Lemma: the jump follows
that flow up to O(eps^2)).  Only j = 0 and j = 1 are used in practice.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels, melnikov, ode
from .errors import EventNotFound, NotHorizontal
from .model import TWO_PI, wrap_angle
from .numerics import brentq
# integrate_to_event is unused here but stays a module attribute: the span
# tracer in perfbench/spans.py rebinds it by name
from .ode import IntegratorConfig, Section, integrate_to_event  # noqa: F401


@dataclass
class ScatteringStep:
    before: tuple             # (I1, I2, theta1, theta2), floats
    after: tuple              # S_j(before)
    branch: int
    jump: tuple               # eps * dL*/dtheta, the action change
    tau: float
    lstar_before: float
    lstar_after: float

    @property
    def level_change(self):
        return self.lstar_after - self.lstar_before


def scattering_map(j, state, params, eps=None, guess=None):
    """Apply the first-order branch map S_j once."""
    eps = params.eps if eps is None else eps
    val, tau, dI, dTH = melnikov.reduced_poincare_grad(j, state, params, guess=guess)
    i1, i2, t1, t2 = before = tuple(map(float, state))
    jump = (eps * dTH[0], eps * dTH[1])
    after = (i1 + jump[0], i2 + jump[1], t1 - eps * dI[0], t2 - eps * dI[1])
    val_after = melnikov.reduced_poincare(j, after, params, guess=tau)
    return ScatteringStep(before, after, j, jump, tau, val, val_after)


def scattering_flow_field(j, state, params, guess=None):
    """Right-hand side of the scattering flow (I' = L*_theta, theta' = -L*_I)."""
    i1, i2, t1, t2 = state
    d1, d2, d3, d4, _tau = kernels.flow_rhs(
        j, params.a1, params.a2, params.a3, params.Omega1, params.Omega2,
        i1, i2, t1, t2, guess,
    )
    return np.array([d1, d2, d3, d4])


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
    state: np.ndarray


def adjust_seed_to_level(j, i1, i2, theta1_guess, theta2, level, params, width=1.5):
    """Root-solve in theta1 so the seed sits on the prescribed L*_j level.

    The interval [guess - width, guess + width] is scanned for sign changes
    and the root nearest the guess is polished with Brent's method
    (``numerics.brentq``, the same bits as scipy's).
    """

    def f(th1):
        return melnikov.reduced_poincare(j, (i1, i2, th1, theta2), params) - level

    grid = np.linspace(theta1_guess - width, theta1_guess + width, 81)
    vals = np.array([f(t) for t in grid])
    sign_change = np.nonzero(vals[:-1] * vals[1:] <= 0.0)[0]
    if sign_change.size == 0:
        raise EventNotFound(f"no crossing of L*_{j} = {level!r} for theta1 in "
                            f"{theta1_guess:g} +- {width:g}")
    mids = 0.5 * (grid[sign_change] + grid[sign_change + 1])
    k = sign_change[np.argmin(np.abs(mids - theta1_guess))]
    th1 = brentq(f, grid[k], grid[k + 1], xtol=1e-14)
    return np.array([i1, i2, th1, theta2])


def poincare_section(
    j,
    level,
    section_i1,
    seeds,
    t_max,
    params,
    direction=1,
    max_crossings=200,
    cfg=None,
    adjust_width=1.5,
):
    """Crossings of the hyperplane I1 = section_i1 for scattering-flow orbits.

    ``seeds`` is a list of (i1, i2, theta1_guess, theta2); each seed is first
    moved onto the L*_j = level set by a 1D root solve in theta1, then
    integrated once over (0, t_max), collecting up to ``max_crossings``
    landings on the section.  Returns a list of SectionPoint records ordered
    by orbit then time.  Raises EventNotFound if an orbit never crosses
    (e.g. a seed at an equilibrium).
    """
    cfg = cfg or IntegratorConfig(h_max=10.0)
    f = flow_rhs(j, params)
    section = Section(0, section_i1, direction)
    out = []
    for orbit_id, (i1, i2, th1g, th2) in enumerate(seeds):
        y = adjust_seed_to_level(j, i1, i2, th1g, th2, level, params, width=adjust_width)
        # ode.integrate is looked up on the module, so rebinding it reaches here
        traj = ode.integrate(
            f, y, (0.0, t_max), cfg, record=False, section=section,
            max_crossings=max_crossings,
        )
        if not traj.crossings:
            raise EventNotFound(f"orbit {orbit_id} never crossed I1={section_i1}")
        for te, ye in traj.crossings:
            out.append(SectionPoint(orbit_id, te, ye[1], float(wrap_angle(ye[3])), ye))
    return out


def transversality_certificate(j, state, params, eps=None):
    """Poisson brackets of the rotor integrals with -L*_j at a reduced state.

    {F_i, -L*_j} = eps a_i Omega_i sin(theta_i) (A_i' cos psi_i + tau* A_i sin psi_i)
                   - omega_i A_i sin(psi_i);
    nonvanishing along an orbit certifies the inner and scattering flows
    share no trajectory there.
    """
    eps = params.eps if eps is None else eps
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


def find_equilibria(j, params, box=5.0, grid_i=17, grid_th=16, norm_tol=1e-10):
    """Certified zero scan of the scattering flow field over a 4D box.

    Evaluates ||field|| with the scalar kernel ``kernels.flow_rhs`` at each
    point of a grid over I in [-box, box]^2, theta in [0, 2pi)^2, runs Newton
    (via fsolve) from every local minimum, and returns the distinct converged
    zeros inside the box.  Raises NotHorizontal if the crest is not a
    horizontal graph at some grid point.
    """
    # scipy is imported here, not at module level: loading it costs every
    # CLI command ~0.45 s, and only this scan needs it
    from scipy.optimize import fsolve

    a1, a2, a3 = params.a1, params.a2, params.a3
    om1, om2 = params.Omega1, params.Omega2
    frhs = kernels.flow_rhs

    def norm_at(i1, i2, t1, t2):
        f1, f2, f3, f4, _tau = frhs(j, a1, a2, a3, om1, om2, i1, i2, t1, t2)
        return math.sqrt(f1 * f1 + f2 * f2 + f3 * f3 + f4 * f4)

    iv = np.linspace(-box, box, grid_i)
    tv = np.linspace(0.0, TWO_PI, grid_th, endpoint=False)
    ivl = iv.tolist()
    tvl = tv.tolist()
    try:
        norm = np.array(
            [norm_at(i1, i2, t1, t2) for i1 in ivl for i2 in ivl for t1 in tvl for t2 in tvl]
        ).reshape(grid_i, grid_i, grid_th, grid_th)
    except ValueError as exc:
        raise NotHorizontal(f"{exc} (find_equilibria grid, box={box})") from None

    # local minima of ||field|| over the grid: wrap in the angle axes,
    # one-sided comparison at the action-box faces
    is_min = np.ones_like(norm, dtype=bool)
    for ax in range(4):
        fwd = np.roll(norm, -1, axis=ax)
        bwd = np.roll(norm, 1, axis=ax)
        if ax < 2:  # no wraparound in the actions
            sl_lo = [slice(None)] * 4
            sl_hi = [slice(None)] * 4
            sl_lo[ax] = 0
            sl_hi[ax] = -1
            bwd[tuple(sl_lo)] = np.inf
            fwd[tuple(sl_hi)] = np.inf
        is_min &= (norm <= fwd) & (norm <= bwd)
    cand_idx = np.argwhere(is_min)

    def field(z):
        return scattering_flow_field(j, z, params)

    zeros = []
    for idx in cand_idx:
        z0 = np.array([iv[idx[0]], iv[idx[1]], tv[idx[2]], tv[idx[3]]])
        z, info, ok, _msg = fsolve(field, z0, full_output=True, xtol=1e-13)
        if ok != 1:
            continue
        if np.linalg.norm(field(z)) > norm_tol:
            continue
        if abs(z[0]) > box + 1e-6 or abs(z[1]) > box + 1e-6:
            continue
        z[2] = wrap_angle(z[2])
        z[3] = wrap_angle(z[3])
        if not any(_same_point(z, w_) for w_ in zeros):
            zeros.append(z)
    zeros.sort(key=lambda z: (round(z[2], 6), round(z[3], 6), round(z[0], 6)))
    return zeros


def _same_point(a, b, tol=1e-6):
    di = np.hypot(a[0] - b[0], a[1] - b[1])
    dt1 = min(abs(a[2] - b[2]), TWO_PI - abs(a[2] - b[2]))
    dt2 = min(abs(a[3] - b[3]), TWO_PI - abs(a[3] - b[3]))
    return di < tol and dt1 < tol and dt2 < tol


def calibrate_remainder(j, params, eps, box=5.0, n=6):
    """Empirical constant K with |L*_j(S_j z) - L*_j(z)| <= K eps^2 on a grid."""
    worst = 0.0
    iv = np.linspace(-box, box, n)
    tv = np.linspace(0.1, TWO_PI, n, endpoint=False)
    for i1 in iv:
        for i2 in iv:
            for t1 in tv:
                for t2 in tv:
                    step = scattering_map(j, (i1, i2, t1, t2), params, eps=eps)
                    worst = max(worst, abs(step.level_change) / eps**2)
    return worst
