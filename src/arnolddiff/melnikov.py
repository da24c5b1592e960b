"""Splitting potential, crest geometry and the reduced generating function.

The splitting potential of the coupled system is the three-harmonic sum
``A1 cos(phi1) + A2 cos(phi2) + A3 cos(s)`` with coefficients
``A(w, a) = 2*pi*w*a/sinh(pi*w/2)`` (``4a`` at w = 0); it also equals the
convergent integral of ``p0(rho)^2/2 * g(phi + rho*omega, s + rho)`` along
the pendulum separatrix, which `melnikov_potential_quadrature` evaluates as
an independent oracle.

Crests are the surfaces where the directional derivative of the potential
along the frequency lines vanishes:

    alpha(w1)*mu1*sin(phi1) + alpha(w2)*mu2*sin(phi2) + sin(s) = 0.

In the horizontal regime they are graphs s = xi_j(I, phi); intersecting a
frequency line with branch j defines tau*_j, and evaluating the potential
there gives the reduced function L*_j(I, theta) whose Hamiltonian flow is
the scattering flow.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

from . import kernels
from .model import TWO_PI
from .numerics import arange, linspace, quad, solve_2x2

HORIZONTAL = "horizontal"
VERTICAL = "vertical"
UNSEPARATED = "unseparated"


@dataclass(frozen=True)
class MelnikovCoeffs:
    A1: float
    A2: float
    A3: float


def melnikov_coeffs(i1, i2, params):
    """Splitting coefficients at frequencies (Omega1*I1, Omega2*I2, 1)."""
    w1, w2 = params.frequencies(i1, i2)
    return MelnikovCoeffs(
        kernels.coeff(w1, params.a1),
        kernels.coeff(w2, params.a2),
        kernels.coeff(1.0, params.a3),
    )


def melnikov_potential(i1, i2, phi1, phi2, s, params):
    """Closed-form splitting potential at (I, phi, s)."""
    c = melnikov_coeffs(i1, i2, params)
    return c.A1 * math.cos(phi1) + c.A2 * math.cos(phi2) + c.A3 * math.cos(s)


def melnikov_potential_quadrature(i1, i2, phi1, phi2, s, params):
    """Independent oracle: separatrix integral of p0^2/2 times the coupling.

    Integrates 2/cosh(rho)^2 * g(phi + rho*omega, s + rho) over the real
    line (truncated at |rho| = 40, where the weight is ~e^{-80}).
    """
    w1, w2 = params.frequencies(i1, i2)
    a1, a2, a3 = params.a1, params.a2, params.a3

    def f(rho):
        g = (
            a1 * math.cos(phi1 + rho * w1)
            + a2 * math.cos(phi2 + rho * w2)
            + a3 * math.cos(s + rho)
        )
        return 2.0 * g / math.cosh(rho) ** 2

    val, _err = quad(f, -40.0, 40.0, limit=400, epsabs=1e-12, epsrel=1e-12)
    return val


@dataclass
class CrestInfo:
    """Classification of the crest at fixed actions.

    kind is 'horizontal', 'vertical' or 'unseparated'; vertical_component
    says which rotor angle is the graph variable in the vertical case, and
    eta is that case's parametrization phi_i = eta(branch, phi_j, s); both
    are None when not applicable.  The horizontal parametrization
    s = xi_j(phi) is ``crest_branch`` (``kernels.branch_offset``).
    tangency_margin is ``tangency_margin`` at these actions and
    tangency_possible says whether it is <= 0; both are None when the
    classification skipped the tangency check.
    """

    kind: str
    vertical_component: Optional[int] = None
    eta: Optional[Callable] = None
    tangency_possible: Optional[bool] = None
    tangency_margin: Optional[float] = None


def classify_crest(i1, i2, params, check_tangency=True):
    """Decide horizontal / vertical(i) / unseparated at the given actions."""
    w1, w2 = params.frequencies(i1, i2)
    b1 = params.mu1 * kernels.alpha(w1)
    b2 = params.mu2 * kernels.alpha(w2)
    tang = margin = None
    if check_tangency:
        margin = tangency_margin(i1, i2, params)
        tang = margin <= 0.0
    if abs(b1) + abs(b2) <= 1.0:
        return CrestInfo(HORIZONTAL, tangency_possible=tang, tangency_margin=margin)
    comp = None
    if abs(b1) >= 1.0 + abs(b2):
        comp = 1
    elif abs(b2) >= 1.0 + abs(b1):
        comp = 2
    if comp is not None:
        bi, bj = (b1, b2) if comp == 1 else (b2, b1)

        def eta(branch_label, phi_j, s):
            y = -(math.sin(s) + bj * math.sin(phi_j)) / bi
            if abs(y) > 1.0:
                raise ValueError("outside the vertical graph domain")
            root = math.asin(y)
            return root if branch_label == 0 else math.pi - root

        return CrestInfo(VERTICAL, vertical_component=comp, eta=eta, tangency_possible=tang,
                         tangency_margin=margin)
    return CrestInfo(UNSEPARATED, tangency_possible=tang, tangency_margin=margin)


def crest_branch(j, i1, i2, phi1, phi2, params):
    """Horizontal branch surface s = xi_j(I, phi) on the real lift."""
    w1, w2 = params.frequencies(i1, i2)
    return kernels.branch_offset(j, w1, w2, params.mu1, params.mu2, phi1, phi2)


def tangency_margin(i1, i2, params, grid=256):
    """1 - max_phi f_I(phi); positive means lines cross the crest transversally.

    The maximum of the trigonometric surface f_I is located on a coarse grid
    (the first maximum in row-major order) and polished with at most 10
    Newton steps on its gradient, each solving the 2x2 Hessian system with
    ``numerics.solve_2x2``; a singular Hessian ends the polish.
    """
    w1, w2 = params.frequencies(i1, i2)
    c1 = w1 * kernels.alpha(w1) * params.mu1
    c2 = w2 * kernels.alpha(w2) * params.mu2
    s1 = kernels.alpha(w1) * params.mu1
    s2 = kernels.alpha(w2) * params.mu2
    ph = linspace(0.0, TWO_PI, grid, endpoint=False)
    u1 = [c1 * math.cos(p) for p in ph]
    v1 = [s1 * math.sin(p) for p in ph]
    uv2 = [(c2 * math.cos(p), s2 * math.sin(p)) for p in ph]
    best = None
    for i, (a, b) in enumerate(zip(u1, v1)):
        row = [(a + c) * (a + c) + (b + d) * (b + d) for c, d in uv2]
        top = max(row)
        if best is None or top > best:
            best, k = top, (i, row.index(top))
    x = (ph[k[0]], ph[k[1]])

    def fval(p):
        u = c1 * math.cos(p[0]) + c2 * math.cos(p[1])
        v = s1 * math.sin(p[0]) + s2 * math.sin(p[1])
        return u * u + v * v

    def grad_hess(p):
        cos1, sin1 = math.cos(p[0]), math.sin(p[0])
        cos2, sin2 = math.cos(p[1]), math.sin(p[1])
        u = c1 * cos1 + c2 * cos2
        v = s1 * sin1 + s2 * sin2
        g = (-2 * u * c1 * sin1 + 2 * v * s1 * cos1, -2 * u * c2 * sin2 + 2 * v * s2 * cos2)
        h11 = 2 * (c1 * sin1) ** 2 - 2 * u * c1 * cos1 + 2 * (s1 * cos1) ** 2 - 2 * v * s1 * sin1
        h22 = 2 * (c2 * sin2) ** 2 - 2 * u * c2 * cos2 + 2 * (s2 * cos2) ** 2 - 2 * v * s2 * sin2
        h12 = 2 * c1 * sin1 * c2 * sin2 + 2 * s1 * cos1 * s2 * cos2
        return g, h11, h12, h22

    for _ in range(10):
        g, h11, h12, h22 = grad_hess(x)
        step = solve_2x2(h11, h12, h12, h22, *g)
        if step is None:
            break
        x_new = (x[0] - step[0], x[1] - step[1])
        if fval(x_new) >= best:
            x = x_new
            best = fval(x_new)
        else:
            break
    return 1.0 - best


@dataclass(frozen=True)
class TauStar:
    value: float
    residual: float
    iterations: int


def solve_tau_star(j, state, params, guess=None):
    """Crossing time of the frequency line through (I, theta) with branch j."""
    i1, i2, t1, t2 = map(float, state)
    w1, w2 = params.frequencies(i1, i2)
    tau, res, it = kernels.tau_star(j, w1, w2, params.mu1, params.mu2, t1, t2, guess=guess)
    return TauStar(tau, res, it)


def reduced_poincare(j, state, params, guess=None):
    """Value of the reduced generating function L*_j at a reduced state."""
    i1, i2, t1, t2 = map(float, state)
    val, _tau = kernels.lstar(
        j, params.a1, params.a2, params.a3, params.Omega1, params.Omega2, i1, i2, t1, t2, guess
    )
    return val


def reduced_poincare_grad(j, state, params, guess=None):
    """(value, tau*, (dL/dI1, dL/dI2), (dL/dtheta1, dL/dtheta2)), all floats."""
    i1, i2, t1, t2 = map(float, state)
    val, tau, di1, di2, dt1, dt2 = kernels.lstar_grad(
        j, params.a1, params.a2, params.a3, params.Omega1, params.Omega2, i1, i2, t1, t2, guess
    )
    return val, tau, (di1, di2), (dt1, dt2)


def psi(j, state, params, guess=None):
    """Slow angles pulled back to the crest: psi_j = theta - tau*_j * omega.

    Returns ((psi1, psi2), TauStar).
    """
    i1, i2, t1, t2 = map(float, state)
    ts = solve_tau_star(j, state, params, guess=guess)
    w1, w2 = params.frequencies(i1, i2)
    return (t1 - ts.value * w1, t2 - ts.value * w2), ts


def psi_inverse(j, i1, i2, psi1, psi2, params):
    """Invert psi: theta = psi - xi_j(I, psi) * omega, as a pair of floats."""
    w1, w2 = params.frequencies(i1, i2)
    xi = crest_branch(j, i1, i2, psi1, psi2, params)
    return (float(psi1 - xi * w1), float(psi2 - xi * w2))


def scan_alpha_bounds(span=20.0, step=1e-4):
    """Dense-scan suprema of |alpha| and |w alpha| with golden-section refinement."""
    w = arange(-span, span + step, step)
    a = [abs(kernels.alpha(x)) for x in w]
    wa = [abs(x * ax) for x, ax in zip(w, a)]
    i1 = max(range(len(w)), key=a.__getitem__)
    i2 = max(range(len(w)), key=wa.__getitem__)

    def refine(fn, x0, h):
        lo, hi = x0 - h, x0 + h
        gr = (math.sqrt(5.0) - 1.0) / 2.0
        c = hi - gr * (hi - lo)
        d = lo + gr * (hi - lo)
        for _ in range(60):
            if fn(c) > fn(d):
                hi = d
            else:
                lo = c
            c = hi - gr * (hi - lo)
            d = lo + gr * (hi - lo)
        x = 0.5 * (lo + hi)
        return fn(x)

    sup_a = max(a[i1], refine(lambda x: abs(kernels.alpha(x)), w[i1], step))
    sup_wa = max(wa[i2], refine(lambda x: abs(x * kernels.alpha(x)), w[i2], step))
    return sup_a, sup_wa
