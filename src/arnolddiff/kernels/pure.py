"""Pure-Python scalar kernels for the crest/scattering hot path.

The one implementation of the functions that sit inside every integrator
right-hand side and every pseudo-orbit step: the crest weight ``alpha``,
the splitting coefficients ``A(w, a)`` and their w-derivative, the
crest-line intersection time ``tau_star``, the reduced generating function
``lstar`` with its gradient, and the scattering-flow right-hand side.
Callers import them from ``arnolddiff.kernels``, which re-exports this
module; it stays a module of its own so that the span tracer in
``perfbench/spans.py`` can rebind ``pure.tau_star`` (see the last line
below).  Grid scans (``scattering.find_equilibria``) call these scalar
functions point by point rather than keeping a numpy copy of A, A' or tau*.

Conventions: branch surfaces are indexed by an integer j, with offset
``xi_j(phi) = pi*j - (-1)**j * asin(mu1*alpha(w1)*sin(phi1) + mu2*alpha(w2)*sin(phi2))``
so consecutive branches sit ~pi apart in s and ``tau_star(j) ~ -pi*j``.

Work per right-hand side: ``_coeffs`` returns A and A' of one rotor from a
single sinh(pi*w/2) (plus a cosh when |pi*w/2| >= 1), and ``coeff`` and
``coeff_deriv`` are views of it, so the A formula and the A' series exist
once; A3 = A(1, a3) is ``2*pi*a3 / SINH_HALF_PI`` with the same bits.
``tau_star`` runs its Newton loop inline and never evaluates g at the low
end of its bracket: g(lo) = -kappa - 1e-9 + sgn*asin(X) with |X| <= smax and
kappa = asin(smax), so g(lo) < 0 up to rounding of pi*j (|j| < 2**18), and
an iterate with g < 0 (or NaN) becomes the new low end.  Both changes keep
every returned value bit for bit (tests/test_kernels_parity.py); two input
classes that used to raise now return: 0 < |pi*w/2| < 1.5e-162 (sinh**2
underflowed in a division) and |lo*w| overflowing (sin(inf) at g(lo)); a
NaN final residual, once returned as a root, now raises NoConvergence.
Outside the horizontal regime (a3 = 0 included) the kernels raise
NotHorizontal; both errors are the package's own (``errors``), so callers
see them untranslated.  ``lstar`` and ``lstar_grad`` look ``tau_star`` up
as a module global on every call.
"""

import math

from ..errors import NoConvergence, NotHorizontal

SINH_HALF_PI = math.sinh(0.5 * math.pi)

# Certified suprema of |alpha(w)| and |w*alpha(w)| (dense scan + local
# refinement; the true maxima sit at |w| ~ 1.2191 and ~ 1.9001 and exceed
# the round 1.03 / 1.6 figures usually quoted by ~3e-4).
ALPHA_SUP = 1.0302892
OMEGA_ALPHA_SUP = 1.6003615

_X_OVERFLOW = 700.0


def alpha(w):
    """Crest weight alpha(w) = w^2 * sinh(pi/2) / sinh(pi*w/2); alpha(0) = 0."""
    if w == 0.0:
        return 0.0
    x = 0.5 * math.pi * w
    if abs(x) > _X_OVERFLOW:
        return 0.0
    if abs(x) < 0.1:
        # w^2/sinh(x) = (2w/pi) * (x/sinh x)
        x2 = x * x
        s = 1.0 - x2 / 6.0 + 7.0 * x2 * x2 / 360.0 - 31.0 * x2 * x2 * x2 / 15120.0
        return (2.0 / math.pi) * w * SINH_HALF_PI * s
    return w * w * SINH_HALF_PI / math.sinh(x)


# Series of x*cosh(x) - sinh(x) = sum_k 2k x^(2k+1) / (2k+1)!, k >= 1.
_DCOEF = (
    1.0 / 3.0,
    1.0 / 30.0,
    1.0 / 840.0,
    1.0 / 45360.0,
    1.0 / 3991680.0,
    1.9270852604185938e-09,  # 12/13!
    1.6059043836821613e-11,  # 14/15!
    1.1221229687119662e-13,  # 16/17!
)


def _coeffs(w, a):
    """(A(w, a), dA/dw) from one sinh(pi*w/2), plus one cosh when |pi*w/2| >= 1."""
    x = 0.5 * math.pi * w
    if abs(x) > _X_OVERFLOW:
        return 0.0, 0.0
    sh = math.sinh(x)
    if abs(x) < 1.0:
        x2 = x * x
        if abs(x) < 0.1:
            s = 1.0 - x2 / 6.0 + 7.0 * x2 * x2 / 360.0 - 31.0 * x2 * x2 * x2 / 15120.0
            A = 4.0 * a * s
        else:
            A = 2.0 * math.pi * w * a / sh
        # (sinh x - x cosh x) loses digits for small x; sum the series.
        p = 0.0
        for c in reversed(_DCOEF):
            p = (p + c) * x2
        num = -p * x  # = sinh x - x cosh x
    else:
        A = 2.0 * math.pi * w * a / sh
        num = sh - x * math.cosh(x)
    sh2 = sh * sh
    if sh2 == 0.0:
        # x == 0, or 0 < |x| < 1.5e-162 where sinh(x)**2 underflows (num
        # has underflowed to a signed zero too): dA/dw = -2*pi*a*x/3 ~ 0.
        return A, 0.0
    return A, 2.0 * math.pi * a * num / sh2


def coeff(w, a):
    """Splitting coefficient A(w, a) = 2*pi*w*a / sinh(pi*w/2), = 4a at w = 0."""
    return _coeffs(w, a)[0]


def coeff_deriv(w, a):
    """dA/dw; vanishes at w = 0 and is evaluated by series near it."""
    return _coeffs(w, a)[1]


def branch_offset(j, w1, w2, mu1, mu2, p1, p2):
    """Crest branch s = xi_j(I, phi); raises NotHorizontal outside the horizontal regime."""
    arg = mu1 * alpha(w1) * math.sin(p1) + mu2 * alpha(w2) * math.sin(p2)
    if arg > 1.0 or arg < -1.0:
        raise NotHorizontal("crest is not a horizontal graph at this (I, phi)")
    if j % 2 == 0:
        return math.pi * j - math.asin(arg)
    return math.pi * j + math.asin(arg)


def tau_star(j, w1, w2, mu1, mu2, t1, t2, tol=1e-14, guess=None):
    """Intersection time of the line (theta - tau*w, -tau) with branch j.

    Solves g(tau) = tau + xi_j(theta - tau*w) = 0 by safeguarded Newton on
    the bracket tau in [-pi*j - kappa, -pi*j + kappa], kappa = asin of the
    arcsine-argument bound.  Returns (tau, residual, iterations); raises
    NotHorizontal when that bound reaches 1 and NoConvergence when the final
    residual exceeds 1e-10 or is NaN.
    """
    b1 = mu1 * alpha(w1)
    b2 = mu2 * alpha(w2)
    smax = abs(b1) + abs(b2)
    if smax >= 1.0:
        raise NotHorizontal("crest is not a horizontal graph at this I")
    kap = math.asin(smax) if smax > 0.0 else 0.0
    sgn = -1.0 if j % 2 == 0 else 1.0  # xi_j = pi*j + sgn*asin(X)
    pj = math.pi * j
    lo = -pj - kap - 1e-9
    hi = -pj + kap + 1e-9

    tau = guess if (guess is not None and lo < guess < hi) else 0.5 * (lo + hi)
    # g(lo) = -kap - 1e-9 + sgn*asin(X) with |X| <= smax and kap = asin(smax),
    # so g(lo) <= -1e-9 + O(ulp(pi*j)) < 0 for every finite input with
    # |j| < 2**18: the root lies above any iterate where g < 0.  A NaN g
    # moves lo, as it did when g(lo) was evaluated and came out NaN too.
    it = 0
    for it in range(1, 121):
        ps1 = t1 - tau * w1
        ps2 = t2 - tau * w2
        x = b1 * math.sin(ps1) + b2 * math.sin(ps2)
        if x > 1.0:
            x = 1.0
        elif x < -1.0:
            x = -1.0
        g = tau + pj + sgn * math.asin(x)
        if abs(g) <= tol:
            return tau, g, it
        if g >= 0.0:
            hi = tau
        else:
            lo = tau
        dx = -(b1 * w1 * math.cos(ps1) + b2 * w2 * math.cos(ps2))
        den = math.sqrt(max(1.0 - x * x, 1e-30))
        dg = 1.0 + sgn * dx / den
        if dg > 0.0:
            cand = tau - g / dg
        else:
            cand = lo - 1.0  # force bisection
        if cand <= lo or cand >= hi:
            cand = 0.5 * (lo + hi)
        tau = cand
        if hi - lo < 1e-16 * (1.0 + abs(tau)):
            break
    x = b1 * math.sin(t1 - tau * w1) + b2 * math.sin(t2 - tau * w2)
    g = tau + pj + sgn * math.asin(min(max(x, -1.0), 1.0))
    if not abs(g) <= 1e-10:  # a NaN residual is no root either
        raise NoConvergence("tau_star iteration failed to converge")
    return tau, g, it


def lstar(j, a1, a2, a3, om1, om2, i1, i2, t1, t2, guess=None):
    """Reduced generating function on branch j; returns (value, tau_star)."""
    w1 = om1 * i1
    w2 = om2 * i2
    if a3 == 0.0:  # no cos(s) harmonic: the crest is no graph s = xi(phi)
        raise NotHorizontal("crest is not a horizontal graph at a3 = 0")
    mu1 = a1 / a3
    mu2 = a2 / a3
    tau, _, _ = tau_star(j, w1, w2, mu1, mu2, t1, t2, guess=guess)
    v = (
        _coeffs(w1, a1)[0] * math.cos(t1 - w1 * tau)
        + _coeffs(w2, a2)[0] * math.cos(t2 - w2 * tau)
        + 2.0 * math.pi * a3 / SINH_HALF_PI * math.cos(tau)
    )
    return v, tau


def lstar_grad(j, a1, a2, a3, om1, om2, i1, i2, t1, t2, guess=None):
    """Value, tau_star and the four partials of the reduced generating function.

    Because tau_star is a critical point along the line, the tau-derivative
    terms drop and
        dL/dtheta_i = -A_i sin(psi_i),
        dL/dI_i     = Omega_i (A_i'(w_i) cos(psi_i) + tau* A_i sin(psi_i)),
    with psi_i = theta_i - w_i tau*.

    Returns (L, tau, dI1, dI2, dth1, dth2).
    """
    w1 = om1 * i1
    w2 = om2 * i2
    if a3 == 0.0:  # no cos(s) harmonic: the crest is no graph s = xi(phi)
        raise NotHorizontal("crest is not a horizontal graph at a3 = 0")
    mu1 = a1 / a3
    mu2 = a2 / a3
    tau, _, _ = tau_star(j, w1, w2, mu1, mu2, t1, t2, guess=guess)
    ps1 = t1 - w1 * tau
    ps2 = t2 - w2 * tau
    A1, dA1 = _coeffs(w1, a1)
    A2, dA2 = _coeffs(w2, a2)
    A3 = 2.0 * math.pi * a3 / SINH_HALF_PI  # = coeff(1.0, a3), same bits
    s1 = math.sin(ps1)
    s2 = math.sin(ps2)
    c1 = math.cos(ps1)
    c2 = math.cos(ps2)
    val = A1 * c1 + A2 * c2 + A3 * math.cos(tau)
    dth1 = -A1 * s1
    dth2 = -A2 * s2
    di1 = om1 * (dA1 * c1 + tau * A1 * s1)
    di2 = om2 * (dA2 * c2 + tau * A2 * s2)
    return val, tau, di1, di2, dth1, dth2


def flow_rhs(j, a1, a2, a3, om1, om2, i1, i2, t1, t2, guess=None):
    """Scattering-flow right-hand side (dI1, dI2, dth1, dth2, tau_star)."""
    _, tau, di1, di2, dth1, dth2 = lstar_grad(
        j, a1, a2, a3, om1, om2, i1, i2, t1, t2, guess=guess
    )
    return dth1, dth2, -di1, -di2, tau


def full_rhs(sign, a1, a2, a3, om1, om2, eps, p, q, i1, i2, f1, f2, s):
    """Full-system vector field (pendulum + rotors + time angle).

    Returns (dp, dq, dI1, dI2, dphi1, dphi2, ds).
    """
    sq = math.sin(q)
    g = a1 * math.cos(f1) + a2 * math.cos(f2) + a3 * math.cos(s)
    dp = sign * sq + eps * sq * g
    dq = sign * p
    cq = math.cos(q)
    di1 = eps * a1 * math.sin(f1) * cq
    di2 = eps * a2 * math.sin(f2) * cq
    return dp, dq, di1, di2, om1 * i1, om2 * i2, 1.0
