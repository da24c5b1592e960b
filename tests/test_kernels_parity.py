"""Bit parity of the pure-Python kernels with their previous, unfused form.

The reference below is the earlier ``arnolddiff.kernels.pure`` copied
verbatim: ``coeff`` and ``coeff_deriv`` each take their own sinh, and
``tau_star`` evaluates g at the low end of the bracket to learn its sign.
The current module computes A and A' from one sinh and drops that
evaluation; every returned value must keep its bits (NaN compared by repr),
iteration counts included, and every exception its type.  Two input
classes are known to differ and are pinned by their own tests below:
``coeff_deriv`` used to divide by an underflowed sinh(x)**2 for
0 < |pi*w/2| < 1.5e-162, and the g(lo) evaluation used to raise when
|lo*w| overflowed (|w| > ~1e307) although no iterate needed it.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arnolddiff.kernels import pure

# ---- reference: the kernels as they were before the fusion (verbatim) ----

SINH_HALF_PI = math.sinh(0.5 * math.pi)

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


def coeff(w, a):
    """Splitting coefficient A(w, a) = 2*pi*w*a / sinh(pi*w/2), = 4a at w = 0."""
    x = 0.5 * math.pi * w
    if abs(x) > _X_OVERFLOW:
        return 0.0
    if abs(x) < 0.1:
        x2 = x * x
        s = 1.0 - x2 / 6.0 + 7.0 * x2 * x2 / 360.0 - 31.0 * x2 * x2 * x2 / 15120.0
        return 4.0 * a * s
    return 2.0 * math.pi * w * a / math.sinh(x)


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


def coeff_deriv(w, a):
    """dA/dw; vanishes at w = 0 and is evaluated by series near it."""
    x = 0.5 * math.pi * w
    if abs(x) > _X_OVERFLOW:
        return 0.0
    sh = math.sinh(x)
    if abs(x) < 1.0:
        # (sinh x - x cosh x) loses digits for small x; sum the series.
        x2 = x * x
        p = 0.0
        for c in reversed(_DCOEF):
            p = (p + c) * x2
        num = -p * x  # = sinh x - x cosh x
    else:
        num = sh - x * math.cosh(x)
    if sh == 0.0:
        return 0.0
    return 2.0 * math.pi * a * num / (sh * sh)



def tau_star(j, w1, w2, mu1, mu2, t1, t2, tol=1e-14, guess=None):
    """Intersection time of the line (theta - tau*w, -tau) with branch j.

    Solves g(tau) = tau + xi_j(theta - tau*w) = 0 by safeguarded Newton on
    the bracket tau in [-pi*j - kappa, -pi*j + kappa], kappa = asin of the
    arcsine-argument bound.  Returns (tau, residual, iterations).
    """
    b1 = mu1 * alpha(w1)
    b2 = mu2 * alpha(w2)
    smax = abs(b1) + abs(b2)
    if smax >= 1.0:
        raise ValueError("crest is not a horizontal graph at this I")
    kap = math.asin(smax) if smax > 0.0 else 0.0
    sgn = -1.0 if j % 2 == 0 else 1.0  # xi_j = pi*j + sgn*asin(X)
    pj = math.pi * j
    lo = -pj - kap - 1e-9
    hi = -pj + kap + 1e-9

    def geval(tau):
        x = b1 * math.sin(t1 - tau * w1) + b2 * math.sin(t2 - tau * w2)
        if x > 1.0:
            x = 1.0
        elif x < -1.0:
            x = -1.0
        g = tau + pj + sgn * math.asin(x)
        dx = -(b1 * w1 * math.cos(t1 - tau * w1) + b2 * w2 * math.cos(t2 - tau * w2))
        den = math.sqrt(max(1.0 - x * x, 1e-30))
        return g, 1.0 + sgn * dx / den

    tau = guess if (guess is not None and lo < guess < hi) else 0.5 * (lo + hi)
    glo, _ = geval(lo)
    it = 0
    for it in range(1, 121):
        g, dg = geval(tau)
        if abs(g) <= tol:
            return tau, g, it
        if (g < 0.0) == (glo < 0.0):
            lo = tau
        else:
            hi = tau
        if dg > 0.0:
            cand = tau - g / dg
        else:
            cand = lo - 1.0  # force bisection
        if cand <= lo or cand >= hi:
            cand = 0.5 * (lo + hi)
        tau = cand
        if hi - lo < 1e-16 * (1.0 + abs(tau)):
            break
    g, _ = geval(tau)
    if abs(g) > 1e-10:
        raise ArithmeticError("tau_star iteration failed to converge")
    return tau, g, it


def lstar(j, a1, a2, a3, om1, om2, i1, i2, t1, t2, guess=None):
    """Reduced generating function on branch j; returns (value, tau_star)."""
    w1 = om1 * i1
    w2 = om2 * i2
    mu1 = a1 / a3
    mu2 = a2 / a3
    tau, _, _ = tau_star(j, w1, w2, mu1, mu2, t1, t2, guess=guess)
    v = (
        coeff(w1, a1) * math.cos(t1 - w1 * tau)
        + coeff(w2, a2) * math.cos(t2 - w2 * tau)
        + coeff(1.0, a3) * math.cos(tau)
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
    mu1 = a1 / a3
    mu2 = a2 / a3
    tau, _, _ = tau_star(j, w1, w2, mu1, mu2, t1, t2, guess=guess)
    ps1 = t1 - w1 * tau
    ps2 = t2 - w2 * tau
    A1 = coeff(w1, a1)
    A2 = coeff(w2, a2)
    A3 = coeff(1.0, a3)
    s1 = math.sin(ps1)
    s2 = math.sin(ps2)
    c1 = math.cos(ps1)
    c2 = math.cos(ps2)
    val = A1 * c1 + A2 * c2 + A3 * math.cos(tau)
    dth1 = -A1 * s1
    dth2 = -A2 * s2
    di1 = om1 * (coeff_deriv(w1, a1) * c1 + tau * A1 * s1)
    di2 = om2 * (coeff_deriv(w2, a2) * c2 + tau * A2 * s2)
    return val, tau, di1, di2, dth1, dth2


def flow_rhs(j, a1, a2, a3, om1, om2, i1, i2, t1, t2, guess=None):
    """Scattering-flow right-hand side (dI1, dI2, dth1, dth2, tau_star)."""
    _, tau, di1, di2, dth1, dth2 = lstar_grad(
        j, a1, a2, a3, om1, om2, i1, i2, t1, t2, guess=guess
    )
    return dth1, dth2, -di1, -di2, tau


# ---- inputs ----

_REF = {
    "alpha": alpha,
    "coeff": coeff,
    "coeff_deriv": coeff_deriv,
    "tau_star": tau_star,
    "lstar": lstar,
    "lstar_grad": lstar_grad,
    "flow_rhs": flow_rhs,
}

CUTS = (0.1, 1.0, 700.0)  # series, derivative-series and overflow cuts on |pi*w/2|


def _around(x0, n=3):
    """Frequencies w within n ulps of the w whose pi*w/2 is the cut x0."""
    w = x0 / (0.5 * math.pi)
    out = [w]
    lo = hi = w
    for _ in range(n):
        lo = math.nextafter(lo, -math.inf)
        hi = math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


W_GRID = [s * w for x0 in CUTS for w in _around(x0) for s in (1.0, -1.0)] + [
    0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, 3.7, -6.2,
]
J_GRID = (-3, -2, -1, 0, 1, 2, 7)
ANGLES = (0.0, 2.5, -4.0, 1e300, -1e300)
SMAX_BELOW_ONE = math.nextafter(1.0, 0.0)


def _outcome(fn, *args, **kw):
    """Result as reprs (bits, NaN included) or the type of the exception raised."""
    try:
        out = fn(*args, **kw)
    except Exception as exc:
        return type(exc)
    return tuple(repr(v) for v in out) if isinstance(out, tuple) else repr(out)


def _sh2_underflows(w):
    x = 0.5 * math.pi * w
    return x != 0.0 and abs(x) <= 700.0 and math.sinh(x) * math.sinh(x) == 0.0


def _check(name, *args, **kw):
    ref = _outcome(_REF[name], *args, **kw)
    new = _outcome(getattr(pure, name), *args, **kw)
    if ref is ZeroDivisionError:
        # the reference divided by an underflowed sinh(x)**2 in coeff_deriv
        ws = args[:1] if name.startswith("coeff") else (args[4] * args[6], args[5] * args[7])
        assert any(_sh2_underflows(w) for w in ws), (name, args, kw)
        assert not isinstance(new, type), (name, args, kw, new)
        return
    assert new == ref, f"{name}{args} {kw}: reference {ref}, now {new}"


def _guesses(j):
    c = -math.pi * j  # bracket midpoint, always inside; +0.3 inside iff kappa > 0.3
    return (None, c, c + 0.3, c + 5.0, math.nan)


# ---- tests ----


def test_scalar_coefficients_on_grid():
    xs = [0.5 * math.pi * w for w in W_GRID]
    for x0 in CUTS:
        assert any(x0 * 0.999 < x < x0 for x in xs) and any(x0 < x < x0 * 1.001 for x in xs)
    assert 1.0 in xs and 700.0 in xs  # the cuts that some w hits exactly
    for w in W_GRID:
        for a in (0.3, -1.7, 0.0):
            _check("alpha", w)
            _check("coeff", w, a)
            _check("coeff_deriv", w, a)


def test_kernels_on_grid():
    k = 0
    for w1 in W_GRID:
        for w2 in W_GRID:
            for j in J_GRID:
                guess = _guesses(j)[k % 5]
                t1 = ANGLES[k % 5]
                t2 = ANGLES[(k // 5) % 5]
                k += 1
                _check("tau_star", j, w1, w2, 0.3, 0.1, t1, t2, guess=guess)
                args = (j, 0.3, 0.1, 1.0, 1.0, 1.0, w1, w2, t1, t2)
                for name in ("lstar", "lstar_grad", "flow_rhs"):
                    _check(name, *args, guess=guess)


def test_crest_bound_at_and_below_one():
    # alpha(1.0) == 1 exactly, so mu1 sets smax = |mu1| (+ |mu2 alpha(w2)|)
    assert pure.alpha(1.0) == 1.0
    for j in J_GRID:
        for guess in _guesses(j):
            for t1 in ANGLES[:3]:
                _check("tau_star", j, 1.0, 0.4, SMAX_BELOW_ONE, 0.0, t1, 1.0, guess=guess)
                _check("tau_star", j, 1.0, -2.0, -SMAX_BELOW_ONE, 0.0, t1, 1.0, guess=guess)
                for a1, a2 in ((SMAX_BELOW_ONE, 0.0), (1.0, 0.0), (0.5, 0.5), (0.9, 0.2)):
                    args = (j, a1, a2, 1.0, 1.0, 1.0, 1.0, 1.0, t1, 2.0)
                    for name in ("lstar", "lstar_grad", "flow_rhs"):
                        _check(name, *args, guess=guess)
    with pytest.raises(ValueError):
        pure.tau_star(0, 1.0, 0.4, 1.0, 0.0, 0.0, 0.0)


def test_nan_angles_and_actions():
    nan = math.nan
    for j in J_GRID:
        for guess in _guesses(j):
            for state in ((nan, 1.0, 0.5, 2.0), (1.0, nan, 0.5, 2.0), (1.0, 2.0, nan, 2.0),
                          (1.0, 2.0, 0.5, nan), (0.0, 0.0, nan, nan), (nan, nan, nan, nan)):
                i1, i2, t1, t2 = state
                _check("tau_star", j, i1, i2, 0.3, 0.1, t1, t2, guess=guess)
                args = (j, 0.3, 0.1, 1.0, 1.0, 1.0, i1, i2, t1, t2)
                for name in ("lstar", "lstar_grad", "flow_rhs"):
                    _check(name, *args, guess=guess)


_w = st.one_of(
    st.floats(-30.0, 30.0), st.sampled_from(W_GRID), st.floats(-1e300, 1e300), st.just(math.nan)
)
_angle = st.one_of(st.floats(-1e3, 1e3), st.floats(-1e300, 1e300), st.just(math.nan))
_guess = st.one_of(st.none(), st.floats(-30.0, 30.0), st.just(math.nan))


@settings(max_examples=400, deadline=None)
@given(
    j=st.integers(-3, 7), w1=_w, w2=_w, mu1=st.floats(-0.6, 0.6), mu2=st.floats(-0.6, 0.6),
    t1=_angle, t2=_angle, guess=_guess,
)
def test_tau_star_parity_property(j, w1, w2, mu1, mu2, t1, t2, guess):
    _check("tau_star", j, w1, w2, mu1, mu2, t1, t2, guess=guess)


@settings(max_examples=400, deadline=None)
@given(
    j=st.integers(-3, 7), a1=st.floats(-0.6, 0.6), a2=st.floats(-0.6, 0.6),
    a3=st.one_of(st.just(1.0), st.floats(0.5, 2.0)), om1=st.floats(0.1, 2.0),
    om2=st.floats(0.1, 2.0), i1=_w, i2=_w, t1=_angle, t2=_angle, guess=_guess,
)
def test_flow_parity_property(j, a1, a2, a3, om1, om2, i1, i2, t1, t2, guess):
    args = (j, a1, a2, a3, om1, om2, i1, i2, t1, t2)
    for name in ("lstar", "lstar_grad", "flow_rhs"):
        _check(name, *args, guess=guess)
    _check("coeff", i1, a1)
    _check("coeff_deriv", i1, a1)


@settings(max_examples=400, deadline=None)
@given(
    j=st.integers(-(2**18) + 1, 2**18 - 1),
    w1=st.floats(-1e300, 1e300), w2=st.one_of(st.floats(-30.0, 30.0), st.sampled_from(W_GRID[:-5])),
    mu1=st.floats(-1.0, 1.0), mu2=st.floats(-1.0, 1.0),
    t1=st.floats(-1e300, 1e300), t2=st.floats(-1e3, 1e3),
)
def test_g_below_zero_at_bracket_low_end(j, w1, w2, mu1, mu2, t1, t2):
    # tau_star no longer evaluates g(lo); its bracket update relies on g(lo) < 0
    b1 = mu1 * pure.alpha(w1)
    b2 = mu2 * pure.alpha(w2)
    smax = abs(b1) + abs(b2)
    if smax >= 1.0:
        return
    kap = math.asin(smax) if smax > 0.0 else 0.0
    sgn = -1.0 if j % 2 == 0 else 1.0
    pj = math.pi * j
    lo = -pj - kap - 1e-9
    x = b1 * math.sin(t1 - lo * w1) + b2 * math.sin(t2 - lo * w2)
    x = min(max(x, -1.0), 1.0)
    assert lo + pj + sgn * math.asin(x) < 0.0


def test_tiny_frequency_derivative_is_zero():
    # 0 < |pi*w/2| < 1.5e-162: sinh(x)**2 underflows; the reference divided by it
    for w in (5e-324, -5e-324, 1e-170):
        assert _sh2_underflows(w)
        with pytest.raises(ZeroDivisionError):
            coeff_deriv(w, 0.3)
        assert pure.coeff_deriv(w, 0.3) == 0.0
        assert repr(pure.coeff(w, 0.3)) == repr(coeff(w, 0.3))
        out = pure.flow_rhs(0, 0.3, 0.1, 1.0, 1.0, 1.0, w, 1.0, 0.5, 2.0)
        assert all(math.isfinite(v) for v in out)


def test_overflowing_bracket_end_no_longer_raises():
    # j = 1, |lo| ~ 4.26: lo*w1 overflows, sin(inf) raised in the reference
    # although the root -pi (w1 * pi ~ 1.6e308) is representable
    args = (1, 5e307, 1.0, 0.2, 0.9, 0.0, 0.0)
    with pytest.raises(ValueError):
        tau_star(*args)
    tau, g, _ = pure.tau_star(*args)
    assert abs(g) <= 1e-14 and abs(tau + math.pi) < 1e-12
