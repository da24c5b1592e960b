"""Brent's root bracketing, QUADPACK's QAGS quadrature and the not-a-knot
cubic spline in plain Python.

All three are line-for-line ports of the routines scipy runs: ``brentq`` of
scipy's ``brentq.c`` (R. P. Brent, *Algorithms for Minimization Without
Derivatives*, 1973, ch. 4), ``quad`` of QUADPACK's DQAGSE with DQK21,
DQPSRT and DQELG (R. Piessens, E. de Doncker-Kapenga, C. W. Ueberhuber and
D. K. Kahaner, *QUADPACK*, 1983), and ``cubic_spline`` of
``CubicSpline(x, y)`` with not-a-knot ends (C. de Boor, *A Practical Guide
to Splines*, 1978): its tridiagonal system, solved by reference LAPACK's
DGTSV, then ``CubicHermiteSpline``'s coefficients and ``PPoly``'s
evaluation.  They keep the order of every floating-point operation and of
every call to ``f``, so they return the same bits as
``scipy.optimize.brentq``, ``scipy.integrate.quad`` (finite limits, no
weight, no break points) and ``scipy.interpolate.CubicSpline`` (n >= 4
samples) after the same number of evaluations.

Why they exist: importing ``scipy.optimize`` and ``scipy.integrate`` costs
about 0.45 s and 45 MB, and ``scipy.interpolate`` alone about 0.5 s and
50 MB over numpy, more than a typical CLI command computes; the package
needs just these three routines from them.  As a side effect, the numbers
no longer depend on which scipy build is installed.

The small grids and the one linear solve that the scalar layers took from
numpy are here too, for the same reason: ``import numpy`` is about half of
``import arnolddiff.cli``'s start-up.  ``linspace`` and ``arange`` return
the points of ``np.linspace`` and ``np.arange`` as float lists, and
``solve_2x2`` solves a 2x2 system in reference LAPACK's DGETRF2/DGETRS
order, which ``np.linalg.solve`` follows on OpenBLAS's cores without FMA
(its FMA cores round differently, so the bits depended on the CPU).

Where the C code divides by zero, or ``pow`` overflows, and gets an
infinity or NaN that only feeds a comparison, Python raises instead; those
few spots catch the exception and carry on as the C code does.
"""

import math
import warnings
from bisect import bisect_right

__all__ = ["IntegrationWarning", "arange", "brentq", "cubic_spline", "linspace", "quad",
           "solve_2x2"]

_EPMACH = 2.220446049250313e-16          # d1mach(4) = DBL_EPSILON
_UFLOW = 2.2250738585072014e-308         # d1mach(1) = DBL_MIN
_OFLOW = 1.7976931348623157e308          # d1mach(2) = DBL_MAX

_BRENT_RTOL = 4.0 * _EPMACH
_BRENT_MAXITER = 100


def _signbit(x):
    return math.copysign(1.0, x) < 0.0


def _checked(f, x):
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


def brentq(f, a, b, xtol):
    """A root of f in [a, b], where f(a) and f(b) differ in sign.

    Brent's method with inverse quadratic extrapolation, stopping once the
    bracket is narrower than ``xtol + 4*eps*|x|``.  Raises ValueError when
    ``xtol <= 0``, when f(a) and f(b) have the same sign or when f returns
    NaN, and RuntimeError after 100 iterations without convergence.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    xtol = float(xtol)
    rtol = _BRENT_RTOL
    xpre = float(a)
    xcur = float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = _checked(f, xpre)
    fcur = _checked(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre = xcur
            xcur = xblk
            xblk = xpre
            fpre = fcur
            fcur = fblk
            fblk = fpre

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                stry = math.inf   # C gets inf or NaN: either fails the test below
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _checked(f, xcur)
    raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} iterations.")


class IntegrationWarning(UserWarning):
    """The quadrature stopped short of the requested accuracy."""


_QUAD_MESSAGES = {
    1: "The maximum number of subdivisions ({limit}) has been achieved.\n  "
       "If increasing the limit yields no improvement it is advised to "
       "analyze \n  the integrand in order to determine the difficulties.  "
       "If the position of a \n  local difficulty can be determined "
       "(singularity, discontinuity) one will \n  probably gain from "
       "splitting up the interval and calling the integrator \n  on the "
       "subranges.  Perhaps a special-purpose integrator should be used.",
    2: "The occurrence of roundoff error is detected, which prevents \n  "
       "the requested tolerance from being achieved.  "
       "The error may be \n  underestimated.",
    3: "Extremely bad integrand behavior occurs at some points of the\n  "
       "integration interval.",
    4: "The algorithm does not converge.  Roundoff error is detected\n  "
       "in the extrapolation table.  It is assumed that the requested "
       "tolerance\n  cannot be achieved, and that the returned result "
       "(if full_output = 1) is \n  the best which can be obtained.",
    5: "The integral is probably divergent, or slowly convergent.",
}


def quad(f, a, b, epsabs=1.49e-8, epsrel=1.49e-8, limit=50):
    """Integral of f over [a, b] (finite limits) and its error estimate.

    Globally adaptive 21-point Gauss-Kronrod bisection with Wynn's epsilon
    extrapolation (QAGS).  Returns ``(result, abserr)``; for ``b < a`` the
    integral over [b, a] is negated.  Issues an IntegrationWarning when the
    requested accuracy was not reached (QUADPACK's ier 1 to 5) and raises
    ValueError on invalid tolerances or ``limit < 1``.
    """
    if a == b:
        return 0.0, 0.0
    flip, a, b = b < a, min(a, b), max(a, b)
    if limit < 1:
        ier = 6
    else:
        result, abserr, ier = _qagse(f, float(a), float(b), float(epsabs), float(epsrel), limit)
    if ier == 6:
        if epsabs <= 0 and epsrel < max(50 * _EPMACH, 5e-29):
            raise ValueError("If 'epsabs'<=0, 'epsrel' must be greater than both"
                             " 5e-29 and 50*(machine epsilon).")
        if epsabs <= 0:
            raise ValueError("The input is invalid.")
        raise ValueError("Invalid 'limit' argument. There must be at least one subinterval")
    if flip:
        result = -result
    if ier != 0:
        warnings.warn(_QUAD_MESSAGES[ier].format(limit=limit), IntegrationWarning,
                      stacklevel=2)
    return result, abserr


# 21-point Kronrod nodes and weights and the 10-point Gauss weights, indexed
# from 1 as in DQK21; xgk[2], xgk[4], ..., xgk[10] are the Gauss nodes.
_XGK = (
    None,
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
)
_WGK = (
    None,
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    None,
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_QK21_GAUSS = tuple((_WG[j], _XGK[2 * j], _WGK[2 * j]) for j in range(1, 6))
_QK21_KRONROD = tuple((_XGK[2 * j - 1], _WGK[2 * j - 1]) for j in range(1, 6))
_QK21_RESASC = tuple(_WGK[1:11])
_QK21_TINY = _UFLOW / (0.5e2 * _EPMACH)


def _qk21(f, a, b):
    """DQK21: (result, abserr, resabs, resasc) of the 21-point rule on [a, b]."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)

    resg = 0.0
    fc = float(f(centr))
    resk = _WGK[11] * fc
    resabs = abs(resk)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    for jtw, (wg, xgk, wgk) in zip((1, 3, 5, 7, 9), _QK21_GAUSS):
        absc = hlgth * xgk
        fval1 = float(f(centr - absc))
        fval2 = float(f(centr + absc))
        fv1[jtw] = fval1
        fv2[jtw] = fval2
        fsum = fval1 + fval2
        resg = resg + wg * fsum
        resk = resk + wgk * fsum
        resabs = resabs + wgk * (abs(fval1) + abs(fval2))
    for jtwm1, (xgk, wgk) in zip((0, 2, 4, 6, 8), _QK21_KRONROD):
        absc = hlgth * xgk
        fval1 = float(f(centr - absc))
        fval2 = float(f(centr + absc))
        fv1[jtwm1] = fval1
        fv2[jtwm1] = fval2
        fsum = fval1 + fval2
        resk = resk + wgk * fsum
        resabs = resabs + wgk * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[11] * abs(fc - reskh)
    for wgk, v1, v2 in zip(_QK21_RESASC, fv1, fv2):
        resasc = resasc + wgk * (abs(v1 - reskh) + abs(v2 - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        try:
            scale = (0.2e3 * abserr / resasc) ** 1.5
        except OverflowError:
            scale = math.inf
        abserr = resasc * min(1.0, scale)
    if resabs > _QK21_TINY:
        abserr = max((_EPMACH * 0.5e2) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """DQPSRT: keep iord sorted by descending error; returns (maxerr, ermax, nrmax)."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        ibeg = nrmax + 1
        for i in range(ibeg, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                # insert errmin by traversing the list bottom-up
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """DQELG, Wynn's epsilon algorithm; returns (n, result, abserr, nres)."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 0.5e1 * _EPMACH * abs(result)), nres
    limexp = 50
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = n
    k1 = n
    for i in range(1, newelm + 1):
        k2 = k1 - 1
        k3 = k1 - 2
        res = epstab[k1 + 2]
        e0 = epstab[k3]
        e1 = epstab[k2]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 are equal to within machine accuracy
            result = res
            abserr = err2 + err3
            return n, result, max(abserr, 0.5e1 * _EPMACH * abs(result)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 0.1e1 / delta1 + 0.1e1 / delta2 - 0.1e1 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 0.1e-3:
            n = i + i - 1
            break
        res = e1 + 0.1e1 / ss
        epstab[k1] = res
        k1 = k1 - 2
        error = err2 + abs(res - e2) + err3
        if error > abserr:
            continue
        abserr = error
        result = res
    # shift the table
    if n == limexp:
        n = 2 * (limexp // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        ib2 = ib + 2
        epstab[ib] = epstab[ib2]
        ib = ib2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx += 1
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
        res3la[1] = res3la[2]
        res3la[2] = res3la[3]
        res3la[3] = result
    return n, result, max(abserr, 0.5e1 * _EPMACH * abs(result)), nres


def _ratio(x, y):
    """x / y with IEEE semantics for y == 0."""
    try:
        return x / y
    except ZeroDivisionError:
        if x == 0.0 or math.isnan(x):
            return math.nan
        return math.copysign(math.inf, x) * math.copysign(1.0, y)


def _qagse(f, a, b, epsabs, epsrel, limit):
    """DQAGSE; returns (result, abserr, ier) with QUADPACK's ier."""
    ier = 0
    result = 0.0
    abserr = 0.0
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    alist[1] = a
    blist[1] = b
    if epsabs <= 0.0 and epsrel < max(0.5e2 * _EPMACH, 0.5e-28):
        return result, abserr, 6

    # first approximation to the integral
    ierro = 0
    result, abserr, defabs, resabs = _qk21(f, a, b)

    # test on accuracy
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    last = 1
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    if abserr <= 1.0e2 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, ier

    # initialization
    rlist2 = [0.0] * 53
    res3la = [0.0] * 4
    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0
    ksgn = -1
    if dres >= (0.1e1 - 0.5e2 * _EPMACH) * defabs:
        ksgn = 1

    converged = False       # errsum <= errbnd: go to 115
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, resabs, defab1 = _qk21(f, a1, b1)
        area2, error2, resabs, defab2 = _qk21(f, a2, b2)

        # improve previous approximations to integral and error and test for accuracy
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 0.1e-4 * abs(area12)
                    or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))

        # test for roundoff error and eventually set error flag
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        # the number of subintervals equals limit
        if last == limit:
            ier = 1
        # bad integrand behaviour at a point of the integration range
        if max(abs(a1), abs(b2)) <= (0.1e1 + 0.1e3 * _EPMACH) * (abs(a2) + 0.1e4 * _UFLOW):
            ier = 4

        # append the newly-created intervals to the list
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2

        # maintain the descending ordering of error estimates and select
        # the subinterval to be bisected next
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            converged = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # is the interval to be bisected next the smallest interval?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # the smallest interval has the largest error: before bisecting,
            # decrease the sum of the errors over the larger intervals
            # (erlarg) and perform extrapolation
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue

        # perform extrapolation
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 0.1e-2 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break

        # prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # set final result and error estimate: sum the subintervals (label 115
    # of DQAGSE), test the extrapolated result for divergence (110) or keep it
    if converged or abserr == _OFLOW:
        final = "sum"
    elif ier + ierro == 0:
        final = "divergence"
    else:
        if ierro == 3:
            abserr = abserr + correc
        if ier == 0:
            ier = 3
        if result != 0.0 and area != 0.0:
            final = "sum" if abserr / abs(result) > errsum / abs(area) else "divergence"
        elif abserr > errsum:
            final = "sum"
        elif area == 0.0:
            final = "keep"
        else:
            final = "divergence"
    if final == "divergence":
        if not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.1e-1):
            q = _ratio(result, area)
            if 0.1e-1 > q or q > 0.1e3 or errsum > abs(area):
                ier = 6
    elif final == "sum":
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    if ier > 2:
        ier -= 1
    return result, abserr, ier


def cubic_spline(x, y):
    """The not-a-knot cubic spline through (x[i], y[i]), as a function of one float.

    ``x`` holds n >= 4 strictly increasing floats and ``y`` as many finite
    floats.  Beyond the ends the spline extrapolates the end cubics.
    Raises ValueError for fewer than 4 samples or ``x`` not increasing.
    """
    n = len(x)
    if n < 4 or len(y) != n:
        raise ValueError(f"need n >= 4 samples and as many values, got {n} and {len(y)}")
    x = [float(v) for v in x]
    y = [float(v) for v in y]
    dx = [x[i + 1] - x[i] for i in range(n - 1)]
    if not all(h > 0.0 for h in dx):
        raise ValueError("`x` must be strictly increasing sequence.")
    slope = [(y[i + 1] - y[i]) / dx[i] for i in range(n - 1)]

    # CubicSpline.__init__: slopes s[i] solve the tridiagonal system with
    # sub-diagonal dl, diagonal d, super-diagonal du and right-hand side b;
    # rows 0 and n-1 are the not-a-knot conditions
    lo, hi = x[2] - x[0], x[-1] - x[-3]
    dl = dx[1:] + [hi]
    d = [dx[1]] + [2 * (dx[i - 1] + dx[i]) for i in range(1, n - 1)] + [dx[-2]]
    du = [lo] + dx[:-1]
    b = (
        [((dx[0] + 2 * lo) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / lo]
        + [3 * (dx[i] * slope[i - 1] + dx[i - 1] * slope[i]) for i in range(1, n - 1)]
        + [(dx[-1] ** 2 * slope[-2] + (2 * hi + dx[-1]) * dx[-2] * slope[-1]) / hi]
    )
    s = _gtsv(dl, d, du, b)

    # CubicHermiteSpline: row i holds the power coefficients of interval i,
    # highest first
    coef = []
    for i in range(n - 1):
        t = (s[i] + s[i + 1] - 2 * slope[i]) / dx[i]
        coef.append((t / dx[i], (slope[i] - s[i]) / dx[i] - t, s[i], y[i]))
    last = n - 2

    def spline(xv):
        # PPoly's find_interval (x[i] <= xv < x[i+1], the end intervals
        # extended outwards) and evaluate_poly1
        i = min(max(bisect_right(x, xv) - 1, 0), last)
        c0, c1, c2, c3 = coef[i]
        h = xv - x[i]
        hh = h * h
        return 0.0 + c3 + c2 * h + c1 * hh + c0 * (hh * h)

    return spline


def _gtsv(dl, d, du, b):
    """Reference LAPACK DGTSV for one right-hand side: Gaussian elimination
    with partial pivoting; the lists are overwritten and the solution is
    returned."""
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            # no row interchange
            if d[i] == 0.0:
                raise ValueError("singular matrix")
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            dl[i] = 0.0
        else:
            # interchange rows i and i+1; dl[i] becomes the second super-diagonal
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            temp = b[i]
            b[i] = b[i + 1]
            b[i + 1] = temp - fact * b[i + 1]
    if d[n - 1] == 0.0:
        raise ValueError("singular matrix")
    b[n - 1] = b[n - 1] / d[n - 1]
    b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return b


def linspace(start, stop, num, endpoint=True):
    """``num`` evenly spaced floats from start to stop, as ``np.linspace`` makes them.

    Point i is ``i*step + start`` with ``step = (stop - start)/div`` (div is
    num - 1, or num without the endpoint); the last point is ``stop`` itself
    when the endpoint is included and num > 1.  numpy's fallback for a step
    that underflows to zero, ``(i/div)*(stop - start) + start``, is kept.
    """
    start, stop = float(start), float(stop)
    delta = stop - start
    div = num - 1 if endpoint else num
    step = delta / div if div > 0 else 0.0
    if step != 0.0:
        out = [i * step + start for i in range(num)]
    else:   # a single point, or a step that underflows: numpy scales delta
        out = [i / max(div, 1) * delta + start for i in range(num)]
    if endpoint and num > 1:
        out[-1] = stop
    return out


def arange(start, stop, step):
    """The floats from start towards stop by step, as ``np.arange`` makes them.

    There are ceil((stop - start)/step) of them: start, start + step, and
    from the third on ``start + i*d`` with d = (start + step) - start.
    """
    start = float(start)
    n = max(math.ceil((stop - start) / step), 0)
    d = (start + step) - start
    return ([start, start + step] + [start + i * d for i in range(2, n)])[:n]


def solve_2x2(a11, a12, a21, a22, b1, b2):
    """(x1, x2) solving [[a11, a12], [a21, a22]] x = (b1, b2), or None if singular.

    LU with partial pivoting in reference LAPACK's DGETRF2 and DGETRS order,
    which is what ``np.linalg.solve`` computes on OpenBLAS's cores without
    FMA: the first of the largest first-column entries is the pivot, the
    other is scaled by the pivot's reciprocal (divided by the pivot when
    that is below DBL_MIN, where OpenBLAS's reciprocal would overflow), and
    the triangular solves divide by the diagonal.  An exactly zero pivot
    returns None, where DGESV reports a singular matrix.
    """
    if abs(a21) > abs(a11):
        a11, a12, a21, a22, b1, b2 = a21, a22, a11, a12, b2, b1
    if a11 == 0.0:
        return None
    l21 = a21 * (1.0 / a11) if abs(a11) >= _UFLOW else a21 / a11
    u22 = a22 - l21 * a12
    if u22 == 0.0:
        return None
    x2 = (b2 - b1 * l21) / u22
    return (b1 - x2 * a12) / a11, x2
