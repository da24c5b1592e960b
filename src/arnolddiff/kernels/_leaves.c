/* Compiled leaves of the scalar kernels: alpha, _coeffs, tau_star and
 * path_distance; and flow_step, one RKF78 step of the scattering flow.
 *
 * Each function is a line-for-line translation of its namesake in pure.py,
 * the specification: the same float operations in the same order (built
 * with -ffp-contract=off, so no fused multiply-add, and -fno-builtin, so
 * no libm call is folded at compile time or fused into sincos), the same
 * libm calls, Python's NaN behaviour of max/min, math's ValueError for
 * sin of an infinity, and the same exceptions and messages: pure.py's
 * NotHorizontal and NoConvergence, fetched from it at import.  Bits are
 * equal to pure.py's (tests/test_leaves.py).
 *
 * The fast path takes Python floats, ints of magnitude <= 2**53 (which
 * pure.py's arithmetic turns into the same doubles) and, for tau_star, the
 * tol and guess keywords.  Every other call (numpy scalars, an int guess,
 * bad arguments) goes to the Python leaf, which pure.py keeps, so types
 * and error messages stay those of the specification there too.
 * path_distance takes floats only: its point, its scale and every entry of
 * its segment table must be exact floats, or the Python leaf runs.
 *
 * flow_step runs ode.rkf78_step on pure.flow_rhs in C: the right-hand side
 * is lstar_grad's lines on c_tau_star and c_coeffs, and the stage sums are
 * the file rkf78_step.h, which ode.c_step_source emits from the Fehlberg
 * tableau at build time (kernels/__init__.py), so the tableau and its
 * summation order exist once.  Where its inputs or a stage leave the fast
 * path it returns None and the Python step redoes the step
 * (scattering.flow_rhs).
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

#define X_OVERFLOW 700.0
#define EXACT_INT (1LL << 53)

static double SINH_HALF_PI;            /* pure.SINH_HALF_PI */
static PyObject *py_alpha, *py_coeffs, *py_tau_star, *py_path_distance;   /* the Python leaves */
static PyObject *NotHorizontal, *NoConvergence;        /* pure's error classes */

/* Series of x*cosh(x) - sinh(x) = sum_k 2k x^(2k+1) / (2k+1)!, k >= 1. */
static const double DCOEF[8] = {
    1.0 / 3.0,
    1.0 / 30.0,
    1.0 / 840.0,
    1.0 / 45360.0,
    1.0 / 3991680.0,
    1.9270852604185938e-09,
    1.6059043836821613e-11,
    1.1221229687119662e-13,
};

/* o as the double pure.py's arithmetic would use; 0 (no exception set)
 * when the call must go to the Python leaf instead. */
static int
as_double(PyObject *o, double *x)
{
    if (PyFloat_CheckExact(o)) {
        *x = PyFloat_AS_DOUBLE(o);
        return 1;
    }
    if (PyLong_CheckExact(o)) {
        int overflow;
        long long v = PyLong_AsLongLongAndOverflow(o, &overflow);
        if (overflow || v > EXACT_INT || v < -EXACT_INT)
            return 0;
        *x = (double)v;
        return 1;
    }
    return 0;
}

/* What a solve raised, if anything: c_tau_star's result, which
 * raise_status turns into pure.py's exception and the fused step into a
 * deferral to the Python step. */
enum { SOLVED, NOT_HORIZONTAL, NO_CONVERGENCE, DOMAIN_ERROR };

static PyObject *
raise_status(int status)
{
    if (status == NOT_HORIZONTAL)
        PyErr_SetString(NotHorizontal, "crest is not a horizontal graph at this I");
    else if (status == NO_CONVERGENCE)
        PyErr_SetString(NoConvergence, "tau_star iteration failed to converge");
    else
        PyErr_SetString(PyExc_ValueError, "math domain error");
    return NULL;
}

/* math.sin; 0 where it raises ValueError, for an infinity. */
static int
py_sin(double x, double *r)
{
    if (isinf(x))
        return 0;
    *r = sin(x);
    return 1;
}

/* Python's max(a, b) and min(a, b): the first argument unless the second
 * compares strictly beyond it, so a NaN first argument is returned. */
static double py_max(double a, double b) { return b > a ? b : a; }
static double py_min(double a, double b) { return b < a ? b : a; }

static double
c_alpha(double w)
{
    if (w == 0.0)
        return 0.0;
    double x = 0.5 * M_PI * w;
    if (fabs(x) > X_OVERFLOW)
        return 0.0;
    if (fabs(x) < 0.1) {
        double x2 = x * x;
        double s = 1.0 - x2 / 6.0 + 7.0 * x2 * x2 / 360.0 - 31.0 * x2 * x2 * x2 / 15120.0;
        return (2.0 / M_PI) * w * SINH_HALF_PI * s;
    }
    return w * w * SINH_HALF_PI / sinh(x);
}

static void
c_coeffs(double w, double a, double *A, double *dA)
{
    double x = 0.5 * M_PI * w;
    if (fabs(x) > X_OVERFLOW) {
        *A = 0.0;
        *dA = 0.0;
        return;
    }
    double sh = sinh(x), num;
    if (fabs(x) < 1.0) {
        double x2 = x * x;
        if (fabs(x) < 0.1) {
            double s = 1.0 - x2 / 6.0 + 7.0 * x2 * x2 / 360.0 - 31.0 * x2 * x2 * x2 / 15120.0;
            *A = 4.0 * a * s;
        }
        else {
            *A = 2.0 * M_PI * w * a / sh;
        }
        double p = 0.0;
        for (int k = 7; k >= 0; k--)
            p = (p + DCOEF[k]) * x2;
        num = -p * x;
    }
    else {
        *A = 2.0 * M_PI * w * a / sh;
        num = sh - x * cosh(x);
    }
    double sh2 = sh * sh;
    *dA = sh2 == 0.0 ? 0.0 : 2.0 * M_PI * a * num / sh2;
}

/* tau_star's solve: SOLVED, or the status of what pure.tau_star raises. */
static int
c_tau_star(int odd, double j, double w1, double w2, double mu1, double mu2,
           double t1, double t2, double tol, const double *guess,
           double *tau_out, double *g_out, long *it_out)
{
    double b1 = mu1 * c_alpha(w1);
    double b2 = mu2 * c_alpha(w2);
    double smax = fabs(b1) + fabs(b2);
    if (smax >= 1.0)
        return NOT_HORIZONTAL;
    double kap = smax > 0.0 ? asin(smax) : 0.0;
    double sgn = odd ? 1.0 : -1.0;
    double pj = M_PI * j;
    double lo = -pj - kap - 1e-9;
    double hi = -pj + kap + 1e-9;
    double tau = (guess != NULL && lo < *guess && *guess < hi) ? *guess : 0.5 * (lo + hi);
    double s1, s2, x, g;
    long it = 0;
    for (it = 1; it < 121; it++) {
        double ps1 = t1 - tau * w1;
        double ps2 = t2 - tau * w2;
        if (!py_sin(ps1, &s1) || !py_sin(ps2, &s2))
            return DOMAIN_ERROR;
        x = b1 * s1 + b2 * s2;
        if (x > 1.0)
            x = 1.0;
        else if (x < -1.0)
            x = -1.0;
        g = tau + pj + sgn * asin(x);
        if (fabs(g) <= tol) {
            *tau_out = tau;
            *g_out = g;
            *it_out = it;
            return SOLVED;
        }
        if (g >= 0.0)
            hi = tau;
        else
            lo = tau;
        /* ps1 and ps2 are finite here: sin would have raised */
        double dx = -(b1 * w1 * cos(ps1) + b2 * w2 * cos(ps2));
        double den = sqrt(py_max(1.0 - x * x, 1e-30));
        double dg = 1.0 + sgn * dx / den;
        double cand = dg > 0.0 ? tau - g / dg : lo - 1.0;
        if (cand <= lo || cand >= hi)
            cand = 0.5 * (lo + hi);
        tau = cand;
        if (hi - lo < 1e-16 * (1.0 + fabs(tau)))
            break;
    }
    if (it == 121)
        it = 120;   /* range(1, 121) leaves its last value */
    if (!py_sin(t1 - tau * w1, &s1) || !py_sin(t2 - tau * w2, &s2))
        return DOMAIN_ERROR;
    x = b1 * s1 + b2 * s2;
    g = tau + pj + sgn * asin(py_min(py_max(x, -1.0), 1.0));
    if (!(fabs(g) <= 1e-10))   /* a NaN residual is no root either */
        return NO_CONVERGENCE;
    *tau_out = tau;
    *g_out = g;
    *it_out = it;
    return SOLVED;
}

static PyObject *
leaf_alpha(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargsf, PyObject *kwnames)
{
    double w;
    if (kwnames != NULL || PyVectorcall_NARGS(nargsf) != 1 || !as_double(args[0], &w))
        return PyObject_Vectorcall(py_alpha, args, nargsf, kwnames);
    return PyFloat_FromDouble(c_alpha(w));
}

static PyObject *
leaf_coeffs(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargsf, PyObject *kwnames)
{
    double w, a, A, dA;
    if (kwnames != NULL || PyVectorcall_NARGS(nargsf) != 2
            || !as_double(args[0], &w) || !as_double(args[1], &a))
        return PyObject_Vectorcall(py_coeffs, args, nargsf, kwnames);
    c_coeffs(w, a, &A, &dA);
    return Py_BuildValue("(dd)", A, dA);
}

static PyObject *
leaf_tau_star(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargsf, PyObject *kwnames)
{
    Py_ssize_t nargs = PyVectorcall_NARGS(nargsf);
    PyObject *tol_o = NULL, *guess_o = Py_None;
    double v[6], tol = 1e-14, guess, tau, g;
    long long j;
    long it;
    int overflow;

    if (nargs < 7 || nargs > 9)
        goto python;
    if (nargs > 7)
        tol_o = args[7];
    if (nargs > 8)
        guess_o = args[8];
    if (kwnames != NULL) {
        for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(kwnames); i++) {
            PyObject *name = PyTuple_GET_ITEM(kwnames, i);
            if (nargs < 8 && PyUnicode_CompareWithASCIIString(name, "tol") == 0)
                tol_o = args[nargs + i];
            else if (nargs < 9 && PyUnicode_CompareWithASCIIString(name, "guess") == 0)
                guess_o = args[nargs + i];
            else
                goto python;
        }
    }
    if (!PyLong_CheckExact(args[0]))
        goto python;
    j = PyLong_AsLongLongAndOverflow(args[0], &overflow);
    if (overflow || j > EXACT_INT || j < -EXACT_INT)
        goto python;
    for (int k = 0; k < 6; k++)
        if (!as_double(args[k + 1], &v[k]))
            goto python;
    if (tol_o != NULL && !as_double(tol_o, &tol))
        goto python;
    if (guess_o != Py_None) {
        if (!PyFloat_CheckExact(guess_o))
            goto python;   /* an int guess can come back as the int itself */
        guess = PyFloat_AS_DOUBLE(guess_o);
    }
    int status = c_tau_star(j % 2 != 0, (double)j, v[0], v[1], v[2], v[3], v[4], v[5], tol,
                            guess_o == Py_None ? NULL : &guess, &tau, &g, &it);
    if (status != SOLVED)
        return raise_status(status);
    return Py_BuildValue("(ddl)", tau, g, it);

python:
    return PyObject_Vectorcall(py_tau_star, args, nargsf, kwnames);
}

/* The scattering flow of one branch and one parameter set: the arguments of
 * pure.flow_rhs before the state, with mu_i = a_i / a3 divided once (a3 != 0). */
struct flow {
    int odd;
    double j, a1, a2, om1, om2, mu1, mu2;
};

#define RKF78_DIM 4

/* pure.flow_rhs(j, a1, a2, a3, om1, om2, *y)[:4], with no guess, through
 * lstar_grad's lines; L itself is not formed (a cos of the finite tau* cannot
 * raise).  0 where pure.py raises, which is in the solve only: a solved tau
 * is one at which c_tau_star took sin(t_i - tau*w_i), so ps1 and ps2 below
 * are finite and their sin and cos raise nothing in Python. */
static int
rkf78_rhs(const void *ctx, const double *y, double *dy)
{
    const struct flow *p = ctx;
    double w1 = p->om1 * y[0];
    double w2 = p->om2 * y[1];
    double tau, g, A1, dA1, A2, dA2;
    long it;
    if (c_tau_star(p->odd, p->j, w1, w2, p->mu1, p->mu2, y[2], y[3], 1e-14, NULL,
                   &tau, &g, &it) != SOLVED)
        return 0;
    double ps1 = y[2] - w1 * tau;
    double ps2 = y[3] - w2 * tau;
    c_coeffs(w1, p->a1, &A1, &dA1);
    c_coeffs(w2, p->a2, &A2, &dA2);
    double s1 = sin(ps1), s2 = sin(ps2), c1 = cos(ps1), c2 = cos(ps2);
    dy[0] = -A1 * s1;
    dy[1] = -A2 * s2;
    dy[2] = -(p->om1 * (dA1 * c1 + tau * A1 * s1));
    dy[3] = -(p->om2 * (dA2 * c2 + tau * A2 * s2));
    return 1;
}

/* rkf78_step(ctx, y, h, y8, err), written by ode.c_step_source from the
 * tableau when the leaves are built. */
#include "rkf78_step.h"

/* flow_step(j, a1, a2, a3, om1, om2, y, h) -> (y8, err): one
 * ode.rkf78_step of scattering.flow_rhs(j, params) from the state y (a list
 * or tuple of four numbers), in one call.  It never raises: it returns None
 * for an argument outside the fast path (as_double's; j an int of magnitude
 * <= 2**53), for a3 == 0, and at a stage where pure.py would raise, and its
 * caller then redoes the step in Python, which gives the same numbers or
 * raises. */
static PyObject *
leaf_flow_step(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargsf,
               PyObject *kwnames)
{
    struct flow p;
    double a3, h, y[RKF78_DIM], y8[RKF78_DIM], err[RKF78_DIM];
    long long j;
    int overflow;

    if (kwnames != NULL || PyVectorcall_NARGS(nargsf) != 8 || !PyLong_CheckExact(args[0]))
        Py_RETURN_NONE;
    j = PyLong_AsLongLongAndOverflow(args[0], &overflow);
    if (overflow || j > EXACT_INT || j < -EXACT_INT)
        Py_RETURN_NONE;
    if (!as_double(args[1], &p.a1) || !as_double(args[2], &p.a2) || !as_double(args[3], &a3)
            || !as_double(args[4], &p.om1) || !as_double(args[5], &p.om2)
            || !as_double(args[7], &h) || a3 == 0.0)
        Py_RETURN_NONE;
    PyObject *ys = args[6];
    if (!(PyList_CheckExact(ys) || PyTuple_CheckExact(ys))
            || PySequence_Fast_GET_SIZE(ys) != RKF78_DIM)
        Py_RETURN_NONE;
    for (int c = 0; c < RKF78_DIM; c++)
        if (!as_double(PySequence_Fast_GET_ITEM(ys, c), &y[c]))
            Py_RETURN_NONE;
    p.odd = j % 2 != 0;
    p.j = (double)j;
    p.mu1 = p.a1 / a3;
    p.mu2 = p.a2 / a3;
    if (!rkf78_step(&p, y, h, y8, err))
        Py_RETURN_NONE;
    return Py_BuildValue("([dddd][dddd])", y8[0], y8[1], y8[2], y8[3],
                         err[0], err[1], err[2], err[3]);
}

/* path_distance(segments, scale, p0, p1): every segment of the table
 * (a0, a1, d0, d1, den, lo0, hi0, lo1, hi1), evaluated with the Python
 * leaf's expressions in its order.  The Python leaf's pruning skips only
 * segments whose residual cannot be below the best so far, so scanning
 * them all gives the same minimum, and scale (which only sets the pruning
 * margin) is not read.  A NaN residual ends the scan with NaN, as in
 * Python: while scale bounds every |coordinate|, as ActionPath's does, no
 * segment that Python skips can have one. */
static PyObject *
leaf_path_distance(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargsf,
                   PyObject *kwnames)
{
    if (kwnames != NULL || PyVectorcall_NARGS(nargsf) != 4 || !PyTuple_CheckExact(args[0])
            || !PyFloat_CheckExact(args[1]) || !PyFloat_CheckExact(args[2])
            || !PyFloat_CheckExact(args[3]))
        goto python;
    PyObject *segments = args[0];
    Py_ssize_t n = PyTuple_GET_SIZE(segments);
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *seg = PyTuple_GET_ITEM(segments, i);
        if (!PyTuple_CheckExact(seg) || PyTuple_GET_SIZE(seg) != 9)
            goto python;
        for (int k = 0; k < 9; k++)
            if (!PyFloat_CheckExact(PyTuple_GET_ITEM(seg, k)))
                goto python;
    }
    double p0 = PyFloat_AS_DOUBLE(args[2]), p1 = PyFloat_AS_DOUBLE(args[3]);
    double best = Py_HUGE_VAL;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *seg = PyTuple_GET_ITEM(segments, i);
        double a0 = PyFloat_AS_DOUBLE(PyTuple_GET_ITEM(seg, 0));
        double a1 = PyFloat_AS_DOUBLE(PyTuple_GET_ITEM(seg, 1));
        double d0 = PyFloat_AS_DOUBLE(PyTuple_GET_ITEM(seg, 2));
        double d1 = PyFloat_AS_DOUBLE(PyTuple_GET_ITEM(seg, 3));
        double den = PyFloat_AS_DOUBLE(PyTuple_GET_ITEM(seg, 4));
        double u = 0.0;
        if (den != 0.0) {
            u = ((p0 - a0) * d0 + (p1 - a1) * d1) / den;
            if (u <= 0.0)
                u = 0.0;
            else if (u > 1.0)
                u = 1.0;
        }
        double r0 = fabs(p0 - (a0 + u * d0));
        double r1 = fabs(p1 - (a1 + u * d1));
        if (isnan(r0) || isnan(r1))
            return PyFloat_FromDouble(Py_NAN);
        double r = r0 >= r1 ? r0 : r1;
        if (r < best)
            best = r;
    }
    return PyFloat_FromDouble(best);

python:
    return PyObject_Vectorcall(py_path_distance, args, nargsf, kwnames);
}

static PyMethodDef leaves_methods[] = {
    {"alpha", (PyCFunction)(void (*)(void))leaf_alpha, METH_FASTCALL | METH_KEYWORDS,
     "Crest weight alpha(w); see kernels.pure.alpha."},
    {"_coeffs", (PyCFunction)(void (*)(void))leaf_coeffs, METH_FASTCALL | METH_KEYWORDS,
     "(A(w, a), dA/dw); see kernels.pure._coeffs."},
    {"tau_star", (PyCFunction)(void (*)(void))leaf_tau_star, METH_FASTCALL | METH_KEYWORDS,
     "tau_star(j, w1, w2, mu1, mu2, t1, t2, tol=1e-14, guess=None) -> (tau, g, iterations);"
     " see kernels.pure.tau_star."},
    {"path_distance", (PyCFunction)(void (*)(void))leaf_path_distance,
     METH_FASTCALL | METH_KEYWORDS,
     "path_distance(segments, scale, p0, p1) -> sup-norm distance to the segments;"
     " see kernels.pure.path_distance."},
    {"flow_step", (PyCFunction)(void (*)(void))leaf_flow_step, METH_FASTCALL | METH_KEYWORDS,
     "flow_step(j, a1, a2, a3, om1, om2, y, h) -> (y8, err), or None where the Python"
     " step must run; see scattering.flow_rhs."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef leaves_module = {
    PyModuleDef_HEAD_INIT, "arnolddiff.kernels._leaves",
    "Compiled alpha, _coeffs, tau_star and path_distance, bit for bit with kernels.pure,"
    " and the fused scattering-flow step flow_step.", -1, leaves_methods,
    NULL, NULL, NULL, NULL,
};

/* The Python leaves, SINH_HALF_PI and the two error classes come from
 * kernels.pure, whose leaves must not have been rebound to this module's
 * functions yet. */
PyMODINIT_FUNC
PyInit__leaves(void)
{
    PyObject *pure = PyImport_ImportModule("arnolddiff.kernels.pure");
    if (pure == NULL)
        return NULL;
    PyObject *sh = PyObject_GetAttrString(pure, "SINH_HALF_PI");
    py_alpha = PyObject_GetAttrString(pure, "alpha");
    py_coeffs = PyObject_GetAttrString(pure, "_coeffs");
    py_tau_star = PyObject_GetAttrString(pure, "tau_star");
    py_path_distance = PyObject_GetAttrString(pure, "path_distance");
    NotHorizontal = PyObject_GetAttrString(pure, "NotHorizontal");
    NoConvergence = PyObject_GetAttrString(pure, "NoConvergence");
    Py_DECREF(pure);
    if (sh == NULL || py_alpha == NULL || py_coeffs == NULL || py_tau_star == NULL
            || py_path_distance == NULL || NotHorizontal == NULL || NoConvergence == NULL)
        goto fail;
    if (!PyFloat_CheckExact(sh) || !PyFunction_Check(py_alpha)
            || !PyFunction_Check(py_coeffs) || !PyFunction_Check(py_tau_star)
            || !PyFunction_Check(py_path_distance)
            || !PyExceptionClass_Check(NotHorizontal) || !PyExceptionClass_Check(NoConvergence)) {
        PyErr_SetString(PyExc_ImportError, "kernels.pure no longer holds the Python leaves");
        goto fail;
    }
    SINH_HALF_PI = PyFloat_AS_DOUBLE(sh);
    Py_DECREF(sh);
    return PyModule_Create(&leaves_module);

fail:
    Py_XDECREF(sh);
    Py_CLEAR(py_alpha);
    Py_CLEAR(py_coeffs);
    Py_CLEAR(py_tau_star);
    Py_CLEAR(py_path_distance);
    Py_CLEAR(NotHorizontal);
    Py_CLEAR(NoConvergence);
    return NULL;
}
