/* Compiled leaves of the scalar kernels: alpha, _coeffs and tau_star.
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
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

#define X_OVERFLOW 700.0
#define EXACT_INT (1LL << 53)

static double SINH_HALF_PI;            /* pure.SINH_HALF_PI */
static PyObject *py_alpha, *py_coeffs, *py_tau_star;   /* the Python leaves */
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

/* math.sin: ValueError("math domain error") for an infinity. */
static int
py_sin(double x, double *r)
{
    if (isinf(x)) {
        PyErr_SetString(PyExc_ValueError, "math domain error");
        return 0;
    }
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

/* tau_star's solve; 0 with an exception set on failure. */
static int
c_tau_star(int odd, double j, double w1, double w2, double mu1, double mu2,
           double t1, double t2, double tol, const double *guess,
           double *tau_out, double *g_out, long *it_out)
{
    double b1 = mu1 * c_alpha(w1);
    double b2 = mu2 * c_alpha(w2);
    double smax = fabs(b1) + fabs(b2);
    if (smax >= 1.0) {
        PyErr_SetString(NotHorizontal, "crest is not a horizontal graph at this I");
        return 0;
    }
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
            return 0;
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
            return 1;
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
        return 0;
    x = b1 * s1 + b2 * s2;
    g = tau + pj + sgn * asin(py_min(py_max(x, -1.0), 1.0));
    if (!(fabs(g) <= 1e-10)) {   /* a NaN residual is no root either */
        PyErr_SetString(NoConvergence, "tau_star iteration failed to converge");
        return 0;
    }
    *tau_out = tau;
    *g_out = g;
    *it_out = it;
    return 1;
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
    if (!c_tau_star(j % 2 != 0, (double)j, v[0], v[1], v[2], v[3], v[4], v[5], tol,
                    guess_o == Py_None ? NULL : &guess, &tau, &g, &it))
        return NULL;
    return Py_BuildValue("(ddl)", tau, g, it);

python:
    return PyObject_Vectorcall(py_tau_star, args, nargsf, kwnames);
}

static PyMethodDef leaves_methods[] = {
    {"alpha", (PyCFunction)(void (*)(void))leaf_alpha, METH_FASTCALL | METH_KEYWORDS,
     "Crest weight alpha(w); see kernels.pure.alpha."},
    {"_coeffs", (PyCFunction)(void (*)(void))leaf_coeffs, METH_FASTCALL | METH_KEYWORDS,
     "(A(w, a), dA/dw); see kernels.pure._coeffs."},
    {"tau_star", (PyCFunction)(void (*)(void))leaf_tau_star, METH_FASTCALL | METH_KEYWORDS,
     "tau_star(j, w1, w2, mu1, mu2, t1, t2, tol=1e-14, guess=None) -> (tau, g, iterations);"
     " see kernels.pure.tau_star."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef leaves_module = {
    PyModuleDef_HEAD_INIT, "arnolddiff.kernels._leaves",
    "Compiled alpha, _coeffs and tau_star, bit for bit with kernels.pure.", -1, leaves_methods,
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
    NotHorizontal = PyObject_GetAttrString(pure, "NotHorizontal");
    NoConvergence = PyObject_GetAttrString(pure, "NoConvergence");
    Py_DECREF(pure);
    if (sh == NULL || py_alpha == NULL || py_coeffs == NULL || py_tau_star == NULL
            || NotHorizontal == NULL || NoConvergence == NULL)
        goto fail;
    if (!PyFloat_CheckExact(sh) || !PyFunction_Check(py_alpha)
            || !PyFunction_Check(py_coeffs) || !PyFunction_Check(py_tau_star)
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
    Py_CLEAR(NotHorizontal);
    Py_CLEAR(NoConvergence);
    return NULL;
}
