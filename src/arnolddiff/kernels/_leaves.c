/* Compiled leaves of the scalar kernels: alpha, _coeffs and tau_star; the
 * scattering flow's RKF78 integration: flow_orbit, a whole orbit of
 * ode._integrate; and the pseudo-orbit builder's loops: jump_run,
 * iterations of diffusion.build_pseudo_orbit, and probe_sweep,
 * inner.ergodize's probe loop.
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
 *
 * flow_orbit translates ode._integrate on pure.flow_rhs: its step is
 * ode.rkf78_step, whose right-hand side is lstar_grad's lines on
 * c_tau_star and coeffs_of and whose stage sums are the file rkf78_step.h,
 * which ode.c_step_source emits from the Fehlberg tableau at build time
 * (kernels/__init__.py), so the tableau, its summation order and the
 * step-size constants exist once; around it, _integrate's step-size
 * control, _error_norm, Section.crossed, _land's choice of end and one
 * _henon_step of the landing system (the emitted step in five
 * dimensions), with the recording of the Python loop and its
 * MaxStepsExceeded and StepSizeUnderflow.  It raises nothing else: where
 * its inputs, a stage or a landing leave the fast path it returns None,
 * and the Python loop runs instead (scattering.flow_rhs, ode._integrate).
 *
 * jump_run translates build_pseudo_orbit's loop body: the final-ball, ball
 * and guard tests, _window_for, _jump_data (lstar_grad's lines, shared with
 * flow_rhs, then psi), inner.in_window with Python's float %, the jump,
 * ActionPath.distance_to (c_path_distance: pure.path_distance over a
 * segment table of exact floats, the builder's only compiled distance) and
 * the tracking check, appending one PseudoStep per jump.  It raises nothing
 * of the builder's: it returns with a rotation wait's u and window after
 * that iteration's window test, and before any iteration that moves to the
 * next ball, ends the orbit, raises Stuck, exhausts the budget or meets a
 * solve that raises, which the Python loop then runs itself.  probe_sweep
 * translates ergodize's `while t < t_bound` loop (melnikov.psi with the
 * chained guess, then in_window) and returns None where a solve raises, so
 * that the Python sweep reruns and raises it.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

#define X_OVERFLOW 700.0
#define EXACT_INT (1LL << 53)

static double SINH_HALF_PI;            /* pure.SINH_HALF_PI */
static PyObject *py_alpha, *py_coeffs, *py_tau_star;   /* the Python leaves */
static PyObject *NotHorizontal, *NoConvergence;        /* pure's error classes */
static PyObject *MaxStepsExceeded, *StepSizeUnderflow; /* ode's */
static PyObject *S_KIND, *ZERO;        /* a jump's PseudoStep kind "S" and its dt 0.0 */

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

/* An exact int that fits a long long; 0 otherwise, with no exception set. */
static int
as_count(PyObject *o, long long *n)
{
    int overflow;
    if (o == NULL || !PyLong_CheckExact(o))
        return 0;
    *n = PyLong_AsLongLongAndOverflow(o, &overflow);
    return !overflow;
}

/* The branch j: an exact int of magnitude <= 2**53; 0 otherwise, with no
 * exception set. */
static int
as_branch(PyObject *o, long long *j)
{
    return as_count(o, j) && -EXACT_INT <= *j && *j <= EXACT_INT;
}

/* What a solve raised, if anything: c_tau_star's result, which
 * raise_status turns into pure.py's exception and the compiled orbit into
 * a None return. */
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

/* alpha(w) given x = pi*w/2 and sh = sinh(x), which is read only where
 * pure.alpha calls sinh: w != 0 and 0.1 <= |x| <= X_OVERFLOW. */
static double
alpha_of(double w, double x, double sh)
{
    if (w == 0.0)
        return 0.0;
    if (fabs(x) > X_OVERFLOW)
        return 0.0;
    if (fabs(x) < 0.1) {
        double x2 = x * x;
        double s = 1.0 - x2 / 6.0 + 7.0 * x2 * x2 / 360.0 - 31.0 * x2 * x2 * x2 / 15120.0;
        return (2.0 / M_PI) * w * SINH_HALF_PI * s;
    }
    return w * w * SINH_HALF_PI / sh;
}

static double
c_alpha(double w)
{
    double x = 0.5 * M_PI * w;
    int series = w == 0.0 || fabs(x) > X_OVERFLOW || fabs(x) < 0.1;
    return alpha_of(w, x, series ? 0.0 : sinh(x));
}

/* _coeffs(w, a) given x = pi*w/2 and sh = sinh(x), read where |x| <= X_OVERFLOW. */
static void
coeffs_of(double w, double a, double x, double sh, double *A, double *dA)
{
    if (fabs(x) > X_OVERFLOW) {
        *A = 0.0;
        *dA = 0.0;
        return;
    }
    double num;
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

static void
c_coeffs(double w, double a, double *A, double *dA)
{
    double x = 0.5 * M_PI * w;
    coeffs_of(w, a, x, fabs(x) > X_OVERFLOW ? 0.0 : sinh(x), A, dA);
}

/* tau_star's solve with b_i = mu_i * alpha(w_i) given: SOLVED, or the
 * status of what pure.tau_star raises.  sin_out receives sin(t_i - tau*w_i)
 * at the returned tau, which both returns below have just taken. */
static int
c_tau_star(int odd, double j, double w1, double w2, double b1, double b2,
           double t1, double t2, double tol, const double *guess,
           double *tau_out, double *g_out, long *it_out, double *sin_out)
{
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
        if (fabs(g) <= tol)
            goto solved;
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
solved:
    *tau_out = tau;
    *g_out = g;
    *it_out = it;
    sin_out[0] = s1;
    sin_out[1] = s2;
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
    double v[6], tol = 1e-14, guess, tau, g, sins[2];
    long long j;
    long it;

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
    if (!as_branch(args[0], &j))
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
    int status = c_tau_star(j % 2 != 0, (double)j, v[0], v[1], v[2] * c_alpha(v[0]),
                            v[3] * c_alpha(v[1]), v[4], v[5], tol,
                            guess_o == Py_None ? NULL : &guess, &tau, &g, &it, sins);
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

/* The arguments j, a1, a2, a3, om1, om2 as a flow; 0 where they leave the
 * fast path (as_branch's and as_double's) or a3 == 0. */
static int
parse_flow(PyObject *const *args, struct flow *p)
{
    double a3;
    long long j;
    if (!as_branch(args[0], &j) || !as_double(args[1], &p->a1) || !as_double(args[2], &p->a2)
            || !as_double(args[3], &a3) || !as_double(args[4], &p->om1)
            || !as_double(args[5], &p->om2) || a3 == 0.0)
        return 0;
    p->odd = j % 2 != 0;
    p->j = (double)j;
    p->mu1 = p->a1 / a3;
    p->mu2 = p->a2 / a3;
    return 1;
}

/* pure.lstar_grad(j, a1, a2, a3, om1, om2, *y) with no guess, from the solve
 * on: tau* and d = (dI1, dI2, dth1, dth2); L itself is not formed (a cos of
 * the finite tau* cannot raise).  Each sinh(pi*w_i/2) is taken once for
 * alpha and _coeffs, and sin(psi_i) is the solve's own (tau*w_i ==
 * w_i*tau).  0 where pure.py raises, which is in the solve only: a solved
 * tau is one at which c_tau_star took sin(t_i - tau*w_i), so ps1 and ps2
 * below are finite and their cos raises nothing in Python. */
static int
lstar_grad(const struct flow *p, const double *y, double *tau, double *d)
{
    double w1 = p->om1 * y[0];
    double w2 = p->om2 * y[1];
    double x1 = 0.5 * M_PI * w1, x2 = 0.5 * M_PI * w2;
    double sh1 = fabs(x1) > X_OVERFLOW ? 0.0 : sinh(x1);
    double sh2 = fabs(x2) > X_OVERFLOW ? 0.0 : sinh(x2);
    double g, A1, dA1, A2, dA2, s[2];
    long it;
    if (c_tau_star(p->odd, p->j, w1, w2, p->mu1 * alpha_of(w1, x1, sh1),
                   p->mu2 * alpha_of(w2, x2, sh2), y[2], y[3], 1e-14, NULL,
                   tau, &g, &it, s) != SOLVED)
        return 0;
    double ps1 = y[2] - w1 * *tau;
    double ps2 = y[3] - w2 * *tau;
    coeffs_of(w1, p->a1, x1, sh1, &A1, &dA1);
    coeffs_of(w2, p->a2, x2, sh2, &A2, &dA2);
    double c1 = cos(ps1), c2 = cos(ps2);
    d[0] = p->om1 * (dA1 * c1 + *tau * A1 * s[0]);
    d[1] = p->om2 * (dA2 * c2 + *tau * A2 * s[1]);
    d[2] = -A1 * s[0];
    d[3] = -A2 * s[1];
    return 1;
}

/* pure.flow_rhs(j, a1, a2, a3, om1, om2, *y)[:4]: lstar_grad's partials as
 * (dth1, dth2, -dI1, -dI2); 0 where the solve raises. */
static int
flow_rhs(const void *ctx, const double *y, double *dy)
{
    double tau, d[4];
    if (!lstar_grad(ctx, y, &tau, d))
        return 0;
    dy[0] = d[2];
    dy[1] = d[3];
    dy[2] = -d[0];
    dy[3] = -d[1];
    return 1;
}

/* ode._henon_step's landing system for the section y[k] = const: the
 * state (y, t) in s = y[k], d(y, t)/ds = (f, 1) / f_k, with IEEE's
 * division by a signed zero as the Python g spells it. */
struct henon {
    const struct flow *flow;
    int k;
};

static int
henon_rhs(const void *ctx, const double *z, double *dz)
{
    const struct henon *q = ctx;
    double dy[4];
    if (!flow_rhs(q->flow, z, dy))
        return 0;
    double fk = dy[q->k];
    if (fk == 0.0) {
        double inv = copysign(INFINITY, fk);
        for (int c = 0; c < 4; c++)
            dz[c] = dy[c] * inv;
        dz[4] = inv;
    }
    else {
        for (int c = 0; c < 4; c++)
            dz[c] = dy[c] / fk;
        dz[4] = 1.0 / fk;
    }
    return 1;
}

typedef int (*rkf78_rhs_fn)(const void *ctx, const double *y, double *dy);
#define RKF78_MAX_DIM 5

/* rkf78_step(rhs, ctx, n, y, h, y8, err) and the RKF78_* step-size
 * constants, written by ode.c_step_source from the tableau when the leaves
 * are built. */
#include "rkf78_step.h"

/* What ode._integrate reads of its cfg, section and record arguments. */
struct run {
    double atol, rtol, h_init, h_min, h_max;
    long long max_steps, max_crossings;
    int record;
    int k;                      /* the section's component; -1 for no section */
    double value, direction;
};

/* obj.name through as_double; 0, with no exception set, where the Python
 * loop must read it instead. */
static int
attr_double(PyObject *obj, const char *name, double *x)
{
    PyObject *v = PyObject_GetAttrString(obj, name);
    if (v == NULL) {
        PyErr_Clear();
        return 0;
    }
    int ok = as_double(v, x);
    Py_DECREF(v);
    return ok;
}

static int
parse_run(PyObject *cfg, PyObject *record, PyObject *section, PyObject *max_crossings,
          struct run *r)
{
    long long k;
    int ok;
    if (!attr_double(cfg, "abs_tol", &r->atol) || !attr_double(cfg, "rel_tol", &r->rtol)
            || !attr_double(cfg, "h_init", &r->h_init) || !attr_double(cfg, "h_min", &r->h_min)
            || !attr_double(cfg, "h_max", &r->h_max) || !PyBool_Check(record))
        return 0;
    PyObject *steps = PyObject_GetAttrString(cfg, "max_steps");
    ok = as_count(steps, &r->max_steps);
    Py_XDECREF(steps);
    PyErr_Clear();
    if (!ok)
        return 0;
    r->record = record == Py_True;
    r->k = -1;
    if (section == Py_None)
        return 1;
    PyObject *component = PyObject_GetAttrString(section, "component");
    ok = as_count(component, &k) && 0 <= k && k < 4;
    Py_XDECREF(component);
    PyErr_Clear();
    if (!ok)
        return 0;
    r->k = (int)k;
    return as_count(max_crossings, &r->max_crossings)
        && attr_double(section, "value", &r->value)
        && attr_double(section, "direction", &r->direction);
}

/* ode._error_norm over n components; 0 where Python divides by zero. */
static int
error_norm(const double *err, const double *y0, const double *y1, int n, const struct run *r,
           double *out)
{
    double worst = 0.0;
    for (int c = 0; c < n; c++) {
        double a = fabs(y0[c]), b = fabs(y1[c]);
        double den = r->atol + r->rtol * (a > b ? a : b);
        if (den == 0.0)
            return 0;
        double q = fabs(err[c]) / den;
        if (q != q || a != a) {
            *out = Py_NAN;
            return 1;
        }
        if (q > worst)
            worst = q;
    }
    *out = worst;
    return 1;
}

/* Section.crossed(y0, y1) */
static int
crossed(const struct run *r, const double *y0, const double *y1)
{
    double g0 = y0[r->k] - r->value;
    double g1 = y1[r->k] - r->value;
    if (g0 == 0.0 || g0 * g1 > 0.0)
        return 0;
    return r->direction == 0.0 || (g0 < 0.0) == (r->direction > 0.0);
}

enum { HIT, MISS, DEFER };

/* ode._henon_step from (t, y): HIT with (*t_hit, y_hit); MISS where it
 * returns None for a non-finite landing; DEFER where Python must decide
 * (a stage that raises, a failed error check and so the adaptive
 * integration in s). */
static int
henon_step(const struct flow *p, const struct run *r, double t, const double *y,
           double *t_hit, double *y_hit)
{
    struct henon q = {p, r->k};
    double z[5] = {y[0], y[1], y[2], y[3], t}, z_hit[5], err[5], enorm;
    if (!rkf78_step(henon_rhs, &q, 5, z, r->value - y[r->k], z_hit, err)
            || !error_norm(err, z, z_hit, 5, r, &enorm) || !(enorm <= 1.0))
        return DEFER;
    for (int c = 0; c < 5; c++)
        if (!isfinite(z_hit[c]))
            return MISS;
    for (int c = 0; c < 4; c++)
        y_hit[c] = z_hit[c];
    y_hit[r->k] = r->value;
    *t_hit = z_hit[4];
    return HIT;
}

/* ode._land on the accepted step (t0, y0) -> (t1, y1): 1 with the landing
 * (*t_hit, y_hit), 0 where Python must land (henon_step's DEFER, a
 * right-hand side that raises at an end, or a step to be halved). */
static int
land(const struct flow *p, const struct run *r, double t0, const double *y0, double t1,
     const double *y1, double *t_hit, double *y_hit)
{
    int k = r->k;
    if (y1[k] == r->value) {
        *t_hit = t1;
        memcpy(y_hit, y1, 4 * sizeof(double));
        return 1;
    }
    double ts[2] = {t1, t0};
    const double *ys[2] = {y1, y0};
    if (fabs(y0[k] - r->value) < fabs(y1[k] - r->value)) {
        ts[0] = t0, ts[1] = t1;
        ys[0] = y0, ys[1] = y1;
    }
    double rate = (y1[k] - y0[k]) * (t1 - t0);
    for (int e = 0; e < 2; e++) {
        double dy[4];
        if (!flow_rhs(p, ys[e], dy))
            return 0;
        if (dy[k] * rate > 0.0) {
            int hit = henon_step(p, r, ts[e], ys[e], t_hit, y_hit);
            if (hit == DEFER)
                return 0;
            if (hit == HIT && py_min(t0, t1) <= *t_hit && *t_hit <= py_max(t0, t1))
                return 1;
        }
    }
    return 0;
}

/* A new list or tuple of n floats. */
static PyObject *
float_row(const double *y, int n, int tuple)
{
    PyObject *row = tuple ? PyTuple_New(n) : PyList_New(n);
    if (row == NULL)
        return NULL;
    for (int c = 0; c < n; c++) {
        PyObject *v = PyFloat_FromDouble(y[c]);
        if (v == NULL) {
            Py_DECREF(row);
            return NULL;
        }
        if (tuple)
            PyTuple_SET_ITEM(row, c, v);
        else
            PyList_SET_ITEM(row, c, v);
    }
    return row;
}

/* list.append(item), stealing item; -1 on failure. */
static int
append(PyObject *list, PyObject *item)
{
    if (item == NULL)
        return -1;
    int rc = PyList_Append(list, item);
    Py_DECREF(item);
    return rc;
}

/* ode._integrate(f, y, t0, t1, ...) on the flow, line for line: a tuple
 * (ts, ys, n_accepted, n_rejected, crossings), NULL with
 * MaxStepsExceeded or StepSizeUnderflow set as _integrate raises them, or
 * None where the Python loop must run the orbit (a stage that raises, a
 * landing that land() leaves to Python). */
static PyObject *
c_integrate(const struct flow *p, const struct run *r, double t0, double t1, double *y)
{
    double direction = t1 > t0 ? 1.0 : -1.0;
    double t = t0, t_prev, enorm;
    double h = direction * py_min(py_min(r->h_init, r->h_max), fabs(t1 - t0));
    double y_new[4], y_prev[4], err[4];
    long long attempts = 0, n_acc = 0, n_rej = 0, n_cross = 0;
    PyObject *ts = PyList_New(0), *ys = PyList_New(0), *crossings = PyList_New(0);
    PyObject *landing = NULL;     /* the landing row that ends the orbit */

    if (ts == NULL || ys == NULL || crossings == NULL
            || append(ts, PyFloat_FromDouble(t0)) < 0 || append(ys, float_row(y, 4, 0)) < 0)
        goto fail;
    while ((t1 - t) * direction > 0.0) {
        if (++attempts > r->max_steps) {
            PyObject *at = PyFloat_FromDouble(t);
            if (at != NULL)
                PyErr_Format(MaxStepsExceeded, "exceeded %lld step attempts at t=%R",
                             r->max_steps, at);
            Py_XDECREF(at);
            goto fail;
        }
        int clipped = fabs(h) >= fabs(t1 - t);
        if (clipped)
            h = t1 - t;
        if (!rkf78_step(flow_rhs, p, 4, y, h, y_new, err)
                || !error_norm(err, y, y_new, 4, r, &enorm))
            goto defer;
        if (enorm <= 1.0) {
            t_prev = t;
            memcpy(y_prev, y, sizeof y_prev);
            /* a step clipped to the span end lands on it exactly */
            t = clipped ? t1 : t + h;
            memcpy(y, y_new, sizeof y_new);
            n_acc++;
            if (r->record && (append(ts, PyFloat_FromDouble(t)) < 0
                              || append(ys, float_row(y, 4, 0)) < 0))
                goto fail;
            if (r->k >= 0 && crossed(r, y_prev, y)) {
                double t_hit, y_hit[4];
                if (!land(p, r, t_prev, y_prev, t, y, &t_hit, y_hit))
                    goto defer;
                PyObject *row = float_row(y_hit, 4, 1);
                if (row == NULL || append(crossings, Py_BuildValue("(dO)", t_hit, row)) < 0) {
                    Py_XDECREF(row);
                    goto fail;
                }
                if (++n_cross == r->max_crossings) {
                    t = t_hit;
                    landing = row;
                    if (r->record) {
                        Py_ssize_t last = PyList_GET_SIZE(ts) - 1;
                        PyObject *at = PyFloat_FromDouble(t);
                        if (at == NULL || PyList_SetItem(ts, last, at) < 0)
                            goto fail;
                        Py_INCREF(landing);   /* SetItem steals it */
                        if (PyList_SetItem(ys, last, landing) < 0)
                            goto fail;
                    }
                    break;
                }
                Py_DECREF(row);
            }
            double factor = enorm == 0.0 ? RKF78_GROW : py_min(
                RKF78_GROW, py_max(RKF78_SHRINK, RKF78_SAFETY * pow(enorm, RKF78_ORDER_EXP)));
            h *= factor;
            if (fabs(h) > r->h_max)
                h = direction * r->h_max;
        }
        else {
            n_rej++;
            h *= py_max(RKF78_SHRINK, RKF78_SAFETY * pow(enorm, RKF78_ORDER_EXP));
        }
        if (fabs(h) < r->h_min && (t1 - t) * direction > 0.0) {
            /* f"step size {abs(h):.3e} below h_min at t={t}" */
            PyObject *size = PyFloat_FromDouble(fabs(h)), *at = PyFloat_FromDouble(t);
            PyObject *spec = PyUnicode_FromString(".3e"), *text = NULL;
            if (size != NULL && at != NULL && spec != NULL)
                text = PyObject_Format(size, spec);
            if (text != NULL)
                PyErr_Format(StepSizeUnderflow, "step size %U below h_min at t=%R", text, at);
            Py_XDECREF(size);
            Py_XDECREF(at);
            Py_XDECREF(spec);
            Py_XDECREF(text);
            goto fail;
        }
    }
    if (!r->record) {
        if (landing != NULL)
            Py_INCREF(landing);
        if (append(ts, PyFloat_FromDouble(t)) < 0
                || append(ys, landing != NULL ? landing : float_row(y, 4, 0)) < 0)
            goto fail;
    }
    Py_XDECREF(landing);
    return Py_BuildValue("(NNLLN)", ts, ys, n_acc, n_rej, crossings);

defer:
    Py_XDECREF(ts);
    Py_XDECREF(ys);
    Py_XDECREF(crossings);
    Py_RETURN_NONE;
fail:
    Py_XDECREF(ts);
    Py_XDECREF(ys);
    Py_XDECREF(crossings);
    Py_XDECREF(landing);
    return NULL;
}

/* flow_orbit(j, a1, a2, a3, om1, om2, y0, t0, t1, cfg, record, section,
 * max_crossings) -> (t, y, n_accepted, n_rejected, crossings), the fields
 * of the ode.Trajectory that ode._integrate returns for
 * scattering.flow_rhs(j, params) on the same arguments; or None where the
 * Python loop must run (an argument outside the fast path: parse_flow's,
 * y0 a list of four exact floats, as ode._integrate hands it, t0 and t1
 * exact floats, record a bool, cfg's fields and the section's through
 * as_double, max_steps, max_crossings and the component exact ints, the
 * component in 0..3; or c_integrate's None). */
static PyObject *
leaf_flow_orbit(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargsf,
                PyObject *kwnames)
{
    struct flow p;
    struct run r;
    double y[4];

    if (kwnames != NULL || PyVectorcall_NARGS(nargsf) != 13 || !parse_flow(args, &p)
            || !PyList_CheckExact(args[6]) || PyList_GET_SIZE(args[6]) != 4
            || !PyFloat_CheckExact(args[7]) || !PyFloat_CheckExact(args[8])
            || !parse_run(args[9], args[10], args[11], args[12], &r))
        Py_RETURN_NONE;
    for (int c = 0; c < 4; c++) {
        PyObject *v = PyList_GET_ITEM(args[6], c);
        if (!PyFloat_CheckExact(v))
            Py_RETURN_NONE;
        y[c] = PyFloat_AS_DOUBLE(v);
    }
    return c_integrate(&p, &r, PyFloat_AS_DOUBLE(args[7]), PyFloat_AS_DOUBLE(args[8]), y);
}

/* Whether segments is an ActionPath segment table the compiled scan takes:
 * a tuple of tuples of nine exact floats. */
static int
segments_ok(PyObject *segments)
{
    if (!PyTuple_CheckExact(segments))
        return 0;
    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(segments); i++) {
        PyObject *seg = PyTuple_GET_ITEM(segments, i);
        if (!PyTuple_CheckExact(seg) || PyTuple_GET_SIZE(seg) != 9)
            return 0;
        for (int k = 0; k < 9; k++)
            if (!PyFloat_CheckExact(PyTuple_GET_ITEM(seg, k)))
                return 0;
    }
    return 1;
}

/* pure.path_distance on a table that segments_ok accepts: every segment
 * (a0, a1, d0, d1, den, lo0, hi0, lo1, hi1), evaluated with the Python
 * leaf's expressions in its order.  The Python leaf's pruning skips only
 * segments whose residual cannot be below the best so far, so scanning
 * them all gives the same minimum, and scale (which only sets the pruning
 * margin) is not needed.  A NaN residual ends the scan with NaN, as in
 * Python: while scale bounds every |coordinate|, as ActionPath's does, no
 * segment that Python skips can have one. */
static double
c_path_distance(PyObject *segments, double p0, double p1)
{
    double best = Py_HUGE_VAL;
    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(segments); i++) {
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
            return Py_NAN;
        double r = r0 >= r1 ? r0 : r1;
        if (r < best)
            best = r;
    }
    return best;
}

#define TWO_PI (2.0 * M_PI)    /* model.TWO_PI */

/* Python's float x % m: fmod, then the remainder takes the sign of m, and a
 * zero remainder is a zero of m's sign. */
static double
py_mod(double x, double m)
{
    double r = fmod(x, m);
    if (r != 0.0) {
        if ((m < 0.0) != (r < 0.0))
            r += m;
    }
    else
        r = copysign(0.0, m);
    return r;
}

/* A window of inner.in_window: per angle an interval (lo, hi), or none. */
struct window {
    int on[2];
    double lo[2], hi[2];
};

/* inner.in_window(ps, window) */
static int
in_window(const double *ps, const struct window *w)
{
    for (int c = 0; c < 2; c++) {
        if (!w->on[c])
            continue;
        double m = w->lo[c] + py_mod(ps[c] - w->lo[c], TWO_PI);
        if (!(w->lo[c] < m && m < w->hi[c]))
            return 0;
    }
    return 1;
}

/* A window as ergodize reads it: a tuple of two entries, each None or a
 * tuple of two exact floats; 0 where the Python sweep must read it. */
static int
parse_window(PyObject *o, struct window *w)
{
    if (!PyTuple_CheckExact(o) || PyTuple_GET_SIZE(o) != 2)
        return 0;
    for (int c = 0; c < 2; c++) {
        PyObject *iv = PyTuple_GET_ITEM(o, c);
        w->on[c] = iv != Py_None;
        if (!w->on[c])
            continue;
        if (!PyTuple_CheckExact(iv) || PyTuple_GET_SIZE(iv) != 2
                || !PyFloat_CheckExact(PyTuple_GET_ITEM(iv, 0))
                || !PyFloat_CheckExact(PyTuple_GET_ITEM(iv, 1)))
            return 0;
        w->lo[c] = PyFloat_AS_DOUBLE(PyTuple_GET_ITEM(iv, 0));
        w->hi[c] = PyFloat_AS_DOUBLE(PyTuple_GET_ITEM(iv, 1));
    }
    return 1;
}

/* The window as a Python tuple: None or (lo, hi) per angle. */
static PyObject *
window_tuple(const struct window *w)
{
    PyObject *out = PyTuple_New(2);
    for (int c = 0; out != NULL && c < 2; c++) {
        PyObject *iv = w->on[c] ? Py_BuildValue("(dd)", w->lo[c], w->hi[c]) : Py_NewRef(Py_None);
        if (iv == NULL)
            Py_CLEAR(out);
        else
            PyTuple_SET_ITEM(out, c, iv);
    }
    return out;
}

/* o as n doubles: a tuple of n exact floats; 0 otherwise. */
static int
float_tuple(PyObject *o, int n, double *x)
{
    if (!PyTuple_CheckExact(o) || PyTuple_GET_SIZE(o) != n)
        return 0;
    for (int c = 0; c < n; c++) {
        PyObject *v = PyTuple_GET_ITEM(o, c);
        if (!PyFloat_CheckExact(v))
            return 0;
        x[c] = PyFloat_AS_DOUBLE(v);
    }
    return 1;
}

/* probe_sweep(j, w1, w2, mu1, mu2, state, guess, dt, t_bound, window):
 * inner.ergodize's `while t < t_bound` loop from t = 0 with the first
 * solve's tau* as the guess, line for line: per probe the candidate
 * (i1, i2, th1 + t*w1, th2 + t*w2), melnikov.psi's solve with the previous
 * probe's tau* as its guess, psi = theta - tau*w, and in_window.  Returns
 * (t, candidate, psi, probes), the fields of the ErgodizeResult at the
 * window entry; False where the loop ends at t_bound without one; None where
 * the Python sweep must run: an argument off the fast path (j an exact int
 * of magnitude <= 2**53, the numbers through as_double, state a tuple of
 * four exact floats, guess an exact float, the window parse_window's) or a
 * solve that raises, which the Python sweep then raises. */
static PyObject *
leaf_probe_sweep(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargsf,
                 PyObject *kwnames)
{
    double w1, w2, mu1, mu2, z[4], guess, dt, t_bound, tau, g, sins[2];
    long long j;
    long it;
    struct window win;

    if (kwnames != NULL || PyVectorcall_NARGS(nargsf) != 10 || !as_branch(args[0], &j)
            || !as_double(args[1], &w1) || !as_double(args[2], &w2)
            || !as_double(args[3], &mu1) || !as_double(args[4], &mu2)
            || !float_tuple(args[5], 4, z) || !PyFloat_CheckExact(args[6])
            || !as_double(args[7], &dt) || !as_double(args[8], &t_bound)
            || !parse_window(args[9], &win))
        Py_RETURN_NONE;
    guess = PyFloat_AS_DOUBLE(args[6]);
    double b1 = mu1 * c_alpha(w1), b2 = mu2 * c_alpha(w2);
    double t = 0.0;
    long long probes = 0;
    while (t < t_bound) {
        t += dt;
        double cand[4] = {z[0], z[1], z[2] + t * w1, z[3] + t * w2};
        if (c_tau_star(j % 2 != 0, (double)j, w1, w2, b1, b2, cand[2], cand[3], 1e-14, &guess,
                       &tau, &g, &it, sins) != SOLVED)
            Py_RETURN_NONE;
        double ps[2] = {cand[2] - tau * w1, cand[3] - tau * w2};
        probes++;
        if (in_window(ps, &win))
            return Py_BuildValue("(dNNL)", t, float_row(cand, 4, 1), float_row(ps, 2, 1),
                                 probes);
        guess = tau;
    }
    Py_RETURN_FALSE;
}

/* jump_run(j, a1, a2, a3, om1, om2, segments, end, delta, guard, eps, dead,
 * margin, z, target, last, left, steps, step): iterations of
 * diffusion.build_pseudo_orbit's loop from the state z, aiming at the ball
 * centre target (last: the final ball), line for line: the final-ball, ball
 * and guard tests, _window_for (dead = DEADBAND_FACTOR * delta, margin =
 * WINDOW_MARGIN), _jump_data (lstar_grad's lines, then psi), in_window, the
 * jump, ActionPath.distance_to on the segment table and the tracking
 * check; each jump appends step("S", z, 0.0, psi, dist) to steps.  It stops
 * before an iteration that Python must run itself (one that breaks at the
 * final ball, moves to the next ball or raises Stuck, the budget's end
 * after left iterations, a solve that raises) with wait None, and after the
 * window test of an iteration that needs a rotation wait with wait = (u,
 * window), that iteration counted as used.  Returns (z, jumps, used, wait);
 * None where an argument leaves the fast path (parse_flow's; the segment
 * table segments_ok's; end, target and z tuples of exact floats; the
 * numbers through as_double; last a bool, left an exact int, steps a
 * list). */
static PyObject *
leaf_jump_run(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargsf,
              PyObject *kwnames)
{
    struct flow p;
    struct window win;
    double end[2], target[2], z[4], delta, guard, eps, dead, margin, tau, d[4];
    long long left, used = 0, jumps = 0;

    if (kwnames != NULL || PyVectorcall_NARGS(nargsf) != 19 || !parse_flow(args, &p)
            || !segments_ok(args[6]) || !float_tuple(args[7], 2, end)
            || !as_double(args[8], &delta) || !as_double(args[9], &guard)
            || !as_double(args[10], &eps) || !as_double(args[11], &dead)
            || !as_double(args[12], &margin) || !float_tuple(args[13], 4, z)
            || !float_tuple(args[14], 2, target) || !PyBool_Check(args[15])
            || !as_count(args[16], &left) || !PyList_CheckExact(args[17]))
        Py_RETURN_NONE;
    PyObject *segments = args[6], *steps = args[17], *step = args[18], *wait = NULL;
    int last = args[15] == Py_True;
    const double amp[2] = {p.a1, p.a2};
    while (used < left) {
        if (py_max(fabs(z[0] - end[0]), fabs(z[1] - end[1])) <= delta && last)
            break;
        double u[2] = {target[0] - z[0], target[1] - z[1]};
        if (py_max(fabs(u[0]), fabs(u[1])) <= 0.5 * delta && !last)
            break;
        if (py_max(fabs(z[0]), fabs(z[1])) < guard)
            break;
        for (int c = 0; c < 2; c++) {
            win.on[c] = !(fabs(u[c]) <= dead);
            if ((u[c] > 0.0) == (amp[c] > 0.0)) {
                win.lo[c] = M_PI + margin;
                win.hi[c] = TWO_PI - margin;
            }
            else {
                win.lo[c] = margin;
                win.hi[c] = M_PI - margin;
            }
        }
        if (!lstar_grad(&p, z, &tau, d))
            break;
        double ps[2] = {z[2] - tau * (p.om1 * z[0]), z[3] - tau * (p.om2 * z[1])};
        if (!in_window(ps, &win)) {
            used++;
            wait = Py_BuildValue("((dd)N)", u[0], u[1], window_tuple(&win));
            if (wait == NULL)
                return NULL;
            break;
        }
        double jumped[4] = {z[0] + eps * d[2], z[1] + eps * d[3], z[2] - eps * d[0],
                            z[3] - eps * d[1]};
        double dist = c_path_distance(segments, jumped[0], jumped[1]);
        if (!(dist <= delta))
            break;
        PyObject *row[5] = {S_KIND, float_row(jumped, 4, 1), ZERO, float_row(ps, 2, 1),
                            PyFloat_FromDouble(dist)};
        PyObject *made = NULL;
        if (row[1] != NULL && row[3] != NULL && row[4] != NULL)
            made = PyObject_Vectorcall(step, row, 5, NULL);
        Py_XDECREF(row[1]);
        Py_XDECREF(row[3]);
        Py_XDECREF(row[4]);
        if (append(steps, made) < 0)
            return NULL;
        memcpy(z, jumped, sizeof jumped);
        jumps++;
        used++;
    }
    return Py_BuildValue("(NLLN)", float_row(z, 4, 1), jumps, used,
                         wait != NULL ? wait : Py_NewRef(Py_None));
}

static PyMethodDef leaves_methods[] = {
    {"alpha", (PyCFunction)(void (*)(void))leaf_alpha, METH_FASTCALL | METH_KEYWORDS,
     "Crest weight alpha(w); see kernels.pure.alpha."},
    {"_coeffs", (PyCFunction)(void (*)(void))leaf_coeffs, METH_FASTCALL | METH_KEYWORDS,
     "(A(w, a), dA/dw); see kernels.pure._coeffs."},
    {"tau_star", (PyCFunction)(void (*)(void))leaf_tau_star, METH_FASTCALL | METH_KEYWORDS,
     "tau_star(j, w1, w2, mu1, mu2, t1, t2, tol=1e-14, guess=None) -> (tau, g, iterations);"
     " see kernels.pure.tau_star."},
    {"flow_orbit", (PyCFunction)(void (*)(void))leaf_flow_orbit, METH_FASTCALL | METH_KEYWORDS,
     "flow_orbit(j, a1, a2, a3, om1, om2, y0, t0, t1, cfg, record, section, max_crossings)"
     " -> (t, y, n_accepted, n_rejected, crossings), or None where the Python loop must"
     " run; see scattering.flow_rhs."},
    {"jump_run", (PyCFunction)(void (*)(void))leaf_jump_run, METH_FASTCALL | METH_KEYWORDS,
     "jump_run(j, a1, a2, a3, om1, om2, segments, end, delta, guard, eps, dead, margin, z,"
     " target, last, left, steps, step) -> (z, jumps, used, wait), or None where the Python"
     " loop must run; see diffusion.build_pseudo_orbit."},
    {"probe_sweep", (PyCFunction)(void (*)(void))leaf_probe_sweep, METH_FASTCALL | METH_KEYWORDS,
     "probe_sweep(j, w1, w2, mu1, mu2, state, guess, dt, t_bound, window) -> (t, state, psi,"
     " probes), False without a window entry, or None where the Python sweep must run;"
     " see inner.ergodize."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef leaves_module = {
    PyModuleDef_HEAD_INIT, "arnolddiff.kernels._leaves",
    "Compiled alpha, _coeffs and tau_star, bit for bit with kernels.pure; the scattering"
    " flow's whole orbit flow_orbit; the pseudo-orbit builder's jump_run and ergodize's"
    " probe_sweep.", -1,
    leaves_methods,
    NULL, NULL, NULL, NULL,
};

/* The Python leaves, SINH_HALF_PI and the kernels' two error classes come
 * from kernels.pure, whose leaves must not have been rebound to this
 * module's functions yet; the integrator's two from arnolddiff.errors. */
PyMODINIT_FUNC
PyInit__leaves(void)
{
    PyObject *sh = NULL, *pure = NULL, *errors = PyImport_ImportModule("arnolddiff.errors");
    if (errors == NULL)
        return NULL;
    MaxStepsExceeded = PyObject_GetAttrString(errors, "MaxStepsExceeded");
    StepSizeUnderflow = PyObject_GetAttrString(errors, "StepSizeUnderflow");
    Py_DECREF(errors);
    pure = PyImport_ImportModule("arnolddiff.kernels.pure");
    if (pure == NULL)
        goto fail;
    sh = PyObject_GetAttrString(pure, "SINH_HALF_PI");
    py_alpha = PyObject_GetAttrString(pure, "alpha");
    py_coeffs = PyObject_GetAttrString(pure, "_coeffs");
    py_tau_star = PyObject_GetAttrString(pure, "tau_star");
    NotHorizontal = PyObject_GetAttrString(pure, "NotHorizontal");
    NoConvergence = PyObject_GetAttrString(pure, "NoConvergence");
    Py_DECREF(pure);
    if (sh == NULL || py_alpha == NULL || py_coeffs == NULL || py_tau_star == NULL
            || NotHorizontal == NULL || NoConvergence == NULL || MaxStepsExceeded == NULL
            || StepSizeUnderflow == NULL)
        goto fail;
    if (!PyFloat_CheckExact(sh) || !PyFunction_Check(py_alpha)
            || !PyFunction_Check(py_coeffs) || !PyFunction_Check(py_tau_star)
            || !PyExceptionClass_Check(NotHorizontal) || !PyExceptionClass_Check(NoConvergence)
            || !PyExceptionClass_Check(MaxStepsExceeded)
            || !PyExceptionClass_Check(StepSizeUnderflow)) {
        PyErr_SetString(PyExc_ImportError,
                        "kernels.pure or errors no longer holds what the leaves need");
        goto fail;
    }
    SINH_HALF_PI = PyFloat_AS_DOUBLE(sh);
    Py_CLEAR(sh);
    S_KIND = PyUnicode_InternFromString("S");
    ZERO = PyFloat_FromDouble(0.0);
    if (S_KIND == NULL || ZERO == NULL)
        goto fail;
    return PyModule_Create(&leaves_module);

fail:
    Py_CLEAR(sh);
    Py_CLEAR(S_KIND);
    Py_CLEAR(ZERO);
    Py_CLEAR(py_alpha);
    Py_CLEAR(py_coeffs);
    Py_CLEAR(py_tau_star);
    Py_CLEAR(NotHorizontal);
    Py_CLEAR(NoConvergence);
    Py_CLEAR(MaxStepsExceeded);
    Py_CLEAR(StepSizeUnderflow);
    return NULL;
}
