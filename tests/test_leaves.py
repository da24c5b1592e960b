"""The compiled leaves against the Python leaves they translate.

``kernels.PYTHON_LEAVES`` holds pure.py's ``alpha``, ``_coeffs`` and
``tau_star``, the specification; ``kernels._leaves`` holds the compiled
ones that ``pure`` is rebound to.  Every call below is made on both, the
reference with all of ``pure``'s leaves set back to Python, and must give
the same ``repr`` (bits, NaN, types and iteration counts) or raise the
same exception type with the same message.  The inputs reuse
``test_kernels_parity``'s grids and strategies and add the argument kinds
the fast path has to treat as pure.py does: ints, numpy scalars, negative
odd branches, ``guess`` and ``tol`` by position and by keyword, and calls
that Python rejects.  The path distance that ``kernels.jump_run`` scans in
C is compared as the ``dist`` of one jump that leaves the point where it
is, against ``pure.path_distance`` (Python under both backends) there, on
``ActionPath``'s segment tables: stairstepped paths, zero-length segments,
coordinates at and beyond the pruning limit, non-finite and subnormal
points, and the argument kinds that leave the run's fast path.  The
scattering flow's compiled orbit ``f.orbit`` is compared with
``ode._integrate``'s Python loop on the same ``f``: equal ``Trajectory``
reprs over both workloads' parameter sets, branches -2 to 2, both time
directions, sections on every component in every direction and up to six
landings; each path it leaves to the Python
loop (a halving landing, an adaptive landing, a stage that raises, an
argument off the fast path) gives the same result, and its own
MaxStepsExceeded and StepSizeUnderflow carry ``_integrate``'s messages.
Single RKF78 steps are compared as orbits of one step, and their error
estimates through the step that follows: on every branch from -3 to 3, int
and float parameters, steps of both signs from subnormal to 1e300,
non-finite and huge states, states outside the horizontal regime, and
states held in tuples, ndarrays or numpy and int components, which
``_integrate`` converts to a list of floats before the orbit sees them.
"""

import contextlib
import math
import shutil
import sys
import sysconfig

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arnolddiff import diffusion, highway, kernels, melnikov, ode, scattering
from arnolddiff.errors import (MaxStepsExceeded, NoConvergence, NotHorizontal,
                               StepSizeUnderflow)
from arnolddiff.kernels import pure
from arnolddiff.model import ModelParams
from arnolddiff.ode import IntegratorConfig, Section
from test_kernels_parity import ANGLES, J_GRID, W_GRID, _angle, _guess, _guesses, _w

LEAVES = tuple(kernels.PYTHON_LEAVES)
CC = sysconfig.get_config_var("CC")
HAVE_CC = bool(CC) and shutil.which(CC.split()[0]) is not None

pytestmark = pytest.mark.skipif(
    not HAVE_CC and kernels.BACKEND == "python",
    reason="no C compiler: the Python leaves are in use, nothing to compare",
)


def test_compiled_backend_whenever_a_compiler_exists():
    if HAVE_CC:
        assert kernels.BACKEND == "c"
    for name in LEAVES:
        assert getattr(pure, name) is getattr(kernels._leaves, name)
        assert getattr(pure, name) is not kernels.PYTHON_LEAVES[name]
    assert kernels.tau_star is kernels._leaves.tau_star
    assert kernels.flow_orbit is kernels._leaves.flow_orbit
    # the builder's distance is scanned inside jump_run; no leaf rebinds it
    assert not hasattr(kernels._leaves, "path_distance")
    assert pure.path_distance.__code__.co_filename == pure.__file__


@contextlib.contextmanager
def _python_leaves():
    saved = {name: getattr(pure, name) for name in LEAVES}
    for name, fn in kernels.PYTHON_LEAVES.items():
        setattr(pure, name, fn)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(pure, name, fn)


def _outcome(fn, *args, **kw):
    try:
        return repr(fn(*args, **kw))
    except Exception as exc:
        return type(exc), str(exc)


def _check(name, *args, **kw):
    """Compiled against Python for a leaf, or for a pure.py function that calls them."""
    if name in LEAVES:
        compiled = _outcome(getattr(kernels._leaves, name), *args, **kw)
        with _python_leaves():
            ref = _outcome(kernels.PYTHON_LEAVES[name], *args, **kw)
    else:
        compiled = _outcome(getattr(pure, name), *args, **kw)
        with _python_leaves():
            ref = _outcome(getattr(pure, name), *args, **kw)
    assert compiled == ref, f"{name}{args} {kw}: Python {ref}, compiled {compiled}"


NUMBERS = (0, 1, -2, 3, 445, 446, -(2**53), 2**53 + 1, 10**400, np.int64(2), np.float64(1.3),
           np.float64(0.0), np.float32(0.7), True)
AMPLITUDES = (0.3, -1.7, 0.0, 2, np.float64(0.3), 10**400)


def test_alpha_and_coeffs_on_grid():
    for w in (*W_GRID, math.inf, -math.inf, math.nan, *NUMBERS):
        _check("alpha", w)
        for a in AMPLITUDES + (math.inf, math.nan):
            _check("_coeffs", w, a)
            _check("coeff", w, a)
            _check("coeff_deriv", w, a)


def test_tau_star_on_grid():
    k = 0
    for w1 in W_GRID[::3]:
        for w2 in W_GRID[1::3]:
            for j in J_GRID:
                t1 = ANGLES[k % 5]
                t2 = ANGLES[(k // 5) % 5]
                guess = _guesses(j)[k % 5]
                k += 1
                _check("tau_star", j, w1, w2, 0.3, 0.1, t1, t2)
                _check("tau_star", j, w1, w2, 0.3, 0.1, t1, t2, 1e-14, guess)
                _check("tau_star", j, w1, w2, 0.3, 0.1, t1, t2, guess=guess)
                _check("tau_star", j, w1, w2, 0.3, 0.1, t1, t2, tol=1e-12, guess=guess)
                _check("flow_rhs", j, 0.3, 0.1, 1.0, 1.0, 1.0, w1, w2, t1, t2, guess=guess)


def test_tau_star_argument_kinds():
    base = (-3, 1.3, 0.7, 0.3, 0.1, 2.0, 4.0)
    c = math.pi * 3
    cases = [
        ((), {}),
        ((1e-14,), {}), ((1e-14, None), {}), ((1e-14, c), {}), ((1e-14, c + 0.1), {}),
        ((), {"guess": None}), ((), {"guess": c}), ((), {"guess": math.nan}),
        ((), {"guess": math.inf}), ((), {"tol": 0}), ((), {"tol": 1}), ((), {"tol": math.nan}),
        ((), {"tol": 1e-10, "guess": c}), ((), {"guess": c, "tol": 1e-10}),
        ((1e-14,), {"guess": c}),
        ((), {"guess": 9}), ((), {"guess": np.float64(c)}), ((), {"guess": "x"}),
        ((), {"tol": np.float64(1e-14)}), ((), {"tol": 10**400}),
        ((1e-14,), {"tol": 1e-14}), ((1e-14, c), {"guess": c}), ((), {"nope": 1}),
        ((1e-14, c, 0), {}),
    ]
    for extra, kw in cases:
        _check("tau_star", *base, *extra, **kw)
    _check("tau_star", *base[:6])
    _check("tau_star", j=-3, w1=1.3, w2=0.7, mu1=0.3, mu2=0.1, t1=2.0, t2=4.0)
    _check("tau_star", *base[:1], *base[2:], w1=1.3)
    # a root at an int guess: Python returns the int itself
    _check("tau_star", 0, 1.0, 1.0, 0.3, 0.1, 0.0, 0.0, guess=0)
    _check("tau_star", 0, 1.0, 1.0, 0.3, 0.1, 0.0, 0.0, guess=0.0)
    for j in (-(2**53) - 1, -7, -1, 2**53, 2**53 + 1, 2**60, 1.0, np.int64(-3), True):
        _check("tau_star", j, *base[1:])
    for i in range(1, 7):
        for v in NUMBERS + (math.inf, -math.inf, math.nan, None, "1"):
            args = list(base)
            args[i] = v
            _check("tau_star", *args)
            _check("tau_star", *args, guess=-c)


def test_alpha_and_coeffs_argument_kinds():
    _check("alpha")
    _check("alpha", 1.0, 2.0)
    _check("alpha", w=1.0)
    _check("alpha", "1")
    _check("_coeffs", 1.0)
    _check("_coeffs", 1.0, a=0.3)
    _check("_coeffs", w=1.0, a=0.3)
    _check("_coeffs", 1.0, None)


UNCONVERGED = (2, -3.1380395040434976, 14.901022913606923, -0.8415812895109123,
               -0.36177486189760266, 1118519250588891.5, 57.09645135314122)


def test_non_horizontal_and_unconverged():
    for leaf in (kernels._leaves.tau_star, kernels.PYTHON_LEAVES["tau_star"]):
        with pytest.raises(NotHorizontal, match="not a horizontal graph") as info:
            leaf(0, 1.0, 0.4, 1.0, 0.0, 0.0, 0.0)
        assert isinstance(info.value, ValueError)
        with pytest.raises(NoConvergence, match="failed to converge") as info:
            leaf(*UNCONVERGED)
        assert isinstance(info.value, ArithmeticError)
    _check("tau_star", 0, 1.0, 0.4, 1.0, 0.0, 0.0, 0.0)
    _check("tau_star", 0, 1.0, 0.4, math.nextafter(1.0, 0.0), 0.0, 0.0, 0.0)
    # sin(inf) inside the Newton loop; a bracket end whose lo*w overflows
    _check("tau_star", 1, 1e308, 1.0, 0.2, 0.1, 0.0, 0.0)
    _check("tau_star", 1, 5e307, 1.0, 0.2, 0.9, 0.0, 0.0)
    _check("tau_star", 0, 1.0, 1.0, 0.3, 0.1, math.inf, 0.0)
    _check("tau_star", 0, 1.0, 1.0, 0.3, 0.1, 0.0, -math.inf)
    # a Newton loop that does not converge (NoConvergence)
    _check("tau_star", *UNCONVERGED)
    # tolerances no residual meets: the loop ends on its bracket or its count
    for tol in (0.0, -1.0, math.nan):
        for j in (0, 1, -3):
            _check("tau_star", j, 1.3, 0.7, 0.3, 0.1, 2.0, 4.0, tol)


_number = st.one_of(_w, st.integers(-(2**60), 2**60), st.integers(-500, 500))


@settings(max_examples=400, deadline=None)
@given(w=_number, a=st.one_of(st.floats(), st.integers(-10, 10)))
def test_alpha_and_coeffs_property(w, a):
    _check("alpha", w)
    _check("_coeffs", w, a)


@settings(max_examples=400, deadline=None)
@given(
    j=st.integers(-9, 9), w1=_number, w2=_w, mu1=st.floats(-1.2, 1.2), mu2=st.floats(-0.6, 0.6),
    t1=st.one_of(_angle, st.integers(-10, 10)), t2=_angle, guess=_guess,
    tol=st.one_of(st.just(1e-14), st.floats(0.0, 1e-6)),
)
def test_tau_star_property(j, w1, w2, mu1, mu2, t1, t2, guess, tol):
    _check("tau_star", j, w1, w2, mu1, mu2, t1, t2, tol, guess)
    _check("tau_star", j, w1, w2, mu1, mu2, t1, t2, guess=guess)


@settings(max_examples=300, deadline=None)
@given(
    j=st.integers(-3, 7), a1=st.floats(-0.6, 0.6), a2=st.floats(-0.6, 0.6),
    om1=st.floats(0.1, 2.0), i1=_w, i2=_w, t1=_angle, t2=_angle, guess=_guess,
)
def test_flow_property(j, a1, a2, om1, i1, i2, t1, t2, guess):
    args = (j, a1, a2, 1.0, om1, 1.0, i1, i2, t1, t2)
    for name in ("lstar", "lstar_grad", "flow_rhs"):
        _check(name, *args, guess=guess)


def _segments(waypoints):
    path = diffusion.ActionPath(waypoints, 0.1)
    return path._segments, path._scale


_coord = st.floats(-6.0, 6.0, allow_nan=False)
_point = st.one_of(
    _coord, st.floats(), st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1030, math.inf,
                                          -math.inf, math.nan]))


@st.composite
def _path(draw, stairstepped=True):
    """1 to 80 segments, some of length 0: alternating axis steps, or any steps."""
    x, y = draw(_coord), draw(_coord)
    pts = [(x, y)]
    step = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
    for k in range(draw(st.integers(1, 80))):
        if not stairstepped:
            x, y = x + draw(step), y + draw(step)
        elif k % 2 == 0:
            x += draw(step)
        else:
            y += draw(step)
        pts.append((x, y))
    return pts


# ---- the path distance that a jump records, as kernels.jump_run scans it ----

# where no ball test can fire: the run's end and target
FAR = (math.inf, math.inf)


def _jump(segments, p0, p1):
    """kernels.jump_run from the state (p0, p1, 0.0, 0.0): its outcome and steps.

    Under eps = 0 and Omega1 = Omega2 = 0 the solve does not depend on a
    finite point and the jump adds -0.0, which leaves every action as it
    was; dead = inf switches both windows off, guard 0 and the end and
    target FAR keep every ball test false, and delta = float_info.max
    passes every finite distance.  A budget of 1 makes one iteration:
    one jump, or none where the distance is inf or NaN.
    """
    steps = []
    out = kernels.jump_run(0, 0.3, 0.1, 1.0, 0.0, 0.0, segments, FAR, sys.float_info.max, 0.0,
                           0.0, math.inf, 0.3, (p0, p1, 0.0, 0.0), FAR, False, 1, steps,
                           diffusion.PseudoStep)
    return out, steps


def _check_distance(segments, scale, p0, p1):
    """The dist that a jump records against the Python leaf at its state.

    Where pure.path_distance is not <= delta (inf, NaN) the run makes no
    jump: its tracking check stops it, or for a non-finite point its solve.
    Returns the Python leaf's distance.
    """
    out, steps = _jump(segments, p0, p1)
    ref = pure.path_distance(segments, scale, p0, p1)
    z = (p0, p1, 0.0, 0.0)
    made = ref <= sys.float_info.max
    assert repr(out) == repr((z, int(made), int(made), None)), (segments, z, ref, out)
    assert len(steps) == made
    if made:
        assert repr(steps[0].state) == repr(z)
        assert repr(steps[0].dist) == repr(ref), (segments, z, ref, steps[0].dist)
    return ref


@settings(max_examples=400, deadline=None)
@given(pts=st.one_of(_path(), _path(stairstepped=False)), p0=_point, p1=_point, data=st.data())
def test_jump_distance_on_random_paths(pts, p0, p1, data):
    segments, scale = _segments(pts)
    _check_distance(segments, scale, p0, p1)
    # a point on or next to the path: many segments tie or nearly tie
    x, y = data.draw(st.sampled_from(pts))
    _check_distance(segments, scale, x, y)
    _check_distance(segments, scale, math.nextafter(x, math.inf), y - 1e-9)
    _check_distance(segments, scale, x + 0.05, y + 0.05)


def test_jump_distance_special_segments_and_points():
    paths = [
        [(1.0, 1.0), (1.0, 1.0)],                                 # one zero-length segment
        [(1.0, 1.0), (1.0, 1.0), (2.0, 1.0), (2.0, 1.0), (2.0, 3.0)],
        [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0), (0.0, 0.0)],
        [(-1e300, 0.0), (1e300, 0.0)],                            # d . d overflows
        # a NaN residual between finite ones: the scan must end with NaN, as
        # the Python leaf does, not pass on a finite minimum that a jump
        # would record
        [(1e300, 1.0), (1e300, 0.0), (-1e300, 0.0), (-1e300, 1.0)],
        [(2.0**500, 0.0), (2.0**500, 1.0), (0.0, 1.0)],           # at the pruning limit
        [(math.nextafter(2.0**500, 0.0), 0.0), (0.0, 0.0), (0.0, 3.0)],
        [(2.0**501, 2.0**501), (-(2.0**501), 2.0**501), (1.0, 1.0)],   # beyond it
        [(1.7e308, 0.0), (-1.7e308, 0.0), (0.0, 1.0)],            # b - a overflows
        [(1e-300, 0.0), (3e-300, 1e-310), (3e-300, 5e-324)],      # subnormal
    ]
    points = [(0.0, 0.0), (1.0, 1.0), (1.5, 0.5), (2.0**500, 0.5), (2.0**501, 1.0),
              (-(2.0**500), 2.0**500), (1e308, -1e308), (2e-300, 5e-324), (5e-324, 0.0),
              (-0.0, -0.0), (math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan),
              (math.inf, 1.0), (1.0, -math.inf), (math.inf, math.inf), (math.nan, math.inf)]
    nan_at_finite_points = jumps = 0
    for pts in paths:
        segments, scale = _segments(pts)
        for p0, p1 in points:
            ref = _check_distance(segments, scale, p0, p1)
            jumps += ref <= sys.float_info.max
            nan_at_finite_points += math.isnan(ref) and math.isfinite(p0) and math.isfinite(p1)
    assert math.isinf(_check_distance((), 1.0, 1.0, 1.0))          # no segment: inf
    # the scan's NaN residuals are reached by finite points, not only by the
    # non-finite ones that the solve stops first
    assert jumps > 60 and nan_at_finite_points > 15, (jumps, nan_at_finite_points)


def test_jump_distance_argument_kinds():
    # the run takes a point and a segment table of exact floats only; any
    # other kind leaves its fast path (None), and the builder's Python loop
    # then measures with the Python leaf
    segments, scale = _segments([(1.0, 1.0), (3.0, 1.0), (3.0, 2.0)])
    row = segments[0]
    assert _check_distance(segments, scale, 2.0, 1.5) == 0.5
    for p0, p1 in [(np.float64(2.0), 1.5), (2.0, np.float64(1.5)), (2, 1.5), (2.0, 1),
                   (True, 1.0), (2**60, 1.0), (10**400, 1.0), (np.float32(2.0), 1.0),
                   (None, 1.0), ("2", 1.0)]:
        assert _jump(segments, p0, p1) == (None, []), (p0, p1)
    tables = [
        list(segments), (list(row),), (row[:8],), (row + (0.0,),),
        ((*row[:2], 2, *row[3:]),), ((*row[:8], np.float64(row[8])),),
        (row, (*row[:4], np.float64(row[4]), *row[5:])), (row, None), "segments", None,
    ]
    for table in tables:
        assert _jump(table, 2.0, 1.5) == (None, []), table


# ---- the compiled orbit against ode._integrate's Python loop ----

PORTRAIT = ModelParams(0.2, 0.3, 1.0, eps=1e-3)
HIGHWAY = ModelParams(0.3, 0.1, 1.0, eps=1e-3)
ORBIT_PARAMS = (
    (PORTRAIT, scattering.SECTION_INTEGRATOR),
    (HIGHWAY, highway.TRACE_INTEGRATOR),
    (ModelParams(0, 1, 3, 2, 1), IntegratorConfig(h_max=0.5)),   # int amplitudes; h_max binds
)


def _python_loop(f):
    """f without its compiled orbit, so that ode._integrate runs its Python loop."""
    return lambda t, y: f(t, y)


def _check_orbit(f, y0, *args):
    """f.orbit and ode._integrate(f, ...) against the Python loop on f.

    ``y0, *args`` are ``_integrate``'s arguments after f; f.orbit is handed
    y0 as ``_integrate`` hands it, a list of floats.  The reprs (t, the rows
    and their types, the counts, the crossings) must be equal, or the same
    error with the same message be raised.  Returns the Python loop's
    outcome and whether the compiled orbit declined.
    """
    ref = _outcome(ode._integrate, _python_loop(f), y0, *args)
    try:
        y = [*map(float, y0)]
    except (TypeError, ValueError):
        y = y0      # _integrate raises before it reaches f.orbit
    raw = _outcome(f.orbit, y, *args)
    assert raw in ("None", ref), f"orbit{(y0, *args)}: Python {ref}, compiled {raw}"
    assert _outcome(ode._integrate, f, y0, *args) == ref
    return ref, raw == "None"


# ---- one RKF78 step of the scattering flow, as an orbit of one step ----

FLOW_PARAMS = (
    ModelParams(0.2, 0.3, 1.0),              # the portrait's set
    ModelParams(0.3, 0.1, -1.0, 0.7, 1.3),
    ModelParams(0, 1, 3, 2, 1),              # int amplitudes and rotor coefficients
    ModelParams(0.6, 0.5, 1.0),              # not horizontal near |I| = 1.2
    ModelParams(0.3, 0.1, 0.0),              # a3 = 0: not horizontal anywhere
)
FLOW_STATES = (
    [0.1, -0.5, 3.9269908169872414, 3.9269908169872414],
    [1.2, 1.2, 0.5, 2.0],
    [-3.0, 4.5, -1.0, 12.0],
    [math.nan, 0.5, 1.0, 2.0],
    [0.5, 0.5, math.nan, 2.0],
    [math.inf, 0.5, 1.0, 2.0],
    [0.5, -math.inf, 1.0, 2.0],
    [0.5, 0.5, 1.0, math.inf],
    [1e308, 0.5, 1.0, 2.0],                  # the angle t - tau*w overflows: sin(inf)
    [0.5, -1e300, 1.0, 2.0],
    [0.5, 0.5, 1e300, -1e300],
)
FLOW_STEPS = (0.5, -0.5, 3.0, -7.0, 1e-300, -5e-324, 1e3, -1e300)
STAGE_ERRORS = (NotHorizontal, NoConvergence, ValueError)


def _one_step(h):
    """Settings under which an orbit over a span of length |h| takes exactly
    the step h: h_init = h_min = h_max = |h|, and tolerances that every
    finite error estimate meets.  The step is accepted, and its y8 is the
    last row, or rejected for an error estimate that is not finite, and the
    orbit ends in StepSizeUnderflow."""
    size, loose = abs(h), sys.float_info.max
    return IntegratorConfig(abs_tol=loose, rel_tol=loose, h_init=size, h_min=size, h_max=size)


def _check_step(f, y, h, t0=0.0):
    """One step h of the flow f from (t0, y), by the compiled orbit.

    The orbit over (t0, t0 + h) under ``_one_step(h)`` takes exactly the
    step h.  Where the Python step's error estimate e is finite and not
    zero, orbits over (t0, t0 + 2h) follow, with tolerances that put the
    step's error norm near 0.5 and near 0.9: each accepts h, and its next
    step, h * 0.9 * norm**(-1/8), falls short of the span end, so the
    recorded times carry e through the step-size decision.  Returns the
    one-step orbit's Python outcome and whether the compiled orbit declined
    it.
    """
    ref, declined = _check_orbit(f, y, t0, t0 + h, _one_step(h), True, None, 1)
    if isinstance(ref, tuple):
        return ref, declined
    y_float = [*map(float, y)]      # the state that the loop steps from
    y8, err = ode.rkf78_step(f, t0, y_float, h)
    scale = max(abs(e) / (1.0 + max(abs(a), abs(b))) for e, a, b in zip(err, y_float, y8))
    for norm in (0.5, 0.9):
        tol = scale / norm
        if 0.0 < tol < math.inf:
            cfg = IntegratorConfig(abs_tol=tol, rel_tol=tol, h_init=abs(h), h_min=5e-324,
                                   h_max=abs(h), max_steps=3)
            _check_orbit(f, y, t0, t0 + 2 * h, cfg, True, None, 1)
    return ref, declined


def test_one_step_orbit_on_grid():
    errors = set()
    for params in FLOW_PARAMS:
        for j in range(-3, 4):
            for y in FLOW_STATES:
                for h in FLOW_STEPS:
                    ref, declined = _check_step(scattering.flow_rhs(j, params), y, h)
                    # every argument is on the fast path: it declines exactly
                    # where a stage of the Python step raises
                    assert declined == (isinstance(ref, tuple) and ref[0] in STAGE_ERRORS), (
                        j, params, y, h, ref)
                    if declined:
                        errors.add(ref)
    # every way the Python step raises was met
    assert {err for err, _msg in errors} == set(STAGE_ERRORS)
    assert (ValueError, "math domain error") in errors
    assert (NotHorizontal, "crest is not a horizontal graph at a3 = 0") in errors


# an np.float64 step makes the Python loop's error norm a numpy scalar, and
# _one_step's tolerance of float_info.max overflows it to inf (r = 0, as
# with Python floats), which numpy reports
@pytest.mark.filterwarnings("ignore:overflow encountered in scalar:RuntimeWarning")
def test_one_step_orbit_argument_kinds():
    # _integrate hands the orbit y0 as a list of floats, whatever held it;
    # the span ends and step sizes off the fast path go to the Python loop
    y = FLOW_STATES[0]
    params = FLOW_PARAMS[0]
    f = scattering.flow_rhs(1, params)
    states = [tuple(y), [np.float64(y[0]), *y[1:]], [*y[:3], np.float32(y[3])],
              [0, 1, 3, 4], [2**53, 1.0, 3.0, 4.0], [2**60, 1.0, 3.0, 4.0], [True, 1.0, 3.0, 4.0],
              [*y, 1.0], y[:3], (), None, "abcd", np.array(y)]
    for ys in states:
        for h in (0.5, -2, np.float64(0.5), 2**60, True):
            for t0 in (0.0, 3, np.float64(1.5)):
                _check_step(f, ys, h, t0)
    for j in (np.int64(1), 1.0, 2**53, 2**53 + 1, True):
        _check_step(scattering.flow_rhs(j, params), y, 0.5)
    for params in (ModelParams(np.float64(0.2), 0.3, 1.0), ModelParams(0.2, 0.3, 2**60),
                   ModelParams(0.2, 0.3, 1.0, np.float64(1.0)), ModelParams(0.2, 0.3, True)):
        _check_step(scattering.flow_rhs(0, params), y, 0.5)


@settings(max_examples=300, deadline=None)
@given(
    j=st.integers(-3, 3), a1=st.floats(-0.6, 0.6), a2=st.floats(-0.6, 0.6),
    a3=st.sampled_from([1.0, -0.7, 2.0]), om1=st.floats(0.1, 2.0),
    i1=_w, i2=_w, t1=_angle, t2=_angle,
    h=st.one_of(st.floats(-20.0, 20.0), st.floats(allow_nan=False, allow_infinity=False),
                st.sampled_from([5e-324, -1e-300])).filter(bool),
)
def test_one_step_orbit_property(j, a1, a2, a3, om1, i1, i2, t1, t2, h):
    f = scattering.flow_rhs(j, ModelParams(a1, a2, a3, om1, 1.0))
    ref, declined = _check_step(f, [i1, i2, t1, t2], h)
    assert declined == (isinstance(ref, tuple) and ref[0] in STAGE_ERRORS)


def test_flow_orbit_matches_the_python_loop():
    y0 = [0.3, -0.4, 3.9269908169872414, 3.85]
    n = 0
    for params, cfg in ORBIT_PARAMS:
        for j in range(-2, 3):
            f = scattering.flow_rhs(j, params)
            for t1 in (20.0, -20.0):
                ref, declined = _check_orbit(f, y0, 0.0, t1, cfg, True, None, 1)
                assert not declined
                free = f.orbit(y0, 0.0, t1, cfg, True, None, 1)
                for k in range(4):
                    # the median of a component over the orbit: crossed both ways
                    column = sorted(row[k] for row in free.y)
                    value = column[len(column) // 2]
                    for direction in (-1, 0, 1):
                        section = Section(k, value, direction)
                        ref, declined = _check_orbit(f, y0, 0.0, t1, cfg, (n // 6) % 2 == 0,
                                                     section, 1 + n % 6)
                        assert not declined and not isinstance(ref, tuple)
                        n += 1
    # one clipped step to a span end that t0 + (t1 - t0) rounds past lands on it
    loose = IntegratorConfig(abs_tol=1e-3, rel_tol=1e-3, h_init=5.0)
    ref, declined = _check_orbit(scattering.flow_rhs(0, PORTRAIT), y0, 1.1, -0.3, loose, True,
                                 None, 1)
    assert not declined and ref.startswith("Trajectory(t=[1.1, -0.3], ")
    # the workloads' own orbits: a portrait seed to six crossings, a Highway trace
    level = melnikov.reduced_poincare(0, (0.0, 0.0, 3.9269908169872414, 3.9269908169872414),
                                      PORTRAIT)
    seed = scattering.adjust_seed_to_level(0, 0.0, 0.0, 3.9269908169872414, 3.9, level, PORTRAIT)
    for record in (False, True):
        ref, declined = _check_orbit(scattering.flow_rhs(0, PORTRAIT), seed, 0.0, 400.0,
                                     scattering.SECTION_INTEGRATOR, record, Section(0, 0.0, 1), 6)
        assert not declined and ref.count("(") > 6
    seed, _ = highway.highway_seed(7.0, -7.0, HIGHWAY)
    ref, declined = _check_orbit(scattering.flow_rhs(0, HIGHWAY), seed, 0.0, 1e12,
                                 highway.TRACE_INTEGRATOR, True, Section(1, 0.0, 1), 1)
    assert not declined


@pytest.fixture
def landing_paths(monkeypatch):
    """How often the Python loop halves a step to land, lands adaptively in s, or
    refuses a Henon landing outside its step."""
    seen = {"halving": 0, "adaptive landing": 0, "outside the step": 0}
    landing_of = []
    land, henon, step, integrate = ode._land, ode._henon_step, ode.rkf78_step, ode._integrate

    def landing(f, section, t0, y0, t1, y1, cfg):
        landing_of.append((f, min(t0, t1), max(t0, t1)))
        try:
            return land(f, section, t0, y0, t1, y1, cfg)
        finally:
            landing_of.pop()

    def henon_step(f, *args):
        hit = henon(f, *args)
        _f, lo, hi = landing_of[-1]
        seen["outside the step"] += hit is not None and not lo <= hit[0] <= hi
        return hit

    def stepping(f, t, y, h):
        if landing_of and f is landing_of[-1][0]:
            seen["halving"] += 1     # a step of the orbit's own f inside a landing
        return step(f, t, y, h)

    def integrating(f, *args):
        if landing_of:
            seen["adaptive landing"] += 1
        return integrate(f, *args)

    monkeypatch.setattr(ode, "_land", landing)
    monkeypatch.setattr(ode, "_henon_step", henon_step)
    monkeypatch.setattr(ode, "rkf78_step", stepping)
    monkeypatch.setattr(ode, "_integrate", integrating)
    return seen


# Landings that the compiled orbit leaves to the Python loop: a halving
# (loose tolerances and long steps, found by a random search over states and
# sections) and a Henon step that fails its error check at the default
# tolerances, on a section of theta2
RARE_LANDINGS = {
    "halving": (
        ModelParams(0.3, -0.4, 1.0), 0,
        [-0.12574529912908972, -1.2538642971181502, 2.5438733159133857, 0.9229900837624831],
        60.0, IntegratorConfig(abs_tol=0.07673680957567697, rel_tol=0.07673680957567697,
                               h_init=20.0, h_max=20.0),
        Section(1, -1.1776853145452466, 0), 3),
    "adaptive landing": (
        ModelParams(0.3, 0.1, 1.0), 1, [1.2, -0.4, 5.0, 1.0], 30.0, IntegratorConfig(),
        Section(3, 1.5, 0), 4),
}


@pytest.mark.parametrize("path", sorted(RARE_LANDINGS))
def test_rare_landings_run_the_python_loop(landing_paths, path):
    params, j, y0, t1, cfg, section, max_crossings = RARE_LANDINGS[path]
    f = scattering.flow_rhs(j, params)
    args = (y0, 0.0, t1, cfg, False, section, max_crossings)
    assert kernels.flow_orbit(j, params.a1, params.a2, params.a3, params.Omega1, params.Omega2,
                              *args) is None
    ref, declined = _check_orbit(f, *args)
    assert declined and not isinstance(ref, tuple) and landing_paths[path] > 0


def test_landing_outside_the_step_is_refused_in_c(landing_paths):
    # a Henon step from the nearer end lands outside the accepted step; the
    # compiled orbit refuses it and lands from the other end, as _land does
    params = ModelParams(0.2, 0.3, 1.0)
    f = scattering.flow_rhs(-2, params)
    y0 = [-1.2021236432681435, 0.778019259846638, 0.5322410821108118, 6.033114233120487]
    cfg = IntegratorConfig(abs_tol=0.9391446605266579, rel_tol=0.9391446605266579, h_init=1.0,
                           h_max=20.0)
    ref, declined = _check_orbit(f, y0, 0.0, 60.0, cfg, False, Section(3, 6.191701040637306, 1),
                                 3)
    assert not declined and not isinstance(ref, tuple)
    assert landing_paths["outside the step"] > 0 and landing_paths["halving"] == 0


def test_stage_errors_run_the_python_loop():
    # the orbit declines at a stage where the Python kernels raise, and the
    # Python loop then raises it: mid-orbit into the non-horizontal region,
    # a solve that does not converge, sin of an infinite angle
    cases = [
        (ModelParams(0.7, 0.3, 1.0), 0, [-1.63, 2.67, 5.68, 0.19], 100.0),
        (ModelParams(*UNCONVERGED[3:5], 1.0), 2, [*UNCONVERGED[1:3], *UNCONVERGED[5:]], 10.0),
        (PORTRAIT, 0, [0.5, 0.5, 1.0, math.inf], 10.0),
    ]
    raised = []
    for params, j, y0, t1 in cases:
        f = scattering.flow_rhs(j, params)
        for record, section in ((False, None), (True, Section(3, -100.0, 0))):
            ref, declined = _check_orbit(f, y0, 0.0, t1, scattering.SECTION_INTEGRATOR, record,
                                         section, 2)
            assert declined
        raised.append(ref)
    assert [err for err, _msg in raised] == [NotHorizontal, NoConvergence, ValueError]
    assert raised[2][1] == "math domain error"


def test_integrator_errors_are_raised_by_the_orbit():
    # MaxStepsExceeded and StepSizeUnderflow come from the compiled orbit
    # itself, with _integrate's class and message, so no run is made twice
    f = scattering.flow_rhs(0, PORTRAIT)
    y0 = [0.3, -0.4, 3.9269908169872414, 3.85]
    cases = [
        (IntegratorConfig(max_steps=5), MaxStepsExceeded),
        (IntegratorConfig(h_init=1.0, h_min=0.5, h_max=10.0), StepSizeUnderflow),
        (IntegratorConfig(abs_tol=1e-16, rel_tol=1e-16, h_init=1.0, h_min=0.5), StepSizeUnderflow),
    ]
    for cfg, error in cases:
        for t1, record in ((50.0, True), (-50.0, False)):
            ref, declined = _check_orbit(f, y0, 0.0, t1, cfg, record, Section(0, 0.0, 0), 2)
            assert not declined and ref[0] is error, ref


def test_flow_orbit_argument_kinds():
    # an argument outside the fast path is left to the Python loop, which
    # gives what it gives (numpy, ints where Python keeps them, bad types)
    f = scattering.flow_rhs(1, PORTRAIT)
    y0 = [0.3, -0.4, 3.9269908169872414, 3.85]
    cfg = scattering.SECTION_INTEGRATOR
    section = Section(0, 0.3, 0)
    fast = (y0, 0.0, 30.0, cfg, True, section, 2)
    kinds = [
        (0, tuple(y0)), (0, [0, 0, 4, 4]), (0, [np.float64(0.3), *y0[1:]]), (0, y0[:3]),
        (0, np.array(y0)), (1, 0), (2, 30), (2, np.float64(30.0)), (4, 1), (4, None),
        (3, IntegratorConfig(h_init=1, h_max=10)), (3, IntegratorConfig(max_steps=10**20)),
        (3, IntegratorConfig(h_max=np.float64(10.0))), (5, Section(0, 0, 1)),
        (5, Section(-1, 4.0, 0)), (5, Section(4, 0.3, 0)), (5, Section(0, 0.3, 1.0)),
        (5, Section(np.int64(0), 0.3, 1)), (5, Section(0, np.float64(0.3), 1)), (6, 2.0),
        (6, 10**30), (6, np.int64(2)),
    ]
    for i, value in kinds:
        args = list(fast)
        args[i] = value
        _check_orbit(f, *args)
    ref, declined = _check_orbit(f, *fast)
    assert not declined
    for j in (np.int64(1), 1.0, 2**53 + 1, True):
        _check_orbit(scattering.flow_rhs(j, PORTRAIT), *fast)
    for params in (ModelParams(np.float64(0.2), 0.3, 1.0), ModelParams(0.2, 0.3, 2**60),
                   ModelParams(0.2, 0.3, True)):
        _check_orbit(scattering.flow_rhs(0, params), *fast)


def test_every_deferral_runs_the_python_step(monkeypatch):
    # ode._integrate runs its Python loop, and so calls ode.rkf78_step,
    # exactly where the compiled orbit returns None for the state as
    # _integrate hands it, a list of floats
    cases = [(j, params, y0)
             for params in (PORTRAIT, ModelParams(0.6, 0.5, 1.0), ModelParams(0.3, 0.1, 0.0))
             for j in (-3, 0, 1)
             for y0 in ([0.3, -0.4, 3.9, 3.85], [1.2, 1.2, 0.5, 2.0], [0.5, 0.5, math.nan, 2.0],
                        (0.3, -0.4, 3.9, 3.85), [np.float64(0.3), -0.4, 3.9, 3.85])]
    flows = {(j, params): scattering.flow_rhs(j, params) for j, params, _y0 in cases}
    calls = []
    step = ode.rkf78_step

    def recording(f, t, y, h):
        calls.append(h)
        return step(f, t, y, h)

    monkeypatch.setattr(ode, "rkf78_step", recording)
    deferred = 0
    for j, params, y0 in cases:
        args = (y0, 0.0, 20.0, scattering.SECTION_INTEGRATOR, False, Section(2, 4.0, 0), 2)
        raw = _outcome(kernels.flow_orbit, j, params.a1, params.a2, params.a3, params.Omega1,
                       params.Omega2, [*map(float, y0)], *args[1:])
        calls.clear()
        _outcome(ode._integrate, flows[j, params], *args)
        assert bool(calls) == (raw == "None"), (j, params, y0, raw)
        deferred += raw == "None"
    assert 0 < deferred < len(cases)


def test_any_state_container_takes_the_compiled_orbit(monkeypatch):
    # an ndarray, a numpy component, a tuple, int components: _integrate
    # converts the state as its Python loop does, so the compiled orbit runs
    # each of them and gives the loop's Trajectory
    f = scattering.flow_rhs(0, PORTRAIT)
    y0 = [0.3, -0.4, 3.9269908169872414, 3.85]
    args = (0.0, 40.0, scattering.SECTION_INTEGRATOR, True, Section(0, 0.0, 0), 2)
    states = (np.array(y0), [np.float64(y0[0]), *y0[1:]], tuple(y0), [1, -1, 4, 4])
    refs = [repr(ode._integrate(_python_loop(f), y, *args)) for y in states]
    stepped = []
    step = ode.rkf78_step

    def recording(f, t, y, h):
        stepped.append(h)
        return step(f, t, y, h)

    monkeypatch.setattr(ode, "rkf78_step", recording)
    for y, ref in zip(states, refs):
        assert repr(ode._integrate(f, y, *args)) == ref
    assert stepped == [] and all("crossings=[(" in ref for ref in refs)


def test_orbits_take_the_fused_step(monkeypatch):
    # portraits and Highway traces, landings included, run no Python step
    stepped = []
    step = ode.rkf78_step

    def recording(f, t, y, h):
        stepped.append(f)
        return step(f, t, y, h)

    monkeypatch.setattr(ode, "rkf78_step", recording)
    lp = (0.0, 0.0, 3.9269908169872414, 3.9269908169872414)
    pts = scattering.poincare_section(0, melnikov.reduced_poincare(0, lp, PORTRAIT), 0.0,
                                      [(0.0, 0.0, lp[2], 3.9)], 400.0, PORTRAIT, max_crossings=4)
    seed, _ = highway.highway_seed(7.0, -7.0, HIGHWAY)
    orb = highway.highway_trace(seed, HIGHWAY, stop=(1, 0.0, +1), drift_tol=1e-6)
    assert len(pts) == 4 and len(orb.t) > 20
    assert stepped == []
