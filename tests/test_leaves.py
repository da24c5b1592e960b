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
that Python rejects.
"""

import contextlib
import math
import shutil
import sysconfig

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arnolddiff import kernels
from arnolddiff.errors import NoConvergence, NotHorizontal
from arnolddiff.kernels import pure
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
