"""Building, caching and loading the compiled leaves, and their reference counts.

A crash or a leak in the extension would end a whole benchmark worker, so
these tests call each leaf many times and watch the reference counts, and
build the extension cold in copies of the package: two builds at once, a
build with no compiler on the path, and a build with
``PYTHONDONTWRITEBYTECODE=1`` followed by a warm import that must not
start the compiler.
"""

import gc
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import arnolddiff
from arnolddiff import kernels

CC = sysconfig.get_config_var("CC")
HAVE_CC = bool(CC) and shutil.which(CC.split()[0]) is not None
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler: nothing is compiled")

PROBE = ("import sys; from arnolddiff import kernels; "
         "print(kernels.BACKEND, kernels.__file__.startswith(sys.argv[1]), "
         "repr(kernels.tau_star(-3, 1.3, 0.7, 0.3, 0.1, 2.0, 4.0)), "
         "repr(kernels.flow_rhs(1, 0.3, 0.1, 1.0, 1.0, 1.0, 1.2, -0.4, 5.0, 1.0)))")


@needs_cc
def test_reference_counts_do_not_drift():
    leaves = kernels._leaves
    w1, w2, mu1, mu2, t1, t2, guess, tol = 1.3, 0.7, 0.3, 0.1, 2.0, 4.0, 3.0 * 3.14159, 1e-14
    objs = (None, w1, w2, mu1, t1, guess, tol)
    # garbage left by earlier tests holds references to None too: collect
    # it first, and keep the collector from freeing more during the loops
    gc.collect()
    gc.disable()
    try:
        before = [sys.getrefcount(o) for o in objs]
        _call_every_form(leaves, w1, w2, mu1, mu2, t1, t2, guess, tol)
        drift = [sys.getrefcount(o) - b for o, b in zip(objs, before)]
    finally:
        gc.enable()
    assert all(abs(d) < 100 for d in drift), drift


def _call_every_form(leaves, w1, w2, mu1, mu2, t1, t2, guess, tol):
    for _ in range(100_000):
        leaves.alpha(w1)
        leaves._coeffs(w1, mu1)
        leaves.tau_star(-3, w1, w2, mu1, mu2, t1, t2)
        leaves.tau_star(-3, w1, w2, mu1, mu2, t1, t2, tol, None)
        leaves.tau_star(-3, w1, w2, mu1, mu2, t1, t2, tol, guess)
        leaves.tau_star(-3, w1, w2, mu1, mu2, t1, t2, guess=guess)
        leaves.tau_star(-3, w1, w2, mu1, mu2, t1, t2, guess=None, tol=tol)
    for _ in range(10_000):
        for args in ((0, w1, w2, 1.0, mu2, t1, t2), (0, w1, w2, mu1, mu2, float("inf"), t2)):
            with pytest.raises(ValueError):
                leaves.tau_star(*args, tol, None)
        with pytest.raises(ArithmeticError):   # a Newton loop that does not converge
            leaves.tau_star(2, -3.1380395040434976, 14.901022913606923, -0.8415812895109123,
                            -0.36177486189760266, 1118519250588891.5, 57.09645135314122)


@pytest.fixture
def package_copy(tmp_path):
    """A copy of the package with a cold cache, and the environment that imports it."""
    src = Path(arnolddiff.__file__).resolve().parent
    shutil.copytree(src, tmp_path / "arnolddiff", ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return tmp_path, env


def _cache(root):
    return sorted(p.name for p in (root / "arnolddiff" / "kernels" / "__pycache__").glob("_leaves*"))


def _probe(root, env):
    return subprocess.run([sys.executable, "-c", PROBE, str(root)], env=env,
                          capture_output=True, text=True, timeout=120)


@needs_cc
def test_two_concurrent_cold_builds_both_load_and_agree(package_copy):
    root, env = package_copy
    procs = [subprocess.Popen([sys.executable, "-c", PROBE, str(root)], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for _ in range(2)]
    outs = [p.communicate(timeout=120) for p in procs]
    assert [p.returncode for p in procs] == [0, 0], outs
    (out1, err1), (out2, err2) = outs
    assert out1 == out2 and out1.startswith("c True ") and err1 == err2 == ""
    assert len(_cache(root)) == 1 and _cache(root)[0].endswith(".so")
    # same bits as the compiled leaves of this process
    with_c = repr(kernels.tau_star(-3, 1.3, 0.7, 0.3, 0.1, 2.0, 4.0))
    assert with_c in out1


def test_missing_compiler_keeps_the_python_leaves(package_copy, tmp_path):
    root, env = package_copy
    if CC and os.path.isabs(CC.split()[0]):
        pytest.skip(f"sysconfig's compiler {CC!r} is an absolute path; PATH cannot hide it")
    (tmp_path / "empty").mkdir()
    proc = _probe(root, dict(env, PATH=str(tmp_path / "empty")))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("python True ")
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("arnolddiff: compiled kernels unavailable")
    assert _cache(root) == []
    if HAVE_CC:   # the Python leaves give the bits the compiled ones give
        assert _probe(root, env).stdout.split(" ", 1)[1] == proc.stdout.split(" ", 1)[1]


@needs_cc
def test_cache_ignores_dont_write_bytecode_and_warm_import_never_compiles(package_copy,
                                                                          tmp_path):
    root, env = package_copy
    cold = _probe(root, dict(env, PYTHONDONTWRITEBYTECODE="1"))
    assert cold.returncode == 0 and cold.stdout.startswith("c True ") and cold.stderr == ""
    assert len(_cache(root)) == 1
    (tmp_path / "empty").mkdir()
    warm = _probe(root, dict(env, PATH=str(tmp_path / "empty")))
    assert warm.stdout == cold.stdout and warm.stderr == ""
    assert len(_cache(root)) == 1
