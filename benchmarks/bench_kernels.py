#!/usr/bin/env python3
"""Per-call timer for the scalar kernels: compiled leaves against the Python ones.

Usage: python benchmarks/bench_kernels.py [n_iterations]

Times the leaves (crest weight, splitting coefficients, crossing-time
solve) and the two Python kernels built on them (reduced-function
gradient, scattering-flow right-hand side) over random states, once with
the compiled leaves that ``kernels.pure`` is bound to and once with the
Python leaves (``kernels.PYTHON_LEAVES``, the specification) bound in their
place; then one integrated workload (a Highway trace between action
sections) with the compiled leaves.  The per-call figures quoted in the
README come from this script.
"""

import contextlib
import math
import sys
import time

import numpy as np

from arnolddiff import kernels
from arnolddiff.kernels import pure


@contextlib.contextmanager
def _python_leaves():
    saved = {name: getattr(pure, name) for name in kernels.PYTHON_LEAVES}
    for name, fn in kernels.PYTHON_LEAVES.items():
        setattr(pure, name, fn)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(pure, name, fn)


def _bench_scalar(n, states):
    """Seconds per call of each kernel, looked up in ``pure`` at call time."""
    calls = {
        "alpha": lambda w1, w2, t1, t2: pure.alpha(w1),
        "_coeffs": lambda w1, w2, t1, t2: pure._coeffs(w1, 0.3),
        "tau_star": lambda w1, w2, t1, t2: pure.tau_star(0, w1, w2, 0.3, 0.1, t1, t2),
        "lstar_grad": lambda w1, w2, t1, t2: pure.lstar_grad(
            0, 0.3, 0.1, 1.0, 1.0, 1.0, w1, w2, t1, t2),
        "flow_rhs": lambda w1, w2, t1, t2: pure.flow_rhs(
            0, 0.3, 0.1, 1.0, 1.0, 1.0, w1, w2, t1, t2),
    }
    out = {}
    for name, call in calls.items():
        t0 = time.perf_counter()
        for s in states[:n]:
            call(*s)
        out[name] = (time.perf_counter() - t0) / n
    return out


def _bench_trace(params):
    from arnolddiff import highway

    st, _ = highway.highway_seed(7.0, -7.0, params)
    t0 = time.perf_counter()
    orb = highway.highway_trace(st, params, stop=(1, 0.0, +1), drift_tol=1e-6)
    return time.perf_counter() - t0, len(orb.t)


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 20000
    rng = np.random.default_rng(0)
    states = [
        (rng.uniform(-5, 5), rng.uniform(-5, 5),
         rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
        for _ in range(n)
    ]

    rows = {f"leaves: {kernels.BACKEND}": _bench_scalar(n, states)}
    with _python_leaves():
        rows["leaves: python"] = _bench_scalar(n, states)
    names = list(next(iter(rows.values())))
    print(f"\nper-call times over {n} random states (microseconds):")
    print(f"{'':>16}" + "".join(f"{k:>12}" for k in names))
    for label, vals in rows.items():
        print(f"{label:>16}" + "".join(f"{vals[k] * 1e6:>12.2f}" for k in names))

    from arnolddiff.model import ModelParams

    params = ModelParams(0.3, 0.1, 1.0, 1.0, 1.0, eps=1e-3)
    wall, n_rows = _bench_trace(params)
    print(f"\nintegrated workload (leaves: {kernels.BACKEND}):")
    print(f"  Highway trace I2 = -7 -> 0: {wall:.2f} s, {n_rows} recorded rows")


if __name__ == "__main__":
    main()
