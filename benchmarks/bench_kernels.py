#!/usr/bin/env python3
"""Per-call timer for the scalar kernels (``arnolddiff.kernels.pure``).

Usage: python benchmarks/bench_kernels.py [n_iterations]

Times the three hot entry points (crossing-time solve, reduced-function
gradient, scattering-flow right-hand side) over random states, then one
integrated workload (a Highway trace between action sections).  The
per-call figures quoted in the README come from this script.
"""

import math
import sys
import time

import numpy as np


def _bench_scalar(mod, n, states):
    out = {}
    t0 = time.perf_counter()
    for (w1, w2, t1, t2) in states[:n]:
        mod.tau_star(0, w1, w2, 0.3, 0.1, t1, t2)
    out["tau_star"] = (time.perf_counter() - t0) / n

    t0 = time.perf_counter()
    for (w1, w2, t1, t2) in states[:n]:
        mod.lstar_grad(0, 0.3, 0.1, 1.0, 1.0, 1.0, w1, w2, t1, t2)
    out["lstar_grad"] = (time.perf_counter() - t0) / n

    t0 = time.perf_counter()
    for (w1, w2, t1, t2) in states[:n]:
        mod.flow_rhs(0, 0.3, 0.1, 1.0, 1.0, 1.0, w1, w2, t1, t2)
    out["flow_rhs"] = (time.perf_counter() - t0) / n
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

    from arnolddiff.kernels import pure

    vals = _bench_scalar(pure, n, states)
    print(f"\nper-call times over {n} random states (microseconds):")
    names = sorted(vals)
    print("".join(f"{k:>14}" for k in names))
    print("".join(f"{vals[k] * 1e6:>13.2f} " for k in names))

    from arnolddiff.model import ModelParams

    params = ModelParams(0.3, 0.1, 1.0, 1.0, 1.0, eps=1e-3)
    wall, rows = _bench_trace(params)
    print("\nintegrated workload:")
    print(f"  Highway trace I2 = -7 -> 0: {wall:.2f} s, {rows} recorded rows")


if __name__ == "__main__":
    main()
