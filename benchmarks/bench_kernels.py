#!/usr/bin/env python3
"""Per-call timer for the scalar kernels: compiled leaves against the Python ones.

Usage: python benchmarks/bench_kernels.py [n_iterations]

Times the leaves (crest weight, splitting coefficients, crossing-time
solve) and the two Python kernels built on them (reduced-function
gradient, scattering-flow right-hand side) over random states, once with
the compiled leaves that ``kernels.pure`` is bound to and once with the
Python leaves (``kernels.PYTHON_LEAVES``, the specification) bound in their
place.  Then the pseudo-orbit builder's two other costs: the path distance
(``ActionPath.distance_to``) on a 16-segment stairstepped path, the shape
of the ``pseudo_orbit`` benchmark's paths, and on an 80-segment one, with
either leaf; and the CSV writer on 25 000 ``diffuse``-shaped rows, its
%-format fast path (``cli._write_csv``) against ``csv.writer`` on every
row (median of 5).  Then whole scattering-flow orbits, a portrait orbit
and a Highway trace, on the compiled orbit (``f.orbit``, which
``ode._integrate`` takes) against ``_integrate``'s Python loop, after
checking equal ``Trajectory`` reprs.  Last, one integrated workload (a
Highway trace between action sections) with the compiled leaves.  The
per-call figures quoted in the README come from this script.
"""

import contextlib
import csv
import math
import os
import statistics
import sys
import tempfile
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


def _bench_path_distance(n, rng):
    """Seconds per distance_to call on a 16- and an 80-segment stairstepped path."""
    from arnolddiff import diffusion

    out = {}
    for climb in (0.4, 2.0):   # delta = 0.1 steps every 0.05: 16 and 80 segments
        path = diffusion.stairstep(diffusion.ActionPath([(1.0, 1.0), (1.02, 1.0 + climb)], 0.1))
        points = [(rng.uniform(0.9, 1.12), rng.uniform(0.9, 1.1 + climb)) for _ in range(n)]
        t0 = time.perf_counter()
        for p in points:
            path.distance_to(p)
        out[f"{len(path.waypoints) - 1} segments"] = (time.perf_counter() - t0) / n
    return out


def _csv_writer(path, header, rows):
    """The CSV writer without its fast path: csv.writer on every row."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(
            [f"{v:.17g}" if isinstance(v, float) else str(v) for v in row] for row in rows
        )


def _bench_csv(rng, n_rows=25_000, repeats=5):
    """Median seconds to write n_rows diffuse_orbit.csv-shaped rows, by writer."""
    from arnolddiff.cli import _write_csv

    header = ["step", "kind", "I1", "I2", "theta1", "theta2", "dt", "dist"]
    rows = [[k, "SI"[k % 2], *rng.uniform(-5.0, 5.0, 2).tolist(),
             *rng.uniform(0.0, 2 * math.pi, 2).tolist(), float(rng.uniform(0.0, 3.0)),
             float(rng.uniform(0.0, 0.1))] for k in range(n_rows)]
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, write in (("fast path", _write_csv), ("csv.writer", _csv_writer)):
            path = os.path.join(tmp, name)
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                write(path, header, iter(rows))
                times.append(time.perf_counter() - t0)
            out[name] = statistics.median(times)
        with open(os.path.join(tmp, "fast path"), "rb") as a, open(
                os.path.join(tmp, "csv.writer"), "rb") as b:
            assert a.read() == b.read(), "the two writers wrote different bytes"
    return out


def _bench_orbits(repeats=5):
    """Median seconds per orbit, compiled orbit and Python loop.

    A portrait orbit (the golden ``poincare`` run's first seed, to its six
    upward landings on I1 = 0) and a Highway trace (I2 = -7 -> 0, every step
    recorded), each after checking that the two ``Trajectory`` objects have
    equal reprs.  The Python loop is ``ode._integrate`` on the same f seen
    through a plain function, which carries no compiled orbit.
    """
    from arnolddiff import highway, melnikov, ode, scattering
    from arnolddiff.model import ModelParams

    if kernels.flow_orbit is None:
        return None
    portrait = ModelParams(0.2, 0.3, 1.0, eps=1e-3)
    lp = (0.0, 0.0, 3.9269908169872414, 3.9269908169872414)
    level = melnikov.reduced_poincare(0, lp, portrait)
    y0 = scattering.adjust_seed_to_level(0, 0.0, 0.0, lp[2], 3.85, level, portrait)
    trace = ModelParams(0.3, 0.1, 1.0, eps=1e-3)
    seed, _ = highway.highway_seed(7.0, -7.0, trace)
    orbits = {
        "portrait orbit": (scattering.flow_rhs(0, portrait), (
            y0, 0.0, 400.0, scattering.SECTION_INTEGRATOR, False, ode.Section(0, 0.0, 1), 6)),
        "Highway trace": (scattering.flow_rhs(0, trace), (
            seed, 0.0, 1e12, highway.TRACE_INTEGRATOR, True, ode.Section(1, 0.0, 1), 1)),
    }
    out = {}
    for name, (f, args) in orbits.items():
        def loop(t, y, f=f):
            return f(t, y)

        assert repr(ode._integrate(f, *args)) == repr(ode._integrate(loop, *args)), name
        out[name] = {}
        for label, g in (("C orbit", f), ("Python loop", loop)):
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                ode._integrate(g, *args)
                times.append(time.perf_counter() - t0)
            out[name][label] = statistics.median(times)
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

    dist = {f"leaves: {kernels.BACKEND}": _bench_path_distance(n, rng)}
    with _python_leaves():
        dist["leaves: python"] = _bench_path_distance(n, rng)
    names = list(next(iter(dist.values())))
    print(f"\npath distance over {n} points near the path (microseconds per call):")
    print(f"{'':>16}" + "".join(f"{k:>14}" for k in names))
    for label, vals in dist.items():
        print(f"{label:>16}" + "".join(f"{vals[k] * 1e6:>14.2f}" for k in names))

    secs = _bench_csv(rng)
    print("\nCSV writer, 25 000 diffuse_orbit.csv-shaped rows (median of 5, ms):")
    for label, t in secs.items():
        print(f"{label:>16}{t * 1e3:>12.1f}")

    orbits = _bench_orbits()
    print("\nscattering-flow orbits, compiled orbit against the Python loop"
          " (median of 5, ms per orbit):")
    if orbits is None:
        print("  no compiled orbit: the compiled leaves did not load")
    else:
        labels = list(next(iter(orbits.values())))
        print(f"{'':>16}" + "".join(f"{k:>14}" for k in labels))
        for name, vals in orbits.items():
            print(f"{name:>16}" + "".join(f"{vals[k] * 1e3:>14.2f}" for k in labels))

    from arnolddiff.model import ModelParams

    params = ModelParams(0.3, 0.1, 1.0, 1.0, 1.0, eps=1e-3)
    wall, n_rows = _bench_trace(params)
    print(f"\nintegrated workload (leaves: {kernels.BACKEND}):")
    print(f"  Highway trace I2 = -7 -> 0: {wall * 1e3:.1f} ms, {n_rows} recorded rows")


if __name__ == "__main__":
    main()
