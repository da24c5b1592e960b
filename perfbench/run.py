#!/usr/bin/env python3
"""Layered benchmark of the arnolddiff command line, run in-process.

Usage (from the repository root):

    python3 perfbench/run.py --workload portrait --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Load model: closed loop, one client, one thread.  An operation is one
``arnolddiff.cli.main([command, run.ini, --output-dir, dir])`` call on a run
file generated from the seed (see workloads.py); the next operation starts
when the previous one returns, until the operations have taken ``--seconds``
of wall time.  An untraced run hands the operation sequence to three fresh
interpreters in turn, a third of the time each: every CLI invocation pays
the interpreter's set-up (``setup_s`` is the median of the three), and the
throughput is averaged over three process memory layouts.  Every
operation's outputs are read back and checked; a non-zero exit, an exception
escaping ``main()`` or a failed check counts as a failed operation.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
operation twice, untraced and then with every layer's public functions
wrapped (spans.py), until the untraced runs have taken half the time; it
reports per-layer metrics over the first ``counted_ops`` traced operations
and the tracing overhead over all pairs.  ``--workload all`` runs every
workload both ways and prints everything.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A report with provenance, every
operation's CSV digests and failures, and (traced) the spans of the counted
operations is written under ``perfbench/out/``.  The exit code is 1 when
any operation failed.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKERS = 3        # fresh interpreters per untraced run, one after another
WORKER_TIMEOUT_S = 170.0
IMPORT_STMT = "import arnolddiff.cli"


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_import_layers():
    """Self import time per package from ``python -X importtime`` [s]."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", IMPORT_STMT],
        env=_child_env(), check=True, capture_output=True, text=True,
    )
    totals = {"numpy": 0, "scipy": 0, "arnolddiff": 0}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            self_us = int(parts[0].split(":")[1])
        except ValueError:
            continue   # the header line
        top = parts[2].strip().split(".")[0]
        if top in totals:
            totals[top] += self_us
    return {f"setup.{k}_import_s": v * 1e-6 for k, v in totals.items()}


def provenance():
    import numpy
    import scipy

    from arnolddiff import kernels

    sha = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "git_sha": sha,
        "kernel_backend": kernels.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


class OpRecord:
    def __init__(self, index):
        self.index = index
        self.wall = 0.0
        self.units = 0
        self.failures = []
        self.digests = {}
        self.bytes_out = 0

    def as_dict(self):
        return {"op": self.index, "wall_s": self.wall, "units": self.units,
                "failures": self.failures, "bytes_out": self.bytes_out,
                "csv_sha256": self.digests}

    @classmethod
    def from_dict(cls, d):
        rec = cls(d["op"])
        rec.wall, rec.units, rec.failures = d["wall_s"], d["units"], d["failures"]
        rec.bytes_out, rec.digests = d["bytes_out"], d["csv_sha256"]
        return rec


def _digest_outputs(outdir, rec):
    for name in sorted(os.listdir(outdir)):
        path = os.path.join(outdir, name)
        rec.bytes_out += os.path.getsize(path)
        if name.endswith(".csv"):
            with open(path, "rb") as fh:
                rec.digests[name] = hashlib.sha256(fh.read()).hexdigest()


def run_op(wl, seed, k, inst, workdir, tracer=None):
    """Generate, run and check operation k; returns its OpRecord."""
    from workloads import render_ini

    rec = OpRecord(k)
    params = wl.params(seed, k)
    ini = os.path.join(workdir, "run.ini")
    outdir = os.path.join(workdir, "op")
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    with open(ini, "w") as fh:
        fh.write(render_ini(params))
    argv = [wl.command, ini, "--output-dir", outdir]
    if tracer is not None:
        tracer.op = k
    t0 = time.perf_counter()
    try:
        rc = inst.run(argv)
    except Exception as exc:  # any escape from main() is a failed operation
        rec.wall = time.perf_counter() - t0
        rec.failures.append(f"exception:{type(exc).__name__}")
        return rec
    rec.wall = time.perf_counter() - t0
    if rc != 0:
        rec.failures.append(f"exit:{rc}")
        return rec
    _digest_outputs(outdir, rec)
    try:
        rec.units = wl.units(outdir, params)
        rec.failures.extend(wl.check(outdir, params, inst.captured))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        rec.failures.append(f"check:{type(exc).__name__}")
    return rec


def closed_loop(wl, seed, seconds, inst, workdir, first_op=0):
    """Operations first_op, first_op + 1, ... until their wall time reaches `seconds`."""
    recs = []
    busy = 0.0
    while busy < seconds or not recs:
        rec = run_op(wl, seed, first_op + len(recs), inst, workdir)
        recs.append(rec)
        busy += rec.wall
    return recs


def worker(args):
    """One fresh interpreter's share of an untraced run; prints a JSON record.

    Set-up time is taken from the parent's clock reading just before it
    started this interpreter (CLOCK_MONOTONIC is system-wide) to the end of
    ``import arnolddiff.cli``.
    """
    import arnolddiff.cli  # noqa: F401

    setup_s = time.perf_counter() - args.spawned_at
    from spans import Instrument
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    recs = closed_loop(wl, args.seed, args.seconds, Instrument(capture=wl.capture),
                       os.path.join(OUT, wl.name), args.first_op)
    print(json.dumps({
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": provenance(),
        "ops": [r.as_dict() for r in recs],
    }))
    return 0


def spawn_worker(wl, args, first_op, seconds):
    t_spawn = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", wl.name,
         "--seed", str(args.seed), "--seconds", repr(seconds),
         "--first-op", str(first_op), "--spawned-at", repr(t_spawn)],
        env=_child_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def op_tail(walls):
    """Highest percentile with >= 10 samples beyond it, or None."""
    n = len(walls)
    if n < 11:
        return None
    s = sorted(walls)
    return {"value": s[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}


def end_to_end(recs, setups, rss):
    """The metrics BENCHMARK.json bounds.  Latency (op_p50_s, op_tail_s) and
    fail_frac are reported beside them: fail_frac reads 0 on a healthy run,
    and the median operation time moves with the size of the operations a
    run happens to draw, so on pseudo_orbit it spreads wider across seeds
    than any bound the benchmark may set."""
    done = [r for r in recs if not r.failures]
    wall = sum(r.wall for r in recs)
    units = sum(r.units for r in done)
    return {
        "setup_s": statistics.median(setups),
        "units_per_s": units / wall if wall > 0.0 else 0.0,
        "peak_rss_mb": max(rss),
    }


E2E_UNITS = {"setup_s": "s", "units_per_s": "unit/s", "peak_rss_mb": "MB"}


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(stats, counts, units, bytes_out):
    """Per-layer metrics from the counted operations' span aggregates."""
    from spans import LAYERS, RKF78_STAGES, Stat

    def st(name):
        return stats.get(name) or Stat()

    def layer_self(layer):
        return sum(v.self_time for k, v in stats.items() if k.split(".")[0] == layer)

    m = {}
    for k in ("flow_rhs", "tau_star", "lstar", "lstar_grad", "full_rhs"):
        m[f"kernels.{k}.calls"] = (st(f"kernels.{k}").calls, "count")
    for k in ("flow_rhs", "tau_star", "lstar_grad", "full_rhs"):
        s = st(f"kernels.{k}")
        m[f"kernels.{k}.us_per_call"] = (1e6 * _ratio(s.total, s.calls), "us")
    tau = st("kernels.tau_star")
    iters = counts.get("kernels.tau_star.iters", 0)
    m["kernels.tau_star.iters"] = (iters, "count")
    m["kernels.tau_star.iters_per_call"] = (_ratio(iters, tau.calls), "count/call")

    steps = st("ode.rkf78_step").calls
    acc = counts.get("ode.accepted", 0)
    rej = counts.get("ode.rejected", 0)
    resteps = steps - acc - rej
    m["ode.steps"] = (steps, "count")
    m["ode.rhs_evals"] = (RKF78_STAGES * steps, "count")
    m["ode.rhs_evals_per_unit"] = (_ratio(RKF78_STAGES * steps, units), "count/unit")
    m["ode.accepted"] = (acc, "count")
    m["ode.rejected"] = (rej, "count")
    m["ode.event_resteps"] = (resteps, "count")
    m["ode.resteps_per_event"] = (_ratio(resteps, counts.get("ode.events", 0)), "count/event")
    m["ode.useful_step_frac"] = (_ratio(acc, steps), "ratio")
    m["ode.us_per_step"] = (1e6 * _ratio(layer_self("ode"), steps), "us")

    ps = st("scattering.poincare_section")
    m["scattering.poincare_section.s"] = (ps.total, "s")
    m["scattering.seed_adjust_s"] = (st("scattering.adjust_seed_to_level").total, "s")
    m["scattering.steps_per_crossing"] = (
        _ratio(ps.steps, counts.get("scattering.crossings", 0)), "count/crossing")

    tr = st("highway.highway_trace")
    m["highway.trace.calls"] = (tr.calls, "count")
    m["highway.integrations_per_trace"] = (
        _ratio(counts.get("highway.integrations", 0), tr.calls), "count/trace")
    m["highway.recorded_frac"] = (
        _ratio(counts.get("highway.recorded_steps", 0), tr.steps), "ratio")

    dist = st("diffusion.distance_to")
    m["diffusion.distance_to.calls"] = (dist.calls, "count")
    m["diffusion.distance_to.s"] = (dist.total, "s")
    for k in ("jumps", "waits", "detours"):
        m[f"diffusion.{k}"] = (counts.get(f"diffusion.{k}", 0), "count")
    m["diffusion.verify_jump.s"] = (st("diffusion.verify_jump").total, "s")

    for k in ("solve_tau_star", "psi", "reduced_poincare_grad"):
        m[f"melnikov.{k}.calls"] = (st(f"melnikov.{k}").calls, "count")

    erg = st("inner.ergodize")
    probes = counts.get("inner.probes", 0)
    m["inner.ergodize.calls"] = (erg.calls, "count")
    m["inner.probes"] = (probes, "count")
    m["inner.probes_per_wait"] = (_ratio(probes, erg.calls), "count/call")

    m["cli.bytes_out"] = (bytes_out, "bytes")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self(layer), "s")
    return m


def _fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def run_untraced(wl, args):
    """The run's time split over WORKERS fresh interpreters, one after another,
    each continuing the operation sequence where the previous one stopped."""
    recs, setups, rss = [], [], []
    prov = None
    for _ in range(WORKERS):
        res = spawn_worker(wl, args, len(recs), args.seconds / WORKERS)
        recs += [OpRecord.from_dict(d) for d in res["ops"]]
        setups.append(res["setup_s"])
        rss.append(res["peak_rss_mb"])
        prov = prov or res["provenance"]
    e2e = end_to_end(recs, setups, rss)
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    extra = {
        "op_p50_s": statistics.median(r.wall for r in recs),
        "op_tail_s": op_tail([r.wall for r in recs]),
        "fail_frac": sum(1 for r in recs if r.failures) / len(recs),
        "setup_samples_s": setups,
        "peak_rss_mb_by_worker": rss,
    }
    return recs, metrics, extra, prov


def run_traced(wl, args, workdir):
    """Each operation runs untraced, then traced, until the untraced runs
    have taken half the time; the pairs give the tracing overhead."""
    from spans import Instrument, Tracer

    plain = Instrument(capture=wl.capture)
    tracer = Tracer()
    inst = Instrument(tracer, capture=wl.capture)
    base, traced = [], []
    snap = None
    while sum(r.wall for r in base) < 0.5 * args.seconds or len(traced) < wl.counted_ops:
        k = len(base)
        base.append(run_op(wl, args.seed, k, plain, workdir))
        traced.append(run_op(wl, args.seed, k, inst, workdir, tracer))
        if k + 1 == wl.counted_ops:
            snap = tracer.snapshot()
    stats, counts = snap
    counted = traced[:wl.counted_ops]
    layer = per_layer(stats, counts, sum(r.units for r in counted),
                      sum(r.bytes_out for r in counted))
    layer.update({k: (v, "s") for k, v in measure_import_layers().items()})
    untraced_wall = sum(r.wall for r in base)
    traced_wall = sum(r.wall for r in traced)
    layer["trace.overhead_frac"] = (1.0 - _ratio(untraced_wall, traced_wall), "ratio")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    extra = {
        "counted_ops": wl.counted_ops,
        "paired_ops": len(base),
        "self_s_by_span": sorted(([k, v.self_time] for k, v in stats.items() if v.calls),
                                 key=lambda kv: -kv[1]),
        "spans": tracer.n_spans,
    }
    spans_csv = os.path.join(OUT, f"{wl.name}-spans.csv")
    tracer.write(spans_csv, range(wl.counted_ops))
    extra["spans_csv"] = os.path.relpath(spans_csv, ROOT)
    return base + traced, metrics, extra, provenance()


def listed_metrics(kind):
    """Metric names BENCHMARK.json lists under `kind`, or None without the file.

    The last output line carries exactly these; every metric is printed
    above it and kept in the report.
    """
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def run_workload(wl, args):
    workdir = os.path.join(OUT, wl.name)
    os.makedirs(workdir, exist_ok=True)
    if args.trace:
        recs, metrics, extra, prov = run_traced(wl, args, workdir)
    else:
        recs, metrics, extra, prov = run_untraced(wl, args)
    failed = [r for r in recs if r.failures]
    by_type = {}
    for r in failed:
        for f in r.failures:
            by_type[f] = by_type.get(f, 0) + 1
    report = {
        "provenance": {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "operations": len(recs), **prov},
        "workload": {"name": wl.name, "command": wl.command, "unit": wl.unit,
                     "loads": list(wl.loads), "predicted_no_change": list(wl.bypasses)},
        "metrics": metrics,
        "extra": extra,
        "failures_by_type": by_type,
        "ops": [r.as_dict() for r in recs],
    }
    path = os.path.join(OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)

    print(f"workload {wl.name} ({wl.command}, unit: {wl.unit}) trace={args.trace} "
          f"seed={args.seed} backend={report['provenance']['kernel_backend']} "
          f"ops={len(recs)} failed={len(failed)}")
    for name, m in metrics.items():
        unit = f"{wl.unit}/s" if name == "units_per_s" else m["unit"]
        print(f"  {name:34s} {_fmt(m['value']):>14s} {unit}")
    if not args.trace:
        print(f"  {'op_p50_s':34s} {_fmt(extra['op_p50_s']):>14s} s")
        tail = extra["op_tail_s"]
        print(f"  {'op_tail_s':34s} " + (
            f"{_fmt(tail['value']):>14s} s (p{tail['percentile']:.1f} of {tail['samples']} ops)"
            if tail else f"{'omitted':>14s} ({len(recs)} ops < 11)"))
        print(f"  {'fail_frac':34s} {_fmt(extra['fail_frac']):>14s} ratio")
    for kind, n in sorted(by_type.items()):
        print(f"  FAILED {kind}: {n} op(s)")
    print(f"  report: {os.path.relpath(path, ROOT)}")
    listed = listed_metrics("per_layer" if args.trace else "end_to_end")
    return {"correct": not failed, "attempted": len(recs), "failed": len(failed),
            "metrics": metrics if listed is None else {k: metrics[k] for k in listed}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--first-op", type=int, default=None, help=argparse.SUPPRESS)
    ap.add_argument("--spawned-at", type=float, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "arnolddiff")):
        print(f"no arnolddiff sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    if args.first_op is not None:
        return worker(args)
    if args.workload != "all":
        result = run_workload(WORKLOADS[args.workload], args)
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, wl in WORKLOADS.items():
        for trace in (0, 1):
            sub = argparse.Namespace(**{**vars(args), "workload": name, "trace": trace})
            res = run_workload(wl, sub)
            total["correct"] = total["correct"] and res["correct"]
            total["attempted"] += res["attempted"]
            total["failed"] += res["failed"]
            for k, m in res["metrics"].items():
                if trace == 0 or k == "trace.overhead_frac":
                    total["metrics"][f"{name}.{k}"] = m
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
