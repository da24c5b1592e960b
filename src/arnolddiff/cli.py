"""Command-line front end: one subcommand per experiment, CSV + JSON out.

Every subcommand takes a run-configuration file (INI sections, see
config.RunConfig).  The file is checked against config.SCHEMA before the
output directory is created, and each command reads its section's typed
values with ``cfg.values(section)``.  A command that integrates is handed
one IntegratorConfig: the defaults of the flow it integrates (``COMMANDS``),
amended by the file's [integrator] keys.

A command ``cmd_*(cfg, integrator)`` only computes: it returns
``(tables, summary)``, where ``tables`` maps each CSV file name to
``(header, rows)`` (the rows may be a generator) and ``summary`` is the
JSON-ready dict of ``<command>_summary.json``.  ``run`` alone writes into
the output directory: each table with ``_write_csv`` (17 significant digits
for floats; the file appears only once its last row is out), then the
summary, then the metadata record with the config hash.  The command's
previous metadata record is removed before it computes, so outputs
without a record do not belong to a run that succeeded.

Exit codes: 0 ok, 2 config error, 3 domain error, 4 invariant violation.
"""

import argparse
import contextlib
import csv
import dataclasses
import functools
import itertools
import math
import os
import sys

from . import __version__, diffusion, highway, inner, kernels, melnikov, scattering
from .config import RunConfig, write_json, write_metadata
from .errors import ArnolddiffError, ConfigError, InvariantViolation
from .model import TWO_PI, ModelParams, hamiltonian, rhs, separatrix
from .numerics import linspace
from .ode import IntegratorConfig


# The %-conversion of a cell on _write_csv's fast path, by its type: what
# csv.writer would write for the cell's "{:.17g}" or str() text.  Only a
# str cell can hold what csv quotes, so it also has to be _plain.
_CELL_FORMATS = {float: "%.17g", int: "%s", bool: "%s", type(None): "%s", str: "%s"}
_QUOTED = frozenset(',"\r\n')


def _plain(s):
    """Whether csv.writer writes the str cell s as it is: s is not empty (a
    lone empty cell is quoted) and holds no delimiter, quote or line break."""
    return s != "" and _QUOTED.isdisjoint(s)


def _cells(row):
    return [f"{v:.17g}" if isinstance(v, float) else str(v) for v in row]


def _write_csv(path, header, rows):
    """Write one table, floats with 17 significant digits and the rest by str.

    Rows are written as they come, never held.  The cell types of the first
    row fix one %-format for the table (``%.17g`` for a float, ``%s`` for an
    int, bool, None or str), and a row with the same types whose str cells
    csv would not quote is written as ``fmt % tuple(row)`` plus csv's
    ``\r\n``: the bytes ``csv.writer`` writes for it, without its per-cell
    work.  Every other row, and every row of a table whose first row has a
    cell of another type, goes through ``csv.writer``.

    The rows go to a temporary file that replaces ``path`` once the last one
    is out, so a command that fails part-way leaves no CSV behind.
    """
    part = path + ".part"
    try:
        with open(part, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            _write_rows(fh.write, w, iter(rows))
        os.replace(part, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(part)
        raise


def _write_rows(write, w, rows):
    """``_write_csv``'s rows: by ``fmt % tuple(row)`` where it may, else by ``w``."""
    first = next(rows, None)
    if first is None:
        return
    # lists, not tuples: tuple(map(...)) is allocated larger and shrunk, so
    # one per row would fill the tuple free list of the row's length
    types = [*map(type, first)]
    rows = itertools.chain((first,), rows)
    if not all(t in _CELL_FORMATS for t in types):
        w.writerows(map(_cells, rows))
        return
    fmt = ",".join(_CELL_FORMATS[t] for t in types) + "\r\n"
    strs = [k for k, t in enumerate(types) if t is str]
    for row in rows:
        if [*map(type, row)] == types:
            for k in strs:
                if not (row[k].isalnum() or _plain(row[k])):
                    break
            else:
                write(fmt % tuple(row))
                continue
        w.writerow(_cells(row))


def cmd_crest(cfg, integrator):
    params = cfg.model_params()
    v = cfg.values("crest")
    i1, i2, n = v["i1"], v["i2"], v["grid"]
    info = melnikov.classify_crest(i1, i2, params)
    ph = linspace(0.0, TWO_PI, n, endpoint=False)
    if info.kind == melnikov.VERTICAL:
        header = ["phi_other[rad]", "s[rad]", "phi_M[rad]", "phi_m[rad]", "valid"]
        branch = info.eta
    else:
        header = ["phi1[rad]", "phi2[rad]", "s_M[rad]", "s_m[rad]", "valid"]
        w1, w2 = params.frequencies(i1, i2)

        def branch(k, p1, p2):
            return kernels.branch_offset(k, w1, w2, params.mu1, params.mu2, p1, p2)

    def rows():
        for a in ph:
            for b in ph:
                try:
                    values = [branch(0, a, b), branch(1, a, b), 1]
                except ValueError:
                    values = [0.0, 0.0, 0]
                yield [a, b, *values]

    return {"crest.csv": (header, rows())}, {
        "kind": info.kind, "vertical_component": info.vertical_component,
        "tangency_possible": info.tangency_possible,
        "tangency_margin": info.tangency_margin,
    }


def cmd_tau(cfg, integrator):
    params = cfg.model_params()
    v = cfg.values("tau")
    i1, i2, n = v["i1"], v["i2"], v["grid"]
    th = linspace(0.0, TWO_PI, n, endpoint=False)

    def rows():
        for t1 in th:
            for t2 in th:
                z = (i1, i2, t1, t2)
                r0 = melnikov.solve_tau_star(0, z, params)
                r1 = melnikov.solve_tau_star(1, z, params)
                l0 = melnikov.reduced_poincare(0, z, params, guess=r0.value)
                l1 = melnikov.reduced_poincare(1, z, params, guess=r1.value)
                yield [t1, t2, r0.value, l0, r0.residual, r1.value, l1, r1.residual]

    header = ["theta1[rad]", "theta2[rad]", "tau0[time]", "lstar0[energy]", "res0[energy]",
              "tau1[time]", "lstar1[energy]", "res1[energy]"]
    return {"tau.csv": (header, rows())}, {"i1": i1, "i2": i2, "grid": n}


def cmd_poincare(cfg, integrator):
    params = cfg.model_params()
    v = cfg.values("poincare")
    j, lp = v["branch"], v["level_point"]
    th1g = lp[2] if v["theta1_guess"] is None else v["theta1_guess"]
    i1s = lp[0] if v["seed_i1"] is None else v["seed_i1"]
    i2s = lp[1] if v["seed_i2"] is None else v["seed_i2"]
    level = melnikov.reduced_poincare(j, lp, params)
    seeds = [
        (i1s, i2s, th1g, t2) for t2 in linspace(v["theta2_lo"], v["theta2_hi"], v["n_seeds"])
    ]
    pts = scattering.poincare_section(
        j, level, v["section_i1"], seeds, v["t_max"], params,
        max_crossings=v["max_crossings"], cfg=integrator,
    )
    counts = {}
    for p in pts:
        counts[p.orbit] = counts.get(p.orbit, 0) + 1
    table = (["orbit", "t[time]", "I2[action]", "theta2[rad]"],
             ([p.orbit, p.t, p.i2, p.theta2] for p in pts))
    return {"poincare.csv": table}, {
        "level": level, "orbits": len(seeds), "crossings": len(pts),
        "crossings_per_orbit": [counts.get(k, 0) for k in range(len(seeds))],
        "bbox_theta2": [min(p.theta2 for p in pts), max(p.theta2 for p in pts)],
        "bbox_I2": [min(p.i2 for p in pts), max(p.i2 for p in pts)],
    }


def cmd_highway(cfg, integrator):
    params = cfg.model_params()
    v = cfg.values("highway")
    if v["i2_to"] == v["i2_from"]:
        raise ConfigError("[highway] i2_to must differ from i2_from")
    seeds = linspace(v["i1_lo"], v["i1_hi"], v["n_seeds"])
    fam = highway.trace_family_between_sections(
        seeds, v["i2_from"], v["i2_to"], params, cfg=integrator, drift_tol=v["drift_tol"])
    orbit_rows = (
        [k, t, *state, tau, lstar]
        for k, (orb, _T) in enumerate(fam)
        for t, state, tau, lstar in zip(orb.t, orb.states, orb.tau, orb.lstar)
    )
    orbit_header = ["orbit", "t[time]", "I1[action]", "I2[action]", "theta1[rad]",
                    "theta2[rad]", "tau_star[time]", "lstar[energy]"]
    times = ([s, T] for s, (_orb, T) in zip(seeds, fam))
    tables = {"highway_orbits.csv": (orbit_header, orbit_rows),
              "highway_times.csv": (["seed_I1[action]", "transit_time[time]"], times)}
    slope, off_far, off_near = highway.highway_asymptote(params)
    return tables, {
        "level": highway.level_value(params),
        "max_level_error": max(orb.level_error for orb, _ in fam),
        "asymptote_slope": slope, "asymptote_offset_far": off_far,
        "asymptote_offset_near": off_near, "transit_times": [T for _, T in fam],
    }


def cmd_diffuse(cfg, integrator):
    import numpy as np  # np.histogram's bin edges and counts: array work

    params = cfg.model_params()
    v = cfg.values("diffuse")
    wp, delta, eps = v["waypoints"], v["delta"], v["eps"]
    try:
        params.require_diffusion_regime()
        path = diffusion.stairstep(diffusion.ActionPath(wp, delta))
    except ValueError as exc:
        raise ConfigError(f"bad [diffuse] run: {exc}") from None
    if eps <= 0.0:
        bound = max(abs(c) for p in wp for c in p) + 1.0
        eps0, _ = diffusion.epsilon_threshold(path, delta, bound, params)
        eps = min(0.5 * eps0, 1e-3)
    start = (*wp[0], v["theta1"], v["theta2"])
    orb = diffusion.build_pseudo_orbit(path, start, params, eps=eps)
    waits = [s.dt for s in orb.steps if s.kind == "I" and s.dt > 0.0]
    hist_rows = []
    if waits:
        hist, edges = np.histogram(waits, bins=16)
        hist_rows = [[float(lo), float(hi), int(c)]
                     for c, lo, hi in zip(hist, edges[:-1], edges[1:])]
    orbit_header = ["step", "kind", "I1[action]", "I2[action]", "theta1[rad]", "theta2[rad]",
                    "dt[time]", "dist_to_path[action]"]
    orbit_rows = ([k, s.kind, *s.state, s.dt, s.dist] for k, s in enumerate(orb.steps))
    tables = {"diffuse_orbit.csv": (orbit_header, orbit_rows),
              "diffuse_wait_hist.csv": (["bin_lo[time]", "bin_hi[time]", "count"], hist_rows)}
    ns_eps, t_quad = diffusion.step_accounting(orb, params)
    return tables, {
        "eps": eps, "n_scatter": orb.n_scatter, "n_inner": orb.n_inner,
        "n_detour": orb.n_detour, "inner_time": orb.inner_time,
        "max_deviation": orb.max_deviation, "final_gap": orb.meta["final_gap"],
        "Ns_times_eps": ns_eps, "segment_quadrature_time": t_quad,
    }


def cmd_melnikov_verify(cfg, integrator):
    params = cfg.model_params()
    v = cfg.values("verify")
    st, j, eps_list = v["state"], v["branch"], v["eps_list"]
    checks = [diffusion.verify_scattering_jump(st, j, eps, params, cfg=integrator)
              for eps in eps_list]
    rows = [[eps, *c.measured, *c.predicted, c.discrepancy, c.excursion_time]
            for eps, c in zip(eps_list, checks)]
    header = ["eps", "measured_dI1[action]", "measured_dI2[action]", "predicted_dI1[action]",
              "predicted_dI2[action]", "discrepancy[action]", "excursion_T[time]"]
    summ = {"state": st, "branch": j, "eps": eps_list,
            "discrepancies": [c.discrepancy for c in checks]}
    if len(checks) >= 2 and checks[1].discrepancy > 0:
        summ["ratio_first_two"] = checks[0].discrepancy / checks[1].discrepancy
    return {"melnikov-verify.csv": (header, rows)}, summ


def cmd_time_estimate(cfg, integrator):
    params = cfg.model_params()
    try:
        params.require_diffusion_regime()
    except ValueError as exc:
        raise ConfigError(f"bad [time] run: {exc}") from None
    v = cfg.values("time")
    i1, i2, eps = v["seed_i1"], v["seed_i2"], v["eps"]
    i1_stop = i1 + 1.3 if v["i1_stop"] is None else v["i1_stop"]
    w0 = params.Omega1 * (i1 + 0.02) if v["omega_lo"] is None else v["omega_lo"]
    wf = params.Omega1 * (i1_stop - 0.05) if v["omega_hi"] is None else v["omega_hi"]
    if not w0 < wf:
        raise ConfigError(f"[time] omega window is empty or reversed: omega_lo = {w0!r} "
                          f"is not below omega_hi = {wf!r}")
    st, _res = highway.highway_seed(i1, i2, params)
    orb = highway.highway_trace(
        st, params, stop=(0, i1_stop, +1),
        cfg=integrator, drift_tol=1e-6,
    )
    est = diffusion.time_estimate((w0, wf), orb, eps, params)
    table = (["T_s[time]", "T_h[time]", "C[energy]", "T_d[time]", "eps", "omega_lo[freq]",
              "omega_hi[freq]"],
             [[est.T_s, est.T_h, est.C, est.T_d, est.eps, w0, wf]])
    return {"time-estimate.csv": table}, {
        "T_s": est.T_s, "T_h": est.T_h, "C": est.C, "T_d": est.T_d, "eps": eps,
        "b_exponent": est.b_exponent, **est.meta,
    }


def cmd_check(cfg, integrator):
    """Invariant suite; prints one PASS/FAIL line per check."""
    import numpy as np  # default_rng's stream picks the checked states

    params = cfg.model_params()
    if params.eps == 0.0:
        params = dataclasses.replace(params, eps=1e-3)
    rng = np.random.default_rng(cfg.seed())
    lines = []

    def gate(name, ok, detail=""):
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")

    # invariant-set invariance of the full field
    worst = 0.0
    f = rhs(params)
    for _ in range(20):
        x = (0.0, 0.0, *rng.uniform(-3, 3, 2).tolist(), *rng.uniform(0, TWO_PI, 3).tolist())
        d = f(0.0, x)
        worst = max(worst, abs(d[0]), abs(d[1]))
    gate("invariant-set (p=q=0) is flow-invariant", worst == 0.0, f"max|pdot,qdot|={worst:.1e}")

    worst = max(
        abs(hamiltonian([*separatrix(t), 0, 0, 0, 0, 0], ModelParams(1, 1, 1.0)))
        for t in (-5.0, -1.0, 0.0, 1.0, 5.0)
    )
    gate("separatrix on zero energy level", worst < 1e-14, f"max|H0|={worst:.1e}")

    worst = 0.0
    for _ in range(3):
        i1, i2 = rng.uniform(-2, 2, 2).tolist()
        p1, p2, s = rng.uniform(0, TWO_PI, 3).tolist()
        v1 = melnikov.melnikov_potential(i1, i2, p1, p2, s, params)
        v2 = melnikov.melnikov_potential_quadrature(i1, i2, p1, p2, s, params)
        worst = max(worst, abs(v1 - v2))
    gate("splitting potential matches separatrix quadrature", worst < 1e-8, f"max diff={worst:.1e}")

    sup_a, sup_wa = melnikov.scan_alpha_bounds(span=20.0, step=1e-3)
    ok = sup_a <= kernels.ALPHA_SUP and sup_wa <= kernels.OMEGA_ALPHA_SUP
    gate(
        "certified bounds on |alpha| and |w alpha|",
        ok,
        f"sup|a|={sup_a:.7f}<={kernels.ALPHA_SUP}, sup|wa|={sup_wa:.7f}<={kernels.OMEGA_ALPHA_SUP}",
    )

    worst = 0.0
    worst_sep = 0.0
    for _ in range(100):
        z = (*rng.uniform(-5, 5, 2).tolist(), *rng.uniform(0, TWO_PI, 2).tolist())
        w1, w2 = params.frequencies(z[0], z[1])
        r0 = melnikov.solve_tau_star(0, z, params)
        r1 = melnikov.solve_tau_star(1, z, params)
        A = melnikov.melnikov_coeffs(z[0], z[1], params)
        res19 = (
            w1 * A.A1 * math.sin(z[2] - w1 * r0.value)
            + w2 * A.A2 * math.sin(z[3] - w2 * r0.value)
            + A.A3 * math.sin(-r0.value)
        )
        worst = max(worst, abs(res19))
        worst_sep = max(worst_sep, abs(abs(r1.value - r0.value) - math.pi))
    gate("crossing-time residuals on random states", worst < 1e-10, f"max|res|={worst:.1e}")
    gate("branch separation ~ pi", worst_sep < 1.4, f"max||d|-pi|={worst_sep:.2f}")

    worst = 0.0
    for _ in range(10):
        z = (*rng.uniform(-4, 4, 2).tolist(), *rng.uniform(0, TWO_PI, 2).tolist())
        _v, _tau, dI, dTH = melnikov.reduced_poincare_grad(0, z, params)
        h = 1e-6
        for k, an in enumerate((*dI, *dTH)):
            zp, zm = list(z), list(z)
            zp[k] += h
            zm[k] -= h
            fd = (
                melnikov.reduced_poincare(0, zp, params)
                - melnikov.reduced_poincare(0, zm, params)
            ) / (2 * h)
            worst = max(worst, abs(an - fd) / max(1.0, abs(an)))
    gate("analytic gradients vs central differences", worst < 1e-6, f"max rel={worst:.1e}")

    worst = 0.0
    for _ in range(20):
        z = (*rng.uniform(-4, 4, 2).tolist(), *rng.uniform(0, TWO_PI, 2).tolist())
        ps, _ts = melnikov.psi(0, z, params)
        back = melnikov.psi_inverse(0, z[0], z[1], *ps, params)
        d = max(abs((b - a + math.pi) % TWO_PI - math.pi) for b, a in zip(back, z[2:]))
        worst = max(worst, d)
    gate("psi inversion round-trip", worst < 1e-10, f"max={worst:.1e}")

    cls = [
        melnikov.classify_crest(1.0, 1.0, ModelParams(m1, m2, 1.0), check_tangency=False).kind
        for (m1, m2) in ((0.4, 0.4), (1.7, 0.4), (0.8, 0.4))
    ]
    gate(
        "crest classification triple",
        cls == [melnikov.HORIZONTAL, melnikov.VERTICAL, melnikov.UNSEPARATED],
        str(cls),
    )

    x = (*rng.uniform(-2, 2, 2).tolist(), *rng.uniform(0, TWO_PI, 2).tolist(), 0.0)
    tr = inner.inner_flow(x, 50.0, params, cfg=integrator)
    f_before = inner.first_integrals(x, params)
    f_after = inner.first_integrals(tr, params)
    drift = max(abs(f_before[0] - f_after[0]), abs(f_before[1] - f_after[1]))
    gate("rotor integrals conserved by inner flow", drift < 1e-10, f"drift={drift:.1e}")

    print("\n".join(lines))
    return {}, {"failures": sum(line.startswith("FAIL") for line in lines), "lines": lines}


# command -> (function, the run-file section it reads besides [model],
# [integrator] and [run], the integrator settings [integrator] amends)
COMMANDS = {
    "crest": (cmd_crest, "crest", IntegratorConfig()),
    "tau": (cmd_tau, "tau", IntegratorConfig()),
    "poincare": (cmd_poincare, "poincare", scattering.SECTION_INTEGRATOR),
    "highway": (cmd_highway, "highway", highway.TRACE_INTEGRATOR),
    "diffuse": (cmd_diffuse, "diffuse", IntegratorConfig()),
    "melnikov-verify": (cmd_melnikov_verify, "verify", diffusion.EXCURSION_INTEGRATOR),
    "time-estimate": (cmd_time_estimate, "time", highway.TRACE_INTEGRATOR),
    "check": (cmd_check, None, IntegratorConfig()),
}


def run(command, cfg, outdir_override=None):
    """Validate cfg for the command, run it, then write all of its outputs.

    The command's earlier metadata record is removed before it computes.
    A ConfigError from the command's own checks removes the directories
    that making the output directory created, as long as they are empty.
    The tables come first, then the summary; a summary that reports failed
    checks raises InvariantViolation before the metadata record is written,
    so a record is present only after a run that succeeded.
    """
    fn, section, base = COMMANDS[command]
    integrator = cfg.validate(section, base)
    outdir, made = cfg.output_dir(outdir_override)
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(outdir, f"{command}_metadata.json"))
    try:
        tables, summary = fn(cfg, integrator)
    except ConfigError:
        # a command's own check: leave no output directory, as a schema error does
        for d in made:
            with contextlib.suppress(OSError):   # no longer empty
                os.rmdir(d)
        raise
    for name, (header, rows) in tables.items():
        _write_csv(os.path.join(outdir, name), header, rows)
    write_json(os.path.join(outdir, f"{command}_summary.json"), command, summary)
    if summary.get("failures"):
        raise InvariantViolation(f"{summary['failures']} invariant check(s) failed")
    write_metadata(outdir, command, cfg, integrator)
    return 0


@functools.cache
def _parser():
    """The argument parser, built once per process: building its eight
    subparsers costs about 1 ms, some forty times what a parse costs."""
    ap = argparse.ArgumentParser(
        prog="arnolddiff",
        description="Crest, scattering-map, Highway and pseudo-orbit experiments "
        "for the pendulum + two-rotor system",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", help="run configuration file (INI sections)")
        p.add_argument("--output-dir", default=None, help="override the output directory")
    return ap


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        cfg = RunConfig.load(args.config)
        return run(args.command, cfg, args.output_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4
    except ArnolddiffError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
