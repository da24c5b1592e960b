"""Command-line front end: one subcommand per experiment, CSV + JSON out.

Every subcommand takes a run-configuration file (INI sections, see
config.RunConfig) and writes deterministic artifacts into the output
directory: data CSVs with 17-significant-digit values, a JSON summary, and
a metadata record with the config hash.

Exit codes: 0 ok, 2 config error, 3 domain error, 4 invariant violation.
"""

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import __version__, diffusion, highway, inner, kernels, melnikov, scattering
from .config import RunConfig, write_metadata
from .errors import ArnolddiffError, ConfigError, InvariantViolation
from .model import TWO_PI, ModelParams, hamiltonian, separatrix, vector_field, wrap_angle
from .ode import IntegratorConfig


def _writer(path):
    fh = open(path, "w", newline="")
    return fh, csv.writer(fh)


def _row(w, values):
    w.writerow([f"{v:.17g}" if isinstance(v, float) else str(v) for v in values])


def _summary(outdir, command, data):
    path = os.path.join(outdir, f"{command}_summary.json")
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
    return path


def cmd_crest(cfg, outdir):
    params = cfg.model_params()
    i1 = cfg.get("crest", "i1", float)
    i2 = cfg.get("crest", "i2", float)
    n = cfg.get("crest", "grid", int, default=128)
    info = melnikov.classify_crest(i1, i2, params)
    ph = np.linspace(0.0, TWO_PI, n, endpoint=False)
    path = os.path.join(outdir, "crest.csv")
    fh, w = _writer(path)
    with fh:
        if info.kind == melnikov.VERTICAL:
            w.writerow(["phi_other[rad]", "s[rad]", "phi_M[rad]", "phi_m[rad]", "valid"])
            for pj in ph:
                for s in ph:
                    try:
                        eM = info.eta(0, pj, s)
                        em = info.eta(1, pj, s)
                        _row(w, [float(pj), float(s), float(eM), float(em), 1])
                    except ValueError:
                        _row(w, [float(pj), float(s), 0.0, 0.0, 0])
        else:
            w.writerow(["phi1[rad]", "phi2[rad]", "s_M[rad]", "s_m[rad]", "valid"])
            w1, w2 = params.frequencies(i1, i2)
            for p1 in ph:
                for p2 in ph:
                    try:
                        s0 = kernels.branch_offset(0, w1, w2, params.mu1, params.mu2, p1, p2)
                        s1 = kernels.branch_offset(1, w1, w2, params.mu1, params.mu2, p1, p2)
                        _row(w, [float(p1), float(p2), float(s0), float(s1), 1])
                    except ValueError:
                        _row(w, [float(p1), float(p2), 0.0, 0.0, 0])
    _summary(
        outdir,
        "crest",
        {
            "kind": info.kind,
            "vertical_component": info.vertical_component,
            "tangency_possible": info.tangency_possible,
            "tangency_margin": float(melnikov.tangency_margin(i1, i2, params)),
        },
    )
    return 0


def cmd_tau(cfg, outdir):
    params = cfg.model_params()
    i1 = cfg.get("tau", "i1", float)
    i2 = cfg.get("tau", "i2", float)
    n = cfg.get("tau", "grid", int, default=64)
    th = np.linspace(0.0, TWO_PI, n, endpoint=False)
    path = os.path.join(outdir, "tau.csv")
    fh, w = _writer(path)
    with fh:
        w.writerow(
            ["theta1[rad]", "theta2[rad]", "tau0[time]", "lstar0[energy]", "res0[energy]",
             "tau1[time]", "lstar1[energy]", "res1[energy]"]
        )
        for t1 in th:
            for t2 in th:
                r0 = melnikov.solve_tau_star(0, (i1, i2, t1, t2), params)
                r1 = melnikov.solve_tau_star(1, (i1, i2, t1, t2), params)
                l0 = melnikov.reduced_poincare(0, (i1, i2, t1, t2), params, guess=r0.value)
                l1 = melnikov.reduced_poincare(1, (i1, i2, t1, t2), params, guess=r1.value)
                _row(w, [float(t1), float(t2), r0.value, l0, r0.residual, r1.value, l1, r1.residual])
    _summary(outdir, "tau", {"i1": i1, "i2": i2, "grid": n})
    return 0


def cmd_poincare(cfg, outdir):
    params = cfg.model_params()
    g = cfg.get
    j = g("poincare", "branch", int, default=0)
    try:
        lp = [float(x) for x in g("poincare", "level_point", str).split(",")]
    except ValueError:
        lp = []
    if len(lp) != 4:
        raise ConfigError("[poincare] level_point needs four numbers I1,I2,theta1,theta2")
    sec = g("poincare", "section_i1", float, default=0.0)
    lo = g("poincare", "theta2_lo", float)
    hi = g("poincare", "theta2_hi", float)
    n = g("poincare", "n_seeds", int, default=20)
    th1g = g("poincare", "theta1_guess", float, default=lp[2])
    t_max = g("poincare", "t_max", float, default=600.0)
    mc = g("poincare", "max_crossings", int, default=60)
    i1s = g("poincare", "seed_i1", float, default=lp[0])
    i2s = g("poincare", "seed_i2", float, default=lp[1])
    if not all(math.isfinite(v) for v in (*lp, sec, lo, hi, th1g, t_max, i1s, i2s)):
        raise ConfigError("non-finite value in [poincare]")
    if n < 1 or mc < 1:
        raise ConfigError("[poincare] n_seeds and max_crossings must be >= 1")
    if t_max == 0.0:
        raise ConfigError("[poincare] t_max must be nonzero")
    level = melnikov.reduced_poincare(j, lp, params)
    seeds = [(i1s, i2s, th1g, t2) for t2 in np.linspace(lo, hi, n)]
    pts = scattering.poincare_section(
        j, level, sec, seeds, t_max, params, max_crossings=mc, cfg=cfg.integrator(h_max=10.0)
    )
    path = os.path.join(outdir, "poincare.csv")
    fh, w = _writer(path)
    with fh:
        w.writerow(["orbit", "t[time]", "I2[action]", "theta2[rad]"])
        for p in pts:
            _row(w, [p.orbit, p.t, p.i2, p.theta2])
    counts = {}
    for p in pts:
        counts[p.orbit] = counts.get(p.orbit, 0) + 1
    _summary(
        outdir,
        "poincare",
        {
            "level": level,
            "orbits": len(seeds),
            "crossings": len(pts),
            "crossings_per_orbit": [counts.get(k, 0) for k in range(len(seeds))],
            "bbox_theta2": [min(p.theta2 for p in pts), max(p.theta2 for p in pts)],
            "bbox_I2": [min(p.i2 for p in pts), max(p.i2 for p in pts)],
        },
    )
    return 0


def cmd_highway(cfg, outdir):
    params = cfg.model_params()
    g = cfg.get
    i2_from = g("highway", "i2_from", float, default=-7.0)
    i2_to = g("highway", "i2_to", float, default=7.0)
    lo = g("highway", "i1_lo", float, default=7.0)
    hi = g("highway", "i1_hi", float, default=9.0)
    n = g("highway", "n_seeds", int, default=5)
    drift_tol = g("highway", "drift_tol", float, default=1e-7)
    if not all(math.isfinite(v) for v in (i2_from, i2_to, lo, hi, drift_tol)):
        raise ConfigError("non-finite value in [highway]")
    if n < 1:
        raise ConfigError("[highway] n_seeds must be >= 1")
    if i2_to == i2_from:
        raise ConfigError("[highway] i2_to must differ from i2_from")
    if drift_tol <= 0.0:
        raise ConfigError("[highway] drift_tol must be > 0")
    seeds = np.linspace(lo, hi, n)
    fam = highway.trace_family_between_sections(
        seeds, i2_from, i2_to, params,
        cfg=cfg.integrator(h_max=5e4, max_steps=4_000_000), drift_tol=drift_tol,
    )
    p_orb = os.path.join(outdir, "highway_orbits.csv")
    fh, w = _writer(p_orb)
    with fh:
        w.writerow(["orbit", "t[time]", "I1[action]", "I2[action]", "theta1[rad]",
                    "theta2[rad]", "tau_star[time]", "lstar[energy]"])
        for k, (orb, _T) in enumerate(fam):
            for i in range(len(orb.t)):
                _row(
                    w,
                    [k, float(orb.t[i]), float(orb.states[i, 0]), float(orb.states[i, 1]),
                     float(orb.states[i, 2]), float(orb.states[i, 3]), float(orb.tau[i]),
                     float(orb.lstar[i])],
                )
    p_time = os.path.join(outdir, "highway_times.csv")
    fh, w = _writer(p_time)
    with fh:
        w.writerow(["seed_I1[action]", "transit_time[time]"])
        for s, (_orb, T) in zip(seeds, fam):
            _row(w, [float(s), float(T)])
    slope, off_far, off_near = highway.highway_asymptote(params)
    _summary(
        outdir,
        "highway",
        {
            "level": highway.level_value(params),
            "max_level_error": max(orb.level_error for orb, _ in fam),
            "asymptote_slope": slope,
            "asymptote_offset_far": off_far,
            "asymptote_offset_near": off_near,
            "transit_times": [T for _, T in fam],
        },
    )
    return 0


def cmd_diffuse(cfg, outdir):
    params = cfg.model_params()
    g = cfg.get
    wp = _parse_waypoints(g("diffuse", "waypoints", str))
    delta = g("diffuse", "delta", float, default=0.1)
    eps = g("diffuse", "eps", float, default=0.0)
    th1 = g("diffuse", "theta1", float, default=2.0)
    th2 = g("diffuse", "theta2", float, default=4.4)
    if not all(math.isfinite(v) for v in (eps, th1, th2)):
        raise ConfigError("non-finite eps, theta1 or theta2 in [diffuse]")
    try:
        params.require_diffusion_regime()
        path = diffusion.stairstep(diffusion.ActionPath(wp, delta))
    except ValueError as exc:
        raise ConfigError(f"bad [diffuse] run: {exc}") from None
    if eps <= 0.0:
        eps0, parts = diffusion.epsilon_threshold(path, delta, float(np.abs(wp).max()) + 1.0, params)
        eps = min(0.5 * eps0, 1e-3)
    start = np.array([wp[0][0], wp[0][1], th1, th2])
    orb = diffusion.build_pseudo_orbit(path, start, params, eps=eps)
    pa = os.path.join(outdir, "diffuse_orbit.csv")
    fh, w = _writer(pa)
    with fh:
        w.writerow(["step", "kind", "I1[action]", "I2[action]", "theta1[rad]",
                    "theta2[rad]", "dt[time]", "dist_to_path[action]"])
        for k, s in enumerate(orb.steps):
            _row(
                w,
                [k, s.kind, float(s.state[0]), float(s.state[1]),
                 float(s.state[2]), float(s.state[3]), float(s.dt), float(s.dist)],
            )
    waits = [s.dt for s in orb.steps if s.kind == "I" and s.dt > 0.0]
    ph = os.path.join(outdir, "diffuse_wait_hist.csv")
    fh, w = _writer(ph)
    with fh:
        w.writerow(["bin_lo[time]", "bin_hi[time]", "count"])
        if waits:
            hist, edges = np.histogram(waits, bins=16)
            for c, lo, hi in zip(hist, edges[:-1], edges[1:]):
                _row(w, [float(lo), float(hi), int(c)])
    ns_eps, t_quad = diffusion.step_accounting(orb, params)
    _summary(
        outdir,
        "diffuse",
        {
            "eps": eps,
            "n_scatter": orb.n_scatter,
            "n_inner": orb.n_inner,
            "n_detour": orb.n_detour,
            "inner_time": orb.inner_time,
            "max_deviation": orb.max_deviation,
            "final_gap": orb.meta["final_gap"],
            "Ns_times_eps": ns_eps,
            "segment_quadrature_time": t_quad,
        },
    )
    return 0


def cmd_melnikov_verify(cfg, outdir):
    params = cfg.model_params()
    g = cfg.get
    st = [float(x) for x in g("verify", "state", str).split(",")]
    j = g("verify", "branch", int, default=0)
    eps_list = [float(x) for x in g("verify", "eps_list", str, default="1e-3,5e-4").split(",")]
    rows = []
    for eps in eps_list:
        c = diffusion.verify_scattering_jump(st, j, eps, params)
        rows.append((eps, c))
    pa = os.path.join(outdir, "melnikov-verify.csv")
    fh, w = _writer(pa)
    with fh:
        w.writerow(
            ["eps", "measured_dI1[action]", "measured_dI2[action]",
             "predicted_dI1[action]", "predicted_dI2[action]",
             "discrepancy[action]", "excursion_T[time]"]
        )
        for eps, c in rows:
            _row(
                w,
                [float(eps), float(c.measured[0]), float(c.measured[1]),
                 float(c.predicted[0]), float(c.predicted[1]), float(c.discrepancy),
                 float(c.excursion_time)],
            )
    summ = {
        "state": st,
        "branch": j,
        "eps": eps_list,
        "discrepancies": [c.discrepancy for _, c in rows],
    }
    if len(rows) >= 2 and rows[1][1].discrepancy > 0:
        summ["ratio_first_two"] = rows[0][1].discrepancy / rows[1][1].discrepancy
    _summary(outdir, "melnikov-verify", summ)
    return 0


def cmd_time_estimate(cfg, outdir):
    params = cfg.model_params()
    g = cfg.get
    i1 = g("time", "seed_i1", float, default=7.0)
    i2 = g("time", "seed_i2", float, default=-7.0)
    i1_stop = g("time", "i1_stop", float, default=i1 + 1.3)
    w0 = g("time", "omega_lo", float, default=params.Omega1 * (i1 + 0.02))
    wf = g("time", "omega_hi", float, default=params.Omega1 * (i1_stop - 0.05))
    eps = g("time", "eps", float, default=1e-3)
    st, _res = highway.highway_seed(i1, i2, params)
    orb = highway.highway_trace(
        st, params, stop=(0, i1_stop, +1),
        cfg=cfg.integrator(h_max=5e4, max_steps=4_000_000), drift_tol=1e-6,
    )
    est = diffusion.time_estimate((w0, wf), orb, eps, params)
    pa = os.path.join(outdir, "time-estimate.csv")
    fh, w = _writer(pa)
    with fh:
        w.writerow(["T_s[time]", "T_h[time]", "C[energy]", "T_d[time]", "eps",
                    "omega_lo[freq]", "omega_hi[freq]"])
        _row(w, [est.T_s, est.T_h, est.C, est.T_d, est.eps, w0, wf])
    _summary(
        outdir,
        "time-estimate",
        {"T_s": est.T_s, "T_h": est.T_h, "C": est.C, "T_d": est.T_d, "eps": eps,
         "b_exponent": est.b_exponent, **est.meta},
    )
    return 0


def _parse_waypoints(raw):
    pts = []
    for chunk in raw.split(";"):
        try:
            xy = [float(v) for v in chunk.split(",")]
        except ValueError:
            raise ConfigError(f"waypoint '{chunk}' is not 'x,y'") from None
        if len(xy) != 2:
            raise ConfigError(f"waypoint '{chunk}' is not 'x,y'")
        pts.append(xy)
    return np.array(pts)


def cmd_check(cfg, outdir):
    """Invariant suite; prints one PASS/FAIL line per check."""
    params = cfg.model_params()
    if params.eps == 0.0:
        params = ModelParams(
            params.a1, params.a2, params.a3, params.Omega1, params.Omega2, 1e-3,
            params.pendulum_sign,
        )
    rng = np.random.default_rng(cfg.seed())
    failures = 0
    lines = []

    def gate(name, ok, detail=""):
        nonlocal failures
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
        if not ok:
            failures += 1

    # invariant-set invariance of the full field
    worst = 0.0
    for _ in range(20):
        x = np.array([0.0, 0.0, *rng.uniform(-3, 3, 2), *rng.uniform(0, TWO_PI, 3)])
        d = vector_field(x, params)
        worst = max(worst, abs(d[0]), abs(d[1]))
    gate("invariant-set (p=q=0) is flow-invariant", worst == 0.0, f"max|pdot,qdot|={worst:.1e}")

    worst = max(
        abs(hamiltonian([*separatrix(t), 0, 0, 0, 0, 0], ModelParams(1, 1, 1.0)))
        for t in (-5.0, -1.0, 0.0, 1.0, 5.0)
    )
    gate("separatrix on zero energy level", worst < 1e-14, f"max|H0|={worst:.1e}")

    worst = 0.0
    for _ in range(3):
        i1, i2 = rng.uniform(-2, 2, 2)
        p1, p2, s = rng.uniform(0, TWO_PI, 3)
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
        z = np.array([*rng.uniform(-5, 5, 2), *rng.uniform(0, TWO_PI, 2)])
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
        z = np.array([*rng.uniform(-4, 4, 2), *rng.uniform(0, TWO_PI, 2)])
        _v, _tau, dI, dTH = melnikov.reduced_poincare_grad(0, z, params)
        h = 1e-6
        for k, an in enumerate((dI[0], dI[1], dTH[0], dTH[1])):
            zp, zm = z.copy(), z.copy()
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
        z = np.array([*rng.uniform(-4, 4, 2), *rng.uniform(0, TWO_PI, 2)])
        ps, _ts = melnikov.psi(0, z, params)
        back = melnikov.psi_inverse(0, z[0], z[1], ps[0], ps[1], params)
        d = np.abs(np.mod(back - z[2:] + np.pi, TWO_PI) - np.pi).max()
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

    x = np.array([*rng.uniform(-2, 2, 2), *rng.uniform(0, TWO_PI, 2), 0.0])
    tr = inner.inner_flow(x, 50.0, params)
    f_before = inner.first_integrals(x, params)
    f_after = inner.first_integrals(tr, params)
    drift = max(abs(f_before[0] - f_after[0]), abs(f_before[1] - f_after[1]))
    gate("rotor integrals conserved by inner flow", drift < 1e-10, f"drift={drift:.1e}")

    print("\n".join(lines))
    _summary(outdir, "check", {"failures": failures, "lines": lines})
    if failures:
        raise InvariantViolation(f"{failures} invariant check(s) failed")
    return 0


COMMANDS = {
    "crest": cmd_crest,
    "tau": cmd_tau,
    "poincare": cmd_poincare,
    "highway": cmd_highway,
    "diffuse": cmd_diffuse,
    "melnikov-verify": cmd_melnikov_verify,
    "time-estimate": cmd_time_estimate,
    "check": cmd_check,
}


def run(command, cfg, outdir_override=None):
    outdir = cfg.output_dir(outdir_override)
    rc = COMMANDS[command](cfg, outdir)
    write_metadata(outdir, command, cfg)
    return rc


def main(argv=None):
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
    args = ap.parse_args(argv)
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
