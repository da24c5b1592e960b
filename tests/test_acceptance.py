"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Criterion tolerances are pinned here, not configurable.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from arnolddiff import diffusion, highway, kernels, melnikov, scattering
from arnolddiff.model import ModelParams
from equilibria import find_equilibria

TWO_PI = 2.0 * math.pi
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

P_REF = ModelParams(0.3, 0.1, 1.0, 1.0, 1.0, eps=1e-3)
P_SYM = ModelParams(0.1, 0.1, 1.0, 1.0, 1.0, eps=1e-3)
P_PORTRAIT = ModelParams(0.2, 0.3, 1.0, 1.0, 1.0, eps=1e-3)


def _gate(num, name, budget, t0, ok, detail):
    dt = time.time() - t0
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({dt:.1f}s)  {detail}")
    assert dt < budget, f"criterion {num} exceeded its {budget}s budget ({dt:.1f}s)"
    assert ok, f"criterion {num} {name}: {detail}"


def test_c01_melnikov_quadrature_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        i1, i2 = rng.uniform(-3, 3, 2)
        p1, p2, s = rng.uniform(0, TWO_PI, 3)
        closed = melnikov.melnikov_potential(i1, i2, p1, p2, s, P_REF)
        integral = melnikov.melnikov_potential_quadrature(i1, i2, p1, p2, s, P_REF)
        worst = max(worst, abs(closed - integral))
    _gate(1, "splitting potential vs quadrature", 5.0, t0, worst < 1e-8,
          f"max |closed - quadrature| = {worst:.2e} (tol 1e-8, 20 points)")


def test_c02_alpha_bounds():
    t0 = time.time()
    sup_a, sup_wa = melnikov.scan_alpha_bounds(span=20.0, step=1e-4)
    ok = sup_a < 1.03 and sup_wa < 1.6
    _gate(2, "crest weight bounds", 1.0, t0, ok,
          f"sup|alpha| = {sup_a:.7f} (claimed < 1.03), "
          f"sup|w alpha| = {sup_wa:.7f} (claimed < 1.6); "
          "both round figures are exceeded by ~3e-4 at |w| ~ 1.219 / 1.900")


def test_c03_crest_classification():
    t0 = time.time()
    got = [
        melnikov.classify_crest(1.0, 1.0, ModelParams(m1, m2, 1.0), check_tangency=False).kind
        for (m1, m2) in ((0.4, 0.4), (1.7, 0.4), (0.8, 0.4))
    ]
    expect = [melnikov.HORIZONTAL, melnikov.VERTICAL, melnikov.UNSEPARATED]
    _gate(3, "crest classification triple", 1.0, t0, got == expect, f"{got}")


def test_c04_tau_star_residuals_and_uniqueness():
    t0 = time.time()
    rng = np.random.default_rng(104)
    worst_res = 0.0
    unique = True
    musum = abs(P_REF.mu1) + abs(P_REF.mu2)
    for _ in range(1000):
        z = np.array([*rng.uniform(-6, 6, 2), *rng.uniform(0, TWO_PI, 2)])
        j = int(rng.integers(0, 2))
        r = melnikov.solve_tau_star(j, z, P_REF)
        w1, w2 = P_REF.frequencies(z[0], z[1])
        c = melnikov.melnikov_coeffs(z[0], z[1], P_REF)
        res = (
            w1 * c.A1 * math.sin(z[2] - w1 * r.value)
            + w2 * c.A2 * math.sin(z[3] - w2 * r.value)
            + c.A3 * math.sin(-r.value)
        )
        worst_res = max(worst_res, abs(res))
        b1 = P_REF.mu1 * kernels.alpha(w1)
        b2 = P_REF.mu2 * kernels.alpha(w2)
        kap = math.asin(abs(b1) + abs(b2))
        taus = np.linspace(-math.pi * j - kap - 1e-9, -math.pi * j + kap + 1e-9, 48)
        sgn = -1.0 if j % 2 == 0 else 1.0
        g = taus + math.pi * j + sgn * np.arcsin(
            np.clip(b1 * np.sin(z[2] - taus * w1) + b2 * np.sin(z[3] - taus * w2), -1, 1)
        )
        unique = unique and int(np.sum(np.sign(g[:-1]) != np.sign(g[1:]))) == 1
    _gate(4, "crossing-time residuals + uniqueness", 10.0, t0,
          worst_res < 1e-10 and unique,
          f"max residual {worst_res:.2e} (tol 1e-10), single bracket root: {unique}")


def test_c05_gradient_checks():
    t0 = time.time()
    rng = np.random.default_rng(105)
    worst_g = 0.0
    worst_f = 0.0
    h = 1e-6
    for _ in range(50):
        z = np.array([*rng.uniform(-4, 4, 2), *rng.uniform(0, TWO_PI, 2)])
        _v, _tau, dI, dTH = melnikov.reduced_poincare_grad(0, z, P_REF)
        fd = np.empty(4)
        for k in range(4):
            zp, zm = z.copy(), z.copy()
            zp[k] += h
            zm[k] -= h
            fd[k] = (
                melnikov.reduced_poincare(0, zp, P_REF)
                - melnikov.reduced_poincare(0, zm, P_REF)
            ) / (2 * h)
        an = np.concatenate([dI, dTH])
        worst_g = max(worst_g, float(np.max(np.abs(an - fd) / np.maximum(1.0, np.abs(an)))))
        fld = np.array(scattering.flow_rhs(0, P_REF)(0.0, z))
        expect = np.array([fd[2], fd[3], -fd[0], -fd[1]])
        worst_f = max(worst_f, float(np.max(np.abs(fld - expect) / np.maximum(1.0, np.abs(fld)))))
    _gate(5, "analytic gradients and flow field", 10.0, t0,
          worst_g < 1e-6 and worst_f < 1e-6,
          f"gradient rel err {worst_g:.2e}, field rel err {worst_f:.2e} (tol 1e-6)")


def test_c06_equilibria_certificate():
    t0 = time.time()
    eq = find_equilibria(0, P_REF)
    got = sorted((round(z[2], 8), round(z[3], 8)) for z in eq)
    pi8 = round(math.pi, 8)
    expect = [(0.0, 0.0), (0.0, pi8), (pi8, 0.0), (pi8, pi8)]
    actions_ok = all(abs(z[0]) < 1e-8 and abs(z[1]) < 1e-8 for z in eq)
    _gate(6, "scattering-flow equilibria", 60.0, t0,
          len(eq) == 4 and got == expect and actions_ok,
          f"found {len(eq)} zeros at theta = {got}")


def test_c07_flow_level_conservation():
    t0 = time.time()
    rng = np.random.default_rng(107)
    f = scattering.flow_rhs(0, P_REF)
    from arnolddiff.ode import integrate

    worst = 0.0
    for _ in range(10):
        z0 = np.array([*rng.uniform(-3, 3, 2), *rng.uniform(0, TWO_PI, 2)])
        L0 = melnikov.reduced_poincare(0, z0, P_REF)
        traj = integrate(f, z0, (0.0, 1000.0), scattering.SECTION_INTEGRATOR)
        drift = max(
            abs(melnikov.reduced_poincare(0, y, P_REF) - L0)
            for y in traj.y[:: max(1, len(traj.y) // 25)]
        )
        worst = max(worst, drift)
    _gate(7, "level conservation along the flow", 60.0, t0, worst < 1e-8,
          f"max |L* - L*(0)| = {worst:.2e} over t=1e3 on 10 orbits (tol 1e-8)")


def test_c08_highway_level_and_asymptote():
    t0 = time.time()
    fam = highway.trace_family_between_sections(
        [7.0, 7.5, 8.0, 8.5, 9.0], -7.0, 7.0, P_REF, drift_tol=1e-7
    )
    lvl_err = max(orb.level_error for orb, _ in fam)
    slope, off_far, _ = highway.highway_asymptote(P_REF)
    st, _res = highway.highway_seed(10.0, 10.0 * slope + off_far - 0.3, P_REF)
    tail = highway.highway_trace(st, P_REF, stop=(0, 12.0, +1), drift_tol=1e-6)
    states = np.asarray(tail.states)
    gap12 = abs(states[-1, 1] - (slope * 12.0 + off_far))
    w = states[:, 0] > 11.0
    gaps = np.abs(states[w, 1] - (slope * states[w, 0] + off_far))
    decreasing = bool(np.all(np.diff(gaps) < 1e-9))
    _gate(8, "Highway level + straight-line tail", 120.0, t0,
          lvl_err < 1e-7 and gap12 < 0.1 and decreasing,
          f"max |L*-A3| = {lvl_err:.2e} (tol 1e-7); "
          f"|I2 - line| at I1=12: {gap12:.3f} (tol 0.1, slope {slope}, "
          f"offset {off_far:.4f}), decreasing: {decreasing}")


def test_c09_symmetric_oracle():
    t0 = time.time()
    th0 = highway.symmetric_highway_theta(-6.0, "H", P_SYM)
    seed = np.array([-6.0, -6.0, th0, th0])
    orb = highway.highway_trace(seed, P_SYM, stop=(0, 5.5, +1), drift_tol=1e-6)
    states = np.asarray(orb.states)
    worst = 0.0
    n = 0
    for k in range(len(orb.t)):
        ib = states[k, 0]
        if -5.0 <= ib <= 5.0:
            ref = highway.symmetric_highway_theta(ib, "H", P_SYM)
            d = abs((states[k, 2] - ref + math.pi) % TWO_PI - math.pi)
            worst = max(worst, d)
            n += 1
    _gate(9, "symmetric closed form vs traced orbit", 60.0, t0,
          n > 30 and worst < 1e-6,
          f"max angle gap {worst:.2e} over {n} samples with I in [-5, 5] (tol 1e-6)")


JUMP_STATES = [
    (1.0, 1.0, 5 * math.pi / 4, 5 * math.pi / 4),
    (0.8, 1.3, 4.0, 4.6),
    (1.5, 0.7, 3.6, 5.0),
    (1.2, -1.1, 2.3, 1.2),
    (0.6, 0.9, 3.8, 4.2),
]


def test_c10_jump_oracle_quadratic_remainder():
    t0 = time.time()
    ratios = []
    rels = []
    for z in JUMP_STATES:
        z = np.array(z)
        c1 = diffusion.verify_scattering_jump(z, 0, 1e-3, P_REF)
        c2 = diffusion.verify_scattering_jump(z, 0, 5e-4, P_REF)
        c3 = diffusion.verify_scattering_jump(z, 0, 1e-4, P_REF)
        ratios.append(c1.discrepancy / c2.discrepancy)
        rels.append(c3.discrepancy / float(np.linalg.norm(c3.predicted)))
    ok = all(3.0 <= r <= 5.0 for r in ratios) and all(r <= 0.1 for r in rels)
    _gate(10, "full-system jump oracle", 120.0, t0, ok,
          f"halving ratios {[f'{r:.2f}' for r in ratios]} (need [3,5]); "
          f"rel err at eps=1e-4 {[f'{r:.1e}' for r in rels]} (need <= 0.1)")


def test_c11_pseudo_orbit_tracking():
    t0 = time.time()
    path = diffusion.ActionPath(np.array([[1.0, 1.0], [3.0, 2.0]]), delta=0.1)
    start = np.array([1.0, 1.0, 2.0, 4.4])
    orb = diffusion.build_pseudo_orbit(path, start, P_REF, eps=1e-3)
    ns_eps, t_quad = diffusion.step_accounting(orb, P_REF)
    ok = (
        orb.max_deviation <= 0.1
        and orb.meta["final_gap"] <= 0.1
        and 0.5 * t_quad <= ns_eps <= 2.0 * t_quad
    )
    _gate(11, "pseudo-orbit tracking (1,1)->(3,2)", 300.0, t0, ok,
          f"N_s={orb.n_scatter}, max deviation {orb.max_deviation:.3f} (tol 0.1), "
          f"final gap {orb.meta['final_gap']:.3f}, N_s*eps={ns_eps:.2f} vs "
          f"quadrature {t_quad:.2f} (bracket [0.5, 2])")


def test_c12_time_estimate_consistency():
    t0 = time.time()
    st, _res = highway.highway_seed(7.0, -7.0, P_REF)
    orb = highway.highway_trace(st, P_REF, stop=(0, 8.3, +1), drift_tol=1e-6)
    est = diffusion.time_estimate((7.05, 8.2), orb, 1e-3, P_REF)
    w1 = P_REF.Omega1 * np.asarray(orb.states)[:, 0]
    t_lo = float(np.interp(7.05, w1, orb.t))
    t_hi = float(np.interp(8.2, w1, orb.t))
    wall = t_hi - t_lo
    rel = abs(est.T_s - wall) / wall
    assembly = est.T_d == pytest.approx(est.T_s / est.eps * 2.0 * math.log(est.C / est.eps), rel=1e-14)
    _gate(12, "drift-time quadrature vs section clock", 60.0, t0,
          rel < 0.01 and assembly,
          f"T_s = {est.T_s:.4g} vs clock {wall:.4g} (rel {rel:.2e}, tol 1%); "
          f"T_d assembly exact: {assembly}; C = {est.C:.4g}")


def test_c13_portrait_regression():
    t0 = time.time()
    with open(os.path.join(FIXTURES, "poincare_portrait.json")) as fh:
        fix = json.load(fh)
    c = 5 * math.pi / 4
    level = melnikov.reduced_poincare(0, (0.0, 0.0, c, c), P_PORTRAIT)
    seeds = [(0.0, 0.0, c, t2) for t2 in np.linspace(c - 0.2, c + 0.2, fix["n_orbits"])]
    pts = scattering.poincare_section(
        0, level, 0.0, seeds, t_max=400.0, params=P_PORTRAIT, max_crossings=40,
        cfg=scattering.SECTION_INTEGRATOR,
    )
    counts = [0] * fix["n_orbits"]
    for p in pts:
        counts[p.orbit] += 1
    bbox_t2 = [min(p.theta2 for p in pts), max(p.theta2 for p in pts)]
    bbox_i2 = [min(p.i2 for p in pts), max(p.i2 for p in pts)]
    ok = (
        abs(level - fix["level"]) < 1e-12
        and counts == fix["crossings_per_orbit"]
        and len(pts) == fix["total"]
        and np.allclose(bbox_t2, fix["bbox_theta2"], atol=1e-6)
        and np.allclose(bbox_i2, fix["bbox_I2"], atol=1e-6)
    )
    _gate(13, "section portrait regression", 120.0, t0, ok,
          f"{len(pts)} crossings on {fix['n_orbits']} orbits, "
          f"theta2 box {np.round(bbox_t2, 4)}, I2 box {np.round(bbox_i2, 4)}")
