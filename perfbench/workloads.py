"""Workload definitions: seeded INI run files, work units and output checks.

Each workload is one CLI subcommand run on a stream of generated run files.
Operation ``k`` of a run with seed ``s`` is drawn from
``numpy.random.default_rng([s, k])``, so the same seed always yields the
same inputs, and operation ``k`` of every seed falls in stratum
``k % strata`` of the input range (stratified sampling keeps runs of
different seeds comparable).

A check returns a list of failure names; an empty list means the outputs
the CLI wrote satisfy the acceptance-gate invariants for that command.
"""

import csv
import json
import math
import os

import numpy as np

TWO_PI = 2.0 * math.pi
C13 = 5.0 * math.pi / 4.0

MODEL_REF = (0.3, 0.1, 1.0)        # reference set: pseudo-orbits, Highways, jump oracle
MODEL_PORTRAIT = (0.2, 0.3, 1.0)   # criterion-13 portrait set


class Workload:
    """One benchmark workload: its CLI command, inputs, unit and checks.

    ``loads`` lists the layers the workload exercises and ``bypasses`` the
    layers on which a change is predicted to show no change here; the
    ``why`` of each workload in BENCHMARK.json states both.
    """

    name = ""
    command = ""
    unit = ""
    loads = ()
    bypasses = ()
    strata = 1
    counted_ops = 1   # traced-run per-layer metrics cover operations 0..counted_ops-1
    capture = ()      # span names whose return values the check reads

    def params(self, seed, k):
        """Inputs of operation k as a dict of INI sections."""
        raise NotImplementedError

    def units(self, outdir, params):
        """Work units the operation completed, read back from its outputs."""
        raise NotImplementedError

    def check(self, outdir, params, captured):
        """Failure names for the outputs in outdir (empty when correct)."""
        raise NotImplementedError

    def _rng(self, seed, k):
        return np.random.default_rng([seed, k])

    def _stratum(self, rng, k):
        """A draw in [0, 1) restricted to stratum k % strata."""
        return ((k % self.strata) + rng.uniform()) / self.strata


def _model(a, eps=0.001):
    return {"a1": a[0], "a2": a[1], "a3": a[2], "omega1": 1.0, "omega2": 1.0, "eps": eps}


def render_ini(sections):
    """INI text with floats written to 17 significant digits."""
    lines = []
    for sec, kv in sections.items():
        lines.append(f"[{sec}]")
        for key, v in kv.items():
            lines.append(f"{key} = {format(v, '.17g') if isinstance(v, float) else v}")
        lines.append("")
    return "\n".join(lines)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


class Portrait(Workload):
    name = "portrait"
    command = "poincare"
    unit = "crossing"
    loads = ("kernels", "ode", "scattering", "melnikov", "cli")
    bypasses = ("inner", "diffusion", "highway")
    strata = 8
    counted_ops = 2
    capture = ("scattering.poincare_section",)
    n_orbits = 4
    max_crossings = 6
    window = 0.04      # theta2 width of one tile

    def params(self, seed, k):
        rng = self._rng(seed, k)
        mid = C13 - 0.2 + 0.4 * self._stratum(rng, k)
        return {
            "model": _model(MODEL_PORTRAIT),
            "run": {"seed": seed},
            "poincare": {
                "branch": 0,
                "level_point": f"0,0,{C13!r},{C13!r}",
                "section_i1": 0.0,
                "theta2_lo": mid - 0.5 * self.window,
                "theta2_hi": mid + 0.5 * self.window,
                "n_seeds": self.n_orbits,
                "theta1_guess": C13,
                "t_max": 400.0,
                "max_crossings": self.max_crossings,
                "seed_i1": 0.0,
                "seed_i2": 0.0,
            },
        }

    def units(self, outdir, params):
        return int(_read_json(os.path.join(outdir, "poincare_summary.json"))["crossings"])

    def check(self, outdir, params, captured):
        """|L* - level| <= 1e-8 and |I1 - section| <= 1e-9 at every crossing,
        and at most max_crossings per orbit.

        The CSV holds (orbit, t, I2, theta2); the full states come from the
        return value of scattering.poincare_section, captured in the same
        call, and each one must match its CSV row digit for digit.
        """
        from arnolddiff import melnikov
        from arnolddiff.model import ModelParams

        fails = []
        p = params["poincare"]
        summary = _read_json(os.path.join(outdir, "poincare_summary.json"))
        _head, rows = _read_csv(os.path.join(outdir, "poincare.csv"))
        per_orbit = {}
        for r in rows:
            per_orbit[int(r[0])] = per_orbit.get(int(r[0]), 0) + 1
        if len(rows) != summary["crossings"] or not rows:
            fails.append("portrait.csv_rows")
        if any(n > p["max_crossings"] for n in per_orbit.values()):
            fails.append("portrait.max_crossings")
        points = captured.get("scattering.poincare_section")
        if points is None or len(points) != len(rows):
            return fails + ["portrait.states_missing"]
        a = params["model"]
        mp = ModelParams(a["a1"], a["a2"], a["a3"], a["omega1"], a["omega2"], a["eps"])
        level = summary["level"]
        for pt, r in zip(points, rows):
            if [f"{pt.t:.17g}", f"{pt.i2:.17g}", f"{pt.theta2:.17g}"] != r[1:4]:
                fails.append("portrait.state_row_mismatch")
                break
        worst_i1 = max(abs(pt.state[0] - p["section_i1"]) for pt in points)
        worst_l = max(abs(melnikov.reduced_poincare(0, pt.state, mp) - level) for pt in points)
        if not worst_i1 <= 1e-9:
            fails.append("portrait.section_error")
        if not worst_l <= 1e-8:
            fails.append("portrait.level_error")
        return fails


class PseudoOrbit(Workload):
    """Seeded oblique paths that climb mostly in I2.

    The step-accounting bracket is tight for paths on which both actions
    move: the README path (1,1)->(3,2) reads N_s*eps / quadrature = 0.53, and
    shorter paths with both components moving read 0.40-0.47, below the 0.5
    floor.  Paths climbing 0.4 in I2 with a 0.02 drift in I1 read 0.59-0.79
    (80 sampled paths, mean 0.68), so every operation can pass the check.
    """

    name = "pseudo_orbit"
    command = "diffuse"
    unit = "step"
    loads = ("diffusion", "melnikov", "inner", "kernels", "cli")
    bypasses = ("ode", "scattering", "highway")
    strata = 8
    counted_ops = 3
    delta = 0.1
    # every path climbs 0.4 in I2 while drifting 0.02 in I1, so the CLI
    # stairsteps it into 16 segments
    climb = 0.4
    drift = 0.02

    def params(self, seed, k):
        rng = self._rng(seed, k)
        i1 = 1.0 + self._stratum(rng, k)
        i2 = rng.uniform(1.0, 1.4)
        di1 = self.drift if k % 2 == 0 else -self.drift
        th1, th2 = rng.uniform(0.0, TWO_PI, 2)
        return {
            "model": _model(MODEL_REF),
            "run": {"seed": seed},
            "diffuse": {
                "waypoints": f"{i1!r},{i2!r}; {i1 + di1!r},{i2 + self.climb!r}",
                "delta": self.delta,
                "eps": 1e-3,
                "theta1": float(th1),
                "theta2": float(th2),
            },
        }

    def units(self, outdir, params):
        s = _read_json(os.path.join(outdir, "diffuse_summary.json"))
        return int(s["n_scatter"] + s["n_inner"] + s["n_detour"])

    def check(self, outdir, params, captured):
        """max_deviation <= delta, final_gap <= delta and
        Ns*eps within [0.5, 2] x the segment quadrature time."""
        fails = []
        delta = params["diffuse"]["delta"]
        s = _read_json(os.path.join(outdir, "diffuse_summary.json"))
        _head, rows = _read_csv(os.path.join(outdir, "diffuse_orbit.csv"))
        kinds = [r[1] for r in rows]
        if (kinds.count("S"), kinds.count("I") - 1, kinds.count("D")) != (
            s["n_scatter"], s["n_inner"], s["n_detour"]
        ):
            fails.append("pseudo_orbit.csv_rows")
        dist = max((float(r[7]) for r in rows), default=math.inf)
        if not (dist <= delta and s["max_deviation"] <= delta):
            fails.append("pseudo_orbit.max_deviation")
        if not s["final_gap"] <= delta:
            fails.append("pseudo_orbit.final_gap")
        t_quad = s["segment_quadrature_time"]
        if not 0.5 * t_quad <= s["Ns_times_eps"] <= 2.0 * t_quad:
            fails.append("pseudo_orbit.step_accounting")
        return fails


class HighwayFamily(Workload):
    name = "highway_family"
    command = "highway"
    unit = "orbit"
    loads = ("highway", "ode", "kernels", "scattering", "cli")
    bypasses = ("diffusion", "inner", "melnikov")
    strata = 5
    counted_ops = 4
    n_seeds = 4
    drift_tol = 1e-7

    def params(self, seed, k):
        rng = self._rng(seed, k)
        lo = 6.5 + 2.5 * self._stratum(rng, k)
        return {
            "model": _model(MODEL_REF),
            "run": {"seed": seed},
            "highway": {
                "i2_from": -7.0,
                "i2_to": 7.0,
                "i1_lo": lo,
                "i1_hi": lo + 0.5,
                "n_seeds": self.n_seeds,
                "drift_tol": self.drift_tol,
            },
        }

    def units(self, outdir, params):
        return len(_read_json(os.path.join(outdir, "highway_summary.json"))["transit_times"])

    def check(self, outdir, params, captured):
        """max_level_error <= drift_tol and every transit time > 0."""
        fails = []
        h = params["highway"]
        s = _read_json(os.path.join(outdir, "highway_summary.json"))
        _head, times = _read_csv(os.path.join(outdir, "highway_times.csv"))
        _head, orbit_rows = _read_csv(os.path.join(outdir, "highway_orbits.csv"))
        if len(times) != h["n_seeds"] or len(s["transit_times"]) != h["n_seeds"]:
            fails.append("highway_family.csv_rows")
        if {int(r[0]) for r in orbit_rows} != set(range(h["n_seeds"])):
            fails.append("highway_family.csv_rows")
        if not s["max_level_error"] <= h["drift_tol"]:
            fails.append("highway_family.level_error")
        if not all(float(r[1]) > 0.0 for r in times) or not all(
            t > 0.0 for t in s["transit_times"]
        ):
            fails.append("highway_family.transit_time")
        return fails


class JumpOracle(Workload):
    name = "jump_oracle"
    command = "melnikov-verify"
    unit = "excursion"
    loads = ("ode", "kernels", "diffusion", "melnikov", "cli")
    bypasses = ("scattering", "highway", "inner")
    strata = 5
    counted_ops = 20
    eps_list = (1e-3, 5e-4, 1e-4)

    def params(self, seed, k):
        rng = self._rng(seed, k)
        i1 = 0.5 + 1.1 * self._stratum(rng, k)
        i2 = rng.uniform(0.5, 1.6) * (-1.0 if rng.uniform() < 0.3 else 1.0)
        angles = []
        for _ in range(2):
            if rng.uniform() < 0.7:
                angles.append(rng.uniform(math.pi + 0.3, TWO_PI - 0.3))
            else:
                angles.append(rng.uniform(0.3, math.pi - 0.3))
        state = ",".join(repr(float(v)) for v in (i1, i2, *angles))
        return {
            "model": _model(MODEL_REF),
            "run": {"seed": seed},
            "verify": {
                "state": state,
                "branch": 0,
                "eps_list": ",".join(repr(e) for e in self.eps_list),
            },
        }

    def units(self, outdir, params):
        _head, rows = _read_csv(os.path.join(outdir, "melnikov-verify.csv"))
        return len(rows)

    def check(self, outdir, params, captured):
        """Relative discrepancy <= 0.1 at eps = 1e-4."""
        _head, rows = _read_csv(os.path.join(outdir, "melnikov-verify.csv"))
        if len(rows) != len(self.eps_list):
            return ["jump_oracle.csv_rows"]
        row = next((r for r in rows if float(r[0]) == 1e-4), None)
        if row is None:
            return ["jump_oracle.csv_rows"]
        pred = math.hypot(float(row[3]), float(row[4]))
        if not (pred > 0.0 and float(row[5]) / pred <= 0.1):
            return ["jump_oracle.discrepancy"]
        return []


WORKLOADS = {w.name: w for w in (Portrait(), PseudoOrbit(), HighwayFamily(), JumpOracle())}
