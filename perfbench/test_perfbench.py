"""Tests of the benchmark itself: output checks, exact counts, provenance.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

def _run_first_op(name, workdir, seed=1, tracer=None):
    inst = spans.Instrument(tracer, capture=WORKLOADS[name].capture)
    rec = run.run_op(WORKLOADS[name], seed, 0, inst, str(workdir), tracer)
    return rec, inst.captured


@pytest.fixture(scope="module")
def first_ops(tmp_path_factory):
    """Operation 0 of every workload, run once; outputs kept per workload."""
    out = {}
    for name in WORKLOADS:
        workdir = tmp_path_factory.mktemp(name)
        rec, captured = _run_first_op(name, workdir)
        assert rec.failures == [], (name, rec.failures)
        out[name] = (workdir / "op", dict(captured), rec)
    return out


def _edit_json(path, **changes):
    with open(path) as fh:
        data = json.load(fh)
    data.update(changes)
    with open(path, "w") as fh:
        json.dump(data, fh)
    return data


def _edit_csv_cell(path, row, col, value):
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _corrupted(first_ops, name, tmp_path, edit):
    """Failures the workload's check reports after `edit` on a copy of the outputs."""
    src, captured, _rec = first_ops[name]
    dst = tmp_path / "op"
    shutil.copytree(src, dst)
    captured = dict(captured)
    edit(str(dst), captured)
    wl = WORKLOADS[name]
    return wl.check(str(dst), wl.params(1, 0), captured)


def test_untouched_outputs_pass(first_ops, tmp_path):
    for name in WORKLOADS:
        assert _corrupted(first_ops, name, tmp_path / name, lambda d, c: None) == []


def _shift_state(captured, component, delta):
    pts = list(captured["scattering.poincare_section"])
    p0 = pts[0]
    state = p0.state.copy()
    state[component] += delta
    pts[0] = type(p0)(p0.orbit, p0.t, p0.i2, p0.theta2, state)
    captured["scattering.poincare_section"] = pts


@pytest.mark.parametrize("edit, expected", [
    (lambda d, c: _shift_state(c, 0, 1e-6), "portrait.section_error"),
    (lambda d, c: _shift_state(c, 2, 1e-2), "portrait.level_error"),
    (lambda d, c: _edit_json(os.path.join(d, "poincare_summary.json"), level=1.0),
     "portrait.level_error"),
    (lambda d, c: _edit_csv_cell(os.path.join(d, "poincare.csv"), 1, 2, "0.5"),
     "portrait.state_row_mismatch"),
    (lambda d, c: _add_portrait_crossings(d, c), "portrait.max_crossings"),
])
def test_portrait_check_catches(first_ops, tmp_path, edit, expected):
    assert expected in _corrupted(first_ops, "portrait", tmp_path, edit)


def _add_portrait_crossings(outdir, captured):
    """Repeat orbit 0's rows so it exceeds max_crossings, consistently everywhere."""
    csv_path = os.path.join(outdir, "poincare.csv")
    with open(csv_path) as fh:
        head, *rows = fh.read().splitlines()
    pts = list(captured["scattering.poincare_section"])
    extra = [k for k, r in enumerate(rows) if r.startswith("0,")]
    rows += [rows[k] for k in extra]
    pts += [pts[k] for k in extra]
    with open(csv_path, "w") as fh:
        fh.write("\n".join([head, *rows]) + "\n")
    captured["scattering.poincare_section"] = pts
    _edit_json(os.path.join(outdir, "poincare_summary.json"), crossings=len(rows))


def _diffuse_summary(**changes):
    return lambda d, c: _edit_json(os.path.join(d, "diffuse_summary.json"), **changes)


@pytest.mark.parametrize("edit, expected", [
    (_diffuse_summary(max_deviation=0.2), "pseudo_orbit.max_deviation"),
    (_diffuse_summary(final_gap=0.2), "pseudo_orbit.final_gap"),
    (_diffuse_summary(Ns_times_eps=1e3), "pseudo_orbit.step_accounting"),
    (_diffuse_summary(Ns_times_eps=1e-3), "pseudo_orbit.step_accounting"),
    (lambda d, c: _edit_csv_cell(os.path.join(d, "diffuse_orbit.csv"), 2, 7, "0.25"),
     "pseudo_orbit.max_deviation"),
])
def test_pseudo_orbit_check_catches(first_ops, tmp_path, edit, expected):
    assert expected in _corrupted(first_ops, "pseudo_orbit", tmp_path, edit)


@pytest.mark.parametrize("edit, expected", [
    (lambda d, c: _edit_json(os.path.join(d, "highway_summary.json"), max_level_error=1e-6),
     "highway_family.level_error"),
    (lambda d, c: _edit_csv_cell(os.path.join(d, "highway_times.csv"), 2, 1, "-1.0"),
     "highway_family.transit_time"),
    (lambda d, c: _edit_json(os.path.join(d, "highway_summary.json"), transit_times=[0.0] * 4),
     "highway_family.transit_time"),
])
def test_highway_check_catches(first_ops, tmp_path, edit, expected):
    assert expected in _corrupted(first_ops, "highway_family", tmp_path, edit)


def test_jump_oracle_check_catches(first_ops, tmp_path):
    def edit(outdir, _captured):
        _edit_csv_cell(os.path.join(outdir, "melnikov-verify.csv"), 3, 5, "1.0")

    assert _corrupted(first_ops, "jump_oracle", tmp_path, edit) == ["jump_oracle.discrepancy"]


def test_failed_operation_counts(tmp_path):
    """An exception escaping main() is recorded by type, not raised."""

    class Broken(type(WORKLOADS["jump_oracle"])):
        def params(self, seed, k):
            p = super().params(seed, k)
            p["verify"]["state"] = "1,1,1"   # three components: main() raises ValueError
            return p

    rec = run.run_op(Broken(), 1, 0, spans.Instrument(), str(tmp_path))
    assert rec.failures == ["exception:ValueError"]


def _traced_counts(name, workdir):
    tracer = spans.Tracer()
    rec, _ = _run_first_op(name, workdir, tracer=tracer)
    stats, counts = tracer.snapshot()
    layer = run.per_layer(stats, counts, rec.units, rec.bytes_out)
    return {k: v for k, (v, unit) in layer.items() if unit.startswith("count")}, rec


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path):
    first, rec1 = _traced_counts(name, tmp_path / "a")
    second, rec2 = _traced_counts(name, tmp_path / "b")
    assert first == second
    assert rec1.digests == rec2.digests
    assert sum(v for v in first.values()) > 0


def test_layer_expectations(tmp_path):
    po, _ = _traced_counts("pseudo_orbit", tmp_path / "po")
    assert po["ode.steps"] == 0
    assert po["diffusion.distance_to.calls"] > 0
    pt, _ = _traced_counts("portrait", tmp_path / "pt")
    assert pt["ode.event_resteps"] > 0
    assert pt["kernels.tau_star.calls"] >= pt["kernels.flow_rhs.calls"]
    hw, _ = _traced_counts("highway_family", tmp_path / "hw")
    assert hw["highway.integrations_per_trace"] == 2


def test_same_seed_same_bytes(tmp_path):
    a, _ = _run_first_op("jump_oracle", tmp_path / "a", seed=5)
    b, _ = _run_first_op("jump_oracle", tmp_path / "b", seed=5)
    c, _ = _run_first_op("jump_oracle", tmp_path / "c", seed=6)
    assert a.digests == b.digests
    assert a.digests != c.digests
    assert set(a.digests) == {"melnikov-verify.csv"}


def test_tracer_self_time_and_restore():
    from arnolddiff import ode

    tracer = spans.Tracer()

    def leaf():
        return sum(range(1000))

    inner_fn = tracer.wrap("t.leaf", leaf, step=True)

    def outer():
        return inner_fn() + inner_fn()

    outer_fn = tracer.wrap("t.outer", outer)
    outer_fn()
    s = tracer.stats
    assert s["t.leaf"].calls == 2
    assert s["t.outer"].steps == 2
    assert s["t.outer"].self_time == pytest.approx(s["t.outer"].total - s["t.leaf"].total)
    assert tracer.n_spans == 3

    original = ode.rkf78_step
    inst = spans.Instrument(spans.Tracer())
    with spans.rebound(inst._replacements):
        assert ode.rkf78_step is not original
    assert ode.rkf78_step is original


def test_refuses_without_sources(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: exit non-zero, no result line."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "portrait", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_matches_the_benchmark():
    """Workloads, predictions and metric names agree with what run.py reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    assert names == [n for n in WORKLOADS if n in names]
    for w in bench["workloads"]:
        wl = WORKLOADS[w["name"]]
        loads, _, no_change = w["why"].partition("predicted no change:")
        assert f"unit {wl.unit}" in loads
        assert all(layer in loads for layer in wl.loads)
        assert no_change.split() == list(wl.bypasses)
    assert {m["name"] for m in bench["end_to_end"]} == set(run.E2E_UNITS)
    layer = run.per_layer({}, {}, 0, 0)
    layer.update({k: (0.0, "s") for k in ("setup.numpy_import_s", "setup.scipy_import_s",
                                          "setup.arnolddiff_import_s")})
    layer["trace.overhead_frac"] = (0.0, "ratio")
    for m in bench["per_layer"]:
        assert layer[m["name"]][1] == m["unit"], m
