import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arnolddiff import config, melnikov, scattering
from arnolddiff.cli import COMMANDS, main
from arnolddiff.config import RunConfig, write_json
from arnolddiff.errors import InvariantViolation, NoConvergence

BASE = """\
[model]
a1 = 0.3
a2 = 0.1
a3 = 1
omega1 = 1
omega2 = 1
eps = 0.001

[integrator]
abs_tol = 1e-12
rel_tol = 1e-12

[run]
output_dir = {out}
seed = 7

[crest]
i1 = 1.0
i2 = 1.0
grid = 16

[tau]
i1 = 1.0
i2 = 1.0
grid = 6

[verify]
state = 1.0,1.0,3.9269908169872414,3.9269908169872414
eps_list = 1e-3,5e-4
"""

# run-file sections of the commands BASE leaves out
SECTIONS = {
    "poincare": "[poincare]\nlevel_point = 0,0,3.9269908169872414,3.9269908169872414\n"
                "theta2_lo = 3.8\ntheta2_hi = 4.0\nn_seeds = 2\nt_max = 50\n"
                "max_crossings = 2\n",
    "diffuse": "[diffuse]\nwaypoints = 1,1; 1.3,1\ndelta = 0.1\neps = 1e-3\n"
               "theta1 = 2.0\ntheta2 = 4.4\n",
    "highway": "[highway]\ni2_from = -7\ni2_to = 7\ni1_lo = 7\ni1_hi = 7.5\n"
               "n_seeds = 2\ndrift_tol = 1e-7\n",
}


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(BASE.format(out=tmp_path / "out"))
    return path


class TestConfig:
    def test_round_trip_identity(self, cfg_file):
        c1 = RunConfig.load(cfg_file)
        c2 = RunConfig.parse(c1.emit())
        assert c1.sections == c2.sections
        assert c1.digest() == c2.digest()

    def test_missing_key_diagnostic(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[model]\na1 = 0.3\na2 = 0.1\n")  # a3 missing
        rc = main(["crest", str(bad), "--output-dir", str(tmp_path / "o")])
        assert rc == 2

    def test_unparsable_value(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[model]\na1 = banana\na2 = 0.1\na3 = 1\n")
        rc = main(["crest", str(bad), "--output-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "a1" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        rc = main(["crest", str(tmp_path / "nope.ini")])
        assert rc == 2

    @pytest.mark.parametrize(
        "old, new",
        [
            ("delta = 0.1", "delta = 2.0"),
            ("omega1 = 1", "omega1 = -1"),
            ("a3 = 1", "a3 = 0.5"),  # a1/a3 + a2/a3 = 0.8: outside the safe regime
            ("a3 = 1", "a3 = nan"),
        ],
    )
    def test_bad_diffuse_input_exit_code(self, cfg_file, tmp_path, capsys, old, new):
        text = cfg_file.read_text() + "\n" + SECTIONS["diffuse"]
        bad = tmp_path / "bad.ini"
        bad.write_text(text.replace(old, new))
        assert main(["diffuse", str(bad)]) == 2
        assert any(
            line.startswith("config error:") for line in capsys.readouterr().err.splitlines()
        )

    @pytest.mark.parametrize(
        "old, new",
        [
            ("n_seeds = 2", "n_seeds = 0"),
            ("max_crossings = 2", "max_crossings = 0"),
            ("t_max = 50", "t_max = nan"),
            ("t_max = 50", "t_max = 0"),
            ("3.9269908169872414,3.9269908169872414\ntheta2_lo", "3.9269908169872414\ntheta2_lo"),
        ],
    )
    def test_bad_poincare_input_exit_code(self, cfg_file, tmp_path, capsys, old, new):
        text = cfg_file.read_text() + "\n" + SECTIONS["poincare"]
        bad = tmp_path / "bad.ini"
        bad.write_text(text.replace(old, new))
        assert main(["poincare", str(bad)]) == 2
        assert any(
            line.startswith("config error:") for line in capsys.readouterr().err.splitlines()
        )

    @pytest.mark.parametrize(
        "old, new",
        [
            ("n_seeds = 2", "n_seeds = 0"),
            ("i2_to = 7", "i2_to = nan"),
            ("i2_to = 7", "i2_to = -7"),  # equal to i2_from
            ("drift_tol = 1e-7", "drift_tol = 0"),
        ],
    )
    def test_bad_highway_input_exit_code(self, cfg_file, tmp_path, capsys, old, new):
        text = cfg_file.read_text() + "\n" + SECTIONS["highway"]
        bad = tmp_path / "bad.ini"
        bad.write_text(text.replace(old, new))
        assert main(["highway", str(bad)]) == 2
        assert any(
            line.startswith("config error:") for line in capsys.readouterr().err.splitlines()
        )

    @pytest.mark.parametrize("command", ["tau", "crest"])
    @pytest.mark.parametrize(
        "key, value", [("i1", "nan"), ("i1", "inf"), ("i2", "-inf"), ("grid", "0")]
    )
    def test_bad_action_input_exit_code(self, cfg_file, tmp_path, capsys, command, key, value):
        head, sec, tail = cfg_file.read_text().partition(f"[{command}]\n")
        tail = re.sub(rf"^{key} = .*$", f"{key} = {value}", tail, count=1, flags=re.M)
        bad = tmp_path / "bad.ini"
        bad.write_text(head + sec + tail)
        assert main([command, str(bad)]) == 2
        assert any(
            line.startswith("config error:") for line in capsys.readouterr().err.splitlines()
        )

    @pytest.mark.parametrize("key", ["abs_tol", "rel_tol"])
    def test_nan_tolerance_exit_code(self, cfg_file, tmp_path, capsys, key):
        bad = tmp_path / "bad.ini"
        bad.write_text(cfg_file.read_text().replace(f"{key} = 1e-12", f"{key} = nan"))
        assert main(["crest", str(bad)]) == 2
        assert any(
            line.startswith("config error:") for line in capsys.readouterr().err.splitlines()
        )

    def test_summary_rejects_nan(self, tmp_path):
        with pytest.raises(InvariantViolation, match="crest: .*crest_summary.json"):
            write_json(str(tmp_path / "crest_summary.json"), "crest",
                       {"tangency_margin": math.nan})
        assert not (tmp_path / "crest_summary.json").exists()

    def test_nan_summary_exits_4(self, cfg_file, capsys, monkeypatch):
        monkeypatch.setattr(melnikov, "tangency_margin", lambda *a, **k: math.nan)
        assert main(["crest", str(cfg_file)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("invariant violation: crest: ") and "crest_summary.json" in err

    @pytest.mark.parametrize("outdir", ["", "run.ini/out"])
    def test_unusable_output_dir_exit_code(self, cfg_file, tmp_path, capsys, monkeypatch,
                                           outdir):
        monkeypatch.delenv("ARNOLDDIFF_OUTDIR", raising=False)
        monkeypatch.chdir(tmp_path)
        cfg_file.write_text(re.sub(r"^output_dir = .*$", f"output_dir = {outdir}",
                                   cfg_file.read_text(), flags=re.M))
        assert main(["tau", str(cfg_file)]) == 2
        assert capsys.readouterr().err.startswith("config error: cannot create output directory")

    def test_env_output_override(self, cfg_file, tmp_path, monkeypatch):
        target = tmp_path / "env_out"
        monkeypatch.setenv("ARNOLDDIFF_OUTDIR", str(target))
        assert main(["tau", str(cfg_file)]) == 0
        assert (target / "tau.csv").exists()


class TestRuns:
    def test_crest_artifacts(self, cfg_file, tmp_path):
        assert main(["crest", str(cfg_file)]) == 0
        out = tmp_path / "out"
        lines = (out / "crest.csv").read_text().splitlines()
        assert lines[0] == "phi1[rad],phi2[rad],s_M[rad],s_m[rad],valid"
        assert len(lines) == 16 * 16 + 1
        summary = json.loads((out / "crest_summary.json").read_text())
        assert summary["kind"] == "horizontal"
        meta = json.loads((out / "crest_metadata.json").read_text())
        assert meta["config_sha256"] == RunConfig.load(cfg_file).digest()

    def test_crest_computes_tangency_margin_once(self, cfg_file, tmp_path, monkeypatch):
        margin, calls = melnikov.tangency_margin, []

        def counted(*args, **kwargs):
            calls.append(args)
            return margin(*args, **kwargs)

        monkeypatch.setattr(melnikov, "tangency_margin", counted)
        assert main(["crest", str(cfg_file)]) == 0
        assert len(calls) == 1
        summary = json.loads((tmp_path / "out" / "crest_summary.json").read_text())
        params = RunConfig.load(cfg_file).model_params()
        assert summary["tangency_margin"] == margin(1.0, 1.0, params)

    def test_determinism_byte_identical(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        assert main(["crest", str(cfg_file)]) == 0
        first = (out / "crest.csv").read_bytes()
        assert main(["crest", str(cfg_file)]) == 0
        assert (out / "crest.csv").read_bytes() == first

    def test_verify_run(self, cfg_file, tmp_path):
        assert main(["melnikov-verify", str(cfg_file)]) == 0
        summary = json.loads((tmp_path / "out" / "melnikov-verify_summary.json").read_text())
        assert 3.0 <= summary["ratio_first_two"] <= 5.0

    def test_check_passes(self, cfg_file):
        assert main(["check", str(cfg_file)]) == 0

    def test_check_failure_exits_4_without_metadata(self, cfg_file, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.setattr(melnikov, "scan_alpha_bounds", lambda *a, **k: (2.0, 2.0))
        assert main(["check", str(cfg_file)]) == 4
        err = capsys.readouterr().err
        assert err.splitlines() == ["invariant violation: 1 invariant check(s) failed"]
        out = tmp_path / "out"
        assert json.loads((out / "check_summary.json").read_text())["failures"] == 1
        assert not (out / "check_metadata.json").exists()

    def test_failed_run_leaves_no_csv(self, cfg_file, tmp_path, capsys, monkeypatch):
        solve, calls = melnikov.solve_tau_star, []

        def third_call_fails(*args, **kwargs):
            calls.append(args)
            if len(calls) == 3:
                raise NoConvergence("tau* Newton iteration did not converge")
            return solve(*args, **kwargs)

        monkeypatch.setattr(melnikov, "solve_tau_star", third_call_fails)
        assert main(["tau", str(cfg_file)]) == 3
        assert capsys.readouterr().err.startswith("NoConvergence: ")
        assert os.listdir(tmp_path / "out") == []

    def test_failed_rerun_drops_earlier_metadata(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["crest", str(cfg_file)]) == 0
        assert main(["tau", str(cfg_file)]) == 0
        assert (out / "tau_metadata.json").exists()
        bad = tmp_path / "vert.ini"
        bad.write_text(cfg_file.read_text().replace("a1 = 0.3", "a1 = 1.7").replace(
            "a2 = 0.1", "a2 = 0.4"))
        assert main(["tau", str(bad)]) == 3
        assert capsys.readouterr().err.startswith("NotHorizontal: ")
        assert not (out / "tau_metadata.json").exists()
        assert (out / "crest_metadata.json").exists()

    def test_domain_error_exit_code(self, cfg_file, tmp_path):
        # a vertical-regime parameter set makes the tau command fail cleanly
        text = cfg_file.read_text().replace("a1 = 0.3", "a1 = 1.7").replace(
            "a2 = 0.1", "a2 = 0.4"
        )
        bad = tmp_path / "vert.ini"
        bad.write_text(text)
        rc = main(["tau", str(bad)])
        assert rc == 3

    def test_console_entry_point(self, cfg_file, subprocess_env):
        proc = subprocess.run(
            [sys.executable, "-m", "arnolddiff.cli", "tau", str(cfg_file)],
            capture_output=True, env=subprocess_env,
        )
        assert proc.returncode == 0, proc.stderr.decode()

    def test_commands_do_not_import_scipy(self, cfg_file, tmp_path, subprocess_env):
        # scipy is a test-time dependency only: the CLI and every command must
        # run in an interpreter that refuses to import it, lazily or not
        argv = []
        for command in COMMANDS:
            ini = tmp_path / f"{command}.ini"
            ini.write_text(cfg_file.read_text() + "\n" + SECTIONS.get(command, ""))
            argv += [command, str(ini)]
        script = (
            "import sys\n"
            "class RefuseScipy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] == 'scipy':\n"
            "            raise ImportError(f'scipy refused: {name}')\n"
            "sys.meta_path.insert(0, RefuseScipy())\n"
            "from arnolddiff.cli import main\n"
            "for command, ini in zip(sys.argv[1::2], sys.argv[2::2]):\n"
            "    rc = main([command, ini])\n"
            "    if rc != 0:\n"
            "        sys.exit(f'{command} exited {rc}')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True, text=True, env=subprocess_env,
        )
        assert proc.returncode == 0, proc.stderr

    def test_scalar_commands_do_not_import_numpy(self, tmp_path, subprocess_env):
        # only check's random states, diffuse's histogram and its step
        # accounting use numpy: the other commands run in an interpreter that
        # refuses it and write the golden bytes
        golden = Path(__file__).resolve().parent / "golden"
        scalar = {"crest", "tau", "poincare", "highway", "melnikov-verify", "time-estimate"}
        runs = sorted(p.stem for p in golden.glob("*.ini") if p.stem.split(".")[0] in scalar)
        assert {run.split(".")[0] for run in runs} == scalar
        argv = []
        for run in runs:
            argv += [run.split(".")[0], str(golden / f"{run}.ini"), str(tmp_path / run)]
        script = (
            "import sys\n"
            "class RefuseNumpy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] == 'numpy':\n"
            "            raise ImportError(f'numpy refused: {name}')\n"
            "sys.meta_path.insert(0, RefuseNumpy())\n"
            "from arnolddiff.cli import main\n"
            "args = sys.argv[1:]\n"
            "for command, ini, out in zip(args[::3], args[1::3], args[2::3]):\n"
            "    rc = main([command, ini, '--output-dir', out])\n"
            "    if rc != 0:\n"
            "        sys.exit(f'{command} {ini} exited {rc}')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True, text=True, env=subprocess_env,
        )
        assert proc.returncode == 0, proc.stderr
        want = json.loads((golden / "hashes.json").read_text())
        want = {k: v for k, v in want.items() if k.split("/")[0] in runs}
        got = {
            f"{run}/{f.name}": hashlib.sha256(f.read_bytes()).hexdigest()
            for run in runs for f in (tmp_path / run).iterdir()
            if f.name.endswith(".csv") or f.name.endswith("_summary.json")
        }
        assert got == want

    def test_crest_vertical_parametrization_csv(self, cfg_file, tmp_path):
        text = cfg_file.read_text().replace("a1 = 0.3", "a1 = 1.7").replace(
            "a2 = 0.1", "a2 = 0.4"
        )
        vert = tmp_path / "vert.ini"
        vert.write_text(text)
        assert main(["crest", str(vert)]) == 0
        lines = (tmp_path / "out" / "crest.csv").read_text().splitlines()
        assert lines[0] == "phi_other[rad],s[rad],phi_M[rad],phi_m[rad],valid"
        summary = json.loads((tmp_path / "out" / "crest_summary.json").read_text())
        assert summary["kind"] == "vertical"
        assert summary["vertical_component"] == 1

    def test_diffuse_short_run(self, cfg_file, tmp_path):
        text = cfg_file.read_text() + "\n" + SECTIONS["diffuse"]
        f = tmp_path / "diff.ini"
        f.write_text(text)
        assert main(["diffuse", str(f)]) == 0
        out = tmp_path / "out"
        head = (out / "diffuse_orbit.csv").read_text().splitlines()[0]
        assert head.startswith("step,kind,I1[action],I2[action]")
        assert (out / "diffuse_wait_hist.csv").exists()
        summary = json.loads((out / "diffuse_summary.json").read_text())
        assert summary["max_deviation"] <= 0.1
        assert summary["final_gap"] <= 0.1

    def test_diffuse_across_zero_frequency(self, cfg_file, tmp_path):
        # the segment's frequency range is symmetric, so the step accounting's
        # quadrature evaluates its centre w = 0 and sums both signs of w
        f = tmp_path / "cross.ini"
        f.write_text(cfg_file.read_text()
                     + "\n[diffuse]\nwaypoints = -0.3,3; 0.3,3\neps = 1e-3\n")
        assert main(["diffuse", str(f)]) == 0
        summary = json.loads((tmp_path / "out" / "diffuse_summary.json").read_text())
        ratio = summary["Ns_times_eps"] / summary["segment_quadrature_time"]
        assert 0.5 <= ratio <= 2.0

    def test_crest_reference_surface_grid(self, cfg_file, tmp_path):
        # mu1 = mu2 = 0.4 at unit frequencies: two-surface CSV on the full grid
        text = cfg_file.read_text().replace("a1 = 0.3", "a1 = 0.4").replace(
            "a2 = 0.1", "a2 = 0.4"
        ).replace("grid = 16", "grid = 128")
        f = tmp_path / "fig2.ini"
        f.write_text(text)
        assert main(["crest", str(f)]) == 0
        lines = (tmp_path / "out" / "crest.csv").read_text().splitlines()
        assert len(lines) == 128 * 128 + 1
        assert all(row.endswith(",1") for row in lines[1:])  # fully horizontal


# Invalid raw values for each parser in config.SCHEMA.  Plain floats are the
# [model] and [integrator] fields: ModelParams and IntegratorConfig reject
# NaN and -inf in every one of them.  `[verify] state` has the `_floats`
# parser, so a state of the wrong length is not enumerated here;
# test_verify_state_length_exit_code keeps that open gap visible.
NON_FINITE = ["nan", "inf", "-inf"]
FLOAT_LISTS = ["x", "1,x", *NON_FINITE, "1,nan", "1,", ",1", "1,,2"]
INVALID = {
    float: ["x", "nan", "-inf"],
    int: ["x", "1.5"],
    str: [],
    config._finite: ["x", *NON_FINITE],
    config._count: ["x", "1.5", "0", "-1", str(config.MAX_COUNT + 1)],
    config._grid: ["x", "1.5", "0", "-1", "257", str(config.MAX_COUNT + 1)],
    config._branch: ["x", "1.5", str(config.MAX_BRANCH), str(-config.MAX_BRANCH), "300000"],
    config._natural: ["x", "1.5", "-1"],
    config._positive: ["x", *NON_FINITE, "0", "-1e-3"],
    config._nonzero: ["x", *NON_FINITE, "0"],
    config._floats: FLOAT_LISTS,
    config._four: [*FLOAT_LISTS, "1,2,3", "1,2,3,4,5"],
    config._waypoints: ["1,1; x,2", "1,1; nan,2", "1,1; 2,inf", "1,1;", "1,1; 2",
                        "1,1; 2,2,2", "1,1 2,2"],
}


def _schema_cases():
    """(command, section, key, raw, name): one run-file edit per case.

    raw None deletes a required key; `name` is what the error must name.
    """
    for command, (_fn, own, _base) in COMMANDS.items():
        for sec in ("model", "integrator", "run", own):
            for key, (parse, default) in config.SCHEMA.get(sec, {}).items():
                bad = INVALID[parse] + ([None] if default is config.REQUIRED else [])
                for raw in bad:
                    yield pytest.param(command, sec, key, raw, key,
                                       id=f"{command}-{sec}.{key}={raw}")
        yield pytest.param(command, own or "run", "typo", "1", "typo",
                           id=f"{command}-unknown-key")
        yield pytest.param(command, "typo", "x", "1", "typo", id=f"{command}-unknown-section")


def _sections(out):
    text = BASE.format(out=out) + "".join("\n" + v for v in SECTIONS.values())
    return RunConfig.parse(text).sections


@pytest.mark.parametrize("command, section, key, raw, name", _schema_cases())
def test_schema_rejects_before_work(tmp_path, capsys, monkeypatch, command, section, key,
                                    raw, name):
    monkeypatch.delenv("ARNOLDDIFF_OUTDIR", raising=False)
    out = tmp_path / "out"
    sections = _sections(out)
    if raw is None:
        del sections[section][key]
    else:
        sections.setdefault(section, {})[key] = raw
    ini = tmp_path / "run.ini"
    ini.write_text(RunConfig(sections).emit())
    assert main([command, str(ini)]) == 2
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:"), err
    assert name in lines[0].lower()
    assert not out.exists()


def test_grid_bound_keeps_scans_within_max_count(tmp_path):
    # a grid x grid scan has at most MAX_COUNT points
    assert config.MAX_GRID**2 <= config.MAX_COUNT < (config.MAX_GRID + 1) ** 2
    sections = _sections(tmp_path / "out")
    for section in ("crest", "tau"):
        sections[section]["grid"] = str(config.MAX_GRID)
        assert RunConfig(sections).values(section)["grid"] == config.MAX_GRID


def test_integrator_section_amends_the_command_base():
    base = scattering.SECTION_INTEGRATOR
    cfg = RunConfig.parse("[integrator]\nh_max = 0.05\nmax_steps = 7\n")
    assert cfg.integrator(base) == dataclasses.replace(base, h_max=0.05, max_steps=7)
    assert RunConfig.parse("[model]\n").integrator(base) == base
    assert all(default is None for _parse, default in config.SCHEMA["integrator"].values())
    with pytest.raises(dataclasses.FrozenInstanceError):
        base.h_max = 1.0


def test_schema_base_file_is_valid(tmp_path):
    cfg = RunConfig(_sections(tmp_path / "out"))
    for _fn, section, base in COMMANDS.values():
        cfg.validate(section, base)
    assert not (tmp_path / "out").exists()


# Inputs that once escaped main() or exited with the wrong code, each run on
# BASE's [model] and [run] sections.  A config error must leave no output
# directory behind.
STATE = "state = 1.0,1.0,3.9269908169872414,3.9269908169872414\n"
ONE_STEP = "[integrator]\nmax_steps = 1\n"  # every command that integrates honours it
PROBES = [
    ("melnikov-verify", "[verify]\n" + STATE + "eps_list = 1e-3,\n", 2, "config error:"),
    ("melnikov-verify", "[verify]\n" + STATE + "eps_list = nan\n", 2, "config error:"),
    ("melnikov-verify", "[verify]\nstate = nan,1,3.9,3.9\n", 2, "config error:"),
    ("time-estimate", "[time]\neps = 0\n", 2, "config error:"),
    ("time-estimate", "[time]\neps = nan\n", 2, "config error:"),
    ("time-estimate", "[time]\nseed_i1 = inf\n", 2, "config error:"),
    ("time-estimate", "[time]\nseed_i1 = 1e3\nseed_i2 = -1e3\n", 3, "AsymptoticsUnreliable:"),
    ("crest", "[crest]\ni1 = 1\ni2 = 1\ngrid = 100000000000\n", 2, "config error:"),
    ("crest", "[crest]\ni1 = 1\ni2 = 1\ngrid = 257\n", 2, "config error:"),
    ("tau", "[tau]\ni1 = 1\ni2 = 1\ngrid = 257\n", 2, "config error:"),
    ("tau", "[tau]\ni1 = 1\ni2 = 1\nbranch = x\n", 2, "config error:"),
    ("melnikov-verify", "[verify]\n" + STATE + "eps_list = 0.5\n", 3, "EpsilonTooLarge:"),
    ("poincare", SECTIONS["poincare"] + "seed_i1 = 30\ntheta1_guess = 0\n", 3,
     "EventNotFound:"),
    ("highway", SECTIONS["highway"] + "[integrator]\nmax_steps = -1\n", 2, "config error:"),
    ("poincare", SECTIONS["poincare"] + ONE_STEP, 3, "MaxStepsExceeded:"),
    ("highway", SECTIONS["highway"] + ONE_STEP, 3, "MaxStepsExceeded:"),
    ("time-estimate", ONE_STEP, 3, "MaxStepsExceeded:"),
    ("melnikov-verify", "[verify]\n" + STATE + ONE_STEP, 3, "MaxStepsExceeded:"),
    ("check", ONE_STEP, 3, "MaxStepsExceeded:"),
    # above the section integrator's h_max = 10
    ("poincare", SECTIONS["poincare"] + "[integrator]\nh_init = 50\n", 2, "config error:"),
]


@pytest.mark.parametrize("command, section, code, prefix", PROBES)
def test_probe_exit_code(tmp_path, capsys, monkeypatch, command, section, code, prefix):
    monkeypatch.delenv("ARNOLDDIFF_OUTDIR", raising=False)
    base = RunConfig.parse(BASE.format(out=tmp_path / "out")).sections
    ini = tmp_path / "run.ini"
    ini.write_text(RunConfig({k: base[k] for k in ("model", "run")}).emit() + section)
    assert main([command, str(ini)]) == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix)
    if code == 2:
        assert not (tmp_path / "out").exists()


# [model] amplitudes that once escaped main(), or warned before the exit
MODEL_PROBES = [
    ("time-estimate", "a1 = 0.4\na2 = 0.4\n", 2, "config error:"),  # window constant den <= 0
    ("time-estimate", "a1 = 0\na2 = 0.1\n", 2, "config error:"),  # T_s divides by a1
    ("time-estimate", "a1 = 0.3\na2 = 0.35\n", 2, "config error:"),  # 0.625 <= |mu| < 0.682
    ("highway", "a1 = 0.3\na2 = 0\n", 3, "AsymptoticsUnreliable:"),  # highway_seed's A2 = 0
    ("highway", "a1 = 1\na2 = 1\n", 3, "NotHorizontal:"),  # the orbit leaves the regime
    ("poincare", "a1 = 1\na2 = 1\n", 3, "NotHorizontal:"),
    ("highway", "a3 = 0\n", 3, "AsymptoticsUnreliable:"),  # highway_seed's A3 = 0
]


@pytest.mark.parametrize("command, model, code, prefix", MODEL_PROBES)
def test_model_probe_exit_code(tmp_path, capsys, command, model, code, prefix):
    sections = RunConfig.parse(BASE.format(out=tmp_path / "out")
                               + SECTIONS.get(command, "")).sections
    sections["model"].update(RunConfig.parse("[model]\n" + model).sections["model"])
    ini = tmp_path / "run.ini"
    ini.write_text(RunConfig(sections).emit())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, str(ini)]) == code
    assert [str(w.message) for w in caught] == []
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix)
    assert not list(tmp_path.glob("out/*.csv"))


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="[verify] state has no length check; perfbench's failure-capture "
                          "test injects its fault through state = 1,1,1")
def test_verify_state_length_exit_code(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(BASE.format(out=tmp_path / "out").replace(STATE, "state = 1,1,1\n"))
    assert main(["melnikov-verify", str(ini)]) == 2


@pytest.mark.parametrize("window, named", [
    ("omega_lo = 8\nomega_hi = 7\n", ("omega_lo = 8.0", "omega_hi = 7.0")),
    ("i1_stop = 7\n", ("omega_lo = 7.02", "omega_hi = 6.95")),   # the default window reversed
    ("omega_lo = 7.5\nomega_hi = 7.5\n", ("omega_lo = 7.5", "omega_hi = 7.5")),
])
def test_time_estimate_rejects_an_empty_or_reversed_window(tmp_path, capsys, monkeypatch,
                                                           window, named):
    from arnolddiff import highway

    def no_trace(*args, **kwargs):
        raise AssertionError("a Highway trace ran before the window was checked")

    monkeypatch.setattr(highway, "highway_trace", no_trace)
    monkeypatch.delenv("ARNOLDDIFF_OUTDIR", raising=False)
    ini = tmp_path / "run.ini"
    ini.write_text(BASE.format(out=tmp_path / "out") + "[time]\n" + window)
    assert main(["time-estimate", str(ini)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:")
    assert all(text in lines[0] for text in named), lines[0]
    assert list((tmp_path / "out").iterdir()) == []


def _reference_csv(path, header, rows):
    """The CSV writer before its %-format fast path: csv.writer on every row."""
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(
            [f"{v:.17g}" if isinstance(v, float) else str(v) for v in row] for row in rows
        )


_SPECIAL_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.0**-1040, 1e308)
_CELLS = {
    "float": st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS)),
    "int": st.integers(-(2**70), 2**70),
    "bool": st.booleans(),
    "none": st.none(),
    "float64": st.floats().map(np.float64),
    "str": st.one_of(st.sampled_from(["I", "S", "", ",", '"', "a,b", 'say "x"', "\r", "\n",
                                      "x\r\ny", " pad ", "nan", "é"]),
                     st.text(max_size=6)),
}


@st.composite
def _table(draw):
    """Columns of one type each, some rows with other types: the fast path and its exits."""
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1, max_size=6))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 5)) == 0:   # a row whose types change mid-table
            rows.append([draw(_CELLS[draw(st.sampled_from(sorted(_CELLS)))]) for _ in kinds])
        else:
            rows.append([draw(_CELLS[k]) for k in kinds])
    as_tuples = draw(st.booleans())
    return [f"col{k}" for k in range(len(kinds))], [tuple(r) if as_tuples else r for r in rows]


@settings(max_examples=400, deadline=None)
@given(table=_table(), lazy=st.booleans())
def test_write_csv_bytes_equal_csv_writer(tmp_path_factory, table, lazy):
    from arnolddiff.cli import _write_csv

    header, rows = table
    d = tmp_path_factory.mktemp("csv")
    _reference_csv(d / "ref.csv", header, rows)
    _write_csv(str(d / "fast.csv"), header, (r for r in rows) if lazy else rows)
    assert (d / "fast.csv").read_bytes() == (d / "ref.csv").read_bytes()
    assert sorted(p.name for p in d.iterdir()) == ["fast.csv", "ref.csv"]


def test_write_csv_header_only_and_single_columns(tmp_path):
    from arnolddiff.cli import _write_csv

    tables = [
        (["a", "b"], []), (["a"], iter([])), (["a"], [[""], ["x"], [""]]),
        (["a"], [["x"], [""], [1.5]]), (["a", "b"], [[np.float64(0.1), 1], [0.1, 1]]),
        (["a", "b"], [[1, "I"], [2, "S"], [3, "x,y"], [4, ""], [5, "S"], [6.0, "S"]]),
    ]
    for k, (header, rows) in enumerate(tables):
        rows = list(rows)
        _reference_csv(tmp_path / f"ref{k}.csv", header, rows)
        _write_csv(str(tmp_path / f"fast{k}.csv"), header, iter(rows))
        assert (tmp_path / f"fast{k}.csv").read_bytes() == (tmp_path / f"ref{k}.csv").read_bytes()
