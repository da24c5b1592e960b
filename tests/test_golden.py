"""Every command's output bytes equal the committed table, on any CPU.

``tests/golden/`` holds one run file per command and ``hashes.json``, the
SHA-256 of every CSV and ``_summary.json`` they write (see
``tests/golden/regen.py``, which rewrites the table).  There is no
tolerance: a change that moves one output bit is named here by file.
"""

import ast
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

from arnolddiff import diffusion, highway, inner, melnikov, ode, scattering

GOLDEN = Path(__file__).resolve().parent / "golden"


def _regen():
    spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _moved(table):
    want = json.loads((GOLDEN / "hashes.json").read_text())
    return sorted(k for k in want.keys() | table.keys() if want.get(k) != table.get(k))


def test_outputs_match_the_table():
    assert _moved(_regen().golden_hashes()) == []


def test_outputs_do_not_depend_on_blas_core_or_simd_level(subprocess_env):
    # numpy's dispatch held at baseline x86 and OpenBLAS on an old core
    env = dict(subprocess_env, OPENBLAS_CORETYPE="Sandybridge",
               NPY_DISABLE_CPU_FEATURES="X86_V4 X86_V3")
    proc = subprocess.run([sys.executable, str(GOLDEN / "regen.py"), "--print"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert _moved(json.loads(proc.stdout)) == []


def test_src_uses_no_simd_transcendental():
    # on AVX2 and AVX-512 machines these numpy functions round differently
    # from libm, which would make the table depend on the CPU
    banned = {"sinh", "cosh", "exp", "arcsin"}
    src = Path(__file__).resolve().parents[1] / "src" / "arnolddiff"
    found = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [node.attr] if node.value.id in ("np", "numpy") else []
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} numpy.{n}" for n in names if n in banned]
    assert found == []


def test_model_inner_ode_and_highway_import_no_numpy():
    # numpy holds arrays; these modules handle scalars, float tuples and float lists only
    src = Path(__file__).resolve().parents[1] / "src" / "arnolddiff"
    found = []
    for name in ("model.py", "inner.py", "ode.py", "highway.py"):
        for node in ast.walk(ast.parse((src / name).read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{name}:{node.lineno} {m}" for m in modules if m.split(".")[0] == "numpy"]
    assert found == []


def test_points_are_float_tuples(params, params_fig5):
    # seeds, landings, flowed states, path points and jump pairs are tuples of
    # exactly float, and Highway orbits lists of exactly float, also from numpy
    # scalar inputs such as the CLI's linspace grids
    def floats(x, n):
        return type(x) is tuple and len(x) == n and all(type(v) is float for v in x)

    state, _res = highway.highway_seed(np.float64(7.0), -7.0, params)
    assert floats(state, 4)
    c = 5 * math.pi / 4
    level = melnikov.reduced_poincare(0, (0.0, 0.0, c, c), params_fig5)
    seed = scattering.adjust_seed_to_level(0, 0.0, 0.0, c, np.float64(c + 0.1), level, params_fig5)
    assert floats(seed, 4)
    traj = ode.integrate(scattering.flow_rhs(0, params_fig5), seed, (0.0, 120.0),
                         scattering.SECTION_INTEGRATOR, record=False,
                         section=ode.Section(0, 0.0, 1), max_crossings=2)
    assert traj.crossings and all(floats(y, 4) for _t, y in traj.crossings)
    assert floats(inner.inner_flow(np.array([1.0, 1.0, c, c, 0.0]), 2.0, params), 5)
    orb = highway.highway_trace(state, params, stop=(1, -6.0, 1))
    for column in (orb.t, orb.tau, orb.lstar):
        assert type(column) is list and all(type(v) is float for v in column)
    assert all(len(row) == 4 and all(type(v) is float for v in row) for row in orb.states)
    path = diffusion.stairstep(diffusion.ActionPath(np.array([[1.0, 1.0], [1.3, 1.2]]), 0.1))
    assert type(path.waypoints) is tuple and all(floats(p, 2) for p in path.waypoints)
    centers = diffusion._ball_centers(path)
    assert centers and all(floats(p, 2) for p in centers)
    check = diffusion.verify_scattering_jump(np.array([1.0, 1.0, c, c]), 0, 1e-3, params)
    assert floats(check.measured, 2) and floats(check.predicted, 2)
    assert floats(check.raw_delta, 2)
