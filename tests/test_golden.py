"""Every command's output bytes equal the committed table, on any CPU.

``tests/golden/`` holds a run file per command, variants that reach other
output branches, and ``hashes.json``, the SHA-256 of every CSV and
``_summary.json`` they write (see
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
SRC = Path(__file__).resolve().parents[1] / "src" / "arnolddiff"


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
    banned = {"sin", "cos", "sinh", "cosh", "exp", "arcsin"}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [node.attr] if node.value.id in ("np", "numpy") else []
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} numpy.{n}" for n in names if n in banned]
    assert found == []


def _modules(node):
    """The modules an import statement names ([] for any other node)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [node.module or ""]
    return []


def _imports(path, package):
    """file:line and module of every import of package or its submodules, at any depth."""
    return [f"{path.name}:{node.lineno} {m}" for node in ast.walk(ast.parse(path.read_text()))
            for m in _modules(node) if m.split(".")[0] == package]


def _numpy_importers(path):
    """(file, enclosing function or None at module level) of every numpy import."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if any(m.split(".")[0] == "numpy" for m in _modules(child)):
                found.append((path.name, function))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            else:
                visit(child, function)

    visit(ast.parse(path.read_text()), None)
    return found


def test_no_module_imports_numpy_at_module_level():
    # importing the package, the CLI included, loads no numpy
    found = []
    for path in sorted(SRC.rglob("*.py")):
        found += [f for f in _numpy_importers(path) if f[1] is None]
    assert found == []


def test_numpy_is_imported_only_where_arrays_are_the_work():
    # check's default_rng stream, diffuse's histogram and step_accounting's
    # masked means; every other layer works on Python floats
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        found.update(_numpy_importers(path))
    assert found == {("cli.py", "cmd_check"), ("cli.py", "cmd_diffuse"),
                     ("diffusion.py", "step_accounting")}


def test_src_imports_no_scipy():
    # scipy is the tests' reference for the numerics ports, not a runtime dependency
    found = []
    for path in sorted(SRC.rglob("*.py")):
        found += _imports(path, "scipy")
    assert found == []


def test_points_are_float_tuples(params, params_fig5):
    # seeds, landings, flowed states, path points and jump pairs are tuples of
    # exactly float, and Highway orbits and section states lists of exactly
    # float, also from numpy scalar inputs
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
    pts = scattering.poincare_section(0, level, 0.0, [(0.0, 0.0, c, np.float64(c + 0.1))],
                                      120.0, params_fig5, max_crossings=2)
    assert pts and all(type(p.state) is list and len(p.state) == 4 for p in pts)
    assert all(type(v) is float for p in pts for v in p.state)
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


def _statement_lines(tree):
    """{cmd_* name: [(first, last) line span of each statement it must reach]}.

    A compound statement spans its header, a simple one all its lines.
    Left out: a ``raise``, the body of an ``except``, a ``try`` (its
    clauses are checked), and a docstring, ``global`` or ``nonlocal``, which
    run no code.
    """
    spans = {}

    def visit(body, out):
        for k, node in enumerate(body):
            if isinstance(node, (ast.Raise, ast.Global, ast.Nonlocal)):
                continue
            if (k == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                continue
            blocks = [getattr(node, name, []) for name in ("body", "orelse", "finalbody")]
            blocks = [b for b in blocks if b and isinstance(b[0], ast.stmt)]
            if not isinstance(node, ast.Try):
                first = node.decorator_list[0].lineno if getattr(
                    node, "decorator_list", None) else node.lineno
                last = blocks[0][0].lineno - 1 if blocks else node.end_lineno
                out.append((first, max(first, last)))
            for b in blocks:
                visit(b, out)

    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_"):
            spans[node.name] = []
            visit(node.body, spans[node.name])
    return spans


def test_golden_runs_reach_every_statement_of_every_command():
    # a new output branch without a run file under tests/golden/ fails here
    from arnolddiff import cli

    filename = cli.__file__
    reached = set()

    def local(frame, event, arg):
        if event == "line":
            reached.add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename == filename else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        table = _regen().golden_hashes()
    finally:
        sys.settrace(previous)
    assert _moved(table) == []
    with open(filename) as fh:
        spans = _statement_lines(ast.parse(fh.read()))
    assert set(spans) == {fn.__name__ for fn, _section, _base in cli.COMMANDS.values()}
    missed = [f"{name}: cli.py:{first}" for name, lines in spans.items()
              for first, last in lines if not reached.intersection(range(first, last + 1))]
    assert missed == []
