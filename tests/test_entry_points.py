"""No dead entry points: every compiled entry point and every module-level
function and class of the package has a caller in the package or the
benchmark (``perfbench/``), apart from the allowlist below.

Callers are found in the syntax trees of ``src/`` and ``perfbench/``: a
name read, an attribute, an imported name or a string that is exactly the
name (``getattr`` and ``PYTHON_LEAVES`` look leaves up by name).  A
definition is not a read of its own name.  The compiled entry points are
read from the method table of ``kernels/_leaves.c`` as text, so this runs
without a compiler.  Tests and ``benchmarks/`` do not count as callers: a
helper that only they call is dead weight on the package.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "arnolddiff"
KERNELS_INIT = PACKAGE / "kernels" / "__init__.py"

# the paper's formulas, which the tests exercise and no command computes
ALLOWED = {
    ("highway", "symmetric_highway_theta"): "the closed-form Highway angle of the symmetric "
                                            "case a1 = a2, checked against the level and "
                                            "crest equations",
    ("scattering", "transversality_certificate"): "the Poisson brackets that certify the inner "
                                                  "and scattering flows share no trajectory",
}


def _reads(tree):
    """How often each name is read in a module's syntax tree."""
    reads = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute):
            reads[node.attr] += 1
        elif isinstance(node, ast.alias):
            reads[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            reads[node.value] += 1
    return reads


def _modules():
    files = [*sorted((ROOT / "src").rglob("*.py")), *sorted((ROOT / "perfbench").rglob("*.py"))]
    return {path: ast.parse(path.read_text(), str(path)) for path in files}


def test_every_compiled_entry_point_is_read():
    text = (PACKAGE / "kernels" / "_leaves.c").read_text()
    table = re.search(r"leaves_methods\[\] = \{(.*?)\n\};", text, re.S).group(1)
    names = re.findall(r'\{"(\w+)",', table)
    assert "flow_orbit" in names and "tau_star" in names
    init = KERNELS_INIT.read_text()
    leaves = re.search(r"PYTHON_LEAVES = \{.*?\}", init, re.S).group(0)
    elsewhere = Counter()
    for path, tree in _modules().items():
        if path != KERNELS_INIT:
            elsewhere.update(_reads(tree))
    for name in names:
        if f'"{name}"' in leaves:
            continue        # rebound into kernels.pure, whose callers read it there
        # kernels binds it to its own name, which a caller outside kernels reads
        assert f"_leaves.{name}" in init, f"kernels/__init__.py never reads _leaves.{name}"
        assert elsewhere[name], f"compiled {name} has no caller in src/ or perfbench/"


def test_every_function_and_class_has_a_caller():
    modules = _modules()
    reads = Counter()
    for tree in modules.values():
        reads.update(_reads(tree))
    dead = set()
    for path, tree in modules.items():
        if PACKAGE not in path.parents:
            continue
        module = path.stem if path.stem != "__init__" else path.parent.name
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not reads[node.name]:
                dead.add((module, node.name))
    assert dead == set(ALLOWED)
