"""Every command's output bytes equal the committed table, on any CPU.

``tests/golden/`` holds one run file per command and ``hashes.json``, the
SHA-256 of every CSV and ``_summary.json`` they write (see
``tests/golden/regen.py``, which rewrites the table).  There is no
tolerance: a change that moves one output bit is named here by file.
"""

import ast
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

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
