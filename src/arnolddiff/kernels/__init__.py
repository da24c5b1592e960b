"""Scalar kernels of the crest/scattering hot path.

A re-export of ``kernels.pure``, the one specification, whose three leaves
``alpha``, ``_coeffs`` and ``tau_star`` run compiled from ``_leaves.c``
with the same bits.  Importing the package builds ``_leaves.c`` once with
sysconfig's C compiler into ``kernels/__pycache__/``, under a name keyed by
the hash of the source, the flags and the extension suffix, then rebinds
``pure.alpha``, ``pure._coeffs`` and ``pure.tau_star`` to the compiled
leaves and sets ``BACKEND = "c"``.  A warm cache only loads the file.
Without a compiler, or when the build fails, the Python leaves stay, one
line on stderr says so, and ``BACKEND`` is ``"python"``.

Everything else (``lstar``, ``lstar_grad``, ``flow_rhs``, ``coeff`` and
``coeff_deriv``) stays in Python and reaches the leaves through ``pure``'s
module globals, because the span tracer in ``perfbench/spans.py`` counts
the solves made inside them by rebinding ``kernels.pure.tau_star``.
``PYTHON_LEAVES`` holds the Python leaves, the specification that
``tests/test_leaves.py`` compares the compiled ones with.
"""

import hashlib
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_file_location

from . import pure

PYTHON_LEAVES = {name: getattr(pure, name) for name in ("alpha", "_coeffs", "tau_star")}

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_leaves.c")
# -ffp-contract=off: no fused multiply-add; -fno-builtin: no libm call folded
# at compile time or fused into sincos.  Either would move bits.
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-builtin")


def _cached_extension():
    """Path of the compiled leaves for this source, these flags and this interpreter."""
    with open(SOURCE, "rb") as fh:
        key = hashlib.sha256(fh.read())
    key.update(" ".join(CFLAGS).encode())
    key.update(EXTENSION_SUFFIXES[0].encode())
    return os.path.join(os.path.dirname(SOURCE), "__pycache__",
                        f"_leaves.{key.hexdigest()[:16]}{EXTENSION_SUFFIXES[0]}")


def _build(path):
    """Compile ``_leaves.c`` to ``path``: into a temporary name, then ``os.replace``,
    so a concurrent build or load never sees a partial file."""
    import subprocess
    import sysconfig
    import tempfile

    cc = sysconfig.get_config_var("CC")
    if not cc:
        raise OSError("sysconfig names no C compiler")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix="_leaves.", suffix=".tmp", dir=os.path.dirname(path))
    os.close(fd)
    try:
        proc = subprocess.run([*cc.split(), *CFLAGS, "-I" + sysconfig.get_paths()["include"],
                               SOURCE, "-o", tmp, "-lm"], capture_output=True, text=True)
        if proc.returncode != 0:
            first = (proc.stderr.strip().splitlines() or [""])[0]
            raise OSError(f"{cc} exited {proc.returncode}: {first}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load(path):
    name = f"{__name__}._leaves"
    loader = ExtensionFileLoader(name, path)
    module = module_from_spec(spec_from_file_location(name, path, loader=loader))
    loader.exec_module(module)
    return module


def _compiled_leaves():
    """The compiled module, built first if the cache lacks it; None on failure."""
    try:
        path = _cached_extension()
        if not os.path.exists(path):
            _build(path)
        return _load(path)
    except (OSError, ImportError) as exc:
        print(f"arnolddiff: compiled kernels unavailable ({exc}); using the Python kernels",
              file=sys.stderr)
        return None


_leaves = _compiled_leaves()
if _leaves is not None:
    pure.alpha, pure._coeffs, pure.tau_star = _leaves.alpha, _leaves._coeffs, _leaves.tau_star
BACKEND = "python" if _leaves is None else "c"

from .pure import (  # noqa: E402  (re-exported after the rebinding above)
    ALPHA_SUP,
    OMEGA_ALPHA_SUP,
    SINH_HALF_PI,
    alpha,
    branch_offset,
    coeff,
    coeff_deriv,
    flow_rhs,
    full_rhs,
    lstar,
    lstar_grad,
    tau_star,
)
