"""Scalar kernels of the crest/scattering hot path and the pseudo-orbit builder.

A re-export of ``kernels.pure``, the one specification, whose three leaves
``alpha``, ``_coeffs`` and ``tau_star`` run compiled from ``_leaves.c``
with the same bits.  Importing the package builds ``_leaves.c`` once with
sysconfig's C compiler into ``kernels/__pycache__/``, under a name keyed by
the hash of the source, of the emitted step header (below), the flags and
the extension suffix, then rebinds those three names in ``pure`` to the
compiled leaves and sets ``BACKEND = "c"``.  A warm cache only loads the
file.  Without a compiler, or when the build fails, the Python leaves
stay, one line on stderr says so, and ``BACKEND`` is ``"python"``.

The build also compiles the scattering flow's integration, ``flow_orbit``: a
whole orbit of ``ode._integrate`` in one C call.  ``_leaves.c`` translates
``flow_rhs`` on the compiled leaves, ``_integrate``'s loop, ``_error_norm``,
``Section.crossed`` and the common landing (one Henon step in five
dimensions), and includes ``rkf78_step.h``, which ``ode.c_step_source``
writes from the tableau and step-size constants behind ``ode.rkf78_step``
and ``_integrate`` (``STEP_HEADER``, emitted at every import because it is
part of the cache key).  ``scattering.flow_rhs`` attaches the orbit to its
right-hand side as ``f.orbit``, and ``ode._integrate`` calls that once per
orbit (there, not behind ``ode.rkf78_step``, whose ``f`` the span tracer
wraps), with the state as the list of floats its Python loop starts from;
where ``flow_orbit`` returns None (an argument outside its fast path, a
stage at which the Python kernels raise, a landing that needs halving or an
adaptive integration in s) ``_integrate`` runs its Python loop from the
start, which gives the same ``Trajectory`` or raises the same error.
``flow_orbit`` is None without the compiled leaves, and every orbit runs in
Python.  A build that succeeds removes the ``_leaves.*`` files of other keys
from the cache; a warm import removes nothing.

Two more entry points run the pseudo-orbit builder's loops.  ``jump_run``
runs iterations of ``diffusion.build_pseudo_orbit``'s loop: the final-ball,
ball and guard tests, ``_window_for``, ``_jump_data`` (``lstar_grad``'s lines
on the compiled solve, then psi), ``inner.in_window`` with Python's float
``%``, the jump, the path distance (``pure.path_distance``'s scan of the
segment table, the builder's only compiled distance) and the tracking
check, appending each jump's ``PseudoStep``.  It returns to the Python loop
with the state, the jumps made and the iterations used at the first
iteration that needs a rotation wait (handing over ``u`` and the window), and
before the first that moves to the next ball, ends the orbit, raises
``Stuck`` or meets a solve that raises, which Python then runs itself.
``probe_sweep`` runs ``inner.ergodize``'s probe loop and returns the window
entry or False; where a probe's solve raises it returns None and the Python
sweep reruns from its start.  Both are None without the compiled leaves, and
tests set them to None to run the Python loops.

Everything else (``lstar``, ``lstar_grad``, ``flow_rhs``, ``coeff`` and
``coeff_deriv``) stays in Python and reaches the leaves through ``pure``'s
module globals, because the span tracer in ``perfbench/spans.py`` counts the
solves made inside them by rebinding ``kernels.pure.tau_star``.
``pure.path_distance`` stays in Python under both backends:
``diffusion.ActionPath.distance_to``, the method the tracer counts, calls it
once per build, per detour jump and per jump after a rotation wait.  The
solves, gradients and distances inside ``flow_orbit``, ``jump_run`` and
``probe_sweep`` are not seen there: a traced run counts those of the orbits
that stay in Python (none on portrait or highway_family) and of the
pseudo-orbit builder's rotation waits, detours and the jumps after them
only.
``PYTHON_LEAVES`` holds the Python leaves, the specification that
``tests/test_leaves.py`` compares the compiled ones with.
"""

import hashlib
import os
import shutil
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_file_location

from .. import ode
from . import pure

PYTHON_LEAVES = {name: getattr(pure, name)
                 for name in ("alpha", "_coeffs", "tau_star")}

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_leaves.c")
# -ffp-contract=off: no fused multiply-add; -fno-builtin: no libm call folded
# at compile time or fused into sincos.  Either would move bits.
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-builtin")
# the compiled step's stage sums and step-size constants, which _leaves.c
# includes as rkf78_step.h
STEP_HEADER = ode.c_step_source()


def _cached_extension():
    """Path of the compiled leaves for this source, step, these flags and this interpreter."""
    with open(SOURCE, "rb") as fh:
        key = hashlib.sha256(fh.read())
    key.update(STEP_HEADER.encode())
    key.update(" ".join(CFLAGS).encode())
    key.update(EXTENSION_SUFFIXES[0].encode())
    return os.path.join(os.path.dirname(SOURCE), "__pycache__",
                        f"_leaves.{key.hexdigest()[:16]}{EXTENSION_SUFFIXES[0]}")


def _build(path):
    """Compile ``_leaves.c`` to ``path``: in a temporary directory that also holds
    the emitted ``rkf78_step.h``, then ``os.replace``, so a concurrent build or
    load never sees a partial file."""
    import subprocess
    import sysconfig
    import tempfile

    cc = sysconfig.get_config_var("CC")
    if not cc:
        raise OSError("sysconfig names no C compiler")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="_leaves.", suffix=".tmp", dir=os.path.dirname(path))
    try:
        with open(os.path.join(tmp, "rkf78_step.h"), "w") as fh:
            fh.write(STEP_HEADER)
        out = os.path.join(tmp, "_leaves.so")
        proc = subprocess.run([*cc.split(), *CFLAGS, "-I" + sysconfig.get_paths()["include"],
                               "-I" + tmp, SOURCE, "-o", out, "-lm"],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            first = (proc.stderr.strip().splitlines() or [""])[0]
            raise OSError(f"{cc} exited {proc.returncode}: {first}")
        os.replace(out, path)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _remove_other_builds(path):
    """Delete the ``_leaves.*`` files beside ``path``: builds of earlier sources,
    headers or flags.  Temporary build directories are left alone, and so is a
    file another process still holds (unlinking a loaded file is harmless)."""
    cache = os.path.dirname(path)
    for name in os.listdir(cache):
        other = os.path.join(cache, name)
        if name.startswith("_leaves.") and other != path and os.path.isfile(other):
            try:
                os.remove(other)
            except OSError:
                pass


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
            _remove_other_builds(path)
        return _load(path)
    except (OSError, ImportError) as exc:
        print(f"arnolddiff: compiled kernels unavailable ({exc}); using the Python kernels",
              file=sys.stderr)
        return None


_leaves = _compiled_leaves()
if _leaves is not None:
    for _name in PYTHON_LEAVES:
        setattr(pure, _name, getattr(_leaves, _name))
BACKEND = "python" if _leaves is None else "c"
# the scattering flow's compiled orbit, the pseudo-orbit builder's compiled
# jumps and ergodize's compiled probe sweep; None without the compiled leaves
flow_orbit = None if _leaves is None else _leaves.flow_orbit
jump_run = None if _leaves is None else _leaves.jump_run
probe_sweep = None if _leaves is None else _leaves.probe_sweep

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
