"""Scalar kernels of the crest/scattering hot path.

A re-export of ``kernels.pure``, the one implementation.  ``pure`` stays a
module of its own, and ``lstar`` and ``lstar_grad`` reach ``tau_star``
through its module global, because the span tracer in ``perfbench/spans.py``
counts the solves made inside them by rebinding ``kernels.pure.tau_star``.
``BACKEND`` stays, as the constant ``"python"``, because run metadata
(``kernel_backend``) and the benchmark report record it.
"""

from . import pure
from .pure import (
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

BACKEND = "python"
