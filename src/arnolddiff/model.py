"""The pendulum + two-rotor Hamiltonian: parameters, energy, vector fields.

State layout conventions:

* full state: ``[p, q, I1, I2, phi1, phi2, s]`` -- pendulum momentum/angle,
  actions, rotor angles and the time angle ``s`` (kept on the real lift
  inside integrations, reduced mod 2pi only for presentation);
* reduced state: ``(I1, I2, theta1, theta2)`` with the slow angles
  ``theta = phi - s*omega``.

The scalar layers (melnikov, scattering_map, inner's rotation waits, the
pseudo-orbit builder) take any 4-sequence and return reduced states, angle
pairs and gradient pairs as tuples of Python floats.  So are the points
they pass on: ``ActionPath.waypoints`` and its ball centers, the Highway
and portrait seeds (``highway_seed``, ``adjust_seed_to_level``), section
landings (``Trajectory.crossings``), end states (``Trajectory.final``,
``inner_flow``) and the ``JumpCheck`` pairs.  An integrated orbit stays as
the integrator produced it: ``Trajectory`` and ``HighwayOrbit`` hold lists
of floats and of rows; only ``time_estimate`` makes arrays of one, for its
splines.  numpy arrays are used where array work is done: grids and the
stacked CSV/summary columns; ``SectionPoint.state`` is an array too, since
perfbench's self-test edits a ``.copy()`` of it.
"""

import math
from dataclasses import dataclass, field

from . import kernels

TWO_PI = 2.0 * math.pi

HORIZONTAL_SAFE_BOUND = 0.625


@dataclass(frozen=True)
class ModelParams:
    """Perturbation amplitudes, rotor coefficients and perturbation size.

    ``mu1``, ``mu2`` (amplitude ratios a_i/a3) and the ``horizontal_safe``
    regime flag (|mu1| + |mu2| < 0.625, the no-tangency window in which the
    branch maps are globally defined) are computed at construction.
    """

    a1: float
    a2: float
    a3: float
    Omega1: float = 1.0
    Omega2: float = 1.0
    eps: float = 0.0
    pendulum_sign: int = 1
    mu1: float = field(init=False)
    mu2: float = field(init=False)
    horizontal_safe: bool = field(init=False)

    def __post_init__(self):
        bad = [
            k for k in ("a1", "a2", "a3", "Omega1", "Omega2", "eps")
            if not math.isfinite(getattr(self, k))
        ]
        if bad:
            raise ValueError(f"non-finite value for {', '.join(bad)}")
        if not (self.Omega1 > 0.0 and self.Omega2 > 0.0):
            raise ValueError("rotor coefficients Omega1, Omega2 must be > 0")
        if not self.eps >= 0.0:
            raise ValueError("eps must be >= 0")
        if self.pendulum_sign not in (1, -1):
            raise ValueError("pendulum_sign must be +1 or -1")
        if self.a3 != 0.0:
            mu1 = self.a1 / self.a3
            mu2 = self.a2 / self.a3
            safe = abs(mu1) + abs(mu2) < HORIZONTAL_SAFE_BOUND
        else:
            mu1 = math.nan
            mu2 = math.nan
            safe = False
        object.__setattr__(self, "mu1", mu1)
        object.__setattr__(self, "mu2", mu2)
        object.__setattr__(self, "horizontal_safe", safe)

    def require_diffusion_regime(self):
        if self.a1 * self.a2 * self.a3 == 0.0:
            raise ValueError("diffusion regime needs a1*a2*a3 != 0")
        if not self.horizontal_safe:
            raise ValueError(
                "diffusion regime needs |a1/a3| + |a2/a3| < 0.625, got "
                f"{abs(self.mu1) + abs(self.mu2):.6g}"
            )

    def frequencies(self, i1, i2):
        """omega = (Omega1*I1, Omega2*I2); recomputed, never cached."""
        return self.Omega1 * i1, self.Omega2 * i2


def hamiltonian(x, params):
    """Energy of a full state (time angle evaluated on its lift)."""
    p, q, i1, i2, f1, f2, s = x
    pend = params.pendulum_sign * (0.5 * p * p + math.cos(q) - 1.0)
    rot = 0.5 * params.Omega1 * i1 * i1 + 0.5 * params.Omega2 * i2 * i2
    coupling = (
        params.a1 * math.cos(f1) + params.a2 * math.cos(f2) + params.a3 * math.cos(s)
    )
    return pend + rot + params.eps * math.cos(q) * coupling


def rhs(params):
    """Vector field as an f(t, y) callable for the integrator."""

    sign = params.pendulum_sign
    a1, a2, a3 = params.a1, params.a2, params.a3
    om1, om2, eps = params.Omega1, params.Omega2, params.eps
    frhs = kernels.full_rhs

    def f(t, y):
        return frhs(sign, a1, a2, a3, om1, om2, eps, y[0], y[1], y[2], y[3], y[4], y[5], y[6])

    return f


def separatrix(tau, branch=1):
    """Unperturbed pendulum separatrix (p0, q0) = (±2/cosh, 4*atan(e^{±tau}))."""
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    bt = branch * tau
    if bt > 700.0:
        p0 = 0.0
    else:
        p0 = branch * 2.0 / math.cosh(tau)
    q0 = 4.0 * math.atan(math.exp(bt)) if bt < 700.0 else TWO_PI
    return p0, q0


def wrap_angle(x):
    """Reduce a scalar angle to [0, 2pi); ``x % TWO_PI`` has the bits of ``np.mod``."""
    return x % TWO_PI
