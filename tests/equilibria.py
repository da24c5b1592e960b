"""Zero scan of the scattering flow field, a test oracle.

Criterion c06 and the zero-scan tests of ``tests/test_scattering.py`` use
it to certify where ``scattering.flow_rhs`` vanishes.  No command needs it;
it polishes its grid minima with scipy's ``fsolve``, and scipy is a
test-time dependency only.
"""

import math

import numpy as np
from scipy.optimize import fsolve

from arnolddiff import scattering
from arnolddiff.model import TWO_PI, wrap_angle


def find_equilibria(j, params):
    """Certified zero scan of the scattering flow field over a 4D box.

    Evaluates ||field|| with ``flow_rhs`` at each point of a 17^2 x 16^2 grid
    over I in [-5, 5]^2, theta in [0, 2pi)^2, runs Newton (via fsolve) from
    every local minimum, and returns the distinct zeros inside the box where
    ||field|| <= 1e-10.  Raises NotHorizontal if the crest is not a
    horizontal graph at some grid point.
    """
    box, grid_i, grid_th = 5.0, 17, 16
    f = scattering.flow_rhs(j, params)

    def norm_at(z):
        f1, f2, f3, f4 = f(0.0, z)
        return math.sqrt(f1 * f1 + f2 * f2 + f3 * f3 + f4 * f4)

    def field(z):
        return np.array(f(0.0, z))

    iv = np.linspace(-box, box, grid_i)
    tv = np.linspace(0.0, TWO_PI, grid_th, endpoint=False)
    ivl = iv.tolist()
    tvl = tv.tolist()
    norm = np.array(
        [norm_at((i1, i2, t1, t2)) for i1 in ivl for i2 in ivl for t1 in tvl for t2 in tvl]
    ).reshape(grid_i, grid_i, grid_th, grid_th)

    # local minima of ||field|| over the grid: wrap in the angle axes,
    # one-sided comparison at the action-box faces
    is_min = np.ones_like(norm, dtype=bool)
    for ax in range(4):
        fwd = np.roll(norm, -1, axis=ax)
        bwd = np.roll(norm, 1, axis=ax)
        if ax < 2:  # no wraparound in the actions
            sl_lo = [slice(None)] * 4
            sl_hi = [slice(None)] * 4
            sl_lo[ax] = 0
            sl_hi[ax] = -1
            bwd[tuple(sl_lo)] = np.inf
            fwd[tuple(sl_hi)] = np.inf
        is_min &= (norm <= fwd) & (norm <= bwd)
    cand_idx = np.argwhere(is_min)

    zeros = []
    for idx in cand_idx:
        z0 = np.array([iv[idx[0]], iv[idx[1]], tv[idx[2]], tv[idx[3]]])
        z, info, ok, _msg = fsolve(field, z0, full_output=True, xtol=1e-13)
        if ok != 1:
            continue
        if np.linalg.norm(field(z)) > 1e-10:
            continue
        if abs(z[0]) > box + 1e-6 or abs(z[1]) > box + 1e-6:
            continue
        z[2] = wrap_angle(z[2])
        z[3] = wrap_angle(z[3])
        if not any(_same_point(z, w_) for w_ in zeros):
            zeros.append(z)
    zeros.sort(key=lambda z: (round(z[2], 6), round(z[3], 6), round(z[0], 6)))
    return zeros


def _same_point(a, b, tol=1e-6):
    di = np.hypot(a[0] - b[0], a[1] - b[1])
    dt1 = min(abs(a[2] - b[2]), TWO_PI - abs(a[2] - b[2]))
    dt2 = min(abs(a[3] - b[3]), TWO_PI - abs(a[3] - b[3]))
    return di < tol and dt1 < tol and dt2 < tol
