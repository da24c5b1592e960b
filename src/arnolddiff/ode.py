"""Adaptive Runge-Kutta-Fehlberg 7(8) integration that stops on sections.

The 13-stage Fehlberg tableau is used with local extrapolation (the
8th-order solution propagates; the embedded 7th-order value feeds the error
estimate).  Every section here is a coordinate hyperplane y[k] = c
(``Section``).  When an accepted step crosses one, the crossing is landed
on with Henon's trick: one extra RKF78 step with y[k] as the independent
variable, from the nearer end of the step at which y[k] moves toward c, to
y[k] = c.  No dense-output interpolant is needed, the crossing state
satisfies y[k] == c exactly, and the integration goes on from the step end,
so one pass collects any number of crossings.  Only a step in which y[k]
turns near the crossing at both ends is halved before landing.

The step runs on Python floats: states are lists, right-hand sides return
tuples, and ``rkf78_step`` is straight-line code generated at import from
the tableau (``_STEP_SOURCE``).  Every stage is summed left to right,
``v + h * (a0*k0 + a1*k1 + ...)``, with no FMA and with the zero
coefficients kept, so ``0 * inf`` still gives NaN.  A numpy matrix-vector
product would leave the order of that sum to the BLAS kernel OpenBLAS picks
for the CPU, and different kernels round differently; a fixed order makes
every number a function of the inputs alone (it equals what numpy gives
under ``OPENBLAS_CORETYPE=Sandybridge``).  Plain float arithmetic is also
about twice as fast as numpy scalars on four- to nine-component states.

The same generator writes the step in C (``c_step_source``), in any
dimension and with the step-size constants, and the compiled kernels
translate ``_integrate`` around it: a right-hand side from
``scattering.flow_rhs`` carries ``f.orbit(y0, t0, t1, cfg, record,
section, max_crossings)``, the whole orbit in one C call, with its
step-size control, ``_error_norm``, ``Section.crossed`` and the common
landing (``_land``'s choice of end and one ``_henon_step`` in s), and with
the bits, rows and counts of the loop below.  ``_integrate`` takes it once,
at its top, on ``y0`` converted to the list of floats that the loop starts
from, so the container and number types of ``y0`` do not pick the path.
Where it returns None (an argument outside its fast path, a stage at
which the Python kernels raise, a landing that needs halving or the
adaptive integration in s) ``_integrate`` runs the loop below from the
start, which is deterministic and so returns the same ``Trajectory`` or
raises the same error; ``MaxStepsExceeded`` and ``StepSizeUnderflow`` come
from the C orbit itself, so a run over budget is not made twice.  The
dispatch lives in ``_integrate``, which every orbit passes through, and
not behind ``rkf78_step``, because a caller may wrap ``rkf78_step`` and the
``f`` it is handed (the benchmark's span tracer does): a wrapped f carries
no ``orbit``, and a traced portrait run on the Python step took three
times as long.
"""

import linecache
import math
from dataclasses import dataclass, field

from .errors import EventNotFound, MaxStepsExceeded, StepSizeUnderflow

# Fehlberg 7(8) coefficients; row i of _A holds a_i0 ... a_i,i-1.
_C = (0.0, 2 / 27, 1 / 9, 1 / 6, 5 / 12, 1 / 2, 5 / 6, 1 / 6, 2 / 3, 1 / 3, 1.0, 0.0, 1.0)
_A = (
    (),
    (2 / 27,),
    (1 / 36, 1 / 12),
    (1 / 24, 0, 1 / 8),
    (5 / 12, 0, -25 / 16, 25 / 16),
    (1 / 20, 0, 0, 1 / 4, 1 / 5),
    (-25 / 108, 0, 0, 125 / 108, -65 / 27, 125 / 54),
    (31 / 300, 0, 0, 0, 61 / 225, -2 / 9, 13 / 900),
    (2, 0, 0, -53 / 6, 704 / 45, -107 / 9, 67 / 90, 3),
    (-91 / 108, 0, 0, 23 / 108, -976 / 135, 311 / 54, -19 / 60, 17 / 6, -1 / 12),
    (
        2383 / 4100, 0, 0, -341 / 164, 4496 / 1025, -301 / 82, 2133 / 4100,
        45 / 82, 45 / 164, 18 / 41,
    ),
    (3 / 205, 0, 0, 0, 0, -6 / 41, -3 / 205, -3 / 41, 3 / 41, 6 / 41, 0),
    (
        -1777 / 4100, 0, 0, -341 / 164, 4496 / 1025, -289 / 82, 2193 / 4100,
        51 / 82, 33 / 164, 12 / 41, 0, 1,
    ),
)
_B8 = (0, 0, 0, 0, 0, 34 / 105, 9 / 35, 9 / 35, 9 / 280, 9 / 280, 0, 41 / 840, 41 / 840)
_ERRW = 41 / 840  # error = h*ERRW*(k0 + k10 - k11 - k12)

_SAFETY = 0.9
_SHRINK = 0.2
_GROW = 5.0
_ORDER_EXP = -1.0 / 8.0


@dataclass(frozen=True)
class IntegratorConfig:
    """Step-size control of ``integrate``; frozen, so a shared default stays put.

    Each integrating flow names its own default (``scattering.SECTION_INTEGRATOR``,
    ``highway.TRACE_INTEGRATOR``, ``diffusion.EXCURSION_INTEGRATOR``), and a
    run file's ``[integrator]`` section amends it with ``dataclasses.replace``.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    h_init: float = 1e-2
    h_min: float = 1e-13
    h_max: float = 1e3
    max_steps: int = 2_000_000

    def __post_init__(self):
        if not (0.0 < self.h_min <= self.h_init <= self.h_max):
            raise ValueError("need 0 < h_min <= h_init <= h_max")
        # written so that NaN fails too
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("tolerances abs_tol and rel_tol must be > 0")
        # inf passes both checks above, and a run on it could not be recorded in JSON
        for name in ("abs_tol", "rel_tol", "h_init", "h_min", "h_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, not {getattr(self, name)!r}")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass
class Section:
    """The hyperplane y[component] = value, crossed in a given direction.

    direction +1 counts upward crossings (y[component] rising through value),
    -1 downward, 0 both.  A step that starts exactly on the hyperplane does
    not cross it, so an orbit started on a section does not retrigger.
    """

    component: int
    value: float
    direction: int = 0

    def crossed(self, y0, y1):
        """Whether the step from y0 to y1 crosses the section (end point included)."""
        g0 = y0[self.component] - self.value
        g1 = y1[self.component] - self.value
        if g0 == 0.0 or g0 * g1 > 0.0:
            return False
        return self.direction == 0 or (g0 < 0.0) == (self.direction > 0)


@dataclass
class Trajectory:
    t: list                 # floats
    y: list                 # rows as the steps returned them: float lists, a landing tuple
    n_accepted: int = 0
    n_rejected: int = 0
    crossings: list = field(default_factory=list)   # (t, y) landings on a Section, y a tuple

    @property
    def final(self):
        return tuple(self.y[-1])


def _stage_sums(operand):
    """The tableau's sums as source text: stages 1 to 12, then y8.

    Sum i is a_i0*k0 + a_i1*k1 + ... left to right, zero coefficients
    included; coefficients are float literals (repr round-trips exactly) and
    ``operand(r)`` is the text that names k_r.  Both step generators below
    write their sums from here, so the tableau and its order exist once.
    """
    return [" + ".join(f"{float(a)!r} * {operand(r)}" for r, a in enumerate(row))
            for row in (*_A[1:], _B8)]


def _error_sum(operand):
    """k0 + k10 - k11 - k12: the error estimate is h*_ERRW times this."""
    return f"{operand(0)} + {operand(10)} - {operand(11)} - {operand(12)}"


def _step_source():
    """Source of ``rkf78_step``: one line per stage, written out from the tableau."""
    sums = _stage_sums(lambda r: f"x{r}")

    def stage(i):
        xs = ", ".join(f"x{r}" for r in range(i))
        ks = ", ".join(f"k{r}" for r in range(i))
        return f"[v + h * ({sums[i - 1]}) for v, {xs} in zip(y, {ks})]"

    lines = [
        "def rkf78_step(f, t, y, h):",
        '    """One raw step; returns (y8, error estimate) as lists of floats."""',
        "    k0 = f(t, y)",
    ]
    for i in range(1, 13):
        lines.append(f"    k{i} = f(t + {_C[i]!r} * h, {stage(i)})")
    lines += [
        f"    y8 = {stage(13)}",
        f"    he = h * {_ERRW!r}",
        f"    err = [he * ({_error_sum(lambda r: f'x{r}')})"
        " for x0, x10, x11, x12 in zip(k0, k10, k11, k12)]",
        "    return y8, err",
    ]
    return "\n".join(lines) + "\n"


def c_step_source():
    """C text of ``rkf78_step`` and the step-size constants, for ``kernels/_leaves.c``.

    ``static int rkf78_step(rhs, ctx, n, y, h, y8, err)`` takes n doubles
    (n at most RKF78_MAX_DIM, which the including file defines, as it
    defines the right-hand-side type ``rkf78_rhs_fn``) and calls
    ``rhs(ctx, state, k)`` for the 13 stages; it returns 0 as soon as a
    right-hand side does and 1 once ``y8`` and ``err`` hold what the Python
    ``rkf78_step`` returns.  The flows are autonomous there, so no stage
    time is formed.  The sums are ``_stage_sums``' and ``_error_sum``'s, the
    Python step's text with k_r[c] for x_r; the compiler flags keep them
    unfused and unreordered.  ``_SAFETY``, ``_SHRINK``, ``_GROW`` and
    ``_ORDER_EXP`` become ``RKF78_SAFETY`` ... ``RKF78_ORDER_EXP``.
    """
    sums = _stage_sums(lambda r: f"k{r}[c]")
    loop = "    for (c = 0; c < n; c++)\n"
    lines = [
        "/* Emitted by arnolddiff.ode.c_step_source from the Fehlberg tableau. */",
        *(f"#define RKF78_{name} ({float(value)!r})" for name, value in (
            ("SAFETY", _SAFETY), ("SHRINK", _SHRINK), ("GROW", _GROW),
            ("ORDER_EXP", _ORDER_EXP))),
        "static int",
        "rkf78_step(rkf78_rhs_fn rhs, const void *ctx, int n, const double *y, double h,",
        "           double *y8, double *err)",
        "{",
        "    double " + ", ".join(f"k{r}[RKF78_MAX_DIM]" for r in range(13))
        + ", s[RKF78_MAX_DIM], he;",
        "    int c;",
        "    if (!rhs(ctx, y, k0))",
        "        return 0;",
    ]
    for i in range(1, 13):
        lines += [
            loop + f"        s[c] = y[c] + h * ({sums[i - 1]});",
            f"    if (!rhs(ctx, s, k{i}))",
            "        return 0;",
        ]
    lines += [
        loop + f"        y8[c] = y[c] + h * ({sums[12]});",
        f"    he = h * {_ERRW!r};",
        loop + f"        err[c] = he * ({_error_sum(lambda r: f'k{r}[c]')});",
        "    return 1;",
        "}",
    ]
    return "\n".join(lines) + "\n"


_STEP_SOURCE = _step_source()
_STEP_FILE = "<arnolddiff.ode.rkf78_step>"
# registered so that tracebacks and inspect.getsource show the generated lines
linecache.cache[_STEP_FILE] = (len(_STEP_SOURCE), None, _STEP_SOURCE.splitlines(True), _STEP_FILE)
exec(compile(_STEP_SOURCE, _STEP_FILE, "exec"))


def _error_norm(err, y0, y1, cfg):
    """max_i |err_i| / (abs_tol + rel_tol * max(|y0_i|, |y1_i|)).

    NaN whenever any component of err, y0 or y1 is NaN (as np.max and
    np.maximum give), so a step that produced a NaN is rejected.
    """
    atol, rtol = cfg.abs_tol, cfg.rel_tol
    worst = 0.0
    for e, a, b in zip(err, y0, y1):
        a, b = abs(a), abs(b)
        r = abs(e) / (atol + rtol * (a if a > b else b))
        if r != r or a != a:
            return math.nan
        if r > worst:
            worst = r
    return worst


def integrate(f, y0, t_span, cfg=IntegratorConfig(), record=True, section=None, max_crossings=1):
    """Integrate y' = f(t, y) over t_span (backward if t1 < t0).

    With a ``section``, every accepted step that crosses it is landed on the
    hyperplane (see ``_land``) and the landing ``(t, y)`` is appended to
    ``crossings``; integration goes on from the step end with the current
    step size and stops at the ``max_crossings``-th landing, which then
    replaces the step end as the final (and, if recording, last) row.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"non-finite integration span {t_span}")
    if t0 == t1:
        raise ValueError("empty integration span")
    if section is not None and max_crossings < 1:
        raise ValueError("max_crossings must be >= 1")
    return _integrate(f, y0, t0, t1, cfg, record, section, max_crossings)


def _integrate(f, y0, t0, t1, cfg, record, section, max_crossings):
    y = list(map(float, y0))
    orbit = getattr(f, "orbit", None)   # the whole orbit in C; see the module docstring
    if orbit is not None:
        traj = orbit(y, t0, t1, cfg, record, section, max_crossings)
        if traj is not None:
            return traj
    direction = 1.0 if t1 > t0 else -1.0
    t = t0
    h = direction * min(cfg.h_init, cfg.h_max, abs(t1 - t0))
    ts = [t0]
    ys = [y]
    crossings = []
    n_acc = 0
    n_rej = 0
    attempts = 0
    while (t1 - t) * direction > 0.0:
        attempts += 1
        if attempts > cfg.max_steps:
            raise MaxStepsExceeded(f"exceeded {cfg.max_steps} step attempts at t={t}")
        clipped = abs(h) >= abs(t1 - t)
        if clipped:
            h = t1 - t
        y_new, err = rkf78_step(f, t, y, h)
        enorm = _error_norm(err, y, y_new, cfg)
        if enorm <= 1.0:
            t_prev, y_prev = t, y
            # a step clipped to the span end lands on it exactly: t + (t1 - t)
            # may round short of t1 and leave a sub-ulp tail step
            t = t1 if clipped else t + h
            y = y_new
            n_acc += 1
            if record:
                ts.append(t)
                ys.append(y)
            if section is not None and section.crossed(y_prev, y):
                crossings.append(_land(f, section, t_prev, y_prev, t, y, cfg))
                if len(crossings) == max_crossings:
                    t, y = crossings[-1]
                    if record:
                        ts[-1] = t
                        ys[-1] = y
                    break
            factor = _GROW if enorm == 0.0 else min(
                _GROW, max(_SHRINK, _SAFETY * enorm**_ORDER_EXP)
            )
            h *= factor
            if abs(h) > cfg.h_max:
                h = direction * cfg.h_max
        else:
            n_rej += 1
            h *= max(_SHRINK, _SAFETY * enorm**_ORDER_EXP)
        if abs(h) < cfg.h_min and (t1 - t) * direction > 0.0:
            raise StepSizeUnderflow(f"step size {abs(h):.3e} below h_min at t={t}")
    if not record:
        ts.append(t)
        ys.append(y)
    return Trajectory(ts, ys, n_acc, n_rej, crossings)


def _land(f, section, t0, y0, t1, y1, cfg):
    """Land on the section inside the accepted step (t0, y0) -> (t1, y1).

    Henon's trick (Physica D 5 (1982) 412-414): with s = y[k] as the
    independent variable the flow reads dy/ds = f/f_k, dt/ds = 1/f_k, so one
    RKF78 step of length value - s reaches the hyperplane.  It starts from
    the nearer end of the step at which y[k] moves toward the section (f_k
    has the sign of (y1[k] - y0[k]) / (t1 - t0)); a landing time outside
    the step is refused.  If neither end gives a landing, y[k] turns near
    the crossing at both ends: the step is halved and the half that crosses
    is landed on.  Returns (t, y), y a tuple with y[k] == value exactly.
    """
    k, value = section.component, section.value
    while y1[k] != value:
        ends = ((t1, y1), (t0, y0))
        if abs(y0[k] - value) < abs(y1[k] - value):
            ends = ends[::-1]
        rate = (y1[k] - y0[k]) * (t1 - t0)
        for t, y in ends:
            if f(t, y)[k] * rate > 0.0:
                hit = _henon_step(f, k, value, t, y, cfg)
                if hit is not None and min(t0, t1) <= hit[0] <= max(t0, t1):
                    return hit
        h = 0.5 * (t1 - t0)
        if abs(h) < cfg.h_min:
            raise StepSizeUnderflow(f"cannot land on {section} in a step of {abs(h):.3e}")
        # a half of an accepted step needs no error check
        y_mid, _err = rkf78_step(f, t0, y0, h)
        if (y_mid[k] - value) * (y0[k] - value) <= 0.0:
            t1, y1 = t0 + h, y_mid
        else:
            t0, y0 = t0 + h, y_mid
    return t1, tuple(y1)


def _henon_step(f, k, value, t, y, cfg):
    """(t, y) where the orbit through (t, y) meets y[k] = value, or None.

    One RKF78 step in s = y[k], checked with its embedded error; only if
    that check fails is the same system integrated adaptively in s.  Those
    steps are not steps of the orbit, so a trace counting accepted and
    rejected steps of ``integrate`` sees them as event re-steps.  None if
    f_k vanishes on the way: the adaptive steps underflow, the state is not
    finite, or f raises ValueError or ArithmeticError on such a state.
    """

    def g(s, z):
        dy = f(z[-1], z[:-1])
        fk = dy[k]
        if fk == 0.0:
            # IEEE v / +-0, which Python refuses: v * +-inf is +-inf, NaN for v = 0 or NaN
            inv = math.copysign(math.inf, fk)
            return [v * inv for v in dy] + [inv]
        return [v / fk for v in dy] + [1.0 / fk]

    z = [*y, t]
    try:
        z_hit, err = rkf78_step(g, y[k], z, value - y[k])
        if not _error_norm(err, z, z_hit, cfg) <= 1.0:
            z_hit = _integrate(g, z, y[k], value, cfg, False, None, 1).final
    except (StepSizeUnderflow, ValueError, ArithmeticError):
        return None
    if not all(map(math.isfinite, z_hit)):
        return None
    y_hit = list(map(float, z_hit[:-1]))
    y_hit[k] = float(value)
    return float(z_hit[-1]), tuple(y_hit)


def integrate_to_event(f, y0, section, cfg=IntegratorConfig(), t_span=(0.0, 1e4)):
    """Run until the first crossing of ``section``; returns (state, t_event).

    The state lies on the section exactly.  Raises EventNotFound if the
    horizon runs out first.
    """
    traj = integrate(f, y0, t_span, cfg, record=False, section=section)
    if not traj.crossings:
        raise EventNotFound(f"no qualifying crossing of {section} in t_span={t_span}")
    t, y = traj.crossings[0]
    return y, t
