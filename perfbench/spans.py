"""In-memory span tracer and the bindings it wraps in the arnolddiff layers.

Nothing in the package is edited: each public function is rebound, for the
duration of one operation, at the name its caller looks it up by (a module
attribute, a name imported into another module, or a class attribute), to a
wrapper that records a span and calls the original.  Spans nest strictly
(one thread, synchronous calls), so a span's self time is its duration
minus the summed durations of its direct children, computed as each span
closes.  Every span's name, start, end, parent and operation id is kept in
memory, in flat arrays, until the run ends and writes them out.
"""

import contextlib
import itertools
import time
from array import array

import arnolddiff.cli
import arnolddiff.kernels.pure
from arnolddiff import diffusion, highway, inner, kernels, melnikov, ode, scattering

RKF78_STAGES = 13   # right-hand-side evaluations per RKF78 step

LAYERS = ("kernels", "ode", "scattering", "highway", "diffusion", "melnikov", "inner", "cli")


class Stat:
    """Aggregate of every closed span with one name."""

    __slots__ = ("calls", "total", "self_time", "steps")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.steps = 0       # RKF78 steps taken inside these spans

    def copy(self):
        c = Stat()
        c.calls, c.total, c.self_time, c.steps = self.calls, self.total, self.self_time, self.steps
        return c


class Tracer:
    """Spans and counters for one traced window of operations."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.stats = {}
        self.counts = {}
        self.op = -1
        self._next_span = itertools.count()
        # per closed span: (index, name id, parent index, op) and (start, end)
        self.span_meta = array("q")
        self.span_times = array("d")
        # open frames: [child time, RKF78 steps inside, span index]; the root
        # frame collects time and steps that no open span claims
        self._stack = [[0.0, 0, -1]]

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.stats[name] = Stat()
        return self._ids[name]

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name, fn, hook=None, step=False):
        """A traced stand-in for fn; hook(tracer, result) sees every return."""
        nid = self._name_id(name)
        stat = self.stats[name]
        stack = self._stack
        meta, times = self.span_meta, self.span_times
        next_span = self._next_span
        perf = time.perf_counter
        tracer = self
        own_step = 1 if step else 0

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, 0, next(next_span)]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                times.extend((t0, t1))
                meta.extend((frame[2], nid, parent[2], tracer.op))
                stat.calls += 1
                stat.total += dur
                stat.self_time += dur - frame[0]
                stat.steps += frame[1]
                parent[0] += dur
                parent[1] += frame[1] + own_step
            if hook is not None:
                hook(tracer, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @property
    def n_spans(self):
        return len(self.span_times) // 2

    def snapshot(self):
        """Copies of the aggregates so far (the counted-operations view)."""
        return {k: v.copy() for k, v in self.stats.items()}, dict(self.counts)

    def write(self, path, ops):
        """Spans of the given operations as CSV, in closing order.

        Columns: span, op, name, parent span, start and end in seconds
        from the first span.
        """
        base = self.span_times[0] if self.span_times else 0.0
        with open(path, "w") as fh:
            fh.write("span,op,name,parent,start_s,end_s\n")
            for i in range(self.n_spans):
                idx, nid, parent, op = self.span_meta[4 * i:4 * i + 4]
                if op in ops:
                    t0, t1 = self.span_times[2 * i:2 * i + 2]
                    fh.write(f"{idx},{op},{self.names[nid]},{parent},"
                             f"{t0 - base:.9f},{t1 - base:.9f}\n")


# --- result hooks: counts read from what the wrapped call returned ---------

def _tau_iters(tr, res):
    tr.count("kernels.tau_star.iters", res[2])


def _trajectory(tr, traj):
    tr.count("ode.accepted", traj.n_accepted)
    tr.count("ode.rejected", traj.n_rejected)


def _event(tr, _res):
    tr.count("ode.events")


def _highway_recorded(tr, traj):
    _trajectory(tr, traj)
    tr.count("highway.integrations")
    tr.count("highway.recorded_steps", len(traj.t) - 1)


def _highway_event(tr, res):
    _event(tr, res)
    tr.count("highway.integrations")


def _crossings(tr, pts):
    tr.count("scattering.crossings", len(pts))


def _pseudo_orbit(tr, orb):
    tr.count("diffusion.jumps", orb.n_scatter)
    tr.count("diffusion.waits", orb.n_inner)
    tr.count("diffusion.detours", orb.n_detour)


def _probes(tr, res):
    tr.count("inner.probes", res.probes)


def _step_with_traced_rhs(tracer, rkf78_step):
    """rkf78_step that traces the right-hand side it is given.

    The right-hand side is a closure built by a factory in the layer that
    owns the model (scattering, diffusion or inner); its span is named after
    that module, so its time is not counted as integrator overhead.
    """
    last = [None, None]

    def step(f, t, y, h):
        if f is not last[0]:
            layer = f.__module__.rsplit(".", 1)[-1]
            last[0], last[1] = f, tracer.wrap(f"{layer}.rhs", f)
        return rkf78_step(last[1], t, y, h)

    return step


# (owner, attribute, span name, hook, is an RKF78 step).  Several owners
# may share a function; each binding calls the original directly, so one
# call makes exactly one span whichever name it was reached through.
# kernels.pure.tau_star is bound too so the solves inside lstar, lstar_grad
# and flow_rhs are seen; the pure lstar_grad called by flow_rhs is not, to
# keep one fewer span per right-hand-side evaluation.
BINDINGS = (
    (kernels, "flow_rhs", "kernels.flow_rhs", None, False),
    (kernels, "tau_star", "kernels.tau_star", _tau_iters, False),
    (arnolddiff.kernels.pure, "tau_star", "kernels.tau_star", _tau_iters, False),
    (kernels, "lstar", "kernels.lstar", None, False),
    (kernels, "lstar_grad", "kernels.lstar_grad", None, False),
    (kernels, "full_rhs", "kernels.full_rhs", None, False),
    (ode, "rkf78_step", "ode.rkf78_step", None, True),
    (ode, "integrate", "ode.integrate", _trajectory, False),
    (diffusion, "integrate", "ode.integrate", _trajectory, False),
    (inner, "integrate", "ode.integrate", _trajectory, False),
    (highway, "integrate", "ode.integrate", _highway_recorded, False),
    (scattering, "integrate_to_event", "ode.integrate_to_event", _event, False),
    (highway, "integrate_to_event", "ode.integrate_to_event", _highway_event, False),
    (scattering, "poincare_section", "scattering.poincare_section", _crossings, False),
    (scattering, "adjust_seed_to_level", "scattering.adjust_seed_to_level", None, False),
    (diffusion, "scattering_map", "scattering.scattering_map", None, False),
    (highway, "trace_family_between_sections", "highway.trace_family", None, False),
    (highway, "highway_trace", "highway.highway_trace", None, False),
    (diffusion.ActionPath, "distance_to", "diffusion.distance_to", None, False),
    (diffusion, "build_pseudo_orbit", "diffusion.build_pseudo_orbit", _pseudo_orbit, False),
    (diffusion, "step_accounting", "diffusion.step_accounting", None, False),
    (diffusion, "epsilon_threshold", "diffusion.epsilon_threshold", None, False),
    (diffusion, "verify_scattering_jump", "diffusion.verify_jump", None, False),
    (melnikov, "solve_tau_star", "melnikov.solve_tau_star", None, False),
    (melnikov, "psi", "melnikov.psi", None, False),
    (melnikov, "reduced_poincare", "melnikov.reduced_poincare", None, False),
    (melnikov, "reduced_poincare_grad", "melnikov.reduced_poincare_grad", None, False),
    (inner, "ergodize", "inner.ergodize", _probes, False),
    (inner, "rotate_to_psi1", "inner.rotate_to_psi1", None, False),
)


@contextlib.contextmanager
def rebound(replacements):
    """Temporarily set owner.attr = value for each (owner, attr, value)."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class Instrument:
    """Binds the tracer (if any) and a result capture around one CLI call.

    ``capture`` names span targets whose return values the output checks
    need (the portrait check reads the crossing states); capturing is a
    pass-through kept in untraced runs too.
    """

    def __init__(self, tracer=None, capture=()):
        self.captured = {}
        self._replacements = []
        for owner, attr, name, hook, step in BINDINGS:
            fn = original = owner.__dict__[attr]
            if tracer is not None:
                if step:
                    fn = _step_with_traced_rhs(tracer, fn)
                fn = tracer.wrap(name, fn, hook, step)
            if name in capture:
                fn = self._capturing(name, fn)
            if fn is not original:
                self._replacements.append((owner, attr, fn))
        self.main = arnolddiff.cli.main if tracer is None else tracer.wrap(
            "cli.main", arnolddiff.cli.main)

    def _capturing(self, name, fn):
        def capturing(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.captured[name] = result
            return result
        return capturing

    def run(self, argv):
        """main(argv) with the bindings in place; returns its exit code."""
        self.captured.clear()
        with rebound(self._replacements):
            return self.main(argv)
