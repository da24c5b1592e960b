"""The compiled jump run and probe sweep against the Python loops they translate.

``kernels.jump_run`` runs iterations of ``diffusion.build_pseudo_orbit``'s
loop in C and ``kernels.probe_sweep`` runs ``inner.ergodize``'s probe loop;
both Python loops stay, the specification and the path taken without a
compiler.  Every build and sweep below runs twice, once as compiled and once
with both entry points set to None, and must give the same ``repr`` of every
``PseudoStep`` and the same counts, inner time and meta (or the same
``ErgodizeResult``), or raise the same error class with the same message.
The builds cover 200 seeded random paths (both amplitude signs, branches 0
and 1, deltas and eps from tracking to failing), random resonant starts that
need detours, the major-window wait, the guard, a NaN deviation, a solve
that does not converge, and a step budget that ends at every iteration of a
short orbit; the sweeps cover random states and windows with None components,
sweeps that end at ``t_bound`` and one whose probe does not converge.
"""

import ast
import math
import random
import shutil
import sys
import sysconfig

import pytest

from arnolddiff import diffusion, inner, kernels, melnikov
from arnolddiff.errors import NoConvergence, Stuck, WindowUnreachable
from arnolddiff.model import ModelParams
from test_diffusion import _reference_distance

CC = sysconfig.get_config_var("CC")
HAVE_CC = bool(CC) and shutil.which(CC.split()[0]) is not None
TWO_PI = 2.0 * math.pi
REF = ModelParams(0.3, 0.1, 1.0, eps=1e-3)

pytestmark = pytest.mark.skipif(
    not HAVE_CC and kernels.BACKEND == "python",
    reason="no C compiler: the Python loops are in use, nothing to compare",
)


class Runs:
    """Wraps the compiled entry points to count what they did."""

    def __init__(self, monkeypatch):
        self.jumps = self.stops = self.waits = self.sweeps = self.entries = 0
        run, sweep = kernels.jump_run, kernels.probe_sweep

        def counted_run(*args):
            out = run(*args)
            assert out is not None, "the builder's arguments left the fast path"
            self.jumps += out[1]
            self.waits += out[3] is not None
            self.stops += out[3] is None   # an iteration left to the Python loop
            return out

        def counted_sweep(*args):
            out = sweep(*args)
            self.sweeps += 1
            self.entries += bool(out)
            return out

        monkeypatch.setattr(kernels, "jump_run", counted_run)
        monkeypatch.setattr(kernels, "probe_sweep", counted_sweep)


def _outcome(call):
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def _orbit(path, start, params, **kw):
    orb = diffusion.build_pseudo_orbit(path, start, params, **kw)
    return (repr(orb.steps), orb.n_scatter, orb.n_inner, orb.n_detour, repr(orb.inner_time),
            repr(orb.meta))


def _both(monkeypatch, call):
    """call() on the compiled entry points and on the Python loops; asserts
    they agree and returns the outcome."""
    compiled = _outcome(call)
    with monkeypatch.context() as m:
        m.setattr(kernels, "jump_run", None)
        m.setattr(kernels, "probe_sweep", None)
        python = _outcome(call)
    assert compiled == python
    return compiled


def _random_build(rng):
    """A random path, start, parameter set, eps and branch, seeded by rng:
    eps from 1/20 of delta, where the path is tracked, to 6 delta, where
    jumps leave it."""
    signs = (-1.0, 1.0)
    params = ModelParams(rng.choice(signs) * rng.uniform(0.05, 0.35),
                         rng.choice(signs) * rng.uniform(0.05, 0.25), rng.choice(signs),
                         rng.uniform(0.6, 1.5), rng.uniform(0.6, 1.5), eps=1e-3)
    delta = 10.0 ** rng.uniform(-2.0, -0.9)
    waypoints = [(rng.choice(signs) * rng.uniform(0.5, 3.0),
                  rng.choice(signs) * rng.uniform(0.5, 3.0))]
    for _ in range(rng.randint(1, 3)):
        x, y = waypoints[-1]
        step = rng.uniform(-2.0, 2.0) * delta
        waypoints.append((x + step, y) if rng.random() < 0.5 else (x, y + step))
    i1, i2 = waypoints[0]
    start = (i1 + rng.uniform(-0.5, 0.5) * delta, i2, rng.uniform(0.0, TWO_PI),
             rng.uniform(0.0, TWO_PI))
    eps = delta * 10.0 ** rng.uniform(-1.3, 0.8)
    return diffusion.ActionPath(waypoints, delta), start, params, {"eps": eps,
                                                                    "j": rng.choice((0, 1))}


def test_builder_matches_the_python_loop_on_random_paths(monkeypatch):
    runs = Runs(monkeypatch)
    rng = random.Random(20261022)
    done = stuck = scatter = waits = 0
    for case in range(200):
        path, start, params, kw = _random_build(rng)
        stops = runs.stops
        out = _both(monkeypatch, lambda: _orbit(path, start, params, **kw))
        if out[0] is Stuck:
            stuck += 1
        else:
            done += 1
            scatter += out[1]
            waits += out[2]
            # the Python loop ran only the moves to the next ball and the end
            assert runs.stops - stops == ast.literal_eval(out[5])["n_balls"]
    # the cases reach what they are meant to reach
    assert done > 150 and stuck > 10 and waits > 500
    assert runs.waits > 500 and runs.sweeps > 500 and runs.entries > 500
    # the C run made nearly every jump; the Python loop made those after waits
    assert runs.jumps > 0.9 * scatter


def test_builder_matches_on_detours_and_the_major_window(monkeypatch, params):
    runs = Runs(monkeypatch)
    rng = random.Random(3)
    for case in range(3):
        # equal frequencies with the line offset at pi: detour jumps first
        th = rng.uniform(0.0, TWO_PI)
        path = diffusion.ActionPath([(1.0, 1.08), (1.0 + rng.uniform(0.15, 0.3), 1.08)], 0.1)
        eps = 10.0 ** rng.uniform(-2.6, -2.0)
        out = _both(monkeypatch, lambda: _orbit(path, (1.0, 1.0, th, th + math.pi), params,
                                                eps=eps, j=case % 2))
        assert out[3] > 0
    major = diffusion._wait_for_major_window
    used = []

    def recording(*args):
        used.append(1)
        return major(*args)

    monkeypatch.setattr(diffusion, "_wait_for_major_window", recording)
    path = diffusion.stairstep(diffusion.ActionPath(
        [(1.2964474979042044, 1.298885287614924), (1.3164474979042045, 1.698885287614924)], 0.1))
    start = (1.2964474979042044, 1.298885287614924, 3.4288474779363951, 3.9367337894783607)
    out = _both(monkeypatch, lambda: _orbit(path, start, params))
    assert used and out[1] + out[2] == 2269
    for amps in ((-0.3, 0.1), (0.3, -0.1), (-0.3, -0.1)):   # both windows flip
        p = ModelParams(*amps, 1.0, eps=1e-3)
        path = diffusion.ActionPath([(1.0, 1.0), (1.5, 1.0), (1.5, 1.3)], 0.1)
        out = _both(monkeypatch, lambda: _orbit(path, (1.0, 1.0, 2.0, 4.4), p, j=1))
        assert out[1] > 100
    assert runs.jumps > 0.9 * out[1]


def test_builder_errors_match(monkeypatch, params):
    Runs(monkeypatch)
    # the origin guard, at the first iteration
    near = ModelParams(0.3, 0.1, 1.0, eps=0.04)
    path = diffusion.ActionPath([(0.15, 0.12), (0.15, 0.5)], 0.1)
    out = _both(monkeypatch, lambda: _orbit(path, (0.15, 0.12, 2.0, 4.4), near))
    assert out[0] is Stuck and "origin guard" in out[1]
    # tracking: a jump longer than delta
    path = diffusion.ActionPath([(1.0, 1.0), (1.0, 1.01)], 1e-9)
    out = _both(monkeypatch, lambda: _orbit(path, (1.0, 1.0, 2.0, 4.4), params, eps=1e-8))
    assert out[0] is Stuck and "deviation" in out[1]
    # tracking with a NaN deviation: the last segment's d . d overflows, so
    # every distance to the path is NaN
    path = diffusion.ActionPath(
        [(1.0, 1.0), (1.6, 1.0), (1.6, 1.7e308), (1.6, -1.7e308)], 0.1, stairstepped=True)
    out = _both(monkeypatch, lambda: _orbit(path, (1.0, 1.0, 2.0, 4.4), params))
    assert out[0] is Stuck and "deviation nan" in out[1]
    # a solve that does not converge, after 32 jumps in C
    start = (2.829114992663918, 0.8638115022239525, 3587133470770.93, 4.075560193699884)
    path = diffusion.ActionPath([start[:2], (start[0] + 0.3, start[1])], 0.1)
    out = _both(monkeypatch, lambda: _orbit(path, start, params, eps=3e-3))
    assert out[0] is NoConvergence
    # the same at the first iteration
    start = (1.7617171395434756, 1.2045946109992596, 933800896895307.6, 1.5731798237561267)
    path = diffusion.ActionPath([start[:2], (start[0], start[1] + 0.4)], 0.1)
    assert _both(monkeypatch, lambda: _orbit(path, start, params))[0] is NoConvergence


def test_step_budget_ends_at_every_iteration(monkeypatch, params):
    # a short orbit with rotation waits and three balls, cut after each of
    # its iterations in turn
    runs = Runs(monkeypatch)
    path = diffusion.ActionPath([(1.0, 1.0), (1.15, 1.0), (1.15, 1.1)], 0.1)
    start = (1.0, 1.0, 2.0, 4.4)
    full = _both(monkeypatch, lambda: _orbit(path, start, params, eps=1e-2))
    assert full[2] > 0 and runs.jumps > 0
    budget = 0
    while True:
        monkeypatch.setattr(diffusion, "STEP_BUDGET", budget)
        out = _both(monkeypatch, lambda: _orbit(path, start, params, eps=1e-2))
        if out == full:
            break
        assert out == (Stuck, f"step budget exhausted before reaching {path.end}")
        budget += 1
    assert budget > full[1] + 2   # a jump each, and the ball changes and the end


def _random_window(rng):
    def interval():
        kind = rng.random()
        if kind < 0.25:
            return None
        if kind < 0.5:
            return (math.pi + 0.3, TWO_PI - 0.3)
        if kind < 0.75:
            return (0.3, math.pi - 0.3)
        lo = rng.uniform(-2.0 * TWO_PI, 2.0 * TWO_PI)
        return (lo, lo + rng.uniform(0.0, 1.5))
    return (interval(), interval())


def test_sweep_matches_the_python_loop(monkeypatch):
    runs = Runs(monkeypatch)
    rng = random.Random(7)
    outcomes = set()
    for case in range(400):
        p = ModelParams(rng.choice((-1, 1)) * rng.uniform(0.05, 0.35),
                        rng.choice((-1, 1)) * rng.uniform(0.05, 0.25), rng.choice((-1.0, 1.0)),
                        rng.uniform(0.6, 1.5), rng.uniform(0.6, 1.5), eps=1e-3)
        state = (rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0),
                 rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0))
        window = _random_window(rng)
        j = rng.choice((0, 1, -1, 2))
        t_bound = rng.choice((None, rng.uniform(0.0, 30.0), 3))
        out = _both(monkeypatch, lambda: repr(inner.ergodize(state, window, j, params=p,
                                                              t_bound=t_bound)))
        outcomes.add(out[0] if isinstance(out, tuple) else "entry")
    assert outcomes == {"entry", WindowUnreachable}
    assert runs.sweeps > 200 and runs.entries > 100


def test_sweep_solve_error_reruns_in_python(monkeypatch, params):
    runs = Runs(monkeypatch)
    state = (2.989112088776157, 1.67565876880612, 7501573148877.606, 4.013347922617337)
    window = ((math.pi + 0.3, TWO_PI - 0.3), (0.3, math.pi - 0.3))
    out = _both(monkeypatch, lambda: inner.ergodize(state, window, params=params))
    assert out[0] is NoConvergence and runs.sweeps == 1


def test_jump_run_stops_only_where_python_must_run():
    # the final-ball test holds on the last ball only, and the ball test on
    # every other ball; a jump whose distance is within delta is taken
    path = diffusion.ActionPath([(1.0, 1.0), (1.6, 1.0)], 0.1)
    steps = []

    def run(z, target, last):
        out = kernels.jump_run(0, 0.3, 0.1, 1.0, 1.0, 1.0, path._segments, path.end, 0.1, 0.01,
                               1e-3, 0.025, 0.3, z, target, last, 3, steps, diffusion.PseudoStep)
        steps.clear()
        return out[1:3]

    moving = (4.0, 1.0)   # angles in the window of a jump toward larger I1
    assert run((1.55, 1.0, *moving), (1.6, 1.0), True) == (0, 0)
    assert run((1.55, 1.0, *moving), (2.0, 1.0), False) == (3, 3)
    assert run((1.0, 1.0, *moving), (1.04, 1.0), False) == (0, 0)
    assert run((1.0, 1.0, *moving), (1.04, 1.0), True) == (3, 3)
    assert run((1.0, 1.0, *moving), (1.1, 1.0), False) == (3, 3)


def test_entry_points_decline_what_they_cannot_take(params):
    run, sweep = kernels.jump_run, kernels.probe_sweep
    path = diffusion.ActionPath([(1.0, 1.0), (1.6, 1.0)], 0.1)
    args = (0, 0.3, 0.1, 1.0, 1.0, 1.0, path._segments, path.end, 0.1, 0.1, 1e-3, 0.025, 0.3,
            (1.0, 1.0, 2.0, 4.4), (1.1, 1.0), False, 100, [], diffusion.PseudoStep)
    steps = []
    z, jumps, used, wait = run(*args[:17], steps, diffusion.PseudoStep)
    assert jumps == len(steps) and used >= jumps and type(z) is tuple
    for k, bad in ((0, 0.0), (0, True), (3, 0.0), (6, list(path._segments)), (7, list(path.end)),
                   (13, [1.0, 1.0, 2.0, 4.4]), (13, (1.0, 1.0, 2.0, 4)), (14, (1.1,)),
                   (15, 0), (16, 100.0), (17, ())):
        assert run(*args[:k], bad, *args[k + 1:]) is None, (k, bad)
    assert run(*args[:-1]) is None
    window = ((math.pi + 0.3, TWO_PI - 0.3), None)
    sargs = (0, 1.0, 1.0, 0.3, 0.1, (1.0, 1.0, 2.0, 4.4), -0.1, 0.01, 100.0, window)
    assert sweep(*sargs)
    for k, bad in ((0, 0.0), (5, [1.0, 1.0, 2.0, 4.4]), (6, 0), (9, list(window)),
                   (9, ((math.pi, 6), None)), (9, (window[0],))):
        assert sweep(*sargs[:k], bad, *sargs[k + 1:]) is None, (k, bad)
    assert sweep(*sargs[:-1]) is None


def test_one_gradient_per_wait_on_the_compiled_run(monkeypatch, params):
    # test_diffusion's test_one_gradient_per_jump on the compiled run: the C
    # run takes the gradient of every jump it makes, so the Python gradient
    # is taken once per rotation wait, psi is still never evaluated by the
    # builder, and every recorded distance is the reference distance
    runs = Runs(monkeypatch)
    grad, psi = melnikov.reduced_poincare_grad, melnikov.psi
    grad_calls, psi_callers = [], set()

    def counting_grad(*args, **kwargs):
        grad_calls.append(1)
        return grad(*args, **kwargs)

    def recording_psi(*args, **kwargs):
        psi_callers.add(sys._getframe(1).f_code.co_name)
        return psi(*args, **kwargs)

    monkeypatch.setattr(melnikov, "reduced_poincare_grad", counting_grad)
    monkeypatch.setattr(melnikov, "psi", recording_psi)
    path = diffusion.ActionPath([(1.0, 1.0), (1.6, 1.0)], 0.1)
    orb = diffusion.build_pseudo_orbit(path, (1.0, 1.0, 2.0, 4.4), params)
    assert orb.n_scatter > 100 and orb.n_inner > 0 and orb.n_detour == 0
    assert len(grad_calls) == orb.n_inner == runs.waits
    assert runs.jumps == orb.n_scatter - orb.n_inner
    assert psi_callers and "build_pseudo_orbit" not in psi_callers
    for s in orb.steps:
        assert s.dist == _reference_distance(orb.path, s.state[:2])


def test_kernels_called_from_python_get_python_floats(monkeypatch, params):
    # test_diffusion's test_kernels_get_python_floats on the compiled run:
    # the waits' and detours' kernel calls still get plain floats, and the
    # jump run takes every call (Runs asserts that none leaves the fast path)
    runs = Runs(monkeypatch)
    tau_star, lstar_grad = kernels.tau_star, kernels.lstar_grad
    seen = []

    def floats_only(values):
        assert all(type(x) is float for x in values), [type(x) for x in values]
        seen.append(1)

    def checked_tau_star(j, w1, w2, mu1, mu2, t1, t2, *args, **kwargs):
        floats_only((w1, w2, t1, t2))
        return tau_star(j, w1, w2, mu1, mu2, t1, t2, *args, **kwargs)

    def checked_lstar_grad(j, a1, a2, a3, om1, om2, i1, i2, t1, t2, *args, **kwargs):
        floats_only((i1, i2, t1, t2))
        return lstar_grad(j, a1, a2, a3, om1, om2, i1, i2, t1, t2, *args, **kwargs)

    monkeypatch.setattr(kernels, "tau_star", checked_tau_star)
    monkeypatch.setattr(kernels, "lstar_grad", checked_lstar_grad)
    path = diffusion.ActionPath([(1.0, 1.08), (1.45, 1.08)], 0.1)
    orb = diffusion.build_pseudo_orbit(path, (1.0, 1.0, 0.3, 0.3 + math.pi), params)
    assert orb.n_scatter > 0 and orb.n_inner > 0 and orb.n_detour > 0
    assert seen and runs.jumps > 0 and runs.sweeps > 0
