import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arnolddiff import diffusion, highway, kernels, melnikov
from arnolddiff.errors import DegenerateDirection, RangeNotCovered, Stuck
from arnolddiff.model import ModelParams

TWO_PI = 2.0 * math.pi


def _reference_distance(path, point):
    """Scalar segment-by-segment reference for ActionPath.distance_to."""
    p = np.asarray(point, dtype=float)
    wp = np.asarray(path.waypoints)
    best = math.inf
    for a, b in zip(wp[:-1], wp[1:]):
        d = b - a
        den = float(d @ d)
        if den == 0.0:
            u = 0.0
        else:
            u = float(np.clip((p - a) @ d / den, 0.0, 1.0))
        proj = a + u * d
        best = min(best, float(np.max(np.abs(p - proj))))
    return best


def _numpy_distance(path, point):
    """The former numpy body of ActionPath.distance_to, all segments at once."""
    with np.errstate(all="ignore"):
        p = np.asarray(point, dtype=float)
        wp = np.asarray(path.waypoints)
        a = wp[:-1]
        d = wp[1:] - a
        pa = p - a
        den = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
        num = pa[:, 0] * d[:, 0] + pa[:, 1] * d[:, 1]
        u = np.divide(num, den, out=np.zeros_like(num), where=den != 0.0)
        np.clip(u, 0.0, 1.0, out=u)
        proj = a + u[:, None] * d
        return float(np.abs(p - proj).max(axis=1).min())


def _same_bits(path, point):
    return repr(path.distance_to(point)) == repr(_numpy_distance(path, point))


_coord = st.floats(-4.0, 4.0, allow_nan=False)


@st.composite
def _axis_aligned_path(draw):
    """Axis-aligned polyline; a zero step repeats the previous waypoint."""
    pts = [np.array([draw(_coord), draw(_coord)])]
    moves = st.tuples(st.integers(0, 1), st.booleans())
    for axis, repeat in draw(st.lists(moves, min_size=1, max_size=12)):
        q = pts[-1].copy()
        if not repeat:
            q[axis] = draw(_coord)
        pts.append(q)
    return diffusion.ActionPath(np.array(pts), 0.1)


@st.composite
def _oblique_path(draw):
    """Arbitrary polyline, with some waypoints repeated verbatim."""
    pts = [np.array([draw(_coord), draw(_coord)])]
    for repeat in draw(st.lists(st.booleans(), min_size=1, max_size=12)):
        pts.append(pts[-1].copy() if repeat else np.array([draw(_coord), draw(_coord)]))
    return diffusion.ActionPath(np.array(pts), 0.1)


@st.composite
def _point_for(draw, path):
    """A point on one of the path's segments, or anywhere near the path."""
    if draw(st.booleans()):
        k = draw(st.integers(0, len(path.waypoints) - 2))
        t = draw(st.floats(0.0, 1.0))
        a, b = np.asarray(path.waypoints[k]), np.asarray(path.waypoints[k + 1])
        return a + t * (b - a)
    return np.array([draw(_coord), draw(_coord)])


class TestPaths:
    def test_axis_aligned_unchanged(self):
        p = diffusion.ActionPath(np.array([[1.0, 1.0], [3.0, 1.0], [3.0, 2.0]]), 0.1)
        s = diffusion.stairstep(p)
        assert np.allclose(s.waypoints, p.waypoints)

    def test_quarter_circle_hausdorff(self):
        t = np.linspace(0.0, math.pi / 2, 60)
        arc = np.column_stack([2.0 + 2.0 * np.cos(t + math.pi), 2.0 + 2.0 * np.sin(t + math.pi)])
        arc = arc + np.array([2.0, 2.0])  # quarter circle radius 2 in the first quadrant
        p = diffusion.ActionPath(arc, 0.1)
        s = diffusion.stairstep(p, resolution=0.05)
        # every stairstep vertex within resolution of the arc, and vice versa
        for q in s.waypoints:
            assert p.distance_to(q) <= 0.05 + 1e-9
        for q in p.waypoints:
            assert s.distance_to(q) <= 0.05 + 1e-9

    def test_steps_within_resolution_at_large_actions(self):
        # vertices 0.005 apart at |I| = 1000 are distinct, not merged by a relative tolerance
        p = diffusion.ActionPath(np.array([[1000.0, 1000.0], [1000.05, 1000.05]]), 0.01)
        s = diffusion.stairstep(p)
        assert len(s.waypoints) == 21
        assert np.abs(np.diff(s.waypoints, axis=0)).max() <= 0.005 + 1e-9
        assert np.array_equal(s.end, p.end)

    def test_origin_reroute_clearance(self):
        p = diffusion.ActionPath(np.array([[-1.0, 0.02], [1.0, 0.02]]), 0.1)
        wp = np.asarray(diffusion.stairstep(p).waypoints)
        for a, b in zip(wp[:-1], wp[1:]):
            for frac in np.linspace(0.0, 1.0, 21):
                q = a + frac * (b - a)
                assert np.max(np.abs(q)) >= 0.05 - 1e-12  # clearance >= delta/2

    def test_rejects_waypoint_in_guard(self):
        with pytest.raises(ValueError):
            diffusion.stairstep(diffusion.ActionPath(np.array([[0.0, 0.0], [1.0, 0.0]]), 0.1))

    def test_identity_equality_and_hash(self):
        p = diffusion.ActionPath(np.array([[1.0, 1.0], [3.0, 1.0]]), 0.1)
        q = diffusion.ActionPath(np.array([[1.0, 1.0], [3.0, 1.0]]), 0.1)
        assert p == p
        assert p != q
        assert {p, p, q} == {p, q}
        r = dataclasses.replace(p, delta=0.2)
        assert r != p and r.delta == 0.2 and p.delta == 0.1
        assert np.array_equal(r.waypoints, p.waypoints)
        assert r.distance_to([2.0, 1.4]) == p.distance_to([2.0, 1.4])

    def test_length_and_distance(self):
        p = diffusion.ActionPath(np.array([[1.0, 1.0], [3.0, 1.0], [3.0, 2.0]]), 0.1)
        assert p.distance_to([2.0, 1.4]) == pytest.approx(0.4)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_distance_exact_on_axis_aligned_paths(self, data):
        path = data.draw(_axis_aligned_path())
        point = data.draw(_point_for(path))
        assert path.distance_to(point) == _reference_distance(path, point)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_distance_matches_reference_on_oblique_paths(self, data):
        path = data.draw(_oblique_path())
        point = data.draw(_point_for(path))
        assert abs(path.distance_to(point) - _reference_distance(path, point)) <= 1e-14


class TestDistanceBits:
    """distance_to (the compiled leaf, or without a compiler the pruned Python
    one) against the former numpy pass, by repr."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_axis_aligned_paths(self, data):
        path = data.draw(_axis_aligned_path())
        point = data.draw(_point_for(path))
        assert _same_bits(path, point)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_oblique_paths(self, data):
        path = data.draw(_oblique_path())
        point = data.draw(_point_for(path))
        assert _same_bits(path, point)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                           st.floats(allow_nan=False, allow_infinity=False)),
                 min_size=2, max_size=8),
        st.tuples(st.floats(), st.floats()),
    )
    def test_any_floats(self, waypoints, point):
        # tiny, huge, subnormal and non-finite values
        assert _same_bits(diffusion.ActionPath(np.array(waypoints), 0.1), point)

    @pytest.mark.parametrize("point", [
        (1.0, 1.0), (3.0, 1.0), (3.0, 2.0), (2.0, 1.0), (3.0, 1.5), (0.1, 0.7),
        (2.0, 1.4), (1.0 + 1e-17, 1.0), (3.0, 1.0 + 2.0**-52),
    ])
    def test_on_path_and_at_waypoints(self, point):
        path = diffusion.ActionPath(np.array([[1.0, 1.0], [3.0, 1.0], [3.0, 2.0]]), 0.1)
        assert _same_bits(path, point)
        oblique = diffusion.ActionPath(np.array([[0.1, 0.7], [1.0, 1.0], [3.0, 2.0]]), 0.1)
        assert _same_bits(oblique, point)

    @pytest.mark.parametrize("point", [(1.0, 1.0), (1.0, 1.3), (2.5, 0.0), (-1.0, 1.0)])
    def test_zero_length_segments(self, point):
        path = diffusion.ActionPath(
            np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 1.0], [2.0, 1.0], [2.0, 1.0]]), 0.1)
        assert _same_bits(path, point)
        single = diffusion.ActionPath(np.array([[1.0, 1.0], [1.0, 1.0]]), 0.1)
        assert _same_bits(single, point)

    def test_equidistant_from_two_segments(self):
        path = diffusion.ActionPath(np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0]]), 0.1)
        assert path.distance_to((1.0, 1.0)) == 1.0
        for point in [(1.0, 1.0), (1.5, 0.5), (0.3, 0.3), (2.25, -0.25)]:
            assert _same_bits(path, point)
        parallel = diffusion.ActionPath(
            np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 0.2], [0.0, 0.2]]), 0.1)
        assert parallel.distance_to((1.5, 0.1)) == 0.1
        assert _same_bits(parallel, (1.5, 0.1))

    @pytest.mark.parametrize("waypoints, point", [
        ([[-1e300, 0.0], [1e300, 0.0]], (0.0, 0.0)),                     # d.d overflows
        ([[-1e300, 1e300], [1e300, -1e300], [1.0, 1.0]], (2.0, 1.0)),
        ([[1.0, 1.0], [2.0, 1.0]], (1e300, 1.0)),
        ([[1.0, 1.0], [2.0, 1.0]], (-1e300, -1e300)),
        ([[1e300, 1.0], [1e300, 2.0], [-1e300, 2.0]], (1e300, 1.5)),
        ([[1.7e308, 0.0], [-1.7e308, 0.0]], (0.0, 1.0)),                 # b - a overflows
        ([[1e-300, 0.0], [3e-300, 1e-310]], (2e-300, 5e-324)),
    ])
    def test_huge_and_tiny_coordinates(self, waypoints, point):
        assert _same_bits(diffusion.ActionPath(np.array(waypoints), 0.1), point)

    @pytest.mark.parametrize("point", [
        (math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan), (math.inf, 1.0),
        (-math.inf, 1.0), (1.0, math.inf), (1.0, -math.inf), (math.inf, -math.inf),
        (math.inf, math.inf), (math.nan, math.inf),
    ])
    def test_non_finite_points(self, point):
        for wp in ([[1.0, 1.0], [3.0, 1.0], [3.0, 2.0]],
                   [[0.0, 0.0], [1.0, 2.0], [1.0, 2.0], [-1.0, 0.5]],
                   [[1.0, 1.0], [2.0, 1.0]]):
            assert _same_bits(diffusion.ActionPath(np.array(wp), 0.1), point)
        axis = diffusion.ActionPath(np.array([[1.0, 1.0], [3.0, 1.0], [3.0, 2.0]]), 0.1)
        assert math.isnan(axis.distance_to(point))

    def test_pruning_keeps_a_projection_outside_its_box(self):
        # The first segment (horizontal at height h) gives best = h.  The
        # second ends at b = (0.1, 0); p lies beyond b, so u clips to 1 and
        # the computed a + u*d = -3.0 + (0.1 + 3.0) rounds to 0.1 + 6 ulps,
        # out of the segment's box and towards p.  Its residual is below h
        # although the box is farther than h: without a rounding margin the
        # segment would be skipped and h returned.
        h = 1e-16
        p = (0.1 + 1.5e-16, 0.0)
        path = diffusion.ActionPath(np.array([[p[0], h], [-3.0, h], [0.1, 0.0]]), 0.1)
        box_gap = p[0] - 0.1
        assert _numpy_distance(path, p) < h < box_gap
        assert _same_bits(path, p)

    def test_waypoints_are_immutable(self):
        wp = np.array([[1.0, 1.0], [3.0, 1.0]])
        path = diffusion.ActionPath(wp, 0.1)
        with pytest.raises(TypeError):
            path.waypoints[0][0] = 2.0
        with pytest.raises(TypeError):
            path.waypoints[0] = (2.0, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            path.waypoints = np.array([[0.0, 0.0], [5.0, 0.0]])
        wp[0, 0] = 2.0   # the caller's array is copied, not frozen
        assert path.waypoints[0][0] == 1.0 and path.distance_to((1.0, 1.0)) == 0.0


class TestBuilder:
    def test_short_path_terminates_quickly(self, params):
        path = diffusion.ActionPath(np.array([[1.0, 1.0], [1.05, 1.0]]), 0.1)
        start = np.array([1.0, 1.0, 2.0, 4.4])
        orb = diffusion.build_pseudo_orbit(path, start, params)
        # already inside the final ball: no jumps needed
        assert orb.n_scatter == 0

    def test_tracks_horizontal_segment(self, params):
        path = diffusion.ActionPath(np.array([[1.0, 1.0], [1.6, 1.0]]), 0.1)
        start = np.array([1.0, 1.0, 2.0, 4.4])
        orb = diffusion.build_pseudo_orbit(path, start, params)
        assert orb.max_deviation <= 0.1
        assert orb.meta["final_gap"] <= 0.1
        assert orb.n_scatter > 100
        # jumps in the tracked component are positive on average
        psi1 = [s.psi[0] for s in orb.steps if s.kind == "S"]
        assert sum(map(math.sin, psi1)) < 0.0  # psi1 mostly in (pi, 2pi)

    def test_one_gradient_per_jump(self, params, monkeypatch):
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
        path = diffusion.ActionPath(np.array([[1.0, 1.0], [1.6, 1.0]]), 0.1)
        orb = diffusion.build_pseudo_orbit(path, np.array([1.0, 1.0, 2.0, 4.4]), params)
        assert orb.n_scatter > 100 and orb.n_inner > 0 and orb.n_detour == 0
        assert orb.n_scatter <= len(grad_calls) <= orb.n_scatter + orb.n_inner
        # psi is only evaluated inside the rotation waits, never by the builder
        assert psi_callers and "build_pseudo_orbit" not in psi_callers
        for s in orb.steps:
            assert s.dist == _reference_distance(orb.path, s.state[:2])

    def test_detour_on_resonant_diagonal(self, params):
        # both window components must be active at the blocked state, so aim
        # the first ball diagonally away from the equal-frequency start
        path = diffusion.ActionPath(np.array([[1.0, 1.08], [1.45, 1.08]]), 0.1)
        start = np.array([1.0, 1.0, 0.3, 0.3 + math.pi])
        events = []
        orb = diffusion.build_pseudo_orbit(
            path, start, params, on_event=lambda kind, z, t: events.append(kind)
        )
        assert orb.n_detour > 0
        assert "detour" in events
        assert orb.meta["final_gap"] <= 0.1

    def test_major_window_when_offset_blocks_opposite_windows(self, params, monkeypatch):
        # near-equal frequencies with |u1| just past the deadband: the two
        # windows lie on opposite halves, the line offset psi2 - psi1 sits
        # near 0 (not pi), and the two-window sweep finds no entry; the
        # builder then waits for the window of the larger |u| alone
        major = diffusion._wait_for_major_window
        used = []

        def recording(z, window, u, *args):
            assert None not in window and abs(u[1]) > abs(u[0]) > 0.025
            used.append(z)
            return major(z, window, u, *args)

        monkeypatch.setattr(diffusion, "_wait_for_major_window", recording)
        path = diffusion.stairstep(diffusion.ActionPath(np.array(
            [[1.2964474979042044, 1.298885287614924], [1.3164474979042045, 1.698885287614924]]
        ), 0.1))
        start = (1.2964474979042044, 1.298885287614924, 3.4288474779363951, 3.9367337894783607)
        orb = diffusion.build_pseudo_orbit(path, start, params)
        assert used
        assert orb.n_detour == 0 and orb.n_scatter + orb.n_inner == 2269
        assert orb.max_deviation <= 0.1 and orb.meta["final_gap"] <= 0.1

    def test_major_window_unreachable_is_stuck(self, params, monkeypatch):
        def unreachable(*args, **kwargs):
            raise diffusion.WindowUnreachable("no window entry")

        monkeypatch.setattr(diffusion.inner, "ergodize", unreachable)
        z = (1.3, 1.33, 0.0, 0.0)
        window = ((0.3, math.pi - 0.3), (math.pi + 0.3, TWO_PI - 0.3))
        for win in (window, (window[0], None)):
            with pytest.raises(Stuck, match="off the resonant line"):
                diffusion._wait_for_major_window(
                    z, win, (0.03, 0.2), 0, params, diffusion.WindowUnreachable("x"))

    @pytest.mark.parametrize("start", [
        [1.0, 1.0, math.nan, 4.4], [1.0, 1.0, 2.0, math.inf], [math.nan, 1.0, 2.0, 4.4],
        [1.0, -math.inf, 2.0, 4.4],
    ])
    def test_rejects_non_finite_start(self, params, start):
        path = diffusion.ActionPath(np.array([[1.0, 1.0], [1.6, 1.0]]), 0.1)
        with pytest.raises(ValueError, match="finite"):
            diffusion.build_pseudo_orbit(path, np.array(start), params)

    def test_nan_distance_is_stuck(self, params, monkeypatch):
        monkeypatch.setattr(diffusion.ActionPath, "distance_to", lambda self, p: math.nan)
        path = diffusion.ActionPath(np.array([[1.0, 1.0], [1.6, 1.0]]), 0.1)
        with pytest.raises(Stuck, match="deviation nan"):
            diffusion.build_pseudo_orbit(path, np.array([1.0, 1.0, 2.0, 4.4]), params)

    def test_kernels_get_python_floats(self, params, monkeypatch):
        # jumps, rotation waits and detours all hand plain floats to the
        # kernels, which run about twice as fast on them as on np.float64
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
        path = diffusion.ActionPath(np.array([[1.0, 1.08], [1.45, 1.08]]), 0.1)
        orb = diffusion.build_pseudo_orbit(path, np.array([1.0, 1.0, 0.3, 0.3 + math.pi]), params)
        assert orb.n_scatter > 0 and orb.n_inner > 0 and orb.n_detour > 0
        assert len(seen) > orb.n_scatter

    def test_requires_safe_regime(self):
        p = ModelParams(0.5, 0.3, 1.0, eps=1e-3)
        path = diffusion.ActionPath(np.array([[1.0, 1.0], [2.0, 1.0]]), 0.1)
        with pytest.raises(ValueError):
            diffusion.build_pseudo_orbit(path, np.array([1.0, 1.0, 2.0, 4.4]), p)

    def test_step_accounting_bracket(self, params):
        path = diffusion.ActionPath(np.array([[1.0, 1.0], [1.8, 1.0]]), 0.1)
        orb = diffusion.build_pseudo_orbit(path, np.array([1.0, 1.0, 2.0, 4.4]), params)
        ns_eps, t_quad = diffusion.step_accounting(orb, params)
        assert 0.5 * t_quad <= ns_eps <= 2.0 * t_quad


    @pytest.mark.parametrize("waypoints, start", [
        (((1.0, 1.0), (1.02, 1.4)), (1.0, 1.0, 2.0, 4.4)),     # the golden diffuse run
        # pseudo_orbit-shaped: a 0.4 climb in I2 with a 0.02 drift in I1
        (((1.3, 1.1), (1.32, 1.5)), (1.3, 1.1, 0.5, 5.0)),
        (((2.6, 1.3), (2.58, 1.7)), (2.6, 1.3, 3.0, 1.2)),
        (((4.1, 1.0), (4.12, 1.4)), (4.1, 1.0, 5.5, 2.5)),
    ])
    def test_step_accounting_sines_are_numpy_sines(self, params, waypoints, start):
        # step_accounting takes abs(math.sin(psi)) per jump where it took
        # np.abs(np.sin(...)) of the masked psi column; they agree bit for bit
        path = diffusion.stairstep(diffusion.ActionPath(waypoints, 0.1))
        orb = diffusion.build_pseudo_orbit(path, start, params, eps=1e-3)
        psi = [p for s in orb.steps if s.kind == "S" for p in s.psi]
        assert len(psi) > 1000
        assert repr([abs(math.sin(p)) for p in psi]) == repr(np.abs(np.sin(psi)).tolist())


class TestEpsilonThreshold:
    def test_degenerate_direction(self):
        p = ModelParams(0.3, 0.0, 1.0, eps=1e-3)
        path = diffusion.ActionPath(np.array([[1.0, 1.0], [1.0, 2.0]]), 0.1)
        with pytest.raises(DegenerateDirection):
            diffusion.epsilon_threshold(path, 0.1, 3.0, p, remainder_const=1.0)

    def test_linear_in_delta(self, params):
        path = diffusion.ActionPath(np.array([[1.0, 1.0], [3.0, 1.0]]), 0.1)
        vals = [
            diffusion.epsilon_threshold(path, d, 4.0, params, remainder_const=2.0)[0]
            for d in (1e-5, 2e-5, 4e-5)
        ]
        assert vals[1] == pytest.approx(2 * vals[0], rel=1e-9)
        assert vals[2] == pytest.approx(2 * vals[1], rel=1e-9)

    def test_reference_value(self, params):
        path = diffusion.ActionPath(np.array([[1.0, 1.0], [3.0, 1.0], [3.0, 2.0]]), 0.1)
        eps0, parts = diffusion.epsilon_threshold(path, 0.1, 5.0, params, remainder_const=2.0)
        assert eps0 == min(parts["branch_m_over_2M"], parts["branch_2delta_over_m"])
        assert eps0 > 1e-3  # the acceptance run at eps = 1e-3 is admissible


class TestJumpOracle:
    def test_zero_eps_zero_jump(self, params):
        c = diffusion.verify_scattering_jump(
            np.array([1.0, 1.0, 5 * math.pi / 4, 5 * math.pi / 4]), 0, 0.0, params
        )
        assert np.all(np.asarray(c.measured) == 0.0)
        assert np.all(np.asarray(c.predicted) == 0.0)

    def test_quadratic_scaling_single_state(self, params):
        z = np.array([1.0, 1.0, 5 * math.pi / 4, 5 * math.pi / 4])
        c1 = diffusion.verify_scattering_jump(z, 0, 1e-3, params)
        c2 = diffusion.verify_scattering_jump(z, 0, 5e-4, params)
        assert 3.0 <= c1.discrepancy / c2.discrepancy <= 5.0

    def test_prediction_matches_at_small_eps(self, params):
        z = np.array([0.8, 1.3, 4.0, 4.6])
        c = diffusion.verify_scattering_jump(z, 0, 1e-4, params)
        assert c.discrepancy <= 0.1 * np.linalg.norm(c.predicted)

    def test_raw_delta_includes_rotor_drift(self, params):
        # the uncompensated action change differs from the jump by O(eps)
        z = np.array([1.0, 1.0, 5 * math.pi / 4, 5 * math.pi / 4])
        c = diffusion.verify_scattering_jump(z, 0, 1e-3, params)
        assert np.linalg.norm(np.subtract(c.raw_delta, c.measured)) > 5 * c.discrepancy


@pytest.fixture(scope="module")
def orbit():
    p = ModelParams(0.3, 0.1, 1.0, 1.0, 1.0, eps=1e-3)
    st, _ = highway.highway_seed(7.0, -7.0, p)
    return highway.highway_trace(st, p, stop=(0, 8.3, +1), drift_tol=1e-6), p


class TestTimeEstimate:

    def test_positive_time(self, orbit):
        orb, p = orbit
        est = diffusion.time_estimate((7.05, 8.2), orb, 1e-3, p)
        assert est.T_s > 0.0
        assert est.T_h == pytest.approx(2.0 * math.log(est.C / est.eps), rel=1e-14)
        assert est.T_d == pytest.approx(est.T_s / est.eps * est.T_h, rel=1e-14)

    def test_matches_wall_clock(self, orbit):
        orb, p = orbit
        est = diffusion.time_estimate((7.05, 8.2), orb, 1e-3, p)
        w1 = p.Omega1 * np.asarray(orb.states)[:, 0]
        t_lo = float(np.interp(7.05, w1, orb.t))
        t_hi = float(np.interp(8.2, w1, orb.t))
        assert est.T_s == pytest.approx(t_hi - t_lo, rel=0.01)

    def test_range_guard(self, orbit):
        orb, p = orbit
        with pytest.raises(RangeNotCovered):
            diffusion.time_estimate((1.0, 7.0), orb, 1e-3, p)

    @pytest.mark.parametrize("window", [(8.0, 7.0), (7.02, 6.95), (7.5, 7.5), (7.1, math.nan)])
    def test_window_must_increase(self, orbit, window):
        # a reversed window once gave negative T_s and T_d
        orb, p = orbit
        with pytest.raises(ValueError, match="omega_range must be increasing"):
            diffusion.time_estimate(window, orb, 1e-3, p)

    def test_too_few_samples(self, orbit):
        # the not-a-knot spline needs 4 distinct omega1 samples
        orb, p = orbit
        short = dataclasses.replace(orb, states=orb.states[:3], tau=orb.tau[:3])
        w = [p.Omega1 * row[0] for row in short.states]
        with pytest.raises(RangeNotCovered, match="has 3 distinct omega1 samples"):
            diffusion.time_estimate((w[0], w[2]), short, 1e-3, p)

    @pytest.mark.parametrize("w_lo, w_hi", [(0.0, 1.0), (1.0, 2.0)])
    def test_window_scan_is_the_scalar_kernel(self, w_lo, w_hi):
        # M(w) of the window constant C carries the Python leaf's bits
        alpha = kernels.PYTHON_LEAVES["alpha"]
        w = np.linspace(w_lo, w_hi, 4001).tolist()
        assert diffusion._bigM(w_lo, w_hi) == max(abs(x - alpha(x)) for x in w)


def test_epsilon_threshold_calibrated_fixture(params):
    # frozen value with the auto-calibrated quadratic-remainder constant
    path = diffusion.ActionPath(np.array([[1.0, 1.0], [3.0, 1.0], [3.0, 2.0]]), 0.1)
    eps0, parts = diffusion.epsilon_threshold(path, 0.1, 5.0, params)
    assert eps0 == pytest.approx(0.0501731675354988, rel=1e-9)
    assert parts["m"] == pytest.approx(0.030026870660797025, rel=1e-9)


def test_tracks_with_negative_amplitude():
    # the quadrant windows flip sign with the coupling amplitude
    p = ModelParams(-0.3, 0.1, 1.0, eps=1e-3)
    path = diffusion.ActionPath(np.array([[1.0, 1.0], [1.5, 1.0]]), 0.1)
    orb = diffusion.build_pseudo_orbit(path, np.array([1.0, 1.0, 2.0, 4.4]), p)
    assert orb.meta["final_gap"] <= 0.1
    assert orb.max_deviation <= 0.1


def test_tracks_decreasing_and_negative_actions(params):
    # downhill tracking and negative-action territory
    path = diffusion.ActionPath(np.array([[2.0, 1.0], [1.4, 1.0]]), 0.1)
    orb = diffusion.build_pseudo_orbit(path, np.array([2.0, 1.0, 2.0, 1.1]), params)
    assert orb.meta["final_gap"] <= 0.1
    path2 = diffusion.ActionPath(np.array([[1.0, -1.0], [1.5, -1.0]]), 0.1)
    orb2 = diffusion.build_pseudo_orbit(path2, np.array([1.0, -1.0, 2.0, 4.4]), params)
    assert orb2.meta["final_gap"] <= 0.1
    assert orb2.max_deviation <= 0.1


def test_tracks_on_second_branch(params):
    # the odd-branch map works the same way through its own crossing times
    path = diffusion.ActionPath(np.array([[1.0, 1.0], [1.4, 1.0]]), 0.1)
    orb = diffusion.build_pseudo_orbit(path, np.array([1.0, 1.0, 2.0, 4.4]), params, j=1)
    assert orb.meta["final_gap"] <= 0.1
    assert orb.max_deviation <= 0.1
