"""Event-driven piecewise solver tests.

The two-body closed forms supply the reference event times: a pair
closing at the critical rate from separation 1 sticks at
(1-alpha)/(2 alpha), and the symmetric triple collapse rescales the same
orbit by kappa = (1 + 2**(1-alpha))/3.
"""

import importlib.util
import math
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flocksim import (
    CuckerSmaleKernel,
    DivergenceError,
    DomainError,
    LocalizationError,
    NON_STICK,
    RegularizedKernel,
    STICKING,
    UNRESOLVED,
    SingularKernel,
    SolverConfig,
    TwoBodyProblem,
    classify,
    critical_velocity,
    make_system,
    solve_piecewise,
    stick_time,
)
from flocksim import integrator
from flocksim.cli import generate_scenario
from flocksim.integrator import _NSUB, _Driver
from conftest import critical_two_body

STICK_TIMES = {0.25: 1.5, 0.5: 0.5, 0.75: 1.0 / 6.0}


def _two_body(v_half, alpha=0.5):
    x = np.array([[-0.5], [0.5]])
    v = np.array([[v_half], [-v_half]])
    return make_system(x, v, SingularKernel(alpha=alpha))


class TestSolverConfig:
    def test_defaults_valid(self):
        cfg = SolverConfig()
        assert cfg.d_stick == 1e-6
        assert cfg.n_reg == 10**6

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rel_tol": 0.0},
            {"d_stick": -1e-6},
            {"t_end": float("inf")},
            {"n_reg": 1},
            {"v_stick": -1e-4},
            {"sample_dt": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(DomainError):
            SolverConfig(**kwargs)

    def test_integer_coercion(self):
        cfg = SolverConfig(n_reg=100.0)
        assert cfg.n_reg == 100 and isinstance(cfg.n_reg, int)


class TestDrift:
    def test_single_particle(self):
        s = make_system([[1.0, 2.0]], [[0.5, -0.25]], SingularKernel(alpha=0.5))
        traj = solve_piecewise(s, SolverConfig(t_end=2.0, sample_dt=0.5))
        assert traj.events == []
        np.testing.assert_allclose(traj.x[-1], [[2.0, 1.5]], atol=1e-14)
        np.testing.assert_array_equal(traj.v[0], traj.v[-1])

    def test_merged_pair_drifts_linearly(self):
        # coincident rows start in one cluster: no force, exact drift
        s = make_system([[0.0], [0.0]], [[1.0], [1.0]], SingularKernel(alpha=0.5))
        traj = solve_piecewise(s, SolverConfig(t_end=1.0, sample_dt=0.25))
        assert traj.events == []
        np.testing.assert_allclose(traj.x[-1], 1.0, atol=1e-15)

    def test_equal_velocities_never_interact(self):
        s = make_system(
            [[0.0], [0.3], [1.0]], [[2.0], [2.0], [2.0]], SingularKernel(alpha=0.5)
        )
        traj = solve_piecewise(s, SolverConfig(t_end=1.0))
        assert traj.events == []
        np.testing.assert_allclose(traj.x[-1].ravel(), [2.0, 2.3, 3.0], atol=1e-9)


class TestSampling:
    def test_grid_covers_horizon(self):
        traj = solve_piecewise(_two_body(0.1), SolverConfig(t_end=1.0, sample_dt=0.25))
        tg, xg, vg = traj.grid()
        np.testing.assert_allclose(tg, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-12)
        assert xg.shape == (5, 2, 1) and vg.shape == (5, 2, 1)

    def test_samples_start_at_zero(self):
        traj = solve_piecewise(_two_body(0.1), SolverConfig(t_end=0.5))
        assert traj.t[0] == 0.0
        np.testing.assert_array_equal(traj.x[0], [[-0.5], [0.5]])

    def test_time_strictly_increasing(self):
        traj = critical_two_body(0.5)
        assert np.all(np.diff(traj.t) > 0.0)


class TestCriticalSticking:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_stick_time_within_tolerance(self, critical_runs, alpha):
        traj = critical_runs[alpha]
        assert [e.kind for e in traj.events] == [STICKING]
        assert abs(traj.events[0].t_event - STICK_TIMES[alpha]) < 1e-3

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_merged_to_rest(self, critical_runs, alpha):
        traj = critical_runs[alpha]
        assert traj.final_state.partition.n_clusters == 1
        np.testing.assert_allclose(traj.final_state.v, 0.0, atol=1e-10)

    def test_event_group_and_kind_fields(self, critical_runs):
        e = critical_runs[0.5].events[0]
        assert e.group == (0, 1)
        assert e.rel_speed < 1e-4
        assert e.min_dist < 1e-6
        assert critical_runs[0.5].n_sticking == 1

    def test_collapse_stops_below_the_deep_threshold(self):
        # at alpha 0.25 the spread falls below v_stick while the gap is still
        # above d_stick, so the deep threshold d_stick / 256 stops the
        # collapse: min_dist 2.6e-9 against 3.9e-9.  Half that factor stops
        # it at 4.7e-9; at alpha 0.5 both stop at the same 5.0e-10.
        traj = critical_two_body(0.25, t_end=1.8)
        assert [e.kind for e in traj.events] == [STICKING]
        assert traj.events[0].min_dist < SolverConfig().d_stick / 256

    def test_mean_velocity_pinned(self, critical_runs):
        traj = critical_runs[0.5]
        means = traj.v.mean(axis=1)
        np.testing.assert_allclose(means, 0.0, atol=1e-12)

    @pytest.mark.parametrize("alpha", [0.6, 0.7])
    def test_fit_sets_the_stick_time(self, alpha):
        # from alpha 0.6 the spread falls below v_stick only inside the cap
        # region, after the collapse; the power-law fit, not that later
        # step, sets the time (the step was 4.8e-7 and 1.0e-5 late)
        t_stick = stick_time(1.0, alpha)
        traj = critical_two_body(alpha, t_end=1.2 * t_stick)
        assert [e.kind for e in traj.events] == [STICKING]
        assert abs(traj.events[0].t_event - t_stick) <= 1e-8


class TestTwoClusterCollapse:
    """Clusters of m and N-m coincident particles closing at the critical
    rate.  The 2/N coupling gives their separation the two-body law for any
    split, so they stick at the two-body stick time."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_single_sticking_at_closed_form_time(self, d):
        n, alpha, phi0 = 6, 0.5, 1.0
        e = np.array([1.0, 2.0, 3.0][:d]) / np.linalg.norm([1.0, 2.0, 3.0][:d])
        closing = -critical_velocity(phi0, alpha)
        in_a = np.isin(np.arange(n), [1, 4])[:, None]  # m = 2, interleaved rows
        x = np.where(in_a, -0.5 * phi0 * e, 0.5 * phi0 * e)
        v = np.where(in_a, 0.5 * closing * e, -0.5 * closing * e)
        system = make_system(x, v, SingularKernel(alpha=alpha))
        np.testing.assert_array_equal(system.partition.labels(), [0, 1, 0, 0, 1, 0])
        traj = solve_piecewise(system, SolverConfig(t_end=0.6))
        assert [ev.kind for ev in traj.events] == [STICKING]
        assert traj.events[0].group == tuple(range(n))
        assert abs(traj.events[0].t_event - stick_time(phi0, alpha)) < 1e-6


class TestStickTimeFit:
    """The fit's gates on hand-built monitor rows t = 1 - C * diam**0.5."""

    DRIVER = SimpleNamespace(alpha=0.5, fit_floor=1e-12, n=2)
    DIAM = np.geomspace(9e-7, 1e-9, 12)

    def _fit(self, t, diam, driver=DRIVER):
        return integrator._stick_time_fit(t, diam, driver, SolverConfig())

    def test_power_law_gives_the_intercept(self):
        assert self._fit(1.0 - self.DIAM**0.5, self.DIAM) == pytest.approx(1.0, abs=1e-12)

    def test_collapse_past_the_remaining_cap_is_rejected(self):
        # t0 - ts[-1] = 3 * sqrt(1e-9) exceeds 2 * n * stick_time(1e-9, 0.5)
        assert self._fit(1.0 - 3.0 * self.DIAM**0.5, self.DIAM) is None

    def test_stalled_last_row_is_rejected(self):
        # the last row arrives after the fitted collapse: t0_hat 1.0000055
        # falls before ts[-1] 1.0000092 while the residual stays in bounds
        t = 1.0 - self.DIAM**0.5
        t = np.append(t, 1.0 + 0.01 * (t[-1] - t[0]))
        assert self._fit(t, np.append(self.DIAM, 0.9e-9)) is None

    def test_kernel_without_exponent(self):
        driver = SimpleNamespace(alpha=None, fit_floor=1e-12, n=2)
        assert self._fit(1.0 - self.DIAM**0.5, self.DIAM, driver) is None


class TestReboundAndStall:
    def test_supercritical_rebound(self, supercritical_run):
        traj = supercritical_run
        assert [e.kind for e in traj.events] == [NON_STICK]
        e = traj.events[0]
        assert e.rel_speed == pytest.approx(1.0, abs=1e-3)
        assert traj.final_state.partition.n_clusters == 2

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [0.25, 0.5])
    @pytest.mark.parametrize("dphi0", [-5.0, -20.0])
    def test_head_on_rebound_matches_closed_form(self, d, alpha, dphi0):
        # unit separation along the first axis, closing faster than critical
        x = np.zeros((2, d))
        v = np.zeros((2, d))
        x[:, 0] = [-0.5, 0.5]
        v[:, 0] = [-0.5 * dphi0, 0.5 * dphi0]
        system = make_system(x, v, SingularKernel(alpha=alpha))
        traj = solve_piecewise(system, SolverConfig(t_end=1.0))
        ref = classify(TwoBodyProblem(1.0, dphi0, alpha))
        assert [e.kind for e in traj.events] == [NON_STICK]
        assert abs(traj.events[0].t_event - ref.t_hit) < 1e-9
        # relative: at d = 3, alpha = 0.25, dphi0 = -20 the speed error is
        # 2.3e-5 of 17.3, against 6.9e-7 at d = 1
        assert traj.events[0].rel_speed == pytest.approx(ref.impact_speed, rel=1e-5)

    def test_subcritical_stalls_above_contact(self, subcritical_run):
        traj = subcritical_run
        assert traj.events == []
        sep = np.abs(traj.x[:, 1, 0] - traj.x[:, 0, 0])
        assert sep[-1] == pytest.approx(0.0625, abs=1e-4)
        assert sep.min() > 0.0625 - 1e-6

    def test_triple_collapse_single_event(self, triple_run):
        traj, t_star = triple_run
        assert [e.kind for e in traj.events] == [STICKING]
        assert traj.events[0].group == (0, 1, 2)
        assert abs(traj.events[0].t_event - t_star) < 1e-3
        assert traj.final_state.partition.n_clusters == 1
        # two merges spent on one event, still within the N-1 budget
        np.testing.assert_allclose(traj.final_state.v, 0.0, atol=1e-10)

    def test_triple_collapse_min_dist_is_smallest_gap(self, triple_run):
        # the stick row is the last with open gaps; min_dist is the smaller
        # of its two gaps, not the group diameter (their sum)
        traj, _ = triple_run
        gaps = np.abs(np.diff(traj.x[:, :, 0], axis=1))
        last = np.flatnonzero(gaps.max(axis=1) > 0.0)[-1]
        assert traj.t[last] <= traj.events[0].t_event
        assert traj.events[0].min_dist == gaps[last].min()

    def test_bounded_kernel_passthrough(self):
        # head-on under a bounded weight: collision with residual speed
        x = np.array([[-0.5], [0.5]])
        v = np.array([[1.0], [-1.0]])
        s = make_system(x, v, CuckerSmaleKernel(K=1.0, beta=2.0))
        traj = solve_piecewise(s, SolverConfig(t_end=2.0))
        assert [e.kind for e in traj.events] == [NON_STICK]
        # conserved excess: 2 - 2*arctan(1) for this weight
        assert traj.events[0].rel_speed == pytest.approx(2.0 - np.pi / 2.0, abs=1e-3)
        assert traj.final_state.partition.n_clusters == 2

    def test_unresolved_when_horizon_inside_encounter(self):
        traj = solve_piecewise(_two_body(2.0), SolverConfig(t_end=0.4999))
        assert [e.kind for e in traj.events] == [UNRESOLVED]
        assert traj.events[0].t_event == pytest.approx(0.4999, abs=1e-6)

    def test_fit_past_the_horizon_is_clamped_to_it(self):
        # the probe certifies the stick at t ~ 0.4999888, before t_end, and
        # the fit puts the collapse at 0.4999999992, after it: the event is
        # reported at t_end exactly
        traj = solve_piecewise(_two_body(2.0), SolverConfig(t_end=0.49999))
        assert [(e.kind, e.group) for e in traj.events] == [(STICKING, (0, 1))]
        assert traj.events[0].t_event == 0.49999

    def test_unresolved_when_probe_budget_runs_out(self, monkeypatch):
        # the run ends just after the collapse time 0.5: the pair is left
        # unmerged inside the cap region, where every further step is short
        monkeypatch.setattr(integrator, "_MAX_PROBE_STEPS", 3)
        traj = solve_piecewise(_two_body(2.0), SolverConfig(t_end=0.5001))
        assert [(e.kind, e.group) for e in traj.events] == [(UNRESOLVED, (0, 1))]
        assert traj.events[0].t_event == pytest.approx(0.49960, abs=1e-5)

    def test_probe_resolves_the_watched_crossing(self):
        # rows 0 and 1 start in contact, so their pair is no crossing
        # candidate and stays the closest; rows 2 and 3 cross head-on.  The
        # probe resolves the pair whose crossing the watch found, not the
        # closest one
        x = np.array([[0.0], [0.0], [10.0], [10.002]])
        v = np.array([[-1e-3], [1e-3], [10.0], [-10.0]])
        system = make_system(x, v, SingularKernel(alpha=0.5))
        traj = solve_piecewise(system, SolverConfig(t_end=2e-4, sample_dt=1e-5))
        assert [(e.kind, e.group) for e in traj.events] == [(NON_STICK, (2, 3))]
        assert traj.events[0].t_event == pytest.approx(1.0015e-4, rel=1e-4)
        assert traj.events[0].rel_speed == pytest.approx(19.91, rel=1e-3)

    def test_group_leaves_a_crossing_pair_that_passed(self):
        # rows 1 and 2 start in contact, closing at the critical rate, so
        # their pair is no crossing candidate; row 0 crosses both head-on,
        # its pair with row 1 hands the probe the encounter, and leaves.  The
        # group then follows the closest watched pair, (1, 2), which stalls
        # and sticks
        phi0 = 5e-7
        half = 2.0 * phi0**0.5
        x = np.array([[2e-3], [0.0], [-phi0]])
        v = np.array([[-20.0], [-half], [half]])
        system = make_system(x, v, SingularKernel(alpha=0.5))
        traj = solve_piecewise(system, SolverConfig(t_end=3e-3, sample_dt=1e-5))
        assert [(e.kind, e.group) for e in traj.events] == [(STICKING, (1, 2))]
        assert 1e-4 < traj.events[0].t_event < 2e-3


class TestMergeThenCrossing:
    """A merge followed by more dynamics with two clusters, in 1D at alpha
    0.5: rows 0 and 1 stick, and row 2 then crosses the merged cluster.
    After the merge the system is two clusters, whose separation obeys the
    two-body law for any split (the 2/N coupling), so ``classify`` pins the
    crossing from the merged state."""

    @staticmethod
    def _run(closing):
        x = np.array([[-0.25], [0.25], [9.0]])
        v = np.array([[0.5 * closing], [-0.5 * closing], [-15.0]])
        return solve_piecewise(make_system(x, v, SingularKernel(alpha=0.5)), SolverConfig(t_end=2.0))

    def test_crossing_of_the_merged_cluster_matches_closed_form(self):
        # bisect the closing speed of rows 0 and 1: too fast and their first
        # event is a crossing, too slow and row 2 reaches them first
        lo, hi = 1.0, 3.0
        for _ in range(40):
            closing = 0.5 * (lo + hi)
            traj = self._run(closing)
            first = (traj.events[0].kind, traj.events[0].group) if traj.events else None
            if first == (STICKING, (0, 1)):
                break
            if first is not None and first[1] == (0, 1):
                hi = closing
            else:
                lo = closing
        else:
            pytest.fail("no closing speed in [1, 3] makes rows 0 and 1 stick first")
        assert [(e.kind, e.group) for e in traj.events] == [(STICKING, (0, 1)), (NON_STICK, (0, 1, 2))]

        # the probe's exit is the last stored row before rows 0 and 1
        # coincide; the merge puts the cluster at the mean of those rows
        k = int(np.flatnonzero(traj.x[:, 0, 0] == traj.x[:, 1, 0])[0]) - 1
        t_exit = traj.t[k]
        x_c, v_c = traj.x[k, :2, 0].mean(), traj.v[k, :2, 0].mean()
        ref = classify(TwoBodyProblem(float(traj.x[k, 2, 0] - x_c), float(traj.v[k, 2, 0] - v_c), 0.5))
        e = traj.events[1]

        config = SolverConfig()
        cap = RegularizedKernel(alpha=0.5, n=config.n_reg)
        # the cap takes delta = P(cap_end) - n*cap_end off the primitive P of
        # the singular weight (the bridge spans 2e-18): the capped contact
        # speed is the singular one plus 2*delta, and a crossing ends 4*delta
        # off the singular law.  The speed interpolated at the closest
        # approach is held to that crossing error about the contact speed
        delta = 2.0 * math.sqrt(cap.cap_end) - cap.n * cap.cap_end
        assert abs(e.rel_speed - (ref.impact_speed + 2.0 * delta)) <= 4.0 * delta
        # the cap moves the transit by about 2*cap_end/s and the localization
        # tolerance is 1e-12 of the span: the time error is the stepper's,
        # held to rel_tol of the transit
        assert abs(e.t_event - (t_exit + ref.t_hit)) <= config.rel_tol * ref.t_hit


class TestDeterminismAndStability:
    def test_bitwise_repeatability(self):
        a = critical_two_body(0.5)
        b = critical_two_body(0.5)
        assert a.events[0].t_event == b.events[0].t_event
        np.testing.assert_array_equal(a.t, b.t)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.v, b.v)

    def test_initial_perturbation_stays_sticking(self):
        # nudging critical data by 1e-9 must not move the event visibly
        x = np.array([[-0.5], [0.5 + 1e-9]])
        v = np.array([[2.0], [-2.0]])
        s = make_system(x, v, SingularKernel(alpha=0.5))
        traj = solve_piecewise(s, SolverConfig(t_end=1.0))
        assert [e.kind for e in traj.events] == [STICKING]
        assert abs(traj.events[0].t_event - 0.5) < 1e-5

    def test_loose_tolerance_still_lands(self):
        x = np.array([[-0.5], [0.5]])
        v = np.array([[2.0], [-2.0]])
        s = make_system(x, v, SingularKernel(alpha=0.5))
        traj = solve_piecewise(s, SolverConfig(t_end=1.0, rel_tol=1e-7, abs_tol=1e-10))
        assert [e.kind for e in traj.events] == [STICKING]
        assert abs(traj.events[0].t_event - 0.5) < 1e-3


def _storm(n, d, seed, speed):
    """A generated storm's initial data and its solve (alpha 0.5, t_end 0.5)."""
    x, v = generate_scenario(n, d, seed, box=1.0, speed=speed)
    return x, v, _solve_storm(x, v)


def _solve_storm(x, v):
    return solve_piecewise(make_system(x, v, SingularKernel(alpha=0.5)), SolverConfig(t_end=0.5))


_STORMS = dict(
    n=st.integers(2, 8), d=st.integers(1, 3), seed=st.integers(0, 2**16), speed=st.floats(1.0, 5.0)
)
# bound on |dt_event| * max(rel_speed, v_stick) between a storm and its
# relabelling; the largest seen over 3512 events of 3780 storms (N 2-8,
# d 1-3, speed 1-5, seeds 0-35) was 2.1e-6
_RELABEL_DX = 1e-5
# the same bound between a storm and its translation by up to 1e3 per axis.
# A shift moves the origin of the stepper's error scale atol + rtol*|y|: a
# coordinate near zero is held to atol, a shifted one to rtol*|c|, so a
# shifted run is only as close as the solve is to the truth.  The largest
# seen over 3074 events of 2520 storms (N 2-8, d 1-3, speed 1-5, seeds
# 0-259) was 4.4e-5, above 1e-5 on 3 events; at seed 30, N 8, d 1 the
# unshifted run is 1.9e-6 from a rel_tol 1e-12 solve and every shift from
# 0.1 to 1000 is 4.4e-5 from it
_TRANSLATE_DX = 1e-4


class TestSymmetries:
    @given(**_STORMS)
    @settings(max_examples=20, deadline=None)
    def test_reflection_is_exact(self, n, d, seed, speed):
        # every operation of the solve is odd or even in (x, v), so the
        # reflected run is the same run with the signs flipped
        x, v, traj = _storm(n, d, seed, speed)
        mirror = _solve_storm(-x, -v)
        np.testing.assert_array_equal(mirror.t, traj.t)
        np.testing.assert_array_equal(mirror.x, -traj.x)
        np.testing.assert_array_equal(mirror.v, -traj.v)
        assert mirror.events == traj.events

    @given(**_STORMS, data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_relabelling(self, n, d, seed, speed, data):
        # the relabelled run sums the forces in another order, so its step
        # sequence differs by roundoff and its states by about the
        # integration error; an event at closing speed u then moves by up
        # to that distance over u (a stall, u below v_stick, by up to the
        # probe step that detects it)
        x, v, traj = _storm(n, d, seed, speed)
        perm = np.array(data.draw(st.permutations(range(n))))
        other = _solve_storm(x[perm], v[perm])
        mapped = [(e.kind, tuple(sorted(perm[list(e.group)].tolist()))) for e in other.events]
        assert mapped == [(e.kind, e.group) for e in traj.events]
        v_stick = traj.config.v_stick
        for e, f in zip(traj.events, other.events):
            assert abs(e.t_event - f.t_event) * max(e.rel_speed, v_stick) <= _RELABEL_DX

    @given(**_STORMS, shift=st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3))
    @settings(max_examples=20, deadline=None)
    def test_translation(self, n, d, seed, speed, shift):
        # the shifted run rounds its positions, and weighs their errors, at
        # the shift's scale, so its step sequence differs; kinds and groups
        # are the same and the events move by the solve's own error
        x, v, traj = _storm(n, d, seed, speed)
        other = _solve_storm(x + np.array(shift[:d]), v)
        assert [(e.kind, e.group) for e in other.events] == [(e.kind, e.group) for e in traj.events]
        v_stick = traj.config.v_stick
        for e, f in zip(traj.events, other.events):
            assert abs(e.t_event - f.t_event) * max(e.rel_speed, v_stick) <= _TRANSLATE_DX


# The weight's scaling law: x -> lam*x, t -> lam**alpha*t and
# v -> lam**(1-alpha)*v map solutions to solutions when d_stick scales like
# x and v_stick like v.  At alpha 0.5 and lam 4 every scale is a power of
# two (x *4; v, t, t_end and sample_dt *2), so scaling the inputs rounds
# nothing.  abs_tol 1e-15 leaves rel_tol*|y| in charge of the error scale on
# both sides; with the default 1e-12 the README pair's scaled stick time
# moves by 1.1e-10 instead of 2.2e-12.
_SCALE_X, _SCALE_V = 4.0, 2.0


def _scaled_config(config):
    return replace(config, d_stick=_SCALE_X * config.d_stick, v_stick=_SCALE_V * config.v_stick,
                   t_end=2.0 * config.t_end, sample_dt=2.0 * config.sample_dt)


def _scaled_pair(x, v, config):
    """Solves of ``(x, v)`` and of its image under the scaling law."""
    base = solve_piecewise(make_system(x, v, SingularKernel(alpha=0.5)), config)
    image = solve_piecewise(make_system(_SCALE_X * x, _SCALE_V * v, SingularKernel(alpha=0.5)),
                            _scaled_config(config))
    return base, image


class TestScalingLaw:
    @given(phi0=st.floats(1e-8, 1e8))
    @settings(max_examples=200, deadline=None)
    def test_closed_forms_scale(self, phi0):
        # exact but for the last bit: pow is not correctly rounded for every
        # argument, and 38 of 100000 draws differ by one ulp (none by more)
        for f, scale in ((stick_time, 2.0), (critical_velocity, _SCALE_V)):
            image, base = f(_SCALE_X * phi0, 0.5), scale * f(phi0, 0.5)
            assert abs(image - base) <= math.ulp(max(abs(image), abs(base)))

    def test_event_free_swarm(self):
        # measured: x within 7.9e-12 and v within 3.9e-10 of the largest
        # entry; the two solves take different steps, since the starting
        # step heuristic does not scale with time
        x, v = generate_scenario(12, 2, 3, box=1.0, speed=1.0)
        base, image = _scaled_pair(x, v, SolverConfig(t_end=0.2, abs_tol=1e-15))
        assert base.events == image.events == []
        t, xs, vs = base.grid()
        t2, xs2, vs2 = image.grid()
        np.testing.assert_array_equal(t2, 2.0 * t)
        assert np.abs(xs2 - _SCALE_X * xs).max() <= 1e-10 * np.abs(_SCALE_X * xs).max()
        assert np.abs(vs2 - _SCALE_V * vs).max() <= 4e-9 * np.abs(_SCALE_V * vs).max()

    def test_readme_pair_stick_time(self):
        # measured: 2.2e-12 apart
        base, image = _scaled_pair(np.array([[-0.5], [0.5]]), np.array([[2.0], [-2.0]]),
                                   SolverConfig(t_end=0.7, abs_tol=1e-15))
        assert [(e.kind, e.group) for e in image.events] == [(STICKING, (0, 1))]
        assert [(e.kind, e.group) for e in base.events] == [(STICKING, (0, 1))]
        assert abs(image.events[0].t_event - 2.0 * base.events[0].t_event) <= 2e-11


class TestSegmentApi:
    def test_one_driver_per_partition(self, monkeypatch):
        # seven non-stick crossings, then a merge: only the merge builds a
        # new driver, and every event ends one main phase
        drivers, phases = [], []

        class CountingDriver(integrator._Driver):
            def __init__(self, *args):
                drivers.append(self)
                super().__init__(*args)

        run_segment = integrator._run_segment

        def counting_run_segment(*args):
            phases.append(args[0])
            return run_segment(*args)

        monkeypatch.setattr(integrator, "_Driver", CountingDriver)
        monkeypatch.setattr(integrator, "_run_segment", counting_run_segment)
        x, v = generate_scenario(7, 1, 2, box=1.0, speed=4.0)
        traj = solve_piecewise(make_system(x, v, SingularKernel(alpha=0.5)), SolverConfig(t_end=0.5))
        assert [(e.kind, e.group) for e in traj.events] == [
            (NON_STICK, (1, 6)), (NON_STICK, (1, 2)), (NON_STICK, (0, 1)), (NON_STICK, (2, 6)),
            (NON_STICK, (0, 6)), (NON_STICK, (2, 3)), (NON_STICK, (0, 3)), (STICKING, (0, 2)),
        ]
        assert traj.events[-1].t_event == pytest.approx(0.1065, abs=1e-4)
        assert len(drivers) == 2 and len(phases) == 9
        assert phases == [drivers[0]] * 8 + [drivers[1]]

    def test_regularized_system_names_n_reg(self):
        # the solver's cap is n_reg alone; a system on a capped kernel would
        # silently integrate at n_reg instead of its own cap
        system = make_system([[-0.5], [0.5]], [[2.0], [-2.0]], RegularizedKernel(alpha=0.5, n=10))
        with pytest.raises(DomainError, match="n_reg") as exc_info:
            solve_piecewise(system, SolverConfig(t_end=1.0))
        assert exc_info.value.key == "n_reg"

    def test_contact_start_is_disarmed(self):
        # distinct clusters at zero separation integrate under the capped
        # working weight and must not retrigger until they climb out
        x = np.array([[0.0], [0.0]])
        v = np.array([[1.0], [-1.0]])
        s = make_system(x, v, SingularKernel(alpha=0.5))
        traj = solve_piecewise(s, SolverConfig(t_end=0.1))
        assert traj.events == []
        gap = abs(traj.final_state.x[1, 0] - traj.final_state.x[0, 0])
        assert gap > 1e-6


def _spans():
    """The benchmark's tracer module, loaded from ``perfbench/spans.py``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


class TestBenchmarkTracer:
    def test_tracer_counts_the_readme_pair(self):
        # the benchmark's per-layer split wraps the solver's entry points
        # from outside the package, so a renamed or bypassed layer drops out
        # of its counts; the README's critical pair passes each layer once
        classify_event = integrator.classify_event
        with _spans().Tracer() as tracer:
            traj = integrator.solve_piecewise(_two_body(2.0), SolverConfig(t_end=0.7))
        assert integrator.classify_event is classify_event
        assert [e.kind for e in traj.events] == [STICKING]
        keys = ("events", "events.Sticking", "stick_fit.calls", "stick_fit.hits", "probe.calls", "segments")
        assert {k: tracer.counts[k] for k in keys} == dict.fromkeys(keys, 1)
        assert tracer.counts["rhs.main"] > 0 and tracer.counts["rhs.probe"] > 0


    @pytest.mark.parametrize(
        "n,t_end,rhs_calls,events", [(16, 1.0, 33_172, 47), (32, 0.5, 68_890, 116)]
    )
    def test_storm_step_sequence(self, n, t_end, rhs_calls, events):
        # the ROADMAP baseline storms: any change to the step sequence (the
        # stepper's arithmetic, its controller or norm, a segment's restart)
        # moves these counts, so such a change must pass the accuracy gate
        # and re-pin them
        x, v = generate_scenario(n, 1, 3, box=1.0, speed=5.0)
        with _spans().Tracer() as tracer:
            system = make_system(x, v, SingularKernel(alpha=0.5))
            traj = solve_piecewise(system, SolverConfig(t_end=t_end))
        assert len(traj.events) == tracer.counts["events"] == events
        assert {e.kind for e in traj.events} == {NON_STICK}
        assert tracer.counts["rhs.main"] + tracer.counts["rhs.probe"] == rhs_calls


def _steps_of(stepper, fun, t0, y0, t_bound, **tol):
    """Per accepted step of ``stepper``: t_old, t, y, the dense output on the
    (n, _NSUB + 1) subsample block and at the midpoint, and the RHS calls so
    far; then the failure message, or None."""
    calls = []

    def counted(t, *args):
        calls.append(t)
        return fun(t, *args)

    solver = stepper(counted, t0, np.array(y0, dtype=float), t_bound, **tol)
    steps = []
    while solver.status == "running":
        msg = solver.step()
        if solver.status == "failed":
            return steps, msg
        dense = solver.dense_output()
        block = dense(np.linspace(solver.t_old, solver.t, _NSUB + 1))
        mid = dense(0.5 * (solver.t_old + solver.t))
        steps.append((solver.t_old, solver.t, solver.y.tobytes(), block.shape, block.tobytes(),
                      mid.shape, mid.tobytes(), len(calls)))
    return steps, None


def _storm_rhs():
    x, v = generate_scenario(16, 1, 3, box=1.0, speed=5.0)
    driver = _Driver(make_system(x, v, SingularKernel(alpha=0.5)), SolverConfig())
    return driver.rhs, np.concatenate([x.ravel(), v.ravel()])


def _head_on_rhs():
    system = _two_body(2.5)
    driver = _Driver(system, SolverConfig())
    return driver.rhs, np.concatenate([system.x.ravel(), system.v.ravel()])


_TOL = dict(max_step=1e-2, rtol=1e-9, atol=1e-12)  # the SolverConfig defaults


def _square(t, y, out):
    np.multiply(y, y, out=out)


def _returning(fun):
    """The in-place RHS ``fun(t, y, out)`` as scipy's steppers call one:
    ``fun(t, y)``, returning a fresh derivative."""
    def call(t, y):
        out = np.empty_like(y)
        fun(t, y, out)
        return out

    return call


class TestStepperOracle:
    """The package's RK45 copies the arithmetic of scipy's, so the two agree
    bit for bit on every step, dense value and RHS call."""

    @staticmethod
    def _assert_as_scipy(fun, t0, y0, t_bound, **tol):
        from scipy.integrate import RK45

        ours = _steps_of(integrator.RK45, fun, t0, y0, t_bound, **tol)
        assert ours == _steps_of(RK45, _returning(fun), t0, y0, t_bound, **tol)
        return ours

    @pytest.mark.parametrize(
        "rhs,t_bound", [(_storm_rhs, 0.1), (_head_on_rhs, 0.7)], ids=["storm", "head_on"]
    )
    def test_rejections_and_dense_output(self, rhs, t_bound):
        fun, y0 = rhs()
        steps, msg = self._assert_as_scipy(fun, 0.0, y0, t_bound, **_TOL)
        assert msg is None and steps[-1][1] == t_bound
        # more than the six calls per accepted step and two to start: the
        # controller rejected attempts, and the copies agree through them
        assert steps[-1][-1] > 6 * len(steps) + 2

    def test_lands_on_the_bound(self):
        fun, y0 = _head_on_rhs()
        steps, _ = self._assert_as_scipy(fun, 0.1, y0, 0.1234567, **_TOL)
        assert steps[-1][1] == 0.1234567

    def test_zero_span(self):
        # a crossing found at the segment's end starts a probe with t0 == t_bound
        fun, y0 = _head_on_rhs()
        steps, _ = self._assert_as_scipy(fun, 0.3, y0, 0.3, **_TOL)
        assert len(steps) == 1 and steps[0][-1] == 1

    def test_rtol_below_100_eps_is_raised(self):
        fun, y0 = _head_on_rhs()
        with pytest.warns(UserWarning):
            self._assert_as_scipy(fun, 0.0, y0, 0.05, max_step=1e-2, rtol=1e-17, atol=1e-15)

    def test_step_underflow_fails_with_scipy_message(self):
        # y' = y**2 from y = 1 blows up at t = 1
        steps, msg = self._assert_as_scipy(_square, 0.0, [1.0], 2.0, rtol=1e-6, atol=1e-9)
        assert msg == "Required step size is less than spacing between numbers."
        assert abs(steps[-1][1] - 1.0) < 1e-3


class _PoisonedRK45(integrator.RK45):
    """The package's RK45 with every stage set to NaN before each step."""

    def step(self):
        self.K[...] = np.nan
        return super().step()


class TestStagesWrittenBeforeRead:
    """Each attempt writes every stage before it reads it, so steppers may
    share one stage array if they step one after another (a cap family's
    resumed steppers do): stages left by earlier steps change nothing."""

    @pytest.mark.parametrize(
        "rhs,t_bound", [(_storm_rhs, 0.1), (_head_on_rhs, 0.7)], ids=["storm", "head_on"]
    )
    def test_poisoned_stages_change_nothing(self, rhs, t_bound):
        fun, y0 = rhs()
        poisoned = _steps_of(_PoisonedRK45, fun, 0.0, y0, t_bound, **_TOL)
        assert poisoned == _steps_of(integrator.RK45, fun, 0.0, y0, t_bound, **_TOL)
        steps, msg = poisoned
        assert msg is None and steps[-1][1] == t_bound


class TestStepFailures:
    def test_underflow_names_the_phase(self):
        # y' = y**2 from y = 1 blows up at t = 1
        solver = integrator.RK45(_square, 0.0, np.array([1.0]), 2.0, rtol=1e-6, atol=1e-9)
        with pytest.raises(LocalizationError, match="step size underflow in the phase: Required"):
            list(integrator._steps(solver, "in the phase"))

    def test_overflow_is_divergence(self):
        with np.errstate(over="ignore", invalid="ignore"):
            solver = integrator.RK45(lambda t, y, out: out.fill(1e308), 0.0, np.array([0.0]), 5.0)
            with pytest.raises(DivergenceError, match=r"non-finite state at t=5\.0"):
                list(integrator._steps(solver, "in the phase"))

    def test_non_finite_derivative_is_divergence(self):
        # f(t0) = inf makes every error norm NaN; the step shrinks to
        # underflow, which is reported by its cause
        with np.errstate(invalid="ignore"):
            solver = integrator.RK45(lambda t, y, out: out.fill(np.inf), 0.0, np.array([0.0]), 1.0)
            with pytest.raises(DivergenceError, match=r"^non-finite derivative at t=0\.0$"):
                list(integrator._steps(solver, "in the phase"))


    def test_main_phase_underflow_names_the_phase(self, monkeypatch):
        # a main-phase stepper on y' = y**2 blows up where v = 2 does, at
        # t = 0.5; the positions stay apart, so no crossing intervenes
        def blow_up(driver, t0, y0, t_bound, config):
            return integrator.RK45(_square, t0, y0, t_bound,
                                   max_step=config.sample_dt, rtol=config.rel_tol, atol=config.abs_tol)

        monkeypatch.setattr(integrator, "_stepper", blow_up)
        with pytest.raises(LocalizationError) as info:
            solve_piecewise(_two_body(2.0), SolverConfig(t_end=1.0))
        msg = str(info.value)
        prefix = ("step size underflow during main phase: "
                  "Required step size is less than spacing between numbers. (t=")
        assert msg.startswith(prefix) and msg.endswith(")")
        assert abs(float(msg[len(prefix):-1]) - 0.5) < 1e-6


def _reference_dense(dense, t):
    """The quartic interpolant as it was evaluated before its one-time
    path, verbatim: the powers of x by cumprod, then one ``np.dot``."""
    x = (t - dense.t_old) / dense.h
    p = np.empty(dense.q.shape[1:] + np.shape(x))
    p[:] = x
    np.cumprod(p, axis=0, out=p)
    y = dense.h * np.dot(dense.q, p)
    y += dense.y_old[:, None] if y.ndim == 2 else dense.y_old
    return y


class TestLeanKernels:
    """The stepping core's rewritten kernels against the formulations they
    replaced, byte for byte."""

    @pytest.mark.parametrize("rhs", [_storm_rhs, _head_on_rhs], ids=["storm", "head_on"])
    def test_dense_matches_reference(self, rhs):
        # at one time (float or numpy scalar) and at a block of times;
        # OpenBLAS rounds a one-time product (gemv) and a block's (gemm)
        # differently, so each is compared with its own former formulation
        fun, y0 = rhs()
        solver = integrator.RK45(fun, 0.0, y0, 0.2, **_TOL)
        rng = np.random.default_rng(5)
        for _ in range(12):
            solver.step()
            dense = solver.dense_output()
            ts = np.concatenate([integrator._subsample_times(solver.t_old, solver.t),
                                 rng.uniform(solver.t_old, solver.t, 7)])
            assert dense(ts).tobytes() == _reference_dense(dense, ts).tobytes()
            for t in ts:
                ref = _reference_dense(dense, t).tobytes()
                assert dense(t).tobytes() == ref
                assert dense(float(t)).tobytes() == ref

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), m=st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_dense_matches_reference_on_random_steps(self, seed, n, m):
        # steps whose quartic columns range over twelve decades, so the last
        # bits of every power of x reach the result
        rng = np.random.default_rng(seed)
        t_old = rng.uniform(0.0, 10.0)
        q = rng.normal(size=(n, 4)) * 10.0 ** rng.uniform(-6.0, 6.0, (n, 4))
        dense = integrator._Dense(t_old, t_old + 10.0 ** rng.uniform(-8.0, 0.0), rng.normal(size=n), q)
        ts = rng.uniform(t_old, t_old + dense.h, m)
        assert dense(ts).tobytes() == _reference_dense(dense, ts).tobytes()
        for t in ts:
            assert dense(float(t)).tobytes() == _reference_dense(dense, float(t)).tobytes()

    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 40),
        scale=st.integers(-320, 300),
        specials=st.lists(st.sampled_from([np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324]), max_size=3),
    )
    @settings(max_examples=300, deadline=None)
    def test_rms_matches_norm(self, seed, size, scale, specials):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=size) * 10.0**scale
        x[: len(specials)] = specials[:size]
        with np.errstate(over="ignore", invalid="ignore"):
            ours = integrator._rms(x)
            ref = np.linalg.norm(x) / math.sqrt(x.size)
        assert type(ours) is type(ref) is np.float64
        assert np.array(ours).tobytes() == np.array(ref).tobytes()

    def test_rms_of_zeros_divides_to_inf(self):
        # the starting-step heuristic divides by this norm: a numpy scalar
        # gives inf there, where a Python float would raise
        with np.errstate(divide="ignore"):
            assert 0.01 / integrator._rms(np.zeros(4)) == np.inf

    @given(
        t0=st.floats(0.0, 1e3, allow_subnormal=True),
        span=st.one_of(
            st.just(0.0),
            st.floats(0.0, 1.0, allow_subnormal=True),
            st.integers(1, 200).map(lambda k: k * 5e-324),
            st.integers(1, 200),
        ),
    )
    @settings(max_examples=500, deadline=None)
    def test_subsample_times_match_linspace(self, t0, span):
        # an integer span counts float spacings at t0
        t1 = t0 + span if isinstance(span, float) else t0 + span * (math.nextafter(t0, math.inf) - t0)
        ours = integrator._subsample_times(t0, t1)
        assert ours.tobytes() == np.linspace(t0, t1, _NSUB + 1).tobytes()

    def test_subsample_times_keep_linspace_subnormal_branch(self):
        # spans whose eighth underflows to zero, or rounds, in the subnormals
        for k in range(0, 64):
            t1 = k * 5e-324
            assert integrator._subsample_times(0.0, t1).tobytes() == np.linspace(0.0, t1, _NSUB + 1).tobytes()


def _armed_candidates(driver, block, dists, dt_sub, bound, d_stick):
    """The candidate rule of the former armed mask, over all watched pairs:
    a pair is armed from column 0 if its gap there is above d_stick, and
    from each later column at which it is above; row c's candidates are the
    pairs armed through column c + 1 and above d_stick at column c whose
    reach gets to d_stick."""
    above = dists > d_stick
    armed = above[0] | np.logical_or.accumulate(above[1:], axis=0)
    reach = np.minimum(dists[:-1], dists[1:])
    chase = armed & above[:-1]
    lead = np.where(chase, reach, math.inf).min(axis=1, initial=math.inf)
    if (lead - dt_sub * np.maximum(bound[:-1], bound[1:]) <= d_stick).any():
        speeds = driver.pair_rel_speeds(block)
        reach -= dt_sub[:, None] * np.maximum(speeds[:-1], speeds[1:])
    return chase & (reach <= d_stick)


class TestDriverBlocks:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_block_rows_equal_single_columns(self, d):
        # a step's (n*d, _NSUB + 1) subsample block gives, bit for bit, the
        # per-column distances and speeds, and any subset of the watched
        # pairs the matching entries, on the block and on one column;
        # clusters {0, 3} and {2, 5} leave 5 clusters, the watch holds one
        # pair per pair of clusters, and in the block the clusters of rows
        # 1 and 4 coincide
        n = 7
        rng = np.random.default_rng(d)
        x = rng.normal(size=(n, d))
        v = rng.normal(size=(n, d))
        x[3], v[3], x[5], v[5] = x[0], v[0], x[2], v[2]
        driver = _Driver(make_system(x, v, SingularKernel(alpha=0.5)), SolverConfig())
        assert len(driver.pi) == 10
        block = rng.normal(size=(2 * n * d, _NSUB + 1)) * 10.0 ** rng.integers(-6, 3, _NSUB + 1)
        block[4 * d : 5 * d] = block[d : 2 * d]
        block[(n + 4) * d : (n + 5) * d] = block[(n + 1) * d : (n + 2) * d]
        subsets = [np.arange(10), np.array([], dtype=np.intp), np.array([7, 2, 7])]
        subsets += [np.sort(rng.choice(10, size=k, replace=False)) for k in range(1, 10)]
        for method in (driver.pair_dists, driver.pair_rel_speeds):
            rows = method(block)
            cols = np.stack([method(block[:, c]) for c in range(_NSUB + 1)])
            assert rows.shape == (_NSUB + 1, len(driver.pi))
            assert rows.tobytes() == cols.tobytes()
            assert np.any(rows == 0.0)
            for sel in subsets + list(range(10)):
                assert method(block, sel).tobytes() == rows[:, sel].tobytes()
                for c in (0, _NSUB):
                    assert method(block[:, c], sel).tobytes() == rows[c, sel].tobytes()

    def test_gap_exactly_at_d_stick_is_no_candidate(self):
        # a 1D pair at 0 and 1e-6: its column gap equals d_stick bit for bit,
        # so the pair is at contact there, and a subinterval from that column
        # to one below d_stick is no candidate; from one spacing of the
        # floats above d_stick, the same subinterval is one
        d_stick = SolverConfig().d_stick
        x = np.array([[0.0], [1e-6]])
        driver = _Driver(make_system(x, np.zeros_like(x), SingularKernel(alpha=0.5)), SolverConfig())
        for start, hit in ((d_stick, False), (np.nextafter(d_stick, math.inf), True)):
            block = np.array([[0.0, 0.0], [start, 0.5 * d_stick], [0.0, 0.0], [-0.5, -0.5]])
            dists = driver.pair_dists(block)
            assert dists[0].tolist() == [start]
            bound = driver.rel_speed_bound(block)
            chase = driver.crossing_candidates(
                block, dists, np.array([1e-6]), bound, np.arange(1), d_stick
            )
            assert chase.tolist() == [[hit]]

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 8),
        d=st.integers(1, 3),
        offset=st.floats(-1e6, 1e6),
        scale=st.integers(-7, 1),
        move=st.integers(-4, 1),
        travel=st.integers(-4, 2),
        h=st.integers(-9, -2),
    )
    @settings(max_examples=500, deadline=None)
    def test_cull_keeps_every_pair_that_can_matter(self, seed, n, d, offset, scale, move, travel, h):
        # random step blocks, with positions offset up to 1e6 at gap scales
        # from 1e-7 to 10, particle moves and speed-bound travel within a
        # few decades of the gaps, and rows 0 and 1 closing by their moves
        # alone to a gap near d_stick: the step's watch over all watched
        # pairs (the full block) finds the candidates of the armed-mask rule
        # it replaced, each of them and each pair inside d_stick at column 0
        # is among the live pairs, and the watch over the live pairs gives
        # the same candidates
        rng = np.random.default_rng(seed)
        d_stick = SolverConfig().d_stick
        x0 = offset * rng.uniform(-1.0, 1.0, d) + 10.0**scale * rng.normal(size=(n, d))
        x0[rng.integers(0, n)] = x0[rng.integers(0, n)]
        walk = np.cumsum(rng.normal(size=(n, d, _NSUB + 1)), axis=2) * 10.0 ** (scale + move)
        x = x0[:, :, None] + (walk - walk[:, :, :1])
        e = rng.normal(size=(d, 1))
        closing = np.linspace(np.linalg.norm(x0[1] - x0[0]), rng.uniform(0.0, 2.0) * d_stick, _NSUB + 1)
        x[1] = x[0] + e / np.linalg.norm(e) * closing
        speed = 10.0 ** (scale + travel - h)
        v = offset * rng.uniform(-1.0, 1.0, (d, 1)) + speed * rng.normal(size=(n, d, _NSUB + 1))
        block = np.concatenate([x.reshape(n * d, -1), v.reshape(n * d, -1)])
        t0 = rng.uniform(0.0, 10.0)
        ts = np.linspace(t0, t0 + 10.0**h, _NSUB + 1)
        singletons = np.arange(n * d, dtype=float).reshape(n, d)
        system = make_system(singletons, np.zeros_like(singletons), SingularKernel(alpha=0.5))
        driver = _Driver(system, SolverConfig())
        bound = driver.rel_speed_bound(block)
        dt_sub = np.diff(ts)

        every = np.arange(len(driver.pi))
        dists = driver.pair_dists(block)
        chase = driver.crossing_candidates(block, dists, dt_sub, bound, every, d_stick)
        reference = _armed_candidates(driver, block, dists, dt_sub, bound, d_stick)
        assert chase.tobytes() == reference.tobytes()
        live = driver.live_pairs(block, ts[-1] - ts[0], float(bound.max()), d_stick)
        assert np.isin(np.flatnonzero(chase.any(axis=0) | (dists[0] <= d_stick)), live).all()
        live_chase = driver.crossing_candidates(
            block, driver.pair_dists(block, live), dt_sub, bound, live, d_stick
        )
        assert live_chase.tobytes() == chase[:, live].tobytes()

    @given(
        n=st.integers(2, 6),
        d=st.integers(1, 3),
        cols=st.integers(1, _NSUB + 1),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_speed_bound_covers_pair_speeds(self, n, d, cols, data):
        # the watch's per-column bound is at least every pair's speed, also
        # when rows coincide exactly (a zero-speed pair) and the scales vary
        x = np.arange(n * d, dtype=float).reshape(n, d)
        system = make_system(x, np.zeros((n, d)), SingularKernel(alpha=0.5))
        driver = _Driver(system, SolverConfig())
        vals = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
        v = np.array(data.draw(st.lists(vals, min_size=n * d * cols, max_size=n * d * cols)))
        v = v.reshape(n, d, cols)
        copies = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        v = v[copies]
        block = np.concatenate([np.zeros((n * d, cols)), v.reshape(n * d, cols)])
        speeds = driver.pair_rel_speeds(block)
        bound = driver.rel_speed_bound(block)
        assert bound.shape == (cols,)
        assert np.all(speeds <= bound[:, None])


    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 8),
        d=st.integers(1, 3),
        n_clusters=st.integers(2, 8),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_component_matches_dense_reachability(self, seed, n, d, n_clusters, data):
        # clusters are coincident rows, so equal gaps tie thresholds drawn
        # from the gaps; the reference grows the group from the seed pair's
        # two rows over the dense N x N separations, same-cluster zeros
        # included, and takes its diameter and spread over all its member pairs
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, n_clusters, n)
        assume(len(set(labels.tolist())) > 1)
        x = rng.normal(size=(n_clusters, d))[labels] * 10.0 ** rng.integers(-4, 2)
        v = rng.normal(size=(n_clusters, d))[labels]
        driver = _Driver(make_system(x, v, SingularKernel(alpha=0.5)), SolverConfig())
        y = np.concatenate([x.ravel(), v.ravel()])
        dists = driver.pair_dists(y)
        threshold = data.draw(st.sampled_from(dists.tolist()))

        diff = x[None, :, :] - x[:, None, :]
        dense = np.sqrt(np.einsum("ijd,ijd->ij", diff, diff))
        pair = data.draw(st.integers(0, len(driver.pi) - 1))
        reach = {int(driver.pi[pair]), int(driver.pj[pair])}
        frontier = list(reach)
        while frontier:
            for j in np.flatnonzero(dense[frontier.pop()] <= threshold).tolist():
                if j not in reach:
                    reach.add(j)
                    frontier.append(j)
        roots = driver.component(dists, threshold, pair)
        assert driver.members(roots) == tuple(sorted(reach))

        idx = np.array(sorted(reach))
        dx = x[idx][None, :, :] - x[idx][:, None, :]
        dv = v[idx][None, :, :] - v[idx][:, None, :]
        ref_diam = np.sqrt(np.einsum("ijd,ijd->ij", dx, dx).max())
        ref_spread = np.sqrt(np.einsum("ijd,ijd->ij", dv, dv).max())
        assert driver.group_stats(y, dists, roots) == (ref_diam, ref_spread)


class TestChase:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_dip_between_columns_is_chased(self, d, monkeypatch):
        # a head-on pair closing at speed 2000 spends about 1e-9 inside the
        # 2e-6 wide d_stick window, far less than a subsample interval, so
        # no column lands inside it: the main phase must chase the dip
        found = []
        golden = integrator._golden_min

        def counting(f, t_lo, t_hi, tol):
            t_m = golden(f, t_lo, t_hi, tol)
            found.append((sys._getframe(1).f_code.co_name, f(t_m)))
            return t_m

        monkeypatch.setattr(integrator, "_golden_min", counting)
        x = np.zeros((2, d))
        v = np.zeros((2, d))
        x[:, 0] = [-0.5, 0.5]
        v[:, 0] = [1000.0, -1000.0]
        config = SolverConfig(t_end=0.01)
        traj = solve_piecewise(make_system(x, v, SingularKernel(alpha=0.25)), config)
        dips = [caller for caller, gap in found if gap <= config.d_stick]
        assert dips and dips[0] == "_run_segment"
        assert [e.kind for e in traj.events] == [NON_STICK]
        ref = classify(TwoBodyProblem(1.0, -2000.0, 0.25))
        # no probe column beats the crossing distance, so the closest
        # approach is refined between the crossing and the first column
        assert abs(traj.events[0].t_event - ref.t_hit) < 1e-9

    @pytest.mark.parametrize("speed", [100.0, 2000.0])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_rebound_before_first_column_is_refined(self, d, speed):
        # the pair passes through contact before the probe's first column,
        # d_stick / speed after the crossing: without a refinement there the
        # event would keep the crossing instant and report min_dist = d_stick
        x = np.zeros((2, d))
        v = np.zeros((2, d))
        x[:, 0] = [-0.5, 0.5]
        v[:, 0] = [0.5 * speed, -0.5 * speed]
        config = SolverConfig(t_end=2.0 / speed)
        traj = solve_piecewise(make_system(x, v, SingularKernel(alpha=0.25)), config)
        assert [e.kind for e in traj.events] == [NON_STICK]
        ref = classify(TwoBodyProblem(1.0, -speed, 0.25))
        assert abs(traj.events[0].t_event - ref.t_hit) <= 1e-9
        assert traj.events[0].min_dist < config.d_stick

    @pytest.mark.parametrize(
        "v_half,kind,searches", [(2.0, STICKING, 0), (2.5, NON_STICK, 1)]
    )
    def test_probe_refines_rebounds_only(self, v_half, kind, searches, monkeypatch):
        # the critical pair sticks and its event time comes from the
        # threshold instant and the power-law fit, so the probe runs no
        # closest-approach search; the supercritical pair rebounds and runs one
        callers = []
        golden = integrator._golden_min

        def counting(f, t_lo, t_hi, tol):
            callers.append(sys._getframe(1).f_code.co_name)
            return golden(f, t_lo, t_hi, tol)

        monkeypatch.setattr(integrator, "_golden_min", counting)
        traj = solve_piecewise(_two_body(v_half), SolverConfig(t_end=1.0))
        assert [e.kind for e in traj.events] == [kind]
        assert callers.count("_probe") == searches
        if kind == STICKING:
            assert abs(traj.events[0].t_event - stick_time(1.0, 0.5)) < 1e-6
        else:
            ref = classify(TwoBodyProblem(1.0, -2.0 * v_half, 0.5))
            assert abs(traj.events[0].t_event - ref.t_hit) < 1e-9

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_chase_cost_does_not_grow_with_coincident_pairs(self, d, monkeypatch):
        # clusters of m and n - m coincident rows close critically: every
        # one of the m(n-m) pairs across them has the same gap, and the
        # watch follows one of them, so the chase costs what a pair's does
        calls = {"searches": 0, "dists": 0}
        searches = []
        golden = integrator._golden_min
        pair_dists = _Driver.pair_dists

        def counting_golden(f, t_lo, t_hi, tol):
            if sys._getframe(1).f_code.co_name == "_run_segment":
                calls["searches"] += 1
            return golden(f, t_lo, t_hi, tol)

        def counting_dists(self, y, sel=None):
            # calls through the closures of _run_segment (not through
            # _probe) are its localization: the chase and threshold hits
            f = sys._getframe(1)
            if f.f_code.co_name != "_run_segment":
                while f is not None and f.f_code.co_name not in ("_run_segment", "_probe"):
                    f = f.f_back
                if f is not None and f.f_code.co_name == "_run_segment":
                    calls["dists"] += 1
            return pair_dists(self, y, sel)

        monkeypatch.setattr(integrator, "_golden_min", counting_golden)
        monkeypatch.setattr(_Driver, "pair_dists", counting_dists)
        alpha = 0.5
        e = np.array([1.0, 2.0, 3.0][:d]) / np.linalg.norm([1.0, 2.0, 3.0][:d])
        closing = -critical_velocity(1.0, alpha)
        for n, m in [(4, 2), (12, 6)]:
            calls.update(searches=0, dists=0)
            in_a = (np.arange(n) < m)[:, None]
            x = np.where(in_a, -0.5 * e, 0.5 * e)
            v = np.where(in_a, 0.5 * closing * e, -0.5 * closing * e)
            traj = solve_piecewise(make_system(x, v, SingularKernel(alpha=alpha)), SolverConfig(t_end=0.6))
            assert [ev.kind for ev in traj.events] == [STICKING]
            assert abs(traj.events[0].t_event - stick_time(1.0, alpha)) < 1e-6
            # one golden section and bisection take about 80 evaluations
            searches.append(calls["searches"])
            assert calls["dists"] <= 100
        # m(n-m) = 4 and 36 pairs cost the same searches
        assert searches[0] == searches[1] >= 1
