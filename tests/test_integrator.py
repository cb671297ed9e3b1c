"""Event-driven piecewise solver tests.

The two-body closed forms supply the reference event times: a pair
closing at the critical rate from separation 1 sticks at
(1-alpha)/(2 alpha), and the symmetric triple collapse rescales the same
orbit by kappa = (1 + 2**(1-alpha))/3.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flocksim import (
    ContinuationError,
    CuckerSmaleKernel,
    DomainError,
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
            {"max_segments": 0},
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

    def test_mean_velocity_pinned(self, critical_runs):
        traj = critical_runs[0.5]
        means = traj.v.mean(axis=1)
        np.testing.assert_allclose(means, 0.0, atol=1e-12)


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


class TestSegmentApi:
    def test_budget_exhaustion(self):
        with pytest.raises(ContinuationError):
            solve_piecewise(_two_body(2.5), SolverConfig(t_end=2.0, max_segments=1))

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

    def counted(t, y):
        calls.append(t)
        return fun(t, y)

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


class TestStepperOracle:
    """The package's RK45 copies the arithmetic of scipy's, so the two agree
    bit for bit on every step, dense value and RHS call."""

    @staticmethod
    def _assert_as_scipy(fun, t0, y0, t_bound, **tol):
        from scipy.integrate import RK45

        ours = _steps_of(integrator.RK45, fun, t0, y0, t_bound, **tol)
        assert ours == _steps_of(RK45, fun, t0, y0, t_bound, **tol)
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
        steps, msg = self._assert_as_scipy(lambda t, y: y * y, 0.0, [1.0], 2.0, rtol=1e-6, atol=1e-9)
        assert msg == "Required step size is less than spacing between numbers."
        assert abs(steps[-1][1] - 1.0) < 1e-3


class TestDriverBlocks:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_block_rows_equal_single_columns(self, d):
        # a step's (n*d, _NSUB + 1) subsample block gives, bit for bit, the
        # per-column distances and speeds; clusters {0, 3} and {2, 5} leave
        # 5 clusters, and the watch holds one pair per pair of clusters
        n = 7
        rng = np.random.default_rng(d)
        x = rng.normal(size=(n, d))
        v = rng.normal(size=(n, d))
        x[3], v[3], x[5], v[5] = x[0], v[0], x[2], v[2]
        driver = _Driver(make_system(x, v, SingularKernel(alpha=0.5)), SolverConfig())
        assert driver.n_pairs == 10
        block = rng.normal(size=(2 * n * d, _NSUB + 1)) * 10.0 ** rng.integers(-6, 2, _NSUB + 1)
        for method in (driver.pair_dists, driver.pair_rel_speeds):
            rows = method(block)
            cols = np.stack([method(block[:, c]) for c in range(_NSUB + 1)])
            assert rows.shape == (_NSUB + 1, driver.n_pairs)
            assert rows.tobytes() == cols.tobytes()

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
        # clusters are coincident rows, so equal gaps tie both the closest
        # pair and thresholds drawn from the gaps; the reference grows the
        # group over the dense N x N separations, same-cluster zeros included,
        # and takes its diameter and spread over all its member pairs
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
        iu, ju = np.triu_indices(n, 1)
        inter = labels[iu] != labels[ju]
        ref_seed = int(np.argmin(dense[iu, ju][inter]))
        reach = {int(iu[inter][ref_seed]), int(ju[inter][ref_seed])}
        frontier = list(reach)
        while frontier:
            for j in np.flatnonzero(dense[frontier.pop()] <= threshold).tolist():
                if j not in reach:
                    reach.add(j)
                    frontier.append(j)
        seed, roots = driver.component(dists, threshold)
        assert (driver.pi[seed], driver.pj[seed]) == (iu[inter][ref_seed], ju[inter][ref_seed])
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

        def counting_dists(self, y):
            # calls through the closures of _run_segment (not through
            # _probe) are its localization: the chase and threshold hits
            f = sys._getframe(1)
            if f.f_code.co_name != "_run_segment":
                while f is not None and f.f_code.co_name not in ("_run_segment", "_probe"):
                    f = f.f_back
                if f is not None and f.f_code.co_name == "_run_segment":
                    calls["dists"] += 1
            return pair_dists(self, y)

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
