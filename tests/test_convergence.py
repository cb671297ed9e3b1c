"""Tests for the regularized-family convergence study."""

import importlib.util
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flocksim import integrator
from flocksim.cli import build_system, generate_scenario, parse_config
from flocksim.convergence import ConvergenceReport, cauchy_table, run_family
from flocksim.dynamics import make_system
from flocksim.errors import DivergenceError, DomainError
from flocksim.integrator import NON_STICK, STICKING, SolverConfig, solve_piecewise
from flocksim.kernels import RegularizedKernel, SingularKernel


def _head_on(v_half):
    x = np.array([[-0.5], [0.5]])
    v = np.array([[v_half], [-v_half]])
    return x, v


def _workloads():
    """The benchmark's workload module, loaded from ``perfbench/workloads.py``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return workloads


def _assert_family_is_independent_solves(x, v, alpha, n_list, config):
    """``run_family`` returns, bit for bit, one independent solve per cap."""
    runs = run_family(x, v, alpha, n_list, config)
    assert len(runs) == len(n_list)
    for n, run in zip(n_list, runs):
        alone = solve_piecewise(make_system(x, v, SingularKernel(alpha)), replace(config, n_reg=n))
        assert run.config == alone.config
        for name in ("t", "x", "v", "grid_mask"):
            assert np.array_equal(getattr(run, name), getattr(alone, name)), (n, name)
        assert run.events == alone.events, n
        got, want = run.final_state, alone.final_state
        assert np.array_equal(got.x, want.x) and np.array_equal(got.v, want.v), n
        assert np.array_equal(got.partition.labels(), want.partition.labels()), n
    return runs


def _rhs_calls_per_cap(monkeypatch):
    """Counts ``_Driver.rhs`` calls by the cap index of the driver's kernel."""
    calls = Counter()
    rhs = integrator._Driver.rhs

    def counted(self, t, y, out):
        calls[self.kernel.n] += 1
        return rhs(self, t, y, out)

    monkeypatch.setattr(integrator._Driver, "rhs", counted)
    return calls


@pytest.fixture(scope="module")
def critical_family():
    # critical approach for alpha=0.5; the outcome depends on the cap
    x, v = _head_on(2.0)
    runs = run_family(x, v, 0.5, (10, 100, 1000), SolverConfig(t_end=2.0))
    return runs, cauchy_table(runs)


class TestRunFamily:
    def test_one_run_per_cap_index(self):
        x, v = _head_on(0.5)
        runs = run_family(x, v, 0.5, (5, 50), SolverConfig(t_end=1.0))
        assert [run.config.n_reg for run in runs] == [5, 50]
        for run in runs:
            assert run.t[-1] == pytest.approx(1.0, abs=1e-12)

    def test_cap_threshold_splits_outcomes(self, critical_family):
        # coarse caps leak enough weight near contact that the pair passes
        # through and rebounds; fine caps keep it inside the stick thresholds
        runs, _ = critical_family
        kinds = [[e.kind for e in run.events] for run in runs]
        assert kinds == [[NON_STICK], [NON_STICK], [STICKING]]

    def test_rebound_speed_shrinks_with_cap(self, critical_family):
        runs, _ = critical_family
        assert runs[0].events[0].rel_speed == pytest.approx(0.2, abs=1e-2)
        assert runs[1].events[0].rel_speed == pytest.approx(0.02, abs=1e-3)

    def test_error_names_cap_index(self):
        # the velocity difference of a pair closing near the float limit
        # overflows, so the first run's derivative at the start is not finite
        x, v = _head_on(1e308)
        cfg = SolverConfig(t_end=2.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match=r"^cap index n=10: non-finite derivative at t=0\.0$"):
                run_family(x, v, 0.5, (10, 100), cfg)

    def test_n_list_validation(self):
        x, v = _head_on(0.5)
        cfg = SolverConfig(t_end=0.5)
        with pytest.raises(DomainError):
            run_family(x, v, 0.5, (10,), cfg)
        with pytest.raises(DomainError):
            run_family(x, v, 0.5, (1, 10), cfg)
        with pytest.raises(DomainError):
            run_family(x, v, 0.5, (10, 10), cfg)
        with pytest.raises(DomainError):
            run_family(x, v, 0.5, (100, 10), cfg)


class TestSharedPrefix:
    """Each member resumes where the run of the next-smaller cap last
    matched it, and every run equals its independent solve bit for bit."""

    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_converge_2c_entries(self, slot, tmp_path):
        # the benchmark's seed-1 configs, one per schedule entry
        config = parse_config(_workloads()._make_converge(1, slot).text, "converge", str(tmp_path))
        system = build_system(config.scenario)
        _assert_family_is_independent_solves(
            system.x, system.v, config.scenario.alpha, config.n_list, config.solver
        )

    def test_storm_crossing_before_any_member_diverges(self):
        # every member's first main phase stays on the power branch up to
        # the crossing at t = 0.0182 (bridge_end(1000) is 1.002e-6, just
        # above d_stick), so all share that phase; the probes differ
        x, v = generate_scenario(6, 1, 7, box=1.0, speed=5.0)
        runs = _assert_family_is_independent_solves(x, v, 0.5, (1000, 10**4, 10**5),
                                                    SolverConfig(t_end=0.05))
        assert [len(run.events) for run in runs] == [3, 3, 3]
        assert runs[0].events[0].t_event != runs[1].events[0].t_event

    def test_start_inside_the_smallest_bridge(self):
        # separation 0.011 lies in the n = 10 bridge (0.01, 0.0123): that
        # member leaves the power branch at its first RHS call and records
        # nothing, so the n = 100 member starts from t = 0
        x = np.array([[-0.0055], [0.0055]])
        v = np.array([[1.0], [-1.0]])
        kernel = RegularizedKernel(alpha=0.5, n=10)
        assert kernel.cap_end < 0.011 < kernel.bridge_end
        runs = _assert_family_is_independent_solves(x, v, 0.5, (10, 100, 1000), SolverConfig(t_end=0.1))
        assert [[e.kind for e in run.events] for run in runs] == [[NON_STICK]] * 3

    def test_one_cluster_drifts(self):
        x = np.array([[0.25, -1.0]] * 3)
        v = np.array([[1.0, 0.5]] * 3)
        runs = _assert_family_is_independent_solves(x, v, 0.5, (10, 100), SolverConfig(t_end=0.3))
        assert runs[-1].final_state.partition.n_clusters == 1

    def test_collision_free_family(self):
        x, v = _head_on(0.5)
        _assert_family_is_independent_solves(x, v, 0.5, (5, 50, 500), SolverConfig())

    @settings(max_examples=12, deadline=None)
    @given(
        alpha=st.floats(0.2, 0.7),
        phi0=st.floats(0.5, 2.0),
        closing=st.floats(0.5, 1.5),
        n=st.integers(2, 6),
        data=st.data(),
    )
    def test_two_clusters(self, alpha, phi0, closing, n, data):
        # clusters of m and n - m rows closing at `closing` times the
        # critical rate, to a quarter past the critical stick time
        m = data.draw(st.integers(1, n - 1), "m")
        u = closing * 2.0 * phi0 ** (1.0 - alpha) / (1.0 - alpha)
        x = np.array([[-(n - m) / n * phi0]] * m + [[m / n * phi0]] * (n - m))
        v = np.array([[(n - m) / n * u]] * m + [[-m / n * u]] * (n - m))
        t_end = 1.25 * (1.0 - alpha) * phi0**alpha / (2.0 * alpha)
        _assert_family_is_independent_solves(x, v, alpha, (10, 100, 1000, 10**4),
                                             SolverConfig(t_end=t_end))

    def test_free_family_members_make_no_rhs_call(self, monkeypatch):
        # the orbit never nears the smallest bridge, so the first member's
        # run is every later member's, to its last sample
        calls = _rhs_calls_per_cap(monkeypatch)
        x, v = _head_on(0.5)
        run_family(x, v, 0.5, (5, 50, 500), SolverConfig())
        assert calls[5] > 0
        assert calls[50] == calls[500] == 0

    def test_critical_family_shares_steps(self, monkeypatch):
        calls = _rhs_calls_per_cap(monkeypatch)
        x, v = _head_on(2.0)
        config = SolverConfig(t_end=2.0)
        run_family(x, v, 0.5, (10, 100, 1000), config)
        shared = dict(calls)
        calls.clear()
        for n in (10, 100, 1000):
            solve_piecewise(make_system(x, v, SingularKernel(alpha=0.5)), replace(config, n_reg=n))
        assert shared[10] == calls[10]
        assert shared[100] < calls[100] and shared[1000] < calls[1000]


class TestCauchyTable:
    def test_collision_free_family_is_bitwise_identical(self):
        # separation bottoms out at 0.5625, far above every cap floor, so
        # the capped weights seen along the orbit agree bitwise across caps
        x, v = _head_on(0.5)
        runs = run_family(x, v, 0.5, (5, 50, 500), SolverConfig())
        report = cauchy_table(runs)
        assert np.all(report.sup_dx == 0.0)
        assert np.all(report.sup_dv == 0.0)
        assert np.all(report.reference_gap_x == 0.0)
        assert np.all(report.reference_gap_v == 0.0)

    def test_critical_family_gaps_decay(self, critical_family):
        _, report = critical_family
        assert report.reference_gap_x[-1] == 0.0
        assert report.reference_gap_v[-1] == 0.0
        ref = report.reference_gap_v
        assert ref[0] > ref[1] > ref[2]
        assert report.sup_dv[1] < 0.2 * report.sup_dv[0]

    def test_two_member_reference_matches_consecutive(self, critical_family):
        runs, _ = critical_family
        report = cauchy_table(runs[:2])
        assert report.reference_gap_x[0] == report.sup_dx[0]
        assert report.reference_gap_v[0] == report.sup_dv[0]

    def test_grid_mismatch_rejected(self):
        x = np.array([[0.0], [1.0]])
        v = np.array([[1.0], [1.0]])
        kernel = SingularKernel(alpha=0.5)
        a = solve_piecewise(make_system(x, v, kernel), SolverConfig(t_end=1.0, sample_dt=0.5, n_reg=5))
        b = solve_piecewise(make_system(x, v, kernel), SolverConfig(t_end=1.0, sample_dt=0.4, n_reg=50))
        with pytest.raises(DomainError, match="grids do not match"):
            cauchy_table([a, b])


class TestReportValidation:
    def test_consecutive_length_checked(self):
        with pytest.raises(DomainError):
            ConvergenceReport(
                n_list=(5, 50),
                sup_dx=np.zeros(2),
                sup_dv=np.zeros(1),
                reference_gap_x=np.zeros(2),
                reference_gap_v=np.zeros(2),
            )

    def test_reference_length_checked(self):
        with pytest.raises(DomainError):
            ConvergenceReport(
                n_list=(5, 50),
                sup_dx=np.zeros(1),
                sup_dv=np.zeros(1),
                reference_gap_x=np.zeros(3),
                reference_gap_v=np.zeros(2),
            )
