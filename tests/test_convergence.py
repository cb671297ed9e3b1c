"""Tests for the regularized-family convergence study."""

import numpy as np
import pytest

from flocksim.convergence import ConvergenceReport, cauchy_table, run_family
from flocksim.dynamics import make_system
from flocksim.errors import DivergenceError, DomainError
from flocksim.integrator import NON_STICK, STICKING, SolverConfig, solve_piecewise
from flocksim.kernels import SingularKernel


def _head_on(v_half):
    x = np.array([[-0.5], [0.5]])
    v = np.array([[v_half], [-v_half]])
    return x, v


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
