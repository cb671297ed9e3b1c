"""Diagnostics tests.

Reference facts used here: for a pair closing critically from separation
1 the collapse is an exact power law, so the velocity exponent at the
event is 1 - alpha and the accumulated pair weight diverges (its dyadic
window integrals are all equal).  A transversal pass or a stalled pair
has an integrable weight history, so the window ratios decay towards 1/2.
"""

import math

import numpy as np
import pytest

from flocksim import diagnostics
from flocksim import (
    DIVERGENT,
    FINITE,
    INCONCLUSIVE,
    NON_STICK,
    STICKING,
    DomainError,
    InsufficientDataError,
    IntegrabilityRecord,
    SingularKernel,
    SolverConfig,
    conservation_residual,
    critical_velocity,
    dissipation_check,
    divergent_components,
    holder_exponent,
    integrability_probe,
    make_system,
    ordered_sums_check,
    run_diagnostics,
    solve_piecewise,
)


@pytest.fixture(scope="module")
def drift_traj():
    s = make_system([[0.0], [1.0], [2.5]], [[1.0], [1.0], [1.0]], SingularKernel(alpha=0.5))
    return solve_piecewise(s, SolverConfig(t_end=1.0))


class TestConservation:
    def test_symmetric_pair_exact(self, critical_runs):
        assert conservation_residual(critical_runs[0.5]) < 1e-12

    def test_triple_collapse(self, triple_run):
        traj, _ = triple_run
        assert conservation_residual(traj) < 1e-10

    def test_drift_is_exact(self, drift_traj):
        assert conservation_residual(drift_traj) == 0.0

    def test_random_scenario(self, random_suite):
        assert conservation_residual(random_suite[0]["traj"]) < 1e-8


class TestDissipation:
    def test_initial_dispersion_hand_value(self, critical_runs):
        # velocities +-2: both ordered pairs contribute |4|^2
        res = dissipation_check(critical_runs[0.5])
        assert res.r_values[0] == pytest.approx(32.0, rel=1e-12)

    def test_never_increases(self, critical_runs, supercritical_run):
        for traj in (critical_runs[0.25], critical_runs[0.75], supercritical_run):
            assert dissipation_check(traj).r_violation <= 1e-8

    def test_collapse_drains_dispersion(self, critical_runs):
        res = dissipation_check(critical_runs[0.5])
        assert res.r_values[-1] < 1e-12
        assert np.all(res.r_values >= -1e-12)

    def test_velocity_bound_margin(self, critical_runs, subcritical_run):
        assert dissipation_check(critical_runs[0.5]).velocity_bound_margin >= 0.0
        assert dissipation_check(subcritical_run).velocity_bound_margin >= 0.0

    def test_time_axis_matches(self, critical_runs):
        res = dissipation_check(critical_runs[0.5])
        np.testing.assert_array_equal(res.r_t, critical_runs[0.5].t)
        assert len(res.r_values) == len(res.r_t)


class TestOrderedSums:
    def test_two_body_runs(self, critical_runs, supercritical_run, subcritical_run):
        for traj in (critical_runs[0.5], supercritical_run, subcritical_run):
            assert ordered_sums_check(traj) <= 1e-8

    def test_drift_exactly_flat(self, drift_traj):
        assert ordered_sums_check(drift_traj) == 0.0

    def test_multidimensional_scenario(self, random_suite):
        rec = next(r for r in random_suite if r["d"] == 3)
        assert ordered_sums_check(rec["traj"]) <= 1e-8


class TestHolderExponent:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_exponent_matches_collapse_law(self, critical_runs, alpha):
        traj = critical_runs[alpha]
        fit = holder_exponent(traj, traj.events[0])
        assert abs(fit.exponent - (1.0 - alpha)) < 0.1
        assert math.isfinite(fit.residual)

    def test_rejects_non_sticking(self, supercritical_run):
        with pytest.raises(DomainError):
            holder_exponent(supercritical_run, supercritical_run.events[0])

    def test_thin_window_insufficient(self, critical_runs):
        traj = critical_runs[0.5]
        with pytest.raises(InsufficientDataError):
            holder_exponent(traj, traj.events[0], window_frac=1e-9)

    def test_triple_collapse_exponent(self, triple_run):
        traj, _ = triple_run
        fit = holder_exponent(traj, traj.events[0])
        assert abs(fit.exponent - 0.5) < 0.1

    @pytest.mark.parametrize(
        "alpha,axis,x0,v0,member,t_end",
        [
            # one row against five, closing critically from unit separation:
            # the first sample at or after the event lies past the merge
            (0.25, [1.0, 2.0], [-0.5, 0.5], [4.0 / 3.0, -4.0 / 3.0], [0, 1, 1, 1, 1, 1], 1.8),
            # the first two clusters stick near t = 0.735 while the third
            # keeps pulling the merged cluster on
            (0.5, [1.0], [-0.5, 0.5, 3.0], [1.46728515625, -1.46728515625, -1.0],
             [1, 0, 2, 0, 1, 2, 0, 2], 1.5),
        ],
        ids=["two_clusters_alpha_quarter", "three_clusters"],
    )
    def test_reference_is_the_merge_velocity(self, alpha, axis, x0, v0, member, t_end):
        # clusters of coincident rows on a line along ``axis``
        e = np.array(axis) / np.linalg.norm(axis)
        x = np.outer(np.array(x0)[member], e)
        v = np.outer(np.array(v0)[member], e)
        traj = solve_piecewise(make_system(x, v, SingularKernel(alpha=alpha)), SolverConfig(t_end=t_end))
        fit = run_diagnostics(traj).holder
        assert abs(fit.exponent - (1.0 - alpha)) < 0.05
        assert fit.residual < 0.15


class TestIntegrabilityProbe:
    def test_critical_pair_divergent(self, critical_runs):
        traj = critical_runs[0.5]
        rec = integrability_probe(traj, (0, 1), traj.events[0].t_event)
        assert rec.classification == DIVERGENT
        assert rec.estimate > 0.0 and math.isfinite(rec.estimate)

    def test_transversal_pass_finite(self, supercritical_run):
        rec = integrability_probe(
            supercritical_run, (0, 1), supercritical_run.events[0].t_event
        )
        assert rec.classification == FINITE

    def test_stalled_pair_finite(self, subcritical_run):
        rec = integrability_probe(subcritical_run, (0, 1), 20.0)
        assert rec.classification == FINITE

    def test_identical_indices_rejected(self, critical_runs):
        with pytest.raises(DomainError):
            integrability_probe(critical_runs[0.5], (1, 1), 0.5)

    def test_shared_cluster_rejected(self):
        s = make_system([[0.0], [0.0]], [[1.0], [1.0]], SingularKernel(alpha=0.5))
        traj = solve_piecewise(s, SolverConfig(t_end=1.0))
        with pytest.raises(DomainError):
            integrability_probe(traj, (0, 1), 1.0)

    def test_empty_window_rejected(self, critical_runs):
        with pytest.raises(DomainError):
            integrability_probe(critical_runs[0.5], (0, 1), 0.0)


class TestDivergentComponents:
    def test_groups_divergent_edges(self):
        records = [
            IntegrabilityRecord((0, 1), 5.0, DIVERGENT),
            IntegrabilityRecord((1, 2), 1.0, FINITE),
            IntegrabilityRecord((3, 4), 2.0, DIVERGENT),
        ]
        assert divergent_components(records, 5) == [(0, 1), (2,), (3, 4)]

    def test_inconclusive_edges_ignored(self):
        records = [IntegrabilityRecord((0, 1), float("nan"), INCONCLUSIVE)]
        assert divergent_components(records, 2) == [(0,), (1,)]

    def test_chain_merges(self):
        records = [
            IntegrabilityRecord((0, 1), 1.0, DIVERGENT),
            IntegrabilityRecord((1, 2), 1.0, DIVERGENT),
        ]
        assert divergent_components(records, 3) == [(0, 1, 2)]


class TestRunDiagnostics:
    def test_critical_report(self, critical_runs):
        report = run_diagnostics(critical_runs[0.5])
        assert report.mean_velocity_drift < 1e-10
        assert report.r_violation <= 1e-8
        assert report.ordered_sum_violation <= 1e-8
        assert report.velocity_bound_margin >= 0.0
        assert report.holder is not None
        assert abs(report.holder.exponent - 0.5) < 0.1
        assert [(r.pair, r.classification) for r in report.integrability] == [
            ((0, 1), DIVERGENT)
        ]

    def test_eventless_report(self, drift_traj):
        report = run_diagnostics(drift_traj)
        assert report.holder is None
        assert report.integrability == []

    def test_triple_report_probes_all_pairs(self, triple_run):
        traj, _ = triple_run
        report = run_diagnostics(traj)
        assert [r.pair for r in report.integrability] == [(0, 1), (0, 2), (1, 2)]
        assert all(r.classification == DIVERGENT for r in report.integrability)
        t_event = traj.events[0].t_event
        assert report.integrability == [
            integrability_probe(traj, r.pair, t_event) for r in report.integrability
        ]

    def test_two_cluster_report_probes_inter_cluster_pairs(self):
        # clusters {1, 4} and {0, 2, 3, 5} of coincident rows collapse at the
        # critical rate: only the 2 x 4 pairs across the clusters interact
        n, alpha = 6, 0.5
        in_a = np.isin(np.arange(n), [1, 4])[:, None]
        x = np.where(in_a, -0.5, 0.5)
        v = np.where(in_a, 0.5, -0.5) * -critical_velocity(1.0, alpha)
        system = make_system(x, v, SingularKernel(alpha=alpha))
        traj = solve_piecewise(system, SolverConfig(t_end=0.6))
        report = run_diagnostics(traj)
        assert [r.pair for r in report.integrability] == [
            (0, 1), (0, 4), (1, 2), (1, 3), (1, 5), (2, 4), (3, 4), (4, 5)
        ]
        assert all(r.classification == DIVERGENT for r in report.integrability)

    def test_equal_separation_series_share_one_test(self, monkeypatch):
        # all 3 x 5 pairs across two coincident clusters have bitwise-equal
        # separation series: one ratio test serves them all, and each pair
        # gets the record a probe of its own gives
        tests = []
        ratio_test = diagnostics._ratio_test

        def counting(*args):
            tests.append(args)
            return ratio_test(*args)

        monkeypatch.setattr(diagnostics, "_ratio_test", counting)
        n, alpha = 8, 0.5
        in_a = (np.arange(n) < 3)[:, None]
        x = np.where(in_a, -0.5, 0.5)
        v = np.where(in_a, 0.5, -0.5) * -critical_velocity(1.0, alpha)
        traj = solve_piecewise(make_system(x, v, SingularKernel(alpha=alpha)), SolverConfig(t_end=0.6))
        report = run_diagnostics(traj)
        assert len(report.integrability) == 15
        assert len(tests) == 1
        t_event = traj.events[0].t_event
        assert report.integrability == [
            integrability_probe(traj, r.pair, t_event) for r in report.integrability
        ]

        # three clusters of two rows: A {0, 1} and B {2, 3} stick (B's speed
        # is tuned to A's critical approach under C's pull), then C {4, 5}
        # crosses the merged pair.  Each event runs one test per pair of
        # starting clusters among its pairs: A-B, then A-C and B-C, whose
        # series differ before A and B merged
        tests.clear()
        x = np.repeat([-0.5, 0.5, 20.0], 2)[:, None]
        v = np.repeat([2.0, -0.8164, -20.0], 2)[:, None]
        traj = solve_piecewise(make_system(x, v, SingularKernel(alpha=alpha)), SolverConfig(t_end=2.5))
        assert [(e.kind, e.group) for e in traj.events] == [
            (STICKING, (0, 1, 2, 3)), (NON_STICK, tuple(range(6)))
        ]
        report = run_diagnostics(traj)
        t1, t2 = (e.t_event for e in traj.events)
        assert [args[1] for args in tests] == [t1, t2, t2]
        assert [r.pair for r in report.integrability] == [
            (0, 2), (0, 3), (1, 2), (1, 3),
            (0, 4), (0, 5), (1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5),
        ]
        assert report.integrability == [
            integrability_probe(traj, r.pair, t) for r, t in zip(report.integrability, [t1] * 4 + [t2] * 8)
        ]
        assert report.integrability[4].estimate != report.integrability[8].estimate
