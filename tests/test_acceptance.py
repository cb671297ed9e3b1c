"""End-to-end acceptance checks for the solver and analysis stack.

Each numbered test exercises one advertised guarantee at its stated
tolerance; the terminal summary prints one ``ACCEPTANCE <k> PASS|FAIL``
line per check (see ``pytest_terminal_summary`` in conftest).
"""

import numpy as np
import pytest

from conftest import ALPHAS
from flocksim.convergence import cauchy_table, run_family
from flocksim.diagnostics import (
    DIVERGENT,
    FINITE,
    holder_exponent,
    integrability_probe,
    run_diagnostics,
)
from flocksim.dynamics import ClusterPartition
from flocksim.integrator import NON_STICK, STICKING, SolverConfig
from flocksim.twobody import (
    bounded_weight_floor_check,
    level_time_bound_check,
    stick_time,
)

STICK_TIMES = {0.25: 1.5, 0.5: 0.5, 0.75: 0.25 / 1.5}


@pytest.fixture(scope="module")
def suite_reports(random_suite):
    return [run_diagnostics(rec["traj"]) for rec in random_suite]


def test_criterion_01_critical_stick_times(critical_runs):
    # head-on pair closing at exactly the critical rate sticks in finite
    # time; the collapse instant has a closed form per exponent
    for alpha in ALPHAS:
        traj = critical_runs[alpha]
        expected = STICK_TIMES[alpha]
        assert stick_time(1.0, alpha) == pytest.approx(expected, abs=1e-12)
        assert [e.kind for e in traj.events] == [STICKING]
        assert traj.events[0].t_event == pytest.approx(expected, abs=1e-3)


def test_criterion_02_trichotomy(supercritical_run, subcritical_run):
    # faster than critical: collision without sticking, residual speed 1;
    # slower: no collision at all, separation limit 0.0625
    assert [e.kind for e in supercritical_run.events] == [NON_STICK]
    assert supercritical_run.events[0].rel_speed == pytest.approx(1.0, abs=1e-3)
    assert subcritical_run.events == []
    sep = np.abs(subcritical_run.x[:, 1, 0] - subcritical_run.x[:, 0, 0])
    assert sep.min() == pytest.approx(0.0625, abs=1e-4)


def test_criterion_03_mean_velocity_conservation(suite_reports):
    assert max(rep.mean_velocity_drift for rep in suite_reports) <= 1e-8


def test_criterion_04_dissipation(suite_reports):
    assert max(rep.r_violation for rep in suite_reports) <= 1e-8
    assert min(rep.velocity_bound_margin for rep in suite_reports) >= 0.0


def test_criterion_05_ordered_sums(suite_reports):
    assert max(rep.ordered_sum_violation for rep in suite_reports) <= 1e-8


def test_criterion_06_holder_exponent(critical_runs):
    for alpha in ALPHAS:
        traj = critical_runs[alpha]
        fit = holder_exponent(traj, traj.events[0])
        assert abs(fit.exponent - (1.0 - alpha)) < 0.1


def test_criterion_07_integrability_dichotomy(critical_runs, subcritical_run, random_suite):
    critical = critical_runs[0.5]
    rec = integrability_probe(critical, (0, 1), float(critical.t[-1]))
    assert rec.classification == DIVERGENT
    rec = integrability_probe(subcritical_run, (0, 1), float(subcritical_run.t[-1]))
    assert rec.classification == FINITE
    # a sticking pair must never read as having finite accumulated weight;
    # pairs that collide without sticking may (their integral really is finite)
    for suite_rec in random_suite:
        traj = suite_rec["traj"]
        for event in traj.events:
            if event.kind != STICKING:
                continue
            group = event.group
            for a in range(len(group)):
                for b in range(a + 1, len(group)):
                    probe = integrability_probe(traj, (group[a], group[b]), event.t_event)
                    assert probe.classification != FINITE


def test_criterion_08_level_time_bound():
    for alpha in ALPHAS:
        records = level_time_bound_check(1.0, alpha, 20)
        assert [rec.n for rec in records] == list(range(2, 21))
        assert all(rec.ok for rec in records)


def test_criterion_09_bounded_weight_floor():
    result = bounded_weight_floor_check(1.0, -1.0, K=1.0, beta=2.0, t_end=5.0)
    assert result.ok
    assert result.min_ratio >= 1.0 - 1e-6


def test_criterion_10_regularized_family_convergence():
    x = np.array([[-0.5], [0.5]])
    config = SolverConfig()
    runs = run_family(x, np.array([[2.0], [-2.0]]), 0.5, (10, 100, 1000, 10000), config)
    ref_v = cauchy_table(runs).reference_gap_v
    assert all(ref_v[k + 1] <= 2.0 * ref_v[k] for k in range(len(ref_v) - 1))
    assert ref_v[-1] < ref_v[0]

    # the subcritical pair never leaves the region where all caps agree
    runs = run_family(x, np.array([[0.5], [-0.5]]), 0.5, (5, 50, 500), config)
    report = cauchy_table(runs)
    assert report.sup_dx.max() <= 1e-8
    assert report.sup_dv.max() <= 1e-8
    assert report.reference_gap_x.max() <= 1e-8
    assert report.reference_gap_v.max() <= 1e-8


def _check_sticking_budget_and_monotone(traj):
    n = traj.final_state.n_particles
    part = ClusterPartition(n)
    n_stick = 0
    for event in traj.events:
        if event.kind != STICKING:
            continue
        n_stick += 1
        before = part.n_clusters
        for other in event.group[1:]:
            part.union(event.group[0], other)
        assert part.n_clusters < before
    assert n_stick <= n - 1
    # a label is its cluster's smallest member, so equal labels are equal clusters
    np.testing.assert_array_equal(part.labels(), traj.final_state.partition.labels())


def test_criterion_11_sticking_budget(random_suite, headon_run):
    # merges only ever grow clusters, so replaying the event log from
    # singletons must land exactly on the final partition
    for rec in random_suite:
        _check_sticking_budget_and_monotone(rec["traj"])
    _check_sticking_budget_and_monotone(headon_run)
