"""Two-body closed-form analysis tests.

The trichotomy values are cross-checked against a fixed-step RK4
integration of the separation equation itself, so the closed forms and
the quadrature never vouch for each other.
"""

import math

import numpy as np
import pytest

from flocksim import (
    CollideNonstick,
    DomainError,
    NoCollision,
    StickFiniteTime,
    TwoBodyProblem,
    bounded_weight_floor_check,
    classify,
    critical_velocity,
    level_time_bound_check,
    stick_time,
)
from flocksim.kernels import CuckerSmaleKernel
from flocksim.twobody import _floor_samples

# independently derived: t_hit for phi0=1, dphi0=-5, alpha=0.5 is
# integral_0^1 du/(4 sqrt(u) + 1) = 1/2 - ln(5)/8
T_HIT_SUPER = 0.5 - math.log(5.0) / 8.0


def _critical_orbit(phi0, alpha, t):
    """Separation at time ``t`` along the critical orbit, which closes at
    :func:`stick_time`: ``(phi0**alpha - (2 alpha/(1-alpha)) t) ** (1/alpha)``."""
    return (phi0**alpha - (2.0 * alpha / (1.0 - alpha)) * t) ** (1.0 / alpha)


def _rk4_separation(phi0, dphi0, alpha, dt, t_max, floor):
    """Fixed-step RK4 on phi'' = -2 phi' |phi|^(-alpha), stopping at the floor.

    Returns (t, phi, dphi) at the first step whose separation is at or
    below ``floor`` (or at ``t_max``).
    """

    def accel(p, q):
        return -2.0 * q * abs(p) ** -alpha if p != 0.0 else 0.0

    t, p, q = 0.0, phi0, dphi0
    while t < t_max and p > floor:
        h = dt
        if q < 0.0 and p < -100.0 * dt * q:
            # shrink into the contact so the loop never steps past zero
            h = min(dt, 0.01 * p / -q)
        k1p = q
        k1q = accel(p, q)
        k2p = q + 0.5 * h * k1q
        k2q = accel(p + 0.5 * h * k1p, k2p)
        k3p = q + 0.5 * h * k2q
        k3q = accel(p + 0.5 * h * k2p, k3p)
        k4p = q + h * k3q
        k4q = accel(p + h * k3p, k4p)
        p += h * (k1p + 2.0 * k2p + 2.0 * k3p + k4p) / 6.0
        q += h * (k1q + 2.0 * k2q + 2.0 * k3q + k4q) / 6.0
        t += h
    return t, p, q


class TestCriticalVelocity:
    def test_known_values(self):
        assert critical_velocity(1.0, 0.5) == -4.0
        assert critical_velocity(4.0, 0.5) == -8.0
        assert critical_velocity(1.0, 0.25) == pytest.approx(-8.0 / 3.0)

    def test_scaling_in_phi0(self):
        # homogeneous of degree 1 - alpha
        assert critical_velocity(9.0, 0.5) == pytest.approx(3.0 * critical_velocity(1.0, 0.5))

    def test_phi0_validation(self):
        with pytest.raises(DomainError):
            critical_velocity(0.0, 0.5)


class TestStickTime:
    def test_known_values(self):
        assert stick_time(1.0, 0.5) == 0.5
        assert stick_time(1.0, 0.25) == 1.5
        assert stick_time(1.0, 0.75) == pytest.approx(1.0 / 6.0)
        assert stick_time(4.0, 0.5) == 1.0

    def test_phi0_validation(self):
        with pytest.raises(DomainError):
            stick_time(-1.0, 0.5)


class TestPhiCritical:
    def test_endpoints(self):
        # the orbit starts at phi0 and closes exactly at the stick time
        assert _critical_orbit(1.0, 0.5, 0.0) == 1.0
        assert _critical_orbit(4.0, 0.5, 0.0) == 4.0
        assert _critical_orbit(1.0, 0.5, stick_time(1.0, 0.5)) == 0.0
        assert _critical_orbit(4.0, 0.5, stick_time(4.0, 0.5)) == 0.0

    def test_quadratic_profile(self):
        # alpha = 1/2 collapses along (1 - 2t)^2
        for t in (0.1, 0.25, 0.4):
            assert _critical_orbit(1.0, 0.5, t) == pytest.approx((1.0 - 2.0 * t) ** 2)

    def test_matches_direct_integration(self):
        # follow the critical orbit most of the way to contact
        t_stop = 0.45
        t, p, _ = _rk4_separation(1.0, critical_velocity(1.0, 0.5), 0.5, 1e-6, t_stop, 0.0)
        assert t == pytest.approx(t_stop, abs=2e-6)
        assert p == pytest.approx(_critical_orbit(1.0, 0.5, t), abs=1e-8)


class TestClassify:
    def test_critical_sticks(self):
        out = classify(TwoBodyProblem(1.0, -4.0, 0.5))
        assert isinstance(out, StickFiniteTime)
        assert out.t0 == 0.5

    def test_supercritical_collides(self):
        out = classify(TwoBodyProblem(1.0, -5.0, 0.5))
        assert isinstance(out, CollideNonstick)
        assert out.impact_speed == pytest.approx(1.0)
        assert out.t_hit == pytest.approx(T_HIT_SUPER, abs=1e-8)

    def test_subcritical_stalls(self):
        out = classify(TwoBodyProblem(1.0, -3.0, 0.5))
        assert isinstance(out, NoCollision)
        assert out.phi_limit == pytest.approx(0.0625)

    def test_separating_never_collides(self):
        out = classify(TwoBodyProblem(1.0, 2.0, 0.5))
        assert isinstance(out, NoCollision)
        assert out.phi_limit == math.inf

    def test_impact_speed_is_conserved_excess(self):
        # |c| = |2 Psi(phi0) + dphi0|
        out = classify(TwoBodyProblem(1.0, -6.0, 0.5))
        assert out.impact_speed == pytest.approx(2.0)
        out = classify(TwoBodyProblem(1.0, -4.0, 0.25))
        assert out.impact_speed == pytest.approx(4.0 / 3.0)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_monotone_trichotomy(self, alpha):
        crit = critical_velocity(1.0, alpha)
        seen = []
        for rate in np.linspace(crit + 1.0, crit - 1.0, 21):
            out = classify(TwoBodyProblem(1.0, float(rate), alpha))
            seen.append(type(out).__name__)
        order = {"NoCollision": 0, "StickFiniteTime": 1, "CollideNonstick": 2}
        codes = [order[s] for s in seen]
        assert codes == sorted(codes)
        assert codes[0] == 0 and codes[-1] == 2

    def test_t_hit_against_direct_integration(self):
        floor = 1e-9
        t, p, q = _rk4_separation(1.0, -5.0, 0.5, 1e-6, 1.0, floor)
        t_hit = t + p / -q  # linear remainder below the floor
        out = classify(TwoBodyProblem(1.0, -5.0, 0.5))
        assert out.t_hit == pytest.approx(t_hit, abs=1e-6)
        # residual deceleration below the floor is 2 Psi(floor) ~ 1.3e-4
        assert -q == pytest.approx(out.impact_speed, abs=2e-4)

    def test_conserved_quantity_along_orbit(self):
        # 2 Psi(phi) + phi' stays fixed on the supercritical orbit
        # 2 Psi(phi) is minus the critical rate from phi
        c0 = -critical_velocity(1.0, 0.5) - 5.0
        t, p, q = 0.0, 1.0, -5.0
        worst = 0.0
        while p > 1e-4:
            t, p, q = _rk4_separation(p, q, 0.5, 1e-6, 0.02, 1e-4)
            worst = max(worst, abs(-critical_velocity(p, 0.5) + q - c0))
        assert worst < 1e-8


class TestLevelGaps:
    def test_hand_value_first_gap(self):
        rec = level_time_bound_check(1.0, 0.5, 2)[0]
        # normalized gap between the first two halvings
        assert rec.gap == pytest.approx(0.5 * (2.0 ** -0.5 - 0.5))
        assert rec.bound == pytest.approx(0.25 * math.log(2.0) * 2.0 ** -0.5)
        assert rec.ok

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_all_levels_within_bound(self, alpha):
        records = level_time_bound_check(1.0, alpha, 20)
        assert len(records) == 19
        assert all(r.ok for r in records)

    def test_gaps_shrink_geometrically(self):
        records = level_time_bound_check(1.0, 0.5, 12)
        gaps = [r.gap for r in records]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_nmax_guard(self):
        with pytest.raises(DomainError):
            level_time_bound_check(1.0, 0.5, 1)


class TestFloorCheck:
    def test_reference_case_holds(self):
        res = bounded_weight_floor_check(1.0, -1.0, K=1.0, beta=2.0, t_end=5.0)
        assert res.ok
        assert res.min_ratio >= 1.0 - 1e-6

    def test_faster_approach_also_holds(self):
        res = bounded_weight_floor_check(2.0, -4.0, K=1.0, beta=2.0, t_end=3.0)
        assert res.ok

    def test_resting_pair_rejected(self):
        with pytest.raises(DomainError):
            bounded_weight_floor_check(1.0, 0.0, K=1.0, beta=2.0, t_end=5.0)

    def test_bad_horizon_rejected(self):
        with pytest.raises(DomainError):
            bounded_weight_floor_check(1.0, -1.0, K=1.0, beta=2.0, t_end=0.0)

    @pytest.mark.parametrize(
        "phi0,dphi0,K,beta,t_end",
        [
            (1.0, -1.0, 1.0, 2.0, 2.0),
            (1.0, -1.0, 1.0, 2.0, 5.0),
            (2.0, -4.0, 1.0, 2.0, 3.33),
            (0.3, 2.0, 2.5, 1.5, 1.23),
            (1.0, -3.0, 2.5, 1.5, 2.0),
        ],
    )
    def test_samples_match_solve_ivp(self, phi0, dphi0, K, beta, t_end):
        # the check steps the solver's own RK45 and samples each step's dense
        # output as solve_ivp's t_eval does, so the states agree bit for bit
        from scipy.integrate import solve_ivp

        kernel = CuckerSmaleKernel(K=K, beta=beta)

        def rhs(t, y):
            return [y[1], -2.0 * y[1] * kernel.weight(abs(y[0]))]

        ts, ys = _floor_samples(phi0, dphi0, kernel, t_end)
        ref = solve_ivp(rhs, (0.0, t_end), [phi0, dphi0], method="RK45", t_eval=ts,
                        rtol=1e-11, atol=1e-13, max_step=1e-2)
        assert ref.success
        assert ts.tobytes() == ref.t.tobytes()
        assert ys.tobytes() == ref.y.tobytes()


class TestProblemValidation:
    def test_nonpositive_phi0(self):
        with pytest.raises(DomainError):
            TwoBodyProblem(0.0, -1.0, 0.5)

    def test_nonfinite_rate(self):
        with pytest.raises(DomainError):
            TwoBodyProblem(1.0, math.inf, 0.5)

    def test_bad_alpha(self):
        with pytest.raises(DomainError):
            TwoBodyProblem(1.0, -1.0, 1.0)
