"""Two-body closed-form analysis tests.

The trichotomy values are cross-checked against a fixed-step RK4
integration of the separation equation itself, so the closed forms and
the collide-time rule never vouch for each other, and the collide time
against literals computed once with mpmath.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert out.t_hit == pytest.approx(T_HIT_SUPER, rel=1e-13)

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


# (alpha, phi0, s, t_hit) with s/2P(phi0) about 1e-8, 1e-6, 1e-2, 10 and 1e4.
# t_hit = (phi0/s) * hyp2f1(1, 1/beta, 1 + 1/beta, -2 phi0**beta / (beta s)),
# beta = 1 - alpha, evaluated once by mpmath at 40 digits from these exact
# floats.  Below 2P(phi0), s is a multiple of four spacings of the floats at
# 2P(phi0), so that dphi0 = critical_velocity(phi0, alpha) - s gives classify
# this impact speed exactly.
COLLIDE_TIMES = [
    (0.05, 1e-07, 4.71309714752911e-15, 2.6267112979885967),
    (0.05, 1e-07, 4.713097134823616e-13, 2.1832684441436676),
    (0.05, 1e-07, 4.71309713382814e-09, 0.9004933069566358),
    (0.05, 1e-07, 4.713097133828087e-06, 0.020197455913636954),
    (0.05, 1e-07, 0.004713097133828087, 2.1216382624912133e-05),
    (0.05, 1.0, 2.105263163798554e-08, 5.880474107742917),
    (0.05, 1.0, 2.1052631584694836e-06, 4.887729217058642),
    (0.05, 1.0, 0.021052631578946546, 2.015953401423149),
    (0.05, 1.0, 21.052631578947366, 0.04521647149916121),
    (0.05, 1.0, 21052.631578947367, 4.7497564266344874e-05),
    (0.05, 10.0, 1.8763176967695472e-07, 6.598000477246642),
    (0.05, 10.0, 1.8763177649816498e-05, 5.484122381173977),
    (0.05, 10.0, 0.1876317764492086, 2.2619369194095724),
    (0.05, 10.0, 187.63177644920958, 0.050733715460477634),
    (0.05, 10.0, 187631.77644920957, 5.3293143641232446e-05),
    (0.1, 1e-07, 1.1137493921911656e-14, 0.7795150341512521),
    (0.1, 1e-07, 1.1137494082847916e-12, 0.7004434362489517),
    (0.1, 1e-07, 1.113749408060582e-08, 0.34963912498135874),
    (0.1, 1e-07, 1.1137494080606047e-05, 0.008535938489323325),
    (0.1, 1e-07, 0.011137494080606047, 8.97820788729702e-06),
    (0.1, 1.0, 2.2222222284540294e-08, 3.9068298342474237),
    (0.1, 1.0, 2.222222221348602e-06, 3.5105330813252786),
    (0.1, 1.0, 0.022222222222222143, 1.7523466581726679),
    (0.1, 1.0, 22.22222222222222, 0.042781033978765134),
    (0.1, 1.0, 22222.222222222223, 4.4997631739649494e-05),
    (0.1, 10.0, 1.7651738914992166e-07, 4.918407356404005),
    (0.1, 10.0, 1.7651738545509943e-05, 4.4194993050007865),
    (0.1, 10.0, 0.17651738549427876, 2.2060737382461704),
    (0.1, 10.0, 176.51738549428478, 0.053858130818697156),
    (0.1, 10.0, 176517.3854942848, 5.664866206760052e-05),
    (0.25, 1e-07, 1.4995768976610105e-13, 0.02660470124076399),
    (0.25, 1e-07, 1.4995768671678244e-11, 0.026351660281338604),
    (0.25, 1e-07, 1.4995768671742618e-07, 0.01985802766073785),
    (0.25, 1e-07, 0.0001499576867174264, 0.0006312264033510119),
    (0.25, 1e-07, 0.1499576867174264, 6.668166754444521e-07),
    (0.25, 1.0, 2.666666709671972e-08, 1.4960922952079296),
    (0.25, 1.0, 2.666666667039408e-06, 1.4818627563565128),
    (0.25, 1.0, 0.026666666666667282, 1.11669895904059),
    (0.25, 1.0, 26.666666666666664, 0.035496469215554584),
    (0.25, 1.0, 26666.666666666664, 3.749785729284561e-05),
    (0.25, 10.0, 1.4995768538028642e-07, 2.6604701241441444),
    (0.25, 10.0, 1.4995768673031762e-05, 2.63516602813289),
    (0.25, 10.0, 0.14995768671742837, 1.985802766073782),
    (0.25, 10.0, 149.95768671742644, 0.06312264033510118),
    (0.25, 10.0, 149957.68671742643, 6.66816675444452e-05),
    (0.35, 1e-07, 8.671947708538408e-13, 0.00329441935255996),
    (0.35, 1e-07, 8.671947480855952e-11, 0.003291399488502459),
    (0.35, 1e-07, 8.671947480813668e-07, 0.0028627132961166527),
    (0.35, 1e-07, 0.00086719474808137, 0.00010879083353499154),
    (0.35, 1e-07, 0.86719474808137, 1.1530736325366392e-07),
    (0.35, 1.0, 3.0769230718874496e-08, 0.9284935271693983),
    (0.35, 1.0, 3.07692307721652e-06, 0.927642413836743),
    (0.35, 1.0, 0.03076923076923066, 0.8068222290878976),
    (0.35, 1.0, 30.769230769230766, 0.030661422831305258),
    (0.35, 1.0, 30769.230769230766, 3.2498030444323636e-05),
    (0.35, 10.0, 1.3744110560764966e-07, 2.0786380862976293),
    (0.35, 10.0, 1.374411052523783e-05, 2.076732680889185),
    (0.35, 10.0, 0.13744110527721887, 1.8062499793259037),
    (0.35, 10.0, 137.44110527721944, 0.06864237543102499),
    (0.35, 10.0, 137441.10527721944, 7.275402771754476e-05),
    (0.5, 1e-07, 1.26491109253557e-11, 0.00015811385388276472),
    (0.5, 1e-07, 1.2649110639126326e-09, 0.00015811169858424102),
    (0.5, 1e-07, 1.26491106406737e-05, 0.00015081673675372296),
    (0.5, 1e-07, 0.012649110640673518, 7.415256817494995e-06),
    (0.5, 1e-07, 12.649110640673518, 7.905167143669562e-09),
    (0.5, 1.0, 3.999999975690116e-08, 0.49999990789659676),
    (0.5, 1.0, 4.000000000559112e-06, 0.4999930922442201),
    (0.5, 1.0, 0.03999999999999915, 0.47692439741579407),
    (0.5, 1.0, 40.0, 0.0234491009783757),
    (0.5, 1.0, 40000.0, 2.4998333458323335e-05),
    (0.5, 10.0, 1.264911091425347e-07, 1.5811385388276475),
    (0.5, 10.0, 1.2649110637141803e-05, 1.5811169858424134),
    (0.5, 10.0, 0.126491106406732, 1.5081673675372318),
    (0.5, 10.0, 126.49110640673518, 0.07415256817494996),
    (0.5, 10.0, 126491.10640673518, 7.905167143669562e-05),
    (0.75, 1e-07, 1.422623574498516e-09, 9.372355279253818e-07),
    (0.75, 1e-07, 1.422623527869149e-07, 9.37234136133414e-07),
    (0.75, 1e-07, 0.0014226235280311306, 9.234452031518149e-07),
    (0.75, 1e-07, 1.4226235280311383, 6.510093092729029e-08),
    (0.75, 1e-07, 1422.6235280311384, 7.028704270411932e-11),
    (0.75, 1.0, 7.999999951380232e-08, 0.16666666416666673),
    (0.75, 1.0, 8.000000001118224e-06, 0.1666664166671666),
    (0.75, 1.0, 0.0799999999999983, 0.1642143591064083),
    (0.75, 1.0, 80.0, 0.011576764504236645),
    (0.75, 1.0, 80000.0, 1.249900008332619e-05),
    (0.75, 10.0, 1.4226235123260267e-07, 0.9372355279253825),
    (0.75, 10.0, 1.4226235279579669e-05, 0.9372341361334139),
    (0.75, 10.0, 0.14226235280311528, 0.9234452031518147),
    (0.75, 10.0, 142.26235280311383, 0.06510093092729029),
    (0.75, 10.0, 142262.3528031138, 7.028704270411935e-05),
    (0.9, 1e-07, 3.990524710673071e-08, 2.7843734888273085e-08),
    (0.9, 1e-07, 3.9905246307370135e-06, 2.78437038773488e-08),
    (0.9, 1e-07, 0.039905246299378305, 2.7534031818711574e-08),
    (0.9, 1e-07, 39.90524629937761, 2.297242668128663e-09),
    (0.9, 1e-07, 39905.24629937761, 2.5057083766383125e-12),
    (0.9, 1.0, 2.0000000233721948e-07, 0.05555555493055554),
    (0.9, 1.0, 2.0000000006348273e-05, 0.05555549305562695),
    (0.9, 1.0, 0.20000000000000284, 0.05493761606702927),
    (0.9, 1.0, 200.00000000000003, 0.004583601724055684),
    (0.9, 1.0, 200000.00000000003, 4.999545496208274e-06),
    (0.9, 10.0, 2.5178508167300606e-07, 0.44129345877116044),
    (0.9, 10.0, 2.517850823835488e-05, 0.4412929672811325),
    (0.9, 10.0, 0.2517850823588361, 0.4363849959048369),
    (0.9, 10.0, 251.78508235883345, 0.03640884266148325),
    (0.9, 10.0, 251785.08235883346, 3.971280148426851e-05),
    (0.95, 1e-07, 1.7867343160560267e-07, 5.8913713550984176e-09),
    (0.95, 1e-07, 1.7867343686361892e-05, 5.8913651986218685e-09),
    (0.95, 1e-07, 0.17867343686037884, 5.829836244214702e-09),
    (0.95, 1e-07, 178.67343686038495, 5.110212797624195e-10),
    (0.95, 1e-07, 178673.43686038494, 5.596269868453501e-13),
    (0.95, 1.0, 4.0000000467443897e-07, 0.026315789195906457),
    (0.95, 1.0, 4.0000000012696546e-05, 0.02631576169593586),
    (0.95, 1.0, 0.4000000000000057, 0.026040921952176995),
    (0.95, 1.0, 399.99999999999966, 0.0022826482090985965),
    (0.95, 1.0, 399999.99999999965, 2.499761927487006e-06),
    (0.95, 10.0, 4.4880738414576626e-07, 0.23453971808581514),
    (0.95, 10.0, 4.488073815878124e-05, 0.23453947299206934),
    (0.95, 10.0, 0.4488073817207976, 0.2320899611974539),
    (0.95, 10.0, 448.80738172078503, 0.02034412357788438),
    (0.95, 10.0, 448807.381720785, 2.227915162983814e-05),
]


class TestCollideTime:
    @pytest.mark.parametrize("alpha, phi0, s, t_hit", COLLIDE_TIMES)
    def test_exact_value(self, alpha, phi0, s, t_hit):
        out = classify(TwoBodyProblem(phi0, critical_velocity(phi0, alpha) - s, alpha))
        assert isinstance(out, CollideNonstick)
        assert out.impact_speed == pytest.approx(s, rel=1e-15)
        assert out.t_hit == pytest.approx(t_hit, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.floats(0.05, 0.95),
        log_phi0=st.floats(-7.0, 3.0),
        data=st.data(),
        grow=st.floats(0.1, 10.0),
    )
    def test_bounded_and_falls_with_speed(self, alpha, log_phi0, data, grow):
        # t_hit = int_0^phi0 du / (2P(u) + s) lies below the critical orbit's
        # int_0^phi0 du / 2P(u) and the free flight's phi0/s.  Near critical
        # their gap is about (s/2P(phi0))**(alpha/beta), so s/2P(phi0) starts
        # where that is 1e-8, far above the rule's error.
        phi0 = 10.0**log_phi0
        log_ratio = data.draw(st.floats(max(-8.0, -8.0 * (1.0 - alpha) / alpha), 6.0))
        crit = critical_velocity(phi0, alpha)
        s = -crit * 10.0**log_ratio
        slow = classify(TwoBodyProblem(phi0, crit - s, alpha))
        fast = classify(TwoBodyProblem(phi0, crit - s * (1.0 + grow), alpha))
        assert fast.t_hit < slow.t_hit < min(stick_time(phi0, alpha), phi0 / slow.impact_speed)


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
