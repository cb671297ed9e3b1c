"""Weight kernel unit tests.

Closed-form values are asserted exactly where the arithmetic is exact in
float64 (powers of two), and to tight tolerances otherwise.  Monotonicity
and the derivative relation between the singular weight and its
antiderivative are checked as properties.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flocksim import (
    CuckerSmaleKernel,
    DomainError,
    RegularizedKernel,
    SingularKernel,
    critical_velocity,
    eval_weight,
)


def _primitive(s, alpha):
    """The singular weight's antiderivative P, from the critical rate -2 P(s)."""
    return -0.5 * critical_velocity(s, alpha)


class TestSingular:
    def test_known_values(self):
        k = SingularKernel(alpha=0.5)
        assert eval_weight(k, 4.0) == 0.5
        assert eval_weight(k, 0.25) == 2.0
        assert eval_weight(k, 1.0) == 1.0
        assert eval_weight(SingularKernel(alpha=0.25), 16.0) == 0.5

    def test_zero_separation_is_zero(self):
        # the convention that makes coincident particles exert no force
        assert eval_weight(SingularKernel(alpha=0.5), 0.0) == 0.0

    def test_array_evaluation(self):
        k = SingularKernel(alpha=0.5)
        s = np.array([0.0, 0.25, 1.0, 4.0])
        np.testing.assert_array_equal(eval_weight(k, s), [0.0, 2.0, 1.0, 0.5])

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.5, float("nan")])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(DomainError):
            SingularKernel(alpha=alpha)

    def test_negative_separation_rejected(self):
        with pytest.raises(DomainError):
            eval_weight(SingularKernel(alpha=0.5), -1.0)

    def test_nonfinite_separation_rejected(self):
        with pytest.raises(DomainError):
            eval_weight(SingularKernel(alpha=0.5), float("nan"))

    @given(
        alpha=st.floats(0.05, 0.95),
        a=st.floats(1e-6, 1e6),
        b=st.floats(1e-6, 1e6),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_decreasing(self, alpha, a, b):
        k = SingularKernel(alpha=alpha)
        lo, hi = min(a, b), max(a, b)
        assert eval_weight(k, lo) >= eval_weight(k, hi)


class TestRegularized:
    def test_branch_endpoints(self):
        k = RegularizedKernel(alpha=0.5, n=10)
        assert k.cap_end == pytest.approx(0.01)
        assert k.bridge_end == pytest.approx(1.0 / 81.0)

    def test_constant_branch(self):
        k = RegularizedKernel(alpha=0.5, n=10)
        assert eval_weight(k, 0.0) == 10.0
        assert eval_weight(k, 0.005) == 10.0
        assert eval_weight(k, k.cap_end) == 10.0

    def test_agrees_with_singular_beyond_bridge(self):
        # bitwise agreement: both branches evaluate the same power expression
        k = RegularizedKernel(alpha=0.5, n=10)
        raw = SingularKernel(alpha=0.5)
        s = np.linspace(k.bridge_end, 3.0, 117)
        np.testing.assert_array_equal(eval_weight(k, s), eval_weight(raw, s))

    def test_bridge_between_branch_values(self):
        k = RegularizedKernel(alpha=0.25, n=7)
        s = np.linspace(k.cap_end, k.bridge_end, 301)
        w = eval_weight(k, s)
        assert np.all(w <= 7.0 + 1e-12)
        assert np.all(w >= k.bridge_end ** -0.25 - 1e-12)

    @pytest.mark.parametrize("alpha,n", [(0.25, 3), (0.5, 10), (0.75, 50)])
    def test_monotone_across_bridge(self, alpha, n):
        k = RegularizedKernel(alpha=alpha, n=n)
        s = np.linspace(0.5 * k.cap_end, 2.0 * k.bridge_end, 2001)
        w = eval_weight(k, s)
        assert np.all(np.diff(w) <= 1e-12 * n)

    def test_c1_join_at_bridge_ends(self):
        k = RegularizedKernel(alpha=0.5, n=10)
        h = 1e-9 * k.cap_end
        left_slope = (eval_weight(k, k.cap_end + h) - eval_weight(k, k.cap_end - h)) / (2 * h)
        assert abs(left_slope) < 1e-3 * 10 / k.cap_end
        hi = k.bridge_end
        h = 1e-9 * hi
        right_slope = (eval_weight(k, hi + h) - eval_weight(k, hi - h)) / (2 * h)
        expected = -0.5 * hi ** -1.5
        assert right_slope == pytest.approx(expected, rel=1e-5)

    @pytest.mark.parametrize("n", [1, 0, -2, 2.5])
    def test_bad_cap_index(self, n):
        with pytest.raises(DomainError):
            RegularizedKernel(alpha=0.5, n=n)

    def test_cap_index_two_allowed(self):
        k = RegularizedKernel(alpha=0.5, n=2)
        assert eval_weight(k, 0.0) == 2.0
        assert eval_weight(k, 4.0) == 0.5


def _three_branch_weight(k, s):
    """RegularizedKernel.weight as three masked branches, without the
    all-power fast path."""
    a, lo, hi = k.alpha, k.cap_end, k.bridge_end
    out = np.empty_like(s, dtype=float)
    cap = s <= lo
    power = s >= hi
    mid = ~(cap | power)
    out[cap] = float(k.n)
    out[power] = s[power] ** (-a)
    if np.any(mid):
        h = hi - lo
        u = (s[mid] - lo) / h
        u2 = u * u
        u3 = u2 * u
        v1 = hi ** (-a)
        m1 = -a * hi ** (-a - 1.0)
        h00 = 2.0 * u3 - 3.0 * u2 + 1.0
        h01 = -2.0 * u3 + 3.0 * u2
        h11 = u3 - u2
        out[mid] = h00 * float(k.n) + h01 * v1 + h11 * h * m1
    return out


class TestRegularizedFastPath:
    @given(
        alpha=st.floats(0.05, 0.95),
        n=st.sampled_from([2, 10, 10**6]),
        ratios=st.lists(st.floats(0.0, 4.0), max_size=40),
        beyond=st.booleans(),
        ends=st.booleans(),
        zero_d=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_three_branches(self, alpha, n, ratios, beyond, ends, zero_d):
        # separations wholly beyond the bridge take the fast path; ones
        # spanning cap, bridge and power (with both branch ends) do not
        k = RegularizedKernel(alpha=alpha, n=n)
        r = np.array(ratios)
        if beyond:
            s = k.bridge_end * (1.0 + r)
        else:
            s = k.bridge_end * r
            if ends:
                s = np.concatenate([s, [k.cap_end, k.bridge_end]])
        if zero_d:
            s = np.array(s[0] if s.size else k.bridge_end)
        out = k.weight(s)
        ref = _three_branch_weight(k, s)
        assert isinstance(out, np.ndarray)
        assert (out.shape, out.dtype) == (ref.shape, ref.dtype)
        assert out.tobytes() == ref.tobytes()

    def test_nan_and_empty_fall_through(self):
        k = RegularizedKernel(alpha=0.5, n=10)
        for s in (np.array([np.nan, 1.0, 2.0]), np.array([]), np.array(np.nan)):
            out = k.weight(s)
            assert out.shape == s.shape
            assert out.tobytes() == _three_branch_weight(k, s).tobytes()


class TestCuckerSmale:
    def test_known_values(self):
        k = CuckerSmaleKernel(K=1.0, beta=2.0)
        assert eval_weight(k, 0.0) == 1.0
        assert eval_weight(k, 1.0) == 0.5
        assert eval_weight(k, 3.0) == 0.1

    def test_scale_factor(self):
        assert eval_weight(CuckerSmaleKernel(K=4.0, beta=2.0), 1.0) == 2.0

    def test_beta_zero_is_constant(self):
        k = CuckerSmaleKernel(K=2.5, beta=0.0)
        s = np.array([0.0, 1.0, 100.0])
        np.testing.assert_array_equal(eval_weight(k, s), 2.5)

    def test_bounded_by_k(self):
        k = CuckerSmaleKernel(K=3.0, beta=1.5)
        s = np.linspace(0.0, 50.0, 501)
        w = eval_weight(k, s)
        assert np.all(w <= 3.0)
        assert np.all(w > 0.0)

    @pytest.mark.parametrize("K,beta", [(0.0, 2.0), (-1.0, 2.0), (1.0, -0.5)])
    def test_bad_parameters(self, K, beta):
        with pytest.raises(DomainError):
            CuckerSmaleKernel(K=K, beta=beta)


class TestPrimitive:
    def test_known_values(self):
        assert _primitive(1.0, 0.75) == 4.0
        assert _primitive(16.0, 0.75) == 8.0
        assert _primitive(16.0, 0.25) == pytest.approx(32.0 / 3.0)

    def test_zero(self):
        # P vanishes at contact: a pair starting in contact needs no approach
        assert _primitive(1e-300, 0.5) == pytest.approx(0.0, abs=1e-149)

    @given(alpha=st.floats(0.1, 0.9), s=st.floats(0.01, 100.0))
    @settings(max_examples=50, deadline=None)
    def test_derivative_matches_weight(self, alpha, s):
        k = SingularKernel(alpha=alpha)
        h = 1e-6 * s
        slope = (_primitive(s + h, alpha) - _primitive(s - h, alpha)) / (2 * h)
        assert slope == pytest.approx(eval_weight(k, s), rel=1e-7)

    def test_strictly_increasing(self):
        s = np.linspace(0.0, 5.0, 400)[1:]
        assert np.all(np.diff([_primitive(si, 0.75) for si in s]) > 0.0)


class TestEvalGuards:
    def test_eval_weight_rejects_non_kernel(self):
        with pytest.raises(DomainError):
            eval_weight(object(), 1.0)

    def test_scalar_in_scalar_out(self):
        out = eval_weight(SingularKernel(alpha=0.5), 4.0)
        assert isinstance(out, float)

    def test_array_in_array_out(self):
        out = eval_weight(SingularKernel(alpha=0.5), np.array([1.0, 4.0]))
        assert isinstance(out, np.ndarray)
