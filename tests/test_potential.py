"""Closed forms of the logarithmic potential and the endpoint growth checks."""

import math

import mpmath as mp
import numpy as np
import pytest

from nlch import (
    PotentialDomainError,
    PotentialParams,
    check_endpoint_asymptotics,
    derivative,
    inverse_derivative,
    second_derivative,
    value,
)

mp.mp.dps = 40


@pytest.fixture
def p1():
    return PotentialParams(1.0, 2.0)


def mp_value(alpha_bar, s):
    s = mp.mpf(s)
    return alpha_bar / 2 * ((1 + s) * mp.log(1 + s) + (1 - s) * mp.log(1 - s))


class TestParams:
    def test_rejects_bad_ordering(self):
        with pytest.raises(ValueError, match="alpha_bar < alpha0"):
            PotentialParams(2.0, 1.0)
        with pytest.raises(ValueError, match="alpha_bar < alpha0"):
            PotentialParams(-1.0, 1.0)


class TestValue:
    def test_zero_at_origin(self, p1):
        assert value(p1, 0.0) == 0.0

    def test_endpoints_by_continuity(self, p1):
        assert value(p1, 1.0) == pytest.approx(math.log(2.0), rel=1e-15)
        assert value(p1, -1.0) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_half_against_high_precision(self):
        p = PotentialParams(2.0, 3.0)
        oracle = float(mp_value(2, "0.5"))
        assert value(p, 0.5) == pytest.approx(oracle, rel=1e-15)

    def test_nonnegative_on_domain(self, p1):
        s = np.linspace(-1.0, 1.0, 1001)
        assert np.all(value(p1, s) >= 0.0)

    def test_rejects_outside(self, p1):
        with pytest.raises(PotentialDomainError):
            value(p1, 1.0000001)
        with pytest.raises(PotentialDomainError):
            value(p1, np.array([0.0, -1.2]))


class TestDerivatives:
    def test_values_at_origin(self, p1):
        assert derivative(p1, 0.0) == 0.0
        assert second_derivative(p1, 0.0) == 1.0

    def test_closed_form_near_endpoint(self, p1):
        delta = 0.1
        assert second_derivative(p1, 1 - 2 * delta) == pytest.approx(
            1.0 / (4 * delta * (1 - delta)), rel=1e-14
        )
        assert derivative(p1, 1 - 2 * delta) == pytest.approx(
            0.5 * math.log((1 - delta) / delta), rel=1e-14
        )

    @pytest.mark.parametrize("s", [1.0, -1.0, 1.0 - 1e-16, 2.0])
    def test_rejects_at_or_beyond_endpoints(self, p1, s):
        with pytest.raises(PotentialDomainError, match="separation"):
            derivative(p1, s)
        with pytest.raises(PotentialDomainError, match="separation"):
            second_derivative(p1, s)

    def test_accepts_down_to_floor(self, p1):
        # 1 - 1e-15 itself rounds to a gap of 9.99e-16, just under the floor;
        # the closest admissible point sits one ulp further in
        s = 1.0 - 2e-15
        assert 1.0 - s >= 1e-15
        assert np.isfinite(derivative(p1, s))
        assert np.isfinite(second_derivative(p1, s))

    def test_convexity_lower_bound(self, p1):
        s = np.linspace(-1 + 1e-6, 1 - 1e-6, 1000)
        assert np.all(second_derivative(p1, s) >= p1.alpha_bar)

    def test_monotone_tail(self, p1):
        s = np.linspace(0.9, 1 - 1e-9, 500)
        f2 = second_derivative(p1, s)
        assert np.all(np.diff(f2) >= 0.0)

    @pytest.mark.parametrize("s", [0.0, 0.5, -0.5, 0.99, -0.99])
    def test_centered_difference_consistency(self, p1, s):
        errs = []
        for h in (1e-3, 5e-4, 2.5e-4):
            fd = (value(p1, s + h) - value(p1, s - h)) / (2 * h)
            errs.append(abs(fd - derivative(p1, s)))
        if s == 0.0:
            # odd error term vanishes at the symmetric point
            assert all(e <= 1e-12 for e in errs)
        else:
            order = math.log2(errs[0] / errs[1])
            assert 1.9 <= order <= 2.3

    def test_parity(self, p1):
        s = np.linspace(-0.999999, 0.999999, 101)
        d_pos, d_neg = derivative(p1, s), derivative(p1, -s)
        assert np.all(np.abs(d_neg + d_pos) <= 1e-15 * (1 + np.abs(d_pos)))
        assert np.all(second_derivative(p1, s) == second_derivative(p1, -s))


class TestDerivativeOracle:
    """F' = a*artanh(s) against a 40-digit evaluation at the same float s."""

    @staticmethod
    def assert_matches_oracle(p, s):
        got = derivative(p, s)
        for si, gi in zip(s, got):
            oracle = float(p.alpha_bar * mp.atanh(mp.mpf(float(si))))
            assert abs(gi - oracle) <= 1e-14 * abs(oracle), (si, gi, oracle)

    def test_near_the_pure_phases(self):
        p = PotentialParams(1.7, 2.0)
        # 1 - s from the separation floor (one ulp in from 1e-15) up to 1e-1
        gaps = np.concatenate(([2e-15], np.logspace(-14, -1, 40)))
        s = 1.0 - gaps
        assert np.all(1.0 - s >= 1e-15)
        self.assert_matches_oracle(p, s)
        self.assert_matches_oracle(p, -s)

    def test_bulk(self):
        p = PotentialParams(1.7, 2.0)
        s = np.concatenate((np.linspace(-0.9, 0.9, 37), [1e-300, -1e-8, 3e-5]))
        self.assert_matches_oracle(p, s)


class TestDerivativeOut:
    def test_out_matches_fresh_evaluation_bitwise(self, p1):
        s = np.random.default_rng(5).uniform(-1.0, 1.0, (16, 16)) * (1.0 - 1e-9)
        s[0, 0], s[0, 1] = 1.0 - 1e-14, -(1.0 - 1e-14)
        buf = np.empty_like(s)
        got = derivative(p1, s, out=buf)
        assert got is buf
        assert np.array_equal(buf, derivative(p1, s))

    def test_scalar_and_zero_d_inputs_return_floats(self, p1):
        for s in (0.3, np.float64(-0.7), np.array(0.5)):
            got = derivative(p1, s)
            assert type(got) is float
            assert got == derivative(p1, np.array([float(s)]))[0]

    @pytest.mark.parametrize("bad", [1.0, -1.0, 1.5, 1.0 - 1e-16, -(1.0 - 5e-16)])
    def test_domain_errors_with_out(self, p1, bad):
        s = np.zeros(8)
        s[3] = bad
        with pytest.raises(PotentialDomainError):
            derivative(p1, s, out=np.empty_like(s))
        with pytest.raises(PotentialDomainError):
            derivative(p1, bad)


def bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def two_where_value(p, s):
    """F as written before the in-place rewrite: two np.where pairs and a copy
    per term.  The reference for the bit-for-bit contract of value."""
    arr = np.asarray(s, dtype=np.float64)
    out = np.zeros_like(arr)
    for x in (1.0 + arr, 1.0 - arr):
        mask = x > 0.0
        out = out + np.where(mask, x * np.log(np.where(mask, x, 1.0)), 0.0)
    out *= 0.5 * p.alpha_bar
    return out


EDGE_POINTS = [
    1.0, -1.0, 0.0, -0.0,
    1.0 - 1e-15, -(1.0 - 1e-15), 1.0 - 2.0**-52, -(1.0 - 2.0**-52),
]


class TestValueBitwise:
    @pytest.mark.parametrize("alpha_bar", [1.0, 1.7])
    def test_arrays_match_the_two_where_expression(self, alpha_bar):
        p = PotentialParams(alpha_bar, 2.0)
        rng = np.random.default_rng(3)
        s = np.concatenate((EDGE_POINTS, rng.uniform(-1.0, 1.0, 392)))
        assert bits(value(p, s)) == bits(two_where_value(p, s))
        s2 = s.reshape(20, 20)
        assert bits(value(p, s2)) == bits(two_where_value(p, s2))
        assert bits(value(p, s2.T)) == bits(two_where_value(p, s2.T))  # strided

    @pytest.mark.parametrize("s", EDGE_POINTS + [0.5, -0.25, 1e-300])
    def test_scalars_return_floats_with_the_same_bits(self, s):
        p = PotentialParams(1.7, 2.0)
        expected = bits(two_where_value(p, np.array([s]))[0])
        for arg in (s, np.array(s)):
            got = value(p, arg)
            assert type(got) is float
            assert bits(got) == expected


class TestSecondDerivativeScalarPath:
    @pytest.mark.parametrize(
        "s", [0.0, -0.0, 0.3, -0.7, 1e-300, 1.0 - 1e-9, 1.0 - 2e-15, -(1.0 - 2e-15)]
    )
    def test_float_matches_zero_d_bitwise(self, s):
        p = PotentialParams(1.7, 2.0)
        got = second_derivative(p, s)
        assert type(got) is float
        assert bits(got) == bits(second_derivative(p, np.array(s)))

    def test_random_floats_match_zero_d_bitwise(self, p1):
        for s in np.random.default_rng(9).uniform(-1.0, 1.0, 200).tolist():
            assert bits(second_derivative(p1, s)) == bits(second_derivative(p1, np.array(s)))

    @pytest.mark.parametrize("bad", [1.0, -1.0, 1.0 - 5e-16, -(1.0 - 5e-16)])
    def test_raises_at_the_same_arguments(self, p1, bad):
        for arg in (bad, np.array(bad)):
            with pytest.raises(PotentialDomainError, match="separation"):
                second_derivative(p1, arg)


class TestNaNArgument:
    """A NaN fails every domain check instead of passing as zero energy or
    propagating as a NaN derivative."""

    @pytest.mark.parametrize("fn", [value, derivative, second_derivative])
    def test_nan_scalar(self, p1, fn):
        with pytest.raises(PotentialDomainError):
            fn(p1, float("nan"))

    @pytest.mark.parametrize("fn", [value, derivative, second_derivative])
    def test_array_holding_nan(self, p1, fn):
        with pytest.raises(PotentialDomainError):
            fn(p1, np.array([0.1, np.nan, -0.3]))


class TestInverseDerivative:
    def test_origin(self, p1):
        assert inverse_derivative(p1, 0.0) == 0.0

    @pytest.mark.parametrize("s", [0.9, -0.9, 0.5, -0.5, 0.1])
    def test_roundtrip(self, p1, s):
        assert inverse_derivative(p1, derivative(p1, s)) == pytest.approx(s, abs=1e-13)

    def test_known_point_with_bisection_oracle(self, p1):
        w = 0.5 * math.log(0.9 / 0.1)  # derivative at s = 0.8
        lo, hi = -1 + 1e-12, 1 - 1e-12
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if derivative(p1, mid) < w:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        got = inverse_derivative(p1, w)
        assert got == pytest.approx(0.8, abs=1e-12)
        assert got == pytest.approx(oracle, abs=1e-12)

    def test_range_is_open_interval(self, p1):
        assert abs(inverse_derivative(p1, 1e6)) < 1.0


class TestEndpointAsymptotics:
    def test_limits_at_small_delta(self, p1):
        rep = check_endpoint_asymptotics(p1, [1e-2, 1e-8])
        assert rep.curvature_scaled[-1] == pytest.approx(0.25, abs=1e-7)
        assert rep.slope_scaled[-1] == pytest.approx(0.5, abs=1e-7)
        assert rep.curvature_converged and rep.slope_converged

    def test_mirror_agreement(self, p1):
        rep = check_endpoint_asymptotics(p1, [1e-3, 1e-8])
        for a, b in zip(rep.curvature_scaled, rep.curvature_scaled_mirror):
            assert abs(a - b) <= 1e-12 * abs(a)
        for a, b in zip(rep.slope_scaled, rep.slope_scaled_mirror):
            assert abs(a - b) <= 1e-12 * abs(a)

    def test_scales_with_alpha(self):
        p = PotentialParams(3.0, 4.0)
        rep = check_endpoint_asymptotics(p, [1e-8])
        assert rep.curvature_scaled[0] == pytest.approx(0.75, rel=1e-6)
        assert rep.slope_scaled[0] == pytest.approx(1.5, rel=1e-6)

    def test_rejects_bad_deltas(self, p1):
        with pytest.raises(ValueError):
            check_endpoint_asymptotics(p1, [0.2])
        with pytest.raises(ValueError):
            check_endpoint_asymptotics(p1, [])

    @pytest.mark.parametrize("delta", [1e-16, 5e-16, float("nan")])
    def test_rejects_deltas_within_the_floor(self, p1, delta):
        # 1 - (1 - 2 delta) rounds below SEPARATION_FLOOR (1e-15): the ratios
        # cannot be evaluated, and that is a bad argument, not a lost separation
        with pytest.raises(ValueError, match="deltas") as info:
            check_endpoint_asymptotics(p1, [1e-2, delta])
        assert not isinstance(info.value, PotentialDomainError)

    def test_smallest_delta_above_the_floor_is_evaluated(self, p1):
        rep = check_endpoint_asymptotics(p1, [6e-16])
        assert math.isfinite(rep.curvature_scaled[0])
