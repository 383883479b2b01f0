"""Geometric-decay lemma, truncation levels, level-set measures, and the
closed-form scheme constants."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from nlch import (
    DeGiorgiParams,
    Field,
    Grid,
    admissible_window_length,
    estimate_c_tau,
    geometric_decay_bound,
    level_sequence,
    level_set_measures,
    recursion_coefficient,
    verify_scheme_on_trajectory,
)
from nlch import PotentialParams
from nlch.degiorgi import RECURSION_BASE, RECURSION_EPS

mp.mp.dps = 50


def random_params(rng) -> DeGiorgiParams:
    return DeGiorgiParams(
        delta=float(rng.uniform(0.01, 0.24)),
        alpha_bar=float(rng.uniform(0.5, 3.0)),
        grad_j_l1=float(rng.uniform(0.2, 8.0)),
        c_hat=float(rng.uniform(0.1, 5.0)),
        c_p=float(rng.uniform(0.1, 5.0)),
        c_tau=float(rng.uniform(0.1, 10.0)),
    )


class TestGeometricDecayBound:
    def test_zero_start_stays_zero(self):
        rep = geometric_decay_bound(2.0, 3.0, 0.5, 0.0, 10)
        assert rep.threshold_ok
        assert all(y == 0.0 for y in rep.iterates)

    def test_unit_case_saturates_bound(self):
        rep = geometric_decay_bound(1.0, 2.0, 1.0, 0.5, 30)
        assert rep.theta == 0.5
        assert rep.threshold_ok and rep.holds
        # starting exactly at theta the equality iteration traces the bound
        for n, (y, bound) in enumerate(zip(rep.iterates, rep.bounds)):
            assert y == bound == 0.5 * 2.0**-n
        assert rep.iterates[1] == 0.25

    def test_randomized_sweep_no_violations(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            c = float(np.exp(rng.uniform(-2, 2)))
            b = float(1.0 + np.exp(rng.uniform(-1, 2)))
            eps = float(rng.uniform(0.25, 2.0))
            theta = c ** (-1 / eps) * b ** (-1 / eps**2)
            y0 = theta * float(rng.uniform(0, 1))
            rep = geometric_decay_bound(c, b, eps, y0, 50)
            assert rep.threshold_ok and rep.holds
            for y, bound in zip(rep.iterates, rep.bounds):
                assert y <= bound

    def test_threshold_exceeded_reported(self):
        rep = geometric_decay_bound(1.0, 2.0, 1.0, 0.5000001, 10)
        assert not rep.threshold_ok
        assert rep.bounds is None and rep.iterates is None

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            geometric_decay_bound(0.0, 2.0, 1.0, 0.1, 5)
        with pytest.raises(ValueError):
            geometric_decay_bound(1.0, 1.0, 1.0, 0.1, 5)
        with pytest.raises(ValueError):
            geometric_decay_bound(1.0, 2.0, -1.0, 0.1, 5)

    def test_rejects_nan_start(self):
        with pytest.raises(ValueError, match="y0"):
            geometric_decay_bound(1.0, 2.0, 1.0, float("nan"), 5)


class TestLevelSequence:
    def test_first_levels_delta_tenth(self):
        k = level_sequence(0.1, 5)
        assert k[0] == pytest.approx(0.8, abs=1e-15)
        assert k[1] == pytest.approx(0.85, abs=1e-15)
        assert k[-1] < 0.9

    def test_distance_to_limit_exact_algebra(self):
        delta = 0.07
        k = level_sequence(delta, 20)
        d = Fraction(delta)
        for n in range(21):
            exact = float(-(d / 2**n))
            assert abs((k[n] - (1.0 - delta)) - exact) <= 1e-15

    def test_monotone_without_float_violation_to_sixty(self):
        k = level_sequence(0.1, 60)  # exact-arithmetic verification inside
        assert np.all(np.diff(k) >= 0.0)
        assert k[-1] <= 0.9

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            level_sequence(0.0, 5)
        with pytest.raises(ValueError):
            level_sequence(0.5, 5)


def make_snapshots(grid, values_by_time):
    return [(t, Field(grid, np.full(grid.shape, v))) for t, v in values_by_time]


class TestLevelSetMeasures:
    def test_all_zero_below_first_level(self):
        grid = Grid(1, 16, 2.0)
        delta = 0.1
        snaps = make_snapshots(grid, [(i * 0.1, 0.5) for i in range(31)])
        meas = level_set_measures(snaps, delta, 6)
        assert np.all(meas.y == 0.0)

    def test_boundary_level_counted_in(self):
        # constant field exactly at k_2: superlevel sets are the whole box for
        # n <= 2 and empty above (A_n uses phi - k_n >= 0)
        grid = Grid(1, 16, 2.0)
        delta = 0.1
        levels = level_sequence(delta, 6)
        snaps = make_snapshots(grid, [(i * 0.05, levels[2]) for i in range(61)])
        meas = level_set_measures(snaps, delta, 6)
        assert np.all(meas.y[: 3] > 0.0)
        assert np.all(meas.y[3:] == 0.0)

    def test_time_window_nesting_shrinks_measures(self):
        # field exceeds the levels only early on: later intervals I_n miss it
        grid = Grid(1, 16, 2.0)
        series = [(i * 0.1, 0.95 if i * 0.1 < 1.0 else 0.0) for i in range(31)]
        meas = level_set_measures(make_snapshots(grid, series), 0.1, 4)
        assert meas.y[0] > 0.0
        assert meas.y[1] == 0.0  # I_1 starts at T - W + W/3 = 1.0

    def test_nonincreasing_on_random_trajectory(self):
        grid = Grid(1, 32, 2.0)
        rng = np.random.default_rng(21)
        snaps = [
            (0.2 * i, Field(grid, 0.97 * rng.uniform(-1, 1, grid.shape)))
            for i in range(40)
        ]
        meas = level_set_measures(snaps, 0.2, 6)
        assert np.all(np.diff(meas.y) <= 1e-15)

    def test_stride_cap_reported(self):
        grid = Grid(1, 16, 2.0)
        snaps = make_snapshots(grid, [(i * 0.5, 0.0) for i in range(7)])  # W=3, tau=1
        meas = level_set_measures(snaps, 0.1, 10)
        assert meas.n_cap == 1  # floor(log2(1/0.5))
        assert meas.n_used == 1

    def test_rejects_bad_snapshots(self):
        grid = Grid(1, 16, 2.0)
        with pytest.raises(ValueError, match="at least two"):
            level_set_measures(make_snapshots(grid, [(0.0, 0.1)]), 0.1, 4)
        bad = make_snapshots(grid, [(0.0, 0.1), (0.1, 0.1), (0.35, 0.1)])
        with pytest.raises(ValueError, match="uniformly strided"):
            level_set_measures(bad, 0.1, 4)
        nan_time = make_snapshots(grid, [(0.0, 0.1), (float("nan"), 0.1), (0.2, 0.1)])
        with pytest.raises(ValueError, match="uniformly strided"):
            level_set_measures(nan_time, 0.1, 4)


class TestClosedFormConstants:
    def test_window_length_homogeneous_in_c_tau(self):
        rng = np.random.default_rng(7)
        params = random_params(rng)
        doubled = DeGiorgiParams(
            delta=params.delta, alpha_bar=params.alpha_bar,
            grad_j_l1=params.grad_j_l1, c_hat=params.c_hat,
            c_p=params.c_p, c_tau=2.0 * params.c_tau,
        )
        assert admissible_window_length(doubled) == admissible_window_length(params) / 2.0

    def test_window_length_all_ones_against_mpmath(self):
        params = DeGiorgiParams(
            delta=0.05, alpha_bar=1.0, grad_j_l1=1.0, c_hat=1.0, c_p=1.0, c_tau=1.0
        )
        d = mp.mpf("0.05")
        fpp = 1 / (4 * d * (1 - d))
        fp = mp.log((1 - d) / d) / 2
        oracle = mp.mpf(2) ** -20 * d**5 * fpp**4 * fp / (3 * mp.mpf(2) ** mp.mpf("1.5"))
        assert admissible_window_length(params) == pytest.approx(
            float(oracle), rel=1e-13
        )

    def test_window_length_vanishes_like_delta_log_delta(self):
        # with alpha_bar = 1: delta^5 F''^4 F' ~ delta |ln delta| * const
        def scaled(delta):
            params = DeGiorgiParams(
                delta=delta, alpha_bar=1.0, grad_j_l1=1.0, c_hat=1.0, c_p=1.0, c_tau=1.0
            )
            return admissible_window_length(params) / (delta * abs(math.log(delta)))

        a, b = scaled(1e-6), scaled(1e-8)
        assert abs(a / b - 1.0) <= 0.05

    def test_recursion_exponents_fixed(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            coeff = recursion_coefficient(random_params(rng))
            assert coeff.b == RECURSION_BASE == 2.0**4.5
            assert coeff.eps == RECURSION_EPS == 0.6

    def test_threshold_consistent_with_lemma_theta(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            params = random_params(rng)
            coeff = recursion_coefficient(params)
            theta = coeff.c_rec ** (-1.0 / coeff.eps) * coeff.b ** (
                -1.0 / coeff.eps**2
            )
            assert abs(coeff.threshold - theta) <= 1e-12 * theta

    def test_window_and_threshold_consistent(self):
        # y0 bound 3 c_tau tau / F'(1-2d) lands exactly on the threshold
        rng = np.random.default_rng(10)
        for _ in range(20):
            params = random_params(rng)
            tau = admissible_window_length(params)
            bound = 3.0 * params.c_tau * tau / params.slope_at_level()
            assert abs(bound - recursion_coefficient(params).threshold) <= (
                1e-12 * recursion_coefficient(params).threshold
            )

    def test_coefficient_scaling_in_delta(self):
        # with alpha_bar = 1, F''(1-2d)^{-12/5} ~ (4 delta)^{12/5}, so
        # C_rec ~ delta^{-3 + 12/5} = delta^{-3/5}
        def c_of(delta):
            return recursion_coefficient(
                DeGiorgiParams(
                    delta=delta, alpha_bar=1.0, grad_j_l1=1.0,
                    c_hat=1.0, c_p=1.0, c_tau=1.0,
                )
            ).c_rec

        slope = math.log(c_of(1e-6) / c_of(1e-4)) / math.log(1e-6 / 1e-4)
        assert abs(slope - (-0.6)) <= 0.05

    def test_rejects_invalid_params(self):
        with pytest.raises(ValueError, match="delta"):
            DeGiorgiParams(delta=0.3, alpha_bar=1.0, grad_j_l1=1.0,
                           c_hat=1.0, c_p=1.0, c_tau=1.0)
        with pytest.raises(ValueError, match="positive"):
            DeGiorgiParams(delta=0.1, alpha_bar=-1.0, grad_j_l1=1.0,
                           c_hat=1.0, c_p=1.0, c_tau=1.0)


class TestEstimateCTau:
    def test_constant_trajectory(self):
        grid = Grid(1, 16, 2.0)
        p = PotentialParams(1.0, 2.0)
        snaps = make_snapshots(grid, [(0.0, 0.5), (0.1, 0.5)])
        from nlch import derivative

        expected = abs(derivative(p, 0.5)) * grid.volume
        assert estimate_c_tau(snaps, p) == pytest.approx(expected, rel=1e-12)


class TestTrajectoryVerification:
    def test_separated_trajectory_consistent(self, canonical_run):
        tail = [(t, f) for t, f in canonical_run.snapshots if t >= 4.5 - 1e-9]
        phimax = max(float(np.max(np.abs(f.values))) for _, f in tail)
        delta = 0.75 * (1.0 - phimax)
        params = DeGiorgiParams(
            delta=delta, alpha_bar=1.0,
            grad_j_l1=canonical_run.kernel.grad_j_l1,
            c_hat=0.25, c_p=0.5, c_tau=5.5,
        )
        check = verify_scheme_on_trajectory(tail, params, n_max=8)
        for side in (check.upper, check.lower):
            assert np.all(np.diff(side.measures.y) <= 1e-15)
            assert side.separated
            assert side.superlevel_measure == 0.0
        # levels above the trajectory max have empty superlevel sets
        above = check.upper.measures.levels > phimax
        assert np.any(above)
        assert np.all(check.upper.measures.y[above] == 0.0)

    def test_threshold_exceeded_flagged_not_asserted(self):
        # synthetic family built to have y0 above the admissible threshold
        grid = Grid(1, 16, 2.0)
        snaps = make_snapshots(grid, [(0.1 * i, 0.93) for i in range(31)])
        params = DeGiorgiParams(
            delta=0.1, alpha_bar=1.0, grad_j_l1=1.0, c_hat=1.0, c_p=1.0, c_tau=1.0
        )
        check = verify_scheme_on_trajectory(snaps, params, n_max=4)
        assert not check.upper.threshold_ok
        assert check.upper.bounds is None
        assert not check.upper.separated  # 0.93 >= 1 - delta = 0.9
        # the mirrored side sees -0.93, far below every level
        assert check.lower.separated
        assert np.all(check.lower.measures.y == 0.0)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_measures_nonincreasing_across_seeds(self, seed):
        from nlch import InitialData, StepperConfig, build_kernel, init_state, run
        from conftest import gaussian_amplitude

        grid = Grid(1, 64, 4.0)
        kernel = build_kernel(
            "gaussian", grid, amplitude=gaussian_amplitude(2.0, 0.3, 1), width=0.3
        )
        p = PotentialParams(1.0, 2.0)
        cfg = StepperConfig(dt=3e-3, dt_min=1e-7, inner_tol=1e-10, inner_max_iters=300)
        state = init_state(
            grid, kernel, p,
            InitialData(mode="constant", m=0.0, noise_amplitude=0.05, seed=seed),
        )
        snaps = []
        run(
            state, 2.0, cfg, kernel, p, diag_stride=10**9,
            snapshot_stride=5, on_snapshot=lambda st: snaps.append((st.t, st.phi)),
        )
        window = [(t, f) for t, f in snaps if t >= 1.4 - 1e-9]
        for side in (window, [(t, Field(f.grid, -f.values)) for t, f in window]):
            meas = level_set_measures(side, 0.05, 6)
            assert np.all(np.diff(meas.y) <= 1e-15)
