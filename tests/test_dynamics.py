"""Convex-splitting stepper: conservation, stability, interior bound, driver."""

import math

import numpy as np
import pytest

from nlch import (
    Field,
    Grid,
    InitialData,
    MonitorViolation,
    PotentialParams,
    StepError,
    StepperConfig,
    build_kernel,
    convolve,
    energy,
    init_state,
    lp_norm,
    mean,
    run,
    standard_monitors,
    step,
    write_snapshot,
)
from nlch.dynamics import SimState

from conftest import gaussian_amplitude


@pytest.fixture
def setup_small():
    grid = Grid(1, 64, 4.0)
    kernel = build_kernel(
        "gaussian", grid, amplitude=gaussian_amplitude(2.0, 0.3, 1), width=0.3
    )
    p = PotentialParams(1.0, 2.0)
    return grid, kernel, p


class TestStepperConfig:
    def test_rejects_dt_below_dt_min(self):
        with pytest.raises(ValueError, match="dt >= dt_min"):
            StepperConfig(dt=1e-8, dt_min=1e-7)

    def test_rejects_bad_safety_margin(self):
        with pytest.raises(ValueError, match="safety_margin"):
            StepperConfig(dt=1e-3, dt_min=1e-7, safety_margin=1e-3)


class TestInitState:
    def test_zero_constant_gives_zero_state(self, setup_small):
        grid, kernel, p = setup_small
        st = init_state(grid, kernel, p, InitialData(mode="constant", m=0.0))
        assert np.all(st.phi.values == 0.0)
        assert np.all(st.mu.values == 0.0)
        assert st.t == 0.0 and st.dissipation_accum == 0.0 and st.step_count == 0

    def test_constant_mean_gives_uniform_mu(self, setup_small):
        grid, kernel, p = setup_small
        st = init_state(grid, kernel, p, InitialData(mode="constant", m=0.3))
        from nlch import derivative

        expected = derivative(p, 0.3) - 0.3 * kernel.j_integral
        assert np.ptp(st.mu.values) <= 1e-14
        assert st.mu.values.flat[0] == pytest.approx(expected, rel=1e-12)

    def test_noise_mean_recentered(self, setup_small):
        grid, kernel, p = setup_small
        st = init_state(
            grid, kernel, p,
            InitialData(mode="constant", m=0.0, noise_amplitude=0.05, seed=42),
        )
        assert abs(mean(st.phi)) <= 1e-15

    def test_seed_determinism(self, setup_small):
        grid, kernel, p = setup_small
        init = InitialData(mode="constant", m=0.1, noise_amplitude=0.05, seed=9)
        a = init_state(grid, kernel, p, init)
        b = init_state(grid, kernel, p, init)
        assert np.all(a.phi.values == b.phi.values)

    def test_tanh_profile_within_bounds(self, setup_small):
        grid, kernel, p = setup_small
        st = init_state(
            grid, kernel, p,
            InitialData(mode="tanh", m=0.0, noise_amplitude=0.8, delta0=0.05),
        )
        assert lp_norm(st.phi, np.inf) <= 0.95
        assert abs(mean(st.phi)) <= 1e-15
        assert np.ptp(st.phi.values) > 1.0  # genuinely two-phase

    def test_rejects_pure_phase_mean(self):
        with pytest.raises(ValueError, match="pure phase mean"):
            InitialData(mode="constant", m=1.0)

    def test_rejects_amplitude_violating_delta0(self):
        with pytest.raises(ValueError, match="delta0 bound"):
            InitialData(mode="constant", m=0.5, noise_amplitude=0.5, delta0=0.05)

    def test_snapshot_roundtrip_and_grid_mismatch(self, setup_small, tmp_path):
        grid, kernel, p = setup_small
        st = init_state(
            grid, kernel, p,
            InitialData(mode="constant", m=0.2, noise_amplitude=0.1, seed=1),
        )
        path = tmp_path / "init.nlch"
        write_snapshot(st.phi, 3.5, path)
        st2 = init_state(
            grid, kernel, p, InitialData(mode="snapshot", snapshot_path=str(path))
        )
        assert np.all(st2.phi.values == st.phi.values)
        assert st2.t == 0.0  # initial data, not checkpoint restart

        other = Grid(1, 32, 4.0)
        kernel32 = build_kernel(
            "gaussian", other, amplitude=gaussian_amplitude(2.0, 0.3, 1), width=0.3
        )
        from nlch import SnapshotError

        with pytest.raises(SnapshotError, match="grid mismatch"):
            init_state(
                other, kernel32, p,
                InitialData(mode="snapshot", snapshot_path=str(path)),
            )


class TestStep:
    def test_constant_state_is_exact_fixed_point(self, setup_small):
        grid, kernel, p = setup_small
        cfg = StepperConfig(dt=3e-3, dt_min=1e-7)
        phi = Field.constant(grid, 0.3)
        st = SimState(0.0, phi, Field.constant(grid, 0.0), convolve(kernel, phi), 0.0, 0)
        st2 = step(st, cfg, kernel, p)
        assert np.all(st2.phi.values == 0.3)
        assert np.ptp(st2.mu.values) == 0.0
        assert st2.last_inner_iters == 1

    def test_mean_invariant_each_step(self, setup_small):
        grid, kernel, p = setup_small
        cfg = StepperConfig(dt=3e-3, dt_min=1e-7, inner_tol=1e-12, inner_max_iters=400)
        st = init_state(
            grid, kernel, p,
            InitialData(mode="constant", m=0.1, noise_amplitude=0.05, seed=3),
        )
        m0 = mean(st.phi)
        for _ in range(50):
            st = step(st, cfg, kernel, p)
            assert abs(mean(st.phi) - m0) <= 1e-13

    def test_discrete_energy_monotone_hundred_steps(self, setup_small):
        grid, kernel, p = setup_small
        cfg = StepperConfig(dt=3e-3, dt_min=1e-7, inner_tol=1e-12, inner_max_iters=400)
        st = init_state(
            grid, kernel, p,
            InitialData(mode="constant", m=0.0, noise_amplitude=0.05, seed=5),
        )
        prev = energy(st.phi, kernel, p)
        for _ in range(100):
            st = step(st, cfg, kernel, p)
            e = energy(st.phi, kernel, p)
            assert e <= prev + 1e-12 * abs(prev) + 1e-13
            prev = e

    def test_interior_bound_enforced(self, setup_small):
        grid, kernel, p = setup_small
        cfg = StepperConfig(dt=3e-3, dt_min=1e-7, inner_tol=1e-12, inner_max_iters=400)
        st = init_state(
            grid, kernel, p,
            InitialData(mode="constant", m=0.0, noise_amplitude=0.05, seed=6),
        )
        for _ in range(200):
            st = step(st, cfg, kernel, p)
            assert lp_norm(st.phi, np.inf) <= 1.0 - cfg.safety_margin + 1e-15

    def test_fails_below_dt_min_with_residual(self, setup_small):
        grid, kernel, p = setup_small
        # one inner iteration can never hit a 1e-16 increment tolerance
        cfg = StepperConfig(dt=1e-2, dt_min=1e-2, inner_tol=1e-16, inner_max_iters=1)
        st = init_state(
            grid, kernel, p,
            InitialData(mode="constant", m=0.0, noise_amplitude=0.05, seed=7),
        )
        with pytest.raises(StepError, match="increment"):
            step(st, cfg, kernel, p)

    def test_dissipation_accumulates(self, setup_small):
        grid, kernel, p = setup_small
        cfg = StepperConfig(dt=3e-3, dt_min=1e-7)
        st = init_state(
            grid, kernel, p,
            InitialData(mode="constant", m=0.0, noise_amplitude=0.05, seed=8),
        )
        st2 = step(st, cfg, kernel, p)
        assert st2.dissipation_accum > 0.0
        assert st2.t == pytest.approx(cfg.dt)
        assert st2.step_count == 1


class TestRun:
    def test_no_steps_when_t_end_equals_t(self, setup_small):
        grid, kernel, p = setup_small
        cfg = StepperConfig(dt=1e-3, dt_min=1e-7)
        st = init_state(grid, kernel, p, InitialData(mode="constant", m=0.0))
        out, series = run(st, 0.0, cfg, kernel, p)
        assert out is st
        assert len(series) == 0

    def test_rejects_backward_t_end(self, setup_small):
        grid, kernel, p = setup_small
        cfg = StepperConfig(dt=1e-3, dt_min=1e-7)
        st = init_state(grid, kernel, p, InitialData(mode="constant", m=0.0))
        with pytest.raises(ValueError, match="t_end"):
            run(st, -1.0, cfg, kernel, p)

    def test_emits_initial_final_and_strided_rows(self, setup_small):
        grid, kernel, p = setup_small
        cfg = StepperConfig(dt=1e-3, dt_min=1e-7, inner_tol=1e-11)
        st = init_state(
            grid, kernel, p,
            InitialData(mode="constant", m=0.0, noise_amplitude=0.05, seed=2),
        )
        st, series = run(st, 0.05, cfg, kernel, p, diag_stride=10)
        assert st.step_count == 50
        assert len(series) == 6  # steps 0, 10, 20, 30, 40, 50
        assert series.rows[0].t == 0.0
        assert series.rows[-1].t == pytest.approx(0.05)

    def test_snapshot_stride(self, setup_small):
        grid, kernel, p = setup_small
        cfg = StepperConfig(dt=1e-3, dt_min=1e-7, inner_tol=1e-11)
        st = init_state(
            grid, kernel, p,
            InitialData(mode="constant", m=0.0, noise_amplitude=0.05, seed=2),
        )
        snaps = []
        run(
            st, 0.02, cfg, kernel, p,
            snapshot_stride=5, on_snapshot=lambda s: snaps.append(s.step_count),
        )
        assert snaps == [0, 5, 10, 15, 20]

    def test_final_row_emitted_off_stride(self, setup_small):
        grid, kernel, p = setup_small
        cfg = StepperConfig(dt=1e-3, dt_min=1e-7, inner_tol=1e-11)
        st = init_state(
            grid, kernel, p,
            InitialData(mode="constant", m=0.0, noise_amplitude=0.05, seed=2),
        )
        st, series = run(st, 0.05, cfg, kernel, p, diag_stride=7)
        assert st.step_count == 50  # not a multiple of 7
        assert series.rows[-1].t == pytest.approx(0.05)
        assert len(series) == 9  # steps 0, 7, ..., 49, and the final 50

    def test_three_dimensional_run(self):
        grid = Grid(3, 16, 4.0)
        kernel = build_kernel(
            "mollified_newtonian", grid, amplitude=20.0, molli_radius=0.6
        )
        p = PotentialParams(1.0, 2.0)
        cfg = StepperConfig(dt=2e-3, dt_min=1e-8, inner_tol=1e-11, inner_max_iters=300)
        st = init_state(
            grid, kernel, p,
            InitialData(mode="constant", m=0.1, noise_amplitude=0.05, seed=3),
        )
        m0 = mean(st.phi)
        st, series = run(
            st, 0.1, cfg, kernel, p, monitors=standard_monitors(m0, cfg),
        )
        assert st.step_count == 50
        assert all(abs(r.mass - m0) <= 1e-12 for r in series.rows)
        assert series.rows[-1].delta_sep > 0.0

    def test_monitor_violation_aborts(self, setup_small):
        grid, kernel, p = setup_small
        cfg = StepperConfig(dt=1e-3, dt_min=1e-7)

        def bad_monitor(row, state):
            if row.t > 0:
                raise MonitorViolation(f"synthetic failure: {row}")

        st = init_state(
            grid, kernel, p,
            InitialData(mode="constant", m=0.0, noise_amplitude=0.05, seed=2),
        )
        with pytest.raises(MonitorViolation, match="synthetic"):
            run(st, 0.01, cfg, kernel, p, monitors=[bad_monitor])

    def test_standard_monitors_pass_on_healthy_run(self, setup_small):
        grid, kernel, p = setup_small
        cfg = StepperConfig(dt=3e-3, dt_min=1e-7, inner_tol=1e-12, inner_max_iters=400)
        st = init_state(
            grid, kernel, p,
            InitialData(mode="constant", m=0.0, noise_amplitude=0.05, seed=4),
        )
        run(st, 0.3, cfg, kernel, p, monitors=standard_monitors(mean(st.phi), cfg))


class TestEnergyIdentity:
    def test_residual_halves_with_dt(self, residual_study):
        r1, r2, r3 = residual_study
        for hi, lo in ((r1, r2), (r2, r3)):
            ratio = hi / lo
            assert 1.5 <= ratio <= 2.5
            assert math.log2(ratio) >= 0.8


class TestSpinodalSeparation:
    def test_margin_positive_throughout(self, canonical_run):
        ds = canonical_run.series.column("delta_sep")
        assert float(ds.min()) > 0.0

    def test_margin_plateau_after_separation(self, canonical_run):
        ts = canonical_run.series.column("t")
        ds = canonical_run.series.column("delta_sep")
        tail = ds[ts >= 4.5]
        assert tail.min() > 0.02
        assert np.ptp(tail) <= 0.2 * tail.min()  # a genuine plateau
