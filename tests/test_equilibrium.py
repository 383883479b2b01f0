"""Mass-constrained stationary solver and long-time convergence monitor."""

import numpy as np
import pytest

from nlch import (
    Field,
    Grid,
    InitialData,
    PotentialParams,
    StepperConfig,
    build_kernel,
    derivative,
    init_state,
    mean,
    monitor_convergence,
    run,
    solve_stationary,
)
import nlch.potential as potential_module
from nlch.equilibrium import _mass_and_slope, _solve_mu

from conftest import gaussian_amplitude


@pytest.fixture
def setup():
    grid = Grid(1, 128, 4.0)
    kernel = build_kernel(
        "gaussian", grid, amplitude=gaussian_amplitude(2.0, 0.3, 1), width=0.3
    )
    p = PotentialParams(1.0, 2.0)
    return grid, kernel, p


class TestSolveStationary:
    def test_constant_state_exact_fixed_point(self, setup):
        grid, kernel, p = setup
        m = 0.3
        res = solve_stationary(kernel, p, m, Field.constant(grid, m), tol=1e-13)
        assert res.converged and res.iterations <= 3
        assert res.residual_linf <= 1e-13
        assert res.mass_error <= 1e-12
        assert res.separation_margin > 0.0
        expected_mu = derivative(p, mean(res.phi_inf)) - mean(res.phi_inf) * kernel.j_integral
        assert res.mu_inf == pytest.approx(expected_mu, abs=1e-10)

    def test_symmetric_guess_keeps_zero_mass(self, setup):
        grid, kernel, p = setup
        x = grid.coordinate_mesh()[0]
        guess = Field(grid, 0.5 * np.sin(2 * np.pi * x / grid.edge_length))
        res = solve_stationary(kernel, p, 0.0, guess, tol=1e-12, max_iters=800)
        assert res.converged
        assert res.mass_error <= 1e-12
        # odd symmetry of the segregated profile: phi(-x) = -phi(x)
        mirrored = np.roll(res.phi_inf.values[::-1], 1)
        assert np.max(np.abs(res.phi_inf.values + mirrored)) <= 1e-10

    def test_nonconstant_state_quality(self, setup):
        grid, kernel, p = setup
        x = grid.coordinate_mesh()[0]
        guess = Field(grid, 0.5 * np.sin(2 * np.pi * x / grid.edge_length))
        res = solve_stationary(kernel, p, 0.0, guess, tol=1e-12, max_iters=800)
        assert res.converged
        assert np.ptp(res.phi_inf.values) > 1.0  # genuinely two-phase
        assert res.residual_linf <= 1e-10
        assert res.mass_error <= 1e-12
        assert res.separation_margin > 0.0

    def test_restart_from_result_is_fixed_point(self, setup):
        grid, kernel, p = setup
        x = grid.coordinate_mesh()[0]
        guess = Field(grid, 0.5 * np.sin(2 * np.pi * x / grid.edge_length))
        first = solve_stationary(kernel, p, 0.0, guess, tol=1e-12, max_iters=800)
        second = solve_stationary(kernel, p, 0.0, first.phi_inf, tol=1e-12)
        assert second.converged and second.iterations <= 2

    def test_result_always_interior(self, setup):
        grid, kernel, p = setup
        res = solve_stationary(kernel, p, 0.9, Field.constant(grid, 0.9), tol=1e-13)
        assert res.separation_margin > 0.0

    def test_rejects_pure_phase_mass(self, setup):
        grid, kernel, p = setup
        with pytest.raises(ValueError, match="pure phase"):
            solve_stationary(kernel, p, 1.0, Field.constant(grid, 0.0))

    def test_rejects_guess_at_boundary(self, setup):
        grid, kernel, p = setup
        with pytest.raises(ValueError, match="guess"):
            solve_stationary(kernel, p, 0.0, Field.constant(grid, 1.0))

    @pytest.mark.parametrize("tol, max_iters", [(1e-12, 0), (0.0, 10), (float("nan"), 10)])
    def test_rejects_a_stopping_rule_that_cannot_hold(self, setup, tol, max_iters):
        grid, kernel, p = setup
        with pytest.raises(ValueError, match="max_iters >= 1 and tol > 0"):
            solve_stationary(kernel, p, 0.0, Field.constant(grid, 0.0), tol=tol,
                             max_iters=max_iters)

    def test_nonconvergence_flagged_not_raised(self, setup):
        grid, kernel, p = setup
        rng = np.random.default_rng(13)
        guess = Field(grid, 0.5 * rng.uniform(-1, 1, grid.shape))
        res = solve_stationary(kernel, p, 0.0, guess, tol=1e-15, max_iters=2)
        assert not res.converged
        assert res.iterations == 2


class TestMuBisection:
    def test_mass_map_strictly_increasing(self, setup):
        grid, kernel, p = setup
        rng = np.random.default_rng(14)
        conv = rng.uniform(-2, 2, grid.shape)
        mus = np.linspace(-5, 5, 41)
        vals = [_mass_and_slope(conv, p, mu)[0] for mu in mus]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[0] > -1.0 and vals[-1] < 1.0


class TestMuNewton:
    @pytest.mark.parametrize("m", [-0.9, 0.0, 0.35, 0.99])
    def test_mass_constraint_in_a_few_evaluations(self, setup, monkeypatch, m):
        grid, kernel, p = setup
        conv = np.random.default_rng(3).uniform(-2, 2, grid.shape)
        evaluations = []
        inverse = potential_module.inverse_derivative

        def counted(pp, w):
            evaluations.append(w)
            return inverse(pp, w)

        monkeypatch.setattr(potential_module, "inverse_derivative", counted)
        mu = _solve_mu(conv, p, m)
        assert len(evaluations) <= 16  # two bracket checks, then Newton; bisection takes ~55
        monkeypatch.undo()
        assert abs(_mass_and_slope(conv, p, mu)[0] - m) <= 2e-16
        # mu sits on the root: a neighbour one part in 1e-14 away misses m
        assert _mass_and_slope(conv, p, mu - 1e-14 * max(1.0, abs(mu)))[0] < m
        assert _mass_and_slope(conv, p, mu + 1e-14 * max(1.0, abs(mu)))[0] > m


class TestMonitorConvergence:
    def test_constant_equilibrium_trajectory(self, setup):
        grid, kernel, p = setup
        cfg = StepperConfig(dt=1e-3, dt_min=1e-7)
        state = init_state(grid, kernel, p, InitialData(mode="constant", m=0.2))
        snaps = []
        run(
            state, 0.02, cfg, kernel, p,
            snapshot_stride=5, on_snapshot=lambda st: snaps.append((st.t, st.phi)),
        )
        res = solve_stationary(kernel, p, 0.2, Field.constant(grid, 0.2), tol=1e-13)
        rep = monitor_convergence(snaps, res.phi_inf, kernel, p)
        assert float(rep.distances.max()) <= 1e-12
        assert rep.energy_monotone and rep.lyapunov_ok

    def test_long_run_decays_to_candidate(self, canonical_run):
        res = solve_stationary(
            canonical_run.kernel,
            canonical_run.potential,
            mean(canonical_run.state.phi),
            canonical_run.state.phi,
            tol=1e-13,
        )
        assert res.converged
        rep = monitor_convergence(
            canonical_run.snapshots,
            res.phi_inf,
            canonical_run.kernel,
            canonical_run.potential,
        )
        assert rep.energy_monotone and rep.lyapunov_ok
        assert float(rep.grad_mu_norms[-1]) < 1e-6
        assert rep.final_distance < 1e-8
        # tail distances decay by orders of magnitude
        tail = rep.distances[rep.times >= 4.0]
        assert tail[-1] < 1e-4 * tail[0]

    def test_empty_snapshots_rejected(self, setup):
        grid, kernel, p = setup
        with pytest.raises(ValueError, match="no snapshots"):
            monitor_convergence([], Field.constant(grid, 0.0), kernel, p)
