"""Convex-splitting stepper: conservation, stability, interior bound, driver."""

import dataclasses
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
    chemical_potential,
    energy,
    h1_seminorm_sq,
    init_state,
    lp_norm,
    mean,
    run,
    standard_monitors,
    step,
    write_snapshot,
)
import nlch.dynamics as dynamics_module
import nlch.potential as potential_module
from nlch.dynamics import (
    EXTRAPOLATION_ORDER,
    HISTORY_DEPTH,
    SimState,
    _History,
    _attempt_inner_solve,
    _extrapolation_order,
    _lagrange_weights,
    _warm_start,
)
from nlch.grid import irfft

from conftest import gaussian_amplitude


def backward_euler_attempt(st, dt, cfg, kernel, p, start=None):
    """The inner solve of step's backward-Euler attempt from st at dt, started
    at start (default phi^n)."""
    grid = kernel.grid
    dt_k2 = dt * grid.k_squared
    r_hat = st.phi_hat * (1.0 + dt_k2 * kernel.symbol)
    start = st.phi.values if start is None else start
    return _attempt_inner_solve(grid, r_hat, dt_k2, start, cfg, p)


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

    @pytest.mark.parametrize("margin", [1e-16, 1e-15])
    def test_rejects_safety_margin_below_the_potential_floor(self, margin):
        # 1 - (1 - 1e-15) is 9.99e-16 in float64, under SEPARATION_FLOOR
        with pytest.raises(ValueError, match="safety_margin"):
            StepperConfig(dt=1e-3, dt_min=1e-7, safety_margin=margin)

    def test_smallest_margin_keeps_the_potential_floor(self, setup_small):
        # a guess parked on the guard's bound: F' and F'' must stay evaluable
        grid, kernel, p = setup_small
        cfg = StepperConfig(dt=1e-3, dt_min=1e-7, safety_margin=1.1e-15)
        st = init_state(grid, kernel, p, InitialData(mode="tanh", m=0.0, noise_amplitude=0.9))
        guess = st.phi.values.copy()
        guess[np.argmax(guess)] = 1.0 - cfg.safety_margin
        backward_euler_attempt(st, cfg.dt, cfg, kernel, p, guess)  # no PotentialDomainError


class TestInitState:
    def test_zero_constant_gives_zero_state(self, setup_small):
        grid, kernel, p = setup_small
        st = init_state(grid, kernel, p, InitialData(mode="constant", m=0.0))
        assert np.all(st.phi.values == 0.0)
        assert np.all(chemical_potential(st.phi, kernel, p)[0].values == 0.0)
        assert st.t == 0.0 and st.dissipation_accum == 0.0 and st.step_count == 0

    def test_constant_mean_gives_uniform_mu(self, setup_small):
        grid, kernel, p = setup_small
        st = init_state(grid, kernel, p, InitialData(mode="constant", m=0.3))
        from nlch import derivative

        expected = derivative(p, 0.3) - 0.3 * kernel.j_integral
        mu, _ = chemical_potential(st.phi, kernel, p)
        assert np.ptp(mu.values) <= 1e-14
        assert mu.values.flat[0] == pytest.approx(expected, rel=1e-12)

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

    def test_snapshot_path_only_with_snapshot_mode(self):
        with pytest.raises(ValueError, match="snapshot_path is only valid"):
            InitialData(mode="tanh", snapshot_path="some/path.nlch")

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
        st = SimState(0.0, phi, np.fft.rfftn(phi.values), 0.0, 0)
        st2 = step(st, cfg, kernel, p)
        assert np.all(st2.phi.values == 0.3)
        assert np.ptp(chemical_potential(st2.phi, kernel, p)[0].values) == 0.0
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


def picard_reference(phi_n, dt, kernel, p, tol=1e-14, max_iters=20000):
    """Plain stabilized Picard iteration for the implicit step, run to a
    sup-norm increment of tol: the map the mixed solver accelerates."""
    grid = kernel.grid
    k2 = grid.k_squared
    j_symbol = kernel.symbol
    r_hat = np.fft.rfftn(phi_n) * (1.0 + dt * k2 * j_symbol)
    phi = phi_n
    for _ in range(max_iters):
        lam = max(p.alpha_bar, potential_module.second_derivative(p, np.max(np.abs(phi))))
        g_hat = np.fft.rfftn(potential_module.derivative(p, phi) - lam * phi)
        nxt = irfft(grid, (r_hat - dt * k2 * g_hat) / (1.0 + dt * lam * k2))
        inc = np.max(np.abs(nxt - phi))
        phi = nxt
        if inc <= tol:
            return phi
    raise AssertionError(f"reference Picard stalled at increment {inc:.3e}")


def strong_segregation(grid):
    """Gaussian kernel with integral 4 against alpha_bar = 1: deep quench."""
    kernel = build_kernel(
        "gaussian", grid, amplitude=gaussian_amplitude(4.0, 0.3, grid.dim), width=0.3
    )
    return kernel, PotentialParams(1.0, 2.0)


class TestMixedInnerSolve:
    @pytest.mark.parametrize("dt_eff", [1e-3, (2.0 / 3.0) * 2e-3])
    @pytest.mark.parametrize("dim, n", [(1, 128), (2, 32)])
    def test_solves_a_foreign_right_hand_side(self, dim, n, dt_eff):
        # a band-limited r that no backward-Euler step built, with BDF2's
        # dt_eff = 2/3 dt among the steps; the inputs are read-only, so a
        # write into any of them fails the test
        grid = Grid(dim, n, 4.0)
        p = PotentialParams(1.0, 2.0)
        noise_hat = np.fft.rfftn(np.random.default_rng(dim).standard_normal(grid.shape))
        noise_hat[grid.k_squared > (2 * np.pi * 4 / grid.edge_length) ** 2] = 0.0
        r = irfft(grid, noise_hat)
        r *= 0.95 / np.max(np.abs(r))
        r_hat = np.fft.rfftn(r)
        dt_k2 = dt_eff * grid.k_squared
        for a in (r, r_hat, dt_k2):
            a.setflags(write=False)
        cfg = StepperConfig(dt=dt_eff, dt_min=1e-7, inner_tol=1e-12, inner_max_iters=200)
        phi, _, iters = _attempt_inner_solve(grid, r_hat, dt_k2, r, cfg, p)
        assert phi is not None and iters > 1
        f_hat = np.fft.rfftn(potential_module.derivative(p, phi))
        residual = irfft(grid, np.fft.rfftn(phi) + dt_k2 * f_hat - r_hat)
        assert np.max(np.abs(residual)) <= 1e-9
        assert abs(phi.mean() - r.mean()) <= 1e-14

    @pytest.mark.parametrize("dim, n", [(1, 128), (2, 32)])
    def test_matches_converged_picard_near_separation(self, dim, n):
        grid = Grid(dim, n, 4.0)
        kernel, p = strong_segregation(grid)
        st = init_state(
            grid, kernel, p,
            InitialData(mode="tanh", m=0.0, noise_amplitude=0.97, delta0=0.02),
        )
        assert 1.0 - lp_norm(st.phi, np.inf) < 0.05  # near the pure phases
        cfg = StepperConfig(dt=1e-3, dt_min=1e-7, inner_tol=1e-12, inner_max_iters=200)
        solved, _, iters = backward_euler_attempt(st, cfg.dt, cfg, kernel, p)
        assert solved is not None
        ref = picard_reference(st.phi.values, cfg.dt, kernel, p)
        assert np.max(np.abs(solved - ref)) <= 1e-9

    def test_near_bound_stiff_iterates_stay_inside(self, monkeypatch):
        grid = Grid(1, 64, 4.0)
        kernel, p = strong_segregation(grid)
        st = init_state(
            grid, kernel, p,
            InitialData(mode="tanh", m=0.0, noise_amplitude=0.999, delta0=1e-3),
        )
        assert 1.0 - lp_norm(st.phi, np.inf) < 2e-3
        cfg = StepperConfig(dt=5e-2, dt_min=1e-7, inner_tol=1e-12, inner_max_iters=200)
        evaluated = []
        derivative = potential_module.derivative

        def recording_derivative(pp, s, out=None):
            evaluated.append(float(np.max(np.abs(s))))
            return derivative(pp, s, out)

        monkeypatch.setattr(potential_module, "derivative", recording_derivative)
        st2 = step(st, cfg, kernel, p)  # a PotentialDomainError fails the test
        assert max(evaluated) <= 1.0 - cfg.safety_margin
        assert lp_norm(st2.phi, np.inf) <= 1.0 - cfg.safety_margin
        # a converged step from a state this close to the pure phases keeps a
        # physical margin; an iterate parked against the bound is no solution
        assert 1.0 - lp_norm(st2.phi, np.inf) > 1e-3

    def test_mean_preserved_before_restore(self):
        grid = Grid(2, 32, 4.0)
        kernel, p = strong_segregation(grid)
        st = init_state(
            grid, kernel, p,
            InitialData(mode="constant", m=0.3, noise_amplitude=0.2, seed=11),
        )
        cfg = StepperConfig(dt=3e-3, dt_min=1e-7, inner_tol=1e-12, inner_max_iters=200)
        solved, _, iters = backward_euler_attempt(st, cfg.dt, cfg, kernel, p)
        assert solved is not None and iters > 1
        assert abs(solved.mean() - st.phi.values.mean()) <= 1e-14

    def test_strong_segregation_onset_needs_no_dt_halving(self):
        # the benchmark's segregation scenario, through the start of the
        # stiff phase at t ~ 0.445 where stabilized Picard halved dt to 9.4e-5
        grid = Grid(1, 128, 4.0)
        kernel, p = strong_segregation(grid)
        cfg = StepperConfig(dt=3e-3, dt_min=1e-7, inner_tol=1e-12, inner_max_iters=200)
        st = init_state(
            grid, kernel, p,
            InitialData(mode="constant", m=0.0, noise_amplitude=0.05, seed=1, delta0=0.01),
        )
        t_end = 0.46
        while t_end - st.t > 1e-9 * cfg.dt:
            requested = min(cfg.dt, t_end - st.t)
            st = step(st, cfg, kernel, p, dt=requested)
            assert st.last_dt == requested, f"dt halved at t={st.t}"
        assert st.step_count == 154


def count_attempts(monkeypatch):
    """Wrap the inner solve; the returned dict counts failed attempts and
    records, per attempt, whether it got a warm-start guess."""
    counts = {"rejected": 0, "warm": []}
    attempt = dynamics_module._attempt_inner_solve

    def counting(grid, r_hat, dt_k2, start, cfg, p):
        solved, solved_hat, info = attempt(grid, r_hat, dt_k2, start, cfg, p)
        counts["rejected"] += solved is None
        # a warm start is the guess _warm_start wrote into the workspace
        counts["warm"].append(start is dynamics_module._workspace(grid).guess)
        return solved, solved_hat, info

    monkeypatch.setattr(dynamics_module, "_attempt_inner_solve", counting)
    return counts


def scratch(like):
    """The guess and scratch buffers _warm_start writes into."""
    return np.empty_like(like), np.empty_like(like)


def ring_of(nodes):
    """A history ring through nodes, (t, values) newest first, as a chain of
    steps leaves it: its newest entry is the array nodes[0][1] itself."""
    ring = _History(nodes[0][1].shape)
    for t, values in reversed(nodes):
        ring.push(t, values)
    return ring


def with_history(st, earlier):
    """st with a ring through its own (t, phi) and earlier, newest first."""
    return dataclasses.replace(st, history=ring_of(((st.t, st.phi.values),) + tuple(earlier)))


def mid_run_state(grid, kernel, p, cfg, steps):
    st = init_state(
        grid, kernel, p,
        InitialData(mode="constant", m=0.1, noise_amplitude=0.05, seed=3),
    )
    for _ in range(steps):
        st = step(st, cfg, kernel, p)
    return st


class TestWarmStart:
    def test_extrapolant_is_exact_on_cubics_at_unequal_spacing(self):
        # a halving, a full step, and a last step clipped to 7e-4
        times = np.array([0.1, 0.0985, 0.097, 0.094])
        t_star = 0.1 + 7e-4
        x = np.linspace(0.0, 1.0, 16)
        coeffs = [0.1 * np.sin(2 * np.pi * x), 0.3 * x, -0.5 + x**2, 0.7 * np.cos(x)]

        def f(t):
            return sum(c * t**k for k, c in enumerate(coeffs))

        w = _lagrange_weights(times, t_star)
        assert sum(w) == pytest.approx(1.0, abs=1e-12)
        cfg = StepperConfig(dt=3e-3, dt_min=1e-7, inner_tol=1e-12)
        guess = _warm_start(ring_of(tuple((t, f(t)) for t in times)), t_star, cfg, *scratch(x))
        assert np.max(np.abs(guess - f(t_star))) <= 1e-13
        assert np.max(np.abs(sum(w_j * f(t) for w_j, t in zip(w, times)) - f(t_star))) <= 1e-13

    def test_lebesgue_gate_at_equal_steps(self):
        cfg = StepperConfig(dt=1e-2, dt_min=1e-7, inner_tol=1e-10)
        w = _lagrange_weights(np.array([0.0, -0.01, -0.02, -0.03]), 0.01)
        assert np.allclose(w, [4.0, -6.0, 4.0, -1.0])  # Lambda = 15

        def nodes(move):
            return tuple((t, np.full(8, 0.2 + move * t / 0.01)) for t in (0.0, -0.01, -0.02, -0.03))

        buffers = scratch(np.empty(8))
        assert _warm_start(ring_of(nodes(14 * cfg.inner_tol)), 0.01, cfg, *buffers) is None
        assert _warm_start(ring_of(nodes(16 * cfg.inner_tol)), 0.01, cfg, *buffers) is not None
        assert _warm_start(ring_of(nodes(1.0)[:1]), 0.01, cfg, *buffers) is None  # cold start

    @pytest.mark.parametrize("dim, n", [(1, 128), (2, 32)])
    def test_step_with_history_matches_cold_start(self, dim, n):
        grid = Grid(dim, n, 4.0)
        kernel, p = strong_segregation(grid)
        cfg = StepperConfig(dt=3e-3, dt_min=1e-7, inner_tol=1e-12, inner_max_iters=200)
        st = mid_run_state(grid, kernel, p, cfg, 30)
        times = list(st.history.times)
        assert len(times) == HISTORY_DEPTH + 1
        warm = step(st, cfg, kernel, p)
        cold = step(dataclasses.replace(st, history=None), cfg, kernel, p)
        assert np.max(np.abs(warm.phi.values - cold.phi.values)) <= 1e-9
        assert warm.last_inner_iters < cold.last_inner_iters
        ring = warm.history
        assert ring is st.history  # the chain's ring, extended by one copy
        assert ring.newest is warm.phi.values
        assert np.array_equal(ring.values[ring.head], warm.phi.values)
        assert not np.shares_memory(ring.values, warm.phi.values)
        assert ring.times == [warm.t] + times[:-1]

    def test_move_below_lebesgue_noise_starts_from_phi_n(self, setup_small, monkeypatch):
        grid, kernel, p = setup_small
        cfg = StepperConfig(dt=3e-3, dt_min=1e-7, inner_tol=1e-12, inner_max_iters=400)
        st = mid_run_state(grid, kernel, p, cfg, 10)
        counts = count_attempts(monkeypatch)
        cos = np.cos(2 * np.pi * grid.coordinate_mesh()[0] / grid.edge_length)

        def moved_by(size):
            return with_history(
                st, ((st.t - k * cfg.dt, st.phi.values - k * size * cos) for k in (1, 2, 3))
            )

        # earlier states within Lambda * inner_tol = 1.5e-11: the extrapolant is noise
        warm = step(moved_by(1e-11), cfg, kernel, p)
        cold = step(dataclasses.replace(st, history=None), cfg, kernel, p)
        assert counts["warm"] == [False, False]
        assert warm.last_inner_iters == cold.last_inner_iters
        assert np.array_equal(warm.phi.values, cold.phi.values)
        step(moved_by(2e-11), cfg, kernel, p)
        assert counts["warm"][-1]

    def test_stepping_a_stale_state_starts_cold(self, setup_small, monkeypatch):
        # a state already stepped is no longer its ring's newest entry: stepping
        # it again starts a new chain and leaves the first chain's ring alone
        grid, kernel, p = setup_small
        cfg = StepperConfig(dt=3e-3, dt_min=1e-7, inner_tol=1e-12, inner_max_iters=400)
        st = mid_run_state(grid, kernel, p, cfg, 12)
        expected = step(step(st, cfg, kernel, p), cfg, kernel, p)
        st = mid_run_state(grid, kernel, p, cfg, 12)
        nxt = step(st, cfg, kernel, p)
        counts = count_attempts(monkeypatch)
        stale = step(st, cfg, kernel, p)
        cold = step(dataclasses.replace(st, history=None), cfg, kernel, p)
        assert counts["warm"] == [False, False]
        assert np.array_equal(stale.phi.values, cold.phi.values)
        assert stale.history is not nxt.history
        step(dataclasses.replace(nxt, t=nxt.t + 1.0), cfg, kernel, p)  # hand-built: cold too
        assert counts["warm"][-1] is False
        got = step(nxt, cfg, kernel, p)
        assert counts["warm"][-1] and got.history is nxt.history
        assert np.array_equal(got.phi.values, expected.phi.values)
        assert got.last_inner_iters == expected.last_inner_iters
        assert got.dissipation_accum == expected.dissipation_accum

    def test_out_of_bound_extrapolant_falls_back(self, monkeypatch):
        grid = Grid(1, 64, 4.0)
        kernel, p = strong_segregation(grid)
        st = init_state(
            grid, kernel, p,
            InitialData(mode="tanh", m=0.0, noise_amplitude=0.9, delta0=0.05),
        )
        cfg = StepperConfig(dt=3e-3, dt_min=1e-7, inner_tol=1e-12, inner_max_iters=200)
        # linear extrapolation to 4/3 of phi^n: max|guess| ~ 1.2
        steep = with_history(
            dataclasses.replace(st, t=0.5), ((0.5 - cfg.dt, 0.25 * st.phi.values),)
        )
        assert _warm_start(steep.history, 0.5 + cfg.dt, cfg, *scratch(st.phi.values)) is None
        evaluated = []
        derivative = potential_module.derivative

        def recording_derivative(pp, s, out=None):
            evaluated.append(float(np.max(np.abs(s))))
            return derivative(pp, s, out)

        monkeypatch.setattr(potential_module, "derivative", recording_derivative)
        warm = step(steep, cfg, kernel, p)  # a PotentialDomainError fails the test
        cold = step(dataclasses.replace(steep, history=None), cfg, kernel, p)
        assert max(evaluated) <= 1.0 - cfg.safety_margin
        assert np.array_equal(warm.phi.values, cold.phi.values)

    def test_strong_segregation_stiff_phase_retries(self, monkeypatch):
        # the benchmark's segregation physics into the stiff phase, where
        # from phi^n the solve retried 541 attempts at halved dt up to t = 1
        grid = Grid(1, 128, 4.0)
        kernel, p = strong_segregation(grid)
        cfg = StepperConfig(dt=3e-3, dt_min=1e-7, inner_tol=1e-12, inner_max_iters=200)
        st = init_state(
            grid, kernel, p,
            InitialData(mode="constant", m=0.0, noise_amplitude=0.05, seed=1, delta0=0.01),
        )
        counts = count_attempts(monkeypatch)
        t_end = 1.0
        while t_end - st.t > 1e-9 * cfg.dt:
            st = step(st, cfg, kernel, p, dt=min(cfg.dt, t_end - st.t))
        assert counts["rejected"] < 60
        assert len(counts["warm"]) == st.step_count + counts["rejected"]

    def test_restart_starts_cold_and_clipped_run_stays_monitored(self, setup_small, tmp_path):
        grid, kernel, p = setup_small
        cfg = StepperConfig(dt=3e-3, dt_min=1e-7, inner_tol=1e-12, inner_max_iters=400)
        for initial in (
            InitialData(mode="constant", m=0.0, noise_amplitude=0.05, seed=4),
            InitialData(mode="tanh", m=0.0, noise_amplitude=0.8),
        ):
            assert init_state(grid, kernel, p, initial).history is None
        st = mid_run_state(grid, kernel, p, cfg, 40)
        path = tmp_path / "mid.nlch"
        write_snapshot(st.phi, st.t, path)
        restarted = init_state(
            grid, kernel, p, InitialData(mode="snapshot", snapshot_path=str(path))
        )
        assert restarted.history is None
        # 0.0505 = 16 x 3e-3 + 2.5e-3: the order ramps up, then a clipped step
        out, series = run(
            restarted, 0.0505, cfg, kernel, p,
            monitors=standard_monitors(mean(restarted.phi), cfg),
        )
        assert out.step_count == 17
        assert out.last_dt == pytest.approx(2.5e-3)
        assert len(out.history.times) == HISTORY_DEPTH + 1
        assert series.rows[-1].t == pytest.approx(0.0505)


def equal_step_nodes(f, h=3e-3, t0=0.1, count=HISTORY_DEPTH + 1):
    """(t, f(t)) at t0, t0 - h, ..., newest first."""
    return tuple((t0 - k * h, f(t0 - k * h)) for k in range(count))


class TestWarmStartOrder:
    x = np.linspace(0.0, 1.0, 16)
    cfg = StepperConfig(dt=3e-3, dt_min=1e-7, inner_tol=1e-12)

    def quartic(self, t, c4=1e-3):
        s = (t - 0.1) / 3e-3  # in steps from the newest node
        x = self.x
        return (
            0.1 * np.sin(2 * np.pi * x) + 0.01 * s * x - 1e-3 * s**2 * x**2
            + 1e-4 * s**3 + c4 * s**4 * np.cos(x)
        )

    def cubic_guess(self, nodes, t_star):
        """The 4-node extrapolant, the order below the top, on the ring slots
        the whole window fills (the guess sums over every slot)."""
        ring = ring_of(nodes)
        del ring.times[4:]
        return _warm_start(ring, t_star, self.cfg, *scratch(self.x))

    def test_quartic_field_on_equal_steps_is_extrapolated_exactly(self):
        nodes = equal_step_nodes(self.quartic)
        t_star = 0.1 + 3e-3
        guess = _warm_start(ring_of(nodes), t_star, self.cfg, *scratch(self.x))
        assert np.max(np.abs(guess - self.quartic(t_star))) <= 1e-13
        # the cubic misses by the fourth difference, 24 c4 cos(x)
        assert np.max(np.abs(self.cubic_guess(nodes, t_star) - self.quartic(t_star))) > 1e-2

    @pytest.mark.parametrize("degree", range(3, EXTRAPOLATION_ORDER + 1))
    def test_degree_p_field_on_equal_steps_is_extrapolated_exactly(self, degree):
        # terms of exp(0.3 s) up to s^degree: the backward differences shrink
        # like 0.26^k up to the degree and vanish past it, so the order climbs to it
        def f(t):
            s = (t - 0.1) / 3e-3
            return 0.5 * sum(
                (0.3 * s) ** k / math.factorial(k) * np.cos(k * self.x) for k in range(degree + 1)
            )

        nodes = equal_step_nodes(f)
        t_star = 0.1 + 3e-3
        guess = _warm_start(ring_of(nodes), t_star, self.cfg, *scratch(self.x))
        exact = f(t_star)
        assert np.max(np.abs(guess - exact)) <= 1e-13 * np.max(np.abs(exact))

    @pytest.mark.parametrize("equal", range(5, HISTORY_DEPTH + 2))
    def test_climb_uses_the_newest_equally_spaced_nodes(self, equal):
        # a step halved after the oldest of the newest `equal` nodes: on a field
        # whose differences shrink, the order climbs as far as they allow
        def f(t):
            s = (t - 0.1) / 3e-3
            return 0.5 * sum(
                (0.3 * s) ** k / math.factorial(k) * np.cos(k * self.x) for k in range(9)
            )

        times = [0.1 - k * 3e-3 for k in range(equal)]
        times += [times[-1] - 1.5e-3 - k * 3e-3 for k in range(HISTORY_DEPTH + 1 - equal)]
        nodes = tuple((t, f(t)) for t in times)
        assert _extrapolation_order(ring_of(nodes), 0.1 + 3e-3) == (max(3, equal - 2), equal)

    def test_alternating_noise_picks_the_cubic(self):
        # +-eps on alternate nodes: |del^5| = 32 eps > |del^4| = 16 eps
        def noisy(t):
            k = round((0.1 - t) / 3e-3)
            return self.quartic(t, c4=0.0) + (-1) ** k * 1e-6 * np.cos(3 * self.x)

        nodes = equal_step_nodes(noisy)
        t_star = 0.1 + 3e-3
        guess = _warm_start(ring_of(nodes), t_star, self.cfg, *scratch(self.x))
        assert np.array_equal(guess, self.cubic_guess(nodes, t_star))

    def test_unequal_window_gives_the_cubic_bit_for_bit(self):
        t_star = 0.1 + 3e-3
        halved = tuple(
            (t, self.quartic(t)) for t in (0.1, 0.0985, 0.097, 0.094, 0.091, 0.088)
        )
        equal = equal_step_nodes(self.quartic)
        for nodes, t in ((halved, t_star), (equal, 0.1 + 2.5e-3)):  # a halving; a clipped step
            guess = _warm_start(ring_of(nodes), t, self.cfg, *scratch(self.x))
            assert np.array_equal(guess, self.cubic_guess(nodes, t))
            assert np.max(np.abs(guess - self.quartic(t))) > 1e-3

    def test_lebesgue_gate_of_the_quartic(self):
        # constant fields with a small quartic trend, so the quartic is
        # chosen; its weights 5, -10, 10, -5, 1 give Lambda = 31
        cfg = StepperConfig(dt=1e-2, dt_min=1e-7, inner_tol=1e-10)
        c4 = 1e-13

        def nodes(move):
            def f(t):
                s = t / 0.01
                return np.full(8, 0.2 + (move + c4) * s + c4 * s**4)

            return equal_step_nodes(f, h=0.01, t0=0.0)

        w = _lagrange_weights([t for t, _ in nodes(0.0)[:5]], 0.01)
        assert np.allclose(w, [5.0, -10.0, 10.0, -5.0, 1.0])
        buffers = scratch(np.empty(8))
        assert _warm_start(ring_of(nodes(30 * cfg.inner_tol)), 0.01, cfg, *buffers) is None
        guess = _warm_start(ring_of(nodes(32 * cfg.inner_tol)), 0.01, cfg, *buffers)
        assert guess is not None
        assert np.max(np.abs(guess - (0.2 + 32 * cfg.inner_tol + 2 * c4))) <= 1e-15

    def test_lebesgue_gate_of_the_top_order(self):
        # constant fields with a small degree-8 trend whose differences shrink,
        # so the top order is chosen: at equal steps Lambda = 2^9 - 1 = 511
        assert EXTRAPOLATION_ORDER == 8
        cfg = StepperConfig(dt=1e-2, dt_min=1e-7, inner_tol=1e-10)
        c = 1e-12

        def trend(s):
            return c * sum((-0.3 * s) ** k / math.factorial(k) for k in range(1, 9))

        def nodes(move):
            return equal_step_nodes(
                lambda t: np.full(8, move * t / 0.01 + trend(t / 0.01)), h=0.01, t0=0.0
            )

        w = _lagrange_weights([t for t, _ in nodes(0.0)[:9]], 0.01)
        assert sum(abs(w_j) for w_j in w) == pytest.approx(511.0)
        buffers = scratch(np.empty(8))
        assert _warm_start(ring_of(nodes(510 * cfg.inner_tol)), 0.01, cfg, *buffers) is None
        guess = _warm_start(ring_of(nodes(512 * cfg.inner_tol)), 0.01, cfg, *buffers)
        assert guess is not None
        assert np.max(np.abs(guess - (512 * cfg.inner_tol + trend(1.0)))) <= 1e-18

    def test_history_ramps_to_its_depth(self, setup_small):
        grid, kernel, p = setup_small
        cfg = StepperConfig(dt=3e-3, dt_min=1e-7, inner_tol=1e-12, inner_max_iters=400)
        st = mid_run_state(grid, kernel, p, cfg, 0)
        assert st.history is None
        depths = [0]
        for _ in range(HISTORY_DEPTH + 2):
            st = step(st, cfg, kernel, p)
            depths.append(len(st.history.times) - 1)  # earlier states beside phi^n
        assert depths == [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 9, 9] and HISTORY_DEPTH == 9


def state_arrays(st):
    """Every array a state owns, by name; its history ring is the chain's."""
    return {"phi": st.phi.values, "phi_hat": st.phi_hat}


class TestWorkspace:
    def test_results_never_alias_scratch_or_each_other(self):
        # mixed, warm-started 2D steps: every array a state holds must be its
        # own, and no later step may write into an earlier state
        grid = Grid(2, 32, 4.0)
        kernel, p = strong_segregation(grid)
        cfg = StepperConfig(dt=3e-3, dt_min=1e-7, inner_tol=1e-12, inner_max_iters=200)
        states = [init_state(
            grid, kernel, p,
            InitialData(mode="constant", m=0.3, noise_amplitude=0.2, seed=11),
        )]
        saved = [{k: v.copy() for k, v in state_arrays(states[0]).items()}]
        for _ in range(HISTORY_DEPTH):
            states.append(step(states[-1], cfg, kernel, p))
            saved.append({k: v.copy() for k, v in state_arrays(states[-1]).items()})
        ring = states[-1].history
        assert states[-1].last_inner_iters > 2 and len(ring.times) == HISTORY_DEPTH + 1
        for st, before in zip(states, saved):
            for name, values in state_arrays(st).items():
                assert np.array_equal(values, before[name]), name
        own = [a for st in states for a in state_arrays(st).values()]
        for i, a in enumerate(own):
            for b in own[i + 1:]:
                assert not np.shares_memory(a, b)
        scratch_arrays = [a for a in vars(dynamics_module._workspace(grid)).values()
                          if isinstance(a, np.ndarray)]
        for a in own + scratch_arrays:
            assert not np.shares_memory(ring.values, a)
        for k, st in enumerate(states):
            # one ring along the chain, holding a copy of every state's phi
            assert k == 0 or st.history is ring
            slot = ring.head - (len(states) - 1 - k)
            assert np.array_equal(ring.values[slot], st.phi.values)
            assert ring.times[len(states) - 1 - k] == st.t
            assert not st.phi_hat.flags.writeable

    def test_interleaved_grids_match_separate_runs(self):
        cfg = StepperConfig(dt=3e-3, dt_min=1e-7, inner_tol=1e-12, inner_max_iters=200)
        setups = []
        for grid in (Grid(1, 64, 4.0), Grid(2, 32, 4.0)):
            kernel, p = strong_segregation(grid)
            st = init_state(
                grid, kernel, p,
                InitialData(mode="constant", m=0.1, noise_amplitude=0.2, seed=3),
            )
            setups.append((kernel, p, st))

        def alone(kernel, p, st):
            dynamics_module._workspace.cache_clear()
            for _ in range(6):
                st = step(st, cfg, kernel, p)
            return st

        expected = [alone(*setup) for setup in setups]
        dynamics_module._workspace.cache_clear()
        states = [st for _, _, st in setups]
        for _ in range(6):
            states = [step(st, cfg, kernel, p) for (kernel, p, _), st in zip(setups, states)]
        for got, want in zip(states, expected):
            for name, values in state_arrays(got).items():
                assert np.array_equal(values, state_arrays(want)[name]), name
            assert np.array_equal(got.history.values, want.history.values)
            assert got.history.times == want.history.times
            assert got.last_inner_iters == want.last_inner_iters
            assert got.dissipation_accum == want.dissipation_accum


class TestSpectralTail:
    @pytest.mark.parametrize("dim, n", [(1, 128), (2, 32), (3, 16)])
    def test_carried_spectrum_matches_a_fresh_transform(self, dim, n):
        grid = Grid(dim, n, 4.0)
        kernel, p = strong_segregation(grid)
        cfg = StepperConfig(dt=3e-3, dt_min=1e-7, inner_tol=1e-12, inner_max_iters=200)
        st = mid_run_state(grid, kernel, p, cfg, 5)
        assert st.last_inner_iters > 1
        scale = np.max(np.abs(st.phi_hat))
        assert np.max(np.abs(st.phi_hat - np.fft.rfftn(st.phi.values))) <= 1e-13 * scale

    def test_halved_final_candidate_is_transformed_again(self, setup_small, monkeypatch):
        grid, kernel, p = setup_small
        cfg = StepperConfig(dt=3e-3, dt_min=1e-7, inner_tol=1e-12, inner_max_iters=400)
        st = mid_run_state(grid, kernel, p, cfg, 5)
        attempt = dynamics_module._attempt_inner_solve

        def halved(grid, r_hat, dt_k2, start, cfg, p):
            # what the solve reports when its final candidate was halved
            solved, _, info = attempt(grid, r_hat, dt_k2, start, cfg, p)
            return solved, None, info

        monkeypatch.setattr(dynamics_module, "_attempt_inner_solve", halved)
        st2 = step(st, cfg, kernel, p)
        assert np.array_equal(st2.phi_hat, np.fft.rfftn(st2.phi.values))
        assert not st2.phi_hat.flags.writeable

    def test_halved_final_candidate_takes_mu_from_f_prime(self, setup_small, monkeypatch):
        # the increment form needs the solve's unhalved image; without it the
        # tail evaluates F' once more, and both give one dissipation
        grid, kernel, p = setup_small
        cfg = StepperConfig(dt=3e-3, dt_min=1e-7, inner_tol=1e-12, inner_max_iters=400)
        st = dataclasses.replace(mid_run_state(grid, kernel, p, cfg, 5), history=None)
        plain = step(st, cfg, kernel, p)
        attempt = dynamics_module._attempt_inner_solve

        def halved(grid, r_hat, dt_k2, start, cfg, p):
            solved, _, info = attempt(grid, r_hat, dt_k2, start, cfg, p)
            return solved, None, info

        monkeypatch.setattr(dynamics_module, "_attempt_inner_solve", halved)
        calls = []
        derivative = potential_module.derivative

        def counted(pp, s, out=None):
            calls.append(out is not None)
            return derivative(pp, s, out)

        monkeypatch.setattr(potential_module, "derivative", counted)
        st2 = step(st, cfg, kernel, p)
        assert np.array_equal(st2.phi.values, plain.phi.values)
        assert len(calls) == st2.last_inner_iters + 1
        increment = st2.dissipation_accum - st.dissipation_accum
        assert increment == pytest.approx(plain.dissipation_accum - st.dissipation_accum, rel=1e-12)

    @pytest.mark.parametrize("dim, n", [(1, 128), (2, 32)])
    def test_dissipation_is_the_h1_seminorm_of_mu(self, dim, n):
        grid = Grid(dim, n, 4.0)
        kernel, p = strong_segregation(grid)
        cfg = StepperConfig(dt=3e-3, dt_min=1e-7, inner_tol=1e-12, inner_max_iters=200)
        st = mid_run_state(grid, kernel, p, cfg, 5)
        st2 = step(st, cfg, kernel, p)
        mu, _ = chemical_potential(st2.phi, kernel, p)
        expected = st2.last_dt * h1_seminorm_sq(mu)
        increment = st2.dissipation_accum - st.dissipation_accum
        assert increment == pytest.approx(expected, rel=1e-12)

    def test_step_makes_no_transform_after_the_solve(self, monkeypatch):
        grid = Grid(2, 32, 4.0)
        kernel, p = strong_segregation(grid)
        cfg = StepperConfig(dt=3e-3, dt_min=1e-7, inner_tol=1e-12, inner_max_iters=200)
        st = mid_run_state(grid, kernel, p, cfg, 5)
        counts = count_attempts(monkeypatch)
        transforms = []
        for name in ("rfftn", "irfftn"):
            fft = getattr(np.fft, name)

            def counted(*args, _fft=fft, _name=name, **kwargs):
                transforms.append(_name)
                return _fft(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        st2 = step(st, cfg, kernel, p)
        assert counts["rejected"] == 0 and st2.last_inner_iters > 1
        assert len(transforms) == 2 * st2.last_inner_iters
        assert transforms.count("rfftn") == st2.last_inner_iters

    def test_step_calls_f_prime_once_per_iteration(self, monkeypatch):
        # the benchmark reads inner iterations over all attempts off these calls
        grid = Grid(2, 32, 4.0)
        kernel, p = strong_segregation(grid)
        cfg = StepperConfig(dt=3e-3, dt_min=1e-7, inner_tol=1e-12, inner_max_iters=200)
        st = mid_run_state(grid, kernel, p, cfg, HISTORY_DEPTH + 2)
        counts = count_attempts(monkeypatch)
        calls = []
        derivative = potential_module.derivative

        def counted(pp, s, out=None):
            calls.append(out is not None)
            return derivative(pp, s, out)

        monkeypatch.setattr(potential_module, "derivative", counted)
        st2 = step(st, cfg, kernel, p)
        assert counts["rejected"] == 0 and st2.last_dt == cfg.dt
        assert len(calls) == st2.last_inner_iters


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

    def test_initial_row_is_the_energy_baseline(self, setup_small):
        grid, kernel, p = setup_small
        cfg = StepperConfig(dt=1e-3, dt_min=1e-7, inner_tol=1e-11)
        st0 = init_state(
            grid, kernel, p,
            InitialData(mode="constant", m=0.0, noise_amplitude=0.05, seed=2),
        )
        _, series = run(st0, 0.005, cfg, kernel, p)
        first = series.rows[0]
        assert first.energy_residual == 0.0
        assert first.energy == energy(st0.phi, kernel, p)
        for row in series.rows[1:]:
            # every later residual is measured against row 0's energy
            assert row.energy_residual == (
                row.energy + (row.dissipation_accum - st0.dissipation_accum) - first.energy
            )

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
