"""Time integration of the nonlocal conserved gradient flow

    d/dt phi = Laplacian(mu),   mu = F'(phi) - J*phi,

by a first-order convex splitting: the convex entropy derivative F' is
implicit, the nonlocal term explicit,

    phi^{n+1} - dt * Lap F'(phi^{n+1}) = phi^n - dt * Lap (J*phi^n) =: r.

The implicit system is solved by a stabilized fixed point.  With
L_m = max(alpha_bar, max_x F''(phi^m)) the update is a constant-coefficient
Helmholtz solve, exact in spectral space:

    (1 + dt L_m |k|^2) phihat^{m+1} = rhat - dt |k|^2 (F'(phi^m) - L_m phi^m)^hat.

Any iterate leaving max|phi| <= 1 - eps_safe has its update halved back to the
interior (up to 30 times), so the singular entropy is never evaluated outside
(-1, 1); clamping values would silently corrupt the separation diagnostics.
If the inner iteration does not converge, dt is halved and the step retried;
below dt_min the step fails with the last residual.

The k = 0 mode of the update equals that of phi^n identically, so total mass
is conserved by construction; the mean is restored after each accepted step
to absorb transform roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import potential as pot
from .diagnostics import DiagnosticsRow, TimeSeries, energy_pair, make_row
from .grid import Field, Grid, h1_seminorm_sq, irfft
from .kernels import Kernel, convolve_values
from .snapshots import read_snapshot

MAX_UPDATE_HALVINGS = 30


class StepError(RuntimeError):
    """Inner solver failed to converge at dt_min."""


class MonitorViolation(RuntimeError):
    """A run invariant failed; the message carries the offending row."""


@dataclass(frozen=True)
class StepperConfig:
    dt: float
    dt_min: float = 1e-7
    inner_tol: float = 1e-10
    inner_max_iters: int = 200
    safety_margin: float = 1e-12  # enforced bound max|phi| <= 1 - safety_margin

    def __post_init__(self) -> None:
        if not (self.dt >= self.dt_min > 0.0):
            raise ValueError(f"require dt >= dt_min > 0, got dt={self.dt}, dt_min={self.dt_min}")
        if not (0.0 < self.safety_margin < 1e-6):
            raise ValueError(f"safety_margin must lie in (0, 1e-6), got {self.safety_margin}")
        if not self.inner_tol > 0.0:
            raise ValueError(f"inner_tol must be positive, got {self.inner_tol}")
        if self.inner_max_iters < 1:
            raise ValueError(f"inner_max_iters must be >= 1, got {self.inner_max_iters}")


@dataclass(frozen=True)
class InitialData:
    """Initial phase field: constant mean plus seeded noise, a periodic
    two-interface tanh profile, or a snapshot file."""

    mode: str  # "constant" | "tanh" | "snapshot"
    m: float = 0.0
    noise_amplitude: float = 0.0
    seed: int = 0
    delta0: float = 0.05
    snapshot_path: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("constant", "tanh", "snapshot"):
            raise ValueError(f"unknown initial mode {self.mode!r}")
        if not self.delta0 > 0.0:
            raise ValueError(f"delta0 must be positive, got {self.delta0}")
        if abs(self.m) >= 1.0:
            raise ValueError(f"pure phase mean: |m| = {abs(self.m)} >= 1")
        if self.mode in ("constant", "tanh"):
            if self.noise_amplitude < 0.0:
                raise ValueError("noise_amplitude must be nonnegative")
            if abs(self.m) + self.noise_amplitude > 1.0 - self.delta0:
                raise ValueError(
                    f"amplitude violates the delta0 bound: |m| + a = "
                    f"{abs(self.m) + self.noise_amplitude} > 1 - delta0 = {1.0 - self.delta0}"
                )
        if self.mode == "snapshot" and not self.snapshot_path:
            raise ValueError("snapshot mode requires snapshot_path")


@dataclass(frozen=True)
class SimState:
    t: float
    phi: Field
    mu: Field
    j_phi: Field  # J*phi, the one convolution of this state
    dissipation_accum: float
    step_count: int
    last_inner_iters: int = 0
    last_dt: float = 0.0


def _tanh_profile(grid: Grid, width: float) -> np.ndarray:
    # periodic pair of interfaces along axis 0; values in ~[-1, 1]
    x = grid.coordinate_mesh()[0]
    L = grid.edge_length
    return (
        np.tanh((x - 0.25 * L) / width)
        - np.tanh((x - 0.75 * L) / width)
        - 1.0
    )


def _chemical_potential(phi: Field, kernel: Kernel, p: pot.PotentialParams) -> tuple[Field, Field]:
    """mu = F'(phi) - J*phi, returned with the J*phi it is built from."""
    j_phi = convolve_values(kernel, phi.values)
    return Field(phi.grid, pot.derivative(p, phi.values) - j_phi), Field(phi.grid, j_phi)


def init_state(
    grid: Grid, kernel: Kernel, p: pot.PotentialParams, initial: InitialData
) -> SimState:
    """Build the t = 0 state and its chemical potential."""
    if initial.mode == "constant":
        rng = np.random.default_rng(initial.seed)
        vals = initial.m + initial.noise_amplitude * rng.uniform(-1.0, 1.0, grid.shape)
        vals += initial.m - vals.mean()  # recenter the mean exactly onto m
    elif initial.mode == "tanh":
        vals = initial.m + initial.noise_amplitude * _tanh_profile(grid, grid.edge_length / 16.0)
        vals += initial.m - vals.mean()
    else:
        phi0, _ = read_snapshot(initial.snapshot_path, expected_grid=grid)
        vals = np.array(phi0.values)
        if abs(vals.mean()) >= 1.0:
            raise ValueError("pure phase mean in snapshot initial data")

    amax = float(np.max(np.abs(vals)))
    if amax > 1.0 - initial.delta0:
        raise ValueError(
            f"initial data violates the delta0 bound: max|phi0| = {amax} > "
            f"{1.0 - initial.delta0}"
        )
    phi = Field(grid, vals)
    mu, j_phi = _chemical_potential(phi, kernel, p)
    return SimState(t=0.0, phi=phi, mu=mu, j_phi=j_phi, dissipation_accum=0.0, step_count=0)


def _attempt_inner_solve(
    phi_n: np.ndarray,
    dt: float,
    cfg: StepperConfig,
    kernel: Kernel,
    p: pot.PotentialParams,
):
    """One implicit solve at fixed dt.  Returns (values, iters) or (None, residual)."""
    grid = kernel.grid
    k2 = grid.k_squared
    j_symbol = kernel.spectral_multiplier * grid.cell_volume
    phin_hat = np.fft.rfftn(phi_n)
    r_hat = phin_hat * (1.0 + dt * k2 * j_symbol)

    bound = 1.0 - cfg.safety_margin
    phi = phi_n
    last_inc = np.inf
    for it in range(1, cfg.inner_max_iters + 1):
        amax = float(np.max(np.abs(phi)))
        lam = max(p.alpha_bar, pot.second_derivative(p, amax))
        g_hat = np.fft.rfftn(pot.derivative(p, phi) - lam * phi)
        cand = irfft(grid, (r_hat - dt * k2 * g_hat) / (1.0 + dt * lam * k2))
        halvings = 0
        while float(np.max(np.abs(cand))) > bound and halvings < MAX_UPDATE_HALVINGS:
            cand = 0.5 * (phi + cand)
            halvings += 1
        if float(np.max(np.abs(cand))) > bound:
            return None, last_inc
        last_inc = float(np.max(np.abs(cand - phi)))
        phi = cand
        if last_inc <= cfg.inner_tol:
            return phi, it
    return None, last_inc


def step(
    state: SimState,
    cfg: StepperConfig,
    kernel: Kernel,
    p: pot.PotentialParams,
    dt: float | None = None,
) -> SimState:
    """Advance one accepted time step, halving dt on inner-solver failure."""
    dt_try = float(cfg.dt if dt is None else dt)
    phi_n = state.phi.values
    last_residual = np.inf
    while True:
        solved, info = _attempt_inner_solve(phi_n, dt_try, cfg, kernel, p)
        if solved is not None:
            iters = info
            break
        last_residual = info
        dt_try *= 0.5
        if dt_try < cfg.dt_min * (1.0 - 1e-12):
            raise StepError(
                f"inner solver diverged at dt_min={cfg.dt_min}: last sup-norm "
                f"increment {last_residual:.3e} (t={state.t}, step {state.step_count})"
            )

    # restore the k=0 mode exactly (transform roundoff only)
    solved = solved + (phi_n.mean() - solved.mean())
    phi = Field(state.phi.grid, solved)
    mu, j_phi = _chemical_potential(phi, kernel, p)
    dissip = state.dissipation_accum + dt_try * h1_seminorm_sq(mu)
    return SimState(
        t=state.t + dt_try,
        phi=phi,
        mu=mu,
        j_phi=j_phi,
        dissipation_accum=dissip,
        step_count=state.step_count + 1,
        last_inner_iters=iters,
        last_dt=dt_try,
    )


# ---------------------------------------------------------------------------
# run driver and standard monitors


def standard_monitors(mass_reference: float, cfg: StepperConfig):
    """Mass conservation, strict interior bound, per-step energy decrease."""
    state_box = {"prev_energy": None}

    def mass_monitor(row: DiagnosticsRow, state: SimState) -> None:
        if abs(row.mass - mass_reference) > 1e-12:
            raise MonitorViolation(f"mass drift {row.mass - mass_reference:.3e} at t={row.t}: {row}")

    def bound_monitor(row: DiagnosticsRow, state: SimState) -> None:
        if max(abs(row.min_phi), abs(row.max_phi)) > 1.0 - cfg.safety_margin + 1e-15:
            raise MonitorViolation(f"interior bound violated at t={row.t}: {row}")

    def energy_monitor(row: DiagnosticsRow, state: SimState) -> None:
        prev = state_box["prev_energy"]
        if prev is not None and row.energy > prev + 1e-12 * abs(prev) + 1e-13:
            raise MonitorViolation(
                f"energy increased by {row.energy - prev:.3e} at t={row.t}: {row}"
            )
        state_box["prev_energy"] = row.energy

    return [mass_monitor, bound_monitor, energy_monitor]


def run(
    state: SimState,
    t_end: float,
    cfg: StepperConfig,
    kernel: Kernel,
    p: pot.PotentialParams,
    *,
    monitors=(),
    diag_stride: int = 1,
    snapshot_stride: int = 0,
    on_row=None,
    on_snapshot=None,
) -> tuple[SimState, TimeSeries]:
    """Repeated stepping with diagnostics rows at diag_stride steps.

    Emits the initial row, every diag_stride-th step, and the final step.
    Snapshots (on_snapshot(state)) go out exactly at snapshot_stride step
    multiples, step 0 included, so stored trajectories stay uniformly strided
    in time; drivers persist the final state separately if they need it.
    Monitor callables get every emitted row and abort the run by raising.
    """
    if t_end < state.t:
        raise ValueError(f"t_end={t_end} lies before state.t={state.t}")
    series = TimeSeries()
    if t_end <= state.t:
        return state, series

    e_base, _ = energy_pair(state.phi, state.j_phi, kernel, p)
    d_base = state.dissipation_accum

    def emit(st: SimState) -> None:
        row = make_row(st, kernel, p, e_base, d_base)
        for mon in monitors:
            mon(row, st)
        series.append(row)
        if on_row is not None:
            on_row(row)

    def snap(st: SimState) -> None:
        if on_snapshot is not None:
            on_snapshot(st)

    emit(state)
    if snapshot_stride > 0:
        snap(state)

    while True:
        remaining = t_end - state.t
        if remaining <= 1e-9 * cfg.dt:
            break
        state = step(state, cfg, kernel, p, dt=min(cfg.dt, remaining))
        final = (t_end - state.t) <= 1e-9 * cfg.dt
        if final or state.step_count % diag_stride == 0:
            emit(state)
        if snapshot_stride > 0 and state.step_count % snapshot_stride == 0:
            snap(state)
    return state, series
