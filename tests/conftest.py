"""Shared fixtures: the canonical 1D spinodal run and the dt-halving study.

The canonical run is the workhorse trajectory for the diagnostics, De Giorgi
and acceptance tests: 128-point box of edge 4, Gaussian kernel with unit-mass
integral 2, logarithmic potential with alpha_bar = 1, mean-zero noise of
amplitude 0.05 (seed 42), dt = 3e-3 for 2000 steps to t = 6.  It phase
separates by t ~ 4 and settles onto a two-domain state with separation margin
~ 0.046.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass

import numpy as np
import pytest

from nlch import (
    Grid,
    InitialData,
    PotentialParams,
    StepperConfig,
    build_kernel,
    init_state,
    mean,
    run,
    standard_monitors,
)
from nlch.snapshots import MAGIC

CANON = dict(
    n=128,
    edge_length=4.0,
    width=0.3,
    j_target=2.0,
    alpha_bar=1.0,
    noise=0.05,
    seed=42,
    delta0=0.05,
    dt=3e-3,
    t_end=6.0,
    snapshot_stride=5,
)


def gaussian_amplitude(j_target: float, width: float, dim: int) -> float:
    """Amplitude giving an analytic kernel integral of j_target."""
    return j_target / (2.0 * np.pi * width**2) ** (dim / 2.0)


def write_non_finite_snapshot(grid: Grid, path, bad: float = np.nan, t: float = 0.0) -> None:
    """A well-formed snapshot file whose payload holds bad at one point."""
    values = np.full(grid.shape, 0.1)
    values.flat[grid.size // 2] = bad
    header = struct.pack("<6sBIdd", MAGIC, grid.dim, grid.n_per_axis, grid.edge_length, t)
    path.write_bytes(header + values.astype("<f8").tobytes())


@dataclass
class CanonicalRun:
    grid: Grid
    kernel: object
    potential: PotentialParams
    stepper: StepperConfig
    initial: InitialData
    state: object
    series: object
    snapshots: list
    elapsed: float
    mass0: float


@pytest.fixture(scope="session")
def canonical_run() -> CanonicalRun:
    grid = Grid(1, CANON["n"], CANON["edge_length"])
    kernel = build_kernel(
        "gaussian",
        grid,
        amplitude=gaussian_amplitude(CANON["j_target"], CANON["width"], 1),
        width=CANON["width"],
    )
    p = PotentialParams(CANON["alpha_bar"], 2.0 * CANON["alpha_bar"])
    stepper = StepperConfig(
        dt=CANON["dt"], dt_min=1e-7, inner_tol=1e-12, inner_max_iters=400
    )
    initial = InitialData(
        mode="constant",
        m=0.0,
        noise_amplitude=CANON["noise"],
        seed=CANON["seed"],
        delta0=CANON["delta0"],
    )
    state = init_state(grid, kernel, p, initial)
    mass0 = mean(state.phi)
    snapshots: list = []
    t0 = time.perf_counter()
    state, series = run(
        state,
        CANON["t_end"],
        stepper,
        kernel,
        p,
        monitors=standard_monitors(mass0, stepper),
        diag_stride=1,
        snapshot_stride=CANON["snapshot_stride"],
        on_snapshot=lambda st: snapshots.append((st.t, st.phi)),
    )
    elapsed = time.perf_counter() - t0
    return CanonicalRun(
        grid=grid,
        kernel=kernel,
        potential=p,
        stepper=stepper,
        initial=initial,
        state=state,
        series=series,
        snapshots=snapshots,
        elapsed=elapsed,
        mass0=mass0,
    )


@pytest.fixture(scope="session")
def residual_study():
    """Energy-identity residual at dt, dt/2, dt/4 from a smooth tanh start."""
    grid = Grid(1, 64, 4.0)
    kernel = build_kernel(
        "gaussian", grid, amplitude=gaussian_amplitude(2.0, 0.3, 1), width=0.3
    )
    p = PotentialParams(1.0, 2.0)
    initial = InitialData(mode="tanh", m=0.0, noise_amplitude=0.8, seed=0, delta0=0.05)
    residuals = []
    for dt in (4e-3, 2e-3, 1e-3):
        cfg = StepperConfig(dt=dt, dt_min=1e-9, inner_tol=1e-13, inner_max_iters=400)
        state = init_state(grid, kernel, p, initial)
        state, series = run(state, 0.4, cfg, kernel, p, diag_stride=10**9)
        residuals.append(abs(series.rows[-1].energy_residual))
    return residuals
