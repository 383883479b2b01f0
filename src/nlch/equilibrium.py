"""Stationary states under the mass constraint, and long-time convergence
monitoring.

A stationary state solves F'(phi) - J*phi = mu with a scalar mu.  The solver
iterates the inverse-derivative form phi <- tanh((J*phi + mu)/alpha), which
keeps iterates strictly inside (-1, 1) by construction; mu is re-solved every
sweep so the iterate mean matches the prescribed mass.  Stationary states are
not unique in general: the solver returns the one selected by the guess.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import potential as pot
from .diagnostics import energy, energy_pair
from .grid import Field, h1_seminorm_sq, lp_norm, mean
from .kernels import Kernel, convolve_values


@dataclass(frozen=True)
class EquilibriumResult:
    phi_inf: Field
    mu_inf: float
    residual_linf: float
    mass_error: float
    iterations: int
    separation_margin: float
    converged: bool


def mass_of_mu(conv_values: np.ndarray, p: pot.PotentialParams, mu: float) -> float:
    """Mean of the inverse-derivative image at a given scalar mu; strictly
    increasing in mu with range (-1, 1)."""
    return float(np.mean(np.tanh((conv_values + mu) / p.alpha_bar)))


def _solve_mu(conv_values: np.ndarray, p: pot.PotentialParams, m: float) -> float:
    """Bracketed bisection for mean(tanh((conv + mu)/alpha)) = m."""
    span = float(np.max(np.abs(conv_values)))
    half_width = span + p.alpha_bar * (1.0 + abs(np.arctanh(min(abs(m), 1.0 - 1e-12))))
    lo, hi = -half_width, half_width
    for _ in range(200):
        if mass_of_mu(conv_values, p, lo) < m:
            break
        lo *= 2.0
    for _ in range(200):
        if mass_of_mu(conv_values, p, hi) > m:
            break
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-15 * max(1.0, abs(mid)):
            break
        if mass_of_mu(conv_values, p, mid) < m:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_stationary(
    kernel: Kernel,
    p: pot.PotentialParams,
    m: float,
    guess: Field,
    tol: float = 1e-12,
    max_iters: int = 500,
    omega: float = 0.5,
) -> EquilibriumResult:
    """Damped fixed point phi <- (1-w) phi + w tanh((J*phi + mu)/alpha).

    The damping factor is halved whenever the raw update grows, since the
    map need not be a contraction for strongly segregating kernels.  On
    non-convergence the best iterate is returned flagged, not raised.
    """
    if not abs(m) < 1.0:
        raise ValueError(f"pure phase mean: |m| = {abs(m)} >= 1")
    if not (0.0 < omega <= 1.0):
        raise ValueError(f"omega must lie in (0, 1], got {omega}")
    if float(np.max(np.abs(guess.values))) >= 1.0:
        raise ValueError("guess must satisfy max|guess| < 1")

    phi = np.array(guess.values)
    omega0 = omega
    prev_update = np.inf
    converged = False
    iterations = max_iters
    mu = 0.0
    for it in range(1, max_iters + 1):
        conv = convolve_values(kernel, phi)
        mu = _solve_mu(conv, p, m)
        target = np.tanh((conv + mu) / p.alpha_bar)
        update = float(np.max(np.abs(target - phi)))
        # updates grow benignly while escaping an unstable uniform guess;
        # only damp genuine blow-up, and recover once updates shrink again
        if update > 1.2 * prev_update:
            omega = max(omega / 2.0, 1.0 / 64.0)
        elif update < prev_update:
            omega = min(1.25 * omega, omega0)
        prev_update = update
        phi_next = (1.0 - omega) * phi + omega * target
        increment = float(np.max(np.abs(phi_next - phi)))
        phi = phi_next
        if increment <= tol:
            converged = True
            iterations = it
            break

    # final undamped polish: land exactly on the inverse-derivative image so
    # the residual reflects the fixed-point defect, not the damping
    conv = convolve_values(kernel, phi)
    mu = _solve_mu(conv, p, m)
    phi = np.tanh((conv + mu) / p.alpha_bar)

    phi_field = Field(kernel.grid, phi)
    residual = pot.derivative(p, phi) - convolve_values(kernel, phi) - mu
    return EquilibriumResult(
        phi_inf=phi_field,
        mu_inf=float(mu),
        residual_linf=float(np.max(np.abs(residual))),
        mass_error=abs(mean(phi_field) - m),
        iterations=iterations,
        separation_margin=1.0 - float(np.max(np.abs(phi))),
        converged=converged,
    )


@dataclass(frozen=True)
class ConvergenceReport:
    times: np.ndarray
    grad_mu_norms: np.ndarray
    distances: np.ndarray
    energies: np.ndarray
    energy_inf: float
    energy_monotone: bool
    lyapunov_ok: bool
    final_distance: float
    final_energy_gap: float


def monitor_convergence(
    snapshots,
    phi_inf: Field,
    kernel: Kernel,
    p: pot.PotentialParams,
    energy_slack: float = 1e-11,
) -> ConvergenceReport:
    """Decay curves toward a candidate equilibrium along stored snapshots.

    Reports ||grad mu(t)||, ||phi(t) - phi_inf||, the energy curve, and
    whether the energy is nonincreasing and stays above the candidate's
    (Lyapunov property).  Report-only: nothing raises on a poor candidate.
    """
    snaps = sorted(((float(t), f) for t, f in snapshots), key=lambda pair: pair[0])
    if not snaps:
        raise ValueError("no snapshots to monitor")
    times, grad_norms, distances, energies = [], [], [], []
    for t, f in snaps:
        conv = convolve_values(kernel, f.values)
        mu_vals = pot.derivative(p, f.values) - conv
        grad_norms.append(np.sqrt(h1_seminorm_sq(Field(f.grid, mu_vals))))
        distances.append(lp_norm(Field(f.grid, f.values - phi_inf.values), 2.0))
        energies.append(energy_pair(f, Field(f.grid, conv), kernel, p)[0])
        times.append(t)
    energies = np.array(energies)
    e_inf = energy(phi_inf, kernel, p)
    slack = energy_slack * max(1.0, float(np.max(np.abs(energies))))
    monotone = bool(np.all(np.diff(energies) <= slack))
    lyapunov = bool(np.all(energies >= e_inf - slack))
    return ConvergenceReport(
        times=np.array(times),
        grad_mu_norms=np.array(grad_norms),
        distances=np.array(distances),
        energies=energies,
        energy_inf=e_inf,
        energy_monotone=monotone,
        lyapunov_ok=lyapunov,
        final_distance=float(distances[-1]),
        final_energy_gap=float(energies[-1] - e_inf),
    )
