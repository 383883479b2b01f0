"""Stationary states under the mass constraint, and long-time convergence
monitoring.

A stationary state solves F'(phi) - J*phi = mu with a scalar mu.  The solver
iterates the inverse-derivative form phi <- tanh((J*phi + mu)/alpha), which
keeps iterates strictly inside (-1, 1) by construction; mu is re-solved every
sweep, by a bracketed Newton iteration on the scalar mass map, so the iterate
mean matches the prescribed mass.  Stationary states are not unique in
general: the solver returns the one selected by the guess.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import potential as pot
from .diagnostics import chemical_potential, energy, energy_pair
from .grid import Field, h1_seminorm_sq, lp_norm, max_abs, mean
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


def _mass_and_slope(
    conv_values: np.ndarray, p: pot.PotentialParams, mu: float
) -> tuple[float, float]:
    """The mass map mean(tanh((conv + mu)/alpha)) at mu, strictly increasing
    with range (-1, 1), and its derivative mean(1 - phi^2)/alpha, from one
    tanh evaluation."""
    phi = pot.inverse_derivative(p, conv_values + mu)
    mass = float(phi.sum()) / phi.size  # np.mean's arithmetic, a third of its call cost
    phi *= phi
    return mass, (1.0 - float(phi.sum()) / phi.size) / p.alpha_bar


def _solve_mu(conv_values: np.ndarray, p: pot.PotentialParams, m: float) -> float:
    """Safeguarded Newton for mean(tanh((conv + mu)/alpha)) = m.

    Every evaluated mu narrows the bracket [lo, hi]; a Newton step that leaves
    it is replaced by bisection.  Stops once the step or the bracket is within
    1e-15 relative."""
    span = max_abs(conv_values)
    half_width = span + p.alpha_bar * (1.0 + abs(np.arctanh(min(abs(m), 1.0 - 1e-12))))
    lo, hi = -half_width, half_width
    for _ in range(200):
        if _mass_and_slope(conv_values, p, lo)[0] < m:
            break
        lo *= 2.0
    for _ in range(200):
        if _mass_and_slope(conv_values, p, hi)[0] > m:
            break
        hi *= 2.0
    mu = 0.5 * (lo + hi)
    for _ in range(200):
        mass, slope = _mass_and_slope(conv_values, p, mu)
        if mass < m:
            lo = mu
        elif mass > m:
            hi = mu
        else:
            return mu
        newton = mu - (mass - m) / slope if slope > 0.0 else np.nan
        mu_next = newton if lo < newton < hi else 0.5 * (lo + hi)  # nan bisects
        width = 1e-15 * max(1.0, abs(mu_next))
        if abs(mu_next - mu) <= width or hi - lo <= width:
            return mu_next
        mu = mu_next
    return mu


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
    if not (max_iters >= 1 and tol > 0.0):
        raise ValueError(f"require max_iters >= 1 and tol > 0, got {max_iters} and {tol}")
    if max_abs(guess.values) >= 1.0:
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
        target = pot.inverse_derivative(p, conv + mu)
        update = max_abs(target - phi)
        # updates grow benignly while escaping an unstable uniform guess;
        # only damp genuine blow-up, and recover once updates shrink again
        if update > 1.2 * prev_update:
            omega = max(omega / 2.0, 1.0 / 64.0)
        elif update < prev_update:
            omega = min(1.25 * omega, omega0)
        prev_update = update
        phi_next = (1.0 - omega) * phi + omega * target
        increment = max_abs(phi_next - phi)
        phi = phi_next
        if increment <= tol:
            converged = True
            iterations = it
            break

    # final undamped polish: land exactly on the inverse-derivative image so
    # the residual reflects the fixed-point defect, not the damping
    conv = convolve_values(kernel, phi)
    mu = _solve_mu(conv, p, m)
    phi = pot.inverse_derivative(p, conv + mu)

    phi_field = Field(kernel.grid, phi)
    residual = pot.derivative(p, phi) - convolve_values(kernel, phi) - mu
    return EquilibriumResult(
        phi_inf=phi_field,
        mu_inf=float(mu),
        residual_linf=max_abs(residual),
        mass_error=abs(mean(phi_field) - m),
        iterations=iterations,
        separation_margin=1.0 - max_abs(phi),
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
        mu, j_phi = chemical_potential(f, kernel, p)
        grad_norms.append(np.sqrt(h1_seminorm_sq(mu)))
        distances.append(lp_norm(Field(f.grid, f.values - phi_inf.values), 2.0))
        energies.append(energy_pair(f, j_phi, kernel, p)[0])
        times.append(t)
    energies = np.array(energies)
    e_inf = energy(phi_inf, kernel, p)
    slack = energy_slack * max(1.0, max_abs(energies))
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
