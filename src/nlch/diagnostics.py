"""Scalar diagnostics: energies, separation margin, norm-ratio probes.

All functions here are pure reads of a snapshot; they never mutate state and
are safe to evaluate concurrently with the driver holding the next state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import potential as pot
from .grid import Field, Grid, fd_gradient, h1_seminorm_sq, irfft, lp_norm, mean
from .kernels import Kernel, convolve

CSV_COLUMNS = (
    "t",
    "mass",
    "energy",
    "energy_alt",
    "dissipation_accum",
    "energy_residual",
    "min_phi",
    "max_phi",
    "delta_sep",
    "mu_linf",
    "inner_iters",
    "dt_used",
)

# Gradient norms below this are treated as identically flat truncations.
FLAT_GRADIENT_TOL = 1e-14


def energy_pair(
    phi: Field, j_phi: Field, kernel: Kernel, p: pot.PotentialParams
) -> tuple[float, float]:
    """(energy, energy_alt) of phi from its convolution j_phi = J*phi, both
    read off one evaluation of F."""
    if float(np.max(np.abs(phi.values))) > 1.0:
        raise pot.PotentialDomainError("energy argument exceeds [-1, 1]")
    cv = phi.grid.cell_volume
    a = kernel.j_integral
    f_vals = pot.value(p, phi.values)
    cross = float(np.sum(phi.values * j_phi.values)) * cv
    sq = float(np.sum(phi.values**2)) * cv
    e = -0.5 * cross + float(np.sum(f_vals)) * cv
    e_alt = 0.5 * a * sq - 0.5 * cross + float(np.sum(f_vals - 0.5 * a * phi.values**2)) * cv
    return e, e_alt


def energy(phi: Field, kernel: Kernel, p: pot.PotentialParams) -> float:
    """Nonlocal free energy: -1/2 int phi (J*phi) + int F(phi)."""
    return energy_pair(phi, convolve(kernel, phi), kernel, p)[0]


def energy_alt(phi: Field, kernel: Kernel, p: pot.PotentialParams) -> float:
    """Rewritten energy via the double-difference identity.

    On the torus J*1 is the constant j_integral, so the quarter double
    integral of J |phi(y)-phi(x)|^2 equals (j_integral/2)||phi||^2
    - 1/2 int phi (J*phi), and the entropic part carries the compensating
    -(j_integral/2) phi^2.
    """
    return energy_pair(phi, convolve(kernel, phi), kernel, p)[1]


def separation_margin(phi: Field) -> float:
    """1 - sup|phi|; strictly positive iff phi is separated from +-1."""
    return 1.0 - float(np.max(np.abs(phi.values)))


def mu_linf(state_or_field) -> float:
    """Sup norm of the chemical potential (accepts a SimState or a Field)."""
    mu = getattr(state_or_field, "mu", state_or_field)
    return lp_norm(mu, np.inf)


def gn_ratio(u: Field) -> float:
    """Interpolation-norm ratio ||u||_{10/3} / (||u||^{2/5} ||u||_V^{3/5})."""
    if float(np.max(np.abs(u.values))) == 0.0:
        raise ValueError("gn_ratio is undefined for the zero field")
    num = lp_norm(u, 10.0 / 3.0)
    l2 = lp_norm(u, 2.0)
    v_norm = np.sqrt(l2**2 + h1_seminorm_sq(u))
    return float(num / (l2**0.4 * v_norm**0.6))


def gn_constant_estimate(
    grid: Grid, n_probes: int = 50, seed: int = 0, band_fraction: float = 0.25
) -> float:
    """Empirical lower bound for the interpolation constant: max ratio over
    random band-limited probes.  A sampling supremum, not a certified bound."""
    rng = np.random.default_rng(seed)
    kmax = 2.0 * np.pi * (band_fraction * grid.n_per_axis / 2) / grid.edge_length
    mask = grid.k_squared <= kmax**2
    best = 0.0
    for _ in range(n_probes):
        white = rng.standard_normal(grid.shape)
        probe = irfft(grid, np.fft.rfftn(white) * mask)
        best = max(best, gn_ratio(Field(grid, probe)))
    return best


def poincare_ratio(phi: Field, rho: float) -> float | None:
    """||f_rho|| / ||grad f_rho|| for the truncation f_rho = (phi - rho)^+.

    Returns None (absent) when the truncation vanishes identically: that is
    the expected outcome for rho above the field maximum, not an error.  A
    nonzero truncation with a flat gradient means the truncation is a nonzero
    constant, which a mass-constrained run with |mean| < 1 cannot produce;
    that case raises.
    """
    if not (0.0 < rho < 1.0):
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    trunc = np.maximum(phi.values - rho, 0.0)
    if float(np.max(trunc)) == 0.0:
        return None
    f_rho = Field(phi.grid, trunc)
    grad_norm = np.sqrt(sum(lp_norm(c, 2.0) ** 2 for c in fd_gradient(f_rho)))
    num = lp_norm(f_rho, 2.0)
    if grad_norm <= FLAT_GRADIENT_TOL:
        raise RuntimeError(
            f"nonzero truncation with flat gradient at rho={rho}: the "
            "vanishing-set hypothesis fails; trajectory is not mass-constrained "
            "or a bug upstream"
        )
    return float(num / grad_norm)


@dataclass(frozen=True)
class PoincareSweep:
    times: tuple[float, ...]
    rhos: tuple[float, ...]
    ratios: tuple[tuple[float | None, ...], ...]  # [time][rho]
    c_p_est: float
    defined_count: int


def poincare_sweep(snapshots, rhos) -> PoincareSweep:
    """Max truncation ratio over (time, rho) probes of a trajectory."""
    rhos = tuple(float(r) for r in rhos)
    times = []
    rows = []
    best = 0.0
    defined = 0
    for t, phi in snapshots:
        row = []
        for rho in rhos:
            r = poincare_ratio(phi, rho)
            row.append(r)
            if r is not None:
                defined += 1
                best = max(best, r)
        times.append(float(t))
        rows.append(tuple(row))
    if defined == 0:
        raise ValueError("no admissible truncation levels: every probe was absent")
    return PoincareSweep(
        times=tuple(times),
        rhos=rhos,
        ratios=tuple(rows),
        c_p_est=best,
        defined_count=defined,
    )


@dataclass(frozen=True)
class DiagnosticsRow:
    t: float
    mass: float
    energy: float
    energy_alt: float
    dissipation_accum: float
    energy_residual: float
    min_phi: float
    max_phi: float
    delta_sep: float
    mu_linf: float
    inner_iters: int
    dt_used: float

    def to_csv(self) -> str:
        parts = []
        for name in CSV_COLUMNS:
            v = getattr(self, name)
            parts.append(str(v) if isinstance(v, int) else format(v, ".17g"))
        return ",".join(parts)


def csv_header() -> str:
    return ",".join(CSV_COLUMNS)


@dataclass
class TimeSeries:
    rows: list[DiagnosticsRow] = field(default_factory=list)

    def append(self, row: DiagnosticsRow) -> None:
        self.rows.append(row)

    def column(self, name: str) -> np.ndarray:
        if name not in CSV_COLUMNS:
            raise KeyError(name)
        return np.array([getattr(r, name) for r in self.rows])

    def to_csv(self) -> str:
        lines = [csv_header()]
        lines.extend(r.to_csv() for r in self.rows)
        return "\n".join(lines) + "\n"

    def __len__(self) -> int:
        return len(self.rows)


def make_row(
    state,
    kernel: Kernel,
    p: pot.PotentialParams,
    energy_base: float,
    dissipation_base: float,
) -> DiagnosticsRow:
    """Assemble one diagnostics row from a simulation state."""
    phi = state.phi
    e, ea = energy_pair(phi, state.j_phi, kernel, p)
    mn = float(np.min(phi.values))
    mx = float(np.max(phi.values))
    dissip = state.dissipation_accum
    return DiagnosticsRow(
        t=state.t,
        mass=mean(phi),
        energy=e,
        energy_alt=ea,
        dissipation_accum=dissip,
        energy_residual=e + (dissip - dissipation_base) - energy_base,
        min_phi=mn,
        max_phi=mx,
        delta_sep=1.0 - max(abs(mn), abs(mx)),
        mu_linf=mu_linf(state),
        inner_iters=state.last_inner_iters,
        dt_used=state.last_dt,
    )
