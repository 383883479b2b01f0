"""Interaction kernels: discretization, spectral multipliers, convolution.

Kernels are sampled at nearest-image distance on the grid and transformed
once; convolution is then a pointwise multiply in spectral space scaled by
cell_volume, so it approximates the integral J*f on the torus.  Even symmetry
J(x) = J(-x) holds exactly on the grid by construction, which makes the
multiplier real.  convolve_values is the one convolution body; convolve wraps
it for Fields on the kernel's grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid, irfft

FAMILIES = ("gaussian", "exponential", "mollified_newtonian")

# Nearest-image sampling truncates the kernel at L/2 per axis; keeping the
# width at or below L/6 makes that tail negligible for the built-in families.
MAX_WIDTH_FRACTION = 1.0 / 6.0


@dataclass(frozen=True, eq=False)
class Kernel:
    family: str
    grid: Grid
    params: dict
    samples: np.ndarray
    spectral_multiplier: np.ndarray
    j_integral: float
    grad_j_l1: float


def build_kernel(
    family: str,
    grid: Grid,
    *,
    amplitude: float = 1.0,
    width: float | None = None,
    molli_radius: float | None = None,
) -> Kernel:
    """Sample a kernel family on the grid and precompute its summaries.

    j_integral is the discrete integral of J (so J*1 == j_integral on the
    torus); grad_j_l1 is the L^1 norm of the analytic gradient sampled over
    the full periodic box.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown kernel family {family!r}; expected one of {FAMILIES}")
    if not amplitude > 0.0:
        raise ValueError(f"kernel amplitude must be positive, got {amplitude}")

    r = grid.min_image_radius()
    h = grid.spacing
    params: dict = {"amplitude": float(amplitude)}

    if family in ("gaussian", "exponential"):
        if width is None:
            raise ValueError(f"kernel family {family!r} requires a width")
        if not width > 0.0:
            raise ValueError(f"kernel width must be positive, got {width}")
        if width > MAX_WIDTH_FRACTION * grid.edge_length:
            raise ValueError(
                f"kernel width {width} exceeds edge_length/6 = "
                f"{MAX_WIDTH_FRACTION * grid.edge_length}; periodization error "
                "would not be negligible"
            )
        params["width"] = float(width)
        if family == "gaussian":
            samples = amplitude * np.exp(-(r**2) / (2.0 * width**2))
            grad_abs = (r / width**2) * samples
        else:
            samples = amplitude * np.exp(-r / width)
            grad_abs = samples / width
    else:  # mollified_newtonian
        if grid.dim != 3:
            raise ValueError("mollified_newtonian kernel is defined for dim = 3 only")
        if molli_radius is None:
            raise ValueError("mollified_newtonian requires molli_radius")
        if not molli_radius > 0.0:
            raise ValueError(f"molli_radius must be positive, got {molli_radius}")
        if molli_radius < 2.0 * h:
            raise ValueError(
                f"mollification radius {molli_radius} under-resolved: "
                f"requires at least 2 * spacing = {2.0 * h}"
            )
        params["molli_radius"] = float(molli_radius)
        r_clip = np.maximum(r, molli_radius)
        samples = amplitude / (4.0 * np.pi * r_clip)
        # a.e. gradient: Newtonian decay outside the ball, constant inside
        with np.errstate(divide="ignore"):
            outer = amplitude / (4.0 * np.pi * np.where(r > 0, r, 1.0) ** 2)
        grad_abs = np.where(r > molli_radius, outer, 0.0)

    mult = np.fft.rfftn(samples)
    scale = max(float(np.max(np.abs(mult))), 1.0)
    if float(np.max(np.abs(mult.imag))) > 1e-12 * scale:
        raise AssertionError("kernel spectral multiplier is not real; symmetry broken")
    mult_real = np.ascontiguousarray(mult.real)
    mult_real.setflags(write=False)
    samples = np.ascontiguousarray(samples)
    samples.setflags(write=False)

    cv = grid.cell_volume
    j_integral = float(samples.sum() * cv)
    grad_j_l1 = float(grad_abs.sum() * cv)
    if not (np.isfinite(j_integral) and j_integral > 0.0):
        raise ValueError(f"kernel integral must be finite and positive, got {j_integral}")
    if not (np.isfinite(grad_j_l1) and grad_j_l1 > 0.0):
        raise ValueError(f"kernel gradient L1 must be finite and positive, got {grad_j_l1}")

    return Kernel(
        family=family,
        grid=grid,
        params=params,
        samples=samples,
        spectral_multiplier=mult_real,
        j_integral=j_integral,
        grad_j_l1=grad_j_l1,
    )


def convolve(kernel: Kernel, f: Field) -> Field:
    """Periodic convolution J*f via the spectral multiplier."""
    if kernel.grid != f.grid:
        raise ValueError(
            f"kernel grid {kernel.grid} does not match field grid {f.grid}"
        )
    return Field(f.grid, convolve_values(kernel, f.values))


def convolve_values(kernel: Kernel, values: np.ndarray) -> np.ndarray:
    """Array-level convolve for inner loops (no Field wrapping/validation)."""
    g = kernel.grid
    fh = np.fft.rfftn(values)
    return irfft(g, kernel.spectral_multiplier * fh) * g.cell_volume
