"""Interaction kernels: discretization, spectral symbol, convolution.

Kernels are sampled at nearest-image distance on the grid and transformed
once into their symbol, cell_volume * rfftn(samples), the one place the
quadrature scale enters: symbol * f^ is the transform of the integral J*f on
the torus, and every spectral use of J reads Kernel.symbol.  Even symmetry
J(x) = J(-x) holds exactly on the grid by construction, which makes the symbol
real.  convolve_values is the one convolution body, for arrays;
convolve wraps it for Fields on the kernel's grid.  A Kernel compares and
hashes by what built it (family, grid, params), not by its arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Field, Grid, irfft, max_abs

FAMILIES = ("gaussian", "exponential", "mollified_newtonian")

# Nearest-image sampling truncates the kernel at L/2 per axis; keeping the
# width at or below L/6 makes that tail negligible for the built-in families.
MAX_WIDTH_FRACTION = 1.0 / 6.0


@dataclass(frozen=True)
class Kernel:
    family: str
    grid: Grid
    params: dict
    samples: np.ndarray = field(compare=False)
    symbol: np.ndarray = field(compare=False)  # cell_volume * rfftn(samples), real
    j_integral: float = field(compare=False)
    grad_j_l1: float = field(compare=False)

    def __hash__(self) -> int:
        return hash((self.family, self.grid, tuple(sorted(self.params.items()))))


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
    the full periodic box.  The gaussian and exponential families read width,
    mollified_newtonian reads molli_radius; passing the other is an error.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown kernel family {family!r}; expected one of {FAMILIES}")
    if not amplitude > 0.0:
        raise ValueError(f"kernel amplitude must be positive, got {amplitude}")

    r = grid.min_image_radius()
    h = grid.spacing
    params: dict = {"amplitude": float(amplitude)}

    if family in ("gaussian", "exponential"):
        if molli_radius is not None:
            raise ValueError(f"kernel family {family!r} takes no molli_radius")
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
        if width is not None:
            raise ValueError("kernel family 'mollified_newtonian' takes no width")
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

    cv = grid.cell_volume
    mult = np.fft.rfftn(samples)
    scale = max(float(np.max(np.abs(mult))), 1.0)
    if max_abs(mult.imag) > 1e-12 * scale:
        raise AssertionError("kernel spectral symbol is not real; symmetry broken")
    symbol = cv * mult.real
    symbol.setflags(write=False)
    samples = np.ascontiguousarray(samples)
    samples.setflags(write=False)

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
        symbol=symbol,
        j_integral=j_integral,
        grad_j_l1=grad_j_l1,
    )


def convolve(kernel: Kernel, f: Field) -> Field:
    """Periodic convolution J*f via the kernel's spectral symbol."""
    if kernel.grid != f.grid:
        raise ValueError(
            f"kernel grid {kernel.grid} does not match field grid {f.grid}"
        )
    return Field(f.grid, convolve_values(kernel, f.values))


def convolve_values(kernel: Kernel, values: np.ndarray) -> np.ndarray:
    """Array-level convolve for inner loops (no Field wrapping/validation):
    J*f as a fresh array."""
    return irfft(kernel.grid, kernel.symbol * np.fft.rfftn(values))
