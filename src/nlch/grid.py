"""Periodic grid geometry, scalar fields, and spectral/quadrature primitives.

The box is [0, L)^dim sampled on N points per axis (N a power of two), so all
differentiation and convolution can go through real-to-complex FFTs.  Spatial
integrals use midpoint quadrature, values * cell_volume, which on the torus is
the trapezoidal rule and is spectrally accurate for smooth integrands.

Wavenumbers are built in one place, the Grid's cached rfftn-layout symbols
k_squared, deriv_wavenumbers and h1_symbol (the H^1 seminorm by Parseval);
every spectral operation of the package reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, edge_length)^dim.

    dim must be 1, 2 or 3; n_per_axis a power of two >= 4 (FFT friendly and
    leaves a well-defined Nyquist column).
    """

    dim: int
    n_per_axis: int
    edge_length: float

    def __post_init__(self) -> None:
        if self.dim not in (1, 2, 3):
            raise ValueError(f"grid dim must be 1, 2 or 3, got {self.dim}")
        if self.n_per_axis < 4 or not _is_power_of_two(self.n_per_axis):
            raise ValueError(
                f"n_per_axis must be a power of two >= 4, got {self.n_per_axis}"
            )
        if not (self.edge_length > 0.0 and np.isfinite(self.edge_length)):
            raise ValueError(f"edge_length must be positive, got {self.edge_length}")

    @property
    def spacing(self) -> float:
        return self.edge_length / self.n_per_axis

    @cached_property
    def cell_volume(self) -> float:
        return (self.edge_length / self.n_per_axis) ** self.dim

    @property
    def volume(self) -> float:
        return self.edge_length**self.dim

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return (self.n_per_axis,) * self.dim

    @cached_property
    def size(self) -> int:
        return self.n_per_axis**self.dim

    def axis_coordinates(self) -> np.ndarray:
        """Sample positions i*h along one axis."""
        return np.arange(self.n_per_axis) * self.spacing

    def coordinate_mesh(self) -> tuple[np.ndarray, ...]:
        x = self.axis_coordinates()
        return tuple(np.meshgrid(*([x] * self.dim), indexing="ij"))

    def min_image_radius(self) -> np.ndarray:
        """Distance from the origin under periodic wrapping (nearest image)."""
        n = self.n_per_axis
        idx = np.arange(n)
        d = np.minimum(idx, n - idx) * self.spacing
        mesh = np.meshgrid(*([d] * self.dim), indexing="ij")
        return np.sqrt(sum(m**2 for m in mesh))

    # -- spectral layout helpers (rfftn along the last axis) --

    def _axis_wavenumbers(self, axis: int, zero_nyquist: bool) -> np.ndarray:
        n = self.n_per_axis
        freq = np.fft.rfftfreq if axis == self.dim - 1 else np.fft.fftfreq
        k = 2.0 * np.pi * freq(n, d=self.spacing)
        if zero_nyquist:
            k[n // 2] = 0.0  # Nyquist index in both layouts
        shape = [1] * self.dim
        shape[axis] = k.size
        return k.reshape(shape)

    @cached_property
    def k_squared(self) -> np.ndarray:
        """|k|^2 in rfftn layout, Nyquist included (even-derivative symbol)."""
        return sum(
            self._axis_wavenumbers(axis, zero_nyquist=False) ** 2 for axis in range(self.dim)
        )

    @cached_property
    def deriv_wavenumbers(self) -> tuple[np.ndarray, ...]:
        """First-derivative wavenumbers with the Nyquist coefficient zeroed."""
        return tuple(
            self._axis_wavenumbers(axis, zero_nyquist=True) for axis in range(self.dim)
        )

    @cached_property
    def h1_symbol(self) -> np.ndarray:
        """Parseval weight times |k|^2 from deriv_wavenumbers, the symbol of
        h1_seminorm_sq: interior last-axis columns stand for a conjugate pair
        and weigh 2, column 0 and the Nyquist column weigh 1."""
        k2 = sum(k**2 for k in self.deriv_wavenumbers)
        weight = np.full(k2.shape[-1], 2.0)
        weight[0] = weight[-1] = 1.0
        return weight * k2

    @cached_property
    def fft_axes(self) -> tuple[int, ...]:
        return tuple(range(self.dim))


def max_abs(a: np.ndarray) -> float:
    """max|a| without the |a| temporary; 0 for an empty array, nan if a holds
    a NaN.  Calls the reductions behind ndarray.max/min without the wrappers."""
    if not a.size:
        return 0.0
    hi = float(np.maximum.reduce(a, axis=None))
    lo = -float(np.minimum.reduce(a, axis=None))
    return lo if lo > hi else hi


def irfft(grid: Grid, spectral: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse real FFT back onto the grid shape, written into out if given."""
    return np.fft.irfftn(spectral, s=grid.shape, axes=grid.fft_axes, out=out)


@dataclass(frozen=True, eq=False)
class Field:
    """Real scalar samples on a Grid.  Values are frozen after construction;
    every public operation returns a new Field.  All values must be finite."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if arr.shape != self.grid.shape:
            raise ValueError(
                f"field shape {arr.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.logical_and.reduce(np.isfinite(arr), axis=None):
            raise ValueError("field contains non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "Field":
        return cls(grid, np.full(grid.shape, float(value)))


def mean(f: Field) -> float:
    """Integral mean (sum * cell_volume / volume == arithmetic mean), as
    np.mean computes it: the pairwise sum divided by the sample count."""
    return float(np.add.reduce(f.values, axis=None)) / f.values.size


def lp_norm(f: Field, p: float) -> float:
    """L^p norm with midpoint quadrature; p = inf gives the sup norm."""
    if p == np.inf or p == float("inf"):
        return max_abs(f.values)
    if not p >= 1.0:
        raise ValueError(f"lp_norm requires p >= 1 or p = inf, got {p}")
    cv = f.grid.cell_volume
    return float((np.abs(f.values) ** p).sum() * cv) ** (1.0 / p)


def gradient(f: Field) -> tuple[Field, ...]:
    """Spectral gradient; exact for band-limited fields.

    Odd-derivative convention: the Nyquist coefficient is zeroed so a real
    input maps to a real derivative without asymmetric imaginary leakage.
    """
    g = f.grid
    fh = np.fft.rfftn(f.values)
    comps = []
    for axis in range(g.dim):
        dh = (1j * g.deriv_wavenumbers[axis]) * fh
        comps.append(Field(g, irfft(g, dh)))
    return tuple(comps)


def fd_gradient(f: Field) -> tuple[Field, ...]:
    """Centered second-order finite differences with periodic wrap.

    For truncated (kinked) fields this is the right tool: spectral
    differentiation loses its accuracy advantage there.
    """
    g = f.grid
    two_h = 2.0 * g.spacing
    comps = []
    for axis in range(g.dim):
        d = (np.roll(f.values, -1, axis=axis) - np.roll(f.values, 1, axis=axis)) / two_h
        comps.append(Field(g, d))
    return tuple(comps)


def h1_seminorm_sq(f: Field) -> float:
    """Squared L^2 norm of gradient(f), by Parseval on the rfftn half-spectrum
    weighted by grid.h1_symbol."""
    return h1_seminorm_sq_of_spectrum(f.grid, np.fft.rfftn(f.values))


def h1_seminorm_sq_of_spectrum(
    grid: Grid, f_hat: np.ndarray, scratch: tuple[np.ndarray, np.ndarray] | None = None
) -> float:
    """h1_seminorm_sq of the field whose rfftn is f_hat.  scratch, two real
    arrays of k_squared's shape, holds the weighted squares if given."""
    if scratch is None:
        scratch = (np.empty(grid.k_squared.shape), np.empty(grid.k_squared.shape))
    sq, sq_imag = scratch
    np.multiply(f_hat.real, f_hat.real, out=sq)
    sq += np.multiply(f_hat.imag, f_hat.imag, out=sq_imag)
    sq *= grid.h1_symbol
    return float(np.sum(sq)) * grid.cell_volume / grid.size
