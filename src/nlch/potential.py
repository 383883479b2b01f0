"""Logarithmic mixing potential and its closed-form companions.

    value(s)             = (a/2) * ((1+s) ln(1+s) + (1-s) ln(1-s))
    derivative(s)        = (a/2) * ln((1+s)/(1-s)) = a * artanh(s)
    second_derivative(s) = a / (1 - s^2)
    inverse_derivative(w)= tanh(w/a)

with a = alpha_bar.  The derivative blows up at +-1, which is what confines
the phase variable to (-1, 1); evaluation is exact-precision friendly down to
1 - |s| = 1e-15 and errors out below that, or on a NaN, instead of saturating.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import max_abs

# Closest admissible approach to the pure phases before evaluation refuses.
SEPARATION_FLOOR = 1e-15


class PotentialDomainError(ValueError):
    """Raised when the potential is evaluated at or beyond the pure phases."""


@dataclass(frozen=True)
class PotentialParams:
    """alpha_bar scales the convex entropy; alpha0 > alpha_bar is carried only
    for reporting the double-well form value(s) - alpha0*s^2/2."""

    alpha_bar: float
    alpha0: float

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha_bar < self.alpha0):
            raise ValueError(
                f"require 0 < alpha_bar < alpha0, got alpha_bar={self.alpha_bar}, "
                f"alpha0={self.alpha0}"
            )


def _as_array(s) -> tuple[np.ndarray, bool]:
    arr = np.asarray(s, dtype=np.float64)
    return arr, arr.ndim == 0


def _maybe_scalar(arr: np.ndarray, scalar: bool):
    return float(arr) if scalar else arr


def _xlogx(x: np.ndarray) -> np.ndarray:
    """x ln x on x >= 0, with the continuous limit 0 at x = 0."""
    out = np.log(x, out=np.zeros_like(x), where=x > 0.0)
    out *= x
    return out


def value(p: PotentialParams, s):
    """Potential value on [-1, 1]; endpoints by continuity (alpha_bar*ln 2).
    Outside [-1, 1] or on a NaN it raises PotentialDomainError."""
    arr, scalar = _as_array(s)
    amax = max_abs(arr)
    if not amax <= 1.0:  # a NaN fails too
        raise PotentialDomainError(f"potential argument outside [-1, 1]: max |s| = {amax}")
    # out= keeps 0-d inputs as arrays, so the in-place updates below apply
    out = _xlogx(np.add(1.0, arr, out=np.empty_like(arr)))
    out += _xlogx(np.subtract(1.0, arr, out=np.empty_like(arr)))
    out *= 0.5 * p.alpha_bar
    return _maybe_scalar(out, scalar)


def _check_open_interval(amax: float) -> None:
    if not 1.0 - amax >= SEPARATION_FLOOR:  # a NaN fails too
        raise PotentialDomainError(
            f"potential derivative evaluated too close to the pure phases: "
            f"1 - max|s| = {1.0 - amax:.3e} (floor {SEPARATION_FLOOR:.0e}); "
            "separation lost upstream"
        )


def derivative(p: PotentialParams, s, out: np.ndarray | None = None):
    """First derivative; odd, strictly increasing, singular at +-1.  With out
    (a float64 array of s's shape) the values are written there and out is
    returned."""
    arr, scalar = _as_array(s)
    _check_open_interval(max_abs(arr))
    out = np.arctanh(arr, out=out)
    out *= p.alpha_bar  # in place for arrays; a 0-d input gives a scalar
    return _maybe_scalar(out, scalar)


def second_derivative(p: PotentialParams, s):
    """Second derivative; even, >= alpha_bar, minimum at 0.  A Python float (the
    inner solve's L_m, once per iteration) skips the arrays, bit-identically."""
    if type(s) is float:
        _check_open_interval(abs(s))
        return p.alpha_bar / ((1.0 - s) * (1.0 + s))
    arr, scalar = _as_array(s)
    _check_open_interval(max_abs(arr))
    out = p.alpha_bar / ((1.0 - arr) * (1.0 + arr))
    return _maybe_scalar(out, scalar)


def inverse_derivative(p: PotentialParams, w):
    """Inverse of the derivative: maps all of R into (-1, 1).

    For |w| beyond the derivative's value at the separation floor the float64
    tanh saturates to +-1 exactly; the result is clamped to the closest
    admissible interior point so downstream derivative evaluation stays legal.
    """
    arr, scalar = _as_array(w)
    bound = 1.0 - SEPARATION_FLOOR
    out = np.asarray(arr / p.alpha_bar)  # 0-d: the scalar quotient as an array
    np.tanh(out, out=out)
    np.maximum(out, -bound, out=out)  # in place: np.clip costs twice as much
    np.minimum(out, bound, out=out)
    return _maybe_scalar(out, scalar)


@dataclass(frozen=True)
class EndpointAsymptoticsReport:
    """Scaled derivative growth toward the pure phases.

    curvature_scaled[i] = delta * second_derivative(1 - 2 delta)  (-> alpha_bar/4)
    slope_scaled[i]     = derivative(1 - 2 delta) / |ln delta|    (-> alpha_bar/2)
    with the mirrored evaluations taken at -1 + 2 delta.
    """

    deltas: tuple[float, ...]
    curvature_scaled: tuple[float, ...]
    slope_scaled: tuple[float, ...]
    curvature_scaled_mirror: tuple[float, ...]
    slope_scaled_mirror: tuple[float, ...]
    curvature_target: float
    slope_target: float
    curvature_converged: bool
    slope_converged: bool


def check_endpoint_asymptotics(
    p: PotentialParams, deltas
) -> EndpointAsymptoticsReport:
    """Evaluate the endpoint growth ratios and flag 1% convergence at the
    smallest delta."""
    ds = [float(d) for d in deltas]
    if not ds:
        raise ValueError("need at least one delta")
    # F' and F'' are evaluated at 1 - 2 delta as rounded: it must keep the floor
    if any(not (0.0 < d <= 0.1 and 1.0 - (1.0 - 2.0 * d) >= SEPARATION_FLOOR) for d in ds):
        raise ValueError(f"deltas must lie in (0, 0.1] with 1 - (1 - 2 delta) at least "
                         f"the potential's floor {SEPARATION_FLOOR:.0e}, got {ds}")

    curv, slope, curv_m, slope_m = [], [], [], []
    for d in ds:
        s_up = 1.0 - 2.0 * d
        s_lo = -1.0 + 2.0 * d
        curv.append(d * second_derivative(p, s_up))
        slope.append(derivative(p, s_up) / abs(np.log(d)))
        curv_m.append(d * second_derivative(p, s_lo))
        slope_m.append(abs(derivative(p, s_lo)) / abs(np.log(d)))

    curvature_target = p.alpha_bar / 4.0
    slope_target = p.alpha_bar / 2.0
    i_min = int(np.argmin(ds))
    curvature_converged = abs(curv[i_min] / curvature_target - 1.0) <= 0.01
    slope_converged = abs(slope[i_min] / slope_target - 1.0) <= 0.01

    return EndpointAsymptoticsReport(
        deltas=tuple(ds),
        curvature_scaled=tuple(curv),
        slope_scaled=tuple(slope),
        curvature_scaled_mirror=tuple(curv_m),
        slope_scaled_mirror=tuple(slope_m),
        curvature_target=curvature_target,
        slope_target=slope_target,
        curvature_converged=curvature_converged,
        slope_converged=slope_converged,
    )
