"""De Giorgi iteration machinery as executable numerics.

Three layers:

* the geometric-convergence lemma for sequences y_{n+1} <= C b^n y_n^{1+eps},
  whose threshold is theta = C^{-1/eps} b^{-1/eps^2};
* the closed-form constants of the truncation scheme for the logarithmic
  potential: the recursion coefficient (with b = 2^{9/2}, eps = 3/5), the
  admissible level-set-measure threshold, and the window length that ensures
  it;
* space-time level-set measures y_n extracted from stored trajectory
  snapshots over a window [T - W, T], with the window subdivided like the
  scheme's time sequence t_n = t_{n-1} + (W/3)/2^n.

Thresholds here are sufficient conditions with empirically estimated
constants; a measured y_0 above threshold is reported, never asserted as a
failure of the underlying theory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import potential as pot
from .grid import Field, lp_norm
from .snapshots import uniform_stride

#: fixed exponents of the truncation-scheme recursion
RECURSION_BASE = 2.0**4.5
RECURSION_EPS = 0.6


@dataclass(frozen=True)
class DeGiorgiParams:
    """Inputs to the constant calculators.

    c_hat and c_p are empirical interpolation/truncation-Poincare constants
    measured from probes or a trajectory; c_tau bounds the L^infinity-in-time
    L^1-in-space norm of the entropy derivative along the trajectory.
    """

    delta: float
    alpha_bar: float
    grad_j_l1: float
    c_hat: float
    c_p: float
    c_tau: float

    def __post_init__(self) -> None:
        for name in ("delta", "alpha_bar", "grad_j_l1", "c_hat", "c_p", "c_tau"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not self.delta < 0.25:
            raise ValueError(f"delta must be < 1/4, got {self.delta}")

    def _potential(self) -> pot.PotentialParams:
        return pot.PotentialParams(self.alpha_bar, 2.0 * self.alpha_bar)

    def curvature_at_level(self) -> float:
        """F''(1 - 2 delta) from the closed form."""
        return pot.second_derivative(self._potential(), 1.0 - 2.0 * self.delta)

    def slope_at_level(self) -> float:
        """F'(1 - 2 delta) from the closed form."""
        return pot.derivative(self._potential(), 1.0 - 2.0 * self.delta)


# ---------------------------------------------------------------------------
# geometric convergence lemma


@dataclass(frozen=True)
class GeometricDecayReport:
    c: float
    b: float
    eps: float
    y0: float
    theta: float
    threshold_ok: bool
    ns: tuple[int, ...]
    bounds: tuple[float, ...] | None
    iterates: tuple[float, ...] | None
    holds: bool | None


def geometric_decay_bound(
    c: float, b: float, eps: float, y0: float, n_max: int
) -> GeometricDecayReport:
    """Threshold and guaranteed decay for y_{n+1} <= C b^n y_n^{1+eps}.

    When y0 <= theta the guaranteed bounds theta * b^{-n/eps} are returned
    together with the exact equality iteration y_{n+1} = C b^n y_n^{1+eps},
    verified against them pointwise.  When y0 > theta only the threshold
    verdict is reported (the equality iteration may blow up).
    """
    if not (c > 0.0 and b > 1.0 and eps > 0.0):
        raise ValueError(f"require C > 0, b > 1, eps > 0; got C={c}, b={b}, eps={eps}")
    if not y0 >= 0.0:  # a NaN fails too
        raise ValueError(f"y0 must be nonnegative, got {y0}")
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    theta = c ** (-1.0 / eps) * b ** (-1.0 / eps**2)
    ns = tuple(range(n_max + 1))
    if y0 > theta:
        return GeometricDecayReport(
            c=c, b=b, eps=eps, y0=y0, theta=theta, threshold_ok=False,
            ns=ns, bounds=None, iterates=None, holds=None,
        )
    bounds = tuple(theta * b ** (-n / eps) for n in ns)
    iterates = [y0]
    for n in range(n_max):
        iterates.append(c * b**n * iterates[-1] ** (1.0 + eps))
    holds = all(
        y <= bound * (1.0 + 1e-12) for y, bound in zip(iterates, bounds)
    )
    return GeometricDecayReport(
        c=c, b=b, eps=eps, y0=y0, theta=theta, threshold_ok=True,
        ns=ns, bounds=bounds, iterates=tuple(iterates), holds=holds,
    )


# ---------------------------------------------------------------------------
# truncation levels and level-set measures


def level_sequence(delta: float, n_max: int) -> np.ndarray:
    """Truncation levels k_n = 1 - delta - delta/2^n for n = 0..n_max.

    The chain 1 - 2 delta = k_0 < k_1 < ... < 1 - delta is verified in exact
    rational arithmetic (plain float evaluation plateaus past n ~ 52, which
    would falsify the strict inequalities spuriously); the returned values
    are the float64 roundings.
    """
    if not (0.0 < delta < 0.5):
        raise ValueError(f"delta must lie in (0, 1/2), got {delta}")
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    d = Fraction(delta)
    exact = [1 - d - d / 2**n for n in range(n_max + 1)]
    assert exact[0] == 1 - 2 * d
    for n in range(1, n_max + 1):
        if not (1 - 2 * d < exact[n] < 1 - d):
            raise AssertionError(f"level k_{n} escapes (1 - 2 delta, 1 - delta)")
        if not exact[n - 1] < exact[n]:
            raise AssertionError(f"levels not strictly increasing at n={n}")
    return np.array([float(k) for k in exact])


@dataclass(frozen=True)
class LevelSetMeasures:
    delta: float
    levels: np.ndarray
    y: np.ndarray
    interval_starts: np.ndarray  # t_{n-1} for each n
    n_cap: int
    n_used: int
    stride: float
    window: tuple[float, float]


def _sorted_uniform(snapshots):
    snaps = sorted(((float(t), f) for t, f in snapshots), key=lambda p: p[0])
    if len(snaps) < 2:
        raise ValueError("need at least two snapshots to measure a window")
    times = np.array([t for t, _ in snaps])
    stride = uniform_stride(times)
    if stride is None:
        raise ValueError("snapshots are not uniformly strided")
    return snaps, times, stride


def level_set_measures(snapshots, delta: float, n_max: int) -> LevelSetMeasures:
    """Space-time measures y_n = |{(x,t) in A_n x I_n}| from snapshots.

    The snapshot span [T - W, T] is subdivided like the scheme: t_{-1} = T - W
    and t_n = t_{n-1} + (W/3)/2^n, with I_n = [t_{n-1}, T].  Each snapshot
    contributes its superlevel-set volume {phi >= k_n} (boundary included)
    times the stride, treating the integrand as piecewise constant in time.
    n is capped at the stride-resolvable level floor(log2((W/3)/stride)).
    """
    snaps, times, stride = _sorted_uniform(snapshots)
    t_first = times[0]
    t_last = times[-1]
    window = (float(t_first), float(t_last))
    tau_eff = (t_last - t_first) / 3.0
    n_cap = max(0, int(math.floor(math.log2(tau_eff / stride)))) if tau_eff >= stride else 0
    n_used = min(n_max, n_cap)
    levels = level_sequence(delta, n_used)

    starts = np.empty(n_used + 1)
    t_prev = t_first  # t_{-1}
    for n in range(n_used + 1):
        starts[n] = t_prev  # I_n = [t_{n-1}, T]
        t_prev = t_prev + tau_eff / 2.0**n

    grid = snaps[0][1].grid
    cv = grid.cell_volume
    t_tol = 1e-12 * max(1.0, abs(t_last))
    y = np.zeros(n_used + 1)
    for t, f in snaps:
        for n in range(n_used + 1):
            if t >= starts[n] - t_tol:
                count = int(np.count_nonzero(f.values >= levels[n]))
                y[n] += count * cv * stride
    return LevelSetMeasures(
        delta=delta,
        levels=levels,
        y=y,
        interval_starts=starts,
        n_cap=n_cap,
        n_used=n_used,
        stride=stride,
        window=window,
    )


# ---------------------------------------------------------------------------
# closed-form constants


def admissible_window_length(params: DeGiorgiParams) -> float:
    """Window length making the measured y_0 bound fall under the threshold:

    2^-20 delta^5 F''(1-2d)^4 F'(1-2d)
    / (3 c_tau ||grad J||_1^5 c_hat^{3/2} (1 + c_p^2)^{3/2}).
    """
    fpp = params.curvature_at_level()
    fp = params.slope_at_level()
    num = 2.0**-20 * params.delta**5 * fpp**4 * fp
    den = (
        3.0
        * params.c_tau
        * params.grad_j_l1**5
        * params.c_hat**1.5
        * (1.0 + params.c_p**2) ** 1.5
    )
    return num / den


@dataclass(frozen=True)
class RecursionCoefficients:
    c_rec: float
    b: float
    eps: float
    threshold: float


def recursion_coefficient(params: DeGiorgiParams) -> RecursionCoefficients:
    """Coefficient of y_{n+1} <= C 2^{(9/2)n} y_n^{8/5} and the admissible y_0.

    C = 2^{9/2} ||grad J||_1^3 c_hat^{9/10} (1+c_p^2)^{9/10}
        / (delta^3 F''(1-2d)^{12/5}),
    threshold = 2^-20 delta^5 F''(1-2d)^4
        / (||grad J||_1^5 c_hat^{3/2} (1+c_p^2)^{3/2}).
    """
    fpp = params.curvature_at_level()
    c_rec = (
        RECURSION_BASE
        * params.grad_j_l1**3
        * params.c_hat**0.9
        * (1.0 + params.c_p**2) ** 0.9
        / (params.delta**3 * fpp**2.4)
    )
    threshold = (
        2.0**-20
        * params.delta**5
        * fpp**4
        / (params.grad_j_l1**5 * params.c_hat**1.5 * (1.0 + params.c_p**2) ** 1.5)
    )
    return RecursionCoefficients(
        c_rec=c_rec, b=RECURSION_BASE, eps=RECURSION_EPS, threshold=threshold
    )


def estimate_c_tau(snapshots, p: pot.PotentialParams) -> float:
    """Trajectory estimate of the entropy-derivative bound: max over stored
    times of the L^1 norm of F'(phi(t))."""
    best = 0.0
    for _, f in snapshots:
        best = max(best, lp_norm(Field(f.grid, pot.derivative(p, f.values)), 1.0))
    if best == 0.0:
        raise ValueError("trajectory has identically vanishing entropy derivative")
    return best


# ---------------------------------------------------------------------------
# trajectory-level verification


@dataclass(frozen=True)
class TrajectorySideCheck:
    measures: LevelSetMeasures
    threshold: float
    threshold_ok: bool
    bounds: tuple[float, ...] | None
    pointwise_ok: bool | None
    superlevel_measure: float
    separated: bool


@dataclass(frozen=True)
class TrajectoryCheck:
    params: DeGiorgiParams
    coefficients: RecursionCoefficients
    window_length: float
    upper: TrajectorySideCheck
    lower: TrajectorySideCheck


def _negated(snapshots):
    return [(t, Field(f.grid, -f.values)) for t, f in snapshots]


def _side_check(
    snapshots, params: DeGiorgiParams, coeff: RecursionCoefficients, n_max: int
) -> TrajectorySideCheck:
    """One phase of the trajectory check on time-sorted snapshots."""
    meas = level_set_measures(snapshots, params.delta, n_max)
    y0 = float(meas.y[0])
    ok = y0 <= coeff.threshold * (1.0 + 1e-12)
    bounds = None
    pointwise = None
    if ok:
        report = geometric_decay_bound(
            coeff.c_rec, coeff.b, coeff.eps, y0, meas.n_used
        )
        bounds = report.bounds
        pointwise = all(
            ym <= bn * (1.0 + 1e-12) for ym, bn in zip(meas.y, bounds)
        )
    # measure of the limiting superlevel set {phi >= 1 - delta} over the window
    cv = snapshots[0][1].grid.cell_volume
    lim = 1.0 - params.delta
    superlevel = sum(
        int(np.count_nonzero(f.values >= lim)) * cv * meas.stride
        for _, f in snapshots
    )
    return TrajectorySideCheck(
        measures=meas,
        threshold=coeff.threshold,
        threshold_ok=ok,
        bounds=bounds,
        pointwise_ok=pointwise,
        superlevel_measure=float(superlevel),
        separated=superlevel == 0.0,
    )


def verify_scheme_on_trajectory(
    snapshots, params: DeGiorgiParams, n_max: int = 8
) -> TrajectoryCheck:
    """Measure y_n over the snapshots' time span, compare against the scheme's
    bound sequence and threshold, and run the mirrored check on -phi for the
    lower phase."""
    snaps = sorted(((float(t), f) for t, f in snapshots), key=lambda pair: pair[0])
    coeff = recursion_coefficient(params)
    upper = _side_check(snaps, params, coeff, n_max)
    lower = _side_check(_negated(snaps), params, coeff, n_max)
    return TrajectoryCheck(
        params=params,
        coefficients=coeff,
        window_length=admissible_window_length(params),
        upper=upper,
        lower=lower,
    )
