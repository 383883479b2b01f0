"""Time integration of the nonlocal conserved gradient flow

    d/dt phi = Laplacian(mu),   mu = F'(phi) - J*phi,

by a first-order convex splitting (backward Euler in F', J*phi explicit):

    phi^{n+1} - dt * Lap F'(phi^{n+1}) = phi^n - dt * Lap (J*phi^n) =: r.

step owns the scheme: per attempt it builds dt_eff |k|^2 = dt |k|^2 and
rhat = (1 + dt |k|^2 J^) phi^n^hat, J^ the kernel's symbol.  The solve,
_attempt_inner_solve, knows no state and no kernel: it solves

    phi^hat + dt_eff |k|^2 F'(phi)^hat = rhat

for the rhat and dt_eff it is given, as the fixed point of a stabilized Picard
map g.  With L_m = max(alpha_bar, max_x F''(phi^m)) one application of g is a
constant-coefficient Helmholtz solve, exact in spectral space:

    (1 + dt_eff L_m |k|^2) g(phi^m)^hat
        = rhat - dt_eff |k|^2 (F'(phi^m) - L_m phi^m)^hat.

Alone it contracts like 1 - min F'' / L_m, which crawls once the separation
margin is small, so the iteration is Anderson-mixed (type II, Walker & Ni
2011): with residuals f_m = g(phi^m) - phi^m and the differences dF, dG of the
last ANDERSON_DEPTH residuals and Picard images,

    phi^{m+1} = g(phi^m) - dG gamma,   gamma = argmin |f_m - dF gamma|_2,

solved through the normal equations, whose Gram matrix gains one row per
iteration; a singular Gram matrix restarts the history.  Every g has the
k = 0 mode of rhat and the mixing is affine, so mass is kept by construction.

Any candidate leaving max|phi| <= 1 - eps_safe is halved back toward the
current iterate (up to MAX_UPDATE_HALVINGS times, else the attempt fails), so
the singular entropy is never evaluated outside (-1, 1); clamping values would
silently corrupt the separation diagnostics.  The attempt converges when the
Picard increment sup|g(phi^m) - phi^m|, measured before mixing and guarding
(a halved candidate moves little even far from a solution), is at most
inner_tol, and returns g(phi^m).  If it does not converge, dt is halved and
the step retried; below dt_min the step fails with the last increment.  The
mean is restored after each accepted step to absorb transform roundoff.

Warm start.  Strict separation makes the trajectory smooth in time, so each
solve starts from a Lagrange extrapolant at t* = t + dt through the current
state and up to HISTORY_DEPTH = 9 earlier accepted ones, copied into the
slots of a ring (`history`, one (HISTORY_DEPTH + 1, *shape) array) by each
accepted step.  Only the state that extended the ring last steps from it;
any other (stepped twice, hand-built, restarted) starts a new ring, cold.
The guess is one product w . ring, zero weights in unused slots.  The order
p starts at the cubic, O(dt^4) from the answer where phi^n is O(dt).  On the
n newest nodes equally spaced (to 1e-12 relative) with t* one full step
ahead, p climbs to p + 1 <= n - 2 while the next backward difference shrinks,
max|del^{p+2} phi^n| < max|del^{p+1} phi^n| on a strided sub-grid, up to
EXTRAPOLATION_ORDER = 8; past that point a higher order's larger Lebesgue
constant would only amplify solve noise.  Equal steps take the tabulated
weights (-1)^j C(p + 1, j + 1); unequal ones (a halving, a step clipped to
t_end) the cubic's w_j = prod_{i != j} (t* - t_i) / (t_j - t_i).  Two cases
start from phi^n instead: a guess outside max|phi| <= 1 - eps_safe, and a
last move sup|phi^n - phi^{n-1}| <= Lambda * inner_tol, Lambda = sum_j |w_j|
(2^{p+1} - 1 at equal dt: 15 for the cubic, 511 for order 8), where the
extrapolant is noise and near equilibrium would inject ~Lambda * inner_tol of
it into every step.  The ring costs ten arrays: 1.3 MB at 128^2.

Scratch.  step runs out of one private workspace per grid (lru-cached on the
Grid, up to four grids) that every attempt of every step overwrites: symbols,
rhat, spectral iterate, F' and Picard buffers, residual, image and candidate
pairs, the Anderson ring and Gram matrix, and the guess.  FFTs and ufuncs
write into it through out=, bit-identical to the allocating forms; nothing
that outlives a call is a view of it.  So step is not reentrant: do not step
one grid's states from several threads at once.  It holds about 22 grid
arrays (2.8 MB at 128^2, 44 MB at 64^3) while the grid is among the last four.

The step's tail.  The state carries phi and its spectrum phi_hat, which the
next rhat reuses; diagnostics builds mu and J*phi where they are read.
phi_hat is the solve's g_hat with its k = 0 entry set to the restored mean,
rfftn(phi) to roundoff.  The dissipation dt ||grad mu||^2 is a Parseval sum
over mu_hat, which the solve fixed: g_hat - phi^n^hat = -dt |k|^2 mu~_hat,
mu~ = F'(phi^m) + L_m (g - phi^m) - J*phi^n, so for k != 0 mu_hat =
-d_hat (1 + dt |k|^2 J^) / (dt |k|^2), d_hat = phi_hat - phi^n^hat, within
L_m * inner_tol of F'(phi) - J*phi: two transforms per inner iteration and
none after.  A halved final candidate (not irfft(g_hat)) is transformed
again and its mu_hat built from F'(phi)^hat - J^ phi_hat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import potential as pot
from .diagnostics import DiagnosticsRow, TimeSeries, make_row
from .grid import Field, Grid, h1_seminorm_sq_of_spectrum, irfft, max_abs
from .kernels import Kernel
from .snapshots import read_snapshot

MAX_UPDATE_HALVINGS = 30
ANDERSON_DEPTH = 5
EXTRAPOLATION_ORDER = 8  # the warm start's highest order; the cubic is the lowest
HISTORY_DEPTH = EXTRAPOLATION_ORDER + 1  # earlier states the order choice reads
ORDER_SAMPLE_POINTS = (256, 8, 8)  # per axis in 1D, 2D, 3D: where the choice looks
_SLOTS = HISTORY_DEPTH + 1  # history ring slots: the current state and the earlier ones


def _by_slot(rows: list[list[int]]) -> np.ndarray:
    """[head, ...]: rows[..., j], node j's (newest first), in slot (head - j) % _SLOTS."""
    node = (np.arange(_SLOTS)[:, None] - np.arange(_SLOTS)) % _SLOTS  # [head, slot]
    return np.ascontiguousarray(np.moveaxis(np.array(rows, dtype=float)[..., node], -2, 0))


# [head, k - 4]: the k-th backward difference at the newest node, up to sign
_DIFFERENCES = _by_slot([[(-1) ** j * math.comb(k, j) for j in range(_SLOTS)]
                         for k in range(4, _SLOTS)])
# [head, q]: the degree-q extrapolant one equal step ahead, (-1)^j C(q + 1, j + 1)
_EQUAL_STEP_WEIGHTS = _by_slot(
    [[(-1) ** j * math.comb(q + 1, j + 1) for j in range(_SLOTS)] for q in range(_SLOTS)])


class StepError(RuntimeError):
    """Inner solver failed to converge at dt_min."""


class InitialDataError(ValueError):
    """Initial values outside InitialData's bounds, found once they are built."""


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
        # the guard's bound 1 - safety_margin, as rounded, must keep F' and F''
        # evaluable: 1 - bound >= SEPARATION_FLOOR (1e-15 itself rounds below)
        if not (1.0 - (1.0 - self.safety_margin) >= pot.SEPARATION_FLOOR
                and self.safety_margin < 1e-6):
            raise ValueError(
                f"safety_margin must be below 1e-6 with 1 - (1 - safety_margin) at "
                f"least the potential's floor {pot.SEPARATION_FLOOR:.0e}, "
                f"got {self.safety_margin}"
            )
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
        if not abs(self.m) < 1.0:  # each check is written so that a NaN fails it
            raise ValueError(f"pure phase mean: |m| = {abs(self.m)} >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.mode in ("constant", "tanh"):
            if not self.noise_amplitude >= 0.0:
                raise ValueError("noise_amplitude must be nonnegative")
            if not abs(self.m) + self.noise_amplitude <= 1.0 - self.delta0:
                raise ValueError(
                    f"amplitude violates the delta0 bound: |m| + a = "
                    f"{abs(self.m) + self.noise_amplitude} > 1 - delta0 = {1.0 - self.delta0}"
                )
        if self.mode == "snapshot" and not self.snapshot_path:
            raise ValueError("snapshot mode requires snapshot_path")
        if self.mode != "snapshot" and self.snapshot_path is not None:
            raise ValueError("snapshot_path is only valid with mode 'snapshot'")


@dataclass(frozen=True)
class SimState:
    t: float
    phi: Field
    phi_hat: np.ndarray  # rfftn(phi) to roundoff, read-only: the next step's rhat
    dissipation_accum: float
    step_count: int
    last_inner_iters: int = 0
    last_dt: float = 0.0
    # the warm start's nodes, shared along one chain of steps; None: a cold start
    history: _History | None = None


def _tanh_profile(grid: Grid, width: float) -> np.ndarray:
    # periodic pair of interfaces along axis 0; values in ~[-1, 1]
    x = grid.coordinate_mesh()[0]
    L = grid.edge_length
    return (
        np.tanh((x - 0.25 * L) / width)
        - np.tanh((x - 0.75 * L) / width)
        - 1.0
    )


class _History:
    """The last _SLOTS accepted phi of one chain of steps, copied into ring
    slots (newest in slot head), and their times newest first.  newest is the
    array it was last extended with: only the state holding it steps from it."""

    def __init__(self, shape: tuple[int, ...]) -> None:
        self.values = np.zeros((_SLOTS,) + shape)  # unused slots weigh 0: keep them finite
        strides = [max(1, n // ORDER_SAMPLE_POINTS[len(shape) - 1]) for n in shape]
        self.sample = self.values[(slice(None),) + tuple(slice(None, None, s) for s in strides)]
        self.times, self.head, self.newest = [], -1, None

    def push(self, t: float, values: np.ndarray) -> None:
        self.head = (self.head + 1) % _SLOTS
        np.copyto(self.values[self.head], values)
        self.times = [t] + self.times[: _SLOTS - 1]
        self.newest = values


class _Workspace:
    """Scratch arrays of one grid: every attempt of every step overwrites
    them, and nothing a call returns is a view of them."""

    def __init__(self, grid: Grid) -> None:
        spectral = grid.k_squared.shape
        self.dt_k2 = np.empty(spectral)
        self.helmholtz = np.empty(spectral)  # 1 + dt k^2 J^, then 1 + dt lam k^2
        self.r_hat = np.empty(spectral, dtype=complex)
        self.g_hat = np.empty(spectral, dtype=complex)
        self.work = np.empty(grid.shape)  # F'(phi) - lam phi
        self.tmp = np.empty(grid.shape)
        self.guess = np.empty(grid.shape)
        # iteration parity picks f, g; (f, g) of the other parity are the last
        self.f = (np.empty(grid.shape), np.empty(grid.shape))
        self.g = (np.empty(grid.shape), np.empty(grid.shape))
        # mixed or halved candidates, alternating so the current iterate survives
        self.cand = (np.empty(grid.shape), np.empty(grid.shape))
        self.d_f = np.empty((ANDERSON_DEPTH, grid.size))
        self.d_g = np.empty_like(self.d_f)
        self.gram = np.empty((ANDERSON_DEPTH, ANDERSON_DEPTH))


@lru_cache(maxsize=4)
def _workspace(grid: Grid) -> _Workspace:
    return _Workspace(grid)


def init_state(
    grid: Grid, kernel: Kernel, p: pot.PotentialParams, initial: InitialData
) -> SimState:
    """Build the t = 0 state and its spectrum."""
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
            raise InitialDataError(f"initial: pure phase mean in snapshot {initial.snapshot_path}")

    amax = max_abs(vals)
    if amax > 1.0 - initial.delta0:
        raise InitialDataError(
            f"initial: initial data violates the delta0 bound: max|phi0| = {amax} > "
            f"{1.0 - initial.delta0}"
        )
    phi = Field(grid, vals)
    phi_hat = np.fft.rfftn(phi.values)
    phi_hat.setflags(write=False)
    return SimState(t=0.0, phi=phi, phi_hat=phi_hat, dissipation_accum=0.0, step_count=0)


def _attempt_inner_solve(
    grid: Grid,
    r_hat: np.ndarray,
    dt_k2: np.ndarray,
    start: np.ndarray,
    cfg: StepperConfig,
    p: pot.PotentialParams,
):
    """Solve phi^ + dt_k2 F'(phi)^ = r_hat on grid from start; dt_k2 = dt_eff
    |k|^2 and r_hat are the scheme's, in rfftn layout, and no input is written.
    Returns (values, values_hat, iters) with fresh values and, unless the final
    candidate was halved, their spectrum g_hat as a fresh array (else None);
    or (None, None, residual)."""
    ws = _workspace(grid)
    helmholtz, g_hat = ws.helmholtz, ws.g_hat

    # Anderson history: differences of residuals f = g - phi and of Picard
    # images g over the last ANDERSON_DEPTH iterations, in ring-buffer slots
    d_f, d_g, gram = ws.d_f, ws.d_g, ws.gram
    added = 0  # columns added since the last restart
    f_prev = g_prev = None

    bound = 1.0 - cfg.safety_margin
    phi, amax = start, max_abs(start)
    for it in range(1, cfg.inner_max_iters + 1):
        lam = max(p.alpha_bar, pot.second_derivative(p, amax))
        work = pot.derivative(p, phi, out=ws.work)
        np.subtract(work, np.multiply(lam, phi, out=ws.tmp), out=work)
        np.fft.rfftn(work, out=g_hat)
        g_hat *= dt_k2  # in place: (r_hat - dt_k2 g_hat) / (1 + lam dt_k2)
        np.subtract(r_hat, g_hat, out=g_hat)
        np.multiply(lam, dt_k2, out=helmholtz)
        helmholtz += 1.0
        g_hat *= np.reciprocal(helmholtz, out=helmholtz)
        g = irfft(grid, g_hat, out=ws.g[it % 2])
        f = np.subtract(g, phi, out=ws.f[it % 2])
        residual = max_abs(f)  # sup norm of the Picard increment
        spare = ws.cand[1] if phi is ws.cand[0] else ws.cand[0]
        cand = g
        if f_prev is not None and residual > cfg.inner_tol:
            slot = added % ANDERSON_DEPTH
            added += 1
            depth = min(added, ANDERSON_DEPTH)
            np.subtract(f, f_prev, out=d_f[slot].reshape(f.shape))
            np.subtract(g, g_prev, out=d_g[slot].reshape(g.shape))
            row = np.einsum("ij,j->i", d_f[:depth], d_f[slot])
            gram[slot, :depth] = row
            gram[:depth, slot] = row
            rhs = np.einsum("ij,j->i", d_f[:depth], f.reshape(-1))
            try:
                gamma = np.linalg.solve(gram[:depth, :depth], rhs)
            except np.linalg.LinAlgError:
                added = 0
            else:
                cand = spare
                np.einsum("i,ij->j", gamma, d_g[:depth], out=cand.reshape(-1))
                np.subtract(g, cand, out=cand)
        f_prev, g_prev = f, g

        amax_cand = max_abs(cand)
        halvings = 0
        while not amax_cand <= bound:  # a NaN candidate fails too
            if halvings == MAX_UPDATE_HALVINGS:
                return None, None, residual
            cand = np.add(phi, cand, out=spare)
            cand *= 0.5
            amax_cand = max_abs(cand)
            halvings += 1
        if residual <= cfg.inner_tol:
            return cand.copy(), (g_hat.copy() if halvings == 0 else None), it
        phi, amax = cand, amax_cand
    return None, None, residual


def _lagrange_weights(nodes, t_star: float) -> list[float]:
    """Weights w_j with sum_j w_j f(t_j) = P(t_star) for the interpolating
    polynomial P of degree len(nodes) - 1."""
    return [math.prod((t_star - t_i) / (t_j - t_i) for i, t_i in enumerate(nodes) if i != j)
            for j, t_j in enumerate(nodes)]


def _extrapolation_order(ring: _History, t_star: float) -> tuple[int, int]:
    """The warm start's order and the count of newest nodes equally spaced with
    t_star one step ahead.  The cubic climbs from p to p + 1 while max|del^{p+2}
    phi^n| < max|del^{p+1} phi^n|, up to EXTRAPOLATION_ORDER and count - 2."""
    h = t_star - ring.times[0]
    t_prev, count = t_star, 0
    for t in ring.times:
        if abs(t_prev - t - h) > 1e-12 * h:
            break
        t_prev, count = t, count + 1
    if count < 6:
        return 3, count
    sample = ring.sample.reshape(_SLOTS, -1)
    sizes = np.abs(np.einsum("ij,jk->ik", _DIFFERENCES[ring.head, : count - 4], sample)).max(axis=1)
    order = 3
    while order < count - 2 and sizes[order - 2] < sizes[order - 3]:
        order += 1
    return order, count


def _warm_start(ring: _History, t_star: float, cfg: StepperConfig,
                out: np.ndarray, tmp: np.ndarray) -> np.ndarray | None:
    """The extrapolant at t_star through the ring's nodes, written into out
    (tmp is scratch), or None to start from phi^n: too few nodes, a last move
    within the noise the weights amplify, or a guess outside the bound."""
    if len(ring.times) < 2:
        return None
    order, count = _extrapolation_order(ring, t_star)
    degree = min(order, len(ring.times) - 1)
    if count > degree:  # the degree + 1 newest nodes are equally spaced
        w, lebesgue = _EQUAL_STEP_WEIGHTS[ring.head, degree], 2.0 ** (degree + 1) - 1.0
    else:  # negative slots wrap
        w = np.zeros(_SLOTS)
        w[ring.head - np.arange(degree + 1)] = _lagrange_weights(ring.times[: degree + 1], t_star)
        lebesgue = float(np.abs(w).sum())
    last_move = max_abs(np.subtract(ring.values[ring.head], ring.values[ring.head - 1], out=tmp))
    if last_move <= lebesgue * cfg.inner_tol:
        return None
    np.dot(w, ring.values.reshape(_SLOTS, -1), out=out.reshape(-1))
    if not max_abs(out) <= 1.0 - cfg.safety_margin:
        return None
    return out


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
    grid = state.phi.grid
    ring = state.history
    if ring is None or ring.newest is not phi_n or ring.times[0] != state.t:
        ring = _History(grid.shape)  # not the newest state of a chain: start a new one
        ring.push(state.t, phi_n)
    ws = _workspace(grid)
    last_residual = np.inf
    while True:
        guess = _warm_start(ring, state.t + dt_try, cfg, out=ws.guess, tmp=ws.tmp)
        # backward Euler: dt_eff = dt, r_hat = (1 + dt |k|^2 J^) phi_hat^n
        dt_k2 = np.multiply(dt_try, grid.k_squared, out=ws.dt_k2)
        helmholtz = np.multiply(dt_k2, kernel.symbol, out=ws.helmholtz)
        helmholtz += 1.0
        r_hat = np.multiply(state.phi_hat, helmholtz, out=ws.r_hat)
        start = phi_n if guess is None else guess
        solved, phi_hat, info = _attempt_inner_solve(grid, r_hat, dt_k2, start, cfg, p)
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
    mass = float(np.add.reduce(phi_n, axis=None)) / phi_n.size  # np.mean's arithmetic
    solved += mass - float(np.add.reduce(solved, axis=None)) / solved.size
    if phi_hat is None:  # a halved candidate is not irfft(g_hat): mu from F'(phi)
        phi_hat = np.fft.rfftn(solved)
        mu_hat = np.fft.rfftn(pot.derivative(p, solved, out=ws.work), out=ws.g_hat)
        mu_hat -= np.multiply(kernel.symbol, phi_hat, out=ws.r_hat)
    else:
        phi_hat.flat[0] = mass * grid.size  # -mu_hat = d_hat (1 + dt k^2 J^) / (dt k^2)
        dt_k2.flat[0] = 1.0  # k = 0 carries no gradient: keep its quotient finite
        factor = np.multiply(dt_k2, kernel.symbol, out=ws.helmholtz)
        factor += 1.0
        mu_hat = np.subtract(phi_hat, state.phi_hat, out=ws.g_hat)
        mu_hat *= np.divide(factor, dt_k2, out=factor)
    phi_hat.setflags(write=False)
    grad_mu_sq = h1_seminorm_sq_of_spectrum(grid, mu_hat, scratch=(ws.dt_k2, ws.helmholtz))
    phi = Field(grid, solved)
    ring.push(state.t + dt_try, phi.values)
    return SimState(
        t=state.t + dt_try,
        phi=phi,
        phi_hat=phi_hat,
        dissipation_accum=state.dissipation_accum + dt_try * grad_mu_sq,
        step_count=state.step_count + 1,
        last_inner_iters=iters,
        last_dt=dt_try,
        history=ring,
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

    def emit(st: SimState, row: DiagnosticsRow) -> None:
        for mon in monitors:
            mon(row, st)
        series.append(row)
        if on_row is not None:
            on_row(row)

    def snap(st: SimState) -> None:
        if on_snapshot is not None:
            on_snapshot(st)

    # the initial row's energy is the baseline, so its residual is exactly 0
    d_base = state.dissipation_accum
    first = make_row(state, kernel, p, 0.0, d_base)
    e_base = first.energy
    emit(state, replace(first, energy_residual=0.0))
    if snapshot_stride > 0:
        snap(state)

    while True:
        remaining = t_end - state.t
        if remaining <= 1e-9 * cfg.dt:
            break
        state = step(state, cfg, kernel, p, dt=min(cfg.dt, remaining))
        final = (t_end - state.t) <= 1e-9 * cfg.dt
        if final or state.step_count % diag_stride == 0:
            emit(state, make_row(state, kernel, p, e_base, d_base))
        if snapshot_stride > 0 and state.step_count % snapshot_stride == 0:
            snap(state)
    return state, series
