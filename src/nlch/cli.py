"""Command-line shell: simulate / equilibrium / degiorgi / constants /
lemma / potential-check.

Exit codes: 0 success, 1 usage or configuration error, 2 numerical failure,
3 I/O failure.  Failures print exactly one machine-parsable line to stderr:
`error: <kind>: <message>`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import degiorgi as dg
from . import diagnostics as diag
from . import dynamics as dyn
from . import equilibrium as eq
from . import potential as pot
from . import snapshots as snap
from .config import ConfigError, load_config
from .grid import Field, mean


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit(2); spec wants 1
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="nlch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the dynamics and emit CSV + snapshots")
    p_sim.add_argument("config")

    p_eq = sub.add_parser("equilibrium", help="solve the mass-constrained stationary state")
    p_eq.add_argument("config")
    p_eq.add_argument("--guess", default=None, help="snapshot file used as the initial iterate")
    p_eq.add_argument("--tol", type=float, default=1e-12)
    p_eq.add_argument("--max-iters", type=int, default=500)
    p_eq.add_argument("--omega", type=float, default=0.5)

    p_dg = sub.add_parser("degiorgi", help="measure level-set decay on stored snapshots")
    p_dg.add_argument("config")
    p_dg.add_argument("--snapshots", required=True, help="directory of *.nlch files")

    p_const = sub.add_parser("constants", help="print the truncation-scheme constants")
    p_const.add_argument("config")
    p_const.add_argument("--delta", type=float, required=True)
    p_const.add_argument("--c-p", type=float, required=True, dest="c_p")
    p_const.add_argument("--c-tau", type=float, required=True, dest="c_tau")
    p_const.add_argument("--c-hat", type=float, required=True, dest="c_hat")

    p_lem = sub.add_parser("lemma", help="geometric-convergence bound table")
    p_lem.add_argument("--C", type=float, required=True, dest="c")
    p_lem.add_argument("--b", type=float, required=True)
    p_lem.add_argument("--eps", type=float, required=True)
    p_lem.add_argument("--y0", type=float, required=True)
    p_lem.add_argument("--n", type=int, required=True)

    p_pc = sub.add_parser("potential-check", help="endpoint growth asymptotics report")
    p_pc.add_argument("config")
    p_pc.add_argument("--deltas", default="1e-2,1e-4,1e-6,1e-8",
                      help="comma-separated list in (0, 0.1]")

    return parser


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    grid = cfg.make_grid()
    kernel = cfg.make_kernel(grid)
    p = cfg.make_potential()
    stepper = cfg.make_stepper()
    state = dyn.init_state(grid, kernel, p, cfg.make_initial())

    outdir = Path(cfg.output.directory)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / "timeseries.csv"

    monitors = dyn.standard_monitors(mean(state.phi), stepper)
    with open(csv_path, "w", encoding="utf-8") as handle:
        handle.write(diag.csv_header() + "\n")

        def on_row(row):
            handle.write(row.to_csv() + "\n")

        def on_snapshot(st):
            snap.write_snapshot(st.phi, st.t, outdir / f"snapshot_{st.step_count:08d}.nlch")

        state, series = dyn.run(
            state,
            cfg.run.t_end,
            stepper,
            kernel,
            p,
            monitors=monitors,
            diag_stride=cfg.output.csv_stride,
            snapshot_stride=cfg.output.snapshot_stride,
            on_row=on_row,
            on_snapshot=on_snapshot if cfg.output.snapshot_stride > 0 else None,
        )
    snap.write_snapshot(state.phi, state.t, outdir / snap.FINAL_SNAPSHOT_NAME)
    margin = min(r.delta_sep for r in series.rows) if len(series) else float("nan")
    print(f"t_final = {_fmt(state.t)}")
    print(f"steps = {state.step_count}")
    print(f"rows = {len(series)}")
    print(f"min_delta_sep = {_fmt(margin)}")
    print(f"csv = {csv_path}")
    return 0


def _cmd_equilibrium(args) -> int:
    cfg = load_config(args.config)
    grid = cfg.make_grid()
    kernel = cfg.make_kernel(grid)
    p = cfg.make_potential()
    if args.guess is not None:
        guess, _ = snap.read_snapshot(args.guess, expected_grid=grid)
        m = mean(guess)
    else:
        m = cfg.initial.m
        guess = Field.constant(grid, m)
    result = eq.solve_stationary(
        kernel, p, m, guess, tol=args.tol, max_iters=args.max_iters, omega=args.omega
    )
    outdir = Path(cfg.output.directory)
    outdir.mkdir(parents=True, exist_ok=True)
    snap_path = outdir / "equilibrium.nlch"
    snap.write_snapshot(result.phi_inf, 0.0, snap_path)
    print(f"converged = {str(result.converged).lower()}")
    print(f"iterations = {result.iterations}")
    print(f"mu_inf = {_fmt(result.mu_inf)}")
    print(f"residual_linf = {_fmt(result.residual_linf)}")
    print(f"mass_error = {_fmt(result.mass_error)}")
    print(f"separation_margin = {_fmt(result.separation_margin)}")
    print(f"snapshot = {snap_path}")
    if not result.converged:
        raise dyn.StepError(f"stationary solver did not converge in {args.max_iters} iterations")
    return 0


def _cmd_degiorgi(args) -> int:
    cfg = load_config(args.config)
    grid = cfg.make_grid()
    kernel = cfg.make_kernel(grid)
    p = cfg.make_potential()
    snaps = snap.read_snapshot_dir(args.snapshots, expected_grid=grid)
    window = cfg.degiorgi.window if cfg.degiorgi.window > 0.0 else None
    if window is not None:
        t_last = snaps[-1][0]
        snaps = [(t, f) for t, f in snaps if t >= t_last - window * (1.0 + 1e-12)]

    # trajectory estimates for the empirical constants
    margin = min(diag.separation_margin(f) for _, f in snaps)
    if margin <= 0.0:
        raise dyn.StepError("trajectory is not separated; level-set measures are meaningless")
    m_bar = mean(snaps[0][1])
    delta_hat = (1.0 - abs(m_bar)) / 4.0
    rho_lo = 1.0 - 2.0 * delta_hat
    rho_hi = 1.0 - margin
    if rho_hi <= rho_lo:
        raise dyn.StepError(
            f"no admissible truncation range: 1 - 2*delta_hat = {rho_lo} >= 1 - margin = {rho_hi}"
        )
    rhos = np.linspace(rho_lo, rho_hi, 8)
    stride = max(1, len(snaps) // 20)
    sweep = diag.poincare_sweep(snaps[::stride], rhos)
    c_tau = dg.estimate_c_tau(snaps, p)
    c_hat = diag.gn_constant_estimate(grid, n_probes=50, seed=0)
    params = dg.DeGiorgiParams(
        delta=cfg.degiorgi.delta,
        alpha_bar=p.alpha_bar,
        grad_j_l1=kernel.grad_j_l1,
        c_hat=c_hat,
        c_p=sweep.c_p_est,
        c_tau=c_tau,
    )
    check = dg.verify_scheme_on_trajectory(snaps, params, n_max=cfg.degiorgi.n_max)

    print(f"snapshots = {len(snaps)}")
    print(f"delta = {_fmt(params.delta)}")
    print(f"grad_j_l1 = {_fmt(params.grad_j_l1)}")
    print(f"c_hat = {_fmt(params.c_hat)}")
    print(f"c_p = {_fmt(params.c_p)}")
    print(f"c_tau = {_fmt(params.c_tau)}")
    print(f"tau_tilde = {_fmt(check.window_length)}")
    print(f"C_rec = {_fmt(check.coefficients.c_rec)}")
    print(f"b = {_fmt(check.coefficients.b)}")
    print(f"eps = {_fmt(check.coefficients.eps)}")
    print(f"y0_threshold = {_fmt(check.coefficients.threshold)}")
    for label, side in (("upper", check.upper), ("lower", check.lower)):
        meas = side.measures
        print(f"[{label}] n_cap = {meas.n_cap}  n_used = {meas.n_used}")
        print(f"[{label}] threshold_ok = {str(side.threshold_ok).lower()}")
        print(f"[{label}] superlevel_measure = {_fmt(side.superlevel_measure)}")
        print(f"[{label}] separated = {str(side.separated).lower()}")
        for n in range(meas.n_used + 1):
            bound = side.bounds[n] if side.bounds is not None else float("nan")
            print(
                f"[{label}] n={n} k={_fmt(meas.levels[n])} y={_fmt(meas.y[n])} "
                f"bound={_fmt(bound)}"
            )
    return 0


def _cmd_constants(args) -> int:
    cfg = load_config(args.config)
    grid = cfg.make_grid()
    kernel = cfg.make_kernel(grid)
    p = cfg.make_potential()
    params = dg.DeGiorgiParams(
        delta=args.delta,
        alpha_bar=p.alpha_bar,
        grad_j_l1=kernel.grad_j_l1,
        c_hat=args.c_hat,
        c_p=args.c_p,
        c_tau=args.c_tau,
    )
    coeff = dg.recursion_coefficient(params)
    theta = coeff.c_rec ** (-1.0 / coeff.eps) * coeff.b ** (-1.0 / coeff.eps**2)
    print(f"grad_j_l1 = {_fmt(params.grad_j_l1)}")
    print(f"tau_tilde = {_fmt(dg.admissible_window_length(params))}")
    print(f"C_rec = {_fmt(coeff.c_rec)}")
    print(f"b = {_fmt(coeff.b)}")
    print(f"eps = {_fmt(coeff.eps)}")
    print(f"theta = {_fmt(theta)}")
    print(f"y0_threshold = {_fmt(coeff.threshold)}")
    return 0


def _cmd_lemma(args) -> int:
    report = dg.geometric_decay_bound(args.c, args.b, args.eps, args.y0, args.n)
    print(f"theta = {_fmt(report.theta)}")
    print(f"threshold_ok = {str(report.threshold_ok).lower()}")
    if report.threshold_ok:
        print(f"holds = {str(report.holds).lower()}")
        print("n,y_n,bound")
        for n in report.ns:
            print(f"{n},{_fmt(report.iterates[n])},{_fmt(report.bounds[n])}")
    return 0


def _cmd_potential_check(args) -> int:
    cfg = load_config(args.config)
    p = cfg.make_potential()
    try:
        deltas = [float(part) for part in args.deltas.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"--deltas: {exc}") from exc
    try:
        report = pot.check_endpoint_asymptotics(p, deltas)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    print(f"curvature_target = {_fmt(report.curvature_target)}")
    print(f"slope_target = {_fmt(report.slope_target)}")
    print("delta,curvature_scaled,slope_scaled,curvature_mirror,slope_mirror")
    for i, d in enumerate(report.deltas):
        print(
            f"{_fmt(d)},{_fmt(report.curvature_scaled[i])},{_fmt(report.slope_scaled[i])},"
            f"{_fmt(report.curvature_scaled_mirror[i])},{_fmt(report.slope_scaled_mirror[i])}"
        )
    print(f"curvature_converged = {str(report.curvature_converged).lower()}")
    print(f"slope_converged = {str(report.slope_converged).lower()}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "equilibrium": _cmd_equilibrium,
    "degiorgi": _cmd_degiorgi,
    "constants": _cmd_constants,
    "lemma": _cmd_lemma,
    "potential-check": _cmd_potential_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 1
    except (dyn.StepError, dyn.MonitorViolation, pot.PotentialDomainError) as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 2
    except snap.SnapshotError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
