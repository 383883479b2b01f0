"""CLI subcommands, exit codes, and the frozen CSV/report formats."""

from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import nlch.cli
import nlch.dynamics
from nlch.cli import main
from nlch.config import load_config
from nlch.degiorgi import level_set_measures
from nlch.diagnostics import csv_header
from nlch.grid import Field, Grid
from nlch.snapshots import read_snapshot, read_snapshot_dir, write_snapshot

from conftest import write_non_finite_snapshot

mp.mp.dps = 50

REPO_ROOT = Path(__file__).resolve().parent.parent
DEMO_1D = REPO_ROOT / "configs" / "demo_1d.conf"


def make_config(tmp_path, outdir, t_end=0.15, m=0.0, n=32, inner_max_iters=300, extra=""):
    text = f"""
grid.dim = 1
grid.n = {n}
grid.edge_length = 4.0
kernel.family = gaussian
kernel.amplitude = 2.6596152026762178
kernel.width = 0.3
potential.alpha_bar = 1.0
initial.mode = constant
initial.m = {m}
initial.noise_amplitude = 0.05
initial.seed = 42
initial.delta0 = 0.05
stepper.dt = 0.003
stepper.inner_max_iters = {inner_max_iters}
run.t_end = {t_end}
output.directory = {outdir}
output.snapshot_stride = 10
{extra}
"""
    path = tmp_path / "run.conf"
    path.write_text(text, encoding="utf-8")
    return path


def parsed_kv(output: str) -> dict:
    out = {}
    for line in output.splitlines():
        if " = " in line and not line.startswith("["):
            k, _, v = line.partition(" = ")
            out[k.strip()] = v.strip()
    return out


class TestSimulate:
    def test_demo_config_runs_and_emits_monotone_energy(self, tmp_path, capsys):
        cfg = make_config(tmp_path, tmp_path / "out")
        assert main(["simulate", str(cfg)]) == 0
        csv_path = tmp_path / "out" / "timeseries.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0] == csv_header()
        assert len(lines) == 52  # header + rows 0..50
        energies = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(
            b <= a + 1e-12 * abs(a) + 1e-13 for a, b in zip(energies, energies[1:])
        )
        assert (tmp_path / "out" / "final.nlch").exists()
        assert (tmp_path / "out" / "snapshot_00000000.nlch").exists()
        kv = parsed_kv(capsys.readouterr().out)
        assert kv["steps"] == "50"

    def test_output_dir_is_level_set_input(self, tmp_path):
        # the last step lands on the snapshot stride, so final.nlch repeats
        # the time of the last strided snapshot; the loader must skip it
        cfg = make_config(tmp_path, tmp_path / "out")
        assert main(["simulate", str(cfg)]) == 0
        snaps = read_snapshot_dir(tmp_path / "out", expected_grid=Grid(1, 32, 4.0))
        assert len(snaps) == 6  # steps 0, 10, ..., 50
        meas = level_set_measures(snaps, delta=0.03, n_max=4)
        assert meas.stride == pytest.approx(0.03)

    def test_output_dir_stays_level_set_input_after_equilibrium(self, tmp_path):
        # equilibrium.nlch is stored at t = 0 in the same directory; a second
        # t = 0 snapshot would break uniform striding unless the loader skips it
        cfg = make_config(tmp_path, tmp_path / "out", t_end=0.6)
        assert main(["simulate", str(cfg)]) == 0
        assert main(["equilibrium", str(cfg)]) == 0
        assert (tmp_path / "out" / "equilibrium.nlch").exists()
        snaps = read_snapshot_dir(tmp_path / "out", expected_grid=Grid(1, 32, 4.0))
        assert len(snaps) == 21  # steps 0, 10, ..., 200
        meas = level_set_measures(snaps, delta=0.03, n_max=8)
        assert meas.stride == pytest.approx(0.03)

    def test_golden_csv_header(self):
        assert csv_header() == (
            "t,mass,energy,energy_alt,dissipation_accum,energy_residual,"
            "min_phi,max_phi,delta_sep,mu_linf,inner_iters,dt_used"
        )

    def test_bundled_demo_config_parses(self):
        from nlch import load_config

        cfg = load_config(DEMO_1D)
        assert cfg.grid.n_per_axis == 128

    def test_determinism(self, tmp_path):
        # same config + seed into two directories: identical CSV bytes
        main(["simulate", str(make_config(tmp_path, tmp_path / "a"))])
        main(["simulate", str(make_config(tmp_path, tmp_path / "b"))])
        assert (tmp_path / "a" / "timeseries.csv").read_bytes() == (
            tmp_path / "b" / "timeseries.csv"
        ).read_bytes()


def count_kernel_builds(monkeypatch) -> list:
    """Wrap build_kernel under every nlch module attribute bound to it; the
    returned list gains one entry per call."""
    import sys

    import nlch.kernels

    original = nlch.kernels.build_kernel
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0] if args else kwargs["family"])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "nlch" or name.startswith("nlch."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


class TestKernelBuiltOnce:
    def test_simulate(self, tmp_path, monkeypatch):
        calls = count_kernel_builds(monkeypatch)
        assert main(["simulate", str(make_config(tmp_path, tmp_path / "out", t_end=0.03))]) == 0
        assert calls == ["gaussian"]

    def test_degiorgi(self, tmp_path, monkeypatch):
        cfg = make_config(tmp_path, tmp_path / "out", t_end=6.0, extra="degiorgi.window = 1.5\n")
        assert main(["simulate", str(cfg)]) == 0
        calls = count_kernel_builds(monkeypatch)
        assert main(["degiorgi", str(cfg), "--snapshots", str(tmp_path / "out")]) == 0
        assert calls == ["gaussian"]

    def test_potential_check_builds_none(self, tmp_path, monkeypatch):
        calls = count_kernel_builds(monkeypatch)
        assert main(["potential-check", str(make_config(tmp_path, tmp_path / "out"))]) == 0
        assert calls == []


class TestLemma:
    def test_unit_case_table(self, capsys):
        assert main(["lemma", "--C", "1", "--b", "2", "--eps", "1",
                     "--y0", "0.5", "--n", "5"]) == 0
        out = capsys.readouterr().out
        kv = parsed_kv(out)
        assert float(kv["theta"]) == 0.5
        assert kv["threshold_ok"] == "true"
        rows = [line for line in out.splitlines() if line and line[0].isdigit()]
        for n, line in enumerate(rows):
            _, y, bound = line.split(",")
            assert float(y) == 2.0 ** -(n + 1)
            assert float(bound) == 2.0 ** -(n + 1)

    def test_threshold_exceeded(self, capsys):
        assert main(["lemma", "--C", "1", "--b", "2", "--eps", "1",
                     "--y0", "0.7", "--n", "5"]) == 0
        assert parsed_kv(capsys.readouterr().out)["threshold_ok"] == "false"


class TestConstants:
    def test_all_ones_against_high_precision(self, tmp_path, capsys):
        cfg = make_config(tmp_path, tmp_path / "out")
        assert main(["constants", str(cfg), "--delta", "0.05", "--c-p", "1",
                     "--c-tau", "1", "--c-hat", "1"]) == 0
        kv = parsed_kv(capsys.readouterr().out)
        gj = mp.mpf(kv["grad_j_l1"])
        d = mp.mpf("0.05")
        fpp = 1 / (4 * d * (1 - d))
        fp = mp.log((1 - d) / d) / 2
        tau_oracle = mp.mpf(2) ** -20 * d**5 * fpp**4 * fp / (
            3 * gj**5 * mp.mpf(2) ** mp.mpf("1.5")
        )
        c_oracle = mp.mpf(2) ** mp.mpf("4.5") * gj**3 * mp.mpf(2) ** mp.mpf("0.9") / (
            d**3 * fpp ** mp.mpf("2.4")
        )
        assert float(kv["tau_tilde"]) == pytest.approx(float(tau_oracle), rel=1e-12)
        assert float(kv["C_rec"]) == pytest.approx(float(c_oracle), rel=1e-12)
        assert float(kv["b"]) == 2.0**4.5
        assert float(kv["eps"]) == 0.6
        assert float(kv["theta"]) == pytest.approx(float(kv["y0_threshold"]), rel=1e-12)


class TestPotentialCheck:
    def test_reports_convergence(self, tmp_path, capsys):
        cfg = make_config(tmp_path, tmp_path / "out")
        assert main(["potential-check", str(cfg)]) == 0
        out = capsys.readouterr().out
        kv = parsed_kv(out)
        assert kv["curvature_converged"] == "true"
        assert kv["slope_converged"] == "true"
        last = [l for l in out.splitlines() if l.startswith("1e-08")][0]
        _, curv, slope, *_ = last.split(",")
        assert float(curv) == pytest.approx(0.25, abs=1e-7)
        assert float(slope) == pytest.approx(0.5, abs=1e-7)

    def test_stdout_matches_the_full_config_load(self, tmp_path, capsys, monkeypatch):
        cfg = make_config(tmp_path, tmp_path / "out", extra="potential.alpha0 = 2.5\n")
        assert main(["potential-check", str(cfg), "--deltas", "1e-3,1e-5"]) == 0
        alone = capsys.readouterr().out
        monkeypatch.setattr(nlch.cli, "load_potential", lambda path: load_config(path).potential)
        assert main(["potential-check", str(cfg), "--deltas", "1e-3,1e-5"]) == 0
        assert capsys.readouterr().out == alone

    def test_reads_only_the_potential_keys(self, tmp_path, capsys):
        cfg = tmp_path / "potential.conf"
        cfg.write_text("potential.alpha_bar = 1.0  # no grid, kernel or run keys\n")
        assert main(["potential-check", str(cfg)]) == 0
        assert parsed_kv(capsys.readouterr().out)["slope_converged"] == "true"
        cfg.write_text("potential.alpha_bar = 1.0\ngrid.bogus = 1\n")
        assert main(["potential-check", str(cfg)]) == 1
        assert "grid.bogus" in one_error_line(capsys, "config")


class TestEquilibriumCommand:
    def test_constant_guess_converges(self, tmp_path, capsys):
        # without --guess the solver starts from the constant initial.m
        cfg = make_config(tmp_path, tmp_path / "out", m=0.2)
        assert main(["equilibrium", str(cfg)]) == 0
        kv = parsed_kv(capsys.readouterr().out)
        assert kv["converged"] == "true"
        assert float(kv["residual_linf"]) <= 1e-12
        assert (tmp_path / "out" / "equilibrium.nlch").exists()

    def test_guess_from_simulation(self, tmp_path, capsys):
        # N=64 reaches the discrete stationary state by t=6; N=32 with this
        # seed parks two interfaces on a slowly drifting configuration
        cfg = make_config(tmp_path, tmp_path / "out", t_end=6.0, n=64)
        assert main(["simulate", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["equilibrium", str(cfg), "--guess",
                     str(tmp_path / "out" / "final.nlch")]) == 0
        kv = parsed_kv(capsys.readouterr().out)
        assert kv["converged"] == "true"
        assert float(kv["residual_linf"]) <= 1e-10


class TestDeGiorgiCommand:
    def test_report_on_separated_run(self, tmp_path, capsys):
        cfg = make_config(
            tmp_path, tmp_path / "out", t_end=6.0,
            extra="degiorgi.delta = 0.03\ndegiorgi.window = 1.5\n",
        )
        assert main(["simulate", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["degiorgi", str(cfg), "--snapshots",
                     str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        kv = parsed_kv(out)
        assert float(kv["tau_tilde"]) > 0.0
        assert float(kv["c_p"]) > 0.0
        assert "[upper] separated = true" in out
        assert "[lower] separated = true" in out
        assert any(line.startswith("[upper] n=0 ") for line in out.splitlines())


    def test_window_keeps_the_snapshots_of_the_last_window(self, tmp_path, capsys):
        out = tmp_path / "out"
        make_config(tmp_path, out, t_end=6.0)
        assert main(["simulate", str(tmp_path / "run.conf")]) == 0
        times = [t for t, _ in read_snapshot_dir(out, expected_grid=Grid(1, 32, 4.0))]
        assert len(times) == 201
        # the cut 4.485 falls between snapshots (stride 0.03), clear of roundoff
        for window, expected in ((1.515, 51), (0.0, 201)):  # 0: the full span
            if window > 0.0:
                assert sum(t >= times[-1] - window for t in times) == expected
            cfg = make_config(tmp_path, out, t_end=6.0, extra=f"degiorgi.window = {window}\n")
            capsys.readouterr()
            assert main(["degiorgi", str(cfg), "--snapshots", str(out)]) == 0
            assert parsed_kv(capsys.readouterr().out)["snapshots"] == str(expected)

    def test_stride_is_checked_inside_the_window_only(self, tmp_path, capsys):
        # snapshots land on step multiples, so a step halved early on moves the
        # stored times after it by dt/2: here the first gap is 0.03 - 0.0015
        out = tmp_path / "out"
        make_config(tmp_path, out, t_end=6.0)
        assert main(["simulate", str(tmp_path / "run.conf")]) == 0

        def degiorgi(window):
            cfg = make_config(tmp_path, out, t_end=6.0, extra=f"degiorgi.window = {window}\n")
            capsys.readouterr()
            return main(["degiorgi", str(cfg), "--snapshots", str(out)])

        assert degiorgi(1.515) == 0
        report = capsys.readouterr().out
        first = out / "snapshot_00000000.nlch"
        field, t = read_snapshot(first)
        write_snapshot(field, t + 1.5e-3, first)
        assert degiorgi(1.515) == 0
        assert capsys.readouterr().out == report
        assert degiorgi(0.0) == 3  # the full span holds the uneven gap
        assert "not uniformly strided" in one_error_line(capsys, "io")
        assert degiorgi(0.01) == 3  # one snapshot: the stride is 0.03
        assert "need at least two snapshots" in one_error_line(capsys, "io")


def one_error_line(capsys, kind: str) -> str:
    """The single stderr line of a failed command, checked for its kind."""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {kind}: "), err
    return err[0]


class TestRejectedArguments:
    def test_lemma_b_not_above_one(self, capsys):
        assert main(["lemma", "--C", "1", "--b", "0.5", "--eps", "1",
                     "--y0", "0.5", "--n", "3"]) == 1
        assert "b > 1" in one_error_line(capsys, "usage")

    def test_constants_delta_above_a_quarter(self, tmp_path, capsys):
        cfg = make_config(tmp_path, tmp_path / "out")
        assert main(["constants", str(cfg), "--delta", "0.3", "--c-p", "1",
                     "--c-tau", "1", "--c-hat", "1"]) == 1
        assert "delta" in one_error_line(capsys, "usage")

    def test_equilibrium_omega_above_one(self, tmp_path, capsys):
        cfg = make_config(tmp_path, tmp_path / "out")
        assert main(["equilibrium", str(cfg), "--omega", "2"]) == 1
        assert "omega" in one_error_line(capsys, "usage")

    def test_equilibrium_zero_max_iters(self, tmp_path, capsys):
        cfg = make_config(tmp_path, tmp_path / "out")
        assert main(["equilibrium", str(cfg), "--max-iters", "0"]) == 1
        assert "max_iters" in one_error_line(capsys, "usage")

    def test_potential_check_delta_within_the_floor(self, tmp_path, capsys):
        # 1 - (1 - 2e-16) rounds to 2.2e-16, under the potential's 1e-15 floor
        cfg = make_config(tmp_path, tmp_path / "out")
        assert main(["potential-check", str(cfg), "--deltas", "1e-2,1e-16"]) == 1
        line = one_error_line(capsys, "usage")
        assert "deltas" in line and "floor 1e-15" in line

    def test_degiorgi_snapshots_not_uniformly_strided(self, tmp_path, capsys):
        cfg = make_config(tmp_path, tmp_path / "out")
        grid = Grid(1, 32, 4.0)
        snaps = tmp_path / "snaps"
        snaps.mkdir()
        for k, t in enumerate((0.0, 0.1, 0.3)):
            write_snapshot(Field(grid, np.full(grid.shape, 0.9)), t, snaps / f"s{k}.nlch")
        assert main(["degiorgi", str(cfg), "--snapshots", str(snaps)]) == 3
        assert "not uniformly strided" in one_error_line(capsys, "io")

    def test_snapshot_initial_data_beyond_delta0(self, tmp_path, capsys):
        # constant and tanh data are held to the bound at parse time, a snapshot once read
        cfg = make_config(tmp_path, tmp_path / "out")
        grid = Grid(1, 32, 4.0)
        path = tmp_path / "steep.nlch"
        sine = 0.99 * np.sin(2.0 * np.pi * grid.coordinate_mesh()[0] / grid.edge_length)
        write_snapshot(Field(grid, sine), 0.0, path)
        cfg.write_text(cfg.read_text().replace(
            "initial.mode = constant", f"initial.mode = snapshot\ninitial.snapshot = {path}"))
        assert main(["simulate", str(cfg)]) == 1
        assert "delta0 bound" in one_error_line(capsys, "config")

    def test_a_bug_in_init_state_stays_a_traceback(self, tmp_path, monkeypatch):
        def broken(*args):
            raise ValueError("a bug, not an input error")

        monkeypatch.setattr(nlch.dynamics, "init_state", broken)
        with pytest.raises(ValueError, match="a bug"):
            main(["simulate", str(make_config(tmp_path, tmp_path / "out"))])

    @pytest.mark.parametrize("key", ["initial.m", "initial.noise_amplitude"])
    def test_nan_initial_value(self, tmp_path, capsys, key):
        cfg = make_config(tmp_path, tmp_path / "out")
        cfg.write_text(cfg.read_text().replace(f"{key} = ", f"{key} = nan  # "))
        assert main(["simulate", str(cfg)]) == 1
        assert "initial" in one_error_line(capsys, "config")

    def test_negative_seed(self, tmp_path, capsys):
        cfg = make_config(tmp_path, tmp_path / "out")
        cfg.write_text(cfg.read_text().replace("initial.seed = 42", "initial.seed = -1"))
        assert main(["simulate", str(cfg)]) == 1
        assert "seed" in one_error_line(capsys, "config")


class TestNonFiniteSnapshot:
    def test_equilibrium_guess(self, tmp_path, capsys):
        cfg = make_config(tmp_path, tmp_path / "out")
        bad = tmp_path / "bad.nlch"
        write_non_finite_snapshot(Grid(1, 32, 4.0), bad)
        assert main(["equilibrium", str(cfg), "--guess", str(bad)]) == 3
        assert "bad.nlch" in one_error_line(capsys, "io")

    def test_degiorgi_snapshots(self, tmp_path, capsys):
        cfg = make_config(tmp_path, tmp_path / "out")
        snaps = tmp_path / "snaps"
        snaps.mkdir()
        write_non_finite_snapshot(Grid(1, 32, 4.0), snaps / "bad.nlch", np.inf)
        assert main(["degiorgi", str(cfg), "--snapshots", str(snaps)]) == 3
        assert "bad.nlch" in one_error_line(capsys, "io")

    def test_simulate_snapshot_initial_data(self, tmp_path, capsys):
        cfg = make_config(tmp_path, tmp_path / "out")
        bad = tmp_path / "bad.nlch"
        write_non_finite_snapshot(Grid(1, 32, 4.0), bad)
        cfg.write_text(cfg.read_text().replace(
            "initial.mode = constant", f"initial.mode = snapshot\ninitial.snapshot = {bad}"))
        assert main(["simulate", str(cfg)]) == 3
        assert "bad.nlch" in one_error_line(capsys, "io")


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert main(["lemma", "--C", "1"]) == 1  # missing required flags
        assert "error: usage:" in capsys.readouterr().err

    def test_unknown_subcommand_is_one(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_config_error_is_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.conf"
        bad.write_text("grid.dim = 7\n")
        assert main(["simulate", str(bad)]) == 1
        assert "error: config:" in capsys.readouterr().err

    def test_epsilon_safe_below_the_potential_floor_is_one(self, tmp_path, capsys):
        cfg = make_config(tmp_path, tmp_path / "out", extra="stepper.epsilon_safe = 1e-16\n")
        assert main(["simulate", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "error: config:" in err and "safety_margin" in err

    def test_molli_radius_on_a_gaussian_kernel_is_one(self, tmp_path, capsys):
        cfg = make_config(tmp_path, tmp_path / "out", extra="kernel.molli_radius = 0.3\n")
        assert main(["simulate", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "error: config:" in err and "molli_radius" in err

    def test_width_on_a_mollified_newtonian_kernel_is_one(self, tmp_path, capsys):
        cfg = tmp_path / "newtonian.conf"
        cfg.write_text(
            "grid.dim = 3\ngrid.n = 8\ngrid.edge_length = 4.0\n"
            "kernel.family = mollified_newtonian\nkernel.width = 0.5\n"
            "potential.alpha_bar = 1.0\nrun.t_end = 0.1\n"
            f"output.directory = {tmp_path / 'out'}\n"
        )
        assert main(["simulate", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "error: config:" in err and "width" in err

    def test_missing_config_file_is_three(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "nope.conf")]) == 3
        assert "error: io:" in capsys.readouterr().err

    def test_bad_snapshot_is_three(self, tmp_path, capsys):
        cfg = make_config(tmp_path, tmp_path / "out")
        junk = tmp_path / "junk.nlch"
        junk.write_bytes(b"GARBAGE" + b"\x00" * 64)
        assert main(["equilibrium", str(cfg), "--guess", str(junk)]) == 3
        assert "error: io:" in capsys.readouterr().err

    def test_numerical_failure_is_two(self, tmp_path, capsys):
        # one inner iteration can never reach a 1e-16 increment: the step
        # fails at dt_min immediately
        cfg = make_config(
            tmp_path, tmp_path / "out", inner_max_iters=1,
            extra="stepper.dt_min = 0.003\nstepper.inner_tol = 1e-16\n",
        )
        assert main(["simulate", str(cfg)]) == 2
        assert "error: numerical:" in capsys.readouterr().err
