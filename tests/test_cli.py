"""CLI subcommands, exit codes, and the frozen CSV/report formats."""

from pathlib import Path

import mpmath as mp
import pytest

from nlch.cli import main
from nlch.degiorgi import level_set_measures
from nlch.diagnostics import csv_header
from nlch.grid import Grid
from nlch.snapshots import read_snapshot_dir

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

    def test_golden_csv_header(self):
        assert csv_header() == (
            "t,mass,energy,energy_alt,dissipation_accum,energy_residual,"
            "min_phi,max_phi,delta_sep,mu_linf,inner_iters,dt_used"
        )

    def test_bundled_demo_config_parses(self):
        from nlch import load_config

        cfg = load_config(DEMO_1D)
        assert cfg.grid.n == 128

    def test_determinism(self, tmp_path):
        # same config + seed into two directories: identical CSV bytes
        main(["simulate", str(make_config(tmp_path, tmp_path / "a"))])
        main(["simulate", str(make_config(tmp_path, tmp_path / "b"))])
        assert (tmp_path / "a" / "timeseries.csv").read_bytes() == (
            tmp_path / "b" / "timeseries.csv"
        ).read_bytes()


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
