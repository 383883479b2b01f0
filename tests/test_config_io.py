"""Config parsing/serialization and the frozen snapshot byte format."""

from pathlib import Path

import numpy as np
import pytest

from nlch import (
    ConfigError,
    Field,
    Grid,
    SnapshotError,
    parse_config,
    read_snapshot,
    serialize_config,
    write_snapshot,
)
from nlch.snapshots import MAGIC, read_snapshot_dir

from conftest import write_non_finite_snapshot

REPO_ROOT = Path(__file__).resolve().parent.parent

MINIMAL = """
grid.dim = 1
grid.n = 32
grid.edge_length = 4.0
kernel.family = gaussian
potential.alpha_bar = 1.0
run.t_end = 0.5
"""

FULL = """
# full configuration exercising every section
grid.dim = 2
grid.n = 64
grid.edge_length = 6.0
kernel.family = exponential
kernel.amplitude = 0.7
kernel.width = 0.5
potential.alpha_bar = 1.2
potential.alpha0 = 3.0
initial.mode = tanh
initial.m = 0.1
initial.noise_amplitude = 0.4
initial.seed = 11
initial.delta0 = 0.1
stepper.dt = 0.002
stepper.dt_min = 1e-08
stepper.inner_tol = 1e-11
stepper.inner_max_iters = 150
stepper.epsilon_safe = 1e-13
output.directory = results
output.snapshot_stride = 25
output.csv_stride = 5
run.t_end = 2.5
degiorgi.delta = 0.04
degiorgi.n_max = 6
degiorgi.window = 0.75
"""

NEWTONIAN_3D = """
grid.dim = 3
grid.n = 8
grid.edge_length = 4.0
kernel.family = mollified_newtonian
potential.alpha_bar = 1.0
run.t_end = 0.1
"""


class TestParse:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.grid.n_per_axis == 32
        assert cfg.kernel.params["width"] == 0.5  # edge_length / 8
        assert cfg.kernel.params["amplitude"] == 1.0
        assert cfg.potential.alpha0 == 2.0  # 2 * alpha_bar
        assert cfg.initial.mode == "constant"
        assert cfg.stepper.dt == 1e-3
        assert cfg.output.directory == "out"
        assert cfg.degiorgi.n_max == 8

    def test_full_config_round_trip_fixed_point(self):
        cfg = parse_config(FULL)
        text = serialize_config(cfg)
        cfg2 = parse_config(text)
        assert cfg2 == cfg
        assert serialize_config(cfg2) == text

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# leading comment\n\n   # indented comment\n" + MINIMAL)
        assert cfg.run.t_end == 0.5

    def test_inline_comment(self):
        cfg = parse_config(MINIMAL.replace("grid.n = 32", "grid.n = 32  # points"))
        assert cfg.grid.n_per_axis == 32
        cfg = parse_config(MINIMAL.replace("grid.n = 32", "grid.n = 32\t# points"))
        assert cfg.grid.n_per_axis == 32

    def test_pure_phase_mean_rejected(self):
        with pytest.raises(ConfigError, match="pure phase mean"):
            parse_config(MINIMAL + "initial.m = 1.0\n")

    def test_unknown_key_rejected_with_name(self):
        with pytest.raises(ConfigError, match="grid.spacing"):
            parse_config(MINIMAL + "grid.spacing = 0.1\n")

    def test_syntax_error_reports_line_number(self):
        bad = "grid.dim = 1\nthis is not a key value pair\n"
        with pytest.raises(ConfigError, match="line 2"):
            parse_config(bad)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(MINIMAL + "grid.n = 64\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="run.t_end"):
            parse_config(MINIMAL.replace("run.t_end = 0.5", ""))

    def test_type_error_names_key(self):
        with pytest.raises(ConfigError, match="grid.n"):
            parse_config(MINIMAL.replace("grid.n = 32", "grid.n = many"))

    def test_cross_field_validation(self):
        with pytest.raises(ConfigError, match="delta0 bound"):
            parse_config(
                MINIMAL + "initial.m = 0.8\ninitial.noise_amplitude = 0.3\n"
            )
        with pytest.raises(ConfigError, match="power of two"):
            parse_config(MINIMAL.replace("grid.n = 32", "grid.n = 33"))
        with pytest.raises(ConfigError, match="edge_length/6"):
            parse_config(MINIMAL + "kernel.width = 3.0\n")
        with pytest.raises(ConfigError, match="degiorgi.delta"):
            parse_config(MINIMAL + "degiorgi.delta = 0.4\n")
        with pytest.raises(ConfigError, match="snapshot"):
            parse_config(MINIMAL + "initial.snapshot = some/path.nlch\n")

    @pytest.mark.parametrize("key", ["initial.m", "initial.noise_amplitude"])
    def test_nan_initial_value_rejected(self, key):
        with pytest.raises(ConfigError, match="initial"):
            parse_config(MINIMAL + f"{key} = nan\n")

    @pytest.mark.parametrize("t_end", ["inf", "1e400", "nan"])
    def test_non_finite_t_end_rejected(self, t_end):
        # an infinite end time would make simulate step forever
        with pytest.raises(ConfigError, match="run.t_end"):
            parse_config(MINIMAL.replace("run.t_end = 0.5", f"run.t_end = {t_end}"))

    def test_builders_produce_working_objects(self):
        cfg = parse_config(MINIMAL)
        assert cfg.grid == Grid(1, 32, 4.0)
        assert cfg.kernel.grid is cfg.grid
        assert cfg.kernel.j_integral > 0
        assert cfg.potential.alpha_bar == 1.0
        assert cfg.stepper.dt == 1e-3
        assert cfg.initial.mode == "constant"

    @pytest.mark.parametrize(
        "text",
        [pytest.param(path.read_text(encoding="utf-8"), id=path.stem)
         for path in sorted((REPO_ROOT / "configs").glob("*.conf"))]
        + [pytest.param(NEWTONIAN_3D, id="newtonian_3d")],
    )
    def test_round_trip_fixed_point(self, text):
        cfg = parse_config(text)
        canonical = serialize_config(cfg)
        cfg2 = parse_config(canonical)
        assert cfg2 == cfg
        assert serialize_config(cfg2) == canonical


class TestSnapshots:
    def test_golden_byte_layout(self, tmp_path):
        # frozen format: magic, u8 dim, u32 n, f64 edge_length, f64 time,
        # then row-major little-endian f64 values
        import struct

        grid = Grid(1, 4, 2.0)
        values = np.array([0.0, 0.5, -0.25, 1.0])
        path = tmp_path / "golden.nlch"
        write_snapshot(Field(grid, values), 1.5, path)
        expected = struct.pack("<6sBIdd", b"NLCH1\x00", 1, 4, 2.0, 1.5)
        expected += struct.pack("<4d", 0.0, 0.5, -0.25, 1.0)
        assert path.read_bytes() == expected

    def test_bit_exact_round_trip(self, tmp_path):
        grid = Grid(2, 16, 3.0)
        rng = np.random.default_rng(17)
        f = Field(grid, rng.uniform(-1, 1, grid.shape))
        a, b = tmp_path / "a.nlch", tmp_path / "b.nlch"
        write_snapshot(f, 1.25, a)
        f2, t2 = read_snapshot(a)
        assert t2 == 1.25
        assert f2.grid == grid
        assert f2.values.tobytes() == f.values.tobytes()
        write_snapshot(f2, t2, b)
        assert a.read_bytes() == b.read_bytes()

    def test_truncated_payload_names_byte_counts(self, tmp_path):
        grid = Grid(1, 8, 1.0)
        path = tmp_path / "t.nlch"
        write_snapshot(Field.constant(grid, 0.1), 0.0, path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(SnapshotError, match=r"expected \d+ bytes, got \d+"):
            read_snapshot(path)

    def test_version_mismatch(self, tmp_path):
        grid = Grid(1, 8, 1.0)
        path = tmp_path / "v.nlch"
        write_snapshot(Field.constant(grid, 0.1), 0.0, path)
        data = bytearray(path.read_bytes())
        data[: len(MAGIC)] = b"NLCH2\x00"
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="version mismatch"):
            read_snapshot(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.nlch"
        path.write_bytes(b"GARBAGE" + b"\x00" * 64)
        with pytest.raises(SnapshotError, match="bad magic"):
            read_snapshot(path)

    def test_grid_mismatch_against_expected(self, tmp_path):
        grid = Grid(1, 8, 1.0)
        path = tmp_path / "g.nlch"
        write_snapshot(Field.constant(grid, 0.1), 0.0, path)
        with pytest.raises(SnapshotError, match="grid mismatch"):
            read_snapshot(path, expected_grid=Grid(1, 16, 1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_names_the_path(self, tmp_path, bad):
        grid = Grid(1, 8, 1.0)
        path = tmp_path / "nonfinite.nlch"
        write_non_finite_snapshot(grid, path, bad)
        with pytest.raises(SnapshotError, match="nonfinite.nlch.*non-finite"):
            read_snapshot(path)
        with pytest.raises(SnapshotError, match="nonfinite.nlch"):
            read_snapshot_dir(tmp_path)

    def test_read_dir_sorted_by_time(self, tmp_path):
        grid = Grid(1, 8, 1.0)
        for i, t in enumerate((0.3, 0.1, 0.2)):
            write_snapshot(Field.constant(grid, 0.1 * i), t, tmp_path / f"s{i}.nlch")
        snaps = read_snapshot_dir(tmp_path)
        assert [t for t, _ in snaps] == [0.1, 0.2, 0.3]

    def test_read_dir_empty(self, tmp_path):
        with pytest.raises(SnapshotError, match="no .*snapshots"):
            read_snapshot_dir(tmp_path)
