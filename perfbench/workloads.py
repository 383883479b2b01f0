"""Workload definitions: generated configs, seeded initial fields and the
output checks that decide whether a workload run succeeded.

Each workload is a fixed physical scenario.  Its initial field is the
scenario's own noise realisation (drawn exactly as `initial.mode = constant`
draws it), mapped through one symmetry of the equation picked by the
benchmark seed: a periodic shift per axis, a reflection per axis, an axis
transpose in 2D and a sign flip.  The flow is equivariant under all of them,
so every seed runs the same physics on different array contents, and cost and
reference values do not depend on the seed.  Drawing a fresh noise
realisation per seed does not work for the 1D scenarios: on the
strong-segregation run it changed the wall time by 6x between seeds 1-3.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# Frozen NLCH1 layout: magic, u8 dim, u32 n_per_axis, f64 edge, f64 time, f64 values.
_NLCH1_HEADER = struct.Struct("<6sBIdd")


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int
    n: int
    noise_seed: int
    noise_amplitude: float
    settings: str  # the other config keys, bar initial.snapshot and output.directory
    commands: tuple[tuple[str, ...], ...]  # argv for nlch.cli.main; {cfg}, {eqcfg}, {out}
    t_end: float
    dt: float
    edge_length: float = 4.0

    @property
    def config(self) -> str:
        return (
            f"grid.dim = {self.dim}\ngrid.n = {self.n}\ngrid.edge_length = {self.edge_length}\n"
            f"stepper.dt = {self.dt}\nrun.t_end = {self.t_end}\n" + self.settings
        )


_SPINODAL_2D = """\
kernel.family = gaussian
kernel.amplitude = 3.5367765131532603
kernel.width = 0.3
potential.alpha_bar = 1.0
initial.mode = snapshot
initial.delta0 = 0.05
stepper.inner_max_iters = 300
output.snapshot_stride = 50
output.csv_stride = 20
"""

_SEGREGATION_1D = """\
kernel.family = gaussian
kernel.amplitude = 5.319230405352436
kernel.width = 0.3
potential.alpha_bar = 1.0
initial.mode = snapshot
initial.delta0 = 0.01
stepper.inner_tol = 1e-12
stepper.inner_max_iters = 200
output.snapshot_stride = 0
output.csv_stride = 1
"""

_VERIFY_1D = """\
kernel.family = gaussian
kernel.amplitude = 2.6596152026762178
kernel.width = 0.3
potential.alpha_bar = 1.0
initial.mode = snapshot
initial.delta0 = 0.05
stepper.inner_tol = 1e-12
stepper.inner_max_iters = 400
output.snapshot_stride = 5
output.csv_stride = 1
degiorgi.delta = 0.03
degiorgi.n_max = 8
degiorgi.window = 1.5
"""

_SIMULATE = (("simulate", "{cfg}"),)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="spinodal-2d",
            dim=2, n=128, noise_seed=7, noise_amplitude=0.05,
            settings=_SPINODAL_2D, commands=_SIMULATE, t_end=3.0, dt=0.003,
        ),
        Workload(
            name="segregation-1d",
            dim=1, n=128, noise_seed=1, noise_amplitude=0.05,
            settings=_SEGREGATION_1D, commands=_SIMULATE, t_end=0.46, dt=0.003,
        ),
        Workload(
            name="verify-1d",
            dim=1, n=128, noise_seed=42, noise_amplitude=0.05,
            settings=_VERIFY_1D,
            commands=(
                ("simulate", "{cfg}"),
                ("degiorgi", "{cfg}", "--snapshots", "{out}"),
                ("equilibrium", "{eqcfg}", "--guess", "{out}/snapshot_00000500.nlch"),
            ),
            t_end=6.0, dt=0.003,
        ),
    )
}


def scenario_field(w: Workload) -> np.ndarray:
    """The scenario's noise field, drawn as `initial.mode = constant` draws it."""
    rng = np.random.default_rng(w.noise_seed)
    vals = w.noise_amplitude * rng.uniform(-1.0, 1.0, (w.n,) * w.dim)
    vals -= vals.mean()
    return vals


def symmetry_image(seed: int, dim: int, n: int) -> dict:
    """The symmetry of the periodic box that a benchmark seed selects."""
    rng = np.random.default_rng(seed)
    return {
        "shift": [int(s) for s in rng.integers(0, n, dim)],
        "reflect": [bool(r) for r in rng.integers(0, 2, dim)],
        "transpose": bool(rng.integers(0, 2)) if dim == 2 else False,
        "sign": int(rng.choice([-1, 1])),
    }


def apply_image(vals: np.ndarray, image: dict) -> np.ndarray:
    out = np.roll(vals, image["shift"], axis=tuple(range(vals.ndim)))
    for axis, reflect in enumerate(image["reflect"]):
        if reflect:  # x_i -> x_{-i mod n}
            out = np.roll(np.flip(out, axis), 1, axis=axis)
    if image["transpose"]:
        out = out.T
    return np.ascontiguousarray(image["sign"] * out)


def write_nlch1(path: Path, vals: np.ndarray, edge_length: float) -> None:
    header = _NLCH1_HEADER.pack(b"NLCH1\x00", vals.ndim, vals.shape[0], edge_length, 0.0)
    path.write_bytes(header + np.ascontiguousarray(vals, dtype="<f8").tobytes())


def prepare_inputs(w: Workload, seed: int, input_dir: Path) -> dict:
    """Write the seeded initial snapshot and both configs; return the image."""
    input_dir.mkdir(parents=True, exist_ok=True)
    image = symmetry_image(seed, w.dim, w.n)
    init = input_dir / "init.nlch"
    write_nlch1(init, apply_image(scenario_field(w), image), w.edge_length)
    for name, out in (("run.conf", "out"), ("eq.conf", "eq")):
        text = w.config + f"initial.snapshot = {init}\noutput.directory = {out}\n"
        (input_dir / name).write_text(text, encoding="utf-8")
    return image


def command_argvs(w: Workload, input_dir: Path) -> list[list[str]]:
    subs = {"cfg": str(input_dir / "run.conf"), "eqcfg": str(input_dir / "eq.conf"), "out": "out"}
    return [[part.format(**subs) for part in cmd] for cmd in w.commands]


# ---------------------------------------------------------------------------
# output checks


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def _close(observed: float, expected: float, rel: float) -> bool:
    return math.isfinite(observed) and abs(observed - expected) <= rel * abs(expected)


def check_outputs(w: Workload, observed: dict, reference: dict) -> list[str]:
    """Compare what a worker observed against the stored seed-commit reference.

    Returns the list of missed checks; empty means the run is correct.
    """
    ref = reference["workloads"][w.name]
    tol = ref["tolerance"]
    missed = []
    if observed["exit_codes"] != [0] * len(w.commands):
        missed.append(f"exit codes {observed['exit_codes']}")
        return missed
    if observed["csv_header"] != reference["csv_columns"]:
        missed.append(f"csv header {observed['csv_header']}")
    if observed["unreadable_snapshots"]:
        missed.append(f"snapshots not readable on the grid: {observed['unreadable_snapshots']}")
    if observed["snapshot_count"] < 1:
        missed.append("no snapshot written")
    if abs(observed["t_final"] - w.t_end) > 1e-9 * w.dt:
        missed.append(f"final row at t={observed['t_final']}, expected {w.t_end}")
    if not _close(observed["final_energy"], ref["final_energy"], tol["energy_rel"]):
        missed.append(f"final energy {observed['final_energy']} vs {ref['final_energy']}")
    if not _close(observed["min_delta_sep"], ref["min_delta_sep"], tol["delta_sep_rel"]):
        missed.append(f"min delta_sep {observed['min_delta_sep']} vs {ref['min_delta_sep']}")
    if "degiorgi_y" in ref:
        got = observed.get("degiorgi_y", {})
        for side, expected in ref["degiorgi_y"].items():
            values = got.get(side, [])
            if len(values) != len(expected) or any(
                abs(a - b) > tol["degiorgi_y_abs"] for a, b in zip(values, expected)
            ):
                missed.append(f"degiorgi [{side}] y_n {values} vs {expected}")
    if "equilibrium" in ref:
        eq = observed.get("equilibrium", {})
        if eq.get("converged") != "true":
            missed.append(f"equilibrium converged = {eq.get('converged')}")
        if not float(eq.get("residual_linf", "nan")) <= ref["equilibrium"]["residual_linf_max"]:
            missed.append(f"equilibrium residual_linf = {eq.get('residual_linf')}")
        if not float(eq.get("mass_error", "nan")) <= ref["equilibrium"]["mass_error_max"]:
            missed.append(f"equilibrium mass_error = {eq.get('mass_error')}")
    return missed
