"""Run configuration: flat `section.key = value` text, `#` comments.

parse_config builds the objects a run uses, once: RunConfig holds the Grid,
the Kernel, the PotentialParams, the InitialData and the StepperConfig, plus
plain output/run/degiorgi records.  One table, _KEYS, maps each file key to
its converter, its default and the field it fills; every check lives in the
class that owns the data, and its ValueError comes back as a ConfigError
naming the section, so bad runs fail before any numerics start.  Unknown keys
are rejected.  serialize_config reads the same table back off the objects and
emits the resolved canonical form; parse(serialize(parse(text))) is a fixed
point.  load_potential builds the potential alone, for commands that read
nothing else.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

from .dynamics import InitialData, StepperConfig
from .grid import Grid
from .kernels import Kernel, build_kernel
from .potential import PotentialParams


class ConfigError(ValueError):
    pass


def _require(ok: bool, key: str, message: str) -> None:
    if not ok:
        raise ConfigError(f"key {key}: {message}")


@dataclass(frozen=True)
class OutputSection:
    directory: str
    snapshot_stride: int
    csv_stride: int

    def __post_init__(self) -> None:
        _require(self.snapshot_stride >= 0, "output.snapshot_stride", "must be >= 0")
        _require(self.csv_stride >= 1, "output.csv_stride", "must be >= 1")


@dataclass(frozen=True)
class RunSection:
    t_end: float

    def __post_init__(self) -> None:
        _require(math.isfinite(self.t_end) and self.t_end >= 0, "run.t_end", "must be finite, >= 0")


@dataclass(frozen=True)
class DeGiorgiSection:
    delta: float
    n_max: int
    window: float

    def __post_init__(self) -> None:
        _require(0.0 < self.delta < 0.25, "degiorgi.delta",
                 f"must lie in (0, 1/4), got {self.delta}")
        _require(self.n_max >= 0, "degiorgi.n_max", "must be >= 0")
        _require(self.window >= 0.0, "degiorgi.window",
                 "must be >= 0 (0 means the full snapshot span)")


@dataclass(frozen=True)
class RunConfig:
    grid: Grid
    kernel: Kernel
    potential: PotentialParams
    initial: InitialData
    stepper: StepperConfig
    output: OutputSection
    run: RunSection
    degiorgi: DeGiorgiSection


def _kernel(family, amplitude, width, molli_radius, grid: Grid) -> Kernel:
    # the family's own scale defaults to a fraction of the box
    if family in ("gaussian", "exponential") and width is None:
        width = grid.edge_length / 8.0
    if family == "mollified_newtonian" and molli_radius is None:
        molli_radius = max(grid.edge_length / 16.0, 2.0 * grid.spacing)
    return build_kernel(family, grid, amplitude=amplitude, width=width,
                        molli_radius=molli_radius)


def _potential(alpha_bar, alpha0) -> PotentialParams:
    return PotentialParams(alpha_bar, 2.0 * alpha_bar if alpha0 is None else alpha0)


# section -> what builds its object from the fields below
_BUILDERS = {
    "grid": Grid,
    "kernel": _kernel,
    "potential": _potential,
    "initial": InitialData,
    "stepper": StepperConfig,
    "output": OutputSection,
    "run": RunSection,
    "degiorgi": DeGiorgiSection,
}

_REQUIRED = object()

# file key -> (converter, default, the field it fills)
_KEYS = {
    "grid.dim": (int, _REQUIRED, "dim"),
    "grid.n": (int, _REQUIRED, "n_per_axis"),
    "grid.edge_length": (float, _REQUIRED, "edge_length"),
    "kernel.family": (str, _REQUIRED, "family"),
    "kernel.amplitude": (float, 1.0, "amplitude"),
    "kernel.width": (float, None, "width"),
    "kernel.molli_radius": (float, None, "molli_radius"),
    "potential.alpha_bar": (float, _REQUIRED, "alpha_bar"),
    "potential.alpha0": (float, None, "alpha0"),
    "initial.mode": (str, "constant", "mode"),
    "initial.m": (float, 0.0, "m"),
    "initial.noise_amplitude": (float, 0.0, "noise_amplitude"),
    "initial.seed": (int, 0, "seed"),
    "initial.delta0": (float, 0.05, "delta0"),
    "initial.snapshot": (str, None, "snapshot_path"),
    "stepper.dt": (float, 1e-3, "dt"),
    "stepper.dt_min": (float, 1e-7, "dt_min"),
    "stepper.inner_tol": (float, 1e-10, "inner_tol"),
    "stepper.inner_max_iters": (int, 200, "inner_max_iters"),
    "stepper.epsilon_safe": (float, 1e-12, "safety_margin"),
    "output.directory": (str, "out", "directory"),
    "output.snapshot_stride": (int, 0, "snapshot_stride"),
    "output.csv_stride": (int, 1, "csv_stride"),
    "run.t_end": (float, _REQUIRED, "t_end"),
    "degiorgi.delta": (float, 0.05, "delta"),
    "degiorgi.n_max": (int, 8, "n_max"),
    "degiorgi.window": (float, 0.0, "window"),
}

# a comment starts at a '#' that opens the line or follows whitespace
_COMMENT = re.compile(r"(?:^|\s)#")


def _values(text: str) -> dict[str, object]:
    """The converted value of each key the text sets."""
    values: dict[str, object] = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(rawline, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {rawline!r}")
        key_part, _, value_part = line.partition("=")
        key = key_part.strip()
        raw_value = value_part.strip()
        if "." not in key:
            raise ConfigError(f"line {lineno}: key {key!r} missing a section prefix")
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not raw_value:
            raise ConfigError(f"line {lineno}: key {key!r} has an empty value")
        try:
            values[key] = _KEYS[key][0](raw_value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: key {key}: {exc}") from exc
    return values


def _build(values: dict[str, object], sections) -> dict[str, object]:
    """The objects of the named sections, built in the order given (the grid
    before the kernel) from values."""
    fields: dict[str, dict[str, object]] = {section: {} for section in sections}
    for key, (_, default, name) in _KEYS.items():
        section = key.partition(".")[0]
        if section not in fields:
            continue
        if key not in values and default is _REQUIRED:
            raise ConfigError(f"missing required key {key}")
        fields[section][name] = values.get(key, default)

    built: dict[str, object] = {}
    for section in fields:
        if section == "kernel":
            fields[section]["grid"] = built["grid"]
        try:
            built[section] = _BUILDERS[section](**fields[section])
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"{section}: {exc}") from exc
    return built


def parse_config(text: str) -> RunConfig:
    return RunConfig(**_build(_values(text), _BUILDERS))


def load_config(path) -> RunConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


def load_potential(path) -> PotentialParams:
    """The potential of a config file.  The whole file is parsed and its keys
    checked, but only the potential.* keys are read: no grid or kernel is
    built, and the other sections' values are not validated."""
    return _build(_values(Path(path).read_text(encoding="utf-8")), ("potential",))["potential"]


def _field(obj, name: str):
    if isinstance(obj, Kernel):
        return obj.family if name == "family" else obj.params.get(name)
    return getattr(obj, name)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical resolved form; floats round-trip via repr."""
    lines = []
    for key, (_, _, name) in _KEYS.items():
        value = _field(getattr(cfg, key.partition(".")[0]), name)
        if value is not None:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
