"""Binary field snapshots.

Layout (little-endian, frozen): magic "NLCH1\\0", u8 dim, u32 n_per_axis,
f64 edge_length, f64 time, then n_per_axis^dim f64 values row-major.
read(write(field)) is the identity at the bit level.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .grid import Field, Grid, max_abs

MAGIC = b"NLCH1\x00"
#: file name of a run's last state, written next to its strided snapshots
FINAL_SNAPSHOT_NAME = "final.nlch"
#: file name of the stationary state `nlch equilibrium` writes (stored at t = 0)
EQUILIBRIUM_SNAPSHOT_NAME = "equilibrium.nlch"
_NOT_STRIDED = (FINAL_SNAPSHOT_NAME, EQUILIBRIUM_SNAPSHOT_NAME)
_HEADER = struct.Struct("<6sBIdd")


class SnapshotError(IOError):
    pass


def write_snapshot(field: Field, t: float, path) -> None:
    payload = np.ascontiguousarray(field.values, dtype="<f8").tobytes()
    header = _HEADER.pack(
        MAGIC, field.grid.dim, field.grid.n_per_axis, field.grid.edge_length, float(t)
    )
    Path(path).write_bytes(header + payload)


def read_snapshot(path, expected_grid: Grid | None = None) -> tuple[Field, float]:
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise SnapshotError(
            f"{path}: truncated header, expected at least {_HEADER.size} bytes, got {len(data)}"
        )
    magic, dim, n, edge_length, t = _HEADER.unpack_from(data)
    if magic != MAGIC:
        if magic[:4] == MAGIC[:4]:
            raise SnapshotError(
                f"{path}: version mismatch, magic {magic!r} (expected {MAGIC!r})"
            )
        raise SnapshotError(f"{path}: bad magic {magic!r}")
    try:
        grid = Grid(dim=dim, n_per_axis=n, edge_length=edge_length)
    except ValueError as exc:
        raise SnapshotError(f"{path}: invalid grid header: {exc}") from exc
    expected_bytes = _HEADER.size + grid.size * 8
    if len(data) != expected_bytes:
        raise SnapshotError(
            f"{path}: truncated payload, expected {expected_bytes} bytes, got {len(data)}"
        )
    if expected_grid is not None and grid != expected_grid:
        raise SnapshotError(
            f"{path}: grid mismatch, file has {grid}, expected {expected_grid}"
        )
    values = np.frombuffer(data, dtype="<f8", offset=_HEADER.size).reshape(grid.shape)
    try:
        return Field(grid, values), float(t)
    except ValueError as exc:  # a NaN or inf in the payload
        raise SnapshotError(f"{path}: {exc}") from exc


def uniform_stride(times: np.ndarray) -> float | None:
    """The spacing of at least two sorted times, their median difference, or
    None where it is not uniform to 1e-9 relative (a NaN is not)."""
    diffs = np.diff(times)
    # np.median's arithmetic, without the numpy.ma import it costs (~14 ms)
    middle = np.sort(diffs)[(diffs.size - 1) // 2 : diffs.size // 2 + 1]
    stride = float(np.add.reduce(middle) / middle.size)
    if not (stride > 0.0 and max_abs(diffs - stride) <= 1e-9 * stride):
        return None
    return stride


def read_snapshot_dir(directory, expected_grid: Grid | None = None) -> list[tuple[float, Field]]:
    """The strided *.nlch snapshots of a directory, sorted by stored time.
    FINAL_SNAPSHOT_NAME and EQUILIBRIUM_SNAPSHOT_NAME are skipped: the first
    repeats the time of a strided snapshot whenever the run ends on its stride,
    the second is stored at t = 0; either breaks uniform striding."""
    paths = [p for p in sorted(Path(directory).glob("*.nlch")) if p.name not in _NOT_STRIDED]
    if not paths:
        raise SnapshotError(f"no strided *.nlch snapshots in {directory}")
    out = []
    for path in paths:
        field, t = read_snapshot(path, expected_grid=expected_grid)
        out.append((t, field))
    out.sort(key=lambda pair: pair[0])
    return out
