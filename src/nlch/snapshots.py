"""Binary field snapshots.

Layout (little-endian, frozen): magic "NLCH1\\0", u8 dim, u32 n_per_axis,
f64 edge_length, f64 time, then n_per_axis^dim f64 values row-major.
read(write(field)) is the identity at the bit level.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .grid import Field, Grid

MAGIC = b"NLCH1\x00"
#: file name of a run's last state, written next to its strided snapshots
FINAL_SNAPSHOT_NAME = "final.nlch"
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
    return Field(grid, values), float(t)


def read_snapshot_dir(directory, expected_grid: Grid | None = None) -> list[tuple[float, Field]]:
    """The strided *.nlch snapshots of a directory, sorted by stored time.
    FINAL_SNAPSHOT_NAME is skipped: it repeats the time of a strided snapshot
    whenever the run ends on its stride, which breaks uniform striding."""
    paths = [p for p in sorted(Path(directory).glob("*.nlch")) if p.name != FINAL_SNAPSHOT_NAME]
    if not paths:
        raise SnapshotError(f"no strided *.nlch snapshots in {directory}")
    out = []
    for path in paths:
        field, t = read_snapshot(path, expected_grid=expected_grid)
        out.append((t, field))
    out.sort(key=lambda pair: pair[0])
    return out
