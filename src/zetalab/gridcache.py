"""Binary grid cache: magic "ZML1", version byte, float64 records.

Record layout is little-endian (t, Z, Z', theta, theta') per sample; the
format round-trips grids bit-exactly.  Only the CLI writes it (`zetalab eval
--cache`); the quadrature modules evaluate their grids afresh.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .critline import GridData
from .errors import ConfigError

MAGIC = b"ZML1"
VERSION = 1
_FIELDS = 5

# Records interleaved and written at a time: 320 kB, so the writer holds no
# copy of the grid.
_WRITE_ROWS = 1 << 13


def write_grid(grid: GridData, path: str | Path) -> None:
    columns = (grid.t, grid.Z, grid.Z_prime, grid.theta, grid.theta_prime)
    records = np.empty((min(grid.t.size, _WRITE_ROWS), _FIELDS), dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<B", VERSION))
        fh.write(struct.pack("<d", grid.est_abs_error))
        fh.write(struct.pack("<Q", grid.t.size))
        for lo in range(0, grid.t.size, _WRITE_ROWS):
            block = records[: min(_WRITE_ROWS, grid.t.size - lo)]
            for field, column in enumerate(columns):
                block[:, field] = column[lo : lo + block.shape[0]]
            fh.write(block.data)


def read_grid(path: str | Path) -> GridData:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise ConfigError(f"bad grid cache magic {magic!r} in {path}")
        (version,) = struct.unpack("<B", fh.read(1))
        if version != VERSION:
            raise ConfigError(f"unsupported grid cache version {version}")
        (est,) = struct.unpack("<d", fh.read(8))
        (count,) = struct.unpack("<Q", fh.read(8))
        # Checked before the read: a corrupt count asks fh.read for up to 2^64
        # records (MemoryError or OverflowError, not a cache error).
        if count * _FIELDS * 8 > os.fstat(fh.fileno()).st_size - fh.tell():
            raise ConfigError(f"truncated grid cache {path}")
        data = np.frombuffer(fh.read(count * _FIELDS * 8), dtype="<f8")
    records = data.reshape(count, _FIELDS)
    return GridData(
        t=records[:, 0].copy(),
        Z=records[:, 1].copy(),
        Z_prime=records[:, 2].copy(),
        theta=records[:, 3].copy(),
        theta_prime=records[:, 4].copy(),
        est_abs_error=est,
    )
