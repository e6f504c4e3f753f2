"""write_float_columns against its reference, `",".join(map(repr, row))`."""

import numpy as np
import pytest

from zetalab.csvio import PIECE_ROWS, write_float_columns


def _repr_rows(header, columns) -> bytes:
    lines = [",".join(header)]
    lines += [",".join(map(repr, row)) for row in zip(*(c.tolist() for c in columns))]
    return ("\n".join(lines) + "\n").encode()


def _check(tmp_path, values, ncols=5):
    values = np.asarray(values, dtype=np.float64)
    values = np.concatenate([values, values[: (-values.size) % ncols]])
    columns = list(values.reshape(-1, ncols).T)
    header = [f"c{i}" for i in range(ncols)]
    path = tmp_path / "cols.csv"
    write_float_columns(path, header, columns)
    assert path.read_bytes() == _repr_rows(header, columns)


def _neighbours(x, steps=3):
    out = [x]
    for toward in (0.0, np.inf):
        y = x
        for _ in range(steps):
            y = np.nextafter(y, toward)
            out.append(y)
    return np.concatenate(out)


def test_random_bit_patterns(tmp_path):
    # 1e6 random doubles: 5e4 with any exponent field, mostly exponent form
    # (the repr fallback), and the rest with an exponent field that keeps them
    # within a few octaves of the positional range [1e-4, 1e16), the numpy route.
    rng = np.random.default_rng(20261019)
    bits = rng.integers(0, 2**64, 1_000_000, dtype=np.uint64)
    exponent = rng.integers(1023 - 16, 1023 + 57, bits.size - 50_000, dtype=np.uint64)
    bits[50_000:] = (bits[50_000:] & np.uint64(0x800F_FFFF_FFFF_FFFF)) | (exponent << np.uint64(52))
    _check(tmp_path, bits.view(np.float64))


def test_fast_range_ends_and_special_values(tmp_path):
    ends = _neighbours(np.array([1.0e-4, 1.0e16, 2.0**53]), steps=4)
    powers = np.concatenate([2.0 ** np.arange(-1074, 1024), 10.0 ** np.arange(-323, 309)])
    integers = np.arange(-3000.0, 3000.0)
    rng = np.random.default_rng(7)
    places = rng.integers(0, 9, 20_000)
    decimals = np.round(rng.uniform(-1.0e3, 1.0e3, places.size) * 10.0**places) / 10.0**places
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
                        2.225073858507201e-308, 1.7976931348623157e308, 0.1, 0.2, 0.3, 1 / 3])
    subnormal = rng.integers(1, 2**52, 1000, dtype=np.uint64).view(np.float64)
    values = np.concatenate([ends, _neighbours(powers, steps=1), integers, integers / 8.0,
                             decimals, special, subnormal])
    _check(tmp_path, np.concatenate([values, -values]))


@pytest.mark.parametrize("rows", [0, 1, PIECE_ROWS, PIECE_ROWS + 1])
def test_row_counts(tmp_path, rows):
    values = np.random.default_rng(rows).standard_normal(rows * 3) * 1.0e3
    _check(tmp_path, values, ncols=3)
    _check(tmp_path, values[:rows], ncols=1)
