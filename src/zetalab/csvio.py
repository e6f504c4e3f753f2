"""The CSV writers behind every table the package exports.

Cells are written as their str, which for a Python float is its repr, the
shortest string that reads back to the same double; pass numpy values as
Python scalars (`ndarray.tolist()`).  Lines end in a bare newline.
"""

from __future__ import annotations

import csv


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_float_columns(path, header: list[str], columns) -> None:
    """Write float arrays as columns: the bytes of write_csv on their rows,
    with each column formatted at once (repr of Python floats from
    `.tolist()`, never of numpy scalars, whose repr is np.float64(...))."""
    texts = [list(map(repr, column.tolist())) for column in columns]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*texts))
