"""The one CSV writer behind every table the package exports.

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
