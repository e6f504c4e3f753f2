import csv
import subprocess
import sys
from pathlib import Path

from test_cli import _child_env

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_run_contour_compare(tmp_path):
    res = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_contour_compare.py"),
         "--heights", "2e3", "--nodes", "32"],
        cwd=tmp_path, env=_child_env(), capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    with open(tmp_path / "contour_compare.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    ratios = [float(row["ratio"]) for row in rows if row["method"] == "contour"]
    assert len(ratios) == 2
    assert all(0.5 <= r <= 2.0 for r in ratios), ratios
