import csv
import importlib.util
import json
import statistics
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


def _load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _summary(wall, rss, failed=0):
    return {"correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def _report(passes, cal, sweep):
    return {"workload": "dense", "passes": len(passes), "pass_raw_s": passes, "calibration_s": cal,
            "env": {}, "report": {"holder_sweep_s": {"value": sweep, "unit": "s"},
                                  "eval_rows_per_s": {"value": 1.0e5 / sweep, "unit": "1/s"}}}


def test_bench_pairs_summary_from_canned_lines():
    bench = _load_bench_pairs()
    assert [bench.pair_order(i) for i in range(3)] == [
        ("base", "change"), ("change", "base"), ("base", "change")]
    walls = {"base": [10.0, 11.0, 12.0, 10.5, 13.0], "change": [6.0, 6.5, 12.5, 5.5, 7.0]}
    runs = [
        bench.run_record("dense", i, 11 + i, side,
                         _report([walls[side][i], 2.0 * walls[side][i], 1.0], 0.008 + i / 1000, 0.7 - i / 10),
                         _summary(walls[side][i], 100.0 + (side == "change"), failed=i == 4))
        for i in range(5) for side in bench.pair_order(i)
    ]
    # An unpaired run is kept in the record but left out of the figures.
    runs.append(bench.run_record("dense", 5, 16, "base", _report([9.0], 1.0, 9.0),
                                 _summary(1.0, 1.0)))
    assert runs[0]["report"] == {"holder_sweep_s": 0.7, "eval_rows_per_s": 1.0e5 / 0.7}
    assert runs[0]["pass_raw_s"] == [10.0, 20.0, 1.0]
    assert (runs[0]["passes"], runs[0]["calibration_s"]) == (3, 0.008)
    better = {"wall_s": "lower", "peak_rss_mb": "lower"}
    summary = bench.summarize(runs, better)
    assert json.loads(json.dumps(summary)) == summary
    fig = summary["dense"]
    assert fig["pairs"] == 5
    assert fig["failed"] == {"base": 1, "change": 1}
    assert fig["attempted"] == {"base": 50, "change": 50}
    wall = fig["wall_s"]
    assert wall["base_median"] == 11.0
    assert wall["change_median"] == 6.5
    assert wall["change_over_base"] == 6.5 / 11.0
    assert (wall["change_wins"], wall["change_losses"]) == (4, 1)
    assert wall["base_quartiles"] == statistics.quantiles(walls["base"], n=4)
    rss = fig["peak_rss_mb"]
    assert (rss["change_wins"], rss["change_losses"]) == (0, 5)
    # For a metric where higher is better the win count flips.
    flipped = bench.summarize(runs, {"wall_s": "higher"})["dense"]["wall_s"]
    assert (flipped["change_wins"], flipped["change_losses"]) == (1, 4)
    # Report figures: per side, the median over paired runs; pass_raw_s is
    # the median of each run's median pass, here its wall.
    medians = fig["report_medians"]
    assert set(medians) == {"passes", "pass_raw_s", "calibration_s", "holder_sweep_s", "eval_rows_per_s"}
    assert medians["pass_raw_s"] == {"base": 11.0, "change": 6.5}
    assert medians["passes"] == {"base": 3, "change": 3}
    assert medians["calibration_s"] == {"base": 0.010, "change": 0.010}
    assert medians["holder_sweep_s"] == {"base": 0.7 - 2 / 10, "change": 0.7 - 2 / 10}
