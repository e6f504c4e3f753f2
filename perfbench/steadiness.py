"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py --workloads dense,contour --seeds 1-10 --out runs.jsonl

Runs ``run.py --trace 0`` once per (workload, seed), appends each summary to
``--out`` (JSON lines) and prints, per workload and metric, the median and
the interquartile range as a share of the median, next to the bound in
BENCHMARK.json.  A metric is steady when that share is below a third of
its bound (``setup_s`` is only compared between sets of runs).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", required=True, help="JSON lines file to append to")
    args = parser.parse_args()

    failed = False
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in _seeds(args.seeds):
            res = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            if res.returncode != 0:
                print(f"{workload} seed {seed}: exit {res.returncode}\n{res.stderr}", file=sys.stderr)
                failed = True
                continue
            summary = json.loads(res.stdout.splitlines()[-1])
            failed = failed or not summary["correct"]
            with open(args.out, "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, **summary}) + "\n")
            for name in values:
                values[name].append(summary["metrics"][name]["value"])
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            if len(vals) < 2:
                continue
            share = spread(vals)
            steady = m["name"] == "setup_s" or share < m["bound"] / 3.0
            print(f"{workload:10s} {m['name']:12s} median {statistics.median(vals):12.6g} "
                  f"spread {share:7.4f} bound {m['bound']:.2f} {'ok' if steady else 'WIDE'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
