#!/usr/bin/env python3
"""Paired perfbench runs of two commits, written to BENCH_<tag>.json.

    python3 scripts/bench_pairs.py --base HEAD~1 --change HEAD --tag pr6

Each commit is exported with `git archive` into its own clean directory
under `.bench_build/`, so only committed files run, each side with its own
copy of perfbench.  For every workload of BENCHMARK.json the script runs
PAIRS pairs of `perfbench/run.py --trace 0`; pair i uses seed FIRST_SEED + i
on both sides and runs the base first when i is even, the change first when
i is odd.  Ten pairs are the fewest from which a gain may be claimed.  The
run length is BENCHMARK.json's `run_seconds`.

The JSON file holds the environment and one record per run: its workload,
pair, seed and side, its summary line, and from its report line the number
of passes, each pass's raw seconds, the calibration time and every report
figure (`holder_sweep_s`, `eval_rows_per_s`, ...).  Per workload it adds,
for each end-to-end metric, the median and quartiles of each side, the
change's median over the base's, and the number of pairs the change won
(by the metric's direction in BENCHMARK.json); and for each report figure
the median of each side.  The exports are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUILD = ROOT / ".bench_build"
SIDES = ("base", "change")
PAIRS = 10
FIRST_SEED = 11


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(sha: str) -> Path:
    """The committed tree of sha in a fresh directory under .bench_build/."""
    dest = BUILD / sha
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", "--format=tar", sha], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One perfbench run: (report line, summary line)."""
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if res.returncode != 0:
        raise RuntimeError(f"{checkout.name} {workload} seed {seed}: exit {res.returncode}\n{res.stderr}")
    lines = res.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def pair_order(pair: int) -> tuple[str, str]:
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def run_record(workload: str, pair: int, seed: int, side: str, report: dict, summary: dict) -> dict:
    """One run as kept in the JSON file: the summary line whole, and of the
    report line the pass count, raw pass seconds, calibration time and the
    value of each report figure."""
    return {
        "workload": workload, "pair": pair, "seed": seed, "side": side,
        "passes": report["passes"],
        "pass_raw_s": report["pass_raw_s"],
        "calibration_s": report["calibration_s"],
        "report": {name: fig["value"] for name, fig in report["report"].items()},
        "summary": summary,
    }


def _report_figures(run: dict) -> dict[str, float]:
    """The report figures of a run record with its pass count, median raw
    pass seconds and calibration time."""
    return {
        "passes": run["passes"],
        "pass_raw_s": statistics.median(run["pass_raw_s"]),
        "calibration_s": run["calibration_s"],
        **run["report"],
    }


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric: medians, quartiles, ratio and pairs won.

    runs holds `run_record` records; better maps each end-to-end metric to
    "lower" or "higher".  A pair counts as won when the change is strictly
    better, lost when strictly worse.  "report_medians" holds, for each
    report figure that every paired run has, the median of each side
    (`_report_figures`; for pass_raw_s, of each run's median pass).
    """
    out: dict[str, dict] = {}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        by_pair: dict[int, dict[str, dict]] = {}
        for r in mine:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r
        pairs = [p for p in sorted(by_pair) if set(by_pair[p]) == set(SIDES)]
        fig: dict[str, dict] = {}
        for metric, direction in better.items():
            values = {
                side: [by_pair[p][side]["summary"]["metrics"][metric]["value"] for p in pairs]
                for side in SIDES
            }
            sign = 1.0 if direction == "lower" else -1.0
            diffs = [sign * (b - c) for b, c in zip(values["base"], values["change"])]
            base_med = statistics.median(values["base"])
            fig[metric] = {
                "base_median": base_med,
                "change_median": statistics.median(values["change"]),
                "base_quartiles": _quartiles(values["base"]),
                "change_quartiles": _quartiles(values["change"]),
                "change_over_base": statistics.median(values["change"]) / base_med
                if base_med else None,
                "change_wins": sum(d > 0 for d in diffs),
                "change_losses": sum(d < 0 for d in diffs),
            }
        fig["pairs"] = len(pairs)
        fig["failed"] = {
            side: sum(by_pair[p][side]["summary"]["failed"] for p in pairs) for side in SIDES
        }
        fig["attempted"] = {
            side: sum(by_pair[p][side]["summary"]["attempted"] for p in pairs) for side in SIDES
        }
        figures = {side: [_report_figures(by_pair[p][side]) for p in pairs] for side in SIDES}
        shared = set.intersection(*(set(f) for side in SIDES for f in figures[side])) if pairs else set()
        fig["report_medians"] = {
            name: {side: statistics.median(f[name] for f in figures[side]) for side in SIDES}
            for name in sorted(shared)
        }
        out[workload] = fig
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision of the parent")
    ap.add_argument("--change", required=True, help="git revision of the change")
    ap.add_argument("--tag", required=True, help="names the output BENCH_<tag>.json")
    args = ap.parse_args()

    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    revs = {side: {"rev": rev, "sha": _git("rev-parse", rev)}
            for side, rev in zip(SIDES, (args.base, args.change))}
    runs: list[dict] = []
    env: dict = {"cpu": _cpu_model(), "run_seconds": spec["run_seconds"]}
    try:
        checkouts = {side: export(revs[side]["sha"]) for side in SIDES}
        for workload in (w["name"] for w in spec["workloads"]):
            for pair in range(PAIRS):
                seed = FIRST_SEED + pair
                for side in pair_order(pair):
                    report, summary = run_once(checkouts[side], workload, seed, spec["run_seconds"])
                    env.setdefault("perfbench", report["env"])
                    runs.append(run_record(workload, pair, seed, side, report, summary))
                    wall = summary["metrics"]["wall_s"]["value"]
                    print(f"{workload} pair {pair} seed {seed} {side}: wall_s {wall:.4g}",
                          file=sys.stderr)
    finally:
        for side in SIDES:
            shutil.rmtree(BUILD / revs[side]["sha"], ignore_errors=True)
        if BUILD.is_dir() and not any(BUILD.iterdir()):
            BUILD.rmdir()

    summary = summarize(runs, better)
    doc = {"tag": args.tag, "revs": revs, "env": env, "runs": runs, "summary": summary}
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    for workload, fig in summary.items():
        for metric in better:
            m = fig[metric]
            print(f"{workload:10s} {metric:12s} base {m['base_median']:.5g} "
                  f"change {m['change_median']:.5g} wins {m['change_wins']}/{fig['pairs']}")
        for name, m in fig["report_medians"].items():
            print(f"{workload:10s} {name:24s} base {m['base']:.5g} change {m['change']:.5g}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
