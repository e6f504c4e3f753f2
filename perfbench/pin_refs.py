"""Compute the reference values the benchmark checks its results against.

The references use a finer route than the benchmark's own operations:
80 points per mean zero gap for the quadratures (``Sizes.ref_ppg``) and
twice the node count for the contour integrals.  The direct integrals at
the contour heights are the second route for the contour workload.

Run from the repository root; it rewrites ``perfbench/refs.json``:

    python3 perfbench/pin_refs.py --jobs 2

One entry takes up to a few minutes (the direct integrals at T = 1e5
evaluate 4.6 million Riemann-Siegel points each).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

from run import _git_sha  # noqa: E402
from sizes import MOMENT_HS, MOMENT_KS, POLYS, SIZES, TARGETS, WEIGHT2, WEIGHT4  # noqa: E402


def _dense_entry(size: str, T: float) -> dict:
    from zetalab import dirpoly, moments, twisted

    sz = SIZES[size]
    grids = moments.moment_grids(T, sz.ref_ppg)
    moment_vals = {
        f"{k!r}/{h!r}": moments.joint_moment_on_grids(
            moments.MomentRequest(T, k, h, "zeta", sz.ref_ppg), *grids
        ).value
        for k in MOMENT_KS
        for h in MOMENT_HS
    }
    del grids
    direct = {}
    contour2 = {}
    for name, coeffs in POLYS.items():
        poly = dirpoly.DirichletPoly.from_coeffs(coeffs)
        direct[name] = twisted.twisted_direct(poly, T, "dzeta2", points_per_gap=sz.ref_ppg)
        contour2[name] = twisted.contour_second_moment(
            poly, T, twisted.ShiftConfig.for_height(T, sz.ref_nodes2), target="zeta"
        )
    return {"moments": moment_vals, "direct": direct, "contour2": contour2}


def _contour_entry(size: str, T: float) -> dict:
    from zetalab import dirpoly, twisted

    sz = SIZES[size]
    one = dirpoly.DirichletPoly.one()
    cfg2 = twisted.ShiftConfig.for_height(T, sz.ref_nodes2)
    cfg4 = twisted.ShiftConfig.for_height(T, sz.ref_nodes4, twisted.fourth_moment_scale(T))
    contour2 = {}
    direct2 = {}
    contour4 = {}
    direct4 = {}
    for target in TARGETS:
        contour2[target] = {}
        direct2[target] = {}
        for name, coeffs in POLYS.items():
            poly = dirpoly.DirichletPoly.from_coeffs(coeffs)
            contour2[target][name] = twisted.contour_second_moment(poly, T, cfg2, target=target)
            direct2[target][name] = twisted.twisted_direct(poly, T, WEIGHT2[target])
        contour4[target] = twisted.contour_fourth_moment(one, T, cfg4, target=target)
        direct4[target] = twisted.twisted_direct(one, T, WEIGHT4[target])
    return {"contour2": contour2, "direct2": direct2, "contour4": contour4, "direct4": direct4}


def _entries() -> list[tuple[str, str, float]]:
    out = []
    for size, sz in SIZES.items():
        out += [(size, "dense", T) for T in sz.dense_Ts]
        out += [(size, "contour", T) for T in sz.contour_Ts]
    # Longest first, so the pool finishes together.
    return sorted(out, key=lambda e: (e[2], e[1] == "contour"), reverse=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1, help="entries computed at once")
    parser.add_argument("--entry", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.entry:
        size, workload, T = args.entry.split(":")
        fn = _dense_entry if workload == "dense" else _contour_entry
        print(json.dumps(fn(size, float(T))))
        return 0

    refs: dict = {"note": f"computed by perfbench/pin_refs.py at commit {_git_sha()}"}
    env = dict(os.environ, PYTHONPATH=str(SRC))
    pending = _entries()
    running: list[tuple[tuple[str, str, float], subprocess.Popen]] = []
    while pending or running:
        while pending and len(running) < max(1, args.jobs):
            entry = pending.pop(0)
            cmd = [sys.executable, str(Path(__file__).resolve()), "--entry", "%s:%s:%r" % entry]
            running.append((entry, subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)))
        entry, proc = running.pop(0)
        out, _ = proc.communicate()
        if proc.returncode != 0:
            print(f"entry {entry} failed", file=sys.stderr)
            for _, other in running:
                other.kill()
                other.wait()
            return 1
        size, workload, T = entry
        refs.setdefault(size, {}).setdefault(workload, {})[repr(T)] = json.loads(out)
        print(f"pinned {size} {workload} T={T!r}", file=sys.stderr, flush=True)
    (HERE / "refs.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
