"""zetalab benchmark: one run of one workload.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  A run measures set-up in fresh processes, then runs passes of
the workload (see ``workloads.py``) until ``--seconds`` of timed work have
passed, checks every result outside the timed region, and prints two JSON
lines: a report with every figure of the workload and the environment,
and, last, the summary ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the passes alternate untraced and traced and the metrics are per layer.
``--smoke`` runs the same operations at reduced sizes.
"""

from __future__ import annotations

import os

# One thread in total: BLAS pools are fixed before numpy loads, and every
# zetalab call gets --workers 1 (workloads.WORKERS).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_PROBES = {"full": 5, "smoke": 1}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("err_digits", "digits"),
)

# Per-layer metrics: (name, unit).  Self time excludes traced children.
PER_LAYER = (
    ("critline.eval_grid.calls", "count"),
    ("critline.eval_grid.self_s", "s"),
    ("critline.eval_grid.points", "count"),
    ("critline.eval_grid.main_terms", "count"),
    ("critline.eval_grid.pts_per_s.1e4", "1/s"),
    ("critline.eval_grid.pts_per_s.1e6", "1/s"),
    ("critline.eval_grid.repeat_frac", "frac"),
    ("critline.eval_grid.est_cover", "ratio"),
    ("critline.zeta_em_vec.calls", "count"),
    ("critline.zeta_em_vec.self_s", "s"),
    ("critline.zeta_em_vec.args", "count"),
    ("critline.zeta_em_line.self_s", "s"),
    ("critline.zeta_em_line.points", "count"),
    ("critline.critical_sample.calls", "count"),
    ("critline.critical_sample.self_s", "s"),
    ("critline.theta_pair_vec.self_s", "s"),
    ("moments.joint_moment_on_grids.calls", "count"),
    ("moments.joint_moment_on_grids.self_s", "s"),
    ("moments.joint_moment_on_grids.points", "count"),
    ("moments.moment_grids.self_s", "s"),
    ("twisted.contour_fourth_moment.self_s", "s"),
    ("twisted.contour_fourth_moment.nodes4", "count"),
    ("twisted.contour_second_moment.self_s", "s"),
    ("twisted.contour_second_moment.nodes2", "count"),
    ("twisted.twisted_direct.self_s", "s"),
    ("dirpoly.poly_eval_grid.self_s", "s"),
    ("dirpoly.poly_eval_grid.term_points", "count"),
    ("primes.prime_sum_at.calls", "count"),
    ("primes.prime_sum_at.self_s", "s"),
    ("dirpoly.increment_series_eval.calls", "count"),
    ("dirpoly.increment_series_eval.self_s", "s"),
    ("dirpoly.increment_series_eval.prime_points", "count"),
    ("inequality.check_interpolation.self_s", "s"),
    ("inequality.check_interpolation.heights", "count"),
    ("inequality.interpolation_sides_grid.self_s", "s"),
    ("inequality.penalty_exponent.calls", "count"),
    ("inequality.penalty_exponent.self_s", "s"),
    ("gridcache.write_grid.self_s", "s"),
    ("gridcache.write_grid.bytes", "B"),
    ("cli.main.self_s", "s"),
    ("cli.main.bytes_out", "B"),
    ("primes.sieve_primes.self_s", "s"),
    ("trace.overhead_frac", "frac"),
)

# Largest deviations are floored here, so an exact match reads as 16 digits.
DEV_FLOOR = 1.0e-16


def _import_package():
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import zetalab.cli  # noqa: F401  (imports every module of the package)


def _probe() -> int:
    """Child process of the set-up measurement: import, set up, report."""
    _import_package()
    import workloads

    workloads.setup()
    print("ready", flush=True)
    return 0


class Calibration:
    """Machine speed, measured between operations by a fixed kernel.

    The machine shares its cores: its speed drifts by tens of percent over
    seconds to minutes, and the drift moves the calibration kernel and the
    workload together.  Each timed interval is rescaled by NOMINAL_S over
    the kernel's time around it, so figures read as seconds on a machine
    where the kernel takes NOMINAL_S.  The kernel mixes an interpreted loop
    with numpy transcendentals on arrays the size of an RS grid chunk, like
    the workloads.
    """

    NOMINAL_S = 0.008  # the kernel's median on a shared 2-core x86-64 VM
    REPEATS = 5

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self._x = np.linspace(0.0, 100.0, 1 << 18)
        self.samples: list[float] = []

    def measure(self) -> float:
        times = []
        for _ in range(self.REPEATS):
            t0 = time.perf_counter()
            acc = 0
            for i in range(30_000):
                acc += i * i
            (self._np.cos(1.7 * self._x) * self._x).sum()
            times.append(time.perf_counter() - t0)
        value = statistics.median(times)
        self.samples.append(value)
        return value

    def scale(self, before: float, after: float) -> float:
        return self.NOMINAL_S / (0.5 * (before + after))


def measure_setup(probes: int, cal: Calibration) -> list[float]:
    """Seconds from spawning a fresh interpreter until it could run the
    first operation, once per probe, rescaled to nominal machine speed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    before = cal.measure()
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--probe"],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        after = cal.measure()
        samples.append((t1 - t0) * cal.scale(before, after))
        before = after
    return samples


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "workers": None,  # filled in by main
        "git_sha": _git_sha(),
    }


def _digits(dev: float) -> float:
    return -math.log10(max(dev, DEV_FLOOR))


def time_ops(ops, tracer, cal: Calibration):
    """Run the operations back to back, calibrating between them.
    Returns (raw seconds of the pass, records, outputs); a record's
    `seconds` is rescaled to nominal machine speed."""
    records = []
    outputs = []
    t_pass = 0.0
    before = cal.measure()
    for op in ops:
        error = None
        out = None
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span(f"op.{op.group}"):
                    out = op.run()
            else:
                out = op.run()
        except Exception:  # an operation that raises counts as failed
            error = traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0
        after = cal.measure()
        t_pass += dt
        records.append({"group": op.group, "seconds": dt * cal.scale(before, after),
                        "work": op.work, "error": error})
        outputs.append(out)
        before = after
    return t_pass, records, outputs


def check_ops(ops, records, outputs) -> None:
    """Check each result that was returned; marks records ok or not."""
    for op, rec, out in zip(ops, records, outputs):
        rec["ok"] = False
        if rec["error"] is not None:
            continue
        try:
            chk = op.check(out)
        except Exception:
            rec["error"] = traceback.format_exc(limit=3)
            continue
        rec.update(ok=bool(chk.ok), detail=chk.detail, z_dev=chk.z_dev, value_dev=chk.value_dev)


def pass_time(records, passes: int) -> float:
    """Median time of one pass, built from per-operation medians: each
    operation of the pass contributes the median of its times over the
    passes given.  With a few long passes per run this takes a median over
    many samples, which rides out the machine's slow spells."""
    groups: dict[str, list[float]] = {}
    for r in records:
        groups.setdefault(r["group"], []).append(r["seconds"])
    return sum(statistics.median(v) * len(v) / passes for v in groups.values())


def run_figures(workload: str, records, passes: int) -> dict[str, float]:
    """Timing figures over the given passes (medians per operation) and the
    accuracy figures (-log10 of the largest deviation in them)."""
    import workloads

    fig = {"wall_s": pass_time(records, passes)}
    for name, _unit, group, kind in workloads.OP_METRICS[workload]:
        recs = [r for r in records if r["group"] == group]
        fig[name] = statistics.median(
            r["seconds"] if kind == "seconds" else r["work"] / r["seconds"] for r in recs
        )
    digits = {}
    for key, name in (("z_dev", "z_err_digits"), ("value_dev", "value_err_digits")):
        devs = [r[key] for r in records if r.get(key) is not None]
        if devs:
            digits[name] = _digits(max(devs))
    fig |= digits
    fig["err_digits"] = min(digits.values())
    return fig


def layer_figures(tracer, passes: list[int], z_reference) -> dict[str, float]:
    """Per-layer figures of each traced pass, as medians over those passes."""
    import numpy as np

    selfs = tracer.self_times()
    per_pass = []
    for p in passes:
        counts = tracer.counts[p]
        fig = {}
        for name, unit in PER_LAYER:
            base, _, field = name.rpartition(".")
            if field == "self_s":
                fig[name] = selfs[p].get(base, 0.0)
            elif name in counts:
                fig[name] = counts[name]
            elif unit == "count" or unit == "B":
                fig[name] = 0.0
        points = counts.get("critline.eval_grid.points", 0.0)
        fig["critline.eval_grid.repeat_frac"] = (
            counts.get("critline.eval_grid.repeat_points", 0.0) / points if points else 0.0
        )
        for band in ("1e4", "1e6"):
            secs = counts.get(f"critline.eval_grid.band_s.{band}", 0.0)
            fig[f"critline.eval_grid.pts_per_s.{band}"] = (
                counts.get(f"critline.eval_grid.band_points.{band}", 0.0) / secs if secs else 0.0
            )
        covers = []
        for ts, zs, est in tracer.cover[p]:
            dev = float(np.max(np.abs(zs - z_reference(ts))))
            covers.append(est / max(dev, 1.0e-300))
        # -1: the pass evaluated no grid, so there is no estimate to cover.
        fig["critline.eval_grid.est_cover"] = min(covers) if covers else -1.0
        per_pass.append(fig)
    out = {name: statistics.median(f[name] for f in per_pass) for name, _ in PER_LAYER
           if name in per_pass[0]}
    out["primes.sieve_primes.self_s"] = selfs[-1].get("primes.sieve_primes", 0.0)
    return out


def main(argv: list[str] | None = None) -> int:
    import numpy as np

    import workloads
    from sizes import SIZES
    from tracer import Tracer

    parser = argparse.ArgumentParser(description="zetalab benchmark run")
    parser.add_argument("--workload", choices=("dense", "contour", "pointwise"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes")
    args = parser.parse_args(argv)

    size = "smoke" if args.smoke else "full"
    sizes = SIZES[size]
    refs = json.loads((HERE / "refs.json").read_text())[size]
    env = environment()
    env["workers"] = workloads.WORKERS

    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(workdir)  # the selftest's scratch files stay in the checkout
    try:
        cal = Calibration()
        setup = measure_setup(SETUP_PROBES[size], cal)
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        scheme = workloads.setup()
        if tracer is not None:
            tracer.uninstall()

        build = workloads.WORKLOADS[args.workload]
        timed = 0.0
        passes = []  # (index, traced, seconds, records)
        index = 0
        while True:
            traced = tracer is not None and index % 2 == 1
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([args.seed, index])))
            ctx = workloads.PassContext(sizes, refs, workdir, index, rng, scheme)
            ops = build(ctx)
            if traced:
                tracer.begin_pass(index)
                tracer.install()
            try:
                seconds, records, outputs = time_ops(ops, tracer if traced else None, cal)
            finally:
                if traced:
                    tracer.uninstall()
            check_ops(ops, records, outputs)  # untraced: checks call the package too
            del outputs
            passes.append((index, traced, seconds, records))
            for f in workdir.iterdir():
                f.unlink()
            timed += seconds
            index += 1
            if timed >= args.seconds and (tracer is None or index >= 2):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    records = [r for _, _, _, recs in passes for r in recs]
    attempted = len(records)
    failed = sum(1 for r in records if not r["ok"])
    for r in records:
        if not r["ok"]:
            print(f"FAILED {r['group']}: {r.get('detail', '')} {r.get('error') or ''}", file=sys.stderr)

    plain = [recs for _, traced, _, recs in passes if not traced]
    report = run_figures(args.workload, [r for recs in plain for r in recs], len(plain))
    report["setup_s"] = statistics.median(setup)
    report["peak_rss_mb"] = peak_rss_mb
    report["failed_frac"] = failed / attempted

    if tracer is None:
        metrics = {name: {"value": report[name], "unit": unit} for name, unit in END_TO_END}
    else:
        traced_idx = [i for i, traced, _, _ in passes if traced]
        layers = layer_figures(tracer, traced_idx, workloads.z_reference)
        traced = [recs for _, traced, _, recs in passes if traced]
        traced_wall = pass_time([r for recs in traced for r in recs], len(traced))
        layers["trace.overhead_frac"] = traced_wall / report["wall_s"] - 1.0
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}

    units = dict(END_TO_END) | {"failed_frac": "frac", "z_err_digits": "digits",
                                "value_err_digits": "digits"}
    units |= {name: unit for name, unit, _, _ in workloads.OP_METRICS[args.workload]}
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "size": size,
        "trace": args.trace,
        "passes": len(passes),
        "pass_raw_s": [seconds for _, _, seconds, _ in passes],
        "calibration_s": statistics.median(cal.samples),
        "setup_samples_s": setup,
        "env": env,
        "report": {name: {"value": value, "unit": units[name]} for name, value in report.items()},
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    if not (SRC / "zetalab" / "__init__.py").is_file():
        print(f"error: no zetalab sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    if sys.argv[1:] == ["--probe"]:
        sys.exit(_probe())
    _import_package()
    sys.exit(main())
