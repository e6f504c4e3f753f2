"""The three workloads: the operations of one pass and the checks on their
results.

Each workload is a closed loop with one caller: the operations of a pass
run back to back in a fixed order, each starting when the previous one has
returned.  A pass draws its heights and samples from its own random
stream, derived from the run's seed and the pass number; the program sees
only the generated inputs.

Checks run after the pass, outside the timed region, and use the package's
second route: the Euler-Maclaurin oracle (or mpmath above its range) for Z,
and pinned references from ``refs.json`` for the moment, direct and contour
values.  The tolerances are those of ``tests/test_acceptance.py``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from sizes import MOMENT_HS, MOMENT_KS, POLYS, TARGETS, Sizes

from zetalab import cli, critline, dirpoly, gridcache, inequality, moments, primes, twisted

TWO_PI = 2.0 * math.pi

# Acceptance tolerances (tests/test_acceptance.py).
Z_TOL = 1.0e-6  # criterion 2: |Z_rs - Z_em|
Z_TOL_FROM = 100.0  # criterion 2 checks heights from 100 up
IDENTITY_ABS = 1.0e-8  # criterion 1: | |Z| - |zeta| |
IDENTITY_REL = 1.0e-6  # criterion 1: derivative identity
MOMENT_BAND = 0.15  # criterion 3: |value / (T log T) - 1|
RATIO_BAND = (0.5, 2.0)  # criterion 8: direct / contour
NODE_REL2 = 1.0e-6  # criterion 7: second moment under node doubling
NODE_REL4 = 1.0e-4  # criterion 7: fourth moment under node doubling

INTERP_KS = (1.0, 1.3, 1.7, 2.0)  # criterion 5
MP_DPS = 25
WORKERS = 1


@dataclass
class Check:
    ok: bool
    detail: str = ""
    z_dev: float | None = None  # largest |Z - Z_ref|
    value_dev: float | None = None  # largest relative deviation from a reference


@dataclass
class Op:
    group: str
    run: Callable[[], Any]
    check: Callable[[Any], Check]
    work: float = 1.0


@dataclass
class PassContext:
    sizes: Sizes
    refs: dict
    workdir: Path
    index: int
    rng: np.random.Generator
    scheme: primes.IncrementScheme

    def height(self, table: tuple[float, ...]) -> float:
        """Pass i works at the i-th height of the table, whatever the seed:
        runs of one length then share their heights, and the pinned
        quadrature errors at those heights do not vary with the seed."""
        return table[self.index % len(table)]

    def path(self, name: str) -> Path:
        return self.workdir / f"p{self.index}_{name}"


def setup() -> primes.IncrementScheme:
    """The program's own lazy set-up, done once before the first operation:
    RS Chebyshev models, EM Bernoulli numbers, the sieve and the
    Gauss-Legendre rule.  Returns the increment scheme of criterion 5."""
    critline.eval_grid(np.array([critline.RS_MIN_T]))
    critline.zeta_em(2.0)
    table = primes.sieve_primes(10_000)
    twisted.mellin_weight(0.0, 1.0e3)
    return primes.custom_scheme(1.0e5, [primes.E_SQUARED, 14.0, 30.0], table)


def run_cli(argv: list[str]) -> int:
    """`zetalab <argv>` in-process; its console output is discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def z_reference(ts) -> np.ndarray:
    """Z by routes that share no code with Riemann-Siegel: the Gamma phase
    with Euler-Maclaurin zeta up to 1e5, mpmath.siegelz above."""
    ts = np.asarray(ts, dtype=float)
    out = np.empty(ts.shape)
    low = np.abs(ts) <= critline.EM_MAX_IM
    if np.any(low):
        order = np.argsort(ts[low])
        tl = ts[low][order]
        # Small sorted chunks: the EM term count follows the chunk's top height.
        zeta = np.concatenate([critline.zeta_em_line(tl[i : i + 64])[0]
                               for i in range(0, tl.size, 64)])
        theta = np.array([critline.theta_gamma(float(t)) for t in tl])
        vals = np.empty(tl.shape)
        vals[order] = (np.exp(1j * theta) * zeta).real
        out[low] = vals
    if np.any(~low):
        import mpmath

        with mpmath.workdps(MP_DPS):
            out[~low] = [float(mpmath.siegelz(float(t))) for t in ts[~low]]
    return out


def z_deviation(ts, zs) -> np.ndarray:
    return np.abs(np.asarray(zs, dtype=float) - z_reference(ts))


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def _value_check(value: float, ref: float, second: float | None, node_tol: float | None,
                 label: str) -> Check:
    """Deviation from the finer reference, plus the acceptance checks: the
    ratio to the other route and, for contours, the node-doubling bound."""
    dev = _rel(value, ref)
    ok = math.isfinite(value)
    detail = f"{label}: rel dev {dev:.2e}"
    if second is not None:
        ratio = value / second
        ok = ok and RATIO_BAND[0] <= ratio <= RATIO_BAND[1]
        detail += f", ratio to second route {ratio:.4f}"
    if node_tol is not None:
        ok = ok and dev < node_tol
    return Check(ok, detail, value_dev=dev)


# ---------------------------------------------------------------------------
# dense
# ---------------------------------------------------------------------------


def dense_ops(ctx: PassContext) -> list[Op]:
    sz = ctx.sizes
    T = ctx.height(sz.dense_Ts)
    ref = ctx.refs["dense"][repr(T)]
    ops: list[Op] = []

    moments_csv = ctx.path("moments.csv")

    def check_moments(rc: int) -> Check:
        if rc != 0:
            return Check(False, f"moments exit {rc}")
        with open(moments_csv, newline="") as fh:
            row = list(csv.DictReader(fh))[0]
        value = float(row["value"])
        band = abs(value / (T * math.log(T)) - 1.0)
        chk = _value_check(value, ref["moments"]["1.0/0.0"], None, None, "moments k=1 h=0")
        chk.ok = chk.ok and band < MOMENT_BAND
        return chk

    ops.append(Op(
        "moment",
        lambda: run_cli(["moments", "--T", repr(T), "--k", "1", "--h", "0",
                         "--workers", str(WORKERS), "--out", str(moments_csv)]),
        check_moments,
    ))

    probe = ctx.rng.choice(int(T / (TWO_PI / math.log(T / TWO_PI)) * 20), size=48, replace=False)

    def holder_sweep():
        grids = moments.moment_grids(T, workers=WORKERS)
        ests = {
            (k, h): moments.joint_moment_on_grids(moments.MomentRequest(T, k, h), *grids)
            for k in MOMENT_KS
            for h in MOMENT_HS
        }
        reports = [
            inequality.verify_holder(ests[k, 0.0], ests[k, 1.0], ests[k, h], h)
            for k in MOMENT_KS
            for h in MOMENT_HS[1:-1]
        ]
        idx = probe[probe < grids[0].t.size]
        return ests, reports, grids[0].t[idx], grids[0].Z[idx]

    def check_holder(out) -> Check:
        ests, reports, ts, zs = out
        devs = [_rel(est.value, ref["moments"][f"{k!r}/{h!r}"]) for (k, h), est in ests.items()]
        zdev = float(np.max(z_deviation(ts, zs)))
        broken = [(r.h, r.value) for r in reports if not r.holds]
        ok = not broken and len(reports) == 12 and zdev < Z_TOL
        return Check(ok, f"holder violations {broken}, grid |dZ| {zdev:.2e}", zdev, max(devs))

    ops.append(Op("holder_sweep", holder_sweep, check_holder))

    for name, coeffs in POLYS.items():
        poly = dirpoly.DirichletPoly.from_coeffs(coeffs)
        ops.append(Op(
            "twisted_direct",
            lambda poly=poly: twisted.twisted_direct(poly, T, "dzeta2", workers=WORKERS),
            lambda value, name=name: _value_check(
                value, ref["direct"][name], ref["contour2"][name], None, f"direct {name}"
            ),
        ))

    t_min = sz.eval_t + float(ctx.rng.uniform(0.0, 0.02 * sz.eval_t))
    step = TWO_PI / math.log(t_min / TWO_PI) / 20.0
    t_max = t_min + sz.eval_points * step
    rows = int(math.ceil((t_max - t_min) / step))
    eval_csv = ctx.path("grid.csv")
    eval_zml = ctx.path("grid.zml")
    mp_rows = ctx.rng.choice(rows, size=sz.mp_points, replace=False)

    def check_eval(rc: int) -> Check:
        if rc != 0:
            return Check(False, f"eval exit {rc}")
        table = np.loadtxt(eval_csv, delimiter=",", skiprows=1, ndmin=2)
        cached = gridcache.read_grid(eval_zml)
        same = (
            table.shape == (rows, 5)
            and np.array_equal(table[:, 0], cached.t)
            and np.array_equal(table[:, 1], cached.Z)
        )
        zdev = float(np.max(z_deviation(table[mp_rows, 0], table[mp_rows, 1])))
        ok = same and zdev < Z_TOL
        return Check(ok, f"eval rows {table.shape[0]}/{rows}, csv==cache {same}, |dZ| {zdev:.2e}",
                     z_dev=zdev)

    ops.append(Op(
        "eval",
        lambda: run_cli(["eval", "--t-min", repr(t_min), "--t-max", repr(t_max),
                         "--step", repr(step), "--workers", str(WORKERS),
                         "--out", str(eval_csv), "--cache", str(eval_zml)]),
        check_eval,
        work=rows,
    ))
    return ops


# ---------------------------------------------------------------------------
# contour
# ---------------------------------------------------------------------------


def contour_ops(ctx: PassContext) -> list[Op]:
    sz = ctx.sizes
    T = ctx.height(sz.contour_Ts)
    ref = ctx.refs["contour"][repr(T)]
    phi = twisted.CutoffFn()
    ops: list[Op] = []
    for target in TARGETS:
        for name, coeffs in POLYS.items():
            poly = dirpoly.DirichletPoly.from_coeffs(coeffs)
            ops.append(Op(
                "contour2",
                lambda poly=poly, target=target: twisted.contour_second_moment(
                    poly, T, twisted.ShiftConfig.for_height(T, sz.nodes2), phi, target
                ),
                lambda value, name=name, target=target: _value_check(
                    value, ref["contour2"][target][name], ref["direct2"][target][name],
                    NODE_REL2, f"contour2 {target} {name}",
                ),
            ))
    one = dirpoly.DirichletPoly.one()
    for target in TARGETS:
        ops.append(Op(
            "contour4",
            lambda target=target: twisted.contour_fourth_moment(
                one, T,
                twisted.ShiftConfig.for_height(T, sz.nodes4, twisted.fourth_moment_scale(T)),
                phi, target,
            ),
            lambda value, target=target: _value_check(
                value, ref["contour4"][target], ref["direct4"][target],
                NODE_REL4, f"contour4 {target}",
            ),
        ))
    return ops


# ---------------------------------------------------------------------------
# pointwise
# ---------------------------------------------------------------------------


def pointwise_ops(ctx: PassContext) -> list[Op]:
    sz = ctx.sizes
    rng = ctx.rng
    ops: list[Op] = []

    ts = np.sort(rng.uniform(1.0e4, 1.1e4, sz.interp_heights))
    for k in INTERP_KS:
        for variant in inequality.VARIANTS:
            for target in ("zeta", "hardyZ"):
                cfg = inequality.InterpolationConfig(k=k, scheme=ctx.scheme, variant=variant)
                ops.append(Op(
                    "interp",
                    lambda cfg=cfg, target=target: inequality.check_interpolation(ts, cfg, target),
                    lambda rep: Check(
                        rep.failures.size == 0 and rep.t.size == ts.size,
                        f"interp k={rep.k} {rep.variant} {rep.target}: "
                        f"failures {rep.failures.size}, min margin {rep.min_margin:.3e}",
                    ),
                    work=ts.size,
                ))

    heights = np.concatenate([
        rng.uniform(50.0, 5000.0, sz.samples),
        np.exp(rng.uniform(math.log(5.0e3), math.log(1.0e6), sz.high_samples)),
    ])

    def check_samples(samples) -> Check:
        z = np.array([s.Z for s in samples])
        ident = max(abs(abs(s.Z) - abs(s.zeta)) for s in samples)
        deriv = max(
            (abs(abs(s.zeta_prime) ** 2 - (s.Z_prime**2 + s.theta_prime**2 * s.Z**2))
             / (s.Z_prime**2 + s.theta_prime**2 * s.Z**2) for s in samples if abs(s.Z) > 1.0e-3),
            default=0.0,
        )
        dev = z_deviation(heights, z)
        zdev_tol = float(np.max(dev[heights >= Z_TOL_FROM], initial=0.0))
        ok = (len(samples) == heights.size and ident < IDENTITY_ABS and deriv < IDENTITY_REL
              and zdev_tol < Z_TOL)
        return Check(ok, f"samples: identity {ident:.2e}, derivative {deriv:.2e}, "
                         f"|dZ| {float(np.max(dev)):.2e} (t>=100: {zdev_tol:.2e})",
                     z_dev=float(np.max(dev)))

    ops.append(Op(
        "samples",
        lambda: [critline.critical_sample(float(t)) for t in heights],
        check_samples,
        work=heights.size,
    ))

    tt = np.sort(rng.uniform(1.0e2, 1.0e5, sz.oracle_points))

    def check_oracle(out) -> Check:
        zeta, _, _ = out
        theta = np.array([critline.theta_gamma(float(t)) for t in tt])
        z_em = (np.exp(1j * theta) * zeta).real
        zdev = float(np.max(np.abs(critline.eval_grid(tt).Z - z_em)))
        return Check(zdev < Z_TOL and zeta.size == tt.size, f"oracle: |Z_rs - Z_em| {zdev:.2e}",
                     z_dev=zdev)

    ops.append(Op("oracle", lambda: critline.zeta_em_line(tt), check_oracle, work=tt.size))

    selftest_seed = int(rng.integers(1, 2**31))
    selftest_csv = ctx.path("selftest.csv")

    def check_selftest(rc: int) -> Check:
        if rc != 0:
            return Check(False, f"selftest exit {rc}")
        with open(selftest_csv, newline="") as fh:
            bad = [r["check"] for r in csv.DictReader(fh) if r["pass"] != "1"]
        return Check(not bad, f"selftest seed {selftest_seed}: failed {bad}")

    ops.append(Op(
        "selftest",
        lambda: run_cli(["selftest", "--seed", str(selftest_seed), "--workers", str(WORKERS),
                         "--out", str(selftest_csv)]),
        check_selftest,
    ))
    return ops


WORKLOADS = {"dense": dense_ops, "contour": contour_ops, "pointwise": pointwise_ops}

# Figures each workload reports besides the common ones: (name, unit, op
# group, "seconds" = median seconds per call or "rate" = work per median call).
OP_METRICS = {
    "dense": (
        ("moment_s", "s", "moment", "seconds"),
        ("holder_sweep_s", "s", "holder_sweep", "seconds"),
        ("twisted_direct_s", "s", "twisted_direct", "seconds"),
        ("eval_rows_per_s", "1/s", "eval", "rate"),
    ),
    "contour": (
        ("contour2_s", "s", "contour2", "seconds"),
        ("contour4_s", "s", "contour4", "seconds"),
    ),
    "pointwise": (
        ("interp_heights_per_s", "1/s", "interp", "rate"),
        ("oracle_pts_per_s", "1/s", "oracle", "rate"),
        ("selftest_s", "s", "selftest", "seconds"),
    ),
}
