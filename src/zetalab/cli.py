"""Command-line orchestration: scheme/eval/moments/inequality/twisted/selftest.

Configuration comes from flags plus an optional key=value file (flags win).
All randomness flows through a counter-based Philox generator seeded by
--seed, and parallel work is split into blocks whose results are combined
in a fixed order, so identical configs give byte-identical CSV output at
any worker count.

Exit codes: 0 ok, 2 config error (also non-finite flags and unreadable files),
3 numeric regime error, 4 capacity error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import critline, dirpoly, gridcache, inequality, moments, primes, twisted
from .csvio import write_csv, write_float_columns
from .errors import CapacityError, ConfigError, DomainError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_REGIME = 3
EXIT_CAPACITY = 4

# Rows of one `eval` grid: 40 bytes each in memory, about 100 in the CSV.
EVAL_MAX_ROWS = 10_000_000


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _parse_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    out: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _apply_config_file(
    args: argparse.Namespace, parser: argparse.ArgumentParser, argv: list[str] | None
) -> argparse.Namespace:
    """Parse argv again with the file's values as the subcommand's defaults,
    so every flag given on the command line wins over the file."""
    overrides = _parse_config_file(args.config)
    for key in overrides:
        # Only flags may be set; the other namespace entries are internal.
        if key in ("command", "func", "default_out", "subparser") or not hasattr(args, key):
            raise ConfigError(f"unknown config key {key!r}")
    args.subparser.set_defaults(**overrides)
    # argparse converts string defaults by the flag's type; a bad value
    # raises instead of exiting, so it reports as a config error.
    parser.exit_on_error = args.subparser.exit_on_error = False
    try:
        return parser.parse_args(argv)
    except argparse.ArgumentError as exc:
        raise ConfigError(f"config file {args.config}: {exc}") from None


def _parse_boundaries(text: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad boundary list {text!r}: {exc}") from None
    if len(values) < 2:
        raise ConfigError("boundary list needs at least two values")
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"boundary list {text!r} has a non-finite entry")
    return values


def _load_poly(spec: str) -> tuple[str, dirpoly.DirichletPoly]:
    if spec == "one":
        return "one", dirpoly.DirichletPoly.one()
    if spec == "one_plus_2":
        return "one_plus_2", dirpoly.DirichletPoly.from_coeffs({1: 1.0, 2: 1.0})
    try:
        return Path(spec).stem, dirpoly.read_poly_csv(spec)
    except OSError as exc:
        raise ConfigError(f"cannot read --poly file: {exc}") from None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_scheme(args) -> int:
    table = primes.sieve_primes(args.sieve_limit)
    if args.boundaries:
        scheme = primes.custom_scheme(args.T, _parse_boundaries(args.boundaries), table)
    else:
        scheme = primes.build_scheme(args.T, args.threshold, table)
    primes.write_scheme_csv(scheme, args.out)
    print(f"wrote {args.out}: ell={scheme.ell}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    if not args.t_max > args.t_min:
        raise ConfigError(f"--t-max must exceed --t-min, got [{args.t_min}, {args.t_max}]")
    step = args.step
    if step is None:
        step = moments.mean_zero_gap(args.t_max) / args.points_per_gap
    elif not step > 0.0:
        raise ConfigError(f"--step must be positive, got {step}")
    if args.t_max > critline.MAX_HEIGHT:
        raise DomainError(f"--t-max must be at most {critline.MAX_HEIGHT:g}, got {args.t_max:g}")
    count = math.ceil((args.t_max - args.t_min) / step)
    if count > EVAL_MAX_ROWS:
        raise CapacityError(f"eval grid of {count:.3g} rows exceeds the cap of {EVAL_MAX_ROWS:.3g}")
    ts, _ = moments.midpoint_grid(args.t_min, args.t_max, step)
    grid = critline.eval_grid(ts, workers=args.workers)
    columns = (grid.t, grid.Z, grid.Z_prime, grid.theta, grid.theta_prime)
    write_float_columns(args.out, ["t", "Z", "Z_prime", "theta", "theta_prime"], columns)
    if args.cache:
        gridcache.write_grid(grid, args.cache)
    print(f"wrote {args.out}: {grid.t.size} samples, est_abs_error={grid.est_abs_error:.3g}")
    return EXIT_OK


def _cmd_moments(args) -> int:
    req = moments.MomentRequest(args.T, args.k, args.h, args.target, args.points_per_gap)
    est = moments.joint_moment(req, workers=args.workers)
    moments.write_moment_csv([est], args.out)
    print(f"wrote {args.out}: value={est.value:.6g} est_rel_error={est.est_rel_error:.2g}")
    return EXIT_OK


def _cmd_inequality(args) -> int:
    if not args.t_max > args.t_min:
        raise ConfigError(f"--t-max must exceed --t-min, got [{args.t_min}, {args.t_max}]")
    if args.samples < 0:
        raise ConfigError(f"--samples must be >= 0, got {args.samples}")
    table = primes.sieve_primes(args.sieve_limit)
    scheme = primes.custom_scheme(args.T, _parse_boundaries(args.boundaries), table)
    cfg = inequality.InterpolationConfig(
        k=args.k, scheme=scheme, c_omega=args.c_omega, c_p=args.c_p, variant=args.variant
    )
    rng = _rng(args.seed)
    ts = np.sort(rng.uniform(args.t_min, args.t_max, args.samples))
    grid = critline.eval_grid(ts, workers=args.workers)
    report = inequality.check_interpolation(grid, cfg, args.target)
    inequality.write_interpolation_csv(report, args.out)
    print(
        f"wrote {args.out}: {report.t.size} points, failures={report.failures.size}, "
        f"min_margin={report.min_margin:.4g}"
    )
    return EXIT_OK if report.all_passed else EXIT_REGIME


def _cmd_twisted(args) -> int:
    z2_power, target = twisted.WEIGHTS[args.weight]
    cfg = None
    if args.method in ("contour", "both"):
        # ShiftConfig and fourth_moment_scale own the rules on --T and
        # --nodes; a bad flag is a config error.
        try:
            scale = 1.0 if z2_power == 0 else twisted.fourth_moment_scale(args.T)
            cfg = twisted.ShiftConfig.for_height(args.T, args.nodes, scale)
        except DomainError as exc:
            raise ConfigError(f"--T {args.T} --nodes {args.nodes}: {exc}") from None
    poly_id, poly = _load_poly(args.poly)
    phi = twisted.CutoffFn()
    rows: list[dict] = []
    direct_val = contour_val = None
    if args.method in ("direct", "both"):
        direct_val = twisted.twisted_direct(
            poly, args.T, args.weight, phi, workers=args.workers,
            points_per_gap=args.points_per_gap,
        )
        mesh = twisted.direct_mesh(poly, args.T, args.weight, phi, args.points_per_gap)
        rows.append(
            dict(T=repr(args.T), polynomial_id=poly_id, method="direct",
                 weight=args.weight, value=repr(direct_val), nodes="", mesh=repr(mesh), ratio="")
        )
    if cfg is not None:
        if z2_power == 0:
            contour_val = twisted.contour_second_moment(poly, args.T, cfg, phi, target)
        else:
            contour_val = twisted.contour_fourth_moment(poly, args.T, cfg, phi, target)
        ratio = repr(direct_val / contour_val) if direct_val is not None else ""
        rows.append(
            dict(T=repr(args.T), polynomial_id=poly_id, method="contour",
                 weight=args.weight, value=repr(contour_val), nodes=args.nodes,
                 mesh="", ratio=ratio)
        )
    twisted.write_comparison_csv(rows, args.out)
    summary = ", ".join(f"{r['method']}={r['value']}" for r in rows)
    print(f"wrote {args.out}: {summary}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Self test
# ---------------------------------------------------------------------------


def _selftest_checks(seed: int, workers: int):
    rng = _rng(seed)
    checks: list[tuple[str, bool, str]] = []

    def record(name: str, passed: bool, detail: str) -> None:
        checks.append((name, bool(passed), detail))

    table = primes.sieve_primes(10_000)
    trial = [n for n in range(2, 1001) if all(n % d for d in range(2, int(n**0.5) + 1))]
    sieved = table.primes[table.primes <= 1000]
    record("sieve_vs_trial_division", list(sieved) == trial, f"n={len(trial)}")

    scheme = primes.custom_scheme(1.0e5, [math.exp(2.0), 14.0, 30.0, 60.0], table)
    covered = np.concatenate([scheme.prime_range(j) for j in range(2, scheme.ell + 1)])
    expected = table.primes[(table.primes >= math.exp(2.0)) & (table.primes < 60.0)]
    record("scheme_partition", np.array_equal(np.sort(covered), expected), f"count={covered.size}")
    record(
        "prime_sum_matches_variance",
        all(prsum := [primes.prime_sum_at(scheme, j, 1) == scheme.variance(j)
                      for j in range(2, scheme.ell + 1)]),
        f"per_range={prsum}",
    )

    ts = np.sort(rng.uniform(50.0, 5000.0, 64))
    samples = [critline.critical_sample(float(t)) for t in ts]
    ident = max(abs(abs(s.Z) - abs(s.zeta)) for s in samples)
    pyth = max(
        abs(abs(s.zeta_prime) ** 2 - (s.Z_prime**2 + s.theta_prime**2 * s.Z**2))
        / max(abs(s.zeta_prime) ** 2, 1e-30)
        for s in samples
    )
    record("sample_rotation_identity", ident < 1.0e-8, f"max={ident:.3e}")
    record("sample_derivative_identity", pyth < 1.0e-6, f"max={pyth:.3e}")

    tt = np.sort(rng.uniform(100.0, 10_000.0, 32))
    zeta_o, _, _ = critline.zeta_em_line(tt)
    theta_o, _ = critline.theta_pair_vec(tt)
    z_o = (np.exp(1j * theta_o) * zeta_o).real
    grid = critline.eval_grid(tt, workers=workers)
    rs_err = float(np.max(np.abs(grid.Z - z_o)))
    record("riemann_siegel_vs_euler_maclaurin", rs_err < 1.0e-6, f"max={rs_err:.3e}")

    s_pt = complex(0.72, float(rng.uniform(5.0, 50.0)))
    za, _ = critline.zeta_em(s_pt)
    zb, _ = critline.zeta_em(s_pt.conjugate())
    record("zeta_conjugate_symmetry", abs(zb - za.conjugate()) < 1.0e-12, f"s={s_pt:.3f}")

    pa = dirpoly.DirichletPoly.from_coeffs({1: 1.0, 2: 0.5, 3: -0.25})
    pb = dirpoly.DirichletPoly.from_coeffs({1: 1.0, 5: 1.0})
    t_hom = float(rng.uniform(10.0, 100.0))
    hom = abs(
        dirpoly.poly_eval(dirpoly.poly_product([pa, pb]), t_hom)
        - dirpoly.poly_eval(pa, t_hom) * dirpoly.poly_eval(pb, t_hom)
    )
    record("poly_product_homomorphism", hom < 1.0e-10, f"gap={hom:.3e}")
    gap = dirpoly.exp_identity_gap(scheme, 2, -1.0, 10.0, 6)
    record("increment_exp_identity", gap < 1.0e-10, f"gap={gap:.3e}")

    phi = twisted.CutoffFn()
    m_t = twisted.mellin_weight(0.25 + 0.1j, 1000.0, phi)
    m_2t = twisted.mellin_weight(0.25 + 0.1j, 2000.0, phi)
    scale_err = abs(m_2t - 2.0 ** (1.25 + 0.1j) * m_t) / abs(m_2t)
    record("mellin_scaling_relation", scale_err < 1.0e-10, f"rel={scale_err:.3e}")
    m0 = twisted.mellin_weight(0.0, 1000.0, phi)
    record("mellin_plateau_bounds", 1000.0 <= m0.real <= 1500.0 and abs(m0.imag) < 1e-9,
           f"value={m0.real:.6g}")

    record("vandermonde_equal_entries", twisted.vandermonde((0.3, 0.3, 1.0, 2.0)) == 0, "exact")
    sig = twisted.sigma_shift(6, 0.0, 0.0)
    record("sigma_divisor_count", sig == 4.0, f"value={sig}")

    # Multiplicative coefficients on distinct primes factor the pair sum;
    # the support must be the full lattice of squarefree products.
    pool = table.primes[(table.primes >= 11) & (table.primes <= 60)]
    ps = sorted(int(p) for p in rng.choice(pool, size=3, replace=False))
    prime_coeffs = {p: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for p in ps}
    coeffs = {1: 1.0 + 0.0j}
    for p in ps:
        coeffs.update({n * p: a * prime_coeffs[p] for n, a in list(coeffs.items())})
    z1, z2 = 0.05 + 0.02j, -0.03 + 0.01j
    whole = twisted.f_sum(dirpoly.DirichletPoly.from_coeffs(coeffs), z1, z2)
    parts = 1.0 + 0.0j
    for p in ps:
        parts *= twisted.f_sum(
            dirpoly.DirichletPoly.from_coeffs({1: 1.0, p: prime_coeffs[p]}), z1, z2
        )
    factor_err = abs(whole - parts) / abs(parts)
    record("pair_sum_euler_factorization", factor_err < 1.0e-12, f"rel={factor_err:.3e}")

    rep = twisted.rankin_bound_check([11, 13], 2)
    record("rankin_bound_small_range", rep.holds, f"value={rep.value:.4g} bound={rep.bound:.4g}")

    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "grid.zml"
        gridcache.write_grid(grid, path)
        back = gridcache.read_grid(path)
        roundtrip = (
            np.array_equal(grid.t, back.t)
            and np.array_equal(grid.Z, back.Z)
            and np.array_equal(grid.Z_prime, back.Z_prime)
            and np.array_equal(grid.theta, back.theta)
            and np.array_equal(grid.theta_prime, back.theta_prime)
        )
        record("grid_cache_roundtrip", roundtrip, f"n={grid.t.size}")

    est = moments.joint_moment(moments.MomentRequest(1.0e3, 1.0, 0.0), workers=workers)
    ratio = est.value / (1.0e3 * math.log(1.0e3))
    record("second_moment_scale", 0.8 <= ratio <= 1.1, f"ratio={ratio:.6f}")

    toy = primes.custom_scheme(1.0e5, [math.exp(2.0), 14.0, 30.0], table)
    cfg = inequality.InterpolationConfig(k=1.5, scheme=toy)
    ts_iq = np.sort(rng.uniform(1.0e4, 1.05e4, 50))
    rep_iq = inequality.check_interpolation(ts_iq, cfg, "zeta")
    record("interpolation_bound", rep_iq.all_passed, f"min_margin={rep_iq.min_margin:.4g}")

    return checks


def _cmd_selftest(args) -> int:
    checks = _selftest_checks(args.seed, args.workers)
    rows = [[name, int(passed), detail] for name, passed, detail in checks]
    write_csv(args.out, ["check", "pass", "detail"], rows)
    failed = [name for name, passed, _ in checks if not passed]
    print(f"wrote {args.out}: {len(checks)} checks, {len(failed)} failures")
    if failed:
        print("failed: " + ", ".join(failed), file=sys.stderr)
        return EXIT_REGIME
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetalab",
        description="Desk-scale critical-line statistics: schemes, Z grids, moments, bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="key=value file; explicit flags win")
        p.add_argument("--seed", type=int, default=1, help="Philox seed for any sampling")
        p.add_argument("--workers", type=int, default=1, help="worker threads")
        p.add_argument("--out", default=None, help="output CSV path")
        p.set_defaults(subparser=p)

    p = sub.add_parser("scheme", help="build an increment scheme and export it")
    common(p)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--threshold", type=float, default=1.0e4)
    p.add_argument("--boundaries", default=None, help="comma list for custom mode")
    p.add_argument("--sieve-limit", type=int, default=1_000_000)
    p.set_defaults(func=_cmd_scheme, default_out="scheme.csv")

    p = sub.add_parser("eval", help="evaluate Z, Z', theta, theta' on a grid")
    common(p)
    p.add_argument("--t-min", type=float, required=True)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--points-per-gap", type=int, default=20)
    p.add_argument("--cache", default=None, help="also write a binary grid cache")
    p.set_defaults(func=_cmd_eval, default_out="grid.csv")

    p = sub.add_parser("moments", help="joint moment over [T, 2T]")
    common(p)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--target", choices=critline.TARGETS, default="zeta")
    p.add_argument("--points-per-gap", type=int, default=None,
                   help="override the mesh rule (bandwidth, or 20 per gap for cusp pairs)")
    p.set_defaults(func=_cmd_moments, default_out="moments.csv")

    p = sub.add_parser("inequality", help="pointwise interpolation bound over sampled heights")
    common(p)
    p.add_argument("--T", type=float, default=1.0e5, help="nominal height for the scheme")
    p.add_argument("--boundaries", default="7.38905609893065,14,30")
    p.add_argument("--t-min", type=float, default=1.0e4)
    p.add_argument("--t-max", type=float, default=1.1e4)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--k", type=float, default=1.5)
    p.add_argument("--c-omega", type=float, default=500.0)
    p.add_argument("--c-p", type=float, default=50.0)
    p.add_argument("--variant", choices=inequality.VARIANTS, default="full_product")
    p.add_argument("--target", choices=critline.TARGETS, default="zeta")
    p.add_argument("--sieve-limit", type=int, default=10_000)
    p.set_defaults(func=_cmd_inequality, default_out="inequality.csv")

    p = sub.add_parser("twisted", help="direct vs contour twisted moments")
    common(p)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--poly", default="one", help="one | one_plus_2 | coefficients CSV")
    p.add_argument("--weight", choices=twisted.WEIGHTS, default="dzeta2")
    p.add_argument("--method", choices=("direct", "contour", "both"), default="both")
    p.add_argument("--nodes", type=int, default=64)
    p.add_argument("--points-per-gap", type=int, default=None,
                   help="override the bandwidth rule of the direct mesh")
    p.set_defaults(func=_cmd_twisted, default_out="twisted.csv")

    p = sub.add_parser("selftest", help="run the invariant suite and write a report")
    common(p)
    p.set_defaults(func=_cmd_selftest, default_out="selftest.csv")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            args = _apply_config_file(args, parser, argv)
        for key, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"--{key.replace('_', '-')} must be finite, got {value}")
        if args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        if getattr(args, "points_per_gap", None) is not None and args.points_per_gap < 1:
            raise ConfigError(f"--points-per-gap must be >= 1, got {args.points_per_gap}")
        if args.out is None:
            args.out = args.default_out
        return args.func(args)
    except ConfigError as exc:
        print(f"error code={EXIT_CONFIG} kind=config msg={exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CapacityError as exc:
        print(f"error code={EXIT_CAPACITY} kind=capacity msg={exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except DomainError as exc:
        print(f"error code={EXIT_REGIME} kind=regime msg={exc}", file=sys.stderr)
        return EXIT_REGIME


if __name__ == "__main__":
    sys.exit(main())
