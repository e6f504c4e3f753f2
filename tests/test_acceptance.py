"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Shared expensive artifacts (critical-line grids at T = 1e4 and 1e5) are
built once per session.  Tolerances are pinned here and nowhere else.
"""

import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from zetalab import critline, dirpoly, inequality, moments, primes, twisted

SEED = 20260810


def report(num: int, passed: bool, detail: str, elapsed: float, budget: float) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {num:2d}] {status} ({elapsed:.1f}s/{budget:.0f}s) {detail}", flush=True)
    assert passed, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded runtime budget: {elapsed:.1f}s"


@pytest.fixture(scope="module")
def grids_1e4():
    return moments.moment_grids(1.0e4)


@pytest.fixture(scope="module")
def rng():
    return np.random.Generator(np.random.Philox(SEED))


def test_criterion_1_identity_suite():
    t0 = time.time()
    gen = np.random.Generator(np.random.Philox(SEED))
    ts = gen.uniform(50.0, 5000.0, 1000)
    worst_abs = 0.0
    worst_rel = 0.0
    for t in ts:
        s = critline.critical_sample(float(t))
        worst_abs = max(worst_abs, abs(abs(s.Z) - abs(s.zeta)))
        if abs(s.Z) > 1.0e-3:
            recon = s.Z_prime**2 + s.theta_prime**2 * s.Z**2
            worst_rel = max(worst_rel, abs(abs(s.zeta_prime) ** 2 - recon) / recon)
    ok = worst_abs < 1.0e-8 and worst_rel < 1.0e-6
    report(1, ok, f"| |Z|-|zeta| | max={worst_abs:.2e}, derivative identity rel max={worst_rel:.2e}",
           time.time() - t0, 60.0)


def test_criterion_2_oracle_agreement():
    t0 = time.time()
    gen = np.random.Generator(np.random.Philox(SEED + 1))
    ts = np.sort(np.concatenate([
        gen.uniform(100.0, 10_000.0, 1200),
        np.linspace(100.0, 400.0, 300),  # slowest-convergence end
    ]))
    zeta_vals, _, _ = critline.zeta_em_line(ts)
    theta, _ = critline.theta_pair_vec(ts)
    z_oracle_vals = (np.exp(1j * theta) * zeta_vals).real
    grid = critline.eval_grid(ts)
    max_err = float(np.max(np.abs(grid.Z - z_oracle_vals)))
    count, _ = critline.count_sign_changes(0.0, 100.0)
    ok = max_err < 1.0e-6 and count == 29
    report(2, ok, f"max |Z_rs - Z_em| = {max_err:.2e} over {ts.size} heights; "
                  f"sign changes on [0,100] = {count}", time.time() - t0, 60.0)


def test_criterion_3_second_moment_surrogate(grids_1e4):
    t0 = time.time()
    est4 = moments.joint_moment_on_grids(moments.MomentRequest(1.0e4, 1.0, 0.0), *grids_1e4)
    est5 = moments.joint_moment(moments.MomentRequest(1.0e5, 1.0, 0.0))
    r4 = est4.value / (1.0e4 * math.log(1.0e4))
    r5 = est5.value / (1.0e5 * math.log(1.0e5))
    ok = abs(r4 - 1.0) < 0.15 and abs(r5 - 1.0) < 0.15 and abs(r5 - 1.0) < abs(r4 - 1.0)
    report(3, ok, f"value/(T log T): T=1e4 -> {r4:.4f}, T=1e5 -> {r5:.4f}",
           time.time() - t0, 300.0)


def test_criterion_4_holder_suite(grids_1e4):
    t0 = time.time()
    violations = []
    min_slack = math.inf
    for k in (1.0, 1.25, 1.5, 2.0):
        ests = {
            h: moments.joint_moment_on_grids(
                moments.MomentRequest(1.0e4, k, h), *grids_1e4
            )
            for h in (0.0, 0.25, 0.5, 0.75, 1.0)
        }
        for h in (0.25, 0.5, 0.75):
            rep = inequality.verify_holder(ests[0.0], ests[1.0], ests[h], h)
            min_slack = min(min_slack, rep.slack)
            if not rep.holds:
                violations.append((k, h))
    ok = not violations
    report(4, ok, f"12 (k, h) pairs, violations={violations}, min slack={min_slack:.3e}",
           time.time() - t0, 600.0)


def test_criterion_5_interpolation_surrogate():
    t0 = time.time()
    table = primes.sieve_primes(100)
    scheme = primes.custom_scheme(1.0e5, [primes.E_SQUARED, 14.0, 30.0], table)
    gen = np.random.Generator(np.random.Philox(SEED + 2))
    ts = np.sort(gen.uniform(1.0e4, 1.1e4, 10_000))
    failures = 0
    min_margin = math.inf
    for k in (1.0, 1.3, 1.7, 2.0):
        for variant in inequality.VARIANTS:
            cfg = inequality.InterpolationConfig(k=k, scheme=scheme, variant=variant)
            for target in ("zeta", "hardyZ"):
                rep = inequality.check_interpolation(ts, cfg, target)
                failures += int(rep.failures.size)
                min_margin = min(min_margin, rep.min_margin)
    ok = failures == 0
    report(5, ok, f"10^4 heights x 4 k x 2 variants x 2 targets: failures={failures}, "
                  f"min margin={min_margin:.3e}", time.time() - t0, 600.0)


def test_criterion_6_euler_product_oracles():
    t0 = time.time()
    gen = np.random.Generator(np.random.Philox(SEED + 3))
    table = primes.sieve_primes(31)
    pool = [int(p) for p in table.primes if p >= 3]
    worst_f = 0.0
    worst_g = 0.0
    for _ in range(50):
        # Multiplicative support needs the full product lattice inside 1e3,
        # so reject prime draws whose product lands outside.
        while True:
            count = int(gen.integers(2, 4))
            ps = sorted(int(p) for p in gen.choice(pool, size=count, replace=False))
            if math.prod(ps) <= 1000:
                break
        locals_ = []
        for p in ps:
            local = {1: 1.0 + 0.0j, p: complex(gen.uniform(-1, 1), gen.uniform(-1, 1))}
            # At most one prime-square factor, kept inside the length budget.
            if p == ps[0] and count == 2 and p * p * ps[-1] <= 1000:
                local[p * p] = complex(gen.uniform(-1, 1), gen.uniform(-1, 1))
            locals_.append(dirpoly.DirichletPoly.from_coeffs(local))
        poly = dirpoly.poly_product(locals_)
        assert poly.length_bound <= 1000
        z1, z2 = complex(0.05, 0.1), complex(-0.04, 0.02)
        z4 = (0.04 + 0.03j, -0.05, 0.02j, 0.01 - 0.01j)
        f_whole = twisted.f_sum(poly, z1, z2)
        g_whole = twisted.g_sum(poly, z4)
        f_parts = 1.0 + 0.0j
        g_parts = 1.0 + 0.0j
        for sub in locals_:
            f_parts *= twisted.f_sum(sub, z1, z2)
            g_parts *= twisted.g_sum(sub, z4)
        worst_f = max(worst_f, abs(f_whole - f_parts) / abs(f_parts))
        worst_g = max(worst_g, abs(g_whole - g_parts) / abs(g_parts))

    # Increment coefficients against exact rationals, keys up to 1e6.
    scheme = primes.custom_scheme(
        1.0e5, [primes.E_SQUARED, 14.0, 30.0], primes.sieve_primes(100)
    )
    worst_coef = 0.0
    checked = 0
    for j, alpha in ((2, Fraction(-1, 2)), (3, Fraction(-1, 1)), (2, Fraction(3, 4))):
        cutoff = 5.0 / scheme.variance(j)
        poly = dirpoly.build_increment_poly(
            scheme, dirpoly.MultiplicativeSpec(alpha=float(alpha), j=j, omega_cutoff=cutoff)
        )
        for n, coef in poly.coeffs.items():
            if n > 1_000_000:
                continue
            exact = alpha ** dirpoly.big_omega(n)
            for _, e in dirpoly.factorize(n).items():
                exact /= math.factorial(e)
            worst_coef = max(worst_coef, abs(coef - float(exact)))
            checked += 1
    ok = worst_f < 1.0e-12 and worst_g < 1.0e-12 and worst_coef < 1.0e-15 and checked > 100
    report(6, ok, f"pair sums: f rel={worst_f:.2e}, g rel={worst_g:.2e}; "
                  f"{checked} coefficients, worst dev={worst_coef:.2e}",
           time.time() - t0, 60.0)


def test_criterion_7_contour_self_consistency():
    t0 = time.time()
    T = 1.0e5
    phi = twisted.CutoffFn()
    one = dirpoly.DirichletPoly.one()
    c2a = twisted.contour_second_moment(one, T, twisted.ShiftConfig.for_height(T, 64), phi)
    c2b = twisted.contour_second_moment(one, T, twisted.ShiftConfig.for_height(T, 128), phi)
    rel2 = abs(c2a - c2b) / abs(c2b)
    scale = twisted.fourth_moment_scale(T)
    c4a = twisted.contour_fourth_moment(
        one, T, twisted.ShiftConfig.for_height(T, 32, scale), phi
    )
    c4b = twisted.contour_fourth_moment(
        one, T, twisted.ShiftConfig.for_height(T, 64, scale), phi
    )
    rel4 = abs(c4a - c4b) / abs(c4b)
    ok = rel2 < 1.0e-6 and rel4 < 1.0e-4
    report(7, ok, f"node doubling: second 64->128 rel={rel2:.2e}, "
                  f"fourth 32->64 rel={rel4:.2e} (radius scale {scale:g})",
           time.time() - t0, 120.0)


def test_criterion_8_direct_vs_contour():
    t0 = time.time()
    T = 1.0e5
    phi = twisted.CutoffFn()
    ratios = {}
    for name, coeffs in (("one", {1: 1.0}), ("one_plus_2", {1: 1.0, 2: 1.0})):
        poly = dirpoly.DirichletPoly.from_coeffs(coeffs)
        contour = twisted.contour_second_moment(
            poly, T, twisted.ShiftConfig.for_height(T, 64), phi
        )
        direct = twisted.twisted_direct(poly, T, "dzeta2", phi)
        ratios[name] = direct / contour
    recorded = all(0.7 <= r <= 1.4 for r in ratios.values())
    hard_ok = all(0.5 <= r <= 2.0 for r in ratios.values())
    detail = ", ".join(f"{k}: {v:.4f}" for k, v in ratios.items())
    print(f"[criterion  8] recorded-band (0.7..1.4) ok={recorded}", flush=True)
    report(8, hard_ok, f"direct/contour ratios: {detail}", time.time() - t0, 900.0)


def test_criterion_9_pair_sum_bounds():
    t0 = time.time()
    table = primes.sieve_primes(100)
    pool = [int(p) for p in table.primes if 11 <= p <= 100]
    checked = 0
    worst_margin = math.inf
    for length in range(1, 9):
        for start in range(0, len(pool) - length + 1):
            ps = pool[start : start + length]
            for r in range(0, 7):
                rep = twisted.rankin_bound_check(ps, r)
                assert rep.holds, f"bound failed for {ps} r={r}"
                worst_margin = min(worst_margin, rep.bound / max(rep.value, 1e-300))
                checked += 1
    euler_ok = True
    worst_euler = 0.0
    for twist in (0.5, 1.0):
        brute = twisted.twist_pair_sum_bruteforce([11, 13], twist)
        euler = twisted.twist_pair_sum_euler([11, 13], twist)
        rel = abs(brute - euler) / abs(euler)
        worst_euler = max(worst_euler, rel)
        euler_ok = euler_ok and rel < 1.0e-10
    ok = euler_ok and worst_margin >= 1.0
    report(9, ok, f"{checked} (range, r) bound checks, min bound/value={worst_margin:.3f}; "
                  f"cutoff-free product identity rel={worst_euler:.2e}",
           time.time() - t0, 60.0)


def test_criterion_10_determinism(tmp_path):
    t0 = time.time()
    outputs = []
    for workers in (1, 4, 8):
        out = tmp_path / f"selftest_w{workers}.csv"
        res = subprocess.run(
            [sys.executable, "-m", "zetalab", "selftest", "--seed", "7",
             "--workers", str(workers), "--out", str(out)],
            capture_output=True, text=True,
        )
        assert res.returncode == 0, res.stderr
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    report(10, ok, f"selftest CSV bytes identical across workers 1/4/8 "
                   f"({len(outputs[0])} bytes)", time.time() - t0, 600.0)
