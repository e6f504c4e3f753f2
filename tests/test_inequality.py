import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zetalab import inequality
from zetalab.critline import eval_grid
from zetalab.dirpoly import truncated_exp
from zetalab.errors import ConfigError, DomainError
from zetalab.inequality import (
    InterpolationConfig,
    check_interpolation,
    interpolation_sides,
    penalty_exponent,
    verify_holder,
    write_interpolation_csv,
)
from zetalab.moments import MomentRequest, joint_moment, joint_moment_on_grids, moment_grids
from zetalab.primes import E_SQUARED, custom_scheme, prime_sum_at, sieve_primes


@pytest.fixture(scope="module")
def toy_scheme():
    return custom_scheme(1.0e5, [E_SQUARED, 14.0, 30.0], sieve_primes(100))


@pytest.fixture(scope="module")
def grids_1e3():
    return moment_grids(1.0e3)


def test_config_validation(toy_scheme):
    with pytest.raises(DomainError):
        InterpolationConfig(k=0.5, scheme=toy_scheme)
    with pytest.raises(DomainError):
        InterpolationConfig(k=2.5, scheme=toy_scheme)
    with pytest.raises(DomainError):
        InterpolationConfig(k=1.5, scheme=toy_scheme, variant="bogus")
    with pytest.raises(DomainError):
        InterpolationConfig(k=1.5, scheme=toy_scheme, c_p=-1.0)
    with pytest.raises(DomainError):
        InterpolationConfig(k=1.5, scheme=toy_scheme, c_omega=float("nan"))


def test_penalty_exponent_exact(toy_scheme):
    # P_2 = 1/11 + 1/13 = 24/143; 50 * 24/143 = 8.39...
    cfg = InterpolationConfig(k=1.5, scheme=toy_scheme)
    assert penalty_exponent(cfg, 2) == 9
    # An integer boundary case: c_p chosen so c_p * P_2 = 24 exactly.
    cfg2 = InterpolationConfig(k=1.5, scheme=toy_scheme, c_p=143.0)
    assert penalty_exponent(cfg2, 2) == 24


def test_k2_degeneration(toy_scheme):
    # At k = 2 the second coefficient 4 - 2k vanishes and every increment
    # factor with twist k - 2 = 0 is the constant 1.
    cfg = InterpolationConfig(k=2.0, scheme=toy_scheme)
    t = 1000.0 * math.pi
    lhs, rhs = interpolation_sides(t, cfg)
    assert rhs >= 4.0 * lhs
    from zetalab.critline import critical_sample

    s = critical_sample(t)
    za2 = abs(s.zeta) ** 2
    dz2 = abs(s.zeta_prime) ** 2
    assert lhs == pytest.approx(za2 * dz2, rel=1e-10)
    # margin >= 3 |zeta|^2 |zeta'|^2 from the degeneration alone
    assert rhs - lhs >= 3.0 * lhs


def test_k1_parameter_plugin(toy_scheme):
    cfg = InterpolationConfig(k=1.0, scheme=toy_scheme)
    t = 1000.0 * math.pi
    lhs, rhs = interpolation_sides(t, cfg)
    from zetalab.critline import critical_sample

    s = critical_sample(t)
    assert lhs == pytest.approx(abs(s.zeta_prime) ** 2, rel=1e-10)
    assert rhs >= 2.0 * lhs


def test_pointwise_bound_holds(toy_scheme):
    t = 1000.0 * math.pi
    for k in (1.0, 1.5, 2.0):
        cfg = InterpolationConfig(k=k, scheme=toy_scheme)
        lhs, rhs = interpolation_sides(t, cfg)
        assert lhs <= rhs


@given(
    st.floats(min_value=1.0, max_value=2.0),
    st.floats(min_value=1.0e4, max_value=1.05e4),
)
@settings(max_examples=25, deadline=None)
def test_bound_random_k_and_t(toy_scheme, k, t):
    for variant in ("full_product", "partial_product"):
        cfg = InterpolationConfig(k=k, scheme=toy_scheme, variant=variant)
        for target in ("zeta", "hardyZ"):
            lhs, rhs = interpolation_sides(t, cfg, target)
            assert lhs <= rhs


def _sides_reference(t, cfg, target):
    """(lhs, rhs) composed term by term: one prime_sum_at and one
    truncated_exp call per twist and range, one prime_sum_at call per range
    for its weight."""
    grid = eval_grid(t)
    za = np.abs(grid.Z)
    dz2 = grid.dabs2(target)
    k = cfg.k
    ranges = range(2, cfg.scheme.ell + 1)

    def factor(alpha, j):
        depth = math.floor(cfg.c_omega * cfg.scheme.variance(j))
        return np.abs(truncated_exp(alpha * prime_sum_at(cfg.scheme, j, 0.5 + 1j * t), depth)) ** 2

    factors = {alpha: [factor(alpha, j) for j in ranges] for alpha in (k - 2.0, k - 1.0)}

    def product(alpha, stop):
        out = np.ones(t.shape)
        for f in factors[alpha][: stop - 2]:
            out = out * f
        return out

    top = cfg.scheme.ell + 1
    rhs = (2.0 * k * za**2 * dz2 * product(k - 2.0, top)
           + (4.0 - 2.0 * k) * dz2 * product(k - 1.0, top))
    for v in ranges:
        pv = cfg.scheme.variance(v)
        psum = np.abs(prime_sum_at(cfg.scheme, v, 0.5 + 1j * t))
        logw = 2.0 * inequality.penalty_exponent(cfg, v) * (np.log(psum) - math.log(cfg.c_p * pv))
        second = product(k - 1.0, top if cfg.variant == "full_product" else v)
        rhs = rhs + (2.0 * k * za**2 * dz2 * product(k - 2.0, v)
                     + (4.0 - 2.0 * k) * dz2 * second) * np.exp(logw)
    return za ** (2.0 * k - 2.0) * dz2, rhs


def test_sides_match_per_twist_composition(toy_scheme, monkeypatch):
    t = np.sort(np.random.default_rng(8).uniform(100.0, 1.0e4, 300))
    for k in (1.0, 1.5, 2.0):
        for variant in ("full_product", "partial_product"):
            cfg = InterpolationConfig(k=k, scheme=toy_scheme, variant=variant)
            for target in ("zeta", "hardyZ"):
                lhs_ref, rhs_ref = _sides_reference(t, cfg, target)
                rep = check_interpolation(t, cfg, target)
                lhs, rhs = rep.lhs, rep.rhs
                assert np.array_equal(lhs, lhs_ref)
                assert np.max(np.abs(rhs - rhs_ref) / rhs_ref) <= 1e-14
                assert np.array_equal(lhs <= rhs, lhs_ref <= rhs_ref)
    # One prime sum per range, for both twists and the penalty weight, on a
    # height set or scheme the memo has not seen; none on a repeat.
    calls = []

    def counted(*args):
        calls.append(args[1])
        return prime_sum_at(*args)

    def count(heights, scheme):
        calls.clear()
        check_interpolation(heights, InterpolationConfig(k=1.5, scheme=scheme))
        return len(calls)

    monkeypatch.setattr(inequality, "prime_sum_at", counted)
    fresh = t + 0.5
    assert count(fresh, toy_scheme) == toy_scheme.ell - 1
    assert count(fresh, toy_scheme) == 0
    twin = custom_scheme(1.0e5, toy_scheme.boundaries, sieve_primes(100))
    assert count(fresh, twin) == twin.ell - 1
    assert count(fresh, twin) == 0
    fresh[0] -= 0.25
    assert count(fresh, twin) == twin.ell - 1


def test_empty_ranges_change_nothing():
    # Ranges holding no prime have P_v = 0: no penalty term and an increment
    # factor of exactly 1, so the sides equal those of the scheme without them.
    table = sieve_primes(100)
    gapped = custom_scheme(1.0e5, [E_SQUARED, 8.0, 10.0, 30.0], table)
    plain = custom_scheme(1.0e5, [E_SQUARED, 30.0], table)
    assert gapped.variance(2) == gapped.variance(3) == 0.0
    t = np.sort(np.random.default_rng(9).uniform(100.0, 1.0e4, 300))
    for k in (1.0, 1.5, 2.0):
        for variant in inequality.VARIANTS:
            cfgs = [InterpolationConfig(k=k, scheme=s, variant=variant) for s in (gapped, plain)]
            for target in ("zeta", "hardyZ"):
                got, want = (check_interpolation(t, cfg, target) for cfg in cfgs)
                assert np.array_equal(got.lhs, want.lhs)
                assert np.array_equal(got.rhs, want.rhs)


def test_rhs_monotone_in_penalty_terms(toy_scheme):
    # Dropping a penalty summand can only lower the right side.
    cfg = InterpolationConfig(k=1.4, scheme=toy_scheme)
    ts = np.array([1000.0 * math.pi])
    rhs_full = check_interpolation(ts, cfg).rhs
    one_range = custom_scheme(1.0e5, [E_SQUARED, 14.0], sieve_primes(100))
    cfg_one = InterpolationConfig(k=1.4, scheme=one_range)
    rhs_one = check_interpolation(ts, cfg_one).rhs
    # The two-range scheme contains the one-range scheme's penalty plus more.
    assert rhs_full[0] >= rhs_one[0] - 1e-12


def test_check_interpolation_report(toy_scheme, tmp_path):
    rng = np.random.default_rng(2)
    ts = rng.uniform(1.0e4, 1.01e4, 100)
    cfg = InterpolationConfig(k=1.3, scheme=toy_scheme)
    rep = check_interpolation(ts, cfg)
    assert rep.all_passed
    assert rep.failures.size == 0
    assert rep.min_margin > 0.0
    path = tmp_path / "report.csv"
    write_interpolation_csv(rep, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,k,lhs,rhs,margin,pass"
    assert len(lines) == 101
    assert all(line.endswith(",1") for line in lines[1:])


def test_shared_grid_matches_heights(toy_scheme):
    # A GridData of the heights gives the same bits as the heights, for
    # every configuration that shares it.
    ts = np.sort(np.random.default_rng(4).uniform(1.0e4, 1.01e4, 200))
    grid = eval_grid(ts)
    for k in (1.0, 1.7):
        for variant in inequality.VARIANTS:
            cfg = InterpolationConfig(k=k, scheme=toy_scheme, variant=variant)
            for target in ("zeta", "hardyZ"):
                by_grid = check_interpolation(grid, cfg, target)
                by_heights = check_interpolation(ts, cfg, target)
                assert by_grid.t is grid.t
                assert np.array_equal(by_grid.lhs, by_heights.lhs)
                assert np.array_equal(by_grid.rhs, by_heights.rhs)
                assert np.array_equal(by_grid.margin, by_heights.rhs - by_heights.lhs)


def _report_bytes(rep):
    return [a.tobytes() for a in (rep.t, rep.lhs, rep.rhs, rep.margin, rep.passed)]


def test_memo_keeps_the_bits(toy_scheme, monkeypatch):
    # Every configuration gives the same bytes on a miss, on a hit and from
    # the explicit grid.
    ts = np.random.default_rng(11).uniform(1.0e4, 1.01e4, 200)
    grid = eval_grid(np.sort(ts))
    for k in (1.0, 1.3, 1.7, 2.0):
        for variant in inequality.VARIANTS:
            cfg = InterpolationConfig(k=k, scheme=toy_scheme, variant=variant)
            for target in ("zeta", "hardyZ"):
                monkeypatch.setattr(inequality, "_memo", None)
                miss = _report_bytes(check_interpolation(ts, cfg, target))
                assert inequality._memo is not None
                hit = _report_bytes(check_interpolation(ts, cfg, target))
                monkeypatch.setattr(inequality, "_memo", None)
                by_grid = _report_bytes(check_interpolation(grid, cfg, target))
                assert miss == hit == by_grid


def test_memo_arrays_are_protected(toy_scheme, monkeypatch):
    monkeypatch.setattr(inequality, "_memo", None)
    cfg = InterpolationConfig(k=1.5, scheme=toy_scheme)
    ts = np.sort(np.random.default_rng(12).uniform(1.0e4, 1.01e4, 150))
    want = _report_bytes(check_interpolation(ts.copy(), cfg))
    _, memo_grid, _, psums = inequality._memo
    for arr in (memo_grid.t, memo_grid.Z, memo_grid.Z_prime, memo_grid.theta,
                memo_grid.theta_prime, *psums):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # Reports share the memo's heights; writing the caller's arrays, or a
    # report's own, changes no later result.
    rep = check_interpolation(ts, cfg)
    assert rep.t is memo_grid.t
    rep.lhs[:] = 0.0
    rep.margin[:] = -1.0
    assert _report_bytes(check_interpolation(ts, cfg)) == want
    moved = ts.copy()
    ts += 1.0
    assert _report_bytes(check_interpolation(ts, cfg)) != want
    assert _report_bytes(check_interpolation(moved, cfg)) == want
    # A grid the caller passed keeps its flags and shares its t.
    grid = eval_grid(ts)
    rep = check_interpolation(grid, cfg)
    assert rep.t is grid.t
    assert all(a.flags.writeable for a in (grid.t, grid.Z, grid.Z_prime, grid.theta, grid.theta_prime))
    assert inequality._memo[1] is not grid


def test_memo_skips_large_height_sets(toy_scheme, monkeypatch):
    limit = inequality._MEMO_MAX_HEIGHTS
    cfg = InterpolationConfig(k=1.5, scheme=toy_scheme)
    monkeypatch.setattr(inequality, "_memo", None)
    check_interpolation(np.linspace(1.0e4, 1.01e4, limit + 1), cfg)
    assert inequality._memo is None
    check_interpolation(np.linspace(1.0e4, 1.01e4, limit), cfg)
    kept = inequality._memo
    assert kept[1].t.size == limit
    check_interpolation(np.linspace(1.0e4, 1.01e4, limit + 1), cfg)
    assert inequality._memo is kept


def test_memo_threads_alternating_height_sets(toy_scheme, monkeypatch):
    monkeypatch.setattr(inequality, "_memo", None)
    cfg = InterpolationConfig(k=1.3, scheme=toy_scheme, variant="partial_product")
    rng = np.random.default_rng(13)
    sets = [np.sort(rng.uniform(1.0e4, 1.01e4, 120)) for _ in range(2)]
    want = []
    for ts in sets:
        inequality._memo = None
        want.append(_report_bytes(check_interpolation(ts, cfg)))
    errors = []

    def work(start):
        for i in range(30):
            j = (start + i) % 2
            if _report_bytes(check_interpolation(sets[j], cfg)) != want[j]:
                errors.append((start, i))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1.0e-6)
    try:
        threads = [threading.Thread(target=work, args=(n,)) for n in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120.0)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert errors == []


def test_check_interpolation_empty(toy_scheme):
    rep = check_interpolation(np.array([]), InterpolationConfig(k=1.5, scheme=toy_scheme))
    assert rep.t.size == 0
    assert rep.all_passed
    assert rep.min_margin == math.inf


def test_verify_holder_degenerate(grids_1e3):
    k = 1.5
    m0 = joint_moment_on_grids(MomentRequest(1.0e3, k, 0.0), *grids_1e3)
    m1 = joint_moment_on_grids(MomentRequest(1.0e3, k, 1.0), *grids_1e3)
    rep0 = verify_holder(m0, m1, m0, 0.0)
    assert rep0.holds and rep0.value == m0.value
    rep1 = verify_holder(m0, m1, m1, 1.0)
    assert rep1.holds and rep1.value == m1.value


def test_verify_holder_midpoint(grids_1e3):
    k = 1.5
    m0 = joint_moment_on_grids(MomentRequest(1.0e3, k, 0.0), *grids_1e3)
    m1 = joint_moment_on_grids(MomentRequest(1.0e3, k, 1.0), *grids_1e3)
    mh = joint_moment_on_grids(MomentRequest(1.0e3, k, 0.5), *grids_1e3)
    rep = verify_holder(m0, m1, mh, 0.5)
    assert rep.holds
    assert rep.slack >= 0.0


def test_verify_holder_mismatch(grids_1e3):
    m0 = joint_moment_on_grids(MomentRequest(1.0e3, 1.5, 0.0), *grids_1e3)
    m1 = joint_moment_on_grids(MomentRequest(1.0e3, 1.5, 1.0), *grids_1e3)
    other = moment_grids(2.0e3)
    mh_other = joint_moment_on_grids(MomentRequest(2.0e3, 1.5, 0.5), *other)
    with pytest.raises(ConfigError):
        verify_holder(m0, m1, mh_other, 0.5)
    with pytest.raises(ConfigError):
        verify_holder(m1, m0, m0, 0.5)  # h fields out of place
    with pytest.raises(ConfigError):
        verify_holder(m0, m1, m0, 1.5)

def test_verify_holder_compares_meshes(grids_1e3):
    # Under the mesh rule, (1, 0) and (1, 1) are band-limited and get the
    # bandwidth mesh while (1, 0.5) gets 20 points/gap: the triple does not
    # share a mesh, though every request leaves points_per_gap at None.
    m0, m1, mh = (joint_moment(MomentRequest(1.0e3, 1.0, h)) for h in (0.0, 1.0, 0.5))
    assert m0.mesh == m1.mesh != mh.mesh
    with pytest.raises(ConfigError):
        verify_holder(m0, m1, mh, 0.5)
    # The same triple on shared grids, as in the Hoelder sweep, passes.
    shared = [joint_moment_on_grids(MomentRequest(1.0e3, 1.0, h), *grids_1e3)
              for h in (0.0, 1.0, 0.5)]
    rep = verify_holder(*shared, 0.5)
    assert rep.holds
