import math
import struct
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zetalab.critline import (
    RS_ROUNDOFF_COEF,
    GridData,
    _EM_TAIL_TARGET,
    _GRID_PIECE,
    _LATTICE_MIN_N,
    _MAIN_SUM_SETUPS,
    _chebyshev_basis,
    _em_cutoffs,
    _em_padded,
    _hardy_grid,
    _main_sum_setup,
    _rs_corrections,
    _rs_models,
    _zeta_em_core,
    count_sign_changes,
    critical_sample,
    eval_grid,
    rs_error_estimate,
    theta_gamma,
    theta_gamma_prime,
    theta_pair,
    theta_pair_vec,
    z_oracle,
    zeta_em,
    zeta_em_line,
    zeta_em_vec,
)
from zetalab.errors import DomainError
from zetalab.gridcache import _WRITE_ROWS, read_grid, write_grid

TWO_PI = 2.0 * math.pi
FD_STEP = 1.0e-3


def bisect(fn, lo, hi, tol=1e-11):
    flo = fn(lo)
    assert flo * fn(hi) < 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if flo * fn(mid) <= 0:
            hi = mid
        else:
            lo, flo = mid, fn(mid)
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# theta
# ---------------------------------------------------------------------------


def test_theta_prime_leading_term():
    t = TWO_PI * math.e**2
    _, theta_p = theta_pair(t)
    assert abs(theta_p - 1.0) < 1e-3


def test_theta_root_location():
    # Root-found on the Gamma-phase oracle.
    root = bisect(theta_gamma, 17.0, 18.5)
    assert root == pytest.approx(17.845599540411, abs=1e-9)
    theta, _ = theta_pair(root)
    assert abs(theta) < 1e-9


def test_theta_ratio_to_elementary_part():
    for t in (1e3, 1e5, 1e7):
        theta, _ = theta_pair(t)
        elementary = 0.5 * t * math.log(t / TWO_PI) - 0.5 * t - math.pi / 8.0
        assert theta / elementary == pytest.approx(1.0, rel=1e-6)


def test_theta_pair_matches_gamma_oracle():
    ts = np.linspace(10.0, 10_000.0, 300)
    theta, theta_p = theta_pair_vec(ts)
    for i in range(0, ts.size, 7):
        t = float(ts[i])
        assert theta[i] == pytest.approx(theta_gamma(t), abs=1e-9)
        assert theta_p[i] == pytest.approx(theta_gamma_prime(t), abs=1e-9)


def test_theta_gamma_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    ts = np.array([0.0, 17.85, 1.0e3, 1.0e4, 1.0e5])
    vec = theta_gamma(ts)
    for i, t in enumerate(ts):
        ref = float(mpmath.siegeltheta(float(t)))
        assert abs(theta_gamma(float(t)) - ref) <= 1e-9
        assert abs(vec[i] - ref) <= 1e-9


def test_theta_regime_error():
    with pytest.raises(DomainError):
        theta_pair(5.0)
    with pytest.raises(DomainError):
        theta_pair_vec(np.array([100.0, math.nan]))


# ---------------------------------------------------------------------------
# Euler-Maclaurin zeta
# ---------------------------------------------------------------------------


def test_zeta_closed_forms():
    z2, _ = zeta_em(2.0 + 0.0j)
    assert z2 == pytest.approx(math.pi**2 / 6.0, abs=1e-12)
    z0, _ = zeta_em(0.0 + 0.0j)
    assert z0 == pytest.approx(-0.5, abs=1e-12)
    zm1, _ = zeta_em(-1.0 + 0.0j)
    assert zm1 == pytest.approx(-1.0 / 12.0, abs=1e-12)


def test_zeta_pole():
    with pytest.raises(DomainError):
        zeta_em(1.0 + 0.0j)
    with pytest.raises(DomainError):
        zeta_em_vec(np.array([1.0, 2.0]))
    with pytest.raises(DomainError):
        zeta_em(0.5 + 2.0e5j)


@given(
    st.floats(min_value=-6.0, max_value=6.0),
    st.floats(min_value=-500.0, max_value=500.0),
)
@settings(max_examples=40, deadline=None)
def test_zeta_conjugate_symmetry(sigma, t):
    s = complex(sigma, t)
    if abs(s - 1.0) < 0.05:
        return
    za, dza = zeta_em(s)
    zb, dzb = zeta_em(s.conjugate())
    scale = max(abs(za), 1.0)
    assert abs(zb - za.conjugate()) <= 1e-12 * scale
    assert abs(dzb - dza.conjugate()) <= 1e-12 * max(abs(dza), 1.0)


def test_zeta_derivative_against_finite_difference():
    h = 1e-5
    for s in (2.5 + 3.0j, 0.5 + 40.0j, -1.5 + 5.0j):
        _, dz = zeta_em(s)
        zp, _ = zeta_em(s + h)
        zm, _ = zeta_em(s - h)
        fd = (zp - zm) / (2.0 * h)
        assert dz == pytest.approx(fd, rel=5e-9)


def test_zeta_em_line_matches_scalar():
    ts = np.array([50.0, 333.3, 1234.5])
    zv, dzv, est = zeta_em_line(ts)
    for i, t in enumerate(ts):
        z, dz = zeta_em(complex(0.5, t))
        assert abs(zv[i] - z) < 1e-11
        assert abs(dzv[i] - dz) < 1e-10
    assert est < 1e-10


def test_zeta_em_line_across_chunks():
    # Each argument takes its own Euler-Maclaurin cutoff, and its power sum is
    # filled in table blocks whose width follows the cutoffs; a value must not
    # depend on the other heights of the batch or on where a block starts.
    # The reported estimate is checked in test_zeta_em_estimate_covers_mpmath.
    ts = np.geomspace(100.0, 1.0e5, 6000)
    zv, dzv, _ = zeta_em_line(ts)
    for i in (0, 2047, 2048, 4095, 4096, ts.size - 1):
        z, dz = zeta_em(complex(0.5, ts[i]))
        assert abs(zv[i] - z) <= 1e-14 * abs(z)
        assert abs(dzv[i] - dz) <= 1e-14 * abs(dz)
    # Near the pole, high on the line and reflected, side by side.
    mixed = np.array([1.02 + 0.3j, 0.5 + 5.0e4j, -3.0 + 20.0j])
    zv, dzv, _ = zeta_em_vec(mixed)
    for i, s in enumerate(mixed):
        z, dz = zeta_em(s)
        assert abs(zv[i] - z) <= 1e-14 * abs(z)
        assert abs(dzv[i] - dz) <= 1e-14 * abs(dz)


def test_zeta_em_estimate_covers_mpmath():
    # The estimate bounds the error of zeta (not of zeta') on the line up to
    # EM_MAX_IM, where the float64 phase roundoff dominates; near the pole,
    # where contour main terms evaluate zeta(1 + z_i - z_j); and on the
    # reflected side, where the roundoff of chi dominates near the real axis.
    mpmath = pytest.importorskip("mpmath")
    line = 0.5 + 1.0j * np.geomspace(10.0, 1.0e5, 40)
    ring = np.exp(2j * np.pi * np.arange(8) / 8)
    near_pole = np.concatenate([1.0 + r * ring for r in (0.02, 0.1, 0.6)])
    reflected = np.array([
        -0.934873 - 0.485448j, -1.0 + 0.2j, -4.0 - 0.3j, -0.77 + 0.042j,
        -2.63 + 0.049j, -5.16 - 0.062j, -1.0, -2.5, -6.0 + 0.01j, -0.6 + 3.0j,
        -3.2 - 14.0j, -5.5 + 40.0j, -1.7 + 150.0j, -0.8 - 420.0j, -3.17 + 667.0j,
        -6.0 + 1.0e3j,
    ])
    s = np.concatenate([line, near_pole, reflected])
    zv, _, est = zeta_em_vec(s)
    with mpmath.workdps(30):
        ref = np.array([complex(mpmath.zeta(mpmath.mpc(x.real, x.imag))) for x in s])
    assert np.all(est >= np.abs(zv - ref))


def _em_domain():
    """Arguments of `_zeta_em_core` across the oracle's domain: the line to
    EM_MAX_IM, off it, the reflected 1 - s of sigma < -1/2, near the pole
    and on the real axis."""
    rng = np.random.default_rng(7)
    line = 0.5 + 1.0j * np.geomspace(10.0, 1.0e5, 120)
    off = rng.uniform(-0.5, 3.0, 80) + 1.0j * np.geomspace(1.0, 1.0e5, 80)
    reflected = 1.0 - (rng.uniform(-6.0, -0.5, 60) + 1.0j * rng.uniform(-1.0e5, 1.0e5, 60))
    near_pole = 1.0 + rng.uniform(0.01, 1.0, 40) * np.exp(2j * np.pi * rng.uniform(size=40))
    real = np.array([-0.5, 0.0, 0.3, 2.0, 7.5, 40.0, 300.0])
    return np.concatenate([line, off, reflected, near_pole, real])


def test_em_cutoffs_meet_truncation_bound():
    # Every (N, M) keeps 2 N^e q^{2M} under the target, with e = max(1 -
    # sigma, 1/2) and q = (|s| + 2M) / (2 pi N).
    s = _em_domain()
    n, m = _em_cutoffs(s)
    assert np.all(n >= 4) and np.all(m >= 1)
    expo = np.maximum(1.0 - s.real, 0.5)
    q = (np.abs(s) + 2.0 * m) / (TWO_PI * n)
    log_bound = math.log(2.0) + expo * np.log(n) + 2.0 * m * np.log(q)
    assert np.all(log_bound < math.log(_EM_TAIL_TARGET))


def test_em_mixed_terms_keep_each_value_bits():
    # Arguments with different Bernoulli terms M share the tail's blocks;
    # each value, its derivative and its estimate keep the bits they have
    # alone.
    s = np.array([1.02 + 0.3j, 0.5 + 30.0j, 0.5 + 3.0e3j, -3.0 + 20.0j, 2.0, 0.5 + 9.9e4j, 0.9 - 0.4j])
    _, m = _em_cutoffs(np.where(s.real < -0.5, 1.0 - s, s))
    assert np.unique(m).size >= 5
    zv, dzv, ev = zeta_em_vec(s)
    for i, x in enumerate(s):
        z, dz, e = zeta_em_vec(np.array([x]))
        assert (zv[i], dzv[i], ev[i]) == (z[0], dz[0], e[0])


def test_em_cutoffs_shrink_line_tables():
    # The fixed M = 30 rule padded this batch to 6 774 048 table rows.
    t = np.sort(np.random.default_rng(0).uniform(1.0e2, 1.0e5, 400))
    n, _ = _em_cutoffs(0.5 + 1.0j * t)
    assert int(_em_padded(n).sum()) <= 0.65 * 6_774_048


def test_em_scaled_tail_past_the_oracle_cap():
    # Unscaled, the tail's rising factorial overflows past EM_MAX_IM;
    # carried scaled by 2 pi N per factor, the core agrees with
    # Riemann-Siegel there.
    t = 1.0e6
    zeta, _, est = _zeta_em_core(np.array([complex(0.5, t)]))
    assert np.isfinite(zeta[0]) and np.isfinite(est[0])
    z_em = (np.exp(1j * theta_gamma(t)) * zeta[0]).real
    z_rs = critical_sample(t).Z
    assert abs(z_em - z_rs) <= rs_error_estimate(t) + est[0]


# ---------------------------------------------------------------------------
# Hardy Z via Riemann-Siegel vs the oracle
# ---------------------------------------------------------------------------


def test_first_zero_oracle():
    root = bisect(z_oracle, 14.0, 14.3, tol=1e-10)
    assert root == pytest.approx(14.134725141734694, abs=1e-8)
    assert abs(z_oracle(14.1347251417)) < 1e-5


def test_oracle_rejects_non_finite_arguments():
    # NaN passes the |Im s| check; it must not reach the cutoff cast.
    for bad in ([math.nan], [2.0, complex(0.5, math.nan)], [complex(math.inf, 1.0)]):
        with pytest.raises(DomainError):
            zeta_em_vec(np.array(bad, dtype=complex))
    with pytest.raises(DomainError):
        zeta_em(math.nan)
    with pytest.raises(DomainError):
        zeta_em_line(np.array([100.0, math.nan]))


def test_hardy_z_regime():
    with pytest.raises(DomainError):
        eval_grid(np.array([20.0]))
    with pytest.raises(DomainError):
        critical_sample(2.0e7)


def test_hardy_z_vs_oracle_on_sample():
    rng = np.random.default_rng(5)
    ts = np.sort(rng.uniform(100.0, 10_000.0, 150))
    zeta_vals, _, _ = zeta_em_line(ts)
    theta, _ = theta_pair_vec(ts)
    z_ref = (np.exp(1j * theta) * zeta_vals).real
    grid = eval_grid(ts)
    assert float(np.max(np.abs(grid.Z - z_ref))) < 1e-6


def test_hardy_z_identity_with_oracle_modulus():
    for t in (100.0, 517.3, 4321.0):
        z = critical_sample(t).Z
        zeta_val, _ = zeta_em(complex(0.5, t))
        assert abs(abs(z) - abs(zeta_val)) < 1e-6


def test_hardy_z_error_estimate_honest():
    rng = np.random.default_rng(17)
    ts = np.sort(rng.uniform(60.0, 3000.0, 240))
    zeta_vals, _, _ = zeta_em_line(ts)
    theta, _ = theta_pair_vec(ts)
    z_ref = (np.exp(1j * theta) * zeta_vals).real
    errs = np.abs(eval_grid(ts).Z - z_ref)
    caps = np.array([rs_error_estimate(float(t)) for t in ts])
    assert np.all(errs <= caps)


def test_rs_error_estimate_covers_mpmath_to_1e7():
    # The roundoff of the float64 phases grows like t log t; the reported
    # estimate must cover the true error over the whole advertised range.
    mpmath = pytest.importorskip("mpmath")
    for t in np.geomspace(60.0, 9.9e6, 40):
        with mpmath.workdps(25):
            ref = float(mpmath.siegelz(float(t)))
        grid = eval_grid(np.array([t]))
        assert abs(grid.Z[0] - ref) <= grid.est_abs_error, t
        sample = critical_sample(float(t))
        assert abs(sample.Z - ref) <= sample.est_abs_error, t


def test_eval_grid_estimate_covers_both_ends():
    ts = np.linspace(1.0e4, 1.0e7, 3)
    grid = eval_grid(ts)
    assert grid.est_abs_error == max(rs_error_estimate(float(t)) for t in ts[[0, -1]])
    assert grid.est_abs_error >= max(rs_error_estimate(float(t)) for t in ts)


# C_k as sums of num / (den pi^pi_power) Psi^(order), Psi the cosine ratio
# (Haselgrove's normalization), written out here independently of critline.
_C_TERMS = (
    ((1, 1, 0, 0),),
    ((-1, 96, 2, 3),),
    ((1, 64, 2, 2), (1, 18432, 4, 6)),
    ((-1, 64, 2, 1), (-1, 3840, 4, 5), (-1, 5308416, 6, 9)),
    ((1, 128, 2, 0), (19, 24576, 4, 4), (11, 5898240, 6, 8), (1, 2293235712, 8, 12)),
)


def test_rs_correction_models_match_mpmath():
    mpmath = pytest.importorskip("mpmath")

    def psi(w):
        return mpmath.cos(2 * mpmath.pi * (w * w - w - mpmath.mpf(1) / 16)) / mpmath.cos(
            2 * mpmath.pi * w
        )

    ps = np.linspace(1.0e-4, 0.9999, 40)
    ref = np.zeros((len(_C_TERMS), 2, ps.size))
    with mpmath.workdps(30):
        for i, p in enumerate(ps):
            d = list(mpmath.diffs(psi, mpmath.mpf(float(p)), 13))
            for k, terms in enumerate(_C_TERMS):
                for j in (0, 1):  # C_k and C_k'
                    ref[k, j, i] = float(
                        sum(num * d[order + j] / (den * mpmath.pi**power)
                            for num, den, power, order in terms)
                    )
    g, dg = _rs_corrections(ps)
    for k in range(len(_C_TERMS)):
        ck, ckp = g[k], dg[k]
        assert np.max(np.abs(ck - ref[k, 0])) <= 1e-12, k
        assert np.max(np.abs(ckp - ref[k, 1])) <= 1e-12, k


def test_rs_series_match_per_series_clenshaw():
    # The ten series of the correction models from one Chebyshev basis and
    # one matrix product, against each series summed alone by Clenshaw.
    models = _rs_models()
    x = 2.0 * np.random.default_rng(31).uniform(0.0, 1.0, 2000) - 1.0
    y = 2.0 * x * x - 1.0
    series = models @ _chebyshev_basis(y, models.shape[1])
    for row, coefs in enumerate(models):
        clenshaw = np.polynomial.chebyshev.chebval(y, coefs)
        assert np.max(np.abs(series[row] - clenshaw)) <= 1e-15, row


def _rs_reference(ts):
    """Riemann-Siegel Z and Z' with the main sum taken term by term, one cos
    and one sin per (height, n), and the corrections assembled from the rows
    of _rs_corrections."""
    theta, theta_p = theta_pair_vec(ts)
    tau = ts / TWO_PI
    a = np.sqrt(tau)
    n_row = np.floor(a)
    z = np.zeros_like(ts)
    zp = np.zeros_like(ts)
    for n in range(1, int(n_row.max()) + 1):
        keep = n <= n_row
        arg = theta - ts * math.log(n)
        z += np.where(keep, 2.0 / math.sqrt(n) * np.cos(arg), 0.0)
        zp -= np.where(keep, 2.0 / math.sqrt(n) * (theta_p - math.log(n)) * np.sin(arg), 0.0)
    p = a - n_row
    corr = np.zeros_like(ts)
    dcorr = np.zeros_like(ts)  # d/dt of sum_k C_k(p) tau^{-k/2}
    g, dg = _rs_corrections(p)
    for k, (ck, ckp) in enumerate(zip(g, dg)):
        corr += ck * tau ** (-0.5 * k)
        dcorr += ckp / (4.0 * math.pi * a) * tau ** (-0.5 * k)
        dcorr -= 0.5 * k * ck * tau ** (-0.5 * k - 1.0) / TWO_PI
    sign = np.where(n_row % 2 == 1, 1.0, -1.0)
    z += sign * tau**-0.25 * corr
    zp += sign * (tau**-0.25 * dcorr - 0.25 * tau**-1.25 / TWO_PI * corr)
    return z, zp, theta_p


def _straddle(n):
    edge = TWO_PI * n * n
    return np.sort(np.concatenate([np.linspace(edge - 1.0, edge + 1.0, 2001), [edge]]))


@pytest.mark.parametrize(
    "ts",
    [
        # Longer than one 2^18-point worker chunk and many main-sum blocks.
        1.0e4 + (np.arange((1 << 18) + 5000) + 0.5) * 0.005,
        np.sort(np.random.default_rng(23).uniform(60.0, 1.0e6, 2000)),
        np.array([50.0]),
        np.array([123456.789]),
        np.array([9.9e6]),
        _straddle(40),
        _straddle(400),
    ],
    ids=["uniform_1e4", "random", "point_50", "point_1e5", "point_1e7", "straddle_40", "straddle_400"],
)
def test_eval_grid_matches_per_term_reference(ts):
    z_ref, zp_ref, theta_p = _rs_reference(ts)
    bound = RS_ROUNDOFF_COEF * np.finfo(float).eps * ts * np.log(ts)
    for workers in (1, 2):
        grid = eval_grid(ts, workers=workers)
        assert np.all(np.abs(grid.Z - z_ref) <= bound)
        assert np.all(np.abs(grid.Z_prime - zp_ref) / theta_p <= bound)
    # A height gives the same value alone as inside the grid.
    for i in np.unique(np.linspace(0, ts.size - 1, 7).astype(int)):
        alone = eval_grid(ts[i : i + 1])
        assert abs(alone.Z[0] - grid.Z[i]) <= 1e-12, ts[i]
        assert abs(alone.Z_prime[0] - grid.Z_prime[i]) <= 1e-12, ts[i]


def test_critical_sample_reuses_setup_per_length():
    # Heights just below and above 2 pi n^2 have main-sum lengths n - 1 and
    # n; taken in the order N, N + 1, N, N + 1, the second height of each
    # length is served by the set-up the first one built.
    _main_sum_setup.cache_clear()
    for n in (40, 400):
        edge = TWO_PI * n * n
        ts = np.array([edge - 0.5, edge + 0.5, edge - 0.25, edge + 0.25])
        z_ref, zp_ref, theta_p = _rs_reference(ts)
        bound = RS_ROUNDOFF_COEF * np.finfo(float).eps * ts * np.log(ts)
        for i, t in enumerate(ts):
            sample = critical_sample(float(t))
            assert abs(sample.Z - z_ref[i]) <= bound[i], t
            assert abs(sample.Z_prime - zp_ref[i]) / theta_p[i] <= bound[i], t
    info = _main_sum_setup.cache_info()
    assert (info.misses, info.hits) == (4, 4)
    # The cache keeps at most _MAIN_SUM_SETUPS lengths.
    for n_max in range(2, 2 * _MAIN_SUM_SETUPS + 2):
        _main_sum_setup(n_max)
    assert _main_sum_setup.cache_info().currsize == _MAIN_SUM_SETUPS == info.maxsize


def test_z_prime_against_finite_difference():
    # Five-point central difference as the derivative oracle.
    h = FD_STEP
    for t in (500.0, 1234.5):
        zp = critical_sample(t).Z_prime
        vals = [critical_sample(t + m * h).Z for m in (-2, -1, 1, 2)]
        fd = (vals[0] - 8.0 * vals[1] + 8.0 * vals[2] - vals[3]) / (12.0 * h)
        assert zp == pytest.approx(fd, rel=1e-5)


def test_z_prime_fd_random_heights():
    rng = np.random.default_rng(3)
    h = FD_STEP
    checked = 0
    for t in rng.uniform(200.0, 5000.0, 100):
        t = float(t)
        # Keep the stencil away from main-sum length jumps.
        a = math.sqrt((t + 3 * h) / TWO_PI)
        if math.floor(a) != math.floor(math.sqrt((t - 3 * h) / TWO_PI)):
            continue
        zp = critical_sample(t).Z_prime
        if abs(zp) < 1e-2:
            continue
        vals = [critical_sample(t + m * h).Z for m in (-2, -1, 1, 2)]
        fd = (vals[0] - 8.0 * vals[1] + 8.0 * vals[2] - vals[3]) / (12.0 * h)
        assert zp == pytest.approx(fd, rel=1e-5)
        checked += 1
    assert checked > 60


# ---------------------------------------------------------------------------
# Assembled samples
# ---------------------------------------------------------------------------


def test_sample_identities_fast_path():
    # zeta is a rotation of Z, so the identities hold to rounding.
    s = critical_sample(1000.0)
    assert abs(abs(s.Z) - abs(s.zeta)) < 1e-14
    recon = s.Z_prime**2 + s.theta_prime**2 * s.Z**2
    assert abs(s.zeta_prime) ** 2 == pytest.approx(recon, rel=1e-12)


def test_sample_fast_vs_oracle_path():
    s = critical_sample(1000.0)
    zeta_ref, dzeta_ref = zeta_em(complex(0.5, 1000.0))
    assert abs(s.zeta - zeta_ref) < 1e-6
    assert abs(s.zeta_prime - dzeta_ref) < 1e-6


def test_sample_oracle_path_below_50():
    s = critical_sample(20.0)
    assert abs(abs(s.Z) - abs(s.zeta)) <= s.est_abs_error
    zeta_ref, _ = zeta_em(complex(0.5, 20.0))
    assert abs(s.zeta - zeta_ref) < 1e-10
    with pytest.raises(DomainError):
        critical_sample(5.0)


@given(st.floats(min_value=50.0, max_value=5000.0))
@settings(max_examples=40, deadline=None)
def test_sample_rotation_identity_random(t):
    s = critical_sample(t)
    assert abs(abs(s.Z) - abs(s.zeta)) < 1e-10
    if abs(s.Z) > 1e-3:
        recon = s.Z_prime**2 + s.theta_prime**2 * s.Z**2
        assert abs(s.zeta_prime) ** 2 == pytest.approx(recon, rel=1e-6)


def test_z_oracle_array_matches_scalar():
    ts = np.array([0.0, 14.1, 50.5, 1000.25, 9999.0])
    vals = z_oracle(ts)
    assert vals.shape == ts.shape
    for t, v in zip(ts, vals):
        one = z_oracle(float(t))
        assert isinstance(one, float) and one == v


def test_sign_changes_to_100():
    count, zeros = count_sign_changes(0.0, 100.0)
    assert count == 29
    assert zeros[0] == pytest.approx(14.134725, abs=1e-5)
    assert zeros[1] == pytest.approx(21.022040, abs=1e-5)


@pytest.mark.parametrize("ends", [(math.nan, 100.0), (0.0, math.inf)])
def test_sign_changes_reject_non_finite_ends(ends):
    with pytest.raises(DomainError):
        count_sign_changes(*ends)


# ---------------------------------------------------------------------------
# Grids and the cache
# ---------------------------------------------------------------------------


def test_eval_grid_matches_scalar_and_workers():
    ts = np.linspace(100.0, 200.0, 1500)
    g1 = eval_grid(ts, workers=1)
    g4 = eval_grid(ts, workers=4)
    assert np.array_equal(g1.Z, g4.Z)
    assert np.array_equal(g1.Z_prime, g4.Z_prime)
    s = critical_sample(float(ts[700]))
    assert g1.Z[700] == pytest.approx(s.Z, abs=1e-12)
    assert g1.Z_prime[700] == pytest.approx(s.Z_prime, abs=1e-12)
    # Across several pieces the bytes do not depend on the number of
    # threads that share them.
    ts = 1.0e4 + (np.arange(3 * _GRID_PIECE + 4321) + 0.5) * 0.01
    g1 = eval_grid(ts, workers=1)
    g4 = eval_grid(ts, workers=4)
    assert np.array_equal(g1.Z, g4.Z)
    assert np.array_equal(g1.Z_prime, g4.Z_prime)



def _uniform(t_start, pieces):
    """Midpoints of a grid at 20 points per mean zero gap from t_start, over
    a whole number of eval_grid pieces plus a part of one."""
    step = TWO_PI / math.log(t_start / TWO_PI) / 20
    return t_start + (np.arange(pieces * _GRID_PIECE + 1234) + 0.5) * step


def test_eval_grid_threads_keep_their_workspaces():
    # More threads than cores share the pieces, each piece on a workspace
    # that no other running piece holds; with a short switch interval, a
    # workspace shared by two running pieces would mix their tables.  The
    # bytes must match one thread.
    ts = _uniform(1.0e5, 6)
    one = eval_grid(ts, workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1.0e-6)
    try:
        with ThreadPoolExecutor(max_workers=1) as runner:
            many = runner.submit(eval_grid, ts, 8).result(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    for col in ("Z", "Z_prime", "theta", "theta_prime"):
        assert np.array_equal(getattr(one, col), getattr(many, col)), col


def _direct(ts):
    """eval_grid's pieces through the direct route alone (no lattice)."""
    parts = [_hardy_grid(ts[lo : lo + _GRID_PIECE]) for lo in range(0, ts.size, _GRID_PIECE)]
    return tuple(np.concatenate(col) for col in zip(*parts))


@pytest.mark.parametrize(
    "t_start",
    [1.0e5, TWO_PI * 400**2 - 300.0, 9.9e6],
    ids=["1e5", "straddle_400", "9.9e6"],
)
def test_lattice_route_matches_direct(t_start):
    # A uniform grid takes its main sum from the Nyquist lattice where
    # N >= 43; single heights keep the direct route.  The two agree to half
    # the reported estimate, and the bytes do not depend on the workers.
    ts = _uniform(t_start, 3)
    assert ts[-1] < 1.0e7
    grid = eval_grid(ts, workers=1)
    two = eval_grid(ts, workers=2)
    assert np.array_equal(grid.Z, two.Z)
    assert np.array_equal(grid.Z_prime, two.Z_prime)
    idx = np.unique(np.linspace(0, ts.size - 1, 200).astype(int))
    idx = np.union1d(idx, np.flatnonzero(np.diff(np.floor(np.sqrt(ts / TWO_PI))))[:, None] + [0, 1])
    samples = [critical_sample(float(ts[i])) for i in idx]
    z = np.array([s.Z for s in samples])
    zp = np.array([s.Z_prime for s in samples])
    cap = 0.5 * np.array([rs_error_estimate(float(ts[i])) for i in idx])
    assert np.all(np.abs(grid.Z[idx] - z) <= cap)
    assert np.all(np.abs(grid.Z_prime[idx] - zp) / grid.theta_prime[idx] <= cap)
    assert not np.array_equal(grid.Z[idx], z)  # the lattice route was taken


def test_lattice_route_covers_mpmath():
    # test_rs_error_estimate_covers_mpmath_to_1e7 evaluates one height at a
    # time, which keeps the direct route; here the heights sit inside
    # uniform grids, between lattice nodes.
    mpmath = pytest.importorskip("mpmath")
    for t_start in (1.0e6, 9.9e6):
        ts = _uniform(t_start, 1)
        grid = eval_grid(ts)
        for i in (1001, 4567, 8000):
            with mpmath.workdps(25):
                ref = float(mpmath.siegelz(float(ts[i])))
            assert abs(grid.Z[i] - ref) <= grid.est_abs_error, ts[i]


def test_lattice_route_selection():
    # A uniform grid below N = 43, and a grid with one height off the
    # lattice, give exactly what the direct route gives on the same pieces.
    below = 1.1e4 + (np.arange(2 * _GRID_PIECE + 99) + 0.5) * 0.02
    assert math.floor(math.sqrt(below[-1] / TWO_PI)) < _LATTICE_MIN_N
    uniform = _uniform(1.0e6, 2)
    moved = uniform.copy()
    moved[5000] += 0.3 * (moved[1] - moved[0])
    for ts in (below, moved):
        grid = eval_grid(ts, workers=2)
        z, zp, theta, theta_p = _direct(ts)
        assert np.array_equal(grid.Z, z)
        assert np.array_equal(grid.Z_prime, zp)
    # Without the moved height the same grid takes the lattice.
    assert not np.array_equal(eval_grid(uniform).Z, _direct(uniform)[0])


def test_eval_grid_validation():
    with pytest.raises(DomainError):
        eval_grid(np.array([10.0, 60.0]))
    with pytest.raises(DomainError):
        eval_grid(np.array([100.0, 90.0]))
    # NaN passes every comparison; it must not reach the main sum.
    for bad in ([math.nan], [100.0, math.nan, 200.0], [100.0, math.inf]):
        with pytest.raises(DomainError):
            eval_grid(np.array(bad))


def test_grid_cache_roundtrip(tmp_path):
    ts = np.linspace(100.0, 110.0, 64)
    grid = eval_grid(ts)
    path = tmp_path / "grid.zml"
    write_grid(grid, path)
    back = read_grid(path)
    assert np.array_equal(grid.t, back.t)
    assert np.array_equal(grid.Z, back.Z)
    assert np.array_equal(grid.Z_prime, back.Z_prime)
    assert np.array_equal(grid.theta, back.theta)
    assert np.array_equal(grid.theta_prime, back.theta_prime)
    assert grid.est_abs_error == back.est_abs_error
    raw = path.read_bytes()
    assert raw[:4] == b"ZML1"
    assert raw[4] == 1


def test_grid_cache_bytes_across_write_pieces(tmp_path):
    # Records written piece by piece read as one interleaved (rows, 5)
    # little-endian float64 table after the header, whatever the number
    # of pieces.
    rng = np.random.default_rng(3)
    for rows in (0, 1, _WRITE_ROWS, 2 * _WRITE_ROWS + 77):
        cols = rng.standard_normal((5, rows)) * 10.0 ** rng.integers(-300, 300, (5, rows))
        grid = GridData(*cols, est_abs_error=1.25e-9)
        path = tmp_path / f"grid{rows}.zml"
        write_grid(grid, path)
        header = b"ZML1" + struct.pack("<B", 1) + struct.pack("<d", 1.25e-9) + struct.pack("<Q", rows)
        assert path.read_bytes() == header + np.ascontiguousarray(cols.T, dtype="<f8").tobytes()


def test_grid_cache_rejects_bad_record_counts(tmp_path):
    # A header count beyond the bytes that follow is a truncated file,
    # however large: it must not reach the read.
    from zetalab.errors import ConfigError

    path = tmp_path / "short.zml"
    for count in (3, 1 << 40, 1 << 61, (1 << 64) - 1):
        header = b"ZML1" + struct.pack("<B", 1) + struct.pack("<d", 0.0) + struct.pack("<Q", count)
        path.write_bytes(header + b"\x00" * (80 - len(header)))
        with pytest.raises(ConfigError):
            read_grid(path)
    header = b"ZML1" + struct.pack("<B", 1) + struct.pack("<d", 0.0) + struct.pack("<Q", 1)
    path.write_bytes(header + struct.pack("<5d", 100.0, 1.0, 2.0, 3.0, 4.0) + b"\x00" * 3)
    assert read_grid(path).t.tolist() == [100.0]


def test_grid_cache_rejects_noise(tmp_path):
    path = tmp_path / "junk.zml"
    path.write_bytes(b"nope" + b"\x00" * 32)
    from zetalab.errors import ConfigError

    with pytest.raises(ConfigError):
        read_grid(path)
