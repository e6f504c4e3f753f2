import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zetalab import twisted
from zetalab.critline import eval_grid, zeta_em_vec
from zetalab.dirpoly import DirichletPoly, poly_eval_grid
from zetalab.errors import CapacityError, DomainError, TruncationError
from zetalab.moments import MomentRequest, integrand, joint_moment, mean_zero_gap, midpoint_grid
from zetalab.twisted import (
    BSeriesConfig,
    CutoffFn,
    ShiftConfig,
    b_factor,
    contour_fourth_moment,
    contour_second_moment,
    direct_mesh,
    f_sum,
    fourth_moment_scale,
    g_sum,
    mellin_weight,
    rankin_bound_check,
    sigma_shift,
    twist_pair_sum_bruteforce,
    twist_pair_sum_euler,
    twisted_direct,
    vandermonde,
    write_comparison_csv,
)

ONE = DirichletPoly.one()
PHI = CutoffFn()


# ---------------------------------------------------------------------------
# sigma, B-series
# ---------------------------------------------------------------------------


def test_sigma_examples():
    assert sigma_shift(6, 0.0, 0.0) == pytest.approx(4.0)
    p = 17
    z1, z2 = 0.1 + 0.2j, -0.05 + 0.03j
    expect = p**-z1 + p**-z2
    assert sigma_shift(p, z1, z2) == pytest.approx(expect, rel=1e-12)


@given(
    st.integers(min_value=1, max_value=10_000),
    st.complex_numbers(max_magnitude=0.5, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=0.5, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=50, deadline=None)
def test_sigma_symmetric(n, z1, z2):
    a = sigma_shift(n, z1, z2)
    b = sigma_shift(n, z2, z1)
    assert a == pytest.approx(b, rel=1e-10, abs=1e-12)


def test_b_factor_trivial_and_prime():
    assert b_factor(1, (0.1, -0.1, 0.05, 0.0)) == 1.0
    for p in (2, 5, 11):
        # At zero shifts the series ratio collapses to 2p/(p+1).
        assert b_factor(p, (0.0, 0.0, 0.0, 0.0)) == pytest.approx(
            2.0 * p / (p + 1.0), rel=1e-12
        )


def test_b_factor_direct_series_oracle():
    # Independent finite summation of both series at depth 60.
    p, m = 5, 1
    num = sum((j + 2) * (j + 1) / p**j for j in range(61))
    den = sum((j + 1) ** 2 / p**j for j in range(61))
    assert b_factor(p, (0.0, 0.0, 0.0, 0.0)) == pytest.approx(num / den, rel=1e-12)


def test_b_factor_swap_symmetry():
    z = (0.05 + 0.1j, -0.03 - 0.02j, 0.01j, 0.02)
    swapped = (z[1], z[0], z[2], z[3])
    assert b_factor(12, z) == pytest.approx(b_factor(12, swapped), rel=1e-12)


def test_b_factor_preconditions():
    with pytest.raises(DomainError):
        b_factor(6, (0.3, 0.0, 0.0, 0.0))
    with pytest.raises(TruncationError):
        b_factor(2, (0.24, 0.24, 0.24, 0.24), BSeriesConfig(tail_tolerance=1e-30))


def test_b_factor_depth_stability():
    z = (0.1 + 0.05j, -0.08, 0.02j, 0.12)
    v60 = b_factor(90, z, BSeriesConfig(truncation_depth=60))
    v120 = b_factor(90, z, BSeriesConfig(truncation_depth=120))
    assert abs(v60 - v120) < 1e-12


# ---------------------------------------------------------------------------
# pair sums
# ---------------------------------------------------------------------------


def test_f_sum_examples():
    assert f_sum(ONE, 0.3j, -0.1) == 1.0
    two = DirichletPoly.from_coeffs({1: 1.0, 2: 1.0})
    assert f_sum(two, 0.0, 0.0) == pytest.approx(2.5)


def test_f_sum_swap_oracle():
    # For real coefficients, swapping the shift arguments equals swapping the
    # roles of the two summation indices; recompute by explicit loops.
    poly = DirichletPoly.from_coeffs({1: 1.0, 2: 0.5, 6: -0.25})
    z1, z2 = 0.07 + 0.02j, -0.04 + 0.05j
    manual = 0.0 + 0.0j
    for h, ah in poly.coeffs.items():
        for k, ak in poly.coeffs.items():
            g = math.gcd(h, k)
            manual += (
                ah
                * np.conj(ak)
                / ((h // g) * k)
                * np.exp((z1 + z2) * math.log(g) - z2 * math.log(h) - z1 * math.log(k))
            )
    assert f_sum(poly, z2, z1) == pytest.approx(complex(manual), rel=1e-12)


def test_f_sum_hermitian():
    poly = DirichletPoly.from_coeffs({1: 1.0, 2: 0.5, 15: -1.25})
    z = 0.06 + 0.31j
    val = f_sum(poly, z, np.conj(z))
    assert abs(val.imag) < 1e-10


def test_f_sum_capacity():
    big = DirichletPoly.from_coeffs({n: 1.0 for n in range(1, 20)})
    with pytest.raises(CapacityError):
        f_sum(big, 0.0, 0.0, cap=100)


def test_g_sum_trivial_and_one_prime():
    z = (0.05, -0.03, 0.02, 0.01)
    assert g_sum(ONE, z) == 1.0
    # Hand assembly for support {1, p}.
    p, c = 7, 0.6 - 0.2j
    poly = DirichletPoly.from_coeffs({1: 1.0, p: c})
    b12 = b_factor(p, z)
    b34 = b_factor(p, (z[2], z[3], z[0], z[1]))
    expect = (
        1.0
        + c * np.conj(c) / p
        + c / p * b12 * 1.0
        + np.conj(c) / p * 1.0 * b34
    )
    assert g_sum(poly, z) == pytest.approx(complex(expect), rel=1e-12)


def test_g_sum_euler_factorization():
    z = (0.04 + 0.02j, -0.05, 0.03, -0.01j)
    c11, c13 = 0.4 + 0.1j, -0.7
    whole = DirichletPoly.from_coeffs({1: 1.0, 11: c11, 13: c13, 143: c11 * c13})
    parts = [
        DirichletPoly.from_coeffs({1: 1.0, 11: c11}),
        DirichletPoly.from_coeffs({1: 1.0, 13: c13}),
    ]
    product = g_sum(parts[0], z) * g_sum(parts[1], z)
    assert g_sum(whole, z) == pytest.approx(product, rel=1e-12)


# ---------------------------------------------------------------------------
# The Vandermonde factor
# ---------------------------------------------------------------------------


def test_vandermonde_examples():
    assert vandermonde((1.0, 1.0, 2.0, 3.0)) == 0.0
    assert vandermonde((0.0, 1.0, 2.0, 3.0)) == pytest.approx(12.0)


@given(
    st.tuples(*[st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)] * 4)
)
@settings(max_examples=50, deadline=None)
def test_vandermonde_antisymmetry(z):
    swapped = (z[1], z[0], z[2], z[3])
    assert vandermonde(swapped) == pytest.approx(-vandermonde(z), rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# Mellin weight
# ---------------------------------------------------------------------------


def test_mellin_plateau_bounds():
    val = mellin_weight(0.0, 1.0e4)
    assert abs(val.imag) < 1e-9
    assert 1.0e4 <= val.real <= 1.5e4


def test_mellin_scaling_substitution():
    w = 0.4 - 0.3j
    v2 = mellin_weight(w, 2.0e3)
    v1 = mellin_weight(w, 1.0e3)
    assert v2 == pytest.approx(2.0 ** (1.0 + w) * v1, rel=1e-10)


def test_mellin_modulus_bound():
    for w in (0.5 + 2.0j, -1.0 + 5.0j, 3.0 - 1.0j):
        val = mellin_weight(w, 5.0e3)
        cap = mellin_weight(complex(w.real, 0.0), 5.0e3)
        assert abs(val) <= cap.real * (1.0 + 1e-12)


def test_mellin_self_convergence():
    # Doubling the panel budget moves the value by less than 1e-8 relative.
    from zetalab.twisted import _u_rule

    w = 1.3 - 0.7j
    u, wq, lu = _u_rule(PHI)
    coarse = np.sum(wq * np.exp(w * lu))
    u2, wq2, lu2 = _u_rule(PHI, order=48, rise_panels=16, flat_panels=8)
    fine = np.sum(wq2 * np.exp(w * lu2))
    assert abs(coarse - fine) / abs(fine) < 1e-8


def test_cutoff_shape():
    assert PHI(1.5) == 1.0
    assert PHI(0.5) == 0.0
    assert PHI(2.5) == 0.0
    u = np.linspace(0.7, 2.3, 400)
    vals = PHI(u)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    assert np.all(vals[(u >= 1.0) & (u <= 2.0)] == 1.0)


# ---------------------------------------------------------------------------
# Contour main terms vs direct integrals
# ---------------------------------------------------------------------------


def test_second_moment_contour_node_stability():
    T = 1.0e4
    v64 = contour_second_moment(ONE, T, ShiftConfig.for_height(T, 64), PHI, "zeta")
    v128 = contour_second_moment(ONE, T, ShiftConfig.for_height(T, 128), PHI, "zeta")
    assert abs(v64 - v128) / abs(v128) < 1e-6


def test_second_moment_contour_vs_direct():
    T = 1.0e4
    for target, weight in (("zeta", "dzeta2"), ("hardyZ", "dZ2")):
        contour = contour_second_moment(ONE, T, ShiftConfig.for_height(T, 64), PHI, target)
        direct = twisted_direct(ONE, T, weight, PHI)
        assert direct / contour == pytest.approx(1.0, abs=0.05)


def test_second_moment_contour_vs_direct_twisted():
    T = 1.0e4
    poly = DirichletPoly.from_coeffs({1: 1.0, 2: 1.0})
    contour = contour_second_moment(poly, T, ShiftConfig.for_height(T, 64), PHI, "zeta")
    direct = twisted_direct(poly, T, "dzeta2", PHI)
    assert direct / contour == pytest.approx(1.0, abs=0.05)


def test_second_moment_length_guard():
    long_poly = DirichletPoly.from_coeffs({1: 1.0, 10**9: 1.0})
    with pytest.raises(DomainError):
        contour_second_moment(long_poly, 1.0e4, ShiftConfig.for_height(1.0e4), PHI)


def test_fourth_moment_contour_node_stability():
    T = 1.0e4
    scale = fourth_moment_scale(T)
    v16 = contour_fourth_moment(ONE, T, ShiftConfig.for_height(T, 16, scale), PHI, "zeta")
    v32 = contour_fourth_moment(ONE, T, ShiftConfig.for_height(T, 32, scale), PHI, "zeta")
    assert abs(v16 - v32) / abs(v32) < 1e-4


def test_fourth_moment_contour_vs_direct():
    T = 1.0e4
    for target, weight in (("zeta", "zeta2dzeta2"), ("hardyZ", "Z2dZ2")):
        contour = contour_fourth_moment(ONE, T, None, PHI, target)
        direct = twisted_direct(ONE, T, weight, PHI)
        assert direct / contour == pytest.approx(1.0, abs=0.05)


def test_fourth_moment_scale_invariance():
    # The main term is a residue at the origin: any safe radius scale gives
    # the same value.
    T = 1.0e4
    scale = fourth_moment_scale(T)
    a = contour_fourth_moment(ONE, T, ShiftConfig.for_height(T, 32, scale), PHI, "zeta")
    b = contour_fourth_moment(ONE, T, ShiftConfig.for_height(T, 32, scale / 2), PHI, "zeta")
    assert a == pytest.approx(b, rel=1e-6)


def test_fourth_moment_literal_radii_rejected():
    with pytest.raises(DomainError, match="denominator zeta"):
        contour_fourth_moment(ONE, 1.0e5, ShiftConfig.for_height(1.0e5, 16, 1.0), PHI)


def test_fourth_moment_radii_distinct():
    cfg = ShiftConfig.for_height(1.0e5, 16, fourth_moment_scale(1.0e5))
    r = cfg.radii
    assert len({round(x, 15) for x in r}) == 4
    # No pairing z_i + z_j can vanish when radii differ.
    assert all(abs(r[i] - r[j]) > 0 for i in range(4) for j in range(i + 1, 4))


def test_fourth_moment_nontrivial_poly_rejected():
    poly = DirichletPoly.from_coeffs({1: 1.0, 2: 1.0})
    with pytest.raises(DomainError, match="A = 1"):
        contour_fourth_moment(poly, 1.0e4)


# Values at T = 1e4 from the evaluators that summed Euler-Maclaurin at every
# denominator node and the full Mellin quadrature at every exponent.  The
# fourth moment's hardyZ sum cancels by about 1e7, so summation order alone
# moves it by up to ~1e-11 relative.
PINNED_SECOND = {
    ("zeta", "one"): 2390714.0063517997,
    ("zeta", "one_plus_2"): 5677203.030809037,
    ("hardyZ", "one"): 716443.1571410864,
    ("hardyZ", "one_plus_2"): 1621661.0442668414,
}
PINNED_FOURTH = {
    (16, "zeta"): 143014299.07678285,
    (16, "hardyZ"): 14239229.3978653,
    (32, "zeta"): 143014343.66388825,
    (32, "hardyZ"): 14239228.64888771,
}
POLYS = {"one": ONE, "one_plus_2": DirichletPoly.from_coeffs({1: 1.0, 2: 1.0})}


@pytest.mark.parametrize("target, poly", sorted(PINNED_SECOND))
def test_second_moment_contour_pinned(target, poly):
    T = 1.0e4
    value = contour_second_moment(POLYS[poly], T, ShiftConfig.for_height(T, 64), PHI, target)
    assert value == pytest.approx(PINNED_SECOND[target, poly], rel=1e-13)


@pytest.mark.parametrize("n, target", sorted(PINNED_FOURTH))
def test_fourth_moment_contour_pinned(n, target):
    T = 1.0e4
    cfg = ShiftConfig.for_height(T, n, fourth_moment_scale(T))
    value = contour_fourth_moment(ONE, T, cfg, PHI, target)
    assert value == pytest.approx(PINNED_FOURTH[n, target], rel=1e-10)


def test_inv_zeta2_model_against_euler_maclaurin():
    rng = np.random.default_rng(2024)
    rho = 3.9
    u = rho * np.sqrt(rng.random(2000)) * np.exp(2j * np.pi * rng.random(2000))
    ref, _, _ = zeta_em_vec(2.0 + u)
    model = twisted._inv_zeta2(u, twisted._zeta2_model(rho, 64))
    assert np.max(np.abs(model * ref - 1.0)) <= 1e-12
    # The radius sum of the default four-circle torus at T = 1e5.
    circle = 0.65 * np.exp(2j * np.pi * np.arange(256) / 256)
    ref, _, _ = zeta_em_vec(2.0 + circle)
    model = twisted._inv_zeta2(circle, twisted._zeta2_model(0.65, 64))
    assert np.max(np.abs(model * ref - 1.0)) <= 1e-14


def test_inv_zeta2_model_check_raises(monkeypatch):
    monkeypatch.setattr(twisted, "DENOM_RTOL", 1e-20)
    with pytest.raises(TruncationError, match="zeta_em_vec"):
        contour_fourth_moment(ONE, 1.0e4, ShiftConfig.for_height(1.0e4, 16, 1 / 16), PHI)


def test_mellin_factors_against_scalar_weight():
    # 8 x 8 exponents w = w_row + w_col with |w| <= 1.  M0 against
    # mellin_weight; M2 = M0'' by the Cauchy integral of mellin_weight on a
    # circle of radius 1/4 about w (trapezoid rule, spectrally accurate).
    T = 1.0e4
    rng = np.random.default_rng(11)
    w_row, w_col = (
        0.5 * np.sqrt(rng.random(8)) * np.exp(2j * np.pi * rng.random(8)) for _ in range(2)
    )
    m0, m2 = twisted._mellin_factors(w_row, w_col, T, PHI)
    nodes = 0.25 * np.exp(2j * np.pi * np.arange(32) / 32)
    for i, a in enumerate(w_row):
        for j, b in enumerate(w_col):
            w = a + b
            assert abs(w) <= 1.0
            ref0 = mellin_weight(w, T, PHI)
            ring = np.array([mellin_weight(w + h, T, PHI) for h in nodes])
            ref2 = 2.0 * np.mean(ring / nodes**2)
            assert abs(m0[i, j] / ref0 - 1.0) <= 1e-12
            assert abs(m2[i, j] / ref2 - 1.0) <= 1e-12


@pytest.mark.parametrize("n", [16, 32])
def test_fourth_moment_em_work_count(monkeypatch, n):
    # Euler-Maclaurin runs on the 4 n^2 numerator values and the n model
    # check points, plus the 64 Cauchy samples when the model is first built;
    # no longer on the n^4 denominators.
    counted = []
    real = twisted.zeta_em_vec

    def counting(s):
        counted.append(np.size(s))
        return real(s)

    monkeypatch.setattr(twisted, "zeta_em_vec", counting)
    twisted._zeta2_taylor.cache_clear()
    T = 1.0e4
    cfg = ShiftConfig.for_height(T, n, fourth_moment_scale(T))
    contour_fourth_moment(ONE, T, cfg, PHI)
    assert sum(counted) <= 4 * n * n + n + 64
    counted.clear()
    contour_fourth_moment(ONE, T, cfg, PHI)
    assert sum(counted) <= 4 * n * n + 64


# ---------------------------------------------------------------------------
# Direct integrals
# ---------------------------------------------------------------------------


def test_direct_weight_validation():
    with pytest.raises(DomainError):
        twisted_direct(ONE, 1.0e4, "bogus", PHI)


def test_direct_weights_match_independent_midpoint_sum():
    # Each weight against a midpoint sum built here from eval_grid.
    T = 1.0e3
    lo, hi = 0.75 * T, 2.25 * T
    panels = math.ceil((hi - lo) / (2.0 * math.pi / math.log(T / (2.0 * math.pi)) / 20))
    step = (hi - lo) / panels
    ts = lo + (np.arange(panels) + 0.5) * step
    grid = eval_grid(ts)
    z2, zp2, thp2 = grid.Z**2, grid.Z_prime**2, grid.theta_prime**2
    expected = {
        "dzeta2": zp2 + thp2 * z2,
        "zeta2dzeta2": z2 * (zp2 + thp2 * z2),
        "dZ2": zp2,
        "Z2dZ2": z2 * zp2,
    }
    poly = DirichletPoly.from_coeffs({1: 1.0, 2: 1.0})
    amps = np.abs(1.0 + 2.0**-0.5 * np.exp(-1j * ts * math.log(2.0))) ** 2
    for weight, vals in expected.items():
        ref = float(np.sum(vals * amps * PHI(ts / T)) * step)
        value = twisted_direct(poly, T, weight, PHI, points_per_gap=20)
        assert value == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("T", [1.0e3, 1.0e4])
def test_direct_bandwidth_mesh_matches_fine_mesh(T):
    # The default mesh, about 2 and 4 points per mean zero gap, against one
    # 40 points/gap grid per T shared by every (weight, polynomial) pair.
    ts, step = midpoint_grid(0.75 * T, 2.25 * T, mean_zero_gap(T) / 40)
    grid = eval_grid(ts)
    window = PHI(ts / T) * step
    for poly in (ONE, DirichletPoly.from_coeffs({1: 1.0, 2: 1.0})):
        amps = np.abs(poly_eval_grid(poly, ts)) ** 2
        for weight, (z2_power, target) in twisted.WEIGHTS.items():
            vals = integrand(grid, z2_power + 1, 1, target)
            ref = float(np.sum(vals * amps * window))
            assert twisted_direct(poly, T, weight, PHI) == pytest.approx(ref, rel=2e-12), weight


def test_direct_mesh_follows_bandwidth():
    T = 1.0e4
    assert direct_mesh(ONE, T, "Z2dZ2", PHI) < direct_mesh(ONE, T, "dZ2", PHI)
    long_poly = DirichletPoly.from_coeffs({1: 1.0, 97: 1.0})
    assert direct_mesh(long_poly, T, "dzeta2", PHI) < direct_mesh(ONE, T, "dzeta2", PHI)
    assert direct_mesh(ONE, T, "dZ2", PHI, points_per_gap=20) == mean_zero_gap(T) / 20
    with pytest.raises(DomainError):
        direct_mesh(ONE, T, "dZ2", PHI, points_per_gap=0)
    # A cutoff support that starts below t = 50 is rejected before any grid.
    for low in (2.0, 5.0):
        with pytest.raises(DomainError):
            twisted_direct(ONE, low, "dzeta2", PHI)


def test_direct_plateau_domination():
    # phi = 1 on [T, 2T] and the integrand is nonnegative, so the plain
    # moment over [T, 2T] is dominated by the smoothed integral.
    T = 2.0e3
    smoothed = twisted_direct(ONE, T, "dzeta2", PHI)
    plain = joint_moment(MomentRequest(T, 1.0, 1.0)).value
    assert plain <= smoothed


def test_direct_z_weight_equals_zeta_weight_without_derivatives():
    # |Z| = |zeta| makes derivative-free weights identical; the module's
    # weights all carry derivatives, so check via the h = 0 moment instead.
    T = 1.0e3
    za = joint_moment(MomentRequest(T, 1.0, 0.0, "zeta")).value
    hz = joint_moment(MomentRequest(T, 1.0, 0.0, "hardyZ")).value
    assert za == hz


# ---------------------------------------------------------------------------
# Combinatorial bounds
# ---------------------------------------------------------------------------


def test_rankin_hand_case():
    rep = rankin_bound_check([11, 13], 1)
    expect = 1.0 / 11 + 1.0 / 13 + 2.0 / 143
    assert rep.value == pytest.approx(expect, rel=1e-12)
    p = 1.0 / 11 + 1.0 / 13
    assert rep.bound == pytest.approx(2.0 * p * math.exp(p), rel=1e-12)
    assert rep.holds


def test_rankin_r_zero():
    rep = rankin_bound_check([11, 13, 17], 0)
    assert rep.value == 1.0
    assert rep.bound == pytest.approx(math.exp(1.0 / 11 + 1.0 / 13 + 1.0 / 17))
    assert rep.holds


def test_rankin_caps():
    with pytest.raises(CapacityError):
        rankin_bound_check(list(range(11, 50))[:9], 2)
    with pytest.raises(CapacityError):
        rankin_bound_check([11, 13], 7)


def test_rankin_bound_monotone_in_r():
    margins = []
    for r in range(0, 5):
        rep = rankin_bound_check([11, 13, 17, 19], r)
        assert rep.holds
        margins.append(rep.bound / max(rep.value, 1e-300))
    assert all(m >= 1.0 for m in margins)


def test_pair_sum_euler_identity():
    for twist in (0.5, 1.0, -0.3):
        brute = twist_pair_sum_bruteforce([11, 13], twist)
        euler = twist_pair_sum_euler([11, 13], twist)
        assert brute == pytest.approx(euler, rel=1e-10)


def test_comparison_csv(tmp_path):
    rows = [
        dict(T=repr(1.0e4), polynomial_id="one", method="direct", weight="dzeta2",
             value=repr(2390713.7), nodes="", mesh=repr(0.04), ratio=""),
    ]
    path = tmp_path / "cmp.csv"
    write_comparison_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "T,polynomial_id,method,weight,value,nodes,mesh,ratio"
    assert len(lines) == 2
