import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zetalab.dirpoly import (
    DirichletPoly,
    MultiplicativeSpec,
    big_omega,
    build_increment_poly,
    exp_identity_gap,
    factorize,
    poly_eval,
    poly_eval_grid,
    poly_product,
    product_length_fraction,
    read_poly_csv,
    truncated_exp,
    write_poly_csv,
)
from zetalab.errors import CapacityError, DomainError
from zetalab.primes import E_SQUARED, custom_scheme, prime_sum_at, sieve_primes


@pytest.fixture(scope="module")
def table():
    return sieve_primes(1000)


@pytest.fixture(scope="module")
def toy_scheme(table):
    return custom_scheme(1.0e5, [E_SQUARED, 14.0, 30.0], table)


def test_big_omega_examples():
    assert big_omega(12) == 3
    assert big_omega(1) == 0
    assert big_omega(360) == 6


@given(st.integers(min_value=1, max_value=100_000), st.integers(min_value=1, max_value=1000))
@settings(max_examples=50, deadline=None)
def test_big_omega_additive(m, n):
    assert big_omega(m * n) == big_omega(m) + big_omega(n)


def test_build_increment_poly_enumeration(toy_scheme):
    # Range {11, 13} with Omega cutoff 2.
    spec = MultiplicativeSpec(alpha=0.5j, j=2, omega_cutoff=2.0 / toy_scheme.variance(2))
    poly = build_increment_poly(toy_scheme, spec)
    assert poly.support() == [1, 11, 13, 121, 143, 169]
    assert poly.coeffs[121] == pytest.approx((0.5j) ** 2 / 2.0)
    assert poly.coeffs[143] == pytest.approx((0.5j) ** 2)
    assert poly.coeffs[11] == pytest.approx(0.5j)


def test_build_increment_poly_alpha_zero(toy_scheme):
    poly = build_increment_poly(toy_scheme, MultiplicativeSpec(alpha=0.0, j=2))
    assert poly.coeffs == {1: 1.0 + 0.0j}


def test_build_increment_poly_empty_range(table):
    scheme = custom_scheme(1.0e5, [E_SQUARED, 8.0, 14.0], table)
    poly = build_increment_poly(scheme, MultiplicativeSpec(alpha=-1.0, j=2))
    assert poly.coeffs == {1: 1.0 + 0.0j}


def test_build_increment_poly_capacity(table):
    scheme = custom_scheme(1.0e5, [E_SQUARED, 14.0, 100.0], table)
    with pytest.raises(CapacityError, match="j=3"):
        build_increment_poly(scheme, MultiplicativeSpec(alpha=1.0, j=3))


def test_coefficients_exact_rationals(toy_scheme):
    # alpha = -1/2 (k = 3/2 twist); every coefficient is a dyadic rational
    # over a product of factorials.
    alpha = Fraction(-1, 2)
    spec = MultiplicativeSpec(alpha=float(alpha), j=3, omega_cutoff=4.0 / toy_scheme.variance(3))
    poly = build_increment_poly(toy_scheme, spec)
    checked = 0
    for n, coef in poly.coeffs.items():
        if n > 1_000_000:
            continue
        expo = big_omega(n)
        exact = alpha**expo
        for _, e in factorize(n).items():
            exact /= math.factorial(e)
        assert coef.real == pytest.approx(float(exact), abs=1e-15)
        assert coef.imag == 0.0
        checked += 1
    assert checked > 20


def test_poly_eval_examples():
    two_term = DirichletPoly.from_coeffs({1: 1.0, 2: 1.0})
    assert poly_eval(two_term, 0.0) == pytest.approx(1.0 + 2.0**-0.5)
    assert poly_eval(DirichletPoly.one(), 1234.5) == 1.0


@given(st.floats(min_value=0.0, max_value=1e4))
@settings(max_examples=50, deadline=None)
def test_poly_eval_triangle_inequality(t):
    poly = DirichletPoly.from_coeffs({1: 1.0, 2: -0.5, 6: 2.0, 17: 0.25j})
    bound = sum(abs(a) * n**-0.5 for n, a in poly.coeffs.items())
    assert abs(poly_eval(poly, t)) <= bound + 1e-12


def test_poly_eval_grid_matches_scalar():
    poly = DirichletPoly.from_coeffs({1: 1.0, 2: -0.5j, 15: 0.125})
    ts = np.array([0.0, 3.7, 1000.0])
    grid_vals = poly_eval_grid(poly, ts)
    for i, t in enumerate(ts):
        assert abs(grid_vals[i] - poly_eval(poly, float(t))) < 1e-13


def test_poly_product_identity_and_convolution():
    pa = DirichletPoly.from_coeffs({1: 1.0, 2: 1.0})
    pb = DirichletPoly.from_coeffs({1: 1.0, 3: 1.0})
    assert poly_product([pa, DirichletPoly.one()]).coeffs == pa.coeffs
    prod = poly_product([pa, pb])
    assert prod.coeffs == {1: 1.0, 2: 1.0, 3: 1.0, 6: 1.0}
    assert prod.length_bound == 6


def test_poly_product_associative_commutative_exact():
    pa = DirichletPoly.from_coeffs({1: 1.0, 2: 0.5})
    pb = DirichletPoly.from_coeffs({1: 1.0, 3: -2.0})
    pc = DirichletPoly.from_coeffs({1: 1.0, 5: 1.0j})
    left = poly_product([poly_product([pa, pb]), pc])
    right = poly_product([pa, poly_product([pb, pc])])
    swapped = poly_product([pc, pb, pa])
    assert left.coeffs == right.coeffs == swapped.coeffs


@given(st.floats(min_value=0.0, max_value=1e4))
@settings(max_examples=100, deadline=None)
def test_eval_homomorphism(t):
    pa = DirichletPoly.from_coeffs({1: 1.0, 2: 0.5, 9: -0.25})
    pb = DirichletPoly.from_coeffs({1: 1.0, 5: 1.0, 7: -1.0j})
    lhs = poly_eval(poly_product([pa, pb]), t)
    rhs = poly_eval(pa, t) * poly_eval(pb, t)
    assert abs(lhs - rhs) < 1e-10


def test_poly_product_capacity():
    # 3199^2 coefficient pairs pass DEFAULT_TERM_CAP = 10^7 only once.
    pa = DirichletPoly.from_coeffs({n: 1.0 for n in range(1, 3200)})
    with pytest.raises(CapacityError):
        poly_product([pa, pa])


def test_exp_identity_gap_examples(toy_scheme):
    assert exp_identity_gap(toy_scheme, 2, 0.0, 50.0, 8) == 0.0
    gap = exp_identity_gap(toy_scheme, 2, -1.0, 10.0, 6)
    assert gap < 1e-6
    gap3 = exp_identity_gap(toy_scheme, 3, 0.7 + 0.1j, 25.0, 5)
    assert gap3 < 1e-10


def test_increment_series_matches_polynomial(toy_scheme):
    # The increment polynomial capped at Omega <= K equals the degree-K Taylor
    # polynomial of exp(alpha P_j(1/2 + it)), K = floor(cutoff * P_j).
    ts = np.array([5.0, 100.0, 2500.0])
    for j, alpha in ((2, -1.0), (3, -0.5), (2, 0.25 + 0.1j)):
        cutoff = 3.0 / toy_scheme.variance(j)
        depth = math.floor(cutoff * toy_scheme.variance(j))
        series = truncated_exp(alpha * prime_sum_at(toy_scheme, j, 0.5 + 1j * ts), depth)
        poly = build_increment_poly(
            toy_scheme, MultiplicativeSpec(alpha=alpha, j=j, omega_cutoff=cutoff)
        )
        direct = np.array([poly_eval(poly, float(t)) for t in ts])
        assert np.max(np.abs(series - direct)) < 1e-12


def _taylor_reference(w: complex, depth: int) -> tuple[complex, float]:
    """Degree-`depth` Taylor polynomial of exp at w with every term added by
    fsum, and the sum of the term sizes (the scale of its rounding)."""
    terms = [1.0 + 0.0j]
    for m in range(1, depth + 1):
        terms.append(terms[-1] * w / m)
    value = complex(math.fsum(x.real for x in terms), math.fsum(x.imag for x in terms))
    return value, math.fsum(abs(x) for x in terms)


@pytest.mark.parametrize("depth", [6, 30, 94, 200])
def test_truncated_exp_stops_at_rounding(depth):
    eps = np.finfo(float).eps
    for radius in (0.0, 1e-3, 0.5, 1.0, 5.0, 20.0):
        w = radius * np.exp(2j * np.pi * np.arange(8) / 8)
        got = truncated_exp(w, depth)
        assert got.shape == w.shape
        for wi, gi in zip(w, got):
            ref, scale = _taylor_reference(complex(wi), depth)
            assert abs(gi - ref) <= 4.0 * eps * scale, (complex(wi), depth)


def test_truncated_exp_cap_and_scalar():
    # At |w| = 3 the degree-6 cap ends the sum long before rounding does:
    # the value is the polynomial, far from exp(w).
    w = 3.0 * np.exp(1j * np.array([0.0, 1.0, 2.5]))
    got = truncated_exp(w, 6)
    for wi, gi in zip(w, got):
        ref, scale = _taylor_reference(complex(wi), 6)
        assert abs(gi - ref) <= 4.0 * np.finfo(float).eps * scale
        assert abs(gi - np.exp(wi)) > 1e-2
    # A scalar gives a complex scalar, the same as its entry in an array.
    one = truncated_exp(0.3 - 0.4j, 30)
    assert isinstance(one, complex) and not isinstance(one, np.ndarray)
    assert one == truncated_exp(np.array([0.3 - 0.4j]), 30)[0]


def test_product_length_fraction_canonical():
    # The canonical cutoff pair (500, 1e4) keeps the product under T^(1/10).
    for log2 in (1.0e4, 3.0e4, 1.0e6, 1.0e100):
        assert product_length_fraction(log2) <= 0.1
    with pytest.raises(DomainError):
        product_length_fraction(100.0)


def test_poly_validation():
    with pytest.raises(DomainError):
        DirichletPoly({0: 1.0}, 10)
    with pytest.raises(DomainError):
        DirichletPoly({4: 1.0}, 3)
    with pytest.raises(DomainError):
        DirichletPoly({2: 0.0}, 3)


def test_poly_csv_roundtrip(tmp_path):
    poly = DirichletPoly.from_coeffs({1: 1.0, 2: -0.5 + 0.25j, 30: 1e-3})
    path = tmp_path / "poly.csv"
    write_poly_csv(poly, path)
    back = read_poly_csv(path)
    assert back.coeffs == poly.coeffs
