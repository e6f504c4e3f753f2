import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zetalab.errors import CapacityError, DomainError
from zetalab.primes import (
    E_SQUARED,
    build_scheme,
    custom_scheme,
    iterated_log,
    mertens_target,
    prime_sum_at,
    sieve_primes,
    smallest_prime_factors,
    write_scheme_csv,
)


def trial_division_primes(limit: int) -> list[int]:
    """Independent oracle: incremental trial division."""
    found: list[int] = []
    for n in range(2, limit + 1):
        is_prime = True
        for p in found:
            if p * p > n:
                break
            if n % p == 0:
                is_prime = False
                break
        if is_prime:
            found.append(n)
    return found


def test_sieve_small_cases():
    assert list(sieve_primes(30).primes) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert list(sieve_primes(2).primes) == [2]


def test_sieve_against_trial_division_to_1e4():
    table = sieve_primes(10_000)
    assert list(table.primes) == trial_division_primes(10_000)


def test_smallest_prime_factors_against_trial_division():
    spf = smallest_prime_factors(5000)
    assert spf.size == 5001 and spf[0] == spf[1] == 0
    for n in range(2, 5001):
        assert spf[n] == next(d for d in range(2, n + 1) if n % d == 0), n


def test_sieve_million_count():
    # Count frozen from the trial-division oracle.
    assert len(sieve_primes(1_000_000)) == 78498


def test_sieve_segmented_consistent():
    # Straddles the segment boundary so both code paths are exercised.
    limit = (1 << 22) + 1000
    seg = sieve_primes(limit)
    flat = sieve_primes(1 << 22)
    assert np.array_equal(seg.primes[seg.primes <= (1 << 22)], flat.primes)
    tail = [n for n in range((1 << 22) + 1, limit + 1)
            if all(n % p for p in trial_division_primes(2100))]
    assert list(seg.primes[seg.primes > (1 << 22)]) == tail


def test_sieve_every_small_limit():
    # Every limit in 2..2000: the segment starts at isqrt(limit) + 1, right
    # after the base primes, and may hold a single number.
    oracle = np.array(trial_division_primes(2000))
    for n in range(2, 2001):
        assert np.array_equal(sieve_primes(n).primes, oracle[oracle <= n]), n


def test_sieve_bounds():
    with pytest.raises(DomainError):
        sieve_primes(1)
    with pytest.raises(CapacityError):
        sieve_primes(10**9)


@given(st.integers(min_value=2, max_value=3000))
@settings(max_examples=30, deadline=None)
def test_sieve_matches_trial_division(limit):
    assert list(sieve_primes(limit).primes) == trial_division_primes(limit)


def test_iterated_log_examples():
    assert iterated_log(math.exp(math.exp(2.0)), 2) == pytest.approx(2.0, abs=1e-12)
    assert iterated_log(123.456, 1) == math.log(123.456)
    # Frozen from two checked scalar logs.
    assert iterated_log(1.0e5, 2) == pytest.approx(2.443470357682056, abs=1e-12)


def test_iterated_log_domain():
    with pytest.raises(DomainError):
        iterated_log(0.5, 2)  # log gives a negative intermediate
    with pytest.raises(DomainError):
        iterated_log(-3.0, 1)
    with pytest.raises(DomainError):
        iterated_log(10.0, 0)


@given(st.floats(min_value=20.0, max_value=1e300), st.integers(min_value=2, max_value=4))
@settings(max_examples=50, deadline=None)
def test_iterated_log_composition(x, j):
    try:
        expected = iterated_log(x, j)
    except DomainError:
        return
    assert iterated_log(math.log(x), j - 1) == pytest.approx(expected, rel=1e-14)


def test_build_scheme_example():
    table = sieve_primes(1000)
    big_t = math.exp(math.exp(4.0))
    scheme = build_scheme(big_t, 2.0, table)
    assert scheme.ell == 2
    assert scheme.boundaries[0] == pytest.approx(E_SQUARED)
    assert scheme.boundaries[1] == pytest.approx(30.337, abs=5e-3)
    assert list(scheme.prime_range(2)) == [11, 13, 17, 19, 23, 29]
    assert scheme.variance(2) == pytest.approx(0.357248, abs=1e-5)


def test_build_scheme_undefined():
    table = sieve_primes(100)
    with pytest.raises(DomainError, match="scheme undefined"):
        build_scheme(1.0e5, 1.0e4, table)


def test_build_scheme_coverage():
    table = sieve_primes(20)
    with pytest.raises(DomainError, match="prime table"):
        build_scheme(math.exp(math.exp(4.0)), 2.0, table)


def test_custom_scheme_partition_and_empty():
    table = sieve_primes(200)
    scheme = custom_scheme(1.0e5, [E_SQUARED, 10.0, 11.5, 40.0], table)
    assert scheme.ell == 4
    assert scheme.empty_increments == (2,)
    assert scheme.variance(2) == 0.0
    covered = np.concatenate([scheme.prime_range(j) for j in (2, 3, 4)])
    expected = table.primes[(table.primes >= E_SQUARED) & (table.primes < 40.0)]
    assert np.array_equal(np.sort(covered), expected)


def test_custom_scheme_validation():
    table = sieve_primes(100)
    with pytest.raises(DomainError):
        custom_scheme(1.0e5, [10.0, 10.0], table)
    with pytest.raises(DomainError):
        custom_scheme(1.0e5, [10.0], table)


def test_prime_sum_matches_variance_exactly():
    table = sieve_primes(200)
    scheme = custom_scheme(1.0e5, [E_SQUARED, 30.0, 100.0], table)
    for j in (2, 3):
        assert prime_sum_at(scheme, j, 1) == scheme.variance(j)


def test_prime_sum_examples():
    table = sieve_primes(100)
    scheme = custom_scheme(1.0e5, [E_SQUARED, 14.0, 17.0], table)
    # {11, 13} at s = 1/2
    val = prime_sum_at(scheme, 2, complex(0.5, 0.0))
    assert val == pytest.approx(11**-0.5 + 13**-0.5, abs=1e-12)
    assert val == pytest.approx(0.578861, abs=1e-5)
    empty = custom_scheme(1.0e5, [E_SQUARED, 8.0, 14.0], table)
    assert prime_sum_at(empty, 2, complex(0.5, 4.0)) == 0.0
    with pytest.raises(DomainError):
        prime_sum_at(scheme, 4, 1)


def test_prime_sum_complex_is_conjugate_symmetric():
    table = sieve_primes(100)
    scheme = custom_scheme(1.0e5, [E_SQUARED, 30.0], table)
    s = complex(0.5, 7.25)
    assert prime_sum_at(scheme, 2, s.conjugate()) == pytest.approx(
        prime_sum_at(scheme, 2, s).conjugate(), rel=1e-14
    )
    ss = np.array([s, s.conjugate(), complex(0.5, 1.0e4), complex(0.75, -3.0)])
    sums = prime_sum_at(scheme, 2, ss)
    assert sums.shape == ss.shape
    for i, si in enumerate(ss):
        assert sums[i] == pytest.approx(prime_sum_at(scheme, 2, complex(si)), rel=1e-14)
    assert sums[1] == pytest.approx(sums[0].conjugate(), rel=1e-14)


def test_prime_sum_blocks_keep_bits_and_bound_memory():
    # 1219 primes in [30, 9999): a block holds 107 arguments, so 600
    # arguments take 6 blocks, the last one short.
    scheme = custom_scheme(1.0e5, [E_SQUARED, 30.0, 9999.0], sieve_primes(10_000))
    chunk = scheme.prime_range(3).astype(float)
    assert chunk.size == 1219
    rng = np.random.default_rng(5)
    s = 0.5 + 1j * np.sort(rng.uniform(1.0e4, 1.1e4, 600))
    whole = np.exp(-s[..., None] * np.log(chunk)).sum(axis=-1)
    assert prime_sum_at(scheme, 3, s).tobytes() == whole.tobytes()
    square = s[:576].reshape(24, 24)
    by_rows = prime_sum_at(scheme, 3, square)
    assert by_rows.shape == (24, 24)
    assert by_rows.tobytes() == whole[:576].tobytes()
    assert prime_sum_at(scheme, 3, complex(s[7])) == whole[7]
    # 5000 arguments at once would make a 97 MB table.
    many = 0.5 + 1j * rng.uniform(1.0e4, 1.1e4, 5000)
    tracemalloc.start()
    try:
        prime_sum_at(scheme, 3, many)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10.0e6, peak


def test_mertens_prediction_canonical_scheme():
    # Chosen so range 3 is large (T_3 ~ 4e7) while the sieve stays desk-size.
    big_t = math.exp(22.75)
    table = sieve_primes(45_000_000)
    scheme = build_scheme(big_t, 1.1, table)
    assert scheme.ell == 3
    assert scheme.prime_range(3).size > 50
    ratio = scheme.variance(3) / mertens_target(scheme, 3)
    assert abs(ratio - 1.0) <= 0.25


def test_mertens_prediction_first_range():
    # T = e^417 gives ~9000 primes in range 2; the j = 2 target accounts for
    # the fixed lower endpoint e^2.
    big_t = math.exp(417.0)
    table = sieve_primes(100_000)
    scheme = build_scheme(big_t, 2.0, table)
    assert scheme.ell == 2
    assert scheme.prime_range(2).size > 1000
    ratio = scheme.variance(2) / mertens_target(scheme, 2)
    assert abs(ratio - 1.0) <= 0.25


def test_scheme_csv(tmp_path):
    table = sieve_primes(100)
    scheme = custom_scheme(1.0e5, [E_SQUARED, 14.0, 30.0], table)
    path = tmp_path / "scheme.csv"
    write_scheme_csv(scheme, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "j,T_j,P_j,range_prime_count"
    assert len(lines) == 1 + scheme.ell
    assert lines[2].split(",")[3] == "2"
