"""Prime sieving, iterated logarithms, and increment schemes.

The increment scheme partitions the primes in [e^2, T_ell) into consecutive
ranges [T_{j-1}, T_j) whose reciprocal sums P_j act as variances for the
prime sums evaluated on the half line.  At realistic desk-scale heights the
canonical boundary formula is degenerate (T_2 < T_1), so a custom mode with
user-supplied boundaries shares the same container and contracts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .csvio import write_csv
from .errors import CapacityError, DomainError

E_SQUARED = math.exp(2.0)

# Segmented sieving keeps peak memory near one byte per candidate per segment.
SIEVE_SEGMENT = 1 << 22
DEFAULT_SIEVE_CAP = 100_000_000


@dataclass(frozen=True, eq=False)
class PrimeTable:
    """Ascending primes up to and including `limit`."""

    limit: int
    primes: np.ndarray

    def __len__(self) -> int:
        return int(self.primes.size)


def smallest_prime_factors(limit: int) -> np.ndarray:
    """spf[n], the smallest prime factor of n, for 0 <= n <= limit.

    Each prime p <= isqrt(limit) marks the multiples of p from p^2 that no
    smaller prime has marked; the n left unmarked are prime, spf[n] = n.
    spf[0] = spf[1] = 0.
    """
    spf = np.zeros(int(limit) + 1, dtype=np.int64)
    for p in range(2, math.isqrt(int(limit)) + 1):
        if spf[p] == 0:
            multiples = spf[p * p :: p]
            multiples[multiples == 0] = p
    unmarked = np.flatnonzero(spf[2:] == 0) + 2
    spf[unmarked] = unmarked
    return spf


def sieve_primes(limit: int, cap: int = DEFAULT_SIEVE_CAP) -> PrimeTable:
    """Exact table of the primes <= limit.

    The primes up to isqrt(limit), the n with spf[n] = n in
    `smallest_prime_factors`, sieve the rest in segments of
    SIEVE_SEGMENT; indices are 64-bit throughout.  Raises DomainError for
    limit < 2 and CapacityError above `cap`.
    """
    limit = int(limit)
    if limit < 2:
        raise DomainError(f"sieve limit must be >= 2, got {limit}")
    if limit > cap:
        raise CapacityError(f"sieve limit {limit} exceeds cap {cap}")
    root = math.isqrt(limit)
    spf = smallest_prime_factors(root)
    base = np.flatnonzero(spf[2:] == np.arange(2, root + 1)) + 2
    chunks = [base]
    low = root + 1
    while low <= limit:
        high = min(low + SIEVE_SEGMENT - 1, limit)
        flags = np.ones(high - low + 1, dtype=bool)
        for p in base.tolist():
            start = max(p * p, ((low + p - 1) // p) * p)
            if start > high:
                continue
            flags[start - low :: p] = False
        chunks.append(np.flatnonzero(flags).astype(np.int64) + low)
        low = high + 1
    return PrimeTable(limit, np.concatenate(chunks))


def iterated_log(x: float, j: int) -> float:
    """j-fold iterated natural logarithm of x.

    Raises DomainError if any intermediate value is <= 0, which would make
    the next logarithm undefined.
    """
    if j < 1:
        raise DomainError(f"iteration count must be >= 1, got {j}")
    value = float(x)
    for stage in range(j):
        if value <= 0.0:
            raise DomainError(
                f"iterated log undefined: stage {stage} value {value} <= 0"
            )
        value = math.log(value)
    return value


@dataclass(frozen=True, eq=False)
class IncrementScheme:
    """Boundaries T_1..T_ell with per-range prime lists and variances.

    variances[j-2] holds P_j for 2 <= j <= ell; ranges[j-2] holds the primes
    in [T_{j-1}, T_j), possibly empty.  `custom` marks user-supplied
    boundaries that do not follow the canonical formula.
    """

    bigT: float
    threshold: float
    ell: int
    boundaries: tuple[float, ...]
    variances: tuple[float, ...]
    ranges: tuple[np.ndarray, ...] = field(repr=False)
    custom: bool = False

    def variance(self, j: int) -> float:
        self._check_index(j)
        return self.variances[j - 2]

    def prime_range(self, j: int) -> np.ndarray:
        self._check_index(j)
        return self.ranges[j - 2]

    def _check_index(self, j: int) -> None:
        if not 2 <= j <= self.ell:
            raise DomainError(f"increment index {j} outside [2, {self.ell}]")

    @property
    def empty_increments(self) -> tuple[int, ...]:
        return tuple(
            j for j in range(2, self.ell + 1) if self.ranges[j - 2].size == 0
        )


def _range_sums(
    boundaries: tuple[float, ...], primes: PrimeTable
) -> tuple[tuple[float, ...], tuple[np.ndarray, ...]]:
    need = math.ceil(max(boundaries)) - 1
    if primes.limit < need:
        raise DomainError(
            f"prime table covers only {primes.limit} < {need} required by the scheme"
        )
    variances = []
    ranges = []
    for j in range(1, len(boundaries)):
        lo, hi = boundaries[j - 1], boundaries[j]
        a = int(np.searchsorted(primes.primes, lo, side="left"))
        b = int(np.searchsorted(primes.primes, hi, side="left"))
        chunk = primes.primes[a:b] if hi > lo else primes.primes[:0]
        ranges.append(chunk)
        variances.append(float(np.add.reduce(np.power(chunk.astype(float), -1.0))))
    return tuple(variances), tuple(ranges)


def build_scheme(bigT: float, threshold: float, primes: PrimeTable) -> IncrementScheme:
    """Canonical scheme at height bigT: T_1 = e^2, T_j = exp(log T / (log_j T)^2).

    ell is the largest j with log_j(bigT) >= threshold.  Empty ranges are
    legal and contribute P_j = 0.
    """
    if threshold <= 0.0:
        raise DomainError(f"threshold must be positive, got {threshold}")
    if not bigT > math.e:
        raise DomainError(f"bigT must exceed e, got {bigT}")
    if math.log(bigT) < threshold:
        raise DomainError(
            f"scheme undefined at this T: log T = {math.log(bigT):.6g} < threshold {threshold:.6g}"
        )
    ell = 1
    while True:
        try:
            nxt = iterated_log(bigT, ell + 1)
        except DomainError:
            break
        if nxt < threshold:
            break
        ell += 1
    logT = math.log(bigT)
    boundaries = [E_SQUARED]
    for j in range(2, ell + 1):
        boundaries.append(math.exp(logT / iterated_log(bigT, j) ** 2))
    variances, ranges = _range_sums(tuple(boundaries), primes)
    return IncrementScheme(
        bigT=float(bigT),
        threshold=float(threshold),
        ell=ell,
        boundaries=tuple(boundaries),
        variances=variances,
        ranges=ranges,
        custom=False,
    )


def custom_scheme(
    bigT: float, boundaries: list[float] | tuple[float, ...], primes: PrimeTable
) -> IncrementScheme:
    """Scheme with user-supplied strictly increasing boundaries T_1 < ... < T_ell."""
    bounds = tuple(float(b) for b in boundaries)
    if len(bounds) < 2:
        raise DomainError("custom scheme needs at least two boundaries")
    if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
        raise DomainError(f"boundaries must be strictly increasing, got {bounds}")
    variances, ranges = _range_sums(bounds, primes)
    return IncrementScheme(
        bigT=float(bigT),
        threshold=float("nan"),
        ell=len(bounds),
        boundaries=bounds,
        variances=variances,
        ranges=ranges,
        custom=True,
    )


# Entries in one block of a table over a whole argument array, 2 MB of
# complex: p^{-s} of `prime_sum_at`, and in critline n^{-it} of the
# Riemann-Siegel main sum and n^{-s} of the Euler-Maclaurin power sums.  The
# table stays in cache and peak memory flat (a whole table of 20 000 heights
# against a range of 1219 primes took the `inequality` command to a 790 MB
# peak), and each numpy call still does real work when eval_grid threads run
# side by side.
_BLOCK_BUDGET = 1 << 17


def prime_sum_at(scheme: IncrementScheme, j: int, s):
    """Sum of p^{-s} over the j-th prime range, ascending order.

    An array of s gives the array of sums and a complex scalar s its sum,
    as complex numbers, by one expression.  Arrays are taken in blocks of
    arguments whose table stays within _BLOCK_BUDGET entries; each
    argument's row is summed whole, so the blocking leaves every sum's
    bits unchanged.  Real scalar s reuses the accumulation that produced
    the stored variances, so prime_sum_at(scheme, j, 1) == scheme.variance(j)
    exactly.
    """
    chunk = scheme.prime_range(j).astype(float)
    if np.ndim(s) or (isinstance(s, complex) and s.imag != 0.0):
        args = np.asarray(s, dtype=complex)
        flat = args.reshape(-1)
        log_p = np.log(chunk)
        sums = np.empty(flat.shape, dtype=complex)
        rows = max(1, _BLOCK_BUDGET // max(1, chunk.size))
        for lo in range(0, flat.size, rows):
            block = slice(lo, lo + rows)
            sums[block] = np.exp(-flat[block, None] * log_p).sum(axis=-1)
        return sums.reshape(args.shape) if np.ndim(s) else complex(sums[0])
    return float(np.add.reduce(np.power(chunk, -float(s.real if isinstance(s, complex) else s))))


def mertens_target(scheme: IncrementScheme, j: int) -> float:
    """Second-Mertens prediction for P_j under the canonical boundaries.

    For j >= 3 this is 2 log_j T - 2 log_{j+1} T.  The j = 2 range starts at
    the fixed T_1 = e^2, whose loglog is log 2, so its prediction is
    log_2 T - 2 log_3 T - log 2.
    """
    if scheme.custom:
        raise DomainError("Mertens prediction applies to canonical schemes only")
    scheme._check_index(j)
    if j >= 3:
        return 2.0 * iterated_log(scheme.bigT, j) - 2.0 * iterated_log(scheme.bigT, j + 1)
    return iterated_log(scheme.bigT, 2) - 2.0 * iterated_log(scheme.bigT, 3) - math.log(2.0)


def write_scheme_csv(scheme: IncrementScheme, path) -> None:
    """Columns: j, T_j, P_j, range_prime_count (P_1 reported as 0)."""
    rows = [[1, scheme.boundaries[0], 0.0, 0]] + [
        [j, scheme.boundaries[j - 1], scheme.variances[j - 2], scheme.ranges[j - 2].size]
        for j in range(2, scheme.ell + 1)
    ]
    write_csv(path, ["j", "T_j", "P_j", "range_prime_count"], rows)
