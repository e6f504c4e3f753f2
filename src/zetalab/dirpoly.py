"""Sparse Dirichlet polynomials and truncated-exponential increment factors.

Coefficients are kept in a dict keyed by n (arbitrary-precision ints, since
increment supports reach n ~ p^80).  The increment factor over a prime range
carries the weight alpha^Omega(n) * prod 1/(m_i!) below an Omega cutoff;
term-by-term this is identical to the degree-capped Taylor series of
exp(alpha * sum_p p^-s), which exp_identity_gap verifies.  The interpolation
bound uses that identity as its fast path: one prime sum P_j(1/2 + it) per
range, and truncated_exp of alpha P_j at degree floor(cutoff * P_j) for each
twist.  The Taylor sum stops once the remaining terms are below rounding, so
a cap far above |alpha P_j| costs nothing.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .csvio import write_csv
from .errors import CapacityError, DomainError
from .primes import IncrementScheme, prime_sum_at

DEFAULT_TERM_CAP = 10_000_000


@dataclass(frozen=True, eq=False)
class DirichletPoly:
    """Finite sum a_n n^{-s} stored sparsely; no explicit zero entries."""

    coeffs: dict[int, complex]
    length_bound: int

    def __post_init__(self) -> None:
        for n, a in self.coeffs.items():
            if n < 1:
                raise DomainError(f"coefficient index {n} < 1")
            if n > self.length_bound:
                raise DomainError(f"index {n} exceeds length bound {self.length_bound}")
            if a == 0:
                raise DomainError(f"explicit zero coefficient at n = {n}")

    @staticmethod
    def one() -> "DirichletPoly":
        return DirichletPoly({1: 1.0 + 0.0j}, 1)

    @staticmethod
    def from_coeffs(coeffs: dict[int, complex]) -> "DirichletPoly":
        clean = {int(n): complex(a) for n, a in coeffs.items() if a != 0}
        return DirichletPoly(clean, max(clean) if clean else 1)

    def support(self) -> list[int]:
        return sorted(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True)
class MultiplicativeSpec:
    """Parameters of one increment factor: twist alpha and the Omega cutoff
    multiplier applied to the range variance."""

    alpha: complex
    j: int
    omega_cutoff: float = 500.0

    def __post_init__(self) -> None:
        if not self.omega_cutoff > 0.0:
            raise DomainError(f"omega cutoff must be positive, got {self.omega_cutoff}")


def factorize(n: int) -> dict[int, int]:
    if n < 1:
        raise DomainError(f"factorize needs n >= 1, got {n}")
    out: dict[int, int] = {}
    m = n
    for p in (2, 3):
        while m % p == 0:
            m //= p
            out[p] = out.get(p, 0) + 1
    f = 5
    while f * f <= m:
        for p in (f, f + 2):
            while m % p == 0:
                m //= p
                out[p] = out.get(p, 0) + 1
        f += 6
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def big_omega(n: int) -> int:
    """Number of prime factors of n with multiplicity."""
    return sum(factorize(n).values())


def _enumerate_coeffs(primes: list[int], alpha: complex, max_omega: int) -> dict[int, complex]:
    """All n supported on `primes` with Omega(n) <= max_omega, keyed to
    alpha^Omega(n) * prod 1/(m_i!).  Depth-first over the prime list."""
    coeffs: dict[int, complex] = {1: 1.0 + 0.0j}
    if alpha == 0 or not primes or max_omega < 1:
        return coeffs

    def descend(idx: int, n: int, weight: complex, budget: int) -> None:
        if len(coeffs) > DEFAULT_TERM_CAP:
            raise CapacityError(
                f"increment polynomial exceeds {DEFAULT_TERM_CAP} terms "
                f"(prime range of {len(primes)})"
            )
        for i in range(idx, len(primes)):
            p = primes[i]
            nn = n
            w = weight
            for m in range(1, budget + 1):
                nn *= p
                w = w * alpha / m
                coeffs[nn] = w
                if budget - m >= 1:
                    descend(i + 1, nn, w, budget - m)

    descend(0, 1, 1.0 + 0.0j, max_omega)
    return coeffs


def build_increment_poly(scheme: IncrementScheme, spec: MultiplicativeSpec) -> DirichletPoly:
    """Increment factor for range j: coefficients alpha^Omega(n) g(n) for the
    n supported on the range primes with Omega(n) <= omega_cutoff * P_j.

    An empty range yields the constant polynomial 1.
    """
    ps = [int(p) for p in scheme.prime_range(spec.j)]
    pj = scheme.variance(spec.j)
    max_omega = int(math.floor(spec.omega_cutoff * pj))
    # Predicted count: multisets of size <= max_omega from len(ps) primes.
    predicted = math.comb(len(ps) + max_omega, max_omega)
    if predicted > DEFAULT_TERM_CAP:
        raise CapacityError(
            f"increment j={spec.j}: ~{predicted} terms exceed cap {DEFAULT_TERM_CAP}"
        )
    coeffs = _enumerate_coeffs(ps, complex(spec.alpha), max_omega)
    return DirichletPoly.from_coeffs(coeffs)


def poly_eval(poly: DirichletPoly, t: float) -> complex:
    """Sum of a_n n^{-1/2-it} in ascending n with compensated accumulation."""
    res = []
    ims = []
    for n in sorted(poly.coeffs):
        a = poly.coeffs[n]
        ln = math.log(n)
        val = a * math.exp(-0.5 * ln) * complex(math.cos(t * ln), -math.sin(t * ln))
        res.append(val.real)
        ims.append(val.imag)
    return complex(math.fsum(res), math.fsum(ims))


def poly_eval_grid(poly: DirichletPoly, t: np.ndarray) -> np.ndarray:
    """Vector evaluation of a_n n^{-1/2-it} over a t grid (ascending n)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape, dtype=complex)
    for n in sorted(poly.coeffs):
        a = poly.coeffs[n]
        ln = math.log(n)
        out += (a * math.exp(-0.5 * ln)) * np.exp(-1j * ln * t)
    return out


def poly_product(factors: list[DirichletPoly]) -> DirichletPoly:
    """Dirichlet convolution of the factors; length bounds multiply."""
    acc: dict[int, complex] = {1: 1.0 + 0.0j}
    bound = 1
    for fac in factors:
        if len(acc) * len(fac) > DEFAULT_TERM_CAP:
            raise CapacityError(
                f"product would touch {len(acc) * len(fac)} > {DEFAULT_TERM_CAP} coefficient pairs"
            )
        nxt: dict[int, complex] = {}
        for n1, a1 in acc.items():
            for n2, a2 in fac.coeffs.items():
                key = n1 * n2
                nxt[key] = nxt.get(key, 0.0 + 0.0j) + a1 * a2
        acc = {n: a for n, a in nxt.items() if a != 0}
        bound *= fac.length_bound
    return DirichletPoly(acc, bound)


def truncated_exp(w, depth: int):
    """Degree-`depth` Taylor polynomial of exp at w, a scalar or an array.

    The terms w^m / m! are added in place and the sum stops at its rounding
    floor: with r = max |w| and m + 1 >= 2r, the terms after the m-th add up
    to at most (2r / (m + 1)) r^m / m! (a geometric tail of ratio <= 1/2),
    and once that is below (eps / 4) e^{-r} <= (eps / 4) |exp w| the rest is
    below rounding.  A small depth ends the sum first, and then every term
    is added.
    """
    arr = np.asarray(w, dtype=complex)
    r = float(np.max(np.abs(arr), initial=0.0))
    floor = 0.25 * np.finfo(float).eps * math.exp(-r)
    out = np.ones(arr.shape, dtype=complex)
    term = np.ones(arr.shape, dtype=complex)
    size = 1.0  # r^m / m!, the largest |term|
    for m in range(1, depth + 1):
        term *= arr
        term /= m
        out += term
        size *= r / m
        if m + 1 >= 2.0 * r and 2.0 * r / (m + 1) * size <= floor:
            break
    return out if np.ndim(w) else complex(out)


def exp_identity_gap(
    scheme: IncrementScheme,
    j: int,
    alpha: complex,
    t: float,
    taylor_depth: int,
) -> float:
    """|increment polynomial - truncated exp of the prime sum| at 1/2 + it.

    Both sides are truncated at the same depth (Omega cutoff on the left,
    Taylor degree on the right), so the gap is pure roundoff; a mismatch
    signals a coefficient bug.
    """
    ps = [int(p) for p in scheme.prime_range(j)]
    coeffs = _enumerate_coeffs(ps, complex(alpha), taylor_depth)
    poly = DirichletPoly.from_coeffs(coeffs)
    lhs = poly_eval(poly, t)
    rhs = truncated_exp(alpha * prime_sum_at(scheme, j, complex(0.5, t)), taylor_depth)
    return float(abs(lhs - rhs))


def product_length_fraction(log2_bigT: float) -> float:
    """Exponent-domain length of the full increment product, as a fraction of
    log T, for the canonical threshold 1e4 and Omega cutoff multiplier 500.

    Computed from iterated logs only (log T itself cancels), so the canonical
    parameters can be checked even though such T overflow floats.  The value
    must stay below 0.1 for the product length to remain under T^(1/10).
    """
    threshold, c_omega = 1.0e4, 500.0
    if log2_bigT < threshold:
        raise DomainError("need log_2 T >= threshold so that at least range 2 exists")
    xs = [log2_bigT]
    while xs[-1] > 0.0 and math.log(xs[-1]) >= threshold:
        xs.append(math.log(xs[-1]))
    # xs[i] = log_{i+2} T for the ranges j = 2 .. ell; one more level for the
    # Mertens difference at j = ell.
    xs.append(math.log(xs[-1]))
    total = 0.0
    for i in range(len(xs) - 1):
        xj, xj1 = xs[i], xs[i + 1]
        pj = (xj - 2.0 * xj1 - math.log(2.0)) if i == 0 else 2.0 * (xj - xj1)
        total += c_omega * max(pj, 0.0) / xj**2
    return total


def write_poly_csv(poly: DirichletPoly, path) -> None:
    """Columns: n, re(a_n), im(a_n)."""
    rows = [[n, poly.coeffs[n].real, poly.coeffs[n].imag] for n in sorted(poly.coeffs)]
    write_csv(path, ["n", "re_a", "im_a"], rows)


def read_poly_csv(path) -> DirichletPoly:
    coeffs: dict[int, complex] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:1] != ["n"]:
            raise DomainError(f"unexpected polynomial CSV header {header}")
        for row in reader:
            coeffs[int(row[0])] = complex(float(row[1]), float(row[2]))
    return DirichletPoly.from_coeffs(coeffs)
