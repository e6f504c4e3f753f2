"""Pointwise interpolation bound between joint-moment integrands, plus a
numeric Hoelder check for moment triples.

The bound dominates |zeta|^(2k-2) |zeta'|^2 by second- and fourth-moment
integrands twisted with increment factors, with per-increment penalty
weights |P_v(s) / (c_p P_v)|^(2 ceil(c_p P_v)).  Both the printed form of
the penalty sum (full product in the second summand) and the partial-product
variant are implemented; the inequality must hold pointwise in either case,
so a failure is an implementation bug, never data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .critline import GridData, eval_grid
from .csvio import write_csv
from .dirpoly import truncated_exp
from .errors import ConfigError, DomainError
from .moments import MomentEstimate
from .primes import IncrementScheme, prime_sum_at

VARIANTS = ("full_product", "partial_product")

# Exact rational ceil is affordable up to this many primes per range.
_EXACT_CEIL_MAX_PRIMES = 10_000

# Largest height set the memo of `_height_work` keeps: at 2^16 heights its
# heights, grid and the prime sums of a few ranges take about 5 MB.  A
# larger call leaves the memo as it was, so it is never held after return.
_MEMO_MAX_HEIGHTS = 1 << 16

# One entry, (key, grid or None, scheme, prime sums), or None: the work of
# the last height set that depends on the heights and the scheme alone.
# The entry is replaced as one tuple and read once per call, so concurrent
# callers each see a whole entry.
_memo: tuple | None = None


@dataclass(frozen=True)
class InterpolationConfig:
    k: float
    scheme: IncrementScheme
    c_omega: float = 500.0
    c_p: float = 50.0
    variant: str = "full_product"

    def __post_init__(self) -> None:
        if not 1.0 <= self.k <= 2.0:
            raise DomainError(f"k must lie in [1, 2], got {self.k}")
        if not (self.c_omega > 0.0 and self.c_p > 0.0):
            raise DomainError("cutoff constants must be positive")
        if self.variant not in VARIANTS:
            raise DomainError(f"variant must be one of {VARIANTS}, got {self.variant!r}")


def penalty_exponent(cfg: InterpolationConfig, v: int) -> int:
    """ceil(c_p * P_v) in exact integer arithmetic.

    P_v is re-accumulated as an exact rational when the range is small
    enough; otherwise the float value is nudged up before the ceiling.
    """
    chunk = cfg.scheme.prime_range(v)
    if chunk.size <= _EXACT_CEIL_MAX_PRIMES:
        pv = sum(Fraction(1, int(p)) for p in chunk)
        return math.ceil(Fraction(cfg.c_p) * pv)
    return math.ceil(cfg.c_p * cfg.scheme.variance(v) * (1.0 + 1.0e-12))


def _read_only(*arrays: np.ndarray) -> None:
    for arr in arrays:
        arr.flags.writeable = False


def _height_work(
    t: np.ndarray | GridData, scheme: IncrementScheme
) -> tuple[GridData, tuple[np.ndarray, ...]]:
    """The grid of ascending heights t (given as heights or as their
    `eval_grid` samples) and the prime sums P_v(1/2 + it), v = 2..ell.

    Both come from the memo when its heights have the bytes of t and, for
    the prime sums, its scheme is this scheme object; what is computed
    replaces the entry.  A given grid is used as it is and never stored:
    from a grid, the memo keeps the prime sums and its own copy of the
    heights.  Arrays the memo hands out are read-only.
    """
    global _memo
    given = t if isinstance(t, GridData) else None
    heights = given.t if given is not None else np.asarray(t, dtype=float)
    key = (heights.shape, heights.tobytes())
    entry = _memo
    if entry is None or entry[0] != key:
        entry = (key, None, None, ())
    key, grid, cached_scheme, psums = entry
    if grid is None and given is None:
        # Samples of a read-only view of the key: a later change to the
        # caller's array cannot reach them.
        grid = eval_grid(np.frombuffer(key[1]).reshape(key[0]))
        _read_only(grid.Z, grid.Z_prime, grid.theta, grid.theta_prime)
    if cached_scheme is not scheme:
        psums = tuple(prime_sum_at(scheme, v, 0.5 + 1j * heights) for v in range(2, scheme.ell + 1))
        _read_only(*psums)
    if heights.size <= _MEMO_MAX_HEIGHTS:
        _memo = (key, grid, scheme, psums)
    return (given if given is not None else grid), psums


@dataclass(frozen=True)
class InterpolationReport:
    t: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    margin: np.ndarray
    passed: np.ndarray
    k: float
    target: str
    variant: str

    @property
    def failures(self) -> np.ndarray:
        return self.t[~self.passed]

    @property
    def min_margin(self) -> float:
        return float(np.min(self.margin)) if self.margin.size else math.inf

    @property
    def all_passed(self) -> bool:
        return bool(np.all(self.passed))


def check_interpolation(
    grid: np.ndarray | GridData, cfg: InterpolationConfig, target: str = "zeta"
) -> InterpolationReport:
    """Pointwise pass/fail over heights (sorted here) or an `eval_grid`
    result; failures are data, not exceptions.  The report's lhs and rhs are
    the two sides of the bound at each height.

    The grid and the prime sums depend only on the heights and the scheme,
    so a one-entry memo (`_height_work`) keeps those of the last height set
    of at most _MEMO_MAX_HEIGHTS heights: a call whose sorted heights have
    the same bytes and whose scheme is the same object reuses them, and any
    other call replaces them.  Checking several configurations on one height
    set thus evaluates the grid and the prime sums once, and their reports
    share the memo's read-only t.  A `GridData` is used as given (the
    explicit way to share one grid among configurations, at any size) and
    takes only the prime sums; the report then carries its t.
    """
    if not isinstance(grid, GridData):
        grid = np.sort(np.asarray(grid, dtype=float))
    grid, psums = _height_work(grid, cfg.scheme)
    lhs, rhs = _sides(grid, psums, cfg, target)
    margin = rhs - lhs
    return InterpolationReport(grid.t, lhs, rhs, margin, margin >= 0.0, cfg.k, target, cfg.variant)


def _sides(
    grid: GridData, psums: tuple[np.ndarray, ...], cfg: InterpolationConfig, target: str
) -> tuple[np.ndarray, np.ndarray]:
    """(lhs, rhs) of the bound on grid, in one pass over the ranges: each
    range's prime sum P_v(1/2 + it) gives its penalty weight and both
    increment factors |N_v(k - 2)|^2, |N_v(k - 1)|^2, which extend the
    running products; the prefix products before range v are kept for its
    penalty term.  A frame of its own frees these height-sized temporaries
    before the report's margin is made (inlined, `pointwise` peak RSS read
    0.4 MB higher)."""
    t = grid.t
    za = np.abs(grid.Z)
    dz2 = grid.dabs2(target)
    k = cfg.k
    lhs = za ** (2.0 * k - 2.0) * dz2

    scheme = cfg.scheme
    prod_m2 = prod_m1 = np.ones(t.shape)
    penalties = []  # (prefix k - 2, prefix k - 1, weight) per range with P_v > 0
    for v, psum in zip(range(2, scheme.ell + 1), psums):
        pv = scheme.variance(v)
        if pv != 0.0:
            m_v = penalty_exponent(cfg, v)
            apsum = np.abs(psum)
            # Penalty in log space: the exponent 2 ceil(c_p P_v) can be large.
            with np.errstate(divide="ignore"):
                logw = 2.0 * m_v * (np.log(apsum) - math.log(cfg.c_p * pv))
            penalties.append((prod_m2, prod_m1, np.where(apsum > 0.0, np.exp(logw), 0.0)))
        depth = math.floor(cfg.c_omega * pv)
        prod_m2 = prod_m2 * np.abs(truncated_exp((k - 2.0) * psum, depth)) ** 2
        prod_m1 = prod_m1 * np.abs(truncated_exp((k - 1.0) * psum, depth)) ** 2

    fourth = 2.0 * k * za**2 * dz2
    second = (4.0 - 2.0 * k) * dz2
    rhs = fourth * prod_m2 + second * prod_m1
    for pre_m2, pre_m1, weight in penalties:
        twist_m1 = prod_m1 if cfg.variant == "full_product" else pre_m1
        rhs = rhs + (fourth * pre_m2 + second * twist_m1) * weight
    return lhs, rhs


def interpolation_sides(
    t: float, cfg: InterpolationConfig, target: str = "zeta"
) -> tuple[float, float]:
    """Pointwise (lhs, rhs) of the interpolation bound at a single height."""
    rep = check_interpolation(np.array([t]), cfg, target)
    return float(rep.lhs[0]), float(rep.rhs[0])


def write_interpolation_csv(report: InterpolationReport, path) -> None:
    """Columns: t, k, lhs, rhs, margin, pass."""
    rows = [
        [t, report.k, lhs, rhs, margin, int(passed)]
        for t, lhs, rhs, margin, passed in zip(
            report.t.tolist(), report.lhs.tolist(), report.rhs.tolist(),
            report.margin.tolist(), report.passed.tolist(),
        )
    ]
    write_csv(path, ["t", "k", "lhs", "rhs", "margin", "pass"], rows)


@dataclass(frozen=True)
class HolderReport:
    h: float
    value: float
    bound: float
    tol: float
    slack: float
    holds: bool


def verify_holder(
    m_k0: MomentEstimate,
    m_k1: MomentEstimate,
    m_kh: MomentEstimate,
    h: float,
) -> HolderReport:
    """Check value(k,h) <= value(k,1)^h * value(k,0)^(1-h) * (1 + tol).

    tol propagates the three quadrature error estimates (3x the largest).
    The estimates must share T, k, target, and mesh.
    """
    if not 0.0 <= h <= 1.0:
        raise ConfigError(f"h must lie in [0, 1], got {h}")
    reqs = (m_k0.request, m_k1.request, m_kh.request)
    if len({r.T for r in reqs}) != 1 or len({r.k for r in reqs}) != 1:
        raise ConfigError("moment estimates must share T and k")
    if len({r.target for r in reqs}) != 1:
        raise ConfigError("moment estimates must share the target")
    if len({est.mesh for est in (m_k0, m_k1, m_kh)}) != 1:
        raise ConfigError("moment estimates must share the mesh")
    if (m_k0.request.h, m_k1.request.h, m_kh.request.h) != (0.0, 1.0, h):
        raise ConfigError("estimates must carry h = 0, 1, and the tested h")
    tol = 3.0 * max(m_k0.est_rel_error, m_k1.est_rel_error, m_kh.est_rel_error)
    bound = m_k1.value**h * m_k0.value ** (1.0 - h) * (1.0 + tol)
    slack = bound / m_kh.value - 1.0 if m_kh.value > 0.0 else math.inf
    return HolderReport(h, m_kh.value, bound, tol, slack, m_kh.value <= bound)
