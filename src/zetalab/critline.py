"""Critical-line evaluation: theta, Hardy Z, and an Euler-Maclaurin oracle.

Two independent routes are maintained on purpose.  The fast path is the
Riemann-Siegel main sum with four correction terms built from the
cosine-ratio function Psi; the oracle path is Euler-Maclaurin summation of
zeta and a Stirling evaluation of the Gamma phase, valid down to t = 0.
Every production quantity can therefore be cross-checked against an
implementation that shares no code with it.
"""

from __future__ import annotations

import math
import queue
import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .primes import _BLOCK_BUDGET, smallest_prime_factors

TWO_PI = 2.0 * math.pi
LOG_PI = math.log(math.pi)

# Integrand targets, each mapped to whether its derivative square carries
# the phase term: |zeta'|^2 = Z'^2 + theta'^2 Z^2 on the line, while the
# Hardy-Z target keeps Z'^2 alone.
TARGETS = {"zeta": True, "hardyZ": False}


def _phase_term(target: str) -> bool:
    """TARGETS[target]; DomainError for any other target."""
    if target not in TARGETS:
        raise DomainError(f"target must be one of {tuple(TARGETS)}, got {target!r}")
    return TARGETS[target]


RS_MIN_T = 50.0
ORACLE_MIN_T = 10.0
MAX_HEIGHT = 1.0e7
EM_MAX_IM = 1.0e5

# Empirical cap on the Riemann-Siegel remainder after the four correction
# terms, multiplying (t/2pi)^{-11/4}; calibrated against the Euler-Maclaurin
# path on [50, 2000] with >2x headroom.  The cap is inflated by the slow
# convergence near integer sqrt(t/2pi), where the length of the main sum
# jumps.
RS_ERR_COEF = 8.5e-3

# Roundoff floor of the Riemann-Siegel value in units of eps t log t, the size
# of the float64 phases theta(t) - t log n.  Against mpmath.siegelz at 1000
# heights in [60, 9.9e6] the error above the remainder cap reached 5.5 units.
RS_ROUNDOFF_COEF = 20.0

# Bernoulli terms M of the Euler-Maclaurin tail; the cutoff N follows s.
EM_BERNOULLI_TERMS = 30

# Roundoff of the Euler-Maclaurin value in units of eps (|Im s| log N
# N^{max(0, 1/2 - sigma)} + |N^{1-s} / (s - 1)| + |zeta|): the float64 phases
# Im(s) log n of the power sum, and its cancellation against the integral
# term.  Against mpmath.zeta at 1200 heights on the line in [10, 1e5] and 900
# points off it (sigma in [-6, 3], near the pole, on the real axis) the error
# reached 2.5 units.
EM_ROUNDOFF_COEF = 8.0

# Lanes of the oracle's power-sum reduction (see `_lane_sum`).
_EM_LANES = 16


# ---------------------------------------------------------------------------
# Bernoulli numbers (exact recurrence, cached as floats)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _bernoulli(n_max: int) -> tuple[float, ...]:
    """B_0..B_{n_max} as floats, B_1 = -1/2 convention."""
    bs: list[Fraction] = [Fraction(1)]
    for m in range(1, n_max + 1):
        acc = Fraction(0)
        comb = 1
        for j in range(m):
            comb = math.comb(m + 1, j)
            acc += comb * bs[j]
        bs.append(-acc / (m + 1))
    return tuple(float(b) for b in bs)


# ---------------------------------------------------------------------------
# Sample container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriticalPointSample:
    """All integrand ingredients at one height t."""

    t: float
    theta: float
    theta_prime: float
    Z: float
    Z_prime: float
    zeta: complex
    zeta_prime: complex
    est_abs_error: float


# ---------------------------------------------------------------------------
# Theta: asymptotic expansion (fast) and Gamma-phase Stirling (oracle)
# ---------------------------------------------------------------------------

# Coefficients of the 1/t expansion of theta beyond the elementary part.
_THETA_TAIL = ((1.0 / 48.0, 1), (7.0 / 5760.0, 3), (31.0 / 80640.0, 5), (127.0 / 430080.0, 7))


def theta_pair(t: float) -> tuple[float, float]:
    """theta(t) and theta'(t) from the standard asymptotic expansion.

    Valid for t >= 10 with absolute error below 1e-9 (the truncation after
    the t^-7 term is ~3e-12 at t = 10).
    """
    theta, theta_p = theta_pair_vec(np.array([t], dtype=float))
    return float(theta[0]), float(theta_p[0])


def theta_pair_vec(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if np.any(t < ORACLE_MIN_T):
        raise DomainError(f"theta expansion needs t >= {ORACLE_MIN_T:g} everywhere")
    half_log = 0.5 * np.log(t / TWO_PI)
    theta = t * half_log - t / 2.0 - math.pi / 8.0
    theta_p = half_log.copy()
    for coef, power in _THETA_TAIL:
        theta += coef / t**power
        theta_p -= coef * power / t ** (power + 1)
    return theta, theta_p


def _lgamma_vec(w: np.ndarray) -> np.ndarray:
    """Principal log Gamma for arrays with Re w > 0 (fixed shift + Stirling)."""
    w = np.asarray(w, dtype=complex)
    shift_count = 18
    acc = np.zeros_like(w)
    for i in range(shift_count):
        acc += np.log(w + i)
    ws = w + shift_count
    bern = _bernoulli(22)
    out = (ws - 0.5) * np.log(ws) - ws + 0.5 * math.log(TWO_PI)
    wp = ws.copy()
    for k in range(1, 11):
        out += bern[2 * k] / ((2 * k) * (2 * k - 1) * wp)
        wp = wp * ws * ws
    return out - acc


def _digamma_vec(w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=complex)
    shift_count = 18
    acc = np.zeros_like(w)
    for i in range(shift_count):
        acc += 1.0 / (w + i)
    ws = w + shift_count
    bern = _bernoulli(22)
    out = np.log(ws) - 0.5 / ws
    wp = ws * ws
    for k in range(1, 11):
        out -= bern[2 * k] / ((2 * k) * wp)
        wp *= ws * ws
    return out - acc


def theta_gamma(t):
    """Oracle theta via the Gamma phase; valid for all t >= 0, scalar or array."""
    return _lgamma_vec(0.25 + 0.5j * np.asarray(t, dtype=float)).imag - 0.5 * t * LOG_PI


def theta_gamma_prime(t):
    return 0.5 * _digamma_vec(0.25 + 0.5j * np.asarray(t, dtype=float)).real - 0.5 * LOG_PI


# ---------------------------------------------------------------------------
# Euler-Maclaurin zeta (oracle for every zeta appearance)
# ---------------------------------------------------------------------------


def _em_cutoffs(s: np.ndarray) -> np.ndarray:
    """Cutoff N of each argument, as an int64 array.

    N is picked so the Bernoulli tail ratio q = (|s| + 2M) / (2 pi N) is small
    enough that 2 N^{1-sigma} q^{2M} clears 1e-13; sigma below 1/2 needs a
    smaller q, handled by doubling.
    """
    reach = np.abs(s) + 2 * EM_BERNOULLI_TERMS
    n_cut = np.maximum(20.0, np.ceil(reach / math.pi))
    expo = np.maximum(1.0 - s.real, 0.5)
    for _ in range(12):
        q = reach / (TWO_PI * n_cut)
        short = 2.0 * n_cut**expo * q ** (2 * EM_BERNOULLI_TERMS) >= 1.0e-13
        if not short.any():
            break
        n_cut[short] *= 2.0
    return n_cut.astype(np.int64)


def _lane_sum(table: np.ndarray) -> np.ndarray:
    """Column sums of a (rows, cols) table, rows a multiple of _EM_LANES.

    Row r goes to lane r mod _EM_LANES; each lane adds its rows in order and
    the lanes are then added by a fixed halving tree.  numpy reduces the
    outer axis of a C-contiguous array row by row, so every step is sequential
    or elementwise: a column's sum depends only on that column, whatever the
    width of the table, and trailing zero rows leave it unchanged.
    """
    part = table.reshape(-1, _EM_LANES * table.shape[1]).sum(axis=0)
    part = part.reshape(_EM_LANES, -1)
    while part.shape[0] > 1:
        half = part.shape[0] // 2
        part = part[:half] + part[half:]
    return part[0]


def _em_power_sums(s: np.ndarray, n_cut: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sum_{n <= N} n^{-s} and its s-derivative -sum_{n <= N} log n n^{-s},
    with N = n_cut per argument.

    n^{-s} is completely multiplicative.  The arguments, sorted by N, are cut
    into blocks of at most _BLOCK_BUDGET table entries; a block fills an
    (n, argument) table in natural row order n = 0, 1, ..., max N, level by
    level over the dyadic ranges [2^k, 2^(k+1)), k >= 2, after the primes 2
    and 3: one complex exp per prime n and one complex multiply
    spf(n)^{-s} (n / spf(n))^{-s} per composite, whose two factors lie in
    earlier ranges.  The even n of a range are one strided slice, 2^{-s}
    times the rows of the range before; the odd n are gathered, a prime as
    1 times itself.  Entries with n > N are zeroed and the columns summed by
    `_lane_sum`, so each value is the same in any batch.
    """
    zeta = np.empty(s.shape, dtype=complex)
    dzeta = np.empty(s.shape, dtype=complex)
    if not s.size:
        return zeta, dzeta
    order = np.argsort(n_cut, kind="stable")
    n_sorted = n_cut[order]
    n_top = int(n_sorted[-1])
    spf = smallest_prime_factors(n_top)
    levels = []
    for k in range(2, n_top.bit_length()):
        odd = np.arange((1 << k) + 1, min(2 << k, n_top + 1), 2)
        f = np.where(spf[odd] == odd, 1, spf[odd])
        levels.append((1 << k, odd[f == 1], f, odd // f))

    def padded(n: int) -> int:  # rows 0..n rounded up to whole lanes
        return -(-(n + 1) // _EM_LANES) * _EM_LANES

    logs = np.log(np.maximum(np.arange(padded(n_top)), 1))
    entries = max(_BLOCK_BUDGET, padded(n_top))
    table_buf = np.empty(entries, dtype=complex)
    weighted_buf = np.empty(2 * entries)
    lo = 0
    while lo < s.size:
        # Widest block whose table, sized by its last (largest) N, fits the budget.
        widest = max(1, _BLOCK_BUDGET // padded(int(n_sorted[lo])))
        top = int(n_sorted[min(lo + widest, s.size) - 1])
        hi = min(lo + max(1, _BLOCK_BUDGET // padded(top)), s.size)
        idx, nb = order[lo:hi], n_sorted[lo:hi]
        sb = s[idx]
        lo = hi
        n_max = int(nb[-1])
        rows = padded(n_max)
        table = table_buf[: rows * idx.size].reshape(rows, idx.size)
        table[0] = 0.0
        table[1] = 1.0
        table[2:4] = np.exp(np.multiply.outer(-logs[2:4], sb))  # N >= 20 > 3
        table[n_max + 1 :] = 0.0
        for start, primes, f, g in levels:
            if start > n_max:
                break
            end = min(2 * start, n_max + 1)
            p = primes[primes < end]
            table[p] = np.exp(np.multiply.outer(-logs[p], sb))
            np.multiply(table[2], table[start // 2 : end // 2 + end % 2], out=table[start:end:2])
            odd = (end - start) // 2
            np.multiply(table[f[:odd]], table[g[:odd]], out=table[start + 1 : end : 2])
        n_min = int(nb[0])
        if n_min < n_max:
            table[n_min + 1 : n_max + 1] *= np.arange(n_min + 1, n_max + 1)[:, None] <= nb
        flat = table.view(float)
        weighted = weighted_buf[: flat.size].reshape(flat.shape)
        np.multiply(flat, logs[:rows, None], out=weighted)
        zeta[idx] = _lane_sum(flat).view(complex)
        dzeta[idx] = -_lane_sum(weighted).view(complex)
    return zeta, dzeta


def _zeta_em_core(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Euler-Maclaurin zeta and derivative for a 1-d array of s, each with its
    own cutoff N from `_em_cutoffs` and M = EM_BERNOULLI_TERMS.

    Returns (zeta, zeta', estimate).  The estimate bounds the error of zeta,
    not of zeta'.  It adds the first omitted Bernoulli term, scaled by the
    usual |s + 2M + 1| / (sigma + 2M + 1) factor, and the roundoff, in units
    of EM_ROUNDOFF_COEF eps: the float64 phases Im(s) log n of the power sum,
    and the cancellation of the power sum against N^{1-s} / (s - 1).
    """
    m_terms = EM_BERNOULLI_TERMS
    n_cut = _em_cutoffs(s)
    zeta, dzeta = _em_power_sums(s, n_cut)

    n_f = n_cut.astype(float)
    log_n = np.log(n_f)
    n_pow_1ms = np.exp((1.0 - s) * log_n)  # N^{1-s}
    n_pow_ms = n_pow_1ms / n_f  # N^{-s}
    sm1 = s - 1.0
    zeta += n_pow_1ms / sm1 - 0.5 * n_pow_ms
    dzeta += (-log_n * n_pow_1ms / sm1 - n_pow_1ms / sm1**2) + 0.5 * log_n * n_pow_ms

    # Correction terms B_{2k}/(2k)! * prod_{i=0}^{2k-2}(s+i) * N^{-s-2k+1},
    # with the rising-factorial product and its s-derivative carried by a
    # product-rule recursion (no divisions, so zeros of the product are safe).
    bern = _bernoulli(2 * m_terms + 4)
    inv_n2 = 1.0 / (n_f * n_f)
    prod = s.copy()
    dprod = np.ones_like(s)
    coef = bern[2] / 2.0
    scale = n_pow_ms / n_f
    zeta += coef * prod * scale
    dzeta += coef * (dprod - prod * log_n) * scale
    for k in range(1, m_terms + 1):
        coef *= (bern[2 * k + 2] / bern[2 * k]) / ((2 * k + 1) * (2 * k + 2))
        f1 = s + (2 * k - 1)
        f2 = s + 2 * k
        dprod = dprod * f1 * f2 + prod * (f1 + f2)
        prod = prod * f1 * f2
        scale = scale * inv_n2
        if k < m_terms:
            zeta += coef * prod * scale
            dzeta += coef * (dprod - prod * log_n) * scale
    omitted = np.abs(coef * prod * scale)
    est = omitted * np.abs(s + 2 * m_terms + 1) / np.maximum(
        s.real + 2 * m_terms + 1, 1.0
    )
    # The phase errors eps |Im s| log n fall on terms n^{-sigma}, up to
    # N^{1/2 - sigma} times their size on the line; the power sum and
    # N^{1-s} / (s - 1) cancel down to zeta.
    spread = n_f ** np.maximum(0.0, 0.5 - s.real)
    est += EM_ROUNDOFF_COEF * sys.float_info.epsilon * (
        np.abs(s.imag) * log_n * spread + np.abs(n_pow_1ms / sm1) + np.abs(zeta)
    )
    return zeta, dzeta, est


_REFLECT_BELOW = -0.5
_LOG_2PI = math.log(TWO_PI)


def _log_sin(x: np.ndarray) -> np.ndarray:
    """log sin x, stable for large |Im x| (branch irrelevant to callers that
    exponentiate the result)."""
    x = np.asarray(x, dtype=complex)
    out = np.empty_like(x)
    mid = np.abs(x.imag) <= 20.0
    out[mid] = np.log(np.sin(x[mid]))
    up = x.imag > 20.0
    out[up] = -1j * x[up] + np.log(np.exp(2j * x[up]) - 1.0) - np.log(2j)
    dn = x.imag < -20.0
    out[dn] = 1j * x[dn] + np.log(1.0 - np.exp(-2j * x[dn])) - np.log(2j)
    return out


def _cot(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    out = np.empty_like(x)
    mid = np.abs(x.imag) <= 20.0
    out[mid] = np.cos(x[mid]) / np.sin(x[mid])
    up = x.imag > 20.0
    e2 = np.exp(2j * x[up])
    out[up] = 1j * (e2 + 1.0) / (e2 - 1.0)
    dn = x.imag < -20.0
    e2 = np.exp(-2j * x[dn])
    out[dn] = 1j * (1.0 + e2) / (1.0 - e2)
    return out


def zeta_em_vec(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vector zeta, zeta' and the error estimate of zeta (not of zeta'),
    with functional-equation reflection for Re s < -1/2.

    Direct Euler-Maclaurin summation loses accuracy to cancellation as the
    real part drops, so the strip Re s < -1/2 is routed through
    zeta(s) = chi(s) zeta(1-s).  Each argument takes its own cutoff, so a
    value does not depend on the rest of the batch.  Raises DomainError
    outside the oracle regime |Im s| <= EM_MAX_IM.
    """
    s = np.asarray(s, dtype=complex)
    flat = s.ravel()
    if np.any(np.abs(flat.imag) > EM_MAX_IM):
        raise DomainError(f"Euler-Maclaurin oracle regime is |Im s| <= {EM_MAX_IM:g}")
    reflect = flat.real < _REFLECT_BELOW
    zeta, dzeta, est = _zeta_em_core(np.where(reflect, 1.0 - flat, flat))
    if np.any(reflect):
        sr = flat[reflect]
        w = 1.0 - sr
        zw, dzw, ew = zeta[reflect], dzeta[reflect], est[reflect]
        x = 0.5 * math.pi * sr
        # chi assembled in log space: sin and Gamma overflow separately for
        # large |Im s| while their product stays moderate.
        log_chi = sr * math.log(2.0) + (sr - 1.0) * math.log(math.pi)
        log_chi = log_chi + _log_sin(x) + _lgamma_vec(w)
        chi = np.exp(log_chi)
        dchi = chi * (_LOG_2PI + 0.5 * math.pi * _cot(x) - _digamma_vec(w))
        zeta[reflect] = chi * zw
        dzeta[reflect] = dchi * zw - chi * dzw
        est[reflect] = (np.abs(chi) + np.abs(dchi)) * ew + 1.0e-15 * np.abs(chi * zw)
    return zeta.reshape(s.shape), dzeta.reshape(s.shape), est.reshape(s.shape)


def zeta_em(s: complex) -> tuple[complex, complex]:
    """Euler-Maclaurin zeta(s) and zeta'(s); oracle regime |Im s| <= 1e5."""
    s = complex(s)
    if abs(s - 1.0) < 1.0e-12:
        raise DomainError("zeta has a pole at s = 1")
    z, dz, _ = zeta_em_vec(np.array([s]))
    return complex(z[0]), complex(dz[0])


def zeta_em_line(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """The oracle on s = 1/2 + i t: (zeta, zeta', largest estimate of zeta)."""
    zeta, dzeta, est = zeta_em_vec(0.5 + 1.0j * np.asarray(t, dtype=float))
    return zeta, dzeta, float(np.max(est, initial=0.0))


# ---------------------------------------------------------------------------
# Riemann-Siegel correction terms via the cosine-ratio function
# ---------------------------------------------------------------------------


def _psi_ratio(w: np.ndarray) -> np.ndarray:
    """cos(2 pi (w^2 - w - 1/16)) / cos(2 pi w); removable poles avoided by callers."""
    return np.cos(TWO_PI * (w * w - w - 0.0625)) / np.cos(TWO_PI * w)


def _psi_derivatives(p: float, orders: tuple[int, ...], radius: float = 0.47) -> dict[int, float]:
    """Derivatives of the cosine-ratio function at p by Cauchy circles.

    Nodes are offset half a step so none land on the real axis, keeping the
    denominator away from its removable zeros at p = 1/4, 3/4.
    """
    m = 256
    phi = TWO_PI * (np.arange(m) + 0.5) / m
    w = p + radius * np.exp(1j * phi)
    vals = _psi_ratio(w)
    out = {}
    for k in orders:
        coef = np.mean(vals * np.exp(-1j * k * phi))
        out[k] = float((math.factorial(k) / radius**k) * coef.real)
    return out


# Correction terms as combinations of derivatives of the cosine-ratio
# function (Haselgrove's normalization).
_PI2 = math.pi**2
_PI4 = math.pi**4
_PI6 = math.pi**6
_PI8 = math.pi**8
_C_RECIPES: tuple[tuple[tuple[float, int], ...], ...] = (
    ((1.0, 0),),
    ((-1.0 / (96.0 * _PI2), 3),),
    ((1.0 / (64.0 * _PI2), 2), (1.0 / (18432.0 * _PI4), 6)),
    (
        (-1.0 / (64.0 * _PI2), 1),
        (-1.0 / (3840.0 * _PI4), 5),
        (-1.0 / (5308416.0 * _PI6), 9),
    ),
    (
        (1.0 / (128.0 * _PI2), 0),
        (19.0 / (24576.0 * _PI4), 4),
        (11.0 / (5898240.0 * _PI6), 8),
        (1.0 / (2293235712.0 * _PI8), 12),
    ),
)

# Samples per correction model (Chebyshev points in y); the upper half of
# each interpolant's coefficients shows its noise floor.
_RS_MODEL_POINTS = 32


@lru_cache(maxsize=1)
def _rs_models() -> np.ndarray:
    """Chebyshev models of C_0..C_4 with their parity about p = 1/2 built in.

    The cosine ratio is even about p = 1/2, so C_k, a combination of its
    derivatives of the parity of k, is even (k even) or odd (k odd) in
    x = 2p - 1.  With y = 2x^2 - 1 the model is C_k = x^(k mod 2) g_k(y),
    and g_k is interpolated at Chebyshev points in y, that is on p in
    (1/2, 1).  Each series is cut after its last coefficient above 8 times
    its noise floor, the largest coefficient in the upper half of the
    interpolant; a longer series only carries noise, which differentiation
    amplifies (12-14 terms remain).  Returns the coefficients as one
    read-only (10, d) matrix: rows k = 0..4 hold g_k, rows 5 + k hold
    dg_k/dy, zero-padded to the longest series.
    """
    cheb = np.polynomial.chebyshev
    orders = tuple(sorted({o for recipe in _C_RECIPES for _, o in recipe}))
    y = cheb.chebpts1(_RS_MODEL_POINTS)
    x = np.sqrt(0.5 * (1.0 + y))
    derivs = [_psi_derivatives(float(p), orders) for p in 0.5 * (1.0 + x)]
    terms = len(_C_RECIPES)
    models = np.zeros((2 * terms, _RS_MODEL_POINTS))
    for kk, recipe in enumerate(_C_RECIPES):
        samples = np.array([sum(coef * d[order] for coef, order in recipe) for d in derivs])
        coefs = cheb.chebfit(y, samples / x ** (kk % 2), _RS_MODEL_POINTS - 1)
        floor = np.max(np.abs(coefs[_RS_MODEL_POINTS // 2 :]))
        coefs = coefs[: np.flatnonzero(np.abs(coefs) > 8.0 * floor)[-1] + 1]
        models[kk, : coefs.size] = coefs
        models[terms + kk, : coefs.size - 1] = cheb.chebder(coefs)
    models = models[:, : np.flatnonzero(models.any(axis=0))[-1] + 1]
    models.flags.writeable = False
    return models


def _chebyshev_basis(y: np.ndarray, size: int, work: _Workspace | None = None) -> np.ndarray:
    """T_0(y), ..., T_{size-1}(y) as the rows of one array, by the
    three-term recurrence T_{j+1} = 2y T_j - T_{j-1}; the array is work's
    "scratch" buffer when work is given."""
    basis = np.empty((size, y.size)) if work is None else work.take("scratch", (size, y.size))
    basis[0] = 1.0
    basis[1] = y
    y2 = 2.0 * y
    for j in range(2, size):
        np.multiply(y2, basis[j - 1], out=basis[j])
        basis[j] -= basis[j - 2]
    return basis


def _rs_corrections(p: np.ndarray, work: _Workspace | None = None) -> tuple[np.ndarray, np.ndarray]:
    """C_k(p) and their p-derivatives, k = 0..4, as two (5, len(p)) arrays.

    One Chebyshev basis serves all ten series: the values of g_k and
    dg_k/dy are one matrix product.
    """
    models = _rs_models()
    x = 2.0 * p - 1.0
    y = 2.0 * x * x - 1.0
    values = models @ _chebyshev_basis(y, models.shape[1], work)
    half = values.shape[0] // 2
    g, dg = values[:half], values[half:]
    dg *= 8.0 * x  # dy/dp = 8x
    odd = slice(1, None, 2)  # C_k = x g_k(y) for odd k
    dg[odd] *= x
    dg[odd] += 2.0 * g[odd]
    g[odd] *= x
    return g, dg


def rs_error_estimate(t: float) -> float:
    """Calibrated absolute-error cap for the Riemann-Siegel value of Z."""
    roundoff = RS_ROUNDOFF_COEF * sys.float_info.epsilon * t * math.log(t)
    return RS_ERR_COEF * (t / TWO_PI) ** (-11.0 / 4.0) + roundoff


# ---------------------------------------------------------------------------
# Hardy Z: one route for grids and points
# ---------------------------------------------------------------------------


# Heights per eval_grid piece: the (14, piece) Chebyshev basis of the
# correction terms stays under 1 MB.  Pieces are cut at fixed offsets of the
# grid, so the result does not depend on how many threads share them.
_GRID_PIECE = 1 << 13

# The main sum on uniform grids from a Nyquist lattice (`_lattice_sum`):
# first main-sum length N, oversampling lambda of the lattice against the
# Nyquist step pi / sigma, and nodes M on each side of a height.  The filter
# error is about exp(-(pi - pi / lambda) M / 2), 1e-13 of the sum's size.
_LATTICE_MIN_N = 43
_LATTICE_OVERSAMPLING = 2.0
_LATTICE_HALF_WIDTH = 38
# Largest lattice stride m, in grid steps: a full piece spans the 2 M m
# heights of the filter, and the m filters stay under 70 kB.
_LATTICE_MAX_STRIDE = _GRID_PIECE // (2 * _LATTICE_HALF_WIDTH)


class _Workspace:
    """Buffers for the budget-sized temporaries of a piece, reused from one
    piece to the next, a few MB in all.  The `_main_sum` table, the
    `_lattice_sum` window block and the Chebyshev basis of `_rs_corrections`
    are never live at once and share the "scratch" buffer, so each fills
    memory its predecessor left in cache, as malloc's reuse of a freed
    block did; in buffers of their own the (1, 0) moment at T = 1e4 ran
    about 15 % slower.  The window block's product with the filters has the
    "product" buffer.

    Freed after every piece, these buffers went back to the system and were
    faulted in again by the next one (glibc trims the top of its heap and
    unmaps large blocks): streamed, the 660 060 points of the (1, 0) moment
    at T = 1e5 took 108k minor faults, against 5k with the buffers reused.
    A workspace belongs to one thread and lives as long as one piece loop:
    held between calls, it would add its size to the peak of every later
    run.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, key: str, shape: tuple[int, ...], dtype=float) -> np.ndarray:
        """A C-contiguous array of the given shape and dtype on the buffer
        named key, which grows to the largest size asked of it; its contents
        are undefined."""
        dtype = np.dtype(dtype)
        count = math.prod(shape)
        words = -(-count * dtype.itemsize // 8)
        buf = self._buffers.get(key)
        if buf is None or buf.size < words:
            buf = self._buffers[key] = np.empty(words)
        return buf[:words].view(dtype)[:count].reshape(shape)


@lru_cache(maxsize=1)
def _main_sum_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(spf, omega, order) for n <= floor(sqrt(MAX_HEIGHT / 2 pi)).

    spf[n] is the smallest prime factor of n, omega[n] the number of prime
    factors of n counted with multiplicity, and order lists 1, 2, 3, ... by
    (omega, n): 1, then the primes, then each composite after both spf(n)
    and n / spf(n), which have fewer prime factors.
    """
    n_top = math.isqrt(int(MAX_HEIGHT / TWO_PI))
    spf = smallest_prime_factors(n_top)
    omega = np.zeros(n_top + 1, dtype=np.int64)
    for n in range(2, n_top + 1):
        omega[n] = omega[n // spf[n]] + 1
    order = np.lexsort((np.arange(n_top + 1), omega))[1:]  # drop n = 0
    return spf, omega, order


# Largest number of main-sum lengths N whose block set-up is kept.  One
# set-up holds 40 N bytes of arrays (50 kB at the top N = 1261), so the
# cache stays under 3.3 MB; every N up to the top would take about 32 MB.
_MAIN_SUM_SETUPS = 64


@lru_cache(maxsize=_MAIN_SUM_SETUPS)
def _main_sum_setup(n_max: int) -> tuple[np.ndarray, tuple[int, ...], np.ndarray, np.ndarray, np.ndarray]:
    """Everything a main-sum block of length n_max needs but its heights.

    Returns (ns, level, phase, factors, weights): ns lists 1..n_max in the
    row order of `_main_sum_tables`, level[w] is the first row with omega w
    and level[-1] = ns.size, phase is -i log n on the prime rows, factors
    holds for each composite row the rows of spf(n) and of n / spf(n), and
    weights stacks 2 n^{-1/2} and 2 n^{-1/2} log n.
    """
    spf, omega, order = _main_sum_tables()
    ns = order[order <= n_max]
    pos = np.empty(n_max + 1, dtype=np.int64)
    pos[ns] = np.arange(ns.size)
    level = np.searchsorted(omega[ns], np.arange(omega[ns[-1]] + 2))
    log_n = np.log(ns.astype(float))
    comp = ns[level[2] :]
    f = spf[comp]
    phase = -1j * log_n[level[1] : level[2]]
    factors = np.stack([pos[f], pos[comp // f]])
    w = 2.0 / np.sqrt(ns)
    weights = np.stack([w, w * log_n])
    for arr in (ns, phase, factors, weights):  # shared by every block of this length
        arr.flags.writeable = False
    return ns, tuple(level.tolist()), phase, factors, weights


def _main_sum(t: np.ndarray, n_floor: np.ndarray, work: _Workspace) -> tuple[np.ndarray, np.ndarray]:
    """S = sum 2 n^{-1/2} n^{-it} and S' = sum 2 n^{-1/2} log n n^{-it} over
    1 <= n <= n_floor at each height t, as two complex arrays.

    Z = Re(e^{i theta} S) and Z' = Re(e^{i theta}(i theta' S - i S')).
    n^{-it} is completely multiplicative: a block of heights fills an
    (n, height) table with one complex exp per prime n and one complex
    multiply spf(n)^{-it} (n / spf(n))^{-it} per composite, zeroes the
    entries with n > n_floor, and takes S and S' as two weight vectors times
    the table.  The table rows follow (omega(n), n), so each omega level is
    one slice built from earlier rows.  The row layout depends only on the
    block's largest N and comes from `_main_sum_setup`.  Block boundaries
    depend only on t.  The table is work's "scratch" buffer.
    """
    s = np.empty(t.shape, dtype=complex)
    ds = np.empty_like(s)
    rows = max(1, _BLOCK_BUDGET // int(n_floor.max(initial=1)))
    for lo in range(0, t.size, rows):
        block = slice(lo, lo + rows)
        tb = t[block]
        nb = n_floor[block].astype(np.int64)
        ns, level, phase, factors, weights = _main_sum_setup(int(nb.max()))
        table = work.take("scratch", (ns.size, tb.size), complex)
        table[0] = 1.0
        np.exp(np.multiply.outer(phase, tb), out=table[level[1] : level[2]])
        for lo_k, hi_k in zip(level[2:-1], level[3:]):
            a, b = factors[:, lo_k - level[2] : hi_k - level[2]]
            np.multiply(table[a], table[b], out=table[lo_k:hi_k])
        n_min = int(nb.min())
        if n_min < ns.size:  # ns lists 1..n_max
            short = ns > n_min
            table[short] *= ns[short, None] <= nb
        s[block], ds[block] = (weights @ table.view(float)).view(complex)
    return s, ds


def _lattice_filters(m: int) -> np.ndarray:
    """The (2M, m) Gaussian-regularized sinc filters of `_lattice_sum`.

    Column r weights the lattice nodes k = 1 - M, ..., M (rows) for the
    height r / m of a lattice step past node 0: sinc(x) exp(-x^2 / 2 r0^2)
    with x = r / m - k and r0^2 = M / (pi - pi / lambda).  sin(pi x) is
    (-1)^k sin(pi r / m), and column 0 is the unit vector of node 0, so a
    height on a node takes that node's sample unchanged.
    """
    half = _LATTICE_HALF_WIDTH
    r0_sq = half / (math.pi - math.pi / _LATTICE_OVERSAMPLING)
    frac = np.arange(1, m) / m
    k = np.arange(1 - half, half + 1)[:, None]
    x = frac - k
    filters = np.zeros((2 * half, m))
    filters[half - 1, 0] = 1.0
    sign = 1.0 - 2.0 * (k % 2)
    filters[:, 1:] = sign * np.sin(math.pi * frac) / (math.pi * x) * np.exp(-x * x / (2.0 * r0_sq))
    return filters


def _lattice_sum(
    t0: float, step: float, lo: int, hi: int, n: int, m: int, work: _Workspace
) -> tuple[np.ndarray, np.ndarray]:
    """e^{i sigma t} S and e^{i sigma t} S' of length n at the grid heights
    t0 + j step, lo <= j < hi, with sigma = 1/2 log n.

    Both are band-limited to sigma, so they follow from direct samples
    (`_main_sum`) on the lattice t0 + q m step, whose step m step is at most
    pi / (lambda sigma): the samples that cover j in [lo, hi), padded by M
    nodes each side.  The height j = q0 m + r then takes the 2M nodes
    q0 - M + 1 .. q0 + M through filter column r of `_lattice_filters`, so
    every height is one row of a product of the sliding 2M-wide windows of
    samples with the m filters.  The windows are copied in chunks that keep
    each product's operands within the main-sum table budget, into work's
    "scratch" buffer, and multiplied into its "product" buffer.
    """
    half = _LATTICE_HALF_WIDTH
    sigma = 0.5 * math.log(n)
    q = np.arange(lo // m - half + 1, (hi - 1) // m + half + 1)
    tq = t0 + (q * m) * step
    s, ds = _main_sum(tq, np.full(tq.size, float(n)), work)
    shift = np.exp(1j * sigma * tq)
    # Columns Re F, Im F, Re G, Im G of F = e^{i sigma t} S, G = e^{i sigma t} S'.
    samples = np.stack([s * shift, ds * shift], axis=1).view(float)
    windows = np.lib.stride_tricks.sliding_window_view(samples, 2 * half, axis=0)
    filters = _lattice_filters(m)
    fine = np.empty((windows.shape[0], m, 4))
    chunk = _BLOCK_BUDGET // (2 * max(2 * half, m))
    for c in range(0, windows.shape[0], chunk):
        part = windows[c : c + chunk]
        block = work.take("scratch", part.shape)
        np.copyto(block, part)
        product = work.take("product", (block.size // (2 * half), m))
        np.matmul(block.reshape(-1, 2 * half), filters, out=product)
        fine[c : c + chunk] = product.reshape(-1, 4, m).transpose(0, 2, 1)
    first = (lo // m) * m
    f, g = fine.reshape(-1, 4)[lo - first : hi - first].view(complex).T
    return f, g


def _lattice_main_sum(
    t: np.ndarray,
    theta: np.ndarray,
    n_floor: np.ndarray,
    lattice: tuple[float, float, int],
    work: _Workspace,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The main sum of a piece of a uniform grid: lattice = (t0, step, offset)
    says that t[i] is the grid height t0 + (offset + i) step.

    Returns (s, ds, phase) with Z = Re(e^{i phase} s) and
    Z' = -Im(e^{i phase}(theta' s - ds)).  Each run of heights with one
    N >= _LATTICE_MIN_N takes F = e^{i sigma t} S and G = e^{i sigma t} S'
    (sigma = 1/2 log N, phase theta - sigma t) from `_lattice_sum` on the
    lattice of stride m = floor(pi / (lambda sigma step)) grid steps, if
    m >= 2 and the run spans the 2 M m heights of the filter.  The lattice
    depends only on t0, step and N, not on the piece, so neither do the
    values it gives.  The other heights take S and S' from `_main_sum`, with
    phase theta.
    """
    t0, step, offset = lattice
    s = np.empty(t.shape, dtype=complex)
    ds = np.empty_like(s)
    phase = theta.copy()
    direct = np.ones(t.shape, dtype=bool)
    edges = [0, *(np.flatnonzero(np.diff(n_floor)) + 1).tolist(), t.size]
    for lo, hi in zip(edges[:-1], edges[1:]):
        n = int(n_floor[lo])
        if n < _LATTICE_MIN_N:
            continue
        sigma = 0.5 * math.log(n)
        m = min(int(math.pi / (_LATTICE_OVERSAMPLING * sigma * step)), _LATTICE_MAX_STRIDE)
        if m < 2 or hi - lo < 2 * _LATTICE_HALF_WIDTH * m:
            continue
        s[lo:hi], ds[lo:hi] = _lattice_sum(t0, step, offset + lo, offset + hi, n, m, work)
        phase[lo:hi] -= sigma * t[lo:hi]
        direct[lo:hi] = False
    s[direct], ds[direct] = _main_sum(t[direct], n_floor[direct], work)
    return s, ds, phase


def _hardy_grid(
    t: np.ndarray,
    lattice: tuple[float, float, int] | None = None,
    work: _Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vector Riemann-Siegel evaluation of sorted heights, with the large
    temporaries in work (a fresh `_Workspace` when None).

    Returns (Z, Z', theta, theta').  The main-sum length N = floor(sqrt(t /
    2 pi)) is taken per height, not per block: the correction terms are
    functions of p = sqrt(t / 2 pi) - N, so the main sum must stop at the same
    N at every height, also where a block straddles t = 2 pi n^2.  The main
    sum takes one of two routes.

    - Direct (`_main_sum`): n^{-it} for a block of heights from one complex
      exp per prime n and one complex multiply per composite, then Z and Z'
      from Re(e^{i theta} S) and its derivative.  Scattered heights, single
      heights and every piece without a lattice take it.
    - Lattice (`_lattice_main_sum`), for a piece of a uniform grid: runs of
      heights with N >= _LATTICE_MIN_N take S and S' from a Nyquist lattice
      of direct samples, the rest of the piece the direct route.  The route
      starts at N = 43 although it is faster from about N = 12 (20 points per
      mean zero gap): started at N = 20, it moved Z' on a uniform grid near
      t = 1e4 by up to 1.6e-11 from its value at the height alone, beyond
      the 1e-12 that the per-term reference test allows.
    """
    t = np.asarray(t, dtype=float)
    if work is None:
        work = _Workspace()
    theta, theta_p = theta_pair_vec(t)
    a = np.sqrt(t / TWO_PI)
    n_floor = np.floor(a)
    if lattice is None:
        s, ds = _main_sum(t, n_floor, work)
        phase = theta
    else:
        s, ds, phase = _lattice_main_sum(t, theta, n_floor, lattice, work)
    rot = np.exp(1j * phase)
    z = (rot * s).real.copy()
    zp = -(rot * (theta_p * s - ds)).imag

    # Corrections (-1)^(N-1) tau^{-1/4} sum_k C_k(p) r^k with r = tau^{-1/2};
    # dp/dt = r / (4 pi) and dr/dt = -r^3 / (4 pi).  The rows, weighted in
    # place by r^k, sum to sum C_k r^k, sum C_k' r^k and sum k C_k r^k.
    p = a - n_floor
    r = 1.0 / a
    ck, ckp = _rs_corrections(p, work)
    k = np.arange(ck.shape[0])[:, None]
    rk = r**k
    ck *= rk
    ckp *= rk
    corr, corr_p, corr_k = ck.sum(axis=0), ckp.sum(axis=0), (k * ck).sum(axis=0)
    q = np.sqrt(r)  # tau^{-1/4}
    q[np.mod(n_floor, 2.0) == 0.0] *= -1.0  # (-1)^(N-1)
    z += q * corr
    zp += q * r * (corr_p - r * (corr_k + 0.5 * corr)) / (4.0 * math.pi)
    return z, zp, theta, theta_p


# ---------------------------------------------------------------------------
# Assembled samples and grids
# ---------------------------------------------------------------------------


def critical_sample(t: float) -> CriticalPointSample:
    """All critical-line quantities at height t.

    Fast path (50 <= t <= 1e7): Riemann-Siegel Z with zeta reconstructed
    through the exact rotation zeta = e^{-i theta} Z and
    zeta' = e^{-i theta}(-i Z' - theta' Z).
    Oracle path (10 <= t < 50): Euler-Maclaurin zeta with Z reconstructed the
    other way around.
    """
    if t > MAX_HEIGHT:
        raise DomainError(f"height capped at {MAX_HEIGHT:g} to keep the main sum desk-scale")
    if t >= RS_MIN_T:
        z, zp, theta, theta_p = (float(x[0]) for x in _hardy_grid(np.array([t])))
        rot = np.exp(-1j * theta)
        zeta = rot * z
        zeta_p = rot * (-1j * zp - theta_p * z)
        est = rs_error_estimate(t)
        return CriticalPointSample(t, theta, theta_p, z, zp, complex(zeta), complex(zeta_p), est)
    if t >= ORACLE_MIN_T:
        theta, theta_p = theta_pair(t)
        zetas, zeta_ps, est = zeta_em_line(np.array([t]))
        zeta, zeta_p = complex(zetas[0]), complex(zeta_ps[0])
        rot = np.exp(1j * theta)
        zc = rot * zeta
        z = zc.real
        zp = (1j * rot * (theta_p * zeta + zeta_p)).real
        return CriticalPointSample(t, theta, theta_p, float(z), float(zp), zeta, zeta_p, est + abs(zc.imag))
    raise DomainError(f"critical_sample needs t >= {ORACLE_MIN_T}, got {t}")


@dataclass(frozen=True, eq=False)
class GridData:
    """Cached critical-line grid used by the quadrature modules."""

    t: np.ndarray
    Z: np.ndarray
    Z_prime: np.ndarray
    theta: np.ndarray
    theta_prime: np.ndarray
    est_abs_error: float

    def dabs2(self, target: str) -> np.ndarray:
        """Derivative square of the target: |zeta'|^2 = Z'^2 + theta'^2 Z^2 for
        "zeta", Z'^2 for "hardyZ"."""
        if _phase_term(target):
            return self.Z_prime**2 + self.theta_prime**2 * self.Z**2
        return self.Z_prime**2


def _uniform_step(heights, size: int) -> float | None:
    """The step of the grid t[0:size] if every height lies within 4 ulp of
    t[0] + j step, the step taken from the two ends, else None.
    heights(lo, hi) returns t[lo:hi]; the check asks for it piece by piece,
    so it holds no array the size of the grid."""
    if size < 2:
        return None
    first, last = heights(0, 1)[0], heights(size - 1, size)[0]
    if not last > first:
        return None
    step = (last - first) / (size - 1)
    for lo in range(0, size, _GRID_PIECE):
        hi = min(lo + _GRID_PIECE, size)
        ideal = first + np.arange(lo, hi) * step
        if np.any(np.abs(heights(lo, hi) - ideal) > 4.0 * np.spacing(ideal)):
            return None
    return float(step)


def _grid_pieces(heights, size: int, workers: int = 1):
    """Riemann-Siegel evaluation of an ascending grid t[0:size] in pieces
    of _GRID_PIECE heights; heights(lo, hi) returns t[lo:hi].

    Yields (lo, t[lo:hi], (Z, Z', theta, theta')) for each piece in order.
    A uniform grid (`_uniform_step`) anchors its lattice at t[0], so each
    piece has the bits of its slice of the whole grid whatever the worker
    count.  Each running piece holds a `_Workspace` of its own, which lives
    as long as this generator.  With workers > 1, that many threads run the
    pieces, at most 2 * workers of them ahead of the consumer, so a consumer
    that keeps only what it takes from each piece holds O(workers) pieces.
    """
    # Build the correction models and factor tables once, outside the pool.
    _rs_models()
    _main_sum_tables()
    step = _uniform_step(heights, size)
    t0 = float(heights(0, 1)[0]) if step is not None else 0.0

    def piece(i: int, work: _Workspace):
        lo = i * _GRID_PIECE
        t = heights(lo, min(lo + _GRID_PIECE, size))
        return lo, t, _hardy_grid(t, None if step is None else (t0, step, lo), work)

    count = -(-size // _GRID_PIECE)
    if workers <= 1 or count <= 1:
        work = _Workspace()
        for i in range(count):
            yield piece(i, work)
        return
    spare: queue.SimpleQueue[_Workspace] = queue.SimpleQueue()
    for _ in range(workers):
        spare.put(_Workspace())

    def run(i: int):
        work = spare.get()
        try:
            return piece(i, work)
        finally:
            spare.put(work)

    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        pending: deque = deque()
        for i in range(count):
            pending.append(pool.submit(run, i))
            if len(pending) > 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def eval_grid(t: np.ndarray, workers: int = 1) -> GridData:
    """Riemann-Siegel evaluation over an ascending grid, in pieces and
    optionally threaded; results are independent of the worker count.

    A uniform grid (`_uniform_step`) takes its main sum from a Nyquist lattice
    anchored at t[0] wherever N >= 43 (see `_hardy_grid`); any other grid, and
    the rest of a uniform one, takes the direct route.  The four columns are
    allocated once and filled piece by piece (`_grid_pieces`).
    """
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise DomainError("grid heights must be finite")
    if t.size and (t[0] < RS_MIN_T or t[-1] > MAX_HEIGHT):
        raise DomainError(
            f"grid must lie in [{RS_MIN_T:g}, {MAX_HEIGHT:g}], got [{t[0]:g}, {t[-1]:g}]"
        )
    if np.any(np.diff(t) < 0.0):
        raise DomainError("grid must be ascending")
    columns = tuple(np.empty(t.size) for _ in range(4))
    for lo, part, values in _grid_pieces(lambda lo, hi: t[lo:hi], t.size, workers):
        for column, value in zip(columns, values):
            column[lo : lo + part.size] = value
    # The cap is convex in t, so its largest value on the grid is at an end.
    ends = (float(t[0]), float(t[-1])) if t.size else ()
    est = max((rs_error_estimate(x) for x in ends), default=0.0)
    return GridData(t, *columns, est)


# ---------------------------------------------------------------------------
# Oracle-path helpers (independent of the Riemann-Siegel code above)
# ---------------------------------------------------------------------------


def z_oracle(t):
    """Z(t) through the Gamma phase and Euler-Maclaurin zeta; any t >= 0,
    scalar or array (a scalar gives a float)."""
    ts = np.asarray(t, dtype=float)
    zeta, _, _ = zeta_em_vec(0.5 + 1j * ts)
    z = (np.exp(1j * theta_gamma(ts)) * zeta).real
    return z if np.ndim(t) else float(z)


# Bracket width at which count_sign_changes stops bisecting.
REFINE_TOL = 1.0e-9


def count_sign_changes(t0: float, t1: float, step: float = 0.05) -> tuple[int, list[float]]:
    """Count sign changes of Z on [t0, t1] by grid scan plus bisection.

    Uses the oracle path only, so the count is independent of the
    Riemann-Siegel machinery it is used to validate.  All brackets are
    bisected in lockstep, one z_oracle call per step; each stops once its
    width is within REFINE_TOL.
    """
    grid = np.arange(t0, t1 + step, step)
    grid = grid[grid <= t1]
    vals = z_oracle(grid)
    left, right = vals[:-1], vals[1:]
    exact = left == 0.0
    bracket = left * right < 0.0
    lo, hi, flo = grid[:-1][bracket], grid[1:][bracket], left[bracket]
    active = np.flatnonzero(hi - lo > REFINE_TOL)
    while active.size:
        mid = 0.5 * (lo[active] + hi[active])
        fmid = z_oracle(mid)
        down = flo[active] * fmid <= 0.0
        hi[active[down]] = mid[down]
        up = active[~down]
        lo[up], flo[up] = mid[~down], fmid[~down]
        active = active[hi[active] - lo[active] > REFINE_TOL]
    found = grid[:-1].copy()
    found[bracket] = 0.5 * (lo + hi)
    zeros = found[exact | bracket].tolist()
    return len(zeros), zeros
