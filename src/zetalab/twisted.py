"""Twisted-moment machinery: shifted divisor sums, gcd/lcm pair sums, the
smooth cutoff, Mellin-type weights, contour main terms, direct integrals,
and combinatorial bound checks.

The second-moment main term is a double contour integral over circles of
radius 3/log T and 9/log T; the fourth-moment main term runs over four
circles of radius radius_scale 3^j/log T.  Both are evaluated by the periodic
trapezoid rule, which is spectrally accurate while the integrand stays
analytic in a neighborhood of the node torus.  The Mellin factors and the
fourth moment's denominator 1/zeta(2 + z1 + z2 - z3 - z4) come from short
Taylor models rather than per-node quadrature and Euler-Maclaurin sums.
Direct quadrature of the same integrals provides the independent
cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .critline import MAX_HEIGHT, RS_MIN_T, TWO_PI, _phase_term, zeta_em_vec
from .csvio import write_csv
from .dirpoly import DirichletPoly, factorize, poly_eval_grid
from .errors import CapacityError, DomainError, TruncationError
from .moments import _midpoint_sum, mean_zero_gap

DEFAULT_PAIR_CAP = 100_000_000

# Taylor models of the contour main terms: a series stops where its first
# omitted term falls below MODEL_TAIL of the value it models.  The model of
# (u + 1) zeta(2 + u) is sampled at CAUCHY_NODES points of |u| = CAUCHY_RADIUS
# and must match Euler-Maclaurin to DENOM_RTOL on the contour torus.
MODEL_TAIL = 1.0e-17
CAUCHY_RADIUS = 5.0
CAUCHY_NODES = 64
DENOM_RTOL = 1.0e-12

# Direct-integral weights: name -> (power of Z^2 = |zeta|^2, derivative target).
WEIGHTS = {
    "dzeta2": (0, "zeta"),
    "zeta2dzeta2": (1, "zeta"),
    "dZ2": (0, "hardyZ"),
    "Z2dZ2": (1, "hardyZ"),
}


# ---------------------------------------------------------------------------
# Configuration types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShiftConfig:
    """Shift circles |z_j| = radius_scale * 3^j / log T and the node count.

    radius_scale = 1 gives the canonical circles, which the two-circle
    second-moment integral uses directly.  The four-circle integral cannot
    use them at desk heights: 3^4 / log T is order one, so the node torus
    crosses zeros of the zeta in the denominator and the Mellin factor spans
    e^(+-50), far beyond double precision.  Since the integrand is analytic
    in the polydisk between the origin poles and those zeros, the integral
    is invariant under proportional shrinking of the (nested) radii, and the
    four-fold evaluator picks a scale inside the safe region by default.
    """

    logT: float
    nodes_per_circle: int = 64
    radius_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.logT <= 0.0:
            raise DomainError("logT must be positive")
        if self.nodes_per_circle < 16 or self.nodes_per_circle % 2:
            raise DomainError("nodes_per_circle must be even and >= 16")
        if not 0.0 < self.radius_scale <= 1.0:
            raise DomainError("radius_scale must lie in (0, 1]")

    @property
    def radii(self) -> tuple[float, float, float, float]:
        return tuple(self.radius_scale * 3.0**j / self.logT for j in (1, 2, 3, 4))

    @staticmethod
    def for_height(
        T: float, nodes_per_circle: int = 64, radius_scale: float = 1.0
    ) -> "ShiftConfig":
        return ShiftConfig(_log_height(T), nodes_per_circle, radius_scale)


def _log_height(T: float) -> float:
    """log T; the circles of radius 3^j / log T need T > 1."""
    if not T > 1.0:
        raise DomainError(f"T must exceed 1, got {T}")
    return math.log(T)


def fourth_moment_scale(T: float) -> float:
    """Largest power of 1/2 keeping the four-circle torus both inside
    |z1+z2-z3-z4| < 3.5 (no denominator zeros) and conditioning-bounded
    (Mellin exponent within +-4)."""
    logT = _log_height(T)
    sum_r = sum(3.0**j for j in (1, 2, 3, 4)) / logT
    l0 = math.log(T / TWO_PI)
    scale = 1.0
    while scale * sum_r > 3.5 or scale * sum_r * l0 / 2.0 > 4.0:
        scale *= 0.5
    return scale


@dataclass(frozen=True)
class CutoffFn:
    """Smooth bump: 1 on [1, 2], supported on [3/4, 9/4], C-infinity.

    Built from the standard exponential step s(x) = f(x)/(f(x)+f(1-x)) with
    f(x) = exp(-sharpness/x).
    """

    sharpness: float = 1.0
    plateau: tuple[float, float] = (1.0, 2.0)
    support: tuple[float, float] = (0.75, 2.25)

    def __post_init__(self) -> None:
        if self.sharpness <= 0.0:
            raise DomainError("sharpness must be positive")

    def _step(self, x: np.ndarray) -> np.ndarray:
        # Smooth 0 -> 1 on [0, 1]; clamped outside.
        x = np.clip(x, 0.0, 1.0)
        with np.errstate(divide="ignore", over="ignore"):
            f = np.where(x > 0.0, np.exp(-self.sharpness / np.maximum(x, 1e-300)), 0.0)
            g = np.where(x < 1.0, np.exp(-self.sharpness / np.maximum(1.0 - x, 1e-300)), 0.0)
        return f / (f + g)

    def __call__(self, u) -> np.ndarray | float:
        scalar = np.isscalar(u)
        u = np.asarray(u, dtype=float)
        lo, hi = self.support
        a, b = self.plateau
        out = np.zeros(u.shape)
        rise = (u > lo) & (u < a)
        fall = (u > b) & (u < hi)
        flat = (u >= a) & (u <= b)
        out[flat] = 1.0
        out[rise] = self._step((u[rise] - lo) / (a - lo))
        out[fall] = self._step((hi - u[fall]) / (hi - b))
        return float(out) if scalar else out


@dataclass(frozen=True)
class BSeriesConfig:
    truncation_depth: int = 60
    tail_tolerance: float = 1.0e-12

    def __post_init__(self) -> None:
        if self.truncation_depth < 10:
            raise DomainError("truncation depth must be >= 10")
        if self.tail_tolerance <= 0.0:
            raise DomainError("tail tolerance must be positive")


# ---------------------------------------------------------------------------
# Shifted divisor sums and the prime-power series factor
# ---------------------------------------------------------------------------


def _sigma_pp(p: int, e: int, z1: complex, z2: complex) -> complex:
    """Shifted divisor sum at a prime power: sum_{a+b=e} p^{-a z1 - b z2}."""
    lp = math.log(p)
    return complex(
        sum(np.exp(-lp * (a * z1 + (e - a) * z2)) for a in range(e + 1))
    )


def sigma_shift(n: int, z1: complex, z2: complex) -> complex:
    """sum over ab = n of a^{-z1} b^{-z2}; multiplicative in n."""
    if n < 1:
        raise DomainError(f"sigma_shift needs n >= 1, got {n}")
    out = 1.0 + 0.0j
    for p, e in factorize(n).items():
        out *= _sigma_pp(p, e, z1, z2)
    return out


def b_factor(
    n: int,
    z: tuple[complex, complex, complex, complex],
    cfg: BSeriesConfig = BSeriesConfig(),
) -> complex:
    """Product over p^m || n of the truncated series ratio

        sum_j sigma_{z1,z2}(p^{j+m}) sigma_{z3,z4}(p^j) p^-j
        ---------------------------------------------------- .
        sum_j sigma_{z1,z2}(p^j)     sigma_{z3,z4}(p^j) p^-j

    Requires |Re z_i| < 1/4 so the series converge with geometric margin.
    """
    z1, z2, z3, z4 = (complex(w) for w in z)
    max_re = max(abs(w.real) for w in (z1, z2, z3, z4))
    if max_re >= 0.25:
        raise DomainError(
            f"series factor needs |Re z_i| < 1/4 for convergence, got {max_re:.4g}"
        )
    if n < 1:
        raise DomainError(f"b_factor needs n >= 1, got {n}")
    out = 1.0 + 0.0j
    depth = cfg.truncation_depth
    for p, m in factorize(n).items():
        num = 0.0 + 0.0j
        den = 0.0 + 0.0j
        pj = 1.0
        last_num = 0.0
        for j in range(depth + 1):
            t12 = _sigma_pp(p, j + m, z1, z2)
            t34 = _sigma_pp(p, j, z3, z4)
            s12 = _sigma_pp(p, j, z1, z2)
            num += t12 * t34 / pj
            den += s12 * t34 / pj
            last_num = abs(t12 * t34) / pj
            pj *= p
        # Geometric tail bound: each step j -> j+1 multiplies the two divisor
        # sums by at most p^{2 max_re} and divides by p; the polynomial
        # (j+m+2)(j+2)/((j+m+1)(j+1)) factor at j >= 60 stays under 1.05.
        ratio = 1.05 * p ** (2.0 * max_re - 1.0)
        if ratio >= 1.0:
            raise TruncationError(f"series ratio {ratio:.3g} >= 1 at p = {p}")
        tail = last_num * ratio / (1.0 - ratio)
        if abs(den) == 0.0 or tail / abs(den) > cfg.tail_tolerance:
            raise TruncationError(
                f"series tail {tail:.3g} exceeds tolerance {cfg.tail_tolerance:g} at p = {p}"
            )
        out *= num / den
    return out


# ---------------------------------------------------------------------------
# Pair sums over polynomial supports
# ---------------------------------------------------------------------------


def _support_pairs(a: DirichletPoly, cap: int):
    support = a.support()
    if len(support) ** 2 > cap:
        raise CapacityError(
            f"support of {len(support)} gives {len(support)**2} pairs > cap {cap}"
        )
    for h in support:
        for k in support:
            g = math.gcd(h, k)
            yield h, k, g, (h // g) * k


def f_sum(
    a: DirichletPoly, z1: complex, z2: complex, cap: int = DEFAULT_PAIR_CAP
) -> complex:
    """Exact double sum a_h conj(a_k) / [h,k] * (h,k)^{z1+z2} / (h^{z1} k^{z2})."""
    return complex(_pair_sum_grid(a, np.array([z1]), np.array([z2]), cap)[0, 0])


def g_sum(
    a: DirichletPoly,
    z: tuple[complex, complex, complex, complex],
    cfg: BSeriesConfig = BSeriesConfig(),
    cap: int = DEFAULT_PAIR_CAP,
) -> complex:
    """Pair sum weighted by series factors at the coprime parts h/(h,k), k/(h,k)."""
    z1, z2, z3, z4 = (complex(w) for w in z)
    total = 0.0 + 0.0j
    for h, k, g, lcm in _support_pairs(a, cap):
        coef = a.coeffs[h] * np.conj(a.coeffs[k]) / lcm
        total += (
            coef
            * b_factor(h // g, (z1, z2, z3, z4), cfg)
            * b_factor(k // g, (z3, z4, z1, z2), cfg)
        )
    return complex(total)


def _pair_sum_grid(
    a: DirichletPoly, zrow: np.ndarray, zcol: np.ndarray, cap: int = DEFAULT_PAIR_CAP
) -> np.ndarray:
    """f_sum on the grid zrow x zcol; separable per support pair."""
    out = np.zeros((zrow.size, zcol.size), dtype=complex)
    for h, k, g, lcm in _support_pairs(a, cap):
        coef = a.coeffs[h] * np.conj(a.coeffs[k]) / lcm
        lg, lh, lk = math.log(g), math.log(h), math.log(k)
        out += coef * np.outer(np.exp(zrow * (lg - lh)), np.exp(zcol * (lg - lk)))
    return out


def vandermonde(z: tuple[complex, complex, complex, complex]) -> complex:
    zs = [complex(w) for w in z]
    out = 1.0 + 0.0j
    for j in range(4):
        for k in range(j + 1, 4):
            out *= zs[k] - zs[j]
    return out


# ---------------------------------------------------------------------------
# Mellin-type weight: integral of (t/2pi)^w phi(t/T) dt
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _u_rule(phi: CutoffFn, order: int = 32, rise_panels: int = 8, flat_panels: int = 4):
    """Gauss-Legendre composite rule on the support of phi, weights folded."""
    xs, ws = np.polynomial.legendre.leggauss(order)
    lo, hi = phi.support
    a, b = phi.plateau
    edges: list[float] = []
    edges.extend(np.linspace(lo, a, rise_panels + 1)[:-1])
    edges.extend(np.linspace(a, b, flat_panels + 1)[:-1])
    edges.extend(np.linspace(b, hi, rise_panels + 1))
    nodes = []
    weights = []
    for left, right in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (left + right)
        half = 0.5 * (right - left)
        nodes.append(mid + half * xs)
        weights.append(half * ws)
    u = np.concatenate(nodes)
    w = np.concatenate(weights) * phi(u)
    return u, w, np.log(u)


def mellin_weight(w: complex, T: float, phi: CutoffFn = CutoffFn()) -> complex:
    """Integral of (t/2pi)^w phi(t/T) dt over the support of phi(./T).

    Substituting t = T u gives T (T/2pi)^w times a fixed integral in u,
    evaluated by a cached composite Gauss-Legendre rule to relative 1e-8.
    """
    if T <= 0.0:
        raise DomainError("T must be positive")
    u, wq, lu = _u_rule(phi)
    val = np.sum(wq * np.exp(w * lu))
    return complex(T * np.exp(w * math.log(T / TWO_PI)) * val)


def _mellin_factors(
    w_row: np.ndarray, w_col: np.ndarray, T: float, phi: CutoffFn
) -> tuple[np.ndarray, np.ndarray]:
    """M0 and M2 = d^2/dw^2 M0 at the exponents w = w_row[:, None] + w_col[None, :].

    M2 carries the squared log factor of the derivative weights:
    M2(w) = integral of log(t/2pi)^2 (t/2pi)^w phi(t/T) dt.  On the rule of
    mellin_weight both are T e^(w l0) g(w), l0 = log(T/2pi), with

        g(w) = sum_q wq (1 or (l0 + lu_q)^2) e^(w_row lu_q) e^(w_col lu_q).

    e^(w l0) splits exactly into row and column factors.  Expanding the two
    exponentials of g in Taylor series makes g a bilinear form in the powers
    w_row^j / j! and w_col^m / m! with the exact moments sum_q wq (..) lu_q^(j+m)
    as its matrix.  The weights are positive, so each series stops once its
    first omitted term, (R max|lu|)^K / K! with R = max|w|, falls below
    MODEL_TAIL times e^(-R max|lu|), the least modulus of the exponential.
    """
    _, wq, lu = _u_rule(phi)
    l0 = math.log(T / TWO_PI)
    radius = max(float(np.max(np.abs(w_row))), float(np.max(np.abs(w_col))))
    reach = radius * float(np.max(np.abs(lu)))
    terms, bound = 1, 1.0
    while bound > MODEL_TAIL * math.exp(-reach):
        bound *= reach / terms
        terms += 1
    powers = lu[None, :] ** np.arange(terms)[:, None]

    def taylor(w: np.ndarray) -> np.ndarray:
        steps = np.ones((w.size, terms), dtype=complex)
        steps[:, 1:] = w[:, None] / np.arange(1, terms)
        return np.cumprod(steps, axis=1)

    rows = (T * np.exp(w_row * l0))[:, None] * taylor(w_row)
    cols = (np.exp(w_col * l0))[:, None] * taylor(w_col)
    m0 = rows @ ((powers * wq) @ powers.T) @ cols.T
    m2 = rows @ ((powers * (wq * (l0 + lu) ** 2)) @ powers.T) @ cols.T
    return m0, m2


# ---------------------------------------------------------------------------
# Contour main terms
# ---------------------------------------------------------------------------


def _circle(radius: float, n: int) -> np.ndarray:
    return radius * np.exp(2j * math.pi * np.arange(n) / n)


def _check_poly_length(a: DirichletPoly, T: float, exponent: float) -> None:
    if a.length_bound > 1 and math.log(a.length_bound) > exponent * math.log(T):
        raise DomainError(
            f"polynomial length {a.length_bound} exceeds T^{exponent:g}"
        )


@lru_cache(maxsize=1)
def _zeta2_taylor() -> np.ndarray:
    """Taylor coefficients at u = 0 of the entire function (u + 1) zeta(2 + u).

    Cauchy integral by the trapezoid rule (FFT) on |u| = CAUCHY_RADIUS.  The
    function is real on the real axis, so the coefficients are real.
    """
    u = _circle(CAUCHY_RADIUS, CAUCHY_NODES)
    z, _, _ = zeta_em_vec(2.0 + u)
    c = np.fft.fft((u + 1.0) * z) / CAUCHY_NODES
    c = c.real / CAUCHY_RADIUS ** np.arange(CAUCHY_NODES)
    c.flags.writeable = False
    return c


def _inv_zeta2(u: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """1 / zeta(2 + u) as (u + 1) over the Taylor model of (u + 1) zeta(2 + u),
    summed by Horner's rule."""
    acc = np.full(np.shape(u), coeffs[-1], dtype=complex)
    for c in coeffs[-2::-1]:
        acc *= u
        acc += c
    return (u + 1.0) / acc


def _zeta2_model(rho: float, n: int) -> np.ndarray:
    """The Taylor model of (u + 1) zeta(2 + u) truncated for |u| <= rho.

    Terms go while |c_k| rho^k is at least MODEL_TAIL of the largest one.
    The model is checked against zeta_em_vec at n points of |u| = rho, where
    the torus of the four-fold contour reaches; TruncationError if it misses
    DENOM_RTOL there.
    """
    c = _zeta2_taylor()
    size = np.abs(c) * rho ** np.arange(c.size)
    coeffs = c[: int(np.nonzero(size >= MODEL_TAIL * size.max())[0][-1]) + 1]
    u = _circle(rho, n)
    ref, _, _ = zeta_em_vec(2.0 + u)
    err = float(np.max(np.abs(_inv_zeta2(u, coeffs) * ref - 1.0)))
    if not err <= DENOM_RTOL:
        raise TruncationError(
            f"1/zeta(2+u) model misses zeta_em_vec by {err:.3g} relative at |u| = {rho:.3g}"
        )
    return coeffs


def _finite_real(value: complex, T: float) -> float:
    """Real part of a contour sum; its Mellin factors overflow to inf or nan
    for T far above desk scale."""
    if not math.isfinite(value.real):
        raise DomainError(f"contour sum is not finite at T = {T:g}")
    return float(value.real)


def contour_second_moment(
    a: DirichletPoly,
    T: float,
    cfg: ShiftConfig | None = None,
    phi: CutoffFn = CutoffFn(),
    target: str = "zeta",
) -> float:
    """Main term of the derivative second moment twisted by |A|^2.

    Double trapezoid contour integral over |z1| = 3/log T, |z2| = 9/log T of

        F(z1, -z2) zeta(1+z1-z2) (z1-z2)^2 W(z1, z2) / (z1^4 z2^4),

    where W bundles the Mellin weight with the derivative factors:
    the zeta target uses (z1+z2)^2 M0 - (z1 z2 / 2)^2 M2, the Hardy-Z target
    uses (z1^2 - z2^2)^2 M0, both at exponent (z1 - z2)/2.
    """
    phase = _phase_term(target)
    if cfg is None:
        cfg = ShiftConfig.for_height(T)
    _check_poly_length(a, T, 0.45)
    n = cfg.nodes_per_circle
    r1, r2, _, _ = cfg.radii
    # The radii differ by 6 radius_scale / log T > 0, so zeta(1 + z1 - z2)
    # stays off its pole.
    z1 = _circle(r1, n)
    z2 = _circle(r2, n)

    fgrid = _pair_sum_grid(a, z1, -z2)
    zgrid, _, _ = zeta_em_vec(1.0 + z1[:, None] - z2[None, :])
    m0, m2 = _mellin_factors(0.5 * z1, -0.5 * z2, T, phi)
    diff2 = (z1[:, None] - z2[None, :]) ** 2
    if phase:
        core = diff2 * (
            (z1[:, None] + z2[None, :]) ** 2 * m0
            - (0.5 * z1[:, None] * z2[None, :]) ** 2 * m2
        )
    else:
        # The Hardy-Z weight collapses the derivative bracket: the squared
        # difference is already inside (z1^2 - z2^2)^2.
        core = (z1[:, None] ** 2 - z2[None, :] ** 2) ** 2 * m0
    core = fgrid * zgrid * core / (z1[:, None] ** 3 * z2[None, :] ** 3)
    return _finite_real(complex(core.sum()) / n**2, T)


def contour_fourth_moment(
    a: DirichletPoly,
    T: float,
    cfg: ShiftConfig | None = None,
    phi: CutoffFn = CutoffFn(),
    target: str = "zeta",
) -> float:
    """Main term of the twisted fourth-type moment (|zeta|^2 |zeta'|^2 weight).

    Four-fold trapezoid contour over |z_j| = radius_scale 3^j / log T of

        A(z1,z2,-z3,-z4) G(z1,z2,-z3,-z4) Delta(z)^2 W(z) / prod z_m^6,

    where W is z1^2 z2^2 z3^2 z4^2 M2 - e3^2 M0 for the zeta target and
    -e3^2 M0 for the Hardy-Z target (e3 the third elementary symmetric
    function), at Mellin exponent (z1+z2-z3-z4)/2.

    The n^4 values that depend on u = z1+z2-z3-z4 come from two Taylor models
    in u instead of per-node evaluation.  The denominator 1/zeta(2+u) of A is
    (u+1) over a model of the entire function (u+1) zeta(2+u), truncated for
    the radius sum rho = |u|max < 4 and checked against Euler-Maclaurin at
    the n torus points with |u| = rho.  The Mellin factors split into row
    and column parts, (z1, z2) against (z3, z4), through exact exponentials
    and short Taylor series (see _mellin_factors).  The sum runs in blocks
    over the z3 nodes, so temporaries hold n^3 values.

    Desk-scale radii exceed the convergence region of the series factors, so
    only the constant polynomial A = 1 (G = 1) is evaluable here.

    The hardyZ trapezoid sum cancels by a factor of about 1e7 (1e6 for the
    zeta target), so the value carries up to about 1e-9 relative roundoff,
    which no error estimate reports.
    """
    phase = _phase_term(target)
    if cfg is None:
        cfg = ShiftConfig.for_height(T, 32, fourth_moment_scale(T))
    _check_poly_length(a, T, 0.2)
    if a.support() != [1]:
        max_re = cfg.radii[3]
        raise DomainError(
            f"series factors need |Re z| < 1/4 but the outer radius is {max_re:.3g}; "
            "only A = 1 is evaluable at desk scale"
        )
    g_const = complex(a.coeffs[1] * np.conj(a.coeffs[1]))

    n = cfg.nodes_per_circle
    r1, r2, r3, r4 = cfg.radii
    rho = r1 + r2 + r3 + r4
    if rho >= 4.0:
        raise DomainError(
            f"radius sum {rho:.3g} reaches the zeros of the"
            " denominator zeta; shrink radius_scale (see fourth_moment_scale)"
        )
    z1, z2, z3, z4 = (_circle(r, n) for r in (r1, r2, r3, r4))

    znum13, _, _ = zeta_em_vec(1.0 + z1[:, None] - z3[None, :])
    znum14, _, _ = zeta_em_vec(1.0 + z1[:, None] - z4[None, :])
    znum23, _, _ = zeta_em_vec(1.0 + z2[:, None] - z3[None, :])
    znum24, _, _ = zeta_em_vec(1.0 + z2[:, None] - z4[None, :])
    den = _zeta2_model(rho, n)

    # Index (z1, z2) flattened to rows, z4 along columns; one z3 node a block.
    s12 = (z1[:, None] + z2[None, :]).reshape(-1, 1)
    p12 = (z1[:, None] * z2[None, :]).reshape(-1, 1)
    w12 = ((z2[None, :] - z1[:, None]) ** 2 / np.outer(z1**5, z2**5)).reshape(-1, 1)
    d14 = z4[None, :] - z1[:, None]
    d24 = z4[None, :] - z2[:, None]
    total = 0.0 + 0.0j
    for k in range(n):
        s34 = z3[k] + z4
        p34 = z3[k] * z4
        u = s12 - s34
        m0, m2 = _mellin_factors(0.5 * s12.ravel(), -0.5 * s34, T, phi)
        a1 = znum13[:, k, None] * znum14 * ((z3[k] - z1)[:, None] * d14) ** 2
        a2 = znum23[:, k, None] * znum24 * ((z3[k] - z2)[:, None] * d24) ** 2
        w34 = (z4 - z3[k]) ** 2 / (z3[k] ** 5 * z4**5)
        e3 = p12 * s34 + p34 * s12
        if phase:
            # Derivative bracket (e4 L / 2)^2 - e3^2: differentiating the
            # shifted pole factors gives (sum 1/z_m -+ L/2) twice, so the
            # squared-log term carries the quarter.
            bracket = 0.25 * (p12 * p34) ** 2 * m2 - e3**2 * m0
        else:
            bracket = -(e3**2) * m0
        pair = (a1[:, None, :] * a2[None, :, :]).reshape(n * n, n)
        total += np.sum(w12 * pair * w34 * _inv_zeta2(u, den) * bracket)
    return _finite_real(g_const * total / (4.0 * n**4), T)


# ---------------------------------------------------------------------------
# Direct integrals
# ---------------------------------------------------------------------------


def direct_mesh(
    a: DirichletPoly,
    T: float,
    weight: str,
    phi: CutoffFn,
    points_per_gap: int | None = None,
) -> float:
    """Nominal midpoint mesh of `twisted_direct`.

    Z has local frequencies |theta'(t) - log n| <= (1/2) log(t / 2 pi), the
    weight multiplies 2 (z2_power + 1) such factors with |A|^2, whose
    frequencies reach +-log(max n of A).  So the integrand is band-limited
    to Omega = (z2_power + 1) log(t_hi / 2 pi) + log(max n of A), with t_hi
    the top of the cutoff's support.  Once 2 pi / h > Omega, the midpoint sum
    of the C-infinity window is exact up to the window's spectral tail
    (Trefethen and Weideman, SIAM Review 56, 2014); the mesh is pi / Omega,
    the Nyquist rate, half that bound.  points_per_gap, if given, overrides
    the rule with mean_zero_gap(T) / points_per_gap.
    """
    if weight not in WEIGHTS:
        raise DomainError(f"weight must be one of {tuple(WEIGHTS)}, got {weight!r}")
    if not phi.support[0] * T >= RS_MIN_T:
        raise DomainError(f"the cutoff's support must start at t >= {RS_MIN_T:g}, got T = {T:g}")
    if not phi.support[1] * T <= MAX_HEIGHT:
        raise DomainError(f"the cutoff's support must end at t <= {MAX_HEIGHT:g}, got T = {T:g}")
    if points_per_gap is not None:
        if points_per_gap < 1:
            raise DomainError("points_per_gap must be >= 1")
        return mean_zero_gap(T) / points_per_gap
    z2_power, _ = WEIGHTS[weight]
    t_hi = phi.support[1] * T
    bandwidth = (z2_power + 1) * math.log(t_hi / TWO_PI) + math.log(max(a.coeffs, default=1))
    return math.pi / bandwidth


def twisted_direct(
    a: DirichletPoly,
    T: float,
    weight: str = "dzeta2",
    phi: CutoffFn = CutoffFn(),
    workers: int = 1,
    points_per_gap: int | None = None,
) -> float:
    """Direct midpoint quadrature of the weighted integrand times
    |A(1/2+it)|^2 phi(t/T) over the support of the cutoff, on the mesh
    of `direct_mesh`.

    `moments._midpoint_sum` streams the grid piece by piece and applies
    |A|^2 phi as the window of each piece; only the weighted values are
    kept, one float64 per point, and summed by one np.sum, so the result has
    the bits of np.sum(integrand(eval_grid(ts)) * amps * phi(ts / T)) * step
    on the whole grid ts.
    """
    mesh = direct_mesh(a, T, weight, phi, points_per_gap)
    z2_power, target = WEIGHTS[weight]

    def window(ts: np.ndarray, vals: np.ndarray) -> None:
        vals *= np.abs(poly_eval_grid(a, ts)) ** 2
        vals *= phi(ts / T)

    lo, hi = phi.support
    return _midpoint_sum(lo * T, hi * T, mesh, z2_power + 1, 1, target, workers, window)[0]


# ---------------------------------------------------------------------------
# Combinatorial bound checks
# ---------------------------------------------------------------------------


def _exponent_vectors(r: int, count: int) -> np.ndarray:
    """All nonnegative integer vectors of the given length summing to r."""
    if count == 0:
        return np.zeros((1 if r == 0 else 0, 0), dtype=np.int64)
    rows: list[list[int]] = []

    def rec(prefix: list[int], remaining: int, slots: int) -> None:
        if slots == 1:
            rows.append(prefix + [remaining])
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e, slots - 1)

    rec([], r, count)
    return np.asarray(rows, dtype=np.int64)


def _lcm_pair_sum(ps, vecs: np.ndarray, twist: float = 1.0) -> float:
    """Sum of w(n) w(m) / [n, m] over pairs of rows of vecs, the exponent
    vectors of n and m over the primes ps, with w(n) = twist^Omega(n) g(n)."""
    logs = np.log(np.asarray(ps, dtype=float))
    weights = np.array(
        [
            twist ** int(row.sum())
            * math.prod(1.0 / math.factorial(int(e)) for e in row)
            for row in vecs
        ]
    )
    total = 0.0
    for i in range(vecs.shape[0]):
        lcm_log = (np.maximum(vecs[i][None, :], vecs) * logs[None, :]).sum(axis=1)
        total += float(np.sum(weights[i] * weights * np.exp(-lcm_log)))
    return total


@dataclass(frozen=True)
class RankinReport:
    primes: tuple[int, ...]
    r: int
    value: float
    bound: float
    holds: bool
    pair_count: int


def rankin_bound_check(range_primes: list[int], r: int) -> RankinReport:
    """Brute-force the sum r!^2 g(n) g(m) / [n, m] over Omega(n) = Omega(m) = r
    with support on the given primes, and compare against
    2^r r! P^r exp(P) with P the reciprocal sum (bound formed in log space).
    """
    ps = tuple(int(p) for p in range_primes)
    if len(ps) > 8 or r > 6:
        raise CapacityError("brute-force check limited to <= 8 primes and r <= 6")
    if r < 0:
        raise DomainError("r must be nonnegative")
    vecs = _exponent_vectors(r, len(ps))
    total = _lcm_pair_sum(ps, vecs) * math.factorial(r) ** 2
    p_sum = float(np.sum(1.0 / np.asarray(ps, dtype=float)))
    log_bound = r * math.log(2.0) + math.lgamma(r + 1) + (
        r * math.log(p_sum) if r else 0.0
    ) + p_sum
    bound = math.exp(log_bound)
    return RankinReport(
        ps, r, total, bound, total <= bound * (1.0 + 1.0e-12), vecs.shape[0] ** 2
    )


def twist_pair_sum_bruteforce(
    range_primes: list[int], twist: float, omega_cap: int = 24
) -> float:
    """Cutoff-free pair sum twist^(Omega(n)+Omega(m)) g(n) g(m) / [n, m] by
    enumeration up to Omega <= omega_cap (the tail is factorially small)."""
    ps = [int(p) for p in range_primes]
    if len(ps) > 4:
        raise CapacityError("brute-force pair sum limited to <= 4 primes")
    vecs = np.concatenate(
        [_exponent_vectors(r, len(ps)) for r in range(omega_cap + 1)], axis=0
    )
    return _lcm_pair_sum(ps, vecs, twist)


def twist_pair_sum_euler(
    range_primes: list[int], twist: float, depth: int = 40
) -> float:
    """Euler-product route to the same cutoff-free pair sum."""
    out = 1.0
    for p in range_primes:
        p = int(p)
        local = 0.0
        for e in range(depth + 1):
            for f in range(depth + 1):
                local += (
                    twist ** (e + f)
                    / (math.factorial(e) * math.factorial(f))
                    / p ** max(e, f)
                )
        out *= local
    return out


def write_comparison_csv(rows: list[dict], path) -> None:
    """Columns: T, polynomial_id, method, weight, value, nodes, mesh, ratio."""
    fields = ["T", "polynomial_id", "method", "weight", "value", "nodes", "mesh", "ratio"]
    write_csv(path, fields, [[row.get(k, "") for k in fields] for row in rows])
