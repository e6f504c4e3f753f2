"""Joint-moment quadrature over [T, 2T] and scaling reports.

The integrand |zeta|^(2k-2h) |zeta'|^(2h) (or the Hardy-Z version) is
sampled by the composite midpoint rule on the mesh of `moment_mesh`.
Midpoint is deliberate: fractional powers of |zeta| have cusps at the zeros,
which defeat higher-order rules, while midpoint never samples the cusp tips
and degrades gracefully.  One loop computes the integrand piece by piece
(`_values`), over the slices of a whole grid (`integrand`) or over the
pieces of a grid that is never held whole (`_midpoint_sum`, which also
serves `twisted.twisted_direct`).  One estimator takes the midpoint sum,
from shared grids (`joint_moment_on_grids`) or streamed (`joint_moment`),
and adds one of two error estimates, by the pair (k, h).

Band-limited pairs have h in {0, 1} and e1 = 2k - 2h in {0, 2, 4}; in the
paper's range (1 <= k <= 2, 0 <= h <= 1) they are (1, 0), (2, 0), (1, 1) and
(2, 1), for either target.  The integrand is then a product of 2k factors Z,
Z' or theta' Z, each with local frequencies up to (1/2) log(t / 2 pi), so it
is band-limited to Omega = k log(2T / 2 pi) on [T, 2T], and the midpoint sum
errs only by its endpoint series
    (H^2 / 24)(f'(2T) - f'(T)) - (7 H^4 / 5760)(f'''(2T) - f'''(T)) + ...
(Trefethen and Weideman, "The exponentially convergent trapezoidal rule",
SIAM Review 56, 2014), once H < 2 pi / Omega.  For a frequency near Omega
each term of that series is about (H Omega / 2 pi)^2 times the one before.
The mesh is H = pi / (2 Omega), twice the Nyquist rate pi / Omega (the
mesh of `twisted.direct_mesh`, whose cutoff window has no endpoint terms),
so that ratio is 1/16 and the H^6 term is about 1/15 of the H^4 term.  The
value adds the two endpoint terms above, and the size of the H^4 term is
the error estimate, so no second grid is built.

Every other pair keeps 20 points per mean zero gap and an estimate of twice
the mesh-halving difference.  That estimate covers smooth integrands only:
in the paper's range every pair with e1 not in {0, 2, 4} has a cusp |Z|^e1
at each zero, where it can fall short of the error, and for the "hardyZ"
target |Z'|^(2h) also has a cusp at each zero of Z' unless h is 0 or 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .critline import _GRID_PIECE, MAX_HEIGHT, TWO_PI, GridData, _grid_pieces, _phase_term, eval_grid
from .csvio import write_csv
from .errors import CapacityError, ConfigError, DomainError

T_MIN = 1.0e3
# [T, 2T] must stay inside the Riemann-Siegel range.
T_MAX = MAX_HEIGHT / 2.0

# Panels of one midpoint grid.  A whole grid (`eval`, `moment_grids`) holds
# the heights and eval_grid's four columns, 40 bytes per point, so the cap
# keeps one near 400 MB; the streamed quadratures (`joint_moment`,
# `twisted.twisted_direct`) hold one float64 value per point, 80 MB at the
# cap.  `moments --T 1e6 --k 1 --h 0` needs 8.07e6 points.
MAX_GRID_POINTS = 10_000_000

# Floor applied to |Z| only when a negative power is requested (h > k).
ABS_FLOOR = 1.0e-8

# Mesh of the pairs that are not band-limited, in points per mean zero gap.
CUSP_POINTS_PER_GAP = 20

# Endpoint derivatives of band-limited integrands: a Chebyshev interpolant
# through this many Chebyshev-Lobatto points on a window [T, T + w] and
# [2T - w, 2T], with w = _END_WINDOW / Omega (about 1/4 for (1, 0) at 1e4).
_END_POINTS = 33
_END_WINDOW = 2.0


def mean_zero_gap(T: float) -> float:
    return TWO_PI / math.log(T / TWO_PI)


@dataclass(frozen=True)
class MomentRequest:
    T: float
    k: float
    h: float
    target: str = "zeta"
    points_per_gap: int | None = None

    def __post_init__(self) -> None:
        if not T_MIN <= self.T <= T_MAX:
            raise DomainError(f"T must lie in [{T_MIN:g}, {T_MAX:g}], got {self.T}")
        if not self.k > 0.0:
            raise DomainError(f"k must be positive, got {self.k}")
        if not 0.0 <= self.h <= self.k + 0.5:
            raise DomainError(
                f"h = {self.h} outside [0, k + 1/2] = [0, {self.k + 0.5}]"
            )
        _phase_term(self.target)
        if self.points_per_gap is not None and self.points_per_gap < 1:
            raise DomainError("points_per_gap must be >= 1")


@dataclass(frozen=True)
class MomentEstimate:
    value: float
    mesh: float
    panels: int
    est_rel_error: float
    request: MomentRequest
    capped: bool = False


def _bandwidth(T: float, k: float, h: float) -> float | None:
    """Omega = k log(2T / 2 pi) for a band-limited pair, None otherwise."""
    if h in (0.0, 1.0) and 2.0 * k - 2.0 * h in (0.0, 2.0, 4.0):
        return k * math.log(2.0 * T / TWO_PI)
    return None


def moment_mesh(req: MomentRequest) -> float:
    """Nominal midpoint mesh of `joint_moment`.

    pi / (2 Omega) for a band-limited pair (see the module docstring; about
    4.4 k points per mean zero gap at T = 1e4), mean_zero_gap(T) / 20 for
    every other pair.  req.points_per_gap, if given, overrides the rule with
    mean_zero_gap(T) / points_per_gap.
    """
    if req.points_per_gap is not None:
        return mean_zero_gap(req.T) / req.points_per_gap
    omega = _bandwidth(req.T, req.k, req.h)
    if omega is None:
        return mean_zero_gap(req.T) / CUSP_POINTS_PER_GAP
    return math.pi / (2.0 * omega)


def _panels(lo: float, hi: float, mesh: float) -> tuple[int, float]:
    """Count and width of the fewest equal panels of [lo, hi] no wider than
    mesh; CapacityError for more than MAX_GRID_POINTS."""
    ratio = (hi - lo) / mesh
    if not ratio <= MAX_GRID_POINTS:
        raise CapacityError(
            f"midpoint grid of {ratio:.3g} points on [{lo:g}, {hi:g}] exceeds the cap of "
            f"{MAX_GRID_POINTS:.3g}"
        )
    panels = int(math.ceil(ratio))
    return panels, (hi - lo) / panels


def _midpoints(lo: float, step: float, a: int, b: int) -> np.ndarray:
    """Midpoints a..b-1 of the panels of width step from lo."""
    return lo + (np.arange(a, b) + 0.5) * step


def midpoint_grid(lo: float, hi: float, mesh: float) -> tuple[np.ndarray, float]:
    """Midpoints of the fewest equal panels of [lo, hi] no wider than mesh,
    and the panel width.

    Raises CapacityError, before any array is made, for more than
    MAX_GRID_POINTS panels.
    """
    panels, step = _panels(lo, hi, mesh)
    return _midpoints(lo, step, 0, panels), step


def moment_grids(
    T: float, points_per_gap: int = CUSP_POINTS_PER_GAP, workers: int = 1
) -> tuple[GridData, GridData]:
    """Critical-line samples at points_per_gap per mean zero gap and at half
    that mesh.

    Built once per (T, mesh) and shared by every moment request at that T;
    the half-mesh grid feeds the error estimate of the pairs that are not
    band-limited.
    """
    nominal = mean_zero_gap(T) / points_per_gap
    ts, _ = midpoint_grid(T, 2.0 * T, nominal)
    ts_half, _ = midpoint_grid(T, 2.0 * T, nominal / 2.0)
    return eval_grid(ts, workers=workers), eval_grid(ts_half, workers=workers)


def _values(pieces, size: int, k: float, h: float, target: str, window=None) -> np.ndarray:
    """The integrand of `integrand` at the size heights of pieces, which
    yields (lo, t[lo:hi], (Z, Z', theta, theta')) as `_grid_pieces` does,
    times window(t[lo:hi], values) in place when a window is given.

    |Z| and the squares of a piece go to two buffers of at most _GRID_PIECE
    values, reused from piece to piece.  Each value comes from the same
    floating-point operations as GridData.dabs2 and the power product, so it
    has the same bits.
    """
    phase = _phase_term(target)
    out = np.empty(size)
    scratch = np.empty((2, min(size, _GRID_PIECE)))
    for lo, t, (z, z_prime, _, theta_prime) in pieces:
        vals = out[lo : lo + t.size]
        za, tmp = scratch[:, : t.size]
        np.abs(z, out=za)
        if phase:
            np.square(za, out=vals)  # Z^2
            vals *= np.square(theta_prime, out=tmp)
            vals += np.square(z_prime, out=tmp)
        else:
            np.square(z_prime, out=vals)
        vals **= h
        if h > k:
            np.maximum(za, ABS_FLOOR, out=za)
        za **= 2.0 * k - 2.0 * h
        vals *= za
        if window is not None:
            window(t, vals)
    return out


def integrand(grid: GridData, k: float, h: float, target: str) -> np.ndarray:
    """|zeta|^(2k-2h) |target'|^(2h) on grid, with |Z| floored at ABS_FLOOR
    when the first power is negative (h > k).  Computed piece by piece into
    one array, so its only temporaries are two piece-sized buffers."""
    cols = (grid.Z, grid.Z_prime, grid.theta, grid.theta_prime)
    pieces = (
        (lo, grid.t[lo : lo + _GRID_PIECE], [c[lo : lo + _GRID_PIECE] for c in cols])
        for lo in range(0, grid.t.size, _GRID_PIECE)
    )
    return _values(pieces, grid.t.size, k, h, target)


def _rule_bandwidth(req: MomentRequest, mesh: float) -> float | None:
    """Omega when the endpoint-corrected route applies, a band-limited pair
    on a mesh no coarser than its rule; None otherwise."""
    omega = _bandwidth(req.T, req.k, req.h)
    if omega is None or mesh > math.pi / (2.0 * omega) * (1.0 + 1.0e-12):
        return None
    return omega


def _end_weights() -> np.ndarray:
    """Weights w[m, e] with p^(m)(e) = w[m, e] @ v, for the polynomial p of
    degree n through values v at x_j = -cos(j pi / n), j = 0..n, for the
    first and third derivative (m = 0, 1) at e = -1 and e = 1.

    The Chebyshev coefficients of p are (-1)^k times those of the values
    read at cos(j pi / n), a discrete cosine transform; for odd orders
    T_k^(m)(e) = e^(k+1) T_k^(m)(1), with T_k'(1) = k^2 and
    T_k'''(1) = k^2 (k^2 - 1)(k^2 - 4) / 15.
    """
    n = _END_POINTS - 1
    k = np.arange(n + 1)
    coef = np.cos(np.outer(k, k) * (math.pi / n)) * (2.0 / n)
    coef[:, [0, n]] *= 0.5
    coef[[0, n], :] *= 0.5
    coef *= ((-1.0) ** k)[:, None]
    k2 = k * k
    at_one = np.stack([k2, k2 * (k2 - 1.0) * (k2 - 4.0) / 15.0])
    signs = np.stack([(-1.0) ** (k + 1), np.ones(n + 1)])
    return (at_one[:, None, :] * signs[None, :, :]) @ coef


def _end_derivatives(req: MomentRequest, omega: float) -> tuple[np.ndarray, np.ndarray]:
    """(f'(T), f'(2T)) and (f'''(T), f'''(2T)) of the integrand, each from the
    Chebyshev interpolant on a window inside [T, 2T] at that end."""
    width = _END_WINDOW / omega
    nodes = 0.5 - 0.5 * np.cos(np.arange(_END_POINTS) * math.pi / (_END_POINTS - 1))
    ts = np.concatenate([req.T + width * nodes, 2.0 * req.T - width + width * nodes])
    vals = integrand(eval_grid(ts), req.k, req.h, req.target)
    lo, hi = vals.reshape(2, _END_POINTS)
    w = _end_weights()
    d1 = 2.0 / width * np.array([w[0, 0] @ lo, w[0, 1] @ hi])
    d3 = (2.0 / width) ** 3 * np.array([w[1, 0] @ lo, w[1, 1] @ hi])
    return d1, d3


def _estimate(
    req: MomentRequest, panels: int, value: float, omega: float | None, value_half: float | None
) -> MomentEstimate:
    """The estimate from the midpoint value on `panels` panels: with the two
    endpoint terms when omega (`_rule_bandwidth`) is given, else with the
    mesh-halving error from value_half."""
    mesh = req.T / panels
    if omega is not None:
        d1, d3 = _end_derivatives(req, omega)
        h4_coef = 7.0 * mesh**4 / 5760.0
        value = float(value + mesh**2 / 24.0 * (d1[1] - d1[0]) - h4_coef * (d3[1] - d3[0]))
        est = h4_coef * float(np.sum(np.abs(d3))) / value if value > 0.0 else 0.0
    else:
        est = 2.0 * abs(value - value_half) / value_half if value_half > 0.0 else 0.0
    return MomentEstimate(value, mesh, panels, est, req, req.h > req.k)


def joint_moment_on_grids(
    req: MomentRequest, grid: GridData, grid_half: GridData | None = None
) -> MomentEstimate:
    """Moment on shared grids (see `moment_grids`): the midpoint sum on grid
    plus one of two error estimates.

    A band-limited pair on a grid no coarser than its rule's mesh adds the
    two endpoint terms and reports the size of the H^4 term; grid_half goes
    unused and may be None.  Any other request keeps the midpoint value, with
    2 |I_h - I_{h/2}| / I_{h/2} from grid_half as its relative error estimate.

    The midpoint error of a smooth integrand is c h^2, so the mesh-halving
    difference is only 3/4 of the error of I_h; twice the difference bounds
    the error of any rule whose error at least halves with the mesh.  When
    e1 = 2k - 2h is not an even integer, |Z|^e1 has a cusp at each zero and
    the error need not shrink that fast: at T = 1e3 and 20 points per gap,
    (k, h) = (1.5, 0.75) reports 0.31 of its true error (0.16 before the
    doubling).
    """
    panels = grid.t.size
    value = float(np.sum(integrand(grid, req.k, req.h, req.target)) * (req.T / panels))
    omega = _rule_bandwidth(req, req.T / panels)
    value_half = None
    if omega is None:
        if grid_half is None:
            raise ConfigError(f"(k, h) = ({req.k}, {req.h}) on this mesh needs the half-mesh grid")
        vals_half = integrand(grid_half, req.k, req.h, req.target)
        value_half = float(np.sum(vals_half) * (req.T / grid_half.t.size))
    return _estimate(req, panels, value, omega, value_half)


def _midpoint_sum(
    lo: float, hi: float, mesh: float, k: float, h: float, target: str, workers: int, window=None
) -> tuple[float, int]:
    """The midpoint sum of the integrand (times window, see `_values`) on
    midpoint_grid(lo, hi, mesh), and its panel count.  The grid is streamed
    through `_grid_pieces`, never held whole: only the values are kept, one
    float64 per point, for the same whole-array np.sum as the grid's."""
    panels, step = _panels(lo, hi, mesh)
    pieces = _grid_pieces(lambda a, b: _midpoints(lo, step, a, b), panels, workers)
    return float(np.sum(_values(pieces, panels, k, h, target, window)) * step), panels


def joint_moment(req: MomentRequest, workers: int = 1) -> MomentEstimate:
    """Joint moment on the mesh of `moment_mesh`: one grid, plus one at half
    its mesh when the pair takes the mesh-halving estimate (see
    joint_moment_on_grids).  The grids are streamed piece by piece, never
    held whole; the result equals joint_moment_on_grids on the grids of
    `midpoint_grid`, bit for bit."""
    mesh = moment_mesh(req)
    ends, pair = (req.T, 2.0 * req.T), (req.k, req.h, req.target, workers)
    value, panels = _midpoint_sum(*ends, mesh, *pair)
    omega = _rule_bandwidth(req, req.T / panels)
    value_half = None if omega is not None else _midpoint_sum(*ends, mesh / 2.0, *pair)[0]
    return _estimate(req, panels, value, omega, value_half)


def conjectured_power_ratio(est: MomentEstimate) -> float:
    req = est.request
    expo = req.k**2 + 2.0 * req.h
    return est.value / (req.T * math.log(req.T) ** expo)


@dataclass(frozen=True)
class ScalingReport:
    k: float
    h: float
    target: str
    Ts: tuple[float, ...]
    values: tuple[float, ...]
    ratios: tuple[float, ...]
    slope: float
    predicted_exponent: float


def scaling_report(
    T_list: list[float],
    k: float,
    h: float,
    target: str = "zeta",
    points_per_gap: int | None = None,
    workers: int = 1,
) -> ScalingReport:
    """Ratios against T (log T)^(k^2+2h) plus a least-squares log-log slope.

    Descriptive only: the conjectured asymptotics converge slowly, so no
    pass/fail is attached here.
    """
    if len(T_list) < 3:
        raise ConfigError(f"scaling report needs >= 3 heights, got {len(T_list)}")
    if any(t2 <= t1 for t1, t2 in zip(T_list, T_list[1:])):
        raise ConfigError("heights must be strictly increasing")
    expo = k**2 + 2.0 * h
    values = []
    ratios = []
    for T in T_list:
        est = joint_moment(MomentRequest(T, k, h, target, points_per_gap), workers)
        values.append(est.value)
        ratios.append(conjectured_power_ratio(est))
    xs = np.log(np.log(np.asarray(T_list)))
    ys = np.log(np.asarray(values) / np.asarray(T_list))
    slope = float(np.polyfit(xs, ys, 1)[0])
    return ScalingReport(
        k, h, target, tuple(float(t) for t in T_list), tuple(values), tuple(ratios), slope, expo
    )


def write_moment_csv(estimates: list[MomentEstimate], path) -> None:
    """Columns: T, k, h, target, value, mesh, panels, est_rel_error,
    ratio_to_conjectured_power."""
    header = ["T", "k", "h", "target", "value", "mesh", "panels", "est_rel_error",
              "ratio_to_conjectured_power"]
    rows = [
        [est.request.T, est.request.k, est.request.h, est.request.target, est.value,
         est.mesh, est.panels, est.est_rel_error, conjectured_power_ratio(est)]
        for est in estimates
    ]
    write_csv(path, header, rows)
