"""Joint-moment quadrature over [T, 2T] and scaling reports.

The integrand |zeta|^(2k-2h) |zeta'|^(2h) (or the Hardy-Z version) is
sampled by the composite midpoint rule on a mesh tied to the mean zero gap.
Midpoint is deliberate: fractional powers of |zeta| have cusps at the zeros,
which defeat higher-order rules, while midpoint never samples the cusp tips
and degrades gracefully.

The mesh-halving error estimate covers smooth integrands only.  In the
paper's range (1 <= k <= 2, 0 <= h <= 1) those are the pairs with
k - h in {0, 1, 2}, i.e. e1 = 2k - 2h in {0, 2, 4}; every other pair has a
cusp |Z|^e1 at each zero, and the estimate can fall short of the error.
For the "hardyZ" target h must also be 0 or 1, since |Z'|^(2h) has a cusp
at each zero of Z'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .critline import TARGETS, TWO_PI, GridData, eval_grid
from .csvio import write_csv
from .errors import ConfigError, DomainError

T_MIN = 1.0e3
T_MAX = 1.0e7

# Floor applied to |Z| only when a negative power is requested (h > k).
ABS_FLOOR = 1.0e-8


def mean_zero_gap(T: float) -> float:
    return TWO_PI / math.log(T / TWO_PI)


@dataclass(frozen=True)
class MomentRequest:
    T: float
    k: float
    h: float
    target: str = "zeta"
    points_per_gap: int = 20

    def __post_init__(self) -> None:
        if not T_MIN <= self.T <= T_MAX:
            raise DomainError(f"T must lie in [{T_MIN:g}, {T_MAX:g}], got {self.T}")
        if not self.k > 0.0:
            raise DomainError(f"k must be positive, got {self.k}")
        if not 0.0 <= self.h <= self.k + 0.5:
            raise DomainError(
                f"h = {self.h} outside [0, k + 1/2] = [0, {self.k + 0.5}]"
            )
        if self.target not in TARGETS:
            raise DomainError(f"target must be one of {tuple(TARGETS)}, got {self.target!r}")
        if self.points_per_gap < 1:
            raise DomainError("points_per_gap must be >= 1")


@dataclass(frozen=True)
class MomentEstimate:
    value: float
    mesh: float
    panels: int
    est_rel_error: float
    request: MomentRequest
    capped: bool = False


def _midpoint_grid(lo: float, hi: float, mesh: float) -> tuple[np.ndarray, float]:
    """Midpoints of the fewest equal panels of [lo, hi] no wider than mesh,
    and the panel width."""
    panels = int(math.ceil((hi - lo) / mesh))
    step = (hi - lo) / panels
    return lo + (np.arange(panels) + 0.5) * step, step


def moment_grids(
    T: float, points_per_gap: int = 20, workers: int = 1
) -> tuple[GridData, GridData]:
    """Critical-line samples at the working mesh and at half mesh.

    Built once per (T, mesh) and shared by every moment request at that T;
    the half-mesh grid feeds the error estimate.
    """
    nominal = mean_zero_gap(T) / points_per_gap
    ts, _ = _midpoint_grid(T, 2.0 * T, nominal)
    ts_half, _ = _midpoint_grid(T, 2.0 * T, nominal / 2.0)
    return eval_grid(ts, workers=workers), eval_grid(ts_half, workers=workers)


def _integrand(grid: GridData, req: MomentRequest) -> tuple[np.ndarray, bool]:
    za = np.abs(grid.Z)
    dz2 = grid.dabs2(req.target)
    e1 = 2.0 * req.k - 2.0 * req.h
    capped = False
    if e1 < 0.0:
        za = np.maximum(za, ABS_FLOOR)
        capped = True
    return za**e1 * dz2**req.h, capped


def joint_moment_on_grids(
    req: MomentRequest, grid: GridData, grid_half: GridData
) -> MomentEstimate:
    """Midpoint value on grid, with 2 |I_h - I_{h/2}| / I_{h/2} as its
    relative error estimate.

    The midpoint error of a smooth integrand is c h^2, so the mesh-halving
    difference is only 3/4 of the error of I_h; twice the difference bounds
    the error of any rule whose error at least halves with the mesh.  When
    e1 = 2k - 2h is not an even integer, |Z|^e1 has a cusp at each zero and
    the error need not shrink that fast: at T = 1e3 and 20 points per gap,
    (k, h) = (1.5, 0.75) reports 0.31 of its true error (0.16 before the
    doubling).
    """
    vals, capped = _integrand(grid, req)
    vals_half, _ = _integrand(grid_half, req)
    panels = grid.t.size
    mesh = req.T / panels
    value = float(np.sum(vals) * mesh)
    value_half = float(np.sum(vals_half) * (req.T / grid_half.t.size))
    est = 2.0 * abs(value - value_half) / value_half if value_half > 0.0 else 0.0
    return MomentEstimate(value, mesh, panels, est, req, capped)


def joint_moment(req: MomentRequest, workers: int = 1) -> MomentEstimate:
    """Composite midpoint value of the joint moment with a mesh-halving
    relative error estimate (see joint_moment_on_grids)."""
    grid, grid_half = moment_grids(req.T, req.points_per_gap, workers)
    return joint_moment_on_grids(req, grid, grid_half)


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
    points_per_gap: int = 20,
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
