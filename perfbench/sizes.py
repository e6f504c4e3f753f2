"""Problem sizes of the benchmark workloads, shared by the runner and the
script that pins the reference values."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Sizes:
    # Each pass of a run takes the next height from these tables, so no two
    # passes of a run repeat a grid: a cache kept across passes gains nothing
    # that a user running the same command once would not get.
    dense_Ts: tuple[float, ...]
    contour_Ts: tuple[float, ...]
    eval_t: float
    eval_points: int
    nodes2: int
    nodes4: int
    ref_nodes2: int
    ref_nodes4: int
    ref_ppg: int
    interp_heights: int
    samples: int
    high_samples: int
    oracle_points: int
    mp_points: int


FULL = Sizes(
    dense_Ts=(1.0e4, 1.01e4, 1.02e4, 1.03e4),
    contour_Ts=(1.0e5, 1.01e5, 1.02e5, 1.03e5),
    eval_t=1.0e6,
    eval_points=100_000,
    nodes2=128,
    nodes4=32,
    ref_nodes2=256,
    ref_nodes4=64,
    ref_ppg=80,
    interp_heights=10_000,
    samples=1000,
    high_samples=4,
    oracle_points=400,
    mp_points=8,
)

SMOKE = Sizes(
    dense_Ts=(1.0e3,),
    contour_Ts=(1.0e4,),
    eval_t=1.0e6,
    eval_points=2000,
    nodes2=32,
    nodes4=16,
    ref_nodes2=64,
    ref_nodes4=32,
    ref_ppg=40,
    interp_heights=200,
    samples=40,
    high_samples=2,
    oracle_points=20,
    mp_points=2,
)

SIZES = {"full": FULL, "smoke": SMOKE}

MOMENT_KS = (1.0, 1.25, 1.5, 2.0)
MOMENT_HS = (0.0, 0.25, 0.5, 0.75, 1.0)
POLYS = {"one": {1: 1.0}, "one_plus_2": {1: 1.0, 2: 1.0}}
TARGETS = ("zeta", "hardyZ")
# Direct-quadrature weight matching each contour target, second and fourth moment.
WEIGHT2 = {"zeta": "dzeta2", "hardyZ": "dZ2"}
WEIGHT4 = {"zeta": "zeta2dzeta2", "hardyZ": "Z2dZ2"}
