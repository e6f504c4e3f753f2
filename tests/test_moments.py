import math
import tracemalloc

import numpy as np
import pytest

from zetalab.critline import _GRID_PIECE, TWO_PI, GridData, eval_grid
from zetalab.errors import ConfigError, DomainError
from zetalab.moments import (
    ABS_FLOOR,
    MomentRequest,
    conjectured_power_ratio,
    joint_moment,
    joint_moment_on_grids,
    mean_zero_gap,
    midpoint_grid,
    moment_grids,
    moment_mesh,
    integrand,
    scaling_report,
    write_moment_csv,
)


@pytest.fixture(scope="module")
def grids_1e3():
    return moment_grids(1.0e3)


def test_request_validation():
    with pytest.raises(DomainError):
        MomentRequest(T=10.0, k=1.0, h=0.0)
    with pytest.raises(DomainError):
        MomentRequest(T=6.0e6, k=1.0, h=0.0)  # 2T above critline.MAX_HEIGHT
    with pytest.raises(DomainError):
        MomentRequest(T=1e4, k=1.0, h=1.6)  # h > k + 1/2
    with pytest.raises(DomainError):
        MomentRequest(T=1e4, k=-1.0, h=0.0)
    with pytest.raises(DomainError):
        MomentRequest(T=1e4, k=1.0, h=-0.1)
    with pytest.raises(DomainError):
        MomentRequest(T=1e4, k=1.0, h=float("nan"))
    with pytest.raises(DomainError):
        MomentRequest(T=1e4, k=1.0, h=0.0, target="bogus")
    with pytest.raises(DomainError):
        MomentRequest(T=1e4, k=1.0, h=0.0, points_per_gap=0)


def test_mesh_tied_to_zero_gap(grids_1e3):
    req = MomentRequest(1.0e3, 1.0, 0.0)
    est = joint_moment_on_grids(req, *grids_1e3)
    nominal = mean_zero_gap(1.0e3) / 20
    assert est.mesh <= nominal
    assert est.mesh == pytest.approx(nominal, rel=1.0 / est.panels * 2)
    assert est.panels == math.ceil(1.0e3 / nominal)


def test_second_moment_against_classical(grids_1e3):
    # The classical mean value: integral over [T, 2T] of |zeta|^2 is
    # T log T + (2 gamma - 1 - log 2pi + 2 log 2) T + O(sqrt T).
    req = MomentRequest(1.0e3, 1.0, 0.0)
    est = joint_moment_on_grids(req, *grids_1e3)
    T = 1.0e3
    euler_gamma = 0.5772156649015329
    c = 2.0 * euler_gamma - 1.0 - math.log(2.0 * math.pi) + 2.0 * math.log(2.0)
    predicted = T * math.log(T) + c * T
    assert est.value == pytest.approx(predicted, rel=0.02)
    assert est.value >= 0.0
    assert est.est_rel_error < 1e-4


def test_targets_identical_at_h0(grids_1e3):
    za = joint_moment_on_grids(MomentRequest(1.0e3, 1.3, 0.0, "zeta"), *grids_1e3)
    hz = joint_moment_on_grids(MomentRequest(1.0e3, 1.3, 0.0, "hardyZ"), *grids_1e3)
    assert za.value == hz.value


def test_k_equals_h_drops_first_factor(grids_1e3):
    # 2k - 2h = 0: the integrand is |zeta'|^(2k) alone.  k = h = 1.5 takes
    # the plain midpoint route; (1, 1) would add the endpoint terms.
    grid, grid_half = grids_1e3
    est = joint_moment_on_grids(MomentRequest(1.0e3, 1.5, 1.5), grid, grid_half)
    direct = float(np.sum(grid.dabs2("zeta") ** 1.5) * est.mesh)
    assert est.value == pytest.approx(direct, rel=1e-12)


def test_capped_flag_for_negative_exponent(grids_1e3):
    est = joint_moment_on_grids(MomentRequest(1.0e3, 1.0, 1.4), *grids_1e3)
    assert est.capped
    est2 = joint_moment_on_grids(MomentRequest(1.0e3, 1.0, 0.5), *grids_1e3)
    assert not est2.capped


def test_error_estimate_covers_smooth_integrands(grids_1e3):
    # For even e1 = 2k - 2h the integrand is smooth and the midpoint error is
    # c h^2, so the mesh-halving difference alone is 3/4 of the error; the
    # estimate must cover the error against an 80 points/gap reference.
    _, grid80 = moment_grids(1.0e3, 40)
    for k, h in ((1.0, 0.0), (1.25, 0.25), (1.5, 0.5), (2.0, 0.0), (2.0, 1.0), (1.0, 1.0)):
        est = joint_moment_on_grids(MomentRequest(1.0e3, k, h), *grids_1e3)
        ref = joint_moment_on_grids(MomentRequest(1.0e3, k, h), grid80, grid80).value
        assert est.est_rel_error >= abs(est.value - ref) / ref, (k, h)


def test_mesh_refinement_consistency():
    # The 20 points/gap estimate (from the 20 and 40 points/gap grids) must
    # cover the distance to a 60 points/gap value it never computed, and
    # refining the mesh must shrink the estimate.
    est20 = joint_moment(MomentRequest(1.0e3, 1.5, 0.5, points_per_gap=20))
    est40 = joint_moment(MomentRequest(1.0e3, 1.5, 0.5, points_per_gap=40))
    grid60, _ = moment_grids(1.0e3, 60)
    v60 = joint_moment_on_grids(MomentRequest(1.0e3, 1.5, 0.5), grid60, grid60).value
    assert abs(est20.value - v60) / v60 <= est20.est_rel_error
    assert est40.est_rel_error < est20.est_rel_error


def test_continuity_in_h(grids_1e3):
    values = []
    for h in (0.5, 0.5001, 0.501):
        est = joint_moment_on_grids(MomentRequest(1.0e3, 1.5, h), *grids_1e3)
        values.append(est.value)
    assert abs(values[1] - values[0]) < abs(values[2] - values[0])
    assert abs(values[1] / values[0] - 1.0) < 1e-3


def test_holder_chain_on_grid(grids_1e3):
    k = 1.5
    ests = {
        h: joint_moment_on_grids(MomentRequest(1.0e3, k, h), *grids_1e3)
        for h in (0.0, 0.5, 1.0)
    }
    bound = ests[1.0].value**0.5 * ests[0.0].value**0.5
    assert ests[0.5].value <= bound * (1.0 + 3.0 * ests[0.5].est_rel_error)


def test_scaling_report_slope():
    rep = scaling_report([1.0e3, 3.0e3, 1.0e4], 1.0, 0.0)
    assert rep.predicted_exponent == 1.0
    assert abs(rep.slope - 1.0) <= 0.5
    assert all(r > 0.0 and math.isfinite(r) for r in rep.ratios)


def test_scaling_report_arity():
    with pytest.raises(ConfigError):
        scaling_report([1.0e3, 2.0e3], 1.0, 0.0)
    with pytest.raises(ConfigError):
        scaling_report([1.0e3, 1.0e3, 2.0e3], 1.0, 0.0)


def test_moment_csv(tmp_path, grids_1e3):
    est = joint_moment_on_grids(MomentRequest(1.0e3, 1.0, 0.0), *grids_1e3)
    path = tmp_path / "m.csv"
    write_moment_csv([est], path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("T,k,h,target,value")
    fields = lines[1].split(",")
    assert float(fields[4]) == est.value
    assert float(fields[8]) == conjectured_power_ratio(est)


BAND_LIMITED = ((1.0, 0.0), (2.0, 0.0), (1.0, 1.0), (2.0, 1.0))


def _plain_midpoint_sums(T, points_per_gap, chunk=1 << 20):
    """Midpoint sums of every band-limited pair and target with no endpoint
    terms, on points_per_gap per mean zero gap, evaluated in chunks."""
    panels = math.ceil(T / (mean_zero_gap(T) / points_per_gap))
    step = T / panels
    sums = {}
    for lo in range(0, panels, chunk):
        grid = eval_grid(T + (np.arange(lo, min(panels, lo + chunk)) + 0.5) * step)
        za = np.abs(grid.Z)
        for target in ("zeta", "hardyZ"):
            dz2 = grid.dabs2(target)
            for k, h in BAND_LIMITED:
                part = float(np.sum(za ** (2.0 * k - 2.0 * h) * dz2**h))
                sums[k, h, target] = sums.get((k, h, target), 0.0) + part
    return {key: value * step for key, value in sums.items()}


@pytest.mark.parametrize("T", [1.0e3, 1.0e4, TWO_PI * 40.0**2])
def test_rule_estimate_covers_error(T):
    # The reference shares no code with the endpoint terms: the Richardson
    # extrapolation (4 I_320 - I_160) / 3 of plain midpoint sums at 160 and
    # 320 points/gap, which removes their own H^2 endpoint error (at 160
    # points/gap alone that error reaches 0.8 of the estimate for (2, 0) at
    # 2 pi 40^2).  At T = 2 pi 40^2 the lower fit window starts at a jump of
    # the Riemann-Siegel main-sum length.
    coarse, fine = _plain_midpoint_sums(T, 160), _plain_midpoint_sums(T, 320)
    for (k, h, target), value in fine.items():
        ref = (4.0 * value - coarse[k, h, target]) / 3.0
        est = joint_moment(MomentRequest(T, k, h, target))
        assert est.mesh == pytest.approx(moment_mesh(est.request), rel=2.0 / est.panels)
        assert 0.0 < est.est_rel_error < 1.0e-6
        assert abs(est.value - ref) / ref <= est.est_rel_error, (k, h, target)


def test_moment_mesh_rule():
    T = 1.0e4
    omega = math.log(2.0 * T / TWO_PI)
    assert moment_mesh(MomentRequest(T, 1.0, 0.0)) == math.pi / (2.0 * omega)
    assert moment_mesh(MomentRequest(T, 2.0, 1.0, "hardyZ")) == math.pi / (4.0 * omega)
    assert mean_zero_gap(T) / moment_mesh(MomentRequest(T, 1.0, 1.0)) == pytest.approx(4.4, abs=0.05)
    for k, h in ((1.5, 0.75), (1.25, 0.0), (1.5, 0.5), (2.0, 0.5), (3.0, 2.0)):
        assert moment_mesh(MomentRequest(T, k, h)) == mean_zero_gap(T) / 20
    assert moment_mesh(MomentRequest(T, 1.0, 0.0, points_per_gap=7)) == mean_zero_gap(T) / 7
    assert moment_mesh(MomentRequest(T, 1.5, 0.75, points_per_gap=40)) == mean_zero_gap(T) / 40


def test_coarse_override_keeps_mesh_halving():
    # 2 points/gap is coarser than the rule's 4 for (1, 0) at 1e3: the
    # midpoint value on that mesh, with the mesh-halving estimate.
    req = MomentRequest(1.0e3, 1.0, 0.0, points_per_gap=2)
    est = joint_moment(req)
    grid, grid_half = moment_grids(1.0e3, 2)
    assert est.panels == grid.t.size
    assert est.value == float(np.sum(grid.Z**2) * est.mesh)
    assert est == joint_moment_on_grids(req, grid, grid_half)
    # On the rule's mesh the pair needs no half-mesh grid.
    rule = MomentRequest(1.0e3, 1.0, 0.0)
    ts, _ = midpoint_grid(1.0e3, 2.0e3, moment_mesh(rule))
    assert joint_moment_on_grids(rule, eval_grid(ts)) == joint_moment(rule)


def test_cusp_route_unchanged():
    # The 20/40 points/gap route, written out: midpoint value on 20
    # points/gap and twice the relative mesh-halving difference.
    req = MomentRequest(1.0e3, 1.5, 0.75)
    est = joint_moment(req)
    grid, grid_half = moment_grids(1.0e3, 20)
    value = float(np.sum(np.abs(grid.Z) ** 1.5 * grid.dabs2("zeta") ** 0.75) * (1.0e3 / grid.t.size))
    half = float(np.sum(np.abs(grid_half.Z) ** 1.5 * grid_half.dabs2("zeta") ** 0.75)
                 * (1.0e3 / grid_half.t.size))
    assert est.value == value
    assert est.est_rel_error == 2.0 * abs(value - half) / half
    assert est.panels == grid.t.size
    with pytest.raises(ConfigError):
        joint_moment_on_grids(req, grid)


@pytest.mark.parametrize(
    "req",
    [MomentRequest(1.2e4, 1.0, 0.0), MomentRequest(1.0e3, 1.5, 0.75)],
    ids=["band_limited_1.2e4", "cusp_1e3"],
)
def test_streamed_moment_matches_whole_grids(req):
    # joint_moment evaluates its grids piece by piece and keeps only the
    # integrand values; on the whole grids of midpoint_grid the estimator
    # gives the same result to the bit, at any worker count.  At 1.2e4 the
    # (1, 0) grid has N >= 43, so the lattice route runs, over 7 full
    # pieces and a partial one.
    mesh = moment_mesh(req)
    ts, _ = midpoint_grid(req.T, 2.0 * req.T, mesh)
    grids = [eval_grid(ts)]
    if req.h % 1.0:
        grids.append(eval_grid(midpoint_grid(req.T, 2.0 * req.T, mesh / 2.0)[0]))
    else:
        assert ts.size > 7 * _GRID_PIECE and ts.size % _GRID_PIECE
        assert math.floor(math.sqrt(req.T / TWO_PI)) >= 43
    whole = joint_moment_on_grids(req, *grids)
    for workers in (1, 2):
        assert joint_moment(req, workers) == whole


def test_piecewise_integrand_matches_whole_array_expression():
    # integrand works piece by piece with reused buffers; every value has
    # the bits of the whole-array expression, including the ABS_FLOOR branch
    # (h > k) at zeros and tiny values of Z, and k = h.
    rng = np.random.default_rng(8)
    n = 2 * _GRID_PIECE + 123
    z = rng.standard_normal(n) * 10.0 ** rng.uniform(-12.0, 1.0, n)
    z[::997] = 0.0
    grid = GridData(np.arange(n, dtype=float), z, rng.standard_normal(n) * 3.0,
                    rng.standard_normal(n), rng.uniform(2.0, 8.0, n), 0.0)
    assert np.any(np.abs(z) < ABS_FLOOR)
    for k, h in ((1.0, 1.4), (1.5, 1.5), (1.5, 0.75), (1.0, 0.0), (2.0, 1.0)):
        for target in ("zeta", "hardyZ"):
            za = np.abs(grid.Z)
            if h > k:
                za = np.maximum(za, ABS_FLOOR)
            expected = za ** (2.0 * k - 2.0 * h) * grid.dabs2(target) ** h
            assert np.array_equal(integrand(grid, k, h, target), expected), (k, h, target)


def test_streamed_moment_memory_is_per_piece():
    # (1, 0) at 1e5 has 660 060 points.  A whole grid and the integrand's
    # temporaries peak near 46 MB of numpy buffers; streamed, the values
    # (5.3 MB) and a few piece-sized buffers remain.  The first call fills
    # the package's caches, so the traced call sees only its own arrays.
    req = MomentRequest(1.0e5, 1.0, 0.0)
    first = joint_moment(req)
    tracemalloc.start()
    try:
        again = joint_moment(req)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert again == first
    assert first.panels == 660_060
    assert peak < 16.0e6, peak
