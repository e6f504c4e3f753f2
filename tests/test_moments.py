import math

import numpy as np
import pytest

from zetalab.errors import ConfigError, DomainError
from zetalab.moments import (
    MomentRequest,
    conjectured_power_ratio,
    joint_moment,
    joint_moment_on_grids,
    mean_zero_gap,
    moment_grids,
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
        MomentRequest(T=1e4, k=1.0, h=1.6)  # h > k + 1/2
    with pytest.raises(DomainError):
        MomentRequest(T=1e4, k=-1.0, h=0.0)
    with pytest.raises(DomainError):
        MomentRequest(T=1e4, k=1.0, h=-0.1)
    with pytest.raises(DomainError):
        MomentRequest(T=1e4, k=1.0, h=float("nan"))
    with pytest.raises(DomainError):
        MomentRequest(T=1e4, k=1.0, h=0.0, target="bogus")


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
    # 2k - 2h = 0: the integrand is |zeta'|^(2k) alone.
    grid, grid_half = grids_1e3
    est = joint_moment_on_grids(MomentRequest(1.0e3, 1.0, 1.0), grid, grid_half)
    direct = float(np.sum(grid.dabs2("zeta")) * est.mesh)
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
