import math

import numpy as np
import pytest

from capscale import (
    NumericalError,
    QubitChannel,
    ValidationError,
    brute_force_ensemble_search,
    find_root_bisection,
    kraus_operators,
    maximize_chi_sum,
    maximize_concave_1d,
)
from capscale.optim import AD_SEARCH_HI, AD_SEARCH_LO
from conftest import chi_ad_grid


def test_golden_section_quadratic():
    res = maximize_concave_1d(lambda x: -((x - 0.3) ** 2), 0.0, 1.0, tol=1e-10)
    assert res.argmax == pytest.approx(0.3, abs=1e-9)
    assert res.value == pytest.approx(0.0, abs=1e-15)
    assert res.iterations > 0
    assert res.achieved_tol <= 1e-10


def test_golden_section_flat_returns_midpoint():
    res = maximize_concave_1d(lambda x: 0.0, 0.0, 1.0, tol=1e-8)
    assert res.argmax == pytest.approx(0.5, abs=1e-6)
    assert res.value == 0.0


def test_golden_section_validation():
    with pytest.raises(ValidationError):
        maximize_concave_1d(lambda x: x, 1.0, 0.0)
    with pytest.raises(ValidationError):
        maximize_concave_1d(lambda x: x, 0.0, 1.0, tol=1e-15)
    for tol in (float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            maximize_concave_1d(lambda x: x, 0.0, 1.0, tol=tol)
    with pytest.raises(NumericalError):
        maximize_concave_1d(lambda x: float("nan"), 0.0, 1.0)


def test_golden_section_lockstep_lanes_match_scalar_calls():
    # lanes of different widths stop at different steps; lane 1 is flat
    peaks = np.array([0.3, 0.0, 0.55, 0.9])
    flat = np.array([False, True, False, False])
    lo = np.array([0.0, 0.2, 0.5, 0.85])
    hi = np.array([1.0, 0.6, 0.6, 0.95])
    calls = []

    def f(x):
        calls.append(x.shape)
        return np.where(flat, 0.0, -((x - peaks) ** 2))

    res = maximize_concave_1d(f, lo, hi, tol=1e-10)
    scalars = [
        maximize_concave_1d(
            (lambda x: 0.0) if flat[k] else (lambda x, m=float(peaks[k]): -((x - m) ** 2)),
            float(lo[k]),
            float(hi[k]),
            tol=1e-10,
        )
        for k in range(4)
    ]
    for k, s in enumerate(scalars):
        assert res.argmax[k] == s.argmax  # bit for bit
        assert res.value[k] == s.value
    assert res.argmax[1] == pytest.approx(0.4, abs=1e-9)  # flat lane: midpoint
    assert type(res.iterations) is int
    assert res.iterations == max(s.iterations for s in scalars)
    assert type(res.achieved_tol) is float
    assert res.achieved_tol == max(s.achieved_tol for s in scalars) <= 1e-10
    assert set(calls) == {(4,)}
    # two points to start, one per step plus one more per step with a tie
    # (every step of the flat lane), one to finish
    assert len(calls) == 2 + res.iterations + scalars[1].iterations + 1


def test_golden_section_lockstep_one_call_per_step():
    peaks = np.array([0.3, 0.7])
    calls = []

    def f(x):
        calls.append(1)
        return -((x - peaks) ** 2)

    res = maximize_concave_1d(f, np.zeros(2), np.ones(2), tol=1e-8)
    assert len(calls) == 2 + res.iterations + 1
    assert res.argmax == pytest.approx(peaks, abs=1e-8)


def test_golden_section_lockstep_nan_lane_raises():
    bad = np.array([False, True, False])

    def f(x):
        return np.where(bad, np.nan, -((x - 0.3) ** 2))

    with pytest.raises(NumericalError):
        maximize_concave_1d(f, np.zeros(3), np.ones(3))
    with pytest.raises(ValidationError):
        maximize_concave_1d(f, np.zeros(3), np.array([1.0, 0.0, 1.0]))


def test_bisection_known_root():
    root = find_root_bisection(math.cos, 1.0, 2.0, tol=1e-12)
    assert root == pytest.approx(math.pi / 2.0, abs=1e-11)


def test_bisection_validation():
    with pytest.raises(ValidationError):
        find_root_bisection(lambda x: 1.0 + x * x, 0.0, 1.0)
    with pytest.raises(ValidationError):
        find_root_bisection(math.cos, 2.0, 1.0)


def test_maximize_chi_sum_single_branch_frozen():
    res = maximize_chi_sum([0.1], [1.0], tol=1e-8)
    assert res.argmax == pytest.approx(0.546697032616978, abs=1e-6)
    assert res.value == pytest.approx(0.840496506564459, abs=1e-10)
    assert res.achieved_tol <= 1e-8


def test_maximize_chi_sum_joint_frozen():
    res = maximize_chi_sum([0.0, 0.4], [1.0, 1.0], tol=1e-8)
    assert res.argmax == pytest.approx(0.535551975060546, abs=1e-6)
    assert res.value / 2.0 == pytest.approx(0.771826859972801, abs=1e-10)


def test_maximize_chi_sum_against_dense_grid():
    for gamma in (0.15, 0.45, 0.85):
        a = np.arange(AD_SEARCH_LO, AD_SEARCH_HI, 1e-5)
        v = chi_ad_grid(gamma, a)
        k = int(np.argmax(v))
        res = maximize_chi_sum([gamma], [1.0], tol=1e-8)
        assert res.argmax == pytest.approx(a[k], abs=2e-5)
        assert res.value == pytest.approx(v[k], abs=1e-8)
        assert res.value >= v[k] - 1e-12  # grid cannot beat the optimizer


def test_maximize_chi_sum_validation():
    with pytest.raises(ValidationError):
        maximize_chi_sum([0.1, 0.2], [1.0])
    with pytest.raises(ValidationError):
        maximize_chi_sum([0.1], [-1.0])
    with pytest.raises(ValidationError):
        maximize_chi_sum([1.5], [1.0])
    with pytest.raises(ValidationError):
        maximize_chi_sum([], [])
    for gammas, weights in ((["0.3"], [1.0]), ([0.3], [True])):  # the number rule
        with pytest.raises(ValidationError):
            maximize_chi_sum(gammas, weights)


def test_flat_curve_at_gamma_one():
    res = maximize_chi_sum([1.0], [1.0], tol=1e-8)
    assert res.value == 0.0  # argmax is meaningless here by contract


# --- lattice ensemble search ------------------------------------------------


def test_brute_force_identity_channel_exact():
    ch = QubitChannel.amplitude_damping(0.0)
    for grid in (8, 9, 12):
        assert brute_force_ensemble_search(ch, 2, grid) == pytest.approx(1.0, abs=0.0)


def test_brute_force_fully_damping_channel():
    ch = QubitChannel.amplitude_damping(1.0)
    assert brute_force_ensemble_search(ch, 2, 8) == pytest.approx(0.0, abs=1e-12)


def test_brute_force_frozen_value():
    ch = QubitChannel.amplitude_damping(0.3)
    v = brute_force_ensemble_search(ch, 4, 24)
    assert v == pytest.approx(0.6378403178717484, abs=1e-12)


def test_brute_force_never_beats_mirror_optimum():
    for gamma in (0.2, 0.6):
        ch = QubitChannel.amplitude_damping(gamma)
        v = brute_force_ensemble_search(ch, 3, 12)
        star = maximize_chi_sum([gamma], [1.0]).value
        assert v <= star + 1e-9


def test_brute_force_monotone_in_grid_and_states():
    ch = QubitChannel.amplitude_damping(0.2)
    # polar angles of the 9-point grid are a subset of the 17-point grid
    v9 = brute_force_ensemble_search(ch, 3, 9, weight_steps=8)
    v17 = brute_force_ensemble_search(ch, 3, 17, weight_steps=8)
    assert v17 >= v9 - 1e-12
    v2 = brute_force_ensemble_search(ch, 2, 10)
    v3 = brute_force_ensemble_search(ch, 3, 10)
    assert v3 >= v2 - 1e-12


def test_brute_force_generic_kraus_path_agrees():
    ad = QubitChannel.amplitude_damping(0.3)
    kr = QubitChannel.kraus(kraus_operators(ad))
    v_generic = brute_force_ensemble_search(kr, 2, 8)
    v_covariant = brute_force_ensemble_search(ad, 2, 8)
    assert v_generic == pytest.approx(v_covariant, abs=1e-12)


def test_brute_force_depolarizing_hits_analytic_optimum():
    from capscale import binary_entropy

    p = 0.2
    v = brute_force_ensemble_search(QubitChannel.depolarizing(p), 2, 16)
    assert v == pytest.approx(1.0 - binary_entropy(p / 2.0), abs=1e-12)


def test_brute_force_validation_and_budget():
    ch = QubitChannel.amplitude_damping(0.3)
    with pytest.raises(ValidationError):
        brute_force_ensemble_search(ch, 5, 16)
    with pytest.raises(ValidationError):
        brute_force_ensemble_search(ch, 0, 16)
    with pytest.raises(ValidationError):
        brute_force_ensemble_search(ch, 4, 7)
    kr = QubitChannel.kraus(kraus_operators(ch))
    with pytest.raises(ValidationError):
        brute_force_ensemble_search(kr, 4, 20)  # literal enumeration too large
