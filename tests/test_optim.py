import math

import numpy as np
import pytest

import capscale.scales as scales
import oracles
from capscale import (
    NumericalError,
    QubitChannel,
    ValidationError,
    find_root_bisection,
    kraus_operators,
    maximize_concave_1d,
    per_branch_suprema,
)
from capscale.cli import AD_SEARCH_HI, AD_SEARCH_LO
from conftest import chi_ad_grid


def test_golden_section_quadratic():
    res = maximize_concave_1d(lambda x: -((x - 0.3) ** 2), 0.0, 1.0, tol=1e-10)
    assert res.argmax == pytest.approx(0.3, abs=1e-9)
    assert res.value == pytest.approx(0.0, abs=1e-15)
    assert res.iterations > 0
    assert res.achieved_tol <= 1e-10


def test_golden_section_flat_converges_to_lo():
    # every step ties, and a tie keeps [lo, d]
    calls = []

    def f(x):
        calls.append(x)
        return 0.0

    res = maximize_concave_1d(f, 0.0, 1.0, tol=1e-8)
    assert 0.0 < res.argmax < 1e-8
    assert res.value == 0.0
    assert len(calls) == 2 + res.iterations + 1


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
    assert 0.2 < res.argmax[1] < 0.2 + 1e-10  # flat lane: every tie keeps [lo, d]
    assert type(res.iterations) is int
    assert res.iterations == max(s.iterations for s in scalars)
    assert type(res.achieved_tol) is float
    assert res.achieved_tol == max(s.achieved_tol for s in scalars) <= 1e-10
    assert set(calls) == {(4,)}
    # two points to start, one per step (ties included), one to finish
    assert len(calls) == 2 + res.iterations + 1


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


def test_maximize_chi_sum_single_branch_frozen(monkeypatch):
    results = []

    def recorded(*args, **kwargs):
        results.append(maximize_concave_1d(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(scales, "maximize_concave_1d", recorded)
    (res,) = per_branch_suprema([0.1], tol=1e-8)
    assert res.a_max == pytest.approx(0.546697032616978, abs=1e-6)
    assert res.chi_star == pytest.approx(0.840496506564459, abs=1e-10)
    (search,) = results
    assert search.achieved_tol <= 1e-8


def test_maximize_chi_sum_joint_frozen():
    argmax, value = scales.maximize_subsets([0.0, 0.4], [(0, 1)], tol=1e-8)[(0, 1)]
    assert argmax == pytest.approx(0.535551975060546, abs=1e-6)
    assert value / 2.0 == pytest.approx(0.771826859972801, abs=1e-10)


def test_maximize_chi_sum_against_dense_grid():
    gammas = (0.15, 0.45, 0.85)
    a = np.arange(AD_SEARCH_LO, AD_SEARCH_HI, 1e-5)
    for gamma, res in zip(gammas, per_branch_suprema(gammas, tol=1e-8)):
        v = chi_ad_grid(gamma, a)
        k = int(np.argmax(v))
        assert res.a_max == pytest.approx(a[k], abs=2e-5)
        assert res.chi_star == pytest.approx(v[k], abs=1e-8)
        assert res.chi_star >= v[k] - 1e-12  # grid cannot beat the optimizer


def test_maximize_chi_sum_validation():
    for gammas in ([1.5], [], ["0.3"], [True]):  # range, emptiness, the number rule
        with pytest.raises(ValidationError):
            per_branch_suprema(gammas)


def test_flat_curve_at_gamma_one():
    (res,) = per_branch_suprema([1.0], tol=1e-8)
    assert res.chi_star == 0.0  # a_max is meaningless here by contract


# --- lattice ensemble search (tests/oracles.py) -------------------------------


def lattice(ch, n_states, grid, weight_steps=None):
    """The oracle's covariant lattice optimum of a damping or depolarizing branch."""
    return oracles.lattice_search_covariant(kraus_operators(ch), n_states, grid, weight_steps)


def test_brute_force_identity_channel_exact():
    ch = QubitChannel.amplitude_damping(0.0)
    for grid in (8, 9, 12):
        assert lattice(ch, 2, grid) == pytest.approx(1.0, abs=0.0)


def test_brute_force_fully_damping_channel():
    ch = QubitChannel.amplitude_damping(1.0)
    assert lattice(ch, 2, 8) == pytest.approx(0.0, abs=1e-12)


def test_brute_force_never_beats_mirror_optimum():
    for gamma in (0.2, 0.6):
        ch = QubitChannel.amplitude_damping(gamma)
        v = lattice(ch, 3, 12)
        star = per_branch_suprema([gamma])[0].chi_star
        assert v <= star + 1e-9


def test_brute_force_monotone_in_grid_and_states():
    ch = QubitChannel.amplitude_damping(0.2)
    # polar angles of the 9-point grid are a subset of the 17-point grid
    v9 = lattice(ch, 3, 9, weight_steps=8)
    v17 = lattice(ch, 3, 17, weight_steps=8)
    assert v17 >= v9 - 1e-12
    v2 = lattice(ch, 2, 10)
    v3 = lattice(ch, 3, 10)
    assert v3 >= v2 - 1e-12


def test_brute_force_generic_kraus_path_agrees():
    # with 2 states the sign reduction covers the lattice by construction,
    # with 3 it has to find the cancelling sign pattern
    for gamma in (0.3, 0.7):
        ops = kraus_operators(QubitChannel.amplitude_damping(gamma))
        for n_states in (2, 3):
            v_generic = oracles.lattice_search_literal(ops, n_states, 8)
            v_covariant = oracles.lattice_search_covariant(ops, n_states, 8)
            assert v_generic == pytest.approx(v_covariant, abs=1e-12)


def test_brute_force_depolarizing_hits_analytic_optimum():
    p = 0.2
    v = lattice(QubitChannel.depolarizing(p), 2, 16)
    assert v == pytest.approx(1.0 - oracles.binary_entropy(p / 2.0), abs=1e-12)
