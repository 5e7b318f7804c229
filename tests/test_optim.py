import math

import numpy as np
import pytest

import capscale.optim as optim
import capscale.scales as scales
import oracles
from capscale import (
    NumericalError,
    QubitChannel,
    ValidationError,
    kraus_operators,
    maximize_concave_1d,
    per_branch_suprema,
)
from conftest import chi_ad_grid
from oracles import AD_SEARCH_HI, AD_SEARCH_LO, OracleError, find_root_bisection


# --- maximize_concave_1d --------------------------------------------------
# The test names keep the search's former golden-section name.


def quadratic(peak, curv=1.0):
    """-curv (x - peak)^2 with its slope and Newton point, which is the peak."""

    def f(x):
        return -curv * (x - peak) ** 2, -2.0 * curv * (x - peak), np.broadcast_to(peak, x.shape)

    return f


def flat(x):
    """A constant: value and slope 0, and no proposal."""
    return np.zeros(x.shape), np.zeros(x.shape), np.full(x.shape, np.nan)


def test_golden_section_quadratic():
    res = maximize_concave_1d(quadratic(0.3), 0.0, 1.0, tol=1e-10)
    assert res.argmax == pytest.approx(0.3, abs=1e-10)
    assert res.value == pytest.approx(0.0, abs=1e-15)
    assert res.iterations == 2  # the midpoint, then the straddled peak
    assert res.achieved_tol < 1e-10
    # a bracket already narrower than tol still takes one step
    res = maximize_concave_1d(quadratic(0.3), 0.0, 1e-3, tol=1e-2)
    assert res.iterations == 1
    assert res.argmax == pytest.approx(5e-4, abs=2e-3)
    assert res.value == -((res.argmax - 0.3) ** 2)


def test_golden_section_flat_lane_settles_in_one_call():
    # a zero slope is a maximizer of a concave function: the first step's
    # points, the bracket's midpoint and tol/8 either side, settle the lane,
    # and its bracket is the flat stretch those points span, in order
    calls = []

    def f(x):
        calls.append(x)
        return flat(x)

    res = maximize_concave_1d(f, 0.0, 1.0, tol=1e-8)
    assert res.argmax == 0.5
    assert res.value == 0.0
    assert res.iterations == len(calls) == 1
    assert (res.lo, res.hi) == (0.5 - 0.125e-8, 0.5 + 0.125e-8)
    assert res.achieved_tol == res.hi - res.lo


def test_golden_section_validation():
    with pytest.raises(ValidationError):
        maximize_concave_1d(quadratic(0.3), 1.0, 0.0)
    with pytest.raises(ValidationError):
        maximize_concave_1d(quadratic(0.3), 0.0, 1.0, tol=1e-15)
    for tol in (float("nan"), float("inf"), "1e-8", None, True):
        with pytest.raises(ValidationError):
            maximize_concave_1d(quadratic(0.3), 0.0, 1.0, tol=tol)
    # an objective that returns values only would unpack its three points' values
    with pytest.raises(ValidationError, match="value, slope, proposal"):
        maximize_concave_1d(lambda x: -((x - 0.3) ** 2), 0.0, 1.0)


def lanes():
    """f over four lanes (a quadratic, a flat, a kinked and a monotone one), and each lane alone.

    The kinked lane is min(1 + 2 (x - 0.37), 1 - 3 (x - 0.37)) and proposes
    the Newton crossing of its two lines; the monotone lane is x, whose
    maximum on its bracket is at hi, and proposes nothing.
    """

    def kinked(x):
        up, down = 1.0 + 2.0 * (x - 0.37), 1.0 - 3.0 * (x - 0.37)
        return np.minimum(up, down), np.where(up <= down, 2.0, -3.0), x - (up - down) / 5.0

    def monotone(x):
        return x, np.ones(x.shape), np.full(x.shape, np.nan)

    parts = [quadratic(0.55), flat, kinked, monotone]

    def f(x):
        out = [p(x[:, k]) for k, p in enumerate(parts)]
        return tuple(np.stack([o[i] for o in out], axis=-1) for i in range(3))

    return f, parts


def test_golden_section_lockstep_lanes_match_scalar_calls():
    # the lanes stop at different steps
    f, parts = lanes()
    lo = np.array([0.5, 0.2, 0.0, 0.85])
    hi = np.array([0.6, 0.6, 1.0, 0.95])
    res = maximize_concave_1d(f, lo, hi, tol=1e-10)
    scalars = [
        maximize_concave_1d(p, float(a), float(b), tol=1e-10) for p, a, b in zip(parts, lo, hi)
    ]
    for k, s in enumerate(scalars):
        assert res.argmax[k] == s.argmax  # bit for bit
        assert res.value[k] == s.value
    assert type(res.iterations) is int
    assert res.iterations == max(s.iterations for s in scalars)
    assert type(res.achieved_tol) is float
    assert res.achieved_tol == max(s.achieved_tol for s in scalars) < 1e-10
    quad, const, kink, mono = scalars
    assert quad.argmax == pytest.approx(0.55, abs=1e-10) and quad.iterations <= 3
    assert const.argmax == pytest.approx(0.4, abs=1e-10) and const.iterations == 1
    assert kink.argmax == pytest.approx(0.37, abs=1e-10) and kink.iterations <= 3
    assert kink.value == pytest.approx(1.0, abs=1e-15)  # the kink itself is evaluated
    assert mono.argmax == pytest.approx(0.95, abs=1e-10)  # bisection to the end
    assert mono.value == mono.argmax


def test_golden_section_lockstep_one_call_per_step():
    # each call takes every lane's centre and the points either side: shape (3, lanes)
    f, _ = lanes()
    calls = []

    def counted(x):
        calls.append(x.shape)
        return f(x)

    lo, hi = np.array([0.5, 0.2, 0.0, 0.85]), np.array([0.6, 0.6, 1.0, 0.95])
    for tol in (1e-12, 1e-8, 1e-2):
        calls.clear()
        res = maximize_concave_1d(counted, lo, hi, tol=tol)
        assert set(calls) == {(3, 4)}
        assert len(calls) == res.iterations
        assert res.achieved_tol < tol


def test_golden_section_lockstep_nan_lane_raises():
    bad = np.array([False, True, False])
    quad = quadratic(0.3)

    def nan_value(x):
        v, s, p = quad(x)
        return np.where(bad, np.nan, v), s, p

    def nan_slope(x):
        v, s, p = quad(x)
        return v, np.where(bad, np.nan, s), p

    for f in (nan_value, nan_slope):
        with pytest.raises(NumericalError):
            maximize_concave_1d(f, np.zeros(3), np.ones(3))
    with pytest.raises(ValidationError):
        maximize_concave_1d(quad, np.zeros(3), np.array([1.0, 0.0, 1.0]))


def test_golden_section_stops_at_its_iteration_cap(monkeypatch):
    # no proposals: the search halves its bracket, about 30 steps at tol 1e-10
    def halving(x):
        v, s, _ = quadratic(0.3)(x)
        return v, s, np.full(x.shape, np.nan)

    steps = maximize_concave_1d(halving, 0.0, 1.0, tol=1e-10).iterations
    assert steps > 20
    monkeypatch.setattr(optim, "_MAX_ITER", steps)
    assert maximize_concave_1d(halving, 0.0, 1.0, tol=1e-10).iterations == steps
    monkeypatch.setattr(optim, "_MAX_ITER", steps - 1)
    with pytest.raises(NumericalError, match="^slope-bracketed search failed to converge$"):
        maximize_concave_1d(halving, 0.0, 1.0, tol=1e-10)


def test_golden_section_start_is_the_first_centre():
    f, parts = lanes()
    lo, hi = np.array([0.5, 0.2, 0.0, 0.85]), np.array([0.6, 0.6, 1.0, 0.95])
    midpoint = maximize_concave_1d(f, lo, hi, tol=1e-10)
    # no start, a NaN start or one outside the bracket: the midpoint, bit for bit
    for start in (None, np.full(4, np.nan), lo - 0.1, hi + 0.1):
        res = maximize_concave_1d(f, lo, hi, tol=1e-10, start=start)
        assert np.array_equal(res.argmax, midpoint.argmax)
        assert np.array_equal(res.value, midpoint.value)
        assert res.iterations == midpoint.iterations
    # a start within tol/8 of the peak: the first step's side points straddle it
    calls = []

    def counted(x):
        calls.append(x)
        return quadratic(0.3)(x)

    res = maximize_concave_1d(counted, 0.0, 1.0, tol=1e-8, start=0.3 + 1e-9)
    assert res.iterations == len(calls) == 1
    assert calls[0][0] == 0.3 + 1e-9
    assert res.argmax == pytest.approx(0.3, abs=1e-8 / 4)
    with pytest.raises(ValidationError, match="start"):
        maximize_concave_1d(f, lo, hi, start=np.zeros(3))


def test_golden_section_best_point_stays_in_the_bracket():
    # values flat to rounding can rank a point that the slopes have ruled
    # out above the maximizer: here the first step's centre is worth 1,
    # where the concave curve beside it is worth at most 0. Its slope moves
    # lo past it, and the points that the next step evaluates replace it.
    def f(x):
        value, slope, peak = quadratic(0.3)(x)
        return np.where(x == 0.1, 1.0, value), slope, peak

    res = maximize_concave_1d(f, 0.0, 1.0, tol=1e-8, start=0.1)
    assert res.iterations == 2
    assert res.argmax == pytest.approx(0.3, abs=1e-8 / 4)


def test_golden_section_best_point_is_in_the_final_bracket():
    # values rounded to 1e-10 are flat about the peak 0.3: a step whose three
    # points all have a positive slope moves lo to the right one, and the
    # centre, which ties it by value, lies below lo. The search then stops
    # (its bracket is 0.425 tol wide, and the proposal would add tol²/8), and
    # returns the right point, not the centre ruled out by the slopes.
    tol = 1e-8

    def f(x):
        value, slope, peak = quadratic(0.3)(x)
        return np.round(value, 10), slope, peak

    res = maximize_concave_1d(f, 0.3 - 0.6 * tol, 0.3 + 0.3 * tol, tol, start=0.3 - 0.25 * tol)
    assert res.iterations == 1
    assert (res.lo, res.hi) == (0.3 - 0.25 * tol + 0.125 * tol, 0.3 + 0.3 * tol)
    assert res.lo <= res.argmax <= res.hi
    assert res.slope == -2.0 * (res.argmax - 0.3)


def test_golden_section_returns_brackets_and_slopes():
    # each lane's final bracket holds its maximizer and its best point, is
    # narrower than tol, and the slope is the one at the best point
    peaks = np.array([0.1, 0.37, 0.5, 0.93])
    for tol in (1e-12, 1e-8, 1e-4, 1e-2):
        res = maximize_concave_1d(quadratic(peaks, 3.0), np.zeros(4), np.ones(4), tol)
        assert res.lo.shape == res.hi.shape == res.slope.shape == (4,)
        assert np.all((res.lo <= peaks) & (peaks <= res.hi))
        assert np.all((res.lo <= res.argmax) & (res.argmax <= res.hi))
        assert np.all(res.hi - res.lo < tol)
        assert np.array_equal(res.slope, -6.0 * (res.argmax - peaks))
    res = maximize_concave_1d(quadratic(0.3), 0.0, 1.0)  # a scalar bracket: 0-d results
    assert np.ndim(res.lo) == np.ndim(res.hi) == np.ndim(res.slope) == 0


# --- bisection root finder (tests/oracles.py) ---------------------------------


def test_bisection_known_root():
    root = find_root_bisection(math.cos, 1.0, 2.0, tol=1e-12)
    assert root == pytest.approx(math.pi / 2.0, abs=1e-11)


def test_bisection_validation():
    with pytest.raises(OracleError):
        find_root_bisection(lambda x: 1.0 + x * x, 0.0, 1.0)
    with pytest.raises(OracleError):
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


def test_damping_argmax_within_tol_at_every_tol():
    # against a 40-digit root: the curves are flat to rounding over a
    # stretch of a much wider than a fine tol, so only the slopes place the
    # maximizer, and the reported point must lie in their bracket
    gammas = [float(g) for g in np.linspace(0.05, 0.999, 24)] + [0.97522, 0.99186]
    true = np.array([oracles.damping_argmax(g) for g in gammas])
    for tol in (1e-12, 1e-10, 1e-8, 1e-6, 1e-4):
        a_max = np.array([s.a_max for s in per_branch_suprema(gammas, tol=tol)])
        assert np.abs(a_max - true).max() <= tol / 4


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
