import collections
import io
import itertools
import json
from contextlib import redirect_stdout

import numpy as np
import pytest

import capscale.cli as cli
import capscale.holevo as holevo
import capscale.scales as scales
from capscale import (
    MemoryChannel,
    NumericalError,
    QubitChannel,
    ScaleEntry,
    Strategy,
    ValidationError,
    compute_capacity_report,
    compute_random_scale_report,
    kraus_operators,
    per_branch_suprema,
    run_trials,
    scale_r,
    subset_scale_value,
)
from conftest import chi_ad_grid, damping_channel_file, run_to_file

GAMMAS4 = (0.0, 0.2, 0.4, 0.6)


def test_capacity_pair_frozen():
    report = compute_capacity_report([0.0, 0.4])
    cp = report.cp
    assert cp == pytest.approx(0.771826859972801, abs=1e-10)
    argmax, _ = scales.maximize_subsets([0.0, 0.4], [(0, 1)])[(0, 1)]
    assert argmax == pytest.approx(0.535551975060546, abs=1e-6)
    cbar = report.cbar
    assert cbar == pytest.approx(0.776478353231424, abs=1e-10)
    # the joint ensemble is a strict compromise
    assert cbar - cp > 1e-6


def test_per_branch_suprema_frozen():
    sups = per_branch_suprema([0.1, 0.4, 0.7])
    stars = [0.840496506564459, 0.552956706462849, 0.311386291474913]
    amaxes = [0.546697032616978, 0.589771825338121, 0.601359035935776]
    for s, star, am in zip(sups, stars, amaxes):
        assert s.chi_star == pytest.approx(star, abs=1e-10)
        assert s.a_max == pytest.approx(am, abs=1e-6)


def test_scale_table_frozen_l4():
    report = compute_capacity_report(GAMMAS4)
    expect = {
        1: (0.669154882682, (0,)),
        2: (0.667153683345, (0, 1)),
        3: (0.666058550140, (0, 1, 2)),
        4: (0.665575317989, (0, 1, 2, 3)),
    }
    for r, (value, subset) in expect.items():
        assert report.scale[r].value == pytest.approx(value, abs=1e-9)
        assert report.scale[r].best_subset == subset
    assert report.scale[1].value == pytest.approx(report.cbar, abs=1e-12)
    assert report.scale[4].value == pytest.approx(report.cp, abs=1e-12)


def test_subset_value_against_dense_grid():
    # independent evaluation: average over cyclic offsets of a dense-grid
    # maximum of the summed curves
    gammas = (0.1, 0.4, 0.7)
    subset = (0, 2)
    a = np.linspace(0.499, 1.0 - 1e-9, 200_001)
    total = 0.0
    for k in range(3):
        curve = sum(chi_ad_grid(gammas[(m + k) % 3], a) for m in subset)
        total += float(curve.max())
    expect = total / (len(subset) * 3)
    assert subset_scale_value(gammas, subset) == pytest.approx(expect, abs=1e-8)


def test_scale_r_tie_break_prefers_lexicographic():
    entry = scale_r([0.3, 0.3, 0.3], 2)
    assert entry.best_subset == (0, 1)


def test_scale_validation():
    with pytest.raises(ValidationError):
        scale_r(GAMMAS4, 0)
    with pytest.raises(ValidationError):
        scale_r(GAMMAS4, 5)
    with pytest.raises(ValidationError):
        scale_r([0.1] * 13, 1)
    with pytest.raises(ValidationError):
        subset_scale_value(GAMMAS4, ())
    with pytest.raises(ValidationError):
        subset_scale_value(GAMMAS4, (0, 0))
    with pytest.raises(ValidationError):
        subset_scale_value(GAMMAS4, (0, 9))
    # indices are never truncated or read from bools
    for subset in [(0.7,), (True,), (1, 2.0), ("a",), 1]:
        with pytest.raises(ValidationError):
            subset_scale_value(GAMMAS4, subset)
    with pytest.raises(ValidationError):
        compute_random_scale_report((0.1, 0.4), (0.5, 0.5), deltas=[(1.9,)])
    assert subset_scale_value(GAMMAS4, (np.int64(1), 0)) == subset_scale_value(GAMMAS4, (0, 1))
    with pytest.raises(ValidationError):
        compute_capacity_report([0.1, 0.4], tol=float("nan"))


def test_pair_capacity_and_average():
    entry = scale_r([0.0, 0.4], 2)
    assert entry.best_subset == (0, 1)
    assert entry.value == pytest.approx(0.771826859972801, abs=1e-10)
    avg = np.mean([s.chi_star for s in per_branch_suprema([0.0, 0.4])])
    assert avg == pytest.approx(0.776478353231424, abs=1e-10)
    with pytest.raises(ValidationError):
        scale_r([0.3], 2)


def test_report_invariants_on_seeded_draws():
    rng = np.random.default_rng(2024)
    for L in (2, 3, 4):
        gammas = rng.uniform(0.05, 0.9, size=L)
        report = compute_capacity_report(gammas)
        values = [report.scale[r].value for r in range(1, L + 1)]
        assert abs(values[0] - report.cbar) <= 1e-7
        assert abs(values[-1] - report.cp) <= 1e-7
        for lo, hi in zip(values[1:], values[:-1]):
            assert lo <= hi + 1e-9
        assert report.cp <= report.cbar + 1e-12


def test_report_with_generic_branches():
    branches = [QubitChannel.amplitude_damping(0.3), QubitChannel.depolarizing(0.2)]
    report = compute_capacity_report(branches)
    assert report.cp <= report.cbar + 1e-12
    assert report.scale[2].value == pytest.approx(report.cp, abs=1e-12)


def test_kraus_branches_match_damping_closed_form():
    # Rz conjugation keeps damping symmetric about z, so the mirror pair about
    # z stays optimal: the kernel path must reproduce the closed-form report
    gammas = (0.3, 0.6)
    rz = np.diag([np.exp(-0.35j), np.exp(0.35j)])
    kraus = [
        QubitChannel.kraus(
            [rz @ k @ rz.conj().T for k in kraus_operators(QubitChannel.amplitude_damping(g))]
        )
        for g in gammas
    ]
    closed = compute_capacity_report(gammas)
    kernel = compute_capacity_report(kraus)
    assert kernel.cp == pytest.approx(closed.cp, abs=1e-10)
    assert kernel.cbar == pytest.approx(closed.cbar, abs=1e-10)
    for r in (1, 2):
        assert kernel.scale[r].value == pytest.approx(closed.scale[r].value, abs=1e-10)
        assert kernel.scale[r].best_subset == closed.scale[r].best_subset


def test_staircase_profile_thresholds(tmp_path):
    path = damping_channel_file(tmp_path, GAMMAS4, {"kind": "periodic"})
    rc, text = run_to_file(tmp_path, ["staircase", path, "--format", "json"])
    assert rc == 0
    steps = json.loads(text)
    assert [s["r"] for s in steps] == [1, 2, 3, 4]
    assert [s["error_threshold"] for s in steps] == [0.75, 0.5, 0.25, 0.0]
    assert all(a["value_bits"] >= b["value_bits"] - 1e-12 for a, b in zip(steps, steps[1:]))


def random_subset_scale(gammas, q, delta, **kw):
    """The one entry of a random-memory report asked for a single subset."""
    (entry,) = compute_random_scale_report(gammas, q, deltas=[delta], **kw).per_subset.values()
    return entry


def test_random_scale_ordering_frozen():
    gammas = (0.1, 0.4, 0.7)
    q = (0.5, 0.3, 0.2)
    s = random_subset_scale(gammas, q, (0, 1))
    # stronger damping is lower pointwise, so the worst case is branch 1
    assert s.c_delta == pytest.approx(0.552956706462849, abs=1e-9)
    assert s.cbar_delta == pytest.approx(0.840496506564459, abs=1e-9)
    assert s.q_delta == pytest.approx(0.8, abs=1e-15)


def test_random_scale_worst_case_frozen():
    res = random_subset_scale((0.1, 0.4), (0.5, 0.5), (0, 1), tol=1e-8)
    # the higher-damping curve is lower everywhere, so the min is that branch
    assert res.c_delta == pytest.approx(0.552956706462849, abs=1e-10)
    (single,) = per_branch_suprema([0.4], tol=1e-8)
    assert res.c_delta <= single.chi_star + 1e-12


def test_random_scale_validation():
    with pytest.raises(ValidationError):
        random_subset_scale((0.1, 0.4), (0.7, 0.7), (0,))
    with pytest.raises(ValidationError):
        random_subset_scale((0.1, 0.4), (0.5, 0.5), (2,))
    with pytest.raises(ValidationError):
        random_subset_scale((0.1, 0.4), (0.5, float("nan")), (0,))


def test_random_report_subset_monotonicity():
    gammas = (0.1, 0.4, 0.7)
    q = (0.5, 0.3, 0.2)
    report = compute_random_scale_report(gammas, q)
    assert len(report.per_subset) == 7
    for d1, s1 in report.per_subset.items():
        assert s1.c_delta <= s1.cbar_delta + 1e-12
        for d2, s2 in report.per_subset.items():
            if set(d1) < set(d2):
                assert s2.c_delta <= s1.c_delta + 1e-9
                assert s2.cbar_delta >= s1.cbar_delta - 1e-9
                assert s2.q_delta >= s1.q_delta - 1e-15


def capacity_output(tmp_path, *options):
    path = damping_channel_file(tmp_path, GAMMAS4, {"kind": "periodic"})
    rc, text = run_to_file(tmp_path, ["capacity", path, *options])
    assert rc == 0
    return text


def test_capacity_report_serialization_round_trip(tmp_path):
    report = compute_capacity_report(GAMMAS4)
    parsed = json.loads(capacity_output(tmp_path, "--format", "json"))
    assert parsed["cp"] == float(f"{report.cp:.12g}")
    assert parsed["scale"]["2"]["best_subset"] == [0, 1]
    assert len(parsed["per_branch_suprema"]) == 4

    csv_text = capacity_output(tmp_path)
    lines = csv_text.splitlines()
    assert lines[0] == "r,value_bits,subset,error_threshold"
    assert len(lines) == 5
    r, value, subset, thr = lines[2].split(",")
    assert r == "2" and subset == "0;1"
    assert float(value) == pytest.approx(report.scale[2].value, abs=1e-11)
    assert float(thr) == 0.5
    assert csv_text == capacity_output(tmp_path)
    assert csv_text.endswith("\n") and "\r" not in csv_text


def test_random_report_serialization(tmp_path):
    path = damping_channel_file(tmp_path, (0.1, 0.4), {"kind": "random", "q": [0.25, 0.75]})
    rc, text = run_to_file(tmp_path, ["random-scale", path, "--format", "json"])
    assert rc == 0
    obj = json.loads(text)
    assert [e["delta"] for e in obj["per_subset"]] == [[0], [1], [0, 1]]
    rc, csv_text = run_to_file(tmp_path, ["random-scale", path])
    assert rc == 0
    lines = csv_text.splitlines()
    assert lines[0] == "delta,q_delta,c_delta_bits,cbar_delta_bits"
    assert lines[3].startswith("0;1,1,")


def test_twelve_significant_digit_formatting(tmp_path):
    report = compute_capacity_report(GAMMAS4)
    row1 = capacity_output(tmp_path).splitlines()[1]
    assert row1.split(",")[1] == f"{report.scale[1].value:.12g}"


@pytest.fixture
def work_counts(monkeypatch):
    """Count Holevo kernel calls, subset maximizations and their lanes."""
    calls = collections.Counter()

    def count(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    maximize = scales.maximize_concave_1d

    def maximizer(f, lo, hi, *args, **kwargs):
        calls["lanes"] += np.size(lo)
        return maximize(f, lo, hi, *args, **kwargs)

    monkeypatch.setattr(holevo, "holevo_chi", count("kernel", holevo.holevo_chi))
    monkeypatch.setattr(scales, "maximize_concave_1d", count("maximizer", maximizer))
    return calls


def test_work_ceilings_of_reports(work_counts):
    # one kernel call per search step, ties included: at tol 1e-8 a search
    # makes 2 + 30 + 1 calls, after one scan call and, for L >= 3, one call
    # for the prune's bounds
    gammas = list(np.linspace(0.05, 0.9, 8))
    compute_capacity_report(gammas, tol=1e-8)
    assert work_counts["maximizer"] == 1
    assert work_counts["kernel"] == 35

    work_counts.clear()
    compute_random_scale_report(gammas[:6], [1 / 6] * 6, tol=1e-8)
    assert work_counts["maximizer"] == 1
    assert work_counts["kernel"] == 34

    work_counts.clear()
    per_branch_suprema(gammas, tol=1e-8)
    assert work_counts["kernel"] == 34

    # depolarizing curves are symmetric about a = 1/2, so search steps tie
    work_counts.clear()
    depolarizing = [QubitChannel.depolarizing(p) for p in (0.1, 0.2, 0.3, 0.4)]
    compute_capacity_report(depolarizing, tol=1e-8)
    assert work_counts["maximizer"] == 1
    assert work_counts["kernel"] == 35


def test_work_ceilings_of_refined_lanes(work_counts):
    # only the subsets that can still win their level are refined (91 here)
    compute_capacity_report(list(np.linspace(0.05, 0.9, 10)))
    assert work_counts["maximizer"] == 1
    assert work_counts["lanes"] <= 120

    # the worst case: equal branches tie at every level, so all 1023 are refined
    work_counts.clear()
    compute_capacity_report([0.3] * 10)
    assert work_counts["maximizer"] == 1
    assert work_counts["lanes"] == 1023


def test_work_ceilings_of_random_reports(work_counts, tmp_path):
    # one maximization over the singletons and pairs: L + C(L, 2) = 55 lanes
    gammas = list(np.linspace(0.05, 0.9, 10))
    compute_random_scale_report(gammas, [0.1] * 10)
    assert work_counts["maximizer"] == 1
    assert work_counts["lanes"] <= 55

    work_counts.clear()
    path = damping_channel_file(tmp_path, gammas, {"kind": "random", "q": [0.1] * 10})
    with redirect_stdout(io.StringIO()):
        assert cli.main(["capacity", path]) == 0
    assert work_counts["maximizer"] == 1
    assert work_counts["lanes"] <= 55

    # one delta needs only its own pairs besides the singletons
    work_counts.clear()
    with redirect_stdout(io.StringIO()):
        assert cli.main(["random-scale", path, "--delta", "0,5,9"]) == 0
    assert work_counts["lanes"] == 10 + 3


def test_work_ceilings_of_random_subset_rate_and_ad_gap(work_counts, tmp_path):
    mc = MemoryChannel.random(
        [QubitChannel.amplitude_damping(g) for g in (0.1, 0.4, 0.7)], [0.5, 0.3, 0.2]
    )
    run_trials(mc, Strategy((0, 1), 0.3), 100, seed=1)
    assert work_counts["maximizer"] == 1  # the subset's minimum only

    work_counts.clear()
    with redirect_stdout(io.StringIO()):
        assert cli.main(["ad-gap", "--grid", "11"]) == 0
    assert work_counts["maximizer"] == 1

    work_counts.clear()
    path = damping_channel_file(tmp_path, (0.1, 0.4, 0.7), {"kind": "periodic"})
    with redirect_stdout(io.StringIO()):
        assert cli.main(["amax", path]) == 0
    assert work_counts["maximizer"] == 1  # the root bracket is no maximization


def test_tie_rule_is_invariant_under_removing_a_loser():
    eps = scales._TIE_EPS
    rated = [((i,), x * eps) for i, x in enumerate((0.0, 1.5, 2.2, 3.0, 3.8))]
    # the first rate within eps of the best; a scan that replaces its pick on
    # each gain above eps would pick (4,) once (1,) is left out
    assert scales._best_subset(rated) == ScaleEntry(3.0 * eps, (3,))
    assert scales._best_subset(rated[:1] + rated[2:]) == ScaleEntry(3.0 * eps, (3,))


def rz_damping(gamma, phase):
    rz = np.diag([np.exp(-1j * phase), np.exp(1j * phase)])
    ops = kraus_operators(QubitChannel.amplitude_damping(gamma))
    return QubitChannel.kraus([rz @ k @ rz.conj().T for k in ops])


def pruning_cases():
    rng = np.random.default_rng(10)
    for L in range(1, 9):
        centers = rng.uniform(0.1, 0.8, 3)
        yield [float(g) for g in rng.uniform(0.0, 0.99, L)]
        yield [0.3] * L
        yield [float(g) for g in centers[rng.integers(0, 3, L)] + 1e-9 * rng.random(L)]
        yield [QubitChannel.depolarizing(p) for p in rng.uniform(0.0, 1.0, L)]
        yield [rz_damping(g, ph) for g, ph in zip(rng.uniform(0.0, 0.99, L), rng.uniform(0, 3, L))]


def full_sweep_levels(branches, tol):
    """Every subset refined, then each level's first subset within _TIE_EPS of its best."""
    L = len(branches)
    subsets = [s for r in range(1, L + 1) for s in itertools.combinations(range(L), r)]
    best = scales.maximize_subsets(branches, subsets, tol=tol)
    levels = {}
    for r in range(1, L + 1):
        rated = []
        for s in itertools.combinations(range(L), r):
            rotations = [tuple(sorted((m + k) % L for m in s)) for k in range(L)]
            rated.append((s, sum(best[x][1] for x in rotations) / (r * L)))
        top = max(v for _, v in rated)
        levels[r] = next(ScaleEntry(v, s) for s, v in rated if v >= top - scales._TIE_EPS)
    return subsets, best, levels


@pytest.mark.parametrize("tol", [1e-8, 1e-2])
def test_pruned_levels_match_full_sweep(tol):
    pad = scales._PRUNE_PAD
    for branches in pruning_cases():
        L = len(branches)
        subsets, best, levels = full_sweep_levels(branches, tol)
        for r in range(1, L + 1):
            assert scale_r(branches, r, tol) == levels[r]
        try:
            report = compute_capacity_report(branches, tol)
        except NumericalError:
            # a coarse tol can leave a level above the one before it
            assert tol == 1e-2
        else:
            assert report.scale == levels
            assert report.cp == best[tuple(range(L))][1] / L
        sweep = scales._Sweep(scales._as_channels(branches), subsets, np.add)
        lower, upper = sweep.bounds_of_maxima()
        value = np.array([best[s][1] for s in subsets])
        assert np.all(value <= upper + pad)
        if tol == 1e-8:
            assert np.all(lower <= value + pad)


def direct_random_table(branches, q):
    """Every delta maximized on its own: the pointwise minimum of all its branch curves."""
    L = len(branches)
    deltas = [d for r in range(1, L + 1) for d in itertools.combinations(range(L), r)]
    best = scales.maximize_subsets(branches, deltas, np.minimum)
    q = [float(x) for x in q]
    return {
        d: scales.SubsetScale(
            min(1.0, sum(q[i] for i in d)), best[d][1], max(best[(i,)][1] for i in d)
        )
        for d in deltas
    }


def test_random_report_matches_direct_maximization():
    # a delta's worst case is the smallest of its pairs' worst cases; the
    # values must keep the bits of maximizing every delta's minimum directly
    rng = np.random.default_rng(11)
    for branches in pruning_cases():
        q = rng.dirichlet(np.ones(len(branches)))
        direct = direct_random_table(branches, q)
        report = compute_random_scale_report(branches, q)
        assert list(report.per_subset) == list(direct)
        assert report.per_subset == direct
        # deltas passed in, of mixed sizes and in any order, get the same values
        some = list(direct)[::-3]
        report = compute_random_scale_report(branches, q, deltas=some)
        assert report.per_subset == {d: direct[d] for d in some}
