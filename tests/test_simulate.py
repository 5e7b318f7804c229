import json
import math
import tracemalloc

import numpy as np
import pytest

import capscale.cli as cli
import oracles
from capscale import (
    MemoryChannel,
    QubitChannel,
    StaircaseRow,
    ValidationError,
    compute_capacity_report,
    compute_random_scale_report,
    empirical_staircase,
    kraus_operators,
    subset_scale_value,
)
from capscale.simulate import MAX_TRIALS, RATE_MARGIN, _branch_probs, _draw, _rated
from conftest import damping_channel_file, run_to_file

GAMMAS4 = (0.0, 0.2, 0.4, 0.6)


def periodic4():
    return MemoryChannel.periodic([QubitChannel.amplitude_damping(g) for g in GAMMAS4])


def random3():
    return MemoryChannel.random(
        [QubitChannel.amplitude_damping(g) for g in (0.1, 0.4, 0.7)], [0.5, 0.3, 0.2]
    )


def fixed(mc, subset, rate, n_trials=100, seed=1):
    """The one row of a simulation of a fixed target subset at one rate."""
    (row,) = empirical_staircase(mc, [rate], n_trials, seed, subset=subset)
    return row


def test_strategy_validation():
    mc = periodic4()
    with pytest.raises(ValidationError):
        fixed(mc, (), 0.5)
    with pytest.raises(ValidationError):
        fixed(mc, (0, 0), 0.5)
    with pytest.raises(ValidationError):
        fixed(mc, (0,), -0.1)
    with pytest.raises(ValidationError):
        fixed(mc, (0,), float("nan"))
    # indices are never truncated or read from bools; rates are real numbers
    for subset in [(1.5,), (True,), ("a",), (0, np.False_)]:
        with pytest.raises(ValidationError):
            fixed(mc, subset, 0.5)
    for rate in [True, "0.5", None, 10**400]:
        with pytest.raises(ValidationError):
            fixed(mc, (0,), rate)
    assert fixed(mc, (2, 0), 0.5).subset == (0, 2)
    assert fixed(mc, (np.int64(1),), 1) == fixed(mc, (1,), 1.0)


def success_oracle(mc, subset, rate, tol=1e-8):
    """Per-branch success indicators of the idealized decoder at a fixed subset and rate.

    Branch i succeeds exactly when it belongs to subset and the attempted
    rate is below the subset's rate in mc's report; a rate within
    RATE_MARGIN of that rate is refused as indeterminate.
    """
    ((_, value, _),) = _rated(mc, subset, tol)
    if abs(rate - value) <= RATE_MARGIN:
        raise ValidationError(f"rate {rate!r} is within {RATE_MARGIN} of {value!r}")
    ok = np.zeros(len(mc.branches), dtype=bool)
    ok[list(subset)] = rate < value
    return ok


def test_success_oracle_periodic():
    mc = periodic4()
    ok = success_oracle(mc, (0, 1), 0.5)
    assert ok.tolist() == [True, True, False, False]
    # rate above the subset value: nobody succeeds
    ok = success_oracle(mc, (0, 1), 0.7)
    assert not ok.any()


def test_success_oracle_random():
    mc = random3()
    ok = success_oracle(mc, (0,), 0.6)
    assert ok.tolist() == [True, False, False]
    ok = success_oracle(mc, (0, 1), 0.6)  # min rate of {0,1} is 0.553
    assert not ok.any()


def test_success_oracle_rejects_indeterminate_rate():
    mc = periodic4()
    value = subset_scale_value(GAMMAS4, (0, 1))
    with pytest.raises(ValidationError):
        success_oracle(mc, (0, 1), value)
    with pytest.raises(ValidationError, match="indeterminate"):
        fixed(mc, (0, 1), value, 1000, seed=1)


def test_branch_probabilities_are_the_memory_laws_marginals():
    # the draw's branch probabilities are the n = 1 marginals of the oracle's
    # laws, including a branch that random memory never draws
    branches = [QubitChannel.amplitude_damping(g) for g in (0.1, 0.4, 0.7)]
    q = [0.75, 0.0, 0.25]
    for mc, law in (
        (periodic4(), oracles.periodic_law(4)),
        (MemoryChannel.periodic(branches), oracles.periodic_law(3)),
        (random3(), oracles.random_law([0.5, 0.3, 0.2])),
        (MemoryChannel.random(branches, q), oracles.random_law(q)),
    ):
        L = len(mc.branches)
        assert _branch_probs(mc).tolist() == oracles.marginals(law, L).tolist()


def test_run_trials_deterministic():
    mc = periodic4()
    a = fixed(mc, (0, 1), 0.5, 5000, seed=123)
    b = fixed(mc, (0, 1), 0.5, 5000, seed=123)
    counts_a, error_a = _draw(mc, (0, 1), 5000, 123)
    counts_b, _ = _draw(mc, (0, 1), 5000, 123)
    assert np.array_equal(counts_a, counts_b)
    assert a.empirical_error == b.empirical_error == error_a
    counts_c, _ = _draw(mc, (0, 1), 5000, 124)
    assert not np.array_equal(counts_a, counts_c)


def per_branch_errors(ok, counts) -> list[float]:
    """Failure rate of each drawn branch, from its draw count and the oracle's indicators."""
    return [1.0 - float(ok[i]) for i in np.flatnonzero(counts)]


def test_run_trials_statistics():
    mc = periodic4()
    n = 100_000
    res = fixed(mc, (0, 1), 0.5, n, seed=42)
    counts, error = _draw(mc, res.subset, n, res.seed)
    assert error == res.empirical_error  # the row's error is that of its draws
    # a branch always or never decodes: any failure is a failing branch's
    max_branch_error = float(res.empirical_error > 0.0)
    assert res.theoretical_error == pytest.approx(0.5, abs=1e-12)
    sigma = math.sqrt(0.25 / n)
    assert abs(res.empirical_error - 0.5) <= 4.0 * sigma
    assert max_branch_error == 1.0  # branches 2 and 3 always fail
    ((_, subset_rate, _),) = _rated(mc, res.subset, 1e-8)
    assert subset_rate == pytest.approx(0.667153683345, abs=1e-9)
    assert len(counts) == 4 and counts.sum() == n
    ok = success_oracle(mc, (0, 1), 0.5)
    assert ok.tolist() == [True, True, False, False]
    assert max_branch_error == max(per_branch_errors(ok, counts))
    assert res.empirical_error == 1.0 - counts[ok].sum() / n

    # random memory that never draws the branch outside the subset
    branches = [QubitChannel.amplitude_damping(g) for g in (0.1, 0.4, 0.7)]
    mc = MemoryChannel.random(branches, [0.6, 0.4, 0.0])
    res = fixed(mc, (0, 1), 0.5, n, 7)
    counts, error = _draw(mc, res.subset, n, 7)
    assert error == res.empirical_error
    assert counts.sum() == n and counts[2] == 0 and counts[:2].all()
    ok = success_oracle(mc, (0, 1), 0.5)
    assert float(res.empirical_error > 0.0) == max(per_branch_errors(ok, counts)) == 0.0
    assert res.empirical_error == res.theoretical_error == 0.0


def test_run_trials_draws_from_q_off_by_rounding(tmp_path):
    # q may miss 1 by up to 1e-10; the draw normalizes it, the statistics do not
    q = [0.5 + 5e-11, 0.5, 0.0]
    gammas = (0.1, 0.4, 0.7)
    mc = MemoryChannel.random([QubitChannel.amplitude_damping(g) for g in gammas], q)
    res = fixed(mc, (0,), 0.6, 1000, seed=3)
    counts, error = _draw(mc, (0,), 1000, 3)
    assert counts.sum() == 1000 and counts[2] == 0 and error == res.empirical_error
    assert res.q_subset == q[0] and res.theoretical_error == 1.0 - q[0]
    rows = empirical_staircase(mc, [0.3, 0.6, 0.9], 1000, seed=3)
    assert [r.subset for r in rows] == [(0, 1), (0,), ()]  # ties prefer smaller
    assert [r.n_trials for r in rows] == [1000] * 3
    path = damping_channel_file(tmp_path, gammas, {"kind": "random", "q": q})
    for extra in (["--rate", "0.3,0.6,0.9"], ["--rate", "0.6", "--subset", "0"]):
        rc, text = run_to_file(tmp_path, ["simulate", path, "--trials", "1000", *extra])
        assert rc == 0 and len(text.splitlines()) == 1 + len(extra[1].split(","))


def test_theoretical_error_is_never_negative(tmp_path):
    # q sums to 1 + 5e-11, so the mass outside subset (0, 1) rounds below zero
    q = [0.5 + 5e-11, 0.5, 0.0]
    gammas = (0.1, 0.4, 0.7)
    mc = MemoryChannel.random([QubitChannel.amplitude_damping(g) for g in gammas], q)
    (row,) = empirical_staircase(mc, [0.3], 1000, seed=1)
    assert row.subset == (0, 1) and row.theoretical_error == 0.0
    assert fixed(mc, (0, 1), 0.3, 1000, seed=1).theoretical_error == 0.0
    path = damping_channel_file(tmp_path, gammas, {"kind": "random", "q": q})
    for extra in ([], ["--subset", "0,1"]):
        argv = ["simulate", path, "--rate", "0.3", "--trials", "1000", "--seed", "1"]
        rc, text = run_to_file(tmp_path, argv + extra + ["--format", "json"])
        (out,) = json.loads(text)
        assert rc == 0 and out["theoretical_error"] == 0.0


def test_probabilities_never_exceed_one(tmp_path):
    # q sums to 1 + 5e-11, so the mass of subset (0, 1) rounds above one
    q = [0.5 + 5e-11, 0.5, 0.0]
    gammas = (0.1, 0.4, 0.7)
    mc = MemoryChannel.random([QubitChannel.amplitude_damping(g) for g in gammas], q)
    assert fixed(mc, (0, 1), 0.3, 1000, seed=1).q_subset == 1.0
    (row,) = empirical_staircase(mc, [0.3], 1000, seed=1)
    assert row.subset == (0, 1) and row.q_subset == 1.0
    report = compute_random_scale_report(gammas, q)
    # a value at most 1 keeps its bits
    q_delta = [s.q_delta for s in report.per_subset.values()]
    assert q_delta == [q[0], q[1], 0.0, 1.0, q[0], q[1], 1.0]
    path = damping_channel_file(tmp_path, gammas, {"kind": "random", "q": q})
    for extra in ([], ["--subset", "0,1"]):
        argv = ["simulate", path, "--rate", "0.3", "--trials", "1000", "--seed", "1"]
        rc, text = run_to_file(tmp_path, argv + extra + ["--format", "json"])
        (out,) = json.loads(text)
        assert rc == 0 and out["q_subset"] == 1.0
    rc, text = run_to_file(tmp_path, ["random-scale", path, "--format", "json"])
    assert rc == 0
    assert max(e["q_delta"] for e in json.loads(text)["per_subset"]) == 1.0


def test_memory_ceiling_of_run_trials():
    # the draw is one count per branch: its memory does not grow with n_trials
    mc = periodic4()
    fixed(mc, (0, 1), 0.5, 10**3, seed=1)  # first call: imports and caches
    peaks = []
    for n_trials in (10**3, 10**6):
        tracemalloc.start()
        try:
            fixed(mc, (0, 1), 0.5, n_trials, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 64 * 1024
    row = fixed(mc, (0, 1), 0.5, MAX_TRIALS, seed=1)
    counts, error = _draw(mc, (0, 1), MAX_TRIALS, 1)
    assert counts.sum() == MAX_TRIALS and row.n_trials == MAX_TRIALS
    assert error == row.empirical_error


@pytest.mark.parametrize(
    "mc, rate, q", [(periodic4(), 0.6665, 0.5), (random3(), 0.4, 0.8)], ids=["per4", "rand3"]
)
def test_run_trials_q_subset_matches_staircase(mc, rate, q):
    res = fixed(mc, (1, 0), rate, 1000, seed=2)
    (row,) = empirical_staircase(mc, [rate], 1000, seed=2)
    assert row.subset == res.subset == (0, 1)
    assert res.q_subset == row.q_subset == q
    # one draw rule: the same pick and seed give the same errors, to the bit
    assert row.theoretical_error == res.theoretical_error
    assert row.empirical_error == res.empirical_error


def test_fixed_subset_rows():
    # the rows that simulate --subset 0,1 --trials 1000 --seed 7 prints (see
    # test_cli's SUBSET_ROWS): at rate 5.0 the target decodes nothing, and
    # its row keeps the target's subset and probability
    for mc, q, rate, theoretical, empirical in [
        (periodic4(), 0.5, 0.5, 0.5, 0.483),
        (periodic4(), 0.5, 5.0, 1.0, 1.0),
        (random3(), 0.8, 0.5, 0.2, 0.199),
        (random3(), 0.8, 5.0, 1.0, 1.0),
    ]:
        errors = (pytest.approx(e, abs=1e-15) for e in (theoretical, empirical))
        assert empirical_staircase(mc, [rate], 1000, 7, subset=(1, 0)) == [
            StaircaseRow(rate, (0, 1), q, *errors, 1000, 7)
        ]


def test_run_trials_validation(monkeypatch):
    with pytest.raises(ValidationError):
        fixed(periodic4(), (0,), 0.1, 0, seed=1)
    with pytest.raises(ValidationError):
        fixed(periodic4(), (0,), 0.1, 100, seed=-1)
    # a count past MAX_TRIALS is refused before any generator is built, so
    # before the draws are allocated; no row of the staircase at rate 5
    # draws, as that rate clears no subset
    monkeypatch.setattr(np.random, "Philox", None)
    for n_trials in (0, -3, MAX_TRIALS + 1, 10**30, 100.0, True):
        with pytest.raises(ValidationError, match="n_trials"):
            fixed(periodic4(), (0,), 0.1, n_trials, seed=1)
        with pytest.raises(ValidationError, match="n_trials"):
            empirical_staircase(periodic4(), [5.0], n_trials, seed=1)


def test_empirical_staircase_periodic_subset_selection():
    mc = periodic4()
    rows = empirical_staircase(mc, [0.3, 0.6665, 0.668, 0.7], 2000, seed=9)
    assert [r.subset for r in rows] == [(0, 1, 2, 3), (0, 1), (0,), ()]
    assert [r.q_subset for r in rows] == [1.0, 0.5, 0.25, 0.0]
    assert [r.theoretical_error for r in rows] == [0.0, 0.5, 0.75, 1.0]
    assert [r.seed for r in rows] == [9, 10, 11, 12]
    assert rows[0].empirical_error == 0.0
    assert rows[-1].empirical_error == 1.0


def test_empirical_staircase_random_subset_selection():
    mc = random3()
    rows = empirical_staircase(mc, [0.3, 0.4, 0.6, 0.9], 2000, seed=5)
    assert [r.subset for r in rows] == [(0, 1, 2), (0, 1), (0,), ()]
    assert [r.q_subset for r in rows] == [1.0, 0.8, 0.5, 0.0]
    expect_err = [0.0, pytest.approx(0.2), pytest.approx(0.5), 1.0]
    assert [r.theoretical_error for r in rows] == expect_err


def test_random_staircase_tie_goes_to_the_first_subset_in_report_order():
    # X·AD(0.5)·X and AD(0.5) have the same capacity; with AD(0.45) both
    # singletons clear rate 0.47 at probability 0.5, and their pair does not
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    flipped = QubitChannel.kraus(
        [x @ k @ x for k in kraus_operators(QubitChannel.amplitude_damping(0.5))]
    )
    mc = MemoryChannel.random([flipped, QubitChannel.amplitude_damping(0.45)], [0.5, 0.5])
    report = compute_random_scale_report(mc.branches, mc.q)
    assert {d: s.c_delta for d, s in report.per_subset.items()} == {
        (0,): pytest.approx(0.47173, abs=1e-5),
        (1,): pytest.approx(0.51200, abs=1e-5),
        (0, 1): pytest.approx(0.46998, abs=1e-5),
    }
    # (1,) has the higher rate, but (0,) comes first
    (row,) = empirical_staircase(mc, [0.47], 1000, seed=1)
    assert row.subset == (0,) and row.q_subset == 0.5 and row.theoretical_error == 0.5


def test_empirical_staircase_validation():
    mc = periodic4()
    with pytest.raises(ValidationError):
        empirical_staircase(mc, [], 100, seed=1)
    with pytest.raises(ValidationError):
        empirical_staircase(mc, [0.5, 0.4], 100, seed=1)
    with pytest.raises(ValidationError):
        empirical_staircase(mc, [-0.1], 100, seed=1)
    with pytest.raises(ValidationError):
        empirical_staircase(mc, [float("nan")], 100, seed=1)
    for seed in (-1, 2**128, 1.0, False):
        with pytest.raises(ValidationError, match="seed"):
            empirical_staircase(mc, [5.0], 100, seed)
    # row i runs with seed + i, and every row's seed is a generator key
    assert empirical_staircase(mc, [5.0], 100, 2**128 - 1)[0].seed == 2**128 - 1
    with pytest.raises(ValidationError, match="seed"):
        empirical_staircase(mc, [0.3, 5.0], 100, 2**128 - 1)


def test_empirical_staircase_rejects_rate_at_a_subset_rate(tmp_path, capsys):
    # every candidate subset is checked, not only the one picked: at the rate
    # of level r the subset on that threshold has size r, and any pick is smaller
    report = compute_capacity_report(periodic4().branches)
    for r in (1, 2, 3, 4):
        with pytest.raises(ValidationError, match="within 1e-12 of the rate"):
            empirical_staircase(periodic4(), [report.scale[r].value], 1000, seed=1)
    path = damping_channel_file(tmp_path, GAMMAS4, {"kind": "periodic"})
    assert cli.main(["simulate", path, "--rate", repr(report.scale[2].value)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")


def test_staircase_csv_format(tmp_path):
    path = damping_channel_file(tmp_path, GAMMAS4, {"kind": "periodic"})
    argv = ["simulate", path, "--rate", "0.3,0.7", "--trials", "500", "--seed", "3"]
    rc, text = run_to_file(tmp_path, argv)
    assert rc == 0
    lines = text.splitlines()
    assert lines[0] == (
        "rate_bits,subset,q_subset,theoretical_error,empirical_error,n_trials,seed"
    )
    assert lines[1] == "0.3,0;1;2;3,1,0,0,500,3"
    assert lines[2] == "0.7,,0,1,1,500,4"
    assert text.endswith("\n") and "\r" not in text
    rc, text = run_to_file(tmp_path, argv + ["--format", "json"])
    assert rc == 0
    dicts = json.loads(text)
    assert dicts[0]["subset"] == [0, 1, 2, 3]
    assert dicts[1]["q_subset"] == 0.0
