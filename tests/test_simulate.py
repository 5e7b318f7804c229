import json
import math
import re

import numpy as np
import pytest

from capscale import (
    MemoryChannel,
    QubitChannel,
    Strategy,
    ValidationError,
    empirical_staircase,
    run_trials,
    subset_scale_value,
    success_oracle,
)
from capscale.channels import MARKOV_LAW_ONLY
from capscale.simulate import MAX_TRIALS
from conftest import damping_channel_file, run_to_file

GAMMAS4 = (0.0, 0.2, 0.4, 0.6)


def periodic4():
    return MemoryChannel.periodic([QubitChannel.amplitude_damping(g) for g in GAMMAS4])


def random3():
    return MemoryChannel.random(
        [QubitChannel.amplitude_damping(g) for g in (0.1, 0.4, 0.7)], [0.5, 0.3, 0.2]
    )


def test_strategy_validation():
    with pytest.raises(ValidationError):
        Strategy((), 0.5)
    with pytest.raises(ValidationError):
        Strategy((0, 0), 0.5)
    with pytest.raises(ValidationError):
        Strategy((0,), -0.1)
    with pytest.raises(ValidationError):
        Strategy((0,), float("nan"))
    # indices are never truncated or read from bools; rates are real numbers
    for subset in [(1.5,), (True,), ("a",), (0, np.False_)]:
        with pytest.raises(ValidationError):
            Strategy(subset, 0.5)
    for rate in [True, "0.5", None, 10**400]:
        with pytest.raises(ValidationError):
            Strategy((0,), rate)
    assert Strategy((2, 0), 0.5).subset == (0, 2)
    assert Strategy((np.int64(1),), 1) == Strategy((1,), 1.0)


def test_success_oracle_periodic():
    mc = periodic4()
    ok = success_oracle(mc, Strategy((0, 1), 0.5))
    assert ok.tolist() == [True, True, False, False]
    # rate above the subset value: nobody succeeds
    ok = success_oracle(mc, Strategy((0, 1), 0.7))
    assert not ok.any()


def test_success_oracle_random():
    mc = random3()
    ok = success_oracle(mc, Strategy((0,), 0.6))
    assert ok.tolist() == [True, False, False]
    ok = success_oracle(mc, Strategy((0, 1), 0.6))  # min rate of {0,1} is 0.553
    assert not ok.any()


def test_success_oracle_rejects_indeterminate_rate():
    mc = periodic4()
    value = subset_scale_value(GAMMAS4, (0, 1))
    with pytest.raises(ValidationError):
        success_oracle(mc, Strategy((0, 1), value))


def test_success_oracle_rejects_markov_memory():
    branches = [QubitChannel.amplitude_damping(g) for g in (0.1, 0.4)]
    mc = MemoryChannel.markov(branches, np.eye(2), np.array([0.5, 0.5]))
    law_only = "^" + re.escape(MARKOV_LAW_ONLY) + "$"
    with pytest.raises(ValidationError, match=law_only):
        success_oracle(mc, Strategy((0,), 0.1))
    with pytest.raises(ValidationError, match=law_only):
        run_trials(mc, Strategy((0,), 0.1), 100, seed=1)
    with pytest.raises(ValidationError, match=law_only):
        empirical_staircase(mc, [0.1], 100, seed=1)


def test_run_trials_deterministic():
    mc = periodic4()
    strat = Strategy((0, 1), 0.5)
    a = run_trials(mc, strat, 5000, seed=123)
    b = run_trials(mc, strat, 5000, seed=123)
    assert np.array_equal(a.branches, b.branches)
    assert a.empirical_error == b.empirical_error
    c = run_trials(mc, strat, 5000, seed=124)
    assert not np.array_equal(a.branches, c.branches)


def per_branch_errors(res) -> list[float]:
    """Failure rate of each drawn branch, from the per-trial records."""
    return [1.0 - res.successes[res.branches == i].mean() for i in np.unique(res.branches)]


def test_run_trials_statistics():
    mc = periodic4()
    n = 100_000
    res = run_trials(mc, Strategy((0, 1), 0.5), n, seed=42)
    assert res.theoretical_error == pytest.approx(0.5, abs=1e-12)
    sigma = math.sqrt(0.25 / n)
    assert abs(res.empirical_error - 0.5) <= 4.0 * sigma
    assert res.max_branch_error == 1.0  # branches 2 and 3 always fail
    assert res.subset_rate == pytest.approx(0.667153683345, abs=1e-9)
    assert len(res.branches) == len(res.successes) == n
    assert np.array_equal(res.successes, np.isin(res.branches, (0, 1)))
    assert res.max_branch_error == max(per_branch_errors(res))
    assert res.empirical_error == 1.0 - res.successes.mean()

    # random memory that never draws the branch outside the subset
    branches = [QubitChannel.amplitude_damping(g) for g in (0.1, 0.4, 0.7)]
    res = run_trials(MemoryChannel.random(branches, [0.6, 0.4, 0.0]), Strategy((0, 1), 0.5), n, 7)
    assert set(np.unique(res.branches)) == {0, 1}
    assert res.successes.all()
    assert res.max_branch_error == max(per_branch_errors(res)) == 0.0
    assert res.empirical_error == res.theoretical_error == 0.0


@pytest.mark.parametrize(
    "mc, rate, q", [(periodic4(), 0.6665, 0.5), (random3(), 0.4, 0.8)], ids=["per4", "rand3"]
)
def test_run_trials_q_subset_matches_staircase(mc, rate, q):
    res = run_trials(mc, Strategy((1, 0), rate), 1000, seed=2)
    (row,) = empirical_staircase(mc, [rate], 1000, seed=2)
    assert row.subset == res.strategy.subset == (0, 1)
    assert res.q_subset == row.q_subset == q


def test_run_trials_validation(monkeypatch):
    with pytest.raises(ValidationError):
        run_trials(periodic4(), Strategy((0,), 0.1), 0, seed=1)
    with pytest.raises(ValidationError):
        run_trials(periodic4(), Strategy((0,), 0.1), 100, seed=-1)
    # a count past MAX_TRIALS is refused before any generator is built, so
    # before the draws are allocated; no row of the staircase at rate 5
    # draws, as that rate clears no subset
    monkeypatch.setattr(np.random, "Philox", None)
    for n_trials in (0, -3, MAX_TRIALS + 1, 10**30, 100.0, True):
        with pytest.raises(ValidationError, match="n_trials"):
            run_trials(periodic4(), Strategy((0,), 0.1), n_trials, seed=1)
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
