"""Property tests of input validation.

Every input is either accepted or refused with ValidationError, which the
command line turns into exit code 2 and an `error:` line; no other
exception may escape.
"""

import io
import json
import math
import operator
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import capscale.cli as cli
from capscale import (
    MemoryChannel,
    QubitChannel,
    Strategy,
    ValidationError,
    compute_random_scale_report,
    run_trials,
)

PROPERTY = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

GAMMAS3 = (0.1, 0.4, 0.7)
FLOATS = st.floats(allow_nan=True, allow_infinity=True)
HUGE = st.integers(min_value=10**300, max_value=10**400)  # past the float range
SCALARS = st.one_of(
    FLOATS, st.floats(0.0, 1.0), st.integers(), HUGE, HUGE.map(operator.neg),
    st.booleans(), st.none(), st.text(max_size=3),
)
# anything a JSON channel file can hold where a number belongs
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)

_AD = {"type": "amplitude_damping", "gamma": 0.3}
_R, _W = math.sqrt(0.7), math.sqrt(0.3)


def _kraus_ad(entry):
    """Damping 0.3 as [re, im] Kraus entries, with the real part of the
    sqrt(1 - gamma) entry replaced by entry."""
    return [
        [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [entry, 0.0]]],
        [[[0.0, 0.0], [_W, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
    ]


# slot name -> (branches, memory) with the value v in that slot
SLOTS = {
    "gamma": lambda v: ([{"type": "amplitude_damping", "gamma": v}, _AD], {"kind": "periodic"}),
    "p": lambda v: ([{"type": "depolarizing", "p": v}, _AD], {"kind": "periodic"}),
    "kraus-entry": lambda v: ([{"type": "kraus", "ops": _kraus_ad(v)}], {"kind": "periodic"}),
    "kraus-ops": lambda v: ([{"type": "kraus", "ops": v}], {"kind": "periodic"}),
    "q-entry": lambda v: ([_AD, _AD], {"kind": "random", "q": [v, 0.5]}),
    "q": lambda v: ([_AD, _AD], {"kind": "random", "q": v}),
    "Q-entry": lambda v: (
        [_AD, _AD], {"kind": "markov", "Q": [[v, 0.0], [0.0, 1.0]], "lambda": [0.5, 0.5]}
    ),
    "lambda-entry": lambda v: (
        [_AD, _AD], {"kind": "markov", "Q": [[1.0, 0.0], [0.0, 1.0]], "lambda": [v, 0.5]}
    ),
}


def run_cli(argv):
    """Run one command; return its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def check_refusal(rc, out, err):
    assert rc in (0, 2)
    if rc == 2:
        assert err.startswith("error:") and out == ""
    else:
        assert out and err == ""


def write_channel(tmp_path, branches, memory) -> str:
    path = tmp_path / "channel.json"
    path.write_text(json.dumps({"branches": branches, "memory": memory}))
    return str(path)


@PROPERTY
@given(slot=st.sampled_from(sorted(SLOTS)), value=JSON_VALUES)
def test_channel_file_numbers(tmp_path, slot, value):
    path = write_channel(tmp_path, *SLOTS[slot](value))
    check_refusal(*run_cli(["capacity" if slot.startswith("q") else "chi", path]))


Q_ENTRIES = st.one_of(FLOATS, st.floats(0.0, 1.0), st.just(0.0))
NORMALIZED = (
    st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3)
    .filter(lambda q: sum(q) > 1e-3)
    .map(lambda q: [x / sum(q) for x in q])
)


# a string, bool or nested list in q is refused, even where its value would sum to 1
Q_ODD = st.one_of(
    st.lists(Q_ENTRIES | st.booleans() | st.text(max_size=3) | st.lists(Q_ENTRIES), max_size=4),
    NORMALIZED.map(lambda q: [str(x) for x in q]),
    NORMALIZED.map(lambda q: [[x] for x in q]),
    st.permutations([True, False, False]),
)


@PROPERTY
@given(q=st.one_of(st.lists(Q_ENTRIES, max_size=5), NORMALIZED, Q_ODD))
def test_q_vectors(tmp_path, q):
    try:
        report = compute_random_scale_report(GAMMAS3, q, deltas=[(0, 1)])
    except ValidationError:
        refused = True
    else:
        refused = False
        assert all(type(x) is float for x in q)
        assert len(report.q) == 3 and min(report.q) >= 0.0
        assert sum(report.q) == pytest.approx(1.0, abs=1e-10)
    branches = [{"type": "amplitude_damping", "gamma": g} for g in GAMMAS3]
    rc, out, err = run_cli(["capacity", write_channel(tmp_path, branches, {"kind": "random", "q": q})])
    check_refusal(rc, out, err)
    assert (rc == 2) == refused


INDICES = st.one_of(
    st.integers(-2, 4), st.integers(), FLOATS, st.booleans(), st.text(max_size=2), st.none()
)
SUBSETS = st.one_of(st.lists(INDICES, max_size=4).map(tuple), st.integers(), st.text(max_size=3))
RATES = st.one_of(
    FLOATS, st.floats(0.0, 1.0), st.integers(), HUGE, st.booleans(), st.text(max_size=3), st.none()
)
RAND3 = MemoryChannel.random([QubitChannel.amplitude_damping(g) for g in GAMMAS3], [0.5, 0.3, 0.2])


@PROPERTY
@given(subset=SUBSETS, rate=RATES)
def test_strategy_subsets_and_rates(tmp_path, subset, rate):
    try:
        strategy = Strategy(subset, rate)
        res = run_trials(RAND3, strategy, 64, seed=0)
    except ValidationError:
        pass
    else:
        assert strategy.subset == tuple(sorted(set(strategy.subset)))
        assert all(type(i) is int for i in strategy.subset)
        assert type(strategy.rate) is float and 0.0 <= strategy.rate < math.inf
        assert res.counts.sum() == 64

    text = ",".join(map(str, subset)) if isinstance(subset, tuple) else str(subset)
    branches = [{"type": "amplitude_damping", "gamma": g} for g in GAMMAS3]
    path = write_channel(tmp_path, branches, {"kind": "random", "q": [0.5, 0.3, 0.2]})
    argv = ["simulate", path, f"--rate={rate}", f"--subset={text}", "--trials", "64"]
    check_refusal(*run_cli(argv))
