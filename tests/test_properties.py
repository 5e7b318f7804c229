"""Property tests of input validation, and of the values of accepted inputs.

Every input is either accepted or refused with ValidationError, which the
command line turns into exit code 2 and an `error:` line; no other
exception may escape. Of branches covariant about one shared axis, each
printed capacity is the true product-state optimum (oracles.envelope_value)
or the command refuses a branch.
"""

import io
import itertools
import json
import math
import operator
import re
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import capscale.cli as cli
import oracles
from capscale import (
    MemoryChannel,
    QubitChannel,
    ValidationError,
    compute_random_scale_report,
    empirical_staircase,
)
from capscale.simulate import _draw
from conftest import haar_unitary, kraus_entry

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
    "type": lambda v: ([{"type": v, "gamma": 0.3}], {"kind": "periodic"}),
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
        (row,) = empirical_staircase(RAND3, [rate], 64, seed=0, subset=subset)
    except ValidationError:
        pass
    else:
        assert row.subset == tuple(sorted(set(row.subset)))
        assert all(type(i) is int for i in row.subset)
        assert type(row.rate_bits) is float and 0.0 <= row.rate_bits < math.inf
        assert row.n_trials == 64
        counts, _ = _draw(RAND3, row.subset, 64, 0)
        assert counts.sum() == 64

    text = ",".join(map(str, subset)) if isinstance(subset, tuple) else str(subset)
    branches = [{"type": "amplitude_damping", "gamma": g} for g in GAMMAS3]
    path = write_channel(tmp_path, branches, {"kind": "random", "q": [0.5, 0.3, 0.2]})
    argv = ["simulate", path, f"--rate={rate}", f"--subset={text}", "--trials", "64"]
    check_refusal(*run_cli(argv))


ENVELOPE = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
SEEDS = st.integers(0, 2**32 - 1)
# each kind is covariant about z; dephasing and the flat branch (G ∝ I,
# g ≠ 0) need two heights, as do about 40% of the twirled maps
ENVELOPE_KINDS = ("damping", "depolarizing", "x_damping", "dephasing", "flat", "twirled")
_X, _Z = oracles._PAULIS[0], oracles._PAULIS[2]


def covariant_ops(kind, x, rng):
    """Kraus operators of a branch of the kind with parameter x in [0, 1], covariant about z."""
    if kind in ("damping", "x_damping"):
        ops = [np.diag([1.0, math.sqrt(1.0 - x)]), np.array([[0.0, math.sqrt(x)], [0.0, 0.0]])]
        return ops if kind == "damping" else [_X @ k @ _X for k in ops]
    if kind == "depolarizing":  # the Bloch shrink r -> (1 - x) r
        paulis = [math.sqrt(x / 4.0) * s for s in oracles._PAULIS]
        return [math.sqrt(1.0 - 0.75 * x) * np.eye(2), *paulis]
    if kind == "dephasing":
        return [math.sqrt(1.0 - x) * np.eye(2), math.sqrt(x) * _Z]
    if kind == "flat":  # M = x I, t = (0, 0, 1 - x)
        return oracles.bloch_map_kraus(x * np.eye(3), np.array([0.0, 0.0, 1.0 - x]))
    # a random isometry's channel averaged over rotations about z
    v = np.linalg.qr(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))[0]
    M, t = oracles.kraus_bloch_map([v[:2], v[2:]])
    a, b = (M[0, 0] + M[1, 1]) / 2.0, (M[1, 0] - M[0, 1]) / 2.0
    twirled = np.array([[a, -b, 0.0], [b, a, 0.0], [0.0, 0.0, M[2, 2]]])
    return oracles.bloch_map_kraus(twirled, np.array([0.0, 0.0, t[2]]))


def test_envelope_oracle_meets_known_optima():
    # dephasing(0.1) reaches 1 bit with |0> and |1>; a damping branch's
    # optimum is its mirror pair's (40 digits); a monotone-chain hull, an
    # independent computation, gave C_p = 0.7485520096 for [dephasing(0.1),
    # AD(0.3)]; the minimax over λ meets the 40-digit pair minima
    rng = np.random.default_rng(0)
    deph, ad = (oracles.kraus_bloch_map(covariant_ops(kind, x, rng))
                for kind, x in (("dephasing", 0.1), ("damping", 0.3)))
    exact = float(oracles._damping_chi(0.3)(oracles.damping_argmax(0.3)))
    values = oracles.envelope_value([deph, ad], [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    assert values == pytest.approx([1.0, exact, 0.7485520096], abs=1e-9)
    for pair in ((("damping", 0.3), ("damping", 0.7)), (("damping", 0.3), ("x_damping", 0.5))):
        maps = [oracles.kraus_bloch_map(covariant_ops(*branch, rng)) for branch in pair]
        exact = oracles.pair_minimum(*pair)
        assert oracles.envelope_minimax(maps) == pytest.approx(exact, abs=1e-9)


def refused(rc, out, err, L):
    """Whether a command refused a branch of L, with exit code 2 and one error line naming it."""
    if rc == 2:
        named = re.match(r"error: branch (\d+) ", err)
        assert out == "" and err.count("\n") == 1 and named and int(named[1]) < L, err
        return True
    assert rc == 0 and err == "", err
    return False


# (kind, parameter, seed of the output unitary and of a twirled map)
COVARIANT = st.tuples(st.sampled_from(ENVELOPE_KINDS), st.floats(0.0, 1.0), SEEDS)


def turned_ops(kinds, turn):
    """Kraus operators of branches covariant about z (see COVARIANT), all turned by
    one Haar input rotation V (from the seed turn) and each by its own Haar output
    unitary U: Kraus operators U K V."""
    V = haar_unitary(np.random.default_rng(turn))
    ops = []
    for kind, x, seed in kinds:
        rng = np.random.default_rng(seed)
        U = haar_unitary(rng)
        ops.append([U @ k @ V for k in covariant_ops(kind, x, rng)])
    return ops


def check_periodic_optima(tmp_path, ops, r):
    """chi, capacity and scale --r r on periodic memory over the branches ops, against
    envelope_value on every subset; returns each branch's oracle value."""
    maps = [oracles.kraus_bloch_map(k) for k in ops]
    L = len(maps)
    subsets = oracles.all_subsets(L, range(1, L + 1))
    weights = [[i in s for i in range(L)] for s in subsets]
    best = dict(zip(subsets, oracles.envelope_value(maps, weights)))
    chi = [best[(i,)] for i in range(L)]

    def rate(s):  # a subset's periodic rate: its rotations' values over rL
        return sum(best[tuple(sorted((m + k) % L for m in s))] for k in range(L)) / (len(s) * L)

    level = {size: max(rate(s) for s in subsets if len(s) == size) for size in range(1, L + 1)}
    path = write_channel(tmp_path, [kraus_entry(k) for k in ops], {"kind": "periodic"})
    for argv in (["chi"], ["capacity"], ["scale", "--r", str(r)]):
        rc, out, err = run_cli([argv[0], path, *argv[1:], "--format", "json"])
        if refused(rc, out, err, L):
            continue
        got = json.loads(out)
        if argv[0] == "chi":
            assert [row["chi_star"] for row in got] == pytest.approx(chi, abs=1e-8)
        elif argv[0] == "capacity":
            assert got["cp"] == pytest.approx(best[subsets[-1]] / L, abs=1e-8)
            assert got["cbar"] == pytest.approx(sum(chi) / L, abs=1e-8)
            sups = [s["chi_star"] for s in got["per_branch_suprema"]]
            assert sups == pytest.approx(chi, abs=1e-8)
            for size, entry in got["scale"].items():
                assert entry["value_bits"] == pytest.approx(level[int(size)], abs=1e-8)
                picked = rate(tuple(entry["best_subset"]))
                assert picked == pytest.approx(level[int(size)], abs=1e-8)
        else:
            assert got["value_bits"] == pytest.approx(level[r], abs=1e-8)
            assert rate(tuple(got["best_subset"])) == pytest.approx(level[r], abs=1e-8)
    return chi


def check_random_optima(tmp_path, ops, chi, q):
    """random-scale on random memory over two or three branches ops, of oracle values
    chi, against the oracle.

    A singleton's c_delta is its branch's value, and a pair's the minimax of
    the two (envelope_minimax). Of three accepted branches each S_i is
    convex, so one mirror pair is best for all three at once (ROADMAP H) and
    the triple's c_delta is the least of its pairs'. Every λ bounds the
    minimax from above (Sion), so the triple's c_delta is also at most the
    envelope of every λ of a simplex grid: a bound that does not rest on the
    library's Helly rule.
    """
    maps = [oracles.kraus_bloch_map(k) for k in ops]
    L = len(maps)
    path = write_channel(tmp_path, [kraus_entry(k) for k in ops], {"kind": "random", "q": q})
    rc, out, err = run_cli(["random-scale", path, "--format", "json"])
    if refused(rc, out, err, L):
        return
    got = json.loads(out)
    assert [s["chi_star"] for s in got["per_branch_suprema"]] == pytest.approx(chi, abs=1e-8)
    worst = {(i,): chi[i] for i in range(L)}
    worst.update({s: oracles.envelope_minimax([maps[i] for i in s])
                  for s in itertools.combinations(range(L), 2)})
    if L == 3:
        worst[(0, 1, 2)] = min(worst[s] for s in itertools.combinations(range(L), 2))
    deltas = oracles.all_subsets(L, range(1, L + 1))
    assert [tuple(row["delta"]) for row in got["per_subset"]] == deltas
    for row, d in zip(got["per_subset"], deltas):
        expected = (sum(q[i] for i in d), worst[d], max(chi[i] for i in d))
        printed = (row["q_delta"], row["c_delta"], row["cbar_delta"])
        assert printed == pytest.approx(expected, abs=1e-8), d
    if L == 3:
        bound = oracles.envelope_value(maps, oracles.weight_grid(3, 6)).min()
        assert got["per_subset"][-1]["c_delta"] <= bound + 1e-8


@ENVELOPE
@given(kinds=st.lists(COVARIANT, min_size=2, max_size=3), turn=SEEDS, r=st.integers(1, 3))
def test_every_printed_capacity_is_the_optimum_or_a_branch_is_refused(tmp_path, kinds, turn, r):
    # periodic reports on the branches, and a random report on the first two,
    # against the envelope oracle
    ops = turned_ops(kinds, turn)
    chi = check_periodic_optima(tmp_path, ops, min(r, len(ops)))
    check_random_optima(tmp_path, ops[:2], chi[:2], [0.25, 0.75])


# the kinds that the library mostly accepts: of these, only some twirled maps
# need two heights and are refused
CONVEX_COVARIANT = st.tuples(
    st.sampled_from(("damping", "depolarizing", "x_damping", "twirled")), st.floats(0.0, 1.0), SEEDS
)


@settings(ENVELOPE, max_examples=10)
@given(kinds=st.lists(CONVEX_COVARIANT, min_size=4, max_size=4), turn=SEEDS, r=st.integers(1, 4))
def test_printed_capacities_of_more_branches_are_the_optima(tmp_path, kinds, turn, r):
    # periodic reports on four branches, and a random report on the first
    # three, against the envelope oracle: on every subset of the four, and on
    # the triple, whose value the library takes from its pairs (Helly)
    ops = turned_ops(kinds, turn)
    chi = check_periodic_optima(tmp_path, ops, r)
    check_random_optima(tmp_path, ops[:3], chi[:3], [0.2, 0.3, 0.5])
