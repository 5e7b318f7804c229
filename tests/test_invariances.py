"""Symmetries that the true capacities have, checked on seeded random families.

Relabelling the branches of a memory channel, rotating a branch's
outputs, or rotating the inputs of a branch covariant about z about that
axis changes no capacity. The reports compute each number from sums
and minima taken in another order then, so they agree to rounding: every
check here holds at abs 1e-13. A periodic report's pick is compared by
its rotation class, not its indices: every rotation of a subset has the
same rate, and of subsets that tie within the pick's margin the first in
lexicographic order wins, which a relabelling can change.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import capscale.scales as scales
from capscale import (
    QubitChannel,
    compute_capacity_report,
    compute_random_scale_report,
    kraus_operators,
    subset_scale_value,
)

INVARIANCE = settings(max_examples=60, deadline=None, derandomize=True, database=None)
ABS = 1e-13

X = np.array([[0.0, 1.0], [1.0, 0.0]])
UNIT = st.floats(0.0, 1.0)
SEEDS = st.integers(0, 2**32 - 1)
# (kind, parameter): damping, depolarizing, damping toward |1> (X·AD·X),
# and a random two-operator Kraus channel, the QR of a seeded 4x2 Gaussian
COVARIANT = st.one_of(
    st.tuples(st.just("damping"), UNIT),
    st.tuples(st.just("depolarizing"), UNIT),
    st.tuples(st.just("x_damping"), UNIT),
)
BRANCHES = st.one_of(COVARIANT, st.tuples(st.just("kraus"), SEEDS))


def gaussian(seed, shape):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def channel(spec):
    kind, param = spec
    if kind == "damping":
        return QubitChannel.amplitude_damping(param)
    if kind == "depolarizing":
        return QubitChannel.depolarizing(param)
    if kind == "x_damping":
        ops = kraus_operators(QubitChannel.amplitude_damping(param))
        return QubitChannel.kraus([X @ k @ X for k in ops])
    isometry = np.linalg.qr(gaussian(param, (4, 2)))[0]
    return QubitChannel.kraus([isometry[:2], isometry[2:]])


def output_rotated(ch, seed):
    """ch followed by a seeded Haar-random unitary V: Kraus operators V K."""
    q, r = np.linalg.qr(gaussian(seed, (2, 2)))
    v = q * (np.diag(r) / np.abs(np.diag(r)))
    return QubitChannel.kraus([v @ k for k in kraus_operators(ch)])


def input_rotated(ch, angle):
    """ch after a rotation of its inputs by angle about z: Kraus operators K Rz."""
    rz = np.diag([np.exp(-0.5j * angle), np.exp(0.5j * angle)])
    return QubitChannel.kraus([k @ rz for k in kraus_operators(ch)])


def rotation_class(subset, L):
    return frozenset(tuple(sorted((m + k) % L for m in subset)) for k in range(L))


def relabellings(L, shift):
    """New branch j is old branch perm[j]: a cyclic shift and a reversal."""
    return [[(j + shift) % L for j in range(L)], [L - 1 - j for j in range(L)]]


@INVARIANCE
@given(st.lists(BRANCHES, min_size=2, max_size=6), st.integers(1, 5))
def test_periodic_reports_under_cyclic_shift_and_reversal(specs, shift):
    branches = [channel(s) for s in specs]
    L = len(branches)
    report = compute_capacity_report(branches)
    for perm in relabellings(L, shift % L):
        moved = compute_capacity_report([branches[i] for i in perm])
        assert abs(moved.cp - report.cp) <= ABS
        assert abs(moved.cbar - report.cbar) <= ABS
        stars = [s.chi_star for s in report.per_branch_suprema]
        for new, i in zip(moved.per_branch_suprema, perm):
            assert abs(new.chi_star - stars[i]) <= ABS
        for r, entry in report.scale.items():
            assert abs(moved.scale[r].value - entry.value) <= ABS
            pick = tuple(sorted(perm[m] for m in moved.scale[r].best_subset))
            if rotation_class(pick, L) != rotation_class(entry.best_subset, L):
                # another class that ties the level's best within the pick's margin
                assert subset_scale_value(branches, pick) >= entry.value - scales._TIE_EPS - ABS


@INVARIANCE
@given(
    # integer weights: a zero q is common, and all zero is rare
    st.lists(st.tuples(BRANCHES, st.integers(0, 3)), min_size=2, max_size=6).filter(
        lambda rows: sum(w for _, w in rows) > 0
    ),
    st.randoms(use_true_random=False),
)
def test_random_tables_under_permutation_with_q(rows, random):
    branches = [channel(s) for s, _ in rows]
    total = sum(w for _, w in rows)
    q = [w / total for _, w in rows]
    L = len(branches)
    perm = list(range(L))
    random.shuffle(perm)
    table = compute_random_scale_report(branches, q).per_subset
    moved = compute_random_scale_report([branches[i] for i in perm], [q[i] for i in perm])
    assert len(moved.per_subset) == len(table) == 2**L - 1
    for delta, new in moved.per_subset.items():
        old = table[tuple(sorted(perm[m] for m in delta))]
        assert abs(new.q_delta - old.q_delta) <= ABS
        assert abs(new.c_delta - old.c_delta) <= ABS
        assert abs(new.cbar_delta - old.cbar_delta) <= ABS


def assert_same_reports(branches, rotated):
    """The periodic reports and the random table agree, value by value."""
    L = len(branches)
    report, moved = compute_capacity_report(branches), compute_capacity_report(rotated)
    assert abs(moved.cp - report.cp) <= ABS
    assert abs(moved.cbar - report.cbar) <= ABS
    for new, old in zip(moved.per_branch_suprema, report.per_branch_suprema):
        assert abs(new.chi_star - old.chi_star) <= ABS
    for r, entry in report.scale.items():
        assert abs(moved.scale[r].value - entry.value) <= ABS
    q = [1.0 / L] * L
    table = compute_random_scale_report(branches, q).per_subset
    for delta, new in compute_random_scale_report(rotated, q).per_subset.items():
        assert abs(new.c_delta - table[delta].c_delta) <= ABS
        assert abs(new.cbar_delta - table[delta].cbar_delta) <= ABS


@INVARIANCE
@given(st.lists(st.tuples(BRANCHES, st.one_of(st.none(), SEEDS)), min_size=1, max_size=5))
def test_reports_under_output_unitaries(rows):
    # a unitary after a branch (None: the branch as it is) changes no entropy
    branches = [channel(s) for s, _ in rows]
    seeds = [seed for _, seed in rows]
    rotated = [ch if s is None else output_rotated(ch, s) for ch, s in zip(branches, seeds)]
    assert_same_reports(branches, rotated)


@INVARIANCE
@given(st.lists(st.tuples(COVARIANT, st.floats(0.0, 2.0 * np.pi)), min_size=1, max_size=5))
def test_reports_under_input_z_rotations_of_covariant_branches(rows):
    # on a branch covariant about z, a rotation of the inputs about z is
    # one of the outputs
    branches = [channel(s) for s, _ in rows]
    assert_same_reports(branches, [input_rotated(ch, a) for ch, (_, a) in zip(branches, rows)])
