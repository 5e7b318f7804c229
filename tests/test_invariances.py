"""Symmetries that the true capacities have, checked on seeded random families.

Relabelling the branches of a memory channel, rotating a branch's
outputs, rotating the inputs of a branch covariant about z about that
axis, or rotating the inputs of every branch by one unitary changes no
capacity. A family's branches are covariant about z, or about the axis
they share after one seeded Haar rotation of all their inputs, which the
reports read in that axis's frame; a branch covariant about no axis is
refused. The reports compute each number from sums and minima taken in
another order then, so they agree to rounding: every check here holds at
abs 1e-13, but for the one rotation of all inputs (see there). A
periodic report's pick is compared by its rotation class, not its
indices: every rotation of a subset has the same rate, and of subsets
that tie within the pick's margin the first in lexicographic order wins,
which a relabelling can change.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capscale.scales as scales
from capscale import (
    QubitChannel,
    ValidationError,
    compute_capacity_report,
    compute_random_scale_report,
    kraus_operators,
    per_branch_suprema,
    subset_scale_value,
)

INVARIANCE = settings(max_examples=60, deadline=None, derandomize=True, database=None)
ABS = 1e-13

X = np.array([[0.0, 1.0], [1.0, 0.0]])
UNIT = st.floats(0.0, 1.0)
SEEDS = st.integers(0, 2**32 - 1)
# (kind, parameter): damping, depolarizing and damping toward |1> (X·AD·X)
COVARIANT = st.one_of(
    st.tuples(st.just("damping"), UNIT),
    st.tuples(st.just("depolarizing"), UNIT),
    st.tuples(st.just("x_damping"), UNIT),
)
# the seed of one Haar rotation of every branch's inputs, or None for none
TURNS = st.one_of(st.none(), SEEDS)


def gaussian(seed, shape):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def haar(seed):
    q, r = np.linalg.qr(gaussian(seed, (2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def channel(spec, turn=None):
    """The branch of spec after the seeded Haar rotation turn of its inputs: Kraus operators K V."""
    kind, param = spec
    if kind == "damping":
        ch = QubitChannel.amplitude_damping(param)
    elif kind == "depolarizing":
        ch = QubitChannel.depolarizing(param)
    else:
        ops = kraus_operators(QubitChannel.amplitude_damping(param))
        ch = QubitChannel.kraus([X @ k @ X for k in ops])
    return ch if turn is None else QubitChannel.kraus([k @ haar(turn) for k in kraus_operators(ch)])


def random_kraus(seed):
    """A random two-operator Kraus channel: the QR of a seeded 4x2 Gaussian."""
    isometry = np.linalg.qr(gaussian(seed, (4, 2)))[0]
    return QubitChannel.kraus([isometry[:2], isometry[2:]])


def output_rotated(ch, seed):
    """ch followed by a seeded Haar-random unitary V: Kraus operators V K."""
    return QubitChannel.kraus([haar(seed) @ k for k in kraus_operators(ch)])


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
@given(st.lists(COVARIANT, min_size=2, max_size=6), st.integers(1, 5), TURNS)
def test_periodic_reports_under_cyclic_shift_and_reversal(specs, shift, turn):
    branches = [channel(s, turn) for s in specs]
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
    st.lists(st.tuples(COVARIANT, st.integers(0, 3)), min_size=2, max_size=6).filter(
        lambda rows: sum(w for _, w in rows) > 0
    ),
    st.randoms(use_true_random=False),
    TURNS,
)
def test_random_tables_under_permutation_with_q(rows, random, turn):
    branches = [channel(s, turn) for s, _ in rows]
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


def assert_same_reports(branches, rotated, tol=ABS):
    """The periodic reports and the random table agree, value by value, within tol."""
    L = len(branches)
    report, moved = compute_capacity_report(branches), compute_capacity_report(rotated)
    assert abs(moved.cp - report.cp) <= tol
    assert abs(moved.cbar - report.cbar) <= tol
    for new, old in zip(moved.per_branch_suprema, report.per_branch_suprema):
        assert abs(new.chi_star - old.chi_star) <= tol
    for new, old in zip(per_branch_suprema(rotated), per_branch_suprema(branches)):
        assert abs(new.chi_star - old.chi_star) <= tol
    for r, entry in report.scale.items():
        assert abs(moved.scale[r].value - entry.value) <= tol
    q = [1.0 / L] * L
    table = compute_random_scale_report(branches, q).per_subset
    for delta, new in compute_random_scale_report(rotated, q).per_subset.items():
        assert abs(new.c_delta - table[delta].c_delta) <= tol
        assert abs(new.cbar_delta - table[delta].cbar_delta) <= tol


@INVARIANCE
@given(
    st.lists(st.tuples(COVARIANT, st.one_of(st.none(), SEEDS)), min_size=1, max_size=5), TURNS
)
def test_reports_under_output_unitaries(rows, turn):
    # a unitary after a branch (None: the branch as it is) changes no entropy
    branches = [channel(s, turn) for s, _ in rows]
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


@INVARIANCE
@given(st.lists(COVARIANT, min_size=1, max_size=5), SEEDS)
def test_reports_under_a_haar_input_rotation(specs, turn):
    # rotating every branch's inputs by one unitary moves the axis the
    # branches share, and the reports read them in its frame. A branch
    # within _FRAME_TOL of isotropic is read in z's frame, which moves its
    # values by about its anisotropy: damping within 1e-9 of 0 or 1 does
    assert_same_reports(
        [channel(s) for s in specs], [channel(s, turn) for s in specs], 10 * scales._FRAME_TOL
    )


@INVARIANCE
@given(SEEDS, st.lists(COVARIANT, max_size=3), TURNS)
def test_random_kraus_branches_are_refused(seed, specs, turn):
    # a random Kraus channel is covariant about no axis: no mirror pair need
    # reach its capacity, so no report or per-branch result takes it
    branches = [channel(s, turn) for s in specs] + [random_kraus(seed)]
    for report in (per_branch_suprema, compute_capacity_report):
        with pytest.raises(ValidationError, match=f"branch {len(specs)} is covariant about no"):
            report(branches)
    with pytest.raises(ValidationError, match="covariant about no"):
        compute_random_scale_report(branches, [1.0 / len(branches)] * len(branches))
