"""Product-state capacities and the scale-of-capacities hierarchy.

All quantities here reduce to one-parameter maximizations of Holevo
curves of mirror-pair ensembles, taken branch by branch and combined as
sums (periodic memory), minima (random memory), or best subsets (the
scale hierarchy). Reports are dataclasses that bundle the numbers with
the subsets that achieve them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channels import MemoryChannel, QubitChannel, check_integer
from .errors import NumericalError, ValidationError
from .holevo import chi_mirror_family
from .optim import maximize_concave_1d

# Subset enumeration is exponential in the number of branches.
MAX_BRANCHES = 12

# Strictly-greater margin for deterministic subset tie-breaking.
_TIE_EPS = 1e-12

# Scan grid of the mirror parameter; a maximization refines the best grid
# point of the combined curves within two grid steps on either side.
_SCAN = np.linspace(1e-9, 1.0 - 1e-9, 257)

# Subsets whose scan rows are gathered at once when bracketing.
_SCAN_BLOCK = 16


def _as_channels(branches) -> tuple[QubitChannel, ...]:
    out = tuple(
        b if isinstance(b, QubitChannel) else QubitChannel.amplitude_damping(b)
        for b in branches
    )
    if not out:
        raise ValidationError("need at least one branch")
    return out


def maximize_subsets(branches, subsets, reduce=np.add, tol: float = 1e-8) -> dict:
    """Best mirror pair of every subset's combined branch curves, at once.

    reduce is np.add (the summed curves, periodic memory) or np.minimum
    (their pointwise minimum, random memory); both keep the combination
    concave. Each branch's curve is evaluated once on the scan grid, and
    each subset's grid argmax, two steps to either side, brackets its
    maximizer. One lockstep golden-section search then refines every
    bracket, with one Holevo kernel call per step over the stacked Bloch
    maps of all (subset, member) pairs. Returns {subset: (argmax, value)}.
    """
    channels = _as_channels(branches)
    subsets = list(dict.fromkeys(subsets))
    M = np.array([ch.bloch_map[0] for ch in channels])
    t = np.array([ch.bloch_map[1] for ch in channels])
    scan = chi_mirror_family((M[:, None], t[:, None]), _SCAN)  # (branch, grid point)
    sizes = np.array([len(s) for s in subsets])
    members = np.concatenate(subsets)  # branch of each (subset, member) pair
    bounds = np.append(0, np.cumsum(sizes))  # each subset's pairs
    # grid argmax of each subset's combined scan rows, a block of subsets at a time
    blocks = (bounds[i:i + _SCAN_BLOCK + 1] for i in range(0, len(subsets), _SCAN_BLOCK))
    k = np.concatenate([
        reduce.reduceat(scan[members[b[0]:b[-1]]], b[:-1] - b[0]).argmax(axis=1) for b in blocks
    ])
    lo = _SCAN[np.maximum(k - 2, 0)]
    hi = _SCAN[np.minimum(k + 2, len(_SCAN) - 1)]
    maps = (M[members], t[members])
    lane = np.repeat(np.arange(len(subsets)), sizes)

    def combined(a):
        return reduce.reduceat(chi_mirror_family(maps, a[lane]), bounds[:-1])

    res = maximize_concave_1d(combined, lo, hi, tol)
    return {s: (float(a), float(v)) for s, a, v in zip(subsets, res.argmax, res.value)}


@dataclass(frozen=True)
class BranchSupremum:
    a_max: float
    chi_star: float


@dataclass(frozen=True)
class ScaleEntry:
    value: float
    best_subset: tuple[int, ...]


@dataclass(frozen=True)
class CapacityReport:
    """Periodic-memory capacities and the full subset-scale hierarchy."""

    cp: float
    cbar: float
    scale: dict[int, ScaleEntry]
    per_branch_suprema: tuple[BranchSupremum, ...]

    @property
    def n_branches(self) -> int:
        return len(self.per_branch_suprema)


@dataclass(frozen=True)
class SubsetScale:
    q_delta: float
    c_delta: float
    cbar_delta: float


@dataclass(frozen=True)
class RandomScaleReport:
    """Subset capacities of a random-memory channel, keyed by subset."""

    q: tuple[float, ...]
    per_subset: dict[tuple[int, ...], SubsetScale]
    per_branch_suprema: tuple[BranchSupremum, ...]


def _suprema(best: dict, L: int) -> tuple[BranchSupremum, ...]:
    return tuple(BranchSupremum(*best[(i,)]) for i in range(L))


def per_branch_suprema(branches, tol: float = 1e-8) -> list[BranchSupremum]:
    channels = _as_channels(branches)
    L = len(channels)
    return list(_suprema(maximize_subsets(channels, [(i,) for i in range(L)], np.add, tol), L))


def _all_subsets(L: int, sizes) -> list[tuple[int, ...]]:
    """Subsets of the given sizes, size-major, then in lexicographic order."""
    if L > MAX_BRANCHES:
        raise ValidationError(f"subset enumeration limited to {MAX_BRANCHES} branches")
    return [s for r in sizes for s in itertools.combinations(range(L), r)]


def _rotations(subset, L: int) -> list[tuple[int, ...]]:
    return [tuple(sorted((m + k) % L for m in subset)) for k in range(L)]


def _subset_value(best: dict, subset: tuple[int, ...], L: int) -> float:
    return sum(best[rotated][1] for rotated in _rotations(subset, L)) / (len(subset) * L)


def check_indices(subset, what: str = "subset") -> tuple[int, ...]:
    """subset as a sorted tuple of distinct integer indices.

    Entries must be integers (anything operator.index accepts) but not
    bools; a fractional or non-numeric entry is refused, never truncated.
    """
    try:
        subset = tuple(subset)
    except TypeError as e:
        raise ValidationError(f"{what} must be a sequence of integer indices: {e}") from e
    subset = tuple(check_integer(i, f"each index of {what}") for i in subset)
    if not subset:
        raise ValidationError(f"{what} must be nonempty")
    if len(set(subset)) != len(subset):
        raise ValidationError(f"{what} has repeated indices: {subset}")
    return tuple(sorted(subset))


def _check_subset(subset, L) -> tuple[int, ...]:
    subset = check_indices(subset)
    if subset[0] < 0 or subset[-1] >= L:
        raise ValidationError(f"subset {subset} out of range for {L} branches")
    return subset


def subset_scale_value(branches, subset, tol: float = 1e-8) -> float:
    """Transmission rate of a fixed subset of branch positions, in bits.

    Averages, over the unknown cyclic offset, the best joint rate of the
    selected positions, normalized per selected position.
    """
    channels = _as_channels(branches)
    L = len(channels)
    subset = _check_subset(subset, L)
    best = maximize_subsets(channels, _rotations(subset, L), np.add, tol)
    return _subset_value(best, subset, L)


def _best_subset(best: dict, L: int, r: int) -> ScaleEntry:
    """Best subset of size r and its rate; first subset in lex order wins ties."""
    best_val = -math.inf
    best_subset = None
    for subset in itertools.combinations(range(L), r):
        v = _subset_value(best, subset, L)
        if v > best_val + _TIE_EPS:
            best_val, best_subset = v, subset
    return ScaleEntry(best_val, best_subset)


def scale_r(branches, r: int, tol: float = 1e-8) -> ScaleEntry:
    """Best subset of size r and its rate; first subset in lex order wins ties."""
    channels = _as_channels(branches)
    L = len(channels)
    if not 1 <= r <= L:
        raise ValidationError(f"r must be in [1, {L}], got {r}")
    # the rotations of a size-r subset are size-r subsets
    best = maximize_subsets(channels, _all_subsets(L, [r]), np.add, tol)
    return _best_subset(best, L, r)


def compute_capacity_report(branches, tol: float = 1e-8) -> CapacityReport:
    """Full periodic report: capacities, per-branch suprema, all scale levels.

    Raises NumericalError if the computed hierarchy fails its own sanity
    checks (endpoints must match the capacities, levels must not increase).
    """
    channels = _as_channels(branches)
    L = len(channels)
    best = maximize_subsets(channels, _all_subsets(L, range(1, L + 1)), np.add, tol)
    sups = _suprema(best, L)
    cbar = sum(s.chi_star for s in sups) / L
    cp = best[tuple(range(L))][1] / L
    scale = {r: _best_subset(best, L, r) for r in range(1, L + 1)}

    if abs(scale[L].value - cp) > 1e-7:
        raise NumericalError(
            f"full-size scale level {scale[L].value!r} disagrees with capacity {cp!r}"
        )
    if abs(scale[1].value - cbar) > 1e-7:
        raise NumericalError(
            f"size-one scale level {scale[1].value!r} disagrees with branch average {cbar!r}"
        )
    for r in range(1, L):
        if scale[r + 1].value > scale[r].value + 1e-9:
            raise NumericalError(f"scale increased from r={r} to r={r + 1}")

    return CapacityReport(cp=cp, cbar=cbar, scale=scale, per_branch_suprema=sups)


def compute_random_scale_report(branches, q, deltas=None, tol: float = 1e-8) -> RandomScaleReport:
    """Subset-capacity table for a random-memory channel.

    c_delta uses a single ensemble that must serve every branch in the
    subset (maximize the worst case); cbar_delta is the best single branch
    in the subset. deltas defaults to every nonempty subset of branches
    (the branch count is capped at MAX_BRANCHES in that case).
    """
    channels = _as_channels(branches)
    L = len(channels)
    q = tuple(float(x) for x in MemoryChannel.random(channels, q).q)
    if deltas is None:
        deltas = _all_subsets(L, range(1, L + 1))
    deltas = [_check_subset(d, L) for d in deltas]
    # a single branch's worst case is its supremum
    best = maximize_subsets(channels, [(i,) for i in range(L)] + deltas, np.minimum, tol)
    sups = _suprema(best, L)
    per_subset = {
        d: SubsetScale(sum(q[i] for i in d), best[d][1], max(sups[i].chi_star for i in d))
        for d in deltas
    }
    return RandomScaleReport(q=q, per_subset=per_subset, per_branch_suprema=sups)
