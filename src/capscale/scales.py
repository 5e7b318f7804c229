"""Product-state capacities and the scale-of-capacities hierarchy.

All quantities here reduce to one-parameter maximizations of Holevo
curves of mirror-pair ensembles, taken branch by branch and combined as
sums (periodic memory), minima (random memory), or best subsets (the
scale hierarchy). Reports are dataclasses that bundle the numbers with
the subsets that achieve them.

The periodic reports refine only the subsets that can still win their
scale level. A random-memory report maximizes only the single branches
and the pairs of branches: each curve is concave, so a subset's worst
case is the smallest of its pairs' worst cases (Helly's theorem in one
dimension), and the table is filled from those.
"""

from __future__ import annotations

import functools
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

# A scale level picks the first subset, in lexicographic order, whose rate
# is within this margin of the level's best rate.
_TIE_EPS = 1e-12

# Rounding margin of the prune. A rate and its bounds are sums of at most
# MAX_BRANCHES**2 terms below one bit each, rounded to within about 1e-14.
_PRUNE_PAD = 1e-12

# Scan grid of the mirror parameter; a maximization refines the best grid
# point of the combined curves within two grid steps on either side.
_SCAN = np.linspace(1e-9, 1.0 - 1e-9, 257)

# Grid of the prune's bounds, _FINE steps per scan step; a subset's bounds
# come from the _WINDOW points of this grid around its bracket.
_FINE = 16
_FINE_GRID = np.linspace(_SCAN[0], _SCAN[-1], _FINE * (len(_SCAN) - 1) + 1)
_WINDOW = 4 * _FINE + 1

# Subsets whose grid rows are gathered at once.
_SCAN_BLOCK = 16


def _as_channels(branches) -> tuple[QubitChannel, ...]:
    out = tuple(
        b if isinstance(b, QubitChannel) else QubitChannel.amplitude_damping(b)
        for b in branches
    )
    if not out:
        raise ValidationError("need at least one branch")
    return out


class _Sweep:
    """A subset sweep: each subset's bracket on the scan grid, its bounds, its refinement.

    reduce (np.add or np.minimum) combines a subset's branch curves. Each
    branch's curve is evaluated once on the scan grid, and each subset's
    grid argmax k of its combined scan rows, two steps to either side,
    brackets its maximizer.
    """

    def __init__(self, channels, subsets, reduce):
        self.M = np.array([ch.bloch_map[0] for ch in channels])
        self.t = np.array([ch.bloch_map[1] for ch in channels])
        self.reduce = reduce
        self.subsets = subsets
        self.members, self.bounds = _pairs(subsets)
        scan = self._curves(_SCAN)

        def grid_argmax(p0, p1, b):
            return reduce.reduceat(scan[self.members[p0:p1]], b).argmax(axis=1)

        self.k = self._blockwise(grid_argmax)

    def _curves(self, a):  # (branch, point)
        return chi_mirror_family((self.M[:, None], self.t[:, None]), a)

    def _blockwise(self, fn):
        """fn(first pair, end pair, local run starts) on blocks of subsets.

        The results are joined on their last axis.
        """
        blocks = range(0, len(self.subsets), _SCAN_BLOCK)
        runs = (self.bounds[i:i + _SCAN_BLOCK + 1] for i in blocks)
        return np.concatenate([fn(b[0], b[-1], b[:-1] - b[0]) for b in runs], axis=-1)

    def bounds_of_maxima(self):
        """Lower and upper bounds on each subset's combined curve's maximum, shape (2, subsets).

        They come from the curves on _FINE_GRID, evaluated once per branch over
        the span of the brackets and gathered per subset from the window that
        holds its bracket (shifted inside the grid at its ends).
        """
        start = np.clip(_FINE * (self.k - 2), 0, len(_FINE_GRID) - _WINDOW)
        first = start.min()
        fine = self._curves(_FINE_GRID[first:start.max() + _WINDOW])
        cols = start - first
        lane = np.repeat(np.arange(len(self.subsets)), np.diff(self.bounds))

        def window_sums(p0, p1, b):  # (window point, subset)
            rows = fine[self.members[p0:p1, None], cols[lane[p0:p1], None] + np.arange(_WINDOW)]
            return self.reduce.reduceat(rows, b).T

        return _peak_bounds(self._blockwise(window_sums).T)

    def refine(self, lanes, tol):
        """Refine the brackets of the subsets at lanes in one lockstep search.

        The golden-section search makes one Holevo kernel call per step, over
        the stacked Bloch maps of all those subsets' (subset, member) pairs.
        """
        members, bounds = _pairs([self.subsets[i] for i in lanes])
        k = self.k[lanes]
        lo = _SCAN[np.maximum(k - 2, 0)]
        hi = _SCAN[np.minimum(k + 2, len(_SCAN) - 1)]
        maps = (self.M[members], self.t[members])
        lane = np.repeat(np.arange(len(lanes)), np.diff(bounds))

        def combined(a):
            return self.reduce.reduceat(chi_mirror_family(maps, a[lane]), bounds[:-1])

        return maximize_concave_1d(combined, lo, hi, tol)


def _pairs(subsets):
    """The branch of each (subset, member) pair, and where each subset's pairs start and end."""
    return np.concatenate(subsets), np.append(0, np.cumsum([len(s) for s in subsets]))


def _peak_bounds(F) -> np.ndarray:
    """Lower and upper bounds on the maxima of concave curves sampled on the rows of F.

    The lower bound is a row's largest sample, at j. The maximum lies within
    a step of j, where the curve lies below both the chord through samples
    j-2, j-1 extended right and the chord through j+1, j+2 extended left;
    the upper bound is the highest point below both. A chord that runs off
    the row's end caps nothing. Returns shape (2, rows).
    """
    cols = F.argmax(axis=1)[:, None] + np.arange(-2, 3)  # samples j-2 .. j+2
    inside = (cols >= 0) & (cols < F.shape[1])
    near = np.take_along_axis(F, np.clip(cols, 0, F.shape[1] - 1), axis=1)
    near[~inside] = -np.inf
    p, q, top, r, s = near.T
    # a missing sample is -inf: its chord's rise is +inf or nan, and the nan
    # points it gives are skipped by fmin and fmax
    with np.errstate(invalid="ignore", divide="ignore"):
        up, down = q - p, r - s

        def cap(u):  # the lower chord at u steps right of sample j-1, u in [0, 2]
            return np.fmin(q + up * u, r + down * (2.0 - u))

        cross = np.clip((r + 2.0 * down - q) / (up + down), 0.0, 2.0)
        upper = np.fmax(np.fmax(cap(0.0), cap(2.0)), cap(cross))
    return np.stack([top, upper])


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
    subsets = list(dict.fromkeys(subsets))
    sweep = _Sweep(_as_channels(branches), subsets, reduce)
    res = sweep.refine(np.arange(len(subsets)), tol)
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


def _masks(members, bounds) -> np.ndarray:
    """Subsets as bitmasks (bit m set for member m), from their stacked members."""
    return np.bitwise_or.reduceat(1 << members, bounds[:-1])


def _rotations(masks, L: int) -> np.ndarray:
    """Cyclic rotations of bitmask subsets, shape (subsets, L).

    Column k moves each member m to (m + k) mod L.
    """
    k = np.arange(L)
    masks = np.asarray(masks)[:, None]
    return ((masks << k) | (masks >> (L - k))) & ((1 << L) - 1)


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
    rotations = [tuple(sorted((m + k) % L for m in subset)) for k in range(L)]
    best = maximize_subsets(channels, rotations, np.add, tol)
    return sum(best[rotated][1] for rotated in rotations) / (len(subset) * L)


def _best_subset(rated) -> ScaleEntry:
    """The first (subset, rate) of rated whose rate is within _TIE_EPS of the best.

    rated is in lexicographic order. Leaving out a subset rated more than
    _TIE_EPS below the best cannot change this pick, as it could for a scan
    that replaces its pick on each gain above _TIE_EPS.
    """
    top = max(v for _, v in rated)
    return next(ScaleEntry(v, s) for s, v in rated if v >= top - _TIE_EPS)


def _scale_levels(channels, sizes, tol: float) -> tuple[dict, dict]:
    """Best subset of each size in sizes, refining only the subsets that can win.

    A size-r subset's rate is the sum of its L rotations' maxima over rL.
    Each summed curve is concave, so its samples on a grid 16 times finer
    than the scan bound its maximum from below (the best sample) and from
    above (where the secant lines either side of that sample meet); a
    subset's rate bounds are its rotations' bounds summed over rL. At a
    level with 1 < r < L, a subset is refined only if its upper rate plus
    _PRUNE_PAD reaches the level's best lower rate less _TIE_EPS; the
    singletons (the per-branch suprema) and the full set are always
    refined. One lockstep search refines the rotations of the kept subsets.
    A pruned subset must then lie more than _TIE_EPS below its level's best
    refined rate; one that does not (only a coarse tol falls that far short
    of the lower bounds) is refined in another search. So no pruned subset
    can be the pick of _best_subset, and each level's pick and rate are
    those that refining every subset gives.

    Returns {r: ScaleEntry} and {subset: (argmax, value)} of the refined subsets.
    """
    L = len(channels)
    subsets = _all_subsets(L, sizes)  # size-major, then lexicographic
    sweep = _Sweep(channels, subsets, np.add)
    masks = _masks(sweep.members, sweep.bounds)
    row = np.zeros(1 << L, dtype=int)
    row[masks] = np.arange(len(subsets))
    rot = row[_rotations(masks, L)]  # the row of each subset's k-th rotation
    size = np.diff(sweep.bounds)
    per = size * L
    counts = [math.comb(L, r) for r in sizes]
    ends = np.cumsum(counts)
    starts = ends - counts  # each level's rows

    def level_max(x):
        return np.repeat(np.maximum.reduceat(x, starts), ends - starts)

    # the singletons are the per-branch suprema, and the full set is alone
    # at its level: only the levels between them take bounds
    keep = (size == 1) | (size == L)
    upper = np.full(len(subsets), np.inf)
    if not keep.all():
        lower, upper = sweep.bounds_of_maxima()[:, rot].sum(axis=-1) / per
        keep |= upper + _PRUNE_PAD >= level_max(lower) - _TIE_EPS
    argmax, value = np.full((2, len(subsets)), np.nan)
    rate = np.full(len(subsets), -np.inf)
    while True:
        wanted = np.zeros(len(subsets), dtype=bool)
        wanted[rot[keep]] = True
        lanes = np.flatnonzero(wanted & np.isnan(value))
        if len(lanes):
            res = sweep.refine(lanes, tol)
            argmax[lanes], value[lanes] = res.argmax, res.value
        # rotation values summed in the order k = 0..L-1
        rate[keep] = functools.reduce(np.add, value[rot[keep]].T) / per[keep]
        more = ~keep & (upper + _PRUNE_PAD >= level_max(rate) - _TIE_EPS)
        if not more.any():
            break
        keep |= more
    scale = {
        int(size[a]): _best_subset([(subsets[i], float(rate[i])) for i in range(a, b) if keep[i]])
        for a, b in zip(starts, ends)
    }
    refined = np.flatnonzero(~np.isnan(value))
    best = {subsets[i]: (float(argmax[i]), float(value[i])) for i in refined}
    return scale, best


def scale_r(branches, r: int, tol: float = 1e-8) -> ScaleEntry:
    """Best subset of size r and its rate.

    The pick is the first size-r subset in lexicographic order whose rate
    is within _TIE_EPS of the best size-r rate. Only the subsets whose
    bounds let them reach that margin are refined (see _scale_levels); the
    pick and its rate are those of refining every subset.
    """
    channels = _as_channels(branches)
    L = len(channels)
    if not 1 <= r <= L:
        raise ValidationError(f"r must be in [1, {L}], got {r}")
    # the rotations of a size-r subset are size-r subsets
    scale, _ = _scale_levels(channels, [r], tol)
    return scale[r]


def compute_capacity_report(branches, tol: float = 1e-8) -> CapacityReport:
    """Full periodic report: capacities, per-branch suprema, all scale levels.

    Each level is picked as in scale_r, from one lockstep search over the
    rotations of the subsets that can win their level, every singleton and
    the full set.

    Raises NumericalError if the computed hierarchy fails its own sanity
    checks (endpoints must match the capacities, levels must not increase).
    """
    channels = _as_channels(branches)
    L = len(channels)
    scale, best = _scale_levels(channels, range(1, L + 1), tol)
    sups = _suprema(best, L)
    cbar = sum(s.chi_star for s in sups) / L
    cp = best[tuple(range(L))][1] / L

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


def _padded_members(deltas, L: int) -> np.ndarray:
    """The members of each delta in increasing order, one row per delta.

    Rows are padded with L to at least two columns.
    """
    sizes = np.fromiter(map(len, deltas), int, len(deltas))
    members = np.fromiter(itertools.chain.from_iterable(deltas), int, int(sizes.sum()))
    rows = np.repeat(np.arange(len(deltas)), sizes)
    cols = np.arange(len(members)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    idx = np.full((len(deltas), max(2, sizes.max(initial=0))), L)
    idx[rows, cols] = members
    return idx


def compute_random_scale_report(branches, q, deltas=None, tol: float = 1e-8) -> RandomScaleReport:
    """Subset-capacity table for a random-memory channel.

    c_delta uses a single ensemble that must serve every branch in the
    subset (maximize the worst case); cbar_delta is the best single branch
    in the subset; q_delta is the probability that the drawn branch lies
    in it. deltas defaults to every nonempty subset of branches (the
    branch count is capped at MAX_BRANCHES in that case); deltas passed
    in are validated, the enumerated ones are not.

    Every c_delta comes from one maximization over the L singletons and
    the pairs of branches that the deltas contain (L + C(L, 2) lanes for
    the full table), not one per delta: a subset's worst case is the
    smallest of its pairs' worst cases (see _fill_subsets).
    """
    channels = _as_channels(branches)
    L = len(channels)
    q = tuple(float(x) for x in MemoryChannel.random(channels, q).q)
    if deltas is None:
        deltas = _all_subsets(L, range(1, L + 1))
    else:
        deltas = [_check_subset(d, L) for d in deltas]
    idx = _padded_members(deltas, L)
    member = np.zeros((len(deltas), L + 1))
    member[np.arange(len(deltas))[:, None], idx] = 1.0
    shared = np.triu(member.T @ member, 1)[:L, :L]  # deltas holding both i < m
    pairs = [tuple(p) for p in np.argwhere(shared).tolist()]
    # a single branch's worst case is its supremum
    best = maximize_subsets(channels, [(i,) for i in range(L)] + pairs, np.minimum, tol)
    sups = _suprema(best, L)
    q_delta, c_delta, cbar_delta = _fill_subsets(idx, q, sups, {p: best[p][1] for p in pairs})
    per_subset = {
        d: SubsetScale(*row) for d, row in zip(deltas, zip(q_delta, c_delta, cbar_delta))
    }
    return RandomScaleReport(q=q, per_subset=per_subset, per_branch_suprema=sups)


def _fill_subsets(idx, q, sups, pair_values) -> tuple[list, list, list]:
    """q_delta, c_delta and cbar_delta of the deltas whose members are the rows of idx.

    Each mirror-family curve chi_i(a) is concave on [0, 1] (the search
    assumes it), so each superlevel set {a : chi_i(a) >= c} is an interval,
    and by Helly's theorem in one dimension intervals that meet pairwise
    share a point. Hence max_a min_{i in delta} chi_i(a) is the smallest
    of the pair values max_a min(chi_i, chi_j)(a) over the pairs in delta,
    or the supremum for a single branch. This holds on the mirror family
    only: a branch whose best ensemble lies outside it needs the direct
    minimax over delta, not this rule.

    All three columns follow one recurrence, adding the members of every
    delta in increasing order at once: with m the member added,
    c(delta) = min(c(delta - {m}), min over i in delta - {m} of pair(i, m)),
    q(delta) = q(delta - {m}) + q_m (so the sum keeps the bits of summing
    q over delta in order) and cbar(delta) = max(cbar(delta - {m}), chi*_m).
    The padding index L adds nothing to any of them.
    """
    L = len(q)
    pair = np.full((L + 1, L + 1), np.inf)
    for (i, m), v in pair_values.items():
        pair[i, m] = v
    q_ext = np.append(q, 0.0)
    sup_ext = np.append([s.chi_star for s in sups], -np.inf)
    q_delta = np.zeros(len(idx))
    c_delta = np.full(len(idx), np.inf)
    cbar_delta = np.full(len(idx), -np.inf)
    for k, m in enumerate(idx.T):
        c_delta = np.minimum(c_delta, pair[idx[:, :k], m[:, None]].min(axis=1, initial=np.inf))
        q_delta = q_delta + q_ext[m]
        cbar_delta = np.maximum(cbar_delta, sup_ext[m])
    c_delta = np.where(idx[:, 1] == L, sup_ext[idx[:, 0]], c_delta)
    # q may sum to 1 + 1e-10; a probability stays at most 1
    return np.minimum(q_delta, 1.0).tolist(), c_delta.tolist(), cbar_delta.tolist()
