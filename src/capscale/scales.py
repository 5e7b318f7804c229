"""Product-state capacities and the scale-of-capacities hierarchy.

All quantities here reduce to one-parameter maximizations of Holevo
curves of mirror-pair ensembles: of their sums over subsets of branches
(periodic memory, the scale hierarchy) and of their pairwise minima
(random memory). Reports are dataclasses that bundle the numbers with
the subsets that achieve them.

The periodic reports refine only the subsets that can still win their
scale level. A random-memory report maximizes only the single branches:
each curve is concave, so a pair's worst case is a member's peak value
or the value where the two curves cross, and a subset's is the smallest
of its pairs' (Helly's theorem in one dimension).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channels import MemoryChannel, QubitChannel, check_integer, listed
from .errors import NumericalError, ValidationError
from .holevo import mirror_chi, mirror_chi_jet, mirror_form
from .optim import maximize_concave_1d

# Subset enumeration is exponential in the number of branches.
MAX_BRANCHES = 12

# A scale level picks the first subset, in lexicographic order, whose rate
# is within this margin of the level's best rate.
_TIE_EPS = 1e-12

# Most elements of a block of temporaries: of the window sums of a block of
# subsets in _Sweep, and of the masked pair values of a block of deltas in
# _fill_subsets.
_BLOCK = 2**16

# Rounding margin of the prune. A rate and its bounds are sums of at most
# MAX_BRANCHES**2 terms below one bit each, rounded to within about 1e-14.
_PRUNE_PAD = 1e-12

# Scan grid of the mirror parameter; a maximization refines the best grid
# point of the combined curves within two grid steps on either side.
_SCAN = np.linspace(1e-9, 1.0 - 1e-9, 257)

# Grid of the prune's bounds, _FINE steps per scan step. A subset's bounds
# come from three points of this grid about its peak; where the middle one
# is below a neighbour, it has no upper bound and is refined.
_FINE = 16
_FINE_GRID = np.linspace(_SCAN[0], _SCAN[-1], _FINE * (len(_SCAN) - 1) + 1)

# (subset, member) pairs per call of the Holevo kernel's jet in a refine: the
# kernel's dozen temporaries then stay near 1 MiB, whatever the lane count.
_REFINE_BLOCK = 1024


def _as_channels(branches) -> tuple[QubitChannel, ...]:
    out = tuple(
        b if isinstance(b, QubitChannel) else QubitChannel.amplitude_damping(b)
        for b in listed(branches, "branches", "channels or damping parameters")
    )
    if not out:
        raise ValidationError("need at least one branch")
    return out


class _Sweep:
    """A subset sweep: each subset's bracket on the scan grid, its bounds, its refinement.

    A subset's curve is the sum of its branch curves. The sweep holds its
    subsets once, as a member matrix (members, shape (subsets, largest
    size), and size): each row holds a subset's members, then the index
    of the row of zeros appended to each table of branch curves (see
    _with_zero_row). So one in-order sum over the matrix's columns
    (_combined) serves every subset size, and each subset's sum keeps the
    bits of adding its curves in member order: the scan, the quartic
    peaks, the bounds and the refine (over a table of kernel jets) all sum
    through it. Curves are evaluated from each branch's mirror_form, shape
    (6, branch), computed once. Each branch's curve is evaluated once on
    the scan grid (scan, shape (branch + 1, len(_SCAN)), the zero row
    last), and each subset's grid argmax k of its summed scan rows, two
    steps to either side, brackets its maximizer. The peak of the quartic
    through its five summed scan samples about k, moved inside the grid
    at its ends (peak, in scan steps from their middle column, centre;
    see _quartic_peak), is computed once and places both the subset's
    bounds and its refine's start.

    Each subset's scan rows are summed only over the scan columns
    [start, end] where the first argmax of their in-order sum can lie,
    which gives its k bit for bit. Let each row be nondecreasing on
    columns [0, up] and nonincreasing on [down, 256]: a unimodal row's
    down is its first grid maximum and up its last, and a flat row has
    up = 256 and down = 0. Rounding is monotone, so every in-order sum of
    rows, a single row among them, is nondecreasing on [0, min up] and
    nonincreasing on [max down, 256]. Let end = max down and
    start = max(min(min up, end) - 1, 0). No column after end exceeds
    column end, and none before start exceeds column start, which exceeds
    no column up to start + 1. So the sum's first argmax is its first
    argmax on [start, end], unless that is column start > 0, which then
    ties with the column after it and may tie with those before it: only
    such a subset (one of flat members only, say) is summed again over
    its whole rows. No row need be unimodal: a curve below the kernel's
    rounding (damping within about 1e-14 of 1) scans to rounding noise,
    whose sums can peak outside the span of their rows' first maxima. A
    NaN step counts as a rise and a fall, so the window also holds each
    row's first NaN, where argmax stops. On spread damping families the
    window is 5-20 of the 257 columns; a sweep of single branches sums
    over the whole rows. The window is summed over blocks of subsets of at
    most _BLOCK elements, each block's matrix cut to its largest subset: a
    report's subsets come size-major, so a block adds few zero rows.
    """

    def __init__(self, channels, subsets):
        self.form = mirror_form(zip(*(ch.bloch_map for ch in channels)))  # stacked (M, t)
        self.subsets = subsets
        self.members, self.size = _member_matrix(subsets, len(channels))
        scan = self.scan = _with_zero_row(self._curves(_SCAN))
        start, end = _window(scan) if self.members.shape[1] > 1 else (0, len(_SCAN) - 1)
        width = end - start + 1
        block = max(1, _BLOCK // width)  # subsets per sum: its temporaries stay small
        k = self.k = np.empty(len(subsets), dtype=int)
        for s in range(0, len(subsets), block):
            rows = slice(s, s + block)
            members = self.members[rows, :self.size[rows].max()]  # to the block's largest size
            k[rows] = start + _combined(scan, members, start, width).argmax(axis=1)
        tie = np.flatnonzero(k == start) if start else []  # may tie with the column before
        if len(tie):
            k[tie] = _combined(scan, self.members[tie], 0, len(_SCAN)).argmax(axis=1)
        self.centre = k.clip(2, len(_SCAN) - 3)

    @functools.cached_property
    def peak(self):
        """Each subset's quartic peak, in scan steps from its centre, NaN where there is none."""
        return _quartic_peak(_combined(self.scan, self.members, self.centre - 2, 5))

    def _curves(self, a):  # (branch, point)
        return mirror_chi(self.form[:, :, None], a)

    def bounds_of_maxima(self):
        """Lower and upper bounds on each subset's combined curve's maximum, shape (2, subsets).

        A subset's summed curve is read at three columns of _FINE_GRID: the
        column nearest its quartic peak (k's where the quartic has none),
        moved inside the grid at its ends, and its two neighbours. The
        curves are evaluated once per branch over the span of those columns.
        _peak_bounds of the three columns gives the bounds: where the middle
        column is not below either neighbour, the summed curve, which is
        concave, peaks within a step of it; any other subset gets +inf as
        its upper bound, so the prune keeps it and the refine settles it.
        """
        # the fine column nearest the quartic's peak, or k's where it has none
        offset = np.where(np.isnan(self.peak), self.k - self.centre, self.peak)
        mid = _FINE * self.centre + np.rint(_FINE * offset).astype(int)
        mid = mid.clip(1, len(_FINE_GRID) - 2)
        first = mid.min() - 1
        fine = _with_zero_row(self._curves(_FINE_GRID[first:mid.max() + 2]))
        return _peak_bounds(_combined(fine, self.members, mid - 1 - first, 3))

    def refine(self, lanes, tol):
        """Refine the brackets of the subsets at lanes in one lockstep search.

        The slope-bracketed search evaluates the Holevo kernel's jet once
        per step, at its three points per subset, over the form columns of
        all those subsets' (subset, member) pairs, read once from the member
        matrix, in calls of at most _REFINE_BLOCK pairs. The jets are the
        rows of a table that ends in a zero row, and a lane's value, slope
        and curvature are the in-order sums (_combined) of its pairs' rows,
        over a matrix laid out like the member matrix, padded with the zero
        row. Each lane starts at its quartic peak, which at tol 1e-8 is
        usually within tol/8 of its maximizer, so that the first step closes
        its bracket, and proposes its summed curve's Newton point (NaN where
        the summed curvature is not negative).
        """
        size = self.size[lanes]
        rows = self.members[lanes]
        real = np.arange(rows.shape[1]) < size[:, None]
        form = self.form.take(rows[real], axis=1)  # in member order; take keeps it C-ordered
        lane = np.repeat(np.arange(len(lanes)), size)
        pairs = np.where(real, real.cumsum().reshape(real.shape) - 1, len(lane))  # rows of table
        k = self.k[lanes]
        lo = _SCAN[np.maximum(k - 2, 0)]
        hi = _SCAN[np.minimum(k + 2, len(_SCAN) - 1)]
        start = _SCAN[self.centre[lanes]] + self.peak[lanes] * (_SCAN[1] - _SCAN[0])
        table = np.zeros((len(lane) + 1, 3, 3))  # each pair's jet at each point, then zeros
        jet = table[:-1].T  # (value, slope, curvature), point, pair: a view

        def summed(a):  # a: (3, lanes)
            at = a.take(lane, axis=1)
            # the kernel is elementwise: each block's values keep their bits
            for s in range(0, len(lane), _REFINE_BLOCK):
                block = slice(s, s + _REFINE_BLOCK)
                jet[:, :, block] = mirror_chi_jet(form[:, block], at[:, block])
            value, slope, curv = _combined(table.reshape(-1, 9), pairs, 0, 9).reshape(-1, 3, 3).T
            return value, slope, a - _newton_step(slope, np.minimum(curv, 0.0))

        return maximize_concave_1d(summed, lo, hi, tol, start)


def _member_matrix(subsets, pad: int):
    """Each subset's members, then pad, a row each (shape (subsets, largest size)), and sizes."""
    size = np.fromiter(map(len, subsets), int, len(subsets))
    members = np.full((len(subsets), size.max(initial=0)), pad)
    flat = np.fromiter(itertools.chain.from_iterable(subsets), int, size.sum())
    members[np.arange(members.shape[1]) < size[:, None]] = flat  # row by row
    return members, size


def _combined(rows, members, at, width):
    """Each subset's sum of its member rows' columns at + [0, width), in member order.

    members is a member matrix into the C-contiguous rows (see
    _member_matrix), and at one first column for every subset or one for
    each. The windows of rows that start in [min at, max at] are copied to
    a contiguous row each, and each member position adds one gather of
    those rows. Returns shape (subsets, width).
    """
    at = np.asarray(at)
    lo = at.min()
    starts = at.max() - lo + 1
    r, c = rows.strides
    # windows[i * starts + j]: row i's columns lo + j + [0, width)
    windows = np.ndarray((len(rows), starts, width), rows.dtype, rows, lo * c, (r, c, c))
    windows = windows.reshape(-1, width)  # a row per window
    at = at - lo
    out = windows.take(members[:, 0] * starts + at, axis=0)  # a new array
    for d in range(1, members.shape[1]):
        out += windows.take(members[:, d] * starts + at, axis=0)
    return out


def _window(scan):
    """start and end of the scan columns [start, end] that _Sweep defines."""
    step = np.diff(scan, axis=1)
    # the steps where some row falls or rises; a NaN step does both
    falls = np.flatnonzero(~(step >= 0.0).all(axis=0))
    rises = np.flatnonzero(~(step <= 0.0).all(axis=0))
    end = rises[-1] + 1 if len(rises) else 0
    start = max(min(falls[0] if len(falls) else len(_SCAN) - 1, end) - 1, 0)
    return start, end


def _with_zero_row(rows):
    """rows with a row of zeros appended: adding it to a sum keeps the sum's bits."""
    return np.concatenate([rows, np.zeros((1, rows.shape[1]))])


def _quartic_peak(F):
    """Offset of the peak of the quartic through each row of F's five samples.

    The offset is in sample steps from the middle sample. The quartic's
    derivatives there are the central differences of the row; three Newton
    steps on its slope from -f'/f'' give the offset. NaN where f'' is not
    negative or the offset lies beyond the row.
    """
    m2, m1, f0, p1, p2 = F.T
    d1 = (m2 - p2 + 8.0 * (p1 - m1)) / 12.0
    d2 = (16.0 * (m1 + p1) - 30.0 * f0 - m2 - p2) / 12.0
    d3 = 0.5 * (p2 - m2) - (p1 - m1)
    d4 = m2 + p2 - 4.0 * (m1 + p1) + 6.0 * f0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -d1 / d2
        for _ in range(3):
            t -= (d1 + t * (d2 + t * (0.5 * d3 + t * d4 / 6.0))) / (d2 + t * (d3 + 0.5 * t * d4))
    return np.where((d2 < 0.0) & (np.abs(t) <= 2.0), t, np.nan)


def _newton_step(num, den):
    """num / den where den is nonzero, NaN elsewhere."""
    return np.divide(num, den, out=np.full(np.shape(num), np.nan), where=den != 0.0)


def _peak_bounds(F) -> np.ndarray:
    """Lower and upper bounds on the maxima of concave curves sampled at the three columns of F.

    The lower bound is a row's largest sample. Where that is its middle
    sample, the row's maximum lies within a step of it. On the step right
    of it the curve lies below the chord through the left and middle
    samples, extended, so below 2 F[1] - F[0]; on the step left of it,
    below 2 F[1] - F[2]. The upper bound is the larger of the two, so a
    flat row gets upper == lower. Any other row's upper bound is +inf.
    Returns shape (2, rows).
    """
    left, mid, right = F.T
    lower = F.max(axis=1)
    return np.stack([lower, np.where(mid >= lower, 2.0 * mid - np.minimum(left, right), np.inf)])


def maximize_subsets(branches, subsets, tol: float = 1e-8) -> dict:
    """Best mirror pair of every subset's summed branch curves, at once.

    Each branch's curve is evaluated once on the scan grid, and each
    subset's grid argmax, two steps to either side, brackets the maximizer
    of its summed curves, which are concave. One lockstep search then
    refines every bracket from their slopes' signs and Newton points (see
    optim.maximize_concave_1d), starting at the peak of the quartic through
    the five scan samples about each argmax: at tol 1e-8 it takes one step,
    Holevo kernel calls of at most 1,024 (subset, member) pairs each.
    Each subset is checked as in subset_scale_value. Returns
    {subset: (argmax, value)}, keyed by each subset as a sorted tuple.
    """
    channels = _as_channels(branches)
    subsets = [_check_subset(s, len(channels)) for s in listed(subsets, "subsets", "subsets")]
    return _maximize(channels, subsets, tol) if subsets else {}


def _maximize(channels, subsets, tol) -> dict:
    """maximize_subsets on a nonempty list of checked subsets."""
    subsets = list(dict.fromkeys(subsets))
    sweep = _Sweep(channels, subsets)
    res = sweep.refine(np.arange(len(subsets)), tol)
    return {s: (float(a), float(v)) for s, a, v in zip(subsets, res.argmax, res.value)}


@dataclass(frozen=True)
class BranchSupremum:
    """A branch's best mirror pair, at a_max, and its value chi_star.

    bracket is the search's final (lo, hi): it holds a_max and, up to the
    rounding of the slopes, the curve's maximizer, and it is narrower than
    the search's tol. On a flat curve (chi_star = 0, as at damping 1 or
    depolarizing 1) every point is a maximizer, and the bracket is the
    stretch of the search's points whose zero slopes crossed, at most
    tol/4 wide. slope is the curve's slope at a_max.
    """

    a_max: float
    chi_star: float
    bracket: tuple[float, float]
    slope: float


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


def _found(res) -> np.ndarray:
    """A search's argmax, value, lo, hi and slope, stacked: shape (5, lanes)."""
    return np.stack((res.argmax, res.value, res.lo, res.hi, res.slope))


def _suprema(found) -> tuple[BranchSupremum, ...]:
    """The BranchSupremum of each column (argmax, value, lo, hi, slope) of found."""
    return tuple(BranchSupremum(a, v, (lo, hi), s) for a, v, lo, hi, s in found.T.tolist())


def _singletons(channels, tol):
    """The sweep of the single branches, and its search of every one as _found stacks it."""
    sweep = _Sweep(channels, [(i,) for i in range(len(channels))])
    return sweep, _found(sweep.refine(np.arange(len(channels)), tol))


def per_branch_suprema(branches, tol: float = 1e-8) -> list[BranchSupremum]:
    return list(_suprema(_singletons(_as_channels(branches), tol)[1]))


def _all_subsets(L: int, sizes) -> list[tuple[int, ...]]:
    """Subsets of the given sizes, size-major, then in lexicographic order."""
    if L > MAX_BRANCHES:
        raise ValidationError(f"subset enumeration limited to {MAX_BRANCHES} branches")
    return [s for r in sizes for s in itertools.combinations(range(L), r)]


def _rotations(masks, L: int) -> np.ndarray:
    """Cyclic rotations of bitmask subsets, shape (L, subsets).

    Row k moves each member m to (m + k) mod L.
    """
    k = np.arange(L)[:, None]
    masks = np.asarray(masks)
    return ((masks << k) | (masks >> (L - k))) & ((1 << L) - 1)


def check_indices(subset, what: str = "subset") -> tuple[int, ...]:
    """subset as a sorted tuple of distinct integer indices.

    Entries must be integers (anything operator.index accepts) but not
    bools; a fractional or non-numeric entry is refused, never truncated.
    """
    indices = listed(subset, what, "integer indices")
    subset = tuple(check_integer(i, f"each index of {what}") for i in indices)
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
    best = _maximize(channels, rotations, tol)
    return sum(best[rotated][1] for rotated in rotations) / (len(subset) * L)


def _best_subset(rated) -> ScaleEntry:
    """The first (subset, rate) of rated whose rate is within _TIE_EPS of the best.

    rated is in lexicographic order. Leaving out a subset rated more than
    _TIE_EPS below the best cannot change this pick, as it could for a scan
    that replaces its pick on each gain above _TIE_EPS.
    """
    top = max(v for _, v in rated)
    return next(ScaleEntry(v, s) for s, v in rated if v >= top - _TIE_EPS)


def _scale_levels(channels, sizes, tol: float) -> tuple[dict, np.ndarray]:
    """Best subset of each size in sizes, refining only the subsets that can win.

    A size-r subset's rate is the sum of its L rotations' maxima over rL.
    Each summed curve is concave, so its samples on a grid 16 times finer
    than the scan bound its maximum from below (a sample near its peak) and,
    where the middle of the three samples about the peak is the highest,
    from above (see _Sweep.bounds_of_maxima; the upper bound is +inf
    elsewhere); a subset's rate bounds are its rotations' bounds summed over
    rL. At a level with 1 < r < L, a subset is refined only if its upper
    rate plus _PRUNE_PAD reaches the level's best lower rate less _TIE_EPS; the
    singletons (the per-branch suprema) and the full set are always
    refined. One lockstep search refines the rotations of the kept subsets.
    A pruned subset must then lie more than _TIE_EPS below its level's best
    refined rate; one that does not (only a coarse tol falls that far short
    of the lower bounds) is refined in another search. So no pruned subset
    can be the pick of _best_subset, and each level's pick and rate are
    those that refining every subset gives.

    Returns {r: ScaleEntry} and each subset's search results as _found
    stacks them, shape (5, subsets), NaN for a subset not refined; the
    subsets are in _all_subsets' order.
    """
    L = len(channels)
    subsets = _all_subsets(L, sizes)  # size-major, then lexicographic
    sweep = _Sweep(channels, subsets)
    # bit m set for member m; the padding index L sets bit L, masked off
    masks = functools.reduce(np.bitwise_or, (1 << sweep.members).T) & ((1 << L) - 1)
    row = np.zeros(1 << L, dtype=int)
    row[masks] = np.arange(len(subsets))
    rot = row[_rotations(masks, L)]  # rot[k, i]: the row of subset i's k-th rotation
    size = sweep.size
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
        lower, upper = sweep.bounds_of_maxima().take(rot, axis=1).sum(axis=1) / per
        keep |= upper + _PRUNE_PAD >= level_max(lower) - _TIE_EPS
    found = np.full((5, len(subsets)), np.nan)
    value = found[1]  # a view
    rate = np.full(len(subsets), -np.inf)
    while True:
        wanted = np.zeros(len(subsets), dtype=bool)
        wanted[rot[:, keep]] = True
        lanes = np.flatnonzero(wanted & np.isnan(value))
        if len(lanes):
            found[:, lanes] = _found(sweep.refine(lanes, tol))
        # rotation values summed in the order k = 0..L-1
        rate[keep] = functools.reduce(np.add, value[rot[:, keep]]) / per[keep]
        more = ~keep & (upper + _PRUNE_PAD >= level_max(rate) - _TIE_EPS)
        if not more.any():
            break
        keep |= more
    scale = {}
    for a, b in zip(starts, ends):
        rows = a + np.flatnonzero(keep[a:b])
        scale[int(size[a])] = _best_subset([(subsets[i], float(rate[i])) for i in rows])
    return scale, found


def scale_r(branches, r: int, tol: float = 1e-8) -> ScaleEntry:
    """Best subset of size r and its rate.

    The pick is the first size-r subset in lexicographic order whose rate
    is within _TIE_EPS of the best size-r rate. Only the subsets whose
    bounds let them reach that margin are refined (see _scale_levels); the
    pick and its rate are those of refining every subset.
    """
    channels = _as_channels(branches)
    L = len(channels)
    r = check_integer(r, "r")
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
    scale, found = _scale_levels(channels, range(1, L + 1), tol)
    sups = _suprema(found[:, :L])  # the singletons come first, the full set last
    cbar = sum(s.chi_star for s in sups) / L
    cp = float(found[1, -1]) / L

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
    in the subset; q_delta is the probability that the drawn branch lies
    in it. deltas defaults to every nonempty subset of branches (the
    branch count is capped at MAX_BRANCHES in that case); deltas passed
    in are validated, the enumerated ones are not.

    Every c_delta comes from one maximization over the L singletons,
    whatever the deltas: the worst case of each pair in a delta follows
    from its members' peaks (see _pair_values), and a delta's is the
    smallest of its pairs' (see _fill_subsets).
    """
    channels = _as_channels(branches)
    L = len(channels)
    q = tuple(float(x) for x in MemoryChannel.random(channels, q).q)
    if deltas is None:
        deltas = _all_subsets(L, range(1, L + 1))
    else:
        deltas = [_check_subset(d, L) for d in listed(deltas, "deltas", "subsets")]
    members, _ = _member_matrix(deltas, L)
    inc = np.zeros((len(deltas), L + 1), dtype=bool)
    inc[np.arange(len(deltas))[:, None], members] = True
    inc = inc[:, :L]  # inc[delta, i]: branch i lies in delta
    pairs = np.argwhere(np.triu(inc.T @ inc, 1))  # (pairs, 2), i < m in each row (i, m)
    sweep, peaks = _singletons(channels, tol)
    sups = _suprema(peaks)
    pair = np.full((L, L), np.inf)  # pair[i, m] for the pairs (i, m), +inf elsewhere
    pair[tuple(pairs.T)] = _pair_values(sweep.form, peaks[0], peaks[1], pairs, tol)
    q_delta, c_delta, cbar_delta = _fill_subsets(inc, q, sups, pair)
    per_subset = {
        d: SubsetScale(*row) for d, row in zip(deltas, zip(q_delta, c_delta, cbar_delta))
    }
    return RandomScaleReport(q=q, per_subset=per_subset, per_branch_suprema=sups)


def _pair_values(form, peak, chi_star, pairs, tol) -> np.ndarray:
    """max_a min(chi_i, chi_m)(a) of each row (i, m) of pairs, from the curves' peaks and maxima.

    With a pair's members named so that peak[u] <= peak[v], it is
    chi_star[u] if chi_v(peak[u]) >= chi_u(peak[u]), else chi_star[v] if
    chi_u(peak[v]) >= chi_v(peak[v]) (equal peaks and flat curves pass one
    of these), else the value where the curves cross between the peaks:
    one lockstep search takes those from the lower member's value and
    slope, starting at the secant root of chi_u - chi_v and proposing its
    Newton root, at tol 1e-8 or finer.
    """
    u, v = pairs.T
    u, v = np.where(peak[u] <= peak[v], (u, v), (v, u))
    at = mirror_chi(form[:, :, None], peak)  # at[j, i]: chi_j at branch i's peak
    diff_u, diff_v = at[u, u] - at[v, u], at[u, v] - at[v, v]  # chi_u - chi_v at both peaks
    value = np.where(diff_u <= 0.0, chi_star[u], chi_star[v])
    cross = (diff_u > 0.0) & (diff_v < 0.0)
    if cross.any():
        u, v, diff_u, diff_v = u[cross], v[cross], diff_u[cross], diff_v[cross]
        pair_form = form[:, np.stack([u, v])][:, :, None]  # (6, 2, 1, crossings)

        def lower(a):  # a: (3, crossings)
            (chi_u, chi_v), (slope_u, slope_v), _ = mirror_chi_jet(pair_form, a)
            newton = a - _newton_step(chi_u - chi_v, slope_u - slope_v)
            return np.minimum(chi_u, chi_v), np.where(chi_u <= chi_v, slope_u, slope_v), newton

        start = peak[u] + (peak[v] - peak[u]) * diff_u / (diff_u - diff_v)
        # a kink's value rises linearly, so a coarse tol's tol² stop would leave it short
        value[cross] = maximize_concave_1d(lower, peak[u], peak[v], min(tol, 1e-8), start).value
    return value


def _fill_subsets(inc, q, sups, pair) -> tuple[list, list, list]:
    """q_delta, c_delta and cbar_delta of the deltas whose members are the rows of inc.

    Each mirror-family curve chi_i(a) is concave on [0, 1] (the search
    assumes it), so each superlevel set {a : chi_i(a) >= c} is an interval,
    and by Helly's theorem in one dimension intervals that meet pairwise
    share a point. Hence max_a min_{i in delta} chi_i(a) is the smallest
    of the pair values max_a min(chi_i, chi_m)(a) over the pairs in delta,
    or the supremum for a single branch. This holds on the mirror family
    only: a branch whose best ensemble lies outside it needs the direct
    minimax over delta, not this rule.

    inc is the deltas x L incidence matrix, and pair[i, m], i < m, is the
    value of each pair of members of some delta (+inf elsewhere).
    """
    c_delta = np.empty(len(inc))
    rows = max(1, _BLOCK // inc.shape[1] ** 2)  # deltas per block
    for s in range(0, len(inc), rows):
        b = inc[s:s + rows]
        c_delta[s:s + rows] = np.where(b[:, :, None] & b[:, None, :], pair, np.inf).min(axis=(1, 2))
    cbar_delta = np.where(inc, [s.chi_star for s in sups], -np.inf).max(axis=1)
    # a singleton has no pair: its worst case is its supremum
    c_delta = np.where(inc.sum(axis=1) == 1, cbar_delta, c_delta)
    # summed column by column, so each q_delta keeps the bits of summing in order
    q_delta = functools.reduce(np.add, np.where(inc, q, 0.0).T)
    # q may sum to 1 + 1e-10; a probability stays at most 1
    return np.minimum(q_delta, 1.0).tolist(), c_delta.tolist(), cbar_delta.tolist()
