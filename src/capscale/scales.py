"""Product-state capacities and the scale-of-capacities hierarchy.

All quantities here reduce to one-parameter maximizations of Holevo
curves of mirror-pair ensembles: of their sums over subsets of branches
(periodic memory, the scale hierarchy) and of their pairwise minima
(random memory). Each report reads its branches once, as four numbers
about one input axis that they share (_forms), and refuses branches without
one. Reports are dataclasses that bundle the numbers with the subsets
that achieve them.

The periodic reports refine only the subsets that can still win their
scale level. A random-memory report maximizes only the single branches:
each curve is concave, so a pair's worst case is a member's peak value
or the value where the two curves cross, and a subset's is the smallest
of its pairs' (Helly's theorem in one dimension).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .channels import QubitChannel, check_integer, check_numbers, check_probabilities, listed
from .errors import NumericalError, ValidationError, shown
from .holevo import _entropy_jet, mirror_chi, mirror_chi_jet
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

# Tolerance of the input axes (see _forms), in units of G and g.
_FRAME_TOL = 1e-9

# Heights z = 2a - 1 of every eighth scan point, from -1 + 2e-9 to 1 - 2e-9,
# where _forms samples each branch's pure-state entropy curve's curvature,
# and the margin, in bits, by which a sample may fall below 0 (see _forms).
_HEIGHTS = 2.0 * _SCAN[::8] - 1.0
_CONVEX_TOL = 1e-9

# Why _forms refuses a branch, each reason followed by ", which capscale
# lacks", first to last in precedence: of several faulty branches, a refusal
# names the first branch of the first reason that any of them meets.
_REFUSALS = (
    "is covariant about no input axis: such branches need the general ensemble search "
    "(ROADMAP A, stage 3)",
    "has another input axis than the branches before it: reports on branches with no common "
    "axis need the general ensemble search (ROADMAP A, stage 3)",
    "has a pure-state entropy that is not convex along its axis: its best ensembles need two "
    "heights (ROADMAP H, stage 2)",
)


def _forms(branches, shared: bool = True) -> np.ndarray:
    """The four numbers (s, u, c, τ), shape (4, L), of branches: channels or damping parameters.

    Every search reads mirror pairs about an axis n. A branch covariant about
    n has G = MᵀM = s I + (u - s) nnᵀ and g = Mᵀt = c n, and its Holevo
    curves read (s, u, c, τ = |t|²) (see holevo). n is in closed form: with
    B = G - (tr G/3) I, the matrix S = 3B² - ½ tr(B²) I + g gᵀ is
    ((u - s)² + c²) nnᵀ, so n is S's column of largest diagonal,
    normalised, and its largest component is positive (so a weighs a pair
    toward +n). u = nᵀGn and c = g·n, and s = e₁ᵀGe₁ for the unit vector
    e₁ = (1 - k x², -k x y, -x) normal to n = (x, y, z), k = 1/(1 + z). A
    branch farther than _FRAME_TOL from the model about that n (_fit) is
    covariant about no axis and refused; one of anisotropy |u - s| + |c| at
    most _FRAME_TOL (depolarizing) is isotropic and fits every axis.

    With shared, as a report's subsets share ensembles, every branch is
    read about one axis, that of the branch of largest anisotropy (the first
    of them on a tie), and a branch is refused if its axis differs from an
    earlier branch's. Reading a branch of anisotropy w about an axis at
    angle θ from its own moves its G and g by about w sin θ, so two axes
    differ when that exceeds _FRAME_TOL for the smaller w: an axis that
    rounding moved, by about 1e-16 / w, is not refused. Otherwise each branch
    is read about its own axis, as per-branch results are. Either way,
    isotropic branches and those within _FRAME_TOL of normal form about z
    (damping, X·AD·X, Rz-conjugated damping) are read about z itself, as
    (G₀₀, G₂₂, g₂, τ), unless a report shares an axis tilted from z.

    So each branch is read within a few _FRAME_TOL, in G and g, of a map
    covariant about its axis, and each output's squared radius is within
    about 1e-8 of that map's. That moves an entropy by at most 8e-8 bits
    (at a pure output, where it is steepest) and a printed value by at most
    about 3e-7 bits from the best mirror pair's. That pair is a best
    ensemble only where the branch's pure-state entropy is convex along its
    axis; _convex finds every other branch, whose best ensembles need two
    heights. All three refusals leave from one place, in the order of
    _REFUSALS.
    """
    channels = [
        b if isinstance(b, QubitChannel) else QubitChannel.amplitude_damping(b)
        for b in listed(branches, "branches", "channels or damping parameters")
    ]
    if not channels:
        raise ValidationError("need at least one branch")
    M, t = (np.array(x) for x in zip(*(ch.bloch_map for ch in channels)))
    G, g = np.einsum("lji,ljk->lik", M, M), np.einsum("lji,lj->li", M, t)
    form = np.stack([G[:, 0, 0], G[:, 2, 2], g[:, 2], np.einsum("li,li->l", t, t)])
    off = np.abs([G[:, 0, 1], G[:, 0, 2], G[:, 1, 2], G[:, 0, 0] - G[:, 1, 1], g[:, 0], g[:, 1]])
    tilted = off.max(axis=0) > _FRAME_TOL  # not in normal form about z
    no_axis = apart = ()  # the branches with no axis, and with another axis than one before
    if tilted.any():
        B = G - np.trace(G, axis1=1, axis2=2)[:, None, None] / 3.0 * np.eye(3)
        S = 3.0 * np.einsum("lij,ljk->lik", B, B) + g[:, :, None] * g[:, None, :]
        S -= 0.5 * np.einsum("lij,lij->l", B, B)[:, None, None] * np.eye(3)
        axis = S[np.arange(len(S)), :, S.diagonal(axis1=1, axis2=2).argmax(axis=1)]
        axis[~tilted] = (0.0, 0.0, 1.0)  # exactly z: their maps keep their bits
        axis /= np.linalg.norm(axis, axis=1)[:, None]
        no_axis, weight = _fit(G, g, axis)
        live = np.flatnonzero(weight > _FRAME_TOL)  # the branches that are not isotropic
        if shared and len(live) > 1:
            n, w = axis[live], weight[live]
            sin = np.linalg.norm(n[:, None] - np.einsum("id,jd->ij", n, n)[..., None] * n, axis=-1)
            apart = live[np.triu(sin * np.minimum.outer(w, w) > _FRAME_TOL, 1).any(axis=0)]
            axis[live] = axis[weight.argmax()]
        turn = live[axis[live, 2] != 1.0]  # the branches read about an axis other than z
        n, G = axis[turn], G[turn]
        x, y, z = n.T
        k = 1.0 / (1.0 + z)
        e1 = np.stack([1.0 - k * x * x, -k * x * y, -x], axis=1)
        form[0, turn] = np.einsum("li,lij,lj->l", e1, G, e1)
        form[1, turn] = np.einsum("li,lij,lj->l", n, G, n)
        form[2, turn] = np.einsum("li,li->l", g[turn], n)
    for why, bad in zip(_REFUSALS, (no_axis, apart, _convex(form))):
        if len(bad):
            raise ValidationError(f"branch {bad[0]} {why}, which capscale lacks")
    return form


def _convex(form) -> np.ndarray:
    """The branches whose pure-state entropy curve is not convex along its axis, in order.

    A pure input at height z along a branch's axis goes to squared radius
    q(z) = (u - s) z² + 2cz + s + τ, of entropy S(z) = h(q(z)), and
    S'' = h''(q) q'² + h'(q) q'' (see holevo._entropy_jet). A branch is
    convex when S'' >= -_CONVEX_TOL at every height of _HEIGHTS. Where u >= s,
    S'' < 0 everywhere unless u = s and c = 0 (a constant S). Where u < s,
    q'² = 4(u - s)(q - s - τ) + 4c² makes S'' < 0 exactly where
    q + h'/(2h'') < s + τ + c²/(s - u); the left side falls with q (checked
    on 200,001 points), so S'' < 0 only on a stretch of heights that ends
    where q peaks. A peak inside (-1, 1), where q = s + τ + c²/(s - u),
    leaves S'' > 0 everywhere, as h'/h'' > 0; so the stretch reaches a
    pole, where the samples 2e-9 from either pole see it. A pure
    output with q' != 0 at a pole is a concave cusp, where S'' falls as
    -|q'| / (1 - |z|). The tests check the rule against second differences
    on 20,001 heights.
    """
    s, u, c, tau = form[:, :, None]
    A = u - s
    q = A * (_HEIGHTS * _HEIGHTS) + 2.0 * c * _HEIGHTS + (s + tau)
    slope = 2.0 * (A * _HEIGHTS + c)
    _, h1, h2 = _entropy_jet(q)
    h2 *= slope * slope
    h2 += 2.0 * A * h1
    return np.flatnonzero((h2 < -_CONVEX_TOL).any(axis=1))


def _fit(G, g, n) -> tuple[np.ndarray, np.ndarray]:
    """The branches farther than _FRAME_TOL from the covariant model about their unit axes n,
    and every branch's anisotropy.

    The model is s I + (u - s) nnᵀ for G and c n for g, with u = nᵀGn,
    s = (tr G - u)/2 and c = g·n. The distance is the largest entry of the
    differences, and the anisotropy is |u - s| + |c|.
    """
    u, c = np.einsum("li,lij,lj->l", n, G, n), np.einsum("li,li->l", g, n)
    s = (np.trace(G, axis1=1, axis2=2) - u) / 2.0
    G = G - s[:, None, None] * np.eye(3) - (u - s)[:, None, None] * n[:, :, None] * n[:, None, :]
    far = np.maximum(np.abs(G).max(axis=(1, 2)), np.abs(g - c[:, None] * n).max(axis=1))
    return np.flatnonzero(far > _FRAME_TOL), np.abs(u - s) + np.abs(c)


class _Sweep:
    """A subset sweep: each subset's bracket on the scan grid, its bounds, its refinement.

    A subset's curve is the sum of its branch curves. The sweep takes its
    subsets once, size-major (ValueError otherwise), as a member matrix
    (members, shape (subsets, largest size), and size), built from tuples
    by _member_matrix or, in report order, from _subset_masks. So one in-order
    sum over the matrix's columns (_combined) serves every subset size:
    member position d adds only to the last subsets, those with more than
    d members, and each subset's sum keeps the bits of adding its curves
    in member order. The scan,
    the quartic peaks, the bounds and the refine (over a table of kernel
    jets) all sum through it. Curves are evaluated from each branch's
    four numbers, shape (4, branch) (see _forms). Each branch's curve is
    evaluated once on the scan grid (scan, shape (branch, len(_SCAN))),
    and each subset's grid argmax k of its summed scan rows, two steps to
    either side, brackets its maximizer. The peak of the quartic
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
    most _BLOCK elements.
    """

    def __init__(self, form, members, size):
        self.form, self.members, self.size = form, members, size
        if (size[1:] < size[:-1]).any():
            raise ValueError("a sweep's subsets must come size-major")
        scan = self.scan = self._curves(_SCAN)
        # single branches sum whole rows: the window holds for them, but finding
        # it made a singleton sweep 14 us slower at L = 6 and 12 (of 125-165 us)
        start, end = _window(scan) if members.shape[1] > 1 else (0, len(_SCAN) - 1)
        width = end - start + 1
        block = max(1, _BLOCK // width)  # subsets per sum: its temporaries stay small
        k = self.k = np.empty(len(size), dtype=int)
        for s in range(0, len(size), block):
            rows = slice(s, s + block)
            k[rows] = start + _combined(scan, members[rows], size[rows], start, width).argmax(1)
        tie = np.flatnonzero(k == start) if start else []  # may tie with the column before
        if len(tie):
            k[tie] = _combined(scan, members[tie], size[tie], 0, len(_SCAN)).argmax(axis=1)
        self.centre = k.clip(2, len(_SCAN) - 3)

    @functools.cached_property
    def peak(self):
        """Each subset's quartic peak, in scan steps from its centre, NaN where there is none."""
        return _quartic_peak(_combined(self.scan, self.members, self.size, self.centre - 2, 5))

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
        fine = self._curves(_FINE_GRID[first:mid.max() + 2])
        return _peak_bounds(_combined(fine, self.members, self.size, mid - 1 - first, 3))

    def refine(self, lanes, tol):
        """Refine the brackets of the subsets at lanes in one lockstep search.

        The slope-bracketed search evaluates the Holevo kernel's jet once
        per step, at its three points per subset, over the form columns of
        all those subsets' (subset, member) pairs, read once from the member
        matrix, in calls of at most _REFINE_BLOCK pairs. The jets are the
        rows of a table, and a lane's value, slope and curvature are the
        in-order sums (_combined) of its pairs' rows, over a matrix of pair
        indices laid out like the member matrix (lanes are increasing). Each
        lane starts at its quartic peak, which at tol 1e-8 is usually within
        tol/8 of its maximizer, so that the first step closes its bracket,
        and proposes its summed curve's Newton point (NaN where the summed
        curvature is not negative).
        """
        size = self.size[lanes]
        rows = self.members[lanes]
        real = np.arange(rows.shape[1]) < size[:, None]
        form = self.form.take(rows[real], axis=1)  # in member order; take keeps it C-ordered
        lane = np.repeat(np.arange(len(lanes)), size)
        pairs = real.cumsum().reshape(real.shape) - 1  # rows of table, a lane's last repeated
        k = self.k[lanes]
        lo = _SCAN[np.maximum(k - 2, 0)]
        hi = _SCAN[np.minimum(k + 2, len(_SCAN) - 1)]
        start = _SCAN[self.centre[lanes]] + self.peak[lanes] * (_SCAN[1] - _SCAN[0])
        table = np.empty((len(lane), 9))  # each pair's jet at each point
        jet = table.reshape(-1, 3, 3).T  # (value, slope, curvature), point, pair: a view

        def summed(a):  # a: (3, lanes)
            at = a.take(lane, axis=1)
            # the kernel is elementwise: each block's values keep their bits
            for s in range(0, len(lane), _REFINE_BLOCK):
                block = slice(s, s + _REFINE_BLOCK)
                jet[:, :, block] = mirror_chi_jet(form[:, block], at[:, block])
            value, slope, curv = _combined(table, pairs, size, 0, 9).reshape(-1, 3, 3).T
            return value, slope, a - _newton_step(slope, np.minimum(curv, 0.0))

        return maximize_concave_1d(summed, lo, hi, tol, start)


def _member_matrix(subsets):
    """Each subset's members, a row each padded with its last member, and the subsets' sizes."""
    size = np.fromiter(map(len, subsets), int, len(subsets))
    return _padded(np.fromiter(itertools.chain.from_iterable(subsets), int, size.sum()), size), size


def _padded(flat, size):
    """The member matrix of the subsets whose members, row by row, are flat."""
    members = np.repeat(flat[size.cumsum() - 1, None], size.max(initial=0), axis=1)  # last ones
    members[np.arange(members.shape[1]) < size[:, None]] = flat  # row by row
    return members


def _combined(rows, members, size, at, width):
    """Each subset's sum of its member rows' columns at + [0, width), in member order.

    members and size are a member matrix into the C-contiguous rows (see
    _member_matrix), size nondecreasing, and at one first column for every
    subset or one for each. The windows of rows that start in [min at, max
    at] are copied to a contiguous row each. Member position 0 gathers them
    for every subset, and each later position d for the subsets with more
    than d members, the last ones. Returns shape (subsets, width).
    """
    at = np.asarray(at)
    lo = at.min()
    starts = at.max() - lo + 1
    r, c = rows.strides
    # windows[i * starts + j]: row i's columns lo + j + [0, width)
    windows = np.ndarray((len(rows), starts, width), rows.dtype, rows, lo * c, (r, c, c))
    windows = windows.reshape(-1, width)  # a row per window
    index = members * starts
    index += (at - lo)[..., None]  # each member's window
    out = windows.take(index[:, 0], axis=0)  # a new array
    for d in range(1, members.shape[1]):
        s = size.searchsorted(d, side="right")  # the first subset with more than d members
        out[s:] += windows.take(index[s:, d], axis=0)
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
    Each subset is checked as in subset_scale_value, and the branches are
    read about one input axis, as in a report (see _forms). Returns
    {subset: (argmax, value)}, keyed by each subset as a sorted tuple.
    """
    form = _forms(branches)
    subsets = [_check_subset(s, form.shape[1]) for s in listed(subsets, "subsets", "subsets")]
    return _maximize(form, subsets, tol) if subsets else {}


def _maximize(form, subsets, tol) -> dict:
    """maximize_subsets on a nonempty list of checked subsets."""
    ordered = sorted(dict.fromkeys(subsets), key=len)  # size-major, as _Sweep takes them; stable
    res = _Sweep(form, *_member_matrix(ordered)).refine(np.arange(len(ordered)), tol)
    best = {s: (float(a), float(v)) for s, a, v in zip(ordered, res.argmax, res.value)}
    return {s: best[s] for s in subsets}  # in first-appearance order


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


def _singletons(form, tol):
    """The search of every single branch, as _found stacks it."""
    sweep = _Sweep(form, *_member_matrix([(i,) for i in range(form.shape[1])]))
    return _found(sweep.refine(np.arange(form.shape[1]), tol))


def per_branch_suprema(branches, tol: float = 1e-8) -> list[BranchSupremum]:
    """Each branch's best mirror pair, about the branch's own input axis (see _forms)."""
    return list(_suprema(_singletons(_forms(branches, shared=False), tol)))


def chi_mirror_family(ch, a):
    """Holevo quantity of the mirror pair at parameter a, through the QubitChannel ch.

    ch is read about its own input axis, as per_branch_suprema reads it (see
    _forms), and refused where that refuses it; the pair's Bloch vectors
    are ±x e₁ + z n, with x = 2 sqrt(a(1-a)) and z = 2a - 1. So at a
    branch's a_max the value is its chi_star. ``a`` is a scalar or an
    array; a float comes back for a scalar a, an array otherwise.
    """
    if not isinstance(ch, QubitChannel):
        raise ValidationError(f"ch must be a QubitChannel, got {type(ch).__name__}")
    a_arr = check_numbers(a, "a")
    if not np.all((a_arr >= 0.0) & (a_arr <= 1.0)):
        raise ValidationError(f"a must be in [0, 1], got {shown(a)}")
    chi = mirror_chi(_forms([ch], shared=False)[:, 0], a_arr)
    return float(chi) if chi.ndim == 0 else chi


def _subset_masks(L: int, sizes):
    """The subsets of range(L) of the given sizes: bit masks, incidence, flat members, sizes.

    Bit L-1-m of subset i's mask, and inc[i, m], are set for its members m;
    flat lists each subset's members in increasing order, subset after
    subset. The subsets come in report order, size-major, then
    lexicographic, as itertools.combinations gives them: within a size, in
    decreasing mask.
    """
    if L > MAX_BRANCHES:
        raise ValidationError(f"subset enumeration limited to {MAX_BRANCHES} branches")
    masks = np.arange((1 << L) - 1, 0, -1, dtype="<i8")
    # bit L-1-m shifted to bit 63-m, which the big-endian bytes unpack m-th
    top = (masks << (64 - L)).astype(">i8").view(np.uint8).reshape(-1, 8)
    bits = np.unpackbits(top, axis=1, count=L)
    size = np.einsum("ij->i", bits).astype(int)  # summed in uint8, which holds L
    wanted = np.zeros(L + 1, dtype=bool)
    wanted[list(sizes)] = True
    order = np.flatnonzero(wanted[size])
    order = order[size[order].argsort(kind="stable")]
    inc = bits.take(order, axis=0).view(bool)
    flat = np.flatnonzero(inc)  # row by row; nonzero is fastest on bools
    flat %= L
    return masks[order], inc, flat, size[order]


def _rotations(masks, L: int) -> np.ndarray:
    """Cyclic rotations of bitmask subsets, shape (L, subsets).

    Row k moves each member m to (m + k) mod L, so bit L-1-m (see
    _subset_masks) k places down, cyclically.
    """
    k = np.arange(L)[:, None]
    return ((masks >> k) | (masks << (L - k))) & ((1 << L) - 1)


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
        raise ValidationError(f"{what} has repeated indices: {shown(subset)}")
    return tuple(sorted(subset))


def _check_subset(subset, L) -> tuple[int, ...]:
    subset = check_indices(subset)
    if subset[0] < 0 or subset[-1] >= L:
        raise ValidationError(f"subset {shown(subset)} out of range for {L} branches")
    return subset


def subset_scale_value(branches, subset, tol: float = 1e-8) -> float:
    """Transmission rate of a fixed subset of branch positions, in bits.

    Averages, over the unknown cyclic offset, the best joint rate of the
    selected positions, normalized per selected position.
    """
    form = _forms(branches)
    L = form.shape[1]
    subset = _check_subset(subset, L)
    rotations = [tuple(sorted((m + k) % L for m in subset)) for k in range(L)]
    best = _maximize(form, rotations, tol)
    return sum(best[rotated][1] for rotated in rotations) / (len(subset) * L)


def _level_max(x, size) -> np.ndarray:
    """Each subset's level's maximum of x, a level being the subsets of one size (nondecreasing)."""
    top = np.full(size[-1] + 1, -np.inf)
    np.maximum.at(top, size, x)
    return top[size]


def _level_picks(rate, size) -> np.ndarray:
    """The row of each level's pick, in increasing size.

    A level's pick is its lexicographically first subset within _TIE_EPS
    of its best rate. The rows come in report order (see _subset_masks),
    so that is the level's first such row. A subset rated -inf is never a
    pick, and leaving out one rated more than _TIE_EPS below its level's
    best cannot change a pick, as it could for a scan that replaced its
    pick on each gain above _TIE_EPS.
    """
    tied = np.flatnonzero(rate >= _level_max(rate, size) - _TIE_EPS)
    level = size[tied]
    return tied[np.concatenate(([True], level[1:] != level[:-1]))]  # each level's first


def _scale_levels(form, sizes, tol: float) -> tuple[dict, np.ndarray]:
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
    can be a level's pick (see _level_picks), and each level's pick and rate
    are those that refining every subset gives.

    Returns {r: ScaleEntry} and each subset's search results as _found
    stacks them, shape (5, subsets), NaN for a subset not refined; the
    subsets come in report order, size-major, then lexicographic (see
    _subset_masks). Only the picks become tuples (see _level_picks).
    """
    L = form.shape[1]
    masks, _, flat, size = _subset_masks(L, sizes)
    members = _padded(flat, size)
    sweep = _Sweep(form, members, size)
    row = np.zeros(1 << L, dtype=int)
    row[masks] = np.arange(len(size))
    rot = row[_rotations(masks, L)]  # rot[k, i]: the row of subset i's k-th rotation
    per = size * L
    # the singletons are the per-branch suprema, and the full set is alone
    # at its level: only the levels between them take bounds
    keep = (size == 1) | (size == L)
    upper = np.full(len(size), np.inf)
    if not keep.all():
        lower, upper = sweep.bounds_of_maxima().take(rot, axis=1).sum(axis=1) / per
        keep |= upper + _PRUNE_PAD >= _level_max(lower, size) - _TIE_EPS
    found = np.full((5, len(size)), np.nan)
    value = found[1]  # a view
    rate = np.full(len(size), -np.inf)
    while True:
        wanted = np.zeros(len(size), dtype=bool)
        wanted[rot[:, keep]] = True
        lanes = np.flatnonzero(wanted & np.isnan(value))
        if len(lanes):
            found[:, lanes] = _found(sweep.refine(lanes, tol))
        # rotation values summed in the order k = 0..L-1
        rate[keep] = functools.reduce(np.add, value[rot[:, keep]]) / per[keep]
        more = ~keep & (upper + _PRUNE_PAD >= _level_max(rate, size) - _TIE_EPS)
        if not more.any():
            break
        keep |= more
    picks = _level_picks(rate, size)
    scale = {}
    for i, r in zip(picks.tolist(), size[picks].tolist()):
        scale[r] = ScaleEntry(float(rate[i]), tuple(members[i, :r].tolist()))
    return scale, found


def scale_r(branches, r: int, tol: float = 1e-8) -> ScaleEntry:
    """Best subset of size r and its rate.

    The pick is the first size-r subset in lexicographic order whose rate
    is within _TIE_EPS of the best size-r rate. Only the subsets whose
    bounds let them reach that margin are refined (see _scale_levels); the
    pick and its rate are those of refining every subset.
    """
    form = _forms(branches)
    L = form.shape[1]
    r = check_integer(r, "r")
    if not 1 <= r <= L:
        raise ValidationError(f"r must be in [1, {L}], got {shown(r)}")
    # the rotations of a size-r subset are size-r subsets
    scale, _ = _scale_levels(form, [r], tol)
    return scale[r]


def compute_capacity_report(branches, tol: float = 1e-8) -> CapacityReport:
    """Full periodic report: capacities, per-branch suprema, all scale levels.

    Each level is picked as in scale_r, from one lockstep search over the
    rotations of the subsets that can win their level, every singleton and
    the full set.

    Raises NumericalError if the computed hierarchy fails its own sanity
    checks (endpoints must match the capacities, levels must not increase).
    """
    form = _forms(branches)
    L = form.shape[1]
    scale, found = _scale_levels(form, range(1, L + 1), tol)
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
    in it. deltas defaults to every nonempty subset of branches, in the
    order of _subset_masks, size-major, then lexicographic (the branch
    count is capped at MAX_BRANCHES in that case); deltas passed in are
    validated, the enumerated ones are not.

    Every c_delta comes from one maximization over the L singletons,
    whatever the deltas: the worst case of each pair in a delta follows
    from its members' peaks (see _pair_values), and a delta's is the
    smallest of its pairs' (see _fill_subsets).
    """
    form = _forms(branches)
    L = form.shape[1]
    q = tuple(check_probabilities(q, L).tolist())
    if deltas is None:
        _, inc, flat, size = _subset_masks(L, range(1, L + 1))
        deltas, at = [], 0
        for r, n in enumerate(np.bincount(size).tolist()):  # n subsets of r members each
            deltas += map(tuple, flat[at:at + n * r].reshape(n, r).tolist())
            at += n * r
    else:
        deltas = [_check_subset(d, L) for d in listed(deltas, "deltas", "subsets")]
        inc = np.zeros((len(deltas), L), dtype=bool)  # inc[delta, i]: branch i lies in delta
        inc[np.arange(len(deltas))[:, None], _member_matrix(deltas)[0]] = True
    pairs = np.argwhere(np.triu(inc.T @ inc, 1))  # (pairs, 2), i < m in each row (i, m)
    peaks = _singletons(form, tol)
    sups = _suprema(peaks)
    pair = np.full((L, L), np.inf)  # pair[i, m] for the pairs (i, m), +inf elsewhere
    pair[tuple(pairs.T)] = _pair_values(form, peaks[0], peaks[1], pairs, tol)
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
        pair_form = form[:, np.stack([u, v])][:, :, None]  # (4, 2, 1, crossings)

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
