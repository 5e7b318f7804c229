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
from functools import partial

import numpy as np

from .channels import QubitChannel
from .errors import NumericalError, ValidationError
from .holevo import chi_ad_mirror, chi_mirror_family
from .optim import OptResult, maximize_concave_1d

# Subset enumeration is exponential in the number of branches.
MAX_BRANCHES = 12

# Strictly-greater margin for deterministic subset tie-breaking.
_TIE_EPS = 1e-12

# Scan grid of the mirror parameter; a maximization refines the best grid
# point of the combined curves within two grid steps on either side.
_SCAN = np.linspace(1e-9, 1.0 - 1e-9, 257)

# Combiner of scalar branch curves -> the same combination of grid rows.
_GRID_REDUCE = {sum: np.add.reduce, min: np.minimum.reduce}


def _as_channels(branches) -> tuple[QubitChannel, ...]:
    out = []
    for b in branches:
        if isinstance(b, QubitChannel):
            out.append(b)
        else:
            out.append(QubitChannel.amplitude_damping(float(b)))
    if not out:
        raise ValidationError("need at least one branch")
    return tuple(out)


class _BranchCurves:
    """Per-branch Holevo curves with memoized subset maximizations.

    Each branch's curve is evaluated once on the scan grid through the
    Holevo kernel. A subset's sum (or minimum) of curves is concave, so
    its grid argmax brackets the maximizer, which golden-section search
    then refines on the scalar curves.
    """

    def __init__(self, branches, tol: float):
        self.channels = _as_channels(branches)
        self.tol = float(tol)
        # scalar curves for the refinement: the closed form for damping
        self.curves = [
            partial(chi_ad_mirror, ch.gamma)
            if ch.kind == "amplitude_damping"
            else partial(chi_mirror_family, ch)
            for ch in self.channels
        ]
        self.scan = np.array([chi_mirror_family(ch, _SCAN) for ch in self.channels])
        self._cache: dict[tuple, OptResult] = {}

    def __len__(self):
        return len(self.channels)

    def _maximize(self, idxs, combine) -> OptResult:
        key = (combine, tuple(sorted(idxs)))
        if key not in self._cache:
            fs = [self.curves[i] for i in key[1]]
            k = int(np.argmax(_GRID_REDUCE[combine](self.scan[list(key[1])])))
            lo = float(_SCAN[max(0, k - 2)])
            hi = float(_SCAN[min(len(_SCAN) - 1, k + 2)])
            self._cache[key] = maximize_concave_1d(
                lambda a: combine(f(a) for f in fs), lo, hi, self.tol
            )
        return self._cache[key]

    def sup_sum(self, idxs) -> OptResult:
        """Maximize the plain sum of the selected branch curves over one ensemble."""
        return self._maximize(idxs, sum)

    def sup_min(self, idxs) -> OptResult:
        """Maximize the pointwise minimum of the selected branch curves."""
        return self._maximize(idxs, min)

    def branch_suprema(self) -> list[OptResult]:
        return [self.sup_sum((i,)) for i in range(len(self))]


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


@dataclass(frozen=True)
class StaircaseStep:
    r: int
    value_bits: float
    subset: tuple[int, ...]
    error_threshold: float


def per_branch_suprema(branches, tol: float = 1e-8) -> list[BranchSupremum]:
    curves = _BranchCurves(branches, tol)
    return [BranchSupremum(r.argmax, r.value) for r in curves.branch_suprema()]


def _subset_value(curves: _BranchCurves, subset: tuple[int, ...]) -> float:
    L = len(curves)
    r = len(subset)
    total = 0.0
    for k in range(L):
        total += curves.sup_sum([(m + k) % L for m in subset]).value
    return total / (r * L)


def _check_subset(subset, L) -> tuple[int, ...]:
    subset = tuple(int(i) for i in subset)
    if not subset:
        raise ValidationError("subset must be nonempty")
    if len(set(subset)) != len(subset):
        raise ValidationError(f"subset has repeated indices: {subset}")
    if min(subset) < 0 or max(subset) >= L:
        raise ValidationError(f"subset {subset} out of range for {L} branches")
    return tuple(sorted(subset))


def subset_scale_value(branches, subset, tol: float = 1e-8) -> float:
    """Transmission rate of a fixed subset of branch positions, in bits.

    Averages, over the unknown cyclic offset, the best joint rate of the
    selected positions, normalized per selected position.
    """
    curves = _BranchCurves(branches, tol)
    return _subset_value(curves, _check_subset(subset, len(curves)))


def _best_subset(curves: _BranchCurves, r: int) -> ScaleEntry:
    """Best subset of size r and its rate; first subset in lex order wins ties."""
    if len(curves) > MAX_BRANCHES:
        raise ValidationError(f"subset enumeration limited to {MAX_BRANCHES} branches")
    best_val = -math.inf
    best_subset = None
    for subset in itertools.combinations(range(len(curves)), r):
        v = _subset_value(curves, subset)
        if v > best_val + _TIE_EPS:
            best_val, best_subset = v, subset
    return ScaleEntry(best_val, best_subset)


def scale_r(branches, r: int, tol: float = 1e-8) -> ScaleEntry:
    """Best subset of size r and its rate; first subset in lex order wins ties."""
    curves = _BranchCurves(branches, tol)
    L = len(curves)
    if not 1 <= r <= L:
        raise ValidationError(f"r must be in [1, {L}], got {r}")
    return _best_subset(curves, r)


def compute_capacity_report(branches, tol: float = 1e-8) -> CapacityReport:
    """Full periodic report: capacities, per-branch suprema, all scale levels.

    Raises NumericalError if the computed hierarchy fails its own sanity
    checks (endpoints must match the capacities, levels must not increase).
    """
    curves = _BranchCurves(branches, tol)
    L = len(curves)
    sups = curves.branch_suprema()
    cbar = sum(r.value for r in sups) / L
    cp = curves.sup_sum(range(L)).value / L
    scale = {r: _best_subset(curves, r) for r in range(1, L + 1)}

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

    return CapacityReport(
        cp=cp,
        cbar=cbar,
        scale=scale,
        per_branch_suprema=tuple(BranchSupremum(s.argmax, s.value) for s in sups),
    )


def staircase_profile(branches, tol: float = 1e-8) -> list[StaircaseStep]:
    """Achievable rate and guaranteed error floor for each subset size."""
    report = compute_capacity_report(branches, tol)
    L = report.n_branches
    return [
        StaircaseStep(r, e.value, e.best_subset, 1.0 - r / L)
        for r, e in sorted(report.scale.items())
    ]


def _check_probs(q, L) -> tuple[float, ...]:
    q = tuple(float(x) for x in q)
    if len(q) != L:
        raise ValidationError(f"got {len(q)} probabilities for {L} branches")
    if not all(x >= 0.0 for x in q):
        raise ValidationError("branch probabilities must be nonnegative")
    if not abs(sum(q) - 1.0) <= 1e-10:
        raise ValidationError(f"branch probabilities sum to {sum(q)!r}, not 1")
    return q


def random_scale(branches, q, delta, tol: float = 1e-8) -> SubsetScale:
    """Subset capacities of the random channel for one subset of branches.

    c_delta uses a single ensemble that must serve every branch in the
    subset (maximize the worst case); cbar_delta is the best single
    branch in the subset.
    """
    report = compute_random_scale_report(branches, q, [delta], tol)
    return next(iter(report.per_subset.values()))


def compute_random_scale_report(branches, q, deltas=None, tol: float = 1e-8) -> RandomScaleReport:
    """Subset-capacity table for a random-memory channel.

    deltas defaults to every nonempty subset of branches (the branch
    count is capped at MAX_BRANCHES in that case).
    """
    curves = _BranchCurves(branches, tol)
    L = len(curves)
    q = _check_probs(q, L)
    if deltas is None:
        if L > MAX_BRANCHES:
            raise ValidationError(f"subset enumeration limited to {MAX_BRANCHES} branches")
        deltas = [
            s for r in range(1, L + 1) for s in itertools.combinations(range(L), r)
        ]
    sups = curves.branch_suprema()
    per_subset: dict[tuple[int, ...], SubsetScale] = {}
    for delta in deltas:
        delta = _check_subset(delta, L)
        per_subset[delta] = SubsetScale(
            q_delta=sum(q[i] for i in delta),
            c_delta=curves.sup_min(delta).value,
            cbar_delta=max(sups[i].value for i in delta),
        )
    return RandomScaleReport(
        q=q,
        per_subset=per_subset,
        per_branch_suprema=tuple(BranchSupremum(s.argmax, s.value) for s in sups),
    )

