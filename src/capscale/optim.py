"""Scalar concave maximization, root finding, and a grid ensemble search.

The golden-section and bisection routines are deliberately plain; every
capacity in this package reduces to maximizing sums or minima of concave
single-parameter Holevo curves. The grid ensemble search is the
independent check that two mirror-image pure states really are enough:
it sweeps ensembles of up to four pure states over an angular lattice and
a probability simplex grid without assuming anything about where the
optimum sits. It evaluates the Holevo quantity through the channel's
Bloch-affine map (M, t) and the Bloch-radius entropy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channels import QubitChannel, check_number
from .errors import NumericalError, ValidationError
from .holevo import chi_ad_mirror, holevo_chi
from .linalg import entropy_from_radius

# Maximizer search window for amplitude-damping curves: the optimum is
# known to sit at a >= 1/2, and the derivative is singular at a = 1.
AD_SEARCH_LO = 0.5 - 1e-3
AD_SEARCH_HI = 1.0 - 1e-9

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_ITER = 500

DEFAULT_EVAL_BUDGET = 200_000_000


@dataclass(frozen=True)
class OptResult:
    argmax: float
    value: float
    iterations: int
    achieved_tol: float


def maximize_concave_1d(f, lo, hi, tol: float = 1e-8) -> OptResult:
    """Golden-section maximization of a concave (unimodal) function.

    Returns an OptResult whose final bracket is narrower than tol. Where f
    is flat to rounding over a wider stretch around its peak, the argmax can
    lie anywhere on it (up to about 1e-7 off for damping curves at tol
    1e-8); the value is unaffected.
    Exact ties shrink the bracket from both sides, so a constant function
    converges to the interval midpoint.

    lo and hi may be equal-shape arrays, one bracket per lane, searched in
    lockstep: f then maps one point per lane to its value, once per step
    (twice on a step where a lane ties). Each lane takes the steps of its
    own scalar search, so argmax and value equal the scalar results lane by
    lane; iterations and achieved_tol are those of the slowest lane.
    """
    if np.ndim(lo) or np.ndim(hi):
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        where, any_ = np.where, np.any
    else:
        where, any_ = (lambda m, x, y: x if m else y), bool
    if not np.all(lo < hi):
        raise ValidationError(f"need lo < hi, got [{lo}, {hi}]")
    if not (1e-12 <= tol < math.inf):
        raise ValidationError(f"tol must be finite and >= 1e-12, got {tol}")
    c, d = hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo)
    fc, fd = f(c), f(d)
    iters = 0
    while any_(active := hi - lo > tol):
        if any_(active & ~(np.isfinite(fc) & np.isfinite(fd))):
            raise NumericalError("objective returned a non-finite value")
        # keep [lo, d], [c, hi] or, on a tie, [c, d]
        left, right, tie = active & (fc > fd), active & (fd > fc), active & (fc == fd)
        lo, hi = where(right | tie, c, lo), where(left | tie, d, hi)
        c, d = where(right, d, hi - _INVPHI * (hi - lo)), where(left, c, lo + _INVPHI * (hi - lo))
        f_c, f_d = (f(c), f(d)) if any_(tie) else (f(where(left, c, d)),) * 2
        fc, fd = (where(left | tie, f_c, where(right, fd, fc)),
                  where(right | tie, f_d, where(left, fc, fd)))
        iters += 1
        if iters > _MAX_ITER:
            raise NumericalError("golden-section search failed to converge")
    x = 0.5 * (lo + hi)
    return OptResult(x, f(x), iters, float(np.max(hi - lo)))


def find_root_bisection(g, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Bisection root of a continuous function with a sign change on [lo, hi]."""
    if not lo < hi:
        raise ValidationError(f"need lo < hi, got [{lo}, {hi}]")
    glo, ghi = g(lo), g(hi)
    if not (math.isfinite(glo) and math.isfinite(ghi)):
        raise NumericalError("function returned a non-finite value at a bracket end")
    if glo * ghi > 0.0:
        raise ValidationError(f"no sign change on [{lo}, {hi}]: g={glo:.3e}, {ghi:.3e}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if not math.isfinite(gm):
            raise NumericalError("function returned a non-finite value")
        if glo * gm <= 0.0:
            hi = mid
        else:
            lo, glo = mid, gm
    return 0.5 * (lo + hi)


def maximize_chi_sum(gammas, weights, tol: float = 1e-8) -> OptResult:
    """Maximize a weighted sum of amplitude-damping Holevo curves over a.

    Each curve is concave in a, so the sum is concave and golden-section
    search on the a >= 1/2 window applies.
    """
    gammas = [check_number(g, "gamma") for g in gammas]
    if not gammas:
        raise ValidationError("need at least one damping parameter")
    for g in gammas:
        if not 0.0 <= g <= 1.0:
            raise ValidationError(f"gamma must be in [0, 1], got {g!r}")
    weights = [check_number(w, "weight") for w in weights]
    if len(weights) != len(gammas):
        raise ValidationError("gammas and weights must have equal length")
    if min(weights) < 0.0:
        raise ValidationError("weights must be nonnegative")

    def f(a):
        return sum(w * chi_ad_mirror(g, a) for g, w in zip(gammas, weights))

    return maximize_concave_1d(f, AD_SEARCH_LO, AD_SEARCH_HI, tol)


# --- grid ensemble search -------------------------------------------------


def _weight_grid(n: int, steps: int) -> np.ndarray:
    """All probability vectors with denominators `steps`, plus the uniform one."""
    rows = []
    for cuts in itertools.combinations_with_replacement(range(steps + 1), n - 1):
        parts = []
        prev = 0
        for c in cuts:
            parts.append(c - prev)
            prev = c
        parts.append(steps - prev)
        rows.append(parts)
    w = np.array(rows, dtype=float) / steps
    uniform = np.full((1, n), 1.0 / n)
    return np.vstack([w, uniform])


def brute_force_ensemble_search(
    ch: QubitChannel,
    n_states: int,
    grid: int,
    weight_steps: int | None = None,
    budget: int = DEFAULT_EVAL_BUDGET,
) -> float:
    """Best Holevo quantity over a lattice of small pure-state ensembles.

    States are pure qubit states on a polar/azimuthal lattice (polar angles
    i*pi/(grid-1), azimuths 2*pi*k/grid) and probabilities run over the
    simplex grid with denominator ``weight_steps`` (default: ``grid``).

    For phase-covariant channel kinds (amplitude damping, depolarizing) the
    Holevo quantity depends on the azimuths only through the magnitude of
    the average transverse Bloch component, and it is maximal where that
    magnitude is smallest; the sweep therefore enumerates polar-angle
    multisets with mirror-symmetric azimuths (0 or pi) and exact sign-wise
    cancellation, which covers the full lattice optimum. Explicit Kraus
    channels get the literal lattice enumeration, which is only feasible
    for small grids.

    The result is deterministic (exact maximum, first lattice point in
    lexicographic order wins ties) and monotone nondecreasing under grid
    refinement and in n_states.

    Raises:
        ValidationError: if the sweep size exceeds ``budget`` evaluations.
    """
    if not 1 <= n_states <= 4:
        raise ValidationError(f"n_states must be in [1, 4], got {n_states}")
    if grid < 8:
        raise ValidationError(f"grid must be >= 8, got {grid}")
    steps = grid if weight_steps is None else int(weight_steps)
    if steps < 1:
        raise ValidationError("weight_steps must be positive")
    weights = _weight_grid(n_states, steps)
    if ch.kind == "kraus":
        return _search_generic(ch, n_states, grid, weights, budget)
    return _search_phase_covariant(ch, n_states, grid, weights, budget)


def _best_over_chunks(n_combos, chunk, evaluate):
    best = -np.inf
    for start in range(0, n_combos, chunk):
        vals = evaluate(start, min(start + chunk, n_combos))
        m = float(vals.max())
        if m > best:
            best = m
    return best


def _search_phase_covariant(ch, n_states, grid, weights, budget):
    # phase covariance about z: M = diag(tau, tau, mz), t = (0, 0, tz)
    M, t = ch.bloch_map
    tau, mz, tz = M[0, 0], M[2, 2], t[2]
    theta = np.linspace(0.0, math.pi, grid)
    z = np.cos(theta)
    perp = np.sin(theta)
    cond = entropy_from_radius(np.hypot(tau * perp, tz + mz * z))

    n_combos = math.comb(grid + n_states - 1, n_states)
    if n_combos * weights.shape[0] > budget:
        raise ValidationError(
            f"search size {n_combos * weights.shape[0]} exceeds budget {budget}"
        )
    combos = np.array(
        list(itertools.combinations_with_replacement(range(grid), n_states)), dtype=np.intp
    )
    signs = np.array(list(itertools.product([1.0, -1.0], repeat=n_states - 1)))
    signs = np.hstack([np.ones((signs.shape[0], 1)), signs])  # fix a global sign
    wt = weights.T  # (n, W)

    def evaluate(i0, i1):
        idx = combos[i0:i1]
        zc = z[idx]          # (c, n)
        pc = perp[idx]
        sc = cond[idx]
        zbar = zc @ wt       # (c, W)
        cbar = sc @ wt
        # smallest achievable |average transverse component| over azimuths 0/pi
        tmin = np.abs((pc * signs[0]) @ wt)
        for sg in signs[1:]:
            np.minimum(tmin, np.abs((pc * sg) @ wt), out=tmin)
        radius = np.hypot(tau * tmin, tz + mz * zbar)
        return entropy_from_radius(radius) - cbar

    chunk = max(1, 4_000_000 // weights.shape[0])
    return _best_over_chunks(combos.shape[0], chunk, evaluate)


def _lattice_states(grid):
    """Bloch vectors of the polar/azimuthal lattice, poles deduplicated."""
    vecs = [np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])]
    for i in range(1, grid - 1):
        th = math.pi * i / (grid - 1)
        for k in range(grid):
            ph = 2.0 * math.pi * k / grid
            vecs.append(np.array(
                [math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th)]
            ))
    return np.array(vecs)


def _search_generic(ch, n_states, grid, weights, budget):
    bloch = _lattice_states(grid)
    pool = bloch.shape[0]
    n_combos = math.comb(pool, n_states)
    if n_combos * weights.shape[0] > budget:
        raise ValidationError(
            f"search size {n_combos * weights.shape[0]} exceeds budget {budget}; "
            "reduce grid or n_states"
        )
    combos = np.array(list(itertools.combinations(range(pool), n_states)), dtype=np.intp)

    def evaluate(i0, i1):
        return holevo_chi(ch.bloch_map, bloch[combos[i0:i1]][:, None], weights)

    chunk = max(1, 2_000_000 // weights.shape[0])
    return _best_over_chunks(combos.shape[0], chunk, evaluate)
