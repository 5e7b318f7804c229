"""Lockstep concave maximization.

Every capacity in this package reduces to maximizing sums of concave
single-parameter Holevo curves, or minima of two that cross, in lockstep
searches that bracket each maximizer by the signs of the slopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import check_number
from .errors import NumericalError, ValidationError

_MAX_ITER = 500
# relative rounding of a value: a smaller gain is not worth a step
_ROUNDING = 1e-15


@dataclass(frozen=True)
class OptResult:
    """A search's best points, their values and slopes and the final brackets, per lane.

    argmax, value, lo, hi and slope have the shape of the brackets passed
    in; iterations and achieved_tol are those of the slowest lane.
    """

    argmax: float
    value: float
    iterations: int
    achieved_tol: float
    lo: float
    hi: float
    slope: float


def maximize_concave_1d(f, lo, hi, tol: float = 1e-8, start=None) -> OptResult:
    """Maximization of concave functions from the signs of their slopes, in lockstep.

    lo and hi are equal-shape arrays, one bracket per lane; a scalar
    bracket is one 0-d lane. f maps points x of shape (3,) + lo.shape to a
    tuple (value, slope, proposal), each of x's shape: the function's value
    and slope at each point and a proposed next point, such as the Newton
    point x - slope / curvature (NaN for none). It is called once per step.

    Each lane keeps the bracket [lo, hi] that holds its maximizer: a point
    with a positive slope moves lo to it, a negative slope moves hi, and a
    zero slope settles the lane, since on a concave function it is a
    maximizer. A step centres on the proposal of the lane's best point so
    far when it lies in the bracket, and on the bracket's midpoint
    otherwise; the first step, which has no best point yet, centres on
    start (an array of lo's shape, one first centre per lane, NaN for
    none) where it lies in the bracket, and on the midpoint otherwise or
    when start is None. A step evaluates the centre and the points tol/8
    either side of it, clipped to the bracket, in one call. Once a
    proposal (or start) is within tol/8 of the maximizer, the outer
    points straddle it and close the bracket from both sides, whatever
    the rounding of the slopes near the peak, and the centre is the
    proposal itself, which at a kink is worth more than any point beside
    it. A lane stops once its bracket is
    narrower than tol, after at least one step, unless its best point's
    proposal lies inside the bracket and a step there would add more than
    tol² and the value's rounding to first order (slope times step): at
    a smooth peak that gain is of order curvature times the step squared,
    but at a kink the value rises linearly toward the maximizer.

    A lane's best point is the highest-valued point inside the bracket of
    the step's points and the best point before it; each step leaves one
    of its points inside. Near a smooth peak the values are flat to
    rounding over a stretch of x wider than a fine tol, and only the
    slopes place the maximizer. Where zero slopes cross, so that the
    points with slope >= 0 reach past those with slope <= 0, the function
    is flat between them and each of those points is a maximizer: the
    bracket is then the stretch they span, from its leftmost to its
    rightmost point, and on a flat lane it holds the step's points. It
    returns each lane's best point, its value and slope, and the final
    bracket, which holds the best point; there is no final call. Each
    lane takes the steps of its own search, so a lane's results do not
    depend on the other lanes.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if not np.all(lo < hi):
        raise ValidationError(f"need lo < hi, got [{lo}, {hi}]")
    tol = check_number(tol, "tol")
    if not (1e-12 <= tol < math.inf):
        raise ValidationError(f"tol must be finite and >= 1e-12, got {tol}")
    best_x, best_f = lo, np.full(lo.shape, -np.inf)
    best_s, best_p = np.zeros(lo.shape), np.full(lo.shape, np.nan)
    if start is not None:  # the first step's centres
        best_p = np.asarray(start, dtype=float)
        if best_p.shape != lo.shape:
            raise ValidationError(f"start must have the brackets' shape {lo.shape}")
    offset = 0.125 * tol * np.array([0.0, -1.0, 1.0]).reshape((3,) + (1,) * lo.ndim)
    active, iters = np.ones(lo.shape, dtype=bool), 0  # every lane takes a first step
    while np.any(active):
        if iters == _MAX_ITER:
            raise NumericalError("slope-bracketed search failed to converge")
        centre = np.where((lo <= best_p) & (best_p <= hi), best_p, 0.5 * (lo + hi))
        x = np.minimum(np.maximum(centre + offset, lo), hi)
        out = f(x)
        if not (isinstance(out, tuple) and len(out) == 3):
            raise ValidationError("f must return a tuple (value, slope, proposal)")
        value, slope, proposal = out
        if np.any(active & ~(np.isfinite(value) & np.isfinite(slope)).all(axis=0)):
            raise NumericalError("objective returned a non-finite value or slope")
        # a converged lane keeps its bracket and its best point
        lo = np.where(active, np.maximum(lo, np.where(slope >= 0.0, x, -np.inf).max(axis=0)), lo)
        hi = np.where(active, np.minimum(hi, np.where(slope <= 0.0, x, np.inf).min(axis=0)), hi)
        # zero slopes that cross (a flat stretch) leave lo above hi: keep the stretch
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        held = (lo <= x) & (x <= hi)
        # the centre, unless a side point in the bracket is strictly better
        j = np.where(held, value, -np.inf).argmax(axis=0)[None, None]
        y, fy, sy, py = np.take_along_axis(np.stack((x, *out)), j, axis=1)[:, 0]
        new = active & ((fy >= best_f) | (best_x < lo) | (best_x > hi))
        best_x, best_f = np.where(new, y, best_x), np.where(new, fy, best_f)
        best_s, best_p = np.where(new, sy, best_s), np.where(new, py, best_p)
        iters += 1
        # the value a step to a proposal inside the bracket would add, to first order
        inside = (lo < best_p) & (best_p < hi)
        gain = best_s * (np.where(inside, best_p, best_x) - best_x)
        worth = gain > np.maximum(tol * tol, _ROUNDING * np.abs(best_f))
        active = (hi - lo >= tol) | (inside & worth)
    achieved = float(np.max(hi - lo))
    return OptResult(best_x[()], best_f[()], iters, achieved, lo[()], hi[()], best_s[()])
