"""Lockstep concave maximization and root finding.

The golden-section and bisection routines are deliberately plain; every
capacity in this package reduces to maximizing sums or minima of concave
single-parameter Holevo curves, all of them in one lockstep search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_ITER = 500


@dataclass(frozen=True)
class OptResult:
    argmax: float
    value: float
    iterations: int
    achieved_tol: float


def maximize_concave_1d(f, lo, hi, tol: float = 1e-8) -> OptResult:
    """Golden-section maximization of concave (unimodal) functions, in lockstep.

    lo and hi are equal-shape arrays, one bracket per lane; a scalar
    bracket is one 0-d lane. f maps one point per lane to its value, twice
    to start, once per step and once at the end. Each lane takes the steps
    of its own search, so a lane's argmax and value do not depend on the
    other lanes; iterations and achieved_tol are those of the slowest lane.

    Each lane's final bracket is narrower than tol. An exact tie keeps
    [lo, d], so where f is flat to rounding around its peak the argmax
    leans toward lo (up to about 1e-7 off for damping curves at tol 1e-8)
    and a constant f converges to lo; the value is unaffected.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if not np.all(lo < hi):
        raise ValidationError(f"need lo < hi, got [{lo}, {hi}]")
    if not (1e-12 <= tol < math.inf):
        raise ValidationError(f"tol must be finite and >= 1e-12, got {tol}")
    c, d = hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo)
    fc, fd = f(c), f(d)
    iters = 0
    while np.any(active := hi - lo > tol):
        if np.any(active & ~(np.isfinite(fc) & np.isfinite(fd))):
            raise NumericalError("objective returned a non-finite value")
        # keep [lo, d] or [c, hi]; on a concave f a tie puts the peak in [c, d].
        # A converged lane keeps its bracket; its fc and fd are not read again.
        left, right = active & (fc >= fd), active & (fd > fc)
        lo, hi = np.where(right, c, lo), np.where(left, d, hi)
        c, d = (np.where(right, d, hi - _INVPHI * (hi - lo)),
                np.where(left, c, lo + _INVPHI * (hi - lo)))
        f_new = f(np.where(left, c, d))
        fc, fd = np.where(left, f_new, fd), np.where(left, fc, f_new)
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
