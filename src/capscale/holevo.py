"""The Holevo quantity of mirror-pair ensembles, on Bloch vectors.

Every Holevo quantity the library reports is that of a mirror pair, the
pure states with Bloch vectors (±x, 0, z), x = 2 sqrt(a(1-a)) and
z = 2a - 1, sent with equal weights through a qubit branch's Bloch-affine
map r -> M r + t. Each output's squared radius is a quadratic form in the
input, |M r + t|² = rᵀMᵀM r + 2 (Mᵀt)·r + |t|², which on the pair reads
only six numbers per branch (``mirror_form``). ``mirror_chi`` evaluates the
curve from them, elementwise, with one entropy pass over the mean state's
and the two members' squared radii; it is the library's one Holevo kernel.
``mirror_chi_jet`` adds the curve's analytic slope and curvature in ``a``
from the same pass, for the maximizer's search. Every entropy here is a
function of one number, a qubit state's squared Bloch radius
(``entropy_from_squared_radius``), in bits. The kernel writes into a few
arrays that each call allocates and reuses, with the bits of one numpy
expression per quantity. The tests check the kernel against those
expressions, density-matrix eigenvalues and a closed-form damping curve.
"""

from __future__ import annotations

import math

import numpy as np

from .channels import QubitChannel, check_numbers
from .errors import ValidationError, shown


def _entropy_terms(s):
    """Clip squared radii s to [0, 1] in place; return s, its root r, the entropy h in bits and L.

    L = log2((1 + r)/(1 - r)), inf for a pure state. s is a float array of
    at least one dimension that the caller owns.
    """
    np.clip(s, 0.0, 1.0, out=s)
    r = np.sqrt(s)
    lam = np.add(1.0, r)
    lam *= 2.0
    rest = np.subtract(1.0, s)
    np.divide(rest, lam, out=lam)  # the smaller eigenvalue (1 - s)/(2(1 + r))
    np.subtract(1.0, lam, out=rest)
    with np.errstate(divide="ignore", invalid="ignore"):  # log2(0) and 0·(-inf) at a pure state
        L = np.log2(rest)
        rest *= L
        h = np.log2(lam)
        L -= h
        h *= lam
        h += rest
        np.negative(h, out=h)
        np.copyto(h, 0.0, where=lam == 0.0)
    return s, r, h, L


def entropy_from_squared_radius(r2):
    """Entropy in bits of qubit states with squared Bloch radius r2, elementwise.

    The smaller eigenvalue (1 - r)/2 is computed as (1 - r²)/(2(1 + r)),
    which keeps its relative accuracy for nearly pure states. Squared radii
    that roundoff pushes below 0 or above 1 count as 0 (the maximally mixed
    state) or 1 (pure); NaN propagates. r2 itself is not written, and the
    result has its shape.
    """
    return _entropy_terms(np.array(r2, dtype=float, ndmin=1))[2].reshape(np.shape(r2))


def mirror_form(bloch_map) -> np.ndarray:
    """The six numbers of Bloch maps (M, t) that their mirror-pair curves read.

    bloch_map is (M, t) of shapes (..., 3, 3) and (..., 3). With c0 and c2
    M's first and third columns, returns |c0|², c0·c2, c0·t, |c2|², c2·t
    and |t|² stacked on a new first axis, shape (6, ...).
    """
    M, t = (np.asarray(x, dtype=float) for x in bloch_map)
    c0, c2 = M[..., :, 0], M[..., :, 2]
    pairs = ((c0, c0), (c0, c2), (c0, t), (c2, c2), (c2, t), (t, t))
    return np.stack([np.einsum("...i,...i->...", u, v) for u, v in pairs])


def _squared_radii(form, a):
    """x, z, w = z c0·c2 + c0·t and the squared radii (u², r+², r-²) of the pair at a, stacked."""
    c00, c02, c0t, c22, c2t, tt = form
    x2, z = 4.0 * a * (1.0 - a), 2.0 * a - 1.0
    x, w = np.sqrt(x2), z * c02 + c0t  # w has the broadcast shape
    s = np.empty((3, *np.shape(w)))
    u2, plus, minus = s[0, ...], s[1, ...], s[2, ...]
    np.multiply(z * z, c22, out=u2)
    u2 += np.multiply(2.0 * z, c2t, out=minus)  # minus is free until r-² is written
    u2 += tt
    np.multiply(x2, c00, out=plus)
    plus += u2  # u² + x²|c0|²
    cross = 2.0 * x * w
    np.subtract(plus, cross, out=minus)
    plus += cross
    return x, z, w, s


def _chi(h):
    """The mean state's term less the pair's mean, for entropies stacked as in _squared_radii."""
    out = np.add(h[1, ...], h[2, ...], out=np.empty(h.shape[1:]))
    out *= 0.5
    return np.subtract(h[0, ...], out, out=out)


def mirror_chi(form, a) -> np.ndarray:
    """Holevo quantity in bits of the mirror pair at a, from mirror_form's numbers.

    form (6, ...) and a broadcast against each other; a is not checked.
    The mean state (0, 0, z) goes to squared radius
    u² = z²|c2|² + 2z c2·t + |t|², and the pair to
    r±² = u² + x²|c0|² ± 2x (z c0·c2 + c0·t).
    """
    return _chi(_entropy_terms(_squared_radii(form, a)[-1])[2])


def _entropy_jet(s):
    """Entropy in bits at squared radii s, and its first and second derivatives in s.

    With r = sqrt(s) and L = log2((1 + r)/(1 - r)) = 2 atanh(r) / ln 2,
    h'(s) = -L / (4r) and h''(s) = -(r / ((1 - s) ln 2) - L/2) / (4 r s).
    Below s = 1e-3, where L and that difference cancel, both come from the
    series atanh(r)/r = 1 + s/3 + s²/5 + ... A pure state (s >= 1) gives 0:
    its squared radius is at its largest, so its rate of change is 0 too.
    s is overwritten; h' is computed in L's buffer.
    """
    s, r, h, L = _entropy_terms(s)
    small, pure = s < 1e-3, s >= 1.0
    series = s[small]
    # stand-ins where the closed forms are not used, so that they stay finite;
    # L = 0 gives a pure state h' = 0
    r[small], s[small | pure], L[pure] = 1.0, 0.5, 0.0
    h2 = np.multiply(0.5, L)
    part = np.subtract(1.0, s)
    part *= math.log(2.0)
    h2 -= np.divide(r, part, out=part)
    np.multiply(4.0, r, out=part)
    part *= s
    h2 /= part
    h2[pure] = 0.0
    h1 = L
    h1 *= -0.25
    h1 /= r
    if small.any():
        k, s = -0.5 / math.log(2.0), series
        h1[small] = k + s * (k / 3 + s * (k / 5 + s * (k / 7 + s * (k / 9))))
        h2[small] = k / 3 + s * (2 * k / 5 + s * (3 * k / 7 + s * (4 * k / 9 + s * (5 * k / 11))))
    return h, h1, h2


def mirror_chi_jet(form, a):
    """mirror_chi at a and its first and second derivatives in a, for 0 < a < 1.

    The value has mirror_chi's bits. Since x² + z² = 1 with z' = 2,
    x' = -2z/x and x'' = -4/x³; each squared radius s is a polynomial in
    x and z, and the entropies' derivatives are h'(s) s' and
    h''(s) s'² + h'(s) s'' (see _entropy_jet). Returns three arrays of
    the broadcast shape.
    """
    c00, c02, c0t, c22, c2t, tt = form
    x, z, w, s = _squared_radii(form, a)
    dx = -2.0 * z / x
    d2x = -4.0 / (x * x * x)
    ds = np.empty(s.shape)
    du2, dplus, dminus = ds[0, ...], ds[1, ...], ds[2, ...]
    np.multiply(4.0, z * c22 + c2t, out=du2)
    np.multiply(4.0 * z, c00, out=dplus)
    np.subtract(du2, dplus, out=dplus)  # the mean's term, d(u² + x²|c0|²)
    dcross = 2.0 * (dx * w + 2.0 * x * c02)
    np.subtract(dplus, dcross, out=dminus)
    dplus += dcross
    d2mid, d2cross = 8.0 * (c22 - c00), 2.0 * (d2x * w + 4.0 * dx * c02)
    h, h1, curv = _entropy_jet(s)
    curv *= ds
    curv *= ds
    c0, c1, c2 = curv[0, ...], curv[1, ...], curv[2, ...]
    c0 += h1[0, ...] * (8.0 * c22)
    c1 += h1[1, ...] * (d2mid + d2cross)
    c2 += h1[2, ...] * (d2mid - d2cross)
    h1 *= ds
    return _chi(h), _chi(h1), _chi(curv)


def chi_mirror_family(ch, a):
    """Holevo quantity of the mirror pair at parameter a, through the QubitChannel ch.

    ``a`` is a scalar or an array; a float comes back for a scalar a, an
    array otherwise. The pair's Bloch vectors are (±2b, 0, 2a - 1) with
    b = sqrt(a(1-a)).
    """
    if not isinstance(ch, QubitChannel):
        raise ValidationError(f"ch must be a QubitChannel, got {type(ch).__name__}")
    a_arr = check_numbers(a, "a")
    if not np.all((a_arr >= 0.0) & (a_arr <= 1.0)):
        raise ValidationError(f"a must be in [0, 1], got {shown(a)}")
    chi = mirror_chi(mirror_form(ch.bloch_map), a_arr)
    return float(chi) if chi.ndim == 0 else chi

