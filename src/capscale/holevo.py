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
(``entropy_from_squared_radius``), in bits. The tests check the kernel
against density-matrix eigenvalues and a closed-form damping curve.
"""

from __future__ import annotations

import math

import numpy as np

from .channels import QubitChannel, check_numbers
from .errors import ValidationError


def _entropy_terms(r2):
    """r2 clipped to [0, 1], its root r, the entropy h in bits and log2((1 + r)/(1 - r)).

    The last is inf for a pure state; h is entropy_from_squared_radius(r2).
    """
    r2 = np.clip(np.asarray(r2, dtype=float), 0.0, 1.0)
    r = np.sqrt(r2)
    lam = (1.0 - r2) / (2.0 * (1.0 + r))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_lam, log_rest = np.log2(lam), np.log2(1.0 - lam)
        h = -(lam * log_lam + (1.0 - lam) * log_rest)
    return r2, r, np.where(lam == 0.0, 0.0, h), log_rest - log_lam


def entropy_from_squared_radius(r2):
    """Entropy in bits of qubit states with squared Bloch radius r2, elementwise.

    The smaller eigenvalue (1 - r)/2 is computed as (1 - r²)/(2(1 + r)),
    which keeps its relative accuracy for nearly pure states. Squared radii
    that roundoff pushes below 0 or above 1 count as 0 (the maximally mixed
    state) or 1 (pure); NaN propagates.
    """
    return _entropy_terms(r2)[2]


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
    """x, z, w = z c0·c2 + c0·t and the squared radii (u², r+², r-²) of the pair at a."""
    c00, c02, c0t, c22, c2t, tt = form
    x2, z = 4.0 * a * (1.0 - a), 2.0 * a - 1.0
    u2 = z * z * c22 + 2.0 * z * c2t + tt
    x, w = np.sqrt(x2), z * c02 + c0t
    mid, cross = u2 + x2 * c00, 2.0 * x * w
    s = np.empty((3, *np.shape(mid)))
    s[0] = u2
    np.add(mid, cross, out=s[1, ...])
    np.subtract(mid, cross, out=s[2, ...])
    return x, z, w, s


def _chi(h):
    """The mean state's term less the pair's mean, for entropies stacked as in _squared_radii."""
    return h[0] - 0.5 * (h[1] + h[2])


def mirror_chi(form, a) -> np.ndarray:
    """Holevo quantity in bits of the mirror pair at a, from mirror_form's numbers.

    form (6, ...) and a broadcast against each other; a is not checked.
    The mean state (0, 0, z) goes to squared radius
    u² = z²|c2|² + 2z c2·t + |t|², and the pair to
    r±² = u² + x²|c0|² ± 2x (z c0·c2 + c0·t).
    """
    return _chi(entropy_from_squared_radius(_squared_radii(form, a)[-1]))


def _entropy_jet(s):
    """Entropy in bits at squared radii s, and its first and second derivatives in s.

    With r = sqrt(s) and L = log2((1 + r)/(1 - r)) = 2 atanh(r) / ln 2,
    h'(s) = -L / (4r) and h''(s) = -(r / ((1 - s) ln 2) - L/2) / (4 r s).
    Below s = 1e-3, where L and that difference cancel, both come from the
    series atanh(r)/r = 1 + s/3 + s²/5 + ... A pure state (s >= 1) gives 0:
    its squared radius is at its largest, so its rate of change is 0 too.
    """
    s, r, h, L = _entropy_terms(s)
    small, pure = s < 1e-3, s >= 1.0
    # stand-ins where the closed forms are not used, so that they stay finite;
    # L = 0 gives a pure state h' = 0
    t = s.copy()
    r[small], t[small | pure], L[pure] = 1.0, 0.5, 0.0
    h1 = -0.25 * L / r
    h2 = (0.5 * L - r / ((1.0 - t) * math.log(2.0))) / (4.0 * r * t)
    h2[pure] = 0.0
    if small.any():
        k, s = -0.5 / math.log(2.0), s[small]
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
    du2 = np.multiply(4.0, z * c22 + c2t, out=ds[0, ...])
    dmid, dcross = du2 - 4.0 * z * c00, 2.0 * (dx * w + 2.0 * x * c02)
    d2mid, d2cross = 8.0 * (c22 - c00), 2.0 * (d2x * w + 4.0 * dx * c02)
    np.add(dmid, dcross, out=ds[1, ...])
    np.subtract(dmid, dcross, out=ds[2, ...])
    h, h1, h2 = _entropy_jet(s)
    curv = h2 * ds * ds
    curv[0] += h1[0] * (8.0 * c22)
    curv[1] += h1[1] * (d2mid + d2cross)
    curv[2] += h1[2] * (d2mid - d2cross)
    return _chi(h), _chi(h1 * ds), _chi(curv)


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
        raise ValidationError(f"a must be in [0, 1], got {a!r}")
    chi = mirror_chi(mirror_form(ch.bloch_map), a_arr)
    return float(chi) if chi.ndim == 0 else chi

