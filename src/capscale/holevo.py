"""The Holevo quantity of mirror-pair ensembles, on Bloch vectors.

Every Holevo quantity the library reports is that of a mirror pair, the
pure states with Bloch vectors (±x, 0, z), x = 2 sqrt(a(1-a)) and
z = 2a - 1, sent with equal weights through a qubit branch's Bloch-affine
map r -> M r + t that is in normal form about z: covariant about z, with
G = MᵀM = diag(s, s, u) and Mᵀt = (0, 0, c). Each output's squared radius
|M r + t|² = rᵀG r + 2 (Mᵀt)·r + |t|² then reads four numbers per branch,
(s, u, c, τ = |t|²) (``scales._forms``), and both members of the pair go to
the same squared radius. ``mirror_chi`` evaluates the curve from them,
elementwise, with one entropy pass over the mean state's and one member's
squared radii; it is the library's one Holevo kernel. ``mirror_chi_jet``
adds the curve's analytic slope and curvature in ``a`` from the same pass,
for the maximizer's search. Every entropy here is a function of one number,
a qubit state's squared Bloch radius (``entropy_from_squared_radius``), in
bits. The kernel writes into a few arrays that each call allocates and
reuses, with the bits of one numpy expression per quantity. The tests check
the kernel against those expressions, density-matrix eigenvalues and a
closed-form damping curve.
"""

from __future__ import annotations

import math

import numpy as np



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


def _squared_radii(form, a):
    """z and the squared radii (u², r²) of the pair's mean state and of a member at a, stacked."""
    s, u, c, tau = form
    x2, z = 4.0 * a * (1.0 - a), 2.0 * a - 1.0
    out = np.empty((2, *np.broadcast_shapes(np.shape(z), np.shape(c))))
    u2, r2 = out[0, ...], out[1, ...]
    np.multiply(z * z, u, out=u2)
    u2 += np.multiply(2.0 * z, c, out=r2)  # r2 is free until it is written
    u2 += tau
    np.multiply(x2, s, out=r2)
    r2 += u2  # u² + x² s
    return z, out


def _chi(h):
    """The mean state's term less the member's, for entropies stacked as in _squared_radii."""
    return np.subtract(h[0, ...], h[1, ...], out=np.empty(h.shape[1:]))


def mirror_chi(form, a) -> np.ndarray:
    """Holevo quantity in bits of the mirror pair at a, from the four numbers (s, u, c, τ).

    form (4, ...) and a broadcast against each other; a is not checked.
    The mean state (0, 0, z) goes to squared radius u² = z² u + 2z c + τ,
    and each member, at equal weight, to r² = u² + x² s.
    """
    return _chi(_entropy_terms(_squared_radii(form, a)[1])[2])


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
    """mirror_chi at a and its first and second derivatives in a.

    The value has mirror_chi's bits. With z' = 2 and (x²)' = -4z, u² has
    derivatives 4(z u + c) and 8u, and r² has 4(z u + c) - 4z s and
    8(u - s); the entropies' derivatives are h'(q) q' and
    h''(q) q'² + h'(q) q'' (see _entropy_jet). Returns three arrays of
    the broadcast shape.
    """
    s, u, c, _ = form
    z, q = _squared_radii(form, a)
    dq = np.empty(q.shape)
    du2, dr2 = dq[0, ...], dq[1, ...]
    np.multiply(4.0, z * u + c, out=du2)
    np.multiply(4.0 * z, s, out=dr2)
    np.subtract(du2, dr2, out=dr2)
    h, h1, curv = _entropy_jet(q)
    curv *= dq
    curv *= dq
    curv[0, ...] += h1[0, ...] * (8.0 * u)
    curv[1, ...] += h1[1, ...] * (8.0 * (u - s))
    h1 *= dq
    return _chi(h), _chi(h1), _chi(curv)


