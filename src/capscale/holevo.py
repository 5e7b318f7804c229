"""The Holevo quantity of mirror-pair ensembles, on Bloch vectors.

Every Holevo quantity the library reports is that of a mirror pair, the
pure states with Bloch vectors (±x, 0, z), x = 2 sqrt(a(1-a)) and
z = 2a - 1, sent with equal weights through a qubit branch's Bloch-affine
map r -> M r + t. Each output's squared radius is a quadratic form in the
input, |M r + t|² = rᵀMᵀM r + 2 (Mᵀt)·r + |t|², which on the pair reads
only six numbers per branch (``mirror_form``). ``mirror_chi`` evaluates the
curve from them, elementwise, with one entropy pass over the mean state's
and the two members' squared radii; it is the library's one Holevo kernel.
Every entropy here is a function of one number, a qubit state's squared
Bloch radius (``entropy_from_squared_radius``), in bits. For the
amplitude-damping channel there is also a closed form for the derivative
of chi in ``a``; the ``amax`` command checks the reported maximizers
against its root. The tests check the kernel against density-matrix
eigenvalues and a closed-form damping curve.
"""

from __future__ import annotations

import math

import numpy as np

from .channels import QubitChannel, check_number, check_numbers, listed
from .errors import ValidationError


def entropy_from_squared_radius(r2):
    """Entropy in bits of qubit states with squared Bloch radius r2, elementwise.

    The smaller eigenvalue (1 - r)/2 is computed as (1 - r²)/(2(1 + r)),
    which keeps its relative accuracy for nearly pure states. Squared radii
    that roundoff pushes below 0 or above 1 count as 0 (the maximally mixed
    state) or 1 (pure); NaN propagates.
    """
    r2 = np.clip(np.asarray(r2, dtype=float), 0.0, 1.0)
    lam = (1.0 - r2) / (2.0 * (1.0 + np.sqrt(r2)))
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -(lam * np.log2(lam) + (1.0 - lam) * np.log2(1.0 - lam))
    return np.where(lam == 0.0, 0.0, h)


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


def mirror_chi(form, a) -> np.ndarray:
    """Holevo quantity in bits of the mirror pair at a, from mirror_form's numbers.

    form (6, ...) and a broadcast against each other; a is not checked.
    The mean state (0, 0, z) goes to squared radius
    u² = z²|c2|² + 2z c2·t + |t|², and the pair to
    r±² = u² + x²|c0|² ± 2x (z c0·c2 + c0·t).
    """
    c00, c02, c0t, c22, c2t, tt = form
    x2, z = 4.0 * a * (1.0 - a), 2.0 * a - 1.0
    u2 = z * z * c22 + 2.0 * z * c2t + tt
    mid, cross = u2 + x2 * c00, 2.0 * np.sqrt(x2) * (z * c02 + c0t)
    h = entropy_from_squared_radius(np.stack([u2, mid + cross, mid - cross]))
    return h[0] - 0.5 * (h[1] + h[2])


def chi_mirror_family(ch, a):
    """Holevo quantity of the mirror pair at parameter a, for any qubit branch.

    ch is a QubitChannel or a Bloch map (M, t) of shapes (..., 3, 3) and
    (..., 3), stacked or not, and ``a`` a scalar or an array broadcast
    against the stack; a float comes back for one channel and a scalar a,
    an array otherwise. The pair's Bloch vectors are (±2b, 0, 2a - 1) with
    b = sqrt(a(1-a)).
    """
    a_arr = check_numbers(a, "a")
    if not np.all((a_arr >= 0.0) & (a_arr <= 1.0)):
        raise ValidationError(f"a must be in [0, 1], got {a!r}")
    if isinstance(ch, QubitChannel):
        bloch_map = ch.bloch_map
    else:
        bloch_map = [check_numbers(x, "a Bloch map") for x in listed(ch, "ch", "arrays (M, t)")]
        shapes = [x.shape for x in bloch_map]
        if len(shapes) != 2 or shapes[0][-2:] != (3, 3) or shapes[1] != shapes[0][:-1]:
            raise ValidationError(
                "ch must be a QubitChannel or a Bloch map (M, t) "
                "of shapes (..., 3, 3) and (..., 3)"
            )
    form = mirror_form(bloch_map)
    try:
        np.broadcast_shapes(form.shape[1:], a_arr.shape)
    except ValueError as e:
        raise ValidationError(f"a does not broadcast against the channel stack: {e}") from e
    chi = mirror_chi(form, a_arr)
    return float(chi) if chi.ndim == 0 else chi


def dchi_da_ad(gamma: float, a: float) -> float:
    """Derivative of the damping mirror pair's chi in its parameter a, in nats.

    chi(a) = H(a + (1-a)γ) - H((1 - x) / 2) with H the binary entropy and x
    as below. Only the root location is ever used, so the natural-log form
    is kept:

        (1-γ) ln[(1-a)(1-γ) / (a + (1-a)γ)]
          + (2γ(1-γ)(1-a)/x) ln[(1+x)/(1-x)],  x = sqrt(1 - 4γ(1-γ)(1-a)²).

    At γ = 0 the second term vanishes and this reduces to ln((1-a)/a).

    Raises:
        ValidationError: for a γ or a that is not a number, γ outside
            [0, 1), a outside (0, 1), or x = 0.
    """
    gamma, a = check_number(gamma, "gamma"), check_number(a, "a")
    if not 0.0 <= gamma < 1.0:
        raise ValidationError(f"gamma must be in [0, 1), got {gamma!r}")
    if not 0.0 < a < 1.0:
        raise ValidationError(f"a must lie strictly inside (0, 1), got {a!r}")
    t1 = (1.0 - gamma) * math.log((1.0 - a) * (1.0 - gamma) / (a + (1.0 - a) * gamma))
    s = 4.0 * gamma * (1.0 - gamma) * (1.0 - a) ** 2
    if s == 0.0:
        return t1
    x = math.sqrt(max(0.0, 1.0 - s))
    if x == 0.0:
        raise ValidationError("derivative is singular at x = 0")
    one_minus_x = s / (1.0 + x)
    t2 = (2.0 * gamma * (1.0 - gamma) * (1.0 - a) / x) * math.log((1.0 + x) / one_minus_x)
    return t1 + t2
