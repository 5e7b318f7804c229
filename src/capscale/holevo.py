"""The Holevo quantity of qubit ensembles, on Bloch vectors.

Every Holevo quantity the library reports goes through one vectorized
kernel, ``holevo_chi``: input Bloch vectors pass through the channel's
Bloch-affine map r -> M r + t, and each output's entropy follows from its
Bloch radius. For the amplitude-damping channel restricted to a
mirror-image pair of pure states there are also closed forms for chi and
its derivative in the shared state parameter ``a``. The tests cross-check
the two, and the kernel against density-matrix eigenvalues.
"""

from __future__ import annotations

import math

import numpy as np

from .channels import QubitChannel
from .errors import ValidationError
from .linalg import binary_entropy, entropy_from_radius


def holevo_chi(bloch_map, r, w) -> np.ndarray:
    """Holevo quantity in bits of ensembles of input Bloch vectors.

    bloch_map is a channel's (M, t), or a stack of them of shapes (..., 3, 3)
    and (..., 3). r has shape (..., n, 3) and w shape (..., n); all three
    broadcast against each other, one ensemble per leading index, and each
    row of w sums to 1. Returns S(M r̄ + t) - sum_j w_j S(M r_j + t), of
    the broadcast leading shape.
    """
    M, t = bloch_map
    # matmul takes its fast path on stacks of contiguous matrices only
    MT, t = np.ascontiguousarray(np.swapaxes(M, -1, -2)), np.expand_dims(t, -2)

    def output_entropy(v):  # v: (..., k, 3) -> (..., k)
        return entropy_from_radius(np.linalg.norm(v @ MT + t, axis=-1))

    w = np.asarray(w, dtype=float)
    rbar = np.einsum("...n,...nd->...d", w, r)
    return output_entropy(rbar[..., None, :])[..., 0] - (w * output_entropy(r)).sum(axis=-1)


def chi_mirror_family(ch, a):
    """Holevo quantity of the mirror pair at parameter a, for any qubit branch.

    ch is a QubitChannel or a Bloch map (M, t), stacked or not, and ``a`` a
    scalar or an array broadcast against the stack; a float comes back for
    one channel and a scalar a, an array otherwise. The pair's Bloch
    vectors are (±2b, 0, 2a - 1) with b = sqrt(a(1-a)).
    """
    a_arr = np.asarray(a, dtype=float)
    if not np.all((a_arr >= 0.0) & (a_arr <= 1.0)):
        raise ValidationError(f"a must be in [0, 1], got {a!r}")
    x, z = 2.0 * np.sqrt(a_arr * (1.0 - a_arr)), 2.0 * a_arr - 1.0
    r = np.stack([np.stack([s * x, np.zeros_like(x), z], -1) for s in (1.0, -1.0)], -2)
    chi = holevo_chi(ch.bloch_map if isinstance(ch, QubitChannel) else ch, r, (0.5, 0.5))
    return float(chi) if chi.ndim == 0 else chi


def _check_unit_interval(name, value):
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must be in [0, 1], got {value!r}")


def chi_ad_mirror(gamma: float, a: float) -> float:
    """Closed-form Holevo quantity of the amplitude-damping mirror pair, in bits.

    The mirror pair averages to the diagonal state diag(a + (1-a)γ,
    (1-a)(1-γ)), and each branch output has eigenvalues
    (1 ± sqrt(1 - 4γ(1-γ)(1-a)²)) / 2, so

        chi(a) = H(a + (1-a)γ) - H((1 - sqrt(1 - 4γ(1-γ)(1-a)²)) / 2).
    """
    _check_unit_interval("gamma", gamma)
    _check_unit_interval("a", a)
    s = 4.0 * gamma * (1.0 - gamma) * (1.0 - a) ** 2
    x = math.sqrt(max(0.0, 1.0 - s))
    # (1-x)/2 rewritten as s / (2(1+x)) to avoid cancellation for small s
    lam_minus = s / (2.0 * (1.0 + x))
    return binary_entropy(a + (1.0 - a) * gamma) - binary_entropy(lam_minus)


def dchi_da_ad(gamma: float, a: float) -> float:
    """Derivative of chi_ad_mirror in the state parameter a, in nats.

    Only the root location is ever used, so the natural-log form is kept:

        (1-γ) ln[(1-a)(1-γ) / (a + (1-a)γ)]
          + (2γ(1-γ)(1-a)/x) ln[(1+x)/(1-x)],  x = sqrt(1 - 4γ(1-γ)(1-a)²).

    At γ = 0 the second term vanishes and this reduces to ln((1-a)/a).

    Raises:
        ValidationError: for γ outside [0, 1), a outside (0, 1), or x = 0.
    """
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
