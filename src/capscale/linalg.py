"""Qubit entropies from Bloch radii, and the density-matrix input check.

Every entropy the library computes is a function of one number, a qubit
state's Bloch radius. Entropies are in bits. The only density matrices
the library reads are the n-fold states that ``apply_memory_channel_n``
takes, checked here.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10


def validate_density_matrix(rho, dim: int) -> np.ndarray:
    """rho as a complex dim x dim array, checked against the density-matrix contract.

    Finite, Hermitian and of unit trace to 1e-10 entrywise, with
    eigenvalues that may dip to -1e-10 from roundoff.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValidationError(f"expected a {dim}x{dim} density matrix, got shape {rho.shape}")
    if not np.all(np.isfinite(rho.view(float))):
        raise ValidationError("matrix has non-finite entries")
    dev = np.abs(rho - rho.conj().T).max()
    if dev > HERMITIAN_TOL:
        raise ValidationError(f"matrix is not Hermitian: max |m - m*| = {dev:.3e}")
    tr = rho.trace()
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValidationError(f"trace must be 1, got {tr!r}")
    evs = np.linalg.eigvalsh(rho)
    if evs[0] < EIGENVALUE_FLOOR:
        raise ValidationError(f"matrix is not PSD: min eigenvalue {evs[0]:.3e}")
    return rho


def entropy_from_radius(r):
    """Entropy in bits of qubit states with Bloch radius r, elementwise.

    The smaller eigenvalue (1 - r)/2 is computed as (1 - r²)/(2(1 + r)),
    which keeps its relative accuracy for nearly pure states. Radii that
    roundoff pushes above 1 count as pure; NaN propagates.
    """
    r = np.minimum(np.asarray(r, dtype=float), 1.0)
    lam = (1.0 - r * r) / (2.0 * (1.0 + r))
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -(lam * np.log2(lam) + (1.0 - lam) * np.log2(1.0 - lam))
    return np.where(lam == 0.0, 0.0, h)
