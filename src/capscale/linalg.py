"""Entropy and eigenvalue kernels for small Hermitian matrices.

All matrices are dense complex numpy arrays of dimension at most 16
(enough for four-fold qubit states). Entropies are in bits.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

MAX_DIM = 16
HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10


def as_matrix(m) -> np.ndarray:
    """Coerce input to a square complex matrix of dimension <= 16."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0 or m.shape[0] > MAX_DIM:
        raise ValidationError(f"dimension must be in [1, {MAX_DIM}], got {m.shape[0]}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValidationError("matrix has non-finite entries")
    return m


def validate_hermitian(m, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Return m as an array, raising if it is not Hermitian within tol."""
    m = as_matrix(m)
    dev = np.abs(m - m.conj().T).max()
    if dev > tol:
        raise ValidationError(f"matrix is not Hermitian: max |m - m*| = {dev:.3e}")
    return m


def validate_density_matrix(rho) -> np.ndarray:
    """Check the density-matrix contract: Hermitian, unit trace, PSD.

    Tolerances: 1e-10 entrywise for Hermiticity and trace, eigenvalues
    may dip to -1e-10 from roundoff.
    """
    rho = validate_hermitian(rho)
    tr = rho.trace()
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValidationError(f"trace must be 1, got {tr!r}")
    evs = np.linalg.eigvalsh(rho)
    if evs[0] < EIGENVALUE_FLOOR:
        raise ValidationError(f"matrix is not PSD: min eigenvalue {evs[0]:.3e}")
    return rho


def herm_eigenvalues(m) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, sorted descending.

    Args:
        m: square Hermitian matrix (within 1e-10 entrywise).

    Returns:
        Real eigenvalues in descending order; their sum equals the trace
        to within 1e-9.
    """
    m = validate_hermitian(m)
    return np.linalg.eigvalsh(m)[::-1]


def von_neumann_entropy(rho) -> float:
    """Von Neumann entropy S(rho) = -sum(lam * log2(lam)) in bits.

    Eigenvalues within roundoff of the [0, 1] boundary are clipped before
    the log; 0*log(0) counts as 0.

    Args:
        rho: a valid density matrix.
    """
    rho = validate_density_matrix(rho)
    evs = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
    nz = evs[evs > 0.0]
    return float(-(nz * np.log2(nz)).sum())


def binary_entropy(x: float) -> float:
    """Binary entropy H(x) = -x log2 x - (1-x) log2(1-x) in bits.

    The argument is folded onto [0, 1/2] first, so H(x) == H(1-x) holds
    exactly whenever 1-x is exactly representable (always true for
    x >= 1/2). Endpoints return 0.

    Raises:
        ValidationError: if x lies outside [0, 1] by more than 1e-12.
    """
    if not (-1e-12 <= x <= 1.0 + 1e-12):
        raise ValidationError(f"binary_entropy argument must be in [0, 1], got {x!r}")
    if x > 0.5:
        x = 1.0 - x
    if x <= 0.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


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
