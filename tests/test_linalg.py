import math

import numpy as np
import pytest

import oracles
from capscale.holevo import entropy_from_squared_radius
from oracles import OracleError, validate_density_matrix


def test_herm_eigenvalues_matches_known_diagonalization():
    # states of known spectrum d: the PSD check admits them, and refuses
    # them once one eigenvalue dips below -1e-10
    rng = np.random.default_rng(7)
    for dim in (2, 3, 4, 8, 16):
        d = rng.dirichlet(np.ones(dim))
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q, _ = np.linalg.qr(m)
        rho = validate_density_matrix(q @ np.diag(d) @ q.conj().T, dim)
        assert oracles.entropy(rho) == pytest.approx(-(d * np.log2(d)).sum(), abs=1e-10)
        d[0], d[1] = -1e-8, d[0] + d[1] + 1e-8
        with pytest.raises(OracleError):
            validate_density_matrix(q @ np.diag(d) @ q.conj().T, dim)


def test_herm_eigenvalues_known_2x2():
    # damping output of the mirror state at gamma = a = 1/2: Bloch radius
    # sqrt(3)/2, eigenvalues (1 ± sqrt(3)/2) / 2
    b = math.sqrt(0.125)
    h = oracles.binary_entropy((1.0 - math.sqrt(0.75)) / 2.0)
    assert oracles.entropy(np.array([[0.75, b], [b, 0.25]])) == pytest.approx(h, abs=1e-14)
    assert entropy_from_squared_radius(0.75) == pytest.approx(h, abs=1e-14)


def test_herm_eigenvalues_rejects_bad_input():
    for m, dim in (
        (np.array([[0.5, 1.0], [0.0, 0.5]]), 2),  # not Hermitian
        (np.ones((2, 3)), 2),
        (np.eye(2) / 2.0, 4),  # not the expected dimension
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), 2),
    ):
        with pytest.raises(OracleError):
            validate_density_matrix(m, dim)


def test_validate_hermitian_tolerance():
    validate_density_matrix(np.array([[0.5, 1e-11j], [0.0, 0.5]]), 2)  # within 1e-10
    with pytest.raises(OracleError):
        validate_density_matrix(np.array([[0.5, 1e-8j], [0.0, 0.5]]), 2)


def test_validate_density_matrix():
    validate_density_matrix(np.eye(2) / 2.0, 2)
    with pytest.raises(OracleError):
        validate_density_matrix(np.eye(2), 2)  # trace 2
    with pytest.raises(OracleError):
        validate_density_matrix(np.diag([1.5, -0.5]), 2)  # not PSD


def test_von_neumann_entropy_values():
    # a qubit's entropy from its squared Bloch radius; the oracle for larger states
    r2 = (0.9330 - 0.0670) ** 2
    assert entropy_from_squared_radius(r2) == pytest.approx(0.3546271671967254, abs=1e-14)
    assert entropy_from_squared_radius(1.0) == 0.0
    assert entropy_from_squared_radius(0.0) == pytest.approx(1.0, abs=1e-14)
    assert oracles.entropy(np.eye(4) / 4.0) == pytest.approx(2.0, abs=1e-13)


def test_von_neumann_entropy_clips_roundoff_eigenvalues():
    # states assembled in floating point: squared radii above 1 or below 0
    # and tiny negative eigenvalues from roundoff must not produce NaNs
    rng = np.random.default_rng(3)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    assert oracles.entropy(np.outer(v, v.conj())) == pytest.approx(0.0, abs=1e-12)
    assert entropy_from_squared_radius(1.0 + 4e-16) == 0.0
    assert entropy_from_squared_radius(-1e-17) == 1.0
    v = v[:2] / np.linalg.norm(v[:2])
    r = oracles.bloch_vector(np.outer(v, v.conj()))
    assert entropy_from_squared_radius(r @ r) == pytest.approx(0.0, abs=1e-12)
    assert np.isnan(entropy_from_squared_radius(np.nan))

