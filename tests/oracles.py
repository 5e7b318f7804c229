"""Density-matrix oracles for the Bloch-vector library: plain numpy
transcriptions of Kraus sums, eigenvalue entropies and the Holevo quantity.
Nothing here imports capscale.holevo or capscale.linalg, so a test that
compares the two compares two independent computations.
"""

import math

import numpy as np


def apply_kraus(ops, rho):
    """Channel output sum_k K rho K† of a density matrix."""
    return sum(k @ rho @ k.conj().T for k in ops)


def entropy(rho):
    """Von Neumann entropy in bits from eigvalsh; 0 log 0 counts as 0."""
    lam = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
    lam = lam[lam > 0.0]
    return float(-(lam * np.log2(lam)).sum())


def holevo_chi(ops, states, weights):
    """S(sum_j w_j Phi(rho_j)) - sum_j w_j S(Phi(rho_j)) in bits."""
    outs = [apply_kraus(ops, rho) for rho in states]
    avg = sum(w * out for w, out in zip(weights, outs))
    return entropy(avg) - sum(w * entropy(out) for w, out in zip(weights, outs))


def mirror_pair(a):
    """The mirror pair [[a, ±b], [±b, 1-a]], b = sqrt(a(1-a)): two pure states."""
    b = math.sqrt(a * (1.0 - a))
    return [np.array([[a, s * b], [s * b, 1.0 - a]], dtype=complex) for s in (1.0, -1.0)]


def bloch_vector(rho):
    """Bloch vector (x, y, z) of a qubit state rho = (I + x X + y Y + z Z) / 2."""
    return np.array([2.0 * rho[0, 1].real, -2.0 * rho[0, 1].imag, (rho[0, 0] - rho[1, 1]).real])
