"""Density-matrix oracles for the Bloch-vector library: plain numpy
transcriptions of Kraus sums, eigenvalue entropies and the Holevo quantity,
a lattice search over small ensembles, and the memory laws (periodic,
random and Markov) acting on n-fold density matrices. Nothing here imports
capscale, so a test that compares the two compares two independent
computations.
"""

import functools
import itertools
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


def binary_entropy(x):
    """H(x) in bits: the entropy of diag(x, 1 - x)."""
    return entropy(np.diag([x, 1.0 - x]))


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


# --- lattice ensemble search --------------------------------------------------
#
# The best Holevo quantity over small pure-state ensembles on a sphere
# lattice (polar angles i*pi/(grid-1), azimuths 2*pi*k/grid) and a simplex
# weight grid with denominator weight_steps (default grid). Both entry
# points take a list of Kraus operators; the result is an exact maximum over
# the lattice, so it is monotone under grid refinement and in n_states.

_PAULIS = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))


def kraus_bloch_map(ops):
    """(M, t) of r -> M r + t, from the outputs on I/2 and (I + σ_j)/2."""
    t = bloch_vector(apply_kraus(ops, np.eye(2) / 2.0))
    cols = [bloch_vector(apply_kraus(ops, (np.eye(2) + s) / 2.0)) - t for s in _PAULIS]
    return np.column_stack(cols), t


def radius_entropy(r):
    """Entropy in bits of qubit states of Bloch radius r, elementwise."""
    lam = np.clip((1.0 - r) / 2.0, 0.0, 0.5)  # the smaller eigenvalue
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -(lam * np.log2(lam) + (1.0 - lam) * np.log2(1.0 - lam))
    return np.where(lam > 0.0, h, 0.0)


def weight_grid(n, steps):
    """All probability vectors with denominator steps, plus the uniform one."""
    cuts = np.array(list(itertools.combinations_with_replacement(range(steps + 1), n - 1)))
    edges = np.hstack([np.zeros((len(cuts), 1)), cuts, np.full((len(cuts), 1), steps)])
    return np.vstack([np.diff(edges, axis=1) / steps, np.full((1, n), 1.0 / n)])


def lattice_search_covariant(ops, n_states, grid, weight_steps=None):
    """The lattice optimum of a z-covariant channel, by mirror-symmetric azimuths.

    For M = diag(τ, τ, m_z) and t = (0, 0, t_z) the Holevo quantity depends on
    the azimuths only through the length of the average transverse Bloch
    component, and grows as that length shrinks. So each polar-angle
    multiset only needs azimuths 0 or pi, with the sign pattern that
    cancels the transverse component best.
    """
    M, t = kraus_bloch_map(ops)
    tau, mz, tz = M[0, 0], M[2, 2], t[2]
    assert np.abs(M - np.diag([tau, tau, mz])).max() <= 1e-12, "M is not diag(τ, τ, m_z)"
    assert np.abs(t[:2]).max() <= 1e-12, "t is not along z"
    wt = weight_grid(n_states, weight_steps or grid).T  # (n, W)
    theta = np.linspace(0.0, math.pi, grid)
    z, perp = np.cos(theta), np.sin(theta)
    cond = radius_entropy(np.hypot(tau * perp, tz + mz * z))
    combos = np.array(list(itertools.combinations_with_replacement(range(grid), n_states)))
    signs = np.array(list(itertools.product([1.0, -1.0], repeat=n_states - 1)))
    signs = np.hstack([np.ones((len(signs), 1)), signs])  # fix a global sign

    def evaluate(idx):
        tmin = np.abs((perp[idx] * signs[0]) @ wt)
        for sg in signs[1:]:
            np.minimum(tmin, np.abs((perp[idx] * sg) @ wt), out=tmin)
        radius = np.hypot(tau * tmin, tz + mz * (z[idx] @ wt))
        return radius_entropy(radius) - cond[idx] @ wt

    chunk = max(1, 4_000_000 // wt.shape[1])  # about 32 MB per array
    return max(float(evaluate(combos[i:i + chunk]).max()) for i in range(0, len(combos), chunk))


def lattice_search_literal(ops, n_states, grid, weight_steps=None):
    """The lattice optimum over every n_states-subset of lattice states, in one
    batch: feasible for small grids only (grid 8 and 3 states take about 20 MB)."""
    M, t = kraus_bloch_map(ops)
    w = weight_grid(n_states, weight_steps or grid)  # (W, n)
    th = np.pi * np.arange(1, grid - 1) / (grid - 1)
    ph = 2.0 * np.pi * np.arange(grid) / grid
    th, ph = np.repeat(th, grid), np.tile(ph, grid - 2)
    ring = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], -1)
    states = np.vstack([[[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], ring])  # poles once
    out = states @ M.T + t
    cond = radius_entropy(np.linalg.norm(out, axis=-1))
    idx = np.array(list(itertools.combinations(range(len(states)), n_states)))
    avg = np.einsum("wn,cnd->cwd", w, out[idx])
    return float((radius_entropy(np.linalg.norm(avg, axis=-1)) - cond[idx] @ w.T).max())


# --- memory laws on n-fold density matrices -----------------------------------
#
# A memory law over L branches gives n uses of the channel as weighted
# branch-index sequences: the uses apply branches seq[0], ..., seq[n - 1]
# with probability weight. A law is a function of n returning those
# (weight, seq) pairs. The n-fold action applies the weighted sum of the
# sequences' tensor-product maps to a 2^n-dimensional density matrix.

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10
MAX_FOLD = 4


class OracleError(ValueError):
    """An input that the oracles refuse."""


def validate_density_matrix(rho, dim):
    """rho as a complex dim x dim array, checked against the density-matrix contract.

    Finite, Hermitian and of unit trace to 1e-10 entrywise, with
    eigenvalues that may dip to -1e-10 from roundoff.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise OracleError(f"expected a {dim}x{dim} density matrix, got shape {rho.shape}")
    if not np.all(np.isfinite(rho.view(float))):
        raise OracleError("matrix has non-finite entries")
    dev = np.abs(rho - rho.conj().T).max()
    if dev > HERMITIAN_TOL:
        raise OracleError(f"matrix is not Hermitian: max |m - m*| = {dev:.3e}")
    tr = rho.trace()
    if abs(tr - 1.0) > TRACE_TOL:
        raise OracleError(f"trace must be 1, got {tr!r}")
    evs = np.linalg.eigvalsh(rho)
    if evs[0] < EIGENVALUE_FLOOR:
        raise OracleError(f"matrix is not PSD: min eigenvalue {evs[0]:.3e}")
    return rho


def periodic_law(L):
    """Periodic memory: the uses cycle through the L branches from a uniform offset."""
    return lambda n: [(1.0 / L, tuple((i + j) % L for j in range(n))) for i in range(L)]


def random_law(q):
    """Random memory: one branch, drawn with probabilities q, serves every use."""
    return lambda n: [(float(w), (i,) * n) for i, w in enumerate(q) if w > 0.0]


def markov_law(Q, lam):
    """Markov memory: the branch index follows a stationary chain with
    transition matrix Q and invariant distribution lam."""
    Q, lam = np.asarray(Q, dtype=float), np.asarray(lam, dtype=float)
    if np.abs(lam @ Q - lam).max() > 1e-8:
        raise OracleError("lam is not invariant under Q")

    def sequences(n):
        out = []
        for seq in itertools.product(range(len(lam)), repeat=n):
            w = float(lam[seq[0]])
            for a, b in itertools.pairwise(seq):
                w *= float(Q[a, b])
            if w > 0.0:
                out.append((w, seq))
        return out

    return sequences


def marginals(law, L):
    """The law's n = 1 marginals: the probability that each of L branches is used."""
    probs = np.zeros(L)
    for w, (i,) in law(1):
        probs[i] += w
    return probs


def apply_memory_channel_n(kraus_lists, law, rho_n, n):
    """The n-fold memory channel of the branches' Kraus lists on a 2^n-dimensional
    state, n <= 4: the law's weighted sum of tensor-product Kraus sums."""
    if not 1 <= n <= MAX_FOLD:
        raise OracleError(f"n must be in [1, {MAX_FOLD}], got {n}")
    rho_n = validate_density_matrix(rho_n, 2**n)
    out = np.zeros_like(rho_n)
    for w, seq in law(n):
        for combo in itertools.product(*(kraus_lists[i] for i in seq)):
            k = functools.reduce(np.kron, combo)
            out += w * (k @ rho_n @ k.conj().T)
    return out
