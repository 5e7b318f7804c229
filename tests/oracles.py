"""Density-matrix oracles for the Bloch-vector library: plain numpy
transcriptions of Kraus sums, eigenvalue entropies and the Holevo quantity,
a lattice search over small ensembles, the memory laws (periodic, random
and Markov) acting on n-fold density matrices, the damping mirror-pair
curve's closed-form derivative with a bisection root finder, a 40-digit
maximizer of that curve, and 40-digit worst cases of pairs of damping,
X-conjugated damping and depolarizing curves. Nothing here imports
capscale, so a test that compares the two compares two independent
computations.
"""

import functools
import itertools
import math

import mpmath
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


def _entropy_bits(p):
    """H(p) in bits at mpmath's working precision: the binary entropy, with 0 log 0 = 0."""
    if p <= 0 or p >= 1:
        return mpmath.mpf(0)
    return -(p * mpmath.log(p, 2) + (1 - p) * mpmath.log(1 - p, 2))


def _damping_chi(gamma):
    """The damping mirror pair's Holevo curve in bits, at mpmath's working precision.

    chi(a) = H(a + (1-a)γ) - H((1 - x)/2), x = sqrt(1 - 4γ(1-γ)(1-a)²), with
    H the binary entropy.
    """
    g = mpmath.mpf(gamma)

    def chi(a):
        x = mpmath.sqrt(1 - 4 * g * (1 - g) * (1 - a) ** 2)
        return _entropy_bits(a + (1 - a) * g) - _entropy_bits((1 - x) / 2)

    return chi


@functools.lru_cache(maxsize=None)
def _damping_peak(gamma, dps):
    """The maximizer of _damping_chi(gamma), 0 < γ < 1, at dps digits of working precision.

    It is the root of dchi/da in (1/2, 1), taken by mpmath's numerical
    derivative of chi and bracketed root finding.
    """
    with mpmath.workdps(dps):
        chi = _damping_chi(gamma)
        bracket = (mpmath.mpf(1) / 2, 1 - mpmath.mpf(10) ** -6)
        return mpmath.findroot(lambda a: mpmath.diff(chi, a), bracket, solver="anderson")


def damping_argmax(gamma, digits=40):
    """The float nearest the maximizer in a of the damping mirror pair's Holevo curve.

    The maximizer, for 0 < γ < 1, is _damping_peak's root, found to digits
    digits at digits + 10 digits of working precision.
    """
    return float(_damping_peak(float(gamma), digits + 10))


# The damping maximizer lies at a >= 1/2, and dchi_da_ad is singular at a = 1.
AD_SEARCH_LO = 0.5 - 1e-3
AD_SEARCH_HI = 1.0 - 1e-9


def dchi_da_ad(gamma, a):
    """Derivative of the damping mirror pair's chi in its parameter a, in nats.

    chi(a) = H(a + (1-a)γ) - H((1 - x) / 2) with H the binary entropy and x
    as below. Only the root location is ever used, so the natural-log form
    is kept:

        (1-γ) ln[(1-a)(1-γ) / (a + (1-a)γ)]
          + (2γ(1-γ)(1-a)/x) ln[(1+x)/(1-x)],  x = sqrt(1 - 4γ(1-γ)(1-a)²).

    At γ = 0 the second term vanishes and this reduces to ln((1-a)/a).
    Refuses γ outside [0, 1), a outside (0, 1) and x = 0 (OracleError).
    """
    if not 0.0 <= gamma < 1.0:
        raise OracleError(f"gamma must be in [0, 1), got {gamma!r}")
    if not 0.0 < a < 1.0:
        raise OracleError(f"a must lie strictly inside (0, 1), got {a!r}")
    t1 = (1.0 - gamma) * math.log((1.0 - a) * (1.0 - gamma) / (a + (1.0 - a) * gamma))
    s = 4.0 * gamma * (1.0 - gamma) * (1.0 - a) ** 2
    if s == 0.0:
        return t1
    x = math.sqrt(max(0.0, 1.0 - s))
    if x == 0.0:
        raise OracleError("derivative is singular at x = 0")
    one_minus_x = s / (1.0 + x)
    return t1 + (2.0 * gamma * (1.0 - gamma) * (1.0 - a) / x) * math.log((1.0 + x) / one_minus_x)


def find_root_bisection(g, lo, hi, tol=1e-10):
    """Bisection root of a continuous function with a sign change on [lo, hi]."""
    if not lo < hi:
        raise OracleError(f"need lo < hi, got [{lo}, {hi}]")
    glo, ghi = g(lo), g(hi)
    if not (math.isfinite(glo) and math.isfinite(ghi)) or glo * ghi > 0.0:
        raise OracleError(f"no sign change on [{lo}, {hi}]: g={glo:.3e}, {ghi:.3e}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if not math.isfinite(gm):
            raise OracleError(f"g({mid!r}) is not finite")
        if glo * gm <= 0.0:
            hi = mid
        else:
            lo, glo = mid, gm
    return 0.5 * (lo + hi)


def _mirror_curve(kind, param):
    """(peak, chi) of a branch's mirror-pair curve at mpmath's working precision, or None if flat.

    kind is "damping" (γ), "x_damping" (X·AD(γ)·X, which damps toward |1>:
    the damping curve at 1 - a) or "depolarizing" (p, the Bloch shrink
    r -> (1 - p) r of QubitChannel.depolarizing's Kraus operators, whose
    pure inputs give outputs of radius 1 - p and whose mean state has
    radius (1 - p)|2a - 1|). Damping γ = 1 and depolarizing p = 1 are
    flat: chi = 0 everywhere.
    """
    if param == 1:
        return None
    if kind == "depolarizing":
        shrink = 1 - mpmath.mpf(param)

        def chi(a):
            return _entropy_bits((1 + shrink * (2 * a - 1)) / 2) - _entropy_bits((1 + shrink) / 2)

        return mpmath.mpf(1) / 2, chi
    peak, chi = _damping_peak(float(param), mpmath.mp.dps), _damping_chi(param)
    if kind == "damping":
        return peak, chi
    assert kind == "x_damping", kind
    return 1 - peak, lambda a: chi(1 - a)


def pair_minimum(first, second, digits=40):
    """max_a min(chi_1, chi_2)(a) of two mirror-pair curves, to digits digits, as a float.

    first and second are (kind, parameter) pairs as _mirror_curve takes
    them. Each curve is concave, so with peaks p_u <= p_v the value is
    chi_u(p_u) if chi_v(p_u) >= chi_u(p_u), else chi_v(p_v) if
    chi_u(p_v) >= chi_v(p_v), else the curves' value where they cross, the
    root of chi_u - chi_v in (p_u, p_v), found by bracketed root finding.
    Every curve is nonnegative, so a flat curve's pairs are worth 0.
    """
    with mpmath.workdps(digits + 10):
        curves = [_mirror_curve(*branch) for branch in (first, second)]
        if None in curves:
            return 0.0
        (pu, chi_u), (pv, chi_v) = sorted(curves, key=lambda c: c[0])
        if chi_v(pu) >= chi_u(pu):
            return float(chi_u(pu))
        if chi_u(pv) >= chi_v(pv):
            return float(chi_v(pv))
        root = mpmath.findroot(lambda a: chi_u(a) - chi_v(a), (pu, pv), solver="anderson")
        return float(chi_u(root))


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
