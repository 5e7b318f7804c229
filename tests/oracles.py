"""Density-matrix oracles for the Bloch-vector library: plain numpy
transcriptions of Kraus sums, eigenvalue entropies and the Holevo quantity,
a lattice search over small ensembles, a Bloch map's Kraus operators and
its normal form about its input axis, both from eigendecompositions, the
memory laws (periodic, random and Markov) acting on n-fold density
matrices, the damping mirror-pair curve's closed-form derivative with a
bisection root finder, a 40-digit maximizer of that curve, and 40-digit
worst cases of pairs of damping, X-conjugated damping and depolarizing
curves, and the mirror-pair Holevo kernel written as one numpy expression
per quantity, the reference for the library kernel's bits, with the four
numbers of a map in normal form about z read from its columns, the subsets
of the branches in report order, the command line's JSON text written
in two steps, a rounded copy and then json.dumps, and the best
product-state value of branches covariant about one axis, from the lower
convex envelope of their pure-state entropies. Nothing here imports
capscale, so a test that compares the two compares two independent
computations.
"""

import functools
import itertools
import json
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


def bloch_map_kraus(M, t):
    """Kraus operators of the channel r -> M r + t, from the eigenvectors of its Choi matrix."""
    choi = np.zeros((4, 4), dtype=complex)
    for i, j in itertools.product(range(2), repeat=2):
        e = np.zeros((2, 2))
        e[i, j] = 1.0  # |i><j|, mapped by the linear extension of the affine map
        r = np.array([np.trace(e @ s) for s in _PAULIS])
        image = np.trace(e) * (np.eye(2) + sum(tk * s for tk, s in zip(t, _PAULIS)))
        choi += np.kron(e, (image + sum(v * s for v, s in zip(M @ r, _PAULIS))) / 2.0)
    lam, vec = np.linalg.eigh(choi)
    return [math.sqrt(x) * v.reshape(2, 2).T for x, v in zip(lam, vec.T) if x > 1e-14]


def normal_form(M, t):
    """(s, u, c, |t|²): the Bloch map (M, t) read about its input axis n.

    A map covariant about n has G = MᵀM = s I + (u - s) nnᵀ and g = Mᵀt = c n.
    n is the eigenvector (LAPACK's eigh) of G's simple eigenvalue u, or g/|g|
    where G ∝ I, with its largest component positive.
    """
    G, g = M.T @ M, M.T @ t
    w, v = np.linalg.eigh(G)  # ascending
    if w[2] - w[0] < 1e-12:
        n, u, s = g / np.linalg.norm(g), w.mean(), w.mean()
    elif w[2] - w[1] > w[1] - w[0]:
        n, u, s = v[:, 2], w[2], (w[0] + w[1]) / 2.0
    else:
        n, u, s = v[:, 0], w[0], (w[1] + w[2]) / 2.0
    n = n * np.sign(n[np.abs(n).argmax()])
    return np.array([s, u, g @ n, t @ t]), n


def radius_entropy(r):
    """Entropy in bits of qubit states of Bloch radius r, elementwise."""
    lam = np.clip((1.0 - r) / 2.0, 0.0, 0.5)  # the smaller eigenvalue
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -(lam * np.log2(lam) + (1.0 - lam) * np.log2(1.0 - lam))
    return np.where(lam > 0.0, h, 0.0)


# Heights of the envelope oracle's grid on [-1, 1].
ENVELOPE_HEIGHTS = np.linspace(-1.0, 1.0, 20_001)


def _shared_axis(maps):
    """The input axis (normal_form's) of the most anisotropic of the Bloch maps, or z
    where every map is isotropic (G ∝ I and g = 0)."""
    best, axis = 1e-9, np.array([0.0, 0.0, 1.0])
    for M, t in maps:
        w = np.linalg.eigvalsh(M.T @ M)
        spread = w[2] - w[0] + np.linalg.norm(M.T @ t)
        if spread > best:
            best, axis = spread, normal_form(M, t)[1]
    return axis


def _envelope_rows(maps):
    """Rows H_i and S_i of envelope_value on ENVELOPE_HEIGHTS, shape (2, L, heights)."""
    z = ENVELOPE_HEIGHTS
    n = _shared_axis(maps)
    e = np.cross(n, (1.0, 0.0, 0.0) if abs(n[0]) < 0.9 else (0.0, 1.0, 0.0))
    e /= np.linalg.norm(e)
    pure = z[:, None] * n + np.sqrt(1.0 - z * z)[:, None] * e  # pure inputs at each height
    H = [radius_entropy(np.linalg.norm(z[:, None] * (M @ n) + t, axis=1)) for M, t in maps]
    S = [radius_entropy(np.linalg.norm(pure @ M.T + t, axis=1)) for M, t in maps]
    return np.array([H, S])


def _envelope(H, S):
    """envelope_value of one weighted pair of rows H and S on ENVELOPE_HEIGHTS."""
    z = ENVELOPE_HEIGHTS
    hi = max(np.abs(np.diff(H)).max(), np.abs(np.diff(S)).max()) / (z[1] - z[0]) + 1.0
    lo = -hi
    pz, left, right = np.empty_like(z), np.empty_like(z), np.empty_like(z)  # reused each step
    # to a bracket of 1e-12: φ's slope is at most 2, so φ is then within 2e-12
    for _ in range(math.ceil(math.log2(2.0 * hi / 1e-12))):
        p = (lo + hi) / 2.0
        np.multiply(p, z, out=pz)
        np.subtract(pz, S, out=left)
        np.subtract(H, pz, out=right)
        if z[left.argmax()] > z[right.argmax()]:
            hi = p
        else:
            lo = p
    p = (lo + hi) / 2.0
    return float((p * z - S).max() + (H - p * z).max())


def envelope_value(maps, weights):
    """max over z̄ of Σ w_i H_i(z̄) - conv(Σ w_i S_i)(z̄), on ENVELOPE_HEIGHTS.

    maps are the Bloch maps (M, t) of branches covariant about one shared
    input axis n, the axis of the most anisotropic of them. H_i(z̄) is the
    entropy of branch i's output on the input z̄ n, S_i(z) that on a pure
    input at height z along n (the same at every azimuth, as the branch is
    covariant), and conv the lower convex envelope. Twirling an ensemble
    about n moves its mean onto the axis and changes no output entropy, so
    this is the largest Σ w_i χ_i of any ensemble: the best product-state
    value of a weighted sum of the branches, whatever number of states it
    needs. weights has shape (B, L), one row per weighted sum, and the
    values shape (B,).

    The envelope enters through its Legendre transform: on the grid, by
    Sion's minimax theorem (H is concave), the value is the minimum over
    slopes p of φ(p) = max_k (p z_k - S_k) + max_k (H_k - p z_k), a convex
    piecewise-linear function of p with slope z_S - z_H at the two maxima;
    a bisection on that slope's sign finds it.
    """
    rows = np.asarray(weights, dtype=float) @ _envelope_rows(maps)
    return np.array([_envelope(H, S) for H, S in zip(*rows)])


def envelope_minimax(maps):
    """min over λ = (x, 1 - x) of envelope_value(maps, [λ]) for two maps: max_E min(χ_0, χ_1).

    The value is max over ensembles of min over λ of Σ λ_i χ_i, and the
    minimum and maximum swap (Sion: linear in λ, concave in the ensemble's
    distribution). envelope_value is convex in λ, so a grid of 11 x brackets
    its minimum, and 40 golden-section steps narrow that bracket to about
    0.2 · 0.618^40 = 8e-10; the ends x = 0 and 1 are on the grid.
    """
    rows = _envelope_rows(maps)

    def value(x):
        return _envelope(*(np.array([x, 1.0 - x]) @ rows))

    grid = np.linspace(0.0, 1.0, 11)
    on_grid = [value(x) for x in grid]
    k = int(np.argmin(on_grid))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, 10)]
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    fc, fd = value(c), value(d)
    for _ in range(40):
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - ratio * (hi - lo)
            fc = value(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + ratio * (hi - lo)
            fd = value(d)
    return min(*on_grid, fc, fd)


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


def damping_pair_gap(gamma0, gamma1, digits=40):
    """chi_star_avg - c_p of two damping branches, as ad-gap defines it, to digits digits.

    chi_star_avg is the mean of the two curves' peak values, and c_p half
    the maximum of their sum, which is concave: that maximum lies at the
    root of its derivative between the two peaks. A flat branch (γ = 1)
    adds 0 everywhere.
    """
    with mpmath.workdps(digits + 10):
        curves = [_mirror_curve("damping", g) for g in (gamma0, gamma1)]
        curves = [c for c in curves if c is not None]
        if len(curves) < 2 or gamma0 == gamma1:
            return 0.0
        (p0, chi0), (p1, chi1) = curves

        def total(a):
            return chi0(a) + chi1(a)

        joint = mpmath.findroot(lambda a: mpmath.diff(total, a), (p0, p1), solver="anderson")
        return float((chi0(p0) + chi1(p1) - total(joint)) / 2)


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


def all_subsets(L, sizes):
    """The subsets of range(L) of the given sizes as sorted tuples, size-major, then in
    lexicographic order: the order of every report's rows."""
    return [s for r in sizes for s in itertools.combinations(range(L), r)]


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


# The mirror-pair Holevo kernel as one numpy expression per quantity: the
# library computes the same operations in the same order into reused
# buffers, so the two agree bit for bit on the machine that runs both.


def _kernel_entropy_terms(r2):
    """r2 clipped to [0, 1], its root r, the entropy h in bits and log2((1 + r)/(1 - r))."""
    r2 = np.clip(np.asarray(r2, dtype=float), 0.0, 1.0)
    r = np.sqrt(r2)
    lam = (1.0 - r2) / (2.0 * (1.0 + r))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_lam, log_rest = np.log2(lam), np.log2(1.0 - lam)
        h = -(lam * log_lam + (1.0 - lam) * log_rest)
    return r2, r, np.where(lam == 0.0, 0.0, h), log_rest - log_lam


def kernel_entropy(r2):
    """Entropy in bits at squared Bloch radii r2, clipped to [0, 1]."""
    return _kernel_entropy_terms(r2)[2]


def mirror_form(bloch_map):
    """The four numbers (s, u, c, τ) of Bloch maps (M, t) in normal form about z.

    bloch_map is (M, t) of shapes (..., 3, 3) and (..., 3). With c0 and c2
    M's first and third columns, returns |c0|², |c2|², c2·t and |t|²
    stacked on a new first axis, shape (4, ...).
    """
    M, t = (np.asarray(x, dtype=float) for x in bloch_map)
    c0, c2 = M[..., :, 0], M[..., :, 2]
    pairs = ((c0, c0), (c2, c2), (c2, t), (t, t))
    return np.stack([np.einsum("...i,...i->...", u, v) for u, v in pairs])


def _kernel_squared_radii(form, a):
    s, u, c, tau = form
    x2, z = 4.0 * a * (1.0 - a), 2.0 * a - 1.0
    u2 = z * z * u + 2.0 * z * c + tau
    return z, np.stack(np.broadcast_arrays(u2, x2 * s + u2))


def _kernel_chi(h):
    return h[0] - h[1]


def kernel_chi(form, a):
    """The mirror pair's Holevo quantity in bits at a, from the four numbers of its form."""
    return _kernel_chi(kernel_entropy(_kernel_squared_radii(form, a)[-1]))


def _kernel_entropy_jet(s):
    s, r, h, L = _kernel_entropy_terms(s)
    small, pure = s < 1e-3, s >= 1.0
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


def kernel_chi_jet(form, a):
    """kernel_chi at a and its first and second derivatives in a."""
    s, u, c, tau = form
    z, q = _kernel_squared_radii(form, a)
    du2 = 4.0 * (z * u + c)
    dq = np.stack(np.broadcast_arrays(du2, du2 - 4.0 * z * s))
    h, h1, h2 = _kernel_entropy_jet(q)
    curv = h2 * dq * dq
    curv[0] += h1[0] * (8.0 * u)
    curv[1] += h1[1] * (8.0 * (u - s))
    return _kernel_chi(h), _kernel_chi(h1 * dq), _kernel_chi(curv)


def _rounded(obj):
    """A copy of obj with each float at 12 significant digits and each tuple a list."""
    if isinstance(obj, float):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    return obj


def rounded_json(obj):
    """The command line's JSON text of obj, without its final line break:
    json.dumps(indent=2) of the rounded copy."""
    return json.dumps(_rounded(obj), indent=2)
