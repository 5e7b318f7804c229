"""Qubit channel models and memory-channel constructions.

A ``QubitChannel`` is one CPT map (amplitude damping, depolarizing, or an
explicit Kraus list), given by its Kraus operators; the library computes
on its Bloch-affine map ``bloch_map``. A ``MemoryChannel`` bundles L
branch maps with a classical memory law: periodic cycling, an i.i.d.
random branch draw, or a stationary Markov chain over branch indices.
``apply_memory_channel_n`` applies the memory average to small n-fold
density matrices (n <= 4) by exhaustive branch-sequence expansion; it is
the one place the library reads a density matrix.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .linalg import validate_density_matrix

COMPLETENESS_TOL = 1e-10
MAX_FOLD = 4
MAX_SEQUENCES = 1_000_000

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULI = np.array([_I2, _X, _Y, _Z])


def check_number(value, what) -> float:
    """value as a float: a real number, not a bool, within the float range."""
    # bool is an int subclass, but JSON true is not the number 1
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as e:  # an integer past the float range
        raise ValidationError(f"{what} is too large for a float") from e


def check_numbers(value, name) -> np.ndarray:
    """value as a float array, each entry checked by check_number.

    value is a number, or nested lists, tuples or arrays of numbers.
    """
    if isinstance(value, np.ndarray) and value.dtype.kind in "fiu":
        return value.astype(float)  # every entry is a real number already

    def floats(v):
        if isinstance(v, np.ndarray):
            v = v.tolist()
        if isinstance(v, (list, tuple)):
            return [floats(x) for x in v]
        return check_number(v, f"each entry of {name}")

    nested = floats(value)
    try:
        return np.array(nested, dtype=float)
    except ValueError as e:  # ragged nesting
        raise ValidationError(f"{name} is ragged: its lists differ in length") from e


def listed(items, what: str, of: str) -> list:
    """items as a list; a non-iterable is refused as not a sequence of `of`."""
    try:
        return list(items)
    except TypeError as e:
        raise ValidationError(f"{what} must be a sequence of {of}: {e}") from e


def check_integer(value, what) -> int:
    """value as an int: anything operator.index accepts, but not a bool."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {value!r}") from None


# Channels hold arrays, so both channel classes compare and hash by identity.
@dataclass(frozen=True, eq=False)
class QubitChannel:
    """A CPT map on qubit states.

    Use the factory constructors; on construction every Kraus entry must
    be finite and the completeness sum K†K = I is checked to 1e-10, for
    every kind.
    """

    kind: str
    gamma: float | None = None
    p: float | None = None
    kraus_ops: tuple = ()

    @classmethod
    def amplitude_damping(cls, gamma: float) -> "QubitChannel":
        gamma = check_number(gamma, "gamma")
        if not 0.0 <= gamma <= 1.0:
            raise ValidationError(f"gamma must be in [0, 1], got {gamma!r}")
        return cls(kind="amplitude_damping", gamma=gamma)

    @classmethod
    def depolarizing(cls, p: float) -> "QubitChannel":
        p = check_number(p, "p")
        if not 0.0 <= p <= 1.0:
            raise ValidationError(f"p must be in [0, 1], got {p!r}")
        return cls(kind="depolarizing", p=p)

    @classmethod
    def kraus(cls, ops) -> "QubitChannel":
        ops = tuple(np.asarray(k, dtype=complex) for k in ops)
        if not ops or any(k.shape != (2, 2) for k in ops):
            raise ValidationError("kraus kind needs a nonempty list of 2x2 operators")
        return cls(kind="kraus", kraus_ops=ops)

    def __post_init__(self):
        if self.kind not in ("amplitude_damping", "depolarizing", "kraus"):
            raise ValidationError(f"unknown channel kind {self.kind!r}")
        ops = kraus_operators(self)
        if not all(np.all(np.isfinite(k)) for k in ops):
            raise ValidationError("Kraus operators have non-finite entries")
        comp = sum(k.conj().T @ k for k in ops)
        dev = np.abs(comp - _I2).max()
        if dev > COMPLETENESS_TOL:
            raise ValidationError(f"Kraus completeness violated: |sum K†K - I| = {dev:.3e}")

    @cached_property
    def bloch_map(self) -> tuple[np.ndarray, np.ndarray]:
        """Affine action on Bloch vectors, r -> M r + t, as the pair (M, t).

        Every qubit channel has this form (Ruskai, Szarek & Werner, Lin.
        Alg. Appl. 347, 159 (2002)). Computed once per channel from the
        Pauli transfer matrix R_ij = tr(σ_i Φ(σ_j)) / 2 with σ_0 = I:
        t = R[1:, 0], M = R[1:, 1:].
        """
        ops = np.array(kraus_operators(self))
        R = 0.5 * np.einsum("iab,kbc,jcd,kad->ij", _PAULI, ops, _PAULI, ops.conj()).real
        return R[1:, 1:], R[1:, 0]


def kraus_operators(ch: QubitChannel) -> list[np.ndarray]:
    """Kraus decomposition of the channel as a list of 2x2 arrays."""
    if ch.kind == "amplitude_damping":
        g = ch.gamma
        return [
            np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - g)]], dtype=complex),
            np.array([[0.0, math.sqrt(g)], [0.0, 0.0]], dtype=complex),
        ]
    if ch.kind == "depolarizing":
        p = ch.p
        ops = [math.sqrt(1.0 - 3.0 * p / 4.0) * _I2]
        w = math.sqrt(p / 4.0)
        if w > 0.0:
            ops += [w * _X, w * _Y, w * _Z]
        return ops
    return [k.copy() for k in ch.kraus_ops]


# The one refusal of markov memory wherever a rate is asked for.
MARKOV_LAW_ONLY = (
    "capscale computes no capacity, scale or simulation for markov memory; "
    "it provides only its law (branch_sequences, apply_memory_channel_n)"
)


def _is_distribution(v: np.ndarray) -> bool:
    """True when every row of v is a probability vector; NaN makes it False."""
    return bool(v.min() >= 0.0 and np.abs(v.sum(axis=-1) - 1.0).max() <= 1e-10)


def _branches(branches) -> tuple:
    return tuple(listed(branches, "branches", "QubitChannel instances"))


@dataclass(frozen=True, eq=False)
class MemoryChannel:
    """L branch channels plus a classical memory law.

    memory kinds:
      * ``periodic``: uniformly random cyclic starting offset
      * ``random``: one branch per message, drawn with probabilities q
      * ``markov``: branch index follows a stationary Markov chain with
        transition matrix Q and invariant distribution lam
    """

    branches: tuple
    memory: str
    q: np.ndarray | None = None
    Q: np.ndarray | None = None
    lam: np.ndarray | None = None

    @classmethod
    def periodic(cls, branches) -> "MemoryChannel":
        return cls(branches=_branches(branches), memory="periodic")

    @classmethod
    def random(cls, branches, q) -> "MemoryChannel":
        return cls(branches=_branches(branches), memory="random", q=q)

    @classmethod
    def markov(cls, branches, Q, lam) -> "MemoryChannel":
        return cls(branches=_branches(branches), memory="markov", Q=Q, lam=lam)

    def _floats(self, field, name, shape, need) -> np.ndarray:
        """Store a law parameter as a float array of the given shape."""
        arr = check_numbers(getattr(self, field), name)
        if arr.shape != shape:
            raise ValidationError(need)
        object.__setattr__(self, field, arr)
        return arr

    def __post_init__(self):
        L = len(self.branches)
        if L < 1:
            raise ValidationError("need at least one branch")
        if any(not isinstance(b, QubitChannel) for b in self.branches):
            raise ValidationError("branches must be QubitChannel instances")
        if self.memory == "periodic":
            return
        if self.memory == "random":
            q = self._floats("q", "'q'", (L,), "random memory needs one probability per branch")
            if not _is_distribution(q):
                raise ValidationError("q must be a probability vector summing to 1")
            return
        if self.memory == "markov":
            need = "markov memory needs an LxL transition matrix and length-L lambda"
            Q = self._floats("Q", "'Q'", (L, L), need)
            lam = self._floats("lam", "'lambda'", (L,), need)
            if not _is_distribution(Q):
                raise ValidationError("each row of Q must be a probability vector")
            if not _is_distribution(lam):
                raise ValidationError("lambda must be a probability vector summing to 1")
            if np.abs(lam @ Q - lam).max() > 1e-8:
                raise ValidationError("lambda is not invariant under Q")
            return
        raise ValidationError(f"unknown memory kind {self.memory!r}")

    def branch_sequences(self, n: int):
        """Yield (weight, index sequence) pairs defining the memory average."""
        L = len(self.branches)
        if self.memory == "periodic":
            for i in range(L):
                yield 1.0 / L, tuple((i + j) % L for j in range(n))
        elif self.memory == "random":
            for i in range(L):
                if self.q[i] > 0.0:
                    yield float(self.q[i]), (i,) * n
        else:
            if L**n > MAX_SEQUENCES:
                raise ValidationError(f"markov expansion of {L}^{n} sequences exceeds budget")
            for seq in itertools.product(range(L), repeat=n):
                w = float(self.lam[seq[0]])
                for a, b in itertools.pairwise(seq):
                    w *= float(self.Q[a, b])
                if w > 0.0:
                    yield w, seq


def _apply_product_map(branch_seq, channels, rho_n: np.ndarray) -> np.ndarray:
    """Apply the tensor product of the indexed branch maps via Kraus sums."""
    op_sets = [kraus_operators(channels[i]) for i in branch_seq]
    out = np.zeros_like(rho_n)
    for combo in itertools.product(*op_sets):
        k = combo[0]
        for op in combo[1:]:
            k = np.kron(k, op)
        out += k @ rho_n @ k.conj().T
    return out


def apply_memory_channel_n(mc: MemoryChannel, rho_n, n: int) -> np.ndarray:
    """Apply the n-fold memory channel to a 2^n-dimensional state, n <= 4."""
    if not 1 <= n <= MAX_FOLD:
        raise ValidationError(f"n must be in [1, {MAX_FOLD}], got {n}")
    rho_n = validate_density_matrix(rho_n, 2**n)
    out = np.zeros_like(rho_n)
    for w, seq in mc.branch_sequences(n):
        out += w * _apply_product_map(seq, mc.branches, rho_n)
    return out
