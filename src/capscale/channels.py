"""Qubit channel models and memory-channel constructions.

A ``QubitChannel`` is one CPT map (amplitude damping, depolarizing, or an
explicit Kraus list); the library computes on its Bloch-affine map
``bloch_map``, in closed form for amplitude damping and from the Kraus
operators for the other kinds. A ``MemoryChannel`` bundles L
branch maps with one of the two classical memory laws of the scale of
capacities: periodic cycling from a uniformly random offset, or one
branch per message drawn with probabilities q.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, shown

COMPLETENESS_TOL = 1e-10

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULI = np.array([_I2, _X, _Y, _Z])


def check_number(value, what, dtype=float):
    """value as a float: a real number, not a bool, within the float range.

    With dtype complex, value may also be complex, and comes back as a complex.
    """
    number = numbers.Real if dtype is float else numbers.Complex
    # bool is an int subclass, but JSON true is not the number 1
    if isinstance(value, bool) or not isinstance(value, number):
        raise ValidationError(f"{what} must be a number, got {shown(value)}")
    try:
        return dtype(value)
    except OverflowError as e:  # an integer past the float range
        raise ValidationError(f"{what} is too large for a float") from e


def check_numbers(value, name, dtype=float) -> np.ndarray:
    """value as an array of dtype (float or complex), each entry checked by check_number.

    value is a number, or nested lists, tuples or arrays of numbers, at most
    32 levels deep: the most dimensions numpy 1.24 gives an array.
    """
    if isinstance(value, np.ndarray) and value.dtype.kind in ("fiu" if dtype is float else "fiuc"):
        return value.astype(dtype)  # every entry is a number already

    def entries(v, depth):
        if isinstance(v, np.ndarray):
            v = v.tolist()
        if isinstance(v, (list, tuple)):
            # refused before the recursion nears Python's limit
            if depth == 32:
                raise ValidationError(f"{name} is nested too deeply: more than 32 levels")
            return [entries(x, depth + 1) for x in v]
        return check_number(v, f"each entry of {name}", dtype)

    nested = entries(value, 0)
    try:
        return np.array(nested, dtype=dtype)
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
        raise ValidationError(f"{what} must be an integer, got {shown(value)}") from None


def _unit_interval(value, name) -> float:
    """value as a float in [0, 1], by the channel-file number rule."""
    value = check_number(value, name)
    if not 0.0 <= value <= 1.0:  # NaN fails too
        raise ValidationError(f"{name} must be in [0, 1], got {shown(value)}")
    return value


def _check_completeness(dev) -> None:
    if dev > COMPLETENESS_TOL:
        raise ValidationError(f"Kraus completeness violated: |sum K†K - I| = {dev:.3e}")


# Channels hold arrays, so both channel classes compare and hash by identity.
@dataclass(frozen=True, eq=False)
class QubitChannel:
    """A CPT map on qubit states.

    The factory constructors and direct construction check the same rules:
    the parameter is a real number in [0, 1], Kraus operators are a
    nonempty list of finite 2x2 numbers, and the completeness sum K†K = I
    holds to 1e-10, for every kind. The Bloch map ``bloch_map`` is computed
    on construction: in closed form for amplitude damping, from the Kraus
    operators for every other kind.
    """

    kind: str
    gamma: float | None = None
    p: float | None = None
    kraus_ops: tuple = ()

    @classmethod
    def amplitude_damping(cls, gamma: float) -> "QubitChannel":
        return cls(kind="amplitude_damping", gamma=gamma)

    @classmethod
    def depolarizing(cls, p: float) -> "QubitChannel":
        return cls(kind="depolarizing", p=p)

    @classmethod
    def kraus(cls, ops) -> "QubitChannel":
        return cls(kind="kraus", kraus_ops=ops)

    def __post_init__(self):
        if self.kind == "amplitude_damping":
            gamma = _unit_interval(self.gamma, "gamma")
            object.__setattr__(self, "gamma", gamma)
            # the Kraus entries sqrt(1 - γ) and sqrt(γ) (see kraus_operators)
            s, r = math.sqrt(1.0 - gamma), math.sqrt(gamma)
            _check_completeness(abs(s * s + r * r - 1.0))
            # the Pauli-transfer products of those entries, added in the
            # einsum's order, so the map has the Kraus route's bits
            M = np.diag([s, s, 0.5 * ((1.0 + s * s) - r * r)])
            t = np.array([0.0, 0.0, 0.5 * ((1.0 - s * s) + r * r)])
            object.__setattr__(self, "_bloch_map", (M, t))
            return
        if self.kind == "depolarizing":
            object.__setattr__(self, "p", _unit_interval(self.p, "p"))
        elif self.kind == "kraus":
            ops = listed(self.kraus_ops, "kraus ops", "2x2 operators")
            ops = tuple(check_numbers(k, "a kraus op", complex) for k in ops)
            if not ops or any(k.shape != (2, 2) for k in ops):
                raise ValidationError("kraus kind needs a nonempty list of 2x2 operators")
            object.__setattr__(self, "kraus_ops", ops)
        else:
            raise ValidationError(f"unknown channel kind {shown(self.kind)}")
        ops = np.array(kraus_operators(self))
        if not np.all(np.isfinite(ops)):
            raise ValidationError("Kraus operators have non-finite entries")
        _check_completeness(np.abs(sum(k.conj().T @ k for k in ops) - _I2).max())
        # the Pauli transfer matrix R_ij = tr(σ_i Φ(σ_j)) / 2, with σ_0 = I
        R = 0.5 * np.einsum("iab,kbc,jcd,kad->ij", _PAULI, ops, _PAULI, ops.conj()).real
        object.__setattr__(self, "_bloch_map", (R[1:, 1:], R[1:, 0]))

    @property
    def bloch_map(self) -> tuple[np.ndarray, np.ndarray]:
        """Affine action on Bloch vectors, r -> M r + t, as the pair (M, t).

        Every qubit channel has this form (Ruskai, Szarek & Werner, Lin.
        Alg. Appl. 347, 159 (2002)). Computed once, on construction. For
        amplitude damping, with s = sqrt(1 - γ) and r = sqrt(γ),
        M = diag(s, s, (1 + s² - r²) / 2) and t = (0, 0, (1 - s² + r²) / 2).
        For every other kind, from the Pauli transfer matrix of its Kraus
        operators, R_ij = tr(σ_i Φ(σ_j)) / 2 with σ_0 = I: t = R[1:, 0],
        M = R[1:, 1:].
        """
        return self._bloch_map


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


def check_probabilities(q, L: int) -> np.ndarray:
    """q as the float array of a random memory's L branch probabilities; they sum to 1 ± 1e-10."""
    q = check_numbers(q, "'q'")
    if q.shape != (L,):
        raise ValidationError("random memory needs one probability per branch")
    # NaN fails both tests
    if not (q.min() >= 0.0 and abs(q.sum() - 1.0) <= 1e-10):
        raise ValidationError("q must be a probability vector summing to 1")
    return q


@dataclass(frozen=True, eq=False)
class MemoryChannel:
    """L branch channels plus a classical memory law.

    memory kinds:
      * ``periodic``: uniformly random cyclic starting offset
      * ``random``: one branch per message, drawn with probabilities q
    """

    branches: tuple
    memory: str
    q: np.ndarray | None = None

    @classmethod
    def periodic(cls, branches) -> "MemoryChannel":
        return cls(branches=branches, memory="periodic")

    @classmethod
    def random(cls, branches, q) -> "MemoryChannel":
        return cls(branches=branches, memory="random", q=q)

    def __post_init__(self):
        branches = tuple(listed(self.branches, "branches", "QubitChannel instances"))
        object.__setattr__(self, "branches", branches)
        L = len(branches)
        if L < 1:
            raise ValidationError("need at least one branch")
        if any(not isinstance(b, QubitChannel) for b in branches):
            raise ValidationError("branches must be QubitChannel instances")
        if self.memory == "random":
            object.__setattr__(self, "q", check_probabilities(self.q, L))
        elif self.memory != "periodic":
            raise ValidationError(f"unknown memory kind {shown(self.memory)}")
