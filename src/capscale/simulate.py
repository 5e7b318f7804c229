"""Monte Carlo check of the operational meaning of subset rates.

The model is deliberately idealized: at each attempted rate the decoder
targets one subset of branches (the most probable one whose rate clears
it, or one the caller fixes), the channel draws one branch per trial
(uniformly over cyclic offsets for periodic memory, by q for random
memory), and decoding succeeds exactly when the drawn branch lies in the
target subset and the rate is strictly below the subset's achievable
rate. empirical_staircase is the one entry. Empirical failure
frequencies then converge to the theoretical error floors at the usual
1/sqrt(n) pace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import MemoryChannel, check_integer, check_number
from .errors import ValidationError, shown
from .scales import (
    check_indices,
    compute_capacity_report,
    compute_random_scale_report,
    subset_scale_value,
)

# Rates this close to a subset's achievable rate are refused: the
# success indicator would hinge on noise in the final optimizer digits.
RATE_MARGIN = 1e-12

# Largest trial count of one simulation. The draw is one multinomial count
# per branch, so its memory does not grow with n_trials; the cap keeps the
# accepted counts to a stated range.
MAX_TRIALS = 10**8


def _check_rate(rate) -> float:
    """A rate in bits as a float: a finite, nonnegative real number, not a bool."""
    value = check_number(rate, "rate")
    if not 0.0 <= value < math.inf:
        raise ValidationError(f"rate must be finite and nonnegative, got {shown(rate)}")
    return value


def _check_draws(n_trials, seed, rows: int = 1) -> tuple[int, int]:
    """n_trials and seed as ints, for `rows` runs seeded seed, seed + 1, ...

    Both must be integers, not bools; n_trials lies in [1, MAX_TRIALS] and
    every seed in [0, 2**128), the generator's key range.
    """
    n_trials, seed = check_integer(n_trials, "n_trials"), check_integer(seed, "seed")
    if not 1 <= n_trials <= MAX_TRIALS:
        raise ValidationError(f"n_trials must be in [1, {MAX_TRIALS}], got {shown(n_trials)}")
    if not 0 <= seed <= 2**128 - rows:
        raise ValidationError(f"seed must be in [0, 2**128 - {rows}], got {shown(seed)}")
    return n_trials, seed


def _branch_probs(mc: MemoryChannel) -> np.ndarray:
    if mc.memory == "periodic":
        L = len(mc.branches)
        return np.full(L, 1.0 / L)
    return np.asarray(mc.q, dtype=float)


def _rated(mc: MemoryChannel, subset, tol: float) -> list[tuple[tuple[int, ...], float, float]]:
    """(subset, rate, probability) rows of mc's report, in the report's order.

    subset None asks for every row: each scale level's best subset
    (periodic memory) or every subset, size-major and then lexicographic
    (random memory); a subset asks for its own row. A subset's probability
    is that of the drawn branch lying in it.
    """
    if mc.memory == "random":
        deltas = None if subset is None else [subset]
        report = compute_random_scale_report(mc.branches, mc.q, deltas, tol)
        return [(d, s.c_delta, s.q_delta) for d, s in report.per_subset.items()]
    L = len(mc.branches)
    if subset is None:
        entries = compute_capacity_report(mc.branches, tol).scale.values()
        return [(e.best_subset, e.value, len(e.best_subset) / L) for e in entries]
    return [(subset, subset_scale_value(mc.branches, subset, tol), len(subset) / L)]


def _clears(rate: float, subset, value: float) -> bool:
    """Whether rate is below `value`, the rate of subset; refused within RATE_MARGIN."""
    if abs(rate - value) <= RATE_MARGIN:
        raise ValidationError(
            f"rate {rate!r} is within {RATE_MARGIN} of the rate {value!r} of subset "
            f"{subset}; the outcome is indeterminate at this precision"
        )
    return rate < value


def _draw(mc: MemoryChannel, subset, n_trials: int, seed: int) -> tuple[np.ndarray, float]:
    """The draws per branch of n_trials trials seeded by seed, and the
    fraction of them that fell outside subset: the decoder's error when
    exactly subset's branches decode."""
    probs = _branch_probs(mc)
    # q may miss 1 by up to 1e-10; the draw alone needs it normalized
    rng = np.random.Generator(np.random.Philox(key=seed))
    counts = rng.multinomial(n_trials, probs / probs.sum())
    return counts, 1.0 - float(counts[list(subset)].sum() / n_trials)


@dataclass(frozen=True)
class StaircaseRow:
    rate_bits: float
    subset: tuple[int, ...]
    q_subset: float
    theoretical_error: float
    empirical_error: float
    n_trials: int
    seed: int


def _best_subset_for_rate(rate, rated):
    """The first (subset, rate, probability) of rated, in report order, of the
    highest probability among those whose rate clears the attempted rate;
    the empty row ((), None, 0.0), which decodes no branch, if none does."""
    cleared = [row for row in rated if _clears(rate, row[0], row[1])]
    return max(cleared, key=lambda row: row[2], default=((), None, 0.0))


def empirical_staircase(
    mc: MemoryChannel, rates, n_trials: int, seed: int, tol: float = 1e-8, subset=None
) -> list[StaircaseRow]:
    """Simulate the idealized decoder at each rate and tabulate the errors.

    For each rate the most probable subset still achieving that rate
    decodes (a tie goes to the first in the report's order: smaller, then
    lexicographically earlier subsets); rates above every subset rate get
    the empty subset, which decodes no branch, so all of its draws fail.
    A given subset is the one candidate: it decodes while its rate clears
    the attempted rate, and its row shows it and its probability with the
    errors of whatever decoded. Only its own rate is computed, so it
    needs no table of every subset.

    The draws are one multinomial sample of the counts per branch from a
    counter-based generator (_draw), in time and memory of order L. Row i
    runs with seed + i so rows are reproducible independently. Rates must
    be ascending, n_trials must lie in [1, MAX_TRIALS] and every row's
    seed in [0, 2**128), the generator's key range.
    """
    if subset is not None:
        subset = check_indices(subset)
    rates = [_check_rate(r) for r in rates]
    if not rates:
        raise ValidationError("need at least one rate")
    if any(b - a < 0.0 for a, b in zip(rates, rates[1:])):
        raise ValidationError("rates must be sorted in ascending order")

    n_trials, seed = _check_draws(n_trials, seed, rows=len(rates))
    rated = _rated(mc, subset, tol)

    rows = []
    for i, rate in enumerate(rates):
        decoded = _best_subset_for_rate(rate, rated)
        _, error = _draw(mc, decoded[0], n_trials, seed + i)
        target, _, q = decoded if subset is None else rated[0]
        rows.append(StaircaseRow(rate, target, q, 1.0 - decoded[2], error, n_trials, seed + i))
    return rows
