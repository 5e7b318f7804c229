"""Monte Carlo check of the operational meaning of subset rates.

The model is deliberately idealized: a coding strategy targets a subset
of branches at a fixed rate, the channel draws one branch per trial
(uniformly over cyclic offsets for periodic memory, by q for random
memory), and decoding succeeds exactly when the drawn branch lies in the
target subset and the rate is strictly below the subset's achievable
rate. Empirical failure frequencies then converge to the theoretical
error floors at the usual 1/sqrt(n) pace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import MemoryChannel, check_integer, check_number
from .errors import ValidationError
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
        raise ValidationError(f"rate must be finite and nonnegative, got {rate!r}")
    return value


def _check_draws(n_trials, seed, rows: int = 1) -> tuple[int, int]:
    """n_trials and seed as ints, for `rows` runs seeded seed, seed + 1, ...

    Both must be integers, not bools; n_trials lies in [1, MAX_TRIALS] and
    every seed in [0, 2**128), the generator's key range.
    """
    n_trials, seed = check_integer(n_trials, "n_trials"), check_integer(seed, "seed")
    if not 1 <= n_trials <= MAX_TRIALS:
        raise ValidationError(f"n_trials must be in [1, {MAX_TRIALS}], got {n_trials}")
    if not 0 <= seed <= 2**128 - rows:
        raise ValidationError(f"seed must be in [0, 2**128 - {rows}], got {seed}")
    return n_trials, seed


@dataclass(frozen=True)
class Strategy:
    """A target subset of branch indices and an attempted rate in bits."""

    subset: tuple[int, ...]
    rate: float

    def __post_init__(self):
        object.__setattr__(self, "subset", check_indices(self.subset, "strategy subset"))
        object.__setattr__(self, "rate", _check_rate(self.rate))


# A result holds an array, so it compares and hashes by identity.
@dataclass(frozen=True, eq=False)
class SimResult:
    n_trials: int
    seed: int
    strategy: Strategy
    subset_rate: float
    q_subset: float
    theoretical_error: float
    empirical_error: float
    max_branch_error: float
    counts: np.ndarray  # draws per branch, length L


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


def _success(probs: np.ndarray, strategy: Strategy, value: float) -> np.ndarray:
    """Per-branch success of the idealized decoder: a branch succeeds exactly
    when it lies in the strategy's subset and the rate clears `value`, the
    subset's rate (see _clears)."""
    success = np.zeros(len(probs), dtype=bool)
    if _clears(strategy.rate, strategy.subset, value):
        success[list(strategy.subset)] = True
    return success


def run_trials(
    mc: MemoryChannel, strategy: Strategy, n_trials: int, seed: int, tol: float = 1e-8
) -> SimResult:
    """Draw branches and score the strategy by the idealized decoder (see _success).

    A branch either always or never succeeds, so the count of draws per
    branch is a sufficient statistic: the n_trials draws are one
    multinomial sample of those counts from a counter-based generator, in
    time and memory of order L, and the result depends only on (seed,
    n_trials). empirical_error is the fraction of draws that landed on
    failing branches, and max_branch_error, the worst per-branch failure
    rate among drawn branches, is 1.0 if any failing branch was drawn and
    0.0 otherwise.
    n_trials must lie in [1, MAX_TRIALS] and the seed in [0, 2**128), the
    generator's key range.
    """
    n_trials, seed = _check_draws(n_trials, seed)
    ((_, value, q_subset),) = _rated(mc, strategy.subset, tol)
    return _draw_trials(mc, strategy, value, q_subset, n_trials, seed)


def _draw_trials(
    mc, strategy: Strategy, value: float, q_subset: float, n_trials: int, seed: int
) -> SimResult:
    """run_trials for a subset whose rate `value` and probability q_subset the
    caller already holds, with n_trials and seed that passed _check_draws."""
    probs = _branch_probs(mc)
    success = _success(probs, strategy, value)

    # q may miss 1 by up to 1e-10; the draw alone needs it normalized
    rng = np.random.Generator(np.random.Philox(key=seed))
    counts = rng.multinomial(n_trials, probs / probs.sum())
    return SimResult(
        n_trials=n_trials,
        seed=seed,
        strategy=strategy,
        subset_rate=value,
        q_subset=q_subset,
        # decoding succeeds on exactly the subset's branches, or on none
        theoretical_error=1.0 - q_subset if success.any() else 1.0,
        empirical_error=1.0 - float(counts[success].sum() / n_trials),
        max_branch_error=float(counts[~success].any()),
        counts=counts,
    )


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
    highest probability among those whose rate clears the attempted rate."""
    cleared = [row for row in rated if _clears(rate, row[0], row[1])]
    return max(cleared, key=lambda row: row[2], default=None)


def empirical_staircase(
    mc: MemoryChannel, rates, n_trials: int, seed: int, tol: float = 1e-8
) -> list[StaircaseRow]:
    """Simulate the best strategy at each rate and tabulate the errors.

    For each rate the most probable subset still achieving that rate is
    simulated (a tie goes to the first in the report's order: smaller,
    then lexicographically earlier subsets); rates above every
    subset rate get the empty strategy, which always fails. Row i runs
    with seed + i so rows are reproducible independently.
    """
    rates = [_check_rate(r) for r in rates]
    if not rates:
        raise ValidationError("need at least one rate")
    if any(b - a < 0.0 for a, b in zip(rates, rates[1:])):
        raise ValidationError("rates must be sorted in ascending order")

    n_trials, seed = _check_draws(n_trials, seed, rows=len(rates))
    rated = _rated(mc, None, tol)

    rows = []
    for i, rate in enumerate(rates):
        pick = _best_subset_for_rate(rate, rated)
        if pick is None:
            rows.append(StaircaseRow(rate, (), 0.0, 1.0, 1.0, n_trials, seed + i))
            continue
        subset, value, q = pick
        res = _draw_trials(mc, Strategy(subset, rate), value, q, n_trials, seed + i)
        rows.append(
            StaircaseRow(rate, subset, q, res.theoretical_error, res.empirical_error,
                         n_trials, seed + i)
        )
    return rows

