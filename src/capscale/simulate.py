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
import operator
from dataclasses import dataclass, field

import numpy as np

from .channels import MARKOV_LAW_ONLY, MemoryChannel, check_number
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

# Memory budget of one simulation: each trial keeps its drawn branch (8
# bytes) and its success flag (1 byte), and drawing peaks at about 16
# bytes a trial; at the cap that is 0.9 GB kept and 1.6 GB at the peak.
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
    try:
        if isinstance(n_trials, bool) or isinstance(seed, bool):
            raise TypeError("a bool is not an integer")
        n_trials, seed = operator.index(n_trials), operator.index(seed)
    except TypeError as e:
        raise ValidationError(f"n_trials and seed must be integers: {e}") from e
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


@dataclass(frozen=True)
class SimResult:
    n_trials: int
    seed: int
    strategy: Strategy
    subset_rate: float
    q_subset: float
    theoretical_error: float
    empirical_error: float
    max_branch_error: float
    branches: np.ndarray = field(repr=False)
    successes: np.ndarray = field(repr=False)


def _branch_probs(mc: MemoryChannel) -> np.ndarray:
    if mc.memory == "periodic":
        L = len(mc.branches)
        return np.full(L, 1.0 / L)
    if mc.memory == "random":
        return np.asarray(mc.q, dtype=float)
    raise ValidationError(MARKOV_LAW_ONLY)


def _subset_rate(mc: MemoryChannel, subset, tol: float) -> float:
    if mc.memory == "periodic":
        return subset_scale_value(mc.branches, subset, tol)
    (entry,) = compute_random_scale_report(mc.branches, mc.q, [subset], tol).per_subset.values()
    return entry.c_delta


def _subset_prob(mc: MemoryChannel, subset) -> float:
    """Probability that the drawn branch lies in subset."""
    if mc.memory == "periodic":
        return len(subset) / len(mc.branches)
    return float(sum(mc.q[i] for i in subset))


def _success(probs: np.ndarray, strategy: Strategy, value: float) -> np.ndarray:
    if abs(strategy.rate - value) <= RATE_MARGIN:
        raise ValidationError(
            f"rate {strategy.rate!r} is within {RATE_MARGIN} of the subset rate "
            f"{value!r}; the outcome is indeterminate at this precision"
        )
    success = np.zeros(len(probs), dtype=bool)
    if strategy.rate < value:
        success[list(strategy.subset)] = True
    return success


def success_oracle(mc: MemoryChannel, strategy: Strategy, tol: float = 1e-8) -> np.ndarray:
    """Per-branch success indicators for an idealized asymptotic decoder.

    Branch i succeeds exactly when it belongs to the strategy's subset and
    the attempted rate is below the subset's achievable rate. Rates within
    RATE_MARGIN of that threshold are rejected as indeterminate.
    """
    return _success(_branch_probs(mc), strategy, _subset_rate(mc, strategy.subset, tol))


def run_trials(
    mc: MemoryChannel, strategy: Strategy, n_trials: int, seed: int, tol: float = 1e-8
) -> SimResult:
    """Draw branches and score the strategy against the success oracle.

    Uses a counter-based generator and a single vectorized draw, so the
    result depends only on (seed, n_trials), not on evaluation order.
    A branch either always or never succeeds, so every statistic follows
    from the count of draws per branch: empirical_error is the fraction
    of draws that landed on failing branches, and max_branch_error, the
    worst per-branch failure rate among drawn branches, is 1.0 if any
    failing branch was drawn and 0.0 otherwise.
    n_trials must lie in [1, MAX_TRIALS] and the seed in [0, 2**128), the
    generator's key range.
    """
    _branch_probs(mc)  # refuses markov memory
    n_trials, seed = _check_draws(n_trials, seed)
    return _draw_trials(mc, strategy, _subset_rate(mc, strategy.subset, tol), n_trials, seed)


def _draw_trials(mc, strategy: Strategy, value: float, n_trials: int, seed: int) -> SimResult:
    """run_trials for a subset whose rate `value` the caller already holds, with
    n_trials and seed that passed _check_draws."""
    probs = _branch_probs(mc)
    success = _success(probs, strategy, value)

    rng = np.random.Generator(np.random.Philox(key=seed))
    draws = rng.choice(len(probs), size=n_trials, p=probs)
    counts = np.bincount(draws, minlength=len(probs))
    return SimResult(
        n_trials=n_trials,
        seed=seed,
        strategy=strategy,
        subset_rate=value,
        q_subset=_subset_prob(mc, strategy.subset),
        theoretical_error=1.0 - float(probs[success].sum()),
        empirical_error=1.0 - float(counts[success].sum() / len(draws)),
        max_branch_error=float(counts[~success].any()),
        branches=draws,
        successes=success[draws],
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


def _best_subset_for_rate(rate, candidates):
    """Largest-probability subset whose rate clears the attempted rate."""
    best = None
    for subset, value, q in candidates:
        if abs(rate - value) <= RATE_MARGIN:
            raise ValidationError(
                f"rate {rate!r} is within {RATE_MARGIN} of the rate of subset "
                f"{subset}; pick a rate away from the thresholds"
            )
        if value > rate:
            key = (q, -len(subset), tuple(-i for i in subset))
            if best is None or key > best[0]:
                best = (key, subset, value, q)
    if best is None:
        return None
    return best[1:]


def empirical_staircase(
    mc: MemoryChannel, rates, n_trials: int, seed: int, tol: float = 1e-8
) -> list[StaircaseRow]:
    """Simulate the best strategy at each rate and tabulate the errors.

    For each rate the most probable subset still achieving that rate is
    simulated (ties prefer smaller, earlier subsets); rates above every
    subset rate get the empty strategy, which always fails. Row i runs
    with seed + i so rows are reproducible independently.
    """
    rates = [_check_rate(r) for r in rates]
    if not rates:
        raise ValidationError("need at least one rate")
    if any(b - a < 0.0 for a, b in zip(rates, rates[1:])):
        raise ValidationError("rates must be sorted in ascending order")

    n_trials, seed = _check_draws(n_trials, seed, rows=len(rates))
    _branch_probs(mc)  # refuses markov memory
    if mc.memory == "periodic":
        report = compute_capacity_report(mc.branches, tol)
        rated = [(e.best_subset, e.value) for e in report.scale.values()]
    else:
        # subsets in size-major, then lexicographic order
        report = compute_random_scale_report(mc.branches, mc.q, tol=tol)
        rated = [(d, s.c_delta) for d, s in report.per_subset.items()]
    candidates = [(subset, value, _subset_prob(mc, subset)) for subset, value in rated]

    rows = []
    for i, rate in enumerate(rates):
        pick = _best_subset_for_rate(rate, candidates)
        if pick is None:
            rows.append(StaircaseRow(rate, (), 0.0, 1.0, 1.0, n_trials, seed + i))
            continue
        subset, value, q = pick
        res = _draw_trials(mc, Strategy(subset, rate), value, n_trials, seed + i)
        rows.append(
            StaircaseRow(rate, subset, q, res.theoretical_error, res.empirical_error,
                         n_trials, seed + i)
        )
    return rows

