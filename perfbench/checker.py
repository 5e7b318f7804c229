"""Correctness checks for the benchmark's CLI outputs.

Every check parses the JSON the command wrote; bytes are never compared,
so a change of formatting or key order is not a failure. Truths come from
code that the timed program never runs:

* closed forms written here in numpy for depolarizing and (unitarily
  conjugated) amplitude-damping branches, maximized by a grid zoom;
* values recorded from the seed commit for damping-only channels
  (``reference/*.json``, written by ``record_reference.py``);
* a binomial band around the exact theoretical error for Monte Carlo
  estimates.

Each check returns a list of problems; an empty list means the op passed.
"""

from __future__ import annotations

import json
import math

import numpy as np

VALUE_TOL = 1e-9  # bits
SIGMA_BAND = 5.0


# --- independent closed forms ----------------------------------------------


def h2(x):
    """Binary entropy in bits, elementwise, with 0 log 0 = 0."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    out = np.zeros_like(x)
    m = (x > 0.0) & (x < 1.0)
    out[m] = -(x[m] * np.log2(x[m]) + (1.0 - x[m]) * np.log2(1.0 - x[m]))
    return out


def chi_ad(gamma, a):
    """Holevo quantity of the damping mirror pair with diagonal parameter a."""
    a = np.asarray(a, dtype=float)
    s = 4.0 * gamma * (1.0 - gamma) * (1.0 - a) ** 2
    x = np.sqrt(np.maximum(0.0, 1.0 - s))
    return h2(a + (1.0 - a) * gamma) - h2(s / (2.0 * (1.0 + x)))


def chi_dep(p, a):
    """Holevo quantity of the depolarizing mirror pair: pure inputs, radius 1-p."""
    a = np.asarray(a, dtype=float)
    return h2(0.5 * (1.0 - (1.0 - p) * (2.0 * a - 1.0))) - h2(np.full_like(a, p / 2.0))


def max_concave(f, lo=0.0, hi=1.0, rounds=7, points=101):
    """Maximum of a concave function on [lo, hi] by repeated grid zoom."""
    best = -math.inf
    for _ in range(rounds):
        xs = np.linspace(lo, hi, points)
        vals = f(xs)
        i = int(np.argmax(vals))
        best = max(best, float(vals[i]))
        lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, points - 1)]
    return best


def chi_ad_star(gamma):
    return max_concave(lambda a: chi_ad(gamma, a))


def generic_truth(p, gamma):
    """Capacities of the periodic pair [depolarizing(p), U AD(gamma) U†].

    The Holevo quantity is unitarily invariant and depolarizing is unitarily
    covariant, so the conjugation drops out of every value.
    """
    dep = 1.0 - float(h2(p / 2.0))
    ad = chi_ad_star(gamma)
    cp = max_concave(lambda a: 0.5 * (chi_dep(p, a) + chi_ad(gamma, a)))
    return {"chi_star": [dep, ad], "cbar": 0.5 * (dep + ad), "cp": cp}


# --- output checks -----------------------------------------------------------


def load_output(path):
    """Parse an op's output file; returns (obj, problems)."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f), []
    except (OSError, ValueError) as e:
        return None, [f"unreadable output: {e}"]


def _close(problems, what, got, want, tol=VALUE_TOL):
    try:
        ok = abs(float(got) - float(want)) <= tol
    except (TypeError, ValueError):
        ok = False
    if not ok:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def _at_most(problems, what, got, bound):
    try:
        ok = math.isfinite(float(got)) and float(got) <= bound
    except (TypeError, ValueError):
        ok = False
    if not ok:
        problems.append(f"{what}: got {got!r}, want a finite value <= {bound!r}")


def _equal(problems, what, got, want):
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def check_capacity(out, cp, cbar, chi_star, scale):
    """Check a `capacity --format json` report for periodic memory.

    scale maps each level r to its (value_bits, best_subset).
    """
    problems = []
    try:
        _close(problems, "cp", out["cp"], cp)
        _close(problems, "cbar", out["cbar"], cbar)
        sups = out["per_branch_suprema"]
        _equal(problems, "branches", len(sups), len(chi_star))
        for i, (s, want) in enumerate(zip(sups, chi_star)):
            _close(problems, f"chi_star[{i}]", s["chi_star"], want)
        _equal(problems, "scale levels", sorted(out["scale"], key=int), [str(r) for r in scale])
        for r, want in scale.items():
            entry = out["scale"][str(r)]
            _close(problems, f"scale[{r}]", entry["value_bits"], want[0])
            _equal(problems, f"scale[{r}].best_subset", entry["best_subset"], want[1])
    except (KeyError, TypeError, IndexError) as e:
        problems.append(f"malformed report: {e!r}")
    return problems


def _generic_scale(t):
    return {1: (t["cbar"], [0]), 2: (t["cp"], [0, 1])}


def check_generic(out, p, gamma):
    t = generic_truth(p, gamma)
    return check_capacity(out, t["cp"], t["cbar"], t["chi_star"], _generic_scale(t))


def check_generic_bound(out, p, gamma):
    """What a generic report must satisfy even where the seed's values are wrong.

    The seed's generic path searches a restricted family of ensembles, so its
    values can only fall short of the truth: each must be finite and at most
    the closed-form truth plus VALUE_TOL, in a report of the right shape.
    """
    t = generic_truth(p, gamma)
    problems = []
    try:
        values = [("cp", out["cp"], t["cp"]), ("cbar", out["cbar"], t["cbar"])]
        sups = out["per_branch_suprema"]
        _equal(problems, "branches", len(sups), len(t["chi_star"]))
        for i, (s, want) in enumerate(zip(sups, t["chi_star"])):
            values.append((f"chi_star[{i}]", s["chi_star"], want))
        scale = _generic_scale(t)
        _equal(problems, "scale levels", sorted(out["scale"], key=int), [str(r) for r in scale])
        for r, (want, _) in scale.items():
            values.append((f"scale[{r}]", out["scale"][str(r)]["value_bits"], want))
        for what, got, want in values:
            _at_most(problems, what, got, want + VALUE_TOL)
    except (KeyError, TypeError, IndexError) as e:
        problems.append(f"malformed report: {e!r}")
    return problems


def check_damping(out, ref):
    """ref: one recorded entry {"cp", "cbar", "chi_star", "scale": [[value, subset]]}."""
    scale = {r + 1: (v, s) for r, (v, s) in enumerate(ref["scale"])}
    return check_capacity(out, ref["cp"], ref["cbar"], ref["chi_star"], scale)


def check_simulate(out, rates, n_trials, seed, ref_rows):
    """Check `simulate --format json` rows against recorded subsets and errors.

    ref_rows: per rate {"subset", "q_subset", "theoretical_error"} from the
    seed commit. The empirical error must lie within SIGMA_BAND binomial
    standard deviations of the recorded theoretical error.
    """
    problems = []
    try:
        _equal(problems, "rows", len(out), len(rates))
        for i, (row, rate, ref) in enumerate(zip(out, rates, ref_rows)):
            _close(problems, f"row {i} rate_bits", row["rate_bits"], rate)
            _equal(problems, f"row {i} subset", row["subset"], ref["subset"])
            _close(problems, f"row {i} q_subset", row["q_subset"], ref["q_subset"])
            theo = ref["theoretical_error"]
            _close(problems, f"row {i} theoretical_error", row["theoretical_error"], theo)
            _equal(problems, f"row {i} n_trials", row["n_trials"], n_trials)
            _equal(problems, f"row {i} seed", row["seed"], seed + i)
            sigma = math.sqrt(max(theo * (1.0 - theo), 0.0) / n_trials)
            _close(
                problems,
                f"row {i} empirical_error",
                row["empirical_error"],
                theo,
                max(SIGMA_BAND * sigma, 1e-12),
            )
    except (KeyError, TypeError) as e:
        problems.append(f"malformed rows: {e!r}")
    return problems
