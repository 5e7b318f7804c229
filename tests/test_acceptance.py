"""End-to-end acceptance checks, one printed pass/fail line per criterion.

Two criteria deserve a note. The single-branch optimum location a_max(g)
is strictly increasing only up to g ~ 0.70 and then reverses (verified
against a 40-digit reference); criterion 7 therefore pins the increasing
range and the reversal separately. The same reversal makes the
maximizers of pairs near the turning point nearly coincide, so the
capacity gaps of (0.6, 0.7), (0.6, 0.8), and (0.7, 0.8) are genuinely
between 4e-8 and 8e-7 bits rather than > 1e-6; criterion 2 asserts
strict positivity for every pair and pins those three gaps against
high-precision reference values.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import capscale as cs
from conftest import random_density

GAMMAS4 = (0.0, 0.2, 0.4, 0.6)


@contextmanager
def criterion(num, label):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} FAIL  {label}")
        raise
    else:
        print(f"criterion {num:2d} PASS  {label} ({time.monotonic() - t0:.1f}s)")


def test_criterion_01_identity_endpoints():
    with criterion(1, "identity and fully damping endpoints"):
        t0 = time.monotonic()
        res = cs.maximize_chi_sum([0.0], [1.0])
        assert abs(res.value - 1.0) <= 1e-6
        assert abs(res.argmax - 0.5) <= 1e-4
        dead = cs.maximize_chi_sum([1.0], [1.0])
        assert abs(dead.value) <= 1e-9
        assert time.monotonic() - t0 < 1.0


def test_criterion_02_pair_capacity_strict_gap():
    with criterion(2, "pair capacity strictly below averaged branch capacities"):
        t0 = time.monotonic()
        gs = [i / 10 for i in range(10)]
        sups = {g: cs.maximize_chi_sum([g], [1.0]).value for g in gs}
        # maximizers nearly coincide for pairs straddling the argmax turning
        # point, leaving true gaps below 1e-6; values from a 40-digit reference
        near_degenerate = {
            (0.6, 0.7): 6.17912555951e-7,
            (0.6, 0.8): 4.09438648356e-8,
            (0.7, 0.8): 7.75625835157e-7,
        }
        for g0, g1 in itertools.combinations(gs, 2):
            cp = cs.maximize_chi_sum([g0, g1], [1.0, 1.0]).value / 2.0
            gap = 0.5 * (sups[g0] + sups[g1]) - cp
            assert gap > 1e-8
            if (g0, g1) in near_degenerate:
                assert gap == pytest.approx(near_degenerate[(g0, g1)], abs=1e-9)
            else:
                assert gap > 1e-6
        # a fully damping partner removes the gap entirely
        sup1 = cs.maximize_chi_sum([1.0], [1.0]).value
        for g in gs + [1.0]:
            sg = sups.get(g, sup1)
            cp = cs.maximize_chi_sum([1.0, g], [1.0, 1.0]).value / 2.0
            assert abs(0.5 * (sup1 + sg) - cp) <= 1e-7
        assert time.monotonic() - t0 < 30.0


def test_criterion_03_depolarizing_equality():
    with criterion(3, "depolarizing branches show no capacity gap"):
        t0 = time.monotonic()
        report = cs.compute_capacity_report(
            [cs.QubitChannel.depolarizing(0.1), cs.QubitChannel.depolarizing(0.3)]
        )
        assert abs(report.cp - report.cbar) < 1e-6
        assert time.monotonic() - t0 < 30.0


def test_criterion_04_derivative_consistency():
    with criterion(4, "derivative root, search argmax, and differences agree"):
        ln2 = math.log(2.0)
        for g in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]:
            res = cs.maximize_chi_sum([g], [1.0])
            root = cs.find_root_bisection(
                lambda a: cs.dchi_da_ad(g, a), 0.5 - 1e-3, 1.0 - 1e-9, tol=1e-10
            )
            assert abs(res.argmax - root) <= 1e-5
            for a in (0.52, 0.6, 0.75, 0.9):
                h = 1e-6
                fd = (cs.chi_ad_mirror(g, a + h) - cs.chi_ad_mirror(g, a - h)) / (2.0 * h)
                assert abs(cs.dchi_da_ad(g, a) - fd * ln2) <= 1e-6


def test_criterion_05_eigenvalue_form_resolution():
    with criterion(5, "output eigenvalue closed form (squared-term variant rejected)"):
        grid = np.linspace(0.0, 1.0, 50)
        worst_good = 0.0
        worst_bad = 0.0
        for g in grid:
            r = math.sqrt(1.0 - g)
            for a in grid:
                b = math.sqrt(a * (1.0 - a))
                m = np.array(
                    [[a + (1.0 - a) * g, b * r], [b * r, (1.0 - a) * (1.0 - g)]]
                )
                ev = np.linalg.eigvalsh(m)[::-1]
                x = math.sqrt(max(0.0, 1.0 - 4.0 * g * (1.0 - g) * (1.0 - a) ** 2))
                worst_good = max(
                    worst_good, abs(ev[0] - (1.0 + x) / 2.0), abs(ev[1] - (1.0 - x) / 2.0)
                )
                x_bad = math.sqrt(max(0.0, 1.0 - 4.0 * g * (1.0 - g) * (1.0 - a**2)))
                worst_bad = max(worst_bad, abs(ev[0] - (1.0 + x_bad) / 2.0))
        assert worst_good < 1e-10
        assert worst_bad > 1e-10


def test_criterion_06_scale_endpoints_and_monotonicity():
    with criterion(6, "scale endpoints and monotonicity for L in {2, 3, 4}"):
        rng = np.random.default_rng(515)
        for L in (2, 3, 4):
            gammas = rng.uniform(0.05, 0.9, size=L)
            rep = cs.compute_capacity_report(gammas)
            vals = [rep.scale[r].value for r in range(1, L + 1)]
            assert abs(vals[0] - rep.cbar) <= 1e-7
            assert abs(vals[-1] - rep.cp) <= 1e-7
            assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))


def test_criterion_07_ordering_properties():
    with criterion(7, "ordering: capacities fall with damping; argmax rise reverses"):
        for g in np.linspace(0.0, 0.95, 20):
            res = cs.maximize_chi_sum([float(g)], [1.0])
            assert res.argmax >= 0.5 - 1e-6
        grid = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95]
        sups = {g: cs.maximize_chi_sum([g], [1.0]) for g in grid}
        for g0, g1 in zip(grid, grid[1:]):
            assert sups[g0].value > sups[g1].value + 1e-6
        # strictly increasing optimum location holds up to gamma ~ 0.70 only
        rising = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
        for g0, g1 in zip(rising, rising[1:]):
            assert sups[g0].argmax < sups[g1].argmax - 1e-6
        # beyond the turning point the location decreases again
        assert sups[0.8].argmax < sups[0.7].argmax - 1e-4
        assert sups[0.9].argmax < sups[0.8].argmax - 1e-4


def test_criterion_08_lattice_search_vs_mirror_pair():
    with criterion(8, "4-state lattice sweep never beats the mirror pair"):
        t0 = time.monotonic()
        frozen = {
            0.1: 0.8403001055602478,
            0.3: 0.6378403178717484,
            0.5: 0.47167470820046703,
            0.7: 0.31138613242802293,
        }
        for g, expect in frozen.items():
            v = cs.brute_force_ensemble_search(cs.QubitChannel.amplitude_damping(g), 4, 24)
            star = cs.maximize_chi_sum([g], [1.0]).value
            assert v - star < 1e-3
            assert star - v < 1e-3
            assert v == pytest.approx(expect, abs=1e-12)
        assert time.monotonic() - t0 < 300.0


def test_criterion_09_staircase_monte_carlo():
    with criterion(9, "simulated staircase errors match subset mass"):
        mc = cs.MemoryChannel.periodic(
            [cs.QubitChannel.amplitude_damping(g) for g in GAMMAS4]
        )
        n = 100_000
        res = cs.run_trials(mc, cs.Strategy((0, 1), 0.6), n, seed=90210)
        assert res.theoretical_error == pytest.approx(0.5, abs=1e-12)
        assert abs(res.empirical_error - 0.5) <= 4.0 * math.sqrt(0.25 / n)
        # above the best single-branch rate every trial fails
        above = cs.run_trials(mc, cs.Strategy((0, 1), 0.6695), n, seed=90211)
        assert above.empirical_error == 1.0


def test_criterion_10_memory_law_reductions():
    with criterion(10, "markov memory reduces to random and periodic laws"):
        branches = [cs.QubitChannel.amplitude_damping(g) for g in (0.15, 0.55, 0.8)]
        L = len(branches)
        q = np.array([0.5, 0.2, 0.3])
        ident = cs.MemoryChannel.markov(branches, np.eye(L), q)
        rand = cs.MemoryChannel.random(branches, q)
        shift = np.zeros((L, L))
        for i in range(L):
            shift[i, (i + 1) % L] = 1.0
        cyc = cs.MemoryChannel.markov(branches, shift, np.full(L, 1.0 / L))
        per = cs.MemoryChannel.periodic(branches)
        rng = np.random.default_rng(77)
        for _ in range(5):
            rho = random_density(rng, 4)
            a = cs.apply_memory_channel_n(ident, rho, 2)
            b = cs.apply_memory_channel_n(rand, rho, 2)
            assert np.abs(a - b).max() < 1e-12
            c = cs.apply_memory_channel_n(cyc, rho, 2)
            d = cs.apply_memory_channel_n(per, rho, 2)
            assert np.abs(c - d).max() < 1e-12
