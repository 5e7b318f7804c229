import collections
import dataclasses
import functools
import io
import itertools
import json
import tracemalloc
from contextlib import redirect_stdout

import numpy as np
import pytest

import capscale.cli as cli
import capscale.scales as scales
import oracles
from capscale import (
    MemoryChannel,
    NumericalError,
    QubitChannel,
    ScaleEntry,
    Strategy,
    ValidationError,
    chi_mirror_family,
    compute_capacity_report,
    compute_random_scale_report,
    kraus_operators,
    per_branch_suprema,
    run_trials,
    scale_r,
    subset_scale_value,
)
from capscale.holevo import mirror_chi
from conftest import (
    chi_ad_grid,
    damping_channel_file,
    generalized_damping,
    haar_unitary,
    kraus_entry,
    run_to_file,
)

GAMMAS4 = (0.0, 0.2, 0.4, 0.6)


def test_capacity_pair_frozen():
    report = compute_capacity_report([0.0, 0.4])
    cp = report.cp
    assert cp == pytest.approx(0.771826859972801, abs=1e-10)
    argmax, _ = scales.maximize_subsets([0.0, 0.4], [(0, 1)])[(0, 1)]
    assert argmax == pytest.approx(0.535551975060546, abs=1e-6)
    cbar = report.cbar
    assert cbar == pytest.approx(0.776478353231424, abs=1e-10)
    # the joint ensemble is a strict compromise
    assert cbar - cp > 1e-6


def test_per_branch_suprema_frozen():
    sups = per_branch_suprema([0.1, 0.4, 0.7])
    stars = [0.840496506564459, 0.552956706462849, 0.311386291474913]
    amaxes = [0.546697032616978, 0.589771825338121, 0.601359035935776]
    for s, star, am in zip(sups, stars, amaxes):
        assert s.chi_star == pytest.approx(star, abs=1e-10)
        assert s.a_max == pytest.approx(am, abs=1e-6)


def test_scale_table_frozen_l4():
    report = compute_capacity_report(GAMMAS4)
    expect = {
        1: (0.669154882682, (0,)),
        2: (0.667153683345, (0, 1)),
        3: (0.666058550140, (0, 1, 2)),
        4: (0.665575317989, (0, 1, 2, 3)),
    }
    for r, (value, subset) in expect.items():
        assert report.scale[r].value == pytest.approx(value, abs=1e-9)
        assert report.scale[r].best_subset == subset
    assert report.scale[1].value == pytest.approx(report.cbar, abs=1e-12)
    assert report.scale[4].value == pytest.approx(report.cp, abs=1e-12)


def test_subset_value_against_dense_grid():
    # independent evaluation: average over cyclic offsets of a dense-grid
    # maximum of the summed curves
    gammas = (0.1, 0.4, 0.7)
    subset = (0, 2)
    a = np.linspace(0.499, 1.0 - 1e-9, 200_001)
    total = 0.0
    for k in range(3):
        curve = sum(chi_ad_grid(gammas[(m + k) % 3], a) for m in subset)
        total += float(curve.max())
    expect = total / (len(subset) * 3)
    assert subset_scale_value(gammas, subset) == pytest.approx(expect, abs=1e-8)


def test_scale_r_tie_break_prefers_lexicographic():
    entry = scale_r([0.3, 0.3, 0.3], 2)
    assert entry.best_subset == (0, 1)


def test_scale_validation():
    with pytest.raises(ValidationError):
        scale_r(GAMMAS4, 0)
    with pytest.raises(ValidationError):
        scale_r(GAMMAS4, 5)
    with pytest.raises(ValidationError):
        scale_r([0.1] * 13, 1)
    with pytest.raises(ValidationError):
        subset_scale_value(GAMMAS4, ())
    with pytest.raises(ValidationError):
        subset_scale_value(GAMMAS4, (0, 0))
    with pytest.raises(ValidationError):
        subset_scale_value(GAMMAS4, (0, 9))
    # indices are never truncated or read from bools
    for subset in [(0.7,), (True,), (1, 2.0), ("a",), 1]:
        with pytest.raises(ValidationError):
            subset_scale_value(GAMMAS4, subset)
    with pytest.raises(ValidationError):
        compute_random_scale_report((0.1, 0.4), (0.5, 0.5), deltas=[(1.9,)])
    assert subset_scale_value(GAMMAS4, (np.int64(1), 0)) == subset_scale_value(GAMMAS4, (0, 1))
    with pytest.raises(ValidationError):
        compute_capacity_report([0.1, 0.4], tol=float("nan"))
    # sizes are integer indices too, and tol is a real number
    for r in (2.5, "2", None, True):
        with pytest.raises(ValidationError, match="r must be an integer"):
            scale_r(GAMMAS4, r)
    for tol in ("1e-8", None, True):
        with pytest.raises(ValidationError, match="tol must be a number"):
            compute_capacity_report([0.1, 0.4], tol=tol)
        with pytest.raises(ValidationError, match="tol must be a number"):
            compute_random_scale_report((0.1, 0.4), (0.5, 0.5), tol=tol)
    # branches and deltas must be sequences
    with pytest.raises(ValidationError, match="branches must be a sequence"):
        per_branch_suprema(None)
    with pytest.raises(ValidationError, match="branches must be a sequence"):
        scale_r(None, 1)
    with pytest.raises(ValidationError, match="deltas must be a sequence"):
        compute_random_scale_report((0.1, 0.4), (0.5, 0.5), deltas=5)
    # maximize_subsets checks its subsets as subset_scale_value does
    for subsets in ([(0.5,)], [(0, 9)], [()], 5):
        with pytest.raises(ValidationError):
            scales.maximize_subsets([0.1, 0.4], subsets)
    assert scales.maximize_subsets([0.1, 0.4], []) == {}


def test_random_report_of_no_deltas():
    # an empty list of deltas gives an empty table, beside the branch suprema
    report = compute_random_scale_report((0.1, 0.4), (0.5, 0.5), deltas=[])
    assert report.per_subset == {}
    assert report.per_branch_suprema == tuple(per_branch_suprema((0.1, 0.4)))


def test_pair_capacity_and_average():
    entry = scale_r([0.0, 0.4], 2)
    assert entry.best_subset == (0, 1)
    assert entry.value == pytest.approx(0.771826859972801, abs=1e-10)
    avg = np.mean([s.chi_star for s in per_branch_suprema([0.0, 0.4])])
    assert avg == pytest.approx(0.776478353231424, abs=1e-10)
    with pytest.raises(ValidationError):
        scale_r([0.3], 2)


def test_report_invariants_on_seeded_draws():
    rng = np.random.default_rng(2024)
    for L in (2, 3, 4):
        gammas = rng.uniform(0.05, 0.9, size=L)
        report = compute_capacity_report(gammas)
        values = [report.scale[r].value for r in range(1, L + 1)]
        assert abs(values[0] - report.cbar) <= 1e-7
        assert abs(values[-1] - report.cp) <= 1e-7
        for lo, hi in zip(values[1:], values[:-1]):
            assert lo <= hi + 1e-9
        assert report.cp <= report.cbar + 1e-12


def test_report_with_generic_branches():
    branches = [QubitChannel.amplitude_damping(0.3), QubitChannel.depolarizing(0.2)]
    report = compute_capacity_report(branches)
    assert report.cp <= report.cbar + 1e-12
    assert report.scale[2].value == pytest.approx(report.cp, abs=1e-12)


def test_kraus_branches_match_damping_closed_form():
    # Rz conjugation keeps damping symmetric about z, so the mirror pair about
    # z stays optimal: the kernel path must reproduce the closed-form report
    gammas = (0.3, 0.6)
    rz = np.diag([np.exp(-0.35j), np.exp(0.35j)])
    kraus = [
        QubitChannel.kraus(
            [rz @ k @ rz.conj().T for k in kraus_operators(QubitChannel.amplitude_damping(g))]
        )
        for g in gammas
    ]
    closed = compute_capacity_report(gammas)
    kernel = compute_capacity_report(kraus)
    assert kernel.cp == pytest.approx(closed.cp, abs=1e-10)
    assert kernel.cbar == pytest.approx(closed.cbar, abs=1e-10)
    for r in (1, 2):
        assert kernel.scale[r].value == pytest.approx(closed.scale[r].value, abs=1e-10)
        assert kernel.scale[r].best_subset == closed.scale[r].best_subset


H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def conjugated(ch, u):
    return QubitChannel.kraus([u @ k @ u.conj().T for k in kraus_operators(ch)])


def test_forms_keep_the_bits_of_branches_in_normal_form_about_z():
    # damping, depolarizing, X·AD·X and Rz-conjugated damping are read in
    # z's frame, so their forms are those of their own maps, bit for bit
    rng = np.random.default_rng(36)
    for L in range(1, 11):
        channels = []
        for kind, x in zip(rng.integers(0, 4, L), rng.uniform(0.0, 1.0, L)):
            channels.append(
                (QubitChannel.amplitude_damping, QubitChannel.depolarizing, x_damping,
                 lambda g: rz_damping(g, rng.uniform(0, 3)))[kind](x)
            )
        raw = oracles.mirror_form(zip(*(ch.bloch_map for ch in channels)))
        for shared in (True, False):
            assert np.array_equal(scales._forms(channels, shared), raw)


def test_branches_are_read_about_their_axes():
    ad, dep = QubitChannel.amplitude_damping(0.5), QubitChannel.depolarizing(0.2)
    hah = conjugated(ad, H)  # damping about x
    # per-branch results read each branch in its own frame
    sups = per_branch_suprema([ad, hah])
    assert sups[1].chi_star == pytest.approx(0.471729390599, abs=1e-9)
    assert sups[1].a_max == pytest.approx(sups[0].a_max, abs=1e-9)
    # a depolarizing branch is isotropic and shares any axis
    turned, plain = compute_capacity_report([dep, hah]), compute_capacity_report([dep, ad])
    assert turned.cp == pytest.approx(plain.cp, abs=1e-12)
    assert turned.cbar == pytest.approx(plain.cbar, abs=1e-12)
    # a report's branches share ensembles, and ad and hah share no axis:
    # each report names the first branch whose axis differs from earlier ones
    for branches, i in (([ad, hah], 1), ([hah, dep, ad], 2), ([dep, ad, 0.3, hah, 0.6], 3)):
        message = f"branch {i} has another input axis than the branches before it"
        for report in (
            compute_capacity_report,
            lambda b: compute_random_scale_report(b, [1 / len(b)] * len(b)),
            lambda b: scale_r(b, 1),
            lambda b: subset_scale_value(b, (0,)),
            lambda b: scales.maximize_subsets(b, [(0,)]),
        ):
            with pytest.raises(ValidationError, match=message):
                report(branches)


def test_forms_match_the_eigendecomposition_oracle():
    # each branch, read in its own frame, has the normal form about its axis
    # that LAPACK's eigh of G gives: Haar-turned damping and X·AD·X, and
    # nearly isotropic ones (anisotropy 2γ(1 - γ) from 1e-8 up)
    rng = np.random.default_rng(37)
    covariant = [
        kind(gamma)
        for gamma in [*rng.uniform(0.0, 1.0, 10), *np.geomspace(5e-9, 0.5, 9)]
        for kind in (QubitChannel.amplitude_damping, x_damping)
    ]
    turns = [haar_unitary(rng) for _ in covariant]
    channels = [
        QubitChannel.kraus([k @ v for k in kraus_operators(ch)]) for ch, v in zip(covariant, turns)
    ]
    form = scales._forms(channels, shared=False)
    assert form.shape == (4, len(channels))
    for ch, f in zip(channels, form.T):
        expect, _ = oracles.normal_form(*oracles.kraus_bloch_map(kraus_operators(ch)))
        np.testing.assert_allclose(f, expect, rtol=0.0, atol=1e-12)
    # complete dephasing (anisotropy 1) and G ∝ I with g ≠ 0, where G has no
    # simple eigenvalue, have a pure-state entropy that is not convex along
    # their axes: their best ensembles need two heights, and they are refused
    dephasing = QubitChannel.kraus([np.diag([1.0, 0.0]) @ turns[0], np.diag([0.0, 1.0]) @ turns[0]])
    n = rng.normal(size=3)
    flat = QubitChannel.kraus(oracles.bloch_map_kraus(0.3 * np.eye(3), 0.5 * n / np.linalg.norm(n)))
    for ch in (dephasing, flat):
        with pytest.raises(ValidationError, match="branch 0 .* two heights"):
            per_branch_suprema([ch])
        with pytest.raises(ValidationError, match="branch 1 .* two heights"):
            per_branch_suprema([channels[0], ch])
    # the mirror pair gave the flat branch 0.07311327531719058; the pole pair
    # of the same branch about z does better
    about_z = oracles.bloch_map_kraus(0.3 * np.eye(3), np.array([0.0, 0.0, 0.5]))
    assert oracles.lattice_search_covariant(about_z, 2, 25) > 0.0731 + 0.018


def dephasing(p):
    """Kraus operators sqrt(1 - p) I and sqrt(p) Z."""
    return QubitChannel.kraus([np.sqrt(1.0 - p) * np.eye(2), np.sqrt(p) * np.diag([1.0, -1.0])])


def test_branches_whose_best_ensembles_need_two_heights_are_refused():
    # dephasing(0.1)'s best ensemble is the pair |0>, |1>, of value 1; the
    # mirror pair about z reached only 0.531004406411
    ops = kraus_operators(dephasing(0.1))
    assert oracles.lattice_search_covariant(ops, 2, 25) == pytest.approx(1.0, abs=1e-12)
    message = "branch 1 has a pure-state entropy that is not convex along its axis"
    branches = [0.3, dephasing(0.1)]
    for refused in (
        per_branch_suprema,
        compute_capacity_report,
        lambda b: compute_random_scale_report(b, [0.5, 0.5]),
        lambda b: scale_r(b, 1),
        lambda b: subset_scale_value(b, (0,)),
        lambda b: scales.maximize_subsets(b, [(0,)]),
    ):
        with pytest.raises(ValidationError, match=message + ": its best ensembles need two heights"):
            refused(branches)
    with pytest.raises(ValidationError, match="branch 0 has a pure-state entropy"):
        chi_mirror_family(dephasing(0.1), 0.5)


def random_forms_about_z(rng, n):
    """The four numbers of n random channels twirled about z, shape (4, n).

    Each is a random isometry's channel averaged over rotations about z,
    which keeps M's z entry, the rotation part of its xy block and t's z
    entry: a channel covariant about z.
    """
    v, _ = np.linalg.qr(rng.normal(size=(n, 4, 2)) + 1j * rng.normal(size=(n, 4, 2)))
    ops = np.stack([v[:, :2], v[:, 2:]], axis=1)  # two Kraus operators per channel

    def bloch(rho):  # the Bloch vectors of the channels' outputs on rho
        out = np.einsum("nkij,jl,nkml->nim", ops, rho, ops.conj())
        return np.stack([2.0 * out[:, 0, 1].real, -2.0 * out[:, 0, 1].imag,
                         (out[:, 0, 0] - out[:, 1, 1]).real], axis=-1)

    t = bloch(np.eye(2) / 2.0)
    M = np.stack([bloch((np.eye(2) + s) / 2.0) - t for s in oracles._PAULIS], axis=-1)
    rot = (M[:, 0, 0] + M[:, 1, 1]) / 2.0, (M[:, 1, 0] - M[:, 0, 1]) / 2.0
    return np.array([rot[0] ** 2 + rot[1] ** 2, M[:, 2, 2] ** 2, M[:, 2, 2] * t[:, 2], t[:, 2] ** 2])


def test_convexity_rule_agrees_with_second_differences():
    # the rule of _forms against the second differences of S(z) = h(q(z)) on
    # 20,001 heights, outside their rounding (about 4e-8 at step 1e-4), on
    # 2,000 random channels covariant about z, about 40% of them not convex,
    # and on channels M = diag(λ, λ, λ_z), t = (0, 0, 1 - λ_z) with
    # λ_z = λ² + δ, whose output at z = 1 is pure with q' = 2δ there: a
    # concave cusp for δ > 0 (δ = 0 is damping)
    lam_z = 0.36 + np.array([0.1, 0.01, 0.001, 0.0])
    cusps = np.array([np.full(4, 0.36), lam_z**2, lam_z * (1.0 - lam_z), (1.0 - lam_z) ** 2])
    form = np.hstack([random_forms_about_z(np.random.default_rng(41), 2000), cusps])
    z = np.linspace(-1.0, 1.0, 20_001)
    convex = []
    for block in np.array_split(form, 10, axis=1):
        s, u, c, tau = block[:, :, None]
        S = oracles.radius_entropy(np.sqrt(np.clip((u - s) * z * z + 2.0 * c * z + s + tau, 0.0, 1.0)))
        second = (S[:, 2:] - 2.0 * S[:, 1:-1] + S[:, :-2]) / (z[1] - z[0]) ** 2
        convex.extend(second.min(axis=1) >= -1e-7)
    refused = set(scales._convex(form).tolist())
    assert [i not in refused for i in range(form.shape[1])] == convex
    assert convex[-4:] == [False, False, False, True]
    assert 600 <= convex.count(False) <= 1200


def test_branches_whose_mirror_pair_is_their_optimum_pass():
    # damping, depolarizing, X·AD·X, Rz-conjugated damping and generalized
    # damping, and their copies turned by Haar-random input and output
    # unitaries, have a convex pure-state entropy along their axes
    rng = np.random.default_rng(43)
    plain = [
        *map(QubitChannel.amplitude_damping, np.linspace(0.0, 1.0, 400)),
        *map(QubitChannel.depolarizing, np.linspace(0.0, 1.0, 21)),
        *map(x_damping, rng.uniform(0.0, 1.0, 40)),
        *(rz_damping(g, rng.uniform(0.0, 3.0)) for g in rng.uniform(0.0, 1.0, 40)),
        *(QubitChannel.kraus(generalized_damping(*x)) for x in rng.uniform(0.0, 1.0, (100, 2))),
    ]
    turned = []
    for ch in plain:
        u, v = haar_unitary(rng), haar_unitary(rng)
        turned.append(QubitChannel.kraus([u @ k @ v for k in kraus_operators(ch)]))
    form = scales._forms(plain + turned, shared=False)
    assert form.shape == (4, 2 * len(plain))


def test_the_library_decomposes_no_matrix(monkeypatch):
    # each frame is found in closed form
    dep, ad = QubitChannel.depolarizing(0.2), QubitChannel.amplitude_damping(0.5)
    turned = [dep, conjugated(ad, haar_unitary(np.random.default_rng(37)))]
    plain = compute_capacity_report([dep, ad])

    def decomposed(*args, **kwargs):
        raise AssertionError("the library decomposed a matrix")

    for name in ("eigh", "eigvalsh", "eig", "svd"):
        monkeypatch.setattr(np.linalg, name, decomposed)
    report = compute_capacity_report(turned)
    assert report.cp == pytest.approx(plain.cp, abs=1e-12)
    assert per_branch_suprema(turned)[1].chi_star == pytest.approx(0.471729390599, abs=1e-9)
    compute_random_scale_report(turned, [0.5, 0.5])


def test_staircase_profile_thresholds(tmp_path):
    path = damping_channel_file(tmp_path, GAMMAS4, {"kind": "periodic"})
    rc, text = run_to_file(tmp_path, ["staircase", path, "--format", "json"])
    assert rc == 0
    steps = json.loads(text)
    assert [s["r"] for s in steps] == [1, 2, 3, 4]
    assert [s["error_threshold"] for s in steps] == [0.75, 0.5, 0.25, 0.0]
    assert all(a["value_bits"] >= b["value_bits"] - 1e-12 for a, b in zip(steps, steps[1:]))


def random_subset_scale(gammas, q, delta, **kw):
    """The one entry of a random-memory report asked for a single subset."""
    (entry,) = compute_random_scale_report(gammas, q, deltas=[delta], **kw).per_subset.values()
    return entry


def test_random_scale_ordering_frozen():
    gammas = (0.1, 0.4, 0.7)
    q = (0.5, 0.3, 0.2)
    s = random_subset_scale(gammas, q, (0, 1))
    # stronger damping is lower pointwise, so the worst case is branch 1
    assert s.c_delta == pytest.approx(0.552956706462849, abs=1e-9)
    assert s.cbar_delta == pytest.approx(0.840496506564459, abs=1e-9)
    assert s.q_delta == pytest.approx(0.8, abs=1e-15)


def test_random_scale_worst_case_frozen():
    res = random_subset_scale((0.1, 0.4), (0.5, 0.5), (0, 1), tol=1e-8)
    # the higher-damping curve is lower everywhere, so the min is that branch
    assert res.c_delta == pytest.approx(0.552956706462849, abs=1e-10)
    (single,) = per_branch_suprema([0.4], tol=1e-8)
    assert res.c_delta <= single.chi_star + 1e-12


def test_random_scale_validation():
    with pytest.raises(ValidationError):
        random_subset_scale((0.1, 0.4), (0.7, 0.7), (0,))
    with pytest.raises(ValidationError):
        random_subset_scale((0.1, 0.4), (0.5, 0.5), (2,))
    with pytest.raises(ValidationError):
        random_subset_scale((0.1, 0.4), (0.5, float("nan")), (0,))


def test_random_report_subset_monotonicity():
    gammas = (0.1, 0.4, 0.7)
    q = (0.5, 0.3, 0.2)
    report = compute_random_scale_report(gammas, q)
    assert len(report.per_subset) == 7
    for d1, s1 in report.per_subset.items():
        assert s1.c_delta <= s1.cbar_delta + 1e-12
        for d2, s2 in report.per_subset.items():
            if set(d1) < set(d2):
                assert s2.c_delta <= s1.c_delta + 1e-9
                assert s2.cbar_delta >= s1.cbar_delta - 1e-9
                assert s2.q_delta >= s1.q_delta - 1e-15


def capacity_output(tmp_path, *options):
    path = damping_channel_file(tmp_path, GAMMAS4, {"kind": "periodic"})
    rc, text = run_to_file(tmp_path, ["capacity", path, *options])
    assert rc == 0
    return text


def test_capacity_report_serialization_round_trip(tmp_path):
    report = compute_capacity_report(GAMMAS4)
    parsed = json.loads(capacity_output(tmp_path, "--format", "json"))
    assert parsed["cp"] == float(f"{report.cp:.12g}")
    assert parsed["scale"]["2"]["best_subset"] == [0, 1]
    assert len(parsed["per_branch_suprema"]) == 4

    csv_text = capacity_output(tmp_path)
    lines = csv_text.splitlines()
    assert lines[0] == "r,value_bits,subset,error_threshold"
    assert len(lines) == 5
    r, value, subset, thr = lines[2].split(",")
    assert r == "2" and subset == "0;1"
    assert float(value) == pytest.approx(report.scale[2].value, abs=1e-11)
    assert float(thr) == 0.5
    assert csv_text == capacity_output(tmp_path)
    assert csv_text.endswith("\n") and "\r" not in csv_text


def test_random_report_serialization(tmp_path):
    path = damping_channel_file(tmp_path, (0.1, 0.4), {"kind": "random", "q": [0.25, 0.75]})
    rc, text = run_to_file(tmp_path, ["random-scale", path, "--format", "json"])
    assert rc == 0
    obj = json.loads(text)
    assert [e["delta"] for e in obj["per_subset"]] == [[0], [1], [0, 1]]
    rc, csv_text = run_to_file(tmp_path, ["random-scale", path])
    assert rc == 0
    lines = csv_text.splitlines()
    assert lines[0] == "delta,q_delta,c_delta_bits,cbar_delta_bits"
    assert lines[3].startswith("0;1,1,")


def test_twelve_significant_digit_formatting(tmp_path):
    report = compute_capacity_report(GAMMAS4)
    row1 = capacity_output(tmp_path).splitlines()[1]
    assert row1.split(",")[1] == f"{report.scale[1].value:.12g}"


@pytest.fixture
def work_counts(monkeypatch):
    """Count Holevo kernel calls, subset maximizations, their lanes, steps and most steps."""
    calls = collections.Counter()

    def count(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    maximize = scales.maximize_concave_1d

    def maximizer(f, lo, hi, *args, **kwargs):
        calls["lanes"] += np.size(lo)
        calls["last lanes"] = np.size(lo)
        res = maximize(f, lo, hi, *args, **kwargs)
        calls["steps"] += res.iterations
        calls["most steps"] = max(calls["most steps"], res.iterations)
        return res

    for kernel in ("mirror_chi", "mirror_chi_jet"):
        monkeypatch.setattr(scales, kernel, count("kernel", getattr(scales, kernel)))
    monkeypatch.setattr(scales, "maximize_concave_1d", count("maximizer", maximizer))
    return calls


@pytest.fixture
def combined_shapes(monkeypatch):
    """The shape of each sum of member rows that _combined returns, in call order."""
    combined = scales._combined
    shapes = []

    def counted(rows, members, size, at, width):
        out = combined(rows, members, size, at, width)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(scales, "_combined", counted)
    return shapes


def test_work_ceilings_of_reports(work_counts):
    # one kernel call per search step: at tol 1e-8 a search makes 1 call (its
    # scan's quartic peak, straddled), after one scan call and, for L >= 3,
    # one call for the prune's bounds
    gammas = list(np.linspace(0.05, 0.9, 8))
    compute_capacity_report(gammas, tol=1e-8)
    assert work_counts["maximizer"] == 1
    assert work_counts["kernel"] == 3

    # a random report adds one call for every curve at every branch's peak;
    # no pair of these curves crosses below both peaks, so no crossing search
    work_counts.clear()
    compute_random_scale_report(gammas[:6], [1 / 6] * 6, tol=1e-8)
    assert work_counts["maximizer"] == 1
    assert work_counts["kernel"] == 3

    work_counts.clear()
    per_branch_suprema(gammas, tol=1e-8)
    assert work_counts["kernel"] == 2

    # depolarizing curves peak at a = 1/2, a scan point, where the slopes are
    # exactly 0: the first search step settles every lane
    work_counts.clear()
    depolarizing = [QubitChannel.depolarizing(p) for p in (0.1, 0.2, 0.3, 0.4)]
    compute_capacity_report(depolarizing, tol=1e-8)
    assert work_counts["maximizer"] == 1
    assert work_counts["kernel"] == 3


def test_work_ceiling_of_the_scan(combined_shapes):
    # every subset of spread damping branches, single ones too, sums its
    # members' scan rows over the same 20 of the 257 columns, between the
    # rows' peaks, in one sum over the member matrix
    L = 10
    subsets = oracles.all_subsets(L, range(1, L + 1))
    form = scales._forms(list(np.linspace(0.05, 0.9, L)))
    scales._Sweep(form, *scales._member_matrix(subsets))
    assert combined_shapes == [(len(subsets), 20)]


def test_work_ceiling_of_the_bounds(combined_shapes):
    # the bounds read each subset's summed curve at three fine-grid columns
    # about the peak of the quartic through its five summed scan samples,
    # summed for every subset at once: on spread damping branches no subset
    # takes its whole window of 65 columns
    L = 10
    subsets = oracles.all_subsets(L, range(1, L + 1))
    form = scales._forms(list(np.linspace(0.05, 0.9, L)))
    sweep = scales._Sweep(form, *scales._member_matrix(subsets))
    combined_shapes.clear()
    sweep.bounds_of_maxima()
    assert combined_shapes == [(len(subsets), 5), (len(subsets), 3)]


def test_work_ceiling_of_the_quartic_peaks(monkeypatch):
    # each subset's quartic peak is computed once per sweep: the bounds read
    # it for their middle column, and each refined lane starts at it, bit
    # for bit
    calls, starts = [], []
    quartic = scales._quartic_peak
    maximize = scales.maximize_concave_1d

    def counted(F):
        calls.append(quartic(F))
        return calls[-1]

    def recorded(f, lo, hi, tol, start):
        starts.append(start)
        return maximize(f, lo, hi, tol, start)

    monkeypatch.setattr(scales, "_quartic_peak", counted)
    monkeypatch.setattr(scales, "maximize_concave_1d", recorded)
    refine = scales._Sweep.refine
    refined = []

    def recorded_refine(sweep, lanes, tol):
        refined.append((len(calls), sweep, lanes))
        return refine(sweep, lanes, tol)

    monkeypatch.setattr(scales._Sweep, "refine", recorded_refine)
    gammas = list(np.linspace(0.05, 0.9, 8))
    # only a report of three or more branches takes bounds, before its refine
    for report, bounded in (
        (lambda: compute_capacity_report(gammas), True),
        (lambda: compute_capacity_report(gammas[:2]), False),
        (lambda: compute_random_scale_report(gammas[:6], [1 / 6] * 6), False),
    ):
        for log in (calls, starts, refined):
            log.clear()
        report()
        assert len(calls) == 1
        [(before, sweep, lanes)], [start] = refined, starts
        assert before == bounded
        step = scales._SCAN[1] - scales._SCAN[0]
        expected = scales._SCAN[sweep.centre[lanes]] + calls[0][lanes] * step
        assert np.array_equal(start, expected, equal_nan=True)
        assert np.array_equal(sweep.centre, np.clip(sweep.k, 2, len(scales._SCAN) - 3))


def test_report_self_checks_raise(monkeypatch):
    # each check of compute_capacity_report, against levels moved to fail it
    gammas = [0.1, 0.4, 0.7]
    report = compute_capacity_report(gammas)
    top, bottom = report.scale[3].value + 1e-6, report.scale[1].value - 1e-6
    scale_levels = scales._scale_levels
    for r, value, message in (
        (3, top, f"full-size scale level {top!r} disagrees with capacity {report.cp!r}"),
        (1, bottom, f"size-one scale level {bottom!r} disagrees with branch average {report.cbar!r}"),
        (2, report.scale[1].value + 2e-9, "scale increased from r=1 to r=2"),
    ):
        def moved(form, sizes, tol, r=r, value=value):
            scale, found = scale_levels(form, sizes, tol)
            scale[r] = dataclasses.replace(scale[r], value=value)
            return scale, found

        monkeypatch.setattr(scales, "_scale_levels", moved)
        with pytest.raises(NumericalError) as raised:
            compute_capacity_report(gammas)
        assert str(raised.value) == message


def fine_threes(sweep, peak):
    """Each subset's in-order sum of its members' curves at its middle fine column and beside it."""
    offset = np.where(np.isnan(peak), sweep.k - sweep.centre, peak)
    mid = scales._FINE * sweep.centre + np.rint(scales._FINE * offset).astype(int)
    fine = sweep._curves(scales._FINE_GRID)
    for row, n, m in zip(sweep.members, sweep.size, mid.clip(1, len(scales._FINE_GRID) - 2)):
        yield functools.reduce(np.add, (fine[i, m - 1:m + 2] for i in row[:n]))


def test_bounds_leave_unpeaked_subsets_unbounded(monkeypatch, combined_shapes):
    # the bounds read a quartic peak moved two fine steps: the middle column
    # then lies below the neighbour toward the maximizer, so its subset gets
    # no upper bound and its three columns' maximum, bit for bit, as its
    # lower bound; the prune keeps it, and the report's levels keep their bits
    shift = 2.0 / scales._FINE
    bounds_of_maxima = scales._Sweep.bounds_of_maxima

    def shifted(sweep):  # the refine still starts at the unmoved peak
        peak = sweep.peak
        sweep.peak = peak + shift
        try:
            return bounds_of_maxima(sweep)
        finally:
            sweep.peak = peak

    L = 10
    gammas = list(np.linspace(0.05, 0.9, L))
    subsets = oracles.all_subsets(L, range(1, L + 1))
    sweep = scales._Sweep(scales._forms(gammas), *scales._member_matrix(subsets))
    combined_shapes.clear()
    bounds = shifted(sweep)
    assert combined_shapes == [(len(subsets), 5), (len(subsets), 3)]
    unpeaked = 0
    for three, (lower, upper) in zip(fine_threes(sweep, sweep.peak + shift), bounds.T):
        assert lower == three.max()
        if three[1] < three[[0, 2]].max():
            unpeaked += 1
            assert upper == np.inf
    assert unpeaked == len(subsets)  # every subset, on these spread damping curves
    levels = compute_capacity_report(gammas).scale
    monkeypatch.setattr(scales._Sweep, "bounds_of_maxima", shifted)
    assert compute_capacity_report(gammas).scale == levels


def test_bounds_hold_where_the_quartic_can_miss():
    # the three-column bounds against every subset's refined maximum, and
    # the picks they prune to, on rows whose quartic peak may not place the
    # middle column: flat rows (damping 1, depolarizing 1), equal branches,
    # depolarizing rows (2-column scan windows), curves below the kernel's
    # rounding, and X-damping and Rz-damping, which peak below 1/2
    pad = scales._PRUNE_PAD
    dep = QubitChannel.depolarizing
    families = [
        [1.0, 0.2, dep(1.0), 0.5, dep(0.3), 0.8],
        [0.3] * 7,
        [dep(float(p)) for p in np.linspace(0.05, 0.9, 7)],
        [1.0 - 7 * 2.0**-52, 1.0 - 16 * 2.0**-52],
        [x_damping(g) if i % 2 else g for i, g in enumerate(np.linspace(0.1, 0.9, 7))],
        [rz_damping(g, 0.4 * i) for i, g in enumerate(np.linspace(0.1, 0.9, 7))],
    ]
    for branches in families:
        subsets, best, levels = full_sweep_levels(branches, 1e-8)
        sweep = scales._Sweep(scales._forms(branches), *scales._member_matrix(subsets))
        lower, upper = sweep.bounds_of_maxima()
        value = np.array([best[s][1] for s in subsets])
        assert np.all(lower <= value + pad)
        assert np.all(value <= upper + pad)
        assert compute_capacity_report(branches).scale == levels


def test_search_calls_of_pruning_cases(work_counts):
    # every subset of every family summed, and the full random table of every
    # family (its singletons' and crossing pairs' searches): a few calls per
    # search at any tol, where a golden-section search made 33 at tol 1e-8
    for tol, ceiling in ((1e-12, 2), (1e-8, 1), (1e-2, 1)):
        work_counts.clear()
        for branches in pruning_cases():
            L = len(branches)
            scales.maximize_subsets(branches, oracles.all_subsets(L, range(1, L + 1)), tol)
            compute_random_scale_report(branches, [1 / L] * L, tol=tol)
        assert work_counts["most steps"] <= ceiling


def test_work_ceilings_of_refined_lanes(work_counts, monkeypatch):
    # only the subsets that can still win their level are refined (91 here)
    compute_capacity_report(list(np.linspace(0.05, 0.9, 10)))
    assert work_counts["maximizer"] == 1
    assert work_counts["lanes"] <= 120

    # the worst case: equal branches tie at every level, so all 1023 are refined
    work_counts.clear()
    compute_capacity_report([0.3] * 10)
    assert work_counts["maximizer"] == 1
    assert work_counts["lanes"] == 1023

    # the real search settles RETRY_FAMILY's levels in one search
    work_counts.clear()
    report = compute_capacity_report(RETRY_FAMILY, tol=1e-2)
    assert work_counts["maximizer"] == 1 and work_counts["lanes"] == 13
    assert report.scale[2].best_subset == (0, 1)

    # A search whose values fall short of the prune's lower bounds, as a
    # coarse one's can, lifts a pruned subset's bound over its level's best
    # rate, and a second search refines it. Each size-r subset's value from
    # the first search falls short by r * short here, so every rate it gives
    # falls by short. The pruned level-2 class {(0, 2), (1, 3)} has an upper
    # rate about 2.4e-8 below the kept class {(0, 1), (1, 2), (2, 3), (0, 3)}
    # and a refined rate 1.26e-7 below it: a shortfall of 5e-7 lifts it and
    # makes (0, 2) the pick, and one of 1e-8 lifts nothing.
    refine = scales._Sweep.refine
    searched = []

    def falling_short(short):
        def refine_short(sweep, lanes, tol):
            res = refine(sweep, lanes, tol)
            searched.append([tuple(sweep.members[i, :sweep.size[i]].tolist()) for i in lanes])
            if len(searched) > 1:
                return res
            size = np.array([len(s) for s in searched[0]])
            return dataclasses.replace(res, value=res.value - short * size)

        return refine_short

    for short, retried, pick in ((1e-8, [], (0, 1)), (5e-7, [(0, 2), (1, 3)], (0, 2))):
        work_counts.clear()
        searched.clear()
        monkeypatch.setattr(scales._Sweep, "refine", falling_short(short))
        report = compute_capacity_report(RETRY_FAMILY, tol=1e-2)
        assert len(searched[0]) == 13 and not set(searched[0]) & set(retried)
        assert searched[1:] == ([retried] if retried else [])
        assert work_counts["maximizer"] == 1 + bool(retried)
        assert work_counts["lanes"] == 13 + len(retried)
        assert work_counts["last lanes"] == (len(retried) or 13)
        assert report.scale[2].best_subset == pick


def test_work_ceilings_of_random_reports(work_counts, tmp_path):
    # one maximization over the L = 10 singletons; of spread damping curves
    # the stronger damping is lower at both peaks, so no pair crosses, and
    # the search over crossing pairs is not made
    gammas = list(np.linspace(0.05, 0.9, 10))
    compute_random_scale_report(gammas, [0.1] * 10)
    assert work_counts["maximizer"] == 1
    assert work_counts["lanes"] == 10

    work_counts.clear()
    path = damping_channel_file(tmp_path, gammas, {"kind": "random", "q": [0.1] * 10})
    with redirect_stdout(io.StringIO()):
        assert cli.main(["capacity", path]) == 0
    assert work_counts["maximizer"] == 1
    assert work_counts["lanes"] == 10

    work_counts.clear()
    with redirect_stdout(io.StringIO()):
        assert cli.main(["random-scale", path, "--delta", "0,5,9"]) == 0
    assert work_counts["lanes"] == 10

    # a family whose curves cross adds one search, over its crossing pairs only
    work_counts.clear()
    compute_random_scale_report([branch(c) for c in CROSSING_FAMILY], [1 / 12] * 12)
    assert work_counts["maximizer"] == 2
    assert work_counts["last lanes"] == 40
    assert work_counts["lanes"] == 12 + 40


def test_work_ceilings_of_random_subset_rate_and_ad_gap(work_counts, tmp_path):
    mc = MemoryChannel.random(
        [QubitChannel.amplitude_damping(g) for g in (0.1, 0.4, 0.7)], [0.5, 0.3, 0.2]
    )
    run_trials(mc, Strategy((0, 1), 0.3), 100, seed=1)
    assert work_counts["maximizer"] == 1  # the subset's minimum only

    work_counts.clear()
    with redirect_stdout(io.StringIO()):
        assert cli.main(["ad-gap", "--grid", "11"]) == 0
    assert work_counts["maximizer"] == 1

    work_counts.clear()
    path = damping_channel_file(tmp_path, (0.1, 0.4, 0.7), {"kind": "periodic"})
    with redirect_stdout(io.StringIO()):
        assert cli.main(["amax", path]) == 0
    assert work_counts["maximizer"] == 1  # the bracket and the slope come with the search


def test_tie_rule_is_invariant_under_removing_a_loser():
    eps = scales._TIE_EPS
    rate = np.array([0.0, 1.5, 2.2, 3.0, 3.8]) * eps  # of the singletons (0,) ... (4,)
    size = np.ones(5, dtype=int)
    # the first rate within eps of the best; a scan that replaces its pick on
    # each gain above eps would pick (4,) once (1,) is left out, rated -inf
    for rated in (rate, np.where(np.arange(5) == 1, -np.inf, rate)):
        [pick] = scales._level_picks(rated, size).tolist()
        assert ScaleEntry(rated[pick], (pick,)) == ScaleEntry(3.0 * eps, (3,))


def rz_damping(gamma, phase):
    rz = np.diag([np.exp(-1j * phase), np.exp(1j * phase)])
    ops = kraus_operators(QubitChannel.amplitude_damping(gamma))
    return QubitChannel.kraus([rz @ k @ rz.conj().T for k in ops])


# a family whose level-2 pick turns on the prune's second search when the
# first search's values fall short (see test_work_ceilings_of_refined_lanes)
RETRY_FAMILY = [0.79, 0.58, 0.83, 0.67]


def branch(curve):
    """The branch of a curve: ("damping", gamma), ("x_damping", gamma),
    ("depolarizing", p) or ("rz_damping", gamma, phase)."""
    kind, param, *phase = curve
    if kind == "damping":
        return param
    if kind == "x_damping":
        return x_damping(param)
    if kind == "depolarizing":
        return QubitChannel.depolarizing(param)
    return rz_damping(param, *phase)


def oracle_curve(curve):
    """The curve as oracles.pair_minimum takes it: Rz conjugation keeps the damping curve."""
    kind, param, *_ = curve
    return ("damping" if kind == "rz_damping" else kind), param


def pruning_families():
    """The curves of the pruning_cases families."""
    rng = np.random.default_rng(10)
    for L in range(1, 9):
        centers = rng.uniform(0.1, 0.8, 3)
        yield [("damping", float(g)) for g in rng.uniform(0.0, 0.99, L)]
        yield [("damping", 0.3)] * L
        yield [("damping", float(g)) for g in centers[rng.integers(0, 3, L)] + 1e-9 * rng.random(L)]
        yield [("depolarizing", float(p)) for p in rng.uniform(0.0, 1.0, L)]
        yield [
            ("rz_damping", float(g), float(ph))
            for g, ph in zip(rng.uniform(0.0, 0.99, L), rng.uniform(0, 3, L))
        ]
    yield [("damping", g) for g in RETRY_FAMILY]


def pruning_cases():
    for curves in pruning_families():
        yield [branch(c) for c in curves]


def full_sweep_levels(branches, tol):
    """Every subset refined, then each level's first subset within _TIE_EPS of its best."""
    L = len(branches)
    subsets = oracles.all_subsets(L, range(1, L + 1))
    best = scales.maximize_subsets(branches, subsets, tol=tol)
    levels = {}
    for r in range(1, L + 1):
        rated = []
        for s in itertools.combinations(range(L), r):
            rotations = [tuple(sorted((m + k) % L for m in s)) for k in range(L)]
            rated.append((s, sum(best[x][1] for x in rotations) / (r * L)))
        top = max(v for _, v in rated)
        levels[r] = next(ScaleEntry(v, s) for s, v in rated if v >= top - scales._TIE_EPS)
    return subsets, best, levels


def test_level_picks_are_the_first_tied_subsets_in_combinations_order():
    # the test-side rule (full_sweep_levels): each level's first subset, in
    # itertools.combinations order, whose rate from maximize_subsets over its
    # rotations is within _TIE_EPS of the level's best. A subset's rotations
    # tie with it, so every level of every family has ties to break.
    rng = np.random.default_rng(33)
    dep = QubitChannel.depolarizing
    spread = [0.89, 0.05, 0.73, 0.78, 0.17, 0.43]
    families = [spread]
    for L in range(2, 9):
        families += [
            [float(g) for g in rng.uniform(0.0, 0.99, L)],
            [round(float(g), 1) for g in rng.uniform(0.0, 0.99, L)],
            [0.3] * L,
            [dep(round(float(p), 1)) for p in rng.uniform(0.0, 1.0, L)],
        ]
    for branches in families:
        _, _, levels = full_sweep_levels(branches, 1e-8)
        assert compute_capacity_report(branches).scale == levels
    # spread's level-3 pick is not the rotation of its class with the least sum of 2^m
    pick = compute_capacity_report(spread).scale[3].best_subset
    assert pick == (0, 1, 4)
    rotations = [tuple(sorted((m + k) % 6 for m in pick)) for k in range(6)]
    assert min(rotations, key=lambda s: sum(2**m for m in s)) == (0, 2, 3)


def test_subset_masks_come_in_report_order():
    # one enumeration serves every report: its rows in itertools.combinations
    # order, size-major, each mask with bit L-1-m for member m, each member
    # row the subset's members in increasing order padded with its last, the
    # very matrix that _member_matrix makes of the same tuples, and row k of
    # the rotations the row of the subset with each member m moved to
    # (m + k) mod L
    for L in range(1, scales.MAX_BRANCHES + 1):
        for sizes in [*([r] for r in range(1, L + 1)), range(1, L + 1)]:
            masks, members, size = scales._subset_masks(L, sizes)
            subsets = [tuple(row[:r]) for row, r in zip(members.tolist(), size.tolist())]
            assert subsets == oracles.all_subsets(L, sizes)
            width = members.shape[1]
            assert members.tolist() == [[*s, *[s[-1]] * (width - len(s))] for s in subsets]
            expected = scales._member_matrix(oracles.all_subsets(L, sizes))
            for got, want in zip((members, size), expected):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got, want)
            assert masks.tolist() == [sum(1 << (L - 1 - m) for m in s) for s in subsets]
            row = np.zeros(1 << L, dtype=int)
            row[masks] = np.arange(len(size))
            rot = row[scales._rotations(masks, L)]
            index = {s: i for i, s in enumerate(subsets)}
            for k in range(L):
                assert rot[k].tolist() == [
                    index[tuple(sorted((m + k) % L for m in s))] for s in subsets
                ]


def test_combined_never_reads_padding():
    # a member matrix pads each row with its last member, and a refine lays
    # out its pair matrix only as wide as its own lanes' largest size:
    # _combined reads each row's first size entries only, so neither the
    # padded entries' values nor the columns that hold padding only change a
    # bit of its sums, with one first column for every subset or one each
    rng = np.random.default_rng(50)
    cases = []
    for L in (1, 2, 5, 8):
        for sizes in (range(1, L + 1), sorted(rng.choice(L, rng.integers(1, L + 1), False) + 1)):
            shuffled = oracles.all_subsets(L, sizes)
            shuffled = sorted((shuffled[i] for i in rng.permutation(len(shuffled))), key=len)
            cases.append((L, *scales._subset_masks(L, sizes)[1:]))
            cases.append((L, *scales._member_matrix(shuffled)))
    for L, members, size in cases:
        rows = rng.standard_normal((L, 40))
        # every subset, and some of them in order, as a refine's lanes
        some = np.sort(rng.choice(len(size), rng.integers(1, len(size) + 1), replace=False))
        for lanes in (np.arange(len(size)), some):
            m, s = members[lanes], size[lanes]
            padding = np.arange(m.shape[1]) >= s[:, None]
            variants = []
            for fill in (0, rng.integers(0, L, padding.sum())):
                filled = m.copy()
                filled[padding] = fill
                variants += [filled, filled[:, :s.max()]]
            for at in (int(rng.integers(0, 36)), rng.integers(0, 36, len(s))):
                want = scales._combined(rows, m, s, at, 5).tobytes()
                assert all(scales._combined(rows, v, s, at, 5).tobytes() == want for v in variants)


def test_periodic_reports_refuse_more_branches_than_masks_cover(tmp_path, capsys):
    # the cap is checked before any subset is enumerated
    gammas = [round(0.05 + 0.07 * i, 2) for i in range(13)]
    path = damping_channel_file(tmp_path, gammas, {"kind": "periodic"})
    for argv in (["capacity", path], ["scale", path, "--r", "2"]):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: subset enumeration limited to 12 branches\n"
        assert captured.out == ""
    branches = [0.3] * 40
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="^subset enumeration limited to 12 branches$"):
            compute_capacity_report(branches)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("tol", [1e-8, 1e-2])
def test_pruned_levels_match_full_sweep(tol):
    pad = scales._PRUNE_PAD
    for branches in pruning_cases():
        L = len(branches)
        subsets, best, levels = full_sweep_levels(branches, tol)
        for r in range(1, L + 1):
            assert scale_r(branches, r, tol) == levels[r]
        report = compute_capacity_report(branches, tol)
        assert report.scale == levels
        assert report.cp == best[tuple(range(L))][1] / L
        sweep = scales._Sweep(scales._forms(branches), *scales._member_matrix(subsets))
        lower, upper = sweep.bounds_of_maxima()
        value = np.array([best[s][1] for s in subsets])
        assert np.all(value <= upper + pad)
        if tol == 1e-8:
            assert np.all(lower <= value + pad)


def test_sweep_combines_members_in_order():
    # a subset's curve is the sum of its members' curves in member order,
    # whatever the order of the subsets within each size, and whatever the
    # order and mix of sizes maximize_subsets gets them in
    rng = np.random.default_rng(16)
    for branches in pruning_cases():
        L = len(branches)
        permuted = oracles.all_subsets(L, range(1, L + 1))
        permuted = [permuted[i] for i in rng.permutation(len(permuted))]
        subsets = sorted(permuted, key=len)  # size-major, still shuffled within each size
        sweep = scales._Sweep(scales._forms(branches), *scales._member_matrix(subsets))
        scan = sweep._curves(scales._SCAN)
        for s, k in zip(subsets, sweep.k):
            assert k == functools.reduce(np.add, (scan[i] for i in s)).argmax()
        # the lower bound is the maximum of each subset's summed curve on the
        # 65 fine columns about its bracket
        width = 4 * scales._FINE + 1
        start = np.clip(scales._FINE * (sweep.k - 2), 0, len(scales._FINE_GRID) - width)
        first = start.min()
        fine = sweep._curves(scales._FINE_GRID[first:start.max() + width])
        lower, _ = sweep.bounds_of_maxima()
        for s, c, low in zip(subsets, start - first, lower):
            window = (fine[i, c:c + width] for i in s)
            assert low == functools.reduce(np.add, window).max()
        # a refined value is its members' curves at its argmax, summed in order
        best = scales.maximize_subsets(branches, permuted)
        assert list(best) == permuted
        for s, (a, value) in best.items():
            assert value == functools.reduce(np.add, mirror_chi(sweep.form[:, list(s)], a))
    branches = [0.1, 0.4, 0.7]
    mixed = [(0, 2), (1,), (0, 1, 2), (0, 2)]
    best = scales.maximize_subsets(branches, mixed)
    assert list(best) == [(0, 2), (1,), (0, 1, 2)]
    for s in mixed:
        assert best[s] == scales.maximize_subsets(branches, [s])[s]


def test_sweep_takes_its_subsets_size_major():
    # member position d adds only to the last subsets, those with more than
    # d members, so a sweep refuses subsets that do not come size-major
    form = scales._forms([0.1, 0.4, 0.7])
    with pytest.raises(ValueError, match="size-major"):
        scales._Sweep(form, *scales._member_matrix([(0, 2), (1,), (0, 1, 2)]))
    sweep = scales._Sweep(form, *scales._member_matrix([(1,), (0, 2), (0, 1, 2)]))
    # a row past its subset's size repeats the subset's last member
    assert sweep.members.tolist() == [[1, 1, 1], [0, 2, 2], [0, 1, 2]]
    assert sweep.size.tolist() == [1, 2, 3]
    for s, k in zip([(1,), (0, 2), (0, 1, 2)], sweep.k):
        assert k == functools.reduce(np.add, (sweep.scan[i] for i in s)).argmax()


def test_refine_of_no_lanes_is_an_empty_search():
    # a pass of _scale_levels refines the lanes it still lacks, which may be
    # none: that is an ordinary search with empty results
    form = scales._forms([0.1, 0.4, 0.7])
    sweep = scales._Sweep(form, *scales._member_matrix(oracles.all_subsets(3, range(1, 4))))
    res = sweep.refine(np.zeros(0, dtype=int), 1e-8)
    assert scales._found(res).shape == (5, 0)
    assert res.iterations == 0 and res.achieved_tol == 0.0


def test_sweep_window_keeps_each_first_argmax(combined_shapes):
    # a subset's rows are summed only over the scan columns where the first
    # argmax of their in-order sum can lie; k is that argmax, bit for bit
    dep = QubitChannel.depolarizing
    spread = [float(g) for g in np.linspace(0.05, 0.9, 8)]
    families = [
        # X·AD·X curves peak below 1/2 and damping curves above it: a wide window
        [x_damping(g) if i % 3 else g for i, g in enumerate(np.linspace(0.1, 0.95, 10))],
        [1.0, *spread[:4], dep(1.0), *spread[4:]],  # flat rows among spread ones
        [0.3] * 9,
        [dep(float(p)) for p in np.linspace(0.05, 0.9, 10)],
        # curves below the kernel's rounding, whose rows are not unimodal
        [1.0 - 7 * 2.0**-52, 1.0 - 16 * 2.0**-52],
    ]
    sums, widths, flat_only = [], [], []
    for branches in families:
        L = len(branches)
        subsets = oracles.all_subsets(L, range(1, L + 1))
        combined_shapes.clear()
        sweep = scales._Sweep(scales._forms(branches), *scales._member_matrix(subsets))
        for s, k in zip(subsets, sweep.k):
            assert k == functools.reduce(np.add, (sweep.scan[i] for i in s)).argmax()
        sums.append([rows for rows, _ in combined_shapes])
        widths.append({width for _, width in combined_shapes})
        flat_only.append(sum(set(s) <= {0, 5} for s in subsets))
    # one sum over every subset; the rows of damping 1 and depolarizing 1
    # are 0 in every column, so in the subsets of those two only, the flat
    # pair and its single members, the window's first column ties the one
    # before it, and those three alone are summed again, whole
    expected = [[2**L - 1] for L in map(len, families)]
    expected[1].append(flat_only[1])
    assert flat_only[1] == 3
    assert sums == expected
    assert len(scales._SCAN) in widths[1]
    # depolarizing rows rise to the scan point 1/2 and fall after it
    assert widths[3] == {2}
    # the first argmax of the noise rows' sum lies 6 columns below both
    # rows' first maxima, outside the span of the maxima
    assert sweep.scan.argmax(axis=1).min() - sweep.k[-1] == 6


def test_sweep_window_ties_take_the_whole_row(monkeypatch, combined_shapes):
    # Synthetic unimodal scan rows: a rises to a plateau on [97, 99] and
    # peaks at column 100, one ulp of 0.25 higher, and b is flat on
    # [95, 200]. The window is [99, 100], where a + b rounds to 1.25 in both
    # columns: its first argmax, column 99, may tie with the column before
    # the window, so the pair is summed again over the whole row, whose first
    # argmax is column 97. b alone also ties at column 99 and is summed
    # again, whole, to its first argmax, column 95.
    j = np.arange(len(scales._SCAN), dtype=float)
    a = 0.25 - 1e-3 * (np.maximum(97 - j, 0) + np.maximum(j - 100, 0))
    a[100] = np.nextafter(0.25, 1.0)
    b = 1.0 - 1e-3 * (np.maximum(95 - j, 0) + np.maximum(j - 200, 0))
    assert (a + b)[99] == (a + b)[100] == 1.25
    monkeypatch.setattr(scales._Sweep, "_curves", lambda sweep, grid: np.stack([a, b]))
    form = scales._forms([0.1, 0.2])
    sweep = scales._Sweep(form, *scales._member_matrix([(0,), (1,), (0, 1)]))
    assert list(sweep.k) == [100, 95, 97]
    assert combined_shapes == [(3, 2), (2, len(scales._SCAN))]


def concave_rows(rng):
    """Random concave rows of three unit-spaced samples, each with its maximum on [0, 2]."""
    x = np.arange(3.0)
    for _ in range(1000):
        # the minimum of lines: its maximum is at an end or where two lines cross
        slope, icept = rng.normal(size=(2, rng.integers(1, 5)))
        slope *= rng.choice([0.1, 1.0, 10.0])
        i, j = np.triu_indices(len(slope), 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = (icept[j] - icept[i]) / (slope[i] - slope[j])
        at = np.concatenate([[0.0, 2.0], cross[(cross >= 0.0) & (cross <= 2.0)]])
        yield (slope * x[:, None] + icept).min(axis=1), (slope * at[:, None] + icept).min(axis=1).max()
        # -s |x - x*|^p, p >= 1, peaking inside the row or outside it
        peak, s, p = rng.uniform(-3.0, 5.0), rng.uniform(0.01, 10.0), rng.uniform(1.0, 4.0)
        yield -s * np.abs(x - peak) ** p, -s * abs(np.clip(peak, 0.0, 2.0) - peak) ** p
        yield np.full(3, icept[0]), icept[0]


def test_peak_bounds_hold_on_concave_rows():
    peaked = 0
    for F, top in concave_rows(np.random.default_rng(18)):
        (lower,), (upper,) = scales._peak_bounds(F[None])
        assert lower == F.max()
        if F[1] == F.max():
            peaked += 1
            assert upper >= top - 1e-12 * (1.0 + abs(top))
            if np.all(F == F[0]):
                assert upper == lower
        else:
            assert upper == np.inf
    assert 1000 < peaked < 3000


def test_peak_bounds_are_tight_on_quadratic_peaks():
    # -c (x - x*)^2 on three unit-spaced samples: the middle one is the
    # highest where x* is within half a step of it, and there the bound
    # exceeds the maximum by at most 1.75 c; elsewhere there is no bound
    x = np.arange(3.0)
    for c in (1e-6, 1.0, 3.0):
        peak = np.linspace(-3.0, 5.0, 1601)
        F = -c * (x - peak[:, None]) ** 2
        top = -c * (np.clip(peak, 0.0, 2.0) - peak) ** 2
        lower, upper = scales._peak_bounds(F)
        assert np.all(lower == F.max(axis=1))
        peaked = F[:, 1] == lower
        assert np.all(peaked[np.abs(peak - 1.0) < 0.5 - 1e-9])
        assert not np.any(peaked[np.abs(peak - 1.0) > 0.5 + 1e-9])
        gap = (upper[peaked] - top[peaked]) / c
        assert np.all(gap >= -1e-9)
        assert 1.7 <= gap.max() <= 1.75 + 1e-9
        assert np.all(upper[~peaked] == np.inf)


def x_damping(gamma):
    """X·AD(gamma)·X as Kraus operators: damping toward |1> instead of |0>."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    ops = kraus_operators(QubitChannel.amplitude_damping(gamma))
    return QubitChannel.kraus([x @ k @ x for k in ops])


# damping and X-conjugated damping of nearly equal gamma, which cross near
# a = 1/2, and depolarizing curves that cross them: 40 of the 66 pairs cross
# below both peaks
CROSSING_FAMILY = [
    ("x_damping" if i % 2 else "damping", float(g)) for i, g in enumerate(np.linspace(0.3, 0.32, 10))
] + [("depolarizing", 0.14), ("depolarizing", 0.15)]


def kinked_pairs():
    """Pairs of curves that cross below both peaks, so each pair's minimum peaks at a kink."""
    for g1, g2 in ((0.05, 0.05), (0.3, 0.31), (0.3, 0.34), (0.3037, 0.2977), (0.6, 0.61), (0.9, 0.91)):
        yield ("damping", g1), ("x_damping", g2)
    for p, g in ((0.1, 0.21), (0.1, 0.22), (0.2, 0.42), (0.3, 0.6), (0.4, 0.75), (0.5, 0.84)):
        yield ("depolarizing", p), ("damping", g)


def test_random_pairs_converge_at_kinks(work_counts):
    # the minimum of two crossing curves peaks at a kink, where its slope
    # jumps; the crossing search proposes the Newton crossing of the two
    # curves, so c_delta is the kink's value to rounding: after the
    # singletons' search, up to 4 calls close the bracket and land on the
    # kink where the last centre missed it by enough to cost value
    pairs = list(kinked_pairs())
    for pair in pairs:
        report = compute_random_scale_report([branch(c) for c in pair], [0.5, 0.5], deltas=[(0, 1)])
        c_delta = report.per_subset[(0, 1)].c_delta
        assert c_delta < min(s.chi_star for s in report.per_branch_suprema) - 1e-6  # a kink
        assert abs(c_delta - oracles.pair_minimum(*pair)) <= 1e-12
    assert work_counts["maximizer"] == 2 * len(pairs)
    assert work_counts["most steps"] <= 4


def test_random_pairs_reach_their_kinks_at_a_coarse_tol(work_counts):
    # a kink's value rises linearly, so the crossing search runs at tol 1e-8
    # or finer whatever the report's tol: every kernel call beside the scan
    # and the peaks is one of the searches' steps, and those stay as few as
    # at tol 1e-8
    L = len(CROSSING_FAMILY)
    example = ("x_damping", 0.19098147589039005), ("depolarizing", 0.08677723939124427)
    pairs = [*kinked_pairs(), example]
    deltas = list(itertools.combinations(range(L), 2))
    truth = {pair: oracles.pair_minimum(*pair) for pair in pairs}
    family = [oracles.pair_minimum(CROSSING_FAMILY[i], CROSSING_FAMILY[m]) for i, m in deltas]
    for tol in (1e-8, 1e-3, 1e-2):
        for pair in pairs:
            work_counts.clear()
            report = compute_random_scale_report(
                [branch(c) for c in pair], [0.5, 0.5], deltas=[(0, 1)], tol=tol
            )
            assert abs(report.per_subset[(0, 1)].c_delta - truth[pair]) <= 1e-12
            assert work_counts["kernel"] == 2 + work_counts["steps"]
            assert work_counts["most steps"] <= 4
        branches = [branch(c) for c in CROSSING_FAMILY]
        report = compute_random_scale_report(branches, [1 / L] * L, deltas=deltas, tol=tol)
        c_delta = [entry.c_delta for entry in report.per_subset.values()]
        assert np.abs(np.subtract(c_delta, family)).max() <= 1e-12


def test_pair_rule_at_flat_and_equal_curves_and_close_peaks(work_counts):
    dep = QubitChannel.depolarizing
    # flat curves (chi = 0 everywhere) paired with each other and with curves
    # that are not flat: every delta that holds one is worth 0
    report = compute_random_scale_report([1.0, dep(1.0), 0.3, x_damping(0.4), dep(0.2)], [0.2] * 5)
    assert [s.chi_star for s in report.per_branch_suprema[:2]] == [0.0, 0.0]
    for d, entry in report.per_subset.items():
        assert (entry.c_delta == 0.0) == (d[0] < 2)

    # equal branches: their common supremum, with no crossing search
    work_counts.clear()
    branches = [0.3, 0.3, x_damping(0.4), x_damping(0.4), dep(0.2), dep(0.2)]
    report = compute_random_scale_report(branches, [1 / 6] * 6, deltas=[(0, 1), (2, 3), (4, 5)])
    sups = report.per_branch_suprema
    for i in (0, 2, 4):
        assert sups[i] == sups[i + 1]
        assert report.per_subset[(i, i + 1)].c_delta == sups[i].chi_star
    assert work_counts["maximizer"] == 1

    # different curves whose peaks are bitwise equal: the lower supremum,
    # with no crossing search
    work_counts.clear()
    report = compute_random_scale_report([dep(0.5), dep(0.3), dep(0.7)], [0.2, 0.3, 0.5])
    sups = report.per_branch_suprema
    assert len({s.a_max for s in sups}) == 1
    for d, entry in report.per_subset.items():
        assert entry.c_delta == min(sups[i].chi_star for i in d)
    assert work_counts["maximizer"] == 1

    # mirror-image curves that cross at 1/2, found less than tol apart: the
    # crossing search takes the narrow bracket between them, never an empty one
    for gamma, tol in ((8e-10, 1e-4), (1e-6, 1e-4), (1e-4, 1e-2)):
        work_counts.clear()
        report = compute_random_scale_report(
            [gamma, x_damping(gamma)], [0.5, 0.5], deltas=[(0, 1)], tol=tol
        )
        a0, a1 = (s.a_max for s in report.per_branch_suprema)
        assert 0.0 < a0 - a1 < tol
        assert work_counts["maximizer"] == 2
        truth = oracles.pair_minimum(("damping", gamma), ("x_damping", gamma))
        assert abs(report.per_subset[(0, 1)].c_delta - truth) <= 1e-12


def edge_families():
    """(curves, q) of random tables at the pair rule's edges.

    L = 6 damping with Dirichlet q, drawn as the random-simulate benchmark
    draws them; damping alternating with X·AD·X, whose pairs cross; flat
    curves (damping 1, depolarizing 1) among others; and gammas within
    1e-7 of each other.
    """
    rng = np.random.default_rng(49)
    for _ in range(6):
        gammas = rng.uniform(0.05, 0.95, 6)
        yield [("damping", float(g)) for g in gammas], rng.dirichlet(np.ones(6))
    for L in (2, 5, 8):
        gammas = rng.uniform(0.05, 0.95, L)
        curves = [("x_damping" if i % 2 else "damping", float(g)) for i, g in enumerate(gammas)]
        yield curves, rng.dirichlet(np.ones(L))
    yield CROSSING_FAMILY, np.full(12, 1 / 12)
    flat = [("damping", 1.0), ("depolarizing", 1.0), ("damping", 0.3), ("x_damping", 0.4)]
    yield flat + [("depolarizing", 0.2)], rng.dirichlet(np.ones(5))
    for kinds in (["damping"], ["damping", "x_damping"]):
        gammas = rng.uniform(0.1, 0.9) + rng.uniform(-5e-8, 5e-8, 6)
        curves = [(kinds[i % len(kinds)], float(g)) for i, g in enumerate(gammas)]
        yield curves, rng.dirichlet(np.ones(6))


def test_random_table_edges_are_exact():
    # with no margin: a single branch's c_delta and cbar_delta are its
    # chi_star, bit for bit; no c_delta exceeds a member's chi_star; and a
    # delta's cbar_delta is its best member's chi_star, bit for bit. So the
    # pair table's diagonal is the branches' suprema, in every table, full
    # or of given deltas
    bits = float.hex
    for curves, q in edge_families():
        L = len(curves)
        branches = [branch(c) for c in curves]
        some = [tuple(range(L)), *((i,) for i in reversed(range(L))), (0, L - 1)]
        for deltas in (None, some):
            report = compute_random_scale_report(branches, q, deltas)
            stars = [s.chi_star for s in report.per_branch_suprema]
            table = report.per_subset
            for i in range(L):
                assert bits(table[(i,)].c_delta) == bits(table[(i,)].cbar_delta) == bits(stars[i])
            for d, entry in table.items():
                assert all(entry.c_delta <= stars[i] for i in d)
                assert bits(entry.cbar_delta) == bits(max(stars[i] for i in d))


def curve_entry(curve):
    """A channel file's branch of a curve ("damping", "x_damping" or "depolarizing")."""
    kind, param = curve
    if kind == "damping":
        return {"type": "amplitude_damping", "gamma": param}
    if kind == "depolarizing":
        return {"type": "depolarizing", "p": param}
    return kraus_entry(kraus_operators(x_damping(param)))


def test_printed_suprema_agree_across_commands(tmp_path):
    # chi, capacity (periodic and random memory) and random-scale print the
    # same suprema for the same branches, with no margin; random-scale's
    # singleton rows print them as c_delta and cbar_delta, and the full
    # set's row, in capacity and random-scale, prints the largest as cbar_delta
    for curves, q in edge_families():
        L = len(curves)
        branches = [curve_entry(c) for c in curves]
        printed = []
        runs = [
            ({"kind": "periodic"}, ("chi", "capacity")),
            ({"kind": "random", "q": q.tolist()}, ("chi", "capacity", "random-scale")),
        ]
        for memory, commands in runs:
            path = tmp_path / f"{memory['kind']}.json"
            path.write_text(json.dumps({"branches": branches, "memory": memory}))
            for command in commands:
                rc, text = run_to_file(tmp_path, [command, str(path), "--format", "json"])
                assert rc == 0
                got = json.loads(text)
                if command == "chi":
                    printed.append([row["chi_star"] for row in got])
                    continue
                printed.append([s["chi_star"] for s in got["per_branch_suprema"]])
                if "per_subset" in got:
                    assert got["per_subset"][-1]["cbar_delta"] == max(printed[-1])
                if command == "random-scale":
                    singles = got["per_subset"][:L]
                    assert [row["delta"] for row in singles] == [[i] for i in range(L)]
                    assert [row["c_delta"] for row in singles] == printed[-1]
                    assert [row["cbar_delta"] for row in singles] == printed[-1]
        assert len(printed) == 5
        assert all(p == printed[0] for p in printed)
        assert len(printed[0]) == L


def test_every_search_bracket_holds_its_best_point(monkeypatch):
    # lo <= argmax <= hi on every lane of every search, at every tol: on a
    # flat curve (damping 1, depolarizing 1) the zero slopes cross, and the
    # bracket is the stretch they span, in order
    maximize = scales.maximize_concave_1d
    searches = []

    def recorded(*args, **kwargs):
        searches.append(maximize(*args, **kwargs))
        return searches[-1]

    monkeypatch.setattr(scales, "maximize_concave_1d", recorded)
    dep = QubitChannel.depolarizing
    families = [
        [1.0, dep(1.0), 0.3, x_damping(0.31), dep(0.2)],
        [1.0, dep(1.0), *(branch(c) for c in CROSSING_FAMILY[:10])],
    ]  # each with pairs that cross below both peaks
    for tol in (1e-12, 1e-8, 1e-2):
        for branches in families:
            L = len(branches)
            searches.clear()
            sups = per_branch_suprema(branches, tol)
            assert all(lo <= s.a_max <= hi for s in sups for lo, hi in [s.bracket])
            assert all(s.bracket[0] < s.bracket[1] for s in sups[:2])  # the flat lanes
            compute_random_scale_report(branches, [1 / L] * L, tol=tol)
            scales.maximize_subsets(branches, oracles.all_subsets(L, range(1, 4)), tol)
            # per_branch_suprema's, the random report's singletons' and
            # crossing pairs', and maximize_subsets'
            assert len(searches) == 4
            for res in searches:
                assert np.all((res.lo <= res.argmax) & (res.argmax <= res.hi))


def test_memory_ceiling_of_reports():
    # the sweep combines the curves of one block of subsets at a time, over
    # the scan columns between the rows' peaks (20 of 257 on the spread family);
    # a table of curves with a row per subset (4095 rows at L = 12) would not fit
    gammas = [float(g) for g in np.linspace(0.05, 0.9, 12)]
    alternating = [
        QubitChannel.amplitude_damping(g) if i % 2 == 0 else x_damping(g)
        for i, g in enumerate(gammas)
    ]
    # curves that all peak at one a prune nothing: every subset is refined,
    # 24,576 (subset, member) pairs, and the refine's kernel calls are blocked
    equal = [0.3] * 12
    depolarizing = [QubitChannel.depolarizing(float(p)) for p in np.linspace(0.05, 0.6, 12)]
    cases = [(gammas, 3), (alternating, 4), (equal, 10), (depolarizing, 10)]
    cases = [(compute_capacity_report, branches, mib) for branches, mib in cases]
    # a full random table takes the least of each delta's pair values over
    # blocks of deltas, not over a (deltas, L, L) array of all 4095 at once
    random_table = functools.partial(compute_random_scale_report, q=[1 / 12] * 12)
    cases += [(random_table, gammas, 2), (random_table, alternating, 2)]
    for report, branches, mib in cases:
        report(branches)  # first call: imports and caches
        tracemalloc.start()
        try:
            report(branches)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= mib * 2**20


def test_memory_ceiling_of_ad_gap(tmp_path):
    # ad-gap writes each of its 10,201 rows as it makes it, so the run peaks
    # in its search (4.0 MiB); holding the table's JSON text (5.3 MiB), or
    # the rows and their texts as well (7.4 MiB), goes over the ceiling
    argv = ["ad-gap", "--grid", "101", "--format", "json", "--output", str(tmp_path / "gap.json")]
    assert cli.main(argv) == 0  # first call: imports and caches
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2**20


def test_random_report_matches_direct_maximization():
    # each c_delta against the 40-digit oracle: a singleton's the peak value
    # of its curve, and a larger delta's the least of its pairs' worst cases;
    # and, bit for bit, each delta's c_delta is the least of its pairs'
    # c_delta in the same report (Helly's theorem in one dimension)
    rng = np.random.default_rng(11)
    for curves in [*pruning_families(), CROSSING_FAMILY]:
        L = len(curves)
        q = rng.dirichlet(np.ones(L))
        report = compute_random_scale_report([branch(c) for c in curves], q)
        table = report.per_subset
        assert list(table) == oracles.all_subsets(L, range(1, L + 1))
        truth = {
            (i, m): oracles.pair_minimum(oracle_curve(curves[i]), oracle_curve(curves[m]))
            for i, m in itertools.combinations_with_replacement(range(L), 2)
        }
        sups = [s.chi_star for s in report.per_branch_suprema]
        for d, entry in table.items():
            pairs = list(itertools.combinations(d, 2)) or [(d[0], d[0])]
            assert abs(entry.c_delta - min(truth[p] for p in pairs)) <= 1e-12
            if len(d) > 1:
                assert entry.c_delta == min(table[p].c_delta for p in pairs)
            assert entry.cbar_delta == max(sups[i] for i in d)
            assert entry.q_delta == min(1.0, sum(float(q[i]) for i in d))
        assert [table[(i,)].c_delta for i in range(L)] == sups
        # deltas passed in, of mixed sizes and in any order, get the same values
        some = list(table)[::-3]
        report = compute_random_scale_report([branch(c) for c in curves], q, deltas=some)
        assert report.per_subset == {d: table[d] for d in some}
