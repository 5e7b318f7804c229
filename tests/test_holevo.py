import math

import numpy as np
import pytest

import oracles
from capscale import (
    MemoryChannel,
    QubitChannel,
    ValidationError,
    chi_mirror_family,
    compute_capacity_report,
    kraus_operators,
)
from capscale.holevo import mirror_chi, mirror_chi_jet, mirror_form
from conftest import chi_ad_grid
from oracles import OracleError, dchi_da_ad


def test_ensemble_validation():
    # branch weights follow one rule: nonnegative, finite, summing to 1
    branches = [QubitChannel.amplitude_damping(0.3)] * 2
    for q in ([0.5, 0.4], [1.5, -0.5], [0.5, float("nan")], []):
        with pytest.raises(ValidationError):
            MemoryChannel.random(branches, q)


def test_mirror_pair_states_are_pure():
    # through the identity the pair averages to diag(a, 1 - a), so chi = H(a)
    # exactly when both states are pure
    identity = QubitChannel.amplitude_damping(0.0)
    for a in (0.0, 0.3, 0.5, 0.97, 1.0):
        h = oracles.binary_entropy(a)
        assert chi_mirror_family(identity, a) == pytest.approx(h, abs=1e-12)
        for rho in oracles.mirror_pair(a):
            assert oracles.entropy(rho) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValidationError):
        chi_mirror_family(identity, 1.2)


def test_mirror_average_output_is_diagonal():
    gamma, a = 0.35, 0.62
    ch = QubitChannel.amplitude_damping(gamma)
    outs = [oracles.apply_kraus(kraus_operators(ch), rho) for rho in oracles.mirror_pair(a)]
    expect = np.diag([a + (1.0 - a) * gamma, (1.0 - a) * (1.0 - gamma)])
    assert np.allclose(sum(outs) / 2.0, expect, atol=1e-14)


def test_holevo_identity_channel_orthogonal_pair():
    # gamma = 0 leaves states untouched; a = 1/2 mirror pair is orthogonal
    ch = QubitChannel.amplitude_damping(0.0)
    assert chi_mirror_family(ch, 0.5) == pytest.approx(1.0, abs=1e-12)
    chi = oracles.holevo_chi(kraus_operators(ch), oracles.mirror_pair(0.5), (0.5, 0.5))
    assert chi == pytest.approx(1.0, abs=1e-12)


def test_holevo_chi_matches_density_matrix_oracle():
    # random Kraus channels with complex entries, and the mirror pair at random
    # a and at its ends and middle: the six-number kernel against eigenvalues
    # of density matrices
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        v, _ = np.linalg.qr(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))
        ops = [v[:2], v[2:]]  # an isometry C^2 -> C^2 (x) C^2, cut into Kraus operators
        ch = QubitChannel.kraus(ops)
        for a in (0.0, 0.5, 1.0, rng.uniform()):
            chi = oracles.holevo_chi(ops, oracles.mirror_pair(a), (0.5, 0.5))
            worst = max(worst, abs(chi_mirror_family(ch, a) - chi))
    assert worst <= 1e-12


def _rotated_half_damping(n, seed):
    """Kraus operators V H K H of H·AD(1/2)·H, output-rotated by Haar-random V.

    At a = 1/2 the mirror state (-1, 0, 0) goes to I/2, so one output's
    squared radius is 0 and its six-number form can round below 0.
    """
    rng = np.random.default_rng(seed)
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    ad = kraus_operators(QubitChannel.amplitude_damping(0.5))
    for _ in range(n):
        q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        v = q * (np.diag(r) / np.abs(np.diag(r)))
        yield [v @ h @ k @ h for k in ad]


def test_mirror_chi_clamps_a_squared_radius_below_zero():
    # without the clamp 15 of these 100 maps give NaN, and so does the report
    worst = 0.0
    for ops in _rotated_half_damping(100, seed=11):
        chi = chi_mirror_family(QubitChannel.kraus(ops), 0.5)
        assert math.isfinite(chi)
        oracle = oracles.holevo_chi(ops, oracles.mirror_pair(0.5), (0.5, 0.5))
        worst = max(worst, abs(chi - oracle))
    assert worst <= 1e-12
    branches = [QubitChannel.kraus(ops) for ops in _rotated_half_damping(2, seed=11)]
    report = compute_capacity_report(branches)
    assert math.isfinite(report.cp) and math.isfinite(report.cbar)


def test_chi_closed_form_matches_generic_path():
    gammas = [0.0, 0.05, 0.3, 0.5, 0.8, 0.97, 1.0]
    avals = [0.0, 0.01, 0.25, 0.5, 0.62, 0.9, 1.0]
    for gamma in gammas:
        ch = QubitChannel.amplitude_damping(gamma)
        for a in avals:
            closed = chi_ad_grid(gamma, a)
            generic = chi_mirror_family(ch, a)
            assert closed == pytest.approx(generic, abs=1e-12)


def test_chi_mirror_family_array_matches_scalar():
    rng = np.random.default_rng(4)
    u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    ad = QubitChannel.amplitude_damping(0.35)
    conj = QubitChannel.kraus([u @ k @ u.conj().T for k in kraus_operators(ad)])
    a = np.linspace(0.0, 1.0, 36).reshape(4, 9)
    for ch in (ad, QubitChannel.depolarizing(0.2), conj):
        values = chi_mirror_family(ch, a)
        assert values.shape == a.shape
        scalars = [[chi_mirror_family(ch, float(x)) for x in row] for row in a]
        assert np.allclose(values, scalars, rtol=0.0, atol=1e-15)
    with pytest.raises(ValidationError):
        chi_mirror_family(ad, np.array([0.5, 1.5]))


def test_chi_frozen_optimum_values():
    assert chi_ad_grid(0.1, 0.546697032616978) == pytest.approx(
        0.840496506564459, abs=1e-12
    )
    assert chi_ad_grid(0.3, 0.580531928932412) == pytest.approx(
        0.63832906028176, abs=1e-11
    )
    # the kernel's mirror-pair curve at the same points
    ad = QubitChannel.amplitude_damping
    assert chi_mirror_family(ad(0.1), 0.546697032616978) == pytest.approx(
        0.840496506564459, abs=1e-12
    )
    assert chi_mirror_family(ad(0.3), 0.580531928932412) == pytest.approx(
        0.63832906028176, abs=1e-11
    )


def test_chi_domain_validation():
    with pytest.raises(ValidationError):
        QubitChannel.amplitude_damping(-0.1)
    ch = QubitChannel.amplitude_damping(0.5)
    for a in (1.5, -0.1, "0.5", True, [0.5, "0.5"], float("nan")):  # range and number rule
        with pytest.raises(ValidationError):
            chi_mirror_family(ch, a)
    # a channel is a QubitChannel
    M, t = ch.bloch_map
    for bad in (5, None, "Mt", (M,), (M, t, t), (M[:2], t), (M, t[:2]), ([M, M], [t]), (M, t)):
        with pytest.raises(ValidationError):
            chi_mirror_family(bad, 0.3)


def test_output_eigenvalues_closed_form_grid():
    # eigensolver vs (1 ± sqrt(1 - 4γ(1-γ)(1-a)²))/2 on a 50x50 grid
    grid = np.linspace(0.0, 1.0, 50)
    worst = 0.0
    for gamma in grid:
        r = math.sqrt(1.0 - gamma)
        for a in grid:
            b = math.sqrt(a * (1.0 - a))
            out = np.array(
                [[a + (1.0 - a) * gamma, b * r], [b * r, (1.0 - a) * (1.0 - gamma)]]
            )
            ev = np.linalg.eigvalsh(out)[::-1]
            x = math.sqrt(max(0.0, 1.0 - 4.0 * gamma * (1.0 - gamma) * (1.0 - a) ** 2))
            worst = max(worst, abs(ev[0] - (1.0 + x) / 2.0), abs(ev[1] - (1.0 - x) / 2.0))
    assert worst < 1e-10


def test_output_eigenvalue_variant_with_wrong_exponent_fails():
    # the (1 - a²) variant disagrees with the eigensolver; e.g. gamma = a = 1/2
    gamma = a = 0.5
    b = math.sqrt(a * (1.0 - a))
    out = np.array(
        [
            [a + (1.0 - a) * gamma, b * math.sqrt(1.0 - gamma)],
            [b * math.sqrt(1.0 - gamma), (1.0 - a) * (1.0 - gamma)],
        ]
    )
    ev = np.linalg.eigvalsh(out)[::-1]
    x_bad = math.sqrt(1.0 - 4.0 * gamma * (1.0 - gamma) * (1.0 - a**2))
    assert abs(ev[0] - (1.0 + x_bad) / 2.0) > 1e-2


def test_chi_concave_in_a():
    for gamma in (0.0, 0.2, 0.5, 0.8, 0.99):
        a = np.linspace(0.02, 0.98, 321)
        v = chi_ad_grid(gamma, a)
        d2 = v[2:] - 2.0 * v[1:-1] + v[:-2]
        assert d2.max() <= 1e-12


def test_dchi_matches_finite_differences():
    h = 1e-6
    ln2 = math.log(2.0)
    for gamma in (0.1, 0.3, 0.5, 0.7, 0.9):
        for a in (0.52, 0.6, 0.7, 0.85, 0.95):
            fd = (chi_ad_grid(gamma, a + h) - chi_ad_grid(gamma, a - h)) / (2.0 * h)
            assert dchi_da_ad(gamma, a) == pytest.approx(fd * ln2, abs=1e-6)


def test_dchi_frozen_value_and_identity_limit():
    assert dchi_da_ad(0.3, 0.7) == pytest.approx(-0.412459754623014, abs=1e-12)
    for a in (0.2, 0.5, 0.9):
        assert dchi_da_ad(0.0, a) == pytest.approx(math.log((1.0 - a) / a), abs=1e-15)


def test_dchi_domain_validation():
    for gamma, a in ((1.0, 0.6), (0.5, 0.0), (0.5, 1.0)):
        with pytest.raises(OracleError):
            dchi_da_ad(gamma, a)


def conjugated(ch, u):
    """The channel U ch(U† . U) U†, as Kraus operators."""
    return QubitChannel.kraus([u @ k @ u.conj().T for k in kraus_operators(ch)])


def jet_branches():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    for gamma in (0.05, 0.4, 0.9):
        ad = QubitChannel.amplitude_damping(gamma)
        rz = np.diag([np.exp(-0.7j), np.exp(0.7j)])
        yield from (ad, conjugated(ad, x), conjugated(ad, rz))
    for p in (0.1, 0.5, 0.9):
        yield QubitChannel.depolarizing(p)


def test_mirror_chi_jet_matches_finite_differences():
    # slope and curvature in a against central differences of the kernel's
    # values and slopes, for damping, X·AD·X, Rz-conjugated damping and
    # depolarizing branches; the value keeps mirror_chi's bits
    a, h = np.linspace(0.05, 0.95, 91), 1e-5
    for ch in jet_branches():
        form = mirror_form(ch.bloch_map)
        value, slope, curv = mirror_chi_jet(form, a)
        assert np.array_equal(value, mirror_chi(form, a))
        (up, s_up, _), (down, s_down, _) = mirror_chi_jet(form, a + h), mirror_chi_jet(form, a - h)
        assert np.abs(slope - (up - down) / (2 * h)).max() <= 1e-6
        assert np.abs(curv - (s_up - s_down) / (2 * h)).max() <= 1e-5 * (1 + np.abs(curv).max())
        assert np.all(curv < 0.0)  # concave


def test_mirror_chi_jet_damping_slope_is_dchi_da_ad():
    # dchi_da_ad is in nats
    for gamma in (0.05, 0.3, 0.7, 0.99):
        form = mirror_form(QubitChannel.amplitude_damping(gamma).bloch_map)
        for a in (0.1, 0.4, 0.55, 0.8, 0.97):
            slope = mirror_chi_jet(form, a)[1]
            assert slope == pytest.approx(dchi_da_ad(gamma, a) / math.log(2.0), abs=1e-12)


def test_mirror_chi_jet_pure_and_flat_curves():
    # pure outputs (gamma = 0, p = 0) and flat curves (p = 1, gamma = 1) give
    # finite numbers; a RuntimeWarning would fail the test
    a = np.concatenate([[1e-9, 1e-6], np.linspace(0.01, 0.99, 99), [1 - 1e-6, 1 - 1e-9]])
    for ch in (QubitChannel.amplitude_damping(0.0), QubitChannel.depolarizing(0.0)):
        value, slope, curv = mirror_chi_jet(mirror_form(ch.bloch_map), a)
        assert np.all(np.isfinite(value) & np.isfinite(slope) & np.isfinite(curv))
        # through the identity chi = H(a)
        assert slope[2:-2] == pytest.approx(np.log2((1 - a[2:-2]) / a[2:-2]), abs=1e-9)
    for ch in (QubitChannel.depolarizing(1.0), QubitChannel.amplitude_damping(1.0)):
        value, slope, curv = mirror_chi_jet(mirror_form(ch.bloch_map), a)
        assert np.all(value == 0.0) and np.all(slope == 0.0) and np.all(curv == 0.0)


def test_depolarizing_mirror_family_curve():
    # through the depolarizing channel the a = 1/2 mirror pair is the
    # orthogonal +/- pair: chi = 1 - H(p/2)
    for p in (0.1, 0.4, 0.8):
        ch = QubitChannel.depolarizing(p)
        assert chi_mirror_family(ch, 0.5) == pytest.approx(
            1.0 - oracles.binary_entropy(p / 2.0), abs=1e-12
        )
