import json

import numpy as np
import pytest

from capscale import (
    MemoryChannel,
    QubitChannel,
    ValidationError,
    kraus_operators,
)
from conftest import random_density
from oracles import (
    OracleError,
    apply_kraus,
    apply_memory_channel_n,
    bloch_vector,
    markov_law,
    periodic_law,
    random_law,
    validate_density_matrix,
)


@pytest.mark.parametrize("gamma", [0.0, 0.1, 0.5, 0.9, 1.0])
def test_ad_kraus_completeness(gamma):
    ops = kraus_operators(QubitChannel.amplitude_damping(gamma))
    total = sum(k.conj().T @ k for k in ops)
    assert np.allclose(total, np.eye(2), atol=1e-15)


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_depolarizing_kraus_completeness(p):
    ops = kraus_operators(QubitChannel.depolarizing(p))
    total = sum(k.conj().T @ k for k in ops)
    assert np.allclose(total, np.eye(2), atol=1e-15)


def test_ad_closed_form_matches_kraus_sum():
    # [[a, b], [b̄, 1-a]] -> [[a + (1-a)γ, b√(1-γ)], [b̄√(1-γ), (1-a)(1-γ)]]
    rng = np.random.default_rng(5)
    for gamma in (0.0, 0.2, 0.7, 1.0):
        ad = QubitChannel.amplitude_damping(gamma)
        for _ in range(20):
            rho = random_density(rng, 2)
            a, b, r = rho[0, 0], rho[0, 1], np.sqrt(1.0 - gamma)
            expect = [[a + (1 - a) * gamma, b * r], [b.conjugate() * r, (1 - a) * (1 - gamma)]]
            assert np.allclose(apply_kraus(kraus_operators(ad), rho), expect, atol=1e-13)


def test_depolarizing_matches_affine_form():
    rng = np.random.default_rng(6)
    for p in (0.0, 0.4, 1.0):
        ch = QubitChannel.depolarizing(p)
        assert np.allclose(ch.bloch_map[0], (1.0 - p) * np.eye(3), atol=1e-15)
        assert np.allclose(ch.bloch_map[1], 0.0, atol=1e-15)
        for _ in range(10):
            rho = random_density(rng, 2)
            expect = (1.0 - p) * rho + p * np.eye(2) / 2.0
            assert np.allclose(apply_kraus(kraus_operators(ch), rho), expect, atol=1e-13)


def test_channel_output_is_density_matrix():
    rng = np.random.default_rng(8)
    for ch in (QubitChannel.amplitude_damping(0.35), QubitChannel.depolarizing(0.6)):
        for _ in range(10):
            validate_density_matrix(apply_kraus(kraus_operators(ch), random_density(rng, 2)), 2)


def test_channel_parameter_validation():
    with pytest.raises(ValidationError):
        QubitChannel.amplitude_damping(-0.1)
    with pytest.raises(ValidationError):
        QubitChannel.amplitude_damping(1.1)
    with pytest.raises(ValidationError):
        QubitChannel.depolarizing(2.0)
    for value in ("0.3", True, None, 10**400):  # the channel-file number rule
        with pytest.raises(ValidationError):
            QubitChannel.amplitude_damping(value)
        with pytest.raises(ValidationError):
            QubitChannel.depolarizing(value)
    with pytest.raises(ValidationError, match="unknown channel kind 'bogus'"):
        QubitChannel(kind="bogus")
    # direct construction follows the factories' rules, with their messages
    direct = [
        (dict(kind="amplitude_damping", gamma=1.5), r"gamma must be in \[0, 1\], got 1.5"),
        (dict(kind="amplitude_damping", gamma=np.nan), r"gamma must be in \[0, 1\], got nan"),
        (dict(kind="amplitude_damping"), "gamma must be a number, got None"),
        (dict(kind="amplitude_damping", gamma="0.3"), "gamma must be a number, got '0.3'"),
        (dict(kind="depolarizing", p=-0.5), r"p must be in \[0, 1\], got -0.5"),
        (dict(kind="depolarizing"), "p must be a number, got None"),
        (dict(kind="kraus", kraus_ops=[np.eye(3)]), "nonempty list of 2x2 operators"),
        (dict(kind="kraus"), "nonempty list of 2x2 operators"),
        (dict(kind="kraus", kraus_ops=5), "kraus ops must be a sequence of 2x2 operators"),
    ]
    for kwargs, message in direct:
        with pytest.raises(ValidationError, match=message):
            QubitChannel(**kwargs)
    # a Kraus op given as a list is an operator, as in the factory
    identity = QubitChannel(kind="kraus", kraus_ops=[[[1, 0], [0, 1]]])
    assert identity.bloch_map[0].tolist() == np.eye(3).tolist()
    assert type(QubitChannel(kind="amplitude_damping", gamma=1).gamma) is float


def test_kraus_factory_checks_completeness():
    # sum K†K != I
    with pytest.raises(ValidationError):
        QubitChannel.kraus([np.eye(2), np.array([[0.0, 0.5], [0.0, 0.0]])])
    with pytest.raises(ValidationError):
        QubitChannel.kraus([np.ones((3, 3))])
    with pytest.raises(ValidationError):
        QubitChannel.kraus([])
    with pytest.raises(ValidationError):
        QubitChannel.kraus([np.array([[np.nan, 0.0], [0.0, 1.0]])])
    # the number rule: strings and bools are not numbers, not even as the identity
    for ops in ([[["1", "0"], ["0", "1"]]], [[[True, 0], [0, True]]], [np.eye(2, dtype=bool)]):
        with pytest.raises(ValidationError, match="must be a number"):
            QubitChannel.kraus(ops)
    # real and complex numbers and numeric arrays are
    for ops in ([[[1, 0], [0, 1.0]]], [[[1j, 0], [0, np.complex64(1j)]]], [np.eye(2, dtype=int)]):
        assert QubitChannel.kraus(ops).bloch_map[0].tolist() == np.eye(3).tolist()


def test_damping_bloch_map_has_the_kraus_route_bits():
    # the closed form adds the Pauli-transfer products in the einsum's order
    gammas = [0.0, 1.0, 2.0**-1074, 1.0 - 2.0**-53]
    gammas += np.random.default_rng(30).uniform(size=500).tolist()
    for gamma in gammas:
        ad = QubitChannel.amplitude_damping(gamma)
        via_kraus = QubitChannel.kraus(kraus_operators(ad)).bloch_map
        for closed, kraus in zip(ad.bloch_map, via_kraus):
            assert (closed.dtype, closed.shape) == (kraus.dtype, kraus.shape)
            assert closed.tobytes() == kraus.tobytes(), gamma


def test_work_ceiling_of_branch_maps(monkeypatch, tmp_path):
    # a damping branch's map is in closed form: no Kraus operators, no
    # einsum, in construction and in whole damping-only commands
    from capscale import channels, cli

    calls = {"kraus_operators": 0, "einsum": 0}

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(channels, "kraus_operators", counted("kraus_operators", kraus_operators))
    for gamma in (0.0, 0.3, 1.0):
        QubitChannel.amplitude_damping(gamma)
    QubitChannel(kind="amplitude_damping", gamma=0.5)
    with monkeypatch.context() as m:
        m.setattr(np, "einsum", counted("einsum", np.einsum))
        QubitChannel.amplitude_damping(0.7)
    assert calls == {"kraus_operators": 0, "einsum": 0}
    branches = [{"type": "amplitude_damping", "gamma": g} for g in (0.1, 0.4, 0.8)]
    for memory, run in (
        ({"kind": "periodic"}, ["capacity"]),
        ({"kind": "random", "q": [0.2, 0.3, 0.5]}, ["capacity"]),
        ({"kind": "periodic"}, ["simulate", "--rate", "0.3,0.6", "--trials", "1000"]),
        ({"kind": "random", "q": [0.2, 0.3, 0.5]}, ["simulate", "--rate", "0.3", "--trials", "1000"]),
    ):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"branches": branches, "memory": memory}))
        out = str(tmp_path / "out")
        assert cli.main([run[0], str(path), *run[1:], "--output", out]) == 0
    assert calls["kraus_operators"] == 0
    # every other kind builds its map from its Kraus operators, once
    QubitChannel.depolarizing(0.3)
    QubitChannel.kraus([np.eye(2)])
    assert calls["kraus_operators"] == 2


def test_channels_compare_and_hash_by_identity():
    # channels hold arrays, so == and hash() go by identity and never raise
    ad = QubitChannel.amplitude_damping(0.3)
    kraus = [QubitChannel.kraus(kraus_operators(ad)) for _ in range(2)]
    memory = [MemoryChannel.random([ad, ad], [0.5, 0.5]) for _ in range(2)]
    for a, b in (kraus, memory):
        assert (a == a) is True and (a == b) is False and (a != b) is True
        assert len({a, a, b}) == 2


def test_bloch_map_matches_channel_action():
    rng = np.random.default_rng(31)
    u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    ad = QubitChannel.amplitude_damping(0.4)
    conj = QubitChannel.kraus([u @ k @ u.conj().T for k in kraus_operators(ad)])
    for ch in (ad, QubitChannel.depolarizing(0.3), conj):
        M, t = ch.bloch_map
        for _ in range(10):
            rho = random_density(rng, 2)
            out = apply_kraus(kraus_operators(ch), rho)
            assert np.allclose(bloch_vector(out), M @ bloch_vector(rho) + t, atol=1e-13)


def test_apply_rejects_bad_states():
    kraus = [kraus_operators(QubitChannel.amplitude_damping(0.5))]
    with pytest.raises(OracleError):
        apply_memory_channel_n(kraus, periodic_law(1), np.eye(2), 1)  # trace 2
    with pytest.raises(OracleError):
        apply_memory_channel_n(kraus, periodic_law(1), np.eye(4) / 4.0, 1)  # wrong dim


def _ad_branches(gammas):
    return [QubitChannel.amplitude_damping(g) for g in gammas]


def _ad_kraus(gammas):
    return [kraus_operators(ch) for ch in _ad_branches(gammas)]


def test_periodic_branch_sequences():
    seqs = periodic_law(3)(2)
    assert seqs == [
        (1.0 / 3.0, (0, 1)),
        (1.0 / 3.0, (1, 2)),
        (1.0 / 3.0, (2, 0)),
    ]


def test_random_branch_sequences():
    assert random_law([0.25, 0.75])(3) == [(0.25, (0, 0, 0)), (0.75, (1, 1, 1))]


def test_markov_branch_sequences_weights():
    Q = np.array([[0.5, 0.5], [0.25, 0.75]])
    lam = np.array([1.0 / 3.0, 2.0 / 3.0])
    weights = dict()
    for w, seq in markov_law(Q, lam)(2):
        weights[seq] = w
    assert weights[(0, 1)] == pytest.approx(lam[0] * Q[0, 1], abs=1e-15)
    assert weights[(1, 1)] == pytest.approx(lam[1] * Q[1, 1], abs=1e-15)
    assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)


def test_memory_channel_validation():
    branches = _ad_branches([0.1, 0.2])
    with pytest.raises(ValidationError):
        MemoryChannel.random(branches, [0.3, 0.3])  # does not sum to 1
    with pytest.raises(ValidationError):
        MemoryChannel.random(branches, [1.2, -0.2])
    with pytest.raises(ValidationError):
        MemoryChannel.random(branches, [1.0])  # wrong length
    with pytest.raises(ValidationError):
        MemoryChannel.random(branches, [np.nan, 0.5])
    # law parameters follow the channel-file number rule
    for q in (["a", "b"], ["0.5", "0.5"], [True, False], [[0.5], [0.5, 0.0]], [[0.5, 0.5]]):
        with pytest.raises(ValidationError):
            MemoryChannel.random(branches, q)
    assert MemoryChannel.random(branches, (np.float32(0.25), 0.75)).q.tolist() == [0.25, 0.75]
    with pytest.raises(ValidationError):
        MemoryChannel.periodic([])
    # branches must be a sequence, as in the reports
    with pytest.raises(ValidationError, match="branches must be a sequence"):
        MemoryChannel.periodic(None)
    with pytest.raises(ValidationError, match="branches must be a sequence"):
        MemoryChannel.random(None, [0.5, 0.5])
    with pytest.raises(ValidationError, match="branches must be QubitChannel instances"):
        MemoryChannel.periodic([0.3])
    with pytest.raises(ValidationError, match="unknown memory kind 'markov'"):
        MemoryChannel(branches=tuple(branches), memory="markov")
    # Kraus branches: not a list, entries that are not numbers, a ragged op
    for ops in (5, None, ["x"], [[[1, 0], [0]]], [{}], [[[10**400, 0], [0, 1]]]):
        with pytest.raises(ValidationError):
            QubitChannel.kraus(ops)


def nested(value, depth):
    """value inside depth levels of one-element lists."""
    for _ in range(depth):
        value = [value]
    return value


def test_over_deep_nesting_is_refused():
    # more than 32 levels (numpy 1.24's most dimensions) is refused before
    # the recursion nears Python's limit, whatever the depth; 32 levels are
    # read, and refused for their shape
    branches = [QubitChannel.amplitude_damping(g) for g in (0.1, 0.4)]
    for depth in (33, 65, 600, 100_000):
        with pytest.raises(ValidationError, match="'q' is nested too deeply"):
            MemoryChannel.random(branches, nested([0.5, 0.5], depth - 1))
        with pytest.raises(ValidationError, match="kraus op is nested too deeply"):
            QubitChannel.kraus([nested(1.0, depth)])
    with pytest.raises(ValidationError, match="one probability per branch"):
        MemoryChannel.random(branches, nested([0.5, 0.5], 31))


def test_apply_memory_channel_n_contract():
    kraus = _ad_kraus([0.1, 0.5])
    rng = np.random.default_rng(13)
    rho = random_density(rng, 4)
    validate_density_matrix(apply_memory_channel_n(kraus, periodic_law(2), rho, 2), 4)
    with pytest.raises(OracleError):
        apply_memory_channel_n(kraus, periodic_law(2), rho, 5)
    with pytest.raises(OracleError):
        apply_memory_channel_n(kraus, periodic_law(2), rho, 1)  # dim mismatch


def test_markov_identity_reduces_to_random():
    kraus = _ad_kraus([0.15, 0.55, 0.8])
    q = np.array([0.5, 0.2, 0.3])
    rng = np.random.default_rng(21)
    for _ in range(5):
        rho = random_density(rng, 4)
        a = apply_memory_channel_n(kraus, random_law(q), rho, 2)
        b = apply_memory_channel_n(kraus, markov_law(np.eye(3), q), rho, 2)
        assert np.abs(a - b).max() < 1e-12


def test_markov_cyclic_shift_reduces_to_periodic():
    kraus = _ad_kraus([0.15, 0.55, 0.8])
    L = len(kraus)
    shift = np.zeros((L, L))
    for i in range(L):
        shift[i, (i + 1) % L] = 1.0
    rng = np.random.default_rng(22)
    for _ in range(5):
        rho = random_density(rng, 4)
        a = apply_memory_channel_n(kraus, periodic_law(L), rho, 2)
        b = apply_memory_channel_n(kraus, markov_law(shift, np.full(L, 1.0 / L)), rho, 2)
        assert np.abs(a - b).max() < 1e-12
