"""Shared helpers for the test suite."""

import json
import math

import numpy as np

import capscale.cli as cli


def random_density(rng, dim):
    """Random full-rank density matrix of the given dimension."""
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    rho = rho / rho.trace().real
    return 0.5 * (rho + rho.conj().T)


def haar_unitary(rng):
    """A Haar-random 2x2 unitary."""
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def generalized_damping(gamma, n):
    """Kraus operators of generalized amplitude damping: damping toward |0> with weight n,
    toward |1> with weight 1 - n."""
    r, g = math.sqrt(1.0 - gamma), math.sqrt(gamma)
    ops = ([[1.0, 0.0], [0.0, r]], [[0.0, g], [0.0, 0.0]], [[r, 0.0], [0.0, 1.0]], [[0.0, 0.0], [g, 0.0]])
    return [math.sqrt(w) * np.array(k) for w, k in zip((n, n, 1.0 - n, 1.0 - n), ops)]


def chi_ad_grid(gamma, a):
    """Vectorized reference Holevo curve for damping mirror pairs.

    Straightforward numpy transcription used as an in-test oracle; kept
    independent of the package implementation on purpose.
    """
    a = np.asarray(a, dtype=float)
    s = 4.0 * gamma * (1.0 - gamma) * (1.0 - a) ** 2
    x = np.sqrt(np.maximum(0.0, 1.0 - s))
    lam = s / (2.0 * (1.0 + x))

    def h2(t):
        t = np.clip(t, 0.0, 1.0)
        out = np.zeros_like(t)
        m = (t > 0.0) & (t < 1.0)
        out[m] = -(t[m] * np.log2(t[m]) + (1.0 - t[m]) * np.log2(1.0 - t[m]))
        return out

    return h2(a + (1.0 - a) * gamma) - h2(lam)


def damping_channel_file(tmp_path, gammas, memory) -> str:
    """Write a channel file of amplitude-damping branches; return its path."""
    path = tmp_path / "channel.json"
    branches = [{"type": "amplitude_damping", "gamma": g} for g in gammas]
    path.write_text(json.dumps({"branches": branches, "memory": memory}))
    return str(path)


def kraus_entry(ops):
    """A channel file's kraus branch: each op's entries as [re, im] pairs."""
    return {
        "type": "kraus",
        "ops": [[[[float(z.real), float(z.imag)] for z in row] for row in op] for op in ops],
    }


def run_to_file(tmp_path, argv):
    """Run one capscale command with --output; return its exit code and output."""
    out = tmp_path / "out.txt"
    rc = cli.main(argv + ["--output", str(out)])
    return rc, out.read_text() if out.exists() else ""
