"""The benchmark's workloads: seeded channel files, CLI arguments and checks.

Every op in a workload has the same size, so a run's median is one op's
cost rather than a point between size clusters. Op ``k`` of a run is a
pure function of ``(workload, seed, k)``; no two ops of one run share an
input, so a cache that outlives a single command cannot show a gain that a
user running one command per process would never see.

Damping-only workloads draw their channels from a fixed pool whose outputs
were recorded at the seed commit (``reference/<name>.json``); the run seed
picks a permutation of the pool. ``periodic-generic`` has closed-form
truths and draws fresh channels from the seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checker

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Op:
    argv: tuple  # CLI arguments before the channel file and output options
    channel: dict
    meta: dict = field(default_factory=dict)
    known_defect: bool = False  # fails at the seed commit (generic path, ROADMAP B)


def _ad(gamma):
    return {"type": "amplitude_damping", "gamma": float(gamma)}


def _kraus_json(mats):
    return [[[[float(z.real), float(z.imag)] for z in row] for row in m] for m in mats]


def _haar_unitary(rng):
    z = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _rz(theta):
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def _conjugated_damping(gamma, u):
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]])
    k1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]])
    return [u @ k @ u.conj().T for k in (k0, k1)]


class Workload:
    name = ""
    trace_ops = 6  # ops in each pass of a traced run
    op_s = 0.0  # seconds per op on a host whose calibration kernel takes 5 ms

    def op(self, seed: int, k: int) -> Op:
        raise NotImplementedError

    def max_ops(self) -> int:
        """Number of distinct ops a run can draw, set-up warm-ups included."""
        raise NotImplementedError

    def check(self, op: Op, out) -> list[str]:
        raise NotImplementedError

    def defect_check(self, op: Op, out) -> list[str]:
        """Problems that a known-defect op's output must not have even so."""
        return self.check(op, out)


class PooledWorkload(Workload):
    """Channels come from a fixed pool with outputs recorded at the seed commit."""

    pool_key = 0
    pool_size = 0

    def __init__(self):
        self._reference = None

    def pool_entry(self, i: int) -> Op:
        raise NotImplementedError

    def op(self, seed, k):
        perm = np.random.default_rng([self.pool_key, int(seed)]).permutation(self.pool_size)
        return self.pool_entry(int(perm[k]))

    def max_ops(self):
        return self.pool_size

    def check(self, op, out):
        return self.check_entry(op, out, self.reference()[op.meta["pool"]])

    def reference_entry(self, out):
        """The part of an output that is recorded as the pool entry's reference."""
        raise NotImplementedError

    def check_entry(self, op, out, ref) -> list[str]:
        """Check an output against one recorded pool entry."""
        raise NotImplementedError

    def reference(self):
        if self._reference is None:
            with open(REFERENCE_DIR / f"{self.name}.json", encoding="utf-8") as f:
                data = json.load(f)
            if data["pool_size"] != self.pool_size or data["pool_key"] != self.pool_key:
                raise ValueError(f"reference for {self.name} was recorded for another pool")
            self._reference = data["entries"]
        return self._reference


class PeriodicDamping(PooledWorkload):
    """`capacity` on L = 10 damping branches: the subset sweep does the work."""

    name = "periodic-damping"
    op_s = 0.5
    pool_key = 0x5EED_0010
    pool_size = 512
    n_branches = 10

    def pool_entry(self, i):
        rng = np.random.default_rng([self.pool_key, 1, i])
        gammas = rng.uniform(0.05, 0.95, self.n_branches)
        channel = {"branches": [_ad(g) for g in gammas], "memory": {"kind": "periodic"}}
        return Op(("capacity",), channel, {"pool": i})

    def reference_entry(self, out):
        return {
            "cp": out["cp"],
            "cbar": out["cbar"],
            "chi_star": [s["chi_star"] for s in out["per_branch_suprema"]],
            "scale": [
                [e["value_bits"], e["best_subset"]]
                for _, e in sorted(out["scale"].items(), key=lambda kv: int(kv[0]))
            ],
        }

    def check_entry(self, op, out, ref):
        return checker.check_damping(out, ref)


class RandomSimulate(PooledWorkload):
    """`simulate` at three rates on L = 6 damping branches with random memory."""

    name = "random-simulate"
    op_s = 0.39
    pool_key = 0x5EED_0006
    pool_size = 512
    n_branches = 6
    n_trials = 1_000_000

    def pool_entry(self, i):
        rng = np.random.default_rng([self.pool_key, 1, i])
        gammas = rng.uniform(0.05, 0.95, self.n_branches)
        q = rng.dirichlet(np.ones(self.n_branches))
        q = q / q.sum()
        # A grid maximum is below the true best branch capacity, so every rate
        # is achieved by some subset and every row runs its trials.
        top = float(checker.chi_ad(gammas.min(), np.linspace(0.0, 1.0, 1001)).max())
        rates = np.sort(rng.uniform(0.01, 0.95 * top, 3))
        sim_seed = 3 * i
        channel = {
            "branches": [_ad(g) for g in gammas],
            "memory": {"kind": "random", "q": [float(x) for x in q]},
        }
        argv = (
            "simulate",
            "--rate",
            ",".join(repr(float(r)) for r in rates),
            "--trials",
            str(self.n_trials),
            "--seed",
            str(sim_seed),
        )
        return Op(argv, channel, {"pool": i, "rates": [float(r) for r in rates], "seed": sim_seed})

    def reference_entry(self, out):
        return [{k: row[k] for k in ("subset", "q_subset", "theoretical_error")} for row in out]

    def check_entry(self, op, out, ref):
        return checker.check_simulate(out, op.meta["rates"], self.n_trials, op.meta["seed"], ref)


class PeriodicGeneric(Workload):
    """`capacity` on [depolarizing, U AD U†]: the generic Holevo path does the work.

    U is Rz for even k and Haar-random for odd k. The seed's generic path
    only searches mirror pairs about z, so it gets the Haar ops wrong
    (ROADMAP item B); those are counted as failed ops. Their values must
    still be finite and no greater than the truth, and the command must
    still exit 0 with a readable report.
    """

    name = "periodic-generic"
    op_s = 0.54

    def op(self, seed, k):
        rng = np.random.default_rng([0x5EED_0002, int(seed), k])
        p = float(rng.uniform(0.05, 0.6))
        gamma = float(rng.uniform(0.1, 0.9))
        haar = k % 2 == 1
        u = _haar_unitary(rng) if haar else _rz(rng.uniform(0.0, 2.0 * math.pi))
        channel = {
            "branches": [
                {"type": "depolarizing", "p": p},
                {"type": "kraus", "ops": _kraus_json(_conjugated_damping(gamma, u))},
            ],
            "memory": {"kind": "periodic"},
        }
        return Op(("capacity",), channel, {"p": p, "gamma": gamma}, known_defect=haar)

    def max_ops(self):
        return 1_000_000

    def check(self, op, out):
        return checker.check_generic(out, op.meta["p"], op.meta["gamma"])

    def defect_check(self, op, out):
        return checker.check_generic_bound(out, op.meta["p"], op.meta["gamma"])


WORKLOADS = {w.name: w for w in (PeriodicDamping(), PeriodicGeneric(), RandomSimulate())}
