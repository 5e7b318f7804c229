"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checker  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

CLI = run.import_capscale_cli()
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    wl = workloads.WORKLOADS[name]
    first = [wl.op(11, k) for k in range(40)]
    again = [type(wl)().op(11, k) for k in range(40)]
    other = [wl.op(12, k) for k in range(40)]
    assert first == again
    assert first != other
    # no two ops of a run share an input
    inputs = {(op.argv, json.dumps(op.channel)) for op in first}
    assert len(inputs) == len(first)


def test_generic_ops_alternate_rz_and_haar():
    wl = workloads.WORKLOADS["periodic-generic"]
    assert [wl.op(3, k).known_defect for k in range(4)] == [False, True, False, True]


def _ran(tmp_path, name, k):
    wl = workloads.WORKLOADS[name]
    op = wl.op(5, k)
    rc, _, out = run.run_op(CLI, op, tmp_path, f"op{k}")
    assert rc == 0
    return wl, op, out


def _checked(wl, op, rc, out):
    return run.check_ops(wl, [run.OpRecord(op, rc, out, 0.0, 0.0)])


def _perturb(path, edit):
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))


def test_correct_generic_output_passes_and_perturbed_fails(tmp_path):
    wl, op, out = _ran(tmp_path, "periodic-generic", 4)  # Rz conjugation
    assert not op.known_defect
    assert _checked(wl, op, 0, out) == (0, 0)
    _perturb(out, lambda o: o.update(cp=o["cp"] + 1e-6))
    assert _checked(wl, op, 0, out) == (1, 1)


def test_reformatted_output_still_passes(tmp_path):
    wl, op, out = _ran(tmp_path, "periodic-generic", 2)
    out.write_text(json.dumps(json.loads(out.read_text()), sort_keys=True, indent=None))
    assert _checked(wl, op, 0, out) == (0, 0)


def test_perturbed_damping_subset_fails():
    wl = workloads.WORKLOADS["periodic-damping"]
    ref = wl.reference()[7]
    out = {
        "cp": ref["cp"],
        "cbar": ref["cbar"],
        "scale": {
            str(r + 1): {"value_bits": v, "best_subset": s} for r, (v, s) in enumerate(ref["scale"])
        },
        "per_branch_suprema": [{"a_max": 0.5, "chi_star": c} for c in ref["chi_star"]],
    }
    op = workloads.Op(("capacity",), {}, {"pool": 7})
    assert wl.check(op, out) == []
    out["scale"]["3"]["best_subset"] = list(reversed(out["scale"]["3"]["best_subset"]))
    assert wl.check(op, out) != []


def test_empirical_error_outside_binomial_band_fails():
    rows = [{"rate_bits": 0.1, "subset": [0], "q_subset": 0.5, "theoretical_error": 0.5,
             "empirical_error": 0.5004, "n_trials": 10_000, "seed": 0}]
    ref = [{"subset": [0], "q_subset": 0.5, "theoretical_error": 0.5}]
    assert checker.check_simulate(rows, [0.1], 10_000, 0, ref) == []
    rows[0]["empirical_error"] = 0.5 + 6 * 0.005
    assert checker.check_simulate(rows, [0.1], 10_000, 0, ref) != []


def test_crashed_or_failed_exit_counts_as_failed(tmp_path):
    wl = workloads.WORKLOADS["periodic-generic"]
    op = wl.op(5, 0)
    assert _checked(wl, op, 3, tmp_path / "missing.json") == (1, 1)


def test_known_defect_excuses_only_values_below_the_truth(tmp_path):
    wl, op, out = _ran(tmp_path, "periodic-generic", 1)  # Haar conjugation
    assert op.known_defect
    assert _checked(wl, op, 0, out) == (1, 0)  # the seed's values fall short
    assert _checked(wl, op, 2, out) == (1, 1)  # a nonzero exit is never excused
    assert _checked(wl, op, 0, tmp_path / "missing.json") == (1, 1)
    truth = checker.generic_truth(op.meta["p"], op.meta["gamma"])
    _perturb(out, lambda o: o.update(cp=truth["cp"] + 1e-6))
    assert _checked(wl, op, 0, out) == (1, 1)  # above the truth
    _perturb(out, lambda o: o.update(cp=float("nan")))
    assert _checked(wl, op, 0, out) == (1, 1)
    _perturb(out, lambda o: o.pop("scale"))
    assert _checked(wl, op, 0, out) == (1, 1)  # malformed


def test_tracer_reports_missing_boundary_as_absent_and_restores(tmp_path):
    import capscale.holevo as holevo
    import capscale.optim as optim

    original = optim.chi_ad_mirror
    bounds = tracer.BOUNDARIES + (("holevo", "renamed_away", tracer.LEAF),)
    wl = workloads.WORKLOADS["random-simulate"]
    with tracer.Tracer(boundaries=bounds) as t:
        assert optim.chi_ad_mirror is not original
        rc, _, _ = run.run_op(CLI, wl.op(5, 3), tmp_path, "traced")
    assert rc == 0
    assert optim.chi_ad_mirror is original and holevo.chi_ad_mirror is original
    assert t.absent == ["holevo.renamed_away"]
    m = t.layer_metrics()
    assert m["holevo.renamed_away.calls"] == (0, "count")
    assert m["scales.maximizations"][0] == 483
    assert m["scales.distinct_max_frac"][0] == pytest.approx(69 / 483)
    assert m["simulate.draws"][0] == 3 * wl.n_trials


def test_tracer_survives_a_module_without_the_boundary(monkeypatch):
    fake = types.ModuleType("capscale.fakemod")
    monkeypatch.setitem(sys.modules, "capscale.fakemod", fake)
    with tracer.Tracer(boundaries=(("fakemod", "gone", tracer.SPAN),)) as t:
        pass
    assert t.absent == ["fakemod.gone"]


def test_benchmark_json_lists_every_reported_metric():
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    with tracer.Tracer() as t:
        pass
    reported = set(t.layer_metrics()) | {"cli.output_bytes", "trace.overhead_frac"}
    assert per_layer == reported
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_timed_runs_have_a_fixed_even_op_count(name):
    wl = workloads.WORKLOADS[name]
    n = run.planned_ops(wl, BENCHMARK["run_seconds"])
    assert n >= 2 and n % 2 == 0
    assert run.planned_ops(wl, BENCHMARK["run_seconds"]) == n
    for seconds in ("1e6", "0"):
        with pytest.raises(SystemExit):
            run.parse_args(["--workload", name, "--seed", "1", "--seconds", seconds])


def test_capped_run_stops_after_a_whole_pair(tmp_path):
    wl = workloads.WORKLOADS["periodic-generic"]
    ops = [wl.op(5, k) for k in range(7, 11)]
    records = run.run_ops(CLI, ops, tmp_path, "capped", cap_s=1e-9)
    assert [r.op.known_defect for r in records] == [True, False]
