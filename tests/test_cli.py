import argparse
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import capscale.cli as cli
import oracles
from capscale import NumericalError, per_branch_suprema
from conftest import damping_channel_file, kraus_entry, run_to_file


PER4 = {
    "branches": [
        {"type": "amplitude_damping", "gamma": 0.0},
        {"type": "amplitude_damping", "gamma": 0.2},
        {"type": "amplitude_damping", "gamma": 0.4},
        {"type": "amplitude_damping", "gamma": 0.6},
    ],
    "memory": {"kind": "periodic"},
}

RAND3 = {
    "branches": [
        {"type": "amplitude_damping", "gamma": 0.1},
        {"type": "amplitude_damping", "gamma": 0.4},
        {"type": "amplitude_damping", "gamma": 0.7},
    ],
    "memory": {"kind": "random", "q": [0.5, 0.3, 0.2]},
}

MARKOV2 = {
    "branches": [
        {"type": "amplitude_damping", "gamma": 0.1},
        {"type": "amplitude_damping", "gamma": 0.4},
    ],
    "memory": {"kind": "markov", "Q": [[1.0, 0.0], [0.0, 1.0]], "lambda": [0.5, 0.5]},
}


@pytest.fixture
def channel_files(tmp_path):
    paths = {}
    for name, cfg in (("per4", PER4), ("rand3", RAND3), ("markov2", MARKOV2)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(cfg))
        paths[name] = str(p)
    return paths


def test_chi_command_csv(channel_files, tmp_path):
    rc, text = run_to_file(tmp_path, ["chi", channel_files["per4"]])
    assert rc == 0
    lines = text.splitlines()
    assert lines[0] == "branch,kind,param,a_max,chi_star"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[:3] == ["0", "amplitude_damping", "0"]
    assert float(first[4]) == pytest.approx(1.0, abs=1e-6)
    assert "\r" not in text and text.endswith("\n")


def test_chi_command_deterministic_bytes(channel_files, tmp_path):
    _, a = run_to_file(tmp_path, ["chi", channel_files["per4"]])
    _, b = run_to_file(tmp_path, ["chi", channel_files["per4"]])
    assert a == b


def test_chi_command_json(channel_files, tmp_path):
    rc, text = run_to_file(tmp_path, ["chi", channel_files["rand3"], "--format", "json"])
    assert rc == 0
    rows = json.loads(text)
    assert [r["branch"] for r in rows] == [0, 1, 2]
    assert rows[1]["param"] == 0.4
    assert rows[1]["chi_star"] == pytest.approx(0.552956706463, abs=1e-9)


def conjugated_damping(gamma, u):
    """Kraus operators of U AD(gamma) U†."""
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]])
    k1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]])
    return [u @ k @ u.conj().T for k in (k0, k1)]


X = np.array([[0.0, 1.0], [1.0, 0.0]])
H = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)

# damping, depolarizing, X·AD·X and H·AD·H: every branch kind
MIXED4 = {
    "branches": [
        {"type": "amplitude_damping", "gamma": 0.3},
        {"type": "depolarizing", "p": 0.2},
        kraus_entry(conjugated_damping(0.3, X)),
        kraus_entry(conjugated_damping(0.5, H)),
    ],
    "memory": {"kind": "periodic"},
}


def printed(x):
    """x as the CLI prints it, at 12 significant digits."""
    return float(f"{x:.12g}")


def test_amax_command(tmp_path):
    path = tmp_path / "mixed4.json"
    path.write_text(json.dumps(MIXED4))
    rc, text = run_to_file(tmp_path, ["amax", str(path)])
    assert rc == 0
    header, *rows = [line.split(",") for line in text.splitlines()]
    assert header == "branch,kind,param,a_max,bracket_lo,bracket_hi,slope".split(",")
    assert [row[:3] for row in rows] == [
        ["0", "amplitude_damping", "0.3"], ["1", "depolarizing", "0.2"], ["2", "kraus", ""],
        ["3", "kraus", ""],
    ]
    a_max, lo, hi, slope = np.array([[float(x) for x in row[3:]] for row in rows]).T
    assert np.all((lo <= a_max) & (a_max <= hi) & (hi - lo < 1e-8))
    assert np.abs(slope).max() < 1e-8
    # X·AD·X is damping at 1 - a; depolarizing curves peak at 1/2
    assert abs(a_max[2] - (1.0 - a_max[0])) <= 1e-8 / 4
    assert a_max[1] == 0.5
    # the a_max column is the one that chi (and every report) prints
    rc, chi_text = run_to_file(tmp_path, ["chi", str(path)])
    assert rc == 0
    assert [line.split(",")[3] for line in chi_text.splitlines()[1:]] == [row[3] for row in rows]


def test_amax_bracket_holds_the_root_at_every_tol(tmp_path):
    # the printed bracket is the search's own: it holds a_max and the true
    # maximizer, a 40-digit root (1/2 at gamma 0), and is narrower than tol.
    # The root may lie outside by the rounding of the slopes, under 1e-14.
    gammas = (0.0, 0.05, 0.3, 0.5, 0.73, 0.86, 0.95, 0.97522, 0.99, 0.99186, 0.999)
    true = np.array([0.5] + [oracles.damping_argmax(g) for g in gammas[1:]])
    path = damping_channel_file(tmp_path, gammas, {"kind": "periodic"})
    for tol in (1e-12, 1e-8, 1e-4, 1e-2):
        sups = per_branch_suprema(gammas, tol)
        a_max = np.array([s.a_max for s in sups])
        lo, hi = np.array([s.bracket for s in sups]).T
        assert np.all((lo - 1e-14 <= true) & (true <= hi + 1e-14))
        assert np.all(hi - lo < tol)
        assert np.all((lo <= a_max) & (a_max <= hi))
        rc, text = run_to_file(tmp_path, ["amax", path, "--tol", repr(tol), "--format", "json"])
        assert rc == 0
        assert json.loads(text) == [
            {"branch": i, "kind": "amplitude_damping", "param": g, "a_max": printed(s.a_max),
             "bracket_lo": printed(s.bracket[0]), "bracket_hi": printed(s.bracket[1]),
             "slope": printed(s.slope)}
            for i, (g, s) in enumerate(zip(gammas, sups))
        ]


def test_amax_within_tol_at_default_tol(tmp_path):
    # the printed a_max is within a quarter of the default tol of the true
    # maximizer, a 40-digit root, even where the curve is flat to rounding
    # over a wider stretch of a; 0.97522 and 0.99186 were once 1.9e-8 and
    # 2.1e-8 off, past tol. The printed bracket holds both, up to the
    # 12-digit print.
    gammas = (0.05, 0.3, 0.5, 0.73, 0.86, 0.95, 0.97522, 0.99, 0.99186, 0.999)
    path = damping_channel_file(tmp_path, gammas, {"kind": "periodic"})
    rc, text = run_to_file(tmp_path, ["amax", path, "--format", "json"])
    assert rc == 0
    rows = json.loads(text)
    assert [r["param"] for r in rows] == list(gammas)
    for r in rows:
        true = oracles.damping_argmax(r["param"])
        assert abs(r["a_max"] - true) <= 1e-8 / 4
        for x in (r["a_max"], true):
            assert r["bracket_lo"] - 1e-12 <= x <= r["bracket_hi"] + 1e-12
        assert r["bracket_hi"] - r["bracket_lo"] < 1e-8


def test_capacity_periodic_json(channel_files, tmp_path):
    rc, text = run_to_file(
        tmp_path, ["capacity", channel_files["per4"], "--format", "json"]
    )
    assert rc == 0
    obj = json.loads(text)
    assert obj["cp"] == pytest.approx(0.665575317989, abs=1e-9)
    assert obj["cbar"] == pytest.approx(0.669154882682, abs=1e-9)
    assert obj["scale"]["4"]["best_subset"] == [0, 1, 2, 3]
    assert len(obj["per_branch_suprema"]) == 4


def test_capacity_random_memory(channel_files, tmp_path):
    rc, text = run_to_file(tmp_path, ["capacity", channel_files["rand3"]])
    assert rc == 0
    lines = text.splitlines()
    assert lines[0] == "delta,q_delta,c_delta_bits,cbar_delta_bits"
    assert len(lines) == 2
    delta, q, c, cbar = lines[1].split(",")
    assert delta == "0;1;2" and q == "1"
    assert float(c) == pytest.approx(0.311386291475, abs=1e-9)
    assert float(cbar) == pytest.approx(0.840496506564, abs=1e-9)


def test_scale_command_full_and_single(channel_files, tmp_path):
    rc, full = run_to_file(tmp_path, ["scale", channel_files["per4"]])
    assert rc == 0
    assert full.splitlines()[0] == "r,value_bits,subset,error_threshold"
    assert len(full.splitlines()) == 5

    rc, single = run_to_file(tmp_path, ["scale", channel_files["per4"], "--r", "2"])
    assert rc == 0
    assert single.splitlines()[1] == full.splitlines()[2]

    rc, js = run_to_file(
        tmp_path, ["scale", channel_files["per4"], "--r", "2", "--format", "json"]
    )
    obj = json.loads(js)
    assert obj["best_subset"] == [0, 1]
    assert obj["error_threshold"] == 0.5


def test_staircase_matches_scale_table(channel_files, tmp_path):
    _, scale_text = run_to_file(tmp_path, ["scale", channel_files["per4"]])
    _, stair_text = run_to_file(tmp_path, ["staircase", channel_files["per4"]])
    assert scale_text == stair_text


def test_random_scale_command(channel_files, tmp_path):
    rc, text = run_to_file(tmp_path, ["random-scale", channel_files["rand3"]])
    assert rc == 0
    lines = text.splitlines()
    assert len(lines) == 8  # header + 7 subsets, size-major, then lexicographic
    deltas = [line.split(",")[0] for line in lines[1:]]
    assert deltas == ["0", "1", "2", "0;1", "0;2", "1;2", "0;1;2"]

    rc, text = run_to_file(
        tmp_path, ["random-scale", channel_files["rand3"], "--delta", "0,2"]
    )
    assert rc == 0
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("0;2,0.7,")


def test_random_memory_at_the_subset_enumeration_cap(tmp_path, capsys):
    gammas = [round(0.05 + 0.07 * i, 2) for i in range(13)]
    path = damping_channel_file(tmp_path, gammas, {"kind": "random", "q": [0.04] * 12 + [0.52]})
    # the full table and the staircase enumerate every subset of 13 branches
    for argv in (["random-scale", path], ["simulate", path, "--rate", "0.5"]):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: subset enumeration limited to 12 branches\n"
        assert captured.out == ""
    # a single subset needs only its own pairs, whatever the branch count
    header = "delta,q_delta,c_delta_bits,cbar_delta_bits\n"
    expect = [
        (
            ["random-scale", "--delta", "0,5,12"],
            header + "0;5;12,0.6,0.142505900734,0.906947747394\n",
        ),
        (["capacity"], header + "0;1;2;3;4;5;6;7;8;9;10;11;12,1,0.142505900734,0.906947747394\n"),
        (
            ["simulate", "--rate", "0.5", "--subset", "0,1", "--trials", "1000", "--seed", "7"],
            "rate_bits,subset,q_subset,theoretical_error,empirical_error,n_trials,seed\n"
            "0.5,0;1,0.08,0.92,0.934,1000,7\n",
        ),
    ]
    for argv, text in expect:
        assert run_to_file(tmp_path, [argv[0], path, *argv[1:]]) == (0, text)


def test_ad_gap_table(channel_files, tmp_path):
    rc, text = run_to_file(tmp_path, ["ad-gap", "--grid", "5"])
    assert rc == 0
    lines = text.splitlines()
    assert lines[0] == "gamma0,gamma1,a_max_joint,c_p,a_max_0,a_max_1,chi_star_avg,gap"
    assert len(lines) == 26
    for line in lines[1:]:
        g0, g1, _, cp, _, _, avg, gap = (float(t) for t in line.split(","))
        assert gap >= -1e-9
        assert gap == pytest.approx(avg - cp, abs=1e-11)
        if g0 == g1 or g0 == 1.0 or g1 == 1.0:
            assert abs(gap) <= 1e-7
        else:
            assert gap > 1e-6


def test_ad_gap_against_40_digit_reference(tmp_path):
    # both terms of gap = chi_star_avg - c_p are known to about 4e-16, so the
    # gap is printed rounded to 1e-15, and then to 12 significant digits: no
    # printed digit lies below 1e-15, and every gap is within a unit of its
    # 40-digit value (its 12th digit's rounding aside)
    rc, text = run_to_file(tmp_path, ["ad-gap", "--grid", "11"])
    assert rc == 0
    lines = text.splitlines()[1:]
    assert len(lines) == 121
    for line in lines:
        g0, g1, *_, gap = map(float, line.split(","))
        assert gap == round(gap, 15)
        assert abs(gap - oracles.damping_pair_gap(g0, g1)) <= 1e-15 + 5e-12 * abs(gap)


def test_ad_gap_grid_is_capped(monkeypatch, capsys):
    # a grid outside [2, MAX_GRID] is refused before any gamma or subset is built
    monkeypatch.setattr(cli.np, "linspace", None)
    for grid in (1, cli.MAX_GRID + 1, 10**6):
        assert cli.main(["ad-gap", "--grid", str(grid)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: grid must be in [2, 401], got {grid}\n"


def test_simulate_command_staircase(channel_files, tmp_path):
    rc, text = run_to_file(
        tmp_path,
        ["simulate", channel_files["per4"], "--rate", "0.3,0.7", "--trials", "500", "--seed", "3"],
    )
    assert rc == 0
    lines = text.splitlines()
    assert lines[1] == "0.3,0;1;2;3,1,0,0,500,3"
    assert lines[2] == "0.7,,0,1,1,500,4"


def test_simulate_command_fixed_subset(channel_files, tmp_path):
    rc, text = run_to_file(
        tmp_path,
        [
            "simulate",
            channel_files["rand3"],
            "--rate",
            "0.6",
            "--subset",
            "0",
            "--trials",
            "2000",
            "--seed",
            "11",
        ],
    )
    assert rc == 0
    row = text.splitlines()[1].split(",")
    assert row[1] == "0" and row[2] == "0.5"
    assert float(row[3]) == pytest.approx(0.5, abs=1e-12)
    assert abs(float(row[4]) - 0.5) < 0.05


def test_simulate_subset_needs_single_rate(channel_files, tmp_path, capsys):
    rc, _ = run_to_file(
        tmp_path,
        ["simulate", channel_files["per4"], "--rate", "0.3,0.5", "--subset", "0,1"],
    )
    assert rc == 2
    assert capsys.readouterr().err == "error: --subset requires exactly one rate\n"


def test_exit_code_on_bad_inputs(channel_files, tmp_path, capsys):
    assert cli.main(["capacity", str(tmp_path / "missing.json")]) == 2
    assert cli.main(["capacity", channel_files["markov2"]]) == 2
    assert cli.main(["scale", channel_files["rand3"]]) == 2
    assert cli.main(["random-scale", channel_files["per4"]]) == 2
    assert cli.main(["chi", channel_files["per4"], "--tol", "1.0"]) == 2
    assert cli.main(["random-scale", channel_files["rand3"], "--delta", "0,9"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["chi", str(bad)]) == 2
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe" + json.dumps(PER4).encode("utf-16-le"))
    assert cli.main(["chi", str(utf16)]) == 2
    gamma_one = tmp_path / "g1.json"
    gamma_one.write_text(
        json.dumps(
            {
                "branches": [{"type": "amplitude_damping", "gamma": 1.0}],
                "memory": {"kind": "periodic"},
            }
        )
    )
    assert cli.main(["amax", str(gamma_one)]) == 2
    # the channel file is read before --tol is checked
    top_list = tmp_path / "list.json"
    top_list.write_text("[]")
    capsys.readouterr()
    assert cli.main(["chi", str(top_list), "--tol", "1.0"]) == 2
    assert capsys.readouterr().err == "error: channel file must contain a JSON object\n"
    # an empty field of a comma list is refused, not dropped; spaces around a field are not
    rand3, per4 = channel_files["rand3"], channel_files["per4"]
    for argv in (
        ["random-scale", rand3, "--delta", "0,,2"],
        ["simulate", rand3, "--rate", "0.3", "--subset", "1,"],
        ["simulate", per4, "--rate", "0.3,,0.6"],
        ["simulate", per4, "--rate", ""],
    ):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "must be comma-separated" in err and err.endswith(f": {argv[-1]!r}\n")
    assert cli.main(["random-scale", rand3, "--delta", " 0 , 2 "]) == 0
    assert cli.main(["simulate", per4, "--rate", " 0.3 , 0.6 ", "--trials", "10"]) == 0
    # a refusal raised while a branch is built names the branch
    incomplete = [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], [[[1.0, 0.0], [0.0, 0.0]]] * 2]
    for branch, message in (
        ({"type": "amplitude_damping", "gamma": 1.5}, "gamma must be in [0, 1], got 1.5"),
        ({"type": "depolarizing", "p": -0.1}, "p must be in [0, 1], got -0.1"),
        ({"type": "amplitude_damping", "gamma": "abc"}, "gamma must be a number, got 'abc'"),
        ({"type": "depolarizing", "p": None}, "p must be a number, got None"),
        ({"type": "amplitude_damping", "gamma": HUGE}, "gamma is too large for a float"),
        (
            {"type": "kraus", "ops": incomplete},
            "Kraus completeness violated: |sum K†K - I| = 2.000e+00",
        ),
    ):
        bad.write_text(json.dumps({"branches": [AD2[0], branch], "memory": PERIODIC}))
        assert cli.main(["chi", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: branch 1: {message}\n"


NAN = float("nan")
HUGE = 10**400  # a JSON integer past the float range
AD2 = PER4["branches"][:2]


PERIODIC = {"kind": "periodic"}


def channel(branches, memory):
    return {"branches": branches, "memory": memory}


def kraus(*ops):
    return channel([{"type": "kraus", "ops": list(ops)}], PERIODIC)


@pytest.mark.parametrize(
    "config, argv",
    [
        (channel(AD2, {"kind": "random", "q": [NAN, 0.5]}), ["capacity"]),
        (kraus([[[NAN, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]), ["chi"]),
        (channel(AD2, PERIODIC), ["chi", "--tol", "nan"]),
        (channel(AD2, PERIODIC), ["simulate", "--rate", "nan"]),
        (channel(AD2, PERIODIC), ["simulate", "--rate", "0.3", "--seed", "-1"]),
        (channel(AD2, PERIODIC), ["simulate", "--rate", "0.3", "--trials", str(10**30)]),
        (channel([{"type": "amplitude_damping", "gamma": "abc"}], PERIODIC), ["chi"]),
        (channel([{"type": "depolarizing", "p": None}], PERIODIC), ["capacity"]),
        (kraus([[["a", 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]), ["chi"]),
        (kraus([[[1.0, 0.0], [0.0]], [[0.0, 0.0], [1.0, 0.0]]]), ["capacity"]),
        (channel([{"type": "amplitude_damping", "gamma": True}], PERIODIC), ["chi"]),
        (channel(AD2, {"kind": "random", "q": [True, False]}), ["capacity"]),
        (channel([{"type": "amplitude_damping", "gamma": HUGE}], PERIODIC), ["chi"]),
        (channel([{"type": "depolarizing", "p": -HUGE}], PERIODIC), ["chi"]),
        (channel(AD2, {"kind": "random", "q": [HUGE, 0.5]}), ["capacity"]),
        (kraus([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [HUGE, 0.0]]]), ["chi"]),
        (channel([{"type": ["amplitude_damping"], "gamma": 0.3}], PERIODIC), ["chi"]),
        (channel([{"type": {"kind": "depolarizing"}, "p": 0.3}], PERIODIC), ["chi"]),
        # the structure of the file
        (AD2, ["chi"]),
        ({"memory": PERIODIC}, ["chi"]),
        (channel([], PERIODIC), ["capacity"]),
        (channel({"0": AD2[0]}, PERIODIC), ["chi"]),
        (channel([3], PERIODIC), ["chi"]),
        (channel([{"gamma": 0.3}], PERIODIC), ["chi"]),
        (channel([{"type": "amplitude_damping"}], PERIODIC), ["chi"]),
        (channel([{"type": "erasure", "p": 0.1}], PERIODIC), ["chi"]),
        (channel([{"type": "kraus"}], PERIODIC), ["chi"]),
        (kraus(), ["chi"]),
        (kraus([[[1.0, 0.0]] * 3] * 3), ["chi"]),
        (kraus([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]), ["chi"]),
        ({"branches": AD2}, ["capacity"]),
        (channel(AD2, ["periodic"]), ["capacity"]),
        (channel(AD2, {"q": [0.5, 0.5]}), ["capacity"]),
        (channel(AD2, {"kind": ["periodic"]}), ["capacity"]),
        (channel(AD2, {"kind": "random"}), ["capacity"]),
        (channel(AD2, {"kind": "random", "q": [1.0]}), ["capacity"]),
        (channel([{"type": "depolarizing", "p": 1.0}], PERIODIC), ["amax"]),
    ],
    ids=[
        "q-nan",
        "kraus-nan",
        "tol-nan",
        "rate-nan",
        "seed-negative",
        "trials-past-budget",
        "gamma-string",
        "p-null",
        "kraus-string",
        "kraus-ragged",
        "gamma-bool",
        "q-bool",
        "gamma-overflow",
        "p-overflow",
        "q-overflow",
        "kraus-overflow",
        "type-list",
        "type-object",
        "top-level-list",
        "branches-missing",
        "branches-empty",
        "branches-object",
        "branch-number",
        "branch-type-missing",
        "gamma-missing",
        "type-unknown",
        "kraus-ops-missing",
        "kraus-ops-empty",
        "kraus-3x3",
        "kraus-incomplete",
        "memory-missing",
        "memory-list",
        "memory-kind-missing",
        "memory-kind-list",
        "q-missing",
        "q-wrong-length",
        "amax-depolarizing",
    ],
)
def test_exit_code_on_non_finite_or_out_of_range_input(tmp_path, capsys, config, argv):
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(config))
    assert cli.main([argv[0], str(path)] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


DEPHASING = {  # Kraus operators sqrt(0.9) I and sqrt(0.1) Z
    "type": "kraus",
    "ops": [
        [[[0.9**0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.9**0.5, 0.0]]],
        [[[0.1**0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-(0.1**0.5), 0.0]]],
    ],
}
COMPLETE_DEPHASING = {
    "type": "kraus",
    "ops": [
        [[[0.5**0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5**0.5, 0.0]]],
        [[[0.5**0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-(0.5**0.5), 0.0]]],
    ],
}
AD3 = {"type": "amplitude_damping", "gamma": 0.3}
RANDOM_HALVES = {"kind": "random", "q": [0.5, 0.5]}


@pytest.mark.parametrize(
    "config, argv, index",
    [
        (channel([DEPHASING], PERIODIC), ["chi"], 0),
        (channel([COMPLETE_DEPHASING], PERIODIC), ["chi"], 0),
        (channel([DEPHASING], PERIODIC), ["amax"], 0),
        (channel([DEPHASING, AD3], PERIODIC), ["capacity"], 0),
        (channel([AD3, DEPHASING], PERIODIC), ["scale", "--r", "1"], 1),
        (channel([AD3, DEPHASING], PERIODIC), ["staircase"], 1),
        (channel([AD3, DEPHASING], PERIODIC), ["simulate", "--rate", "0.3"], 1),
        (channel([DEPHASING, AD3], RANDOM_HALVES), ["random-scale", "--delta", "0,1"], 0),
        (channel([DEPHASING, AD3], RANDOM_HALVES), ["capacity"], 0),
        (channel([DEPHASING, AD3], RANDOM_HALVES), ["simulate", "--rate", "0.3"], 0),
    ],
)
def test_branches_whose_best_ensembles_need_two_heights_exit_2(tmp_path, capsys, config, argv, index):
    # the mirror pair printed 0.531004406411 for dephasing(0.1), 0 for complete
    # dephasing and C_p 0.581820265449 for [dephasing(0.1), AD(0.3)]; the true
    # values are 1, 1 and about 0.748552
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(config))
    assert cli.main([argv[0], str(path)] + argv[1:]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"error: branch {index} has a pure-state entropy that is not convex")
    assert "its best ensembles need two heights" in err


def _deep(depth, inner="0.5"):
    """JSON text of inner inside depth levels of one-element arrays."""
    return "[" * depth + inner + "]" * depth


_AD_TEXT = '{"type": "amplitude_damping", "gamma": 0.3}'


def _random_text(q_text):
    return '{"branches": [%s, %s], "memory": {"kind": "random", "q": %s}}' % (
        _AD_TEXT, _AD_TEXT, q_text)


@pytest.mark.parametrize(
    "text, command, message",
    [
        ("[" * 100_000, "chi", "cannot be read:"),
        (
            '{"branches": [{"type": "amplitude_damping", "gamma": %s}], '
            '"memory": {"kind": "periodic"}}' % ("1" * 5000),
            "chi",
            "cannot be read: Exceeds the limit",
        ),
        (_random_text(_deep(64, "0.5, 0.5")), "capacity", "'q' is nested too deeply"),
        (_random_text(_deep(599, "0.5, 0.5")), "capacity", "'q' is nested too deeply"),
        (
            '{"branches": [{"type": "kraus", "ops": [%s]}], "memory": {"kind": "periodic"}}'
            % _deep(600, "1.0"),
            "chi",
            "a kraus op of branch 0 is nested too deeply",
        ),
    ],
    ids=["brackets-100000", "gamma-5000-digits", "q-depth-65", "q-depth-600", "kraus-depth-600"],
)
def test_exit_code_on_unreadable_channel_text(tmp_path, capsys, text, command, message):
    # raw text, as json.dumps cannot write nesting past the decoder's
    # recursion limit or an integer past the digit limit
    path = tmp_path / "channel.json"
    path.write_text(text)
    assert cli.main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and message in err


def random_kraus_entry(seed):
    """A channel file's kraus branch of two random operators: the QR of a seeded 4x2 Gaussian."""
    rng = np.random.default_rng(seed)
    isometry = np.linalg.qr(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))[0]
    return kraus_entry([isometry[:2], isometry[2:]])


def test_branches_are_read_in_their_input_frame(tmp_path, capsys):
    # H·AD(0.5)·H is damping about x: chi reads it in its own frame and
    # prints AD(0.5)'s optimum; a report needs one frame for all its
    # branches, and AD(0.5) and H·AD(0.5)·H share no axis
    ad = {"type": "amplitude_damping", "gamma": 0.5}
    hah = kraus_entry(conjugated_damping(0.5, H))
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(channel([hah], PERIODIC)))
    rc, text = run_to_file(tmp_path, ["chi", str(path)])
    assert rc == 0
    assert text.splitlines()[1].split(",")[4] == "0.471729390599"
    for branches, command, message in (
        ([ad, hah], "capacity", "branch 1 has another input axis than the branches before it"),
        ([random_kraus_entry(36)], "chi", "branch 0 is covariant about no input axis"),
        ([ad, random_kraus_entry(37)], "capacity", "branch 1 is covariant about no input axis"),
    ):
        path.write_text(json.dumps(channel(branches, PERIODIC)))
        assert cli.main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize(
    "config, argv, refusal",
    [
        (channel([{"type": list(range(200_000)), "gamma": 0.3}], PERIODIC), ["chi"], "error: "),
        (channel(AD2, {"kind": "k" * 100_000}), ["chi"], "error: "),
        (
            kraus([[["x" * 100_000, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]),
            ["chi"],
            "error: ",
        ),
        (channel([{"type": "t" * 100_000}], PERIODIC), ["chi"], "error: "),
        (
            channel(AD2, PERIODIC),
            ["simulate", "--rate", "0.3", "--subset", "0," * 50_000 + "x"],
            "error: ",
        ),
        (channel(AD2, PERIODIC), ["scale", "--r", "9" * 4000], "error: "),
        (
            channel(AD2, PERIODIC),
            ["scale", "--r", "9" * 5000],
            "capscale scale: error: argument --r: invalid int value: ",
        ),
        (
            channel(AD2, PERIODIC),
            ["simulate", "--rate", "0.3", "--trials", "9" * 100_000],
            "capscale simulate: error: argument --trials: invalid int value: ",
        ),
        (
            channel(AD2, PERIODIC),
            ["chi", "--tol", "x" * 100_000],
            "capscale chi: error: argument --tol: invalid float value: ",
        ),
        (
            channel(AD2, PERIODIC),
            ["ad-gap", "--grid", "x" * 100_000],
            "capscale ad-gap: error: argument --grid: invalid int value: 'xxx",
        ),
        (
            channel(AD2, PERIODIC),
            ["simulate", "--rate", "0.3", "--seed", "\u00e9" * 100_000],
            "capscale simulate: error: argument --seed: invalid int value: '\u00e9\u00e9\u00e9",
        ),
        (
            channel(AD2, PERIODIC),
            ["chi", "--format", "y" * 100_000],
            "capscale chi: error: argument --format: invalid choice: 'yyy",
        ),
        (
            channel(AD2, PERIODIC),
            ["chi", "--format", "\u00e9" * 100_000],
            "capscale chi: error: argument --format: invalid choice: '\u00e9\u00e9\u00e9",
        ),
        (
            channel(AD2, PERIODIC),
            ["c" * 100_000],
            "capscale: error: argument command: invalid choice: 'ccc",
        ),
        (
            channel(AD2, PERIODIC),
            ["chi", "z" * 100_000],
            "capscale: error: unrecognized arguments: zzz",
        ),
    ],
    ids=[
        "type-list", "memory-kind", "kraus-entry", "type-string", "subset-text", "r-digits",
        "r-unreadable-digits", "trials-text", "tol-text", "grid-text", "seed-wide-text",
        "format-text", "format-wide-text", "command-text", "extra-text",
    ],
)
def test_error_lines_are_short_whatever_the_input(tmp_path, capsys, config, argv, refusal):
    # every value the library's own errors echo is cut to 60 characters,
    # and every argparse error message, a refused option value's included,
    # to 240 UTF-8 bytes; argparse refuses a command line after its usage
    # lines
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(config))
    files = [] if argv[0] == "ad-gap" else [str(path)]
    run = main_bytes([argv[0], *files, *argv[1:]], capsys)
    *usage, error = run["stderr"].splitlines(keepends=True)
    assert run["exit"] == 2 and all(len(line.encode()) <= 300 for line in [*usage, error])
    assert error.startswith(refusal) and bool(usage) == (refusal != "error: ")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, list):
        return ";".join(str(v) for v in value)
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


@pytest.mark.parametrize(
    "argv",
    [
        ["chi", "per4"],
        ["amax", "rand3"],
        ["ad-gap", "--grid", "3"],
        ["staircase", "per4"],
        ["simulate", "rand3", "--rate", "0.3,0.6,0.9", "--trials", "500"],
        ["simulate", "per4", "--rate", "0.5", "--subset", "0,1", "--trials", "500"],
    ],
    ids=["chi", "amax", "ad-gap", "staircase", "simulate", "simulate-subset"],
)
def test_row_table_json_matches_csv(channel_files, tmp_path, argv):
    argv = [channel_files.get(a, a) for a in argv]
    rc, csv_text = run_to_file(tmp_path, argv)
    assert rc == 0
    rc, json_text = run_to_file(tmp_path, argv + ["--format", "json"])
    assert rc == 0
    header, *rows = [line.split(",") for line in csv_text.splitlines()]
    objs = json.loads(json_text)
    assert isinstance(objs, list) and len(objs) == len(rows) > 0
    for obj, row in zip(objs, rows):
        assert list(obj) == header
        assert [_csv_cell(v) for v in obj.values()] == row


def test_exit_code_on_unwritable_output(channel_files, capsys):
    rc = cli.main(
        ["chi", channel_files["per4"], "--output", "/nonexistent-dir/out.csv"]
    )
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: cannot write output file '/nonexistent-dir/out.csv': "
        "[Errno 2] No such file or directory: '/nonexistent-dir/out.csv'\n"
    )


def test_exit_code_on_numerical_failure(channel_files, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr(cli.scales, "compute_capacity_report", boom)
    assert cli.main(["capacity", channel_files["per4"]]) == 3
    assert capsys.readouterr().err == "numerical error: synthetic failure\n"


def test_argparse_rejects_unknown_format(channel_files, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["chi", channel_files["per4"], "--format", "yaml"])
    assert exc.value.code == 2
    # argparse quotes the choices on some Python versions and not on others
    error = "capscale chi: error: argument --format: invalid choice: 'yaml' (choose from {})"
    choices = ("'csv', 'json'", "csv, json")
    assert capsys.readouterr().err.splitlines()[-1] in {error.format(c) for c in choices}


# each subcommand's own options, with a value and the value they parse to
OWN_OPTIONS = {
    "chi": {},
    "amax": {},
    "capacity": {},
    "scale": {"--r": ("2", 2)},
    "random-scale": {"--delta": ("0,2", "0,2")},
    "ad-gap": {"--grid": ("7", 7)},
    "staircase": {},
    "simulate": {
        "--rate": ("0.3,0.6", "0.3,0.6"),
        "--subset": ("0,1", "0,1"),
        "--trials": ("50", 50),
        "--seed": ("9", 9),
    },
}


def test_each_subcommand_parses_its_own_options(capsys):
    # through the full parser and through the path cli.main takes, which
    # reads a plain command line with no parser built
    full = cli.build_parser().parse_args
    common = {"--tol": ("1e-3", 1e-3), "--output": ("o.csv", "o.csv"), "--format": ("json", "json")}
    every = {flag for options in OWN_OPTIONS.values() for flag in options}
    for command, own in OWN_OPTIONS.items():
        files = [] if command == "ad-gap" else ["f.json"]
        options = {**common, **own}
        pairs = [t for flag, (text, _) in options.items() for t in (flag, text)]
        argv = [command, *files, *pairs]
        assert vars(cli.parse_args(argv)) == vars(full(argv))
        args = cli.parse_args(argv)
        assert args.command == command
        if files:
            assert args.channel == files[0]
        else:
            assert not hasattr(args, "channel")
        for flag, (_, value) in options.items():
            assert getattr(args, flag[2:]) == value
        # another command's option exits 2, and so does an option cut short,
        # even where it is a prefix of one option alone: --r is not --rate
        required = ["--rate", "0.3"] if command == "simulate" else []
        prefixes = {flag[:n] for flag in options for n in range(3, len(flag))}
        for flag in sorted((every - set(own)) | prefixes):
            for parse in (full, cli.parse_args):
                capsys.readouterr()
                with pytest.raises(SystemExit) as exc:
                    parse([command, *files, *required, flag, "1"])
                assert exc.value.code == 2
                err = capsys.readouterr().err
                assert err.endswith(f"error: unrecognized arguments: {flag} 1\n")
    # ad-gap takes no channel file
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["ad-gap", "f.json"])
    assert exc.value.code == 2
    error = capsys.readouterr().err.splitlines()[-1]
    assert error == "capscale: error: unrecognized arguments: f.json"

    for parse in (full, cli.parse_args):
        args = parse(["simulate", "f.json", "--rate", "0.3"])
        assert (args.tol, args.output, args.format) == (1e-8, None, "csv")
        assert (args.subset, args.trials, args.seed) == (None, 100_000, 42)
        assert parse(["scale", "f.json"]).r is None
        assert parse(["random-scale", "f.json"]).delta is None
        assert parse(["ad-gap"]).grid == 101


# stdout, stderr and exit code of cli.main on help and argparse-error argv,
# with COLUMNS=80, recorded when every command's parser was built on each run
# (the type errors at the end, when a refused value was cut to 60 characters)
PARSER_BYTES = json.loads((Path(__file__).parent / "parser_bytes.json").read_text("utf-8"))


def main_bytes(argv, capsys):
    capsys.readouterr()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return {"argv": argv, "exit": code, "stdout": out, "stderr": err}


def eager_parser():
    """The reference parser: every command's parser built up front, from one parent."""
    parser = argparse.ArgumentParser(
        prog="capscale",
        description="Capacities and subset-rate scales of qubit channels with memory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=1e-8, help="optimizer tolerance")
    common.add_argument("--output", default=None, help="output path (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    for name, help_text, kinds, func, options in cli._COMMANDS:
        p = sub.add_parser(name, parents=[common], help=help_text)
        if kinds:
            p.add_argument("channel", help="JSON channel description file")
        for flag, kw in options.items():
            p.add_argument(flag, **kw)
        p.set_defaults(func=func, kinds=kinds)
    return parser


def test_parser_bytes_as_recorded(monkeypatch, capsys):
    # argparse words some messages differently across Python versions
    if PARSER_BYTES["python"] != "%d.%d" % sys.version_info[:2]:
        pytest.skip(f"recorded with Python {PARSER_BYTES['python']}")
    monkeypatch.setenv("COLUMNS", str(PARSER_BYTES["columns"]))
    for case in PARSER_BYTES["cases"]:
        assert main_bytes(case["argv"], capsys) == case


def test_parser_bytes_match_the_eager_parser(monkeypatch, capsys):
    # on every Python version: cli.parse_args, which builds the full parser
    # with its error cap, prints what parsing with every command's parser
    # built from one parent did
    monkeypatch.setenv("COLUMNS", str(PARSER_BYTES["columns"]))
    argvs = [case["argv"] for case in PARSER_BYTES["cases"]]
    lazy = [main_bytes(argv, capsys) for argv in argvs]
    monkeypatch.setattr(cli, "parse_args", lambda argv: eager_parser().parse_args(argv))
    assert lazy == [main_bytes(argv, capsys) for argv in argvs]


def test_a_run_builds_one_parser(channel_files, tmp_path, monkeypatch):
    # none on a plain command line, which is read from cli._COMMANDS, and
    # the full parser on any other: the top-level parser, then each
    # command's in _COMMANDS order
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    full = ["capscale", *(f"capscale {command[0]}" for command in cli._COMMANDS)]
    per4, rand3 = channel_files["per4"], channel_files["rand3"]
    plain = [
        ["chi", per4], ["amax", per4], ["capacity", per4], ["scale", per4, "--r", "2"],
        ["random-scale", rand3], ["ad-gap", "--grid", "3"], ["staircase", per4],
        ["simulate", rand3, "--rate", "0.3", "--trials", "100"],
    ]
    other = [
        ["chi", per4, "--tol=1e-8"], ["ad-gap", "--grid=3"],
        ["simulate", per4, "--rate=0.3", "--trials", "100"],
        ["capacity", per4, "--tol", "1e-7", "--tol", "1e-8"],
    ]
    for argv in plain + other:
        built.clear()
        assert cli.main([*argv, "--output", str(tmp_path / "out")]) == 0
        assert built == ([] if argv in plain else full)


# tokens a plain command line may hold, and tokens that argparse must read
# or refuse: negative numbers, '-', '--', help, '=' spellings, an option cut
# short, a value no option takes and an integer past int()'s digit limit
PLAIN_VALUES = (
    "f.json", "g.json", "0.3", "0.3,0.6", "0,1", "7", "1e-3", "nan", "json", "csv", "",
)
ODD_VALUES = ("-0.5", "-", "--", "-h", "--tol=1e-3", "--form", "yaml", "9" * 5000)
FLAGS = sorted({*cli._COMMON, *(flag for command in cli._COMMANDS for flag in command[4])})


def _draw_argv(rng, command):
    """A command line of command: option pairs drawn mostly from its own
    options, its files, and now and then a token inserted or dropped."""
    name, _, kinds, _, own = command
    flags = [*cli._COMMON, *own]
    pairs = [
        [rng.choice(flags) if rng.random() < 0.85 else rng.choice(FLAGS), rng.choice(PLAIN_VALUES)]
        for _ in range(rng.randrange(5))
    ]
    files = [[rng.choice(PLAIN_VALUES)] for _ in range(int(bool(kinds)) + (rng.random() < 0.1))]
    groups = pairs + files
    rng.shuffle(groups)
    tokens = [token for group in groups for token in group]
    for _ in range(rng.choice((0, 0, 1, 2))):
        i = rng.randrange(len(tokens) + 1)
        if tokens and rng.random() < 0.3:
            del tokens[min(i, len(tokens) - 1)]
        else:
            tokens.insert(i, rng.choice((*FLAGS, *PLAIN_VALUES, *ODD_VALUES)))
    return [name, *tokens]


def _same(a, b) -> bool:
    return a == b or (isinstance(a, float) and isinstance(b, float) and a != a and b != b)


@pytest.mark.parametrize("seed", range(4))
def test_plain_command_lines_read_as_argparse_reads_them(seed, capsys):
    # the plain path either leaves a command line to argparse or returns
    # the namespace that the full parser builds from it
    rng = random.Random(seed)
    full = cli.build_parser()
    taken = 0
    for _ in range(20_000):
        command = rng.choice(cli._COMMANDS)
        argv = _draw_argv(rng, command)
        args = cli._plain_args(command, argv[1:])
        if args is None:
            continue
        taken += 1
        try:
            expected = vars(full.parse_args(argv))
        except SystemExit:
            pytest.fail(f"argparse refuses a plain command line: {capsys.readouterr().err}")
        got = vars(args)
        assert got.keys() == expected.keys(), argv
        assert all(_same(got[k], expected[k]) for k in got), argv
    assert taken >= 2000


# the leaves of the objects _draw_json draws
JSON_LEAVES = (
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1 / 3, 0.1 + 0.2,
    np.float64(2 / 3), np.float64(-1e-300), True, False, None, 0, -7, 10**30,
    "", "plain", "\u00e9t\u00e9", "\u65e5\u672c", 'quote " back \\ nl \n tab \t nul \x00',
    "\ud800",
)


def _draw_json(rng, depth=0):
    """A random object of the kinds a command's JSON holds, and more."""
    kind = rng.randrange(6) if depth < 4 else 0
    if kind == 0:
        return rng.choice(JSON_LEAVES)
    if kind == 1:
        return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-320, 308)
    items = [_draw_json(rng, depth + 1) for _ in range(rng.choice((0, 1, 3)))]
    if kind == 2:
        return items
    if kind == 3:
        return tuple(items)
    return {rng.choice(("a", "key", "\u00e9", 'q"', "")) + str(i): v for i, v in enumerate(items)}


def test_json_text_is_the_rounded_copy_dumped():
    rng = random.Random(40)
    for _ in range(2000):
        obj = _draw_json(rng)
        assert cli._json(obj) == oracles.rounded_json(obj), obj


def test_json_refuses_what_no_json_type_holds():
    # as json.dumps does, with its message, at any depth
    for obj in (set(), {1, 2}, object(), [1.0, {"a": frozenset()}], {"a": (None, object())}, 1j):
        with pytest.raises(TypeError) as dumped:
            json.dumps(obj)
        with pytest.raises(TypeError) as raised:
            cli._json(obj)
        assert str(raised.value) == str(dumped.value)


def test_json_rows_are_the_rounded_objects_dumped():
    # a row table's JSON pieces join to json.dumps of one rounded object per
    # row, whether the rows come as a list, as a generator, or not at all
    rng = random.Random(45)
    keys = ("a", "key", "\u00e9", 'q"', "")
    for _ in range(500):
        header = tuple(rng.choice(keys) + str(i) for i in range(rng.randint(1, 5)))
        n = rng.choice((0, 1, 3))
        rows = [tuple(rng.choice(JSON_LEAVES) for _ in header) for _ in range(n)]
        expected = oracles.rounded_json([dict(zip(header, row)) for row in rows]) + "\n"
        assert "".join(cli._json_rows(header, rows)) == expected, rows
        assert "".join(cli._json_rows(header, (row for row in rows))) == expected, rows
    assert "".join(cli._json_rows(("a",), (row for row in ()))) == "[]\n"


def test_kraus_channel_config_round_trip(tmp_path):
    # amplitude damping written out as explicit kraus operators
    import math

    g = 0.3
    r = math.sqrt(1.0 - g)
    w = math.sqrt(g)
    cfg = {
        "branches": [
            {
                "type": "kraus",
                "ops": [
                    [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [r, 0.0]]],
                    [[[0.0, 0.0], [w, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                ],
            },
            {"type": "amplitude_damping", "gamma": 0.3},
        ],
        "memory": {"kind": "periodic"},
    }
    p = tmp_path / "kraus.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out.csv"
    rc = cli.main(["chi", str(p), "--output", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    chi_kraus = float(lines[1].split(",")[4])
    chi_ad = float(lines[2].split(",")[4])
    assert chi_kraus == pytest.approx(chi_ad, abs=1e-9)


def test_stdout_closed_by_its_reader_ends_quietly():
    # as `capscale ad-gap --grid 101 | head -n 1`: the table (about 1 MB) is
    # far larger than a pipe's buffer, so the command is still writing when
    # its reader leaves, and it ends with exit status 1 and nothing on stderr
    argv = [sys.executable, "-m", "capscale.cli", "ad-gap", "--grid", "101"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline().startswith(b"gamma0,gamma1,")
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait() == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_stdout_that_cannot_be_written_is_one_error_line(channel_files):
    # every write to /dev/full fails with ENOSPC: the command ends as a failed
    # --output write does, with one error line and exit code 2
    for argv in (["capacity", channel_files["per4"]], ["ad-gap", "--grid", "101"]):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "capscale.cli", *argv],
                stdout=full, stderr=subprocess.PIPE, text=True,
            )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: cannot write output: ")
        assert proc.stderr.count("\n") == 1


def test_console_entry_point_stdout(channel_files):
    proc = subprocess.run(
        [sys.executable, "-m", "capscale.cli", "scale", channel_files["per4"]],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "r,value_bits,subset,error_threshold"
    proc = subprocess.run(
        [sys.executable, "-m", "capscale.cli", "capacity", channel_files["markov2"]],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: unknown memory kind 'markov'\n"
    proc = subprocess.run(
        [sys.executable, "-m", "capscale.cli", "chi", channel_files["per4"], "--form", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.endswith("capscale: error: unrecognized arguments: --form json\n")
