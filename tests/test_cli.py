import json
import subprocess
import sys

import pytest

import capscale.cli as cli
from capscale import NumericalError
from conftest import damping_channel_file, run_to_file


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


def test_amax_command(channel_files, tmp_path):
    rc, text = run_to_file(tmp_path, ["amax", channel_files["rand3"]])
    assert rc == 0
    lines = text.splitlines()
    assert lines[0] == "branch,gamma,a_max_search,a_max_root,abs_diff"
    for line in lines[1:]:
        assert float(line.split(",")[4]) < 1e-5
    # the search column is the a_max that chi (and every report) prints
    rc, chi_text = run_to_file(tmp_path, ["chi", channel_files["rand3"]])
    assert rc == 0
    chi_rows = chi_text.splitlines()[1:]
    assert len(chi_rows) == len(lines) - 1 == 3
    for line, chi_line in zip(lines[1:], chi_rows):
        assert line.split(",")[2] == chi_line.split(",")[3]


def test_amax_root_at_fixed_precision(tmp_path):
    # the root is bisected to 1e-12 whatever --tol is; at gamma = 0 it is 1/2
    path = damping_channel_file(tmp_path, (0.0, 0.5), {"kind": "periodic"})
    rc, text = run_to_file(tmp_path, ["amax", path, "--format", "json"])
    assert rc == 0
    rows = json.loads(text)
    assert rows[0]["gamma"] == 0.0
    assert abs(rows[0]["a_max_root"] - 0.5) <= 1e-12


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


def test_simulate_subset_needs_single_rate(channel_files, tmp_path):
    rc, _ = run_to_file(
        tmp_path,
        ["simulate", channel_files["per4"], "--rate", "0.3,0.5", "--subset", "0,1"],
    )
    assert rc == 2


def test_exit_code_on_bad_inputs(channel_files, tmp_path):
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


NAN = float("nan")
HUGE = 10**400  # a JSON integer past the float range
AD2 = PER4["branches"][:2]


@pytest.mark.parametrize(
    "branches, memory, argv",
    [
        (AD2, {"kind": "random", "q": [NAN, 0.5]}, ["capacity"]),
        (
            [{"type": "kraus", "ops": [[[[NAN, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}],
            {"kind": "periodic"},
            ["chi"],
        ),
        (AD2, {"kind": "periodic"}, ["chi", "--tol", "nan"]),
        (AD2, {"kind": "periodic"}, ["simulate", "--rate", "nan"]),
        (AD2, {"kind": "periodic"}, ["simulate", "--rate", "0.3", "--seed", "-1"]),
        (AD2, {"kind": "periodic"}, ["simulate", "--rate", "0.3", "--trials", str(10**30)]),
        ([{"type": "amplitude_damping", "gamma": "abc"}], {"kind": "periodic"}, ["chi"]),
        ([{"type": "depolarizing", "p": None}], {"kind": "periodic"}, ["capacity"]),
        (
            [{"type": "kraus", "ops": [[[["a", 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}],
            {"kind": "periodic"},
            ["chi"],
        ),
        (
            [{"type": "kraus", "ops": [[[[1.0, 0.0], [0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}],
            {"kind": "periodic"},
            ["capacity"],
        ),
        ([{"type": "amplitude_damping", "gamma": True}], {"kind": "periodic"}, ["chi"]),
        (AD2, {"kind": "random", "q": [True, False]}, ["capacity"]),
        ([{"type": "amplitude_damping", "gamma": HUGE}], {"kind": "periodic"}, ["chi"]),
        ([{"type": "depolarizing", "p": -HUGE}], {"kind": "periodic"}, ["chi"]),
        (AD2, {"kind": "random", "q": [HUGE, 0.5]}, ["capacity"]),
        (
            [{"type": "kraus", "ops": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [HUGE, 0.0]]]]}],
            {"kind": "periodic"},
            ["chi"],
        ),
        ([{"type": ["amplitude_damping"], "gamma": 0.3}], {"kind": "periodic"}, ["chi"]),
        ([{"type": {"kind": "depolarizing"}, "p": 0.3}], {"kind": "periodic"}, ["chi"]),
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
    ],
)
def test_exit_code_on_non_finite_or_out_of_range_input(tmp_path, capsys, branches, memory, argv):
    path = tmp_path / "channel.json"
    path.write_text(json.dumps({"branches": branches, "memory": memory}))
    assert cli.main([argv[0], str(path)] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


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


def test_exit_code_on_unwritable_output(channel_files):
    rc = cli.main(
        ["chi", channel_files["per4"], "--output", "/nonexistent-dir/out.csv"]
    )
    assert rc == 2


def test_exit_code_on_numerical_failure(channel_files, monkeypatch):
    def boom(*args, **kwargs):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr(cli.scales, "compute_capacity_report", boom)
    assert cli.main(["capacity", channel_files["per4"]]) == 3


def test_argparse_rejects_unknown_format(channel_files):
    with pytest.raises(SystemExit) as exc:
        cli.main(["chi", channel_files["per4"], "--format", "yaml"])
    assert exc.value.code == 2


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
