"""Command-line interface.

Subcommands compute per-branch optima (chi, amax), capacity reports and
subset-scale tables (capacity, scale, random-scale), the damping-pair gap
table (ad-gap), and the theoretical or simulated error staircase
(staircase, simulate). Channels come from a small JSON config file; output
is CSV (default) or JSON with 12 significant digits and LF line endings.

Exit codes: 0 success, 2 invalid input or configuration, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import scales, simulate
from .channels import MemoryChannel, QubitChannel, check_number, check_numbers
from .errors import NumericalError, ValidationError
from .holevo import dchi_da_ad
from .optim import find_root_bisection

_TOL_MIN, _TOL_MAX = 1e-12, 1e-2

# Largest ad-gap grid. The table has grid**2 rows and its search about
# grid**2 / 2 lanes, so its time and memory grow as grid**2.
MAX_GRID = 401


def _cell(x) -> str:
    """One CSV cell: None empty, integers and text as they are, a sequence
    ';'-joined, a float at 12 significant digits."""
    if x is None:
        return ""
    if isinstance(x, (int, str)):
        return str(x)
    if isinstance(x, (list, tuple)):
        return ";".join(_cell(v) for v in x)
    return f"{float(x):.12g}"


def _round_floats(obj):
    if isinstance(obj, float):
        return float(_cell(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit(args, header, rows, json_obj=None):
    """Write a row table as CSV, or as JSON in the format args ask for.

    The JSON is json_obj when given, else one object per row keyed by header.
    """
    if args.format == "json":
        if json_obj is None:
            json_obj = [dict(zip(header, row)) for row in rows]
        text = json.dumps(_round_floats(json_obj), indent=2) + "\n"
    else:
        text = "".join(",".join(map(_cell, row)) + "\n" for row in [header, *rows])
    if args.output is None:
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
    except OSError as e:
        raise ValidationError(f"cannot write output file {args.output!r}: {e}") from e


def _check_tol(tol: float) -> float:
    if not _TOL_MIN <= tol <= _TOL_MAX:
        raise ValidationError(f"tol must be in [{_TOL_MIN}, {_TOL_MAX}], got {tol}")
    return tol


# --- channel config files ----------------------------------------------------


# the one parameter of each parametric branch kind, as named in channel files
_BRANCH_PARAM = {"amplitude_damping": "gamma", "depolarizing": "p"}


def _parse_branch(i, b) -> QubitChannel:
    if not isinstance(b, dict) or "type" not in b:
        raise ValidationError(f"branch {i} must be an object with a 'type' field")
    kind = b["type"]
    if not isinstance(kind, str):  # a list or object is unhashable: no dict lookup
        raise ValidationError(f"branch {i}: 'type' must be a string, got {kind!r}")
    if kind in _BRANCH_PARAM:
        name = _BRANCH_PARAM[kind]
        if name not in b:
            raise ValidationError(f"branch {i}: {kind} needs {name!r}")
        return getattr(QubitChannel, kind)(check_number(b[name], f"branch {i}: {name}"))
    if kind == "kraus":
        ops = b.get("ops")
        if not isinstance(ops, list) or not ops:
            raise ValidationError(f"branch {i}: kraus needs a nonempty 'ops' list")
        mats = []
        for op in ops:
            arr = check_numbers(op, f"a kraus op of branch {i}")
            if arr.shape != (2, 2, 2):
                raise ValidationError(
                    f"branch {i}: each kraus op must be 2x2 entries of [re, im] pairs"
                )
            mats.append(arr[..., 0] + 1j * arr[..., 1])
        return QubitChannel.kraus(mats)
    raise ValidationError(f"branch {i}: unknown channel type {kind!r}")


def load_channel_config(path) -> MemoryChannel:
    """Read a memory-channel description from a JSON file."""
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except OSError as e:
        raise ValidationError(f"cannot read channel file {path!r}: {e}") from e
    except json.JSONDecodeError as e:
        raise ValidationError(f"channel file {path!r} is not valid JSON: {e}") from e
    except UnicodeDecodeError as e:
        raise ValidationError(f"channel file {path!r} is not UTF-8 text: {e}") from e
    if not isinstance(data, dict):
        raise ValidationError("channel file must contain a JSON object")
    raw = data.get("branches")
    if not isinstance(raw, list) or not raw:
        raise ValidationError("channel file needs a nonempty 'branches' array")
    branches = [_parse_branch(i, b) for i, b in enumerate(raw)]
    mem = data.get("memory")
    if not isinstance(mem, dict) or "kind" not in mem:
        raise ValidationError("channel file needs a 'memory' object with a 'kind'")
    kind = mem["kind"]
    if kind == "periodic":
        return MemoryChannel.periodic(branches)
    if kind == "random":
        if "q" not in mem:
            raise ValidationError("random memory needs a 'q' array")
        return MemoryChannel.random(branches, mem["q"])
    raise ValidationError(f"unknown memory kind {kind!r}")


def _parse_indices(text, what) -> tuple[int, ...]:
    try:
        idxs = tuple(int(t) for t in text.split(",") if t.strip() != "")
    except ValueError as e:
        raise ValidationError(f"{what} must be comma-separated integers: {text!r}") from e
    return scales.check_indices(idxs, what)


def _parse_rates(text) -> list[float]:
    try:
        return [float(t) for t in text.split(",") if t.strip() != ""]
    except ValueError as e:
        raise ValidationError(f"rates must be comma-separated numbers: {text!r}") from e


# --- subcommands ------------------------------------------------------------


def cmd_chi(args) -> int:
    mc = load_channel_config(args.channel)
    tol = _check_tol(args.tol)
    sups = scales.per_branch_suprema(mc.branches, tol)
    rows = []
    for i, (ch, s) in enumerate(zip(mc.branches, sups)):
        param = getattr(ch, _BRANCH_PARAM[ch.kind]) if ch.kind in _BRANCH_PARAM else None
        rows.append((i, ch.kind, param, s.a_max, s.chi_star))
    _emit(args, ("branch", "kind", "param", "a_max", "chi_star"), rows)
    return 0


# Root bracket of the damping derivative: the optimum sits at a >= 1/2,
# and the derivative is singular at a = 1. The root is bisected to a fixed
# AD_ROOT_TOL, whatever --tol is, so abs_diff is the printed a_max's error.
AD_SEARCH_LO = 0.5 - 1e-3
AD_SEARCH_HI = 1.0 - 1e-9
AD_ROOT_TOL = 1e-12


def cmd_amax(args) -> int:
    """Tabulate each damping branch's reported a_max against the derivative root."""
    mc = load_channel_config(args.channel)
    tol = _check_tol(args.tol)
    for i, ch in enumerate(mc.branches):
        if ch.kind != "amplitude_damping":
            raise ValidationError(
                f"branch {i} is {ch.kind}; the amax command handles amplitude damping only"
            )
        if ch.gamma >= 1.0:
            raise ValidationError(
                f"branch {i}: the optimum location is undefined at gamma=1 (flat curve)"
            )
    rows = []
    for i, (ch, s) in enumerate(zip(mc.branches, scales.per_branch_suprema(mc.branches, tol))):
        root = find_root_bisection(
            lambda a: dchi_da_ad(ch.gamma, a), AD_SEARCH_LO, AD_SEARCH_HI, AD_ROOT_TOL
        )
        rows.append((i, ch.gamma, s.a_max, root, abs(s.a_max - root)))
    _emit(args, ("branch", "gamma", "a_max_search", "a_max_root", "abs_diff"), rows)
    return 0


def _require_memory(mc: MemoryChannel, kinds, command):
    if mc.memory not in kinds:
        raise ValidationError(
            f"the {command} command needs {' or '.join(kinds)} memory, got {mc.memory}"
        )


_SCALE_HEADER = ("r", "value_bits", "subset", "error_threshold")


def _scale_row(r: int, entry: scales.ScaleEntry, L: int):
    return (r, entry.value, entry.best_subset, 1.0 - r / L)


def _suprema(sups) -> list[dict]:
    return [{"a_max": s.a_max, "chi_star": s.chi_star} for s in sups]


def _scale_rows(report: scales.CapacityReport):
    return [_scale_row(r, e, report.n_branches) for r, e in sorted(report.scale.items())]


def _emit_capacity_report(args, report: scales.CapacityReport):
    rows = _scale_rows(report)
    obj = {
        "cp": report.cp,
        "cbar": report.cbar,
        "scale": {str(r): {"value_bits": v, "best_subset": s} for r, v, s, _ in rows},
        "per_branch_suprema": _suprema(report.per_branch_suprema),
    }
    _emit(args, _SCALE_HEADER, rows, obj)


def _emit_random_report(args, report: scales.RandomScaleReport):
    rows = [(delta, s.q_delta, s.c_delta, s.cbar_delta) for delta, s in report.per_subset.items()]
    obj = {
        "q": report.q,
        "per_subset": [
            dict(zip(("delta", "q_delta", "c_delta", "cbar_delta"), row)) for row in rows
        ],
        "per_branch_suprema": _suprema(report.per_branch_suprema),
    }
    _emit(args, ("delta", "q_delta", "c_delta_bits", "cbar_delta_bits"), rows, obj)


def cmd_capacity(args) -> int:
    mc = load_channel_config(args.channel)
    tol = _check_tol(args.tol)
    _require_memory(mc, ("periodic", "random"), "capacity")
    if mc.memory == "periodic":
        _emit_capacity_report(args, scales.compute_capacity_report(mc.branches, tol))
    else:
        full = tuple(range(len(mc.branches)))
        _emit_random_report(
            args, scales.compute_random_scale_report(mc.branches, mc.q, deltas=[full], tol=tol)
        )
    return 0


def cmd_scale(args) -> int:
    mc = load_channel_config(args.channel)
    tol = _check_tol(args.tol)
    _require_memory(mc, ("periodic",), "scale")
    if args.r is None:
        _emit_capacity_report(args, scales.compute_capacity_report(mc.branches, tol))
        return 0
    row = _scale_row(args.r, scales.scale_r(mc.branches, args.r, tol), len(mc.branches))
    obj = dict(zip(("r", "value_bits", "best_subset", "error_threshold"), row))
    _emit(args, _SCALE_HEADER, [row], obj)
    return 0


def cmd_random_scale(args) -> int:
    mc = load_channel_config(args.channel)
    tol = _check_tol(args.tol)
    _require_memory(mc, ("random",), "random-scale")
    deltas = None if args.delta is None else [_parse_indices(args.delta, "--delta")]
    _emit_random_report(
        args, scales.compute_random_scale_report(mc.branches, mc.q, deltas=deltas, tol=tol)
    )
    return 0


def cmd_ad_gap(args) -> int:
    """Tabulate pair capacity against averaged branch capacity on a gamma grid."""
    tol = _check_tol(args.tol)
    if not 2 <= args.grid <= MAX_GRID:
        raise ValidationError(f"grid must be in [2, {MAX_GRID}], got {args.grid}")
    gammas = np.linspace(0.0, 1.0, args.grid)
    n = len(gammas)
    # pair (j, i) is pair (i, j), and pair (i, i) peaks where branch i does
    subsets = [(i,) for i in range(n)] + [(i, j) for i in range(n) for j in range(i + 1, n)]
    best = scales.maximize_subsets(gammas, subsets, tol=tol)
    rows = []
    for i, g0 in enumerate(gammas):
        for j, g1 in enumerate(gammas):
            pair = tuple(sorted({i, j}))
            (a0, v0), (a1, v1), (a_joint, total) = best[(i,)], best[(j,)], best[pair]
            cp = total / len(pair)
            avg = 0.5 * (v0 + v1)
            rows.append((g0, g1, a_joint, cp, a0, a1, avg, avg - cp))
    header = ("gamma0", "gamma1", "a_max_joint", "c_p", "a_max_0", "a_max_1", "chi_star_avg", "gap")
    _emit(args, header, rows)
    return 0


def cmd_staircase(args) -> int:
    mc = load_channel_config(args.channel)
    tol = _check_tol(args.tol)
    _require_memory(mc, ("periodic",), "staircase")
    _emit(args, _SCALE_HEADER, _scale_rows(scales.compute_capacity_report(mc.branches, tol)))
    return 0


def cmd_simulate(args) -> int:
    mc = load_channel_config(args.channel)
    tol = _check_tol(args.tol)
    rates = _parse_rates(args.rate)
    if args.subset is None:
        rows = simulate.empirical_staircase(mc, rates, args.trials, args.seed, tol)
    else:
        if len(rates) != 1:
            raise ValidationError("--subset requires exactly one rate")
        strategy = simulate.Strategy(_parse_indices(args.subset, "--subset"), rates[0])
        res = simulate.run_trials(mc, strategy, args.trials, args.seed, tol)
        rows = [simulate.StaircaseRow(rates[0], res.strategy.subset, res.q_subset,
                                      res.theoretical_error, res.empirical_error,
                                      res.n_trials, res.seed)]
    header = [f.name for f in dataclasses.fields(simulate.StaircaseRow)]
    _emit(args, header, [dataclasses.astuple(row) for row in rows])
    return 0


# --- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capscale",
        description="Capacities and subset-rate scales of qubit channels with memory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=1e-8, help="optimizer tolerance")
    common.add_argument("--output", default=None, help="output path (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")

    def with_channel(name, help_text, **kw):
        p = sub.add_parser(name, parents=[common], help=help_text, **kw)
        p.add_argument("channel", help="JSON channel description file")
        return p

    with_channel("chi", "per-branch best mirror ensemble and Holevo quantity").set_defaults(
        func=cmd_chi
    )
    with_channel(
        "amax", "optimum location by search and by derivative root, per branch"
    ).set_defaults(func=cmd_amax)
    with_channel("capacity", "capacity report for the channel's memory kind").set_defaults(
        func=cmd_capacity
    )
    p = with_channel("scale", "subset-rate hierarchy for periodic memory")
    p.add_argument("--r", type=int, default=None, help="single subset size to report")
    p.set_defaults(func=cmd_scale)

    p = with_channel("random-scale", "subset capacities for random memory")
    p.add_argument("--delta", default=None, help="comma-separated branch indices")
    p.set_defaults(func=cmd_random_scale)

    p = sub.add_parser(
        "ad-gap",
        parents=[common],
        help="pair capacity vs averaged branch capacity on a damping grid",
    )
    p.add_argument("--grid", type=int, default=101, help="points per gamma axis")
    p.set_defaults(func=cmd_ad_gap)

    with_channel("staircase", "theoretical rate/error staircase").set_defaults(
        func=cmd_staircase
    )

    p = with_channel("simulate", "Monte Carlo decode success against the staircase")
    p.add_argument("--rate", required=True, help="rate in bits, or comma-separated rates")
    p.add_argument("--subset", default=None, help="fixed target subset (single rate only)")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
