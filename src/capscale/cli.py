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
# Each takes the parsed args, the channel (None for ad-gap) and the checked
# tol, and returns the table to write: (header, rows) or (header, rows, json).


def _suprema_rows(mc, tol):
    """(index, kind, parameter, supremum) of each branch; a Kraus branch has no parameter."""
    sups = scales.per_branch_suprema(mc.branches, tol)
    for i, (ch, s) in enumerate(zip(mc.branches, sups)):
        param = getattr(ch, _BRANCH_PARAM[ch.kind]) if ch.kind in _BRANCH_PARAM else None
        yield i, ch.kind, param, s


def cmd_chi(args, mc, tol):
    rows = [(i, kind, param, s.a_max, s.chi_star) for i, kind, param, s in _suprema_rows(mc, tol)]
    return ("branch", "kind", "param", "a_max", "chi_star"), rows


def cmd_amax(args, mc, tol):
    """Each branch's a_max with its search's final bracket and the slope at a_max.

    The bracket holds the maximizer and is narrower than tol. A flat curve
    (chi_star = 0, as at damping 1 or depolarizing 1) has no maximizer to
    locate, and is refused.
    """
    rows = []
    for i, kind, param, s in _suprema_rows(mc, tol):
        if s.chi_star == 0.0:
            raise ValidationError(f"branch {i}: the optimum location is undefined (flat curve)")
        rows.append((i, kind, param, s.a_max, *s.bracket, s.slope))
    return ("branch", "kind", "param", "a_max", "bracket_lo", "bracket_hi", "slope"), rows


_SCALE_HEADER = ("r", "value_bits", "subset", "error_threshold")


def _scale_row(r: int, entry: scales.ScaleEntry, L: int):
    return (r, entry.value, entry.best_subset, 1.0 - r / L)


def _suprema(sups) -> list[dict]:
    return [{"a_max": s.a_max, "chi_star": s.chi_star} for s in sups]


def _scale_rows(report: scales.CapacityReport):
    return [_scale_row(r, e, report.n_branches) for r, e in sorted(report.scale.items())]


def _capacity_table(report: scales.CapacityReport):
    rows = _scale_rows(report)
    obj = {
        "cp": report.cp,
        "cbar": report.cbar,
        "scale": {str(r): {"value_bits": v, "best_subset": s} for r, v, s, _ in rows},
        "per_branch_suprema": _suprema(report.per_branch_suprema),
    }
    return _SCALE_HEADER, rows, obj


def _random_table(report: scales.RandomScaleReport):
    rows = [(delta, s.q_delta, s.c_delta, s.cbar_delta) for delta, s in report.per_subset.items()]
    obj = {
        "q": report.q,
        "per_subset": [
            dict(zip(("delta", "q_delta", "c_delta", "cbar_delta"), row)) for row in rows
        ],
        "per_branch_suprema": _suprema(report.per_branch_suprema),
    }
    return ("delta", "q_delta", "c_delta_bits", "cbar_delta_bits"), rows, obj


def cmd_capacity(args, mc, tol):
    if mc.memory == "periodic":
        return _capacity_table(scales.compute_capacity_report(mc.branches, tol))
    full = tuple(range(len(mc.branches)))
    report = scales.compute_random_scale_report(mc.branches, mc.q, deltas=[full], tol=tol)
    return _random_table(report)


def cmd_scale(args, mc, tol):
    if args.r is None:
        return _capacity_table(scales.compute_capacity_report(mc.branches, tol))
    row = _scale_row(args.r, scales.scale_r(mc.branches, args.r, tol), len(mc.branches))
    obj = dict(zip(("r", "value_bits", "best_subset", "error_threshold"), row))
    return _SCALE_HEADER, [row], obj


def cmd_random_scale(args, mc, tol):
    deltas = None if args.delta is None else [_parse_indices(args.delta, "--delta")]
    report = scales.compute_random_scale_report(mc.branches, mc.q, deltas=deltas, tol=tol)
    return _random_table(report)


def cmd_ad_gap(args, mc, tol):
    """Tabulate pair capacity against averaged branch capacity on a gamma grid."""
    if not 2 <= args.grid <= MAX_GRID:
        raise ValidationError(f"grid must be in [2, {MAX_GRID}], got {args.grid}")
    gammas = np.linspace(0.0, 1.0, args.grid)
    n = len(gammas)
    # pair (j, i) is pair (i, j), and pair (i, i) peaks where branch i does
    subsets = [(i,) for i in range(n)] + [(i, j) for i in range(n) for j in range(i + 1, n)]
    # valid by construction: the unchecked maximizer
    best = scales._maximize(scales._as_channels(gammas), subsets, tol)
    rows = []
    for i, g0 in enumerate(gammas):
        for j, g1 in enumerate(gammas):
            pair = tuple(sorted({i, j}))
            (a0, v0), (a1, v1), (a_joint, total) = best[(i,)], best[(j,)], best[pair]
            cp = total / len(pair)
            avg = 0.5 * (v0 + v1)
            rows.append((g0, g1, a_joint, cp, a0, a1, avg, avg - cp))
    header = ("gamma0", "gamma1", "a_max_joint", "c_p", "a_max_0", "a_max_1", "chi_star_avg", "gap")
    return header, rows


def cmd_staircase(args, mc, tol):
    return _SCALE_HEADER, _scale_rows(scales.compute_capacity_report(mc.branches, tol))


def cmd_simulate(args, mc, tol):
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
    return header, [dataclasses.astuple(row) for row in rows]


# --- parser -----------------------------------------------------------------


_ANY = ("periodic", "random")

# (name, help, memory kinds the command accepts, function, own options); a
# command that accepts no memory kind takes no channel file
_COMMANDS = (
    ("chi", "per-branch best mirror ensemble and Holevo quantity", _ANY, cmd_chi, {}),
    ("amax", "per-branch optimum location, search bracket and slope", _ANY, cmd_amax, {}),
    ("capacity", "capacity report for the channel's memory kind", _ANY, cmd_capacity, {}),
    ("scale", "subset-rate hierarchy for periodic memory", ("periodic",), cmd_scale, {
        "--r": dict(type=int, default=None, help="single subset size to report"),
    }),
    ("random-scale", "subset capacities for random memory", ("random",), cmd_random_scale, {
        "--delta": dict(default=None, help="comma-separated branch indices"),
    }),
    ("ad-gap", "pair capacity vs averaged branch capacity on a damping grid", (), cmd_ad_gap, {
        "--grid": dict(type=int, default=101, help="points per gamma axis"),
    }),
    ("staircase", "theoretical rate/error staircase", ("periodic",), cmd_staircase, {}),
    ("simulate", "Monte Carlo decode success against the staircase", _ANY, cmd_simulate, {
        "--rate": dict(required=True, help="rate in bits, or comma-separated rates"),
        "--subset": dict(default=None, help="fixed target subset (single rate only)"),
        "--trials": dict(type=int, default=100_000),
        "--seed": dict(type=int, default=42),
    }),
)


class _Commands(argparse._SubParsersAction):
    """The subcommands of _COMMANDS, each listed with its help line.

    A command's parser is built only when argparse dispatches to it, so a
    run builds the top-level parser and the invoked command's, not all nine.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        for name, help_text, *_ in _COMMANDS:
            self._name_parser_map[name] = None  # the choices argparse checks
            self._choices_actions.append(self._ChoicesPseudoAction(name, (), help_text))

    def __call__(self, parser, namespace, values, option_string=None):
        # argparse has checked that values[0] names a command
        name, _, kinds, func, options = next(c for c in _COMMANDS if c[0] == values[0])
        p = argparse.ArgumentParser(prog=f"{self._prog_prefix} {name}", allow_abbrev=False)
        p.add_argument("--tol", type=float, default=1e-8, help="optimizer tolerance")
        p.add_argument("--output", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if kinds:
            p.add_argument("channel", help="JSON channel description file")
        for flag, kw in options.items():
            p.add_argument(flag, **kw)
        p.set_defaults(func=func, kinds=kinds)
        self._name_parser_map[name] = p
        super().__call__(parser, namespace, values, option_string)


def build_parser() -> argparse.ArgumentParser:
    """The capscale parser; options must be spelled in full."""
    parser = argparse.ArgumentParser(
        prog="capscale",
        description="Capacities and subset-rate scales of qubit channels with memory.",
        allow_abbrev=False,
    )
    parser.register("action", "parsers", _Commands)
    parser.add_subparsers(dest="command", required=True, prog=parser.prog)
    return parser


def main(argv=None) -> int:
    """Read the channel file, check --tol and the memory kind, run the command
    and write its table: every check before the command's own, in this order."""
    args = build_parser().parse_args(argv)
    try:
        mc = load_channel_config(args.channel) if args.kinds else None
        tol = _check_tol(args.tol)
        if mc is not None and mc.memory not in args.kinds:
            raise ValidationError(
                f"the {args.command} command needs {' or '.join(args.kinds)} memory, "
                f"got {mc.memory}"
            )
        _emit(args, *args.func(args, mc, tol))
        return 0
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
