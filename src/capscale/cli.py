"""Command-line interface.

Subcommands compute per-branch optima (chi, amax), capacity reports and
subset-scale tables (capacity, scale, random-scale), the damping-pair gap
table (ad-gap), and the theoretical or simulated error staircase
(staircase, simulate). Channels come from a small JSON config file; output
is CSV (default) or JSON with 12 significant digits and LF line endings.

Exit codes: 0 success, 1 stdout closed by its reader before the output
ended (nothing is printed then, as when `| head` stops reading), 2
invalid input or configuration, or output that cannot be written, 3
numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import operator
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import scales, simulate
from .channels import MemoryChannel, QubitChannel, check_numbers
from .errors import NumericalError, ValidationError, shown

_TOL_MIN, _TOL_MAX = 1e-12, 1e-2

# Largest ad-gap grid. The table has grid**2 rows and its search about
# grid**2 / 2 lanes, so its time and memory grow as grid**2.
MAX_GRID = 401


def _cell(x) -> str:
    """One CSV cell: None empty, integers and text as they are, a sequence
    ';'-joined, a float at 12 significant digits. Floats, the most common
    cells, are tested first."""
    if isinstance(x, float):
        return f"{x:.12g}"
    if x is None:
        return ""
    if isinstance(x, (int, str)):
        return str(x)
    if isinstance(x, (list, tuple)):
        return ";".join(_cell(v) for v in x)
    return f"{float(x):.12g}"


# how json.dumps spells the floats whose repr is not JSON
_JSON_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json(obj, pad="\n") -> str:
    """json.dumps(obj, indent=2) with every float at 12 significant digits, in one pass.

    pad is the line break and indent before obj's closing bracket. Keys must
    be strings; a tuple is written as a list.
    """
    if isinstance(obj, float):
        text = repr(float(f"{obj:.12g}"))
        return _JSON_SPECIAL.get(text, text)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_json(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(obj, dict):
        return _json_object(obj.items(), pad)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_object(pairs, pad) -> str:
    """_json of the object of the (key, value) pairs, with no dict built."""
    inner = pad + "  "
    body = ("," + inner).join(encode_basestring_ascii(k) + ": " + _json(v, inner) for k, v in pairs)
    return "{" + inner + body + pad + "}" if body else "{}"


def _json_rows(header, rows):
    """The pieces of _json of one object per row keyed by header, and a line break."""
    sep = "[\n  "
    for row in rows:
        yield sep + _json_object(zip(header, row), "\n  ")
        sep = ",\n  "
    yield "\n]\n" if sep == ",\n  " else "[]\n"


def _emit(args, header, rows, json_obj=None):
    """Write a row table as CSV, or as JSON in the format args ask for, a row at a time.

    The JSON is json_obj when given, else one object per row keyed by header.
    rows may be any iterable; it is read once.
    """
    if args.format == "json":
        pieces = _json_rows(header, rows) if json_obj is None else [_json(json_obj) + "\n"]
    else:
        pieces = (",".join(map(_cell, row)) + "\n" for row in itertools.chain([header], rows))
    if args.output is None:
        try:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
        except OSError as e:
            # what is left unwritten goes to devnull, so the flush at exit cannot fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            if isinstance(e, BrokenPipeError):  # the reader left early, as `| head` does
                raise
            raise ValidationError(f"cannot write output: {e}") from e
        return
    try:
        with open(args.output, "w", encoding="utf-8", newline="\n") as f:
            f.writelines(pieces)
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
    """Branch i of a channel file; every refusal names the branch."""
    if not isinstance(b, dict) or "type" not in b:
        raise ValidationError(f"branch {i} must be an object with a 'type' field")
    kind = b["type"]
    if not isinstance(kind, str):  # a list or object is unhashable: no dict lookup
        raise ValidationError(f"branch {i}: 'type' must be a string, got {shown(kind)}")
    if kind in _BRANCH_PARAM:
        name = _BRANCH_PARAM[kind]
        if name not in b:
            raise ValidationError(f"branch {i}: {kind} needs {name!r}")
        build, arg = getattr(QubitChannel, kind), b[name]
    elif kind == "kraus":
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
        build, arg = QubitChannel.kraus, mats
    else:
        raise ValidationError(f"branch {i}: unknown channel type {shown(kind)}")
    try:
        return build(arg)
    except ValidationError as e:  # a parameter out of range, an incomplete Kraus list
        raise ValidationError(f"branch {i}: {e}") from e


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
    except (RecursionError, ValueError) as e:  # over-deep nesting, over-long integers
        raise ValidationError(f"channel file {path!r} cannot be read: {e}") from e
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
    raise ValidationError(f"unknown memory kind {shown(kind)}")


def _parse_indices(text, what) -> tuple[int, ...]:
    try:
        idxs = tuple(int(t) for t in text.split(","))
    except ValueError as e:
        raise ValidationError(f"{what} must be comma-separated integers: {shown(text)}") from e
    return scales.check_indices(idxs, what)


def _parse_rates(text) -> list[float]:
    try:
        return [float(t) for t in text.split(",")]
    except ValueError as e:
        raise ValidationError(f"rates must be comma-separated numbers: {shown(text)}") from e


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
    """Tabulate pair capacity against averaged branch capacity on a gamma grid.

    gap = chi_star_avg - c_p is rounded to 1e-15 absolute, then printed to
    12 significant digits like every other value.
    """
    if not 2 <= args.grid <= MAX_GRID:
        raise ValidationError(f"grid must be in [2, {MAX_GRID}], got {shown(args.grid)}")
    gammas = np.linspace(0.0, 1.0, args.grid).tolist()  # Python floats: _cell's first test
    n = len(gammas)
    # pair (j, i) is pair (i, j), and pair (i, i) peaks where branch i does
    subsets = [(i,) for i in range(n)] + [(i, j) for i in range(n) for j in range(i + 1, n)]
    best = scales.maximize_subsets(gammas, subsets, tol)

    def rows():
        for i, g0 in enumerate(gammas):
            for j, g1 in enumerate(gammas):
                pair = tuple(sorted({i, j}))
                (a0, v0), (a1, v1), (a_joint, total) = best[(i,)], best[(j,)], best[pair]
                cp = total / len(pair)
                avg = 0.5 * (v0 + v1)
                # both terms are known to about 4e-16, so the gap is printed to
                # 1e-15 (+ 0.0 makes -0.0 print as 0)
                yield g0, g1, a_joint, cp, a0, a1, avg, round(avg - cp, 15) + 0.0

    header = ("gamma0", "gamma1", "a_max_joint", "c_p", "a_max_0", "a_max_1", "chi_star_avg", "gap")
    return header, rows()


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
        rows = [simulate.StaircaseRow.from_result(res)]
    header = [f.name for f in dataclasses.fields(simulate.StaircaseRow)]
    return header, map(operator.attrgetter(*header), rows)


# --- parser -----------------------------------------------------------------


_ANY = ("periodic", "random")

# the options of every command, ahead of its channel file and its own options
_COMMON = {
    "--tol": dict(type=float, default=1e-8, help="optimizer tolerance"),
    "--output": dict(default=None, help="output path (default: stdout)"),
    "--format": dict(choices=("csv", "json"), default="csv"),
}

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


# an argparse error message of more UTF-8 bytes than this is cut short, so
# that its line stays under 300 bytes whatever the command line
_ERROR_BYTES = 240


class _Parser(argparse.ArgumentParser):
    """argparse's parser, with every error message cut to _ERROR_BYTES UTF-8 bytes."""

    def error(self, message):
        data = message.encode("utf-8", "backslashreplace")
        if len(data) > _ERROR_BYTES:
            message = data[: _ERROR_BYTES - 4].decode("utf-8", "ignore") + " ..."
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    """The full capscale parser, every command's included; options must be spelled in full."""
    parser = _Parser(
        prog="capscale",
        description="Capacities and subset-rate scales of qubit channels with memory.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(dest="command", required=True, prog=parser.prog)
    for name, help_text, kinds, func, options in _COMMANDS:
        sub = commands.add_parser(name, help=help_text, allow_abbrev=False)
        for flag, kw in _COMMON.items():
            sub.add_argument(flag, **kw)
        if kinds:
            sub.add_argument("channel", help="JSON channel description file")
        for flag, kw in options.items():
            sub.add_argument(flag, **kw)
        sub.set_defaults(func=func, kinds=kinds)
    return parser


def _plain_args(command, tokens) -> argparse.Namespace | None:
    """The namespace that build_parser()'s parser builds from command's name
    and tokens, read from _COMMANDS with no parser built; None unless tokens
    are plain.

    Plain tokens are the command's options and as many channel files as it
    takes, none of them starting with '-'. Each option is spelled in full,
    given at most once and followed by a value that does not start with '-'
    and that the option's type and choices accept; every required option is
    given. Any other tokens are argparse's to read, or to refuse.
    """
    name, _, kinds, func, own = command
    options = {**_COMMON, **own}
    values, files = {}, []
    tokens = iter(tokens)
    for token in tokens:
        if token not in options:
            if token.startswith("-"):
                return None
            files.append(token)
            continue
        text = next(tokens, None)
        if token in values or text is None or text.startswith("-"):
            return None
        kw = options[token]
        try:  # the refusals argparse reports as an invalid value
            value = kw["type"](text) if "type" in kw else text
        except (TypeError, ValueError):
            return None
        if "choices" in kw and value not in kw["choices"]:
            return None
        values[token] = value
    if len(files) != (1 if kinds else 0):
        return None
    if any(kw.get("required") and flag not in values for flag, kw in own.items()):
        return None
    fields = [(flag[2:], values.get(flag, kw.get("default"))) for flag, kw in options.items()]
    if kinds:
        fields.insert(len(_COMMON), ("channel", files[0]))
    return argparse.Namespace(**dict(fields), func=func, kinds=kinds, command=name)


def parse_args(argv) -> argparse.Namespace:
    """argv parsed as build_parser() parses it.

    A command name followed by a plain rest (_plain_args) is read with no
    parser built; build_parser()'s parser reads, or refuses, every other line.
    """
    command = next((c for c in _COMMANDS if argv and c[0] == argv[0]), None)
    args = None if command is None else _plain_args(command, argv[1:])
    return build_parser().parse_args(argv) if args is None else args


def main(argv=None) -> int:
    """Read the channel file, check --tol and the memory kind, run the command
    and write its table: every check before the command's own, in this order."""
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
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
    except BrokenPipeError:  # stdout's reader needs no message
        return 1
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
