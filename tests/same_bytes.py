"""Compare what two source trees' ``capscale`` prints, run by run.

    python tests/same_bytes.py PARENT CHANGE

PARENT and CHANGE are checkouts of this repository. Each gets one
long-lived worker process that imports ``capscale.cli`` from its tree's
``src/`` and runs ``cli.main`` in process for every command line, with
COLUMNS=80, answering with a 16-hex sha256 of (exit code, stdout,
stderr). The command lines are:

- the 512 channels of each benchmark pool, ``periodic-damping`` and
  ``random-simulate`` (perfbench/workloads.py), each in CSV and JSON
  under ``capacity``, ``chi``, ``amax``, ``scale --r 3``, ``staircase``,
  ``random-scale``, ``random-scale --delta 0,2,4``, the ``simulate``
  line of the ``random-simulate`` entry of the same index, and four more
  ``simulate`` lines (SIMULATE below), two of them with ``--subset``; a
  command that refuses a memory kind is compared on its refusal;
- 200 ``periodic-generic`` ops of seed 7, in CSV and JSON;
- the command line of every case of tests/parser_bytes.json.

It prints, per command, the count of identical and of differing runs,
and for the first difference its command line and each side's first
differing line. The exit status is 0 when every run is identical, 1
when some differ, and 2 when the comparison could not be made.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COLUMNS = "80"
COMMANDS = (
    ("capacity",),
    ("chi",),
    ("amax",),
    ("scale", "--r", "3"),
    ("staircase",),
    ("random-scale",),
    ("random-scale", "--delta", "0,2,4"),
)
SIMULATE = (
    ("--rate", "0.3,0.45", "--trials", "1000"),
    ("--rate", "0.2,5.0"),
    ("--subset", "0,1", "--rate", "0.01"),
    ("--subset", "0,1", "--rate", "5.0"),
)
GENERIC_OPS, GENERIC_SEED = 200, 7


def run(main, argv) -> list:
    """[exit code, stdout, stderr] of one in-process cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is an outcome to compare, not the end of the run
            code = "exception"
            traceback.print_exc()
    return [code, out.getvalue(), err.getvalue()]


def worker() -> int:
    """Answer each stdin line, a JSON [full, argv], with a hash, or the run itself if full."""
    from capscale import cli

    pipe = sys.stdout
    print(json.dumps(cli.__file__), file=pipe, flush=True)
    for line in sys.stdin:
        full, argv = json.loads(line)
        result = run(cli.main, argv)
        text = json.dumps(result)
        answer = text if full else hashlib.sha256(text.encode()).hexdigest()[:16]
        print(answer, file=pipe, flush=True)
    return 0


class Worker:
    """One tree's worker process, started in the directory that holds the channel files."""

    def __init__(self, tree: Path, cwd: str):
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "COLUMNS": COLUMNS}
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--worker"], cwd=cwd, env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        where = Path(json.loads(self.receive())).resolve()
        if not where.is_relative_to((tree / "src").resolve()):
            raise RuntimeError(f"{tree} imports capscale from {where}")

    def send(self, argv, full=False):
        self.proc.stdin.write(json.dumps([full, list(argv)]) + "\n")
        self.proc.stdin.flush()

    def receive(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("a worker ended early")
        return line.rstrip("\n")

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def command_lines(directory: Path):
    """(label, argv) of every run, channel files written into directory."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    def channel(name, cfg):
        (directory / name).write_text(json.dumps(cfg), encoding="utf-8")
        return name

    damping = workloads.WORKLOADS["periodic-damping"]
    simulate = workloads.WORKLOADS["random-simulate"]
    for i in range(min(damping.pool_size, simulate.pool_size)):
        lines = [(" ".join(c), c) for c in COMMANDS]
        lines.append(("simulate (pool)", simulate.pool_entry(i).argv))
        lines += [(" ".join(("simulate", *extra)), ("simulate", *extra)) for extra in SIMULATE]
        for pool in (damping, simulate):
            path = channel(f"{pool.name}-{i}.json", pool.pool_entry(i).channel)
            for fmt in ("csv", "json"):
                for label, (command, *options) in lines:
                    yield f"{pool.name}: {label}", [command, path, *options, "--format", fmt]
    generic = workloads.WORKLOADS["periodic-generic"]
    for k in range(GENERIC_OPS):
        op = generic.op(GENERIC_SEED, k)
        path = channel(f"periodic-generic-{k}.json", op.channel)
        for fmt in ("csv", "json"):
            yield "periodic-generic " + " ".join(op.argv), [*op.argv, path, "--format", fmt]
    cases = json.loads((ROOT / "tests" / "parser_bytes.json").read_text("utf-8"))["cases"]
    for case in cases:
        yield "parser_bytes", case["argv"]


def first_difference(a, b) -> tuple[str, str]:
    """Each side's first differing line of [exit code, stdout, stderr]."""
    for name, x, y in zip(("exit", "stdout", "stderr"), a, b):
        if x == y:
            continue
        if name == "exit":
            return f"exit {x}", f"exit {y}"
        xs, ys = x.splitlines(keepends=True), y.splitlines(keepends=True)
        n = next((i for i, (u, v) in enumerate(zip(xs, ys)) if u != v), min(len(xs), len(ys)))
        return tuple(
            f"{name} line {n + 1}: " + (repr(lines[n]) if n < len(lines) else "(none)")
            for lines in (xs, ys)
        )
    return "", ""


def compare(parent: Path, change: Path) -> int:
    counts = {}  # label -> Counter of "identical" / "differing"
    first = None
    with tempfile.TemporaryDirectory() as tmp:
        runs = list(command_lines(Path(tmp)))
        workers = []
        try:
            for tree in (parent, change):
                workers.append(Worker(tree, tmp))
            for label, argv in runs:
                for w in workers:
                    w.send(argv)
                same = len({w.receive() for w in workers}) == 1
                counts.setdefault(label, Counter())["identical" if same else "differing"] += 1
                if not same and first is None:
                    for w in workers:
                        w.send(argv, full=True)
                    first = argv, first_difference(*(json.loads(w.receive()) for w in workers))
        finally:
            for w in workers:
                w.close()
    total = Counter()
    for label, c in counts.items():
        total += c
        print(f"{label}: {c['identical']} identical, {c['differing']} differing")
    print(f"all {sum(total.values())} runs: "
          f"{total['identical']} identical, {total['differing']} differing")
    if first is not None:
        argv, (p, c) = first
        print(f"first difference: capscale {' '.join(argv)}")
        print(f"  parent: {p}")
        print(f"  change: {c}")
    return 1 if total["differing"] else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    try:
        return compare(args.parent.resolve(), args.change.resolve())
    except (OSError, RuntimeError) as e:
        print(f"same_bytes: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(worker() if sys.argv[1:] == ["--worker"] else main())
