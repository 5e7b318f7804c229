"""Benchmark of the capscale command line, run in process on generated channel files.

    python3 perfbench/run.py --workload periodic-damping --seed 1 --seconds 32 --trace 0

Each op is one ``capscale.cli.main(argv)`` call that reads a channel file
and writes its JSON output to a file; the output is checked after the timed
phase (see checker.py). capscale is imported from this checkout's ``src/``.

``--trace 0`` times a fixed, even number of ops back to back: as many as
take ``--seconds`` on a host whose calibration kernel takes ``CAL_REF_S``
(see ``planned_ops``), so that ``attempted`` and ``failed`` repeat exactly
between runs of the same code. The run stops early, after a whole pair of
ops, only if their summed wall time passes ``CAP`` times ``--seconds``.
``--trace 1`` runs a fixed number of ops once untraced and twice traced
(tracer.py), checks that both traced passes give identical counts, and
reports the per-layer metrics of the first traced pass plus the tracing
overhead.

A fixed calibration kernel runs between ops. The host's CPU speed moves
between states up to 1.8x apart within seconds, so an op's wall time divided
by the kernel's time measured next to it (unit ``cal``) is the gated measure
of op cost; raw wall times are printed next to it. Set-up time is divided
by the kernel's mean time over ``SETUP_CAL_REPS`` runs just before and after
set-up, and reported as ``setup_s`` in seconds of a host whose kernel takes
``CAL_REF_S``; the raw seconds are printed as ``setup_raw_s``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``failed`` counts every op that exited nonzero
or failed its check. ``correct`` is false when the traced passes disagree
or an op failed in a way the documented known defect does not explain: the
seed's generic path gets the values of Haar-conjugated Kraus branches wrong,
so such an op may fail on values, but it must exit 0 with a well-formed
report whose values are finite and no greater than the truth.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import checker  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROBE_TIMEOUT_S = 120
# Set-up samples: this process, then fresh processes before and after the
# timed phase, so the median spans the run. Sample i warms up on op i.
PROBES_BEFORE = (1, 2, 3)
PROBES_AFTER = (4, 5, 6)
# setup_s is in seconds of a host on which calibration_s() takes this long.
CAL_REF_S = 0.005
SETUP_CAL_REPS = 8
# A timed phase stops early once its summed op time passes CAP * --seconds.
CAP = 1.25


def import_capscale_cli():
    """Import capscale.cli from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import capscale.cli

    if SRC.resolve() not in Path(capscale.cli.__file__).resolve().parents:
        raise ImportError(f"capscale was imported from {capscale.cli.__file__}, not {SRC}")
    return capscale.cli


def work_root() -> Path:
    """Scratch space inside the checkout (the benchmark writes nowhere else)."""
    path = ROOT / ".perfbench"
    path.mkdir(exist_ok=True)
    return path


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def _commit():
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return res.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance() -> dict:
    return {
        "commit": _commit(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": _cpu_model(),
    }


def calibration_s() -> float:
    """Seconds taken by a fixed kernel of the kind of work an op does.

    Scalar float math in Python plus small numpy calls, about 5 ms.
    """
    t0 = time.perf_counter()
    s = 0.0
    for i in range(1, 6000):
        x = i / 6000.0
        s -= x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x)
    m = numpy.eye(2)
    for i in range(250):
        s += numpy.linalg.eigvalsh(m * i)[0]
    return time.perf_counter() - t0


def setup_calibration_s() -> float:
    """Mean of several calibration times.

    One 5 ms sample catches the host in a single speed state; the mean over
    SETUP_CAL_REPS tracks the speed around a set-up of about half a second.
    """
    return statistics.fmean(calibration_s() for _ in range(SETUP_CAL_REPS))


def run_op(cli, op, work, tag):
    """Write op's channel file, run the command, return (exit code, seconds, output path)."""
    inp = Path(work) / f"{tag}.in.json"
    out = Path(work) / f"{tag}.out.json"
    inp.write_text(json.dumps(op.channel), encoding="utf-8")
    argv = [*op.argv, "--format", "json", "--output", str(out), str(inp)]
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 2
    except Exception:  # an op that crashes is a failed op, not a failed benchmark
        rc = 1
        traceback.print_exc()
    return rc, time.perf_counter() - t0, out


@dataclass(frozen=True)
class OpRecord:
    op: workloads.Op
    rc: int
    out: Path
    seconds: float
    cal: float  # seconds / calibration seconds measured around the op


def planned_ops(wl, seconds) -> int:
    """Even number of ops that take `seconds` on the reference host.

    Every other periodic-generic op has the known defect, so an even count
    fails the same number of ops in every run of the same code.
    """
    return 2 * max(1, round(seconds / wl.op_s / 2))


def run_ops(cli, ops, work, tag, cap_s=math.inf, trace=None) -> list[OpRecord]:
    """Run ops back to back; stop after a whole pair once their summed time passes cap_s."""
    records, busy, before = [], 0.0, calibration_s()
    for j, op in enumerate(ops):
        if busy >= cap_s and j % 2 == 0:
            break
        if trace is not None:
            trace.op = j
        rc, dt, out = run_op(cli, op, work, f"{tag}{j}")
        after = calibration_s()
        records.append(OpRecord(op, rc, out, dt, 2.0 * dt / (before + after)))
        busy += dt
        before = after
    return records


def op_problems(wl, r):
    """Returns (problems, excused); only the known defect's value mismatches are excused."""
    if r.rc != 0:
        return [f"exit code {r.rc}"], False
    out, problems = checker.load_output(r.out)
    if problems:
        return problems, False
    problems = wl.check(r.op, out)
    if not problems or not r.op.known_defect:
        return problems, False
    unexcused = wl.defect_check(r.op, out)
    return unexcused + problems, not unexcused


def check_ops(wl, records):
    """Returns (failed ops, failed ops not excused as the known defect)."""
    failed = unexpected = 0
    for r in records:
        problems, excused = op_problems(wl, r)
        if problems:
            failed += 1
            if not excused:
                unexpected += 1
                print(f"# FAILED {r.op.argv[0]} {r.op.meta}: {problems[:3]}", file=sys.stderr)
    return failed, unexpected


def setup_probe(args, k) -> tuple[float, float]:
    """Set-up time (raw, calibrated) of a fresh process whose warm-up op is op k."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
        "--setup-probe", str(k),
    ]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if res.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {res.stderr.strip()[-2000:]}")
    return tuple(json.loads(res.stdout.strip().splitlines()[-1])["setup"])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _print_table(metrics):
    for name, m in metrics.items():
        print(f"# {name:42s} {m['value']:>16.6g} {m['unit']}")


def timed_run(args, cli, wl, work, setup):
    setup += [setup_probe(args, k) for k in PROBES_BEFORE]
    first = max(PROBES_AFTER) + 1
    planned = planned_ops(wl, args.seconds)
    ops = (wl.op(args.seed, k) for k in range(first, first + planned))
    records = run_ops(cli, ops, work, "op", cap_s=CAP * args.seconds)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup += [setup_probe(args, k) for k in PROBES_AFTER]
    failed, unexpected = check_ops(wl, records)

    n = len(records)
    wall = [r.seconds for r in records]
    rel = [r.cal for r in records]
    metrics = {
        "op_p50_cal": _metric(statistics.median(rel), "cal"),
        "op_mean_cal": _metric(statistics.fmean(rel), "cal"),
        "setup_s": _metric(statistics.median(c for _, c in setup), "s"),
        "peak_rss_mib": _metric(peak_rss_mib, "MiB"),
    }
    p90 = statistics.quantiles(wall, n=10)[-1] if n >= 2 else wall[0]
    shown = {
        "op_p50_ms": _metric(1e3 * statistics.median(wall), "ms"),
        "op_p90_ms": _metric(1e3 * p90, "ms"),
        "ops_per_s": _metric(n / sum(wall), "1/s"),
        "fail_frac": _metric(failed / n, "ratio"),
        "setup_raw_s": _metric(statistics.median(r for r, _ in setup), "s"),
    }
    _print_table(metrics)
    _print_table(shown)
    print(f"# {n} ops, {failed} failed; op_p90_ms has {n // 10} samples beyond it")
    print(f"# setup samples (raw s, calibrated s): {[tuple(round(x, 4) for x in s) for s in setup]}")
    if n < planned:
        print(f"# stopped after {n} of {planned} ops: they took {sum(wall):.1f} s")
    return {"correct": unexpected == 0, "attempted": n, "failed": failed, "metrics": metrics}


def traced_run(args, cli, wl, work):
    ops = [wl.op(args.seed, 1 + j) for j in range(wl.trace_ops)]
    plain = run_ops(cli, ops, work, "plain")
    passes = []
    for tag in ("traced-a", "traced-b"):
        with tracer.Tracer() as t:
            records = run_ops(cli, ops, work, tag, trace=t)
        out_bytes = sum(r.out.stat().st_size for r in records if r.out.exists())
        passes.append((t, records, {**t.counts(), "cli.output_bytes": out_bytes}))
    (t, traced, counts_a), (_, traced_b, counts_b) = passes
    mismatched = sorted(k for k in counts_a if counts_a[k] != counts_b.get(k))
    failed, unexpected = check_ops(wl, plain + traced + traced_b)

    def p50(records):
        return statistics.median(r.cal for r in records)

    metrics = {name: _metric(v, u) for name, (v, u) in t.layer_metrics().items()}
    metrics["cli.output_bytes"] = _metric(counts_a["cli.output_bytes"], "bytes")
    metrics["trace.overhead_frac"] = _metric(p50(traced) / p50(plain) - 1.0, "ratio")
    _print_table(metrics)
    print(f"# {len(ops)} ops per pass; op_p50_cal untraced {p50(plain):.6g}, traced {p50(traced):.6g}")
    print(f"# absent boundaries: {t.absent or 'none'}")
    print(f"# counts repeat across the two traced passes: {not mismatched}")
    if mismatched:
        print(f"# mismatched counts: {mismatched}")
    spans_path = work_root() / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(
        json.dumps({"fields": ["id", "parent", "op", "name", "start_s", "dur_s"], "spans": t.spans}),
        encoding="utf-8",
    )
    print(f"# spans of the first traced pass: {spans_path.relative_to(ROOT)}")
    return {
        "correct": unexpected == 0 and not mismatched,
        "attempted": 3 * len(ops),
        "failed": failed,
        "metrics": metrics,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="capscale CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if max(PROBES_AFTER) + 1 + planned_ops(wl, args.seconds) > wl.max_ops():
        parser.error(f"--seconds {args.seconds} needs more inputs than {wl.name} has")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    t_cal = time.perf_counter()
    cal_before = setup_calibration_s()
    t_cal = time.perf_counter() - t_cal  # taken out of the set-up time below
    cli = import_capscale_cli()
    wl = workloads.WORKLOADS[args.workload]
    work = tempfile.mkdtemp(dir=work_root())
    try:
        run_op(cli, wl.op(args.seed, args.setup_probe or 0), work, "warm")
        raw = time.perf_counter() - _T0 - t_cal
        setup = (raw, CAL_REF_S * 2.0 * raw / (cal_before + setup_calibration_s()))
        if args.setup_probe is not None:
            print(json.dumps({"setup": setup}))
            return 0
        if args.trace:
            result = traced_run(args, cli, wl, work)
        else:
            result = timed_run(args, cli, wl, work, [setup])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"# provenance {json.dumps(provenance())}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
