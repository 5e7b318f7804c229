"""Record the reference outputs of a pooled workload.

    python3 perfbench/record_reference.py --workload periodic-damping

Runs the CLI of the checked-out tree on every pool entry and writes
``perfbench/reference/<workload>.json``. The committed files were recorded
at the seed commit; re-record only when a change is meant to alter these
outputs, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile

import checker
import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    pooled = sorted(n for n, w in workloads.WORKLOADS.items() if isinstance(w, workloads.PooledWorkload))
    parser.add_argument("--workload", required=True, choices=pooled)
    args = parser.parse_args(argv)
    cli = run.import_capscale_cli()
    wl = workloads.WORKLOADS[args.workload]
    entries = []
    with tempfile.TemporaryDirectory(dir=run.work_root()) as tmp:
        for i in range(wl.pool_size):
            op = wl.pool_entry(i)
            rc, _, out_path = run.run_op(cli, op, tmp, f"ref-{i}")
            out, problems = checker.load_output(out_path)
            if rc != 0 or problems:
                raise SystemExit(f"pool entry {i}: exit {rc}, {problems}")
            entries.append(wl.reference_entry(out))
            problems = wl.check_entry(op, out, entries[-1])
            if problems:
                raise SystemExit(f"pool entry {i} fails its own check: {problems}")
    path = workloads.REFERENCE_DIR / f"{args.workload}.json"
    header = {
        "workload": args.workload,
        "pool_key": wl.pool_key,
        "pool_size": wl.pool_size,
        "recorded_with": run.provenance(),
    }
    lines = [json.dumps(header)[:-1] + ', "entries": [']
    lines.append(",\n".join(json.dumps(e, separators=(",", ":")) for e in entries))
    lines.append("]}")
    path.parent.mkdir(exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
