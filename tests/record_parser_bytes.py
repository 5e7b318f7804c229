"""Record tests/parser_bytes.json: what ``capscale`` prints for each of its argv.

    PYTHONPATH=src python3.11 tests/record_parser_bytes.py

Every case of the file is run again through ``capscale.cli.main`` with
COLUMNS=80, and its exit code, stdout and stderr are written back in the
file's shape. To add a case, append ``{"argv": [...]}`` to "cases" and run
this. argparse words some messages differently across Python versions, so
the file is recorded on the version it names, 3.11.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

PATH = Path(__file__).with_name("parser_bytes.json")
PYTHON, COLUMNS = "3.11", 80


def record(main, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> int:
    if "%d.%d" % sys.version_info[:2] != PYTHON:
        sys.exit(f"record with Python {PYTHON}, not {sys.version.split()[0]}")
    os.environ["COLUMNS"] = str(COLUMNS)
    from capscale.cli import main as capscale_main

    argvs = [case["argv"] for case in json.loads(PATH.read_text("utf-8"))["cases"]]
    cases = [record(capscale_main, argv) for argv in argvs]
    data = {"python": PYTHON, "columns": COLUMNS, "cases": cases}
    PATH.write_text(json.dumps(data, indent=1) + "\n", "utf-8", newline="\n")
    print(f"{PATH}: {len(cases)} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
