"""The public surface is pinned, so a change to it has to be deliberate."""

import ast
import functools
import io
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import capscale
from conftest import damping_channel_file, run_to_file

PUBLIC = """
    BranchSupremum CapacityReport MemoryChannel NumericalError OptResult QubitChannel
    RandomScaleReport ScaleEntry StaircaseRow SubsetScale ValidationError
    __version__ chi_mirror_family compute_capacity_report
    compute_random_scale_report empirical_staircase kraus_operators maximize_concave_1d
    per_branch_suprema scale_r subset_scale_value
""".split()

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_public_surface():
    assert sorted(capscale.__all__) == PUBLIC
    assert len(set(capscale.__all__)) == len(capscale.__all__) == 21
    for name in capscale.__all__:
        getattr(capscale, name)  # every name resolves


def test_readme_library_example_and_entry_points():
    section = README.read_text(encoding="utf-8").split("## Library example\n")[1]
    section = section.split("\n## ")[0]
    code = section.split("```python\n")[1].split("```")[0]
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().strip()
    # every name in the first column of the "Key entry points" table is an
    # attribute path of capscale
    rows = [line for line in section.split("Key entry points:")[1].splitlines()
            if line.startswith("| `")]
    names = [name for row in rows for name in re.findall(r"`([\w.]+)", row.split("|")[1])]
    assert "per_branch_suprema" in names and len(names) >= 10
    for name in names:
        functools.reduce(getattr, name.split("."), capscale)


def test_library_loads_no_test_dependency():
    # numpy is the one runtime dependency: importing the library and its
    # command line loads none of the tests' mpmath, hypothesis or pytest,
    # nor scipy
    code = "import sys, capscale, capscale.cli; print(capscale.__file__); print(*sys.modules)"
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    where, loaded = proc.stdout.splitlines()
    assert Path(where).resolve().parent == ROOT / "src" / "capscale"
    assert "numpy" in loaded.split()
    top = {name.split(".")[0] for name in loaded.split()}
    assert not top & {"mpmath", "scipy", "hypothesis", "pytest", "_pytest"}


def printing(source):
    """The lines of source that call print or touch sys.stdout or sys.stderr."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "print":
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr"):
            if isinstance(node.value, ast.Name) and node.value.id == "sys":
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            if {alias.name for alias in node.names} & {"stdout", "stderr"}:
                lines.append(node.lineno)
    return sorted(lines)


def test_library_never_prints():
    # only the command line writes to the standard streams; the library
    # returns dataclasses and reports through logging
    caught = "import sys\nfrom sys import stderr\nprint(1)\nsys.stdout.write('')\nw = sys.stderr\n"
    assert printing(caught) == [2, 3, 4, 5]
    modules = sorted((ROOT / "src" / "capscale").glob("*.py"))
    assert len(modules) >= 8
    for path in modules:
        if path.name != "cli.py":
            assert printing(path.read_text(encoding="utf-8")) == [], path.name


def test_readme_csv_columns_are_the_written_headers(tmp_path):
    # every backticked header in the command table is the first line that
    # command writes; capacity's row names the commands whose header it shares
    table = README.read_text(encoding="utf-8").split("| Command | Output | CSV columns |\n")[1]
    rows = {}
    for line in table.splitlines()[1:]:
        if not line.startswith("|"):
            break
        command, _, columns = (cell.strip() for cell in line.strip("|").split("|"))
        rows[re.match(r"`([\w-]+)", command).group(1)] = re.findall(r"`([^`]+)`", columns)
    (tmp_path / "periodic").mkdir()
    (tmp_path / "random").mkdir()
    periodic = damping_channel_file(tmp_path / "periodic", (0.1, 0.4), {"kind": "periodic"})
    rand = damping_channel_file(tmp_path / "random", (0.1, 0.4), {"kind": "random", "q": [0.5] * 2})
    argvs = {
        "chi": ["chi", periodic],
        "amax": ["amax", periodic],
        "scale": ["scale", periodic],
        "random-scale": ["random-scale", rand],
        "ad-gap": ["ad-gap", "--grid", "2"],
        "staircase": ["staircase", periodic],
        "simulate": ["simulate", periodic, "--rate", "0.1", "--trials", "10"],
    }

    def header(argv):
        rc, text = run_to_file(tmp_path, argv)
        assert rc == 0, argv
        return text.splitlines()[0]

    assert set(rows) == set(argvs) | {"capacity"}
    for command, argv in argvs.items():
        assert rows[command] == [header(argv)], command
    assert rows["capacity"] == ["scale", "random-scale"]
    assert header(["capacity", periodic]) == rows["scale"][0]
    assert header(["capacity", rand]) == rows["random-scale"][0]
