"""The public surface is pinned, so a change to it has to be deliberate."""

import functools
import io
import re
from contextlib import redirect_stdout
from pathlib import Path

import capscale

PUBLIC = """
    BranchSupremum CapacityReport MemoryChannel NumericalError OptResult QubitChannel
    RandomScaleReport ScaleEntry SimResult StaircaseRow Strategy SubsetScale ValidationError
    __version__ chi_mirror_family compute_capacity_report
    compute_random_scale_report dchi_da_ad empirical_staircase find_root_bisection
    kraus_operators maximize_concave_1d per_branch_suprema run_trials scale_r
    subset_scale_value success_oracle
""".split()

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_surface():
    assert sorted(capscale.__all__) == PUBLIC
    assert len(set(capscale.__all__)) == len(capscale.__all__) == 27
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
