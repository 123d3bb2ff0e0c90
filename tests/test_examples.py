"""The README's library sketch and the quick demos run as documented
(demo 04, a full campaign, is left to the command line: it takes ~10 s)."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_sketch():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, "README.md", "exec"), {})


@pytest.mark.parametrize("name", [
    "01_tree_construction",
    "02_containment_analysis",
    "03_attestation_primitives",
])
def test_demo_runs(name, capsys):
    runpy.run_path(str(ROOT / "demos" / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out
