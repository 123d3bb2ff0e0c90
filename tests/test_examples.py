"""The README's library sketch and the quick demos run as documented, and
its campaign config parses (demo 04 and that campaign are left to the
command line: they take ~10 s and minutes)."""

import re
import runpy
from pathlib import Path

import pytest

from spantree import parse_campaign_config

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_sketch():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, "README.md", "exec"), {})


def test_readme_campaign_config_parses():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```ini\n(.*?)```", text, re.S)
    cfg = parse_campaign_config(block)
    assert cfg.graph_spec == "er(63392,824096)"
    assert cfg.behaviors == ("disturb", "cheat", "honest")
    assert cfg.attack_edges == (25, 1000)
    assert cfg.analytic_only and not cfg.timestamp_header and cfg.lcc
    assert cfg.delta_c is None
    assert cfg.output == "results.csv"


@pytest.mark.parametrize("name", [
    "01_tree_construction",
    "02_containment_analysis",
    "03_attestation_primitives",
])
def test_demo_runs(name, capsys):
    runpy.run_path(str(ROOT / "demos" / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out


def test_benchmark_tracer_finds_its_targets():
    # bench/tracer.py wraps package functions by name (place_attack_edges,
    # bfs_distances_avoiding, attestation.extend, the step_honest_* pair,
    # ...) and bench/run.py calls spantree.place_attack_edges, so removing
    # one of them breaks the traced benchmark runs
    import importlib.util

    import spantree
    from spantree import protocol

    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    step = protocol.step_honest_attested
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        assert protocol.step_honest_attested is not step
    finally:
        tracer.uninstall()
    assert protocol.step_honest_attested is step
    assert callable(spantree.place_attack_edges)
