"""Module layering: the solver modules never import the oracle, and every
name the benchmark's span tracer patches stays where the tracer looks."""

import ast
import importlib.util
from pathlib import Path

import pytest

import walras.auction
import walras.cli
import walras.instance
import walras.lnat
from walras import DemandCache, LyapunovOracle

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("module", ["auction", "demand", "lyapunov", "lnat"])
def test_solver_module_never_imports_the_oracle(module):
    tree = ast.parse((ROOT / "src" / "walras" / f"{module}.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            assert "oracle" not in name.split("."), f"{module}.py:{node.lineno} imports {name}"


def test_span_tracer_patches_and_restores_every_name():
    """``perfbench/spans.py`` patches names by attribute; a moved name makes
    ``install`` fail, and ``uninstall`` must put every original back."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    owners = (walras.auction, walras.cli, walras.instance, walras.lnat,
              DemandCache, LyapunovOracle)
    before = [dict(vars(owner)) for owner in owners]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer._patches
        for owner, attr, original, wrapper in tracer._patches:
            assert owner in owners, (owner, attr)
            assert wrapper is not original and vars(owner)[attr] is wrapper, attr
    finally:
        tracer.uninstall()
    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert now.keys() == saved.keys(), owner
        for attr, value in saved.items():
            assert now[attr] is value, (owner, attr)
