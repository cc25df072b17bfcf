"""Module layering: the solver modules never import the oracle, each of
their public functions has a caller, and every name the benchmark's span
tracer patches stays where the tracer looks."""

import ast
import importlib.util
import re
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


def test_lyapunov_tests_no_model_or_family():
    """The Lyapunov oracle reads bidders by the groups ``DemandCache``
    sorted them into: it names no model or family constant and reads no
    ``.model`` or ``.family`` attribute."""
    path = ROOT / "src" / "walras" / "lyapunov.py"
    names = _referenced_names(path)
    names.update(alias.name for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.ImportFrom) for alias in node.names)
    banned = {"UNIT", "MULTI", "UNIT_DEMAND", "SEPARABLE_CONCAVE", "EXPLICIT_TABLE",
              "model", "family"}
    assert not names & banned, sorted(names & banned)


def _referenced_names(path):
    """Every name the module reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("module", ["auction", "demand", "lyapunov", "lnat"])
def test_every_public_solver_function_has_a_caller(module):
    """A public solver function that no library code calls and the README
    does not offer is a second path kept for its own test: it belongs in
    ``oracle`` or nowhere.  Re-exports in ``__init__`` are not calls."""
    src = ROOT / "src" / "walras"
    tree = ast.parse((src / f"{module}.py").read_text(encoding="utf-8"))
    public = [node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    used = set().union(*(_referenced_names(path) for path in src.glob("*.py")))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    orphans = [name for name in public
               if name not in used and not re.search(rf"\b{name}\b", readme)]
    assert not orphans, f"{module}.py: no caller in src/ or the README: {orphans}"


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
