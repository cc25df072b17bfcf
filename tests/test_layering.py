"""Module layering: the package imports only itself and the standard
library, the solver modules never import the oracle, only the
demand cache's constructor reads a valuation family, each public solver
function and cache or oracle method has a caller, only ``ascending_auction``
takes shared state from its caller, every name the benchmark's span
tracer patches stays where the tracer looks, and importing the CLI leaves
``dataclasses``, ``inspect`` and the oracle unloaded."""

import ast
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import walras
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


def test_cli_import_loads_no_dataclasses_inspect_or_oracle():
    """``import walras.cli`` loads neither ``dataclasses`` (nor ``inspect``,
    which it pulls in) nor the brute-force ``oracle``; the package's oracle
    exports load on first use, and ``dir(walras)`` lists them."""
    code = ("import sys, walras.cli; "
            "print(sorted({'dataclasses', 'inspect', 'walras.oracle'} & sys.modules.keys()))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert out.stdout == "[]\n", out.stdout
    from walras import (all_lyapunov_minimizers, allocation_certifies,  # noqa: F401
                        bidders_demanding_some, bidders_only_demanding,
                        brute_force_min_equilibrium, certified_meet, deficiency,
                        demand_set, equilibrium_prices_by_enumeration, gp_minimal_table,
                        is_excess_demand, is_gp_minimal, is_overdemanded, lyapunov_step,
                        lyapunov_value, mu, price_cap, separable_p_min,
                        unit_demand_set)
    imported = {name: value for name, value in locals().items()
                if name in walras._ORACLE_EXPORTS}
    assert imported.keys() == walras._ORACLE_EXPORTS <= set(dir(walras))
    oracle = vars(sys.modules["walras.oracle"])
    for name, value in imported.items():
        assert value is oracle[name], name
    with pytest.raises(AttributeError, match="has no attribute 'no_such_export'"):
        walras.no_such_export


def test_lyapunov_names_the_module_and_lyapunov_value_the_twin():
    """``walras.lyapunov`` is the submodule, not the oracle's twin, which
    the package exports as ``lyapunov_value``."""
    code = ("import walras.lyapunov as m; m.LyapunovOracle; "
            "from walras import lyapunov_value; import walras.oracle as o; "
            "print(lyapunov_value is o.lyapunov_value)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert out.stdout == "True\n", out.stdout


def test_strategy_kinds_have_no_aliases():
    """Each ``StrategyKind`` member names a rule of its own: the enum has no
    alias, and every CLI strategy flag maps to one of its members, so
    ``excess-maximal`` names ``STEEPEST_MINIMAL`` itself."""
    assert len(walras.StrategyKind.__members__) == len(walras.StrategyKind) == 3
    assert set(walras.cli.STRATEGY_FLAGS.values()) <= set(walras.StrategyKind.__members__.values())
    assert walras.cli.STRATEGY_FLAGS["excess-maximal"] is walras.StrategyKind.STEEPEST_MINIMAL


def test_imports_are_package_relative_or_stdlib():
    """The package declares no dependencies: every import in ``src/walras``
    is package-relative or names a standard-library module."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r"^dependencies = \[\]$", pyproject, re.M)
    found = []
    for path in sorted((ROOT / "src" / "walras").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [] if node.level else [node.module]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            found.extend(f"{path.name}:{node.lineno} imports {name}" for name in names
                         if name.split(".")[0] not in sys.stdlib_module_names)
    assert not found, found


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


FAMILY_CONSTANTS = {"UNIT_DEMAND", "SEPARABLE_CONCAVE", "EXPLICIT_TABLE"}


@pytest.mark.parametrize("module, allowed", [("auction", ()), ("lyapunov", ()),
                                             ("demand", ("DemandCache.__init__",))])
def test_only_the_demand_cache_constructor_reads_a_family(module, allowed):
    """``DemandCache.__init__`` is the one place a valuation family decides
    how a bidder is read: everywhere else in the solver layers, a family
    constant or a ``.family`` read is a second place.  Only a module with an
    allowed scope may import a family constant."""
    tree = ast.parse((ROOT / "src" / "walras" / f"{module}.py").read_text(encoding="utf-8"))
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.ImportFrom) and not allowed:
                found.extend(f"{module}.py:{child.lineno} imports {alias.name}"
                             for alias in child.names if alias.name in FAMILY_CONSTANTS)
            elif ((isinstance(child, ast.Name) and child.id in FAMILY_CONSTANTS
                   or isinstance(child, ast.Attribute) and child.attr == "family")
                  and scope not in allowed):
                found.append(f"{module}.py:{child.lineno} in {scope or 'module scope'}")
            visit(child, inner)

    visit(tree, "")
    assert not found, found


def _exported_callables():
    """``(name, callable)`` for every public function ``walras`` exports and
    for the constructor and public methods of every class it exports."""
    def ours(fn):
        return (getattr(fn, "__module__", None) or "").startswith("walras.")

    for name in dir(walras):
        if name.startswith("_"):
            continue
        obj = getattr(walras, name)
        if inspect.isfunction(obj) and ours(obj):
            yield name, obj
        elif inspect.isclass(obj) and ours(obj):
            for attr, member in inspect.getmembers(obj, inspect.isroutine):
                if (attr == "__init__" or not attr.startswith("_")) and ours(member):
                    yield f"{name}.{attr}", member


def test_only_the_auction_takes_shared_state():
    """A ``LyapunovOracle`` built from ``(instance, budget)`` is the only state
    the library shares between calls, and only ``ascending_auction`` takes
    one: no exported function, constructor or method takes a ``demand``
    cache, and none but ``ascending_auction`` an ``oracle``."""
    checked = dict(_exported_callables())
    assert {"ascending_auction", "LyapunovOracle.__init__", "verify_equilibrium",
            "extract_allocation", "brute_force_min_equilibrium",
            "DemandCache.demand_set"} <= checked.keys()
    found = []
    for name, fn in checked.items():
        params = inspect.signature(fn).parameters
        if "demand" in params or "oracle" in params and name != "ascending_auction":
            found.append(name)
    assert not found, found


def _referenced_names(path):
    """Every name the module reads, bare or as an attribute."""
    return _names(ast.parse(path.read_text(encoding="utf-8")))


def _names(node, skip=None):
    """Every name read under ``node``, bare or as an attribute, outside the
    subtree ``skip``."""
    names = set()
    todo = [node]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        todo.extend(ast.iter_child_nodes(node))
    return names


def _span_tracer():
    """``perfbench/spans.py``'s tracer, loaded from the file without installing it."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.Tracer()


@pytest.mark.parametrize("module", ["auction", "demand", "lyapunov", "lnat", "oracle"])
def test_every_public_solver_function_has_a_caller(module):
    """A public solver function that no library code calls and the README
    does not offer is a second path kept for its own test: it belongs in
    ``oracle`` or nowhere.  Re-exports in ``__init__`` are not calls.  The
    same rule keeps test-only second forms out of ``oracle``, whose twins
    may also be offered by export from ``walras`` (its lazy export table)."""
    src = ROOT / "src" / "walras"
    tree = ast.parse((src / f"{module}.py").read_text(encoding="utf-8"))
    public = [node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    used = set().union(*(_referenced_names(path) for path in src.glob("*.py")))
    if module == "oracle":
        used |= walras._ORACLE_EXPORTS
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    orphans = [name for name in public
               if name not in used and not re.search(rf"\b{name}\b", readme)]
    assert not orphans, f"{module}.py: no caller in src/ or the README: {orphans}"


@pytest.mark.parametrize("cls", [DemandCache, LyapunovOracle], ids=lambda cls: cls.__name__)
def test_every_public_cache_and_oracle_method_has_a_caller(cls):
    """The same rule for the public methods of the demand cache and the
    Lyapunov oracle: each needs a reference in the library outside its own
    body, or must be a name the benchmark's span tracer patches."""
    src = ROOT / "src" / "walras"
    home = src / f"{cls.__module__.rsplit('.', 1)[1]}.py"
    tree = ast.parse(home.read_text(encoding="utf-8"))
    body = next(node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == cls.__name__).body
    elsewhere = set().union(*(_referenced_names(path) for path in src.glob("*.py")
                              if path != home))
    tracer = _span_tracer()
    tracer._build_patches()
    patched = {attr for owner, attr, _, _ in tracer._patches if owner is cls}
    orphans = [node.name for node in body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
               and node.name not in elsewhere | patched | _names(tree, skip=node)]
    assert not orphans, f"{cls.__name__}: no caller in src/ and no span: {orphans}"


def test_span_tracer_patches_and_restores_every_name():
    """``perfbench/spans.py`` patches names by attribute; a moved name makes
    ``install`` fail, and ``uninstall`` must put every original back."""
    owners = (walras.auction, walras.cli, walras.instance, walras.lnat,
              DemandCache, LyapunovOracle)
    before = [dict(vars(owner)) for owner in owners]
    tracer = _span_tracer()
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
