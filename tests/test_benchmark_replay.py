"""The benchmark's four pools, replayed in-process: every pool market's
``compare`` and ``solve`` must exit with the code and print the stdout
bytes that ``perfbench/manifest.json`` records, and every ``verify`` must
exit with its code and print its per-check verdicts, so a change in either
fails the tests and not only a benchmark run.  The markets are the ones
``perfbench/gen.py`` writes; nothing under ``perfbench/`` is changed."""

import hashlib
import importlib.util
import json
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from walras.cli import run_command

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def _bench_module(name):
    """``perfbench/<name>.py``, loaded from the file under its own name."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _replay(workload, tmp_path, monkeypatch):
    """Run every pool command of ``workload`` once, as a 25-s run draws
    them, and yield each with its manifest entry, exit code, stdout and
    stderr."""
    monkeypatch.delenv("WALRAS_BUDGET", raising=False)
    gen = _bench_module("gen")
    entries = json.loads((BENCH / "manifest.json").read_text(encoding="utf-8"))["entries"]
    commands = gen.write_plan(workload, 1, gen.rounds_for(workload, 25), str(tmp_path))
    pool = {key for key in entries if key.startswith(f"{workload}/")}
    assert {cmd["key"] for cmd in commands} == pool and len(commands) == len(pool)
    for cmd in commands:
        want = entries[cmd["key"]]
        assert cmd["instance_sha256"] == want["instance_sha256"], cmd["key"]
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run_command(cmd["argv"])
        yield cmd, want, code, out.getvalue(), err.getvalue()


def test_table_compare_pool_matches_the_manifest(tmp_path, monkeypatch):
    for cmd, want, code, out, err in _replay("table-compare", tmp_path, monkeypatch):
        assert (code, err) == (want["exit"], ""), cmd["key"]
        assert hashlib.sha256(out.encode()).hexdigest() == want["stdout_sha256"], cmd["key"]


def test_table_compare_pool_solves_match_the_recorded_digests(tmp_path, monkeypatch):
    """Every table-compare pool market under ``solve``, each rule in JSON and
    CSV: exit 0, empty stderr and the stdout digest that
    ``tests/golden/table_compare_solve.json`` records, keyed
    ``<rung>/<k> <strategy> <format>``.  The manifest records these markets
    under ``compare`` alone, which prints no allocation; the digests also
    pin the trajectories and allocations ``solve`` prints."""
    monkeypatch.delenv("WALRAS_BUDGET", raising=False)
    gen = _bench_module("gen")
    entries = json.loads((BENCH / "manifest.json").read_text(encoding="utf-8"))["entries"]
    digests = json.loads((ROOT / "tests" / "golden" / "table_compare_solve.json")
                         .read_text(encoding="utf-8"))
    seen = set()
    for rung, k in gen.pool_ids("table-compare"):
        text = gen.instance_text(gen.pool_market("table-compare", rung, k))
        want = entries[f"table-compare/{rung}/{k} compare"]["instance_sha256"]
        assert hashlib.sha256(text.encode()).hexdigest() == want, (rung, k)
        path = tmp_path / f"{rung}_{k}.json"
        path.write_text(text, encoding="utf-8")
        for strategy in gen.STRATEGIES:
            for fmt in ("json", "csv"):
                key = f"{rung}/{k} {strategy} {fmt}"
                out, err = StringIO(), StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = run_command(["solve", "--instance", str(path),
                                        "--strategy", strategy, "--format", fmt])
                assert (code, err.getvalue()) == (0, ""), key
                assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digests[key], key
                seen.add(key)
    assert seen == set(digests)


def _replay_every_entry(workload, per_market, tmp_path, monkeypatch):
    """Run every command the manifest records for ``workload``, a run's
    draw or not, ``per_market`` of them on each pool market, and check its
    exit code, empty stderr and stdout bytes."""
    monkeypatch.delenv("WALRAS_BUDGET", raising=False)
    gen = _bench_module("gen")
    entries = json.loads((BENCH / "manifest.json").read_text(encoding="utf-8"))["entries"]
    keys = sorted(key for key in entries if key.startswith(f"{workload}/"))
    assert len(keys) == per_market * len(gen.pool_ids(workload))
    for key in keys:
        market, *args = key.split(" ")
        _, rung, k = market.split("/")
        text = gen.instance_text(gen.pool_market(workload, int(rung), int(k)))
        want = entries[key]
        assert hashlib.sha256(text.encode()).hexdigest() == want["instance_sha256"], key
        path = tmp_path / f"{rung}_{k}.json"
        path.write_text(text, encoding="utf-8")
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run_command([args[0], "--instance", str(path), *args[1:]])
        assert (code, err.getvalue()) == (want["exit"], ""), key
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == want["stdout_sha256"], key


def test_multi_solve_pool_matches_the_manifest(tmp_path, monkeypatch):
    """The separable pool, both rules in both formats."""
    _replay_every_entry("multi-solve", 2 * 2, tmp_path, monkeypatch)


def test_unit_solve_pool_matches_the_manifest(tmp_path, monkeypatch):
    """The unit-demand pool under all four rules, whose JSON prints each
    market's unit allocation at p_min."""
    _replay_every_entry("unit-solve", len(_bench_module("gen").STRATEGIES), tmp_path, monkeypatch)


def test_verify_pool_matches_the_manifest(tmp_path, monkeypatch):
    """Each ``verify --check all`` exits with the recorded code and prints
    the recorded verdicts, read from its output as the benchmark reads
    them (``perfbench/worker.py``); the five negative controls exit 1."""
    summarize = _bench_module("worker").summarize_output
    exits = []
    for cmd, want, code, out, err in _replay("verify", tmp_path, monkeypatch):
        assert code == want["exit"], cmd["key"]
        assert summarize(cmd["argv"], out, err) == want["verdicts"], cmd["key"]
        exits.append(code)
    assert sorted(exits) == [0] * 10 + [1] * 5
