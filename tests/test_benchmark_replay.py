"""The benchmark's ``table-compare`` pool, replayed in-process: every pool
market's ``compare`` must exit with the code and print the stdout bytes that
``perfbench/manifest.json`` records, so a byte change in ``compare`` fails
the tests and not only a benchmark run.  The markets are the ones
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


def _bench_gen():
    """``perfbench/gen.py``, loaded from the file under its own name."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", BENCH / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def test_table_compare_pool_matches_the_manifest(tmp_path, monkeypatch):
    monkeypatch.delenv("WALRAS_BUDGET", raising=False)
    gen = _bench_gen()
    entries = json.loads((BENCH / "manifest.json").read_text(encoding="utf-8"))["entries"]
    # A 25-s run draws each pool market exactly once.
    commands = gen.write_plan("table-compare", 1, gen.rounds_for("table-compare", 25),
                              str(tmp_path))
    pool = {key for key in entries if key.startswith("table-compare/")}
    assert {cmd["key"] for cmd in commands} == pool and len(commands) == len(pool)
    for cmd in commands:
        want = entries[cmd["key"]]
        assert cmd["instance_sha256"] == want["instance_sha256"], cmd["key"]
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run_command(cmd["argv"])
        assert (code, err.getvalue()) == (want["exit"], ""), cmd["key"]
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == \
            want["stdout_sha256"], cmd["key"]
