"""The fault-injection list of ``mutants.py`` stays current, and a sample
of its entries is killed; ``python tests/mutants.py`` runs them all."""

import shutil
import subprocess
import sys

import mutants


def test_every_snippet_occurs_once():
    assert mutants.stale() == []


def test_two_entries_are_killed():
    """A witness entry, the M-natural exchange fault and one of the
    descent's raise path, after the clean run of their tests."""
    proc = subprocess.run([sys.executable, mutants.__file__, "lnat-witness-max", "mnat-lt-le",
                           "one-step-end-read-skipped"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "3 of 3 killed"


def test_a_test_failing_before_any_fault_stops_the_run(monkeypatch, capsys):
    """A test that fails on the clean copy is named, and no fault is
    planted, so its failure cannot count as a kill."""
    calls = []

    def failing(cmd, **kwargs):
        calls.append(cmd)
        return subprocess.CompletedProcess(
            cmd, 1, stdout="FAILED tests/test_lnat.py::TestMinimize::test_x - AssertionError\n",
            stderr="")

    monkeypatch.setattr(mutants.subprocess, "run", failing)
    assert mutants.main(["lnat-witness-max"]) == 1
    out = capsys.readouterr().out
    assert "tests fail before any fault is planted" in out
    assert "tests/test_lnat.py::TestMinimize::test_x" in out
    assert len(calls) == 1 and "-rfE" in calls[0]
    assert f"--hypothesis-seed={mutants.HYPOTHESIS_SEED}" in calls[0]


def test_a_timed_out_entry_is_an_error(monkeypatch, tmp_path):
    """A run past the timeout is reported as an error, and the planted file
    is put back."""
    entry = mutants.MUTANTS[0]
    target = tmp_path / "src" / "walras" / entry.path
    target.parent.mkdir(parents=True)
    shutil.copy(mutants.ROOT / "src" / "walras" / entry.path, target)
    original = target.read_text(encoding="utf-8")

    def expire(cmd, **kwargs):
        assert entry.fault in target.read_text(encoding="utf-8")
        raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])

    monkeypatch.setattr(mutants.subprocess, "run", expire)
    assert mutants.run(entry, tmp_path) == "error (timed out)"
    assert target.read_text(encoding="utf-8") == original
