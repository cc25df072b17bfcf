"""The fault-injection list of ``mutants.py`` stays current, and a sample
of its entries is killed; ``python tests/mutants.py`` runs them all."""

import subprocess
import sys

import mutants


def test_every_snippet_occurs_once():
    assert mutants.stale() == []


def test_two_entries_are_killed():
    proc = subprocess.run([sys.executable, mutants.__file__, "lnat-witness-max", "mnat-lt-le"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "2 of 2 killed"
