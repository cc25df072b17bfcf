"""Command-line behavior: subcommands, exit codes, determinism."""

import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from hashlib import sha256
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (EX21_JSON, random_multi_instance, random_unit_instance,
                      tabulate)
from walras import (Instance, LyapunovOracle, Valuation,
                    brute_force_min_equilibrium, deficiency, max_total_value,
                    parse_instance, serialize_instance, verify_equilibrium)
from walras.auction import UnitAllocation
from walras.cli import STRATEGY_FLAGS, _row_json, run_command

COMPLEMENTS_JSON = (
    '{"model": "multi", "n": 2, "m": 1, "u": [1, 1], "valuations": '
    '[{"family": "explicit_table", "entries": ['
    '{"x": [0, 0], "v": 0}, {"x": [1, 0], "v": 1}, '
    '{"x": [0, 1], "v": 1}, {"x": [1, 1], "v": 3}]}]}'
)

MULTI_JSON = (
    '{"model": "multi", "n": 1, "m": 2, "u": [2], "valuations": '
    '[{"family": "separable_concave", "marginals": [[3, 2]]}, '
    '{"family": "separable_concave", "marginals": [[3, 2]]}]}'
)

SAMPLES_DIR = Path(__file__).resolve().parent.parent / "sample_instances"
SAMPLES = sorted(SAMPLES_DIR.glob("*.json"))
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture
def ex21_path(tmp_path):
    path = tmp_path / "ex21.json"
    path.write_text(EX21_JSON)
    return str(path)


@pytest.fixture
def complements_path(tmp_path):
    path = tmp_path / "bad_complements.json"
    path.write_text(COMPLEMENTS_JSON)
    return str(path)


class TestSolve:
    def test_steepest_json(self, ex21_path, capsys):
        assert run_command(["solve", "--instance", ex21_path,
                            "--strategy", "steepest"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["p_final"] == [1, 1, 1]
        assert doc["iterations"] == 1
        assert doc["trajectory"][0]["chosen_items"] == [1, 2, 3]
        assert doc["trajectory"][0]["deficiency"] == 3
        assert doc["allocation"]["model"] == "unit"

    def test_minimal_overdemanded_two_steps(self, ex21_path, capsys):
        assert run_command(["solve", "--instance", ex21_path,
                            "--strategy", "minimal-overdemanded"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["iterations"] == 2
        assert [s["chosen_items"] for s in doc["trajectory"]] == [[1], [2, 3]]

    @pytest.mark.parametrize("text", [EX21_JSON, MULTI_JSON], ids=["ex21", "multi"])
    @pytest.mark.parametrize("strategy", sorted(STRATEGY_FLAGS))
    def test_step_columns_match_the_definitions(self, tmp_path, text, strategy, capsys):
        """Each step's deficiency is the chosen set's deficiency from demand
        primitives, its supply the set's units, and its demand their sum."""
        path = tmp_path / "market.json"
        path.write_text(text)
        assert run_command(["solve", "--instance", str(path),
                            "--strategy", strategy]) == 0
        doc = json.loads(capsys.readouterr().out)
        inst = parse_instance(text)
        assert doc["trajectory"]
        for step in doc["trajectory"]:
            items = step["chosen_items"]
            supply = sum(inst.u[i - 1] for i in items)
            assert step["chosen_mask"] == sum(1 << (i - 1) for i in items)
            assert step["deficiency"] == deficiency(set(items), tuple(step["p_before"]), inst)
            assert step["supply_units"] == supply
            assert step["demanded_units"] == step["deficiency"] + supply

    def test_csv_format(self, ex21_path, tmp_path):
        out = tmp_path / "run.csv"
        assert run_command(["solve", "--instance", ex21_path, "--strategy",
                            "minimal-overdemanded", "--format", "csv",
                            "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "iteration,p1,p2,p3,chosen_mask,chosen_items,lyapunov,deficiency"
        assert len(lines) == 3
        assert lines[1] == "1,0,0,0,1,1,6,1"
        assert lines[2] == "2,1,0,0,6,2;3,5,2"

    def test_solution_passes_verification(self, ex21_path, capsys):
        run_command(["solve", "--instance", ex21_path, "--strategy", "steepest"])
        doc = json.loads(capsys.readouterr().out)
        inst = parse_instance(EX21_JSON)
        alloc = UnitAllocation(assignment=tuple(doc["allocation"]["assignment"]))
        verdict = verify_equilibrium(inst, tuple(doc["p_final"]))
        assert verdict.equilibrium
        from walras import allocation_certifies
        assert allocation_certifies(inst, tuple(doc["p_final"]), alloc)

    def test_custom_start_file(self, ex21_path, tmp_path, capsys):
        start = tmp_path / "start.json"
        start.write_text("[1, 0, 0]")
        assert run_command(["solve", "--instance", ex21_path, "--strategy",
                            "steepest", "--start", str(start)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["start"] == [1, 0, 0]
        assert doc["p_final"] == [1, 1, 1]

    @pytest.mark.parametrize("prices", ["[2, 2, 2]", "[5, 0, 0]", "[1000, 1000, 1000]"])
    def test_start_above_the_minimal_price_exits_1(self, tmp_path, capsys, prices):
        sample = SAMPLES_DIR / "assignment_six_bidders.json"
        start = tmp_path / "start.json"
        start.write_text(prices)
        assert run_command(["solve", "--instance", str(sample), "--strategy",
                            "steepest", "--start", str(start)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "not the minimal equilibrium price" in err and "lowering items [1]" in err
        assert run_command(["oracle", "--instance", str(sample)]) == 0
        assert json.loads(capsys.readouterr().out)["min_equilibrium_price"] == [1, 1, 1]

    def test_separable_market_beyond_the_box_budget(self, tmp_path, capsys):
        """Ten items of three units each: the bundle box (4^10 bundles) is
        over the default budget, but separable bidders never scan it.  A
        separable Lyapunov function splits by item, so each price is the
        minimal equilibrium price of its one-item sub-market."""
        rng = random.Random(10)
        rows = [[sorted((rng.randint(0, 30) for _ in range(3)), reverse=True)
                 for _ in range(10)] for _ in range(2)]
        inst = Instance(model="multi", n=10, u=(3,) * 10,
                        valuations=tuple(Valuation.separable(r) for r in rows))
        path = tmp_path / "wide.json"
        path.write_text(serialize_instance(inst))
        assert run_command(["solve", "--instance", str(path), "--strategy", "steepest"]) == 0
        doc = json.loads(capsys.readouterr().out)
        expected = [brute_force_min_equilibrium(Instance(
            model="multi", n=1, u=(3,),
            valuations=tuple(Valuation.separable([r[j]]) for r in rows)))[0]
            for j in range(10)]
        assert doc["p_final"] == expected
        assert doc["allocation"] is not None

    def test_wide_separable_market_hits_the_table_budget(self, tmp_path, capsys):
        """21 single-unit items and two bidders: each step's deficiency
        tables would hold 3 * 2^21 entries, over the default budget, so the
        solve stops with a budget error instead of running unbounded."""
        inst = Instance(model="multi", n=21, u=(1,) * 21,
                        valuations=tuple(Valuation.separable([[2]] * 21) for _ in range(2)))
        path = tmp_path / "wider.json"
        path.write_text(serialize_instance(inst))
        assert run_command(["solve", "--instance", str(path), "--strategy", "steepest"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "budget" in err and "deficiency tables" in err

    def test_unit_market_tables_obey_the_budget(self, ex21_path, monkeypatch, capsys):
        """ex21's tables hold (6 + 1) * 2^3 = 56 entries."""
        monkeypatch.setenv("WALRAS_BUDGET", "50")
        assert run_command(["solve", "--instance", ex21_path, "--strategy", "steepest"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "budget is 50" in err and "deficiency tables" in err

    def test_unit_market_over_the_item_cap_exits_1(self, tmp_path, capsys):
        rng = random.Random(25)
        inst = Instance(model="unit", n=25, u=(1,) * 25, valuations=tuple(
            Valuation.unit_demand([rng.randint(0, 9) for _ in range(25)]) for _ in range(2)))
        path = tmp_path / "wide_unit.json"
        path.write_text(serialize_instance(inst))
        assert run_command(["solve", "--instance", str(path), "--strategy", "steepest"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "subset-enumeration cap 24" in err

    def test_solve_rejects_non_substitutes(self, complements_path, capsys):
        assert run_command(["solve", "--instance", complements_path,
                            "--strategy", "steepest"]) == 1
        assert "exchange" in capsys.readouterr().err

    def test_missing_file_is_a_domain_error(self, capsys):
        assert run_command(["solve", "--instance", "/nonexistent.json",
                            "--strategy", "steepest"]) == 1

    def test_usage_error(self, ex21_path):
        assert run_command(["solve", "--instance", ex21_path,
                            "--strategy", "mystery"]) == 2
        assert run_command([]) == 2


class TestParserReuse:
    def test_one_parser_serves_every_command_in_a_process(self, ex21_path, capsys):
        """The parser is built once per process; a command's options and
        errors leave nothing behind for the next command to read."""
        from walras.cli import build_parser
        assert build_parser() is build_parser()
        solve = ["solve", "--instance", ex21_path, "--strategy", "steepest"]
        assert run_command(solve + ["--seed", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 5
        bad = ["solve", "--instance", ex21_path, "--strategy", "mystery"]
        assert run_command(bad) == 2
        err = capsys.readouterr().err
        fresh = subprocess.run([sys.executable, "-m", "walras", *bad],
                               capture_output=True, text=True)
        assert fresh.returncode == 2 and err == fresh.stderr
        assert run_command(solve) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 0


class TestStartFuzz:
    """``solve`` from random starts in [0, ceiling + 4]^n: it succeeds exactly
    when the start lies at or below the minimal equilibrium price, and every
    other start exits 1 with a message."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_exit_code_follows_the_oracle(self, tmp_path_factory, seed):
        rng = random.Random(seed)
        if rng.random() < 0.5:
            inst = random_unit_instance(rng, n_max=3, m_max=4, value_max=4)
        else:
            inst = random_multi_instance(rng, n_max=2, u_max=2, m_max=3, value_max=4)
        p_min = brute_force_min_equilibrium(inst)
        if rng.random() < 0.5:
            start = [rng.randint(0, c) for c in p_min]
        else:
            start = [rng.randint(0, max_total_value(inst) + 4) for _ in p_min]
        below = all(s <= c for s, c in zip(start, p_min))
        folder = tmp_path_factory.mktemp("fuzz")
        (folder / "market.json").write_text(serialize_instance(inst))
        (folder / "start.json").write_text(json.dumps(start))
        for flag in STRATEGY_FLAGS:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = run_command(["solve", "--instance", str(folder / "market.json"),
                                    "--strategy", flag, "--seed", str(seed),
                                    "--start", str(folder / "start.json")])
            if below:
                assert code == 0, (flag, start, p_min, err.getvalue())
                assert json.loads(out.getvalue())["p_final"] == list(p_min)
            else:
                assert code == 1, (flag, start, p_min)
                assert out.getvalue() == "" and err.getvalue().startswith("error: ")


class TestVerify:
    def test_rejects_complements_with_witness(self, complements_path, capsys):
        assert run_command(["verify", "--instance", complements_path]) == 1
        err = capsys.readouterr().err
        assert "mnat: bidder 0: counterexample" in err
        assert "x=(1, 1) y=(0, 0) i=1" in err

    def test_clean_instance_passes(self, ex21_path, capsys):
        assert run_command(["verify", "--instance", ex21_path]) == 0
        out = capsys.readouterr().out
        assert "mnat: bidder 5: ok" in out
        assert "lnat: holds" in out

    def test_single_check_selection(self, complements_path, capsys):
        assert run_command(["verify", "--instance", complements_path,
                            "--check", "monotone"]) == 0
        assert "monotone: bidder 0: ok" in capsys.readouterr().out

    def test_lnat_box_side_does_not_grow_with_the_values(self, tmp_path):
        """The box side is capped by the check's budget, whatever the
        largest value: worths of 10^7 and 10^9 check the same box, quickly."""
        for worth in (10**7, 10**9):
            path = tmp_path / f"worth{worth}.json"
            path.write_text(json.dumps({
                "model": "unit", "n": 1, "m": 2,
                "valuations": [{"family": "unit_demand", "values": [worth]}] * 2}))
            proc = subprocess.run(
                [sys.executable, "-m", "walras", "verify", "--instance", str(path),
                 "--check", "lnat"],
                capture_output=True, text=True, timeout=10)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == "lnat: holds on [0, 78]^1\n"


class TestCompare:
    def test_table_bidders_are_admitted_once(self, tmp_path, mnat_calls, capsys):
        calls = mnat_calls
        rng = random.Random(11)
        inst = random_multi_instance(rng, n_max=2, u_max=2, m_min=3, m_max=3)
        inst = Instance(model="multi", n=inst.n, u=inst.u,
                        valuations=(tabulate(inst.valuations[0]), inst.valuations[1],
                                    tabulate(inst.valuations[2])))
        path = tmp_path / "tables.json"
        path.write_text(serialize_instance(inst))
        assert run_command(["compare", "--instance", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["all_equal"] is True
        assert len(calls) == 2
        for flag in STRATEGY_FLAGS:
            calls.clear()
            assert run_command(["solve", "--instance", str(path), "--strategy", flag]) == 0
            assert len(calls) == 2

    def test_complements_table_exits_1(self, complements_path, capsys):
        assert run_command(["compare", "--instance", complements_path]) == 1
        err = capsys.readouterr().err
        assert "violates the substitutes exchange property" in err
        assert "x=(1, 1) y=(0, 0) i=1" in err

    def test_worked_example_report(self, ex21_path, capsys):
        assert run_command(["compare", "--instance", ex21_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["all_equal"] is True
        assert doc["p_min"] == [1, 1, 1]
        assert doc["strategies"]["steepest"]["iterations"] == 1
        assert doc["strategies"]["minimal-overdemanded"]["iterations"] == 2
        assert set(doc["strategies"]) == {"minimal-overdemanded", "steepest",
                                          "excess-random", "excess-maximal"}


class TestUnwritableOut:
    @pytest.mark.parametrize("command", [["solve", "--strategy", "steepest"], ["compare"]])
    def test_exits_1_naming_the_path(self, command, ex21_path, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        argv = command[:1] + ["--instance", ex21_path, "--out", str(out)] + command[1:]
        assert run_command(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out {out}: ")
        assert "No such file or directory" in err
        assert not out.exists()

    def test_module_invocation_prints_no_traceback(self, ex21_path, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "walras", "solve", "--instance", ex21_path,
             "--strategy", "steepest", "--out", str(tmp_path / "missing" / "x.json")],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: --out ")


class TestOracleCommand:
    def test_multi_example(self, tmp_path, capsys):
        path = tmp_path / "multi.json"
        path.write_text(MULTI_JSON)
        assert run_command(["oracle", "--instance", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["price_cap"] == [5]
        assert doc["lyapunov_minimizers"] == [[2], [3]]
        assert doc["min_equilibrium_price"] == [2]

    def test_price_box_is_scanned_once(self, tmp_path, monkeypatch):
        """The minimizer scan reads each price of the box once; the meet and
        its cross-checks work from the scanned set instead of a second scan."""
        reads = []
        value = LyapunovOracle.value

        def counted(self, p):
            reads.append(tuple(p))
            return value(self, p)

        monkeypatch.setattr(LyapunovOracle, "value", counted)
        for label, text in (("multi", MULTI_JSON), ("ex21", EX21_JSON)):
            path = tmp_path / f"{label}.json"
            path.write_text(text)
            reads.clear()
            assert run_command(["oracle", "--instance", str(path)]) == 0
            inst = parse_instance(text)
            assert len(reads) == (max_total_value(inst) + 1) ** inst.n == len(set(reads))

    @pytest.mark.parametrize("record", [
        {"family": "unit_demand", "values": [3]},
        {"family": "separable_concave", "marginals": [[3]]},
    ], ids=["unit", "multi"])
    def test_many_bidders_exit_cleanly(self, tmp_path, record):
        """The definitional enumeration goes one level per bidder, so 1,100
        bidders must not reach Python's recursion limit."""
        model = "unit" if record["family"] == "unit_demand" else "multi"
        path = tmp_path / "crowd.json"
        path.write_text(json.dumps({"model": model, "n": 1, "m": 1100, "u": [1],
                                    "valuations": [record] * 1100}))
        proc = subprocess.run(
            [sys.executable, "-m", "walras", "oracle", "--instance", str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["min_equilibrium_price"] == [3]


UNDECODABLE = {
    "not-utf8": b'{"model": "unit", "n": 1, "m": 0, "valuations": [], "note": "\xe9"}',
    "long-integer": b"[" + b"9" * 5000 + b"]",
    "deep-nesting": b"[" * 200_000 + b"]" * 200_000,
}


class TestUndecodableInput:
    @pytest.mark.parametrize("flag", ["--instance", "--start"])
    @pytest.mark.parametrize("kind", sorted(UNDECODABLE))
    def test_exits_1_naming_the_file(self, tmp_path, ex21_path, kind, flag):
        bad = tmp_path / f"{kind}.json"
        bad.write_bytes(UNDECODABLE[kind])
        paths = {"--instance": ex21_path, "--start": "zero", flag: str(bad)}
        proc = subprocess.run(
            [sys.executable, "-m", "walras", "solve", "--strategy", "steepest",
             "--instance", paths["--instance"], "--start", paths["--start"]],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and str(bad) in proc.stderr


class TestDeterminism:
    def test_identical_runs_produce_identical_bytes(self, ex21_path, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run_command(["solve", "--instance", ex21_path, "--strategy",
                                "excess-random", "--seed", "42",
                                "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_budget_env_override(self, ex21_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("WALRAS_BUDGET", "2")
        path = tmp_path / "multi.json"
        path.write_text(MULTI_JSON)
        assert run_command(["oracle", "--instance", str(path)]) == 1
        assert "budget" in capsys.readouterr().err.lower()
        monkeypatch.setenv("WALRAS_BUDGET", "junk")
        assert run_command(["oracle", "--instance", str(path)]) == 1


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        path = tmp_path / "ex21.json"
        path.write_text(EX21_JSON)
        proc = subprocess.run(
            [sys.executable, "-m", "walras", "compare", "--instance", str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["p_min"] == [1, 1, 1]

    def test_many_bidders_exit_cleanly(self, tmp_path):
        path = tmp_path / "crowd.json"
        path.write_text(json.dumps({
            "model": "multi", "n": 1, "m": 1100, "u": [2],
            "valuations": [{"family": "separable_concave", "marginals": [[5, 3]]}] * 1100}))
        proc = subprocess.run(
            [sys.executable, "-m", "walras", "solve", "--instance", str(path),
             "--strategy", "steepest"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["p_final"] == [5]
        assert doc["allocation"]["bundles"] == [[0]] * 1098 + [[1], [1]]


class TestStreamedOutput:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_out_is_written_row_by_row(self, fmt, tmp_path):
        """A 20,000-step trajectory is written without holding the whole
        document: the traced peak stays within a few hundred bytes per step
        (the trajectory alone takes about 200), and the file is what
        ``json.dumps`` gives."""
        path = tmp_path / "long.json"
        path.write_text(json.dumps({
            "model": "unit", "n": 1, "m": 2,
            "valuations": [{"family": "unit_demand", "values": [20_000]}] * 2}))
        out = tmp_path / f"out.{fmt}"
        tracemalloc.start()
        try:
            code = run_command(["solve", "--instance", str(path), "--strategy", "steepest",
                                "--format", fmt, "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 800 * 20_000
        text = out.read_text(encoding="utf-8")
        if fmt == "json":
            doc = json.loads(text)
            assert len(doc["trajectory"]) == doc["iterations"] == 20_000
            # Digests, so a mismatch reports without diffing megabytes.
            assert sha256(text.encode()).digest() == \
                sha256((json.dumps(doc, indent=2) + "\n").encode()).digest()
        else:
            assert text.count("\n") == 20_001

    @pytest.mark.parametrize("text", [EX21_JSON, MULTI_JSON], ids=["ex21", "multi"])
    def test_json_matches_one_dump(self, text, tmp_path, capsys):
        """Spliced rows give the bytes of one ``json.dumps`` of the whole
        document, with rows and, from the minimal price, without."""
        path = tmp_path / "market.json"
        path.write_text(text)
        start = tmp_path / "start.json"
        for strategy in sorted(STRATEGY_FLAGS):
            assert run_command(["solve", "--instance", str(path), "--strategy", strategy]) == 0
            out = capsys.readouterr().out
            doc = json.loads(out)
            assert doc["iterations"] > 0
            assert out == json.dumps(doc, indent=2) + "\n"
            start.write_text(json.dumps(doc["p_final"]))
            assert run_command(["solve", "--instance", str(path), "--strategy", strategy,
                                "--start", str(start)]) == 0
            out = capsys.readouterr().out
            doc = json.loads(out)
            assert doc["trajectory"] == [] and '"trajectory": [],' in out
            assert out == json.dumps(doc, indent=2) + "\n"

    def test_row_matches_the_indenting_encoder(self):
        """Each hand-formatted row is the bytes of ``json.dumps(row,
        indent=2)`` moved four spaces in, on random rows with empty lists
        and ints far beyond 64 bits."""
        rng = random.Random(41)
        keys = ["iteration", "p_before", "chosen_items", "chosen_mask",
                "lyapunov_before", "lyapunov_after", "deficiency",
                "demanded_units", "supply_units"]

        def number():
            return rng.choice((0, 1, -1, rng.randint(-10**6, 10**6),
                               rng.randint(-10**80, 10**80)))

        for _ in range(300):
            row = {key: [number() for _ in range(rng.choice((0, 0, 1, 3)))]
                   if key in ("p_before", "chosen_items") else number() for key in keys}
            expected = "    " + json.dumps(row, indent=2).replace("\n", "\n    ")
            assert _row_json(row) == expected, row


class TestIterationBudget:
    def test_huge_values_exit_1_within_the_budget(self, tmp_path):
        """Two bidders worth 10^9 on one item need 10^9 unit raises; a budget
        of 1000 stops the descent after 1000 of them."""
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "model": "unit", "n": 1, "m": 2,
            "valuations": [{"family": "unit_demand", "values": [10**9]}] * 2}))
        proc = subprocess.run(
            [sys.executable, "-m", "walras", "solve", "--instance", str(path),
             "--strategy", "steepest"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "WALRAS_BUDGET": "1000"})
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and "budget 1000" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestGoldenOutput:
    """``solve`` stdout on the sample instances, byte for byte.

    ``tests/golden/<instance>.<strategy>.<format>`` holds the exact stdout of
    ``walras solve --instance sample_instances/<instance>.json --strategy
    <strategy> --format <format>``; any difference is a change to the CLI's
    output.
    """

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("strategy", sorted(STRATEGY_FLAGS))
    @pytest.mark.parametrize("sample", SAMPLES, ids=lambda path: path.stem)
    def test_solve_matches_golden(self, sample, strategy, fmt, capsys):
        assert run_command(["solve", "--instance", str(sample),
                            "--strategy", strategy, "--format", fmt]) == 0
        expected = (GOLDEN / f"{sample.stem}.{strategy}.{fmt}").read_bytes()
        assert capsys.readouterr().out.encode("utf-8") == expected
