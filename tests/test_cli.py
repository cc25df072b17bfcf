"""Command-line behavior: subcommands, exit codes, determinism."""

import ast
import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from hashlib import sha256
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (EX21_JSON, breaks_local_exchange, breaks_midpoint,
                      column_markets, complements_table_market, random_multi_instance,
                      random_separable_valuation, random_unit_instance, tabulate)
import walras.cli
from walras import (FunctionOracle, Instance, LyapunovOracle, Valuation,
                    brute_force_min_equilibrium, deficiency, max_total_value,
                    parse_instance, separable_p_min, serialize_instance,
                    verify_equilibrium)
from walras.auction import UnitAllocation
from walras.cli import _ROW_KEYS, STRATEGY_FLAGS, _row_json, run_command
from walras.lnat import midpoint_charge

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

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_csv_lines_match_the_json_rows(self, tmp_path_factory, data):
        """On random markets, some bidders tabulated, under every strategy:
        the CSV header names the market's items, and each CSV data line
        holds the same run's JSON row, column by column."""
        inst = data.draw(column_markets(), label="market")
        seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
        path = tmp_path_factory.mktemp("csv") / "market.json"
        path.write_text(serialize_instance(inst))
        header = ",".join(["iteration", *(f"p{i}" for i in range(1, inst.n + 1)),
                           "chosen_mask", "chosen_items", "lyapunov", "deficiency"])
        for flag in sorted(STRATEGY_FLAGS):
            texts = []
            for fmt in ("json", "csv"):
                out = io.StringIO()
                with redirect_stdout(out):
                    assert run_command(["solve", "--instance", str(path), "--strategy", flag,
                                        "--seed", str(seed), "--format", fmt]) == 0
                texts.append(out.getvalue())
            lines = [header] + [",".join(map(str, [
                row["iteration"], *row["p_before"], row["chosen_mask"],
                ";".join(map(str, row["chosen_items"])), row["lyapunov_before"],
                row["deficiency"]])) for row in json.loads(texts[0])["trajectory"]]
            assert texts[1] == "".join(line + "\n" for line in lines), flag

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

    def test_wide_separable_market_solves_past_the_table_budget(self, tmp_path, capsys):
        """21 single-unit items and two separable bidders: the per-item rules
        read 21 changes a step, not deficiency tables of 3 * 2^21 entries,
        and solve to the closed form.  The routes that still build those
        tables stop with a budget error instead of running unbounded: the
        seeded rule on the same market, and ``steepest`` once one
        unit-demand bidder joins it."""
        seps = tuple(Valuation.separable([[2]] * 21) for _ in range(2))
        inst = Instance(model="multi", n=21, u=(1,) * 21, valuations=seps)
        mixed = Instance(model="multi", n=21, u=(1,) * 21,
                         valuations=seps + (Valuation.unit_demand([1] * 21),))
        path, mixed_path = tmp_path / "wider.json", tmp_path / "wider_mixed.json"
        path.write_text(serialize_instance(inst))
        mixed_path.write_text(serialize_instance(mixed))
        assert run_command(["solve", "--instance", str(path), "--strategy", "steepest"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and json.loads(out)["p_final"] == list(separable_p_min(inst)) == [2] * 21
        for target, strategy in ((path, "excess-random"), (mixed_path, "steepest")):
            assert run_command(["solve", "--instance", str(target), "--strategy", strategy]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert "budget" in err and "deficiency tables" in err, strategy

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
    def test_witnesses_break_their_local_axioms(self, tmp_path, capsys):
        """Every counterexample line names a pair that breaks its local
        axiom as printed: the exchange condition for the table bidder, the
        midpoint inequality for the Lyapunov function."""
        rng = random.Random(29)
        seen = set()
        for t in range(30):
            inst = complements_table_market(rng)
            path = tmp_path / f"market{t}.json"
            path.write_text(serialize_instance(inst))
            assert run_command(["verify", "--instance", str(path)]) == 1
            lines = capsys.readouterr().err.splitlines()
            assert lines[inst.m].startswith("mnat: bidder 0: counterexample x=")
            for line in lines:
                head, _, witness = line.partition(": counterexample ")
                if not witness:
                    continue
                a, b = map(ast.literal_eval, re.fullmatch(r"\w=(\(.*\)) \w=(\(.*\))",
                                                          witness).groups())
                if head == "lnat":
                    g = LyapunovOracle(inst).function_oracle()
                    assert breaks_midpoint(g, a, b), (inst, line)
                else:
                    assert head == "mnat: bidder 0"
                    assert breaks_local_exchange(inst.valuations[0], a, b), (inst, line)
                seen.add(head)
        assert seen == {"mnat: bidder 0", "lnat"}

    def test_rejects_complements_with_witness(self, complements_path, capsys):
        assert run_command(["verify", "--instance", complements_path]) == 1
        err = capsys.readouterr().err
        assert "mnat: bidder 0: counterexample x=(0, 0) y=(1, 1)\n" in err

    def test_complements_midpoint_witness_is_pinned(self, complements_path, capsys):
        """The first pair, in lexicographic order, that breaks the local
        midpoint inequality."""
        assert run_command(["verify", "--instance", complements_path,
                            "--check", "all"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("lnat: counterexample p=(1, 2) q=(2, 1)\n")

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

    @pytest.mark.parametrize("model, n", [("multi", 300), ("unit", 30)])
    def test_lnat_on_a_one_point_box_is_quick(self, model, n, tmp_path):
        """From n = 11 on verify's box is the one point [0, 0]^n, which no pair
        of the theorem moves; a separable n = 300 market and a unit n = 30
        one print that it holds well within the timeout."""
        rng = random.Random(n)
        if model == "multi":
            valuations = [Valuation.separable([[rng.randint(0, 30)] for _ in range(n)])
                          for _ in range(2)]
        else:
            valuations = [Valuation.unit_demand([rng.randint(0, 30) for _ in range(n)])
                          for _ in range(2)]
        path = tmp_path / "wide.json"
        path.write_text(serialize_instance(Instance(model, n, (1,) * n, tuple(valuations))))
        proc = subprocess.run(
            [sys.executable, "-m", "walras", "verify", "--instance", str(path),
             "--check", "lnat"],
            capture_output=True, text=True, timeout=10)
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (0, f"lnat: holds on [0, 0]^{n}\n", "")

    def test_lnat_checks_the_unit_box_up_to_ten_items(self, tmp_path, monkeypatch, capsys):
        """Past n = 8 the (s + 1)^(2n + 1) rule leaves the one point, and
        verify checks [0, 1]^n instead while that box's charge fits the
        budget: 130,816 tests at n = 9 and 523,776 at n = 10, both within
        the default; 2,096,128 at n = 11 is not.  A budget one below n = 9's
        charge keeps its one point, and a market worth nothing keeps it at
        any budget."""
        def verify(n, worth=30, budget=None):
            rng = random.Random(n)
            path = tmp_path / f"unit{n}.json"
            path.write_text(serialize_instance(Instance("unit", n, (1,) * n, tuple(
                Valuation.unit_demand([rng.randint(0, worth) for _ in range(n)])
                for _ in range(2)))))
            if budget is None:
                monkeypatch.delenv("WALRAS_BUDGET", raising=False)
            else:
                monkeypatch.setenv("WALRAS_BUDGET", str(budget))
            code = run_command(["verify", "--instance", str(path), "--check", "lnat"])
            return (code, *capsys.readouterr())

        assert verify(9) == (0, "lnat: holds on [0, 1]^9\n", "")
        assert verify(10) == (0, "lnat: holds on [0, 1]^10\n", "")
        assert verify(11) == (0, "lnat: holds on [0, 0]^11\n", "")
        assert verify(9, budget=130_816) == (0, "lnat: holds on [0, 1]^9\n", "")
        assert verify(9, budget=130_815) == (0, "lnat: holds on [0, 0]^9\n", "")
        assert verify(9, worth=0) == (0, "lnat: holds on [0, 0]^9\n", "")

    def test_the_box_rules_largest_charge(self, tmp_path, monkeypatch, capsys):
        """The (s + 1)^(2n + 1) rule's largest charge is 32,640 tests, on
        [0, 1]^8: at ``WALRAS_BUDGET=32640`` every unit market with n <= 10
        items holds, and one test less refuses n = 8 alone, since a smaller
        box is charged less and from n = 9 on [0, 1]^n is taken only when
        its charge fits.  The charge is ``lnat.midpoint_charge``, the name
        the rule reads."""
        assert midpoint_charge([1] * 8) == 32_640
        for budget in (32_640, 32_639):
            monkeypatch.setenv("WALRAS_BUDGET", str(budget))
            refused = []
            for n in range(1, 11):
                path = tmp_path / f"unit{n}.json"
                path.write_text(serialize_instance(Instance("unit", n, (1,) * n, (
                    Valuation.unit_demand([10**6] * n),) * 2)))
                code = run_command(["verify", "--instance", str(path), "--check", "lnat"])
                out, err = capsys.readouterr()
                if code:
                    refused.append((n, err))
            assert refused == ([] if budget == 32_640 else [
                (8, "error: convexity check needs 32640 inequality tests, budget is 32639\n")])

    def test_family_bidders_pass_the_exchange_check_by_theorem(self, tmp_path, monkeypatch,
                                                              capsys):
        """Unit-demand and separable bidders print ok without the exchange
        check, which would be charged more than the budget on the separable
        market's 4^6 box; only tables are checked, as the auction admits
        them."""
        import walras.cli as cli
        rng = random.Random(19)
        unit = Instance(model="unit", n=9, u=(1,) * 9, valuations=tuple(
            Valuation.unit_demand([rng.randint(0, 100) for _ in range(9)]) for _ in range(12)))
        multi = Instance(model="multi", n=6, u=(3,) * 6, valuations=tuple(
            random_separable_valuation(rng, (3,) * 6, value_max=30) for _ in range(8)))
        mixed = Instance(model="multi", n=2, u=(1, 1), valuations=(
            Valuation.unit_demand([3, 1]), parse_instance(COMPLEMENTS_JSON).valuations[0],
            Valuation.separable([[2], [2]]),
            tabulate(Valuation.separable([[1], [4]]))))
        scanned = []
        check = cli.verify_mnat_exc

        def counted(v, *, budget):
            scanned.append(v)
            return check(v, budget=budget)

        monkeypatch.setattr(cli, "verify_mnat_exc", counted)
        for inst in (unit, multi):
            path = tmp_path / f"family{inst.n}.json"
            path.write_text(serialize_instance(inst))
            assert run_command(["verify", "--instance", str(path), "--check", "mnat"]) == 0
            assert capsys.readouterr().out == "".join(
                f"mnat: bidder {b}: ok\n" for b in range(inst.m))
        assert scanned == []
        path = tmp_path / "mixed.json"
        path.write_text(serialize_instance(mixed))
        assert run_command(["verify", "--instance", str(path), "--check", "mnat"]) == 1
        assert capsys.readouterr().err == (
            "mnat: bidder 0: ok\n"
            "mnat: bidder 1: counterexample x=(0, 0) y=(1, 1)\n"
            "mnat: bidder 2: ok\nmnat: bidder 3: ok\n")
        assert scanned == [mixed.valuations[1], mixed.valuations[3]]

    def test_family_bidders_are_monotone_by_construction(self, tmp_path, monkeypatch,
                                                         capsys):
        """Unit-demand and separable bidders are monotone and normalized by
        construction, so ``monotone`` prints them ok without a box scan,
        which the budget would refuse on a separable market's 4^9 box and on
        a unit-demand market's 2^18; only tables are scanned, once each."""
        import walras.cli as cli
        rng = random.Random(30)
        multi = Instance(model="multi", n=9, u=(3,) * 9, valuations=tuple(
            random_separable_valuation(rng, (3,) * 9, value_max=30) for _ in range(4)))
        unit = Instance(model="unit", n=18, u=(1,) * 18, valuations=tuple(
            Valuation.unit_demand([rng.randint(0, 100) for _ in range(18)]) for _ in range(4)))
        mixed = Instance(model="multi", n=2, u=(1, 1), valuations=(
            Valuation.unit_demand([3, 1]), tabulate(Valuation.separable([[1], [4]])),
            Valuation.separable([[2], [2]]), tabulate(Valuation.unit_demand([2, 5]))))
        scanned = []
        check = cli.verify_monotone_normalized

        def counted(v, *, budget):
            scanned.append(v)
            return check(v, budget=budget)

        monkeypatch.setattr(cli, "verify_monotone_normalized", counted)
        for inst in (multi, unit, mixed):
            path = tmp_path / f"market{inst.n}.json"
            path.write_text(serialize_instance(inst))
            for flag in ("monotone", "all"):
                scanned.clear()
                assert run_command(["verify", "--instance", str(path), "--check", flag]) == 0
                captured = capsys.readouterr()
                assert captured.err == ""
                assert captured.out.startswith("".join(
                    f"monotone: bidder {b}: ok\n" for b in range(inst.m)))
                assert scanned == [v for v in inst.valuations if v.family == "explicit_table"]
        assert scanned == [mixed.valuations[1], mixed.valuations[3]]

    @pytest.mark.parametrize("n, cap", [(5, 1), (4, 2)])
    def test_lnat_refusals_match_the_per_point_route(self, n, cap, tmp_path, monkeypatch,
                                                     capsys):
        """Budgets straddling the bundle box of a table market (2^5 = 32 and
        3^4 = 81 bundles) and the check's charge on its price box, one price
        wider than the bundle box (29,403 tests on [0, 2]^5 and 19,080 on
        [0, 3]^4), give the same exit code and streams whether the price box
        is read as one grid or point by point.  The charge, made before any
        value is read, is the larger, so every budget below it refuses."""
        rng = random.Random(n)
        u = (cap,) * n
        inst = Instance(model="multi", n=n, u=u, valuations=tuple(
            tabulate(random_separable_valuation(rng, u, value_max=12)) for _ in range(6)))
        path = tmp_path / "tables.json"
        path.write_text(serialize_instance(inst))
        volume = (cap + 1) ** n
        charge = {(5, 1): 29_403, (4, 2): 19_080}[n, cap]

        def run(budget):
            monkeypatch.setenv("WALRAS_BUDGET", str(budget))
            code = run_command(["verify", "--instance", str(path), "--check", "lnat"])
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        budgets = (volume - 1, volume, volume + 1, charge - 1, charge, charge + 1)
        grid = [run(budget) for budget in budgets]
        adapter = LyapunovOracle.function_oracle

        def per_point(self):
            g = adapter(self)
            return FunctionOracle(n=g.n, fn=g.fn, value_floor=g.value_floor)

        monkeypatch.setattr(LyapunovOracle, "function_oracle", per_point)
        assert [run(budget) for budget in budgets] == grid
        assert grid[:4] == [(1, "", f"error: convexity check needs {charge} inequality "
                                    f"tests, budget is {budget}\n") for budget in budgets[:4]]
        assert grid[4] == grid[5] == (0, f"lnat: holds on [0, {cap + 1}]^{n}\n", "")

    def test_lnat_box_refusal_past_the_charge(self, tmp_path, monkeypatch, capsys):
        """A one-item table of 201 bundles checks the box [0, 78], charged
        155 tests, so budgets of 200 and 201 pass the charge and straddle
        the bundle box, which both the grid and the per-point route build
        within the budget."""
        inst = Instance(model="multi", n=1, u=(200,), valuations=(
            tabulate(Valuation.separable([[1] * 200])),))
        path = tmp_path / "long.json"
        path.write_text(serialize_instance(inst))

        def run(budget):
            monkeypatch.setenv("WALRAS_BUDGET", str(budget))
            code = run_command(["verify", "--instance", str(path), "--check", "lnat"])
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        adapter = LyapunovOracle.function_oracle

        def per_point(self):
            g = adapter(self)
            return FunctionOracle(n=g.n, fn=g.fn, value_floor=g.value_floor)

        expected = [(1, "", "error: bundle box volume 201 exceeds budget 200\n"),
                    (0, "lnat: holds on [0, 78]^1\n", "")]
        assert [run(200), run(201)] == expected
        monkeypatch.setattr(LyapunovOracle, "function_oracle", per_point)
        assert [run(200), run(201)] == expected

    def test_lnat_is_charged_the_runs_budget(self, monkeypatch, capsys):
        """``lnat`` is charged its theorem's pairs against ``WALRAS_BUDGET``,
        as ``monotone`` and ``mnat`` are: the six-bidder sample's box
        [0, 1]^3 needs 28 inequality tests, so a budget of 27 refuses and
        one of 28 holds."""
        path = str(SAMPLES_DIR / "assignment_six_bidders.json")
        outcomes = []
        for budget in (27, 28):
            monkeypatch.setenv("WALRAS_BUDGET", str(budget))
            code = run_command(["verify", "--instance", path, "--check", "lnat"])
            outcomes.append((code, *capsys.readouterr()))
        assert outcomes == [
            (1, "", "error: convexity check needs 28 inequality tests, budget is 27\n"),
            (0, "lnat: holds on [0, 1]^3\n", "")]

    def test_all_writes_its_lines_before_a_refused_lnat(self, monkeypatch, capsys,
                                                        complements_path):
        """A budget that refuses only the L♮ check still lets ``--check
        all`` write the ``monotone`` and ``mnat`` lines it computed, then
        the error line, and exit 1: on stdout when they all hold, as on the
        six-bidder sample at 27 (28 prints every line, as the default
        budget does), and on stderr when one fails, as on the complements
        table at 20."""
        sample = str(SAMPLES_DIR / "assignment_six_bidders.json")
        outcomes = []
        for path, budget in ((sample, 27), (sample, 28), (complements_path, 20)):
            monkeypatch.setenv("WALRAS_BUDGET", str(budget))
            code = run_command(["verify", "--instance", path, "--check", "all"])
            outcomes.append((code, *capsys.readouterr()))
        ok = "".join(f"{check}: bidder {b}: ok\n"
                     for check in ("monotone", "mnat") for b in range(6))
        assert outcomes == [
            (1, ok, "error: convexity check needs 28 inequality tests, budget is 27\n"),
            (0, ok + "lnat: holds on [0, 1]^3\n", ""),
            (1, "", "monotone: bidder 0: ok\n"
                    "mnat: bidder 0: counterexample x=(0, 0) y=(1, 1)\n"
                    "error: convexity check needs 90 inequality tests, budget is 20\n")]
        monkeypatch.delenv("WALRAS_BUDGET")
        assert run_command(["verify", "--instance", sample, "--check", "all"]) == 0
        assert capsys.readouterr() == (ok + "lnat: holds on [0, 1]^3\n", "")


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

    @staticmethod
    def _table_market(tmp_path) -> str:
        rng = random.Random(13)
        u = (2, 2, 2)
        inst = Instance(model="multi", n=3, u=u, valuations=tuple(
            tabulate(random_separable_valuation(rng, u, value_max=9)) for _ in range(4)))
        path = tmp_path / "tables.json"
        path.write_text(serialize_instance(inst))
        return str(path)

    @staticmethod
    def _tied_table_market(tmp_path) -> str:
        """Tabulated unit-demand bidders on three items: a tie between items
        is a demand set with no least bundle, which the demand key holds,
        and one ``compare`` meets several such sets more than once."""
        rng = random.Random(14)
        inst = Instance(model="multi", n=3, u=(1, 1, 1), valuations=tuple(
            tabulate(Valuation.unit_demand([rng.randint(0, 9) for _ in range(3)]))
            for _ in range(4)))
        path = tmp_path / "tables.json"
        path.write_text(serialize_instance(inst))
        return str(path)

    def test_least_takes_once_per_demand_set(self, tmp_path, monkeypatch, capsys):
        """The four strategies share one oracle, which keeps each least
        takes of a table bidder without a least bundle by demand set: none
        is computed twice."""
        import walras.demand as demand

        seen = []
        least_takes = demand._least_takes

        def counted(d, n):
            seen.append(d)
            return least_takes(d, n)

        monkeypatch.setattr(demand, "_least_takes", counted)
        assert run_command(["compare", "--instance", self._tied_table_market(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out)["all_equal"] is True
        assert seen and len(seen) == len(set(seen))

    def test_allocation_is_extracted_only_where_printed(self, tmp_path, monkeypatch, capsys):
        """``compare`` and CSV output print no allocation, so they extract
        none; JSON output extracts one."""
        import walras.auction as auction

        calls = []
        extract = auction.extract_allocation

        def counted(*args, **kwargs):
            calls.append(args)
            return extract(*args, **kwargs)

        monkeypatch.setattr(auction, "extract_allocation", counted)
        path = self._table_market(tmp_path)
        assert run_command(["compare", "--instance", path]) == 0
        assert run_command(["solve", "--instance", path, "--strategy", "steepest",
                            "--format", "csv"]) == 0
        assert calls == []
        capsys.readouterr()
        assert run_command(["solve", "--instance", path, "--strategy", "steepest"]) == 0
        assert len(calls) == 1
        assert json.loads(capsys.readouterr().out)["allocation"]["model"] == "multi"

    def test_each_run_builds_its_two_scan_grids(self, tmp_path, monkeypatch, capsys):
        """The strategies all stop at one price; each distinct rule's run
        reads the grid of its upward stop scan and of its downward
        minimality scan there, and the shared oracle keeps both, so
        ``compare`` builds two grids for its three runs (six reads)."""
        reads, builds = [], []
        grid_values, grid = LyapunovOracle.grid_values, LyapunovOracle._grid

        def counted_read(self, axes):
            reads.append([tuple(a) for a in axes])
            return grid_values(self, axes)

        def counted_build(self, axes):
            builds.append([tuple(a) for a in axes])
            return grid(self, axes)

        monkeypatch.setattr(LyapunovOracle, "grid_values", counted_read)
        monkeypatch.setattr(LyapunovOracle, "_grid", counted_build)
        assert run_command(["compare", "--instance", self._table_market(tmp_path)]) == 0
        p_min = json.loads(capsys.readouterr().out)["p_min"]
        up, down = [(c, c + 1) for c in p_min], [(c, c - 1) for c in p_min]
        assert reads == 3 * [up, down]
        assert builds == [up, [tuple(c for c in axis if c >= 0) for axis in down]]

    @pytest.mark.parametrize("market", ["ex21", "tables"])
    def test_one_descent_per_distinct_rule(self, market, ex21_path, tmp_path, monkeypatch,
                                           capsys):
        """``excess-maximal`` is computed by the ``steepest`` rule, so
        ``compare`` runs three descents and reports the steepest run for
        both."""
        import walras.cli as cli

        kinds = []
        auction = cli.ascending_auction

        def counted(instance, kind, *args, **kwargs):
            kinds.append(kind)
            return auction(instance, kind, *args, **kwargs)

        monkeypatch.setattr(cli, "ascending_auction", counted)
        path = ex21_path if market == "ex21" else self._table_market(tmp_path)
        assert run_command(["compare", "--instance", path]) == 0
        strategies = json.loads(capsys.readouterr().out)["strategies"]
        assert len(kinds) == 3 and len(set(kinds)) == 3
        assert strategies["excess-maximal"] == strategies["steepest"]

    def test_complements_table_exits_1(self, complements_path, capsys):
        assert run_command(["compare", "--instance", complements_path]) == 1
        err = capsys.readouterr().err
        assert err == ("error: valuations[0] violates the substitutes exchange property: "
                       "x=(0, 0) y=(1, 1)\n")

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


class TestLoadScan:
    def test_a_large_table_loads_and_verify_charges_its_scan(self, monkeypatch, capsys):
        """Loading scans each table for monotonicity whatever its size, so a
        one-item table of 500,001 bundles builds an ``Instance``; only
        ``verify`` charges the scan, volume * (n + 1) = 1,000,002 reads,
        against ``WALRAS_BUDGET``: the default refuses it, 2,000,000 passes.
        The market is handed to the command in process, so no large file is
        written."""
        inst = Instance(model="multi", n=1, u=(500_000,), valuations=(
            Valuation("explicit_table", table=tuple(((x,), x) for x in range(500_001))),))
        monkeypatch.setattr(walras.cli, "load_instance", lambda path: inst)
        outcomes = []
        for budget in (None, "2000000"):
            if budget is None:
                monkeypatch.delenv("WALRAS_BUDGET", raising=False)
            else:
                monkeypatch.setenv("WALRAS_BUDGET", budget)
            code = run_command(["verify", "--instance", "big.json", "--check", "monotone"])
            outcomes.append((code, *capsys.readouterr()))
        assert outcomes == [
            (1, "", "error: monotonicity scan of volume 500001 exceeds budget 1000000\n"),
            (0, "monotone: bidder 0: ok\n", "")]


class TestHugeUnitN:
    def test_exits_1_naming_n(self, tmp_path):
        """A unit market's default supply is n ones; an n past 10^6 items is
        refused as a format error before the supply is built: 10^30, past
        the largest tuple, and 10^9, which would take about 8 GB."""
        for n in (10**30, 10**9):
            path = tmp_path / f"huge{n}.json"
            path.write_text(json.dumps({"model": "unit", "n": n, "m": 0, "valuations": []}))
            proc = subprocess.run(
                [sys.executable, "-m", "walras", "solve", "--strategy", "steepest",
                 "--instance", str(path)],
                capture_output=True, text=True)
            assert (proc.returncode, proc.stdout, proc.stderr) == \
                (1, "", f"error: {path}: n: must be at most 1000000\n")


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


class TestClosedStdout:
    @pytest.mark.parametrize("worth", [5, 20_000], ids=["at-exit", "while-streaming"])
    def test_a_closed_stdout_exits_1_without_a_traceback(self, worth, tmp_path):
        """A reader that is gone before ``solve`` writes, as ``| head -c
        100`` leaves a long run: exit 1 and nothing on stderr, whether the
        write fails at the exit's flush (a 5-step trajectory) or while the
        rows stream (a 20,000-step one)."""
        path = tmp_path / "market.json"
        path.write_text(json.dumps({
            "model": "unit", "n": 1, "m": 2,
            "valuations": [{"family": "unit_demand", "values": [worth]}] * 2}))
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "walras", "solve", "--instance", str(path),
                 "--strategy", "steepest"],
                stdout=write, stderr=subprocess.PIPE, text=True, timeout=120)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, "")

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_a_reader_that_closes_part_way_gets_exit_1(self, unbuffered, tmp_path):
        """``oracle`` on a bidderless 20,000-item market writes 460,100
        bytes in one document; a reader that takes 100 of them and closes
        the pipe, as ``| head -c 100`` does, leaves exit 1 and nothing on
        stderr.  Unbuffered, a single write of the document was cut short
        by the closed pipe, and its tail was lost with exit 0."""
        path = tmp_path / "market.json"
        path.write_text(json.dumps({"model": "unit", "n": 20_000, "m": 0, "valuations": []}))
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
        proc = subprocess.Popen(
            [sys.executable, "-m", "walras", "oracle", "--instance", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            err = proc.stderr.read()
            assert (proc.wait(timeout=120), err) == (1, b"")
        finally:
            proc.kill()
            proc.wait()


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

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_stdout_gets_pieces_of_at_most_pipe_buf(self, fmt, tmp_path, monkeypatch):
        """A 1,160-step trajectory under three chosen sets reaches stdout
        in writes of at most ``_PIECE`` characters, several of them near
        full, and the writes join to one ``json.dumps`` of the document
        (JSON) or to the CSV text pinned by its sha256."""
        path = tmp_path / "market.json"
        path.write_text(json.dumps({"model": "unit", "n": 3, "m": 4, "valuations": [
            {"family": "unit_demand", "values": v} for v in
            ([1200, 1000, 1120], [1160, 1040, 960], [1240, 800, 1080], [600, 1200, 880])]}))

        class Recorder:
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append(text)
                return len(text)

            def flush(self):
                pass

        stream = Recorder()
        monkeypatch.setattr(sys, "stdout", stream)
        code = run_command(["solve", "--instance", str(path),
                            "--strategy", "minimal-overdemanded", "--format", fmt])
        monkeypatch.undo()
        assert code == 0
        sizes = [len(text) for text in stream.writes]
        assert max(sizes) <= walras.cli._PIECE
        assert sum(size > walras.cli._PIECE - 200 for size in sizes) >= 5, sizes
        text = "".join(stream.writes)
        if fmt == "json":
            doc = json.loads(text)
            assert doc["iterations"] == len(doc["trajectory"]) == 1160
            assert text == json.dumps(doc, indent=2) + "\n"
        else:
            assert sha256(text.encode()).hexdigest() == \
                "9e1546a18348ccdb1b3689b30a7e8e085ecc5fae21d01e7fe53f6a2863febebe"

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
        """Each hand-formatted row is the bytes of ``json.dumps`` of the row
        under its column names, ``indent=2``, moved four spaces in, on
        random rows with empty lists and ints far beyond 64 bits."""
        rng = random.Random(41)
        assert _ROW_KEYS == ("iteration", "p_before", "chosen_items", "chosen_mask",
                             "lyapunov_before", "lyapunov_after", "deficiency",
                             "demanded_units", "supply_units")

        def number():
            return rng.choice((0, 1, -1, rng.randint(-10**6, 10**6),
                               rng.randint(-10**80, 10**80)))

        for _ in range(300):
            row = tuple([number() for _ in range(rng.choice((0, 0, 1, 3)))]
                        if key in ("p_before", "chosen_items") else number()
                        for key in _ROW_KEYS)
            expected = "    " + json.dumps(dict(zip(_ROW_KEYS, row)),
                                           indent=2).replace("\n", "\n    ")
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
    """``solve`` and ``compare`` stdout on the sample instances, byte for byte.

    ``tests/golden/<instance>.<strategy>.<format>`` holds the exact stdout of
    ``walras solve --instance sample_instances/<instance>.json --strategy
    <strategy> --format <format>``, and ``tests/golden/<instance>.compare.json``
    that of ``walras compare --instance sample_instances/<instance>.json``;
    any difference is a change to the CLI's output.
    """

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("strategy", sorted(STRATEGY_FLAGS))
    @pytest.mark.parametrize("sample", SAMPLES, ids=lambda path: path.stem)
    def test_solve_matches_golden(self, sample, strategy, fmt, capsys):
        assert run_command(["solve", "--instance", str(sample),
                            "--strategy", strategy, "--format", fmt]) == 0
        expected = (GOLDEN / f"{sample.stem}.{strategy}.{fmt}").read_bytes()
        assert capsys.readouterr().out.encode("utf-8") == expected

    @pytest.mark.parametrize("sample", SAMPLES, ids=lambda path: path.stem)
    def test_compare_matches_golden(self, sample, capsys):
        assert run_command(["compare", "--instance", str(sample)]) == 0
        expected = (GOLDEN / f"{sample.stem}.compare.json").read_bytes()
        assert capsys.readouterr().out.encode("utf-8") == expected
