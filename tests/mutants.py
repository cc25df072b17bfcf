"""Fault injection: plant one known fault at a time in a copy of ``src/``
and run the tests that are expected to catch it (DeMillo, Lipton and
Sayward, IEEE Computer, 1978).

Each entry names a file under ``src/walras``, an exact snippet that must
occur there once, its faulty replacement, and the test ids expected to kill
it.  Before planting anything, the script runs the union of the chosen
entries' tests once on the clean copy and exits 1, naming them, if any
fail there, so a failure is a kill only when the fault caused it.  An
entry is then killed when its tests fail.  Every run passes pytest one
``--hypothesis-seed``, so two runs of the script print the same report.
Run from anywhere:

    python tests/mutants.py                  # every entry
    python tests/mutants.py lnat-witness-max # the named entries only

The script exits 1 when an entry survives, when its tests cannot run (an
unknown test id, say, or a run past 600 s, reported as ``error (timed
out)``), or when its snippet no longer occurs exactly once, so a refactor
of the code under test must update the list.  The tests run
against the copy through ``PYTHONPATH``; a test that starts a subprocess on
the repository's own ``src/`` does not see the fault, so name none here.
Standard library only; not collected by pytest.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

#: The seed of every pytest run, the clean one and each entry's, so that a
#: Hypothesis test kills or spares an entry the same way on every run.
HYPOTHESIS_SEED = 0


class Mutant(NamedTuple):
    name: str
    path: str
    snippet: str
    fault: str
    tests: tuple[str, ...]


LNAT_TESTS = "tests/test_lnat.py::TestLocalMidpointCheck::"
BOX_PAIRS = "tests/test_lnat.py::TestBoxPairs::"
INSTANCE_TESTS = "tests/test_instance.py::"
RUN_TWIN = "tests/test_auction.py::TestRunRoute::test_runs_give_the_one_step_answers"
PERIOD_KEYS = "tests/test_auction.py::TestRunRoute::test_phase_lines_keep_their_demand_keys"
PERIOD_READS = ("tests/test_auction.py::TestRunRoute::"
                "test_period_runs_read_every_phase_line_at_both_ends")
LONG_RUNS = ("tests/test_auction.py::TestLongRuns::"
             "test_a_finished_run_holds_its_runs_not_its_steps")
COMPACT_RESULT = ("tests/test_auction.py::TestLongRuns::"
                  "test_a_result_compares_hashes_and_pickles_its_runs")
RUN_ROWS = "tests/test_cli.py::TestRunRows::test_runs_render_as_their_steps"
RUN_KEYS = "tests/test_demand.py::TestRunLength::"
SCAN_TESTS = "tests/test_demand.py::TestUnitScan::"
TABLE_SCAN = "tests/test_demand.py::TestTableScan::"
VERIFY_TESTS = "tests/test_cli.py::TestVerify::"
TWIN_TESTS = INSTANCE_TESTS + "TestValidationTwin::"
SCALING = "tests/test_relations.py::TestScaling::test_scaling_the_worths_scales_p_min"
STEEPEST_LENGTH = ("tests/test_relations.py::TestSteepestLength::"
                   "test_steepest_takes_the_sup_norm_distance_in_steps")
PERMUTATION = "tests/test_relations.py::TestPermutation::test_permuting_the_items_permutes_p_min"
ZERO_WORTH = ("tests/test_relations.py::TestZeroWorthBidder::"
              "test_a_bidder_worth_nothing_changes_no_run")
ADDED_BIDDER = ("tests/test_relations.py::TestAddedBidder::"
                "test_adding_a_bidder_never_lowers_p_min")
RELATIONS = (SCALING, STEEPEST_LENGTH, PERMUTATION, ZERO_WORTH)
UNIT_EXTRACTION = ("tests/test_auction.py::TestExtractionAgainstEnumeration::"
                   "test_unit_matching_equals_definitional_search")
LEAST_BUNDLE_TWIN = ("tests/test_demand.py::TestLeastBundleKey::"
                     "test_key_tables_are_the_definitional_minimum_takes")
GRID_TWIN = "tests/test_lyapunov.py::TestGridValues::test_matches_per_point_values"
KEY_TABLE_TWIN = "tests/test_demand.py::TestKeyTable::test_table_is_the_definitional_one"
CHI_TWIN = "tests/test_demand.py::TestSetIdentities::test_chi_add_matches_the_definition"
STDOUT_PIECES = ("tests/test_cli.py::TestStreamedOutput::"
                 "test_stdout_gets_pieces_of_at_most_pipe_buf")
CANDIDATE_TESTS = "tests/test_demand.py::TestCandidateScan::"
STEP_READS = ("tests/test_lnat.py::TestNeighborhoodTable::test_off_by_one_table_fails_at_a_step",
              "tests/test_lnat.py::TestNeighborhoodTable::"
              "test_off_by_one_item_changes_fail_at_a_step_and_the_stop")

MUTANTS = (
    Mutant("lnat-witness-max", "lnat.py",
           "ip, iq = min(pair_failures(vals, box_pairs(live, _theorem, budget)[2], _midpoint_fails))",
           "ip, iq = max(pair_failures(vals, box_pairs(live, _theorem, budget)[2], _midpoint_fails))",
           (LNAT_TESTS + "test_late_witness_at_verify_sizes",)),
    Mutant("lnat-witness-from-check", "lnat.py",
           "ip, iq = min(pair_failures(vals, box_pairs(live, _theorem, budget)[2], _midpoint_fails))",
           "ip, iq = min(pair_failures(vals, box_pairs(live, _check, budget)[2], _midpoint_fails))",
           (LNAT_TESTS + "test_planted_witness_outside_the_family",)),
    Mutant("lnat-lt-le", "lnat.py",
           "map(lt, map(add, gp, gq), map(add, gc, gf))",
           "map(lambda a, b: a <= b, map(add, gp, gq), map(add, gc, gf))",
           (LNAT_TESTS + "test_late_witness_at_verify_sizes",)),
    Mutant("midpoint-plan-shared-by-families", "itemsets.py",
           "kept = _PLANS.get((widths, family))",
           "kept = next((e for (w, _), e in _PLANS.items() if w == widths), None)",
           (LNAT_TESTS + "test_planted_witness_outside_the_family",
            LNAT_TESTS + "test_kept_plans_follow_the_box_and_the_family")),
    Mutant("lnat-no-back-step", "lnat.py",
           "((-2, -1, 0, 1, 2),)",
           "((-1, 0, 1, 2),)",
           (LNAT_TESTS + "test_charge_is_the_plans_pairs",)),
    Mutant("pair-base-range-short-at-the-upper-edge", "itemsets.py",
           "for b in range(-min(step), w + 1 - max(step))]",
           "for b in range(-min(step), w - max(step))]",
           (LNAT_TESTS + "test_charge_is_the_plans_pairs",
            INSTANCE_TESTS + "TestLocalExchange::test_charge_is_the_plans_reads")),
    Mutant("pair-pattern-first-offsets-swapped", "lnat.py",
           "(0, t, (t + 1) // 2, t // 2)",
           "(t, 0, (t + 1) // 2, t // 2)",
           (LNAT_TESTS + "test_planted_distance_two_fault",)),
    Mutant("plan-cache-ignores-its-entry-bound", "itemsets.py",
           "while sum(e[3] for e in _PLANS.values()) > min(e[4] for e in _PLANS.values()):",
           "while False:",
           (BOX_PAIRS + "test_a_plan_over_its_budget_is_not_kept",)),
    Mutant("read-charged-plan-split", "itemsets.py",
           "k = max(len(widths) - 3, 0) if most == inf else 0",
           "k = max(len(widths) - 3, 0)",
           (BOX_PAIRS + "test_a_read_charged_plan_is_one_block",)),
    Mutant("plan-over-its-budget-kept", "itemsets.py",
           "if entries <= budget:",
           "if True:",
           (BOX_PAIRS + "test_a_plan_over_its_budget_is_not_kept",)),
    Mutant("lnat-hi-for-lo", "lnat.py",
           "return LnatCounterexample(p=tuple(map(add, lo, box_point(ip, widths))),",
           "return LnatCounterexample(p=tuple(map(add, hi, box_point(ip, widths))),",
           (LNAT_TESTS + "test_width_zero_coordinates_change_nothing",)),
    Mutant("box-point-radix", "itemsets.py",
           "radices = [w + 1 for w in widths]",
           "radices = [w + 2 for w in widths]",
           (LNAT_TESTS + "test_late_witness_at_verify_sizes",)),
    Mutant("mnat-witness-max", "instance.py",
           "first = min(pair_failures(_box_worths(v), plan, _exchange_fails), default=None)",
           "first = max(pair_failures(_box_worths(v), plan, _exchange_fails), default=None)",
           (INSTANCE_TESTS + "TestLateWitnesses::test_exchange_failures_at_the_last_bundle",)),
    Mutant("mnat-lt-le", "instance.py",
           "map(lt, map(add, a, b), need)",
           "map(lambda a, b: a <= b, map(add, a, b), need)",
           (INSTANCE_TESTS + "TestLateWitnesses::test_exchange_failures_at_the_last_bundle",
            *RELATIONS, ADDED_BIDDER)),
    Mutant("exchange-any-move-fails", "instance.py",
           "map(and_, *fails)",
           "map(lambda a, b: a or b, *fails)",
           (INSTANCE_TESTS + "TestExchangeVerifier::test_separable_holds",
            INSTANCE_TESTS + "TestLocalExchange::test_sweep_meets_every_outcome")),
    Mutant("monotone-witness-max", "instance.py",
           "first = min(_nondecreasing(u, worth), default=None)",
           "first = max(_nondecreasing(u, worth), default=None)",
           (INSTANCE_TESTS + "TestLateWitnesses::test_monotone_decrease_at_the_last_bundles",)),
    Mutant("monotone-lt-le", "instance.py",
           "map(gt, worth, worth[s:])",
           "map(lambda a, b: a >= b, worth, worth[s:])",
           (INSTANCE_TESTS + "TestMonotoneVerifier::test_zero_valuation_holds", *RELATIONS,
            ADDED_BIDDER)),
    Mutant("monotone-j-order-reversed", "instance.py",
           "first = min(_nondecreasing(u, worth), default=None)",
           "first = min(_nondecreasing(u, worth), default=None, key=lambda f: (f[0], -f[1]))",
           (INSTANCE_TESTS
            + "TestMonotoneVerifier::test_first_item_among_decreases_from_one_bundle",)),
    Mutant("stride-off-by-one", "itemsets.py",
           "out[c - 1] = out[c] * radices[c]",
           "out[c - 1] = out[c] * radices[c - 1]",
           (LNAT_TESTS + "test_sweep_meets_every_outcome", STEEPEST_LENGTH, ZERO_WORTH,
            ADDED_BIDDER)),
    Mutant("gp-submask-lt", "lnat.py",
           "if low is not None and low <= val:",
           "if low is not None and low < val:",
           ("tests/test_lnat.py::TestFirstGpMinimal::test_kept_order_matches_a_fresh_shuffle",
            ADDED_BIDDER)),
    Mutant("meet-as-join", "lnat.py",
           "meet &= mask",
           "meet |= mask",
           ("tests/test_lnat.py::TestMinimalMinimizerStep::test_worked_example", *RELATIONS,
            ADDED_BIDDER)),
    Mutant("minimal-descent-le", "lnat.py",
           "if val is not None and val < base:",
           "if val is not None and val <= base:",
           ("tests/test_lnat.py::TestMinimalDescentSet::test_worked_example", SCALING,
            ZERO_WORTH, ADDED_BIDDER)),
    Mutant("table-stop-scan-skipped", "lnat.py",
           "if _corner_changes(g, p, base, 1, per_item) != list(deltas):",
           "if per_item and _corner_changes(g, p, base, 1, per_item) != list(deltas):",
           ("tests/test_lnat.py::TestNeighborhoodTable::test_off_by_one_table_fails_at_the_stop",)),
    Mutant("item-stop-scan-skipped", "lnat.py",
           "if _corner_changes(g, p, base, 1, per_item) != list(deltas):",
           "if not per_item and _corner_changes(g, p, base, 1, per_item) != list(deltas):",
           ("tests/test_lnat.py::TestNeighborhoodTable::"
            "test_off_by_one_item_changes_fail_at_a_step_and_the_stop",)),
    Mutant("run-one-too-long", "demand.py",
           "bounds.append(a_in - a_out)",
           "bounds.append(a_in - a_out + 1)",
           (RUN_KEYS + "test_keys_hold_along_a_run", RUN_TWIN, ADDED_BIDDER)),
    Mutant("run-end-t-minus-one", "lnat.py",
           "if g.fn(chi_add(end, union, periods - 1)) != at + (periods - 1) * total:",
           "if g.fn(chi_add(end, union, periods - 2)) != at + (periods - 2) * total:",
           (PERIOD_READS,)),
    Mutant("run-end-read-on-the-first-line-only", "lnat.py",
           "for end, at in ends:",
           "for end, at in ends[:1]:",
           (PERIOD_READS,)),
    Mutant("period-bound-without-minus-one", "lnat.py",
           "periods = min(periods, bound - (drop > 0))",
           "periods = min(periods, bound)",
           (PERIOD_KEYS, RUN_TWIN)),
    Mutant("period-masks-not-disjoint", "lnat.py",
           "        if step[0] & (union | mask):\n            return None\n",
           "",
           (RUN_TWIN, PERIOD_KEYS)),
    Mutant("period-line-first-read-skipped", "lnat.py",
           "if g.fn(p) != base:",
           "if (mask != phases[0][0] or periods == 1) and g.fn(p) != base:",
           (PERIOD_READS,)),
    Mutant("period-change-from-first-phase", "lnat.py",
           "*reversed(later)), periods",
           "*((m, c + step[1]) for m, c in reversed(later))), periods",
           (RUN_TWIN,)),
    Mutant("period-first-change-from-last-period", "lnat.py",
           "return ((mask, change),",
           "return ((mask, step[1]),",
           (RUN_TWIN,)),
    Mutant("period-later-price-without-offset", "lnat.py",
           "        for _ in range(periods):\n            for mask, change in phases:\n",
           "        for p in repeat(p, periods):\n            for mask, change in phases:\n",
           (RUN_TWIN, RUN_ROWS)),
    Mutant("period-later-bound-read-at-p", "lnat.py",
           "bound = runs(chi_add(p, drop, -1) if drop else p, union)",
           "bound = runs(p, union)",
           (PERIOD_KEYS, RUN_TWIN)),
    Mutant("one-step-end-read-skipped", "lnat.py",
           "if g.fn(p) != base:",
           "if periods > 1 and g.fn(p) != base:",
           STEP_READS),
    Mutant("trajectory-len-counts-iterations", "lnat.py",
           "count = sum(len(phases) * periods for phases, periods in runs)",
           "count = len(runs)",
           (LONG_RUNS, RUN_ROWS)),
    Mutant("trajectory-keyed-by-steps", "lnat.py",
           "    _fields = __slots__[:4]\n",
           '    _fields = ("start", "g_start", "steps", "p_final")\n',
           (COMPACT_RESULT,)),
    Mutant("row-template-holds-a-y-price", "cli.py",
           "        union = sum(mask for mask, _ in phases)\n",
           "        union = sum(mask for mask, _ in phases)\n        union &= union - 1\n",
           (RUN_ROWS,)),
    Mutant("row-price-one-period-short-after-a-run", "cli.py",
           "p[j] += periods * (union >> j & 1)",
           "p[j] += (periods - 1) * (union >> j & 1)",
           (RUN_ROWS,)),
    Mutant("corner-mask-unshifted", "lnat.py",
           "mask = 1 << i if per_item else i",
           "mask = i",
           ("tests/test_lnat.py::TestCorners::test_corners_are_the_point_reads",)),
    Mutant("minimality-scan-skipped", "auction.py",
           "for mask, change in _corners(g, p_final, base, -1):",
           "for mask, change in ():",
           ("tests/test_auction.py::TestMinimalityCertificate::"
            "test_start_above_the_minimal_price_is_refused",)),
    Mutant("admission-not-recorded", "auction.py",
           "        ly.admitted = True\n",
           "",
           ("tests/test_auction.py::TestAdmission::test_shared_oracle_admits_once",)),
    Mutant("per-item-minimal-descent-highest-item", "lnat.py",
           "else down & -down",
           "else 1 << down.bit_length() - 1",
           ("tests/test_lnat.py::TestMinimize::test_separable_oracle_steps_as_its_tables_do",)),
    Mutant("per-item-steepest-one-item", "lnat.py",
           "mask = down if strategy is StrategyKind.STEEPEST_MINIMAL else down & -down",
           "mask = down & -down",
           (STEEPEST_LENGTH,)),
    Mutant("kept-tables-never-cleared", "lyapunov.py",
           "tables.clear()",
           "pass",
           ("tests/test_lyapunov.py::TestKeptTables::test_kept_entries_stay_within_the_budget",)),
    Mutant("conjugate-price-zero-first-row", "demand.py",
           "best = rows[cap]",
           "best = rows[0]",
           (GRID_TWIN,)),
    Mutant("conjugate-price-not-times-units", "demand.py",
           "ck = c * k",
           "ck = c",
           (GRID_TWIN, *RELATIONS, ADDED_BIDDER)),
    Mutant("item-takes-bisect-left", "demand.py",
           "return [len(col) - bisect_right(col, c) - q",
           "return [len(col) - bisect_right(col, c - 1) - q",
           ("tests/test_demand.py::TestFastPaths::"
            "test_demand_key_takes_match_per_bidder_least_argmaxes",
            "tests/test_lyapunov.py::TestDifferenceIdentity::test_two_bidder_multi_box",
            *RELATIONS, ADDED_BIDDER)),
    Mutant("run-tie-no-limit", "demand.py",
           "elif a_in == a_out > 0:",
           "elif a_in == a_out < 0:",
           (RUN_KEYS + "test_keys_hold_along_a_run", RUN_KEYS + "test_unit_and_separable_bounds")),
    Mutant("scan-kept-across-prices", "demand.py",
           "if p != kept[0]:",
           "if kept[0] is None:",
           (SCAN_TESTS + "test_interleaved_reads_match_a_fresh_cache",
            "tests/test_demand.py::TestMultiDemandSets::test_revisited_prices_give_the_same_answers",
            *RELATIONS, ADDED_BIDDER)),
    Mutant("table-bidder-read-through-the-scan", "demand.py",
           "        payoffs = list(map(sub, self._bidder_values(b), _box_costs(p, self.instance.u)))\n",
           "        if b in self.tables:\n"
           "            i = self.tables.index(b)\n"
           "            return self.scan(p)[3][i], self.scan(p)[4][i]\n"
           "        payoffs = list(map(sub, self._bidder_values(b), _box_costs(p, self.instance.u)))\n",
           (TABLE_SCAN + "test_single_bidder_reads_leave_the_descent_state",
            TABLE_SCAN + "test_one_table_scan_per_price_read",
            TABLE_SCAN + "test_interleaved_reads_match_a_fresh_cache",
            "tests/test_oracle.py::TestTwinsReadNoScan::test_twins_run_with_the_scan_broken")),
    Mutant("candidate-drop-test-strict", "demand.py",
           "drops = ((full ^ below) << s) & full",
           "drops = ((full ^ coded(2 * k + 1)) << s) & full",
           (CANDIDATE_TESTS + "test_candidates_give_the_full_scan",)),
    Mutant("candidate-coarse-add-test-at-low-end", "demand.py",
           "adds = coded(2 * k + 2)",
           "adds = coded(2 * k + 1)",
           (CANDIDATE_TESTS + "test_candidates_give_the_full_scan",
            CANDIDATE_TESTS + "test_an_item_past_64_bounds_reads_exactly")),
    Mutant("least-take-of-the-budget-not-kept", "demand.py",
           "if charge <= self.budget:",
           "if charge < self.budget:",
           ("tests/test_demand.py::TestSharedCache::"
            "test_least_takes_of_exactly_the_budget_are_kept",)),
    Mutant("run-columns-read-with-option-0", "demand.py",
           "for col, c in compress(zip(self._columns, p), inside[1:]):",
           "for col, c in compress(zip(self._columns, p), inside):",
           (RUN_KEYS + "test_keys_hold_along_a_run", RUN_KEYS + "test_unit_and_separable_bounds")),
    Mutant("key-tied-mask-unshifted", "demand.py",
           "tied.append(d >> 1)",
           "tied.append(d)",
           ("tests/test_demand.py::TestUnitDemandKey::test_key_matches_the_per_bidder_masks",
            SCALING, STEEPEST_LENGTH, ADDED_BIDDER)),
    Mutant("key-least-bundle-test-dropped", "demand.py",
           "if not all(map(le, x, box[i])):",
           "if False:",
           (LEAST_BUNDLE_TWIN,)),
    Mutant("key-least-bundle-test-inverted", "demand.py",
           "if not all(map(le, x, box[i])):",
           "if all(map(le, x, box[i])):",
           (LEAST_BUNDLE_TWIN,)),
    Mutant("table-negative-component-accepted", "instance.py",
           "for c in x:\n                    if type(c) is not int or c < 0:",
           "for c in x:\n                    if type(c) is not int:",
           (INSTANCE_TESTS + "TestBulkTableCheck::"
            "test_same_outcome_as_the_per_entry_checks[negative component]",
            TWIN_TESTS + "test_tables")),
    Mutant("table-float-worth-accepted", "instance.py",
           "if type(v) is not int:",
           "if type(v) not in (int, float):",
           (INSTANCE_TESTS + "TestBulkTableCheck::"
            "test_same_outcome_as_the_per_entry_checks[float worth]",
            TWIN_TESTS + "test_tables")),
    Mutant("unit-negative-value-accepted", "instance.py",
           "for k, c in enumerate(values):\n                if type(c) is not int or c < 0:",
           "for k, c in enumerate(values):\n                if type(c) is not int:",
           (TWIN_TESTS + "test_unit_values",)),
    Mutant("json-entry-subclass-refused", "instance.py",
           'if not isinstance(e, dict) or set(e) != {"x", "v"} or not isinstance(e["x"], list):',
           "if True:",
           (TWIN_TESTS + "test_json_entries",)),
    Mutant("price-negative-accepted", "demand.py",
           "if type(c) is not int or c < 0:",
           "if type(c) is not int:",
           ("tests/test_auction.py::TestPriceChecks::test_public_reads_refuse_bad_prices",
            TWIN_TESTS + "test_prices")),
    Mutant("gp-minimal-flat-set-taken", "lnat.py",
           "if val is None or val >= base:",
           "if val is None or val > base:",
           (ADDED_BIDDER,)),
    Mutant("unit-grid-worths-misaligned", "lyapunov.py",
           "for w, axis, up in zip(reversed(worths), reversed(axes), reversed(lifted)):",
           "for w, axis, up in zip(worths, reversed(axes), reversed(lifted)):",
           (GRID_TWIN, ADDED_BIDDER, *RELATIONS)),
    Mutant("unit-grid-floor-at-low-ends", "lyapunov.py",
           "floor = max(0, *map(sub, worths, highs))",
           "floor = max(0, *map(sub, worths, lows))",
           (GRID_TWIN,)),
    Mutant("unit-grid-column-without-floor", "lyapunov.py",
           "t + (w - c if w - c > floor else floor)",
           "t + (w - c)",
           (GRID_TWIN,)),
    Mutant("unit-grid-skipped-pass-not-repeated", "lyapunov.py",
           "slow *= len(axis)",
           "slow *= 1",
           (GRID_TWIN,)),
    Mutant("unit-enumeration-sells-every-item", "oracle.py",
           "        unsold = True\n",
           "        unsold = False\n",
           ("tests/test_oracle.py::TestDefinitionalEnumeration::"
            "test_unit_options_clear_as_the_multi_models_bundles",
            "tests/test_oracle.py::TestClearingWalks::test_unit_walk_matches_the_recursion")),
    Mutant("unit-path-ends-only-at-free", "auction.py",
           "if w is None or not required[w]:",
           "if w is None:",
           (UNIT_EXTRACTION,)),
    Mutant("unit-path-drops-a-required-partner", "auction.py",
           "if w is None or not required[w]:",
           "if True:",
           (UNIT_EXTRACTION,)),
    Mutant("key-table-top-item-in-lower-mask", "demand.py",
           "low = tied[i] ^ half",
           "low = tied[i]",
           (KEY_TABLE_TWIN,)),
    Mutant("key-table-unit-in-lower-half", "demand.py",
           "out[half + s] += 1",
           "out[s] += 1",
           (KEY_TABLE_TWIN,)),
    Mutant("key-table-walk-one-short", "demand.py",
           "if s == half - 1:",
           "if (s + 1) | low == half - 1:",
           (KEY_TABLE_TWIN,)),
    Mutant("key-table-negative-take-copied", "demand.py",
           "            if c:\n",
           "            if c > 0:\n",
           (KEY_TABLE_TWIN,)),
    Mutant("chi-reversed", "itemsets.py",
           "return tuple((mask >> k) & 1 for k in range(n))",
           "return tuple((mask >> k) & 1 for k in reversed(range(n)))",
           (CHI_TWIN,)),
    Mutant("chi-kept-by-mask-alone", "itemsets.py",
           "@lru_cache(maxsize=256)\n",
           "def _by_mask(build, kept={}):\n"
           "    return lambda mask, n: kept.setdefault(mask, build(mask, n))\n\n\n"
           "@_by_mask\n",
           (CHI_TWIN,)),
    Mutant("last-piece-not-yielded", "cli.py",
           "    if run:\n        yield sep.join(run)\n",
           "",
           (STDOUT_PIECES,)),
    Mutant("piece-boundary-separator-lost", "cli.py",
           'yield sep + piece\n        sep = ",\\n"',
           'yield sep + piece\n        sep = "\\n"',
           (STDOUT_PIECES,)),
    Mutant("lnat-charge-fixed-budget", "cli.py",
           "bad = is_lnat_convex_on_box(ly.function_oracle(), box, budget=budget)",
           "bad = is_lnat_convex_on_box(ly.function_oracle(), box, budget=_LNAT_CHECK_BUDGET)",
           (VERIFY_TESTS + "test_lnat_is_charged_the_runs_budget",)),
)


def stale(mutants=MUTANTS) -> list[str]:
    """The names of the entries whose snippet does not occur exactly once
    in its file."""
    src = ROOT / "src" / "walras"
    return [m.name for m in mutants
            if (src / m.path).read_text(encoding="utf-8").count(m.snippet) != 1]


def _pytest(work: Path, tests, *flags: str) -> subprocess.CompletedProcess:
    """Run ``tests`` on the copy of ``src/`` under ``work``, Hypothesis
    drawing from ``HYPOTHESIS_SEED``."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"--hypothesis-seed={HYPOTHESIS_SEED}", *flags,
         *(str(ROOT / test) for test in tests)],
        cwd=work, env=env, capture_output=True, text=True, timeout=600)


def clean_failures(tests, work: Path) -> list[str]:
    """Run ``tests`` once on the unmutated copy under ``work`` and return
    what fails there: the ids pytest names, or the tail of its output when
    it names none; empty when they all pass."""
    try:
        proc = _pytest(work, tests, "-rfE")
    except subprocess.TimeoutExpired:
        return ["the clean run timed out"]
    if proc.returncode == 0:
        return []
    named = [line.split()[1] for line in proc.stdout.splitlines()
             if line.startswith(("FAILED ", "ERROR "))]
    return named or [(proc.stdout + proc.stderr)[-2000:]]


def run(mutant: Mutant, work: Path) -> str:
    """Plant ``mutant`` in the copy of ``src/`` under ``work``, run its
    tests, put the file back, and return "killed", "survived", "error" or
    "error (timed out)"."""
    target = work / "src" / "walras" / mutant.path
    original = target.read_text(encoding="utf-8")
    target.write_text(original.replace(mutant.snippet, mutant.fault), encoding="utf-8")
    try:
        proc = _pytest(work, mutant.tests, "-x")
    except subprocess.TimeoutExpired:
        return "error (timed out)"
    finally:
        target.write_text(original, encoding="utf-8")
    if proc.returncode not in (0, 1):
        print(proc.stdout[-2000:] + proc.stderr[-2000:], file=sys.stderr)
    return {0: "survived", 1: "killed"}.get(proc.returncode, "error")


def main(argv: list[str]) -> int:
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in argv if name not in known]
    if unknown:
        print(f"unknown entries: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [known[name] for name in argv] if argv else list(MUTANTS)
    bad = stale(chosen)
    for name in bad:
        print(f"{name}: snippet does not occur exactly once")
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "src", work / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        failing = clean_failures(dict.fromkeys(t for m in chosen for t in m.tests), work)
        if failing:
            print("tests fail before any fault is planted:")
            for test in failing:
                print(f"  {test}")
            return 1
        for mutant in chosen:
            if mutant.name in bad:
                continue
            start = time.perf_counter()
            outcome = run(mutant, work)
            outcomes.append(outcome)
            print(f"{mutant.name}: {outcome} ({time.perf_counter() - start:.1f} s)")
    print(f"{outcomes.count('killed')} of {len(chosen)} killed")
    return 0 if not bad and outcomes.count("killed") == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
