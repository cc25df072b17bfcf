"""Acceptance suite: worked-example reproduction plus randomized sweeps.

Criterion 2 builds a shared sweep of random instances (unit: n <= 5, m <= 7,
values <= 5; multi: n <= 3, u(i) <= 3, m <= 4, separable-concave values <= 6).
Multi instances whose oracle price box would exceed a fixed volume are
redrawn, since oracle-backed checks exclude instances beyond budget rather
than truncating them.  Every criterion prints one PASS/FAIL line.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import product
from operator import mul

from conftest import (make_ex21, random_multi_instance, random_unit_instance)
from walras import (Instance, LyapunovOracle, StrategyKind,
                    ascending_auction, bidders_demanding_some,
                    bidders_only_demanding, brute_force_min_equilibrium,
                    is_excess_demand, is_lnat_convex_on_box, is_overdemanded,
                    max_total_value, minimal_minimizer_step, verify_mnat_exc)
from walras.oracle import excess_demand_table
from walras.instance import UNIT, Valuation
from walras.itemsets import items_from_mask, strides, subset_sums
from walras.lnat import FunctionOracle

UNIT_COUNT = 150
MULTI_COUNT = 60
SWEEP_SEED = 20260810
MULTI_BOX_LIMIT = 15_000
LNAT_WORK = 250_000



@dataclass
class Record:
    label: str
    model: str
    p_min: tuple[int, ...] = ()
    finals: dict = field(default_factory=dict)
    lengths: dict = field(default_factory=dict)
    overshoot: str | None = None
    identity: str | None = None
    equivalence: str | None = None
    families: str | None = None
    closure: str | None = None
    mnat_ok: bool = True
    lnat_ok: bool = True
    solve_seconds: float = 0.0


def _box_checks(inst: Instance, ly: LyapunovOracle, cap: int, rec: Record) -> None:
    """Every check at every point p of [0, cap]^n, each corner's value
    p + chi_X read from one grid of L over [0, cap + 1]^n."""
    n = inst.n
    size = 1 << n
    dc = ly.demand
    grid = ly.grid_values([range(cap + 2)] * n)
    stride = strides([cap + 2] * n)
    corners = subset_sums(stride, n)
    for p in product(range(cap + 1), repeat=n):
        at = sum(map(mul, p, stride))
        vals = [grid[at + corner] for corner in corners]
        base = vals[0]
        delta = dc.deficiency_from_key(dc.demand_key(p))
        if rec.identity is None:
            for mask in range(size):
                if vals[mask] - base != -delta[mask]:
                    rec.identity = f"p={p} X={sorted(items_from_mask(mask))}"
                    break
        gp = [False] * size
        for mask in range(1, size):
            target = vals[mask]
            ok = True
            sub = (mask - 1) & mask
            while True:
                if vals[sub] <= target:
                    ok = False
                    break
                if sub == 0:
                    break
                sub = (sub - 1) & mask
            gp[mask] = ok
        exc = excess_demand_table(inst, p)
        if rec.equivalence is None:
            bad = next((m for m in range(1, size) if exc[m] != gp[m]), None)
            if bad is None:
                bad = next((m for m in range(size)
                            if (delta[m] > 0) != (vals[m] - base < 0)), None)
            if bad is not None:
                rec.equivalence = f"p={p} X={sorted(items_from_mask(bad))}"
        if rec.closure is None:
            family = [m for m in range(1, size) if gp[m]]
            famset = set(family)
            union = 0
            closed = True
            for a in family:
                union |= a
                for b in family:
                    if (a | b) not in famset:
                        closed = False
            if not closed or union != minimal_minimizer_step(vals):
                rec.closure = f"p={p}"
        if inst.model == UNIT and rec.families is None:
            problem = _family_laws([delta[m] > 0 for m in range(size)], exc,
                                   delta, size)
            if problem is not None:
                rec.families = f"p={p}: {problem}"


def _family_laws(od, exc, delta, size) -> str | None:
    for m in range(1, size):
        if exc[m] and not od[m]:
            return "excess-demand set not overdemanded"

    def minimal_members(flags):
        out = set()
        for m in range(1, size):
            if not flags[m]:
                continue
            sub = (m - 1) & m
            smallest = True
            while True:
                if sub and flags[sub]:
                    smallest = False
                    break
                if sub == 0:
                    break
                sub = (sub - 1) & m
            if smallest:
                out.add(m)
        return out

    min_od = minimal_members(od)
    min_exc = minimal_members(exc)
    for m in min_od:
        if not exc[m]:
            return "minimal overdemanded set not excess-demand"
    if min_od != min_exc:
        return "minimal families differ"
    family = [m for m in range(1, size) if exc[m]]
    famset = set(family)
    union = 0
    for a in family:
        union |= a
        for b in family:
            if (a | b) not in famset:
                return "excess family not union-closed"
    peak = max(delta)
    argmax = [m for m in range(size) if delta[m] == peak]
    meet = argmax[0]
    for m in argmax[1:]:
        meet &= m
    if delta[meet] != peak:
        return "deficiency maximizers not meet-closed"
    if peak > 0:
        if not family or union != meet:
            return "maximal excess set differs from the minimal deficiency maximizer"
    elif family:
        return "excess family nonempty without overdemand"
    return None


def _lnat_side(cap: int, n: int) -> int:
    side = cap
    while side > 0 and (side + 1) ** (2 * n + 1) > LNAT_WORK:
        side -= 1
    return side


def _build_record(inst: Instance, label: str, seed: int) -> Record:
    rec = Record(label=label, model=inst.model)
    ly = LyapunovOracle(inst)
    g = ly.function_oracle()
    cap = max_total_value(inst)

    started = time.perf_counter()
    rec.p_min = brute_force_min_equilibrium(inst)
    for kind in StrategyKind:
        res = ascending_auction(inst, kind, seed=seed, oracle=ly)
        rec.finals[kind.value] = res.p_min
        rec.lengths[kind.value] = len(res.trajectory)
        if rec.overshoot is None:
            points = [res.trajectory.start]
            points += [s.p_before for s in res.trajectory.steps]
            points.append(res.p_min)
            for q in points:
                if any(x > t for x, t in zip(q, rec.p_min)):
                    rec.overshoot = f"{kind.value}: {q} above {rec.p_min}"
                    break
    rec.solve_seconds = time.perf_counter() - started

    _box_checks(inst, ly, cap, rec)

    rec.mnat_ok = all(verify_mnat_exc(v) is None for v in inst.valuations)
    side = _lnat_side(cap, inst.n)
    box = ((0,) * inst.n, (side,) * inst.n)
    rec.lnat_ok = is_lnat_convex_on_box(g, box, budget=LNAT_WORK) is None
    return rec


_STATE: dict = {}


def sweep() -> list[Record]:
    if "records" not in _STATE:
        rng = random.Random(SWEEP_SEED)
        records = [_build_record(make_ex21(), "ex21", 0)]
        for k in range(UNIT_COUNT):
            inst = random_unit_instance(rng)
            records.append(_build_record(inst, f"unit-{k}", k + 1))
        for k in range(MULTI_COUNT):
            while True:
                inst = random_multi_instance(rng)
                if (max_total_value(inst) + 1) ** inst.n <= MULTI_BOX_LIMIT:
                    break
            records.append(_build_record(inst, f"multi-{k}", 1000 + k))
        _STATE["records"] = records
    return _STATE["records"]


def _report(num: int, name: str, failures: list[str]) -> None:
    print(f"[criterion {num}] {name}: {'PASS' if not failures else 'FAIL'}")
    assert not failures, f"criterion {num} ({name}): {failures[:5]}"


def test_criterion_1_worked_example_tables():
    started = time.perf_counter()
    inst = make_ex21()
    p = (0, 0, 0)
    failures = []
    expected_only = {
        (): set(), (2,): set(), (3,): set(),
        (1,): {0, 1}, (1, 3): {0, 1}, (1, 2): {0, 1, 5},
        (2, 3): {2, 3, 4}, (1, 2, 3): {0, 1, 2, 3, 4, 5},
    }
    expected_some = {
        (): set(), (1,): {0, 1, 5}, (2,): {2, 3, 4, 5}, (3,): {2, 3, 4},
        (2, 3): {2, 3, 4, 5}, (1, 2): {0, 1, 2, 3, 4, 5},
        (1, 3): {0, 1, 2, 3, 4, 5}, (1, 2, 3): {0, 1, 2, 3, 4, 5},
    }
    for items, want in expected_only.items():
        got = bidders_only_demanding(frozenset(items), p, inst)
        if got != want:
            failures.append(f"only({items}) = {sorted(got)}")
    for items, want in expected_some.items():
        got = bidders_demanding_some(frozenset(items), p, inst)
        if got != want:
            failures.append(f"some({items}) = {sorted(got)}")
    overdemanded = {m for m in range(1, 8)
                    if is_overdemanded(items_from_mask(m), p, inst)}
    if overdemanded != {0b001, 0b011, 0b110, 0b111}:
        failures.append(f"overdemanded family {overdemanded}")
    excess = {m for m in range(1, 8)
              if is_excess_demand(items_from_mask(m), p, inst)}
    if excess != {0b001, 0b110, 0b111}:
        failures.append(f"excess family {excess}")
    minimal = {m for m in excess
               if not any(z in excess for z in range(1, m) if z & m == z and z != m)}
    if minimal != {0b001, 0b110}:
        failures.append(f"minimal excess members {minimal}")
    union = 0
    for m in excess:
        union |= m
    if union != 0b111 or union not in excess:
        failures.append("maximal excess member wrong")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s")
    _report(1, "worked-example demand tables and set families", failures)


def test_criterion_2_strategy_agreement_with_oracle():
    records = sweep()
    failures = []
    random_count = len(records) - 1
    if random_count < 200:
        failures.append(f"only {random_count} random instances")
    for rec in records:
        for name, final in rec.finals.items():
            if final != rec.p_min:
                failures.append(f"{rec.label}/{name}: {final} != {rec.p_min}")
    total = sum(rec.solve_seconds for rec in records)
    print(f"    (criterion 2 solve+oracle time: {total:.1f}s "
          f"across {len(records)} instances)")
    if total >= 60.0:
        failures.append(f"runtime {total:.1f}s exceeds 60s")
    _report(2, "all strategies reach the brute-force minimal price", failures)


def test_criterion_3_step_equals_negative_deficiency():
    failures = [f"{rec.label}: {rec.identity}" for rec in sweep()
                if rec.identity is not None]
    _report(3, "value step equals minus deficiency on the whole box", failures)


def test_criterion_4_excess_demand_equivalences():
    failures = [f"{rec.label}: {rec.equivalence}" for rec in sweep()
                if rec.equivalence is not None]
    _report(4, "excess-demand and overdemand match their value-side forms", failures)


def test_criterion_5_unit_family_laws():
    failures = [f"{rec.label}: {rec.families}" for rec in sweep()
                if rec.model == UNIT and rec.families is not None]
    _report(5, "overdemanded/excess family laws on unit instances", failures)


def test_criterion_6_never_overshoot():
    failures = [f"{rec.label}: {rec.overshoot}" for rec in sweep()
                if rec.overshoot is not None]
    _report(6, "no trajectory point exceeds the minimal price", failures)


def test_criterion_7_union_closure_and_maximal_member():
    failures = [f"{rec.label}: {rec.closure}" for rec in sweep()
                if rec.closure is not None]
    _report(7, "locally-minimal families are union-closed with the right maximum",
            failures)


def test_criterion_8_convexity_verifiers():
    records = sweep()
    failures = [f"{rec.label}: exchange check failed" for rec in records
                if not rec.mnat_ok]
    failures += [f"{rec.label}: midpoint convexity failed" for rec in records
                 if not rec.lnat_ok]
    supermodular = FunctionOracle(
        n=2, fn={(0, 0): 0, (1, 0): 1, (0, 1): 1, (1, 1): 3}.get,
        box=((0, 0), (1, 1)))
    witness = is_lnat_convex_on_box(supermodular, supermodular.box)
    if witness is None or (witness.p, witness.q) != ((0, 1), (1, 0)):
        failures.append(f"supermodular witness {witness}")
    complements = Valuation.from_table(
        {(0, 0): 0, (1, 0): 1, (0, 1): 1, (1, 1): 3})
    bad = verify_mnat_exc(complements)
    if bad is None or (bad.x, bad.y) != ((0, 0), (1, 1)):
        failures.append(f"complements witness {bad}")
    _report(8, "convexity verifiers accept the sweep and reject the fakes",
            failures)


def test_criterion_9_iteration_counts():
    # Empirical check of the cited step-count optimality; not a proof.
    failures = []
    for rec in sweep():
        steepest = rec.lengths[StrategyKind.STEEPEST_MINIMAL.value]
        expected = max(rec.p_min) if rec.p_min else 0
        if steepest != expected:
            failures.append(f"{rec.label}: steepest {steepest} != {expected}")
        if rec.lengths[StrategyKind.MINIMAL_DESCENT.value] < steepest:
            failures.append(f"{rec.label}: minimal-descent shorter than steepest")
    _report(9, "steepest runs in max-coordinate-gap iterations", failures)
