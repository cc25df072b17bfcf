"""Brute-force ground truth: exhaustive Lyapunov minimization and definitional
equilibrium enumeration over a bounded price box.

Everything here exists to check the fast paths, so it deliberately shares no
search logic with the auction layer: equilibria are decided straight from the
definitions by enumeration.
"""

from __future__ import annotations

from itertools import product

from .demand import DemandCache
from .errors import BudgetExceededError, ConvexityError
from .instance import (DEFAULT_BUDGET, MULTI, UNIT, Instance, ItemSet,
                       PriceVector, max_total_value)
from .itemsets import chi_add, mask_from_items, proper_submasks
from .lnat import FunctionOracle
from .lyapunov import LyapunovOracle

#: Price-box volume up to which the minimizer scan cross-checks itself
#: against definitional equilibrium enumeration.
CROSS_CHECK_VOLUME = 1000


def price_cap(instance: Instance) -> PriceVector:
    """Componentwise bound below which every Lyapunov minimizer lives.

    Equals the largest worth any bidder assigns to the full supply; beyond it
    the Lyapunov value is strictly increasing in every coordinate.
    """
    return (max_total_value(instance),) * instance.n


def _scan_box(instance: Instance) -> tuple[int, tuple[range, ...]]:
    cap = max_total_value(instance)
    volume = (cap + 1) ** instance.n
    return volume, tuple(range(cap + 1) for _ in range(instance.n))


def all_lyapunov_minimizers(instance: Instance, *, budget: int = DEFAULT_BUDGET,
                            oracle: LyapunovOracle | None = None) -> frozenset[PriceVector]:
    """All global minimizers of the Lyapunov function, by exhaustive scan."""
    volume, ranges = _scan_box(instance)
    if volume > budget:
        raise BudgetExceededError(
            f"price box volume {volume} exceeds budget {budget}")
    ly = oracle if oracle is not None else LyapunovOracle(instance, budget=budget)
    best = None
    arg: list[PriceVector] = []
    for p in product(*ranges):
        val = ly.value(p)
        if best is None or val < best:
            best = val
            arg = [p]
        elif val == best:
            arg.append(p)
    return frozenset(arg)


def brute_force_min_equilibrium(instance: Instance, *, budget: int = DEFAULT_BUDGET,
                                oracle: LyapunovOracle | None = None) -> PriceVector:
    """Componentwise meet of all Lyapunov minimizers.

    The meet must itself be a minimizer; if not, the valuations are outside
    the substitutes class.  On small price boxes the minimizer set is also
    compared against equilibrium prices enumerated from the allocation
    definitions (skipped for the degenerate bidderless multi model, whose
    positive supply can never clear exactly).
    """
    minimizers = all_lyapunov_minimizers(instance, budget=budget, oracle=oracle)
    n = instance.n
    meet = tuple(min(p[j] for p in minimizers) for j in range(n))
    if meet not in minimizers:
        raise ConvexityError("minimizer set not meet-closed")
    volume, _ = _scan_box(instance)
    if volume <= CROSS_CHECK_VOLUME:
        degenerate = instance.model == MULTI and instance.m == 0
        if not degenerate:
            exact = equilibrium_prices_by_enumeration(instance, budget=budget)
            if exact != minimizers:
                raise ConvexityError(
                    "equilibrium prices by definition differ from Lyapunov minimizers")
        if instance.model == MULTI:
            relaxed = equilibrium_prices_by_enumeration(instance, unsold=True,
                                                        budget=budget)
            if relaxed != minimizers:
                raise ConvexityError(
                    "unsold-items equilibrium prices differ from Lyapunov minimizers")
    return meet


# --- definitional equilibrium enumeration ---------------------------------


def _unit_clearing(instance: Instance, dc: DemandCache, p: PriceVector,
                   charge) -> bool:
    """Does some assignment give every bidder a demanded option and sell every
    positively priced item?  Straight depth-first enumeration."""
    m, n = instance.m, instance.n
    demands = [dc.unit_demand_set(b, p) for b in range(m)]
    priced = frozenset(i for i in range(1, n + 1) if p[i - 1] > 0)

    def walk(b: int, used: frozenset[int]) -> bool:
        charge()
        if len(priced - used) > m - b:
            return False
        if b == m:
            return priced <= used
        for a in sorted(demands[b]):
            if a == 0:
                if walk(b + 1, used):
                    return True
            elif a not in used:
                if walk(b + 1, used | {a}):
                    return True
        return False

    return walk(0, frozenset())


def _multi_clearing(instance: Instance, dc: DemandCache, p: PriceVector,
                    charge, unsold: bool) -> bool:
    """Does some choice of demanded bundles clear the supply?  With ``unsold``
    the total may fall short wherever the price is zero."""
    m, n, u = instance.m, instance.n, instance.u
    if m == 0:
        return unsold and all(c == 0 for c in p)
    sets = [dc.demand_set(b, p) for b in range(m)]
    maxs = [tuple(max(x[j] for x in ds) for j in range(n)) for ds in sets]
    suffix_max = [(0,) * n] * (m + 1)
    for k in range(m - 1, -1, -1):
        suffix_max[k] = tuple(maxs[k][j] + suffix_max[k + 1][j] for j in range(n))

    def closes(remaining: tuple[int, ...]) -> bool:
        if unsold:
            return all(r == 0 or p[j] == 0 for j, r in enumerate(remaining))
        return all(r == 0 for r in remaining)

    def walk(k: int, remaining: tuple[int, ...]) -> bool:
        charge()
        if k == m:
            return closes(remaining)
        hi = suffix_max[k + 1]
        for x in sets[k]:
            fits = True
            rest = []
            for j in range(n):
                r = remaining[j] - x[j]
                if r < 0 or (r > hi[j] and not (unsold and p[j] == 0)):
                    fits = False
                    break
                rest.append(r)
            if fits and walk(k + 1, tuple(rest)):
                return True
        return False

    return walk(0, u)


def equilibrium_prices_by_enumeration(instance: Instance, *, unsold: bool = False,
                                      budget: int = DEFAULT_BUDGET) -> frozenset[PriceVector]:
    """Equilibrium prices straight from the definition, scanning [0, price_cap].

    For the unit model the definition already lets zero-priced items go
    unsold, so ``unsold`` changes nothing there.  For the multi model,
    ``unsold=False`` demands the bundles sum exactly to the supply, while
    ``unsold=True`` allows leftovers on zero-priced items only.
    """
    volume, ranges = _scan_box(instance)
    if volume > budget:
        raise BudgetExceededError(
            f"price box volume {volume} exceeds budget {budget}")
    dc = DemandCache(instance, budget=budget)
    spent = 0

    def charge():
        nonlocal spent
        spent += 1
        if spent > budget:
            raise BudgetExceededError(
                f"definitional enumeration exceeded budget {budget}")

    out = []
    for p in product(*ranges):
        p = tuple(p)
        if instance.model == UNIT:
            good = _unit_clearing(instance, dc, p, charge)
        else:
            good = _multi_clearing(instance, dc, p, charge, unsold)
        if good:
            out.append(p)
    return frozenset(out)


# --- local minimality, set by set ------------------------------------------


def is_gp_minimal(g: FunctionOracle, p: PriceVector, X: ItemSet) -> bool:
    """True iff every proper subset raise lands strictly above the raise by X.

    With Y = {} this forces a strict descent, so such sets are always valid
    choices for the loop's raise step.  The definitional twin of
    ``lnat.gp_minimal_table``, which the descent reads.
    """
    p = tuple(p)
    mask = mask_from_items(X, g.n)
    if mask == 0:
        raise ValueError("X must be nonempty")
    target = g.fn(chi_add(p, mask))
    if target is None:
        return False
    for sub in proper_submasks(mask):
        val = g.fn(chi_add(p, sub))
        if val is not None and val <= target:
            return False
    return True
