"""Solver for minimal market-clearing prices in unit- and multi-demand auctions.

Exact integer arithmetic throughout; ascending price adjustment with
interchangeable item-set selection strategies, brute-force oracles for
verification, and a JSON instance format with a CLI front end.
"""

from .auction import (Allocation, AuctionResult, DescentWitness,
                      EquilibriumVerdict, MultiAllocation, UnitAllocation,
                      ascending_auction, extract_allocation, verify_equilibrium)
from .demand import DemandCache
from .errors import (BudgetExceededError, ContractError, ConvexityError,
                     InstanceFormatError, IterationCapError, WalrasError)
from .instance import (DEFAULT_BUDGET, EXPLICIT_TABLE, MULTI,
                       SEPARABLE_CONCAVE, UNIT, UNIT_DEMAND, Bundle, Instance,
                       ItemSet, MnatCounterexample, MonotonicityCounterexample,
                       PriceVector, Valuation, evaluate, load_instance,
                       max_total_value, parse_instance, serialize_instance,
                       verify_mnat_exc, verify_monotone_normalized)
from .lnat import (FunctionOracle, LnatCounterexample, Step, StrategyKind,
                   Trajectory, first_gp_minimal, is_lnat_convex_on_box,
                   maximal_gp_minimal, minimal_descent_set,
                   minimal_minimizer_step, minimize, neighborhood_values)
from .lyapunov import LyapunovOracle

__version__ = "0.1.0"

# The brute-force twins of ``oracle`` load on first use (PEP 562), so that
# importing the package or its CLI does not compile them.
_ORACLE_EXPORTS = frozenset({
    "all_lyapunov_minimizers", "allocation_certifies", "bidders_demanding_some",
    "bidders_only_demanding", "brute_force_min_equilibrium", "certified_meet",
    "deficiency", "demand_set", "equilibrium_prices_by_enumeration",
    "gp_minimal_table", "is_excess_demand", "is_gp_minimal", "is_overdemanded",
    "lyapunov_step", "lyapunov_value", "mu", "price_cap", "separable_p_min",
    "unit_demand_set"})


def __getattr__(name):
    if name in _ORACLE_EXPORTS:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals().keys() | _ORACLE_EXPORTS)
