"""Budget-aware multi-round resource auction simulator for mobile device clouds.

Buyers with whole-horizon budgets bid money for multi-dimensional
resource bundles offered by sellers; each round is a multiple-choice
multi-dimensional 0-1 knapsack winner determination.  The package
provides the single-round auction (SRMRA), the budget-aware multi-round
framework (MAFL) that shrinks previous winners' bids in proportion to
their remaining budget, baselines, worked-example replay, and a seeded
simulation lab.
"""

from .errors import InvariantViolation, ValidationError
from .mechanisms import (
    AuctionResult,
    adjust_bid,
    replay,
    run_double_auction,
    run_mafl,
    run_repeated_srmra,
    run_srmra,
)
from .model import (
    Assignment,
    AuctionLedger,
    Bid,
    Buyer,
    ResourceVector,
    RoundOutcome,
    Seller,
)
from .money import SCALE, format_milli, to_milli
from .scenario import GeneratorParams, MechanismConfig, Scenario
from .simlab import (
    ComparisonReport,
    EvaluationResult,
    MechanismSpec,
    RunMetrics,
    compare,
    compute_metrics,
    evaluate,
    generate_scenario,
)
from .wdp import (
    SearchBudgetExceeded,
    WdpInstance,
    WdpSolution,
    solve_exact,
    solve_greedy,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "AuctionLedger",
    "AuctionResult",
    "Bid",
    "Buyer",
    "ComparisonReport",
    "EvaluationResult",
    "GeneratorParams",
    "InvariantViolation",
    "MechanismConfig",
    "MechanismSpec",
    "ResourceVector",
    "RoundOutcome",
    "RunMetrics",
    "SCALE",
    "Scenario",
    "SearchBudgetExceeded",
    "Seller",
    "ValidationError",
    "WdpInstance",
    "WdpSolution",
    "adjust_bid",
    "compare",
    "compute_metrics",
    "evaluate",
    "format_milli",
    "generate_scenario",
    "replay",
    "run_double_auction",
    "run_mafl",
    "run_repeated_srmra",
    "run_srmra",
    "solve_exact",
    "solve_greedy",
    "to_milli",
]
