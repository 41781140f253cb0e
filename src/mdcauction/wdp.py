"""Winner determination for one auction round.

Maximizes the sum of accepted bid amounts subject to one seller per
buyer (tasks are indivisible) and per-seller capacity in every resource
dimension: a multiple-choice multi-dimensional 0-1 knapsack.  The exact
solver is a depth-first branch and bound meant for desk-scale instances
(tens of buyers, a handful of sellers); the greedy heuristic handles
anything larger.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantViolation, ValidationError
from .model import Assignment, Bid, ResourceVector

DEFAULT_NODE_BUDGET = 5_000_000


@dataclass(frozen=True)
class WdpInstance:
    """One round's solver input.

    ``seller_caps`` must already account for period-capacity
    remainders (component-wise min of round capacity and what the
    seller may still share).
    """

    bids: tuple[Bid, ...]
    seller_caps: dict[int, ResourceVector]

    def __post_init__(self):
        object.__setattr__(self, "bids", tuple(self.bids))
        object.__setattr__(self, "seller_caps", dict(self.seller_caps))
        seen = set()
        dimension = None
        for bid in self.bids:
            if bid.buyer_id in seen:
                raise ValidationError("bids", f"buyer {bid.buyer_id} bids twice")
            seen.add(bid.buyer_id)
            if dimension is None:
                dimension = len(bid.demand)
            elif len(bid.demand) != dimension:
                raise ValidationError(
                    f"bids[{bid.buyer_id}].demand", "inconsistent resource dimension"
                )
        for seller_id, cap in self.seller_caps.items():
            if dimension is None:
                dimension = len(cap)
            elif len(cap) != dimension:
                raise ValidationError(
                    f"seller_caps[{seller_id}]", "inconsistent resource dimension"
                )

    @property
    def dimension(self) -> int:
        if self.bids:
            return len(self.bids[0].demand)
        for cap in self.seller_caps.values():
            return len(cap)
        return 0


@dataclass(frozen=True)
class WdpSolution:
    assignment: Assignment
    objective: int
    optimal: bool

    def __post_init__(self):
        if self.objective < 0:
            raise InvariantViolation("objective must be >= 0")


class SearchBudgetExceeded(RuntimeError):
    """Exact search ran out of nodes; carries the best incumbent found."""

    def __init__(self, node_budget: int, best: WdpSolution):
        self.node_budget = node_budget
        self.best = best
        super().__init__(f"search budget exceeded ({node_budget} nodes)")


def solve_exact(instance: WdpInstance, node_budget: int = DEFAULT_NODE_BUDGET) -> WdpSolution:
    """Maximum-objective feasible assignment by depth-first branch and bound.

    Buyers are processed in id order; each node branches over the
    sellers (ascending id) with room left, then over leaving the buyer
    unassigned.  The bound is the partial value plus the sum of all
    remaining bids, which is admissible, and the incumbent is replaced
    only on strict improvement, so among equal-objective optima the
    first one in this search order wins: earlier buyers are assigned in
    preference to later ones, lower seller ids in preference to higher,
    assigned in preference to unassigned.

    Raises SearchBudgetExceeded (carrying the incumbent) if more than
    ``node_budget`` nodes are expanded.
    """
    bids = sorted(instance.bids, key=lambda b: b.buyer_id)
    n = len(bids)
    amounts = [b.amount for b in bids]
    demands = [tuple(b.demand) for b in bids]
    seller_ids = sorted(instance.seller_caps)
    residual = [list(instance.seller_caps[s]) for s in seller_ids]
    dim = instance.dimension

    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + amounts[i]

    best_value = -1
    best_pairs: tuple[tuple[int, int], ...] = ()
    chosen: list[tuple[int, int]] = []
    nodes = 0

    def incumbent() -> WdpSolution:
        if best_value < 0:
            return WdpSolution(Assignment(()), 0, False)
        return WdpSolution(Assignment(best_pairs), best_value, False)

    def descend(i: int, value: int) -> None:
        nonlocal best_value, best_pairs, nodes
        nodes += 1
        if nodes > node_budget:
            raise SearchBudgetExceeded(node_budget, incumbent())
        if value + suffix[i] <= best_value:
            return
        if i == n:
            if value > best_value:
                best_value = value
                best_pairs = tuple(chosen)
            return
        demand = demands[i]
        for j, seller_id in enumerate(seller_ids):
            room = residual[j]
            if all(demand[k] <= room[k] for k in range(dim)):
                for k in range(dim):
                    room[k] -= demand[k]
                chosen.append((bids[i].buyer_id, seller_id))
                descend(i + 1, value + amounts[i])
                chosen.pop()
                for k in range(dim):
                    room[k] += demand[k]
        descend(i + 1, value)

    descend(0, 0)
    if best_value < 0:
        return WdpSolution(Assignment(()), 0, True)
    return WdpSolution(Assignment(best_pairs), best_value, True)


def solve_greedy(instance: WdpInstance) -> WdpSolution:
    """Density-ordered heuristic; feasible but not necessarily optimal.

    Bids are ranked by amount / (1 + sum of demand components, each
    normalized by the total capacity across sellers in that dimension),
    the standard density rule for multidimensional knapsacks.  Each bid
    is placed with the feasible seller keeping the most normalized
    slack (max of the minimum normalized residual).  Ties fall to the
    lower buyer id, then the lower seller id.  Exact fractions avoid
    float ties.
    """
    dim = instance.dimension
    seller_ids = sorted(instance.seller_caps)
    residual = {s: list(instance.seller_caps[s]) for s in seller_ids}
    totals = [sum(instance.seller_caps[s].units[k] for s in seller_ids) for k in range(dim)]
    norms = [t if t > 0 else 1 for t in totals]

    def density(bid: Bid) -> Fraction:
        weight = Fraction(1) + sum(
            Fraction(d, norms[k]) for k, d in enumerate(bid.demand)
        )
        return Fraction(bid.amount) / weight

    ranked = sorted(
        (bid for bid in instance.bids if bid.amount > 0),
        key=lambda b: (-density(b), b.buyer_id),
    )

    pairs: list[tuple[int, int]] = []
    objective = 0
    for bid in ranked:
        demand = tuple(bid.demand)
        best_seller = None
        best_slack = None
        for s in seller_ids:
            room = residual[s]
            if all(demand[k] <= room[k] for k in range(dim)):
                slack = min(
                    (Fraction(room[k] - demand[k], norms[k]) for k in range(dim)),
                    default=Fraction(0),
                )
                if best_slack is None or slack > best_slack:
                    best_seller, best_slack = s, slack
        if best_seller is None:
            continue
        room = residual[best_seller]
        for k in range(dim):
            room[k] -= demand[k]
        pairs.append((bid.buyer_id, best_seller))
        objective += bid.amount
    return WdpSolution(Assignment(tuple(pairs)), objective, False)
