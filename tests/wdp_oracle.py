"""Independent exhaustive reference for winner determination.

Enumerates every buyer-to-(seller or unassigned) mapping, cutting only
infeasible prefixes (all of whose extensions are infeasible too).  No
objective-based pruning, no shared code with the production solver.
Works in whole units for speed.  ``check_feasible`` is the matching
feasibility oracle for solver outputs.  ``fraction_greedy`` is the
density-greedy heuristic written with exact fractions, the reference
that the integer ``solve_greedy`` must reproduce placement for
placement.  ``list_exact`` is the branch and bound with per-dimension
residual lists, the reference that the packed-integer ``solve_exact``
must reproduce node for node: it chooses the capacity multiplier
(``capacity_multiplier``) and evaluates the capacity bound in exact
fractions, where ``solve_exact`` scales both to integers.
``plain_list_exact`` is the same search with only the
partial-value-plus-remaining-bids cut, the search before the capacity
bound; wherever it finishes within a node budget, ``solve_exact`` must
finish within that budget with the same answer.
"""

import math
import random
from fractions import Fraction

from mdcauction import SearchBudgetExceeded, ValidationError, WdpSolution
from mdcauction.model import Assignment


def check_feasible(assignment, instance) -> bool:
    """True iff every pair respects one-seller-per-buyer and all capacities."""
    demand_of = {bid.buyer_id: bid.demand for bid in instance.bids}
    load = {}
    for buyer_id, seller_id in assignment:
        if buyer_id not in demand_of:
            raise ValidationError("assignment", f"unknown buyer {buyer_id}")
        if seller_id not in instance.seller_caps:
            raise ValidationError("assignment", f"unknown seller {seller_id}")
        demand = demand_of[buyer_id]
        load[seller_id] = load[seller_id] + demand if seller_id in load else demand
    return all(total.fits_within(instance.seller_caps[s]) for s, total in load.items())


def fraction_greedy(instance):
    """(assignment, objective) of the density greedy, in exact fractions.

    Bids rank by amount / (1 + sum_k d_k / T_k), where T_k is the total
    capacity in dimension k (1 when that total is 0), ties to the lower
    buyer id; each goes to the fitting seller with the largest minimum
    of (room_k - d_k) / T_k, ties to the lower seller id.
    """
    dim = instance.dimension
    seller_ids = sorted(instance.seller_caps)
    residual = {s: list(instance.seller_caps[s]) for s in seller_ids}
    totals = [sum(instance.seller_caps[s].units[k] for s in seller_ids) for k in range(dim)]
    norms = [t if t > 0 else 1 for t in totals]

    def density(bid):
        weight = 1 + sum(Fraction(d, norms[k]) for k, d in enumerate(bid.demand))
        return Fraction(bid.amount) / weight

    ranked = sorted(
        (bid for bid in instance.bids if bid.amount > 0),
        key=lambda b: (-density(b), b.buyer_id),
    )
    pairs = []
    objective = 0
    for bid in ranked:
        demand = tuple(bid.demand)
        best_seller = best_slack = None
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
        for k in range(dim):
            residual[best_seller][k] -= demand[k]
        pairs.append((bid.buyer_id, best_seller))
        objective += bid.amount
    return Assignment(tuple(pairs)), objective


def capacity_multiplier(instance):
    """``(k, lambda)`` of ``solve_exact``'s capacity bound in exact fractions, or None.

    T_k is the total capacity in dimension k.  k is the dimension with
    the largest total demand over T_k among those whose demand exceeds
    T_k, a zero T_k counting as infinite and the lower k winning a tie.
    lambda is a_c / d_c for the first bid c, by descending a / d_k over
    the bids with d_k > 0, at which the running demand exceeds T_k.
    None when no dimension's demand exceeds its total.
    """
    dim = instance.dimension
    caps = list(instance.seller_caps.values())
    totals = [sum(cap.units[k] for cap in caps) for k in range(dim)]
    demanded = [sum(bid.demand.units[k] for bid in instance.bids) for k in range(dim)]
    binding = [k for k in range(dim) if demanded[k] > totals[k]]
    if not binding:
        return None
    k = max(binding, key=lambda j: Fraction(demanded[j], totals[j]) if totals[j] else math.inf)
    positive = [bid for bid in instance.bids if bid.demand.units[k] > 0]
    filled = 0
    for bid in sorted(positive, key=lambda b: -Fraction(b.amount, b.demand.units[k])):
        filled += bid.demand.units[k]
        if filled > totals[k]:
            return k, Fraction(bid.amount, bid.demand.units[k])
    raise AssertionError("the demand in k exceeds T_k, so some bid crosses it")


def list_exact(instance, node_budget):
    """``solve_exact``'s search with one residual list per seller.

    Same branch order, both bounds and tie-break; the capacity bound is
    evaluated in fractions, floor(v + lambda * R_k + sum of
    max(0, a - lambda * d_k) over the remaining bids) with R_k summed
    from the residual lists.  Raises SearchBudgetExceeded carrying the
    plain incumbent, with no greedy floor.
    """
    return _list_search(instance, node_budget, capacity_multiplier(instance))


def plain_list_exact(instance, node_budget):
    """``list_exact`` without the capacity bound: only v + remaining bids cuts."""
    return _list_search(instance, node_budget, None)


def _list_search(instance, node_budget, multiplier):
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
    # rest[i]: the sum of max(0, a - lambda * d_row) over the bids from i on
    row, lam = multiplier or (None, None)
    rest = [Fraction(0)] * (n + 1)
    if multiplier:
        for i in range(n - 1, -1, -1):
            rest[i] = rest[i + 1] + max(Fraction(0), amounts[i] - lam * demands[i][row])

    best_value = -1
    best_pairs = ()
    chosen = []
    nodes = 0

    def incumbent():
        if best_value < 0:
            return WdpSolution(Assignment(()), 0, False)
        return WdpSolution(Assignment(best_pairs), best_value, False)

    def capacity_bound(i, value):
        pooled = sum(room[row] for room in residual)
        return math.floor(value + lam * pooled + rest[i])

    def descend(i, value):
        nonlocal best_value, best_pairs, nodes
        nodes += 1
        if nodes > node_budget:
            raise SearchBudgetExceeded(node_budget, incumbent())
        if value + suffix[i] <= best_value:
            return
        if multiplier and capacity_bound(i, value) <= best_value:
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


def brute_force_best(amounts, demands, caps) -> int:
    """Maximum total amount over all feasible mappings."""
    n = len(amounts)
    m = len(caps)
    residual = [list(c) for c in caps]
    best = 0

    def explore(i: int, value: int) -> None:
        nonlocal best
        if i == n:
            if value > best:
                best = value
            return
        demand = demands[i]
        span = len(demand)
        for j in range(m):
            room = residual[j]
            fits = True
            for k in range(span):
                if demand[k] > room[k]:
                    fits = False
                    break
            if fits:
                for k in range(span):
                    room[k] -= demand[k]
                explore(i + 1, value + amounts[i])
                for k in range(span):
                    room[k] += demand[k]
        explore(i + 1, value)

    explore(0, 0)
    return best


def random_unit_instance(seed: int):
    """Whole-unit random instance within the desk-scale envelope."""
    rng = random.Random(seed)
    n = rng.randint(1, 10)
    m = rng.randint(1, 3)
    d = rng.randint(1, 3)
    amounts = [rng.randint(1, 20) for _ in range(n)]
    demands = [tuple(rng.randint(1, 5) for _ in range(d)) for _ in range(n)]
    caps = [tuple(rng.randint(3, 10) for _ in range(d)) for _ in range(m)]
    return amounts, demands, caps
