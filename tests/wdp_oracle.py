"""Independent references for winner determination.

None of them shares search logic, bounds or data layout with the
production solvers in ``mdcauction.wdp``; they work on plain tuples,
lists and exact fractions.

``brute_force_best`` enumerates every buyer-to-(seller or unassigned)
mapping in whole units, cutting only infeasible prefixes (all of whose
extensions are infeasible too), and returns the optimum.
``least_key_optimum`` enumerates every mapping of an instance and
returns the optimum with the least search key, the tie-break
``solve_exact`` documents; it is exponential in the buyers, so tests
call it only where (sellers + 1) ** buyers is small.  Past that,
``plain_list_exact`` is the reference: one branch and bound in buyer id
order whose only cut is the partial value plus the remaining bids, so
it returns the same least-key optimum wherever it finishes.
``check_feasible`` is the feasibility oracle for solver outputs.
``fraction_greedy`` is the density-greedy heuristic written with exact
fractions, the reference that the integer ``solve_greedy`` must
reproduce placement for placement.
"""

import itertools
import math
import random
from fractions import Fraction
from operator import le

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

    The bids with a positive amount go by descending density
    amount / (1 + sum_k d_k / T_k), where T_k is the total capacity in
    dimension k (1 when that total is 0), ties to the lower buyer id.
    Each goes to the fitting seller with the largest minimum of
    (room_k - d_k) / T_k, ties to the lower seller id.
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
        (bid for bid in instance.bids if bid.amount > 0), key=lambda b: (-density(b), b.buyer_id)
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


def least_key_optimum(instance, order=None):
    """Brute force: (the optimal assignment with the least search key, number of optima).

    Every buyer-to-(seller or unassigned) mapping is enumerated, and each
    one worth at least the best so far is checked for feasibility.  The
    search key lists each buyer's seller id in ``order``, a list of the
    buyer ids (by default buyer id order), with infinity for unassigned.
    """
    buyers = sorted(b.buyer_id for b in instance.bids) if order is None else list(order)
    amount_of = {b.buyer_id: b.amount for b in instance.bids}
    options = sorted(instance.seller_caps) + [None]
    best_value = -1
    optima = []
    for choice in itertools.product(options, repeat=len(buyers)):
        pairs = tuple((b, s) for b, s in zip(buyers, choice) if s is not None)
        value = sum(amount_of[b] for b, _ in pairs)
        if value < best_value or not check_feasible(Assignment(pairs), instance):
            continue
        if value > best_value:
            best_value, optima = value, []
        optima.append(([math.inf if s is None else s for s in choice], pairs))
    return min(optima)[1], len(optima)


def plain_list_exact(instance, node_budget):
    """Branch and bound in buyer id order whose only cut is v + the remaining bids.

    Each node branches over the sellers (ascending id) whose residual
    list fits the buyer's demand, then over leaving the buyer unassigned,
    and the incumbent is replaced only on strict improvement, so it
    returns the optimum with the least search key.  Raises
    SearchBudgetExceeded past ``node_budget`` nodes, carrying the best
    leaf reached, if any.
    """
    bids = sorted(instance.bids, key=lambda b: b.buyer_id)
    n = len(bids)
    dims = range(instance.dimension)
    seller_ids = sorted(instance.seller_caps)
    residual = [list(instance.seller_caps[s]) for s in seller_ids]
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + bids[i].amount
    best_value, best_pairs = -1, ()
    chosen = []
    nodes = 0

    def descend(i, value):
        nonlocal best_value, best_pairs, nodes
        nodes += 1
        if nodes > node_budget:
            reached = WdpSolution(Assignment(best_pairs), max(best_value, 0), False)
            raise SearchBudgetExceeded(node_budget, reached)
        if value + suffix[i] <= best_value:
            return
        if i == n:
            best_value, best_pairs = value, tuple(chosen)
            return
        demand = bids[i].demand.units
        for seller_id, room in zip(seller_ids, residual):
            if all(map(le, demand, room)):
                for k in dims:
                    room[k] -= demand[k]
                chosen.append((bids[i].buyer_id, seller_id))
                descend(i + 1, value + bids[i].amount)
                chosen.pop()
                for k in dims:
                    room[k] += demand[k]
        descend(i + 1, value)

    descend(0, 0)
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
