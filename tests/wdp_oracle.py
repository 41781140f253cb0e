"""Independent exhaustive reference for winner determination.

Enumerates every buyer-to-(seller or unassigned) mapping, cutting only
infeasible prefixes (all of whose extensions are infeasible too).  No
objective-based pruning, no shared code with the production solver.
Works in whole units for speed.  ``check_feasible`` is the matching
feasibility oracle for solver outputs.  ``fraction_greedy`` is the
density-greedy heuristic written with exact fractions, the reference
that the integer ``solve_greedy`` must reproduce placement for
placement; ``greedy_order`` is its rank order.  ``list_exact`` is the
branch and bound with per-dimension residual lists, the reference that
the packed-integer ``solve_exact`` must reproduce node for node, phase
for phase: the buyer-order search up to a switch, then the search over
``greedy_order``'s bids, then the buyer-order search again from just
below the optimum.  It chooses the capacity multiplier
(``capacity_multiplier``) and evaluates the capacity bound in exact
fractions, where ``solve_exact`` scales both to integers, and takes
the switch as an argument, so tests can run the phases on small
instances.  ``plain_list_exact`` is one buyer-order search with only
the partial-value-plus-remaining-bids cut, the search before the
capacity bound; wherever it finishes within a node budget no larger
than the switch, ``solve_exact`` must finish within that budget with
the same answer.
"""

import math
import random
from fractions import Fraction

from mdcauction import SearchBudgetExceeded, ValidationError, WdpInstance, WdpSolution
from mdcauction.model import Assignment
from mdcauction.wdp import SWITCH_NODES


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


def greedy_order(instance):
    """The bids with a positive amount, by descending density in exact fractions.

    A bid's density is amount / (1 + sum_k d_k / T_k), where T_k is the
    total capacity in dimension k (1 when that total is 0); ties go to
    the lower buyer id.
    """
    dim = instance.dimension
    caps = instance.seller_caps.values()
    norms = [sum(cap.units[k] for cap in caps) or 1 for k in range(dim)]

    def density(bid):
        weight = 1 + sum(Fraction(d, norms[k]) for k, d in enumerate(bid.demand))
        return Fraction(bid.amount) / weight

    return sorted(
        (bid for bid in instance.bids if bid.amount > 0),
        key=lambda b: (-density(b), b.buyer_id),
    )


def fraction_greedy(instance):
    """(assignment, objective) of the density greedy, in exact fractions.

    Bids go in ``greedy_order``; each goes to the fitting seller with the
    largest minimum of (room_k - d_k) / T_k, ties to the lower seller id.
    """
    dim = instance.dimension
    seller_ids = sorted(instance.seller_caps)
    residual = {s: list(instance.seller_caps[s]) for s in seller_ids}
    totals = [sum(instance.seller_caps[s].units[k] for s in seller_ids) for k in range(dim)]
    norms = [t if t > 0 else 1 for t in totals]
    pairs = []
    objective = 0
    for bid in greedy_order(instance):
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


def list_exact(instance, node_budget, switch=SWITCH_NODES):
    """``solve_exact``'s phased search, each phase a search with residual lists.

    Phase 0 searches the bids in buyer id order for at most ``switch``
    nodes (``node_budget`` if that is less); if it finishes, so does
    ``list_exact``.  The nodes left go to phase 1, the search over
    ``greedy_order``'s bids with the multiplier of those bids alone,
    which keeps only leaves worth more than phase 0's incumbent (more
    than -1 if that incumbent has no pair).  If it finds none, phase 0's
    incumbent is optimal.  Otherwise phase 2 repeats the buyer-order
    search, keeping only leaves worth at least phase 1's value, and
    stops at its first; it gets the nodes phase 1 left.

    Each phase has the same branch order, both bounds and tie-break as
    ``solve_exact``'s; the capacity bound is evaluated in fractions,
    floor(v + lambda * R_k + sum of max(0, a - lambda * d_k) over the
    remaining bids) with R_k summed from the residual lists.  Raises
    SearchBudgetExceeded carrying the phases' best incumbent, the
    earlier on a tie, with no greedy floor.
    """
    by_id = sorted(instance.bids, key=lambda b: b.buyer_id)
    multiplier = capacity_multiplier(instance)
    first = min(node_budget, switch)
    done, value, pairs, _nodes = _list_search(by_id, instance, first, multiplier)
    if done:
        return WdpSolution(Assignment(pairs), value, True)
    best = (value, pairs) if pairs else (0, ())
    left = node_budget - first
    if left > 0:
        floor = value if pairs else -1
        ranked = greedy_order(instance)
        positive = WdpInstance(tuple(ranked), instance.seller_caps)
        done, value, pairs, nodes = _list_search(
            ranked, positive, left, capacity_multiplier(positive), floor
        )
        if done and pairs is None:
            return WdpSolution(Assignment(best[1]), best[0], True)
        if pairs is not None and value > best[0]:
            best = (value, pairs)
        if done:
            done, value, pairs, _nodes = _list_search(
                by_id, instance, left - nodes, multiplier, value - 1, stop=True
            )
            if done:
                return WdpSolution(Assignment(pairs), value, True)
    raise SearchBudgetExceeded(node_budget, WdpSolution(Assignment(best[1]), best[0], False))


def plain_list_exact(instance, node_budget):
    """One buyer-order search without the capacity bound: only v + remaining bids cuts."""
    by_id = sorted(instance.bids, key=lambda b: b.buyer_id)
    done, value, pairs, _nodes = _list_search(by_id, instance, node_budget, None)
    if not done:
        value, pairs = (value, pairs) if pairs else (0, ())
        raise SearchBudgetExceeded(node_budget, WdpSolution(Assignment(pairs), value, False))
    return WdpSolution(Assignment(pairs), value, True)


def _list_search(bids, instance, node_budget, multiplier, floor=-1, stop=False):
    """Branch and bound over ``bids`` in the order given: ``(finished, value, pairs, nodes)``.

    Keeps only leaves worth more than ``floor``; ``pairs`` is None when
    it reached none, and ``value`` is then ``floor``.  With ``stop`` it
    finishes at the first leaf it keeps.
    """
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

    best_value = floor
    best_pairs = None
    chosen = []
    nodes = 0
    stopped = False

    class OutOfNodes(Exception):
        pass

    def capacity_bound(i, value):
        pooled = sum(room[row] for room in residual)
        return math.floor(value + lam * pooled + rest[i])

    def descend(i, value):
        nonlocal best_value, best_pairs, nodes, stopped
        if stopped:
            return
        nodes += 1
        if nodes > node_budget:
            raise OutOfNodes
        if value + suffix[i] <= best_value:
            return
        if multiplier and capacity_bound(i, value) <= best_value:
            return
        if i == n:
            if value > best_value:
                best_value = value
                best_pairs = tuple(chosen)
                stopped = stop
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

    try:
        descend(0, 0)
    except OutOfNodes:
        return False, best_value, best_pairs, nodes
    return True, best_value, best_pairs, nodes


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
