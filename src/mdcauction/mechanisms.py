"""Auction mechanisms.

Every mechanism runs one round loop, ``_run``: clamp each bid to the
remaining budget, optionally adjust it, clear the round, charge the
ledger.  Bids carry no round index: a clearing rule numbers its outcome
one past the rounds the ledger has charged.  ``run_srmra`` clears one
round: winner determination over the effective bids, first-price or
critical-value payments, ledger charge.  ``run_repeated_srmra`` cycles
it without adjustment, the baseline whose budgets burn out early.
``run_mafl`` first shrinks the previous winners' bids in proportion to
their remaining budget, which stretches budgets across the horizon.
``run_double_auction`` clears by a simplified bid/ask matching instead.
``replay`` adapts a unit-demand, single-pool desk fixture into a
scenario for repeated SRMRA.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError
from .model import Assignment, AuctionLedger, Bid, Buyer, ResourceVector, RoundOutcome, Seller
from .money import SCALE, scale_by_ratio_pow, to_milli
from .scenario import MechanismConfig, Scenario
from .wdp import WdpInstance, WdpSolution, greedy_threshold, solve_exact, solve_greedy


@dataclass(frozen=True)
class AuctionResult:
    """A full run: the final ledger; its rounds and totals are derived."""

    ledger: AuctionLedger

    @property
    def rounds(self) -> tuple[RoundOutcome, ...]:
        return tuple(self.ledger.history)

    @property
    def total_utility(self) -> int:
        return sum(r.utility for r in self.rounds)

    @property
    def total_revenue(self) -> int:
        return sum(r.revenue for r in self.rounds)


def adjust_bid(
    true_amount: int,
    remaining: int,
    initial: int,
    config: MechanismConfig,
    won_previous: bool,
) -> int:
    """Effective bid for one buyer in one round.

    Non-punished buyers are only clamped to their remaining budget.
    Punished buyers bid floor(true * (remaining/initial)**gamma),
    clamped to the remaining budget; a buyer with no initial budget
    always bids 0.  ``config.scope`` says who is punished: with
    ``winners_only`` only the previous round's winners, with
    ``all_buyers`` everyone.
    """
    if true_amount < 0:
        raise ValidationError("true_amount", "must be >= 0")
    if not 0 <= remaining <= initial:
        raise ValidationError("remaining", "must satisfy 0 <= remaining <= initial")
    if initial == 0:
        return 0
    if config.scope == "winners_only" and not won_previous:
        return min(true_amount, remaining)
    adjusted = scale_by_ratio_pow(true_amount, remaining, initial, config.gamma)
    return min(adjusted, remaining)


def _critical_payment(instance: WdpInstance, own: Bid, solution: WdpSolution) -> int:
    """Smallest own bid in [1, b_i] (milli granularity) at which the buyer still wins.

    ``solution`` is the round's.  When ``solve_exact`` proved it optimal,
    the threshold has a closed form.  The WDP maximizes the sum of bids
    and bidders are single-minded, so with own bid x the best allocation
    containing i is worth OPT - b_i + x and the best one without i is
    worth OPT(without i); i wins for x above t = OPT(without i) -
    (OPT - b_i) and loses below it (Archer & Tardos 2001, one-parameter
    agents).  ``without``, what ``solve_exact`` returns on the round
    without i, gives OPT(without i).  ``solution`` less i is feasible
    there and worth OPT - b_i, so that solve starts its incumbent at
    OPT - b_i - 1, below the optimum it returns.  At x = t the two
    tie, and ``solve_exact`` returns the optimum its search reaches
    first: the least key, listing each buyer's seller id in buyer id
    order with unassigned last.  For t < b_i the optima containing i are
    the round's, the first being ``solution``, and the first without i
    is ``without``.  So i wins at t iff ``solution`` has the lesser key.
    Buyers that neither assigns never differ, so the keys first differ
    at the least buyer id that one of the two assigns and the other
    assigns elsewhere or not at all.  Both pair lists are sorted by
    buyer id, so that is where the two lists first differ, and comparing
    them as tuples settles it: at a buyer both assign the lower seller
    comes first, and the list that assigns a buyer the other leaves out
    comes first.  Neither list is a prefix of the other here:
    ``solution``'s holds i and ``without``'s does not, and were
    ``without``'s a prefix of ``solution``'s it would be worth at most
    OPT - b_i, so t < 1.

    A heuristic solver's objective is not OPT; greedy's threshold comes
    from one greedy pass without i instead (see ``greedy_threshold``).
    Raises SearchBudgetExceeded when the solve without i runs out of
    nodes.
    """
    others = instance.without(own.buyer_id)
    if not solution.optimal:
        return greedy_threshold(others, own)
    without = solve_exact(others, floor=solution.objective - own.amount - 1)
    threshold = without.objective - (solution.objective - own.amount)
    if threshold < 1:
        return 1
    if threshold >= own.amount:
        return own.amount
    first = solution.assignment.pairs < without.assignment.pairs
    return threshold if first else threshold + 1


def run_srmra(
    bids: list[Bid],
    sellers: tuple[Seller, ...],
    ledger: AuctionLedger,
    config: MechanismConfig = MechanismConfig(),
) -> RoundOutcome:
    """Clear the ledger's next round and charge it.

    Bids must already be clamped to remaining budgets (and adjusted, if
    a multi-round framework is driving).  Zero-amount bids never win;
    winners pay their bids under first-price pricing and their critical
    values (see ``_critical_payment``) under critical-value pricing.
    With the exact solver that is one ``solve_exact`` for the round and
    one for the round without each winner, every one under its own node
    budget; one that runs out aborts the round uncharged.  The outcome
    is round ``len(ledger.history) + 1``.
    """
    for bid in bids:
        if bid.amount > ledger.remaining_budget.get(bid.buyer_id, 0):
            raise ValidationError(
                f"bids[{bid.buyer_id}].amount", "exceeds the buyer's remaining budget"
            )
    caps = {s.id: ledger.effective_capacity(s) for s in sellers}
    # From a list the tuple is allocated at its length.  One built from a generator
    # is resized to it, so on release it joins CPython's free list for that length
    # without having been taken from it, and only a full collection empties the list.
    instance = WdpInstance([b for b in bids if b.amount > 0], caps)
    solve = solve_exact if config.solver == "exact" else solve_greedy
    solution = solve(instance)

    bid_of = {b.buyer_id: b for b in instance.bids}
    winning_bids = {buyer: bid_of[buyer].amount for buyer, _ in solution.assignment}
    if config.pricing == "first_price":
        payments = dict(winning_bids)
    else:
        payments = {
            buyer: _critical_payment(instance, bid_of[buyer], solution) for buyer in winning_bids
        }
    outcome = RoundOutcome(
        round=len(ledger.history) + 1,
        winners=solution.assignment,
        bids=winning_bids,
        payments=payments,
        demands={buyer: bid_of[buyer].demand for buyer, _ in solution.assignment},
    )
    ledger.charge(outcome)
    return outcome


def _run(
    scenario: Scenario, config: MechanismConfig, clear, adjust: bool = False
) -> AuctionResult:
    """The round loop every mechanism shares.

    Each round, every buyer's bid from the matrix is clamped to its
    remaining budget and, with ``adjust``, passed through ``adjust_bid``
    with ``config`` and the previous round's winners; a bid whose amount
    that leaves unchanged is the matrix's own.  Then ``clear``,
    called like ``run_srmra`` with ``config``, clears the round, charges
    the ledger and returns the outcome.
    """
    ledger = AuctionLedger.new(scenario.buyers, scenario.sellers)
    previous_winners: set[int] = set()
    for column in range(scenario.horizon):
        round_bids = []
        for buyer in scenario.buyers:
            raw = scenario.bid_matrix[buyer.id][column]
            remaining = ledger.remaining_budget[buyer.id]
            amount = min(raw.amount, remaining)
            if adjust:
                won = buyer.id in previous_winners
                amount = adjust_bid(amount, remaining, buyer.budget, config, won)
            round_bids.append(raw if amount == raw.amount else Bid(buyer.id, amount, raw.demand))
        outcome = clear(round_bids, scenario.sellers, ledger, config)
        previous_winners = outcome.winners.buyers()
    return AuctionResult(ledger)


def run_repeated_srmra(
    scenario: Scenario, config: MechanismConfig = MechanismConfig()
) -> AuctionResult:
    """Cycle the single-round auction over the horizon without adjustment.

    Bids are taken from the matrix verbatim, clamped to remaining
    budgets; the ledger carries across rounds.
    """
    return _run(scenario, config, run_srmra)


def run_mafl(scenario: Scenario, config: MechanismConfig = MechanismConfig()) -> AuctionResult:
    """Run the budget-aware multi-round framework.

    Each round is one single-round auction over effective bids: the
    previous round's winners bid floor(true * (remaining/initial)**gamma)
    so that heavy spenders cool off instead of burning out.  The win
    flag resets every round.  Explicit bid matrices are strategic
    trajectories, not true valuations, so they replay verbatim (budget
    clamp only); generated scenarios carry true valuations and are
    adjusted.  With gamma = 0 the adjustment is the identity and the
    run matches run_repeated_srmra round for round.
    """
    return _run(scenario, config, run_srmra, adjust=scenario.bids_are_valuations)


def replay(bid_matrix, budgets, items_per_round: int) -> AuctionResult:
    """Deterministic desk engine for unit-demand, single-pool examples.

    ``bid_matrix[i][l-1]`` is buyer i's bid in round l, in whole
    currency units (0.001 resolution).  Each round, bids are clamped to
    remaining budgets and the ``items_per_round`` highest positive bids
    win, ties going to the lowest buyer index; winners pay their bids.

    The fixture becomes a one-seller scenario with ``items_per_round``
    units, unit demands and as many rounds as its first row, run by
    ``run_repeated_srmra`` with the greedy solver: on equal demands its
    density order is the bid order, ties to the lowest id.  The exact
    solver picks the same winners, and its capacity bound proves 30 equal
    bids for 15 items in 46 nodes, but it branches in buyer id order, not
    bid order: over Python ``random`` seeds 0-4, 30 bids drawn from 1 to
    5 for 15 items take it 465 to 4 244 nodes, and 200 such bids for 100
    items 6 114 to 6 833 nodes, where its buyer-order search alone
    exhausts its node budget (the README gives the figures).
    """
    if not isinstance(items_per_round, int) or isinstance(items_per_round, bool):
        raise ValidationError("items_per_round", "must be an integer")
    if items_per_round < 0:
        raise ValidationError("items_per_round", "must be >= 0")
    budget_milli = [to_milli(b, f"budgets[{i}]") for i, b in enumerate(budgets)]
    for i, b in enumerate(budget_milli):
        if b < 0:
            raise ValidationError(f"budgets[{i}]", "must be >= 0")
    unit = ResourceVector((SCALE,))
    matrix = []
    for i, row in enumerate(bid_matrix):
        amounts = [to_milli(a, f"bids[{i}][{l}]") for l, a in enumerate(row)]
        if any(a < 0 for a in amounts):
            raise ValidationError(f"bids[{i}]", "amounts must be >= 0")
        matrix.append(tuple(Bid(i, a, unit) for a in amounts))

    buyers = tuple(Buyer(i, b) for i, b in enumerate(budget_milli))
    seller = Seller(0, ResourceVector((items_per_round * SCALE,)))
    horizon = len(matrix[0]) if matrix else 0
    scenario = Scenario(buyers, (seller,), horizon, 1, tuple(matrix))
    return run_repeated_srmra(scenario, MechanismConfig(solver="greedy"))


def _scaled_ask(seller: Seller, demand: tuple[int, ...]) -> int:
    """floor(ask * mean over k of d_k / c_k), as one integer floor division.

    ``d_k * (L // c_k)`` is ``L * d_k / c_k`` with L the lcm of the round
    capacities.  A zero capacity counts as 1: the fit check has already
    rejected a positive demand on it.
    """
    if not demand:
        return 0
    norms = [c or 1 for c in seller.round_capacity.units]
    lcm = math.lcm(*norms)
    load = sum(d * (lcm // c) for d, c in zip(demand, norms))
    return seller.ask * load // (lcm * len(demand))


def _match_bids_and_asks(
    bids: list[Bid],
    sellers: tuple[Seller, ...],
    ledger: AuctionLedger,
    config: MechanismConfig,
) -> RoundOutcome:
    """Clear the ledger's next round as a double auction; ``config`` is unused."""
    residual = {s.id: list(ledger.effective_capacity(s)) for s in sellers}
    sellers_by_ask = sorted(sellers, key=lambda s: (s.ask, s.id))
    order = sorted((b for b in bids if b.amount > 0), key=lambda b: (-b.amount, b.buyer_id))
    pairs: list[tuple[int, int]] = []
    bids_map: dict[int, int] = {}
    payments: dict[int, int] = {}
    demands: dict[int, ResourceVector] = {}
    for bid in order:
        demand = tuple(bid.demand)
        dim = len(demand)
        for seller in sellers_by_ask:
            room = residual[seller.id]
            if not all(demand[k] <= room[k] for k in range(dim)):
                continue
            ask = _scaled_ask(seller, demand)
            if bid.amount < ask:
                continue
            price = (bid.amount + ask) // 2
            for k in range(dim):
                room[k] -= demand[k]
            pairs.append((bid.buyer_id, seller.id))
            bids_map[bid.buyer_id] = bid.amount
            payments[bid.buyer_id] = price
            demands[bid.buyer_id] = bid.demand
            break
    outcome = RoundOutcome(
        round=len(ledger.history) + 1,
        winners=Assignment(tuple(pairs)),
        bids=bids_map,
        payments=payments,
        demands=demands,
    )
    ledger.charge(outcome)
    return outcome


def run_double_auction(
    scenario: Scenario, config: MechanismConfig = MechanismConfig()
) -> AuctionResult:
    """Greedy bid/ask matching baseline with midpoint trade prices.

    Every seller quotes an ask per normalized demand unit; a buyer's
    ask at seller s scales that by the mean of demand/round-capacity
    across dimensions.  Each round walks buyers by descending clamped
    bid (ties to the lowest id) and matches each against the
    cheapest-ask seller that fits and whose scaled ask the bid meets;
    the trade price is the floor of the bid/ask midpoint.  This is a
    deliberately simple stand-in baseline, not a faithful port of any
    published double auction.
    """
    for position, seller in enumerate(scenario.sellers):
        if seller.ask is None:
            raise ValidationError(
                f"sellers[{position}].ask", "required by the double_auction mechanism"
            )
    return _run(scenario, config, _match_bids_and_asks)
