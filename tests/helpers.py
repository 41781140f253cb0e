"""Shared builders and recheckers for the test suite."""

from mdcauction import Bid, Buyer, ResourceVector, Scenario, Seller
from mdcauction.money import SCALE

TABLE1_BIDS = [[3, 4, 3, 2, 1, 1], [4, 5, 0, 0, 0, 0], [5, 5, 0, 0, 0, 0]]
TABLE2_BIDS = [[3, 5, 4, 3, 2, 1], [4, 2, 1, 2, 1, 1], [5, 2, 3, 2, 2, 0]]
TABLE_BUDGETS = [15, 9, 10]
TABLE_ITEMS = 2


def table_scenario(bids, budgets, items_per_round) -> Scenario:
    """Unit-demand single-seller scenario equivalent to a replay fixture."""
    unit = ResourceVector((SCALE,))
    horizon = len(bids[0])
    matrix = tuple(tuple(Bid(i, a * SCALE, unit) for a in row) for i, row in enumerate(bids))
    return Scenario(
        buyers=tuple(Buyer(i, b * SCALE) for i, b in enumerate(budgets)),
        sellers=(Seller(0, ResourceVector((items_per_round * SCALE,))),),
        horizon=horizon,
        dimensions=1,
        bid_matrix=matrix,
    )


def recheck_run_invariants(scenario: Scenario, result, first_price: bool = True) -> None:
    """Re-derive budget and capacity bookkeeping from scratch.

    Independent of AuctionLedger: tracks remaining budgets and period
    capacity directly from the outcomes and asserts no overdraft, no
    per-round or period capacity overrun, no winner paying below 0 or
    above its bid, and (for pay-your-bid mechanisms) the revenue =
    utility identity.  Pass
    ``first_price=False`` for the double auction, which prices trades
    at bid/ask midpoints, and for critical-value pricing.
    """
    remaining = {b.id: b.budget for b in scenario.buyers}
    period = {
        s.id: (list(s.period_capacity) if s.period_capacity is not None else None)
        for s in scenario.sellers
    }
    round_caps = {s.id: tuple(s.round_capacity) for s in scenario.sellers}
    for outcome in result.rounds:
        used: dict[int, list[int]] = {}
        for buyer_id, seller_id in outcome.winners:
            demand = tuple(outcome.demands[buyer_id])
            load = used.setdefault(seller_id, [0] * len(demand))
            for k, q in enumerate(demand):
                load[k] += q
        for seller_id, load in used.items():
            cap = round_caps[seller_id]
            for k, q in enumerate(load):
                assert q <= cap[k], f"round {outcome.round}: per-round capacity overrun"
                if period[seller_id] is not None:
                    assert q <= period[seller_id][k], (
                        f"round {outcome.round}: period capacity overrun"
                    )
            if period[seller_id] is not None:
                for k, q in enumerate(load):
                    period[seller_id][k] -= q
        for buyer_id, payment in outcome.payments.items():
            assert 0 <= payment <= outcome.bids[buyer_id], (
                f"round {outcome.round}: buyer {buyer_id} pays {payment} on a bid of "
                f"{outcome.bids[buyer_id]}"
            )
            assert payment <= remaining[buyer_id], f"round {outcome.round}: overdraft"
            remaining[buyer_id] -= payment
            assert remaining[buyer_id] >= 0
        if first_price:
            assert outcome.revenue == outcome.utility
    assert remaining == result.ledger.remaining_budget
