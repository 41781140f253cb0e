"""Independent top-k reference for the ``replay`` desk engine.

Clears every round by sorting the clamped positive bids, highest first
with ties to the lowest buyer index, and taking the first
``items_per_round``; winners pay their bids.  No winner-determination
solver is involved, so it checks that ``replay``'s route through
repeated SRMRA picks exactly the top bids.  Inputs must be valid
fixtures.
"""

from mdcauction import Assignment, AuctionLedger, Buyer, ResourceVector, RoundOutcome, Seller
from mdcauction.money import SCALE, to_milli


def top_k_replay(bid_matrix, budgets, items_per_round: int):
    """(round outcomes, final ledger) of a fixture, cleared by top-k."""
    rows = [[to_milli(a) for a in row] for row in bid_matrix]
    horizon = len(rows[0]) if rows else 0
    unit = ResourceVector((SCALE,))
    buyers = [Buyer(i, to_milli(b)) for i, b in enumerate(budgets)]
    seller = Seller(0, ResourceVector((items_per_round * SCALE,)))
    ledger = AuctionLedger.new(buyers, [seller])
    for l in range(1, horizon + 1):
        effective = [min(rows[i][l - 1], ledger.remaining_budget[i]) for i in range(len(rows))]
        contenders = sorted(
            (i for i in range(len(rows)) if effective[i] > 0),
            key=lambda i: (-effective[i], i),
        )
        winners = sorted(contenders[:items_per_round])
        ledger.charge(
            RoundOutcome(
                round=l,
                winners=Assignment(tuple((i, 0) for i in winners)),
                bids={i: effective[i] for i in winners},
                payments={i: effective[i] for i in winners},
                demands={i: unit for i in winners},
            )
        )
    return tuple(ledger.history), ledger
