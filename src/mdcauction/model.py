"""Domain types and the cross-round ledger shared by every mechanism.

All currency amounts and resource quantities are integer milli-units
(see :mod:`mdcauction.money`).  The ledger is single-owner mutable
state: each mechanism run creates its own and mutates it round by
round; nothing here is shared between runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvariantViolation, ValidationError


@dataclass(frozen=True, slots=True)
class ResourceVector:
    """Non-negative resource quantities, one slot per dimension.

    The dimension is fixed per scenario; canonically the slots are
    CPU, memory and battery units.
    """

    units: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "units", tuple(self.units))
        for k, u in enumerate(self.units):
            if type(u) is not int:  # bool too: a quantity is never truncated
                raise ValidationError(f"quantity[{k}]", f"must be an integer, got {u!r}")
            if u < 0:
                raise ValidationError(f"quantity[{k}]", "must be >= 0")

    def __len__(self) -> int:
        return len(self.units)

    def __iter__(self):
        return iter(self.units)

    def _check_dim(self, other: "ResourceVector") -> None:
        if len(self.units) != len(other.units):
            raise InvariantViolation(
                f"resource dimension mismatch: {len(self.units)} vs {len(other.units)}"
            )

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        self._check_dim(other)
        return ResourceVector(tuple(a + b for a, b in zip(self.units, other.units)))

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        self._check_dim(other)
        diff = tuple(a - b for a, b in zip(self.units, other.units))
        if any(d < 0 for d in diff):
            raise InvariantViolation(f"resource underflow: {self.units} - {other.units}")
        return ResourceVector(diff)

    def fits_within(self, other: "ResourceVector") -> bool:
        self._check_dim(other)
        return all(a <= b for a, b in zip(self.units, other.units))

    def component_min(self, other: "ResourceVector") -> "ResourceVector":
        self._check_dim(other)
        return ResourceVector(tuple(min(a, b) for a, b in zip(self.units, other.units)))


@dataclass(frozen=True)
class Buyer:
    id: int
    budget: int  # initial budget over the whole horizon, milli-units

    def __post_init__(self):
        if self.id < 0:
            raise ValidationError("buyer.id", "must be >= 0")
        if self.budget < 0:
            raise ValidationError(f"buyers[{self.id}].budget", "must be >= 0")


@dataclass(frozen=True)
class Seller:
    """A resource provider.

    ``period_capacity`` caps what the seller shares over the whole
    horizon; ``None`` means unbounded.  It may be below one round's
    capacity times the horizon, or even below a single round's worth.
    ``ask`` is the seller's price per normalized demand unit and is
    only consulted by the double-auction baseline.
    """

    id: int
    round_capacity: ResourceVector
    period_capacity: ResourceVector | None = None
    ask: int | None = None  # milli-units

    def __post_init__(self):
        if self.id < 0:
            raise ValidationError("seller.id", "must be >= 0")
        if self.period_capacity is not None and len(self.period_capacity) != len(
            self.round_capacity
        ):
            raise ValidationError(
                f"sellers[{self.id}].period_capacity",
                "dimension differs from round_capacity",
            )
        if self.ask is not None and self.ask < 0:
            raise ValidationError(f"sellers[{self.id}].ask", "must be >= 0")


@dataclass(frozen=True, slots=True)
class Bid:
    """One buyer's offer for one round: money plus demanded resources.

    A bid does not name its round: the round is when it is cleared, and
    the ledger numbers it.
    """

    buyer_id: int
    amount: int  # milli-units, >= 0
    demand: ResourceVector

    def __post_init__(self):
        if self.amount < 0:
            raise ValidationError(f"bids[{self.buyer_id}].amount", "must be >= 0")


@dataclass(frozen=True)
class Assignment:
    """Buyer-to-seller pairs for one round.

    Tasks are indivisible: each buyer appears at most once.  A seller
    may serve several buyers.
    """

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.pairs))
        seen = set()
        for buyer_id, _ in ordered:
            if buyer_id in seen:
                raise ValidationError("assignment", f"buyer {buyer_id} assigned twice")
            seen.add(buyer_id)
        object.__setattr__(self, "pairs", ordered)

    def buyers(self) -> set[int]:
        return {b for b, _ in self.pairs}

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __bool__(self) -> bool:
        return bool(self.pairs)


@dataclass(frozen=True)
class RoundOutcome:
    """One round's result: winners, what they bid, what they paid.

    ``round`` is the 1-based position of the round in the ledger's
    history.  ``utility`` is the sum of the winners' accepted bid
    amounts and ``revenue`` the sum of their payments.  Under
    first-price pricing payments equal bids; other pricing modes may
    charge less, so both maps are kept.
    """

    round: int
    winners: Assignment
    bids: dict[int, int]  # winner -> accepted bid amount
    payments: dict[int, int]  # winner -> charged amount
    demands: dict[int, ResourceVector]  # winner -> served demand

    def __post_init__(self):
        object.__setattr__(self, "bids", dict(self.bids))
        object.__setattr__(self, "payments", dict(self.payments))
        object.__setattr__(self, "demands", dict(self.demands))
        winner_ids = self.winners.buyers()
        if set(self.bids) != winner_ids:
            raise InvariantViolation("bid amounts must cover exactly the winners")
        if not set(self.payments) <= winner_ids:
            raise InvariantViolation("payments charged to a non-winner")
        if set(self.demands) != winner_ids:
            raise InvariantViolation("served demands must cover exactly the winners")

    @property
    def utility(self) -> int:
        return sum(self.bids.values())

    @property
    def revenue(self) -> int:
        return sum(self.payments.values())


@dataclass
class AuctionLedger:
    """Mutable cross-round state: budgets, period capacity, history.

    ``remaining_period_capacity`` maps a seller to what it may still
    share over the rest of the horizon; ``None`` means unbounded.
    Every mutation re-checks the no-overdraft and no-overrun
    invariants, so a violation always surfaces at the charge that
    caused it.  ``history[l - 1]`` is round l's outcome, so the round
    a clearing rule charges next is ``len(history) + 1``.
    """

    initial_budget: dict[int, int]
    remaining_budget: dict[int, int]
    remaining_period_capacity: dict[int, ResourceVector | None]
    history: list[RoundOutcome] = field(default_factory=list)

    @classmethod
    def new(cls, buyers, sellers) -> "AuctionLedger":
        budgets = {}
        for buyer in buyers:
            if buyer.id in budgets:
                raise ValidationError(f"buyers[{buyer.id}]", "duplicate buyer id")
            budgets[buyer.id] = buyer.budget
        period = {}
        for seller in sellers:
            if seller.id in period:
                raise ValidationError(f"sellers[{seller.id}]", "duplicate seller id")
            period[seller.id] = seller.period_capacity
        return cls(dict(budgets), budgets, period)

    def effective_capacity(self, seller: Seller) -> ResourceVector:
        """Capacity usable this round: round capacity capped by the period remainder."""
        remaining = self.remaining_period_capacity[seller.id]
        if remaining is None:
            return seller.round_capacity
        return seller.round_capacity.component_min(remaining)

    def charge(self, outcome: RoundOutcome) -> None:
        """Apply one round's payments and served demand, then record it.

        Raises InvariantViolation on overdraft or period-capacity
        overrun; those signal a mechanism bug, never bad user input.
        """
        for buyer_id, payment in outcome.payments.items():
            if payment < 0:
                raise InvariantViolation(f"negative payment for buyer {buyer_id}")
            if buyer_id not in self.remaining_budget:
                raise InvariantViolation(f"payment charged to unknown buyer {buyer_id}")
            if payment > self.remaining_budget[buyer_id]:
                raise InvariantViolation(
                    f"round {outcome.round}: buyer {buyer_id} overdraft "
                    f"({payment} > {self.remaining_budget[buyer_id]})"
                )
        # Served demand is summed only for sellers with a period cap;
        # nothing is checked or updated for the others.
        served: dict[int, ResourceVector] = {}
        for buyer_id, seller_id in outcome.winners:
            if seller_id not in self.remaining_period_capacity:
                raise InvariantViolation(f"assignment to unknown seller {seller_id}")
            if self.remaining_period_capacity[seller_id] is None:
                continue
            demand = outcome.demands[buyer_id]
            served[seller_id] = served[seller_id] + demand if seller_id in served else demand
        for seller_id, total in served.items():
            cap = self.remaining_period_capacity[seller_id]
            if not total.fits_within(cap):
                raise InvariantViolation(
                    f"round {outcome.round}: seller {seller_id} period capacity overrun "
                    f"({tuple(total)} > {tuple(cap)})"
                )
        for buyer_id, payment in outcome.payments.items():
            self.remaining_budget[buyer_id] -= payment
        for seller_id, total in served.items():
            self.remaining_period_capacity[seller_id] -= total
        self.history.append(outcome)
