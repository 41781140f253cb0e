"""Workloads and the settings they are drawn and run with.

A scenario is the workload only, and always concrete: buyers, sellers
and one bid per buyer per round.  Explicit matrices are strategic
trajectories and are taken verbatim by every mechanism; matrices drawn
by ``simlab.generate_scenario`` from ``GeneratorParams`` are per-round
true valuations that budget-aware mechanisms may adjust
(``bids_are_valuations``).  A ``MechanismConfig`` is passed to each run
beside the scenario, so one workload runs under any number of configs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import ValidationError
from .model import Bid, Buyer, Seller

SOLVERS = ("exact", "greedy")
PRICING_MODES = ("first_price", "critical_value")
ADJUSTMENT_SCOPES = ("winners_only", "all_buyers")
# A buyer 1% down on its budget keeps 0.99**1000 < 5e-5 of its bid at
# gamma = 1000, so larger exponents only zero bids out, while the exact
# integer power (remaining/initial)**gamma costs time and memory that grow
# with gamma.  The bound keeps every adjustment cheap.
MAX_GAMMA = 1000


@dataclass(frozen=True)
class MechanismConfig:
    """Knobs shared by the mechanisms.

    ``gamma`` is the punishment exponent: a previous winner's effective
    bid is its clamped true bid times (remaining/initial)**gamma.
    gamma = 0 disables adjustment entirely; gamma is at most ``MAX_GAMMA``.
    """

    gamma: float = 1.0
    scope: str = "winners_only"
    pricing: str = "first_price"
    solver: str = "exact"

    def __post_init__(self):
        if not 0 <= self.gamma <= MAX_GAMMA:  # also rejects NaN
            raise ValidationError("mechanism.gamma", f"must be in [0, {MAX_GAMMA}]")
        for name, allowed in _CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ValidationError(f"mechanism.{name}", f"must be one of {allowed}")


_CHOICES = {"scope": ADJUSTMENT_SCOPES, "pricing": PRICING_MODES, "solver": SOLVERS}


@dataclass(frozen=True)
class GeneratorParams:
    """Uniform-integer workload generator settings.

    All ranges are inclusive bounds in whole units, converted to
    milli-units by ``simlab.generate_scenario``.  Budgets and seller
    properties are drawn once; bid amounts and demands are drawn per
    buyer per round.
    """

    n_buyers: int
    m_sellers: int
    horizon: int
    seed: int = 0
    dimensions: int = 3
    demand_range: tuple[int, int] = (1, 5)
    bid_range: tuple[int, int] = (1, 20)
    budget_range: tuple[int, int] = (50, 200)
    capacity_range: tuple[int, int] = (10, 30)
    period_capacity_range: tuple[int, int] | None = None
    ask_range: tuple[int, int] = (1, 10)

    def __post_init__(self):
        _check_bounds(self, _MINIMUMS)
        # The generator reads its seed modulo 2**64; the seed kept, and named, is that one.
        object.__setattr__(self, "seed", self.seed % 2**64)
        for name, optional in _RANGES:
            bounds = getattr(self, name)
            if bounds is None and optional:
                continue
            lo, hi = bounds
            if lo < 0:
                raise ValidationError(name, "bounds must be >= 0")
            if lo > hi:
                raise ValidationError(name, f"lower bound {lo} exceeds upper bound {hi}")
            object.__setattr__(self, name, (int(lo), int(hi)))
        # The draws of ``simlab.generate_scenario``: a budget per buyer, each
        # seller's capacities and ask, then an amount and a demand per bid.
        per_seller = self.dimensions * (1 if self.period_capacity_range is None else 2) + 1
        per_buyer = 1 + self.horizon * (1 + self.dimensions)
        draws = self.n_buyers * per_buyer + self.m_sellers * per_seller
        if draws > MAX_DRAWS:
            raise ValidationError("draws", f"the workload takes {draws}; at most {MAX_DRAWS}")


_MINIMUMS = {"n_buyers": 0, "m_sellers": 0, "horizon": 1, "dimensions": 1}
# An explicit bid matrix may have no rounds: its run is empty.
_SCENARIO_MINIMUMS = {"horizon": 0, "dimensions": 1}
# Rounds and dimensions are looped over even with no buyers or sellers, so
# without a maximum a file of a few bytes can run for hours.
_MAXIMUMS = {"horizon": 100_000, "dimensions": 64}
# Draws taken by ``simlab.generate_scenario``.  At this cap (CPython 3.11,
# 1000 buyers x 261 rounds at 3 dimensions) generation peaks near 140 MiB,
# about 490 B a bid, with the default ranges, and near 172 MiB, about 620 B
# a bid, when no two demands are equal.
MAX_DRAWS = 2**20
# (name, may be None) for each range, in field order; built once, since
# ``replace(params, seed=...)`` runs ``__post_init__`` for every seed.
_RANGES = tuple(
    (f.name, f.default is None) for f in fields(GeneratorParams) if f.name.endswith("_range")
)


def _check_bounds(holder, minimums: dict[str, int]) -> None:
    """Hold each named field of ``holder`` to its minimum and to ``_MAXIMUMS``."""
    for name, minimum in minimums.items():
        value = getattr(holder, name)
        if value < minimum:
            raise ValidationError(name, f"must be >= {minimum}")
        if value > _MAXIMUMS.get(name, value):
            raise ValidationError(name, f"must be <= {_MAXIMUMS[name]}")


@dataclass(frozen=True)
class Scenario:
    """A workload, and the one place its facts are checked.

    ``bid_matrix[i][l-1]`` is buyer i's bid for round l; the bids
    themselves carry no round index.  ``horizon`` may be 0, an empty run;
    a generator draws at least one round.  ``generator`` is provenance only:
    the parameters ``simlab.generate_scenario`` drew this scenario from.
    The mechanism settings are not part of it; each run takes them.
    """

    buyers: tuple[Buyer, ...]
    sellers: tuple[Seller, ...]
    horizon: int
    dimensions: int
    bid_matrix: tuple[tuple[Bid, ...], ...]
    generator: GeneratorParams | None = None
    bids_are_valuations: bool = False

    def __post_init__(self):
        _check_bounds(self, _SCENARIO_MINIMUMS)
        for position, buyer in enumerate(self.buyers):
            if buyer.id != position:
                raise ValidationError(
                    f"buyers[{position}].id", f"ids must be dense 0-based, got {buyer.id}"
                )
        seen_sellers = set()
        for position, seller in enumerate(self.sellers):
            if seller.id in seen_sellers:
                raise ValidationError(f"sellers[{position}].id", "duplicate seller id")
            seen_sellers.add(seller.id)
            if len(seller.round_capacity) != self.dimensions:
                raise ValidationError(
                    f"sellers[{position}].round_capacity",
                    f"expected {self.dimensions} components, got {len(seller.round_capacity)}",
                )
        if len(self.bid_matrix) != len(self.buyers):
            raise ValidationError(
                "bids", f"expected {len(self.buyers)} rows, got {len(self.bid_matrix)}"
            )
        for i, row in enumerate(self.bid_matrix):
            if len(row) != self.horizon:
                raise ValidationError(
                    f"bids[{i}]", f"expected {self.horizon} rounds, got {len(row)}"
                )
            for l, bid in enumerate(row):
                if bid.buyer_id != i:
                    raise ValidationError(f"bids[{i}][{l}]", "buyer_id mismatch")
                if len(bid.demand.units) != self.dimensions:
                    raise ValidationError(
                        f"bids[{i}][{l}].demand",
                        f"expected {self.dimensions} components, got {len(bid.demand.units)}",
                    )
