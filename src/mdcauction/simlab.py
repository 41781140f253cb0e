"""Seeded workload generation, metrics, and paired mechanism comparisons.

Fairness of a comparison rests on the paired design: every mechanism
sees exactly the same drawn workload for a given replicate seed, and the
whole ensemble is a pure function of the generator parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ValidationError
from .mechanisms import (
    AuctionResult,
    run_double_auction,
    run_mafl,
    run_repeated_srmra,
)
from .model import Bid, Buyer, ResourceVector, Seller
from .money import SCALE
from .rng import BLOCK_LANES, SplitMix64
from .scenario import GeneratorParams, MechanismConfig, Scenario

MECHANISMS = {
    "mafl": run_mafl,
    "repeated_srmra": run_repeated_srmra,
    "double_auction": run_double_auction,
}
# ``compare`` draws every replicate seed before its first run and keeps a record
# per seed and mechanism, so memory grows with the seed count; the bound makes a
# typo such as ``--seeds 10000000000`` an input error, not a process that is killed.
MAX_SEEDS = 100_000


def _scaled(draws: list[int], bounds: tuple[int, int]) -> list[int]:
    """``randint(*bounds)`` of each draw, in milli-units."""
    lo, hi = bounds
    span = hi - lo + 1
    return [(lo + x % span) * SCALE for x in draws]


def generate_scenario(params: GeneratorParams) -> Scenario:
    """Draw a concrete scenario from generator parameters.

    The draw order is part of the determinism contract: buyer budgets
    first (by buyer), then each seller's round capacity per dimension,
    period capacity per dimension (when a range is set) and ask, then
    round by round each buyer's bid amount followed by its demand
    components.  Amounts are whole units scaled to milli-units.
    Generated amounts are true valuations, so budget-aware mechanisms
    may adjust them.  The whole scenario is one ``next_u64s`` call, cut
    into the fields above and reduced to their ranges as ``randint``
    would, so the draws are those of one call per value.  Bids with
    equal demands share one ``ResourceVector``: it is immutable and
    compares by value, so the scenario is the one a vector per bid
    would give.
    """
    dims, n = params.dimensions, params.n_buyers
    period = params.period_capacity_range
    per_seller = dims * (1 if period is None else 2) + 1
    stride = 1 + dims  # one bid: its amount, then its demand components
    first_bid = n + params.m_sellers * per_seller
    draws = SplitMix64(params.seed).next_u64s(first_bid + params.horizon * n * stride)
    buyers = tuple(
        Buyer(i, budget) for i, budget in enumerate(_scaled(draws[:n], params.budget_range))
    )
    sellers = []
    for j in range(params.m_sellers):
        own = draws[n + j * per_seller : n + (j + 1) * per_seller]
        round_cap = ResourceVector(tuple(_scaled(own[:dims], params.capacity_range)))
        period_cap = None
        if period is not None:
            period_cap = ResourceVector(tuple(_scaled(own[dims : 2 * dims], period)))
        sellers.append(Seller(j, round_cap, period_cap, _scaled(own[-1:], params.ask_range)[0]))
    # Bid p is buyer p % n in round p // n.
    bids = draws[first_bid:]
    amounts = _scaled(bids[::stride], params.bid_range)
    demands = list(zip(*(_scaled(bids[k::stride], params.demand_range) for k in range(1, stride))))
    shared = {demand: ResourceVector(demand) for demand in set(demands)}
    demands = list(map(shared.__getitem__, demands))
    # Each row is built from a list, so its tuple is allocated at its size (see
    # ``mechanisms.run_srmra``).
    matrix = [
        tuple([Bid(i, amount, demand) for amount, demand in zip(amounts[i::n], demands[i::n])])
        for i in range(n)
    ]
    return Scenario(
        buyers=buyers,
        sellers=tuple(sellers),
        horizon=params.horizon,
        dimensions=params.dimensions,
        bid_matrix=tuple(matrix),
        generator=params,
        bids_are_valuations=True,
    )


@dataclass(frozen=True)
class RunMetrics:
    """Derived per-run statistics; the totals stay on the ``AuctionResult``.

    ``exhaustion_round`` maps each buyer to the first 1-based round
    after whose charge its remaining budget reached 0 (None = never;
    buyers that start at 0 get 0).  ``allocation_ratio`` is
    winner-rounds over buyer-rounds.
    """

    allocation_ratio: float
    exhaustion_round: dict[int, int | None]

    @property
    def exhausted_buyers(self) -> int:
        return sum(1 for r in self.exhaustion_round.values() if r is not None)

    @property
    def mean_exhaustion_round(self) -> float | None:
        rounds = [r for r in self.exhaustion_round.values() if r is not None]
        return sum(rounds) / len(rounds) if rounds else None


@dataclass(frozen=True)
class EvaluationResult:
    result: AuctionResult
    metrics: RunMetrics


def compute_metrics(result: AuctionResult) -> RunMetrics:
    """Metrics of one run; buyers come from the ledger, the horizon from the rounds."""
    remaining = dict(result.ledger.initial_budget)
    exhaustion: dict[int, int | None] = {
        i: (0 if remaining[i] == 0 else None) for i in remaining
    }
    winner_rounds = 0
    for outcome in result.rounds:
        winner_rounds += len(outcome.winners)
        for buyer_id, payment in outcome.payments.items():
            remaining[buyer_id] -= payment
            if remaining[buyer_id] == 0 and exhaustion[buyer_id] is None:
                exhaustion[buyer_id] = outcome.round
    buyer_rounds = len(remaining) * len(result.rounds)
    ratio = winner_rounds / buyer_rounds if buyer_rounds else 0.0
    return RunMetrics(ratio, exhaustion)


def _check_mechanism(name: str, field: str) -> None:
    """Raise ValidationError on ``field`` unless ``name`` is in ``MECHANISMS``."""
    if name not in MECHANISMS:
        raise ValidationError(
            field, f"unknown mechanism {name!r}; expected one of {sorted(MECHANISMS)}"
        )


def evaluate(
    scenario: Scenario, mechanism: str, config: MechanismConfig = MechanismConfig()
) -> EvaluationResult:
    """Run one mechanism under ``config`` on one scenario and attach derived metrics."""
    _check_mechanism(mechanism, "mechanism")
    result = MECHANISMS[mechanism](scenario, config)
    return EvaluationResult(result, compute_metrics(result))


@dataclass(frozen=True)
class MechanismSpec:
    """A mechanism entry in a comparison: registry name, label and config."""

    name: str
    label: str | None = None
    config: MechanismConfig = MechanismConfig()

    @property
    def resolved_label(self) -> str:
        return self.label or self.name


@dataclass(frozen=True)
class SeedRecord:
    seed: int
    mechanism: str
    revenue: int
    utility: int
    allocation_ratio: float
    exhausted_buyers: int
    mean_exhaustion_round: float | None


@dataclass(frozen=True)
class MechanismStats:
    mechanism: str
    mean_revenue: float  # whole currency units
    median_revenue: float


@dataclass(frozen=True)
class PairwiseStats:
    """Mean improvement of A over B with a bootstrap interval.

    improvement% = (mean_A - mean_B) / mean_B * 100 over paired seeds;
    the 95% interval is the percentile method over the resampled
    statistic.  win_rate counts seeds where A's revenue strictly
    exceeds B's; ties count as neither.
    """

    mechanism_a: str
    mechanism_b: str
    improvement_pct: float
    ci_low: float
    ci_high: float
    win_rate: float
    ties: int


@dataclass(frozen=True)
class ComparisonReport:
    params: GeneratorParams
    seeds: tuple[int, ...]
    records: tuple[SeedRecord, ...]
    stats: tuple[MechanismStats, ...]
    pairwise: tuple[PairwiseStats, ...]
    bootstrap_resamples: int = 1000


def _improvement_pct(mean_a: float, mean_b: float) -> float:
    if mean_b == 0:
        return 0.0 if mean_a == 0 else math.inf
    return (mean_a - mean_b) / mean_b * 100.0


def _percentile(ordered: list[float], q: float) -> float:
    # Linear interpolation between closest ranks, q in [0, 1].
    if len(ordered) == 1:
        return ordered[0]
    rank = q * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


def _bootstrap_means(
    rng: SplitMix64, revenue_units: dict[str, list[float]], resamples: int
) -> dict[str, list[float]]:
    """Each label's mean revenue in each of ``resamples`` resamples of the seeds.

    Indices are drawn a block of whole resamples at a time, so the memory
    beyond the returned means is O(max(n_seeds, BLOCK_LANES)), not
    O(resamples * n_seeds).  Each label maps the block's indices to its
    revenues in one pass and sums them ``n_seeds`` at a time, one
    resample after another: the same floats in the same order as one
    draw at a time would.
    """
    n_seeds = len(next(iter(revenue_units.values())))
    means: dict[str, list[float]] = {label: [] for label in revenue_units}
    per_block = max(1, BLOCK_LANES // n_seeds)
    for first in range(0, resamples, per_block):
        block = min(per_block, resamples - first)
        indices = rng.randints(0, n_seeds - 1, block * n_seeds)
        for label, revenue in revenue_units.items():
            drawn = map(revenue.__getitem__, indices)
            means[label] += [sum(row) / n_seeds for row in zip(*[drawn] * n_seeds)]
    return means


def compare(
    params: GeneratorParams,
    mechanisms,
    n_seeds: int,
    bootstrap_resamples: int = 1000,
) -> ComparisonReport:
    """Paired comparison: each mechanism runs on identical per-seed workloads.

    Replicate seeds come from a SplitMix64 stream keyed by
    ``params.seed``; the same stream then drives the bootstrap
    resampling, one resample's ``n_seeds`` indices after another, so a
    report is a pure function of (params, mechanisms, n_seeds,
    resamples).  Seeds and indices are drawn in bulk (``next_u64s``,
    ``randints``), which gives the same stream as one draw at a time.
    ``n_seeds`` is at most ``MAX_SEEDS``.  Each seed's workload is
    drawn (and checked) once; every spec runs on it under its own config.
    """
    if n_seeds < 1:
        raise ValidationError("n_seeds", "must be >= 1")
    if n_seeds > MAX_SEEDS:
        raise ValidationError("n_seeds", f"must be <= {MAX_SEEDS}")
    specs = [MechanismSpec(m) if isinstance(m, str) else m for m in mechanisms]
    if not specs:
        raise ValidationError("mechanisms", "at least one mechanism is required")
    labels = [s.resolved_label for s in specs]
    if len(set(labels)) != len(labels):
        raise ValidationError("mechanisms", f"duplicate labels: {labels}")
    for spec in specs:
        _check_mechanism(spec.name, "mechanisms")

    rng = SplitMix64(params.seed)
    seeds = tuple(rng.next_u64s(n_seeds))
    records: list[SeedRecord] = []
    revenue_units: dict[str, list[float]] = {label: [] for label in labels}
    for seed in seeds:
        workload = generate_scenario(replace(params, seed=seed))
        for spec in specs:
            evaluation = evaluate(workload, spec.name, spec.config)
            result, metrics = evaluation.result, evaluation.metrics
            records.append(
                SeedRecord(
                    seed=seed,
                    mechanism=spec.resolved_label,
                    revenue=result.total_revenue,
                    utility=result.total_utility,
                    allocation_ratio=metrics.allocation_ratio,
                    exhausted_buyers=metrics.exhausted_buyers,
                    mean_exhaustion_round=metrics.mean_exhaustion_round,
                )
            )
            revenue_units[spec.resolved_label].append(result.total_revenue / SCALE)

    stats = tuple(
        MechanismStats(
            label,
            sum(revenue_units[label]) / n_seeds,
            _percentile(sorted(revenue_units[label]), 0.5),
        )
        for label in labels
    )

    resample_means = _bootstrap_means(rng, revenue_units, bootstrap_resamples)
    pairwise = []
    for label_a in labels:
        for label_b in labels:
            if label_a == label_b:
                continue
            a, b = revenue_units[label_a], revenue_units[label_b]
            point = _improvement_pct(sum(a) / n_seeds, sum(b) / n_seeds)
            resampled = sorted(
                map(_improvement_pct, resample_means[label_a], resample_means[label_b])
            )
            wins = sum(1 for x, y in zip(a, b) if x > y)
            ties = sum(1 for x, y in zip(a, b) if x == y)
            pairwise.append(
                PairwiseStats(
                    label_a,
                    label_b,
                    point,
                    _percentile(resampled, 0.025) if resampled else point,
                    _percentile(resampled, 0.975) if resampled else point,
                    wins / n_seeds,
                    ties,
                )
            )

    return ComparisonReport(
        params=params,
        seeds=seeds,
        records=tuple(records),
        stats=stats,
        pairwise=tuple(pairwise),
        bootstrap_resamples=bootstrap_resamples,
    )
