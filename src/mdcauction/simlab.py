"""Seeded workload generation, metrics, and paired mechanism comparisons.

Fairness of a comparison rests on the paired design: every mechanism
sees exactly the same drawn workload for a given replicate seed, and the
whole ensemble is a pure function of the generator parameters.
"""

from __future__ import annotations

import math
import statistics
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
from .rng import GENERATOR_NAME, SplitMix64
from .scenario import GeneratorParams, MechanismConfig, Scenario

MECHANISMS = {
    "mafl": run_mafl,
    "repeated_srmra": run_repeated_srmra,
    "double_auction": run_double_auction,
}


def generate_scenario(
    params: GeneratorParams, mechanism: MechanismConfig | None = None
) -> Scenario:
    """Draw a concrete scenario from generator parameters.

    The draw order is part of the determinism contract: buyer budgets
    first (by buyer), then each seller's round capacity per dimension,
    period capacity per dimension (when a range is set) and ask, then
    round by round each buyer's bid amount followed by its demand
    components.  Amounts are whole units scaled to milli-units.
    Generated amounts are true valuations, so budget-aware mechanisms
    may adjust them.
    """
    rng = SplitMix64(params.seed)
    buyers = tuple(
        Buyer(i, rng.randint(*params.budget_range) * SCALE) for i in range(params.n_buyers)
    )
    sellers = []
    for j in range(params.m_sellers):
        round_cap = ResourceVector(
            tuple(rng.randint(*params.capacity_range) * SCALE for _ in range(params.dimensions))
        )
        period_cap = None
        if params.period_capacity_range is not None:
            period_cap = ResourceVector(
                tuple(
                    rng.randint(*params.period_capacity_range) * SCALE
                    for _ in range(params.dimensions)
                )
            )
        ask = rng.randint(*params.ask_range) * SCALE
        sellers.append(Seller(j, round_cap, period_cap, ask))
    matrix = [[] for _ in range(params.n_buyers)]
    for _ in range(params.horizon):
        for i in range(params.n_buyers):
            amount = rng.randint(*params.bid_range) * SCALE
            demand = ResourceVector(
                tuple(rng.randint(*params.demand_range) * SCALE for _ in range(params.dimensions))
            )
            matrix[i].append(Bid(i, amount, demand))
    return Scenario(
        buyers=buyers,
        sellers=tuple(sellers),
        horizon=params.horizon,
        dimensions=params.dimensions,
        bid_matrix=tuple(tuple(row) for row in matrix),
        generator=params,
        mechanism=mechanism or MechanismConfig(),
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


def evaluate(scenario: Scenario, mechanism: str) -> EvaluationResult:
    """Run one mechanism on one scenario and attach derived metrics."""
    if mechanism not in MECHANISMS:
        raise ValidationError(
            "mechanism", f"unknown mechanism {mechanism!r}; expected one of {sorted(MECHANISMS)}"
        )
    result = MECHANISMS[mechanism](scenario)
    return EvaluationResult(result, compute_metrics(result))


@dataclass(frozen=True)
class MechanismSpec:
    """A mechanism entry in a comparison: registry name plus optional config."""

    name: str
    label: str | None = None
    config: MechanismConfig | None = None

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
    n_seeds: int
    seeds: tuple[int, ...]
    records: tuple[SeedRecord, ...]
    stats: tuple[MechanismStats, ...]
    pairwise: tuple[PairwiseStats, ...]
    rng_name: str = GENERATOR_NAME
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


def compare(
    params: GeneratorParams,
    mechanisms,
    n_seeds: int,
    bootstrap_resamples: int = 1000,
) -> ComparisonReport:
    """Paired comparison: each mechanism runs on identical per-seed workloads.

    Replicate seeds come from a SplitMix64 stream keyed by
    ``params.seed``; the same stream then drives the bootstrap
    resampling, so a report is a pure function of (params, mechanisms,
    n_seeds, resamples).
    """
    if n_seeds < 1:
        raise ValidationError("n_seeds", "must be >= 1")
    specs = [MechanismSpec(m) if isinstance(m, str) else m for m in mechanisms]
    if not specs:
        raise ValidationError("mechanisms", "at least one mechanism is required")
    labels = [s.resolved_label for s in specs]
    if len(set(labels)) != len(labels):
        raise ValidationError("mechanisms", f"duplicate labels: {labels}")
    for spec in specs:
        if spec.name not in MECHANISMS:
            raise ValidationError(
                "mechanisms", f"unknown mechanism {spec.name!r}; expected one of {sorted(MECHANISMS)}"
            )

    rng = SplitMix64(params.seed)
    seeds = tuple(rng.next_u64() for _ in range(n_seeds))
    records: list[SeedRecord] = []
    revenue_units: dict[str, list[float]] = {label: [] for label in labels}
    for seed in seeds:
        workload = generate_scenario(replace(params, seed=seed))
        for spec in specs:
            scenario = workload.with_mechanism(spec.config) if spec.config else workload
            evaluation = evaluate(scenario, spec.name)
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
            float(statistics.median(revenue_units[label])),
        )
        for label in labels
    )

    # One resample's indices at a time: memory stays O(n_seeds), not O(resamples * n_seeds).
    resample_means: dict[str, list[float]] = {label: [] for label in labels}
    for _ in range(bootstrap_resamples):
        idx = [rng.randint(0, n_seeds - 1) for _ in range(n_seeds)]
        for label, revenue in revenue_units.items():
            resample_means[label].append(sum(revenue[i] for i in idx) / n_seeds)
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
        n_seeds=n_seeds,
        seeds=seeds,
        records=tuple(records),
        stats=stats,
        pairwise=tuple(pairwise),
        bootstrap_resamples=bootstrap_resamples,
    )
