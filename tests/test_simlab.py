import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import pytest

from mdcauction import (
    GeneratorParams,
    MechanismConfig,
    MechanismSpec,
    ValidationError,
    compare,
    compute_metrics,
    evaluate,
    generate_scenario,
    io,
    replay,
    run_repeated_srmra,
    simlab,
)
from mdcauction.model import Bid, Buyer, ResourceVector, Seller
from mdcauction.money import SCALE
from mdcauction.rng import BLOCK_LANES, SplitMix64
from mdcauction.scenario import Scenario
from mdcauction.simlab import _bootstrap_means, _improvement_pct, _percentile
from helpers import (
    TABLE1_BIDS,
    TABLE2_BIDS,
    TABLE_BUDGETS,
    TABLE_ITEMS,
    recheck_run_invariants,
    table_scenario,
)


class TestGenerator:
    def test_same_seed_same_scenario(self):
        params = GeneratorParams(n_buyers=5, m_sellers=2, horizon=6, seed=123)
        assert generate_scenario(params) == generate_scenario(params)

    def test_equal_demands_share_one_vector(self):
        params = GeneratorParams(n_buyers=6, m_sellers=2, horizon=10, seed=9, demand_range=(1, 2))
        scenario = generate_scenario(params)
        bids = [bid for row in scenario.bid_matrix for bid in row]
        shared = {}
        for bid in bids:
            assert shared.setdefault(bid.demand.units, bid.demand) is bid.demand
        assert len(shared) < len(bids)
        # The same scenario with a vector of its own for every bid.
        fresh = replace(scenario, bid_matrix=tuple(
            tuple(replace(bid, demand=ResourceVector(bid.demand.units)) for bid in row)
            for row in scenario.bid_matrix
        ))
        assert not any(
            a.demand is b.demand for a, b in zip(bids, (b for row in fresh.bid_matrix for b in row))
        )
        assert fresh == scenario
        mechanism = MechanismConfig()
        assert io.dump_json(io.scenario_to_doc(fresh, mechanism)) == io.dump_json(
            io.scenario_to_doc(scenario, mechanism)
        )

    def test_different_seeds_differ(self):
        a = GeneratorParams(n_buyers=5, m_sellers=2, horizon=6, seed=123)
        b = GeneratorParams(n_buyers=5, m_sellers=2, horizon=6, seed=124)
        assert generate_scenario(a) != generate_scenario(b)

    def test_empty_population(self):
        params = GeneratorParams(n_buyers=0, m_sellers=0, horizon=3, seed=1)
        scenario = generate_scenario(params)
        for mechanism in ("mafl", "repeated_srmra", "double_auction"):
            evaluation = evaluate(scenario, mechanism)
            assert evaluation.result.total_revenue == 0
            assert evaluation.metrics.allocation_ratio == 0.0

    def test_draws_respect_ranges_and_units(self):
        params = GeneratorParams(
            n_buyers=4, m_sellers=2, horizon=5, seed=5,
            demand_range=(2, 3), bid_range=(1, 4), budget_range=(7, 9),
            capacity_range=(10, 12), ask_range=(1, 2),
            period_capacity_range=(40, 60),
        )
        scenario = generate_scenario(params)
        for buyer in scenario.buyers:
            assert 7000 <= buyer.budget <= 9000
        for seller in scenario.sellers:
            assert all(10000 <= c <= 12000 for c in seller.round_capacity)
            assert all(40000 <= c <= 60000 for c in seller.period_capacity)
            assert 1000 <= seller.ask <= 2000
        for row in scenario.bid_matrix:
            for bid in row:
                assert 1000 <= bid.amount <= 4000
                assert all(2000 <= q <= 3000 for q in bid.demand)
        assert scenario.bids_are_valuations

    @pytest.mark.parametrize("period", [None, (40, 60)])
    def test_the_draw_cap_counts_the_draws_generation_takes(self, period, monkeypatch):
        # GeneratorParams counts the draws of generate_scenario's one
        # next_u64s call without taking them; the two must change together.
        fields = dict(
            n_buyers=3, m_sellers=2, horizon=4, dimensions=2, period_capacity_range=period
        )
        counts = []
        draw = SplitMix64.next_u64s

        def counted(rng, count):
            counts.append(count)
            return draw(rng, count)

        monkeypatch.setattr(SplitMix64, "next_u64s", counted)
        generate_scenario(GeneratorParams(**fields))
        [taken] = counts
        monkeypatch.setattr("mdcauction.scenario.MAX_DRAWS", taken)
        GeneratorParams(**fields)
        monkeypatch.setattr("mdcauction.scenario.MAX_DRAWS", taken - 1)
        with pytest.raises(ValidationError, match=rf"^draws: the workload takes {taken};"):
            GeneratorParams(**fields)

    def test_unit_demand_profile_matches_replay_engine(self):
        # demand pinned to 1, one seller with room for 2: the per-round WDP
        # reduces to top-2-by-bid, which is exactly what replay computes
        params = GeneratorParams(
            n_buyers=3, m_sellers=1, horizon=6, seed=77, dimensions=1,
            demand_range=(1, 1), capacity_range=(2, 2), budget_range=(5, 30),
        )
        scenario = generate_scenario(params)
        matrix = [[bid.amount // 1000 for bid in row] for row in scenario.bid_matrix]
        budgets = [b.budget // 1000 for b in scenario.buyers]
        via_replay = replay(matrix, budgets, 2)
        via_wdp = run_repeated_srmra(scenario)
        assert [o.utility for o in via_replay.rounds] == [o.utility for o in via_wdp.rounds]
        assert [o.winners for o in via_replay.rounds] == [o.winners for o in via_wdp.rounds]

    def test_generator_invariants_hold_across_seeds(self):
        params = GeneratorParams(n_buyers=5, m_sellers=2, horizon=8, seed=0)
        for seed in range(10):
            scenario = generate_scenario(
                GeneratorParams(n_buyers=5, m_sellers=2, horizon=8, seed=seed)
            )
            result = run_repeated_srmra(scenario)
            recheck_run_invariants(scenario, result)


def scalar_scenario(params: GeneratorParams) -> Scenario:
    """generate_scenario's documented draw order, one scalar draw at a time."""
    rng = SplitMix64(params.seed)

    def draw(bounds):
        return rng.randint(*bounds) * SCALE

    def vector(bounds):
        return ResourceVector(tuple(draw(bounds) for _ in range(params.dimensions)))

    buyers = tuple(Buyer(i, draw(params.budget_range)) for i in range(params.n_buyers))
    sellers = []
    for j in range(params.m_sellers):
        round_cap = vector(params.capacity_range)
        period_cap = None
        if params.period_capacity_range is not None:
            period_cap = vector(params.period_capacity_range)
        sellers.append(Seller(j, round_cap, period_cap, draw(params.ask_range)))
    matrix = [[] for _ in range(params.n_buyers)]
    for _ in range(params.horizon):
        for i in range(params.n_buyers):
            amount = draw(params.bid_range)
            matrix[i].append(Bid(i, amount, vector(params.demand_range)))
    return Scenario(
        buyers=buyers,
        sellers=tuple(sellers),
        horizon=params.horizon,
        dimensions=params.dimensions,
        bid_matrix=tuple(tuple(row) for row in matrix),
        generator=params,
        bids_are_valuations=True,
    )


@pytest.mark.parametrize("period", [None, (30, 90)])
@pytest.mark.parametrize("dimensions", [1, 3])
@pytest.mark.parametrize("n_buyers", [0, 1, 7])
def test_generator_matches_the_scalar_draw_order(period, dimensions, n_buyers):
    params = GeneratorParams(
        n_buyers=n_buyers, m_sellers=2, horizon=5, seed=2**64 - 3, dimensions=dimensions,
        demand_range=(0, 6), bid_range=(2, 2), period_capacity_range=period,
    )
    assert generate_scenario(params) == scalar_scenario(params)


class TestMetrics:
    def test_exhaustion_rounds_first_worked_example(self):
        scenario = table_scenario(TABLE1_BIDS, TABLE_BUDGETS, TABLE_ITEMS)
        evaluation = evaluate(scenario, "repeated_srmra")
        assert evaluation.metrics.exhaustion_round == {0: None, 1: 2, 2: 2}

    def test_exhaustion_rounds_second_worked_example(self):
        # replayed ledger arithmetic: u1 spends 5+4+3+2+1, u2 4+2+2+1,
        # u3 5+3+2, so budgets 15/9/10 hit zero at rounds 6, 6 and 5
        result = replay(TABLE2_BIDS, TABLE_BUDGETS, TABLE_ITEMS)
        metrics = compute_metrics(result)
        assert metrics.exhaustion_round == {0: 6, 1: 6, 2: 5}

    def test_allocation_ratio(self):
        scenario = table_scenario(TABLE1_BIDS, TABLE_BUDGETS, TABLE_ITEMS)
        evaluation = evaluate(scenario, "repeated_srmra")
        # winner-rounds: 2+2+1+1+1+1 = 8 of 3x6 buyer-rounds
        assert evaluation.metrics.allocation_ratio == pytest.approx(8 / 18)

    def test_unknown_mechanism_rejected(self):
        scenario = table_scenario(TABLE1_BIDS, TABLE_BUDGETS, TABLE_ITEMS)
        with pytest.raises(ValidationError, match="unknown mechanism"):
            evaluate(scenario, "vcg")


class TestCompare:
    params = GeneratorParams(n_buyers=5, m_sellers=1, horizon=8, seed=321)

    def test_gamma_zero_gives_exact_ties(self):
        specs = [
            MechanismSpec("mafl", label="mafl_g0", config=MechanismConfig(gamma=0.0)),
            MechanismSpec("repeated_srmra"),
        ]
        report = compare(self.params, specs, n_seeds=20, bootstrap_resamples=50)
        pair = next(p for p in report.pairwise if p.mechanism_a == "mafl_g0")
        assert pair.improvement_pct == 0.0
        assert pair.win_rate == 0.0
        assert pair.ties == 20

    def test_reports_are_reproducible(self):
        specs = ["mafl", "repeated_srmra"]
        a = compare(self.params, specs, n_seeds=10, bootstrap_resamples=40)
        b = compare(self.params, specs, n_seeds=10, bootstrap_resamples=40)
        assert a == b

    def test_single_seed_degenerate_interval(self):
        report = compare(self.params, ["mafl", "repeated_srmra"], n_seeds=1,
                         bootstrap_resamples=25)
        for pair in report.pairwise:
            assert pair.ci_low == pair.ci_high == pair.improvement_pct

    def test_records_match_direct_evaluation(self):
        from dataclasses import replace

        report = compare(self.params, ["repeated_srmra"], n_seeds=5, bootstrap_resamples=10)
        for record in report.records:
            scenario = generate_scenario(replace(self.params, seed=record.seed))
            evaluation = evaluate(scenario, "repeated_srmra")
            assert record.revenue == evaluation.result.total_revenue
            assert record.utility == evaluation.result.total_utility

    def test_mean_and_median_revenue(self):
        report = compare(self.params, ["repeated_srmra"], n_seeds=7, bootstrap_resamples=10)
        revenues = [r.revenue / 1000 for r in report.records]
        stat = report.stats[0]
        assert stat.mean_revenue == pytest.approx(sum(revenues) / 7)

    def test_one_mechanism_draws_no_bootstrap(self, monkeypatch):
        def no_bootstrap(*args):
            raise AssertionError("bootstrap drawn for a single mechanism")

        monkeypatch.setattr(simlab, "_bootstrap_means", no_bootstrap)
        report = compare(self.params, ["mafl"], n_seeds=4, bootstrap_resamples=10)
        assert report.pairwise == ()
        assert report.bootstrap_resamples == 10

    def test_validation(self):
        with pytest.raises(ValidationError, match="n_seeds"):
            compare(self.params, ["mafl"], n_seeds=0)
        with pytest.raises(ValidationError, match="unknown mechanism"):
            compare(self.params, ["nope"], n_seeds=1)
        with pytest.raises(ValidationError, match="duplicate"):
            compare(self.params, ["mafl", "mafl"], n_seeds=1)

    def test_seed_count_past_the_cap_is_rejected_before_any_draw(self, monkeypatch):
        # Every replicate seed is drawn in one call before the first run, so
        # an unbounded count would grow memory with the count before any run.
        def no_draws(rng, count):
            raise AssertionError(f"drew {count} outputs")

        monkeypatch.setattr(SplitMix64, "next_u64s", no_draws)
        with pytest.raises(ValidationError, match=r"^n_seeds: must be <= 100000$"):
            compare(self.params, ["mafl"], n_seeds=simlab.MAX_SEEDS + 1)
        with pytest.raises(AssertionError, match="drew 100000 outputs"):
            compare(self.params, ["mafl"], n_seeds=simlab.MAX_SEEDS)

    def test_bootstrap_memory_does_not_grow_with_resamples_times_seeds(self):
        # 1000 resamples x 1000 seeds: holding every resample's indices at
        # once grew the peak RSS by about 30 MiB; one at a time stays flat.
        code = (
            "import resource\n"
            "from mdcauction import GeneratorParams, compare\n"
            "params = GeneratorParams(n_buyers=2, m_sellers=1, horizon=1, seed=5)\n"
            "compare(params, ['mafl', 'repeated_srmra'], n_seeds=10)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "compare(params, ['mafl', 'repeated_srmra'], n_seeds=1000)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
        )
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) < 10 * 1024  # ru_maxrss is in KiB

    @pytest.mark.parametrize("n_seeds, resamples", [(1, 5), (3, 1500), (4100, 3)])
    def test_intervals_match_a_scalar_bootstrap(self, n_seeds, resamples):
        # 1500 resamples of 3 seeds and each resample of 4100 seeds span
        # more than one block of bulk draws.
        params = GeneratorParams(n_buyers=2, m_sellers=1, horizon=1, dimensions=1, seed=8)
        labels = ["mafl", "repeated_srmra"]
        report = compare(params, labels, n_seeds=n_seeds, bootstrap_resamples=resamples)
        revenue = {label: [r.revenue / SCALE for r in report.records if r.mechanism == label]
                   for label in labels}
        rng = SplitMix64(params.seed)
        assert report.seeds == tuple(rng.next_u64() for _ in range(n_seeds))
        means = {label: [] for label in labels}
        for _ in range(resamples):
            idx = [rng.randint(0, n_seeds - 1) for _ in range(n_seeds)]
            for label in labels:
                means[label].append(sum(revenue[label][i] for i in idx) / n_seeds)
        for pair in report.pairwise:
            resampled = sorted(
                map(_improvement_pct, means[pair.mechanism_a], means[pair.mechanism_b])
            )
            assert (pair.ci_low, pair.ci_high) == (
                _percentile(resampled, 0.025), _percentile(resampled, 0.975)
            )

    @pytest.mark.parametrize("n_seeds", [1, 2, 3, 100, BLOCK_LANES + 1])
    def test_bootstrap_means_are_the_one_resample_at_a_time_means_float_for_float(self, n_seeds):
        # Two blocks of resamples and 7 more, so the last block is partial;
        # past BLOCK_LANES seeds every block is one resample.
        per_block = max(1, BLOCK_LANES // n_seeds)
        resamples = 2 * per_block + 7
        draw = random.Random(n_seeds)
        revenue = {label: [draw.uniform(0, 1000) for _ in range(n_seeds)] for label in "ab"}
        rng = SplitMix64(11)
        expected = {label: [] for label in revenue}
        for _ in range(resamples):
            idx = [rng.randint(0, n_seeds - 1) for _ in range(n_seeds)]
            for label, values in revenue.items():
                expected[label].append(sum(values[i] for i in idx) / n_seeds)
        means = _bootstrap_means(SplitMix64(11), revenue, resamples)
        for label in revenue:
            assert list(map(float.hex, means[label])) == list(map(float.hex, expected[label]))

    def test_bootstrap_memory_does_not_grow_with_resamples(self):
        # The means themselves grow with the resamples; the memory above them
        # holds one block of indices, not resamples x seeds of them.
        # 200 seeds: 20 resamples a block, so 4000 resamples take 200 blocks.
        revenue = {label: [float(i % 97) for i in range(200)] for label in ("a", "b")}
        peaks = {}
        for resamples in (1000, 4000):
            tracemalloc.start()
            try:
                means = _bootstrap_means(SplitMix64(5), revenue, resamples)
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(means["a"]) == resamples
            peaks[resamples] = peak - current
        assert peaks[4000] <= 1.1 * peaks[1000], peaks

    @pytest.mark.parametrize(
        "configs",
        [
            (MechanismConfig(), MechanismConfig()),
            (MechanismConfig(pricing="critical_value"),) * 2,
            (MechanismConfig(gamma=2.0), MechanismConfig()),
            (MechanismConfig(), MechanismConfig(pricing="critical_value", solver="greedy")),
        ],
    )
    def test_scenario_checked_once_per_seed(self, monkeypatch, configs):
        checks = []
        check = Scenario.__post_init__

        def counting(scenario):
            checks.append(scenario.generator.seed)
            check(scenario)

        monkeypatch.setattr(Scenario, "__post_init__", counting)
        specs = [
            MechanismSpec("mafl", config=configs[0]),
            MechanismSpec("repeated_srmra", config=configs[1]),
        ]
        report = compare(self.params, specs, n_seeds=3, bootstrap_resamples=0)
        assert len(checks) == 3
        assert set(checks) == set(report.seeds)
        monkeypatch.undo()
        for spec in specs:
            for record in (r for r in report.records if r.mechanism == spec.name):
                scenario = generate_scenario(replace(self.params, seed=record.seed))
                evaluation = evaluate(scenario, spec.name, spec.config)
                assert record.revenue == evaluation.result.total_revenue
