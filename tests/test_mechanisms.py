import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mdcauction import (
    AuctionLedger,
    Bid,
    Buyer,
    GeneratorParams,
    MechanismConfig,
    ResourceVector,
    Scenario,
    Seller,
    ValidationError,
    adjust_bid,
    generate_scenario,
    replay,
    run_double_auction,
    run_mafl,
    run_repeated_srmra,
    run_srmra,
)
from mdcauction.mechanisms import _scaled_ask
from helpers import (
    TABLE1_BIDS,
    TABLE2_BIDS,
    TABLE_BUDGETS,
    TABLE_ITEMS,
    recheck_run_invariants,
    table_scenario,
)
from replay_oracle import top_k_replay


def unit_bid(buyer_id, amount_units):
    return Bid(buyer_id, amount_units * 1000, ResourceVector((1000,)))


class TestAdjustBid:
    config = MechanismConfig(gamma=1.0)

    def test_full_budget_is_untouched(self):
        for gamma in (0.0, 0.5, 1.0, 3.0):
            config = MechanismConfig(gamma=gamma)
            assert adjust_bid(4000, 9000, 9000, config, won_previous=True) == 4000

    def test_zero_remaining_forces_zero(self):
        assert adjust_bid(4000, 0, 9000, self.config, won_previous=True) == 0
        assert adjust_bid(4000, 0, 9000, self.config, won_previous=False) == 0

    def test_punishment_floors_to_milli(self):
        # 4 * 5/9 = 2.222... -> 2222 milli
        assert adjust_bid(4000, 5000, 9000, self.config, won_previous=True) == 2222

    def test_non_winner_is_only_clamped(self):
        assert adjust_bid(4000, 3000, 9000, self.config, won_previous=False) == 3000
        assert adjust_bid(2000, 3000, 9000, self.config, won_previous=False) == 2000

    def test_all_buyers_scope_punishes_everyone(self):
        config = MechanismConfig(gamma=1.0, scope="all_buyers")
        assert adjust_bid(4000, 5000, 9000, config, won_previous=False) == 2222

    def test_zero_initial_budget_bids_zero(self):
        assert adjust_bid(4000, 0, 0, self.config, won_previous=True) == 0

    def test_result_never_exceeds_remaining(self):
        config = MechanismConfig(gamma=0.0)
        assert adjust_bid(9000, 2000, 9000, config, won_previous=True) == 2000

    def test_fractional_gamma_never_raises_the_true_bid(self):
        config = MechanismConfig(gamma=0.5)
        assert adjust_bid(2**54 - 1, 10**17, 10**17, config, won_previous=True) == 2**54 - 1

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 50000),
        st.integers(0, 20000),
        st.integers(1, 20000),
        st.floats(0, 4, allow_nan=False),
        st.booleans(),
    )
    def test_effective_bid_always_within_budget(self, true, rem, extra, gamma, won):
        initial = rem + extra
        effective = adjust_bid(true, rem, initial, MechanismConfig(gamma=gamma), won)
        assert 0 <= effective <= rem


class TestRunSrmra:
    def make_ledger(self):
        buyers = [Buyer(i, b * 1000) for i, b in enumerate(TABLE_BUDGETS)]
        sellers = (Seller(0, ResourceVector((2000,))),)
        return buyers, sellers, AuctionLedger.new(buyers, sellers)

    def test_two_highest_unit_bids_win(self):
        _, sellers, ledger = self.make_ledger()
        bids = [unit_bid(0, 3), unit_bid(1, 4), unit_bid(2, 5)]
        outcome = run_srmra(bids, sellers, ledger)
        assert outcome.winners.buyers() == {1, 2}
        assert outcome.payments == {1: 4000, 2: 5000}
        assert outcome.utility == 9000
        assert ledger.remaining_budget == {0: 15000, 1: 5000, 2: 5000}

    def test_zero_bids_cannot_win(self):
        _, sellers, ledger = self.make_ledger()
        bids = [unit_bid(0, 3), unit_bid(1, 0), unit_bid(2, 0)]
        outcome = run_srmra(bids, sellers, ledger)
        assert outcome.winners.buyers() == {0}
        assert outcome.payments == {0: 3000}
        assert outcome.utility == 3000

    def test_rounds_are_numbered_by_the_ledger(self):
        _, sellers, ledger = self.make_ledger()
        first = run_srmra([unit_bid(0, 3)], sellers, ledger)
        second = run_srmra([], sellers, ledger)
        assert (first.round, second.round) == (1, 2)
        assert ledger.history == [first, second]

    def test_no_bids_is_an_empty_round(self):
        _, sellers, ledger = self.make_ledger()
        outcome = run_srmra([], sellers, ledger)
        assert outcome.utility == 0
        assert not outcome.winners

    def test_dimension_mismatch_rejected(self):
        _, sellers, ledger = self.make_ledger()
        bad = Bid(0, 1000, ResourceVector((1000, 1000)))
        with pytest.raises(ValidationError, match="demand"):
            run_srmra([bad], sellers, ledger)

    def test_unclamped_bid_rejected(self):
        _, sellers, ledger = self.make_ledger()
        with pytest.raises(ValidationError, match="remaining budget"):
            run_srmra([unit_bid(1, 99)], sellers, ledger)

    def test_critical_value_pricing_charges_the_threshold(self):
        _, sellers, ledger = self.make_ledger()
        config = MechanismConfig(pricing="critical_value")
        one_slot = (Seller(0, ResourceVector((1000,))),)
        ledger = AuctionLedger.new([Buyer(0, 15000), Buyer(1, 9000)], one_slot)
        outcome = run_srmra([unit_bid(0, 5), unit_bid(1, 3)], one_slot, ledger, config)
        assert outcome.winners.buyers() == {0}
        assert outcome.bids == {0: 5000}
        # lowest-index tie preference makes the runner-up bid the threshold
        assert outcome.payments == {0: 3000}
        assert outcome.utility == 5000
        assert outcome.revenue == 3000


class TestReplay:
    def test_first_worked_example(self):
        result = replay(TABLE1_BIDS, TABLE_BUDGETS, TABLE_ITEMS)
        assert [o.utility for o in result.rounds] == [9000, 10000, 3000, 2000, 1000, 1000]
        assert result.total_utility == 26000
        assert [sorted(o.winners.buyers()) for o in result.rounds] == [
            [1, 2], [1, 2], [0], [0], [0], [0],
        ]

    def test_second_worked_example(self):
        result = replay(TABLE2_BIDS, TABLE_BUDGETS, TABLE_ITEMS)
        assert [o.utility for o in result.rounds] == [9000, 7000, 7000, 5000, 4000, 2000]
        assert result.total_utility == 34000
        assert [sorted(o.winners.buyers()) for o in result.rounds] == [
            [1, 2], [0, 1], [0, 2], [0, 1], [0, 2], [0, 1],
        ]
        # ledger closes exactly: every budget fully spent
        assert all(v == 0 for v in result.ledger.remaining_budget.values())

    def test_budget_clamps_to_zero(self):
        result = replay([[1, 1]], [1], 1)
        assert [o.utility for o in result.rounds] == [1000, 0]
        assert result.total_utility == 1000

    def test_ragged_matrix_rejected(self):
        with pytest.raises(ValidationError, match=r"^bids\[1\]: expected 2 rounds, got 1$"):
            replay([[1, 2], [3]], [5, 5], 1)

    def test_row_count_must_match_budgets(self):
        with pytest.raises(ValidationError, match=r"^bids: expected 2 rows, got 1$"):
            replay([[1]], [5, 5], 1)

    def test_items_per_round_must_be_an_integer(self):
        with pytest.raises(ValidationError, match="items_per_round"):
            replay([[1]], [5], 1.5)

    @pytest.mark.parametrize("bids, budgets", [([], []), ([[]], [5]), ([[], []], [1, 2])])
    def test_empty_fixture_has_zero_rounds(self, bids, budgets):
        result = replay(bids, budgets, 2)
        assert result.rounds == ()
        assert result.total_utility == 0
        assert result.ledger.remaining_budget == {i: b * 1000 for i, b in enumerate(budgets)}

    def test_many_equal_bids_finish(self):
        # equal bids leave an exact branch and bound nothing to prune
        result = replay([[1, 1, 1]] * 30, [3] * 30, 15)
        assert result.total_utility == 45000
        assert [len(o.winners) for o in result.rounds] == [15, 15, 15]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_the_top_k_oracle(self, data):
        # small amounts force ties, zero bids and budget clamps
        n = data.draw(st.integers(0, 8), label="buyers")
        t = data.draw(st.integers(0, 8), label="rounds")
        amount = st.sampled_from([0, 0.5, 1, 1, 2, 2, 3, 5])
        row = st.lists(amount, min_size=t, max_size=t)
        bids = data.draw(st.lists(row, min_size=n, max_size=n), label="bids")
        budget = st.sampled_from([0, 1, 2.5, 4, 8, 40])
        budgets = data.draw(st.lists(budget, min_size=n, max_size=n), label="budgets")
        items = data.draw(st.integers(0, 4), label="items_per_round")
        rounds, ledger = top_k_replay(bids, budgets, items)
        result = replay(bids, budgets, items)
        assert result.rounds == rounds
        assert result.ledger == ledger


class TestRepeatedSrmra:
    def test_first_worked_example_via_wdp(self):
        scenario = table_scenario(TABLE1_BIDS, TABLE_BUDGETS, TABLE_ITEMS)
        result = run_repeated_srmra(scenario)
        assert [o.utility for o in result.rounds] == [9000, 10000, 3000, 2000, 1000, 1000]
        assert result.total_utility == 26000
        recheck_run_invariants(scenario, result)

    def test_single_round_horizon(self):
        scenario = table_scenario([[3], [4], [5]], TABLE_BUDGETS, TABLE_ITEMS)
        result = run_repeated_srmra(scenario)
        assert result.total_utility == 9000

    def test_all_zero_bids(self):
        scenario = table_scenario([[0, 0], [0, 0]], [5, 5], 2)
        assert run_repeated_srmra(scenario).total_utility == 0


class TestMafl:
    def test_explicit_matrix_replays_verbatim(self):
        # explicit bid rows are a strategic trajectory: no adjustment
        scenario = table_scenario(TABLE2_BIDS, TABLE_BUDGETS, TABLE_ITEMS)
        result = run_mafl(scenario)
        assert [o.utility for o in result.rounds] == [9000, 7000, 7000, 5000, 4000, 2000]
        assert result.total_utility == 34000

    def test_gamma_zero_equals_repeated_srmra(self):
        params = GeneratorParams(n_buyers=6, m_sellers=2, horizon=8, seed=42)
        scenario = generate_scenario(params)
        mafl = run_mafl(scenario, MechanismConfig(gamma=0.0))
        srmra = run_repeated_srmra(scenario)
        assert mafl.rounds == srmra.rounds
        assert mafl.total_utility == srmra.total_utility

    def test_single_round_equals_one_srmra_call(self):
        params = GeneratorParams(n_buyers=5, m_sellers=1, horizon=1, seed=9)
        scenario = generate_scenario(params)
        result = run_mafl(scenario, MechanismConfig(gamma=1.0))
        ledger = AuctionLedger.new(scenario.buyers, scenario.sellers)
        bids = [
            Bid(b.id, min(scenario.bid_matrix[b.id][0].amount, b.budget),
                scenario.bid_matrix[b.id][0].demand)
            for b in scenario.buyers
        ]
        outcome = run_srmra(bids, scenario.sellers, ledger, MechanismConfig(gamma=1.0))
        assert result.rounds == (outcome,)

    def test_previous_winners_get_punished(self):
        # one buyer, loose capacity: wins every round, so round 2 is adjusted
        unit = ResourceVector((1000,))
        matrix = ((Bid(0, 4000, unit), Bid(0, 4000, unit)),)
        scenario = Scenario(
            buyers=(Buyer(0, 9000),),
            sellers=(Seller(0, ResourceVector((5000,))),),
            horizon=2,
            dimensions=1,
            bid_matrix=matrix,
            bids_are_valuations=True,
        )
        result = run_mafl(scenario, MechanismConfig(gamma=1.0))
        # round 1: pays 4; round 2: floor(4 * 5/9) = 2.222
        assert result.rounds[0].payments == {0: 4000}
        assert result.rounds[1].payments == {0: 2222}

    def test_win_flag_resets_each_round(self):
        # buyer 0 wins round 1, loses round 2, returns unadjusted in round 3
        unit = ResourceVector((1000,))
        matrix = (
            (Bid(0, 5000, unit), Bid(0, 1000, unit), Bid(0, 5000, unit)),
            (Bid(1, 1000, unit), Bid(1, 9000, unit), Bid(1, 1000, unit)),
        )
        scenario = Scenario(
            buyers=(Buyer(0, 50000), Buyer(1, 50000)),
            sellers=(Seller(0, ResourceVector((1000,))),),
            horizon=3,
            dimensions=1,
            bid_matrix=matrix,
            bids_are_valuations=True,
        )
        result = run_mafl(scenario, MechanismConfig(gamma=1.0))
        assert result.rounds[0].winners.buyers() == {0}
        assert result.rounds[1].winners.buyers() == {1}
        # not punished in round 3: full 5 wins over 1
        assert result.rounds[2].payments == {0: 5000}

    def test_first_price_identity_on_generated_runs(self):
        params = GeneratorParams(n_buyers=6, m_sellers=2, horizon=10, seed=77)
        scenario = generate_scenario(params)
        for runner in (run_mafl, run_repeated_srmra):
            result = runner(scenario, MechanismConfig(gamma=1.0))
            assert result.total_revenue == result.total_utility
            for outcome in result.rounds:
                assert outcome.revenue == outcome.utility
            recheck_run_invariants(scenario, result)


class TestDoubleAuction:
    def scenario_with_asks(self, bids, asks, budgets=None, capacity=1):
        unit = ResourceVector((1000,))
        budgets = budgets or [100] * len(bids)
        matrix = tuple((Bid(i, b * 1000, unit),) for i, b in enumerate(bids))
        sellers = tuple(
            Seller(j, ResourceVector((capacity * 1000,)), None, a * 1000)
            for j, a in enumerate(asks)
        )
        return Scenario(
            buyers=tuple(Buyer(i, b * 1000) for i, b in enumerate(budgets)),
            sellers=sellers,
            horizon=1,
            dimensions=1,
            bid_matrix=matrix,
        )

    def test_greedy_match_at_midpoint(self):
        result = run_double_auction(self.scenario_with_asks([5, 3], [2, 4]))
        outcome = result.rounds[0]
        assert dict(outcome.winners) == {0: 0}
        assert outcome.payments == {0: 3500}
        assert outcome.utility == 5000
        assert result.total_revenue == 3500

    def test_no_trades_when_asks_exceed_bids(self):
        result = run_double_auction(self.scenario_with_asks([2, 3], [5, 6]))
        assert result.total_revenue == 0
        assert not result.rounds[0].winners

    def test_equal_bid_and_ask_trade_at_that_price(self):
        result = run_double_auction(self.scenario_with_asks([4], [4]))
        assert result.rounds[0].payments == {0: 4000}

    def test_missing_asks_rejected(self):
        scenario = table_scenario(TABLE1_BIDS, TABLE_BUDGETS, TABLE_ITEMS)
        with pytest.raises(ValidationError, match="ask"):
            run_double_auction(scenario)

    def test_ask_scales_with_normalized_demand(self):
        # demand 2 of capacity 4 in one dimension: half a normalized unit
        demand = ResourceVector((2000,))
        matrix = ((Bid(0, 5000, demand),),)
        scenario = Scenario(
            buyers=(Buyer(0, 100000),),
            sellers=(Seller(0, ResourceVector((4000,)), None, 6000),),
            horizon=1,
            dimensions=1,
            bid_matrix=matrix,
        )
        result = run_double_auction(scenario)
        # effective ask 3, midpoint of (5, 3) = 4
        assert result.rounds[0].payments == {0: 4000}


@st.composite
def asks_and_demands(draw):
    capacity = draw(st.lists(st.integers(0, 50_000), max_size=4))
    # A zero capacity only meets a zero demand: the fit check comes first.
    demand = tuple(0 if c == 0 else draw(st.integers(0, c)) for c in capacity)
    return draw(st.integers(0, 10**9)), capacity, demand


@settings(max_examples=300, deadline=None)
@given(asks_and_demands())
def test_scaled_ask_equals_the_fraction_formula(data):
    ask, capacity, demand = data
    seller = Seller(0, ResourceVector(tuple(capacity)), None, ask)
    load = sum(Fraction(d, c) for d, c in zip(demand, capacity) if d)
    expected = math.floor(ask * load / len(demand)) if demand else 0
    assert _scaled_ask(seller, demand) == expected


def test_no_overdraft_across_thousand_seeded_scenarios():
    # small contested scenarios; the ledger recheck catches any overdraft,
    # capacity overrun, payment above a bid, or broken first-price identity
    critical = MechanismConfig(pricing="critical_value")
    for seed in range(1000):
        params = GeneratorParams(
            n_buyers=4, m_sellers=1, horizon=6, seed=seed,
            budget_range=(5, 30), capacity_range=(4, 8),
        )
        scenario = generate_scenario(params)
        for runner, config, first_price in (
            (run_mafl, MechanismConfig(), True),
            (run_repeated_srmra, MechanismConfig(), True),
            (run_mafl, critical, False),
            (run_double_auction, MechanismConfig(), False),
        ):
            result = runner(scenario, config)
            recheck_run_invariants(scenario, result, first_price=first_price)
            assert all(v >= 0 for v in result.ledger.remaining_budget.values())


class TestScalingInvariance:
    # positive integer scaling of all bids and budgets scales utilities and
    # keeps winner sets, on the adjustment-free paths (the milli flooring in
    # the punishment formula breaks exactness for gamma > 0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 7), st.integers(0, 10000))
    def test_replay_scales_exactly(self, factor, seed):
        import random

        rng = random.Random(seed)
        n, t = rng.randint(1, 4), rng.randint(1, 6)
        budgets = [rng.randint(0, 20) for _ in range(n)]
        bids = [[rng.randint(0, 8) for _ in range(t)] for _ in range(n)]
        items = rng.randint(0, 3)
        base = replay(bids, budgets, items)
        scaled = replay(
            [[b * factor for b in row] for row in bids],
            [b * factor for b in budgets],
            items,
        )
        assert scaled.total_utility == base.total_utility * factor
        assert [o.winners for o in scaled.rounds] == [o.winners for o in base.rounds]

    def test_repeated_srmra_scales_exactly(self):
        for factor in (2, 3, 10):
            scenario = table_scenario(TABLE1_BIDS, TABLE_BUDGETS, TABLE_ITEMS)
            scaled = table_scenario(
                [[b * factor for b in row] for row in TABLE1_BIDS],
                [b * factor for b in TABLE_BUDGETS],
                TABLE_ITEMS,
            )
            base_result = run_repeated_srmra(scenario)
            scaled_result = run_repeated_srmra(scaled)
            assert scaled_result.total_utility == base_result.total_utility * factor
            assert [o.winners for o in scaled_result.rounds] == [
                o.winners for o in base_result.rounds
            ]
