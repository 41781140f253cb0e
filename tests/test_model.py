import copy
import dataclasses
import pickle

import pytest

from mdcauction import (
    Assignment,
    AuctionLedger,
    Bid,
    Buyer,
    InvariantViolation,
    ResourceVector,
    RoundOutcome,
    Seller,
    ValidationError,
)
from helpers import table_scenario, TABLE1_BIDS, TABLE_BUDGETS, TABLE_ITEMS


def rv(*units):
    return ResourceVector(tuple(u * 1000 for u in units))


def outcome(round_index, pairs, payments, demands):
    return RoundOutcome(
        round=round_index,
        winners=Assignment(tuple(pairs)),
        bids=dict(payments),
        payments=dict(payments),
        demands=dict(demands),
    )


class TestResourceVector:
    def test_rejects_negative_components(self):
        with pytest.raises(ValidationError, match="quantity"):
            ResourceVector((1, -2))

    @pytest.mark.parametrize("units, k", [((1.9,), 0), ((1000, True), 1), ((1, 2, "7"), 2)])
    def test_rejects_non_integer_components(self, units, k):
        with pytest.raises(ValidationError, match=rf"quantity\[{k}\]: must be an integer"):
            ResourceVector(units)

    def test_componentwise_arithmetic(self):
        assert rv(3, 3) - rv(2, 1) == rv(1, 2)
        assert rv(1, 2) + rv(2, 1) == rv(3, 3)
        assert rv(2, 1).fits_within(rv(3, 3))
        assert not rv(4, 3).fits_within(rv(3, 3))
        assert rv(5, 1).component_min(rv(2, 9)) == rv(2, 1)

    def test_dimension_mismatch_is_a_bug(self):
        with pytest.raises(InvariantViolation):
            rv(1) + rv(1, 2)

    def test_subtraction_underflow_is_a_bug(self):
        with pytest.raises(InvariantViolation):
            rv(1, 1) - rv(2, 0)


@pytest.mark.parametrize(
    "value, field, other",
    [(rv(1, 2), "units", (3, 4)), (Bid(2, 5000, rv(1, 2)), "amount", 7000)],
)
def test_value_types_copy_hash_and_compare_by_value(value, field, other):
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert twin == value and twin is not value
        assert hash(twin) == hash(value)
    assert len({value, copy.copy(value)}) == 1
    changed = dataclasses.replace(value, **{field: other})
    assert changed != value and getattr(changed, field) == other
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, field, other)


class TestAssignment:
    def test_buyer_appears_at_most_once(self):
        with pytest.raises(ValidationError, match="twice"):
            Assignment(((0, 0), (0, 1)))

    def test_pairs_are_canonicalized(self):
        a = Assignment(((2, 0), (0, 1)))
        assert a.pairs == ((0, 1), (2, 0))
        assert a.buyers() == {0, 2}


class TestRoundOutcome:
    def test_utility_is_the_sum_of_winning_bids(self):
        winners = Assignment(((0, 0), (1, 0)))
        demands = {0: rv(1), 1: rv(1)}
        outcome = RoundOutcome(1, winners, {0: 5000, 1: 3000}, {0: 4000, 1: 3000}, demands)
        assert (outcome.utility, outcome.revenue) == (8000, 7000)

    def test_payments_only_to_winners(self):
        with pytest.raises(InvariantViolation, match="non-winner"):
            RoundOutcome(1, Assignment(((0, 0),)), {0: 5000}, {1: 1}, {0: rv(1)})

    def test_bids_must_cover_the_winners(self):
        with pytest.raises(InvariantViolation, match="^bid amounts must cover exactly the winners"):
            RoundOutcome(1, Assignment(((0, 0), (1, 0))), {0: 5000}, {}, {0: rv(1), 1: rv(1)})

    def test_demands_must_cover_the_winners(self):
        with pytest.raises(
            InvariantViolation, match="^served demands must cover exactly the winners$"
        ):
            RoundOutcome(1, Assignment(((0, 0),)), {0: 5000}, {}, {})


class TestLedger:
    def test_new_ledger_mirrors_scenario(self):
        scenario = table_scenario(TABLE1_BIDS, TABLE_BUDGETS, TABLE_ITEMS)
        ledger = AuctionLedger.new(scenario.buyers, scenario.sellers)
        assert ledger.remaining_budget == {0: 15000, 1: 9000, 2: 10000}
        assert ledger.remaining_period_capacity == {0: None}
        assert ledger.history == []

    def test_empty_scenario_is_valid(self):
        ledger = AuctionLedger.new([], [])
        assert ledger.remaining_budget == {}
        assert ledger.remaining_period_capacity == {}

    def test_duplicate_buyer_id_is_rejected(self):
        with pytest.raises(ValidationError, match=r"^buyers\[0\]: duplicate buyer id$"):
            AuctionLedger.new([Buyer(0, 1000), Buyer(0, 2000)], [])

    def test_duplicate_seller_id_is_rejected(self):
        with pytest.raises(ValidationError, match=r"^sellers\[4\]: duplicate seller id$"):
            AuctionLedger.new([], [Seller(4, rv(1)), Seller(4, rv(2))])

    def test_period_capacity_initialization(self):
        seller = Seller(0, rv(2, 2, 2), rv(6, 6, 6))
        ledger = AuctionLedger.new([], [seller])
        assert ledger.remaining_period_capacity[0] == rv(6, 6, 6)
        assert ledger.effective_capacity(seller) == rv(2, 2, 2)

    def test_charge_decrements_budgets(self):
        ledger = AuctionLedger.new(
            [Buyer(0, 15000), Buyer(1, 9000), Buyer(2, 10000)], [Seller(0, rv(2))]
        )
        ledger.charge(outcome(1, [(1, 0), (2, 0)], {1: 4000, 2: 5000}, {1: rv(1), 2: rv(1)}))
        assert ledger.remaining_budget == {0: 15000, 1: 5000, 2: 5000}
        ledger.charge(outcome(2, [(1, 0), (2, 0)], {1: 5000, 2: 5000}, {1: rv(1), 2: rv(1)}))
        assert ledger.remaining_budget == {0: 15000, 1: 0, 2: 0}
        assert len(ledger.history) == 2

    def test_charge_empty_outcome_is_identity(self):
        ledger = AuctionLedger.new([Buyer(0, 15000)], [Seller(0, rv(2))])
        ledger.charge(RoundOutcome(1, Assignment(()), {}, {}, {}))
        assert ledger.remaining_budget == {0: 15000}

    def test_overdraft_is_an_invariant_violation(self):
        ledger = AuctionLedger.new([Buyer(0, 3000)], [Seller(0, rv(2))])
        with pytest.raises(InvariantViolation, match="overdraft"):
            ledger.charge(outcome(1, [(0, 0)], {0: 4000}, {0: rv(1)}))

    def test_period_capacity_overrun_is_an_invariant_violation(self):
        ledger = AuctionLedger.new([Buyer(0, 9000)], [Seller(0, rv(5), rv(1))])
        with pytest.raises(InvariantViolation, match="period capacity"):
            ledger.charge(outcome(1, [(0, 0)], {0: 1000}, {0: rv(2)}))

    def test_capped_seller_overruns_next_to_an_uncapped_one(self):
        # Seller 1 has no period cap; seller 0's cap of 2 is overrun by 3.
        sellers = [Seller(0, rv(5), rv(2)), Seller(1, rv(5))]
        ledger = AuctionLedger.new([Buyer(0, 9000), Buyer(1, 9000), Buyer(2, 9000)], sellers)
        round_one = outcome(
            1, [(0, 0), (1, 1), (2, 0)], {0: 1000, 1: 1000, 2: 1000},
            {0: rv(2), 1: rv(4), 2: rv(1)},
        )
        with pytest.raises(InvariantViolation, match="seller 0 period capacity overrun"):
            ledger.charge(round_one)
        assert ledger.history == []
        assert ledger.remaining_period_capacity == {0: rv(2), 1: None}

    def test_assignment_to_an_unknown_seller_is_an_invariant_violation(self):
        ledger = AuctionLedger.new([Buyer(0, 9000)], [Seller(0, rv(5))])
        with pytest.raises(InvariantViolation, match="unknown seller 7"):
            ledger.charge(outcome(1, [(0, 7)], {0: 1000}, {0: rv(1)}))

    def test_period_capacity_depletes_and_caps_effective(self):
        seller = Seller(0, rv(2), rv(3))
        ledger = AuctionLedger.new([Buyer(0, 9000)], [seller])
        ledger.charge(outcome(1, [(0, 0)], {0: 1000}, {0: rv(2)}))
        assert ledger.remaining_period_capacity[0] == rv(1)
        assert ledger.effective_capacity(seller) == rv(1)

    def test_budget_conservation_over_history(self):
        budgets = {0: 15000, 1: 9000, 2: 10000}
        ledger = AuctionLedger.new(
            [Buyer(i, b) for i, b in budgets.items()], [Seller(0, rv(2))]
        )
        ledger.charge(outcome(1, [(1, 0), (2, 0)], {1: 4000, 2: 5000}, {1: rv(1), 2: rv(1)}))
        ledger.charge(outcome(2, [(0, 0)], {0: 3000}, {0: rv(1)}))
        for i in budgets:
            paid = sum(o.payments.get(i, 0) for o in ledger.history)
            assert budgets[i] - ledger.remaining_budget[i] == paid


class TestScenarioValidation:
    def test_buyer_ids_must_be_dense(self):
        with pytest.raises(ValidationError, match="buyers"):
            table_scenario(TABLE1_BIDS, TABLE_BUDGETS, TABLE_ITEMS).__class__(
                buyers=(Buyer(1, 1000),),
                sellers=(),
                horizon=1,
                dimensions=1,
                bid_matrix=((),),
            )

    def test_matrix_must_cover_every_round(self):
        from mdcauction import Bid, Scenario

        unit = ResourceVector((1000,))
        short_row = (Bid(1, 3000, unit),)
        full_row = (Bid(0, 1000, unit), Bid(0, 2000, unit))
        with pytest.raises(ValidationError, match="bids"):
            Scenario(
                buyers=(Buyer(0, 5000), Buyer(1, 5000)),
                sellers=(Seller(0, ResourceVector((1000,))),),
                horizon=2,
                dimensions=1,
                bid_matrix=(full_row, short_row),
            )

    def test_negative_budget_names_the_field(self):
        with pytest.raises(ValidationError, match="budget"):
            Buyer(1, -1)

    def test_capacity_dimension_mismatch_names_the_field(self):
        from mdcauction import Scenario

        with pytest.raises(ValidationError, match=r"sellers\[0\].round_capacity"):
            Scenario(
                buyers=(),
                sellers=(Seller(0, rv(2, 2)),),
                horizon=1,
                dimensions=1,
                bid_matrix=(),
            )

    def test_duplicate_seller_id_names_its_position(self):
        from mdcauction import Scenario

        with pytest.raises(ValidationError, match=r"^sellers\[1\]\.id: duplicate seller id$"):
            Scenario(
                buyers=(),
                sellers=(Seller(3, rv(1)), Seller(3, rv(2))),
                horizon=1,
                dimensions=1,
                bid_matrix=(),
            )

    def test_a_bid_in_another_buyers_row_is_rejected(self):
        from mdcauction import Bid, Scenario

        with pytest.raises(ValidationError, match=r"^bids\[0\]\[0\]: buyer_id mismatch$"):
            Scenario(
                buyers=(Buyer(0, 5000),),
                sellers=(),
                horizon=1,
                dimensions=1,
                bid_matrix=((Bid(1, 1000, rv(1)),),),
            )

    def test_an_explicit_scenario_may_have_no_rounds(self):
        from mdcauction import Scenario

        assert Scenario((Buyer(0, 5000),), (Seller(0, rv(1)),), 0, 1, ((),)).horizon == 0
        with pytest.raises(ValidationError, match="^horizon: must be >= 0$"):
            Scenario((), (), -1, 1, ())

    @pytest.mark.parametrize("gamma", [-0.5, float("inf"), float("nan"), 1000.5, 6.9e8])
    def test_gamma_outside_the_bound_is_rejected(self, gamma):
        from mdcauction import MechanismConfig

        with pytest.raises(ValidationError, match="mechanism.gamma"):
            MechanismConfig(gamma=gamma)

    def test_gamma_bound_is_inclusive(self):
        from mdcauction import MechanismConfig
        from mdcauction.scenario import MAX_GAMMA

        assert MechanismConfig(gamma=MAX_GAMMA).gamma == MAX_GAMMA
