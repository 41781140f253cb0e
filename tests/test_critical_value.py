"""Critical-value payments, checked against a bisection over the own bid.

The reference in this file re-solves the round once per trial bid and
searches for the smallest own bid in [1, b_i] at which the buyer still
wins, which is the definition of the critical value.  The production
code derives every exact winner's payment from one ``solve_exact`` of
the round without that winner (``WdpInstance.without``), and settles
the tie at the threshold by the exact search's order.  The greedy
heuristic's payment comes from one greedy pass without the winner.
"""

import json
import random
import time
from pathlib import Path

import pytest

import mdcauction

from mdcauction import (
    AuctionLedger,
    Bid,
    Buyer,
    GeneratorParams,
    MechanismConfig,
    ResourceVector,
    SearchBudgetExceeded,
    Seller,
    generate_scenario,
    mechanisms,
    run_mafl,
    run_srmra,
    wdp,
)
from mdcauction.cli import main
from mdcauction.wdp import WdpInstance, solve_exact, solve_greedy
from wdp_oracle import brute_force_best, random_unit_instance

def round_inputs(amounts, demands, caps):
    """Bids and sellers for one round; amounts are taken as milli-units."""
    bids = [
        Bid(i, amount, ResourceVector(demand))
        for i, (amount, demand) in enumerate(zip(amounts, demands))
    ]
    sellers = tuple(Seller(j, ResourceVector(cap)) for j, cap in enumerate(caps))
    return bids, sellers


def clear(bids, sellers, solver):
    ledger = AuctionLedger.new([Buyer(b.buyer_id, b.amount) for b in bids], sellers)
    config = MechanismConfig(pricing="critical_value", solver=solver)
    return run_srmra(bids, sellers, ledger, config)


def wins_at(bids, sellers, buyer_id, amount, solve) -> bool:
    trial = tuple(
        Bid(b.buyer_id, amount, b.demand) if b.buyer_id == buyer_id else b
        for b in bids
    )
    instance = WdpInstance(trial, {s.id: s.round_capacity for s in sellers})
    return buyer_id in solve(instance).assignment.buyers()


def bisect_payment(bids, sellers, buyer_id, solve) -> int:
    """Smallest own bid in [1, b_i] at which the buyer still wins."""
    lo = 1
    hi = next(b.amount for b in bids if b.buyer_id == buyer_id)
    while lo < hi:
        mid = (lo + hi) // 2
        if wins_at(bids, sellers, buyer_id, mid, solve):
            hi = mid
        else:
            lo = mid + 1
    return lo


def test_exact_payments_equal_the_bisection():
    at_threshold = above_threshold = 0
    for seed in range(150):
        amounts, demands, caps = random_unit_instance(seed)
        bids, sellers = round_inputs(amounts, demands, caps)
        outcome = clear(bids, sellers, "exact")
        optimum = brute_force_best(amounts, demands, caps)
        assert outcome.utility == optimum
        for buyer_id, payment in outcome.payments.items():
            assert payment == bisect_payment(bids, sellers, buyer_id, solve_exact), (seed, buyer_id)
            others = [j for j in range(len(amounts)) if j != buyer_id]
            without = brute_force_best(
                [amounts[j] for j in others], [demands[j] for j in others], caps
            )
            threshold = without - (optimum - amounts[buyer_id])
            if 1 <= threshold < amounts[buyer_id]:
                at_threshold += payment == threshold
                above_threshold += payment == threshold + 1
    # Both sides of the tie at the threshold occur in this instance set.
    assert at_threshold > 0
    assert above_threshold > 0


def test_contested_tie_goes_to_the_lower_buyer_id():
    # One slot, equal bids: buyer 0 wins the tie, so its threshold is
    # buyer 1's bid; buyer 1 would need one milli more to win.
    sellers = (Seller(0, ResourceVector((1,))),)
    bids = [Bid(0, 7, ResourceVector((1,))), Bid(1, 5, ResourceVector((1,)))]
    assert clear(bids, sellers, "exact").payments == {0: 5}
    bids = [Bid(0, 5, ResourceVector((1,))), Bid(1, 7, ResourceVector((1,)))]
    assert clear(bids, sellers, "exact").payments == {1: 6}


def test_exact_pricing_solves_the_round_and_the_round_without_each_winner(monkeypatch):
    sizes = []

    def counting(instance, **kwargs):
        sizes.append(len(instance.bids))
        return solve_exact(instance, **kwargs)

    monkeypatch.setattr(mechanisms, "solve_exact", counting)
    winners = inside = 0
    for seed in range(150):
        amounts, demands, caps = random_unit_instance(seed)
        bids, sellers = round_inputs(amounts, demands, caps)
        sizes.clear()
        outcome = clear(bids, sellers, "exact")
        assert sizes == [len(bids)] + [len(bids) - 1] * len(outcome.payments), seed
        winners += len(outcome.payments)
        inside += sum(1 < p < amounts[b] for b, p in outcome.payments.items())
    assert winners > 200
    # Thresholds strictly inside (1, b_i) are where a tie has to be settled.
    assert inside > 50


def test_exact_pricing_packs_each_round_once(monkeypatch):
    # The round solve lays out the round once; the solves without each
    # winner derive theirs from it.
    built = []

    def counting(instance):
        built.append(instance)
        return build(instance)

    setup = wdp.WdpInstance._setup
    build = setup.func
    monkeypatch.setattr(setup, "func", counting)
    params = GeneratorParams(n_buyers=10, m_sellers=1, horizon=20, seed=101)
    result = run_mafl(generate_scenario(params), MechanismConfig(pricing="critical_value"))
    assert len(built) == len(result.rounds) == 20
    assert sum(len(outcome.payments) for outcome in result.rounds) > 20


@pytest.mark.parametrize(
    "winner_demand, other_demand, round_pairs, without_pairs, payment",
    [
        # The winner needs seller 0's two units and pushes buyer 0 to seller 1;
        # without it buyer 0 keeps seller 0, which comes first: pay t + 1.
        (2, 1, {0: 1, 1: 0}, {0: 0, 2: 0}, 4),
        # Buyer 2 needs seller 0's two units and pushes buyer 0 to seller 1;
        # with the winner buyer 0 keeps seller 0, which comes first: pay t.
        (1, 2, {0: 0, 1: 0}, {0: 1, 2: 0}, 3),
    ],
)
def test_tie_at_the_threshold_settled_by_an_earlier_buyers_seller(
    winner_demand, other_demand, round_pairs, without_pairs, payment
):
    # Buyer 1 wins; t = OPT(without 1) - (OPT - b_1) = 8 - (11 - 6) = 3.
    # At x = t the round's solution and the solution without buyer 1 tie,
    # and their search keys first differ at buyer 0, assigned to a
    # different seller in each.
    sellers = (Seller(0, ResourceVector((2,))), Seller(1, ResourceVector((1,))))
    bids = [
        Bid(0, 5, ResourceVector((1,))),
        Bid(1, 6, ResourceVector((winner_demand,))),
        Bid(2, 3, ResourceVector((other_demand,))),
    ]
    caps = {s.id: s.round_capacity for s in sellers}
    others = WdpInstance(tuple(b for b in bids if b.buyer_id != 1), caps)
    assert dict(solve_exact(others).assignment) == without_pairs
    outcome = clear(bids, sellers, "exact")
    assert dict(outcome.winners) == round_pairs
    assert outcome.payments[1] == payment
    for buyer_id, paid in outcome.payments.items():
        assert paid == bisect_payment(bids, sellers, buyer_id, solve_exact)


def exhaust_on_call(monkeypatch, call):
    """Let the ``call``-th ``solve_exact`` run out of nodes; return the instance of each call.

    Call 1 is the round's, call 2 the one without the round's first winner.
    """
    seen = []

    def solve(instance, **kwargs):
        seen.append(instance)
        if len(seen) == call:
            kwargs["node_budget"] = 1
        return solve_exact(instance, **kwargs)

    monkeypatch.setattr(mechanisms, "solve_exact", solve)
    return seen


@pytest.mark.parametrize("call", [1, 2])
def test_exhausted_search_aborts_the_round_uncharged(monkeypatch, call):
    sellers = (Seller(0, ResourceVector((2,))), Seller(1, ResourceVector((1,))))
    bids = [Bid(0, 5, ResourceVector((1,))), Bid(1, 6, ResourceVector((1,)))]
    ledger = AuctionLedger.new([Buyer(b.buyer_id, b.amount) for b in bids], sellers)
    seen = exhaust_on_call(monkeypatch, call)
    with pytest.raises(SearchBudgetExceeded):
        run_srmra(bids, sellers, ledger, MechanismConfig(pricing="critical_value"))
    assert [[b.buyer_id for b in instance.bids] for instance in seen] == [[0, 1], [1]][:call]
    assert ledger.history == []


@pytest.mark.parametrize("call", [1, 2])
def test_exhausted_search_exits_3(monkeypatch, tmp_path, capsys, call):
    params = json.loads(
        (Path(mdcauction.__file__).parent / "data" / "profiles" / "default.json").read_text()
    )
    params["mechanism"] = {"pricing": "critical_value"}
    path = tmp_path / "cv.json"
    path.write_text(json.dumps(params))
    seen = exhaust_on_call(monkeypatch, call)
    assert main(["compare", str(path), "--seeds", "1", "--out", str(tmp_path / "cv.csv")]) == 3
    assert len(seen) == call
    if call == 2:
        first_winner = solve_exact(seen[0]).assignment.pairs[0][0]
        others = tuple(b for b in seen[0].bids if b.buyer_id != first_winner)
        assert seen[1] == WdpInstance(others, seen[0].seller_caps)
    err = capsys.readouterr().err
    assert err == "error: run aborted: exact solver search budget exceeded (1 nodes)\n"


def test_greedy_payment_is_its_own_threshold():
    rng = random.Random(20260)
    winners = 0
    for seed in range(80):
        amounts, demands, caps = random_unit_instance(seed)
        amounts = [1000 * a + rng.randint(0, 999) for a in amounts]
        bids, sellers = round_inputs(amounts, demands, caps)
        outcome = clear(bids, sellers, "greedy")
        for buyer_id, payment in outcome.payments.items():
            own = amounts[buyer_id]
            winners += 1
            assert 1 <= payment <= own
            assert wins_at(bids, sellers, buyer_id, payment, solve_greedy)
            if payment > 1:
                assert not wins_at(bids, sellers, buyer_id, payment - 1, solve_greedy)
            # Monotone: a winner keeps winning at any higher own bid.
            for higher in (own + 1, own + rng.randint(1, 20_000), 10 * own):
                assert wins_at(bids, sellers, buyer_id, higher, solve_greedy)
    assert winners > 100


def test_greedy_payments_equal_the_bisection():
    rng = random.Random(6)
    winners = above_one = 0
    for seed in range(300):
        amounts, demands, caps = random_unit_instance(seed)
        amounts = [rng.choice((a, 1000 * a + rng.randint(0, 999))) for a in amounts]
        bids, sellers = round_inputs(amounts, demands, caps)
        for buyer_id, payment in clear(bids, sellers, "greedy").payments.items():
            assert payment == bisect_payment(bids, sellers, buyer_id, solve_greedy), (seed, buyer_id)
            winners += 1
            above_one += payment > 1
    assert winners > 500
    assert above_one > 100


def test_greedy_tie_at_the_blocking_bid():
    # One seller of capacity 3: L = 3, a demand of d weighs 3 + d.  The
    # winner (demand 1, weight 4) and the blocking bid (demand 3,
    # weight 6) cannot both fit, so the winner pays the least amount
    # that ranks it ahead.  Against 9 that is 9 * 4 / 6 = 6 exactly, a
    # density tie that only the lower buyer id wins; against 10 it is
    # the ceiling of 10 * 4 / 6 on both sides.
    sellers = (Seller(0, ResourceVector((3,))),)
    small, large = ResourceVector((1,)), ResourceVector((3,))
    cases = [
        ([Bid(0, 10, small), Bid(1, 9, large)], {0: 6}),
        ([Bid(0, 9, large), Bid(1, 10, small)], {1: 7}),
        ([Bid(0, 11, small), Bid(1, 10, large)], {0: 7}),
        ([Bid(0, 10, large), Bid(1, 11, small)], {1: 7}),
    ]
    for bids, payments in cases:
        assert clear(bids, sellers, "greedy").payments == payments
        for buyer_id, payment in payments.items():
            assert payment == bisect_payment(bids, sellers, buyer_id, solve_greedy)


def test_greedy_prices_a_round_past_the_exact_solvers_buyer_cap():
    # 501 unit bids of 1 to 501 milli for 100 units: the top 100 win, and
    # without any one of them the bid of 401 (buyer 400) takes the last
    # unit, so each winner pays one milli more than that.
    n = wdp.MAX_EXACT_BUYERS + 1
    bids = [Bid(i, i + 1, ResourceVector((1,))) for i in range(n)]
    sellers = (Seller(0, ResourceVector((100,))),)
    assert clear(bids, sellers, "greedy").payments == {i: 402 for i in range(n - 100, n)}


def test_greedy_winner_that_always_fits_pays_one():
    sellers = (Seller(0, ResourceVector((1,))), Seller(1, ResourceVector((1,))))
    bids = [Bid(0, 5, ResourceVector((1,))), Bid(1, 9, ResourceVector((1,)))]
    assert clear(bids, sellers, "greedy").payments == {0: 1, 1: 1}


def test_users40_greedy_critical_value_compare_is_prompt(tmp_path):
    # On 2 vCPUs this takes about 0.5 s; a bisection over the own bid
    # (about 14 greedy solves per winner) took about 25 s.
    profile = Path(mdcauction.__file__).parent / "data" / "profiles" / "users40.json"
    params = json.loads(profile.read_text())
    params["mechanism"] = {"solver": "greedy", "pricing": "critical_value"}
    path = tmp_path / "users40_cv.json"
    path.write_text(json.dumps(params))
    start = time.perf_counter()
    assert main(["compare", str(path), "--seeds", "1", "--out", str(tmp_path / "cv.csv")]) == 0
    assert time.perf_counter() - start < 15
