import gc
import random
from bisect import bisect_right
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mdcauction import (
    AuctionLedger,
    Bid,
    GeneratorParams,
    MechanismConfig,
    ResourceVector,
    SearchBudgetExceeded,
    ValidationError,
    WdpInstance,
    WdpSolution,
    generate_scenario,
    mechanisms,
    run_srmra,
    solve_exact,
    solve_greedy,
)
from mdcauction import wdp
from mdcauction.model import Assignment
from wdp_oracle import (
    brute_force_best,
    check_feasible,
    fraction_greedy,
    least_key_optimum,
    plain_list_exact,
    random_unit_instance,
)


def ladder_instance(buyers, sellers, seed):
    """Round 1 of a generated one-round scenario on the default generator ranges."""
    scenario = generate_scenario(
        GeneratorParams(n_buyers=buyers, m_sellers=sellers, horizon=1, seed=seed)
    )
    return WdpInstance(
        tuple(row[0] for row in scenario.bid_matrix),
        {s.id: s.round_capacity for s in scenario.sellers},
    )


def make_instance(amounts, demands, caps):
    """Whole-unit shorthand: amounts, per-buyer demand tuples, per-seller cap tuples."""
    bids = tuple(
        Bid(i, a * 1000, ResourceVector(tuple(q * 1000 for q in d)))
        for i, (a, d) in enumerate(zip(amounts, demands))
    )
    seller_caps = {
        j: ResourceVector(tuple(q * 1000 for q in cap)) for j, cap in enumerate(caps)
    }
    return WdpInstance(bids, seller_caps)


@pytest.mark.parametrize(
    "bids, seller_caps, dimension",
    [
        ((), {5: ResourceVector((1, 2))}, 2),  # capacities only
        ((Bid(0, 1, ResourceVector((1, 2, 3))),), {}, 3),  # bids only
        ((), {}, 0),
    ],
)
def test_the_dimension_comes_from_the_capacities_or_else_the_bids(bids, seller_caps, dimension):
    assert WdpInstance(bids, seller_caps).dimension == dimension


def test_capacities_of_different_lengths_are_rejected():
    caps = {0: ResourceVector((1, 2)), 1: ResourceVector((1,))}
    with pytest.raises(
        ValidationError, match=r"^seller_caps\[1\]: inconsistent resource dimension$"
    ):
        WdpInstance((), caps)


class TestSolveExact:
    def test_unit_demand_top_k(self):
        # three unit-demand buyers, one seller with room for two
        instance = make_instance([3, 4, 5], [(1,), (1,), (1,)], [(2,)])
        solution = solve_exact(instance)
        assert solution.optimal
        assert solution.objective == 9000
        assert solution.assignment.buyers() == {1, 2}

    def test_empty_instance(self):
        solution = solve_exact(WdpInstance((), {}))
        assert solution.objective == 0
        assert not solution.assignment

    def test_two_dimensional_packing(self):
        # feasible pairs: {b0,b1} at (3,3); b2 alone is worth only 6 < 9
        instance = make_instance([5, 4, 6], [(2, 1), (1, 2), (2, 2)], [(3, 3)])
        solution = solve_exact(instance)
        assert solution.objective == 9000
        assert solution.assignment.buyers() == {0, 1}

    def test_tie_prefers_lowest_buyer_then_seller(self):
        instance = make_instance([5, 5], [(1,), (1,)], [(1,)])
        assert dict(solve_exact(instance).assignment) == {0: 0}
        two_sellers = make_instance([5], [(1,)], [(1,), (1,)])
        assert dict(solve_exact(two_sellers).assignment) == {0: 0}

    def test_search_budget_carries_incumbent(self):
        instance = make_instance([1] * 8, [(1,)] * 8, [(8,)])
        with pytest.raises(SearchBudgetExceeded) as exc:
            solve_exact(instance, node_budget=10)
        best = exc.value.best
        assert not best.optimal
        assert best.objective <= 8000
        assert check_feasible(best.assignment, instance)

    def test_exhausted_search_returns_at_least_greedy(self):
        # buyer 0 (worth 1) takes the only unit; the search's first leaf keeps
        # it, and the budget runs out before buyer 1 (worth 10) is tried alone
        instance = make_instance([1, 10], [(1,), (1,)], [(1,)])
        with pytest.raises(SearchBudgetExceeded) as plain:
            plain_list_exact(instance, node_budget=3)
        greedy = solve_greedy(instance)
        assert plain.value.best.objective < greedy.objective
        with pytest.raises(SearchBudgetExceeded) as exc:
            solve_exact(instance, node_budget=3)
        best = exc.value.best
        assert not best.optimal
        assert check_feasible(best.assignment, instance)
        assert best.objective >= greedy.objective


class TestPackedFit:
    """The packed residual's guard bit: a demand fits exactly when it fits in every dimension."""

    CAP = (7, 2**64, 0)

    def solve(self, first, second):
        bids = (Bid(0, 1, ResourceVector(first)), Bid(1, 1, ResourceVector(second)))
        return solve_exact(WdpInstance(bids, {0: ResourceVector(self.CAP)}))

    @pytest.mark.parametrize("k", range(3))
    def test_demand_equal_to_the_residual_fits_and_one_more_does_not(self, k):
        first = (3, 2**63, 0)
        rest = tuple(c - f for c, f in zip(self.CAP, first))
        assert dict(self.solve(first, rest).assignment) == {0: 0, 1: 0}
        over = tuple(q + (i == k) for i, q in enumerate(rest))
        assert dict(self.solve(first, over).assignment) == {0: 0}

    @pytest.mark.parametrize("k", range(2))
    def test_one_more_than_the_capacity_widens_the_field_and_does_not_fit(self, k):
        cap = (2**64 - 1, 5)
        over = tuple(q + (i == k) for i, q in enumerate(cap))
        instance = WdpInstance((Bid(0, 1, ResourceVector(cap)),), {0: ResourceVector(cap)})
        assert dict(solve_exact(instance).assignment) == {0: 0}
        instance = WdpInstance((Bid(0, 1, ResourceVector(over)),), {0: ResourceVector(cap)})
        assert not solve_exact(instance).assignment

    def test_all_zero_instance_assigns_everyone_to_the_lowest_seller(self):
        zero = ResourceVector((0, 0))
        bids = tuple(Bid(i, 1, zero) for i in range(3))
        solution = solve_exact(WdpInstance(bids, {4: zero, 2: zero}))
        assert solution.optimal
        assert dict(solution.assignment) == {0: 2, 1: 2, 2: 2}

    def test_dimension_zero_always_fits(self):
        empty = ResourceVector(())
        bids = tuple(Bid(i, 1 + i, empty) for i in range(3))
        solution = solve_exact(WdpInstance(bids, {3: empty, 1: empty}))
        assert dict(solution.assignment) == {0: 1, 1: 1, 2: 1}
        assert solution.objective == 6
        assert not solve_exact(WdpInstance(bids, {})).assignment


class TestSolveGreedy:
    def test_unit_demand_matches_top_k(self):
        instance = make_instance([3, 4, 5], [(1,), (1,), (1,)], [(2,)])
        solution = solve_greedy(instance)
        assert not solution.optimal
        assert solution.objective == 9000
        assert solution.assignment.buyers() == {1, 2}

    def test_oversized_singleton_gets_nothing(self):
        instance = make_instance([7], [(5, 1)], [(4, 9)])
        solution = solve_greedy(instance)
        assert solution.objective == 0
        assert not solution.assignment

    def test_bounded_by_exact_on_derived_instance(self):
        instance = make_instance([5, 4, 6], [(2, 1), (1, 2), (2, 2)], [(3, 3)])
        solution = solve_greedy(instance)
        assert check_feasible(solution.assignment, instance)
        assert solution.objective <= 9000


class TestCheckFeasible:
    def test_empty_assignment(self):
        assert check_feasible(Assignment(()), make_instance([], [], [(2,)]))

    def test_two_unit_winners_fit(self):
        instance = make_instance([3, 4, 5], [(1,), (1,), (1,)], [(2,)])
        assert check_feasible(Assignment(((1, 0), (2, 0))), instance)

    def test_componentwise_overflow_detected(self):
        instance = make_instance([5, 4, 6], [(2, 1), (1, 2), (2, 2)], [(3, 3)])
        # demands (2,1)+(2,2) = (4,3) exceed (3,3) in the first component
        assert not check_feasible(Assignment(((0, 0), (2, 0))), instance)

    def test_unknown_ids_rejected(self):
        instance = make_instance([5], [(1,)], [(2,)])
        with pytest.raises(ValidationError, match="unknown buyer"):
            check_feasible(Assignment(((9, 0),)), instance)
        with pytest.raises(ValidationError, match="unknown seller"):
            check_feasible(Assignment(((0, 9),)), instance)

    def test_duplicate_bid_rejected(self):
        with pytest.raises(ValidationError, match="twice"):
            WdpInstance(
                (Bid(0, 1000, ResourceVector((1000,))), Bid(0, 2000, ResourceVector((1000,)))),
                {0: ResourceVector((2000,))},
            )

    @pytest.mark.parametrize("bad", [0, 2])
    def test_wrong_length_demand_is_named_against_the_capacities(self, bad):
        demands = [(1,), (1,), (1,)]
        demands[bad] = (1, 1)
        with pytest.raises(ValidationError, match=rf"bids\[{bad}\]\.demand"):
            make_instance([3, 4, 5], demands, [(2,)])


# Property tests ------------------------------------------------------------

sizes = st.tuples(st.integers(1, 6), st.integers(1, 2), st.integers(1, 3))


@st.composite
def small_instances(draw):
    n, m, d = draw(sizes)
    amounts = [draw(st.integers(1, 20)) for _ in range(n)]
    demands = [tuple(draw(st.integers(0, 5)) for _ in range(d)) for _ in range(n)]
    caps = [tuple(draw(st.integers(0, 10)) for _ in range(d)) for _ in range(m)]
    return amounts, demands, caps


@settings(max_examples=150, deadline=None)
@given(small_instances())
def test_exact_matches_brute_force(data):
    amounts, demands, caps = data
    instance = make_instance(amounts, demands, caps)
    assert solve_exact(instance).objective == brute_force_best(amounts, demands, caps) * 1000


@settings(max_examples=150, deadline=None)
@given(small_instances())
def test_greedy_never_beats_exact_and_both_feasible(data):
    amounts, demands, caps = data
    instance = make_instance(amounts, demands, caps)
    exact = solve_exact(instance)
    greedy = solve_greedy(instance)
    assert greedy.objective <= exact.objective
    assert check_feasible(exact.assignment, instance)
    assert check_feasible(greedy.assignment, instance)
    # the reported objective is the recomputed sum of assigned bids
    amount_of = {b.buyer_id: b.amount for b in instance.bids}
    for solution in (exact, greedy):
        assert solution.objective == sum(amount_of[b] for b, _ in solution.assignment)


@settings(max_examples=100, deadline=None)
@given(small_instances(), st.data())
def test_enlarging_capacity_never_hurts(data, picker):
    amounts, demands, caps = data
    base = solve_exact(make_instance(amounts, demands, caps)).objective
    j = picker.draw(st.integers(0, len(caps) - 1))
    k = picker.draw(st.integers(0, len(caps[j]) - 1))
    grown = [list(c) for c in caps]
    grown[j][k] += picker.draw(st.integers(1, 5))
    assert solve_exact(make_instance(amounts, demands, grown)).objective >= base


def test_exact_matches_oracle_on_seeded_sample():
    # fast spot-check; the full 1000-instance sweep runs in the acceptance suite
    for seed in random.Random(7).sample(range(100000), 50):
        amounts, demands, caps = random_unit_instance(seed)
        instance = make_instance(amounts, demands, caps)
        assert solve_exact(instance).objective == brute_force_best(amounts, demands, caps) * 1000


@st.composite
def greedy_instances(draw):
    """Milli-unit instances with the corners greedy must rank and place exactly.

    Dimension 0, zero capacities, zero demands, zero bids and amounts up
    to 10**12 all occur; clones of earlier bids (same amount and demand,
    another id) force equal densities.  Buyer ids are sparse and the bids
    come in any order, so the rank cannot lean on either.
    """
    d = draw(st.integers(0, 4))
    m = draw(st.integers(0, 5))
    n = draw(st.integers(0, 12))
    ids = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n, unique=True))
    amount = st.one_of(st.integers(0, 8), st.integers(0, 20_000), st.integers(0, 10**12))
    bids = []
    for buyer_id in ids:
        if bids and draw(st.booleans()):
            twin = draw(st.sampled_from(bids))
            bids.append(Bid(buyer_id, twin.amount, twin.demand))
            continue
        demand = tuple(draw(st.integers(0, 5)) for _ in range(d))
        bids.append(Bid(buyer_id, draw(amount), ResourceVector(demand)))
    caps = {
        2 * j + 1: ResourceVector(tuple(draw(st.integers(0, 10)) for _ in range(d)))
        for j in range(m)
    }
    return WdpInstance(tuple(draw(st.permutations(bids))), caps)


@settings(max_examples=400, deadline=None)
@given(greedy_instances())
def test_greedy_matches_the_fraction_oracle(instance):
    assignment, objective = fraction_greedy(instance)
    solution = solve_greedy(instance)
    assert solution.assignment.pairs == assignment.pairs
    assert solution.objective == objective


@st.composite
def exact_instances(draw):
    """Raw-unit instances with the corners the packed residuals must get right.

    Dimension 0, zero capacities and zero demands occur; components up
    to 2**64 mix with single-digit ones; and sometimes one bid demands
    more than every capacity in one dimension and nothing in the others.
    """
    d = draw(st.integers(0, 4))
    m = draw(st.integers(0, 5))
    n = draw(st.integers(0, 11))
    component = st.one_of(st.just(0), st.integers(0, 9), st.integers(0, 2**64))
    amount = st.one_of(st.integers(0, 20), st.integers(0, 10**12))
    bids = [
        Bid(i, draw(amount), ResourceVector(tuple(draw(component) for _ in range(d))))
        for i in range(n)
    ]
    caps = {
        3 * j + 2: ResourceVector(tuple(draw(component) for _ in range(d))) for j in range(m)
    }
    if d and n and draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        k = draw(st.integers(0, d - 1))
        units = [0] * d
        units[k] = max((cap.units[k] for cap in caps.values()), default=0) + draw(st.integers(1, 9))
        bids[i] = Bid(i, bids[i].amount, ResourceVector(tuple(units)))
    return WdpInstance(tuple(bids), caps)


def _outcome(solve, instance, node_budget):
    try:
        return True, solve(instance, node_budget)
    except SearchBudgetExceeded as exc:
        return False, exc.best


# solve_exact switches phases after SWITCH_NODES nodes; the small values make
# the phases run on instances small enough for the oracles.
switches = st.sampled_from([wdp.SWITCH_NODES, 1, 2, 5, 40])


def _phased(switch):
    """``solve_exact`` switching phases after ``switch`` nodes."""

    def solve(instance, node_budget, floor=-1):
        with mock.patch.object(wdp, "SWITCH_NODES", switch):
            return solve_exact(instance, node_budget, floor)

    return solve


def reference_optimum(instance):
    """The least-key optimum: by brute force on a small round, else by the plain
    search within 20 000 nodes; None where neither applies."""
    if (len(instance.seller_caps) + 1) ** len(instance.bids) <= 4096:
        pairs, _count = least_key_optimum(instance)
        amount_of = {b.buyer_id: b.amount for b in instance.bids}
        return WdpSolution(Assignment(pairs), sum(amount_of[b] for b, _ in pairs), True)
    finished, solution = _outcome(plain_list_exact, instance, 20_000)
    return solution if finished else None


@settings(max_examples=300, deadline=None)
@given(exact_instances(), st.one_of(st.integers(1, 300), st.integers(1, 10**6)), switches)
def test_exact_returns_the_least_key_optimum_or_a_feasible_incumbent(
    instance, node_budget, switch
):
    finished, solution = _outcome(_phased(switch), instance, node_budget)
    expected = reference_optimum(instance)
    if finished:
        assert solution.optimal
        if expected is not None:
            assert solution.assignment.pairs == expected.assignment.pairs
            assert solution.objective == expected.objective
        return
    assert not solution.optimal
    assert check_feasible(solution.assignment, instance)
    amount_of = {b.buyer_id: b.amount for b in instance.bids}
    assert solution.objective == sum(amount_of[b] for b, _ in solution.assignment)
    assert solution.objective >= solve_greedy(instance).objective
    if expected is not None:
        assert solution.objective <= expected.objective


@pytest.mark.parametrize(
    "buyers, sellers, seed",
    [(12, 1, 1), (12, 1, 2), (15, 2, 3), (15, 2, 4), (15, 2, 10), (20, 2, 2), (20, 2, 12)],
)
def test_exact_matches_the_list_oracle_past_ten_buyers(buyers, sellers, seed):
    # Most 20 x 2 seeds need more nodes than a quick test allows, these two do not.
    instance = ladder_instance(buyers, sellers, seed)
    solution = solve_exact(instance, node_budget=2_000_000)
    expected = plain_list_exact(instance, node_budget=2_000_000)
    assert solution.optimal
    assert solution.assignment.pairs == expected.assignment.pairs
    assert solution.objective == expected.objective


@pytest.mark.parametrize("switch", [wdp.SWITCH_NODES, 1, 3])
def test_exact_returns_the_optimum_first_in_search_order(switch):
    # Critical-value pricing settles the tie at the threshold by this order.
    # With an early switch the phases run, and the density order often
    # reaches another optimum first.
    rng = random.Random(9)
    tied = dense_first_differs = 0
    for _ in range(300):
        d = rng.randint(0, 2)
        buyer_ids = rng.sample(range(12), rng.randint(0, 6))
        bids = tuple(
            Bid(b, rng.randint(1, 4), ResourceVector(tuple(rng.randint(0, 3) for _ in range(d))))
            for b in buyer_ids
        )
        caps = {
            s: ResourceVector(tuple(rng.randint(0, 4) for _ in range(d)))
            for s in rng.sample(range(10), rng.randint(0, 3))
        }
        instance = WdpInstance(bids, caps)
        pairs, optima = least_key_optimum(instance)
        solution = _phased(switch)(instance, wdp.DEFAULT_NODE_BUDGET)
        assert solution.optimal
        assert dict(solution.assignment) == dict(pairs), instance
        tied += optima > 1
        dense = wdp._search(instance._dense_setup(), 10**9, -1)[0]
        dense_first_differs += dense.assignment != solution.assignment
    assert tied > 0
    assert dense_first_differs > 10


@settings(max_examples=300, deadline=None)
@given(exact_instances(), st.one_of(st.integers(1, 300), st.integers(1, 10**6)), switches)
def test_exact_finishes_wherever_the_search_without_the_capacity_bound_does(
    instance, node_budget, switch
):
    # Up to the switch solve_exact is one buyer-order search, which the
    # capacity bound only shortens.  Past it the phases may need more
    # nodes than that search, so they may run out where it does not.
    finished, plain = _outcome(plain_list_exact, instance, node_budget)
    if not finished:
        return
    finished, solution = _outcome(_phased(switch), instance, node_budget)
    assert finished or node_budget > switch
    if not finished:
        return
    assert solution.optimal
    assert solution.assignment.pairs == plain.assignment.pairs
    assert solution.objective == plain.objective


def _vectors(*rows):
    return tuple(ResourceVector(row) for row in rows)


def _instance(amounts, demands, caps):
    bids = tuple(Bid(i, a, d) for i, (a, d) in enumerate(zip(amounts, _vectors(*demands))))
    return WdpInstance(bids, {2 + 3 * j: cap for j, cap in enumerate(_vectors(*caps))})


def assert_laid_out_afresh(instance):
    """``instance._setup`` holds exactly its own bids, by buyer id, with the
    amounts, seller list and suffix sums of a fresh layout of them."""
    setup = instance._setup
    bids = setup[0]
    assert list(bids) == sorted(instance.bids, key=lambda b: b.buyer_id)
    fresh = instance._layout(list(bids))
    assert (setup[1], setup[5], setup[6]) == (fresh[1], fresh[5], fresh[6])


@settings(max_examples=200, deadline=None)
@given(exact_instances())
@example(_instance([5, 0, 3], [(), (), ()], [(), ()]))  # d = 0
@example(_instance([0, 7, 0, 4], [(3, 0), (2, 1), (0, 0), (1, 1)], [(0, 0), (0, 1)]))
@example(_instance([10**12, 3, 10**12 - 1], [(2**64, 1), (2**63, 0), (2**64 - 1, 2)], [(2**64, 2)]))
@example(_instance([20, 6, 5, 4], [(11, 0), (4, 1), (3, 2), (5, 0)], [(10, 5), (9, 5)]))
def test_the_bounds_are_at_least_the_optimum_of_the_bids_left(instance):
    # At each depth i, with nothing assigned and the full capacities, both
    # bounds must hold for the bids from i on: suffix[i] >= their optimum,
    # and base + rsum[i] >= their optimum * scale.  A round from ``without``
    # holds only its own bids and keeps its parent's multiplier.
    assume((len(instance.seller_caps) + 1) ** len(instance.bids) <= 1000)
    caps = [cap.units for cap in instance.seller_caps.values()]
    instance._setup  # built first, so each round below derives its setup from it
    rounds = [instance] + [instance.without(b.buyer_id) for b in instance.bids]
    for derived in rounds:
        assert_laid_out_afresh(derived)
        bids, *_, suffix, base, scale, _margins, rsum = derived._setup
        for i in range(len(bids) + 1):
            rest = bids[i:]
            amounts = [b.amount for b in rest]
            optimum = brute_force_best(amounts, [b.demand.units for b in rest], caps)
            assert suffix[i] >= optimum
            assert base + rsum[i] >= optimum * scale


@st.composite
def pool_rounds(draw):
    """Up to 8 bids in 0-3 dimensions; zero capacities, demands and amounts all occur."""
    d = draw(st.integers(0, 3))
    units = st.lists(st.integers(0, 4), min_size=d, max_size=d).map(tuple)
    n = draw(st.integers(0, 8))
    bids = tuple(Bid(i, draw(st.integers(0, 6)), ResourceVector(draw(units))) for i in range(n))
    caps = {2 * j + 1: ResourceVector(draw(units)) for j in range(draw(st.integers(0, 3)))}
    return WdpInstance(bids, caps)


@st.composite
def multipliers(draw, instance):
    """``(scale, lam)``: arbitrary integers lam[j][k] >= 0 over an arbitrary scale >= 1."""
    weight = st.one_of(st.integers(0, 9), st.integers(0, 10**6))
    lam = [[draw(weight) for _ in range(instance.dimension)] for _ in instance.seller_caps]
    return draw(st.one_of(st.integers(1, 9), st.integers(1, 2**30))), lam


def phase_layouts(instance):
    """``(round, setup)`` for the buyer-order and the density layout of ``instance``,
    then for the buyer-order layout of each round from ``without``, derived from its own."""
    instance._setup  # built first, so each round below derives its setup from it
    layouts = [(instance, instance._setup), (instance, instance._dense_setup())]
    for bid in instance.bids:
        derived = instance.without(bid.buyer_id)
        assert_laid_out_afresh(derived)
        layouts.append((derived, derived._setup))
    return layouts


def partial_assignments(bids, caps, start, margins, slacks):
    """Yield ``(i, residual, carried, value)`` for each depth i and each feasible
    assignment of the bids before i: each seller's residual capacity, the sum
    ``_search`` carries in ``reduced`` from ``start``, and the value assigned."""
    states = {(caps, start, 0)}
    for i in range(len(bids) + 1):
        for residual, carried, value in states:
            yield i, residual, carried, value
        if i == len(bids):
            return
        demand = bids[i].demand.units
        for residual, carried, value in list(states):
            for j, room in enumerate(residual):
                after = tuple(r - q for r, q in zip(room, demand))
                if min(after, default=0) >= 0:
                    assigned = residual[:j] + (after,) + residual[j + 1 :]
                    reduced = carried + margins[i] - slacks[i][j]
                    states.add((assigned, reduced, value + bids[i].amount))


def pooled_bounds(tests, i, carried):
    """The bounds ``_pool_bound`` lists at depth i, read from ``carried`` as its docstring says."""
    for shift, mask, weights, rows in tests[i]:
        left = carried >> shift & mask
        before, used, amount, demand = rows[bisect_right(weights, left)]
        yield before + amount * (left - used) // demand


# A round of ``pool_rounds`` with arbitrary multipliers for it.
weighed_rounds = pool_rounds().flatmap(lambda r: st.tuples(st.just(r), multipliers(r)))


@settings(max_examples=200, deadline=None)
@given(weighed_rounds)
@example((_instance([4, 3, 5, 2], [(2, 1), (1, 2), (3, 0), (1, 1)], [(2, 2), (1, 1)]),
          (3, [[1, 0], [0, 2]])))
@example((_instance([0, 6, 1, 6, 2], [(3,), (0,), (2,), (4,), (1,)], [(3,), (0,), (2,)]),
          (1, [[0], [0], [0]])))
def test_the_pooled_bound_is_at_least_the_optimum_of_the_bids_left(case):
    # In the buyer-order layout, the density layout and each round from
    # ``without``, under any multipliers: at each depth i, after each
    # feasible assignment of the bids before i, every bound listed at i must
    # be at least the optimum of the bids from i on in the pooled residual
    # left, taken as one seller.
    instance, drawn = case
    caps = tuple(instance.seller_caps[s].units for s in sorted(instance.seller_caps))
    for derived, setup in phase_layouts(instance):
        pooled, _low, margins, _rsum, slacks, tests = wdp._pool_bound(derived, setup, drawn)[3:]
        bids = setup[0]
        optima = {}
        for i, residual, carried, _v in partial_assignments(bids, caps, pooled, margins, slacks):
            if not tests[i]:
                continue
            left = tuple(sum(room[k] for room in residual) for k in range(instance.dimension))
            if (i, left) not in optima:
                rest = bids[i:]
                demands = [b.demand.units for b in rest]
                optima[i, left] = brute_force_best([b.amount for b in rest], demands, [left])
            for bound in pooled_bounds(tests, i, carried):
                assert bound >= optima[i, left], (i, left)


@settings(max_examples=200, deadline=None)
@given(weighed_rounds)
@example((_instance([20, 6, 5, 4], [(11, 0), (4, 1), (3, 2), (5, 0)], [(10, 5), (9, 5)]),
          (7, [[1, 30], [2, 0]])))
@example((_instance([5, 5, 3], [(2, 1), (1, 2), (1, 1)], [(2, 2), (2, 2)]),
          (4, [[3, 0], [0, 3]])))
def test_the_per_seller_bound_is_at_least_every_leaf_below(case):
    # For any integer multipliers lam_jk >= 0 over any scale D, in the
    # buyer-order layout, the density layout and each round from ``without``:
    # after each feasible assignment of the bids before depth i, worth v,
    # reduced + rsum[i] >= (v + the optimum of the bids from i on in each
    # seller's residual) * D - base, read above the pooled fields.
    instance, drawn = case
    caps = tuple(instance.seller_caps[s].units for s in sorted(instance.seller_caps))
    for derived, setup in phase_layouts(instance):
        base, scale, _gcd, pooled, low, margins, rsum, slacks, _tests = wdp._pool_bound(
            derived, setup, drawn
        )
        assert scale == drawn[0]
        bids = setup[0]
        optima = {}
        for i, residual, carried, value in partial_assignments(bids, caps, pooled, margins, slacks):
            if (i, residual) not in optima:
                rest = bids[i:]
                demands = [b.demand.units for b in rest]
                optima[i, residual] = brute_force_best([b.amount for b in rest], demands, residual)
            assert (carried + rsum[i]) >> low >= (value + optima[i, residual]) * scale - base, i


@settings(max_examples=200, deadline=None)
@given(exact_instances(), st.integers(-1, 50))
def test_the_subgradient_root_bound_is_never_weaker_than_the_pooled_multiplier(instance, floor):
    # The steps start from the pooled multiplier on every seller and keep the
    # best multipliers seen, so phase 1's root bound can only tighten.
    dense = instance._dense_setup()
    *_, old_base, old_scale, _margins, old_rsum = dense
    base, scale, _gcd, _pooled, low, _m, rsum, _slacks, _tests = wdp._pool_bound(
        instance, dense, wdp._multipliers(instance, dense, floor)
    )
    assert (base + (rsum[0] >> low)) * old_scale <= (old_base + old_rsum[0]) * scale


@st.composite
def repeating_rounds(draw):
    """2-3 sellers and up to 7 bids whose demands and amounts come from small
    sets, so that different paths reach the same residuals at the same depth."""
    d = draw(st.integers(1, 2))
    units = st.lists(st.integers(0, 3), min_size=d, max_size=d).map(tuple)
    shapes = draw(st.lists(units, min_size=1, max_size=3))
    amounts = draw(st.lists(st.integers(0, 4), min_size=1, max_size=2))
    bids = tuple(
        Bid(i, draw(st.sampled_from(amounts)), ResourceVector(draw(st.sampled_from(shapes))))
        for i in range(draw(st.integers(0, 7)))
    )
    caps = {2 * j + 1: ResourceVector(draw(units)) for j in range(draw(st.integers(2, 3)))}
    return WdpInstance(bids, caps)


@settings(max_examples=150, deadline=None)
@given(
    repeating_rounds().flatmap(lambda r: st.tuples(st.just(r), multipliers(r))),
    st.booleans(),
    st.integers(0, 3),
)
def test_a_search_with_the_phases_bounds_returns_the_first_optimum_in_its_order(
    case, stop, below
):
    # ``_search`` with ``pool``, as phases 1 and 2 run it, in the buyer-order
    # and the density layout, under any multipliers: started below the
    # optimum, or at OPT - 1 and stopped at its first leaf as phase 2 is, it
    # returns the optimum that comes first in its layout's bid order.  With
    # no room for searched states it returns the same in no fewer nodes.
    instance, drawn = case
    for setup in (instance._setup, instance._dense_setup()):
        bids = setup[0]
        laid_out = WdpInstance(bids, instance.seller_caps)
        pairs, _optima = least_key_optimum(laid_out, [b.buyer_id for b in bids])
        amount_of = {b.buyer_id: b.amount for b in bids}
        optimum = sum(amount_of[b] for b, _ in pairs)
        floor = optimum - 1 if stop else max(-1, optimum - 1 - below)
        pool = wdp._pool_bound(instance, setup, drawn)
        solution, nodes = wdp._search(setup, 10**9, floor, stop, pool)
        assert solution.optimal
        assert solution.objective == optimum
        assert dict(solution.assignment) == dict(pairs)
        with mock.patch.object(wdp, "RESIDUAL_STATES", 0):
            unaided, more = wdp._search(setup, 10**9, floor, stop, pool)
        assert unaided == solution
        assert nodes <= more


def test_floor_the_capacity_bound_proves_the_ladder_25_by_2_at_seed_101():
    # A floor on the solver's power: a better search may only keep it.  The
    # buyer-order search exhausts 100 000 nodes without the bound.  The
    # optimum was recorded by an independent pooled fractional-knapsack search.
    instance = ladder_instance(25, 2, 101)
    solution = solve_exact(instance, node_budget=100_000)
    assert solution.optimal
    assert solution.objective == 150_000
    assert check_feasible(solution.assignment, instance)


def test_floor_the_phases_prove_40_of_40_ladder_instances_within_100k_nodes():
    # The wdp-ladder sizes up to 30 x 2 at seeds 101-108.  The buyer-order
    # search alone proves 27 of them within the budget, the phases 32 with
    # the root bounds only, 33 with the pooled bound, 37 with per-seller
    # multipliers and the gcd cut, and all 40 once phases 1 and 2 skip the
    # states they have searched; a floor on the solver's power.
    proven = 0
    for seed in range(101, 109):
        for buyers, sellers in [(10, 1), (15, 2), (20, 2), (25, 2), (30, 2)]:
            instance = ladder_instance(buyers, sellers, seed)
            try:
                solution = solve_exact(instance, node_budget=100_000)
            except SearchBudgetExceeded:
                continue
            proven += 1
            # the buyer-order search with no node budget to speak of
            assert solution == wdp._search(instance._setup, 10**9, -1)[0], (seed, buyers)
            if sellers == 1:
                amounts = [b.amount for b in instance.bids]
                demands = [tuple(b.demand) for b in instance.bids]
                caps = [tuple(cap) for cap in instance.seller_caps.values()]
                assert solution.objective == brute_force_best(amounts, demands, caps)
            if (buyers, sellers) in HIGHS_OPTIMA:
                assert solution.objective == HIGHS_OPTIMA[buyers, sellers][seed - 101], seed
    assert proven == 40


@pytest.mark.parametrize("seed", range(5))
def test_phases_1_and_2_prove_200_unit_demand_bids_for_100_units(seed):
    # The replay shape: 200 unit-demand bids drawn from 1 to 5 for one
    # seller's 100 units.  Phase 2 meets the same residuals over and over,
    # and at seeds 1 and 3 ran out of nodes before it skipped searched states.
    rng = random.Random(seed)
    bids = tuple(Bid(i, rng.randint(1, 5) * 1000, ResourceVector((1000,))) for i in range(200))
    instance = WdpInstance(bids, {0: ResourceVector((100_000,))})
    solution = solve_exact(instance)
    assert solution.optimal
    assert solution.assignment == solve_greedy(instance).assignment
    top = sorted(bids, key=lambda b: (-b.amount, b.buyer_id))[:100]
    assert solution.assignment == Assignment(tuple((b.buyer_id, 0) for b in top))


# Optima of round 1 of the wdp-ladder scenarios at seeds 101-108, in
# milli-units: the HiGHS MILP solver's, through scipy 1.17.1's
# ``scipy.optimize.milp``, on one 0-1 variable per bid and seller.  They were
# computed outside this suite and are recorded here; nothing in it imports scipy.
HIGHS_OPTIMA = {
    (25, 2): (150_000, 204_000, 183_000, 178_000, 159_000, 234_000, 185_000, 187_000),
    (30, 2): (203_000, 220_000, 207_000, 172_000, 189_000, 193_000, 189_000, 182_000),
    (40, 4): (380_000, 319_000, 350_000, 351_000, 400_000, 440_000, 291_000, 425_000),
}


@pytest.mark.parametrize("buyers, sellers", list(HIGHS_OPTIMA))
def test_solve_exact_agrees_with_the_recorded_highs_optima(buyers, sellers):
    # A proven answer equals the optimum; an exhausted incumbent is feasible
    # and at most the optimum.  Every 25 x 2 and 30 x 2 round proves within
    # the default budget; the 40 x 4 rounds get the wdp-ladder's 100k nodes.
    budget = 100_000 if sellers == 4 else wdp.DEFAULT_NODE_BUDGET
    for seed, optimum in zip(range(101, 109), HIGHS_OPTIMA[buyers, sellers]):
        instance = ladder_instance(buyers, sellers, seed)
        finished, solution = _outcome(solve_exact, instance, budget)
        assert finished or sellers == 4, seed
        assert check_feasible(solution.assignment, instance), seed
        amount_of = {b.buyer_id: b.amount for b in instance.bids}
        assert solution.objective == sum(amount_of[b] for b, _ in solution.assignment)
        if finished:
            assert solution.optimal
            assert solution.objective == optimum, seed
        else:
            assert solution.objective <= optimum, seed


@pytest.mark.parametrize("seed", [101, 107])
def test_the_phases_on_the_15_by_2_ladder(seed):
    # Phase 0 runs out on both, and on both the density order reaches
    # another optimum first; the phases still return the buyer-order one.
    instance = ladder_instance(15, 2, seed)
    expected = plain_list_exact(instance, 10**6)
    dense_first = wdp._search(instance._dense_setup(), 10**9, -1)[0]
    assert dense_first.objective == expected.objective
    assert dense_first.assignment != expected.assignment
    assert solve_exact(instance) == expected
    with pytest.raises(SearchBudgetExceeded) as exc:
        solve_exact(instance, wdp.SWITCH_NODES)
    best = exc.value.best
    assert not best.optimal
    assert check_feasible(best.assignment, instance)
    assert solve_greedy(instance).objective <= best.objective <= expected.objective


@st.composite
def pricing_instances(draw):
    """A small instance and one of its bidders, winner or not, to drop.

    0-3 dimensions with zero capacities and demands; 1-4 sellers and
    1-8 bids with non-contiguous ids, the bids in arbitrary order;
    amounts 1-4, so tied optima are common.
    """
    d = draw(st.integers(0, 3))
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 8))
    buyer_ids = draw(st.lists(st.integers(0, 30), min_size=n, max_size=n, unique=True))
    units = st.integers(0, 3)
    bids = tuple(
        Bid(b, draw(st.integers(1, 4)), ResourceVector(tuple(draw(units) for _ in range(d))))
        for b in buyer_ids
    )
    seller_ids = draw(st.lists(st.integers(0, 20), min_size=m, max_size=m, unique=True))
    caps = {
        s: ResourceVector(tuple(draw(st.integers(0, 4)) for _ in range(d))) for s in seller_ids
    }
    return WdpInstance(bids, caps), draw(st.sampled_from(buyer_ids))


def without(instance, buyer_id):
    """``instance`` without ``buyer_id``'s bid, built and checked afresh."""
    others = tuple(b for b in instance.bids if b.buyer_id != buyer_id)
    return WdpInstance(others, instance.seller_caps)


@settings(max_examples=400, deadline=None)
@given(pricing_instances(), switches)
def test_a_solve_without_a_bidder_matches_a_solve_of_the_round_built_without_it(data, switch):
    # The round is solved first, so the round without the bidder derives its
    # setup from the round's; its incumbent starts just below the round's
    # solution less the bidder, which is feasible without it.
    instance, dropped = data
    solve = _phased(switch)
    budget = wdp.DEFAULT_NODE_BUDGET
    solution = solve(instance, budget)
    floor = solution.objective - next(b.amount for b in instance.bids if b.buyer_id == dropped) - 1
    fresh = without(instance, dropped)
    derived = instance.without(dropped)
    assert derived == fresh
    found = solve(derived, budget, floor)
    expected = solve(fresh, budget)
    assert found.assignment.pairs == expected.assignment.pairs
    assert found.objective == expected.objective
    assert found.optimal == expected.optimal


@settings(max_examples=200, deadline=None)
@given(exact_instances(), switches, st.data())
def test_a_floor_below_the_optimum_returns_the_same_solution(instance, switch, data):
    # The incumbent starts at the floor; the first leaf worth the optimum is still kept.
    solve = _phased(switch)
    expected = solve(instance, wdp.DEFAULT_NODE_BUDGET)
    floor = data.draw(st.integers(-1, expected.objective - 1))
    assert solve(instance, wdp.DEFAULT_NODE_BUDGET, floor) == expected


@pytest.mark.parametrize("solved", [False, True])
def test_without_a_buyer_who_has_no_bid_raises(solved):
    instance = make_instance([3, 4], [(1,), (1,)], [(1,)])
    if solved:
        solve_exact(instance)
    with pytest.raises(ValidationError, match="buyer 5 has no bid"):
        instance.without(5)
    others = instance.without(0)
    with pytest.raises(ValidationError, match="buyer 0 has no bid"):
        others.without(0)


def test_the_solves_without_each_winner_of_the_14_by_2_round_at_seed_6():
    # Each solve without a winner starts from the round's setup and a floor.
    instance = ladder_instance(14, 2, 6)
    solution = solve_exact(instance)
    amount = {b.buyer_id: b.amount for b in instance.bids}
    objectives = []
    for winner, _ in solution.assignment.pairs:
        floor = solution.objective - amount[winner] - 1
        found = solve_exact(instance.without(winner), floor=floor)
        assert found == solve_exact(without(instance, winner)), winner
        objectives.append(found.objective)
    assert solution.objective == 159_000
    assert objectives == [
        154_000, 151_000, 154_000, 149_000, 149_000, 148_000, 152_000, 157_000, 148_000, 157_000
    ]


def test_every_winner_of_the_20_by_2_round_at_seed_117_prices_within_100k_nodes(monkeypatch):
    # Each winner's solve without it starts from the round's setup and a
    # floor; at 100 000 nodes each must finish with the payment it gives at
    # the default budget.  Some of them leave phase 0.
    instance = ladder_instance(20, 2, 117)
    solution = solve_exact(instance)
    winners = [bid for bid in instance.bids if bid.buyer_id in solution.assignment.buyers()]
    payments = [mechanisms._critical_payment(instance, bid, solution) for bid in winners]
    phased = 0
    for bid in winners:
        floor = solution.objective - bid.amount - 1
        found = solve_exact(instance.without(bid.buyer_id), 100_000, floor=floor)
        assert found.optimal
        try:
            solve_exact(instance.without(bid.buyer_id), wdp.SWITCH_NODES, floor=floor)
        except SearchBudgetExceeded:
            phased += 1
    assert phased > 0

    def budgeted(others, floor):
        return solve_exact(others, 100_000, floor=floor)

    monkeypatch.setattr(mechanisms, "solve_exact", budgeted)
    assert [mechanisms._critical_payment(instance, bid, solution) for bid in winners] == payments


def test_a_search_cut_short_leaves_the_instance_as_it_was():
    # Each search works on its own copy of the packed residuals, which a
    # round from ``without`` shares with the round it came from.
    cut_short = 0
    for seed in range(40):
        instance = make_instance(*random_unit_instance(seed))
        fresh = WdpInstance(instance.bids, instance.seller_caps)
        with pytest.raises(SearchBudgetExceeded):
            solve_exact(instance, node_budget=1)
        solution = solve_exact(instance)
        assert solution == solve_exact(fresh), seed
        for winner, _ in solution.assignment.pairs:
            others = instance.without(winner)
            try:
                solve_exact(others, node_budget=1)
            except SearchBudgetExceeded:
                cut_short += 1
            assert solve_exact(instance) == solution, seed
            assert solve_exact(others) == solve_exact(without(instance, winner)), seed
    assert cut_short > 100


def test_a_round_at_the_exact_buyer_cap_solves():
    # Every bid fits, so both searches first go one level deeper per buyer.
    n = wdp.MAX_EXACT_BUYERS
    bids = tuple(Bid(i, 5, ResourceVector((1,))) for i in range(n + 1))
    caps = {0: ResourceVector((n + 1,))}
    instance = WdpInstance(bids[:-1], caps)
    solution = solve_exact(instance)
    assert solution == WdpSolution(Assignment(tuple((i, 0) for i in range(n))), 5 * n, True)
    without_first = solve_exact(instance.without(0), floor=5 * (n - 1) - 1)
    others = tuple((i, 0) for i in range(1, n))
    assert without_first == WdpSolution(Assignment(others), 5 * (n - 1), True)
    crowded = WdpInstance(bids, caps)
    with pytest.raises(ValidationError, match="limit of 500 buyers"):
        solve_exact(crowded)
    # The crowded round has no setup to derive from, so this one is laid out afresh.
    assert solve_exact(crowded.without(n)) == solution


def test_every_exit_of_a_search_leaves_no_cycle_for_the_collector(monkeypatch):
    # Each search unbinds its self-referring ``descend`` on the way out, so
    # reference counting frees the search however it ends: returned, stopped
    # at its first leaf in phase 2, or out of nodes inside the search or
    # before its first node.  The collector is off while the solves run and
    # is asked after each what it finds to reclaim.
    phases = []
    search = wdp._search

    def spy(setup, node_budget, best_value, stop=False, pool=None):
        phases.append(2 if stop else 1 if pool else 0)
        return search(setup, node_budget, best_value, stop, pool)

    monkeypatch.setattr(wdp, "_search", spy)
    budget = wdp.DEFAULT_NODE_BUDGET
    cases = [
        # (round, node budget, phases entered, proven)
        (ladder_instance(10, 1, 101), budget, [0], True),  # a default-profile round
        (ladder_instance(15, 2, 107), budget, [0, 1], True),  # phase 1 proves phase 0's incumbent
        (ladder_instance(15, 2, 101), budget, [0, 1, 2], True),  # phase 2 stops at its first leaf
        (ladder_instance(15, 2, 101), 4140, [0, 1, 2], False),  # phase 2 runs out
        (ladder_instance(40, 4, 101), 5000, [0, 1], False),  # phase 1 runs out
        (ladder_instance(10, 1, 101), 0, [0], False),  # no node to spend
    ]
    scenario = generate_scenario(GeneratorParams(n_buyers=10, m_sellers=1, horizon=1, seed=101))
    ledger = AuctionLedger.new(scenario.buyers, scenario.sellers)
    round_bids = [row[0] for row in scenario.bid_matrix]
    critical = MechanismConfig(pricing="critical_value")
    reclaimed, taken = [], []
    gc.collect()
    gc.disable()
    try:
        for instance, node_budget, _phases, _proven in cases:
            phases.clear()
            try:
                proven = solve_exact(instance, node_budget).optimal
            except SearchBudgetExceeded:
                proven = False
            taken.append((phases.copy(), proven))
            reclaimed.append(gc.collect())
        phases.clear()
        outcome = run_srmra(round_bids, scenario.sellers, ledger, critical)
        reclaimed.append(gc.collect())
    finally:
        gc.enable()
    assert taken == [(entered, proven) for _i, _b, entered, proven in cases]
    # one solve for the round, and one for the round without each winner
    assert phases.count(0) == 1 + len(outcome.winners.pairs) > 1
    assert reclaimed == [0] * (len(cases) + 1)
