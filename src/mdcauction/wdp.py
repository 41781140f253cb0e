"""Winner determination for one auction round.

Maximizes the sum of accepted bid amounts subject to one seller per
buyer (tasks are indivisible) and per-seller capacity in every resource
dimension: a multiple-choice multi-dimensional 0-1 knapsack.  The exact
solver is a depth-first branch and bound meant for desk-scale instances
(tens of buyers, a handful of sellers); the greedy heuristic handles
anything larger.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain
from operator import attrgetter, indexOf, lshift, mul, sub

from .errors import InvariantViolation, ValidationError
from .model import Assignment, Bid, ResourceVector

DEFAULT_NODE_BUDGET = 5_000_000
# ``solve_exact`` searches in buyer id order for at most this many nodes
# before it proves the optimum in greedy's density order instead.
SWITCH_NODES = 4096
# The exact searches recurse up to once per buyer, so a round they take on
# must stay well inside Python's default recursion limit of 1000 frames.
MAX_EXACT_BUYERS = 500
# Phases 1 and 2 of ``solve_exact`` take their multipliers from at most
# SUBGRADIENT_STEPS subgradient steps at the root, as integers over the pooled
# multiplier's scale times 2**MULTIPLIER_BITS; the step factor halves after
# every STALL_STEPS steps without a better bound.
SUBGRADIENT_STEPS = 60
MULTIPLIER_BITS = 20
STALL_STEPS = 5
# Phases 1 and 2 of ``solve_exact`` remember at most RESIDUAL_STATES searched
# states a search.
RESIDUAL_STATES = 8192


@dataclass(frozen=True)
class WdpInstance:
    """One round's solver input.

    ``seller_caps`` must already account for period-capacity
    remainders (component-wise min of round capacity and what the
    seller may still share).  ``dimension`` is the length of every
    capacity and demand, 0 when there are none.
    """

    bids: tuple[Bid, ...]
    seller_caps: dict[int, ResourceVector]
    dimension: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "bids", tuple(self.bids))
        object.__setattr__(self, "seller_caps", dict(self.seller_caps))
        # The capacities fix the dimension first, so a bad bid is the one reported.
        dimension = None
        for seller_id, cap in self.seller_caps.items():
            if dimension is None:
                dimension = len(cap.units)
            elif len(cap.units) != dimension:
                raise ValidationError(
                    f"seller_caps[{seller_id}]", "inconsistent resource dimension"
                )
        seen = set()
        for bid in self.bids:
            if bid.buyer_id in seen:
                raise ValidationError("bids", f"buyer {bid.buyer_id} bids twice")
            seen.add(bid.buyer_id)
            if dimension is None:
                dimension = len(bid.demand.units)
            elif len(bid.demand.units) != dimension:
                raise ValidationError(
                    f"bids[{bid.buyer_id}].demand", "inconsistent resource dimension"
                )
        object.__setattr__(self, "dimension", dimension or 0)

    def without(self, buyer_id: int) -> WdpInstance:
        """This round without the bid of ``buyer_id``.

        The bids left pass every check this round passed, so they are not
        checked again.  When this round's ``_setup`` is built, the new
        round's is this one's without the dropped bid, with ``suffix`` and
        ``rsum`` summed again over the bids left: the layout of its own
        bids under this round's packing, seller list and multiplier, on
        which both bounds still hold (see ``_layout``).  Raises
        ValidationError if ``buyer_id`` has no bid in this round.
        """
        try:
            k = indexOf(map(attrgetter("buyer_id"), self.bids), buyer_id)
        except ValueError:
            raise ValidationError(
                "buyer_id", f"buyer {buyer_id} has no bid in this round"
            ) from None
        bids = self.bids[:k] + self.bids[k + 1 :]
        others = object.__new__(WdpInstance)
        vars(others).update(bids=bids, seller_caps=self.seller_caps, dimension=self.dimension)
        if "_setup" in vars(self):
            bids, amounts, guard, rooms, needs, sellers, _, base, scale, margins, _ = self._setup
            k = bisect_left(bids, buyer_id, key=attrgetter("buyer_id"))
            bids, amounts, needs, margins = map(list.copy, (bids, amounts, needs, margins))
            del bids[k], amounts[k], needs[k], margins[k]
            suffix, rsum = _tail_sums(amounts), _tail_sums([m if m > 0 else 0 for m in margins])
            vars(others)["_setup"] = (
                bids, amounts, guard, rooms, needs, sellers, suffix, base, scale, margins, rsum
            )
        return others

    @cached_property
    def _setup(self):
        """``_layout`` of the bids in buyer id order, built once per instance."""
        return self._layout(sorted(self.bids, key=attrgetter("buyer_id")))

    def _dense_setup(self):
        """``_layout`` of the bids greedy ranks, in greedy's rank order.

        ``solve_exact`` proves the optimum on it once its buyer-order
        search runs long, and builds it only then; nothing else reads it,
        so it is not kept.  Greedy ranks only the bids with a positive
        amount; a zero bid adds nothing to any assignment, so the optimum
        is the same without them.
        """
        return self._layout([row[3] for row in _ranked(self, *_scale(self))])

    def _layout(self, bids: list[Bid]):
        """The exact searches' state for ``bids`` in the order given: ``(bids,
        amounts, guard, rooms, needs, sellers, suffix, base, scale, margins, rsum)``.

        ``sellers`` lists the seller ids in ascending order, and a search
        names a seller by its index there; ``suffix[i]`` is the sum of the
        amounts from bid i on.

        Each seller's residual capacity is one integer with a field of
        B + 1 bits per dimension, where B is the bit length of the largest
        demand or capacity component: the low B bits hold the residual and
        the top bit is a guard, set in every field.  A demand is packed the
        same way without guards.  Every component is below 2**B, so
        ``room - need`` never borrows across fields, and the guard of a
        field survives exactly when that field's demand fits: the demand
        fits in every dimension iff ``(room - need) & guard == guard``, and
        assigning it is that one subtraction (Lamport, "Multiple byte
        processing with full-word instructions", CACM 1975).  With no
        dimensions ``guard`` is 0 and every demand fits.

        ``base``, ``scale``, ``margins`` and ``rsum`` are the Lagrangian
        bound on one pooled capacity row, scaled to integers.  Phase 0 of
        ``solve_exact`` cuts by it; on a round from ``without``, by its
        parent's multiplier over the bids left: any multiplier >= 0 bounds
        every feasible assignment of a round, so it bounds the round without
        any buyer too.  Phases 1 and 2 cut by one multiplier per seller and
        dimension instead, which ``_multipliers`` starts from this one (see
        ``_pool_bound``).  T_k is the sum of the sellers' capacities in
        dimension k.  Of
        the dimensions whose total demand exceeds T_k, k is the one with the
        largest total demand over T_k (the first on a tie; a zero T_k ranks
        highest).  Walking the bids with a positive demand in k by
        descending amount / demand, c is the first one whose demand no
        longer fits in what is left of T_k; the multiplier is lambda =
        a_c / d_c.  ``scale`` is d_c, ``base`` is a_c * T_k, ``margins[i]``
        is a_i * d_c - a_c * d_ik, and ``rsum[i]`` is the sum of the
        positive margins from bid i on.  When every dimension's demand fits
        its total there is no multiplier: ``scale`` and ``base`` are 0 and
        so are all margins.

        A search writes only to ``rooms``, and works on its own copy of it:
        one cut short by its node budget leaves its copy changed.  Raises
        ValidationError past ``MAX_EXACT_BUYERS`` bids.
        """
        n = len(bids)
        if n > MAX_EXACT_BUYERS:
            raise ValidationError(
                "bids",
                f"{n} bids exceed the exact solver's limit of "
                f"{MAX_EXACT_BUYERS} buyers a round; use the greedy solver",
            )
        amounts = [b.amount for b in bids]
        demands = [b.demand.units for b in bids]
        seller_ids = sorted(self.seller_caps)
        caps = [self.seller_caps[s].units for s in seller_ids]
        width = max(chain.from_iterable(caps + demands), default=0).bit_length() + 1
        shifts = range(0, self.dimension * width, width)
        guard = sum(1 << (shift + width - 1) for shift in shifts)
        rooms = [guard + sum(map(lshift, cap, shifts)) for cap in caps]
        needs = [sum(map(lshift, d, shifts)) for d in demands]
        suffix = _tail_sums(amounts)

        totals = [sum(column) for column in zip(*caps)] or [0] * self.dimension
        base = scale = 0
        margins, rsum = [0] * n, [0] * (n + 1)
        multiplier = _pooled_multiplier(amounts, demands, totals)
        if multiplier:
            k, price, scale = multiplier
            base = price * totals[k]
            margins = [a * scale - price * d[k] for a, d in zip(amounts, demands)]
            rsum = _tail_sums([m if m > 0 else 0 for m in margins])
        return bids, amounts, guard, rooms, needs, seller_ids, suffix, base, scale, margins, rsum


def _pooled_multiplier(amounts: list[int], demands: list, totals: list[int]):
    """``(k, price, scale)``, the one pooled multiplier price / scale on dimension k
    described in ``WdpInstance._layout``, or None when every dimension's
    demand fits its total."""
    demanded = [sum(column) for column in zip(*demands)] or [0] * len(totals)
    k = None
    for j, (total, demand) in enumerate(zip(totals, demanded)):
        if demand > total and (k is None or demand * totals[k] > demanded[k] * total):
            k = j
    if k is None:
        return None
    dense = [i for i, d in enumerate(demands) if d[k]]
    prices, scales = [amounts[i] for i in dense], [demands[i][k] for i in dense]
    left = totals[k]
    for _key, _i, price, scale in sorted(zip(_by_density(prices, scales), dense, prices, scales)):
        left -= scale
        if left < 0:
            break
    return k, price, scale


def _tail_sums(values: list[int]) -> list[int]:
    """``sums[i]`` is the sum of ``values`` from i on, and ``sums[len(values)]`` is 0."""
    sums = list(accumulate(reversed(values), initial=0))
    sums.reverse()
    return sums


@dataclass(frozen=True)
class WdpSolution:
    assignment: Assignment
    objective: int
    optimal: bool

    def __post_init__(self):
        if self.objective < 0:
            raise InvariantViolation("objective must be >= 0")


class SearchBudgetExceeded(RuntimeError):
    """Exact search ran out of nodes; carries its best assignment, or greedy's if better."""

    def __init__(self, node_budget: int, best: WdpSolution):
        self.node_budget = node_budget
        self.best = best
        super().__init__(f"search budget exceeded ({node_budget} nodes)")


def solve_exact(
    instance: WdpInstance, node_budget: int = DEFAULT_NODE_BUDGET, floor: int = -1
) -> WdpSolution:
    """Maximum-objective feasible assignment by depth-first branch and bound.

    The search processes buyers in id order; each node branches over the
    sellers (ascending id) with room left, then over leaving the buyer
    unassigned.  A node at depth i with partial value v is cut by two
    admissible bounds.  One is v plus the sum of all remaining bids.
    The other relaxes one pooled capacity row, the dimension k chosen in
    ``WdpInstance._layout``, with its multiplier lambda fixed at the root
    (Fisher, "The Lagrangian relaxation method for solving integer
    programming problems", Management Science 1981): every leaf below is
    worth at most v + lambda * R_k + sum over i' >= i of
    max(0, a_i' - lambda * d_i'k), where R_k is the sellers' pooled
    residual in k, because the leaf's demand in k fits R_k.  Scaled by
    d_c that is ``base + reduced + rsum[i]``, where ``reduced`` sums the
    margins of the buyers assigned so far, carried down like v at one
    addition per assignment; the node is cut when it is below
    (incumbent + 1) * d_c.  When every dimension's total demand fits
    the sellers' total capacity there is no multiplier, and only the
    first bound cuts.  A cut subtree holds no leaf better than the
    incumbent, and the incumbent is replaced only on strict
    improvement, so among equal-objective optima the first one in this
    search order wins: earlier buyers are assigned in preference to
    later ones, lower seller ids in preference to higher, assigned in
    preference to unassigned.  The capacity bound only removes nodes
    from the search without it, and never the path to the optimum it
    returns.  Residual capacities are packed integers, so a fit test is
    one subtraction and one mask (see ``WdpInstance._layout``).

    Phases 1 and 2 below cut by stronger bounds (``_pool_bound``).  The
    Lagrangian bound there relaxes every seller's capacity row with its
    own multipliers lambda_jk, found at the root by ``_multipliers``:
    every leaf below a node is worth at most sum_jk lambda_jk R_jk plus
    v plus the sum over i' >= i of max(0, max_j (a_i' - sum_k lambda_jk
    d_i'k)), with R_jk seller j's residual in k.  Phase 0's multiplier
    on every seller is one such lambda, and the best lambda gives the
    bound of the linear relaxation at the root (Geoffrion, "Lagrangean
    relaxation for integer programming", Math. Programming Study 2,
    1974).  The third bound, recomputed at the node, is for each
    dimension k whose demand from depth i on exceeds T_k, the sellers'
    total capacity in k, the fractional-knapsack (Dantzig) bound of the
    bids from i on in R_k, the sellers' pooled residual.  It sees what
    the root-fixed multipliers miss, how much of the pooled residual the
    assignments so far have used.  Its residuals ride in the low bits of
    ``reduced``, still one addition per assignment, and it is tested
    once per recursive call (at the root and at each node entered by an
    assignment), one ``bisect_right`` per dimension it tests.  Every
    leaf is worth a multiple of g, the gcd of the amounts, so these
    phases cut a node whose bounds fall below the next multiple of g
    above the incumbent, not the incumbent plus one.  The bounds are
    admissible, so they change which nodes are expanded but never which
    leaves improve the incumbent.

    Buyer id order is a poor branch order for a knapsack, so the nodes
    of ``node_budget`` are spent in up to three phases:

    0. The search above, its incumbent started at ``floor``, for at most
       ``SWITCH_NODES`` nodes.  If it finishes, that is the answer.
    1. The same search over the bids in greedy's density order
       (``WdpInstance._dense_setup``; Kellerer, Pferschy & Pisinger,
       *Knapsack Problems*, 2004, ch. 9), its incumbent started at v0,
       the value of phase 0's incumbent (``floor`` if that has no
       pair).  It proves the optimum OPT.
       Every leaf ahead of phase 0's incumbent in buyer order is worth
       less than v0, so if OPT is v0, that incumbent is the answer.
    2. Otherwise the buyer-order search again, its incumbent started at
       OPT - 1, stopped at its first leaf.  No cut removes the path to
       the first leaf worth OPT, so that leaf is the one phase 0 would
       have returned with nodes enough to finish.

    Phases 1 and 2 cut by the same multipliers, found on phase 1's
    layout with v0 as the steps' target; finding them expands no node.

    Phases 1 and 2 also skip states they have searched, by a dominance
    rule (Ibaraki, "The power of dominance relations in branch-and-bound
    algorithms", J. ACM 24(2), 1977).  A node's state is its depth and
    every seller's residual capacity, and each bound is the node's value
    plus a function of its state alone: the suffix sum, the pooled
    residuals' Dantzig bound, and the per-seller Lagrangian bound, whose
    ``reduced`` is v * scale less sum_jk lambda_jk times what the
    assignments above used of C_jk.  A search records, for up to
    ``RESIDUAL_STATES`` states, the largest value with which a node
    entered by an assignment searched that state to the end; a later
    such node in the same state whose value is not above it returns at
    once.  Every leaf below it is worth no more than the leaf below the
    recorded node that assigns the same bids, and that leaf was either
    cut against an incumbent no higher than today's or reached, and then
    made the incumbent, so none of them beats the incumbent.  The
    incumbent only rises, so each phase meets the same improving leaves
    in the same order, in no more nodes, and a phase cut short by its
    node budget has got at least as far.

    ``floor`` must be below the optimum; a caller that knows a feasible
    assignment worth v passes v - 1, which prunes from the first node
    and returns the same optimum.

    Raises SearchBudgetExceeded if the phases together would expand
    more than ``node_budget`` nodes.  It carries the best of the
    phases' incumbents and greedy's solution, the earliest on a tie,
    not proven optimal.  Raises ValidationError past
    ``MAX_EXACT_BUYERS`` bids.
    """
    setup = instance._setup
    first = min(node_budget, SWITCH_NODES)
    try:
        return _search(setup, first, floor)[0]
    except SearchBudgetExceeded as exc:
        found = [exc.best]
    if node_budget > first:
        left = node_budget - first
        if found[0].assignment:
            floor = found[0].objective
        try:
            dense = instance._dense_setup()
            multipliers = _multipliers(instance, dense, floor)
            pool = _pool_bound(instance, dense, multipliers)
            proof, spent = _search(dense, left, floor, pool=pool)
            if proof.objective == floor:
                return WdpSolution(found[0].assignment, floor, True)
            found.append(WdpSolution(proof.assignment, proof.objective, False))
            pool = _pool_bound(instance, setup, multipliers)
            return _search(setup, left - spent, proof.objective - 1, True, pool)[0]
        except SearchBudgetExceeded as exc:
            found.append(exc.best)
    found.append(solve_greedy(instance))
    best = max(found, key=attrgetter("objective"))
    raise SearchBudgetExceeded(node_budget, best) from None


class _Stop(Exception):
    """Unwinds a search stopped at its first leaf."""


def _search(setup, node_budget: int, best_value: int, stop: bool = False, pool=None):
    """``solve_exact``'s branch and bound on ``setup``, laid out as ``WdpInstance._layout``.

    The incumbent starts at ``best_value``, below the optimum, with no
    pairs, and is replaced only on strict improvement; the search
    returns ``(incumbent, nodes expanded)``, the incumbent proven
    optimal.  With ``stop`` it returns at the first leaf worth more than
    ``best_value``.  Raises SearchBudgetExceeded past ``node_budget``
    nodes, carrying the best leaf reached, if any.

    A node is counted, checked against the budget and cut by the
    suffix and Lagrangian bounds in its parent's loop, in the order the
    nodes are reached.  Only an assignment that passes recurses; leaving
    the buyer unassigned is the next turn of the loop.  So a search
    makes one call for the root and one per assignment that passes, not
    one per node, and recurses only as deep as the buyers it assigns.

    ``pool``, from ``_pool_bound(instance, setup, multipliers)``, holds
    the bounds of phases 1 and 2.  It replaces the setup's ``base``,
    ``scale``, ``margins`` and ``rsum`` with the per-seller Lagrangian
    bound, its margins and sums shifted up by ``low`` bits, and ``bar``
    is shifted the same way; below them ``reduced`` carries the pooled
    residuals R_k and every seller's residual capacity, starting from
    ``start``.  ``margins[i]`` is bid i's margin at its best seller, so
    the parent's loop cuts by that, at no cost per node beyond phase
    0's.  With ``pool`` each call then does three things.  Entered by
    assigning bid i - 1 to the seller at index j, it subtracts
    ``slacks[i - 1][j]``, the best margin less the margin at that seller
    and the bid's demand in that seller's field, and is cut if the sum
    falls below ``bar``.  It tests the pooled bound, at one shift, one
    mask and one ``bisect_right`` per dimension listed for its depth.
    Every cut compares with ``target``, the next multiple of ``gcd``
    above the incumbent.  And, entered by an assignment and past those
    cuts, it looks up its state, the low ``low`` bits of ``reduced``
    with its depth, in ``seen``: it returns if the value recorded there
    is at least its own, and otherwise records its value (a new state
    only while ``seen`` holds fewer than ``RESIDUAL_STATES``).  Recording
    on entry is recording at the end: every node below a call is deeper,
    so no other call in its state is reached before it returns, and a
    search that stops or runs out reads ``seen`` no more.  ``seen`` is
    emptied when the search returns or raises (see ``solve_exact`` for
    why a skipped state holds no better leaf).  On every exit the search
    also unbinds ``descend``, which refers to itself, so reference
    counting frees each search and the cyclic collector has nothing of
    it to find.  Without ``pool``,
    ``gcd`` is 1, ``low`` is 0 and a call does none of this: that is
    phase 0's search.
    """
    bids, amounts, guard, rooms, needs, sellers, suffix, base, scale, margins, rsum = setup
    rooms = list(rooms)
    n = len(amounts)
    indices = list(range(len(sellers)))
    gcd, start, low, slacks, tests = 1, 0, 0, None, None
    if pool:
        base, scale, gcd, start, low, margins, rsum, slacks, tests = pool
    # Every leaf is worth a multiple of gcd; one that beats the incumbent is worth target or more.
    target = (best_value // gcd + 1) * gcd
    # A node is cut when its reduced + rsum[i] falls below bar; with no multiplier bar is 0.
    bar = target * scale - base << low
    # picked[i] is the index in ``sellers`` of buyer i's seller on the path searched
    # (None: unassigned), and best is picked as it was at the incumbent's leaf.
    picked, best = [None] * n, [None] * n
    nodes = 1
    # With ``pool``: a state, its depth above the residual fields that are the low
    # bits of ``reduced`` -> the largest value with which a call entered by an
    # assignment has searched it.
    fields = (1 << low) - 1
    seen = {}

    def incumbent(optimal: bool) -> WdpSolution:
        # A search cut short with no pairs reports 0, not the value it started from.
        pairs = Assignment([(b.buyer_id, sellers[j]) for b, j in zip(bids, best) if j is not None])
        return WdpSolution(pairs, best_value if pairs or optimal else 0, optimal)

    def descend(i: int, value: int, reduced: int) -> None:
        # The node was counted and passed both cuts before the call.
        nonlocal best_value, best, target, bar, nodes
        # ``tests`` is None without ``pool``; testing it rather than ``pool`` keeps
        # ``pool`` out of this closure, whose free variables each call copies.
        if tests:
            if i:
                # The parent cut by bid i - 1's best seller; correct to the one it took.
                reduced -= slacks[i - 1][picked[i - 1]]
                if reduced + rsum[i] < bar:
                    return
            for shift, mask, weights, rows in tests[i]:
                left = reduced >> shift & mask
                before, used, amount, demand = rows[bisect_right(weights, left)]
                if value + before + amount * (left - used) // demand < target:
                    return
            if i:
                # No leaf below a state searched at a value >= this one beats the incumbent.
                state = reduced & fields | i << low
                known = seen.get(state, -1)
                if value <= known:
                    return
                if known >= 0 or len(seen) < RESIDUAL_STATES:
                    seen[state] = value
        while i < n:
            need = needs[i]
            taken = value + amounts[i]
            reduced_taken = reduced + margins[i]
            i += 1
            reach = taken + suffix[i]
            reach_reduced = reduced_taken + rsum[i]
            for j in indices:
                room = rooms[j]
                left = room - need
                if left & guard == guard:
                    nodes += 1
                    if nodes > node_budget:
                        raise SearchBudgetExceeded(node_budget, incumbent(False))
                    if reach >= target and reach_reduced >= bar:
                        rooms[j] = left
                        picked[i - 1] = j
                        descend(i, taken, reduced_taken)
                        picked[i - 1] = None
                        rooms[j] = room
            nodes += 1
            if nodes > node_budget:
                raise SearchBudgetExceeded(node_budget, incumbent(False))
            if value + suffix[i] < target or reduced + rsum[i] < bar:
                return
        # A leaf past the suffix cut is worth more than the incumbent.
        best_value = value
        best = picked.copy()
        target = value + gcd
        bar = target * scale - base << low
        if stop:
            raise _Stop

    try:
        if node_budget < 1:
            raise SearchBudgetExceeded(node_budget, incumbent(False))
        if suffix[0] >= target and start + rsum[0] >= bar:
            descend(0, 0, start)
    except _Stop:
        pass
    finally:
        # ``descend`` refers to itself; unbinding it breaks that cycle on every
        # exit, so reference counting frees the search, and the table goes now.
        seen.clear()
        descend = None
    return incumbent(True), nodes


def _multipliers(instance: WdpInstance, setup, floor: int):
    """``(scale, lam)``: the multiplier of seller j's capacity in dimension k
    is ``lam[j][k] / scale``, the sellers by ascending id.

    Found by at most ``SUBGRADIENT_STEPS`` steps of subgradient
    optimization of the Lagrangian bound of ``solve_exact``'s phases 1
    and 2 at the root (Held, Wolfe & Crowder, "Validation of subgradient
    optimization", Math. Programming 6, 1974), over the bids of
    ``setup``.  The steps
    start from the one pooled multiplier of ``WdpInstance._layout`` on
    every seller, and ``scale`` is that multiplier's scale times
    2**``MULTIPLIER_BITS`` (or 2**``MULTIPLIER_BITS`` with none), so the
    start is exact.  The bound is evaluated in exact integers at every
    step and the best lam seen is returned, so the root bound is never
    weaker than the pooled one.  Floats only size the steps: any lam >= 0
    gives an admissible bound.  A step moves lam_jk against seller j's
    slack in k, C_jk less the demand of the bids whose best margin is at
    j, by the Polyak step toward the next multiple of the bids' gcd above
    ``floor``; the factor theta starts at 2 and halves after every
    ``STALL_STEPS`` steps without a better bound.  The steps stop early
    once the bound proves that no assignment beats ``floor``, or once
    half of ``SUBGRADIENT_STEPS`` have passed without a better bound.
    """
    bids, amounts, _guard, _rooms, _needs, sellers = setup[:6]
    dim = instance.dimension
    demands = [bid.demand.units for bid in bids]
    caps = [instance.seller_caps[s].units for s in sellers]
    totals = [sum(column) for column in zip(*caps)] or [0] * dim
    k, price, scale = _pooled_multiplier(amounts, demands, totals) or (None, 0, 1)
    scale <<= MULTIPLIER_BITS
    lam = [[0] * dim for _ in caps]
    if k is not None:
        for row in lam:
            row[k] = price << MULTIPLIER_BITS
    columns = list(zip(*demands)) or [()] * dim
    values = [a * scale for a in amounts]
    # Past the largest a * scale no bid demanding k has a positive margin at j, so a
    # larger lam_jk only adds to the bound; the cap keeps every step a finite float.
    ceiling = max(values, default=0)
    gcd = math.gcd(*amounts) or 1
    goal = (floor // gcd + 1) * gcd * scale
    best = best_lam = None
    theta, stalled = 2.0, 0
    for _ in range(SUBGRADIENT_STEPS):
        rows = []
        for row in lam:
            margin = values
            for weight, column in zip(row, columns):
                if weight:
                    margin = [m - weight * d for m, d in zip(margin, column)]
            rows.append(margin)
        bound = sum(w * c for row, cap in zip(lam, caps) for w, c in zip(row, cap))
        picks = [[] for _ in caps]
        for i, margin in enumerate(zip(*rows)):
            top = max(margin)
            if top > 0:
                bound += top
                picks[margin.index(top)].append(i)
        if best is None or bound < best:
            best, best_lam, stalled = bound, lam, 0
        else:
            stalled += 1
            if stalled % STALL_STEPS == 0:
                theta /= 2
        if best < goal or stalled == SUBGRADIENT_STEPS // 2:
            break
        # The subgradient, less what the projection onto lam >= 0 would undo.
        gradient = [
            [c - sum(map(column.__getitem__, chosen)) for c, column in zip(cap, columns)]
            for cap, chosen in zip(caps, picks)
        ]
        gradient = [
            [g if w or g < 0 else 0 for w, g in zip(row, gs)] for row, gs in zip(lam, gradient)
        ]
        norm = sum(g * g for gs in gradient for g in gs)
        if not norm:
            break
        step = theta * (bound - goal) / norm
        lam = [
            [min(ceiling, max(0, w - round(step * g))) for w, g in zip(row, gs)]
            for row, gs in zip(lam, gradient)
        ]
    return scale, best_lam


def _pool_bound(instance: WdpInstance, setup, multipliers):
    """``(base, scale, gcd, pooled, low, margins, rsum, slacks, tests)``:
    the bounds of ``solve_exact``'s phases 1 and 2 on ``setup``.

    ``multipliers`` is ``(scale, lam)``, one integer ``lam[j][k] >= 0``
    for each seller j, by ascending id, and dimension k, as
    ``_multipliers`` returns; any such lam gives admissible bounds.  C_jk
    is seller j's capacity in k.  ``base`` is the sum of lam_jk * C_jk,
    bid i's margin at seller j is m_ij = a_i * scale - sum_k lam_jk *
    d_ik, and ``rsum[i]`` sums max(0, max_j m_ij) over the bids from i
    on, shifted up by ``low`` bits.  ``margins[i]`` is max_j m_ij shifted
    the same way, less bid i's demand packed into the pooled fields
    described below, and ``slacks[i][j]`` is max_j' m_ij' - m_ij, shifted
    up by ``low``, plus bid i's demand packed into seller j's field.
    ``gcd`` is the gcd of the amounts (1 if all are 0).

    T_k is the sellers' total capacity in dimension k, and R_k what the
    assignments above a node leave of it.  Every leaf below a node at
    depth i fits the bids it assigns from i on into R_k, so their
    fractional-knapsack (Dantzig) bound in k, on R_k, bounds the value
    still to come (Martello & Toth, *Knapsack Problems*, 1990, ch. 2;
    Kellerer, Pferschy & Pisinger, 2004, ch. 5).  Only the dimensions
    whose demand exceeds T_k are kept.

    The R_k of the kept dimensions are fields of one integer, each
    ``width`` bits wide, the bit length of the largest kept T_k.  Below
    them, seller j's residual capacity, packed as in ``rooms``, sits at
    bit j * S, with S the bit length of ``guard``.  ``start`` packs the
    capacities and the T_k, and ``low`` is the fields' total width.  So
    ``reduced``, started at ``start``, carries the Lagrangian sum above
    the fields and the residuals in them at one addition per assignment.
    An assignment always fits its seller, so no R_k goes below 0 and a
    seller's field keeps its guard bits: no field borrows.  The fields
    hold less than ``1 << low``, so ``reduced + rsum[i] >= bar`` exactly
    when the unshifted sum reaches the unshifted bar, and they are the
    state that ``_search`` remembers.

    ``tests[i]`` lists ``(shift, mask, weights, rows)`` for each kept k
    whose demand from bid i on exceeds T_k; the others are not tested
    at depth i.  The bids from i on go by descending a / d_k, zero
    demands first.  ``rows[t]`` is ``(V_t, W_t, a_t, d_t)``, with V_t
    and W_t the amount and demand of the t bids ahead of bid t in that
    order, and ``weights[t]`` is W_t + d_t.  The lists end at the first
    bid past T_k, so ``t = bisect_right(weights, R_k)`` is always a row,
    and the bound is V_t + floor(a_t * (R_k - W_t) / d_t), in exact
    integers.
    """
    bids, amounts, guard, rooms, needs, sellers, *_ = setup
    scale, lam = multipliers
    n = len(bids)
    caps = [instance.seller_caps[s].units for s in sellers]
    demands = [bid.demand.units for bid in bids]
    kept = []
    for k in range(instance.dimension):
        total = sum(cap[k] for cap in caps)
        ahead = _tail_sums([d[k] for d in demands])
        if ahead[0] > total:
            kept.append((k, total, ahead))
    seat = guard.bit_length()
    seats = [j * seat for j in range(len(sellers))]
    below = seat * len(sellers)
    width = max((total for _k, total, _ahead in kept), default=0).bit_length()
    mask = (1 << width) - 1
    low = below + width * len(kept)
    shifts = [below + f * width for f in range(len(kept))]
    start = sum(map(lshift, rooms, seats))
    start += sum(total << shift for (_k, total, _ahead), shift in zip(kept, shifts))

    base = sum(w * c for row, cap in zip(lam, caps) for w, c in zip(row, cap))
    rows = [[a * scale - sum(map(mul, row, d)) for row in lam] for a, d in zip(amounts, demands)]
    tops = [max(row, default=0) for row in rows]
    margins = [
        (top << low) - sum(demand[k] << shift for (k, _t, _a), shift in zip(kept, shifts))
        for top, demand in zip(tops, demands)
    ]
    rsum = [total << low for total in _tail_sums([t if t > 0 else 0 for t in tops])]
    slacks = [
        [(top - margin << low) + (need << at) for margin, at in zip(row, seats)]
        for top, row, need in zip(tops, rows, needs)
    ]

    tests = [[] for _ in range(n + 1)]
    for (k, total, ahead), shift in zip(kept, shifts):
        dense = [i for i in range(n) if demands[i][k]]
        weights = [demands[i][k] for i in dense]
        ranked = sorted(zip(_by_density([amounts[i] for i in dense], weights), dense, weights))
        order = [(amounts[i], 0, i) for i in range(n) if not demands[i][k]]
        order += [(amounts[i], d, i) for _key, i, d in ranked]
        for i in range(n):
            if ahead[i] <= total:
                break
            value = weight = 0
            weights, rows = [], []
            for amount, demand, t in order:
                if t >= i:
                    rows.append((value, weight, amount, demand))
                    value += amount
                    weight += demand
                    weights.append(weight)
                    if weight > total:
                        break
            tests[i].append((shift, mask, weights, rows))
    gcd = math.gcd(*amounts) or 1
    return base, scale, gcd, start, low, margins, rsum, slacks, tests


def _scale(instance: WdpInstance) -> tuple[int, list[int]]:
    """``(L, units)``: L is the lcm of the capacity totals T_k (a zero total
    counts as 1) and ``units[k] = L // T_k``, so ``d_k * units[k] = L * d_k / T_k``."""
    caps = instance.seller_caps.values()
    norms = [sum(cap.units[k] for cap in caps) or 1 for k in range(instance.dimension)]
    lcm = math.lcm(*norms)
    return lcm, [lcm // t for t in norms]


def _by_density(amounts: list[int], weights: list[int]) -> list[int]:
    """Sort keys, ascending, for descending ``amounts[i] / weights[i]``.

    Every weight is positive.  The key is -floor(amount * S / weight)
    with S the largest weight squared: two different ratios differ by at
    least 1 / S, so their keys differ in the same direction, and equal
    ratios get equal keys.  Callers sort ``(key, tie, ...)`` tuples with
    a unique tie, so equal ratios go to the lower tie.
    """
    scale = max(weights, default=0) ** 2
    return [-(a * scale // w) for a, w in zip(amounts, weights)]


def _ranked(instance: WdpInstance, lcm: int, units: list[int]) -> list:
    """``(key, buyer_id, weight, bid, need)`` for each positive bid, in greedy's rank order.

    ``need[k] = d_k * units[k]`` and ``weight = L + sum(need)``, L times
    the bid's normalized weight; ``key`` is ``_by_density``'s key of
    amount / weight.  The rows are plain tuples sorted as they stand:
    by descending amount / weight, ties to the lower buyer id, which is
    unique, so no comparison reaches ``weight``.  With no dimensions
    ``need`` is ``[0]``, so ``min`` over it never sees an empty list.
    """
    bids = [bid for bid in instance.bids if bid.amount > 0]
    needs = [list(map(mul, bid.demand.units, units)) or [0] for bid in bids]
    weights = [lcm + sum(need) for need in needs]
    keys = _by_density([bid.amount for bid in bids], weights)
    rows = list(zip(keys, [bid.buyer_id for bid in bids], weights, bids, needs))
    rows.sort()
    return rows


def _greedy_placements(instance: WdpInstance, lcm: int, units: list[int]):
    """Yield ``(bid, weight, seller_id, room)`` for each bid greedy places, in rank order.

    This is ``solve_greedy``'s rule with every quantity multiplied by L:
    ``weight = L + sum_k d_k * units[k]``, and ``room`` is the seller's
    residual after the placement, scaled by ``units``.  A seller fits
    when its least slack ``(room_k - d_k) * units[k]`` is >= 0.  With no
    dimensions every room and need is ``[0]``, so every slack is 0 and
    every seller fits.
    """
    rooms = [
        (s, list(map(mul, instance.seller_caps[s].units, units)) or [0])
        for s in sorted(instance.seller_caps)
    ]
    for _key, _buyer_id, weight, bid, need in _ranked(instance, lcm, units):
        best = best_room = None
        best_slack = -1
        for s, room in rooms:
            slack = min(map(sub, room, need))
            if slack > best_slack:
                best, best_room, best_slack = s, room, slack
        if best is None:
            continue
        best_room[:] = map(sub, best_room, need)
        yield bid, weight, best, best_room


def solve_greedy(instance: WdpInstance) -> WdpSolution:
    """Density-ordered heuristic; feasible but not necessarily optimal.

    Bids are ranked by amount / (1 + sum of demand components, each
    normalized by the total capacity across sellers in that dimension),
    the standard density rule for multidimensional knapsacks.  Each bid
    is placed with the feasible seller keeping the most normalized
    slack (max of the minimum normalized residual).  Ties fall to the
    lower buyer id, then the lower seller id.  Scaling every normalized
    quantity by the lcm of the capacity totals makes it an integer:
    ``_ranked`` orders the densities by an exact integer key computed
    once per bid (``_by_density``), and ``_greedy_placements`` compares
    slacks in those units.
    """
    lcm, units = _scale(instance)
    pairs: list[tuple[int, int]] = []
    objective = 0
    for bid, _weight, seller, _room in _greedy_placements(instance, lcm, units):
        pairs.append((bid.buyer_id, seller))
        objective += bid.amount
    return WdpSolution(Assignment(tuple(pairs)), objective, False)


def greedy_threshold(others: WdpInstance, own: Bid) -> int:
    """Least amount (at least 1) at which greedy still places ``own`` among ``others``.

    ``own`` is a greedy winner, so it fits some seller of the empty
    round.  The bids ranked ahead of it are placed the same way whether
    or not it takes part, so it is placed exactly when some seller
    still fits its demand at its rank (Lehmann, O'Callaghan & Shoham
    2002).  Let j be the first bid placed without it after which no
    seller fits that demand.  At amount x, ``own`` ranks ahead of j when
    x * w_j > a_j * w_own, or when they are equal and its buyer id is
    lower: it pays ceil(a_j * w_own / w_j) with the lower id and
    floor(a_j * w_own / w_j) + 1 with the higher.  Without such a j any
    positive amount wins, so it pays 1.
    """
    lcm, units = _scale(others)
    need = list(map(mul, own.demand.units, units)) or [0]
    weight = lcm + sum(need)
    fitting = {s for s, cap in others.seller_caps.items() if own.demand.fits_within(cap)}
    for bid, bid_weight, seller, room in _greedy_placements(others, lcm, units):
        if seller in fitting and min(map(sub, room, need)) < 0:
            fitting.discard(seller)
            if not fitting:
                bar, rest = divmod(bid.amount * weight, bid_weight)
                return bar + (rest > 0) if own.buyer_id < bid.buyer_id else bar + 1
    return 1
