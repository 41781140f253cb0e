"""Acceptance gate: one test per release criterion.

Each test prints one ``ACCEPTANCE <n> PASS/FAIL`` line (visible with
``pytest -s`` or in captured output).  Criterion 7 is asserted exactly
as specified and currently fails; the measured numbers are printed and
the blocking analysis lives in the project notes outside the package.
"""

import time
from dataclasses import replace
from importlib import resources

from mdcauction import (
    MechanismConfig,
    MechanismSpec,
    compare,
    evaluate,
    generate_scenario,
    replay,
    run_mafl,
    run_repeated_srmra,
    solve_exact,
    solve_greedy,
)
from mdcauction.cli import main
from mdcauction.io import load_json, parse_params_file
from mdcauction.rng import SplitMix64

from helpers import (
    TABLE1_BIDS,
    TABLE2_BIDS,
    TABLE_BUDGETS,
    TABLE_ITEMS,
    recheck_run_invariants,
)
from test_wdp import make_instance
from wdp_oracle import brute_force_best, random_unit_instance

TABLE1_WINNERS = [[1, 2], [1, 2], [0], [0], [0], [0]]
TABLE2_WINNERS = [[1, 2], [0, 1], [0, 2], [0, 1], [0, 2], [0, 1]]


def _report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def default_profile():
    doc = load_json(resources.files("mdcauction").joinpath("data/profiles/default.json"))
    params, mechanism = parse_params_file(doc)
    return params, mechanism


def test_criterion_1_table1_replay_exact():
    start = time.perf_counter()
    result = replay(TABLE1_BIDS, TABLE_BUDGETS, TABLE_ITEMS)
    elapsed = time.perf_counter() - start
    utilities = [o.utility for o in result.rounds]
    winners = [sorted(o.winners.buyers()) for o in result.rounds]
    ok = (
        utilities == [9000, 10000, 3000, 2000, 1000, 1000]
        and result.total_utility == 26000
        and winners == TABLE1_WINNERS
        and elapsed < 1.0
    )
    assert _report(1, ok, f"table1 utilities {utilities}, total 26, {elapsed * 1000:.1f} ms")


def test_criterion_2_table2_replay_and_improvement():
    result = replay(TABLE2_BIDS, TABLE_BUDGETS, TABLE_ITEMS)
    base = replay(TABLE1_BIDS, TABLE_BUDGETS, TABLE_ITEMS)
    utilities = [o.utility for o in result.rounds]
    winners = [sorted(o.winners.buyers()) for o in result.rounds]
    improvement = (result.total_utility - base.total_utility) / base.total_utility * 100
    ok = (
        utilities == [9000, 7000, 7000, 5000, 4000, 2000]
        and result.total_utility == 34000
        and winners == TABLE2_WINNERS
        and round(improvement, 2) == 30.77
        and abs(improvement - 30.7) <= 0.1
    )
    assert _report(2, ok, f"table2 total 34, improvement {improvement:.2f}%")


def test_criterion_3_exact_solver_matches_enumeration():
    start = time.perf_counter()
    mismatches = 0
    for seed in range(1000):
        amounts, demands, caps = random_unit_instance(seed)
        expected = brute_force_best(amounts, demands, caps) * 1000
        if solve_exact(make_instance(amounts, demands, caps)).objective != expected:
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 60.0
    assert _report(3, ok, f"1000 instances, {mismatches} mismatches, {elapsed:.1f} s")


def test_criterion_4_greedy_never_beats_exact():
    violations = 0
    ratios = []
    for seed in range(1000):
        amounts, demands, caps = random_unit_instance(seed)
        instance = make_instance(amounts, demands, caps)
        exact = solve_exact(instance).objective
        greedy = solve_greedy(instance).objective
        if greedy > exact:
            violations += 1
        ratios.append(greedy / exact if exact else 1.0)
    mean_ratio = sum(ratios) / len(ratios)
    ok = violations == 0
    assert _report(4, ok, f"0 dominance violations, mean greedy/exact ratio {mean_ratio:.4f}")


def test_criterion_5_invariants_over_default_ensemble():
    params, _ = default_profile()
    rng = SplitMix64(params.seed)
    seeds = [rng.next_u64() for _ in range(100)]
    violations = 0
    for seed in seeds:
        workload = generate_scenario(replace(params, seed=seed))
        for mechanism in ("mafl", "repeated_srmra", "double_auction"):
            evaluation = evaluate(workload, mechanism)
            result = evaluation.result
            try:
                recheck_run_invariants(
                    workload, result, first_price=mechanism != "double_auction"
                )
            except AssertionError:
                violations += 1
                continue
            if any(v < 0 for v in result.ledger.remaining_budget.values()):
                violations += 1
            if mechanism != "double_auction" and result.total_revenue != result.total_utility:
                violations += 1
    ok = violations == 0
    assert _report(5, ok, f"100-seed ensemble x 3 mechanisms, {violations} violations")


def test_criterion_6_gamma_zero_equivalence():
    params, _ = default_profile()
    rng = SplitMix64(params.seed)
    mismatched = 0
    for _ in range(100):
        seed = rng.next_u64()
        workload = generate_scenario(replace(params, seed=seed))
        mafl = run_mafl(workload, MechanismConfig(gamma=0.0))
        srmra = run_repeated_srmra(workload)
        if mafl.rounds != srmra.rounds:
            mismatched += 1
    ok = mismatched == 0
    assert _report(6, ok, f"gamma=0 equivalence on 100 seeds, {mismatched} mismatches")


def test_criterion_7_directional_long_term_benefit():
    params, _ = default_profile()
    specs = [
        MechanismSpec("mafl", config=MechanismConfig(gamma=1.0)),
        MechanismSpec("repeated_srmra"),
    ]
    report = compare(params, specs, n_seeds=100)
    by_seed: dict[int, dict[str, int]] = {}
    for record in report.records:
        by_seed.setdefault(record.seed, {})[record.mechanism] = record.revenue
    at_least = sum(1 for v in by_seed.values() if v["mafl"] >= v["repeated_srmra"])
    pair = next(
        p for p in report.pairwise
        if p.mechanism_a == "mafl" and p.mechanism_b == "repeated_srmra"
    )
    ok = at_least >= 90
    detail = (
        f"mafl revenue >= repeated_srmra on {at_least}/100 seeds (required 90); "
        f"measured improvement {pair.improvement_pct:+.2f}% "
        f"ci95=[{pair.ci_low:+.2f}%, {pair.ci_high:+.2f}%], win_rate {pair.win_rate:.2f}"
    )
    _report(7, ok, detail)
    assert ok, (
        f"directional benefit not met: {detail}. Measured on these seeds (README): "
        f"the baseline spends 92.9% of all budgets and MAFL 80.4%; revenue never "
        f"exceeds the budgets, so under first-price pricing MAFL's gain has a "
        f"ceiling of +7.7%, the baseline's unspent budget over its revenue."
    )


def test_criterion_8_byte_identical_reruns(tmp_path):
    import json

    params_file = tmp_path / "params.json"
    params_file.write_text(json.dumps({"n_buyers": 4, "m_sellers": 1, "horizon": 5, "seed": 3}))
    scenario_file = tmp_path / "scenario.json"
    scenario_file.write_text(json.dumps({"generator": {"n_buyers": 4, "m_sellers": 1, "horizon": 5, "seed": 3}}))

    commands = {
        "replay": ["replay", "table1", "--out", None, "--no-header"],
        "run": ["run", str(scenario_file), "--mechanism", "mafl", "--out", None, "--no-header"],
        "compare": ["compare", str(params_file), "--seeds", "5", "--out", None, "--no-header"],
    }
    identical = True
    for name, template in commands.items():
        outputs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}_{attempt}"
            argv = [out.name if item is None else item for item in template]
            argv[argv.index(out.name)] = str(out)
            assert main(argv) == 0
            outputs.append(out.read_bytes())
        identical &= outputs[0] == outputs[1]

    gen_outputs = []
    for attempt in ("a", "b"):
        out = tmp_path / f"gen_{attempt}.json"
        assert main(["gen", str(params_file), "--out", str(out)]) == 0
        gen_outputs.append(out.read_bytes())
    identical &= gen_outputs[0] == gen_outputs[1]

    # with the timestamp header on, everything but the generated_at line matches
    with_header = []
    for attempt in ("a", "b"):
        out = tmp_path / f"hdr_{attempt}.csv"
        assert main(["run", str(scenario_file), "--mechanism", "mafl", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        with_header.append([l for l in lines if not l.startswith("# generated_at=")])
    identical &= with_header[0] == with_header[1]

    assert _report(8, identical, "replay/run/compare/gen reruns byte-identical")
