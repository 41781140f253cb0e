import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from mdcauction import (
    Bid,
    Buyer,
    InvariantViolation,
    MechanismConfig,
    ResourceVector,
    Scenario,
    SearchBudgetExceeded,
    Seller,
    ValidationError,
    mechanisms,
)
from mdcauction.cli import main
from mdcauction.io import (
    detect_kind,
    dump_json,
    parse_fixture,
    parse_params_file,
    parse_scenario,
    scenario_to_doc,
)
from mdcauction.rng import SplitMix64

TABLE1_SCENARIO = {
    "dimensions": 1,
    "horizon": 6,
    "buyers": [
        {"id": 0, "budget": 15},
        {"id": 1, "budget": 9},
        {"id": 2, "budget": 10},
    ],
    "sellers": [{"id": 0, "round_capacity": [2]}],
    "bids": [
        [{"amount": a, "demand": [1]} for a in row]
        for row in [[3, 4, 3, 2, 1, 1], [4, 5, 0, 0, 0, 0], [5, 5, 0, 0, 0, 0]]
    ],
    "mechanism": {"gamma": 1, "solver": "exact"},
}

SMALL_PARAMS = {
    "n_buyers": 4,
    "m_sellers": 1,
    "horizon": 5,
    "seed": 11,
}


# Amounts and quantities at 0.001 resolution, in milli-units.
_MILLI = st.integers(0, 10**9)


@st.composite
def explicit_scenarios(draw):
    """An explicit scenario whose seller ids are distinct but not their positions,
    each with or without a period capacity and an ask."""
    dims = draw(st.integers(1, 3))
    vector = st.lists(_MILLI, min_size=dims, max_size=dims).map(lambda u: ResourceVector(tuple(u)))
    seller_ids = draw(st.lists(st.integers(0, 20), max_size=3, unique=True))
    sellers = tuple(
        Seller(j, draw(vector), draw(st.none() | vector), draw(st.none() | _MILLI))
        for j in seller_ids
    )
    horizon = draw(st.integers(0, 3))
    budgets = draw(st.lists(_MILLI, max_size=3))
    return Scenario(
        buyers=tuple(Buyer(i, b) for i, b in enumerate(budgets)),
        sellers=sellers,
        horizon=horizon,
        dimensions=dims,
        bid_matrix=tuple(
            tuple(Bid(i, draw(_MILLI), draw(vector)) for _ in range(horizon))
            for i in range(len(budgets))
        ),
    )


_MECHANISMS = st.builds(
    MechanismConfig,
    gamma=st.sampled_from([0.0, 0.5, 1.0, 2.5, 1000.0]),
    scope=st.sampled_from(["winners_only", "all_buyers"]),
    pricing=st.sampled_from(["first_price", "critical_value"]),
    solver=st.sampled_from(["exact", "greedy"]),
)


@pytest.fixture
def table1_path(tmp_path):
    path = tmp_path / "table1_scenario.json"
    path.write_text(json.dumps(TABLE1_SCENARIO))
    return path


@pytest.fixture
def params_path(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(SMALL_PARAMS))
    return path


class TestSchemas:
    def test_scenario_round_trip(self):
        scenario, mechanism = parse_scenario(json.loads(json.dumps(TABLE1_SCENARIO)))
        doc = scenario_to_doc(scenario, mechanism)
        assert parse_scenario(json.loads(dump_json(doc))) == (scenario, mechanism)

    @settings(max_examples=200, deadline=None)
    @given(scenario=explicit_scenarios(), mechanism=_MECHANISMS)
    def test_written_scenario_reads_back_equal(self, scenario, mechanism):
        text = dump_json(scenario_to_doc(scenario, mechanism))
        assert parse_scenario(json.loads(text)) == (scenario, mechanism)

    def test_unknown_field_named(self):
        doc = dict(TABLE1_SCENARIO, surprise=1)
        with pytest.raises(ValidationError, match="surprise"):
            parse_scenario(doc)

    def test_generator_excludes_explicit_population(self):
        doc = {"generator": dict(SMALL_PARAMS), "buyers": []}
        with pytest.raises(ValidationError, match="buyers"):
            parse_scenario(doc)

    def test_scenario_requires_bids_or_generator(self):
        with pytest.raises(ValidationError, match="bids"):
            parse_scenario({"buyers": [], "sellers": [], "horizon": 1})

    def test_sub_milli_amount_rejected_with_field(self):
        doc = json.loads(json.dumps(TABLE1_SCENARIO))
        doc["bids"][0][0]["amount"] = 1.0001
        with pytest.raises(ValidationError, match=r"bids\[0\]\[0\].amount"):
            parse_scenario(doc)

    def test_fixture_parse(self):
        bids, budgets, items = parse_fixture(
            {"budgets": [15, 9, 10], "bids": [[1], [2], [3]], "items_per_round": 2}
        )
        assert items == 2

    def test_period_capacity_reads_back_equal(self):
        doc = json.loads(json.dumps(TABLE1_SCENARIO))
        doc["sellers"][0]["period_capacity"] = [7.5]
        scenario, mechanism = parse_scenario(doc)
        assert list(scenario.sellers[0].period_capacity) == [7500]
        reread = json.loads(dump_json(scenario_to_doc(scenario, mechanism)))
        assert reread["sellers"][0]["period_capacity"] == [7.5]
        assert parse_scenario(reread) == (scenario, mechanism)

    def test_null_optional_seller_fields_read_as_absent(self):
        doc = json.loads(json.dumps(TABLE1_SCENARIO))
        doc["sellers"][0].update(period_capacity=None, ask=None)
        assert parse_scenario(doc) == parse_scenario(TABLE1_SCENARIO)

    def test_extra_bid_rows_named_once(self):
        doc = json.loads(json.dumps(TABLE1_SCENARIO))
        doc["bids"].append(doc["bids"][0])
        with pytest.raises(ValidationError, match=r"^bids: expected 3 rows, got 4$"):
            parse_scenario(doc)

    def test_generator_block_parses_like_a_params_file(self):
        mechanism = {"solver": "greedy", "gamma": 0.5}
        flat = parse_params_file(dict(SMALL_PARAMS, mechanism=mechanism))
        assert parse_scenario({"generator": SMALL_PARAMS, "mechanism": mechanism}) == flat
        assert parse_scenario({"generator": SMALL_PARAMS}) == parse_params_file(SMALL_PARAMS)

    def test_generator_errors_keep_the_block_prefix(self):
        with pytest.raises(ValidationError, match=r"^generator\.horizon: required"):
            parse_scenario({"generator": {"n_buyers": 2, "m_sellers": 1}})

    def test_missing_mechanism_block_parses_to_the_default_config(self):
        assert parse_params_file(SMALL_PARAMS)[1] == MechanismConfig()
        assert parse_scenario(dict(TABLE1_SCENARIO, mechanism={}))[1] == MechanismConfig()

    def test_params_with_mechanism_block(self):
        params, mechanism = parse_params_file(
            dict(SMALL_PARAMS, mechanism={"solver": "greedy"})
        )
        assert params.n_buyers == 4
        assert mechanism.solver == "greedy"

    def test_tie_rule_is_accepted_only_as_lowest_index(self):
        doc = json.loads(json.dumps(TABLE1_SCENARIO))
        doc["mechanism"]["tie_rule"] = "lowest_index"
        assert parse_scenario(doc) == parse_scenario(TABLE1_SCENARIO)
        doc["mechanism"]["tie_rule"] = "random"
        with pytest.raises(ValidationError, match=r"mechanism\.tie_rule"):
            parse_scenario(doc)

    def test_kind_detection(self):
        assert detect_kind({"budgets": []}) == "fixture"
        assert detect_kind(SMALL_PARAMS) == "params"
        assert detect_kind({"m_sellers": 1, "horizon": 2}) == "params"
        assert detect_kind({"horizon": 2, "dimensions": 1}) == "scenario"
        assert detect_kind(TABLE1_SCENARIO) == "scenario"


class TestReplayCommand:
    def test_bundled_table1(self, capsys):
        assert main(["replay", "table1"]) == 0
        out = capsys.readouterr().out
        assert "total=26.000" in out
        assert "l=1 winners=1,2 utility=9.000" in out

    def test_bundled_table2_with_baseline(self, capsys):
        assert main(["replay", "table2", "--baseline", "table1"]) == 0
        out = capsys.readouterr().out
        assert "total=34.000" in out
        assert "improvement=+30.77%" in out

    def test_expectation_pass_and_fail(self, capsys):
        assert main(["replay", "table1", "--expect", "total=26"]) == 0
        assert main(["replay", "table1", "--expect", "total=27"]) == 1

    def test_malformed_fixture_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"budgets": [1], "bids": [[1]], "items_per_round": "x"}')
        assert main(["replay", str(bad)]) == 2
        assert "items_per_round" in capsys.readouterr().err

    def test_missing_fixture_exits_2(self, capsys):
        assert main(["replay", "nope"]) == 2


class TestRunCommand:
    def test_table1_scenario_repeated_srmra(self, table1_path, capsys):
        assert main(["run", str(table1_path), "--mechanism", "repeated_srmra"]) == 0
        out = capsys.readouterr().out
        assert "total utility=26.000 revenue=26.000" in out
        assert "exhaustion_rounds: 0=never 1=2 2=2" in out

    def test_output_bytes_are_reproducible(self, table1_path, tmp_path, capsys):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            assert main([
                "run", str(table1_path), "--mechanism", "repeated_srmra",
                "--out", str(out), "--no-header",
            ]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        text = out1.read_text()
        assert "generated_at" not in text
        assert "total,26.000,26.000," in text.splitlines()
        assert "# exhaustion_rounds=0=never;1=2;2=2" in text.splitlines()

    def test_seed_echoed_in_header(self, params_path, tmp_path, capsys):
        scenario = tmp_path / "gen_scenario.json"
        scenario.write_text(json.dumps({"generator": SMALL_PARAMS}))
        out = tmp_path / "run.csv"
        assert main([
            "run", str(scenario), "--mechanism", "mafl", "--seed", "7",
            "--out", str(out), "--no-header",
        ]) == 0
        assert "seed=7" in out.read_text().splitlines()[0]

    def test_zero_round_scenario_is_an_empty_run(self, tmp_path, capsys):
        doc = json.loads(json.dumps(TABLE1_SCENARIO))
        doc["horizon"] = 0
        doc["bids"] = [[], [], []]
        path, out = tmp_path / "empty.json", tmp_path / "empty.csv"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--out", str(out), "--no-header"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2:] == [
            "total utility=0.000 revenue=0.000",
            "allocation_ratio=0.0000",
            "exhaustion_rounds: 0=never 1=never 2=never",
        ]
        assert out.read_text().splitlines()[1:3] == [
            "round,utility,revenue,winners",
            "total,0.000,0.000,",
        ]

    def test_the_meta_line_names_the_scope(self, tmp_path, capsys):
        doc = json.loads(json.dumps(TABLE1_SCENARIO))
        doc["mechanism"]["scope"] = "all_buyers"
        path, out = tmp_path / "scoped.json", tmp_path / "scoped.csv"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--out", str(out), "--no-header"]) == 0
        assert out.read_text().splitlines()[0] == (
            f"# mdcauction run scenario={path} mechanism=mafl solver=exact"
            " pricing=first_price gamma=1 scope=all_buyers seed=- rng=-"
        )

    def test_seed_on_explicit_scenario_exits_2(self, table1_path, capsys):
        assert main(["run", str(table1_path), "--seed", "7"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_gamma_zero_flag_matches_repeated(self, tmp_path, capsys):
        scenario = tmp_path / "gen_scenario.json"
        scenario.write_text(json.dumps({"generator": SMALL_PARAMS}))
        assert main(["run", str(scenario), "--mechanism", "mafl", "--gamma", "0"]) == 0
        mafl_out = capsys.readouterr().out.splitlines()
        assert main(["run", str(scenario), "--mechanism", "repeated_srmra"]) == 0
        srmra_out = capsys.readouterr().out.splitlines()
        # identical per-round lines; only the mechanism banner differs
        assert mafl_out[2:] == srmra_out[2:]

    @pytest.mark.parametrize(
        "flag, shown", [("1", "1"), ("1.0000001", "1.0000001"), ("0.5", "0.5"), ("2", "2")]
    )
    def test_gamma_prints_as_it_reads_back(self, tmp_path, capsys, flag, shown):
        # Formatting with ``:g`` kept six significant digits: 1.0000001 printed as 1.
        scenario = tmp_path / "gen_scenario.json"
        scenario.write_text(json.dumps({"generator": SMALL_PARAMS}))
        out = tmp_path / "run.csv"
        assert main(["run", str(scenario), "--gamma", flag, "--out", str(out)]) == 0
        assert f" gamma={shown}, " in capsys.readouterr().out.splitlines()[1]
        assert f" gamma={shown} " in out.read_text().splitlines()[0]

    def test_schema_violation_names_field(self, tmp_path, capsys):
        bad = tmp_path / "bad_scenario.json"
        doc = json.loads(json.dumps(TABLE1_SCENARIO))
        doc["buyers"][1]["budget"] = -3
        bad.write_text(json.dumps(doc))
        assert main(["run", str(bad)]) == 2
        assert "budget" in capsys.readouterr().err

    def test_huge_gamma_exits_2_promptly(self, tmp_path):
        # A budget one unit down at gamma 6.9e8 once built the exact
        # integer power; the memory cap makes that fail instead of
        # exhausting the machine.
        scenario = tmp_path / "huge_gamma.json"
        scenario.write_text(json.dumps({"generator": {
            "n_buyers": 1, "m_sellers": 1, "horizon": 2, "dimensions": 1,
            "budget_range": [100000000, 100000000], "bid_range": [1, 1],
        }}))
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from mdcauction.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", code, "run", str(scenario), "--gamma", "690000000"],
            capture_output=True, text=True, timeout=20, env=env,
        )
        assert done.returncode == 2, done.stderr
        assert "mechanism.gamma" in done.stderr

    def test_round_past_the_exact_buyer_cap_exits_2(self, tmp_path):
        # The exact searches recurse up to once per buyer; 1100 bidders once ran
        # past Python's recursion limit and printed a traceback.
        params = tmp_path / "crowd.json"
        params.write_text(json.dumps({
            "n_buyers": 1100, "m_sellers": 1, "horizon": 1, "dimensions": 1,
            "capacity_range": [1, 1], "demand_range": [1, 1],
        }))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-m", "mdcauction", "compare", str(params), "--seeds", "1",
             "--mechanisms", "repeated_srmra", "--no-header"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("error: bids: 1100 bids exceed")
        assert done.stderr.count("\n") == 1

    def test_params_file_exits_2_naming_the_kind(self):
        # `validate` accepts the bundled profile as params; `run` once named
        # `scenario.n_buyers` as an unknown field instead.
        profile = "src/mdcauction/data/profiles/default.json"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        done = subprocess.run(
            [sys.executable, "-m", "mdcauction", "run", profile],
            capture_output=True, text=True, timeout=60, env=env, cwd=root,
        )
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith(f"error: {profile}: is a params file;")
        assert "scenario file or a `generator` block" in done.stderr
        assert done.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "error, words",
        [
            (SearchBudgetExceeded(7, None), "search budget exceeded (7 nodes)"),
            (InvariantViolation("ledger overdraft"), "ledger overdraft"),
        ],
    )
    def test_aborted_run_exits_3_with_one_line(self, table1_path, monkeypatch, capsys, error, words):
        def fail(instance):
            raise error

        monkeypatch.setattr(mechanisms, "solve_exact", fail)
        assert main(["run", str(table1_path)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: run aborted: ")
        assert words in captured.err
        assert captured.err.count("\n") == 1


class TestCompareCommand:
    def test_summary_and_csv(self, params_path, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        assert main([
            "compare", str(params_path), "--seeds", "5",
            "--out", str(out), "--no-header",
        ]) == 0
        summary = capsys.readouterr().out
        assert "mafl vs repeated_srmra" in summary
        assert "win_rate=" in summary
        lines = out.read_text().splitlines()
        assert lines[1] == (
            "seed,mechanism,revenue,utility,allocation_ratio,"
            "exhausted_buyers,mean_exhaustion_round"
        )
        assert len(lines) == 2 + 5 * 2

    def test_seed_count_past_the_cap_exits_2_before_any_draw(
        self, params_path, monkeypatch, capsys
    ):
        def no_draws(rng, count):
            raise AssertionError(f"drew {count} outputs")

        monkeypatch.setattr(SplitMix64, "next_u64s", no_draws)
        assert main(["compare", str(params_path), "--seeds", "100001"]) == 2
        assert capsys.readouterr().err == "error: n_seeds: must be <= 100000\n"

    def test_empty_mechanism_list_exits_2_with_one_line(self, capsys):
        assert main(["compare", "default", "--mechanisms", ","]) == 2
        assert capsys.readouterr().err == "error: mechanisms: at least one mechanism is required\n"

    def test_unknown_mechanism_exits_2(self, params_path, capsys):
        assert main([
            "compare", str(params_path), "--seeds", "2", "--mechanisms", "mafl,vcg",
        ]) == 2

    @pytest.mark.parametrize("gamma", ["0.5", "1"])
    def test_the_meta_line_and_the_summary_name_the_settings(self, tmp_path, capsys, gamma):
        out = tmp_path / "cmp.csv"
        assert main([
            "compare", "default", "--seeds", "2", "--solver", "greedy", "--gamma", gamma,
            "--out", str(out), "--no-header",
        ]) == 0
        named = f" solver=greedy pricing=first_price gamma={gamma} scope=winners_only"
        assert capsys.readouterr().out.splitlines()[0].endswith(f"bootstrap_resamples=1000{named}")
        assert out.read_text().splitlines()[0].endswith(f"rng=splitmix64{named}")

    def test_a_seed_past_the_generator_range_is_named_as_the_seed_used(self, tmp_path, capsys):
        # The generator takes its seed modulo 2**64, so -1 is 2**64 - 1.
        printed = []
        for seed in ("-1", str(2**64 - 1)):
            out = tmp_path / f"{seed}.csv"
            assert main([
                "compare", "default", "--seeds", "2", "--seed", seed,
                "--out", str(out), "--no-header",
            ]) == 0
            printed.append((capsys.readouterr().out, out.read_text()))
        assert printed[0] == printed[1]
        assert f" base_seed={2**64 - 1} " in printed[0][0].splitlines()[0]
        assert f" base_seed={2**64 - 1} " in printed[0][1].splitlines()[0]

    def test_compare_reproducible(self, params_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main([
                "compare", str(params_path), "--seeds", "4",
                "--out", str(out), "--no-header",
            ]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gamma_zero_override_reports_zero_improvement(self, params_path, capsys):
        assert main([
            "compare", str(params_path), "--seeds", "4", "--gamma", "0",
        ]) == 0
        summary = capsys.readouterr().out
        assert "mafl vs repeated_srmra: improvement=+0.00%" in summary
        assert "ties=4" in summary

    def test_bundled_default_profile_resolves(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main([
            "compare", "default", "--seeds", "2", "--mechanisms", "repeated_srmra",
            "--out", str(out), "--no-header",
        ]) == 0


class TestGenCommand:
    def test_gen_pins_the_generator_block(self, params_path, tmp_path):
        out = tmp_path / "scenario.json"
        assert main(["gen", str(params_path), "--out", str(out), "--seed", "99"]) == 0
        doc = json.loads(out.read_text())
        assert doc["generator"]["seed"] == 99
        assert "bids" not in doc

    def test_pinned_block_reads_back_as_the_params(self, params_path, tmp_path):
        out = tmp_path / "scenario.json"
        assert main(["gen", str(params_path), "--out", str(out)]) == 0
        params, _ = parse_params_file(SMALL_PARAMS)
        assert parse_scenario(json.loads(out.read_text())) == (params, MechanismConfig())

    def test_gen_is_deterministic(self, params_path, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["gen", str(params_path), "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_materialized_gen_replays_verbatim(self, params_path, tmp_path, capsys):
        out = tmp_path / "materialized.json"
        assert main(["gen", str(params_path), "--out", str(out), "--materialize"]) == 0
        doc = json.loads(out.read_text())
        assert "bids" in doc and "generator" not in doc
        # explicit matrices replay verbatim under both mechanisms
        assert main(["run", str(out), "--mechanism", "mafl"]) == 0
        mafl_out = capsys.readouterr().out.splitlines()
        assert main(["run", str(out), "--mechanism", "repeated_srmra"]) == 0
        srmra_out = capsys.readouterr().out.splitlines()
        assert mafl_out[2:] == srmra_out[2:]


_MISSING = object()


def _changed(doc: dict, changes: dict) -> dict:
    """``doc`` with ``changes`` applied; a ``_MISSING`` value deletes the key."""
    out = dict(doc)
    for key, value in changes.items():
        if value is _MISSING:
            out.pop(key, None)
        else:
            out[key] = value
    return out


_RANGES = ("demand_range", "bid_range", "budget_range", "capacity_range", "ask_range",
           "period_capacity_range")

# One fault per input; the message is the exact `error:` text after any
# `generator.` prefix, or None where the input is accepted.
GENERATOR_FAULTS = [
    *(
        pytest.param({name: _MISSING}, f"{name}: required field is missing",
                     id=f"{name}-missing")
        for name in ("n_buyers", "m_sellers", "horizon")
    ),
    *(
        pytest.param({name: value}, f"{name}: expected an integer", id=f"{name}-{label}")
        for name in ("n_buyers", "m_sellers", "horizon", "seed", "dimensions")
        for label, value in (("string", "4"), ("fraction", 4.5), ("boolean", True),
                             ("null", None), ("array", [4]))
    ),
    pytest.param({"n_buyers": -1}, "n_buyers: must be >= 0", id="n_buyers-negative"),
    pytest.param({"m_sellers": -1}, "m_sellers: must be >= 0", id="m_sellers-negative"),
    pytest.param({"horizon": 0}, "horizon: must be >= 1", id="horizon-zero"),
    pytest.param({"dimensions": 0}, "dimensions: must be >= 1", id="dimensions-zero"),
    pytest.param({"horizon": 100_001}, "horizon: must be <= 100000", id="horizon-too-long"),
    pytest.param({"dimensions": 65}, "dimensions: must be <= 64", id="dimensions-too-many"),
    # 2**18 sellers at 3 dimensions take exactly MAX_DRAWS = 2**20 draws.
    pytest.param({"n_buyers": 0, "m_sellers": 2**18}, None, id="draws-at-the-cap"),
    pytest.param({"n_buyers": 0, "m_sellers": 2**18 + 1},
                 "draws: the workload takes 1048580; at most 1048576", id="draws-past-the-cap"),
    pytest.param({"seed": 2.0, "horizon": 3.0}, None, id="integral-fractions-accepted"),
    pytest.param({"surprise": 1}, "surprise: unknown field", id="unknown-field"),
    *(
        case
        for name in _RANGES
        for case in (
            pytest.param({name: [1, 2, 3]}, f"{name}: expected [low, high]",
                         id=f"{name}-three"),
            pytest.param({name: 5}, f"{name}: expected [low, high]", id=f"{name}-scalar"),
            pytest.param({name: {"low": 1}}, f"{name}: expected [low, high]",
                         id=f"{name}-object"),
            pytest.param({name: [5, 1]}, f"{name}: lower bound 5 exceeds upper bound 1",
                         id=f"{name}-reversed"),
            pytest.param({name: [-1, 2]}, f"{name}: bounds must be >= 0",
                         id=f"{name}-negative"),
            pytest.param({name: [1.5, 2]}, f"{name}[0]: expected an integer",
                         id=f"{name}-fraction"),
            pytest.param({name: [1, True]}, f"{name}[1]: expected an integer",
                         id=f"{name}-boolean"),
            pytest.param({name: ["1", 2]}, f"{name}[0]: expected an integer",
                         id=f"{name}-string"),
            pytest.param(
                {name: None},
                None if name == "period_capacity_range" else f"{name}: expected [low, high]",
                id=f"{name}-null",
            ),
            pytest.param({name: [2, 2]}, None, id=f"{name}-point"),
        )
    ),
]

MECHANISM_FAULTS = [
    *(
        pytest.param({"gamma": value}, "mechanism.gamma: expected a number", id=f"gamma-{label}")
        for label, value in (("string", "1"), ("boolean", True), ("null", None),
                             ("array", [1]))
    ),
    pytest.param({"gamma": -1}, "mechanism.gamma: must be in [0, 1000]", id="gamma-negative"),
    pytest.param({"gamma": 1000.5}, "mechanism.gamma: must be in [0, 1000]", id="gamma-high"),
    *(
        pytest.param({name: value}, f"mechanism.{name}: expected a string",
                     id=f"{name}-{label}")
        for name in ("scope", "pricing", "solver")
        for label, value in (("number", 1), ("null", None), ("boolean", False))
    ),
    pytest.param({"scope": "everyone"},
                 "mechanism.scope: must be one of ('winners_only', 'all_buyers')",
                 id="scope-unknown"),
    pytest.param({"pricing": "second_price"},
                 "mechanism.pricing: must be one of ('first_price', 'critical_value')",
                 id="pricing-unknown"),
    pytest.param({"solver": "milp"}, "mechanism.solver: must be one of ('exact', 'greedy')",
                 id="solver-unknown"),
    pytest.param({"tie_rule": "random"}, "mechanism.tie_rule: must be 'lowest_index'",
                 id="tie_rule-random"),
    pytest.param({"tie_rule": None}, "mechanism.tie_rule: must be 'lowest_index'",
                 id="tie_rule-null"),
    pytest.param({"surprise": 1}, "mechanism.surprise: unknown field", id="unknown-field"),
]


def _set(*path_and_value):
    """A change to a scenario doc: ``_set("sellers", 0, "id", 5)`` sets
    ``doc["sellers"][0]["id"] = 5``; a ``_MISSING`` value deletes the key."""
    *path, key, value = path_and_value

    def change(doc):
        holder = doc
        for step in path:
            holder = holder[step]
        if value is _MISSING:
            del holder[key]
        else:
            holder[key] = value

    return change


def _second_seller(entry):
    return lambda doc: doc["sellers"].append(entry)


# One fault per change to TABLE1_SCENARIO (3 buyers, 1 seller, 6 rounds, 1
# dimension); the message is the exact `error:` text, or None where the file
# is accepted.  A record in a file is named by its position there.
SCENARIO_FAULTS = [
    pytest.param(_set("buyers", {}), "buyers: expected an array", id="buyers-object"),
    pytest.param(_set("sellers", 2), "sellers: expected an array", id="sellers-number"),
    pytest.param(_set("bids", "x"), "bids: expected an array of per-buyer rows",
                 id="bids-string"),
    pytest.param(_set("sellers", 0, 5), "sellers[0]: expected an object", id="seller-number"),
    pytest.param(_set("buyers", 1, [1]), "buyers[1]: expected an object", id="buyer-array"),
    pytest.param(_set("bids", 1, 2, 3), "bids[1][2]: expected an object", id="bid-number"),
    pytest.param(_set("bids", 2, {}), "bids[2]: expected an array of per-round bids",
                 id="bid-row-object"),
    # unknown keys, a bid's buyer_id too: a bid's buyer is its row
    pytest.param(_set("sellers", 0, "surprise", 1), "sellers[0].surprise: unknown field",
                 id="seller-unknown"),
    pytest.param(_set("buyers", 1, "surprise", 1), "buyers[1].surprise: unknown field",
                 id="buyer-unknown"),
    pytest.param(_set("bids", 0, 1, "surprise", 1), "bids[0][1].surprise: unknown field",
                 id="bid-unknown"),
    pytest.param(_set("bids", 0, 1, "buyer_id", 0), "bids[0][1].buyer_id: unknown field",
                 id="bid-buyer_id"),
    # missing required keys
    *(
        pytest.param(_set(*where, key, _MISSING), f"{name}.{key}: required field is missing",
                     id=f"{label}-{key}-missing")
        for label, where, name, keys in (
            ("seller", ("sellers", 0), "sellers[0]", ("id", "round_capacity")),
            ("buyer", ("buyers", 2), "buyers[2]", ("id", "budget")),
            ("bid", ("bids", 1, 3), "bids[1][3]", ("amount", "demand")),
        )
        for key in keys
    ),
    # wrong types, one reader each: an integer id, a quantity array, money
    pytest.param(_set("sellers", 0, "id", "0"), "sellers[0].id: expected an integer",
                 id="seller-id-string"),
    pytest.param(_set("buyers", 1, "id", 1.5), "buyers[1].id: expected an integer",
                 id="buyer-id-fraction"),
    pytest.param(_set("buyers", 1, "id", None), "buyers[1].id: expected an integer",
                 id="buyer-id-null"),
    pytest.param(_set("sellers", 0, "round_capacity", 2),
                 "sellers[0].round_capacity: expected an array of quantities",
                 id="seller-round_capacity-number"),
    pytest.param(_set("sellers", 0, "round_capacity", None),
                 "sellers[0].round_capacity: expected an array of quantities",
                 id="seller-round_capacity-null"),
    pytest.param(_set("sellers", 0, "period_capacity", {"cpu": 1}),
                 "sellers[0].period_capacity: expected an array of quantities",
                 id="seller-period_capacity-object"),
    pytest.param(_set("sellers", 0, "period_capacity", [True]),
                 "sellers[0].period_capacity[0]: expected a number, got a boolean",
                 id="seller-period_capacity-boolean"),
    pytest.param(_set("sellers", 0, "ask", [3]), "sellers[0].ask: expected a number, got list",
                 id="seller-ask-array"),
    pytest.param(_set("sellers", 0, "ask", -1), "sellers[0].ask: must be >= 0",
                 id="seller-ask-negative"),
    pytest.param(_set("buyers", 0, "budget", True),
                 "buyers[0].budget: expected a number, got a boolean", id="buyer-budget-boolean"),
    pytest.param(_set("buyers", 0, "budget", None),
                 "buyers[0].budget: expected a number, got NoneType", id="buyer-budget-null"),
    pytest.param(_set("buyers", 0, "budget", -1), "buyers[0].budget: must be >= 0",
                 id="buyer-budget-negative"),
    pytest.param(_set("bids", 2, 0, "amount", {}),
                 "bids[2][0].amount: expected a number, got dict", id="bid-amount-object"),
    pytest.param(_set("bids", 2, 0, "amount", 0.0001),
                 "bids[2][0].amount: resolution finer than 0.001 is not representable",
                 id="bid-amount-fine"),
    pytest.param(_set("bids", 2, 0, "demand", 1),
                 "bids[2][0].demand: expected an array of quantities", id="bid-demand-number"),
    pytest.param(_set("bids", 2, 0, "demand", [-1]), "bids[2][0].demand[0]: must be >= 0",
                 id="bid-demand-negative"),
    # checks of the records themselves, named by position, not by id
    pytest.param(_set("sellers", 0, "id", -1), "sellers[0].id: must be >= 0",
                 id="seller-id-negative"),
    pytest.param(_set("buyers", 0, "id", -1), "buyers[0].id: must be >= 0",
                 id="buyer-id-negative"),
    pytest.param(_second_seller({"id": 5, "round_capacity": [2], "period_capacity": [4, 4]}),
                 "sellers[1].period_capacity: dimension differs from round_capacity",
                 id="second-seller-period_capacity-length"),
    pytest.param(_second_seller({"id": 0, "round_capacity": [2]}),
                 "sellers[1].id: duplicate seller id", id="second-seller-duplicate-id"),
    # optional fields: null reads as absent
    pytest.param(_set("sellers", 0, "period_capacity", None), None, id="period_capacity-null"),
    pytest.param(_set("sellers", 0, "ask", None), None, id="ask-null"),
    pytest.param(_second_seller({"id": 7, "round_capacity": [1], "ask": 0.5}), None,
                 id="second-seller-id-7"),
    # without `dimensions`: the first round capacity, else the first demand
    pytest.param(_set("dimensions", _MISSING), None, id="dimensions-from-capacity"),
    pytest.param(
        lambda doc: (doc.pop("dimensions"), doc["sellers"][0].update(round_capacity=[2, 2])),
        "bids[0][0].demand: expected 2 components, got 1",
        id="dimensions-from-the-first-capacity",
    ),
    pytest.param(lambda doc: (doc.pop("dimensions"), doc.update(sellers=[])), None,
                 id="dimensions-from-demand"),
    pytest.param(
        lambda doc: (doc.pop("dimensions"), doc.update(sellers=[]),
                     doc["bids"][0][0].update(demand=[1, 1])),
        "bids[0][1].demand: expected 2 components, got 1",
        id="dimensions-from-the-first-demand",
    ),
]


class TestValidateCommand:
    def test_ok_paths(self, table1_path, params_path, capsys):
        assert main(["validate", str(table1_path)]) == 0
        assert "ok: scenario" in capsys.readouterr().out
        assert main(["validate", str(params_path)]) == 0
        assert "ok: params" in capsys.readouterr().out

    def test_extra_bid_rows_exit_2(self, tmp_path, capsys):
        doc = {
            "horizon": 1,
            "buyers": [{"id": 0, "budget": 5}],
            "sellers": [{"id": 0, "round_capacity": [2]}],
            "bids": [[{"amount": 1, "demand": [1]}], [{"amount": 2, "demand": [1]}]],
        }
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == "error: bids: expected 1 rows, got 2\n"

    @pytest.mark.parametrize(
        "change, message",
        [
            pytest.param(
                lambda doc: doc["bids"][2][1].update(demand=[1, 1]),
                "bids[2][1].demand: expected 1 components, got 2",
                id="demand",
            ),
            pytest.param(
                lambda doc: doc["sellers"][0].update(id=5, period_capacity=[4, 4]),
                "sellers[0].period_capacity: dimension differs from round_capacity",
                id="period-capacity",
            ),
        ],
    )
    def test_vector_of_the_wrong_length_prints_one_pinned_line(
        self, tmp_path, capsys, change, message
    ):
        doc = json.loads(json.dumps(TABLE1_SCENARIO))
        change(doc)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize(
        "generator, message",
        [
            ({"horizon": 0}, "generator.horizon: must be >= 1"),
            ({"horizon": 1, "bid_range": [5, 1]},
             "generator.bid_range: lower bound 5 exceeds upper bound 1"),
        ],
    )
    def test_generator_block_range_errors_keep_the_prefix(
        self, tmp_path, capsys, command, generator, message
    ):
        path = tmp_path / "generator.json"
        path.write_text(json.dumps({"generator": {"n_buyers": 2, "m_sellers": 1, **generator}}))
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bad_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["validate", str(bad)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("block", [False, True], ids=["params", "generator-block"])
    @pytest.mark.parametrize("changes, message", GENERATOR_FAULTS)
    def test_generator_fault_prints_one_pinned_line(
        self, tmp_path, capsys, block, changes, message
    ):
        generator = _changed(SMALL_PARAMS, changes)
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"generator": generator} if block else generator))
        if message is None:
            assert main(["validate", str(path)]) == 0
            return
        assert main(["validate", str(path)]) == 2
        prefix = "generator." if block else ""
        assert capsys.readouterr().err == f"error: {prefix}{message}\n"

    @pytest.mark.parametrize("change, message", SCENARIO_FAULTS)
    def test_scenario_fault_prints_one_pinned_line(self, tmp_path, capsys, change, message):
        doc = json.loads(json.dumps(TABLE1_SCENARIO))
        change(doc)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        if message is None:
            assert main(["validate", str(path)]) == 0
            assert capsys.readouterr().out == "ok: scenario\n"
            return
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("holder", ["params", "scenario"])
    @pytest.mark.parametrize("changes, message", MECHANISM_FAULTS)
    def test_mechanism_fault_prints_one_pinned_line(
        self, tmp_path, capsys, holder, changes, message
    ):
        base = SMALL_PARAMS if holder == "params" else TABLE1_SCENARIO
        doc = dict(base, mechanism=_changed({"gamma": 1, "solver": "exact"}, changes))
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


TABLE1_FIXTURE = {
    "budgets": [15, 9, 10],
    "bids": [[3, 4, 3, 2, 1, 1], [4, 5, 0, 0, 0, 0], [5, 5, 0, 0, 0, 0]],
    "items_per_round": 2,
}


def _fixture_with_budget(text):
    return json.dumps(TABLE1_FIXTURE).replace('"budgets": [15', '"budgets": [' + text, 1)


def _scenario_with_demand(text):
    return json.dumps(TABLE1_SCENARIO).replace('"demand": [1]', '"demand": [' + text + "]", 1)


class TestMalformedInputExits2:
    """Special and huge numbers and unreadable files once printed a traceback (exit 1)."""

    @staticmethod
    def run_cli(*args, address_space=None):
        """Run the CLI in a child; ``address_space`` caps its virtual memory in bytes."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        limit = None
        if address_space is not None:
            import resource

            def limit():
                resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))
        done = subprocess.run(
            [sys.executable, "-m", "mdcauction", *args],
            capture_output=True, text=True, timeout=60, env=env, preexec_fn=limit,
        )
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr
        assert done.stderr.count("\n") == 1
        return done.stderr

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"generator": {"n_buyers": 100_000, "m_sellers": 1, "horizon": 100_000}},
             "generator.draws: the workload takes 40000100004; at most 1048576"),
            ({"generator": {"n_buyers": 0, "m_sellers": 0, "horizon": 1, "dimensions": 10**9}},
             "generator.dimensions: must be <= 64"),
            ({"buyers": [], "sellers": [], "horizon": 10**9, "bids": []},
             "horizon: must be <= 100000"),
        ],
        ids=["draws", "dimensions", "horizon"],
    )
    def test_oversized_run(self, tmp_path, doc, message):
        # Each once ran out of memory (exit 1) or ran for minutes; the address
        # space cap keeps a regression from taking the host's memory with it.
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        stderr = self.run_cli("run", str(path), address_space=1 << 30)
        assert stderr == f"error: {message}\n"

    @pytest.mark.parametrize(
        "total, message",
        [
            ("Infinity", "must be finite"),
            ("NaN", "must be finite"),
            ("sNaN", "must be finite"),
            ("1e999999", "too large"),
            ("1e5000", "too large"),
        ],
    )
    def test_special_or_huge_expected_total(self, total, message):
        stderr = self.run_cli("replay", "table1", "--expect", f"total={total}")
        assert stderr.startswith(f"error: --expect total: {message}")

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("replay", _fixture_with_budget('"Infinity"'), "budgets[0]: must be finite"),
            ("replay", _fixture_with_budget("1e999999"), "budgets[0]: too large"),
            ("validate", _scenario_with_demand("1e999999"), "bids[0][0].demand[0]: too large"),
        ],
        ids=["infinite-budget", "huge-budget", "huge-demand"],
    )
    def test_special_or_huge_number_in_a_file(self, tmp_path, command, text, message):
        path = tmp_path / "input.json"
        path.write_text(text)
        assert self.run_cli(command, str(path)).startswith(f"error: {message}")

    @pytest.mark.parametrize(
        "doc",
        [dict(SMALL_PARAMS, mechanism={"gamma": 10**400}),
         dict(TABLE1_SCENARIO, mechanism={"gamma": 10**400})],
        ids=["params", "scenario"],
    )
    def test_huge_integer_gamma(self, tmp_path, doc):
        # float() of a 401-digit integer once raised OverflowError (exit 1).
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        stderr = self.run_cli("validate", str(path))
        assert stderr == "error: mechanism.gamma: must be in [0, 1000]\n"

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("validate", '{"n_buyers": 2, "m_sellers": 1, "horizon": 1e999999}', "horizon"),
            ("replay", json.dumps(TABLE1_FIXTURE).replace(": 2}", ": -1e5000}"),
             "items_per_round"),
        ],
        ids=["params-horizon", "fixture-items"],
    )
    def test_exponent_form_integer_past_the_digit_limit(
        self, tmp_path, command, text, message
    ):
        # int() of 1e999999 builds a million digits first; `validate` once ran
        # 37 s and accepted the file.
        path = tmp_path / "input.json"
        path.write_text(text)
        started = time.monotonic()
        stderr = self.run_cli(command, str(path))
        assert time.monotonic() - started < 10
        assert stderr == f"error: {message}: too large: more than 4300 digits\n"

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"\xff\xfe{}", "not UTF-8 text"),
            (b"[" * 100_000 + b"]" * 100_000, "JSON nested too deeply"),
            (_fixture_with_budget("1" * 5000).encode(), "a number has too many digits"),
        ],
        ids=["utf16-bom", "deep", "long-int"],
    )
    @pytest.mark.parametrize("command", ["validate", "compare"])
    def test_unreadable_file(self, tmp_path, command, content, message):
        path = tmp_path / "input.json"
        path.write_bytes(content)
        assert self.run_cli(command, str(path)) == f"error: {path}: {message}\n"


class TestOutputFailureExits4:
    """A failed write exits 4, not 2 (bad input), and files are written before stdout.

    ``compare default --seeds 3 --out x.csv | head -1`` once printed
    ``error: [Errno 32] Broken pipe``, exited 2 and wrote no ``x.csv``.
    """

    COMMANDS = {
        "replay": ["replay", "table1", "--no-header"],
        "run": ["run", "{scenario}", "--no-header"],
        "compare": ["compare", "default", "--seeds", "3", "--no-header"],
    }

    @staticmethod
    def run_closed(args):
        """Run the CLI in a child whose stdout is a pipe nobody reads: every write to it fails."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        read, write = os.pipe()
        os.close(read)
        try:
            return subprocess.run(
                [sys.executable, "-m", "mdcauction", *args],
                stdout=write, stderr=subprocess.PIPE, text=True, timeout=60, env=env,
            )
        finally:
            os.close(write)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_a_closed_stdout_exits_4_after_the_file_is_written(
        self, tmp_path, table1_path, capsys, command
    ):
        args = [a.format(scenario=table1_path) for a in self.COMMANDS[command]]
        expected = tmp_path / "expected.csv"
        assert main([*args, "--out", str(expected)]) == 0
        printed = capsys.readouterr().out
        assert printed
        out = tmp_path / "x.csv"
        done = self.run_closed([*args, "--out", str(out)])
        assert done.returncode == 4, done.stderr
        assert done.stderr == "error: cannot write output: [Errno 32] Broken pipe\n"
        assert out.read_text() == expected.read_text()

    def test_gen_to_a_closed_stdout_exits_4(self):
        done = self.run_closed(["gen", "default"])
        assert done.returncode == 4, done.stderr
        assert done.stderr == "error: cannot write output: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("command", [*sorted(COMMANDS), "gen"])
    def test_an_unwritable_out_file_exits_4_before_printing(
        self, tmp_path, table1_path, capsys, command
    ):
        command_args = self.COMMANDS.get(command, ["gen", "default"])
        args = [a.format(scenario=table1_path) for a in command_args]
        assert main([*args, "--out", str(tmp_path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write output: [Errno 21] Is a directory:")

    @pytest.mark.parametrize("length", [252, 5000])
    def test_a_name_too_long_to_read_is_still_bad_input(self, capsys, length):
        # 252 characters pass as a file name but not as a bundled profile's.
        assert main(["compare", "x" * length]) == 2
        assert "cannot read file" in capsys.readouterr().err
