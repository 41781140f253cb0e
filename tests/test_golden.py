"""Golden outputs: the CLI's bytes for a few small runs, recorded in ``tests/golden/``.

Every run is written with ``--no-header`` so no timestamp enters the
files.  A refactor that claims unchanged behaviour must leave each of
these byte for byte as recorded.  ``gen`` takes no ``--no-header`` (it
writes no header), so its pinned stdout has a test of its own.
"""

import json
from pathlib import Path

import pytest

from mdcauction.cli import main

GOLDEN = Path(__file__).parent / "golden"

# Critical-value pricing on the default profile (the benchmark's cv-default params).
CV_PARAMS = {
    "n_buyers": 10,
    "m_sellers": 1,
    "horizon": 20,
    "dimensions": 3,
    "demand_range": [1, 5],
    "bid_range": [1, 20],
    "budget_range": [50, 200],
    "capacity_range": [10, 30],
    "ask_range": [1, 10],
    "seed": 101,
    "mechanism": {"pricing": "critical_value"},
}

# Critical-value pricing with three sellers and period caps that bind, so
# seller tie-breaks and shrinking capacities both reach the payments.
CV_SELLERS_PARAMS = {
    "n_buyers": 12,
    "m_sellers": 3,
    "horizon": 12,
    "dimensions": 2,
    "demand_range": [1, 5],
    "bid_range": [1, 20],
    "budget_range": [30, 120],
    "capacity_range": [4, 10],
    "period_capacity_range": [20, 50],
    "ask_range": [1, 10],
    "seed": 31,
    "mechanism": {"pricing": "critical_value"},
}

# Critical-value pricing at about 15 winners a round: 16 buyers share two
# sellers' capacities, so each round prices many winners.
CV_MANY_WINNERS_PARAMS = {
    "n_buyers": 16,
    "m_sellers": 2,
    "horizon": 10,
    "dimensions": 3,
    "capacity_range": [20, 40],
    "seed": 101,
    "mechanism": {"pricing": "critical_value"},
}

# A small profile whose mechanism block is not the default, so a materialized
# draw carries it and a run on that file shows command-line overrides on top.
MATERIALIZE_PARAMS = {
    "n_buyers": 6,
    "m_sellers": 2,
    "horizon": 6,
    "dimensions": 2,
    "capacity_range": [4, 10],
    "mechanism": {"pricing": "critical_value", "gamma": 0.5},
}

# name -> (argv, file the run writes); stdout is kept as <name>.txt.
CASES = {
    "compare_default": (
        ["compare", "default", "--seeds", "5",
         "--mechanisms", "mafl,repeated_srmra,double_auction", "--out", "out.csv"],
        "out.csv",
    ),
    "compare_users40": (["compare", "users40", "--seeds", "2", "--out", "out.csv"], "out.csv"),
    "compare_cv": (["compare", "cv-default.json", "--seeds", "3", "--out", "out.csv"], "out.csv"),
    # One mechanism: nothing to compare it with, so no bootstrap is drawn.
    "compare_cv_mafl": (
        ["compare", "cv-default.json", "--seeds", "3", "--mechanisms", "mafl", "--out", "out.csv"],
        "out.csv",
    ),
    "compare_cv_sellers": (
        ["compare", "cv-sellers.json", "--seeds", "4",
         "--mechanisms", "mafl,repeated_srmra", "--out", "out.csv"],
        "out.csv",
    ),
    "compare_cv_many_winners": (
        ["compare", "cv-many-winners.json", "--seeds", "2",
         "--mechanisms", "mafl,repeated_srmra", "--out", "out.csv"],
        "out.csv",
    ),
    "replay_table2": (["replay", "table2", "--baseline", "table1", "--out", "out.csv"], "out.csv"),
    "run_mafl": (["run", "scenario.json", "--mechanism", "mafl", "--out", "out.csv"], "out.csv"),
    "run_generator_seed": (
        ["run", "generator.json", "--mechanism", "mafl", "--seed", "7", "--out", "out.csv"],
        "out.csv",
    ),
    "run_materialized_override": (
        ["run", "materialized.json", "--gamma", "2", "--solver", "greedy", "--out", "out.csv"],
        "out.csv",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cv-default.json").write_text(json.dumps(CV_PARAMS))
    (tmp_path / "cv-sellers.json").write_text(json.dumps(CV_SELLERS_PARAMS))
    (tmp_path / "cv-many-winners.json").write_text(json.dumps(CV_MANY_WINNERS_PARAMS))
    (tmp_path / "materialize.json").write_text(json.dumps(MATERIALIZE_PARAMS))
    assert main(["gen", "default", "--materialize", "--out", "scenario.json"]) == 0
    assert main(
        ["gen", "materialize.json", "--materialize", "--seed", "7", "--out", "materialized.json"]
    ) == 0
    assert main(["gen", "default", "--out", "generator.json"]) == 0
    argv, written = CASES[name]
    capsys.readouterr()
    assert main(argv + ["--no-header"]) == 0
    stdout = capsys.readouterr().out
    assert stdout == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    csv = (tmp_path / written).read_text(encoding="utf-8")
    assert csv == (GOLDEN / f"{name}.csv").read_text(encoding="utf-8")


def test_golden_gen(capsys):
    assert main(["gen", "default", "--seed", "7"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "gen_default.json").read_text(encoding="utf-8")


def test_golden_gen_materialize(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "materialize.json").write_text(json.dumps(MATERIALIZE_PARAMS))
    assert main(["gen", "materialize.json", "--materialize", "--seed", "7"]) == 0
    expected = (GOLDEN / "gen_materialize.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
