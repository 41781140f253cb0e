"""Command-line entry point.

Commands: ``replay`` (worked-example fixtures), ``run`` (one mechanism
on one scenario), ``compare`` (paired multi-seed ensembles), ``gen``
(write a generator block or its draw), ``validate`` (schema check).
Outputs are deterministic given the input file and flags; the only
wall-clock dependence is the optional timestamp header line, disabled
with ``--no-header``.  Exit codes: 0 success, 1 expectation failure,
2 input error (among them a round past the exact solver's
``MAX_EXACT_BUYERS``, a ``compare --seeds`` count past
``simlab.MAX_SEEDS`` and a workload past the size caps in
``scenario.py``), 3 run aborted (the exact solver's node budget
ran out, or an internal invariant check failed), 4 output failure (a
result could not be written to stdout or to an ``--out`` file).  Every
command writes its files before it prints, so a closed stdout loses no
file.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

from . import io
from .errors import InvariantViolation, ValidationError
from .mechanisms import replay
from .money import format_milli, to_milli
from .rng import GENERATOR_NAME
from .scenario import SOLVERS, Scenario
from .simlab import MAX_SEEDS, MECHANISMS, MechanismSpec, compare, evaluate, generate_scenario
from .wdp import SearchBudgetExceeded


def _resolve_input(name: str, kind: str) -> object:
    """A path on disk, or the name of a bundled fixture/profile."""
    path = Path(name)
    subdir = "fixtures" if kind == "fixture" else "profiles"
    try:
        if path.exists():
            return path
        bundled = resources.files("mdcauction").joinpath(f"data/{subdir}/{name}.json")
        if bundled.is_file():
            return bundled
    except OSError as exc:  # a name too long for the file system, say
        raise ValidationError(name, f"cannot read file: {exc}") from exc
    raise ValidationError(name, f"no such file and no bundled {kind} with that name")


def _parse_expect(expr: str) -> int:
    key, _, value = expr.partition("=")
    if key != "total" or not value:
        raise ValidationError("--expect", "expected the form total=<amount>")
    return to_milli(value, "--expect total")


def _mechanism_override(config, args):
    updates = {}
    if args.gamma is not None:
        updates["gamma"] = args.gamma
    if args.solver is not None:
        updates["solver"] = args.solver
    return replace(config, **updates) if updates else config


def _settings(mech) -> dict[str, str]:
    """The mechanism settings an output names; gamma as the shortest text that
    reads back as it, so no two gammas print alike."""
    gamma = repr(mech.gamma).removesuffix(".0")
    return {"solver": mech.solver, "pricing": mech.pricing, "gamma": gamma, "scope": mech.scope}


def _emit(lines: list[str]) -> None:
    print("\n".join(lines))


def cmd_replay(args) -> int:
    doc = io.load_json(_resolve_input(args.fixture, "fixture"))
    bids, budgets, items = io.parse_fixture(doc)
    result = replay(bids, budgets, items)
    lines = io.replay_report_lines(result)

    if args.baseline is not None:
        base_doc = io.load_json(_resolve_input(args.baseline, "fixture"))
        base = replay(*io.parse_fixture(base_doc))
        if base.total_utility == 0:
            lines.append("improvement=n/a (baseline total is 0)")
        else:
            gain = (
                (result.total_utility - base.total_utility) / base.total_utility * 100.0
            )
            lines.append(
                f"improvement={gain:+.2f}% vs baseline total={format_milli(base.total_utility)}"
            )

    if args.out:
        meta = {"fixture": args.fixture, "items_per_round": str(items)}
        io.write_lines(
            args.out, io.result_csv_lines(result, "replay", meta, not args.no_header)
        )
    _emit(lines)

    if args.expect is not None:
        expected = _parse_expect(args.expect)
        if result.total_utility != expected:
            print(
                f"expect failed: total={format_milli(expected)}"
                f" actual={format_milli(result.total_utility)}",
                file=sys.stderr,
            )
            return 1
        print(f"expect ok: total={format_milli(expected)}")
    return 0


def cmd_run(args) -> int:
    doc = io.load_json(_resolve_input(args.scenario, "scenario"))
    if io.detect_kind(doc) == "params":
        raise ValidationError(
            args.scenario,
            "is a params file; run takes a scenario file or a `generator` block,"
            " which `gen` writes from a params file",
        )
    scenario, mech = io.parse_scenario(doc)
    mech = _mechanism_override(mech, args)
    if not isinstance(scenario, Scenario):  # a generator block
        scenario = generate_scenario(
            scenario if args.seed is None else replace(scenario, seed=args.seed)
        )
    elif args.seed is not None:
        raise ValidationError("--seed", "scenario has explicit bids; a seed cannot apply")
    evaluation = evaluate(scenario, args.mechanism, mech)

    settings = _settings(mech)
    if args.out:
        meta = {
            "scenario": args.scenario,
            "mechanism": args.mechanism,
            **settings,
            "seed": str(scenario.generator.seed) if scenario.generator else "-",
            "rng": GENERATOR_NAME if scenario.generator else "-",
        }
        io.write_lines(
            args.out,
            io.result_csv_lines(
                evaluation.result, "run", meta, not args.no_header, evaluation.metrics
            ),
        )
    print(f"scenario: {args.scenario}")
    print(f"mechanism: {args.mechanism} ({', '.join(f'{k}={v}' for k, v in settings.items())})")
    _emit(io.run_report_lines(evaluation.result, evaluation.metrics))
    return 0


def _load_params(args):
    """The params file or bundled profile ``args.params``, with ``--seed`` applied."""
    params, mechanism = io.parse_params_file(
        io.load_json(_resolve_input(args.params, "profile"))
    )
    if args.seed is not None:
        params = replace(params, seed=args.seed)
    return params, mechanism


def cmd_compare(args) -> int:
    params, mechanism = _load_params(args)
    base_config = _mechanism_override(mechanism, args)
    names = [name.strip() for name in args.mechanisms.split(",") if name.strip()]
    specs = [MechanismSpec(name, config=base_config) for name in names]
    report = compare(params, specs, args.seeds)
    settings = _settings(base_config)
    if args.out:
        meta = {
            "params": args.params,
            "seeds": str(args.seeds),
            "mechanisms": ";".join(names),
            "base_seed": str(params.seed),
            "rng": GENERATOR_NAME,
            **settings,
        }
        io.write_lines(args.out, io.compare_csv_lines(report, meta, not args.no_header))
    _emit(io.compare_summary_lines(report, settings))
    return 0


def cmd_gen(args) -> int:
    params, mechanism = _load_params(args)
    if args.materialize:
        doc = io.scenario_to_doc(generate_scenario(params), mechanism)
    else:
        doc = io.generator_to_doc(params, mechanism)
    # ASCII with control characters escaped, so its lines join back exactly
    lines = io.dump_json(doc).splitlines()
    if args.out:
        io.write_lines(args.out, lines)
    else:
        _emit(lines)
    return 0


def cmd_validate(args) -> int:
    doc = io.load_json(Path(args.input))
    kind = io.detect_kind(doc)
    if kind == "fixture":
        io.parse_fixture(doc)
    elif kind == "params":
        io.parse_params_file(doc)
    else:
        io.parse_scenario(doc)
    print(f"ok: {kind}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdcauction",
        description="Budget-aware multi-round resource auction simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_replay = sub.add_parser("replay", help="replay a worked-example fixture")
    p_replay.add_argument("fixture", help="fixture file or bundled name (table1, table2)")
    p_replay.add_argument("--baseline", help="second fixture to compute an improvement against")
    p_replay.add_argument("--expect", help="assert the total, e.g. total=26")
    p_replay.add_argument("--out", help="write per-round CSV here")
    p_replay.add_argument("--no-header", action="store_true", help="omit the timestamp header")
    p_replay.set_defaults(func=cmd_replay)

    p_run = sub.add_parser("run", help="run one mechanism on one scenario")
    p_run.add_argument("scenario", help="scenario file")
    p_run.add_argument(
        "--mechanism", default="mafl", choices=sorted(MECHANISMS), help="mechanism to run"
    )
    p_run.add_argument("--gamma", type=float, help="override the adjustment exponent")
    p_run.add_argument("--solver", choices=SOLVERS, help="override the solver")
    p_run.add_argument("--seed", type=int, help="override the generator seed")
    p_run.add_argument("--out", help="write per-round CSV here")
    p_run.add_argument("--no-header", action="store_true", help="omit the timestamp header")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="paired multi-seed mechanism comparison")
    p_cmp.add_argument("params", help="generator-params file or bundled profile (default, users40)")
    p_cmp.add_argument(
        "--seeds", type=int, default=100, help=f"number of paired replicates (at most {MAX_SEEDS})"
    )
    p_cmp.add_argument(
        "--mechanisms",
        default="mafl,repeated_srmra",
        help="comma-separated mechanism names",
    )
    p_cmp.add_argument("--gamma", type=float, help="override the adjustment exponent")
    p_cmp.add_argument("--solver", choices=SOLVERS, help="override the solver")
    p_cmp.add_argument("--seed", type=int, help="override the base seed")
    p_cmp.add_argument("--out", help="write the per-seed CSV here")
    p_cmp.add_argument("--no-header", action="store_true", help="omit the timestamp header")
    p_cmp.set_defaults(func=cmd_compare)

    p_gen = sub.add_parser("gen", help="write a scenario file from generator params")
    p_gen.add_argument("params", help="generator-params file or bundled profile")
    p_gen.add_argument("--seed", type=int, help="override the generator seed")
    p_gen.add_argument("--out", help="output path (stdout when omitted)")
    p_gen.add_argument(
        "--materialize",
        action="store_true",
        help="write the concrete draw instead of the generator block"
        " (the result replays verbatim when reloaded)",
    )
    p_gen.set_defaults(func=cmd_gen)

    p_val = sub.add_parser("validate", help="check a scenario, fixture or params file")
    p_val.add_argument("input", help="file to validate")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # Every input is read through io.load_json or _resolve_input, which raise
        # ValidationError, so what fails here is a write: to a file or to stdout.
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 4
    except SearchBudgetExceeded as exc:
        print(f"error: run aborted: exact solver {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"error: run aborted: invariant violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
