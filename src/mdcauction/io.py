"""File formats: scenario/fixture/params JSON, CSV output, text reports.

JSON numbers are parsed as Decimals so fixed-point conversion is exact.
Unknown fields are rejected, and every diagnostic names the offending
field.  CSV output uses commas, a dot decimal point, a header row and
LF line endings; money is rendered with exactly three decimals, so
files are bit-identical across platforms.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, fields
from datetime import datetime, timezone
from decimal import Decimal
from itertools import chain

from .errors import ValidationError
from .mechanisms import AuctionResult
from .model import Bid, Buyer, ResourceVector, Seller
from .money import SCALE, format_milli, to_milli
from .rng import GENERATOR_NAME
from .scenario import GeneratorParams, MechanismConfig, Scenario
from .simlab import ComparisonReport, RunMetrics


def load_json(source) -> dict:
    """Read a JSON object from a path (or importlib.resources traversable)."""
    try:
        with source.open("r", encoding="utf-8") if hasattr(source, "open") else open(
            source, "r", encoding="utf-8"
        ) as handle:
            doc = json.load(handle, parse_float=Decimal)
    except OSError as exc:
        raise ValidationError(str(source), f"cannot read file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(str(source), f"invalid JSON at line {exc.lineno}") from exc
    except UnicodeDecodeError:
        raise ValidationError(str(source), "not UTF-8 text") from None
    except ValueError:  # an integer past Python's 4300-digit conversion limit
        raise ValidationError(str(source), "a number has too many digits") from None
    except RecursionError:
        raise ValidationError(str(source), "JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValidationError(str(source), "top-level value must be an object")
    return doc


def detect_kind(doc: dict) -> str:
    """``fixture``, ``params`` or ``scenario``: a flat file naming any
    generator field that a scenario does not have is a params file."""
    if "items_per_round" in doc or "budgets" in doc:
        return "fixture"
    if not _PARAMS_ONLY_KEYS.isdisjoint(doc):
        return "params"
    return "scenario"


def _reject_unknown(doc: dict, allowed: set[str], prefix: str) -> None:
    for key in doc:
        if key not in allowed:
            raise ValidationError(f"{prefix}{key}", "unknown field")


def _require(doc: dict, key: str, prefix: str):
    if key not in doc:
        raise ValidationError(f"{prefix}{key}", "required field is missing")
    return doc[key]


def _int_value(value, field: str) -> int:
    if isinstance(value, bool):
        raise ValidationError(field, "expected an integer")
    if isinstance(value, int):
        return value
    if isinstance(value, Decimal) and value == value.to_integral_value():
        # load_json's limit on integer literals; int() would build every digit of 1e999999.
        if value and value.adjusted() >= 4300:
            raise ValidationError(field, "too large: more than 4300 digits")
        return int(value)
    raise ValidationError(field, "expected an integer")


def _money_value(value, field: str) -> int:
    amount = to_milli(value, field)
    if amount < 0:
        raise ValidationError(field, "must be >= 0")
    return amount


def _vector(value, field: str) -> ResourceVector:
    if not isinstance(value, list):
        raise ValidationError(field, "expected an array of quantities")
    units = []
    for k, item in enumerate(value):
        units.append(_money_value(item, f"{field}[{k}]"))
    return ResourceVector(tuple(units))


def _int_range(value, field: str) -> tuple[int, int]:
    if not isinstance(value, list) or len(value) != 2:
        raise ValidationError(field, "expected [low, high]")
    return (_int_value(value[0], f"{field}[0]"), _int_value(value[1], f"{field}[1]"))


# Ties always go to the lowest buyer index.  Files may still name that
# rule as ``tie_rule``; it is the only value accepted and nothing reads it.
_MECHANISM_KEYS = {f.name for f in fields(MechanismConfig)} | {"tie_rule"}


def parse_mechanism(doc: dict, prefix: str = "mechanism.") -> MechanismConfig:
    _reject_unknown(doc, _MECHANISM_KEYS, prefix)
    if doc.get("tie_rule", "lowest_index") != "lowest_index":
        raise ValidationError(f"{prefix}tie_rule", "must be 'lowest_index'")
    kwargs = {}
    for f in fields(MechanismConfig):
        value, field = doc.get(f.name, f.default), f"{prefix}{f.name}"
        if isinstance(f.default, float):
            if isinstance(value, bool) or not isinstance(value, (int, float, Decimal)):
                raise ValidationError(field, "expected a number")
            value = float(Decimal(value))  # a huge integer becomes inf, not OverflowError
        elif not isinstance(value, str):
            raise ValidationError(field, "expected a string")
        kwargs[f.name] = value
    return MechanismConfig(**kwargs)


def parse_generator(doc: dict, prefix: str = "generator.") -> GeneratorParams:
    """Read ``GeneratorParams`` by its fields: a field without a default is required,
    a ``*_range`` takes ``[low, high]`` (or null where its default is None), any
    other field an integer."""
    generator_fields = fields(GeneratorParams)
    _reject_unknown(doc, {f.name for f in generator_fields}, prefix)
    kwargs = {}
    for f in generator_fields:
        if f.name not in doc and f.default is not MISSING:
            continue
        value, field = _require(doc, f.name, prefix), f"{prefix}{f.name}"
        if not f.name.endswith("_range"):
            kwargs[f.name] = _int_value(value, field)
        elif value is not None or f.default is not None:
            kwargs[f.name] = _int_range(value, field)
    try:
        return GeneratorParams(**kwargs)
    except ValidationError as exc:
        raise ValidationError(f"{prefix}{exc.field}", exc.message) from None


def _mechanism_block(doc: dict) -> MechanismConfig:
    block = doc.get("mechanism", {})
    if not isinstance(block, dict):
        raise ValidationError("mechanism", "expected an object")
    return parse_mechanism(block)


def parse_params_file(doc: dict) -> tuple[GeneratorParams, MechanismConfig]:
    """Parse a generator-params file; may carry a mechanism block."""
    mechanism = _mechanism_block(doc)
    params = parse_generator({k: v for k, v in doc.items() if k != "mechanism"}, prefix="")
    return params, mechanism


_QUANTITY_FIELDS = {"round_capacity", "period_capacity", "demand"}


def _record(entry, kind, field: str, **given):
    """Read ``entry`` as a ``kind`` (``Seller``, ``Buyer`` or ``Bid``) by its fields.

    ``id`` is an integer, a capacity or demand an array of quantities, any
    other field money.  A field with a default may be omitted or null.
    ``given`` holds the fields the file does not: a bid's ``buyer_id`` is its
    row.  Every message names the entry by its position, ``field``, whatever
    its id.
    """
    if not isinstance(entry, dict):
        raise ValidationError(field, "expected an object")
    read = [f for f in fields(kind) if f.name not in given]
    _reject_unknown(entry, {f.name for f in read}, f"{field}.")
    kwargs = dict(given)
    for f in read:
        if f.default is MISSING or entry.get(f.name) is not None:
            value = _require(entry, f.name, f"{field}.")
            read_value = (
                _int_value if f.name == "id"
                else _vector if f.name in _QUANTITY_FIELDS
                else _money_value
            )
            kwargs[f.name] = read_value(value, f"{field}.{f.name}")
    try:
        return kind(**kwargs)
    except ValidationError as exc:  # the record names itself by its id, or by no index
        raise ValidationError(f"{field}.{exc.field.rpartition('.')[2]}", exc.message) from None


_SCENARIO_KEYS = {"buyers", "sellers", "horizon", "dimensions", "bids", "generator", "mechanism"}
_PARAMS_ONLY_KEYS = {f.name for f in fields(GeneratorParams)} - _SCENARIO_KEYS


def parse_scenario(doc: dict) -> tuple[Scenario | GeneratorParams, MechanismConfig]:
    """Parse a scenario file into ``(workload, mechanism)``.

    The workload is a ``Scenario`` for explicit bids.  Each seller, buyer
    and bid key is the field of the same name of ``Seller``, ``Buyer`` or
    ``Bid``, and an error names an entry by its position in the file.  A
    file with a ``generator`` block parses to the same ``(params,
    mechanism)`` pair as ``parse_params_file``; ``simlab.generate_scenario``
    draws the scenario from it.
    """
    _reject_unknown(doc, _SCENARIO_KEYS, "scenario.")
    mechanism = _mechanism_block(doc)
    if "generator" in doc:
        if not isinstance(doc["generator"], dict):
            raise ValidationError("generator", "expected an object")
        for key in ("buyers", "sellers", "bids", "horizon", "dimensions"):
            if key in doc:
                raise ValidationError(key, "must be omitted when a generator is present")
        return parse_generator(doc["generator"]), mechanism

    buyers_doc = _require(doc, "buyers", "scenario.")
    sellers_doc = _require(doc, "sellers", "scenario.")
    horizon = _int_value(_require(doc, "horizon", "scenario."), "horizon")
    bids_doc = _require(doc, "bids", "scenario.")
    if not isinstance(buyers_doc, list):
        raise ValidationError("buyers", "expected an array")
    if not isinstance(sellers_doc, list):
        raise ValidationError("sellers", "expected an array")
    if not isinstance(bids_doc, list):
        raise ValidationError("bids", "expected an array of per-buyer rows")

    dimensions = _int_value(doc["dimensions"], "dimensions") if "dimensions" in doc else None
    sellers = tuple(_record(entry, Seller, f"sellers[{j}]") for j, entry in enumerate(sellers_doc))
    buyers = tuple(_record(entry, Buyer, f"buyers[{i}]") for i, entry in enumerate(buyers_doc))
    matrix = []
    for i, row in enumerate(bids_doc):
        if not isinstance(row, list):
            raise ValidationError(f"bids[{i}]", "expected an array of per-round bids")
        matrix.append(
            tuple(_record(entry, Bid, f"bids[{i}][{l}]", buyer_id=i) for l, entry in enumerate(row))
        )
    if dimensions is None:  # the first round capacity, else the first demand, else 3
        shapes = chain((s.round_capacity for s in sellers), (b.demand for r in matrix for b in r))
        first = next(shapes, None)
        dimensions = 3 if first is None else len(first)
    return Scenario(buyers, sellers, horizon, dimensions, tuple(matrix)), mechanism


_FIXTURE_KEYS = {"budgets", "bids", "items_per_round"}


def parse_fixture(doc: dict) -> tuple[list, list, int]:
    """Parse a replay fixture: bid matrix rows, budgets, items per round."""
    _reject_unknown(doc, _FIXTURE_KEYS, "fixture.")
    budgets = _require(doc, "budgets", "fixture.")
    bids = _require(doc, "bids", "fixture.")
    items = _int_value(_require(doc, "items_per_round", "fixture."), "items_per_round")
    if not isinstance(budgets, list):
        raise ValidationError("budgets", "expected an array")
    if not isinstance(bids, list) or not all(isinstance(r, list) for r in bids):
        raise ValidationError("bids", "expected an array of per-buyer rows")
    return bids, budgets, items


def _milli_to_json(amount: int):
    if amount % SCALE == 0:
        return amount // SCALE
    return float(format_milli(amount))


def generator_to_doc(params: GeneratorParams, mechanism: MechanismConfig) -> dict:
    """JSON-ready scenario file that pins a generator block rather than its draw."""
    generator = {
        k: list(v) if isinstance(v, tuple) else v for k, v in asdict(params).items() if v is not None
    }
    return {"generator": generator, "mechanism": asdict(mechanism)}


def _record_doc(record) -> dict:
    """The file entry of a seller, buyer or bid: the inverse of ``_record``."""
    doc = {}
    for f in fields(record):
        value = getattr(record, f.name)
        if f.name == "buyer_id" or value is None:
            continue
        if f.name == "id":
            doc[f.name] = value
        elif f.name in _QUANTITY_FIELDS:
            doc[f.name] = [_milli_to_json(u) for u in value]
        else:
            doc[f.name] = _milli_to_json(value)
    return doc


def scenario_to_doc(scenario: Scenario, mechanism: MechanismConfig) -> dict:
    """JSON-ready scenario file: ``scenario`` as an explicit bid matrix, run under ``mechanism``.

    Such a file replays verbatim: reloaded bids are no longer treated
    as adjustable valuations, even when the scenario was generated.
    """
    return {
        "dimensions": scenario.dimensions,
        "horizon": scenario.horizon,
        "buyers": [_record_doc(buyer) for buyer in scenario.buyers],
        "sellers": [_record_doc(seller) for seller in scenario.sellers],
        "bids": [[_record_doc(bid) for bid in row] for row in scenario.bid_matrix],
        "mechanism": asdict(mechanism),
    }


def dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# CSV and text reports


def _timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def header_lines(command: str, meta: dict[str, str], timestamp: bool) -> list[str]:
    pairs = " ".join(f"{k}={v}" for k, v in meta.items())
    lines = [f"# mdcauction {command} {pairs}".rstrip()]
    if timestamp:
        lines.append(f"# generated_at={_timestamp()}")
    return lines


def _winners_cell(outcome) -> str:
    return ";".join(f"{b}:{s}" for b, s in outcome.winners)


def _exhaustion_rounds(metrics: RunMetrics, separator: str) -> str:
    """``buyer=round`` for each buyer by id (``never`` if its budget lasts), or ``-`` for none."""
    rounds = sorted(metrics.exhaustion_round.items())
    return separator.join(f"{b}={'never' if r is None else r}" for b, r in rounds) or "-"


def result_csv_lines(
    result: AuctionResult,
    command: str,
    meta: dict[str, str],
    timestamp: bool,
    metrics: RunMetrics | None = None,
) -> list[str]:
    lines = header_lines(command, meta, timestamp)
    lines.append("round,utility,revenue,winners")
    for outcome in result.rounds:
        lines.append(
            f"{outcome.round},{format_milli(outcome.utility)},"
            f"{format_milli(outcome.revenue)},{_winners_cell(outcome)}"
        )
    lines.append(
        f"total,{format_milli(result.total_utility)},{format_milli(result.total_revenue)},"
    )
    if metrics is not None:
        lines.append(f"# allocation_ratio={metrics.allocation_ratio:.4f}")
        lines.append(f"# exhaustion_rounds={_exhaustion_rounds(metrics, ';')}")
    return lines


def run_report_lines(result: AuctionResult, metrics: RunMetrics) -> list[str]:
    lines = []
    for outcome in result.rounds:
        winners = ",".join(f"{b}:{s}" for b, s in outcome.winners) or "-"
        lines.append(
            f"l={outcome.round} winners={winners} utility={format_milli(outcome.utility)}"
            f" revenue={format_milli(outcome.revenue)}"
        )
    lines.append(
        f"total utility={format_milli(result.total_utility)}"
        f" revenue={format_milli(result.total_revenue)}"
    )
    lines.append(f"allocation_ratio={metrics.allocation_ratio:.4f}")
    lines.append(f"exhaustion_rounds: {_exhaustion_rounds(metrics, ' ')}")
    return lines


def replay_report_lines(result: AuctionResult) -> list[str]:
    lines = []
    for outcome in result.rounds:
        winners = ",".join(str(b) for b, _ in outcome.winners) or "-"
        lines.append(
            f"l={outcome.round} winners={winners} utility={format_milli(outcome.utility)}"
        )
    lines.append(f"total={format_milli(result.total_utility)}")
    return lines


def compare_csv_lines(
    report: ComparisonReport, meta: dict[str, str], timestamp: bool
) -> list[str]:
    lines = header_lines("compare", meta, timestamp)
    lines.append(
        "seed,mechanism,revenue,utility,allocation_ratio,exhausted_buyers,mean_exhaustion_round"
    )
    for record in report.records:
        mean_ex = "" if record.mean_exhaustion_round is None else f"{record.mean_exhaustion_round:.2f}"
        lines.append(
            f"{record.seed},{record.mechanism},{format_milli(record.revenue)},"
            f"{format_milli(record.utility)},{record.allocation_ratio:.4f},"
            f"{record.exhausted_buyers},{mean_ex}"
        )
    return lines


def _pct(value: float) -> str:
    if value == float("inf"):
        return "inf"
    return f"{value:+.2f}%"


def compare_summary_lines(report: ComparisonReport, settings: dict[str, str]) -> list[str]:
    """The summary of ``compare``; its first line ends with the mechanism ``settings``."""
    named = "".join(f" {k}={v}" for k, v in settings.items())
    lines = [
        f"seeds={len(report.seeds)} rng={GENERATOR_NAME} base_seed={report.params.seed}"
        f" bootstrap_resamples={report.bootstrap_resamples}{named}"
    ]
    for stat in report.stats:
        lines.append(
            f"{stat.mechanism}: mean_revenue={stat.mean_revenue:.3f}"
            f" median_revenue={stat.median_revenue:.3f}"
        )
    for pair in report.pairwise:
        lines.append(
            f"{pair.mechanism_a} vs {pair.mechanism_b}: improvement={_pct(pair.improvement_pct)}"
            f" ci95=[{_pct(pair.ci_low)},{_pct(pair.ci_high)}]"
            f" win_rate={pair.win_rate:.2f} ties={pair.ties}"
        )
    return lines


def write_lines(path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
