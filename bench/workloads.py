"""The benchmark's workloads: inputs made from a seed, one pass, output checks.

Every pass calls the program only through public entry points:
``cli.main`` for the comparison workloads, and ``generate_scenario``,
``WdpInstance``, ``solve_exact`` and ``solve_greedy`` for the ladder.
A pass returns what the program produced; the checks run afterwards,
outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import sys
import time
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
EXPECTED_DIR = BENCH_DIR / "expected"
PACKAGE = "mdcauction"


class ProgramMissing(RuntimeError):
    """The checkout holds no program to measure."""


class CheckFailed(RuntimeError):
    """The program produced an output that fails a check."""


def import_program():
    """Import the package from the checkout's ``src`` directory and nowhere else."""
    init = ROOT / "src" / PACKAGE / "__init__.py"
    if not init.is_file():
        raise ProgramMissing(f"no program source at {init.relative_to(ROOT)}")
    sys.path.insert(0, str(init.parent.parent))
    import mdcauction
    import mdcauction.cli
    import mdcauction.io
    import mdcauction.wdp

    if Path(mdcauction.__file__).resolve() != init.resolve():
        raise ProgramMissing(f"{PACKAGE} was imported from {mdcauction.__file__}")
    return mdcauction


def input_seeds(default_seed: int, seed: int):
    """Seed of each pass's input.

    Pass 0 runs the workload's default seed, whose output is recorded
    in ``expected/``; pass 1 runs the run's own seed, and later passes a
    stream derived from it.
    """
    yield default_seed
    yield seed
    stream = random.Random(seed)
    while True:
        yield stream.getrandbits(32)


@dataclass
class PassResult:
    elapsed: float  # seconds spent in the program
    rounds: int  # auction rounds cleared (a ladder instance is one round)
    ops: int  # operations attempted
    output: object  # compared between passes over the same input
    objective: int = 0  # sum of objectives returned, milli-units
    reference: int = 0  # sum of greedy objectives for the same instances
    exhausted: int = 0  # ladder instances that ran out of node budget


def _root(tracer):
    return tracer.root() if tracer is not None else contextlib.nullcontext()


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Paired comparisons through the command line


_MONEY = re.compile(r"\d+\.\d{3}")
_HEADER = "seed,mechanism,revenue,utility,allocation_ratio,exhausted_buyers,mean_exhaustion_round"


def _milli(text: str, what: str) -> int:
    _require(_MONEY.fullmatch(text) is not None, f"{what}: {text!r} is not a three-decimal amount")
    return int(text.replace(".", ""))


@dataclass(frozen=True)
class CompareWorkload:
    name: str
    why: str
    params: str  # a bundled profile name, or a params file in this directory
    seeds: int
    mechanisms: tuple[str, ...]
    default_seed: int

    def _local_params(self) -> Path | None:
        local = BENCH_DIR / self.params
        return local if local.is_file() else None

    def setup(self, program) -> dict:
        """Load and validate the params; the program generates the scenarios in the pass."""
        source = self._local_params() or resources.files(PACKAGE).joinpath(
            f"data/profiles/{self.params}.json"
        )
        params, mechanism = program.io.parse_params_file(program.io.load_json(source))
        config = mechanism or program.MechanismConfig()
        return {
            "n_buyers": params.n_buyers,
            "horizon": params.horizon,
            "first_price": config.pricing == "first_price",
            "recorded": (EXPECTED_DIR / f"{self.name}.csv").read_text(encoding="utf-8").splitlines(),
            "inputs": self.default_seed,
        }

    def inputs(self, program, state: dict, seed: int) -> int:
        """The base seed of the comparison; the program generates the scenarios."""
        return seed

    def run(self, program, state: dict, base_seed: int, tracer=None, solver=None) -> PassResult:
        out = OUT_DIR / f"{self.name}.csv"
        argv = [
            "compare", str(self._local_params() or self.params),
            "--seeds", str(self.seeds),
            "--mechanisms", ",".join(self.mechanisms),
            "--seed", str(base_seed),
            "--no-header",
            "--out", str(out),
        ]
        if solver is not None:
            argv += ["--solver", solver]
        summary = io.StringIO()
        with contextlib.redirect_stdout(summary), _root(tracer):
            start = time.perf_counter()
            code = program.cli.main(argv)
            elapsed = time.perf_counter() - start
        _require(code == 0, f"compare exited with code {code}")
        lines = out.read_text(encoding="utf-8").splitlines()
        rows = [line for line in lines if not line.startswith("#")]
        return PassResult(
            elapsed=elapsed,
            rounds=self.seeds * len(self.mechanisms) * state["horizon"],
            ops=1,
            output=(summary.getvalue(), lines),
            objective=sum(_milli(row.split(",")[3], "utility") for row in rows[1:]),
        )

    def check(self, program, state: dict, base_seed: int, result: PassResult) -> None:
        summary, lines = result.output
        first = summary.splitlines()[0] if summary else ""
        _require(
            first.startswith(f"seeds={self.seeds} rng=splitmix64 base_seed={base_seed} "),
            f"unexpected summary line {first!r}",
        )
        _require(bool(lines) and lines[0].startswith("# mdcauction compare "), "missing meta line")
        rows = [line for line in lines if not line.startswith("#")]
        _require(rows[0] == _HEADER, f"unexpected CSV header {rows[0]!r}")
        rows = rows[1:]
        per_seed = len(self.mechanisms)
        _require(len(rows) == self.seeds * per_seed, f"{len(rows)} rows for {self.seeds} seeds")
        seen_seeds = set()
        for index, row in enumerate(rows):
            cells = row.split(",")
            _require(len(cells) == 7, f"row {index}: {len(cells)} cells")
            seed, mechanism, revenue, utility, ratio, exhausted, mean_round = cells
            _require(mechanism == self.mechanisms[index % per_seed], f"row {index}: mechanism {mechanism}")
            if index % per_seed == 0:
                _require(seed not in seen_seeds, f"row {index}: seed {seed} repeats")
                seen_seeds.add(seed)
                group_seed = seed
            _require(seed == group_seed, f"row {index}: rows of one seed are not adjacent")
            revenue_milli = _milli(revenue, f"row {index} revenue")
            utility_milli = _milli(utility, f"row {index} utility")
            if state["first_price"]:
                _require(revenue_milli == utility_milli, f"row {index}: first-price revenue != utility")
            else:
                _require(revenue_milli <= utility_milli, f"row {index}: revenue exceeds utility")
            _require(0.0 <= float(ratio) <= 1.0, f"row {index}: allocation ratio {ratio}")
            _require(0 <= int(exhausted) <= state["n_buyers"], f"row {index}: exhausted {exhausted}")
            if int(exhausted) == 0:
                _require(mean_round == "", f"row {index}: exhaustion round without exhaustion")
            else:
                _require(0 <= float(mean_round) <= state["horizon"], f"row {index}: round {mean_round}")
        if base_seed == self.default_seed:
            # Replicate seeds are a prefix of one stream, so a run with fewer
            # seeds must match the first rows recorded from the seed commit.
            recorded = state["recorded"][1:]
            _require(len(rows) <= len(recorded), "more rows than recorded")
            for index, (row, expected) in enumerate(zip(rows, recorded)):
                _require(row == expected, f"default-seed row {index}: {row!r} != recorded {expected!r}")

    def reference(self, program, state: dict, base_seed: int) -> PassResult:
        """The same comparison cleared by the greedy solver, for ``objective_ratio``."""
        result = self.run(program, state, base_seed, solver="greedy")
        self.check(program, state, base_seed, result)
        return result


# ---------------------------------------------------------------------------
# The exact-WDP ladder


@dataclass(frozen=True)
class LadderInstance:
    size: str
    instance: object  # WdpInstance
    greedy: int  # greedy objective, milli-units


@dataclass(frozen=True)
class LadderWorkload:
    name: str
    why: str
    sizes: tuple[tuple[int, int], ...]  # (buyers, sellers)
    node_budget: int
    default_seed: int

    def setup(self, program) -> dict:
        recorded = json.loads((EXPECTED_DIR / f"{self.name}.json").read_text(encoding="utf-8"))
        return {"recorded": recorded, "inputs": self.inputs(program, None, self.default_seed)}

    def inputs(self, program, state, seed: int) -> tuple[int, list[LadderInstance]]:
        """Round 1 of a one-round generated scenario per size, with its greedy reference."""
        built = []
        for buyers, sellers in self.sizes:
            scenario = program.generate_scenario(
                program.GeneratorParams(n_buyers=buyers, m_sellers=sellers, horizon=1, seed=seed)
            )
            instance = program.WdpInstance(
                tuple(row[0] for row in scenario.bid_matrix),
                {seller.id: seller.round_capacity for seller in scenario.sellers},
            )
            greedy = program.solve_greedy(instance)
            _check_assignment(instance, greedy.assignment, greedy.objective, f"{buyers}x{sellers} greedy")
            built.append(LadderInstance(f"{buyers}x{sellers}", instance, greedy.objective))
        return seed, built

    def run(self, program, state: dict, inputs, tracer=None) -> PassResult:
        _seed, instances = inputs
        wdp = program.wdp
        budget_exceeded = getattr(wdp, "SearchBudgetExceeded", ())
        solutions = []
        with _root(tracer):
            start = time.perf_counter()
            for op, item in enumerate(instances):
                if tracer is not None:
                    tracer.op = op
                try:
                    solution = wdp.solve_exact(item.instance, self.node_budget)
                except budget_exceeded as exc:
                    solution = exc.best
                solutions.append(solution)
            elapsed = time.perf_counter() - start
        return PassResult(
            elapsed=elapsed,
            rounds=len(instances),
            ops=len(instances),
            output=[(tuple(s.assignment), s.objective, s.optimal) for s in solutions],
            objective=sum(s.objective for s in solutions),
            reference=sum(item.greedy for item in instances),
            exhausted=sum(1 for s in solutions if not s.optimal),
        )

    def check(self, program, state: dict, inputs, result: PassResult) -> None:
        """Feasible answers, objectives that add up, and agreement with what is recorded."""
        seed, instances = inputs
        recorded = state["recorded"]
        for item, (pairs, objective, optimal) in zip(instances, result.output):
            key = f"{seed}:{item.size}"
            _check_assignment(item.instance, pairs, objective, key)
            greedy = recorded["greedy"].get(key)
            _require(greedy in (None, item.greedy), f"{key}: greedy {item.greedy} != recorded {greedy}")
            optimum = recorded["optimum"].get(key)
            if optimal:
                _require(objective >= item.greedy, f"{key}: optimum {objective} < greedy {item.greedy}")
                _require(optimum in (None, objective), f"{key}: optimum {objective} != recorded {optimum}")
            elif optimum is not None:
                _require(objective <= optimum, f"{key}: incumbent {objective} > optimum {optimum}")


def _check_assignment(instance, pairs, objective: int, what: str) -> None:
    """One seller per buyer, every capacity respected, objective = sum of assigned bids."""
    bids = {bid.buyer_id: bid for bid in instance.bids}
    caps = {seller: tuple(cap) for seller, cap in instance.seller_caps.items()}
    load = {seller: [0] * len(cap) for seller, cap in caps.items()}
    assigned = set()
    for buyer, seller in pairs:
        _require(buyer in bids and buyer not in assigned, f"{what}: buyer {buyer} invalid or repeated")
        _require(seller in caps, f"{what}: unknown seller {seller}")
        assigned.add(buyer)
        for k, amount in enumerate(bids[buyer].demand):
            load[seller][k] += amount
    for seller, used in load.items():
        _require(
            all(u <= c for u, c in zip(used, caps[seller])),
            f"{what}: seller {seller} over capacity ({used} > {list(caps[seller])})",
        )
    total = sum(bids[buyer].amount for buyer in assigned)
    _require(objective == total, f"{what}: objective {objective} != bids {total}")


# ---------------------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        CompareWorkload(
            name="compare-default",
            why="100 paired seeds x {mafl, repeated_srmra} through the CLI, 4000 tiny exact solves: "
            "generation, ledger and bootstrap all carry weight",
            params="default",
            seeds=100,
            mechanisms=("mafl", "repeated_srmra"),
            default_seed=101,
        ),
        CompareWorkload(
            name="compare-users40-greedy",
            why="40 buyers x 4 sellers with the greedy solver: greedy WDP dominates and the "
            "exact search never runs",
            params="users40",
            seeds=14,
            mechanisms=("mafl", "repeated_srmra"),
            default_seed=401,
        ),
        CompareWorkload(
            name="cv-default",
            why="MAFL with critical-value pricing on the default profile: the exact WDP is "
            "re-solved about 13 times per winner",
            params="cv-default.json",
            seeds=2,
            mechanisms=("mafl",),
            default_seed=101,
        ),
        LadderWorkload(
            name="wdp-ladder",
            why="solve_exact alone on fixed sizes 10x1 to 40x4 under a node budget: the only "
            "workload where one search goes past a few hundred nodes",
            sizes=((10, 1), (15, 2), (20, 2), (25, 2), (30, 2), (40, 4)),
            node_budget=100_000,
            default_seed=101,
        ),
    )
}

# Tiny sizes for the smoke test: a couple of seeds, the ladder up to 15x2.
SMOKE = {
    "compare-default": {"seeds": 2},
    "compare-users40-greedy": {"seeds": 2},
    "cv-default": {"seeds": 1},
    "wdp-ladder": {"sizes": ((10, 1), (15, 2))},
}


def workload(name: str, smoke: bool = False):
    chosen = WORKLOADS[name]
    return replace(chosen, **SMOKE[name]) if smoke else chosen
