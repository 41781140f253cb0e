"""Benchmark for mdcauction: four workloads, end-to-end metrics, a traced per-layer split.

Run from the repository root:

    python3 bench/run.py --workload compare-default --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``compare-default``,
``compare-users40-greedy``, ``cv-default`` and ``wdp-ladder``.  Everything
runs in this process on one thread.  Pass 0 runs the workload's default
seed and must reproduce the output recorded in ``bench/expected/``;
pass 1 runs ``--seed`` and later passes a stream derived from it, so a
run covers many inputs and its figures move little from seed to seed.
Every pass is checked after it is timed.  A failed operation ends the
run with ``"correct": false``; each operation runs under a wall cap and
the run under a deadline, so a solver that stops making progress fails
instead of hanging.

``--trace 0`` prints the end-to-end metrics:

- ``setup_s``: median over several fresh interpreters of the time to
  import the program, load its params and build the first input (ladder
  instances with their greedy references);
- ``rounds_per_s``: median over passes of auction rounds cleared per
  second (one ladder instance counts as one round);
- ``peak_rss_mib``: ``ru_maxrss`` of this process;
- ``solved_share``: operations that completed and passed every check,
  over operations attempted.  A ladder instance that exhausts its node
  budget is not solved (``failed_share``, printed, counts it as failed);
- ``objective_ratio``: objective returned over the greedy objective for
  the same inputs.  On the ladder it sums every measured instance; on a
  comparison it is the total utility of the pass over ``--seed`` over
  that of the same comparison cleared by the greedy solver.

It also prints ``pass_tail_s``, the pass time with ten passes slower
than it (the fastest pass when a run makes eleven or fewer), with the
pass count.  A run makes about ten passes of one to three seconds, so
this is a low order statistic that host noise moves by a third from run
to run; it is printed and recorded but left out of the JSON result.

``--trace 1`` prints the per-layer metrics instead.  After the checked
default-seed pass it makes one counting pass over the ``--seed`` input,
with spans and a profile hook that counts exact-search nodes; the
counts come from it.  Then it alternates untraced and traced passes
over the same input; the self times come from the traced pass of median
length, whose spans are written to ``bench/out/<workload>.spans.jsonl``.
"""

import time

_STARTED = time.perf_counter()  # a setup probe times everything from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REPEATS = 7
PASS_CAP_S = 60.0
SMOKE_PASS_CAP_S = 10.0
RUN_DEADLINE_S = 165.0
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "rounds_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "solved_share": "share",
    "objective_ratio": "ratio",
}

PER_LAYER = {
    "wdp.solve_exact.self_s": "s",
    "wdp.solve_exact.calls": "count",
    "wdp.solve_exact.nodes": "count",
    "wdp.solve_exact.nodes_per_call": "count",
    "wdp.solve_exact.proven_share": "share",
    "wdp.solve_exact.budget_exceeded": "count",
    "wdp.solve_greedy.self_s": "s",
    "wdp.solve_greedy.calls": "count",
    "mechanisms.pricing.self_s": "s",
    "mechanisms.pricing.calls": "count",
    "mechanisms.pricing.wdp_calls_per_winner": "count",
    "mechanisms.run.self_s": "s",
    "mechanisms.rounds": "count",
    "mechanisms.adjust_bid.self_s": "s",
    "mechanisms.adjust_bid.calls": "count",
    "rng.draws": "count",
    "simlab.generate.self_s": "s",
    "simlab.generate.calls": "count",
    "model.charge.self_s": "s",
    "model.charge.calls": "count",
    "simlab.compare.self_s": "s",
    "simlab.metrics.self_s": "s",
    "io.self_s": "s",
    "trace.pass_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_share": "share",
}

# The spans each per-layer metric reads; it is reported as absent when
# every target behind one of them is gone from the program.
_NEEDS = {
    "wdp.solve_exact": ("wdp.solve_exact",),
    "wdp.solve_greedy": ("wdp.solve_greedy",),
    "mechanisms.pricing": ("mechanisms.pricing",),
    "mechanisms.run": ("mechanisms.run", "mechanisms.round"),
    "mechanisms.rounds": ("mechanisms.round",),
    "mechanisms.adjust_bid": ("mechanisms.adjust_bid",),
    "simlab.generate": ("simlab.generate",),
    "model.charge": ("model.charge",),
    "simlab.compare": ("simlab.compare",),
    "simlab.metrics": ("simlab.metrics",),
    "io": ("io",),
}


class WallCapExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise WallCapExceeded("operation exceeded its wall cap")


class Run:
    """Counts operations and failures; every call into the program goes through ``op``."""

    def __init__(self, smoke: bool):
        signal.signal(signal.SIGALRM, _on_alarm)
        self.cap = SMOKE_PASS_CAP_S if smoke else PASS_CAP_S
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.exhausted = 0
        self.errors: list[str] = []

    def op(self, fn, *args, **kwargs):
        """Run one operation; return its result, or None after recording its failure."""
        cap = min(self.cap, self.deadline - time.monotonic())
        if cap <= 0:
            return self._fail("run deadline reached\n")
        signal.setitimer(signal.ITIMER_REAL, cap)
        try:
            result = fn(*args, **kwargs)
        # SystemExit too: argparse exits on an argument the program rejects.
        except (Exception, SystemExit):
            return self._fail(traceback.format_exc())
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if isinstance(result, wl.PassResult):
            self.attempted += result.ops
            self.exhausted += result.exhausted
        return result

    def _fail(self, error: str):
        self.attempted += 1
        self.failed += 1
        self.errors.append(error)
        return None


def _checked(work, program, state, inputs, tracer=None):
    result = work.run(program, state, inputs, tracer=tracer)
    work.check(program, state, inputs, result)
    return result


def _probe_setup(args) -> float:
    command = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, timeout=PASS_CAP_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _tail(times: list[float]) -> tuple[float, str]:
    ordered = sorted(times)
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    share = 100.0 * index / len(ordered)
    return ordered[index], f"p{share:.0f} of {len(ordered)} passes, {len(ordered) - 1 - index} beyond"


def measure(work, program, args, run: Run) -> tuple[dict, dict]:
    """The untraced run: end-to-end metrics, and notes on how they were taken."""
    setup_times = []
    for _ in range(2 if args.smoke else SETUP_REPEATS):
        probe = run.op(_probe_setup, args)
        if probe is None:
            return {}, {}
        setup_times.append(probe)
    state = run.op(work.setup, program)
    if state is None:
        return {}, {}
    reference = None
    if hasattr(work, "reference"):
        reference = run.op(work.reference, program, state, args.seed)
        if reference is None:
            return {}, {}

    passes = []
    seeds = []
    start = time.perf_counter()
    for k, seed in enumerate(wl.input_seeds(work.default_seed, args.seed)):
        inputs = state["inputs"] if k == 0 else run.op(work.inputs, program, state, seed)
        result = None if inputs is None else run.op(_checked, work, program, state, inputs)
        if result is None:
            return {}, {}
        passes.append(result)
        seeds.append(seed)
        if k >= 1 and time.perf_counter() - start >= args.seconds:
            break

    tail, tail_note = _tail([p.elapsed for p in passes])
    if reference is not None:
        ratio = passes[1].objective / reference.objective
    else:
        ratio = sum(p.objective for p in passes) / sum(p.reference for p in passes)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "rounds_per_s": statistics.median(p.rounds / p.elapsed for p in passes),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "solved_share": (run.attempted - run.failed - run.exhausted) / run.attempted,
        "objective_ratio": ratio,
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh interpreters",
        "pass_tail_s": tail,
        "pass_tail": tail_note,
        "passes": len(passes),
        "pass_seeds": seeds,
        "pass_times_s": [p.elapsed for p in passes],
        "failed_share": (run.failed + run.exhausted) / run.attempted,
    }
    return metrics, notes


def _traced(work, program, state, inputs, tracer: tracing.Tracer, op_id: int):
    tracer.op = op_id
    tracer.install()
    try:
        result = work.run(program, state, inputs, tracer=tracer)
    finally:
        tracer.uninstall()
    work.check(program, state, inputs, result)
    return result


def _same_as_counting(counting, first, tracer, traced, untraced) -> bool:
    """Tracing changes no output, and every pass over one input repeats the counts."""
    for what, a, b in (
        ("traced output", traced.output, first.output),
        ("untraced output", untraced.output, first.output),
        ("call counts", tracing.call_counts(tracer.spans), tracing.call_counts(counting.spans)),
        ("rng draws", tracer.counts["rng.draws"], counting.counts["rng.draws"]),
    ):
        if a != b:
            raise wl.CheckFailed(f"{what} differs between passes over the same input")
    return True


def _layer_counts(tracer: tracing.Tracer) -> dict:
    spans = tracer.spans
    calls = tracing.call_counts(spans)
    exact = [s for s in spans if s[0] == "wdp.solve_exact"]
    proven = sum(1 for s in exact if s[5] is True)
    winners = calls["mechanisms.pricing"]
    pricing_solves = tracing.calls_under(spans, "wdp.solve_exact", "mechanisms.pricing") + \
        tracing.calls_under(spans, "wdp.solve_greedy", "mechanisms.pricing")
    nodes = tracer.counts[tracing.NODES]
    counts = {
        "wdp.solve_exact.calls": len(exact),
        "wdp.solve_exact.proven_share": proven / len(exact) if exact else 0.0,
        "wdp.solve_exact.budget_exceeded": len(exact) - proven,
        "wdp.solve_greedy.calls": calls["wdp.solve_greedy"],
        "mechanisms.pricing.calls": winners,
        "mechanisms.pricing.wdp_calls_per_winner": pricing_solves / winners if winners else 0.0,
        "mechanisms.rounds": calls["mechanisms.round"],
        "mechanisms.adjust_bid.calls": calls["mechanisms.adjust_bid"],
        "rng.draws": tracer.counts["rng.draws"],
        "simlab.generate.calls": calls["simlab.generate"],
        "model.charge.calls": calls["model.charge"],
    }
    if nodes or not exact:  # no nodes with solves means the node function was renamed
        counts["wdp.solve_exact.nodes"] = nodes
        counts["wdp.solve_exact.nodes_per_call"] = nodes / len(exact) if exact else 0.0
    return counts


def _layer_times(spans: list) -> dict:
    selfs = tracing.self_times(spans)
    pass_s = spans[0][2] - spans[0][1]
    if abs(sum(selfs.values()) - pass_s) > 1e-6 * max(pass_s, 1.0):
        raise wl.CheckFailed("self times do not add up to the traced pass time")
    return {
        "wdp.solve_exact.self_s": selfs.get("wdp.solve_exact", 0.0),
        "wdp.solve_greedy.self_s": selfs.get("wdp.solve_greedy", 0.0),
        "mechanisms.pricing.self_s": selfs.get("mechanisms.pricing", 0.0),
        "mechanisms.run.self_s": selfs.get("mechanisms.run", 0.0) + selfs.get("mechanisms.round", 0.0),
        "mechanisms.adjust_bid.self_s": selfs.get("mechanisms.adjust_bid", 0.0),
        "simlab.generate.self_s": selfs.get("simlab.generate", 0.0),
        "model.charge.self_s": selfs.get("model.charge", 0.0),
        "simlab.compare.self_s": selfs.get("simlab.compare", 0.0),
        "simlab.metrics.self_s": selfs.get("simlab.metrics", 0.0),
        "io.self_s": selfs.get("io", 0.0),
        "trace.pass_s": pass_s,
        "trace.unattributed_s": selfs[tracing.ROOT_SPAN],
    }


def measure_traced(work, program, args, run: Run) -> tuple[dict, dict]:
    """The traced run: per-layer metrics, and the counters that must repeat exactly."""
    state = run.op(work.setup, program)
    if state is None or run.op(_checked, work, program, state, state["inputs"]) is None:
        return {}, {}
    inputs = run.op(work.inputs, program, state, args.seed)
    if inputs is None:
        return {}, {}
    counting = tracing.Tracer(count_nodes=True)
    first = run.op(_traced, work, program, state, inputs, counting, 0)
    if first is None:
        return {}, {}
    counts = _layer_counts(counting)

    plain, traced = [], []
    start = time.perf_counter()
    while True:
        untraced = run.op(_checked, work, program, state, inputs)
        tracer = tracing.Tracer()
        result = None if untraced is None else run.op(
            _traced, work, program, state, inputs, tracer, len(traced) + 1
        )
        if result is None:
            break
        if run.op(_same_as_counting, counting, first, tracer, result, untraced) is None:
            break
        plain.append(untraced.elapsed)
        traced.append(tracer)
        if time.perf_counter() - start >= args.seconds:
            break
    if not traced:
        return {}, {}

    traced.sort(key=lambda t: t.spans[0][2] - t.spans[0][1])
    median_pass = traced[(len(traced) - 1) // 2]
    times = run.op(_layer_times, median_pass.spans)
    if times is None:
        return {}, {}
    traced_s = statistics.median(t.spans[0][2] - t.spans[0][1] for t in traced)
    metrics = {**counts, **times, "trace.overhead_share": traced_s / statistics.median(plain) - 1.0}
    present = {name for name, module, path in tracing.SPAN_TARGETS
               if f"{module}.{path}" not in counting.absent}
    for prefix, needed in _NEEDS.items():
        if not all(n in present for n in needed):
            for name in [m for m in metrics if m == prefix or m.startswith(prefix + ".")]:
                del metrics[name]
    ladder_nodes = [s[6] for s in counting.spans if s[0] == "wdp.solve_exact"]
    notes = {
        "passes": len(traced),
        "absent_targets": counting.absent,
        "counters": {name: value for name, value in counts.items() if name in metrics},
        "nodes_per_solve": ladder_nodes if isinstance(work, wl.LadderWorkload) else None,
        "median_traced_pass": median_pass.spans,
    }
    return metrics, notes


def environment(work, args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": work.name,
        "seed": args.seed,
        "default_seed": work.default_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "node_budget": getattr(work, "node_budget", None),
        "sizes": [f"{n}x{m}" for n, m in getattr(work, "sizes", ())] or None,
        "seeds_per_pass": getattr(work, "seeds", None),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    work = wl.workload(args.workload, args.smoke)
    try:
        program = wl.import_program()
    except (wl.ProgramMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        work.setup(program)
        print(time.perf_counter() - _STARTED)
        return 0

    wl.OUT_DIR.mkdir(exist_ok=True)
    run = Run(args.smoke)
    measured = measure_traced if args.trace else measure
    metrics, notes = measured(work, program, args, run)
    units = PER_LAYER if args.trace else END_TO_END
    env = environment(work, args)

    spans = notes.pop("median_traced_pass", None)
    if spans is not None:
        with open(wl.OUT_DIR / f"{work.name}.spans.jsonl", "w", encoding="utf-8") as handle:
            for name, start, end, parent, op, outcome, nodes in spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                         "op": op, "outcome": outcome, "nodes": nodes}) + "\n")
    record = {"environment": env, "metrics": metrics, "notes": notes, "errors": run.errors,
              "attempted": run.attempted, "failed": run.failed}
    with open(wl.OUT_DIR / f"{work.name}.trace{args.trace}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")

    for error in run.errors:
        print(error, file=sys.stderr, end="")
    print("# " + " ".join(f"{key}={value}" for key, value in env.items() if value is not None))
    for name, unit in units.items():
        if name in metrics:
            note = notes.get(name)
            print(f"{name:42s} {metrics[name]:14.6g} {unit}" + (f"  ({note})" if note else ""))
        else:
            print(f"{name:42s} {'absent':>14s} {unit}")
    if "pass_tail_s" in notes:
        print(f"{'pass_tail_s':42s} {notes['pass_tail_s']:14.6g} s  ({notes['pass_tail']}; not in the result)")
    for key in ("passes", "failed_share", "absent_targets"):
        if key in notes:
            print(f"# {key}={notes[key]}")
    correct = run.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if correct else max(run.failed, 1),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
