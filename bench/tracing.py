"""Spans and counters around calls into the program, placed from outside it.

A ``Tracer`` replaces module attributes of the ``mdcauction`` package by
name with wrappers that record a span (name, start, end, parent span,
operation id) per call, and restores them afterwards.  A target that no
longer exists is listed in ``absent`` instead of raising, so a refactor
that removes a function only drops that function's metrics.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "mdcauction"

# (span name, module, attribute path).  Several targets may share a span
# name; their self times add up under it.
SPAN_TARGETS = (
    ("io", "mdcauction.cli", "main"),
    ("io", "mdcauction.io", "load_json"),
    ("io", "mdcauction.io", "parse_params_file"),
    ("io", "mdcauction.io", "compare_summary_lines"),
    ("io", "mdcauction.io", "compare_csv_lines"),
    ("io", "mdcauction.io", "write_lines"),
    ("simlab.compare", "mdcauction.simlab", "compare"),
    ("simlab.generate", "mdcauction.simlab", "generate_scenario"),
    ("simlab.metrics", "mdcauction.simlab", "compute_metrics"),
    ("mechanisms.run", "mdcauction.mechanisms", "run_mafl"),
    ("mechanisms.run", "mdcauction.mechanisms", "run_repeated_srmra"),
    ("mechanisms.round", "mdcauction.mechanisms", "run_srmra"),
    ("mechanisms.adjust_bid", "mdcauction.mechanisms", "adjust_bid"),
    ("mechanisms.pricing", "mdcauction.mechanisms", "_critical_payment"),
    ("wdp.solve_exact", "mdcauction.wdp", "solve_exact"),
    ("wdp.solve_greedy", "mdcauction.wdp", "solve_greedy"),
    ("model.charge", "mdcauction.model", "AuctionLedger.charge"),
)

# (counter name, module, attribute path): calls are counted, no span.
COUNT_TARGETS = (("rng.draws", "mdcauction.rng", "SplitMix64.next_u64"),)

ROOT_SPAN = "pass"
NODE_FUNCTION = "descend"  # the exact solver's per-node recursion
NODE_SPAN = "wdp.solve_exact"
NODES = "wdp.solve_exact.nodes"


def _resolve(module_name: str, path: str):
    """(owner, attribute name, value), or None when the target is missing."""
    owner = sys.modules.get(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    """Records spans in memory while installed; ``uninstall`` restores the program.

    With ``count_nodes``, a profile hook counts calls of the exact
    solver's node function while a solve runs.  The hook slows the
    solver severalfold, so timing passes leave it off.
    """

    def __init__(self, count_nodes: bool = False):
        self.count_nodes = count_nodes
        # [name, start, end, parent index, op id, outcome, nodes]; outcome is the
        # result's `optimal` flag, or the name of the exception raised.
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.op = 0
        self._stack = [-1]
        self._undo: list[tuple] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        for name, module, path in SPAN_TARGETS:
            self._patch(module, path, lambda fn, name=name: self._span_wrapper(fn, name))
        for name, module, path in COUNT_TARGETS:
            self._patch(module, path, lambda fn, name=name: self._count_wrapper(fn, name))

    def uninstall(self) -> None:
        for container, key, original in reversed(self._undo):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._undo.clear()

    def _patch(self, module: str, path: str, make_wrapper) -> None:
        target = _resolve(module, path)
        if target is None:
            self.absent.append(f"{module}.{path}")
            return
        owner, attr, original = target
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        # A module-level function is also reachable through `from x import f`
        # aliases and through registries such as simlab.MECHANISMS.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is original:
                    self._undo.append((namespace, key, original))
                    namespace[key] = wrapper
                elif isinstance(value, dict):
                    for dict_key, item in list(value.items()):
                        if item is original:
                            self._undo.append((value, dict_key, original))
                            value[dict_key] = wrapper

    # -- wrappers -------------------------------------------------------

    def _span_wrapper(self, fn, name: str):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        hook = self._node_hook if self.count_nodes and name == NODE_SPAN else None

        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1], self.op, None, None]
            stack.append(len(spans))
            spans.append(record)
            if hook:
                nodes_before = counts[NODES]
                sys.setprofile(hook)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[5] = type(exc).__name__
                raise
            else:
                record[5] = getattr(result, "optimal", None)
                return result
            finally:
                if hook:
                    sys.setprofile(None)
                    record[6] = counts[NODES] - nodes_before
                stack.pop()
                record[2] = clock()

        return wrapper

    def _count_wrapper(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _node_hook(self, frame, event, arg):
        if event == "call" and frame.f_code.co_name == NODE_FUNCTION:
            self.counts[NODES] += 1

    @contextlib.contextmanager
    def root(self):
        """The benchmark's own span around one whole pass."""
        record = [ROOT_SPAN, time.perf_counter(), 0.0, -1, self.op, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()


def self_times(spans: list[list]) -> dict[str, float]:
    """Per span name: total duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for _name, start, end, parent, *_ in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for index, (name, start, end, *_) in enumerate(spans):
        totals[name] += (end - start) - covered[index]
    return dict(totals)


def call_counts(spans: list[list]) -> Counter:
    return Counter(span[0] for span in spans)


def calls_under(spans: list[list], child: str, ancestor: str) -> int:
    """Number of ``child`` spans that have an ``ancestor`` span above them."""
    total = 0
    for span in spans:
        if span[0] != child:
            continue
        parent = span[3]
        while parent >= 0:
            if spans[parent][0] == ancestor:
                total += 1
                break
            parent = spans[parent][3]
    return total
