"""Deterministic counters: two traced runs of the same code must give the same counts.

Run from the repository root:

    python3 bench/counters.py            # two runs per workload, compared with each other
                                         # and with the counts recorded in counters.json
    python3 bench/counters.py --record   # the same, then rewrite counters.json

Each run is ``run.py --trace 1`` at the workload's default seed.  Exit
code 1 means the two runs disagreed; a difference from the recorded
counts is printed but is expected after a change to the program.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import workloads as wl

RECORDED = wl.BENCH_DIR / "counters.json"


def collect(workload: str, smoke: bool = False) -> dict:
    """Counters of one traced run at the workload's default seed."""
    work = wl.workload(workload, smoke)
    command = [sys.executable, str(wl.BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(work.default_seed), "--seconds", "1", "--trace", "1"]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=wl.ROOT, capture_output=True, text=True, timeout=180)
    result = json.loads(done.stdout.splitlines()[-1])
    if done.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{workload}: traced run failed\n{done.stderr}")
    record = json.loads((wl.OUT_DIR / f"{workload}.trace1.json").read_text(encoding="utf-8"))
    notes = record["notes"]
    counters = {"seed": work.default_seed, **notes["counters"]}
    if notes["nodes_per_solve"] is not None:
        counters["node_budget"] = work.node_budget
        counters["nodes_per_solve"] = notes["nodes_per_solve"]
    machine = {k: record["environment"][k] for k in ("python", "implementation", "platform", "nproc")}
    return {"environment": machine, "counters": counters}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true", help="rewrite counters.json")
    args = parser.parse_args(argv)
    recorded = json.loads(RECORDED.read_text(encoding="utf-8")) if RECORDED.is_file() else {}
    agreed = True
    fresh = {}
    for name in wl.WORKLOADS:
        first, second = collect(name), collect(name)
        fresh[name] = first["counters"]
        if first["counters"] != second["counters"]:
            agreed = False
            print(f"{name}: two runs disagree\n  {first['counters']}\n  {second['counters']}")
            continue
        before = recorded.get("workloads", {}).get(name)
        changed = sorted(k for k in set(fresh[name]) | set(before or {})
                         if (before or {}).get(k) != fresh[name].get(k))
        print(f"{name}: two runs agree; " + (f"changed since recorded: {changed}" if changed else "as recorded"))
    if agreed and args.record:
        RECORDED.write_text(json.dumps(
            {"environment": first["environment"], "workloads": fresh}, indent=1) + "\n", encoding="utf-8")
    return 0 if agreed else 1


if __name__ == "__main__":
    sys.exit(main())
