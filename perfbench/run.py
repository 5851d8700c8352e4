#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload ispd_chips --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the program from ``src/``.
The workloads and the reasons for them are in ``catalog.py``; the metric
names, units and directions are read from ``BENCHMARK.json``.  ``--seconds``
sizes the work: a run repeats its workload's panel as often as fits that
many seconds on the reference host, so every run of one ``--seconds`` times
the same jobs.

``--trace 0`` times the workload untraced and prints every end-to-end metric;
its job times and rates are scaled to the reference host's speed
(``hostspeed.py``), and the raw ones are printed on a ``#`` line.
``--trace 1`` runs one untraced reference cycle, then the same jobs traced,
and prints every per-layer metric; a layer that does no work in the
workload reads 0.  Both modes check the outputs (``checks.py``).  Human-
readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: The workloads and metrics, with each metric's unit, direction and bound.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
END_TO_END: Dict[str, Dict] = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER: Dict[str, Dict] = {m["name"]: m for m in SPEC["per_layer"]}


def emit(errors: Sequence[str], attempted: int, failed: int, metrics: Dict[str, float],
         table: Dict[str, Dict]) -> int:
    """Print the metrics and the result line; the exit code."""
    for error in errors:
        print(f"# CHECK FAILED: {error}")
        print(f"check failed: {error}", file=sys.stderr)
    values = {name: metrics.get(name, 0.0) for name in table}
    for name, value in values.items():
        print(f"{name} = {value:.6g} {table[name]['unit']} ({table[name]['better']} is better)")
    correct = not errors and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": table[name]["unit"]} for name, value in values.items()},
    }))
    return 0 if correct else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the self-test panels")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one cold set-up, print it as JSON and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"benchmark cannot run: the program is missing ({src / 'repro'})", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    start = time.perf_counter()
    import harness
    from catalog import WORKLOADS

    import_s = time.perf_counter() - start
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        setup_s, stack = harness.timed_setup(workload, import_s)
        if stack is not None:
            stack.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.trace:
        errors, results, metrics = harness.traced_run(
            workload, args.seed, args.seconds, args.size
        )
        table = PER_LAYER
    else:
        errors, results, metrics = harness.end_to_end_run(
            workload, args.seed, args.seconds, args.size, import_s
        )
        table = END_TO_END
    failed = sum(1 for r in results if harness.record_error(r))
    return emit(errors, len(results), failed, metrics, table)


if __name__ == "__main__":
    sys.exit(main())
