#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size (about a minute on 2 CPUs).

    python3 perfbench/selftest.py

Checks that:

* every metric named in BENCHMARK.json is emitted by ``run.py`` with its
  unit and direction, in both modes, on every workload;
* each workload regenerates the same job list from its seed, and the seed
  changes the order;
* a corrupted result fails the output checks.

Exits 0 when every check passes.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from catalog import WORKLOADS, served_stream  # noqa: E402
from checks import DigestLedger, JobResult, distinct_records, output_errors  # noqa: E402
from harness import execute  # noqa: E402
from repro.api.records import ErrorRecord, McRecord  # noqa: E402

FAILURES: List[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        FAILURES.append(message)
        print(f"FAIL: {message}")


def check_emitted(workload: str, trace: int) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    where = f"{workload} --trace {trace}"
    expect(proc.returncode == 0, f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        expect(False, f"{where}: printed nothing")
        return
    result = json.loads(lines[-1])
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{where}: result keys")
    expect(result["correct"] is True and result["failed"] == 0, f"{where}: not correct")
    expect(list(result["metrics"]) == [m["name"] for m in expected], f"{where}: metric names differ")
    for metric in expected:
        emitted = result["metrics"].get(metric["name"], {})
        expect(emitted.get("unit") == metric["unit"], f"{where}: {metric['name']} unit")
        line = re.compile(
            rf"^{re.escape(metric['name'])} = \S+ {re.escape(metric['unit'])} "
            rf"\({metric['better']} is better\)$", re.M)
        expect(bool(line.search(proc.stdout)), f"{where}: {metric['name']} line lacks unit/direction")


def check_seeded_jobs() -> None:
    for workload in WORKLOADS.values():
        for size in ("tiny", "full"):
            first = [workload.cycle(5, i, size) for i in range(3)]
            again = [workload.cycle(5, i, size) for i in range(3)]
            expect(first == again, f"{workload.name}/{size}: cycles not reproducible from the seed")
            orders = {tuple(job.label for job in workload.cycle(s, 0, size)) for s in range(10)}
            expect(len(orders) > 1, f"{workload.name}/{size}: the seed does not change the order")
            expect(set(first[0]) == set(workload.panel(size)), f"{workload.name}/{size}: panel lost")
        if workload.mode == "served":
            stream = served_stream(workload, 5)
            expect(stream == served_stream(workload, 5), "served stream not reproducible")
            expect(stream != served_stream(workload, 6), "the seed does not change the stream")
            expect(len(stream) == 3 * len(workload.full) // 2, "served stream: a third repeats")


def check_corruption_detected() -> None:
    jobs = WORKLOADS["mc_yield"].tiny[:1] + WORKLOADS["ispd_chips"].tiny[:1]
    results = [execute(job) for job in jobs] * 2
    expect(output_errors(results) == [], f"clean results flagged: {output_errors(results)}")

    def corrupted(change: Callable[[JobResult], None]) -> List[JobResult]:
        bad = [copy.deepcopy(r) for r in results]
        change(bad[-1])
        return bad

    def skew(result: JobResult) -> None:
        result.record.summary.skew_ps += 1e-9

    def yield_(result: JobResult) -> None:
        result.record.yield_.skew_yield += 0.01

    def failure(result: JobResult) -> None:
        result.record = ErrorRecord(job=result.job.label, error="Traceback\nValueError: boom")

    def wrong_type(result: JobResult) -> None:
        result.record = McRecord(job=result.job.label)

    expect(bool(output_errors(corrupted(skew))), "a changed skew passed the checks")
    expect(bool(output_errors(corrupted(failure))), "an ErrorRecord passed the checks")
    expect(bool(output_errors(corrupted(wrong_type))), "a wrong record type passed the checks")
    bad = [copy.deepcopy(r) for r in results]
    yield_(bad[0])
    expect(bool(output_errors(bad)), "a changed MC yield passed the checks")

    def counters(result: JobResult) -> None:
        cache = result.record.evaluator_cache
        cache["hits"] = cache.get("hits", 0) + 1

    with tempfile.TemporaryDirectory() as scratch:
        ledger = DigestLedger(Path(scratch), "program-a", "selftest", "tiny", 0)
        expect(ledger.errors(distinct_records(results)) == [], "first ledger write flagged")
        expect(ledger.errors(distinct_records(results)) == [], "identical rerun flagged")
        drifted = distinct_records(corrupted(skew)[len(jobs):])
        expect(bool(ledger.errors(drifted)), "a quality differing from an earlier run passed")
        faster = distinct_records(corrupted(counters)[len(jobs):])
        expect(ledger.errors(faster) == [], "a change of cache counters alone was flagged")
        other = DigestLedger(Path(scratch), "program-b", "selftest", "tiny", 0)
        expect(other.errors(drifted) == [], "a changed program was held to another's quality")


def main() -> int:
    check_seeded_jobs()
    check_corruption_detected()
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_emitted(workload, trace)
    print(f"selftest: {len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
