"""Output checks and the end-to-end quality figures of a benchmark run.

A run collects one :class:`JobResult` per job it ran.  :func:`output_errors`
returns every way the outputs are wrong; the run is correct only when that
list is empty.  The checks:

* every job returns its record type (``RunRecord`` for a synthesis job,
  ``McRecord`` for a Monte Carlo job) and no job fails;
* every result of one spec in a run is ``stable_record``-identical, so a
  served cache hit equals the execution it was served from, and the quality
  and MC yields of one seed agree across the cycles of a run;
* the quality and MC yields agree with those an earlier run of the same
  program, workload and seed left in the checkout (:class:`DigestLedger`).
"""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.api.jobs import Job, JobSpec, McJobSpec
from repro.api.records import ErrorRecord, McRecord, Record, RunRecord, stable_record
from repro.runner import run_job


@dataclass
class JobResult:
    """One job as the benchmark saw it: the record and how long it took."""

    job: Job
    record: Optional[Record]
    latency_s: float
    #: Transport or harness failure text (non-2xx reply, exception).
    error: str = ""
    #: Served from the result cache or coalesced onto an identical job.
    cached: bool = False


def record_error(result: JobResult) -> str:
    """Why ``result`` is not a valid output of its job, or ``""``."""
    if result.error:
        return result.error
    record = result.record
    if isinstance(record, ErrorRecord):
        first = (record.error or "").strip().splitlines()[-1:] or ["?"]
        return f"job failed: {first[0]}"
    expected = McRecord if isinstance(result.job, McJobSpec) else RunRecord
    if not isinstance(record, expected):
        return f"expected {expected.__name__}, got {type(record).__name__}"
    return ""


def digest(record: Record) -> str:
    """Hash of everything in a record except wall-clock and trace fields."""
    payload = json.dumps(stable_record(record), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def output_errors(results: Sequence[JobResult]) -> List[str]:
    """Every record-type, failure and repeat-consistency error of a run."""
    errors: List[str] = []
    first: Dict[Job, str] = {}
    for result in results:
        problem = record_error(result)
        if problem:
            errors.append(f"{result.job.label}: {problem}")
            continue
        assert result.record is not None
        value = digest(result.record)
        seen = first.setdefault(result.job, value)
        if seen != value:
            kind = "cached result" if result.cached else "repeat"
            errors.append(f"{result.job.label}: {kind} differs from the first result")
    return errors


def distinct_records(results: Sequence[JobResult]) -> Dict[Job, Record]:
    """The first valid record of each spec, in first-seen order."""
    records: Dict[Job, Record] = {}
    for result in results:
        if result.job not in records and not record_error(result):
            assert result.record is not None
            records[result.job] = result.record
    return records


def _final(record: Record) -> Dict:
    payload = record.to_record()
    return payload["nominal"] if isinstance(record, McRecord) else payload["summary"]


#: The quality fields a seed must reproduce: final nominal quality of every
#: record, plus the MC sweep's yield.  Counters, digests and notes stay out,
#: so a change that only makes the program faster keeps passing.
QUALITY_FIELDS = ("skew_ps", "clr_ps", "total_capacitance_fF", "slew_violations")
YIELD_FIELDS = ("skew_yield", "skew_p95_ps")


def quality_digest(record: Record) -> str:
    """Hash of a record's final quality and, for MC, its yield."""
    final = _final(record)
    payload = {key: final[key] for key in QUALITY_FIELDS}
    if isinstance(record, McRecord):
        sweep = record.to_record()["yield"]
        payload.update({key: sweep[key] for key in YIELD_FIELDS})
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def program_digest(src: Path) -> str:
    """Hash of every file of the program under ``src``."""
    hasher = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        hasher.update(path.relative_to(src).as_posix().encode("utf-8") + b"\0")
        hasher.update(path.read_bytes() + b"\0")
    return hasher.hexdigest()


class DigestLedger:
    """Per-seed quality digests kept in the checkout between runs.

    The first run of a program, workload and seed writes the quality digest
    of every spec's record; each later run of the same program, traced or
    not, must reproduce them exactly.  Runs of a changed program start a
    ledger of their own.
    """

    def __init__(self, root: Path, program: str, workload: str, size: str, seed: int) -> None:
        self.path = root / f"{workload}-{size}-seed{seed}-{program[:16]}.json"

    def errors(self, records: Dict[Job, Record]) -> List[str]:
        current = {job.label: quality_digest(record) for job, record in records.items()}
        known: Dict[str, str] = {}
        if self.path.exists():
            known = json.loads(self.path.read_text(encoding="utf-8"))
        errors = [
            f"{label}: quality differs from an earlier run of this program with the same seed"
            for label, value in current.items()
            if label in known and known[label] != value
        ]
        if not errors:
            known.update(current)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(known, sort_keys=True, indent=1), encoding="utf-8")
            tmp.replace(self.path)
        return errors


# ----------------------------------------------------------------------
# End-to-end figures
# ----------------------------------------------------------------------
def made_progress(record: Record, initial_skew: Callable[[Job], float], job: Job) -> bool:
    """Whether the flow accepted an IVC round: final skew differs from INITIAL."""
    if isinstance(record, RunRecord):
        start = record.to_record()["stage_table"][0]["skew_ps"]
    else:
        start = initial_skew(job)
    return _final(record)["skew_ps"] != start


def quality(
    records: Dict[Job, Record], initial_skew: Callable[[Job], float]
) -> Dict[str, float]:
    """Mean final quality over the distinct specs of a run (Table IV axes)."""
    finals = [_final(record) for record in records.values()]
    n = len(finals)
    if n == 0:
        return {}
    return {
        "skew_ps": statistics.fmean(f["skew_ps"] for f in finals),
        "clr_ps": statistics.fmean(f["clr_ps"] for f in finals),
        "cap_fF": statistics.fmean(f["total_capacitance_fF"] for f in finals),
        "slew_clean_share": sum(f["slew_violations"] == 0 for f in finals) / n,
        "progress_share": sum(
            made_progress(record, initial_skew, job) for job, record in records.items()
        ) / n,
        "slew_violations": float(sum(f["slew_violations"] for f in finals)),
    }


def yields(records: Dict[Job, Record]) -> Tuple[float, float]:
    """Mean skew yield (%) and mean p95 skew (ps) of the MC sweeps, or zeros."""
    sweeps = [r.to_record()["yield"] for r in records.values() if isinstance(r, McRecord)]
    if not sweeps:
        return 0.0, 0.0
    return (
        100.0 * statistics.fmean(s["skew_yield"] for s in sweeps),
        statistics.fmean(s["skew_p95_ps"] for s in sweeps),
    )


def latency_stats(
    latencies: Sequence[float], cycle: Optional[int] = None
) -> Tuple[float, float, str]:
    """Median, tail and a label saying how they were taken.

    Without ``cycle`` they are the median and the highest percentile with at
    least ten samples beyond it (the maximum when there are ten samples or
    fewer).  In-process runs repeat a panel of ``cycle`` jobs of very
    different sizes, where both land between job sizes: the tail percentile
    on mc_yield is p44, below the median, and moved by 36% between runs, and
    the median of its two-job panel is the mean of the slowest small job and
    the fastest big one.  Their median and tail are the medians over cycles
    of each cycle's median and slowest job.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if cycle is not None:
        cycles = [latencies[i:i + cycle] for i in range(0, n, cycle)]
        return (
            statistics.median(statistics.median(c) for c in cycles),
            statistics.median(max(c) for c in cycles),
            f"median over {len(cycles)} cycles of the cycle's median and slowest job",
        )
    median = statistics.median(ordered)
    if n <= 10:
        return median, ordered[-1], f"max of n={n}"
    return median, ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} of n={n}"


def initial_skew_reference() -> Callable[[Job], float]:
    """INITIAL skew of an MC job's instance, from an INITIAL-only run_job.

    ``McRecord`` carries no stage table, so the benchmark runs the INITIAL
    pass once per instance after the timed window to tell whether the MC
    job's nominal flow made progress.
    """
    cache: Dict[str, float] = {}

    def lookup(job: Job) -> float:
        if job.instance not in cache:
            record = run_job(
                JobSpec(instance=job.instance, engine=job.engine, pipeline=("initial",))
            )
            cache[job.instance] = record.to_record()["stage_table"][0]["skew_ps"]
        return cache[job.instance]

    return lookup
