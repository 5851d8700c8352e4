"""Running a workload: set-up, the timed window, the checks and the figures.

``run.py`` imports this module after putting ``src/`` on the path, and the
time that import takes is part of ``setup_s``.  Every set-up ``setup_s``
counts is cold: it runs in a process that has done nothing else (the run's
own process, and a fresh one started by :func:`cold_setup` after every cycle
or pass), so first-call costs of the program show in it.
"""

from __future__ import annotations

import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from catalog import Workload, served_stream
from checks import (
    DigestLedger,
    JobResult,
    digest,
    distinct_records,
    initial_skew_reference,
    latency_stats,
    output_errors,
    program_digest,
    quality,
    record_error,
    yields,
)
from hostspeed import HostSpeed
from layers import LayerProbe, remainders, span_layers
from repro.api.jobs import Job, McJobSpec
from repro.api.records import Record
from repro.obs import NULL_TRACER, Tracer
from repro.runner import resolve_instance, run_job, run_mc_job
from served import Reply, ServedStack, closed_loop, pool_executions, request

#: Cached served jobs re-run in-process after the window and compared.
FRESH_RECHECKS = 3


#: The checkout root; a run reads and writes nothing outside it.
ROOT = Path(__file__).resolve().parent.parent
#: Quality digests of earlier runs, compared by every later run of a seed.
STATE_DIR = ROOT / ".perfbench_state"
#: Scratch stores of the served workload; removed before the run exits.
WORK_DIR = ROOT / ".perfbench_work"


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of each live worker.

    Read while the workers still run: a worker's peak (``VmHWM``) is gone
    once it is reaped.  Set-up subprocesses have ended by then and do not
    count.
    """
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own_kb + sum(_worker_peak_kb(pid) for pid in _children())) / 1024.0


def _children() -> List[int]:
    """Pids of this process's live children (pool workers, on Linux)."""
    me = str(os.getpid())
    pids: List[int] = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The command name may hold spaces; the fields after its ")" do not.
        if stat.rsplit(")", 1)[1].split()[1] == me:
            pids.append(int(entry.name))
    return pids


def _worker_peak_kb(pid: int) -> int:
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


# ----------------------------------------------------------------------
# Running jobs
# ----------------------------------------------------------------------
def execute(job: Job, tracer: Optional[Tracer] = None) -> JobResult:
    """Run one job in-process through ``run_job`` / ``run_mc_job``."""
    start = time.perf_counter()
    try:
        if isinstance(job, McJobSpec):
            record: Record = run_mc_job(job, tracer=tracer)
        else:
            record = run_job(job, tracer=tracer)
    except Exception:
        error = traceback.format_exc().strip().splitlines()[-1]
        return JobResult(job, None, time.perf_counter() - start, error=error)
    return JobResult(job, record, time.perf_counter() - start)


def run_cycles(
    workload: Workload,
    seed: int,
    cycles: int,
    size: str,
    probe: Optional[LayerProbe] = None,
    between: Optional[Callable[[], None]] = None,
) -> Tuple[List[JobResult], float, List[float], List[Tracer]]:
    """``cycles`` whole panel cycles, one job at a time.

    Returns the results, the window (the cycles' summed wall time), each
    cycle's wall time and, with a ``probe``, one tracer per job.  ``between``
    runs after every cycle, outside its time.
    """
    results: List[JobResult] = []
    walls: List[float] = []
    tracers: List[Tracer] = []
    for index in range(cycles):
        cycle_start = time.perf_counter()
        for job in workload.cycle(seed, index, size):
            tracer = None
            if probe is not None:
                tracer = Tracer()
                probe.tracer = tracer
                tracers.append(tracer)
            results.append(execute(job, tracer))
        if probe is not None:
            probe.tracer = NULL_TRACER
        walls.append(time.perf_counter() - cycle_start)
        if between is not None:
            between()
    return results, sum(walls), walls, tracers


def run_passes(
    stack: ServedStack,
    workload: Workload,
    seed: int,
    passes: int,
    size: str,
    between: Optional[Callable[[], None]] = None,
) -> Tuple[List[Reply], float, List[float], int]:
    """``passes`` whole passes of the request stream.

    Every pass after the first gets a new server and an empty store, so each
    pass starts with a cold result cache.  Returns the replies, the window
    (the passes' summed wall time), each pass's wall time and the pool
    executions.  ``between`` runs after every pass, while the pool is idle.
    """
    stream = served_stream(workload, seed, size)
    replies: List[Reply] = []
    walls: List[float] = []
    executions = 0
    for index in range(passes):
        if index:
            stack.next_pass()
        before = pool_executions(stack.port)  # the set-up's warm-up job, on the first server
        batch, elapsed = closed_loop(stack.port, stream, stack.workers)
        executions += pool_executions(stack.port) - before
        replies += batch
        walls.append(elapsed)
        if between is not None:
            between()
    return replies, sum(walls), walls, executions


def served_workers() -> int:
    """Pool workers and HTTP clients of served_mix: ``min(2, nproc)``."""
    return min(2, os.cpu_count() or 1)


def set_up(workload: Workload, rep: int, trace: bool = False) -> Optional[ServedStack]:
    """One set-up: for served_mix a warm pool and server, then one warm-up job.

    Returns the served stack (``None`` in-process).  Raises when the warm-up
    job fails.
    """
    warm_up = workload.tiny[0]
    stack: Optional[ServedStack] = None
    if workload.mode == "served":
        stack = ServedStack(WORK_DIR / f"{os.getpid()}-{rep}", served_workers(), trace).start()
        result: JobResult = request(stack.port, warm_up)
    else:
        result = execute(warm_up)
    problem = record_error(result)
    if problem:
        if stack is not None:
            stack.close()
        raise RuntimeError(f"warm-up job {warm_up.label} failed: {problem}")
    return stack


def cold_setup(workload: Workload) -> float:
    """One cold set-up in a fresh process; its time.

    The process runs ``run.py --setup-only``: it imports the program, sets up
    as a run does (import time included), tears down and prints the time.
    """
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload.name,
               "--seed", "0", "--seconds", "1", "--setup-only"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"cold set-up of {workload.name} failed: {proc.stderr[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def timed_setup(workload: Workload, import_s: float) -> Tuple[float, Optional[ServedStack]]:
    """This process's own set-up (import plus the first warm-up job) and its time."""
    start = time.perf_counter()
    stack = set_up(workload, 0)
    return import_s + time.perf_counter() - start, stack


# ----------------------------------------------------------------------
# Checks and properties
# ----------------------------------------------------------------------
def check_run(
    workload: Workload, seed: int, size: str, results: Sequence[JobResult]
) -> Tuple[List[str], Dict[Job, Record]]:
    """Every output error of a run, and the first record of each spec."""
    errors = output_errors(results)
    records = distinct_records(results)
    program = program_digest(ROOT / "src" / "repro")
    errors += DigestLedger(STATE_DIR, program, workload.name, size, seed).errors(records)
    cached = sorted(
        {r.job for r in results if r.cached and not record_error(r)}, key=lambda j: j.label
    )
    recheck = random.Random(f"recheck/{seed}").sample(cached, min(FRESH_RECHECKS, len(cached)))
    for job in recheck:
        fresh = execute(job)
        if record_error(fresh) or digest(fresh.record) != digest(records[job]):
            errors.append(f"{job.label}: cached result differs from a fresh in-process run")
    return errors, records


def print_properties(
    workload: Workload, seed: int, size: str, records: Dict[Job, Record], progress_share: float
) -> None:
    """Shares of jobs with the properties a later optimisation may depend on."""
    n = len(records)
    obstacles = sum(len(resolve_instance(job).obstacles) > 0 for job in records)
    print(f"# property: zero-progress specs {1.0 - progress_share:.3f} of {n}")
    print(f"# property: specs on instances with obstacles {obstacles / max(n, 1):.3f} of {n}")
    if workload.mode == "served":
        stream = served_stream(workload, seed, size)
        repeats = sum(job in stream[:i] for i, job in enumerate(stream))
        print(f"# property: submissions repeating a fingerprint {repeats / len(stream):.3f} "
              f"of {len(stream)} per pass")


# ----------------------------------------------------------------------
# The two modes
# ----------------------------------------------------------------------
def end_to_end_run(
    workload: Workload, seed: int, seconds: float, size: str, import_s: float
) -> Tuple[List[str], List[JobResult], Dict[str, float]]:
    """Set up, run the timed window untraced, check; the end-to-end metrics."""
    own_setup_s, stack = timed_setup(workload, import_s)
    setups = [own_setup_s]
    speed = HostSpeed(served_workers() if workload.mode == "served" else 1)
    speed.probe()

    def between() -> None:
        # Set-ups and probes spread over the run sample the host's state
        # the way the cycles do; a run's set-ups all taken at its start
        # shared one stretch of it.
        setups.append(cold_setup(workload))
        speed.probe()

    repeats = workload.repeats(seconds)
    try:
        if stack is None:
            results, window, walls, _ = run_cycles(workload, seed, repeats, size, between=between)
        else:
            replies, window, walls, _ = run_passes(stack, workload, seed, repeats, size, between)
            results = list(replies)
        peak_mb = peak_rss_mb()
    finally:
        if stack is not None:
            stack.close()
    errors, records = check_run(workload, seed, size, results)
    figures = quality(records, initial_skew_reference())
    cycle = len(workload.panel(size)) if stack is None else None
    p50, tail, latency_label = latency_stats([r.latency_s for r in results], cycle)
    ok = sum(1 for r in results if not record_error(r))
    print(f"# workload {workload.name} seed {seed}: {len(results)} jobs in {window:.2f} s, "
          f"{len(records)} distinct specs; latency p50 and tail: {latency_label}")
    print(f"# slew violations over the distinct specs: {figures.get('slew_violations', 0):.0f}")
    print_properties(workload, seed, size, records, figures.get("progress_share", 0.0))
    raw = {
        # The median cycle's rate: a slow stretch of a shared host moves it
        # less than the whole window's count does.
        "jobs_per_s": len(results) / len(walls) / statistics.median(walls),
        "latency_p50_s": p50,
        "latency_tail_s": tail,
    }
    factor = speed.factor
    print(f"# host speed factor {factor:.4f} (median of {len(speed.probes)} probes); raw: "
          + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()))
    metrics = {
        # Not scaled: much of a set-up is process start-up, which the probe
        # does not track (hostspeed.py).
        "setup_s": statistics.median(setups),
        "jobs_per_s": raw["jobs_per_s"] / factor,
        "latency_p50_s": p50 * factor,
        "latency_tail_s": tail * factor,
    }
    metrics.update({
        "ok_share": ok / len(results),
        "peak_rss_mb": peak_mb,
        **figures,
    })
    return errors, results, metrics


def traced_run(
    workload: Workload, seed: int, seconds: float, size: str
) -> Tuple[List[str], List[JobResult], Dict[str, float]]:
    """One untraced reference cycle or pass, then traced ones; per-layer metrics.

    Both follow a warm-up job, so the reference cycle pays no first-call
    costs the traced ones do not.  Layers that do no work in the workload
    read 0.
    """
    probe = LayerProbe()
    metrics: Dict[str, float] = {}
    stack = set_up(workload, 0)
    if stack is not None:
        try:
            replies, _, ref_walls, _ = run_passes(stack, workload, seed, 1, size)
        finally:
            stack.close()
        untraced: List[JobResult] = list(replies)
        stack = set_up(workload, 1, trace=True)
        assert stack is not None
        try:
            with probe.installed():
                served, window, walls, executions = run_passes(
                    stack, workload, seed, workload.repeats(seconds), size
                )
        finally:
            stack.close()
        traced: List[JobResult] = list(served)
        metrics.update(served_layers(served, probe, executions))
        print("# served_mix: layers below the job run in pool workers and read 0 here; "
              "the in-process workloads measure them")
    else:
        untraced, _, ref_walls, _ = run_cycles(workload, seed, 1, size)
        with probe.installed():
            traced, window, walls, tracers = run_cycles(
                workload, seed, workload.repeats(seconds), size, probe
            )
        metrics.update(span_layers(tracers, len(traced)))
        print(f"# remainders (parent span time no child span covers) over {len(traced)} jobs:")
        for path, per_job, share in remainders(tracers, len(traced)):
            print(f"#   {path}: {per_job:.4f} s/job, {100.0 * share:.1f}% of the span")
    results = untraced + traced
    errors, records = check_run(workload, seed, size, results)
    metrics["analysis.yield_pct"], metrics["analysis.p95_skew_ps"] = yields(records)
    metrics["obs.trace_overhead_ratio"] = statistics.median(walls) / ref_walls[0]
    print(f"# workload {workload.name} seed {seed}: {len(traced)} traced jobs in {window:.2f} s")
    return errors, results, metrics


def served_layers(
    replies: Sequence[Reply], probe: LayerProbe, executions: int
) -> Dict[str, float]:
    """Layer metrics of the serving process: per submission, or medians."""
    n = len(replies)
    totals = probe.totals
    return {
        "workloads.resolve_s": totals["submit.resolve_s"] / n,
        "store.fingerprint_s": (totals["submit.fingerprint_s"] - totals["submit.resolve_s"]) / n,
        "store.append_s": totals["store.append_s"] / n,
        "store.appends": totals["store.append.calls"] / n,
        "serve.submit_s": statistics.median(r.submit_s for r in replies),
        "serve.queue_wait_s": statistics.median(r.queue_wait_s for r in replies),
        "serve.exec_s": statistics.median(probe.exec_s) if probe.exec_s else 0.0,
        "api.dispatch_s": statistics.median(probe.dispatch_s) if probe.dispatch_s else 0.0,
        "serve.cache_hit_share": sum(r.cached for r in replies) / n,
        "serve.pool_executions": executions / n,
    }
