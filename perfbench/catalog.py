"""The benchmark's workloads: which jobs each one runs, and why.

Every workload is a fixed *panel* of job specs.  The run seed never changes
which specs are in the panel; it shuffles their order in every cycle (and, for
``served_mix``, which earlier specs are repeated and where).  The reason is the
quality metrics: final skew on ti:1600 spans 25-50 ps across generator seeds,
and small served jobs span 2-30 ps, so a seed that drew fresh instances would
move the quality means by more than any bound the benchmark could hold.  With
a fixed panel, the quality metrics are the same on every seed, so a change in
them means the program computes something different.

Each definition below records three things: why the workload was chosen, the
layer shares it was chosen on (measured on a 2-CPU host, contango flow,
arnoldi engine, one traced job each), and which ROADMAP item it shows or
guards.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.api.jobs import Job, JobSpec, McJobSpec

ENGINE = "arnoldi"

#: The seven ISPD'09-style chips of the ROADMAP's quality matrix.
ISPD_CHIPS = ("f11", "f12", "f21", "f22", "f31", "f32", "fnb1")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a panel of jobs and the reasons for it."""

    name: str
    #: ``"inprocess"`` (run_job / run_mc_job called directly) or ``"served"``.
    mode: str
    #: The panel: every spec the workload runs, in canonical order.
    full: Tuple[Job, ...]
    #: A few-second panel for the benchmark's self-test.
    tiny: Tuple[Job, ...]
    #: Seconds one cycle of the full panel (for served_mix, one pass of its
    #: request stream) took on the reference 2-CPU host.  A run repeats the
    #: panel ``round(seconds / cycle_s)`` times, so every run of one
    #: ``--seconds`` times the same work, whatever the host's speed.
    cycle_s: float = 1.0

    def panel(self, size: str = "full") -> Tuple[Job, ...]:
        """The ``"full"`` panel, or the ``"tiny"`` one of the self-test."""
        return self.full if size == "full" else self.tiny

    def repeats(self, seconds: float) -> int:
        """Cycles (or passes) a run of ``seconds`` measures; at least one."""
        return max(1, round(seconds / self.cycle_s))

    def cycle(self, seed: int, index: int, size: str = "full") -> List[Job]:
        """The panel in the order cycle ``index`` of run ``seed`` runs it."""
        jobs = list(self.panel(size))
        random.Random(f"{self.name}/{seed}/{index}").shuffle(jobs)
        return jobs


def served_stream(workload: Workload, seed: int, size: str = "full") -> List[Job]:
    """The request stream of one ``served_mix`` pass.

    Every panel spec is sent once, in a seeded order, and a third of all
    requests repeat a spec sent earlier in the pass, so the result cache and
    in-flight coalescing both get work.  The first request is never a repeat.
    """
    rng = random.Random(f"{workload.name}/{seed}")
    fresh = list(workload.panel(size))
    rng.shuffle(fresh)
    repeats = len(fresh) // 2
    total = len(fresh) + repeats
    repeat_at = set(rng.sample(range(1, total), repeats))
    stream: List[Job] = []
    sent: List[Job] = []
    for position in range(total):
        if position in repeat_at and sent:
            stream.append(rng.choice(sent))
        else:
            job = fresh.pop(0) if fresh else rng.choice(sent)
            sent.append(job)
            stream.append(job)
    return stream


# ----------------------------------------------------------------------
# ti_large: dropped
# ----------------------------------------------------------------------
# A ti:1600 workload (generator seeds 7 and 8, IVC-dominated: ivc_round self
# 1.02 s and propagate 1.02 s of a 3.5 s job) was defined and measured, then
# dropped as unsteady.  On the shared 2-CPU reference host, whose speed
# drifts by +-25% over minutes, its jobs_per_s spread (IQR over median of
# ten seeds) reached 0.27 at 20 s a run, above the largest bound a metric may
# have.  Four workloads leave 20 s a run; three leave 30 s, which the other
# workloads need.  Every layer it measured is still measured: the IVC passes
# on ispd_chips and on mc_yield, whose gated job spends 0.67 of 1.61 s in
# ivc_round self time, so the ROADMAP's O(touched) proposal item shows there.

# ----------------------------------------------------------------------
# ispd_chips
# ----------------------------------------------------------------------
# Why: construction dominates.  The seven chips at 0.35 scale take 4.9 s; the
# pass:initial self time is 2.9 s (59%: DME, obstacle repair, maze reroutes,
# van Ginneken buffering) and IVC self time only 0.43 s (9%).  Every chip has
# obstacles, so obstacle repair does work here and nowhere else in-process.
# Prediction: an IVC-side change leaves this workload unchanged; a
# construction change shows here.  f12 is a zero-progress flow today (known
# defect); it stays in the panel so progress_share shows it.
# Guards: the ROADMAP's construction attribution (the opaque 27% of
# pass:initial, printed as core.initial_other_s) and the quality-matrix item.
ISPD_CHIPS_WORKLOAD = Workload(
    name="ispd_chips",
    mode="inprocess",
    full=tuple(
        JobSpec(instance=f"ispd09:ispd09{chip}:0.35", engine=ENGINE) for chip in ISPD_CHIPS
    ),
    tiny=tuple(
        JobSpec(instance=f"ispd09:ispd09{chip}:0.05", engine=ENGINE) for chip in ("f22", "fnb1")
    ),
    cycle_s=5.0,
)

# ----------------------------------------------------------------------
# mc_yield
# ----------------------------------------------------------------------
# Why: the evaluator's S-wide sample path does the work, two ways.  In the
# ungated 20k-sample job the final sweep is 75% of the job (yield_sweep 1.71
# of 2.28 s).  In the gated 5k-sample job many 128-sample gate checks run
# inside IVC rounds (ivc_round self 0.67 of 1.61 s).  The MC seed stays at the
# job default (7): the gate's decisions, and so the gated job's final tree,
# depend on it.
# Guards: the ROADMAP's width-generic kernel.  A kernel change that helps the
# nominal path but costs the sample path shows here.
MC_YIELD = Workload(
    name="mc_yield",
    mode="inprocess",
    full=(
        McJobSpec(instance="ti:200", engine=ENGINE, samples=20000),
        McJobSpec(instance="ti:200", engine=ENGINE, samples=5000, gated=True),
    ),
    tiny=(
        McJobSpec(instance="ti:40", engine=ENGINE, samples=500),
        McJobSpec(instance="ti:40", engine=ENGINE, samples=200, gated=True, gate_samples=16),
    ),
    cycle_s=4.0,
)


# ----------------------------------------------------------------------
# served_mix
# ----------------------------------------------------------------------
def _served_panel() -> Tuple[Job, ...]:
    jobs: List[Job] = []
    for sinks in (100, 125, 150, 175, 200):
        jobs += [JobSpec(instance=f"ti:{sinks}", engine=ENGINE, seed=s) for s in (1, 2, 3)]
    for family in ("strip", "banks"):
        jobs += [JobSpec(instance=f"scenario:{family}", engine=ENGINE, seed=s) for s in range(1, 7)]
    for chip in ("f22", "fnb1"):
        jobs += [
            JobSpec(instance=f"ispd09:ispd09{chip}:0.35", engine=ENGINE, seed=s) for s in (1, 2)
        ]
    jobs += [McJobSpec(instance="ti:100", engine=ENGINE, samples=2000, seed=s) for s in (1, 2, 3)]
    return tuple(jobs)


# Why: the only workload where serve, api and store do work: the queue,
# fingerprinting at submit, coalescing and the result cache in serve; pool
# dispatch in api; appends in store.  A closed loop of min(2, nproc) HTTP
# clients, each with one job outstanding, against an in-process ServerHandle
# over SynthesisService(max_workers=min(2, nproc)) with a fresh RunStore per
# pass.  Jobs are small and mixed (0.2-0.5 s each): ti:100-200, strip and
# banks scenarios, ISPD f22 and fnb1 at 0.35, a 2k-sample MC job.  A third of
# the requests repeat an earlier spec.  A prototype of 36 requests ran at
# 4.2-5.0 jobs/s with 11/36 cache hits and p50 latency 0.50-0.56 s.
# Guards: the ROADMAP's admission and deadline work must not raise its
# latency (latency_p50_s, latency_tail_s).
SERVED_MIX = Workload(
    name="served_mix",
    mode="served",
    full=_served_panel(),
    tiny=(
        JobSpec(instance="ti:30", engine=ENGINE, seed=1),
        JobSpec(instance="ti:40", engine=ENGINE, seed=2),
        JobSpec(instance="scenario:strip:sinks=24", engine=ENGINE, seed=1),
        McJobSpec(instance="ti:30", engine=ENGINE, samples=200, seed=1),
    ),
    cycle_s=7.0,
)

WORKLOADS = {w.name: w for w in (ISPD_CHIPS_WORKLOAD, MC_YIELD, SERVED_MIX)}
