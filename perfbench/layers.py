"""Per-layer measurement for the traced run.

Two sources of timing:

* the spans the program already records (``job``, ``resolve_instance``,
  ``pass:*``, ``ivc_round``, ``evaluate``, ``propagate``, ``yield_sweep``,
  ``fingerprint``), read from a :class:`repro.obs.Tracer`;
* :class:`LayerProbe`, which wraps public functions that have no span of their
  own -- DME, obstacle repair, buffer insertion, polarity correction, the
  variation gate, ``RunStore.append`` and submit-time fingerprinting -- at the
  name their caller looks them up by.  The probe changes no result: every
  wrapper calls the original and returns its value.

Nothing here is used by the untimed or untraced runs.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import repro.core.pipeline as pipeline_module
import repro.runner as runner_module
import repro.serve.scheduler as scheduler_module
from repro.api.service import SynthesisService
from repro.core.variation import VariationGate
from repro.obs import NULL_TRACER, Span, Tracer, TracerBase, path_timings
from repro.store import RunStore

#: Span names the probe opens inside ``pass:initial``.
CONSTRUCTION_SPANS = ("cts.dme", "cts.obstacle_repair", "buffering.insert", "core.polarity")

#: The IVC passes timed by ``core.pass.<name>_s``.
IVC_PASSES = ("tbsz", "twsz", "twsn", "bwsn", "tbsz_mc", "twsz_mc", "twsn_mc", "bwsn_mc")


def _count_detours(span: Span, report: Any) -> None:
    span.count("detours", report.subtrees_detoured + report.maze_reroutes)


def _count_gate_check(span: Span, reason: Optional[str]) -> None:
    span.count("checks")
    span.count("rejections", int(reason is not None))


class LayerProbe:
    """Timers around functions that have no span; install with :meth:`installed`.

    Construction and gate timers open spans on :attr:`tracer`, the tracer of
    the in-process job being run, so they nest under ``pass:initial`` or
    ``ivc_round`` like the program's own spans.  Store, submit-time
    fingerprint and pool-dispatch timers run on the server's threads and add
    to :attr:`totals`, :attr:`exec_s` and :attr:`dispatch_s` under a lock.
    """

    def __init__(self) -> None:
        self.tracer: TracerBase = NULL_TRACER
        self.totals: Dict[str, float] = defaultdict(float)
        #: Per pool execution: ``SynthesisService.submit`` to its record.
        self.exec_s: List[float] = []
        #: Per traced pool execution: :attr:`exec_s` minus the worker's
        #: ``job`` span, that is, IPC and pool overhead.
        self.dispatch_s: List[float] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def installed(self) -> Iterator["LayerProbe"]:
        dme = self._spanned("cts.dme")
        targets: List[Tuple[Any, str, Callable[[Callable[..., Any]], Callable[..., Any]]]] = [
            (pipeline_module, "build_zero_skew_tree", dme),
            (pipeline_module, "build_bounded_skew_tree", dme),
            (pipeline_module, "repair_obstacle_violations",
             self._spanned("cts.obstacle_repair", _count_detours)),
            (pipeline_module, "insert_buffers_with_sizing", self._spanned("buffering.insert")),
            (pipeline_module, "correct_sink_polarity", self._spanned("core.polarity")),
            (VariationGate, "prime", self._spanned("core.gate")),
            (VariationGate, "check", self._spanned("core.gate", _count_gate_check)),
            (RunStore, "append", self._totalled("store.append")),
            (SynthesisService, "submit", self._pool_dispatch),
            (scheduler_module, "spec_fingerprint", self._submit_fingerprint),
            (runner_module, "resolve_instance", self._submit_resolve),
        ]
        originals = [(owner, name, getattr(owner, name)) for owner, name, _ in targets]
        try:
            for owner, name, wrap in targets:
                setattr(owner, name, wrap(getattr(owner, name)))
            yield self
        finally:
            for owner, name, original in originals:
                setattr(owner, name, original)

    # -- wrappers --------------------------------------------------------
    def _spanned(
        self, name: str, on_result: Optional[Callable[[Span, Any], Any]] = None
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        def wrap(fn: Callable[..., Any]) -> Callable[..., Any]:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                with self.tracer.span(name) as span:
                    result = fn(*args, **kwargs)
                    if span is not None and on_result is not None:
                        on_result(span, result)
                return result

            return wrapper

        return wrap

    def _add(self, key: str, seconds: float) -> None:
        with self._lock:
            self.totals[f"{key}_s"] += seconds
            self.totals[f"{key}.calls"] += 1

    def _totalled(self, key: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        def wrap(fn: Callable[..., Any]) -> Callable[..., Any]:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._add(key, time.perf_counter() - start)

            return wrapper

        return wrap

    def _pool_dispatch(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Time each pool execution from dispatch to its resolved record."""

        @functools.wraps(fn)
        def wrapper(service: Any, job: Any) -> Any:
            start = time.perf_counter()
            future = fn(service, job)

            def done(resolved: Any) -> None:
                elapsed = time.perf_counter() - start
                trace = getattr(resolved.result(), "trace", None)
                with self._lock:
                    self.exec_s.append(elapsed)
                    if trace:
                        self.dispatch_s.append(elapsed - trace["total_s"])

            future.add_done_callback(done)
            return future

        return wrapper

    def _submit_fingerprint(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Time ``spec_fingerprint`` as the scheduler calls it at submit."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self._local.submitting = True
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._add("submit.fingerprint", time.perf_counter() - start)
                self._local.submitting = False

        return wrapper

    def _submit_resolve(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Time instance resolution inside submit-time fingerprinting only;
        in-process jobs already record it as the ``resolve_instance`` span."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not getattr(self._local, "submitting", False):
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._add("submit.resolve", time.perf_counter() - start)

        return wrapper


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_layers(tracers: Iterable[Tracer], jobs: int) -> Dict[str, float]:
    """Per-job layer metrics from the span trees of in-process traced jobs."""
    total: Dict[str, float] = defaultdict(float)
    count: Dict[str, int] = defaultdict(int)
    self_s: Dict[str, float] = defaultdict(float)
    counters: Dict[str, int] = defaultdict(int)
    initial_children = 0.0
    nonvacuous = 0
    for tracer in tracers:
        for span in tracer.spans():
            total[span.name] += span.total_s
            self_s[span.name] += span.self_s
            count[span.name] += 1
            for key, amount in span.counters.items():
                counters[f"{span.name}.{key}"] += amount
            if span.name == "pass:initial":
                initial_children += sum(
                    c.total_s for c in span.children if c.name in CONSTRUCTION_SPANS
                )
            if span.name == "ivc_round" and span.counters.get("changed", 0) > 0:
                nonvacuous += 1
    per_job = 1.0 / jobs if jobs else 0.0
    hits = counters["evaluate.cache_hits"]
    lookups = hits + counters["evaluate.cache_misses"]
    metrics = {
        "workloads.resolve_s": total["resolve_instance"] * per_job,
        "cts.dme_s": total["cts.dme"] * per_job,
        "cts.obstacle_repair_s": total["cts.obstacle_repair"] * per_job,
        "cts.detours": counters["cts.obstacle_repair.detours"] * per_job,
        "buffering.insert_s": total["buffering.insert"] * per_job,
        "core.polarity_s": total["core.polarity"] * per_job,
        "core.initial_other_s": (total["pass:initial"] - initial_children) * per_job,
        "core.ivc.rounds": count["ivc_round"] * per_job,
        "core.ivc.accepted": counters["ivc_round.accepted"] * per_job,
        "core.ivc.changed": counters["ivc_round.changed"] * per_job,
        "core.ivc.accept_ratio": _ratio(counters["ivc_round.accepted"], nonvacuous),
        "core.ivc.propose_s": self_s["ivc_round"] * per_job,
        "core.gate.checks": counters["core.gate.checks"] * per_job,
        "core.gate.rejections": counters["core.gate.rejections"] * per_job,
        "core.gate_s": total["core.gate"] * per_job,
        "analysis.evaluations": count["evaluate"] * per_job,
        "analysis.evaluate_s": total["evaluate"] * per_job,
        "analysis.reduce_s": self_s["evaluate"] * per_job,
        "analysis.propagate_s": total["propagate"] * per_job,
        "analysis.stage_hit_ratio": _ratio(hits, lookups),
        # Every stage of an evaluation is either retained or looked up once,
        # so hits plus misses is the stage total.
        "analysis.stages_propagated_ratio": _ratio(
            counters["evaluate.stages_propagated"], lookups
        ),
        "analysis.yield_sweep_s": total["yield_sweep"] * per_job,
        "analysis.samples_per_s": _ratio(counters["yield_sweep.samples"], total["yield_sweep"]),
        "store.fingerprint_s": total["fingerprint"] * per_job,
    }
    for name in IVC_PASSES:
        metrics[f"core.pass.{name}_s"] = total[f"pass:{name}"] * per_job
    return metrics


def remainders(tracers: Iterable[Tracer], jobs: int) -> List[Tuple[str, float, float]]:
    """``(path, self s/job, share of the span)`` of every span path with children.

    A parent's self time is the part of it no child span covers, for example
    ``pass:initial`` minus DME, obstacle repair, buffering and polarity.
    """
    merged: Dict[str, List[float]] = {}
    for tracer in tracers:
        for path, timing in path_timings(tracer).items():
            entry = merged.setdefault(path, [0.0, 0.0])
            entry[0] += timing["total_s"]
            entry[1] += timing["self_s"]
    parents = {path.rsplit("/", 1)[0] for path in merged if "/" in path}
    rows = [
        (path, merged[path][1] / jobs, _ratio(merged[path][1], merged[path][0]))
        for path in sorted(parents)
        if path in merged
    ]
    return sorted(rows, key=lambda row: -row[1])
