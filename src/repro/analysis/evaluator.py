"""Clock-network evaluation: latency, skew, slew, CLR, capacitance.

This module is the Clock-Network Evaluation (CNE) box of Figure 1 in the
paper.  It decomposes the buffered tree into stages, analyzes every stage with
the selected engine (Elmore, Arnoldi/moment-matching, or the transient RC
solver), propagates arrival times and slews stage by stage for both launch
transitions, and repeats the analysis at every requested process/voltage
corner.  The resulting :class:`EvaluationReport` carries everything the
optimization passes need: per-sink rise/fall latencies, skew, the multi-corner
Clock Latency Range (CLR), worst slew, slew violations and the capacitance
(power) total.

Incremental evaluation
----------------------
Contango's optimization passes call the evaluator after every candidate move,
but a move touches a handful of edges while the tree has hundreds of stages.
The evaluator therefore keeps a :class:`StageCache`: stage analysis results
are stored under **content keys** derived from the mutation journal of
:class:`~repro.cts.tree.ClockTree` (per-node revisions plus the structure
revision), so re-evaluating a tree re-extracts and re-analyzes only the
stages whose RC content actually changed since any previous evaluation --
including evaluations of clones, probes and rolled-back snapshots, which
share revisions with the tree they were copied from.

For the analytical engines (``elmore``/``arnoldi``) each stage is reduced
once per content revision to a few base vectors
(:func:`repro.analysis.arnoldi.base_tap_moments`, built with numpy prefix
sums over all segments at once) from which delays and slews at *every* corner
and transition are produced in one batched array operation -- no per-corner
network rebuilds.  The transient (``spice``) engine caches the per-corner
stage networks and per-input-slew waveform analyses instead.

Dirty-region propagation
------------------------
Stage analysis being cached still left arrival/slew propagation itself as a
full walk over every stage at every corner and transition.  With
``EvaluatorConfig.dirty_region`` enabled (the default) the evaluator also
snapshots, per corner, the per-stage propagation *fragments* it produced last
time (:class:`_StageFrag`: the stage's latency/slew contributions plus the
arrival/slew/direction state it handed to downstream buffer taps) together
with the content keys it propagated them from.  On the next evaluation it
diffs the content keys, closes the dirty set over the stage topology
(:class:`~repro.analysis.rcnetwork.StageTopology` children -- every stage
downstream of a changed driver sees changed input slews), re-propagates only
that region and splices the retained fragments back in verbatim.  Because a
retained stage provably has only retained ancestors, its inputs are
bit-identical to a cold evaluation, so the spliced result is too -- the
goldens and the hypothesis suite in ``tests/analysis`` enforce exactly that.

Monte Carlo batches
-------------------
:meth:`ClockNetworkEvaluator.evaluate_yield` extends the corners x
transitions batch axis of the analytical engines to variation samples: one
:func:`~repro.analysis.arnoldi.batched_tap_moments` call per stage and corner
covers every sample, and the S-wide arrival/slew walk mirrors the scalar
propagation operation for operation, so a zero-variance model reproduces
:meth:`evaluate` bit for bit.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.analysis.arnoldi import (
    BaseTapMoments,
    base_tap_moments,
    batched_delay_sigma,
    batched_tap_moments,
)
from repro.analysis.corners import Corner, ispd09_corners, supply_driver_multiplier
from repro.analysis.elmore import StageTiming
from repro.analysis.rcnetwork import (
    Stage,
    StageNetwork,
    StageTopology,
    build_base_stage_network,
    build_stage_network,
    build_stage_topology,
    extract_stages,
)
from repro.analysis.spice import TransientSolverConfig, transient_stage_timing
from repro.analysis.units import LN9
from repro.analysis.variation import VariationModel, VariationSamples, YieldReport
from repro.cts.bufferlib import BufferType
from repro.cts.tree import ClockTree
from repro.obs import NULL_TRACER, TracerBase
from repro.seeding import derive_rng

__all__ = [
    "EvaluatorConfig",
    "CornerTiming",
    "EvaluationReport",
    "StageCache",
    "ClockNetworkEvaluator",
]

RISE = "rise"
FALL = "fall"
_TRANSITIONS = (RISE, FALL)


@dataclass(frozen=True)
class EvaluatorConfig:
    """Settings of the clock-network evaluator.

    Attributes
    ----------
    engine:
        ``"elmore"``, ``"arnoldi"`` or ``"spice"`` (transient RC solver).
    max_segment_length:
        Maximum lumped-RC segment length in um (see
        :func:`repro.analysis.rcnetwork.build_stage_network`).
    slew_limit:
        Maximum allowed 10-90% transition time at any tap, in ps.
    source_slew:
        Input transition time of the clock source, in ps.
    slew_delay_factor:
        Fraction of the input slew added to a buffer's gate delay (first-order
        model of slew-dependent gate delay).
    buffer_slew_regeneration:
        Fraction of the input transition that survives through a switching
        inverter and shapes its output ramp.  Inverters regenerate the edge,
        so the output slew is dominated by the driver's own R*C and only
        weakly coupled to the input slew; without this attenuation slews would
        (unphysically) accumulate down the buffer chain.
    pull_up_factor, pull_down_factor:
        Asymmetry of the driver resistance for rising and falling outputs.
    solver:
        Numerical settings for the transient engine.
    incremental:
        Enable the :class:`StageCache` so that repeated evaluations only
        re-analyze stages whose RC content changed.  Results are identical to
        cold evaluation; disable only for debugging or memory-constrained
        runs.
    dirty_region:
        Restrict arrival/slew propagation to the stages whose content keys
        changed since the previous evaluation plus everything downstream of
        them, splicing retained per-stage results back in verbatim (see the
        module docstring).  Requires ``incremental``; results are bit-identical
        to a full propagation.  Disable for A/B measurement.
    """

    engine: str = "spice"
    max_segment_length: float = 100.0
    slew_limit: float = 100.0
    source_slew: float = 10.0
    slew_delay_factor: float = 0.08
    buffer_slew_regeneration: float = 0.25
    pull_up_factor: float = 1.08
    pull_down_factor: float = 0.95
    solver: TransientSolverConfig = field(default_factory=TransientSolverConfig)
    incremental: bool = True
    dirty_region: bool = True

    def __post_init__(self) -> None:
        if self.engine not in ("elmore", "arnoldi", "spice"):
            raise ValueError(f"unknown timing engine {self.engine!r}")
        if self.slew_limit <= 0.0:
            raise ValueError("slew limit must be positive")


@dataclass
class CornerTiming:
    """Timing of the whole network at one corner.

    ``latency`` and ``slew`` map sink node ids to ``{"rise": ps, "fall": ps}``.
    ``tap_slew`` additionally includes buffer-input taps, which are subject to
    the same slew limit as sinks.
    """

    corner: Corner
    latency: Dict[int, Dict[str, float]]
    slew: Dict[int, Dict[str, float]]
    tap_slew: Dict[int, Dict[str, float]]

    def max_latency(self, transition: Optional[str] = None) -> float:
        return max(self._latency_values(transition))

    def min_latency(self, transition: Optional[str] = None) -> float:
        return min(self._latency_values(transition))

    def skew(self, transition: Optional[str] = None) -> float:
        """Worst skew; with ``transition=None`` the worse of rise and fall skew."""
        if transition is not None:
            values = self._latency_values(transition)
            return max(values) - min(values)
        return max(self.skew(RISE), self.skew(FALL))

    def worst_slew(self) -> float:
        return max(
            value for per_tap in self.tap_slew.values() for value in per_tap.values()
        )

    def slew_violations(self, limit: float) -> List[int]:
        """Tap node ids whose rise or fall slew exceeds ``limit``."""
        return [
            node_id
            for node_id, per_tap in self.tap_slew.items()
            if max(per_tap.values()) > limit
        ]

    def _latency_values(self, transition: Optional[str]) -> List[float]:
        if transition is None:
            return [v for per_sink in self.latency.values() for v in per_sink.values()]
        return [per_sink[transition] for per_sink in self.latency.values()]


@dataclass
class EvaluationReport:
    """Result of one Clock-Network Evaluation (CNE) step."""

    corners: Dict[str, CornerTiming]
    fast_corner: str
    slow_corner: str
    engine: str
    slew_limit: float
    total_capacitance: float
    capacitance_limit: Optional[float]
    wirelength: float
    evaluation_index: int

    @property
    def nominal(self) -> CornerTiming:
        """Timing at the fast (nominal-supply) corner, used for skew optimization."""
        return self.corners[self.fast_corner]

    @property
    def skew(self) -> float:
        """Nominal skew: worse of rise/fall skew at the fast corner."""
        return self.nominal.skew()

    @property
    def clr(self) -> float:
        """Clock Latency Range across the fast and slow corners."""
        slow = self.corners[self.slow_corner]
        fast = self.corners[self.fast_corner]
        return max(
            slow.max_latency(t) - fast.min_latency(t) for t in _TRANSITIONS
        )

    @property
    def max_latency(self) -> float:
        """Greatest sink latency at the slow corner (the paper's "Latency" column)."""
        return self.corners[self.slow_corner].max_latency()

    @property
    def worst_slew(self) -> float:
        return max(timing.worst_slew() for timing in self.corners.values())

    @property
    def slew_violations(self) -> List[int]:
        violations: List[int] = []
        for timing in self.corners.values():
            violations.extend(timing.slew_violations(self.slew_limit))
        return sorted(set(violations))

    @property
    def has_slew_violation(self) -> bool:
        return bool(self.slew_violations)

    @property
    def within_capacitance_limit(self) -> bool:
        if self.capacitance_limit is None:
            return True
        return self.total_capacitance <= self.capacitance_limit

    @property
    def capacitance_utilization(self) -> Optional[float]:
        """Total capacitance as a fraction of the limit (None when unlimited)."""
        if self.capacitance_limit is None:
            return None
        return self.total_capacitance / self.capacitance_limit

    def summary(self) -> Dict[str, float]:
        """Compact numeric summary used by flow logs and benchmarks."""
        return {
            "skew_ps": self.skew,
            "clr_ps": self.clr,
            "max_latency_ps": self.max_latency,
            "worst_slew_ps": self.worst_slew,
            "total_capacitance_fF": self.total_capacitance,
            "wirelength_um": self.wirelength,
            "slew_violations": float(len(self.slew_violations)),
        }


# Content key of one stage: (driver head, ((edge id, edge revision), ...)).
_StageKey = Tuple[tuple, tuple]
# Per-stage analytical model: {(corner, transition): {tap: (delay, sigma)}}.
_TapModel = Dict[Tuple[str, str], Dict[int, Tuple[float, float]]]
_Driver = Optional[BufferType]
# Engine adapter handed to _propagate_corner: (index, stage, output_dir,
# drive_slew) -> iterable of (tap, delay, slew) triples.
_StageTimingFn = Callable[[int, Stage, str, float], Iterable[Tuple[int, float, float]]]


class _StageFrag:
    """One stage's contribution to a corner's propagated timing.

    ``latency``/``slew``/``tap_slew`` are the stage's slices of the
    corresponding :class:`CornerTiming` dicts (both transitions); ``outputs``
    maps each launch transition to the ``(tap, arrival, slew, direction)``
    state the stage handed to downstream buffer taps.  Fragments are spliced
    into later partial propagations by reference, so the dicts are shared
    between the snapshot and every report built from it -- treat report
    timing dicts as read-only (nothing in the tree mutates them today).
    """

    __slots__ = ("latency", "slew", "tap_slew", "outputs")

    def __init__(
        self,
        latency: Dict[int, Dict[str, float]],
        slew: Dict[int, Dict[str, float]],
        tap_slew: Dict[int, Dict[str, float]],
        outputs: Dict[str, List[Tuple[int, float, float, str]]],
    ) -> None:
        self.latency = latency
        self.slew = slew
        self.tap_slew = tap_slew
        self.outputs = outputs


class _PropagationState:
    """Snapshot of the last full/partial propagation (dirty-region baseline).

    ``keys`` are the per-stage content keys the fragments were computed from;
    ``fragments`` maps corner name to the per-stage fragment list.  Valid only
    while the tree's structure revision matches (the stage decomposition, and
    hence the index alignment, is a function of it).
    """

    __slots__ = ("structure_revision", "keys", "fragments")

    def __init__(
        self,
        structure_revision: int,
        keys: List[Optional[_StageKey]],
        fragments: Dict[str, List[_StageFrag]],
    ) -> None:
        self.structure_revision = structure_revision
        self.keys = keys
        self.fragments = fragments


class StageCache:
    """Content-addressed cache of per-stage analysis results.

    Entries are keyed by stage content keys built from the
    :class:`~repro.cts.tree.ClockTree` mutation journal, so they remain valid
    across snapshots, clones and rollbacks: two stages with equal keys have
    identical RC content, no matter which tree object they live in.  The
    cache stores

    * ``stage topologies`` per tree structure revision (the stage
      decomposition plus its downstream-adjacency and tap-flag indexes, see
      :class:`~repro.analysis.rcnetwork.StageTopology`),
    * ``tap models`` per stage content (batched delay/sigma for every corner
      and transition; analytical engines),
    * ``networks`` per (stage content, corner, transition) and ``timings``
      per (stage content, corner, transition, input slew) for the transient
      engine.

    When the total entry count exceeds ``max_entries`` the cache is cleared
    wholesale -- the next evaluation repopulates it with only the live keys,
    which keeps memory bounded without LRU bookkeeping on the hot path.
    """

    def __init__(self, max_entries: int = 200_000) -> None:
        self.max_entries = max_entries
        self._topologies: "OrderedDict[int, StageTopology]" = OrderedDict()
        self._tap_models: Dict[_StageKey, _TapModel] = {}
        self._base_moments: Dict[tuple, BaseTapMoments] = {}
        self._networks: Dict[tuple, StageNetwork] = {}
        self._timings: Dict[tuple, StageTiming] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- stage decomposition ------------------------------------------------
    def topology(self, tree: ClockTree) -> StageTopology:
        """The tree's stage topology, cached by structure revision.

        Safe to share across trees with equal structure revisions: the
        decomposition, downstream adjacency and (is_sink, has_buffer) tap
        flags are all functions of the structure revision alone (buffer
        *presence* changes always bump it; same-site replacement is a
        content-only change that keeps both flags).
        """
        revision = tree.structure_revision
        topo = self._topologies.get(revision)
        if topo is None:
            topo = build_stage_topology(tree)
            if len(self._topologies) >= 16:
                self._topologies.popitem(last=False)
            self._topologies[revision] = topo
        else:
            self._topologies.move_to_end(revision)
        return topo

    def stage_list(self, tree: ClockTree) -> List[Stage]:
        """The tree's stage decomposition, cached by structure revision."""
        return self.topology(tree).stages

    # -- analytical-engine models ------------------------------------------
    def tap_model(self, key: _StageKey) -> Optional[_TapModel]:
        model = self._tap_models.get(key)
        if model is None:
            self.misses += 1
        else:
            self.hits += 1
        return model

    def store_tap_model(self, key: _StageKey, model: _TapModel) -> None:
        self._bound()
        self._tap_models[key] = model

    def base_moments(self, key: tuple, count: bool = True) -> Optional[BaseTapMoments]:
        """Cached corner-independent moment reduction of one stage.

        Keys carry the stage content key plus the wire/load-split flag; the
        entries are shared between :meth:`ClockNetworkEvaluator.evaluate`
        (which turns them into per-corner tap models) and
        :meth:`ClockNetworkEvaluator.evaluate_yield` (which scales them per
        Monte Carlo sample), so a yield evaluation re-reduces only stages
        whose RC content changed since any earlier evaluation of either kind.

        ``count=False`` skips the hit/miss accounting: the nominal tap-model
        path already counts once per stage lookup, and one re-analyzed stage
        should keep counting as one miss.
        """
        moments = self._base_moments.get(key)
        if count:
            if moments is None:
                self.misses += 1
            else:
                self.hits += 1
        return moments

    def store_base_moments(self, key: tuple, moments: BaseTapMoments) -> None:
        self._bound()
        self._base_moments[key] = moments

    # -- transient-engine entries ------------------------------------------
    def network(self, key: tuple) -> Optional[StageNetwork]:
        return self._networks.get(key)

    def store_network(self, key: tuple, network: StageNetwork) -> None:
        self._bound()
        self._networks[key] = network

    def timing(self, key: tuple) -> Optional[StageTiming]:
        timing = self._timings.get(key)
        if timing is None:
            self.misses += 1
        else:
            self.hits += 1
        return timing

    def store_timing(self, key: tuple, timing: StageTiming) -> None:
        self._bound()
        self._timings[key] = timing

    # -- maintenance --------------------------------------------------------
    def _bound(self) -> None:
        total = (
            len(self._tap_models)
            + len(self._base_moments)
            + len(self._networks)
            + len(self._timings)
        )
        if total >= self.max_entries:
            self.clear()
            self.evictions += 1

    def clear(self) -> None:
        """Drop every cached entry (stats are kept)."""
        self._topologies.clear()
        self._tap_models.clear()
        self._base_moments.clear()
        self._networks.clear()
        self._timings.clear()

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "tap_models": len(self._tap_models),
            "base_moments": len(self._base_moments),
            "networks": len(self._networks),
            "timings": len(self._timings),
            "stage_lists": len(self._topologies),
        }


class ClockNetworkEvaluator:
    """Evaluate a clock tree with the configured engine at multiple corners.

    The evaluator keeps a running count of invocations (``run_count``), which
    stands in for the paper's "number of SPICE runs" metric in Table V, and a
    :class:`StageCache` making repeated evaluations incremental: only stages
    whose RC content changed since *any* earlier evaluation (of this tree or
    of a snapshot sharing its revisions) are re-analyzed.  With
    ``dirty_region`` enabled, arrival/slew propagation is likewise restricted
    to the changed stages and their downstream cone (see the module
    docstring).  Both layers are bit-identical to cold evaluation.
    """

    def __init__(
        self,
        config: Optional[EvaluatorConfig] = None,
        corners: Optional[Sequence[Corner]] = None,
        capacitance_limit: Optional[float] = None,
    ) -> None:
        self.config = config or EvaluatorConfig()
        corner_list = list(corners) if corners is not None else ispd09_corners()
        if not corner_list:
            raise ValueError("at least one corner is required")
        self.corners = corner_list
        self.capacitance_limit = capacitance_limit
        self.run_count = 0
        # Monte Carlo yield evaluations are counted separately: run_count
        # stands for the paper's "SPICE runs" metric and must not drift when
        # the variation engine is switched on.
        self.yield_run_count = 0
        # The fast corner has the highest supply, the slow corner the lowest.
        self._fast = max(corner_list, key=lambda c: c.vdd).name
        self._slow = min(corner_list, key=lambda c: c.vdd).name
        self.cache = StageCache()
        # Structured tracing: callers (the pipeline driver, a profiler) swap
        # in a live Tracer; the default NULL_TRACER keeps the instrumented
        # paths at one attribute read plus a branch.
        self.tracer: TracerBase = NULL_TRACER
        # Dirty-region propagation snapshot plus attribution counters
        # (surfaced through cache_stats() so reported speedups stay
        # attributable to the layer that produced them).
        self._prop: Optional[_PropagationState] = None
        self._propagations_full = 0
        self._propagations_partial = 0
        self._stages_propagated = 0
        self._stages_total = 0
        # One batched scaling row per (corner, transition) combination.
        self._combos: List[Tuple[str, str]] = []
        driver_scales: List[float] = []
        res_scales: List[float] = []
        cap_scales: List[float] = []
        for corner in corner_list:
            for direction in _TRANSITIONS:
                asym = (
                    self.config.pull_up_factor
                    if direction == RISE
                    else self.config.pull_down_factor
                )
                self._combos.append((corner.name, direction))
                driver_scales.append(corner.driver_scale * asym)
                res_scales.append(corner.wire_res_scale)
                cap_scales.append(corner.wire_cap_scale)
        self._combo_scales = (driver_scales, res_scales, cap_scales)
        # With no corner scaling wire capacitance (the ISPD'09 set), the
        # moment reduction can collapse wire and load caps into one component.
        self._split_caps = any(scale != 1.0 for scale in cap_scales)

    # ------------------------------------------------------------------
    def evaluate(
        self, tree: ClockTree, incremental: Optional[bool] = None
    ) -> EvaluationReport:
        """Run one Clock-Network Evaluation of ``tree`` at every corner.

        With ``incremental`` left at ``None`` the :class:`EvaluatorConfig`
        decides whether the stage cache is used; passing ``False`` forces a
        cold evaluation (identical results, no cache reads or writes).
        """
        tracer = self.tracer
        if not tracer.enabled:
            return self._evaluate_inner(tree, incremental)
        hits_before = self.cache.hits
        misses_before = self.cache.misses
        full_before = self._propagations_full
        partial_before = self._propagations_partial
        stages_before = self._stages_propagated
        with tracer.span("evaluate") as span:
            report = self._evaluate_inner(tree, incremental)
            if span is not None:
                span.count("cache_hits", self.cache.hits - hits_before)
                span.count("cache_misses", self.cache.misses - misses_before)
                span.count("propagations_full", self._propagations_full - full_before)
                span.count(
                    "propagations_partial", self._propagations_partial - partial_before
                )
                span.count(
                    "stages_propagated", self._stages_propagated - stages_before
                )
        return report

    def _evaluate_inner(
        self, tree: ClockTree, incremental: Optional[bool]
    ) -> EvaluationReport:
        self.run_count += 1
        use_cache = self.config.incremental if incremental is None else incremental
        # Driver buffers are read live from the tree: cached stage lists may
        # pre-date a same-site buffer re-sizing.
        topo: Optional[StageTopology] = None
        if use_cache:
            topo = self.cache.topology(tree)
            stages = topo.stages
            keys, drivers = self._stage_keys(tree, stages)
            # (is_sink, has_buffer) per tap: a function of the structure
            # revision (see StageCache.topology), so the cached index is safe.
            tap_flags = topo.tap_flags
        else:
            stages = extract_stages(tree)
            keys = [None] * len(stages)
            drivers = [tree.node(stage.driver_id).buffer for stage in stages]
            tap_flags = {}
            for stage in stages:
                for tap in stage.taps:
                    node = tree.node(tap)
                    tap_flags[tap] = (node.is_sink, node.buffer is not None)
        collect = use_cache and self.config.dirty_region
        recompute: Optional[Set[int]] = None
        prior: Optional[_PropagationState] = None
        if collect and topo is not None:
            recompute, prior = self._dirty_frontier(tree, keys, topo)
        total = len(stages)
        self._stages_total += total
        if recompute is None:
            self._propagations_full += 1
            self._stages_propagated += total
        else:
            self._propagations_partial += 1
            self._stages_propagated += len(recompute)
            # Retained stages are exactly the cache hits the propagation no
            # longer has to look up: credit them so hit rates stay comparable
            # with dirty_region disabled.
            self.cache.hits += total - len(recompute)
        with self.tracer.span("propagate") as prop_span:
            corner_results, fragments = self._propagate_corners(
                tree,
                stages,
                keys,
                drivers,
                tap_flags,
                recompute=recompute,
                prior=prior,
                collect=collect,
            )
            if prop_span is not None:
                prop_span.count("corners", len(self.corners))
                prop_span.count(
                    "stages", total if recompute is None else len(recompute)
                )
        if collect:
            self._prop = _PropagationState(
                structure_revision=tree.structure_revision,
                keys=list(keys),
                fragments=fragments,
            )
        return EvaluationReport(
            corners=corner_results,
            fast_corner=self._fast,
            slow_corner=self._slow,
            engine=self.config.engine,
            slew_limit=self.config.slew_limit,
            total_capacitance=tree.total_capacitance(),
            capacitance_limit=self.capacitance_limit,
            wirelength=tree.total_wirelength(),
            evaluation_index=self.run_count,
        )

    def _propagate_corners(
        self,
        tree: ClockTree,
        stages: List[Stage],
        keys: List[Optional[_StageKey]],
        drivers: List[_Driver],
        tap_flags: Dict[int, Tuple[bool, bool]],
        *,
        recompute: Optional[Set[int]],
        prior: Optional[_PropagationState],
        collect: bool,
    ) -> Tuple[Dict[str, CornerTiming], Dict[str, List[_StageFrag]]]:
        """Analyze and propagate every corner (the ``propagate`` span body)."""
        fragments: Dict[str, List[_StageFrag]] = {}
        corner_results: Dict[str, CornerTiming] = {}
        if self.config.engine in ("elmore", "arnoldi"):
            models: List[Optional[_TapModel]] = [
                None
                if (recompute is not None and index not in recompute)
                else self._tap_model(tree, stage, key)
                for index, (stage, key) in enumerate(zip(stages, keys))
            ]
            for corner in self.corners:
                prior_frags = prior.fragments[corner.name] if prior is not None else None
                timing, frags = self._corner_from_models(
                    stages,
                    models,
                    drivers,
                    tap_flags,
                    corner,
                    recompute=recompute,
                    prior=prior_frags,
                    collect=collect,
                )
                corner_results[corner.name] = timing
                if frags is not None:
                    fragments[corner.name] = frags
        else:
            for corner in self.corners:
                prior_frags = prior.fragments[corner.name] if prior is not None else None
                timing, frags = self._corner_transient(
                    tree,
                    stages,
                    keys,
                    drivers,
                    tap_flags,
                    corner,
                    recompute=recompute,
                    prior=prior_frags,
                    collect=collect,
                )
                corner_results[corner.name] = timing
                if frags is not None:
                    fragments[corner.name] = frags
        return corner_results, fragments

    def cache_stats(self) -> Dict[str, int]:
        """Hit/miss/size statistics of the stage cache plus the propagation
        attribution counters (see the module docstring)."""
        stats = self.cache.stats()
        stats["propagations_full"] = self._propagations_full
        stats["propagations_partial"] = self._propagations_partial
        stats["stages_propagated"] = self._stages_propagated
        stats["stages_total"] = self._stages_total
        return stats

    def clear_cache(self) -> None:
        """Drop all cached stage analyses (results are unaffected)."""
        self.cache.clear()
        self._prop = None

    # ------------------------------------------------------------------
    # Monte Carlo variation evaluation
    # ------------------------------------------------------------------
    def evaluate_yield(
        self,
        tree: ClockTree,
        model: VariationModel,
        samples: int = 1000,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
        skew_limit_ps: float = 7.5,
    ) -> YieldReport:
        """Evaluate ``tree`` under ``samples`` Monte Carlo variation scenarios.

        Per-stage perturbations are drawn from ``model`` and applied on top
        of every evaluator corner; all scenarios are analyzed in batched
        numpy passes over the cached per-stage moment reductions (one
        :func:`~repro.analysis.arnoldi.batched_tap_moments` call per stage
        and corner covers every sample and both transitions at once), so the
        cost per scenario is orders of magnitude below a per-sample
        :meth:`evaluate` loop.  A zero-variance model reproduces the nominal
        evaluation bit-for-bit: sampling returns multipliers of exactly 1.0
        and the arithmetic below mirrors the nominal path operation for
        operation.

        Only the analytical engines can be batched this way; the transient
        engine raises.  ``skew_limit_ps`` sets the yield threshold of the
        returned :class:`~repro.analysis.variation.YieldReport` (the
        ISPD'10-contest-style local skew limit of 7.5 ps by default).
        """
        if self.config.engine not in ("elmore", "arnoldi"):
            raise ValueError(
                "evaluate_yield requires an analytical engine ('elmore' or "
                "'arnoldi'); the transient engine cannot be batched across "
                "variation samples"
            )
        if samples < 1:
            raise ValueError("samples must be >= 1")
        if rng is None:
            # Deterministic by default: an omitted seed falls back to the
            # library-wide base seed rather than OS entropy.
            rng = derive_rng(seed, "evaluate-yield")
        self.yield_run_count += 1
        use_cache = self.config.incremental
        stages, keys, drivers = self._stages_and_keys(tree, use_cache)
        positions = np.array(
            [
                (tree.node(stage.driver_id).position.x, tree.node(stage.driver_id).position.y)
                for stage in stages
            ]
        )
        draws = model.sample(samples, rng, positions=positions)
        split = self._split_caps or model.perturbs_wire_cap
        moments = [
            self._stage_base_moments(tree, stage, key, split)
            for stage, key in zip(stages, keys)
        ]
        tap_flags: Dict[int, Tuple[bool, bool]] = {}
        for stage in stages:
            for tap in stage.taps:
                node = tree.node(tap)
                tap_flags[tap] = (node.is_sink, node.buffer is not None)

        per_corner = {
            corner.name: self._corner_yield(
                stages, moments, drivers, tap_flags, corner, draws, samples
            )
            for corner in self.corners
        }

        fast = per_corner[self._fast]
        slow = per_corner[self._slow]
        skew = np.maximum(
            fast["max"][RISE] - fast["min"][RISE], fast["max"][FALL] - fast["min"][FALL]
        )
        clr = np.maximum(
            slow["max"][RISE] - fast["min"][RISE], slow["max"][FALL] - fast["min"][FALL]
        )
        worst_slew = per_corner[self.corners[0].name]["slew"]
        for corner in self.corners[1:]:
            worst_slew = np.maximum(worst_slew, per_corner[corner.name]["slew"])
        return YieldReport(
            n_samples=samples,
            engine=self.config.engine,
            model=model.describe(),
            skew_limit_ps=skew_limit_ps,
            slew_limit_ps=self.config.slew_limit,
            fast_corner=self._fast,
            slow_corner=self._slow,
            skew_samples=skew,
            clr_samples=clr,
            worst_slew_samples=worst_slew,
        )

    def _corner_yield(
        self,
        stages: List[Stage],
        moments: List[BaseTapMoments],
        drivers: List[_Driver],
        tap_flags: Dict[int, Tuple[bool, bool]],
        corner: Corner,
        draws: VariationSamples,
        n: int,
    ) -> Dict:
        """Vectorized arrival/slew propagation of all samples at one corner.

        The sample axis replaces :meth:`_propagate_corner`'s scalars with
        length-``n`` arrays; the stage loop, inversion tracking and slew
        model are carried over verbatim (and in the same operation order, so
        unit multipliers keep bit parity with the nominal path).  Returns
        running per-sample sink-latency extrema per transition plus the
        per-sample worst tap slew.
        """
        cfg = self.config
        use_d2m = cfg.engine == "arnoldi"
        up_scale = corner.driver_scale * cfg.pull_up_factor
        down_scale = corner.driver_scale * cfg.pull_down_factor
        supply_mult = supply_driver_multiplier(corner.vdd, draws.vdd_shift)
        driver_mult = draws.driver * supply_mult

        # One batched moment pass per stage: rows are [rise x n, fall x n].
        stage_models: List[Tuple[np.ndarray, np.ndarray]] = []
        for index in range(len(stages)):
            stage_driver = driver_mult[:, index]
            d_rows = np.concatenate((up_scale * stage_driver, down_scale * stage_driver))
            r_rows = np.tile(corner.wire_res_scale * draws.wire_res[:, index], 2)
            w_rows = np.tile(corner.wire_cap_scale * draws.wire_cap[:, index], 2)
            m1, m2 = batched_tap_moments(moments[index], d_rows, r_rows, w_rows)
            stage_models.append(batched_delay_sigma(m1, m2, use_d2m=use_d2m))

        root_id = stages[0].driver_id
        max_lat = {t: np.full(n, -np.inf) for t in _TRANSITIONS}
        min_lat = {t: np.full(n, np.inf) for t in _TRANSITIONS}
        worst_slew = np.zeros(n)
        for launch in _TRANSITIONS:
            arrival_at: Dict[int, np.ndarray] = {root_id: np.zeros(n)}
            slew_at: Dict[int, np.ndarray] = {root_id: np.full(n, cfg.source_slew)}
            direction_at: Dict[int, str] = {root_id: launch}
            for index, (stage, buffer) in enumerate(zip(stages, drivers)):
                driver_id = stage.driver_id
                input_arrival = arrival_at[driver_id]
                input_slew = slew_at[driver_id]
                input_dir = direction_at[driver_id]
                if buffer is not None and buffer.inverting:
                    output_dir = FALL if input_dir == RISE else RISE
                else:
                    output_dir = input_dir
                gate_delay: Union[float, np.ndarray]
                if buffer is None:
                    drive_slew = input_slew
                    gate_delay = 0.0
                else:
                    drive_slew = cfg.buffer_slew_regeneration * input_slew
                    gate_delay = (
                        buffer.intrinsic_delay * (corner.driver_scale * driver_mult[:, index])
                        + cfg.slew_delay_factor * input_slew
                    )
                delay, sigma = stage_models[index]
                row0 = 0 if output_dir == RISE else n
                base_arrival = input_arrival + gate_delay
                drive_sq = drive_slew * drive_slew
                for column, tap in enumerate(moments[index].tap_ids):
                    tap_arrival = base_arrival + delay[row0 : row0 + n, column]
                    wire_slew = LN9 * sigma[row0 : row0 + n, column]
                    tap_slew_value = (wire_slew * wire_slew + drive_sq) ** 0.5
                    is_sink, has_buffer = tap_flags[tap]
                    np.maximum(worst_slew, tap_slew_value, out=worst_slew)
                    if is_sink:
                        np.maximum(max_lat[output_dir], tap_arrival, out=max_lat[output_dir])
                        np.minimum(min_lat[output_dir], tap_arrival, out=min_lat[output_dir])
                    if has_buffer:
                        arrival_at[tap] = tap_arrival
                        slew_at[tap] = tap_slew_value
                        direction_at[tap] = output_dir
        return {"max": max_lat, "min": min_lat, "slew": worst_slew}

    # ------------------------------------------------------------------
    # Stage bookkeeping
    # ------------------------------------------------------------------
    def _stages_and_keys(
        self, tree: ClockTree, use_cache: bool
    ) -> Tuple[List[Stage], List[Optional[_StageKey]], List[_Driver]]:
        if not use_cache:
            stages = extract_stages(tree)
            drivers = [tree.node(stage.driver_id).buffer for stage in stages]
            return stages, [None] * len(stages), drivers
        stages = self.cache.stage_list(tree)
        keys, drivers = self._stage_keys(tree, stages)
        return stages, keys, drivers

    def _stage_keys(
        self, tree: ClockTree, stages: List[Stage]
    ) -> Tuple[List[Optional[_StageKey]], List[_Driver]]:
        revisions = tree.node_revisions
        keys: List[Optional[_StageKey]] = []
        drivers: List[_Driver] = []
        for stage in stages:
            key, buffer = self._stage_key(tree, stage, revisions)
            keys.append(key)
            drivers.append(buffer)
        return keys, drivers

    def _stage_key(
        self, tree: ClockTree, stage: Stage, revisions: Dict[int, int]
    ) -> Tuple[_StageKey, _Driver]:
        driver_id = stage.driver_id
        buffer = tree.node(driver_id).buffer
        if buffer is None:
            # The source stage is driven through the source resistance, which
            # is not covered by any node revision.
            head: tuple = (driver_id, revisions[driver_id], tree.source_resistance)
        else:
            head = (driver_id, revisions[driver_id])
        return (head, tuple((edge, revisions[edge]) for edge in stage.edges)), buffer

    def _dirty_frontier(
        self, tree: ClockTree, keys: List[Optional[_StageKey]], topo: StageTopology
    ) -> Tuple[Optional[Set[int]], Optional[_PropagationState]]:
        """Stages to re-propagate, or (None, None) to force a full walk.

        The dirty set is the content-key mismatches against the last
        propagation snapshot, closed over downstream stages (a changed stage
        changes the input arrival/slew of everything below its taps).  The
        complement -- retained stages -- then provably has only retained
        ancestors, which is what makes fragment splicing bit-identical.
        """
        prop = self._prop
        if (
            prop is None
            or prop.structure_revision != tree.structure_revision
            or len(prop.keys) != len(keys)
        ):
            return None, None
        recompute: Set[int] = set()
        stack = [
            index
            for index, (old, new) in enumerate(zip(prop.keys, keys))
            if old != new
        ]
        while stack:
            index = stack.pop()
            if index in recompute:
                continue
            recompute.add(index)
            stack.extend(topo.children[index])
        return recompute, prop

    # ------------------------------------------------------------------
    # Analytical engines: batched per-stage tap models
    # ------------------------------------------------------------------
    def _tap_model(
        self, tree: ClockTree, stage: Stage, key: Optional[_StageKey]
    ) -> _TapModel:
        """Per-stage ``{(corner, transition): {tap: (delay, sigma)}}`` mapping.

        ``delay`` is the wire delay from the driver switching instant and
        ``sigma`` the intrinsic slew scale; both are independent of the input
        transition, which enters only in the final PERI combination during
        propagation -- that is what makes the cached model reusable no matter
        how upstream stages change.
        """
        if key is not None:
            cached = self.cache.tap_model(key)
            if cached is not None:
                return cached
        moments = self._stage_base_moments(tree, stage, key, self._split_caps, count=False)
        m1, m2 = batched_tap_moments(moments, *self._combo_scales)
        delay, sigma = batched_delay_sigma(
            m1, m2, use_d2m=(self.config.engine == "arnoldi")
        )
        model: _TapModel = {}
        for row, combo in enumerate(self._combos):
            delays = delay[row]
            sigmas = sigma[row]
            model[combo] = {
                tap: (delays[column], sigmas[column])
                for column, tap in enumerate(moments.tap_ids)
            }
        if key is not None:
            self.cache.store_tap_model(key, model)
        return model

    def _stage_base_moments(
        self,
        tree: ClockTree,
        stage: Stage,
        key: Optional[_StageKey],
        split: bool,
        count: bool = True,
    ) -> BaseTapMoments:
        """The stage's corner-independent moment reduction, cached by content.

        Shared by the per-corner tap models of :meth:`evaluate` and the Monte
        Carlo batches of :meth:`evaluate_yield`, so whichever runs first pays
        for the numpy reduction and the other reuses it for every stage whose
        RC content is unchanged.
        """
        cache_key = (key, split) if key is not None else None
        if cache_key is not None:
            cached = self.cache.base_moments(cache_key, count=count)
            if cached is not None:
                return cached
        base = build_base_stage_network(tree, stage, self.config.max_segment_length)
        moments = base_tap_moments(base, split_wire_load=split)
        if cache_key is not None:
            self.cache.store_base_moments(cache_key, moments)
        return moments

    def _corner_from_models(
        self,
        stages: List[Stage],
        models: List[Optional[_TapModel]],
        drivers: List[_Driver],
        tap_flags: Dict[int, Tuple[bool, bool]],
        corner: Corner,
        recompute: Optional[Set[int]] = None,
        prior: Optional[List[_StageFrag]] = None,
        collect: bool = False,
    ) -> Tuple[CornerTiming, Optional[List[_StageFrag]]]:
        def stage_timing(
            index: int, stage: Stage, output_dir: str, drive_slew: float
        ) -> Iterator[Tuple[int, float, float]]:
            model = models[index]
            assert model is not None  # retained stages are never re-timed
            drive_sq = drive_slew * drive_slew
            for tap, (delay, sigma) in model[(corner.name, output_dir)].items():
                wire_slew = LN9 * sigma
                yield tap, delay, (wire_slew * wire_slew + drive_sq) ** 0.5

        return self._propagate_corner(
            stages, drivers, tap_flags, corner, stage_timing, recompute, prior, collect
        )

    # ------------------------------------------------------------------
    # Transient (SPICE-substitute) engine
    # ------------------------------------------------------------------
    def _corner_transient(
        self,
        tree: ClockTree,
        stages: List[Stage],
        keys: List[Optional[_StageKey]],
        drivers: List[_Driver],
        tap_flags: Dict[int, Tuple[bool, bool]],
        corner: Corner,
        recompute: Optional[Set[int]] = None,
        prior: Optional[List[_StageFrag]] = None,
        collect: bool = False,
    ) -> Tuple[CornerTiming, Optional[List[_StageFrag]]]:
        def stage_timing(
            index: int, stage: Stage, output_dir: str, drive_slew: float
        ) -> List[Tuple[int, float, float]]:
            timing = self._transient_stage_timing(
                tree, stage, keys[index], corner, output_dir, drive_slew
            )
            return [(tap, timing.delay[tap], timing.slew[tap]) for tap in stage.taps]

        return self._propagate_corner(
            stages, drivers, tap_flags, corner, stage_timing, recompute, prior, collect
        )

    # ------------------------------------------------------------------
    # Shared arrival/slew propagation
    # ------------------------------------------------------------------
    def _propagate_corner(
        self,
        stages: List[Stage],
        drivers: List[_Driver],
        tap_flags: Dict[int, Tuple[bool, bool]],
        corner: Corner,
        stage_timing: _StageTimingFn,
        recompute: Optional[Set[int]] = None,
        prior: Optional[List[_StageFrag]] = None,
        collect: bool = False,
    ) -> Tuple[CornerTiming, Optional[List[_StageFrag]]]:
        """Propagate both launch transitions through the ordered stages.

        ``stage_timing(index, stage, output_dir, drive_slew)`` yields
        ``(tap, delay, slew)`` triples for one stage; everything else --
        inversion tracking, gate delay, slew regeneration, sink/buffer
        bookkeeping -- is engine-independent and lives only here.

        The walk is stage-major with both launch transitions carried side by
        side, so that a stage outside ``recompute`` can be skipped entirely:
        its fragment from ``prior`` (same content key, hence bit-identical
        inputs and outputs) is spliced into the result dicts and its
        downstream state re-seeded from the recorded outputs.  With
        ``recompute=None`` every stage is computed -- a full propagation.
        ``collect=True`` additionally returns the per-stage fragment list for
        the next dirty-region diff.
        """
        cfg = self.config
        root_id = stages[0].driver_id
        latency: Dict[int, Dict[str, float]] = {}
        slew: Dict[int, Dict[str, float]] = {}
        tap_slew: Dict[int, Dict[str, float]] = {}
        arrival_at: Dict[str, Dict[int, float]] = {
            launch: {root_id: 0.0} for launch in _TRANSITIONS
        }
        slew_at: Dict[str, Dict[int, float]] = {
            launch: {root_id: cfg.source_slew} for launch in _TRANSITIONS
        }
        direction_at: Dict[str, Dict[int, str]] = {
            launch: {root_id: launch} for launch in _TRANSITIONS
        }
        frags: Optional[List[_StageFrag]] = [] if collect else None
        for index, (stage, buffer) in enumerate(zip(stages, drivers)):
            if recompute is not None and index not in recompute:
                assert prior is not None
                frag = prior[index]
                latency.update(frag.latency)
                slew.update(frag.slew)
                tap_slew.update(frag.tap_slew)
                for launch in _TRANSITIONS:
                    arrivals = arrival_at[launch]
                    slews = slew_at[launch]
                    directions = direction_at[launch]
                    for tap, tap_arrival, tap_slew_value, output_dir in frag.outputs[
                        launch
                    ]:
                        arrivals[tap] = tap_arrival
                        slews[tap] = tap_slew_value
                        directions[tap] = output_dir
                if frags is not None:
                    frags.append(frag)
                continue
            frag_latency: Dict[int, Dict[str, float]] = {}
            frag_slew: Dict[int, Dict[str, float]] = {}
            frag_tap_slew: Dict[int, Dict[str, float]] = {}
            frag_outputs: Dict[str, List[Tuple[int, float, float, str]]] = {
                RISE: [],
                FALL: [],
            }
            driver_id = stage.driver_id
            for launch in _TRANSITIONS:
                input_arrival = arrival_at[launch][driver_id]
                input_slew = slew_at[launch][driver_id]
                input_dir = direction_at[launch][driver_id]
                if buffer is not None and buffer.inverting:
                    output_dir = FALL if input_dir == RISE else RISE
                else:
                    output_dir = input_dir
                if buffer is None:
                    drive_slew = input_slew
                    gate_delay = 0.0
                else:
                    drive_slew = cfg.buffer_slew_regeneration * input_slew
                    gate_delay = (
                        buffer.intrinsic_delay * corner.driver_scale
                        + cfg.slew_delay_factor * input_slew
                    )
                arrivals = arrival_at[launch]
                slews = slew_at[launch]
                directions = direction_at[launch]
                outputs = frag_outputs[launch]
                for tap, delay, tap_slew_value in stage_timing(
                    index, stage, output_dir, drive_slew
                ):
                    tap_arrival = input_arrival + gate_delay + delay
                    is_sink, has_buffer = tap_flags[tap]
                    frag_tap_slew.setdefault(tap, {})[output_dir] = tap_slew_value
                    if is_sink:
                        frag_latency.setdefault(tap, {})[output_dir] = tap_arrival
                        frag_slew.setdefault(tap, {})[output_dir] = tap_slew_value
                    if has_buffer:
                        arrivals[tap] = tap_arrival
                        slews[tap] = tap_slew_value
                        directions[tap] = output_dir
                        outputs.append((tap, tap_arrival, tap_slew_value, output_dir))
            latency.update(frag_latency)
            slew.update(frag_slew)
            tap_slew.update(frag_tap_slew)
            if frags is not None:
                frags.append(
                    _StageFrag(frag_latency, frag_slew, frag_tap_slew, frag_outputs)
                )
        timing = CornerTiming(corner=corner, latency=latency, slew=slew, tap_slew=tap_slew)
        return timing, frags

    def _transient_stage_timing(
        self,
        tree: ClockTree,
        stage: Stage,
        key: Optional[_StageKey],
        corner: Corner,
        output_dir: str,
        drive_slew: float,
    ) -> StageTiming:
        cfg = self.config
        timing_key: Optional[tuple] = None
        if key is not None:
            # The timing key embeds the raw drive_slew float on purpose: the
            # waveform analysis is a function of the exact input slew, and
            # quantizing the key would change results.  The cost is that any
            # upstream slew wiggle produces a fresh key for every downstream
            # stage ("float-key thrash") -- dirty-region propagation sidesteps
            # the repeated lookups for retained stages, and the measured hit
            # rates before/after are recorded by the ``propagation`` perf case.
            timing_key = (key, corner.name, output_dir, drive_slew)
            cached = self.cache.timing(timing_key)
            if cached is not None:
                return cached
        network: Optional[StageNetwork] = None
        network_key: Optional[tuple] = None
        if key is not None:
            network_key = (key, corner.name, output_dir)
            network = self.cache.network(network_key)
        if network is None:
            network = build_stage_network(
                tree,
                stage,
                corner=corner,
                max_segment_length=cfg.max_segment_length,
                rise=(output_dir == RISE),
                pull_up_factor=cfg.pull_up_factor,
                pull_down_factor=cfg.pull_down_factor,
            )
            if network_key is not None:
                self.cache.store_network(network_key, network)
        timing = transient_stage_timing(
            network, drive_slew, vdd=corner.vdd, config=cfg.solver
        )
        if timing_key is not None:
            self.cache.store_timing(timing_key, timing)
        return timing
