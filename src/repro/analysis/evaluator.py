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
once per content revision to a few base vectors from which delays and slews
at *every* corner and transition follow -- no per-corner network rebuilds.
The stages an evaluation misses in the cache are reduced in one stacked
pass: their segment lists are packed into one padded ``(stages, segments)``
array set and reduced with numpy prefix sums in one
:func:`repro.analysis.arnoldi.base_tap_moments` call, then expanded over all
corners and transitions in one stacked moment pass with ``(stages, M)``
scale arrays.  Every row sees only its own stage's values, in the order a
stage reduced alone would, so the result is bit-identical to reducing the
stages one by one (``tests/analysis/test_stage_reduction.py``).  The
reduction runs in :meth:`ClockNetworkEvaluator.evaluate` itself, ahead of
the ``propagate`` span, so a trace separates reduction (``evaluate`` self
time) from the arrival/slew walk (``propagate``).  The transient
(``spice``) engine caches the per-corner stage networks and per-input-slew
waveform analyses instead, and analyzes stages during the walk.

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
:meth:`ClockNetworkEvaluator.evaluate_yield` extends the analytical engines
to variation samples with one levelized, blocked kernel.  A plan built once
per call orders the stages by buffer level, stacks their cached moment
reductions tap after tap (:class:`~repro.analysis.arnoldi.StackedTapMoments`)
and resolves each stage's output direction per launch with a scalar walk.
The samples then run in blocks of ``_SAMPLE_BLOCK`` (256), so every
``(taps x block)`` array stays cache-resident.  Per block and corner, each
launch takes one stacked moment pass over all taps, an in-place delay/sigma
pass, and a walk over the buffer levels with one numpy call per quantity
and level; sink extrema are reduced once per launch.  Every IEEE operation
is the one the scalar propagation applies, in the same order, so a
zero-variance model reproduces :meth:`evaluate` bit for bit, and the
per-tap kernel this replaced is reproduced exactly
(``tests/analysis/test_yield_kernel.py``).  On ti:200 (46 stages, 245
taps, two corners) a 20k-sample sweep takes ~0.7 s and a 128-sample gate
check ~5 ms on a 2-CPU Xeon host, against 1.7 s and 17 ms for the per-tap
kernel.
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
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.analysis.arnoldi import (
    BaseTapMoments,
    StackedTapMoments,
    WireTerms,
    base_tap_moments,
    batched_delay_sigma,
    batched_tap_moments,
    stack_tap_moments,
    wire_terms,
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
from repro.analysis.variation import VariationModel, YieldReport
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


# Monte Carlo samples per kernel block.  A block's (taps x samples) arrays
# then hold ~63k float64 values (0.5 MB) each on ti:200's 245 taps, so the
# working set of the ~40 numpy passes per block stays in L2.  A 20k-sample
# ti:200 sweep on a 2-CPU Xeon host took 0.73 s at 64, 0.62-0.80 s at 128,
# 0.62-0.75 s at 256, 0.64-0.76 s at 512 and 1.22 s at 1024.
_SAMPLE_BLOCK = 256


class _YieldLevel(NamedTuple):
    """One buffer level of a :class:`_YieldPlan`: stage rows ``[s0, s1)``
    and their tap rows ``[t0, t1)``."""

    s0: int
    s1: int
    t0: int
    t1: int
    #: Level-local stage row of each of the level's tap rows.
    tap_stage: np.ndarray
    #: Tap row of each stage's driver in the level above; None for the root.
    inputs: Optional[np.ndarray]
    #: Whether the level's stages are buffer-driven (only the source is not).
    buffered: bool


class _YieldPlan(NamedTuple):
    """Sample-independent layout of one :meth:`ClockNetworkEvaluator.evaluate_yield`
    call, shared by every corner and sample block.

    Stage rows are ordered by buffer level and tap rows are the stages' taps
    concatenated in that order, so every level is a contiguous slice of
    both.  The launch-to-output direction of a stage does not depend on the
    samples, so it is resolved here once by a scalar walk.
    """

    #: Original stage index of each stage row.
    order: np.ndarray
    moments: StackedTapMoments
    #: ``(stages, 1)`` driver intrinsic delay (0.0 for the unbuffered source).
    intrinsic: np.ndarray
    levels: List[_YieldLevel]
    #: Per launch, ``(stages, 1)`` flags: the stage's output rises.
    rises: Dict[str, np.ndarray]
    #: Per (launch, output direction), the tap rows of the sinks it reaches.
    sinks: Dict[Tuple[str, str], np.ndarray]


class _CornerSamples(NamedTuple):
    """Per-sample sink-latency extrema (per output transition) and worst
    tap slew of one corner."""

    max_latency: Dict[str, np.ndarray]
    min_latency: Dict[str, np.ndarray]
    worst_slew: np.ndarray


def _yield_plan(
    topo: StageTopology, moments: List[BaseTapMoments], drivers: List[_Driver]
) -> _YieldPlan:
    """Level-order the stages of ``topo`` and stack their moment reductions."""
    level = [0] * len(topo.stages)
    parent = [-1] * len(topo.stages)
    for index, children in enumerate(topo.children):  # parents come first
        for child in children:
            level[child] = level[index] + 1
            parent[child] = index
    order = sorted(range(len(topo.stages)), key=level.__getitem__)
    row_of_stage = {index: row for row, index in enumerate(order)}
    # Everything below is in row (level) order.
    row_moments = [moments[index] for index in order]
    row_drivers = [drivers[index] for index in order]
    row_level = [level[index] for index in order]
    row_parent = [row_of_stage.get(parent[index], -1) for index in order]
    stacked = stack_tap_moments(row_moments)
    tap_row = {tap: row for row, tap in enumerate(stacked.tap_ids)}
    first_tap = stacked.tap_offsets

    rises: Dict[str, np.ndarray] = {}
    sinks: Dict[Tuple[str, str], np.ndarray] = {}
    for launch in _TRANSITIONS:
        output_dir: List[str] = []
        for up, buffer in zip(row_parent, row_drivers):
            input_dir = launch if up < 0 else output_dir[up]
            if buffer is not None and buffer.inverting:
                output_dir.append(FALL if input_dir == RISE else RISE)
            else:
                output_dir.append(input_dir)
        rises[launch] = np.array([d == RISE for d in output_dir])[:, None]
        for direction in _TRANSITIONS:
            sinks[(launch, direction)] = np.array(
                [
                    tap_row[tap]
                    for stage_dir, stage_moments in zip(output_dir, row_moments)
                    if stage_dir == direction
                    for tap in stage_moments.tap_ids
                    if topo.tap_flags[tap][0]
                ],
                dtype=np.intp,
            )

    levels: List[_YieldLevel] = []
    s0 = 0
    while s0 < len(order):
        s1 = s0
        while s1 < len(order) and row_level[s1] == row_level[s0]:
            s1 += 1
        buffered = [buffer is not None for buffer in row_drivers[s0:s1]]
        # Only the source stage, alone on level 0, can lack a driver buffer.
        assert all(buffered) or not any(buffered)
        levels.append(
            _YieldLevel(
                s0=s0,
                s1=s1,
                t0=first_tap[s0],
                t1=first_tap[s1],
                tap_stage=stacked.tap_stage[first_tap[s0] : first_tap[s1]] - s0,
                inputs=None
                if s0 == 0
                else np.array(
                    [tap_row[topo.stages[index].driver_id] for index in order[s0:s1]],
                    dtype=np.intp,
                ),
                buffered=all(buffered),
            )
        )
        s0 = s1
    intrinsic = np.array(
        [0.0 if buffer is None else buffer.intrinsic_delay for buffer in row_drivers]
    )[:, None]
    return _YieldPlan(
        order=np.array(order, dtype=np.intp),
        moments=stacked,
        intrinsic=intrinsic,
        levels=levels,
        rises=rises,
        sinks=sinks,
    )


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

    def base_moments(self, key: tuple) -> Optional[BaseTapMoments]:
        """Cached corner-independent moment reduction of one stage.

        Keys carry the stage content key plus the wire/load-split flag.
        Every reduction stores its records here -- the tap-model misses of
        :meth:`ClockNetworkEvaluator.evaluate` as well as the misses of
        :meth:`ClockNetworkEvaluator.evaluate_yield` -- and the yield
        evaluation reads them, scaling them per Monte Carlo sample, so it
        re-reduces only stages whose RC content changed since any earlier
        evaluation of either kind.
        """
        moments = self._base_moments.get(key)
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
        # (1, M) driver / wire-res / wire-cap scale rows, broadcast to
        # (stages, M) for the stacked tap-model pass.
        self._combo_scales = tuple(
            np.array(scales)[None, :] for scales in (driver_scales, res_scales, cap_scales)
        )
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
        # Stage reduction runs here, outside the propagate span, so the span
        # times the arrival/slew walk alone.
        models = (
            self._tap_models(tree, stages, keys, recompute)
            if self.config.engine in ("elmore", "arnoldi")
            else None
        )
        with self.tracer.span("propagate") as prop_span:
            corner_results, fragments = self._propagate_corners(
                tree,
                stages,
                keys,
                drivers,
                tap_flags,
                models,
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
        models: Optional[List[Optional[_TapModel]]],
        *,
        recompute: Optional[Set[int]],
        prior: Optional[_PropagationState],
        collect: bool,
    ) -> Tuple[Dict[str, CornerTiming], Dict[str, List[_StageFrag]]]:
        """Propagate every corner (the ``propagate`` span body).

        ``models`` are the analytical engines' tap models from
        :meth:`_tap_models`; the transient engine (``models=None``) analyzes
        each stage during the walk, since its timing depends on the input
        slew.
        """
        fragments: Dict[str, List[_StageFrag]] = {}
        corner_results: Dict[str, CornerTiming] = {}
        if models is not None:
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
        of every evaluator corner.  The scenarios run through the levelized
        kernel of the module docstring: blocks of ``_SAMPLE_BLOCK`` samples,
        and per block, corner and launch one stacked
        :func:`~repro.analysis.arnoldi.batched_tap_moments` pass over every
        tap plus one numpy call per buffer level and quantity.  Corners with
        equal wire scales share the driver-independent moment terms.  Each
        stage's cached base moments are looked up exactly once per call.
        On ti:200 this costs ~35 us per sample for two corners, against
        ~85 us for the per-tap kernel it replaced.  A zero-variance model
        reproduces the nominal evaluation bit-for-bit: sampling returns
        multipliers of exactly 1.0 and the kernel mirrors the nominal path
        operation for operation.

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
        keys: List[Optional[_StageKey]]
        if self.config.incremental:
            topo = self.cache.topology(tree)
            keys, drivers = self._stage_keys(tree, topo.stages)
        else:
            topo = build_stage_topology(tree)
            keys = [None] * len(topo.stages)
            drivers = [tree.node(stage.driver_id).buffer for stage in topo.stages]
        stages = topo.stages
        positions = np.array(
            [
                (tree.node(stage.driver_id).position.x, tree.node(stage.driver_id).position.y)
                for stage in stages
            ]
        )
        draws = model.sample(samples, rng, positions=positions)
        split = self._split_caps or model.perturbs_wire_cap
        moments: Dict[int, BaseTapMoments] = {}
        for index, key in enumerate(keys):
            cached = None if key is None else self.cache.base_moments((key, split))
            if cached is not None:
                moments[index] = cached
        missed = [index for index in range(len(stages)) if index not in moments]
        if missed:
            reduced = self._reduce_stages(
                tree, [stages[i] for i in missed], [keys[i] for i in missed], split
            )
            for row, index in enumerate(missed):
                moments[index] = reduced.stage(row)
        plan = _yield_plan(topo, [moments[i] for i in range(len(stages))], drivers)
        use_d2m = self.config.engine == "arnoldi"

        per_corner = {
            corner.name: _CornerSamples(
                {t: np.empty(samples) for t in _TRANSITIONS},
                {t: np.empty(samples) for t in _TRANSITIONS},
                np.empty(samples),
            )
            for corner in self.corners
        }
        for lo in range(0, samples, _SAMPLE_BLOCK):
            block = slice(lo, min(lo + _SAMPLE_BLOCK, samples))
            driver, wire_res, wire_cap, vdd_shift = (
                np.ascontiguousarray(values[block, plan.order].T)
                for values in (draws.driver, draws.wire_res, draws.wire_cap, draws.vdd_shift)
            )
            # Corners with equal wire scales share the driver-independent
            # half of the moments (the ISPD'09 pair differs in supply only).
            wires: Dict[Tuple[float, float], WireTerms] = {}
            for corner in self.corners:
                wire_key = (corner.wire_res_scale, corner.wire_cap_scale)
                wire = wires.get(wire_key)
                if wire is None:
                    wire = wires[wire_key] = wire_terms(
                        plan.moments,
                        corner.wire_res_scale * wire_res,
                        corner.wire_cap_scale * wire_cap,
                    )
                driver_mult = driver * supply_driver_multiplier(corner.vdd, vdd_shift)
                out = per_corner[corner.name]
                part = self._yield_block(plan, corner, driver_mult, wire, use_d2m)
                for t in _TRANSITIONS:
                    out.max_latency[t][block] = part.max_latency[t]
                    out.min_latency[t][block] = part.min_latency[t]
                out.worst_slew[block] = part.worst_slew

        fast = per_corner[self._fast]
        slow = per_corner[self._slow]
        skew = np.maximum(
            fast.max_latency[RISE] - fast.min_latency[RISE],
            fast.max_latency[FALL] - fast.min_latency[FALL],
        )
        clr = np.maximum(
            slow.max_latency[RISE] - fast.min_latency[RISE],
            slow.max_latency[FALL] - fast.min_latency[FALL],
        )
        worst_slew = per_corner[self.corners[0].name].worst_slew
        for corner in self.corners[1:]:
            worst_slew = np.maximum(worst_slew, per_corner[corner.name].worst_slew)
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

    def _yield_block(
        self,
        plan: _YieldPlan,
        corner: Corner,
        driver_mult: np.ndarray,
        wire: WireTerms,
        use_d2m: bool,
    ) -> _CornerSamples:
        """Arrival/slew propagation of one sample block at one corner.

        ``driver_mult`` is the ``(stages, width)`` per-sample driver
        multiplier in plan stage order.  Per launch, one stacked
        :func:`~repro.analysis.arnoldi.batched_tap_moments` pass times every
        tap with its stage's pull-up or pull-down scale, then the levels are
        walked with one numpy call per quantity and level.  Every operation
        is the one :meth:`_propagate_corner` applies to scalars, in the same
        order, so unit multipliers keep bit parity with the nominal path.
        """
        cfg = self.config
        width = driver_mult.shape[1]
        gate_base = plan.intrinsic * (corner.driver_scale * driver_mult)
        up_scale = corner.driver_scale * cfg.pull_up_factor
        down_scale = corner.driver_scale * cfg.pull_down_factor
        max_lat = {t: np.full(width, -np.inf) for t in _TRANSITIONS}
        min_lat = {t: np.full(width, np.inf) for t in _TRANSITIONS}
        worst_slew = np.zeros(width)
        for launch in _TRANSITIONS:
            scale = np.where(plan.rises[launch], up_scale, down_scale)
            m1, m2 = batched_tap_moments(plan.moments, scale * driver_mult, wire)
            delay, sigma = batched_delay_sigma(m1, m2, use_d2m=use_d2m)
            wire_sq = LN9 * sigma
            wire_sq *= wire_sq
            arrival = np.empty_like(wire_sq)
            slew = np.empty_like(wire_sq)
            for level in plan.levels:
                if level.inputs is None:
                    input_arrival = np.zeros((level.s1 - level.s0, width))
                    input_slew = np.full((level.s1 - level.s0, width), cfg.source_slew)
                else:
                    input_arrival = arrival[level.inputs]
                    input_slew = slew[level.inputs]
                if level.buffered:
                    drive_slew = cfg.buffer_slew_regeneration * input_slew
                    gate_delay = (
                        gate_base[level.s0 : level.s1] + cfg.slew_delay_factor * input_slew
                    )
                    base_arrival = input_arrival + gate_delay
                else:
                    drive_slew = input_slew
                    base_arrival = input_arrival + 0.0
                drive_sq = drive_slew * drive_slew
                taps = slice(level.t0, level.t1)
                np.add(base_arrival[level.tap_stage], delay[taps], out=arrival[taps])
                np.add(wire_sq[taps], drive_sq[level.tap_stage], out=slew[taps])
                np.sqrt(slew[taps], out=slew[taps])
            np.maximum(worst_slew, slew.max(axis=0), out=worst_slew)
            for direction in _TRANSITIONS:
                rows = plan.sinks[(launch, direction)]
                if rows.size:
                    sink_arrival = arrival[rows]
                    np.maximum(
                        max_lat[direction], sink_arrival.max(axis=0), out=max_lat[direction]
                    )
                    np.minimum(
                        min_lat[direction], sink_arrival.min(axis=0), out=min_lat[direction]
                    )
        return _CornerSamples(max_lat, min_lat, worst_slew)

    # ------------------------------------------------------------------
    # Stage bookkeeping
    # ------------------------------------------------------------------
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
    def _tap_models(
        self,
        tree: ClockTree,
        stages: List[Stage],
        keys: List[Optional[_StageKey]],
        recompute: Optional[Set[int]],
    ) -> List[Optional[_TapModel]]:
        """Per-stage ``{(corner, transition): {tap: (delay, sigma)}}`` mappings.

        One model per stage the evaluation propagates (``None`` for retained
        stages).  ``delay`` is the wire delay from the driver switching
        instant and ``sigma`` the intrinsic slew scale; both are independent
        of the input transition, which enters only in the final PERI
        combination during propagation -- that is what makes a cached model
        reusable no matter how upstream stages change.

        Every stage whose model is not cached is reduced in one batched pass
        (:meth:`_reduce_stages`) and expanded over all corners and
        transitions in one stacked moment pass with ``(stages, M)`` scale
        arrays.  The models hold Python floats, so the propagation walk does
        plain float arithmetic.
        """
        models: List[Optional[_TapModel]] = [None] * len(stages)
        missed: List[int] = []
        for index, key in enumerate(keys):
            if recompute is not None and index not in recompute:
                continue
            cached = None if key is None else self.cache.tap_model(key)
            if cached is None:
                missed.append(index)
            else:
                models[index] = cached
        if not missed:
            return models
        moments = self._reduce_stages(
            tree, [stages[i] for i in missed], [keys[i] for i in missed], self._split_caps
        )
        driver, wire_res, wire_cap = (
            np.repeat(row, len(missed), axis=0) for row in self._combo_scales
        )
        m1, m2 = batched_tap_moments(
            moments, driver, wire_terms(moments, wire_res, wire_cap)
        )
        delay, sigma = batched_delay_sigma(
            m1, m2, use_d2m=(self.config.engine == "arnoldi")
        )
        delays = delay.T.tolist()
        sigmas = sigma.T.tolist()
        offsets = moments.tap_offsets
        for row, index in enumerate(missed):
            t0 = offsets[row]
            t1 = offsets[row + 1]
            taps = moments.tap_ids[t0:t1]
            model = {
                combo: dict(zip(taps, zip(combo_delays[t0:t1], combo_sigmas[t0:t1])))
                for combo, combo_delays, combo_sigmas in zip(self._combos, delays, sigmas)
            }
            models[index] = model
            key = keys[index]
            if key is not None:
                self.cache.store_tap_model(key, model)
        return models

    def _reduce_stages(
        self,
        tree: ClockTree,
        stages: List[Stage],
        keys: List[Optional[_StageKey]],
        split: bool,
    ) -> StackedTapMoments:
        """Reduce the stages' RC content in one batched pass, caching each stage.

        The one reduction entry of both :meth:`evaluate` (tap-model misses)
        and :meth:`evaluate_yield` (base-moment misses): it builds every
        stage's base network and reduces them all with one
        :func:`~repro.analysis.arnoldi.base_tap_moments` call.  Each keyed
        stage's record is cached by content, so a later yield evaluation
        re-reduces only stages whose RC content changed.
        """
        moments = base_tap_moments(
            [
                build_base_stage_network(tree, stage, self.config.max_segment_length)
                for stage in stages
            ],
            split_wire_load=split,
        )
        for row, key in enumerate(keys):
            if key is not None:
                self.cache.store_base_moments((key, split), moments.stage(row))
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
