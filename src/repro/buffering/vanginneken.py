"""Van Ginneken-style buffer insertion with non-dominated option pruning.

The dynamic program walks the clock tree bottom-up, maintaining at every point
a small set of non-dominated *options* ``(cap, req, tau)``:

* ``cap`` -- capacitance seen looking downstream from the point,
* ``req`` -- required time (the negative of the worst accumulated delay to any
  downstream sink), the quantity van Ginneken maximizes,
* ``tau`` -- worst Elmore delay from the point to any downstream tap through
  the *unbuffered* region below it, used to estimate the output slew a buffer
  placed at this point would produce.

Candidate insertion points are the legal stations enumerated by
:mod:`repro.buffering.candidates` plus the internal tree nodes.  A single
buffer type is used per run -- Contango's composite-inverter sweep simply
re-runs the DP with different parallel compositions (see
:mod:`repro.buffering.fast_buffering`).

Cost.  Every list is pruned to its non-dominated options and capped at
``max_options`` (K, default 32) by even downsampling along the cap axis.  A
merge forms the full cross product of its children's lists -- the ``tau``
axis rules out the linear two-axis merge of the classical algorithm -- so it
prunes up to K^2 candidates; a station or a wire segment prunes at most 2K.
:meth:`VanGinnekenInserter._prune` sorts its m candidates once
(O(m log m)) and decides each by at most three bisections of two
``(tau, req)`` staircases of the options kept so far (each kept option
enters and leaves each staircase at most once), exactly reproducing
the greedy dominance order (see the method).  A DP over n nodes and s
stations therefore costs O((n K^2 + s K) log K), against the O(n log n) of
the Shi & Li algorithm the paper adopts, which needs a single two-axis
frontier.  The stations and node legality are enumerated once per tree
(:class:`StationPlan`) and shared by every buffer type of a sweep.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from repro.analysis.units import LN9, OHM_FF_TO_PS
from repro.buffering.candidates import BufferStation, enumerate_stations, legality_rule
from repro.cts.bufferlib import BufferType
from repro.cts.tree import ClockTree, TreeNode
from repro.cts.wirelib import WireType
from repro.geometry.obstacles import ObstacleSet
from repro.geometry.point import Point
from repro.geometry.rect import Rect

__all__ = ["Option", "StationPlan", "BufferInsertionResult", "VanGinnekenInserter"]


#: Absolute tolerance of option dominance on every axis.
EPS = 1e-12


class Option(NamedTuple):
    """One non-dominated buffering solution for a subtree."""

    cap: float
    req: float
    tau: float
    nbuffers: int = 0
    site: Optional[Tuple[str, object]] = None
    derived_from: Tuple["Option", ...] = ()

    def dominates(self, other: "Option") -> bool:
        """True when this option is at least as good as ``other`` in every metric."""
        no_worse = (
            self.cap <= other.cap + EPS
            and self.req >= other.req - EPS
            and self.tau <= other.tau + EPS
        )
        strictly = (
            self.cap < other.cap - EPS
            or self.req > other.req + EPS
            or self.tau < other.tau - EPS
        )
        return no_worse and strictly


#: ``Option`` from a full field tuple, skipping the keyword-handling
#: constructor: the DP builds every option through it.
_option = partial(tuple.__new__, Option)


@dataclass(frozen=True)
class StationPlan:
    """Where a buffer may go in one tree: edge stations and legal nodes.

    ``stations`` maps each edge (by child node id) to its stations, as
    :func:`~repro.buffering.candidates.enumerate_stations` returns them;
    ``legal_nodes`` holds the internal non-root nodes that pass the legality
    test.  Neither depends on the buffer type, and
    :meth:`~repro.cts.tree.ClockTree.clone` keeps node ids, so one plan
    serves every clone of the tree it was made for.
    """

    stations: Dict[int, List[BufferStation]]
    legal_nodes: FrozenSet[int]


@dataclass
class BufferInsertionResult:
    """Outcome of one buffer-insertion run."""

    buffer: BufferType
    buffer_count: int
    worst_delay_estimate: float
    slew_feasible: bool
    node_sites: List[int] = field(default_factory=list)
    station_sites: List[BufferStation] = field(default_factory=list)


class VanGinnekenInserter:
    """Insert one buffer type into a clock tree, minimizing worst Elmore delay."""

    def __init__(
        self,
        buffer: BufferType,
        slew_limit: float = 100.0,
        slew_margin: float = 0.70,
        station_spacing: float = 250.0,
        obstacles: Optional[ObstacleSet] = None,
        die: Optional[Rect] = None,
        legality: Optional[Callable[[Point], bool]] = None,
        max_options: int = 32,
    ) -> None:
        if max_options < 4:
            raise ValueError("max_options must be at least 4")
        self.buffer = buffer
        self.slew_limit = slew_limit
        self.slew_margin = slew_margin
        self.station_spacing = station_spacing
        self.obstacles = obstacles
        self.die = die
        self.legality = legality
        self.max_options = max_options

    # ------------------------------------------------------------------
    def plan(self, tree: ClockTree) -> StationPlan:
        """Enumerate the stations and legal internal nodes of ``tree``."""
        stations = enumerate_stations(
            tree,
            spacing=self.station_spacing,
            obstacles=self.obstacles,
            die=self.die,
            legality=self.legality,
        )
        is_legal = legality_rule(self.obstacles, self.die, self.legality)
        legal_nodes = frozenset(
            node.node_id
            for node in tree.nodes()
            if not node.is_sink and node.parent is not None and is_legal(node.position)
        )
        return StationPlan(stations=stations, legal_nodes=legal_nodes)

    def insert(
        self,
        tree: ClockTree,
        apply: bool = True,
        plan: Optional[StationPlan] = None,
    ) -> BufferInsertionResult:
        """Run the DP on ``tree`` and (optionally) apply the chosen buffering.

        ``plan`` must come from :meth:`plan` on ``tree`` or on a tree it was
        cloned from (or that was cloned from it); it is made here when
        omitted.
        """
        if plan is None:
            plan = self.plan(tree)
        stations, legal_nodes = plan.stations, plan.legal_nodes
        options_at: Dict[int, List[Option]] = {}
        edge_top: Dict[int, List[Option]] = {}

        for node in tree.postorder():
            node_id = node.node_id
            if node.is_sink:
                options = [Option(tree.node_load_capacitance(node_id), 0.0, 0.0)]
            else:
                options = self._merge_children([edge_top[child] for child in node.children])
                if node_id in legal_nodes:
                    options = self._with_buffered_variants(options, ("node", node_id))
                options = self._prune(options)
            options_at[node_id] = options
            if node.parent is not None:
                edge_top[node_id] = self._propagate_edge(node, options, stations[node_id])

        best = self._select_root_option(tree, options_at[tree.root_id])
        node_sites, station_sites = self._traceback(best)
        if apply:
            self._apply(tree, node_sites, station_sites)
        root_delay = -best.req + tree.source_resistance * best.cap * OHM_FF_TO_PS
        return BufferInsertionResult(
            buffer=self.buffer,
            buffer_count=best.nbuffers,
            worst_delay_estimate=root_delay,
            slew_feasible=self._source_slew_ok(tree, best),
            node_sites=node_sites,
            station_sites=station_sites,
        )

    # ------------------------------------------------------------------
    # DP building blocks
    # ------------------------------------------------------------------
    def _merge_children(self, option_lists: Sequence[List[Option]]) -> List[Option]:
        if not option_lists:
            return [Option(0.0, 0.0, 0.0)]
        current = option_lists[0]
        for other in option_lists[1:]:
            combined: List[Option] = []
            for a in current:
                a_cap, a_req, a_tau, a_buffers = a.cap, a.req, a.tau, a.nbuffers
                for b in other:
                    b_req, b_tau = b.req, b.tau
                    # min(a.req, b.req) and max(a.tau, b.tau), ties going to
                    # ``a`` as they do there, without two builtin calls per pair.
                    combined.append(
                        _option(
                            (
                                a_cap + b.cap,
                                b_req if b_req < a_req else a_req,
                                b_tau if b_tau > a_tau else a_tau,
                                a_buffers + b.nbuffers,
                                None,
                                (a, b),
                            )
                        )
                    )
            current = self._prune(combined)
        return current

    def _propagate_edge(
        self, node: TreeNode, options: List[Option], stations: List[BufferStation]
    ) -> List[Option]:
        wire = node.wire_type
        current = options
        walked = 0.0
        for station in stations:
            current = self._extend_wire(current, wire, station.distance_from_child - walked)
            walked = station.distance_from_child
            if station.legal:
                current = self._with_buffered_variants(current, ("station", station))
            current = self._prune(current)
        current = self._extend_wire(current, wire, node.edge_length() - walked)
        return self._prune(current)

    def _extend_wire(
        self, options: List[Option], wire: Optional[WireType], length: float
    ) -> List[Option]:
        """Every option seen through ``length`` more of ``wire`` above it."""
        if wire is None or length <= 0.0:
            return options
        res = wire.resistance(length)
        cap = wire.capacitance(length)
        half_cap = cap / 2.0
        extended: List[Option] = []
        for opt in options:
            delay = res * (half_cap + opt.cap) * OHM_FF_TO_PS
            extended.append(
                _option(
                    (opt.cap + cap, opt.req - delay, opt.tau + delay, opt.nbuffers, None, (opt,))
                )
            )
        return extended

    def _with_buffered_variants(
        self, options: List[Option], site: Tuple[str, object]
    ) -> List[Option]:
        buffered: List[Option] = []
        slew_cap = self.slew_margin * self.slew_limit
        tau_budget = slew_cap / LN9
        output_res = self.buffer.output_res
        intrinsic = self.buffer.intrinsic_delay
        input_cap = self.buffer.input_cap
        for opt in options:
            drive = output_res * opt.cap * OHM_FF_TO_PS
            if LN9 * (drive + opt.tau) > slew_cap and opt.tau <= tau_budget:
                # The slew problem is caused by accumulated capacitance, which a
                # buffer placed further down could have fixed -- other options
                # cover that, so this variant is not needed.  When ``tau`` alone
                # already exceeds the budget the violation is unavoidable (an
                # unbufferable span, e.g. a wire crossing a large blockage); a
                # buffer is still allowed here so the damage stays contained
                # instead of poisoning every option up to the root.
                continue
            gate_delay = intrinsic + drive
            buffered.append(
                _option((input_cap, opt.req - gate_delay, 0.0, opt.nbuffers + 1, site, (opt,)))
            )
        return options + buffered

    def _prune(self, options: List[Option]) -> List[Option]:
        """Greedy dominance pruning in ``(cap, -req, tau)`` order.

        A candidate is dropped when an option already kept dominates it
        (:meth:`Option.dominates`).  Kept options precede the candidate in
        cap order, so a kept ``k`` dominates candidate ``c`` exactly when
        ``k.req >= c.req - EPS`` and ``k.tau <= c.tau + EPS`` and one of
        ``k.req > c.req + EPS``, ``k.tau < c.tau - EPS`` or
        ``k.cap < c.cap - EPS`` holds.  Each of those three cases is one
        prefix-maximum query "best ``req`` over kept options with ``tau``
        below a bound", answered by bisecting a staircase: the first two on
        the staircase of every kept option, the cap case on a second one
        that holds only the kept options more than ``EPS`` below the
        candidate's cap (a prefix of ``kept``, which only grows because the
        candidates arrive in cap order).
        """
        if len(options) <= 1:
            return options
        ordered = sorted(options, key=lambda o: (o.cap, -o.req, o.tau))
        kept: List[Option] = []
        taus: List[float] = []
        reqs: List[float] = []
        low_taus: List[float] = []
        low_reqs: List[float] = []
        below = 0
        for candidate in ordered:
            cap, req, tau, _, _, _ = candidate
            req_lo = req - EPS
            tau_hi = tau + EPS
            i = bisect_right(taus, tau_hi)
            if i and reqs[i - 1] >= req_lo:
                # A kept option is no worse on req and tau; the candidate
                # goes if one such option is strictly better on some axis.
                if reqs[i - 1] > req + EPS:
                    continue
                i = bisect_left(taus, tau - EPS)
                if i and reqs[i - 1] >= req_lo:
                    continue
                # The cap staircase is only brought up to date here, where
                # it is needed.
                cap_lo = cap - EPS
                while below < len(kept) and kept[below].cap < cap_lo:
                    _climb(low_taus, low_reqs, kept[below].tau, kept[below].req)
                    below += 1
                i = bisect_right(low_taus, tau_hi)
                if i and low_reqs[i - 1] >= req_lo:
                    continue
            kept.append(candidate)
            _climb(taus, reqs, tau, req)
        if len(kept) > self.max_options:
            # Downsample along the capacitance axis.  The low-cap (heavily
            # buffered) end of the frontier must survive -- its value only
            # becomes visible higher up the tree, when upstream wire and the
            # source resistance multiply against the accumulated cap -- so an
            # overflow cut by required time alone would be systematically
            # wrong.  Even spacing keeps both frontier ends and a
            # representative middle.
            step = (len(kept) - 1) / (self.max_options - 1)
            indices = sorted({round(i * step) for i in range(self.max_options)})
            kept = [kept[i] for i in indices]
        return kept

    def _select_root_option(self, tree: ClockTree, options: List[Option]) -> Option:
        def total_delay(opt: Option) -> float:
            return -opt.req + tree.source_resistance * opt.cap * OHM_FF_TO_PS

        feasible = [opt for opt in options if self._source_slew_ok(tree, opt)]
        pool = feasible if feasible else options
        return min(pool, key=total_delay)

    def _source_slew_ok(self, tree: ClockTree, option: Option) -> bool:
        slew = LN9 * (tree.source_resistance * option.cap * OHM_FF_TO_PS + option.tau)
        return slew <= self.slew_margin * self.slew_limit

    # ------------------------------------------------------------------
    # Traceback and application
    # ------------------------------------------------------------------
    def _traceback(self, best: Option) -> Tuple[List[int], List[BufferStation]]:
        node_sites: List[int] = []
        station_sites: List[BufferStation] = []
        stack = [best]
        while stack:
            option = stack.pop()
            if option.site is not None:
                kind, payload = option.site
                if kind == "node":
                    node_sites.append(payload)
                else:
                    station_sites.append(payload)
            stack.extend(option.derived_from)
        return node_sites, station_sites

    def _apply(
        self,
        tree: ClockTree,
        node_sites: Sequence[int],
        station_sites: Sequence[BufferStation],
    ) -> None:
        for node_id in node_sites:
            tree.place_buffer(node_id, self.buffer)
        by_edge: Dict[int, List[BufferStation]] = {}
        for station in station_sites:
            by_edge.setdefault(station.edge_node, []).append(station)
        for edge_node, stations in by_edge.items():
            stations.sort(key=lambda s: s.fraction_from_parent)
            previous_fraction = 0.0
            for station in stations:
                local_fraction = (station.fraction_from_parent - previous_fraction) / (
                    1.0 - previous_fraction
                )
                local_fraction = min(max(local_fraction, 1e-6), 1.0 - 1e-6)
                new_node = tree.split_edge(edge_node, local_fraction)
                tree.place_buffer(new_node, self.buffer)
                previous_fraction = station.fraction_from_parent
        tree.validate()


def _climb(taus: List[float], reqs: List[float], tau: float, req: float) -> None:
    """Add ``(tau, req)`` to a staircase.

    A staircase keeps ``taus`` non-decreasing and ``reqs`` strictly
    increasing, so the best ``req`` among the points added with
    ``tau <= t`` is ``reqs[bisect_right(taus, t) - 1]`` (and with
    ``tau < t``, ``reqs[bisect_left(taus, t) - 1]``).  A point that an
    earlier one matches or beats on both axes is left out, and the points
    the new one beats are removed.
    """
    i = bisect_right(taus, tau)
    if i and reqs[i - 1] >= req:
        return
    j = i
    while j < len(reqs) and reqs[j] <= req:
        j += 1
    taus[i:j] = [tau]
    reqs[i:j] = [req]
