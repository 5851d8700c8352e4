"""Reduced-order (moment-matching) timing engine for stage networks.

The paper notes that SPICE can be replaced by "Arnoldi approximation, or any
other available timing analysis tool/model".  This engine computes the first
two moments of every tap transfer function with two tree traversals -- the
path-tracing equivalent of one Arnoldi/Krylov step -- and converts them to
delay and slew with the D2M and lognormal-variance metrics.  It is roughly an
order of magnitude faster than the transient solver and substantially more
accurate than Elmore on resistively-shielded nets.

Two implementations live here:

* :func:`stage_moments` / :func:`arnoldi_stage_timing` -- the reference
  per-network recurrences on a :class:`StageNetwork` (any topological node
  order, one corner at a time), kept as the public single-stage API;
* the **vectorized batch path** used by the incremental evaluator:
  :func:`base_tap_moments` reduces a batch of corner-independent
  :class:`~repro.analysis.rcnetwork.BaseStageNetwork` stages to a handful of
  per-tap base vectors with numpy prefix sums over one padded
  ``(stages, segments)`` array set (no per-segment or per-stage Python
  loop), and :func:`wire_terms` plus :func:`batched_tap_moments` turn those
  into exact ``m1``/``m2``.  The factorization rests on the corner model
  being a per-stage scaling: with wire scales ``r`` (res) and ``w`` (cap,
  applied to wire capacitance only) and total driver resistance ``D``, the
  moment recurrences separate into

      m1 = D*K(w) + r*a(w)
      m2 = D^2*K(w)^2 + D*r*A0(w) + D*K(w)*r*a(w) + r^2*P(w)

  where ``K(w)``/``a(w)`` are linear and ``A0(w)``/``P(w)`` quadratic
  polynomials in ``w`` whose coefficients (wire/load capacitance split)
  depend only on the stage's RC content -- so they are computed once per
  content revision and reused across corners, transitions and evaluations.
  :func:`wire_terms` evaluates the ``D``-free terms once per wire scaling;
  :func:`batched_tap_moments` adds the ``D`` terms for each driver scaling.

There is one layout, :class:`StackedTapMoments`: several stages' taps
concatenated stage after stage, taken with ``(stages, width)`` scale arrays
and giving ``(taps, width)`` arrays.  The per-stage terms are computed at
stage width and gathered to the taps through ``tap_stage``, so each stage
uses its own scale with no per-tap selection.  :func:`base_tap_moments`
produces it directly for the stages an evaluation misses, whose width is
the ``M`` corner-and-transition combinations; the Monte Carlo kernel
stacks every stage of the tree in buffer-level order from the cached
per-stage :class:`BaseTapMoments` records (:func:`stack_tap_moments`), with
one column per sample.  On ti:200 (46 stages, 245 taps) one such pass
covers 256 samples of one launch in about 0.6 ms on a 2-CPU Xeon host.
:func:`batched_delay_sigma` then turns the moments into delay and slew
sigma in place.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.analysis.elmore import StageTiming
from repro.analysis.rcnetwork import BaseStageNetwork, StageNetwork, path_sums, subtree_interval_sums
from repro.analysis.units import LN2, LN9, OHM_FF_TO_PS

__all__ = [
    "stage_moments",
    "arnoldi_stage_timing",
    "BaseTapMoments",
    "base_tap_moments",
    "StackedTapMoments",
    "stack_tap_moments",
    "WireTerms",
    "wire_terms",
    "batched_tap_moments",
    "batched_delay_sigma",
]


def stage_moments(network: StageNetwork) -> Tuple[List[float], List[float]]:
    """Return (m1, m2) at every network node.

    ``m1`` is the (sign-dropped) first moment -- the Elmore delay -- and
    ``m2`` the second moment of the impulse response, both in ps and ps^2.
    The recurrences are the standard RC-tree path formulas:

        m1(i) = sum_{e on path(i)} R_e * C_down(e)
        m2(i) = sum_{e on path(i)} R_e * M_down(e),  M_down(e) = sum_k C_k m1(k)

    with the driver resistance acting as the topmost path resistance.
    """
    downstream_cap = network.downstream_capacitance()
    m1 = [0.0] * network.size
    m1[0] = network.driver_resistance * downstream_cap[0] * OHM_FF_TO_PS
    for idx in range(1, network.size):
        par = network.parent[idx]
        m1[idx] = m1[par] + network.resistance[idx] * downstream_cap[idx] * OHM_FF_TO_PS

    # Downstream capacitance-weighted first moments.
    weighted = [network.capacitance[i] * m1[i] for i in range(network.size)]
    for idx in range(network.size - 1, 0, -1):
        weighted[network.parent[idx]] += weighted[idx]

    m2 = [0.0] * network.size
    m2[0] = network.driver_resistance * weighted[0] * OHM_FF_TO_PS
    for idx in range(1, network.size):
        par = network.parent[idx]
        m2[idx] = m2[par] + network.resistance[idx] * weighted[idx] * OHM_FF_TO_PS
    return m1, m2


def arnoldi_stage_timing(network: StageNetwork, input_slew: float) -> StageTiming:
    """Delay/slew at every tap from two-moment reduced-order models.

    Delay uses the D2M metric ``ln(2) * m1^2 / sqrt(m2)`` (clamped to the
    Elmore value from above, since D2M can overshoot on near taps); slew uses
    the lognormal variance ``sigma^2 = 2*m2 - m1^2`` combined with the input
    transition by the PERI rule.
    """
    m1, m2 = stage_moments(network)
    delay_map: Dict[int, float] = {}
    slew_map: Dict[int, float] = {}
    for tree_id, idx in network.tap_index.items():
        first, second = m1[idx], m2[idx]
        if second <= 0.0 or first <= 0.0:
            delay = LN2 * first
            sigma = first
        else:
            delay = LN2 * first * first / (second**0.5)
            delay = min(delay, first)
            variance = max(2.0 * second - first * first, (0.1 * first) ** 2)
            sigma = variance**0.5
        wire_slew = LN9 * sigma
        slew = (wire_slew**2 + input_slew**2) ** 0.5
        delay_map[tree_id] = delay
        slew_map[tree_id] = slew
    return StageTiming(delay=delay_map, slew=slew_map)


# ----------------------------------------------------------------------
# Vectorized multi-corner path (used by the incremental evaluator)
# ----------------------------------------------------------------------
class BaseTapMoments(NamedTuple):
    """Corner-independent moment ingredients of one stage, reduced to its taps.

    Capacitance enters in two components -- wire (``w``-scaled by
    ``wire_cap_scale``) and load (never scaled) -- so every vector that is
    linear in capacitance splits in two, and every vector that is bilinear
    (the second-moment ingredients) splits in three by powers of ``w``.  All
    quantities are in raw ohm/fF units (no :data:`OHM_FF_TO_PS` applied); the
    conversion happens in :func:`batched_tap_moments`.

    This is the per-stage cache record: :meth:`StackedTapMoments.stage` splits
    it out of a batched reduction and :func:`stack_tap_moments` stacks records
    back into the layout the moment functions take.
    """

    tap_ids: Tuple[int, ...]
    a_wire_tap: np.ndarray  # sum_path R_e * CdownWire_e at each tap
    a_load_tap: np.ndarray  # sum_path R_e * CdownLoad_e at each tap
    p_ww_tap: np.ndarray  # sum_path R_e * (sum_sub Cw_k * aW_k)     (w^2 term)
    p_mixed_tap: np.ndarray  # sum_path R_e * (sum_sub Cw*aL + Cl*aW) (w^1 term)
    p_ll_tap: np.ndarray  # sum_path R_e * (sum_sub Cl_k * aL_k)     (w^0 term)
    wire_cap_total: float  # Kw: total wire capacitance of the stage
    load_cap_total: float  # Kl: total load capacitance of the stage
    a0_ww: float  # sum over all nodes of Cw_k * aW_k
    a0_mixed: float  # sum over all nodes of Cw_k*aL_k + Cl_k*aW_k
    a0_ll: float  # sum over all nodes of Cl_k * aL_k
    driver_resistance: float  # unscaled driver resistance


class StackedTapMoments(NamedTuple):
    """The :class:`BaseTapMoments` of several stages, stacked for one batched pass.

    Per-tap vectors are concatenated stage after stage into ``(taps, 1)``
    columns and per-stage totals into ``(stages, 1)`` columns, so scale
    arrays of shape ``(stages, width)`` broadcast against the totals and
    their gathered ``(taps, width)`` rows against the tap vectors.
    ``tap_stage[j]`` is the stage row of tap row ``j``; stage ``i`` owns tap
    rows ``tap_offsets[i]:tap_offsets[i + 1]``.
    """

    tap_ids: Tuple[int, ...]
    tap_offsets: Tuple[int, ...]
    tap_stage: np.ndarray
    a_wire_tap: np.ndarray
    a_load_tap: np.ndarray
    p_ww_tap: np.ndarray
    p_mixed_tap: np.ndarray
    p_ll_tap: np.ndarray
    wire_cap_total: np.ndarray
    load_cap_total: np.ndarray
    a0_ww: np.ndarray
    a0_mixed: np.ndarray
    a0_ll: np.ndarray
    driver_resistance: np.ndarray

    def stage(self, row: int) -> BaseTapMoments:
        """Stage ``row``'s reduction on its own (tap vectors are views)."""
        t0 = self.tap_offsets[row]
        t1 = self.tap_offsets[row + 1]
        return BaseTapMoments(
            tap_ids=self.tap_ids[t0:t1],
            a_wire_tap=self.a_wire_tap[t0:t1, 0],
            a_load_tap=self.a_load_tap[t0:t1, 0],
            p_ww_tap=self.p_ww_tap[t0:t1, 0],
            p_mixed_tap=self.p_mixed_tap[t0:t1, 0],
            p_ll_tap=self.p_ll_tap[t0:t1, 0],
            wire_cap_total=float(self.wire_cap_total[row, 0]),
            load_cap_total=float(self.load_cap_total[row, 0]),
            a0_ww=float(self.a0_ww[row, 0]),
            a0_mixed=float(self.a0_mixed[row, 0]),
            a0_ll=float(self.a0_ll[row, 0]),
            driver_resistance=float(self.driver_resistance[row, 0]),
        )


def base_tap_moments(
    bases: Sequence[BaseStageNetwork], split_wire_load: bool = True
) -> StackedTapMoments:
    """Reduce base stage networks to their per-tap moment base vectors in one pass.

    The stages are packed into ``(stages, width)`` arrays, one zero-padded
    row per stage with at least one padding column, so every per-segment
    accumulation (downstream capacitance, the two path-sum sweeps of the
    m1/m2 recurrences) runs as one numpy prefix-sum pass over all stages.
    Each row's cumulative sums and scatter-adds see exactly that stage's
    segments, in order, so every value equals the one a stage reduced on its
    own would get.  The stage totals are ``ndarray.sum()`` of each stage's
    own segments: summing a padded row would change numpy's pairwise
    summation order.

    ``split_wire_load=False`` collapses wire and load capacitance into the
    (never ``w``-scaled) load component, halving the reduction work.  It is
    only valid when every corner subsequently passed to
    :func:`batched_tap_moments` has ``wire_cap_scale == 1.0`` -- true for the
    ISPD'09 corner set -- in which case the results are identical.
    """
    count = len(bases)
    sizes = [base.size for base in bases]
    width = max(sizes) + 1
    res: List[float] = []
    cap_w: List[float] = []
    cap_l: List[float] = []
    end: List[int] = []
    taps: List[int] = []
    tap_ids: List[int] = []
    tap_stage: List[int] = []
    tap_offsets = [0]
    for row, base in enumerate(bases):
        pad = width - base.size
        zeros = [0.0] * pad
        res += base.resistance
        res += zeros
        cap_w += base.wire_capacitance
        cap_w += zeros
        cap_l += base.load_capacitance
        cap_l += zeros
        # Padding ends point at the row's last column, a bin no node reads.
        end += base.subtree_end
        end += [width - 1] * pad
        offset = row * width
        taps += [offset + index for index in base.tap_indices]
        tap_ids += base.tap_ids
        tap_stage += [row] * len(base.tap_ids)
        tap_offsets.append(len(tap_ids))
    resistance, wire, load = np.array((res, cap_w, cap_l)).reshape(3, count, width)
    ends = np.array(end, dtype=np.intp).reshape(count, width)
    ends += np.arange(0, count * width, width, dtype=np.intp)[:, None]
    tap_flat = np.array(taps, dtype=np.intp)[:, None]

    def totals(*quantities: np.ndarray) -> List[np.ndarray]:
        """``(stages, 1)`` sums of each quantity over each stage's own nodes."""
        add = np.add.reduce  # what ndarray.sum() runs
        sums = np.array(
            [[add(q[row, :n]) for q in quantities] for row, n in enumerate(sizes)]
        )
        return [sums[:, column : column + 1] for column in range(len(quantities))]

    if split_wire_load:
        a_w = path_sums(resistance * subtree_interval_sums(wire, ends), ends)
        a_l = path_sums(resistance * subtree_interval_sums(load, ends), ends)
        weighted_ww = wire * a_w
        weighted_mixed = wire * a_l + load * a_w
        weighted_ll = load * a_l
        p_ww = path_sums(resistance * subtree_interval_sums(weighted_ww, ends), ends)
        p_mixed = path_sums(
            resistance * subtree_interval_sums(weighted_mixed, ends), ends
        )
        p_ll = path_sums(resistance * subtree_interval_sums(weighted_ll, ends), ends)
        a_wire_tap = a_w.take(tap_flat)
        a_load_tap = a_l.take(tap_flat)
        p_ww_tap = p_ww.take(tap_flat)
        p_mixed_tap = p_mixed.take(tap_flat)
        p_ll_tap = p_ll.take(tap_flat)
        wire_cap_total, load_cap_total, a0_ww, a0_mixed, a0_ll = totals(
            wire, load, weighted_ww, weighted_mixed, weighted_ll
        )
    else:
        cap = wire + load
        a = path_sums(resistance * subtree_interval_sums(cap, ends), ends)
        weighted = cap * a
        p = path_sums(resistance * subtree_interval_sums(weighted, ends), ends)
        a_load_tap = a.take(tap_flat)
        p_ll_tap = p.take(tap_flat)
        a_wire_tap = p_ww_tap = p_mixed_tap = np.zeros(a_load_tap.shape)
        load_cap_total, a0_ll = totals(cap, weighted)
        wire_cap_total = a0_ww = a0_mixed = np.zeros((count, 1))
    return StackedTapMoments(
        tap_ids=tuple(tap_ids),
        tap_offsets=tuple(tap_offsets),
        tap_stage=np.array(tap_stage, dtype=np.intp),
        a_wire_tap=a_wire_tap,
        a_load_tap=a_load_tap,
        p_ww_tap=p_ww_tap,
        p_mixed_tap=p_mixed_tap,
        p_ll_tap=p_ll_tap,
        wire_cap_total=wire_cap_total,
        load_cap_total=load_cap_total,
        a0_ww=a0_ww,
        a0_mixed=a0_mixed,
        a0_ll=a0_ll,
        driver_resistance=np.array([[base.driver_resistance] for base in bases]),
    )


def stack_tap_moments(stages: Sequence[BaseTapMoments]) -> StackedTapMoments:
    """Stack per-stage reductions, in the given stage order, into one record."""

    def taps(name: str) -> np.ndarray:
        return np.concatenate([getattr(m, name) for m in stages])[:, None]

    def totals(name: str) -> np.ndarray:
        return np.array([getattr(m, name) for m in stages], dtype=float)[:, None]

    tap_offsets = [0]
    for m in stages:
        tap_offsets.append(tap_offsets[-1] + len(m.tap_ids))
    return StackedTapMoments(
        tap_ids=tuple(tap for m in stages for tap in m.tap_ids),
        tap_offsets=tuple(tap_offsets),
        tap_stage=np.repeat(
            np.arange(len(stages), dtype=np.intp), np.diff(tap_offsets)
        ),
        a_wire_tap=taps("a_wire_tap"),
        a_load_tap=taps("a_load_tap"),
        p_ww_tap=taps("p_ww_tap"),
        p_mixed_tap=taps("p_mixed_tap"),
        p_ll_tap=taps("p_ll_tap"),
        wire_cap_total=totals("wire_cap_total"),
        load_cap_total=totals("load_cap_total"),
        a0_ww=totals("a0_ww"),
        a0_mixed=totals("a0_mixed"),
        a0_ll=totals("a0_ll"),
        driver_resistance=totals("driver_resistance"),
    )


class WireTerms(NamedTuple):
    """The driver-independent half of the m1/m2 factorization.

    ``r``, ``k`` and ``a0`` are stage-level, ``a``, ``ra`` (= r*a) and
    ``rrp`` (= r*r*p) tap-level.  One instance serves every driver scaling
    that shares the wire scaling it was built for.
    """

    r: np.ndarray
    k: np.ndarray
    a0: np.ndarray
    a: np.ndarray
    ra: np.ndarray
    rrp: np.ndarray


def wire_terms(
    moments: StackedTapMoments, wire_res_scales: np.ndarray, wire_cap_scales: np.ndarray
) -> WireTerms:
    """The wire-scale terms of :func:`batched_tap_moments` for one wire scaling.

    The scales are ``(stages, width)`` arrays: one row per stage, one column
    per corner-and-transition combination (nominal evaluation) or per Monte
    Carlo sample.  ``wire_cap_scales`` applies only to the wire-capacitance
    component, matching :func:`repro.analysis.rcnetwork.build_stage_network`.
    """
    stage = moments.tap_stage
    r = wire_res_scales
    w = wire_cap_scales
    ww = w * w
    k = w * moments.wire_cap_total + moments.load_cap_total
    a0 = ww * moments.a0_ww + w * moments.a0_mixed + moments.a0_ll
    w_tap = w.take(stage, axis=0)
    a = w_tap * moments.a_wire_tap + moments.a_load_tap
    p = (
        ww.take(stage, axis=0) * moments.p_ww_tap
        + w_tap * moments.p_mixed_tap
        + moments.p_ll_tap
    )
    return WireTerms(
        r, k, a0, a, r.take(stage, axis=0) * a, (r * r).take(stage, axis=0) * p
    )


def batched_tap_moments(
    moments: StackedTapMoments, driver_scales: np.ndarray, wire: WireTerms
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact (m1, m2) at every tap for a batch of driver scalings.

    ``driver_scales`` has the ``(stages, width)`` shape of the scales
    ``wire`` was built from (see :func:`wire_terms`).  The per-stage terms
    are computed at stage width and gathered to the taps, so each stage uses
    its own driver scale; the results are ``(taps, width)`` arrays, m1 in ps
    and m2 in ps^2.
    """
    stage = moments.tap_stage
    drv = moments.driver_resistance * driver_scales
    drv_r = drv * wire.r
    m1 = OHM_FF_TO_PS * ((drv * wire.k).take(stage, axis=0) + wire.ra)
    m2 = (OHM_FF_TO_PS**2) * (
        (drv * drv * wire.k * wire.k + drv_r * wire.a0).take(stage, axis=0)
        + (drv_r * wire.k).take(stage, axis=0) * wire.a
        + wire.rrp
    )
    return m1, m2


def batched_delay_sigma(
    m1: np.ndarray, m2: np.ndarray, use_d2m: bool = True
) -> Tuple[np.ndarray, np.ndarray]:
    """Delay and intrinsic-slew sigma from batched moments, in place.

    With ``use_d2m`` this reproduces :func:`arnoldi_stage_timing`'s metrics
    (D2M delay clamped by Elmore, lognormal-variance sigma) elementwise and
    returns ``m1`` overwritten with the delay and ``m2`` with sigma; without
    it, it reproduces the Elmore engine and returns ``(m1, m1)`` untouched.
    The returned sigma is the quantity multiplied by ``ln(9)`` and
    PERI-combined with the input transition to obtain the tap slew.

    When every moment is positive the degenerate branch cannot fire, so the
    formula runs on scratch buffers without masks; otherwise (zeros,
    negative values, NaN) the masked formula runs.  Both give the same bits.
    """
    if not use_d2m:
        return m1, m1
    if m1.size and m1.min() > 0.0 and m2.min() > 0.0:
        scratch = np.sqrt(m2)
        d2m = LN2 * m1
        d2m *= m1
        d2m /= scratch
        m2 *= 2.0
        np.multiply(m1, m1, out=scratch)
        m2 -= scratch
        np.multiply(m1, 0.1, out=scratch)
        np.square(scratch, out=scratch)
        np.maximum(m2, scratch, out=m2)
        np.sqrt(m2, out=m2)
        np.minimum(d2m, m1, out=m1)
        return m1, m2
    degenerate = (m2 <= 0.0) | (m1 <= 0.0)
    safe_m2 = np.where(degenerate, 1.0, m2)
    d2m = LN2 * m1 * m1 / np.sqrt(safe_m2)
    delay = np.where(degenerate, LN2 * m1, np.minimum(d2m, m1))
    variance = np.maximum(2.0 * m2 - m1 * m1, (0.1 * m1) ** 2)
    m2[...] = np.where(degenerate, m1, np.sqrt(np.maximum(variance, 0.0)))
    m1[...] = delay
    return m1, m2
