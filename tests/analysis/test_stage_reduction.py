"""Bit-for-bit differential test of the batched stage reduction.

``ClockNetworkEvaluator.evaluate`` reduces every stage whose tap model it
misses in one padded ``(stages, width)`` moment pass and expands the result
over all corners and transitions in one stacked pass.  The reference below
is the per-stage code it replaced -- one ``base_tap_moments`` call per stage
on 1-D arrays, and the per-stage ``_tap_model`` with ``(M, 1)`` scale
columns -- kept here verbatim.  The two must agree exactly on every
:class:`~repro.analysis.arnoldi.BaseTapMoments` field and every tap-model
entry: across instances, both wire/load capacitance layouts, both analytical
engines, batches of one, two and mixed stage sizes (so rows get padded),
zero-length edges and the unbuffered source stage.
"""

from typing import Dict, List, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ClockNetworkEvaluator, EvaluatorConfig
from repro.analysis.arnoldi import BaseTapMoments, base_tap_moments, batched_delay_sigma
from repro.analysis.corners import Corner
from repro.analysis.rcnetwork import BaseStageNetwork, build_base_stage_network
from repro.analysis.units import OHM_FF_TO_PS
from repro.api.jobs import JobSpec
from repro.core import ContangoFlow, FlowConfig
from repro.cts.tree import ClockTree, Sink
from repro.geometry.point import Point
from repro.runner import resolve_instance
from repro.testing import make_manual_tree

INSTANCES = (
    "ti:1",
    "ti:2",
    "ti:3",
    "ti:60",
    "ispd09:ispd09f22:0.1",
    "ispd09:ispd09fnb1:0.1",
    "ispd09:ispd09f31:0.1",
    "scenario:maze",
)
TAP_FIELDS = ("a_wire_tap", "a_load_tap", "p_ww_tap", "p_mixed_tap", "p_ll_tap")
TOTAL_FIELDS = (
    "wire_cap_total",
    "load_cap_total",
    "a0_ww",
    "a0_mixed",
    "a0_ll",
    "driver_resistance",
)


# ----------------------------------------------------------------------
# The reference: the per-stage reduction and tap model it replaced
# ----------------------------------------------------------------------
def reference_subtree_interval_sums(values, subtree_end):
    prefix = np.concatenate(([0.0], np.cumsum(values)))
    return prefix[subtree_end] - prefix[: len(values)]


def reference_path_sums(values, subtree_end):
    n = len(values)
    removal = np.bincount(subtree_end, weights=values, minlength=n + 1)[:n]
    return np.cumsum(values - removal)


def reference_base_tap_moments(base: BaseStageNetwork, split_wire_load: bool) -> BaseTapMoments:
    interval = reference_subtree_interval_sums
    path = reference_path_sums
    cap_w = np.asarray(base.wire_capacitance)
    cap_l = np.asarray(base.load_capacitance)
    res = np.asarray(base.resistance)
    end = np.asarray(base.subtree_end, dtype=np.int32)
    taps = np.asarray(base.tap_indices, dtype=np.int32)
    if not split_wire_load:
        cap = cap_w + cap_l
        cdown = interval(cap, end)
        a = path(res * cdown, end)
        weighted = cap * a
        p = path(res * interval(weighted, end), end)
        zeros = np.zeros(len(taps))
        return BaseTapMoments(
            tap_ids=tuple(base.tap_ids),
            a_wire_tap=zeros,
            a_load_tap=a[taps],
            p_ww_tap=zeros,
            p_mixed_tap=zeros,
            p_ll_tap=p[taps],
            wire_cap_total=0.0,
            load_cap_total=float(cap.sum()),
            a0_ww=0.0,
            a0_mixed=0.0,
            a0_ll=float(weighted.sum()),
            driver_resistance=base.driver_resistance,
        )
    cdown_w = interval(cap_w, end)
    cdown_l = interval(cap_l, end)
    a_w = path(res * cdown_w, end)
    a_l = path(res * cdown_l, end)
    weighted_ww = cap_w * a_w
    weighted_mixed = cap_w * a_l + cap_l * a_w
    weighted_ll = cap_l * a_l
    p_ww = path(res * interval(weighted_ww, end), end)
    p_mixed = path(res * interval(weighted_mixed, end), end)
    p_ll = path(res * interval(weighted_ll, end), end)
    return BaseTapMoments(
        tap_ids=tuple(base.tap_ids),
        a_wire_tap=a_w[taps],
        a_load_tap=a_l[taps],
        p_ww_tap=p_ww[taps],
        p_mixed_tap=p_mixed[taps],
        p_ll_tap=p_ll[taps],
        wire_cap_total=float(cap_w.sum()),
        load_cap_total=float(cap_l.sum()),
        a0_ww=float(weighted_ww.sum()),
        a0_mixed=float(weighted_mixed.sum()),
        a0_ll=float(weighted_ll.sum()),
        driver_resistance=base.driver_resistance,
    )


def reference_tap_model(evaluator, tree, stage, split):
    """The per-stage ``_tap_model``: ``(M, 1)`` scale columns, numpy scalars."""
    moments = reference_base_tap_moments(
        build_base_stage_network(tree, stage, evaluator.config.max_segment_length), split
    )
    cfg = evaluator.config
    combos, driver_scales, res_scales, cap_scales = [], [], [], []
    for corner in evaluator.corners:
        for direction in ("rise", "fall"):
            asym = cfg.pull_up_factor if direction == "rise" else cfg.pull_down_factor
            combos.append((corner.name, direction))
            driver_scales.append(corner.driver_scale * asym)
            res_scales.append(corner.wire_res_scale)
            cap_scales.append(corner.wire_cap_scale)
    r = np.array(res_scales)[:, None]
    w = np.array(cap_scales)[:, None]
    ww = w * w
    k = w * moments.wire_cap_total + moments.load_cap_total
    a0 = ww * moments.a0_ww + w * moments.a0_mixed + moments.a0_ll
    a = w * moments.a_wire_tap + moments.a_load_tap
    p = ww * moments.p_ww_tap + w * moments.p_mixed_tap + moments.p_ll_tap
    ra = r * a
    rrp = (r * r) * p
    drv = moments.driver_resistance * np.array(driver_scales)[:, None]
    drv_r = drv * r
    m1 = OHM_FF_TO_PS * (drv * k + ra)
    m2 = (OHM_FF_TO_PS**2) * ((drv * drv * k * k + drv_r * a0) + (drv_r * k) * a + rrp)
    delay, sigma = batched_delay_sigma(m1, m2, use_d2m=(cfg.engine == "arnoldi"))
    model = {}
    for row, combo in enumerate(combos):
        delays = delay[row]
        sigmas = sigma[row]
        model[combo] = {
            tap: (delays[column], sigmas[column])
            for column, tap in enumerate(moments.tap_ids)
        }
    return model


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
_TREES: Dict[str, ClockTree] = {}


def constructed_tree(spec: str) -> ClockTree:
    """The buffered tree of ``spec`` after construction (the initial pass)."""
    if spec not in _TREES:
        instance = resolve_instance(JobSpec(instance=spec))
        config = FlowConfig(engine="arnoldi")
        config.pipeline = ["initial"]
        _TREES[spec] = ContangoFlow(config).run(instance).require_tree()
    return _TREES[spec]


def zero_length_tree() -> ClockTree:
    """The hand-built tree plus zero-length edges in the source and buffer stages."""
    tree = make_manual_tree()
    hub = next(node.node_id for node in tree.buffers())
    stub = tree.add_internal(tree.root_id, tree.root.position)
    tree.add_sink(stub, Point(60.0, -90.0), Sink("d", 15.0))
    tree.add_internal(hub, tree.node(hub).position)
    tree.validate()
    return tree


def stage_batches(count: int) -> List[List[int]]:
    """All stages at once, each alone, neighbours in pairs, and a mixed batch."""
    batches = [list(range(count))]
    batches += [[index] for index in range(count)]
    batches += [[index, index + 1] for index in range(count - 1)]
    batches.append(list(range(count - 1, -1, -2)))
    return batches


def evaluator_for(engine: str, corners: Sequence[Corner] = ()) -> ClockNetworkEvaluator:
    return ClockNetworkEvaluator(
        config=EvaluatorConfig(engine=engine), corners=list(corners) or None
    )


def assert_moments_match(tree: ClockTree, batch: List[int], split: bool) -> None:
    evaluator = evaluator_for("arnoldi")
    stages = evaluator.cache.stage_list(tree)
    bases = [build_base_stage_network(tree, stages[index]) for index in batch]
    stacked = base_tap_moments(bases, split_wire_load=split)
    assert stacked.tap_offsets[-1] == len(stacked.tap_ids) == len(stacked.tap_stage)
    for row, base in enumerate(bases):
        got = stacked.stage(row)
        want = reference_base_tap_moments(base, split)
        assert got.tap_ids == want.tap_ids
        for name in TAP_FIELDS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        for name in TOTAL_FIELDS:
            value = getattr(got, name)
            assert type(value) is float and value == getattr(want, name), name


def assert_models_match(
    tree: ClockTree, engine: str, batch: List[int], corners: Sequence[Corner] = ()
) -> None:
    evaluator = evaluator_for(engine, corners)
    stages = evaluator.cache.stage_list(tree)
    models = evaluator._tap_models(tree, stages, [None] * len(stages), set(batch))
    for index, model in enumerate(models):
        if index not in batch:
            assert model is None
            continue
        assert model is not None
        want = reference_tap_model(evaluator, tree, stages[index], evaluator._split_caps)
        assert list(model) == list(want)
        for combo, taps in want.items():
            assert list(model[combo]) == list(taps)
            for tap, (delay, sigma) in taps.items():
                got_delay, got_sigma = model[combo][tap]
                assert type(got_delay) is float and type(got_sigma) is float
                assert got_delay == delay and got_sigma == sigma, (combo, tap)


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
@pytest.mark.parametrize("split", [True, False])
@pytest.mark.parametrize("spec", INSTANCES)
def test_batched_reduction_matches_per_stage_reference(spec, split):
    tree = constructed_tree(spec)
    count = len(evaluator_for("arnoldi").cache.stage_list(tree))
    for batch in stage_batches(count):
        assert_moments_match(tree, batch, split)


@pytest.mark.parametrize("engine", ["arnoldi", "elmore"])
@pytest.mark.parametrize("spec", INSTANCES)
def test_batched_tap_models_match_per_stage_reference(spec, engine):
    tree = constructed_tree(spec)
    count = len(evaluator_for(engine).cache.stage_list(tree))
    for batch in stage_batches(count):
        assert_models_match(tree, engine, batch)


@pytest.mark.parametrize("engine", ["arnoldi", "elmore"])
def test_split_capacitance_tap_models_match_reference(engine):
    # A corner scaling wire capacitance makes the evaluator keep wire and
    # load capacitance apart (split_wire_load=True).
    corners = [
        Corner(name="fast", vdd=1.2, driver_scale=0.9),
        Corner(name="slow", vdd=1.0, driver_scale=1.2, wire_res_scale=1.1, wire_cap_scale=1.05),
    ]
    assert evaluator_for(engine, corners)._split_caps
    for spec in ("ti:60", "ispd09:ispd09f22:0.1"):
        tree = constructed_tree(spec)
        count = len(evaluator_for(engine).cache.stage_list(tree))
        for batch in stage_batches(count):
            assert_models_match(tree, engine, batch, corners)


@pytest.mark.parametrize("engine", ["arnoldi", "elmore"])
@pytest.mark.parametrize("split", [True, False])
def test_zero_length_edges_and_unbuffered_source_stage(engine, split):
    for tree in (make_manual_tree(), zero_length_tree()):
        stages = evaluator_for(engine).cache.stage_list(tree)
        assert tree.node(stages[0].driver_id).buffer is None
        for batch in stage_batches(len(stages)):
            assert_moments_match(tree, batch, split)
            assert_models_match(tree, engine, batch)


def test_zero_length_tree_has_zero_length_edges():
    tree = zero_length_tree()
    lengths = [node.edge_length() for node in tree.nodes() if node.parent is not None]
    assert lengths.count(0.0) == 2


def test_batches_pad_rows_of_different_sizes():
    tree = constructed_tree("ispd09:ispd09f22:0.1")
    stages = evaluator_for("arnoldi").cache.stage_list(tree)
    sizes = {build_base_stage_network(tree, stage).size for stage in stages}
    assert len(sizes) >= 3


def test_evaluate_caches_each_reduced_stage():
    tree = constructed_tree("ti:60")
    evaluator = evaluator_for("arnoldi")
    stages = evaluator.cache.stage_list(tree)
    evaluator.evaluate(tree)
    stats = evaluator.cache_stats()
    assert stats["misses"] == stats["tap_models"] == stats["base_moments"] == len(stages)
    keys, _ = evaluator._stage_keys(tree, stages)
    for stage, key in zip(stages, keys):
        cached = evaluator.cache._base_moments[(key, evaluator._split_caps)]
        want = reference_base_tap_moments(
            build_base_stage_network(tree, stage), evaluator._split_caps
        )
        for name in TAP_FIELDS:
            assert np.array_equal(getattr(cached, name), getattr(want, name))
        for name in TOTAL_FIELDS:
            assert getattr(cached, name) == getattr(want, name)


@settings(max_examples=40, deadline=None)
@given(
    spec=st.sampled_from(("ti:60", "ispd09:ispd09fnb1:0.1", "scenario:maze")),
    picks=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=12),
    split=st.booleans(),
    engine=st.sampled_from(("arnoldi", "elmore")),
)
def test_random_stage_subsets_match_reference(spec, picks, split, engine):
    tree = constructed_tree(spec)
    count = len(evaluator_for(engine).cache.stage_list(tree))
    batch = sorted({pick % count for pick in picks})
    assert_moments_match(tree, batch, split)
    assert_models_match(tree, engine, batch)


def test_instances_cover_small_and_large_stages():
    edges = [
        len(stage.edges)
        for spec in INSTANCES
        for stage in evaluator_for("arnoldi").cache.stage_list(constructed_tree(spec))
    ]
    assert min(edges) <= 2 and max(edges) >= 10
