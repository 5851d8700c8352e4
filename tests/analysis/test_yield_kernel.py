"""Bit-for-bit differential test of the levelized Monte Carlo yield kernel.

``ClockNetworkEvaluator.evaluate_yield`` times every tap of a level-ordered
stack of stages in one moment pass per launch, walks the buffer levels with
one numpy call per level, and runs the samples in cache-sized blocks.  The
reference below is the per-stage, per-tap kernel it replaced -- one batched
moment call per stage and corner, one Python step per tap -- kept here
verbatim together with the moment and delay/sigma formulas it called.  The
two must agree exactly, not approximately, on the raw skew, CLR and slew
samples: across instances with inverting buffers, both analytical engines,
all three sampling families, and sample counts on both sides of the block
boundary.
"""

from typing import Dict, List, Tuple, Union

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.evaluator as evaluator_module
from repro.analysis import ClockNetworkEvaluator, EvaluatorConfig
from repro.analysis.arnoldi import batched_delay_sigma
from repro.analysis.corners import Corner, ispd09_corners, supply_driver_multiplier
from repro.analysis.units import LN2, LN9, OHM_FF_TO_PS
from repro.analysis.variation import VariationModel, default_variation_model
from repro.api.jobs import JobSpec
from repro.core import ContangoFlow, FlowConfig
from repro.runner import resolve_instance
from repro.seeding import derive_rng
from repro.testing import make_manual_tree

RISE, FALL = "rise", "fall"
TRANSITIONS = (RISE, FALL)
BLOCK = evaluator_module._SAMPLE_BLOCK
SAMPLE_COUNTS = (1, 7, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3)
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
FAMILIES = ("independent", "correlated", "corner_anchored")


# ----------------------------------------------------------------------
# The reference: the per-stage, per-tap kernel and the formulas it used
# ----------------------------------------------------------------------
def reference_tap_moments(moments, driver_scales, wire_res_scales, wire_cap_scales):
    d_scale = np.asarray(driver_scales)[:, None]
    r = np.asarray(wire_res_scales)[:, None]
    w = np.asarray(wire_cap_scales)[:, None]
    drv = moments.driver_resistance * d_scale
    k = w * moments.wire_cap_total + moments.load_cap_total
    a = w * moments.a_wire_tap[None, :] + moments.a_load_tap[None, :]
    a0 = w * w * moments.a0_ww + w * moments.a0_mixed + moments.a0_ll
    p = (
        w * w * moments.p_ww_tap[None, :]
        + w * moments.p_mixed_tap[None, :]
        + moments.p_ll_tap[None, :]
    )
    m1 = OHM_FF_TO_PS * (drv * k + r * a)
    m2 = (OHM_FF_TO_PS**2) * (
        drv * drv * k * k + drv * r * a0 + drv * r * k * a + r * r * p
    )
    return m1, m2


def reference_delay_sigma(m1, m2, use_d2m=True):
    if not use_d2m:
        return m1, m1
    degenerate = (m2 <= 0.0) | (m1 <= 0.0)
    safe_m2 = np.where(degenerate, 1.0, m2)
    d2m = LN2 * m1 * m1 / np.sqrt(safe_m2)
    delay = np.where(degenerate, LN2 * m1, np.minimum(d2m, m1))
    variance = np.maximum(2.0 * m2 - m1 * m1, (0.1 * m1) ** 2)
    sigma = np.where(degenerate, m1, np.sqrt(np.maximum(variance, 0.0)))
    return delay, sigma


def reference_corner(cfg, stages, moments, drivers, tap_flags, corner, draws, n):
    use_d2m = cfg.engine == "arnoldi"
    up_scale = corner.driver_scale * cfg.pull_up_factor
    down_scale = corner.driver_scale * cfg.pull_down_factor
    supply_mult = supply_driver_multiplier(corner.vdd, draws.vdd_shift)
    driver_mult = draws.driver * supply_mult

    stage_models: List[Tuple[np.ndarray, np.ndarray]] = []
    for index in range(len(stages)):
        stage_driver = driver_mult[:, index]
        d_rows = np.concatenate((up_scale * stage_driver, down_scale * stage_driver))
        r_rows = np.tile(corner.wire_res_scale * draws.wire_res[:, index], 2)
        w_rows = np.tile(corner.wire_cap_scale * draws.wire_cap[:, index], 2)
        m1, m2 = reference_tap_moments(moments[index], d_rows, r_rows, w_rows)
        stage_models.append(reference_delay_sigma(m1, m2, use_d2m=use_d2m))

    root_id = stages[0].driver_id
    max_lat = {t: np.full(n, -np.inf) for t in TRANSITIONS}
    min_lat = {t: np.full(n, np.inf) for t in TRANSITIONS}
    worst_slew = np.zeros(n)
    for launch in TRANSITIONS:
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


def reference_yield(evaluator, tree, model, samples, rng):
    """(skew, clr, worst_slew) sample arrays of the per-tap reference."""
    stages = evaluator.cache.stage_list(tree)
    keys, drivers = evaluator._stage_keys(tree, stages)
    positions = np.array(
        [
            (tree.node(stage.driver_id).position.x, tree.node(stage.driver_id).position.y)
            for stage in stages
        ]
    )
    draws = model.sample(samples, rng, positions=positions)
    split = evaluator._split_caps or model.perturbs_wire_cap
    reduced = evaluator._reduce_stages(tree, stages, keys, split)
    moments = [reduced.stage(index) for index in range(len(stages))]
    tap_flags = {}
    for stage in stages:
        for tap in stage.taps:
            node = tree.node(tap)
            tap_flags[tap] = (node.is_sink, node.buffer is not None)
    per_corner = {
        corner.name: reference_corner(
            evaluator.config, stages, moments, drivers, tap_flags, corner, draws, samples
        )
        for corner in evaluator.corners
    }
    fast = per_corner[evaluator._fast]
    slow = per_corner[evaluator._slow]
    skew = np.maximum(
        fast["max"][RISE] - fast["min"][RISE], fast["max"][FALL] - fast["min"][FALL]
    )
    clr = np.maximum(
        slow["max"][RISE] - fast["min"][RISE], slow["max"][FALL] - fast["min"][FALL]
    )
    worst_slew = per_corner[evaluator.corners[0].name]["slew"]
    for corner in evaluator.corners[1:]:
        worst_slew = np.maximum(worst_slew, per_corner[corner.name]["slew"])
    return skew, clr, worst_slew


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
_TREES: Dict[str, tuple] = {}


def constructed_tree(spec):
    """The buffered tree of ``spec`` after construction (the initial pass)."""
    if spec not in _TREES:
        instance = resolve_instance(JobSpec(instance=spec))
        config = FlowConfig(engine="arnoldi")
        config.pipeline = ["initial"]
        _TREES[spec] = (instance, ContangoFlow(config).run(instance).require_tree())
    return _TREES[spec]


def mixed_polarity_tree(spec):
    """The constructed tree of ``spec`` with one mid-depth buffer removed.

    Polarity correction leaves every sink of a constructed tree at the same
    parity, and then swapping the two launch transitions changes nothing
    the report shows.  Removing one inverting buffer flips the parity of
    the sinks below it, so launch and direction bookkeeping become visible.
    """
    instance, constructed = constructed_tree(spec)
    tree = constructed.clone()
    buffered = sorted(
        (len(tree.subtree_sinks(node.node_id)), node.node_id)
        for node in tree.buffers()
        if node.parent is not None
    )
    tree.remove_buffer(buffered[len(buffered) // 2][1])
    parities = set(tree.sink_polarities().values())
    assert parities == {0, 1}
    return instance, tree


def variation_model(family):
    if family == "corner_anchored":
        return VariationModel.from_corners(ispd09_corners())
    return default_variation_model(family=family)


def make_evaluator(instance, engine, corners=None):
    return ClockNetworkEvaluator(
        config=EvaluatorConfig(engine=engine, slew_limit=instance.slew_limit),
        corners=corners,
        capacitance_limit=instance.capacitance_limit,
    )


def assert_kernel_matches_reference(instance, tree, engine, model, corners=None):
    for samples in SAMPLE_COUNTS:
        key = ("yield-kernel", samples)
        report = make_evaluator(instance, engine, corners).evaluate_yield(
            tree, model, samples=samples, rng=derive_rng(11, *key)
        )
        skew, clr, worst_slew = reference_yield(
            make_evaluator(instance, engine, corners),
            tree,
            model,
            samples,
            derive_rng(11, *key),
        )
        assert np.array_equal(report.skew_samples, skew), samples
        assert np.array_equal(report.clr_samples, clr), samples
        assert np.array_equal(report.worst_slew_samples, worst_slew), samples


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
def test_sample_counts_straddle_the_block():
    assert BLOCK > 8
    assert SAMPLE_COUNTS[-1] // BLOCK == 2


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("engine", ["arnoldi", "elmore"])
@pytest.mark.parametrize("spec", INSTANCES)
def test_kernel_matches_per_tap_reference(spec, engine, family):
    instance, tree = constructed_tree(spec)
    assert_kernel_matches_reference(instance, tree, engine, variation_model(family))


@pytest.mark.parametrize("engine", ["arnoldi", "elmore"])
@pytest.mark.parametrize("spec", ["ti:60", "ispd09:ispd09f22:0.1"])
def test_mixed_polarity_sinks_match_reference(spec, engine):
    instance, tree = mixed_polarity_tree(spec)
    for family in FAMILIES:
        assert_kernel_matches_reference(instance, tree, engine, variation_model(family))


@pytest.mark.parametrize("engine", ["arnoldi", "elmore"])
def test_unbuffered_source_stage_with_sinks_matches_reference(engine):
    # Source stage with its own sink next to an inverting hub: two sink
    # parities one level apart.
    tree = make_manual_tree()
    evaluator = ClockNetworkEvaluator(config=EvaluatorConfig(engine=engine))
    model = default_variation_model()
    for samples in SAMPLE_COUNTS:
        report = evaluator.evaluate_yield(
            tree, model, samples=samples, rng=derive_rng(5, "manual", samples)
        )
        reference = reference_yield(
            ClockNetworkEvaluator(config=EvaluatorConfig(engine=engine)),
            tree,
            model,
            samples,
            derive_rng(5, "manual", samples),
        )
        assert np.array_equal(report.skew_samples, reference[0])
        assert np.array_equal(report.clr_samples, reference[1])
        assert np.array_equal(report.worst_slew_samples, reference[2])


def test_instances_exercise_inverting_buffers_and_several_levels():
    _, tree = constructed_tree("ispd09:ispd09f22:0.1")
    evaluator = make_evaluator(constructed_tree("ispd09:ispd09f22:0.1")[0], "arnoldi")
    topo = evaluator.cache.topology(tree)
    drivers = [tree.node(stage.driver_id).buffer for stage in topo.stages]
    assert any(buffer is not None and buffer.inverting for buffer in drivers)
    depth = [0] * len(topo.stages)
    for index, children in enumerate(topo.children):
        for child in children:
            depth[child] = depth[index] + 1
    assert max(depth) >= 2


def test_corners_with_distinct_wire_scales_match_reference():
    # The kernel shares the wire half of the moments between corners with
    # equal wire scales; corners that differ must each get their own.
    corners = [
        Corner(name="fast", vdd=1.2, driver_scale=0.9),
        Corner(name="slow", vdd=1.0, driver_scale=1.2, wire_res_scale=1.1, wire_cap_scale=1.05),
        Corner(name="mid", vdd=1.1, driver_scale=1.0, wire_cap_scale=1.05),
    ]
    instance, tree = constructed_tree("ti:60")
    for engine in ("arnoldi", "elmore"):
        assert_kernel_matches_reference(
            instance, tree, engine, default_variation_model(), corners=corners
        )


def test_kernel_keeps_one_base_moment_lookup_per_stage():
    instance, tree = constructed_tree("ti:60")
    evaluator = make_evaluator(instance, "arnoldi")
    stages = len(evaluator.cache.stage_list(tree))
    evaluator.evaluate_yield(tree, default_variation_model(), samples=2 * BLOCK + 3, seed=3)
    first = evaluator.cache_stats()
    assert first["misses"] == stages and first["hits"] == 0
    evaluator.evaluate_yield(tree, default_variation_model(), samples=5, seed=3)
    second = evaluator.cache_stats()
    assert second["misses"] == stages and second["hits"] == stages


_moments = st.floats(allow_nan=True, allow_infinity=False, width=64) | st.sampled_from(
    [0.0, -0.0, -1.0, float("nan"), 1e-3, 2.5]
)


@settings(max_examples=200, deadline=None)
@given(
    pairs=st.lists(st.tuples(_moments, _moments), min_size=1, max_size=12),
    use_d2m=st.booleans(),
)
def test_delay_sigma_matches_masked_formula(pairs, use_d2m):
    m1 = np.array([pair[0] for pair in pairs])
    m2 = np.array([pair[1] for pair in pairs])
    with np.errstate(all="ignore"):
        expected_delay, expected_sigma = reference_delay_sigma(m1.copy(), m2.copy(), use_d2m)
        delay, sigma = batched_delay_sigma(m1.copy(), m2.copy(), use_d2m=use_d2m)
    assert np.array_equal(delay, expected_delay, equal_nan=True)
    assert np.array_equal(sigma, expected_sigma, equal_nan=True)
    assert delay.tobytes() == expected_delay.tobytes()
    assert sigma.tobytes() == expected_sigma.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    m1=st.lists(st.floats(min_value=1e-6, max_value=1e4), min_size=1, max_size=12),
    ratio=st.floats(min_value=0.3, max_value=3.0),
)
def test_delay_sigma_fast_path_matches_masked_formula(m1, ratio):
    first = np.array(m1)
    second = (first * first) * ratio
    expected = reference_delay_sigma(first.copy(), second.copy())
    result = batched_delay_sigma(first.copy(), second.copy())
    assert result[0].tobytes() == expected[0].tobytes()
    assert result[1].tobytes() == expected[1].tobytes()


def test_delay_sigma_works_in_place():
    m1 = np.array([[1.0, 2.0], [3.0, 4.0]])
    m2 = m1 * m1
    delay, sigma = batched_delay_sigma(m1, m2)
    assert delay is m1 and sigma is m2
    elmore = batched_delay_sigma(m1, m2, use_d2m=False)
    assert elmore[0] is m1 and elmore[1] is m1
