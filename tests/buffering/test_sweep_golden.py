"""Golden pin of the composite-inverter buffering sweep.

The sweep's inputs are captured exactly as the INITIAL pass passes them (the
obstacle-repaired DME tree, the composite ladder and the instance's limits),
by wrapping the module-level ``insert_buffers_with_sizing`` name in
``repro.core.pipeline``.  For every ladder candidate the golden records the
sweep outcome (buffer name, buffer count, total capacitance, worst delay
estimate, slew feasibility) and a digest of the sorted node/station sites the
van Ginneken DP chose; the buffered tree the sweep returns is digested too.
Floats are compared exactly: the DP's pruning must stay bit-identical.

If a change to the buffering DP is *intended* to change its choices,
regenerate the file::

    PYTHONPATH=src python -m tests.buffering.test_sweep_golden

and commit it together with the change.
"""

import hashlib
import json
from pathlib import Path

import pytest

import repro.core.pipeline as pipeline_module
from repro.buffering.vanginneken import VanGinnekenInserter
from repro.runner import JobSpec, run_job

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "buffering_sweep.json"

SPECS = [
    f"ispd09:ispd09{chip}:0.1"
    for chip in ("f11", "f12", "f21", "f22", "f31", "f32", "fnb1")
] + ["scenario:maze", "scenario:macros"]


def _digest(items):
    return hashlib.sha256(repr(items).encode()).hexdigest()


def _site_digest(insertion):
    stations = sorted(
        (
            s.edge_node,
            repr(s.distance_from_child),
            repr(s.fraction_from_parent),
            repr(s.position.x),
            repr(s.position.y),
            s.legal,
        )
        for s in insertion.station_sites
    )
    return _digest((sorted(insertion.node_sites), stations))


def _tree_digest(tree):
    buffers = sorted(
        (node.node_id, repr(node.position.x), repr(node.position.y), node.buffer.name)
        for node in tree.buffers()
    )
    return _digest((buffers, repr(tree.total_capacitance())))


def _capture_sweep(spec):
    """Run the INITIAL pass of ``spec``; return the sweep's call and result."""
    captured = {}
    sweep = pipeline_module.insert_buffers_with_sizing

    def recording(tree, candidates, **kwargs):
        captured["call"] = (tree.clone(), list(candidates), dict(kwargs))
        captured["result"] = sweep(tree, candidates, **kwargs)
        return captured["result"]

    pipeline_module.insert_buffers_with_sizing = recording
    try:
        run_job(JobSpec(instance=spec, engine="elmore", pipeline=("initial",)))
    finally:
        pipeline_module.insert_buffers_with_sizing = sweep
    return captured["call"], captured["result"]


def compute_sweep(spec):
    (tree, candidates, kwargs), result = _capture_sweep(spec)
    inserter_kwargs = {
        key: kwargs[key]
        for key in (
            "slew_limit",
            "slew_margin",
            "station_spacing",
            "obstacles",
            "die",
            "max_options",
        )
    }
    outcomes = []
    for candidate, outcome in zip(candidates, result.outcomes):
        insertion = VanGinnekenInserter(candidate, **inserter_kwargs).insert(
            tree.clone(), apply=False
        )
        outcomes.append(
            {
                "buffer": outcome.buffer.name,
                "buffer_count": outcome.buffer_count,
                "total_capacitance": outcome.total_capacitance,
                "worst_delay_estimate": outcome.worst_delay_estimate,
                "slew_feasible": outcome.slew_feasible,
                "sites": _site_digest(insertion),
            }
        )
    return {
        "chosen": result.chosen.buffer.name,
        "tree": _tree_digest(result.tree),
        "outcomes": outcomes,
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())["sweeps"]


def test_every_spec_is_pinned(golden):
    assert sorted(golden) == sorted(SPECS)


@pytest.mark.parametrize("spec", SPECS)
def test_sweep_matches_golden(spec, golden):
    assert compute_sweep(spec) == golden[spec]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(
            {
                "description": "Composite-inverter buffering sweep per ladder "
                "candidate on the INITIAL pass inputs (repro.buffering)",
                "sweeps": {spec: compute_sweep(spec) for spec in SPECS},
            },
            indent=1,
        )
        + "\n"
    )
