"""Contango's core contribution: slack-driven clock-network optimization.

The package contains the paper's novel pieces -- the slow-down/speed-up slack
framework, composite inverter analysis, minimal sink-polarity correction, the
SPICE-driven wiresizing/wiresnaking/buffer-sizing passes -- and the
:class:`ContangoFlow` methodology that coordinates them (Figure 1).
"""

from repro.core.config import DEFAULT_PIPELINE, VARIATION_PIPELINE, FlowConfig
from repro.core.variation import VariationGate
from repro.core.flow import ContangoFlow
from repro.core.ivc import (
    IvcEngine,
    IvcOutcome,
    IvcState,
    Transaction,
    default_constraints,
    ivc_round,
)
from repro.core.pipeline import (
    OptimizationPass,
    PASS_REGISTRY,
    PassContext,
    PipelineDriver,
    available_passes,
    lookup_pass,
    register_pass,
    resolve_pipeline,
)
from repro.core.report import FlowResult, StageRecord
from repro.core.slack import (
    SinkSlacks,
    SlackAnnotation,
    annotate_tree_slacks,
    compute_sink_slacks,
)
from repro.core.composite import (
    CompositeAnalysis,
    analyze_composites,
    composite_ladder,
    enumerate_composites,
    non_dominated_composites,
    smallest_dominating_count,
    table1_rows,
)
from repro.core.polarity import (
    PolarityCorrectionResult,
    correct_sink_polarity,
    count_inverted_sinks,
)
from repro.core.tuning import PassResult, objective_value
from repro.core.wiresizing import top_down_wiresizing
from repro.core.wiresnaking import top_down_wiresnaking
from repro.core.bottom_level import bottom_level_fine_tuning, rise_fall_divergence
from repro.core.buffer_sliding import (
    find_trunk_chain,
    slide_and_interleave_trunk,
    trunk_buffer_nodes,
)
from repro.core.buffer_sizing import (
    bottom_level_buffers,
    buffer_depths,
    iterative_buffer_sizing,
)

__all__ = [
    "DEFAULT_PIPELINE",
    "VARIATION_PIPELINE",
    "VariationGate",
    "FlowConfig",
    "ContangoFlow",
    "FlowResult",
    "StageRecord",
    "IvcEngine",
    "IvcOutcome",
    "IvcState",
    "Transaction",
    "default_constraints",
    "ivc_round",
    "OptimizationPass",
    "PASS_REGISTRY",
    "PassContext",
    "PipelineDriver",
    "available_passes",
    "lookup_pass",
    "register_pass",
    "resolve_pipeline",
    "SinkSlacks",
    "SlackAnnotation",
    "annotate_tree_slacks",
    "compute_sink_slacks",
    "CompositeAnalysis",
    "analyze_composites",
    "composite_ladder",
    "enumerate_composites",
    "non_dominated_composites",
    "smallest_dominating_count",
    "table1_rows",
    "PolarityCorrectionResult",
    "correct_sink_polarity",
    "count_inverted_sinks",
    "PassResult",
    "objective_value",
    "top_down_wiresizing",
    "top_down_wiresnaking",
    "bottom_level_fine_tuning",
    "rise_fall_divergence",
    "find_trunk_chain",
    "slide_and_interleave_trunk",
    "trunk_buffer_nodes",
    "bottom_level_buffers",
    "buffer_depths",
    "iterative_buffer_sizing",
]
