"""Expression-conditioned multi-object tracking evaluation toolkit.

Computes the HOTA metric family for referring-expression tracking tasks,
attribute-conditioned composites, dataset statistics, and seeded synthetic
scenarios for validation.
"""

__version__ = "0.1.0"

from .attributes import AttributeReport, compose_geometric
from .hota import (
    AlphaMetrics,
    AlphaStats,
    MetricReport,
    accumulate,
    finalize,
    match_unit,
    match_unit_all_alphas,
)
from .model import (
    Attribute,
    AttributeFrameLabels,
    BoundingBox,
    Detection,
    EvalConfig,
    ExpressionTask,
    GroundTruthTrack,
    SequenceData,
    UnitBoxes,
    Violation,
    filter_predictions,
    iou,
    iou_matrix,
    validate_dataset,
)
from .pipeline import evaluate
from .stats import StatsReport, compute_stats
from .synth import PerturbationConfig, ScenarioConfig, generate_scenario, perturb

__all__ = [
    "__version__",
    "AlphaMetrics",
    "AlphaStats",
    "Attribute",
    "AttributeFrameLabels",
    "AttributeReport",
    "BoundingBox",
    "Detection",
    "EvalConfig",
    "ExpressionTask",
    "GroundTruthTrack",
    "MetricReport",
    "PerturbationConfig",
    "ScenarioConfig",
    "SequenceData",
    "StatsReport",
    "UnitBoxes",
    "Violation",
    "accumulate",
    "compose_geometric",
    "compute_stats",
    "evaluate",
    "filter_predictions",
    "finalize",
    "generate_scenario",
    "iou",
    "iou_matrix",
    "match_unit",
    "match_unit_all_alphas",
    "perturb",
    "validate_dataset",
]
