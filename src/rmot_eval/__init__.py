"""Expression-conditioned multi-object tracking evaluation toolkit.

Computes the HOTA metric family for referring-expression tracking tasks,
attribute-conditioned composites, dataset statistics, and seeded synthetic
scenarios for validation.

The names in ``__all__`` are imported from their modules on first use
(PEP 562), so ``import rmot_eval.cli`` loads only what a command runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name's module
_EXPORTS = {
    "attributes": ("AttributeReport", "compose_geometric"),
    "hota": (
        "AlphaMetrics",
        "AlphaStats",
        "MetricReport",
        "UnitStats",
        "accumulate",
        "finalize",
        "match_unit_all_alphas",
    ),
    "model": (
        "Attribute",
        "AttributeFrameLabels",
        "BoundingBox",
        "Detection",
        "EvalConfig",
        "ExpressionTask",
        "GroundTruthTrack",
        "SequenceData",
        "UnitBoxes",
        "Violation",
        "filter_predictions",
        "iou",
        "validate_dataset",
    ),
    "pipeline": ("evaluate",),
    "stats": ("StatsReport", "compute_stats"),
    "synth": ("PerturbationConfig", "ScenarioConfig", "generate_scenario", "perturb"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_MODULE_OF)]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
