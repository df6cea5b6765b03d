"""Traced in-process replay of ``rmot-eval evaluate``.

The replay makes the CLI's public call sequence (load_bundle ->
validate_dataset -> parse_predictions per unit -> evaluate ->
report_payload/write_report) at one worker, with a span around each call.
Inside ``evaluate`` it wraps the entry points that ``pipeline`` and ``hota``
look up at call time, and passes a timing wrapper around its default solver
through ``evaluate(..., solver=)``. Nothing under ``src/`` is changed: when a
wrapped entry point no longer exists, the metrics that depend on it are
reported as absent instead of failing the run.
"""

from __future__ import annotations

import inspect
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from rmot_eval import hota, pipeline
from rmot_eval.io_formats import (
    load_bundle,
    parse_predictions,
    report_payload,
    unit_filename,
    write_report,
)
from rmot_eval.model import EvalConfig, validate_dataset

# per-layer metrics whose value stays the same on every replay of one input
COUNT_METRICS = (
    "io_formats.lines_parsed",
    "model.kept_frac",
    "pipeline.units",
    "hota.match_calls",
    "hota.dense_cells_max",
    "hota.solver_frame_frac",
    "assignment.solve_calls",
    "assignment.cells_max",
    "assignment.cells_sum",
    "attributes.restrict_calls",
)

# metrics that need each wrapped entry point; reported absent when it is gone
_NEEDS = {
    "pipeline.filter_predictions": ("model.filter_s", "model.kept_frac", "pipeline.self_s"),
    "pipeline.match_unit_all_alphas": (
        "hota.match_s", "hota.match_calls", "hota.match_self_s",
        "attributes.match_s", "pipeline.self_s",
    ),
    "pipeline.restrict_to_attribute": (
        "attributes.restrict_s", "attributes.restrict_calls", "attributes.match_s",
        "pipeline.self_s",
    ),
    "hota.UnitArrays": (
        "hota.unit_arrays_s", "hota.dense_cells_max", "hota.solver_frame_frac",
        "hota.match_self_s",
    ),
    "evaluate(solver=)": (
        "assignment.solve_s", "assignment.solve_calls", "assignment.cells_max",
        "assignment.cells_sum", "hota.solver_frame_frac", "hota.match_self_s",
    ),
}


class Tracer:
    """Spans kept in memory: name, start, end, parent index and counts."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **counts) -> Iterator[dict]:
        rec = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            **counts,
        }
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


@contextmanager
def _hooks(tracer: Tracer, n_alphas: int) -> Iterator[Tuple[Set[str], Optional[object]]]:
    """Install the wrappers; yield (missing entry points, traced solver or None)."""
    missing: Set[str] = set()
    restore: List[Tuple[object, str, object]] = []
    last_restricted: List[object] = [None]

    def install(module, attr: str, make) -> None:
        original = getattr(module, attr, None)
        if original is None:
            missing.add(f"{module.__name__.rsplit('.', 1)[-1]}.{attr}")
            return
        restore.append((module, attr, original))
        setattr(module, attr, make(original))

    def filter_hook(original):
        def traced(dets, cfg):
            with tracer.span("model.filter", n_in=len(dets)) as rec:
                kept = original(dets, cfg)
                rec["n_kept"] = len(kept)
            return kept
        return traced

    def restrict_hook(original):
        def traced(*args, **kwargs):
            with tracer.span("attributes.restrict"):
                result = original(*args, **kwargs)
            last_restricted[0] = result[0]
            return result
        return traced

    def match_hook(original):
        def traced(task, *args, **kwargs):
            with tracer.span("hota.match", restricted=task is last_restricted[0]):
                return original(task, *args, **kwargs)
        return traced

    def unit_arrays_hook(original):
        def traced(*args, **kwargs):
            with tracer.span("hota.unit_arrays") as rec:
                ua = original(*args, **kwargs)
                rec["frames"] = ua.n_frames
                rec["cells"] = n_alphas * ua.n_frames * len(ua.gt_ids) * len(ua.pred_ids)
            return ua
        return traced

    install(pipeline, "filter_predictions", filter_hook)
    install(pipeline, "restrict_to_attribute", restrict_hook)
    install(pipeline, "match_unit_all_alphas", match_hook)
    install(hota, "UnitArrays", unit_arrays_hook)

    solver = None
    param = inspect.signature(pipeline.evaluate).parameters.get("solver")
    if param is not None and param.default is not inspect.Parameter.empty:
        default_solver = param.default

        def solver(m):
            with tracer.span("assignment.solve", cells=m.rows * m.cols):
                return default_solver(m)
    else:
        missing.add("evaluate(solver=)")
    try:
        yield missing, solver
    finally:
        for module, attr, original in reversed(restore):
            setattr(module, attr, original)


def replay(bundle_dir: Path, pred_dir: Path, out_dir: Path) -> Tuple[bytes, Tracer, Set[str]]:
    """Evaluate like the CLI with default options; return (report.json bytes,
    tracer, metric names that are absent because their entry point is gone)."""
    cfg = EvalConfig()
    tracer = Tracer()
    with tracer.span("replay"):
        with tracer.span("io_formats.load_bundle"):
            bundle = load_bundle(bundle_dir)
        with tracer.span("model.validate"):
            violations = validate_dataset(bundle.sequences, bundle.tasks, bundle.attributes)
        if violations:
            raise ValueError(f"{len(violations)} validation violation(s) in {bundle_dir}")
        predictions = {}
        for task in bundle.tasks:
            path = pred_dir / unit_filename(task.sequence_id, task.expression_id)
            with tracer.span("io_formats.parse_predictions") as rec:
                dets = parse_predictions(path)
                rec["lines"] = len(dets)
            predictions[(task.sequence_id, task.expression_id)] = dets
        with _hooks(tracer, len(cfg.alpha_grid)) as (missing, solver):
            kwargs = {"solver": solver} if solver is not None else {}
            with tracer.span("pipeline.evaluate", units=len(bundle.tasks)):
                report, attr_report = pipeline.evaluate(
                    bundle, predictions, cfg, workers=1, **kwargs
                )
        with tracer.span("io_formats.write_report"):
            payload = report_payload(
                report,
                attributes=attr_report,
                config={
                    "score_threshold": cfg.score_threshold,
                    "beta_ref": cfg.beta_ref,
                    "alpha_grid": list(cfg.alpha_grid),
                    "aggregation": "pooled",
                },
            )
            json_path, _ = write_report(payload, out_dir)
    absent = {m for entry in missing for m in _NEEDS[entry]}
    return json_path.read_bytes(), tracer, absent


def layer_metrics(tracer: Tracer, absent: Set[str]) -> Dict[str, float]:
    """Per-layer metrics of one replay, from its spans."""
    spans = tracer.spans
    dur = [s["end"] - s["start"] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            child_time[s["parent"]] += dur[i]

    def named(name: str) -> List[int]:
        return [i for i, s in enumerate(spans) if s["name"] == name]

    def total(name: str) -> float:
        return sum(dur[i] for i in named(name))

    def field_sum(name: str, key: str) -> int:
        return sum(spans[i][key] for i in named(name))

    match = named("hota.match")
    ua_cells = [spans[i]["cells"] for i in named("hota.unit_arrays")]
    solve_cells = [spans[i]["cells"] for i in named("assignment.solve")]
    n_alphas = len(EvalConfig().alpha_grid)
    ua_frames = field_sum("hota.unit_arrays", "frames")
    n_in = field_sum("model.filter", "n_in")
    out = {
        "io_formats.load_bundle_s": total("io_formats.load_bundle"),
        "io_formats.parse_predictions_s": total("io_formats.parse_predictions"),
        "io_formats.lines_parsed": field_sum("io_formats.parse_predictions", "lines"),
        "io_formats.write_report_s": total("io_formats.write_report"),
        "model.validate_s": total("model.validate"),
        "model.filter_s": total("model.filter"),
        "model.kept_frac": field_sum("model.filter", "n_kept") / n_in if n_in else 1.0,
        "pipeline.evaluate_s": total("pipeline.evaluate"),
        "pipeline.self_s": sum(dur[i] - child_time[i] for i in named("pipeline.evaluate")),
        "pipeline.units": field_sum("pipeline.evaluate", "units"),
        "hota.match_s": sum(dur[i] for i in match),
        "hota.match_calls": len(match),
        "hota.unit_arrays_s": total("hota.unit_arrays"),
        "hota.match_self_s": sum(dur[i] - child_time[i] for i in match),
        "hota.dense_cells_max": max(ua_cells, default=0),
        "hota.solver_frame_frac": len(solve_cells) / (n_alphas * ua_frames) if ua_frames else 0.0,
        "assignment.solve_s": total("assignment.solve"),
        "assignment.solve_calls": len(solve_cells),
        "assignment.cells_max": max(solve_cells, default=0),
        "assignment.cells_sum": sum(solve_cells),
        "attributes.restrict_s": total("attributes.restrict"),
        "attributes.restrict_calls": len(named("attributes.restrict")),
        "attributes.match_s": sum(dur[i] for i in match if spans[i]["restricted"]),
        "trace.replay_s": total("replay"),
    }
    return {k: v for k, v in out.items() if k not in absent}
