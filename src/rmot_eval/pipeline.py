"""Evaluation orchestration: unit partitioning, parallel matching, reduction.

Work is partitioned per expression unit. Units are dispatched to a fork-based
worker pool and reduced in the fixed unit order, so the result is identical
for any worker count. ``evaluate`` keeps no module state: its run (the
bundle, predictions, config, solver and attribute frames) is a local value
that each unit is evaluated from, so concurrent and nested calls are safe.
A pool worker gets the run once, through the pool's initializer (under
fork it is inherited, not pickled). Each unit's result travels back as two
arrays, its (layouts, alpha, 3) integer tallies and (layouts, alpha, 4)
float sums for the whole sequence (layout 0) and each attribute it was
restricted to, plus those attribute names: the columns of the
``hota.UnitStats`` views that ``match_unit_all_alphas`` returns, stacked,
so no ``AlphaStats`` and no ``pair_tpa`` is built for a unit. The parent
pools them with ``hota.pool_tallies``, integer sums and ``math.fsum``, the
same pooling ``hota.accumulate`` does. Each unit's
predictions are looked up in the process that evaluates the unit (a
``PredictionFiles`` parses the unit's file there into a ``UnitBoxes``; a
list of detections is converted to one) and dropped when the unit is done.
A prediction outside its sequence's frames is a ``ValueError``, never
silently ignored. Errors reach the caller in unit order: the first failing
unit's error wins for any worker count. A worker returns a unit's error as
a value (a ``WorkerError`` naming its type when the error cannot be rebuilt
in the parent); the parent then stops the other workers' remaining units
and shuts the pool down with ``close`` and ``join`` before raising it.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .assignment import solve_max_weight
from .attributes import AttributeReport, attribute_report
from .attributes import restrict_to_attribute  # noqa: F401  unused; bench/tracing.py wraps it
from .hota import (
    METRIC_FIELDS,
    AlphaMetrics,
    MetricReport,
    Solver,
    finalize,
    match_unit_all_alphas,
    pool_tallies,
)
from .io_formats import DatasetBundle
from .model import (
    Attribute,
    Detection,
    EvalConfig,
    ExpressionTask,
    UnitBoxes,
    filter_predictions,
)

WORKERS_ENV = "RMOT_EVAL_WORKERS"

# one unit's result: its restriction names, and its (layouts, alpha, 3) int
# and (layouts, alpha, 4) float tally arrays (see hota.UnitStats)
UnitTallies = Tuple[Tuple[str, ...], np.ndarray, np.ndarray]

# everything a unit is evaluated from: the bundle, the predictions, the
# config, the solver and the attribute frames (see _attribute_frames)
Run = Tuple[DatasetBundle, Mapping, EvalConfig, Solver, Dict[str, Dict[str, List[int]]]]

# a pool worker's run and the parent's stop event; set by _init_worker, in
# the worker process only
_WORKER: Optional[Tuple[Run, "multiprocessing.synchronize.Event"]] = None


def resolve_workers(workers: Optional[int]) -> int:
    if workers is not None:
        return max(int(workers), 1)
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            return max(int(env), 1)
        except ValueError:
            raise ValueError(f"{WORKERS_ENV} must be an integer, got {env!r}") from None
    return 1


def _attribute_frames(bundle: DatasetBundle) -> Dict[str, Dict[str, List[int]]]:
    """Per sequence, each attribute flagged on at least one of its evaluated
    frames and those frames, ascending; only these attributes get an entry in
    a unit's results. The labels of a sequence the bundle lacks
    (``UNKNOWN_SEQUENCE``) and a sequence's rows outside 1..length
    (``FRAME_OUT_OF_BOUNDS``), violations evaluated only under
    ``--allow-violations``, are left out."""
    out: Dict[str, Dict[str, List[int]]] = {}
    for seq_id, labels in bundle.attributes.items():
        seq = bundle.sequences.get(seq_id)
        if seq is None:
            continue
        out[seq_id] = {}
        for attr in Attribute:
            frames = [f for f in labels.frames_with(attr) if 1 <= f <= seq.length]
            if frames:
                out[seq_id][attr.value] = frames
    return out


def _unit_boxes(task: ExpressionTask, preds: Sequence[Detection], length: int) -> UnitBoxes:
    """The unit's predictions as columns; a ``ValueError`` naming the unit
    for the first prediction that does not lie on the sequence's frames
    1..``length``, then for the first with a non-finite box coordinate, then
    for the first with a score outside [0, 1] (NaN included): the parser's
    checks on a prediction file."""
    unit = f"unit {task.sequence_id}/{task.expression_id}"
    try:
        boxes = UnitBoxes.from_detections(preds)
    except ValueError as exc:
        raise ValueError(f"{unit}: {exc}") from None
    conf, ref = boxes.confidence, boxes.referring_score
    for bad, fault in (
        ((boxes.frame < 1) | (boxes.frame > length),
         "lies on frame {d.frame}, outside the sequence's frames 1-{length}"),
        (~np.isfinite(boxes.xywh).all(axis=1),
         "on frame {d.frame} has box coordinates x, y, w, h "
         "{d.box.x}, {d.box.y}, {d.box.w}, {d.box.h}; they must be finite"),
        (~((conf >= 0.0) & (conf <= 1.0) & (ref >= 0.0) & (ref <= 1.0)),
         "on frame {d.frame} has a confidence/referring score outside [0, 1]: "
         "{d.confidence}, {d.referring_score}"),
    ):
        if bad.any():
            d = boxes[int(np.argmax(bad))]
            raise ValueError(f"{unit}: a prediction " + fault.format(d=d, length=length))
    return boxes


def _eval_unit(run: Run, index: int) -> UnitTallies:
    """Match one unit; its whole-sequence stats are layout 0 of the tally
    arrays, the stats on restriction ``names[i]``'s frames layout ``i + 1``."""
    bundle, predictions, cfg, solver, attribute_frames = run
    task = bundle.tasks[index]
    seq = bundle.sequences[task.sequence_id]
    boxes = _unit_boxes(
        task, predictions.get((task.sequence_id, task.expression_id), ()), seq.length
    )
    main, per_attr = match_unit_all_alphas(
        task,
        filter_predictions(boxes, cfg),
        cfg.alpha_grid,
        range(1, seq.length + 1),
        solver=solver,
        restrictions=attribute_frames.get(task.sequence_id, {}),
    )
    layouts = [main, *per_attr.values()]
    return (
        tuple(per_attr),
        np.stack([s.ints for s in layouts]),
        np.stack([s.floats for s in layouts]),
    )


def _attribute_tallies(
    results: Sequence[UnitTallies],
) -> Dict[str, Tuple[List[np.ndarray], List[np.ndarray]]]:
    """Per attribute name, the int and float tallies of each unit that was
    restricted to it, in unit order."""
    out: Dict[str, Tuple[List[np.ndarray], List[np.ndarray]]] = {}
    for names, ints, floats in results:
        for i, name in enumerate(names, start=1):
            unit_ints, unit_floats = out.setdefault(name, ([], []))
            unit_ints.append(ints[i])
            unit_floats.append(floats[i])
    return out


class WorkerError(RuntimeError):
    """An error from a pool worker whose own exception could not be rebuilt
    in the parent; it keeps the original type's name and message."""

    def __init__(self, type_name: str, message: str) -> None:
        super().__init__(type_name, message)
        self.type_name = type_name
        self.message = message

    def __str__(self) -> str:
        return f"{self.type_name}: {self.message}"


def _init_worker(run: Run, stop: "multiprocessing.synchronize.Event") -> None:
    global _WORKER
    _WORKER = (run, stop)
    # a terminal's Ctrl-C reaches the whole process group; the parent alone
    # handles it, and the workers finish or skip their units
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _eval_unit_in_worker(index: int) -> Union[UnitTallies, BaseException, None]:
    """A unit's tallies; its error as a value, the exception itself if it
    survives pickling, else a ``WorkerError``; None when the unit is skipped
    because the parent has stopped the run."""
    run, stop = _WORKER
    if stop.is_set():
        return None
    try:
        return _eval_unit(run, index)
    except Exception as exc:
        # one that does not survive the round trip (say, an __init__ with a
        # required keyword) would kill the pool's result thread
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            return WorkerError(type(exc).__name__, str(exc))
        return exc


def _eval_in_pool(run: Run, n_workers: int) -> List[UnitTallies]:
    """Every unit's tallies from a pool of ``n_workers`` forked workers, or
    one per unit if there are fewer units; the first failing unit's error,
    in unit order, is raised.

    Each worker gets the run and a stop event once, through the pool's
    initializer. On an error the parent sets the event, so the workers skip
    their remaining units, and then shuts the pool down with ``close`` and
    ``join``, never ``terminate``: a worker killed while it writes a result
    leaves the result queue locked, and the pool's shutdown then waits for
    ever."""
    import multiprocessing

    n_units = len(run[0].tasks)
    n_workers = min(n_workers, n_units)
    mp = multiprocessing.get_context("fork")
    stop = mp.Event()
    results: List[UnitTallies] = []
    error: Optional[BaseException] = None
    chunk = max(n_units // (n_workers * 4), 1)
    pool = mp.Pool(processes=n_workers, initializer=_init_worker, initargs=(run, stop))
    try:
        # imap yields in unit order, so the first error met is the first
        # failing unit's, not the first to reach the parent
        for result in pool.imap(_eval_unit_in_worker, range(n_units), chunksize=chunk):
            if isinstance(result, BaseException):
                error = result
                break
            results.append(result)
    finally:
        stop.set()
        pool.close()
        pool.join()
    if error is not None:
        raise error
    return results


def _macro_average(reports: Sequence[MetricReport], cfg: EvalConfig) -> MetricReport:
    def means(rows: Sequence) -> Dict[str, float]:
        return {k: math.fsum([getattr(r, k) for r in rows]) / len(rows) for k in METRIC_FIELDS}

    per_alpha = []
    for i, alpha in enumerate(cfg.alpha_grid):
        rows = [r.per_alpha[i] for r in reports]
        per_alpha.append(
            AlphaMetrics(
                alpha=alpha,
                tp=sum(r.tp for r in rows),
                fn=sum(r.fn for r in rows),
                fp=sum(r.fp for r in rows),
                empty=all(r.empty for r in rows),
                **means(rows),
            )
        )
    return MetricReport(
        **means(reports), per_alpha=tuple(per_alpha), flags=("MACRO_AGGREGATION",)
    )


def evaluate(
    bundle: DatasetBundle,
    predictions: Mapping[Tuple[str, str], Sequence[Detection]],
    cfg: EvalConfig,
    workers: Optional[int] = None,
    macro: bool = False,
    solver: Solver = solve_max_weight,
) -> Tuple[MetricReport, Optional[AttributeReport]]:
    """Filter, match, accumulate, and finalize a full evaluation run.

    ``predictions`` maps (sequence_id, expression_id) to raw detections, a
    ``UnitBoxes`` or any sequence of ``Detection``; units without an entry
    are evaluated against empty output. A detection on a frame outside
    ``[1, length]`` of its sequence raises ``ValueError`` naming the unit
    and the frame, whatever its scores. Each unit's entry is looked up once,
    in the process that evaluates the unit, so a lazy mapping such as
    ``PredictionFiles`` is read there. The attribute report is produced
    exactly when ``bundle.attributes`` is non-empty; attribute rows outside
    their sequence's frames and the labels of a sequence the bundle lacks
    (validation violations) are neither scored nor counted.
    """
    n_workers = resolve_workers(workers)
    attribute_frames = _attribute_frames(bundle)
    run: Run = (bundle, predictions, cfg, solver, attribute_frames)
    n_units = len(bundle.tasks)
    if n_workers == 1 or n_units <= 1:
        results = [_eval_unit(run, i) for i in range(n_units)]
    else:
        results = _eval_in_pool(run, n_workers)

    alphas = cfg.alpha_grid
    if macro and results:
        report = _macro_average(
            [finalize(pool_tallies(alphas, ints[:1], floats[:1])) for _, ints, floats in results],
            cfg,
        )
    else:
        report = finalize(
            pool_tallies(alphas, [r[1][0] for r in results], [r[2][0] for r in results])
        )

    attr_report = (
        attribute_report(_attribute_tallies(results), attribute_frames, cfg)
        if bundle.attributes
        else None
    )
    return report, attr_report
