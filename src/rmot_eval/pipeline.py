"""Evaluation orchestration: unit partitioning, parallel matching, reduction.

Work is partitioned per expression unit. Units are dispatched to a fork-based
worker pool and reduced in the fixed unit order, so the result is identical
for any worker count. Workers inherit the evaluation context through fork
(no per-unit pickling of inputs). Each unit's result travels back as two
arrays, its (layouts, alpha, 3) integer tallies and (layouts, alpha, 4)
float sums for the whole sequence (layout 0) and each attribute it was
restricted to, plus those attribute names (``hota.tally_arrays``); the
parent pools them with ``hota.pool_tallies``, integer sums and
``math.fsum``, the same pooling ``hota.accumulate`` does. Each unit's
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
import multiprocessing
import os
import pickle
import signal
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .assignment import solve_max_weight
from .attributes import AttributeReport, attribute_report
from .attributes import restrict_to_attribute  # noqa: F401  unused; bench/tracing.py wraps it
from .hota import (
    AlphaMetrics,
    MetricReport,
    Solver,
    finalize,
    match_unit_all_alphas,
    pool_tallies,
    tally_arrays,
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
# and (layouts, alpha, 4) float tally arrays (see hota.tally_arrays)
UnitTallies = Tuple[Tuple[str, ...], np.ndarray, np.ndarray]

# fork-inherited evaluation context; set in the parent right before the pool
# is created, read-only in workers
_CTX: Optional[dict] = None


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
    when one does not lie on the sequence's frames 1..``length``."""
    unit = f"unit {task.sequence_id}/{task.expression_id}"
    try:
        boxes = UnitBoxes.from_detections(preds)
    except ValueError as exc:
        raise ValueError(f"{unit}: {exc}") from None
    outside = boxes.frame[(boxes.frame < 1) | (boxes.frame > length)]
    if outside.size:
        raise ValueError(
            f"{unit}: a prediction lies on frame {outside[0]}, "
            f"outside the sequence's frames 1-{length}"
        )
    return boxes


def _eval_unit(index: int) -> UnitTallies:
    """Match one unit; its whole-sequence stats are layout 0 of the tally
    arrays, the stats on restriction ``names[i]``'s frames layout ``i + 1``."""
    assert _CTX is not None
    task = _CTX["tasks"][index]
    cfg: EvalConfig = _CTX["cfg"]
    seq = _CTX["sequences"][task.sequence_id]
    boxes = _unit_boxes(
        task, _CTX["predictions"].get((task.sequence_id, task.expression_id), ()), seq.length
    )
    main, per_attr = match_unit_all_alphas(
        task,
        filter_predictions(boxes, cfg),
        cfg.alpha_grid,
        range(1, seq.length + 1),
        solver=_CTX["solver"],
        restrictions=_CTX["attribute_frames"].get(task.sequence_id, {}),
    )
    return (tuple(per_attr), *tally_arrays([main, *per_attr.values()]))


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


def _ignore_interrupts() -> None:
    # a terminal's Ctrl-C reaches the whole process group; the parent alone
    # handles it, and the workers finish or skip their units
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _eval_unit_in_worker(index: int) -> Union[UnitTallies, BaseException, None]:
    """A unit's tallies; its error as a value, the exception itself if it
    survives pickling, else a ``WorkerError``; None when the unit is skipped
    because the parent has stopped the run."""
    assert _CTX is not None
    if _CTX["stop"].is_set():
        return None
    try:
        return _eval_unit(index)
    except Exception as exc:
        # one that does not survive the round trip (say, an __init__ with a
        # required keyword) would kill the pool's result thread
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            return WorkerError(type(exc).__name__, str(exc))
        return exc


def _eval_in_pool(n_workers: int, n_units: int) -> List[UnitTallies]:
    """Every unit's tallies from a pool of ``n_workers`` forked workers; the
    first failing unit's error, in unit order, is raised.

    On an error the parent sets the ``stop`` event the workers inherit, so
    they skip their remaining units, and then shuts the pool down with
    ``close`` and ``join``, never ``terminate``: a worker killed while it
    writes a result leaves the result queue locked, and the pool's shutdown
    then waits for ever."""
    assert _CTX is not None
    mp = multiprocessing.get_context("fork")
    stop = _CTX["stop"] = mp.Event()
    results: List[UnitTallies] = []
    error: Optional[BaseException] = None
    chunk = max(n_units // (n_workers * 4), 1)
    pool = mp.Pool(processes=n_workers, initializer=_ignore_interrupts)
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
    n = len(reports)

    def mean(vals: Sequence[float]) -> float:
        return math.fsum(vals) / n

    per_alpha = []
    for i, alpha in enumerate(cfg.alpha_grid):
        rows = [r.per_alpha[i] for r in reports]
        per_alpha.append(
            AlphaMetrics(
                alpha=alpha,
                tp=sum(r.tp for r in rows),
                fn=sum(r.fn for r in rows),
                fp=sum(r.fp for r in rows),
                hota=mean([r.hota for r in rows]),
                det_a=mean([r.det_a for r in rows]),
                ass_a=mean([r.ass_a for r in rows]),
                det_re=mean([r.det_re for r in rows]),
                det_pr=mean([r.det_pr for r in rows]),
                ass_re=mean([r.ass_re for r in rows]),
                ass_pr=mean([r.ass_pr for r in rows]),
                loc_a=mean([r.loc_a for r in rows]),
                empty=all(r.empty for r in rows),
            )
        )
    return MetricReport(
        hota=mean([r.hota for r in reports]),
        det_a=mean([r.det_a for r in reports]),
        ass_a=mean([r.ass_a for r in reports]),
        det_re=mean([r.det_re for r in reports]),
        det_pr=mean([r.det_pr for r in reports]),
        ass_re=mean([r.ass_re for r in reports]),
        ass_pr=mean([r.ass_pr for r in reports]),
        loc_a=mean([r.loc_a for r in reports]),
        per_alpha=tuple(per_alpha),
        flags=("MACRO_AGGREGATION",),
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
    global _CTX
    n_workers = resolve_workers(workers)
    n_units = len(bundle.tasks)
    attribute_frames = _attribute_frames(bundle)

    _CTX = {
        "tasks": bundle.tasks,
        "predictions": predictions,
        "cfg": cfg,
        "solver": solver,
        "sequences": bundle.sequences,
        "attribute_frames": attribute_frames,
    }
    try:
        if n_workers == 1 or n_units <= 1:
            results = [_eval_unit(i) for i in range(n_units)]
        else:
            results = _eval_in_pool(n_workers, n_units)
    finally:
        _CTX = None

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
