"""Seeded benchmark workloads, generated and written through the toolkit itself.

Each workload is a fixed shape; ``--seed`` moves boxes, noise and expression
intervals but never the shape, so run-to-run spread comes from the machine
and from averaging over many units, not from a different problem size.
Inputs are generated with ``rmot_eval.synth`` and written with the
``rmot_eval.io_formats`` writers, exactly as a user's bundle would be.
Why each workload exists is in README.md and BENCHMARK.json.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

from rmot_eval.io_formats import unit_filename, write_bundle, write_predictions
from rmot_eval.model import (
    Detection,
    EvalConfig,
    ExpressionTask,
    SequenceData,
    filter_predictions,
    iou,
)
from rmot_eval.synth import PerturbationConfig, ScenarioConfig, generate_scenario, perturb

MAX_DRAWS = 1024  # candidate scenes per sequence when tracks must stay apart


@dataclass(frozen=True)
class Workload:
    name: str
    sequences: int
    frames: int
    tracks: Tuple[int, int]  # per-sequence track count, spread linearly over sequences
    expressions: int  # per sequence
    workers: int
    attributes: bool
    # True: every expression targets every track on every frame (the shape of
    # the acceptance test's 1M-box workload); False: synth's random subsets
    all_targets: bool
    # True: redraw a sequence until no two of its GT boxes ever overlap, so
    # every frame of perfect predictions takes the forced-match path
    separate_tracks: bool = False
    frame_size: Tuple[int, int] = (1920, 1080)
    perturbation: Optional[Mapping[str, object]] = None


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="perfect-attrs",
            sequences=5,
            frames=200,
            tracks=(5, 5),
            expressions=20,
            workers=1,
            attributes=True,
            all_targets=True,
            separate_tracks=True,
        ),
        Workload(
            name="crowded-solver",
            sequences=72,
            frames=1,
            tracks=(40, 44),
            expressions=1,
            workers=1,
            attributes=False,
            all_targets=True,
            frame_size=(640, 480),
            perturbation=dict(
                miss_rate=0.1, fp_rate=10.0, idswitch_rate=0.02, jitter=6,
                fp_box_size_range=(20, 80),
            ),
        ),
        Workload(
            name="noisy-units",
            sequences=6,
            frames=30,
            tracks=(4, 4),
            expressions=40,
            workers=2,
            attributes=True,
            all_targets=False,
            perturbation=dict(
                miss_rate=0.05, fp_rate=12.0, idswitch_rate=0.01, jitter=2,
                confidence_range=(0.0, 1.0), referring_range=(0.0, 1.0),
            ),
        ),
    )
}


@dataclass
class Inputs:
    """Paths of one generated workload plus the sizes the output checks need."""

    bundle_dir: Path
    pred_dir: Path
    units: int
    frames: int
    gt_boxes: int
    pred_lines: int
    kept_preds: int
    max_fgp: int  # largest F*G*P over units, from the generated inputs
    timings: Dict[str, float]  # seconds in synth generation, perturbation, writers

    def size(self) -> Dict[str, int]:
        return {
            "units": self.units,
            "frames": self.frames,
            "gt_boxes": self.gt_boxes,
            "pred_lines": self.pred_lines,
            "kept_preds": self.kept_preds,
            "max_fgp": self.max_fgp,
        }


def _seed(seed: int, stream: int, index: int) -> int:
    # disjoint synth seeds for (workload seed, stream, index); index < 2**20
    return (seed * 2 + stream) * 2**20 + index


def _tracks_overlap(seq: SequenceData) -> bool:
    return any(
        iou(a.boxes[f], b.boxes[f]) > 0.0
        for a, b in itertools.combinations(seq.tracks.values(), 2)
        for f in a.boxes.keys() & b.boxes.keys()
    )


def _scenario(w: Workload, seed: int, si: int):
    for draw in range(MAX_DRAWS if w.separate_tracks else 1):
        scenario = generate_scenario(
            ScenarioConfig(
                seed=_seed(seed, 0, si * MAX_DRAWS + draw),
                sequence_length=w.frames,
                n_tracks=w.tracks[0] + (w.tracks[1] - w.tracks[0]) * si // max(w.sequences - 1, 1),
                frame_size=w.frame_size,
                n_expressions=0 if w.all_targets else w.expressions,
                sequence_id=f"{w.name}-{si:03d}",
            )
        )
        if not (w.separate_tracks and _tracks_overlap(scenario.sequence)):
            return scenario
    raise RuntimeError(f"{w.name}: no scene with separate tracks in {MAX_DRAWS} draws")


def build(w: Workload, seed: int, out_dir: Path) -> Inputs:
    """Generate ``w`` from ``seed`` and write it under ``out_dir``."""
    cfg = EvalConfig()
    t0 = time.perf_counter()
    sequences, tasks, labels = {}, [], {}
    preds: Dict[Tuple[str, str], List[Detection]] = {}
    for si in range(w.sequences):
        scenario = _scenario(w, seed, si)
        seq = scenario.sequence
        sequences[seq.sequence_id] = seq
        if w.attributes:
            labels[seq.sequence_id] = scenario.labels
        if not w.all_targets:
            tasks.extend(scenario.tasks)
            preds.update({k: list(v) for k, v in scenario.predictions.items()})
            continue
        targets = {
            f: {tid: tr.boxes[f] for tid, tr in seq.tracks.items()}
            for f in range(1, w.frames + 1)
        }
        dets = [
            Detection(frame=f, box=b, confidence=1.0, referring_score=1.0, track_id=tid)
            for f in sorted(targets)
            for tid, b in sorted(targets[f].items())
        ]
        for ei in range(w.expressions):
            task = ExpressionTask(seq.sequence_id, f"e{ei:02d}", "benchmark unit", targets)
            tasks.append(task)
            preds[(seq.sequence_id, task.expression_id)] = dets
    t1 = time.perf_counter()

    if w.perturbation:
        for i, key in enumerate(sorted(preds)):
            pcfg = PerturbationConfig(
                seed=_seed(seed, 1, i),
                frame_size=w.frame_size,
                sequence_length=sequences[key[0]].length,
                **w.perturbation,
            )
            preds[key] = perturb(preds[key], pcfg)
    t2 = time.perf_counter()

    bundle_dir, pred_dir = out_dir / "bundle", out_dir / "predictions"
    write_bundle(bundle_dir, sequences, tasks, labels)
    pred_dir.mkdir(parents=True, exist_ok=True)
    for (seq_id, expr_id), dets in sorted(preds.items()):
        write_predictions(dets, pred_dir / unit_filename(seq_id, expr_id))
    t3 = time.perf_counter()

    gt_boxes = kept = max_fgp = 0
    for task in tasks:
        gt_tracks = {tid for row in task.targets.values() for tid in row}
        gt_boxes += sum(len(row) for row in task.targets.values())
        unit_kept = filter_predictions(preds[(task.sequence_id, task.expression_id)], cfg)
        kept += len(unit_kept)
        f = sequences[task.sequence_id].length
        max_fgp = max(max_fgp, f * len(gt_tracks) * len({d.track_id for d in unit_kept}))
    return Inputs(
        bundle_dir=bundle_dir,
        pred_dir=pred_dir,
        units=len(tasks),
        frames=sum(s.length for s in sequences.values()),
        gt_boxes=gt_boxes,
        pred_lines=sum(len(d) for d in preds.values()),
        kept_preds=kept,
        max_fgp=max_fgp,
        timings={
            "synth.generate_s": t1 - t0,
            "synth.perturb_s": t2 - t1,
            "io_formats.write_inputs_s": t3 - t2,
        },
    )
