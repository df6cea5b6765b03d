"""Dataset descriptive statistics and distribution histograms."""

from __future__ import annotations

import csv
import string
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from .model import ExpressionTask, SequenceData, TargetsView

RATIO_BINS = 20
# frames-per-expression bins: inclusive integer ranges, long-tail log-ish
# scale; the first bin starts at 0 so no-target expressions are counted.
FRAME_BIN_EDGES: Tuple[Tuple[int, Optional[int]], ...] = (
    (0, 10),
    (11, 25),
    (26, 50),
    (51, 100),
    (101, 200),
    (201, 400),
    (401, None),
)

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


@dataclass(frozen=True)
class StatsReport:
    videos: int
    frames: int
    expressions_total: int
    distinct_expressions: int
    expressions_per_sequence: float
    instances_total: int
    distinct_instances: int
    instances_per_expression: float
    bbox_total: int
    word_vocab: int
    temporal_ratio_mean: float
    # (bin_lo, bin_hi, count); ratio bins are half-open [lo, hi), last closed
    temporal_ratio_histogram: Tuple[Tuple[float, float, int], ...]
    # (lo, hi, count); inclusive integer ranges, hi None = unbounded
    frames_per_expression_histogram: Tuple[Tuple[int, Optional[int], int], ...]

    def as_dict(self) -> Dict[str, object]:
        return {
            "videos": self.videos,
            "frames": self.frames,
            "expressions_total": self.expressions_total,
            "distinct_expressions": self.distinct_expressions,
            "expressions_per_sequence": self.expressions_per_sequence,
            "instances_total": self.instances_total,
            "distinct_instances": self.distinct_instances,
            "instances_per_expression": self.instances_per_expression,
            "bbox_total": self.bbox_total,
            "word_vocab": self.word_vocab,
            "temporal_ratio_mean": self.temporal_ratio_mean,
            "temporal_ratio_histogram": [list(b) for b in self.temporal_ratio_histogram],
            "frames_per_expression_histogram": [
                list(b) for b in self.frames_per_expression_histogram
            ],
        }


def normalize_text(text: str) -> str:
    """Whitespace normalization used for distinct-expression counting."""
    return " ".join(text.split())


def tokenize(text: str) -> List[str]:
    """Lowercased, punctuation-stripped whitespace tokens."""
    out = []
    for tok in text.lower().split():
        tok = tok.translate(_PUNCT_TABLE)
        if tok:
            out.append(tok)
    return out


def _target_counts(task: ExpressionTask) -> Tuple[int, int, List[str]]:
    """The task's frames holding a target box, its target boxes and its
    target track ids, from its targets' columns (a frame's rows are
    contiguous)."""
    frame, _, ids, _ = TargetsView.from_mapping(task.targets).unit_columns()
    active = 1 + int(np.count_nonzero(frame[1:] != frame[:-1])) if frame.size else 0
    return active, frame.size, ids


def temporal_ratio(task: ExpressionTask, sequence_length: int) -> float:
    """Fraction of the sequence's frames on which the expression has a target."""
    if sequence_length < 1:
        raise ValueError("sequence_length must be >= 1")
    return _target_counts(task)[0] / sequence_length


def _ratio_bin(value: float) -> int:
    # half-open [lo, hi) bins over [0, 1], last bin closed at 1.0
    idx = int(value * RATIO_BINS)
    return min(idx, RATIO_BINS - 1)


def _frame_bin(count: int) -> int:
    for i, (lo, hi) in enumerate(FRAME_BIN_EDGES):
        if hi is None or count <= hi:
            return i
    return len(FRAME_BIN_EDGES) - 1


def compute_stats(
    sequences: Mapping[str, SequenceData],
    tasks: Sequence[ExpressionTask],
) -> StatsReport:
    """Compute every report field over a validated dataset.

    Ordering-invariant: all aggregates are sums, set unions, or fixed-bin
    tallies.
    """
    videos = len(sequences)
    frames = sum(s.length for s in sequences.values())

    distinct_texts: Set[str] = set()
    vocab: Set[str] = set()
    distinct_instances: Set[Tuple[str, str]] = set()
    instances_total = 0
    bbox_total = 0
    ratio_counts = [0] * RATIO_BINS
    frame_bin_counts = [0] * len(FRAME_BIN_EDGES)
    ratio_sum = 0.0

    for task in tasks:
        distinct_texts.add(normalize_text(task.text))
        vocab.update(tokenize(task.text))
        active_frames, n_boxes, task_tracks = _target_counts(task)
        bbox_total += n_boxes
        instances_total += len(task_tracks)
        distinct_instances.update((task.sequence_id, t) for t in task_tracks)

        seq = sequences.get(task.sequence_id)
        length = seq.length if seq is not None else max(task.targets, default=1)
        ratio = active_frames / max(length, 1)
        ratio_sum += ratio
        ratio_counts[_ratio_bin(ratio)] += 1
        frame_bin_counts[_frame_bin(active_frames)] += 1

    n_expr = len(tasks)
    return StatsReport(
        videos=videos,
        frames=frames,
        expressions_total=n_expr,
        distinct_expressions=len(distinct_texts),
        expressions_per_sequence=n_expr / videos if videos else 0.0,
        instances_total=instances_total,
        distinct_instances=len(distinct_instances),
        instances_per_expression=instances_total / n_expr if n_expr else 0.0,
        bbox_total=bbox_total,
        word_vocab=len(vocab),
        temporal_ratio_mean=ratio_sum / n_expr if n_expr else 0.0,
        temporal_ratio_histogram=tuple(
            (i / RATIO_BINS, (i + 1) / RATIO_BINS, ratio_counts[i])
            for i in range(RATIO_BINS)
        ),
        frames_per_expression_histogram=tuple(
            (lo, hi, frame_bin_counts[i]) for i, (lo, hi) in enumerate(FRAME_BIN_EDGES)
        ),
    )


def emit_histograms(report: StatsReport, out_dir: Path) -> List[Path]:
    """Write the two histogram tables as comma-separated files (LF endings)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ratio_path = out_dir / "temporal_ratio_histogram.csv"
    frames_path = out_dir / "frames_per_expression_histogram.csv"

    with ratio_path.open("w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["bin_lo", "bin_hi", "count"])
        for lo, hi, count in report.temporal_ratio_histogram:
            writer.writerow([f"{lo:.2f}", f"{hi:.2f}", count])

    with frames_path.open("w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["bin_lo", "bin_hi", "count"])
        for lo, hi, count in report.frames_per_expression_histogram:
            writer.writerow([lo, "" if hi is None else hi, count])

    return [ratio_path, frames_path]
