"""Core domain types: boxes, detections, tracks, expression tasks, attribute labels.

All types are immutable after construction and safe to share across workers.

Boxes read from files are held as columns, not objects: a unit's predictions
as a ``UnitBoxes``, a sequence's ground truth as a ``GtColumns``. The
mapping types the rest of the API names stay as they are, as read-only views
over the columns that build their objects only when read: a ``TracksView``
is a sequence's ``Mapping[str, GroundTruthTrack]``, a ``TargetsView`` an
expression's ``Mapping[int, Mapping[str, BoundingBox]]``, a row selection
into its sequence's columns. A task or sequence built from dicts keeps its
dicts; ``from_mapping`` converts them to columns where columns are needed.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

DEFAULT_ALPHA_GRID: Tuple[float, ...] = tuple(round(0.05 * i, 2) for i in range(1, 20))


class Attribute(enum.Enum):
    """Per-frame challenge attributes annotated on test sequences."""

    DAY = "day"
    NIGHT = "night"
    VIEWPOINT_CHANGE = "viewpoint_change"
    SCALE_VARIATION = "scale_variation"
    OCCLUSION = "occlusion"
    FAST_MOTION = "fast_motion"
    ROTATION = "rotation"
    LOW_RESOLUTION = "low_resolution"

    @classmethod
    def from_name(cls, name: str) -> "Attribute":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(f"unknown attribute: {name!r}") from None


SCENE_ATTRIBUTES: Tuple[Attribute, ...] = (
    Attribute.NIGHT,
    Attribute.OCCLUSION,
    Attribute.LOW_RESOLUTION,
)
MOTION_ATTRIBUTES: Tuple[Attribute, ...] = (
    Attribute.VIEWPOINT_CHANGE,
    Attribute.SCALE_VARIATION,
    Attribute.FAST_MOTION,
    Attribute.ROTATION,
)


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """Axis-aligned pixel box, (x, y) is the top-left corner."""

    x: float
    y: float
    w: float
    h: float

    @property
    def area(self) -> float:
        return self.w * self.h


@dataclass(frozen=True, slots=True)
class Detection:
    """One predicted box with its tracker identity and scores."""

    frame: int
    box: BoundingBox
    confidence: float
    referring_score: float
    track_id: str


def _int64_frames(frames: List[int]) -> np.ndarray:
    """``frames`` as int64; a ``ValueError`` when one does not fit."""
    try:
        return np.array(frames, dtype=np.int64)
    except OverflowError:
        raise ValueError(
            f"frame {max(frames, key=abs)} does not fit in a 64-bit integer"
        ) from None


class UnitBoxes(Sequence[Detection]):
    """One unit's predictions as columns, in input order.

    ``frame`` (int64), ``track`` (indices into ``ids``, the track ids in
    first-appearance order), ``xywh`` ((n, 4) float64), ``confidence`` and
    ``referring_score`` (float64) hold row i of each detection. As a
    read-only ``Sequence[Detection]`` it builds a ``Detection`` only when one
    is read, and compares equal to any sequence of equal detections.
    """

    __slots__ = ("frame", "track", "ids", "xywh", "confidence", "referring_score")

    def __init__(
        self,
        frame: np.ndarray,
        track: np.ndarray,
        ids: Sequence[str],
        xywh: np.ndarray,
        confidence: np.ndarray,
        referring_score: np.ndarray,
    ) -> None:
        self.frame = frame
        self.track = track
        self.ids = tuple(ids)
        self.xywh = xywh
        self.confidence = confidence
        self.referring_score = referring_score

    @classmethod
    def from_detections(cls, dets: Iterable[Detection]) -> "UnitBoxes":
        """The columns of ``dets``, in their order; a ``UnitBoxes`` is
        returned as it is. A frame that is not an integer is a ``TypeError``;
        one past the int64 range a ``ValueError``."""
        if isinstance(dets, UnitBoxes):
            return dets
        dets = list(dets)
        n = len(dets)
        index: Dict[str, int] = {}
        return cls(
            _int64_frames([operator.index(d.frame) for d in dets]),
            np.fromiter((index.setdefault(d.track_id, len(index)) for d in dets), np.intp, n),
            list(index),
            np.array(
                [(d.box.x, d.box.y, d.box.w, d.box.h) for d in dets], np.float64
            ).reshape(n, 4),
            np.fromiter((d.confidence for d in dets), np.float64, n),
            np.fromiter((d.referring_score for d in dets), np.float64, n),
        )

    def take(self, rows) -> "UnitBoxes":
        """The rows selected by a slice, index array or boolean mask, in
        order; the id table is shared."""
        return UnitBoxes(
            self.frame[rows],
            self.track[rows],
            self.ids,
            self.xywh[rows],
            self.confidence[rows],
            self.referring_score[rows],
        )

    def __len__(self) -> int:
        return len(self.frame)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.take(i)
        x, y, w, h = self.xywh[i].tolist()
        return Detection(
            frame=int(self.frame[i]),
            box=BoundingBox(x, y, w, h),
            confidence=float(self.confidence[i]),
            referring_score=float(self.referring_score[i]),
            track_id=self.ids[self.track[i]],
        )

    def __iter__(self) -> Iterator[Detection]:
        ids = self.ids
        for f, t, (x, y, w, h), c, r in zip(
            self.frame.tolist(),
            self.track.tolist(),
            self.xywh.tolist(),
            self.confidence.tolist(),
            self.referring_score.tolist(),
        ):
            yield Detection(f, BoundingBox(x, y, w, h), c, r, ids[t])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"UnitBoxes({len(self)} detections, {len(self.ids)} track ids)"


@dataclass(frozen=True)
class GroundTruthTrack:
    """One annotated trajectory: at most one box per frame."""

    track_id: str
    boxes: Mapping[int, BoundingBox]


class GtColumns:
    """Ground-truth boxes as columns: ``frame`` (int64), ``track`` (indices
    into ``ids``) and ``xywh`` ((n, 4) float64) hold row i. A parsed
    ``gt.txt`` keeps its rows in file order and its ids in first-appearance
    order; no (frame, track) repeats."""

    __slots__ = ("frame", "track", "ids", "xywh", "_index")

    def __init__(
        self, frame: np.ndarray, track: np.ndarray, ids: Sequence[str], xywh: np.ndarray
    ) -> None:
        self.frame = frame
        self.track = track
        self.ids = tuple(ids)
        self.xywh = xywh
        self._index: Optional[Dict[str, int]] = None

    @classmethod
    def from_lists(
        cls, frame: List[int], track: List[int], ids: Sequence[str], xywh: List[float]
    ) -> "GtColumns":
        """Columns from lists, ``xywh`` flat (four numbers per box); a frame
        past the int64 range is a ``ValueError``."""
        return cls(
            _int64_frames(frame),
            np.array(track, dtype=np.intp),
            ids,
            np.array(xywh, dtype=np.float64).reshape(len(frame), 4),
        )

    @property
    def index(self) -> Dict[str, int]:
        """Track id -> its index into ``ids``."""
        if self._index is None:
            self._index = {tid: i for i, tid in enumerate(self.ids)}
        return self._index

    def __len__(self) -> int:
        return len(self.frame)


class TracksView(Mapping[str, GroundTruthTrack]):
    """A sequence's tracks as a read-only ``Mapping[str, GroundTruthTrack]``
    over its ``GtColumns``: a ``GroundTruthTrack`` is built only when one is
    read, its boxes in row order."""

    __slots__ = ("columns", "_rows")

    def __init__(self, columns: GtColumns) -> None:
        self.columns = columns
        self._rows: Optional[List[np.ndarray]] = None

    @classmethod
    def from_mapping(cls, tracks: Mapping[str, GroundTruthTrack]) -> "TracksView":
        """A view over the columns of ``tracks``: rows track by track, in
        the mapping's order; a ``TracksView`` is returned as it is."""
        if isinstance(tracks, TracksView):
            return tracks
        frame: List[int] = []
        track: List[int] = []
        xywh: List[float] = []  # flat, four numbers per box
        for i, tr in enumerate(tracks.values()):
            for f, b in tr.boxes.items():
                frame.append(f)
                track.append(i)
                xywh += (b.x, b.y, b.w, b.h)
        return cls(GtColumns.from_lists(frame, track, list(tracks), xywh))

    def __getitem__(self, track_id: str) -> GroundTruthTrack:
        i = self.columns.index[track_id]
        if self._rows is None:
            c = self.columns
            by_track = np.argsort(c.track, kind="stable")
            ends = np.cumsum(np.bincount(c.track, minlength=len(c.ids)))
            self._rows = np.split(by_track, ends[:-1])
        rows = self._rows[i]
        frames, boxes = self.columns.frame[rows].tolist(), self.columns.xywh[rows].tolist()
        return GroundTruthTrack(
            track_id, {f: BoundingBox(*b) for f, b in zip(frames, boxes)}
        )

    def __contains__(self, track_id: object) -> bool:
        return track_id in self.columns.index

    def __iter__(self) -> Iterator[str]:
        return iter(self.columns.ids)

    def __len__(self) -> int:
        return len(self.columns.ids)

    def __repr__(self) -> str:
        return f"TracksView({len(self)} tracks, {len(self.columns)} boxes)"


class TargetsView(Mapping[int, Mapping[str, BoundingBox]]):
    """An expression's targets as a read-only ``Mapping[int, Mapping[str,
    BoundingBox]]``: the rows ``rows`` of its sequence's ``GtColumns``, in
    the targets' iteration order. Frames come in the order they were first
    inserted; within a frame, tracks in insertion order, so a frame's rows
    are contiguous. A frame's ``{track_id: box}`` dict is built only when
    it is read."""

    __slots__ = ("columns", "rows", "_spans")

    def __init__(self, columns: GtColumns, rows: np.ndarray) -> None:
        self.columns = columns
        self.rows = rows
        self._spans: Optional[Dict[int, Tuple[int, int]]] = None

    @classmethod
    def from_mapping(cls, targets: Mapping[int, Mapping[str, BoundingBox]]) -> "TargetsView":
        """A view over the columns of ``targets`` (frame -> {track_id ->
        box}), its rows in the mapping's iteration order; a ``TargetsView``
        is returned as it is. A frame without a box has no row."""
        if isinstance(targets, TargetsView):
            return targets
        index: Dict[str, int] = {}
        frame: List[int] = []
        track: List[int] = []
        xywh: List[float] = []  # flat, four numbers per box
        for f, by_track in targets.items():
            for tid, b in by_track.items():
                frame.append(f)
                track.append(index.setdefault(tid, len(index)))
                xywh += (b.x, b.y, b.w, b.h)
        return cls(
            GtColumns.from_lists(frame, track, list(index), xywh),
            np.arange(len(frame), dtype=np.intp),
        )

    def unit_columns(self) -> Tuple[np.ndarray, np.ndarray, List[str], np.ndarray]:
        """The targets as (frame, track index, ids, xywh) columns in
        iteration order, the ids in first-appearance order."""
        c, rows = self.columns, self.rows
        track = c.track[rows]
        # each track's first row (a stable sort keeps rows in order), then
        # the tracks in the order of those rows
        by_track = np.argsort(track, kind="stable")
        lead = np.ones(track.size, dtype=bool)
        lead[1:] = track[by_track[1:]] != track[by_track[:-1]]
        first = by_track[lead]
        seen = track[np.sort(first)]
        rank = np.empty(len(c.ids), dtype=np.intp)
        rank[seen] = np.arange(seen.size)
        return c.frame[rows], rank[track], [c.ids[i] for i in seen.tolist()], c.xywh[rows]

    def _frame_spans(self) -> Dict[int, Tuple[int, int]]:
        if self._spans is None:
            frame = self.columns.frame[self.rows]
            change = np.ones(frame.size, dtype=bool)
            change[1:] = frame[1:] != frame[:-1]
            starts = np.flatnonzero(change)
            ends = np.append(starts[1:], frame.size)
            self._spans = {
                f: (s, e) for f, s, e in zip(frame[starts].tolist(), starts.tolist(), ends.tolist())
            }
        return self._spans

    def __getitem__(self, frame: int) -> Dict[str, BoundingBox]:
        start, stop = self._frame_spans()[frame]
        rows = self.rows[start:stop]
        ids = self.columns.ids
        return {
            ids[t]: BoundingBox(*b)
            for t, b in zip(self.columns.track[rows].tolist(), self.columns.xywh[rows].tolist())
        }

    def __contains__(self, frame: object) -> bool:
        return frame in self._frame_spans()

    def __iter__(self) -> Iterator[int]:
        return iter(self._frame_spans())

    def __len__(self) -> int:
        return len(self._frame_spans())

    def __repr__(self) -> str:
        return f"TargetsView({self.rows.size} boxes)"


def names_a_file(value: object) -> bool:
    """Whether ``value`` can be a sequence or expression id, which names a
    file or directory: a string that is not empty, ``.`` or ``..`` and holds
    no ``/``, ``\\`` or NUL."""
    return (
        isinstance(value, str)
        and value not in ("", ".", "..")
        and not any(c in value for c in "/\\\0")
    )


@dataclass(frozen=True)
class ExpressionTask:
    """One (sequence, expression) evaluation unit.

    ``targets`` maps frame -> {track_id -> box}. A task with no targets on any
    frame is a no-target expression; the correct prediction is empty output.
    A parsed bundle's tasks hold a ``TargetsView`` here, a task built from a
    dict keeps its dict.
    """

    sequence_id: str
    expression_id: str
    text: str
    targets: Mapping[int, Mapping[str, BoundingBox]]

    @property
    def no_target(self) -> bool:
        return not any(self.targets.values())


@dataclass(frozen=True)
class AttributeFrameLabels:
    """Per-frame attribute flags covering every frame of a sequence."""

    sequence_id: str
    flags: Mapping[int, frozenset]  # frame -> frozenset[Attribute]

    def frames_with(self, attr: Attribute) -> List[int]:
        return sorted(f for f, s in self.flags.items() if attr in s)


@dataclass(frozen=True)
class EvalConfig:
    """Thresholds and grids driving an evaluation run."""

    score_threshold: float = 0.5
    beta_ref: float = 0.4
    alpha_grid: Tuple[float, ...] = DEFAULT_ALPHA_GRID

    def __post_init__(self) -> None:
        if not 0.0 <= self.score_threshold <= 1.0:
            raise ValueError("score_threshold must lie in [0, 1]")
        if not 0.0 <= self.beta_ref <= 1.0:
            raise ValueError("beta_ref must lie in [0, 1]")
        if not self.alpha_grid:
            raise ValueError("alpha_grid must be non-empty")
        if any(not 0.0 < a < 1.0 for a in self.alpha_grid):
            raise ValueError("alpha values must lie in (0, 1)")
        if any(b <= a for a, b in zip(self.alpha_grid, self.alpha_grid[1:])):
            raise ValueError("alpha_grid must be strictly increasing")


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes; 0.0 when the union is empty.

    Degenerate (zero-extent) boxes yield 0 by convention, so they can never
    become true positives.
    """
    ix = max(a.x, b.x)
    iy = max(a.y, b.y)
    ix2 = min(a.x + a.w, b.x + b.w)
    iy2 = min(a.y + a.h, b.y + b.h)
    iw = ix2 - ix
    ih = iy2 - iy
    if iw <= 0.0 or ih <= 0.0:
        inter = 0.0
    else:
        inter = iw * ih
    union = a.w * a.h + b.w * b.h - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def box_iou(gt: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """Elementwise IoU of (..., 4) arrays of [x, y, w, h] boxes, their
    leading dimensions broadcast against each other: the one vectorised IoU
    kernel.

    Bit-identical to :func:`iou` on each pair; the engine relies on this to
    keep the vectorized fast path and the scalar definition in sync.
    """
    gx, gy, gw, gh = (gt[..., i] for i in range(4))
    px, py, pw, ph = (pred[..., i] for i in range(4))
    iw = np.minimum(gx + gw, px + pw) - np.maximum(gx, px)
    ih = np.minimum(gy + gh, py + ph) - np.maximum(gy, py)
    inter = np.where((iw > 0.0) & (ih > 0.0), iw * ih, 0.0)
    union = gw * gh + pw * ph - inter
    out = np.zeros(inter.shape, dtype=np.float64)
    np.divide(inter, union, out=out, where=union > 0.0)
    return out


def filter_predictions(dets: Sequence[Detection], cfg: EvalConfig) -> Sequence[Detection]:
    """Keep detections passing both the class-score and referring thresholds.

    Relative order is preserved; the filter is idempotent and monotone in
    both thresholds. A ``UnitBoxes`` gives a ``UnitBoxes`` of the kept rows;
    any other sequence gives a list of its own kept ``Detection`` objects.
    """
    if isinstance(dets, UnitBoxes):
        return dets.take(
            (dets.confidence >= cfg.score_threshold) & (dets.referring_score >= cfg.beta_ref)
        )
    return [
        d
        for d in dets
        if d.confidence >= cfg.score_threshold and d.referring_score >= cfg.beta_ref
    ]


@dataclass(frozen=True)
class Violation:
    """One dataset-invariant breach, located as precisely as the data allows."""

    code: str
    sequence_id: str
    message: str
    expression_id: Optional[str] = None
    frame: Optional[int] = None
    track_id: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "sequence_id": self.sequence_id,
            "expression_id": self.expression_id,
            "frame": self.frame,
            "track_id": self.track_id,
            "message": self.message,
        }


@dataclass(frozen=True)
class SequenceData:
    """Ground truth for one video sequence."""

    sequence_id: str
    length: int
    tracks: Mapping[str, GroundTruthTrack]
    split: str = "train"


_INT64_MAX = 2**63 - 1


def _box_faults(c: GtColumns, length: int) -> Optional[np.ndarray]:
    """Per row: a non-finite coordinate, a negative width or height, and a
    frame outside [1, ``length``], as an (n, 3) bool array; None when no row
    has any."""
    faults = np.stack(
        (
            ~np.isfinite(c.xywh).all(axis=1),
            (c.xywh[:, 2] < 0) | (c.xywh[:, 3] < 0),
            # every int64 frame is at most _INT64_MAX, so the clip keeps the comparison
            (c.frame < 1) | (c.frame > min(length, _INT64_MAX)),
        ),
        axis=1,
    )
    return faults if faults.any() else None


def _faulty_boxes(
    c: GtColumns, rows: np.ndarray, faults: np.ndarray
) -> Iterator[Tuple[int, str, List[float], bool, bool, bool, bool]]:
    """Each faulty box of ``rows``, in their order: its frame, track id,
    [x, y, w, h], its three ``faults`` and whether it starts a run of rows
    on its frame."""
    at = np.flatnonzero(faults[rows].any(axis=1))
    frame = c.frame[rows]
    starts = np.ones(frame.size, dtype=bool)
    starts[1:] = frame[1:] != frame[:-1]
    bad = rows[at]
    for f, t, xywh, (non_finite, negative, outside), start in zip(
        c.frame[bad].tolist(),
        c.track[bad].tolist(),
        c.xywh[bad].tolist(),
        faults[bad].tolist(),
        starts[at].tolist(),
    ):
        yield f, c.ids[t], xywh, non_finite, negative, outside, start


def validate_dataset(
    sequences: Mapping[str, SequenceData],
    expressions: Iterable[ExpressionTask],
    attributes: Mapping[str, AttributeFrameLabels] | None = None,
) -> List[Violation]:
    """Check every type invariant, collecting violations exhaustively.

    Returns an empty list iff the dataset is clean. Violations are data, not
    failures: callers decide whether to abort. Boxes are checked on their
    columns (``TracksView`` and ``TargetsView``; a plain mapping is
    converted by ``from_mapping``), so a target frame that holds no box has
    nothing to check.
    """
    out: List[Violation] = []
    # a parsed task's boxes are rows of its sequence's columns, which are
    # checked once; a task has no faulty box when they have none
    faults: Dict[Tuple[GtColumns, int], Optional[np.ndarray]] = {}

    def faults_of(c: GtColumns, length: int) -> Optional[np.ndarray]:
        if (c, length) not in faults:
            faults[c, length] = _box_faults(c, length)
        return faults[c, length]

    for seq in sequences.values():
        c = TracksView.from_mapping(seq.tracks).columns
        seq_faults = faults_of(c, seq.length)
        if seq_faults is None:
            continue
        # track by track, each track's boxes in row order
        for frame, track_id, xywh, non_finite, negative, outside, _ in _faulty_boxes(
            c, np.argsort(c.track, kind="stable"), seq_faults
        ):
            x, y, w, h = xywh
            if non_finite:
                out.append(
                    Violation(
                        "NON_FINITE",
                        seq.sequence_id,
                        f"box coordinates x, y, w, h must be finite, got {x}, {y}, {w}, {h}",
                        frame=frame,
                        track_id=track_id,
                    )
                )
            if negative:
                out.append(
                    Violation(
                        "NEGATIVE_EXTENT",
                        seq.sequence_id,
                        f"box has negative extent w={w} h={h}",
                        frame=frame,
                        track_id=track_id,
                    )
                )
            if outside:
                out.append(
                    Violation(
                        "FRAME_OUT_OF_BOUNDS",
                        seq.sequence_id,
                        f"frame {frame} outside [1, {seq.length}]",
                        frame=frame,
                        track_id=track_id,
                    )
                )

    for task in expressions:
        seq = sequences.get(task.sequence_id)
        if seq is None:
            out.append(
                Violation(
                    "UNKNOWN_SEQUENCE",
                    task.sequence_id,
                    f"expression {task.expression_id} references unknown sequence",
                    expression_id=task.expression_id,
                )
            )
            continue
        targets = TargetsView.from_mapping(task.targets)
        task_faults = faults_of(targets.columns, seq.length)
        if task_faults is None:
            continue
        # a frame's rows are contiguous; the first reports the frame
        for frame, track_id, xywh, non_finite, negative, outside, first in _faulty_boxes(
            targets.columns, targets.rows, task_faults
        ):
            x, y, w, h = xywh
            if non_finite:
                out.append(
                    Violation(
                        "NON_FINITE",
                        task.sequence_id,
                        "target box coordinates x, y, w, h must be finite, "
                        f"got {x}, {y}, {w}, {h}",
                        expression_id=task.expression_id,
                        frame=frame,
                        track_id=track_id,
                    )
                )
            if outside and first:
                out.append(
                    Violation(
                        "FRAME_OUT_OF_BOUNDS",
                        task.sequence_id,
                        f"target frame {frame} outside [1, {seq.length}]",
                        expression_id=task.expression_id,
                        frame=frame,
                    )
                )
            if negative:
                out.append(
                    Violation(
                        "NEGATIVE_EXTENT",
                        task.sequence_id,
                        f"target box has negative extent w={w} h={h}",
                        expression_id=task.expression_id,
                        frame=frame,
                        track_id=track_id,
                    )
                )

    for seq_id, labels in (attributes or {}).items():
        # the labels may come from another bundle than the sequences
        seq = sequences.get(seq_id)
        if seq is None:
            out.append(
                Violation(
                    "UNKNOWN_SEQUENCE",
                    seq_id,
                    f"attribute labels for {len(labels.flags)} frame(s) reference "
                    "unknown sequence",
                )
            )
        else:
            missing = [f for f in range(1, seq.length + 1) if f not in labels.flags]
            if missing:
                out.append(
                    Violation(
                        "ATTR_COVERAGE_GAP",
                        seq_id,
                        f"attribute labels missing for {len(missing)} frame(s), "
                        f"first at frame {missing[0]}",
                        frame=missing[0],
                    )
                )
        for frame, flags in labels.flags.items():
            if seq is not None and not 1 <= frame <= seq.length:
                out.append(
                    Violation(
                        "FRAME_OUT_OF_BOUNDS",
                        seq_id,
                        f"attribute row for frame {frame} outside [1, {seq.length}]",
                        frame=frame,
                    )
                )
            if Attribute.DAY in flags and Attribute.NIGHT in flags:
                out.append(
                    Violation(
                        "ATTR_DAY_NIGHT_CONFLICT",
                        seq_id,
                        "frame flagged both day and night",
                        frame=frame,
                    )
                )

    return out
