"""Ground truth as columns: a parsed bundle's tracks and expression targets
are views over each sequence's ``GtColumns``, and a target's rows come in the
order the dict join of earlier versions iterated them.

The references below are that dict join (``reference_join``), its column
builder (``reference_columns``) and the box checks ``validate_dataset`` made
on the dicts (``reference_validate``), kept as they were.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Mapping, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rmot_eval.hota import match_unit_all_alphas
from rmot_eval.io_formats import load_bundle, write_bundle, write_expressions
from rmot_eval.model import (
    BoundingBox,
    EvalConfig,
    ExpressionTask,
    GroundTruthTrack,
    SequenceData,
    TargetsView,
    TracksView,
    Violation,
    validate_dataset,
)
from rmot_eval.pipeline import evaluate

from .conftest import build_mini_bundle, det, perfect_predictions


def reference_join(
    doc: List[dict], sequences: Mapping[str, SequenceData]
) -> Tuple[List[ExpressionTask], List[str]]:
    """Expression entries joined against the tracks into dict targets,
    interval by interval, frame by frame."""
    tasks, warnings = [], []
    for entry in doc:
        seq_id, expr_id = entry["sequence_id"], entry["expression_id"]
        seq = sequences[seq_id]
        targets: Dict[int, Dict[str, BoundingBox]] = {}
        for t in entry["targets"]:
            track_id, start, end = str(t["track_id"]), t["start_frame"], t["end_frame"]
            track = seq.tracks[track_id]
            absent = 0
            for frame in range(start, end + 1):
                box = track.boxes.get(frame)
                if box is None:
                    absent += 1
                    continue
                targets.setdefault(frame, {})[track_id] = box
            if absent:
                warnings.append(
                    f"{seq_id}/{expr_id}: track {track_id} absent on {absent} "
                    f"frame(s) of interval [{start}, {end}]"
                )
        tasks.append(ExpressionTask(seq_id, expr_id, entry["text"], targets))
    return tasks, warnings


def reference_columns(targets: Mapping[int, Mapping[str, BoundingBox]]):
    """``targets`` as (frame, track index, ids, xywh) columns, in the
    targets' iteration order."""
    index: Dict[str, int] = {}
    frame: List[int] = []
    track: List[int] = []
    xywh: List[float] = []
    for f, by_track in targets.items():
        for tid, b in by_track.items():
            frame.append(f)
            track.append(index.setdefault(tid, len(index)))
            xywh += (b.x, b.y, b.w, b.h)
    return (
        np.array(frame, dtype=np.int64),
        np.array(track, dtype=np.intp),
        list(index),
        np.array(xywh, dtype=np.float64).reshape(len(frame), 4),
    )


def reference_validate(
    sequences: Mapping[str, SequenceData], tasks: List[ExpressionTask]
) -> List[Violation]:
    """The box and frame checks of ``validate_dataset``, on dicts."""
    out = []
    for seq in sequences.values():
        for track in seq.tracks.values():
            for frame, box in track.boxes.items():
                if not all(map(math.isfinite, (box.x, box.y, box.w, box.h))):
                    out.append(Violation(
                        "NON_FINITE", seq.sequence_id,
                        "box coordinates x, y, w, h must be finite, "
                        f"got {box.x}, {box.y}, {box.w}, {box.h}",
                        frame=frame, track_id=track.track_id,
                    ))
                if box.w < 0 or box.h < 0:
                    out.append(Violation(
                        "NEGATIVE_EXTENT", seq.sequence_id,
                        f"box has negative extent w={box.w} h={box.h}",
                        frame=frame, track_id=track.track_id,
                    ))
                if not 1 <= frame <= seq.length:
                    out.append(Violation(
                        "FRAME_OUT_OF_BOUNDS", seq.sequence_id,
                        f"frame {frame} outside [1, {seq.length}]",
                        frame=frame, track_id=track.track_id,
                    ))
    for task in tasks:
        seq = sequences[task.sequence_id]
        for frame, by_track in task.targets.items():
            for i, (track_id, box) in enumerate(by_track.items()):
                if not all(map(math.isfinite, (box.x, box.y, box.w, box.h))):
                    out.append(Violation(
                        "NON_FINITE", task.sequence_id,
                        "target box coordinates x, y, w, h must be finite, "
                        f"got {box.x}, {box.y}, {box.w}, {box.h}",
                        expression_id=task.expression_id, frame=frame, track_id=track_id,
                    ))
                # the frame is reported once, after its first box's NON_FINITE
                if i == 0 and not 1 <= frame <= seq.length:
                    out.append(Violation(
                        "FRAME_OUT_OF_BOUNDS", task.sequence_id,
                        f"target frame {frame} outside [1, {seq.length}]",
                        expression_id=task.expression_id, frame=frame,
                    ))
                if box.w < 0 or box.h < 0:
                    out.append(Violation(
                        "NEGATIVE_EXTENT", task.sequence_id,
                        f"target box has negative extent w={box.w} h={box.h}",
                        expression_id=task.expression_id, frame=frame, track_id=track_id,
                    ))
    return out


_TRACK_IDS = ("a", "b7", "c", "dd")


@st.composite
def _bundles(draw):
    """(manifest, gt rows per sequence in file order, expression document,
    non-finite coordinates): 1-2 sequences of 1-8 frames with 1-4 tracks
    whose boxes may lie past the sequence's end or have negative extents,
    and 1-5 expressions of 0-5 intervals each, drawn independently, so they
    overlap, repeat, come out of frame order and cover frames where their
    track has no box. The parser rejects a non-finite coordinate, so the
    last item, {(sequence id, row, coordinate): nan or ±inf}, is for the
    dict-built cases only."""
    lengths = draw(st.lists(st.integers(1, 8), min_size=1, max_size=2))
    coord = st.integers(-20, 20).map(lambda v: v / 10)
    extent = st.integers(-2, 30).map(lambda v: v / 4)
    gt: Dict[str, List[tuple]] = {}
    for si, length in enumerate(lengths):
        ids = draw(st.lists(st.sampled_from(_TRACK_IDS), min_size=1, max_size=4, unique=True))
        rows = []
        for tid in ids:
            for f in draw(st.sets(st.integers(1, length + 2), min_size=1, max_size=length)):
                rows.append((f, tid, draw(coord), draw(coord), draw(extent), draw(extent)))
        gt[f"s{si}"] = draw(st.permutations(rows))
    doc = []
    for ei in range(draw(st.integers(1, 5))):
        si = draw(st.integers(0, len(lengths) - 1))
        length = lengths[si]
        ids = list(dict.fromkeys(r[1] for r in gt[f"s{si}"]))
        targets = []
        for _ in range(draw(st.integers(0, 5))):
            start = draw(st.integers(1, length))
            targets.append({
                "track_id": draw(st.sampled_from(ids)),
                "start_frame": start,
                "end_frame": draw(st.integers(start, length)),
            })
        doc.append({
            "expression_id": f"e{ei}", "sequence_id": f"s{si}", "text": "t",
            "targets": targets,
        })
    manifest = {"sequences": [
        {"sequence_id": f"s{si}", "length": n, "split": "train"} for si, n in enumerate(lengths)
    ]}
    non_finite = {}
    for seq_id, rows in gt.items():
        for row in draw(st.sets(st.integers(0, len(rows) - 1), max_size=2)):
            coordinate = draw(st.integers(0, 3))
            non_finite[seq_id, row, coordinate] = draw(
                st.sampled_from([math.nan, math.inf, -math.inf])
            )
    return manifest, gt, doc, non_finite


def _write(root, manifest, gt, doc):
    root.mkdir(parents=True, exist_ok=True)
    (root / "manifest.json").write_text(json.dumps(manifest))
    for seq_id, rows in gt.items():
        (root / seq_id).mkdir(exist_ok=True)
        (root / seq_id / "gt.txt").write_text(
            "".join(",".join([str(r[0]), r[1]] + [repr(v) for v in r[2:]]) + "\n" for r in rows)
        )
    write_expressions(doc, root / "expressions.json")


def _reference_sequences(manifest, gt) -> Dict[str, SequenceData]:
    """The tracks a row-by-row gt.txt parse builds: ids and boxes in file order."""
    out = {}
    for entry in manifest["sequences"]:
        boxes: Dict[str, Dict[int, BoundingBox]] = {}
        for f, tid, *xywh in gt[entry["sequence_id"]]:
            boxes.setdefault(tid, {})[f] = BoundingBox(*xywh)
        tracks = {tid: GroundTruthTrack(tid, b) for tid, b in boxes.items()}
        out[entry["sequence_id"]] = SequenceData(entry["sequence_id"], entry["length"], tracks)
    return out


def _ordered(targets):
    return [(f, list(row.items())) for f, row in targets.items()]


def _assert_same_columns(got, expected):
    assert [c.dtype for c in (got[0], got[1], got[3])] == [np.int64, np.intp, np.float64]
    assert got[0].tolist() == expected[0].tolist()
    assert got[1].tolist() == expected[1].tolist()
    assert list(got[2]) == expected[2]
    assert got[3].shape == expected[3].shape
    assert got[3].tobytes() == expected[3].tobytes()


class TestTargetOrder:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=_bundles())
    def test_selection_matches_the_dict_join(self, tmp_path_factory, case):
        manifest, gt, doc, non_finite = case
        root = tmp_path_factory.mktemp("bundle")
        _write(root, manifest, gt, doc)
        bundle = load_bundle(root)
        sequences = _reference_sequences(manifest, gt)
        tasks, warnings = reference_join(doc, sequences)

        assert list(bundle.warnings) == warnings
        for seq_id, seq in sequences.items():
            parsed = bundle.sequences[seq_id].tracks
            assert isinstance(parsed, TracksView)
            assert [(t, list(tr.boxes.items())) for t, tr in parsed.items()] == [
                (t, list(tr.boxes.items())) for t, tr in seq.tracks.items()
            ]
        assert len(bundle.tasks) == len(tasks)
        for got, expected in zip(bundle.tasks, tasks):
            assert isinstance(got.targets, TargetsView)
            assert got == expected
            assert _ordered(got.targets) == _ordered(expected.targets)
            columns = reference_columns(expected.targets)
            _assert_same_columns(got.targets.unit_columns(), columns)
            _assert_same_columns(TargetsView.from_mapping(expected.targets).unit_columns(), columns)

        violations = reference_validate(sequences, tasks)
        assert validate_dataset(bundle.sequences, bundle.tasks) == violations
        assert validate_dataset(sequences, tasks) == violations
        # dict-built tracks, and the targets joined from them, may hold
        # non-finite coordinates
        gt = {seq_id: [list(r) for r in rows] for seq_id, rows in gt.items()}
        for (seq_id, row, coordinate), value in non_finite.items():
            gt[seq_id][row][2 + coordinate] = value
        sequences = _reference_sequences(manifest, gt)
        tasks, _ = reference_join(doc, sequences)
        assert validate_dataset(sequences, tasks) == reference_validate(sequences, tasks)
        # target frames moved outside the sequence, as a hand-built task may have them
        shift = (1 - max(manifest["sequences"][0]["length"], 1), 5)
        moved = [
            ExpressionTask(t.sequence_id, t.expression_id, t.text, {
                f + shift[i % 2]: row for f, row in t.targets.items()
            })
            for i, t in enumerate(tasks)
        ]
        assert validate_dataset(sequences, moved) == reference_validate(sequences, moved)

    def test_overlapping_intervals_keep_insertion_order(self, tmp_path):
        # track b's boxes come on frames 3, 4, 1, 2: frames 3 and 4 were
        # inserted by track a's interval first
        manifest = {"sequences": [{"sequence_id": "s", "length": 4}]}
        gt = {"s": [(f, t, 0.1 * f, 0.2 * f, 5.0, 5.0) for f in (1, 2, 3, 4) for t in "ab"]}
        doc = [{"expression_id": "e", "sequence_id": "s", "text": "t", "targets": [
            {"track_id": "a", "start_frame": 3, "end_frame": 4},
            {"track_id": "b", "start_frame": 1, "end_frame": 4},
            {"track_id": "a", "start_frame": 4, "end_frame": 4},
        ]}]
        _write(tmp_path, manifest, gt, doc)
        targets = load_bundle(tmp_path).tasks[0].targets
        frame, track, ids, _ = targets.unit_columns()
        assert list(zip(frame.tolist(), [ids[t] for t in track.tolist()])) == [
            (3, "a"), (3, "b"), (4, "a"), (4, "b"), (1, "b"), (2, "b"),
        ]
        assert list(targets) == [3, 4, 1, 2]


class TestViews:
    def test_evaluate_reads_no_view(self, tmp_path, monkeypatch):
        mini = build_mini_bundle()
        write_bundle(tmp_path, mini.sequences, mini.tasks, mini.attributes)
        bundle = load_bundle(tmp_path)
        preds = {(t.sequence_id, t.expression_id): perfect_predictions(t) for t in mini.tasks}
        cfg = EvalConfig()
        expected = evaluate(mini, preds, cfg)

        def unread(self, key):
            raise AssertionError(f"{type(self).__name__}[{key!r}] read")

        monkeypatch.setattr(TargetsView, "__getitem__", unread)
        monkeypatch.setattr(TracksView, "__getitem__", unread)
        assert validate_dataset(bundle.sequences, bundle.tasks, bundle.attributes) == []
        assert evaluate(bundle, preds, cfg) == expected

    def test_parsed_task_matches_like_its_dict(self, tmp_path):
        mini = build_mini_bundle()
        write_bundle(tmp_path, mini.sequences, mini.tasks, mini.attributes)
        bundle = load_bundle(tmp_path)
        frames = range(1, 21)
        for got, task in zip(bundle.tasks, mini.tasks):
            _assert_same_columns(got.targets.unit_columns(), reference_columns(task.targets))
            preds = [det(d.frame, d.box, d.track_id) for d in perfect_predictions(task)]
            alphas = EvalConfig().alpha_grid
            assert match_unit_all_alphas(got, preds, alphas, frames) == match_unit_all_alphas(
                task, preds, alphas, frames
            )

    def test_frame_past_int64_rejected(self):
        box = BoundingBox(0.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="64-bit"):
            TargetsView.from_mapping({2**64: {"a": box}})
        with pytest.raises(ValueError, match="64-bit"):
            TracksView.from_mapping({"a": GroundTruthTrack("a", {-(2**64): box})})

    def test_views_are_read_only_mappings(self, tmp_path):
        mini = build_mini_bundle()
        write_bundle(tmp_path, mini.sequences, mini.tasks, mini.attributes)
        bundle = load_bundle(tmp_path)
        tracks, targets = bundle.sequences["seq-b"].tracks, bundle.tasks[2].targets
        assert len(tracks) == 2 and "b2" in tracks and "zz" not in tracks
        assert tracks == mini.sequences["seq-b"].tracks
        assert len(targets) == 10 and 5 in targets and 11 not in targets
        with pytest.raises(KeyError):
            targets[11]
        with pytest.raises(KeyError):
            tracks["zz"]
        with pytest.raises(TypeError):
            targets[1] = {}  # type: ignore[index]
        assert bundle.tasks[3].no_target and not bundle.tasks[2].no_target
