"""Core types: IoU, filtering, config validation, dataset invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmot_eval.model import (
    Attribute,
    AttributeFrameLabels,
    BoundingBox,
    Detection,
    EvalConfig,
    ExpressionTask,
    GroundTruthTrack,
    SequenceData,
    UnitBoxes,
    box_iou,
    filter_predictions,
    iou,
    validate_dataset,
)

from .conftest import box, det, track


class TestIoU:
    def test_identical_boxes(self):
        assert iou(box(0, 0, 10, 10), box(0, 0, 10, 10)) == 1.0

    def test_disjoint_boxes(self):
        assert iou(box(0, 0, 5, 5), box(100, 100, 5, 5)) == 0.0

    def test_partial_overlap_exact_third(self):
        # intersection 1x2 = 2, union 4 + 4 - 2 = 6
        assert iou(box(0, 0, 2, 2), box(1, 0, 2, 2)) == pytest.approx(2 / 6)

    def test_touching_edges_is_zero(self):
        assert iou(box(0, 0, 5, 5), box(5, 0, 5, 5)) == 0.0

    def test_degenerate_box_is_zero(self):
        assert iou(box(0, 0, 0, 0), box(0, 0, 10, 10)) == 0.0
        assert iou(box(0, 0, 0, 0), box(0, 0, 0, 0)) == 0.0

    def test_symmetry(self):
        a, b = box(0, 0, 4, 6), box(2, 1, 5, 3)
        assert iou(a, b) == iou(b, a)

    def test_range(self):
        assert 0.0 <= iou(box(0, 0, 3, 3), box(1, 1, 7, 2)) <= 1.0


coord = st.integers(min_value=0, max_value=50)
extent = st.integers(min_value=0, max_value=30)
box_strategy = st.builds(
    lambda x, y, w, h: BoundingBox(float(x), float(y), float(w), float(h)),
    coord, coord, extent, extent,
)


class TestIoUMatrix:
    @given(st.lists(box_strategy, min_size=1, max_size=5),
           st.lists(box_strategy, min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_scalar(self, gts, preds):
        g = np.array([[b.x, b.y, b.w, b.h] for b in gts])
        p = np.array([[b.x, b.y, b.w, b.h] for b in preds])
        mat = box_iou(g[:, None], p[None])
        for i, gb in enumerate(gts):
            for j, pb in enumerate(preds):
                assert mat[i, j] == iou(gb, pb)

    @given(st.lists(st.tuples(box_strategy, box_strategy), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_pairs_bit_identical_to_scalar(self, pairs):
        # the elementwise form the scorer's candidate pairs use
        g = np.array([[a.x, a.y, a.w, a.h] for a, _ in pairs])
        p = np.array([[b.x, b.y, b.w, b.h] for _, b in pairs])
        assert box_iou(g, p).tolist() == [iou(a, b) for a, b in pairs]

    def test_shape(self):
        g = np.zeros((3, 4))
        p = np.zeros((2, 4))
        assert box_iou(g[:, None], p[None]).shape == (3, 2)
        assert box_iou(g, p[:1]).shape == (3,)

    @given(st.integers(min_value=1, max_value=4), st.data())
    @settings(max_examples=100, deadline=None)
    def test_batched_frames_match_scalar(self, n_frames, data):
        frames = [
            (data.draw(st.lists(box_strategy, min_size=1, max_size=4)),
             data.draw(st.lists(box_strategy, min_size=1, max_size=4)))
            for _ in range(n_frames)
        ]
        g, p = max(len(f[0]) for f in frames), max(len(f[1]) for f in frames)
        # zero boxes pad the ragged frames, as in the per-unit tensors
        gb = np.zeros((n_frames, g, 4))
        pb = np.zeros((n_frames, p, 4))
        for fi, (gts, preds) in enumerate(frames):
            gb[fi, :len(gts)] = [[b.x, b.y, b.w, b.h] for b in gts]
            pb[fi, :len(preds)] = [[b.x, b.y, b.w, b.h] for b in preds]
        mat = box_iou(gb[:, :, None], pb[:, None])
        assert mat.shape == (n_frames, g, p)
        for fi, (gts, preds) in enumerate(frames):
            for i in range(g):
                for j in range(p):
                    a = gts[i] if i < len(gts) else BoundingBox(0.0, 0.0, 0.0, 0.0)
                    b = preds[j] if j < len(preds) else BoundingBox(0.0, 0.0, 0.0, 0.0)
                    assert mat[fi, i, j] == iou(a, b)


class TestFilterPredictions:
    def test_kept_with_defaults(self):
        d = det(1, box(0, 0, 5, 5), "t", confidence=0.6, referring_score=0.45)
        assert filter_predictions([d], EvalConfig()) == [d]

    def test_dropped_below_referring_threshold(self):
        d = det(1, box(0, 0, 5, 5), "t", confidence=0.6, referring_score=0.35)
        assert filter_predictions([d], EvalConfig()) == []

    def test_dropped_below_score_threshold(self):
        d = det(1, box(0, 0, 5, 5), "t", confidence=0.4, referring_score=0.9)
        assert filter_predictions([d], EvalConfig()) == []

    def test_vacuous_filter(self):
        dets = [
            det(1, box(0, 0, 1, 1), "a", confidence=0.01, referring_score=0.02),
            det(2, box(0, 0, 1, 1), "b", confidence=0.99, referring_score=0.99),
        ]
        cfg = EvalConfig(score_threshold=0.0, beta_ref=0.0)
        assert filter_predictions(dets, cfg) == dets

    @given(st.lists(st.tuples(
        st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))),
        st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))
    @settings(max_examples=100, deadline=None)
    def test_idempotent_and_order_preserving(self, scores, thr, beta):
        dets = [
            det(i + 1, box(0, 0, 1, 1), f"t{i}", confidence=c, referring_score=r)
            for i, (c, r) in enumerate(scores)
        ]
        cfg = EvalConfig(score_threshold=thr, beta_ref=beta)
        once = filter_predictions(dets, cfg)
        assert filter_predictions(once, cfg) == once
        positions = [dets.index(d) for d in once]
        assert positions == sorted(positions)


class TestUnitBoxes:
    @given(
        st.lists(st.tuples(
            st.integers(1, 2**63 - 1), st.sampled_from(["a", "b", "c"]),
            st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))),
        st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1),
    )
    @settings(max_examples=100, deadline=None)
    def test_columns_read_and_filter_like_the_list(self, rows, thr, beta):
        dets = [
            det(f, box(i, -i, 0.5 * i, 2), tid, confidence=c, referring_score=r)
            for i, (f, tid, c, r) in enumerate(rows)
        ]
        boxes = UnitBoxes.from_detections(dets)
        assert boxes == dets and dets == boxes and len(boxes) == len(dets)
        assert list(boxes.ids) == list(dict.fromkeys(d.track_id for d in dets))
        if dets:
            assert boxes[-1] == dets[-1] and boxes[0] == dets[0]
        assert boxes[1:3] == dets[1:3]
        cfg = EvalConfig(score_threshold=thr, beta_ref=beta)
        kept = filter_predictions(boxes, cfg)
        assert isinstance(kept, UnitBoxes) and kept == filter_predictions(dets, cfg)

    def test_non_integer_frame_rejected(self):
        with pytest.raises(TypeError):
            UnitBoxes.from_detections([det(2.5, box(0, 0, 1, 1), "a")])

    def test_frame_past_int64_rejected(self):
        dets = [det(3, box(0, 0, 1, 1), "a"), det(2**64, box(0, 0, 1, 1), "a")]
        with pytest.raises(ValueError, match=f"frame {2**64} does not fit"):
            UnitBoxes.from_detections(dets)


class TestEvalConfig:
    def test_default_alpha_grid(self):
        assert EvalConfig().alpha_grid == tuple(
            round(0.05 * i, 2) for i in range(1, 20)
        )
        assert len(EvalConfig().alpha_grid) == 19

    @pytest.mark.parametrize("kwargs", [
        {"score_threshold": -0.1},
        {"score_threshold": 1.5},
        {"beta_ref": 2.0},
        {"alpha_grid": ()},
        {"alpha_grid": (0.0, 0.5)},
        {"alpha_grid": (0.5, 1.0)},
        {"alpha_grid": (0.5, 0.3)},
        {"alpha_grid": (0.5, 0.5)},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            EvalConfig(**kwargs)


class TestValidateDataset:
    def test_clean_mini_fixture(self, mini_bundle):
        assert validate_dataset(
            mini_bundle.sequences, mini_bundle.tasks, mini_bundle.attributes
        ) == []

    def test_negative_extent(self):
        seq = SequenceData("s", 5, {"t": track("t", [1], box(0, 0, -3, 4))})
        out = validate_dataset({"s": seq}, [])
        assert [v.code for v in out] == ["NEGATIVE_EXTENT"]
        assert out[0].track_id == "t"

    def test_non_finite_box(self):
        # built from dicts, so no parser has checked the coordinates
        seq = SequenceData("s", 5, {
            "t": track("t", [2], box(0, float("nan"), 3, 4)),
            "u": track("u", [1], box(0, 0, -float("inf"), 4)),
        })
        task = ExpressionTask("s", "e", "text", {3: {"t": box(float("inf"), 0, 1, 1)}})
        out = validate_dataset({"s": seq}, [task])
        assert [(v.code, v.expression_id, v.frame, v.track_id) for v in out] == [
            ("NON_FINITE", None, 2, "t"),
            ("NON_FINITE", None, 1, "u"),
            ("NEGATIVE_EXTENT", None, 1, "u"),
            ("NON_FINITE", "e", 3, "t"),
        ]
        assert {v.sequence_id for v in out} == {"s"}
        assert out[0].message == "box coordinates x, y, w, h must be finite, got 0.0, nan, 3.0, 4.0"
        assert out[3].message == (
            "target box coordinates x, y, w, h must be finite, got inf, 0.0, 1.0, 1.0"
        )

    def test_frame_out_of_bounds(self):
        seq = SequenceData("s", 5, {"t": track("t", [7], box(0, 0, 3, 4))})
        out = validate_dataset({"s": seq}, [])
        assert [v.code for v in out] == ["FRAME_OUT_OF_BOUNDS"]

    def test_unknown_sequence(self):
        t = ExpressionTask("nope", "e", "text", {})
        out = validate_dataset({}, [t])
        assert [v.code for v in out] == ["UNKNOWN_SEQUENCE"]

    def test_day_night_conflict(self):
        seq = SequenceData("s", 1, {})
        labels = AttributeFrameLabels(
            "s", {1: frozenset({Attribute.DAY, Attribute.NIGHT})}
        )
        out = validate_dataset({"s": seq}, [], {"s": labels})
        assert [v.code for v in out] == ["ATTR_DAY_NIGHT_CONFLICT"]

    def test_attribute_coverage_gap(self):
        seq = SequenceData("s", 3, {})
        labels = AttributeFrameLabels(
            "s", {1: frozenset({Attribute.DAY}), 3: frozenset({Attribute.DAY})}
        )
        out = validate_dataset({"s": seq}, [], {"s": labels})
        assert [v.code for v in out] == ["ATTR_COVERAGE_GAP"]
        assert out[0].frame == 2

    def test_attribute_row_past_sequence_end(self):
        # labels checked against another bundle's, longer, sequence
        seq = SequenceData("s", 2, {})
        labels = AttributeFrameLabels("s", {f: frozenset({Attribute.NIGHT}) for f in (1, 2, 3, 4)})
        out = validate_dataset({"s": seq}, [], {"s": labels})
        assert [(v.code, v.sequence_id, v.frame) for v in out] == [
            ("FRAME_OUT_OF_BOUNDS", "s", 3), ("FRAME_OUT_OF_BOUNDS", "s", 4),
        ]
        assert "frame 3 outside [1, 2]" in out[0].message

    def test_attribute_labels_for_unknown_sequence(self):
        # labels from another bundle, for a sequence this one lacks
        labels = AttributeFrameLabels("z", {f: frozenset({Attribute.NIGHT}) for f in (1, 2, 3)})
        out = validate_dataset({"s": SequenceData("s", 2, {})}, [], {"z": labels})
        assert [(v.code, v.sequence_id) for v in out] == [("UNKNOWN_SEQUENCE", "z")]
        assert out[0].message == "attribute labels for 3 frame(s) reference unknown sequence"

    def test_collects_all_violations(self):
        seq = SequenceData(
            "s", 2,
            {"t": GroundTruthTrack("t", {1: box(0, 0, -1, 1), 5: box(0, 0, 1, 1)})},
        )
        out = validate_dataset({"s": seq}, [ExpressionTask("x", "e", "t", {})])
        assert sorted(v.code for v in out) == [
            "FRAME_OUT_OF_BOUNDS", "NEGATIVE_EXTENT", "UNKNOWN_SEQUENCE",
        ]


class TestDomainTypes:
    def test_no_target_property(self):
        assert ExpressionTask("s", "e", "t", {}).no_target
        assert ExpressionTask("s", "e", "t", {1: {}}).no_target
        assert not ExpressionTask("s", "e", "t", {1: {"a": box(0, 0, 1, 1)}}).no_target

    def test_frames_with(self):
        labels = AttributeFrameLabels("s", {
            1: frozenset({Attribute.DAY}),
            2: frozenset({Attribute.NIGHT, Attribute.OCCLUSION}),
            3: frozenset({Attribute.DAY, Attribute.OCCLUSION}),
        })
        assert labels.frames_with(Attribute.OCCLUSION) == [2, 3]
        assert labels.frames_with(Attribute.FAST_MOTION) == []

    def test_attribute_from_name(self):
        assert Attribute.from_name("Night") is Attribute.NIGHT
        with pytest.raises(ValueError):
            Attribute.from_name("weather")

    def test_box_is_immutable(self):
        b = box(0, 0, 1, 1)
        with pytest.raises(AttributeError):
            b.x = 5.0
