"""Attribute restriction, per-attribute HOTA, geometric composites."""

import math

import pytest

from rmot_eval.attributes import compose_geometric, restrict_to_attribute
from rmot_eval.io_formats import DatasetBundle
from rmot_eval.model import (
    Attribute,
    AttributeFrameLabels,
    EvalConfig,
    ExpressionTask,
    SequenceData,
)
from rmot_eval.pipeline import evaluate

from .conftest import box, det, perfect_predictions, task_from_tracks, track


def day_night_setup():
    """4-frame sequence: frames 1-2 day, 3-4 night; one target track throughout."""
    g1 = track("g1", [1, 2, 3, 4], box(0, 0, 10, 10))
    seq = SequenceData("s", 4, {"g1": g1})
    task = task_from_tracks("s", "e", "t", [(g1, [1, 2, 3, 4])])
    labels = AttributeFrameLabels("s", {
        1: frozenset({Attribute.DAY}),
        2: frozenset({Attribute.DAY, Attribute.OCCLUSION}),
        3: frozenset({Attribute.NIGHT}),
        4: frozenset({Attribute.NIGHT, Attribute.OCCLUSION}),
    })
    return seq, task, labels


def evaluated_attributes(sequences, tasks, preds, labels):
    """The attribute report of a full evaluation run."""
    bundle = DatasetBundle(sequences=sequences, tasks=tuple(tasks), attributes=labels)
    _, attrs = evaluate(bundle, preds, EvalConfig())
    return attrs


class TestRestrictToAttribute:
    def test_all_frames_flagged_is_identity(self):
        _, task, labels = day_night_setup()
        preds = perfect_predictions(task)
        all_lab = AttributeFrameLabels("s", {
            f: frozenset({Attribute.DAY}) for f in (1, 2, 3, 4)
        })
        sub_task, sub_preds = restrict_to_attribute(
            task, preds, all_lab.frames_with(Attribute.DAY)
        )
        assert sub_task.targets == dict(task.targets)
        assert sub_preds == preds

    def test_no_frames_flagged_is_empty(self):
        _, task, labels = day_night_setup()
        sub_task, sub_preds = restrict_to_attribute(
            task, perfect_predictions(task), labels.frames_with(Attribute.FAST_MOTION)
        )
        assert sub_task.targets == {} and sub_preds == []

    def test_subset_preserves_frame_indices(self):
        _, task, labels = day_night_setup()
        sub_task, sub_preds = restrict_to_attribute(
            task, perfect_predictions(task), labels.frames_with(Attribute.OCCLUSION)
        )
        assert sorted(sub_task.targets) == [2, 4]
        assert sorted(d.frame for d in sub_preds) == [2, 4]


class TestAttributeHota:
    def test_perfect_prediction_scores_100_everywhere(self):
        seq, task, labels = day_night_setup()
        preds = {("s", "e"): perfect_predictions(task)}
        attrs = evaluated_attributes({"s": seq}, [task], preds, {"s": labels})
        for attr in (Attribute.DAY, Attribute.NIGHT, Attribute.OCCLUSION):
            assert attrs.per_attribute[attr.value] == 100.0

    def test_day_perfect_night_empty(self):
        seq, task, labels = day_night_setup()
        preds = {
            ("s", "e"): [d for d in perfect_predictions(task) if d.frame <= 2]
        }
        attrs = evaluated_attributes({"s": seq}, [task], preds, {"s": labels})
        assert attrs.per_attribute[Attribute.DAY.value] == 100.0
        assert attrs.per_attribute[Attribute.NIGHT.value] == 0.0

    def test_absent_attribute_returns_none(self):
        seq, task, labels = day_night_setup()
        preds = {("s", "e"): perfect_predictions(task)}
        attrs = evaluated_attributes({"s": seq}, [task], preds, {"s": labels})
        assert attrs.per_attribute[Attribute.ROTATION.value] is None


class TestComposeGeometric:
    def test_single_element_identity(self):
        assert compose_geometric([42.5]) == 42.5

    def test_zero_annihilates(self):
        assert compose_geometric([50.0, 0.0, 80.0]) == 0.0

    def test_equal_inputs_exact(self):
        assert compose_geometric([100.0, 100.0, 100.0]) == 100.0

    def test_permutation_invariant(self):
        a = compose_geometric([30.16, 25.80, 26.82])
        b = compose_geometric([26.82, 30.16, 25.80])
        assert a == b

    def test_within_input_hull(self):
        vals = [12.0, 45.0, 78.0]
        out = compose_geometric(vals)
        assert min(vals) <= out <= max(vals)

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            compose_geometric([])
        with pytest.raises(ValueError):
            compose_geometric([101.0])
        with pytest.raises(ValueError):
            compose_geometric([-1.0])

    def test_matches_nth_root_of_product(self):
        vals = [20.0, 40.0, 80.0]
        assert compose_geometric(vals) == pytest.approx(
            (20.0 * 40.0 * 80.0) ** (1 / 3)
        )


class TestBuildAttributeReport:
    def test_perfect_report(self):
        seq, task, labels = day_night_setup()
        preds = {("s", "e"): perfect_predictions(task)}
        report = evaluated_attributes({"s": seq}, [task], preds, {"s": labels})
        assert report.per_attribute[Attribute.DAY.value] == 100.0
        assert report.per_attribute[Attribute.ROTATION.value] is None
        # night and occlusion present among scene attributes, low_resolution not
        assert report.n_s_effective == 2
        assert report.hota_s == 100.0
        assert report.n_m_effective == 0
        assert report.hota_m is None
        assert any("rotation" in w for w in report.warnings)
        assert "HOTA_S composed from 2 of 3 attributes" in report.warnings

    def test_partial_motion_composite_warns(self):
        seq, task, _ = day_night_setup()
        labels = AttributeFrameLabels("s", {
            1: frozenset({Attribute.DAY, Attribute.FAST_MOTION}),
            2: frozenset({Attribute.DAY}),
            3: frozenset({Attribute.NIGHT, Attribute.ROTATION}),
            4: frozenset({Attribute.NIGHT}),
        })
        preds = {("s", "e"): perfect_predictions(task)}
        report = evaluated_attributes({"s": seq}, [task], preds, {"s": labels})
        assert (report.n_m_effective, report.hota_m) == (2, 100.0)
        assert "HOTA_M composed from 2 of 4 attributes" in report.warnings

    def test_frame_counts(self):
        seq, task, labels = day_night_setup()
        report = evaluated_attributes({"s": seq}, [task], {}, {"s": labels})
        assert report.frame_counts[Attribute.DAY.value] == 2
        assert report.frame_counts[Attribute.OCCLUSION.value] == 2
        assert report.frame_counts[Attribute.FAST_MOTION.value] == 0

    def test_degraded_attribute_scores_below_clean(self, mini_bundle):
        # predictions perfect everywhere except missing on occlusion frames 3-4
        task = mini_bundle.tasks[0]  # seq-a/e1, frames 1-10
        preds = [d for d in perfect_predictions(task) if d.frame not in (3, 4)]
        report = evaluated_attributes(
            mini_bundle.sequences,
            [task],
            {("seq-a", "e1"): preds},
            mini_bundle.attributes,
        )
        assert report.per_attribute[Attribute.OCCLUSION.value] == 0.0
        assert report.per_attribute[Attribute.NIGHT.value] == 100.0
        assert (
            report.per_attribute[Attribute.OCCLUSION.value]
            < report.per_attribute[Attribute.DAY.value]
        )
