"""Synthetic scenario generation and seeded perturbation."""

import pytest

from rmot_eval.io_formats import DatasetBundle
from rmot_eval.model import Detection, EvalConfig
from rmot_eval.pipeline import evaluate
from rmot_eval.synth import (
    PerturbationConfig,
    ScenarioConfig,
    generate_scenario,
    perturb,
)


def full_coverage_predictions(scenario):
    """One detection per gt box, regardless of expression intervals."""
    seq = scenario.sequence
    return [
        Detection(frame=f, box=tr.boxes[f], confidence=1.0, referring_score=1.0,
                  track_id=tid)
        for tid, tr in sorted(seq.tracks.items())
        for f in sorted(tr.boxes)
    ]


class TestGenerateScenario:
    def test_same_seed_is_identical(self):
        a = generate_scenario(ScenarioConfig(seed=5))
        b = generate_scenario(ScenarioConfig(seed=5))
        assert a.sequence == b.sequence
        assert a.tasks == b.tasks
        assert a.labels == b.labels
        assert a.predictions == b.predictions

    def test_different_seeds_differ(self):
        a = generate_scenario(ScenarioConfig(seed=5))
        b = generate_scenario(ScenarioConfig(seed=6))
        assert a.sequence != b.sequence

    def test_zero_tracks(self):
        sc = generate_scenario(ScenarioConfig(seed=1, n_tracks=0))
        assert sc.sequence.tracks == {}
        assert all(t.no_target for t in sc.tasks)
        assert all(len(d) == 0 for d in sc.predictions.values())

    def test_boxes_are_integer_valued_and_in_frame(self):
        cfg = ScenarioConfig(seed=2, frame_size=(640, 480))
        sc = generate_scenario(cfg)
        for tr in sc.sequence.tracks.values():
            for b in tr.boxes.values():
                assert b.x.is_integer() and b.y.is_integer()
                assert b.w.is_integer() and b.h.is_integer()
                assert 0 <= b.x and b.x + b.w <= 640
                assert 0 <= b.y and b.y + b.h <= 480

    def test_attribute_coverage_guarantee(self):
        from rmot_eval.model import Attribute

        sc = generate_scenario(ScenarioConfig(seed=3, sequence_length=30))
        for attr in Attribute:
            assert sc.labels.frames_with(attr), attr

    def test_labels_cover_all_frames_without_conflict(self):
        from rmot_eval.model import Attribute, validate_dataset

        sc = generate_scenario(ScenarioConfig(seed=4, sequence_length=50))
        assert sorted(sc.labels.flags) == list(range(1, 51))
        assert validate_dataset(
            {sc.sequence.sequence_id: sc.sequence},
            sc.tasks,
            {sc.sequence.sequence_id: sc.labels},
        ) == []

    def test_perfect_predictions_score_100(self):
        sc = generate_scenario(ScenarioConfig(seed=9, sequence_length=40))
        bundle = DatasetBundle(
            sequences={sc.sequence.sequence_id: sc.sequence},
            tasks=sc.tasks,
            attributes={},
        )
        report, _ = evaluate(bundle, sc.predictions, EvalConfig())
        assert report.hota == 100.0

    def test_no_target_fraction_one(self):
        sc = generate_scenario(ScenarioConfig(seed=8, no_target_fraction=1.0))
        assert all(t.no_target for t in sc.tasks)

    def test_rejects_invalid_config(self):
        with pytest.raises(ValueError):
            ScenarioConfig(seed=1, n_tracks=-1)
        with pytest.raises(ValueError):
            ScenarioConfig(seed=1, box_size_range=(500, 600), frame_size=(100, 100))
        with pytest.raises(ValueError):
            ScenarioConfig(seed=1, no_target_fraction=1.5)


class TestPerturb:
    def scenario_1000(self):
        sc = generate_scenario(
            ScenarioConfig(seed=123, sequence_length=200, n_tracks=5, n_expressions=1)
        )
        return full_coverage_predictions(sc)

    def test_identity_perturbation(self):
        preds = self.scenario_1000()
        out = perturb(preds, PerturbationConfig(seed=1, sequence_length=200))
        assert sorted(out, key=lambda d: (d.frame, d.track_id)) == sorted(
            preds, key=lambda d: (d.frame, d.track_id)
        )

    def test_total_miss(self):
        preds = self.scenario_1000()
        out = perturb(preds, PerturbationConfig(seed=1, miss_rate=1.0, sequence_length=200))
        assert out == []

    def test_frozen_retained_count(self):
        # regression fixture: 1000 detections, seed 77, miss_rate 0.5
        preds = self.scenario_1000()
        assert len(preds) == 1000
        out = perturb(
            preds, PerturbationConfig(seed=77, miss_rate=0.5, sequence_length=200)
        )
        assert len(out) == 477

    def test_retained_sets_nested_across_miss_rates(self):
        preds = self.scenario_1000()

        def retained(rate):
            out = perturb(
                preds,
                PerturbationConfig(seed=77, miss_rate=rate, sequence_length=200),
            )
            return {(d.frame, d.track_id.split("#")[0]) for d in out}

        r0, r2, r5, r8 = (retained(r) for r in (0.0, 0.2, 0.5, 0.8))
        assert r8 <= r5 <= r2 <= r0

    def test_input_order_irrelevant(self):
        preds = self.scenario_1000()
        cfg = PerturbationConfig(seed=7, miss_rate=0.3, fp_rate=0.2, jitter=2,
                                 sequence_length=200)
        assert perturb(preds, cfg) == perturb(list(reversed(preds)), cfg)

    def test_id_switch_creates_new_ids_only(self):
        preds = self.scenario_1000()
        cfg = PerturbationConfig(seed=7, idswitch_rate=0.05, sequence_length=200)
        out = perturb(preds, cfg)
        assert len(out) == len(preds)
        base_ids = {d.track_id for d in preds}
        switched = {d.track_id for d in out} - base_ids
        assert switched and all("#sw" in t for t in switched)
        # boxes untouched
        key = lambda d: (d.frame, d.box.x, d.box.y, d.box.w, d.box.h)
        assert sorted(map(key, out)) == sorted(map(key, preds))

    def test_false_positives_have_fp_ids_and_valid_scores(self):
        preds = self.scenario_1000()
        cfg = PerturbationConfig(seed=7, fp_rate=1.0, sequence_length=200)
        out = perturb(preds, cfg)
        fps = [d for d in out if d.track_id.startswith("fp-")]
        assert fps
        for d in fps:
            assert 0.5 <= d.confidence <= 1.0
            assert 0.4 <= d.referring_score <= 1.0

    def test_jitter_keeps_positive_extent(self):
        preds = self.scenario_1000()
        cfg = PerturbationConfig(seed=7, jitter=50, sequence_length=200)
        out = perturb(preds, cfg)
        for d in out:
            assert d.box.w >= 1.0 and d.box.h >= 1.0

    def test_rejects_invalid_config(self):
        with pytest.raises(ValueError):
            PerturbationConfig(seed=1, miss_rate=1.5)
        with pytest.raises(ValueError):
            PerturbationConfig(seed=1, fp_rate=-0.1)
