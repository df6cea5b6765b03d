"""Synthetic scenario generation and seeded perturbation."""

import re
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rmot_eval import synth
from rmot_eval.io_formats import DatasetBundle, ParseError, _unit_id
from rmot_eval.model import BoundingBox, Detection, EvalConfig, UnitBoxes
from rmot_eval.pipeline import evaluate
from rmot_eval.synth import (
    PerturbationConfig,
    ScenarioConfig,
    generate_scenario,
    perturb,
)

from . import reference_synth


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

    @pytest.mark.parametrize(
        "bad, message",
        [
            (dict(box_size_range=(20.5, 50)), "box_size_range must hold two integers"),
            (dict(box_size_range=(True, 50)), "box_size_range must hold two integers"),
            (dict(box_size_range=(50, 20)), "the first at most the second"),
            (dict(box_size_range=(0, 20)), "box_size_range must hold two integers >= 1"),
            (dict(frame_size=(100.5, 100), box_size_range=(20, 50)), "frame_size must hold"),
            (dict(frame_size=(640, 480, 3)), "frame_size must hold two integers"),
            (dict(max_step=-2), "max_step must be an integer >= 0"),
            (dict(max_step=1.5), "max_step must be an integer >= 0"),
        ],
    )
    def test_rejects_non_integer_sizes(self, bad, message):
        with pytest.raises(ValueError, match=message):
            ScenarioConfig(seed=1, **bad)

    def test_accepts_edge_sizes_and_lists(self):
        cfg = ScenarioConfig(seed=1, frame_size=[1, 1], box_size_range=[1, 1], max_step=0)
        assert (cfg.frame_size, cfg.box_size_range) == ((1, 1), (1, 1))
        assert generate_scenario(cfg).sequence.tracks

    @pytest.mark.parametrize(
        "name, value",
        [
            ("sequence_length", 2.5),
            ("sequence_length", True),
            ("n_tracks", 2.5),
            ("n_tracks", -1),
            ("n_expressions", 1.5),
            ("n_expressions", False),
            ("seed", -1),
            ("seed", [1, 2]),
        ],
    )
    def test_rejects_non_integer_counts(self, name, value):
        message = re.escape(f"{name} must be an integer >= 0, got {value!r}")
        with pytest.raises(ValueError, match=message):
            ScenarioConfig(**{"seed": 1, name: value})

    @pytest.mark.parametrize(
        "sequence_id", ["../escape", "../../x", "a/b", "a\\b", "a\0b", "", ".", "..", 7, None]
    )
    def test_rejects_every_id_the_bundle_loader_rejects(self, sequence_id, tmp_path):
        # one rule for both: an id the loader refuses is never written
        with pytest.raises(ParseError, match="FIELD_TYPE|UNSAFE_ID"):
            _unit_id(sequence_id, tmp_path / "manifest.json", "sequence_id")
        message = re.escape("sequence_id must be a string that can name a file or directory")
        with pytest.raises(ValueError, match=message):
            ScenarioConfig(seed=1, sequence_id=sequence_id)

    @pytest.mark.parametrize("sequence_id", ["s", "..x", "a.b", "synth 0", "ü-1"])
    def test_accepts_ids_the_bundle_loader_accepts(self, sequence_id, tmp_path):
        assert _unit_id(sequence_id, tmp_path / "manifest.json", "sequence_id") == sequence_id
        assert ScenarioConfig(seed=1, sequence_id=sequence_id).sequence_id == sequence_id


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

    @pytest.mark.parametrize(
        "bad",
        [
            dict(frame_size=(0, 480)),
            dict(frame_size=(640.0, 480)),
            dict(fp_box_size_range=(0, 0)),
            dict(fp_box_size_range=(80, 20)),
            dict(fp_box_size_range=(20.5, 80)),
            dict(confidence_range=(0.5, 1.5)),
            dict(confidence_range=(-0.1, 0.5)),
            dict(referring_range=(0.6, 0.4)),
            dict(referring_range=(float("nan"), 1.0)),
        ],
    )
    def test_rejects_invalid_ranges(self, bad):
        with pytest.raises(ValueError):
            PerturbationConfig(seed=1, **bad)

    @pytest.mark.parametrize(
        "edge",
        [
            dict(fp_box_size_range=(1, 1)),
            dict(confidence_range=(0.0, 0.0), referring_range=(1.0, 1.0)),
            dict(frame_size=(1, 1)),
        ],
    )
    def test_accepts_edge_ranges(self, edge):
        PerturbationConfig(seed=1, **edge)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("jitter", 1.5),
            ("jitter", True),
            ("jitter", -1),
            ("sequence_length", 2.5),
            ("sequence_length", -1),
            ("seed", 1.5),
        ],
    )
    def test_rejects_non_integer_counts(self, name, value):
        message = re.escape(f"{name} must be an integer >= 0, got {value!r}")
        with pytest.raises(ValueError, match=message):
            PerturbationConfig(**{"seed": 1, name: value})


def scalar_false_positives(cfg):
    """Every frame's false positives from numpy's scalar draws alone."""
    frames = range(1, cfg.sequence_length + 1)
    return [d for f in frames for d in reference_synth.scalar_false_positives(cfg, f)]


def decoded_false_positives(cfg):
    """``_false_positives``' columns as detections."""
    frames = range(1, cfg.sequence_length + 1)
    (states,) = synth._streams(cfg.seed, (synth._K_FP, frames))
    frame, k, fp = synth._false_positives(cfg, np.random.Generator(np.random.PCG64(0)), states)
    return [
        Detection(f, BoundingBox(*row[:4]), row[4], row[5], f"fp-{f}-{i}")
        for f, i, row in zip(frame.tolist(), k.tolist(), fp.tolist())
    ]


class TestFalsePositiveDecode:
    """``_false_positives`` decodes the raw stream in one pass; it must equal
    numpy's scalar draws, frame by frame, on the decoded and fallback paths."""

    def perturb_both_ways(self, cfg):
        sc = generate_scenario(
            ScenarioConfig(seed=123, sequence_length=cfg.sequence_length, n_expressions=1)
        )
        preds = full_coverage_predictions(sc)
        frame_of = {
            np.random.PCG64(np.random.SeedSequence(cfg.seed, spawn_key=(synth._K_FP, f)))
            .state["state"]["state"]: f
            for f in range(1, cfg.sequence_length + 1)
        }
        fallback = set()
        scalar = synth._scalar_false_positives

        def record(cfg, rng):
            fallback.add(frame_of[rng.bit_generator.state["state"]["state"]])
            return scalar(cfg, rng)

        with mock.patch.object(synth, "_scalar_false_positives", record):
            out = perturb(preds, cfg)
        assert list(out) == reference_synth.perturb(preds, cfg)
        fps = [d for d in out if d.track_id.startswith("fp-")]
        return fps, fallback

    def test_decoded_without_fallback(self):
        cfg = PerturbationConfig(seed=7, fp_rate=12.0, miss_rate=0.1, jitter=2,
                                 sequence_length=200)
        fps, fallback = self.perturb_both_ways(cfg)
        assert len(fps) > 2000 and fallback == set()

    def test_one_value_size_range_falls_back(self):
        cfg = PerturbationConfig(seed=7, fp_rate=3.0, sequence_length=200,
                                 fp_box_size_range=(30, 30))
        fps, fallback = self.perturb_both_ways(cfg)
        assert fps and {d.box.w for d in fps} == {30.0}
        # every frame holding a false positive; a frame with none has nothing to draw
        assert fallback == {d.frame for d in fps}

    def test_box_as_wide_as_the_frame_falls_back(self):
        cfg = PerturbationConfig(seed=7, fp_rate=3.0, sequence_length=200,
                                 frame_size=(60, 480))
        fps, fallback = self.perturb_both_ways(cfg)
        wide = {d.frame for d in fps if d.box.w >= 60}
        assert wide and fallback == wide

    def test_every_frame_forced_to_the_scalar_path(self):
        lemire = synth._lemire

        def never_exact(u32, n):
            value, exact = lemire(u32, n)
            return value, np.zeros_like(exact)

        cfg = PerturbationConfig(seed=7, fp_rate=3.0, sequence_length=200)
        with mock.patch.object(synth, "_lemire", never_exact):
            fps, fallback = self.perturb_both_ways(cfg)
        assert fallback == {d.frame for d in fps} != set()

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        fp_rate=st.floats(0.0, 15.0),
        sizes=st.one_of(
            st.tuples(st.integers(1, 100), st.integers(0, 60)),
            st.tuples(st.integers(1, 2**31), st.integers(0, 2**32)),
        ),
        frame_size=st.one_of(
            st.tuples(st.integers(1, 200), st.integers(1, 200)),
            st.tuples(st.integers(2**31, 2**32 + 2), st.integers(2**31, 2**32 + 2)),
        ),
        conf=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2).map(sorted),
        ref=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2).map(sorted),
        length=st.integers(0, 8),
    )
    # a size range of one value; boxes as wide as the frame; ranges past 32 bits
    @example(5, 4.0, (30, 0), (640, 480), [0.5, 1.0], [0.4, 1.0], 8)
    @example(5, 15.0, (20, 60), (60, 40), [0.5, 1.0], [0.4, 1.0], 8)
    @example(5, 15.0, (1, 2**32), (2**32, 2**32), [0.0, 1.0], [0.0, 1.0], 4)
    # a range of 3 * 2**30 values: about half the low words fall below it, a
    # quarter below numpy's rejection threshold
    @example(5, 15.0, (1, 3 * 2**30 - 1), (2**32 - 1, 2**32 - 1), [0.0, 1.0], [0.0, 1.0], 4)
    def test_equals_the_scalar_draws(self, seed, fp_rate, sizes, frame_size, conf, ref, length):
        lo, extra = sizes
        cfg = PerturbationConfig(
            seed=seed, fp_rate=fp_rate, sequence_length=length, frame_size=frame_size,
            fp_box_size_range=(lo, lo + extra), confidence_range=tuple(conf),
            referring_range=tuple(ref),
        )
        assert decoded_false_positives(cfg) == scalar_false_positives(cfg)


def numpy_state(seed, kind, entity):
    return np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(kind, entity))).state


class TestStreams:
    """``_streams`` computes numpy's seeding of many spawn keys at once."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**140),
        groups=st.lists(
            st.tuples(
                st.integers(0, 2**32 - 1), st.lists(st.integers(0, 2**32 - 1), max_size=4)
            ),
            min_size=1,
            max_size=4,
        ),
    )
    # one-word and multi-word seeds at the 4-word boundary of numpy's pool
    @example(0, [(0, [0])])
    @example(2**128 - 1, [(5, [2**32 - 1]), (6, [])])
    @example(2**128, [(1, [0, 7]), (7, [3])])
    def test_equals_numpy(self, seed, groups):
        expected = [[numpy_state(seed, kind, e) for e in entities] for kind, entities in groups]
        assert synth._streams(seed, *groups) == expected

    def test_entities_outside_32_bits(self):
        entities = [2**32, 5, 2**40 + 5]
        assert synth._streams(3, (4, entities)) == [[numpy_state(3, 4, e) for e in entities]]
        with pytest.raises(ValueError):
            synth._streams(3, (4, [-1]))

    @pytest.mark.parametrize("seed, error", [(-1, ValueError), (1.5, TypeError)])
    def test_rejects_what_numpy_rejects(self, seed, error):
        with pytest.raises(error):
            np.random.SeedSequence(seed)
        with pytest.raises(error):
            synth._streams(seed, (1, [0]))


TRACK_IDS = ("t1", "t1#sw1", "t2", "fp-1-0", "fp-2-1", "a", "")


@st.composite
def perturb_inputs(draw):
    """Detections and a config: frames inside and outside 1..length, ids that
    collide with generated ones, repeated (frame, id) pairs, integer and
    fractional coordinates, rates of 0 and 1."""
    length = draw(st.integers(0, 6))
    coord = st.one_of(st.integers(-5, 60).map(float), st.floats(-5.0, 60.0, allow_nan=False))
    score = st.floats(0.0, 1.0)
    dets = draw(st.lists(
        st.builds(
            Detection,
            frame=st.integers(0, length + 3),
            box=st.builds(BoundingBox, coord, coord, coord, coord),
            confidence=score,
            referring_score=score,
            track_id=st.sampled_from(TRACK_IDS),
        ),
        max_size=12,
    ))
    rate = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    cfg = PerturbationConfig(
        seed=draw(st.integers(0, 2**70)),
        miss_rate=draw(rate),
        fp_rate=draw(st.sampled_from([0.0, 0.5, 3.0])),
        idswitch_rate=draw(rate),
        jitter=draw(st.integers(0, 3)),
        frame_size=(64, 48),
        sequence_length=length,
    )
    return dets, cfg


class TestPerturbMatchesReference:
    """``perturb`` on columns against the per-detection reference."""

    @settings(max_examples=300, deadline=None)
    @given(perturb_inputs())
    def test_equals_reference(self, case):
        dets, cfg = case
        out = perturb(dets, cfg)
        expected = reference_synth.perturb(dets, cfg)
        assert list(out) == expected
        assert out.ids == UnitBoxes.from_detections(expected).ids
        assert perturb(UnitBoxes.from_detections(dets), cfg) == expected

    @pytest.mark.parametrize(
        "pert",
        [
            dict(miss_rate=1.0, fp_rate=2.0),
            dict(idswitch_rate=1.0, jitter=0),
            dict(fp_rate=3.0, sequence_length=0, idswitch_rate=0.5, jitter=2),
            dict(miss_rate=0.0, fp_rate=0.0, idswitch_rate=0.0, jitter=0),
        ],
    )
    def test_edge_configs(self, pert):
        preds = full_coverage_predictions(
            generate_scenario(ScenarioConfig(seed=4, sequence_length=12, n_tracks=3))
        )
        preds.append(Detection(2, BoundingBox(1.0, 2.0, 3.0, 4.0), 0.5, 0.5, "fp-2-0"))
        preds.append(Detection(15, BoundingBox(1.0, 2.0, 3.0, 4.0), 0.5, 0.5, "t000"))
        cfg = PerturbationConfig(seed=9, **{"sequence_length": 12, **pert})
        assert list(perturb(preds, cfg)) == reference_synth.perturb(preds, cfg)

    def test_jitter_keeps_the_float_arithmetic(self):
        # fractional corners, where (x + w) + j and x + (w + j) round apart
        rng = np.random.default_rng(3)
        preds = [
            Detection(f, BoundingBox(*(rng.random(4) * 10).tolist()), 1.0, 1.0, f"t{i}")
            for f in range(1, 11)
            for i in range(5)
        ]
        cfg = PerturbationConfig(seed=2, jitter=3, sequence_length=10)
        assert list(perturb(preds, cfg)) == reference_synth.perturb(preds, cfg)

    def test_empty_input(self):
        cfg = PerturbationConfig(seed=9, miss_rate=0.5, idswitch_rate=0.5, jitter=2,
                                 sequence_length=5)
        assert list(perturb([], cfg)) == [] == reference_synth.perturb([], cfg)
        cfg = PerturbationConfig(seed=9, fp_rate=2.0, sequence_length=5)
        assert list(perturb([], cfg)) == reference_synth.perturb([], cfg) != []

    def test_negative_frame_raises_as_numpy_does(self):
        dets = [Detection(-1, BoundingBox(0.0, 0.0, 1.0, 1.0), 1.0, 1.0, "a")]
        cfg = PerturbationConfig(seed=1, sequence_length=5)
        with pytest.raises(ValueError):
            reference_synth.perturb(dets, cfg)
        with pytest.raises(ValueError):
            perturb(dets, cfg)

    def test_two_threads_get_the_serial_result(self):
        sc = generate_scenario(ScenarioConfig(seed=6, sequence_length=40, n_tracks=6))
        preds = full_coverage_predictions(sc)
        cfgs = [
            PerturbationConfig(seed=s, miss_rate=0.2, fp_rate=3.0, idswitch_rate=0.05,
                               jitter=2, sequence_length=40)
            for s in range(8)
        ]
        serial = [list(perturb(preds, cfg)) for cfg in cfgs]
        results = {}

        def work(name):
            results[name] = [[list(perturb(preds, cfg)) for cfg in cfgs] for _ in range(3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(n,)) for n in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == {n: [serial] * 3 for n in range(2)}
