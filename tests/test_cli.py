"""Command-line interface: exit codes, outputs, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from rmot_eval.cli import EXIT_IO, main
from rmot_eval.io_formats import unit_filename, write_bundle, write_predictions
from rmot_eval.model import Attribute, AttributeFrameLabels, SequenceData

from .conftest import build_mini_bundle, perfect_predictions


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def mini_dirs(tmp_path, mini_bundle):
    gt_dir = tmp_path / "bundle"
    pred_dir = tmp_path / "preds"
    write_bundle(gt_dir, mini_bundle.sequences, mini_bundle.tasks, mini_bundle.attributes)
    pred_dir.mkdir()
    for task in mini_bundle.tasks:
        write_predictions(
            perfect_predictions(task),
            pred_dir / unit_filename(task.sequence_id, task.expression_id),
        )
    return gt_dir, pred_dir


SYNTH_CONFIG = {
    "scenarios": [
        {"seed": 31, "sequence_length": 30, "n_tracks": 3, "n_expressions": 2},
    ],
}



def _target_without_end(doc):
    del doc[0]["targets"][0]["end_frame"]
    return doc


def _start_frame_not_int(doc):
    doc[0]["targets"][0]["start_frame"] = "x"
    return doc


def _start_frame_bool(doc):
    doc[0]["targets"][0]["start_frame"] = True
    return doc


def _end_frame_fractional(doc):
    doc[0]["targets"][0]["end_frame"] += 0.7
    return doc


def _length_fractional(doc):
    doc["sequences"][0]["length"] += 0.9
    return doc


def _entry_not_object(doc):
    return doc + [7]


def _manifest_as_list(doc):
    return doc["sequences"]


def _sequence_without_length(doc):
    del doc["sequences"][0]["length"]
    return doc


def _sequence_listed_twice(doc):
    doc["sequences"].append(dict(doc["sequences"][0]))
    return doc


def _split_not_string(doc):
    doc["sequences"][0]["split"] = ["x"]
    return doc


def _text_null(doc):
    doc[0]["text"] = None
    return doc


def _targets_not_list(doc):
    doc[0]["targets"] = {"track_id": "a1"}
    return doc


def _unknown_sequence(doc):
    doc[0]["sequence_id"] = "seq-z"
    return doc


def _sequences_not_list(doc):
    doc["sequences"] = {}
    return doc


class TestEvaluateCommand:
    def test_perfect_run(self, runner, mini_dirs, tmp_path):
        gt_dir, pred_dir = mini_dirs
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["evaluate", str(gt_dir), str(pred_dir), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        assert report["display"]["HOTA"] == "100.00"
        assert (out / "report.txt").exists()
        assert (out / "run_manifest.json").exists()

    def test_missing_prediction_file_warns(self, runner, mini_dirs, tmp_path):
        gt_dir, pred_dir = mini_dirs
        (pred_dir / "seq-a__e1.txt").unlink()
        result = runner.invoke(
            main,
            ["evaluate", str(gt_dir), str(pred_dir), "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 0
        assert "treating as empty" in result.output

    def test_absent_target_frames_warn(self, runner, mini_dirs, tmp_path):
        # a2 exists on frames 3-7 only; widen seq-a/e2's interval to 1-7
        gt_dir, pred_dir = mini_dirs
        path = gt_dir / "expressions.json"
        doc = json.loads(path.read_text())
        (entry,) = [e for e in doc if (e["sequence_id"], e["expression_id"]) == ("seq-a", "e2")]
        entry["targets"][0]["start_frame"] = 1
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        result = runner.invoke(main, ["evaluate", str(gt_dir), str(pred_dir), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert result.stderr.splitlines()[0] == (
            "warning: seq-a/e2: track a2 absent on 2 frame(s) of interval [1, 7]"
        )
        assert (out / "report.json").exists()

    def test_missing_prediction_file_strict_errors(self, runner, mini_dirs, tmp_path):
        gt_dir, pred_dir = mini_dirs
        (pred_dir / "seq-a__e1.txt").unlink()
        result = runner.invoke(
            main,
            ["evaluate", str(gt_dir), str(pred_dir), "--strict",
             "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 1

    def test_stray_prediction_file_warns(self, runner, mini_dirs, tmp_path):
        gt_dir, pred_dir = mini_dirs
        strays = [pred_dir / "seq-a__e9.txt", pred_dir / "notes.txt"]
        for stray in strays:
            stray.write_text("1,x,0,0,5,5,0.9,0.9\n")
        (pred_dir / "README.md").write_text("not a prediction file\n")
        out = tmp_path / "o"
        result = runner.invoke(
            main, ["evaluate", str(gt_dir), str(pred_dir), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        warned = [line for line in result.stderr.splitlines() if "matches no unit" in line]
        assert warned == [
            f"warning: prediction file {p} matches no unit" for p in sorted(strays)
        ]
        # the strays are not scored: the perfect units still give 100
        assert json.loads((out / "report.json").read_text())["display"]["HOTA"] == "100.00"

    def test_stray_prediction_file_strict_errors(self, runner, mini_dirs, tmp_path):
        gt_dir, pred_dir = mini_dirs
        stray = pred_dir / "seq-a__e9.txt"
        stray.write_text("")
        out = tmp_path / "o"
        result = runner.invoke(
            main, ["evaluate", str(gt_dir), str(pred_dir), "--strict", "--out", str(out)]
        )
        assert result.exit_code == EXIT_IO
        assert result.stderr == f"error: prediction file {stray} matches no unit\n"
        assert not (out / "report.json").exists()

    def test_validation_violation_exits_2(self, runner, mini_dirs, tmp_path):
        gt_dir, pred_dir = mini_dirs
        # corrupt one gt box with a negative extent
        gt_file = gt_dir / "seq-c" / "gt.txt"
        gt_file.write_text("1,c1,10,10,-5,5\n")
        result = runner.invoke(
            main,
            ["evaluate", str(gt_dir), str(pred_dir), "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 2
        result = runner.invoke(
            main,
            ["evaluate", str(gt_dir), str(pred_dir), "--allow-violations",
             "--out", str(tmp_path / "o2")],
        )
        assert result.exit_code == 0

    def test_parse_error_exits_1(self, runner, mini_dirs, tmp_path):
        gt_dir, pred_dir = mini_dirs
        (gt_dir / "seq-a" / "gt.txt").write_text("1,2,3\n")
        result = runner.invoke(
            main, ["evaluate", str(gt_dir), str(pred_dir), "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 1

    def test_non_finite_prediction_exits_1(self, runner, mini_dirs, tmp_path):
        gt_dir, pred_dir = mini_dirs
        f = pred_dir / "seq-a__e1.txt"
        lines = f.read_text().splitlines()
        fields = lines[1].split(",")
        fields[2] = "nan"  # x
        lines[1] = ",".join(fields)
        f.write_text("\n".join(lines) + "\n")
        result = runner.invoke(
            main, ["evaluate", str(gt_dir), str(pred_dir), "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == EXIT_IO
        assert f"NON_FINITE at {f}:2" in result.output

    def test_malformed_manifest_exits_1(self, runner, mini_dirs, tmp_path):
        gt_dir, pred_dir = mini_dirs
        manifest = gt_dir / "manifest.json"
        manifest.write_text(manifest.read_text()[:-10])
        result = runner.invoke(
            main, ["evaluate", str(gt_dir), str(pred_dir), "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == EXIT_IO
        assert f"JSON_SYNTAX at {manifest}:" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize(
        "doc, edit, code",
        [
            ("expressions.json", _target_without_end, "DOC_FIELD"),
            ("expressions.json", _start_frame_not_int, "FIELD_TYPE"),
            # int() would truncate these silently
            ("expressions.json", _start_frame_bool, "FIELD_TYPE"),
            ("expressions.json", _end_frame_fractional, "FIELD_TYPE"),
            ("manifest.json", _length_fractional, "FIELD_TYPE"),
            ("expressions.json", _entry_not_object, "DOC_SHAPE"),
            ("manifest.json", _manifest_as_list, "DOC_SHAPE"),
            ("manifest.json", _sequence_without_length, "DOC_FIELD"),
            ("expressions.json", _targets_not_list, "DOC_SHAPE"),
            ("expressions.json", _unknown_sequence, "UNKNOWN_SEQUENCE"),
            ("manifest.json", _sequences_not_list, "DOC_SHAPE"),
        ],
    )
    def test_malformed_document_exits_1(self, runner, mini_dirs, tmp_path, doc, edit, code):
        gt_dir, pred_dir = mini_dirs
        path = gt_dir / doc
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        result = runner.invoke(
            main, ["evaluate", str(gt_dir), str(pred_dir), "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == EXIT_IO
        assert f"{code} at {path}" in result.stderr
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize(
        "args, message",
        [
            (["evaluate", "{gt}", "{pred}", "--workers", "abc"], "Invalid value for '--workers'"),
            (["evaluate", "{gt}", "{gt}/missing"], "Invalid value for 'PRED_DIR'"),
            (["evaluate", "{gt}"], "Missing argument 'PRED_DIR'"),
            (["evaluate", "{gt}", "{pred}", "--bogus"], "No such option '--bogus'"),
            (["--bogus"], "No such option '--bogus'"),
            (["bogus"], "No such command 'bogus'"),
        ],
    )
    def test_usage_error_exits_1(self, runner, mini_dirs, args, message):
        gt_dir, pred_dir = mini_dirs
        result = runner.invoke(main, [a.format(gt=gt_dir, pred=pred_dir) for a in args])
        assert result.exit_code == EXIT_IO
        assert f"Error: {message}" in result.stderr

    @pytest.mark.parametrize("args", [["--help"], ["--version"], ["evaluate", "--help"]])
    def test_help_and_version_exit_0(self, runner, args):
        assert runner.invoke(main, args).exit_code == 0

    def test_out_of_range_prediction_exits_1(self, runner, mini_dirs, tmp_path):
        gt_dir, pred_dir = mini_dirs
        f = pred_dir / "seq-a__e1.txt"
        f.write_text(f.read_text() + "999,late,0,0,5,5,0.9,0.9\n")
        n_lines = len(f.read_text().splitlines())
        result = runner.invoke(
            main, ["evaluate", str(gt_dir), str(pred_dir), "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == EXIT_IO
        assert f"FRAME_OUT_OF_RANGE at {f}:{n_lines}: frame 999 " in result.stderr
        assert not (tmp_path / "o" / "report.json").exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_first_malformed_unit_in_order_reported(self, runner, mini_dirs, tmp_path, workers):
        gt_dir, pred_dir = mini_dirs
        # unit 0 (seq-a/e1, frames 1-10) fails on its last line, after 20k
        # valid ones; unit 1 (seq-a/e2) fails on its first line, so with two
        # workers unit 1's error is ready first
        first = pred_dir / "seq-a__e1.txt"
        rows = [f"{f},t{t},0,0,5,5,0.9,0.9" for f in range(1, 11) for t in range(2000)]
        first.write_text("\n".join(rows + ["1,late,0,0,5,5,0.9,1.5"]) + "\n")
        (pred_dir / "seq-a__e2.txt").write_text("3,a2,nan,0,5,5,0.9,0.9\n")
        for _ in range(5):
            out = tmp_path / "o"
            result = runner.invoke(
                main,
                ["evaluate", str(gt_dir), str(pred_dir), "--workers", workers,
                 "--out", str(out)],
            )
            assert result.exit_code == EXIT_IO
            assert result.stderr.startswith(f"error: SCORE_RANGE at {first}:{len(rows) + 1}: ")
            assert not (out / "report.json").exists()

    def test_attribute_rows_past_gt_sequence_exit_2(self, runner, mini_dirs, tmp_path):
        gt_dir, pred_dir = mini_dirs
        # seq-c has 5 frames in GT_DIR but 9 in the --attributes bundle
        attr_dir = tmp_path / "attrs"
        night = AttributeFrameLabels(
            "seq-c", {f: frozenset({Attribute.NIGHT}) for f in range(1, 10)}
        )
        write_bundle(attr_dir, {"seq-c": SequenceData("seq-c", 9, {})}, [], {"seq-c": night})
        out = tmp_path / "o"
        result = runner.invoke(
            main,
            ["evaluate", str(gt_dir), str(pred_dir), "--attributes", str(attr_dir),
             "--out", str(out)],
        )
        assert result.exit_code == 2
        for frame in (6, 7, 8, 9):
            assert (
                f"violation: FRAME_OUT_OF_BOUNDS in seq-c: attribute row for frame {frame} "
                "outside [1, 5]"
            ) in result.stderr
        assert not (out / "report.json").exists()

    def test_attribute_rows_past_gt_sequence_allowed(self, runner, mini_dirs, tmp_path):
        gt_dir, pred_dir = mini_dirs
        # seq-b has 20 frames in GT_DIR but 30 in the --attributes bundle
        attr_dir = tmp_path / "attrs"
        day = AttributeFrameLabels("seq-b", {f: frozenset({Attribute.DAY}) for f in range(1, 31)})
        write_bundle(attr_dir, {"seq-b": SequenceData("seq-b", 30, {})}, [], {"seq-b": day})
        out = tmp_path / "o"
        result = runner.invoke(
            main,
            ["evaluate", str(gt_dir), str(pred_dir), "--attributes", str(attr_dir),
             "--allow-violations", "--out", str(out)],
        )
        assert result.exception is None, result.output
        assert result.exit_code == 0
        assert "Traceback" not in result.output
        for frame in range(21, 31):
            assert (
                f"violation: FRAME_OUT_OF_BOUNDS in seq-b: attribute row for frame {frame} "
                "outside [1, 20]"
            ) in result.stderr
        # the rows past the sequence are neither evaluated nor counted
        attrs = json.loads((out / "report.json").read_text())["attributes"]
        assert attrs["frame_counts"]["day"] == 20
        assert attrs["per_attribute"]["day"] == 100.0

    @staticmethod
    def _labels_with_unknown_sequence(mini_bundle, attr_dir):
        # GT_DIR's own seq-a labels, plus a 50-frame seq-z that GT_DIR lacks
        night = AttributeFrameLabels(
            "seq-z", {f: frozenset({Attribute.NIGHT}) for f in range(1, 51)}
        )
        write_bundle(
            attr_dir,
            {"seq-a": mini_bundle.sequences["seq-a"], "seq-z": SequenceData("seq-z", 50, {})},
            [],
            {"seq-a": mini_bundle.attributes["seq-a"], "seq-z": night},
        )
        return (
            "violation: UNKNOWN_SEQUENCE in seq-z: attribute labels for 50 frame(s) "
            "reference unknown sequence"
        )

    def test_attribute_labels_for_unknown_sequence_exit_2(
        self, runner, mini_dirs, mini_bundle, tmp_path
    ):
        gt_dir, pred_dir = mini_dirs
        attr_dir = tmp_path / "attrs"
        violation = self._labels_with_unknown_sequence(mini_bundle, attr_dir)
        out = tmp_path / "o"
        result = runner.invoke(
            main,
            ["evaluate", str(gt_dir), str(pred_dir), "--attributes", str(attr_dir),
             "--out", str(out)],
        )
        assert result.exit_code == 2
        assert violation in result.stderr
        assert not (out / "report.json").exists()

    def test_attribute_labels_for_unknown_sequence_allowed(
        self, runner, mini_dirs, mini_bundle, tmp_path
    ):
        gt_dir, pred_dir = mini_dirs
        attr_dir = tmp_path / "attrs"
        violation = self._labels_with_unknown_sequence(mini_bundle, attr_dir)
        result = runner.invoke(
            main,
            ["evaluate", str(gt_dir), str(pred_dir), "--attributes", str(attr_dir),
             "--allow-violations", "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 0, result.output
        assert violation in result.stderr
        # seq-z's labels are neither evaluated nor counted: the attribute
        # report is GT_DIR's own
        result = runner.invoke(
            main, ["evaluate", str(gt_dir), str(pred_dir), "--out", str(tmp_path / "own")]
        )
        assert result.exit_code == 0, result.output
        attrs, own = (
            json.loads((tmp_path / d / "report.json").read_text())["attributes"]
            for d in ("o", "own")
        )
        assert attrs["frame_counts"]["night"] == 5
        assert attrs == own

    @pytest.mark.parametrize(
        "frame, code", [(0, "FRAME_INDEX"), (-4, "FRAME_INDEX"), (99, "FRAME_OUT_OF_RANGE")]
    )
    def test_attribute_row_outside_sequence_exits_1(
        self, runner, mini_dirs, tmp_path, frame, code
    ):
        gt_dir, pred_dir = mini_dirs
        f = gt_dir / "seq-a" / "attributes.txt"  # seq-a has frames 1-10
        f.write_text(f.read_text() + f"{frame},0,1,0,0,0,0,0,0\n")
        n_lines = len(f.read_text().splitlines())
        out = tmp_path / "o"
        result = runner.invoke(main, ["evaluate", str(gt_dir), str(pred_dir), "--out", str(out)])
        assert result.exit_code == EXIT_IO
        assert f"{code} at {f}:{n_lines}" in result.stderr
        assert isinstance(result.exception, SystemExit)
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize(
        "args, env",
        [
            (["--alphas", "a,b"], {}),
            (["--alphas", "0.5,0.3"], {}),
            (["--score-threshold", "2"], {}),
            ([], {"RMOT_EVAL_WORKERS": "abc"}),
        ],
        ids=["alphas-not-numbers", "alphas-not-increasing", "threshold-above-1", "env-workers"],
    )
    def test_bad_option_exits_1(self, runner, mini_dirs, tmp_path, args, env):
        gt_dir, pred_dir = mini_dirs
        result = runner.invoke(
            main,
            ["evaluate", str(gt_dir), str(pred_dir), "--out", str(tmp_path / "o"), *args],
            env=env,
        )
        assert result.exit_code == EXIT_IO
        assert result.stderr.startswith("error: invalid option: ")
        assert isinstance(result.exception, SystemExit)

    def test_manifest_records_attribute_bundle_and_aggregation(
        self, runner, mini_dirs, mini_bundle, tmp_path
    ):
        gt_dir, pred_dir = mini_dirs
        attr_dir = tmp_path / "attrs"
        write_bundle(attr_dir, mini_bundle.sequences, [], mini_bundle.attributes)
        runs = {
            "other": ["--attributes", str(attr_dir), "--macro"],
            "same": ["--attributes", str(gt_dir)],
            "none": [],
        }
        manifests = {}
        for name, args in runs.items():
            out = tmp_path / name
            result = runner.invoke(
                main, ["evaluate", str(gt_dir), str(pred_dir), "--out", str(out), *args]
            )
            assert result.exit_code == 0, result.output
            manifests[name] = json.loads((out / "run_manifest.json").read_text())
            report = json.loads((out / "report.json").read_text())
            assert manifests[name]["config"] == report["config"]

        inputs = manifests["other"]["inputs"]
        assert inputs.keys() == {"gt_dir", "pred_dir", "attributes_dir"}
        assert inputs["attributes_dir"]["path"] == str(attr_dir)
        assert inputs["attributes_dir"]["digests"] == {
            str(f.relative_to(attr_dir)): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in attr_dir.rglob("*")
            if f.is_file()
        }
        assert manifests["other"]["config"]["aggregation"] == "macro"
        for name in ("same", "none"):
            assert manifests[name]["inputs"].keys() == {"gt_dir", "pred_dir"}
            assert manifests[name]["config"]["aggregation"] == "pooled"

    def test_negative_workers_run_on_one(self, runner, mini_dirs, tmp_path):
        gt_dir, pred_dir = mini_dirs
        out = tmp_path / "o"
        result = runner.invoke(
            main, ["evaluate", str(gt_dir), str(pred_dir), "--workers", "-3", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        assert json.loads((out / "run_manifest.json").read_text())["workers"] == 1

    def test_value_error_inside_evaluation_propagates(
        self, runner, mini_dirs, tmp_path, monkeypatch
    ):
        # only option errors become ``error: …``; a fault in the evaluation
        # itself is a bug and must surface as one
        def broken(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr("rmot_eval.cli.evaluate", broken)
        gt_dir, pred_dir = mini_dirs
        result = runner.invoke(
            main, ["evaluate", str(gt_dir), str(pred_dir), "--out", str(tmp_path / "o")]
        )
        assert isinstance(result.exception, ValueError) and str(result.exception) == "boom"

    def test_non_utf8_prediction_exits_1(self, runner, mini_dirs, tmp_path):
        gt_dir, pred_dir = mini_dirs
        f = pred_dir / "seq-a__e1.txt"
        f.write_bytes(f.read_bytes() + b"\xff\xfe\n")
        n_lines = len(f.read_bytes().splitlines())
        result = runner.invoke(
            main, ["evaluate", str(gt_dir), str(pred_dir), "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == EXIT_IO
        assert f"ENCODING at {f}:{n_lines}" in result.stderr
        assert isinstance(result.exception, SystemExit)

    def test_beta_ref_monotone_retention(self, runner, mini_dirs, tmp_path):
        gt_dir, pred_dir = mini_dirs
        # weaken one prediction's referring score so 0.6 drops it but 0.4 keeps it
        f = pred_dir / "seq-a__e1.txt"
        lines = f.read_text().splitlines()
        lines[0] = ",".join(lines[0].split(",")[:7] + ["0.5"])
        f.write_text("\n".join(lines) + "\n")
        counts = {}
        for beta in ("0.6", "0.4"):
            out = tmp_path / f"o{beta}"
            result = runner.invoke(
                main,
                ["evaluate", str(gt_dir), str(pred_dir), "--beta-ref", beta,
                 "--out", str(out)],
            )
            assert result.exit_code == 0
            report = json.loads((out / "report.json").read_text())
            row = report["metrics"]["per_alpha"][0]
            counts[beta] = row["tp"] + row["fp"]
        assert counts["0.6"] <= counts["0.4"]

    def test_macro_flag_recorded(self, runner, mini_dirs, tmp_path):
        gt_dir, pred_dir = mini_dirs
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["evaluate", str(gt_dir), str(pred_dir), "--macro", "--out", str(out)]
        )
        assert result.exit_code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["aggregation"] == "macro"
        assert "MACRO_AGGREGATION" in report["metrics"]["flags"]


class TestStatsCommand:
    def test_mini_fixture(self, runner, mini_dirs, tmp_path):
        gt_dir, _ = mini_dirs
        out = tmp_path / "stats"
        result = runner.invoke(main, ["stats", str(gt_dir), "--out", str(out)])
        assert result.exit_code == 0, result.output
        stats = json.loads((out / "stats.json").read_text())
        assert stats["videos"] == 3
        assert stats["frames"] == 35
        assert stats["expressions_total"] == 4
        assert stats["bbox_total"] == 29
        assert (out / "temporal_ratio_histogram.csv").exists()

    def test_empty_directory_exits_1(self, runner, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        result = runner.invoke(main, ["stats", str(empty)])
        assert result.exit_code == 1

    @pytest.mark.parametrize(
        "doc, edit, code",
        [
            ("manifest.json", _sequence_listed_twice, "DUPLICATE_SEQUENCE"),
            ("manifest.json", _split_not_string, "FIELD_TYPE"),
            ("expressions.json", _text_null, "FIELD_TYPE"),
        ],
    )
    def test_mistyped_document_exits_1(self, runner, mini_dirs, tmp_path, doc, edit, code):
        gt_dir, _ = mini_dirs
        path = gt_dir / doc
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        out = tmp_path / "stats"
        result = runner.invoke(main, ["stats", str(gt_dir), "--out", str(out)])
        assert result.exit_code == EXIT_IO
        assert result.stderr.startswith(f"error: {code} at {path}: ")
        assert not (out / "stats.json").exists()


class TestSynthCommand:
    def test_deterministic_output_trees(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SYNTH_CONFIG))
        for name in ("a", "b"):
            result = runner.invoke(main, ["synth", str(cfg), str(tmp_path / name)])
            assert result.exit_code == 0, result.output
        files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_zero_perturbation_evaluates_to_100(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SYNTH_CONFIG))
        result = runner.invoke(main, ["synth", str(cfg), str(tmp_path / "gen")])
        assert result.exit_code == 0
        out = tmp_path / "eval"
        result = runner.invoke(
            main,
            ["evaluate", str(tmp_path / "gen" / "bundle"),
             str(tmp_path / "gen" / "predictions"), "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        assert report["display"]["HOTA"] == "100.00"

    def test_config_not_an_object_exits_1(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[]")
        result = runner.invoke(main, ["synth", str(cfg), str(tmp_path / "gen")])
        assert result.exit_code == EXIT_IO
        assert "error: config must define a non-empty 'scenarios' list" in result.stderr
        assert isinstance(result.exception, SystemExit)

    def test_invalid_config_exits_1(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenarios": [{"seed": 1, "n_tracks": -2}]}))
        result = runner.invoke(main, ["synth", str(cfg), str(tmp_path / "gen")])
        assert result.exit_code == 1

    @pytest.mark.parametrize(
        "scenario, field",
        [
            ({"box_size_range": [20.5, 50]}, "box_size_range"),
            ({"frame_size": [100.5, 100], "box_size_range": [20, 50]}, "frame_size"),
            ({"max_step": -2}, "max_step"),
            ({"n_tracks": 2.5}, "n_tracks"),
            ({"sequence_length": 2.5}, "sequence_length"),
            ({"n_expressions": True}, "n_expressions"),
            ({"seed": -3}, "seed"),
        ],
    )
    def test_invalid_scenario_exits_1(self, runner, tmp_path, scenario, field):
        cfg = tmp_path / "cfg.json"
        doc = {"scenarios": [{**SYNTH_CONFIG["scenarios"][0], **scenario}]}
        cfg.write_text(json.dumps(doc))
        result = runner.invoke(main, ["synth", str(cfg), str(tmp_path / "gen")])
        assert result.exit_code == EXIT_IO
        assert result.stderr.startswith(f"error: invalid config: {field} must ")
        assert not (tmp_path / "gen").exists()

    @pytest.mark.parametrize(
        "pert",
        [
            {"confidence_range": [0.5, 1.5]},
            {"referring_range": [0.6, 0.4]},
            {"fp_box_size_range": [0, 0]},
            {"fp_box_size_range": [80, 20]},
            {"fp_box_size_range": [20.5, 80]},
            {"jitter": 1.5},
            {"jitter": True},
        ],
    )
    def test_invalid_perturbation_exits_1(self, runner, tmp_path, pert):
        cfg = tmp_path / "cfg.json"
        doc = {**SYNTH_CONFIG, "perturbation": {"seed": 5, "fp_rate": 2.0, **pert}}
        cfg.write_text(json.dumps(doc))
        result = runner.invoke(main, ["synth", str(cfg), str(tmp_path / "gen")])
        assert result.exit_code == EXIT_IO
        assert result.stderr.startswith("error: invalid config: ")
        assert isinstance(result.exception, SystemExit)
        assert not (tmp_path / "gen").exists()

    def test_non_integer_jitter_names_the_field(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SYNTH_CONFIG, "perturbation": {"seed": 5, "jitter": 1.5}}))
        result = runner.invoke(main, ["synth", str(cfg), str(tmp_path / "gen")])
        assert result.exit_code == EXIT_IO
        assert result.stderr == (
            "error: invalid config: jitter must be an integer >= 0, got 1.5\n"
        )

    @pytest.mark.parametrize(
        "sequence_id",
        ["../escape", "../../x", "a/b", "..", "", 7, "manifest.json", "expressions.json"],
    )
    def test_unsafe_sequence_id_exits_1_and_writes_nothing(self, runner, tmp_path, sequence_id):
        cfg = tmp_path / "cfg.json"
        doc = {"scenarios": [{**SYNTH_CONFIG["scenarios"][0], "sequence_id": sequence_id}]}
        cfg.write_text(json.dumps(doc))
        # an id that climbs two levels would still land under tmp_path
        result = runner.invoke(main, ["synth", str(cfg), str(tmp_path / "out" / "gen")])
        assert result.exit_code == EXIT_IO
        assert result.stderr.startswith(
            "error: invalid config: sequence_id must be a string that can name a file or directory"
        )
        assert [p.name for p in tmp_path.rglob("*")] == ["cfg.json"]

    def test_repeated_sequence_id_exits_1_and_writes_nothing(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        scenario = {**SYNTH_CONFIG["scenarios"][0], "sequence_id": "s"}
        cfg.write_text(json.dumps({"scenarios": [scenario, {**scenario, "seed": 12}]}))
        result = runner.invoke(main, ["synth", str(cfg), str(tmp_path / "gen")])
        assert result.exit_code == EXIT_IO
        assert result.stderr == "error: invalid config: scenario 1 repeats sequence_id 's'\n"
        assert not (tmp_path / "gen").exists()

    def test_byte_order_mark_skipped(self, runner, tmp_path):
        for name, encoding in (("plain", "utf-8"), ("marked", "utf-8-sig")):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(SYNTH_CONFIG), encoding=encoding)
            result = runner.invoke(main, ["synth", str(cfg), str(tmp_path / name)])
            assert result.exit_code == 0, result.output
        tree = {
            name: {
                str(p.relative_to(tmp_path / name)): p.read_bytes()
                for p in (tmp_path / name).rglob("*") if p.is_file()
            }
            for name in ("plain", "marked")
        }
        assert tree["plain"] and tree["plain"] == tree["marked"]


class TestValidateCommand:
    def test_clean_fixture(self, runner, mini_dirs):
        gt_dir, _ = mini_dirs
        result = runner.invoke(main, ["validate", str(gt_dir)])
        assert result.exit_code == 0
        assert "0 violation(s)" in result.output

    def test_day_night_conflict_exits_2(self, runner, mini_dirs):
        gt_dir, _ = mini_dirs
        attr_file = gt_dir / "seq-a" / "attributes.txt"
        lines = attr_file.read_text().splitlines()
        # force day and night together on frame 1 (row 1 after header)
        fields = lines[1].split(",")
        fields[1] = fields[2] = "1"
        lines[1] = ",".join(fields)
        attr_file.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["validate", str(gt_dir)])
        assert result.exit_code == 2
        assert "ATTR_DAY_NIGHT_CONFLICT" in result.output

    def test_unreadable_path_exits_1(self, runner, tmp_path):
        result = runner.invoke(main, ["validate", str(tmp_path / "nope")])
        assert result.exit_code == 1

    def test_violation_report_written(self, runner, mini_dirs, tmp_path):
        gt_dir, _ = mini_dirs
        out = tmp_path / "violations.json"
        result = runner.invoke(main, ["validate", str(gt_dir), "--out", str(out)])
        assert result.exit_code == 0
        assert json.loads(out.read_text()) == []


# Runs the CLI with the arguments after the first, recording in the file
# named by the first the pid of any process (the CLI or a forked worker)
# that imports numpy.ma; prints the exit code and whether the CLI process
# holds numpy.ma at the end.
IMPORT_GUARD_RUN = """
import json, os, sys
marker = sys.argv[1]

def hook(event, args):
    if event == "import" and args[0] == "numpy.ma":
        with open(marker, "a") as f:
            f.write(f"{os.getpid()}\\n")

sys.addaudithook(hook)
from rmot_eval.cli import main
try:
    main(sys.argv[2:])
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "numpy.ma": "numpy.ma" in sys.modules}))
"""


# Imports the CLI in a fresh interpreter; prints the lazily loaded modules it
# loaded, then resolves every public name of the package.
LAZY_IMPORT_RUN = """
import json, sys
import rmot_eval.cli
lazy = ("rmot_eval.synth", "rmot_eval.stats", "multiprocessing")
loaded = [m for m in lazy if m in sys.modules]
import rmot_eval
unresolved = [n for n in rmot_eval.__all__ if getattr(rmot_eval, n, None) is None]
print(json.dumps({"loaded": loaded, "unresolved": unresolved}))
"""


class TestImports:
    def test_cli_import_loads_only_what_evaluate_runs(self):
        # synth, stats and multiprocessing are imported by the commands and
        # the worker pool that use them, and the package's names on first use
        src = Path(__file__).resolve().parents[1] / "src"
        path = [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        done = subprocess.run(
            [sys.executable, "-c", LAZY_IMPORT_RUN],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == {"loaded": [], "unresolved": []}

    def test_evaluate_never_imports_numpy_ma(self, runner, tmp_path):
        # numpy.unique imports numpy.ma (about 30 ms per run on numpy 2.4),
        # so it stays off the evaluate path, workers included
        cfg = tmp_path / "cfg.json"
        # small crowded frames, so units reach the closed forms and the solver
        scene = {"n_expressions": 2, "frame_size": [160, 120], "box_size_range": [20, 50]}
        cfg.write_text(json.dumps({
            "scenarios": [
                {"seed": 11, "sequence_length": 30, "n_tracks": 12, **scene},
                {"seed": 12, "sequence_length": 20, "n_tracks": 10, "sequence_id": "synth-0001",
                 **scene},
            ],
            "perturbation": {
                "seed": 5, "miss_rate": 0.1, "fp_rate": 3.0, "idswitch_rate": 0.05, "jitter": 4,
                "frame_size": [160, 120],
            },
        }))
        result = runner.invoke(main, ["synth", str(cfg), str(tmp_path / "gen")])
        assert result.exit_code == 0, result.output
        assert list((tmp_path / "gen" / "bundle").glob("*/attributes.txt"))
        src = Path(__file__).resolve().parents[1] / "src"
        path = [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        marker = tmp_path / "numpy-ma-imports"
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_GUARD_RUN, str(marker), "evaluate",
             str(tmp_path / "gen" / "bundle"), str(tmp_path / "gen" / "predictions"),
             "--workers", "2", "--out", str(tmp_path / "eval")],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        run = json.loads(done.stdout.splitlines()[-1])
        assert run == {"code": 0, "numpy.ma": False}
        assert not marker.exists()
