"""File formats: parsers, writers, round-trips, error codes, reports."""

import json
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from rmot_eval import io_formats
from rmot_eval.io_formats import (
    ParseError,
    PredictionFiles,
    load_bundle,
    parse_attributes,
    parse_expressions,
    parse_gt,
    parse_predictions,
    report_payload,
    read_report,
    tasks_to_intervals,
    unit_filename,
    write_attributes,
    write_bundle,
    write_expressions,
    write_gt,
    write_predictions,
    write_report,
)
from rmot_eval.hota import AlphaStats, finalize
from rmot_eval.model import (
    DEFAULT_ALPHA_GRID,
    Attribute,
    BoundingBox,
    Detection,
    SequenceData,
    UnitBoxes,
)

from .conftest import build_mini_bundle, perfect_predictions, task_from_tracks


class TestGtFormat:
    def test_parse_line(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_text("1,7,10,10,20,20\n")
        tracks = parse_gt(p)
        assert set(tracks) == {"7"}
        b = tracks["7"].boxes[1]
        assert (b.x, b.y, b.w, b.h) == (10.0, 10.0, 20.0, 20.0)

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_text("frame,track_id,x,y,w,h\n1,7,0,0,5,5\n")
        assert set(parse_gt(p)) == {"7"}

    @pytest.mark.parametrize(
        "name, text",
        [
            ("gt.txt", ",7,0,0,5,5\n2,7,0,0,5,5\n"),
            ("pred.txt", ",p1,1,1,5,5,0.9,0.9\n2,p1,1,1,5,5,0.9,0.9\n"),
            ("attributes.txt", "x,0,1,0,0,0,0,0,0\n2,1,0,0,0,0,0,0,0\n"),
        ],
    )
    def test_first_line_with_a_number_is_data(self, tmp_path, name, text):
        # a header holds no number, so a first row with a bad frame is an error
        p = tmp_path / name
        p.write_text(text)
        parse = {
            "gt.txt": parse_gt,
            "pred.txt": parse_predictions,
            "attributes.txt": lambda path: parse_attributes(path, "s", 2),
        }[name]
        with pytest.raises(ParseError) as exc:
            parse(p)
        assert (exc.value.code, exc.value.line) == ("FIELD_TYPE", 1)

    def test_field_count_error(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_text("1,7,10,10\n")
        with pytest.raises(ParseError) as exc:
            parse_gt(p)
        assert exc.value.code == "LINE_FIELD_COUNT" and exc.value.line == 1

    def test_duplicate_box_error(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_text("1,7,0,0,5,5\n1,7,1,1,5,5\n")
        with pytest.raises(ParseError) as exc:
            parse_gt(p)
        assert exc.value.code == "DUPLICATE_BOX"

    def test_bad_frame_index(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_text("0,7,0,0,5,5\n")
        with pytest.raises(ParseError) as exc:
            parse_gt(p)
        assert exc.value.code == "FRAME_INDEX"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e999"])
    @pytest.mark.parametrize("column", [2, 3, 4, 5])
    def test_non_finite_coordinate_rejected(self, tmp_path, value, column):
        fields = ["1", "7", "0", "0", "5", "5"]
        fields[column] = value
        p = tmp_path / "gt.txt"
        p.write_text("1,8,0,0,5,5\n" + ",".join(fields) + "\n")
        with pytest.raises(ParseError) as exc:
            parse_gt(p)
        assert exc.value.code == "NON_FINITE" and exc.value.line == 2

    def test_large_finite_coordinates_accepted(self, tmp_path):
        # their sum overflows to inf; each value on its own is finite
        p = tmp_path / "gt.txt"
        p.write_text("1,7,1e308,1e308,1e308,1e308\n")
        assert parse_gt(p)["7"].boxes[1].x == 1e308

    def test_round_trip(self, tmp_path, mini_bundle):
        tracks = mini_bundle.sequences["seq-a"].tracks
        p = tmp_path / "gt.txt"
        write_gt(tracks, p)
        parsed = parse_gt(p)
        assert {t: dict(tr.boxes) for t, tr in parsed.items()} == {
            t: dict(tr.boxes) for t, tr in tracks.items()
        }

    def test_crlf_accepted(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_bytes(b"1,7,0,0,5,5\r\n2,7,0,0,5,5\r\n")
        assert sorted(parse_gt(p)["7"].boxes) == [1, 2]


class TestAttributesFormat:
    def test_parse_row(self, tmp_path):
        p = tmp_path / "attributes.txt"
        p.write_text("1,1,0,0,0,0,0,0,0\n2,1,0,0,0,0,0,0,0\n3,1,0,0,1,0,0,0,0\n")
        labels = parse_attributes(p, "s", 3)
        assert labels.flags[3] == frozenset({Attribute.DAY, Attribute.SCALE_VARIATION})

    def test_missing_frame_row(self, tmp_path):
        p = tmp_path / "attributes.txt"
        p.write_text("".join(f"{f},1,0,0,0,0,0,0,0\n" for f in (1, 2, 3, 5)))
        with pytest.raises(ParseError) as exc:
            parse_attributes(p, "s", 5)
        assert exc.value.code == "MISSING_FRAME_ROW"

    def test_non_binary_cell(self, tmp_path):
        p = tmp_path / "attributes.txt"
        p.write_text("1,1,0,0,2,0,0,0,0\n")
        with pytest.raises(ParseError) as exc:
            parse_attributes(p, "s", 1)
        assert exc.value.code == "NON_BINARY_CELL"

    @pytest.mark.parametrize(
        "frame, code",
        [
            (0, "FRAME_INDEX"), (-4, "FRAME_INDEX"), (99, "FRAME_OUT_OF_RANGE"),
            (1, "DUPLICATE_FRAME_ROW"),  # a frame listed twice
        ],
    )
    def test_row_outside_sequence(self, tmp_path, frame, code):
        p = tmp_path / "attributes.txt"
        rows = [f"{f},1,0,0,0,0,0,0,0" for f in (1, 2, frame, 3)]
        p.write_text("frame,day,night,vc,sv,occ,fm,rot,lr\n" + "\n".join(rows) + "\n")
        with pytest.raises(ParseError) as exc:
            parse_attributes(p, "s", 3)
        assert exc.value.code == code and exc.value.line == 4

    @pytest.mark.parametrize("header", ["", "frame,day,night,vc,sv,occ,fm,rot,lr\n"])
    def test_byte_order_mark_skipped(self, tmp_path, header):
        # the mark must not turn the first row into a header
        p = tmp_path / "attributes.txt"
        rows = "1,0,1,0,0,0,0,0,0\n2,1,0,0,0,0,0,0,0\n"
        p.write_text(header + rows, encoding="utf-8-sig")
        labels = parse_attributes(p, "s", 2)
        assert labels.flags == {1: frozenset({Attribute.NIGHT}), 2: frozenset({Attribute.DAY})}

    def test_round_trip(self, tmp_path, mini_bundle):
        labels = mini_bundle.attributes["seq-a"]
        p = tmp_path / "attributes.txt"
        write_attributes(labels, p)
        assert parse_attributes(p, "seq-a", 10) == labels


class TestPredictionsFormat:
    def test_parse_line(self, tmp_path):
        p = tmp_path / "pred.txt"
        p.write_text("1,3,5,5,10,10,0.9,0.8\n")
        dets = parse_predictions(p)
        assert len(dets) == 1
        d = dets[0]
        assert d.track_id == "3" and d.confidence == 0.9 and d.referring_score == 0.8

    def test_score_range_error(self, tmp_path):
        p = tmp_path / "pred.txt"
        p.write_text("1,3,5,5,10,10,1.5,0.8\n")
        with pytest.raises(ParseError) as exc:
            parse_predictions(p)
        assert exc.value.code == "SCORE_RANGE"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", [2, 3, 4, 5])
    def test_non_finite_coordinate_rejected(self, tmp_path, value, column):
        fields = ["1", "3", "5", "5", "10", "10", "0.9", "0.8"]
        fields[column] = value
        p = tmp_path / "pred.txt"
        p.write_text(",".join(fields) + "\n")
        with pytest.raises(ParseError) as exc:
            parse_predictions(p)
        assert exc.value.code == "NON_FINITE" and exc.value.line == 1

    def test_large_finite_coordinates_accepted(self, tmp_path):
        p = tmp_path / "pred.txt"
        p.write_text("1,3,1e308,1e308,1e308,1e308,0.9,0.8\n")
        assert parse_predictions(p)[0].box.w == 1e308

    def test_empty_file_is_valid(self, tmp_path):
        p = tmp_path / "pred.txt"
        p.write_text("")
        assert parse_predictions(p) == []

    def test_duplicate_rejected(self, tmp_path):
        p = tmp_path / "pred.txt"
        p.write_text("1,3,5,5,10,10,0.9,0.8\n1,3,6,6,10,10,0.9,0.8\n")
        with pytest.raises(ParseError) as exc:
            parse_predictions(p)
        assert exc.value.code == "DUPLICATE_BOX"

    def test_round_trip(self, tmp_path, mini_bundle):
        dets = perfect_predictions(mini_bundle.tasks[2])
        p = tmp_path / "pred.txt"
        write_predictions(dets, p)
        assert parse_predictions(p) == sorted(
            dets, key=lambda d: (d.frame, d.track_id)
        )

    def test_unit_filename(self):
        assert unit_filename("seq-a", "e1") == "seq-a__e1.txt"

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.builds(
                Detection,
                frame=st.integers(1, 6),
                box=st.builds(
                    BoundingBox,
                    *[st.one_of(st.integers(-9, 99).map(float), st.floats(-1e300, 1e300))] * 4,
                ),
                confidence=st.floats(0.0, 1.0),
                referring_score=st.floats(0.0, 1.0),
                track_id=st.sampled_from(["a", "b", "a#sw1", "fp-1-0", "fp-1-10", "fp-1-2"]),
            ),
            max_size=15,
        )
    )
    def test_columns_write_the_bytes_of_the_list(self, tmp_path_factory, dets):
        # repeated (frame, id) rows included: each keeps its place among equals
        folder = tmp_path_factory.mktemp("write")
        write_predictions(dets, folder / "list.txt")
        write_predictions(UnitBoxes.from_detections(dets), folder / "columns.txt")
        assert (folder / "columns.txt").read_bytes() == (folder / "list.txt").read_bytes()


_PRED_HEADER = "frame,track_id,x,y,w,h,confidence,referring_score"
_INT64_MAX = 2**63 - 1
_FAULT_KINDS = (
    "field_count", "non_integer", "int64_overflow", "below_one", "after_length",
    "non_numeric", "non_finite", "score", "duplicate",
)
_NOT_NUMBERS = ("x", "", "1.2.3", "0x1", "--1")


def _pred_row(length):
    """A valid prediction row: (frame, track id, x, y, w, h, conf, ref)."""
    coord = st.floats(allow_nan=False, allow_infinity=False)
    score = st.floats(0.0, 1.0)
    return st.tuples(
        st.integers(1, length or _INT64_MAX),
        st.text(alphabet="ab7-_é ", max_size=3),
        coord, coord, coord, coord, score, score,
    )


def _pred_fields(row):
    return [str(row[0]), row[1]] + [repr(v) for v in row[2:]]


_ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


def _spelled(token, how):
    """``token`` spelled another way that ``int``/``float`` read as the same
    number: a leading space or ``+``, a ``_`` between two digits, or
    Arabic-Indic digits (U+0660-U+0669)."""
    if how == "space":
        return " " + token
    if how == "plus" and not token.startswith("-"):
        return "+" + token
    if how == "underscore":
        for i in range(1, len(token)):
            if token[i - 1].isdigit() and token[i].isdigit():
                return token[:i] + "_" + token[i:]
    if how == "arabic":
        return token.translate(_ARABIC_INDIC)
    return token


_SPELLINGS = ("plain", "space", "plus", "underscore", "arabic")


@st.composite
def _prediction_files(draw):
    """(file text, length, valid rows in file order, first fault's (code,
    line) or None): valid rows with their numbers spelled in any way
    ``int``/``float`` accept, an optional header, an optional UTF-8
    byte-order mark before the first line (a header or a row), LF, CRLF or
    lone CR line ends, blank lines, and 0-2 faulty lines of different
    kinds."""
    length = draw(st.none() | st.integers(1, 30))
    rows = draw(st.lists(_pred_row(length), max_size=12, unique_by=lambda r: r[:2]))
    body = []
    for r in rows:
        fields = _pred_fields(r)
        for i in (0, 2, 3, 4, 5, 6, 7):  # every field but the track id
            fields[i] = _spelled(fields[i], draw(st.sampled_from(_SPELLINGS)))
        body.append((",".join(fields), None))
    kinds = [k for k in _FAULT_KINDS if k != "after_length" or length is not None]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=2, unique=True)):
        fields = _pred_fields(draw(_pred_row(length)))
        at = draw(st.integers(0, len(body)))
        code = {
            "field_count": "LINE_FIELD_COUNT",
            "non_integer": "FIELD_TYPE",
            "int64_overflow": "FIELD_TYPE" if length is None else "FRAME_OUT_OF_RANGE",
            "below_one": "FRAME_INDEX",
            "after_length": "FRAME_OUT_OF_RANGE",
            "non_numeric": "FIELD_TYPE",
            "non_finite": "NON_FINITE",
            "score": "SCORE_RANGE",
            "duplicate": "DUPLICATE_BOX",
        }[kind]
        if kind == "field_count":
            n = draw(st.sampled_from([1, 2, 6, 7, 9]))
            fields = (fields + ["0"])[:n]
        elif kind == "non_integer":
            fields[0] = draw(st.sampled_from(["1.5", "2e3", "nan", "inf", "x", ""]))
        elif kind == "int64_overflow":
            fields[0] = str(_INT64_MAX + draw(st.integers(1, 10**6)))
        elif kind == "below_one":
            fields[0] = str(draw(st.integers(-5, 0)))
        elif kind == "after_length":
            fields[0] = str(length + draw(st.integers(1, 5)))
        elif kind == "non_numeric":
            fields[draw(st.integers(2, 5))] = draw(st.sampled_from(_NOT_NUMBERS))
        elif kind == "non_finite":
            bad = draw(st.sampled_from(["nan", "inf", "-inf", "1e999"]))
            fields[draw(st.integers(2, 5))] = bad
        elif kind == "score":
            bad = draw(st.sampled_from(["1.5", "-0.25", "nan", "inf"]))
            fields[draw(st.integers(6, 7))] = bad
        else:
            valid_before = [i for i, (_, c) in enumerate(body) if c is None]
            if not valid_before:
                continue
            at = draw(st.integers(valid_before[0] + 1, len(body)))
            earlier = draw(st.sampled_from([i for i in valid_before if i < at]))
            fields[:2] = body[earlier][0].split(",")[:2]
        body.insert(at, (",".join(fields), code))
    for _ in range(draw(st.integers(0, 3))):
        body.insert(draw(st.integers(0, len(body))), ("", None))
    if draw(st.booleans()):
        body.insert(0, (_PRED_HEADER, None))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = draw(st.sampled_from(["", "\ufeff"])) + "".join(line + eol for line, _ in body)
    faults = [(c, i) for i, (_, c) in enumerate(body, start=1) if c is not None]
    return text, length, rows, faults[0] if faults else None


class TestPredictionsFirstError:
    # without the explain phase, which takes minutes on this strategy
    @settings(max_examples=300, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink],
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=_prediction_files())
    def test_columns_or_first_faulty_line(self, tmp_path, case):
        text, length, rows, fault = case
        p = tmp_path / "pred.txt"
        p.write_bytes(text.encode("utf-8"))
        if fault is not None:
            with pytest.raises(ParseError) as exc:
                parse_predictions(p, length)
            assert (exc.value.code, exc.value.line) == fault
            return
        boxes = parse_predictions(p, length)
        assert boxes.frame.dtype == np.int64
        assert boxes.frame.tolist() == [r[0] for r in rows]
        assert [boxes.ids[t] for t in boxes.track] == [r[1] for r in rows]
        assert list(boxes.ids) == list(dict.fromkeys(r[1] for r in rows))
        assert boxes.xywh.tolist() == [list(r[2:6]) for r in rows]
        assert boxes.confidence.tolist() == [r[6] for r in rows]
        assert boxes.referring_score.tolist() == [r[7] for r in rows]


_GT_HEADER = "frame,track_id,x,y,w,h"
_GT_FAULTS = {
    "field_count": "LINE_FIELD_COUNT",
    "non_integer": "FIELD_TYPE",
    "int64_overflow": "FIELD_TYPE",
    "below_one": "FRAME_INDEX",
    "non_numeric": "FIELD_TYPE",
    "non_finite": "NON_FINITE",
    "duplicate": "DUPLICATE_BOX",
}


@st.composite
def _gt_files(draw):
    """(file text, block size, valid rows in file order, first fault's
    (code, line) or None): like ``_prediction_files`` for gt.txt's six
    fields, plus a block size of a few lines, so that faults fall on both
    sides of block boundaries."""
    rows = draw(st.lists(_pred_row(None), max_size=12, unique_by=lambda r: r[:2]))
    rows = [r[:6] for r in rows]
    body = []
    for r in rows:
        fields = _pred_fields(r)
        for i in (0, 2, 3, 4, 5):  # every field but the track id
            fields[i] = _spelled(fields[i], draw(st.sampled_from(_SPELLINGS)))
        body.append((",".join(fields), None))
    for kind in draw(st.lists(st.sampled_from(sorted(_GT_FAULTS)), max_size=2, unique=True)):
        fields = _pred_fields(draw(_pred_row(None)))[:6]
        at = draw(st.integers(0, len(body)))
        if kind == "field_count":
            n = draw(st.sampled_from([1, 2, 5, 7, 8]))
            fields = (fields + ["0", "0"])[:n]
        elif kind == "non_integer":
            fields[0] = draw(st.sampled_from(["1.5", "2e3", "nan", "inf", "x", ""]))
        elif kind == "int64_overflow":
            fields[0] = str(_INT64_MAX + draw(st.integers(1, 10**6)))
        elif kind == "below_one":
            fields[0] = str(draw(st.integers(-5, 0)))
        elif kind == "non_numeric":
            fields[draw(st.integers(2, 5))] = draw(st.sampled_from(_NOT_NUMBERS))
        elif kind == "non_finite":
            bad = draw(st.sampled_from(["nan", "inf", "-inf", "1e999"]))
            fields[draw(st.integers(2, 5))] = bad
        else:
            valid_before = [i for i, (_, c) in enumerate(body) if c is None]
            if not valid_before:
                continue
            at = draw(st.integers(valid_before[0] + 1, len(body)))
            earlier = draw(st.sampled_from([i for i in valid_before if i < at]))
            fields[:2] = body[earlier][0].split(",")[:2]
        body.insert(at, (",".join(fields), _GT_FAULTS[kind]))
    for _ in range(draw(st.integers(0, 3))):
        body.insert(draw(st.integers(0, len(body))), ("", None))
    if draw(st.booleans()):
        body.insert(0, (_GT_HEADER, None))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = draw(st.sampled_from(["", "\ufeff"])) + "".join(line + eol for line, _ in body)
    faults = [(c, i) for i, (_, c) in enumerate(body, start=1) if c is not None]
    return text, draw(st.integers(1, 5)), rows, faults[0] if faults else None


class TestGtFirstError:
    @settings(max_examples=300, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink],
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=_gt_files())
    def test_columns_or_first_faulty_line(self, tmp_path, case):
        text, block_lines, rows, fault = case
        p = tmp_path / "gt.txt"
        p.write_bytes(text.encode("utf-8"))
        with mock.patch.object(io_formats, "_BLOCK_LINES", block_lines):
            if fault is not None:
                with pytest.raises(ParseError) as exc:
                    parse_gt(p)
                assert (exc.value.code, exc.value.line) == fault
                return
            tracks = parse_gt(p)
        cols = tracks.columns
        assert cols.frame.dtype == np.int64
        assert cols.frame.tolist() == [r[0] for r in rows]
        assert [cols.ids[t] for t in cols.track] == [r[1] for r in rows]
        assert list(cols.ids) == list(tracks) == list(dict.fromkeys(r[1] for r in rows))
        assert cols.xywh.tolist() == [list(r[2:6]) for r in rows]
        # the tracks a row-by-row parse builds, boxes in file order
        expected = {}
        for f, tid, *xywh in rows:
            expected.setdefault(tid, {})[f] = BoundingBox(*xywh)
        assert {tid: list(tr.boxes.items()) for tid, tr in tracks.items()} == {
            tid: list(boxes.items()) for tid, boxes in expected.items()
        }


LARGE_FILE_PARSE = """
import json, resource, sys, time
from rmot_eval.io_formats import parse_predictions

start = time.perf_counter()
boxes = parse_predictions(sys.argv[1])
seconds = time.perf_counter() - start
print(json.dumps({
    "rows": len(boxes.frame),
    "ids": len(boxes.ids),
    "last_frame": int(boxes.frame[-1]),
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "seconds": seconds,
}))
"""


class TestLargePredictionFile:
    def test_memory_and_time_stay_bounded(self, tmp_path):
        # 500k lines: 50 tracks on each of 10k frames
        pred = tmp_path / "pred.txt"
        with pred.open("w", encoding="utf-8", newline="\n") as fh:
            for frame in range(1, 10_001):
                fh.write("".join(
                    f"{frame},t{t},{37 * t % 1900}.5,{13 * frame % 1000}.25,{40 + t % 7},"
                    f"{30 + frame % 11},0.{(frame * t) % 997:03d},0.{(frame + t) % 991:03d}\n"
                    for t in range(50)
                ))
        src = Path(__file__).resolve().parents[1] / "src"
        path = [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        done = subprocess.run(
            [sys.executable, "-c", LARGE_FILE_PARSE, str(pred)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        run = json.loads(done.stdout)
        assert (run["rows"], run["ids"], run["last_frame"]) == (500_000, 50, 10_000)
        # a row-by-row parse with a float object per field peaks at about 270 MB
        assert run["peak_rss_mb"] < 180
        assert run["seconds"] < 20


class TestParseError:
    @pytest.mark.parametrize("line", [3, None])
    def test_pickle_round_trip(self, line):
        exc = ParseError("FRAME_OUT_OF_RANGE", "p.txt", line, "frame 9 lies after 5")
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is ParseError
        assert (back.code, back.path, back.line, back.message) == (
            "FRAME_OUT_OF_RANGE", "p.txt", line, "frame 9 lies after 5"
        )
        assert str(back) == str(exc)


class TestPredictionFiles:
    def test_lookup_parses_the_file_each_time(self, tmp_path):
        p = tmp_path / "s__e.txt"
        p.write_text("1,3,5,5,10,10,0.9,0.8\n")
        files = PredictionFiles({("s", "e"): (p, 4)})
        assert len(files) == 1 and list(files) == [("s", "e")]
        assert files[("s", "e")] == parse_predictions(p)
        p.write_text("2,3,5,5,10,10,0.9,0.8\n")  # nothing is cached
        assert files[("s", "e")][0].frame == 2
        assert files.get(("s", "x"), ()) == ()

    def test_lookup_checks_the_sequence_length(self, tmp_path):
        p = tmp_path / "s__e.txt"
        p.write_text("5,3,5,5,10,10,0.9,0.8\n")
        files = PredictionFiles({("s", "e"): (p, 4)})
        assert ("s", "e") in files  # membership does not parse
        with pytest.raises(ParseError) as exc:
            files[("s", "e")]
        assert exc.value.code == "FRAME_OUT_OF_RANGE" and exc.value.line == 1


class TestExpressionsFormat:
    def test_inclusive_interval_join(self, mini_bundle, tmp_path):
        entries = [{
            "expression_id": "e9", "sequence_id": "seq-a", "text": "x",
            "targets": [{"track_id": "a1", "start_frame": 1, "end_frame": 3}],
        }]
        p = tmp_path / "expressions.json"
        write_expressions(entries, p)
        tasks, warnings = parse_expressions(p, mini_bundle.sequences)
        assert sorted(tasks[0].targets) == [1, 2, 3]
        assert warnings == []

    def test_absent_frames_warn(self, mini_bundle, tmp_path):
        # a2 exists on frames 3-7 only
        entries = [{
            "expression_id": "e9", "sequence_id": "seq-a", "text": "x",
            "targets": [{"track_id": "a2", "start_frame": 1, "end_frame": 7}],
        }]
        p = tmp_path / "expressions.json"
        write_expressions(entries, p)
        tasks, warnings = parse_expressions(p, mini_bundle.sequences)
        assert sorted(tasks[0].targets) == [3, 4, 5, 6, 7]
        assert len(warnings) == 1 and "absent" in warnings[0]

    def test_empty_targets_is_no_target(self, mini_bundle, tmp_path):
        entries = [{
            "expression_id": "e9", "sequence_id": "seq-a", "text": "x", "targets": [],
        }]
        p = tmp_path / "expressions.json"
        write_expressions(entries, p)
        tasks, _ = parse_expressions(p, mini_bundle.sequences)
        assert tasks[0].no_target

    def test_unknown_track_rejected(self, mini_bundle, tmp_path):
        entries = [{
            "expression_id": "e9", "sequence_id": "seq-a", "text": "x",
            "targets": [{"track_id": "zz", "start_frame": 1, "end_frame": 2}],
        }]
        p = tmp_path / "expressions.json"
        write_expressions(entries, p)
        with pytest.raises(ParseError) as exc:
            parse_expressions(p, mini_bundle.sequences)
        assert exc.value.code == "UNKNOWN_TRACK"

    def test_interval_order_rejected(self, mini_bundle, tmp_path):
        entries = [{
            "expression_id": "e9", "sequence_id": "seq-a", "text": "x",
            "targets": [{"track_id": "a1", "start_frame": 5, "end_frame": 2}],
        }]
        p = tmp_path / "expressions.json"
        write_expressions(entries, p)
        with pytest.raises(ParseError) as exc:
            parse_expressions(p, mini_bundle.sequences)
        assert exc.value.code == "INTERVAL_ORDER"

    @pytest.mark.parametrize("start, end", [(0, 3), (1, 11), (1, 10**15)])
    def test_interval_outside_sequence_rejected(self, mini_bundle, tmp_path, start, end):
        # seq-a has frames 1-10; the interval is rejected before any frame loop
        entries = [{
            "expression_id": "e9", "sequence_id": "seq-a", "text": "x",
            "targets": [
                {"track_id": "a2", "start_frame": 3, "end_frame": 7},
                {"track_id": "a1", "start_frame": start, "end_frame": end},
            ],
        }]
        p = tmp_path / "expressions.json"
        write_expressions(entries, p)
        started = time.perf_counter()
        with pytest.raises(ParseError) as exc:
            parse_expressions(p, mini_bundle.sequences)
        assert time.perf_counter() - started < 1.0
        assert exc.value.code == "FRAME_OUT_OF_RANGE"
        assert "expression e9 target 1" in str(exc.value)

    def test_tasks_to_intervals_round_trip(self, mini_bundle, tmp_path):
        p = tmp_path / "expressions.json"
        write_expressions(tasks_to_intervals(mini_bundle.tasks), p)
        tasks, _ = parse_expressions(p, mini_bundle.sequences)
        assert tuple(tasks) == mini_bundle.tasks

    def test_track_split_at_a_frame_gap(self, mini_bundle, tmp_path):
        # a1 is a target on frames 1-3 and 6-8: two intervals, and the
        # bundle written with them loads back as the same task
        seq = mini_bundle.sequences["seq-a"]
        task = task_from_tracks(
            "seq-a", "e9", "x", [(seq.tracks["a1"], [1, 2, 3, 6, 7, 8]), (seq.tracks["a2"], [3])]
        )
        assert tasks_to_intervals([task])[0]["targets"] == [
            {"track_id": "a1", "start_frame": 1, "end_frame": 3},
            {"track_id": "a1", "start_frame": 6, "end_frame": 8},
            {"track_id": "a2", "start_frame": 3, "end_frame": 3},
        ]
        root = tmp_path / "bundle"
        write_bundle(root, {"seq-a": seq}, [task], {})
        loaded = load_bundle(root)
        assert loaded.tasks == (task,) and loaded.warnings == ()

    @pytest.mark.parametrize("text", [None, 7, ["x"]])
    def test_non_string_text_rejected(self, mini_bundle, tmp_path, text):
        entries = [{"expression_id": "e9", "sequence_id": "seq-a", "text": text, "targets": []}]
        p = tmp_path / "expressions.json"
        write_expressions(entries, p)
        with pytest.raises(ParseError) as exc:
            parse_expressions(p, mini_bundle.sequences)
        assert exc.value.code == "FIELD_TYPE"
        assert "expression e9 text" in str(exc.value)


class TestBundleRoundTrip:
    def test_write_then_load(self, tmp_path, mini_bundle):
        root = tmp_path / "bundle"
        write_bundle(root, mini_bundle.sequences, mini_bundle.tasks, mini_bundle.attributes)
        loaded = load_bundle(root)
        assert set(loaded.sequences) == set(mini_bundle.sequences)
        for sid, seq in mini_bundle.sequences.items():
            got = loaded.sequences[sid]
            assert got.length == seq.length and got.split == seq.split
            assert {t: dict(tr.boxes) for t, tr in got.tracks.items()} == {
                t: dict(tr.boxes) for t, tr in seq.tracks.items()
            }
        assert loaded.tasks == mini_bundle.tasks
        assert loaded.attributes == dict(mini_bundle.attributes)

    @pytest.mark.parametrize("doc", ["manifest.json", "expressions.json"])
    def test_byte_order_mark_skipped(self, tmp_path, mini_bundle, doc):
        root = tmp_path / "bundle"
        write_bundle(root, mini_bundle.sequences, mini_bundle.tasks, mini_bundle.attributes)
        path = root / doc
        path.write_text(path.read_text(encoding="utf-8"), encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        loaded = load_bundle(root)
        assert set(loaded.sequences) == set(mini_bundle.sequences)
        assert loaded.tasks == mini_bundle.tasks

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ParseError) as exc:
            load_bundle(tmp_path)
        assert exc.value.code == "NO_MANIFEST"

    def test_malformed_manifest(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{\n  "sequences": [\n    {"sequence_id": \n')
        with pytest.raises(ParseError) as exc:
            load_bundle(tmp_path)
        assert exc.value.code == "JSON_SYNTAX" and exc.value.line == 4

    def test_empty_sequence_list(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"sequences": []}')
        with pytest.raises(ParseError) as exc:
            load_bundle(tmp_path)
        assert exc.value.code == "NO_SEQUENCES"

    def test_sequence_listed_twice_rejected(self, tmp_path):
        manifest = {"sequences": [
            {"sequence_id": "s", "length": 5},
            {"sequence_id": "t", "length": 3},
            {"sequence_id": "s", "length": 9},
        ]}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ParseError) as exc:
            load_bundle(tmp_path)
        assert exc.value.code == "DUPLICATE_SEQUENCE"
        assert "sequence entry 0 and sequence entry 2" in str(exc.value)

    @pytest.mark.parametrize("split", [None, 3, ["x"]])
    def test_non_string_split_rejected(self, tmp_path, split):
        manifest = {"sequences": [{"sequence_id": "s", "length": 3, "split": split}]}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ParseError) as exc:
            load_bundle(tmp_path)
        assert exc.value.code == "FIELD_TYPE"
        assert "sequence entry 0 split" in str(exc.value)



_UNSAFE_IDS = ["", ".", "..", "a/b", "/abs", "a\\b", "a\0b"]


class TestUnitIds:
    @pytest.mark.parametrize("bad", _UNSAFE_IDS)
    def test_manifest_sequence_id_rejected(self, tmp_path, bad):
        manifest = {"sequences": [{"sequence_id": bad, "length": 3}]}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ParseError) as exc:
            load_bundle(tmp_path)
        assert exc.value.code == "UNSAFE_ID"
        assert "sequence entry 0 sequence_id" in str(exc.value)

    @pytest.mark.parametrize("field", ["sequence_id", "expression_id"])
    @pytest.mark.parametrize("bad", _UNSAFE_IDS)
    def test_expression_ids_rejected(self, tmp_path, field, bad):
        entry = {"expression_id": "e1", "sequence_id": "s", "text": "x", "targets": []}
        entry[field] = bad
        sequences = {sid: SequenceData(sid, 3, {}) for sid in ("s", bad)}
        p = tmp_path / "expressions.json"
        write_expressions([entry], p)
        with pytest.raises(ParseError) as exc:
            parse_expressions(p, sequences)
        assert exc.value.code == "UNSAFE_ID"
        assert f"entry 0 {field}" in str(exc.value)

    @pytest.mark.parametrize(
        "units",
        [[("a__b", "c"), ("a", "b__c")], [("a", "e1"), ("a", "e1")]],
        ids=["separator-inside-id", "repeated-pair"],
    )
    def test_units_sharing_a_prediction_file_rejected(self, tmp_path, units):
        sequences = {sid: SequenceData(sid, 3, {}) for sid, _ in units}
        entries = [
            {"expression_id": eid, "sequence_id": sid, "text": "x", "targets": []}
            for sid, eid in units
        ]
        p = tmp_path / "expressions.json"
        write_expressions(entries, p)
        with pytest.raises(ParseError) as exc:
            parse_expressions(p, sequences)
        assert exc.value.code == "UNIT_COLLISION"
        message = str(exc.value)
        for i, (sid, eid) in enumerate(units):
            assert f"entry {i} ({sid!r}, {eid!r})" in message
        assert unit_filename(*units[0]) in message


# byte fragments of every input format, so joined draws reach past the first
# field check more often than uniformly random bytes do
_FRAGMENTS = [
    b"0", b"1", b"7", b"-", b".", b"e", b"nan", b"inf", b",", b"\n", b"\r", b" ",
    b"\xff", b"\xe2\x82", b"\xc3\xa9", b"[", b"]", b"{", b"}", b":", b'"',
    b'"sequence_id"', b'"expression_id"', b'"text"', b'"targets"', b'"track_id"',
    b'"start_frame"', b'"end_frame"', b'"seq-a"', b'"a1"', b"null", b"true",
]
_FUZZ_BYTES = st.binary(max_size=200) | st.lists(st.sampled_from(_FRAGMENTS), max_size=60).map(
    b"".join
)
_FUZZ_SEQUENCES = build_mini_bundle().sequences
_PARSERS = {
    "gt": parse_gt,
    "predictions": parse_predictions,
    "attributes": lambda p: parse_attributes(p, "seq-a", 3),
    "expressions": lambda p: parse_expressions(p, _FUZZ_SEQUENCES),
}


class TestFuzz:
    @pytest.mark.parametrize("fmt", sorted(_PARSERS))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=_FUZZ_BYTES)
    def test_bytes_parse_or_raise_parse_error(self, tmp_path, fmt, data):
        path = tmp_path / "input"
        path.write_bytes(data)
        try:
            _PARSERS[fmt](path)
        except ParseError:
            pass

    def test_encoding_error_names_line(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_bytes(b"1,7,0,0,5,5\n2,7,0,0,5,5\r\n3,\xff\xfe,0,0,5,5\n")
        with pytest.raises(ParseError) as exc:
            parse_gt(p)
        assert exc.value.code == "ENCODING" and exc.value.line == 3

    def test_encoding_error_in_json(self, tmp_path):
        p = tmp_path / "expressions.json"
        p.write_bytes(b'[\n  {"text": "\xff"}\n]\n')
        with pytest.raises(ParseError) as exc:
            parse_expressions(p, _FUZZ_SEQUENCES)
        assert exc.value.code == "ENCODING" and exc.value.line == 2

    @pytest.mark.parametrize(
        "text", ["[" * 100_000, "[" + "1" * 5000 + "]"], ids=["deep-nesting", "long-integer"]
    )
    def test_json_past_parser_limits(self, tmp_path, text):
        p = tmp_path / "expressions.json"
        p.write_text(text)
        with pytest.raises(ParseError) as exc:
            parse_expressions(p, _FUZZ_SEQUENCES)
        assert exc.value.code == "JSON_SYNTAX"

class TestReports:
    def perfect_report(self):
        stats = [
            AlphaStats(alpha=a, tp=1, iou_sum=1.0,
                       ass_a_sum=1.0, ass_re_sum=1.0, ass_pr_sum=1.0)
            for a in DEFAULT_ALPHA_GRID
        ]
        return finalize(stats)

    def test_perfect_display_is_100(self, tmp_path):
        payload = report_payload(self.perfect_report())
        assert payload["display"]["HOTA"] == "100.00"
        assert payload["display"]["LocA"] == "100.00"

    def test_display_rounding_half_up(self):
        from rmot_eval.io_formats import _round2

        assert _round2(27.5349) == "27.53"
        assert _round2(27.535) == "27.54"
        assert _round2(0.005) == "0.01"

    def test_round_trip_full_precision(self, tmp_path):
        payload = report_payload(self.perfect_report())
        json_path, table_path = write_report(payload, tmp_path)
        loaded = read_report(json_path)
        assert loaded["metrics"] == json.loads(json.dumps(payload["metrics"]))
        assert loaded["metrics"]["HOTA"] == 100.0

    def test_table_column_order(self, tmp_path):
        payload = report_payload(self.perfect_report())
        _, table_path = write_report(payload, tmp_path)
        header = table_path.read_text().splitlines()[0].split()
        assert header == ["HOTA", "DetA", "AssA", "LocA", "DetRe", "DetPr", "AssRe", "AssPr"]

    def test_table_includes_composites_when_present(self, tmp_path, mini_bundle, mini_predictions):
        from rmot_eval.model import EvalConfig
        from rmot_eval.pipeline import evaluate

        report, attrs = evaluate(mini_bundle, mini_predictions, EvalConfig())
        payload = report_payload(report, attributes=attrs)
        _, table_path = write_report(payload, tmp_path)
        header = table_path.read_text().splitlines()[0].split()
        assert header[:6] == ["HOTA", "DetA", "AssA", "HOTA_S", "HOTA_M", "LocA"]
