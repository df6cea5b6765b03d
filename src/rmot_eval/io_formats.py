"""Parsers and writers for ground truth, expressions, attributes, predictions,
and reports.

All parsers reject malformed input with file and line context instead of
repairing it silently. Line-based formats accept LF, CRLF and lone CR line
ends; writers always emit LF. Round-tripping any format preserves logical
content exactly.

On-disk layout of a dataset bundle::

    bundle/
      manifest.json        sequence list with lengths and split tags
      expressions.json     expression tasks with inclusive target intervals
      <sequence_id>/gt.txt            frame,track_id,x,y,w,h
      <sequence_id>/attributes.txt    frame + eight 0/1 attribute cells

Predictions live in a separate directory, one file per (sequence,
expression) named ``<sequence_id>__<expression_id>.txt`` with lines
``frame,track_id,x,y,w,h,confidence,referring_score``.

A prediction file and a ``gt.txt`` parse into columns, with no per-line
objects, a block of lines at a time: each block is split into columns, its
fields converted by Python's ``int`` and ``float`` and its rows checked in
numpy. Only a file that fails a check is read again row by row, by the same
``_records`` reader the other line formats use, to raise its first error in
line order. A prediction file gives a ``model.UnitBoxes``; a ``gt.txt`` a
``model.TracksView`` over the sequence's ``model.GtColumns``. Each
expression's targets are a ``model.TargetsView``, a row selection into its
sequence's columns that ``parse_expressions`` resolves for the whole
document at once, in the order a dict filled interval by interval, frame by
frame would iterate. The other formats parse into the ``model`` types.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice, repeat
from math import isfinite
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from .attributes import AttributeReport
from .hota import MetricReport
from .model import (
    Attribute,
    AttributeFrameLabels,
    Detection,
    ExpressionTask,
    GroundTruthTrack,
    GtColumns,
    SequenceData,
    TargetsView,
    TracksView,
    UnitBoxes,
    names_a_file,
)

if TYPE_CHECKING:
    from .stats import StatsReport

ATTRIBUTE_COLUMNS: Tuple[Attribute, ...] = (
    Attribute.DAY,
    Attribute.NIGHT,
    Attribute.VIEWPOINT_CHANGE,
    Attribute.SCALE_VARIATION,
    Attribute.OCCLUSION,
    Attribute.FAST_MOTION,
    Attribute.ROTATION,
    Attribute.LOW_RESOLUTION,
)

_INT64_MAX = 2**63 - 1  # the largest frame an int64 column holds
_BLOCK_LINES = 1 << 14  # prediction lines read, split and converted at a time

REPORT_SCHEMA = "rmot-eval-report/1"
TABLE_COLUMNS = (
    "HOTA", "DetA", "AssA", "HOTA_S", "HOTA_M", "LocA",
    "DetRe", "DetPr", "AssRe", "AssPr",
)


class ParseError(ValueError):
    """Malformed input file; carries a machine-readable code and location."""

    def __init__(self, code: str, path: Path | str, line: Optional[int], message: str):
        self.code = code
        self.path = str(path)
        self.line = line
        self.message = message
        loc = f"{self.path}:{line}" if line is not None else self.path
        super().__init__(f"{code} at {loc}: {message}")

    def __reduce__(self):
        # rebuilt from the four fields, so the error survives a worker pipe
        return type(self), (self.code, self.path, self.line, self.message)


@dataclass(frozen=True)
class DatasetBundle:
    """In-memory dataset: sequences, expression tasks, attribute labels."""

    sequences: Mapping[str, SequenceData]
    tasks: Tuple[ExpressionTask, ...]
    attributes: Mapping[str, AttributeFrameLabels]
    warnings: Tuple[str, ...] = ()


def _encoding_error(path: Path) -> ParseError:
    # A multi-byte UTF-8 sequence never contains b"\n", so the file fails to
    # decode iff one of its b"\n"-separated lines does.
    with path.open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return ParseError(
                    "ENCODING", path, lineno,
                    f"not valid UTF-8 at byte {exc.start} of the line: {exc.reason}",
                )
    return ParseError("ENCODING", path, None, "not valid UTF-8")


def _lines(path: Path) -> Iterable[Tuple[int, str]]:
    with path.open("r", encoding="utf-8-sig", newline="") as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.rstrip("\r\n")
                if line:
                    yield lineno, line
        except UnicodeDecodeError:
            raise _encoding_error(path) from None


def _load_json(path: Path) -> object:
    try:
        with path.open("r", encoding="utf-8-sig") as fh:
            return json.load(fh)
    except UnicodeDecodeError:
        raise _encoding_error(path) from None
    except json.JSONDecodeError as exc:
        raise ParseError("JSON_SYNTAX", path, exc.lineno, exc.msg) from None
    except (ValueError, RecursionError) as exc:
        # integers past the int-conversion digit limit, or nesting too deep
        raise ParseError("JSON_SYNTAX", path, None, str(exc)) from None


def _fields(node: object, keys: Sequence[str], path: Path, where: str) -> Mapping[str, object]:
    """Check that a JSON node is an object holding ``keys``."""
    if not isinstance(node, dict):
        raise ParseError(
            "DOC_SHAPE", path, None, f"{where} must be an object, got {type(node).__name__}"
        )
    for key in keys:
        if key not in node:
            raise ParseError("DOC_FIELD", path, None, f"{where} missing {key!r}")
    return node


def _typed(value: object, kind: type, path: Path, where: str):
    """``value`` as ``kind``: a str must be one already, an int goes through
    ``int()`` unless that would lose something (a bool, or a float that is
    not integral); FIELD_TYPE otherwise."""
    if kind is str and isinstance(value, str):
        return value
    lossy = isinstance(value, bool) or (isinstance(value, float) and not value.is_integer())
    if kind is int and not lossy:
        try:
            return int(value)  # type: ignore[arg-type]
        except (TypeError, ValueError, OverflowError):
            pass
    raise ParseError(
        "FIELD_TYPE", path, None, f"{where} must be {kind.__name__}, got {value!r}"
    )


def _unit_id(value: object, path: Path, where: str) -> str:
    """A sequence or expression id (``model.names_a_file``); FIELD_TYPE if
    it is not a string, UNSAFE_ID if it cannot name a file or directory."""
    value = _typed(value, str, path, where)
    if not names_a_file(value):
        raise ParseError(
            "UNSAFE_ID", path, None, f"{where} {value!r} cannot name a file or directory"
        )
    return value


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def _records(
    path: Path, n_fields: int, length: Optional[int] = None
) -> Iterator[Tuple[int, int, List[str]]]:
    """Yield ``(line, frame, fields)`` for each row of a line format whose
    first field is the frame: the optional header is skipped, the field count
    is checked, and the frame must be an integer >= 1 (and <= ``length`` when
    given)."""
    for lineno, line in _lines(path):
        fields = line.split(",")
        if lineno == 1 and not any(map(_is_number, fields)):
            continue  # optional header
        if len(fields) != n_fields:
            raise ParseError(
                "LINE_FIELD_COUNT", path, lineno,
                f"expected {n_fields} comma-separated fields, got {len(fields)}",
            )
        try:
            frame = int(fields[0])
        except ValueError as exc:
            raise ParseError("FIELD_TYPE", path, lineno, str(exc)) from None
        if frame < 1:
            raise ParseError("FRAME_INDEX", path, lineno, f"frame must be >= 1, got {frame}")
        if length is not None and frame > length:
            raise ParseError(
                "FRAME_OUT_OF_RANGE", path, lineno,
                f"frame {frame} lies after the sequence's last frame {length}",
            )
        yield lineno, frame, fields


def _floats(path: Path, lineno: int, fields: Sequence[str]) -> Tuple[float, ...]:
    """The fields after frame and track id as floats; the first four are the
    box's x, y, w, h and must be finite."""
    try:
        values = tuple(map(float, fields[2:]))
    except ValueError as exc:
        raise ParseError("FIELD_TYPE", path, lineno, str(exc)) from None
    # each coordinate is checked on its own: a sum of large finite values
    # can overflow to inf
    x, y, w, h = values[:4]
    if not (isfinite(x) and isfinite(y) and isfinite(w) and isfinite(h)):
        raise ParseError(
            "NON_FINITE", path, lineno,
            "box coordinates x, y, w, h must be finite, got "
            + ", ".join(repr(v) for v in (x, y, w, h)),
        )
    return values


def parse_gt(path: Path | str) -> TracksView:
    """Parse a ground-truth box file into its tracks, a ``TracksView`` over
    the file's ``GtColumns`` (rows in file order, ids in first-appearance
    order). A frame past the int64 range is a FIELD_TYPE error.

    Read like a prediction file: in blocks checked in numpy, and when a
    check fails, row by row to raise the first error in line order."""
    path = Path(path)
    cols = _columns_or_first_error(path, 6, None)
    return TracksView(GtColumns(cols[0], cols[1], cols[2], cols[3]))


def _fmt(v: float) -> str:
    return repr(int(v)) if float(v).is_integer() else repr(float(v))


def write_gt(tracks: Mapping[str, GroundTruthTrack], path: Path | str) -> None:
    path = Path(path)
    rows = []
    for tid in sorted(tracks):
        for frame in sorted(tracks[tid].boxes):
            b = tracks[tid].boxes[frame]
            rows.append((frame, tid, b))
    rows.sort(key=lambda r: (r[0], r[1]))
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for frame, tid, b in rows:
            fh.write(
                f"{frame},{tid},{_fmt(b.x)},{_fmt(b.y)},{_fmt(b.w)},{_fmt(b.h)}\n"
            )


def parse_attributes(path: Path | str, sequence_id: str, length: int) -> AttributeFrameLabels:
    """Parse a per-frame attribute flag table; every frame row must exist."""
    path = Path(path)
    flags: Dict[int, frozenset] = {}
    for lineno, frame, fields in _records(path, 1 + len(ATTRIBUTE_COLUMNS), length):
        active = set()
        for attr, cell in zip(ATTRIBUTE_COLUMNS, fields[1:]):
            if cell not in ("0", "1"):
                raise ParseError(
                    "NON_BINARY_CELL", path, lineno,
                    f"attribute cell for {attr.value} must be 0 or 1, got {cell!r}",
                )
            if cell == "1":
                active.add(attr)
        if frame in flags:
            raise ParseError("DUPLICATE_FRAME_ROW", path, lineno, f"frame {frame} repeated")
        flags[frame] = frozenset(active)
    for frame in range(1, length + 1):
        if frame not in flags:
            raise ParseError(
                "MISSING_FRAME_ROW", path, None,
                f"no attribute row for frame {frame} (sequence length {length})",
            )
    return AttributeFrameLabels(sequence_id=sequence_id, flags=flags)


def write_attributes(labels: AttributeFrameLabels, path: Path | str) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        header = ",".join(["frame"] + [a.value for a in ATTRIBUTE_COLUMNS])
        fh.write(header + "\n")
        for frame in sorted(labels.flags):
            cells = ["1" if a in labels.flags[frame] else "0" for a in ATTRIBUTE_COLUMNS]
            fh.write(",".join([str(frame)] + cells) + "\n")


def parse_predictions(path: Path | str, length: Optional[int] = None) -> UnitBoxes:
    """Parse one per-unit prediction file into a ``UnitBoxes``, the file's
    detections as columns in file order; an empty file is a valid empty one.

    With ``length``, a prediction after the sequence's last frame is a
    FRAME_OUT_OF_RANGE error instead of being returned. A frame past the
    int64 range is a FIELD_TYPE error.

    The file is read ``_BLOCK_LINES`` lines at a time; each block is split
    into columns, its fields converted by ``int`` and ``float`` and checked
    in numpy. When a check fails anywhere, ``_check_rows`` reads the file
    again row by row and raises the first error in line order.
    """
    frame, track, ids, values = _columns_or_first_error(Path(path), 8, length)
    return UnitBoxes(frame, track, ids, values[:, :4], values[:, 4], values[:, 5])


_Columns = Tuple[np.ndarray, np.ndarray, List[str], np.ndarray]


def _columns_or_first_error(path: Path, n_fields: int, length: Optional[int]) -> _Columns:
    """The (frame, track index, ids, values) columns of a GT (6 fields) or
    prediction (8 fields) file, or its first error, raised in line order."""
    try:
        cols = _line_blocks(path, n_fields, length)
    except (ValueError, OverflowError):  # a field int() or float() rejects, or bad UTF-8
        cols = None
    if cols is None:
        _check_rows(path, n_fields, length)
        raise AssertionError(f"{path}: a block check failed but no row check does")
    return cols


def _line_blocks(path: Path, n_fields: int, length: Optional[int]) -> Optional[_Columns]:
    """The file's columns: frames, track indices into the ids (in
    first-appearance order) and the numbers after the track id of each
    line; None when some row would fail a check."""
    frames = [np.empty(0, np.int64)]
    tracks = [np.empty(0, np.intp)]
    n_values = n_fields - 2
    values = [np.empty((0, n_values))]
    index: Dict[str, int] = {}  # track id -> its index, in first-appearance order
    with path.open("r", encoding="utf-8-sig", newline="") as fh:
        for at, block in enumerate(iter(lambda: list(islice(fh, _BLOCK_LINES)), [])):
            if at == 0:
                head = block[0].rstrip("\r\n")
                if head and not any(map(_is_number, head.split(","))):
                    block[0] = ""  # optional header
            lines = list(filter(None, map(str.rstrip, block, repeat("\r\n"))))
            if not lines:
                continue
            n = len(lines)
            if list(map(str.count, lines, repeat(","))).count(n_fields - 1) != n:
                return None
            tokens = ",".join(lines).split(",")
            frame = np.fromiter(map(int, tokens[0::n_fields]), np.int64, n)
            ids = tokens[1::n_fields]
            del tokens[0::n_fields], tokens[0::n_fields - 1]  # frame, then track id
            row = np.fromiter(map(float, tokens), np.float64, n_values * n).reshape(n, n_values)
            scores = row[:, 4:]
            if (
                frame.min() < 1
                or (length is not None and frame.max() > length)
                or not np.isfinite(row[:, :4]).all()
                or not ((scores >= 0.0) & (scores <= 1.0)).all()
            ):
                return None
            fresh = [t for t in dict.fromkeys(ids) if t not in index]
            index.update(zip(fresh, range(len(index), len(index) + len(fresh))))
            frames.append(frame)
            tracks.append(np.fromiter(map(index.__getitem__, ids), np.intp, n))
            values.append(row)
    frame, track = np.concatenate(frames), np.concatenate(tracks)
    # a repeated (frame, track) sits next to its twin once sorted
    order = np.lexsort((track, frame))
    f, t = frame[order], track[order]
    if ((f[1:] == f[:-1]) & (t[1:] == t[:-1])).any():
        return None
    return frame, track, list(index), np.concatenate(values)


def _check_rows(path: Path, n_fields: int, length: Optional[int]) -> None:
    """Check a GT (6 fields) or prediction (8 fields) file row by row; the
    first failing row raises its ``ParseError``. The block checks fail on a
    file exactly when one of these does."""
    seen = set()
    for lineno, frame, fields in _records(path, n_fields, length):
        if frame > _INT64_MAX:
            raise ParseError(
                "FIELD_TYPE", path, lineno, f"frame {frame} does not fit in a 64-bit integer"
            )
        row = _floats(path, lineno, fields)
        scores = row[4:]  # a prediction's confidence and referring score
        if not all(0.0 <= v <= 1.0 for v in scores):
            raise ParseError(
                "SCORE_RANGE", path, lineno,
                f"confidence/referring score outside [0, 1]: {scores[0]}, {scores[1]}",
            )
        key = (frame, fields[1])
        if key in seen:
            raise ParseError(
                "DUPLICATE_BOX", path, lineno,
                f"duplicate (frame, track) = ({frame}, {fields[1]})",
            )
        seen.add(key)


def write_predictions(dets: Sequence[Detection], path: Path | str) -> None:
    """Write one unit's predictions sorted by (frame, track id), rows of one
    frame and id in their order. A ``UnitBoxes`` is written from its
    columns, with the bytes the same detections give as a list."""
    path = Path(path)
    if isinstance(dets, UnitBoxes):
        _write_unit_boxes(dets, path)
        return
    ordered = sorted(dets, key=lambda d: (d.frame, d.track_id))
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for d in ordered:
            b = d.box
            fh.write(
                f"{d.frame},{d.track_id},{_fmt(b.x)},{_fmt(b.y)},{_fmt(b.w)},{_fmt(b.h)},"
                f"{repr(float(d.confidence))},{repr(float(d.referring_score))}\n"
            )


def _write_unit_boxes(boxes: UnitBoxes, path: Path) -> None:
    ids = boxes.ids  # distinct, so a rank per id orders the rows
    rank = np.empty(len(ids), np.intp)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    order = np.lexsort((rank[boxes.track], boxes.frame))
    rows = zip(
        boxes.frame[order].tolist(), boxes.track[order].tolist(),
        *map(_fmt_column, boxes.xywh[order].T),
        boxes.confidence[order].tolist(), boxes.referring_score[order].tolist(),
    )
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for frame, t, x, y, w, h, conf, ref in rows:
            fh.write(f"{frame},{ids[t]},{x},{y},{w},{h},{conf!r},{ref!r}\n")


def _fmt_column(values: np.ndarray) -> list:
    """``_fmt`` of each value; a column of whole numbers within int64 is
    converted in numpy."""
    if (np.isfinite(values) & (values == np.trunc(values)) & (np.abs(values) < 2.0**63)).all():
        return values.astype(np.int64).tolist()
    return [_fmt(v) for v in values.tolist()]


def unit_filename(sequence_id: str, expression_id: str) -> str:
    return f"{sequence_id}__{expression_id}.txt"


class PredictionFiles(Mapping[Tuple[str, str], UnitBoxes]):
    """Per-unit prediction files, parsed on lookup.

    ``files`` maps (sequence_id, expression_id) to the unit's prediction file
    and its sequence length. Each lookup runs ``parse_predictions(path,
    length)`` and returns its ``UnitBoxes``; nothing is kept, so a process
    holds only the columns of the unit it is evaluating.
    """

    def __init__(self, files: Mapping[Tuple[str, str], Tuple[Path, int]]):
        self._files = dict(files)

    def __getitem__(self, key: Tuple[str, str]) -> UnitBoxes:
        path, length = self._files[key]
        return parse_predictions(path, length)

    def __contains__(self, key: object) -> bool:
        return key in self._files  # without parsing, unlike Mapping's default

    def __iter__(self) -> Iterator[Tuple[str, str]]:
        return iter(self._files)

    def __len__(self) -> int:
        return len(self._files)


def parse_expressions(
    path: Path | str,
    sequences: Mapping[str, SequenceData],
) -> Tuple[List[ExpressionTask], List[str]]:
    """Parse the expression document and join target intervals against gt.

    Intervals are inclusive and must lie within the sequence. Frames inside
    an interval where the referenced track has no gt box are allowed but
    reported as warnings.

    Each task's targets are a ``TargetsView``: a row selection into its
    sequence's ``GtColumns`` (``TracksView.from_mapping(seq.tracks)``), in
    the order a dict filled interval by interval, frame by frame, would
    iterate. The document is checked entry by entry first; then every
    sequence's intervals are resolved together (``_select_rows``).
    """
    path = Path(path)
    doc = _load_json(path)
    if not isinstance(doc, list):
        raise ParseError("DOC_SHAPE", path, None, "top level must be a list of expressions")

    units: Dict[str, str] = {}  # prediction file name -> the entry it belongs to
    entries: List[Tuple[str, str, str]] = []  # (sequence_id, expression_id, text)
    columns: Dict[str, GtColumns] = {}  # the referenced sequences' columns
    # each target's task, sequence, track index and interval, in document order
    owner: List[int] = []
    seq_of: List[str] = []
    track: List[int] = []
    interval: List[Tuple[int, int]] = []
    for i, entry in enumerate(doc):
        entry = _fields(
            entry, ("expression_id", "sequence_id", "text", "targets"), path, f"entry {i}"
        )
        seq_id = _unit_id(entry["sequence_id"], path, f"entry {i} sequence_id")
        expr_id = _unit_id(entry["expression_id"], path, f"entry {i} expression_id")
        unit = f"entry {i} ({seq_id!r}, {expr_id!r})"
        name = unit_filename(seq_id, expr_id)
        if name in units:
            raise ParseError(
                "UNIT_COLLISION", path, None,
                f"{units[name]} and {unit} both map to prediction file {name}",
            )
        units[name] = unit
        if not isinstance(entry["targets"], list):
            raise ParseError(
                "DOC_SHAPE", path, None, f"expression {expr_id}: targets must be a list"
            )
        seq = sequences.get(seq_id)
        if seq is None:
            raise ParseError(
                "UNKNOWN_SEQUENCE", path, None,
                f"expression {expr_id} references unknown sequence {seq_id}",
            )
        if seq_id not in columns:
            columns[seq_id] = TracksView.from_mapping(seq.tracks).columns
        index = columns[seq_id].index
        for j, t in enumerate(entry["targets"]):
            where = f"expression {expr_id} target {j}"
            t = _fields(t, ("track_id", "start_frame", "end_frame"), path, where)
            track_id = str(t["track_id"])
            start = _typed(t["start_frame"], int, path, f"{where} start_frame")
            end = _typed(t["end_frame"], int, path, f"{where} end_frame")
            if start > end:
                raise ParseError(
                    "INTERVAL_ORDER", path, None,
                    f"expression {expr_id}: start_frame {start} > end_frame {end}",
                )
            if start < 1 or end > seq.length:
                raise ParseError(
                    "FRAME_OUT_OF_RANGE", path, None,
                    f"{where}: interval [{start}, {end}] lies outside sequence {seq_id} "
                    f"(frames 1-{seq.length})",
                )
            if track_id not in index:
                raise ParseError(
                    "UNKNOWN_TRACK", path, None,
                    f"expression {expr_id} references unknown track {track_id} "
                    f"in sequence {seq_id}",
                )
            owner.append(len(entries))
            seq_of.append(seq_id)
            track.append(index[track_id])
            interval.append((start, end))
        entries.append(
            (seq_id, expr_id, _typed(entry["text"], str, path, f"expression {expr_id} text"))
        )

    rows: List[np.ndarray] = [np.empty(0, dtype=np.intp)] * len(entries)
    present = np.zeros(len(owner), dtype=np.int64)
    targets_of: Dict[str, List[int]] = {}
    for k, seq_id in enumerate(seq_of):
        targets_of.setdefault(seq_id, []).append(k)
    owner_arr, track_arr = np.array(owner, dtype=np.intp), np.array(track, dtype=np.intp)
    for seq_id, ks in targets_of.items():
        sel = np.array(ks, dtype=np.intp)
        owners = sorted({owner[k] for k in ks})
        chosen, counts, present[sel] = _select_rows(
            columns[seq_id],
            track_arr[sel],
            [interval[k] for k in ks],
            np.searchsorted(owners, owner_arr[sel]),
            len(owners),
        )
        for task, part in zip(owners, np.split(chosen, np.cumsum(counts)[:-1])):
            rows[task] = part

    warnings: List[str] = []
    for k, n in enumerate(present.tolist()):
        start, end = interval[k]
        absent = end - start + 1 - n
        if absent:
            seq_id, expr_id, _ = entries[owner[k]]
            warnings.append(
                f"{seq_id}/{expr_id}: track {columns[seq_id].ids[track[k]]} absent on "
                f"{absent} frame(s) of interval [{start}, {end}]"
            )
    tasks = [
        ExpressionTask(
            sequence_id=seq_id,
            expression_id=expr_id,
            text=text,
            targets=TargetsView(columns[seq_id], rows[i]),
        )
        for i, (seq_id, expr_id, text) in enumerate(entries)
    ]
    return tasks, warnings


def _select_rows(
    cols: GtColumns,
    track: np.ndarray,
    intervals: Sequence[Tuple[int, int]],
    owner: np.ndarray,
    n_owners: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Resolve target intervals against one sequence's columns: target k is
    track ``track[k]`` on the inclusive frame interval ``intervals[k]``, for
    owner (task) ``owner[k]``, targets in document order.

    Returns the selected rows, owner after owner, each owner's row count,
    and each target's count of rows. An owner's rows come in the order a
    dict filled target by target, frame by frame, iterates: frames in the
    order they were first inserted, within a frame the tracks in insertion
    order, and a repeated (frame, track) at its first position."""
    # rows sorted by (track, frame rank); a target's rows are a run there
    frames = np.sort(cols.frame)
    frames = frames[np.append(True, frames[1:] != frames[:-1])]
    n_ranks = max(frames.size, 1)
    key = cols.track * n_ranks + np.searchsorted(frames, cols.frame)
    by_key = np.argsort(key)
    key = key[by_key]
    # every frame fits in int64: an interval starting past it holds no row
    lo, hi = np.array(
        [(s, min(e, _INT64_MAX)) if s <= _INT64_MAX else (1, 0) for s, e in intervals],
        dtype=np.int64,
    ).reshape(-1, 2).T
    base = track * n_ranks
    first = np.searchsorted(key, base + np.searchsorted(frames, lo, side="left"))
    stop = np.searchsorted(key, base + np.searchsorted(frames, hi, side="right"))
    present = np.maximum(stop - first, 0)

    # every (target, frame) entry, in document order: target by target,
    # frames ascending
    n = int(present.sum())
    target = np.repeat(np.arange(present.size), present)
    offset = np.arange(n) - np.repeat(np.cumsum(present) - present, present)
    row = by_key[np.repeat(first, present) + offset]
    who = owner[target]
    # a repeated (frame, track) of one owner keeps its first entry
    by_row = np.lexsort((row, who))  # stable: each group's entries in document order
    w, r = who[by_row], row[by_row]
    dup = np.zeros(n, dtype=bool)
    dup[by_row[1:]] = (w[1:] == w[:-1]) & (r[1:] == r[:-1])
    row, who = row[~dup], who[~dup]
    # each entry's frame is placed at the first entry of that frame
    by_frame = np.lexsort((cols.frame[row], who))
    w, f = who[by_frame], cols.frame[row][by_frame]
    lead = np.ones(row.size, dtype=bool)
    lead[1:] = (w[1:] != w[:-1]) | (f[1:] != f[:-1])
    at = np.empty(row.size, dtype=np.intp)
    at[by_frame] = by_frame[np.flatnonzero(lead)][np.cumsum(lead) - 1]
    order = np.lexsort((np.arange(row.size), at))
    return row[order], np.bincount(who, minlength=n_owners), present


def write_expressions(entries: Sequence[Mapping[str, object]], path: Path | str) -> None:
    """Write the expression document (interval form, not resolved boxes)."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        json.dump(list(entries), fh, indent=2, sort_keys=True)
        fh.write("\n")


def tasks_to_intervals(tasks: Sequence[ExpressionTask]) -> List[Dict[str, object]]:
    """Convert resolved tasks back into interval entries (maximal runs)."""
    out = []
    for task in tasks:
        by_track: Dict[str, List[int]] = {}
        for frame in sorted(task.targets):
            for tid in task.targets[frame]:
                by_track.setdefault(tid, []).append(frame)
        intervals = []
        for tid in sorted(by_track):
            frames = by_track[tid]
            start = prev = frames[0]
            for f in frames[1:]:
                if f != prev + 1:
                    intervals.append({"track_id": tid, "start_frame": start, "end_frame": prev})
                    start = f
                prev = f
            intervals.append({"track_id": tid, "start_frame": start, "end_frame": prev})
        out.append(
            {
                "expression_id": task.expression_id,
                "sequence_id": task.sequence_id,
                "text": task.text,
                "targets": intervals,
            }
        )
    return out


def load_bundle(root: Path | str) -> DatasetBundle:
    """Load a dataset bundle directory (manifest, gt, expressions, attributes)."""
    root = Path(root)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise ParseError("NO_MANIFEST", manifest_path, None, "manifest.json not found")
    manifest = _fields(_load_json(manifest_path), (), manifest_path, "top level")
    entries = manifest.get("sequences", [])
    if not isinstance(entries, list):
        raise ParseError("DOC_SHAPE", manifest_path, None, "sequences must be a list")

    sequences: Dict[str, SequenceData] = {}
    entry_of: Dict[str, str] = {}  # sequence_id -> the entry that lists it
    for i, entry in enumerate(entries):
        where = f"sequence entry {i}"
        entry = _fields(entry, ("sequence_id", "length"), manifest_path, where)
        seq_id = _unit_id(entry["sequence_id"], manifest_path, f"{where} sequence_id")
        if seq_id in entry_of:
            raise ParseError(
                "DUPLICATE_SEQUENCE", manifest_path, None,
                f"{entry_of[seq_id]} and {where} both list sequence_id {seq_id!r}",
            )
        entry_of[seq_id] = where
        length = _typed(entry["length"], int, manifest_path, f"{where} length")
        split = _typed(entry.get("split", "train"), str, manifest_path, f"{where} split")
        gt_path = root / seq_id / "gt.txt"
        tracks = parse_gt(gt_path) if gt_path.exists() else {}
        sequences[seq_id] = SequenceData(
            sequence_id=seq_id,
            length=length,
            tracks=tracks,
            split=split,
        )
    if not sequences:
        raise ParseError("NO_SEQUENCES", manifest_path, None, "manifest lists no sequences")

    expr_path = root / "expressions.json"
    tasks: List[ExpressionTask] = []
    warnings: List[str] = []
    if expr_path.exists():
        tasks, warnings = parse_expressions(expr_path, sequences)

    attributes: Dict[str, AttributeFrameLabels] = {}
    for seq_id, seq in sequences.items():
        attr_path = root / seq_id / "attributes.txt"
        if attr_path.exists():
            attributes[seq_id] = parse_attributes(attr_path, seq_id, seq.length)

    return DatasetBundle(
        sequences=sequences,
        tasks=tuple(tasks),
        attributes=attributes,
        warnings=tuple(warnings),
    )


def write_bundle(
    root: Path | str,
    sequences: Mapping[str, SequenceData],
    tasks: Sequence[ExpressionTask],
    attributes: Mapping[str, AttributeFrameLabels],
) -> None:
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    manifest = {
        "sequences": [
            {
                "sequence_id": s.sequence_id,
                "length": s.length,
                "split": s.split,
            }
            for s in sorted(sequences.values(), key=lambda s: s.sequence_id)
        ]
    }
    with (root / "manifest.json").open("w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for seq in sequences.values():
        seq_dir = root / seq.sequence_id
        seq_dir.mkdir(parents=True, exist_ok=True)
        write_gt(seq.tracks, seq_dir / "gt.txt")
        labels = attributes.get(seq.sequence_id)
        if labels is not None:
            write_attributes(labels, seq_dir / "attributes.txt")
    write_expressions(tasks_to_intervals(tasks), root / "expressions.json")


def _round2(v: float) -> str:
    # display rounding: two decimals, half away from zero
    from decimal import ROUND_HALF_UP, Decimal

    return str(Decimal(repr(v)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def report_payload(
    metrics: MetricReport,
    attributes: Optional[AttributeReport] = None,
    stats: Optional[StatsReport] = None,
    config: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Build the machine-readable report structure (full precision)."""
    payload: Dict[str, object] = {"schema": REPORT_SCHEMA}
    if config:
        payload["config"] = dict(config)
    payload["metrics"] = metrics.as_dict()
    display = {
        k: _round2(v)
        for k, v in payload["metrics"].items()  # type: ignore[union-attr]
        if isinstance(v, float)
    }
    if attributes is not None:
        payload["attributes"] = attributes.as_dict()
        if attributes.hota_s is not None:
            display["HOTA_S"] = _round2(attributes.hota_s)
        if attributes.hota_m is not None:
            display["HOTA_M"] = _round2(attributes.hota_m)
    payload["display"] = display
    if stats is not None:
        payload["stats"] = stats.as_dict()
    return payload


def write_report(payload: Mapping[str, object], out_dir: Path | str) -> Tuple[Path, Path]:
    """Write the machine-readable JSON report and the human-readable table."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / "report.json"
    with json_path.open("w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    display = payload.get("display", {})
    table_path = out_dir / "report.txt"
    cols = [c for c in TABLE_COLUMNS if c in display]
    widths = [max(len(c), len(str(display[c]))) for c in cols]
    with table_path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("  ".join(c.rjust(w) for c, w in zip(cols, widths)) + "\n")
        fh.write("  ".join(str(display[c]).rjust(w) for c, w in zip(cols, widths)) + "\n")
    return json_path, table_path


def read_report(path: Path | str) -> Dict[str, object]:
    with Path(path).open("r", encoding="utf-8") as fh:
        return json.load(fh)
