"""Per-object reference writers for ``gt.txt`` and prediction files.

Test-only. ``write_gt`` walks the tracks as a dict and ``write_predictions``
loops over a list of ``Detection``, each formatting one number at a time;
they share no column, sorting or formatting code with
``rmot_eval.io_formats``. The column writer must write their bytes.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Sequence

from rmot_eval.model import Detection, GroundTruthTrack


def _fmt(v: float) -> str:
    return repr(int(v)) if float(v).is_integer() else repr(float(v))


def write_gt(tracks: Mapping[str, GroundTruthTrack], path: Path) -> None:
    rows = []
    for tid in sorted(tracks):
        for frame in sorted(tracks[tid].boxes):
            rows.append((frame, tid, tracks[tid].boxes[frame]))
    rows.sort(key=lambda r: (r[0], r[1]))
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        for frame, tid, b in rows:
            fh.write(f"{frame},{tid},{_fmt(b.x)},{_fmt(b.y)},{_fmt(b.w)},{_fmt(b.h)}\n")


def write_predictions(dets: Sequence[Detection], path: Path) -> None:
    ordered = sorted(dets, key=lambda d: (d.frame, d.track_id))
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        for d in ordered:
            b = d.box
            fh.write(
                f"{d.frame},{d.track_id},{_fmt(b.x)},{_fmt(b.y)},{_fmt(b.w)},{_fmt(b.h)},"
                f"{float(d.confidence)!r},{float(d.referring_score)!r}\n"
            )
