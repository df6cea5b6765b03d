"""Seeded synthetic scenarios and controlled degradation of perfect predictions.

Randomness comes from numpy's PCG64 seeded through SeedSequence with explicit
spawn keys per entity (track, expression, frame), so outputs are bit-identical
for a given seed regardless of iteration order, platform, or parallelism.
All generated coordinates are integer-valued, which keeps IoU values exactly
reproducible under uniform box scaling in downstream invariance checks.

``perturb``'s false positives are defined by scalar draws, one frame's
generator at a time (``_scalar_false_positives``): a Poisson count, then per
false positive four ``integers`` (w, h, x, y) and two ``uniform`` (confidence,
referring score). ``_false_positives`` takes each frame's raw 64-bit outputs
after its count instead and decodes all frames of a call in one numpy pass,
the way numpy decodes each scalar draw: Lemire's method on the low and high
32-bit halves for the integers, ``(raw >> 11) * 2**-53`` for the uniforms.
The streams and every output are unchanged. A frame goes back through the
scalar draws when the decode cannot prove numpy's result: when a draw's low
word ``(u * n) & 0xFFFFFFFF`` is below its range size ``n`` (numpy might
reject it and draw again), or when a range holds one value (a size range
with lo == hi, a box as wide as the frame), where numpy draws nothing, or
2**32 values or more, where it draws 64 bits. The decode was checked against
numpy 2.4.6 only; the Lemire and PCG64 half-word paths it reads date from
numpy 1.17, and ``tests/test_synth.py`` compares it with the scalar draws.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from itertools import islice
from numbers import Integral
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .model import (
    Attribute,
    AttributeFrameLabels,
    BoundingBox,
    Detection,
    ExpressionTask,
    GroundTruthTrack,
    SequenceData,
)

# spawn-key stream kinds
_K_TRACK = 1
_K_EXPR = 2
_K_ATTR = 3
_K_MISS = 4
_K_FP = 5
_K_SWITCH = 6
_K_JITTER = 7

_TEMPLATES = (
    "vehicles moving along the main road",
    "people walking near the crossing",
    "dark cars turning at the junction",
    "cyclists heading towards the bridge",
    "white vans parked by the roadside",
    "pedestrians crossing from left to right",
    "buses stopping at the station",
    "trucks driving away from the camera",
)


def _is_int(value: object) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def _check_pair(cfg: object, name: str, ordered: bool) -> None:
    """Store the field ``name`` of ``cfg`` as a tuple. Raise ``ValueError``
    unless it holds two integers >= 1 (a bool is none), the first at most
    the second if ``ordered``."""
    pair = tuple(getattr(cfg, name))
    ok = len(pair) == 2 and all(_is_int(v) and v >= 1 for v in pair)
    if not ok or (ordered and pair[0] > pair[1]):
        order = ", the first at most the second" if ordered else ""
        raise ValueError(f"{name} must hold two integers >= 1{order}, got {pair!r}")
    object.__setattr__(cfg, name, pair)


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    sequence_length: int = 100
    n_tracks: int = 5
    frame_size: Tuple[int, int] = (1920, 1080)
    box_size_range: Tuple[int, int] = (20, 80)
    max_step: int = 8
    n_expressions: int = 4
    no_target_fraction: float = 0.0
    sequence_id: str = "synth-0000"
    split: str = "in-domain-test"

    def __post_init__(self) -> None:
        if self.sequence_length < 0 or self.n_tracks < 0 or self.n_expressions < 0:
            raise ValueError("counts must be non-negative")
        if not 0.0 <= self.no_target_fraction <= 1.0:
            raise ValueError("no_target_fraction must lie in [0, 1]")
        _check_pair(self, "frame_size", ordered=False)
        _check_pair(self, "box_size_range", ordered=True)
        if not _is_int(self.max_step) or self.max_step < 0:
            raise ValueError(f"max_step must be an integer >= 0, got {self.max_step!r}")
        if self.box_size_range[1] > min(self.frame_size):
            raise ValueError("boxes cannot exceed the frame")


@dataclass(frozen=True)
class PerturbationConfig:
    seed: int
    miss_rate: float = 0.0
    fp_rate: float = 0.0  # expected false positives per frame
    idswitch_rate: float = 0.0  # per-track per-frame switch probability
    jitter: int = 0  # max corner offset in pixels
    frame_size: Tuple[int, int] = (1920, 1080)
    sequence_length: int = 100
    fp_box_size_range: Tuple[int, int] = (20, 80)
    confidence_range: Tuple[float, float] = (0.5, 1.0)
    referring_range: Tuple[float, float] = (0.4, 1.0)

    def __post_init__(self) -> None:
        if not 0.0 <= self.miss_rate <= 1.0:
            raise ValueError("miss_rate must lie in [0, 1]")
        if not 0.0 <= self.idswitch_rate <= 1.0:
            raise ValueError("idswitch_rate must lie in [0, 1]")
        if self.fp_rate < 0 or self.jitter < 0:
            raise ValueError("fp_rate and jitter must be non-negative")
        _check_pair(self, "frame_size", ordered=False)
        _check_pair(self, "fp_box_size_range", ordered=True)
        for name in ("confidence_range", "referring_range"):
            lo, hi = getattr(self, name)
            if not 0.0 <= lo <= hi <= 1.0:
                raise ValueError(f"{name} must satisfy 0 <= lo <= hi <= 1, got {(lo, hi)!r}")


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def _crc(text: str) -> int:
    return zlib.crc32(text.encode("utf-8"))


@dataclass(frozen=True)
class Scenario:
    """One generated sequence plus its perfect per-expression predictions."""

    sequence: SequenceData
    tasks: Tuple[ExpressionTask, ...]
    labels: AttributeFrameLabels
    predictions: Mapping[Tuple[str, str], Tuple[Detection, ...]]


def _generate_track(cfg: ScenarioConfig, index: int) -> GroundTruthTrack:
    rng = _rng(cfg.seed, _K_TRACK, index)
    fw, fh = cfg.frame_size
    lo, hi = cfg.box_size_range
    w = int(rng.integers(lo, hi + 1))
    h = int(rng.integers(lo, hi + 1))
    x = int(rng.integers(0, fw - w + 1))
    y = int(rng.integers(0, fh - h + 1))
    boxes: Dict[int, BoundingBox] = {}
    steps = rng.integers(-cfg.max_step, cfg.max_step + 1, size=(cfg.sequence_length, 2))
    for f in range(1, cfg.sequence_length + 1):
        boxes[f] = BoundingBox(float(x), float(y), float(w), float(h))
        dx, dy = steps[f - 1]
        x = min(max(x + int(dx), 0), fw - w)
        y = min(max(y + int(dy), 0), fh - h)
    return GroundTruthTrack(track_id=f"t{index:03d}", boxes=boxes)


def _generate_labels(cfg: ScenarioConfig) -> AttributeFrameLabels:
    rng = _rng(cfg.seed, _K_ATTR, 0)
    n = cfg.sequence_length
    night_len = max(n // 4, 1)
    night_start = int(rng.integers(1, max(n - night_len + 1, 1) + 1))
    others = [
        Attribute.VIEWPOINT_CHANGE,
        Attribute.SCALE_VARIATION,
        Attribute.OCCLUSION,
        Attribute.FAST_MOTION,
        Attribute.ROTATION,
        Attribute.LOW_RESOLUTION,
    ]
    draws = rng.random(size=(n, len(others)))
    flags: Dict[int, frozenset] = {}
    for f in range(1, n + 1):
        active = {
            Attribute.NIGHT
            if night_start <= f < night_start + night_len
            else Attribute.DAY
        }
        for i, attr in enumerate(others):
            if draws[f - 1, i] < 0.3:
                active.add(attr)
        # coverage guarantee: with >= 16 frames every attribute occurs at
        # least once, at a fixed early frame per attribute
        if n >= 16:
            if f == 1:
                active.discard(Attribute.NIGHT)
                active.add(Attribute.DAY)
            elif f == 2:
                active.discard(Attribute.DAY)
                active.add(Attribute.NIGHT)
            elif 3 <= f <= 8:
                active.add(others[f - 3])
        flags[f] = frozenset(active)
    return AttributeFrameLabels(sequence_id=cfg.sequence_id, flags=flags)


def generate_scenario(cfg: ScenarioConfig) -> Scenario:
    """Deterministically generate ground truth and perfect predictions."""
    tracks = {t.track_id: t for t in (_generate_track(cfg, i) for i in range(cfg.n_tracks))}
    sequence = SequenceData(
        sequence_id=cfg.sequence_id,
        length=cfg.sequence_length,
        tracks=tracks,
        split=cfg.split,
    )
    labels = _generate_labels(cfg)

    track_ids = sorted(tracks)
    tasks: List[ExpressionTask] = []
    predictions: Dict[Tuple[str, str], Tuple[Detection, ...]] = {}
    for i in range(cfg.n_expressions):
        rng = _rng(cfg.seed, _K_EXPR, i)
        expr_id = f"e{i:03d}"
        text = _TEMPLATES[int(rng.integers(0, len(_TEMPLATES)))] + f" variant {i}"
        no_target = bool(rng.random() < cfg.no_target_fraction)
        targets: Dict[int, Dict[str, BoundingBox]] = {}
        if not no_target and track_ids and cfg.sequence_length > 0:
            n_sel = int(rng.integers(1, len(track_ids) + 1))
            sel = sorted(rng.choice(len(track_ids), size=n_sel, replace=False).tolist())
            a = int(rng.integers(1, cfg.sequence_length + 1))
            b = int(rng.integers(a, cfg.sequence_length + 1))
            for f in range(a, b + 1):
                row = {}
                for s in sel:
                    tid = track_ids[s]
                    box = tracks[tid].boxes.get(f)
                    if box is not None:
                        row[tid] = box
                if row:
                    targets[f] = row
        task = ExpressionTask(
            sequence_id=cfg.sequence_id,
            expression_id=expr_id,
            text=text,
            targets=targets,
        )
        tasks.append(task)
        dets = tuple(
            Detection(frame=f, box=box, confidence=1.0, referring_score=1.0, track_id=tid)
            for f in sorted(targets)
            for tid, box in sorted(targets[f].items())
        )
        predictions[(cfg.sequence_id, expr_id)] = dets
    return Scenario(
        sequence=sequence,
        tasks=tuple(tasks),
        labels=labels,
        predictions=predictions,
    )


def perturb(dets: Sequence[Detection], cfg: PerturbationConfig) -> List[Detection]:
    """Apply seeded misses, false positives, ID switches, and jitter.

    Deterministic in (input set, seed): detections are processed in sorted
    (frame, track) order with per-frame and per-track substreams, so the
    caller's ordering never changes the outcome. Miss decisions use one
    uniform draw per detection thresholded by miss_rate, which makes retained
    sets nested across increasing miss rates for a fixed seed.
    """
    ordered = sorted(dets, key=lambda d: (d.frame, d.track_id))

    # per-track switch schedules: fresh id from the switch frame onward
    track_ids = sorted({d.track_id for d in ordered})
    remap: Dict[str, Dict[int, str]] = {}
    for tid in track_ids:
        rng = _rng(cfg.seed, _K_SWITCH, _crc(tid))
        u = rng.random(size=cfg.sequence_length)
        current = tid
        n_switch = 0
        table: Dict[int, str] = {}
        for f in range(1, cfg.sequence_length + 1):
            if cfg.idswitch_rate > 0.0 and u[f - 1] < cfg.idswitch_rate:
                n_switch += 1
                current = f"{tid}#sw{n_switch}"
            table[f] = current
        remap[tid] = table

    out: List[Detection] = []
    by_frame: Dict[int, List[Detection]] = {}
    for d in ordered:
        by_frame.setdefault(d.frame, []).append(d)

    for frame in sorted(by_frame):
        group = by_frame[frame]
        miss_rng = _rng(cfg.seed, _K_MISS, frame)
        jit_rng = _rng(cfg.seed, _K_JITTER, frame)
        miss_u = miss_rng.random(size=len(group))
        jit = jit_rng.integers(-cfg.jitter, cfg.jitter + 1, size=(len(group), 4))
        for i, d in enumerate(group):
            if miss_u[i] < cfg.miss_rate:
                continue
            box = d.box
            if cfg.jitter > 0:
                x1 = box.x + float(jit[i, 0])
                y1 = box.y + float(jit[i, 1])
                x2 = box.x + box.w + float(jit[i, 2])
                y2 = box.y + box.h + float(jit[i, 3])
                box = BoundingBox(x1, y1, max(x2 - x1, 1.0), max(y2 - y1, 1.0))
            tid = remap[d.track_id].get(d.frame, d.track_id)
            out.append(
                Detection(
                    frame=d.frame,
                    box=box,
                    confidence=d.confidence,
                    referring_score=d.referring_score,
                    track_id=tid,
                )
            )

    if cfg.fp_rate > 0.0:
        out.extend(_false_positives(cfg))

    out.sort(key=lambda d: (d.frame, d.track_id))
    return out


_U32 = 0xFFFFFFFF


def _false_positive(
    frame: int, k: int, xywh: Sequence[float], conf: float, ref: float
) -> Detection:
    return Detection(frame, BoundingBox(*xywh), conf, ref, f"fp-{frame}-{k}")


def _scalar_false_positives(cfg: PerturbationConfig, frame: int) -> List[Detection]:
    """Frame ``frame``'s false positives, drawn one numpy scalar at a time.

    This defines the stream: a Poisson count, then for each false positive
    its width, height, x and y (``integers``) and its confidence and
    referring score (``uniform``). ``_false_positives`` decodes the same
    stream in one pass and falls back to this for a frame it cannot decode.
    """
    lo, hi = cfg.fp_box_size_range
    fw, fh = cfg.frame_size
    rng = _rng(cfg.seed, _K_FP, frame)
    out = []
    for k in range(int(rng.poisson(cfg.fp_rate))):
        w = int(rng.integers(lo, hi + 1))
        h = int(rng.integers(lo, hi + 1))
        x = int(rng.integers(0, max(fw - w, 0) + 1))
        y = int(rng.integers(0, max(fh - h, 0) + 1))
        conf = float(rng.uniform(*cfg.confidence_range))
        ref = float(rng.uniform(*cfg.referring_range))
        out.append(_false_positive(frame, k, (float(x), float(y), float(w), float(h)), conf, ref))
    return out


def _lemire(u32: np.ndarray, n: int | np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """numpy's draw of one of ``n`` values from 32 random bits, and where it is exact.

    ``Generator.integers`` over ``n`` values (2 <= n < 2**32) takes 32 bits
    ``u`` and returns ``(u * n) >> 32`` (Lemire's method), unless the low
    word ``(u * n) & 0xFFFFFFFF`` falls below its rejection threshold, which
    is less than ``n``; then it draws again. A low word of at least ``n``
    therefore proves the draw. A range of one value draws no bits at all.
    """
    n = np.asarray(n, dtype=np.uint64)
    m = u32 * n
    return (m >> 32).astype(np.int64), (n >= 2) & ((m & _U32) >= n)


def _uniform(raw: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """numpy's ``uniform(lo, hi)`` from one raw 64-bit output, as
    ``lo + (hi - lo) * next_double`` with ``next_double = (raw >> 11) * 2**-53``."""
    return lo + (hi - lo) * ((raw >> 11) * 2.0**-53)


def _false_positives(cfg: PerturbationConfig) -> List[Detection]:
    """Every frame's false positives, equal to ``_scalar_false_positives``'s
    (the module docstring gives the decode and when a frame falls back).

    Poisson draws only doubles, so after a frame's count no buffered 32-bit
    half is pending, and each false positive's scalar draws read the next
    four raw outputs: w and h from the low and high half of the first, x and
    y from those of the second, the two scores from the third and fourth.
    """
    lo, hi = cfg.fp_box_size_range
    fw, fh = cfg.frame_size
    frames = range(1, cfg.sequence_length + 1)
    # sides below 2**32 keep every x and y range, max(fw - w, 0) + 1 with
    # w >= 1, below 2**32 values
    if not (0 < hi - lo < _U32 and max(fw, fh) <= _U32):
        return [d for frame in frames for d in _scalar_false_positives(cfg, frame)]

    counts = []
    raws = [np.empty(0, np.uint64)]
    for frame in frames:
        rng = _rng(cfg.seed, _K_FP, frame)
        count = int(rng.poisson(cfg.fp_rate))
        counts.append(count)
        raws.append(rng.bit_generator.random_raw(4 * count))
    raw = np.concatenate(raws).reshape(-1, 4)
    low, high = raw[:, :2] & _U32, raw[:, :2] >> 32

    w, w_ok = _lemire(low[:, 0], hi - lo + 1)
    h, h_ok = _lemire(high[:, 0], hi - lo + 1)
    w += lo
    h += lo
    x, x_ok = _lemire(low[:, 1], np.maximum(fw - w, 0) + 1)
    y, y_ok = _lemire(high[:, 1], np.maximum(fh - h, 0) + 1)
    conf = _uniform(raw[:, 2], *cfg.confidence_range)
    ref = _uniform(raw[:, 3], *cfg.referring_range)
    inexact = set(np.repeat(frames, counts)[~(w_ok & h_ok & x_ok & y_ok)].tolist())

    xywh = np.stack([x, y, w, h], axis=1).astype(np.float64)
    rows = zip(xywh.tolist(), conf.tolist(), ref.tolist())
    out: List[Detection] = []
    for frame, count in zip(frames, counts):
        drawn = list(islice(rows, count))
        if frame in inexact:
            out.extend(_scalar_false_positives(cfg, frame))
        else:
            out.extend(_false_positive(frame, k, *row) for k, row in enumerate(drawn))
    return out
