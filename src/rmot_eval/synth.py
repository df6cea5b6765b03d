"""Seeded synthetic scenarios and controlled degradation of perfect predictions.

Randomness comes from numpy's PCG64 seeded through SeedSequence with explicit
spawn keys per entity (track, expression, frame), so outputs are bit-identical
for a given seed regardless of iteration order, platform, or parallelism.
All generated coordinates are integer-valued, which keeps IoU values exactly
reproducible under uniform box scaling in downstream invariance checks.

A call seeds all its streams in one numpy pass (``_streams``), applying
numpy's fixed SeedSequence hash and PCG64 seeding step to the pool of
``SeedSequence(seed)`` and every key at once, and reads each stream through
a generator of its own by setting its state: the draws are those of a
freshly seeded ``PCG64(SeedSequence(seed, spawn_key=(kind, entity)))``.
``perturb`` works on columns and returns a ``UnitBoxes``.

Its false positives are defined by scalar draws, one frame's generator at a
time (``_scalar_false_positives``): a Poisson count, then per false positive
four ``integers`` (w, h, x, y) and two ``uniform`` (confidence, referring
score). ``_false_positives`` takes each frame's raw 64-bit outputs after its
count instead and decodes all frames of a call in one numpy pass, the way
numpy decodes each scalar draw: Lemire's method on the low and high 32-bit
halves for the integers, ``(raw >> 11) * 2**-53`` for the uniforms. A frame
goes back through the scalar draws when the decode cannot prove numpy's
result: when a draw's low word ``(u * n) & 0xFFFFFFFF`` is below its range
size ``n`` (numpy might reject it and draw again), or when a range holds one
value (a size range with lo == hi, a box as wide as the frame), where numpy
draws nothing, or 2**32 values or more, where it draws 64 bits. The seeding
and the decode were checked against numpy 2.4.6 only; SeedSequence's hash
dates from numpy 1.17 (its zero padding of short seeds from 1.19), and
``tests/test_synth.py`` compares both with numpy.
"""

from __future__ import annotations

import operator
import zlib
from dataclasses import dataclass
from numbers import Integral
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .model import (
    Attribute,
    AttributeFrameLabels,
    BoundingBox,
    Detection,
    ExpressionTask,
    GroundTruthTrack,
    SequenceData,
    UnitBoxes,
    names_a_file,
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


def _check_count(cfg: object, name: str) -> None:
    """Raise ``ValueError`` unless field ``name`` of ``cfg`` is an integer >= 0."""
    value = getattr(cfg, name)
    if not _is_int(value) or value < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {value!r}")


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
        for name in ("seed", "sequence_length", "n_tracks", "n_expressions", "max_step"):
            _check_count(self, name)
        if not 0.0 <= self.no_target_fraction <= 1.0:
            raise ValueError("no_target_fraction must lie in [0, 1]")
        _check_pair(self, "frame_size", ordered=False)
        _check_pair(self, "box_size_range", ordered=True)
        if self.box_size_range[1] > min(self.frame_size):
            raise ValueError("boxes cannot exceed the frame")
        if not names_a_file(self.sequence_id):
            raise ValueError(
                "sequence_id must be a string that can name a file or directory "
                "(not empty, '.', '..', 'manifest.json' or 'expressions.json', without '/', "
                f"'\\' or NUL), got {self.sequence_id!r}"
            )


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
        if self.fp_rate < 0:
            raise ValueError("fp_rate must be non-negative")
        for name in ("seed", "jitter", "sequence_length"):
            _check_count(self, name)
        _check_pair(self, "frame_size", ordered=False)
        _check_pair(self, "fp_box_size_range", ordered=True)
        for name in ("confidence_range", "referring_range"):
            lo, hi = getattr(self, name)
            if not 0.0 <= lo <= hi <= 1.0:
                raise ValueError(f"{name} must satisfy 0 <= lo <= hi <= 1, got {(lo, hi)!r}")


_U32 = 0xFFFFFFFF
_U128 = (1 << 128) - 1
# numpy's SeedSequence hash constants and PCG64's multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _hashmix(words: np.ndarray, const: int, mult: int) -> Tuple[np.ndarray, int]:
    """SeedSequence's ``hashmix`` of uint32 ``words``, and the next constant."""
    words = words ^ np.uint32(const)
    const = const * mult & _U32
    words = words * np.uint32(const)
    return words ^ (words >> np.uint32(16)), const


def _streams(seed: int, *groups: Tuple[int, Sequence[int]]) -> List[List[dict]]:
    """For each group ``(kind, entities)``, the list of
    ``PCG64(SeedSequence(seed, spawn_key=(kind, entity))).state``, all from
    one numpy pass (an entity outside 0..2**32 - 1, which numpy keys by more
    words or rejects, goes through numpy itself)."""
    pool = np.random.SeedSequence(seed).pool  # rejects a seed numpy rejects
    words = max(-(-operator.index(seed).bit_length() // 32), 1)
    # the seed took 4 hashmix calls to fill the pool, 12 to mix it and 4
    # per word past the fourth
    const = _INIT_A * pow(_MULT_A, 16 + 4 * max(words - 4, 0), 1 << 32) & _U32
    sizes = [len(entities) for _, entities in groups]
    kinds = np.repeat([kind for kind, _ in groups], sizes).astype(np.int64)
    entities = np.concatenate([np.asarray(e, np.int64) for _, e in groups] + [np.empty(0, int)])
    mixer = np.tile(pool, (len(entities), 1))
    for key in (kinds.astype(np.uint32), entities.astype(np.uint32)):
        for d in range(4):
            mixed, const = _hashmix(key, const, _MULT_A)
            m = np.uint32(_MIX_L) * mixer[:, d] - np.uint32(_MIX_R) * mixed
            mixer[:, d] = m ^ (m >> np.uint32(16))
    const, state = _INIT_B, np.empty((len(entities), 8), np.uint64)
    for i in range(8):
        state[:, i], const = _hashmix(mixer[:, i % 4], const, _MULT_B)
    out = []
    # PCG64 seeds with (seed, inc) = the words as two 128-bit values, high first
    for s_hi, s_lo, i_hi, i_lo in (state[:, ::2] | state[:, 1::2] << np.uint64(32)).tolist():
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _U128
        s = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _U128
        out.append({"bit_generator": "PCG64", "state": {"state": s, "inc": inc},
                    "has_uint32": 0, "uinteger": 0})
    for i in np.flatnonzero((entities < 0) | (entities > _U32)).tolist():
        key = (int(kinds[i]), int(entities[i]))
        out[i] = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)).state
    ends = np.cumsum(sizes).tolist()
    return [out[a:b] for a, b in zip([0] + ends, ends)]


def _at(gen: np.random.Generator, state: dict) -> np.random.Generator:
    """``gen``, a generator of the caller's own, set to read the stream ``state``."""
    gen.bit_generator.state = state
    return gen


def _ranks(ids: Sequence[str], table: List[str]) -> np.ndarray:
    """Each of ``ids``' index in ``table``, its distinct values in order."""
    index = {t: i for i, t in enumerate(table)}
    return np.fromiter(map(index.__getitem__, ids), np.intp, len(ids))


def _crc(text: str) -> int:
    return zlib.crc32(text.encode("utf-8"))


@dataclass(frozen=True)
class Scenario:
    """One generated sequence plus its perfect per-expression predictions."""

    sequence: SequenceData
    tasks: Tuple[ExpressionTask, ...]
    labels: AttributeFrameLabels
    predictions: Mapping[Tuple[str, str], Tuple[Detection, ...]]


def _generate_track(cfg: ScenarioConfig, index: int, rng: np.random.Generator) -> GroundTruthTrack:
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


def _generate_labels(cfg: ScenarioConfig, rng: np.random.Generator) -> AttributeFrameLabels:
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
    groups = (_K_TRACK, range(cfg.n_tracks)), (_K_ATTR, [0]), (_K_EXPR, range(cfg.n_expressions))
    track_s, (attr_s,), expr_s = _streams(cfg.seed, *groups)
    gen = np.random.Generator(np.random.PCG64(0))
    made = (_generate_track(cfg, i, _at(gen, state)) for i, state in enumerate(track_s))
    tracks = {t.track_id: t for t in made}
    sequence = SequenceData(
        sequence_id=cfg.sequence_id,
        length=cfg.sequence_length,
        tracks=tracks,
        split=cfg.split,
    )
    labels = _generate_labels(cfg, _at(gen, attr_s))

    track_ids = sorted(tracks)
    tasks: List[ExpressionTask] = []
    predictions: Dict[Tuple[str, str], Tuple[Detection, ...]] = {}
    for i, state in enumerate(expr_s):
        rng = _at(gen, state)
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


def perturb(dets: Sequence[Detection], cfg: PerturbationConfig) -> UnitBoxes:
    """Apply seeded misses, false positives, ID switches, and jitter.

    Deterministic in (input set, seed): detections are processed in sorted
    (frame, track) order with per-frame and per-track substreams, so the
    caller's ordering never changes the outcome. Miss decisions use one
    uniform draw per detection thresholded by miss_rate, which makes retained
    sets nested across increasing miss rates for a fixed seed.

    The result is sorted by (frame, track id); rows of one frame and id
    keep their order, the input's before the false positives.
    """
    src = UnitBoxes.from_detections(dets)
    names = sorted(set(src.ids))
    tid = _ranks(src.ids, names)[src.track]
    order = np.lexsort((tid, src.frame))
    frame, tid = src.frame[order], tid[order]
    rows = np.column_stack([src.xywh, src.confidence, src.referring_score])[order]
    frames, first, counts = np.unique(frame, return_index=True, return_counts=True)
    length = cfg.sequence_length
    switch_s, miss_s, jitter_s, fp_s = _streams(
        cfg.seed,
        (_K_SWITCH, [_crc(t) for t in names] if cfg.idswitch_rate > 0.0 else []),
        (_K_MISS, frames),
        (_K_JITTER, frames),
        (_K_FP, range(1, length + 1) if cfg.fp_rate > 0.0 else []),
    )
    gen = np.random.Generator(np.random.PCG64(0))

    # per-track switch schedules: a fresh id from each switch frame onward
    switches = np.zeros(len(frame), np.int64)
    if switch_s:
        u = np.stack([_at(gen, s).random(length) for s in switch_s])
        inside = (frame >= 1) & (frame <= length)
        switches[inside] = np.cumsum(u < cfg.idswitch_rate, axis=1)[tid[inside], frame[inside] - 1]

    miss_u = np.empty(len(frame))
    jit = np.zeros((len(frame), 4))
    for start, count, miss, jitter in zip(first.tolist(), counts.tolist(), miss_s, jitter_s):
        miss_u[start:start + count] = _at(gen, miss).random(count)
        if cfg.jitter > 0:
            draw = _at(gen, jitter).integers(-cfg.jitter, cfg.jitter + 1, size=(count, 4))
            jit[start:start + count] = draw
    if cfg.jitter > 0:
        x, y, w, h = rows[:, :4].T
        x1, y1, x2, y2 = x + jit[:, 0], y + jit[:, 1], x + w + jit[:, 2], y + h + jit[:, 3]
        rows[:, :4] = np.stack([x1, y1, np.maximum(x2 - x1, 1.0), np.maximum(y2 - y1, 1.0)], 1)
    kept = np.flatnonzero(miss_u >= cfg.miss_rate)
    labels = [names[t] if n == 0 else f"{names[t]}#sw{n}"
              for t, n in zip(tid[kept].tolist(), switches[kept].tolist())]
    fp_frame, fp_k, fp = _false_positives(cfg, gen, fp_s)
    labels += [f"fp-{f}-{k}" for f, k in zip(fp_frame.tolist(), fp_k.tolist())]
    frame = np.concatenate([frame[kept], fp_frame])
    table = sorted(set(labels))
    code = _ranks(labels, table)
    order = np.lexsort((code, frame))
    # ids in first-appearance order, as UnitBoxes.from_detections gives them
    seen, at, track = np.unique(code[order], return_index=True, return_inverse=True)
    appear = np.argsort(at)
    values = np.concatenate([rows[kept], fp])[order]
    ids = [table[c] for c in seen[appear].tolist()]
    track = np.argsort(appear)[track]
    return UnitBoxes(frame[order], track, ids, values[:, :4], values[:, 4], values[:, 5])


def _scalar_false_positives(cfg: PerturbationConfig, rng: np.random.Generator) -> List[tuple]:
    """One frame's false positives as (x, y, w, h, confidence, referring
    score), drawn one numpy scalar at a time from the frame's stream ``rng``.

    This defines the stream: a Poisson count, then for each false positive
    its width, height, x and y (``integers``) and its confidence and
    referring score (``uniform``). ``_false_positives`` decodes the same
    stream in one pass and falls back to this for a frame it cannot decode.
    """
    lo, hi = cfg.fp_box_size_range
    fw, fh = cfg.frame_size
    out = []
    for _ in range(int(rng.poisson(cfg.fp_rate))):
        w = int(rng.integers(lo, hi + 1))
        h = int(rng.integers(lo, hi + 1))
        x = int(rng.integers(0, max(fw - w, 0) + 1))
        y = int(rng.integers(0, max(fh - h, 0) + 1))
        conf = float(rng.uniform(*cfg.confidence_range))
        ref = float(rng.uniform(*cfg.referring_range))
        out.append((x, y, w, h, conf, ref))
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


def _false_positives(
    cfg: PerturbationConfig, gen: np.random.Generator, states: Sequence[dict]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frame f's false positives, from the stream ``states[f - 1]``, as
    columns: frame, index in the frame, and (x, y, w, h, confidence,
    referring score), equal to ``_scalar_false_positives``' (the module
    docstring gives the decode and when a frame falls back).

    Poisson draws only doubles, so after a frame's count no buffered 32-bit
    half is pending, and each false positive's scalar draws read the next
    four raw outputs: w and h from the low and high half of the first, x and
    y from those of the second, the two scores from the third and fourth.
    """
    lo, hi = cfg.fp_box_size_range
    fw, fh = cfg.frame_size
    counts = []
    raws = [np.empty(0, np.uint64)]
    for state in states:
        count = int(_at(gen, state).poisson(cfg.fp_rate))
        counts.append(count)
        raws.append(gen.bit_generator.random_raw(4 * count))
    starts = np.cumsum([0] + counts)
    frame = np.repeat(np.arange(1, len(counts) + 1), counts)
    fp = np.empty((len(frame), 6))
    redo = np.flatnonzero(counts) + 1
    # sides below 2**32 keep every x and y range, max(fw - w, 0) + 1 with
    # w >= 1, below 2**32 values
    if 0 < hi - lo < _U32 and max(fw, fh) <= _U32:
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
        fp[:] = np.stack([x, y, w, h, conf, ref], axis=1)
        redo = np.unique(frame[~(w_ok & h_ok & x_ok & y_ok)])
    for f in redo.tolist():
        fp[starts[f - 1]:starts[f]] = _scalar_false_positives(cfg, _at(gen, states[f - 1]))
    return frame, np.arange(len(frame)) - starts[frame - 1], fp
