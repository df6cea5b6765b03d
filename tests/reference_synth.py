"""A per-detection reference for ``synth.perturb``.

Test-only. It seeds a fresh ``Generator(PCG64(SeedSequence(seed,
spawn_key=(kind, entity))))`` for every stream, builds one ``Detection`` at
a time and draws every false positive with numpy's scalar ``integers`` and
``uniform``; it shares no seeding, decoding or column code with
``rmot_eval.synth``, only the stream kinds and the config type. The new
``perturb`` must return the same detections in the same order.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Sequence

import numpy as np

from rmot_eval.model import BoundingBox, Detection
from rmot_eval.synth import (
    _K_FP,
    _K_JITTER,
    _K_MISS,
    _K_SWITCH,
    PerturbationConfig,
)


def fresh_rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def scalar_false_positives(cfg: PerturbationConfig, frame: int) -> List[Detection]:
    """Frame ``frame``'s false positives, drawn one numpy scalar at a time."""
    lo, hi = cfg.fp_box_size_range
    fw, fh = cfg.frame_size
    rng = fresh_rng(cfg.seed, _K_FP, frame)
    out = []
    for k in range(int(rng.poisson(cfg.fp_rate))):
        w = int(rng.integers(lo, hi + 1))
        h = int(rng.integers(lo, hi + 1))
        x = int(rng.integers(0, max(fw - w, 0) + 1))
        y = int(rng.integers(0, max(fh - h, 0) + 1))
        conf = float(rng.uniform(*cfg.confidence_range))
        ref = float(rng.uniform(*cfg.referring_range))
        box = BoundingBox(float(x), float(y), float(w), float(h))
        out.append(Detection(frame, box, conf, ref, f"fp-{frame}-{k}"))
    return out


def perturb(dets: Sequence[Detection], cfg: PerturbationConfig) -> List[Detection]:
    """Seeded misses, false positives, ID switches and jitter, one detection
    at a time, sorted by (frame, track id) with ties in input order, the
    input's before the false positives."""
    ordered = sorted(dets, key=lambda d: (d.frame, d.track_id))

    remap: Dict[str, Dict[int, str]] = {}
    for tid in sorted({d.track_id for d in ordered}):
        u = fresh_rng(cfg.seed, _K_SWITCH, zlib.crc32(tid.encode("utf-8"))).random(
            size=cfg.sequence_length
        )
        current, n_switch, table = tid, 0, {}
        for f in range(1, cfg.sequence_length + 1):
            if cfg.idswitch_rate > 0.0 and u[f - 1] < cfg.idswitch_rate:
                n_switch += 1
                current = f"{tid}#sw{n_switch}"
            table[f] = current
        remap[tid] = table

    by_frame: Dict[int, List[Detection]] = {}
    for d in ordered:
        by_frame.setdefault(d.frame, []).append(d)

    out: List[Detection] = []
    for frame in sorted(by_frame):
        group = by_frame[frame]
        miss_u = fresh_rng(cfg.seed, _K_MISS, frame).random(size=len(group))
        jit = fresh_rng(cfg.seed, _K_JITTER, frame).integers(
            -cfg.jitter, cfg.jitter + 1, size=(len(group), 4)
        )
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
            out.append(Detection(d.frame, box, d.confidence, d.referring_score, tid))

    if cfg.fp_rate > 0.0:
        for frame in range(1, cfg.sequence_length + 1):
            out.extend(scalar_false_positives(cfg, frame))

    out.sort(key=lambda d: (d.frame, d.track_id))
    return out
