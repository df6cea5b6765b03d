"""A plain-loop reference evaluator, written from the HOTA definitions.

Test-only. It shares no matching or accumulation code with the engine: it
uses only the data types, the scalar :func:`rmot_eval.model.iou` and the
brute-force :func:`rmot_eval.assignment.solve_oracle`. The definitions are
Luiten et al., "HOTA: A Higher Order Metric for Evaluating Multi-Object
Tracking", IJCV 2021, with this project's conventions (README):

* A unit is one (sequence, expression). Its predictions are filtered by the
  class-score and referring thresholds, then every (alpha, frame) of the
  evaluated frames is matched on its own.
* A (gt, pred) pair is feasible on a frame when both are present and their
  IoU is at least alpha. Its prior association score is
  ``n / (|gt| + |pred| - n)``, where ``n`` counts its feasible frames and
  ``|gt|``, ``|pred|`` count each track's boxes, all over the evaluated
  frames.
* A frame's matching maximises the sum of ``prior + IoU / (2 F)`` over
  feasible pairs, ``F`` the number of evaluated frames. Ties follow the
  oracle's exact order over rows and columns sorted by content: first frame,
  the box there, box count, the left-to-right sums of x and of y in
  insertion order, track id.
* A TP of pair (g, p) scores ``A = TPA / (TPA + FNA + FPA)``,
  ``Re = TPA / |g|`` and ``Pr = TPA / |p|``, TPA the pair's matched frames.
* An attribute restricts every unit of a sequence that flags it to the
  flagged frames; the restriction is scored as a problem of its own.
* A unit's float sums are numpy's sums of dense arrays in content order (see
  :func:`unit_tallies`), which the engine must reproduce to the bit.
* Units are pooled by summing tallies, floats with ``fsum``, then finalised
  per alpha and averaged over alpha; ``macro`` averages per-unit reports.
  HOTA_S and HOTA_M are geometric means of the attributes present.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from rmot_eval.assignment import WeightMatrix, solve_oracle
from rmot_eval.model import (
    MOTION_ATTRIBUTES,
    SCENE_ATTRIBUTES,
    Attribute,
    BoundingBox,
    Detection,
    EvalConfig,
    iou,
)

# (alpha, tp, fn, fp, iou_sum, ass_a_sum, ass_re_sum, ass_pr_sum)
Tally = Tuple[float, int, int, int, float, float, float, float]

HEADLINE = ("HOTA", "DetA", "AssA", "DetRe", "DetPr", "AssRe", "AssPr", "LocA")


def content_order(tracks: Mapping[str, List[Tuple[int, BoundingBox]]]) -> List[str]:
    """Track ids sorted by content; ``tracks`` maps an id to its (frame, box)
    list in insertion order."""

    def key(tid: str):
        boxes = tracks[tid]
        first, fb = min(boxes, key=lambda fbox: fbox[0])
        sx = sy = 0.0
        for _, b in boxes:
            sx += b.x
            sy += b.y
        return (first, fb.x, fb.y, fb.w, fb.h, len(boxes), sx, sy, tid)

    return sorted(tracks, key=key)


def unit_tallies(
    targets: Mapping[int, Mapping[str, BoundingBox]],
    preds: Sequence[Detection],
    frames: Sequence[int],
    alphas: Sequence[float],
) -> Tuple[List[Tally], List[Counter]]:
    """One unit's tallies at every alpha, over the given frames only, and
    at every alpha its TPA per matched (gt id, pred id) pair."""
    frame_list = sorted(set(frames))
    keep = set(frame_list)
    gt: Dict[str, List[Tuple[int, BoundingBox]]] = {}
    for f, row in targets.items():
        if f in keep:
            for tid, b in row.items():
                gt.setdefault(tid, []).append((f, b))
    pr: Dict[str, List[Tuple[int, BoundingBox]]] = {}
    for d in preds:
        if d.frame in keep:
            pr.setdefault(d.track_id, []).append((d.frame, d.box))
    gt_ids, pr_ids = content_order(gt), content_order(pr)
    gt_at = {tid: dict(boxes) for tid, boxes in gt.items()}
    pr_at = {tid: dict(boxes) for tid, boxes in pr.items()}
    n_frames = len(frame_list)
    total_gt = sum(len(b) for b in gt.values())
    total_pr = sum(len(b) for b in pr.values())

    out: List[Tally] = []
    tpas: List[Counter] = []
    for alpha in alphas:

        def overlap(g: str, p: str, f: int) -> Optional[float]:
            """The pair's IoU on frame f if it is feasible there, else None."""
            if f not in gt_at[g] or f not in pr_at[p]:
                return None
            v = iou(gt_at[g][f], pr_at[p][f])
            return v if v >= alpha else None

        prior: Dict[Tuple[str, str], float] = {}
        for g in gt_ids:
            for p in pr_ids:
                n = sum(overlap(g, p, f) is not None for f in frame_list)
                prior[g, p] = n / (len(gt[g]) + len(pr[p]) - n) if n else 0.0

        matches: List[Tuple[int, str, str]] = []
        for f in frame_list:
            rows = [g for g in gt_ids if f in gt_at[g]]
            cols = [p for p in pr_ids if f in pr_at[p]]
            cells = [[overlap(g, p, f) for p in cols] for g in rows]
            if not any(v is not None for row in cells for v in row):
                continue
            weights = [
                [0.0 if v is None else prior[g, p] + v / (2.0 * n_frames) for p, v in zip(cols, row)]
                for g, row in zip(rows, cells)
            ]
            mask = [[v is not None for v in row] for row in cells]
            result = solve_oracle(WeightMatrix(weights=np.array(weights), mask=np.array(mask)))
            matches.extend((f, rows[r], cols[c]) for r, c in result.pairs)

        # The float sums are numpy sums of dense arrays in content order: the
        # matched IoUs in an (F, G, P) array, and each (g, p) cell's three
        # association terms, TPA times A, Re and Pr, in a (3, G, P) array.
        tpa = Counter((g, p) for _, g, p in matches)
        ious = np.zeros((n_frames, len(gt_ids), len(pr_ids)))
        for f, g, p in matches:
            at = frame_list.index(f), gt_ids.index(g), pr_ids.index(p)
            ious[at] = iou(gt_at[g][f], pr_at[p][f])
        terms = np.zeros((3, len(gt_ids), len(pr_ids)))
        for (g, p), n in tpa.items():
            gi, pi = gt_ids.index(g), pr_ids.index(p)
            terms[:, gi, pi] = (
                n / (len(gt[g]) + len(pr[p]) - n) * n,
                n / len(gt[g]) * n,
                n / len(pr[p]) * n,
            )
        tp = len(matches)
        sums = [float(ious.sum()), *terms.sum((1, 2)).tolist()]
        out.append((alpha, tp, total_gt - tp, total_pr - tp, *sums))
        tpas.append(tpa)
    return out, tpas


def pool(units: Sequence[Sequence[Tally]]) -> List[Tally]:
    """Sum per-unit tallies at each alpha."""
    out: List[Tally] = []
    for rows in zip(*units):
        out.append(
            (
                rows[0][0],
                sum(r[1] for r in rows),
                sum(r[2] for r in rows),
                sum(r[3] for r in rows),
                *(math.fsum(r[i] for r in rows) for i in range(4, 8)),
            )
        )
    return out


def finalize(tallies: Sequence[Tally]) -> Dict[str, object]:
    """Headline percentages averaged over alpha, plus the per-alpha rows."""
    per_alpha = []
    for alpha, tp, fn, fp, iou_sum, a_sum, re_sum, pr_sum in tallies:
        if tp + fn + fp == 0:
            row = dict.fromkeys(HEADLINE, 1.0)
        else:
            det_a = tp / (tp + fn + fp)
            ass = [s / tp if tp else 0.0 for s in (a_sum, re_sum, pr_sum, iou_sum)]
            row = {
                "HOTA": math.sqrt(det_a * ass[0]),
                "DetA": det_a,
                "AssA": ass[0],
                "DetRe": tp / (tp + fn) if tp + fn else 0.0,
                "DetPr": tp / (tp + fp) if tp + fp else 0.0,
                "AssRe": ass[1],
                "AssPr": ass[2],
                "LocA": ass[3],
            }
        row.update(alpha=alpha, tp=tp, fn=fn, fp=fp)
        per_alpha.append(row)
    report: Dict[str, object] = {
        k: 100.0 * math.fsum(r[k] for r in per_alpha) / len(per_alpha) for k in HEADLINE
    }
    report["per_alpha"] = per_alpha
    return report


def macro_average(reports: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Mean of per-unit reports; per-alpha counts are summed."""
    n = len(reports)
    per_alpha = []
    for rows in zip(*(r["per_alpha"] for r in reports)):
        row = {k: math.fsum(r[k] for r in rows) / n for k in HEADLINE}
        row.update(alpha=rows[0]["alpha"], **{c: sum(r[c] for r in rows) for c in ("tp", "fn", "fp")})
        per_alpha.append(row)
    report: Dict[str, object] = {k: math.fsum(r[k] for r in reports) / n for k in HEADLINE}
    report["per_alpha"] = per_alpha
    return report


def geometric_mean(values: Sequence[float]) -> float:
    if any(v == 0.0 for v in values):
        return 0.0
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def reference_evaluate(bundle, predictions, cfg: EvalConfig, macro: bool = False):
    """(report, attribute report or None) as plain dicts."""
    alphas = cfg.alpha_grid
    main: List[List[Tally]] = []
    per_attr: Dict[str, List[List[Tally]]] = {a.value: [] for a in Attribute}
    for task in bundle.tasks:
        length = bundle.sequences[task.sequence_id].length
        dets = [
            d
            for d in predictions.get((task.sequence_id, task.expression_id), ())
            if d.confidence >= cfg.score_threshold and d.referring_score >= cfg.beta_ref
        ]
        main.append(unit_tallies(task.targets, dets, range(1, length + 1), alphas)[0])
        labels = bundle.attributes.get(task.sequence_id)
        if labels is None:
            continue
        for attr in Attribute:
            flagged = [f for f in sorted(labels.flags) if attr in labels.flags[f]]
            if flagged:
                tallies, _ = unit_tallies(task.targets, dets, flagged, alphas)
                per_attr[attr.value].append(tallies)

    empty = [(a, 0, 0, 0, 0.0, 0.0, 0.0, 0.0) for a in alphas]
    if macro and main:
        report = macro_average([finalize(u) for u in main])
    else:
        report = finalize(pool(main) if main else empty)

    if not bundle.attributes:
        return report, None
    scores = {name: finalize(pool(u))["HOTA"] if u else None for name, u in per_attr.items()}

    def compose(members):
        present = [scores[a.value] for a in members if scores[a.value] is not None]
        return (geometric_mean(present) if present else None), len(present)

    hota_s, n_s = compose(SCENE_ATTRIBUTES)
    hota_m, n_m = compose(MOTION_ATTRIBUTES)
    attrs = {
        "per_attribute": scores,
        "frame_counts": {
            a.value: sum(sum(a in s for s in lab.flags.values()) for lab in bundle.attributes.values())
            for a in Attribute
        },
        "HOTA_S": hota_s,
        "HOTA_M": hota_m,
        "n_s_effective": n_s,
        "n_m_effective": n_m,
    }
    return report, attrs
