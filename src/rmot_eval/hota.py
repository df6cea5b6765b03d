"""HOTA computation: per-unit matching, pooled accumulation, alpha-averaged report.

The per-unit matcher runs all alpha thresholds at once over numpy tensors.
Frames whose feasibility graph has degree <= 1 on both sides have a forced,
unique optimum and are matched without invoking the assignment solver; the
remaining frames fall back to the exact solver (or the enumeration oracle in
tests). Both paths produce bit-identical statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .assignment import Matching, WeightMatrix, solve_max_weight
from .model import Detection, ExpressionTask, iou_matrix

Solver = Callable[[WeightMatrix], Matching]


@dataclass
class AlphaStats:
    """Matching tallies for one unit (or a pool of units) at one alpha."""

    alpha: float
    tp: int = 0
    fn: int = 0
    fp: int = 0
    iou_sum: float = 0.0
    ass_a_sum: float = 0.0  # sum over TPs of TPA/(TPA+FNA+FPA)
    ass_re_sum: float = 0.0  # sum over TPs of TPA/(TPA+FNA)
    ass_pr_sum: float = 0.0  # sum over TPs of TPA/(TPA+FPA)
    # per-unit (gt_id, pred_id) -> TPA detail; dropped when pooling
    pair_tpa: Optional[Dict[Tuple[str, str], int]] = None


@dataclass(frozen=True)
class AlphaMetrics:
    alpha: float
    tp: int
    fn: int
    fp: int
    hota: float
    det_a: float
    ass_a: float
    det_re: float
    det_pr: float
    ass_re: float
    ass_pr: float
    loc_a: float
    empty: bool


@dataclass(frozen=True)
class MetricReport:
    """Finalized metric bundle; headline values are alpha-averaged percentages."""

    hota: float
    det_a: float
    ass_a: float
    det_re: float
    det_pr: float
    ass_re: float
    ass_pr: float
    loc_a: float
    per_alpha: Tuple[AlphaMetrics, ...]
    flags: Tuple[str, ...] = ()

    def as_dict(self) -> Dict[str, object]:
        return {
            "HOTA": self.hota,
            "DetA": self.det_a,
            "AssA": self.ass_a,
            "DetRe": self.det_re,
            "DetPr": self.det_pr,
            "AssRe": self.ass_re,
            "AssPr": self.ass_pr,
            "LocA": self.loc_a,
            "flags": list(self.flags),
            "per_alpha": [
                {
                    "alpha": a.alpha,
                    "tp": a.tp,
                    "fn": a.fn,
                    "fp": a.fp,
                    "HOTA": a.hota,
                    "DetA": a.det_a,
                    "AssA": a.ass_a,
                    "DetRe": a.det_re,
                    "DetPr": a.det_pr,
                    "AssRe": a.ass_re,
                    "AssPr": a.ass_pr,
                    "LocA": a.loc_a,
                    "empty": a.empty,
                }
                for a in self.per_alpha
            ],
        }


def _track_sort_key(boxes: Dict[int, Tuple[float, float, float, float]], track_id: str):
    """Content-based ordering so matrices are invariant under id relabeling."""
    first = min(boxes)
    fx, fy, fw, fh = boxes[first]
    sx = sy = 0.0
    for b in boxes.values():
        sx += b[0]
        sy += b[1]
    return (first, fx, fy, fw, fh, len(boxes), sx, sy, track_id)


class UnitArrays:
    """Dense per-unit tensors shared by all alpha thresholds."""

    __slots__ = (
        "frames",
        "gt_ids",
        "pred_ids",
        "gt_present",
        "pred_present",
        "iou3",
        "n_frames",
    )

    def __init__(self, task: ExpressionTask, preds: Sequence[Detection], frames: Sequence[int]):
        frame_list = sorted(set(frames))
        frame_index = {f: i for i, f in enumerate(frame_list)}
        nf = len(frame_list)

        gt_boxes: Dict[str, Dict[int, Tuple[float, float, float, float]]] = {}
        for f, by_track in task.targets.items():
            if f not in frame_index:
                continue
            for tid, box in by_track.items():
                gt_boxes.setdefault(tid, {})[f] = (box.x, box.y, box.w, box.h)

        pred_boxes: Dict[str, Dict[int, Tuple[float, float, float, float]]] = {}
        for d in preds:
            if d.frame not in frame_index:
                continue
            per = pred_boxes.setdefault(d.track_id, {})
            if d.frame in per:
                raise ValueError(
                    f"duplicate detection for track {d.track_id!r} at frame {d.frame}"
                )
            per[d.frame] = (d.box.x, d.box.y, d.box.w, d.box.h)

        self.gt_ids = sorted(gt_boxes, key=lambda t: _track_sort_key(gt_boxes[t], t))
        self.pred_ids = sorted(pred_boxes, key=lambda t: _track_sort_key(pred_boxes[t], t))
        self.frames = frame_list
        self.n_frames = nf

        g, p = len(self.gt_ids), len(self.pred_ids)
        gp = np.zeros((nf, g), dtype=bool)
        pp = np.zeros((nf, p), dtype=bool)
        gb = np.zeros((nf, g, 4), dtype=np.float64)
        pb = np.zeros((nf, p, 4), dtype=np.float64)
        for gi, tid in enumerate(self.gt_ids):
            for f, b in gt_boxes[tid].items():
                fi = frame_index[f]
                gp[fi, gi] = True
                gb[fi, gi] = b
        for pi, tid in enumerate(self.pred_ids):
            for f, b in pred_boxes[tid].items():
                fi = frame_index[f]
                pp[fi, pi] = True
                pb[fi, pi] = b

        self.gt_present = gp
        self.pred_present = pp
        # absent slots hold zero boxes and evaluate to iou 0
        self.iou3 = iou_matrix(gb, pb)


def match_unit_all_alphas(
    task: ExpressionTask,
    preds: Sequence[Detection],
    alphas: Sequence[float],
    frames: Sequence[int],
    solver: Solver = solve_max_weight,
    force_solver: bool = False,
) -> List[AlphaStats]:
    """Run the two-pass HOTA matching for every alpha over one unit.

    ``frames`` is the evaluation frame set (the whole sequence, or the
    attribute-restricted subset). ``force_solver`` disables the forced-match
    fast path; results must be identical either way.
    """
    for a in alphas:
        if not 0.0 < a < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {a}")
    ua = UnitArrays(task, preds, frames)
    alphas_arr = np.asarray(alphas, dtype=np.float64)
    na = len(alphas)
    nf = ua.n_frames
    g = len(ua.gt_ids)
    p = len(ua.pred_ids)
    f_total = max(nf, 1)

    g_count = ua.gt_present.sum(0)  # (G,)
    p_count = ua.pred_present.sum(0)  # (P,)
    total_gt = int(g_count.sum())
    total_pred = int(p_count.sum())

    if g == 0 or p == 0 or nf == 0:
        return [
            AlphaStats(
                alpha=float(a),
                fn=total_gt,
                fp=total_pred,
                pair_tpa={},
            )
            for a in alphas
        ]

    pair_present = ua.gt_present[:, :, None] & ua.pred_present[:, None, :]
    # (A, F, G, P)
    feas = (ua.iou3[None, :, :, :] >= alphas_arr[:, None, None, None]) & pair_present

    # Pass 1: prior association scores per (alpha, gt, pred)
    n_pair = feas.sum(1)  # (A, G, P)
    denom = g_count[None, :, None] + p_count[None, None, :] - n_pair
    s_prior = np.zeros(n_pair.shape, dtype=np.float64)
    np.divide(n_pair, denom, out=s_prior, where=denom > 0)

    # Pass 2: per-frame matching. Forced fast path where unambiguous.
    matched = feas.copy()
    row_ok = (feas.sum(3) <= 1).all(2)  # (A, F)
    col_ok = (feas.sum(2) <= 1).all(2)  # (A, F)
    forced = row_ok & col_ok
    if force_solver:
        forced[:] = False
        matched[:] = False
    else:
        matched[~forced] = False

    iou_tiebreak = ua.iou3 / (2.0 * f_total)
    for ai, fi in zip(*np.nonzero(~forced)):
        feas_f = feas[ai, fi]
        rows = np.flatnonzero(feas_f.any(1))
        cols = np.flatnonzero(feas_f.any(0))
        if rows.size == 0 or cols.size == 0:
            continue
        sub_feas = feas_f[np.ix_(rows, cols)]
        sub_w = s_prior[ai][np.ix_(rows, cols)] + iou_tiebreak[fi][np.ix_(rows, cols)]
        result = solver(WeightMatrix(weights=sub_w, mask=sub_feas))
        for r, c in result.pairs:
            matched[ai, fi, rows[r], cols[c]] = True

    # Pass 3: association quality with final matches fixed
    pair_tpa = matched.sum(1)  # (A, G, P)
    tp = pair_tpa.sum((1, 2))  # (A,)
    iou_sums = (ua.iou3[None] * matched).sum((1, 2, 3))

    pres_sum = g_count[None, :, None] + p_count[None, None, :]
    tpa = pair_tpa.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        a_den = pres_sum - tpa
        a_val = np.where(pair_tpa > 0, tpa / np.where(a_den > 0, a_den, 1.0), 0.0)
        re_val = np.where(pair_tpa > 0, tpa / g_count[None, :, None], 0.0)
        pr_val = np.where(pair_tpa > 0, tpa / p_count[None, None, :], 0.0)
    ass_a = (tpa * a_val).sum((1, 2))
    ass_re = (tpa * re_val).sum((1, 2))
    ass_pr = (tpa * pr_val).sum((1, 2))

    out: List[AlphaStats] = []
    for ai, alpha in enumerate(alphas):
        detail = {
            (ua.gt_ids[gi], ua.pred_ids[pi]): int(pair_tpa[ai, gi, pi])
            for gi, pi in zip(*np.nonzero(pair_tpa[ai]))
        }
        out.append(
            AlphaStats(
                alpha=float(alpha),
                tp=int(tp[ai]),
                fn=total_gt - int(tp[ai]),
                fp=total_pred - int(tp[ai]),
                iou_sum=float(iou_sums[ai]),
                ass_a_sum=float(ass_a[ai]),
                ass_re_sum=float(ass_re[ai]),
                ass_pr_sum=float(ass_pr[ai]),
                pair_tpa=detail,
            )
        )
    return out


def match_unit(
    task: ExpressionTask,
    preds: Sequence[Detection],
    alpha: float,
    frames: Optional[Sequence[int]] = None,
    solver: Solver = solve_max_weight,
) -> AlphaStats:
    """Single-alpha entry point; predictions must already be filtered."""
    if frames is None:
        seen = [f for f in task.targets] + [d.frame for d in preds]
        frames = range(1, (max(seen) if seen else 0) + 1)
    return match_unit_all_alphas(task, preds, [alpha], frames, solver=solver)[0]


def accumulate(per_unit: Iterable[Sequence[AlphaStats]]) -> List[AlphaStats]:
    """Pool per-unit stats across units by summing counts componentwise.

    Float components are combined with exactly rounded summation, so the
    pooled result is bit-identical for any ordering of the units.
    """
    units = [list(u) for u in per_unit]
    if not units:
        return []
    grid = tuple(s.alpha for s in units[0])
    for unit_stats in units[1:]:
        if tuple(s.alpha for s in unit_stats) != grid:
            raise ValueError("mismatched alpha grids across units")
    pooled: List[AlphaStats] = []
    for i, alpha in enumerate(grid):
        rows = [u[i] for u in units]
        pooled.append(
            AlphaStats(
                alpha=alpha,
                tp=sum(r.tp for r in rows),
                fn=sum(r.fn for r in rows),
                fp=sum(r.fp for r in rows),
                iou_sum=math.fsum(r.iou_sum for r in rows),
                ass_a_sum=math.fsum(r.ass_a_sum for r in rows),
                ass_re_sum=math.fsum(r.ass_re_sum for r in rows),
                ass_pr_sum=math.fsum(r.ass_pr_sum for r in rows),
            )
        )
    return pooled


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def finalize(pooled: Sequence[AlphaStats]) -> MetricReport:
    """Turn pooled per-alpha tallies into the alpha-averaged metric bundle.

    Zero-denominator conventions: an alpha with no counts at all scores 1.0
    everywhere ("no evidence"); tp = 0 with errors present zeroes the
    association and localization terms.
    """
    if not pooled:
        raise ValueError("no pooled stats to finalize")
    rows: List[AlphaMetrics] = []
    for s in pooled:
        total = s.tp + s.fn + s.fp
        if total == 0:
            rows.append(
                AlphaMetrics(
                    alpha=s.alpha,
                    tp=0,
                    fn=0,
                    fp=0,
                    hota=1.0,
                    det_a=1.0,
                    ass_a=1.0,
                    det_re=1.0,
                    det_pr=1.0,
                    ass_re=1.0,
                    ass_pr=1.0,
                    loc_a=1.0,
                    empty=True,
                )
            )
            continue
        det_a = s.tp / total
        det_re = _ratio(s.tp, s.tp + s.fn)
        det_pr = _ratio(s.tp, s.tp + s.fp)
        if s.tp > 0:
            ass_a = s.ass_a_sum / s.tp
            ass_re = s.ass_re_sum / s.tp
            ass_pr = s.ass_pr_sum / s.tp
            loc_a = s.iou_sum / s.tp
        else:
            ass_a = ass_re = ass_pr = loc_a = 0.0
        rows.append(
            AlphaMetrics(
                alpha=s.alpha,
                tp=s.tp,
                fn=s.fn,
                fp=s.fp,
                hota=math.sqrt(det_a * ass_a),
                det_a=det_a,
                ass_a=ass_a,
                det_re=det_re,
                det_pr=det_pr,
                ass_re=ass_re,
                ass_pr=ass_pr,
                loc_a=loc_a,
                empty=False,
            )
        )

    def avg(get: Callable[[AlphaMetrics], float]) -> float:
        return 100.0 * math.fsum(get(r) for r in rows) / len(rows)

    flags: Tuple[str, ...] = ()
    if all(r.empty for r in rows):
        flags = ("EMPTY_EVAL",)
    return MetricReport(
        hota=avg(lambda r: r.hota),
        det_a=avg(lambda r: r.det_a),
        ass_a=avg(lambda r: r.ass_a),
        det_re=avg(lambda r: r.det_re),
        det_pr=avg(lambda r: r.det_pr),
        ass_re=avg(lambda r: r.ass_re),
        ass_pr=avg(lambda r: r.ass_pr),
        loc_a=avg(lambda r: r.loc_a),
        per_alpha=tuple(rows),
        flags=flags,
    )
