"""HOTA computation: per-unit matching, pooled accumulation, alpha-averaged report.

The per-unit matcher runs all alpha thresholds at once over numpy tensors.
Frames whose feasibility graph has degree <= 1 on both sides have a forced,
unique optimum and are matched without invoking the assignment solver; the
remaining frames fall back to the exact solver (or the enumeration oracle in
tests). Both paths produce bit-identical statistics.

A unit's tensors are built once, from columns: the predictions'
``UnitBoxes`` (a list of detections is converted by
``UnitBoxes.from_detections``) and the targets turned into the same
columns; frames map to tensor rows by ``searchsorted``. Restrictions to
frame subsets (the attribute scores) are cut from them: each takes its
frames, orders its tracks by content over those frames, reuses the forced
frames' matches (forcedness depends on the frame alone) and re-solves only
its other frames with its own priors and tie-break scale. Every sum then
runs in the order it would if the restricted unit were matched on its own,
so the stats are bit-identical to that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .assignment import Matching, WeightMatrix, solve_max_weight
from .model import Detection, ExpressionTask, UnitBoxes, iou_matrix

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


class _Tracks:
    """One side of a unit (GT or predictions): per-frame presence and boxes,
    tracks in content order, plus what a restriction needs to reorder them.

    A track's content key is (first frame, its box there, box count, sum of
    x, sum of y, track id), all over the evaluated frames; the sums run left
    to right in insertion order, which is file order for predictions. The
    key makes matrices invariant under id relabeling.
    """

    __slots__ = ("ids", "present", "boxes", "_ins_frame", "_ins_xy", "_rank")

    def __init__(
        self,
        fi: np.ndarray,
        ti: np.ndarray,
        ids: Sequence[str],
        xywh: np.ndarray,
        frames: np.ndarray,
    ):
        """Box i lies on frame index ``fi[i]`` into ``frames``, belongs to
        track ``ids[ti[i]]`` and is ``xywh[i]``; boxes are in insertion
        order. Ids without a box are dropped."""
        n_frames = len(frames)
        counts = np.bincount(ti, minlength=len(ids))
        has_box = counts > 0
        names = [ids[i] for i in np.flatnonzero(has_box).tolist()]
        n = len(names)
        ti = (np.cumsum(has_box) - 1)[ti]
        counts = counts[has_box]

        # each box's position within its track, in insertion order
        by_track = np.argsort(ti, kind="stable")
        pos = np.empty_like(ti)
        pos[by_track] = np.arange(ti.size) - (np.cumsum(counts) - counts)[ti[by_track]]

        present = np.zeros((n_frames, n), dtype=bool)
        present[fi, ti] = True
        if np.count_nonzero(present) < ti.size:
            seen = set()
            for f, t in zip(fi.tolist(), ti.tolist()):
                if (f, t) in seen:
                    raise ValueError(
                        f"duplicate detection for track {names[t]!r} at frame {frames[f]}"
                    )
                seen.add((f, t))
        boxes = np.zeros((n_frames, n, 4), dtype=np.float64)
        boxes[fi, ti] = xywh
        # insertion-order layout; the padding frame index n_frames is never kept
        ins_frame = np.full((n, int(counts.max(initial=0))), n_frames, dtype=np.intp)
        ins_frame[ti, pos] = fi
        ins_xy = np.zeros(ins_frame.shape + (2,), dtype=np.float64)
        ins_xy[ti, pos] = xywh[:, :2]
        rank = np.empty(n, dtype=np.intp)
        rank[sorted(range(n), key=names.__getitem__)] = np.arange(n)

        self.present, self.boxes = present, boxes
        self._ins_frame, self._ins_xy, self._rank = ins_frame, ins_xy, rank
        order = self.order(np.arange(n_frames))
        self.ids = [names[i] for i in order]
        self.present, self.boxes = present[:, order], boxes[:, order]
        self._ins_frame, self._ins_xy, self._rank = ins_frame[order], ins_xy[order], rank[order]

    def order(self, rows: np.ndarray) -> np.ndarray:
        """Indices of the tracks with a box on frame indices ``rows`` (sorted
        ascending), in content order over those frames."""
        pres = self.present[rows]
        count = pres.sum(0)
        if not count.any():
            return np.flatnonzero(count)
        n = count.size
        first = rows[pres.argmax(0)]
        fx, fy, fw, fh = self.boxes[first, np.arange(n)].T
        keep = np.zeros(self.present.shape[0] + 1, dtype=bool)
        keep[rows] = True
        # cumsum adds left to right, like the key's definition; np.sum would not
        xy = np.where(keep[self._ins_frame][..., None], self._ins_xy, 0.0).cumsum(1)
        sx, sy = xy[:, -1].T
        perm = np.lexsort((self._rank, sy, sx, count, fh, fw, fy, fx, first))
        return perm[count[perm] > 0]


def _target_columns(task: ExpressionTask) -> Tuple[np.ndarray, np.ndarray, List[str], np.ndarray]:
    """``task.targets`` as (frame, track index, ids, xywh) columns, in the
    targets' iteration order."""
    index: Dict[str, int] = {}
    frame: List[int] = []
    track: List[int] = []
    xywh: List[float] = []  # flat, four numbers per box
    for f, by_track in task.targets.items():
        for tid, b in by_track.items():
            frame.append(f)
            track.append(index.setdefault(tid, len(index)))
            xywh += (b.x, b.y, b.w, b.h)
    return (
        np.array(frame, dtype=np.int64),
        np.array(track, dtype=np.intp),
        list(index),
        np.array(xywh, dtype=np.float64).reshape(len(frame), 4),
    )


def _on_frames(
    frames: np.ndarray, frame: np.ndarray, track: np.ndarray, ids: Sequence[str], xywh: np.ndarray
) -> _Tracks:
    """The tracks of the boxes that lie on ``frames`` (sorted ascending)."""
    fi = np.searchsorted(frames, frame)
    on = fi < frames.size
    on[on] = frames[fi[on]] == frame[on]
    return _Tracks(fi[on], track[on], ids, xywh[on], frames)


class UnitArrays:
    """Dense per-unit tensors shared by all alpha thresholds.

    ``preds`` may be a ``UnitBoxes``, whose columns are used as they are, or
    any sequence of detections, converted by ``UnitBoxes.from_detections``.
    Boxes on frames outside ``frames`` are left out.
    """

    __slots__ = ("frames", "n_frames", "gt", "pred", "iou3")

    def __init__(self, task: ExpressionTask, preds: Sequence[Detection], frames: Sequence[int]):
        self.frames = sorted(set(frames))
        self.n_frames = len(self.frames)
        preds = UnitBoxes.from_detections(preds)
        frames_arr = np.asarray(self.frames, dtype=np.int64)
        self.gt = _on_frames(frames_arr, *_target_columns(task))
        self.pred = _on_frames(frames_arr, preds.frame, preds.track, preds.ids, preds.xywh)
        # absent slots hold zero boxes and evaluate to iou 0
        self.iou3 = iou_matrix(self.gt.boxes, self.pred.boxes)

    @property
    def gt_ids(self) -> List[str]:
        return self.gt.ids

    @property
    def pred_ids(self) -> List[str]:
        return self.pred.ids


def _feasible(
    alphas: np.ndarray, iou3: np.ndarray, gt_present: np.ndarray, pred_present: np.ndarray
) -> np.ndarray:
    """(A, F, G, P): both boxes present and their IoU at least alpha."""
    pair_present = gt_present[:, :, None] & pred_present[:, None, :]
    return (iou3[None, :, :, :] >= alphas[:, None, None, None]) & pair_present


def _score(
    alphas: Sequence[float],
    iou3: np.ndarray,
    gt_present: np.ndarray,
    pred_present: np.ndarray,
    feas: np.ndarray,
    forced: np.ndarray,
    solver: Solver,
    ids: Optional[Tuple[List[str], List[str]]],
) -> List[AlphaStats]:
    """Passes 1-3 on one layout: (F, G, P) IoUs, (F, G) and (F, P) presence,
    (A, F, G, P) feasibility and the (A, F) forced mask. Forced frames keep
    every feasible pair; the others are solved. ``ids`` (gt ids, pred ids)
    fills ``pair_tpa``; without it the stats carry none."""
    nf, g, p = iou3.shape
    g_count = gt_present.sum(0)  # (G,)
    p_count = pred_present.sum(0)  # (P,)
    total_gt = int(g_count.sum())
    total_pred = int(p_count.sum())

    if g == 0 or p == 0 or nf == 0:
        return [
            AlphaStats(
                alpha=float(a),
                fn=total_gt,
                fp=total_pred,
                pair_tpa={} if ids else None,
            )
            for a in alphas
        ]

    # Pass 1: prior association scores per (alpha, gt, pred)
    n_pair = feas.sum(1)  # (A, G, P)
    denom = g_count[None, :, None] + p_count[None, None, :] - n_pair
    s_prior = np.zeros(n_pair.shape, dtype=np.float64)
    np.divide(n_pair, denom, out=s_prior, where=denom > 0)

    # Pass 2: per-frame matching; forced frames are already decided
    matched = feas & forced[:, :, None, None]
    iou_tiebreak = iou3 / (2.0 * nf)
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
    iou_sums = (iou3[None] * matched).sum((1, 2, 3))

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

    details: List[Optional[Dict[Tuple[str, str], int]]] = [None] * len(alphas)
    if ids:
        details = [{} for _ in alphas]
        nz = np.nonzero(pair_tpa)
        for ai, gi, pi, n in zip(*(x.tolist() for x in nz), pair_tpa[nz].tolist()):
            details[ai][ids[0][gi], ids[1][pi]] = n

    out: List[AlphaStats] = []
    for ai, (alpha, detail) in enumerate(zip(alphas, details)):
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


def match_unit_all_alphas(
    task: ExpressionTask,
    preds: Sequence[Detection],
    alphas: Sequence[float],
    frames: Sequence[int],
    solver: Solver = solve_max_weight,
    force_solver: bool = False,
    restrictions: Optional[Mapping[str, Sequence[int]]] = None,
) -> Union[List[AlphaStats], Tuple[List[AlphaStats], Dict[str, List[AlphaStats]]]]:
    """Run the two-pass HOTA matching for every alpha over one unit.

    ``frames`` is the evaluation frame set. ``force_solver`` disables the
    forced-match fast path; results must be identical either way. Returns
    one ``AlphaStats`` per alpha.

    ``restrictions`` maps a name to a subset of ``frames``. With it, the call
    returns ``(stats, {name: stats})``, where each restriction's stats equal
    those of the unit restricted to its frames and matched on its own
    (``restrict_to_attribute``), except that they carry no ``pair_tpa``. A
    restriction frame outside ``frames`` raises ``ValueError``.
    """
    for a in alphas:
        if not 0.0 < a < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {a}")
    ua = UnitArrays(task, preds, frames)
    frame_pos = {f: i for i, f in enumerate(ua.frames)}
    subsets: Dict[str, np.ndarray] = {}
    for name, sub in (restrictions or {}).items():
        outside = set(sub) - frame_pos.keys()
        if outside:
            raise ValueError(f"restriction {name!r}: frame {min(outside)} is not evaluated")
        subsets[name] = np.array(sorted({frame_pos[f] for f in sub}), dtype=np.intp)

    alphas_arr = np.asarray(alphas, dtype=np.float64)
    gp, pp = ua.gt.present, ua.pred.present
    feas = _feasible(alphas_arr, ua.iou3, gp, pp)
    # A frame whose feasibility graph has degree <= 1 on both sides has one
    # optimum for any positive weights, so its matches hold under every
    # restriction that keeps the frame.
    row_ok = (feas.sum(3) <= 1).all(2)  # (A, F)
    col_ok = (feas.sum(2) <= 1).all(2)  # (A, F)
    forced = row_ok & col_ok
    if force_solver:
        forced[:] = False
    stats = _score(alphas, ua.iou3, gp, pp, feas, forced, solver, (ua.gt.ids, ua.pred.ids))
    if restrictions is None:
        return stats

    restricted: Dict[str, List[AlphaStats]] = {}
    for name, rows in subsets.items():
        # the restriction's own layout: its frames, and its tracks in content
        # order over those frames, so every sum and tie runs as it would alone
        gi = ua.gt.order(rows)
        pi = ua.pred.order(rows)
        iou3 = ua.iou3.take(rows, 0).take(gi, 1).take(pi, 2)
        gp_r = gp.take(rows, 0).take(gi, 1)
        pp_r = pp.take(rows, 0).take(pi, 1)
        restricted[name] = _score(
            alphas,
            iou3,
            gp_r,
            pp_r,
            _feasible(alphas_arr, iou3, gp_r, pp_r),
            forced.take(rows, 1),
            solver,
            None,
        )
    return stats, restricted


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
