"""HOTA computation: per-unit matching, pooled accumulation, alpha-averaged report.

The per-unit matcher runs all alpha thresholds at once. Feasibility at alpha
is ``iou >= alpha``, so one small integer per (frame, gt, pred) holds it for
every alpha: the pair's level ``k``, the number of alphas (sorted ascending)
at most its IoU, 0 where either box is absent; the pair is feasible at sorted
alpha index ``a`` exactly when ``a < k``. Frames whose feasibility graph has
degree <= 1 on both sides have a forced, unique optimum and are matched
without invoking the assignment solver: frame f is forced from its threshold
``t[f]`` up, the largest second-largest level over its rows and columns. The
remaining (alpha, frame)s fall back to the exact solver (or the enumeration
oracle in tests). Both paths produce bit-identical statistics.

The integer tallies (pairs per (gt, pred), matches, TPA) are exact in any
order and come from the candidate pairs (level > 0) by ``bincount`` and
``cumsum``. The float sums are numpy's pairwise sums, whose result depends
on the array they run over, so they keep the dense arrays of a single-alpha
evaluation: per alpha, the layout's (frame, gt, pred) IoUs of its matches in
C order, and its (gt, pred) association terms. These arrays, the IoU build
and the level build are cut into alpha and frame blocks of a fixed cell
budget, so a long, crowded unit holds about two float64 per (frame, gt,
pred) cell, not one per cell and alpha. An alpha whose matches are the
previous alpha's (no pair's level and no forced threshold lies between
them) has the same arrays, so it takes that alpha's sums without building
them again. The stats come back in the order of the alphas given, each as a
call with that alpha alone gives it.

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


# Cells per dense temporary: the IoU build, the level build and each block of
# the IoU-sum products and association sums are cut to about this many cells
# (4 MB of float64), so a long, crowded unit holds about two float64 per
# (frame, gt, pred) cell instead of one per cell and alpha.
_CELL_BUDGET = 1 << 19


def _blocks(n: int, cells_per_item: int) -> List[slice]:
    """``range(n)`` cut into slices of at most ``_CELL_BUDGET`` cells (at
    least one item each)."""
    step = max(1, _CELL_BUDGET // max(cells_per_item, 1))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


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
        # absent slots hold zero boxes and evaluate to iou 0; built in frame
        # blocks so iou_matrix's temporaries stay small
        gb, pb = self.gt.boxes, self.pred.boxes
        self.iou3 = np.empty((self.n_frames, gb.shape[1], pb.shape[1]), dtype=np.float64)
        for fs in _blocks(self.n_frames, gb.shape[1] * pb.shape[1]):
            self.iou3[fs] = iou_matrix(gb[fs], pb[fs])

    @property
    def gt_ids(self) -> List[str]:
        return self.gt.ids

    @property
    def pred_ids(self) -> List[str]:
        return self.pred.ids


def _levels(
    alphas: np.ndarray, iou3: np.ndarray, gt_present: np.ndarray, pred_present: np.ndarray
) -> np.ndarray:
    """(F, G, P) level of each pair: the number of ``alphas`` (sorted
    ascending) at most its IoU, 0 where either box is absent. The pair is
    feasible at sorted alpha index ``a`` exactly when ``a < k``."""
    nf, g, p = iou3.shape
    k = np.empty(iou3.shape, dtype=np.min_scalar_type(alphas.size))
    for fs in _blocks(nf, g * p):
        k[fs] = np.searchsorted(alphas, iou3[fs], side="right")
        k[fs] *= gt_present[fs, :, None] & pred_present[fs, None, :]
    return k


def _forced_from(k: np.ndarray) -> np.ndarray:
    """(F,) forced threshold: the largest second-largest level over a
    frame's rows and over its columns. At sorted alpha index ``a`` every row
    and column of frame f has at most one feasible pair exactly when
    ``a >= t[f]``."""
    nf, g, p = k.shape
    t = np.zeros(nf, dtype=np.intp)
    if p >= 2:
        np.maximum(t, np.partition(k, p - 2, axis=2)[:, :, p - 2].max(1, initial=0), out=t)
    if g >= 2:
        np.maximum(t, np.partition(k, g - 2, axis=1)[:, g - 2].max(1, initial=0), out=t)
    return t


def _solve(
    todo_a: np.ndarray,
    todo_f: np.ndarray,
    k: np.ndarray,
    iou3: np.ndarray,
    n_pair: np.ndarray,
    g_count: np.ndarray,
    p_count: np.ndarray,
    solver: Solver,
) -> np.ndarray:
    """Passes 1 and 2 on the unforced (alpha, frame)s ``(todo_a, todo_f)``
    of one layout, given its (A, G, P) feasible-pair counts: the solver's
    matches as (4, n) alpha, frame, gt and pred indices."""
    # Pass 1: prior association scores per (alpha, gt, pred)
    denom = g_count[None, :, None] + p_count[None, None, :] - n_pair
    s_prior = np.zeros(n_pair.shape, dtype=np.float64)
    np.divide(n_pair, denom, out=s_prior, where=denom > 0)

    # Pass 2: per-frame matching; forced frames are already decided
    solved: List[List[int]] = [[], [], [], []]
    for ai, fi in zip(todo_a.tolist(), todo_f.tolist()):
        feas_f = k[fi] > ai
        rows = np.flatnonzero(feas_f.any(1))
        cols = np.flatnonzero(feas_f.any(0))
        if rows.size == 0 or cols.size == 0:
            continue
        ix = np.ix_(rows, cols)
        sub_w = s_prior[ai][ix] + iou3[fi][ix] / (2.0 * iou3.shape[0])
        result = solver(WeightMatrix(weights=sub_w, mask=feas_f[ix]))
        rl, cl = rows.tolist(), cols.tolist()
        solved[0] += [ai] * len(result.pairs)
        solved[1] += [fi] * len(result.pairs)
        solved[2] += [rl[r] for r, _ in result.pairs]
        solved[3] += [cl[c] for _, c in result.pairs]
    return np.array(solved, dtype=np.intp).reshape(4, -1)


def _score(
    alphas: Sequence[float],
    iou3: np.ndarray,
    k: np.ndarray,
    t: np.ndarray,
    g_count: np.ndarray,
    p_count: np.ndarray,
    solver: Solver,
    ids: Optional[Tuple[List[str], List[str]]],
) -> List[AlphaStats]:
    """Passes 1-3 on one layout, one ``AlphaStats`` per alpha of ``alphas``
    (sorted ascending): (F, G, P) IoUs and levels, (F,) forced thresholds
    and the (G,) and (P,) box counts. Forced (alpha, frame)s keep every
    feasible pair; the others are solved. ``ids`` (gt ids, pred ids) fills
    ``pair_tpa``; without it the stats carry none."""
    nf, g, p = iou3.shape
    n_alpha = len(alphas)
    total_gt = int(g_count.sum())
    total_pred = int(p_count.sum())

    if iou3.size == 0 or n_alpha == 0:
        return [
            AlphaStats(
                alpha=a,
                fn=total_gt,
                fp=total_pred,
                pair_tpa={} if ids else None,
            )
            for a in alphas
        ]

    # The integer tallies are exact in any order, so they come from the
    # candidate pairs (level > 0): each (gt, pred) cell holding one gets a
    # row of n_alpha + 1 counts at offset ``at``.
    flat = np.flatnonzero(k)
    ck = k.ravel()[flat].astype(np.intp)
    cf, cell = np.divmod(flat, g * p)
    width = n_alpha + 1
    at = np.zeros(g * p, dtype=np.intp)
    at[cell] = 1
    used = np.flatnonzero(at)
    at[used] = np.arange(0, used.size * width, width)
    at = at[cell]

    def tally(lo: Union[int, np.ndarray], hi: np.ndarray) -> np.ndarray:
        """(A, G, P): per cell, the candidates with lo <= a < hi."""
        n = used.size * width
        counts = np.bincount(at + np.minimum(lo, hi), minlength=n)
        counts -= np.bincount(at + hi, minlength=n)
        counts = counts.reshape(used.size, width)
        np.cumsum(counts, axis=1, out=counts)
        out = np.zeros((n_alpha, g * p), dtype=np.int64)
        out[:, used] = counts[:, :n_alpha].T
        return out.reshape(n_alpha, g, p)

    todo_a, todo_f = np.nonzero(np.arange(n_alpha)[:, None] < t)  # unforced (alpha, frame)s
    sa, sf, sg, sp = (
        _solve(todo_a, todo_f, k, iou3, tally(0, ck), g_count, p_count, solver)
        if todo_a.size
        else np.empty((4, 0), dtype=np.intp)
    )

    # Pass 3: association quality with final matches fixed
    pair_tpa = tally(t[cf], ck)  # forced matches: t[f] <= a < k
    if sa.size:
        np.add.at(pair_tpa, (sa, sg, sp), 1)
    tp = pair_tpa.sum((1, 2))  # (A,)

    # The float sums run over dense arrays in C order, as in a single-alpha
    # evaluation of the layout: per alpha, the (F, G, P) IoUs of its matches
    # (filled in frame blocks) and the (G, P) association terms. Only the
    # alphas whose matches can differ from the previous alpha's get arrays of
    # their own: the first, those up to the largest forced threshold (solved
    # pairs) and the candidate levels (a forced pair stops being feasible).
    # Any other alpha has the same matches as the one before it, so the same
    # arrays and the same sums.
    fresh = np.zeros(n_alpha, dtype=bool)
    fresh[: t.max() + 1] = True
    fresh[ck[ck < n_alpha]] = True
    fresh_a = np.flatnonzero(fresh)
    slot = np.cumsum(fresh) - 1  # each alpha's fresh index
    todo_s, solved_s = slot[todo_a], slot[sa]

    iou_sums = np.empty(fresh_a.size, dtype=np.float64)
    level = fresh_a.astype(k.dtype).reshape(-1, 1, 1, 1)
    alpha_blocks = _blocks(fresh_a.size, nf * g * p)
    buf = np.empty((alpha_blocks[0].stop,) + iou3.shape, dtype=np.float64)
    for ab in alpha_blocks:
        prod = buf[: ab.stop - ab.start]
        for fs in _blocks(nf, prod.shape[0] * g * p):
            block = prod[:, fs]
            np.greater(k[fs], level[ab], out=block)  # 1.0 where feasible
            block *= iou3[fs]
        if todo_a.size:
            # an unforced frame keeps only its solved pairs
            sel = (todo_s >= ab.start) & (todo_s < ab.stop)
            prod[todo_s[sel] - ab.start, todo_f[sel]] = 0.0
            sel = (solved_s >= ab.start) & (solved_s < ab.stop)
            prod[solved_s[sel] - ab.start, sf[sel], sg[sel], sp[sel]] = iou3[sf[sel], sg[sel], sp[sel]]
        iou_sums[ab] = prod.sum((1, 2, 3))

    # sum over TPs of TPA/(TPA+FNA+FPA), TPA/(TPA+FNA) and TPA/(TPA+FPA)
    pair_fresh = pair_tpa[fresh_a]
    pres_sum = g_count[:, None] + p_count
    ass = np.empty((3, fresh_a.size), dtype=np.float64)
    for ab in _blocks(fresh_a.size, 3 * g * p):
        n = pair_fresh[ab]
        tpa = n.astype(np.float64)
        pos = n > 0
        terms = np.zeros((3,) + n.shape, dtype=np.float64)
        np.divide(tpa, pres_sum - tpa, out=terms[0], where=pos)
        np.divide(tpa, g_count[:, None], out=terms[1], where=pos)
        np.divide(tpa, p_count, out=terms[2], where=pos)
        terms *= tpa
        ass[:, ab] = terms.sum((2, 3))

    details: List[Optional[Dict[Tuple[str, str], int]]] = [None] * n_alpha
    if ids:
        details = [{} for _ in range(n_alpha)]
        nz = np.nonzero(pair_tpa)
        for ai, gi, pi, n in zip(*(x.tolist() for x in nz), pair_tpa[nz].tolist()):
            details[ai][ids[0][gi], ids[1][pi]] = n

    return [
        AlphaStats(
            alpha=alpha,
            tp=n_tp,
            fn=total_gt - n_tp,
            fp=total_pred - n_tp,
            iou_sum=iou_sum,
            ass_a_sum=a_sum,
            ass_re_sum=re_sum,
            ass_pr_sum=pr_sum,
            pair_tpa=detail,
        )
        for alpha, n_tp, iou_sum, a_sum, re_sum, pr_sum, detail in zip(
            alphas, tp.tolist(), iou_sums[slot].tolist(), *ass[:, slot].tolist(), details
        )
    ]


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
    one ``AlphaStats`` per alpha, in the order of ``alphas``; each equals
    what a call with that alpha alone gives.

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

    # the layouts are scored at the sorted alphas, then put back in order
    alphas_arr = np.asarray(alphas, dtype=np.float64)
    order = np.argsort(alphas_arr, kind="stable")
    back = np.argsort(order).tolist()
    grid = [float(alphas[i]) for i in order.tolist()]

    gp, pp = ua.gt.present, ua.pred.present
    k = _levels(alphas_arr[order], ua.iou3, gp, pp)
    # A frame whose feasibility graph has degree <= 1 on both sides has one
    # optimum for any positive weights, so its matches hold under every
    # restriction that keeps the frame.
    t = np.full(ua.n_frames, order.size, dtype=np.intp) if force_solver else _forced_from(k)
    stats = _score(
        grid, ua.iou3, k, t, gp.sum(0), pp.sum(0), solver, (ua.gt.ids, ua.pred.ids)
    )
    stats = [stats[i] for i in back]
    if restrictions is None:
        return stats

    restricted: Dict[str, List[AlphaStats]] = {}
    for name, rows in subsets.items():
        # the restriction's own layout: its frames, and its tracks in content
        # order over those frames, so every sum and tie runs as it would alone
        gi = ua.gt.order(rows)
        pi = ua.pred.order(rows)
        sub = _score(
            grid,
            ua.iou3.take(rows, 0).take(gi, 1).take(pi, 2),
            k.take(rows, 0).take(gi, 1).take(pi, 2),
            t[rows],
            gp.take(rows, 0).take(gi, 1).sum(0),
            pp.take(rows, 0).take(pi, 1).sum(0),
            solver,
            None,
        )
        restricted[name] = [sub[i] for i in back]
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


def tally_arrays(layouts: Sequence[Sequence[AlphaStats]]) -> Tuple[np.ndarray, np.ndarray]:
    """The tallies of per-alpha stats lists of one length as a (layouts,
    alpha, 3) int64 array of tp, fn, fp and a (layouts, alpha, 4) float64
    array of iou_sum, ass_a_sum, ass_re_sum, ass_pr_sum."""
    stats = [s for layout in layouts for s in layout]
    shape = (len(layouts), len(layouts[0]) if layouts else 0)
    ints = np.array([(s.tp, s.fn, s.fp) for s in stats], dtype=np.int64)
    floats = np.array(
        [(s.iou_sum, s.ass_a_sum, s.ass_re_sum, s.ass_pr_sum) for s in stats], dtype=np.float64
    )
    return ints.reshape(shape + (3,)), floats.reshape(shape + (4,))


def pool_tallies(
    alphas: Sequence[float], ints: Sequence[np.ndarray], floats: Sequence[np.ndarray]
) -> List[AlphaStats]:
    """Pool per-unit tallies, one (alpha, 3) ``ints`` and one (alpha, 4)
    ``floats`` array per unit as ``tally_arrays`` lays them out, into one
    ``AlphaStats`` per alpha.

    The integer columns are summed exactly and the float columns with the
    exactly rounded ``math.fsum``, so the pooled result is bit-identical for
    any ordering of the units.
    """
    shape = (len(ints), len(alphas))
    tp_fn_fp = np.array(ints, dtype=np.int64).reshape(shape + (3,)).sum(0).tolist()
    columns = np.array(floats, dtype=np.float64).reshape(shape + (4,)).transpose(1, 2, 0)
    return [
        AlphaStats(alpha, *counts, *map(math.fsum, sums))
        for alpha, counts, sums in zip(alphas, tp_fn_fp, columns.tolist())
    ]


def accumulate(per_unit: Iterable[Sequence[AlphaStats]]) -> List[AlphaStats]:
    """Pool per-unit stats across units by summing counts componentwise
    (``pool_tallies`` over their ``tally_arrays``).

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
    return pool_tallies(grid, *tally_arrays(units))


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
