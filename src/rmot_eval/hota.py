"""HOTA computation: per-unit matching, pooled accumulation, alpha-averaged report.

The per-unit matcher runs all alpha thresholds at once, on a unit's
candidate pairs: each GT box with each prediction box on its frame whose
IoU is positive, found by frame offsets (``searchsorted``, ``np.repeat``)
and scored by the one IoU kernel, ``model.box_iou``. HOTA scores only pairs
of positive similarity, so no other pair can change a result, and no
(frame, gt, pred) tensor is built. Feasibility at alpha is ``iou >=
alpha``, so one small integer per candidate holds it for every alpha: its
level ``k``, the number of alphas (sorted ascending) at most its IoU; it is
feasible at sorted alpha index ``a`` exactly when ``a < k``, and the
candidates of level 0 are dropped. A feasible candidate alone in its row
and its column is a component of its own, matched without invoking the
assignment solver: it is forced from ``lo`` up, the larger second-largest
level of its (frame, gt row) and its (frame, pred column). At each alpha
below ``lo`` it is an edge of its (layout, alpha, frame)'s assignment
problem instead. The edges of every problem are split into connected
components, and each component's rows and columns ranked, in one numpy
pass. ``assignment.match_small`` decides, all at once, every component
whose shorter side is at most 3 and longer side at most 4 and whose best
matching outweighs every other by a rounding margin; every component it
leaves undecided goes to the exact solver (or the enumeration oracle in
tests) on its own, one call per component: components are found here,
and the solver solves the matrix it is given.
``force_solver`` turns off the forced matches (``lo`` is the level), the
margin rule and the split, so every (layout, alpha, frame) with a feasible
pair goes to the solver whole. All paths produce bit-identical statistics.

A unit is scored on its layouts together: layout 0 is the whole unit, and
each restriction to a frame subset (the attribute scores) is a layout of its
own. Every layout, layout 0 included, is built the same way: its frames and
its tracks in content order over those frames, which one ``_Tracks.order``
call per side gives for every layout; the unit keeps the tracks in
first-appearance order. The candidates of every layout are stacked with a
layout index and the layout's own frame, gt and pred ranks; a restriction
takes exactly the unit's candidates on its frames. Forcedness depends on
the frame alone, so the forced thresholds are shared, and only the unforced
(layout, alpha, frame)s are matched by assignment, each with its layout's
priors and tie-break scale.

The integer tallies (pairs per (gt, pred), matches, TPA) are exact in any
order and come from the stacked candidates by ``bincount`` and
``cumsum``. The float sums are numpy's pairwise sums, whose result depends
on the array they run over, so they run over the dense arrays a
single-alpha evaluation of the layout alone would build: per alpha, the
layout's (frame, gt, pred) IoUs of its matches in C order, and its (gt,
pred) association terms. Each layout's rows are cut by ``_blocks`` to a
fixed cell budget, as is the candidate IoU build; a block's matched values
are scattered into one reused zeroed buffer and its rows reduced by numpy
``sum``, so a long, crowded unit holds about one float64 per (frame, gt,
pred) cell, not one per cell, alpha and layout. An alpha whose matches are
the previous alpha's (no pair's level and no forced threshold lies between
them) has the same arrays, so it takes that alpha's sums without a row of
its own. The stats come back in the order of the alphas given, each
bit-identical to a call with that alpha alone and, for a restriction, to
matching the restricted unit on its own, as ``UnitStats`` views over the
scorer's arrays, which build an ``AlphaStats`` only when one is read.

A unit's boxes are read once, as columns: the predictions' ``UnitBoxes`` (a
list of detections is converted by ``UnitBoxes.from_detections``) and the
targets' rows of their sequence's ground-truth columns (a parsed task's
``TargetsView``; a targets dict is converted by
``TargetsView.from_mapping``), in the targets' iteration order, which the
content key's x and y sums follow; frames map to frame indices by
``searchsorted``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .assignment import Matching, WeightMatrix, match_small, solve_max_weight
from .model import Detection, ExpressionTask, TargetsView, UnitBoxes, _int64_frames, box_iou

# Matches one matrix exactly. It is handed one connected component of a
# (layout, alpha, frame)'s feasibility graph per call, or under
# ``force_solver`` one whole (layout, alpha, frame), rows and columns in
# ascending order either way.
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


class UnitStats(Sequence[AlphaStats]):
    """One layout's ``AlphaStats`` per alpha as columns: ``alphas`` in the
    caller's order, ``ints`` the (alpha, 3) int64 tp, fn, fp, ``floats`` the
    (alpha, 4) float64 sums and ``tpa`` (counts, gt, pred, gt_ids, pred_ids),
    each (gt, pred) cell's TPA per alpha, (cells, alpha), and its indices
    into the ids, or None for no ``pair_tpa``. It builds an ``AlphaStats``,
    and its ``pair_tpa``, only when one is read, compares equal to any
    sequence of equal stats and has the list's repr."""

    __slots__ = ("alphas", "ints", "floats", "tpa")

    def __init__(self, alphas: Sequence[float], ints: np.ndarray, floats: np.ndarray, tpa=None):
        self.alphas, self.ints, self.floats, self.tpa = tuple(alphas), ints, floats, tpa

    @classmethod
    def from_stats(cls, stats: Sequence[AlphaStats]) -> "UnitStats":
        """The columns of ``stats``, without their ``pair_tpa``; a
        ``UnitStats`` is returned as it is."""
        if isinstance(stats, UnitStats):
            return stats
        return cls(
            [s.alpha for s in stats],
            np.array([(s.tp, s.fn, s.fp) for s in stats], np.int64).reshape(-1, 3),
            np.array(
                [(s.iou_sum, s.ass_a_sum, s.ass_re_sum, s.ass_pr_sum) for s in stats], np.float64
            ).reshape(-1, 4),
        )

    def __len__(self) -> int:
        return len(self.alphas)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        alpha, pair_tpa = self.alphas[i], None
        if self.tpa is not None:
            counts, gt, pred, gt_ids, pred_ids = self.tpa
            n = counts[:, i]
            on = np.flatnonzero(n)
            pair_tpa = {
                (gt_ids[g], pred_ids[p]): c
                for g, p, c in zip(gt[on].tolist(), pred[on].tolist(), n[on].tolist())
            }
        return AlphaStats(alpha, *self.ints[i].tolist(), *self.floats[i].tolist(), pair_tpa)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return repr(list(self))


# the float fields of an AlphaMetrics and of a MetricReport
METRIC_FIELDS = ("hota", "det_a", "ass_a", "det_re", "det_pr", "ass_re", "ass_pr", "loc_a")


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
    """One side of a unit (GT or predictions): its boxes as insertion-order
    columns (frame index ``frame``, track index ``track`` into ``ids``, and
    ``xywh``), its track ids in first-appearance order, and the box order
    ``by_frame``, by frame and then track, that the candidate pairs follow.

    ``order`` puts the tracks of every layout in content order in one pass.
    A track's content key is (first frame, its box there, box count, sum of
    x, sum of y, track id), all over the layout's frames; the sums run left
    to right in insertion order, which is file order for predictions. The
    key makes matrices invariant under id relabeling.
    """

    __slots__ = ("ids", "frame", "track", "xywh", "by_frame", "_by_track", "_rank")

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
        has_box = np.bincount(ti, minlength=len(ids)) > 0
        names = [ids[i] for i in np.flatnonzero(has_box).tolist()]
        ti = (np.cumsum(has_box) - 1)[ti]
        # lexsort is stable: a repeated (frame, track) keeps insertion order
        by_frame = np.lexsort((ti, fi))
        sf, st = fi[by_frame], ti[by_frame]
        again = by_frame[1:][(sf[1:] == sf[:-1]) & (st[1:] == st[:-1])]
        if again.size:
            i = int(again.min())  # the first repeat in insertion order
            raise ValueError(
                f"duplicate detection for track {names[ti[i]]!r} at frame {frames[fi[i]]}"
            )
        rank = np.empty(len(names), dtype=np.intp)
        rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))

        self.ids, self.frame, self.track, self.xywh = names, fi, ti, xywh
        self.by_frame, self._by_track = by_frame, np.argsort(ti, kind="stable")
        self._rank = rank

    def order(self, member: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every layout's tracks at once; ``member`` is the (layouts, frames)
        mask of each layout's frames. Returns the layout, track index and box
        count over the layout's frames of each track with a box there, layout
        by layout, each layout's tracks in content order."""
        # (layout, box) memberships by layout, then track, then insertion
        # order, so each (layout, track) is a run
        lay, at = np.nonzero(member[:, self.frame[self._by_track]])
        box = self._by_track[at]
        track = self.track[box]
        starts = np.ones(box.size, dtype=bool)
        starts[1:] = (lay[1:] != lay[:-1]) | (track[1:] != track[:-1])
        head = np.flatnonzero(starts)
        run = np.cumsum(starts) - 1
        count = np.diff(np.append(head, box.size))
        # bincount adds left to right, like the key's definition
        sx, sy = (np.bincount(run, self.xywh[box, i], minlength=head.size) for i in (0, 1))
        # each run's first frame and its box: the run's smallest (frame, box)
        code = self.frame[box].astype(np.int64) * self.frame.size + box
        first = np.minimum.reduceat(code, head) % self.frame.size if head.size else head
        fx, fy, fw, fh = self.xywh[first].T
        lay, track = lay[head], track[head]
        perm = np.lexsort(
            (self._rank[track], sy, sx, count, fh, fw, fy, fx, self.frame[first], lay)
        )
        return lay[perm], track[perm], count[perm]


def _on_frames(
    frames: np.ndarray, frame: np.ndarray, track: np.ndarray, ids: Sequence[str], xywh: np.ndarray
) -> _Tracks:
    """The tracks of the boxes that lie on ``frames`` (sorted ascending)."""
    fi = np.searchsorted(frames, frame)
    on = fi < frames.size
    on[on] = frames[fi[on]] == frame[on]
    return _Tracks(fi[on], track[on], ids, xywh[on], frames)


# Cells per dense temporary: the candidate IoU build and the float-sum buffer
# are cut to about this many cells (4 MB of float64), or to one row of a
# layout's float sums where that is longer, so a long, crowded unit holds
# about one float64 per (frame, gt, pred) cell instead of one per cell, alpha
# and layout.
_CELL_BUDGET = 1 << 19


def _blocks(n: int, cells_per_item: int) -> List[slice]:
    """``range(n)`` cut into slices of at most ``_CELL_BUDGET`` cells (at
    least one item each)."""
    step = max(1, _CELL_BUDGET // max(cells_per_item, 1))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


class UnitArrays:
    """A unit's boxes and its candidate pairs, shared by all alpha thresholds.

    The candidates are the (frame, gt, pred) triples of a GT box and a
    prediction box on the same frame whose IoU is positive, in the unit's
    (frame, gt, pred) order: ``pairs`` holds their frame, gt and pred
    indices and their IoUs. A pair with IoU 0 has level 0 at every alpha in
    (0, 1), so HOTA never scores it; no (frame, gt, pred) tensor is built.

    ``preds`` may be a ``UnitBoxes``, whose columns are used as they are, or
    any sequence of detections, converted by ``UnitBoxes.from_detections``;
    ``task.targets`` likewise a ``TargetsView`` or a dict, converted by
    ``TargetsView.from_mapping``. Boxes on frames outside ``frames`` are
    left out. ``frames`` keeps the evaluation frames as int64, ascending and
    without repeats; a frame that is not an integer is a ``TypeError``.
    """

    __slots__ = ("frames", "n_frames", "gt", "pred", "pairs")

    def __init__(self, task: ExpressionTask, preds: Sequence[Detection], frames: Sequence[int]):
        # np.unique would hash: sorting and dropping repeats is faster
        frames = np.sort(_int64_frames(frames))
        self.frames = frames = np.delete(frames, np.flatnonzero(frames[1:] == frames[:-1]) + 1)
        self.n_frames = frames.size
        preds = UnitBoxes.from_detections(preds)
        gt_columns = TargetsView.from_mapping(task.targets).unit_columns()
        self.gt = gt = _on_frames(frames, *gt_columns)
        self.pred = pred = _on_frames(frames, preds.frame, preds.track, preds.ids, preds.xywh)
        # every gt box with each prediction box on its frame: gt boxes and
        # each frame's run of prediction boxes in (frame, track) order
        g_box = gt.by_frame
        g_frame = gt.frame[g_box]
        p_start = np.searchsorted(pred.frame[pred.by_frame], np.arange(self.n_frames + 1))
        n_p = np.diff(p_start)[g_frame]
        gb = np.repeat(g_box, n_p)
        pb = pred.by_frame[
            np.arange(gb.size) + np.repeat(p_start[g_frame] - (np.cumsum(n_p) - n_p), n_p)
        ]
        iou = np.empty(gb.size, dtype=np.float64)
        for bs in _blocks(gb.size, 1):
            iou[bs] = box_iou(gt.xywh[gb[bs]], pred.xywh[pb[bs]])
        hit = np.flatnonzero(iou > 0.0)
        gb, pb = gb[hit], pb[hit]
        self.pairs = (gt.frame[gb], gt.track[gb], pred.track[pb], iou[hit])

    @property
    def gt_ids(self) -> List[str]:
        return self.gt.ids

    @property
    def pred_ids(self) -> List[str]:
        return self.pred.ids


def _second_largest(group: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Per element, the second-largest of the levels ``k`` of the elements
    that share its ``group`` key, 0 where it is alone in its group."""
    by = np.lexsort((k, group))
    sg, sk = group[by], k[by]
    # each group's second-largest is the one before its last
    i = np.searchsorted(sg, sg, side="right") - 2
    out = np.empty_like(k)
    out[by] = np.where((i >= 0) & (sg[i] == sg), sk[i], 0)
    return out


def _forced_from(
    f: np.ndarray, g: np.ndarray, p: np.ndarray, k: np.ndarray, shape: Tuple[int, int]
) -> np.ndarray:
    """The forced thresholds ``lo`` of candidates (frame ``f``, gt ``g``,
    pred ``p``) of levels ``k`` (> 0) in a unit of ``shape`` (gts, preds).
    At sorted alpha index ``a`` a candidate is feasible and its row and
    column hold no other feasible pair exactly when ``lo <= a < k``, ``lo``
    the smaller of its level and the larger second-largest level of its
    (frame, gt row) and its (frame, pred column); such a pair is a component
    of its own and is matched without the solver. Below ``lo`` it is an edge
    of its (alpha, frame)'s assignment problem."""
    n_g, n_p = shape
    row, col = _second_largest(f * n_g + g, k), _second_largest(f * n_p + p, k)
    return np.minimum(k, np.maximum(row, col))


# One side's tracks in every layout of a unit, as ``_Tracks.order`` gives
# them: each entry's layout, track index and box count over the layout's
# frames, layout by layout, each layout's tracks in its order.
Side = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _ranks(side: Side, n_lay: int) -> np.ndarray:
    """(n_lay, tracks): entry (layout, track) holds the track's rank in the
    layout, -1 where the track is not in it."""
    lay, track, _ = side
    out = np.full((n_lay, int(track.max(initial=-1)) + 1), -1, dtype=np.intp)
    out[lay, track] = np.arange(lay.size) - np.searchsorted(lay, lay)
    return out


def _number(major: np.ndarray, minor: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense numbers of the (``major``, ``minor``) keys (non-negative), in
    key order. Returns each element's number, the order that sorts the
    elements by key and where each number's run starts in that order."""
    key = major * (int(minor.max()) + 1) + minor
    by = np.argsort(key, kind="stable")
    sk = key[by]
    new = np.ones(key.size, dtype=bool)
    new[1:] = sk[1:] != sk[:-1]
    number = np.empty(key.size, dtype=np.intp)
    number[by] = np.cumsum(new) - 1
    return number, by, np.flatnonzero(new)


def _components(rows: Tuple[np.ndarray, ...], cols: Tuple[np.ndarray, ...]) -> np.ndarray:
    """Each edge's connected component, labelled by one of its nodes. Edge
    i joins row node ``rows[0][i]`` and column node ``cols[0][i]``; ``rows``
    and ``cols`` are ``_number``'s results for the edges' row and column
    keys. Min-label propagation: every node takes the smallest label at its
    edges' ends, then the label of its label, until every edge's ends agree.
    A label only moves along edges, so it is always a node of the same
    component; at the end every edge's ends agree, so each component has
    one label of its own."""
    rn, r_by, r_start = rows
    cn, c_by, c_start = cols
    n_r = r_start.size
    cn = cn + n_r
    lab = np.arange(n_r + c_start.size)
    while True:
        m = np.minimum(lab[rn], lab[cn])
        lab[:n_r] = np.minimum.reduceat(m[r_by], r_start)
        lab[n_r:] = np.minimum.reduceat(m[c_by], c_start)
        lab = lab[lab]
        if np.array_equal(lab[rn], lab[cn]):
            return lab[rn]


def _rank_in(group: np.ndarray, node: np.ndarray, n_nodes: int) -> np.ndarray:
    """Per edge, its node's rank among its group's nodes, in node order.
    Edge i lies in ``group[i]`` at node ``node[i]``, one of the nodes
    ``range(n_nodes)``, each with an edge; the edges at a node share its
    group."""
    of = np.empty(n_nodes, dtype=np.intp)
    of[node] = group
    by = np.argsort(of, kind="stable")
    sorted_of = of[by]
    rank = np.empty_like(of)
    rank[by] = np.arange(n_nodes) - np.searchsorted(sorted_of, sorted_of)
    return rank[node]


def _solve(
    problem: np.ndarray,
    a: np.ndarray,
    c: np.ndarray,
    g: np.ndarray,
    p: np.ndarray,
    weight: np.ndarray,
    solver: Solver,
    split: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    """Pass 2 on the unforced (layout, alpha, frame) problems, all at once.
    Edge i is candidate ``c[i]`` at sorted alpha index ``a[i]``: the cell
    (gt rank ``g[i]``, pred rank ``p[i]``), of weight ``weight[i]``, of
    problem ``problem[i]``, a key in (layout, alpha, frame) order.

    The (problem, gt) and (problem, pred) nodes are numbered once, so a
    group never joins two problems. With ``split`` the edges are grouped
    by connected component, without it by problem; the edges are sorted by
    group once, and each group's rows and columns ranked from 0. With
    ``split``, ``match_small`` decides the groups it can; every other group
    goes to ``solver`` on its own, one per call, in (problem, first row)
    order. Either way a matrix's rows and columns are ascending, so each
    component's matches are those of the problem's whole matrix (the
    assignment module's component argument). A solver's pair off its
    matrix's edges, or two pairs that share a row or a column, raise
    ``ValueError``. Returns the matches as (alpha, candidate) index
    arrays."""
    rows, cols = _number(problem, g), _number(problem, p)
    key = _components(rows, cols) if split else problem
    by = np.argsort(key, kind="stable")
    key, a, c, weight = key[by], a[by], c[by], weight[by]
    head = np.ones(key.size, dtype=bool)
    head[1:] = key[1:] != key[:-1]
    group = np.cumsum(head) - 1
    ri, ci = (_rank_in(group, x[0][by], x[2].size) for x in (rows, cols))
    decided = chosen = np.zeros(key.size, dtype=bool)
    if split:
        decided, chosen = match_small(group, ri, ci, weight)
    solved_a, solved_c = [a[chosen]], [c[chosen]]

    # one solver call per undecided group
    bounds = np.append(np.flatnonzero(head), key.size)
    hard = np.flatnonzero(~decided[bounds[:-1]])
    for s0, s1 in zip(bounds[hard].tolist(), bounds[hard + 1].tolist()):
        # each cell's edge number, -1 off the edges
        r, q = ri[s0:s1], ci[s0:s1]
        cand = np.full((r.max() + 1, q.max() + 1), -1, dtype=np.intp)
        cand[r, q] = np.arange(s0, s1)
        mask = cand >= 0
        result = solver(WeightMatrix(weights=np.where(mask, weight[cand], 0.0), mask=mask))
        picked = _checked_pairs(result.pairs, cand)
        solved_c.append(c[picked])
        solved_a.append(np.full(len(picked), a[s0]))
    return np.concatenate(solved_a), np.concatenate(solved_c)


def _checked_pairs(pairs: Sequence[Tuple[int, int]], cand: np.ndarray) -> List[int]:
    """The edge numbers ``cand`` holds at a solver's ``pairs`` (-1 off the
    matrix's edges). A pair off the edges or out of range, or two pairs that
    share a row or a column, raise ``ValueError``: such an answer is no
    matching of the matrix. Plain Python, as a solver returns a few pairs."""
    n_r, n_c = cand.shape
    edges = [cand[r, c] if 0 <= r < n_r and 0 <= c < n_c else -1 for r, c in pairs]
    if -1 in edges:
        raise ValueError(f"solver matched a pair off the {n_r}x{n_c} matrix's edges: {pairs}")
    if len({r for r, _ in pairs}) < len(pairs) or len({c for _, c in pairs}) < len(pairs):
        raise ValueError(f"solver matched a row or a column twice: {pairs}")
    return edges


def _row_sums(
    pos: np.ndarray, val: np.ndarray, seg_rows: np.ndarray, seg_len: np.ndarray
) -> np.ndarray:
    """The row sums of segments laid end to end, segment s a C-order
    (``seg_rows[s]``, ``seg_len[s]``) float64 array that is zero but for the
    values ``val`` at flat positions ``pos`` (unique). Each segment's rows
    are cut by ``_blocks`` and summed by numpy ``sum`` in one reused zeroed
    buffer, so a row sums exactly as it does in the dense array."""
    by_pos = np.argsort(pos)
    pos, val = pos[by_pos], val[by_pos]
    sizes = seg_rows * seg_len
    # as large as the largest block: a segment, or the budget or one row
    buf = np.zeros(int(np.minimum(sizes, np.maximum(seg_len, _CELL_BUDGET)).max(initial=0)))
    sums = np.empty(int(seg_rows.sum()), dtype=np.float64)
    table = np.stack([np.cumsum(seg_rows) - seg_rows, np.cumsum(sizes) - sizes, seg_rows, seg_len])
    for row, cell, n_rows, length in table.T.tolist():
        for rs in _blocks(n_rows, length):
            start, end = cell + rs.start * length, cell + rs.stop * length
            lo, hi = np.searchsorted(pos, [start, end])
            at = pos[lo:hi] - start
            buf[at] = val[lo:hi]
            sums[row + rs.start : row + rs.stop] = buf[: end - start].reshape(-1, length).sum(1)
            buf[at] = 0.0
    return sums


def _score_layouts(
    n_alpha: int,
    cands: Tuple[np.ndarray, ...],
    member: np.ndarray,
    gts: Side,
    preds: Side,
    solver: Solver,
    split: bool,
) -> Tuple[np.ndarray, np.ndarray, Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Passes 1-3 on every layout of one unit together, at ``n_alpha``
    sorted alphas. ``cands`` holds the unit's candidate pairs (level > 0) in
    (frame, gt, pred) order: their frame, gt and pred indices, levels,
    forced thresholds ``lo`` and IoUs; ``member`` the (layouts, F) mask of
    each layout's frames; ``gts`` and ``preds`` the layouts' tracks. A
    candidate is matched without the solver at the alphas from its ``lo``
    up to its level; below its ``lo`` it is an edge of its layout's (alpha,
    frame) problem, matched by ``_solve``, with ``split``, with the
    layout's own priors and tie-break scale.

    Returns the (layouts, alpha, 3) int64 tp, fn, fp; the (layouts, alpha,
    4) float64 iou_sum, ass_a_sum, ass_re_sum, ass_pr_sum; and layout 0's
    (gt, pred) cells with a candidate: their TPA at each alpha, (cells,
    alpha), and their gt and pred track indices."""
    n_lay, n_frames = member.shape
    wf, wg, wp, wk, wlo, wiou = cands
    (gl, gi, gc), (pl, pi, pc) = gts, preds
    n_f = np.count_nonzero(member, axis=1)
    n_g, n_p = np.bincount(gl, minlength=n_lay), np.bincount(pl, minlength=n_lay)
    # all layouts' box counts end to end, and each layout's offset there
    g_at, p_at = np.cumsum(n_g) - n_g, np.cumsum(n_p) - n_p
    ints = np.zeros((n_lay, n_alpha, 3), dtype=np.int64)
    for col, at, n, counts in ((1, g_at, n_g, gc), (2, p_at, n_p, pc)):
        total = np.concatenate([[0], np.cumsum(counts)])
        ints[:, :, col] = (total[at + n] - total[at])[:, None]
    floats = np.zeros((n_lay, n_alpha, 4), dtype=np.float64)

    # Every layout's candidate pairs, stacked layout by layout in the unit's
    # (frame, gt, pred) order, each with the layout's own frame, gt and pred
    # ranks. A candidate of the unit is one of a layout exactly when its
    # frame is, since both its boxes lie on that frame.
    lay, c = np.nonzero(member[:, wf])
    cf, ck, lo, ciou = wf[c], wk[c], wlo[c], wiou[c]
    f = (np.cumsum(member, axis=1) - 1)[lay, cf]
    g = _ranks(gts, n_lay)[lay, wg[c]]
    p = _ranks(preds, n_lay)[lay, wp[c]]

    # the (gt, pred) cells holding a candidate, in layout and cell order
    n_cells = n_g * n_p
    cell = g * n_p[lay] + p
    key = (np.cumsum(n_cells) - n_cells)[lay] + cell
    at = np.zeros(int(n_cells.sum()), dtype=np.intp)
    at[key] = 1
    used = np.flatnonzero(at)
    n_used = used.size
    at[used] = np.arange(n_used)
    u = at[key]
    ulay = np.empty(n_used, dtype=np.intp)
    ulay[u] = lay
    ucell = np.empty(n_used, dtype=np.intp)
    ucell[u] = cell
    ug, up = np.divmod(ucell, n_p[ulay])
    # each used cell's gt and pred box counts over its layout's frames
    box_gt, box_pred = gc[g_at[ulay] + ug], pc[p_at[ulay] + up]
    box_sum = box_gt + box_pred

    # The integer tallies are exact in any order. Per used cell, two rows of
    # n_alpha + 1 slots count its candidates at the alphas from a start up to
    # their level: from 0, its feasible pairs, and from lo, its forced
    # matches; bincounts of the starts and ends, then a cumsum.
    width = n_alpha + 1
    base = u * width
    n_slots = n_used * width
    counts = np.stack([np.bincount(start, minlength=n_slots) for start in (base, base + lo)])
    counts -= np.bincount(base + ck, minlength=n_slots)
    counts = counts.reshape(2, n_used, width).cumsum(2)[:, :, :n_alpha]
    n_pair, pair_tpa = counts[0], counts[1]

    # Pass 2 on the unforced (layout, alpha, frame) problems: candidate c is
    # an edge at each sorted alpha a below its lo, where it is feasible and
    # shares its row or its column with another feasible pair.
    ec = np.repeat(np.arange(lay.size), lo)
    solved_a = solved_c = np.empty(0, dtype=np.intp)
    if ec.size:
        ea = np.arange(ec.size) - np.repeat(np.cumsum(lo) - lo, lo)
        # Pass 1: per used cell and alpha, the prior association score
        # n / (|gt| + |pred| - n) of its n feasible frames; a candidate's
        # weight adds its IoU over twice its layout's frame count
        s_prior = n_pair / (box_sum[:, None] - n_pair)
        tie = ciou / (2.0 * n_f)[lay]
        problem = (lay[ec] * n_alpha + ea) * n_frames + cf[ec]
        solved_a, solved_c = _solve(
            problem, ea, ec, g[ec], p[ec], s_prior[u[ec], ea] + tie[ec], solver, split
        )
        np.add.at(pair_tpa, (u[solved_c], solved_a), 1)
    # TP per layout: the TPA of its used cells, which follow each other
    used_at = np.searchsorted(ulay, np.arange(n_lay + 1))
    tpa_sum = np.zeros((n_used + 1, n_alpha), dtype=np.int64)
    np.cumsum(pair_tpa, axis=0, out=tpa_sum[1:])
    tp = tpa_sum[used_at[1:]] - tpa_sum[used_at[:-1]]
    ints[:, :, 0] = tp
    ints[:, :, 1:] -= tp[:, :, None]

    # Pass 3's float sums are numpy's pairwise sums over dense arrays in C
    # order, as matching the layout alone at one alpha would build them: the
    # (F, G, P) IoUs of the alpha's matches and its three (G, P) association
    # terms. Only the alphas whose matches can differ from the previous
    # alpha's get rows of their own ("fresh"): the first, those up to the
    # layout's largest forced threshold (solved pairs) and the candidate
    # levels (a forced pair stops being feasible). Any other alpha has the
    # same matches as the one before it, so the same sums. A layout with no
    # match at any alpha has only zero sums and gets no rows.
    top = np.zeros(n_lay, dtype=np.intp)
    np.maximum.at(top, lay, lo)
    fresh = np.arange(width) <= top[:, None]
    fresh[lay, ck] = True
    below = np.zeros((n_lay, width), dtype=np.intp)  # fresh alphas below each
    np.cumsum(fresh[:, :n_alpha], axis=1, out=below[:, 1:])
    slot = below[:, 1:] - 1  # each alpha's fresh row
    n_fresh = below[:, -1] * tp.any(1)

    # per layout, a segment of IoU rows, then one of association rows
    # (three per fresh alpha); one value per matched pair or used cell
    seg_rows = np.stack([n_fresh, 3 * n_fresh], axis=1).ravel()
    seg_len = np.stack([n_f * n_cells, n_cells], axis=1).ravel()
    seg_cell = (np.cumsum(seg_rows * seg_len) - seg_rows * seg_len).reshape(n_lay, 2)
    seg_row = (np.cumsum(seg_rows) - seg_rows).reshape(n_lay, 2)

    # the matched candidates at each fresh alpha: forced ones from the first
    # fresh alpha at or above lo to the last below k, then the solved ones
    reps = below[lay, ck] - below[lay, lo]
    mc = np.concatenate([np.repeat(np.arange(lay.size), reps), solved_c])
    mj = np.concatenate([
        np.arange(int(reps.sum())) - np.repeat(np.cumsum(reps) - reps - below[lay, lo], reps),
        slot[lay[solved_c], solved_a],
    ])
    ml = lay[mc]
    iou_pos = seg_cell[ml, 0] + (mj * n_f[ml] + f[mc]) * n_cells[ml] + cell[mc]

    # TP-weighted TPA/(TPA+FNA+FPA), TPA/(TPA+FNA) and TPA/(TPA+FPA) of each
    # used cell with TPA > 0 at a fresh alpha
    au, aa = np.nonzero((pair_tpa > 0) & fresh[ulay, :n_alpha])
    al = ulay[au]
    tpa = pair_tpa[au, aa].astype(np.float64)
    ass = np.stack([tpa / (box_sum[au] - tpa), tpa / box_gt[au], tpa / box_pred[au]]) * tpa
    ass_pos = seg_cell[al, 1] + (3 * slot[al, aa] + np.arange(3)[:, None]) * n_cells[al] + ucell[au]

    sums = _row_sums(
        np.concatenate([iou_pos, ass_pos.ravel()]),
        np.concatenate([ciou[mc], ass.ravel()]),
        seg_rows,
        seg_len,
    )
    scored = np.flatnonzero(n_fresh)
    rows = slot[scored]
    floats[scored, :, 0] = sums[seg_row[scored, 0][:, None] + rows]
    ass_rows = seg_row[scored, 1][:, None] + 3 * rows
    floats[scored, :, 1:] = sums[ass_rows[:, :, None] + np.arange(3)]

    n0 = int(np.count_nonzero(ulay == 0))
    return ints, floats, (pair_tpa[:n0], gi[ug[:n0]], pi[up[:n0]])


def match_unit_all_alphas(
    task: ExpressionTask,
    preds: Sequence[Detection],
    alphas: Sequence[float],
    frames: Sequence[int],
    solver: Solver = solve_max_weight,
    force_solver: bool = False,
    restrictions: Optional[Mapping[str, Sequence[int]]] = None,
) -> Union[UnitStats, Tuple[UnitStats, Dict[str, UnitStats]]]:
    """Run the two-pass HOTA matching for every alpha over one unit.

    ``frames`` is the evaluation frame set. ``force_solver`` disables the
    forced-match fast path; results must be identical either way. Returns
    one ``AlphaStats`` per alpha, in the order of ``alphas``, as a
    ``UnitStats`` view over the scorer's arrays; each equals what a call
    with that alpha alone gives.

    ``restrictions`` maps a name to a subset of ``frames``. With it, the call
    returns ``(stats, {name: stats})``, where each restriction's stats equal
    those of the unit restricted to its frames and matched on its own
    (``restrict_to_attribute``), except that they carry no ``pair_tpa``. A
    restriction frame outside ``frames`` raises ``ValueError``, and a frame
    that is not an integer, in ``frames`` or a restriction, ``TypeError``.
    """
    for a in alphas:
        if not 0.0 < a < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {a}")
    ua = UnitArrays(task, preds, frames)
    # layout 0 is the whole unit, each restriction a layout of its frames
    names = list(restrictions or {})
    member = np.zeros((1 + len(names), ua.n_frames), dtype=bool)
    member[0] = True
    for i, name in enumerate(names, start=1):
        chosen = _int64_frames(restrictions[name])
        at = np.searchsorted(ua.frames, chosen)
        found = at < ua.n_frames
        found[found] = ua.frames[at[found]] == chosen[found]
        if not found.all():
            outside = int(chosen[~found].min())
            raise ValueError(f"restriction {name!r}: frame {outside} is not evaluated")
        member[i, at] = True

    # the layouts are scored at the sorted alphas, then put back in order
    alphas_arr = np.asarray(alphas, dtype=np.float64)
    order = np.argsort(alphas_arr, kind="stable")
    back = np.argsort(order)

    # each candidate's level: the number of sorted alphas at most its IoU;
    # it is feasible at sorted alpha index a exactly when a < level
    f, g, p, iou = ua.pairs
    k = np.searchsorted(alphas_arr[order], iou, side="right")
    cand = np.flatnonzero(k)
    f, g, p, k, iou = f[cand], g[cand], p[cand], k[cand], iou[cand]
    # A pair that is alone in its row and column is a component of its own,
    # with one optimum for any positive weights, so its match holds under
    # every restriction that keeps its frame.
    # ``force_solver`` forces nothing: every feasible pair is an edge.
    lo = k if force_solver else _forced_from(f, g, p, k, (len(ua.gt_ids), len(ua.pred_ids)))
    # a layout has its tracks in content order over its frames, so every sum
    # and tie runs as it would alone
    ints, floats, tpa = _score_layouts(
        order.size, (f, g, p, k, lo, iou), member,
        ua.gt.order(member), ua.pred.order(member), solver, not force_solver,
    )

    grid = [float(a) for a in alphas]
    ints, floats = ints[:, back], floats[:, back]
    counts, gt, pred = tpa
    stats = UnitStats(grid, ints[0], floats[0], (counts[:, back], gt, pred, ua.gt_ids, ua.pred_ids))
    if restrictions is None:
        return stats
    return stats, {name: UnitStats(grid, ints[i], floats[i]) for i, name in enumerate(names, 1)}


def pool_tallies(
    alphas: Sequence[float], ints: Sequence[np.ndarray], floats: Sequence[np.ndarray]
) -> List[AlphaStats]:
    """Pool per-unit tallies, one (alpha, 3) ``ints`` and one (alpha, 4)
    ``floats`` array per unit as ``UnitStats`` lays them out, into one
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
    (``pool_tallies`` over their ``UnitStats.from_stats`` columns).

    Float components are combined with exactly rounded summation, so the
    pooled result is bit-identical for any ordering of the units.
    """
    units = [UnitStats.from_stats(u) for u in per_unit]
    if not units:
        return []
    grid = units[0].alphas
    if any(u.alphas != grid for u in units):
        raise ValueError("mismatched alpha grids across units")
    return pool_tallies(grid, [u.ints for u in units], [u.floats for u in units])


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
            ones = dict.fromkeys(METRIC_FIELDS, 1.0)
            rows.append(AlphaMetrics(alpha=s.alpha, tp=0, fn=0, fp=0, empty=True, **ones))
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

    return MetricReport(
        **{k: 100.0 * math.fsum(getattr(r, k) for r in rows) / len(rows) for k in METRIC_FIELDS},
        per_alpha=tuple(rows),
        flags=("EMPTY_EVAL",) if all(r.empty for r in rows) else (),
    )
