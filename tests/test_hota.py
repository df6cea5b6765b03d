"""HOTA engine: unit matching, pooling, finalization, fast-path equivalence."""

import dataclasses
import json
import math
import os
import pickle
import subprocess
import sys
from collections.abc import Sequence
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmot_eval import hota, pipeline
from rmot_eval.assignment import Matching, match_small, solve_oracle
from rmot_eval.attributes import restrict_to_attribute
from rmot_eval.hota import (
    AlphaStats,
    _forced_from,
    accumulate,
    UnitStats,
    finalize,
    match_unit_all_alphas,
    pool_tallies,
)
from rmot_eval.io_formats import load_bundle, parse_predictions, unit_filename
from rmot_eval.model import (
    DEFAULT_ALPHA_GRID,
    Attribute,
    EvalConfig,
    ExpressionTask,
    filter_predictions,
)

from .conftest import box, det, task_from_tracks, track


def simple_task(n_frames=2, b=None, seq="s", expr="e"):
    b = b or box(0, 0, 10, 10)
    tr = track("g1", range(1, n_frames + 1), b)
    return task_from_tracks(seq, expr, "a thing", [(tr, range(1, n_frames + 1))])


class TestMatchUnit:
    def test_perfect_two_frames(self):
        task = simple_task(2)
        preds = [det(1, box(0, 0, 10, 10), "p1"), det(2, box(0, 0, 10, 10), "p1")]
        for alpha in (0.05, 0.5, 0.95):
            s = match_unit_all_alphas(task, preds, [alpha], range(1, 3))[0]
            assert (s.tp, s.fn, s.fp) == (2, 0, 0)
            assert s.ass_a_sum == 2.0  # A = 1 for both TPs
            assert s.iou_sum == 2.0

    def test_two_frame_id_switch(self):
        task = simple_task(2)
        preds = [det(1, box(0, 0, 10, 10), "p1"), det(2, box(0, 0, 10, 10), "p2")]
        s = match_unit_all_alphas(task, preds, [0.5], range(1, 3))[0]
        assert (s.tp, s.fn, s.fp) == (2, 0, 0)
        # each TP: TPA=1, FNA=1, FPA=0 -> A = 0.5
        assert s.pair_tpa == {("g1", "p1"): 1, ("g1", "p2"): 1}
        assert s.ass_a_sum == pytest.approx(1.0)

    def test_no_target_with_surviving_predictions(self):
        task = ExpressionTask("s", "e", "nothing here", {})
        preds = [det(f, box(0, 0, 5, 5), "p1") for f in (1, 2, 3)]
        s = match_unit_all_alphas(task, preds, [0.5], range(1, 4))[0]
        assert (s.tp, s.fn, s.fp) == (0, 0, 3)

    def test_half_missed(self):
        task = simple_task(2)
        preds = [det(1, box(0, 0, 10, 10), "p1")]
        s = match_unit_all_alphas(task, preds, [0.5], range(1, 3))[0]
        assert (s.tp, s.fn, s.fp) == (1, 1, 0)
        assert s.ass_a_sum == pytest.approx(0.5)

    def test_below_alpha_not_matched(self):
        task = simple_task(1)
        preds = [det(1, box(5, 0, 10, 10), "p1")]  # iou = 50/150 = 1/3
        low = match_unit_all_alphas(task, preds, [0.3], [1])[0]
        high = match_unit_all_alphas(task, preds, [0.4], [1])[0]
        assert (low.tp, low.fn, low.fp) == (1, 0, 0)
        assert (high.tp, high.fn, high.fp) == (0, 1, 1)

    def test_duplicate_detection_rejected(self):
        task = simple_task(1)
        preds = [det(1, box(0, 0, 10, 10), "p1"), det(1, box(1, 1, 9, 9), "p1")]
        with pytest.raises(ValueError, match="duplicate"):
            match_unit_all_alphas(task, preds, [0.5], [1])[0]
        # of two repeats, the first in file order is reported
        preds = [
            det(2, box(0, 0, 10, 10), "p1"),
            det(1, box(0, 0, 10, 10), "p2"),
            det(1, box(0, 0, 10, 10), "p2"),
            det(2, box(0, 0, 10, 10), "p1"),
        ]
        with pytest.raises(ValueError, match="track 'p2' at frame 1"):
            match_unit_all_alphas(simple_task(2), preds, [0.5], [1, 2])[0]

    def test_frames_outside_window_ignored(self):
        task = simple_task(5)
        preds = [det(f, box(0, 0, 10, 10), "p1") for f in range(1, 6)]
        s = match_unit_all_alphas(task, preds, [0.5], [2, 3])[0]
        assert (s.tp, s.fn, s.fp) == (2, 0, 0)

    def test_prior_association_guides_matching(self):
        # gt g1 lives on frames 1-3; pred pA overlaps g1 on all 3 frames,
        # pred pB only on frame 3 but with higher IoU there. The Pass-1
        # prior should keep g1-pA together on frame 3.
        g1 = track("g1", [1, 2, 3], box(0, 0, 10, 10))
        task = task_from_tracks("s", "e", "t", [(g1, [1, 2, 3])])
        preds = [
            det(1, box(0, 0, 10, 10), "pA"),
            det(2, box(0, 0, 10, 10), "pA"),
            det(3, box(1, 0, 10, 10), "pA"),  # iou 9/11
            det(3, box(0, 0, 10, 10), "pB"),  # iou 1.0
        ]
        s = match_unit_all_alphas(task, preds, [0.5], [1, 2, 3])[0]
        assert s.pair_tpa == {("g1", "pA"): 3}
        assert (s.tp, s.fn, s.fp) == (3, 0, 1)


class TestAllAlphasConsistency:
    def test_matches_single_alpha_calls(self):
        g1 = track("g1", [1, 2, 3, 4], box(0, 0, 8, 8))
        g2 = track("g2", [2, 3], box(4, 0, 8, 8))
        task = task_from_tracks("s", "e", "t", [(g1, [1, 2, 3, 4]), (g2, [2, 3])])
        preds = [
            det(1, box(0, 0, 8, 8), "p1"),
            det(2, box(1, 0, 8, 8), "p1"),
            det(2, box(4, 1, 8, 8), "p2"),
            det(3, box(3, 0, 8, 8), "p2"),
            det(4, box(20, 20, 8, 8), "p3"),
        ]
        combined = match_unit_all_alphas(task, preds, DEFAULT_ALPHA_GRID, range(1, 5))
        for stats, alpha in zip(combined, DEFAULT_ALPHA_GRID):
            single = match_unit_all_alphas(task, preds, [alpha], range(1, 5))[0]
            assert (stats.tp, stats.fn, stats.fp) == (single.tp, single.fn, single.fp)
            assert stats.iou_sum == single.iou_sum
            assert stats.ass_a_sum == single.ass_a_sum
            assert stats.pair_tpa == single.pair_tpa

    def test_force_solver_bit_identical(self):
        rng = np.random.default_rng(42)
        for trial in range(20):
            n_frames = int(rng.integers(1, 6))
            targets = {}
            preds = []
            for f in range(1, n_frames + 1):
                for gi in range(int(rng.integers(0, 4))):
                    x, y = rng.integers(0, 8, size=2)
                    w, h = rng.integers(1, 6, size=2)
                    targets.setdefault(f, {})[f"g{gi}"] = box(
                        float(x), float(y), float(w), float(h)
                    )
                for pi in range(int(rng.integers(0, 4))):
                    x, y = rng.integers(0, 8, size=2)
                    w, h = rng.integers(1, 6, size=2)
                    preds.append(
                        det(f, box(float(x), float(y), float(w), float(h)), f"p{pi}")
                    )
            task = ExpressionTask("s", "e", "t", targets)
            fast = match_unit_all_alphas(task, preds, DEFAULT_ALPHA_GRID, range(1, n_frames + 1))
            slow = match_unit_all_alphas(
                task, preds, DEFAULT_ALPHA_GRID, range(1, n_frames + 1), force_solver=True
            )
            for a, b in zip(fast, slow):
                assert (a.tp, a.fn, a.fp) == (b.tp, b.fn, b.fp)
                assert a.iou_sum == b.iou_sum
                assert a.ass_a_sum == b.ass_a_sum
                assert a.ass_re_sum == b.ass_re_sum
                assert a.ass_pr_sum == b.ass_pr_sum
                assert a.pair_tpa == b.pair_tpa

    def test_invalid_alpha_rejected(self):
        task = simple_task(1)
        with pytest.raises(ValueError):
            match_unit_all_alphas(task, [], [0.0], [1])
        with pytest.raises(ValueError):
            match_unit_all_alphas(task, [], [1.0], [1])

    def test_relabel_invariance(self):
        g1 = track("zz", [1, 2], box(0, 0, 8, 8))
        g2 = track("aa", [1, 2], box(20, 0, 8, 8))
        task = task_from_tracks("s", "e", "t", [(g1, [1, 2]), (g2, [1, 2])])
        preds = [
            det(1, box(0, 0, 8, 8), "x9"), det(2, box(1, 0, 8, 8), "x9"),
            det(1, box(20, 0, 8, 8), "x1"), det(2, box(20, 1, 8, 8), "x1"),
        ]
        base = match_unit_all_alphas(task, preds, DEFAULT_ALPHA_GRID, [1, 2])

        relabeled_task = ExpressionTask(
            "s", "e", "t",
            {f: {f"T-{t}": b for t, b in row.items()} for f, row in task.targets.items()},
        )
        relabeled_preds = [
            det(d.frame, d.box, f"P-{d.track_id}") for d in preds
        ]
        other = match_unit_all_alphas(
            relabeled_task, relabeled_preds, DEFAULT_ALPHA_GRID, [1, 2]
        )
        for a, b in zip(base, other):
            assert (a.tp, a.fn, a.fp) == (b.tp, b.fn, b.fp)
            assert a.iou_sum == b.iou_sum
            assert a.ass_a_sum == b.ass_a_sum


class TestSolverRouting:
    """Star and 2x2 components without ties are decided by
    ``assignment.match_small``, without the solver; with
    ``force_solver`` every (layout, alpha, frame) with a feasible pair goes
    to the solver whole. Both give the same stats."""

    A, B = box(0, 0, 10, 10), box(5, 0, 10, 10)
    TARGETS = {
        1: {"a": A},  # with predictions p and q: a 1x2 star
        2: {"a": A, "b": box(1, 0, 10, 10)},  # with p: a 2x1 star
        # with p and q: a 2x2 of four edges (IoU 1, 3/7, 1/3, 9/11), three
        # edges once alpha passes 1/3, then two pairs alone
        3: {"a": A, "b": B},
        4: {"a": A},  # forced at every alpha
    }
    PREDS = [
        det(1, A, "p"), det(1, box(1, 0, 10, 10), "q"),
        det(2, A, "p"),
        det(3, A, "p"), det(3, box(4, 0, 10, 10), "q"),
        det(4, A, "p"),
    ]
    RESTRICTIONS = {"r1": [1, 3], "r2": [2, 3, 4]}

    def run(self, force_solver):
        calls = []

        def counting(m):
            calls.append(m)
            return hota.solve_max_weight(m)

        result = match_unit_all_alphas(
            ExpressionTask("s", "e", "t", self.TARGETS), self.PREDS, DEFAULT_ALPHA_GRID,
            range(1, 5), solver=counting, force_solver=force_solver,
            restrictions=self.RESTRICTIONS,
        )
        return result, len(calls)

    def test_closed_forms_call_no_solver(self):
        (fast, fast_r), fast_calls = self.run(False)
        (slow, slow_r), slow_calls = self.run(True)
        assert fast_calls == 0
        # one call per layout, alpha and frame with a feasible pair: every
        # alpha up to the frame's best IoU, 1 on each of these frames
        layouts = [[1, 2, 3, 4], *self.RESTRICTIONS.values()]
        assert slow_calls == len(DEFAULT_ALPHA_GRID) * sum(map(len, layouts))
        assert fast == slow
        assert fast_r == slow_r


def is_connected(m):
    """Whether every row and column of ``m`` lies on one connected
    component of its feasibility graph."""
    feas = m.feasible()
    rows = np.zeros(m.rows, dtype=bool)
    rows[0] = True
    while True:
        cols = feas[rows].any(0)
        grown = feas[:, cols].any(1)
        if np.array_equal(grown, rows):
            return bool(rows.all() and cols.all())
        rows = grown


def match_both_ways(task, preds, frames, restrictions):
    """The unit's stats on the default path, whose solver calls must each
    get one connected component, and under ``force_solver``; and the
    default path's solver matrices."""
    calls = []

    def components_only(m):
        assert is_connected(m), m
        calls.append(m)
        return hota.solve_max_weight(m)

    fast = match_unit_all_alphas(
        task, preds, DEFAULT_ALPHA_GRID, frames, solver=components_only,
        restrictions=restrictions,
    )
    slow = match_unit_all_alphas(
        task, preds, DEFAULT_ALPHA_GRID, frames, force_solver=True, restrictions=restrictions,
    )
    return fast, slow, calls


class TestComponentsOnly:
    """On the default path the solver is handed one connected component per
    call, never a frame's whole matrix, and the stats are those of
    ``force_solver``, which hands it each (layout, alpha, frame) whole."""

    def test_two_dense_clusters_on_one_frame(self):
        # two 4x4 clusters, every gt box overlapping every prediction of its
        # own cluster and none of the other's; frame 2 holds one of them
        targets, preds = {}, []
        for x0 in (0.0, 100.0):
            for i in range(4):
                for f in (1, 2) if x0 == 0.0 else (1,):
                    targets.setdefault(f, {})[f"g{x0:.0f}-{i}"] = box(x0 + i, 0, 10, 10)
                    preds.append(det(f, box(x0 + i + 0.5, 0, 10, 10), f"p{x0:.0f}-{i}"))
        task = ExpressionTask("s", "e", "t", targets)
        fast, slow, calls = match_both_ways(task, preds, [1, 2], {"r": [1]})
        assert fast == slow
        assert calls and {(m.rows, m.cols) for m in calls} == {(4, 4)}

    def test_crowded_golden_bundle(self):
        n_calls = 0
        for unit in golden_crowded_units():
            fast, slow, calls = match_both_ways(*unit)
            assert fast == slow
            n_calls += len(calls)
        assert n_calls > 0


def golden_crowded_units():
    """(task, filtered predictions, frames, attribute restrictions) of each
    unit of the checked-in crowded golden bundle."""
    root = Path(__file__).resolve().parent / "data" / "golden" / "crowded"
    bundle = load_bundle(root / "bundle")
    for task in bundle.tasks:
        seq = bundle.sequences[task.sequence_id]
        boxes = parse_predictions(
            root / "predictions" / unit_filename(task.sequence_id, task.expression_id),
            seq.length,
        )
        restrictions = {
            attr.value: labels
            for attr in Attribute
            if (labels := bundle.attributes[task.sequence_id].frames_with(attr))
        }
        yield task, filter_predictions(boxes, EvalConfig()), range(1, seq.length + 1), restrictions


def decided_small(m):
    """Whether ``match_small`` decides ``m``, a matrix of feasible cells."""
    r, c = np.nonzero(m.feasible())
    return bool(match_small(np.zeros(r.size, dtype=np.intp), r, c, m.weights[r, c])[0].any())


class TestSmallRouting:
    """A component of at most 3x4 or 4x3 cells reaches the solver only when
    ``match_small`` leaves it undecided, and the stats are those of
    ``force_solver``."""

    # one frame, five clusters far apart, every pair of a cluster with IoU
    # above 0.1 or 0: gt and pred x extents (width 10) per cluster
    CLUSTERS = {
        "wide": ([0, 10], [2, 8, 14]),  # a 2x3 of five edges
        "path": ([0, 10, 20], [4, 16]),  # g0-p0-g1-p1-g2, three rows
        "star": ([0], [1, -1]),  # two edges of equal weight
        "square": ([0, 3], [1, 2]),  # a 2x2 of four edges
        "tie": ([0, 10], [5, 5]),  # a 2x2 of four edges of equal weight
    }
    ALPHAS = (0.05, 0.1)

    def test_small_components_reach_the_solver_only_when_undecided(self):
        targets, preds = {1: {}}, []
        for y, (name, (gxs, pxs)) in zip(range(0, 500, 100), self.CLUSTERS.items()):
            for i, x in enumerate(gxs):
                targets[1][f"{name}-g{i}"] = box(x, y, 10, 10)
            preds += [det(1, box(x, y, 10, 10), f"{name}-p{i}") for i, x in enumerate(pxs)]
        task = ExpressionTask("s", "e", "t", targets)
        calls = []

        def recording(m):
            calls.append(m)
            return hota.solve_max_weight(m)

        fast = match_unit_all_alphas(task, preds, self.ALPHAS, [1], solver=recording)
        slow = match_unit_all_alphas(task, preds, self.ALPHAS, [1], force_solver=True)
        assert fast == slow
        got = sorted((m.rows, m.cols, int(m.mask.sum())) for m in calls)
        assert got == [(1, 2, 2)] * len(self.ALPHAS) + [(2, 2, 4)] * len(self.ALPHAS)
        assert not any(decided_small(m) for m in calls)

        golden = [m for unit in golden_crowded_units() for m in match_both_ways(*unit)[2]]
        assert golden and not any(decided_small(m) for m in golden)


class TestSolverAnswerChecked:
    """A solver's answer that is no matching of its matrix raises
    ``ValueError``; it is never counted."""

    # with g2 and p1 apart, cell (1, 0) of the frame's 2x2 matrix has no edge
    TARGETS = {1: {"g1": box(0, 0, 10, 10), "g2": box(12, 0, 10, 10)}}
    PREDS = [det(1, box(1, 0, 10, 10), "p1"), det(1, box(6, 0, 10, 10), "p2")]

    @pytest.mark.parametrize(
        "pairs, message",
        [
            (((1, 0),), "off the 2x2 matrix's edges"),
            (((0, 0), (2, 1)), "off the 2x2 matrix's edges"),
            (((0, -1),), "off the 2x2 matrix's edges"),
            (((0, 0), (0, 1)), "a row or a column twice"),
            (((0, 1), (1, 1)), "a row or a column twice"),
        ],
    )
    def test_bad_answer_raises(self, pairs, message):
        def bad(m):
            assert (m.rows, m.cols) == (2, 2) and not m.mask[1, 0]
            return Matching(pairs=pairs, total_weight=0.0)

        task = ExpressionTask("s", "e", "t", self.TARGETS)
        with pytest.raises(ValueError, match=message):
            match_unit_all_alphas(
                task, self.PREDS, DEFAULT_ALPHA_GRID, [1], solver=bad, force_solver=True
            )


# a few overlapping boxes with non-integer corners, so ties and float sums
# both depend on the layout
RESTRICTION_BOXES = (
    box(0, 0, 4, 4),
    box(1, 0, 4, 4),
    box(0, 0.5, 3.5, 4),
    box(0.1, 0.2, 4, 4),
    box(5, 5, 2, 2),
)
STAT_FIELDS = ("alpha", "tp", "fn", "fp", "iou_sum", "ass_a_sum", "ass_re_sum", "ass_pr_sum")


@st.composite
def restricted_units(draw):
    """(task, predictions out of frame order, frames, restrictions)."""
    frames = draw(st.lists(st.integers(1, 6), unique=True, max_size=6))
    track = st.dictionaries(st.integers(1, 6), st.sampled_from(RESTRICTION_BOXES), max_size=6)
    targets = {}
    for gi, tr in enumerate(draw(st.lists(track, max_size=4))):
        for f, b in tr.items():
            targets.setdefault(f, {})[f"g{gi}"] = b
    pred_tracks = draw(st.lists(track, max_size=4))
    preds = draw(
        st.permutations(
            [det(f, b, f"p{pi}") for pi, tr in enumerate(pred_tracks) for f, b in tr.items()]
        )
    )
    subset = st.lists(st.sampled_from(frames), max_size=6) if frames else st.just([])
    restrictions = draw(st.dictionaries(st.sampled_from("abcdefgh"), subset, max_size=4))
    return ExpressionTask("s", "e", "t", targets), preds, frames, restrictions


def assert_restrictions_match_alone(task, preds, frames, restrictions, force_solver=False):
    whole, restricted = match_unit_all_alphas(
        task, preds, DEFAULT_ALPHA_GRID, frames,
        force_solver=force_solver, restrictions=restrictions,
    )
    assert whole == match_unit_all_alphas(
        task, preds, DEFAULT_ALPHA_GRID, frames, force_solver=force_solver
    )
    assert restricted.keys() == restrictions.keys()
    for name, sub in restrictions.items():
        alone = match_unit_all_alphas(
            *restrict_to_attribute(task, preds, sub), DEFAULT_ALPHA_GRID, sub,
            force_solver=force_solver,
        )
        assert len(restricted[name]) == len(alone)
        for got, want in zip(restricted[name], alone):
            assert got.pair_tpa is None
            # floats too: the restriction must reproduce every sum to the bit
            assert [getattr(got, f) for f in STAT_FIELDS] == [getattr(want, f) for f in STAT_FIELDS]


class TestRestrictions:
    """Each restriction scores exactly like the unit restricted to its frames
    (``restrict_to_attribute``) and matched on its own."""

    @settings(max_examples=300, deadline=None)
    @given(restricted_units(), st.booleans())
    def test_restriction_equals_restricted_unit(self, unit, force_solver):
        assert_restrictions_match_alone(*unit, force_solver=force_solver)

    def test_restriction_orders_tracks_over_its_frames(self):
        # On frame 2, ga and gb tie for p: equal IoU 0.6 and, over frames
        # 2-5, equal priors 1/2 (ga: 1 of 1 + 2 - 1, gb: 2 of 4 + 2 - 2).
        # Over 2-5 gb sorts first (both start at 2, gb's x is smaller) and
        # wins; in whole-unit order ga (first seen at 1) would.
        far = box(5, 5, 2, 2)
        task = ExpressionTask("s", "e", "t", {
            1: {"ga": box(2, 0, 4, 4)},
            2: {"ga": box(2, 0, 4, 4), "gb": box(0, 0, 4, 4)},
            3: {"gb": box(0, 0, 4, 4)},
            4: {"gb": far},
            5: {"gb": far},
        })
        preds = [det(3, box(0, 0, 4, 4), "p"), det(2, box(1, 0, 4, 4), "p")]
        assert_restrictions_match_alone(task, preds, range(1, 6), {"r": [2, 3, 4, 5]})

    def test_restriction_tiebreak_uses_its_own_frame_count(self):
        # On frame 1, g1 (prior 1/3, IoU 1) beats g2 (prior 1/2, IoU 6/26)
        # only while the IoU term is divided by 2 * 2 frames, not 2 * 6.
        task = ExpressionTask("s", "e", "t", {
            1: {"g1": box(0, 0, 4, 4), "g2": box(2.5, 0, 4, 4)},
            2: {"g1": box(5, 5, 2, 2)},
        })
        preds = [det(1, box(0, 0, 4, 4), "p"), det(2, box(0, 0, 4, 4), "p")]
        assert_restrictions_match_alone(task, preds, range(1, 7), {"r": [1, 2]})

    def test_restriction_without_gt_or_predictions(self):
        task = simple_task(2)
        preds = [det(3, box(0, 0, 10, 10), "p1"), det(4, box(0, 0, 10, 10), "p1")]
        restrictions = {"gt_only": [1, 2], "preds_only": [3, 4], "none": [], "both": [2, 3]}
        assert_restrictions_match_alone(task, preds, range(1, 5), restrictions)

    def test_empty_unit(self):
        task = ExpressionTask("s", "e", "t", {})
        for frames in ([], [1, 2, 3]):
            restrictions = {"a": frames[:1], "b": []}
            assert_restrictions_match_alone(task, [], frames, restrictions)
            assert_restrictions_match_alone(task, [], frames, restrictions, force_solver=True)

    @pytest.mark.parametrize("alphas", [(), (0.5,), DEFAULT_ALPHA_GRID])
    @pytest.mark.parametrize("restrictions", [None, {"all": [1, 2, 3], "late": [3], "none": []}])
    def test_units_without_a_candidate_pair(self, alphas, restrictions):
        # every box is a miss or a false positive at every alpha (or there
        # are no alphas); the sums are zero and the whole unit has no pairs
        near, far = box(0, 0, 10, 10), box(50, 50, 5, 5)
        gt = {1: {"g": near}, 2: {"g": near}}
        preds = [det(1, far, "p"), det(3, far, "p")]
        for targets, dets in ((gt, preds), ({}, preds), (gt, []), ({}, [])):
            task = ExpressionTask("s", "e", "t", targets)

            def expected(frames, pair_tpa):
                fn = sum(len(targets.get(f, {})) for f in frames)
                fp = sum(d.frame in frames for d in dets)
                return [AlphaStats(a, 0, fn, fp, pair_tpa=pair_tpa) for a in alphas]

            got = match_unit_all_alphas(task, dets, alphas, [1, 2, 3], restrictions=restrictions)
            want = expected([1, 2, 3], {})
            if restrictions is not None:
                want = want, {name: expected(sub, None) for name, sub in restrictions.items()}
            assert repr(got) == repr(want)

    def test_frame_outside_frames_rejected(self):
        task = simple_task(3)
        with pytest.raises(ValueError, match="restriction 'late': frame 4"):
            match_unit_all_alphas(
                task, [], DEFAULT_ALPHA_GRID, [1, 2, 3], restrictions={"ok": [1], "late": [2, 4]}
            )


class TestLevels:
    """The candidates' forced thresholds against brute-force row and column
    degrees, on random dense level tensors."""

    def test_levels_and_forced_threshold(self):
        rng = np.random.default_rng(7)
        for trial in range(300):
            # a sorted grid, repeats allowed
            alphas = np.sort(rng.choice(DEFAULT_ALPHA_GRID, size=int(rng.integers(1, 8))))
            nf, g, p = (int(x) for x in rng.integers(0, 5, size=3))
            # IoUs equal to grid values (exact ties), 0, 1 and values between
            values = np.concatenate([alphas, [0.0, 1.0], rng.random(3)])
            iou3 = rng.choice(values, size=(nf, g, p))
            # duplicate boxes: the last gt row and pred column repeat the first
            if g > 1:
                iou3[:, -1] = iou3[:, 0]
            if p > 1:
                iou3[:, :, -1] = iou3[:, :, 0]
            # absent slots, whatever IoU they carry
            gt_present = rng.random((nf, g)) < 0.8
            present = gt_present[:, :, None] & (rng.random((nf, p)) < 0.8)[:, None, :]
            # the level tensor; its nonzeros in C order are the candidates
            k = np.searchsorted(alphas, iou3, side="right") * present
            f, gi, pi = np.nonzero(k)
            kc = k[f, gi, pi]
            lo = _forced_from(f, gi, pi, kc, (g, p))
            assert lo.shape == kc.shape
            for a, alpha in enumerate(alphas.tolist()):
                feas = (iou3 >= alpha) & present
                assert np.array_equal(a < k, feas)
                forced = (lo <= a) & (a < kc)
                rows = [[sum(feas[fr, r]) for r in range(g)] for fr in range(nf)]
                cols = [[sum(feas[fr, :, c]) for c in range(p)] for fr in range(nf)]
                # a candidate is forced where it is feasible and alone in its
                # row and its column
                alone = [
                    bool(feas[fr, r, c]) and rows[fr][r] == 1 and cols[fr][c] == 1
                    for fr, r, c in zip(f.tolist(), gi.tolist(), pi.tolist())
                ]
                assert forced.tolist() == alone


def random_unit(rng):
    """(task, predictions, frames, restrictions): up to five GT tracks
    drifting over frames 1-12 with gaps, predictions that follow them with
    jitter and id switches plus stray boxes, and four random frame subsets."""
    frames = list(range(1, 13))
    targets = {}
    starts = rng.uniform(0, 40, (int(rng.integers(1, 6)), 2))
    for g, (x, y) in enumerate(starts):
        for f in frames:
            if rng.random() < 0.8:
                targets.setdefault(f, {})[f"g{g}"] = box(x + f, y, 10, 10)
    preds = [
        det(f, box(b.x + rng.normal(0, 2), b.y + rng.normal(0, 2), 10, 10), f"p{g}-{f // 5}")
        for f, by_gt in targets.items()
        for g, b in by_gt.items()
        if rng.random() < 0.85
    ]
    preds += [
        det(int(f), box(*rng.uniform(0, 50, 2), 10, 10), f"fp{i}")
        for i, f in enumerate(rng.choice(frames, size=int(rng.integers(0, 6)), replace=False))
    ]
    restrictions = {
        f"r{i}": sorted(rng.choice(frames, size=int(rng.integers(0, 13)), replace=False).tolist())
        for i in range(4)
    }
    return ExpressionTask("s", "e", "t", targets), preds, frames, restrictions


class TestCellBudget:
    """The float sums do not depend on how ``_blocks`` cuts the rows: a
    budget that puts each row, or a few cells, in a block of its own gives
    the default budget's stats for the whole unit and every restriction."""

    @pytest.mark.parametrize("budget", [1, 7, 64])
    def test_small_budget_equals_default(self, budget, monkeypatch):
        rng = np.random.default_rng(budget)
        units = [random_unit(rng) for _ in range(30)]

        def run(task, preds, frames, restrictions):
            return match_unit_all_alphas(
                task, preds, DEFAULT_ALPHA_GRID, frames, restrictions=restrictions
            )

        want = [run(*unit) for unit in units]
        monkeypatch.setattr(hota, "_CELL_BUDGET", budget)
        assert [run(*unit) for unit in units] == want


class TestAlphaOrder:
    """Stats come back in the order of the alphas given, each as a call with
    that alpha alone gives it, though the layouts are scored at the sorted
    alphas."""

    @settings(max_examples=150, deadline=None)
    @given(
        restricted_units(),
        st.lists(st.sampled_from(DEFAULT_ALPHA_GRID[::3] + (0.33,)), min_size=1, max_size=8),
        st.booleans(),
    )
    def test_unsorted_and_repeated_alphas(self, unit, alphas, force_solver):
        task, preds, frames, restrictions = unit
        whole, restricted = match_unit_all_alphas(
            task, preds, alphas, frames, force_solver=force_solver, restrictions=restrictions
        )
        assert len(whole) == len(alphas)
        for i, alpha in enumerate(alphas):
            alone = match_unit_all_alphas(task, preds, [alpha], frames)[0]
            assert [getattr(whole[i], f) for f in STAT_FIELDS] == [
                getattr(alone, f) for f in STAT_FIELDS
            ]
            assert whole[i].pair_tpa == alone.pair_tpa
            for name, sub in restrictions.items():
                alone = match_unit_all_alphas(
                    *restrict_to_attribute(task, preds, sub), [alpha], sub
                )[0]
                assert [getattr(restricted[name][i], f) for f in STAT_FIELDS] == [
                    getattr(alone, f) for f in STAT_FIELDS
                ]


class TestUnitStats:
    """``match_unit_all_alphas`` returns each layout's stats as a read-only
    ``Sequence[AlphaStats]`` over the scorer's arrays, which builds an
    ``AlphaStats`` only when one is read."""

    ALPHAS = (0.5, 0.05, 0.95)

    def unit(self):
        """(whole-unit view, {"late": restriction view}) of a unit whose
        content order (g2, g1; pz, pa, pm) is neither its id order nor its
        predictions' file order."""
        g2 = track("g2", [1, 2], box(0, 0, 10, 10))
        g1 = track("g1", [2, 3], box(30, 0, 10, 10))
        task = task_from_tracks("s", "e", "t", [(g2, [1, 2]), (g1, [2, 3])])
        preds = [
            det(2, box(30, 0, 10, 10), "pm"),
            det(3, box(31, 0, 10, 10), "pm"),  # iou 9/11
            det(2, box(0, 0, 10, 10), "pa"),
            det(1, box(0, 0, 10, 10), "pz"),
        ]
        return match_unit_all_alphas(
            task, preds, self.ALPHAS, [1, 2, 3], restrictions={"late": [2, 3]}
        )

    def test_sequence_protocol(self):
        whole, restricted = self.unit()
        stats = list(whole)
        assert isinstance(whole, UnitStats) and isinstance(whole, Sequence)
        assert len(whole) == 3 and [s.alpha for s in whole] == list(self.ALPHAS)
        assert whole[-1] == stats[2] and whole[-3] == stats[0]
        assert whole[1:] == stats[1:] and whole[::-1] == stats[::-1]
        for i in (3, -4):
            with pytest.raises(IndexError):
                whole[i]
        assert [s.pair_tpa for s in restricted["late"]] == [None] * 3

    def test_equality(self):
        whole, restricted = self.unit()
        stats = list(whole)
        assert whole == stats and stats == whole and whole == tuple(stats)
        assert not (whole != stats or stats != whole)
        assert whole == self.unit()[0] and not whole != self.unit()[0]
        changed = [*stats[:2], dataclasses.replace(stats[2], fp=stats[2].fp + 1)]
        for other in (changed, stats[:2], [*stats, stats[0]], restricted["late"]):
            assert whole != other and other != whole and not whole == other
        assert (whole == 3) is False

    def test_repr_is_the_lists(self):
        whole, restricted = self.unit()
        assert repr(whole) == repr(list(whole))
        assert repr(restricted) == repr({"late": list(restricted["late"])})

    def test_pickle_round_trip(self):
        whole, restricted = self.unit()
        for view in (whole, restricted["late"]):
            back = pickle.loads(pickle.dumps(view))
            assert type(back) is UnitStats and back == view and repr(back) == repr(view)

    def test_each_read_builds_fresh_stats(self):
        whole, _ = self.unit()
        want = [dataclasses.replace(s, pair_tpa=dict(s.pair_tpa)) for s in whole]
        first = whole[0]
        assert first is not whole[0]
        first.tp += 100
        first.pair_tpa.clear()
        for s in whole:
            s.iou_sum = -1.0
        assert list(whole) == want

    def test_pair_tpa_in_content_order(self):
        # each alpha's (gt, pred) cells in content order, as the eager
        # dicts were built: by gt, then pred, each in content order
        whole, _ = self.unit()
        both = [(("g2", "pz"), 1), (("g2", "pa"), 1), (("g1", "pm"), 2)]
        assert [list(s.pair_tpa.items()) for s in whole] == [
            both, both, [*both[:2], (("g1", "pm"), 1)]
        ]

    def test_from_stats(self):
        whole, _ = self.unit()
        assert UnitStats.from_stats(whole) is whole
        columns = UnitStats.from_stats(list(whole))
        assert columns == [dataclasses.replace(s, pair_tpa=None) for s in whole]
        assert UnitStats.from_stats([]) == [] and UnitStats.from_stats([]).ints.shape == (0, 3)

    def test_unit_path_builds_no_alpha_stats(self, monkeypatch):
        # on the crowded golden bundle, pipeline._eval_unit constructs no
        # AlphaStats; pooling the units still does
        root = Path(__file__).resolve().parent / "data" / "golden" / "crowded"
        bundle = load_bundle(root / "bundle")
        preds = {
            (t.sequence_id, t.expression_id): parse_predictions(
                root / "predictions" / unit_filename(t.sequence_id, t.expression_id),
                bundle.sequences[t.sequence_id].length,
            )
            for t in bundle.tasks
        }
        made, units, in_unit = [], [], [False]
        init, eval_unit = AlphaStats.__init__, pipeline._eval_unit

        def counted_init(self, *args, **kwargs):
            made.append(in_unit[0])
            init(self, *args, **kwargs)

        def traced_eval_unit(run, index):
            units.append(index)
            in_unit[0] = True
            try:
                return eval_unit(run, index)
            finally:
                in_unit[0] = False

        monkeypatch.setattr(AlphaStats, "__init__", counted_init)
        monkeypatch.setattr(pipeline, "_eval_unit", traced_eval_unit)
        pipeline.evaluate(bundle, preds, EvalConfig(), workers=1)
        assert units == list(range(len(bundle.tasks))) and units
        assert made and not any(made)


# One match_unit_all_alphas call on a dense unit: 74 GT tracks over the
# given number of frames whose prediction ids change every 7 frames (592 ids
# at 50 frames), with the given number of restrictions, in a process of its
# own; prints its peak RSS in MB and the call's time in seconds. Restriction i
# is every (i + 2)-th frame plus the first n_frames * i / 8 frames.
DENSE_UNIT_RUN = """
import json, resource, sys, time
from rmot_eval.hota import match_unit_all_alphas
from rmot_eval.model import DEFAULT_ALPHA_GRID, BoundingBox, Detection, ExpressionTask

n_frames, n_restrictions, n_gt = int(sys.argv[1]), int(sys.argv[2]), 74
targets = {
    f: {f"g{g}": BoundingBox(60.0 * (g % 10) + f, 60.0 * (g // 10), 40.0, 40.0) for g in range(n_gt)}
    for f in range(1, n_frames + 1)
}
preds = [
    Detection(f, BoundingBox(b.x + 1.0, b.y, 40.0, 40.0), 1.0, 1.0, f"p{g}-{(f + g) // 7}")
    for f in range(1, n_frames + 1)
    for g, b in enumerate(targets[f].values())
]
task = ExpressionTask("s", "e", "t", targets)
restrictions = {
    f"r{i}": sorted(set(range(1, n_frames + 1, i + 2)) | set(range(1, n_frames * i // 8 + 1)))
    for i in range(n_restrictions)
}
start = time.perf_counter()
stats, restricted = match_unit_all_alphas(
    task, preds, DEFAULT_ALPHA_GRID, range(1, n_frames + 1), restrictions=restrictions
)
seconds = time.perf_counter() - start
print(json.dumps({
    "pred_ids": len({d.track_id for d in preds}),
    "tp": [s.tp for s in stats],
    "restricted_tp": {name: [s.tp for s in sub] for name, sub in restricted.items()},
    "restriction_frames": {name: len(frames) for name, frames in restrictions.items()},
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "seconds": seconds,
}))
"""


def run_dense_unit(n_frames: int, n_restrictions: int) -> dict:
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run(
        [sys.executable, "-c", DENSE_UNIT_RUN, str(n_frames), str(n_restrictions)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


class TestDenseUnit:
    def test_memory_and_time_stay_bounded(self):
        run = run_dense_unit(50, 0)
        assert run["pred_ids"] == 592
        # every GT box is matched to its prediction at every alpha (IoU 39/41)
        assert run["tp"] == [50 * 74] * len(DEFAULT_ALPHA_GRID)
        # a dense (alpha, frame, gt, pred) core peaks at about 500 MB here
        assert run["peak_rss_mb"] < 250
        assert run["seconds"] < 10

    def test_restrictions_stay_bounded(self):
        # the whole unit and eight restrictions scored together; a float-sum
        # buffer holding every layout's rows at once peaks at about 165 MB
        run = run_dense_unit(50, 8)
        assert run["pred_ids"] == 592
        assert run["tp"] == [50 * 74] * len(DEFAULT_ALPHA_GRID)
        frames = run["restriction_frames"]
        assert run["restricted_tp"] == {
            name: [n * 74] * len(DEFAULT_ALPHA_GRID) for name, n in frames.items()
        }
        assert run["peak_rss_mb"] < 125
        assert run["seconds"] < 10

    def test_hundred_frames_stay_bounded(self):
        # a dense (frame, gt, pred) IoU and level build peaks at about 193 MB
        # here and takes about 0.9 s; the candidate pairs are the 74 x 74
        # same-frame pairs of each frame
        run = run_dense_unit(100, 8)
        assert run["pred_ids"] == 1120
        assert run["tp"] == [100 * 74] * len(DEFAULT_ALPHA_GRID)
        frames = run["restriction_frames"]
        assert run["restricted_tp"] == {
            name: [n * 74] * len(DEFAULT_ALPHA_GRID) for name, n in frames.items()
        }
        assert run["peak_rss_mb"] < 150
        assert run["seconds"] < 3


class TestAccumulate:
    def test_single_unit_identity(self):
        task = simple_task(3)
        preds = [det(f, box(0, 0, 10, 10), "p1") for f in (1, 2, 3)]
        unit = match_unit_all_alphas(task, preds, (0.5,), range(1, 4))
        pooled = accumulate([unit])
        assert (pooled[0].tp, pooled[0].fn, pooled[0].fp) == (3, 0, 0)
        assert pooled[0].iou_sum == unit[0].iou_sum

    def test_two_disjoint_perfect_units(self):
        units = []
        for n in (2, 3):
            task = simple_task(n)
            preds = [det(f, box(0, 0, 10, 10), "p1") for f in range(1, n + 1)]
            units.append(match_unit_all_alphas(task, preds, (0.5,), range(1, n + 1)))
        pooled = accumulate(units)
        assert (pooled[0].tp, pooled[0].fn, pooled[0].fp) == (5, 0, 0)

    def test_perfect_plus_all_fp_unit_lowers_det_a(self):
        task = simple_task(2)
        preds = [det(1, box(0, 0, 10, 10), "p1"), det(2, box(0, 0, 10, 10), "p1")]
        perfect = match_unit_all_alphas(task, preds, (0.5,), range(1, 3))
        empty_task = ExpressionTask("s", "e2", "t", {})
        fps = [det(f, box(0, 0, 4, 4), "q") for f in (1, 2, 3)]
        fp_unit = match_unit_all_alphas(empty_task, fps, (0.5,), range(1, 4))
        report = finalize(accumulate([perfect, fp_unit]))
        # tp=2, fn=0, fp=3 -> DetA = 2/5
        assert report.det_a == pytest.approx(40.0)
        assert report.det_a < 100.0

    def test_mismatched_grids_rejected(self):
        with pytest.raises(ValueError):
            accumulate([[AlphaStats(alpha=0.5)], [AlphaStats(alpha=0.6)]])

    def test_permutation_invariant_bitwise(self):
        rng = np.random.default_rng(9)
        units = []
        for _ in range(12):
            n = int(rng.integers(1, 4))
            task = simple_task(n, b=box(0, 0, float(rng.integers(5, 12)), 10))
            preds = [
                det(f, box(float(rng.integers(0, 3)), 0, 10, 10), "p1")
                for f in range(1, n + 1)
            ]
            units.append(match_unit_all_alphas(task, preds, DEFAULT_ALPHA_GRID, range(1, n + 1)))
        fwd = accumulate(units)
        rev = accumulate(list(reversed(units)))
        for a, b in zip(fwd, rev):
            assert a.iou_sum == b.iou_sum
            assert a.ass_a_sum == b.ass_a_sum
            assert a.ass_re_sum == b.ass_re_sum
            assert a.ass_pr_sum == b.ass_pr_sum


class TestPoolTallies:
    ALPHAS = (0.25, 0.5, 0.75)

    def units(self, n, seed):
        """``n`` units of stats with random tallies; unit u's iou_sum at the
        first alpha is [1e16, 1.0, -1e16, 1.0][u % 4], a column on which a
        float64 ``np.sum`` and ``math.fsum`` differ."""
        rng = np.random.default_rng(seed)
        cancel = [1e16, 1.0, -1e16, 1.0]
        out = []
        for u in range(n):
            stats = []
            for i, a in enumerate(self.ALPHAS):
                tp, fn, fp = (int(v) for v in rng.integers(0, 1000, 3))
                sums = rng.standard_normal(4) * 10.0 ** rng.integers(-8, 17, 4)
                stats.append(AlphaStats(a, tp, fn, fp, *sums.tolist()))
            stats[0].iou_sum = cancel[u % 4]
            out.append(stats)
        return out

    @staticmethod
    def arrays(units):
        """The units' (unit, alpha, 3) int and (unit, alpha, 4) float tallies."""
        views = [UnitStats.from_stats(u) for u in units]
        return np.stack([v.ints for v in views]), np.stack([v.floats for v in views])

    @staticmethod
    def bits(stats):
        return [
            (s.alpha, s.tp, s.fn, s.fp)
            + tuple(float(v).hex() for v in (s.iou_sum, s.ass_a_sum, s.ass_re_sum, s.ass_pr_sum))
            for s in stats
        ]

    def test_cancelling_column_is_exactly_rounded(self):
        column = np.array([1e16, 1.0, -1e16, 1.0])
        assert math.fsum(column) == 2.0 and float(np.sum(column)) != 2.0
        pooled = pool_tallies(self.ALPHAS, *self.arrays(self.units(4, seed=1)))
        assert pooled[0].iou_sum == 2.0

    @pytest.mark.parametrize("n_units", [1, 2, 4, 9])
    def test_equals_accumulate_and_exact_sums_bitwise(self, n_units):
        units = self.units(n_units, seed=n_units)
        ints, floats = self.arrays(units)
        assert ints.shape == (n_units, len(self.ALPHAS), 3) and ints.dtype == np.int64
        assert floats.shape == (n_units, len(self.ALPHAS), 4) and floats.dtype == np.float64
        pooled = pool_tallies(self.ALPHAS, ints, floats)
        exact = [
            AlphaStats(
                a,
                sum(u[i].tp for u in units),
                sum(u[i].fn for u in units),
                sum(u[i].fp for u in units),
                math.fsum(u[i].iou_sum for u in units),
                math.fsum(u[i].ass_a_sum for u in units),
                math.fsum(u[i].ass_re_sum for u in units),
                math.fsum(u[i].ass_pr_sum for u in units),
            )
            for i, a in enumerate(self.ALPHAS)
        ]
        assert self.bits(pooled) == self.bits(exact) == self.bits(accumulate(units))
        # per-unit arrays in any order pool to the same bits
        order = list(reversed(range(n_units)))
        assert self.bits(
            pool_tallies(self.ALPHAS, [ints[u] for u in order], [floats[u] for u in order])
        ) == self.bits(pooled)
        assert all(type(v) is int for s in pooled for v in (s.tp, s.fn, s.fp))

    def test_no_units_pool_to_zero(self):
        pooled = pool_tallies(self.ALPHAS, [], [])
        assert pooled == [AlphaStats(alpha=a) for a in self.ALPHAS]


class TestFinalize:
    def test_empty_evaluation_convention(self):
        report = finalize([AlphaStats(alpha=a) for a in DEFAULT_ALPHA_GRID])
        assert report.flags == ("EMPTY_EVAL",)
        assert report.hota == 100.0
        assert all(r.empty for r in report.per_alpha)

    def test_tp_zero_with_errors(self):
        report = finalize([AlphaStats(alpha=0.5, tp=0, fn=3, fp=2)])
        row = report.per_alpha[0]
        assert row.hota == 0.0 and row.ass_a == 0.0 and row.loc_a == 0.0
        assert row.det_re == 0.0 and row.det_pr == 0.0
        assert not row.empty and report.flags == ()

    def test_alpha_average(self):
        stats = [
            AlphaStats(alpha=0.3, tp=1, fn=0, fp=0, iou_sum=1.0,
                       ass_a_sum=1.0, ass_re_sum=1.0, ass_pr_sum=1.0),
            AlphaStats(alpha=0.7, tp=0, fn=1, fp=0),
        ]
        report = finalize(stats)
        assert report.det_a == pytest.approx(50.0)
        assert report.hota == pytest.approx(50.0)

    def test_requires_stats(self):
        with pytest.raises(ValueError):
            finalize([])

    def test_perfect_is_exactly_100(self):
        task = simple_task(4)
        preds = [det(f, box(0, 0, 10, 10), "p1") for f in range(1, 5)]
        report = finalize(
            [match_unit_all_alphas(task, preds, [a], range(1, 5))[0] for a in DEFAULT_ALPHA_GRID]
        )
        d = report.as_dict()
        for key in ("HOTA", "DetA", "AssA", "DetRe", "DetPr", "AssRe", "AssPr", "LocA"):
            assert d[key] == 100.0
