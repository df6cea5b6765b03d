"""Track order: ``_Tracks.order`` puts every layout's tracks in content order
in one pass, and each layout's order equals the per-layout order of earlier
versions (``reference_order``, kept as it was: dense presence and boxes per
frame, and each track's x and y summed by ``cumsum`` over its boxes in
insertion order)."""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rmot_eval.hota import _Tracks


def reference_order(
    tracks: _Tracks, n_frames: int, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Indices of the tracks with a box on frame indices ``rows`` (sorted
    ascending), in content order over those frames, and their box counts
    there."""
    fi, ti, xywh = tracks.frame, tracks.track, tracks.xywh
    n = len(tracks.ids)
    counts = np.bincount(ti, minlength=n)
    # each box's position within its track, in insertion order
    by_track = np.argsort(ti, kind="stable")
    pos = np.empty_like(ti)
    pos[by_track] = np.arange(ti.size) - (np.cumsum(counts) - counts)[ti[by_track]]
    present = np.zeros((n_frames, n), dtype=bool)
    present[fi, ti] = True
    boxes = np.zeros((n_frames, n, 4), dtype=np.float64)
    boxes[fi, ti] = xywh
    ins_frame = np.full((n, int(counts.max(initial=0))), n_frames, dtype=np.intp)
    ins_frame[ti, pos] = fi
    ins_xy = np.zeros(ins_frame.shape + (2,), dtype=np.float64)
    ins_xy[ti, pos] = xywh[:, :2]
    rank = np.empty(n, dtype=np.intp)
    rank[sorted(range(n), key=tracks.ids.__getitem__)] = np.arange(n)

    pres = present[rows]
    count = pres.sum(0)
    if not count.any():
        return np.flatnonzero(count), count[:0]
    first = rows[pres.argmax(0)]
    fx, fy, fw, fh = boxes[first, np.arange(n)].T
    keep = np.zeros(n_frames + 1, dtype=bool)
    keep[rows] = True
    with np.errstate(over="ignore"):
        xy = np.where(keep[ins_frame][..., None], ins_xy, 0.0).cumsum(1)
    sx, sy = xy[:, -1].T
    perm = np.lexsort((rank, sy, sx, count, fh, fw, fy, fx, first))
    perm = perm[count[perm] > 0]
    return perm, count[perm]


def assert_order_matches_reference(
    fi: Sequence[int],
    ti: Sequence[int],
    ids: Sequence[str],
    xywh: Sequence[Sequence[float]],
    n_frames: int,
    layouts: Sequence[Set[int]],
) -> None:
    frames = np.arange(1, n_frames + 1, dtype=np.int64)
    tracks = _Tracks(
        np.array(fi, dtype=np.intp),
        np.array(ti, dtype=np.intp),
        list(ids),
        np.array(xywh, dtype=np.float64).reshape(-1, 4),
        frames,
    )
    member = np.zeros((len(layouts), n_frames), dtype=bool)
    for i, rows in enumerate(layouts):
        member[i, sorted(rows)] = True
    lay, track, count = tracks.order(member)
    assert np.all(np.diff(lay) >= 0)
    for i, rows in enumerate(layouts):
        rows = np.array(sorted(rows), dtype=np.intp)
        want_track, want_count = reference_order(tracks, n_frames, rows)
        assert track[lay == i].tolist() == want_track.tolist()
        assert count[lay == i].tolist() == want_count.tolist()


# coordinates whose sums round differently in another order, that overflow
# to inf, and signed zeros; few distinct values, so keys tie often
COORDS = (0.0, -0.0, 0.1, 0.2, 0.3, 1.0, -1.0, 1e16, -1e16, 1e308, -1e308)


@st.composite
def track_units(draw):
    """(fi, ti, ids, xywh, n_frames, layouts): up to 6 frames and 5 tracks,
    boxes on distinct (frame, track) cells in any insertion order, single-box
    tracks and tracks absent from a layout among them, ids whose
    sort order differs from first appearance (with one id that has no box),
    and the layouts: all frames, random frame sets, none."""
    n_frames = draw(st.integers(1, 6))
    n_tracks = draw(st.integers(1, 5))
    cells = draw(
        st.lists(
            st.tuples(st.integers(0, n_frames - 1), st.integers(0, n_tracks - 1)),
            unique=True,
            max_size=n_frames * n_tracks,
        )
    )
    # a box is its frame's shared box or one of its own, so that tracks on
    # the same frames often tie but for the order their sums run in
    coord, extent = st.sampled_from(COORDS), st.sampled_from((1.0, 2.0))
    boxes = st.tuples(coord, coord, extent, extent)
    shared = draw(st.lists(boxes, min_size=n_frames, max_size=n_frames))
    xywh = [shared[f] if draw(st.booleans()) else draw(boxes) for f, _ in cells]
    ids = [f"t{i}" for i in draw(st.permutations(range(n_tracks + 1)))]
    layouts: List[Set[int]] = [set(range(n_frames))]
    layouts += draw(st.lists(st.sets(st.integers(0, n_frames - 1)), max_size=4))
    layouts.append(set())
    return [f for f, _ in cells], [t for _, t in cells], ids, xywh, n_frames, layouts


class TestTrackOrder:
    @settings(max_examples=300, deadline=None)
    @given(track_units())
    # two tracks with the same boxes, inserted in and against frame order,
    # whose x sums are 0.6 and 0.6000000000000001
    @example(([2, 1, 0, 0, 1, 2], [0, 0, 0, 1, 1, 1], ["a", "b"],
              [(x, 0.0, 1.0, 1.0) for x in (0.1, 0.2, 0.3, 0.3, 0.2, 0.1)],
              3, [{0, 1, 2}, set()]))
    def test_one_pass_equals_per_layout_order(self, unit):
        assert_order_matches_reference(*unit)

    @pytest.mark.parametrize(
        "xs",
        [
            # a's x sum is 0.6000000000000001 in insertion order, 0.6 in
            # frame order
            (0.1, 0.2, 0.3),
            # a's x sum is inf in insertion order, 1e308 in frame order
            (1e308, 1e308, -1e308),
        ],
    )
    def test_sums_run_in_insertion_order(self, xs):
        # track a: x values xs on frames 3, 2, 1, in that insertion order;
        # track b: the same boxes inserted in frame order, so its sum is a's
        # frame-order sum. Summed in insertion order, a's sum is the larger
        # and b comes first; summed in frame order, the sums tie and the id
        # puts a first.
        fi = [2, 1, 0, 0, 1, 2]
        ti = [0, 0, 0, 1, 1, 1]
        xywh = [(x, 0.0, 1.0, 1.0) for x in xs + xs[::-1]]
        frames = np.arange(1, 4, dtype=np.int64)
        tracks = _Tracks(np.array(fi), np.array(ti), ["a", "b"], np.array(xywh), frames)
        lay, track, _ = tracks.order(np.ones((1, 3), dtype=bool))
        assert track.tolist() == [1, 0]
        assert_order_matches_reference(fi, ti, ["a", "b"], xywh, 3, [{0, 1, 2}, {0, 2}, set()])
