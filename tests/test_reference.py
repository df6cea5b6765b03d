"""``pipeline.evaluate`` against the plain-loop reference in ``reference_hota``.

Tiny bundles (at most 5 frames, 3 GT and 3 predicted tracks per unit,
integer boxes drawn from a pool of at most 4, so duplicate boxes force exact
weight ties) with 0-8 attributes flagged per frame. Every count and float
must match exactly, per alpha, in the headline and per attribute; HOTA_S and
HOTA_M within 1e-12 relative, since ``compose_geometric`` returns equal
inputs unchanged and clamps to the inputs' range, and the reference does
neither.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rmot_eval.hota import match_unit_all_alphas
from rmot_eval.io_formats import DatasetBundle
from rmot_eval.model import (
    Attribute,
    AttributeFrameLabels,
    BoundingBox,
    Detection,
    EvalConfig,
    ExpressionTask,
    SequenceData,
)
from rmot_eval.pipeline import evaluate

from .reference_hota import HEADLINE, reference_evaluate, unit_tallies

BOX = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(1, 4), st.integers(1, 4))


@st.composite
def specs(draw):
    """(box pool, [(length, per-frame attribute bitmasks or None, units)]);
    a unit is (gt tracks as {frame: box}, detections as
    (frame, track, box, passes the filter) in file order)."""
    pool = draw(st.lists(BOX, min_size=1, max_size=4))
    box_i = st.integers(0, len(pool) - 1)
    seqs = []
    for _ in range(draw(st.integers(1, 2))):
        length = draw(st.integers(1, 5))
        track = st.dictionaries(st.integers(1, length), box_i, max_size=length)
        flags = draw(st.none() | st.lists(st.integers(0, 255), min_size=length, max_size=length))
        units = []
        for _ in range(draw(st.integers(1, 2))):
            gt = draw(st.lists(track, max_size=3))
            pred = draw(st.lists(track, max_size=3))
            dets = draw(st.permutations([(f, j, b) for j, tr in enumerate(pred) for f, b in tr.items()]))
            passes = draw(st.lists(st.booleans(), min_size=len(dets), max_size=len(dets)))
            units.append((gt, [(f, j, b, not skip) for (f, j, b), skip in zip(dets, passes)]))
        seqs.append((length, flags, units))
    return pool, seqs


def build(spec):
    pool, seqs = spec
    sequences, tasks, attributes, preds = {}, [], {}, {}
    for si, (length, flags, units) in enumerate(seqs):
        sid = f"s{si}"
        sequences[sid] = SequenceData(sid, length, {})
        if flags is not None:
            attributes[sid] = AttributeFrameLabels(
                sid,
                {
                    f: frozenset(a for bit, a in enumerate(Attribute) if mask >> bit & 1)
                    for f, mask in enumerate(flags, start=1)
                },
            )
        for ui, (gt, dets) in enumerate(units):
            targets = {}
            for ti, tr in enumerate(gt):
                for f, b in tr.items():
                    targets.setdefault(f, {})[f"g{ti}"] = BoundingBox(*map(float, pool[b]))
            tasks.append(ExpressionTask(sid, f"e{ui}", "t", targets))
            preds[sid, f"e{ui}"] = [
                Detection(f, BoundingBox(*map(float, pool[b])), 1.0, 1.0 if ok else 0.1, f"p{j}")
                for f, j, b, ok in dets
            ]
    return DatasetBundle(sequences=sequences, tasks=tuple(tasks), attributes=attributes), preds


def close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return a == b or abs(a - b) <= 1e-12 * max(abs(a), abs(b))


def assert_report_matches(got, want):
    d = got.as_dict()
    for k in HEADLINE:
        assert d[k] == want[k], (k, d[k], want[k])
    for row, ref in zip(d["per_alpha"], want["per_alpha"], strict=True):
        assert (row["alpha"], row["tp"], row["fn"], row["fp"]) == tuple(
            ref[k] for k in ("alpha", "tp", "fn", "fp")
        )
        for k in HEADLINE:
            assert row[k] == ref[k], (row["alpha"], k, row[k], ref[k])


# g0 and g1 tie for p0 on frame 1: equal boxes and both priors 1/2 (g0: 1
# feasible frame of 1 + 2 - 1, g1: 2 of 4 + 2 - 2). The content order puts g0
# (fewer boxes) first, so g0 wins; g1 winning would change AssA.
TIE = (
    [(0, 0, 2, 2), (3, 3, 2, 2)],
    [(5, None, [([{1: 0}, {1: 0, 2: 0, 3: 1, 4: 1}], [(1, 0, 0, True), (2, 0, 0, True)])])],
)
# DAY (bit 0) flags frames 2 and 3. There g1's prior for p0 is 1 and g0's
# 1/2, so g1 takes frame 2; over the whole sequence both priors are 2/3, a
# tie the content order would give to g0.
ATTR_TIE = (
    [(0, 0, 2, 2), (3, 3, 2, 2)],
    [
        (
            4,
            [0, 1, 1, 0],
            [([{1: 0, 2: 0}, {2: 0, 3: 0}], [(1, 0, 0, True), (2, 0, 0, True), (3, 0, 0, True)])],
        )
    ],
)

# Matched IoUs of 1 and 1/3 on two frames of three GT and three predicted
# tracks: their float sum depends on the order of the (gt, pred) cells within
# a frame, so summing a frame's cells in (pred, gt) order changes LocA.
CELL_ORDER = (
    [(2, 4, 4, 1), (0, 2, 3, 2), (0, 2, 2, 1), (2, 0, 1, 1)],
    [
        (
            2,
            None,
            [
                (
                    [{1: 2, 2: 2}, {1: 1}, {1: 1, 2: 2}],
                    [
                        (1, 0, 2, True),
                        (1, 1, 1, True),
                        (2, 1, 2, True),
                        (1, 2, 3, True),
                        (2, 2, 3, True),
                    ],
                )
            ],
        )
    ],
)


@settings(max_examples=150, deadline=None)
@given(specs(), st.booleans())
@example(TIE, False)
@example(ATTR_TIE, False)
@example(CELL_ORDER, False)
def test_evaluate_matches_reference(spec, macro):
    bundle, preds = build(spec)
    cfg = EvalConfig()
    report, attrs = evaluate(bundle, preds, cfg, workers=1, macro=macro)
    want, want_attrs = reference_evaluate(bundle, preds, cfg, macro=macro)
    assert_report_matches(report, want)
    if want_attrs is None:
        assert attrs is None
        return
    assert attrs.frame_counts == want_attrs["frame_counts"]
    assert (attrs.n_s_effective, attrs.n_m_effective) == (
        want_attrs["n_s_effective"],
        want_attrs["n_m_effective"],
    )
    assert attrs.per_attribute == want_attrs["per_attribute"]
    assert close(attrs.hota_s, want_attrs["HOTA_S"])
    assert close(attrs.hota_m, want_attrs["HOTA_M"])


@settings(max_examples=150, deadline=None)
@given(specs())
@example(TIE)
@example(CELL_ORDER)
def test_pair_tpa_matches_reference(spec):
    # each unit's pair_tpa at every alpha: the matched frames of each (gt,
    # pred) pair with at least one, as the reference counts them
    bundle, preds = build(spec)
    cfg = EvalConfig()
    for task in bundle.tasks:
        frames = range(1, bundle.sequences[task.sequence_id].length + 1)
        dets = [
            d
            for d in preds[task.sequence_id, task.expression_id]
            if d.confidence >= cfg.score_threshold and d.referring_score >= cfg.beta_ref
        ]
        stats = match_unit_all_alphas(task, dets, cfg.alpha_grid, frames)
        _, tpas = unit_tallies(task.targets, dets, frames, cfg.alpha_grid)
        assert [s.pair_tpa for s in stats] == [dict(tpa) for tpa in tpas]
