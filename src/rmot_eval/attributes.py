"""Attribute-conditioned HOTA and the geometric-mean composites.

There is one attribute path, driven by :func:`rmot_eval.pipeline.evaluate`.
It builds one table of the evaluated attribute frames: per sequence, each
attribute flagged on at least one of its frames and those frames. For every
unit, its sequence's entries are passed as ``restrictions`` to the unit's
one :func:`rmot_eval.hota.match_unit_all_alphas` call, which scores each
restriction as a layout of the unit's one candidate-pair build. Each
restriction scores exactly like the unit cut to those frames by
:func:`restrict_to_attribute` and matched as a self-contained HOTA problem;
that function stays as the definition the tests check against.
:func:`attribute_report` then pools each attribute's per-unit tally arrays
with :func:`rmot_eval.hota.pool_tallies`, counts each attribute's frames in
the same table, finalizes the per-attribute HOTA and composes HOTA_S /
HOTA_M as geometric means of the unrounded per-attribute scores; attributes
absent from the whole evaluation are excluded with the effective count
reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .hota import finalize, pool_tallies
from .model import (
    MOTION_ATTRIBUTES,
    SCENE_ATTRIBUTES,
    Attribute,
    Detection,
    EvalConfig,
    ExpressionTask,
)


@dataclass(frozen=True)
class AttributeReport:
    """Per-attribute HOTA values plus the scene/motion composites.

    ``per_attribute`` holds None for attributes with no flagged frame anywhere
    in the evaluation; those are excluded from the composites and surfaced in
    ``warnings``.
    """

    per_attribute: Mapping[str, Optional[float]]
    frame_counts: Mapping[str, int]
    hota_s: Optional[float]
    hota_m: Optional[float]
    n_s_effective: int
    n_m_effective: int
    warnings: Tuple[str, ...] = ()

    def as_dict(self) -> Dict[str, object]:
        return {
            "per_attribute": dict(self.per_attribute),
            "frame_counts": dict(self.frame_counts),
            "HOTA_S": self.hota_s,
            "HOTA_M": self.hota_m,
            "n_s_effective": self.n_s_effective,
            "n_m_effective": self.n_m_effective,
            "warnings": list(self.warnings),
        }


def restrict_to_attribute(
    task: ExpressionTask,
    preds: Sequence[Detection],
    frames: Sequence[int],
) -> Tuple[ExpressionTask, List[Detection]]:
    """Keep only the given frames (those flagging one attribute); frame
    indices are preserved."""
    keep = set(frames)
    sub_task = ExpressionTask(
        sequence_id=task.sequence_id,
        expression_id=task.expression_id,
        text=task.text,
        targets={f: t for f, t in task.targets.items() if f in keep},
    )
    sub_preds = [d for d in preds if d.frame in keep]
    return sub_task, sub_preds


def compose_geometric(values: Sequence[float]) -> float:
    """N-th root of the product of N percentage scores.

    Permutation-invariant, lies in [min, max] of its inputs, and any zero
    input collapses the composite to zero.
    """
    if not values:
        raise ValueError("cannot compose an empty list of scores")
    for v in values:
        if not 0.0 <= v <= 100.0:
            raise ValueError(f"scores must lie in [0, 100], got {v}")
    if any(v == 0.0 for v in values):
        return 0.0
    if all(v == values[0] for v in values):
        return values[0]
    result = math.exp(math.fsum(math.log(v) for v in values) / len(values))
    # guard against float drift outside the input hull
    return min(max(result, min(values)), max(values))


def attribute_report(
    tallies: Mapping[str, Tuple[Sequence[np.ndarray], Sequence[np.ndarray]]],
    frames: Mapping[str, Mapping[str, Sequence[int]]],
    cfg: EvalConfig,
) -> AttributeReport:
    """Pool the attribute-restricted unit stats and compose HOTA_S / HOTA_M.

    ``tallies`` maps an attribute name to the (alpha, 3) int and (alpha, 4)
    float tally arrays (``hota.pool_tallies``'s inputs) of each unit on that
    attribute's frames; an attribute flagged on no frame of any unit's
    sequence has no entry. ``frames`` maps each evaluated sequence to its
    attribute names and the frames each flags, the table the units were
    restricted by; it gives the per-attribute frame counts.
    """
    per_attr: Dict[str, Optional[float]] = {}
    frame_counts: Dict[str, int] = {}
    for attr in Attribute:
        frame_counts[attr.value] = sum(len(seq.get(attr.value, ())) for seq in frames.values())
        if attr.value in tallies:
            per_attr[attr.value] = finalize(pool_tallies(cfg.alpha_grid, *tallies[attr.value])).hota
        else:
            per_attr[attr.value] = None

    warnings: List[str] = [
        f"attribute {name} absent from evaluation"
        for name, value in per_attr.items()
        if value is None
    ]

    def compose(members: Sequence[Attribute]) -> Tuple[Optional[float], int]:
        present = [per_attr[a.value] for a in members if per_attr[a.value] is not None]
        if not present:
            return None, 0
        return compose_geometric(present), len(present)

    hota_s, n_s = compose(SCENE_ATTRIBUTES)
    hota_m, n_m = compose(MOTION_ATTRIBUTES)
    if n_s != len(SCENE_ATTRIBUTES) and n_s > 0:
        warnings.append(f"HOTA_S composed from {n_s} of {len(SCENE_ATTRIBUTES)} attributes")
    if n_m != len(MOTION_ATTRIBUTES) and n_m > 0:
        warnings.append(f"HOTA_M composed from {n_m} of {len(MOTION_ATTRIBUTES)} attributes")
    return AttributeReport(
        per_attribute=per_attr,
        frame_counts=frame_counts,
        hota_s=hota_s,
        hota_m=hota_m,
        n_s_effective=n_s,
        n_m_effective=n_m,
        warnings=tuple(warnings),
    )
