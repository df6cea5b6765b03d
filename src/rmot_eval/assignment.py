"""Exact maximum-weight bipartite matching with deterministic tie-breaking.

Both the production solver and the brute-force oracle optimize the same
strict total order: maximize total weight, and among weight-ties prefer the
matching that greedily includes the lexicographically earliest (row, col)
pairs. The order is made exact by lossless integer encoding:

* a finite float is ``num / den`` with ``den`` a power of two, so every
  feasible weight times the largest ``den`` is an integer (no rounding), and
* each cell (r, c) carries a tie-break bonus of 3 ** (rows*cols - (r*cols+c)).
  Bonus sums of distinct pair sets are distinct, and the whole bonus range is
  smaller than one unit of scaled weight, so the combined integer objective
  orders matchings exactly as (weight, greedy-lex) would.

Pairs with negative weight or a false feasibility mask are never matched.
Zero-weight feasible pairs are matched (the tie-break prefers inclusion).

A caller may split the feasibility graph (rows and columns are nodes,
feasible cells are edges) into connected components and solve each one on
its own sub-matrix, rows and columns kept in ascending order; the HOTA
matcher does, so :func:`solve_max_weight` is handed one component at a time
and solves the matrix it is given, whole. The answer is the same as
solving the whole matrix, because:

* the combined objective (scaled weight * base + bonus) is a sum over
  components, so a best matching is a best matching of every component;
* row-major cell order restricted to sorted sub-rows and sub-columns is the
  global cell order, so each component's greedy-lex winner is the global
  winner restricted to that component; and
* a per-component scale only multiplies that component's weights by
  another exact integer, which orders its matchings the same way: two
  matchings of different exact weight still differ by at least one scaled
  unit times the bonus base, more than the whole bonus range.

:func:`match_small` decides many small problems at once, on edge lists,
without the encoding, where the heaviest matching's float weight beats
every other's by more than a rounding margin (the argument stands beside
it). The HOTA matcher sends it every component, and each component it
leaves undecided (a tie, a near tie or a larger one) to the solver.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

ORACLE_LIMIT = 8


@dataclass(frozen=True)
class WeightMatrix:
    """Dense rectangular weight matrix with a feasibility mask."""

    weights: np.ndarray  # (rows, cols) float64
    mask: Optional[np.ndarray] = None  # (rows, cols) bool; None = all feasible

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "weights", w)
        if w.ndim != 2:
            raise ValueError("weights must be a 2-d matrix")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if self.mask is not None:
            m = np.asarray(self.mask, dtype=bool)
            if m.shape != w.shape:
                raise ValueError("mask and weights must have the same shape")
            object.__setattr__(self, "mask", m)

    @property
    def rows(self) -> int:
        return self.weights.shape[0]

    @property
    def cols(self) -> int:
        return self.weights.shape[1]

    def feasible(self) -> np.ndarray:
        """Pairs that may be matched: masked-in and non-negative weight."""
        feas = self.weights >= 0.0
        if self.mask is not None:
            feas &= self.mask
        return feas


@dataclass(frozen=True)
class Matching:
    """A set of disjoint (row, col) pairs and their total weight."""

    pairs: Tuple[Tuple[int, int], ...]
    total_weight: float


def _encode(weights: np.ndarray, feas: np.ndarray) -> List[List[int]]:
    """Losslessly encode weights into combined integer objectives, in one
    pass over the feasible cells: weight ``num / den`` scales to
    ``num * (scale // den)``, ``scale`` the largest ``den``.

    combined[r][c] is meaningful only where feasible; infeasible cells hold 0.
    """
    rows, cols = weights.shape
    k = rows * cols
    bonus_base = 3 ** (k + 1)
    at_r, at_c = np.nonzero(feas)
    ratios = [w.as_integer_ratio() for w in weights[at_r, at_c].tolist()]
    scale = max((den for _, den in ratios), default=1)
    combined = [[0] * cols for _ in range(rows)]
    for r, c, (num, den) in zip(at_r.tolist(), at_c.tolist(), ratios):
        combined[r][c] = num * (scale // den) * bonus_base + 3 ** (k - (r * cols + c))
    return combined


# the least real that rounds to inf: halfway from the largest float to 2**1024
_ROUNDS_TO_INF = 2**1024 - 2**970


def _finish(m: WeightMatrix, pairs: Sequence[Tuple[int, int]]) -> Matching:
    """The matching of ``pairs``, its total the correctly rounded sum of
    their weights (inf past the float range)."""
    ordered = tuple(sorted(pairs))
    weights = [float(m.weights[r, c]) for r, c in ordered]
    try:
        total = math.fsum(weights)
    except OverflowError:  # a partial sum left the float range; sum exactly
        from fractions import Fraction  # here, so that importing the package stays light

        exact = sum(map(Fraction, weights))
        total = math.inf if exact >= _ROUNDS_TO_INF else float(exact)
    return Matching(pairs=ordered, total_weight=total)


def _hungarian(weights: np.ndarray, feas: np.ndarray) -> List[Tuple[int, int]]:
    """Exact O(n^2 m) matching of one matrix with sides n <= m under the
    shared strict order.

    Shortest-augmenting-path Hungarian method on the integer objective with
    the shorter side as rows (a tall matrix is solved transposed), so
    results are bit-stable across runs and platforms. Every row is
    assigned; an infeasible cell has benefit 0, below every feasible one,
    and means "leave unmatched".
    """
    benefit = _encode(weights, feas)
    rows, cols = weights.shape
    flip = rows > cols
    if flip:
        benefit = [list(col) for col in zip(*benefit)]
        rows, cols = cols, rows

    # Hungarian on cost = -benefit via the classic potentials formulation
    # (1-based arrays internally).
    INF = None  # sentinel for "unreached"
    u = [0] * (rows + 1)
    v = [0] * (cols + 1)
    p = [0] * (cols + 1)  # p[c] = row matched to column c (0 = none)
    way = [0] * (cols + 1)
    for i in range(1, rows + 1):
        p[0] = i
        j0 = 0
        minv: List[Optional[int]] = [INF] * (cols + 1)
        used = [False] * (cols + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = None
            j1 = -1
            bi = benefit[i0 - 1]
            ui = u[i0]
            for j in range(1, cols + 1):
                if not used[j]:
                    cur = -bi[j - 1] - ui - v[j]
                    mj = minv[j]
                    if mj is None or cur < mj:
                        minv[j] = cur
                        way[j] = j0
                        mj = cur
                    if delta is None or mj < delta:
                        delta = mj
                        j1 = j
            for j in range(cols + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                elif minv[j] is not None:
                    minv[j] -= delta  # type: ignore[operator]
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1

    pairs = [(r - 1, c - 1) for c, r in enumerate(p) if c and r]
    if flip:
        pairs = [(r, c) for c, r in pairs]
    return [(r, c) for r, c in pairs if feas[r, c]]


# Why a decided problem gets the solver's matching. Let u = 2**-53. Absent
# cells are -inf, so only the problem's own matchings sum finite; the
# empty one sums to 0, and weights of at most 2**1021 cannot overflow, so
# the largest sum ``top`` and the largest other ``next`` obey 0 <= next <=
# top. A sum fl(x + y) of finite x, y >= 0 is (x + y)(1 + d), |d| <= u
# (d = 0 if it is subnormal), so a matching of exact weight S sums to s =
# fl(fl(a + b) + c) with S (1 - u)**2 <= s <= S (1 + u)**2 (a pad adds 0).
# The test fl(top - next) > fl(top * 2**-51) means top - next > 4u top:
# trivially if next < top / 2; otherwise the difference is exact
# (Sterbenz), and the product is exact or subnormal, within 2**-1075 of
# exact and so below the difference, a multiple of 2**-1074 above it.
# Then top (1 - u)**2 - next (1 + u)**2 = (top - next)(1 + u**2) -
# 2u (top + next) > 0, so the matching of sum ``top`` weighs more exactly
# than any other, whose weight is at most next / (1 - u)**2. Different
# exact weights differ in the solver's objective by more than the whole
# bonus range (module docstring), so this unique optimum is the solver's
# answer under any tie-break. Transposing changes no matching's weight.

# The 73 partial matchings of a 3x4 canvas, as the cells (4 r + c) they
# hold in rows 0, 1 and 2, or _PAD (a zero) where a row is unmatched.
_PAD = 12
_MATCHINGS = np.array([
    [_PAD if c < 0 else 4 * r + c for r, c in enumerate(cols)]
    for cols in itertools.product(range(-1, 4), repeat=3)
    if len({c for c in cols if c >= 0}) == sum(c >= 0 for c in cols)
])


def match_small(
    problem: np.ndarray, row: np.ndarray, col: np.ndarray, weight: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact matchings of many small problems at once, where the float
    margin rule (the argument above) decides them.

    Edge i is the cell (``row[i]``, ``col[i]``) of problem ``problem[i]``,
    of finite ``weight[i] >= 0``; problems are numbered from 0, their rows
    and columns ranked from 0 in ascending order, and their cells distinct.
    A problem of at most 3x4 or 4x3 cells, none heavier than ``2**1021``,
    is decided when its heaviest matching's float sum beats the runner-up
    by more than ``2**-51`` times itself; its matching is then the one
    :func:`solve_max_weight` gives its sub-matrix. Returns boolean masks of
    the edges of decided problems and of the matched edges.
    """
    n = int(problem.max(initial=-1)) + 1
    shape = np.zeros((n, 2), dtype=np.intp)
    np.maximum.at(shape, problem, np.stack([row, col], axis=1) + 1)
    fits = (shape.min(1) <= 3) & (shape.max(1) <= 4)
    fits[problem[weight > 2.0**1021]] = False
    tall = (shape[:, 0] > shape[:, 1])[problem]
    cell = 4 * np.where(tall, col, row) + np.where(tall, row, col)
    on = fits[problem]
    canvas = np.full((n, _PAD + 1), -np.inf)
    canvas[:, _PAD] = 0.0
    canvas[problem[on], cell[on]] = weight[on]
    terms = canvas[:, _MATCHINGS]
    sums = (terms[:, :, 0] + terms[:, :, 1]) + terms[:, :, 2]
    best = sums.argmax(1)
    top = sums[np.arange(n), best]
    sums[np.arange(n), best] = -np.inf
    decided = (fits & (top - sums.max(1) > top * 2.0**-51))[problem]
    return decided, decided & (_MATCHINGS[best[problem]] == cell[:, None]).any(1)


def solve_max_weight(m: WeightMatrix) -> Matching:
    """Exact maximum-weight matching; rows/cols may stay unmatched.

    Solves the whole matrix by the exact Hungarian method, O(n^2 m) for
    sides n <= m. A caller that splits a sparse matrix into the connected
    components of its feasibility graph may solve each one on its own (see
    the module docstring); this function does not split.
    """
    return _finish(m, _hungarian(m.weights, m.feasible()))


def solve_oracle(m: WeightMatrix) -> Matching:
    """Exhaustive enumeration of all injective partial assignments.

    Limited to 8x8; shares the exact objective and tie-break with
    :func:`solve_max_weight`, so the two must agree on pair sets exactly.
    """
    rows, cols = m.weights.shape
    if rows > ORACLE_LIMIT or cols > ORACLE_LIMIT:
        raise ValueError(f"oracle limited to {ORACLE_LIMIT}x{ORACLE_LIMIT} matrices")
    feas = m.feasible()
    combined = _encode(m.weights, feas)

    best_score = 0
    best_pairs: Tuple[Tuple[int, int], ...] = ()
    used_cols = [False] * cols
    chosen: List[Tuple[int, int]] = []

    def recurse(r: int, score: int) -> None:
        nonlocal best_score, best_pairs
        if r == rows:
            if score > best_score:
                best_score = score
                best_pairs = tuple(chosen)
            return
        recurse(r + 1, score)  # leave row r unmatched
        for c in range(cols):
            if feas[r, c] and not used_cols[c]:
                used_cols[c] = True
                chosen.append((r, c))
                recurse(r + 1, score + combined[r][c])
                chosen.pop()
                used_cols[c] = False

    recurse(0, 0)
    return _finish(m, best_pairs)
