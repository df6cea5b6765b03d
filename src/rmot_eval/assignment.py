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

:func:`match_closed_form` matches many small problems at once, on edge
lists, without the encoding, where the optimum has a closed form; the
caller groups the edges into problems, ranks each problem's rows and
columns from 0 and marks the stars, and the HOTA matcher sends it every
star and 2x2 component. Every edge is feasible (weight >= 0), so every
cell's bonus is positive and adding an edge to a matching only raises its
objective; the best matching is therefore a maximal one:

* a star (one row or one column) matches one edge, and the encoded
  objective orders one-edge matchings as their weights, since scaling by a
  power of two is exact and keeps the order; equal weights are equal
  scaled weights, and the larger bonus is the earlier cell. So the heaviest
  edge wins, the smallest (row, col) on a tie;
* a 2x2 problem (two rows, two columns) matches the present cells of its
  diagonal or of its anti-diagonal, since every maximal matching is one of
  the two; a missing cell counts as weight 0. The encoded weights are the
  exact weights times one power of two, so the exact sums decide, compared
  without rounding: if ``fl(a+b)`` and ``fl(c+d)`` differ they decide,
  since rounding is monotone; if they are equal, the exact difference is
  that of the TwoSum error terms, compared exactly. Equal sums leave it to
  the bonus, whose largest term is the earliest present cell: the diagonal
  wins if cell (0, 0) is present, the anti-diagonal otherwise.
"""

from __future__ import annotations

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


def _finish(m: WeightMatrix, pairs: Sequence[Tuple[int, int]]) -> Matching:
    ordered = tuple(sorted(pairs))
    total = math.fsum(float(m.weights[r, c]) for r, c in ordered)
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


def _two_sum(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Knuth's TwoSum: ``s = fl(a + b)`` and the error ``e`` with ``a + b ==
    s + e`` exactly, elementwise, for finite a and b that do not overflow."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def match_closed_form(
    problem: np.ndarray, row: np.ndarray, col: np.ndarray, weight: np.ndarray, star: np.ndarray
) -> np.ndarray:
    """Exact matchings of many small problems at once, where they have a
    closed form (see the module docstring).

    Edge i is the cell (``row[i]``, ``col[i]``) of problem ``problem[i]``,
    with a finite ``weight[i] >= 0``. Problems are numbered from 0, their
    rows and columns are ranked from 0 in ascending order, and a problem's
    cells are distinct. ``star[i]`` marks an edge of a problem that lies in
    one row or one column; every other problem has two rows and two
    columns. Each problem is matched under the shared (weight, greedy-lex)
    order, as :func:`solve_max_weight` matches its sub-matrix. Returns the
    boolean mask of the matched edges.
    """
    chosen = np.zeros(problem.size, dtype=bool)

    # stars: the heaviest edge, the smallest (row, col) on a tie
    s = np.flatnonzero(star)
    s = s[np.lexsort((col[s], row[s], -weight[s], problem[s]))]
    head = np.ones(s.size, dtype=bool)
    head[1:] = problem[s][1:] != problem[s][:-1]
    chosen[s[head]] = True

    # 2x2s: the present diagonal cells (0 and 3) or anti-diagonal cells (1
    # and 2), whichever weighs more exactly; on a tie, the side of the
    # earliest present cell
    q = np.flatnonzero(~star)
    pq, cell = problem[q], 2 * row[q] + col[q]
    n = int(pq.max(initial=-1)) + 1
    w = np.zeros((n, 4), dtype=np.float64)
    w[pq, cell] = weight[q]
    has_00 = np.zeros(n, dtype=bool)
    has_00[pq[cell == 0]] = True
    (ds, de), (as_, ae) = _two_sum(w[:, 0], w[:, 3]), _two_sum(w[:, 1], w[:, 2])
    diagonal = (ds > as_) | ((ds == as_) & ((de > ae) | ((de == ae) & has_00)))
    chosen[q] = (cell % 3 == 0) == diagonal[pq]
    return chosen


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
