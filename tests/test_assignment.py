"""Exact matching: solver examples, tie-break order, oracle equivalence."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rmot_eval.assignment import (
    Matching,
    WeightMatrix,
    match_small,
    solve_max_weight,
    solve_oracle,
)


def pairs_of(m: Matching) -> set:
    return set(m.pairs)


class TestWeightMatrix:
    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            WeightMatrix(weights=np.zeros(3))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            WeightMatrix(weights=np.array([[np.inf]]))

    def test_rejects_mask_shape_mismatch(self):
        with pytest.raises(ValueError):
            WeightMatrix(weights=np.zeros((2, 2)), mask=np.ones((2, 3), dtype=bool))

    def test_feasible_combines_mask_and_sign(self):
        wm = WeightMatrix(
            weights=np.array([[1.0, -1.0], [0.0, 2.0]]),
            mask=np.array([[True, True], [False, True]]),
        )
        assert wm.feasible().tolist() == [[True, False], [False, True]]


class TestSolverExamples:
    def test_single_cell(self):
        m = solve_max_weight(WeightMatrix(weights=np.array([[5.0]])))
        assert pairs_of(m) == {(0, 0)} and m.total_weight == 5.0

    def test_2x2_swap(self):
        m = solve_max_weight(WeightMatrix(weights=np.array([[1.0, 2.0], [2.0, 1.0]])))
        assert pairs_of(m) == {(0, 1), (1, 0)} and m.total_weight == 4.0

    def test_2x3_rectangular(self):
        m = solve_max_weight(
            WeightMatrix(weights=np.array([[3.0, 1.0, 0.0], [0.0, 2.0, 4.0]]))
        )
        assert pairs_of(m) == {(0, 0), (1, 2)} and m.total_weight == 7.0

    def test_empty_matrix(self):
        for shape in ((0, 0), (0, 3), (3, 0)):
            m = solve_max_weight(WeightMatrix(weights=np.zeros(shape)))
            assert m.pairs == () and m.total_weight == 0.0

    def test_negative_weights_never_matched(self):
        m = solve_max_weight(WeightMatrix(weights=np.array([[-1.0, -2.0]])))
        assert m.pairs == ()

    def test_zero_weight_feasible_pairs_are_matched(self):
        # tie-break prefers inclusion: zero-weight pairs still pair up
        m = solve_max_weight(WeightMatrix(weights=np.zeros((2, 2))))
        assert pairs_of(m) == {(0, 0), (1, 1)}

    def test_mask_blocks_pairs(self):
        m = solve_max_weight(
            WeightMatrix(
                weights=np.array([[9.0, 1.0]]),
                mask=np.array([[False, True]]),
            )
        )
        assert pairs_of(m) == {(0, 1)}

    def test_tie_break_prefers_lex_earliest(self):
        # both diagonals weigh 2; greedy-lex keeps (0, 0) first
        m = solve_max_weight(WeightMatrix(weights=np.ones((2, 2))))
        assert pairs_of(m) == {(0, 0), (1, 1)}

    def test_tie_break_lex_on_rectangular(self):
        # (0,0)+(1,1) and (0,1)+(1,0) and (0,2)+(1,x) all tie at weight 2
        m = solve_max_weight(WeightMatrix(weights=np.ones((2, 3))))
        assert pairs_of(m) == {(0, 0), (1, 1)}


class TestOracle:
    def test_limit_enforced(self):
        with pytest.raises(ValueError):
            solve_oracle(WeightMatrix(weights=np.zeros((9, 2))))

    def test_empty(self):
        m = solve_oracle(WeightMatrix(weights=np.zeros((0, 3))))
        assert m.pairs == () and m.total_weight == 0.0

    def test_agrees_on_spec_examples(self):
        for w in ([[5.0]], [[1.0, 2.0], [2.0, 1.0]], [[3.0, 1.0, 0.0], [0.0, 2.0, 4.0]]):
            wm = WeightMatrix(weights=np.array(w))
            assert solve_oracle(wm).pairs == solve_max_weight(wm).pairs

    @pytest.mark.parametrize("solve", [solve_max_weight, solve_oracle])
    @pytest.mark.parametrize(
        "weights, total",
        [
            # 2.5e308 is past the float range: the sum rounds to inf
            ([[1.5e308, 1e308], [1e308, 1.5e308]], math.inf),
            # the largest float plus less than half its ulp rounds back to it
            ([[1.7976931348623157e308, 0.0], [0.0, 9e291]], 1.7976931348623157e308),
            ([[1.7976931348623157e308, 0.0], [0.0, 1e292]], math.inf),
        ],
    )
    def test_total_past_the_float_range(self, solve, weights, total):
        m = solve(WeightMatrix(weights=np.array(weights)))
        assert m.pairs == ((0, 0), (1, 1)) and m.total_weight == total


weight_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda r: st.integers(min_value=1, max_value=5).flatmap(
        lambda c: st.tuples(
            arrays(
                np.float64, (r, c),
                elements=st.floats(
                    min_value=-2.0, max_value=2.0, allow_nan=False, width=32
                ),
            ),
            arrays(np.bool_, (r, c)),
        )
    )
)


class TestSolverOracleEquivalence:
    @given(weight_matrices)
    @settings(max_examples=300, deadline=None)
    def test_identical_pairs_and_weight(self, wm_parts):
        weights, mask = wm_parts
        wm = WeightMatrix(weights=weights, mask=mask)
        a = solve_max_weight(wm)
        b = solve_oracle(wm)
        assert a.pairs == b.pairs
        assert a.total_weight == b.total_weight

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_seeded_integer_matrices(self, seed):
        rng = np.random.default_rng(seed)
        weights = rng.integers(-3, 6, size=(3, 3)).astype(np.float64)
        wm = WeightMatrix(weights=weights)
        assert solve_max_weight(wm).pairs == solve_oracle(wm).pairs

    def test_pairs_disjoint_and_feasible(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            weights = rng.random((4, 4))
            mask = rng.random((4, 4)) < 0.6
            wm = WeightMatrix(weights=weights, mask=mask)
            m = solve_max_weight(wm)
            rows = [r for r, _ in m.pairs]
            cols = [c for _, c in m.pairs]
            assert len(set(rows)) == len(rows) and len(set(cols)) == len(cols)
            assert all(mask[r, c] for r, c in m.pairs)


TIED_WEIGHTS = (-1.0, 0.0, 0.5, 1.0)


def scatter_blocks(blocks, row_perm, col_perm):
    """Place (weights, mask) blocks on a block diagonal, everything between
    them infeasible, then permute rows and columns. Returns the matrix and
    each block's global (rows, cols)."""
    n_rows = sum(w.shape[0] for w, _ in blocks)
    n_cols = sum(w.shape[1] for w, _ in blocks)
    weights = np.ones((n_rows, n_cols))
    mask = np.zeros((n_rows, n_cols), dtype=bool)
    placed = []
    r0 = c0 = 0
    for w, m in blocks:
        rs = [row_perm[r] for r in range(r0, r0 + w.shape[0])]
        cs = [col_perm[c] for c in range(c0, c0 + w.shape[1])]
        weights[np.ix_(rs, cs)] = w
        mask[np.ix_(rs, cs)] = m
        placed.append((rs, cs))
        r0 += w.shape[0]
        c0 += w.shape[1]
    return WeightMatrix(weights=weights, mask=mask), placed


@st.composite
def block_matrices(draw):
    blocks = []
    n_rows = n_cols = 0
    for _ in range(draw(st.integers(min_value=2, max_value=4))):
        if n_rows == 8 or n_cols == 8:
            break
        # at most 7 wide, so a second block always fits
        r = draw(st.integers(min_value=1, max_value=min(7, 8 - n_rows)))
        c = draw(st.integers(min_value=1, max_value=min(7, 8 - n_cols)))
        w = draw(arrays(np.float64, (r, c), elements=st.sampled_from(TIED_WEIGHTS)))
        blocks.append((w, draw(arrays(np.bool_, (r, c)))))
        n_rows += r
        n_cols += c
    row_perm = draw(st.permutations(range(n_rows)))
    col_perm = draw(st.permutations(range(n_cols)))
    return scatter_blocks(blocks, row_perm, col_perm)[0]


class TestComponentSplit:
    """The solver matches a matrix of disjoint blocks whole; its answer must
    be each block's own (weight, greedy-lex) optimum, which is what a caller
    that splits a matrix into components, as the HOTA matcher does, relies
    on."""

    @given(block_matrices())
    @settings(max_examples=300, deadline=None)
    def test_disjoint_blocks_agree_with_oracle(self, wm):
        a = solve_max_weight(wm)
        b = solve_oracle(wm)
        assert a.pairs == b.pairs
        assert a.total_weight == b.total_weight

    @pytest.mark.parametrize("seed", range(10))
    def test_tied_blocks_above_oracle_limit(self, seed):
        rng = np.random.default_rng(seed)
        sizes = [2, 3, 3] * 4 + [2, 2]  # 14 square blocks, 36 rows and columns
        blocks = [
            (
                rng.choice([0.0, 0.5, 1.0], size=(s, s)),
                rng.random((s, s)) < 0.8,
            )
            for s in sizes
        ]
        wm, placed = scatter_blocks(blocks, rng.permutation(36), rng.permutation(36))
        assert (wm.rows, wm.cols) == (36, 36)

        expected = set()
        for rs, cs in placed:
            rs, cs = sorted(rs), sorted(cs)
            idx = np.ix_(rs, cs)
            block = solve_oracle(WeightMatrix(weights=wm.weights[idx], mask=wm.mask[idx]))
            expected |= {(rs[r], cs[c]) for r, c in block.pairs}
        m = solve_max_weight(wm)
        assert set(m.pairs) == expected
        assert m.total_weight == math.fsum(wm.weights[r, c] for r, c in expected)


# Ties everywhere: equal weights, zeros, and sums that round alike but differ
# exactly, since fl(1 + 2**-54) == fl(1 + 2**-53) == 1.0 == fl(1 + 0.0).
TIE_HEAVY = (0.0, 2.0**-54, 2.0**-53, 0.5, 1.0, 1.0 + 2.0**-52)


# the smallest subnormal, the smallest normal and a huge weight share a
# matrix with the ties above, so the solver's integer scale spans the whole
# float range; -0.0 is feasible, as 0.0 is
EXTREME = (5e-324, 2.0**-1022, 1e300, -0.0) + TIE_HEAVY


@st.composite
def extreme_matrices(draw):
    """Matrices of up to 4x5 and 5x4 cells drawn from ``EXTREME``, with a mask."""
    shape = (draw(st.integers(0, 4)), draw(st.integers(0, 5)))
    if draw(st.booleans()):
        shape = shape[::-1]
    weights = draw(arrays(np.float64, shape, elements=st.sampled_from(EXTREME)))
    return WeightMatrix(weights=weights, mask=draw(arrays(np.bool_, shape)))


def exact_best(wm: WeightMatrix) -> tuple:
    """The best matching's pairs by enumeration, without the solvers'
    encoding: the largest exact (``Fraction``) weight sum, and among equal
    sums the matching that holds the earliest row-major cell at which two
    matchings differ."""
    feas = wm.feasible()
    rows, cols = feas.shape

    def matchings(r, used):
        if r == rows:
            yield ()
            return
        yield from matchings(r + 1, used)
        for c in range(cols):
            if feas[r, c] and c not in used:
                for rest in matchings(r + 1, used | {c}):
                    yield ((r, c),) + rest

    def order(pairs):
        held = set(pairs)
        weight = sum(Fraction(float(wm.weights[r, c])) for r, c in pairs)
        return weight, [(r, c) in held for r in range(rows) for c in range(cols)]

    return max(matchings(0, frozenset()), key=order)


class TestExactOrder:
    """Both solvers find the exact (weight, greedy-lex) optimum, however far
    apart the weights' exponents lie."""

    @given(extreme_matrices())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_exact_enumeration(self, wm):
        expected = exact_best(wm)
        for solve in (solve_max_weight, solve_oracle):
            m = solve(wm)
            assert m.pairs == expected, solve.__name__
            assert m.total_weight == math.fsum(wm.weights[r, c] for r, c in expected)

    def test_tiny_weights_keep_their_order(self):
        # 5e-324 and 2**-1022 both have numerator 1, so only the shared
        # scale makes the anti-diagonal heavier; 1e300 has denominator 1
        weights = np.array(
            [[5e-324, 2.0**-1022, 0.0], [2.0**-1022, 5e-324, 0.0], [0.0, 0.0, 1e300]]
        )
        wm = WeightMatrix(weights=weights)
        expected = ((0, 1), (1, 0), (2, 2))
        assert solve_max_weight(wm).pairs == solve_oracle(wm).pairs == expected


def edge_list(matrices):
    """The edges of (number, ``WeightMatrix``) problems in one list, as
    ``hota._solve`` hands them to ``match_small``: each masked-in cell's
    problem number, row, column and weight."""
    edges = [
        (number, r, c, wm.weights[r, c])
        for number, wm in matrices
        for r, c in zip(*np.nonzero(wm.mask))
    ]
    problem, row, col, weight = (np.array(x) for x in zip(*edges))
    return problem, row, col, weight.astype(np.float64)


@st.composite
def small_problems(draw):
    """Problems of up to 3x5 and 5x3 cells: 1xn and nx1 stars, 2x2s, every
    shape up to 3x4 and 4x3 and some larger ones, with weights from
    ``TIE_HEAVY`` or from ``EXTREME`` and an edge in every row and column.
    They are numbered from 0, not every number used. Returns their edge
    list, shuffled, and each problem's number and matrix."""
    matrices = []
    values = draw(st.sampled_from([TIE_HEAVY, EXTREME]))
    for number in draw(st.lists(st.integers(0, 30), min_size=1, max_size=10, unique=True)):
        shape = (draw(st.integers(1, 3)), draw(st.integers(1, 5)))
        if draw(st.booleans()):
            shape = shape[::-1]
        weights = draw(arrays(np.float64, shape, elements=st.sampled_from(values)))
        mask = draw(arrays(np.bool_, shape))
        cover = draw(st.permutations(range(shape[1])))
        for i in range(max(shape)):
            mask[i % shape[0], cover[i % shape[1]]] = True
        matrices.append((number, WeightMatrix(weights, mask)))
    order = np.array(draw(st.permutations(range(sum(int(wm.mask.sum()) for _, wm in matrices)))))
    return tuple(x[order] for x in edge_list(matrices)), matrices


def pairs_at(row, col, held):
    return tuple(sorted(zip(row[held].tolist(), col[held].tolist())))


def one_problem(weights, mask=None):
    weights = np.array(weights, dtype=np.float64)
    wm = WeightMatrix(weights, np.ones(weights.shape, dtype=bool) if mask is None else mask)
    return edge_list([(0, wm)]), [(0, wm)]


# both sums round to 1.0, and the anti-diagonal is heavier exactly
ROUND_ALIKE = ([[1.0, 1.0], [2.0**-53, 2.0**-54]], [[1.0, 2.0**-53], [1.0, 0.0]])
# With U = 2**-53, two perfect matchings of exact weight 1.5 + 2U whose
# float sums are 1.5 and 1.5 + 4U: 4U apart, inside the margin of
# 2**-51 * (1.5 + 4U), about 6U, but not inside half of it. A halved margin
# picks the later matching; the exact tie goes to the earlier.
U = 2.0**-53
HALVED_MARGIN_TIE = (
    [[3 * U, 0.0, 0.5], [0.0, 1 - U, 1 - 2 * U], [3 * U, 0.5 + U, 0.0]],
    np.array([[True, False, True], [False, True, True], [True, True, False]]),
)


class TestMatchSmall:
    """``match_small`` decides a problem only where its answer is the
    oracle's, and the solver, as the fallback, matches every other."""

    @given(small_problems())
    @example(one_problem(ROUND_ALIKE[0]))
    @example(one_problem(ROUND_ALIKE[1]))
    @example(one_problem(*HALVED_MARGIN_TIE))
    @example(one_problem([[1.5e308, 1e308, 2.0**1021]]))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_oracle(self, drawn):
        (problem, row, col, weight), matrices = drawn
        decided, chosen = match_small(problem, row, col, weight)
        for number, wm in matrices:
            mine = problem == number
            assert decided[mine].all() or not decided[mine].any()
            if decided[mine].any():
                assert min(wm.rows, wm.cols) <= 3 and max(wm.rows, wm.cols) <= 4
                got = pairs_at(row, col, mine & chosen)
            else:
                got = solve_max_weight(wm).pairs
            assert got == solve_oracle(wm).pairs

    def test_sums_that_round_alike(self):
        for weights in ROUND_ALIKE:
            (problem, row, col, weight), _ = one_problem(weights)
            decided, chosen = match_small(problem, row, col, weight)
            assert not decided.any() and not chosen.any()

    def test_tie_inside_the_margin_is_left(self):
        (problem, row, col, weight), [(_, wm)] = one_problem(*HALVED_MARGIN_TIE)
        assert not match_small(problem, row, col, weight)[0].any()
        assert solve_oracle(wm).pairs == ((0, 0), (1, 2), (2, 1))

    def test_decides_up_to_3x4(self):
        rng = np.random.default_rng(0)
        shapes = [(1, 1), (1, 4), (4, 1), (2, 2), (2, 3), (3, 3), (3, 4), (4, 3), (4, 4), (1, 5)]
        matrices = [
            (i, WeightMatrix(rng.random(s), np.ones(s, dtype=bool))) for i, s in enumerate(shapes)
        ]
        problem, row, col, weight = edge_list(matrices)
        decided, chosen = match_small(problem, row, col, weight)
        for number, wm in matrices:
            mine = problem == number
            small = max(wm.rows, wm.cols) <= 4 and min(wm.rows, wm.cols) <= 3
            assert decided[mine].all() == small and decided[mine].any() == small
            if small:
                assert pairs_at(row, col, mine & chosen) == solve_oracle(wm).pairs

    def test_empty(self):
        empty = np.empty(0, dtype=np.intp)
        decided, chosen = match_small(empty, empty, empty, np.empty(0))
        assert decided.size == chosen.size == 0
