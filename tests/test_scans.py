"""The shared truncation scans against brute-force and entry-wise oracles.

``gray_subset_search`` is checked against a plain enumeration of every
nonempty subset, and ``column_scan`` against the entry-wise column loops it
replaced in the condition battery (C13, C14) and the alpha check.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from sumkit.classes import _row_signs, _signed_rows, reduce_source_int_bv
from sumkit.core import LazySequence, TruncationSchedule, column_scan, gray_subset_search
from sumkit.duals import DualMatrixKind, dual_kernel_matrix
from sumkit.minilang import parse_matrix_spec
from sumkit.operators import (TriangleKind, TriangleOperator, WeightPair,
                              classical_matrix)

ZERO = Fraction(0)


def _abs_sum(acc):
    return sum(map(abs, acc), ZERO)


def _best_by_row_signs(acc):
    return _row_signs(acc)[0]


def _subset_sum(vectors, subset):
    acc = [ZERO] * max(map(len, vectors))
    for i in subset:
        for j, v in enumerate(vectors[i]):
            acc[j] += v
    return acc


def _random_vectors(rng, depth, triangular):
    def term():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5))

    width = rng.randint(1, 6)
    return [[term() for _ in range(r if triangular else width)]
            for r in range(1, depth + 1)]


@pytest.mark.parametrize("score, witness", [(_abs_sum, None),
                                            (_best_by_row_signs, _signed_rows)])
@pytest.mark.parametrize("seed", range(12))
def test_gray_subset_search_matches_every_subset(seed, score, witness):
    rng = random.Random(seed)
    depth = 1 + seed % 6
    vectors = _random_vectors(rng, depth, triangular=seed % 2 == 0)
    best, chosen, found = gray_subset_search(vectors, ZERO, score, witness)

    brute = max(score(_subset_sum(vectors, subset))
                for r in range(1, depth + 1)
                for subset in itertools.combinations(range(depth), r))
    assert best == max(brute, ZERO)
    if brute > ZERO:
        acc = _subset_sum(vectors, [i - 1 for i in chosen])
        assert chosen == sorted(set(chosen)) and 1 <= chosen[0] and chosen[-1] <= depth
        assert score(acc) == best
        assert found == (witness(acc) if witness else None)
    else:
        assert (chosen, found) == ([], None)


def test_gray_subset_search_with_nothing_above_zero():
    vectors = [[Fraction(0)], [Fraction(0)]]
    assert gray_subset_search(vectors, ZERO, _abs_sum) == (ZERO, [], None)


# -- the entry-wise loops column_scan replaced ------------------------------


def _column_abs_sums_oracle(A, sched):
    """The former C13 body: every entry k <= max size of every row."""
    n_max = sched.max_size
    zero = A.zero()
    colsums = [zero] * (n_max + 1)
    sizes = set(sched.sizes)
    trace = []
    witness = {"col": 1}
    for n in range(1, n_max + 1):
        for k in range(1, n_max + 1):
            v = A.entry(n, k)
            if v != 0:
                colsums[k] = colsums[k] + abs(v)
        if n in sizes:
            best_k = max(range(1, n + 1), key=lambda k: colsums[k])
            trace.append((n, colsums[best_k]))
            witness = {"col": best_k}
    return trace, witness["col"]


def _column_prefix_sums_oracle(A, sched):
    """The former C14 body: peak |column prefix| over every entry."""
    n_max = sched.max_size
    zero = A.zero()
    prefix = [zero] * (n_max + 1)
    peak = [zero] * (n_max + 1)
    sizes = set(sched.sizes)
    trace = []
    witness = {"col": 1}
    for n in range(1, n_max + 1):
        for k in range(1, n_max + 1):
            v = A.entry(n, k)
            if v != 0:
                prefix[k] = prefix[k] + v
            mag = abs(prefix[k])
            if mag > peak[k]:
                peak[k] = mag
        if n in sizes:
            best_k = max(range(1, n + 1), key=lambda k: peak[k])
            trace.append((n, peak[best_k]))
            witness = {"col": best_k}
    return trace, witness["col"]


def _alpha_column_sums_oracle(M, sched):
    """The former alpha statistic: |M(n,k)| summed for k <= n."""
    n_max = sched.max_size
    zero = M.zero()
    colsums = [zero] * (n_max + 1)
    trace = []
    witness_col = 1
    sizes = set(sched.sizes)
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            colsums[k] = colsums[k] + abs(M.entry(n, k))
        if n in sizes:
            best_k = max(range(1, n + 1), key=lambda k: colsums[k])
            trace.append((n, colsums[best_k]))
            witness_col = best_k
    return trace, witness_col


def _nonfinite_rule(n, k):
    if k > n + 2:
        return 0.0
    if (n * k) % 7 == 3:
        return math.inf
    if (n + 2 * k) % 11 == 5:
        return -math.inf
    if (n + k) % 13 == 4:
        return math.nan
    return (-1.0) ** k / (n + k)


def _wide_rule(n, k):
    return Fraction((-1) ** n * k, n) if k <= 2 * n else ZERO


HARMONIC_WEIGHTS = WeightPair(LazySequence(lambda k: Fraction(1)),
                              LazySequence(lambda k: Fraction(1, k)))

MATRICES = {
    "cesaro": lambda: classical_matrix("cesaro"),
    "cesaro-float": lambda: classical_matrix("cesaro").as_float(),
    "expr-strict": lambda: parse_matrix_spec("expr:(n-2*k)/(n+k)").operator,
    "expr-full": lambda: parse_matrix_spec("expr:(k-n)/(n*k+1)", full=True).operator,
    "taylor": lambda: parse_matrix_spec("taylor:1/2").operator,
    "taylor-float": lambda: parse_matrix_spec("taylor:1/2").operator.as_float(),
    "support-past-diagonal": lambda: TriangleOperator(
        _wide_rule, kind=TriangleKind.ROW_EVALUABLE, row_support=lambda n: 2 * n),
    "reduced-cesaro-float": lambda: reduce_source_int_bv(
        classical_matrix("cesaro").as_float(), HARMONIC_WEIGHTS.as_float()),
    "nonfinite-float": lambda: TriangleOperator(
        _nonfinite_rule, kind=TriangleKind.ROW_EVALUABLE, exact=False,
        row_support=lambda n: n + 2),
    "nonfinite-float-no-support": lambda: TriangleOperator(
        _nonfinite_rule, kind=TriangleKind.ROW_EVALUABLE, exact=False),
}

SCHED = TruncationSchedule((4, 8, 16, 32))


@pytest.mark.parametrize("name", list(MATRICES))
@pytest.mark.parametrize("absolute, oracle", [(True, _column_abs_sums_oracle),
                                              (False, _column_prefix_sums_oracle)])
def test_column_scan_matches_the_entry_wise_loop(name, absolute, oracle):
    got = column_scan(MATRICES[name](), SCHED, absolute=absolute)
    want = oracle(MATRICES[name](), SCHED)
    assert repr(got) == repr(want)


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("kind", [DualMatrixKind.ALPHA_INT_BV, DualMatrixKind.ALPHA_D_BV])
def test_column_scan_matches_the_alpha_column_sums(kind, exact):
    a = LazySequence(lambda k: Fraction((-1) ** k, k * k))
    wp = HARMONIC_WEIGHTS
    if not exact:
        a, wp = a.as_float(), wp.as_float()
    got = column_scan(dual_kernel_matrix(kind, a, wp), SCHED, absolute=True)
    want = _alpha_column_sums_oracle(dual_kernel_matrix(kind, a, wp), SCHED)
    assert repr(got) == repr(want)


def test_nonfinite_columns_differ_between_sum_and_peak():
    # a NaN column sum never enters the peak of |prefix|, so the two
    # statistics must stay separate scans
    A = MATRICES["nonfinite-float"]()
    sums, _ = column_scan(A, SCHED, absolute=True)
    peaks, _ = column_scan(A, SCHED, absolute=False)
    assert any(math.isnan(v) or math.isinf(v) for _, v in sums)
    assert repr(sums) != repr(peaks)
