"""The shared truncation scans against brute-force and entry-wise oracles.

``gray_subset_search`` is checked against a plain enumeration of every
nonempty subset, ``column_scan`` against the entry-wise column loops it
replaced in the condition battery (C13, C14) and the alpha check, and the
row-wise C11/C20/C22/C23 sweeps against frozen copies of their entry-wise
forms.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from sumkit.classes import (_exhaustive_rect, _greedy_rect, _row_signs, _signed_rows,
                            _verdict, check_condition, reduce_source_d_bv,
                            reduce_source_int_bv)
from sumkit.core import (ConditionVerdict, LazySequence, StatKind, TruncationSchedule,
                         Verdict, _growth_window, _to_float, column_scan,
                         gray_subset_search, judge_trace)
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


# -- the entry-wise sweeps the row-wise C11, C20, C22 and C23 replaced ------


def _frozen_entry_sup(A, sched):
    """The former C11 body: one ``entry`` per new cell of each size."""
    trace = []
    best = A.zero()
    witness = {"row": 1, "col": 1}
    prev = 0
    for s in sched.sizes:
        for n in range(1, s + 1):
            lo = prev + 1 if n <= prev else 1
            for k in range(lo, s + 1):
                v = abs(A.entry(n, k))
                if v > best:
                    best = v
                    witness = {"row": n, "col": k}
        trace.append((s, best))
        prev = s
    return _verdict("C11", trace, StatKind.SUP, sched, witness=witness)


def _frozen_subset_sums(A, sched, difference):
    """The former C20/C22/C23 body: one or two ``entry`` calls per new cell."""
    if difference == 0:
        entry = A.entry
        label = "C20"
    elif difference > 0:
        entry = lambda n, k: A.entry(n, k) - A.entry(n, k + 1)
        label = "C22"
    else:
        entry = lambda n, k: A.entry(n, k) - (A.entry(n, k - 1) if k > 1 else A.zero())
        label = "C23"

    n_max = sched.max_size
    fb = [[0.0] * (n_max + 1)]
    fb.extend([0.0] * (n_max + 1) for _ in range(n_max))
    upper_acc = A.zero()
    prev = 0
    upper_trace = []
    lower_vals = []
    witness = None
    for s in sched.sizes:
        for n in range(1, s + 1):
            lo = prev + 1 if n <= prev else 1
            for k in range(lo, s + 1):
                v = entry(n, k)
                upper_acc = upper_acc + abs(v)
                fb[n][k] = _to_float(v)
        prev = s
        upper_trace.append((s, upper_acc))
        exhaustive = _exhaustive_rect(fb, min(12, s))
        greedy = _greedy_rect(fb, s)
        lower, witness = greedy if greedy[0] >= exhaustive[0] else exhaustive
        lower_vals.append(lower)

    growth = _growth_window(lower_vals, sched.growth_ratio, sched.growth_steps)
    upper_status, routes = judge_trace([v for _, v in upper_trace], StatKind.SUP, sched)
    if growth is not None:
        status = Verdict.DIVERGENCE
    elif upper_status is Verdict.HOLDS:
        status = Verdict.HOLDS
    else:
        status = Verdict.INCONCLUSIVE
    aux = {
        "condition": label,
        "routes": routes,
        "lower_bound_trace": [{"size": s, "value": lv}
                              for s, lv in zip(sched.sizes, lower_vals)],
        "lower_growth_window_at": growth,
    }
    return ConditionVerdict(status, upper_trace, witness=witness, aux=aux)


_FROZEN_SWEEPS = {
    "C11": _frozen_entry_sup,
    "C20": lambda A, sched: _frozen_subset_sums(A, sched, 0),
    "C22": lambda A, sched: _frozen_subset_sums(A, sched, +1),
    "C23": lambda A, sched: _frozen_subset_sums(A, sched, -1),
}

SWEEP_MATRICES = {
    "cesaro": lambda: classical_matrix("cesaro"),
    "euler:1/3": lambda: classical_matrix("euler", Fraction(1, 3)),
    "reduce-source-d-bv(cesaro)": lambda: reduce_source_d_bv(classical_matrix("cesaro"),
                                                             HARMONIC_WEIGHTS),
    "expr-strict": lambda: parse_matrix_spec("expr:(n-2*k)/(n+k)").operator,
    "expr-full": lambda: parse_matrix_spec("expr:(k-n)/(n*k+1)", full=True).operator,
    "reduced-cesaro-float": MATRICES["reduced-cesaro-float"],
    "nonfinite-float": MATRICES["nonfinite-float"],
}

# sizes that do not double, so old rows gain columns of mixed counts
SWEEP_SCHED = TruncationSchedule((3, 5, 11, 24))


def _outcome(sweep, A, sched):
    """The verdict's repr, or the exception's type and message."""
    try:
        v = sweep(A, sched)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc).__name__, str(exc)
    return repr((v.status, v.trace, v.witness, v.aux))


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("name", list(SWEEP_MATRICES))
@pytest.mark.parametrize("cid", list(_FROZEN_SWEEPS))
def test_row_sweeps_match_the_entry_wise_form(cid, name, mode):
    def make():
        A = SWEEP_MATRICES[name]()
        return A.as_float() if mode == "float" else A

    for sched in (SCHED, SWEEP_SCHED):
        got = _outcome(lambda A, s: check_condition(cid, A, s), make(), sched)
        assert got == _outcome(_FROZEN_SWEEPS[cid], make(), sched)


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("spec, full, cell", [
    # strict rows: met when row 5 is first read, at size 8
    ("expr:1/((n-5)^2+(k-3)^2)", False, "n=5, k=3"),
    # full rows: met in old row 2 when size 8 adds its columns 5..8
    ("expr:1/((n-2)^2+(k-6)^2)", True, "n=2, k=6"),
    # three zero cells: the read order decides which one is named
    ("expr:1/(((n-5)^2+(k-4)^2)*((n-5)^2+(k-3)^2)*((n-7)^2+(k-1)^2))", False, "n=5, k=3"),
    ("expr:1/(((n-2)^2+(k-7)^2)*((n-2)^2+(k-6)^2)*((n-6)^2+(k-1)^2))", True, "n=2, k=6"),
])
@pytest.mark.parametrize("cid", list(_FROZEN_SWEEPS))
def test_row_sweeps_meet_the_same_zero_division(cid, spec, full, cell, mode):
    def make():
        A = parse_matrix_spec(spec, full=full).operator
        return A.as_float() if mode == "float" else A

    got = _outcome(lambda A, s: check_condition(cid, A, s), make(), SCHED)
    assert got == _outcome(_FROZEN_SWEEPS[cid], make(), SCHED)
    assert got[0] == "ZeroDivisionError" and got[1].endswith(f"divides by zero at {cell}")
