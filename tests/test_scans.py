"""The shared truncation scans against brute-force and entry-wise oracles.

``gray_subset_search`` is checked against a plain enumeration of every
nonempty subset, ``column_scan`` against the entry-wise column loops it
replaced in the condition battery (C13, C14) and the alpha check, and the
row-wise C11/C20/C21/C22/C23 sweeps and the one-pass column windows of
C12/C15/C16 against frozen copies of their entry-wise forms.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sumkit import classes
from sumkit.classes import (_row_signs, _signed_rows, _verdict, check_condition,
                            reduce_source_d_bv, reduce_source_int_bv)
from sumkit.core import (ConditionVerdict, LazySequence, StatKind, TruncationSchedule,
                         Verdict, _growth_window, _to_float, column_scan,
                         gray_subset_search, judge_trace, ones)
from sumkit.duals import DualMatrixKind, dual_kernel_matrix
from sumkit.minilang import parse_matrix_spec
from sumkit.operators import (TriangleKind, TriangleOperator, WeightPair,
                              classical_matrix, riesz_matrix)

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


# -- the entry-wise sweeps the row-wise C11, C20, C21, C22 and C23 replaced


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


def _frozen_square_entry_sup(A, sched):
    """The former row-wise C11 body: each row read to the size, past its
    support too."""
    trace = []
    best = A.zero()
    witness = {"row": 1, "col": 1}
    prev = 0
    for s in sched.sizes:
        for n in range(1, s + 1):
            lo = prev + 1 if n <= prev else 1
            for k, x in enumerate(A.row(n, s, lo), lo):
                v = abs(x)
                if v > best:
                    best = v
                    witness = {"row": n, "col": k}
        trace.append((s, best))
        prev = s
    return _verdict("C11", trace, StatKind.SUP, sched, witness=witness)


def _frozen_exhaustive_rect(fb, depth):
    """The former ``_exhaustive_rect``, on a square scratch."""
    columns = [[fb[n][k] for n in range(1, depth + 1)] for k in range(1, depth + 1)]
    best, cols, rows = gray_subset_search(columns, 0.0, _best_by_row_signs, _signed_rows)
    return best, {"rows": rows or [], "cols": cols, "method": "exhaustive-12"}


def _frozen_greedy_rect(fb, s):
    """The former ``_greedy_rect``, on a square scratch: every row adds its
    cell of each column."""
    fb_rows = fb[1:s + 1]
    rowsum = [0.0] * s
    chosen = []
    best = 0.0
    for k in range(1, s + 1):
        candidate = [r + row[k] for r, row in zip(rowsum, fb_rows)]
        value = _row_signs(candidate)[0]
        if value > best:
            best = value
            chosen.append(k)
            rowsum = candidate
    return best, {"rows": _signed_rows(rowsum)[:24], "cols": chosen[:24], "method": "greedy"}


def _frozen_subset_sums(A, sched, difference):
    """The former C20/C22/C23 body: one or two ``entry`` calls per new cell
    of a square truncation."""
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
        exhaustive = _frozen_exhaustive_rect(fb, min(12, s))
        greedy = _frozen_greedy_rect(fb, s)
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


def _frozen_row_tails(A, sched):
    """The former C21 body: one ``entry`` per cell of rows 1..s/2 and
    columns s/2+1..s at every size s."""
    trace = []
    scale = 1.0
    witness = None
    for s in sched.sizes:
        half = s // 2
        defect = A.zero()
        for n in range(1, max(1, half) + 1):
            vals = [abs(A.entry(n, k)) for k in range(half + 1, s + 1)]
            scale = classes._scan_scale(vals, scale)
            for k, v in enumerate(vals, half + 1):
                if v > defect:
                    defect = v
                    witness = {"row": n, "col": k}
        trace.append((s, defect))
    return _verdict("C21", trace, StatKind.DEFECT, sched, witness=witness, scale=scale)


def _frozen_window_defects(A, sched, window, *, to_zero):
    """The former column windows: ``window(k, s)`` column by column, one
    ``entry`` per cell, every column prefix summed again at every size."""
    trace = []
    scale = 1.0
    for s in sched.sizes:
        defect = A.zero()
        for k in range(1, max(1, s // 2) + 1):
            vals = window(k, s)
            scale = classes._scan_scale(vals, scale)
            osc = max(vals) - min(vals)
            if osc > defect:
                defect = osc
            if to_zero:
                mag = abs(vals[-1])
                if mag > defect:
                    defect = mag
        trace.append((s, defect))
    return trace, scale


def _frozen_column_limits(A, sched, zero_limit):
    """The former C12 body."""
    def entries(k, s):
        return [A.entry(n, k) for n in range(s // 2 + 1, s + 1)]

    trace, scale = _frozen_window_defects(A, sched, entries, to_zero=zero_limit)
    s_max = sched.max_size
    estimates = {k: A.entry(s_max, k) for k in range(1, min(16, s_max // 2) + 1)}
    return _verdict("C12(limit=0)" if zero_limit else "C12", trace, StatKind.DEFECT,
                    sched, limit_estimates=estimates, scale=scale)


def _frozen_column_sum_convergence(A, sched, to_zero):
    """The former C15/C16 body."""
    def partial_sums(k, s):
        column = (A.entry(n, k) for n in range(1, s + 1))
        return list(itertools.accumulate(column, initial=A.zero()))[s // 2 + 1:]

    trace, scale = _frozen_window_defects(A, sched, partial_sums, to_zero=to_zero)
    return _verdict("C16" if to_zero else "C15", trace, StatKind.DEFECT, sched,
                    scale=scale, require_exact_zero=to_zero and A.exact)


_FROZEN_SWEEPS = {
    "C11": _frozen_entry_sup,
    "C20": lambda A, sched: _frozen_subset_sums(A, sched, 0),
    "C22": lambda A, sched: _frozen_subset_sums(A, sched, +1),
    "C23": lambda A, sched: _frozen_subset_sums(A, sched, -1),
    "C12": lambda A, sched: _frozen_column_limits(A, sched, False),
    "C12(limit=0)": lambda A, sched: _frozen_column_limits(A, sched, True),
    "C15": lambda A, sched: _frozen_column_sum_convergence(A, sched, False),
    "C16": lambda A, sched: _frozen_column_sum_convergence(A, sched, True),
    "C21": _frozen_row_tails,
}

# the sweeps that read every new cell of each size; the column windows of
# C12/C15/C16 read fewer cells, so a zero cell may lie outside them
_ROW_SWEEPS = ["C11", "C20", "C22", "C23"]


def _check(cid):
    """``check_condition`` for a ``_FROZEN_SWEEPS`` key."""
    zero_limit = cid.endswith("(limit=0)")
    return lambda A, sched: check_condition(cid[:3], A, sched, zero_limit=zero_limit)


SWEEP_MATRICES = {
    "cesaro": lambda: classical_matrix("cesaro"),
    "euler:1/3": lambda: classical_matrix("euler", Fraction(1, 3)),
    "reduce-source-d-bv(cesaro)": lambda: reduce_source_d_bv(classical_matrix("cesaro"),
                                                             HARMONIC_WEIGHTS),
    "expr-strict": lambda: parse_matrix_spec("expr:(n-2*k)/(n+k)").operator,
    "expr-full": lambda: parse_matrix_spec("expr:(k-n)/(n*k+1)", full=True).operator,
    "reduced-cesaro-float": MATRICES["reduced-cesaro-float"],
    "nonfinite-float": MATRICES["nonfinite-float"],
    # strict triangles whose subset-sum scratch is ragged: rows of zeros
    # and one or two nonzero cells, and rows of one value, built once
    # (Cesàro) or divided cell by cell (riesz:ones, exact or float weights)
    "identity": lambda: classical_matrix("identity"),
    "difference": lambda: classical_matrix("difference"),
    "cesaro-float": MATRICES["cesaro-float"],
    "riesz:ones": lambda: riesz_matrix(ones()),
    "riesz:ones-float": lambda: riesz_matrix(ones(exact=False)),
}

# sizes that do not double, so old rows gain columns of mixed counts and
# the column windows (s//2, s] of 3 and 5 overlap
SWEEP_SCHED = TruncationSchedule((3, 5, 11, 24))


def _outcome(sweep, A, sched):
    """The verdict's repr, or the exception's type and message."""
    try:
        v = sweep(A, sched)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc).__name__, str(exc)
    return repr((v.status, v.trace, v.witness, v.limit_estimates, v.aux))


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("name", list(SWEEP_MATRICES))
@pytest.mark.parametrize("cid", list(_FROZEN_SWEEPS))
def test_row_sweeps_match_the_entry_wise_form(cid, name, mode):
    def make():
        A = SWEEP_MATRICES[name]()
        return A.as_float() if mode == "float" else A

    for sched in (SCHED, SWEEP_SCHED):
        got = _outcome(_check(cid), make(), sched)
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
@pytest.mark.parametrize("cid", _ROW_SWEEPS)
def test_row_sweeps_meet_the_same_zero_division(cid, spec, full, cell, mode):
    def make():
        A = parse_matrix_spec(spec, full=full).operator
        return A.as_float() if mode == "float" else A

    got = _outcome(lambda A, s: check_condition(cid, A, s), make(), SCHED)
    assert got == _outcome(_FROZEN_SWEEPS[cid], make(), SCHED)
    assert got[0] == "ZeroDivisionError" and got[1].endswith(f"divides by zero at {cell}")


@pytest.mark.parametrize("sched, searches", [(TruncationSchedule(), 1), (SCHED, 3)])
def test_subset_sums_search_the_leading_block_once_per_depth(monkeypatch, sched, searches):
    # the 12 x 12 block is final once a size reaches 12
    calls = []
    search = classes.gray_subset_search
    monkeypatch.setattr(classes, "gray_subset_search",
                        lambda *args: calls.append(args) or search(*args))
    check_condition("C20", classical_matrix("cesaro").as_float(), sched)
    assert len(calls) == searches


# -- the column windows of C12/C15/C16 against their entry-wise form --------

_PALETTE = (math.nan, math.inf, -math.inf, -0.0, 0.0, 1e308, -1e308, 0.5, -3.0)


def _drawn_triangle(seed, exact, rule_based, wide):
    """A triangle whose rows are drawn from ``seed`` and the row index, so a
    row is the same whatever order rows are asked in: exact fractions, or
    floats with NaN, +-inf, -0.0 and 1e308 among them.  ``wide`` rows
    reach two columns past the diagonal."""
    def row(n):
        rng = random.Random(seed * 4099 + n)
        width = n + 2 if wide else n
        if exact:
            return [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(width)]
        return [rng.choice(_PALETTE) if rng.random() < 0.3 else rng.uniform(-2.0, 2.0)
                for _ in range(width)]

    kind = TriangleKind.ROW_EVALUABLE if wide else TriangleKind.STRICT_TRIANGLE
    support = (lambda n: n + 2) if wide else None
    if rule_based:
        def rule(n, k):
            r = row(n)
            return r[k - 1] if k <= len(r) else (ZERO if exact else 0.0)
        return TriangleOperator(rule, kind=kind, row_support=support, exact=exact)
    return TriangleOperator(build_row=row, kind=kind, row_support=support, exact=exact)


_WINDOW_SPECS = [
    ("expr:(n-2*k)/(n+k)", False),
    ("expr:(n-3*k)*k/(n^2+1)", False),
    ("expr:(k-n)/(n*k+1)", True),
    ("expr:(k-2*n)/(n+k^2)", True),
    # one zero cell, read by the windows of some schedules only
    ("expr:1/((n-5)^2+(k-2)^2)", False),
    ("expr:1/((n-3)^2+(k-4)^2)", True),
]


@st.composite
def _window_cases(draw):
    sizes = draw(st.lists(st.integers(1, 24), min_size=3, max_size=6, unique=True))
    sched = TruncationSchedule(tuple(sorted(sizes)))
    source = draw(st.sampled_from(["float", "exact", "spec"]))
    if source == "spec":
        spec, full = draw(st.sampled_from(_WINDOW_SPECS))
        float_mode = draw(st.booleans())

        def make():
            A = parse_matrix_spec(spec, full=full).operator
            return A.as_float() if float_mode else A
        return make, sched
    seed = draw(st.integers(0, 10 ** 6))
    rule_based, wide = draw(st.booleans()), draw(st.booleans())
    return (lambda: _drawn_triangle(seed, source == "exact", rule_based, wide)), sched


@settings(max_examples=150, deadline=None)
@given(case=_window_cases(), cid=st.sampled_from(["C12", "C12(limit=0)", "C15", "C16"]))
def test_column_windows_match_the_entry_wise_form(case, cid):
    # sizes up to 24 with gaps of 1 or 2 overlap their windows (s//2, s]
    make, sched = case
    assert _outcome(_check(cid), make(), sched) == _outcome(_FROZEN_SWEEPS[cid], make(), sched)


@settings(max_examples=150, deadline=None)
@given(case=_window_cases(), cid=st.sampled_from(_ROW_SWEEPS + ["C21"]))
def test_row_range_reads_match_the_entry_wise_form(case, cid):
    # the sweeps read each row from a start column: on rows of mixed widths,
    # with one-column sizes and drawn schedules, they equal the entry walk
    make, sched = case
    assert _outcome(_check(cid), make(), sched) == _outcome(_FROZEN_SWEEPS[cid], make(), sched)


@pytest.mark.parametrize("sizes", [(1, 2, 3), (4, 6, 8, 12), (2, 3, 4, 5, 6)])
@pytest.mark.parametrize("cid", ["C12", "C12(limit=0)", "C15", "C16"])
def test_column_windows_on_overlapping_schedules(cid, sizes):
    # rows that lie in up to four windows at once, and one-column windows
    sched = TruncationSchedule(sizes)
    for seed in range(8):
        for exact in (True, False):
            def make():
                return _drawn_triangle(seed, exact, rule_based=seed % 2 == 0,
                                       wide=seed % 4 < 2)
            assert (_outcome(_check(cid), make(), sched)
                    == _outcome(_FROZEN_SWEEPS[cid], make(), sched))


_ROWS_ONCE = [("row", n) for n in range(1, 257)]


@pytest.mark.parametrize("cid, reads_wanted", [
    ("C15", _ROWS_ONCE),
    ("C16", _ROWS_ONCE),
    # rows 9..16, 17..32, ... once each; then the 16 limit estimates of row 256
    ("C12", _ROWS_ONCE[8:] + [("row", 256)]),
])
def test_column_windows_read_each_row_once(monkeypatch, cid, reads_wanted):
    assert _cesaro_reads(monkeypatch, cid) == reads_wanted


def test_row_tails_read_rows_and_no_entry(monkeypatch):
    # C21 reads rows 1..s/2 from column s/2 + 1 on, one row read each, and
    # skips a row whose support ends by column s/2: a strict triangle has
    # only zeros there, so no row of it is read
    assert _cesaro_reads(monkeypatch, "C21") == []
    full = parse_matrix_spec("expr:1/(n+k)", full=True).operator.as_float()
    reads = _reads(monkeypatch, "C21", full)
    sizes = TruncationSchedule().sizes
    assert [read for read in reads if read[0] == "row"] == [
        ("row", n) for s in sizes for n in range(1, s // 2 + 1)]
    # a rule-based row reads its cells s/2 + 1..s entry by entry
    assert len(reads) == sum(s // 2 * (1 + s - s // 2) for s in sizes)


def _reads(monkeypatch, cid, A):
    """The ``entry`` and ``row`` reads of condition ``cid`` on ``A`` at the
    default schedule, as (method, row index) pairs."""
    reads = []
    entry, row = TriangleOperator.entry, TriangleOperator.row
    monkeypatch.setattr(TriangleOperator, "entry",
                        lambda self, n, k: reads.append(("entry", n)) or entry(self, n, k))
    monkeypatch.setattr(TriangleOperator, "row",
                        lambda self, n, upto, start=1:
                        reads.append(("row", n)) or row(self, n, upto, start))
    check_condition(cid, A, TruncationSchedule())
    return reads


def _cesaro_reads(monkeypatch, cid):
    return _reads(monkeypatch, cid, classical_matrix("cesaro").as_float())


def test_conditions_follow_a_sweep_that_reads_their_cells_first():
    # C11 reads every cell C12 reads, and C14 every cell C15/C16 read, row
    # by row; running first in every recipe, they meet any bad cell first,
    # so a command's first error does not depend on the windows' read order
    before = {classes.ConditionId.C12: classes.ConditionId.C11,
              classes.ConditionId.C15: classes.ConditionId.C14,
              classes.ConditionId.C16: classes.ConditionId.C14}
    checked = 0
    for table in classes._TABLES.values():
        for conditions in table.recipes.values():
            ids = [cid for cid, _ in conditions]
            for i, cid in enumerate(ids):
                if cid in before:
                    assert before[cid] in ids[:i], (table, ids)
                    checked += 1
    assert len(classes._TABLES) == 6 and checked == 11


@pytest.mark.parametrize("cid, spec, cell, old_cell", [
    ("C12", "expr:1/(((n-10)^2+(k-3)^2)*((n-12)^2+(k-1)^2))", "n=10, k=3", "n=12, k=1"),
    ("C15", "expr:1/(((n-3)^2+(k-2)^2)*((n-5)^2+(k-1)^2))", "n=3, k=2", "n=5, k=1"),
    ("C16", "expr:1/(((n-3)^2+(k-2)^2)*((n-5)^2+(k-1)^2))", "n=3, k=2", "n=5, k=1"),
])
def test_column_windows_alone_name_the_first_bad_row(cid, spec, cell, old_cell):
    # called on its own, a window condition meets the bad cell of the first
    # bad row, the frozen column-by-column form that of the first bad column;
    # in a recipe C11 or C14 runs first and names the same cell either way
    def make():
        return parse_matrix_spec(spec).operator

    sched = TruncationSchedule()
    assert _outcome(_check(cid), make(), sched)[1].endswith(cell)
    assert _outcome(_FROZEN_SWEEPS[cid], make(), sched)[1].endswith(old_cell)


# -- C11 reads each row only to its support

C11_MATRICES = {
    "euler:1/2": lambda: classical_matrix("euler", Fraction(1, 2)),
    "cesaro": lambda: classical_matrix("cesaro"),
    "reduce-source-int-bv(euler:1/3)": lambda: reduce_source_int_bv(
        classical_matrix("euler", Fraction(1, 3)), HARMONIC_WEIGHTS),
}


def _c11_matrix(name, mode):
    A = C11_MATRICES[name]()
    return A.as_float() if mode == "float" else A


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("name", list(C11_MATRICES))
def test_entry_sup_matches_the_square_read_loop(name, mode):
    for sched in (SCHED, SWEEP_SCHED):
        got = _outcome(_check("C11"), _c11_matrix(name, mode), sched)
        assert got == _outcome(_frozen_square_entry_sup, _c11_matrix(name, mode), sched)


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("name", list(C11_MATRICES))
def test_entry_sup_reads_no_cell_past_a_row_support(monkeypatch, name, mode):
    A = _c11_matrix(name, mode)
    reads = []
    row = TriangleOperator.row
    monkeypatch.setattr(TriangleOperator, "row",
                        lambda self, n, upto, start=1:
                        (self is A and reads.append((n, upto, start)))
                        or row(self, n, upto, start))
    check_condition("C11", A, SCHED)
    assert reads
    assert all(upto <= A.extent(n) for n, upto, _ in reads)
    # every cell within a row's support is still read, once
    cells = sorted((n, k) for n, upto, start in reads for k in range(start, upto + 1))
    assert cells == [(n, k) for n in range(1, SCHED.max_size + 1)
                     for k in range(1, min(A.extent(n), SCHED.max_size) + 1)]
