"""Matrix-class characterization: the condition battery, the table of
recipes, the source/target reductions, and the roundtrip identity.

A recipe reduces the question "does A map X into Y" to a finite list of
matrix conditions evaluated on a transformed matrix.  Classes out of l1
(or into it) check A itself; classes out of the integrated/differentiated
domain spaces conjugate A with the closed-form inverse of the defining
triangle on the source side, and classes into those spaces compose the
triangle on the target side.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from enum import Enum
from fractions import Fraction
from functools import reduce
from operator import add
from typing import Callable, NamedTuple, Optional, Sequence

from .core import (_VERDICT_RANK, ConditionVerdict, LazySequence, Scalar, SpaceTag,
                   StatKind, TruncationSchedule, Verdict, _growth_window, _to_float,
                   column_scan, combine_conjunctive, gray_subset_search, judge_trace)
from .duals import beta_dual_check, pairing_rows
from .errors import UnsupportedClassError, UnsupportedRowError
from .operators import (TriangleKind, TriangleOperator, WeightPair, classical_matrix,
                        differentiated_triangle, integrated_inverse, integrated_triangle,
                        matrix_product)
from .spaces import SpaceName


class ConditionId(Enum):
    C11 = "C11"  # uniform bound on entries
    C12 = "C12"  # column limits exist
    C13 = "C13"  # uniform bound on absolute column sums
    C14 = "C14"  # uniform bound on column prefix sums
    C15 = "C15"  # column sums converge
    C16 = "C16"  # column sums vanish
    C20 = "C20"  # uniform bound on rectangular subset sums
    C21 = "C21"  # rows vanish at infinity
    C22 = "C22"  # subset-sum bound on forward column differences
    C23 = "C23"  # subset-sum bound on backward column differences


class TransformTag(Enum):
    NONE = "none"
    REDUCE_SOURCE_INT_BV = "reduce-source-int-bv"
    REDUCE_SOURCE_D_BV = "reduce-source-d-bv"
    REDUCE_TARGET_INT_BV = "reduce-target-int-bv"
    REDUCE_TARGET_D_BV = "reduce-target-d-bv"


# ---------------------------------------------------------------------------
# Matrix reductions
# ---------------------------------------------------------------------------


def _reduce_source(A: TriangleOperator, wp: WeightPair, integrated: bool) -> TriangleOperator:
    """Conjugate ``A`` with the inverse triangle on the source side.

    Row n of the result is the beta-kernel construction ``pairing_rows``
    applied to row n of ``A``: entry (n,k) couples the lead term at k with
    the weighted tail sum over columns k+1..J of row n, J the row's support
    extent.  Every row is built on the one weight state that ``wp`` keeps
    (``WeightPair.pairing_weights``), so each weight term is computed once,
    whatever rows are asked for and in whatever order.  Row n reads A(n,1),
    then div_1 and d_1, then A(n,2..J), then the weights it adds: the order
    of the entry-wise formula.  ``A`` must be row-finite (strict, or
    with a declared support bound).
    """
    if A.row_support is None:
        raise UnsupportedRowError(
            f"source-side reduction needs a row-finite matrix; {A.label} has infinite rows")
    exact = A.exact and wp.exact
    zero: Scalar = Fraction(0) if exact else 0.0
    extent = A.row_support

    def build_row(n: int) -> list:
        return pairing_rows(lambda m, J: A.row(n, J, m), wp, integrated, zero)(extent(n))

    label = "reduce-source-int-bv" if integrated else "reduce-source-d-bv"
    return TriangleOperator(build_row=build_row, kind=TriangleKind.ROW_EVALUABLE,
                            row_support=extent, exact=exact,
                            label=f"{label}({A.label})")


def reduce_source_int_bv(A: TriangleOperator, wp: WeightPair) -> TriangleOperator:
    return _reduce_source(A, wp, integrated=True)


def reduce_source_d_bv(A: TriangleOperator, wp: WeightPair) -> TriangleOperator:
    return _reduce_source(A, wp, integrated=False)


def _compose(G: TriangleOperator, A: TriangleOperator, label: str,
             row_bound: Optional[int] = None) -> TriangleOperator:
    """G A on the target side: the declared rows of G (``MeanRows.product``)
    for a strict A, else ``matrix_product`` with G's rows cut at ``row_bound``."""
    if G.mean is not None and A.kind is TriangleKind.STRICT_TRIANGLE:
        return G.mean.product(A, G.exact and A.exact, label)
    return matrix_product(G, A, left_row_bound=row_bound, label=label)


def reduce_target_int_bv(A: TriangleOperator, wp: WeightPair) -> TriangleOperator:
    """Compose the integrated triangle on the target side (product T A)."""
    return _compose(integrated_triangle(wp), A, f"reduce-target-int-bv({A.label})")


def reduce_target_d_bv(A: TriangleOperator, wp: WeightPair) -> TriangleOperator:
    """Compose the differentiated triangle on the target side (product T A)."""
    return _compose(differentiated_triangle(wp), A, f"reduce-target-d-bv({A.label})")


# ---------------------------------------------------------------------------
# Condition battery
# ---------------------------------------------------------------------------


def _scan_scale(values, best: float = 1.0) -> float:
    """The running judging scale: ``best`` raised to the largest ``|v|``
    among ``values`` (NaN never raises it)."""
    for v in values:
        f = abs(_to_float(v))
        if f > best:
            best = f
    return best


def _verdict(label: str, trace, kind: StatKind, sched: TruncationSchedule, *,
             witness=None, limit_estimates=None, **judge) -> ConditionVerdict:
    """Judge a condition's trace and wrap it with its label and routes."""
    status, routes = judge_trace([v for _, v in trace], kind, sched, **judge)
    return ConditionVerdict(status, trace, witness=witness,
                            limit_estimates=limit_estimates,
                            aux={"condition": label, "routes": routes})


def _check_columns(A, sched, label: str, *, absolute: bool) -> ConditionVerdict:
    trace, col = column_scan(A, sched, absolute=absolute)
    return _verdict(label, trace, StatKind.SUP, sched, witness={"col": col})


_CHECKS = {
    ConditionId.C11: lambda A, sched, zl: _check_entry_sup(A, sched),
    ConditionId.C12: lambda A, sched, zl: _check_column_limits(A, sched, zero_limit=zl),
    ConditionId.C13: lambda A, sched, zl: _check_columns(A, sched, "C13", absolute=True),
    ConditionId.C14: lambda A, sched, zl: _check_columns(A, sched, "C14", absolute=False),
    ConditionId.C15: lambda A, sched, zl: _check_column_sum_convergence(A, sched, to_zero=False),
    ConditionId.C16: lambda A, sched, zl: _check_column_sum_convergence(A, sched, to_zero=True),
    ConditionId.C20: lambda A, sched, zl: _check_subset_sums(A, sched, difference=0),
    ConditionId.C21: lambda A, sched, zl: _check_row_tails(A, sched),
    ConditionId.C22: lambda A, sched, zl: _check_subset_sums(A, sched, difference=+1),
    ConditionId.C23: lambda A, sched, zl: _check_subset_sums(A, sched, difference=-1),
}


def check_condition(cid, A: TriangleOperator, sched: TruncationSchedule, *,
                    zero_limit: bool = False) -> ConditionVerdict:
    """Evaluate one battery condition on square truncations of ``A``."""
    return _CHECKS[ConditionId(cid)](A, sched, zero_limit)


def _check_entry_sup(A, sched) -> ConditionVerdict:
    # each row is read only to its support: a zero past it never beats best
    trace = []
    best = A.zero()
    witness = {"row": 1, "col": 1}
    prev = 0
    for s in sched.sizes:
        for n in range(1, s + 1):
            lo = prev + 1 if n <= prev else 1
            for k, x in enumerate(A.row(n, min(s, A.extent(n, s)), lo), lo):
                v = abs(x)
                if v > best:
                    best = v
                    witness = {"row": n, "col": k}
        trace.append((s, best))
        prev = s
    return _verdict("C11", trace, StatKind.SUP, sched, witness=witness)


def _window_defects(A, sched, *, partial_sums: bool, to_zero: bool):
    """Per size s, the largest oscillation along column k over the window
    rows s//2+1..s, taken over the columns k <= max(1, s//2), and with
    ``to_zero`` of the magnitude of column k's value in row s.  The values
    are the entries A(n, k), or with ``partial_sums`` the column sums
    A.zero() + A(1, k) + ... + A(n, k), added in that order.

    One pass reads the rows in ascending order, each once with ``A.row``:
    with ``partial_sums`` every row up to max(1, max size // 2), else each
    window row up to the widest column range among the sizes whose window
    holds it, the cells a column-by-column reading of the windows reads.
    Each open size keeps the running max and min of its columns, updated
    as builtin ``max``/``min`` compare a list (so NaN stays where it
    would), and judges its columns in ascending order when its window
    closes.  Returns the trace and the judging scale, which takes every
    window value.
    """
    sizes = sched.sizes
    zero = A.zero()
    width = max(1, sched.max_size // 2)
    sums = [zero] * width
    spans: dict[int, list] = {}  # open size -> [max, min, last] per column
    trace = []
    scale = 1.0
    for n in range(1, sched.max_size + 1):
        held = [s for s in sizes if s // 2 < n <= s]
        upto = max((max(1, s // 2) for s in held), default=0)
        if partial_sums:
            sums = [p + v for p, v in zip(sums, A.row(n, width))]
            vals = sums[:upto]
        elif held:
            vals = A.row(n, upto)
        else:
            continue
        scale = _scan_scale(vals, scale)
        for s in held:
            cur = vals[:max(1, s // 2)]
            span = spans.get(s)
            if span is None:
                spans[s] = [cur, cur, cur]
            else:
                span[0] = [v if v > m else m for v, m in zip(cur, span[0])]
                span[1] = [v if v < m else m for v, m in zip(cur, span[1])]
                span[2] = cur
        span = spans.pop(n, None)
        if span is not None:
            defect = zero
            for hi, lo, last in zip(*span):
                osc = hi - lo
                if osc > defect:
                    defect = osc
                if to_zero:
                    mag = abs(last)
                    if mag > defect:
                        defect = mag
            trace.append((n, defect))
    return trace, scale


def _check_column_limits(A, sched, *, zero_limit: bool) -> ConditionVerdict:
    trace, scale = _window_defects(A, sched, partial_sums=False, to_zero=zero_limit)
    s_max = sched.max_size
    estimates = dict(enumerate(A.row(s_max, min(16, s_max // 2)), 1))
    return _verdict("C12(limit=0)" if zero_limit else "C12", trace, StatKind.DEFECT,
                    sched, limit_estimates=estimates, scale=scale)


def _check_column_sum_convergence(A, sched, *, to_zero: bool) -> ConditionVerdict:
    trace, scale = _window_defects(A, sched, partial_sums=True, to_zero=to_zero)
    return _verdict("C16" if to_zero else "C15", trace, StatKind.DEFECT, sched,
                    scale=scale, require_exact_zero=to_zero and A.exact)


def _check_row_tails(A, sched) -> ConditionVerdict:
    trace = []
    scale = 1.0
    witness = None
    for s in sched.sizes:
        half = s // 2
        defect = A.zero()
        for n in range(1, max(1, half) + 1):
            if A.extent(n, s) <= half:
                continue  # its cells past column s/2 are zeros
            vals = [abs(v) for v in A.row(n, s, half + 1)]
            scale = _scan_scale(vals, scale)
            for k, v in enumerate(vals, half + 1):
                if v > defect:
                    defect = v
                    witness = {"row": n, "col": k}
        trace.append((s, defect))
    return _verdict("C21", trace, StatKind.DEFECT, sched, witness=witness, scale=scale)


def _check_subset_sums(A, sched, *, difference: int) -> ConditionVerdict:
    """Certified interval for the rectangular-subset-sum supremum.

    Upper bound: the absolute entry sum over the truncation (valid for any
    subset pair).  Lower bound: explicit witnesses from an exhaustive scan
    of subsets drawn from the first 12 rows/columns plus a greedy
    sign-selection pass over the full truncation.  HOLDS requires the upper
    bound to stabilize; divergence evidence requires the lower bound to
    grow through a growth window.

    Each size reads every row once with ``A.row`` (C22 one column further),
    from the first column not read at an earlier size (C23 one column
    before it), and on a strict triangle only up to the row's last nonzero
    cell.
    """
    zero = A.zero()
    if difference == 0:
        def cells(n: int, lo: int, s: int) -> list:
            return A.row(n, s, lo)
        label = "C20"
    elif difference > 0:
        def cells(n: int, lo: int, s: int) -> list:
            r = A.row(n, s + 1, lo)
            return [x - y for x, y in zip(r, r[1:])]
        label = "C22"
    else:
        def cells(n: int, lo: int, s: int) -> list:
            r = A.row(n, s, lo - 1) if lo > 1 else [zero] + A.row(n, s)
            return [x - y for x, y in zip(r[1:], r)]
        label = "C23"

    # fb[n][k] is float(cell (n, k)), in one array('d') per row: 8 bytes a
    # cell, where a list would keep a float object for each.  On a strict
    # triangle row n holds columns 0..n (C23 0..n+1, as A(n, n+1) - A(n, n)
    # is not zero): the cells past them are exact zeros, which the readers
    # take as 0.0 without keeping them.  The list of rows comes first, so a
    # max size past the address space fails before any row is made
    n_max = sched.max_size
    pad = 1 if difference < 0 else 0
    strict = A.kind is TriangleKind.STRICT_TRIANGLE
    fb = [array("d")] * (n_max + 1)
    for n in range(1, n_max + 1):
        fb[n] = array("d", [0.0]) * ((min(n + pad, n_max) if strict else n_max) + 1)
    upper_acc = zero
    prev = 0
    upper_trace: list[tuple[int, Scalar]] = []
    lower_vals: list[float] = []
    witness = None
    # the first 12 rows and columns of fb are final once a size reaches 12,
    # so the exhaustive search reruns only while its depth grows
    depth, exhaustive = 0, None

    for s in sched.sizes:
        for n in range(1, s + 1):
            lo = prev + 1 if n <= prev else 1
            hi = min(len(fb[n]) - 1, s)
            if lo > hi:
                continue  # an old row of a strict triangle: its new cells are zeros
            vals = cells(n, lo, hi)
            # cells gives hi - lo + 1 values (C22 and C23 difference hi - lo + 2
            # cells of A.row, C23 with a zero before column 1), so the slice
            # assignment keeps the row's length
            upper_acc = reduce(add, map(abs, vals), upper_acc)
            fb[n][lo:hi + 1] = array("d", map(_to_float, vals) if A.exact else vals)
        prev = s
        upper_trace.append((s, upper_acc))

        if min(12, s) != depth:
            depth = min(12, s)
            exhaustive = _exhaustive_rect(fb, depth)
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


def _row_signs(rowsum: list[float]) -> tuple[float, float]:
    """The best |sum| over a subset of the row sums, and its sign: the
    positive rows when their sum outweighs the rest, else the rest.  Rows
    are added in ascending order."""
    pos = neg = 0.0
    for v in rowsum:
        if v > 0.0:
            pos += v
        else:
            neg += v
    return (pos, 1.0) if pos >= -neg else (-neg, -1.0)


def _signed_rows(rowsum: list[float]) -> list[int]:
    sign = _row_signs(rowsum)[1]
    return [n for n, v in enumerate(rowsum, 1) if sign * v > 0.0]


def _exhaustive_rect(fb, depth: int) -> tuple[float, dict]:
    """Best |sum over N x K| with N, K subsets of the first ``depth``
    indices: exhaustive over column subsets (Gray code), closed-form
    optimal row subset for each.  A cell past its row's end is 0.0."""
    fb_rows = fb[1:depth + 1]
    columns = [[row[k] if k < len(row) else 0.0 for row in fb_rows]
               for k in range(1, depth + 1)]
    best, cols, rows = gray_subset_search(columns, 0.0, lambda acc: _row_signs(acc)[0],
                                          _signed_rows)
    return best, {"rows": rows or [], "cols": cols, "method": "exhaustive-12"}


def _greedy_rect(fb, s: int) -> tuple[float, dict]:
    """Greedy sign-selection over all columns of the truncation: keep a
    column when it improves the row-optimized objective.

    Row widths never decrease, so the rows that reach column k are a
    suffix, rows i + 1..s; the rows before it would add 0.0 to a row sum,
    which starts at 0.0 and so is never -0.0: they keep theirs as it is."""
    fb_rows = fb[1:s + 1]
    ends = [len(row) for row in fb_rows]
    rowsum = [0.0] * s
    chosen: list[int] = []
    best = 0.0
    for k in range(1, s + 1):
        i = bisect_right(ends, k)
        candidate = rowsum[:i] + [r + row[k] for r, row in zip(rowsum[i:], fb_rows[i:])]
        value = _row_signs(candidate)[0]
        if value > best:
            best = value
            chosen.append(k)
            rowsum = candidate
    return best, {"rows": _signed_rows(rowsum)[:24], "cols": chosen[:24], "method": "greedy"}


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


_L1_TARGET_RECIPES = {
    SpaceTag.LINF: [(ConditionId.C11, False)],
    SpaceTag.C: [(ConditionId.C11, False), (ConditionId.C12, False)],
    SpaceTag.L1: [(ConditionId.C13, False)],
    SpaceTag.BS: [(ConditionId.C14, False)],
    SpaceTag.CS: [(ConditionId.C14, False), (ConditionId.C15, False)],
    SpaceTag.C0S: [(ConditionId.C14, False), (ConditionId.C16, False)],
}

_DOMAIN_TARGET_RECIPES = {
    SpaceTag.LINF: [(ConditionId.C11, False)],
    SpaceTag.C: [(ConditionId.C11, False), (ConditionId.C12, False)],
    SpaceTag.C0: [(ConditionId.C11, False), (ConditionId.C12, True)],
    SpaceTag.BS: [(ConditionId.C14, False)],
    SpaceTag.CS: [(ConditionId.C14, False), (ConditionId.C15, False)],
    SpaceTag.C0S: [(ConditionId.C14, False), (ConditionId.C16, False)],
}

_INTO_L1_RECIPES = {
    SpaceTag.LINF: [(ConditionId.C20, False)],
    SpaceTag.C: [(ConditionId.C20, False)],
    SpaceTag.C0: [(ConditionId.C20, False)],
    SpaceTag.BS: [(ConditionId.C21, False), (ConditionId.C22, False)],
    SpaceTag.CS: [(ConditionId.C23, False)],
    SpaceTag.C0S: [(ConditionId.C22, False)],
}


class _Table(NamedTuple):
    """One of the paper's six tables: it fixes one endpoint of the class
    (``side`` "out of" fixes the source, "into" the target), reduces the
    matrix with ``reduce`` and lists the conditions per free endpoint."""

    side: str
    endpoint: str
    transform: TransformTag
    reduce: Callable[[TriangleOperator, WeightPair], TriangleOperator]
    recipes: dict

    def split(self, src: str, tgt: str) -> tuple[str, str]:
        """The (fixed, free) endpoint names of the class (src : tgt)."""
        return (src, tgt) if self.side == "out of" else (tgt, src)


def _unreduced(A: TriangleOperator, wp) -> TriangleOperator:
    return A


# in the order of precedence of an inferred table: the source decides first
_TABLES = {
    1: _Table("out of", "l1", TransformTag.NONE, _unreduced, _L1_TARGET_RECIPES),
    3: _Table("out of", "int-bv", TransformTag.REDUCE_SOURCE_INT_BV, reduce_source_int_bv,
              _DOMAIN_TARGET_RECIPES),
    4: _Table("out of", "d-bv", TransformTag.REDUCE_SOURCE_D_BV, reduce_source_d_bv,
              _DOMAIN_TARGET_RECIPES),
    2: _Table("into", "l1", TransformTag.NONE, _unreduced, _INTO_L1_RECIPES),
    5: _Table("into", "int-bv", TransformTag.REDUCE_TARGET_INT_BV, reduce_target_int_bv,
              _INTO_L1_RECIPES),
    6: _Table("into", "d-bv", TransformTag.REDUCE_TARGET_D_BV, reduce_target_d_bv,
              _INTO_L1_RECIPES),
}

# the table out of each domain space; a class out of one also needs the rows
# of its matrix in the beta dual, and a composite target takes that table
_DOMAIN_SOURCE_TABLES = {entry.endpoint: number for number, entry in _TABLES.items()
                         if entry.side == "out of" and entry.transform is not TransformTag.NONE}


class Recipe(NamedTuple):
    table: int
    transform: TransformTag
    conditions: tuple[tuple[ConditionId, bool], ...]


def table_recipe(table: int, source, target) -> Recipe:
    """The transform tag and condition list for a (source, target) pair of
    the numbered recipe table; raises UnsupportedClassError otherwise."""
    src = _endpoint_name(source)
    tgt = _endpoint_name(target)
    entry = _TABLES.get(table)
    if entry is None:
        raise UnsupportedClassError(src, tgt, f"unknown table {table}")
    fixed, free = entry.split(src, tgt)
    if fixed != entry.endpoint:
        raise UnsupportedClassError(
            src, tgt, f"table {table} characterizes classes {entry.side} {entry.endpoint}")
    conditions = entry.recipes.get(_as_tag(free))
    if conditions is None:
        raise UnsupportedClassError(src, tgt, f"not covered by table {table}")
    return Recipe(table, entry.transform, tuple(conditions))


def _endpoint_name(endpoint) -> str:
    if isinstance(endpoint, (SpaceTag, SpaceName)):
        return endpoint.value
    return str(endpoint).lower()


def _as_tag(name: str) -> Optional[SpaceTag]:
    try:
        return SpaceTag(name)
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# Composite targets (bounded domains of classical matrices)
# ---------------------------------------------------------------------------


class CompositeTarget(NamedTuple):
    """The bounded-domain space of a classical matrix as a target: membership
    is checked by composing the generator on the target side and asking for
    boundedness."""

    family: str  # a MATRIX_FAMILIES name whose family is ``composite``
    param: object = None

    def describe(self) -> str:
        if self.param is None:
            return f"{self.family}-bounded"
        if isinstance(self.param, LazySequence):
            return f"{self.family}({self.param.label})-bounded"
        return f"{self.family}({self.param})-bounded"

    def generator(self) -> TriangleOperator:
        return classical_matrix(self.family, self.param)


# ---------------------------------------------------------------------------
# Reports and the characterization driver
# ---------------------------------------------------------------------------


class ClassReport(NamedTuple):
    source: str
    target: str
    table: int
    transform: TransformTag
    conditions: list[tuple[ConditionId, bool, ConditionVerdict]]
    overall: Verdict
    beta_prerequisite: Optional[ConditionVerdict] = None
    notes: Sequence[str] = ()
    # the matrix the conditions ran on; not part of the rendered report
    condition_matrix: Optional[TriangleOperator] = None

    def to_dict(self) -> dict:
        conds = []
        for cid, zl, verdict in self.conditions:
            entry = {"condition": cid.value, "verdict": verdict.to_dict()}
            if zl:
                entry["zero_limit"] = True
            conds.append(entry)
        doc = {
            "source": self.source,
            "target": self.target,
            "table": self.table,
            "transform": self.transform.value,
            "conditions": conds,
            "overall_status": self.overall.value,
        }
        if self.beta_prerequisite is not None:
            doc["beta_prerequisite"] = self.beta_prerequisite.to_dict()
        if self.notes:
            doc["notes"] = list(self.notes)
        return doc


def _beta_prerequisite(A: TriangleOperator, wp: WeightPair, space: SpaceName,
                       sched: TruncationSchedule, row_limit: int) -> ConditionVerdict:
    """Aggregate beta-dual membership of the first rows of ``A``.

    Row n is read once, to its declared support J (``A`` is row-finite, or
    its source reduction would have been refused).  A row's statistic only
    settles past J (rows of upper matrices carry their mass well beyond the
    row index), so the schedule is extended by doublings until its last two
    sizes clear J — otherwise the accumulation phase reads as spurious
    growth.  The beta statistic keeps no kernel state past a finite
    support, so extending the schedule past it costs only the reads of the
    terms and weights there, one of each per index.
    """
    rows = min(row_limit, sched.max_size)
    statuses = {}
    worst: Optional[ConditionVerdict] = None  # the first row of the worst status
    worst_row = 1
    for n in range(1, rows + 1):
        J = A.extent(n)
        row_sched = sched
        while row_sched.sizes[-2] < J:
            row_sched = row_sched.doubled()
        seq = LazySequence.from_terms(A.row(n, J), exact=A.exact)
        verdict = beta_dual_check(space, seq, wp, row_sched)
        statuses[n] = verdict.status
        if worst is None or _VERDICT_RANK[verdict.status] < _VERDICT_RANK[worst.status]:
            worst = verdict
            worst_row = n
    return ConditionVerdict(
        status=worst.status,
        trace=worst.trace,
        witness={"row": worst_row},
        aux={
            "check": "rows-in-beta-dual",
            "rows_checked": rows,
            "statuses": {str(n): s.value for n, s in statuses.items()},
        },
    )


def characterize(A: TriangleOperator, source, target, wp: Optional[WeightPair] = None,
                 sched: Optional[TruncationSchedule] = None, *,
                 table: Optional[int] = None,
                 row_bound: Optional[int] = None,
                 beta_row_limit: int = 32) -> ClassReport:
    """Run the recipe for the class (source : target) on ``A``.

    Sources/targets may be classical tags ('l1', 'linf', 'c', 'c0', 'bs',
    'cs', 'c0s'), the domain spaces ('int-bv', 'd-bv'), or a
    CompositeTarget; domain endpoints need ``wp``.  ``table`` forces a
    specific recipe table instead of inferring one from the endpoints.

    A composite target composes its generator G with ``A`` as tables 5 and 6
    compose theirs (``_compose``; Taylor generators need ``row_bound``, which
    no other target accepts; a float ``A`` meets the float rows of G) and
    asks whether G A maps the domain source into linf, under the table out
    of that source.  Every class then runs one sequence: the recipe, the
    reduction, the battery and, out of a domain space, the beta prerequisite
    on the rows of the (composed) matrix.
    """
    if sched is None:
        sched = TruncationSchedule()
    if beta_row_limit < 1:
        raise ValueError(f"the beta row limit must be at least 1, got {beta_row_limit}")
    if row_bound is not None and not isinstance(target, CompositeTarget):
        raise ValueError("a row bound applies only to composite targets")
    src = _endpoint_name(source)
    notes: list[str] = []

    if isinstance(target, CompositeTarget):
        tgt_name = target.describe()
        chosen = _DOMAIN_SOURCE_TABLES.get(src)
        if chosen is None:
            raise UnsupportedClassError(src, tgt_name,
                                        "composite targets need a domain-space source")
        if table is not None and table != chosen:
            raise UnsupportedClassError(src, tgt_name, "composite targets fix their own table")
        if wp is None:
            raise UnsupportedClassError(src, tgt_name, "weights required")
        G = target.generator()
        if G.kind is TriangleKind.ROW_EVALUABLE and row_bound is None:
            raise UnsupportedRowError(
                "this composite generator has infinite rows; pass an explicit row bound")
        if not A.exact:
            # its float rows hold the bits the product would round each
            # exact entry to
            G = G.as_float()
        A = _compose(G, A, f"{G.label}*{A.label}", row_bound)
        free = SpaceTag.LINF
        notes.append("composite target: generator composed on the target side, "
                     "then the bounded-target recipe applied")
        if G.kind is TriangleKind.ROW_EVALUABLE:
            notes.append(f"generator rows truncated at {row_bound}")
    else:
        tgt_name = free = _endpoint_name(target)
        chosen = table if table is not None else _pick_table(src, tgt_name)

    recipe = table_recipe(chosen, src, free)
    if recipe.transform is not TransformTag.NONE and wp is None:
        raise UnsupportedClassError(src, tgt_name, "weights required")
    matrix_for_conditions = _TABLES[chosen].reduce(A, wp)
    results = [(cid, zl, check_condition(cid, matrix_for_conditions, sched, zero_limit=zl))
               for cid, zl in recipe.conditions]

    prerequisite = None
    statuses = [v.status for _, _, v in results]
    if src in _DOMAIN_SOURCE_TABLES:
        prerequisite = _beta_prerequisite(A, wp, SpaceName(src), sched, beta_row_limit)
        statuses.append(prerequisite.status)
        notes.append("rows of the source-side matrix must lie in the beta dual; "
                     "checked row-by-row and aggregated")

    overall = combine_conjunctive(statuses)
    return ClassReport(source=src, target=tgt_name, table=recipe.table,
                       transform=recipe.transform, conditions=results,
                       overall=overall, beta_prerequisite=prerequisite, notes=notes,
                       condition_matrix=matrix_for_conditions)


def _pick_table(src: str, tgt: str) -> int:
    """The first table, in ``_TABLES`` order, whose fixed endpoint the pair has."""
    for number, entry in _TABLES.items():
        if entry.split(src, tgt)[0] == entry.endpoint:
            return number
    raise UnsupportedClassError(src, tgt, "no table covers this pair")


# ---------------------------------------------------------------------------
# Reduction roundtrip
# ---------------------------------------------------------------------------


def reduction_roundtrip_sides(B: TriangleOperator, wp: WeightPair,
                              y: LazySequence) -> Callable[[int], tuple[Scalar, Scalar]]:
    """Rebuild A = B T from a row-finite B (T the integrated triangle) and
    compare, row by row, (A x)_n against (B y)_n for x the embedded inverse
    image of y: ``sides(n)`` gives both.

    The rebuilt entries are a_nk = k (w_k - w_{k+1}) sum_{j>k} u_j b_nj
    + k u_k w_k b_nk, i.e. the matrix product with the triangle taken
    column-wise; the two sides must agree exactly in exact mode.  The
    inverse image and the column factors k (w_k - w_{k+1}) and k u_k w_k
    are built once, in ascending k, and shared by all rows; each row reads
    its entries as a fresh evaluation would (the suffix sums descending,
    then the columns ascending), so its value and its first error do not
    depend on earlier rows.
    """
    if B.row_support is None:
        raise UnsupportedRowError("reduction roundtrips need a row-finite matrix")
    exact = B.exact and wp.exact and y.exact
    zero: Scalar = Fraction(0) if exact else 0.0
    x = integrated_inverse(wp, y)
    factors: list = [None]  # factors[k] = (k (w_k - w_{k+1}), k u_k w_k)

    def sides(n: int) -> tuple[Scalar, Scalar]:
        J = B.row_support(n)
        suffix = [zero] * (J + 2)
        for k in range(J, 0, -1):
            suffix[k] = suffix[k + 1] + wp.u_at(k) * B.entry(n, k)
        lhs = zero
        for k in range(1, J + 1):
            if len(factors) == k:
                factors.append((k * wp.w_forward_diff(k), k * wp.u_at(k) * wp.w_at(k)))
            diff, diag = factors[k]
            a_nk = diff * suffix[k + 1] + diag * B.entry(n, k)
            lhs += a_nk * x.at(k)
        rhs = zero
        for k in range(1, J + 1):
            rhs += B.entry(n, k) * y.at(k)
        return lhs, rhs

    return sides


def verify_reduction_roundtrip(B: TriangleOperator, wp: WeightPair,
                               y: LazySequence, n: int) -> tuple[Scalar, Scalar]:
    """Both sides of the reduction roundtrip at row ``n``; see
    ``reduction_roundtrip_sides``."""
    return reduction_roundtrip_sides(B, wp, y)(n)
