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

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from operator import add
from typing import Callable, NamedTuple, Optional

from .core import (_VERDICT_RANK, ConditionVerdict, LazySequence, Scalar, SpaceTag,
                   StatKind, TruncationSchedule, Verdict, _growth_window, _to_float,
                   column_scan, combine_conjunctive, gray_subset_search, judge_trace)
from .duals import beta_dual_check, pairing_rows
from .errors import UnsupportedClassError, UnsupportedRowError
from .operators import (TriangleKind, TriangleOperator, WeightPair,
                        classical_matrix, differentiated_triangle,
                        integrated_inverse, integrated_triangle, matrix_product)
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
    extent.  ``A`` must be row-finite (strict, or with a declared support
    bound).
    """
    if A.row_support is None:
        raise UnsupportedRowError(
            "source-side reduction needs a row-finite matrix; "
            "compose with an explicit row bound first")
    exact = A.exact and wp.exact
    zero: Scalar = Fraction(0) if exact else 0.0
    extent = A.row_support

    def build_row(n: int) -> list:
        return pairing_rows(lambda j: A.entry(n, j), wp, integrated, zero)(extent(n))

    label = "reduce-source-int-bv" if integrated else "reduce-source-d-bv"
    return TriangleOperator(build_row=build_row, kind=TriangleKind.ROW_EVALUABLE,
                            row_support=extent, exact=exact,
                            label=f"{label}({A.label})")


def reduce_source_int_bv(A: TriangleOperator, wp: WeightPair) -> TriangleOperator:
    return _reduce_source(A, wp, integrated=True)


def reduce_source_d_bv(A: TriangleOperator, wp: WeightPair) -> TriangleOperator:
    return _reduce_source(A, wp, integrated=False)


def reduce_target_int_bv(A: TriangleOperator, wp: WeightPair) -> TriangleOperator:
    """Compose the integrated triangle on the target side (product T A)."""
    return matrix_product(integrated_triangle(wp), A,
                          label=f"reduce-target-int-bv({A.label})")


def reduce_target_d_bv(A: TriangleOperator, wp: WeightPair) -> TriangleOperator:
    return matrix_product(differentiated_triangle(wp), A,
                          label=f"reduce-target-d-bv({A.label})")


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
    trace = []
    best = A.zero()
    witness = {"row": 1, "col": 1}
    prev = 0
    for s in sched.sizes:
        for n in range(1, s + 1):
            lo = prev + 1 if n <= prev else 1
            for k, x in enumerate(A.row(n, s)[lo - 1:], lo):
                v = abs(x)
                if v > best:
                    best = v
                    witness = {"row": n, "col": k}
        trace.append((s, best))
        prev = s
    return _verdict("C11", trace, StatKind.SUP, sched, witness=witness)


def _window_defects(A, sched, window, *, to_zero: bool):
    """Per size s, the largest oscillation of ``window(k, s)`` (values along
    column k in rows s//2+1..s) over the columns k <= max(1, s//2), and with
    ``to_zero`` of the magnitude of its last value.  Returns the trace and
    the judging scale."""
    trace = []
    scale = 1.0
    for s in sched.sizes:
        defect = A.zero()
        for k in range(1, max(1, s // 2) + 1):
            vals = window(k, s)
            scale = _scan_scale(vals, scale)
            osc = max(vals) - min(vals)
            if osc > defect:
                defect = osc
            if to_zero:
                mag = abs(vals[-1])
                if mag > defect:
                    defect = mag
        trace.append((s, defect))
    return trace, scale


def _check_column_limits(A, sched, *, zero_limit: bool) -> ConditionVerdict:
    def entries(k: int, s: int) -> list:
        return [A.entry(n, k) for n in range(s // 2 + 1, s + 1)]

    trace, scale = _window_defects(A, sched, entries, to_zero=zero_limit)
    s_max = sched.max_size
    estimates = {k: A.entry(s_max, k) for k in range(1, min(16, s_max // 2) + 1)}
    return _verdict("C12(limit=0)" if zero_limit else "C12", trace, StatKind.DEFECT,
                    sched, limit_estimates=estimates, scale=scale)


def _check_column_sum_convergence(A, sched, *, to_zero: bool) -> ConditionVerdict:
    def partial_sums(k: int, s: int) -> list:
        column = (A.entry(n, k) for n in range(1, s + 1))
        return list(accumulate(column, initial=A.zero()))[s // 2 + 1:]

    trace, scale = _window_defects(A, sched, partial_sums, to_zero=to_zero)
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
            vals = [abs(A.entry(n, k)) for k in range(half + 1, s + 1)]
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

    Each size reads every row once with ``A.row`` (C22 one column further)
    and takes its cells from the first column not read at an earlier size.
    """
    zero = A.zero()
    if difference == 0:
        def cells(n: int, lo: int, s: int) -> list:
            return A.row(n, s)[lo - 1:]
        label = "C20"
    elif difference > 0:
        def cells(n: int, lo: int, s: int) -> list:
            r = A.row(n, s + 1)
            return [x - y for x, y in zip(r[lo - 1:], r[lo:])]
        label = "C22"
    else:
        def cells(n: int, lo: int, s: int) -> list:
            r = [zero] + A.row(n, s)
            return [x - y for x, y in zip(r[lo:], r[lo - 1:])]
        label = "C23"

    n_max = sched.max_size
    fb = [[0.0] * (n_max + 1)]
    fb.extend([0.0] * (n_max + 1) for _ in range(n_max))
    upper_acc = zero
    prev = 0
    upper_trace: list[tuple[int, Scalar]] = []
    lower_vals: list[float] = []
    witness = None

    for s in sched.sizes:
        for n in range(1, s + 1):
            lo = prev + 1 if n <= prev else 1
            fb_n = fb[n]
            for k, v in enumerate(cells(n, lo, s), lo):
                upper_acc = upper_acc + abs(v)
                fb_n[k] = _to_float(v)
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
    optimal row subset for each."""
    columns = [[fb[n][k] for n in range(1, depth + 1)] for k in range(1, depth + 1)]
    best, cols, rows = gray_subset_search(columns, 0.0, lambda acc: _row_signs(acc)[0],
                                          _signed_rows)
    return best, {"rows": rows or [], "cols": cols, "method": "exhaustive-12"}


def _greedy_rect(fb, s: int) -> tuple[float, dict]:
    """Greedy sign-selection over all columns of the truncation: keep a
    column when it improves the row-optimized objective."""
    fb_rows = fb[1:s + 1]
    rowsum = [0.0] * s
    chosen: list[int] = []
    best = 0.0
    for k in range(1, s + 1):
        candidate = [r + row[k] for r, row in zip(rowsum, fb_rows)]
        value = _row_signs(candidate)[0]
        if value > best:
            best = value
            chosen.append(k)
            rowsum = candidate
    pos_rows = [n for n, v in enumerate(rowsum, 1) if v > 0.0]
    neg_rows = [n for n, v in enumerate(rowsum, 1) if v < 0.0]
    pos = reduce(add, (rowsum[n - 1] for n in pos_rows), 0.0)
    neg = -reduce(add, (rowsum[n - 1] for n in neg_rows), 0.0)
    rows = pos_rows if pos >= neg else neg_rows
    return best, {"rows": rows[:24], "cols": chosen[:24], "method": "greedy"}


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


@dataclass(frozen=True)
class Recipe:
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
    if isinstance(endpoint, CompositeTarget):
        return endpoint.describe()
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


@dataclass(frozen=True)
class CompositeTarget:
    """The bounded-domain space of a classical matrix as a target: membership
    is checked by composing the generator on the target side and asking for
    boundedness."""

    family: str  # a MATRIX_FAMILIES name: euler | riesz | cesaro | taylor
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


@dataclass
class ClassReport:
    source: str
    target: str
    table: int
    transform: TransformTag
    conditions: list[tuple[ConditionId, bool, ConditionVerdict]]
    overall: Verdict
    beta_prerequisite: Optional[ConditionVerdict] = None
    notes: list[str] = field(default_factory=list)
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

    A row's statistic only settles past the row's support (rows of upper
    matrices carry their mass well beyond the row index), so the schedule
    is extended by doublings until its last two sizes clear that bound —
    otherwise the accumulation phase reads as spurious growth.  The beta
    statistic builds no kernel row past a finite support, so extending the
    schedule past it costs only the walk of the statistic's weight state.
    """
    rows = min(row_limit, sched.max_size)
    statuses = {}
    worst: Optional[ConditionVerdict] = None
    worst_row = 1
    for n in range(1, rows + 1):
        seq = A.row_sequence(n)
        settle = seq.support if seq.support is not None else 4 * n
        row_sched = sched
        while row_sched.sizes[-2] < settle:
            row_sched = row_sched.doubled()
        verdict = beta_dual_check(space, seq, wp, row_sched)
        statuses[n] = verdict.status
        if worst is None or _VERDICT_RANK[verdict.status] < _VERDICT_RANK[worst.status]:
            worst = verdict
            worst_row = n
    combined = combine_conjunctive(statuses.values())
    return ConditionVerdict(
        status=combined,
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
    CompositeTarget; domain endpoints need ``wp``.  Composite targets
    compose their generator with ``A`` first (Taylor generators need
    ``row_bound``, which no other target accepts) and then run the
    bounded-target recipe out of the domain source.  ``table`` forces a specific recipe table instead of
    inferring one from the endpoints.
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
        # a bounded target out of a domain space: table 3 or 4
        if src not in ("int-bv", "d-bv"):
            raise UnsupportedClassError(src, target.describe(),
                                        "composite targets need a domain-space source")
        chosen = 3 if src == "int-bv" else 4
        if table is not None and table != chosen:
            raise UnsupportedClassError(src, target.describe(),
                                        "composite targets fix their own table")
        if wp is None:
            raise UnsupportedClassError(src, target.describe(), "weights required")
        G = target.generator()
        if G.kind is TriangleKind.ROW_EVALUABLE and row_bound is None:
            raise UnsupportedRowError(
                "this composite generator has infinite rows; pass row_bound")
        composed = matrix_product(G, A, left_row_bound=row_bound,
                                  label=f"{G.label}*{A.label}")
        recipe = table_recipe(chosen, src, SpaceTag.LINF)
        matrix_for_conditions = _TABLES[chosen].reduce(composed, wp)
        prereq_matrix = composed
        tgt_name = target.describe()
        notes.append("composite target: generator composed on the target side, "
                     "then the bounded-target recipe applied")
        if G.kind is TriangleKind.ROW_EVALUABLE:
            notes.append(f"generator rows truncated at {row_bound}")
    else:
        tgt_name = _endpoint_name(target)
        chosen = table if table is not None else _pick_table(src, tgt_name)
        recipe = table_recipe(chosen, src, tgt_name)
        if recipe.transform is not TransformTag.NONE and wp is None:
            raise UnsupportedClassError(src, tgt_name, "weights required")
        matrix_for_conditions = _TABLES[chosen].reduce(A, wp)
        prereq_matrix = A

    results = []
    for cid, zl in recipe.conditions:
        results.append((cid, zl, check_condition(cid, matrix_for_conditions, sched,
                                                 zero_limit=zl)))

    prerequisite = None
    statuses = [v.status for _, _, v in results]
    if src in ("int-bv", "d-bv"):
        space = SpaceName(src)
        prerequisite = _beta_prerequisite(prereq_matrix, wp, space, sched, beta_row_limit)
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
