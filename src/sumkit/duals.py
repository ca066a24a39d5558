"""Kernel matrices for the Koethe duals of the two domain spaces, plus the
checks that evaluate their defining statistics over a truncation schedule.

For a candidate dual element ``a`` the alpha question asks whether
``sum_n |a_n x_n|`` is finite for every x in the space, and the beta/gamma
questions ask whether ``sum_k a_k x_k`` converges / has bounded partial
sums.  Substituting the closed-form inverse of the space's triangle turns
each question into a matrix condition on an explicit lower-triangular
kernel built from ``a`` and the weights; those kernels are what
``dual_kernel_matrix`` produces.

The beta kernels are built as the exact coefficient matrix of the expanded
pairing sum: every entry with k <= n keeps its leading term
``a_k/(k u_k w_k)`` (resp. ``k a_k/(u_k w_k)``), the inner sums start at
k+1, and entries vanish for k > n.  A split-case tabulation that keeps the
leading term only on the diagonal, or orients the triangle the other way,
breaks the pairing identity and is deliberately not used.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from fractions import Fraction
from functools import reduce
from operator import add
from typing import Callable, Optional

from .core import (ConditionVerdict, LazySequence, Scalar, StatKind,
                   TruncationSchedule, column_scan, combine_conjunctive,
                   gray_subset_search, judge_trace, running_sums, space_evidence)
from .operators import TriangleKind, TriangleOperator, WeightPair, uw_divisor
from .spaces import SpaceName, domain_space, embed_from_l1


class DualMatrixKind(Enum):
    ALPHA_INT_BV = "alpha-int-bv"
    ALPHA_D_BV = "alpha-d-bv"
    BETA_INT_BV = "beta-int-bv"
    BETA_D_BV = "beta-d-bv"


CORRECTION_NOTES = {
    "kernel-orientation": (
        "dual kernels are lower-triangular: entries vanish for k > n"),
    "beta-kernel-summand": (
        "beta kernel entries are the coefficients of the expanded pairing sum; "
        "every entry k <= n keeps its leading term, not just the diagonal"),
    "row-sum-statistic": (
        "row-sum finiteness is evaluated as a supremum over rows n <= N"),
}


def dual_kernel_matrix(kind, a: LazySequence, wp: WeightPair) -> TriangleOperator:
    """The lower-triangular kernel matrix for the requested dual question."""
    kind = DualMatrixKind(kind)
    exact = a.exact and wp.exact

    if kind in (DualMatrixKind.ALPHA_INT_BV, DualMatrixKind.ALPHA_D_BV):
        integrated = kind is DualMatrixKind.ALPHA_INT_BV

        def build_row(n: int) -> list:
            # d_k a_n for k < n, then a_n / (u_n w_n), in the entry formula's
            # read order: d_1, a_n, d_2..d_{n-1}, u_n, w_n
            d1 = [wp.recip_uw_diff(1)] if n > 1 else []
            an = a.at(n)
            cores = [d * an for d in d1] + [wp.recip_uw_diff(k) * an for k in range(2, n)]
            cores.append(an / uw_divisor(wp.u_at(n) * wp.w_at(n), n))
            return [c / n for c in cores] if integrated else [c * n for c in cores]
    else:
        build_row = sequence_pairing_rows(a, wp, kind is DualMatrixKind.BETA_INT_BV,
                                          Fraction(0) if exact else 0.0)
    return TriangleOperator(build_row=build_row, kind=TriangleKind.ROW_EVALUABLE,
                            row_support=lambda n: n, exact=exact, label=kind.value)


def pairing_rows(c_row: Callable[[int, int], list], wp: WeightPair, integrated: bool,
                 zero: Scalar) -> Callable[..., Optional[list]]:
    """Rows of the pairing construction for the coefficients c_1, c_2, ...,
    of which ``c_row(m, J)`` gives ``[c_m, ..., c_J]``.

    Row J is ``[lead_k + d_k * (P_J - P_k) for k < J] + [lead_J]`` with

    * ``lead_k = c_k / div_k``, resp. ``k c_k / div_k``, where div_k is
      ``k u_k w_k``, resp. ``u_k w_k``,
    * ``d_k = (1/u_k) (1/w_k - 1/w_{k+1})``, read only for k < J,
    * ``P`` the running sum of ``c_j / j``, resp. ``j c_j``.

    This is the beta kernel row J for a sequence ``c`` and the source
    reduction of a matrix row ``c`` with support J.  The coefficients,
    ``lead`` and ``P`` are kept between rows; div and d are the weight
    state ``wp.pairing_weights`` keeps for every construction on ``wp``.
    Row J reads c_1, then div_1 and d_1, then c_2..c_J, then the weights
    up to div_J, each term once: the order of the entry-wise formula along
    row J, so the first failing weight or coefficient is the one it would
    hit.  ``row(J, build=False)`` makes the same reads to advance the kept
    state to J and returns None without building the row.  ``row.lead``
    and ``row.P`` are the kept lists, ``[None, lead_1, ...]`` and
    ``[0, P_1, ...]``, for reading only.
    """
    c: list = [None]
    lead: list = [None]
    P = [zero]

    def read(J: int) -> None:
        m = len(c)
        new = c_row(m, J)
        c.extend(new)
        total = P[-1]
        for j, v in enumerate(new, m):
            total = total + (v / j if integrated else j * v)
            P.append(total)

    def row(J: int, build: bool = True) -> Optional[list]:
        if J < 1:
            return []
        if len(c) == 1:
            read(1)
        wp.pairing_weights(integrated, 1 if J == 1 else 2)
        if len(c) <= J:
            read(J)
        div, d = wp.pairing_weights(integrated, 2 * J - 1)
        m = len(lead)
        if m <= J:
            if integrated:
                lead.extend([c[k] / div[k] for k in range(m, J + 1)])
            else:
                lead.extend([k * c[k] / div[k] for k in range(m, J + 1)])
        if not build:
            return None
        PJ = P[J]
        out = [lead[k] + d[k] * (PJ - P[k]) for k in range(1, J)]
        out.append(lead[J])
        return out

    row.lead, row.P = lead, P
    return row


def sequence_pairing_rows(a: LazySequence, wp: WeightPair, integrated: bool,
                          zero: Scalar) -> Callable[..., Optional[list]]:
    """``pairing_rows`` for the terms of ``a``."""
    return pairing_rows(lambda m, J: [a.at(j) for j in range(m, J + 1)], wp, integrated,
                        zero)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


_CROSS_CHECK_DEPTH = 12


def _row_subset_cross_check(M: TriangleOperator) -> dict:
    """Exhaustive row-subset statistic max_S sum_k |sum_{n in S} M(n,k)|
    over S inside the first ``_CROSS_CHECK_DEPTH`` rows; a bounded
    cross-check of the subset-family form of the alpha condition."""
    zero = M.zero()
    value, rows, _ = gray_subset_search(
        [M.row(n, n) for n in range(1, _CROSS_CHECK_DEPTH + 1)], zero,
        lambda acc: reduce(add, map(abs, acc), zero))
    return {"value": value, "rows": rows, "depth": _CROSS_CHECK_DEPTH}


def alpha_dual_check(space, a: LazySequence, wp: WeightPair,
                     sched: TruncationSchedule) -> ConditionVerdict:
    """Column-sum statistic of the alpha kernel: finite iff ``a`` is an
    alpha-dual element at truncation scale."""
    M = dual_kernel_matrix(DualMatrixKind(f"alpha-{SpaceName(space).value}"), a, wp)
    trace, witness_col = column_scan(M, sched, absolute=True)
    status, routes = judge_trace([v for _, v in trace], StatKind.SUP, sched)
    cross = _row_subset_cross_check(M)
    aux = {
        "kernel": M.label,
        "routes": routes,
        "row_subset_cross_check": cross,
        "notes": [CORRECTION_NOTES["kernel-orientation"]],
    }
    return ConditionVerdict(status=status, trace=trace,
                            witness={"col": witness_col}, aux=aux)


def _beta_statistic(kind: DualMatrixKind, a: LazySequence, wp: WeightPair,
                    sched: TruncationSchedule):
    """Running supremum of the absolute row sums of the beta kernel, with
    the first strictly largest row as witness.

    Rows are summed up to ``last``, the support m of ``a`` or the largest
    size N, whichever is smaller.  Past m no row is summed: there P_n = P_m
    and lead_k = 0, so row n is row m with ``lead_m + d_m * 0`` at m
    followed by ``d_k * 0`` terms, and its absolute sum is row m's or NaN,
    neither of which raises the supremum.

    The kept state of ``pairing_rows`` (coefficients, lead terms and P) is
    advanced row by row only to ``last``, or to row 2 if that is further,
    as row 2's reads begin with d_1 before a_2.  Each row n past it then
    makes just the reads row n would make: a_n, then the weight terms up
    to div_n.  So the coefficient and weight reads, and the first error,
    are those of the full rows to N, and what follows reads nothing.

    A float row is built and summed left to right.  An exact row sum comes
    from the identity, for cell (J, k < J) = lead_k + d_k (P_J - P_k),

        sum_k |cell (J, k)| = |lead_J| + C_J + P_J (W_< - W_>=) - (V_< - V_>=)

    with C_J the sum of |lead_k| over the k < J with d_k = 0, and, over the
    k < J with d_k != 0, where the cell is d_k (P_J - r_k) with
    r_k = P_k - lead_k / d_k, W = sum |d_k| and V = sum |d_k| r_k, each split
    by r_k < P_J against r_k >= P_J (``_exact_row_sums``).  The sums are the
    same rationals as the row-built ones, in O(N log N) operations instead
    of O(N^2).
    """
    exact = a.exact and wp.exact
    integrated = kind is DualMatrixKind.BETA_INT_BV
    zero: Scalar = Fraction(0) if exact else 0.0
    rows = sequence_pairing_rows(a, wp, integrated, zero)
    last = sched.max_size if a.support is None else min(a.support, sched.max_size)
    walked = min(max(last, 2), sched.max_size)
    for n in range(1, walked + 1):
        rows(n, build=False)
    for n in range(walked + 1, sched.max_size + 1):
        a.at(n)
        wp.pairing_weights(integrated, 2 * n - 1)
    if exact:
        _, d = wp.pairing_weights(integrated, 2 * last - 1)
        rowsums = _exact_row_sums(rows.lead, rows.P, d, last)
    else:
        rowsums = [reduce(add, map(abs, rows(n)), zero) for n in range(1, last + 1)]
    trace: list[tuple[int, Scalar]] = []
    sup = zero
    witness_row = 1
    sizes = set(sched.sizes)
    for n in range(1, sched.max_size + 1):
        if n <= last and rowsums[n - 1] > sup:
            sup = rowsums[n - 1]
            witness_row = n
        if n in sizes:
            trace.append((n, sup))
    return trace, witness_row


def _exact_row_sums(lead: list, P: list, d: list, last: int) -> list:
    """The absolute sums of beta kernel rows 1..``last`` from the kept
    ``lead``, ``P`` and ``d``, by the identity of ``_beta_statistic``.

    W and V are kept in two Fenwick trees (Fenwick, Softw. Pract. Exper.
    24, 1994) indexed by the rank of r_k among the distinct r_k.  Before
    row J, k = J - 1 joins its tree or C; row J then costs one bisect of
    P_J and two prefix sums, the sums over r_k < P_J.  An r_k equal to P_J
    adds 0 on either side of the split.  Divides only by d_k != 0.
    """
    r = {k: P[k] - lead[k] / d[k] for k in range(1, last) if d[k]}
    cuts = sorted(set(r.values()))
    size = len(cuts)
    W = [Fraction(0)] * (size + 1)
    V = [Fraction(0)] * (size + 1)
    w_all = v_all = flat = Fraction(0)
    sums = []
    for J in range(1, last + 1):
        k = J - 1
        if k in r:
            wk = abs(d[k])
            vk = wk * r[k]
            w_all += wk
            v_all += vk
            i = bisect_left(cuts, r[k]) + 1
            while i <= size:
                W[i] += wk
                V[i] += vk
                i += i & -i
        elif k:
            flat += abs(lead[k])
        w_lt = v_lt = Fraction(0)
        i = bisect_left(cuts, P[J])
        while i:
            w_lt += W[i]
            v_lt += V[i]
            i -= i & -i
        sums.append(abs(lead[J]) + flat + P[J] * (2 * w_lt - w_all) - (2 * v_lt - v_all))
    return sums


def gamma_dual_check(space, a: LazySequence, wp: WeightPair,
                     sched: TruncationSchedule) -> ConditionVerdict:
    """Row-sum supremum of the beta kernel alone: bounded partial pairing
    sums (the gamma-dual question)."""
    kind = DualMatrixKind(f"beta-{SpaceName(space).value}")
    trace, witness_row = _beta_statistic(kind, a, wp, sched)
    status, routes = judge_trace([v for _, v in trace], StatKind.SUP, sched)
    aux = {
        "kernel": kind.value,
        "routes": routes,
        "notes": [CORRECTION_NOTES["beta-kernel-summand"],
                  CORRECTION_NOTES["row-sum-statistic"]],
    }
    return ConditionVerdict(status=status, trace=trace,
                            witness={"row": witness_row}, aux=aux)


def beta_dual_check(space, a: LazySequence, wp: WeightPair,
                    sched: TruncationSchedule) -> ConditionVerdict:
    """Gamma statistic plus convergent-series evidence for ``a`` itself; the
    combined verdict is the weaker of the two."""
    kernel_verdict = gamma_dual_check(space, a, wp, sched)
    cs_verdict = space_evidence(a, sched)
    status = combine_conjunctive([kernel_verdict.status, cs_verdict.status])
    aux = dict(kernel_verdict.aux)
    aux["cs_evidence"] = cs_verdict.to_dict()
    return ConditionVerdict(status=status, trace=kernel_verdict.trace,
                            witness=kernel_verdict.witness, aux=aux)


def pairing_identity_sides(a: LazySequence, y: LazySequence, wp: WeightPair,
                           space) -> Callable[[int], tuple[Scalar, Scalar]]:
    """Both sides of the pairing identity, row by row: ``sides(n)`` gives

    left  = sum_{k<=n} a_k x_k  with x the embedded inverse image of y,
    right = row n of the beta kernel applied to y.

    The two sides are computed along independent code paths and must agree
    exactly in exact mode.  The inverse image, the left-hand running sums
    and the kernel rows are built once and shared by all rows; each side
    is summed from zero, left to right, as a fresh evaluation of row n
    would, so its value and its first error do not depend on earlier rows.
    """
    name = SpaceName(space)
    x = embed_from_l1(domain_space(name, wp), y)
    lhs = running_sums(lambda k: a.at(k) * x.at(k), x.zero())
    zero: Scalar = Fraction(0) if a.exact and wp.exact else 0.0
    rows = sequence_pairing_rows(a, wp, name is SpaceName.INT_BV, zero)

    def sides(n: int) -> tuple[Scalar, Scalar]:
        left = lhs(n)
        right = zero
        for k, entry in enumerate(rows(n), 1):
            right += entry * y.at(k)
        return left, right

    return sides


def pairing_identity_check(a: LazySequence, y: LazySequence, wp: WeightPair,
                           space, n: int) -> tuple[Scalar, Scalar]:
    """Both sides of the pairing identity at row ``n``; see
    ``pairing_identity_sides``."""
    return pairing_identity_sides(a, y, wp, space)(n)
