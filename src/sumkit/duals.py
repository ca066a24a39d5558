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

from enum import Enum
from fractions import Fraction
from functools import reduce
from operator import add
from typing import Callable, Optional

from .core import (ConditionVerdict, LazySequence, Scalar, SpaceTag, StatKind,
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
            # d_k a_n for k < n, then a_n / (u_n w_n), in the entry formula's read order
            cores = [wp.recip_uw_diff(k) * a.at(n) for k in range(1, n)]
            cores.append(a.at(n) / uw_divisor(wp.u_at(n) * wp.w_at(n), n))
            return [c / n for c in cores] if integrated else [c * n for c in cores]
    else:
        build_row = pairing_rows(a.at, wp, kind is DualMatrixKind.BETA_INT_BV,
                                 Fraction(0) if exact else 0.0)
    return TriangleOperator(build_row=build_row, kind=TriangleKind.ROW_EVALUABLE,
                            row_support=lambda n: n, exact=exact, label=kind.value)


def pairing_rows(c: Callable[[int], Scalar], wp: WeightPair, integrated: bool,
                 zero: Scalar) -> Callable[..., Optional[list]]:
    """Rows of the pairing construction for the coefficients ``c``.

    Row J is ``[lead_k + d_k * (P_J - P_k) for k < J] + [lead_J]`` with

    * ``lead_k = c_k / (k u_k w_k)``, resp. ``k c_k / (u_k w_k)``,
    * ``d_k = (1/u_k) (1/w_k - 1/w_{k+1})``, read only for k < J,
    * ``P`` the running sum of ``c_j / j``, resp. ``j c_j``.

    This is the beta kernel row J for a sequence ``c`` and the source
    reduction of a matrix row ``c`` with support J.  ``lead``, ``d`` and
    ``P`` are kept between rows; each new term is computed in the order
    the entry-wise formula reads it along row J, so the first failing
    weight or coefficient is the one the formula would hit.
    ``row(J, build=False)`` makes the same reads to advance the kept state
    to J and returns None without building the row.
    """
    lead: list = [None]
    d: list = [None]  # d[k] = wp.recip_uw_diff(k), which ``wp`` also keeps
    P = [zero]

    def lead_at(k: int) -> Scalar:
        if integrated:
            return c(k) / uw_divisor(k * wp.u_at(k) * wp.w_at(k), k)
        return k * c(k) / uw_divisor(wp.u_at(k) * wp.w_at(k), k)

    def row(J: int, build: bool = True) -> Optional[list]:
        if J < 1:
            return []
        if len(lead) == 1:
            lead.append(lead_at(1))
        if J == 1:
            return [lead[1]] if build else None
        if len(d) == 1:
            d.append(wp.recip_uw_diff(1))
        while len(P) <= J:
            j = len(P)
            P.append(P[-1] + (c(j) / j if integrated else j * c(j)))
        for k in range(max(2, min(len(lead), len(d))), J):
            if len(lead) == k:
                lead.append(lead_at(k))
            if len(d) == k:
                d.append(wp.recip_uw_diff(k))
        if len(lead) == J:
            lead.append(lead_at(J))
        if not build:
            return None
        PJ = P[J]
        out = [lead[k] + d[k] * (PJ - P[k]) for k in range(1, J)]
        out.append(lead[J])
        return out

    return row


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _row_subset_cross_check(M: TriangleOperator, depth: int = 12) -> dict:
    """Exhaustive row-subset statistic max_S sum_k |sum_{n in S} M(n,k)|
    over S inside the first ``depth`` rows; a bounded cross-check of the
    subset-family form of the alpha condition."""
    zero = M.zero()
    value, rows, _ = gray_subset_search([M.row(n, n) for n in range(1, depth + 1)], zero,
                                        lambda acc: reduce(add, map(abs, acc), zero))
    return {"value": value, "rows": rows, "depth": depth}


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
    """Running supremum of the absolute row sums of the beta kernel, each
    row built by ``pairing_rows`` and summed left to right.

    Past the support m of ``a`` no row is built: there P_n = P_m and
    lead_k = 0, so row n is row m with ``lead_m + d_m * 0`` at m followed
    by ``d_k * 0`` terms, and its absolute sum is row m's or NaN, neither
    of which raises the supremum.  The kept state is still advanced row by
    row, so the weight and coefficient reads, and the first error, are
    those of the full rows.
    """
    zero: Scalar = Fraction(0) if a.exact and wp.exact else 0.0
    rows = pairing_rows(a.at, wp, kind is DualMatrixKind.BETA_INT_BV, zero)
    support = sched.max_size if a.support is None else a.support
    trace: list[tuple[int, Scalar]] = []
    sup = zero
    witness_row = 1
    sizes = set(sched.sizes)
    for n in range(1, sched.max_size + 1):
        if n > support:
            rows(n, build=False)
        else:
            rowsum = reduce(add, map(abs, rows(n)), zero)
            if rowsum > sup:
                sup = rowsum
                witness_row = n
        if n in sizes:
            trace.append((n, sup))
    return trace, witness_row


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
    cs_verdict = space_evidence(a, SpaceTag.CS, sched)
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
    rows = pairing_rows(a.at, wp, name is SpaceName.INT_BV, zero)

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
