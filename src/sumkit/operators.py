"""Triangle operators built from weight pairs, their inverses, and
classical summability matrices.

The two derived triangles act on a sequence x through the weighted first
difference of (k * x_k) resp. (x_k / k):

* integrated triangle:      y_n = sum_{k<n} k * u_n * (w_k - w_{k+1}) * x_k
                                  + n * u_n * w_n * x_n
* differentiated triangle:  y_n = sum_{k<n} (1/k) * u_n * (w_k - w_{k+1}) * x_k
                                  + (1/n) * u_n * w_n * x_n

Both are strict triangles whenever every u_k and w_k is nonzero, and both
have closed-form inverses implemented below with O(1) work per index after
an incremental prefix.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .core import LazySequence, Scalar, as_fraction, ones, running_sums
from .errors import InvalidWeightError, SingularTriangleError, UnsupportedRowError

# the scalar an integer-ratio row builder makes of p/q: Fraction(p, q) in
# exact mode, p / q in float mode
Ratio = Callable[[int, int], Scalar]


@dataclass
class WeightPair:
    """A pair (u, w) of everywhere-nonzero weight sequences.

    Nonzero-ness is checked lazily on access so that rules stay total and
    cheap; a zero term raises InvalidWeightError naming the offending index.
    The two difference terms are kept once computed; a term that raises is
    not kept, so it raises again on the next access.
    """

    u: LazySequence
    w: LazySequence
    _w_diffs: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _recip_diffs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def exact(self) -> bool:
        return self.u.exact and self.w.exact

    def u_at(self, k: int) -> Scalar:
        v = self.u.at(k)
        if v == 0:
            raise InvalidWeightError("u", k)
        return v

    def w_at(self, k: int) -> Scalar:
        v = self.w.at(k)
        if v == 0:
            raise InvalidWeightError("w", k)
        return v

    def w_forward_diff(self, k: int) -> Scalar:
        """w_k - w_{k+1}."""
        v = self._w_diffs.get(k)
        if v is None:
            v = self._w_diffs[k] = self.w_at(k) - self.w_at(k + 1)
        return v

    def recip_uw_diff(self, k: int) -> Scalar:
        """(1/u_k) * (1/w_k - 1/w_{k+1})."""
        v = self._recip_diffs.get(k)
        if v is None:
            v = self._recip_diffs[k] = (1 / self.u_at(k)) * (1 / self.w_at(k) - 1 / self.w_at(k + 1))
        return v

    def as_float(self) -> "WeightPair":
        return WeightPair(self.u.as_float(), self.w.as_float())

    @classmethod
    def all_ones(cls) -> "WeightPair":
        return cls(ones(), ones())


class TriangleKind(Enum):
    STRICT_TRIANGLE = "strict-triangle"
    ROW_EVALUABLE = "row-evaluable"


class TriangleOperator:
    """An infinite matrix given by a pure entry rule ``(n, k) -> scalar``
    or by a row builder ``n -> [entry(n, 1), ..., entry(n, m)]``.

    STRICT_TRIANGLE means zero above the diagonal and nonzero on it, so
    rows are finite and back-substitution is available.  ROW_EVALUABLE
    matrices may have infinite rows; applying one needs either a declared
    per-row support or an explicit row truncation bound.

    A row builder is called at most once per row; the row is kept and
    entries past its end are zero, so it must cover the row's support.
    Every finite-row matrix sumkit constructs is row-built.  An entry rule
    is memoized entry by entry; it serves only spec rules whose read order
    is the contract (``expr:``, ``csv:``) and infinite rows (``taylor:``,
    ``expr: --full``, products whose right factor has such rows).

    The rational classical matrices (Riesz, Cesàro, Euler, identity,
    difference) give a ratio row builder ``(n, ratio) -> row``: each entry
    is an integer ratio ``ratio(p, q)``, and the operator passes
    ``Fraction`` in exact mode and ``operator.truediv`` in float mode.
    ``p / q`` is the correctly rounded value of p/q, reduced or not, so a
    float row is bit-identical to rounding the exact row, and overflows
    where that rounding would.
    """

    __slots__ = ("_rule", "_build_row", "_ratio_row", "kind", "row_support", "exact",
                 "label", "apply_special", "_memo", "_rows")

    def __init__(self, rule: Optional[Callable[[int, int], Scalar]] = None, *,
                 kind: TriangleKind,
                 row_support: Optional[Callable[[int], int]] = None,
                 exact: bool = True, label: str = "",
                 apply_special=None,
                 build_row: Optional[Callable[[int], list]] = None,
                 ratio_row: Optional[Callable[[int, Ratio], list]] = None):
        if (rule, build_row, ratio_row).count(None) != 2:
            raise ValueError("give exactly one of an entry rule, a row builder "
                             "and a ratio row builder")
        if ratio_row is not None:
            ratio = Fraction if exact else operator.truediv
            build_row = lambda n: ratio_row(n, ratio)
        self._rule = rule
        self._build_row = build_row
        self._ratio_row = ratio_row
        self.kind = kind
        if row_support is None and kind is TriangleKind.STRICT_TRIANGLE:
            row_support = lambda n: n
        self.row_support = row_support
        self.exact = exact
        self.label = label
        self.apply_special = apply_special
        self._memo: Optional[dict[tuple[int, int], Scalar]] = (
            {} if rule is not None else None)
        self._rows: Optional[dict[int, list]] = {} if build_row is not None else None

    def zero(self) -> Scalar:
        return Fraction(0) if self.exact else 0.0

    def _built_row(self, n: int) -> list:
        row = self._rows.get(n)
        if row is None:
            row = self._rows[n] = self._build_row(n)
        return row

    def entry(self, n: int, k: int) -> Scalar:
        if n < 1 or k < 1:
            raise IndexError(f"matrix indices start at 1, got ({n}, {k})")
        if self.kind is TriangleKind.STRICT_TRIANGLE and k > n:
            return self.zero()
        if self._rows is not None:
            row = self._built_row(n)
            return row[k - 1] if k <= len(row) else self.zero()
        key = (n, k)
        v = self._memo.get(key)
        if v is None:
            v = self._rule(n, k)
            self._memo[key] = v
        return v

    def row(self, n: int, upto: int) -> list[Scalar]:
        if self._rows is None or n < 1:
            return [self.entry(n, k) for k in range(1, upto + 1)]
        row = self._built_row(n)
        if upto <= len(row):
            return row[:upto]
        return row + [self.zero()] * (upto - len(row))

    def row_sequence(self, n: int) -> LazySequence:
        """Row ``n`` viewed as a lazy sequence over the column index."""
        support = self.row_support(n) if self.row_support is not None else None
        return LazySequence(lambda k: self.entry(n, k), support=support,
                            exact=self.exact, label=f"{self.label}[row {n}]")

    def as_float(self) -> "TriangleOperator":
        """The float operator of the same shape, holding only float values.

        A ratio row builder is called with float division, so its rows are
        never built exactly; any other row builder (products, weight
        triangles, kernels, a caller's builder) has its exact rows rounded
        entry by entry; a rule-based operator becomes a float memo over the
        bare exact rule.  No exact row or entry is kept.
        """
        if not self.exact:
            return self
        build, rule, label = self._build_row, self._rule, self.label
        if self._ratio_row is not None:
            return TriangleOperator(ratio_row=self._ratio_row, kind=self.kind,
                                    row_support=self.row_support, exact=False, label=label)
        if build is not None:
            return TriangleOperator(build_row=lambda n: [float(v) for v in build(n)],
                                    kind=self.kind, row_support=self.row_support,
                                    exact=False, label=label)
        # only spec rules (expr:, csv:) and infinite rows (taylor:) are
        # rule-based; they stay entry by entry, as the order entries are read
        # in decides the first error an ill-defined rule raises
        def entry(n: int, k: int) -> float:
            v = rule(n, k)
            try:
                return float(v)
            except OverflowError:
                raise ValueError(f"entry ({n}, {k}) of {label or 'a matrix'} "
                                 "is too large for a float") from None

        return TriangleOperator(entry, kind=self.kind, row_support=self.row_support,
                                exact=False, label=label)


def truncation(T: TriangleOperator, n: int) -> list[list[Scalar]]:
    """Dense n-by-n leading block of ``T``."""
    return [[T.entry(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]


# ---------------------------------------------------------------------------
# Derived triangles
# ---------------------------------------------------------------------------


def weighted_mean_triangle(wp: WeightPair) -> TriangleOperator:
    """Entries u_n * w_k for k <= n; the plain generalized weighted mean."""

    def build_row(n: int) -> list[Scalar]:
        return [wp.u_at(n) * wp.w_at(k) for k in range(1, n + 1)]

    return TriangleOperator(build_row=build_row, kind=TriangleKind.STRICT_TRIANGLE,
                            exact=wp.exact, label="weighted-mean")


def _bv_triangle(wp: WeightPair, diag_factor, off_factor, label: str) -> TriangleOperator:
    def build_row(n: int) -> list[Scalar]:
        row = [off_factor(k) * wp.u_at(n) * wp.w_forward_diff(k) for k in range(1, n)]
        row.append(diag_factor(n) * wp.u_at(n) * wp.w_at(n))
        return row

    def apply_special(T: TriangleOperator, x: LazySequence, row_bound):
        # y_n = u_n * (prefix_{n-1} + diag_factor(n) * w_n * x_n) with
        # prefix_m = sum_{k<=m} off_factor(k) * (w_k - w_{k+1}) * x_k
        pref = running_sums(lambda j: off_factor(j) * wp.w_forward_diff(j) * x.at(j),
                            T.zero())

        def rule_y(n: int) -> Scalar:
            return wp.u_at(n) * (pref(n - 1) + diag_factor(n) * wp.w_at(n) * x.at(n))

        return rule_y

    return TriangleOperator(build_row=build_row, kind=TriangleKind.STRICT_TRIANGLE,
                            exact=wp.exact, label=label, apply_special=apply_special)


def integrated_triangle(wp: WeightPair) -> TriangleOperator:
    if wp.exact:
        return _bv_triangle(wp, lambda n: Fraction(n), lambda k: Fraction(k), "integrated-bv")
    return _bv_triangle(wp, float, float, "integrated-bv")


def differentiated_triangle(wp: WeightPair) -> TriangleOperator:
    if wp.exact:
        return _bv_triangle(wp, lambda n: Fraction(1, n), lambda k: Fraction(1, k),
                            "differentiated-bv")
    return _bv_triangle(wp, lambda n: 1.0 / n, lambda k: 1.0 / k, "differentiated-bv")


# ---------------------------------------------------------------------------
# Application and inversion
# ---------------------------------------------------------------------------


def apply_triangle(T: TriangleOperator, x: LazySequence,
                   row_bound: Optional[int] = None) -> LazySequence:
    """The matrix transform ``y = T x`` as a lazy sequence.

    Strict triangles sum their finite rows; row-evaluable matrices use the
    declared row support, falling back to ``row_bound`` when given, and
    raise UnsupportedRowError otherwise.
    """
    exact = T.exact and x.exact

    if T.apply_special is not None:
        rule = T.apply_special(T, x, row_bound)
        return LazySequence(rule, exact=exact, label=f"{T.label}*{x.label}")

    def rule(n: int) -> Scalar:
        if T.row_support is not None:
            limit = T.row_support(n)
        elif row_bound is not None:
            limit = row_bound
        else:
            raise UnsupportedRowError(
                f"row {n} of {T.label or 'matrix'} has no finite support; "
                "pass an explicit row bound")
        total = Fraction(0) if exact else 0.0
        for k in range(1, limit + 1):
            total += T.entry(n, k) * x.at(k)
        return total

    return LazySequence(rule, exact=exact, label=f"{T.label}*{x.label}")


def invert_triangle(T: TriangleOperator, y: LazySequence) -> LazySequence:
    """Back-substitution solve of ``T x = y`` for a strict triangle.

    This is the defining oracle used to cross-check every closed form.
    """
    if T.kind is not TriangleKind.STRICT_TRIANGLE:
        raise SingularTriangleError(0, "inversion needs a strict triangle")
    exact = T.exact and y.exact
    memo: dict[int, Scalar] = {}

    def ensure(n: int) -> None:
        for i in range(1, n + 1):
            if i in memo:
                continue
            diag = T.entry(i, i)
            if diag == 0:
                raise SingularTriangleError(i)
            acc = y.at(i)
            for k in range(1, i):
                acc = acc - T.entry(i, k) * memo[k]
            memo[i] = acc / diag

    def rule(n: int) -> Scalar:
        ensure(n)
        return memo[n]

    return LazySequence(rule, exact=exact, label=f"{T.label}^-1*{y.label}")


def _inverse_core(wp: WeightPair, y: LazySequence):
    """Shared prefix for both closed-form inverses:
    core(k) = prefix_{k-1} + y_k / (u_k * w_k), with
    prefix_m = sum_{j<=m} (1/u_j) * (1/w_j - 1/w_{j+1}) * y_j.
    """
    exact = wp.exact and y.exact
    zero: Scalar = Fraction(0) if exact else 0.0
    pref = running_sums(lambda j: wp.recip_uw_diff(j) * y.at(j), zero)

    def core(k: int) -> Scalar:
        return pref(k - 1) + y.at(k) / (wp.u_at(k) * wp.w_at(k))

    return core, exact


def integrated_inverse(wp: WeightPair, y: LazySequence) -> LazySequence:
    """Closed-form solve of (integrated triangle) x = y:
    x_k = (1/k) * [ sum_{j<k} (1/u_j)(1/w_j - 1/w_{j+1}) y_j + y_k/(u_k w_k) ].
    """
    core, exact = _inverse_core(wp, y)
    if exact:
        return LazySequence(lambda k: core(k) / k, exact=True, label="integrated-inverse")
    return LazySequence(lambda k: core(k) / float(k), exact=False, label="integrated-inverse")


def differentiated_inverse(wp: WeightPair, y: LazySequence) -> LazySequence:
    """Closed-form solve of (differentiated triangle) x = y:
    x_k = k * [ sum_{j<k} (1/u_j)(1/w_j - 1/w_{j+1}) y_j + y_k/(u_k w_k) ].
    """
    core, exact = _inverse_core(wp, y)
    if exact:
        return LazySequence(lambda k: core(k) * k, exact=True, label="differentiated-inverse")
    return LazySequence(lambda k: core(k) * float(k), exact=False,
                        label="differentiated-inverse")


# ---------------------------------------------------------------------------
# Basis columns
# ---------------------------------------------------------------------------


def basis_column(space: str, wp: WeightPair, k: int) -> LazySequence:
    """Column ``k`` of the inverse triangle: the unique solution of
    ``T s = e^(k)``, computed by the closed-form inverse (tests keep
    back-substitution as its oracle)."""
    from .spaces import SpaceName  # local import to avoid a cycle

    inverse = (integrated_inverse if SpaceName(space) is SpaceName.INT_BV
               else differentiated_inverse)
    return inverse(wp, LazySequence.unit(k, exact=wp.exact))


def basis_column_tabulated(space: str, wp: WeightPair, k: int) -> LazySequence:
    """A tabulated closed form for basis columns kept only for comparison.

    Known to disagree with the defining identity for weights where
    u_{k+1} != w_{k+1}; see ``basis_tabulated_discrepancies``.
    """
    from .spaces import SpaceName

    name = SpaceName(space)
    exact = wp.exact
    zero: Scalar = Fraction(0) if exact else 0.0

    def factor(kk: int) -> Scalar:
        return 1 / (wp.u_at(kk) * wp.w_at(kk)) - 1 / (wp.u_at(kk) * wp.u_at(kk + 1))

    def rule(n: int) -> Scalar:
        if n < k:
            return zero
        if n == k:
            diag = wp.u_at(k) * wp.w_at(k)
            return 1 / (n * diag) if name is SpaceName.INT_BV else n / diag
        f = factor(k)
        if name is SpaceName.INT_BV:
            return f / n if exact else f / float(n)
        return f * n

    return LazySequence(rule, exact=exact, label="basis-tabulated")


def basis_tabulated_discrepancies(space: str, wp: WeightPair, k: int, n_max: int) -> list[int]:
    """Indices n <= n_max where the tabulated closed form disagrees with the
    oracle-defined basis column.

    Float weights are compared through their exact values (every float is
    a rational), so two formulas that round differently do not count as
    disagreeing."""
    if not wp.exact:
        u, w = wp.u, wp.w
        wp = WeightPair(LazySequence(lambda j: Fraction(u.at(j)), label=u.label),
                        LazySequence(lambda j: Fraction(w.at(j)), label=w.label))
    oracle = basis_column(space, wp, k)
    tab = basis_column_tabulated(space, wp, k)
    return [n for n in range(1, n_max + 1) if oracle.at(n) != tab.at(n)]


# ---------------------------------------------------------------------------
# Classical matrices (all converted to 1-based indexing on construction)
# ---------------------------------------------------------------------------


def euler_entry(r, n: int, k: int) -> Scalar:
    """Entry (n, k <= n) of the Euler matrix of order r:
    C(n-1, k-1) (1-r)^(n-k) r^(k-1)."""
    return math.comb(n - 1, k - 1) * (1 - r) ** (n - k) * r ** (k - 1)


def euler_matrix(r) -> TriangleOperator:
    """Euler means of order r, 0 < r < 1; rows sum to 1 exactly.

    r = p/q must be rational (a float r is refused).  Row n is
    C(n-1, k-1) (q-p)^(n-k) p^(k-1) over the common denominator q^(n-1) of
    the row: integers only, with one ``ratio`` per entry, so float mode
    divides once per entry and never builds the exact row.
    """
    r = as_fraction(r)
    if not (0 < r < 1):
        raise ValueError("euler matrix needs 0 < r < 1")
    p, q = r.numerator, r.denominator

    def ratio_row(n: int, ratio: Ratio) -> list[Scalar]:
        den = q ** (n - 1)
        rest = [1] * n  # rest[i] = (q-p)^i
        for i in range(1, n):
            rest[i] = rest[i - 1] * (q - p)
        row = []
        binom, ppow = 1, 1  # C(n-1, k-1) and p^(k-1)
        for k in range(1, n + 1):
            row.append(ratio(binom * rest[n - k] * ppow, den))
            binom = binom * (n - k) // k
            ppow *= p
        return row

    return TriangleOperator(ratio_row=ratio_row, kind=TriangleKind.STRICT_TRIANGLE,
                            label=f"euler:{r}")


def riesz_matrix(t: LazySequence) -> TriangleOperator:
    """Riesz (weighted-mean) matrix entry(n,k) = t_k / (t_1 + ... + t_n).

    Requires strictly positive t_k; checked lazily on access.  Row n takes
    the total T_n = A/B first, which checks t_1..t_n in order.  Over exact
    t_k = a_k/b_k the float entry is the integer ratio a_k B / (b_k A), one
    correctly rounded division per entry that never builds the exact row;
    the exact entry is the quotient t_k / T_n, which cancels through the
    gcds of the small a_k, b_k with A, B where ``Fraction(a_k B, b_k A)``
    would take a gcd of two row-sized integers.  Float weights are divided
    by the float total.
    """
    def positive(k: int) -> Scalar:
        tk = t.at(k)
        if tk <= 0:
            raise InvalidWeightError("t", k, "must be positive for a Riesz matrix")
        return tk

    total = running_sums(positive, t.zero())

    def ratio_row(n: int, ratio: Ratio) -> list[Scalar]:
        tot = total(n)
        if not t.exact or ratio is Fraction:
            return [t.at(k) / tot for k in range(1, n + 1)]
        num, den = tot.numerator, tot.denominator
        return [ratio(tk.numerator * den, tk.denominator * num)
                for tk in map(t.at, range(1, n + 1))]

    return TriangleOperator(ratio_row=ratio_row, kind=TriangleKind.STRICT_TRIANGLE,
                            exact=t.exact, label=f"riesz:{t.label or 't'}")


def cesaro_matrix() -> TriangleOperator:
    """The Riesz matrix of t = ones: row n is n copies of 1/n."""
    return TriangleOperator(ratio_row=lambda n, ratio: [ratio(1, n)] * n,
                            kind=TriangleKind.STRICT_TRIANGLE, label="cesaro")


def taylor_matrix(r) -> TriangleOperator:
    """Taylor matrix: upper-triangular with geometric rows, hence only
    row-evaluable; entry(n,k) = C(k-1, n-1) (1-r)^n r^(k-n) for k >= n."""
    r = as_fraction(r)
    if not (0 < r < 1):
        raise ValueError("taylor matrix needs 0 < r < 1")
    one_minus = 1 - r

    def rule(n: int, k: int) -> Scalar:
        if k < n:
            return Fraction(0)
        return math.comb(k - 1, n - 1) * one_minus ** n * r ** (k - n)

    return TriangleOperator(rule, kind=TriangleKind.ROW_EVALUABLE, label=f"taylor:{r}")


def taylor_row_tail(r, n: int, j_max: int) -> Scalar:
    """Exact mass of row ``n`` of the Taylor matrix beyond column ``j_max``.

    Every Taylor row sums to 1, so the remainder is 1 minus the partial row
    sum; it certifies any truncation of the geometric row.
    """
    T = taylor_matrix(r)
    partial = T.zero()
    for j in range(n, j_max + 1):
        partial += T.entry(n, j)
    return 1 - partial


def difference_matrix() -> TriangleOperator:
    def ratio_row(n: int, ratio: Ratio) -> list[Scalar]:
        return [ratio(0, 1)] * (n - 2) + [ratio(-1, 1), ratio(1, 1)][-n:]

    return TriangleOperator(ratio_row=ratio_row, kind=TriangleKind.STRICT_TRIANGLE,
                            label="difference")


def identity_matrix() -> TriangleOperator:
    def ratio_row(n: int, ratio: Ratio) -> list[Scalar]:
        return [ratio(0, 1)] * (n - 1) + [ratio(1, 1)]

    return TriangleOperator(ratio_row=ratio_row, kind=TriangleKind.STRICT_TRIANGLE,
                            label="identity")


class MatrixFamily(NamedTuple):
    build: Callable[..., TriangleOperator]
    param: Optional[str]  # None, "rational" or "weights"


MATRIX_FAMILIES = {
    "identity": MatrixFamily(identity_matrix, None),
    "cesaro": MatrixFamily(cesaro_matrix, None),
    "difference": MatrixFamily(difference_matrix, None),
    "euler": MatrixFamily(euler_matrix, "rational"),
    "taylor": MatrixFamily(taylor_matrix, "rational"),
    "riesz": MatrixFamily(riesz_matrix, "weights"),
}


def classical_matrix(name: str, param=None) -> TriangleOperator:
    """The matrix of the named family in ``MATRIX_FAMILIES``; ``param`` is a
    rational for euler/taylor and a weight sequence for riesz."""
    family = MATRIX_FAMILIES.get(name.lower())
    if family is None:
        raise ValueError(f"unknown classical matrix {name!r}")
    if family.param is None:
        return family.build()
    if family.param == "weights" and not isinstance(param, LazySequence):
        raise ValueError(f"{name} needs a weight sequence parameter")
    return family.build(param)


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------


def matrix_product(L: TriangleOperator, R: TriangleOperator, *,
                   left_row_bound: Optional[int] = None, label: str = "") -> TriangleOperator:
    """Product matrix (L R)(n,k) = sum_j L(n,j) R(j,k), each sum taken over
    ascending j.

    The inner sum runs over the finite support of row n of ``L`` when
    declared, else up to ``left_row_bound``; a row-evaluable left factor
    without either raises UnsupportedRowError at evaluation time.  With a
    strict ``R`` the product is built row by row, reading each row of ``L``
    and of ``R`` once; otherwise (``R`` with infinite rows) entry by entry.
    """
    exact = L.exact and R.exact
    left_strict = L.kind is TriangleKind.STRICT_TRIANGLE
    right_strict = R.kind is TriangleKind.STRICT_TRIANGLE
    kind = (TriangleKind.STRICT_TRIANGLE if left_strict and right_strict
            else TriangleKind.ROW_EVALUABLE)
    label = label or f"{L.label}*{R.label}"
    zero: Scalar = Fraction(0) if exact else 0.0

    row_support = None
    if left_strict and right_strict:
        row_support = lambda n: n
    elif L.row_support is not None and R.row_support is not None:
        lsup, rsup = L.row_support, R.row_support
        row_support = lambda n: max((rsup(j) for j in range(1, lsup(n) + 1)),
                                    default=0)
    elif left_row_bound is not None and R.row_support is not None:
        rsup = R.row_support
        cap = max((rsup(j) for j in range(1, left_row_bound + 1)), default=0)
        row_support = lambda n: cap

    def bound(n: int) -> int:
        if L.row_support is not None:
            return L.row_support(n)
        if left_row_bound is not None:
            return left_row_bound
        raise UnsupportedRowError(
            f"row {n} of {L.label or 'left factor'} has no finite support; "
            "pass an explicit row bound")

    if right_strict:
        # row j of R, and its nonzero (k-1, R(j,k)) pairs when at most half
        # of the row is nonzero
        right_rows: dict[int, tuple[list[Scalar], Optional[list]]] = {}

        def build_row(n: int) -> list[Scalar]:
            # acc[k-1] gathers L(n,j) R(j,k) over j >= k in ascending j, the
            # order of the entry-wise sum; a float product converts L(n,j)
            # once, as Fraction * float would on every term.  A term with
            # R(j,k) = 0 leaves acc[k-1] as it is (a float acc starts at +0.0
            # and never becomes -0.0), unless L(n,j) is not finite, when the
            # term is NaN
            J = bound(n)
            acc = [zero] * J
            for j, lv in enumerate(L.row(n, J), 1):
                if lv == 0:
                    continue
                right = right_rows.get(j)
                if right is None:
                    rrow = R.row(j, j)
                    nonzero = [(i, r) for i, r in enumerate(rrow) if r != 0]
                    right = right_rows[j] = (rrow, nonzero if 2 * len(nonzero) <= j else None)
                rrow, nonzero = right
                if not exact:
                    lv = float(lv)
                if nonzero is not None and (exact or math.isfinite(lv)):
                    for i, r in nonzero:
                        acc[i] = acc[i] + lv * r
                else:
                    acc[:j] = [a + lv * r for a, r in zip(acc, rrow)]
            return acc

        return TriangleOperator(build_row=build_row, kind=kind, row_support=row_support,
                                exact=exact, label=label)

    def rule(n: int, k: int) -> Scalar:
        total = zero
        for j in range(1, bound(n) + 1):
            lv = L.entry(n, j)
            if lv == 0:
                continue
            total += lv * R.entry(j, k)
        return total

    return TriangleOperator(rule, kind=kind, row_support=row_support, exact=exact,
                            label=label)
