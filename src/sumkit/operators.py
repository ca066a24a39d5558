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
from array import array
from enum import Enum
from fractions import Fraction
from itertools import zip_longest
from typing import Callable, NamedTuple, Optional

from .core import LazySequence, Scalar, as_fraction, checked_float, ones, running_sums
from .errors import InvalidWeightError, SingularTriangleError, UnsupportedRowError

# the scalar an integer-ratio row builder makes of p/q: Fraction(p, q) in
# exact mode, p / q in float mode
Ratio = Callable[[int, int], Scalar]


class WeightPair:
    """A pair (u, w) of everywhere-nonzero weight sequences.

    Nonzero-ness is checked lazily on access so that rules stay total and
    cheap; a zero term raises InvalidWeightError naming the offending index.
    The two difference terms and the pairing construction's weight state
    are kept once computed; a term that raises is not kept, so it raises
    again on the next access.
    """

    __slots__ = ("u", "w", "_w_diffs", "_recip_diffs", "_pairing")

    def __init__(self, u: LazySequence, w: LazySequence):
        self.u = u
        self.w = w
        self._w_diffs: dict[int, Scalar] = {}
        self._recip_diffs: dict[int, Scalar] = {}
        self._pairing: dict[bool, tuple[list, list]] = {}

    def __eq__(self, other):
        # the kept terms follow from (u, w); defining __eq__ leaves the pair unhashable
        if type(other) is not type(self):
            return NotImplemented
        return (self.u, self.w) == (other.u, other.w)

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

    def pairing_weights(self, integrated: bool, count: int) -> tuple[list, list]:
        """The weight state of the pairing construction (``duals.pairing_rows``)
        for int-bv (``integrated``) resp. d-bv, extended to its first
        ``count`` terms and shared by every row built on this pair:
        ``div[k]``, the checked divisor of lead_k (``k u_k w_k``, resp.
        ``u_k w_k``), and ``d[k] = recip_uw_diff(k)``.

        Each term is computed once, in the order div_1, d_1, div_2, d_2,
        ..., the order the entry-wise formula reads them along a row; row J
        reads the first 2J - 1.  A term that raises is not kept, so it
        raises again on the next read.
        """
        state = self._pairing.get(integrated)
        if state is None:
            state = self._pairing[integrated] = ([None], [None])
        div, d = state
        while len(div) + len(d) - 2 < count:
            k = len(div)
            if len(d) < k:
                d.append(self.recip_uw_diff(k - 1))
            elif integrated:
                div.append(uw_divisor(k * self.u_at(k) * self.w_at(k), k))
            else:
                div.append(uw_divisor(self.u_at(k) * self.w_at(k), k))
        return state

    def as_float(self) -> "WeightPair":
        return WeightPair(self.u.as_float(), self.w.as_float())

    @classmethod
    def all_ones(cls) -> "WeightPair":
        return cls(ones(), ones())


def uw_divisor(product: Scalar, k: int) -> Scalar:
    """``product``, the divisor u_k w_k (times a factor) as the caller
    computed it, refused when it is zero: a float product can underflow
    although neither weight is zero."""
    if product == 0:
        raise InvalidWeightError("u", k, f"times w[{k}] underflows to zero")
    return product


class TriangleKind(Enum):
    STRICT_TRIANGLE = "strict-triangle"
    ROW_EVALUABLE = "row-evaluable"


class MeanRows(NamedTuple):
    """Rows alpha_n (gamma_1, ..., gamma_{n-1}, beta_n) of a triangle T, each
    coefficient a rule ``n -> scalar``; ``gamma`` None means gamma = beta, a
    weighted mean.  With S_m = gamma_1 v_1 + ... + gamma_m v_m kept as it
    grows, term n of ``apply`` is alpha_n (S_{n-1} + beta_n x_n) and row n
    of ``product`` alpha_n (S_{n-1} + beta_n A_n); a weighted mean inverts
    as x_n = (y_n / alpha_n - y_{n-1} / alpha_{n-1}) / beta_n.  Term n
    reads alpha_n, the gamma_j not yet summed, then beta_n, and only then
    any x_j or row of A, as the generic paths build row n of T before they
    read x; the inverse reads alpha_i, then y_i, for i = 1..n ascending, as
    back-substitution does.
    """

    alpha: Callable[[int], Scalar]
    beta: Callable[[int], Scalar]
    gamma: Optional[Callable[[int], Scalar]] = None

    def _coefficients(self, summed: int, n: int) -> tuple:
        """alpha_n, the gamma_j for summed <= j < n, and beta_n, in that order."""
        alpha = self.alpha(n)
        gammas = [(self.gamma or self.beta)(j) for j in range(summed, n)]
        return alpha, gammas, self.beta(n)

    def apply(self, x: LazySequence, exact: bool) -> Callable[[int], Scalar]:
        S = [Fraction(0) if exact else 0.0]

        def rule(n: int) -> Scalar:
            alpha, gammas, beta = self._coefficients(len(S), n)
            for c in gammas:
                S.append(S[-1] + c * x.at(len(S)))
            s = S[n - 1] + beta * x.at(n)
            if self.gamma is None and len(S) == n:  # a weighted mean's S_n
                S.append(s)
            return alpha * s

        return rule

    def inverse(self, y: LazySequence, exact: bool) -> Callable[[int], Scalar]:
        q = [Fraction(0) if exact else 0.0]  # q[i] = y_i / alpha_i

        def rule(n: int) -> Scalar:
            while len(q) <= n:
                alpha = self.alpha(len(q))
                q.append(y.at(len(q)) / alpha)
            return (q[n] - q[n - 1]) / self.beta(n)

        return rule

    def product(self, A: "TriangleOperator", exact: bool, label: str) -> "TriangleOperator":
        """T A for a strict ``A`` in O(N^2) for N rows; the kept sums are
        ``array('d')`` rows in float mode, and a zero coefficient skips its
        row of A.  A float row is alpha_n times the sum of c_j A_j, where
        ``matrix_product`` sums (alpha_n c_j) A_j: the same value up to
        rounding, and bit for bit when alpha_n = 1."""
        zero = Fraction(0) if exact else 0.0
        S: list = [[]]

        def add_row(s, c: Scalar, j: int):
            # a kept sum is shorter than the row of A it meets: zeros pad it
            cells = [a + c * v for a, v in zip_longest(s, A.row(j, j), fillvalue=zero)]
            return cells if exact else array("d", cells)

        def build_row(n: int) -> list[Scalar]:
            alpha, gammas, beta = self._coefficients(len(S), n)
            for c in gammas:
                S.append(S[-1] if c == 0 else add_row(S[-1], c, len(S)))
            return [alpha * v for v in (S[n - 1] if beta == 0 else add_row(S[n - 1], beta, n))]

        return TriangleOperator(build_row=build_row, kind=TriangleKind.STRICT_TRIANGLE,
                                exact=exact, label=label)


class TriangleOperator:
    """An infinite matrix given by a pure entry rule ``(n, k) -> scalar``
    or by a row builder ``n -> [entry(n, 1), ..., entry(n, m)]``.

    STRICT_TRIANGLE means zero above the diagonal and nonzero on it, so
    rows are finite and back-substitution is available.  ROW_EVALUABLE
    matrices may have infinite rows; applying one needs either a declared
    per-row support or an explicit row truncation bound.

    A row builder is called at most once per row; the row is kept and
    entries past its end are zero, so it must cover the row's support.  A
    float operator keeps a row as an ``array('d')``, 8 bytes per cell, and
    reads each cell back bit for bit as a fresh float; a row of one nonzero
    value is kept as one value and its length, and reads give that value.
    Every finite-row matrix sumkit constructs is row-built.  An entry rule
    is memoized entry by entry; it serves only the ``expr:`` rule, whose
    read order is the contract, and infinite rows (``taylor:``,
    ``expr: --full``, products whose right factor has such rows).

    ``row(n, upto, start)`` is the one read of consecutive cells.

    ``mean`` declares the rows of a bv triangle or an exact Riesz or Cesàro
    mean (``MeanRows``) for ``apply_triangle``, ``invert_triangle`` and the
    target reductions, in either mode of the operand; ``as_float`` drops it.

    The rational classical matrices (Riesz, Cesàro, Euler, identity,
    difference) give a ratio row builder ``(n, ratio) -> row``: each entry
    is an integer ratio ``ratio(p, q)``, and the operator passes
    ``Fraction`` in exact mode and ``operator.truediv`` in float mode.
    ``p / q`` is the correctly rounded value of p/q, reduced or not, so a
    float row is bit-identical to rounding the exact row, and overflows
    where that rounding would.
    """

    __slots__ = ("_rule", "_build_row", "_ratio_row", "kind", "row_support", "exact",
                 "label", "mean", "_memo", "_rows")

    def __init__(self, rule: Optional[Callable[[int, int], Scalar]] = None, *,
                 kind: TriangleKind,
                 row_support: Optional[Callable[[int], int]] = None,
                 exact: bool = True, label: str = "",
                 mean: Optional[MeanRows] = None,
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
        self.mean = mean
        self._memo: Optional[dict[tuple[int, int], Scalar]] = (
            {} if rule is not None else None)
        self._rows: Optional[dict[int, list]] = {} if build_row is not None else None

    def zero(self) -> Scalar:
        return Fraction(0) if self.exact else 0.0

    def _built_row(self, n: int):
        row = self._rows.get(n)
        if row is None:
            row = self._build_row(n)
            # a row of one value (Cesàro's [1/n] * n, riesz:ones) is kept as
            # (value, length), and a read of it boxes no new float.  Equal
            # nonzero floats have equal bits; 0.0 == -0.0, so a row of zeros
            # is packed, keeping the sign of each
            if not self.exact and row:
                v = row[0]
                row = (v, len(row)) if v and row.count(v) == len(row) else array("d", row)
            self._rows[n] = row
        return row

    def entry(self, n: int, k: int) -> Scalar:
        if n < 1 or k < 1:
            raise IndexError(f"matrix indices start at 1, got ({n}, {k})")
        if self.kind is TriangleKind.STRICT_TRIANGLE and k > n:
            return self.zero()
        if self._rows is not None:
            row = self._built_row(n)
            if type(row) is tuple:
                return row[0] if k <= row[1] else self.zero()
            return row[k - 1] if k <= len(row) else self.zero()
        key = (n, k)
        v = self._memo.get(key)
        if v is None:
            v = self._rule(n, k)
            self._memo[key] = v
        return v

    def row(self, n: int, upto: int, start: int = 1) -> list[Scalar]:
        """The cells (n, start), ..., (n, upto) as a fresh list, empty when
        upto < start: a slice of the kept row, padded with zeros, or
        ``entry(n, k)`` for each k in ascending order.  A packed float row
        gives a fresh float per cell, a one-value row its one value."""
        if self._rows is None or n < 1 or start < 1:
            return [self.entry(n, k) for k in range(start, upto + 1)]
        row = self._built_row(n)
        if type(row) is tuple:
            cells = [row[0]] * (min(upto, row[1]) - start + 1)
        else:
            cells = row[start - 1:upto]
            if type(cells) is array:
                cells = cells.tolist()
        missing = upto - start + 1 - len(cells)
        return cells + [self.zero()] * missing if missing > 0 else cells

    def extent(self, n: int, bound: Optional[int] = None) -> int:
        """The last column row ``n`` is read to: its declared support, else
        ``bound``; with neither, UnsupportedRowError."""
        if self.row_support is not None:
            return self.row_support(n)
        if bound is None:
            raise UnsupportedRowError(
                f"row {n} of {self.label or 'matrix'} has no finite support; "
                "pass an explicit row bound")
        return bound

    def as_float(self) -> "TriangleOperator":
        """The float operator of the same shape, holding only float values.

        A ratio row builder is called with float division, so its rows are
        never built exactly; any other row builder (products, weight
        triangles, kernels, a caller's builder) has its exact rows rounded
        entry by entry; a rule-based operator becomes a float memo over the
        bare exact rule.  No exact row or entry is kept.  A rounded entry too
        large for a float raises ValueError naming (n, k).
        """
        if not self.exact:
            return self
        build, rule, label = self._build_row, self._rule, self.label
        if self._ratio_row is not None:
            return TriangleOperator(ratio_row=self._ratio_row, kind=self.kind,
                                    row_support=self.row_support, exact=False, label=label)
        name = label or "a matrix"
        if build is not None:
            def build_row(n: int) -> list[float]:
                return [checked_float(v, "entry", (n, k), name)
                        for k, v in enumerate(build(n), 1)]

            return TriangleOperator(build_row=build_row, kind=self.kind,
                                    row_support=self.row_support, exact=False, label=label)
        # only expr: and infinite rows (taylor:) are rule-based; they stay
        # entry by entry, as the order entries are read in decides the first
        # error an ill-defined rule raises
        return TriangleOperator(lambda n, k: checked_float(rule(n, k), "entry", (n, k), name),
                                kind=self.kind, row_support=self.row_support,
                                exact=False, label=label)


# ---------------------------------------------------------------------------
# Derived triangles
# ---------------------------------------------------------------------------


def _bv_triangle(wp: WeightPair, integrated: bool) -> TriangleOperator:
    # f(n) = n for the integrated triangle, 1/n for the differentiated one
    if integrated:
        factor = Fraction if wp.exact else float
    else:
        factor = (lambda n: Fraction(1, n)) if wp.exact else (lambda n: 1.0 / n)

    def build_row(n: int) -> list[Scalar]:
        u = wp.u_at(n)
        row = [factor(k) * u * wp.w_forward_diff(k) for k in range(1, n)]
        row.append(factor(n) * u * wp.w_at(n))
        return row

    mean = MeanRows(wp.u_at, lambda n: factor(n) * wp.w_at(n),
                    lambda j: factor(j) * wp.w_forward_diff(j))
    return TriangleOperator(build_row=build_row, kind=TriangleKind.STRICT_TRIANGLE,
                            exact=wp.exact, mean=mean,
                            label="integrated-bv" if integrated else "differentiated-bv")


def integrated_triangle(wp: WeightPair) -> TriangleOperator:
    return _bv_triangle(wp, integrated=True)


def differentiated_triangle(wp: WeightPair) -> TriangleOperator:
    return _bv_triangle(wp, integrated=False)


# ---------------------------------------------------------------------------
# Application and inversion
# ---------------------------------------------------------------------------


def apply_triangle(T: TriangleOperator, x: LazySequence,
                   row_bound: Optional[int] = None) -> LazySequence:
    """The matrix transform ``y = T x`` as a lazy sequence.

    An operator that declares its rows (``mean``) applies by its
    recurrence, whatever the mode of ``x``.  Otherwise term n reads row n
    once and sums it in ascending k: strict triangles sum their finite rows;
    row-evaluable matrices use the declared row support, falling back to
    ``row_bound`` when given, and raise UnsupportedRowError otherwise.
    """
    exact = T.exact and x.exact
    if T.mean is not None:
        return LazySequence(T.mean.apply(x, exact), exact=exact, label=f"{T.label}*{x.label}")

    def rule(n: int) -> Scalar:
        total = Fraction(0) if exact else 0.0
        for k, v in enumerate(T.row(n, T.extent(n, row_bound)), 1):
            total += v * x.at(k)
        return total

    return LazySequence(rule, exact=exact, label=f"{T.label}*{x.label}")


def invert_triangle(T: TriangleOperator, y: LazySequence) -> LazySequence:
    """The solve of ``T x = y`` for a strict triangle, as a lazy sequence.

    A declared weighted mean (exact Riesz and Cesàro means) inverts by its
    recurrence, whatever the mode of ``y``.  Otherwise term n is found by
    back-substitution over rows 1..n in ascending order; that is the
    defining oracle used to cross-check every closed form and recurrence.
    """
    name = T.label or "matrix"
    if T.kind is not TriangleKind.STRICT_TRIANGLE:
        raise SingularTriangleError(None, name)
    exact = T.exact and y.exact
    if T.mean is not None and T.mean.gamma is None:
        return LazySequence(T.mean.inverse(y, exact), exact=exact,
                            label=f"{T.label}^-1*{y.label}")
    memo: dict[int, Scalar] = {}

    def ensure(n: int) -> None:
        for i in range(1, n + 1):
            if i in memo:
                continue
            diag = T.entry(i, i)
            if diag == 0:
                raise SingularTriangleError(i, name)
            acc = y.at(i)
            for k, v in enumerate(T.row(i, i - 1), 1):
                acc = acc - v * memo[k]
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
        return pref(k - 1) + y.at(k) / uw_divisor(wp.u_at(k) * wp.w_at(k), k)

    return core, exact


def integrated_inverse(wp: WeightPair, y: LazySequence) -> LazySequence:
    """Closed-form solve of (integrated triangle) x = y:
    x_k = (1/k) * [ sum_{j<k} (1/u_j)(1/w_j - 1/w_{j+1}) y_j + y_k/(u_k w_k) ].
    """
    core, exact = _inverse_core(wp, y)
    return LazySequence(lambda k: core(k) / k, exact=exact, label="integrated-inverse")


def differentiated_inverse(wp: WeightPair, y: LazySequence) -> LazySequence:
    """Closed-form solve of (differentiated triangle) x = y:
    x_k = k * [ sum_{j<k} (1/u_j)(1/w_j - 1/w_{j+1}) y_j + y_k/(u_k w_k) ].
    """
    core, exact = _inverse_core(wp, y)
    return LazySequence(lambda k: core(k) * k, exact=exact, label="differentiated-inverse")


# ---------------------------------------------------------------------------
# Classical matrices (all converted to 1-based indexing on construction)
# ---------------------------------------------------------------------------


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

    Over exact t_k it declares its rows (alpha_n = 1/T_n, beta = t); a
    float operator (float weights, or ``as_float``) sums entry by entry.

    Requires strictly positive t_k; checked lazily on access.  Row n takes
    the total T_n = A/B first, which checks t_1..t_n in order.  Over exact
    t_k = a_k/b_k the float entry is the integer ratio a_k B / (b_k A), one
    correctly rounded division per entry that never builds the exact row;
    a_k and b_k are kept in two int lists as the total checks t_k, so t_k
    is read once whatever rows are built.  The exact entry is the quotient
    t_k / T_n, which cancels through the gcds of the small a_k, b_k with
    A, B where ``Fraction(a_k B, b_k A)`` would take a gcd of two row-sized
    integers.  Float weights are divided by the float total.
    """
    # a_k and b_k of each exact t_k = a_k/b_k the total has checked
    nums: list[int] = []
    dens: list[int] = []

    def positive(k: int) -> Scalar:
        tk = t.at(k)
        if tk <= 0:
            raise InvalidWeightError("t", k, "must be positive for a Riesz matrix")
        if t.exact:
            nums.append(tk.numerator)
            dens.append(tk.denominator)
        return tk

    total = running_sums(positive, t.zero())

    def ratio_row(n: int, ratio: Ratio) -> list[Scalar]:
        tot = total(n)
        if not t.exact or ratio is Fraction:
            return [t.at(k) / tot for k in range(1, n + 1)]
        num, den = tot.numerator, tot.denominator
        return [ratio(a * den, b * num) for a, b in zip(nums[:n], dens[:n])]

    # alpha_n checks t_1..t_n before a recurrence reads any term
    mean = MeanRows(lambda n: 1 / total(n), t.at) if t.exact else None
    return TriangleOperator(ratio_row=ratio_row, kind=TriangleKind.STRICT_TRIANGLE,
                            exact=t.exact, label=f"riesz:{t.label or 't'}", mean=mean)


def cesaro_matrix() -> TriangleOperator:
    """The Riesz matrix of t = ones: row n is n copies of 1/n, read from
    no weight sequence.  Exact, it applies as S_n / n and inverts as
    x_n = n y_n - (n-1) y_{n-1} (``MeanRows``); ``as_float`` sums entry by
    entry."""
    return TriangleOperator(ratio_row=lambda n, ratio: [ratio(1, n)] * n,
                            kind=TriangleKind.STRICT_TRIANGLE, label="cesaro",
                            mean=MeanRows(lambda n: Fraction(1, n), lambda n: 1))


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
    composite: bool  # its bounded domain is a composite target


MATRIX_FAMILIES = {
    "identity": MatrixFamily(identity_matrix, None, False),
    "cesaro": MatrixFamily(cesaro_matrix, None, True),
    "difference": MatrixFamily(difference_matrix, None, False),
    "euler": MatrixFamily(euler_matrix, "rational", True),
    "taylor": MatrixFamily(taylor_matrix, "rational", True),
    "riesz": MatrixFamily(riesz_matrix, "weights", True),
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
    and of ``R`` once; otherwise (``R`` with infinite rows) entry by entry,
    reading row n of ``L`` and column k of ``R``.  It reads its factors only
    through ``row`` and ``entry``: the generic oracle of ``classes._compose``.
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

    if right_strict:
        # row j of R: its nonzero (k-1, R(j,k)) pairs when at most half of
        # the row is nonzero, else the dense row, packed as an array('d') in
        # float mode, as ``row`` hands out a fresh float per cell
        right_rows: dict[int, tuple[Optional[list], Optional[list]]] = {}

        def build_row(n: int) -> list[Scalar]:
            # acc[k-1] gathers L(n,j) R(j,k) over j >= k in ascending j, the
            # order of the entry-wise sum.  A term with R(j,k) = 0 leaves
            # acc[k-1] as it is (a float acc starts at +0.0 and never becomes
            # -0.0), unless L(n,j) is not finite, when the term is NaN
            J = L.extent(n, left_row_bound)
            acc = [zero] * J
            for j, lv in enumerate(L.row(n, J), 1):
                if lv == 0:
                    continue
                right = right_rows.get(j)
                if right is None:
                    rrow = R.row(j, j)
                    nonzero = [(i, r) for i, r in enumerate(rrow) if r != 0]
                    if 2 * len(nonzero) <= j:
                        right = nonzero, None
                    else:
                        right = None, rrow if exact else array("d", rrow)
                    right_rows[j] = right
                nonzero, dense = right
                if nonzero is not None and (exact or math.isfinite(lv)):
                    for i, r in nonzero:
                        acc[i] = acc[i] + lv * r
                else:
                    acc[:j] = [a + lv * r for a, r in zip(acc, dense or R.row(j, j))]
            return acc

        return TriangleOperator(build_row=build_row, kind=kind, row_support=row_support,
                                exact=exact, label=label)

    def rule(n: int, k: int) -> Scalar:
        total = zero
        for j, lv in enumerate(L.row(n, L.extent(n, left_row_bound)), 1):
            if lv != 0:
                total += lv * R.entry(j, k)
        return total

    return TriangleOperator(rule, kind=kind, row_support=row_support, exact=exact,
                            label=label)
