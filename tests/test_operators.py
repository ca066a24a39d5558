"""Tests for the weighted triangles, their inverses and classical matrices."""

import math
import random
import struct
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sumkit.classes import reduce_target_d_bv, reduce_target_int_bv
from sumkit.core import LazySequence, harmonic, ones, powers
from sumkit.duals import DualMatrixKind, dual_kernel_matrix
from sumkit.errors import (
    InvalidWeightError,
    SingularTriangleError,
    UnsupportedRowError,
)
from sumkit.minilang import parse_matrix_spec, parse_sequence_spec, parse_weight_spec
from sumkit.operators import (
    TriangleKind,
    TriangleOperator,
    WeightPair,
    apply_triangle,
    cesaro_matrix,
    classical_matrix,
    difference_matrix,
    differentiated_inverse,
    differentiated_triangle,
    euler_matrix,
    identity_matrix,
    integrated_inverse,
    integrated_triangle,
    invert_triangle,
    matrix_product,
    riesz_matrix,
    taylor_matrix,
)
from sumkit.spaces import SpaceName, basis_column, basis_tabulated_discrepancies

from conftest import random_sequence, random_weight_pair
from test_acceptance import SEED, exact_sequence, weight_pair

WP_ONES = WeightPair.all_ones()
WP_HARM = WeightPair(ones(), harmonic())
_HUGE = Fraction(10) ** 400  # too large for a float

# row-built and rule-based, strict and row-evaluable (a bounded product has
# a declared support, the rule-based ones infinite rows)
_ROW_RANGE_MATRICES = {
    "cesaro": cesaro_matrix,
    "integrated": lambda: integrated_triangle(WP_HARM),
    "bounded-product": lambda: matrix_product(taylor_matrix(Fraction(1, 2)), cesaro_matrix(),
                                              left_row_bound=6),
    "expr-strict": lambda: parse_matrix_spec("expr:(n-2*k)/(n+k)").operator,
    "expr-full": lambda: parse_matrix_spec("expr:(k-n)/(n*k+1)", full=True).operator,
    "taylor": lambda: taylor_matrix(Fraction(1, 3)),
}


class TestWeightPair:
    def test_zero_weight_is_named(self):
        wp = WeightPair(LazySequence.from_terms([1, 0, 3]), ones())
        with pytest.raises(InvalidWeightError) as exc:
            wp.u_at(2)
        assert exc.value.which == "u"
        assert exc.value.index == 2
        assert wp.u_at(1) == 1

    def test_diffs(self):
        assert WP_HARM.w_forward_diff(2) == Fraction(1, 2) - Fraction(1, 3)
        assert WP_HARM.recip_uw_diff(2) == -1  # 1 * (2 - 3)

    @pytest.mark.parametrize("exact", [True, False])
    def test_diffs_are_kept_and_a_failing_one_raises_again(self, exact):
        def weight(*terms):
            seq = LazySequence.from_terms(terms)
            return seq if exact else seq.as_float()

        wp = WeightPair(weight(1, 0, 3, 5), weight(2, 4, 0, 7, 1))
        for diff, k, which, index in [(wp.w_forward_diff, 2, "w", 3),
                                      (wp.recip_uw_diff, 2, "u", 2),
                                      (wp.recip_uw_diff, 3, "w", 3)]:
            for _ in range(2):
                with pytest.raises(InvalidWeightError) as exc:
                    diff(k)
                assert (exc.value.which, exc.value.index) == (which, index)
        u4, w4, w5 = wp.u.at(4), wp.w.at(4), wp.w.at(5)
        assert wp.w_forward_diff(4) == w4 - w5
        assert wp.recip_uw_diff(4) == (1 / u4) * (1 / w4 - 1 / w5)
        # kept, not recomputed
        assert wp.w_forward_diff(4) is wp.w_forward_diff(4)
        assert wp.recip_uw_diff(4) is wp.recip_uw_diff(4)
        assert WeightPair(wp.u, wp.w) == wp

    def test_as_float(self):
        fp = WP_HARM.as_float()
        assert not fp.exact
        assert fp.w_at(4) == pytest.approx(0.25)


class TestTriangleEntries:
    def test_weighted_mean(self):
        # a row-built triangle answers entries from its rows, zero above them
        T = _weighted_mean_triangle(WP_ONES)
        assert T.entry(3, 2) == 1
        assert _weighted_mean_triangle(WP_HARM).entry(4, 2) == Fraction(1, 2)
        assert T.entry(2, 5) == 0  # strictly above the diagonal

    def test_integrated_ones_is_diag_n(self):
        G = integrated_triangle(WP_ONES)
        for n in range(1, 8):
            assert G.entry(n, n) == n
            for k in range(1, n):
                assert G.entry(n, k) == 0

    def test_integrated_harmonic_entries(self):
        G = integrated_triangle(WP_HARM)
        assert G.entry(5, 2) == Fraction(1, 3)  # 2 * (1/2 - 1/3)
        assert G.entry(3, 3) == 1               # 3 * (1/3)
        assert G.entry(2, 5) == 0

    def test_differentiated_entries(self):
        D = differentiated_triangle(WP_HARM)
        assert D.entry(5, 2) == Fraction(1, 12)  # (1/2) * (1/2 - 1/3)
        assert D.entry(4, 4) == Fraction(1, 16)  # (1/4) * (1/4)
        assert D.entry(2, 5) == 0
        assert differentiated_triangle(WP_ONES).entry(7, 7) == Fraction(1, 7)

    def test_differentiated_is_integrated_over_k_squared(self):
        rng = random.Random(7)
        wp = random_weight_pair(rng)
        G, D = integrated_triangle(wp), differentiated_triangle(wp)
        for n in range(1, 13):
            for k in range(1, n + 1):
                assert D.entry(n, k) == G.entry(n, k) / Fraction(k * k)

    def test_indices_start_at_one(self):
        with pytest.raises(IndexError):
            integrated_triangle(WP_ONES).entry(0, 1)

    def test_truncation_block(self):
        G = integrated_triangle(WP_ONES)
        block = [G.row(i, 3) for i in range(1, 4)]
        assert block == [[1, 0, 0], [0, 2, 0], [0, 0, 3]]

    @pytest.mark.parametrize("name", list(_ROW_RANGE_MATRICES))
    @pytest.mark.parametrize("exact", [True, False])
    def test_row_range_is_the_entries(self, name, exact):
        # whole rows, rows past the diagonal or the support, a start past
        # the row's end, one cell, and upto < start (no cells)
        def make():
            A = _ROW_RANGE_MATRICES[name]()
            return A if exact else A.as_float()

        A, B = make(), make()
        for n, upto, start in [(1, 1, 1), (5, 5, 1), (5, 9, 3), (5, 9, 7), (6, 6, 6),
                               (7, 12, 12), (5, 3, 4), (4, 0, 1), (9, 8, 9)]:
            want = [B.entry(n, k) for k in range(start, upto + 1)]
            assert repr(A.row(n, upto, start)) == repr(want), (n, upto, start)

    def test_row_range_reads_a_rule_as_entry_does(self):
        # each new cell once, in ascending k; a kept cell is not read again
        calls = []

        def rule(n, k):
            calls.append((n, k))
            return Fraction(n, k)

        T = TriangleOperator(rule, kind=TriangleKind.ROW_EVALUABLE)
        assert T.row(4, 7, 3) == [Fraction(4, k) for k in range(3, 8)]
        assert T.row(4, 8, 2) == [Fraction(4, k) for k in range(2, 9)]
        assert T.row(4, 1, 2) == []
        assert calls == [(4, k) for k in range(3, 8)] + [(4, 2), (4, 8)]

    def test_row_range_is_a_fresh_list(self):
        T = cesaro_matrix()
        T.row(3, 3, 2)[0] = 99
        T.row(3, 3)[0] = 99
        assert T.row(3, 3) == [Fraction(1, 3)] * 3


class TestApply:
    def test_integrated_ones_scales_by_n(self):
        y = apply_triangle(integrated_triangle(WP_ONES), harmonic())
        assert y.prefix(5) == [1, 1, 1, 1, 1]

    def test_integrated_harmonic_on_unit(self):
        y = apply_triangle(integrated_triangle(WP_HARM), LazySequence.unit(1))
        assert y.prefix(4) == [1, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)]

    def test_differentiated_ones_on_linear(self):
        y = apply_triangle(differentiated_triangle(WP_ONES), powers(1))
        assert y.prefix(6) == [1, 1, 1, 1, 1, 1]

    def test_fast_path_matches_generic_row_sums(self):
        rng = random.Random(21)
        wp = random_weight_pair(rng)
        x = random_sequence(rng, 50)
        special = integrated_triangle(wp)
        assert special.mean is not None
        generic = TriangleOperator(special.entry, kind=TriangleKind.STRICT_TRIANGLE)
        lhs = apply_triangle(special, x)
        rhs = apply_triangle(generic, x)
        assert lhs.prefix(50) == rhs.prefix(50)

    def test_row_evaluable_needs_bound(self):
        T = taylor_matrix(Fraction(1, 2))
        y = apply_triangle(T, ones())
        with pytest.raises(UnsupportedRowError):
            y.at(1)
        bounded = apply_triangle(T, LazySequence.unit(1), row_bound=64)
        assert bounded.at(1) == Fraction(1, 2)
        assert bounded.at(2) == 0

    def test_extent_is_the_declared_support(self):
        # a declared support wins over a bound
        assert cesaro_matrix().extent(7) == cesaro_matrix().extent(7, 3) == 7

    def test_extent_falls_back_to_the_bound(self):
        assert taylor_matrix(Fraction(1, 2)).extent(7, 40) == 40

    def test_extent_without_support_or_bound_names_the_row(self):
        with pytest.raises(UnsupportedRowError) as info:
            taylor_matrix(Fraction(1, 2)).extent(7)
        assert str(info.value) == ("row 7 of taylor:1/2 has no finite support; "
                                   "pass an explicit row bound")
        unlabeled = TriangleOperator(lambda n, k: Fraction(1), kind=TriangleKind.ROW_EVALUABLE)
        with pytest.raises(UnsupportedRowError, match="^row 3 of matrix has"):
            unlabeled.extent(3)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=25),
           st.lists(st.integers(-20, 20), min_size=1, max_size=25),
           st.integers(-5, 5), st.integers(-5, 5))
    def test_linearity(self, xs, zs, a, b):
        x = LazySequence.from_terms([Fraction(v) for v in xs])
        z = LazySequence.from_terms([Fraction(v) for v in zs])
        G = integrated_triangle(WP_HARM)
        lhs = apply_triangle(G, _combine(a, x, b, z))
        rhs = _combine(a, apply_triangle(G, x), b, apply_triangle(G, z))
        n = max(len(xs), len(zs)) + 2
        assert lhs.prefix(n) == rhs.prefix(n)


def _combine(a, x, b, z):
    """The sequence a x + b z, for integers a and b."""
    return LazySequence(lambda k: a * x.at(k) + b * z.at(k))


class TestInverses:
    def test_back_substitution_oracle(self):
        y = powers(1)  # y_n = n
        x = invert_triangle(integrated_triangle(WP_ONES), y)
        assert x.prefix(6) == [1, 1, 1, 1, 1, 1]

    def test_integrated_inverse_frozen_example(self):
        # weights u = ones, w = 1/k; solving on e1 gives
        # x1 = 1 and then 1/2 * x1 + 1 * x2 = 0, so x2 = -1/2
        x = integrated_inverse(WP_HARM, LazySequence.unit(1))
        assert x.at(1) == 1
        assert x.at(2) == Fraction(-1, 2)

    def test_ones_closed_forms(self):
        y = random_sequence(random.Random(3), 20)
        xi = integrated_inverse(WP_ONES, y)
        xd = differentiated_inverse(WP_ONES, y)
        for k in range(1, 21):
            assert xi.at(k) == y.at(k) / Fraction(k)
            assert xd.at(k) == y.at(k) * k

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_closed_forms_match_oracle(self, seed):
        rng = random.Random(seed)
        wp = random_weight_pair(rng)
        y = random_sequence(rng, 64)
        gi = invert_triangle(integrated_triangle(wp), y)
        gd = invert_triangle(differentiated_triangle(wp), y)
        ci = integrated_inverse(wp, y)
        cd = differentiated_inverse(wp, y)
        assert ci.prefix(64) == gi.prefix(64)
        assert cd.prefix(64) == gd.prefix(64)

    @pytest.mark.parametrize("seed", [31, 32])
    def test_roundtrips(self, seed):
        rng = random.Random(seed)
        wp = random_weight_pair(rng)
        x = random_sequence(rng, 48)
        G = integrated_triangle(wp)
        assert integrated_inverse(wp, apply_triangle(G, x)).prefix(48) == x.prefix(48)
        D = differentiated_triangle(wp)
        y = random_sequence(rng, 48)
        assert apply_triangle(D, differentiated_inverse(wp, y)).prefix(48) == y.prefix(48)

    def test_inverting_non_triangle_fails(self):
        with pytest.raises(SingularTriangleError) as exc:
            invert_triangle(taylor_matrix(Fraction(1, 2)), ones())
        assert exc.value.row is None
        assert str(exc.value) == "cannot invert taylor:1/2: inversion needs a strict triangle"

    def test_zero_diagonal_is_reported(self):
        T = TriangleOperator(
            lambda n, k: Fraction(0) if n == k == 3 else Fraction(1 if n == k else 0),
            kind=TriangleKind.STRICT_TRIANGLE)
        x = invert_triangle(T, ones())
        assert x.at(2) == 1
        with pytest.raises(SingularTriangleError) as exc:
            x.at(3)
        assert exc.value.row == 3


class TestBasisColumns:
    def test_ones_diagonal_cases(self):
        s = basis_column("int-bv", WP_ONES, 3)
        assert s.prefix(5) == [0, 0, Fraction(1, 3), 0, 0]
        t = basis_column("d-bv", WP_ONES, 3)
        assert t.prefix(5) == [0, 0, 3, 0, 0]

    @pytest.mark.parametrize("space", ["int-bv", "d-bv"])
    def test_defining_identity(self, space):
        rng = random.Random(5)
        wp = random_weight_pair(rng)
        T = integrated_triangle(wp) if space == "int-bv" else differentiated_triangle(wp)
        for k in (1, 2, 7):
            col = basis_column(space, wp, k)
            image = apply_triangle(T, col)
            assert image.prefix(24) == LazySequence.unit(k).prefix(24)

    @staticmethod
    def acceptance_2_cases():
        """The weight pairs and unit columns of acceptance test 2."""
        rng = random.Random(SEED + 1)
        for _ in range(20):
            wp = weight_pair(rng)
            exact_sequence(rng, 64)
            yield wp, rng.sample(range(1, 65), 4)

    def test_closed_form_matches_back_substitution(self):
        for wp, ks in self.acceptance_2_cases():
            for space, triangle in (("int-bv", integrated_triangle),
                                    ("d-bv", differentiated_triangle)):
                T = triangle(wp)
                for k in ks:
                    oracle = invert_triangle(T, LazySequence.unit(k))
                    assert basis_column(space, wp, k).prefix(64) == oracle.prefix(64)

    def test_float_columns_round_the_exact_ones(self):
        for wp, ks in self.acceptance_2_cases():
            for space in ("int-bv", "d-bv"):
                for k in ks:
                    exact = basis_column(space, wp, k).prefix(64)
                    floats = basis_column(space, wp.as_float(), k).prefix(64)
                    for f, e in zip(floats, exact):
                        assert f == pytest.approx(float(e), rel=1e-12, abs=0)

    def test_tabulated_form_agrees_when_u_equals_w(self):
        wp = WeightPair(harmonic(), harmonic())
        assert basis_tabulated_discrepancies("int-bv", wp, 3, 20) == []
        assert basis_tabulated_discrepancies("d-bv", wp, 2, 20) == []

    def test_tabulated_form_diverges_otherwise(self):
        # u = ones, w = 1/k: the tabulated factor uses u_{k+1} where the
        # defining identity needs w_{k+1}, so every sub-diagonal entry is off
        bad = basis_tabulated_discrepancies("int-bv", WP_HARM, 3, 12)
        assert bad == list(range(4, 13))
        tab = _basis_column_tabulated("int-bv", WP_HARM, 3)
        oracle = basis_column("int-bv", WP_HARM, 3)
        assert tab.at(3) == oracle.at(3)  # the diagonal entry still matches
        assert tab.at(4) != oracle.at(4)

    @pytest.mark.parametrize("space", ["int-bv", "d-bv"])
    def test_criterion_matches_the_tabulated_oracle(self, space):
        # the criterion u_{k+1} != w_{k+1} against a position-by-position
        # comparison, in exact arithmetic, of the tabulated form with the
        # column; float pairs are compared through their exact values
        rng = random.Random(SEED + 2)
        third = LazySequence(lambda k: Fraction(1, 3))
        pairs = [WeightPair(third, LazySequence(lambda k: Fraction(1 / 3)))]
        for _ in range(3):
            wp = random_weight_pair(rng)
            pairs += [wp, WeightPair(wp.u, wp.u)]
        warned = set()
        for wp in pairs:
            for pair in (wp, wp.as_float()):
                exact = WeightPair(LazySequence(lambda j, u=pair.u: Fraction(u.at(j))),
                                   LazySequence(lambda j, w=pair.w: Fraction(w.at(j))))
                for k in range(1, 13):
                    column = basis_column(space, exact, k)
                    tab = _basis_column_tabulated(space, exact, k)
                    for n_max in (k - 1, k, k + 1, 40):
                        want = [n for n in range(1, n_max + 1) if column.at(n) != tab.at(n)]
                        assert basis_tabulated_discrepancies(space, pair, k, n_max) == want
                        warned.add(bool(want))
        assert warned == {False, True}

    def test_a_zero_weight_after_k_still_raises(self):
        wp = WeightPair(LazySequence.from_terms([1, 2, 0, 4]), harmonic())
        with pytest.raises(InvalidWeightError, match=r"u\[3\]"):
            basis_tabulated_discrepancies("int-bv", wp, 2, 6)
        assert basis_tabulated_discrepancies("int-bv", wp, 3, 3) == []

    def test_a_bad_space_name_raises(self):
        with pytest.raises(ValueError):
            basis_tabulated_discrepancies("l1", WP_HARM, 3, 12)


def _basis_column_tabulated(space, wp, k):
    """The tabulated closed form of basis column ``k`` on an exact pair,
    kept as the oracle of ``basis_tabulated_discrepancies``: past k it reads
    u_{k+1} where the defining identity reads w_{k+1}."""
    int_bv = SpaceName(space) is SpaceName.INT_BV

    def rule(n):
        if n < k:
            return Fraction(0)
        if n == k:
            diag = wp.u_at(k) * wp.w_at(k)
            return 1 / (n * diag) if int_bv else n / diag
        factor = 1 / (wp.u_at(k) * wp.w_at(k)) - 1 / (wp.u_at(k) * wp.u_at(k + 1))
        return factor / n if int_bv else factor * n

    return LazySequence(rule, label="basis-tabulated")


class TestClassicalMatrices:
    def test_euler_rows_sum_to_one(self):
        E = euler_matrix(Fraction(1, 3))
        for n in range(1, 21):
            assert sum(E.row(n, n)) == 1

    def test_euler_entry(self):
        E = euler_matrix(Fraction(1, 2))
        # row 3: (1/4, 2/4, 1/4)
        assert E.row(3, 3) == [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)]

    @pytest.mark.parametrize("r", [0, 1, Fraction(3, 2), -1])
    def test_euler_parameter_range(self, r):
        with pytest.raises(ValueError):
            euler_matrix(r)

    def test_cesaro(self):
        C = cesaro_matrix()
        assert C.row(3, 3) == [Fraction(1, 3)] * 3
        assert C.entry(5, 6) == 0

    def test_riesz(self):
        R = riesz_matrix(harmonic())
        # T_3 = 1 + 1/2 + 1/3 = 11/6; entry(3,2) = (1/2) / (11/6) = 3/11
        assert R.entry(3, 2) == Fraction(3, 11)

    def test_riesz_rejects_nonpositive_weights(self):
        R = riesz_matrix(LazySequence.from_terms([1, -1, 3]))
        assert R.entry(1, 1) == 1
        with pytest.raises(InvalidWeightError):
            R.entry(2, 1)

    def test_taylor_row_one_is_geometric(self):
        T = taylor_matrix(Fraction(1, 2))
        assert T.kind is TriangleKind.ROW_EVALUABLE
        for k in range(1, 10):
            assert T.entry(1, k) == Fraction(1, 2**k)
        assert T.entry(3, 2) == 0  # below the diagonal this time

    def test_taylor_entry(self):
        T = taylor_matrix(Fraction(1, 2))
        # C(4,1) * (1/2)^2 * (1/2)^3 = 4/32
        assert T.entry(2, 5) == Fraction(1, 8)

    def test_taylor_row_tail_is_exact(self):
        # every Taylor row sums to 1, so the mass beyond column 64 is exact
        T = taylor_matrix(Fraction(1, 2))
        tail = 1 - sum(T.row(1, 64))
        assert tail == Fraction(1, 2**64)
        partial = sum(T.entry(2, j) for j in range(2, 65))
        assert 1 - sum(T.row(2, 64, 2)) == 1 - partial
        assert float(tail) < 1e-12

    def test_difference_and_identity(self):
        D = difference_matrix()
        assert D.row(3, 3) == [0, -1, 1]
        I = identity_matrix()
        assert I.row(3, 3) == [0, 0, 1]

    def test_dispatcher(self):
        assert classical_matrix("identity").entry(2, 2) == 1
        assert classical_matrix("euler", Fraction(1, 2)).entry(3, 2) == Fraction(1, 2)
        with pytest.raises(ValueError):
            classical_matrix("hilbert")
        with pytest.raises(ValueError):
            classical_matrix("riesz")


def euler_entry(r, n, k):
    """The closed form C(n-1, k-1) (1-r)^(n-k) r^(k-1), in rationals."""
    return math.comb(n - 1, k - 1) * (1 - r) ** (n - k) * r ** (k - 1)


def riesz_entry(t, n, k):
    """The closed form t_k / (t_1 + ... + t_n), summed afresh."""
    return t.at(k) / sum(t.at(j) for j in range(1, n + 1))


RIESZ_WEIGHTS = {
    "ones": ones,
    "harmonic": harmonic,
    "power:-2": lambda: powers(-2),
    "explicit": lambda: parse_weight_spec("3,1/2,4,1,5/3")[0],
}


# The entry rules the row builders replaced, kept as oracles.  Each reads
# its operands in the order the row builder must read them along a row.


def identity_rule(n, k):
    return Fraction(1) if n == k else Fraction(0)


def difference_rule(n, k):
    if k == n:
        return Fraction(1)
    if k == n - 1:
        return Fraction(-1)
    return Fraction(0)


def weighted_mean_rule(wp):
    return lambda n, k: wp.u_at(n) * wp.w_at(k)


def bv_rule(wp, integrated):
    if wp.exact:
        factor = Fraction if integrated else (lambda n: Fraction(1, n))
    else:
        factor = float if integrated else (lambda n: 1.0 / n)

    def rule(n, k):
        if k == n:
            return factor(n) * wp.u_at(n) * wp.w_at(n)
        return factor(k) * wp.u_at(n) * wp.w_forward_diff(k)

    return rule


def alpha_rule(a, wp, integrated):
    def rule(n, k):
        if k == n:
            core = a.at(n) / (wp.u_at(n) * wp.w_at(n))
        else:
            core = wp.recip_uw_diff(k) * a.at(n)
        return core / n if integrated else core * n

    return rule


def _row_built_case(name, wp, a):
    """The row-built operator ``name`` over ``wp`` (and ``a`` for the alpha
    kernels) with its oracle entry rule on k <= n."""
    if name in ("identity", "difference"):
        M, rule = {"identity": (identity_matrix(), identity_rule),
                   "difference": (difference_matrix(), difference_rule)}[name]
        if wp.exact:
            return M, rule
        return M.as_float(), lambda n, k: float(rule(n, k))
    if name == "weighted-mean":
        return _weighted_mean_triangle(wp), weighted_mean_rule(wp)
    if name == "integrated-bv":
        return integrated_triangle(wp), bv_rule(wp, True)
    if name == "differentiated-bv":
        return differentiated_triangle(wp), bv_rule(wp, False)
    kind = DualMatrixKind(name)
    return (dual_kernel_matrix(kind, a, wp),
            alpha_rule(a, wp, kind is DualMatrixKind.ALPHA_INT_BV))


def _outcome(read):
    """The scalars ``read()`` returns with their types, or the error it raises."""
    try:
        values = read()
    except (InvalidWeightError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return values, [type(v) for v in values]


def _weights_with_zeros(zeros, exact):
    """Harmonic-like u and w with a zero at each (name, index) in ``zeros``."""
    def seq(name, offset):
        hit = {i for which, i in zeros if which == name}
        return LazySequence(lambda k: Fraction(0) if k in hit else Fraction(1, k + offset))

    wp = WeightPair(seq("u", 2), seq("w", 0))
    return wp if exact else wp.as_float()


class TestRowBuiltTriangles:
    """The bv triangles, identity, difference, the alpha kernels and a
    plain weighted mean (built here) are row-built; every row must equal
    the old entry rule with equal types, and raise the error the rule
    raises first along the row."""

    NAMES = ["weighted-mean", "integrated-bv", "differentiated-bv", "identity",
             "difference", "alpha-int-bv", "alpha-d-bv"]
    N = 48

    def _case(self, name, exact, wp=None, a=None):
        if wp is None:
            wp = random_weight_pair(random.Random(31))
            wp = wp if exact else wp.as_float()
        if a is None:
            a = random_sequence(random.Random(37), 60)
            a = a if exact else a.as_float()
        T, rule = _row_built_case(name, wp, a)
        assert T._build_row is not None and T.exact == exact
        return T, rule

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("name", NAMES)
    def test_rows_equal_the_entry_rule(self, name, exact):
        T, rule = self._case(name, exact)
        for n in range(1, self.N + 1):
            want = [rule(n, k) for k in range(1, n + 1)] + [T.zero()] * 2
            got = T.row(n, n + 2)
            assert got == want and list(map(type, got)) == list(map(type, want)), n

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("name", NAMES)
    def test_entries_in_shuffled_order_equal_the_entry_rule(self, name, exact):
        T, rule = self._case(name, exact)
        cells = [(n, k) for n in range(1, self.N + 1) for k in range(1, n + 1)]
        random.Random(41).shuffle(cells)
        for n, k in cells:
            want, got = rule(n, k), T.entry(n, k)
            assert got == want and type(got) is type(want), (n, k)

    @pytest.mark.parametrize("zeros", [
        [("u", 9)], [("w", 5)], [("w", 6)], [("u", 7), ("w", 7)], [("u", 8), ("w", 3)],
    ])
    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("name", ["weighted-mean", "integrated-bv",
                                      "differentiated-bv", "alpha-int-bv", "alpha-d-bv"])
    def test_a_zero_weight_raises_what_the_rule_raises(self, name, exact, zeros):
        wp = _weights_with_zeros(zeros, exact)
        T, rule = self._case(name, exact, wp=wp)
        raised = 0
        for n in range(1, 13):
            want = _outcome(lambda: [rule(n, k) for k in range(1, n + 1)])
            assert _outcome(lambda: T.row(n, n)) == want, n
            raised += want[0] is InvalidWeightError
        assert raised

    @pytest.mark.parametrize("spec, zeros, first", [
        ("expr:1/(n-3)", [], (3, ZeroDivisionError)),
        ("expr:1/(n-2)", [("w", 2)], (2, InvalidWeightError)),  # d_1 reads w_2 before a_2
    ])
    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("name", ["alpha-int-bv", "alpha-d-bv"])
    def test_alpha_kernel_of_an_ill_defined_sequence(self, name, exact, spec, zeros, first):
        a = parse_sequence_spec(spec)[0]
        wp = _weights_with_zeros(zeros, exact)
        T, rule = self._case(name, exact, wp=wp, a=a if exact else a.as_float())
        raised = []
        for n in range(1, 13):
            want = _outcome(lambda: [rule(n, k) for k in range(1, n + 1)])
            assert _outcome(lambda: T.row(n, n)) == want, n
            if isinstance(want[0], type):
                raised.append((n, want[0]))
        assert raised[0] == first


class TestRowBuiltClassicalMatrices:
    """Riesz/Cesàro and rational Euler matrices are built a row at a time;
    every row must equal the closed-form entry rule exactly, and a float
    wrapper must round each exact entry once and keep no exact state."""

    @pytest.mark.parametrize("r", ["1/2", "1/3", "2/3", "3/7"])
    def test_euler_rows_equal_the_closed_form(self, r):
        r = Fraction(r)
        E = euler_matrix(r)
        assert E._build_row is not None
        for n in range(1, 65):
            want = [euler_entry(r, n, k) for k in range(1, n + 1)]
            got = E.row(n, n)
            assert got == want and all(type(v) is Fraction for v in got), n

    @pytest.mark.parametrize("weights", sorted(RIESZ_WEIGHTS))
    def test_riesz_rows_equal_the_closed_form(self, weights):
        t = RIESZ_WEIGHTS[weights]()
        R = riesz_matrix(t)
        assert R._build_row is not None
        for n in range(1, 65):
            got = R.row(n, n)
            assert got == [riesz_entry(t, n, k) for k in range(1, n + 1)], n
            assert all(type(v) is Fraction for v in got)

    @pytest.mark.parametrize("family, param", [
        *[("euler", r) for r in ("1/2", "1/3", "2/3", "3/7")],
        *[("riesz", w) for w in sorted(RIESZ_WEIGHTS)],
        ("identity", None), ("difference", None),
    ])
    def test_float_wrapper_rounds_the_closed_form_and_keeps_no_exact_rows(
            self, family, param):
        if family == "euler":
            r = Fraction(param)
            M, closed_form = euler_matrix(r), lambda n, k: euler_entry(r, n, k)
        elif family == "riesz":
            t = RIESZ_WEIGHTS[param]()
            M, closed_form = riesz_matrix(t), lambda n, k: riesz_entry(t, n, k)
        elif family == "identity":
            M, closed_form = identity_matrix(), identity_rule
        else:
            M, closed_form = difference_matrix(), difference_rule
        F = M.as_float()
        assert F._build_row is not None and not F.exact
        cells = [(n, k) for n in range(1, 65) for k in range(1, 66)]
        random.Random(29).shuffle(cells)
        for n, k in cells:
            want = float(closed_form(n, k)) if k <= n else 0.0
            got = F.entry(n, k)
            assert got == want and type(got) is float, (n, k)
        assert M._rows == {}

    def test_float_r_is_refused(self):
        # float mode divides the integer rows of a rational r instead
        with pytest.raises(TypeError):
            euler_matrix(0.25)
        with pytest.raises(TypeError):
            taylor_matrix(0.25)

    RULE_BASED = {
        "taylor:1/3": lambda: taylor_matrix(Fraction(1, 3)),
        "expr": lambda: parse_matrix_spec("expr:1/(n+k^2)").operator,
        "expr full": lambda: parse_matrix_spec("expr:(n-k)/(n+1)", full=True).operator,
    }

    @pytest.mark.parametrize("matrix", sorted(RULE_BASED))
    def test_rule_based_float_wrapper_stays_on_the_entry_path(self, matrix):
        M = self.RULE_BASED[matrix]()
        F = M.as_float()
        assert F._build_row is None and not F.exact
        for n in range(1, 25):
            for k in range(1, 27):
                if M.kind is TriangleKind.STRICT_TRIANGLE and k > n:
                    want = 0.0
                else:
                    want = float(M._rule(n, k))
                assert F.entry(n, k) == want, (n, k)
        assert M._memo == {}

    @pytest.mark.parametrize("make, cell, message", [
        # a row builder rounds each exact row it builds: u_1 w_1 overflows
        (lambda: _weighted_mean_triangle(WeightPair(LazySequence(lambda k: _HUGE), ones())),
         (1, 1), "entry (1, 1) of weighted-mean is too large for a float"),
        (lambda: _weighted_mean_triangle(
            WeightPair(ones(), LazySequence(lambda k: _HUGE if k == 2 else Fraction(1)))),
         (2, 2), "entry (2, 2) of weighted-mean is too large for a float"),
        # an entry rule is rounded entry by entry
        (lambda: TriangleOperator(lambda n, k: _HUGE if k == 2 else Fraction(1),
                                  kind=TriangleKind.STRICT_TRIANGLE),
         (2, 2), "entry (2, 2) of a matrix is too large for a float"),
    ], ids=["row builder", "row builder, later cell", "entry rule"])
    def test_float_wrapper_names_an_entry_too_large_for_a_float(self, make, cell, message):
        # both branches round through one checked conversion, whose
        # ValueError (not OverflowError) the CLI prints as one line
        with pytest.raises(ValueError) as exc:
            make().as_float().row(*cell)
        assert str(exc.value) == message


def _weighted_mean_triangle(wp):
    """The row-built triangle u_n w_k on k <= n, labelled ``weighted-mean``."""
    def build_row(n):
        return [wp.u_at(n) * wp.w_at(k) for k in range(1, n + 1)]

    return TriangleOperator(build_row=build_row, kind=TriangleKind.STRICT_TRIANGLE,
                            exact=wp.exact, label="weighted-mean")


def _rounded(divide):
    """``repr`` of the float ``divide()`` gives (so signed zeros differ), or
    OverflowError when it raises that."""
    try:
        return repr(divide())
    except OverflowError:
        return OverflowError


class TestIntegerRatioRows:
    """The rational classical matrices build each row from integer ratios:
    ``Fraction(p, q)`` in exact mode, one ``p / q`` per entry in float mode,
    or, for a Riesz row whose numerators are all 1, one reciprocal per row
    rounded to odd.  A float row must be bit-identical to rounding the exact
    row."""

    FAMILIES = {
        **{f"riesz:{w}": (lambda w=w: riesz_matrix(parse_weight_spec(w)[0]))
           for w in ("harmonic", "power:-2", "3,1/2,4,1,5/3")},
        "cesaro": cesaro_matrix,
        **{f"euler:{r}": (lambda r=r: euler_matrix(Fraction(r)))
           for r in ("1/2", "1/3", "2/3", "3/7")},
        "identity": identity_matrix,
        "difference": difference_matrix,
    }

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_float_rows_are_the_rounded_exact_rows(self, family):
        M, F = self.FAMILIES[family](), self.FAMILIES[family]().as_float()
        assert F._ratio_row is not None and not F.exact
        for n in [*range(1, 65), 512, 1024]:
            want = [repr(float(v)) for v in M.row(n, n)]
            got = F.row(n, n)
            assert all(type(v) is float for v in got), n
            assert list(map(repr, got)) == want, n

    # weights whose rows take the reciprocal, and the three ways a row falls
    # back to one division per entry: a numerator above 1, r0 == 0 (ones at
    # n = 2^j) and a shift past 1022 (the subnormal tail of geometric:1/2).
    # Row 2 of 1/(3 2^53 - 1), 1/(2^53 + 1) is (2^53 + 1, 3 2^53 - 1) / 2^55:
    # its first entry is halfway between two floats, an integer times 2^-sh
    # that rounds to even only by division
    RIESZ_WEIGHTS = {
        "harmonic": "reciprocal", "power:-1": "reciprocal", "power:-3": "reciprocal",
        "1/3,1/7": "reciprocal", "geometric:1/2": "shift", "ones": "exact quotient",
        "1/27021597764222975,1/9007199254740993": "exact quotient",
        "geometric:2/3": "numerator", "power:1": "numerator",
        "3,1/2,4,1,5/3": "numerator",
    }

    @staticmethod
    def _riesz_paths(t, sizes):
        """The path the float Riesz row over exact t takes at each size: the
        reciprocal, or why it divides entry by entry."""
        total, terms, paths = Fraction(0), [], []
        for n in sizes:
            while len(terms) < n:
                terms.append(t.at(len(terms) + 1))
                total += terms[-1]
            if any(v.numerator != 1 for v in terms):
                paths.append("numerator")
                continue
            num, den = total.numerator, total.denominator
            sh = (60 + max(v.denominator for v in terms).bit_length()
                  + num.bit_length() - den.bit_length())
            paths.append("shift" if sh > 1022
                         else "exact quotient" if (den << sh) % num == 0
                         else "reciprocal")
        return paths

    @pytest.mark.parametrize("weights, path", RIESZ_WEIGHTS.items())
    def test_float_riesz_rows_are_the_rounded_exact_rows(self, weights, path):
        t = parse_weight_spec(weights)[0]
        M = riesz_matrix(t)
        F = M.as_float()
        sizes = [*range(1, 65), 700, 1030, 2048]
        for n in sizes:
            want = [repr(float(v)) for v in M.row(n, n)]
            assert list(map(repr, F.row(n, n))) == want, n
        assert path in self._riesz_paths(t, sizes)

    def test_unreduced_division_rounds_like_the_fraction(self):
        rng = random.Random(73)
        cases = []
        for _ in range(2000):
            p = rng.getrandbits(rng.choice((8, 60, 200, 1200))) * rng.choice((1, -1))
            q = rng.getrandbits(rng.choice((8, 60, 200, 1200))) + 1
            cases.append((p, q))
        # every entry of the Euler 1/3 row at n = 4096, over 3^4095: the
        # tails fall into the subnormal range and underflow to zero
        n, den = 4096, 3 ** 4095
        binom = 1
        for k in range(1, n + 1):
            cases.append((binom * 2 ** (n - k), den))
            binom = binom * (n - k) // k
        # random values about 2^-1030 .. 2^-1120: subnormal or zero
        for _ in range(500):
            cases.append((rng.getrandbits(40) + 1,
                          (rng.getrandbits(40) + 1) * 2 ** rng.randrange(1030, 1120)))
        # at both ends of the float range, halfway cases round to even: to
        # zero or the least subnormal, to the largest float or past it
        for m in (1074, 1075, 1076, 1080, 1100):
            for c in (1, 2, 3, 5, -1, -3):
                cases.append((c, 2 ** m))
        for p in (2 ** 1024 - 2 ** 971, 2 ** 1024 - 2 ** 970 - 1, 2 ** 1024 - 2 ** 970):
            cases += [(p, 1), (3 * p, 3), (-p, 1)]
        subnormal = underflow = 0
        for p, q in cases:
            g = rng.getrandbits(64) + 1
            want = _rounded(lambda: float(Fraction(p, q)))
            assert _rounded(lambda: (p * g) / (q * g)) == want, (p, q)
            assert _rounded(lambda: p / q) == want, (p, q)
            if want is not OverflowError:
                value = float(want)
                subnormal += 0 < abs(value) < 2.0 ** -1022
                underflow += value == 0 and p != 0
        assert subnormal > 200 and underflow > 1000

    @pytest.mark.parametrize("p, q", [
        (10 ** 400, 3), (-(10 ** 309), 1), (2 ** 1024 - 2 ** 970, 1),
        (2 ** 1100 + 1, 2 ** 76),
    ])
    def test_overflow_raises_on_both_paths(self, p, q):
        g = 7 ** 40
        with pytest.raises(OverflowError):
            float(Fraction(p, q))
        with pytest.raises(OverflowError):
            (p * g) / (q * g)

    def test_float_weights_keep_their_float_row(self):
        t = harmonic(exact=False)
        R = riesz_matrix(t)
        assert not R.exact and R.as_float() is R
        total = 0.0
        for n in range(1, 65):
            total += 1.0 / n
            assert R.row(n, n) == [(1.0 / k) / total for k in range(1, n + 1)], n

    @pytest.mark.parametrize("weights", ["harmonic", "power:-2", "3,1/2,4,1,5/3"])
    def test_exact_rows_are_the_quotients_by_the_total(self, weights):
        t = parse_weight_spec(weights)[0]
        R = riesz_matrix(t)
        total = Fraction(0)
        for n in range(1, 1025):
            total += t.at(n)
            if n <= 64 or n == 1024:
                row = R.row(n, n)
                assert all(type(v) is Fraction for v in row), n
                assert row == [t.at(k) / total for k in range(1, n + 1)], n

    @pytest.mark.parametrize("weights", ["1,0,2", "1,2,-1,3", "2,3,5,0", "-1"])
    def test_a_nonpositive_riesz_weight_raises_alike_in_both_modes(self, weights):
        exact = riesz_matrix(parse_weight_spec(weights)[0])
        floats = riesz_matrix(parse_weight_spec(weights)[0]).as_float()
        outcomes = []
        for n in range(1, 7):
            want = _outcome(lambda: exact.row(n, n))
            got = _outcome(lambda: floats.row(n, n))
            if isinstance(want[0], type):
                assert got == want, n
            else:
                assert [float(v) for v in want[0]] == got[0], n
            outcomes.append(want[0])
        assert InvalidWeightError in outcomes


class _CountingSequence(LazySequence):
    """A sequence that counts the reads of each term."""

    __slots__ = ("reads",)

    def at(self, k):
        self.reads[k] = self.reads.get(k, 0) + 1
        return super().at(k)


def _counting(rule):
    t = _CountingSequence(rule)
    t.reads = {}
    return t


class TestRieszFloatRows:
    """Float Riesz rows divide the kept integers a_k B by b_k A."""

    def test_rows_read_each_weight_once(self):
        t = _counting(lambda k: Fraction(1, k))
        F = riesz_matrix(t).as_float()
        for n in range(1, 257):
            F.row(n, n)
        assert t.reads == {k: 1 for k in range(1, 257)}

    @pytest.mark.parametrize("weights", ["harmonic", "power:-2", "3,1/2,4,1,5/3"])
    def test_rows_out_of_order_are_the_rounded_integer_ratios(self, weights):
        t = parse_weight_spec(weights)[0]
        F = riesz_matrix(t).as_float()
        for n in (200, 3, 1, 64, 7, 2, 256, 199):
            total = sum((t.at(k) for k in range(1, n + 1)), Fraction(0))
            want = [float(Fraction(t.at(k).numerator * total.denominator,
                                   t.at(k).denominator * total.numerator))
                    for k in range(1, n + 1)]
            assert list(map(repr, F.row(n, n))) == list(map(repr, want)), n

    @pytest.mark.parametrize("bad", [Fraction(0), Fraction(-2, 3)])
    def test_a_nonpositive_weight_is_named_from_every_later_row(self, bad):
        t = _counting(lambda k: bad if k == 5 else Fraction(k, 2))
        F = riesz_matrix(t).as_float()
        for n in (9, 5, 4, 12, 6, 1):
            if n < 5:
                assert F.row(n, n) == [float(Fraction(k, n * (n + 1) // 2))
                                       for k in range(1, n + 1)], n
                continue
            with pytest.raises(InvalidWeightError, match=r"^weight t\[5\] must be positive"):
                F.row(n, n)


def _bits(values):
    return [struct.pack("<d", v) for v in values]


# a NaN with a payload, signed zero and infinities, the least subnormal
_PAYLOAD_NAN = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_DEAD_BEEF))[0]
_SPECIAL_CELLS = [-0.0, _PAYLOAD_NAN, math.inf, -math.inf, 5e-324, 1.0]


def _copy(x):
    """A new float object with the bits of ``x``."""
    return struct.unpack("<d", struct.pack("<d", x))[0]


class TestPackedFloatRows:
    """A float operator keeps each row as doubles; every read gives back the
    built cell bit for bit, as a fresh list."""

    @staticmethod
    def _special():
        built = {}

        def build_row(n):
            built[n] = [_SPECIAL_CELLS[(n + k) % 6] for k in range(n)]
            return built[n]

        F = TriangleOperator(build_row=build_row, kind=TriangleKind.STRICT_TRIANGLE,
                             exact=False)
        return F, built

    def test_rows_and_entries_give_back_every_built_bit(self):
        # the rounded classical rows are pinned by repr, which is exact for
        # every finite float, in TestIntegerRatioRows
        F, built = self._special()
        for n in range(1, 13):
            for start in (1, 2, n):
                for upto in (n, n + 3):
                    got = F.row(n, upto, start)
                    assert type(got) is list, (n, start, upto)
                    assert _bits(got) == _bits(built[n][start - 1:] + [0.0] * (upto - n))
            got = [F.entry(n, k) for k in range(1, n + 3)]
            assert all(type(v) is float for v in got), n
            assert _bits(got) == _bits(built[n] + [0.0, 0.0]), n

    def test_a_cesaro_row_stays_one_shared_object(self):
        F = cesaro_matrix().as_float()
        for n in (1, 7, 64):
            row = F.row(n, n)
            assert all(v is row[0] for v in row), n

    @pytest.mark.parametrize("rows, one_value", [
        # one object n times, as Cesàro builds its rows
        (lambda cell, n: [cell] * n, lambda cell, n: cell != 0),
        # n equal objects, as riesz:ones divides each cell; copies of a NaN
        # are not equal, so their row is packed
        (lambda cell, n: [_copy(cell) for _ in range(n)],
         lambda cell, n: cell != 0 and (cell == cell or n == 1)),
        # +0.0 == -0.0, so a row of zeros is packed, keeping each sign
        (lambda cell, n: [_copy(cell) if k % 2 else 0.0 for k in range(n)],
         lambda cell, n: False),
    ], ids=["shared", "copies", "zero-first"])
    @pytest.mark.parametrize("cell", _SPECIAL_CELLS + [1 / 3],
                             ids=["-0.0", "nan", "inf", "-inf", "5e-324", "1.0", "1/3"])
    def test_one_value_rows_give_back_every_built_bit(self, rows, one_value, cell):
        built = {}

        def build_row(n):
            built[n] = rows(cell, n)
            return built[n]

        F = TriangleOperator(build_row=build_row, kind=TriangleKind.ROW_EVALUABLE,
                             row_support=lambda n: n, exact=False)
        for n in (1, 2, 5, 9):
            for start, upto in ((1, n), (3, n), (2, n + 3), (n + 2, n + 4), (4, 2), (1, 0)):
                got = F.row(n, upto, start)
                assert type(got) is list and got is not F.row(n, upto, start)
                padded = built[n] + [0.0] * max(0, upto - n)
                assert _bits(got) == _bits(padded[start - 1:upto]), (n, start, upto)
            got = [F.entry(n, k) for k in range(1, n + 3)]
            assert _bits(got) == _bits(built[n] + [0.0, 0.0]), n
            F.row(n, n).append(2.0)  # a fresh list: the kept row is untouched
            assert _bits(F.row(n, n + 1)) == _bits(built[n] + [0.0]), n
            assert (type(F._rows[n]) is tuple) == one_value(cell, n), n

    @pytest.mark.parametrize("make, most", [(cesaro_matrix, 128 * 1024),
                                            (lambda: riesz_matrix(ones()), 256 * 1024)],
                             ids=["cesaro", "riesz:ones"])
    def test_one_value_rows_are_kept_as_one_value(self, make, most):
        # the same rows as lists kept 1.11 MB (Cesàro's one shared float) and
        # 4.39 MB (riesz:ones' n equal floats)
        tracemalloc.start()
        try:
            F = make().as_float()
            before = tracemalloc.get_traced_memory()[0]
            for n in range(1, 513):
                F.row(n, n)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept <= most

    @pytest.mark.parametrize("make", [lambda: riesz_matrix(harmonic()),
                                      lambda: euler_matrix(Fraction(1, 3))],
                             ids=["riesz:harmonic", "euler:1/3"])
    def test_kept_rows_cost_at_most_12_bytes_per_cell(self, make):
        # a list row keeps a float object and a slot per cell, about 33 bytes
        tracemalloc.start()
        try:
            F = make().as_float()
            before = tracemalloc.get_traced_memory()[0]
            for n in range(1, 513):
                F.row(n, n)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept / (512 * 513 // 2) <= 12


def _weighted_mean(spec):
    """An exact Riesz matrix over the weight spec, or Cesàro."""
    if spec == "cesaro":
        return cesaro_matrix()
    return riesz_matrix(parse_weight_spec(spec)[0])


def _hookless(M):
    """The same matrix with no mean declaration: apply and invert take the
    generic entry-wise sum and back-substitution."""
    return TriangleOperator(M.entry, kind=TriangleKind.STRICT_TRIANGLE, exact=M.exact)


def _logged(log, name, rule, exact=True):
    """A sequence that logs (name, k) at the first read of each term."""
    def logged_rule(k):
        log.append((name, k))
        return rule(k)

    return LazySequence(logged_rule, exact=exact, label=name)


_MEANS = ["harmonic", "power:-2", "geometric:1/2", "1,2,3", "ones", "cesaro"]
_ORDERS = {"ascending": list(range(1, 129)), "97 first": [97, *range(1, 129)]}


class TestWeightedMeanRecurrences:
    """Exact Riesz and Cesàro means apply and invert, and the bv triangles
    apply, by O(1)-per-term recurrences; each must equal the generic
    entry-wise path exactly, read the weights and the sequence in the same
    order, and stay off a float sequence met by an exact operator."""

    @pytest.mark.parametrize("order", sorted(_ORDERS))
    @pytest.mark.parametrize("spec", _MEANS)
    def test_apply_equals_the_entrywise_sum(self, spec, order):
        M = _weighted_mean(spec)
        assert M.mean is not None
        for x in (harmonic(), random_sequence(random.Random(7), 100),
                  parse_sequence_spec("alternating")[0]):
            got = apply_triangle(M, x)
            want = apply_triangle(_hookless(M), x)
            for n in _ORDERS[order]:
                assert got.at(n) == want.at(n) and type(got.at(n)) is Fraction, n

    @pytest.mark.parametrize("order", sorted(_ORDERS))
    @pytest.mark.parametrize("spec", _MEANS)
    def test_inverse_equals_back_substitution(self, spec, order):
        M = _weighted_mean(spec)
        assert M.mean is not None and M.mean.gamma is None
        for y in (harmonic(), random_sequence(random.Random(8), 100),
                  parse_sequence_spec("1,2,3")[0]):
            got = invert_triangle(M, y)
            want = invert_triangle(_hookless(M), y)
            for n in _ORDERS[order]:
                assert got.at(n) == want.at(n) and type(got.at(n)) is Fraction, n

    @pytest.mark.parametrize("direction", [apply_triangle, invert_triangle])
    @pytest.mark.parametrize("order", [[9, *range(1, 13)], [5, 2, 12, 1, 7]])
    def test_weights_and_terms_are_read_in_the_generic_order(self, direction, order):
        # term n reads t_1..t_n before x_n (y_n); an inverse asked first at
        # n walks 1..n-1 first
        logs = []
        for hooks in (True, False):
            log = []
            M = riesz_matrix(_logged(log, "t", lambda k: Fraction(k % 4 + 1, k)))
            seq = _logged(log, "x", lambda k: Fraction(-1) ** k / (k + 2))
            values = direction(M if hooks else _hookless(M), seq)
            logs.append([values.at(n) for n in order] + log)
        assert logs[0] == logs[1]
        first = order[0]
        if direction is apply_triangle:
            assert logs[0][len(order):len(order) + first + 1] == [
                *[("t", k) for k in range(1, first + 1)], ("x", 1)]
        else:
            assert logs[0][len(order):len(order) + 3] == [("t", 1), ("x", 1), ("t", 2)]

    @pytest.mark.parametrize("direction", [apply_triangle, invert_triangle])
    def test_a_bad_weight_or_term_fails_first_as_in_the_generic_path(self, direction):
        # terms asked in order: a bad x_2 fails before t_3 = 0 is read, and
        # t_2 = 0 before a bad x_3; asked first at 6, a transform meets
        # t_3 = 0 first and an inverse y_2
        for t, bad, order in (("1,2,0", 2, range(1, 7)), ("1,0,2", 3, range(1, 7)),
                              ("1,2,0", 2, [6])):
            raised = []
            for hooks in (True, False):
                M = riesz_matrix(parse_weight_spec(t)[0])
                seq = LazySequence(lambda k: Fraction(1, k - bad))
                values = direction(M if hooks else _hookless(M), seq)
                with pytest.raises((ZeroDivisionError, InvalidWeightError)) as exc:
                    for n in order:
                        values.at(n)
                raised.append((n, exc.type, str(exc.value)))
            assert raised[0] == raised[1]

    @pytest.mark.parametrize("spec", ["harmonic", "cesaro"])
    def test_float_operators_have_no_hooks(self, spec):
        F = _weighted_mean(spec).as_float()
        assert F.mean is None
        R = riesz_matrix(harmonic(exact=False))
        assert R.mean is None

    MIXED = {
        "riesz": (lambda: riesz_matrix(harmonic()), powers(-2)),
        "cesaro": (cesaro_matrix, harmonic()),
        "int-bv": (lambda: integrated_triangle(WeightPair(harmonic(), powers(-2))), harmonic()),
        "d-bv": (lambda: differentiated_triangle(WeightPair(harmonic(), powers(-2))),
                 harmonic()),
    }

    @pytest.mark.parametrize("matrix, direction", [
        ("riesz", apply_triangle), ("riesz", invert_triangle), ("cesaro", apply_triangle),
        ("cesaro", invert_triangle), ("int-bv", apply_triangle), ("d-bv", apply_triangle)])
    def test_an_exact_declaration_on_a_float_sequence_runs_in_float(self, matrix, direction):
        # the declared rows are used whatever the mode of the operand; the
        # entry-wise back-substitution of riesz:harmonic is off by 9.2e-15 of
        # the largest term
        build, x = self.MIXED[matrix]
        M = build()
        assert M.exact and M.mean is not None
        got = direction(M, x.as_float()).prefix(64)
        want = direction(M, x).prefix(64)
        assert all(type(v) is float for v in got)
        error = max(abs(Fraction(g) - w) for g, w in zip(got, want))
        assert error <= max(map(abs, want)) / 2**50

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    @pytest.mark.parametrize("triangle", [integrated_triangle, differentiated_triangle])
    def test_bv_weights_and_terms_are_read_in_the_generic_order(self, triangle, exact):
        # term n reads u_n, then the w_j its new coefficients need, then w_n,
        # and only then x_j: asked first at 9, u_9, w_1..w_9, x_1, ..., x_9
        order = [9, *range(1, 13)]
        num = Fraction if exact else float
        runs = []
        for declared in (True, False):
            log = []
            wp = WeightPair(_logged(log, "u", lambda k: num(k % 3 + 1) / k, exact),
                            _logged(log, "w", lambda k: num(1) / (k * k + k % 2), exact))
            T = triangle(wp)
            assert T.mean is not None
            x = _logged(log, "x", lambda k: num(-1) ** k / (k + 2), exact)
            values = apply_triangle(T if declared else _hookless(T), x)
            got = [values.at(n) for n in order]
            runs.append((log, got if exact else None))
        assert runs[0] == runs[1]
        assert runs[0][0][:11] == [("u", 9), *[("w", j) for j in range(1, 10)], ("x", 1)]

    @pytest.mark.parametrize("triangle", [integrated_triangle, differentiated_triangle])
    def test_the_product_oracle_does_not_read_the_declaration(self, triangle):
        # under a non-constant u the recurrence rounds differently from the
        # product, so a product routed through it would fail here
        T = triangle(WeightPair(harmonic(), powers(-2)).as_float())
        A = euler_matrix(Fraction(1, 3)).as_float()
        got = matrix_product(T, A)
        want = matrix_product(_hookless(T), A)
        for n in range(1, 65):
            assert list(map(repr, got.row(n, n))) == list(map(repr, want.row(n, n))), n


class TestEulerInverse:
    """Euler means compose as E_r E_s = E_rs, so E_{1/r} is the exact
    inverse of E_r: a closed-form oracle for back-substitution."""

    @pytest.mark.parametrize("r", ["1/2", "1/3", "2/3"])
    def test_back_substitution_is_the_euler_mean_of_order_one_over_r(self, r):
        r = Fraction(r)
        for y in (harmonic(), random_sequence(random.Random(9), 24)):
            x = invert_triangle(euler_matrix(r), y)
            for n in range(1, 25):
                assert x.at(n) == sum(euler_entry(1 / r, n, k) * y.at(k)
                                      for k in range(1, n + 1)), n


class TestMatrixProduct:
    def test_cesaro_times_difference_telescopes(self):
        P = matrix_product(cesaro_matrix(), difference_matrix())
        assert P.kind is TriangleKind.STRICT_TRIANGLE
        for n in range(1, 9):
            assert P.entry(n, n) == Fraction(1, n)
            for k in range(1, n):
                assert P.entry(n, k) == 0

    def test_against_dense_oracle(self):
        rng = random.Random(17)
        wp = random_weight_pair(rng)
        L = integrated_triangle(wp)
        R = euler_matrix(Fraction(1, 4))
        P = matrix_product(L, R)
        m = 12
        for n in range(1, m + 1):
            for k in range(1, m + 1):
                want = sum(L.entry(n, j) * R.entry(j, k) for j in range(1, m + 1))
                assert P.entry(n, k) == want

    def test_strict_product_row_support_is_the_row_index(self):
        L, R = cesaro_matrix(), euler_matrix(Fraction(1, 2))
        P = matrix_product(L, R)
        for n in (1, 2, 7, 40):
            assert P.row_support(n) == n == max(R.row_support(j)
                                                for j in range(1, L.row_support(n) + 1))

    def test_row_evaluable_left_needs_bound(self):
        P = matrix_product(taylor_matrix(Fraction(1, 2)), identity_matrix())
        with pytest.raises(UnsupportedRowError):
            P.entry(1, 1)
        Q = matrix_product(taylor_matrix(Fraction(1, 2)), identity_matrix(),
                           left_row_bound=40)
        assert Q.entry(1, 1) == Fraction(1, 2)
        assert Q.row_support is not None and Q.row_support(5) == 40


def dense_product_entry(L, R, n, k, bound):
    """(L R)(n,k) summed entry-wise over ascending j <= bound, skipping the
    zero entries of L."""
    total = Fraction(0) if L.exact and R.exact else 0.0
    start = k if R.kind is TriangleKind.STRICT_TRIANGLE else 1
    for j in range(start, bound + 1):
        lv = L.entry(n, j)
        if lv == 0:
            continue
        total += lv * R.entry(j, k)
    return total


def _row_finite_kernel():
    """A row-evaluable left factor with a declared support: row n of the
    beta kernel of 1/k^2 has n entries."""
    return dual_kernel_matrix(DualMatrixKind.BETA_D_BV, powers(-2), WP_HARM)


class TestRowBuiltProducts:
    """Products with a row-finite left factor and a strict right factor are
    built row by row; each entry must equal the entry-wise sum exactly."""

    CASES = {
        "exact x exact": lambda: (integrated_triangle(random_weight_pair(random.Random(19))),
                                  cesaro_matrix()),
        "exact x exact, left zeros": lambda: (difference_matrix(),
                                              euler_matrix(Fraction(1, 3))),
        "row-finite kernel x exact": lambda: (_row_finite_kernel(),
                                              integrated_triangle(WP_HARM)),
        "exact generator x float": lambda: (cesaro_matrix(), identity_matrix().as_float()),
        "exact generator x float euler": lambda: (euler_matrix(Fraction(2, 3)),
                                                  cesaro_matrix().as_float()),
        "float x exact": lambda: (differentiated_triangle(WP_HARM.as_float()),
                                  riesz_matrix(harmonic())),
        "exact x sparse exact": lambda: (integrated_triangle(WP_HARM), identity_matrix()),
        "float x sparse exact": lambda: (integrated_triangle(WP_HARM.as_float()),
                                         difference_matrix()),
        "float x sparse float": lambda: (euler_matrix(Fraction(1, 3)).as_float(),
                                         identity_matrix().as_float()),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_the_entrywise_reference(self, case):
        L, R = self.CASES[case]()
        P = matrix_product(L, R)
        assert P._build_row is not None  # the row-wise path is under test
        assert P.exact == (L.exact and R.exact)
        cells = [(n, k) for n in range(1, 41) for k in range(1, 43)]
        random.Random(23).shuffle(cells)
        for n, k in cells:
            want = dense_product_entry(L, R, n, k, L.row_support(n))
            got = P.entry(n, k)
            assert got == want and type(got) is type(want), (case, n, k)

    def test_zero_right_entries_meet_non_finite_left_entries(self):
        # inf * 0 and nan * 0 are NaN, so a non-finite L(n,j) must not skip
        # the zero entries of row j of R
        bad = {(5, 3): math.inf, (7, 2): -math.inf, (9, 4): math.nan}
        L = TriangleOperator(lambda n, k: bad.get((n, k), 1.0 / (n + k)),
                             kind=TriangleKind.STRICT_TRIANGLE, exact=False)
        for R in (identity_matrix(), difference_matrix(), identity_matrix().as_float(),
                  euler_matrix(Fraction(1, 2)).as_float()):
            P = matrix_product(L, R)
            assert P._build_row is not None
            for n in range(1, 13):
                for k in range(1, 14):
                    want = dense_product_entry(L, R, n, k, n)
                    assert repr(P.entry(n, k)) == repr(want), (n, k)
        P = matrix_product(L, identity_matrix())
        assert math.isnan(P.entry(5, 1)) and P.entry(5, 3) == math.inf
        assert P.entry(6, 1) == 1.0 / 7

    def test_bounded_taylor_generator_is_row_built_and_equals_the_entrywise_reference(self):
        G = taylor_matrix(Fraction(1, 2))
        for A in (cesaro_matrix(), cesaro_matrix().as_float()):
            P = matrix_product(G, A, left_row_bound=24)
            assert P._build_row is not None
            for n in range(1, 13):
                for k in range(1, 27):
                    want = dense_product_entry(G, A, n, k, 24)
                    got = P.entry(n, k)
                    assert got == want and type(got) is type(want), (n, k)

    def test_a_float_product_with_an_exact_taylor_generator_equals_its_rounded_rows(self):
        # Fraction * float computes float(Fraction) * float, so rounding the
        # generator first changes no cell, not even where a generator cell
        # underflows to 0.0 and the rounded product skips it
        G = taylor_matrix(Fraction(1, 2))
        assert sum(1 for v in G.row(1, 1100) if v != 0 and float(v) == 0.0) == 26
        A = cesaro_matrix().as_float()
        mixed = matrix_product(G, A, left_row_bound=1100)
        rounded = matrix_product(G.as_float(), A, left_row_bound=1100)
        for n in range(1, 5):
            got = mixed.row(n, 1100)
            assert all(type(v) is float for v in got)
            assert list(map(repr, got)) == list(map(repr, rounded.row(n, 1100))), n

    def test_each_row_is_built_once(self):
        built = []

        def build_row(n):
            built.append(n)
            return [Fraction(n)] * n

        T = TriangleOperator(build_row=build_row, kind=TriangleKind.STRICT_TRIANGLE)
        assert [T.entry(3, k) for k in (1, 2, 3, 4)] == [3, 3, 3, 0]
        assert T.row(3, 5) == [3, 3, 3, 0, 0]
        assert T.row(2, 1) == [2]
        assert built == [3, 2]
        assert T.as_float().row(3, 3) == [3.0, 3.0, 3.0]

    def test_needs_one_of_rule_and_row_builder(self):
        with pytest.raises(ValueError):
            TriangleOperator(kind=TriangleKind.STRICT_TRIANGLE)
        with pytest.raises(ValueError):
            TriangleOperator(lambda n, k: 1, build_row=lambda n: [1] * n,
                             kind=TriangleKind.STRICT_TRIANGLE)


def _frozen_product_row(L, R, n):
    """Row n of the strict-right-factor product: every left term of row n,
    in ascending j, from a zero accumulator."""
    exact = L.exact and R.exact
    acc = [Fraction(0) if exact else 0.0] * n
    for j, lv in enumerate(L.row(n, n), 1):
        if lv == 0:
            continue
        rrow = R.row(j, j)
        nonzero = [(i, r) for i, r in enumerate(rrow) if r != 0]
        nonzero = nonzero if 2 * len(nonzero) <= j else None
        if not exact:
            lv = float(lv)
        if nonzero is not None and (exact or math.isfinite(lv)):
            for i, r in nonzero:
                acc[i] = acc[i] + lv * r
        else:
            acc[:j] = [a + lv * r for a, r in zip(acc, rrow)]
    return acc


class _Injected(Exception):
    pass


def _flaky_rows(rows, fail, exact):
    """A strict triangle over ``rows`` whose rows in ``fail`` raise on their
    first build only."""
    failed = set()

    def build_row(n):
        if n in fail and n not in failed:
            failed.add(n)
            raise _Injected(n)
        return list(rows[n - 1])

    return TriangleOperator(build_row=build_row, kind=TriangleKind.STRICT_TRIANGLE,
                            exact=exact)


_FLOAT_POOL = [0.0, -0.0, 1.0, -1.5, 0.1, 3.0, 1e308, math.inf, -math.inf, math.nan]
_EXACT_POOL = [Fraction(0), Fraction(1), Fraction(-3, 2), Fraction(1, 3), Fraction(2)]


@st.composite
def _resume_cases(draw):
    size = draw(st.integers(1, 10))
    left_exact, right_exact = draw(st.sampled_from(
        [(False, False), (False, True), (True, False), (True, True)]))
    left_pool = _EXACT_POOL if left_exact else _FLOAT_POOL
    right_pool = _EXACT_POOL if right_exact else [0.0, 0.0, 1.0, -0.5, 0.25, 1e308]
    left: list = []
    for n in range(1, size + 1):
        fresh = draw(st.lists(st.sampled_from(left_pool), min_size=n, max_size=n))
        # how much of row n-1 row n repeats: all but its last entry (as the
        # off-diagonal rows of T do under a constant u), a shorter part, or
        # none
        keep = draw(st.sampled_from([max(0, n - 2), draw(st.integers(0, max(0, n - 3))), 0]))
        left.append((left[-1][:keep] if left else []) + fresh[keep:])
    right = [draw(st.lists(st.sampled_from(right_pool), min_size=n, max_size=n))
             for n in range(1, size + 1)]
    rows = st.integers(1, size)
    order = draw(st.lists(rows, max_size=3 * size)) + list(range(1, size + 1))
    fails = draw(st.sets(rows)), draw(st.sets(rows))
    return left, right, left_exact, right_exact, order, fails


class TestProductResume:
    """Every product row is the full sum of its left terms, bit for bit,
    whatever rows were built before it and whatever prefix their left rows
    share; the product keeps no sums from one row to the next.  A bv
    triangle product T A costs O(N^2) products for N rows under any u."""

    @settings(max_examples=200, deadline=None)
    @given(_resume_cases())
    def test_every_row_equals_the_full_sum_bit_for_bit(self, case):
        left, right, left_exact, right_exact, order, (fail_left, fail_right) = case
        P = matrix_product(_flaky_rows(left, fail_left, left_exact),
                           _flaky_rows(right, fail_right, right_exact))
        L0 = _flaky_rows(left, set(), left_exact)
        R0 = _flaky_rows(right, set(), right_exact)
        for n in order:
            while True:
                try:
                    got = P.row(n, n)
                    break
                except _Injected:
                    pass  # the row is asked again after the error
            assert repr(got) == repr(_frozen_product_row(L0, R0, n)), n

    @staticmethod
    def _target_products(wp, N):
        """The products of a float T A over rows 1..N whose right factor is
        a cell of A, for each of the two triangles."""
        class Counted(float):
            products = 0

            def __rmul__(self, other):
                Counted.products += 1
                return other * float(self)

        # an entry rule keeps the Counted cells, which a row builder's packed
        # float rows would turn into plain floats
        A = TriangleOperator(lambda n, k: Counted(1.0 / (n + k)),
                             kind=TriangleKind.STRICT_TRIANGLE, exact=False)
        counts = []
        for reduce in (reduce_target_int_bv, reduce_target_d_bv):
            P = reduce(A, wp)
            before = Counted.products
            for n in range(1, N + 1):
                P.row(n, n)
            counts.append(Counted.products - before)
        return counts

    def test_constant_u_rows_take_quadratic_work(self):
        # the kept sums S_{n-1} add c_{n-1} A_{n-1}, n - 1 products, and row n
        # adds f(n) w_n A_n, n products: N^2 in all, where the full sums take
        # N(N+1)(N+2)/6
        N = 256
        assert self._target_products(WP_HARM.as_float(), N) == [N * N] * 2

    def test_non_constant_u_rows_take_quadratic_work(self):
        # the same N^2 under a u whose rows of T share no prefix
        N = 256
        wp = WeightPair(harmonic(), powers(-2)).as_float()
        assert self._target_products(wp, N) == [N * N] * 2

    def test_float_target_rows_keep_packed_sums(self):
        # the kept sums and rows of float T A on cesaro are two packed lower
        # triangles, 2.1 MB for rows 1..512, and the weights about 0.3 MB
        # more (measured 2.43 MB); a product that also keeps T's rows and
        # its packed right rows holds 3.65 MB
        tracemalloc.start()
        try:
            P = reduce_target_int_bv(cesaro_matrix().as_float(), WP_HARM.as_float())
            before = tracemalloc.get_traced_memory()[0]
            for n in range(1, 513):
                P.row(n, n)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept <= 2.8e6
