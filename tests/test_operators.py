"""Tests for the weighted triangles, their inverses and classical matrices."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    basis_column,
    basis_column_tabulated,
    basis_tabulated_discrepancies,
    cesaro_matrix,
    classical_matrix,
    difference_matrix,
    differentiated_inverse,
    differentiated_triangle,
    euler_entry,
    euler_matrix,
    identity_matrix,
    integrated_inverse,
    integrated_triangle,
    invert_triangle,
    matrix_product,
    riesz_matrix,
    taylor_matrix,
    taylor_row_tail,
    truncation,
    weighted_mean_triangle,
)

from conftest import random_sequence, random_weight_pair
from test_acceptance import SEED, exact_sequence, weight_pair

WP_ONES = WeightPair.all_ones()
WP_HARM = WeightPair(ones(), harmonic())


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
        T = weighted_mean_triangle(WP_ONES)
        assert T.entry(3, 2) == 1
        assert weighted_mean_triangle(WP_HARM).entry(4, 2) == Fraction(1, 2)
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
        block = truncation(integrated_triangle(WP_ONES), 3)
        assert block == [[1, 0, 0], [0, 2, 0], [0, 0, 3]]

    def test_row_sequence_support(self):
        G = integrated_triangle(WP_ONES)
        row = G.row_sequence(4)
        assert row.support == 4
        assert row.prefix(6) == [0, 0, 0, 4, 0, 0]
        assert taylor_matrix(Fraction(1, 2)).row_support is None


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
        assert special.apply_special is not None
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

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=25),
           st.lists(st.integers(-20, 20), min_size=1, max_size=25),
           st.integers(-5, 5), st.integers(-5, 5))
    def test_linearity(self, xs, zs, a, b):
        x = LazySequence.from_terms([Fraction(v) for v in xs])
        z = LazySequence.from_terms([Fraction(v) for v in zs])
        G = integrated_triangle(WP_HARM)
        lhs = apply_triangle(G, x.scaled(Fraction(a)).plus(z.scaled(Fraction(b))))
        rhs = apply_triangle(G, x).scaled(Fraction(a)).plus(
            apply_triangle(G, z).scaled(Fraction(b)))
        n = max(len(xs), len(zs)) + 2
        assert lhs.prefix(n) == rhs.prefix(n)


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
        with pytest.raises(SingularTriangleError):
            invert_triangle(taylor_matrix(Fraction(1, 2)), ones())

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
        tab = basis_column_tabulated("int-bv", WP_HARM, 3)
        oracle = basis_column("int-bv", WP_HARM, 3)
        assert tab.at(3) == oracle.at(3)  # the diagonal entry still matches
        assert tab.at(4) != oracle.at(4)


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
        tail = taylor_row_tail(Fraction(1, 2), 1, 64)
        assert tail == Fraction(1, 2**64)
        partial = sum(taylor_matrix(Fraction(1, 2)).entry(2, j) for j in range(2, 65))
        assert taylor_row_tail(Fraction(1, 2), 2, 64) == 1 - partial
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
        return weighted_mean_triangle(wp), weighted_mean_rule(wp)
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
    """The weighted and bv triangles, identity, difference and the alpha
    kernels are row-built; every row must equal the old entry rule with
    equal types, and raise the error the rule raises first along the row."""

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


def _rounded(divide):
    """``repr`` of the float ``divide()`` gives (so signed zeros differ), or
    OverflowError when it raises that."""
    try:
        return repr(divide())
    except OverflowError:
        return OverflowError


class TestIntegerRatioRows:
    """The rational classical matrices build each row from integer ratios:
    ``Fraction(p, q)`` in exact mode, one ``p / q`` per entry in float mode.
    A float row must be bit-identical to rounding the exact row."""

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
