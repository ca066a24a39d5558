"""Tests for the dual kernel matrices and the alpha/beta/gamma checks."""

import math
import random
from fractions import Fraction

import pytest

from sumkit.core import (
    LazySequence,
    TruncationSchedule,
    Verdict,
    alternating,
    geometric,
    harmonic,
    ones,
    powers,
    running_sums,
    zeros,
)
from sumkit.duals import (
    CORRECTION_NOTES,
    DualMatrixKind,
    alpha_dual_check,
    beta_dual_check,
    dual_kernel_matrix,
    gamma_dual_check,
    pairing_identity_check,
)
from sumkit.errors import InvalidWeightError
from sumkit.operators import (
    TriangleKind,
    TriangleOperator,
    WeightPair,
    cesaro_matrix,
    classical_matrix,
    differentiated_inverse,
    integrated_inverse,
)
from conftest import random_sequence, random_weight_pair

SCHED = TruncationSchedule()
# plenty for status-shape tests, and much cheaper on exact rationals
FAST = TruncationSchedule(sizes=(8, 16, 32, 64, 128))
WP_ONES = WeightPair.all_ones()
WP_HARM = WeightPair(ones(), harmonic())

_RANK = {Verdict.DIVERGENCE: 0, Verdict.INCONCLUSIVE: 1, Verdict.HOLDS: 2}


class TestKernelEntries:
    def test_alpha_collapses_to_diagonal_for_ones(self):
        M = dual_kernel_matrix(DualMatrixKind.ALPHA_INT_BV, harmonic(), WP_ONES)
        assert M.entry(5, 5) == Fraction(1, 25)  # a_5 / 5
        assert M.entry(5, 2) == 0
        N = dual_kernel_matrix(DualMatrixKind.ALPHA_D_BV, harmonic(), WP_ONES)
        assert N.entry(5, 5) == 1  # a_5 * 5

    def test_alpha_off_diagonal_entry(self):
        M = dual_kernel_matrix(DualMatrixKind.ALPHA_INT_BV, ones(), WP_HARM)
        assert M.entry(2, 1) == Fraction(-1, 2)  # (1/2) * (1 - 2) * a_2

    def test_kernels_vanish_above_the_diagonal(self):
        for kind in DualMatrixKind:
            M = dual_kernel_matrix(kind, ones(), WP_HARM)
            assert M.entry(3, 7) == 0

    def test_beta_rows_for_ones_weights(self):
        a = LazySequence.from_terms([5, -3, 7, 2])
        M = dual_kernel_matrix(DualMatrixKind.BETA_INT_BV, a, WP_ONES)
        assert M.row(4, 4) == [5, Fraction(-3, 2), Fraction(7, 3), Fraction(1, 2)]
        N = dual_kernel_matrix(DualMatrixKind.BETA_D_BV, a, WP_ONES)
        assert N.row(4, 4) == [5, -6, 21, 8]

    def test_beta_inner_sum_entry(self):
        M = dual_kernel_matrix(DualMatrixKind.BETA_INT_BV, ones(), WP_HARM)
        # lead a_1/(1*u_1*w_1) = 1, plus (1 - 2) * (a_2 / 2)
        assert M.entry(2, 1) == Fraction(1, 2)
        assert M.entry(2, 2) == 1  # 1 / (2 * 1 * (1/2))


class TestAlphaKernelIdentity:
    """The alpha kernel row applied to y equals a_n times the inverse image."""

    @pytest.mark.parametrize("seed", [61, 62])
    def test_int_bv(self, seed):
        rng = random.Random(seed)
        wp, a, y = random_weight_pair(rng), random_sequence(rng, 24), random_sequence(rng, 24)
        M = dual_kernel_matrix(DualMatrixKind.ALPHA_INT_BV, a, wp)
        x = integrated_inverse(wp, y)
        for n in (1, 3, 11, 24):
            got = sum(M.entry(n, k) * y.at(k) for k in range(1, n + 1))
            assert got == a.at(n) * x.at(n)

    def test_d_bv(self):
        rng = random.Random(63)
        wp, a, y = random_weight_pair(rng), random_sequence(rng, 20), random_sequence(rng, 20)
        M = dual_kernel_matrix(DualMatrixKind.ALPHA_D_BV, a, wp)
        x = differentiated_inverse(wp, y)
        for n in (2, 9, 20):
            got = sum(M.entry(n, k) * y.at(k) for k in range(1, n + 1))
            assert got == a.at(n) * x.at(n)


class TestAlphaCheck:
    def test_harmonic_is_alpha_dual(self):
        v = alpha_dual_check("int-bv", harmonic(), WP_ONES, SCHED)
        assert v.status is Verdict.HOLDS
        assert v.trace[-1][1] == 1
        assert v.witness == {"col": 1}

    def test_squares_are_not(self):
        v = alpha_dual_check("int-bv", powers(2), WP_ONES, SCHED)
        assert v.status is Verdict.DIVERGENCE

    def test_zero_element(self):
        v = alpha_dual_check("int-bv", zeros(), WP_ONES, SCHED)
        assert v.status is Verdict.HOLDS
        assert v.trace[-1][1] == 0

    def test_cross_check_is_attached(self):
        v = alpha_dual_check("d-bv", powers(-3), WP_ONES, SCHED)
        cross = v.aux["row_subset_cross_check"]
        assert cross["depth"] == 12
        assert cross["value"] >= 0
        assert v.aux["notes"] == [CORRECTION_NOTES["kernel-orientation"]]


class TestBetaGammaChecks:
    def test_inverse_squares_hold(self):
        v = beta_dual_check("int-bv", powers(-2), WP_ONES, SCHED)
        assert v.status is Verdict.HOLDS

    def test_ones_diverge(self):
        v = beta_dual_check("int-bv", ones(), WP_ONES, SCHED)
        assert v.status is Verdict.DIVERGENCE

    def test_alternating_partial_sums_unbounded_in_gamma(self):
        v = gamma_dual_check("int-bv", alternating(), WP_ONES, SCHED)
        assert v.status is Verdict.DIVERGENCE

    def test_same_element_both_spaces(self):
        # 1/k^2 works against x_k ~ y_k/k but not against x_k ~ k y_k
        assert gamma_dual_check("int-bv", powers(-2), WP_ONES,
                                FAST).status is Verdict.HOLDS
        assert gamma_dual_check("d-bv", powers(-2), WP_ONES,
                                FAST).status is Verdict.DIVERGENCE
        assert gamma_dual_check("d-bv", powers(-3), WP_ONES,
                                FAST).status is Verdict.HOLDS

    def test_beta_never_beats_gamma(self):
        for a in (powers(-2), ones(), alternating(), harmonic(), zeros()):
            beta = beta_dual_check("int-bv", a, WP_ONES, FAST).status
            gamma = gamma_dual_check("int-bv", a, WP_ONES, FAST).status
            assert _RANK[beta] <= _RANK[gamma], a.label

    def test_statistic_scales_with_the_element(self):
        base = gamma_dual_check("int-bv", powers(-2), WP_ONES, FAST)
        scaled = gamma_dual_check("int-bv", powers(-2).scaled(Fraction(2)),
                                  WP_ONES, FAST)
        assert scaled.status is base.status
        for (n1, v1), (n2, v2) in zip(base.trace, scaled.trace):
            assert n1 == n2 and v2 == 2 * v1

    def test_trace_is_a_running_supremum(self):
        v = gamma_dual_check("int-bv", ones(), WP_HARM, SCHED)
        assert [n for n, _ in v.trace] == list(SCHED.sizes)
        vals = [s for _, s in v.trace]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_notes_describe_the_kernel_conventions(self):
        v = gamma_dual_check("int-bv", ones(), WP_ONES, SCHED)
        assert CORRECTION_NOTES["beta-kernel-summand"] in v.aux["notes"]
        assert "cs_evidence" in beta_dual_check("int-bv", ones(), WP_ONES,
                                                SCHED).aux


class TestPairingIdentity:
    @pytest.mark.parametrize("space", ["int-bv", "d-bv"])
    @pytest.mark.parametrize("seed", [71, 72, 73])
    def test_exact_agreement(self, space, seed):
        rng = random.Random(seed)
        wp = random_weight_pair(rng)
        a, y = random_sequence(rng, 64), random_sequence(rng, 64)
        for n in (1, 7, 33, 64):
            lhs, rhs = pairing_identity_check(a, y, wp, space, n)
            assert lhs == rhs

    def test_ones_weights_collapse(self):
        rng = random.Random(74)
        a, y = random_sequence(rng, 30), random_sequence(rng, 30)
        lhs, rhs = pairing_identity_check(a, y, WP_ONES, "int-bv", 30)
        direct = sum(a.at(k) * y.at(k) / Fraction(k) for k in range(1, 31))
        assert lhs == rhs == direct
        lhs, rhs = pairing_identity_check(a, y, WP_ONES, "d-bv", 30)
        direct = sum(a.at(k) * y.at(k) * k for k in range(1, 31))
        assert lhs == rhs == direct

    def test_zero_sequence(self):
        assert pairing_identity_check(ones(), zeros(), WP_HARM,
                                      "int-bv", 12) == (0, 0)


# ---------------------------------------------------------------------------
# Entry-wise oracles for the row-wise beta kernel
# ---------------------------------------------------------------------------


def entrywise_beta_kernel(kind, a, wp):
    """The beta kernel with one rule call per entry:
    lead_k + d_k (P_n - P_k) for k < n, lead_n on the diagonal."""
    integrated = kind is DualMatrixKind.BETA_INT_BV
    exact = a.exact and wp.exact
    zero = Fraction(0) if exact else 0.0
    if integrated:
        pref = running_sums(lambda j: a.at(j) / j, zero)
    else:
        pref = running_sums(lambda j: j * a.at(j), zero)

    def rule(n, k):
        if k > n:
            return zero
        if integrated:
            lead = a.at(k) / (k * wp.u_at(k) * wp.w_at(k))
        else:
            lead = k * a.at(k) / (wp.u_at(k) * wp.w_at(k))
        if k == n:
            return lead
        return lead + wp.recip_uw_diff(k) * (pref(n) - pref(k))

    return TriangleOperator(rule, kind=TriangleKind.ROW_EVALUABLE,
                            row_support=lambda n: n, exact=exact)


def entrywise_beta_statistic(M, sched):
    """Running supremum of the absolute row sums, one ``entry`` per term."""
    trace, sup, witness_row = [], M.zero(), 1
    for n in range(1, sched.max_size + 1):
        rowsum = M.zero()
        for k in range(1, n + 1):
            rowsum = rowsum + abs(M.entry(n, k))
        if rowsum > sup:
            sup, witness_row = rowsum, n
        if n in sched.sizes:
            trace.append((n, sup))
    return trace, witness_row


_ORACLE_WEIGHTS = {
    "ones/ones": WP_ONES,
    "ones/harmonic": WP_HARM,
    "geometric:1/2/harmonic": WeightPair(geometric(Fraction(1, 2)), harmonic()),
    "power:-1/geometric:1/2": WeightPair(powers(-1), geometric(Fraction(1, 2))),
}
_ORACLE_SEQUENCES = {
    "power:-2": lambda: powers(-2),
    "alternating": lambda: alternating(),
    "harmonic": lambda: harmonic(),
    "finite 3,-1,1/2": lambda: LazySequence.from_terms([3, -1, Fraction(1, 2)]),
    "e5": lambda: LazySequence.unit(5),
    "cesaro row 7": lambda: cesaro_matrix().row_sequence(7),
}


class TestRowWiseBetaKernel:
    """The row-wise beta kernel and statistic equal the entry-wise loop
    exactly, in both modes."""

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("weights", sorted(_ORACLE_WEIGHTS))
    @pytest.mark.parametrize("space", ["int-bv", "d-bv"])
    def test_statistic_equals_the_entrywise_loop(self, space, weights, mode):
        wp = _ORACLE_WEIGHTS[weights]
        sched = TruncationSchedule(sizes=(4, 8, 16, 32)) if mode == "exact" else SCHED
        kind = (DualMatrixKind.BETA_INT_BV if space == "int-bv"
                else DualMatrixKind.BETA_D_BV)
        if mode == "float":
            wp = wp.as_float()
        for name, make in _ORACLE_SEQUENCES.items():
            a = make() if mode == "exact" else make().as_float()
            want = entrywise_beta_statistic(entrywise_beta_kernel(kind, a, wp), sched)
            assert entrywise_beta_statistic(dual_kernel_matrix(kind, a, wp), sched) == want
            for check in (gamma_dual_check, beta_dual_check):
                v = check(space, a, wp, sched)
                assert (v.trace, v.witness["row"]) == want, (name, check.__name__)

    @pytest.mark.parametrize("space", ["int-bv", "d-bv"])
    def test_entries_in_any_order(self, space):
        rng = random.Random(76)
        wp = random_weight_pair(rng)
        a = random_sequence(rng, 40)
        kind = (DualMatrixKind.BETA_INT_BV if space == "int-bv"
                else DualMatrixKind.BETA_D_BV)
        want = entrywise_beta_kernel(kind, a, wp)
        got = dual_kernel_matrix(kind, a, wp)
        cells = [(n, k) for n in range(1, 31) for k in range(1, 33)]
        rng.shuffle(cells)
        for n, k in cells:
            assert got.entry(n, k) == want.entry(n, k), (n, k)
        assert got.row(6, 9) == want.row(6, 9)

    def test_first_zero_weight_is_the_entrywise_one(self):
        # u_4 = w_4 = 0: the entry-wise loop first meets w_4, in d_3 on
        # row 4, before it reads u_4 for the diagonal lead
        wp = WeightPair(LazySequence.from_terms([1, 1, 1, 0, 1]),
                        LazySequence.from_terms([1, 2, 3, 0, 5]))
        M = entrywise_beta_kernel(DualMatrixKind.BETA_INT_BV, ones(), wp)
        with pytest.raises(InvalidWeightError) as want:
            entrywise_beta_statistic(M, FAST)
        with pytest.raises(InvalidWeightError) as got:
            gamma_dual_check("int-bv", ones(), wp, FAST)
        assert (got.value.which, got.value.index) == (want.value.which,
                                                      want.value.index) == ("w", 4)


# ---------------------------------------------------------------------------
# The support-aware beta statistic against the full-row loop
# ---------------------------------------------------------------------------


def _finite_sequences(rng):
    """Finitely supported sequences: random terms of length 1..40, unit
    vectors, and rows of the Cesàro and Euler matrices."""
    seqs = {f"terms[{m}]": random_sequence(rng, m) for m in (1, 2, 5, rng.randint(6, 39), 40)}
    seqs.update({f"e{k}": LazySequence.unit(k) for k in (1, 3, rng.randint(4, 40))})
    cesaro, euler = cesaro_matrix(), classical_matrix("euler", Fraction(1, 3))
    for n in (1, 6, rng.randint(7, 30)):
        seqs[f"cesaro row {n}"] = cesaro.row_sequence(n)
        seqs[f"euler:1/3 row {n}"] = euler.row_sequence(n)
    return seqs


def _assert_statistics_agree(space, a, wp, sched, label):
    kind = DualMatrixKind(f"beta-{space}")
    want = entrywise_beta_statistic(entrywise_beta_kernel(kind, a, wp), sched)
    for check in (gamma_dual_check, beta_dual_check):
        v = check(space, a, wp, sched)
        assert repr((v.trace, v.witness["row"])) == repr(want), (label, check.__name__)


class TestSupportAwareBetaStatistic:
    """Rows past a finite support are not built; the trace, the witness row
    and the first error stay those of the full-row loop."""

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("space", ["int-bv", "d-bv"])
    @pytest.mark.parametrize("seed", [81, 82])
    def test_random_finite_supports(self, seed, space, mode):
        rng = random.Random(seed)
        wp = random_weight_pair(rng)
        sched = TruncationSchedule(sizes=(4, 16, 32, 48))
        if mode == "float":
            wp = wp.as_float()
        for label, a in _finite_sequences(rng).items():
            if mode == "float":
                a = a.as_float()
            _assert_statistics_agree(space, a, wp, sched, label)

    @pytest.mark.parametrize("space", ["int-bv", "d-bv"])
    def test_float_rows_past_the_support_go_nonfinite(self, space):
        # u_k = w_k = 2^-k: d_k = -4^k overflows from k = 512, so every row
        # past 512 holds d_k * 0 = NaN terms
        half = geometric(Fraction(1, 2))
        wp = WeightPair(half, half).as_float()
        sched = TruncationSchedule(sizes=(16, 64, 256, 520))
        for a in (LazySequence.from_terms([3, -1, Fraction(1, 2)], exact=False),
                  LazySequence.unit(7, exact=False),
                  cesaro_matrix().as_float().row_sequence(9)):
            kernel = dual_kernel_matrix(DualMatrixKind(f"beta-{space}"), a, wp)
            assert math.isnan(sum(map(abs, kernel.row(520, 520))))
            _assert_statistics_agree(space, a, wp, sched, a.label)

    @pytest.mark.parametrize("which", ["u", "w"])
    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("space", ["int-bv", "d-bv"])
    def test_zero_weight_past_the_support(self, space, mode, which):
        zero_at_11 = LazySequence(lambda k: Fraction(0) if k == 11 else Fraction(1, k))
        wp = (WeightPair(zero_at_11, harmonic()) if which == "u"
              else WeightPair(ones(), zero_at_11))
        a = LazySequence.from_terms([2, -5, Fraction(1, 3)])
        if mode == "float":
            wp, a = wp.as_float(), a.as_float()
        kind = DualMatrixKind(f"beta-{space}")
        with pytest.raises(InvalidWeightError) as want:
            entrywise_beta_statistic(entrywise_beta_kernel(kind, a, wp), FAST)
        assert (want.value.which, want.value.index) == (which, 11)
        for check in (gamma_dual_check, beta_dual_check):
            with pytest.raises(InvalidWeightError) as got:
                check(space, a, wp, FAST)
            assert (got.value.which, got.value.index) == (which, 11), check.__name__
