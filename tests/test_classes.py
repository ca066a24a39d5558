"""Tests for the matrix-class machinery: conditions, tables, reductions."""

import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sumkit import classes
from sumkit.core import (LazySequence, SpaceTag, TruncationSchedule, Verdict, harmonic, ones,
                         zeros)
from sumkit.duals import DualMatrixKind, dual_kernel_matrix
from sumkit.errors import InvalidWeightError, UnsupportedClassError, UnsupportedRowError
from sumkit.classes import (
    ClassReport,
    CompositeTarget,
    ConditionId,
    TransformTag,
    characterize,
    check_condition,
    reduce_source_d_bv,
    reduce_source_int_bv,
    reduce_target_d_bv,
    reduce_target_int_bv,
    table_recipe,
    verify_reduction_roundtrip,
)
from sumkit.minilang import parse_family_spec, parse_matrix_spec, parse_weight_spec
from sumkit.operators import (
    TriangleKind,
    TriangleOperator,
    WeightPair,
    cesaro_matrix,
    difference_matrix,
    differentiated_triangle,
    euler_matrix,
    identity_matrix,
    integrated_triangle,
    matrix_product,
    riesz_matrix,
    taylor_matrix,
    uw_divisor,
)
from conftest import entrywise_row, random_sequence, random_weight_pair

SCHED = TruncationSchedule()
SMALL = TruncationSchedule(sizes=(8, 16, 32, 64))
WP_ONES = WeightPair.all_ones()


def lower_ones() -> TriangleOperator:
    return TriangleOperator(lambda n, k: Fraction(1),
                            kind=TriangleKind.STRICT_TRIANGLE, label="lower-ones")


def row_index_matrix() -> TriangleOperator:
    return TriangleOperator(lambda n, k: Fraction(n),
                            kind=TriangleKind.STRICT_TRIANGLE, label="rows-grow")


def geometric_grid() -> TriangleOperator:
    # entry(n,k) = 2^-(n+k) on the full quadrant
    return TriangleOperator(lambda n, k: Fraction(1, 2 ** (n + k)),
                            kind=TriangleKind.ROW_EVALUABLE, row_support=None,
                            label="geometric-grid")


class TestRecipes:
    def test_out_of_l1(self):
        r = table_recipe(1, "l1", "c")
        assert r.table == 1 and r.transform is TransformTag.NONE
        assert [c for c, _ in r.conditions] == [ConditionId.C11, ConditionId.C12]
        assert [c for c, _ in table_recipe(1, "l1", "linf").conditions] == [ConditionId.C11]
        assert [c for c, _ in table_recipe(1, "l1", "l1").conditions] == [ConditionId.C13]

    def test_into_l1(self):
        assert [c for c, _ in table_recipe(2, "linf", "l1").conditions] == [ConditionId.C20]
        assert [c for c, _ in table_recipe(2, "bs", "l1").conditions] == [
            ConditionId.C21, ConditionId.C22]
        assert [c for c, _ in table_recipe(2, "cs", "l1").conditions] == [ConditionId.C23]

    def test_out_of_domain_spaces(self):
        r = table_recipe(3, "int-bv", "c0")
        assert r.transform is TransformTag.REDUCE_SOURCE_INT_BV
        assert r.conditions == ((ConditionId.C11, False), (ConditionId.C12, True))
        r = table_recipe(4, "d-bv", "linf")
        assert r.transform is TransformTag.REDUCE_SOURCE_D_BV
        assert r.conditions == ((ConditionId.C11, False),)

    def test_into_domain_spaces(self):
        r = table_recipe(5, "bs", "int-bv")
        assert r.transform is TransformTag.REDUCE_TARGET_INT_BV
        assert [c for c, _ in r.conditions] == [ConditionId.C21, ConditionId.C22]
        r = table_recipe(6, "cs", "d-bv")
        assert r.transform is TransformTag.REDUCE_TARGET_D_BV
        assert [c for c, _ in r.conditions] == [ConditionId.C23]

    def test_recipes_are_values(self):
        a, b = table_recipe(1, "l1", "c"), table_recipe(1, "l1", "c")
        assert a == b and hash(a) == hash(b)

    def test_uncovered_pairs_are_reported(self):
        with pytest.raises(UnsupportedClassError) as exc:
            table_recipe(1, "linf", "c")
        assert exc.value.source == "linf" and exc.value.target == "c"
        with pytest.raises(UnsupportedClassError):
            table_recipe(1, "l1", "c0")  # no c0 row in the l1 table
        with pytest.raises(UnsupportedClassError):
            table_recipe(2, "l1", "c")
        with pytest.raises(UnsupportedClassError):
            table_recipe(3, "l1", "c")
        with pytest.raises(UnsupportedClassError):
            table_recipe(7, "l1", "c")


class TestSourceReduction:
    def test_ones_weights_divide_by_column(self):
        B = reduce_source_int_bv(cesaro_matrix(), WP_ONES)
        for n in range(1, 7):
            for k in range(1, n + 1):
                assert B.entry(n, k) == Fraction(1, n * k)
        assert B.entry(2, 5) == 0

    def test_ones_weights_multiply_for_d_bv(self):
        B = reduce_source_d_bv(identity_matrix(), WP_ONES)
        for n in range(1, 7):
            assert B.entry(n, n) == n
            for k in range(1, n):
                assert B.entry(n, k) == 0

    def test_identity_reduces_to_inverse_diagonal(self):
        rng = random.Random(83)
        wp = random_weight_pair(rng)
        B = reduce_source_int_bv(identity_matrix(), wp)
        for n in range(1, 9):
            assert B.entry(n, n) == 1 / (n * wp.u_at(n) * wp.w_at(n))

    @pytest.mark.parametrize("seed", [85, 86])
    def test_rows_match_the_dual_kernel_construction(self, seed):
        # row n of the reduced matrix is the beta-kernel row built from row
        # n of A, evaluated at the row's support extent
        rng = random.Random(seed)
        wp = random_weight_pair(rng)
        A = euler_matrix(Fraction(1, 3))
        B = reduce_source_int_bv(A, wp)
        D = reduce_source_d_bv(A, wp)
        for n in (1, 2, 5, 12):
            row = entrywise_row(A, n)
            K_int = dual_kernel_matrix(DualMatrixKind.BETA_INT_BV, row, wp)
            K_d = dual_kernel_matrix(DualMatrixKind.BETA_D_BV, row, wp)
            for k in range(1, n + 1):
                assert B.entry(n, k) == K_int.entry(n, k)
                assert D.entry(n, k) == K_d.entry(n, k)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_rows_equal_the_entrywise_formula(self, mode):
        # the entry-wise rule, one call per entry: lead_k + d_k (P_J - P_k)
        # with P the running sum of row n of A, J its support extent
        rng = random.Random(84)
        wp = random_weight_pair(rng)
        A = matrix_product(euler_matrix(Fraction(1, 3)), cesaro_matrix())
        if mode == "float":
            wp, A = wp.as_float(), A.as_float()
        for reduce, integrated in ((reduce_source_int_bv, True),
                                   (reduce_source_d_bv, False)):
            B = reduce(A, wp)
            for n in (1, 2, 5, 12, 30):
                J = A.row_support(n)
                P = [A.zero()]
                for j in range(1, J + 1):
                    c = A.entry(n, j)
                    P.append(P[-1] + (c / j if integrated else j * c))
                for k in range(1, J + 3):
                    if k > J:
                        want = A.zero()
                    else:
                        c = A.entry(n, k)
                        if integrated:
                            want = c / (k * wp.u_at(k) * wp.w_at(k))
                        else:
                            want = k * c / (wp.u_at(k) * wp.w_at(k))
                        if k < J:
                            want = want + wp.recip_uw_diff(k) * (P[J] - P[k])
                    assert B.entry(n, k) == want, (n, k)

    def test_needs_row_finite_input(self):
        with pytest.raises(UnsupportedRowError):
            reduce_source_int_bv(taylor_matrix(Fraction(1, 2)), WP_ONES)


class TestTargetReduction:
    def test_matches_dense_product(self):
        rng = random.Random(87)
        wp = random_weight_pair(rng)
        A = euler_matrix(Fraction(1, 4))
        G = integrated_triangle(wp)
        P = reduce_target_int_bv(A, wp)
        for n in range(1, 13):
            for k in range(1, 13):
                want = sum(G.entry(n, j) * A.entry(j, k) for j in range(1, n + 1))
                assert P.entry(n, k) == want

    def test_ones_weight_shortcuts(self):
        up = reduce_target_int_bv(cesaro_matrix(), WP_ONES)
        down = reduce_target_d_bv(cesaro_matrix(), WP_ONES)
        for n in range(1, 7):
            for k in range(1, n + 1):
                assert up.entry(n, k) == 1           # n * (1/n)
                assert down.entry(n, k) == Fraction(1, n * n)


class TestConditions:
    def test_identity_column_sums_are_exactly_one(self):
        v = check_condition(ConditionId.C13, identity_matrix(), SCHED)
        assert v.status is Verdict.HOLDS
        assert all(s == 1 for _, s in v.trace)

    def test_cesaro_entry_sup(self):
        v = check_condition(ConditionId.C11, cesaro_matrix(), SCHED)
        assert v.status is Verdict.HOLDS
        assert v.trace[-1][1] == 1
        assert v.witness == {"row": 1, "col": 1}

    def test_growing_rows_diverge(self):
        v = check_condition(ConditionId.C11, row_index_matrix(), SMALL)
        assert v.status is Verdict.DIVERGENCE

    def test_column_limits_of_identity(self):
        v = check_condition(ConditionId.C12, identity_matrix(), SCHED)
        assert v.status is Verdict.HOLDS
        assert all(s == 0 for _, s in v.trace)
        assert set(v.limit_estimates) == set(range(1, 17))
        assert all(est == 0 for est in v.limit_estimates.values())
        assert check_condition(ConditionId.C12, identity_matrix(), SCHED,
                               zero_limit=True).status is Verdict.HOLDS

    def test_difference_matrix_battery(self):
        D = difference_matrix()
        v14 = check_condition(ConditionId.C14, D, SMALL)
        assert v14.status is Verdict.HOLDS
        assert v14.trace[-1][1] == 1
        assert check_condition(ConditionId.C15, D, SMALL).status is Verdict.HOLDS
        v16 = check_condition(ConditionId.C16, D, SMALL)
        assert v16.status is Verdict.HOLDS  # column sums are exactly zero

    def test_prefix_sums_of_ones_diverge(self):
        v = check_condition(ConditionId.C14, lower_ones(), SMALL)
        assert v.status is Verdict.DIVERGENCE
        assert v.witness == {"col": 1}

    def test_row_tails(self):
        assert check_condition(ConditionId.C21, identity_matrix(),
                               SMALL).status is Verdict.HOLDS
        # triangular rows have finite support, so their tails vanish too
        assert check_condition(ConditionId.C21, lower_ones(),
                               SMALL).status is Verdict.HOLDS
        # a full quadrant of ones keeps a unit tail: no growth, no decay
        full = TriangleOperator(lambda n, k: Fraction(1),
                                kind=TriangleKind.ROW_EVALUABLE, row_support=None)
        assert check_condition(ConditionId.C21, full,
                               SMALL).status is Verdict.INCONCLUSIVE

    def test_subset_sums_of_summable_grid(self):
        v = check_condition(ConditionId.C20, geometric_grid(), SMALL)
        assert v.status is Verdict.HOLDS
        assert float(v.trace[-1][1]) <= 1.0
        assert v.aux["lower_growth_window_at"] is None
        assert check_condition(ConditionId.C22, geometric_grid(),
                               SMALL).status is Verdict.HOLDS

    def test_subset_sums_of_ones_diverge(self):
        v = check_condition(ConditionId.C20, lower_ones(), SMALL)
        assert v.status is Verdict.DIVERGENCE
        lower = [e["value"] for e in v.aux["lower_bound_trace"]]
        assert lower[-1] > lower[0]
        assert v.witness["method"] in ("greedy", "exhaustive-12")

    def test_identity_difference_conditions_diverge(self):
        # alternating column subsets pick out one +1 per row, so the subset
        # sums of the identity's column differences grow with the truncation
        # (the identity maps neither bs nor cs into l1)
        for cid in (ConditionId.C22, ConditionId.C23):
            v = check_condition(cid, identity_matrix(), SMALL)
            assert v.status is Verdict.DIVERGENCE
            assert v.aux["lower_growth_window_at"] is not None

    def test_subset_sum_scratch_is_packed(self):
        # the float truncation C20 keeps, the lower half of 513^2 cells, and
        # the float rows of the matrix it builds: 6.7 MB traced when both
        # were lists of floats, 3.5 MB with a square packed truncation
        F = riesz_matrix(parse_weight_spec("harmonic")[0]).as_float()
        tracemalloc.start()
        try:
            check_condition(ConditionId.C20, F, TruncationSchedule(sizes=(64, 128, 256, 512)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.0e6

    def test_subset_sum_scratch_keeps_the_lower_triangle(self):
        # a strict triangle's C20 keeps columns 0..n of row n, and Cesàro's
        # rows one value each: 12.95 MB traced with the square 1025^2
        # scratch and rows kept as lists
        F = cesaro_matrix().as_float()
        tracemalloc.start()
        try:
            check_condition(ConditionId.C20, F, TruncationSchedule(sizes=(128, 256, 512, 1024)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6e6

    def test_lower_bound_never_exceeds_the_upper(self):
        for matrix in (identity_matrix(), cesaro_matrix(), geometric_grid()):
            for cid in (ConditionId.C20, ConditionId.C22, ConditionId.C23):
                v = check_condition(cid, matrix, SMALL)
                uppers = [float(s) for _, s in v.trace]
                lowers = [e["value"] for e in v.aux["lower_bound_trace"]]
                for lo, hi in zip(lowers, uppers):
                    assert lo <= hi + 1e-9


class TestCharacterize:
    def test_identity_maps_l1_to_l1(self):
        rep = characterize(identity_matrix(), "l1", "l1", sched=SCHED)
        assert rep.table == 1 and rep.transform is TransformTag.NONE
        assert rep.overall is Verdict.HOLDS
        (cid, zl, verdict), = rep.conditions
        assert cid is ConditionId.C13 and not zl
        assert verdict.trace[-1][1] == 1
        assert rep.beta_prerequisite is None

    def test_cesaro_maps_l1_to_linf(self):
        rep = characterize(cesaro_matrix(), "l1", "linf", sched=SCHED)
        assert rep.overall is Verdict.HOLDS
        assert rep.conditions[0][2].trace[-1][1] == 1

    def test_growing_rows_fail(self):
        rep = characterize(row_index_matrix(), "l1", "linf", sched=SMALL)
        assert rep.overall is Verdict.DIVERGENCE

    def test_identity_out_of_int_bv(self):
        rep = characterize(identity_matrix(), "int-bv", "linf", WP_ONES, SMALL)
        assert rep.table == 3
        assert rep.transform is TransformTag.REDUCE_SOURCE_INT_BV
        assert rep.overall is Verdict.HOLDS
        assert rep.beta_prerequisite is not None
        assert rep.beta_prerequisite.status is Verdict.HOLDS
        assert rep.beta_prerequisite.aux["rows_checked"] == 32

    def test_conditions_match_direct_checks(self):
        rep = characterize(cesaro_matrix(), "int-bv", "c", WP_ONES, SMALL)
        reduced = reduce_source_int_bv(cesaro_matrix(), WP_ONES)
        for cid, zl, verdict in rep.conditions:
            direct = check_condition(cid, reduced, SMALL, zero_limit=zl)
            assert verdict.status is direct.status
            assert verdict.trace == direct.trace

    def test_verdict_survives_a_deeper_schedule(self):
        for sched in (SMALL, SMALL.doubled()):
            rep = characterize(identity_matrix(), "int-bv", "linf", WP_ONES, sched,
                               beta_row_limit=8)
            assert rep.overall is Verdict.HOLDS

    def test_domain_endpoints_need_weights(self):
        with pytest.raises(UnsupportedClassError):
            characterize(identity_matrix(), "int-bv", "linf", None, SMALL)

    def test_uncovered_pair(self):
        with pytest.raises(UnsupportedClassError):
            characterize(identity_matrix(), "linf", "c", sched=SMALL)

    def test_explicit_table_must_cover_the_pair(self):
        with pytest.raises(UnsupportedClassError):
            characterize(identity_matrix(), "l1", "c", sched=SMALL, table=2)

    def test_report_document_shape(self):
        rep = characterize(identity_matrix(), "int-bv", "c0", WP_ONES, SMALL,
                           beta_row_limit=4)
        doc = rep.to_dict()
        assert doc["source"] == "int-bv" and doc["target"] == "c0"
        assert doc["table"] == 3
        assert doc["transform"] == "reduce-source-int-bv"
        assert doc["conditions"][0]["condition"] == "C11"
        assert doc["conditions"][1]["zero_limit"] is True
        assert "beta_prerequisite" in doc
        assert doc["overall_status"] in ("HOLDS_AT_TRUNCATION",
                                         "DIVERGENCE_EVIDENCE", "INCONCLUSIVE")


class TestCompositeTargets:
    def test_cesaro_bounded_domain(self):
        target = CompositeTarget("cesaro")
        rep = characterize(identity_matrix(), "int-bv", target, WP_ONES, SMALL,
                           beta_row_limit=6)
        assert rep.target == "cesaro-bounded"
        assert rep.table == 3
        assert rep.overall is Verdict.HOLDS
        assert any("composite" in note for note in rep.notes)

    def test_composite_targets_are_values(self):
        a, b = CompositeTarget("euler", Fraction(1, 2)), CompositeTarget("euler", Fraction(1, 2))
        assert a == b and hash(a) == hash(b)
        # an unsupported-class error names a composite source by this form, lowercased
        assert str(a) == "CompositeTarget(family='euler', param=Fraction(1, 2))"

    def test_a_composite_target_needs_weights(self):
        with pytest.raises(UnsupportedClassError, match="weights required"):
            characterize(identity_matrix(), "int-bv", CompositeTarget("cesaro"), None, SMALL)

    def test_taylor_generator_needs_a_row_bound(self):
        target = CompositeTarget("taylor", Fraction(1, 2))
        with pytest.raises(UnsupportedRowError):
            characterize(identity_matrix(), "int-bv", target, WP_ONES, SMALL)
        rep = characterize(identity_matrix(), "int-bv", target, WP_ONES,
                           TruncationSchedule(sizes=(8, 16, 32)),
                           row_bound=64, beta_row_limit=3)
        assert rep.overall is Verdict.HOLDS
        assert any("truncated at 64" in note for note in rep.notes)

    @pytest.mark.parametrize("target", [CompositeTarget("cesaro"),
                                        CompositeTarget("euler", Fraction(1, 3)),
                                        CompositeTarget("riesz", harmonic())],
                             ids=["cesaro", "euler:1/3", "riesz:harmonic"])
    def test_float_composite_rows_round_the_exact_generator(self, target, monkeypatch):
        # a float A meets the float rows of a strict generator, and G A keeps
        # the bits of the product of the exact generator with A
        composed = []

        def spy(G, A, **kwargs):
            composed.append((G, matrix_product(G, A, **kwargs)))
            return composed[-1][1]

        monkeypatch.setattr(classes, "matrix_product", spy)
        wp = WeightPair(harmonic(), ones()).as_float()
        A = euler_matrix(Fraction(1, 2)).as_float()
        characterize(A, "int-bv", target, wp, SMALL, beta_row_limit=4)
        (G, got), = composed
        assert not G.exact
        want = matrix_product(target.generator(), euler_matrix(Fraction(1, 2)).as_float())
        for n in range(1, 65):
            assert repr(got.row(n, n)) == repr(want.row(n, n)), n

    @pytest.mark.parametrize("generator, by_product", [
        ("cesaro", False), ("riesz:harmonic", False), ("euler:1/3", True)])
    def test_an_exact_generator_that_declares_its_rows_composes_by_them(
            self, generator, by_product, monkeypatch):
        # an exact Riesz or Cesàro generator runs its recurrence, an Euler
        # one the product (a float generator takes the product, above)
        products = []

        def spy(G, A, **kwargs):
            products.append(G.label)
            return matrix_product(G, A, **kwargs)

        monkeypatch.setattr(classes, "matrix_product", spy)
        name, param, _ = parse_family_spec(generator)
        characterize(euler_matrix(Fraction(1, 2)), "int-bv", CompositeTarget(name, param),
                     WeightPair(harmonic(), ones()), TruncationSchedule(sizes=(8, 16, 32)),
                     beta_row_limit=2)
        assert len(products) == by_product

    def test_composite_needs_domain_source(self):
        with pytest.raises(UnsupportedClassError):
            characterize(identity_matrix(), "l1", CompositeTarget("cesaro"),
                         WP_ONES, SMALL)

    def test_composite_rejects_foreign_tables(self):
        with pytest.raises(UnsupportedClassError):
            characterize(identity_matrix(), "int-bv", CompositeTarget("cesaro"),
                         WP_ONES, SMALL, table=5)


CSV_MATRIX = f"csv:{Path(__file__).parent / 'lower_triangle.csv'}"
COMPOSITE_NOTE = ("composite target: generator composed on the target side, "
                  "then the bounded-target recipe applied")


def _composite_and_product(generator: str, matrix: str, source: str) -> tuple:
    """Two runs on exact inputs parsed afresh: ``matrix`` into the bounded
    domain of ``generator``, and ``matrix_product(G, A)`` into linf under
    the table the composite takes out of ``source``."""
    name, param, _ = parse_family_spec(generator)
    target = CompositeTarget(name, param)
    table = {"int-bv": 3, "d-bv": 4}[source]

    def run(composite: bool) -> ClassReport:
        A = parse_matrix_spec(matrix).operator
        wp = WeightPair(parse_weight_spec("harmonic")[0], parse_weight_spec("power:-1")[0])
        if composite:
            return characterize(A, source, target, wp, SMALL, beta_row_limit=6)
        return characterize(matrix_product(target.generator(), A), source, "linf", wp,
                            SMALL, table=table, beta_row_limit=6)

    return lambda: run(True), lambda: run(False)


class TestCompositeOracle:
    # the README's contract: a composite target checks G A into linf under
    # the table out of its source, and matrix_product(G, A) is G A

    @pytest.mark.parametrize("source", ["int-bv", "d-bv"])
    @pytest.mark.parametrize("matrix", ["cesaro", "euler:1/3", "identity",
                                        "expr:(n-2*k)/(n+k)", CSV_MATRIX],
                             ids=["cesaro", "euler:1/3", "identity", "expr", "csv"])
    @pytest.mark.parametrize("generator", ["cesaro", "riesz:harmonic", "riesz:power:-1",
                                           "riesz:1,3,2"])
    def test_exact_composite_equals_the_product_into_linf(self, generator, matrix, source):
        composite, reference = (run() for run in _composite_and_product(generator, matrix,
                                                                         source))
        assert composite.table == reference.table
        assert COMPOSITE_NOTE in composite.notes
        docs = [rep.to_dict() for rep in (composite, reference)]
        for doc in docs:
            del doc["target"]
            doc["notes"] = [note for note in doc["notes"] if note != COMPOSITE_NOTE]
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("generator, matrix, line", [
        ("cesaro", "expr:1/((n-5)^2+(k-3)^2)",
         "expression '1/((n-5)^2+(k-3)^2)' divides by zero at n=5, k=3"),
        ("riesz:harmonic", "expr:1/((n-5)^2+(k-3)^2)",
         "expression '1/((n-5)^2+(k-3)^2)' divides by zero at n=5, k=3"),
        ("riesz:1,3,-2", "euler:1/3", "weight t[3] must be positive for a Riesz matrix"),
        # the weight at 3 fails before row 5 of A is read ...
        ("riesz:1,3,-2", "expr:1/((n-5)^2+(k-3)^2)",
         "weight t[3] must be positive for a Riesz matrix"),
        # ... and row 5 of A before the weight at 7
        ("riesz:1,1,1,1,1,1,0,1", "expr:1/((n-5)^2+(k-3)^2)",
         "expression '1/((n-5)^2+(k-3)^2)' divides by zero at n=5, k=3"),
    ])
    @pytest.mark.parametrize("source", ["int-bv", "d-bv"])
    def test_an_ill_defined_input_fails_alike(self, generator, matrix, line, source):
        for run in _composite_and_product(generator, matrix, source):
            with pytest.raises((InvalidWeightError, ZeroDivisionError)) as exc:
                run()
            assert str(exc.value) == line


class TestReductionRoundtrip:
    def test_identity_factor(self):
        rng = random.Random(91)
        y = random_sequence(rng, 24)
        for n in (1, 4, 19):
            lhs, rhs = verify_reduction_roundtrip(identity_matrix(), WP_ONES, y, n)
            assert lhs == rhs == y.at(n)

    @pytest.mark.parametrize("seed", [93, 94])
    def test_random_row_finite_factor(self, seed):
        rng = random.Random(seed)
        wp = random_weight_pair(rng)
        y = random_sequence(rng, 64)
        B = euler_matrix(Fraction(1, 3))
        for n in (1, 5, 17, 33):
            lhs, rhs = verify_reduction_roundtrip(B, wp, y, n)
            assert lhs == rhs

    def test_zero_sequence(self):
        assert verify_reduction_roundtrip(cesaro_matrix(), WP_ONES,
                                          zeros(), 9) == (0, 0)

    def test_rebuilt_entries_match_the_product(self):
        # the column-wise rebuild used by the roundtrip is the product B T
        rng = random.Random(95)
        wp = random_weight_pair(rng)
        B = euler_matrix(Fraction(1, 3))
        P = matrix_product(B, integrated_triangle(wp))
        for n in (2, 7, 10):
            J = B.row_support(n)
            suffix = [Fraction(0)] * (J + 2)
            for k in range(J, 0, -1):
                suffix[k] = suffix[k + 1] + wp.u_at(k) * B.entry(n, k)
            for k in range(1, J + 1):
                a_nk = (k * wp.w_forward_diff(k) * suffix[k + 1]
                        + k * wp.u_at(k) * wp.w_at(k) * B.entry(n, k))
                assert a_nk == P.entry(n, k)

    def test_needs_row_finite_matrix(self):
        with pytest.raises(UnsupportedRowError):
            verify_reduction_roundtrip(taylor_matrix(Fraction(1, 2)), WP_ONES,
                                       ones(), 3)


# ---------------------------------------------------------------------------
# Reductions as recurrences, against the per-row and product forms they
# replace
# ---------------------------------------------------------------------------


def per_row_pairing(c, wp, integrated, zero, J):
    """Row J of the pairing construction on a fresh state, in the
    entry-wise read order: ``lead``, ``d`` and ``P`` are built anew for the
    row.  The reference for the shared weight state."""
    lead: list = [None]
    d: list = [None]
    P = [zero]

    def lead_at(k):
        if integrated:
            return c(k) / uw_divisor(k * wp.u_at(k) * wp.w_at(k), k)
        return k * c(k) / uw_divisor(wp.u_at(k) * wp.w_at(k), k)

    if J < 1:
        return []
    lead.append(lead_at(1))
    if J == 1:
        return [lead[1]]
    d.append(wp.recip_uw_diff(1))
    while len(P) <= J:
        j = len(P)
        P.append(P[-1] + (c(j) / j if integrated else j * c(j)))
    for k in range(2, J):
        lead.append(lead_at(k))
        d.append(wp.recip_uw_diff(k))
    lead.append(lead_at(J))
    PJ = P[J]
    out = [lead[k] + d[k] * (PJ - P[k]) for k in range(1, J)]
    out.append(lead[J])
    return out


def per_row_reduce_source(A, wp, integrated):
    """The source reduction with a fresh pairing state for every row, its
    coefficients read one ``A.entry`` at a time: the reference for
    ``reduce_source_*``."""
    zero = Fraction(0) if A.exact and wp.exact else 0.0

    def build_row(n):
        return per_row_pairing(lambda j: A.entry(n, j), wp, integrated, zero,
                               A.row_support(n))

    return TriangleOperator(build_row=build_row, kind=TriangleKind.ROW_EVALUABLE,
                            row_support=A.row_support, exact=A.exact and wp.exact)


def outcomes(B, rows):
    """``repr`` of each row of ``B`` asked for, in the order given, or the
    type and message of the exception it raises; a row that raises does
    not stop the walk."""
    out = []
    for n in rows:
        try:
            out.append((n, repr(B.row(n, n + 2))))
        except Exception as exc:  # the error itself is under comparison
            out.append((n, type(exc).__name__, str(exc)))
    return out


W_TERMS = [Fraction(p, q) for p in (-2, -1, 1, 2, 3) for q in (1, 2, 3)]
# ill-defined cells: one cell, one row, a diagonal band, a row and a column
ILL_DEFINED = ["expr:1/((n-4)^2+(k-2)^2)", "expr:1/(n-3)", "expr:1/(n-k-3)",
               "expr:1/((k-2)*(n-5))"]
REDUCED = ["cesaro", "euler:1/3", "riesz:harmonic", "difference", "expr:k/(n+1)",
           *ILL_DEFINED]


@st.composite
def weight_terms(draw, n):
    """Terms 1..n+2 of one weight (zero past them): random rationals, runs
    of one value (so that w_k - w_{k+1} = 0), a geometric whose float
    products underflow, or any of these with a zero at a random index."""
    shape = draw(st.sampled_from(["random", "runs", "geometric"]))
    if shape == "random":
        terms = draw(st.lists(st.sampled_from(W_TERMS), min_size=n + 2, max_size=n + 2))
    elif shape == "runs":
        terms = draw(st.lists(st.sampled_from([Fraction(1), Fraction(2)]),
                              min_size=n + 2, max_size=n + 2))
    else:
        ratio = Fraction(1, 2 ** draw(st.sampled_from([1, 20, 35])))
        terms = [ratio ** k for k in range(1, n + 3)]
    if draw(st.booleans()):
        terms[draw(st.integers(0, n + 1) | st.integers(0, min(n + 1, 5)))] = Fraction(0)
    return terms


@st.composite
def reduction_inputs(draw):
    """Weights, a mode and the rows to ask for, in order or not."""
    n = draw(st.integers(1, 30))
    u, w = draw(weight_terms(n)), draw(weight_terms(n))
    exact = draw(st.booleans())
    if draw(st.booleans()):
        rows = list(range(1, n + 1))
    else:
        rows = draw(st.lists(st.integers(1, n), min_size=1, max_size=12))
    return exact, u, w, rows


def make_weights(u, w, exact):
    pair = WeightPair(LazySequence.from_terms(u), LazySequence.from_terms(w))
    return pair if exact else pair.as_float()


def make_matrix(spec, exact):
    A = parse_matrix_spec(spec).operator
    return A if exact else A.as_float()


class TestSourceReductionOracle:
    @settings(max_examples=150, deadline=None)
    @given(reduction_inputs(), st.sampled_from(REDUCED), st.booleans())
    def test_rows_and_errors_match_a_fresh_state_per_row(self, inputs, spec, integrated):
        exact, u, w, rows = inputs
        reduce = reduce_source_int_bv if integrated else reduce_source_d_bv
        got = reduce(make_matrix(spec, exact), make_weights(u, w, exact))
        want = per_row_reduce_source(make_matrix(spec, exact), make_weights(u, w, exact),
                                     integrated)
        assert outcomes(got, rows) == outcomes(want, rows)

    @pytest.mark.parametrize("integrated, first", [(True, 543), (False, 538)])
    def test_float_weight_products_underflowing_past_1074(self, integrated, first):
        # u_k w_k = 4^-k passes 2^-1074 and rounds to zero at k = 538, and
        # k u_k w_k at k = 543; rows around it, out of order, and rows below
        # it asked for after it raised
        def make():
            u, w = (parse_weight_spec("geometric:1/2")[0].as_float() for _ in range(2))
            return cesaro_matrix().as_float(), WeightPair(u, w)

        reduce = reduce_source_int_bv if integrated else reduce_source_d_bv
        rows = [545, 536, first, first - 1, 2, 544, first - 1]
        got = outcomes(reduce(*make()), rows)
        assert got == outcomes(per_row_reduce_source(*make(), integrated), rows)
        assert got[0][1:] == got[2][1:] == (
            "InvalidWeightError", f"weight u[{first}] times w[{first}] underflows to zero")
        assert got[3][1].startswith("[")


class CountedReads(LazySequence):
    """A sequence that counts the reads of each index."""

    __slots__ = ("reads",)

    def __init__(self, rule):
        super().__init__(rule)
        self.reads = Counter()

    def at(self, k):
        self.reads[k] += 1
        return super().at(k)


class TestSourceReductionWork:
    @pytest.mark.parametrize("reduce", [reduce_source_int_bv, reduce_source_d_bv])
    def test_each_weight_and_row_is_read_a_bounded_number_of_times(self, reduce):
        # a per-row recomputation reads u_k and w_k once for every row n >= k
        u = CountedReads(lambda k: Fraction(1, k))
        w = CountedReads(lambda k: Fraction(k % 3 + 1, k))
        built = Counter()
        cesaro = cesaro_matrix()

        def build_row(n):
            built[n] += 1
            return cesaro.row(n, n)

        A = TriangleOperator(build_row=build_row, kind=TriangleKind.STRICT_TRIANGLE)
        B = reduce(A, WeightPair(u, w))
        for n in range(1, 257):
            B.row(n, n)
        assert max(u.reads.values()) <= 2 and max(w.reads.values()) <= 3
        assert set(u.reads) == set(w.reads) == set(range(1, 257))
        assert built == Counter(range(1, 257))


def random_triangle(rng, n, exact):
    rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m)]
            for m in range(1, n + 1)]
    A = TriangleOperator(build_row=lambda m: rows[m - 1], kind=TriangleKind.STRICT_TRIANGLE,
                         label="random")
    return A if exact else A.as_float()


TARGET_MATRICES = ["cesaro", "euler:1/3", "identity", "riesz:harmonic", *ILL_DEFINED]


def frozen_float_target_row(A, wp, integrated, n):
    """Row n of float T A by the recurrence, summed from scratch: u_n times
    the sum over j <= n of c_j A_j in ascending j, c_j = f(j) (w_j - w_{j+1})
    for j < n and f(n) w_n for j = n, a zero c_j skipping its row, and each
    row of A meeting a sum that zeros pad to its length.  It reads u_n,
    every c_j, then the rows of A.  The reference for the float rows of
    ``reduce_target_*``."""
    f = float if integrated else (lambda j: 1.0 / j)
    u = wp.u_at(n)
    coeffs = [f(j) * wp.w_forward_diff(j) for j in range(1, n)] + [f(n) * wp.w_at(n)]
    acc: list = []
    for j, c in enumerate(coeffs, 1):
        if c != 0:
            acc = [a + c * v for a, v in zip_longest(acc, A.row(j, j), fillvalue=0.0)]
    return [u * v for v in acc]


def product_skips_differ(wp, n, integrated):
    """Whether row n of the float product T A and the recurrence skip
    different rows of A: some u_n c_j underflows to zero where c_j does not
    (or the reverse on the diagonal, where T(n,n) rounds f(n) u_n first)."""
    f = float if integrated else (lambda j: 1.0 / j)
    try:
        T = (integrated_triangle if integrated else differentiated_triangle)(wp).row(n, n)
        coeffs = [f(j) * wp.w_forward_diff(j) for j in range(1, n)] + [f(n) * wp.w_at(n)]
    except InvalidWeightError:
        return False
    return any((t == 0) != (c == 0) for t, c in zip(T, coeffs))


def magnitude_row(wp, A, n, integrated):
    """Exact |u_n| times the sum over j <= n of |f(j)| (|w_j| + |w_{j+1}|)
    |A_j| (|w_n| alone for j = n) over the j the exact product reads: what
    the rounding of the float recurrence is relative to."""
    f = (lambda j: j) if integrated else (lambda j: Fraction(1, j))
    u = abs(wp.u_at(n))
    acc = [Fraction(0)] * n
    for j in range(1, n + 1):
        if j < n:
            if wp.w_forward_diff(j) == 0:
                continue
            m = f(j) * (abs(wp.w_at(j)) + abs(wp.w_at(j + 1)))
        else:
            m = f(n) * abs(wp.w_at(n))
        acc[:j] = [a + m * abs(v) for a, v in zip(acc, A.row(j, j))]
    return [u * a for a in acc]


class TestTargetReductionOracle:
    @settings(max_examples=150, deadline=None)
    @given(reduction_inputs(), st.sampled_from(TARGET_MATRICES + ["random"]),
           st.booleans(), st.integers(0, 2 ** 32), st.booleans())
    def test_rows_and_errors_match_the_product(self, inputs, spec, integrated, seed, unit_u):
        # exact, and float under u = ones: the product itself, bit for bit.
        # Float under any u: a frozen float recurrence bit for bit, the
        # product's errors, and the exact product's values within the bound
        exact, u, w, rows = inputs
        if unit_u and not exact:
            u = [Fraction(1)] * len(u)

        def make(exact=exact):
            if spec == "random":
                A = random_triangle(random.Random(seed), max(rows) + 1, exact)
            else:
                A = make_matrix(spec, exact)
            return A, make_weights(u, w, exact)

        reduce, triangle = ((reduce_target_int_bv, integrated_triangle) if integrated
                            else (reduce_target_d_bv, differentiated_triangle))
        got = reduce(*make())
        A, wp = make()
        if exact or unit_u:
            assert outcomes(got, rows) == outcomes(matrix_product(triangle(wp), A), rows)
            return
        product = outcomes(matrix_product(triangle(wp), A), rows)
        A, wp = make()
        frozen = TriangleOperator(
            build_row=lambda n: frozen_float_target_row(A, wp, integrated, n),
            kind=TriangleKind.STRICT_TRIANGLE, exact=False)
        got_outcomes = outcomes(got, rows)
        assert got_outcomes == outcomes(frozen, rows)
        A_exact, wp_exact = make(exact=True)
        want = matrix_product(triangle(wp_exact), A_exact)
        for mine, theirs in zip(got_outcomes, product):
            n = mine[0]
            if (len(mine) == 3 or len(theirs) == 3) and not product_skips_differ(wp, n,
                                                                                 integrated):
                assert mine == theirs
            if len(mine) == 3:
                continue
            try:
                exact_row = want.row(n, n)
            except ZeroDivisionError:  # an ill-defined A_j the float row skipped
                continue
            bound = magnitude_row(wp_exact, A_exact, n, integrated)
            for k, (g, e, m) in enumerate(zip(got.row(n, n), exact_row, bound), 1):
                assert abs(g - float(e)) <= 2.0 ** -44 * m + 2.0 ** -1050, (n, k)

    def test_float_underflow_reads_a_row_the_product_skips(self):
        # u_3 = 2^-1074: u_3 c_1 = 2^-1075 and u_3 c_2 round to zero, so the
        # float product reads only A_3; the recurrence sums c_1 A_1 + c_2 A_2
        # before it scales by u_3, and row 2 of A is ill-defined
        def make():
            u = LazySequence.from_terms([1.0, 1.0, 2.0 ** -1074, 1.0], exact=False)
            w = LazySequence.from_terms([1.0, 0.5, 1 / 3, 0.25], exact=False)
            return make_matrix("expr:1/(n-2)", False), WeightPair(u, w)

        A, wp = make()
        assert integrated_triangle(wp).row(3, 3) == [0.0, 0.0, 5e-324]
        assert matrix_product(integrated_triangle(wp), A).row(3, 3) == [5e-324] * 3
        with pytest.raises(ZeroDivisionError, match="at n=2, k=1"):
            reduce_target_int_bv(*make()).row(3, 3)
        assert product_skips_differ(wp, 3, True)

    @pytest.mark.parametrize("integrated", [True, False])
    @pytest.mark.parametrize("zero_u, zero_w, spec", [
        (4, None, "cesaro"), (None, 3, "euler:1/3"), (None, None, "expr:1/(n-3)"),
        (6, 2, "expr:(k-2)/(n-5)")])
    def test_first_errors_match_the_product(self, integrated, zero_u, zero_w, spec):
        u = [Fraction(1, k) for k in range(1, 13)]
        w = [Fraction(k % 3 + 1, k) for k in range(1, 13)]
        if zero_u:
            u[zero_u - 1] = Fraction(0)
        if zero_w:
            w[zero_w - 1] = Fraction(0)
        reduce, triangle = ((reduce_target_int_bv, integrated_triangle) if integrated
                            else (reduce_target_d_bv, differentiated_triangle))
        rows = [7, 2, 5, 3, 1, 6, 4, 8]
        got = outcomes(reduce(make_matrix(spec, True), make_weights(u, w, True)), rows)
        wp = make_weights(u, w, True)
        assert got == outcomes(matrix_product(triangle(wp), make_matrix(spec, True)), rows)
        assert any(len(o) == 3 for o in got)

    def test_zero_coefficients_skip_the_rows_of_a(self):
        # with w = ones every off-diagonal coefficient is zero: row n of T A
        # reads only row n of A, as the product does, so row 3's error is
        # not raised for row 5
        A = make_matrix("expr:1/(n-3)", True)
        B = reduce_target_int_bv(A, WP_ONES)
        assert B.row(5, 5) == [5 * Fraction(1, 2)] * 5
        with pytest.raises(ZeroDivisionError, match="at n=3, k=1"):
            B.row(3, 3)
