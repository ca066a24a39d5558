"""Tests for sequences, partial sums, schedules and the verdict engine."""

import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sumkit.core import (
    DEFAULT_SIZES,
    LazySequence,
    ScheduleError,
    StatKind,
    TruncationSchedule,
    Verdict,
    alternating,
    as_fraction,
    combine_conjunctive,
    geometric,
    harmonic,
    judge_trace,
    ones,
    powers,
    running_sums,
    scalar_to_json,
    space_evidence,
    zeros,
)

SCHED = TruncationSchedule(sizes=DEFAULT_SIZES)


class TestSequences:
    def test_factories(self):
        assert ones().prefix(4) == [1, 1, 1, 1]
        assert zeros().prefix(3) == [0, 0, 0]
        assert harmonic().at(7) == Fraction(1, 7)
        assert alternating().prefix(4) == [-1, 1, -1, 1]
        assert powers(2).at(5) == 25
        assert powers(-3).at(2) == Fraction(1, 8)
        assert geometric(Fraction(1, 2)).at(10) == Fraction(1, 1024)

    def test_unit(self):
        e3 = LazySequence.unit(3)
        assert e3.prefix(5) == [0, 0, 1, 0, 0]
        assert e3.support == 3

    def test_from_terms_support_and_zero_tail(self):
        x = LazySequence.from_terms([5, -2, Fraction(1, 3)])
        assert x.support == 3
        assert x.at(3) == Fraction(1, 3)
        assert x.at(4) == 0
        assert x.at(1000) == 0

    def test_indices_start_at_one(self):
        with pytest.raises(IndexError):
            ones().at(0)

    def test_combinators(self):
        # zeroed_prefix then as_float: the zeros and the mode carry over
        x = harmonic().zeroed_prefix(2).as_float()
        got = x.prefix(4)
        assert got == [0.0, 0.0, 1 / 3, 0.25]
        assert not x.exact and all(type(v) is float for v in got)
        y = LazySequence.from_terms([1, 2, 3]).zeroed_prefix(1).as_float()
        assert y.support == 3 and y.prefix(4) == [0.0, 2.0, 3.0, 0.0]

    def test_zeroed_prefix(self):
        x = ones().zeroed_prefix(3)
        assert x.prefix(5) == [0, 0, 0, 1, 1]

    def test_as_float(self):
        x = harmonic().as_float()
        assert not x.exact
        assert x.at(4) == pytest.approx(0.25)

    def test_memoized_evaluation_is_stable(self):
        calls = []

        def term(k):
            calls.append(k)
            return Fraction(1, k)

        x = LazySequence(term)
        assert x.at(9) == x.at(9)
        assert calls.count(9) == 1


def partial_sum(x, n):
    """Sum of the first ``n`` terms of ``x`` by ``running_sums``."""
    return running_sums(x.at, x.zero())(n)


class TestPartialSums:
    def test_ones(self):
        assert partial_sum(ones(), 4) == 4

    def test_unit_vector(self):
        assert partial_sum(LazySequence.unit(2), 5) == 1

    def test_geometric_halves(self):
        # independent closed form: sum_{k<=10} 2^-k == (2^10 - 1) / 2^10
        got = partial_sum(geometric(Fraction(1, 2)), 10)
        assert got == Fraction(2**10 - 1, 2**10)

    def test_empty_sum(self):
        assert partial_sum(ones(), 0) == 0
        assert type(partial_sum(ones(exact=False), 0)) is float

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=30),
           st.integers(0, 29))
    def test_one_more_term(self, terms, n):
        x = LazySequence.from_terms([Fraction(t) for t in terms])
        prefix = running_sums(x.at, x.zero())
        # the longer prefix first: the shorter one is read from the kept sums
        assert prefix(n + 1) == prefix(n) + x.at(n + 1) == partial_sum(x, n + 1)


class TestSchedules:
    def test_defaults(self):
        assert SCHED.sizes == (16, 32, 64, 128, 256)
        assert SCHED.max_size == 256
        assert SCHED.stabilization_tol == 1e-9
        assert SCHED.growth_ratio == 1.5

    def test_needs_three_increasing_sizes(self):
        with pytest.raises(ScheduleError):
            TruncationSchedule(sizes=(16, 32))
        with pytest.raises(ScheduleError):
            TruncationSchedule(sizes=(16, 16, 32))
        with pytest.raises(ScheduleError):
            TruncationSchedule(sizes=(32, 16, 64))

    def test_parse(self):
        sched = TruncationSchedule.parse("8,16,32;tol=1e-6;ratio=2")
        assert sched.sizes == (8, 16, 32)
        assert sched.stabilization_tol == 1e-6
        assert sched.growth_ratio == 2.0

    def test_parse_rejects_junk(self):
        with pytest.raises(ScheduleError):
            TruncationSchedule.parse("8,16,32;mystery=1")
        with pytest.raises(ScheduleError):
            TruncationSchedule.parse("")

    @pytest.mark.parametrize("option, message", [
        ("tol=inf", "stabilization tolerance must be finite"),
        ("ratio=inf", "growth ratio must be finite"),
        ("tol=nan", "stabilization tolerance must be positive"),
        ("tol=-inf", "stabilization tolerance must be positive"),
        ("ratio=nan", "growth ratio must exceed 1"),
        ("ratio=-inf", "growth ratio must exceed 1"),
        ("steps=0", "growth window needs at least 1 step"),
    ])
    def test_parse_rejects_non_finite_options(self, option, message):
        with pytest.raises(ScheduleError, match=f"^{message}$"):
            TruncationSchedule.parse("16,32,64;" + option)

    def test_a_schedule_is_an_immutable_value(self):
        sched = TruncationSchedule([8.0, 16, 32])
        assert sched.sizes == (8, 16, 32)
        assert [type(s) for s in sched.sizes] == [int, int, int]
        assert sched == TruncationSchedule.parse("8,16,32")
        assert hash(sched) == hash(TruncationSchedule.parse("8,16,32"))
        with pytest.raises(AttributeError):
            sched.sizes = (1, 2, 3)

    def test_replace_checks_the_fields(self):
        # the inherited _make, which _replace calls, builds the tuple directly
        with pytest.raises(ScheduleError, match="^growth window needs at least 1 step$"):
            SCHED._replace(growth_steps=0)
        with pytest.raises(ScheduleError, match="^schedule sizes must be strictly increasing$"):
            TruncationSchedule._make([(8, 8, 16), 1e-9, 1.5, 3])
        assert SCHED._replace(growth_steps=2) == TruncationSchedule(DEFAULT_SIZES, growth_steps=2)

    def test_doubled(self):
        assert SCHED.doubled().sizes == (16, 32, 64, 128, 256, 512)
        assert SCHED.doubled().stabilization_tol == SCHED.stabilization_tol

    def test_to_dict_round_trips_through_parse(self):
        d = SCHED.to_dict()
        text = "%s;tol=%r;ratio=%r" % (
            ",".join(str(s) for s in d["sizes"]), d["stabilization_tol"],
            d["growth_ratio"])
        assert TruncationSchedule.parse(text) == SCHED


class TestJudge:
    def test_stabilized_sup_holds(self):
        trace = [1.0, 1.5, 1.75, 1.75, 1.75]
        status, info = judge_trace(trace, StatKind.SUP, SCHED)
        assert status is Verdict.HOLDS
        assert info["stabilized"]

    def test_growth_window_diverges(self):
        trace = [1.0, 2.0, 4.0, 8.0, 16.0]
        status, info = judge_trace(trace, StatKind.SUP, SCHED)
        assert status is Verdict.DIVERGENCE
        assert info["growth_window_at"] == 0

    def test_geometric_decay_of_increments_holds(self):
        # partial sums of a geometrically convergent series: increments
        # shrink by 1/4 each step but never quite stabilize to 1e-9.
        trace, v = [], 0.0
        inc = 1e-3
        for _ in range(5):
            v += inc
            trace.append(v)
            inc /= 4
        status, info = judge_trace(trace, StatKind.SUP, SCHED)
        assert status is Verdict.HOLDS
        assert info["geometric_decay"]

    def test_slow_creep_is_inconclusive(self):
        trace = [1.0, 1.1, 1.2, 1.3, 1.4]
        status, _ = judge_trace(trace, StatKind.SUP, SCHED)
        assert status is Verdict.INCONCLUSIVE

    def test_defect_final_small_holds(self):
        trace = [0.5, 0.1, 0.01, 1e-12, 1e-14]
        status, _ = judge_trace(trace, StatKind.DEFECT, SCHED)
        assert status is Verdict.HOLDS

    def test_defect_exact_zero_requirement(self):
        trace = [Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(0)]
        status, _ = judge_trace(trace, StatKind.DEFECT, SCHED,
                                require_exact_zero=True)
        assert status is Verdict.HOLDS
        # exact but nonzero values never count as zero, however tiny
        near = [Fraction(1, 10**15)] * 3
        status, _ = judge_trace(near, StatKind.DEFECT, SCHED,
                                require_exact_zero=True)
        assert status is not Verdict.HOLDS

    def test_defect_growth_diverges(self):
        trace = [1.0, 2.0, 4.0, 8.0]
        status, _ = judge_trace(trace, StatKind.DEFECT, SCHED)
        assert status is Verdict.DIVERGENCE

    def test_short_trace_rejected(self):
        with pytest.raises(ScheduleError):
            judge_trace([1.0, 2.0], StatKind.SUP, SCHED)


def test_combine_conjunctive():
    V = Verdict
    assert combine_conjunctive([]) is V.HOLDS
    assert combine_conjunctive([V.HOLDS, V.HOLDS]) is V.HOLDS
    assert combine_conjunctive([V.HOLDS, V.INCONCLUSIVE]) is V.INCONCLUSIVE
    assert combine_conjunctive(
        [V.INCONCLUSIVE, V.DIVERGENCE, V.HOLDS]) is V.DIVERGENCE


class TestSpaceEvidence:
    def test_finite_support_everywhere(self):
        # total sum zero: the partial sums stop moving after three terms
        v = space_evidence(LazySequence.from_terms([3, -1, -2]), SCHED)
        assert v.status is Verdict.HOLDS
        assert v.trace == [(s, 0) for s in SCHED.sizes]

    def test_nonzero_total_sum_is_in_cs(self):
        x = LazySequence.from_terms([3, -1, 4])
        assert space_evidence(x, SCHED).status is Verdict.HOLDS

    def test_partial_sums_of_geometric_converge(self):
        v = space_evidence(geometric(Fraction(1, 2)), SCHED)
        assert v.status is Verdict.HOLDS
        # sums[s//2 : s] runs from S_{s/2+1} to S_s, and S_m = 1 - 2^-m
        assert v.trace[0] == (16, Fraction(1, 2**9) - Fraction(1, 2**16))
        assert v.witness is None
        assert v.aux["space"] == "cs"

    def test_alternating_partial_sums_oscillate(self):
        v = space_evidence(alternating(), SCHED)
        assert v.status is not Verdict.HOLDS
        assert v.trace == [(s, 1) for s in SCHED.sizes]

    def test_ones_partial_sums_diverge(self):
        v = space_evidence(ones(), SCHED)
        assert v.status is not Verdict.HOLDS
        assert v.trace == [(s, s - s // 2 - 1) for s in SCHED.sizes]


class TestScalarJson:
    def test_fractions_become_strings(self):
        assert scalar_to_json(Fraction(3, 4)) == "3/4"
        assert scalar_to_json(Fraction(-3, 4)) == "-3/4"
        assert scalar_to_json(Fraction(5)) == "5"

    def test_floats_stay_numbers(self):
        assert scalar_to_json(0.25) == 0.25

    def test_nonfinite_is_tagged(self):
        assert scalar_to_json(float("inf")) == "inf"

    def test_past_the_int_digit_limit_round_trips(self):
        # str() of an int past 4300 digits raises ValueError
        value = Fraction(10**5000 + 1, 3)
        num, den = scalar_to_json(value).split("/")
        assert Fraction(int(Decimal(num)), int(Decimal(den))) == value
        assert int(Decimal(scalar_to_json(Fraction(-10**5000)))) == -10**5000

    def test_as_fraction_rejects_floats(self):
        with pytest.raises(TypeError):
            as_fraction(0.1)
        with pytest.raises(TypeError, match="from list"):
            as_fraction([1])
        assert as_fraction("2/3") == Fraction(2, 3)
        assert as_fraction(7) == Fraction(7)
