"""Tests for the two weighted domain spaces: norms, membership, embedding."""

import random
from fractions import Fraction

import pytest

from sumkit.core import (
    ConditionVerdict,
    LazySequence,
    StatKind,
    TruncationSchedule,
    Verdict,
    geometric,
    harmonic,
    judge_trace,
    ones,
    powers,
    zeros,
)
from sumkit.errors import UnsupportedSpaceError
from sumkit.operators import WeightPair, apply_triangle
from sumkit.spaces import (
    SpaceName,
    ak_tail_norm,
    basis_column,
    domain_norm,
    domain_space,
    embed_from_l1,
)
from conftest import random_sequence, random_weight_pair

SCHED = TruncationSchedule()
WP_ONES = WeightPair.all_ones()
WP_HARM = WeightPair(ones(), harmonic())


def test_domain_space_accepts_names_and_enums():
    s = domain_space("int-bv", WP_ONES)
    assert s.name is SpaceName.INT_BV
    assert domain_space(SpaceName.D_BV, WP_ONES).name is SpaceName.D_BV
    with pytest.raises(ValueError):
        domain_space("bv", WP_ONES)


class TestNorms:
    def test_unit_vector_norm(self):
        s = domain_space("int-bv", WP_ONES)
        assert domain_norm(s, LazySequence.unit(1), 10) == 1

    def test_d_bv_ones_partial_norm(self):
        # transform is diag(1/n), so the norm truncates the harmonic series
        s = domain_space("d-bv", WP_ONES)
        assert domain_norm(s, ones(), 4) == Fraction(25, 12)

    def test_geometric_weight_norm_approaches_two(self):
        wp = WeightPair(geometric(Fraction(1, 2)), ones())
        s = domain_space("int-bv", wp)
        norm = domain_norm(s, ones(), 64)
        assert norm == sum(Fraction(n, 2**n) for n in range(1, 65))
        assert abs(float(norm) - 2.0) < 1e-12

    @pytest.mark.parametrize("name", ["int-bv", "d-bv"])
    @pytest.mark.parametrize("seed", [41, 42])
    def test_embedding_is_isometric(self, name, seed):
        rng = random.Random(seed)
        wp = random_weight_pair(rng)
        y = random_sequence(rng, 32)
        s = domain_space(name, wp)
        x = embed_from_l1(s, y)
        l1_norm = sum(abs(y.at(k)) for k in range(1, 33))
        for n in (32, 40):
            assert domain_norm(s, x, n) == l1_norm

    @pytest.mark.parametrize("name", ["int-bv", "d-bv"])
    def test_embedding_inverts_the_triangle(self, name):
        rng = random.Random(43)
        wp = random_weight_pair(rng)
        y = random_sequence(rng, 24)
        s = domain_space(name, wp)
        image = apply_triangle(s.triangle, embed_from_l1(s, y))
        assert image.prefix(24) == y.prefix(24)


def _membership(space, x):
    """The domain norm of x, judged as a SUP trace over the schedule, with
    each norm checked against the l1 norm of T x, T the space's triangle."""
    y = apply_triangle(space.triangle, x)
    trace = [(n, domain_norm(space, x, n)) for n in SCHED.sizes]
    for n, norm in trace:
        assert norm == sum(abs(v) for v in y.prefix(n)), n
    status, _ = judge_trace([v for _, v in trace], StatKind.SUP, SCHED)
    return ConditionVerdict(status=status, trace=trace)


class TestMembership:
    def test_ones_outside_harmonic_weighted_space(self):
        s = domain_space("int-bv", WP_HARM)
        v = _membership(s, ones())
        assert v.status is Verdict.DIVERGENCE

    def test_cubic_decay_inside(self):
        s = domain_space("int-bv", WP_ONES)
        v = _membership(s, powers(-3))
        assert v.status is Verdict.HOLDS

    def test_zero_sequence(self):
        s = domain_space("int-bv", WP_HARM)
        v = _membership(s, zeros())
        assert v.status is Verdict.HOLDS
        assert v.trace[-1][1] == 0

    def test_ones_outside_d_bv(self):
        s = domain_space("d-bv", WP_ONES)
        v = _membership(s, ones())
        assert v.status is Verdict.DIVERGENCE


class TestSectionTails:
    def test_only_defined_on_d_bv(self):
        s = domain_space("int-bv", WP_ONES)
        with pytest.raises(UnsupportedSpaceError):
            ak_tail_norm(s, ones(), 3, 50)

    def test_argument_validation(self):
        s = domain_space("d-bv", WP_ONES)
        with pytest.raises(ValueError):
            ak_tail_norm(s, ones(), -1, 10)
        with pytest.raises(ValueError):
            ak_tail_norm(s, ones(), 10, 5)

    def test_zero_section_is_the_norm(self):
        s = domain_space("d-bv", WP_ONES)
        x = geometric(Fraction(1, 2))
        assert ak_tail_norm(s, x, 0, 30) == domain_norm(s, x, 30)

    def test_finite_support_vanishes(self):
        s = domain_space("d-bv", WP_ONES)
        x = LazySequence.from_terms([4, -1, 0, 2, 7])
        assert ak_tail_norm(s, x, 5, 64) == 0

    def test_tails_decrease_to_zero(self):
        # transform is x_n / n here, so the m-tail is sum_{n>m} 2^-n / n
        s = domain_space("d-bv", WP_ONES)
        x = geometric(Fraction(1, 2))
        n_eval = 80
        tails = [ak_tail_norm(s, x, m, n_eval) for m in range(13)]
        assert all(a > b for a, b in zip(tails, tails[1:]))
        want = sum(Fraction(1, n * 2**n) for n in range(8, n_eval + 1))
        assert tails[7] == want
        assert float(ak_tail_norm(s, x, 40, n_eval)) < 1e-9


class TestBasisExpansion:
    @pytest.mark.parametrize("name", ["int-bv", "d-bv"])
    def test_partial_expansions_reproduce_coordinates(self, name):
        rng = random.Random(47)
        wp = random_weight_pair(rng)
        s = domain_space(name, wp)
        x = random_sequence(rng, 12)
        y = apply_triangle(s.triangle, x)
        for n in range(1, 13):
            acc = Fraction(0)
            for k in range(1, n + 1):
                acc += y.at(k) * basis_column(name, wp, k).at(n)
            assert acc == x.at(n)
