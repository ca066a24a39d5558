"""The one-pass row state of ``pairing-check`` and ``reduction-check``
against a fresh evaluation of every row.

``pairing_identity_sides`` and ``reduction_roundtrip_sides`` build the
inverse image, the kernel rows and the column factors once and walk rows
1..n.  The reference functions below are the per-row evaluations they
replace, kept as they were: each call builds its space, inverse image and
kernel from scratch.  Walking rows 1..n in order, as the CLI does, both
must give the same ``repr`` of each side, or raise the same exception
with the same message at the same row.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sumkit.classes import reduction_roundtrip_sides, verify_reduction_roundtrip
from sumkit.core import LazySequence
from sumkit.duals import (DualMatrixKind, dual_kernel_matrix, pairing_identity_check,
                          pairing_identity_sides)
from sumkit.errors import UnsupportedRowError
from sumkit.minilang import parse_matrix_spec, parse_weight_spec
from sumkit.operators import WeightPair, integrated_inverse
from sumkit.spaces import SpaceName, domain_space, embed_from_l1


def reference_pairing(a, y, wp, space, n):
    name = SpaceName(space)
    S = domain_space(name, wp)
    x = embed_from_l1(S, y)
    lhs = x.zero()
    for k in range(1, n + 1):
        lhs += a.at(k) * x.at(k)
    kind = (DualMatrixKind.BETA_INT_BV if name is SpaceName.INT_BV
            else DualMatrixKind.BETA_D_BV)
    M = dual_kernel_matrix(kind, a, wp)
    rhs = M.zero()
    for k in range(1, n + 1):
        rhs += M.entry(n, k) * y.at(k)
    return lhs, rhs


def reference_reduction(B, wp, y, n):
    if B.row_support is None:
        raise UnsupportedRowError("reduction roundtrips need a row-finite matrix")
    J = B.row_support(n)
    exact = B.exact and wp.exact and y.exact
    zero = Fraction(0) if exact else 0.0
    suffix = [zero] * (J + 2)
    for k in range(J, 0, -1):
        suffix[k] = suffix[k + 1] + wp.u_at(k) * B.entry(n, k)
    x = integrated_inverse(wp, y)
    lhs = zero
    for k in range(1, J + 1):
        a_nk = (k * wp.w_forward_diff(k) * suffix[k + 1]
                + k * wp.u_at(k) * wp.w_at(k) * B.entry(n, k))
        lhs += a_nk * x.at(k)
    rhs = zero
    for k in range(1, J + 1):
        rhs += B.entry(n, k) * y.at(k)
    return lhs, rhs


def walk(sides, n, rows=None):
    """``repr`` of both sides for rows 1..n in order, stopping at the first
    exception, which is recorded by type and message; ``rows`` keeps only
    those rows (all rows are still evaluated)."""
    out = []
    for m in range(1, n + 1):
        try:
            lhs, rhs = sides(m)
        except Exception as exc:  # the error itself is under comparison
            out.append((m, type(exc).__name__, str(exc)))
            break
        if rows is None or m in rows:
            out.append((m, repr(lhs), repr(rhs)))
    return out


# -- inputs ------------------------------------------------------------------

SMALL = [Fraction(p, q) for p in (-3, -2, -1, 1, 2, 3) for q in (1, 2, 4, 7)]


@st.composite
def weight_terms(draw, n):
    """Terms 1..n+2 of one weight: random rationals, a steep geometric
    (whose float reciprocals overflow and whose products underflow before
    n = 40), or either with a zero at a random index."""
    if draw(st.booleans()):
        terms = draw(st.lists(st.sampled_from(SMALL), min_size=n + 2, max_size=n + 2))
    else:
        ratio = Fraction(1, 2 ** draw(st.sampled_from([1, 20, 35])))
        terms = [ratio ** k for k in range(1, n + 3)]
    if draw(st.booleans()):
        # often among the first few, where the ill-defined matrices fail too
        terms[draw(st.integers(0, n + 1) | st.integers(0, min(n + 1, 5)))] = Fraction(0)
    return terms


def sequence(terms, exact):
    seq = LazySequence.from_terms(terms, exact=True)
    return seq if exact else seq.as_float()


def weight_pair(u_terms, w_terms, exact):
    return WeightPair(sequence(u_terms, exact), sequence(w_terms, exact))


def float_specs(*specs):
    """Float sequences of the given weight or sequence specs."""
    return [parse_weight_spec(spec)[0].as_float() for spec in specs]


@st.composite
def identity_inputs(draw):
    n = draw(st.integers(1, 40))
    exact = draw(st.booleans())
    u, w = draw(weight_terms(n)), draw(weight_terms(n))
    a = draw(st.lists(st.sampled_from(SMALL + [Fraction(0)]), min_size=n, max_size=n))
    y = draw(st.lists(st.sampled_from(SMALL + [Fraction(0)]), min_size=n, max_size=n))
    return n, exact, u, w, a, y


MATRICES = ["cesaro", "euler:1/3", "identity", "difference", "riesz:harmonic",
            "expr:1/(n-k-3)", "expr:1/(n-3)", "expr:(k-2)/(n-5)", "expr:k/(n+1)"]


# -- pairing-check -------------------------------------------------------------


class TestPairingSides:
    @settings(max_examples=100, deadline=None)
    @given(identity_inputs(), st.sampled_from(["int-bv", "d-bv"]))
    def test_matches_a_fresh_evaluation_of_every_row(self, inputs, space):
        n, exact, u, w, a, y = inputs

        def make():
            return sequence(a, exact), sequence(y, exact), weight_pair(u, w, exact)

        # the reference rebuilds its inputs for every row, so that no memo
        # carries over from one row to the next
        assert (walk(pairing_identity_sides(*make(), space), n)
                == walk(lambda m: reference_pairing(*make(), space, m), n))

    @pytest.mark.parametrize("space", ["int-bv", "d-bv"])
    @pytest.mark.parametrize("u, w", [("ones", "geometric:1/2"), ("geometric:1/2", "ones")])
    def test_float_geometric_weights_past_the_float_range(self, space, u, w):
        # near k = 1024, 1/w_k (resp. 1/u_k) leaves the float range and the
        # sides turn inf and NaN; rows 1..1060 are walked, a few are compared
        def make():
            a, y = float_specs("power:-2", "alternating")
            return a, y, WeightPair(*float_specs(u, w))

        rows = {1, 2, 600, 1022, 1023, 1024, 1025, 1060}
        got = walk(pairing_identity_sides(*make(), space), 1060, rows)
        want = [(m, *map(repr, reference_pairing(*make(), space, m))) for m in sorted(rows)]
        assert got == want
        assert got[-1][1:] == ("nan", "nan")

    def test_the_per_row_function_is_the_sides_at_that_row(self):
        rng = random.Random(81)
        terms = [rng.choice(SMALL) for _ in range(30)]
        a, y = sequence(terms, True), sequence(terms[::-1], True)
        wp = weight_pair(terms, terms[3:] + [Fraction(1)] * 3, True)
        sides = pairing_identity_sides(a, y, wp, "d-bv")
        for n in (5, 17, 28):
            assert pairing_identity_check(a, y, wp, "d-bv", n) == sides(n)


# -- reduction-check ------------------------------------------------------------


class TestReductionSides:
    @settings(max_examples=100, deadline=None)
    @given(identity_inputs(), st.sampled_from(MATRICES))
    def test_matches_a_fresh_evaluation_of_every_row(self, inputs, matrix):
        n, exact, u, w, _, y = inputs

        def make():
            B = parse_matrix_spec(matrix).operator
            return (B if exact else B.as_float(), weight_pair(u, w, exact),
                    sequence(y, exact))

        assert (walk(reduction_roundtrip_sides(*make()), n)
                == walk(lambda m: reference_reduction(*make(), m), n))

    @pytest.mark.parametrize("u, w", [("ones", "geometric:1/2"), ("geometric:1/2", "ones")])
    def test_float_geometric_weights_past_the_float_range(self, u, w):
        def make():
            B = parse_matrix_spec("cesaro").operator.as_float()
            return B, WeightPair(*float_specs(u, w)), float_specs("harmonic")[0]

        rows = {1, 2, 600, 1022, 1023, 1024, 1025, 1060}
        got = walk(reduction_roundtrip_sides(*make()), 1060, rows)
        want = [(m, *map(repr, reference_reduction(*make(), m))) for m in sorted(rows)]
        assert got == want
        assert "nan" in got[-1][1:] or "inf" in got[-1][1:]

    def test_an_infinite_row_matrix_is_refused_before_any_row(self):
        B = parse_matrix_spec("taylor:1/2").operator
        wp = weight_pair([Fraction(1)] * 3, [Fraction(1)] * 3, True)
        y = sequence([Fraction(1)], True)
        with pytest.raises(UnsupportedRowError, match="row-finite"):
            reduction_roundtrip_sides(B, wp, y)
        with pytest.raises(UnsupportedRowError, match="row-finite"):
            verify_reduction_roundtrip(B, wp, y, 1)

    def test_the_per_row_function_is_the_sides_at_that_row(self):
        B = parse_matrix_spec("euler:2/3").operator
        wp = weight_pair(SMALL, SMALL[::-1], True)
        y = sequence(SMALL, True)
        sides = reduction_roundtrip_sides(B, wp, y)
        for n in (3, 11, 20):
            assert verify_reduction_roundtrip(B, wp, y, n) == sides(n)
