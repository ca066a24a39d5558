"""``space_evidence`` against a frozen copy of its earlier, one-branch-per-tag
form, restricted to cs (the one space it still judges): the same report
(compared by ``repr``, so NaN compares too) or the same exception, in exact
and float mode, with infinities, NaN, signed zeros, huge and subnormal
floats."""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from sumkit.core import (ConditionVerdict, LazySequence, StatKind,
                         TruncationSchedule, _to_float, judge_trace, space_evidence)


def _osc(window):
    return max(window) - min(window)


def frozen_space_evidence(x: LazySequence, sched: TruncationSchedule) -> ConditionVerdict:
    n_max = sched.max_size
    xs = x.prefix(n_max)
    sums = []
    acc = x.zero()
    for v in xs:
        acc = acc + v
        sums.append(acc)
    abs_sums = [abs(s) for s in sums]

    trace = []
    kind = StatKind.DEFECT
    for s in sched.sizes:
        window = sums[s // 2: s]
        d = _osc(window)
        trace.append((s, d))

    scale = max(1.0, max((_to_float(v) for v in abs_sums), default=1.0))

    status, routes = judge_trace([v for _, v in trace], kind, sched, scale=scale)
    aux = {"space": "cs", "routes": routes}
    return ConditionVerdict(status=status, trace=trace, witness=None, aux=aux)


SPECIAL_FLOATS = [math.inf, -math.inf, math.nan, -0.0, 0.0, 1e308, -1e308, 5e-324, -5e-324]

exact_terms = st.lists(
    st.one_of(st.fractions(max_denominator=50).filter(lambda q: abs(q) < 10 ** 6),
              st.sampled_from([Fraction(10) ** 400, -Fraction(10) ** 400,
                               Fraction(1, 10 ** 400)])),
    min_size=1, max_size=12)
float_terms = st.lists(
    st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(SPECIAL_FLOATS)),
    min_size=1, max_size=12)
schedules = st.builds(
    lambda sizes, steps: TruncationSchedule(tuple(sorted(sizes)), growth_steps=steps),
    st.sets(st.integers(1, 80), min_size=3, max_size=6), st.integers(1, 3))


def outcome(evidence, x, sched) -> str:
    try:
        return repr(evidence(x, sched).to_dict())
    except Exception as exc:  # the exception is part of the behaviour compared
        return f"{type(exc).__name__}: {exc}"


def periodic(terms: list, exact: bool) -> LazySequence:
    """The terms repeated forever, so every schedule size reads a full window."""
    return LazySequence(lambda k: terms[(k - 1) % len(terms)], exact=exact)


@settings(max_examples=300, deadline=None)
@given(st.one_of(exact_terms.map(lambda t: (t, True)), float_terms.map(lambda t: (t, False))),
       schedules)
def test_matches_the_frozen_form(case, sched):
    terms, exact = case
    x = periodic(terms, exact)
    assert outcome(space_evidence, x, sched) == outcome(frozen_space_evidence, x, sched)


def test_the_specials_match_the_frozen_form():
    sched = TruncationSchedule((4, 8, 16))
    for terms in ([math.nan, 1.0], [1.0, math.nan], [math.inf, -math.inf],
                  [-0.0, 5e-324], [-0.0, -0.0], [1e308, 1e308, -1e308]):
        x = periodic(terms, False)
        assert outcome(space_evidence, x, sched) == outcome(frozen_space_evidence, x, sched)
