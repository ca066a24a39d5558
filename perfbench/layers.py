"""Layer suite: each layer of sumkit timed alone on fixed inputs.

    PYTHONPATH=src python3 perfbench/layers.py

Inputs are the Cesàro and Euler(1/2) matrices, the weight pair
(ones, harmonic) and the sequence 1/k^2, on the default schedule; the
beta prerequisite covers the first ``PREREQ_ROWS`` rows of Cesàro.  Each
sample builds its inputs fresh, so memo tables start empty, and forces
lazy results through ``prefix`` or ``entry``; a metric is the median of
``REPEATS`` samples.  The last line of standard output is a JSON object.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from fractions import Fraction

from sumkit import (TruncationSchedule, WeightPair, alpha_dual_check, beta_dual_check,
                    cesaro_matrix, check_condition, euler_matrix, gamma_dual_check,
                    harmonic, integrated_inverse, integrated_triangle, invert_triangle,
                    judge_trace, ones, powers, scalar_to_json)
# the beta prerequisite has no public entry point of its own
from sumkit.classes import _beta_prerequisite
from sumkit.core import StatKind
from sumkit.spaces import SpaceName

from tracing import CONDITIONS

REPEATS = 3
SCHED = TruncationSchedule()
AT_N = 20000
ENTRY_N = 96
INVERSE_N = 128
JUDGE_CALLS = 5000
RENDER_N = 1024
PREREQ_ROWS = 8


def weights(exact: bool = True) -> WeightPair:
    wp = WeightPair(ones(), harmonic())
    return wp if exact else wp.as_float()


def sample(work) -> float:
    """Median seconds of ``work()`` over REPEATS runs."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    failures: list[str] = []
    m: dict[str, float] = {}

    m["layer.at_s"] = sample(lambda: powers(-2).prefix(AT_N))

    def entries():
        for A in (cesaro_matrix(), euler_matrix(Fraction(1, 2))):
            for n in range(1, ENTRY_N + 1):
                for k in range(1, n + 1):
                    A.entry(n, k)
    m["layer.entry_s"] = sample(entries)

    m["layer.inverse_closed_s"] = sample(
        lambda: integrated_inverse(weights(), powers(-2)).prefix(INVERSE_N))
    m["layer.inverse_backsub_s"] = sample(
        lambda: invert_triangle(integrated_triangle(weights()), powers(-2)).prefix(INVERSE_N))
    closed = integrated_inverse(weights(), powers(-2)).prefix(INVERSE_N)
    backsub = invert_triangle(integrated_triangle(weights()), powers(-2)).prefix(INVERSE_N)
    if closed != backsub:
        failures.append("closed-form and back-substitution inverses disagree")

    for cid in CONDITIONS:
        m[f"layer.{cid}_s"] = sample(
            lambda: check_condition(cid, cesaro_matrix().as_float(), SCHED))

    a = lambda: powers(-2).as_float()
    m["layer.alpha_s"] = sample(lambda: alpha_dual_check("int-bv", a(), weights(False), SCHED))
    m["layer.beta_s"] = sample(lambda: beta_dual_check("int-bv", a(), weights(False), SCHED))
    m["layer.gamma_s"] = sample(lambda: gamma_dual_check("int-bv", a(), weights(False), SCHED))
    m["layer.beta_prereq_s"] = sample(lambda: _beta_prerequisite(
        cesaro_matrix().as_float(), weights(False), SpaceName.D_BV, SCHED, PREREQ_ROWS))

    trace = [float(s) ** 0.5 for s in SCHED.sizes]

    def judge():
        for _ in range(JUDGE_CALLS):
            judge_trace(trace, StatKind.SUP, SCHED)
    m["layer.judge_trace_s"] = sample(judge)

    values = integrated_inverse(weights(), powers(-2)).prefix(RENDER_N)

    def render():
        doc = {"outputs": {"values": [scalar_to_json(v) for v in values]},
               "schema_version": 1, "tool": "sumkit"}
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    m["layer.render_s"] = sample(render)

    # one attempted check: the two inverses agree
    print(json.dumps({"attempted": 1, "failures": failures, "metrics": m}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
