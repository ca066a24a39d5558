"""Self-checks of the benchmark harness; run with
``python3 -m pytest perfbench/tests``."""

import io

import pytest
import sumkit.cli

import worker
from tracing import EXACT_COUNTS, Tracer, max_fraction_bits, self_times
from workloads import WORKLOADS


def _first_of_each_kind(invocations):
    """The first invocation of each command, by name and first flag."""
    picked = {}
    for argv, exits in invocations:
        picked.setdefault(tuple(argv[:2]), (argv, exits))
    return list(picked.values())


SMALL = [inv for inv in _first_of_each_kind(WORKLOADS["exact-values"](1))
         if inv[0][0] not in ("dual-check", "class-check")]


def _shape(invocations):
    return [([a for a in argv if a.startswith("--")], argv[0], exits)
            for argv, exits in invocations]


def test_seed_changes_parameters_not_the_mix():
    for build in WORKLOADS.values():
        assert build(3) == build(3)
        assert _shape(build(3)) == _shape(build(4))
        assert any(build(s) != build(3) for s in (4, 5, 6))


def test_recorded_digests_cover_default_and_held_out_seed():
    for name, build in WORKLOADS.items():
        for seed in (1, 2):
            assert len(worker.load_expected(name, seed)) == len(build(seed))


def test_a_corrupted_digest_is_a_failure():
    first = worker.run_pass(SMALL)
    assert first.failures == []
    assert worker.run_pass(SMALL, first.digests, first.digests).failures == []
    corrupted = [list(d) for d in first.digests]
    corrupted[2][1] = "0" * 64
    failures = worker.run_pass(SMALL, corrupted).failures
    assert len(failures) == 1 and "recorded digest" in failures[0]


def test_unexpected_exit_code_and_error_line_are_failures():
    argv, exits = SMALL[0]
    out = io.StringIO()
    code = sumkit.cli.run(list(argv), out=out)
    report = out.getvalue()
    assert worker.problem(exits, code, report, "", None, None) is None
    assert worker.problem((2,), code, report, "", None, None)
    assert worker.problem(exits, code, report, "sumkit: boom", None, None)
    assert worker.problem(exits, None, "", "ValueError: x", None, None)


def _traced_counts():
    tracer = Tracer()
    tracer.install()
    try:
        result = worker.run_pass(SMALL, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = {**tracer.metrics(), "cli.report.bytes": result.report_bytes,
               "cli.report.max_fraction_bits": result.max_fraction_bits}
    return {name: metrics[name] for name in EXACT_COUNTS}, tracer


def test_traced_counts_repeat_exactly_and_tracer_uninstalls():
    original = sumkit.cli.run
    first, tracer = _traced_counts()
    assert sumkit.cli.run is original
    second, _ = _traced_counts()
    assert first == second
    assert first["operators.TriangleOperator.entry.calls"] >= \
        first["operators.TriangleOperator.entry.distinct"] > 0
    assert first["cli.report.max_fraction_bits"] > 0
    roots = [s for s in tracer.spans if s[1] == "cli.run"]
    assert len(roots) == len(SMALL) and all(s[4] is None for s in roots)


def test_self_time_subtracts_direct_children():
    spans = [(0, "a", 0, 100, None, 0), (1, "b", 10, 40, 0, 0),
             (2, "c", 15, 25, 1, 0), (3, "b", 50, 60, 0, 0)]
    got = self_times(spans)
    assert got == pytest.approx({"a": 60e-9, "b": 30e-9, "c": 10e-9})


def test_max_fraction_bits_reads_fraction_strings():
    assert max_fraction_bits('{"v": ["1/3", "-255/2", "7"]}') == 8
    assert max_fraction_bits('{"v": "none"}') == 0
