"""One workload in a fresh process: ``sumkit.cli.run`` in a closed loop with
one client, every report checked.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--traced SPANS]

Untraced, whole passes over the invocation list repeat while the next
one is expected to end within ``S`` seconds; there is always one.
``--traced`` runs one untraced pass, then one pass under the tracer, and
writes the spans to ``SPANS``.  The last line of standard output is a
JSON object.  ``sumkit`` must be importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import sys
import time
from contextlib import redirect_stderr
from dataclasses import dataclass, field
from pathlib import Path

import sumkit.cli

from tracing import Tracer, max_fraction_bits
from workloads import WORKLOADS

DIGESTS = Path(__file__).with_name("expected_digests.json")


def load_expected(workload: str, seed: int):
    """Recorded ``[exit_code, sha256]`` per invocation, or None when this
    seed was not recorded."""
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    return recorded.get(workload, {}).get(str(seed))


def digest(code, report: str) -> list:
    return [code, hashlib.sha256(report.encode()).hexdigest()]


def problem(exits, code, report: str, err: str, expected, reference):
    """Why one invocation failed, or None."""
    if code is None:
        return f"raised {err}"
    if "sumkit:" in err:
        return err.strip()
    if code not in exits:
        return f"exit code {code}, expected one of {list(exits)}"
    try:
        doc = json.loads(report)
    except ValueError:
        return "report is not JSON"
    if doc.get("exit_code") != code:
        return f"report says exit_code {doc.get('exit_code')}, process returned {code}"
    got = digest(code, report)
    if expected is not None and got != expected:
        return "report differs from the recorded digest"
    if reference is not None and got != reference:
        return "report differs from the same invocation in an earlier pass"
    return None


@dataclass
class Pass:
    latencies: list[float] = field(default_factory=list)
    digests: list[list] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    report_bytes: int = 0
    max_fraction_bits: int = 0

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def run_pass(invocations, expected=None, reference=None, tracer=None) -> Pass:
    """Run every invocation once and check its report as soon as it is
    written; reports are not kept.  The pass time is the sum of the
    ``cli.run`` latencies, so checking costs it nothing."""
    result = Pass()
    for index, (argv, exits) in enumerate(invocations):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.begin_invocation(index)
        t0 = time.perf_counter()
        try:
            with redirect_stderr(err):
                code = sumkit.cli.run(list(argv), out=out)
        except Exception as exc:  # a traceback is a failed invocation, not a crash
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
        result.latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end_invocation()
        report = out.getvalue()
        why = problem(exits, code, report, err.getvalue(),
                      expected[index] if expected else None,
                      reference[index] if reference else None)
        if why is not None:
            result.failures.append(f"{' '.join(argv)}: {why}")
        result.digests.append(digest(code, report))
        result.report_bytes += len(report.encode())
        result.max_fraction_bits = max(result.max_fraction_bits, max_fraction_bits(report))
    return result


def timed(invocations, expected, seconds: float) -> dict:
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        reference = passes[0].digests if passes else None
        passes.append(run_pass(invocations, expected, reference))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:  # the next pass would overrun
            break
    failures = [why for p in passes for why in p.failures]
    return {
        "attempted": len(passes) * len(invocations),
        "failed": len(failures),
        "failures": failures[:20],
        "wall_s": [p.wall for p in passes],
        "latencies_s": [lat for p in passes for lat in p.latencies],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(invocations, expected, spans_path: str) -> dict:
    untraced = run_pass(invocations, expected)
    tracer = Tracer()
    tracer.install()
    try:
        traced_pass = run_pass(invocations, expected, untraced.digests, tracer)
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path)
    metrics = tracer.metrics()
    metrics.update({
        "cli.report.bytes": traced_pass.report_bytes,
        "cli.report.max_fraction_bits": traced_pass.max_fraction_bits,
        "trace.spans": len(tracer.spans),
        "trace.wall_s": traced_pass.wall,
        "trace.untraced_wall_s": untraced.wall,
        "trace.overhead_s": traced_pass.wall - untraced.wall,
    })
    failures = untraced.failures + traced_pass.failures
    return {"attempted": 2 * len(invocations), "failed": len(failures),
            "failures": failures[:20], "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--traced", metavar="SPANS", help="trace one pass, write spans here")
    args = p.parse_args(argv)
    invocations = WORKLOADS[args.workload](args.seed)
    expected = load_expected(args.workload, args.seed)
    if expected is not None and len(expected) != len(invocations):
        print(f"recorded digests for seed {args.seed} do not match the invocation list",
              file=sys.stderr)
        return 1
    if args.traced:
        result = traced(invocations, expected, args.traced)
    else:
        result = timed(invocations, expected, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
