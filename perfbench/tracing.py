"""Spans and call counts recorded from outside the program.

``Tracer.install()`` replaces public functions of ``sumkit`` as they are
bound in the namespace of the module that calls them (for example
``sumkit.classes.beta_dual_check``), and ``uninstall()`` puts the originals
back.  A span wrapper records ``(id, name, start_ns, end_ns, parent,
invocation)``; the hot methods ``LazySequence.at`` and
``TriangleOperator.entry`` are only counted, because a span per call would
cost more than the call.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import importlib
import json
import re
import time
from collections import Counter, defaultdict

import sumkit.core
import sumkit.operators

_FRACTION_RE = re.compile(r'"(-?\d+)/(\d+)"')


def _condition_name(args, kwargs) -> str:
    cid = args[0] if args else kwargs["cid"]
    return "classes.check_condition." + getattr(cid, "value", str(cid))


# (module, attribute, span name); a callable name derives the span name
# from the call's arguments.
SPANS = (
    ("sumkit.cli", "run", "cli.run"),
    ("sumkit.cli", "parse_matrix_spec", "minilang.parse"),
    ("sumkit.cli", "parse_schedule_spec", "minilang.parse"),
    ("sumkit.cli", "parse_sequence_spec", "minilang.parse"),
    ("sumkit.cli", "parse_weight_spec", "minilang.parse"),
    ("sumkit.cli", "characterize", "classes.characterize"),
    ("sumkit.classes", "check_condition", _condition_name),
    ("sumkit.classes", "beta_dual_check", "classes.beta_prerequisite"),
    ("sumkit.cli", "alpha_dual_check", "duals.alpha_dual_check"),
    ("sumkit.cli", "beta_dual_check", "duals.beta_dual_check"),
    ("sumkit.cli", "gamma_dual_check", "duals.gamma_dual_check"),
    ("sumkit.cli", "pairing_identity_check", "duals.pairing_identity_check"),
    ("sumkit.cli", "verify_reduction_roundtrip", "classes.verify_reduction_roundtrip"),
    ("sumkit.cli", "domain_norm", "spaces.domain_norm"),
    ("sumkit.cli", "basis_tabulated_discrepancies",
     "operators.basis_tabulated_discrepancies"),
    ("sumkit.core", "judge_trace", "core.judge_trace"),
    ("sumkit.duals", "judge_trace", "core.judge_trace"),
    ("sumkit.classes", "judge_trace", "core.judge_trace"),
    ("sumkit.duals", "space_evidence", "core.space_evidence"),
    ("sumkit.spaces", "space_evidence", "core.space_evidence"),
)

CONDITIONS = ("C11", "C12", "C13", "C14", "C15", "C16", "C20", "C21", "C22", "C23")

SELF_TIME_SPANS = (
    ["classes.characterize"]
    + [f"classes.check_condition.{c}" for c in CONDITIONS]
    + ["classes.beta_prerequisite", "duals.alpha_dual_check", "duals.beta_dual_check",
       "duals.gamma_dual_check", "duals.pairing_identity_check",
       "classes.verify_reduction_roundtrip", "spaces.domain_norm",
       "operators.basis_tabulated_discrepancies", "core.judge_trace",
       "core.space_evidence", "minilang.parse", "cli.run"]
)

# Metrics that must repeat exactly between two traced runs of one commit.
EXACT_COUNTS = ("core.LazySequence.at.calls", "operators.TriangleOperator.entry.calls",
                "operators.TriangleOperator.entry.distinct", "core.judge_trace.calls",
                "classes.beta_prerequisite.rows", "cli.report.bytes",
                "cli.report.max_fraction_bits")


def self_times(spans) -> dict[str, float]:
    """Seconds per span name, each span's duration minus the time its
    direct children cover (children nest inside their parent)."""
    child_ns: dict[int, int] = defaultdict(int)
    for _sid, _name, start, end, parent, _inv in spans:
        if parent is not None:
            child_ns[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for sid, name, start, end, _parent, _inv in spans:
        out[name] += (end - start - child_ns[sid]) / 1e9
    return dict(out)


def max_fraction_bits(text: str) -> int:
    """Largest numerator or denominator bit length among the fraction
    strings of a report."""
    best = 0
    for num, den in _FRACTION_RE.findall(text):
        best = max(best, abs(int(num)).bit_length(), int(den).bit_length())
    return best



class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.invocation = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._at_calls = [0]
        self._entry_calls = [0]
        self._entry_distinct = 0
        # (operator, n, k) triples seen in the current invocation; operators
        # are kept alive until it ends so that their ids stay unique
        self._serials: dict[int, int] = {}
        self._live_ops: list = []
        self._seen: set[int] = set()

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for modname, attr, name in SPANS:
            module = importlib.import_module(modname)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._span_wrapper(original, name))

        seq_cls = sumkit.core.LazySequence
        op_cls = sumkit.operators.TriangleOperator
        at_orig, entry_orig = seq_cls.at, op_cls.entry
        self._saved.append((seq_cls, "at", at_orig))
        self._saved.append((op_cls, "entry", entry_orig))
        at_calls, entry_calls = self._at_calls, self._entry_calls
        serials, live, seen = self._serials, self._live_ops, self._seen

        def at(seq, k):
            at_calls[0] += 1
            return at_orig(seq, k)

        def entry(op, n, k):
            entry_calls[0] += 1
            serial = serials.get(id(op))
            if serial is None:
                serial = serials[id(op)] = len(live)
                live.append(op)
            seen.add((serial << 64) | (n << 32) | k)
            return entry_orig(op, n, k)

        seq_cls.at = at
        op_cls.entry = entry

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _span_wrapper(self, fn, name):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            sid = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)  # reserve the id; filled in when the call ends
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, label, start, end, parent, self.invocation)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per invocation --------------------------------------------------

    def begin_invocation(self, index: int) -> None:
        self.invocation = index

    def end_invocation(self) -> None:
        self._entry_distinct += len(self._seen)
        self._seen.clear()
        self._serials.clear()
        self._live_ops.clear()

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        names = Counter(span[1] for span in self.spans)
        calls = self._entry_calls[0]
        distinct = self._entry_distinct
        out: dict[str, float] = {
            "core.LazySequence.at.calls": self._at_calls[0],
            "operators.TriangleOperator.entry.calls": calls,
            "operators.TriangleOperator.entry.distinct": distinct,
            "operators.TriangleOperator.entry.reuse": calls / distinct if distinct else 0.0,
            "core.judge_trace.calls": names["core.judge_trace"],
            "classes.beta_prerequisite.rows": names["classes.beta_prerequisite"],
        }
        selfs = self_times(self.spans)
        for span_name in SELF_TIME_SPANS:
            out[f"{span_name}.self_s"] = selfs.get(span_name, 0.0)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, inv in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "invocation": inv}) + "\n")
