"""Command-line interface.

Eight subcommands, one JSON report each, written to stdout (and to
``--out`` when given).  Reports are deterministic: keys are sorted,
exact values are printed as fraction strings, and repeated runs with the
same inputs produce identical bytes.

Exit codes: 0 success / verdict holds / sides match; 2 divergence
evidence or mismatch; 3 inconclusive; 1 usage or input errors, including
an output file that cannot be written.  Files are written before the
report is printed, so an exit 1 prints no report.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from functools import cache
from typing import NamedTuple, Sequence

from .core import (LazySequence, SpaceTag, TruncationSchedule, Verdict, scalar_to_json,
                   _to_float)
# pairing_identity_check and verify_reduction_roundtrip are not called here;
# they stay bound because perfbench/tracing.py wraps them by these names
from .duals import (CORRECTION_NOTES, alpha_dual_check, beta_dual_check,
                    gamma_dual_check, pairing_identity_check, pairing_identity_sides)
from .classes import (CompositeTarget, characterize, reduction_roundtrip_sides,
                      verify_reduction_roundtrip)
from .errors import SumkitError, SpecParseError
from .minilang import (parse_family_spec, parse_matrix_spec, parse_schedule_spec,
                       parse_sequence_spec, parse_weight_spec)
from .operators import MATRIX_FAMILIES, WeightPair, apply_triangle, invert_triangle
from .spaces import (SpaceName, basis_column, basis_tabulated_discrepancies, domain_norm,
                     domain_space, embed_from_l1)

SCHEMA_VERSION = 1
TOOL = "sumkit"

_EXIT_CODES = {
    "SUCCESS": 0,
    "EXACT_MATCH": 0,
    "MATCH": 0,
    Verdict.HOLDS.value: 0,
    Verdict.DIVERGENCE.value: 2,
    Verdict.INCONCLUSIVE.value: 3,
    "MISMATCH": 2,
}

_SPACES = tuple(name.value for name in SpaceName)
_CLASSICAL_TARGETS = {tag.value for tag in SpaceTag} | set(_SPACES)
# integer flags that count from 1 wherever a command has them
_COUNT_FLAGS = ("n", "k", "row_bound")


class _CommandResult(NamedTuple):
    inputs: dict
    outputs: dict
    status: str
    method: dict
    warnings: Sequence[str] = ()
    traces: dict = {}  # one dict shared by every result that passes none; only read
    matrix_for_csv: object = None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sumkit",
        description="Weighted integrated/differentiated sequence-space toolkit.")
    p.add_argument("--version", action="version", version="%(prog)s 0.1.0")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, default_mode: str, *, verdictish: bool = False):
        sp.add_argument("--mode", choices=("exact", "float"), default=default_mode,
                        help=f"arithmetic mode (default {default_mode})")
        sp.add_argument("--u", default="ones", metavar="WSPEC",
                        help="first weight sequence (default ones)")
        sp.add_argument("--w", default="ones", metavar="WSPEC",
                        help="second weight sequence (default ones)")
        sp.add_argument("--schedule", metavar="SPEC",
                        help="truncation schedule, e.g. '16,32,64;tol=1e-9' "
                             "(overrides SUMKIT_SCHEDULE)")
        sp.add_argument("--out", metavar="PATH", help="also write the report here")
        if verdictish:
            sp.add_argument("--csv", metavar="PATH",
                            help="write statistic traces as CSV")

    sp = sub.add_parser("transform", help="apply a matrix or a domain triangle")
    common(sp, "exact")
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--space", choices=_SPACES)
    g.add_argument("--matrix", metavar="MSPEC")
    sp.add_argument("--x", required=True, metavar="SSPEC", help="input sequence")
    sp.add_argument("--n", type=int, default=8, help="how many output terms")
    sp.add_argument("--row-bound", type=int, default=None,
                    help="row truncation for matrices with infinite rows")

    sp = sub.add_parser("inverse", help="apply the inverse of a triangle")
    common(sp, "exact")
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--space", choices=_SPACES)
    g.add_argument("--matrix", metavar="MSPEC")
    sp.add_argument("--y", required=True, metavar="SSPEC", help="image sequence")
    sp.add_argument("--n", type=int, default=8, help="how many output terms")

    sp = sub.add_parser("norm", help="domain norm of a sequence at a truncation")
    common(sp, "exact")
    sp.add_argument("--space", choices=_SPACES, required=True)
    sp.add_argument("--x", required=True, metavar="SSPEC")
    sp.add_argument("--n", type=int, default=None,
                    help="truncation size (default: largest schedule size)")

    sp = sub.add_parser("basis", help="a column of the coordinate basis")
    common(sp, "exact")
    sp.add_argument("--space", choices=_SPACES, required=True)
    sp.add_argument("--k", type=int, required=True, help="basis index (from 1)")
    sp.add_argument("--n", type=int, default=8, help="how many terms to print")

    sp = sub.add_parser("dual-check", help="dual-space membership evidence")
    common(sp, "float", verdictish=True)
    sp.add_argument("--space", choices=_SPACES, required=True)
    sp.add_argument("--kind", choices=("alpha", "beta", "gamma"), required=True)
    sp.add_argument("--a", required=True, metavar="SSPEC")

    sp = sub.add_parser("class-check", help="matrix class membership evidence")
    common(sp, "float", verdictish=True)
    sp.add_argument("--matrix", required=True, metavar="MSPEC")
    sp.add_argument("--source", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--table", type=int, default=None,
                    help="force a recipe table (1-6); default: inferred")
    sp.add_argument("--row-bound", type=int, default=None,
                    help="generator row truncation; composite targets only")
    sp.add_argument("--beta-row-limit", type=int, default=32)
    sp.add_argument("--full", action="store_true",
                    help="expression matrices keep entries above the diagonal")
    sp.add_argument("--matrix-csv", metavar="PATH",
                    help="write the condition-input matrix block as CSV")

    sp = sub.add_parser("pairing-check",
                        help="compare the two routes through the dual pairing")
    common(sp, "exact")
    sp.add_argument("--space", choices=_SPACES, required=True)
    sp.add_argument("--a", required=True, metavar="SSPEC")
    sp.add_argument("--y", required=True, metavar="SSPEC")
    sp.add_argument("--n", type=int, default=16, help="check indices 1..n")

    sp = sub.add_parser("reduction-check",
                        help="roundtrip a reduced matrix against its rebuild")
    common(sp, "exact")
    sp.add_argument("--matrix", required=True, metavar="MSPEC",
                    help="the reduced (row-finite) matrix")
    sp.add_argument("--y", required=True, metavar="SSPEC")
    sp.add_argument("--n", type=int, default=16, help="check rows 1..n")
    sp.add_argument("--full", action="store_true")

    return p


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``run`` uses, built on first use and kept: ``parse_args``
    does not change it, and building it costs about twenty parses."""
    return build_parser()


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _resolve_schedule(args) -> TruncationSchedule:
    text = getattr(args, "schedule", None)
    if text is None:
        text = os.environ.get("SUMKIT_SCHEDULE")
    if text is None:
        return TruncationSchedule()
    return parse_schedule_spec(text)


def _weights(args, mode: str) -> tuple[WeightPair, dict]:
    u, u_canon = parse_weight_spec(args.u)
    w, w_canon = parse_weight_spec(args.w)
    wp = WeightPair(u, w)
    if mode == "float":
        wp = wp.as_float()
    return wp, {"u": u_canon, "w": w_canon}

def _sequence(text: str, mode: str) -> tuple[LazySequence, str]:
    seq, canon = parse_sequence_spec(text)
    if mode == "float":
        seq = seq.as_float()
    return seq, canon


def _matrix(text: str, mode: str, *, full: bool = False):
    spec = parse_matrix_spec(text, full=full)
    op = spec.operator
    if mode == "float":
        op = op.as_float()
    return op, spec.canonical, list(spec.notes)


def _values_json(seq_vals) -> list:
    return [scalar_to_json(v) for v in seq_vals]


def _identity_check(sides, n: int, mode: str, tol: float) -> tuple[str, dict]:
    """Both sides of an identity at rows 1..n (``sides(m) -> (lhs, rhs)``),
    compared exactly or within ``tol``: the status and the report outputs."""
    pairs = [(m, *sides(m)) for m in range(1, n + 1)]
    first_bad = None
    for m, lhs, rhs in pairs:
        if mode == "exact":
            ok = lhs == rhs
        else:
            ok = abs(_to_float(lhs) - _to_float(rhs)) <= tol * max(1.0, abs(_to_float(rhs)))
        if not ok:
            first_bad = {"n": m, "lhs": scalar_to_json(lhs), "rhs": scalar_to_json(rhs)}
            break
    if first_bad is not None:
        status = "MISMATCH"
    else:
        status = "EXACT_MATCH" if mode == "exact" else "MATCH"
    samples = [{"n": m, "lhs": scalar_to_json(l), "rhs": scalar_to_json(r)}
               for m, l, r in pairs[:8]]
    return status, {"checked_through": n, "samples": samples, "first_mismatch": first_bad}


def _parse_target(text: str):
    body = text.strip().lower()
    if body in _CLASSICAL_TARGETS:
        return body
    family = parse_family_spec(body)
    if family is None or not MATRIX_FAMILIES[family[0]].composite:
        raise SpecParseError(f"unknown target space {text!r}")
    name, param, _ = family
    return CompositeTarget(name, param)


def _check_counts(args) -> None:
    for flag in _COUNT_FLAGS:
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            raise SpecParseError(f"--{flag.replace('_', '-')} counts from 1, got {value}")


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------


def _cmd_transform(args, sched, wp) -> _CommandResult:
    seq, seq_canon = _sequence(args.x, args.mode)
    warnings: list[str] = []
    if args.space is not None:
        space = domain_space(SpaceName(args.space), wp)
        op = space.triangle
        matrix_canon = None
    else:
        op, matrix_canon, notes = _matrix(args.matrix, args.mode)
        warnings.extend(notes)
    y = apply_triangle(op, seq, row_bound=args.row_bound)
    values = [y.at(n) for n in range(1, args.n + 1)]
    inputs = {"x": seq_canon, "n": args.n}
    if matrix_canon is not None:
        inputs["matrix"] = matrix_canon
    else:
        inputs["space"] = args.space
    return _CommandResult(
        inputs=inputs,
        outputs={"values": _values_json(values)},
        status="SUCCESS",
        method={"operation": "apply-triangle"},
        warnings=warnings,
    )


def _cmd_inverse(args, sched, wp) -> _CommandResult:
    seq, seq_canon = _sequence(args.y, args.mode)
    warnings: list[str] = []
    if args.space is not None:
        x = embed_from_l1(domain_space(SpaceName(args.space), wp), seq)
        inputs = {"space": args.space, "y": seq_canon, "n": args.n}
        method = {"operation": "closed-form-inverse"}
    else:
        op, matrix_canon, notes = _matrix(args.matrix, args.mode)
        warnings.extend(notes)
        x = invert_triangle(op, seq)
        inputs = {"matrix": matrix_canon, "y": seq_canon, "n": args.n}
        method = {"operation": "back-substitution"}
    values = [x.at(n) for n in range(1, args.n + 1)]
    return _CommandResult(
        inputs=inputs,
        outputs={"values": _values_json(values)},
        status="SUCCESS",
        method=method,
        warnings=warnings,
    )


def _cmd_norm(args, sched, wp) -> _CommandResult:
    seq, seq_canon = _sequence(args.x, args.mode)
    size = args.n if args.n is not None else sched.max_size
    space = domain_space(SpaceName(args.space), wp)
    value = domain_norm(space, seq, size)
    return _CommandResult(
        inputs={"space": args.space, "x": seq_canon, "n": size},
        outputs={"norm": scalar_to_json(value), "size": size},
        status="SUCCESS",
        method={"operation": "domain-norm"},
    )


def _cmd_basis(args, sched, wp) -> _CommandResult:
    space = SpaceName(args.space)
    col = basis_column(space, wp, args.k)
    values = [col.at(n) for n in range(1, args.n + 1)]
    warnings = []
    bad = basis_tabulated_discrepancies(space, wp, args.k, args.n)
    if bad:
        warnings.append(
            "tabulated closed form disagrees with the defining identity at "
            f"positions {bad}; the defining-identity column is reported")
    return _CommandResult(
        inputs={"space": args.space, "k": args.k, "n": args.n},
        outputs={"values": _values_json(values)},
        status="SUCCESS",
        method={"operation": "basis-column"},
        warnings=warnings,
    )


def _cmd_dual_check(args, sched, wp) -> _CommandResult:
    seq, seq_canon = _sequence(args.a, args.mode)
    space = SpaceName(args.space)
    checker = {"alpha": alpha_dual_check, "beta": beta_dual_check,
               "gamma": gamma_dual_check}[args.kind]
    verdict = checker(space, seq, wp, sched)
    notes = [CORRECTION_NOTES["kernel-orientation"]]
    if args.kind in ("beta", "gamma"):
        notes.append(CORRECTION_NOTES["beta-kernel-summand"])
        notes.append(CORRECTION_NOTES["row-sum-statistic"])
    return _CommandResult(
        inputs={"space": args.space, "kind": args.kind, "a": seq_canon},
        outputs={"verdict": verdict.to_dict()},
        status=verdict.status.value,
        method={"operation": f"{args.kind}-dual-check", "notes": notes},
        traces={"": verdict.trace},
    )


def _cmd_class_check(args, sched, wp) -> _CommandResult:
    op, matrix_canon, warnings = _matrix(args.matrix, args.mode, full=args.full)
    source = args.source.strip().lower()
    target = _parse_target(args.target)
    report = characterize(op, source, target, wp, sched,
                          table=args.table,
                          row_bound=args.row_bound,
                          beta_row_limit=args.beta_row_limit)
    # no recipe lists a condition twice, so each trace has its own key
    traces = {cid.value: verdict.trace for cid, _, verdict in report.conditions}
    if report.beta_prerequisite is not None:
        traces["beta"] = report.beta_prerequisite.trace
    method = {
        "operation": "class-check",
        "table": report.table,
        "transform": report.transform.value,
        "conditions": [cid.value for cid, _, _ in report.conditions],
        "notes": [CORRECTION_NOTES["kernel-orientation"]],
    }
    inputs = {"matrix": matrix_canon, "source": source,
              "target": args.target.strip().lower()}
    if args.table is not None:
        inputs["table"] = args.table
    return _CommandResult(
        inputs=inputs,
        outputs={"report": report.to_dict()},
        status=report.overall.value,
        method=method,
        warnings=warnings + list(report.notes),
        traces=traces,
        matrix_for_csv=report.condition_matrix,
    )


def _cmd_pairing_check(args, sched, wp) -> _CommandResult:
    a, a_canon = _sequence(args.a, args.mode)
    y, y_canon = _sequence(args.y, args.mode)
    space = SpaceName(args.space)
    status, outputs = _identity_check(
        pairing_identity_sides(a, y, wp, space), args.n, args.mode,
        sched.stabilization_tol)
    return _CommandResult(
        inputs={"space": args.space, "a": a_canon, "y": y_canon, "n": args.n},
        outputs=outputs,
        status=status,
        method={"operation": "pairing-check",
                "routes": ["kernel-row", "inverse-image"]},
    )


def _cmd_reduction_check(args, sched, wp) -> _CommandResult:
    y, y_canon = _sequence(args.y, args.mode)
    op, matrix_canon, warnings = _matrix(args.matrix, args.mode, full=args.full)
    status, outputs = _identity_check(
        reduction_roundtrip_sides(op, wp, y), args.n, args.mode,
        sched.stabilization_tol)
    return _CommandResult(
        inputs={"matrix": matrix_canon, "y": y_canon, "n": args.n},
        outputs=outputs,
        status=status,
        method={"operation": "reduction-check",
                "routes": ["rebuilt-matrix", "reduced-matrix"]},
        warnings=warnings,
    )


_DISPATCH = {
    "transform": _cmd_transform,
    "inverse": _cmd_inverse,
    "norm": _cmd_norm,
    "basis": _cmd_basis,
    "dual-check": _cmd_dual_check,
    "class-check": _cmd_class_check,
    "pairing-check": _cmd_pairing_check,
    "reduction-check": _cmd_reduction_check,
}

_SCHEDULED_COMMANDS = {"dual-check", "class-check", "pairing-check", "reduction-check"}


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


def _write_csv(path: str, rows) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh, quoting=csv.QUOTE_NONNUMERIC).writerows(rows)


def run(argv=None, out=None) -> int:
    """Parse arguments, run one subcommand, write its files and print its
    JSON report; the return value is the process exit code.

    Counts, schedule and weights are parsed here, in that order, before the
    command parses its own specs.  Any input error, including a file that
    cannot be written or a schedule size too large to allocate, prints one
    ``sumkit:`` line and no report.
    """
    stream = out if out is not None else sys.stdout
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1

    try:
        _check_counts(args)
        sched = _resolve_schedule(args)
        wp, wcanon = _weights(args, args.mode)
        result = _DISPATCH[args.command](args, sched, wp)
        exit_code = _EXIT_CODES.get(result.status, 1)
        doc = {
            "schema_version": SCHEMA_VERSION,
            "tool": TOOL,
            "command": args.command,
            "mode": args.mode,
            "inputs": {**result.inputs, **wcanon},
            "outputs": result.outputs,
            "method": result.method,
            "warnings": result.warnings,
            "status": result.status,
            "exit_code": exit_code,
        }
        if args.command in _SCHEDULED_COMMANDS:
            doc["schedule"] = sched.to_dict()
        # the newline is written on its own: appending it would copy the report
        text = json.dumps(doc, sort_keys=True, indent=2)

        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
                fh.write("\n")
        if getattr(args, "csv", None):
            root, ext = os.path.splitext(args.csv)
            for key, trace in result.traces.items():
                _write_csv(f"{root}-{key}{ext or '.csv'}" if key else args.csv,
                           [("N", "statistic")]
                           + [(size, scalar_to_json(v)) for size, v in trace])
        matrix = result.matrix_for_csv
        if getattr(args, "matrix_csv", None) and matrix is not None:
            size = sched.sizes[0]
            _write_csv(args.matrix_csv, ([scalar_to_json(v) for v in matrix.row(n, size)]
                                         for n in range(1, size + 1)))
    except (SumkitError, ValueError, ZeroDivisionError, OSError, OverflowError,
            MemoryError) as exc:
        # a MemoryError has no message: a schedule size past the address
        # space raises it before allocating anything
        print(f"sumkit: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1

    stream.write(text)
    stream.write("\n")
    return exit_code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
