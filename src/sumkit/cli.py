"""Command-line interface.

Eight subcommands, one JSON report each, written to stdout (and to
``--out`` when given).  Reports are deterministic: keys are sorted,
exact values are printed as fraction strings, and repeated runs with the
same inputs produce identical bytes.

Exit codes: 0 success / verdict holds / sides match; 2 divergence
evidence or mismatch; 3 inconclusive; 1 usage or input errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, field

from .core import (LazySequence, TruncationSchedule, Verdict, scalar_to_json,
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
from .operators import (WeightPair, integrated_inverse, differentiated_inverse,
                        apply_triangle, invert_triangle, basis_column,
                        basis_tabulated_discrepancies)
from .spaces import SpaceName, domain_norm, domain_space

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

_CLASSICAL_TARGETS = {"l1", "linf", "c", "c0", "bs", "cs", "c0s", "int-bv", "d-bv"}
# matrix families whose bounded domain is a composite --target
_COMPOSITE_FAMILIES = {"cesaro", "euler", "taylor", "riesz"}
# integer flags that count from 1 wherever a command has them
_COUNT_FLAGS = ("n", "k", "row_bound")


@dataclass
class _CommandResult:
    inputs: dict
    outputs: dict
    status: str
    method: dict
    warnings: list = field(default_factory=list)
    traces: dict = field(default_factory=dict)
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
    g.add_argument("--space", choices=("int-bv", "d-bv"))
    g.add_argument("--matrix", metavar="MSPEC")
    sp.add_argument("--x", required=True, metavar="SSPEC", help="input sequence")
    sp.add_argument("--n", type=int, default=8, help="how many output terms")
    sp.add_argument("--row-bound", type=int, default=None,
                    help="row truncation for matrices with infinite rows")

    sp = sub.add_parser("inverse", help="apply the inverse of a triangle")
    common(sp, "exact")
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--space", choices=("int-bv", "d-bv"))
    g.add_argument("--matrix", metavar="MSPEC")
    sp.add_argument("--y", required=True, metavar="SSPEC", help="image sequence")
    sp.add_argument("--n", type=int, default=8, help="how many output terms")

    sp = sub.add_parser("norm", help="domain norm of a sequence at a truncation")
    common(sp, "exact")
    sp.add_argument("--space", choices=("int-bv", "d-bv"), required=True)
    sp.add_argument("--x", required=True, metavar="SSPEC")
    sp.add_argument("--n", type=int, default=None,
                    help="truncation size (default: largest schedule size)")

    sp = sub.add_parser("basis", help="a column of the coordinate basis")
    common(sp, "exact")
    sp.add_argument("--space", choices=("int-bv", "d-bv"), required=True)
    sp.add_argument("--k", type=int, required=True, help="basis index (from 1)")
    sp.add_argument("--n", type=int, default=8, help="how many terms to print")

    sp = sub.add_parser("dual-check", help="dual-space membership evidence")
    common(sp, "float", verdictish=True)
    sp.add_argument("--space", choices=("int-bv", "d-bv"), required=True)
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
    sp.add_argument("--space", choices=("int-bv", "d-bv"), required=True)
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
    if family is None or family[0] not in _COMPOSITE_FAMILIES:
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


def _cmd_transform(args, sched) -> _CommandResult:
    mode = args.mode
    wp, wcanon = _weights(args, mode)
    seq, seq_canon = _sequence(args.x, mode)
    warnings: list[str] = []
    if args.space is not None:
        space = domain_space(SpaceName(args.space), wp)
        op = space.triangle
        matrix_canon = None
    else:
        op, matrix_canon, notes = _matrix(args.matrix, mode)
        warnings.extend(notes)
    y = apply_triangle(op, seq, row_bound=args.row_bound)
    values = [y.at(n) for n in range(1, args.n + 1)]
    inputs = {"x": seq_canon, "n": args.n, **wcanon}
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


def _cmd_inverse(args, sched) -> _CommandResult:
    mode = args.mode
    wp, wcanon = _weights(args, mode)
    seq, seq_canon = _sequence(args.y, mode)
    warnings: list[str] = []
    if args.space is not None:
        if args.space == "int-bv":
            x = integrated_inverse(wp, seq)
        else:
            x = differentiated_inverse(wp, seq)
        inputs = {"space": args.space, "y": seq_canon, "n": args.n, **wcanon}
        method = {"operation": "closed-form-inverse"}
    else:
        op, matrix_canon, notes = _matrix(args.matrix, mode)
        warnings.extend(notes)
        x = invert_triangle(op, seq)
        inputs = {"matrix": matrix_canon, "y": seq_canon, "n": args.n, **wcanon}
        method = {"operation": "back-substitution"}
    values = [x.at(n) for n in range(1, args.n + 1)]
    return _CommandResult(
        inputs=inputs,
        outputs={"values": _values_json(values)},
        status="SUCCESS",
        method=method,
        warnings=warnings,
    )


def _cmd_norm(args, sched) -> _CommandResult:
    mode = args.mode
    wp, wcanon = _weights(args, mode)
    seq, seq_canon = _sequence(args.x, mode)
    size = args.n if args.n is not None else sched.max_size
    space = domain_space(SpaceName(args.space), wp)
    value = domain_norm(space, seq, size)
    return _CommandResult(
        inputs={"space": args.space, "x": seq_canon, "n": size, **wcanon},
        outputs={"norm": scalar_to_json(value), "size": size},
        status="SUCCESS",
        method={"operation": "domain-norm"},
    )


def _cmd_basis(args, sched) -> _CommandResult:
    mode = args.mode
    wp, wcanon = _weights(args, mode)
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
        inputs={"space": args.space, "k": args.k, "n": args.n, **wcanon},
        outputs={"values": _values_json(values)},
        status="SUCCESS",
        method={"operation": "basis-column"},
        warnings=warnings,
    )


def _cmd_dual_check(args, sched) -> _CommandResult:
    mode = args.mode
    wp, wcanon = _weights(args, mode)
    seq, seq_canon = _sequence(args.a, mode)
    space = SpaceName(args.space)
    checker = {"alpha": alpha_dual_check, "beta": beta_dual_check,
               "gamma": gamma_dual_check}[args.kind]
    verdict = checker(space, seq, wp, sched)
    notes = [CORRECTION_NOTES["kernel-orientation"]]
    if args.kind in ("beta", "gamma"):
        notes.append(CORRECTION_NOTES["beta-kernel-summand"])
        notes.append(CORRECTION_NOTES["row-sum-statistic"])
    return _CommandResult(
        inputs={"space": args.space, "kind": args.kind, "a": seq_canon, **wcanon},
        outputs={"verdict": verdict.to_dict()},
        status=verdict.status.value,
        method={"operation": f"{args.kind}-dual-check", "notes": notes},
        traces={"": verdict.trace},
    )


def _cmd_class_check(args, sched) -> _CommandResult:
    mode = args.mode
    wp, wcanon = _weights(args, mode)
    op, matrix_canon, warnings = _matrix(args.matrix, mode, full=args.full)
    source = args.source.strip().lower()
    target = _parse_target(args.target)
    report = characterize(op, source, target, wp, sched,
                          table=args.table,
                          row_bound=args.row_bound,
                          beta_row_limit=args.beta_row_limit)
    traces = {}
    seen = {}
    for cid, _zl, verdict in report.conditions:
        key = cid.value
        if key in seen:  # same condition twice in one recipe: suffix
            seen[key] += 1
            key = f"{key}-{seen[key]}"
        else:
            seen[key] = 1
        traces[key] = verdict.trace
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
              "target": args.target.strip().lower(), **wcanon}
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


def _cmd_pairing_check(args, sched) -> _CommandResult:
    mode = args.mode
    wp, wcanon = _weights(args, mode)
    a, a_canon = _sequence(args.a, mode)
    y, y_canon = _sequence(args.y, mode)
    space = SpaceName(args.space)
    status, outputs = _identity_check(
        pairing_identity_sides(a, y, wp, space), args.n, mode,
        sched.stabilization_tol)
    return _CommandResult(
        inputs={"space": args.space, "a": a_canon, "y": y_canon,
                "n": args.n, **wcanon},
        outputs=outputs,
        status=status,
        method={"operation": "pairing-check",
                "routes": ["kernel-row", "inverse-image"]},
    )


def _cmd_reduction_check(args, sched) -> _CommandResult:
    mode = args.mode
    wp, wcanon = _weights(args, mode)
    y, y_canon = _sequence(args.y, mode)
    op, matrix_canon, warnings = _matrix(args.matrix, mode, full=args.full)
    status, outputs = _identity_check(
        reduction_roundtrip_sides(op, wp, y), args.n, mode,
        sched.stabilization_tol)
    return _CommandResult(
        inputs={"matrix": matrix_canon, "y": y_canon, "n": args.n, **wcanon},
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
# Output writers
# ---------------------------------------------------------------------------


def _write_trace_csv(path: str, traces: dict) -> None:
    for key, trace in traces.items():
        if key == "":
            target = path
        else:
            root, ext = os.path.splitext(path)
            target = f"{root}-{key}{ext or '.csv'}"
        with open(target, "w", newline="") as fh:
            writer = csv.writer(fh, quoting=csv.QUOTE_NONNUMERIC)
            writer.writerow(["N", "statistic"])
            for size, value in trace:
                writer.writerow([size, scalar_to_json(value)])


def _write_matrix_csv(path: str, op, size: int) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_NONNUMERIC)
        for n in range(1, size + 1):
            writer.writerow([scalar_to_json(op.entry(n, k))
                             for k in range(1, size + 1)])


def run(argv=None, out=None) -> int:
    """Parse arguments, run one subcommand, print its JSON report; the
    return value is the process exit code."""
    stream = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 1 if code not in (0,) else 0

    try:
        _check_counts(args)
        sched = _resolve_schedule(args)
        result = _DISPATCH[args.command](args, sched)
    except (SumkitError, ValueError, ZeroDivisionError, OSError) as exc:
        print(f"sumkit: {exc}", file=sys.stderr)
        return 1

    exit_code = _EXIT_CODES.get(result.status, 1)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool": TOOL,
        "command": args.command,
        "mode": args.mode,
        "inputs": result.inputs,
        "outputs": result.outputs,
        "method": result.method,
        "warnings": result.warnings,
        "status": result.status,
        "exit_code": exit_code,
    }
    if args.command in _SCHEDULED_COMMANDS:
        doc["schedule"] = sched.to_dict()
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    stream.write(text)

    out_path = getattr(args, "out", None)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    csv_path = getattr(args, "csv", None)
    if csv_path and result.traces:
        _write_trace_csv(csv_path, result.traces)
    matrix_csv = getattr(args, "matrix_csv", None)
    if matrix_csv and result.matrix_for_csv is not None:
        _write_matrix_csv(matrix_csv, result.matrix_for_csv, sched.sizes[0])
    return exit_code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
