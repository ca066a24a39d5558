"""Tests for the textual spec notation used by the command line."""

import sys
from fractions import Fraction

import pytest

from sumkit.core import TruncationSchedule
from sumkit.errors import SpecParseError
from sumkit.minilang import (
    compile_arithmetic,
    parse_matrix_spec,
    parse_schedule_spec,
    parse_sequence_spec,
    parse_weight_spec,
)
from sumkit.operators import MATRIX_FAMILIES, TriangleKind


def ev(src, **env):
    return compile_arithmetic(src, variables=tuple(env))(
        **{k: Fraction(v) for k, v in env.items()})


class TestExpressions:
    @pytest.mark.parametrize("src,n,want", [
        ("n^2", 5, 25),
        ("1/(n+1)", 3, Fraction(1, 4)),
        ("2+3*n", 2, 8),
        ("(2+3)*n", 2, 10),
        ("-n^2", 3, -9),
        ("2^-3", 1, Fraction(1, 8)),
        ("n^-1", 4, Fraction(1, 4)),
        ("1.5*n", 2, 3),
        ("n - n", 9, 0),
    ], ids=lambda v: repr(v))
    def test_evaluation(self, src, n, want):
        assert ev(src, n=n) == want

    def test_two_variables(self):
        assert ev("n*k+1", n=2, k=3) == 7

    def test_unknown_names_are_listed(self):
        with pytest.raises(SpecParseError, match="allowed: n"):
            ev("q+1", n=1)

    @pytest.mark.parametrize("src", ["n n", "(n", "n^k", "n^(2)", "$", ""])
    def test_malformed(self, src):
        with pytest.raises(SpecParseError):
            ev(src, n=1)

    def test_two_hundred_tokens_are_the_most_allowed(self):
        assert ev("-" * 199 + "n", n=2) == -2
        with pytest.raises(SpecParseError, match="has 201 tokens; at most 200"):
            ev("-" * 200 + "n", n=2)


# every outcome below was recorded before the parser was last rewritten:
# the value at each of POINTS, or the exact error text of the compile
# or of the evaluation at that point
POINTS = ((1, 1), (2, 1), (3, 2))
LONG_SUM = "-n" + "+k" * 99                     # 200 tokens
OUTCOMES = [
    ("n", ("1", "2", "3")),
    ("k", ("1", "1", "2")),
    ("n+k", ("2", "3", "5")),
    ("n-k", ("0", "1", "1")),
    ("n*k", ("1", "2", "6")),
    ("n/k", ("1", "2", "3/2")),
    ("2+3*n", ("5", "8", "11")),
    ("(2+3)*n", ("5", "10", "15")),
    ("n-k-1", ("-1", "0", "0")),
    ("n/k/2", ("1/2", "1", "3/4")),
    ("n-k+1", ("1", "2", "2")),
    ("n/2*k", ("1/2", "1", "3")),
    ("n*k/2", ("1/2", "1", "3")),
    ("-n^2", ("-1", "-4", "-9")),
    ("--n", ("1", "2", "3")),
    ("-n-k", ("-2", "-3", "-5")),
    ("2^-3", ("1/8", "1/8", "1/8")),
    ("n^-1", ("1", "1/2", "1/3")),
    ("n^0", ("1", "1", "1")),
    ("k^3", ("1", "1", "8")),
    ("(n+k)^2", ("4", "9", "25")),
    ("-(n-k)^2", ("0", "-1", "-1")),
    ("1.5*n", ("3/2", "3", "9/2")),
    ("0.25 + k", ("5/4", "5/4", "9/4")),
    ("  n  *  k  ", ("1", "2", "6")),
    ("n - n", ("0", "0", "0")),
    ("1/(n+k)", ("1/2", "1/3", "1/5")),
    ("n*-k", ("-1", "-2", "-6")),
    ("n/-k", ("-1", "-2", "-3/2")),
    ("2*(n-(k-1))", ("2", "4", "4")),
    ("((n))", ("1", "2", "3")),
    ("n^2*k^2/(n+k)", ("1/2", "4/3", "36/5")),
    ("007", ("7", "7", "7")),
    ("n^2.0", ("1", "4", "9")),
    ("-" * 199 + "n", ("-1", "-2", "-3")),
    (LONG_SUM, ("98", "97", "195")),
    ("1/(n-1)", ("ZeroDivisionError: expression '1/(n-1)' divides by zero at n=1, k=1",
                 "1", "1/2")),
    ("1/(n-k)", ("ZeroDivisionError: expression '1/(n-k)' divides by zero at n=1, k=1",
                 "1", "1")),
    ("0^-1", ("ZeroDivisionError: expression '0^-1' divides by zero at n=1, k=1",
              "ZeroDivisionError: expression '0^-1' divides by zero at n=2, k=1",
              "ZeroDivisionError: expression '0^-1' divides by zero at n=3, k=2")),
    ("(k-1)^-2", ("ZeroDivisionError: expression '(k-1)^-2' divides by zero at n=1, k=1",
                  "ZeroDivisionError: expression '(k-1)^-2' divides by zero at n=2, k=1",
                  "1")),
    ("n/0", ("ZeroDivisionError: expression 'n/0' divides by zero at n=1, k=1",
             "ZeroDivisionError: expression 'n/0' divides by zero at n=2, k=1",
             "ZeroDivisionError: expression 'n/0' divides by zero at n=3, k=2")),
    ("n/(k-k)", ("ZeroDivisionError: expression 'n/(k-k)' divides by zero at n=1, k=1",
                 "ZeroDivisionError: expression 'n/(k-k)' divides by zero at n=2, k=1",
                 "ZeroDivisionError: expression 'n/(k-k)' divides by zero at n=3, k=2")),
    ("n $", "SpecParseError: bad character ' ' in expression 'n $'"),
    ("$", "SpecParseError: bad character '$' in expression '$'"),
    ("n#", "SpecParseError: bad character '#' in expression 'n#'"),
    ("", "SpecParseError: unexpected token in expression ''"),
    ("   ", "SpecParseError: unexpected token in expression '   '"),
    ("2^2^2", "SpecParseError: trailing input in expression '2^2^2'"),
    ("2^(2)", "SpecParseError: exponent must be an integer in '2^(2)'"),
    ("2^--1", "SpecParseError: exponent must be an integer in '2^--1'"),
    ("1.", "SpecParseError: bad character '.' in expression '1.'"),
    (".5", "SpecParseError: bad character '.' in expression '.5'"),
    ("n^k", "SpecParseError: exponent must be an integer in 'n^k'"),
    ("n^1.5", "SpecParseError: exponent must be an integer in 'n^1.5'"),
    ("n^-k", "SpecParseError: exponent must be an integer in 'n^-k'"),
    ("n^", "SpecParseError: exponent must be an integer in 'n^'"),
    ("q+1", "SpecParseError: unknown name 'q' in expression 'q+1' (allowed: n, k)"),
    ("x1", "SpecParseError: unknown name 'x1' in expression 'x1' (allowed: n, k)"),
    ("N", "SpecParseError: unknown name 'N' in expression 'N' (allowed: n, k)"),
    ("n n", "SpecParseError: trailing input in expression 'n n'"),
    ("2 3", "SpecParseError: trailing input in expression '2 3'"),
    ("1e5", "SpecParseError: trailing input in expression '1e5'"),
    ("n)", "SpecParseError: trailing input in expression 'n)'"),
    ("(n", "SpecParseError: expected ')' in expression '(n'"),
    ("(((n)", "SpecParseError: expected ')' in expression '(((n)'"),
    ("(", "SpecParseError: unexpected token in expression '('"),
    ("n+", "SpecParseError: unexpected token in expression 'n+'"),
    ("*n", "SpecParseError: unexpected token in expression '*n'"),
    ("n**2", "SpecParseError: unexpected token in expression 'n**2'"),
    ("-" * 200 + "n", f"SpecParseError: expression {'-' * 200 + 'n'!r} has 201 tokens; "
                      "at most 200 are allowed"),
    (LONG_SUM + "*1", f"SpecParseError: expression {LONG_SUM + '*1'!r} has 202 tokens; "
                      "at most 200 are allowed"),
]


def outcome(src):
    """The recorded form of what compiling ``src`` in n, k gives."""
    try:
        fn = compile_arithmetic(src, variables=("n", "k"))
    except SpecParseError as exc:
        return f"SpecParseError: {exc}"
    values = []
    for n, k in POINTS:
        try:
            values.append(str(fn(n=Fraction(n), k=Fraction(k))))
        except ZeroDivisionError as exc:
            values.append(f"ZeroDivisionError: {exc}")
    return tuple(values)


@pytest.mark.parametrize("src,want", OUTCOMES, ids=[repr(src)[:24] for src, _ in OUTCOMES])
def test_recorded_outcomes(src, want):
    assert outcome(src) == want


def test_deepest_expressions_compile_from_a_deep_caller():
    """The deepest accepted nestings still compile and evaluate when the
    caller already stands 450 frames from the bottom of the stack."""

    def stack_depth():
        frame, depth = sys._getframe(1), 0
        while frame is not None:
            depth += 1
            frame = frame.f_back
        return depth

    def dive():
        if stack_depth() < 450:
            return dive()
        parens = compile_arithmetic("(" * 99 + "n" + ")" * 99)(n=Fraction(2))
        minus = compile_arithmetic("-" * 199 + "n")(n=Fraction(2))
        return parens, minus

    assert dive() == (2, -2)


class TestSequenceSpecs:
    def test_presets(self):
        seq, canon = parse_sequence_spec("e3")
        assert canon == "e3"
        assert seq.prefix(4) == [0, 0, 1, 0]
        assert parse_sequence_spec("ones")[0].at(9) == 1
        assert parse_sequence_spec("harmonic")[0].at(4) == Fraction(1, 4)
        assert parse_sequence_spec("alternating")[0].at(1) == -1
        assert parse_sequence_spec("power:2")[0].at(4) == 16
        assert parse_sequence_spec("geometric:1/3")[0].at(2) == Fraction(1, 9)

    def test_expression_sequences(self):
        seq, canon = parse_sequence_spec("expr: n/(n + 1)")
        assert canon == "expr:n/(n+1)"
        assert seq.at(3) == Fraction(3, 4)

    def test_explicit_lists_have_zero_tails(self):
        seq, canon = parse_sequence_spec("1, 2, 3")
        assert canon == "1,2,3"
        assert seq.at(2) == 2
        assert seq.at(5) == 0
        assert seq.support == 3

    def test_tail_directive(self):
        seq, canon = parse_sequence_spec("1,2;tail=n")
        assert canon == "1,2;tail=n"
        assert seq.at(2) == 2
        assert seq.at(10) == 10

    @pytest.mark.parametrize("bad", ["e0", "power:x", "1,2;cap=3", "", "1,x"])
    def test_malformed(self, bad):
        with pytest.raises(SpecParseError):
            parse_sequence_spec(bad)

    @pytest.mark.parametrize("spec", [
        "e2", "ones", "harmonic", "power:-2", "geometric:2/7",
        "expr:n^2-1", "1,2,3", "1/2,-3;tail=1/n",
    ])
    def test_canonical_form_round_trips(self, spec):
        seq, canon = parse_sequence_spec(spec)
        again, canon2 = parse_sequence_spec(canon)
        assert canon2 == canon
        assert again.prefix(8) == seq.prefix(8)


class TestWeightSpecs:
    def test_explicit_lists_repeat_the_last_term(self):
        w, canon = parse_weight_spec("2,3")
        assert canon == "2,3"
        assert w.at(2) == 3
        assert w.at(7) == 3

    def test_tail_directive_overrides(self):
        w, _ = parse_weight_spec("2,3;tail=n")
        assert w.at(5) == 5

    def test_presets_shared_with_sequences(self):
        w, canon = parse_weight_spec("harmonic")
        assert canon == "harmonic"
        assert w.at(6) == Fraction(1, 6)

    def test_round_trip(self):
        for spec in ("ones", "5", "1,1/2,1/3", "expr:1/n"):
            w, canon = parse_weight_spec(spec)
            again, canon2 = parse_weight_spec(canon)
            assert canon2 == canon
            assert again.prefix(6) == w.prefix(6)


class TestMatrixSpecs:
    def test_named_matrices(self):
        assert parse_matrix_spec("identity").operator.entry(2, 2) == 1
        assert parse_matrix_spec("cesaro").operator.entry(3, 1) == Fraction(1, 3)
        assert parse_matrix_spec("difference").operator.entry(3, 2) == -1

    def test_euler(self):
        spec = parse_matrix_spec("euler:1/2")
        assert spec.canonical == "euler:1/2"
        assert sum(spec.operator.row(4, 4)) == 1

    def test_taylor_comes_with_a_warning(self):
        spec = parse_matrix_spec("taylor:1/2")
        assert spec.operator.kind is TriangleKind.ROW_EVALUABLE
        assert any("infinite" in note for note in spec.notes)

    def test_riesz_embeds_a_weight_spec(self):
        spec = parse_matrix_spec("riesz:ones")
        assert spec.canonical == "riesz:ones"
        assert spec.operator.entry(3, 2) == Fraction(1, 3)

    def test_expression_matrices_are_masked_by_default(self):
        spec = parse_matrix_spec("expr:n*k")
        assert spec.operator.kind is TriangleKind.STRICT_TRIANGLE
        assert spec.operator.entry(3, 2) == 6
        assert spec.operator.entry(2, 3) == 0
        full = parse_matrix_spec("expr:n*k", full=True)
        assert full.operator.kind is TriangleKind.ROW_EVALUABLE
        assert full.operator.entry(2, 3) == 6
        assert any("full rows" in note for note in full.notes)

    def test_csv_matrices(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,0\n-1/2,1/3\n")
        spec = parse_matrix_spec(f"csv:{path}")
        A = spec.operator
        assert A.entry(1, 1) == 1
        assert A.entry(2, 1) == Fraction(-1, 2)
        assert A.entry(2, 2) == Fraction(1, 3)
        assert A.entry(3, 1) == 0  # beyond the explicit rows
        assert any("2 explicit rows" in note for note in spec.notes)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_csv_cells_past_the_diagonal_or_the_row_read_zero(self, tmp_path, mode):
        # cells above the diagonal, past a short row and past the last row
        # read 0; a float cell is its exact cell rounded
        path = tmp_path / "m.csv"
        path.write_text("2,5,7\n1/2\n1/3,-1/3,1/10,9\n")
        A = parse_matrix_spec(f"csv:{path}").operator
        if mode == "float":
            A = A.as_float()
        cells = {(1, 1): Fraction(2), (2, 1): Fraction(1, 2), (3, 1): Fraction(1, 3),
                 (3, 2): Fraction(-1, 3), (3, 3): Fraction(1, 10)}
        for n in range(1, 6):
            want = [cells.get((n, k), Fraction(0)) for k in range(1, 7)]
            if mode == "float":
                want = [float(v) for v in want]
            got = A.row(n, 6)
            assert repr(got) == repr(want), n
            assert repr([A.entry(n, k) for k in range(1, 7)]) == repr(want), n
            assert repr(A.row(n, 6, 3)) == repr(want[2:]), n

    def test_csv_errors(self, tmp_path):
        with pytest.raises(SpecParseError):
            parse_matrix_spec(f"csv:{tmp_path / 'missing.csv'}")
        empty = tmp_path / "empty.csv"
        empty.write_text("\n")
        with pytest.raises(SpecParseError):
            parse_matrix_spec(f"csv:{empty}")
        bad = tmp_path / "bad.csv"
        bad.write_text("1,x\n")
        with pytest.raises(SpecParseError):
            parse_matrix_spec(f"csv:{bad}")

    # a non-canonical spelling of each registry family, and its reprint
    FAMILY_SPECS = {
        "identity": ("identity", "identity"),
        "cesaro": (" cesaro ", "cesaro"),
        "difference": ("difference", "difference"),
        "euler": ("euler:0.5", "euler:1/2"),
        "taylor": ("taylor:2/6", "taylor:1/3"),
        "riesz": ("riesz:1, 2;tail= n", "riesz:1,2;tail=n"),
    }

    @pytest.mark.parametrize("family", sorted(MATRIX_FAMILIES))
    def test_family_specs_reprint_and_reparse(self, family):
        text, canonical = self.FAMILY_SPECS[family]
        spec = parse_matrix_spec(text)
        assert spec.canonical == canonical
        again = parse_matrix_spec(spec.canonical)
        assert again.canonical == canonical
        assert ([again.operator.row(i, 8) for i in range(1, 9)]
                == [spec.operator.row(i, 8) for i in range(1, 9)])

    def test_unknown_matrix(self):
        with pytest.raises(SpecParseError):
            parse_matrix_spec("hilbert")


def test_schedule_spec():
    assert parse_schedule_spec("8,16,32") == TruncationSchedule(sizes=(8, 16, 32))
    assert parse_schedule_spec("16,32,64;tol=1e-6").stabilization_tol == 1e-6
