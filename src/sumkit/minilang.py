"""Tiny text notation for sequences, weights and matrices.

Every such command-line spec is parsed here, with exact rational
semantics: decimal literals become fractions, and every spec has a
canonical reprint that parses back to the same object.  Schedule text is
parsed by ``core.TruncationSchedule.parse``.

Arithmetic expressions use the variables ``n`` (row / position) and ``k``
(column) with ``+ - * / ^`` and parentheses: ``* /`` bind tighter than
``+ -``, both left-associative, and unary minus looser than ``^``, whose
exponent is a signed integer literal: ``-n^-2`` negates n to the power -2.
"""

from __future__ import annotations

import csv
import operator
import re
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from .core import (LazySequence, TruncationSchedule, alternating, geometric, harmonic,
                   ones, powers, zeros)
from .errors import SpecParseError
from .operators import (MATRIX_FAMILIES, TriangleKind, TriangleOperator,
                        classical_matrix)

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[()+\-*/^]))")
# the most tokens an expression may have: it bounds the parser's recursion
# and the nesting of the compiled closures, so whether an expression is
# accepted does not depend on how deep the caller's stack already is
_MAX_TOKENS = 200
# the binary operators by level, loosest first; every level is left-associative
_LEVELS = ({"+": operator.add, "-": operator.sub},
           {"*": operator.mul, "/": operator.truediv})


class _ExprParser:
    """Recursive-descent parser producing a closure over an env dict."""

    def __init__(self, text: str, variables: Sequence[str]):
        self.text = text
        self.variables = tuple(variables)
        self.tokens = self._scan(text)
        self.pos = 0

    def _scan(self, text: str):
        tokens = []
        i = 0
        while i < len(text):
            m = _TOKEN_RE.match(text, i)
            if m is None:
                if text[i:].strip() == "":
                    break
                raise SpecParseError(f"bad character {text[i]!r} in expression {text!r}")
            kind = m.lastgroup
            tokens.append((kind, Fraction(m[kind]) if kind == "num" else m[kind]))
            i = m.end()
        if len(tokens) > _MAX_TOKENS:
            raise SpecParseError(f"expression {text!r} has {len(tokens)} tokens; "
                                 f"at most {_MAX_TOKENS} are allowed")
        tokens.append(("end", ""))
        return tokens

    def _peek(self):
        return self.tokens[self.pos]

    def _next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _expect_op(self, op: str):
        kind, val = self._next()
        if kind != "op" or val != op:
            raise SpecParseError(f"expected {op!r} in expression {self.text!r}")

    def parse(self) -> Callable[[dict], Fraction]:
        fn = self._binary()
        if self._peek()[0] != "end":
            raise SpecParseError(f"trailing input in expression {self.text!r}")
        return fn

    def _binary(self, level: int = 0):
        """Operands joined by ``_LEVELS[level]``, left to right; each operand
        is parsed at the next level, or past the last level as a factor."""
        tighter = level + 1 < len(_LEVELS)
        fn = self._binary(level + 1) if tighter else self._factor()
        ops = _LEVELS[level]
        while True:
            kind, val = self._peek()
            if kind != "op" or val not in ops:
                return fn
            self._next()
            rhs = self._binary(level + 1) if tighter else self._factor()
            fn = (lambda op, a, b: lambda env: op(a(env), b(env)))(ops[val], fn, rhs)

    def _factor(self):
        kind, val = self._peek()
        if kind == "op" and val == "-":
            self._next()
            inner = self._factor()
            return lambda env: -inner(env)
        return self._power()

    def _power(self):
        base = self._atom()
        kind, val = self._peek()
        if kind == "op" and val == "^":
            self._next()
            exponent = self._int_exponent()
            return lambda env: base(env) ** exponent
        return base

    def _int_exponent(self) -> int:
        sign = 1
        kind, val = self._peek()
        if kind == "op" and val == "-":
            self._next()
            sign = -1
        kind, val = self._next()
        if kind != "num" or val.denominator != 1:
            raise SpecParseError(f"exponent must be an integer in {self.text!r}")
        return sign * int(val)

    def _atom(self):
        kind, val = self._next()
        if kind == "num":
            const = val
            return lambda env: const
        if kind == "name":
            if val not in self.variables:
                raise SpecParseError(
                    f"unknown name {val!r} in expression {self.text!r} "
                    f"(allowed: {', '.join(self.variables)})")
            name = val
            return lambda env: env[name]
        if kind == "op" and val == "(":
            fn = self._binary()
            self._expect_op(")")
            return fn
        raise SpecParseError(f"unexpected token in expression {self.text!r}")


def compile_arithmetic(text: str, variables: Sequence[str] = ("n",)) -> Callable[..., Fraction]:
    """Compile an arithmetic expression to a function of keyword args.

    A division by zero names the expression and the arguments it hit.
    """
    fn = _ExprParser(text, variables).parse()

    def call(**env) -> Fraction:
        try:
            return fn(env)
        except ZeroDivisionError:
            at = ", ".join(f"{name}={value}" for name, value in env.items())
            raise ZeroDivisionError(
                f"expression {text!r} divides by zero at {at}") from None

    return call


def _parse_rational(text: str, context: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecParseError(f"bad number {text!r} in {context}") from exc


# ---------------------------------------------------------------------------
# Sequence and weight specs
# ---------------------------------------------------------------------------


def _rule_of_n(src: str) -> tuple[Callable[[int], Fraction], str]:
    """``src`` compiled as a rule of n, and its canonical text (no whitespace)."""
    fn = compile_arithmetic(src, variables=("n",))
    return (lambda n: fn(n=Fraction(n))), re.sub(r"\s+", "", src)


_UNIT_RE = re.compile(r"^e(\d+)$")
# the sequences named by a bare word
_PRESETS = {"ones": ones, "zeros": zeros, "harmonic": harmonic, "alternating": alternating}


def _preset_sequence(text: str) -> Optional[tuple[LazySequence, str]]:
    body = text.strip()
    m = _UNIT_RE.match(body)
    if m:
        idx = int(m.group(1))
        if idx < 1:
            raise SpecParseError("unit sequences are indexed from 1")
        return LazySequence.unit(idx), f"e{idx}"
    if body in _PRESETS:
        return _PRESETS[body](), body
    if body.startswith("power:"):
        p = body.split(":", 1)[1]
        try:
            exponent = int(p)
        except ValueError as exc:
            raise SpecParseError(f"power spec needs an integer exponent, got {p!r}") from exc
        seq = powers(exponent)
        return seq, seq.label
    if body.startswith("geometric:"):
        seq = geometric(_parse_rational(body.split(":", 1)[1], "geometric spec"))
        return seq, seq.label
    if body.startswith("expr:"):
        rule, src = _rule_of_n(body.split(":", 1)[1])
        return LazySequence(rule, label="expr:" + src), "expr:" + src
    return None


def _sequence_spec(text: str, context: str,
                   default_tail: Callable[[list[Fraction]], Fraction]
                   ) -> tuple[LazySequence, str]:
    """A preset, or an explicit comma list with an optional ``;tail=<expr>``;
    without one, every term past the list is ``default_tail(terms)``, and a
    zero fill makes the list length the support."""
    preset = _preset_sequence(text)
    if preset is not None:
        return preset
    body, has_directive, directive = text.strip().partition(";")
    directive = directive.strip()
    if has_directive and not directive.startswith("tail="):
        raise SpecParseError(f"unknown directive {directive!r} in {context}")
    terms = [_parse_rational(piece, context) for piece in body.split(",") if piece.strip() != ""]
    if not terms:
        raise SpecParseError(f"empty term list in {context}")
    head = len(terms)
    canon = ",".join(map(str, terms))  # Fraction prints p/q, or bare p for integers
    support = None
    if has_directive:
        tail, tail_src = _rule_of_n(directive[len("tail="):])
        canon += ";tail=" + tail_src
    else:
        fill = default_tail(terms)
        tail = lambda n: fill
        if fill == 0:
            support = head

    def rule(n: int) -> Fraction:
        return terms[n - 1] if n <= head else tail(n)

    return LazySequence(rule, support=support, label=canon), canon


def parse_sequence_spec(text: str) -> tuple[LazySequence, str]:
    """A sequence spec: a preset name, ``expr:<e>``, or an explicit comma
    list with an optional ``;tail=<expr>`` (default tail: zeros)."""
    return _sequence_spec(text, "sequence spec", lambda terms: Fraction(0))


def parse_weight_spec(text: str) -> tuple[LazySequence, str]:
    """A weight spec: like a sequence spec, but the default tail of an
    explicit list repeats the last term (weights must stay nonzero)."""
    return _sequence_spec(text, "weight spec", lambda terms: terms[-1])


# ---------------------------------------------------------------------------
# Matrix specs
# ---------------------------------------------------------------------------


class MatrixSpec(NamedTuple):
    operator: TriangleOperator
    canonical: str
    notes: Sequence[str] = ()


def parse_family_spec(text: str) -> Optional[tuple[str, object, str]]:
    """A classical-family spec: the bare name of a ``MATRIX_FAMILIES``
    entry without a parameter (``cesaro``), or ``<name>:<r>`` resp.
    ``<name>:<weight spec>`` for one with a rational resp. weights
    parameter (``euler:1/2``, ``riesz:harmonic``).  Returns the family
    name, its parameter and the canonical spec, or None when ``text``
    names no family in that form."""
    name, has_param, arg = text.strip().partition(":")
    family = MATRIX_FAMILIES.get(name)
    if family is None or bool(has_param) != (family.param is not None):
        return None
    if family.param == "rational":
        r = _parse_rational(arg, f"{name} spec")
        return name, r, f"{name}:{r}"
    if family.param == "weights":
        weights, canon = parse_weight_spec(arg)
        return name, weights, f"{name}:{canon}"
    return name, None, name


def parse_matrix_spec(text: str, *, full: bool = False) -> MatrixSpec:
    """A matrix spec: a classical family (see ``parse_family_spec``),
    ``expr:<e>`` in n,k (masked to the lower triangle unless ``full``),
    or ``csv:<path>`` with one matrix row per line."""
    body = text.strip()
    family = parse_family_spec(body)
    if family is not None:
        name, param, canon = family
        op = classical_matrix(name, param)
        notes = []
        if op.row_support is None:
            notes.append(f"{name} rows are infinite; row-bounded operations "
                         "need an explicit bound")
        return MatrixSpec(op, canon, notes)
    if body.startswith("expr:"):
        src = body.split(":", 1)[1]
        fn = compile_arithmetic(src, variables=("n", "k"))
        canon = "expr:" + re.sub(r"\s+", "", src)
        op = TriangleOperator(
            lambda n, k: fn(n=Fraction(n), k=Fraction(k)),
            kind=TriangleKind.ROW_EVALUABLE if full else TriangleKind.STRICT_TRIANGLE,
            exact=True, label=canon)
        return MatrixSpec(op, canon, ["expression matrix used with full rows"] if full else [])
    if body.startswith("csv:"):
        return _csv_matrix(body.split(":", 1)[1])
    raise SpecParseError(f"unknown matrix spec {text!r}")


def _csv_matrix(path: str) -> MatrixSpec:
    rows: list[list[Fraction]] = []
    try:
        with open(path, newline="") as fh:
            for record in csv.reader(fh):
                if not record or all(cell.strip() == "" for cell in record):
                    continue
                rows.append([_parse_rational(cell, f"csv matrix {path}")
                             for cell in record if cell.strip() != ""])
    except OSError as exc:
        raise SpecParseError(f"cannot read csv matrix {path!r}: {exc}") from exc
    if not rows:
        raise SpecParseError(f"csv matrix {path!r} has no rows")
    count = len(rows)

    def build_row(n: int) -> list[Fraction]:
        # evaluating a parsed cell cannot fail, so the row is built whole,
        # cut at the diagonal; a row past the file is empty, its cells 0
        return rows[n - 1][:n] if n <= count else []

    op = TriangleOperator(build_row=build_row, kind=TriangleKind.STRICT_TRIANGLE,
                          exact=True, label=f"csv:{path}")
    note = (f"csv matrix has {count} explicit rows; entries outside them are 0")
    return MatrixSpec(op, f"csv:{path}", [note])


def parse_schedule_spec(text: str) -> TruncationSchedule:
    return TruncationSchedule.parse(text)
