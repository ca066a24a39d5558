"""Shared helpers: random generators (exact scalars only) and a CLI driver."""

import io
import random
from fractions import Fraction

from sumkit.cli import run as _cli_run
from sumkit.core import LazySequence
from sumkit.operators import WeightPair


def run_cli(*argv):
    """Drive the command-line entry point, returning (exit code, stdout)."""
    out = io.StringIO()
    code = _cli_run(list(argv), out=out)
    return code, out.getvalue()


def random_weight_pair(rng: random.Random) -> WeightPair:
    """An everywhere-nonzero exact weight pair with 150 scrambled leading
    terms and a harmless 1/k tail past them."""

    def draw():
        vals = [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
                for _ in range(150)]
        return LazySequence(lambda k: vals[k - 1] if k <= 150 else Fraction(1, k))

    return WeightPair(draw(), draw())


def random_sequence(rng: random.Random, n: int) -> LazySequence:
    terms = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
    return LazySequence.from_terms(terms)


def entrywise_row(A, n: int) -> LazySequence:
    """Row ``n`` of a row-finite matrix as an oracle reads it: term k is
    ``A.entry(n, k)``, evaluated when first asked for."""
    return LazySequence(lambda k: A.entry(n, k), support=A.extent(n), exact=A.exact,
                        label=f"{A.label}[row {n}]")
