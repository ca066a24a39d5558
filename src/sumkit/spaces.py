"""The two matrix-domain spaces over l1, their norms and their coordinate bases.

Both spaces are absolutely-summable domains of a strict triangle built
from a weight pair: ``int-bv`` uses the integrated triangle, ``d-bv`` the
differentiated one.  The norm of x is the l1 norm of the transformed
sequence, so every question about the space reduces to a question about
l1 through the triangle and its closed-form inverse.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .core import LazySequence, Scalar, space_evidence
from .errors import UnsupportedSpaceError
from .operators import (TriangleOperator, WeightPair, apply_triangle,
                        differentiated_inverse, differentiated_triangle,
                        integrated_inverse, integrated_triangle)


class SpaceName(Enum):
    INT_BV = "int-bv"
    D_BV = "d-bv"


class DomainSpace(NamedTuple):
    """A domain space: its name, weights, and the defining triangle."""

    name: SpaceName
    weights: WeightPair
    triangle: TriangleOperator


# each space's defining triangle and its closed-form inverse
_TRIANGLES = {
    SpaceName.INT_BV: (integrated_triangle, integrated_inverse),
    SpaceName.D_BV: (differentiated_triangle, differentiated_inverse),
}


def domain_space(name, wp: WeightPair) -> DomainSpace:
    name = SpaceName(name)
    return DomainSpace(name, wp, _TRIANGLES[name][0](wp))


def domain_norm(space: DomainSpace, x: LazySequence, n: int) -> Scalar:
    """Partial norm: sum of |(T x)_m| for m <= n (exact in exact mode)."""
    y = apply_triangle(space.triangle, x)
    total = y.zero()
    for m in range(1, n + 1):
        total += abs(y.at(m))
    return total


def embed_from_l1(space: DomainSpace, y: LazySequence) -> LazySequence:
    """The inverse image x with T x = y; the isometry from l1 onto the space."""
    return _TRIANGLES[space.name][1](space.weights, y)


def basis_column(space, wp: WeightPair, k: int) -> LazySequence:
    """Column ``k`` of the inverse triangle: the unique solution of
    ``T s = e^(k)``, computed by the closed-form inverse (tests keep
    back-substitution as its oracle)."""
    return embed_from_l1(domain_space(space, wp), LazySequence.unit(k, exact=wp.exact))


def basis_tabulated_discrepancies(space, wp: WeightPair, k: int, n_max: int) -> list[int]:
    """Indices n <= n_max where the tabulated closed form of basis column
    ``k`` is wrong.  Past k the column is (1/u_k)(1/w_k - 1/w_{k+1}) / f(n),
    with f(n) = n on int-bv and 1/n on d-bv, and the tabulated form reads
    u_{k+1} for w_{k+1}; up to k the two agree.  So it is wrong at every
    n > k exactly when u_{k+1} != w_{k+1} (floats compare by exact value)."""
    SpaceName(space)  # a bad name raises ValueError
    if k < n_max and wp.u_at(k + 1) != wp.w_at(k + 1):
        return list(range(k + 1, n_max + 1))
    return []


def ak_tail_norm(space: DomainSpace, x: LazySequence, m: int, n_eval: int) -> Scalar:
    """Partial norm of x with its first ``m`` coordinates zeroed.

    Only ``d-bv`` carries the coordinate-section (AK) property, so that is
    the only space this is defined for; a vanishing tail certifies that
    the coordinate sections converge to x in norm.
    """
    if space.name is not SpaceName.D_BV:
        raise UnsupportedSpaceError(
            f"tail norms for coordinate sections are only defined on "
            f"{SpaceName.D_BV.value!r}, not {space.name.value!r}")
    if m < 0:
        raise ValueError("the section length m must be >= 0")
    if n_eval < m:
        raise ValueError("evaluation bound must reach past the zeroed prefix")
    return domain_norm(space, x.zeroed_prefix(m), n_eval)
