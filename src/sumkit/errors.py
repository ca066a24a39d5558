"""Exception types shared across the package."""

from __future__ import annotations

from typing import Optional


class SumkitError(Exception):
    """Base class for all package-specific errors."""


class InvalidWeightError(SumkitError):
    """A weight sequence produced a zero (or otherwise unusable) term."""

    def __init__(self, which: str, index: int, reason: str = "is zero"):
        self.which = which
        self.index = index
        super().__init__(f"weight {which}[{index}] {reason}")


class SingularTriangleError(SumkitError):
    """Back-substitution of ``matrix`` hit a zero diagonal entry at ``row``,
    or (``row`` None) was asked of ``matrix``, which is not a strict
    triangle."""

    def __init__(self, row: Optional[int], matrix: str):
        self.row = row
        detail = ("inversion needs a strict triangle" if row is None
                  else f"zero diagonal entry at row {row}")
        super().__init__(f"cannot invert {matrix}: {detail}")


class UnsupportedRowError(SumkitError):
    """A row-evaluable matrix was applied without a usable row bound."""


class UnsupportedSpaceError(SumkitError):
    """The requested operation is not defined for the given space."""


class UnsupportedClassError(SumkitError):
    """No characterization recipe covers the requested (source, target) pair."""

    def __init__(self, source: str, target: str, detail: str = ""):
        self.source = source
        self.target = target
        msg = f"no recipe for the class ({source} : {target})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class ScheduleError(SumkitError):
    """A truncation schedule failed validation."""


class SpecParseError(SumkitError):
    """A command-line literal (weights, sequence, matrix, schedule) failed to parse."""
