"""Lazy 1-based scalar sequences, truncation schedules and evidence verdicts.

Scalars come in two modes that are never mixed inside one evaluation:
exact mode uses ``fractions.Fraction`` (arbitrary precision), float mode
uses IEEE float64.  Conversion is explicit and one-way (exact -> float).

All sequence and matrix indices start at 1; any term with an index below 1
is treated as structurally zero by the constructors that need it.
"""

from __future__ import annotations

import decimal
import math
from enum import Enum
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterable, NamedTuple, Optional, Union

from .errors import ScheduleError

Scalar = Union[Fraction, float]

DEFAULT_SIZES = (16, 32, 64, 128, 256)


def as_fraction(value) -> Fraction:
    """Convert an int, string or Fraction to an exact scalar.

    Floats are rejected on purpose: exact mode never silently absorbs
    rounding that already happened.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError(
            "refusing to build an exact scalar from a float; "
            "pass a string or Fraction instead"
        )
    raise TypeError(f"cannot build an exact scalar from {type(value).__name__}")


def _int_text(value: int) -> str:
    try:
        return str(value)
    except ValueError:  # past the interpreter's int-to-str digit limit
        return str(decimal.Decimal(value))


def scalar_to_json(value: Scalar):
    """Render a scalar losslessly for JSON: Fractions as 'p/q' strings."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return _int_text(value.numerator)
        return f"{_int_text(value.numerator)}/{_int_text(value.denominator)}"
    if isinstance(value, float):
        if math.isfinite(value):
            return value
        return repr(value)
    if isinstance(value, int):
        return _int_text(value)
    raise TypeError(f"not a scalar: {value!r}")


def _to_float(value: Scalar) -> float:
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def checked_float(value: Scalar, what: str, index, label: str) -> float:
    """``float(value)``, the ``what`` at ``index`` of ``label``: a value too
    large for a float raises ValueError naming that index."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} {index} of {label} is too large for a float") from None


class LazySequence:
    """A total, pure rule ``index -> scalar`` with transparent memoization.

    ``support`` (optional) declares that every term beyond that index is
    zero; it is metadata the constructors guarantee, not a mask applied on
    top of the rule.  Memoized values are written idempotently, so reads
    are safe under concurrency.
    """

    __slots__ = ("_rule", "support", "exact", "label", "_memo")

    def __init__(self, rule: Callable[[int], Scalar], *, support: Optional[int] = None,
                 exact: bool = True, label: str = ""):
        self._rule = rule
        self.support = support
        self.exact = exact
        self.label = label
        self._memo: dict[int, Scalar] = {}

    def at(self, k: int) -> Scalar:
        if not isinstance(k, int) or k < 1:
            raise IndexError(f"sequence indices start at 1, got {k!r}")
        v = self._memo.get(k)
        if v is None:
            v = self._rule(k)
            self._memo[k] = v
        return v

    def prefix(self, n: int) -> list[Scalar]:
        return [self.at(k) for k in range(1, n + 1)]

    def zero(self) -> Scalar:
        return Fraction(0) if self.exact else 0.0

    # -- constructors -------------------------------------------------

    @classmethod
    def from_terms(cls, terms: Iterable, *, exact: bool = True) -> "LazySequence":
        """Finite leading terms, zero tail; support is the term count."""
        if exact:
            vals = [as_fraction(t) for t in terms]
            zero: Scalar = Fraction(0)
        else:
            vals = [float(t) for t in terms]
            zero = 0.0
        n = len(vals)

        def rule(k: int) -> Scalar:
            return vals[k - 1] if k <= n else zero

        return cls(rule, support=n, exact=exact)

    @classmethod
    def unit(cls, k: int, *, exact: bool = True) -> "LazySequence":
        one: Scalar = Fraction(1) if exact else 1.0
        zero: Scalar = Fraction(0) if exact else 0.0
        return cls(lambda i: one if i == k else zero, support=k, exact=exact, label=f"e{k}")

    # -- combinators ---------------------------------------------------

    def zeroed_prefix(self, m: int) -> "LazySequence":
        """The sequence with its first ``m`` terms replaced by zero."""
        zero = self.zero()
        return LazySequence(lambda k: zero if k <= m else self.at(k),
                            support=self.support, exact=self.exact)

    def as_float(self) -> "LazySequence":
        if not self.exact:
            return self
        label = self.label or "a sequence"
        return LazySequence(lambda k: checked_float(self.at(k), "term", k, label),
                            support=self.support, exact=False, label=self.label)


def ones(*, exact: bool = True) -> LazySequence:
    one: Scalar = Fraction(1) if exact else 1.0
    return LazySequence(lambda k: one, exact=exact, label="ones")


def zeros(*, exact: bool = True) -> LazySequence:
    zero: Scalar = Fraction(0) if exact else 0.0
    return LazySequence(lambda k: zero, support=0, exact=exact, label="zeros")


def harmonic(*, exact: bool = True) -> LazySequence:
    if exact:
        return LazySequence(lambda k: Fraction(1, k), label="harmonic")
    return LazySequence(lambda k: 1.0 / k, exact=False, label="harmonic")


def alternating(*, exact: bool = True) -> LazySequence:
    one: Scalar = Fraction(1) if exact else 1.0
    return LazySequence(lambda k: -one if k % 2 else one, exact=exact, label="alternating")


def powers(p: int, *, exact: bool = True) -> LazySequence:
    if exact:
        return LazySequence(lambda k: Fraction(k) ** p, label=f"power:{p}")
    return LazySequence(lambda k: float(k) ** p, exact=False, label=f"power:{p}")


def geometric(r, *, exact: bool = True) -> LazySequence:
    if exact:
        ratio = as_fraction(r)
        return LazySequence(lambda k: ratio ** k, label=f"geometric:{ratio}")
    ratio = float(r)
    return LazySequence(lambda k: ratio ** k, exact=False, label=f"geometric:{ratio}")


def running_sums(term: Callable[[int], Scalar], zero: Scalar) -> Callable[[int], Scalar]:
    """``m -> zero + term(1) + ... + term(m)`` for m >= 0.

    Each prefix is summed once, left to right, and kept, so a run of calls
    costs one ``term`` evaluation per new index whatever their order.
    """
    sums = [zero]

    def prefix(m: int) -> Scalar:
        while len(sums) <= m:
            sums.append(sums[-1] + term(len(sums)))
        return sums[m]

    return prefix


def gray_subset_search(vectors: list[list], zero, score: Callable[[list], Scalar],
                       witness: Optional[Callable[[list], object]] = None):
    """Best ``score`` over the sums of the nonempty subsets of ``vectors``.

    Subsets are visited in Gray-code order, so each step adds one vector to,
    or subtracts it from, a running sum ``acc`` (entry by entry, up to that
    vector's length; ``acc`` starts as ``zero`` entries).  ``score(acc)``
    replaces the best so far, starting from ``zero``, only when it is
    strictly greater; ``witness(acc)`` is then taken from the running sum.
    Returns the best score, the 1-based indices of its subset (empty when
    no subset beats ``zero``) and its witness.
    """
    acc = [zero] * max(map(len, vectors), default=0)
    best, best_mask, best_witness = zero, 0, None
    prev = 0
    for i in range(1, 1 << len(vectors)):
        gray = i ^ (i >> 1)
        bit = gray ^ prev
        prev = gray
        vec = vectors[bit.bit_length() - 1]
        if gray & bit:
            for j, v in enumerate(vec):
                acc[j] = acc[j] + v
        else:
            for j, v in enumerate(vec):
                acc[j] = acc[j] - v
        value = score(acc)
        if value > best:
            best, best_mask = value, gray
            if witness is not None:
                best_witness = witness(acc)
    chosen = [j + 1 for j in range(len(vectors)) if best_mask >> j & 1]
    return best, chosen, best_witness


# ---------------------------------------------------------------------------
# Space tags, schedules, verdicts
# ---------------------------------------------------------------------------


class SpaceTag(Enum):
    """Classical sequence-space tags: the endpoints of the recipe tables."""

    L1 = "l1"
    LINF = "linf"
    C = "c"
    C0 = "c0"
    BS = "bs"
    CS = "cs"
    C0S = "c0s"


# schedule text option -> (TruncationSchedule field, value type)
_SCHEDULE_OPTIONS = {"tol": ("stabilization_tol", float), "ratio": ("growth_ratio", float),
                     "steps": ("growth_steps", int)}


class _ScheduleFields(NamedTuple):
    sizes: tuple[int, ...]
    stabilization_tol: float
    growth_ratio: float
    growth_steps: int


class TruncationSchedule(_ScheduleFields):
    """Increasing evaluation sizes plus the decision thresholds.

    ``stabilization_tol`` is relative (with an absolute floor of 1 on the
    comparison scale); ``growth_ratio`` is the cumulative factor across
    ``growth_steps`` consecutive strictly-increasing steps that counts as
    divergence evidence.  Both must be finite: an infinite tolerance calls
    every trace stable, and an infinite ratio switches every growth window off.
    """

    __slots__ = ()

    def __new__(cls, sizes: Iterable[int] = DEFAULT_SIZES, stabilization_tol: float = 1e-9,
                growth_ratio: float = 1.5, growth_steps: int = 3):
        sizes = tuple(int(s) for s in sizes)
        if len(sizes) < 3:
            raise ScheduleError("a truncation schedule needs at least 3 sizes")
        if any(s < 1 for s in sizes):
            raise ScheduleError("schedule sizes must be positive")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ScheduleError("schedule sizes must be strictly increasing")
        if not (stabilization_tol > 0):
            raise ScheduleError("stabilization tolerance must be positive")
        if not math.isfinite(stabilization_tol):
            raise ScheduleError("stabilization tolerance must be finite")
        if not (growth_ratio > 1):
            raise ScheduleError("growth ratio must exceed 1")
        if not math.isfinite(growth_ratio):
            raise ScheduleError("growth ratio must be finite")
        if growth_steps < 1:
            raise ScheduleError("growth window needs at least 1 step")
        return super().__new__(cls, sizes, stabilization_tol, growth_ratio, growth_steps)

    @classmethod
    def _make(cls, iterable) -> "TruncationSchedule":
        # the inherited _make, which _replace calls, skips __new__ and its checks
        return cls(*iterable)

    @property
    def max_size(self) -> int:
        return self.sizes[-1]

    def doubled(self) -> "TruncationSchedule":
        """The same schedule with one extra doubling appended."""
        return self._make((self.sizes + (self.max_size * 2,), *self[1:]))

    @classmethod
    def parse(cls, text: str) -> "TruncationSchedule":
        """Parse ``"16,32,64,128,256;tol=1e-9;ratio=1.5"`` (options optional)."""
        parts = [p.strip() for p in text.strip().split(";") if p.strip()]
        if not parts:
            raise ScheduleError("empty schedule text")
        try:
            sizes = tuple(int(tok) for tok in parts[0].split(",") if tok.strip())
        except ValueError as exc:
            raise ScheduleError(f"bad schedule sizes in {parts[0]!r}") from exc
        options = {}
        for opt in parts[1:]:
            if "=" not in opt:
                raise ScheduleError(f"bad schedule option {opt!r}")
            key, val = opt.split("=", 1)
            key = key.strip().lower()
            if key not in _SCHEDULE_OPTIONS:
                raise ScheduleError(f"unknown schedule option {key!r}")
            name, kind = _SCHEDULE_OPTIONS[key]
            try:
                options[name] = kind(val)
            except ValueError as exc:
                raise ScheduleError(f"bad value for schedule option {key!r}") from exc
        return cls(sizes, **options)

    def to_dict(self) -> dict:
        return {**self._asdict(), "sizes": list(self.sizes)}


class Verdict(Enum):
    HOLDS = "HOLDS_AT_TRUNCATION"
    DIVERGENCE = "DIVERGENCE_EVIDENCE"
    INCONCLUSIVE = "INCONCLUSIVE"


_VERDICT_RANK = {Verdict.DIVERGENCE: 0, Verdict.INCONCLUSIVE: 1, Verdict.HOLDS: 2}


def combine_conjunctive(statuses: Iterable[Verdict]) -> Verdict:
    """Weakest-member conjunction: any divergence wins, then inconclusive."""
    worst = Verdict.HOLDS
    for s in statuses:
        if _VERDICT_RANK[s] < _VERDICT_RANK[worst]:
            worst = s
    return worst


class ConditionVerdict(NamedTuple):
    """Outcome of evaluating one statistic over a truncation schedule."""

    status: Verdict
    trace: list[tuple[int, Scalar]]
    witness: Optional[dict] = None
    limit_estimates: Optional[dict] = None
    aux: dict = {}  # one dict shared by every verdict that passes none; only read

    def to_dict(self) -> dict:
        doc = {
            "status": self.status.value,
            "trace": [{"size": n, "statistic": scalar_to_json(v)} for n, v in self.trace],
        }
        if self.witness is not None:
            doc["witness"] = _jsonify(self.witness)
        if self.limit_estimates is not None:
            doc["limit_estimates"] = {str(k): scalar_to_json(v)
                                      for k, v in sorted(self.limit_estimates.items())}
        if self.aux:
            doc["aux"] = _jsonify(self.aux)
        return doc


def _jsonify(obj):
    if isinstance(obj, (Fraction,)):
        return scalar_to_json(obj)
    if isinstance(obj, float):
        return scalar_to_json(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


class StatKind(Enum):
    """How a statistic relates to the property it witnesses.

    SUP statistics approximate a supremum that must stay finite; their
    trace should stabilize (or at least stop growing).  DEFECT statistics
    measure a failure amount that must tend to zero.
    """

    SUP = "sup"
    DEFECT = "defect"


def _growth_window(vals: list[float], ratio: float, steps: int) -> Optional[int]:
    """First index of a run of ``steps`` strictly increasing steps whose
    cumulative growth reaches ``ratio``; None if there is no such run."""
    for i in range(len(vals) - steps):
        seg = vals[i:i + steps + 1]
        if seg[0] <= 0:
            continue
        if all(b > a for a, b in zip(seg, seg[1:])) and seg[-1] >= ratio * seg[0]:
            return i
    return None


def judge_trace(values: list[Scalar], kind: StatKind, sched: TruncationSchedule, *,
                scale: float = 1.0, require_exact_zero: bool = False) -> tuple[Verdict, dict]:
    """Decide HOLDS / DIVERGENCE / INCONCLUSIVE from a statistic trace.

    Divergence needs a run of ``growth_steps`` strictly increasing steps
    with cumulative growth >= ``growth_ratio``.  A SUP trace holds when it
    stabilizes (final two values within tolerance) or when its increments
    certify geometric decay (ratio <= 1/growth_ratio twice running), which
    extrapolates to a finite limit.  A DEFECT trace holds when its final
    value is negligible against ``scale`` or decays geometrically to zero.
    """
    if len(values) < 3:
        raise ScheduleError("judging a trace needs at least 3 values")
    floats = [_to_float(v) for v in values]
    tol = sched.stabilization_tol
    theta = 1.0 / sched.growth_ratio
    routes = {"kind": kind.value, "stabilized": False, "geometric_decay": False,
              "growth_window_at": None}

    window = _growth_window(floats, sched.growth_ratio, sched.growth_steps)
    routes["growth_window_at"] = window

    if kind is StatKind.SUP:
        stabilized = abs(floats[-1] - floats[-2]) <= tol * max(1.0, abs(floats[-1]))
        routes["stabilized"] = stabilized
        if stabilized:
            return Verdict.HOLDS, routes
        if window is not None:
            return Verdict.DIVERGENCE, routes
        incs = [b - a for a, b in zip(floats, floats[1:])]
        if len(incs) >= 3 and incs[-3] > 0 and incs[-2] > 0 and incs[-1] >= 0:
            if incs[-1] <= theta * incs[-2] and incs[-2] <= theta * incs[-3]:
                routes["geometric_decay"] = True
                return Verdict.HOLDS, routes
        return Verdict.INCONCLUSIVE, routes

    # DEFECT
    if window is not None:
        return Verdict.DIVERGENCE, routes
    if require_exact_zero and not isinstance(values[-1], float):
        small = values[-1] == 0
    else:
        small = abs(floats[-1]) <= tol * max(1.0, scale)
    routes["stabilized"] = small
    if small:
        return Verdict.HOLDS, routes
    if len(floats) >= 3 and floats[-3] > 0 and floats[-2] > 0:
        if floats[-1] <= theta * floats[-2] and floats[-2] <= theta * floats[-3]:
            routes["geometric_decay"] = True
            return Verdict.HOLDS, routes
    return Verdict.INCONCLUSIVE, routes


def column_scan(A, sched: TruncationSchedule, *,
                absolute: bool) -> tuple[list[tuple[int, Scalar]], int]:
    """Column statistics of the square truncations of the matrix ``A``.

    With ``absolute`` column k sums |A(n,k)| over the rows read so far;
    without, it keeps the peak of |A(1,k) + ... + A(n,k)| over n.  Rows
    are read in ascending order through ``A.row``, each up to its declared
    support (at most the max size), else up to the max size; zero entries
    change no column.  At each size s the trace takes the largest
    statistic over the columns k <= s, the first such k being the witness.
    Returns the trace and the witness column at the last size.
    """
    n_max = sched.max_size
    zero = A.zero()
    sums = [zero] * (n_max + 1)
    peak = sums if absolute else [zero] * (n_max + 1)
    sizes = set(sched.sizes)
    trace: list[tuple[int, Scalar]] = []
    col = 1
    for n in range(1, n_max + 1):
        for k, v in enumerate(A.row(n, min(A.extent(n, n_max), n_max)), 1):
            if v == 0:
                continue
            if absolute:
                sums[k] = sums[k] + abs(v)
            else:
                sums[k] = sums[k] + v
                mag = abs(sums[k])
                if mag > peak[k]:
                    peak[k] = mag
        if n in sizes:
            col = max(range(1, n + 1), key=peak.__getitem__)
            trace.append((n, peak[col]))
    return trace, col


# ---------------------------------------------------------------------------
# Sequence-space evidence
# ---------------------------------------------------------------------------


def space_evidence(x: LazySequence, sched: TruncationSchedule) -> ConditionVerdict:
    """Truncation evidence that ``x`` lies in cs, that is, that its series
    converges: at each size s the defect is the oscillation (max - min) of
    the partial sums over the last half of the window."""
    sums = list(accumulate(x.prefix(sched.max_size), initial=x.zero()))[1:]
    trace = []
    for s in sched.sizes:
        window = sums[s // 2: s]
        trace.append((s, max(window) - min(window)))
    scale = max(1.0, max((_to_float(abs(v)) for v in sums), default=1.0))
    status, routes = judge_trace([v for _, v in trace], StatKind.DEFECT, sched, scale=scale)
    return ConditionVerdict(status=status, trace=trace,
                            aux={"space": SpaceTag.CS.value, "routes": routes})
