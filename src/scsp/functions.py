"""Penalty functions over an ordered domain 1..M.

Three representations are used throughout the package:

* :class:`UnaryTable` and :class:`BinaryTable`, explicit tables of exact
  penalties;
* :class:`IntervalFunction`, the two-parameter step function

      f(x, y) = 0        if x < x_min or y > y_max,
               penalty   otherwise,

  which is the building block every submodular table decomposes into.
  Read on the diagonal (x = y) it charges exactly inside the interval
  [x_min, y_max], hence the ``gi`` (generalized interval) keyword in the
  file format.  x_min > y_max is legal and gives an empty diagonal.

The module also provides builders for the common penalty shapes used in
modelling: powers of differences, crisp relations, arithmetic comparisons,
and a few small named tables.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import isqrt
from operator import attrgetter

from .errors import (ApproximationBrokeSubmodularity, DomainError,
                     ParameterError)
from .evaluation import (INF, ZERO, Evaluation, as_evaluation,
                         exact_coefficient, frozen_slots)


@frozen_slots
@dataclass(frozen=True, slots=True)
class IntervalFunction:
    """Charges ``penalty`` unless x < x_min or y > y_max."""

    x_min: int
    y_max: int
    penalty: Evaluation

    def __post_init__(self):
        # not check_integer, as one is built per term; False fails x < 1
        x, y = self.x_min, self.y_max
        if not (isinstance(x, int) and isinstance(y, int)) or (
                x is True or y is True) or x < 1 or y < 1:
            raise ParameterError(f"interval bounds ({x!r}, {y!r}) must be "
                                 "integers of at least 1")
        object.__setattr__(self, "penalty", as_evaluation(self.penalty))

    def value_at(self, x: int, y: int) -> Evaluation:
        # check_value inlined for evaluate's speed; Instance bounds x, y by M
        if not (isinstance(x, int) and isinstance(y, int)) or (
                x is True or y is True) or x < 1 or y < 1:
            raise DomainError(f"arguments ({x!r}, {y!r}) outside the domain")
        return ZERO if x < self.x_min or y > self.y_max else self.penalty


_exact_value = attrgetter("_value")  # an Evaluation's Fraction, None for inf


def _cells_hash(cells) -> int:
    """A table's hash: each cell's numerator and denominator, which equal
    cells share (a Fraction is kept in lowest terms), and
    ``sys.hash_info.inf`` for an infinite cell, since ``hash(None)``
    differs between processes before Python 3.12 and the cached hash is
    pickled with the table.  The pure-Python ``Fraction.__hash__`` is
    never called."""
    return hash(tuple(sys.hash_info.inf if f is None else f.as_integer_ratio()
                      for f in map(_exact_value, cells)))


@frozen_slots
@dataclass(frozen=True, slots=True)
class UnaryTable:
    """Explicit penalty table for one variable; entry d is the cost of d."""

    values: tuple[Evaluation, ...]
    _hash: int | None = field(default=None, init=False, repr=False,
                              compare=False)  # computed on first use

    def __post_init__(self):
        vals = tuple(map(as_evaluation,
                         as_tuple("unary table values", self.values)))
        if not vals:
            raise ParameterError("unary table needs at least one entry")
        object.__setattr__(self, "values", vals)

    @property
    def m(self) -> int:
        return len(self.values)

    def value_at(self, d: int) -> Evaluation:
        check_value("d", d, self.m)
        return self.values[d - 1]

    @classmethod
    def from_function(cls, m, fn):
        return cls([fn(d) for d in range(1, m + 1)])

    def __add__(self, other):
        if not isinstance(other, UnaryTable) or other.m != self.m:
            return NotImplemented
        return UnaryTable([a + b for a, b in zip(self.values, other.values)])

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", _cells_hash(self.values))
        return self._hash

    def __repr__(self):
        return f"UnaryTable([{', '.join(str(v) for v in self.values)}])"


@frozen_slots
@dataclass(frozen=True, slots=True)
class BinaryTable:
    """Explicit penalty table for a pair of variables, M rows by M columns.

    Row index is the first argument, column index the second, both 1-based
    through :meth:`value_at`.
    """

    rows: tuple[tuple[Evaluation, ...], ...]
    _hash: int | None = field(default=None, init=False, repr=False,
                              compare=False)  # computed on first use

    def __post_init__(self):
        grid = tuple(
            tuple(map(as_evaluation, as_tuple("binary table row", row)))
            for row in as_tuple("binary table rows", self.rows))
        if not grid:
            raise ParameterError("binary table needs at least one row")
        m = len(grid)
        if any(len(row) != m for row in grid):
            raise ParameterError("binary table must be square")
        object.__setattr__(self, "rows", grid)

    @property
    def m(self) -> int:
        return len(self.rows)

    def value_at(self, x: int, y: int) -> Evaluation:
        check_value("x", x, self.m)
        check_value("y", y, self.m)
        return self.rows[x - 1][y - 1]

    @classmethod
    def from_function(cls, m, fn):
        return cls([[fn(x, y) for y in range(1, m + 1)]
                    for x in range(1, m + 1)])

    def __add__(self, other):
        if not isinstance(other, BinaryTable) or other.m != self.m:
            return NotImplemented
        return BinaryTable([[a + b for a, b in zip(ra, rb)]
                            for ra, rb in zip(self.rows, other.rows)])

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash",
                               _cells_hash(chain.from_iterable(self.rows)))
        return self._hash

    def __repr__(self):
        body = " / ".join(" ".join(str(v) for v in row) for row in self.rows)
        return f"BinaryTable({body})"


def check_integer(name: str, value, allow_zero: bool = False) -> None:
    """ParameterError unless ``value`` is an int, not a bool, of at least 1
    (at least 0 with ``allow_zero``): the package's integer check."""
    if (not isinstance(value, int) or isinstance(value, bool)
            or value < (0 if allow_zero else 1)):
        kind = "non-negative" if allow_zero else "positive"
        raise ParameterError(f"{name} must be a {kind} integer, got {value!r}")


def check_type(name: str, value, kind: type) -> None:
    """ParameterError unless ``value`` is a ``kind``."""
    if not isinstance(value, kind):
        raise ParameterError(f"{name} must be of type {kind.__name__}, "
                             f"not {type(value).__name__}")


def as_tuple(name: str, value) -> tuple:
    """``value`` as a tuple; ParameterError for a str, which would be read
    as its characters, and for anything that is not iterable."""
    if isinstance(value, str):
        raise ParameterError(f"{name} must not be a str, got {value!r}")
    try:
        items = iter(value)
    except TypeError:
        raise ParameterError(f"{name} must be iterable, not "
                             f"{type(value).__name__}") from None
    return tuple(items)


def check_value(name: str, value, m: int) -> None:
    """DomainError unless ``value`` is an int, not a bool, in 1..m."""
    if not isinstance(value, int) or value is True or not 1 <= value <= m:
        raise DomainError(f"{name} = {value!r} is not an integer in 1..{m}")


def abs_diff(m: int, r: int = 1) -> BinaryTable:
    """|x - y| ** r; prefers the two values as close as possible."""
    check_integer("domain size", m)
    check_integer("exponent", r)
    return BinaryTable.from_function(m, lambda x, y: abs(x - y) ** r)


def excess(m: int, r: int = 1) -> BinaryTable:
    """max(x - y, 0) ** r; charges only for x exceeding y."""
    check_integer("domain size", m)
    check_integer("exponent", r)
    return BinaryTable.from_function(m, lambda x, y: max(x - y, 0) ** r)


def delay(m: int, r: int = 1) -> BinaryTable:
    """(x - y) ** r for x >= y, infinite otherwise.

    Models "x happens at or after y, as soon as possible".
    """
    check_integer("domain size", m)
    check_integer("exponent", r)
    return BinaryTable.from_function(
        m, lambda x, y: (x - y) ** r if x >= y else INF)


def linear(m: int, a, b, c) -> BinaryTable:
    """a*x + b*y + c with non-negative rational coefficients."""
    check_integer("domain size", m)
    fa = exact_coefficient("a", a, allow_zero=True).fraction
    fb = exact_coefficient("b", b, allow_zero=True).fraction
    fc = exact_coefficient("c", c, allow_zero=True).fraction
    return BinaryTable.from_function(m, lambda x, y: fa * x + fb * y + fc)


def product_complement(m: int) -> BinaryTable:
    """m**2 - x*y; prefers both coordinates large.

    Submodular, yet its decomposition needs on the order of m**2 interval
    terms, which makes it the stock example of a dense table.
    """
    check_integer("domain size", m)
    return BinaryTable.from_function(m, lambda x, y: m * m - x * y)


def euclidean_rounded(m: int, denom: int = 1) -> BinaryTable:
    """sqrt(x**2 + y**2) rounded to the nearest multiple of 1/denom.

    The exact value is irrational for most cells, so the table stores the
    closest rational with the requested denominator (ties round up).  The
    rounded table is re-checked for submodularity; if rounding destroyed
    it, ApproximationBrokeSubmodularity is raised.
    """
    check_integer("domain size", m)
    check_integer("denominator", denom)

    def cell(x, y):
        # nearest n to denom*sqrt(x^2+y^2): compare 4*t with (2*floor+1)^2
        t = denom * denom * (x * x + y * y)
        f = isqrt(t)
        n = f if 4 * t < (2 * f + 1) ** 2 else f + 1
        return Fraction(n, denom)

    table = BinaryTable.from_function(m, cell)
    from .submodular import find_violation
    witness = find_violation(table)
    if witness is not None:
        raise ApproximationBrokeSubmodularity(
            f"rounding to 1/{denom} broke submodularity at {witness}")
    return table


def crisp_relation(m: int, arity: int, allowed) -> UnaryTable | BinaryTable:
    """Zero on the allowed tuples, infinite elsewhere."""
    check_integer("domain size", m)
    check_integer("arity", arity)
    if arity > 2:
        raise ParameterError(f"arity must be 1 or 2, got {arity}")
    tuples = set()
    for item in allowed:
        tup = tuple(item) if hasattr(item, "__iter__") else (item,)
        if len(tup) != arity:
            raise ParameterError(f"tuple {tup} does not have arity {arity}")
        for d in tup:
            check_value("tuple entry", d, m)
        tuples.add(tup)
    if arity == 1:
        return UnaryTable.from_function(
            m, lambda d: ZERO if (d,) in tuples else INF)
    return BinaryTable.from_function(
        m, lambda x, y: ZERO if (x, y) in tuples else INF)


ARITH_KINDS = ("neq_const", "eq", "leq", "geq")


def arith_relation(m: int, kind: str, a, b=0, c=0) -> UnaryTable | BinaryTable:
    """Crisp arithmetic comparisons with rational coefficients.

    kind "neq_const" is unary, allowing a*x != b; the binary kinds allow
    a*x == b*y + c, a*x <= b*y + c, and a*x >= b*y + c respectively.
    Requires a > 0 and b, c >= 0.
    """
    check_integer("domain size", m)
    if kind not in ARITH_KINDS:
        raise ParameterError(f"kind must be one of {ARITH_KINDS}, got {kind!r}")
    fa = exact_coefficient("a", a).fraction
    fb = exact_coefficient("b", b, allow_zero=True).fraction
    fc = exact_coefficient("c", c, allow_zero=True).fraction
    if kind == "neq_const":
        return UnaryTable.from_function(
            m, lambda x: ZERO if fa * x != fb else INF)
    test = {"eq": lambda l, r: l == r,
            "leq": lambda l, r: l <= r,
            "geq": lambda l, r: l >= r}[kind]
    return BinaryTable.from_function(
        m, lambda x, y: ZERO if test(fa * x, fb * y + fc) else INF)


def xor_penalty() -> BinaryTable:
    """On domain {1, 2}: free when x != y, one unit when x == y.

    The smallest non-submodular table; its witness quadruple is
    (1, 1, 2, 2).
    """
    return BinaryTable([[1, 0], [0, 1]])


def equality_penalty(m: int) -> BinaryTable:
    """One unit unless x == y.  Not submodular for m >= 3."""
    check_integer("domain size", m)
    return BinaryTable.from_function(m, lambda x, y: 0 if x == y else 1)


def centered_square(m: int, i: int) -> UnaryTable:
    """(x - i/2) ** 2; draws the variable toward i/2."""
    check_integer("domain size", m)
    check_integer("center parameter", i, allow_zero=True)
    half = Fraction(i, 2)
    return UnaryTable.from_function(m, lambda x: (x - half) ** 2)
