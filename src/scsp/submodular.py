"""Submodularity checks and decomposition of tables into interval terms.

A binary table t is submodular when

    t(u, v) + t(x, y) <= t(u, y) + t(x, v)   for all u < x, v < y,

with the convention that inf > inf is false.  Every submodular table is a
pointwise sum of interval functions, each applied to one of four argument
patterns:

    "xy"  term(x, y)      "yx"  term(y, x)
    "xx"  term(x, x)      "yy"  term(y, y)

:func:`decompose_binary` computes such a sum with at most 2*M*(M+1) terms;
:func:`reconstruct` adds a term list back up.  The decomposition runs in
three stages, each written once, for rows; the column half of a stage is
the same code run on the transposed table, with "xx" terms read as "yy"
and "yx" terms as "xy":

1. strip *inconsistent* rows, then columns (all entries infinite): each
   yields an infinite diagonal term, and the line is overwritten with an
   adjacent consistent one so the remainder stays submodular;
2. strip *penalized* rows, then columns (all entries positive): each
   yields a diagonal term carrying the line minimum;
3. two peeling passes, by rows then by columns, each repeatedly locating
   the zero entry closest to the end of the current line and emitting the
   rectangle term that cancels the residual just after it.

Stage 3 keeps, per pass, a running array of finite amounts already peeled
from each position, so a line is only rewritten once, when it is finished.
An infinite term covers every unfinished line from its anchor on, so the
pass keeps just the first position so covered: the zero search stops short
of it, and each finished line must be infinite from there on and is zeroed
there.  After both passes the residual must be identically zero; anything
else raises DecompositionError.

Internally a table is scaled once by k, the lcm of its finite cells'
denominators, so a cell is a plain int, or None for infinity: the inner
loops run hot enough under decomposition-heavy workloads that the
arithmetic is done on raw ints, and an amount becomes ``Fraction(v, k)``
only where a term or a residual table is built.  Scaling by a positive k
keeps every comparison, so the check and the terms are those of the
unscaled table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add
from typing import NamedTuple

from .errors import (DecompositionError, DomainError, NotSubmodular,
                     ParameterError)
from .evaluation import INF, ZERO, Evaluation, frozen_slots
from .functions import (BinaryTable, IntervalFunction, UnaryTable, as_tuple,
                        check_integer, check_type)

PATTERNS = ("xy", "yx", "xx", "yy")


class SubmodularityWitness(NamedTuple):
    """A quadruple u < x, v < y with t(u,v) + t(x,y) > t(u,y) + t(x,v)."""

    u: int
    v: int
    x: int
    y: int


def _raw_grid(table: BinaryTable):
    """The table's cells times k as ints, None for infinity, and k, the lcm
    of the finite cells' denominators."""
    cells = [[v._value for v in row] for row in table.rows]
    k = lcm(*{f.denominator for row in cells for f in row if f is not None})
    return [[None if f is None else f.numerator * (k // f.denominator)
             for f in row] for row in cells], k


def _unscaled(v, k) -> Evaluation:
    """The Evaluation of a raw cell or amount ``v`` of a table scaled by k."""
    return Evaluation._make(None if v is None else Fraction(v, k))


def find_violation(table: BinaryTable) -> SubmodularityWitness | None:
    """A violating quadruple in O(M^2), or None.

    For finite tables, checking adjacent quadruples suffices (summing
    adjacent inequalities telescopes to the general one) and the witness
    returned is the lexicographically first adjacent violation.  Infinite
    entries break the telescoping, since an infinite middle term cannot be
    cancelled, so two more ingredients make the scan exact:

    * all-infinite rows and columns never participate in a violation (they
      put infinity on the greater side of the inequality), so adjacency is
      taken over the remaining lines;
    * an infinite cell with finite cells both somewhere right in its row
      and somewhere below in its column is itself a violation (the greater
      side is finite there), and likewise left-and-above.  Absent such
      cells, any quadruple of finite corners spans an entirely finite
      rectangle, and telescoping applies again.

    The scan order is fixed, so the witness is deterministic.
    """
    check_type("table", table, BinaryTable)
    m = table.m
    raw, _ = _raw_grid(table)
    row_first = [-1] * m
    row_last = [-1] * m
    col_first = [-1] * m
    col_last = [-1] * m
    for i in range(m):
        for j in range(m):
            if raw[i][j] is not None:
                if row_first[i] < 0:
                    row_first[i] = j
                row_last[i] = j
                if col_first[j] < 0:
                    col_first[j] = i
                col_last[j] = i
    rows = [i for i in range(m) if row_first[i] >= 0]
    cols = [j for j in range(m) if col_first[j] >= 0]
    for i in rows:
        line = raw[i]
        for j in cols:
            if line[j] is not None:
                continue
            if row_last[i] > j and col_last[j] > i:
                return SubmodularityWitness(i + 1, j + 1,
                                            col_last[j] + 1, row_last[i] + 1)
            if row_first[i] < j and col_first[j] < i:
                return SubmodularityWitness(col_first[j] + 1, row_first[i] + 1,
                                            i + 1, j + 1)
    for k in range(len(rows) - 1):
        upper, lower = raw[rows[k]], raw[rows[k + 1]]
        for l in range(len(cols) - 1):
            v, y = cols[l], cols[l + 1]
            c, d = upper[y], lower[v]
            if c is None or d is None:
                continue  # greater side infinite; nothing exceeds it
            a, b = upper[v], lower[y]
            if a is None or b is None or a + b > c + d:
                return SubmodularityWitness(rows[k] + 1, v + 1,
                                            rows[k + 1] + 1, y + 1)
    return None


def find_violation_full(table: BinaryTable) -> SubmodularityWitness | None:
    """Reference check over every quadruple, lexicographic in (u, v, x, y),
    on the unscaled Fraction cells."""
    check_type("table", table, BinaryTable)
    m = table.m
    raw = [[v._value for v in row] for row in table.rows]
    for u in range(1, m + 1):
        for v in range(1, m + 1):
            for x in range(u + 1, m + 1):
                for y in range(v + 1, m + 1):
                    c, d = raw[u - 1][y - 1], raw[x - 1][v - 1]
                    if c is None or d is None:
                        continue
                    a, b = raw[u - 1][v - 1], raw[x - 1][y - 1]
                    if a is None or b is None or a + b > c + d:
                        return SubmodularityWitness(u, v, x, y)
    return None


def is_submodular(table: BinaryTable) -> bool:
    return find_violation(table) is None


@frozen_slots
@dataclass(frozen=True, slots=True)
class IntervalTerm:
    """One summand of a decomposition: an interval function plus the
    argument pattern it is applied to."""

    interval: IntervalFunction
    pattern: str

    def __post_init__(self):
        if self.pattern not in PATTERNS:
            raise ParameterError(f"pattern must be one of {PATTERNS}")


@frozen_slots
@dataclass(frozen=True, slots=True)
class Decomposition:
    terms: tuple[IntervalTerm, ...]
    m: int


def term_table(term: IntervalTerm, m: int) -> BinaryTable:
    """Tabulate a single term as a function of (x, y)."""
    return reconstruct([term], m)


def reconstruct(terms, m: int) -> BinaryTable:
    """Pointwise sum of the terms, tabulated over (x, y) in 1..m squared.

    Each term adds its amount at the four corners of its rectangle in a
    difference grid, in ints scaled by the lcm of the finite amounts'
    denominators, or one count to a second grid of infinite coverage; the
    2-D prefix sums of the two grids are the table, in O(M^2 + terms).
    """
    terms = as_tuple("terms", terms)
    check_integer("m", m)
    for term in terms:
        check_type("term", term, IntervalTerm)
    k = lcm(*{t.interval.penalty._value.denominator for t in terms
              if not t.interval.penalty.is_infinite})
    amounts = [[0] * (m + 1) for _ in range(m + 1)]
    infinite = [[0] * (m + 1) for _ in range(m + 1)]
    for term in terms:
        f = term.interval
        if f.x_min > m or f.y_max > m:
            raise DomainError(
                f"interval bounds ({f.x_min}, {f.y_max}) exceed domain size {m}")
        if term.pattern in ("xy", "yx"):  # "xy" charges x >= x_min, y <= y_max
            rows, cols = (f.x_min - 1, m), (0, f.y_max)
        else:                             # "xx" charges x in [x_min, y_max]
            rows, cols = (f.x_min - 1, f.y_max), (0, m)
        if term.pattern[0] == "y":        # "yx", "yy": the same on (y, x)
            rows, cols = cols, rows
        (r0, r1), (c0, c1) = rows, cols
        if r0 >= r1 or c0 >= c1:
            continue                      # an empty diagonal interval
        p = f.penalty._value
        grid, w = ((infinite, 1) if p is None
                   else (amounts, p.numerator * (k // p.denominator)))
        grid[r0][c0] += w
        grid[r0][c1] -= w
        grid[r1][c0] -= w
        grid[r1][c1] += w
    return BinaryTable([[INF if n else Fraction(a, k) for a, n in zip(*pair)]
                        for pair in zip(_summed(amounts, m),
                                        _summed(infinite, m))])


def _summed(grid, m):
    """The 2-D prefix sums of a difference grid, over its first m rows and
    columns."""
    above = [0] * m
    sums = []
    for row in grid[:m]:
        above = list(map(add, above, itertools.accumulate(row[:m])))
        sums.append(above)
    return sums


def decompose_unary(table: UnaryTable) -> tuple[IntervalTerm, ...]:
    """A unary table is a sum of point terms, one per non-zero entry."""
    check_type("table", table, UnaryTable)
    return tuple(IntervalTerm(IntervalFunction(d, d, v), "xx")
                 for d, v in enumerate(table.values, 1) if v != ZERO)


def decompose_binary(table: BinaryTable) -> Decomposition:
    """Write a submodular table as a sum of interval terms.

    Raises NotSubmodular (with a witness) otherwise.
    """
    witness = find_violation(table)
    if witness is not None:
        raise NotSubmodular(witness)
    m = table.m
    grid, k = _raw_grid(table)
    terms = []  # (pattern, x_min, y_max, raw penalty)
    for stage in (_strip_inconsistent, _strip_penalized, _peel):
        stage(grid, m, terms)
        grid = _on_columns(stage, grid, m, terms)
    if any(v != 0 for row in grid for v in row):
        raise DecompositionError("nonzero residual after peeling")
    return Decomposition(tuple(
        IntervalTerm(IntervalFunction(a, b, _unscaled(v, k)), p)
        for p, a, b, v in terms), m)


_TRANSPOSED = {"xy": "yx", "yx": "xy", "xx": "yy", "yy": "xx"}


def _on_columns(stage, grid, m, terms):
    """Run a row stage on the transposed grid; terms and the returned grid
    are turned back to the original orientation."""
    flipped = [list(column) for column in zip(*grid)]
    column_terms = []
    stage(flipped, m, column_terms)
    terms.extend((_TRANSPOSED[p], a, b, v) for p, a, b, v in column_terms)
    return [list(row) for row in zip(*flipped)]


def _inconsistent(row):
    return all(v is None for v in row)


def _strip_inconsistent(grid, m, terms):
    """Overwrite each all-infinite row with an adjacent consistent one,
    emitting an infinite "xx" term for it: the rows above the first
    consistent row bottom-up, each from the row below, then every later
    one from the row above."""
    first = next((i for i in range(m) if not _inconsistent(grid[i])), None)
    if first is None:
        # The whole table is infinite; one blanket term covers it.
        terms.append(("xy", 1, m, None))
        for i in range(m):
            grid[i] = [0] * m
        return
    for i in range(first - 1, -1, -1):
        terms.append(("xx", i + 1, i + 1, None))
        grid[i] = list(grid[i + 1])
    for i in range(first + 1, m):
        if _inconsistent(grid[i]):
            terms.append(("xx", i + 1, i + 1, None))
            grid[i] = list(grid[i - 1])


def _strip_penalized(grid, m, terms):
    """Subtract each row's minimum, emitting an "xx" term for it.

    One sweep over rows and one over columns leave a zero in every line:
    subtracting a column's minimum never touches a column holding a zero.
    """
    for i in range(m):
        row = grid[i]
        mu = 0 if 0 in row else min((v for v in row if v is not None),
                                    default=None)
        if mu is None:
            raise DecompositionError("inconsistent line while stripping minima")
        if mu != 0:
            terms.append(("xx", i + 1, i + 1, mu))
            grid[i] = [None if v is None else v - mu for v in row]


def _peel(grid, m, terms):
    """The peeling pass over rows, bottom row first, emitting "yx" terms.

    A term emitted at (row, col) covers every row not yet finalized, so
    the finite amounts peeled so far are kept in ``taken`` and only applied
    to a row's stored entries once, when the row is done.  An infinite term
    lowers ``end``, the first column it covers, to its anchor: the zero search
    stops short of ``end``, and a finished row must be infinite from there on.
    """
    taken = [0] * m  # taken[j]: finite amount pending in column j
    end = m
    for i in range(m - 1, -1, -1):
        row = grid[i]
        while True:
            # the zero closest to end (None is never zero)
            j = end - 1
            while j >= 0 and row[j] != taken[j]:
                j -= 1
            if j == end - 1:
                break
            if j < 0:
                raise DecompositionError("no zero anchor while peeling")
            anchor = row[j + 1]
            if anchor is None:
                terms.append(("yx", j + 2, i + 1, None))
                end = j + 1
                break
            delta = anchor - taken[j + 1]
            if delta < 0:
                raise DecompositionError(
                    "peeled more than a cell holds; input cannot have "
                    "been submodular")
            terms.append(("yx", j + 2, i + 1, delta))
            for k in range(j + 1, end):
                taken[k] += delta
        if any(v is not None for v in row[end:]):
            raise DecompositionError("finite cell under an infinite term")
        row[end:] = [0] * (m - end)
        for k, v in enumerate(row[:end]):
            if v is not None:
                residual = v - taken[k]
                if residual < 0:
                    raise DecompositionError(
                        "peeled more than a cell holds; input cannot have "
                        "been submodular")
                row[k] = residual
