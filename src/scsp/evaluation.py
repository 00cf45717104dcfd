"""Exact penalties: non-negative rationals extended with infinity.

Penalties aggregate by addition, and ``inf`` is absorbing: ``inf + e = inf``
for every ``e``.  They are totally ordered, with ``inf`` above every finite
value.  Finite values are exact fractions, so that sums and comparisons
over a whole instance never drift and an optimum is exact.
"""

from __future__ import annotations

import functools
import numbers
import re
import sys
from dataclasses import FrozenInstanceError, dataclass, fields
from fractions import Fraction

from .errors import PenaltyError


def frozen_slots(cls):
    """Mend the attribute guards of a ``dataclass(frozen=True, slots=True)``.

    The ``__setattr__`` and ``__delattr__`` that dataclasses generates name
    the class that ``slots=True`` then replaces, so setting or deleting a
    name that is not a field raises TypeError from ``super()``.  These
    refuse the fields with FrozenInstanceError and leave every other name
    to ``object``, which raises AttributeError on a slotted instance.
    """
    names = frozenset(f.name for f in fields(cls))

    def __setattr__(self, name, value):
        if name in names:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        if name in names:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        object.__delattr__(self, name)

    cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
    return cls


@frozen_slots
@functools.total_ordering
@dataclass(frozen=True, slots=True, init=False, eq=False, repr=False)
class Evaluation:
    """A penalty: an exact non-negative rational, or infinity.

    Instances are immutable and compare by value.  The infinite value is
    exposed as the module constant :data:`INF`; it is never encoded as a
    large number.  ``Evaluation(value)`` takes what :func:`as_evaluation`
    takes, an Evaluation aside.
    """

    _value: Fraction | None

    def __init__(self, value):
        object.__setattr__(self, "_value", _exact(value))

    @classmethod
    def _make(cls, fraction_or_none):
        # Internal fast path; skips the non-negativity re-check.
        e = object.__new__(cls)
        object.__setattr__(e, "_value", fraction_or_none)
        return e

    @property
    def is_infinite(self) -> bool:
        return self._value is None

    @property
    def is_zero(self) -> bool:
        return self._value == 0

    @property
    def fraction(self) -> Fraction:
        """The finite value as a Fraction; raises on the infinite value."""
        if self._value is None:
            raise ValueError("infinite evaluation has no finite value")
        return self._value

    def __add__(self, other):
        if not isinstance(other, Evaluation):
            return NotImplemented
        if self._value is None or other._value is None:
            return INF
        return Evaluation._make(self._value + other._value)

    def __eq__(self, other):
        if not isinstance(other, Evaluation):
            return NotImplemented
        return self._value == other._value

    def __lt__(self, other):
        if not isinstance(other, Evaluation):
            return NotImplemented
        if self._value is None:
            return False
        if other._value is None:
            return True
        return self._value < other._value

    def __hash__(self):
        # hash(float("inf")): unlike hash("inf"), the same in every process
        return sys.hash_info.inf if self._value is None else hash(self._value)

    def __str__(self):
        return "inf" if self._value is None else str(self._value)

    def __repr__(self):
        return f"Evaluation({self})"


INF = Evaluation._make(None)
ZERO = Evaluation._make(Fraction(0))


# the file format's penalty token, in ASCII digits
_TOKEN = re.compile(r"inf|[0-9]+(/[0-9]+)?")


def _exact(value) -> Fraction | None:
    """The exact value of a penalty, None for infinity: a numbers.Rational
    other than a bool, or a token ``inf``, ``n`` or ``p/q``.  PenaltyError
    for anything else and for a negative value."""
    if isinstance(value, str):
        if not _TOKEN.fullmatch(value):
            raise PenaltyError(f"bad evaluation {value!r}; "
                               "use an integer, p/q, or inf")
        if value == "inf":
            return None
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise PenaltyError(f"bad evaluation {value!r}; "
                               "zero denominator") from None
        except ValueError:  # more digits than int() converts
            raise PenaltyError("bad evaluation; too many digits") from None
    if not isinstance(value, numbers.Rational) or isinstance(value, bool):
        raise PenaltyError(f"refusing {type(value).__name__}; pass a "
                           "non-negative rational or a token such as 7, "
                           "3/4 or inf")
    f = Fraction(value)
    if f < 0:
        raise PenaltyError("penalties must be non-negative")
    return f


def as_evaluation(value) -> Evaluation:
    """The one gate for a penalty value: an Evaluation as it is, else a
    non-negative ``numbers.Rational`` that is not a bool, or a token of the
    file format, ``inf``, ``n`` or ``p/q`` in ASCII digits, made into an
    Evaluation.  Everything else raises PenaltyError: floats (the library
    is exact, and a caller holding a float should decide for itself how to
    rationalize it), bools, other strings, negative values, zero
    denominators and tokens too long to convert.
    """
    if isinstance(value, Evaluation):
        return value
    f = _exact(value)
    return INF if f is None else Evaluation._make(f)


def exact_coefficient(name: str, value, allow_zero: bool = False) -> Evaluation:
    """``value`` through :func:`as_evaluation`, as a builder's coefficient:
    PenaltyError, naming the coefficient, for a value the gate refuses,
    infinity, or zero unless ``allow_zero``."""
    try:
        e = as_evaluation(value)
    except PenaltyError:
        e = None
    if e is None or e.is_infinite or (e.is_zero and not allow_zero):
        kind = "non-negative" if allow_zero else "positive"
        raise PenaltyError(f"{name} must be an exact finite {kind} "
                           f"rational, got {value!r}")
    return e
