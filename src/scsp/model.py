"""Problem instances: variables, an ordered domain 1..M, soft constraints.

An assignment maps every variable to a domain value; its evaluation is the
sum of the constraint penalties, with infinity absorbing.  Solving means
finding an assignment of minimum evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from .errors import ParameterError, ScopeError
from .evaluation import ZERO, Evaluation, frozen_slots
from .functions import (BinaryTable, IntervalFunction, UnaryTable,
                        check_integer, check_value)

ConstraintFunction = Union[UnaryTable, BinaryTable, IntervalFunction]

Assignment = Mapping[str, int]


def name_set(variables: tuple) -> set:
    """The variable names as a set; ParameterError unless they are
    hashable and distinct."""
    try:
        names = set(variables)
    except TypeError:
        raise ParameterError("variable names must be hashable") from None
    if len(names) != len(variables):
        raise ParameterError("variable names must be unique")
    return names


@frozen_slots
@dataclass(frozen=True, slots=True)
class SoftConstraint:
    """A scope of one or two variables plus a penalty function over it.

    Unary tables take a single-variable scope; binary tables and interval
    functions take a two-variable scope, whose variables may coincide.
    """

    scope: tuple[str, ...]
    function: ConstraintFunction

    def __post_init__(self):
        if isinstance(self.scope, str):
            raise ParameterError(f"scope must not be a str, got {self.scope!r}")
        object.__setattr__(self, "scope", tuple(self.scope))
        arity = 1 if isinstance(self.function, UnaryTable) else 2
        if not isinstance(self.function,
                          (UnaryTable, BinaryTable, IntervalFunction)):
            raise ParameterError(
                f"unsupported constraint function {type(self.function).__name__}")
        if len(self.scope) != arity:
            raise ScopeError(
                f"scope {self.scope} has arity {len(self.scope)}, "
                f"function needs {arity}")


@frozen_slots
@dataclass(frozen=True, slots=True)
class Instance:
    """An ordered set of variables, a domain size, and soft constraints."""

    variables: tuple[str, ...]
    domain_size: int
    constraints: tuple[SoftConstraint, ...]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        m = self.domain_size
        check_integer("domain size", m)
        declared = name_set(self.variables)
        if any(not v for v in self.variables):
            raise ParameterError("variable names must be non-empty")
        for index, c in enumerate(self.constraints):
            if not isinstance(c, SoftConstraint):
                raise ParameterError(f"constraint {index} is a "
                                     f"{type(c).__name__}, not a SoftConstraint")
            for v in c.scope:
                if v not in declared:
                    raise ScopeError(f"constraint mentions undeclared variable {v!r}")
            f = c.function
            if isinstance(f, (UnaryTable, BinaryTable)) and f.m != m:
                raise ParameterError(
                    f"table over 1..{f.m} does not match domain size {m}")
            if isinstance(f, IntervalFunction) and (f.x_min > m or f.y_max > m):
                raise ParameterError(
                    f"interval bounds ({f.x_min}, {f.y_max}) exceed domain size {m}")


def check_assignment(instance: Instance, assignment: Assignment) -> None:
    """Raise unless the assignment covers every variable with an in-range value."""
    for v in instance.variables:
        if v not in assignment:
            raise ScopeError(f"assignment missing variable {v!r}")
        check_value(v, assignment[v], instance.domain_size)


def evaluate(instance: Instance, assignment: Assignment) -> Evaluation:
    """Total penalty of the assignment: the sum over all constraints.

    Each function is read as ``value_at`` of its scope's values; one that
    does not charge the assignment usually returns the shared ZERO, which
    is skipped rather than added.
    """
    check_assignment(instance, assignment)
    total = ZERO
    for c in instance.constraints:
        s, f = c.scope, c.function
        value = (f.value_at(assignment[s[0]]) if len(s) == 1
                 else f.value_at(assignment[s[0]], assignment[s[1]]))
        if value is not ZERO:
            total = total + value
    return total
