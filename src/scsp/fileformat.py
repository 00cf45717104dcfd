"""Reading and writing the line-oriented instance format.

    scsp 1                      header, first content line
    domain M                    once, before any constraint
    var <name>                  one per variable, order is significant
    unary <v> e1 .. eM
    binary <v> <w> e11 .. e1M / e21 .. / .. eMM
    gi <v> <w> a b rho          penalty rho unless t(v) < a or t(w) > b

Tokens are whitespace-separated; ``#`` starts a comment.  Evaluations are
decimal integers, ``p/q`` rationals, or ``inf``; numbers use the ASCII
digits 0-9 only.  parse(format_instance(inst)) == inst when each variable
name is a str token without ``#``; format_instance refuses other names.
"""

from __future__ import annotations

import re

from .errors import ParameterError, ParseError, PenaltyError
from .evaluation import Evaluation, as_evaluation
from .functions import BinaryTable, IntervalFunction, UnaryTable, check_type
from .model import Instance, SoftConstraint

_NATURAL = re.compile(r"[0-9]+")


def _parse_natural(token: str, lineno: int, message: str) -> int:
    """A decimal integer in ASCII digits; anything else raises ParseError."""
    if _NATURAL.fullmatch(token):
        try:
            return int(token)
        except ValueError:  # more digits than int() converts
            pass
    raise ParseError(lineno, message)


def _parse_evaluation(token: str, lineno: int) -> Evaluation:
    try:
        return as_evaluation(token)
    except PenaltyError as err:
        raise ParseError(lineno, str(err)) from None


def parse_instance(text: str) -> Instance:
    check_type("text", text, str)
    header_done = False
    m = None
    variables: list[str] = []
    declared: set[str] = set()
    constraints: list[SoftConstraint] = []
    last_line = 1
    # token -> Evaluation for each valid token seen so far; Evaluations are
    # immutable, so every later copy of a token shares the first one's value
    evaluations: dict[str, Evaluation] = {}

    # (directive, body tokens) -> table for each valid table line so far;
    # tables are immutable, so every repeated line shares the first's object
    tables: dict[tuple, UnaryTable | BinaryTable] = {}

    def evaluation(token, lineno):
        value = evaluations.get(token)
        if value is None:
            value = evaluations[token] = _parse_evaluation(token, lineno)
        return value

    def known_variable(name, lineno):
        if name not in declared:
            raise ParseError(lineno, f"undeclared variable {name!r}")
        return name

    def need_domain(lineno):
        if m is None:
            raise ParseError(lineno, "domain must be declared before constraints")
        return m

    for lineno, raw in enumerate(text.splitlines(), 1):
        last_line = lineno
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if not header_done:
            if tokens != ["scsp", "1"]:
                raise ParseError(lineno, "expected header 'scsp 1'")
            header_done = True
            continue
        keyword = tokens[0]
        if keyword == "scsp":
            raise ParseError(lineno, "duplicate header")
        elif keyword == "domain":
            if m is not None:
                raise ParseError(lineno, "duplicate domain line")
            message = "domain takes one positive integer"
            m = (_parse_natural(tokens[1], lineno, message)
                 if len(tokens) == 2 else 0)
            if m < 1:
                raise ParseError(lineno, message)
        elif keyword == "var":
            if len(tokens) != 2:
                raise ParseError(lineno, "var takes exactly one name")
            name = tokens[1]
            if name in declared:
                raise ParseError(lineno, f"duplicate variable {name!r}")
            declared.add(name)
            variables.append(name)
        elif keyword == "unary":
            size = need_domain(lineno)
            if len(tokens) != 2 + size:
                raise ParseError(lineno,
                                 f"unary takes a variable and {size} evaluations")
            v = known_variable(tokens[1], lineno)
            key = (keyword, tuple(tokens[2:]))
            table = tables.get(key)
            if table is None:
                values = [evaluation(t, lineno) for t in tokens[2:]]
                table = tables[key] = UnaryTable(values)
            constraints.append(SoftConstraint((v,), table))
        elif keyword == "binary":
            size = need_domain(lineno)
            if len(tokens) < 3:
                raise ParseError(lineno, "binary takes two variables and a table")
            v = known_variable(tokens[1], lineno)
            w = known_variable(tokens[2], lineno)
            key = (keyword, tuple(tokens[3:]))
            table = tables.get(key)
            if table is None:
                rows: list[list[Evaluation]] = [[]]
                for t in tokens[3:]:
                    if t == "/":
                        rows.append([])
                    else:
                        rows[-1].append(evaluation(t, lineno))
                if len(rows) != size or any(len(r) != size for r in rows):
                    raise ParseError(lineno, f"binary table must have {size} "
                                     f"rows of {size} entries separated by '/'")
                table = tables[key] = BinaryTable(rows)
            constraints.append(SoftConstraint((v, w), table))
        elif keyword == "gi":
            size = need_domain(lineno)
            if len(tokens) != 6:
                raise ParseError(lineno, "gi takes two variables, two bounds, "
                                 "and a penalty")
            v = known_variable(tokens[1], lineno)
            w = known_variable(tokens[2], lineno)
            bounds = []
            for t in tokens[3:5]:
                bound = _parse_natural(t, lineno, f"bad interval bound {t!r}")
                if not 1 <= bound <= size:
                    raise ParseError(lineno,
                                     f"interval bound {bound} outside 1..{size}")
                bounds.append(bound)
            penalty = evaluation(tokens[5], lineno)
            constraints.append(SoftConstraint(
                (v, w), IntervalFunction(bounds[0], bounds[1], penalty)))
        else:
            raise ParseError(lineno, f"unknown directive {keyword!r}")

    if not header_done:
        raise ParseError(1, "missing header 'scsp 1'")
    if m is None:
        raise ParseError(last_line, "missing domain line")
    return Instance(tuple(variables), m, tuple(constraints))


def format_constraint(constraint: SoftConstraint) -> str:
    """One constraint's line, without the newline."""
    f = constraint.function
    if isinstance(f, UnaryTable):
        body = " ".join(str(v) for v in f.values)
        return f"unary {constraint.scope[0]} {body}"
    if isinstance(f, BinaryTable):
        body = " / ".join(" ".join(str(v) for v in row) for row in f.rows)
        return f"binary {constraint.scope[0]} {constraint.scope[1]} {body}"
    return (f"gi {constraint.scope[0]} {constraint.scope[1]} "
            f"{f.x_min} {f.y_max} {f.penalty}")


def format_instance(instance: Instance) -> str:
    """Canonical text for an instance; inverse of :func:`parse_instance`."""
    check_type("instance", instance, Instance)
    for v in instance.variables:
        if not (isinstance(v, str) and v.split() == [v] and "#" not in v):
            raise ParameterError(f"variable name {v!r} cannot round-trip")
    lines = ["scsp 1", f"domain {instance.domain_size}"]
    lines.extend(f"var {v}" for v in instance.variables)
    lines.extend(format_constraint(c) for c in instance.constraints)
    return "".join(line + "\n" for line in lines)
