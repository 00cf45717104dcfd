"""Exception types shared across the package."""


class ScspError(Exception):
    """Base class for every error raised by this package."""


class DomainError(ScspError):
    """A domain value lies outside 1..M."""


class ScopeError(ScspError):
    """An assignment does not cover the instance's variables."""


class ParameterError(ScspError):
    """A constructor or function was called with an argument of the wrong
    kind or outside its legal range."""


class PenaltyError(ParameterError, ValueError, TypeError):
    """A value is not a penalty, neither a non-negative numbers.Rational
    (other than a bool) nor a token ``inf``, ``n`` or ``p/q``; or, as a
    builder's coefficient, it is infinite or a zero that is not allowed."""


class ApproximationBrokeSubmodularity(ScspError):
    """Rounding an irrational-valued table destroyed submodularity."""


class NotSubmodular(ScspError):
    """A binary table failed the submodularity check.

    Carries the violating quadruple and, when raised while compiling an
    instance, the index of the offending constraint.
    """

    def __init__(self, witness, constraint_index=None):
        self.witness = witness
        self.constraint_index = constraint_index
        where = "" if constraint_index is None else f"constraint {constraint_index}: "
        super().__init__(f"{where}violated at u={witness.u} v={witness.v} "
                         f"x={witness.x} y={witness.y}")


class IsSubmodular(ScspError):
    """The gadget needs a non-submodular table but was given a submodular one."""


class GadgetMismatch(ScspError):
    """The gadget's projection does not reproduce the target table."""


class TooLarge(ScspError):
    """A size guard tripped; the request would take too long or need too
    much memory."""


class CutMismatch(ScspError):
    """A minimum cut failed its optimality certificate, or its weight
    differs from the evaluation of the assignment read off it; indicates a
    bug."""


class DecompositionError(ScspError):
    """Internal invariant of the decomposition failed, such as a peel
    taking more than a cell holds from a table the check passed; indicates
    a bug."""


class ParseError(ScspError):
    """Malformed instance text; carries the 1-based line number."""

    def __init__(self, line, message):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}")
