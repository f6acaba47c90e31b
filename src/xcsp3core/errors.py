"""Exception families and the 64-bit integer guard.

Every failure mode has its own class so callers can react per family:
ParseError subclasses abort reading an instance, EvalError subclasses
abort evaluating expressions or conditions, CheckError subclasses abort
verifying a candidate solution, SolverError subclasses abort search.
"""

from __future__ import annotations

from typing import Optional

INT_MIN = -(2**63)
INT_MAX = 2**63 - 1


class XcspError(Exception):
    """Base class for everything raised by this package."""


class ParseError(XcspError):
    """Invalid instance text. Carries an element path and the violated rule."""

    def __init__(self, message: str, path: Optional[str] = None, rule: Optional[str] = None):
        self.message = message
        self.path = path
        self.rule = rule
        super().__init__(message)

    def __str__(self) -> str:
        parts = []
        if self.path:
            parts.append(f"{self.path}: ")
        parts.append(self.message)
        if self.rule:
            parts.append(f" [rule: {self.rule}]")
        return "".join(parts)


# -- expression / token level -------------------------------------------------

class ExprSyntaxError(ParseError):
    """Malformed functional expression. Records the byte offset of the fault."""

    def __init__(self, message: str, offset: int, path: Optional[str] = None,
                 rule: Optional[str] = None):
        super().__init__(f"{message} (offset {offset})", path=path, rule=rule)
        self.offset = offset


class WhitespaceError(ExprSyntaxError):
    """Whitespace where the format forbids it (expressions, conditions, tuples)."""

    def __init__(self, message: str, offset: int, path: Optional[str] = None,
                 rule: str = "whitespace"):
        super().__init__(message, offset, path=path, rule=rule)


class ArityError(ExprSyntaxError):
    """Operator applied to the wrong number of arguments."""


# -- template substitution ----------------------------------------------------

class MissingArgument(ParseError):
    """A template parameter %k has no matching argument."""


class RestInsideExpression(ParseError):
    """%... may only stand in an argument sequence, never inside an expression."""


# -- token errors --------------------------------------------------------------

class MalformedCompactToken(ParseError):
    """Bad vxk token or bad compact array reference."""


class UnknownArray(ParseError):
    pass


class IndexOutOfBounds(ParseError):
    pass


class MatrixContextError(ParseError):
    """A matrix slot needs a token selecting a 2-dimensional grid."""


class OutOfOrder(ParseError):
    """Domain values/intervals not strictly increasing."""


class MalformedInterval(ParseError):
    pass


# -- document-level parse errors ----------------------------------------------

class BadFramework(ParseError):
    pass


class DuplicateId(ParseError):
    pass


class UnknownElement(ParseError):
    """Element, attribute or feature outside the core subset."""


class MissingVariables(ParseError):
    pass


class ObjectiveCountError(ParseError):
    pass


class BadSize(ParseError):
    pass


class OverlappingFor(ParseError):
    pass


class MisplacedOthers(ParseError):
    pass


class UnknownAliasTarget(ParseError):
    pass


class ForwardAlias(ParseError):
    pass


class TransitiveAlias(ParseError):
    pass


class AliasOnForbiddenElement(ParseError):
    pass


class ArityMismatch(ParseError):
    """Group argument count does not match the template's parameter count."""


class RestInSlide(ParseError):
    pass


class TemplateNotCore(ParseError):
    """Slide templates must be intension or extension."""


class LengthMismatch(ParseError):
    pass


# -- evaluation ----------------------------------------------------------------

class EvalError(XcspError):
    pass


class UnboundVariable(EvalError):
    pass


class DivisionByZero(EvalError):
    pass


class NegativeExponent(EvalError):
    pass


class Overflow(EvalError):
    """Result leaves the signed 64-bit range; never wrapped silently."""


class UnresolvedOperand(EvalError):
    """Condition operand refers to an unassigned (or wildcard) variable."""


# -- solution checking ----------------------------------------------------------

class CheckError(XcspError):
    pass


class StarInScope(CheckError):
    """A wildcard value reached a constraint scope during a full check."""


class UnknownVariable(CheckError):
    pass


class ValueOutsideDomain(CheckError):
    pass


class CostMismatch(CheckError):
    pass


# -- search ----------------------------------------------------------------------

class SolverError(XcspError):
    pass


class UnforcedVariable(SolverError):
    """restrict_to_decision requires non-decision variables to be forced."""


def check_int64(value: int, context: str = "arithmetic") -> int:
    """Reject values outside the signed 64-bit range."""
    if value < INT_MIN or value > INT_MAX:
        raise Overflow(f"{context}: {value} leaves the 64-bit integer range")
    return value
