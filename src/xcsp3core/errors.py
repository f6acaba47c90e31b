"""Exception families and the 64-bit integer guard.

A class exists only where a caller or an exit code tells it apart:
ParseError aborts reading an instance (exit 2) and names the violated
rule, which is what tells one parse failure from another; UnknownElement
is the one the lenient reader catches. EvalError aborts evaluating
expressions or conditions (exit 4), and its subclasses keep the kind of
undefined arithmetic. CheckError aborts verifying a candidate solution
(exit 10 from check), and UnforcedVariable aborts a search restricted to
the decision variables (exit 5).
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


class UnknownElement(ParseError):
    """Element, attribute or feature outside the core subset."""


# -- evaluation ----------------------------------------------------------------

class EvalError(XcspError):
    pass


class UnboundVariable(EvalError):
    """An operand's variable is unassigned (or a wildcard)."""


class DivisionByZero(EvalError):
    pass


class NegativeExponent(EvalError):
    pass


class Overflow(EvalError):
    """Result leaves the signed 64-bit range; never wrapped silently."""


# -- solution checking and search ------------------------------------------------

class CheckError(XcspError):
    pass


class UnforcedVariable(XcspError):
    """restrict_to_decision requires non-decision variables to be forced."""


def check_int64(value: int, context: str = "arithmetic") -> int:
    """Reject values outside the signed 64-bit range."""
    if value < INT_MIN or value > INT_MAX:
        raise Overflow(f"{context}: {value} leaves the 64-bit integer range")
    return value
