"""Exception hierarchy shared across the package.

Two families matter to callers (and to the CLI exit-code mapping):

* :class:`InputError` -- the caller handed us something malformed or outside
  an operation's stated domain (bad syntax, zero polynomial where an order is
  required, inconsistent resolution data, ...).  CLI exit code 2.
* :class:`EngineError` -- the input was fine but an engine hit a diagnostic
  condition (iteration cap, an arithmetic identity that must hold failed).
  CLI exit code 3.
"""

from __future__ import annotations


class InputError(ValueError):
    """Invalid user-supplied data or a violated operation precondition."""


class ParseError(InputError):
    """Syntax error in a polynomial expression, with a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class ZeroPolynomialError(InputError):
    """An operation that is undefined for the zero polynomial received it."""


class EngineError(RuntimeError):
    """An engine-side diagnostic; the input may still be meaningful."""


class IterationLimitError(EngineError):
    """A reduction/completion loop exceeded its configured step budget."""


class ConventionViolationError(EngineError):
    """Inconsistent invariant data: an identity that must hold did not.

    Raised e.g. when assembling a characteristic polynomial from a zeta
    function and a Milnor number that do not belong together.
    """
