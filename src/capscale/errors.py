"""Exception types shared across the toolkit, and the rule for echoing a value in their messages."""

import reprlib

# Values echoed in messages are cut to one short line (see shown).
_ECHO = reprlib.Repr()
_ECHO.maxlevel, _ECHO.maxdict, _ECHO.maxlist, _ECHO.maxtuple = 3, 4, 16, 16
_ECHO.maxstring = _ECHO.maxlong = _ECHO.maxother = 60


class ValidationError(ValueError):
    """An input violates a documented precondition (shape, domain, budget)."""


class NumericalError(RuntimeError):
    """A computation produced non-finite values or failed to converge."""


def shown(value) -> str:
    """value's repr for an error message, at most 60 characters.

    reprlib reads only the start of a long string, list or number, so a
    value of any size costs little to show and an error stays one short
    line; a short value reads as its repr.
    """
    text = _ECHO.repr(value)
    return text if len(text) <= 60 else text[:56] + " ..."
