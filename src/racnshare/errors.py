"""The three errors racnshare raises, and the CLI exit code of each.

* ``InvalidParameterError`` -> exit 2: bad input, such as a parameter out
  of range, a bad labeling or fixture, too few or clashing shares, or a
  disconnected graph. It is also a ``ValueError``.
* ``BudgetExceededError`` -> exit 3: a search budget or size cap ran out.
* ``RacnShareError`` -> exit 2: the base of both, raised directly only when
  a simulated reconstruction recovers the wrong secret.
"""


class RacnShareError(Exception):
    """Base class for all racnshare errors."""


class InvalidParameterError(RacnShareError, ValueError):
    """The input is out of range, malformed or inconsistent."""


class BudgetExceededError(RacnShareError):
    """A search exceeded its budget, or an instance its size cap."""
