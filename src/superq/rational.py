"""Exact rational arithmetic.

Every coefficient in this package is an exact ``fractions.Fraction``:
always in lowest terms, rendered as ``a/b`` with a positive denominator or
as a bare ``a`` when the denominator is 1.  ``rat`` is ``Fraction`` itself:
``rat(value)`` and ``rat(value, den)`` build a rational from ints, strings
like ``-4/3`` or rationals.
"""

import re
import sys
from fractions import Fraction as Rat

BACKEND = "fractions"

ZERO = Rat(0)
ONE = Rat(1)
rat = Rat

_LITERAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def rat_str(q) -> str:
    """Canonical rendering: ``a/b`` with b > 0, plain ``a`` when b == 1.

    A value whose numerator or denominator has more decimal digits than the
    interpreter converts to a string (``sys.get_int_max_str_digits``) raises
    ValueError saying so; the limit itself is left as it is.
    """
    try:
        return str(q)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(
            "the value has more decimal digits than this Python interpreter "
            f"will print (its limit is {limit} digits per integer)") from None


def parse_rat(text: str):
    """Inverse of :func:`rat_str`; accepts exactly ``a`` and ``a/b`` (ASCII digits)."""
    literal = text.strip()
    if _LITERAL.fullmatch(literal):
        try:
            return Rat(literal)
        except (ValueError, ZeroDivisionError):  # 1/0, or past the int digit limit
            pass
    raise ValueError(f"not a rational literal: {text!r}")
