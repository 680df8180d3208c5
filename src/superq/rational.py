"""Exact rational arithmetic backend.

Every coefficient in this package is an exact rational.  At import time we
pick gmpy2's C-implemented ``mpq`` when it is installed (markedly faster on
small rationals); otherwise we fall back to the pure-Python
``fractions.Fraction``.  Both backends are value-compatible: identical
string form (``a/b`` with positive denominator, bare ``a`` when the
denominator is 1), identical hashing, always lowest terms.

Set ``SUPERQ_RATIONAL=fractions`` in the environment to force the fallback,
or ``SUPERQ_RATIONAL=gmpy2`` to make a missing gmpy2 a hard error.
"""

import os

_requested = os.environ.get("SUPERQ_RATIONAL", "").strip().lower()

if _requested in ("", "gmpy2"):
    try:
        from gmpy2 import mpq as Rat

        BACKEND = "gmpy2"
    except ImportError:
        if _requested == "gmpy2":
            raise
        from fractions import Fraction as Rat

        BACKEND = "fractions"
elif _requested == "fractions":
    from fractions import Fraction as Rat

    BACKEND = "fractions"
else:
    raise RuntimeError(
        f"SUPERQ_RATIONAL={_requested!r} not understood (use 'gmpy2' or 'fractions')"
    )

ZERO = Rat(0)
ONE = Rat(1)


def rat(value, den=None):
    """Build an exact rational from ints, strings like ``-4/3``, or rationals."""
    if den is None:
        return Rat(value)
    return Rat(value, den)


def rat_str(q) -> str:
    """Canonical rendering: ``a/b`` with b > 0, plain ``a`` when b == 1."""
    return str(q)


def parse_rat(text: str):
    """Inverse of :func:`rat_str`; accepts ``a`` and ``a/b``."""
    try:
        return Rat(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc


def is_integral(q) -> bool:
    return q.denominator == 1
