"""Exact rationals and their ``"p/q"`` wire form.

Rationals are ``fractions.Fraction`` values: arbitrary precision, always
stored reduced with a positive denominator.  They serialize as the string
``"p/q"`` (``"p"`` when the denominator is 1).  No floating point is used
anywhere in this module.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .schemas import RATIONAL_PATTERN

# The schema's own pattern, matched against the whole unstripped text.
_RATIONAL_RE = re.compile(RATIONAL_PATTERN)


def format_rational(value: int | Fraction) -> str:
    """Serialize a rational as ``"p/q"``, or ``"p"`` when q = 1."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or ``"p"`` with ASCII digits; rejects anything else
    (floats, bools, non-string values and surrounding whitespace included)."""
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not a p/q rational: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational: {text!r}")
