"""Exact rationals in their ``"p/q"`` wire form.

Rationals are ``fractions.Fraction`` values: arbitrary precision, always
stored reduced with a positive denominator.  They serialize as the string
``"p/q"`` (``"p"`` when the denominator is 1).  A wire string is read back
by ``schemas.check`` against ``schemas.RATIONAL_PATTERN`` and then by
``Fraction`` itself.  No floating point is used anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction


def format_rational(value: int | Fraction) -> str:
    """Serialize a rational as ``"p/q"``, or ``"p"`` when q = 1."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
