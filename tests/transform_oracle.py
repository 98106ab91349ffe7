"""Reference multiple-cover transforms: plain ``Fraction`` loops.

One ``Fraction`` multiply-add per term.  The cover coefficient C(h, j), the
u^j coefficient (u = t^2) of b(u)^(h-1+c1B/2) with b = f(t/2)/(t/2), comes
from ``series_oracle`` alone: its termwise base series, its naive product
and its reciprocal.  The powers of b are built one exponent at a time,
b^(e+1) = b^e b and b^(e-1) = b^e b^-1, truncated to the u-length a call
needs and cached per (convention, exponent) here.  Nothing here
reads ``multicover_coefficient`` or the library's tables, so the library's
integer sums and its Miller recurrence are checked against arithmetic that
shares neither.  ``oracle_invert`` solves the forward relation by
back-substitution, and so does the library's inverse: the two share that
step, but not its arithmetic (``Fraction`` here, ``int`` there) nor its
coefficients.
Nothing here imports ``forward_transform`` or ``invert_transform``.
"""

from fractions import Fraction

from realgw.multicover import Convention, InvariantVector
from series_oracle import oracle_mul, oracle_reciprocal, sin_half_coeffs, sinh_half_coeffs

# convention -> {exponent: the first u-coefficients of b^exponent}; a list
# is replaced by a longer one when a call needs more coefficients.
_POWERS: dict = {}


def cover_power(convention: Convention, length: int, exponent: int) -> list[Fraction]:
    """At least the first ``length`` u-coefficients of b(u)^exponent, reached
    from the nearest exponent toward zero cached that long, one product per
    step."""
    powers = _POWERS.setdefault(convention, {})
    if len(powers.get(1, ())) < length:
        half = sinh_half_coeffs if convention is Convention.SINH else sin_half_coeffs
        base = half(2 * length - 2)[::2]  # the even t-coefficients
        one = [Fraction(1)] + [Fraction(0)] * (length - 1)
        powers.update({0: one, 1: base, -1: oracle_reciprocal(base)})
    step = 1 if exponent > 0 else -1
    known = exponent
    while len(powers.get(known, ())) < length:
        known -= step
    while known != exponent:
        powers[known + step] = oracle_mul(powers[known][:length], powers[step][:length])
        known += step
    return powers[exponent]


def _coefficients(vec: InvariantVector, convention: Convention):
    """C(h, j) for j <= (max_genus - h)/2, as a function of (h, j)."""
    shift = vec.c1b // 2 - 1
    return lambda h, j: cover_power(convention, (vec.max_genus - h) // 2 + 1, h + shift)[j]


def oracle_forward(counts: InvariantVector, convention: Convention) -> InvariantVector:
    """GW_g = sum over h <= g with g-h even of C(h,(g-h)/2) * E_h."""
    coefficient = _coefficients(counts, convention)
    gw: dict[int, Fraction] = {}
    for g in range(counts.max_genus + 1):
        acc = Fraction(0)
        for h in range(g % 2, g + 1, 2):
            value = counts.entries[h]
            if value != 0:
                acc += coefficient(h, (g - h) // 2) * value
        gw[g] = acc
    return InvariantVector(entries=gw, c1b=counts.c1b, max_genus=counts.max_genus)


def oracle_invert(gw: InvariantVector, convention: Convention) -> InvariantVector:
    """Unitriangular back-substitution on each parity tower."""
    coefficient = _coefficients(gw, convention)
    counts: dict[int, Fraction] = {}
    for g in range(gw.max_genus + 1):
        acc = gw.entries[g]
        for h in range(g % 2, g, 2):
            value = counts[h]
            if value != 0:
                acc -= coefficient(h, (g - h) // 2) * value
        counts[g] = acc
    return InvariantVector(entries=counts, c1b=gw.c1b, max_genus=gw.max_genus)
