"""Reference multiple-cover transforms: plain ``Fraction`` loops.

One ``Fraction`` multiply-add per term, reading each coefficient through
``multicover_coefficient`` in increasing genus.  The library's transforms
sum in ``int`` over one denominator per output; these loops share none of
that arithmetic, so the tests compare the two.  ``oracle_invert`` solves the
forward relation by back-substitution on the cover coefficients, while the
library's inverse sums powers of the inverse series 2 arcsinh(y/2)/y (or
2 arcsin(y/2)/y) from tables of its own: the two share no algorithm and no
table.  Nothing here imports ``forward_transform`` or ``invert_transform``.
"""

from fractions import Fraction

from realgw.multicover import Convention, InvariantVector, multicover_coefficient


def oracle_forward(counts: InvariantVector, convention: Convention) -> InvariantVector:
    """GW_g = sum over h <= g with g-h even of C(h,(g-h)/2) * E_h."""
    gw: dict[int, Fraction] = {}
    for g in range(counts.max_genus + 1):
        acc = Fraction(0)
        for h in range(g % 2, g + 1, 2):
            value = counts.entries[h]
            if value != 0:
                acc += multicover_coefficient(h, counts.c1b, (g - h) // 2, convention) * value
        gw[g] = acc
    return InvariantVector(entries=gw, c1b=counts.c1b, max_genus=counts.max_genus)


def oracle_invert(gw: InvariantVector, convention: Convention) -> InvariantVector:
    """Unitriangular back-substitution on each parity tower."""
    counts: dict[int, Fraction] = {}
    for g in range(gw.max_genus + 1):
        acc = gw.entries[g]
        for h in range(g % 2, g, 2):
            value = counts[h]
            if value != 0:
                acc -= multicover_coefficient(h, gw.c1b, (g - h) // 2, convention) * value
        counts[g] = acc
    return InvariantVector(entries=counts, c1b=gw.c1b, max_genus=gw.max_genus)
