"""Reference evaluation of the closing graph congruence, kept independent of
the library code paths.

Every term is formed as a ``Fraction`` straight from the stated formula and
floored with ``math.floor``; integrality of each halved term is asserted.
Only the raw graph fields are read (n, a, edge kinds and degrees, vertex
genera and flag counts); no library helper is called.
"""

from fractions import Fraction
from math import comb, floor


def _integer(value: Fraction) -> int:
    assert value.denominator == 1, f"non-integral term {value}"
    return value.numerator


def congruence(graph) -> tuple[int, int, int, int]:
    """(LHS mod 2, RHS mod 2, g, d) of the closing congruence:

      LHS = (n-2-k)/2 C(|E_R|,2) + sum_{real e} (1 + floor((n-|a|)/4 d(e)))
            + sum_{conj e} ((n-|a|)/2 d(e) - 1) + sum_v (g(v) - 1 + |E_v|),
      RHS = m(m-1)/2 + (g - 1),  m = g + (n-|a|)d/2,

    with g = 1 + |E_R| + 2|E_+| + 2 sum_v (g(v) - 1) and
    d = sum_{real e} d(e) + 2 sum_{conj e} d(e).
    """
    n = graph.n
    k = len(graph.a)
    nu = Fraction(n - sum(graph.a))
    real = [e.degree for e in graph.edges if e.kind.value == "real"]
    conj = [e.degree for e in graph.edges if e.kind.value == "conj"]

    lhs = _integer(Fraction(n - 2 - k, 2) * comb(len(real), 2))
    lhs += sum(1 + floor(nu / 4 * de) for de in real)
    lhs += sum(_integer(nu / 2 * de - 1) for de in conj)
    lhs += sum(v.genus - 1 + len(v.flags) for v in graph.vertices)

    g = 1 + len(real) + 2 * len(conj) + 2 * sum(v.genus - 1 for v in graph.vertices)
    d = sum(real) + 2 * sum(conj)
    m = _integer(g + nu / 2 * d)
    rhs = _integer(Fraction(m * (m - 1), 2)) + g - 1
    return lhs % 2, rhs % 2, g, d
