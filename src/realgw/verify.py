"""Cross-checks between the sign predicates, run over integer grids.

Several comparison predicates are derivable from others: an
induced-orientation condition must equal an XOR of determinant-level
conditions, the two relative-spin comparisons are linked through the
canonical-vs-projection parity, and the sin and sinh cover coefficients
differ by (-1)^g.  Each derivation chain that closes at the integer level
is encoded here as an identity and swept over a default grid.  The sweeps
evaluate the predicates' int kernels (``signs.<predicate>_exponent``, whose
parity is the flip bit) rather than building ``Comparison`` objects; a
predicate's answer is its kernel's parity, so the verdicts are the same.
The two sides are always evaluated through their own public kernels, never
by rewriting one into the other, and an XOR of flips is the parity of a sum
of exponents.  An empty failure list on the default grid is the regression
contract for the sign calculus.  The disjoint-union moduli sign -- the
orientation of the moduli space of maps from a disjoint union is not the
product orientation -- is the coboundary of the convention exponents
``signs.eps_factor`` and ``signs.eps_conv``, two int kernels summed like
the others.

Each identity is written once, as ``_identity(*ranges)`` over a generator
``check_<id>(grid)`` that loops over the grid's tuples and yields each
failure: the grid point, plus a route tag when the identity compares both
routes: the route's value.  The routes are read once, into ``_ROUTES``
(projection, then canonical), and an identity that holds on each route
alike is stated once, in a loop over that pair after its route-free terms.
The decorator makes it the public ``check_<id>(grid=None)``, which returns
an ``IdentityReport``, a plain record whose fields are the keys ``realgw
verify`` prints (``identity`` is ``<id>``; ``holds`` means no failure), and
registers it in ``ALL_CHECKS`` in the order the checks are defined.  The
default grid is the product of the ranges, read lazily, and its size is the
product of their lengths; a grid passed in is read into a list once.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from typing import Callable, Iterable, Iterator, Sequence

from . import _shown
from .signs import (
    RelSpinVariant,
    Route,
    cvc_parity_exponent,
    doublet_determinant_exponent,
    e_node_determinant_exponent,
    e_node_induced_exponent,
    eps_conv,
    eps_factor,
    relspin_determinant_exponent,
    union_determinant_exponent,
    union_induced_exponent,
    union_moduli_exponent,
)

# Default sweep ranges: every parity residue mod 2, 4 and 8 is hit
# several times.
GENUS_RANGE = range(-3, 7)
RANK_RANGE = range(1, 5)
DEGREE_RANGE = range(-8, 9)
DEG_V_RANGE = range(-16, 17, 2)
BINOMIAL_RANGE = range(-6, 7)
ODD_DIM_RANGE = (1, 3, 5, 7)
PAIRING_RANGE = range(-8, 9, 2)

# The two stabilization routes, in report order: projection, then canonical.
_ROUTES = _P, _C = tuple(Route)


#: Outcome of one identity's sweep (see the module doc); ``schemas.REPORT_SCHEMA`` states it.
IdentityReport = namedtuple("IdentityReport", "identity grid_size holds failures")


# Identity id -> its check, in the order the checks are defined.
ALL_CHECKS: dict[str, Callable[[], IdentityReport]] = {}


def _identity(*ranges: Sequence):
    """Make a failure generator into its public check and register it in
    ``ALL_CHECKS`` (see the module doc)."""

    def decorate(sweep: Callable[[Iterable[tuple]], Iterator[tuple]]):
        identity = sweep.__name__[len("check_"):]

        def check(grid: Iterable[tuple] | None = None) -> IdentityReport:
            if grid is None:
                grid, size = itertools.product(*ranges), math.prod(map(len, ranges))
            else:
                grid = list(grid)
                size = len(grid)
            failures = tuple(sweep(grid))
            return IdentityReport(identity, size, not failures, failures)

        check.__name__ = check.__qualname__ = sweep.__name__
        check.__doc__ = sweep.__doc__
        ALL_CHECKS[identity] = check
        return check

    return decorate


@_identity(BINOMIAL_RANGE, BINOMIAL_RANGE)
def check_binomial_parity(grid):
    """C(a+b,2) = C(a,2) + C(b,2) + ab mod 2 (with C(x,2) = x(x-1)/2)."""
    for a, b in grid:
        lhs = ((a + b) * (a + b - 1) // 2) % 2
        rhs = (a * (a - 1) // 2 + b * (b - 1) // 2 + a * b) % 2
        if lhs != rhs:
            yield (a, b)


@_identity(GENUS_RANGE, GENUS_RANGE, RANK_RANGE, DEGREE_RANGE, DEGREE_RANGE)
def check_union_canonical_vs_cvc(grid):
    """Disjoint-union canonical survival equals the XOR of the three
    canonical-vs-projection parities at ind1, ind2 and ind1+ind2."""
    for g1, g2, k, d1, d2 in grid:
        direct = union_determinant_exponent(g1, g2, k, d1, d2, _C)
        # The union surface has genus g1 + g2 - 1 and degree d1 + d2.
        combined = (
            cvc_parity_exponent(g1 + g2 - 1, k, d1 + d2)
            + cvc_parity_exponent(g1, k, d1)
            + cvc_parity_exponent(g2, k, d2)
        )
        if (direct - combined) % 2:
            yield (g1, g2, k, d1, d2)


@_identity(GENUS_RANGE, DEGREE_RANGE)
def check_doublet_vs_cvc(grid):
    """Doublet projection-vs-complex parity equals the canonical-vs-projection
    parity on the doublet (genus 2g-1, a conjugation forces degree 2d)."""
    for g, d in grid:
        lhs = doublet_determinant_exponent(g, 1, d, _P)
        rhs = cvc_parity_exponent(2 * g - 1, 1, 2 * d)
        if (lhs - rhs) % 2:
            yield (g, d)


@_identity(DEG_V_RANGE)
def check_relspin_mod8(grid):
    """The two relative-spin comparisons differ by the canonical-vs-projection
    parity at genus 0, rank 1, degree -deg V / 2."""
    for (deg_v,) in grid:
        lhs = relspin_determinant_exponent(
            deg_v, RelSpinVariant.RELSPIN_VS_PROJECTION
        )
        rhs = relspin_determinant_exponent(
            deg_v, RelSpinVariant.RELSPIN_VS_CANONICAL
        ) + cvc_parity_exponent(0, 1, -deg_v // 2)
        if (lhs - rhs) % 2:
            yield (deg_v,)


@_identity(GENUS_RANGE, GENUS_RANGE, DEGREE_RANGE, DEGREE_RANGE)
def check_union_induced_vs_determinant(grid):
    """Both induced-orientation union conditions equal the XOR of the
    determinant-level union conditions at (k=1, degrees -d1, -d2) and at
    the trivial line bundle."""
    for g1, g2, d1, d2 in grid:
        trivial = union_determinant_exponent(g1, g2, 1, 0, 0, _C)
        for route in _ROUTES:
            induced = union_induced_exponent(g1, g2, d1, d2, route)
            determinant = union_determinant_exponent(g1, g2, 1, -d1, -d2, route)
            if (induced - determinant - trivial) % 2:
                yield (g1, g2, d1, d2, route.value)


@_identity(GENUS_RANGE, DEGREE_RANGE)
def check_e_node_induced_vs_determinant(grid):
    """Both induced-orientation node conditions equal the XOR of the
    determinant-level node conditions at (k=1, degree -d) and at the
    trivial line bundle; in particular the projection-route condition is
    NOT(g even)."""
    for g, d in grid:
        trivial = e_node_determinant_exponent(g, 1, 0, _C)
        for route in _ROUTES:
            induced = e_node_induced_exponent(g, d, route)
            determinant = e_node_determinant_exponent(g, 1, -d, route)
            if (induced - determinant - trivial) % 2:
                yield (g, d, route.value)


@_identity(ODD_DIM_RANGE, GENUS_RANGE, GENUS_RANGE, PAIRING_RANGE, PAIRING_RANGE)
def check_union_moduli_vs_epsilons(grid):
    """The disjoint-union moduli sign is the coboundary of the convention
    exponents: with d q = q(union) + q(first) + q(second), each at its
    surface's genus (g1 + g2 - 1, g1, g2) and pairing (c1B1 + c1B2, c1B1,
    c1B2), or the target's n, the projection-route exponent is d eps_factor
    and the canonical route exceeds it by d eps_conv."""
    for n, g1, g2, c1b1, c1b2 in grid:
        g = g1 + g2 - 1
        proj = union_moduli_exponent(n, g1, g2, c1b1, c1b2, _P)
        if (proj - eps_factor(g, n) - eps_factor(g1, n) - eps_factor(g2, n)) % 2:
            yield (n, g1, g2, c1b1, c1b2, _P.value)
        can = union_moduli_exponent(n, g1, g2, c1b1, c1b2, _C)
        if (can - proj - eps_conv(g, c1b1 + c1b2) - eps_conv(g1, c1b1) - eps_conv(g2, c1b2)) % 2:
            yield (n, g1, g2, c1b1, c1b2, _C.value)


@_identity(range(0, 7), (-4, -2, 0, 2, 4, 8), range(0, 9))
def check_sin_vs_sinh(grid):
    """Sin-convention cover coefficients are (-1)^g times the sinh ones, over
    (h, c1B, g).  The sin side is built here from the sin series' own
    coefficients s_k = (-1)^k / (4^k (2k+1)!), u = t^2, raised to the power
    h - 1 + c1B/2 by J.C.P. Miller's recurrence in ``Fraction``;
    ``multicover_coefficient`` must read it for sin, and the sinh side is
    the library's table."""
    from fractions import Fraction

    from .multicover import Convention, cover_exponent, multicover_coefficient

    series: list = []  # s_0, s_1, ...
    powers: dict[int, list] = {}  # exponent -> u-coefficients of s^exponent
    for h, c1b, g in grid:
        sinh_value = multicover_coefficient(h, c1b, g, Convention.SINH)  # checks h, c1B, g
        for k in range(len(series), g + 1):
            series.append(Fraction((-1) ** k, 4**k * math.factorial(2 * k + 1)))
        exponent = cover_exponent(h, c1b)
        power = powers.setdefault(exponent, [1])
        for m in range(len(power), g + 1):
            terms = (((exponent + 1) * k - m) * series[k] * power[m - k] for k in range(1, m + 1))
            power.append(sum(terms) / m)
        sin_value = multicover_coefficient(h, c1b, g, Convention.SIN)
        if not power[g] == sin_value == (-1) ** g * sinh_value:
            yield (h, c1b, g)


def run_checks(identity_ids: Sequence[str] | None = None) -> list[IdentityReport]:
    """Run the named checks (all of them by default), in registry order."""
    if identity_ids is None:
        identity_ids = list(ALL_CHECKS)
    for identity in identity_ids:
        if identity not in ALL_CHECKS:
            raise ValueError(f"unknown identity {_shown(identity)}; known: {', '.join(ALL_CHECKS)}")
    return [ALL_CHECKS[identity]() for identity in identity_ids]
