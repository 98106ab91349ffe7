"""Multiple-cover transform between real GW invariants and integer counts.

The genus-g invariant GW_g of a real symplectic sixfold decomposes over
contributions of lower-genus embedded curves, each multiple-cover series
being a power of sinh(t/2)/(t/2) -- or of sin(t/2)/(t/2) when the orienting
line bundle admits no conjugation lift.  Concretely

    GW_g = sum_{0 <= h <= g, g-h even} C(h, (g-h)/2) * E_h,

where C(h, j) is the t^(2j) coefficient of f(t/2)/(t/2) raised to the
exponent h - 1 + <c1,B>/2 and f is sinh or sin.  Since C(h, 0) = 1 the
relation is unitriangular and inverts exactly over the rationals; the
recovered E_h are conjecturally integer curve counts.

Only even powers of t occur, so C(h, j) is read as the u^j coefficient
(u = t^2) of b(u)^(h - 1 + <c1,B>/2), b(u) = f(t/2)/(t/2).  One table per
(exponent, convention) holds these coefficients and grows on demand by
J.C.P. Miller's power recurrence.  The recurrence runs in ``int``: the u^m
coefficient times 4^m (3m)! is an integer for every integer exponent (see
``_extend``), so each finished coefficient costs one ``Fraction`` and its
terms none.  Genera are capped at ``MAX_GENUS``.

Apart from that cache of exact values, everything here is a pure function
over immutable data; the even- and odd-genus towers never mix (g - h is
even throughout).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .series import format_rational, parse_rational

#: Largest genus accepted as a coefficient's cover genus g and as an
#: ``InvariantVector``'s ``max_genus``; past it a ``ValueError`` is raised
#: before any work, which bounds the coefficient tables and dense vectors.
MAX_GENUS = 128


class Convention(enum.Enum):
    """Which generating function drives the cover series."""

    SINH = "sinh"
    SIN = "sin"

    @classmethod
    def from_string(cls, name: str) -> "Convention":
        try:
            return cls(name.lower())
        except (AttributeError, ValueError):  # AttributeError: not a string
            raise ValueError(f"convention must be 'sinh' or 'sin', got {name!r}")


def cover_exponent(h: int, c1b: int) -> int:
    """Exponent h - 1 + c1b/2 of the base series; c1b must be even."""
    if h < 0:
        raise ValueError(f"genus h must be >= 0, got {h}")
    if c1b % 2 != 0:
        raise ValueError(f"c1B pairing must be even, got {c1b}")
    return h - 1 + c1b // 2


# (exponent, convention) -> [C_0, C_1, ...], the u^j coefficients (u = t^2)
# of b(u)^exponent, where b(u) = f(t/2)/(t/2) = sum_k a_k u^k with
# a_k = (+-1)^k / (4^k (2k+1)!).  Each list only ever grows.
_TABLES: dict[tuple[int, Convention], list[Fraction]] = {}


def _extend(table: list[Fraction], exponent: int, convention: Convention, j: int) -> None:
    """Grow ``table`` through index j by J.C.P. Miller's power recurrence
    (Knuth, TAOCP Vol. 2, 4.7): since a_0 = 1,

        c_m = (1/m) sum_{k=1..m} ((exponent + 1) k - m) a_k c_{m-k},

    exact for every integer exponent, negative ones included.

    The sums run in ``int`` over the numerators N_m = D_m c_m, D_m = 4^m (3m)!.
    These are integers for every integer exponent e: expanding
    b^e = (1 + sum_k a_k u^k)^e multinomially, the u^m coefficient is a sum
    over r = (r_1, r_2, ...) with sum_k k r_k = m of binom(e, r) r!/prod r_k!
    (an integer, e negative included, with r = sum_k r_k) times
    prod_k a_k^(r_k).  That product's denominator divides
    4^m prod_k ((2k+1)!)^(r_k), which divides 4^m (sum_k (2k+1) r_k)!, and
    sum_k (2k+1) r_k = 2m + r <= 3m.  Multiplied by D_m the recurrence reads

        m N_m = sum_{k=1..m} ((e + 1) k - m) (+-1)^k R(m, k) N_{m-k},
        R(m, k) = (3m)! / ((2k+1)! (3m-3k)!),

    with R(m, k) an integer since (2k+1) + (3m-3k) <= 3m; it is stepped in k
    by small-integer factors.  The division by m is exact, and a nonzero
    remainder raises ``ArithmeticError``.  The numerators of the entries
    already present are recovered from their reduced fractions, and each
    new entry is one ``Fraction(N_m, D_m)``.
    """
    sign = -1 if convention is Convention.SIN else 1
    denominators = [1]  # D_m = 4^m (3m)!, one running product
    for m in range(1, j + 1):
        denominators.append(denominators[-1] * 4 * (3 * m - 2) * (3 * m - 1) * 3 * m)
    numerators = [c.numerator * (denominators[m] // c.denominator) for m, c in enumerate(table)]
    for m in range(len(table), j + 1):
        ratio = sign * m * (3 * m - 1) * (3 * m - 2) // 2  # (+-1)^k R(m, k) at k = 1
        acc = 0
        for k in range(1, m + 1):
            acc += ((exponent + 1) * k - m) * ratio * numerators[m - k]
            # R(m, k+1) = R(m, k) (3m-3k)(3m-3k-1)(3m-3k-2) / ((2k+2)(2k+3))
            top = 3 * (m - k)
            ratio = sign * ratio * top * (top - 1) * (top - 2) // ((2 * k + 2) * (2 * k + 3))
        numerator, remainder = divmod(acc, m)
        if remainder:
            raise ArithmeticError(
                f"u^{m} coefficient of the {convention.value} series to the power "
                f"{exponent} has no integer numerator over 4^m (3m)!"
            )
        numerators.append(numerator)
        table.append(Fraction(numerator, denominators[m]))


def multicover_coefficient(
    h: int, c1b: int, g: int, convention: Convention = Convention.SINH
) -> Fraction:
    """t^(2g) coefficient of (f(t/2)/(t/2))^(h-1+c1b/2), f = sinh or sin.

    The exponent may be negative.  Coefficients are kept in one table per
    (exponent, convention), grown on demand, so results are exact and a
    repeated lookup is a list index.  g is capped at ``MAX_GENUS``.
    """
    if not 0 <= g <= MAX_GENUS:
        raise ValueError(f"genus g must be in [0, {MAX_GENUS}], got {g}")
    exponent = cover_exponent(h, c1b)
    table = _TABLES.get((exponent, convention))
    if table is None:
        table = _TABLES[exponent, convention] = [Fraction(1)]
    if g >= len(table):
        _extend(table, exponent, convention, g)
    return table[g]


@dataclass(frozen=True)
class InvariantVector:
    """Rational values indexed by genus 0..max_genus, with the even pairing
    <c1,B> carried along.

    Genera above ``max_genus`` are absent (undetermined), not zero; missing
    genera at or below it are normalized to zero.
    """

    entries: Mapping[int, Fraction]
    c1b: int
    max_genus: int = field(default=-1)

    def __post_init__(self):
        if self.c1b % 2 != 0:
            raise ValueError(f"c1B pairing must be even, got {self.c1b}")
        max_genus = self.max_genus
        if max_genus < 0:
            if not self.entries:
                raise ValueError("empty entries require an explicit max_genus")
            max_genus = max(self.entries)
        if max_genus > MAX_GENUS:
            raise ValueError(f"max_genus must be <= {MAX_GENUS}, got {max_genus}")
        bad = [g for g in self.entries if g < 0 or g > max_genus]
        if bad:
            raise ValueError(f"genera {bad} outside [0, {max_genus}]")
        dense = {
            g: Fraction(self.entries.get(g, 0)) for g in range(max_genus + 1)
        }
        object.__setattr__(self, "entries", dense)
        object.__setattr__(self, "max_genus", max_genus)

    def value(self, genus: int) -> Fraction:
        return self.entries[genus]

    def to_string_map(self) -> dict[str, str]:
        """Genus-keyed p/q strings, the CLI wire form."""
        return {str(g): format_rational(v) for g, v in sorted(self.entries.items())}

    @classmethod
    def from_string_map(
        cls, data: Mapping[str, str], c1b: int, max_genus: int | None = None
    ) -> "InvariantVector":
        """Read the wire form: ASCII-digit genus keys, p/q string values, an
        int c1b and an int max_genus >= 0 (default: the largest key)."""
        if type(c1b) is not int:
            raise ValueError(f"c1B must be an integer, got {c1b!r}")
        if max_genus is not None and (type(max_genus) is not int or max_genus < 0):
            raise ValueError(f"max_genus must be an integer >= 0, got {max_genus!r}")
        entries: dict[int, Fraction] = {}
        for key, raw in data.items():
            if not (isinstance(key, str) and key.isascii() and key.isdigit()):
                raise ValueError(f"genus key must be a string of ASCII digits, got {key!r}")
            genus = int(key)
            if genus in entries:
                raise ValueError(f"genus {genus} is given twice")
            entries[genus] = parse_rational(raw)
        if max_genus is None:
            max_genus = max(entries) if entries else 0
        return cls(entries=entries, c1b=c1b, max_genus=max_genus)


def forward_transform(
    counts: InvariantVector, convention: Convention = Convention.SINH
) -> InvariantVector:
    """GW_g = sum over h <= g with g-h even of C(h,(g-h)/2) * E_h."""
    gw: dict[int, Fraction] = {}
    for g in range(counts.max_genus + 1):
        acc = Fraction(0)
        for h in range(g % 2, g + 1, 2):
            value = counts.value(h)
            if value != 0:
                acc += multicover_coefficient(h, counts.c1b, (g - h) // 2, convention) * value
        gw[g] = acc
    return InvariantVector(entries=gw, c1b=counts.c1b, max_genus=counts.max_genus)


def invert_transform(
    gw: InvariantVector, convention: Convention = Convention.SINH
) -> InvariantVector:
    """Unique E with forward_transform(E) = gw on genera <= max_genus.

    Unitriangular back-substitution, run independently on the even- and
    odd-genus towers (the sum couples only h = g mod 2); always solvable
    since the diagonal coefficients C(g, 0) are 1.
    """
    counts: dict[int, Fraction] = {}
    for g in range(gw.max_genus + 1):
        acc = gw.value(g)
        for h in range(g % 2, g, 2):
            value = counts[h]
            if value != 0:
                acc -= multicover_coefficient(h, gw.c1b, (g - h) // 2, convention) * value
        counts[g] = acc
    return InvariantVector(entries=counts, c1b=gw.c1b, max_genus=gw.max_genus)


def integrality_check(vec: InvariantVector) -> list[tuple[int, Fraction]]:
    """Entries whose value is not an integer, as (genus, value) pairs."""
    return [
        (g, v) for g, v in sorted(vec.entries.items()) if v.denominator != 1
    ]
