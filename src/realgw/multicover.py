"""Multiple-cover transform between real GW invariants and integer counts.

The genus-g invariant GW_g of a real symplectic sixfold decomposes over
contributions of lower-genus embedded curves, each multiple-cover series
being a power of sinh(t/2)/(t/2) -- or of sin(t/2)/(t/2) when the orienting
line bundle admits no conjugation lift.  Concretely

    GW_g = sum_{0 <= h <= g, g-h even} C(h, (g-h)/2) * E_h,

where C(h, j) is the t^(2j) coefficient of b = f(t/2)/(t/2) raised to the
exponent h - 1 + c, c = <c1,B>/2, and f is sinh or sin.  C(h, 0) = 1, so
the inverse is forward substitution through the same coefficients,
E_g = GW_g - sum_{j >= 1} C(g-2j, j) E_(g-2j).  The recovered E_h are
conjecturally integer curve counts.

Only even powers occur, so each coefficient is read as the u^j coefficient
(u = t^2) of b(u)^e.  The sin series is the sinh series at -u (sin(x) =
-i sinh(ix)), so its coefficient is (-1)^j times the sinh one, and one
table per exponent, of the sinh series, serves both conventions and both
directions.  It grows on demand by J.C.P. Miller's power recurrence and
stores integers: the u^m coefficient times D_m = 4^m (3m)! (see
``_extend``).  A lookup through ``multicover_coefficient`` builds one
``Fraction``.  Genera are capped at ``MAX_GENUS`` and |c1B| at ``MAX_C1B``.
A wire genus map has one reader, ``InvariantVector.from_string_map``,
which checks its own arguments, the digit budget ``MAX_DIGITS`` included.

Both transforms are one integer summation, ``_compose``, with one
``Fraction`` per output.  The tables a transform reads are found through
one column index per c1B, so a warm transform makes one cache lookup, not
one per genus.  On a miss -- no index yet, or one built for a smaller
max_genus -- the table of every genus up to max_genus, zero entries
included, is looked up and grown once to the largest index it reads, and
the new index replaces the old.

Apart from those caches of exact values, everything here is a pure function
over immutable data; the even- and odd-genus towers never mix (g - h is
even throughout).
"""

from __future__ import annotations

import enum
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import mul
from types import MappingProxyType
from typing import Mapping

from . import MAX_C1B, MAX_DIGITS, MAX_GENUS, _shown

_DIGIT_BOUND = 10**MAX_DIGITS


class Convention(enum.Enum):
    """Which generating function drives the cover series."""

    SINH = "sinh"
    SIN = "sin"


def _integer(name: str, value) -> int:
    """``value`` if it is an ``int`` (a bool is not), else ``ValueError``."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {_shown(value)}")
    return value


def _pairing(c1b) -> int:
    """``c1b`` if it is an even ``int`` with |c1b| <= ``MAX_C1B``, else
    ``ValueError``; the message shows at most 60 characters of the value."""
    if not -MAX_C1B <= _integer("c1B", c1b) <= MAX_C1B:
        raise ValueError(f"c1B must be in [-{MAX_C1B}, {MAX_C1B}], got {_shown(c1b)}")
    if c1b % 2 != 0:
        raise ValueError(f"c1B pairing must be even, got {c1b}")
    return c1b


def cover_exponent(h: int, c1b: int) -> int:
    """Exponent h - 1 + c1b/2 of the base series; h and c1b are ints,
    0 <= h <= ``MAX_GENUS``, c1b even with |c1b| <= ``MAX_C1B``; a refusal
    shows at most 60 characters of the value (``realgw._shown``)."""
    if _integer("genus h", h) < 0:
        raise ValueError(f"genus h must be >= 0, got {_shown(h)}")
    if h > MAX_GENUS:
        raise ValueError(f"genus h must be <= {MAX_GENUS}, got {_shown(h)}")
    return h - 1 + _pairing(c1b) // 2


# exponent -> [N_0, N_1, ...], N_j = D_j C_j with D_j = 4^j (3j)! and C_j the
# u^j coefficient of b(u)^exponent for the sinh series b; the sin series
# reads the same list with the sign (-1)^j.  Every N_j is an integer (see
# ``_extend``).  Each list only ever grows.
_TABLES: dict[int, list[int]] = {}

# shift -> (reach, tables), shift = c1B/2 - 1: for every h <= reach,
# tables[h] is the ``_TABLES`` list of exponent h + shift, already grown
# through index (reach - h) // 2, so a transform with max_genus <= reach, in
# either convention and either direction, reads every coefficient it needs
# through one lookup here.  It holds references only: a table only ever
# grows, so an index stays right and can only fall short of a larger
# max_genus, when ``_compose`` replaces it.
_COLUMNS: dict[int, tuple[int, list[list[int]]]] = {}

# The tables' denominators D_m = 4^m (3m)! for m <= MAX_GENUS, built once as
# the running product of the steps D_m / D_(m-1) = 4 (3m-2)(3m-1)(3m).
_STEPS = [1] + [4 * (3 * m - 2) * (3 * m - 1) * 3 * m for m in range(1, MAX_GENUS + 1)]
_DENOMINATORS = list(accumulate(_STEPS, mul))
_SIN_STEPS = [-step for step in _STEPS]  # Horner steps that sign term j by (-1)^(J-j)


def _table(exponent: int, j: int) -> list[int]:
    """The table of b^exponent: created if absent and grown through index j
    by one ``_extend`` call if it is shorter."""
    table = _TABLES.get(exponent)
    if table is None:
        table = _TABLES[exponent] = [1]
    if j >= len(table):
        _extend(table, exponent, j)
    return table


def _extend(table: list[int], exponent: int, j: int) -> None:
    """Grow ``table`` through index j by J.C.P. Miller's power recurrence
    (Knuth, TAOCP Vol. 2, 4.7): for the sinh series b = sum_k b_k u^k,
    b_k = 1 / (4^k (2k+1)!),

        c_m = (1/m) sum_{k=1..m} ((exponent + 1) k - m) b_k c_{m-k},

    exact for every integer exponent, negative ones included.

    The table holds the numerators N_m = D_m c_m, D_m = 4^m (3m)!, and the
    sums run on them in ``int``.  These are integers for every integer
    exponent e: expanding b^e = (1 + sum_k b_k u^k)^e multinomially, the u^m
    coefficient is a sum over r = (r_1, r_2, ...) with sum_k k r_k = m of
    binom(e, r) r!/prod r_k! (an integer, e negative included, with
    r = sum_k r_k) times prod_k b_k^(r_k).  That product's denominator
    divides 4^m prod_k ((2k+1)!)^(r_k), which divides
    4^m (sum_k (2k+1) r_k)!, and sum_k (2k+1) r_k = 2m + r <= 3m.
    Multiplied by D_m the recurrence reads

        m N_m = sum_{k=1..m} ((e + 1) k - m) R(m, k) N_{m-k},
        R(m, k) = (3m)! / ((2k+1)! (3m-3k)!),

    with R(m, k) an integer since (2k+1) + (3m-3k) <= 3m, stepped in k by
    small-integer factors.  The division by m is exact, and a nonzero
    remainder raises ``ArithmeticError``.
    """
    for m in range(len(table), j + 1):
        ratio = m * (3 * m - 1) * (3 * m - 2) // 2  # R(m, 1)
        acc = 0
        for k in range(1, m + 1):
            acc += ((exponent + 1) * k - m) * ratio * table[m - k]
            # R(m, k+1) = R(m, k) (3m-3k)(3m-3k-1)(3m-3k-2) / ((2k+2)(2k+3))
            top = 3 * (m - k)
            ratio = ratio * top * (top - 1) * (top - 2) // ((2 * k + 2) * (2 * k + 3))
        numerator, remainder = divmod(acc, m)
        if remainder:
            raise ArithmeticError(f"u^{m} coefficient of the sinh series to the power "
                                  f"{exponent} has no integer numerator over 4^m (3m)!")
        table.append(numerator)


def multicover_coefficient(
    h: int, c1b: int, g: int, convention: Convention = Convention.SINH
) -> Fraction:
    """t^(2g) coefficient of (f(t/2)/(t/2))^(h-1+c1b/2), f = sinh or sin.

    The exponent may be negative.  Coefficients are kept as integer
    numerators over D_g = 4^g (3g)! in one table per exponent, grown on
    demand, and the sin coefficient is the sinh one times (-1)^g, so
    results are exact and a repeated lookup is two list indexes and one
    ``Fraction``.  h, c1b and g are ints, h and g in [0, ``MAX_GENUS``] and
    |c1b| <= ``MAX_C1B``.
    """
    if not 0 <= _integer("genus g", g) <= MAX_GENUS:
        raise ValueError(f"genus g must be in [0, {MAX_GENUS}], got {_shown(g)}")
    if type(convention) is not Convention:  # "sin" would read as sinh
        raise ValueError(f"convention must be a Convention, got {_shown(convention)}")
    numerator = _table(cover_exponent(h, c1b), g)[g]
    return Fraction(-numerator if convention is Convention.SIN and g % 2 else numerator,
                    _DENOMINATORS[g])


class InvariantVector(namedtuple("InvariantVector", "entries c1b max_genus")):
    """Rational values indexed by genus 0..max_genus, with the even pairing
    <c1,B>, |c1B| <= ``MAX_C1B``, carried along.

    Genera above ``max_genus`` are absent (undetermined), not zero; missing
    genera at or below it are normalized to zero.  ``max_genus=None`` (the
    default) means the largest genus in ``entries``, so empty ``entries``
    need an explicit ``max_genus``; a negative one is an error.
    ``entries`` is read-only: dense over 0..max_genus, in genus order, each
    value a ``Fraction``.
    ``__new__`` is the one place these are checked.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace runs __new__

    def __new__(
        cls, entries: Mapping[int, Fraction], c1b: int, max_genus: int | None = None
    ):
        _pairing(c1b)
        if max_genus is None:
            if not entries:
                raise ValueError("empty entries require an explicit max_genus")
            max_genus = max((g for g in entries if type(g) is int), default=0)
        elif _integer("max_genus", max_genus) < 0:
            raise ValueError(f"max_genus must be >= 0, got {_shown(max_genus)}")
        if max_genus > MAX_GENUS:
            raise ValueError(f"max_genus must be <= {MAX_GENUS}, got {_shown(max_genus)}")
        bad = [g for g in entries if type(g) is not int or not 0 <= g <= max_genus]
        if bad:
            raise ValueError(f"genera {_shown(bad)} outside [0, {max_genus}]")
        dense = {g: entries.get(g, 0) for g in range(max_genus + 1)}
        for g, value in dense.items():
            if type(value) is not Fraction:
                if type(value) is not int and not isinstance(value, Fraction):
                    raise ValueError(f"genus {g} entry {_shown(value)} is not an int or a Fraction")
                dense[g] = Fraction(value)
        return tuple.__new__(cls, (MappingProxyType(dense), c1b, max_genus))

    def __getnewargs__(self):
        # pickle and copy rebuild through __new__; a mappingproxy cannot be pickled
        return dict(self.entries), self.c1b, self.max_genus

    def to_string_map(self) -> dict[str, str]:
        """Genus-keyed p/q strings (``str`` of each ``Fraction``), the CLI wire form."""
        return {str(g): str(v) for g, v in self.entries.items()}

    @classmethod
    def from_string_map(
        cls, data: Mapping[str, str], c1b: int, max_genus: int | None = None
    ) -> "InvariantVector":
        """Read the wire form: a genus map and max_genus (default: the
        largest key) as ``schemas.INVARIANTS_SCHEMA`` states them, and an
        int c1b.  This is the one reader of a genus map, so it checks its
        own arguments, whoever has checked them before: each value is
        matched by ``schemas.check`` against ``schemas.RATIONAL_PATTERN``
        (nonzero denominator included), then parsed once, by ``Fraction``.
        The digit budget is checked here: a value's length before it is
        parsed, then the running lcm of the denominators times the largest
        |numerator|."""
        from .schemas import INVARIANTS_SCHEMA, check  # only a document reader loads it

        check(data, INVARIANTS_SCHEMA["properties"]["gw"], "genus map")
        if max_genus is not None:
            check(max_genus, INVARIANTS_SCHEMA["properties"]["max_genus"], "max_genus")
        entries, scale, largest = {}, 1, 0
        for key, raw in data.items():
            if len(raw) > MAX_DIGITS:
                raise ValueError(f"genus {key} value has {len(raw)} characters, "
                                 f"over the digit budget of {MAX_DIGITS}")
            value = entries[int(key)] = Fraction(raw)
            scale = lcm(scale, value.denominator)
            largest = max(largest, abs(value.numerator))
            if scale * largest >= _DIGIT_BOUND:
                raise ValueError("genus map over the digit budget: lcm(denominators) * "
                                 f"max |numerator| must be below 10**{MAX_DIGITS}")
        return cls(entries=entries, c1b=c1b, max_genus=max_genus)


def _compose(vec: InvariantVector, convention: Convention, inverse: bool) -> InvariantVector:
    """out_g = sum over h <= g with g-h even of C(h,(g-h)/2) * v_h, or, if
    ``inverse``, the out with that image v: out_g = v_g - the j >= 1 terms.

    Summed in ``int`` over the sinh tables.  With L the lcm of the
    denominators of v, e_h = L v_h, J = floor(g/2) and N_j(h) = D_j C(h, j)
    (the integer table entry, see ``_extend``), the forward sum is

        L D_J out_g = sum_{j=0..J} N_j(g-2j) e_{g-2j} D_J / D_j,

    by Horner's rule in j with D_j / D_{j-1} = 4 (3j-2)(3j-1)(3j).  The
    inverse runs the same loop from j = 1 over the outputs built so far,
    held as x_h = L D_K out_h, K = floor(max_genus/2).  D_j D_{J-j} divides
    D_J, and L D_floor(h/2) out_h is an integer, so the sum is a multiple
    of D_J (else ``ArithmeticError``) and x_g = D_K e_g - sum / D_J.  Each
    out_g is one ``Fraction``, from the quotient alone if it divides, which
    skips the gcd.  For sin, C(h, j) carries the sign (-1)^j: the Horner
    steps are negated, which signs term j by (-1)^(J-j), and the sum is
    negated where J is odd.  The tables come from ``_COLUMNS`` in one
    lookup; if its index for this c1B is missing or reaches below
    max_genus, the table of every h <= max_genus, zero v_h included, is
    looked up and grown to index (max_genus - h) // 2 first, and stored as
    the new index.
    """
    if type(convention) is not Convention:  # "sin" would read as sinh
        raise ValueError(f"convention must be a Convention, got {_shown(convention)}")
    max_genus = vec.max_genus
    ratios = [v.as_integer_ratio() for v in vec.entries.values()]
    numerators, denominators = zip(*ratios)
    scale = lcm(*denominators)  # L: each division below is exact
    scaled = numerators if scale == 1 else [n * (scale // d) for n, d in ratios]
    flip = convention is Convention.SIN
    steps = _SIN_STEPS if flip else _STEPS
    shift = cover_exponent(0, vec.c1b)  # genus h reads exponent h + shift
    column = _COLUMNS.get(shift)
    if column is None or column[0] < max_genus:
        column = _COLUMNS[shift] = (max_genus, [
            _table(h + shift, (max_genus - h) // 2) for h in range(max_genus + 1)
        ])
    tables = column[1]
    top = _DENOMINATORS[max_genus // 2]  # D_K
    # inverse: x_h of the outputs built so far, each over the one denominator L D_K
    terms, denominator = ([0] * (max_genus + 1), scale * top) if inverse else (scaled, 0)
    out: dict[int, Fraction] = {}
    for g in range(max_genus + 1):
        acc = terms[g]  # j = 0, C(g, 0) = 1: e_g, or 0 where x_g is not built yet
        h = g
        for j in range(1, g // 2 + 1):
            h -= 2
            acc *= steps[j]
            e = terms[h]
            if e:
                acc += tables[h][j] * e
        if flip and g & 2:  # the signed steps gave (-1)^J times the sum
            acc = -acc
        if inverse:
            quotient, remainder = divmod(acc, _DENOMINATORS[g // 2])
            if remainder:
                raise ArithmeticError(f"genus {g} substitution sum is not a multiple of D_{g // 2}")
            acc = terms[g] = top * scaled[g] - quotient
        else:
            denominator = scale * _DENOMINATORS[g // 2]
        quotient, remainder = divmod(acc, denominator)
        out[g] = Fraction(acc, denominator) if remainder else Fraction(quotient)
    # out is dense with Fraction values and vec passed the checks: skip them
    return tuple.__new__(InvariantVector, (MappingProxyType(out), vec.c1b, max_genus))


def forward_transform(
    counts: InvariantVector, convention: Convention = Convention.SINH
) -> InvariantVector:
    """GW_g = sum over h <= g with g-h even of C(h,(g-h)/2) * E_h: the
    powers of b = f(t/2)/(t/2), summed by ``_compose``."""
    return _compose(counts, convention, inverse=False)


def invert_transform(
    gw: InvariantVector, convention: Convention = Convention.SINH
) -> InvariantVector:
    """Unique E with forward_transform(E) = gw on genera <= max_genus.

    E_g = GW_g - sum over j >= 1 of C(g-2j, j) * E_(g-2j): forward
    substitution through the same coefficients, summed by ``_compose``.
    Since E_g reads GW_h for h <= g only, it is exact for a truncated gw.
    """
    return _compose(gw, convention, inverse=True)


def integrality_check(vec: InvariantVector) -> list[tuple[int, Fraction]]:
    """Entries whose value is not an integer, as (genus, value) pairs."""
    return [(g, v) for g, v in vec.entries.items() if v.denominator != 1]
