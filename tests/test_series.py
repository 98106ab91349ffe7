"""Rationals and their p/q wire form, written by ``str`` and read by
``schemas.check`` and then ``Fraction``; the two generating series, read
from the cover-coefficient table at exponent 1, cross-checked against the
termwise oracle."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from realgw import schemas
from realgw.multicover import Convention, multicover_coefficient
from realgw.schemas import INVARIANTS_SCHEMA, RATIONAL_PATTERN
from series_oracle import oracle_pow, sin_half_coeffs, sinh_half_coeffs

F = Fraction
SINH, SIN = Convention.SINH, Convention.SIN

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


# The schema of one wire rational, as every genus-map value is checked.
RATIONAL = schemas._RATIONAL


def parse(text):
    """The one read of a wire rational: one ``schemas.check``, one ``Fraction``."""
    schemas.check(text, RATIONAL)
    return Fraction(text)


def base_coefficient(j, convention):
    """u^j coefficient (u = t^2) of f(t/2)/(t/2): exponent h - 1 + c1B/2 = 1."""
    return multicover_coefficient(2, 0, j, convention)


class TestRationals:
    def test_construction_normalizes(self):
        q = F(2, 4)
        assert (q.numerator, q.denominator) == (1, 2)

    @pytest.mark.parametrize(
        "text,value",
        [("3/4", F(3, 4)), ("-5", F(-5)), ("7", F(7)), ("-9/12", F(-3, 4))],
    )
    def test_parse(self, text, value):
        assert parse(text) == value

    @pytest.mark.parametrize(
        "bad",
        ["1.5", "a", "", "1/0", "1e3", "1/2/3", "١/٢", "٣", 0.5, True, 3,
         " 1/2", "1/2 ", " 1/2 ", "1/2\n", "\t-3", "1 /2", "1/ 2", "\u00a01"],
    )
    def test_parse_rejects(self, bad):
        # refused by the check, so Fraction, which takes " 1/2" and "1e3",
        # never sees it
        with pytest.raises(ValueError, match="must"):
            schemas.check(bad, RATIONAL)

    def test_parser_uses_schema_pattern(self):
        # every rational slot of the invariants schema is that one schema
        properties = INVARIANTS_SCHEMA["properties"]
        slots = [*properties["gw"]["patternProperties"].values(),
                 *properties["E"]["patternProperties"].values(),
                 properties["violations"]["items"]["items"][1]]
        assert slots == [RATIONAL] * 3
        assert RATIONAL["pattern"] == RATIONAL_PATTERN

    @given(st.from_regex(RATIONAL_PATTERN, fullmatch=True))
    def test_every_match_is_one_fraction(self, text):
        schemas.check(text, RATIONAL)
        p, _, q = text.partition("/")
        assert Fraction(text) == Fraction(int(p), int(q or "1"))

    @given(rationals)
    def test_format_parse_round_trip(self, q):
        # str(Fraction) is the wire form: "p/q", or "p" when q = 1
        assert parse(str(q)) == q
        assert ("/" in str(q)) == (q.denominator != 1)


class TestGeneratingSeries:
    def test_sinh_constant_term(self):
        assert base_coefficient(0, SINH) == 1

    def test_sinh_order_two(self):
        assert base_coefficient(1, SINH) == F(1, 24)

    def test_sinh_t4_coefficient(self):
        # frozen from the factorial oracle: 1/(2^4 * 5!) = 1/1920
        assert base_coefficient(2, SINH) == F(1, 1920)

    def test_sin_order_two(self):
        assert base_coefficient(1, SIN) == F(-1, 24)

    def test_sin_constant_term(self):
        assert base_coefficient(0, SIN) == 1

    def test_odd_coefficients_vanish(self):
        # every power of the base series is even in t, so a table in u = t^2
        # loses nothing
        for conv, base in ((SINH, sinh_half_coeffs(15)), (SIN, sin_half_coeffs(15))):
            for exponent in (-2, -1, 0, 1, 3):
                full = oracle_pow(base, exponent)
                assert all(full[i] == 0 for i in range(1, 16, 2))
                assert full[::2] == [
                    multicover_coefficient(0, 2 * (exponent + 1), j, conv)
                    for j in range(8)
                ]

    def test_sin_is_alternating_sinh(self):
        for g in range(11):
            assert base_coefficient(g, SIN) == (-1) ** g * base_coefficient(g, SINH)

    def test_matches_termwise_oracle(self):
        assert [base_coefficient(j, SINH) for j in range(7)] == sinh_half_coeffs(12)[::2]
