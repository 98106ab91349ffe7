"""Multiple-cover transform: coefficients against the brute-force oracle,
forward/inverse round trips, parity decoupling, integrality reporting."""

import copy
import hashlib
import json
import pickle
from fractions import Fraction
from math import comb, factorial, gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realgw import multicover
from realgw.cli import _choice
from realgw.multicover import (
    MAX_C1B,
    MAX_GENUS,
    Convention,
    InvariantVector,
    cover_exponent,
    forward_transform,
    integrality_check,
    invert_transform,
    multicover_coefficient,
)
from series_oracle import (
    oracle_cover_coefficient,
    oracle_pow,
    sin_half_coeffs,
    sinh_half_coeffs,
)
from transform_oracle import cover_power, oracle_forward, oracle_invert

F = Fraction
SINH, SIN = Convention.SINH, Convention.SIN

C1B_GRID = (-4, -2, 0, 2, 4, 8)


class TestCoefficient:
    @pytest.mark.parametrize(
        "h,c1b,g,conv,expected",
        [
            (1, 0, 0, SINH, F(1)),
            (2, 0, 1, SINH, F(1, 24)),
            (2, 0, 1, SIN, F(-1, 24)),
            (0, 0, 1, SINH, F(-1, 24)),
        ],
    )
    def test_examples(self, h, c1b, g, conv, expected):
        assert multicover_coefficient(h, c1b, g, conv) == expected

    def test_unitriangular(self):
        for h in range(0, 7):
            for c1b in C1B_GRID:
                for conv in (SINH, SIN):
                    assert multicover_coefficient(h, c1b, 0, conv) == 1

    def test_convention_relation_grid(self):
        for h in range(0, 7):
            for c1b in C1B_GRID:
                for g in range(0, 9):
                    sinh_val = multicover_coefficient(h, c1b, g, SINH)
                    sin_val = multicover_coefficient(h, c1b, g, SIN)
                    assert sin_val == (-1) ** g * sinh_val

    def test_oracle_spot_grid(self):
        # spot checks through t^24 (g = 12); the acceptance suite sweeps
        # the full grid
        for h in (0, 1, 3, 6):
            for c1b in (-2, 0, 4):
                for g in (0, 1, 2, 5, 12):
                    for conv in (SINH, SIN):
                        assert multicover_coefficient(
                            h, c1b, g, conv
                        ) == oracle_cover_coefficient(h, c1b, g, conv.value)

    def test_oracle_beyond_genus_twenty(self):
        # the oracle's powers of b, cached per exponent, 31 u-coefficients long
        for h in (0, 3, 6):
            for c1b in (-4, 0, 8):
                for g in (21, 25, 30):
                    for conv in (SINH, SIN):
                        assert multicover_coefficient(
                            h, c1b, g, conv
                        ) == cover_power(conv, 31, h - 1 + c1b // 2)[g]

    def test_growth_order_does_not_matter(self):
        # exponent 3 - 1 + 4/2 = 4, one table for both conventions
        for conv in (SINH, SIN):
            multicover._TABLES.pop(4, None)
            multicover_coefficient(3, 4, 30, conv)
            jumped = list(multicover._TABLES[4])
            multicover._TABLES.pop(4)
            for g in range(31):
                multicover_coefficient(3, 4, g, conv)
            assert multicover._TABLES[4] == jumped
            assert all(type(n) is int for n in jumped)

    def test_genus_cap(self):
        sizes = {key: len(table) for key, table in multicover._TABLES.items()}
        with pytest.raises(ValueError, match=str(MAX_GENUS)):
            multicover_coefficient(1, 0, MAX_GENUS + 1, SINH)
        with pytest.raises(ValueError, match=str(MAX_GENUS)):
            InvariantVector({}, c1b=0, max_genus=MAX_GENUS + 1)
        with pytest.raises(ValueError, match=str(MAX_GENUS)):
            InvariantVector({MAX_GENUS + 1: F(1)}, c1b=0)
        assert {key: len(table) for key, table in multicover._TABLES.items()} == sizes
        assert MAX_GENUS > 46  # the benchmark's largest transform

    @pytest.mark.parametrize("c1b", [MAX_C1B + 2, -MAX_C1B - 2, 10**999, -(10**5000)],
                             ids=["above", "below", "1000-digits", "5001-digits"])
    def test_c1b_cap(self, c1b):
        sizes = {key: len(table) for key, table in multicover._TABLES.items()}
        for build in (
            lambda: multicover_coefficient(0, c1b, 1, SINH),
            lambda: cover_exponent(0, c1b),
            lambda: InvariantVector({0: F(1)}, c1b=c1b),
        ):
            with pytest.raises(ValueError, match=r"^c1B must be in \[-1000000, 1000000\], got ") as info:
                build()
            assert len(str(info.value)) <= len("c1B must be in [-1000000, 1000000], got ") + 63
        assert {key: len(table) for key, table in multicover._TABLES.items()} == sizes
        assert cover_exponent(0, MAX_C1B) == MAX_C1B // 2 - 1
        assert InvariantVector({0: F(1)}, c1b=-MAX_C1B).c1b == -MAX_C1B

    def test_odd_c1b_rejected(self):
        with pytest.raises(ValueError):
            multicover_coefficient(1, 3, 0, SINH)
        with pytest.raises(ValueError):
            cover_exponent(1, 1)

    def test_negative_genus_rejected(self):
        with pytest.raises(ValueError):
            multicover_coefficient(1, 0, -1, SINH)

    def test_convention_from_string(self):
        # the library reads a convention by its exact value; the CLI's one
        # choice reader ignores case and takes nothing else
        assert Convention("sin") is SIN
        with pytest.raises(ValueError):
            Convention("SINH")
        for member in Convention:
            assert _choice("--conv", member.value.upper(), Convention) is member
        with pytest.raises(ValueError, match=r"^--conv must be 'sinh' or 'sin', got 'cosh'$"):
            _choice("--conv", "cosh", Convention)


def cap_table(exponent, conv, inverse=False):
    """u^0..u^MAX_GENUS coefficients of b(u)^exponent, read from the library;
    with ``inverse``, the u^0..u^(MAX_GENUS/2) coefficients (u = y^2) of the
    inverse series a(u)^exponent, read off the library's inverse: E(y) =
    a^(c1B/2 - 1) GW(t) with t = y a, so the inverse of the genus-0 unit
    vector at c1B = 2 (exponent + 1) has E_2j = [y^2j] a^exponent."""
    c1b = 2 * (exponent + 1)  # h = 0
    if inverse:
        unit = InvariantVector({0: F(1)}, c1b=c1b, max_genus=MAX_GENUS)
        return list(invert_transform(unit, conv).entries.values())[::2]
    multicover_coefficient(0, c1b, MAX_GENUS, conv)
    return [multicover_coefficient(0, c1b, j, conv) for j in range(MAX_GENUS + 1)]


# The cover series b for each convention, then the inverse series a, whose
# powers the inverse transform sums: 2 arcsinh(y/2)/y for sinh and
# 2 arcsin(y/2)/y for sin.
SERIES = (
    pytest.param(SINH, False, id="Convention.SINH"),
    pytest.param(SIN, False, id="Convention.SIN"),
    pytest.param(SINH, True, id="arcsinh"),
    pytest.param(SIN, True, id="arcsin"),
)


def truncated_product(a, b):
    """Coefficients of a(u) b(u) through the common length, summed in
    integers over the least common denominator of both lists."""
    scale = lcm(*(c.denominator for c in a + b))
    int_a = [c.numerator * (scale // c.denominator) for c in a]
    int_b = [c.numerator * (scale // c.denominator) for c in b]
    return [
        F(sum(int_a[i] * int_b[m - i] for i in range(m + 1)), scale * scale)
        for m in range(len(a))
    ]


class TestTablesToCap:
    """Every table through u^MAX_GENUS, and the inverse transform through
    genus MAX_GENUS, checked by identities of the power series b(u)^e and
    a(u)^e that need no oracle run at the cap."""

    @staticmethod
    def one(length):
        return [F(1)] + [F(0)] * (length - 1)

    @pytest.mark.parametrize("conv,inverse", SERIES)
    def test_inverse_powers(self, conv, inverse):
        for e in (-5, 12):
            power = cap_table(e, conv, inverse)
            assert truncated_product(power, cap_table(-e, conv, inverse)) == self.one(len(power))
        power = cap_table(0, conv, inverse)
        assert power == self.one(len(power))

    @pytest.mark.parametrize("conv,inverse", SERIES)
    def test_exponents_add(self, conv, inverse):
        for e1, e2 in ((12, -5), (-5, -1), (13, 7)):
            product = truncated_product(cap_table(e1, conv, inverse), cap_table(e2, conv, inverse))
            assert product == cap_table(e1 + e2, conv, inverse)

    @pytest.mark.parametrize("conv,inverse", SERIES)
    def test_base_series_closed_form(self, conv, inverse):
        sign = -1 if conv is SIN else 1
        if inverse:
            expected = [
                F((-sign) ** k * comb(2 * k, k), 16**k * (2 * k + 1))
                for k in range(MAX_GENUS // 2 + 1)
            ]
        else:
            expected = [F(sign**k, 4**k * factorial(2 * k + 1)) for k in range(MAX_GENUS + 1)]
        assert cap_table(1, conv, inverse) == expected

    @pytest.mark.parametrize("conv", [SINH, SIN])
    def test_oracle_at_genus_forty_and_forty_six(self, conv):
        base = (sinh_half_coeffs if conv is SINH else sin_half_coeffs)(92)
        for e in (-5, -1, 7, 12):
            full = oracle_pow(base, e)
            for g in (40, 46):
                assert multicover_coefficient(0, 2 * (e + 1), g, conv) == full[2 * g]

    def test_round_trip_at_cap(self):
        entries = {h: F((-1) ** h * (h + 1), 1 + h % 3) for h in range(MAX_GENUS + 1)}
        vec = InvariantVector(entries, c1b=-4, max_genus=MAX_GENUS)
        gw = forward_transform(vec, SINH)
        assert gw == oracle_forward(vec, SINH)
        assert invert_transform(gw, SINH) == vec
        counts = invert_transform(vec, SIN)
        assert counts == oracle_invert(vec, SIN)
        assert forward_transform(counts, SIN) == vec

    def test_non_integer_numerator_raises(self):
        # a half-integer exponent has no integer numerators over 4^m (3m)!
        with pytest.raises(ArithmeticError):
            multicover._extend([1], F(1, 2), 3)

    def test_substitution_remainder_raises(self, monkeypatch):
        # the inverse's sums are multiples of 4^J (3J)! only for integer
        # tables: a table entry of 1/2 leaves a remainder at genus 2
        monkeypatch.setattr(multicover, "_TABLES", {-1: [1, F(1, 2)]})
        monkeypatch.setattr(multicover, "_COLUMNS", {})
        with pytest.raises(ArithmeticError, match="genus 2"):
            invert_transform(InvariantVector({0: F(1)}, c1b=0, max_genus=2))


class TestVector:
    def test_densifies_missing_entries(self):
        vec = InvariantVector(entries={2: F(5)}, c1b=0, max_genus=3)
        assert vec.entries == {0: F(0), 1: F(0), 2: F(5), 3: F(0)}

    def test_keeps_fractions_converts_the_rest(self):
        value = F(-3, 7)
        vec = InvariantVector(entries={0: value, 1: 2}, c1b=0)
        assert vec.entries[0] is value
        assert type(vec.entries[1]) is Fraction and vec.entries[1] == 2

    def test_rejects_odd_c1b(self):
        with pytest.raises(ValueError):
            InvariantVector(entries={0: F(1)}, c1b=1)

    def test_rejects_entries_above_max_genus(self):
        with pytest.raises(ValueError):
            InvariantVector(entries={5: F(1)}, c1b=0, max_genus=3)

    def test_empty_needs_max_genus(self):
        with pytest.raises(ValueError):
            InvariantVector(entries={}, c1b=0)

    def test_max_genus_is_inferred_only_when_none(self):
        assert InvariantVector({0: 1, 2: 3}, c1b=0, max_genus=None).max_genus == 2
        for entries in ({}, {0: F(1), 2: F(3)}):
            with pytest.raises(ValueError, match="max_genus must be >= 0, got -7"):
                InvariantVector(entries, c1b=0, max_genus=-7)
        # the wire reader infers nothing of its own: no genera, no max_genus
        with pytest.raises(ValueError, match="empty entries require an explicit max_genus"):
            InvariantVector.from_string_map({}, c1b=0)
        vec = InvariantVector.from_string_map({}, c1b=0, max_genus=2)
        assert vec.entries == {0: F(0), 1: F(0), 2: F(0)}

    def test_replace_runs_checks(self):
        vec = InvariantVector({0: 1}, c1b=0)
        with pytest.raises(ValueError, match="c1B pairing must be even"):
            vec._replace(c1b=3)
        with pytest.raises(ValueError, match=r"genera \[2\] outside"):
            vec._replace(entries={2: F(1)})
        replaced = vec._replace(entries={1: 5}, max_genus=2)
        assert replaced == InvariantVector({1: 5}, c1b=0, max_genus=2)
        assert replaced.entries == {0: F(0), 1: F(5), 2: F(0)}

    def test_string_map_round_trip(self):
        vec = InvariantVector(entries={0: F(1), 2: F(-1, 24)}, c1b=4)
        doc = vec.to_string_map()
        assert doc == {"0": "1", "1": "0", "2": "-1/24"}
        back = InvariantVector.from_string_map(doc, c1b=4)
        assert back == vec

    @pytest.mark.parametrize("make", [lambda v: v, forward_transform, invert_transform])
    def test_copies_round_trip(self, make):
        vec = make(InvariantVector({0: F(1), 2: F(-1, 24), 3: 5}, c1b=-2))
        copies = (pickle.loads(pickle.dumps(vec)), copy.deepcopy(vec), copy.copy(vec), vec._replace())
        for other in copies:
            assert type(other) is InvariantVector and other == vec
            assert not other.entries != vec.entries  # read-only entries compare by value
            assert list(other.entries.items()) == list(vec.entries.items())
        assert vec._replace(entries={0: 2}).entries != vec.entries


class TestForward:
    def test_single_genus_zero(self):
        out = forward_transform(InvariantVector({0: F(1)}, 0), SINH)
        assert out.entries[0] == 1

    def test_pure_genus_one(self):
        counts = InvariantVector({0: F(0), 1: F(1), 2: F(0)}, 0)
        out = forward_transform(counts, SINH)
        assert out.entries[1] == 1
        assert out.entries[0] == 0

    def test_even_tower_example(self):
        counts = InvariantVector({0: F(1), 2: F(0)}, 0)
        out = forward_transform(counts, SINH)
        assert out.entries[2] == multicover_coefficient(0, 0, 1, SINH) == F(-1, 24)

    def test_preserves_shape(self):
        counts = InvariantVector({0: F(1)}, c1b=6, max_genus=5)
        out = forward_transform(counts, SIN)
        assert out.c1b == 6 and out.max_genus == 5


class TestInvert:
    def test_diagonal_solve(self):
        out = invert_transform(InvariantVector({0: F(1)}, 0), SINH)
        assert out.entries[0] == 1

    def test_inverse_of_forward_example(self):
        gw = InvariantVector({0: F(1), 2: F(-1, 24)}, 0)
        counts = invert_transform(gw, SINH)
        assert counts.entries == {0: F(1), 1: F(0), 2: F(0)}

    @given(
        st.dictionaries(st.integers(0, 8), st.fractions(max_denominator=40), max_size=9),
        st.sampled_from(C1B_GRID),
        st.sampled_from([SINH, SIN]),
    )
    @settings(max_examples=80, deadline=None)
    def test_round_trip_exact(self, entries, c1b, conv):
        vec = InvariantVector(entries, c1b, max_genus=8)
        gw, counts = forward_transform(vec, conv), invert_transform(vec, conv)
        assert gw == oracle_forward(vec, conv)
        assert counts == oracle_invert(vec, conv)
        assert invert_transform(gw, conv) == vec
        assert forward_transform(counts, conv) == vec

    def test_parity_decoupling(self):
        base = InvariantVector({g: F(1) for g in range(7)}, 0)
        tweaked_odd = InvariantVector(
            {g: F(1) + (g % 2) * F(7) for g in range(7)}, 0
        )
        out_base = forward_transform(base, SINH)
        out_tweaked = forward_transform(tweaked_odd, SINH)
        for g in range(0, 7, 2):
            assert out_base.entries[g] == out_tweaked.entries[g]
        for g in range(1, 7, 2):
            assert out_base.entries[g] != out_tweaked.entries[g]


class TestIntegrality:
    def test_all_integers(self):
        assert integrality_check(InvariantVector({0: F(3), 1: F(-2)}, 0)) == []

    def test_reports_fraction(self):
        vec = InvariantVector({0: F(1, 2)}, 0)
        assert integrality_check(vec) == [(0, F(1, 2))]

    def test_round_tripped_integers_stay_integral(self):
        vec = InvariantVector({g: F((-2) ** g) for g in range(7)}, 2)
        recovered = invert_transform(forward_transform(vec, SINH), SINH)
        assert integrality_check(recovered) == []


GOLDEN_GENERA = (0, 1, 2, 5, 12, 30, 46, 64, MAX_GENUS)
GOLDEN_C1B = (-8, -4, 0, 2, 8, 12)


def golden_inputs(max_genus):
    """Integer, mixed-denominator (1, 7, 24, 5760) and sparse entries."""
    return (
        {h: F((h * 7 + 3) % 11 - 5) for h in range(max_genus + 1)},
        {h: F((-1) ** h * (h + 1), (1, 7, 24, 5760)[h % 4]) for h in range(max_genus + 1)},
        {h: F(h + 1, 7) for h in range(0, max_genus + 1, 3)},
    )


class TestAgainstReference:
    """The int transforms against the Fraction loops of ``transform_oracle``
    and against a digest of those loops' outputs."""

    @pytest.mark.parametrize("max_genus", GOLDEN_GENERA)
    def test_matches_reference(self, max_genus):
        # every c1B below genus 64; two beyond it, where a reference
        # transform takes tens of milliseconds
        c1bs = GOLDEN_C1B if max_genus < 64 else (-4, 12)
        for c1b in c1bs:
            for conv in (SINH, SIN):
                for entries in golden_inputs(max_genus):
                    vec = InvariantVector(entries, c1b=c1b, max_genus=max_genus)
                    assert forward_transform(vec, conv) == oracle_forward(vec, conv)
                    assert invert_transform(vec, conv) == oracle_invert(vec, conv)

    def test_outputs_normalized(self):
        # an output that divides exactly is built from its integer quotient,
        # any other from numerator and denominator; both must come out in
        # lowest terms, so that equal values compare and print alike
        half = {h: F(h % 3 - 1) for h in range(6)} | {1: F(-3, 2)}  # out_1 = E_1
        denominators = set()
        for max_genus in GOLDEN_GENERA:
            for c1b in GOLDEN_C1B:
                for conv in (SINH, SIN):
                    for entries in (*golden_inputs(max_genus), half):
                        vec = InvariantVector(entries, c1b=c1b, max_genus=max(max_genus, 5))
                        for out in (forward_transform(vec, conv), invert_transform(vec, conv)):
                            for value in out.entries.values():
                                n, d = value.numerator, value.denominator
                                assert type(value) is Fraction and d > 0 and gcd(n, d) == 1
                                denominators.add(d)
        assert {1, 2} <= denominators

    # sha256 over json.dumps(v.to_string_map(), sort_keys=True) of the forward
    # and then the inverse transform of every golden input, looping over
    # GOLDEN_GENERA, GOLDEN_C1B, (sinh, sin) and the inputs in that order:
    # 648 outputs, computed with the reference loops.
    GOLDEN_DIGEST = "d4f2568b02eaa5d1f19a8c626667b00ce029db38e09b116019db48cd212ff3a2"

    def test_golden_digest(self):
        digest = hashlib.sha256()
        for max_genus in GOLDEN_GENERA:
            for c1b in GOLDEN_C1B:
                for conv in (SINH, SIN):
                    for entries in golden_inputs(max_genus):
                        vec = InvariantVector(entries, c1b=c1b, max_genus=max_genus)
                        for out in (forward_transform(vec, conv), invert_transform(vec, conv)):
                            digest.update(json.dumps(out.to_string_map(), sort_keys=True).encode())
        assert digest.hexdigest() == self.GOLDEN_DIGEST


class TestTableGrowth:
    """Which tables a transform creates and extends.  A transform reads one
    column index per c1B, shared by both conventions and both directions:
    on a miss it looks up the table of every genus up to max_genus, zero
    entries included, and a call at or below the index's reach touches no
    table at all."""

    @pytest.fixture
    def tables(self, monkeypatch):
        fresh: dict = {}
        monkeypatch.setattr(multicover, "_TABLES", fresh)
        monkeypatch.setattr(multicover, "_COLUMNS", {})
        return fresh

    @pytest.fixture
    def calls(self, monkeypatch):
        """(function, exponent) of every ``_table`` and ``_extend`` call, in order."""
        seen: list = []
        table, extend = multicover._table, multicover._extend

        def counting_table(exponent, j):
            seen.append(("table", exponent))
            return table(exponent, j)

        def counting_extend(table, exponent, j):
            seen.append(("extend", exponent))
            extend(table, exponent, j)

        monkeypatch.setattr(multicover, "_table", counting_table)
        monkeypatch.setattr(multicover, "_extend", counting_extend)
        return seen

    @pytest.mark.parametrize("conv", [SINH, SIN])
    def test_zero_entries_join_the_column(self, tables, conv):
        nonzero = {0: F(2), 3: F(-1, 24), 8: F(5)}
        vec = InvariantVector(nonzero, c1b=4, max_genus=11)
        gw = forward_transform(vec, conv)
        assert set(tables) == {cover_exponent(h, 4) for h in range(12)}
        reach, column = multicover._COLUMNS[cover_exponent(0, 4)]
        assert reach == 11
        assert all(column[h] is tables[cover_exponent(h, 4)] for h in range(12))
        sizes = {exponent: len(table) for exponent, table in tables.items()}
        assert invert_transform(gw, conv) == vec
        assert gw.entries[1] == 0  # below the odd tower's first count
        # the inverse reads the same column: no table is added or grown
        assert {exponent: len(table) for exponent, table in tables.items()} == sizes
        assert list(multicover._COLUMNS) == [cover_exponent(0, 4)]

    def test_one_store_for_both_conventions_and_directions(self, tables):
        vec = InvariantVector({h: F(h % 5 - 2, 1 + h % 2) for h in range(21)}, c1b=-2)
        for conv in (SINH, SIN):
            gw = forward_transform(vec, conv)
            assert invert_transform(gw, conv) == vec
            assert gw == oracle_forward(vec, conv)
        # one table per exponent h - 2 and one column index: no key carries
        # a convention or a direction
        assert sorted(tables) == [cover_exponent(h, -2) for h in range(21)]
        assert list(multicover._COLUMNS) == [cover_exponent(0, -2)]

    @pytest.mark.parametrize("conv", [SINH, SIN])
    def test_one_extend_per_table(self, tables, calls, conv):
        # zero at every h = 2 mod 5
        vec = InvariantVector({h: F(h % 5 - 2) for h in range(47)}, c1b=4, max_genus=46)
        gw = forward_transform(vec, conv)
        # h = 45 and 46 read only C_0, which a new table already holds
        assert sorted(call for call in calls if call[0] == "extend") == [
            ("extend", cover_exponent(h, 4)) for h in range(45)
        ]
        assert sorted(call for call in calls if call[0] == "table") == [
            ("table", cover_exponent(h, 4)) for h in range(47)
        ]
        calls.clear()
        assert invert_transform(gw, conv) == vec
        assert calls == []  # the forward transform's index serves the inverse

    @pytest.mark.parametrize("conv", [SINH, SIN])
    @pytest.mark.parametrize("transform", [forward_transform, invert_transform])
    def test_warm_equals_cold(self, tables, calls, conv, transform):
        extends = [("extend", cover_exponent(h, 4)) for h in range(19)]
        entries = {h: F((-1) ** h * (h + 2), (1, 7, 24, 5760)[h % 4]) for h in range(21)}
        vec = InvariantVector(entries, c1b=4, max_genus=20)
        cold = transform(vec, conv)
        # h = 19 and 20 read only the first entry
        assert [call for call in calls if call[0] == "extend"] == extends
        calls.clear()
        assert transform(vec, conv) == cold  # one index lookup, no table
        lower = InvariantVector({h: entries[h] for h in range(13)}, c1b=4)
        assert transform(lower, conv).entries == {g: cold.entries[g] for g in range(13)}
        assert calls == []
        tables.clear()
        multicover._COLUMNS.clear()
        transform(InvariantVector({h: entries[h] for h in range(19)}, c1b=4), conv)
        column = multicover._COLUMNS[cover_exponent(0, 4)][1]
        # genus 18 grows each table one entry short of what genus 20 reads
        assert [len(table) for table in column] == [(20 - h) // 2 for h in range(19)]
        calls.clear()
        assert transform(vec, conv) == cold
        assert [call for call in calls if call[0] == "extend"] == extends
        assert [len(table) for table in column] == [(20 - h) // 2 + 1 for h in range(19)]
        reference = oracle_invert if transform is invert_transform else oracle_forward
        assert cold == reference(vec, conv)

    @pytest.mark.parametrize("conv", [SINH, SIN])
    @pytest.mark.parametrize("transform", [forward_transform, invert_transform])
    def test_keys_sharing_exponents(self, tables, conv, transform):
        # c1B = 0 reads exponent h - 1 at genus h and c1B = 2 exponent h, so
        # each grows tables the other indexes; the c1B = 0 index built at
        # genus 10 must be rebuilt, not reused, at genus 20
        reference = oracle_forward if transform is forward_transform else oracle_invert
        for c1b, max_genus in ((0, 10), (2, 20), (0, 20)):
            entries = {h: F(h % 4 - 1, (1, 3)[h % 2]) for h in range(max_genus + 1)}
            vec = InvariantVector(entries, c1b=c1b, max_genus=max_genus)
            assert transform(vec, conv) == reference(vec, conv)
            assert multicover._COLUMNS[cover_exponent(0, c1b)][0] == max_genus

    def test_entries_order_does_not_matter(self):
        # entries are stored in genus order, whatever order they are given in
        entries = {h: F(h - 3, h % 3 + 1) for h in range(11)}
        vec = InvariantVector(entries, c1b=-2)
        reordered = InvariantVector(dict(reversed(entries.items())), c1b=-2)
        assert list(reordered.entries) == list(vec.entries) == list(range(11))
        for transform in (forward_transform, invert_transform):
            assert transform(reordered, SIN) == transform(vec, SIN)
            assert list(transform(reordered, SIN).entries) == list(range(11))


def _snapshot():
    return {key: list(table) for key, table in multicover._TABLES.items()}


class TestExactInputs:
    """Genera, pairings and max_genus are ints, entries ints or Fractions;
    anything else raises ``ValueError`` before a table is touched.  A float
    c1B equal to an int would otherwise share that int's table keys."""

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: cover_exponent(1, 2.0), id="exponent-float-c1b"),
            pytest.param(lambda: cover_exponent(1.0, 2), id="exponent-float-h"),
            pytest.param(lambda: cover_exponent(True, 2), id="exponent-bool-h"),
            pytest.param(lambda: cover_exponent(1, False), id="exponent-bool-c1b"),
            pytest.param(lambda: multicover_coefficient(1, 2.0, 3), id="coeff-float-c1b"),
            pytest.param(lambda: multicover_coefficient(1.0, 2, 3), id="coeff-float-h"),
            pytest.param(lambda: multicover_coefficient(1, 2, 3.0), id="coeff-float-g"),
            pytest.param(lambda: multicover_coefficient(1, 2, True), id="coeff-bool-g"),
            pytest.param(lambda: multicover_coefficient(1, F(2), 3), id="coeff-fraction-c1b"),
            pytest.param(lambda: InvariantVector({0: F(1)}, c1b=2.0), id="vector-float-c1b"),
            pytest.param(lambda: InvariantVector({0: F(1)}, c1b=False), id="vector-bool-c1b"),
            pytest.param(lambda: InvariantVector({0: F(1)}, 2, max_genus=2.0), id="vector-float-max"),
            pytest.param(lambda: InvariantVector({0: F(1)}, 2, max_genus=True), id="vector-bool-max"),
            pytest.param(lambda: InvariantVector({0: 0.1}, c1b=2), id="vector-float-entry"),
            pytest.param(lambda: InvariantVector({0: 2.0}, c1b=2), id="vector-integral-float-entry"),
            pytest.param(lambda: InvariantVector({0: True}, c1b=2), id="vector-bool-entry"),
            pytest.param(lambda: InvariantVector({0: "1"}, c1b=2), id="vector-string-entry"),
            pytest.param(lambda: InvariantVector({1.0: F(1)}, c1b=2), id="vector-float-genus"),
            pytest.param(lambda: InvariantVector({0.5: F(1)}, 2, max_genus=2), id="vector-half-genus"),
            pytest.param(lambda: InvariantVector({True: F(1)}, c1b=2), id="vector-bool-genus"),
            pytest.param(
                lambda: InvariantVector({0: F(1)}, c1b=2)._replace(c1b=2.0), id="replace-float-c1b"
            ),
            # a convention must be a Convention: "sin" would read the sinh tables
            *[
                pytest.param(lambda c=c: multicover_coefficient(2, 0, 1, c), id=f"coeff-conv-{c}")
                for c in ("sin", "sinh", None)
            ],
            *[
                pytest.param(
                    lambda c=c, t=t: t(InvariantVector({0: F(1), 2: F(3)}, c1b=2), c),
                    id=f"{t.__name__}-conv-{c}",
                )
                for t in (forward_transform, invert_transform)
                for c in ("sin", "sinh", None)
            ],
        ],
    )
    def test_rejected_and_tables_unchanged(self, call):
        multicover_coefficient(1, 2, 3)  # the table a float c1B = 2.0 would reach
        before = _snapshot()
        with pytest.raises(ValueError):
            call()
        assert _snapshot() == before
        assert multicover_coefficient(1, 2, 3) == oracle_cover_coefficient(1, 2, 3, "sinh")
        vec = InvariantVector({0: F(1), 2: 3}, c1b=2)
        assert forward_transform(vec, SINH) == oracle_forward(vec, SINH)
        assert all(type(n) is int for table in multicover._TABLES.values() for n in table)

    def test_float_c1b_on_empty_tables(self, monkeypatch):
        monkeypatch.setattr(multicover, "_TABLES", {})
        with pytest.raises(ValueError, match="c1B must be an integer"):
            multicover_coefficient(0, 2.0, 4)
        assert multicover._TABLES == {}
        assert multicover_coefficient(0, 2, 4, SIN) == oracle_cover_coefficient(0, 2, 4, "sin")

    @pytest.mark.parametrize("transform", [forward_transform, invert_transform])
    def test_float_put_into_entries_later(self, transform):
        # entries are read-only, in a constructed vector and in a transform's output
        vec = InvariantVector({0: F(1), 1: F(2)}, c1b=0)
        for target in (vec, transform(vec, SINH)):
            with pytest.raises(TypeError):
                target.entries[1] = 0.1
            with pytest.raises(TypeError):
                del target.entries[1]
            assert target.entries.keys() == {0, 1} and type(target.entries[1]) is Fraction
        reference = oracle_forward if transform is forward_transform else oracle_invert
        assert transform(vec, SINH) == reference(vec, SINH)

    def test_exact_values_accepted(self):
        vec = InvariantVector({0: 3, 1: F(1, 2)}, c1b=-2, max_genus=2)
        assert vec.entries == {0: F(3), 1: F(1, 2), 2: F(0)}
        assert all(type(v) is Fraction for v in vec.entries.values())
