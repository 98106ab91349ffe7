"""Sign-calculus predicates: every worked example, the parity invariants,
and the stated error conditions."""

import hashlib
import json
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realgw.cli import _choice
from realgw.signs import (
    ArgumentError,
    NeedsArgument,
    RelSpinVariant,
    Route,
    conj_node_induced,
    conj_node_determinant,
    conj_node_moduli,
    conj_pullback_parity,
    cvc_parity,
    doublet_induced,
    doublet_determinant,
    doublet_moduli,
    e_node_induced,
    e_node_determinant,
    e_node_moduli,
    eps_conv,
    eps_factor,
    forget_boundary_sign,
    relspin_determinant,
    relspin_moduli,
    union_induced,
    union_determinant,
    union_moduli,
    union_determinant_exponent,
    union_induced_exponent,
    union_moduli_exponent,
    virtual_dimension,
)

P, C = Route.PROJECTION, Route.CANONICAL
RS_P = RelSpinVariant.RELSPIN_VS_PROJECTION
RS_C = RelSpinVariant.RELSPIN_VS_CANONICAL
S_C = RelSpinVariant.SPIN_VS_CANONICAL


class TestDeterminantComparisons:
    @pytest.mark.parametrize(
        "g,k,d,preserves",
        [(0, 1, 0, True), (0, 1, 1, False), (1, 2, 3, False)],
    )
    def test_cvc(self, g, k, d, preserves):
        assert cvc_parity(g, k, d).preserves is preserves

    @pytest.mark.parametrize(
        "g,k,d,preserves",
        [(0, 1, 0, False), (1, 1, 0, True), (0, 2, 0, True)],
    )
    def test_conj_pullback(self, g, k, d, preserves):
        assert conj_pullback_parity(g, k, d).preserves is preserves

    def test_union_projection_unconditional(self):
        for g1 in range(-2, 4):
            for d1 in (-3, 0, 5):
                assert union_determinant(g1, 2, 3, d1, 1, P).preserves

    @pytest.mark.parametrize(
        "g1,g2,d1,d2,preserves", [(0, 0, 0, 0, False), (1, 0, 0, 0, True)]
    )
    def test_union_canonical(self, g1, g2, d1, d2, preserves):
        assert union_determinant(g1, g2, 1, d1, d2, C).preserves is preserves

    @pytest.mark.parametrize(
        "g,d2,preserves", [(1, 0, True), (0, 0, False)]
    )
    def test_doublet_projection(self, g, d2, preserves):
        assert doublet_determinant(g, 1, d2, P).preserves is preserves

    def test_doublet_canonical_unconditional(self):
        for g in range(-2, 5):
            for d2 in range(-3, 4):
                assert doublet_determinant(g, 1, d2, C).preserves

    @pytest.mark.parametrize("k,preserves", [(1, False), (2, True)])
    def test_conj_node_projection(self, k, preserves):
        assert conj_node_determinant(k, P).preserves is preserves

    def test_conj_node_canonical_unconditional(self):
        for k in range(1, 6):
            assert conj_node_determinant(k, C).preserves

    def test_e_node_projection_even_rank(self):
        for g in (-1, 0, 2):
            for d in (-2, 0, 3):
                assert e_node_determinant(g, 2, d, P).preserves
                assert not e_node_determinant(g, 1, d, P).preserves

    @pytest.mark.parametrize(
        "g,k,d,preserves", [(1, 1, 1, True), (1, 1, 0, False)]
    )
    def test_e_node_canonical(self, g, k, d, preserves):
        assert e_node_determinant(g, k, d, C).preserves is preserves

    def test_e_node_projection_equals_conj_node_projection(self):
        for k in range(1, 9):
            assert (
                e_node_determinant(3, k, -2, P).preserves
                == conj_node_determinant(k, P).preserves
            )

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            cvc_parity(0, 0, 0)


class TestInducedCorollaries:
    def test_union_projection_example(self):
        assert union_induced(1, 5, 0, 0, P).preserves

    def test_union_canonical_formula(self):
        cmp = union_induced(2, 0, 1, 3, C)
        # (1)(-1) + (1+1)(-1+3) = -1 + 4 = 3, odd
        assert not cmp.preserves

    def test_union_swap_symmetry(self):
        for g1, g2, d1, d2 in [(0, 3, 2, -1), (2, 2, 5, 0), (-1, 4, 1, 1)]:
            for route in (P, C):
                assert (
                    union_induced(g1, g2, d1, d2, route).preserves
                    == union_induced(g2, g1, d2, d1, route).preserves
                )

    @pytest.mark.parametrize("g,d2,preserves", [(1, 0, True), (0, 0, False)])
    def test_doublet_projection(self, g, d2, preserves):
        assert doublet_induced(g, d2, P).preserves is preserves

    def test_doublet_canonical_unconditional(self):
        for g in range(-2, 4):
            assert doublet_induced(g, 7, C).preserves

    def test_conj_node(self):
        assert not conj_node_induced(P).preserves
        assert conj_node_induced(C).preserves

    @pytest.mark.parametrize(
        "g,d,route,preserves",
        [(1, 0, P, True), (2, 0, P, False), (0, 2, C, True), (0, 1, C, False)],
    )
    def test_e_node(self, g, d, route, preserves):
        assert e_node_induced(g, d, route).preserves is preserves


class TestRelSpin:
    # hand table: deg V in {0,2,4,6,8}
    TABLE = {
        0: (True, True),
        2: (False, False),
        4: (True, False),
        6: (False, True),
        8: (True, True),
    }

    def test_hand_table(self):
        for deg_v, (e2_same, e3_same) in self.TABLE.items():
            assert relspin_determinant(deg_v, RS_P).preserves is e2_same
            assert relspin_determinant(deg_v, RS_C).preserves is e3_same

    def test_mod8_periodicity(self):
        for deg_v in range(-40, 42, 2):
            assert (
                relspin_determinant(deg_v, RS_C).preserves
                == relspin_determinant(deg_v % 8, RS_C).preserves
            )
            assert (
                relspin_determinant(deg_v, RS_P).preserves
                == relspin_determinant(deg_v % 4, RS_P).preserves
            )

    def test_spin_variant_under_hypothesis(self):
        assert relspin_determinant(0, S_C).preserves
        assert relspin_determinant(-8, S_C).preserves

    def test_spin_variant_outside_hypothesis(self):
        with pytest.raises(ValueError):
            relspin_determinant(2, S_C)

    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError):
            relspin_determinant(3, RS_P)

    def test_variant_from_string(self):
        # the library reads a variant by its exact value; the CLI's one
        # choice reader ignores case and takes nothing else
        assert RelSpinVariant("spin-vs-canonical") is S_C
        with pytest.raises(ValueError):
            RelSpinVariant("Spin-vs-canonical")
        for member in RelSpinVariant:
            assert _choice("variant", member.value.title(), RelSpinVariant) is member
        with pytest.raises(ValueError, match=r"^variant must be 'relspin-vs-projection', "
                           r"'relspin-vs-canonical' or 'spin-vs-canonical', got 'nope'$"):
            _choice("variant", "nope", RelSpinVariant)


class TestModuliComparisons:
    def test_union_projection_example(self):
        assert not union_moduli(3, 0, 0, 0, 0, P).preserves

    def test_union_canonical_adds_degree_term(self):
        # (n-1)(g1-1)(g2-1)/2 = 1 and (g1-1+1)(g2-1+2) = 0: still odd
        assert not union_moduli(3, 0, 0, 2, 4, C).preserves

    def test_union_swap_symmetry(self):
        for route in (P, C):
            assert (
                union_moduli(5, 0, 3, 2, -4, route).preserves
                == union_moduli(5, 3, 0, -4, 2, route).preserves
            )

    def test_union_validates(self):
        with pytest.raises(ValueError):
            union_moduli(4, 0, 0, 0, 0, P)
        with pytest.raises(ValueError):
            union_moduli(3, 0, 0, 1, 0, P)

    def test_doublet_routes(self):
        assert doublet_moduli(0, 1, P, c1l_phi_b=1).preserves
        assert not doublet_moduli(0, 0, P, c1l_phi_b=1).preserves
        assert doublet_moduli(1, 0, C).preserves
        assert not doublet_moduli(0, 0, C).preserves

    def test_doublet_projection_needs_pairing(self):
        with pytest.raises(ValueError):
            doublet_moduli(0, 0, P)

    def test_conj_node(self):
        assert conj_node_moduli(P).preserves
        assert not conj_node_moduli(C).preserves

    def test_e_node_projection_always_flips(self):
        for g in range(-2, 4):
            for c1b in (-4, 0, 6):
                assert not e_node_moduli(g, c1b, P).preserves

    @pytest.mark.parametrize(
        "g,c1b,preserves", [(0, 0, True), (1, 0, False), (1, 2, True)]
    )
    def test_e_node_canonical(self, g, c1b, preserves):
        assert e_node_moduli(g, c1b, C).preserves is preserves

    def test_relspin_moduli_examples(self):
        assert not relspin_moduli(4, RS_P).preserves
        assert relspin_moduli(2, RS_P).preserves
        assert relspin_moduli(2, RS_C).preserves
        assert relspin_moduli(4, RS_C).preserves
        assert not relspin_moduli(0, RS_C).preserves
        assert not relspin_moduli(6, RS_C).preserves

    def test_relspin_moduli_mod_periodicity(self):
        for c1b in range(-16, 18, 2):
            assert (
                relspin_moduli(c1b, RS_C).preserves
                == relspin_moduli(c1b % 8, RS_C).preserves
            )
            assert (
                relspin_moduli(c1b, RS_P).preserves
                == relspin_moduli(c1b % 4, RS_P).preserves
            )

    def test_relspin_moduli_spin_route(self):
        cmp = relspin_moduli(0, S_C, orientable_fixed_line=True)
        assert not cmp.preserves
        with pytest.raises(ValueError):
            relspin_moduli(0, S_C)

    @pytest.mark.parametrize(
        "call,hint,keyword,value",
        [(lambda **kw: doublet_moduli(1, 0, P, **kw), "c1l_phi_b=<int>", "c1l_phi_b", 2),
         (lambda **kw: relspin_moduli(4, S_C, **kw), "orientable_fixed_line=True",
          "orientable_fixed_line", True)],
    )
    def test_refusal_names_the_keyword(self, call, hint, keyword, value):
        # a library caller is told the keyword; realgw sign rewords it with its key
        with pytest.raises(NeedsArgument, match=f"; pass {hint}$") as info:
            call()
        assert info.value.name == keyword
        call(**{keyword: value})

    @pytest.mark.parametrize(
        "call,name,error",
        [
            (lambda: cvc_parity(0, 0, 0), "k", "rank must be >= 1, got 0"),
            (lambda: doublet_moduli(1, -1, P, 0), "s_minus", "|S^-| must be >= 0, got -1"),
            (lambda: relspin_determinant(3, RS_P), "deg_v", "deg V must be even, got 3"),
            (lambda: relspin_determinant(-6, S_C), "deg_v",
             "deg V must be in 4Z for spin-vs-canonical, got -6"),
            (lambda: union_moduli(2, 0, 0, 0, 0, P), "n",
             "complex dimension n must be odd and positive, got 2"),
            (lambda: union_moduli(3, 0, 0, 0, 1, P), "c1b2", "c1B2 must be even, got 1"),
            (lambda: e_node_moduli(0, 3, C), "c1b", "c1B must be even, got 3"),
            (lambda: forget_boundary_sign("left", P), "node_side",
             "node_side must be 'plus' or 'minus', got 'left'"),
            (lambda: virtual_dimension(0, -1, 3, 0), "ell", "marked-pair count ell must be >= 0, got -1"),
            (lambda: virtual_dimension(0, 0, 2, 0), "n",
             "complex dimension n must be odd and positive, got 2"),
            (lambda: virtual_dimension(0, 0, 3, 3), "c1b", "c1B must be even, got 3"),
        ],
        ids=["rank", "s-minus", "deg-v", "deg-v-spin", "n", "c1b2", "c1b", "node-side",
             "dim-ell", "dim-n", "dim-c1b"],
    )
    def test_refusal_names_the_parameter(self, call, name, error):
        # the library's text names the paper's symbol; name is the kernel's parameter
        with pytest.raises(ArgumentError) as info:
            call()
        assert (str(info.value), info.value.name) == (error, name)

    def test_forget_boundary(self):
        for route in (P, C):
            assert forget_boundary_sign("plus", route).sign == 1
            assert forget_boundary_sign("minus", route).sign == -1
        with pytest.raises(ValueError):
            forget_boundary_sign("left", P)


class TestDimensionAndFriends:
    @pytest.mark.parametrize(
        "g,ell,n,c1b,dim",
        [(0, 1, 3, 4, 6), (1, 0, 3, 0, 0), (0, 0, 5, 2, 4)],
    )
    def test_virtual_dimension(self, g, ell, n, c1b, dim):
        assert virtual_dimension(g, ell, n, c1b) == dim

    @given(
        st.integers(-10, 10),
        st.integers(0, 10),
        st.integers(0, 9).map(lambda i: 2 * i + 1),
        st.integers(-20, 20).map(lambda i: 2 * i),
    )
    @settings(max_examples=200)
    def test_dimension_always_even(self, g, ell, n, c1b):
        assert virtual_dimension(g, ell, n, c1b) % 2 == 0

    def test_descriptor_validation(self):
        with pytest.raises(ValueError):
            virtual_dimension(0, -1, 3, 0)
        with pytest.raises(ValueError):
            virtual_dimension(0, 0, 2, 0)
        with pytest.raises(ValueError):
            virtual_dimension(0, 0, 3, 3)

    @pytest.mark.parametrize(
        "g,c1b,n,conv,factor",
        [(0, 0, 3, 0, 0), (2, 0, 3, 1, 1), (2, 0, 5, 1, 0)],
    )
    def test_convention_exponents(self, g, c1b, n, conv, factor):
        assert (eps_conv(g, c1b) % 2, eps_factor(g, n) % 2) == (conv, factor)

    def test_convention_exponents_keep_their_bits(self):
        # (g, c1B, n, eps_conv bit, eps_factor bit) over the grid, digested
        # from the single (g, c1b, n) function these two kernels replace
        rows = [[g, c1b, n, eps_conv(g, c1b) % 2, eps_factor(g, n) % 2]
                for g, c1b, n in product(range(-6, 10), range(-16, 17, 2), (1, 3, 5, 7, 9))]
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]
        assert (len(rows), digest) == (1360, "74b095388cc26697")

    def test_convention_exponents_are_ints(self):
        assert (eps_conv(3, -2), eps_factor(3, 5)) == (1, 6)
        assert type(eps_conv(3, -2)) is int and type(eps_factor(3, 5)) is int

    @pytest.mark.parametrize(
        "call,error",
        [
            (lambda: eps_conv(0, 3), "c1B must be even, got 3"),
            (lambda: eps_factor(0, 2), "complex dimension n must be odd and positive, got 2"),
            (lambda: eps_factor(0, -1), "complex dimension n must be odd and positive, got -1"),
        ],
        ids=["conv-odd-c1b", "factor-even-n", "factor-negative-n"],
    )
    def test_convention_exponent_refusals(self, call, error):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == error

    def test_route_from_string(self):
        # the library reads a route by its exact value; the CLI's one
        # choice reader ignores case and takes nothing else
        assert Route("projection") is P
        with pytest.raises(ValueError):
            Route("Projection")
        for member in Route:
            assert _choice("variant", member.value.capitalize(), Route) is member
        with pytest.raises(ValueError, match=r"^variant must be 'projection' or 'canonical', got 'Middle'$"):
            _choice("variant", "Middle", Route)


# Each union exponent as u(p, route, A, B) over components A = (genus,
# degree or c1B), with the values of its other parameter p and the charges
# (degrees or pairings) a component takes.
UNION_EXPONENTS = {
    "union_determinant": (range(1, 4), range(-2, 3), lambda k, route, a, b:
                          union_determinant_exponent(a[0], b[0], k, a[1], b[1], route)),
    "union_induced": ((None,), range(-2, 3), lambda _, route, a, b:
                      union_induced_exponent(a[0], b[0], a[1], b[1], route)),
    "union_moduli": ((1, 3, 5, 7), range(-4, 5, 2), lambda n, route, a, b:
                     union_moduli_exponent(n, a[0], b[0], a[1], b[1], route)),
}


@pytest.mark.parametrize("name", sorted(UNION_EXPONENTS))
def test_union_exponents_associate(name):
    """u(A, B) + u(A ⊔ B, C) ≡ u(B, C) + u(A, B ⊔ C) mod 2, where A ⊔ B has
    genus g1 + g2 - 1 and the summed degree or c1B, on both routes.

    It holds because both orientations over A ⊔ B ⊔ C do not depend on the
    grouping; in the formulas it shows as each exponent being bilinear mod 2
    in quantities additive under ⊔ (g - 1, the index, g - 1 + c1B/2).  It
    checks each union kernel alone, where the ``verify`` identities compare
    it with another predicate."""
    params, charges, u = UNION_EXPONENTS[name]
    components = list(product(range(-2, 4), charges))

    def union(a, b):
        return a[0] + b[0] - 1, a[1] + b[1]

    failures = [
        (p, route, a, b, c)
        for p, route in product(params, Route)
        for a, b, c in product(components, repeat=3)
        if (u(p, route, a, b) + u(p, route, union(a, b), c)
            - u(p, route, b, c) - u(p, route, a, union(b, c))) % 2
    ]
    assert failures == []
