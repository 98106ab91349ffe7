"""Each sign predicate is built from its int kernel: the predicate's
``preserves`` is the kernel's parity on every argument tuple of the
``verify`` grids, passed by position or by the kernel's parameter names,
both raise the same errors, and the ``condition`` text the CLI prints is
unchanged."""

import inspect
import re
from itertools import product

import pytest

from realgw import signs
from realgw.signs import RelSpinVariant, Route
from realgw.verify import DEG_V_RANGE, DEGREE_RANGE, GENUS_RANGE, RANK_RANGE

P, C = Route.PROJECTION, Route.CANONICAL
RS_P = RelSpinVariant.RELSPIN_VS_PROJECTION
RS_C = RelSpinVariant.RELSPIN_VS_CANONICAL
S_C = RelSpinVariant.SPIN_VS_CANONICAL

G, K, D = GENUS_RANGE, RANK_RANGE, DEGREE_RANGE
ROUTES = tuple(Route)
VARIANTS = tuple(RelSpinVariant)
EVEN = range(-8, 9, 2)
DEG_V = (*DEG_V_RANGE, -3, 5)

# Predicate name -> the ranges of its arguments.  Out-of-domain values are
# included on purpose: rank 0, even n, odd pairings, a missing hypothesis.
GRIDS = {
    "cvc_parity": (G, range(0, 5), D),
    "conj_pullback_parity": (G, K, D),
    "union_determinant": (G, G, K, D, D, ROUTES),
    "doublet_determinant": (G, range(0, 5), D, ROUTES),
    "conj_node_determinant": (range(0, 5), ROUTES),
    "e_node_determinant": (G, K, D, ROUTES),
    "union_induced": (G, G, D, D, ROUTES),
    "doublet_induced": (G, D, ROUTES),
    "conj_node_induced": (ROUTES,),
    "e_node_induced": (G, D, ROUTES),
    "relspin_determinant": (DEG_V, VARIANTS),
    "union_moduli": ((1, 2, 3, 5), G, G, (-3, *EVEN), EVEN, ROUTES),
    "doublet_moduli": (G, range(-1, 4), ROUTES, (None, -1, 0, 3)),
    "conj_node_moduli": (ROUTES,),
    "e_node_moduli": (G, (-3, *EVEN), ROUTES),
    "relspin_moduli": (DEG_V, VARIANTS, (False, True)),
    "forget_boundary_sign": (("plus", "minus", "middle"), ROUTES),
}


def test_every_kernel_has_a_grid():
    kernels = {
        name[: -len("_exponent")]
        for name in dir(signs)
        if name.endswith("_exponent")
    }
    assert kernels == set(GRIDS)


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_wrapper_is_kernel_parity(name):
    predicate = getattr(signs, name)
    kernel = getattr(signs, f"{name}_exponent")
    assert predicate.__name__ == name
    assert predicate.__doc__ == kernel.__doc__
    parameters = list(inspect.signature(kernel).parameters)
    checked = 0
    for args in product(*GRIDS[name]):
        kwargs = dict(zip(parameters, args))
        try:
            value = kernel(*args)
        except ValueError as exc:
            for call in (lambda: predicate(*args), lambda: predicate(**kwargs)):
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    call()
            continue
        assert type(value) is int, (args, value)
        comparison = predicate(*args)
        assert comparison.preserves == (value % 2 == 0), args
        # by keyword: the condition takes the kernel's parameter names
        assert predicate(**kwargs) == comparison, args
        checked += 1
    assert checked > 0


GOLDEN = [
    (signs.cvc_parity, (0, 1, 1), False, "ind(ind-1)/2 with ind=(1-g)k+d=2 = 1 is odd"),
    (signs.cvc_parity, (-2, 3, -5), True, "ind(ind-1)/2 with ind=(1-g)k+d=4 = 6 is even"),
    (signs.conj_pullback_parity, (1, 2, 3), False, "ind=(1-g)k+d = 3 is odd"),
    (signs.union_determinant, (0, 0, 1, 0, 0, P), True, "always preserves"),
    (signs.union_determinant, (2, -1, 3, 4, -7, C), False, "ind1*ind2 with ind1=1, ind2=-1 = -1 is odd"),
    (signs.doublet_determinant, (0, 2, 3, P), False, "(1-g)k+d2 = 5 is odd"),
    (signs.doublet_determinant, (0, 2, 3, C), True, "always preserves"),
    (signs.conj_node_determinant, (3, P), False, "rank k = 3 is odd"),
    (signs.conj_node_determinant, (3, C), True, "always preserves"),
    (signs.e_node_determinant, (1, 2, -3, P), True, "rank k = 2 is even"),
    (signs.e_node_determinant, (1, 3, -4, C), False, "k(g+d) with g+d=-3 = -9 is odd"),
    (signs.union_induced, (2, 0, 1, 3, P), False, "(g1-1)(g2-1) = (1)(-1) = -1 is odd"),
    (signs.union_induced, (2, 0, 1, 3, C), False, "(g1-1)(g2-1) + (g1-1+d1)(g2-1+d2) = 3 is odd"),
    (signs.doublet_induced, (4, -2, P), False, "g-1+d2 = 1 is odd"),
    (signs.doublet_induced, (4, -2, C), True, "always preserves"),
    (signs.conj_node_induced, (P,), False, "always flips"),
    (signs.conj_node_induced, (C,), True, "always preserves"),
    (signs.e_node_induced, (-1, 5, P), True, "g-1 = -2 is even"),
    (signs.e_node_induced, (-1, 5, C), False, "deg d = 5 is odd"),
    (signs.relspin_determinant, (-6, RS_P), False, "deg V = -6 is 2 mod 4 (agree iff 0)"),
    (signs.relspin_determinant, (10, RS_C), False, "deg V = 10 is 2 mod 8 (agree iff 0 or 6)"),
    (signs.relspin_determinant, (-4, S_C), True, "always preserves (deg V in 4Z)"),
    (signs.union_moduli, (5, 3, -2, 4, -6, P), True, "(n-1)(g1-1)(g2-1)/2 = -12 is even"),
    (signs.union_moduli, (5, 3, -2, 4, -6, C), True,
     "(n-1)(g1-1)(g2-1)/2 + (g1-1+c1B1/2)(g2-1+c1B2/2) = -36 is even"),
    (signs.doublet_moduli, (2, 3, P, -1), True, "<c1(L),phi_*B> + |S^-| = 2 is even"),
    (signs.doublet_moduli, (2, 3, C), True, "(g-1) + |S^-| = 4 is even"),
    (signs.conj_node_moduli, (P,), True, "always preserves"),
    (signs.conj_node_moduli, (C,), False, "always flips"),
    (signs.e_node_moduli, (3, -6, P), False, "always flips"),
    (signs.e_node_moduli, (3, -6, C), True, "g + c1B/2 = 0 is even"),
    (signs.relspin_moduli, (-10, RS_P), True, "<c1,B> = -10 is 2 mod 4 (agree iff nonzero)"),
    (signs.relspin_moduli, (12, RS_C), True, "<c1,B> = 12 is 4 mod 8 (agree iff 2 or 4)"),
    (signs.relspin_moduli, (8, S_C, True), False, "always flips (orientable fixed-locus bundle)"),
    (signs.forget_boundary_sign, ("plus", C), True, "sign +1 for the plus side"),
    (signs.forget_boundary_sign, ("minus", P), False, "sign -1 for the minus side"),
]


@pytest.mark.parametrize(
    "predicate,args,preserves,condition",
    GOLDEN,
    ids=[f"{p.__name__}-{i}" for i, (p, *_) in enumerate(GOLDEN)],
)
def test_golden_conditions(predicate, args, preserves, condition):
    comparison = predicate(*args)
    assert comparison.preserves is preserves
    assert comparison.condition == condition
