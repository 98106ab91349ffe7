"""Orientation-comparison predicates over integer descriptors.

Each comparison of two natural orientations (canonical vs projection on
determinants of real Cauchy-Riemann operators, intrinsic vs pullback on
nodal strata, relative-spin vs stabilization, ...) depends only on a handful
of integers: genus, rank, degree, the pairing <c1,B>.  This module encodes
every such comparison as a total pure predicate returning a
:class:`Comparison`, whose fields are the keys ``realgw sign`` prints:
``preserves`` means the two orientations agree (the relevant diagram
commutes), ``sign`` is the +-1 factor, ``condition`` the evaluated formula.

Each comparison ``p`` is stated once, as its kernel ``p_exponent``: it
takes the comparison's arguments, makes its checks and returns an int whose
parity is the flip bit -- the sign is (-1)**exponent, and 0 means the
orientations agree.  One factory, ``_predicate``, makes the public
predicate ``p`` from the kernel and a ``condition`` that renders the
evaluated formula for humans and the CLI: ``p`` returns the kernel's parity
as ``preserves``, takes the kernel's parameters by position or by name,
and carries the kernel's docstring and its name without ``_exponent``.
The factory also records each predicate in :data:`PREDICATES`, the
registry of predicate ids in definition order, from which ``realgw sign``
reads the ids and, through each kernel's signature, their parameters.
A kernel that refuses an argument's value raises :class:`ArgumentError`,
which carries the parameter's name, so ``realgw sign`` names its key.
Sweeps (:mod:`realgw.verify`) call the kernels, and the two convention
exponents ``eps_conv(g, c1b)`` and ``eps_factor(g, n)``, int kernels too.
So is ``virtual_dimension(g, ell, n, c1b)``, which ``realgw dim`` prints:
every statement here takes integers and checks them itself.

Two stabilization routes orient the moduli side: PROJECTION stabilizes by
the summand pair L + conj(L)-bar with its projection orientation, CANONICAL
by the doubled pair 2L with its canonical orientation (available only when
the line bundle carries a conjugation lift).  Determinant-level variants
and moduli-level routes share the :class:`Route` enum.

Geometry is reduced to integer shadows throughout: bundles, spin structures
and homotopy classes are never represented.  Negative genus is legal
everywhere (disconnected domains satisfy g - 1 = sum (g_i - 1)).
"""

from __future__ import annotations

import enum
from collections import namedtuple

from . import _shown


class Route(enum.Enum):
    """Which distinguished orientation backs a comparison."""

    PROJECTION = "projection"
    CANONICAL = "canonical"


class RelSpinVariant(enum.Enum):
    """Which pair of orientations a relative-spin comparison weighs."""

    RELSPIN_VS_PROJECTION = "relspin-vs-projection"
    RELSPIN_VS_CANONICAL = "relspin-vs-canonical"
    SPIN_VS_CANONICAL = "spin-vs-canonical"


#: Outcome of an orientation comparison (see the module doc).
Comparison = namedtuple("Comparison", "preserves sign condition")


class ArgumentError(ValueError):
    """Refusal of the value of the kernel parameter ``name``: its text is
    ``label`` (the paper's word for it, else ``name``), then ``rule``."""

    def __init__(self, name: str, rule: str, label: str | None = None):
        super().__init__(f"{label or name} {rule}")
        self.name, self.rule = name, rule


class NeedsArgument(ValueError):
    """Refusal of a call that left out an argument its branch needs: ``why``,
    then the keyword ``name`` and the ``shape`` of the value to pass."""

    def __init__(self, why: str, name: str, shape: str):
        super().__init__(f"{why}; pass {name}={shape}")
        self.why, self.name, self.shape = why, name, shape


def _parity(value: int, formula: str) -> str:
    """A condition read off a parity: the formula, its value and its parity."""
    return f"{formula} = {value} is {'even' if value % 2 == 0 else 'odd'}"


def _constant(value: int, note: str = "") -> str:
    """The condition of a kernel that is constant on the chosen branch."""
    return ("always preserves" if value % 2 == 0 else "always flips") + note


#: Predicate id -> public predicate, in definition order; filled by ``_predicate``.
PREDICATES: dict = {}


def _predicate(kernel, condition, predicate_id=None):
    """The public predicate of ``kernel`` (see the module doc), recorded in
    ``PREDICATES`` under ``predicate_id``.

    ``condition(value, *args, **kwargs)`` gives the evaluated text; it takes
    the kernel's value and then the kernel's parameters, under their names.
    """

    def predicate(*args, **kwargs) -> Comparison:
        value = kernel(*args, **kwargs)
        preserves = value % 2 == 0
        return Comparison(preserves, 1 if preserves else -1, condition(value, *args, **kwargs))

    predicate.__name__ = predicate.__qualname__ = kernel.__name__[: -len("_exponent")]
    predicate.__doc__ = kernel.__doc__
    predicate.__wrapped__ = kernel
    PREDICATES[predicate_id or predicate.__name__.replace("_", "-")] = predicate
    return predicate


# The projection and canonical routes, read off the enum once: every kernel
# and condition compares against these module constants.
_P, _C = Route


def _require_rank(k: int) -> None:
    if k < 1:
        raise ArgumentError("k", f"must be >= 1, got {_shown(k)}", "rank")


def _require_even(name: str, value: int, label: str) -> None:
    if value % 2 != 0:
        raise ArgumentError(name, f"must be even, got {_shown(value)}", label)


def _require_odd_dim(n: int) -> None:
    if n < 1 or n % 2 == 0:
        raise ArgumentError("n", f"must be odd and positive, got {_shown(n)}",
                            "complex dimension n")


def cr_index(g: int, k: int, d: int) -> int:
    """Complex index (1-g)k + d of a rank-k degree-d CR operator on genus g."""
    _require_rank(k)
    return (1 - g) * k + d


def cvc_parity_exponent(g: int, k: int, d: int) -> int:
    """Canonical (doubled-pair) vs projection orientation on the determinant.

    Agrees iff ind(ind-1)/2 is even, where ind = (1-g)k + d; the exponent
    is ind(ind-1)/2.
    """
    ind = cr_index(g, k, d)
    return ind * (ind - 1) // 2

cvc_parity = _predicate(cvc_parity_exponent, lambda v, g, k, d: _parity(
    v, f"ind(ind-1)/2 with ind=(1-g)k+d={cr_index(g, k, d)}"))


def conj_pullback_parity_exponent(g: int, k: int, d: int) -> int:
    """Conjugate-pullback identification vs the two complex orientations.

    Agrees iff the index (1-g)k + d is even; the exponent is the index.
    """
    return cr_index(g, k, d)

conj_pullback_parity = _predicate(
    conj_pullback_parity_exponent, lambda v, g, k, d: _parity(v, "ind=(1-g)k+d"))


def union_determinant_exponent(
    g1: int, g2: int, k: int, d1: int, d2: int, route: Route
) -> int:
    """Disjoint-union factorization of the determinant line.

    Projection orientations always survive the split; canonical orientations
    survive iff the product of the two component indices is even.  The
    exponent is 0 or ind1*ind2.
    """
    _require_rank(k)
    return 0 if route is _P else cr_index(g1, k, d1) * cr_index(g2, k, d2)

union_determinant = _predicate(
    union_determinant_exponent, lambda v, g1, g2, k, d1, d2, route: _constant(v) if route is _P
    else _parity(v, f"ind1*ind2 with ind1={cr_index(g1, k, d1)}, ind2={cr_index(g2, k, d2)}"))


def doublet_determinant_exponent(g: int, k: int, d2: int, route: Route) -> int:
    """Restriction of a doublet determinant to one half.

    Projection vs complex agrees iff (1-g)k + d2 is even (d2 the degree on
    the other half); canonical vs complex (which presumes a conjugation lift
    on the bundle) agrees unconditionally.  The exponent is (1-g)k + d2 or 0.
    """
    _require_rank(k)
    return 0 if route is _C else (1 - g) * k + d2

doublet_determinant = _predicate(
    doublet_determinant_exponent,
    lambda v, g, k, d2, route: _parity(v, "(1-g)k+d2") if route is _P else _constant(v))


def conj_node_determinant_exponent(k: int, route: Route) -> int:
    """Normalization at a conjugate node pair vs the evaluation factor.

    Projection orientations survive iff the rank is even; canonical
    orientations always survive.  The exponent is the rank or 0.
    """
    _require_rank(k)
    return 0 if route is _C else k

conj_node_determinant = _predicate(
    conj_node_determinant_exponent,
    lambda v, k, route: _parity(v, "rank k") if route is _P else _constant(v))


def e_node_determinant_exponent(g: int, k: int, d: int, route: Route) -> int:
    """Normalization at an isolated real node vs the quotient factor.

    Projection orientations survive iff the rank k is even; canonical
    orientations survive iff k(g + d) is even.  The exponent is k or k(g+d).
    """
    _require_rank(k)
    return k if route is _P else k * (g + d)

e_node_determinant = _predicate(
    e_node_determinant_exponent, lambda v, g, k, d, route: _parity(
        v, "rank k" if route is _P else f"k(g+d) with g+d={g + d}"))


# --- comparisons of the orientations induced by a real orientation ---


def union_induced_exponent(g1: int, g2: int, d1: int, d2: int, route: Route) -> int:
    """Induced-orientation analogue of the disjoint-union split."""
    base = (g1 - 1) * (g2 - 1)
    return base if route is _P else base + (g1 - 1 + d1) * (g2 - 1 + d2)

union_induced = _predicate(union_induced_exponent, lambda v, g1, g2, d1, d2, route: _parity(
    v, f"(g1-1)(g2-1) = ({g1 - 1})({g2 - 1})" if route is _P
    else "(g1-1)(g2-1) + (g1-1+d1)(g2-1+d2)"))


def doublet_induced_exponent(g: int, d2: int, route: Route) -> int:
    """Induced vs complex orientation when restricting a doublet to a half.

    The exponent is g-1+d2 or 0.
    """
    return 0 if route is _C else g - 1 + d2

doublet_induced = _predicate(
    doublet_induced_exponent,
    lambda v, g, d2, route: _parity(v, "g-1+d2") if route is _P else _constant(v))


def conj_node_induced_exponent(route: Route) -> int:
    """Induced orientations across a conjugate-pair normalization square.

    The exponent is 1 on the projection route.
    """
    return 1 if route is _P else 0

conj_node_induced = _predicate(conj_node_induced_exponent, lambda v, route: _constant(v))


def e_node_induced_exponent(g: int, d: int, route: Route) -> int:
    """Induced orientations across an isolated-real-node normalization.

    The exponent is g-1 or d.
    """
    return g - 1 if route is _P else d

e_node_induced = _predicate(
    e_node_induced_exponent,
    lambda v, g, d, route: _parity(v, "g-1" if route is _P else "deg d"))


def relspin_determinant_exponent(deg_v: int, variant: RelSpinVariant) -> int:
    """Relative-spin / spin orientation vs an induced one, over the disc pair.

    The relative-spin orientation matches the projection-route one iff
    deg V is divisible by 4, and the canonical-route one iff deg V mod 8 is
    0 or 6.  The plain-spin comparison is stated only for deg V in 4Z, where
    it matches the canonical-route orientation.  The exponent is 0 where the
    orientations agree, 1 where they differ.
    """
    _require_even("deg_v", deg_v, "deg V")
    if variant is RelSpinVariant.RELSPIN_VS_PROJECTION:
        return 0 if deg_v % 4 == 0 else 1
    if variant is RelSpinVariant.RELSPIN_VS_CANONICAL:
        return 0 if deg_v % 8 in (0, 6) else 1
    if deg_v % 4 != 0:
        raise ArgumentError("deg_v", f"must be in 4Z for spin-vs-canonical, got {_shown(deg_v)}",
                            "deg V")
    return 0

relspin_determinant = _predicate(relspin_determinant_exponent, lambda v, deg_v, variant: (
    f"deg V = {deg_v} is {deg_v % 4} mod 4 (agree iff 0)"
    if variant is RelSpinVariant.RELSPIN_VS_PROJECTION
    else f"deg V = {deg_v} is {deg_v % 8} mod 8 (agree iff 0 or 6)"
    if variant is RelSpinVariant.RELSPIN_VS_CANONICAL
    else _constant(v, " (deg V in 4Z)")), "relspin")


def union_moduli_exponent(
    n: int, g1: int, g2: int, c1b1: int, c1b2: int, route: Route
) -> int:
    """Moduli-space product orientation vs the disjoint-union orientation."""
    _require_odd_dim(n)
    _require_even("c1b1", c1b1, "c1B1")
    _require_even("c1b2", c1b2, "c1B2")
    base = (n - 1) * (g1 - 1) * (g2 - 1) // 2
    return base if route is _P else base + (g1 - 1 + c1b1 // 2) * (g2 - 1 + c1b2 // 2)

union_moduli = _predicate(union_moduli_exponent, lambda v, n, g1, g2, c1b1, c1b2, route: _parity(
    v, "(n-1)(g1-1)(g2-1)/2" if route is _P
    else "(n-1)(g1-1)(g2-1)/2 + (g1-1+c1B1/2)(g2-1+c1B2/2)"))


def doublet_moduli_exponent(
    g: int, s_minus: int, route: Route, c1l_phi_b: int | None = None
) -> int:
    """Doubling embedding of a complex moduli space vs its complex orientation.

    The projection route needs the pairing <c1(L), phi_* B> alongside the
    count |S^-| of negatively-doubled marked points; the canonical route
    needs only the genus and |S^-|.
    """
    if s_minus < 0:
        raise ArgumentError("s_minus", f"must be >= 0, got {_shown(s_minus)}", "|S^-|")
    if route is _P:
        if c1l_phi_b is None:
            raise NeedsArgument("projection-route doubling comparison needs the pairing "
                                "<c1(L), phi_* B>", "c1l_phi_b", "<int>")
        return c1l_phi_b + s_minus
    return g - 1 + s_minus

doublet_moduli = _predicate(
    doublet_moduli_exponent, lambda v, g, s_minus, route, c1l_phi_b=None: _parity(
        v, "<c1(L),phi_*B> + |S^-|" if route is _P else "(g-1) + |S^-|"))


def conj_node_moduli_exponent(route: Route) -> int:
    """Intrinsic vs pullback orientation on the conjugate-pair-node stratum.

    The exponent is 1 on the canonical route.
    """
    return 0 if route is _P else 1

conj_node_moduli = _predicate(conj_node_moduli_exponent, lambda v, route: _constant(v))


def e_node_moduli_exponent(g: int, c1b: int, route: Route) -> int:
    """Intrinsic vs pullback orientation on the isolated-real-node stratum.

    The exponent is 1 or g + c1B/2.
    """
    _require_even("c1b", c1b, "c1B")
    return 1 if route is _P else g + c1b // 2

e_node_moduli = _predicate(
    e_node_moduli_exponent,
    lambda v, g, c1b, route: _constant(v) if route is _P else _parity(v, "g + c1B/2"))


def relspin_moduli_exponent(
    c1b: int,
    variant: RelSpinVariant,
    orientable_fixed_line: bool = False,
) -> int:
    """Relative-spin / spin orientation of the rational-map space vs induced.

    The plain-spin claim presumes the fixed-locus restriction of the
    orienting line bundle is orientable; pass ``orientable_fixed_line=True``
    to assert that hypothesis (the comparison is an unconditional flip).
    The exponent is 0 where the orientations agree, 1 where they differ.
    """
    _require_even("c1b", c1b, "c1B")
    if variant is RelSpinVariant.RELSPIN_VS_PROJECTION:
        return 0 if c1b % 4 != 0 else 1
    if variant is RelSpinVariant.RELSPIN_VS_CANONICAL:
        return 0 if c1b % 8 in (2, 4) else 1
    if not orientable_fixed_line:
        raise NeedsArgument("spin-vs-canonical moduli comparison is only stated when the "
                            "fixed-locus line bundle is orientable",
                            "orientable_fixed_line", "True")
    return 1

relspin_moduli = _predicate(
    relspin_moduli_exponent, lambda v, c1b, variant, orientable_fixed_line=False: (
        f"<c1,B> = {c1b} is {c1b % 4} mod 4 (agree iff nonzero)"
        if variant is RelSpinVariant.RELSPIN_VS_PROJECTION
        else f"<c1,B> = {c1b} is {c1b % 8} mod 8 (agree iff 2 or 4)"
        if variant is RelSpinVariant.RELSPIN_VS_CANONICAL
        else _constant(v, " (orientable fixed-locus bundle)")))


def forget_boundary_sign_exponent(node_side: str, route: Route) -> int:
    """Sign of forgetting a conjugate marked pair on a boundary-type stratum.

    +1 when the ghost bubble carries the plus point of the forgotten pair,
    -1 when it carries the minus point; identical on both routes.  The
    exponent is 1 on the minus side.
    """
    if node_side not in ("plus", "minus"):
        raise ArgumentError("node_side", f"must be 'plus' or 'minus', got {_shown(node_side)}")
    return 0 if node_side == "plus" else 1

forget_boundary_sign = _predicate(
    forget_boundary_sign_exponent,
    lambda v, node_side, route: f"sign {'+1' if v % 2 == 0 else '-1'} for the {node_side} side",
    "forget-boundary")


# --- dimension and the convention exponents ---


def virtual_dimension(g: int, ell: int, n: int, c1b: int) -> int:
    """Expected dimension (1-g)(n-3) + 2*ell + <c1,B> of the real map moduli
    space with ``ell`` marked pairs, the odd complex target dimension ``n``
    and the even pairing ``c1b`` = <c1(X,omega), B>; always even."""
    if ell < 0:
        raise ArgumentError("ell", f"must be >= 0, got {_shown(ell)}", "marked-pair count ell")
    _require_odd_dim(n)
    _require_even("c1b", c1b, "c1B")
    return (1 - g) * (n - 3) + 2 * ell + c1b


def eps_conv(g: int, c1b: int) -> int:
    """Convention exponent separating the two stabilization routes:
    (g + c1B/2)(g - 1 + c1B/2)/2, whose parity is the bit."""
    _require_even("c1b", c1b, "c1B")
    u = g + c1b // 2
    return u * (u - 1) // 2


def eps_factor(g: int, n: int) -> int:
    """Convention exponent separating the canonical and projection
    orientations of the doubled trivial factors: (n-1)/2 * g(g-1)/2, whose
    parity is the bit."""
    _require_odd_dim(n)
    return (n - 1) // 2 * (g * (g - 1) // 2)
