"""Decorated fixed-point graphs and their closing sign congruence.

A torus-fixed locus of a real map moduli space is recorded by a decorated
graph: vertices labelled by a genus and a fixed-point index, real edges
(invariant under the involution on the graph) and conjugate edge pairs, each
with a covering degree.  Only the quotient data is stored -- the vertex set
V_+, the real edges, and one edge per conjugate pair; a real edge meets one
quotient vertex (listed twice in its ``ends``) and contributes a single
edge-end, while a conjugate pair contributes one end at each of its two
(possibly equal) quotient ends.  A vertex is named by its position in
``DecoratedGraph.vertices``, and an edge's ``ends`` are such positions.
Vertex flags record one decoration (b, p, in S^-) per edge-end at that
vertex, so that

    |E_R| + 2 |E_+|  =  |Edg|  =  sum_v len(v.flags).

``DecoratedGraph(...)`` checks this identity, so every graph it builds
satisfies it.  The arithmetic genus and total degree are derived, in
:func:`derive_genus_degree` alone:

    g = 1 + |Edg| + 2 sum_v (g(v) - 1),
    d = sum over real edges of deg + 2 * (sum over conjugate pairs of deg).

The module checks the closing mod-2 congruence that ties the localization
sign exponents -- a global term in C(|E_R|, 2), one term per edge and one
per vertex, summed in :func:`congruence_identity_check` -- to (g, d) alone,
in exact integer arithmetic, with every halved intermediate asserted to be
an integer and every quarter floored.  Its verdict is a ``CongruenceResult``
(holds; lhs and rhs mod 2; genus and degree), whose five fields are the
keys that ``realgw graph-check --in`` prints.  Localization weights (the
rational-function contributions) are out of scope; only sign exponents live
here.  A graph document, the JSON wire form, has each record's fields as its
keys (``realgw._wire`` writes it); it is read through ``schemas.check``
against ``schemas.GRAPH_SCHEMA`` before any constructor runs.
"""

from __future__ import annotations

import enum
import random
from collections import namedtuple
from math import comb

from . import _shown, _wire


# Most seeds one ``graph-check --seeds`` run may name.
MAX_SEEDS = 10**6

# Each GraphBounds field, in order: (default, least value, cap).  The caps
# keep one generated graph small (at most 32 vertices, 64 edges and 96
# flags), so that MAX_SEEDS seeds also bound the work and memory of a sweep.
_BOUNDS = {
    "max_vertices": (5, 1, 32),
    "max_vertex_genus": (3, 0, 100),
    "max_real_edges": (4, 0, 32),
    "max_conj_edges": (4, 0, 32),
    "max_edge_degree": (7, 1, 100),
    "max_n": (9, 1, 100),
    "max_multidegree_len": (3, 0, 32),
    "max_multidegree_entry": (6, 1, 100),
    "max_flag_label": (4, 0, 100),
}

_DEFAULTS, _LEAST, _CAPS = zip(*_BOUNDS.values())

# Largest value of each GraphBounds field.
BOUND_CAPS = dict(zip(_BOUNDS, _CAPS))


class GraphError(ValueError):
    """A malformed graph or a violated precondition."""


class EdgeKind(enum.Enum):
    REAL = "real"
    CONJ = "conj"


_REAL, _CONJ = EdgeKind  # read off the enum once: every check compares against these


class InvolutionKind(enum.Enum):
    """Topological type of the target involution (fixed circle vs free)."""

    TAU = "tau"
    ETA = "eta"


class FlagDecoration(namedtuple("FlagDecoration", "b p sminus")):
    """One edge-end at a vertex: indices b, p and whether it lies in S^-."""

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace runs __new__

    def __new__(cls, b: int, p: int, sminus: bool):
        if b < 0 or p < 0:
            raise GraphError(f"flag labels must be >= 0, got b={_shown(b)}, p={_shown(p)}")
        return tuple.__new__(cls, (b, p, sminus))


class GraphVertex(namedtuple("GraphVertex", "genus theta flags")):
    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace runs __new__

    def __new__(cls, genus: int, theta: int, flags=()):
        if genus < 0:
            raise GraphError(f"vertex genus must be >= 0, got {_shown(genus)}")
        if theta < 1:
            raise GraphError(f"fixed-point label theta must be >= 1, got {_shown(theta)}")
        return tuple.__new__(cls, (genus, theta, tuple(flags)))


class GraphEdge(namedtuple("GraphEdge", "kind degree ends")):
    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace runs __new__

    def __new__(cls, kind: EdgeKind, degree: int, ends):
        if degree < 1:
            raise GraphError(f"edge degree must be >= 1, got {_shown(degree)}")
        ends = tuple(ends)
        if len(ends) != 2 or type(ends[0]) is not int or type(ends[1]) is not int:
            raise GraphError(f"edge ends must list two vertex indices, got {_shown(ends)}")
        if kind is _REAL and ends[0] != ends[1]:
            raise GraphError(
                "a real edge meets a single quotient vertex; its two ends "
                f"must coincide, got {_shown(ends)}"
            )
        return tuple.__new__(cls, (kind, degree, ends))


class DecoratedGraph(namedtuple("DecoratedGraph", "vertices edges n a phi")):
    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace runs __new__

    def __new__(cls, vertices, edges, n: int, a, phi: InvolutionKind):
        vertices = tuple(vertices)
        edges = tuple(edges)
        a = tuple(a)
        if n < 1:
            raise GraphError(f"n must be >= 1, got {_shown(n)}")
        if any(x < 1 for x in a):
            raise GraphError(f"multidegree entries must be positive, got {_shown(a)}")
        if (n - len(a)) % 2 != 0:
            raise GraphError(f"n - k must be even, got n={_shown(n)}, k={len(a)}")
        if not vertices:
            raise GraphError("a graph needs at least one vertex")
        num_vertices = len(vertices)
        edge_ends = len(edges)
        for i, e in enumerate(edges):
            for end in e.ends:
                if not 0 <= end < num_vertices:
                    raise GraphError(f"edge {i} references unknown vertex {_shown(end)}")
            if e.kind is _CONJ:
                edge_ends += 1
        flag_count = sum(len(v.flags) for v in vertices)
        if edge_ends != flag_count:
            raise GraphError(
                f"edge-end count {edge_ends} (= |E_R| + 2|E_+|) does not "
                f"match the stored flag count {flag_count}"
            )
        return tuple.__new__(cls, (vertices, edges, n, a, phi))


def derive_genus_degree(graph: DecoratedGraph) -> tuple[int, int]:
    """Arithmetic genus and total degree determined by the decorations."""
    d = 0
    for e in graph.edges:
        d += e.degree if e.kind is _REAL else 2 * e.degree
    # |Edg| = sum_v |E_v|: the flags count the edge-ends (checked at construction)
    g = 1 + sum(len(v.flags) + 2 * (v.genus - 1) for v in graph.vertices)
    return g, d


CongruenceResult = namedtuple("CongruenceResult", "holds lhs rhs genus degree")


def _half(twice: int, what: str) -> int:
    """``twice / 2``, which must be an integer."""
    if twice % 2 != 0:
        raise GraphError(f"non-integral intermediate: {what} = {twice}/2")
    return twice // 2


def congruence_identity_check(graph: DecoratedGraph) -> CongruenceResult:
    """Check the closing congruence tying the sign exponents to (g, d).

    Both sides are computed mod 2 in exact integer arithmetic:

      LHS = (n-2-k)/2 C(|E_R|,2) + sum_{real e} (1 + floor((n-|a|)/4 d(e)))
            + sum_{conj e} ((n-|a|)/2 d(e) - 1) + sum_v (g(v) - 1 + |E_v|),
      RHS = (g + (n-|a|)d/2)(g + (n-|a|)d/2 - 1)/2 + (g - 1).

    Preconditions (the nonzero-contribution regime): |a| = k mod 4, every
    real edge degree odd; n - |a| even then follows from n - k even.  The
    result carries both sides mod 2 and the (g, d) they were computed from.
    """
    n = graph.n
    k = len(graph.a)
    total = sum(graph.a)
    if (total - k) % 4 != 0:
        raise GraphError(f"|a| must equal k mod 4, got |a|={_shown(total)}, k={k}")
    real: list[int] = []
    conj: list[int] = []
    for i, e in enumerate(graph.edges):
        if e.kind is _REAL:
            if e.degree % 2 == 0:
                raise GraphError(
                    f"real edge {i} has even degree {_shown(e.degree)}; the congruence "
                    "is stated for odd real-edge degrees"
                )
            real.append(e.degree)
        else:
            conj.append(e.degree)
    nu = n - total  # even, as n - k is even (DecoratedGraph) and |a| = k mod 4

    r = len(real)
    lhs = _half((n - 2 - k) * comb(r, 2), "(n-2-k)/2 * C(|E_R|,2)")
    for de in real:
        lhs += 1 + nu * de // 4  # floor division: exact also for nu < 0
    for de in conj:
        lhs += _half(nu * de - 2, "(n-|a|)/2 d(e) - 1")
    for v in graph.vertices:
        lhs += v.genus - 1 + len(v.flags)

    g, d = derive_genus_degree(graph)
    m = _half(2 * g + nu * d, "g + (n-|a|)d/2")
    rhs = m * (m - 1) // 2 + (g - 1)

    return CongruenceResult(lhs % 2 == rhs % 2, lhs % 2, rhs % 2, g, d)


# --- random graphs for fuzzing the congruence ---


class GraphBounds(namedtuple("GraphBounds", _BOUNDS, defaults=_DEFAULTS)):
    """Caps for the random graph generator, each an ``int`` (not a bool)
    between its least value and its BOUND_CAPS entry (``_BOUNDS``).

    ``GraphBounds._fields`` names the caps, in order; the CLI accepts exactly
    these as --bounds keys.  The generator draws from the fields alone.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace runs __new__

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value, cap in zip(_BOUNDS, self, _CAPS):
            if type(value) is not int:
                raise GraphError(f"bound {name} must be an integer, got {_shown(value)}")
            if value > cap:
                raise GraphError(f"bound {name}={_shown(value)} exceeds its cap {cap}")
        if any(value < least for value, least in zip(self, _LEAST)):
            shown = ", ".join(f"{name}={_shown(value)}" for name, value in zip(_BOUNDS, self))
            raise GraphError(f"infeasible bounds: GraphBounds({shown})")
        if self.max_n == 1 and self.max_multidegree_len == 0:
            raise GraphError("infeasible bounds: n=1 needs an odd multidegree length")
        return self


def _below(rng: random.Random):
    """``below(m)``: a uniform integer in [0, m), m >= 1, drawn from ``rng``
    exactly as CPython's ``Random._randbelow_with_getrandbits`` draws it
    (3.10 through 3.13): ``getrandbits(m.bit_length())`` until the result is
    below m.  ``randrange(m)``, ``randint(lo, lo + m - 1) - lo`` and the
    index ``choice`` picks in a sequence of length m make the same calls, in
    the same order; ``below`` skips their argument checks."""
    getrandbits = rng.getrandbits

    def below(m: int) -> int:
        k = m.bit_length()
        r = getrandbits(k)
        while r >= m:
            r = getrandbits(k)
        return r

    return below


_PHI_KINDS = tuple(InvolutionKind)  # TAU, ETA: the golden stream pins this order
_DEFAULT_BOUNDS = GraphBounds()


def generate_random_graph(
    seed: int, bounds: GraphBounds | None = None
) -> DecoratedGraph:
    """Deterministic random graph satisfying every structural invariant and
    the nonzero-contribution preconditions of the congruence check."""
    if bounds is None:
        bounds = _DEFAULT_BOUNDS
    rng = random.Random(seed)
    below = _below(rng)

    # Each choice is first + step * below(count) over a progression fixed by
    # the bounds, whose checks keep every count >= 1 (below(0) never returns).
    # n - k must be even, so with lengths up to 0 n is even.
    if bounds.max_multidegree_len:
        n = 1 + below(bounds.max_n)
    else:
        n = 2 + 2 * below(bounds.max_n // 2)
    k = n % 2 + 2 * below((bounds.max_multidegree_len - n % 2) // 2 + 1)

    # Multidegree with |a| = k mod 4: the last entry absorbs the residue r,
    # drawn from r, r + 4, ... up to max(4, max_multidegree_entry).
    a: list[int] = [
        1 + below(bounds.max_multidegree_entry) for _ in range(max(k - 1, 0))
    ]
    if k > 0:
        r = (k - sum(a)) % 4 or 4
        a.append(r + 4 * below((max(4, bounds.max_multidegree_entry) - r) // 4 + 1))

    phi = _PHI_KINDS[below(len(_PHI_KINDS))]
    num_vertices = 1 + below(bounds.max_vertices)
    genera = [below(bounds.max_vertex_genus + 1) for _ in range(num_vertices)]
    thetas = [1 + below(n) for _ in range(num_vertices)]

    odd_degree_count = (bounds.max_edge_degree + 1) // 2
    num_real = below(bounds.max_real_edges + 1)
    num_conj = below(bounds.max_conj_edges + 1)

    edges: list[GraphEdge] = []
    incidences: list[list[FlagDecoration]] = [[] for _ in range(num_vertices)]
    label_width = bounds.max_flag_label + 1

    def new_flag() -> FlagDecoration:
        return FlagDecoration(below(label_width), below(label_width), rng.random() < 0.5)

    for _ in range(num_real):
        v = below(num_vertices)
        edges.append(GraphEdge(_REAL, 1 + 2 * below(odd_degree_count), (v, v)))
        incidences[v].append(new_flag())
    for _ in range(num_conj):
        u = below(num_vertices)
        w = below(num_vertices)
        edges.append(GraphEdge(_CONJ, 1 + below(bounds.max_edge_degree), (u, w)))
        incidences[u].append(new_flag())
        incidences[w].append(new_flag())

    vertices = map(GraphVertex, genera, thetas, incidences)
    return DecoratedGraph(vertices, edges, n, a, phi)


# --- JSON wire format ---


def graph_to_json_dict(graph: DecoratedGraph) -> dict:
    """Graph document: each record's fields are its keys (``realgw._wire``),
    and edge ends are indices into the vertices array."""
    return _wire(graph)


def graph_from_json_dict(doc: dict) -> DecoratedGraph:
    """Parse a graph document as ``graph_to_json_dict`` writes it.  A
    document that breaks ``schemas.GRAPH_SCHEMA`` (``schemas.check``) or a
    constructor's check is a GraphError, never truncated or coerced."""
    from .schemas import GRAPH_SCHEMA, check  # only a process that reads a document loads it

    try:
        check(doc, GRAPH_SCHEMA)
    except ValueError as exc:
        raise GraphError(str(exc)) from None
    vertices = [
        GraphVertex(
            v["genus"], v["theta"], [FlagDecoration(f["b"], f["p"], f["sminus"]) for f in v["flags"]]
        )
        for v in doc["vertices"]
    ]
    edges = [GraphEdge(EdgeKind(e["kind"]), e["degree"], e["ends"]) for e in doc["edges"]]
    return DecoratedGraph(vertices, edges, doc["n"], doc["a"], InvolutionKind(doc["phi"]))
