"""Seeded inputs, expected outputs and output checks for the four workloads.

Every workload is a list of cycles.  A cycle has the same composition for
every seed (the same operation kinds and input sizes, in the same order);
the seed only picks the values.  Runs measure whole cycles, so the mix of
operations, and with it every median and tail, does not depend on where
the clock stopped.

Expected outputs come from oracles kept here, independent of the library
(cover coefficients, graph congruence), from fixed facts of the command
line contract (identity grid sizes, window sizes), or, for ``sign``, from
the library predicate itself.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

C1B_VALUES = tuple(range(-4, 9, 2))
CONVENTIONS = ("sinh", "sin")


@dataclass(frozen=True)
class Request:
    """One operation: a CLI process (argv, stdin) and what it must print.

    ``expect`` is matched against the parsed stdout: dict keys it names
    must be present and equal (other keys are allowed), lists match element
    by element.  ``feed`` sends the previous operation's stdout as stdin.
    ``pair_sign`` asks that the printed ``value`` equal this sign times the
    previous operation's ``value``.
    """

    kind: str
    argv: tuple
    expect: object
    items: int
    stdin: str | None = None
    feed: bool = False
    pair_sign: int | None = None


def matches(actual, expected) -> bool:
    if isinstance(expected, dict):
        return isinstance(actual, dict) and all(
            key in actual and matches(actual[key], value) for key, value in expected.items()
        )
    if isinstance(expected, list):
        return (
            isinstance(actual, list)
            and len(actual) == len(expected)
            and all(matches(a, e) for a, e in zip(actual, expected))
        )
    return type(actual) is type(expected) and actual == expected


def check_output(request: Request, stdout: str, previous_stdout: str | None) -> bool:
    try:
        doc = json.loads(stdout)
        if not matches(doc, request.expect):
            return False
        if request.pair_sign is not None:
            previous = Fraction(json.loads(previous_stdout)["value"])
            return Fraction(doc["value"]) == request.pair_sign * previous
    except (ValueError, TypeError, KeyError):
        return False
    return True


def fmt(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# --- cover coefficients --------------------------------------------------


class CoverOracle:
    """Cover coefficients by plain repeated multiplication of series in u = t².

    C(h, j) is the u^j coefficient of b(u)^(h - 1 + c1B/2), where b is the
    series of sinh(t/2)/(t/2) (or sin) in u: b_j = (±1)^j / (4^j (2j+1)!).
    Negative powers go through the reciprocal by forward substitution.
    """

    def __init__(self, order: int):
        self.order = order
        self._powers: dict[tuple[str, int], list[Fraction]] = {}

    def _mul(self, a, b):
        out = [Fraction(0)] * (self.order + 1)
        for i, x in enumerate(a):
            if x:
                for j in range(self.order + 1 - i):
                    out[i + j] += x * b[j]
        return out

    def power(self, convention: str, exponent: int) -> list[Fraction]:
        key = (convention, exponent)
        if key not in self._powers:
            if exponent == 0:
                value = [Fraction(1)] + [Fraction(0)] * self.order
            elif exponent == 1:
                sign = -1 if convention == "sin" else 1
                value = [Fraction(sign**j, 4**j * factorial(2 * j + 1))
                         for j in range(self.order + 1)]
            elif exponent == -1:
                value = self._reciprocal(self.power(convention, 1))
            else:
                step = 1 if exponent > 0 else -1
                value = self._mul(self.power(convention, exponent - step),
                                  self.power(convention, step))
            self._powers[key] = value
        return self._powers[key]

    def _reciprocal(self, a):
        out = [Fraction(1) / a[0]]
        for m in range(1, self.order + 1):
            out.append(-sum(a[k] * out[m - k] for k in range(1, m + 1)) / a[0])
        return out

    def coefficient(self, h: int, c1b: int, j: int, convention: str) -> Fraction:
        return self.power(convention, h - 1 + c1b // 2)[j]

    def forward(self, counts: dict[int, Fraction], c1b: int, convention: str) -> dict[int, Fraction]:
        return {
            g: sum(
                (self.coefficient(h, c1b, (g - h) // 2, convention) * counts[h]
                 for h in range(g % 2, g + 1, 2)),
                Fraction(0),
            )
            for g in range(max(counts) + 1)
        }


# Coefficient queries as (series exponent h - 1 + c1B/2, cover genus g): the
# work of a cold ``coeff`` process depends on these two only, so they are
# fixed per slot and the seed picks the (h, c1B) split.  Half the slots have
# g > 20, past the default series order.
COEFF_SLOTS = ((2, 8), (11, 26), (-2, 14), (6, 23), (9, 4), (-3, 29), (4, 18), (13, 21))

# Transform/invert sizes: max_genus 12 and 30 stay within the default series
# order (cover genus <= 20), 46 goes past it.
TRANSFORM_SIZES = (12, 30, 46, 46)


def _cover_cold_cycle(rng: random.Random, oracle: CoverOracle, index: int) -> list[Request]:
    ops: list[Request] = []
    for slot, max_genus in enumerate(TRANSFORM_SIZES):
        for exponent, g in COEFF_SLOTS[2 * slot:2 * slot + 2]:
            h, c1b = rng.choice([(exponent + 1 - c // 2, c) for c in C1B_VALUES
                                 if 0 <= exponent + 1 - c // 2 <= 12])
            for convention in CONVENTIONS:
                value = oracle.coefficient(h, c1b, g, convention)
                ops.append(Request(
                    "coeff",
                    ("coeff", "--h", str(h), "--c1b", str(c1b), "--g", str(g), "--conv", convention),
                    {"value": fmt(value)},
                    1,
                    pair_sign=(-1) ** g if convention == "sin" else None,
                ))
        # (c1B, convention) rotate with the cycle index, the same for every
        # seed; the counts are seeded and nonzero, so no lookup is skipped.
        # One vector per cycle carries a half-integer count, so invert must
        # report it.
        c1b = C1B_VALUES[(4 * index + slot) % len(C1B_VALUES)]
        convention = CONVENTIONS[(index + slot) % 2]
        counts = {h: Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)))
                  for h in range(max_genus + 1)}
        if slot == 1:
            counts[rng.randint(0, max_genus)] = Fraction(2 * rng.randint(-3, 3) + 1, 2)
        e_map = {str(h): fmt(v) for h, v in counts.items()}
        gw = oracle.forward(counts, c1b, convention)
        ops.append(Request(
            "transform",
            ("transform",),
            {"c1B": c1b, "convention": convention, "gw": {str(g): fmt(v) for g, v in gw.items()}},
            max_genus + 1,
            stdin=json.dumps({"c1B": c1b, "convention": convention, "E": e_map}),
        ))
        violations = [[h, fmt(v)] for h, v in sorted(counts.items()) if v.denominator != 1]
        ops.append(Request(
            "invert",
            ("invert",),
            {"E": e_map, "c1B": c1b, "convention": convention,
             "integral": not violations, "violations": violations},
            max_genus + 1,
            feed=True,
        ))
    return ops


def cover_warm_pool(seed: int, size: int = 728):
    """Distinct small vectors (max_genus 4..16) over repeated (c1B, convention)."""
    rng = random.Random(f"cover-warm:{seed}")
    keys = [(c1b, convention) for c1b in C1B_VALUES for convention in CONVENTIONS]
    pool = []
    for i in range(size):
        max_genus = 4 + i % 13
        c1b, convention = keys[(i // 13) % len(keys)]
        counts = {h: Fraction(rng.randint(-9, 9)) for h in range(max_genus + 1)}
        if i % 7 == 3:
            counts[rng.randint(0, max_genus)] = Fraction(rng.choice((-3, -1, 1, 3)), 2)
        pool.append([c1b, convention, {str(h): fmt(v) for h, v in counts.items()}])
    warm = [[c1b, convention, 16] for c1b, convention in keys]
    return warm, pool


# --- signs and verify ------------------------------------------------------

# Identity id -> grid size of its default sweep.
IDENTITIES = {
    "binomial_parity": 169,
    "union_canonical_vs_cvc": 115600,
    "doublet_vs_cvc": 170,
    "relspin_mod8": 17,
    "union_induced_vs_determinant": 28900,
    "e_node_induced_vs_determinant": 170,
    "sin_vs_sinh": 378,
}

RELSPIN = ("relspin-vs-projection", "relspin-vs-canonical", "spin-vs-canonical")


def _genus(r):
    return r.randint(-3, 6)


def _rank(r):
    return r.randint(1, 4)


def _degree(r):
    return r.randint(-8, 8)


def _even(r):
    return 2 * r.randint(-4, 4)


def _route(r):
    return r.choice(("projection", "canonical"))


def _relspin_params(r, key):
    variant = r.choice(RELSPIN)
    value = 4 * r.randint(-4, 4) if variant == "spin-vs-canonical" else _even(r)
    params = {key: value, "variant": variant}
    if key == "c1b":
        params["orientable"] = variant == "spin-vs-canonical" or r.random() < 0.5
    return params


# Predicate id -> (seeded params, the library call it must agree with).
SIGN_QUERIES = {
    "cvc-parity": (
        lambda r: {"g": _genus(r), "k": _rank(r), "d": _degree(r)},
        lambda s, p: s.cvc_parity(p["g"], p["k"], p["d"])),
    "conj-pullback-parity": (
        lambda r: {"g": _genus(r), "k": _rank(r), "d": _degree(r)},
        lambda s, p: s.conj_pullback_parity(p["g"], p["k"], p["d"])),
    "union-determinant": (
        lambda r: {"g1": _genus(r), "g2": _genus(r), "k": _rank(r), "d1": _degree(r),
                   "d2": _degree(r), "variant": _route(r)},
        lambda s, p: s.union_determinant(p["g1"], p["g2"], p["k"], p["d1"], p["d2"],
                                         s.Route(p["variant"]))),
    "doublet-determinant": (
        lambda r: {"g": _genus(r), "k": _rank(r), "d2": _degree(r), "variant": _route(r)},
        lambda s, p: s.doublet_determinant(p["g"], p["k"], p["d2"], s.Route(p["variant"]))),
    "conj-node-determinant": (
        lambda r: {"k": _rank(r), "variant": _route(r)},
        lambda s, p: s.conj_node_determinant(p["k"], s.Route(p["variant"]))),
    "e-node-determinant": (
        lambda r: {"g": _genus(r), "k": _rank(r), "d": _degree(r), "variant": _route(r)},
        lambda s, p: s.e_node_determinant(p["g"], p["k"], p["d"], s.Route(p["variant"]))),
    "union-induced": (
        lambda r: {"g1": _genus(r), "g2": _genus(r), "d1": _degree(r), "d2": _degree(r),
                   "variant": _route(r)},
        lambda s, p: s.union_induced(p["g1"], p["g2"], p["d1"], p["d2"], s.Route(p["variant"]))),
    "doublet-induced": (
        lambda r: {"g": _genus(r), "d2": _degree(r), "variant": _route(r)},
        lambda s, p: s.doublet_induced(p["g"], p["d2"], s.Route(p["variant"]))),
    "conj-node-induced": (
        lambda r: {"variant": _route(r)},
        lambda s, p: s.conj_node_induced(s.Route(p["variant"]))),
    "e-node-induced": (
        lambda r: {"g": _genus(r), "d": _degree(r), "variant": _route(r)},
        lambda s, p: s.e_node_induced(p["g"], p["d"], s.Route(p["variant"]))),
    "relspin": (
        lambda r: _relspin_params(r, "degv"),
        lambda s, p: s.relspin_determinant(p["degv"], s.RelSpinVariant(p["variant"]))),
    "union-moduli": (
        lambda r: {"n": r.choice((1, 3, 5, 7, 9)), "g1": _genus(r), "g2": _genus(r),
                   "c1b1": _even(r), "c1b2": _even(r), "variant": _route(r)},
        lambda s, p: s.union_moduli(p["n"], p["g1"], p["g2"], p["c1b1"], p["c1b2"],
                                    s.Route(p["variant"]))),
    "doublet-moduli": (
        lambda r: {"g": _genus(r), "sminus": r.randint(0, 4), "variant": _route(r),
                   "c1lphib": r.randint(-4, 4)},
        lambda s, p: s.doublet_moduli(p["g"], p["sminus"], s.Route(p["variant"]), p["c1lphib"])),
    "conj-node-moduli": (
        lambda r: {"variant": _route(r)},
        lambda s, p: s.conj_node_moduli(s.Route(p["variant"]))),
    "e-node-moduli": (
        lambda r: {"g": _genus(r), "c1b": _even(r), "variant": _route(r)},
        lambda s, p: s.e_node_moduli(p["g"], p["c1b"], s.Route(p["variant"]))),
    "relspin-moduli": (
        lambda r: _relspin_params(r, "c1b"),
        lambda s, p: s.relspin_moduli(p["c1b"], s.RelSpinVariant(p["variant"]),
                                      orientable_fixed_line=p["orientable"])),
    "forget-boundary": (
        lambda r: {"side": r.choice(("plus", "minus")), "variant": _route(r)},
        lambda s, p: s.forget_boundary_sign(p["side"], s.Route(p["variant"]))),
}


def _param_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _signs_cycle(rng: random.Random, signs) -> list[Request]:
    queries = []
    for predicate, (make_params, library_call) in SIGN_QUERIES.items():
        params = make_params(rng)
        comparison = library_call(signs, params)
        queries.append(Request(
            "sign",
            ("sign", predicate, "--params",
             ",".join(f"{k}={_param_text(v)}" for k, v in params.items())),
            {"preserves": comparison.preserves, "sign": comparison.sign,
             "condition": comparison.condition},
            1,
        ))
    verifies = [
        Request("verify", ("verify", identity),
                [{"identity": identity, "grid_size": size, "holds": True, "failures": []}],
                size)
        for identity, size in IDENTITIES.items()
    ]
    # Spread the identity sweeps evenly among the predicate queries.
    ops = []
    for i, query in enumerate(queries):
        ops.append(query)
        if i % 2 == 1 and verifies:
            ops.append(verifies.pop(0))
    return ops + verifies


# --- graphs ------------------------------------------------------------------

LARGE_BOUNDS = "max_vertices=8,max_real_edges=6,max_conj_edges=6,max_edge_degree=9,max_n=11"
DEFAULT_WINDOW = 1000
LARGE_WINDOW = 700


def random_graph_doc(rng: random.Random) -> dict:
    """A graph document meeting the congruence preconditions: n - k even,
    |a| = k mod 4, odd real-edge degrees, one flag per edge end."""
    k = rng.randint(0, 3)
    n = k + 2 * rng.randint(0 if k else 1, 4)
    a = [rng.randint(1, 6) for _ in range(k)]
    if a:
        a[-1] += (k - sum(a)) % 4
    vertices = [
        {"genus": rng.randint(0, 3), "theta": rng.randint(1, n), "flags": []}
        for _ in range(rng.randint(1, 6))
    ]
    edges = []

    def add_flag(v):
        vertices[v]["flags"].append(
            {"b": rng.randint(0, 4), "p": rng.randint(0, 4), "sminus": rng.random() < 0.5}
        )

    for _ in range(rng.randint(0, 5)):
        v = rng.randrange(len(vertices))
        edges.append({"kind": "real", "degree": rng.choice((1, 3, 5, 7, 9)), "ends": [v, v]})
        add_flag(v)
    for _ in range(rng.randint(0, 5)):
        u, w = rng.randrange(len(vertices)), rng.randrange(len(vertices))
        edges.append({"kind": "conj", "degree": rng.randint(1, 9), "ends": [u, w]})
        add_flag(u)
        add_flag(w)
    return {"n": n, "a": a, "phi": rng.choice(("tau", "eta")), "vertices": vertices, "edges": edges}


def graph_congruence(doc: dict) -> dict:
    """Both sides of the closing congruence mod 2, with the derived (g, d)."""
    n, a = doc["n"], doc["a"]
    k, nu = len(a), doc["n"] - sum(a)
    real = [e["degree"] for e in doc["edges"] if e["kind"] == "real"]
    conj = [e["degree"] for e in doc["edges"] if e["kind"] == "conj"]
    g = 1 + len(real) + 2 * len(conj) + 2 * sum(v["genus"] - 1 for v in doc["vertices"])
    d = sum(real) + 2 * sum(conj)
    lhs = (n - 2 - k) // 2 * comb(len(real), 2)
    lhs += sum(1 + nu * de // 4 for de in real)
    lhs += sum(nu // 2 * de - 1 for de in conj)
    lhs += sum(v["genus"] - 1 + len(v["flags"]) for v in doc["vertices"])
    m = g + nu // 2 * d
    rhs = m * (m - 1) // 2 + g - 1
    return {"holds": lhs % 2 == rhs % 2, "lhs": lhs % 2, "rhs": rhs % 2, "genus": g, "degree": d}


def _window(kind: str, first: int, size: int, bounds: str | None) -> Request:
    argv = ("graph-check", "--seeds", f"{first}..{first + size - 1}")
    if bounds:
        argv += ("--bounds", bounds)
    return Request(kind, argv,
                   {"checked": size, "passed": size, "failed": 0, "first_counterexample": None},
                   size)


def _graph_in(rng: random.Random) -> Request:
    doc = random_graph_doc(rng)
    return Request("graph-in", ("graph-check", "--in", "/dev/stdin"),
                   graph_congruence(doc), 1, stdin=json.dumps(doc))


def _graph_cycle(rng: random.Random, first_seed: int) -> list[Request]:
    # Each seed window costs about two --in checks; the windows are a third
    # of the operations, so the p90 tail falls among them.
    return [
        _window("seeds-default", first_seed, DEFAULT_WINDOW, None),
        _graph_in(rng),
        _graph_in(rng),
        _window("seeds-large", first_seed + DEFAULT_WINDOW, LARGE_WINDOW, LARGE_BOUNDS),
        _graph_in(rng),
        _graph_in(rng),
    ]


# --- entry point -------------------------------------------------------------

def cli_cycles(workload: str, seed: int, count: int) -> list[list[Request]]:
    """``count`` cycles of CLI requests for ``workload``, from ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cover-cold":
        oracle = CoverOracle(order=30)
        return [_cover_cold_cycle(rng, oracle, i) for i in range(count)]
    if workload == "signs-sweep":
        import realgw.signs

        return [_signs_cycle(rng, realgw.signs) for _ in range(count)]
    if workload == "graph-fuzz":
        base = 1 + (seed % 100_000) * 1_000_000
        span = DEFAULT_WINDOW + LARGE_WINDOW
        return [_graph_cycle(rng, base + i * span) for i in range(count)]
    raise ValueError(f"unknown CLI workload {workload!r}")
