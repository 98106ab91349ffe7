"""Command-line entry point.

Subcommands: transform, invert, coeff, sign, dim, graph-check, verify,
schema.  All numeric output is exact (rationals as p/q strings), JSON goes
to stdout with sorted keys so identical inputs give byte-identical output.
Exit codes: 0 success, 1 domain or input error (structured JSON on stderr),
2 usage error, 3 a check ran and found a failure (``graph-check`` found a
congruence counterexample, or a ``verify`` identity has failures).
"""

from __future__ import annotations

import argparse
import json
import sys

import realgw  # each layer is imported on first use, see realgw.__getattr__

from . import schemas


# Exit code of a check that ran and found a failure.
EXIT_CHECK_FAILED = 3


def _emit(doc) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _fail(doc) -> int:
    sys.stderr.write(json.dumps(doc, sort_keys=True) + "\n")
    return 1


def _object_without_repeats(pairs: list) -> dict:
    """A JSON object's members as a dict; a key given twice is an error
    (plain ``json.loads`` keeps the last value without notice)."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for key in keys if keys.count(key) > 1)
        raise ValueError(f"input document gives the key {repeated!r} twice")
    return doc


def _read_input_doc(args):
    if getattr(args, "infile", None):
        with open(args.infile, "r", encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = sys.stdin.read()
    try:
        doc = json.loads(text, object_pairs_hook=_object_without_repeats)
    except RecursionError:
        raise ValueError("input document is nested too deeply")
    return doc


def integer(text: str) -> int:
    """Parse an integer written as an optional leading ``-`` and ASCII digits.

    ``int()`` alone also takes ``+3``, surrounding spaces, ``1_0`` and
    Unicode digits such as ``١``.  The ``coeff`` and ``dim`` options,
    ``sign --params`` and ``graph-check --bounds`` all read integers here.
    """
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _parse_kv(text: str | None, what: str) -> dict[str, str]:
    """Comma-separated ``key=value`` pairs, keys and values exactly as written."""
    params: dict[str, str] = {}
    if not text:
        return params
    for chunk in text.split(","):
        if not chunk:
            continue
        if "=" not in chunk:
            raise ValueError(f"{what} entries must look like key=value, got {chunk!r}")
        key, value = chunk.split("=", 1)
        if key in params:
            raise ValueError(f"{what} gives {key!r} twice")
        params[key] = value
    return params


# Predicate id -> (its wrapper in realgw.signs, the wrapper's parameters in
# call order).  Names are strings so that importing the CLI loads no layer.
# A parameter is an int key, except: ``route`` (key ``variant``, default
# projection), ``relspin`` (key ``variant``, required), ``side`` (plus or
# minus), ``orientable`` (a bool, default false) and ``c1lphib`` (an optional
# int).
SIGN_PREDICATES: dict[str, tuple[str, tuple[str, ...]]] = {
    "cvc-parity": ("cvc_parity", ("g", "k", "d")),
    "conj-pullback-parity": ("conj_pullback_parity", ("g", "k", "d")),
    "union-determinant": ("union_determinant", ("g1", "g2", "k", "d1", "d2", "route")),
    "doublet-determinant": ("doublet_determinant", ("g", "k", "d2", "route")),
    "conj-node-determinant": ("conj_node_determinant", ("k", "route")),
    "e-node-determinant": ("e_node_determinant", ("g", "k", "d", "route")),
    "union-induced": ("union_induced", ("g1", "g2", "d1", "d2", "route")),
    "doublet-induced": ("doublet_induced", ("g", "d2", "route")),
    "conj-node-induced": ("conj_node_induced", ("route",)),
    "e-node-induced": ("e_node_induced", ("g", "d", "route")),
    "relspin": ("relspin_determinant", ("degv", "relspin")),
    "union-moduli": ("union_moduli", ("n", "g1", "g2", "c1b1", "c1b2", "route")),
    "doublet-moduli": ("doublet_moduli", ("g", "sminus", "route", "c1lphib")),
    "conj-node-moduli": ("conj_node_moduli", ("route",)),
    "e-node-moduli": ("e_node_moduli", ("g", "c1b", "route")),
    "relspin-moduli": ("relspin_moduli", ("c1b", "relspin", "orientable")),
    "forget-boundary": ("forget_boundary_sign", ("side", "route")),
}

_PARAM_KEYS = {"route": "variant", "relspin": "variant"}
_PARAM_DEFAULTS = {"route": "projection", "orientable": "false", "c1lphib": None}
# Choice parameters, read ignoring case: (the error's wording, value -> argument).
_CHOICES = {
    "side": ("plus or minus", {"plus": "plus", "minus": "minus"}),
    "orientable": ("true or false", {"true": True, "1": True, "yes": True,
                                     "false": False, "0": False, "no": False}),
}


def _sign_args(predicate: str, raw: dict[str, str]) -> list:
    """The wrapper arguments of ``predicate``, read from ``--params``.

    Parameters are read (and popped from ``raw``) in call order, so the
    first missing or malformed one is the one an error names; keys left
    over are reported after that, before the wrapper runs.
    """
    args = []
    for name in SIGN_PREDICATES[predicate][1]:
        key = _PARAM_KEYS.get(name, name)
        if key in raw:
            value = raw.pop(key)
        elif name in _PARAM_DEFAULTS:
            value = _PARAM_DEFAULTS[name]
        else:
            shape = "..." if name in ("relspin", "side") else "<int>"
            raise ValueError(f"{predicate} needs --params {key}={shape}")
        if value is None:
            args.append(value)
        elif name in _CHOICES:
            allowed, choices = _CHOICES[name]
            value = value.lower()
            if value not in choices:
                raise ValueError(f"{predicate}: {key} must be {allowed}, got {value!r}")
            args.append(choices[value])
        elif name == "route":
            args.append(realgw.signs.Route.from_string(value))
        elif name == "relspin":
            args.append(realgw.signs.RelSpinVariant.from_string(value))
        else:
            try:
                args.append(integer(value))
            except ValueError:
                raise ValueError(f"{predicate}: {key} must be an integer, got {value!r}")
    if raw:
        raise ValueError(f"{predicate}: unknown params {sorted(raw)}")
    return args


def _cmd_coeff(args) -> int:
    convention = realgw.multicover.Convention.from_string(args.conv)
    value = realgw.multicover.multicover_coefficient(
        args.h, args.c1b, args.g, convention
    )
    _emit({"value": realgw.series.format_rational(value)})
    return 0


def _cmd_dim(args) -> int:
    descriptor = realgw.signs.ModuliDescriptor(
        g=args.g, ell=args.ell, n=args.n, c1b=args.c1b
    )
    _emit({"dim": realgw.signs.virtual_dimension(descriptor)})
    return 0


def _cmd_sign(args) -> int:
    if args.predicate not in SIGN_PREDICATES:
        raise ValueError(
            f"unknown predicate {args.predicate!r}; known: "
            + ", ".join(sorted(SIGN_PREDICATES))
        )
    wrapper = getattr(realgw.signs, SIGN_PREDICATES[args.predicate][0])
    comparison = wrapper(*_sign_args(args.predicate, _parse_kv(args.params, "--params")))
    _emit(
        {
            "preserves": comparison.preserves,
            "sign": comparison.sign,
            "condition": comparison.condition,
        }
    )
    return 0


def _vector_from_doc(
    doc: dict, key: str
) -> tuple[realgw.multicover.InvariantVector, realgw.multicover.Convention]:
    schemas.check(doc, schemas.INVARIANTS_SCHEMA)
    # the schema asks for 'gw' or 'E'; each command reads one of them
    if key not in doc:
        raise ValueError(f"input document is missing {key!r}")
    # checked above: skip from_string_map's second check of the same map
    vector = realgw.multicover.InvariantVector._from_checked_map(
        doc[key], doc["c1B"], doc.get("max_genus")
    )
    return vector, realgw.multicover.Convention(doc["convention"])


def _cmd_transform(args) -> int:
    doc = _read_input_doc(args)
    counts, convention = _vector_from_doc(doc, "E")
    gw = realgw.multicover.forward_transform(counts, convention)
    _emit(
        {
            "c1B": gw.c1b,
            "convention": convention.value,
            "gw": gw.to_string_map(),
        }
    )
    return 0


def _cmd_invert(args) -> int:
    doc = _read_input_doc(args)
    gw, convention = _vector_from_doc(doc, "gw")
    counts = realgw.multicover.invert_transform(gw, convention)
    violations = realgw.multicover.integrality_check(counts)
    _emit(
        {
            "E": counts.to_string_map(),
            "c1B": counts.c1b,
            "convention": convention.value,
            "integral": not violations,
            "violations": [
                [genus, realgw.series.format_rational(value)]
                for genus, value in violations
            ],
        }
    )
    return 0


def _parse_seed_range(text: str) -> range:
    lo, dots, hi = text.partition("..")
    if not dots:
        lo, hi = "1", text
    # ASCII digits only: int() alone also takes "1_000" and Unicode digits.
    if not all(part.isascii() and part.isdigit() for part in (lo, hi)):
        shape = "A..B" if dots else "A..B or N"
        raise ValueError(f"--seeds must look like {shape} (ASCII digits), got {text!r}")
    first, last = int(lo), int(hi)
    if last < first:
        raise ValueError(f"--seeds range {text!r} is empty")
    if last - first + 1 > realgw.graphs.MAX_SEEDS:
        raise ValueError(
            f"--seeds range {text!r} names {last - first + 1} seeds; "
            f"at most {realgw.graphs.MAX_SEEDS} are allowed"
        )
    return range(first, last + 1)


def _bounds_from_kv(text: str | None) -> realgw.graphs.GraphBounds:
    raw = _parse_kv(text, "--bounds")
    fields = realgw.graphs.GraphBounds._fields
    kwargs = {}
    for key, value in raw.items():
        if key not in fields:
            raise ValueError(
                f"unknown bound {key!r}; known: {', '.join(sorted(fields))}"
            )
        try:
            kwargs[key] = integer(value)
        except ValueError:
            raise ValueError(f"bound {key} must be an integer, got {value!r}")
    return realgw.graphs.GraphBounds(**kwargs)


def _cmd_graph_check(args) -> int:
    if args.infile:
        if args.seeds is not None or args.bounds is not None:
            raise ValueError("--in checks one graph; it takes no --seeds or --bounds")
        graph = realgw.graphs.graph_from_json_dict(_read_input_doc(args))
        result = realgw.graphs.congruence_identity_check(graph)
        _emit(result._asdict())
        return 0 if result.holds else EXIT_CHECK_FAILED

    seeds = _parse_seed_range("1..1000" if args.seeds is None else args.seeds)
    bounds = _bounds_from_kv(args.bounds)
    passed = failed = 0
    first_counterexample = None
    for seed in seeds:
        graph = realgw.graphs.generate_random_graph(seed, bounds)
        result = realgw.graphs.congruence_identity_check(graph)
        if result.holds:
            passed += 1
        else:
            failed += 1
            if first_counterexample is None:
                first_counterexample = {
                    "seed": seed,
                    "lhs": result.lhs,
                    "rhs": result.rhs,
                    "graph": realgw.graphs.graph_to_json_dict(graph),
                }
    _emit(
        {
            "checked": len(seeds),
            "passed": passed,
            "failed": failed,
            "first_counterexample": first_counterexample,
        }
    )
    return 0 if failed == 0 else EXIT_CHECK_FAILED


def _cmd_verify(args) -> int:
    if args.identity and args.all:
        raise ValueError("pass either --all or one identity id, not both")
    identity_ids = None if (args.all or not args.identity) else [args.identity]
    reports = realgw.verify.run_checks(identity_ids)
    _emit([r.to_json_dict() for r in reports])
    return 0 if all(r.holds for r in reports) else EXIT_CHECK_FAILED


def _cmd_schema(args) -> int:
    _emit(schemas.SCHEMAS[args.kind])
    return 0


class _VerifyHelp(argparse.Action):
    """``verify -h``: fills in the identity ids, which live in realgw.verify,
    only when the help is printed, so other subcommands never import it."""

    def __init__(self, option_strings, dest, identity, help=None):
        super().__init__(option_strings, dest=argparse.SUPPRESS,
                         default=argparse.SUPPRESS, nargs=0, help=help)
        self.identity = identity

    def __call__(self, parser, namespace, values, option_string=None):
        self.identity.help = ", ".join(realgw.verify.ALL_CHECKS)
        parser.print_help()
        parser.exit()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="realgw",
        description=(
            "Exact sign calculus, localization-graph congruences and the "
            "multiple-cover transform for real Gromov-Witten invariants."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeff", help="one multiple-cover coefficient")
    p.add_argument("--h", type=integer, required=True, help="embedded-curve genus h")
    p.add_argument("--c1b", type=integer, required=True, help="even pairing <c1,B>")
    p.add_argument("--g", type=integer, required=True, help="cover genus shift g")
    p.add_argument("--conv", default="sinh", help="sinh or sin")
    p.set_defaults(func=_cmd_coeff)

    p = sub.add_parser("dim", help="virtual dimension of a real map moduli space")
    p.add_argument("--g", type=integer, required=True)
    p.add_argument("--ell", type=integer, required=True)
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--c1b", type=integer, required=True)
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("sign", help="evaluate one orientation-comparison predicate")
    p.add_argument("predicate", help=", ".join(sorted(SIGN_PREDICATES)))
    p.add_argument("--params", default="", help="comma-separated key=value pairs")
    p.set_defaults(func=_cmd_sign)

    p = sub.add_parser("transform", help="integer counts E -> GW invariants")
    p.add_argument("--in", dest="infile", default=None, help="JSON file (default stdin)")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("invert", help="GW invariants -> integer counts E")
    p.add_argument("--in", dest="infile", default=None, help="JSON file (default stdin)")
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser(
        "graph-check", help="fuzz the localization-graph sign congruence"
    )
    p.add_argument(
        "--seeds", default=None, help="seed range A..B (or a count N; default 1..1000)"
    )
    p.add_argument("--bounds", default=None, help="generator caps as key=value pairs")
    p.add_argument(
        "--in", dest="infile", default=None, help="check one explicit graph document"
    )
    p.set_defaults(func=_cmd_graph_check)

    p = sub.add_parser(
        "verify", help="run the derivation identity suite", add_help=False
    )
    identity = p.add_argument("identity", nargs="?", default=None)
    p.add_argument("-h", "--help", action=_VerifyHelp, identity=identity,
                   help="show this help message and exit")
    p.add_argument("--all", action="store_true", help="run every identity")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("schema", help="print a wire-format schema")
    p.add_argument("kind", choices=sorted(schemas.SCHEMAS))
    p.set_defaults(func=_cmd_schema)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        return _fail(
            {
                "error": f"malformed JSON: {exc.msg}",
                "line": exc.lineno,
                "column": exc.colno,
            }
        )
    except OSError as exc:
        return _fail({"error": f"cannot read input: {exc}"})
    except (ValueError, ZeroDivisionError) as exc:
        return _fail({"error": str(exc)})


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
