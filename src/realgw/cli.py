"""Command-line entry point.

Subcommands: transform, invert, coeff, sign, dim, graph-check, verify,
schema.  All numeric output is exact (rationals as p/q strings), JSON goes
to stdout with sorted keys so identical inputs give byte-identical output.
Exit codes: 0 success, 1 domain or input error (structured JSON on stderr),
2 usage error, 3 a check ran and found a failure (``graph-check`` found a
congruence counterexample, or a ``verify`` identity has failures).  Every
document goes to stdout through ``realgw._wire``, so a verdict (``sign``,
``verify``, ``graph-check --in``) or a graph prints as its record's fields.

A process builds only the invoked subcommand's arguments (``build_parser``)
and imports only the layers it runs; ``realgw.schemas`` only where a
document is read or a schema is printed.
"""

from __future__ import annotations

import argparse
import json
import sys

import realgw  # each layer is imported on first use, see realgw.__getattr__
from realgw import _shown, _wire


# Exit code of a check that ran and found a failure.
EXIT_CHECK_FAILED = 3

# Most digits of any integer the CLI reads or writes.  ``main`` sets it as
# the interpreter's int/str limit for its call, so no result depends on
# PYTHONINTMAXSTRDIGITS.
INT_DIGITS = 4300

# Most digits of an integer that ``sign`` and ``dim`` read.  Every sign kernel
# and ``virtual_dimension`` is a polynomial of degree <= 4 in its inputs, so
# every integer they print stays under ``INT_DIGITS``.
MAX_INT_DIGITS = 1000


def _capped(name: str, value: int) -> int:
    """``value`` if it has at most ``MAX_INT_DIGITS`` digits, else ``ValueError``."""
    if abs(value) < 10**MAX_INT_DIGITS:
        return value
    raise ValueError(f"{name} must have at most {MAX_INT_DIGITS} digits, got {_shown(value)}")


def _emit(doc) -> None:
    try:
        text = json.dumps(_wire(doc), sort_keys=True, indent=2)
    except ValueError:  # CPython's refusal to write an int past the limit main sets
        raise ValueError(f"a result integer has more than {INT_DIGITS} digits") from None
    sys.stdout.write(text + "\n")


def _fail(doc) -> int:
    sys.stderr.write(json.dumps(doc, sort_keys=True) + "\n")
    return 1


def _object_without_repeats(pairs: list) -> dict:
    """A JSON object's members as a dict; a key given twice is an error
    (plain ``json.loads`` keeps the last value without notice)."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        counts = dict.fromkeys(doc, 0)  # in order of first appearance, as in doc
        for key, _ in pairs:
            counts[key] += 1
        repeated = next(key for key, count in counts.items() if count > 1)
        raise ValueError(f"input document gives the key {_shown(repeated)} twice")
    return doc


def _read_input_doc(args):
    # read as bytes and decoded here, so stdin's encoding plays no part
    try:
        if getattr(args, "infile", None) is not None:
            with open(args.infile, "rb") as handle:
                text = handle.read().decode("utf-8")
        else:
            text = sys.stdin.buffer.read().decode("utf-8")
    except OSError as exc:
        # str(exc) would quote the whole file name
        shown = exc if exc.filename is None else f"[Errno {exc.errno}] {exc.strerror}: {_shown(exc.filename)}"
        raise ValueError(f"cannot read input: {shown}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read input: not UTF-8 at byte {exc.start}") from None
    try:
        return json.loads(text, object_pairs_hook=_object_without_repeats,
                          parse_int=lambda digits: integer(digits, "input document integers"))
    except RecursionError:
        raise ValueError("input document is nested too deeply")


def integer(text: str, what: str = "value") -> int:
    """Parse an integer written as an optional leading ``-`` and ASCII
    digits, at most ``INT_DIGITS`` of them; ``what`` names it in a refusal.

    ``int()`` alone also takes ``+3``, surrounding spaces, ``1_0`` and
    Unicode digits such as ``١``.  Every integer the CLI reads from text is
    read here: options, ``--params``, ``--bounds``, ``--seeds`` and input
    documents.
    """
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{what} must be an integer, got {_shown(text)}")
    if len(digits) > INT_DIGITS:
        raise ValueError(f"{what} must have at most {INT_DIGITS} digits, got {_shown(text)}")
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
            raise ValueError(f"{what} entries must look like key=value, got {_shown(chunk)}")
        key, value = chunk.split("=", 1)
        if key in params:
            raise ValueError(f"{what} gives {_shown(key)} twice")
        params[key] = value
    return params


# ``sign --params`` keys: a kernel parameter's name without underscores, except these.
_PARAM_KEYS = {"route": "variant", "node_side": "side", "orientable_fixed_line": "orientable"}
# The spellings of the choice parameters that are not enums, by --params key.
_CHOICES = {
    "side": {"plus": "plus", "minus": "minus"},
    "orientable": {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False},
}


def _param_key(name: str) -> str:
    """The ``sign --params`` key of the kernel parameter ``name``."""
    return _PARAM_KEYS.get(name, name.replace("_", ""))


def _choice(what: str, text: str, choices):
    """The value that ``text``, ignoring case, spells in ``choices``: a dict
    from each spelling to its value, or an enum, spelled by its members'
    values.  Every choice the CLI takes is read here."""
    spellings = choices if isinstance(choices, dict) else {member.value: member for member in choices}
    try:
        return spellings[text.lower()]
    except KeyError:
        *rest, last = map(repr, spellings)
        raise ValueError(f"{what} must be {', '.join(rest)} or {last}, got {_shown(text)}") from None


def _sign_args(predicate: str, raw: dict[str, str]) -> list:
    """The arguments of ``realgw.signs.PREDICATES[predicate]``, read from
    ``--params`` against its kernel's positional parameters.

    A ``Route`` defaults to projection, any other parameter to the kernel's
    default.  Parameters are read (and popped from ``raw``) in call order,
    so the first missing or malformed one is the one an error names; keys
    left over are reported after that, before the predicate runs.
    """
    signs = realgw.signs
    kernel = signs.PREDICATES[predicate]
    while hasattr(kernel, "__wrapped__"):  # past any wrapper of the predicate to its kernel
        kernel = kernel.__wrapped__
    names = kernel.__code__.co_varnames[: kernel.__code__.co_argcount]
    defaults = dict(zip(reversed(names), reversed(kernel.__defaults__ or ())))
    args = []
    for name in names:
        kind = kernel.__annotations__[name]
        key = _param_key(name)
        if key not in raw:
            if kind == "Route":
                args.append(signs.Route.PROJECTION)
            elif name in defaults:
                args.append(defaults[name])
            else:
                shape = "<int>" if kind == "int" else "..."
                raise ValueError(f"{predicate} needs --params {key}={shape}")
            continue
        value, what = raw.pop(key), f"{predicate}: {key}"
        # a choice has a spelling table, or is annotated with an enum of realgw.signs
        choices = _CHOICES.get(key) or getattr(signs, kind, None)
        args.append(_capped(what, integer(value, what)) if choices is None
                    else _choice(what, value, choices))
    if raw:
        raise ValueError(f"{predicate}: unknown params {_shown(sorted(raw))}")
    return args


def _cmd_coeff(args) -> int:
    convention = _choice("--conv", args.conv, realgw.multicover.Convention)
    value = realgw.multicover.multicover_coefficient(
        args.h, args.c1b, args.g, convention
    )
    _emit({"value": str(value)})
    return 0


def _cmd_dim(args) -> int:
    descriptor = realgw.signs.ModuliDescriptor(
        *(_capped(f"--{name}", getattr(args, name)) for name in ("g", "ell", "n", "c1b"))
    )
    _emit({"dim": realgw.signs.virtual_dimension(descriptor)})
    return 0


def _cmd_sign(args) -> int:
    predicates = realgw.signs.PREDICATES
    if args.predicate not in predicates:
        raise ValueError(
            f"unknown predicate {_shown(args.predicate)}; known: " + ", ".join(sorted(predicates))
        )
    raw = _parse_kv(args.params, "--params")
    try:
        comparison = predicates[args.predicate](*_sign_args(args.predicate, raw))
    except realgw.signs.ArgumentError as exc:  # named by its --params key, as _sign_args does
        raise ValueError(f"{args.predicate}: {_param_key(exc.name)} {exc.rule}") from None
    except realgw.signs.NeedsArgument as exc:  # named by its --params key, spelled as read
        key = _param_key(exc.name)
        raise ValueError(f"{exc.why}; pass --params {key}={exc.shape.lower()}") from None
    _emit(comparison)
    return 0


def _vector_from_doc(
    doc: dict, key: str
) -> tuple[realgw.multicover.InvariantVector, realgw.multicover.Convention]:
    realgw.schemas.check(doc, realgw.schemas.INVARIANTS_SCHEMA)
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
            "violations": [[genus, str(value)] for genus, value in violations],
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
        raise ValueError(f"--seeds must look like {shape} (ASCII digits), got {_shown(text)}")
    first, last = (integer(part, "--seeds numbers") for part in (lo, hi))
    if last < first:
        raise ValueError(f"--seeds range {_shown(text)} is empty")
    if last - first + 1 > realgw.graphs.MAX_SEEDS:
        raise ValueError(
            f"--seeds range {_shown(text)} names {_shown(last - first + 1)} seeds; "
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
                f"unknown bound {_shown(key)}; known: {', '.join(sorted(fields))}"
            )
        kwargs[key] = integer(value, f"bound {key}")
    return realgw.graphs.GraphBounds(**kwargs)


def _cmd_graph_check(args) -> int:
    if args.infile is not None:
        if args.seeds is not None or args.bounds is not None:
            raise ValueError("--in checks one graph; it takes no --seeds or --bounds")
        graph = realgw.graphs.graph_from_json_dict(_read_input_doc(args))
        result = realgw.graphs.congruence_identity_check(graph)
        _emit(result)
        return 0 if result.holds else EXIT_CHECK_FAILED

    seeds = _parse_seed_range("1..1000" if args.seeds is None else args.seeds)
    bounds = _bounds_from_kv(args.bounds)
    failed = 0
    first_counterexample = None
    for seed in seeds:
        graph = realgw.graphs.generate_random_graph(seed, bounds)
        result = realgw.graphs.congruence_identity_check(graph)
        if not result.holds:
            failed += 1
            if first_counterexample is None:
                first_counterexample = {
                    "seed": seed, "lhs": result.lhs, "rhs": result.rhs, "graph": graph
                }
    _emit(
        {
            "checked": len(seeds),
            "passed": len(seeds) - failed,
            "failed": failed,
            "first_counterexample": first_counterexample,
        }
    )
    return 0 if failed == 0 else EXIT_CHECK_FAILED


def _cmd_verify(args) -> int:
    if args.identity is not None and args.all:
        raise ValueError("pass either --all or one identity id, not both")
    identity_ids = None if args.identity is None else [args.identity]
    reports = realgw.verify.run_checks(identity_ids)
    _emit(reports)
    return 0 if all(r.holds for r in reports) else EXIT_CHECK_FAILED


def _cmd_schema(args) -> int:
    _emit(realgw.schemas.SCHEMAS[args.kind])
    return 0


class _Parser(argparse.ArgumentParser):
    """Cuts a usage error after 200 characters, as argparse quotes a bad value
    whole; ``add_subparsers`` gives each subcommand's parser this class too."""

    def error(self, message: str):
        super().error(message if len(message) <= 200 else message[:200] + "...")


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for ``argv``: an entry for every subcommand, so that ``-h``
    and an invalid choice read the same, but arguments (and help texts that
    import a layer) only for the invoked one, named by the first token not
    starting with ``-``, as the top-level parser takes no option values."""
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    parser = _Parser(
        prog="realgw",
        description=(
            "Exact sign calculus, localization-graph congruences and the "
            "multiple-cover transform for real Gromov-Witten invariants."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def invoked(name: str, help: str, func) -> argparse.ArgumentParser | None:
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p if name == command else None

    if p := invoked("coeff", "one multiple-cover coefficient", _cmd_coeff):
        p.add_argument("--h", type=integer, required=True, help="embedded-curve genus h")
        p.add_argument("--c1b", type=integer, required=True, help="even pairing <c1,B>")
        p.add_argument("--g", type=integer, required=True, help="cover genus shift g")
        p.add_argument("--conv", default="sinh", help="sinh or sin")

    if p := invoked("dim", "virtual dimension of a real map moduli space", _cmd_dim):
        p.add_argument("--g", type=integer, required=True)
        p.add_argument("--ell", type=integer, required=True)
        p.add_argument("--n", type=integer, required=True)
        p.add_argument("--c1b", type=integer, required=True)

    if p := invoked("sign", "evaluate one orientation-comparison predicate", _cmd_sign):
        p.add_argument("predicate", help=", ".join(sorted(realgw.signs.PREDICATES)))
        p.add_argument("--params", default="", help="comma-separated key=value pairs")

    if p := invoked("transform", "integer counts E -> GW invariants", _cmd_transform):
        p.add_argument("--in", dest="infile", help="JSON file (default stdin)")

    if p := invoked("invert", "GW invariants -> integer counts E", _cmd_invert):
        p.add_argument("--in", dest="infile", help="JSON file (default stdin)")

    if p := invoked("graph-check", "fuzz the localization-graph sign congruence", _cmd_graph_check):
        p.add_argument("--seeds", help="seed range A..B (or a count N; default 1..1000)")
        p.add_argument("--bounds", help="generator caps as key=value pairs")
        p.add_argument("--in", dest="infile", help="check one explicit graph document")

    if p := invoked("verify", "run the derivation identity suite", _cmd_verify):
        p.add_argument("identity", nargs="?", help=", ".join(realgw.verify.ALL_CHECKS))
        p.add_argument("--all", action="store_true", help="run every identity")

    if p := invoked("schema", "print a wire-format schema", _cmd_schema):
        p.add_argument("kind", choices=sorted(realgw.schemas.SCHEMAS))

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    caller_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(INT_DIGITS)  # for this call, whatever the caller's limit
    try:
        args = build_parser(argv).parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except json.JSONDecodeError as exc:
        return _fail(
            {
                "error": f"malformed JSON: {exc.msg}",
                "line": exc.lineno,
                "column": exc.colno,
            }
        )
    except OSError as exc:  # an input read is worded by _read_input_doc
        return _fail({"error": f"cannot write output: {exc}"})
    except ValueError as exc:
        return _fail({"error": str(exc)})
    finally:
        sys.set_int_max_str_digits(caller_limit)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
