"""Exact calculus for real Gromov-Witten orientation signs and cover counts.

Subpackages by concern:

* :mod:`realgw.multicover` -- the cover coefficients and the multiple-cover
  transform between moduli invariants and integer curve counts (sinh and
  sin flavors), inverted by the same sum over the arcsinh or arcsin series;
* :mod:`realgw.signs` -- every orientation-comparison statement as a total
  parity predicate over integer descriptors;
* :mod:`realgw.graphs` -- decorated fixed-point graphs and the closing
  mod-2 congruence of their sign exponents, with a fuzzing generator;
* :mod:`realgw.verify` -- derivation chains between the predicates, swept
  over integer grids;
* :mod:`realgw.cli` -- the ``realgw`` command.

A rational is written to the wire as ``str(Fraction)`` (``"p/q"``, or
``"p"`` when q = 1) and read back by ``schemas.check`` and ``Fraction``;
``realgw.series`` holds no code.  Every layer words a refused value by
:func:`_shown`; the size caps below are stated once, for every layer.
"""

from importlib import import_module

# Public name -> the submodule that defines it.  Nothing is imported until a
# name is first used (PEP 562), so a CLI process loads only the layers its
# subcommand needs.
_EXPORTS = {
    "Comparison": "signs",
    "Convention": "multicover",
    "InvariantVector": "multicover",
    "ModuliDescriptor": "signs",
    "Route": "signs",
    "forward_transform": "multicover",
    "integrality_check": "multicover",
    "invert_transform": "multicover",
    "multicover_coefficient": "multicover",
    "virtual_dimension": "signs",
}
_SUBMODULES = ("cli", "graphs", "multicover", "schemas", "signs", "verify")

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name in _EXPORTS:
        value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: Largest genus accepted (a coefficient's h and g, an ``InvariantVector``'s
#: ``max_genus``): a larger one is refused before any work, which bounds the
#: coefficient tables and dense vectors.
MAX_GENUS = 128

#: Largest |c1B| accepted where a pairing meets the coefficient tables: a
#: larger one is refused before any work, which bounds every table value.
MAX_C1B = 10**6

#: The digit budget of a wire genus map: no value longer than ``MAX_DIGITS``
#: characters, and lcm(denominators) * max |numerator| below 10**MAX_DIGITS,
#: so that outputs stay within ``cli.INT_DIGITS`` (the caps give at most 3,441).
MAX_DIGITS = 3000


def _shown(value) -> str:
    """``repr(value)``, cut after 60 characters and marked ``...``, so that
    an error message does not grow with the input."""
    try:
        text = repr(value)
    except ValueError:  # it is, or holds, an int too long for CPython to write
        text = (f"an integer of {value.bit_length()} bits" if type(value) is int
                else "a value too long to write")
    return text if len(text) <= 60 else text[:60] + "..."


__version__ = "0.1.0"
