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
``realgw.series`` holds no code.
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


__version__ = "0.1.0"
