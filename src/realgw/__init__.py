"""Exact calculus for real Gromov-Witten orientation signs and cover counts.

Subpackages by concern:

* :mod:`realgw.series` -- exact rationals and their ``p/q`` wire form;
* :mod:`realgw.multicover` -- the cover coefficients and the unitriangular
  multiple-cover transform between moduli invariants and integer curve
  counts (sinh and sin flavors);
* :mod:`realgw.signs` -- every orientation-comparison statement as a total
  parity predicate over integer descriptors;
* :mod:`realgw.graphs` -- decorated fixed-point graphs, their sign
  exponents and the closing mod-2 congruence, with a fuzzing generator;
* :mod:`realgw.verify` -- derivation chains between the predicates, swept
  over integer grids;
* :mod:`realgw.cli` -- the ``realgw`` command.
"""

from .multicover import (
    Convention,
    InvariantVector,
    forward_transform,
    integrality_check,
    invert_transform,
    multicover_coefficient,
)
from .series import Rational, format_rational, parse_rational
from .signs import Comparison, ModuliDescriptor, Route, virtual_dimension

__all__ = [
    "Comparison",
    "Convention",
    "InvariantVector",
    "ModuliDescriptor",
    "Rational",
    "Route",
    "format_rational",
    "forward_transform",
    "integrality_check",
    "invert_transform",
    "multicover_coefficient",
    "parse_rational",
    "virtual_dimension",
]

__version__ = "0.1.0"
