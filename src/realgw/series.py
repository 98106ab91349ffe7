"""Holds no code.

A rational's ``p/q`` wire form is ``str(Fraction)``, read back by
``schemas.check`` against ``schemas.RATIONAL_PATTERN`` and then by
``Fraction``.  No ``realgw`` module imports this one; it is kept only
because the benchmark tracer (``perfbench/tracer.py``) lists ``series``
in ``LAYERS`` and imports it, and goes once that list drops it.
"""
