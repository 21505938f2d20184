"""Exact q-series engine: Jackson-dual identities, reverse bisection, pi-limits."""

# The Bareiss solver is no longer on any engine path; it stays loaded with the
# package as the reference oracle of the bisection solve, and because the
# benchmark tracer (perfbench/spans.py) wraps it by module name.
from qseries import linsolve  # noqa: F401

__version__ = "0.1.0"
