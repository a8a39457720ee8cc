"""Numerical laboratory for the inverse diffusion-coefficient problem
-div(a grad u) = f on the unit interval/square with zero Dirichlet data:
forward solvers, coefficient recovery, positivity diagnostics, and
empirical Hoelder-stability measurement."""

__version__ = "0.1.0"

from .mesh import InputError, NumericalError
