"""Numerical laboratory for the inverse diffusion-coefficient problem
-div(a grad u) = f on the unit interval/square with zero Dirichlet data:
forward solvers, coefficient recovery, positivity diagnostics, and
empirical Hoelder-stability measurement."""

__version__ = "0.1.0"

from .mesh import Mesh, Partition, InputError, NumericalError
from .field import (
    CoefficientField, ScalarField,
    gradient, norm_h10,
    coefficient_h1_seminorm, weighted_l2_sq,
    write_field_csv, read_field_csv,
)
from .forward import (
    RightHandSide, SolveReport, SolverError,
    solve_1d, solve_fd_2d, series_cube, maximum_principle_check,
)
from .positivity import WeightField, PositivityFit, compute_weight, fit_pc_beta, check_pc
from .mollify import MollifierSpec, mollify, approximation_functional
from .recovery import PwcRecovery, Recovery1D, recover_pwc, recover_1d
from .experiments import (
    PairSample, ExponentFit, coefficient_family, stability_scan,
    lower_bound_closed_form, weighted_estimate_monitor, nonidentifiability_demo,
    PIVOT_ALPHA0,
)
