"""Weighted spatio-temporal TV reconstruction with learned per-voxel
regularization parameter-maps."""

__version__ = "0.1.0"

from .tensors import SharingMode, grad, grad_adjoint, weighted_tv, expand_map  # noqa: F401
from .solvers import Problem, solve_problem  # noqa: F401
