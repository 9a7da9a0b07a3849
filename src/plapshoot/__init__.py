"""Shooting solver for radial Neumann problems driven by the p-Laplacian.

The package locates non-constant radial solutions of quasilinear
Neumann problems on balls and annuli by integrating the radial equation
in phase-plane polar coordinates and counting how far the phase angle
winds.  Supporting pieces, generalized trigonometric functions, an
adaptive integrator with dense output, and a radial eigenvalue solver,
are exposed as well because they are useful on their own.
"""

from .branch import BranchPoint, bifurcation_onset, branch_sweep
from .config import SolverConfig
from .eigen import EigenResult, eigen_angle, eigenfunction, eigenvalue
from .errors import (
    IntegrationError,
    NearConstantShotError,
    NumericsError,
    PlapshootError,
    SearchError,
    SpecError,
)
from .odeint import DenseSolution, IvpSpec, crossings, integrate
from .ptrig import PTrigContext, get_context, phi_p, phi_p_inv, pi_p
from .radial import (
    Annulus,
    Ball,
    Nonlinearity,
    ProblemSpec,
    ShotEnd,
    ShotSummary,
    Trajectory,
    shoot,
    startup_state,
)
from .solver import SolutionRecord, d_grid, find_solutions, rstar, theta_scan

__all__ = [
    "Annulus",
    "Ball",
    "BranchPoint",
    "DenseSolution",
    "EigenResult",
    "IntegrationError",
    "IvpSpec",
    "NearConstantShotError",
    "Nonlinearity",
    "NumericsError",
    "PTrigContext",
    "PlapshootError",
    "ProblemSpec",
    "SearchError",
    "ShotEnd",
    "ShotSummary",
    "SolutionRecord",
    "SolverConfig",
    "SpecError",
    "Trajectory",
    "bifurcation_onset",
    "branch_sweep",
    "crossings",
    "d_grid",
    "eigen_angle",
    "eigenfunction",
    "eigenvalue",
    "find_solutions",
    "get_context",
    "integrate",
    "phi_p",
    "phi_p_inv",
    "pi_p",
    "rstar",
    "shoot",
    "startup_state",
    "theta_scan",
]

__version__ = "0.1.0"
