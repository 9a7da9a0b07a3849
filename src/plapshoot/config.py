"""Numerical knobs shared by the shooting, eigenvalue and search layers.

One frozen configuration object travels through every routine so that a
whole computation can be tightened or loosened coherently.  Defaults
are chosen so that phase angles come out well below the validation
tolerances used when roots are accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SpecError


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances, grids and limits for shots and root searches.

    ``eps0`` overrides the startup radius on balls; when ``None`` it is
    ``1e-8`` times the outer radius.  ``rho_floor`` is the
    squared phase-plane radius below which a shot is declared to have
    collapsed onto the constant state.
    """

    d_grid_size: int = 2000
    d_min: float = 1e-4
    d_max: float = 1.0 - 1e-6
    d_min_upper: float = 1.0 + 1e-6
    d_max_upper: float = 50.0
    refine_fraction: float = 0.5
    bisect_tol_d: float = 1e-12
    residual_tol: float = 1e-7
    phase_tol_factor: float = 1e-8
    rho_floor: float = 1e-12
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_steps: int = 1_000_000
    eps0: float | None = None
    profile_nodes: int = 400

    def __post_init__(self):
        if self.d_grid_size < 16:
            raise SpecError("d_grid_size must be at least 16")
        if not 0.0 < self.d_min < self.d_max < 1.0:
            raise SpecError("need 0 < d_min < d_max < 1")
        if not 1.0 < self.d_min_upper < self.d_max_upper:
            raise SpecError("need 1 < d_min_upper < d_max_upper")
        if not 0.0 <= self.refine_fraction <= 1.0:
            raise SpecError("refine_fraction must lie in [0, 1]")
        for name in (
            "bisect_tol_d",
            "residual_tol",
            "phase_tol_factor",
            "rho_floor",
            "rel_tol",
            "abs_tol",
        ):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and 0.0 < v and math.isfinite(v)):
                raise SpecError(f"{name} must be a positive finite number")
        if self.max_steps < 1:
            raise SpecError("max_steps must be at least 1")
        if self.eps0 is not None and not self.eps0 > 0.0:
            raise SpecError("eps0 must be positive when given")
        if self.profile_nodes < 2:
            raise SpecError("profile_nodes must be at least 2")

    def eps0_for(self, r_outer: float) -> float:
        """Startup radius for a ball of the given outer radius."""
        eps0 = self.eps0 if self.eps0 is not None else 1e-8 * r_outer
        if not eps0 < r_outer / 2.0:
            raise SpecError(
                f"startup radius {eps0!r} too large for outer radius {r_outer!r}"
            )
        return eps0
