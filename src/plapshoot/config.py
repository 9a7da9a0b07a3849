"""Numerical knobs shared by the shooting, eigenvalue and search layers.

One frozen configuration object travels through every routine so that a
whole computation can be tightened or loosened coherently.  It holds the
five values callers choose: ``d_grid_size``, ``rel_tol``, ``abs_tol``,
``residual_tol`` and ``eps0``.  Fixed constants (scan range, bisection
width, the scan's coarse tolerances ``SCAN_REL_TOL`` and
``SCAN_ABS_TOL`` and its re-shooting margin ``SCAN_MARGIN``, collapse
floor, profile sampling) live in the module that reads each, and
``ProblemSpec.start_radius`` in :mod:`plapshoot.radial` sets the default
``eps0`` and its limit of half the outer radius.  Defaults are chosen so
that phase angles come out well below the validation tolerances used
when roots are accepted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import check_count, check_number


@dataclass(frozen=True)
class SolverConfig:
    """Scan resolution and tolerances for shots and searches.

    ``d_grid_size`` is the size of the ``d`` scan grid (an integer of at
    least 16).  ``rel_tol`` and ``abs_tol`` are the integrator's error
    tolerances.  ``residual_tol`` bounds the relative terminal flux of a
    validated solution.  ``eps0`` overrides the startup radius on balls;
    :meth:`~plapshoot.radial.ProblemSpec.start_radius` reads it, takes
    ``1e-8`` times the outer radius R when it is ``None``, refuses it
    from R/2 up, and refuses it on an annulus, which starts at its inner
    radius.  Each value given must be a positive finite number.
    """

    d_grid_size: int = 2000
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    residual_tol: float = 1e-7
    eps0: float | None = None

    def __post_init__(self):
        check_count(self.d_grid_size, 16, "d_grid_size")
        given = ("residual_tol", "rel_tol", "abs_tol")
        if self.eps0 is not None:
            given += ("eps0",)
        for name in given:
            check_number(getattr(self, name), name, above=0.0)
