"""Radial Neumann eigenvalues of the p-Laplacian on balls and annuli.

The eigenvalue problem

    -(r^(N-1) phi_p(w'))' = lam r^(N-1) phi_p(w),   w'(boundary) = 0,

is solved by a phase-angle method.  With the same generalized polar
coordinates as the shooting module, the angle of ``(w, flux)`` obeys a
first order equation that does not involve the amplitude:

    angle' = (p-1) (|sin_p| r^(-(N-1)/p))^p' + lam |cos_p|^p r^(N-1),

and lam is an eigenvalue exactly when the angle sweeps a whole number
of half-periods across the domain.  The k-th eigenvalue (k = 1 is the
constant eigenfunction, lam = 0) is the root in lam of the terminal
angle, which is strictly increasing in lam, minus k half-periods.  The
search starts from the closed form ((k-1) pi_p / width)^p of N = 1,
brackets the root by doubling or halving with
:func:`~plapshoot.odeint.grow_bracket`, and closes in on it with
:func:`~plapshoot.odeint.illinois_bracket`.

The angle runs through :func:`~plapshoot.odeint.end_state`, with the
stage sums generated from the Dormand-Prince tableau for its one
component and a field that returns the slope as a float.  It keeps only
the end value and takes the steps
:func:`~plapshoot.odeint.integrate` would, to the last bit.  Only
:func:`eigenfunction` runs the dense ``integrate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import SolverConfig
from .errors import SearchError, SpecError
from .odeint import IvpSpec, end_state, grow_bracket, illinois_bracket, integrate
from .ptrig import get_context, phi_p, phi_p_inv
from .radial import PROFILE_NODES, ProblemSpec

# The bracket for eigenvalues is grown by doubling until the angle
# overshoots; past this multiple of R^-p something is wrong.
LAMBDA_CAP_FACTOR = 1e8

# The search stops on a bracket this narrow relative to its top, or on
# an angle this close to the target in units of k pi_p.
_REL_TOL = 1e-10
_ANGLE_TOL = 1e-12


@dataclass(frozen=True)
class EigenResult:
    """Eigenvalue ``lam`` of index ``k`` with its phase residual.

    ``residual`` is how far the terminal angle at ``lam`` is from the
    exact multiple of the half-period; it is an a-posteriori quality
    measure in angle units.
    """

    k: int
    lam: float
    residual: float


def eigen_angle(lam: float, spec: ProblemSpec, cfg: SolverConfig | None = None) -> float:
    """Terminal phase angle of the eigenvalue equation at parameter ``lam``.

    Starts one half-period up on a ball (the eigenfunction is taken
    negative at the center) and integrates the amplitude-free angle
    equation outward.  Strictly increasing in ``lam``.  Raises
    :class:`SpecError` if the start-up radius is so small that the
    weight ``r^(-(N-1)/p)`` of the angle equation overflows.
    """
    if not (math.isfinite(lam) and lam >= 0.0):
        raise SpecError(f"lam must be finite and >= 0, got {lam!r}")
    cfg = cfg or SolverConfig()
    p = spec.p
    pp = spec.exponent.pprime
    n = spec.dim
    ctx = get_context(p)
    pip = ctx.pi_p

    if spec.is_ball:
        eps0 = cfg.eps0_for(spec.r_outer)
        r0 = eps0
        th0 = pip + lam * eps0**n / n
    else:
        r0 = spec.domain.r_inner
        th0 = pip

    pair = ctx.pair
    pm1 = p - 1.0
    nm1 = n - 1
    r_expo = -nm1 / p
    if nm1:
        try:
            r0**r_expo
        except OverflowError:
            raise SpecError(
                f"start-up radius {r0!r} too small: r^(-(N-1)/p) overflows for"
                f" N={n}, p={p!r}"
            ) from None

    def field(r, th):
        # For N = 1 the weight r^(N-1) is 1.0, and dropping a product
        # with 1.0 keeps the bits.
        c, s = pair(th)
        if nm1:
            return pm1 * (abs(s) * r**r_expo) ** pp + lam * abs(c) ** p * r**nm1
        return pm1 * abs(s) ** pp + lam * abs(c) ** p

    ivp = IvpSpec(
        rhs=lambda r, y: (field(r, y[0]),),
        r_start=r0,
        r_end=spec.r_outer,
        y0=(th0,),
        rel_tol=cfg.rel_tol,
        abs_tol=cfg.abs_tol,
    )
    return end_state(ivp, field, 1, scalar=True)[0][0]


def _guess(k: int, spec: ProblemSpec) -> float:
    """The k-th eigenvalue of N = 1 on the same width, ((k-1) pi_p / width)^p."""
    width = spec.r_outer - (0.0 if spec.is_ball else spec.domain.r_inner)
    return ((k - 1) * get_context(spec.p).pi_p / width) ** spec.p


def eigenvalue(k: int, spec: ProblemSpec, cfg: SolverConfig | None = None) -> EigenResult:
    """The k-th radial Neumann eigenvalue, k = 1 being the trivial zero.

    For k >= 2 the search starts from the N = 1 closed form
    ((k-1) pi_p / width)^p, clamped to the safety cap, and doubles or
    halves lam until the terminal angle crosses k half-periods.
    :func:`~plapshoot.odeint.illinois_bracket` then closes in on the
    crossing until the angle is within 1e-12 k pi_p of it or the
    bracket's relative width is below 1e-10; ``residual`` is the angle
    miss it returns.  Raises :class:`SearchError` if the angle has not
    crossed by the cap.
    """
    if not (isinstance(k, int) and k >= 1):
        raise SpecError(f"eigenvalue index must be an integer >= 1, got {k!r}")
    cfg = cfg or SolverConfig()
    pip = get_context(spec.p).pi_p
    if k == 1:
        residual = abs(eigen_angle(0.0, spec, cfg) - pip)
        return EigenResult(k=1, lam=0.0, residual=residual)

    target = k * pip

    def side(lam):
        return eigen_angle(lam, spec, cfg) - target

    cap = LAMBDA_CAP_FACTOR * spec.r_outer ** (-spec.p)
    bracket = grow_bracket(side, _guess(k, spec), 0.0, cap)
    if bracket is None:
        raise SearchError(f"no angle crossing for k={k} below lam={cap:.3e}")
    lam, miss = illinois_bracket(
        side, *bracket, _ANGLE_TOL * target, lambda lo, hi: hi - lo <= _REL_TOL * hi
    )
    return EigenResult(k=k, lam=lam, residual=abs(miss))


def eigenfunction(
    lam: float,
    spec: ProblemSpec,
    cfg: SolverConfig | None = None,
) -> tuple[list[float], list[float], list[float]]:
    """Radial eigenfunction profile ``(r, w, flux)`` at parameter ``lam``.

    Integrates the amplitude equation in Cartesian form, normalized to
    ``w = -1`` with zero slope at the inner end, and samples it at
    ``PROFILE_NODES`` evenly spaced radii; useful for inspecting the
    profile behind an :class:`EigenResult`.  The flux is ``r^(N-1) phi_p(w')``.
    """
    if not (math.isfinite(lam) and lam >= 0.0):
        raise SpecError(f"lam must be finite and >= 0, got {lam!r}")
    cfg = cfg or SolverConfig()
    p = spec.p
    pp = spec.exponent.pprime
    n = spec.dim

    if spec.is_ball:
        eps0 = cfg.eps0_for(spec.r_outer)
        r0 = eps0
        w0 = -1.0 + phi_p_inv(lam / n, p) * eps0**pp / pp
        flux0 = lam * eps0**n / n
    else:
        r0 = spec.domain.r_inner
        w0 = -1.0
        flux0 = 0.0

    def rhs(r, y):
        w, flux = y
        rn = r ** (n - 1) if n > 1 else 1.0
        slope = phi_p_inv(flux / rn, p) if flux != 0.0 else 0.0
        return (slope, -lam * rn * phi_p(w, p))

    sol = integrate(
        IvpSpec(
            rhs=rhs,
            r_start=r0,
            r_end=spec.r_outer,
            y0=(w0, flux0),
            rel_tol=cfg.rel_tol,
            abs_tol=cfg.abs_tol,
        )
    )
    span = spec.r_outer - r0
    rs = [r0 + span * i / (PROFILE_NODES - 1) for i in range(PROFILE_NODES)]
    ws = []
    fluxes = []
    for r in rs:
        w, flux = sol.eval(r)
        ws.append(w)
        fluxes.append(flux)
    return rs, ws, fluxes
