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

The angle runs through :func:`~plapshoot.odeint.end_state`: its rate,
written once as a body for every N, is compiled by
:func:`~plapshoot.odeint.compile_field` into the right hand side of its
one-component IVP, which carries the march generated from the
Dormand-Prince tableau with the body pasted into each stage.  The body
opens with :data:`~plapshoot.ptrig.LOOKUP`, the table look-up that
:meth:`~plapshoot.ptrig.PTrigContext.pair` runs, with the context's
table bound: no stage calls a function, and a stage angle that is not
finite gives a NaN slope, which shrinks the step.  The fold of even
exponents drops the ``abs`` of ``sin_p`` and ``cos_p`` at p = 2, and that
of zero exponents the weights ``r ** 0`` at N = 1, where no stage reads
``r``.  It keeps only the end value.  Only :func:`eigenfunction`, which
samples a profile, runs the dense :func:`~plapshoot.odeint.integrate`,
whose march is generated from the same tableau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import SolverConfig
from .errors import SearchError, SpecError, check_count, check_number
from .odeint import (
    IvpSpec,
    compile_field,
    end_state,
    grow_bracket,
    illinois_bracket,
    integrate,
)
from .ptrig import LOOKUP, _pow_abs, get_context, phi_p, phi_p_inv
from .radial import PROFILE_NODES, ProblemSpec

# The bracket for eigenvalues is grown by doubling until the angle
# overshoots; past this multiple of R^-p something is wrong.
LAMBDA_CAP_FACTOR = 1e8

# The search stops on a bracket this narrow relative to its top, or on
# an angle this close to the target in units of k pi_p.
_REL_TOL = 1e-10
_ANGLE_TOL = 1e-12

# The angle's rate after the look-up of (c, s) at th, whose p and pp it
# reads.  For N = 1, nm1 = 0 and r_expo = -0.0 fold both weights out.
_ANGLE = LOOKUP + (
    "f0 = pm1 * (abs(s) * r ** r_expo) ** pp + lam * abs(c) ** p * r ** nm1",
)


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
    check_number(lam, "lam", least=0.0)
    cfg = cfg or SolverConfig()
    p = spec.p
    n = spec.dim
    ctx = get_context(p)
    pip = ctx.pi_p
    r0 = spec.start_radius(cfg)
    th0 = pip + lam * r0**n / n if spec.is_ball else pip

    nm1 = n - 1
    r_expo = -nm1 / p
    if _pow_abs(r0, r_expo) == math.inf:
        raise SpecError(
            f"start-up radius {r0!r} too small: r^(-(N-1)/p) overflows for"
            f" N={n}, p={p!r}"
        )

    ivp = IvpSpec(
        rhs=compile_field(
            ("th",), _ANGLE, **ctx.table(), pm1=p - 1.0, lam=lam, nm1=nm1, r_expo=r_expo
        ),
        r_start=r0,
        r_end=spec.r_outer,
        y0=(th0,),
        rel_tol=cfg.rel_tol,
        abs_tol=cfg.abs_tol,
    )
    return end_state(ivp)[0][0]


def _guess(k: int, spec: ProblemSpec) -> float:
    """The k-th eigenvalue ((k-1) pi_p / width)^p of N = 1, inf where it overflows."""
    width = spec.r_outer - (0.0 if spec.is_ball else spec.domain.r_inner)
    return _pow_abs((k - 1) * get_context(spec.p).pi_p / width, spec.p)


def eigenvalue(k: int, spec: ProblemSpec, cfg: SolverConfig | None = None) -> EigenResult:
    """The k-th radial Neumann eigenvalue, k = 1 being the trivial zero.

    For k >= 2 the search starts from the N = 1 closed form
    ((k-1) pi_p / width)^p, clamped to the safety cap, and doubles or
    halves lam until the terminal angle crosses k half-periods.
    :func:`~plapshoot.odeint.illinois_bracket` then closes in on the
    crossing until the angle is within 1e-12 k pi_p of it or the
    bracket's relative width is below 1e-10; ``residual`` is the angle
    miss it returns.  Raises :class:`SearchError` if the angle has not
    crossed by the cap, and :class:`SpecError` if the cap overflows.
    Below p = 2 the miss can be larger: at p = 1.5, N = 1, k = 5 it is
    1.0e-6 on R = 1, where lam is 6.1e-8 relative off the closed form,
    because the terminal angle is not smooth in lam at about 1e-6 rad:
    over lam steps of 1e-9 relative its increments vary by up to 5.8e-6
    rad there, and a tighter ``rel_tol`` does not remove the jumps.
    """
    check_count(k, 1, "eigenvalue index")
    cfg = cfg or SolverConfig()
    pip = get_context(spec.p).pi_p
    if k == 1:
        residual = abs(eigen_angle(0.0, spec, cfg) - pip)
        return EigenResult(k=1, lam=0.0, residual=residual)

    target = k * pip

    def side(lam):
        return eigen_angle(lam, spec, cfg) - target

    cap = LAMBDA_CAP_FACTOR * _pow_abs(spec.r_outer, -spec.p)
    if cap == math.inf:
        raise SpecError(f"radius {spec.r_outer!r} too small: the lam cap overflows at p={spec.p!r}")
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
    check_number(lam, "lam", least=0.0)
    cfg = cfg or SolverConfig()
    p = spec.p
    pp = spec.pprime
    n = spec.dim
    r0 = spec.start_radius(cfg)
    if spec.is_ball:
        w0 = -1.0 + phi_p_inv(lam / n, p) * r0**pp / pp
        flux0 = lam * r0**n / n
    else:
        w0, flux0 = -1.0, 0.0

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
