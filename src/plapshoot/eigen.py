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
search starts from the asymptotic guess of :func:`_guess`, brackets the
root by scaling lam with the p-th power of the share of the angle still
to sweep, and closes in on it with
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
    illinois_bracket,
    integrate,
)
from .ptrig import LOOKUP, _pow_abs, get_context, phi_p, phi_p_inv
from .radial import PROFILE_NODES, ProblemSpec

# The bracket for eigenvalues is grown until the angle overshoots; past
# this multiple of R^-p something is wrong.
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
    """A start for the k-th eigenvalue, inf where it overflows.

    On a ball, mu = lam^(1/p) is guessed as (k - 1 + (N-1)/(2p)) pi_p / R:
    at N = 1 this is exact, at p = 2 the shift (N-1)/4 is the large-k
    limit of the Bessel roots, and at p = 2.5, N = 3 the guess is within
    2.5 % of the root.  An annulus takes the N = 1 value
    ((k-1) pi_p / width)^p.
    """
    p = spec.p
    if spec.is_ball:
        half_periods = k - 1 + (spec.dim - 1) / (2.0 * p)
        width = spec.r_outer
    else:
        half_periods = k - 1
        width = spec.r_outer - spec.domain.r_inner
    return _pow_abs(half_periods * get_context(p).pi_p / width, p)


def eigenvalue(k: int, spec: ProblemSpec, cfg: SolverConfig | None = None) -> EigenResult:
    """The k-th radial Neumann eigenvalue, k = 1 being the trivial zero.

    For k >= 2 the search starts from :func:`_guess`, clamped to the
    safety cap, and multiplies lam by ((k-1) pi_p / (angle - pi_p))^p,
    the p-th power of the share of the sweep still to go, clamped to
    [2^-p, 2^p], until the terminal angle crosses k half-periods; a lam
    whose angle is within 1e-12 k pi_p of them, the start included, is
    returned at once.  :func:`~plapshoot.odeint.illinois_bracket`
    then closes in on the crossing until the angle is within that
    tolerance or the bracket's relative width is below 1e-10;
    ``residual`` is the angle miss it returns.  Raises
    :class:`SearchError` if the angle has not crossed by the cap, and
    :class:`SpecError` if the cap overflows.
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
    f_tol = _ANGLE_TOL * target

    def side(lam):
        return eigen_angle(lam, spec, cfg) - target

    cap = LAMBDA_CAP_FACTOR * _pow_abs(spec.r_outer, -spec.p)
    if cap == math.inf:
        raise SpecError(f"radius {spec.r_outer!r} too small: the lam cap overflows at p={spec.p!r}")
    lam = min(_guess(k, spec), cap)
    lo = hi = None
    while True:
        miss = side(lam)
        if abs(miss) <= f_tol:
            return EigenResult(k=k, lam=lam, residual=abs(miss))
        if miss < 0.0:
            lo, f_lo = lam, miss
        else:
            hi, f_hi = lam, miss
        if lo is not None and hi is not None:
            break
        # The angle sweeps past its start pi_p about in proportion to lam^(1/p).
        swept = miss + target - pip
        share = (k - 1) * pip / swept if swept > 0.0 else 2.0
        step = min(lam * min(max(share, 0.5), 2.0) ** spec.p, cap)
        if miss < 0.0 and step <= lam:
            raise SearchError(f"no angle crossing for k={k} below lam={cap:.3e}")
        lam = step
    lam, miss = illinois_bracket(
        side, lo, hi, f_lo, f_hi, f_tol, lambda lo, hi: hi - lo <= _REL_TOL * hi
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
