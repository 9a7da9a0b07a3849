"""Radial Neumann eigenvalues of the p-Laplacian on balls and annuli.

The eigenvalue problem

    -(r^(N-1) phi_p(w'))' = lam r^(N-1) phi_p(w),   w'(boundary) = 0,

is solved by a phase-angle method.  With the same generalized polar
coordinates as the shooting module, the angle of ``(w, flux)`` obeys a
first order equation that does not involve the amplitude:

    angle' = (p-1) (|sin_p| r^(-(N-1)/p))^p' + lam |cos_p|^p r^(N-1),

and lam is an eigenvalue exactly when the angle sweeps a whole number
of half-periods across the domain.  The k-th eigenvalue (k = 1 is the
constant eigenfunction, lam = 0) is found by bisecting lam against the
terminal angle, which is strictly increasing in lam.

The angle runs through :func:`_angle_end`, the Dormand-Prince stage
sums unrolled for its one component and keeping only the end value.
It steps through :func:`~plapshoot.odeint._march`, the step loop of
:func:`~plapshoot.odeint.integrate`, so it takes the steps
``integrate`` would, to the last bit.  Only :func:`eigenfunction` runs
the dense ``integrate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import SolverConfig
from .errors import SearchError, SpecError
from .odeint import (
    _A,
    _C,
    _E,
    IvpSpec,
    _march,
    bisect_bracket,
    integrate,
)
from .ptrig import get_context, phi_p, phi_p_inv
from .radial import PROFILE_NODES, ProblemSpec

# The bisection bracket for eigenvalues is grown by doubling until the
# angle overshoots; past this multiple of R^-p something is wrong.
LAMBDA_CAP_FACTOR = 1e8

_BISECT_REL_TOL = 1e-10


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
    equation outward.  Strictly increasing in ``lam``.
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
    return _angle_end(ivp, field)


def _angle_end(ivp: IvpSpec, field) -> float:
    """End value of the one-component ``ivp`` by Dormand-Prince 5(4).

    ``field(r, th)`` is the scalar form of ``ivp.rhs``.  Runs
    :func:`~plapshoot.odeint._march`, the step loop of
    :func:`~plapshoot.odeint.integrate`, with the stage sums written out
    in the same order, so it takes the same steps and raises what
    ``integrate`` raises, but keeps no dense output and drops the
    tableau's zero terms, which can change only the sign of a zero.
    """
    isfinite = math.isfinite
    (
        _,
        (a21,),
        (a31, a32),
        (a41, a42, a43),
        (a51, a52, a53, a54),
        (a61, a62, a63, a64, a65),
        (a71, _, a73, a74, a75, a76),
    ) = _A
    _, c2, c3, c4, c5, c6, _ = _C
    e1, _, e3, e4, e5, e6, e7 = _E
    rel_tol = ivp.rel_tol
    abs_tol = ivp.abs_tol

    def trial(r, h, y, k):
        # Stages 2..6, then the candidate endpoint and its slope (k7).
        (th,), (k1,) = y, k
        k2 = field(r + c2 * h, th + h * (a21 * k1))
        if not isfinite(k2):
            return math.inf, None, None, 1
        k3 = field(r + c3 * h, th + h * (a31 * k1 + a32 * k2))
        if not isfinite(k3):
            return math.inf, None, None, 2
        k4 = field(r + c4 * h, th + h * (a41 * k1 + a42 * k2 + a43 * k3))
        if not isfinite(k4):
            return math.inf, None, None, 3
        k5 = field(
            r + c5 * h,
            th + h * (a51 * k1 + a52 * k2 + a53 * k3 + a54 * k4),
        )
        if not isfinite(k5):
            return math.inf, None, None, 4
        k6 = field(
            r + c6 * h,
            th + h * (a61 * k1 + a62 * k2 + a63 * k3 + a64 * k4 + a65 * k5),
        )
        if not isfinite(k6):
            return math.inf, None, None, 5
        th_new = th + h * (a71 * k1 + a73 * k3 + a74 * k4 + a75 * k5 + a76 * k6)
        if not isfinite(th_new):
            return math.inf, None, None, 5
        k7 = field(r + h, th_new)
        if not isfinite(k7):
            return math.inf, None, None, 6
        q = h * (
            e1 * k1 + e3 * k3 + e4 * k4 + e5 * k5 + e6 * k6 + e7 * k7
        ) / (abs_tol + rel_tol * max(abs(th), abs(th_new)))
        return math.sqrt(q * q), (th_new,), (k7,), 6

    return _march(ivp, trial)[0][0]


def eigenvalue(k: int, spec: ProblemSpec, cfg: SolverConfig | None = None) -> EigenResult:
    """The k-th radial Neumann eigenvalue, k = 1 being the trivial zero.

    For k >= 2 the bracket is grown by doubling and then bisected on
    the terminal angle with :func:`~plapshoot.odeint.bisect_bracket`
    until its relative width is below 1e-10.  Raises
    :class:`SearchError` if the bracket cannot be established below the
    safety cap.
    """
    if not (isinstance(k, int) and k >= 1):
        raise SpecError(f"eigenvalue index must be an integer >= 1, got {k!r}")
    cfg = cfg or SolverConfig()
    pip = get_context(spec.p).pi_p
    if k == 1:
        residual = abs(eigen_angle(0.0, spec, cfg) - pip)
        return EigenResult(k=1, lam=0.0, residual=residual)

    target = k * pip
    cap = LAMBDA_CAP_FACTOR * spec.r_outer ** (-spec.p)
    lo = 0.0
    hi = 1.0
    while eigen_angle(hi, spec, cfg) < target:
        lo = hi
        hi *= 2.0
        if hi > cap:
            raise SearchError(
                f"no angle crossing for k={k} below lam={cap:.3e}"
            )
    lam = bisect_bracket(
        lambda lam: eigen_angle(lam, spec, cfg) - target,
        lo,
        hi,
        -1.0,
        lambda lo, hi: hi - lo <= _BISECT_REL_TOL * hi,
    )
    residual = abs(eigen_angle(lam, spec, cfg) - target)
    return EigenResult(k=k, lam=lam, residual=residual)


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
